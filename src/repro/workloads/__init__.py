"""Synthetic workloads: PARTS records and sized OLTP transactions."""

from .oltp import PAPER_TABLE_ROWS, PAPER_TXN_SIZES, OltpWorkload, TxnResult
from .records import PartsGenerator, parts_schema, strip_timestamp, suppliers_schema

__all__ = [
    "OltpWorkload",
    "TxnResult",
    "PAPER_TXN_SIZES",
    "PAPER_TABLE_ROWS",
    "PartsGenerator",
    "parts_schema",
    "suppliers_schema",
    "strip_timestamp",
]
