"""Op-Delta: the paper's primary contribution (§4).

Capture operations (SQL statements) at the COTS/wrapper level instead of
row images; store them in a database table or a flat file; ship the
transaction groups to the warehouse; transform and replay each group as a
self-contained warehouse transaction.
"""

from .capture import CaptureEverythingLean, OpDeltaCapture, StatementAnalyzer
from .hybrid import AlwaysHybridPolicy
from .opdelta import OpDelta, OpDeltaTransaction, OpKind, classify_statement
from .selfmaint import (
    JoinSpec,
    Maintainability,
    ViewDefinition,
    classify_operation,
    classify_static,
)
from .stores import DatabaseLogStore, FileLogStore, OpDeltaStore
from .transform import StatementTransformer, TableMapping

__all__ = [
    "OpDelta",
    "OpDeltaTransaction",
    "OpKind",
    "classify_statement",
    "OpDeltaCapture",
    "CaptureEverythingLean",
    "StatementAnalyzer",
    "OpDeltaStore",
    "DatabaseLogStore",
    "FileLogStore",
    "ViewDefinition",
    "JoinSpec",
    "Maintainability",
    "classify_operation",
    "classify_static",
    "AlwaysHybridPolicy",
    "StatementTransformer",
    "TableMapping",
]
