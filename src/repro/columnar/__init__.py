"""Columnar hot path: batches, compiled kernels, group-apply.

The row-at-a-time apply path interprets every delta rule per row with
dict environments; this package executes them per **batch**:

* :mod:`~repro.columnar.batch` — :class:`ColumnBatch`, parallel arrays
  per column with null masks and a per-window row-id space, built from
  one engine-table scan or from shippable Op-Delta windows;
* :mod:`~repro.columnar.kernels` — closure compilation of the existing
  SQL AST into ``(columns, position) -> value`` kernels, cached once per
  ``(plan fingerprint, table, kind, view)``;
* :mod:`~repro.columnar.apply` — :class:`ColumnarApplier`, the columnar
  statement executor of the op-delta integrator's apply loop, with
  fallback barriers onto :class:`RowApplier` (the row-path executor it
  extends) that preserve bit-for-bit state parity.
"""

# ``apply`` first: it pulls in ``repro.engine`` before anything touches
# ``repro.sql``, which keeps this package importable on its own (the SQL
# front end cannot initialise before the engine — see ``engine.remote``).
from .apply import ColumnarApplier, RowApplier
from .batch import ColumnBatch, batch_from_insert_rows
from .kernels import (
    CompileBarrier,
    KernelCache,
    compile_expression,
    compile_predicate,
)

__all__ = [
    "ColumnBatch",
    "ColumnarApplier",
    "CompileBarrier",
    "KernelCache",
    "RowApplier",
    "batch_from_insert_rows",
    "compile_expression",
    "compile_predicate",
]
