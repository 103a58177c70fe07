"""Columnar hot path: batches, compiled kernels, group-apply.

The row-at-a-time apply path runs every delta rule per row, re-reading
the table per statement; this package executes them per **batch**:

* :mod:`~repro.columnar.batch` — :class:`ColumnBatch`, parallel arrays
  per column with a per-window row-id space, built from one engine-table
  scan or from shippable Op-Delta windows;
* :mod:`~repro.columnar.kernels` — the column-batch binding of the one
  SQL compiler (:mod:`repro.sql.expressions`): ``(columns, position) ->
  value`` kernels, cached once per ``(plan fingerprint, table, kind,
  view)``;
* :mod:`~repro.columnar.apply` — :class:`ColumnarApplier`, the columnar
  statement executor of the op-delta integrator's apply loop, with
  fallback barriers onto :class:`RowApplier` (the row-path executor it
  extends) that preserve bit-for-bit state parity.
"""

from .apply import ColumnarApplier, RowApplier
from .batch import ColumnBatch
from .kernels import CompileBarrier, KernelCache, compile_predicate

__all__ = [
    "ColumnBatch",
    "ColumnarApplier",
    "CompileBarrier",
    "KernelCache",
    "RowApplier",
    "compile_predicate",
]
