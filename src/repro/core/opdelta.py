"""Op-Delta records (paper §4).

An Op-Delta captures *the operation that caused the change* — the SQL
statement itself — instead of the per-row before/after images that value
deltas carry.  The consequences the paper derives, all observable on these
objects:

* **size** — a DELETE/UPDATE Op-Delta is the statement text (~70 bytes)
  regardless of how many rows it affects; an INSERT Op-Delta carries the
  inserted data, so it is about as big as the equivalent value delta;
* **transaction boundaries** — Op-Deltas are grouped per source
  transaction (:class:`OpDeltaTransaction`), so the warehouse can apply
  each group as a self-contained transaction, concurrently with queries;
* **hybrid capture** — when a target view is not self-maintainable from
  the operation alone, the Op-Delta is augmented with the *before images*
  of the affected rows (``before_image``), and nothing more — the after
  image never needs capturing because the operation derives it.

What ships is the statement **text**; the parsed statement a record carries is
a process-local convenience.  A record that has only its text reads it through
the statement template table (:data:`repro.sql.parser.TEMPLATES`, keyed by
statement shape): the grammar runs once per shape, and the bound statement
brings its shape's footprint, plan and kernels with it
(:mod:`repro.sql.templates`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..errors import OpDeltaError, WarehouseError
from ..obs.context import ambient_metrics
from ..sql import ast_nodes as ast
from ..sql.expressions import NO_SESSION, compile_after_image, compile_insert_rows
from ..sql.parser import TEMPLATES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.analyzer import AnalysisRecord


class OpKind(enum.Enum):
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"


#: Serialized size of an Op-Delta's fixed header (see
#: :attr:`OpDelta.size_bytes` for the full wire-format accounting):
#: ``txn_id`` (8) + ``sequence`` (8) + ``captured_at`` (4, ms relative to
#: the shipment epoch) + table reference (2, an id into the shipped table
#: catalog) + kind/flags (2) = 24 bytes.
OPDELTA_HEADER_BYTES = 24


@dataclass
class OpDelta:
    """One captured operation."""

    statement_text: str
    table: str
    kind: OpKind
    txn_id: int
    sequence: int
    captured_at: float
    #: Full before images of the affected rows (hybrid capture only).
    before_image: list[tuple[Any, ...]] | None = None
    #: Pipeline correlation id, ``<source>:<sequence>``, stamped by
    #: :class:`~repro.core.capture.OpDeltaCapture` for end-to-end lineage
    #: (:mod:`repro.obs.pipeline`).  Derivable from the header's source and
    #: sequence fields, so it adds no wire bytes and stays out of equality.
    lineage_id: str | None = field(default=None, repr=False, compare=False)
    #: Static-analysis record attached at capture time when the capture
    #: pipeline runs with an :class:`~repro.analysis.OpDeltaAnalyzer`.
    analysis: "AnalysisRecord | None" = field(
        default=None, repr=False, compare=False
    )
    _parsed: ast.Statement | None = field(default=None, repr=False, compare=False)

    @property
    def statement(self) -> ast.Statement:
        """The parsed statement (lazily, through the template table).

        Workload statements repeat a small set of shapes, so the parse goes
        through the process-wide :data:`~repro.sql.parser.TEMPLATES`: the
        grammar runs once per shape no matter how many :class:`OpDelta`
        instances carry it — a text that differs from an earlier one only in
        its literals is bound from that one's template, after the record
        crosses the wire and in any analysis pass that only has the text.
        """
        if self._parsed is None:
            hits = TEMPLATES.hits
            self._parsed = TEMPLATES.parse(self.statement_text)
            registry = ambient_metrics()
            if registry is not None:
                if TEMPLATES.hits > hits:
                    registry.counter("core.opdelta.parse_cache_hits").inc()
                else:
                    registry.counter("core.opdelta.parse_cache_misses").inc()
        return self._parsed

    @property
    def size_bytes(self) -> int:
        """Transport volume of this record's wire encoding.

        The wire format is ``header + statement text + optional before
        image``:

        * a fixed :data:`OPDELTA_HEADER_BYTES`-byte header (txn id,
          sequence, capture timestamp, table reference, kind/flags);
        * the statement text, verbatim;
        * for hybrid captures, each before-image row's values rendered
          with a one-byte separator.

        The ``analysis`` record and the ``_parsed`` AST are process-local
        annotations — they are recomputed (or cache-shared) on the
        consuming side and **never serialized**, so neither contributes
        here.  Compaction savings are therefore measured against a stable
        per-op baseline of ``len(statement_text) + OPDELTA_HEADER_BYTES``.
        """
        size = len(self.statement_text) + OPDELTA_HEADER_BYTES
        if self.before_image is not None:
            size += sum(
                sum(len(str(v)) + 1 for v in row) for row in self.before_image
            )
        return size


def derive_row_images(
    op: OpDelta, columns: Sequence[str]
) -> Iterator[tuple[tuple[Any, ...] | None, tuple[Any, ...] | None]]:
    """The value delta ``op`` stands for, as ``(before, after)`` row images.

    Rows are in ``columns`` order and derived lazily, one pair at a time:
    an INSERT's rows come from the statement's literals, a DELETE's images
    are the before images as captured, and an UPDATE's after images are
    computed from its SET list — which is why hybrid capture never ships
    an after image.  UPDATE and DELETE need ``op.before_image``; callers
    refuse a lean Op-Delta in their own words before iterating.
    """
    statement = op.statement
    if op.kind is OpKind.INSERT:
        assert isinstance(statement, ast.InsertStmt)
        rows = compile_insert_rows(statement, columns, WarehouseError)
        for row in rows(NO_SESSION):
            yield None, row
    elif op.kind is OpKind.DELETE:
        for before in op.before_image:
            yield before, None
    else:
        assert isinstance(statement, ast.UpdateStmt)
        after_image = compile_after_image(statement, columns)
        for before in op.before_image:
            yield before, after_image(before)


def classify_statement(statement: ast.Statement) -> tuple[OpKind, str]:
    """Return the operation kind and target table of a DML statement."""
    if isinstance(statement, ast.InsertStmt):
        return OpKind.INSERT, statement.table
    if isinstance(statement, ast.UpdateStmt):
        return OpKind.UPDATE, statement.table
    if isinstance(statement, ast.DeleteStmt):
        return OpKind.DELETE, statement.table
    raise OpDeltaError(
        f"only DML statements produce Op-Deltas, got {type(statement).__name__}"
    )


@dataclass
class OpDeltaTransaction:
    """The Op-Deltas of one committed source transaction, in order.

    This is the unit of application at the warehouse: each group becomes
    one warehouse transaction, preserving the source boundary — the
    property that lets maintenance interleave with OLAP queries (§4.1).
    """

    txn_id: int
    operations: list[OpDelta] = field(default_factory=list)
    committed_at: float | None = None

    def __len__(self) -> int:
        return len(self.operations)

    @property
    def size_bytes(self) -> int:
        return sum(op.size_bytes for op in self.operations)

    def tables(self) -> set[str]:
        return {op.table for op in self.operations}
