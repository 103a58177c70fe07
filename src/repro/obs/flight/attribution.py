"""Per-(stage × entity) cost attribution over the span tree.

The tracer already records *where* virtual time went — as a tree of
nested spans.  :class:`CostAttributor` folds that tree into a flat ledger
answering "which pipeline stage spent how much time on which entity",
with an exactness guarantee the tree itself cannot give: every virtual
nanosecond of traced time lands in **exactly one** ledger row, so the
rows sum to the total traced time with zero drift.

Two mechanisms make the guarantee hold:

* **Self time.**  Each span is charged only its *self* time — its
  duration minus its direct children's durations — so nesting never
  double-counts.  Summed over the whole tree the child terms telescope
  away, leaving exactly the root spans' total duration.
* **Integer nanoseconds.**  Millisecond floats are converted to integer
  nanoseconds once (``round(ms * 1e6)``) and every sum is integer
  arithmetic, so the telescoping identity is exact rather than
  approximately-float-equal.

Stages come from span names (``capture.*`` → *capture*, ``transport.ship``
→ *ship*, ...); entities come from span args in precedence order
``view`` > ``table`` > ``source`` > ``db``.  A span naming no entity is
charged to the pipeline itself (entity ``"-"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence

from ...errors import ObservabilityError
from ...plain import plain

#: Span-name prefixes to ledger stages, first match wins — ordered so the
#: more specific prefix (``capture.check``) shadows the general one
#: (``capture.``).
STAGE_PREFIXES: tuple[tuple[str, str], ...] = (
    ("capture.check", "check"),
    ("capture.", "capture"),
    ("compaction.", "compact"),
    ("transport.prune", "prune"),
    ("transport.ship", "ship"),
    ("transport.queue", "ship"),
    ("warehouse.view", "apply"),
    ("warehouse.apply", "apply"),
    ("warehouse.olap", "query"),
    ("extract.", "extract"),
    ("engine.", "engine"),
)

#: Span-arg keys that can name the charged entity, most specific first.
ENTITY_ARGS: tuple[str, ...] = ("view", "table", "source", "db")

#: Entity charged when a span names none: the pipeline machinery itself.
NO_ENTITY = "-"


def stage_of(span_name: str) -> str:
    """The ledger stage a span name belongs to (``other`` if unmapped)."""
    for prefix, stage in STAGE_PREFIXES:
        if span_name.startswith(prefix):
            return stage
    return "other"


def entity_of(args: dict[str, Any]) -> str:
    """The most specific entity a span's args name (``"-"`` if none)."""
    for key in ENTITY_ARGS:
        value = args.get(key)
        if value is not None:
            return str(value)
    return NO_ENTITY


def _to_ns(at_ms: float) -> int:
    """Virtual milliseconds to exact integer virtual nanoseconds."""
    return round(at_ms * 1e6)


class _SpanLike(Protocol):
    """The span fields attribution reads (structural: Span fits)."""

    @property
    def name(self) -> str: ...
    @property
    def start_ms(self) -> float: ...
    @property
    def end_ms(self) -> float | None: ...
    @property
    def parent(self) -> Any: ...
    @property
    def args(self) -> dict[str, Any]: ...


class _TracerLike(Protocol):
    """The tracer surface attribution reads (Tracer and BoundTracer fit)."""

    @property
    def spans(self) -> list[Any]: ...


@dataclass
class CostRow:
    """One ledger cell: self time of one (stage, entity) pair."""

    stage: str
    entity: str
    self_ns: int = 0
    spans: int = 0

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "entity": self.entity,
            "self_ns": self.self_ns,
            "self_ms": self.self_ms,
            "spans": self.spans,
        }


class CostLedger:
    """The folded ledger: rows keyed by (stage, entity), conservative."""

    def __init__(self) -> None:
        self._rows: dict[tuple[str, str], CostRow] = {}
        #: Exact total of root-span durations (what the rows must sum to).
        self.total_traced_ns = 0
        #: Spans folded in (every closed span, at every depth).
        self.span_count = 0

    def _charge(self, stage: str, entity: str, self_ns: int) -> None:
        key = (stage, entity)
        row = self._rows.get(key)
        if row is None:
            row = CostRow(stage, entity)
            self._rows[key] = row
        row.self_ns += self_ns
        row.spans += 1

    # ------------------------------------------------------------------ reads
    @property
    def total_traced_ms(self) -> float:
        return self.total_traced_ns / 1e6

    def rows(self) -> list[CostRow]:
        """All rows, sorted by descending self time then key (stable)."""
        return sorted(
            self._rows.values(),
            key=lambda row: (-row.self_ns, row.stage, row.entity),
        )

    def top(self, k: int) -> list[CostRow]:
        """The k most expensive (stage, entity) cells."""
        return self.rows()[:k]

    def row(self, stage: str, entity: str = NO_ENTITY) -> CostRow | None:
        return self._rows.get((stage, entity))

    def ledger_ns(self) -> int:
        """Sum of every row — equals :attr:`total_traced_ns` exactly."""
        return sum(row.self_ns for row in self._rows.values())

    def is_conservative(self) -> bool:
        """Whether the ledger accounts for every traced nanosecond."""
        return self.ledger_ns() == self.total_traced_ns

    def __len__(self) -> int:
        return len(self._rows)

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_traced_ns": self.total_traced_ns,
            "total_traced_ms": self.total_traced_ms,
            "span_count": self.span_count,
            "conservative": self.is_conservative(),
            "rows": plain(self.rows()),
        }


class CostAttributor:
    """Folds a tracer's span tree into a conservative :class:`CostLedger`."""

    def attribute(self, tracer: _TracerLike) -> CostLedger:
        """Fold every closed span of ``tracer`` into a fresh ledger.

        The tracer must be quiesced — an open span has no duration yet, so
        attributing mid-flight would silently lose its time and break the
        conservation guarantee.
        """
        open_spans = [span for span in tracer.spans if span.end_ms is None]
        if open_spans:
            raise ObservabilityError(
                f"cannot attribute costs with {len(open_spans)} span(s) "
                f"still open (first: {open_spans[0].name!r}); close every "
                "span before folding the ledger"
            )
        return self._fold(tracer.spans)

    def _fold(self, spans: Sequence[_SpanLike]) -> CostLedger:
        ledger = CostLedger()
        durations: dict[int, int] = {}
        child_ns: dict[int, int] = {}
        for span in spans:
            assert span.end_ms is not None  # quiesced, checked above
            duration = _to_ns(span.end_ms) - _to_ns(span.start_ms)
            durations[id(span)] = duration
            if span.parent is None:
                ledger.total_traced_ns += duration
            else:
                child_ns[id(span.parent)] = (
                    child_ns.get(id(span.parent), 0) + duration
                )
        for span in spans:
            self_ns = durations[id(span)] - child_ns.get(id(span), 0)
            ledger._charge(stage_of(span.name), entity_of(span.args), self_ns)
            ledger.span_count += 1
        return ledger
