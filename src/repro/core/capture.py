"""Op-Delta capture: the COTS/wrapper-level interception (paper §4.2).

The capture point is a session :data:`~repro.engine.session.Session.capture_hooks`
hook — the statement is observed "right before it is submitted to the DBMS",
exactly the seam a COTS vendor or a third-party wrapper would use.  No
application changes, no triggers, no log access.

Capture cost structure (what Figure 3 / Table 4 measure):

* the operation text goes to the configured :class:`OpDeltaStore`
  (database table or file);
* when a :class:`HybridPolicy` says the warehouse cannot maintain its
  views from the operation alone, the wrapper additionally runs the
  operation's predicate as a SELECT to capture the **before images** —
  "in the worst case, the operation description has to be augmented with
  the before image of the state change".  The after image is *never*
  captured: the operation derives it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from ..engine.session import Session
from ..engine.transactions import Transaction
from ..errors import OpDeltaError
from ..obs.pipeline.context import ambient_pipeline
from ..sql import ast_nodes as ast
from .opdelta import OpDelta, OpKind, classify_statement
from .stores import OpDeltaStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.analyzer import AnalysisRecord
    from ..semantics.checker import CheckResult


class StatementAnalyzer(Protocol):
    """Capture-time static analysis (see :mod:`repro.analysis`).

    Structural so that :mod:`repro.core` never imports the analysis layer
    at runtime — the dependency points the other way.
    """

    def analyze_statement(self, statement: ast.Statement) -> "AnalysisRecord": ...


class StatementChecker(Protocol):
    """Capture-time semantic validation (see :mod:`repro.semantics`).

    Structural for the same reason as :class:`StatementAnalyzer`: the
    semantics layer depends on core, never the other way around.
    """

    def check_statement(self, statement: ast.Statement) -> "CheckResult": ...


class HybridPolicy(Protocol):
    """Decides when an operation must be augmented with before images."""

    def requires_before_image(self, table: str, kind: OpKind) -> bool: ...


class CaptureEverythingLean:
    """Default policy: the operation alone is always enough (pure Op-Delta)."""

    def requires_before_image(self, table: str, kind: OpKind) -> bool:
        return False


class OpDeltaCapture:
    """Wraps a session, recording every DML statement as an Op-Delta."""

    def __init__(
        self,
        session: Session,
        store: OpDeltaStore,
        tables: set[str] | None = None,
        hybrid_policy: HybridPolicy | None = None,
        analyzer: StatementAnalyzer | None = None,
        checker: StatementChecker | None = None,
        source: str | None = None,
    ) -> None:
        self.session = session
        self.store = store
        #: Lineage source name: the ``<source>`` half of every stamped
        #: correlation id.  Defaults to the captured database's name.
        self.source = source if source is not None else session.database.name
        self._tables = tables
        self._policy: HybridPolicy = (
            hybrid_policy if hybrid_policy is not None else CaptureEverythingLean()
        )
        self._analyzer = analyzer
        self._checker = checker
        self._sequence = 0
        #: Ops of each open transaction, for lineage commit stamping.
        self._txn_ops: dict[int, list[OpDelta]] = {}
        self._attached = False
        self.operations_captured = 0
        self.before_images_captured = 0
        self.statements_rejected = 0
        # An internal session for before-image reads: same database, no
        # capture hooks (the wrapper's own reads must not be captured).
        self._reader = session.database.internal_session()
        metrics = session.database.metrics
        self._m_statements = metrics.counter("capture.opdelta.statements")
        self._m_before_images = metrics.counter("capture.opdelta.before_images")
        self._m_overhead = metrics.counter("capture.opdelta.overhead_ms")
        self._m_analyzed = metrics.counter("capture.opdelta.analyzed")
        self._m_checked = metrics.counter("capture.opdelta.checked")
        self._m_rejected = metrics.counter("capture.opdelta.rejected")

    # ------------------------------------------------------------------ wiring
    def attach(self) -> None:
        """Start capturing on the wrapped session."""
        if self._attached:
            raise OpDeltaError("capture is already attached")
        self.session.capture_hooks.append(self._on_statement)
        manager = self.session.database.transactions
        manager.commit_listeners.append(self._on_commit)
        manager.abort_listeners.append(self._on_abort)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        self.session.capture_hooks.remove(self._on_statement)
        manager = self.session.database.transactions
        manager.commit_listeners.remove(self._on_commit)
        manager.abort_listeners.remove(self._on_abort)
        self._attached = False

    # ------------------------------------------------------------------- hooks
    def _on_statement(
        self, statement: ast.Statement, sql_text: str, session: Session
    ) -> None:
        kind, table = classify_statement(statement)
        if self._tables is not None and table not in self._tables:
            return
        tracer = session.database.tracer
        with tracer.span(
            "capture.opdelta.statement", table=table, source=self.source
        ):
            self._capture_statement(statement, sql_text, session, kind, table)

    def _capture_statement(
        self,
        statement: ast.Statement,
        sql_text: str,
        session: Session,
        kind: OpKind,
        table: str,
    ) -> None:
        capture_started = session.database.clock.now
        recorder = ambient_pipeline()
        if self._checker is not None:
            # Semantic validation at the wrapper seam: a malformed statement
            # is rejected here — before execution, before it is recorded —
            # instead of failing at warehouse apply.  Raising aborts the
            # user's statement (capture hooks fire pre-execution).
            with session.database.tracer.span(
                "capture.check.statement", table=table, source=self.source
            ):
                result = self._checker.check_statement(statement)
            self._m_checked.inc()
            if not result.ok:
                self.statements_rejected += 1
                self._m_rejected.inc()
                if recorder is not None:
                    recorder.record_rejected_statement(
                        self.source,
                        table,
                        session.database.clock.now,
                        "; ".join(e.code for e in result.errors),
                    )
                result.raise_if_errors(sql_text)
        txn = session.current_transaction
        if txn is None:
            # Autocommit: the session has not begun the wrapping transaction
            # yet at hook time; hooks fire after the txn is created, so this
            # is unreachable in practice — guard for misuse.
            raise OpDeltaError("capture hook fired outside a transaction")
        before_image = None
        if self._policy.requires_before_image(table, kind):
            before_image = self._fetch_before_image(statement, table, kind)
        self._sequence += 1
        # The wrapper already holds the parsed statement: it rides along, so
        # no later consumer of this record parses its text again.
        op = OpDelta(
            statement_text=sql_text,
            table=table,
            kind=kind,
            txn_id=txn.txn_id,
            sequence=self._sequence,
            captured_at=session.database.clock.now,
            before_image=before_image,
            lineage_id=f"{self.source}:{self._sequence}",
            _parsed=statement,
        )
        if self._analyzer is not None:
            op.analysis = self._analyzer.analyze_statement(statement)
            self._m_analyzed.inc()
        self.store.record(op, txn)
        self.operations_captured += 1
        self._m_statements.inc()
        if recorder is not None:
            recorder.record_captured(
                op, source=self.source, at_ms=session.database.clock.now
            )
            if self._checker is not None:
                recorder.record_checked(op, at_ms=session.database.clock.now)
            self._txn_ops.setdefault(txn.txn_id, []).append(op)
        # Virtual time the wrapper added to the user's statement — the
        # store write plus any before-image read (Figure 3's overhead).
        self._m_overhead.inc(session.database.clock.now - capture_started)

    def _fetch_before_image(
        self, statement: ast.Statement, table: str, kind: OpKind
    ) -> list[tuple] | None:
        """Read the affected rows' current state (hybrid capture).

        Inserts never need a before image; update/delete predicates are
        re-run as a SELECT through the wrapper's internal session.
        """
        if kind is OpKind.INSERT:
            return None
        where = statement.where  # type: ignore[union-attr]
        select = ast.SelectStmt(
            items=(ast.SelectItem(ast.Star()),), table=table, where=where
        )
        result = self._reader.execute_statement(select)
        self.before_images_captured += 1
        self._m_before_images.inc()
        return [tuple(row) for row in result.rows]

    def _on_commit(self, txn: Transaction) -> None:
        committed_at = self.session.database.clock.now
        self.store.mark_committed(txn, committed_at)
        ops = self._txn_ops.pop(txn.txn_id, None)
        recorder = ambient_pipeline()
        if recorder is not None and ops:
            recorder.record_committed(ops, committed_at)

    def _on_abort(self, txn: Transaction) -> None:
        ops = self._txn_ops.pop(txn.txn_id, None)
        recorder = ambient_pipeline()
        if recorder is not None and ops:
            # An aborted source transaction's ops never enter transport:
            # settle them as pruned so lineage conservation still closes.
            now = self.session.database.clock.now
            for op in ops:
                recorder.record_pruned(op, now, stage="aborted")
        self.store.mark_aborted(txn)
