"""Transactions: begin/commit/abort with log-backed undo.

The engine is single-threaded (experiment concurrency is modelled by the
discrete-event scheduler in :mod:`repro.sim`), so the transaction manager's
job here is atomicity: every data change registers an undo action, commit
forces the WAL, abort replays the undo chain in reverse — including changes
made by triggers, which per the paper "execute in the same transaction
context as the triggering event".
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable

from ..errors import TransactionError
from ..obs.metrics import MetricsLike, MetricsRegistry
from .wal import LogManager, LogRecordKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class TxnState(enum.Enum):
    ACTIVE = "ACTIVE"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


class Transaction:
    """One unit of work.  Created via :meth:`TransactionManager.begin`."""

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self._undo_actions: list[Callable[[], None]] = []
        self.rows_inserted = 0
        self.rows_updated = 0
        self.rows_deleted = 0
        #: Arbitrary per-transaction annotations (capture hooks use this).
        self.annotations: dict[str, Any] = {}

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def rows_affected(self) -> int:
        return self.rows_inserted + self.rows_updated + self.rows_deleted

    def register_undo(self, action: Callable[[], None]) -> None:
        """Record a compensating action to run if the transaction aborts."""
        self.ensure_active()
        self._undo_actions.append(action)

    def ensure_active(self) -> None:
        """Raise :class:`TransactionError` unless the transaction is ACTIVE
        (checked by every write before it charges or changes anything)."""
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not ACTIVE"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Transaction(id={self.txn_id}, state={self.state.value})"


class TransactionManager:
    """Hands out transactions and drives commit/abort through the WAL."""

    def __init__(
        self, log: LogManager, metrics: MetricsLike | None = None
    ) -> None:
        self._log = log
        self._next_txn_id = 1
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_commits = metrics.counter("engine.txn.commit")
        self._m_aborts = metrics.counter("engine.txn.abort")
        #: Observers notified on commit/abort with the transaction; the
        #: Op-Delta capture layer uses these to learn txn boundaries.
        self.commit_listeners: list[Callable[[Transaction], None]] = []
        self.abort_listeners: list[Callable[[Transaction], None]] = []

    def begin(self) -> Transaction:
        txn = Transaction(self._next_txn_id)
        self._next_txn_id += 1
        self._log.append(LogRecordKind.BEGIN, txn.txn_id)
        return txn

    def commit(self, txn: Transaction) -> None:
        txn.ensure_active()
        self._log.append(LogRecordKind.COMMIT, txn.txn_id)
        self._log.force()
        txn.state = TxnState.COMMITTED
        self._m_commits.inc()
        for listener in self.commit_listeners:
            listener(txn)

    def abort(self, txn: Transaction) -> None:
        txn.ensure_active()
        # Compensate in reverse order; trigger-made changes roll back too
        # because they registered undo actions in the same transaction.
        for action in reversed(txn._undo_actions):
            action()
        self._log.append(LogRecordKind.ABORT, txn.txn_id)
        txn.state = TxnState.ABORTED
        self._m_aborts.inc()
        for listener in self.abort_listeners:
            listener(txn)
