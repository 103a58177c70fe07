"""Op-Delta log stores (paper §4.2, Figure 3 and Table 4).

Two places the captured operations can go, with the exact trade-off the
paper measures:

* :class:`DatabaseLogStore` — the Op-Delta is written *transactionally*
  into a table of the source database, inside the user's transaction.
  Aborting the user transaction automatically removes its Op-Deltas.
  Statement text is chunked into fixed-width rows, so an INSERT's capture
  cost is proportional to its data volume (Figure 3's ~66% insert
  overhead) while DELETE/UPDATE captures stay one-row cheap.
* :class:`FileLogStore` — the Op-Delta is appended to an OS file; much
  cheaper ("using a file log significantly improves the original
  transaction response time"), but not transactional: aborted
  transactions' entries remain in the file, and the reader must filter by
  the commit markers the store appends at commit time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..engine.database import Database
from ..engine.schema import Column, TableSchema
from ..engine.table import InsertMode
from ..engine.transactions import Transaction
from ..engine.types import INTEGER, char
from ..errors import OpDeltaError
from .opdelta import OpDelta, OpDeltaTransaction

#: Fixed chunk width for statement text stored in the database log table.
DB_LOG_CHUNK_CHARS = 100

#: Schema of the database Op-Delta log table.
OPLOG_COLUMNS = (
    Column("op_seq", INTEGER, nullable=False),
    Column("op_txn", INTEGER, nullable=False),
    Column("op_part", INTEGER, nullable=False),
    Column("op_table", char(24), nullable=False),
    Column("op_kind", char(6), nullable=False),
    Column("op_text", char(DB_LOG_CHUNK_CHARS), nullable=False),
)


class OpDeltaStore(ABC):
    """Where captured operations are kept until shipped to the warehouse."""

    def __init__(self) -> None:
        self._open_txns: dict[int, list[OpDelta]] = {}
        self._committed: list[OpDeltaTransaction] = []

    # ------------------------------------------------------------------ write
    def record(self, op: OpDelta, txn: Transaction) -> None:
        """Persist one Op-Delta inside (or alongside) the user transaction."""
        if not txn.is_active:
            raise OpDeltaError(
                f"cannot record an Op-Delta on {txn.state.value} transaction "
                f"{txn.txn_id}"
            )
        self._persist(op, txn)
        self._open_txns.setdefault(txn.txn_id, []).append(op)

    def mark_committed(self, txn: Transaction, committed_at: float) -> None:
        """Seal the transaction's group; called from the commit listener."""
        ops = self._open_txns.pop(txn.txn_id, None)
        if not ops:
            return
        self._persist_commit(txn)
        self._committed.append(
            OpDeltaTransaction(txn.txn_id, ops, committed_at=committed_at)
        )

    def mark_aborted(self, txn: Transaction) -> None:
        """Discard the transaction's pending group."""
        pending = self._open_txns.pop(txn.txn_id, None)
        if pending:
            self._discard(txn, pending)

    # ------------------------------------------------------------------- read
    def drain(self) -> list[OpDeltaTransaction]:
        """Remove and return the committed groups, in commit order."""
        groups, self._committed = self._committed, []
        self._truncate_persisted()
        return groups

    # ------------------------------------------------------------- subclasses
    @abstractmethod
    def _persist(self, op: OpDelta, txn: Transaction) -> None: ...

    def _persist_commit(self, txn: Transaction) -> None:
        """Durably mark the commit (file store appends a marker)."""

    def _discard(self, txn: Transaction, ops: list[OpDelta]) -> None:
        """React to an abort (database store rows roll back by themselves)."""

    def _truncate_persisted(self) -> None:
        """Clear the persisted backlog after a drain."""


class DatabaseLogStore(OpDeltaStore):
    """Transactional Op-Delta log in a table of the source database."""

    def __init__(self, database: Database) -> None:
        super().__init__()
        self._database = database
        if not database.has_table("opdelta_log"):
            database.create_table(TableSchema("opdelta_log", OPLOG_COLUMNS))
        self._table = database.table("opdelta_log")
        self._next_seq = 1

    def _persist(self, op: OpDelta, txn: Transaction) -> None:
        # The wrapper submits the log insert as one extra client statement
        # in the same transaction: per-statement overhead once, then a
        # bulk array insert of the text chunks.
        self._database.clock.advance(self._database.costs.stmt_overhead)
        seq = self._next_seq
        self._next_seq += 1
        text = op.statement_text
        chunks = [
            text[start : start + DB_LOG_CHUNK_CHARS]
            for start in range(0, len(text), DB_LOG_CHUNK_CHARS)
        ] or [""]
        for part, chunk in enumerate(chunks):
            self._table.insert(
                txn,
                (seq, txn.txn_id, part, op.table, op.kind.value, chunk),
                mode=InsertMode.BULK_CLIENT,
                fire_triggers=False,
            )
        if op.before_image is not None:
            # Hybrid capture: the before image rides along as extra chunks.
            for row_no, row in enumerate(op.before_image):
                rendered = "|".join(str(v) for v in row)[:DB_LOG_CHUNK_CHARS]
                self._table.insert(
                    txn,
                    (seq, txn.txn_id, len(chunks) + row_no, op.table, "BIMG", rendered),
                    mode=InsertMode.BULK_CLIENT,
                    fire_triggers=False,
                )

    def _truncate_persisted(self) -> None:
        self._table.truncate()


@dataclass
class _FileEntry:
    txn_id: int
    payload: str


class FileLogStore(OpDeltaStore):
    """Append-only OS-file Op-Delta log (non-transactional)."""

    def __init__(self, database: Database) -> None:
        super().__init__()
        self._database = database
        self._entries: list[_FileEntry] = []
        self.bytes_written = 0
        database.clock.advance(database.costs.file_open)

    def _persist(self, op: OpDelta, txn: Transaction) -> None:
        costs = self._database.costs
        payload = f"{txn.txn_id}\t{op.kind.value}\t{op.table}\t{op.statement_text}"
        if op.before_image is not None:
            for row in op.before_image:
                payload += "\nBIMG\t" + "|".join(str(v) for v in row)
        self._database.clock.advance(
            costs.ascii_format_row + costs.file_write(len(payload) + 1)
        )
        self.bytes_written += len(payload) + 1
        self._entries.append(_FileEntry(txn.txn_id, payload))

    def _persist_commit(self, txn: Transaction) -> None:
        costs = self._database.costs
        marker = f"{txn.txn_id}\tCOMMIT"
        self._database.clock.advance(
            costs.file_write(len(marker) + 1) + costs.file_sync
        )
        self.bytes_written += len(marker) + 1
        self._entries.append(_FileEntry(txn.txn_id, marker))

    def _discard(self, txn: Transaction, ops) -> None:
        # Nothing to do: the file keeps the aborted entries, and drain()
        # only returns groups that reached mark_committed.  The raw file
        # (``uncommitted_garbage``) shows the non-transactionality.
        return

    def _truncate_persisted(self) -> None:
        self._entries.clear()

    def uncommitted_garbage(self) -> int:
        """File entries belonging to transactions with no commit marker."""
        committed = {
            entry.txn_id for entry in self._entries if entry.payload.endswith("COMMIT")
        }
        return sum(
            1
            for entry in self._entries
            if entry.txn_id not in committed and not entry.payload.endswith("COMMIT")
        )
