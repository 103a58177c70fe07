"""Trigger-based delta extraction (paper §3.1.3, Figure 2).

Row-level triggers capture every state change into a delta table: inserts
record the new values, deletes the old values, updates both images.  The
paper's findings, all reproduced by this implementation on the engine's
trigger machinery:

* the triggered inserts run inside the user's transaction, so their cost
  lands directly on the user's response time (Figure 2's overhead curves);
* insert overhead is roughly constant (~80-100%) because each inserted row
  triggers exactly one extra insert; update/delete overhead *grows* with
  transaction size because the per-row base cost shrinks (scan
  amortisation) while the trigger cost per row does not;
* writing the captured rows to an external database — a staging area on the
  same machine or across the LAN — multiplies the cost by one to two orders
  of magnitude (§3.1.3, reproduced by the remote modes here);
* a failing trigger aborts the user transaction.
"""

from __future__ import annotations

from typing import Any

from ..engine.database import Database
from ..engine.remote import LinkKind, RemoteSession, open_remote
from ..engine.triggers import Trigger, TriggerContext, TriggerEvent, TriggerTiming
from ..engine.utilities import AsciiFile, ascii_dump_table
from ..errors import ExtractionError
from ..sql.ast_nodes import sql_literal
from .deltas import DeltaBatch
from .writers import DeltaTableWriter, delta_rows_to_batch, delta_table_schema


class TriggerExtractor:
    """Installs capture triggers on one source table and drains the deltas."""

    TRIGGER_PREFIX = "cdc"

    def __init__(self, database: Database, table_name: str) -> None:
        self._database = database
        self._table = database.table(table_name)
        self.table_name = table_name
        self.delta_table_name = f"{table_name}_cdc"
        self._writer: DeltaTableWriter | None = None
        self._remote: RemoteSession | None = None
        self._remote_seq = 0
        self._installed = False
        self._m_captured = database.metrics.counter(
            "extract.trigger.rows_captured", table=table_name
        )

    # ------------------------------------------------------------------ setup
    def install(self) -> None:
        """Create the local delta table and the three capture triggers."""
        if self._installed:
            raise ExtractionError("capture triggers are already installed")
        self._writer = DeltaTableWriter(
            self._database, self._table.schema, self.delta_table_name
        )
        self._add_triggers(self._local_insert, self._local_update, self._local_delete)
        self._installed = True

    def install_remote(self, staging: Database, link: LinkKind) -> None:
        """Capture into a delta table in *another* database over a link.

        Models §3.1.3's remote-capture experiment: every triggered row
        becomes a statement shipped over IPC or the LAN, inside the user's
        transaction.
        """
        if self._installed:
            raise ExtractionError("capture triggers are already installed")
        schema = delta_table_schema(self._table.schema, self.delta_table_name)
        if not staging.has_table(self.delta_table_name):
            staging.create_table(schema)
        self._remote = open_remote(self._database, staging, link)
        self._add_triggers(self._remote_insert, self._remote_update, self._remote_delete)
        self._installed = True

    def uninstall(self) -> None:
        """Drop the capture triggers (the delta table is left for draining)."""
        if not self._installed:
            return
        for event in TriggerEvent:
            self._table.triggers.drop(self._trigger_name(event))
        self._installed = False

    def _add_triggers(self, on_insert, on_update, on_delete) -> None:
        actions = {
            TriggerEvent.INSERT: on_insert,
            TriggerEvent.UPDATE: on_update,
            TriggerEvent.DELETE: on_delete,
        }
        for event, action in actions.items():
            self._table.triggers.add(
                Trigger(self._trigger_name(event), event, TriggerTiming.AFTER, action)
            )

    def _trigger_name(self, event: TriggerEvent) -> str:
        return f"{self.TRIGGER_PREFIX}_{self.table_name}_{event.value.lower()}"

    # ----------------------------------------------------------- local actions
    def _local_insert(self, context: TriggerContext) -> None:
        assert self._writer is not None and context.new_values is not None
        self._writer.write_insert(context.transaction, context.new_values)
        self._m_captured.inc()

    def _local_update(self, context: TriggerContext) -> None:
        assert self._writer is not None
        assert context.old_values is not None and context.new_values is not None
        self._writer.write_update(
            context.transaction, context.old_values, context.new_values
        )
        self._m_captured.inc()

    def _local_delete(self, context: TriggerContext) -> None:
        assert self._writer is not None and context.old_values is not None
        self._writer.write_delete(context.transaction, context.old_values)
        self._m_captured.inc()

    # ---------------------------------------------------------- remote actions
    def _remote_insert(self, context: TriggerContext) -> None:
        assert context.new_values is not None
        self._ship(context, "I", "A", context.new_values)

    def _remote_update(self, context: TriggerContext) -> None:
        assert context.old_values is not None and context.new_values is not None
        self._remote_seq += 1
        seq = self._remote_seq
        self._ship(context, "U", "B", context.old_values, seq)
        self._ship(context, "U", "A", context.new_values, seq)

    def _remote_delete(self, context: TriggerContext) -> None:
        assert context.old_values is not None
        self._ship(context, "D", "B", context.old_values)

    def _ship(
        self,
        context: TriggerContext,
        op: str,
        img: str,
        row: tuple[Any, ...],
        seq: int | None = None,
    ) -> None:
        assert self._remote is not None
        if seq is None:
            self._remote_seq += 1
            seq = self._remote_seq
        values = (seq, op, img, context.transaction.txn_id) + tuple(row)
        literals = ", ".join(sql_literal(v) for v in values)
        self._remote.execute(
            f"INSERT INTO {self.delta_table_name} VALUES ({literals})"
        )
        self._m_captured.inc()

    # ------------------------------------------------------------------ drain
    def drain_rows(self) -> list[tuple[Any, ...]]:
        """Read and clear the local delta table's rows."""
        writer = self._require_local()
        with self._database.tracer.span(
            "extract.trigger.drain", table=self.table_name
        ):
            rows = list(writer.table.scan_values())
            writer.truncate()
        self._database.metrics.counter(
            "extract.trigger.rows_drained", table=self.table_name
        ).inc(len(rows))
        return rows

    def drain_to_batch(self) -> DeltaBatch:
        """Drain the delta table into structured delta records."""
        batch = delta_rows_to_batch(self._table.schema, self.drain_rows())
        self._database.metrics.counter(
            "extract.trigger.delta_bytes", table=self.table_name
        ).inc(batch.size_bytes)
        return batch

    def ascii_dump_delta_table(self) -> AsciiFile:
        """ASCII-dump the delta table (portable alternative to Export)."""
        self._require_local()
        return ascii_dump_table(self._database, self.delta_table_name)

    def _require_local(self) -> DeltaTableWriter:
        if self._writer is None:
            raise ExtractionError(
                "no local delta table (extractor was installed in remote mode)"
            )
        return self._writer
