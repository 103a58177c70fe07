"""Redo recovery from archived WAL segments.

§3.1.4 observes that log shipping "can only fully re-create a database much
like a recovery manager does" — the logs are physiological, so the recipient
must be the same product, same version, same schema, and must replay the
*full* committed history into an empty database.  This module implements
that recovery manager; the log-based extraction method and its tests use it
to demonstrate both the power (exact state re-creation) and the rigidity
(any mismatch fails) of the approach.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import RecoveryError
from .database import Database
from .schema import diff_schemas
from .wal import (
    LogRecordKind,
    LogSegment,
    committed_txn_ids,
    require_compatible,
)


def recover_from_archive(target: Database, segments: Iterable[LogSegment]) -> int:
    """Redo all committed changes from ``segments`` into ``target``.

    Parameters
    ----------
    target:
        The database to re-create state in.  Tables named in the log must
        exist with schemas identical to the source's, and must be empty of
        conflicting state (recovery is a full-history replay).
    segments:
        Archived log segments in order; each must match the target's
        product, version and log format.

    Returns the number of data changes applied.
    """
    segments = list(segments)
    for segment in segments:
        require_compatible(segment, target.product, target.product_version)

    all_records = [record for segment in segments for record in segment.records]
    for first, second in zip(all_records, all_records[1:]):
        if second.lsn <= first.lsn:
            raise RecoveryError(
                f"log records out of order: LSN {second.lsn} after {first.lsn}"
            )

    committed = committed_txn_ids(all_records)
    applied = 0
    for record in all_records:
        if not record.is_data_change() or record.txn_id not in committed:
            continue
        if record.table is None or record.row_id is None:
            raise RecoveryError(f"malformed data-change record at LSN {record.lsn}")
        if not target.has_table(record.table):
            raise RecoveryError(
                f"log references table {record.table!r} which does not exist "
                "in the recovery target (schemas must match exactly)"
            )
        table = target.table(record.table)
        try:
            if record.kind is LogRecordKind.INSERT:
                assert record.after is not None
                table.redo_insert(record.row_id, record.after)
            elif record.kind is LogRecordKind.UPDATE:
                assert record.after is not None
                table.redo_update(record.row_id, record.after)
            else:
                table.redo_delete(record.row_id)
        except RecoveryError:
            raise
        except Exception as exc:
            raise RecoveryError(
                f"redo failed at LSN {record.lsn} "
                f"({record.kind.value} on {record.table!r}): {exc}"
            ) from exc
        applied += 1
    return applied


def clone_schemas(source: Database, target: Database) -> None:
    """Create every source table in ``target`` with an identical schema.

    Convenience for setting up a recovery target / hot standby; raises
    :class:`RecoveryError` if a table already exists with a diverging shape.
    """
    for table in source.tables():
        if target.has_table(table.name):
            diff = diff_schemas(table.schema, target.table(table.name).schema)
            if not diff.identical:
                raise RecoveryError(
                    f"target already has table {table.name!r} with a "
                    f"different schema: {diff}"
                )
            continue
        target.create_table(table.schema)
