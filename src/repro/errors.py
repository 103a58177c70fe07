"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the engine, SQL, extraction and warehouse
layers when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class EngineError(ReproError):
    """Base class for storage-engine failures."""


class CatalogError(EngineError):
    """A schema object (table, index, trigger, column) is missing or duplicated."""


class SchemaError(EngineError):
    """A schema definition or a row does not satisfy schema constraints."""


class StorageError(EngineError):
    """Page/heap-level failure (bad record id, page overflow, unknown page)."""


class TransactionError(EngineError):
    """Illegal transaction state transition (e.g. commit of an aborted txn)."""


class ConstraintError(EngineError):
    """A data constraint (primary key uniqueness, NOT NULL) was violated."""


class TriggerError(EngineError):
    """A trigger action failed; per the paper this aborts the user transaction."""


class UtilityError(EngineError):
    """Export/Import/Loader utility failure (bad format, wrong product)."""


class LogError(EngineError):
    """WAL / archive-log failure (bad LSN, unreadable segment, version skew)."""


class RecoveryError(EngineError):
    """Redo recovery could not be completed."""


class SqlError(ReproError):
    """Base class for SQL front-end failures."""


class SqlSyntaxError(SqlError):
    """The statement text could not be tokenized or parsed."""


class SqlAnalysisError(SqlError):
    """The statement parsed but refers to unknown objects or mistypes values."""


class SemanticError(SqlAnalysisError):
    """The schema-aware semantic checker rejected a statement.

    Raised at Op-Delta capture time (the wrapper seam) so malformed
    statements never reach the store or the warehouse apply path, and when
    a view is materialised from a definition whose SELECT does not check.
    Carries the individual :class:`repro.semantics.Diagnostic` records.
    """

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class ExtractionError(ReproError):
    """A delta-extraction method could not produce its deltas."""


class SnapshotError(ExtractionError):
    """Snapshot dump/compare failure."""


class OpDeltaError(ReproError):
    """Op-Delta capture, storage or application failure."""


class SelfMaintenanceError(OpDeltaError):
    """A view cannot be maintained from the information captured."""


class WarehouseError(ReproError):
    """Warehouse-side integration or view-maintenance failure."""


class TransportError(ReproError):
    """Delta transport (queue/shipper) failure."""


class SimulationError(ReproError):
    """Discrete-event simulation misuse (e.g. yielding a negative delay)."""


class ObservabilityError(ReproError):
    """Metrics/tracing misuse (bad metric name, kind clash, span disorder)."""


class AnalysisError(ReproError):
    """Static Op-Delta analysis failure (unsupported statement shape)."""
