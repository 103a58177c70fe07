"""The SQL-queryable system catalog and causal critical-path forensics.

Nine PRs of telemetry — lifecycle events, watermarks, lag histograms,
flight-recorder series, cost ledgers, SLO findings — each grew its own
bespoke renderer.  This package turns all of them into one queryable
surface: read-only ``sys.*`` virtual tables served through the
repo's own SQL front end, plus the forensics pass that assembles
``sys.critical_path`` (which stage — check, ship, queue or apply —
put each op, window and view where it is on the latency ladder).

* :mod:`repro.obs.introspect.tables` — schemas + snapshot adapters;
* :mod:`repro.obs.introspect.forensics` — the critical-path pass;
* :mod:`repro.obs.introspect.catalog` — :class:`SystemCatalog`, the
  parse → check → execute query path (the executor reads the adapters'
  rows in place);
* :mod:`repro.obs.introspect.meta` — :class:`MetaObservatory`, the
  monitoring views the pipeline maintains incrementally over its own
  telemetry (the paper, dogfooded).

External consumers of observability state go through this catalog —
lint rule REPRO009 bans reaching into private store internals from
outside ``repro/obs/``.
"""

from .catalog import SystemCatalog
from .forensics import (
    CriticalPathAnalyzer,
    CriticalPathRow,
    StageBlame,
    critical_stage,
)
from .meta import MetaObservatory, MetaRefreshReport, TableDelta
from .tables import PROCESS_TABLES, SYS_TABLES, StoreBundle, SysTable

__all__ = [
    "PROCESS_TABLES",
    "SYS_TABLES",
    "CriticalPathAnalyzer",
    "CriticalPathRow",
    "MetaObservatory",
    "MetaRefreshReport",
    "StageBlame",
    "StoreBundle",
    "SysTable",
    "SystemCatalog",
    "TableDelta",
    "critical_stage",
]
