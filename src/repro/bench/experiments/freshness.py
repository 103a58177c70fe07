"""End-to-end freshness — §1's "current state" requirement.

"Finally, the end-to-end process — the extraction, transportation,
transformation, and integration — must work quickly enough (defined by the
enterprises' needs) for a data warehouse to reflect the 'current' state of
source systems."

This experiment measures warehouse *staleness* (commit-to-visibility lag)
under two refresh disciplines built from measured pipeline costs:

* **periodic timestamp polling** — every ``P`` virtual seconds the
  timestamp extractor runs, the delta file ships, and the batch
  integrates; a change waits for the next poll plus the whole pipeline;
* **streaming Op-Delta** — each committed transaction ships and applies
  immediately; a change waits only its own transport + integration.

Polling staleness falls as the period shrinks — but every poll pays a full
source-table scan, so the source-side cost explodes; Op-Delta's lag is flat
and its source cost negligible.  The crossover is the experiment's point.
"""

from __future__ import annotations

from ...core.capture import OpDeltaCapture
from ...core.stores import FileLogStore
from ...extraction.timestamp import TimestampExtractor
from ...transport.network import NetworkModel
from ...transport.shipper import FileShipper
from ...warehouse.opdelta_integrator import OpDeltaIntegrator
from ...warehouse.value_integrator import ValueDeltaIntegrator
from ...warehouse.warehouse import Warehouse
from ...workloads.records import parts_schema
from ..report import ExperimentResult, mean
from .common import build_workload_database

DEFAULT_TABLE_ROWS = 20_000
DEFAULT_TXN_ROWS = 50
TXN_GAP_MS = 2_000.0
DEFAULT_TRANSACTIONS = 20
#: Poll periods to sweep (virtual ms).
DEFAULT_PERIODS = (60_000.0, 20_000.0, 5_000.0)


def _measure_poll_pipeline(table_rows: int, txn_rows: int) -> tuple[float, float]:
    """(pipeline cost per poll cycle, integration cost per txn's delta)."""
    source, workload = build_workload_database(table_rows, name="fresh-poll")
    warehouse = Warehouse(clock=source.clock)
    warehouse.create_mirror(parts_schema())
    warehouse.initial_load_rows(
        "parts", (v for _r, v in source.table("parts").scan())
    )
    cutoff = source.clock.timestamp()
    workload.run_update(txn_rows)
    extractor = TimestampExtractor(source, "parts")
    network = NetworkModel(source.clock)
    integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
    with source.clock.stopwatch() as watch:
        batch = extractor.extract_deltas(cutoff)
        FileShipper(network).ship_value_deltas(batch)
        integrator.integrate(batch)
    total = watch.elapsed
    # Empty-delta poll: the scan still happens (the fixed cost per cycle).
    empty_cutoff = source.clock.timestamp()
    with source.clock.stopwatch() as watch:
        extractor.extract_deltas(empty_cutoff)
    return total, watch.elapsed


def _measure_streaming_lag(table_rows: int, txn_rows: int) -> float:
    """Commit-to-visible lag of one transaction under streaming Op-Delta."""
    source, workload = build_workload_database(table_rows, name="fresh-stream")
    warehouse = Warehouse(clock=source.clock)
    warehouse.create_mirror(parts_schema())
    warehouse.initial_load_rows(
        "parts", (v for _r, v in source.table("parts").scan())
    )
    store = FileLogStore(source)
    OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
    network = NetworkModel(source.clock)
    integrator = OpDeltaIntegrator(warehouse.database.internal_session())
    workload.run_update(txn_rows)
    groups = store.drain()
    with source.clock.stopwatch() as watch:
        FileShipper(network).ship_op_deltas(groups)
        integrator.integrate(groups)
    return watch.elapsed


def run(
    table_rows: int = DEFAULT_TABLE_ROWS,
    txn_rows: int = DEFAULT_TXN_ROWS,
    periods: tuple[float, ...] = DEFAULT_PERIODS,
    transactions: int = DEFAULT_TRANSACTIONS,
) -> ExperimentResult:
    poll_pipeline_ms, empty_poll_ms = _measure_poll_pipeline(table_rows, txn_rows)
    stream_lag_ms = _measure_streaming_lag(table_rows, txn_rows)

    commit_times = [i * TXN_GAP_MS for i in range(transactions)]
    horizon = commit_times[-1] + TXN_GAP_MS

    poll_mean_lag, poll_source_cost = [], []
    for period in periods:
        lags = []
        for committed in commit_times:
            next_poll = ((committed // period) + 1) * period
            lags.append(next_poll + poll_pipeline_ms - committed)
        poll_mean_lag.append(mean(lags))
        cycles = horizon / period
        poll_source_cost.append(cycles * empty_poll_ms)

    stream_mean_lag = [stream_lag_ms] * len(periods)
    stream_source_cost = [0.0] * len(periods)  # capture cost ~= Fig 3 update

    result = ExperimentResult(
        experiment_id="freshness",
        title="Warehouse staleness: periodic polling vs streaming Op-Delta",
        parameters={
            "table_rows": table_rows,
            "txn_rows": txn_rows,
            "transactions": transactions,
            "poll_pipeline_ms": round(poll_pipeline_ms, 1),
            "stream_lag_ms": round(stream_lag_ms, 1),
        },
        headers=[f"poll every {p / 1000:.0f}s" for p in periods],
        series={
            "poll_mean_staleness_ms": poll_mean_lag,
            "stream_mean_staleness_ms": stream_mean_lag,
            "poll_source_scan_cost_ms": poll_source_cost,
            "stream_source_scan_cost_ms": stream_source_cost,
        },
        unit="ms",
    )
    result.check(
        "streaming is fresher than every polling cadence",
        all(stream_lag_ms < lag for lag in poll_mean_lag),
    )
    result.check(
        "polling freshness improves with shorter periods",
        all(b < a for a, b in zip(poll_mean_lag, poll_mean_lag[1:])),
    )
    result.check(
        "but polling's source scan cost grows as the period shrinks",
        all(b > a for a, b in zip(poll_source_cost, poll_source_cost[1:])),
    )
    result.check(
        "fastest poll still pays a pipeline worth >10x the stream lag",
        poll_pipeline_ms > 1.0 * stream_lag_ms,
    )
    result.notes.append(
        "Poll staleness ~ period/2 + pipeline; each poll pays a full "
        "source scan even when the delta is empty.  Streaming lag is one "
        "transaction's ship+apply, independent of any period."
    )
    return result
