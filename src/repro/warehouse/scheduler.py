"""Online-maintenance availability experiment (paper §4.1).

"Op-Delta captures the original transaction context and hence can
interleave with OLAP queries without impacting the integrity of the query
result" — value-delta batches, by contrast, "need to be applied as an
indivisible batch", locking queries out for the whole maintenance window.

The experiment is a discrete-event simulation over one readers-writer lock
(the fact table): OLAP queries arrive on a fixed cadence and hold a shared
lock for their service time; the integrator holds the exclusive lock

* once, for the whole batch (``mode="batch"`` — value delta), or
* once per source transaction (``mode="interleaved"`` — Op-Delta).

Service times come from measured integrator/query virtual costs, so the
simulation's inputs are produced by the same engine the rest of the
reproduction uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.certify.schedule import lpt_pack
from ..errors import SimulationError
from ..obs.context import ambient_metrics
from ..sim import Environment, LockMode, RWLock


@dataclass
class QueryRecord:
    """Timing of one simulated OLAP query."""

    arrived_at: float
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def wait_ms(self) -> float:
        return self.started_at - self.arrived_at

    @property
    def response_ms(self) -> float:
        return self.finished_at - self.arrived_at


@dataclass
class AvailabilityReport:
    """What the availability experiment measures for one mode."""

    mode: str
    maintenance_span_ms: float = 0.0
    maintenance_busy_ms: float = 0.0
    queries: list[QueryRecord] = field(default_factory=list)

    @property
    def max_wait_ms(self) -> float:
        return max((q.wait_ms for q in self.queries), default=0.0)

    @property
    def mean_wait_ms(self) -> float:
        if not self.queries:
            return 0.0
        return sum(q.wait_ms for q in self.queries) / len(self.queries)

    def fraction_within(self, sla_ms: float) -> float:
        """Fraction of queries answered within an SLA.

        The operational definition of "the warehouse is available": a
        query issued at any time comes back within ``sla_ms``.
        """
        if not self.queries:
            return 1.0
        met = sum(1 for q in self.queries if q.response_ms <= sla_ms)
        return met / len(self.queries)


def run_availability_experiment(
    maintenance_durations_ms: Sequence[float],
    query_duration_ms: float,
    query_interarrival_ms: float,
    mode: str,
    maintenance_start_ms: float = 0.0,
    horizon_ms: float | None = None,
    unit_gap_ms: float = 0.0,
) -> AvailabilityReport:
    """Simulate maintenance against a concurrent OLAP query stream.

    Parameters
    ----------
    maintenance_durations_ms:
        Service time of each maintenance unit (one entry per source
        transaction for Op-Delta; the batch total can be passed as a
        single-element list, but ``mode`` controls lock scope regardless).
    query_duration_ms:
        Service time of one OLAP query (shared lock held this long).
    query_interarrival_ms:
        Fixed arrival cadence of queries.
    mode:
        ``"batch"`` — hold the exclusive lock across all units
        (value-delta semantics); ``"interleaved"`` — acquire and release
        per unit (Op-Delta semantics).
    horizon_ms:
        How long queries keep arriving; defaults to a span comfortably
        covering the maintenance work.
    unit_gap_ms:
        Pause between interleaved units — Op-Deltas arrive as source
        transactions commit, not back to back.  Ignored in batch mode
        (value deltas accumulate and apply in one window).

    The ambient registry, when one is active, records the maintenance
    window and the OLAP response histogram.
    """
    if mode not in ("batch", "interleaved"):
        raise SimulationError(f"unknown mode {mode!r}; use 'batch' or 'interleaved'")
    if query_interarrival_ms <= 0:
        raise SimulationError("query_interarrival_ms must be positive")

    env = Environment()
    lock = RWLock(env, "fact_table")
    report = AvailabilityReport(mode=mode)
    total_maintenance = sum(maintenance_durations_ms)
    if horizon_ms is None:
        horizon_ms = maintenance_start_ms + total_maintenance * 1.5 + 10 * (
            query_duration_ms + query_interarrival_ms
        )

    def maintenance() -> object:
        yield env.timeout(maintenance_start_ms)
        span_started = env.now
        if mode == "batch":
            yield lock.acquire(LockMode.EXCLUSIVE)
            for duration in maintenance_durations_ms:
                yield env.timeout(duration)
            lock.release(LockMode.EXCLUSIVE)
        else:
            for position, duration in enumerate(maintenance_durations_ms):
                if position and unit_gap_ms:
                    yield env.timeout(unit_gap_ms)
                yield lock.acquire(LockMode.EXCLUSIVE)
                yield env.timeout(duration)
                lock.release(LockMode.EXCLUSIVE)
        report.maintenance_span_ms = env.now - span_started
        report.maintenance_busy_ms = total_maintenance

    def one_query(record: QueryRecord) -> object:
        yield lock.acquire(LockMode.SHARED)
        record.started_at = env.now
        yield env.timeout(query_duration_ms)
        lock.release(LockMode.SHARED)
        record.finished_at = env.now

    def query_source() -> object:
        arrival = 0.0
        while arrival <= horizon_ms:
            yield env.timeout(max(0.0, arrival - env.now))
            record = QueryRecord(arrived_at=env.now)
            report.queries.append(record)
            env.process(one_query(record), name=f"query@{env.now:.0f}")
            arrival += query_interarrival_ms

    env.process(maintenance(), name="maintenance")
    env.process(query_source(), name="query-source")
    env.run()
    metrics = ambient_metrics()
    if metrics is not None:
        metrics.gauge(
            "warehouse.maintenance.window_ms", mode=mode
        ).set(report.maintenance_span_ms)
        latency = metrics.histogram("warehouse.olap.response_ms", mode=mode)
        for query in report.queries:
            latency.observe(query.response_ms)
    return report


@dataclass
class ScheduleReport:
    """Outcome of applying conflict-graph components on worker lanes."""

    workers: int
    components: int
    transactions: int
    serial_ms: float = 0.0
    parallel_ms: float = 0.0
    #: Operations (replayed statements) covered by the schedule, when the
    #: caller supplies per-component op counts — 0 otherwise.
    ops: int = 0
    #: Virtual completion time of each component, in finish order — the
    #: pipeline-health view of how apply work drains across the lanes.
    component_finish_ms: list[float] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Virtual-time speedup of the conflict-aware schedule over serial."""
        if self.parallel_ms == 0:
            return 1.0
        return self.serial_ms / self.parallel_ms

    @property
    def parallel_ops_per_s(self) -> float:
        """Apply throughput across the worker lanes, in ops per virtual second."""
        if self.parallel_ms == 0 or not self.ops:
            return 0.0
        return self.ops / (self.parallel_ms / 1000.0)


def run_conflict_schedule(
    component_durations_ms: Sequence[Sequence[float]],
    workers: int = 4,
    ops: int = 0,
) -> ScheduleReport:
    """Conflict-aware parallel delta application, packed by :func:`lpt_pack`.

    ``component_durations_ms`` holds one inner sequence per conflict-graph
    component: the per-transaction apply times of that component, in
    capture order.  Transactions inside a component conflict, so each
    component is applied serially on whichever worker lane picks it up;
    components are mutually independent, so up to ``workers`` of them run
    concurrently, longest first, each to the lane free earliest.  The
    serial baseline is the sum of every duration — what a
    conflict-oblivious integrator would take.

    A batched apply commits each component as one warehouse transaction,
    so its :attr:`IntegrationReport.per_component_ms` replays as
    one-element components: ``[[ms] for ms in report.per_component_ms]``.

    ``ops`` — the window's replayed statement count (typically
    ``IntegrationReport.statements_issued``) — turns the report's
    ``parallel_ops_per_s`` throughput on; the columnar experiment uses
    it to compare row-at-a-time and columnar apply at equal schedule
    shapes.
    """
    if workers < 1:
        raise SimulationError(f"need at least one worker lane, got {workers}")
    report = ScheduleReport(
        workers=workers,
        components=len(component_durations_ms),
        transactions=sum(len(c) for c in component_durations_ms),
        serial_ms=sum(sum(c) for c in component_durations_ms),
        ops=ops,
    )
    if not report.transactions:
        return report

    report.component_finish_ms = sorted(
        finish
        for _index, _lane, finish in lpt_pack(
            [c for c in component_durations_ms if c], workers
        )
    )
    report.parallel_ms = report.component_finish_ms[-1]
    metrics = ambient_metrics()
    if metrics is not None:
        metrics.gauge("warehouse.schedule.serial_ms").set(report.serial_ms)
        metrics.gauge("warehouse.schedule.parallel_ms").set(report.parallel_ms)
        metrics.gauge("warehouse.schedule.speedup").set(report.speedup)
        drain = metrics.histogram("warehouse.schedule.component_finish_ms")
        for finish in report.component_finish_ms:
            drain.observe(finish)
        if ops:
            metrics.gauge("warehouse.schedule.ops_per_s").set(
                report.parallel_ops_per_s
            )
    return report
