"""Observability overhead: instrumentation must not distort the science.

Two claims, each checked against a representative hot path (an OLTP-style
insert/select workload on a small buffer pool):

* **virtual time is identical** whether the engine runs with a real
  registry + tracer or the no-op pair — the instruments record virtual
  quantities but never advance the clock, so every published number is
  unchanged by observation;
* **host wall time** with a real registry stays within a modest factor of
  the no-op run (the instruments are attribute bumps), so leaving metrics
  on for every experiment is affordable.

The same claims extend to the *pipeline* observability path: the full
flight-recorder spike scenario (pipeline event log, per-window
``TimeSeriesStore`` sampling, SLO evaluation, cost attribution) must
leave the run's virtual time bit-identical to the recorder-off run.
"""

from __future__ import annotations

import time

from repro.bench.flight import WINDOW_TXNS, run_flight
from repro.engine import Column, Database, TableSchema
from repro.engine.types import INTEGER, char
from repro.obs import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, Tracer

ROWS = 300
REPEATS = 5
#: Host wall-time budget for the instrumented run (ISSUE: < 10%; the
#: bound is looser here to keep the check robust on noisy CI hosts).
MAX_WALL_RATIO = 1.10


def _schema() -> TableSchema:
    return TableSchema(
        "hot",
        [Column("k", INTEGER, nullable=False), Column("pad", char(120))],
        primary_key="k",
    )


def _run_workload(metrics, tracer) -> float:
    """One deterministic workload; returns the final virtual time."""
    database = Database(
        "obs-bench", buffer_pages=8, metrics=metrics, tracer=tracer
    )
    database.create_table(_schema())
    session = database.internal_session()
    for i in range(ROWS):
        session.execute(f"INSERT INTO hot VALUES ({i}, 'p{i}')")
    for _ in range(3):
        session.execute("SELECT COUNT(*) FROM hot")
    database.checkpoint()
    return database.clock.now


def _interleaved(*configurations) -> list[tuple[float, float]]:
    """(virtual ms, best-of-N host seconds) per (metrics, tracer) factory pair.

    Every round runs each configuration once and the order reverses from one
    round to the next, so a drift of the box during the measurement lands on
    every configuration alike instead of in the ratio between them.
    """
    best = [float("inf")] * len(configurations)
    virtual: list[float | None] = [None] * len(configurations)
    for round_index in range(REPEATS):
        order = range(len(configurations))
        for index in reversed(order) if round_index % 2 else order:
            metrics_factory, tracer_factory = configurations[index]
            metrics, tracer = metrics_factory(), tracer_factory()
            started = time.perf_counter()
            now = _run_workload(metrics, tracer)
            best[index] = min(best[index], time.perf_counter() - started)
            assert virtual[index] in (None, now), "workload itself is nondeterministic"
            virtual[index] = now
    return list(zip(virtual, best))


def _timed(metrics_factory, tracer_factory) -> tuple[float, float]:
    """(virtual ms, best-of-N host seconds) for one configuration."""
    (result,) = _interleaved((metrics_factory, tracer_factory))
    return result


def test_virtual_time_unchanged_by_instrumentation():
    """The determinism claim: 0% virtual-time regression, exactly."""
    virtual_null, _ = _timed(lambda: NULL_REGISTRY, lambda: NULL_TRACER)
    virtual_real, _ = _timed(MetricsRegistry, Tracer)
    assert virtual_real == virtual_null


def test_wall_time_overhead_is_bounded(capsys):
    (virtual_null, wall_null), (virtual_real, wall_real) = _interleaved(
        (lambda: NULL_REGISTRY, lambda: NULL_TRACER), (MetricsRegistry, Tracer)
    )
    ratio = wall_real / wall_null
    with capsys.disabled():
        print(
            f"\nobs overhead: virtual {virtual_real:.3f}ms (null "
            f"{virtual_null:.3f}ms), wall {wall_real * 1e3:.1f}ms vs "
            f"{wall_null * 1e3:.1f}ms (ratio {ratio:.3f})"
        )
    assert virtual_real == virtual_null
    assert ratio < MAX_WALL_RATIO, (
        f"instrumented hot path is {ratio:.2f}x the no-op run "
        f"(budget {MAX_WALL_RATIO}x)"
    )


def test_pipeline_sampling_leaves_virtual_time_identical(capsys):
    """The flight path: event log + TimeSeriesStore sampling is free.

    ``run_flight`` drives the full capture -> queue -> apply spike
    scenario twice — once with the flight recorder sampling every shipped
    window (plus SLO evaluation and cost attribution), once with the
    recorder absent — and both runs must land on the *same* virtual
    instant, bit for bit.
    """
    sampled = run_flight(sample=True)
    unsampled = run_flight(sample=False)
    with capsys.disabled():
        print(
            f"\nflight sampling: virtual {sampled.final_virtual_ms:.3f}ms "
            f"with {sampled.store['windows_sampled']} windows sampled "
            f"across {len(sampled.store['series'])} series (recorder off: "
            f"{unsampled.final_virtual_ms:.3f}ms)"
        )
    assert sampled.final_virtual_ms == unsampled.final_virtual_ms
    # The sampled run actually recorded something (the claim is not
    # vacuous), and the recorder-off run recorded nothing.
    # Every shipped window was sampled (drain/quiet rounds are extra
    # out-of-band samples and do not count as windows).
    assert sampled.store["windows_sampled"] == len(WINDOW_TXNS)
    assert sampled.ledger["conservative"]
    assert unsampled.store == {}
