"""Integration tests: the obs layer observing the real engine.

The key property is determinism — two identical runs must produce
identical metric values and identical span timings, because everything is
stamped from the virtual clock.
"""

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.engine import Column, Database, TableSchema
from repro.engine.types import INTEGER, char
from repro.obs import MetricsRegistry, Tracer, observe


def _schema(name: str = "items") -> TableSchema:
    # Wide rows so a couple hundred of them overflow a 4-page buffer pool.
    return TableSchema(
        name,
        [Column("item_id", INTEGER, nullable=False), Column("name", char(400))],
        primary_key="item_id",
    )


def _workload(registry: MetricsRegistry, tracer: Tracer) -> Database:
    """A small source that forces buffer evictions (4-page pool)."""
    database = Database(
        "obs-int", buffer_pages=4, metrics=registry, tracer=tracer
    )
    database.create_table(_schema())
    session = database.internal_session()
    for i in range(200):
        session.execute(f"INSERT INTO items VALUES ({i}, 'n{i}')")
    session.execute("SELECT COUNT(*) FROM items")
    database.checkpoint()
    return database


class TestEngineMetrics:
    def test_buffer_pool_metrics_match_properties(self):
        registry = MetricsRegistry()
        database = _workload(registry, Tracer())
        pool = database.buffer_pool
        assert pool.hits == registry.value("engine.buffer.hit", db="obs-int")
        assert pool.misses == registry.value("engine.buffer.miss", db="obs-int")
        assert pool.misses > 0
        assert registry.value("engine.buffer.eviction", db="obs-int") > 0

    def test_wal_metrics_match_manager(self):
        registry = MetricsRegistry()
        database = _workload(registry, Tracer())
        log = database.log
        # One record per LSN handed out; every commit forced the log.
        assert registry.value("engine.wal.record", db="obs-int") == log._next_lsn - 1
        assert registry.value("engine.wal.bytes", db="obs-int") > 0
        assert registry.value("engine.wal.force", db="obs-int") >= 200

    def test_two_runs_are_identical(self):
        """Determinism: snapshots and span timings repeat exactly."""
        snapshots, traces = [], []
        for _ in range(2):
            registry, tracer = MetricsRegistry(), Tracer()
            _workload(registry, tracer)
            snapshots.append(registry.snapshot())
            traces.append(tracer.chrome_trace_events())
        assert snapshots[0] == snapshots[1]
        assert traces[0] == traces[1]

    def test_ambient_context_reaches_database(self):
        with observe() as obs:
            database = Database("ambient-db")
            assert database.metrics is obs.metrics
        session = database.internal_session()
        database.create_table(_schema())
        session.execute("INSERT INTO items VALUES (1, 'a')")
        assert obs.metrics.total("engine.txn.commit") == 1

    def test_span_durations_consistent_with_clock(self):
        registry, tracer = MetricsRegistry(), Tracer()
        database = _workload(registry, tracer)
        for span in tracer.spans:
            assert not span.is_open
            assert span.duration_ms >= 0
            assert span.end_ms <= database.clock.now


class TestCli:
    #: The cheapest experiment (~2 s) that still does real engine work under
    #: observation — it emits ``engine.buffer.*`` counters and complete
    #: (``X``) trace spans, and is not memoized per process like the capture
    #: experiments (``fig2`` here cost 60-70 s per flag set).
    EXPERIMENT = "snapshot_algorithms"

    def test_no_args_prints_hint_and_lists(self, capsys):
        assert bench_main([]) == 0
        captured = capsys.readouterr()
        assert "no experiments given" in captured.err
        assert "table2" in captured.out

    def test_json_flag_writes_results(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert bench_main([self.EXPERIMENT, "--json", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload[0]["experiment_id"] == self.EXPERIMENT
        assert "metrics" not in payload[0]

    def test_metrics_flag_adds_cost_breakdown(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert (
            bench_main([self.EXPERIMENT, "--metrics", "--json", str(out)]) == 0
        )
        captured = capsys.readouterr()
        assert "cost breakdown:" in captured.out
        payload = json.loads(out.read_text())
        counters = payload[0]["metrics"]["counters"]
        assert any(name.startswith("engine.buffer.") for name in counters)

    def test_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert bench_main([self.EXPERIMENT, "--trace", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in events)
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")

    def test_unknown_experiment_exits_2(self, capsys):
        assert bench_main(["nonsense"]) == 2
        assert "unknown experiments" in capsys.readouterr().err
