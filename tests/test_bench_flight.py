"""The `repro-bench --flight` gate: spike scenario, schema, CLI."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.experiments import flight as flight_experiment
from repro.bench.flight import (
    SCHEMA_VERSION,
    SPIKE_WINDOWS,
    run_flight,
)
from repro.bench.health import SCHEMA_VERSION as HEALTH_SCHEMA_VERSION
from repro.bench.health import run_health

from .report_text import pass_text

#: The committed --flight --json document layout: changing any of these
#: (or the nested shapes pinned below) requires a SCHEMA_VERSION bump.
FLIGHT_TOP_LEVEL_KEYS = [
    "schema_version",
    "sampled",
    "exit_code",
    "spike_detected",
    "all_clear",
    "conservative",
    "final_virtual_ms",
    "windows",
    "findings",
    "slo",
    "store",
    "ledger",
]

WINDOW_KEYS = {
    "window",
    "at_ms",
    "txns",
    "spike",
    "enqueued",
    "applied",
    "queue_depth",
    "staleness_ms",
    "findings",
}

LEDGER_ROW_KEYS = {"stage", "entity", "self_ns", "self_ms", "spans"}


@pytest.fixture(scope="module")
def sampled():
    return run_flight(sample=True)


@pytest.fixture(scope="module")
def unsampled():
    return run_flight(sample=False)


class TestFlightReport:
    def test_spike_fires_and_clears(self, sampled):
        codes = [f["code"] for f in sampled.findings]
        assert "SLO001" in codes
        assert "SLO002" in codes
        assert sampled.spike_detected
        assert sampled.all_clear
        assert sampled.exit_code == 0

    def test_alert_positions_bracket_the_spike(self, sampled):
        fired = min(
            f["at_ms"] for f in sampled.findings if f["code"] == "SLO001"
        )
        spike_ats = [
            w["at_ms"] for w in sampled.windows if w["window"] in SPIKE_WINDOWS
        ]
        assert min(spike_ats) <= fired <= max(spike_ats)
        cleared = max(
            f["at_ms"] for f in sampled.findings if f["code"] == "SLO002"
        )
        assert cleared > fired

    def test_ledger_is_conservative(self, sampled, unsampled):
        assert sampled.conservative
        assert unsampled.conservative
        ledger = sampled.ledger
        assert ledger["total_traced_ns"] == sum(
            row["self_ns"] for row in ledger["rows"]
        )

    def test_attribution_covers_every_pipeline_stage(self, sampled):
        stages = {row["stage"] for row in sampled.ledger["rows"]}
        assert {"capture", "check", "ship", "apply"} <= stages

    def test_sampling_is_free_in_virtual_time(self, sampled, unsampled):
        assert sampled.final_virtual_ms == unsampled.final_virtual_ms

    def test_unsampled_run_has_no_recording(self, unsampled):
        assert not unsampled.sampled
        assert unsampled.findings == []
        assert unsampled.exit_code == 0

    def test_byte_identical_across_repeats(self, sampled):
        repeat = run_flight(sample=True)
        assert json.dumps(sampled.to_dict(), sort_keys=True) == json.dumps(
            repeat.to_dict(), sort_keys=True
        )

    def test_top_k_rows(self, sampled):
        top = sampled.top(3)
        assert len(top) == 3
        assert top[0]["self_ns"] >= top[1]["self_ns"] >= top[2]["self_ns"]


class TestSchemaPins:
    """Satellite: the versioned JSON schemas, pinned against drift."""

    def test_flight_schema_version_is_one(self, sampled):
        assert SCHEMA_VERSION == 1
        assert sampled.to_dict()["schema_version"] == 1

    def test_flight_top_level_keys_pinned(self, sampled):
        assert list(sampled.to_dict()) == FLIGHT_TOP_LEVEL_KEYS

    def test_flight_window_keys_pinned(self, sampled):
        for window in sampled.to_dict()["windows"]:
            assert set(window) == WINDOW_KEYS

    def test_flight_ledger_rows_pinned(self, sampled):
        doc = sampled.to_dict()["ledger"]
        assert set(doc) == {
            "total_traced_ns",
            "total_traced_ms",
            "span_count",
            "conservative",
            "rows",
        }
        for row in doc["rows"]:
            assert set(row) == LEDGER_ROW_KEYS

    def test_flight_store_and_slo_present_when_sampled(self, sampled):
        doc = sampled.to_dict()
        assert doc["store"]["windows_sampled"] > 0
        assert {o["key"] for o in doc["slo"]["objectives"]} == {
            "freshness:parts_catalog",
            "latency:end_to_end",
        }

    def test_flight_document_json_round_trips(self, sampled):
        assert json.loads(json.dumps(sampled.to_dict()))[
            "schema_version"
        ] == 1

    def test_health_schema_version_is_one(self):
        report = run_health()
        assert HEALTH_SCHEMA_VERSION == 1
        doc = report.to_dict()
        assert doc["schema_version"] == 1
        assert list(doc) == [
            "schema_version",
            "fault",
            "verdict",
            "fault_detected",
            "modes",
        ]


class TestRendering:
    """The text is the title, the verdict lines and one grid row per
    finding; what the pass measured beside them is read from its document."""

    def test_render_shows_timeline_costs_and_findings(self, sampled):
        head, grid = pass_text("--flight", sampled)
        assert head == [
            "== flight recorder ==",
            "sampled: True",
            "exit_code: 0",
            "spike_detected: True",
            "all_clear: True",
            "conservative: True",
            f"final_virtual_ms: {sampled.final_virtual_ms}",
        ]
        assert grid[0] == ("at", "code", "severity", "message")
        # Each SLO transition once: ``slo.findings`` and the windows'
        # findings repeat the top-level list, and print no extra row.
        assert [row[:3] for row in grid[1:]] == [
            ("window 3", "SLO001", "error"),
            ("window 3", "SLO003", "error"),
            ("window 10", "SLO002", "info"),
            ("window 11", "SLO004", "info"),
        ]
        document = sampled.to_dict()
        assert len(document["findings"]) == len(grid) - 1
        assert {"SLO001", "SLO002"} <= {f["code"] for f in document["findings"]}
        assert [w["window"] for w in document["windows"] if w["spike"]] == list(
            SPIKE_WINDOWS
        )
        assert document["ledger"]["rows"]

    def test_render_unsampled(self, unsampled):
        head, grid = pass_text("--flight", unsampled)
        assert head[0] == "== flight recorder =="
        assert "sampled: False" in head
        assert grid == [("at", "code", "severity", "message")]


class TestExperiment:
    def test_registry_entry(self):
        from repro.bench.experiments import REGISTRY

        assert REGISTRY["flight"] is flight_experiment.run

    def test_experiment_checks_pass(self):
        result = flight_experiment.run()
        assert result.all_checks_pass, result.checks
        assert result.headers == ["sampled", "unsampled"]


class TestCommandLine:
    def test_flight_flag_exits_zero(self, capsys):
        assert main(["--flight"]) == 0
        out = capsys.readouterr().out
        assert "flight recorder" in out

    def test_flight_json_export(self, tmp_path, capsys):
        dest = tmp_path / "BENCH_flight.json"
        assert main(["--flight", "--json", str(dest)]) == 0
        payload = json.loads(dest.read_text(encoding="utf-8"))
        assert payload["schema_version"] == 1
        assert payload["exit_code"] == 0

    def test_json_to_stdout_moves_report_to_stderr(self, capsys):
        assert main(["--flight", "--json", "-"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["schema_version"] == 1
        assert "flight recorder" in captured.err

    def test_health_and_flight_are_mutually_exclusive(self, capsys):
        assert main(["--health", "--flight"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unwritable_json_destination_fails(self, tmp_path, capsys):
        dest = tmp_path / "no" / "such" / "dir" / "f.json"
        assert main(["--flight", "--json", str(dest)]) == 1
        assert "cannot write" in capsys.readouterr().err
