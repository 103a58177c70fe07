"""The `repro-bench --health` gate: exit codes, JSON export, rendering."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.health import HealthReport, run_health

from .report_text import pass_text


@pytest.fixture(scope="module")
def healthy():
    return run_health()


@pytest.fixture(scope="module")
def faulted():
    return run_health(fault="drop-queue-message")


class TestHealthReport:
    def test_clean_pipeline_exits_zero(self, healthy):
        assert healthy.verdict == "CLEAN"
        assert healthy.exit_code == 0
        assert set(healthy.modes) == {"plain", "batched", "compacted"}

    def test_seeded_fault_must_be_detected(self, faulted):
        # With a fault injected, success means CATCHING it.
        assert faulted.fault_detected
        assert faulted.exit_code == 0
        assert faulted.verdict == "FINDINGS"

    def test_missed_fault_would_fail_the_gate(self, healthy):
        missed = HealthReport(fault="drop-queue-message", modes=healthy.modes)
        assert not missed.fault_detected
        assert missed.exit_code == 1

    def test_unknown_fault_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            run_health(fault="unplug-the-rack")

    def test_fault_findings_name_the_lost_message(self, faulted):
        codes = {
            finding["code"]
            for finding in faulted.snapshot.findings
            if finding["severity"] == "error"
        }
        assert "AUD001" in codes  # the dropped-but-acked op is a gap
        assert "AUD004" in codes  # and the mirrors diverge

    def test_to_dict_round_trips_through_json(self, healthy):
        payload = json.loads(json.dumps(healthy.to_dict()))
        assert payload["verdict"] == "CLEAN"
        assert payload["modes"]["compacted"]["conservation"]["captured"] == 27


class TestRendering:
    """The text is the title, the verdict lines and one grid row per
    finding; what the pass measured beside them is read from its document."""

    def test_render_shows_conservation_and_freshness(self, healthy):
        head, grid = pass_text("--health", healthy)
        assert head == ["== pipeline health ==", "verdict: CLEAN"]
        assert grid == [("at", "code", "severity", "message")]
        document = healthy.to_dict()
        for mode, snapshot in document["modes"].items():
            c = snapshot["conservation"]
            assert c["captured"] == (
                c["applied"] + c["pruned"] + c["absorbed"] + c["rejected"]
            ), mode
            assert c["in_flight"] == 0, mode
        flagship = document["modes"]["compacted"]
        assert "parts_catalog" in {view["view"] for view in flagship["views"]}
        assert "end_to_end" in flagship["stage_lags"]
        assert flagship["digest_checks"]
        assert all(flagship["digest_checks"].values())

    def test_render_reports_fault_detection(self, faulted):
        head, grid = pass_text("--health", faulted)
        assert head == [
            "== pipeline health ==",
            "fault: drop-queue-message",
            "verdict: FINDINGS",
            "fault_detected: True",
        ]
        assert grid[0] == ("at", "code", "severity", "message")
        assert [row[:3] for row in grid[1:]] == [
            ("compacted", "AUD001", "error"),
            ("compacted", "AUD006", "error"),
            ("compacted", "AUD004", "error"),
        ]
        document = faulted.to_dict()
        assert document["fault"] == "drop-queue-message"
        assert document["fault_detected"] is True


class TestCli:
    def test_health_flag_exits_zero_when_clean(self, capsys):
        assert main(["--health"]) == 0
        out = capsys.readouterr().out
        assert "pipeline health" in out
        assert "verdict: CLEAN" in out

    def test_health_with_fault_exits_zero_on_detection(self, capsys):
        assert main(["--health", "--fault", "drop-queue-message"]) == 0
        assert "fault_detected: True" in capsys.readouterr().out

    def test_health_json_export(self, tmp_path, capsys):
        target = tmp_path / "health.json"
        assert main(["--health", "--json", str(target)]) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["verdict"] == "CLEAN"
        assert "compacted" in payload["modes"]

    def test_json_to_stdout_moves_report_to_stderr(self, capsys):
        assert main(["--health", "--json", "-"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["verdict"] == "CLEAN"
        assert "verdict: CLEAN" in captured.err

    def test_fault_without_health_is_a_usage_error(self, capsys):
        assert main(["--fault", "drop-queue-message"]) == 2
        assert "requires --health" in capsys.readouterr().err

    def test_unwritable_json_destination_fails(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "health.json"
        assert main(["--health", "--json", str(target)]) == 1
        assert "cannot write" in capsys.readouterr().err
