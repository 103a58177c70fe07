"""The `repro-bench --certify` gate: schedules, schema, CLI, race drill."""

import json

import pytest

from repro.bench.certify import (
    LANES,
    MODES,
    SCHEMA_VERSION,
    run_certify,
)
from repro.bench.cli import main

from .report_text import pass_text

#: The committed --certify --json document layout: changing any of these
#: (or the nested shapes pinned below) requires a SCHEMA_VERSION bump.
CERTIFY_TOP_LEVEL_KEYS = [
    "schema_version",
    "fault",
    "verdict",
    "fault_detected",
    "lanes",
    "transactions",
    "operations",
    "modes",
    "widening",
    "parity",
    "overhead",
    "drill",
]

MODE_KEYS = {
    "verdict",
    "lanes",
    "transactions",
    "operations",
    "pairs_checked",
    "conflicting_pairs",
    "commuting_pairs",
    "reorder_checks",
    "findings",
}


@pytest.fixture(scope="module")
def clean():
    return run_certify()


@pytest.fixture(scope="module")
def drilled():
    return run_certify(fault="swap-lane-ops")


class TestCleanReport:
    def test_every_seed_schedule_certifies(self, clean):
        assert clean.verdict == "CERTIFIED"
        for mode in MODES:
            assert clean.modes[mode]["verdict"] == "CERTIFIED", mode
        assert clean.clean
        assert clean.exit_code == 0

    def test_widening_buys_parallelism_soundly(self, clean):
        widening = clean.widening
        assert widening["newly_commuting_pairs"] > 0
        assert widening["sound"]
        assert widening["widened"]["edges"] < widening["conservative"]["edges"]
        assert (
            widening["widened"]["components"]
            > widening["conservative"]["components"]
        )

    def test_batched_apply_is_bit_identical_to_serial(self, clean):
        assert clean.parity["bit_identical"]
        assert clean.parity["sanitizer_clean"]

    def test_sanitizer_costs_zero_virtual_time(self, clean):
        overhead = clean.overhead
        assert overhead["zero_virtual_overhead"]
        assert (
            overhead["sanitizer_on_elapsed_ms"]
            == overhead["sanitizer_off_elapsed_ms"]
        )

    def test_byte_identical_across_repeats(self, clean):
        repeat = run_certify()
        assert json.dumps(clean.to_dict(), sort_keys=True) == json.dumps(
            repeat.to_dict(), sort_keys=True
        )


class TestRaceDrill:
    def test_both_detectors_catch_the_planted_race(self, drilled):
        assert drilled.fault == "swap-lane-ops"
        assert drilled.fault_detected
        assert drilled.exit_code == 0

    def test_static_rejection_carries_a_witness(self, drilled):
        static = drilled.drill["static"]
        assert static["verdict"] == "REJECTED"
        race001 = [
            f for f in static["findings"] if f["code"] == "RACE001"
        ]
        assert race001
        assert race001[0]["witness"]
        assert race001[0]["lane_a"] != race001[0]["lane_b"]

    def test_dynamic_findings_are_independent(self, drilled):
        assert drilled.drill["dynamic_findings"]

    def test_integrator_refuses_and_leaves_state_untouched(self, drilled):
        assert drilled.drill["integrator_rejected"]
        assert "certification rejected" in drilled.drill["integrator_error"]
        assert drilled.drill["drill_state_untouched"]

    def test_drill_is_byte_identical_across_repeats(self, drilled):
        repeat = run_certify(fault="swap-lane-ops")
        assert json.dumps(drilled.to_dict(), sort_keys=True) == json.dumps(
            repeat.to_dict(), sort_keys=True
        )


class TestSchemaPins:
    """Satellite: the versioned --certify JSON schema, pinned."""

    def test_schema_version_is_one(self, clean):
        assert SCHEMA_VERSION == 1
        assert clean.to_dict()["schema_version"] == 1

    def test_top_level_keys_pinned(self, clean, drilled):
        assert list(clean.to_dict()) == CERTIFY_TOP_LEVEL_KEYS
        assert list(drilled.to_dict()) == CERTIFY_TOP_LEVEL_KEYS

    def test_mode_keys_pinned(self, clean):
        for mode in MODES:
            assert MODE_KEYS <= set(clean.to_dict()["modes"][mode]), mode

    def test_fault_detected_null_without_fault(self, clean):
        doc = clean.to_dict()
        assert doc["fault"] is None
        assert doc["fault_detected"] is None
        assert doc["drill"] is None

    def test_document_json_round_trips(self, clean):
        assert (
            json.loads(json.dumps(clean.to_dict()))["schema_version"] == 1
        )


class TestRendering:
    """The text is the title, the verdict lines and one grid row per
    finding; what the pass measured beside them is read from its document."""

    def test_render_shows_grid_widening_and_parity(self, clean):
        head, grid = pass_text("--certify", clean)
        assert head == [
            "== schedule certification ==",
            "verdict: CERTIFIED",
            f"lanes: {LANES}",
            f"transactions: {clean.transactions}",
            f"operations: {clean.operations}",
        ]
        assert grid == [("at", "code", "severity", "message")]
        document = clean.to_dict()
        assert document["verdict"] == "CERTIFIED"
        assert document["widening"]["conservative"]["edges"] == 9
        assert document["widening"]["widened"]["edges"] == 7
        assert document["parity"]["bit_identical"]

    def test_render_shows_the_drill(self, drilled):
        head, grid = pass_text("--certify", drilled)
        assert head[:4] == [
            "== schedule certification ==",
            "fault: swap-lane-ops",
            "verdict: CERTIFIED",
            "fault_detected: True",
        ]
        assert grid[0] == ("at", "code", "severity", "message")
        document = drilled.to_dict()
        drill = document["drill"]
        assert [row[:3] for row in grid[1:]] == [
            *(("drill.static", "RACE001", "-") for _ in drill["static"]["findings"]),
            *(
                ("drill.sanitizer", finding["code"], "-")
                for finding in drill["dynamic_findings"]
            ),
        ]
        assert len(drill["static"]["findings"]) == 3
        assert document["fault_detected"] is True
        assert drill["integrator_rejected"]


class TestCommandLine:
    def test_certify_flag_exits_zero(self, capsys):
        assert main(["--certify"]) == 0
        assert "schedule certification" in capsys.readouterr().out

    def test_certify_json_export(self, tmp_path):
        dest = tmp_path / "BENCH_certify.json"
        assert main(["--certify", "--json", str(dest)]) == 0
        payload = json.loads(dest.read_text(encoding="utf-8"))
        assert payload["schema_version"] == 1
        assert payload["verdict"] == "CERTIFIED"
        assert payload["lanes"] == LANES

    def test_json_to_stdout_moves_report_to_stderr(self, capsys):
        assert main(["--certify", "--json", "-"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["schema_version"] == 1
        assert "schedule certification" in captured.err

    def test_drill_exit_zero_means_detected(self, capsys):
        assert main(["--certify", "--fault", "swap-lane-ops"]) == 0
        assert "fault_detected: True" in capsys.readouterr().out

    def test_swap_lane_ops_requires_certify(self, capsys):
        assert main(["--health", "--fault", "swap-lane-ops"]) == 2
        assert "requires --certify" in capsys.readouterr().err

    def test_drop_queue_message_requires_health(self, capsys):
        assert main(["--certify", "--fault", "drop-queue-message"]) == 2
        assert "requires --health" in capsys.readouterr().err

    def test_certify_and_health_are_mutually_exclusive(self, capsys):
        assert main(["--certify", "--health"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
