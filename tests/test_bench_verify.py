"""The `repro-bench --verify-plans` gate: plans, schema, CLI, drill."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.verify import (
    AGG_VIEW,
    FAULTS,
    JOIN_VIEW,
    MIRROR_VIEW,
    SCHEMA_VERSION,
    SPJ_VIEW,
    run_verify,
)

from .report_text import pass_text

#: The committed --verify-plans --json document layout: changing any of
#: these (or the nested shapes pinned below) needs a SCHEMA_VERSION bump.
VERIFY_TOP_LEVEL_KEYS = [
    "schema_version",
    "fault",
    "verdict",
    "fault_detected",
    "plans",
    "cache",
    "integration",
    "drill",
]

PLAN_KEYS = {
    "classification",
    "verdict",
    "stamp",
    "scenarios",
    "scenarios_by_kind",
    "databases",
    "warnings",
    "errors",
}

SEED_VIEWS = (
    MIRROR_VIEW.name,
    SPJ_VIEW.name,
    JOIN_VIEW.name,
    AGG_VIEW.name,
)


@pytest.fixture(scope="module")
def clean():
    return run_verify()


@pytest.fixture(scope="module")
def drilled():
    return run_verify(fault="corrupt-delta-rule")


class TestCleanReport:
    def test_every_seed_plan_verifies(self, clean):
        assert clean.verdict == "VERIFIED"
        assert tuple(clean.plans) == SEED_VIEWS
        for name, plan in clean.plans.items():
            assert plan["verdict"] == "VERIFIED", name
            assert plan["errors"] == [], name
            assert plan["scenarios"] > 0, name
        assert clean.clean
        assert clean.exit_code == 0

    def test_second_pass_is_pay_once(self, clean):
        cache = clean.cache
        assert cache["pay_once"]
        assert cache["second_pass_hits"] == len(SEED_VIEWS)
        assert cache["second_pass_virtual_ms"] == 0.0
        assert cache["first_pass_virtual_ms"] > 0.0

    def test_integration_preflight_served_from_cache(self, clean):
        integration = clean.integration
        assert integration["accepted"]
        assert integration["preflight_cache_hits"] == len(SEED_VIEWS)
        assert integration["preflight_virtual_ms"] == 0.0
        assert set(integration["certificates"]) == set(SEED_VIEWS)
        assert all(
            stamp.endswith(":VERIFIED")
            for stamp in integration["certificates"].values()
        )

    def test_integration_state_parity(self, clean):
        integration = clean.integration
        assert integration["view_parity"]
        assert integration["aggregate_parity"]
        assert integration["mirror_parity"]
        assert integration["parity"]

    def test_aggregate_idempotency_warnings_do_not_refute(self, clean):
        agg = clean.plans[AGG_VIEW.name]
        assert {w["code"] for w in agg["warnings"]} == {"RULE005"}
        assert agg["verdict"] == "VERIFIED"

    def test_byte_identical_across_repeats(self, clean):
        first = json.dumps(clean.to_dict(), sort_keys=True)
        second = json.dumps(run_verify().to_dict(), sort_keys=True)
        assert first == second


class TestCorruptionDrill:
    def test_fault_is_fully_caught(self, drilled):
        assert drilled.fault == "corrupt-delta-rule"
        assert drilled.fault_detected
        assert drilled.exit_code == 0

    def test_verifier_refutes_with_concrete_counterexample(self, drilled):
        drill = drilled.drill
        assert drill["verdict"] == "REFUTED"
        assert drill["error_codes"] == ["RULE001"]
        assert drill["counterexample"]
        assert "db=" in drill["counterexample"]
        assert drill["counterexample_replays"]

    def test_integrator_refuses_the_corrupted_plan(self, drilled):
        assert drilled.drill["integrator_rejected"]
        assert "refuted" in drilled.drill["integrator_error"]

    def test_control_verifier_still_verifies(self, drilled):
        assert drilled.drill["clean_verifier_verdict"] == "VERIFIED"

    def test_unknown_fault_rejected(self):
        assert FAULTS == ("corrupt-delta-rule",)
        with pytest.raises(ValueError):
            run_verify(fault="no-such-fault")


class TestSchemaPins:
    """The JSON layout is versioned; these pins force the bump."""

    def test_schema_version_is_one(self, clean):
        assert SCHEMA_VERSION == 1
        assert clean.to_dict()["schema_version"] == 1

    def test_top_level_keys_pinned(self, clean, drilled):
        assert list(clean.to_dict()) == VERIFY_TOP_LEVEL_KEYS
        assert list(drilled.to_dict()) == VERIFY_TOP_LEVEL_KEYS

    def test_plan_keys_pinned(self, clean):
        for plan in clean.to_dict()["plans"].values():
            assert set(plan) == PLAN_KEYS

    def test_fault_detected_null_without_fault(self, clean):
        document = clean.to_dict()
        assert document["fault"] is None
        assert document["fault_detected"] is None
        assert document["drill"] is None

    def test_document_json_round_trips(self, clean, drilled):
        for report in (clean, drilled):
            document = json.loads(json.dumps(report.to_dict()))
            assert document["verdict"] == "VERIFIED"


#: The seed catalog's four RULE005 idempotency warnings, where they sit.
RULE005_ROWS = [
    ("parts_mirror_lite [UPDATE]", "RULE005", "warning"),
    ("qty_by_supplier [INSERT]", "RULE005", "warning"),
    ("qty_by_supplier [UPDATE]", "RULE005", "warning"),
    ("qty_by_supplier [DELETE]", "RULE005", "warning"),
]


class TestRendering:
    """The text is the title, the verdict lines and one grid row per
    finding; what the pass measured beside them is read from its document."""

    def test_render_shows_grid_cache_and_parity(self, clean):
        head, grid = pass_text("--verify-plans", clean)
        assert head == ["== delta-rule verification ==", "verdict: VERIFIED"]
        assert grid[0] == ("at", "code", "severity", "message")
        assert [row[:3] for row in grid[1:]] == RULE005_ROWS
        document = clean.to_dict()
        assert tuple(document["plans"]) == SEED_VIEWS
        assert document["cache"]["pay_once"]
        assert document["integration"]["parity"]

    def test_render_shows_the_drill(self, drilled):
        head, grid = pass_text("--verify-plans", drilled)
        assert head == [
            "== delta-rule verification ==",
            "fault: corrupt-delta-rule",
            "verdict: VERIFIED",
            "fault_detected: True",
        ]
        assert [row[:3] for row in grid[1:]] == [
            *RULE005_ROWS,
            (f"drill.{AGG_VIEW.name}", "RULE001", "error"),
        ]
        document = drilled.to_dict()
        assert document["fault"] == "corrupt-delta-rule"
        assert document["fault_detected"] is True
        assert document["drill"]["error_codes"] == ["RULE001"]
        assert document["drill"]["integrator_rejected"]


class TestCommandLine:
    def test_verify_plans_flag_exits_zero(self, capsys):
        assert main(["--verify-plans"]) == 0
        assert "delta-rule verification" in capsys.readouterr().out

    def test_verify_plans_json_export(self, tmp_path):
        target = tmp_path / "verify.json"
        assert main(["--verify-plans", "--json", str(target)]) == 0
        document = json.loads(target.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["verdict"] == "VERIFIED"

    def test_json_to_stdout_moves_report_to_stderr(self, capsys):
        assert main(["--verify-plans", "--json", "-"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["verdict"] == "VERIFIED"
        assert "delta-rule verification" in captured.err

    def test_drill_exit_zero_means_detected(self, capsys):
        assert main(["--verify-plans", "--fault", "corrupt-delta-rule"]) == 0
        assert "fault_detected: True" in capsys.readouterr().out

    def test_corrupt_delta_rule_requires_verify_plans(self, capsys):
        assert main(["--fault", "corrupt-delta-rule"]) == 2
        assert "requires --verify-plans" in capsys.readouterr().err

    def test_verify_plans_and_certify_are_mutually_exclusive(self, capsys):
        assert main(["--verify-plans", "--certify"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
