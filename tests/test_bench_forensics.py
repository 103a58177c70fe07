"""The `repro-bench --forensics` / `--sql` gate: drill, schema, CLI."""

import json

import pytest

from repro.bench import introspect as bench_introspect
from repro.bench.cli import REPORT_PASSES, main
from repro.bench.introspect import (
    SCHEMA_VERSION,
    STALL_QUEUE_SHARE,
    STALL_WINDOWS,
    ForensicsReport,
    run_forensics,
    run_sql,
)
from repro.bench.report import render_query_result

from .report_text import pass_text

#: The committed --forensics --json document layout: changing any of
#: these requires a SCHEMA_VERSION bump.
FORENSICS_TOP_LEVEL_KEYS = [
    "schema_version",
    "exit_code",
    "stall_blamed",
    "p99_stage",
    "p99_queue_share",
    "conservation_matches",
    "zero_cost_ok",
    "meta_converged",
    "meta_guard_ok",
    "meta_digests_ok",
    "final_virtual_ms",
    "windows",
    "table_rows",
    "conservation_sql",
    "conservation_auditor",
    "forensics",
    "ledger",
    "meta_refreshes",
    "query",
]


@pytest.fixture(scope="module")
def drill():
    return run_forensics()


def healthy_report() -> ForensicsReport:
    return ForensicsReport(
        p99_stage="queue",
        p99_queue_share=0.95,
        conservation_matches=True,
        zero_cost_ok=True,
        meta_converged=True,
        meta_guard_ok=True,
        meta_digests_ok=True,
    )


class TestExitCodeFlags:
    """exit 0 requires queue blame AND every catalog check — flag by flag."""

    def test_all_flags_healthy_exits_zero(self):
        report = healthy_report()
        assert report.stall_blamed
        assert report.exit_code == 0

    @pytest.mark.parametrize(
        "flag",
        [
            "conservation_matches",
            "zero_cost_ok",
            "meta_converged",
            "meta_guard_ok",
            "meta_digests_ok",
        ],
    )
    def test_each_catalog_check_is_load_bearing(self, flag):
        report = healthy_report()
        setattr(report, flag, False)
        assert report.exit_code == 1

    def test_blaming_any_other_stage_fails(self):
        for stage in ("", "check", "ship", "apply"):
            report = healthy_report()
            report.p99_stage = stage
            assert not report.stall_blamed
            assert report.exit_code == 1

    def test_queue_blame_without_dominance_fails(self):
        # Natural batching alone leaves queue-wait below the share
        # threshold: topping the tail is not enough, the stall must
        # explain the latency.
        report = healthy_report()
        report.p99_queue_share = STALL_QUEUE_SHARE - 0.01
        assert report.exit_code == 1


class TestDrill:
    def test_seeded_stall_is_blamed_on_the_queue(self, drill):
        assert drill.exit_code == 0
        assert drill.p99_stage == "queue"
        assert drill.p99_queue_share >= STALL_QUEUE_SHARE

    def test_stall_free_run_fails_the_drill(self, monkeypatch):
        monkeypatch.setattr(bench_introspect, "STALL_WINDOWS", ())
        report = bench_introspect.run_forensics()
        # Still healthy plumbing-wise, but the queue no longer explains
        # the tail: the drill must refuse to claim the stall.
        assert report.conservation_matches
        assert not report.stall_blamed
        assert report.exit_code == 1

    def test_stalled_windows_apply_nothing(self, drill):
        by_index = {w["window"]: w for w in drill.windows}
        for index in STALL_WINDOWS:
            assert by_index[index]["stalled"]
            assert by_index[index]["applied"] == 0

    def test_conservation_sql_matches_the_auditor_bit_for_bit(self, drill):
        assert drill.conservation_sql == drill.conservation_auditor
        assert drill.conservation_sql["in_flight"] == 0

    def test_all_eight_tables_materialise(self, drill):
        assert sorted(drill.table_rows) == sorted(
            (
                "sys.events",
                "sys.metrics",
                "sys.watermarks",
                "sys.lag",
                "sys.series",
                "sys.cost",
                "sys.slo",
                "sys.critical_path",
            )
        )
        for name, rows in drill.table_rows.items():
            assert rows > 0, name

    def test_catalog_queries_are_free_in_virtual_time(self, drill):
        assert drill.zero_cost_ok

    def test_monitoring_views_converge_incrementally(self, drill):
        assert drill.meta_converged
        assert drill.meta_guard_ok
        assert drill.meta_digests_ok
        # Mid-run refresh inserts, post-drain refresh updates in place,
        # probe ships an empty delta.
        assert drill.meta_refreshes[0]["rows_changed"] > 0
        assert drill.meta_refreshes[-1]["rows_changed"] == 0

    def test_byte_identical_across_repeats(self, drill):
        again = run_forensics()
        assert json.dumps(drill.to_dict(), sort_keys=True) == json.dumps(
            again.to_dict(), sort_keys=True
        )


class TestSchema:
    def test_schema_version_is_one(self, drill):
        assert SCHEMA_VERSION == 1
        assert drill.to_dict()["schema_version"] == 1

    def test_top_level_keys_pinned(self, drill):
        assert list(drill.to_dict()) == FORENSICS_TOP_LEVEL_KEYS

    def test_document_is_json_serialisable(self, drill):
        json.dumps(drill.to_dict())


class TestSql:
    def test_run_sql_carries_the_query_result(self):
        report = run_sql(
            "SELECT kind, COUNT(*) FROM sys.events GROUP BY kind"
        )
        assert report.query is not None
        assert report.query["columns"] == ["kind", "COUNT(*)"]
        kinds = {kind for kind, _count in report.query["rows"]}
        assert "captured" in kinds and "applied" in kinds


class TestRendering:
    """The text is the title, the verdict lines and one grid row per
    finding; what the pass measured beside them is read from its document."""

    def test_render_forensics_shows_the_verdict_and_blame(self, drill):
        head, grid = pass_text("--forensics", drill)
        assert head[:4] == [
            "== system catalog forensics ==",
            "exit_code: 0",
            "stall_blamed: True",
            "p99_stage: queue",
        ]
        assert "conservation_matches: True" in head
        assert grid == [("at", "code", "severity", "message")]
        document = drill.to_dict()
        assert document["forensics"]["p99"]["critical_stage"] == "queue"
        assert document["forensics"]["windows"]
        assert document["conservation_sql"] == document["conservation_auditor"]
        assert any(window["stalled"] for window in document["windows"])

    def test_render_query_result_tabulates_rows(self):
        text = render_query_result(
            {
                "sql": "SELECT 1",
                "columns": ["a", "b"],
                "rows": [[1, None], [2, "x"]],
            }
        )
        assert "-- SELECT 1" in text
        assert "NULL" in text
        assert "(2 rows)" in text


class TestCli:
    def test_registry_drives_the_usage_hint(self, capsys):
        assert main([]) == 0
        err = capsys.readouterr().err
        for report_pass in REPORT_PASSES:
            assert report_pass.flag in err

    def test_report_passes_are_mutually_exclusive(self, capsys):
        assert main(["--forensics", "--flight"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sql_flag_prints_the_result_rows(self, capsys):
        assert main(["--sql", "SELECT COUNT(*) FROM sys.critical_path"]) == 0
        out = capsys.readouterr().out
        assert "COUNT(*)" in out
        assert "(1 row)" in out

    def test_malformed_sql_exits_two_with_a_diagnostic(self, capsys):
        assert main(["--sql", "SELECT nope FROM sys.events"]) == 2
        err = capsys.readouterr().err
        assert "SEM002" in err
