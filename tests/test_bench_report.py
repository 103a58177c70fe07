"""Tests for the benchmark report structure and renderers."""

import pytest

from repro.bench.report import (
    ExperimentResult,
    mean,
    non_decreasing,
    render,
    render_report,
    roughly_constant,
    series_ratios,
    strictly_increasing,
)


@pytest.fixture
def result():
    r = ExperimentResult(
        experiment_id="tX",
        title="A Test Table",
        parameters={"scale": "1/100"},
        headers=["100M", "200M"],
        series={"fast": [1_000.0, 2_000.0], "slow": [5_000.0, 12_000.0]},
        paper={"fast": [100_000.0, 200_000.0]},
        paper_scale_divisor=100.0,
        unit="ms",
    )
    r.check("slow is slower", True)
    return r


class TestExperimentResult:
    def test_checks_aggregate(self, result):
        assert result.all_checks_pass
        result.check("failing", False)
        assert not result.all_checks_pass

    def test_to_dict_roundtrips_fields(self, result):
        data = result.to_dict()
        assert data["experiment_id"] == "tX"
        assert data["series"]["fast"] == [1_000.0, 2_000.0]
        assert data["checks"] == {"slow is slower": True}


class TestRender:
    def test_contains_all_sections(self, result):
        text = render(result)
        assert "tX: A Test Table" in text
        assert "scale=1/100" in text
        assert "fast" in text and "slow" in text
        assert "paper (paper / 100" in text
        assert "[PASS] slow is slower" in text

    def test_failures_marked(self, result):
        result.check("broken", False)
        assert "[FAIL] broken" in render(result)

    def test_percent_unit(self):
        r = ExperimentResult(
            "f", "t", headers=["10"], series={"x": [0.665]}, unit="percent"
        )
        assert "66.5%" in render(r)

    def test_duration_formatting(self, result):
        text = render(result)
        assert "1.0 s" in text or "1000 ms" in text


class TestRenderReport:
    def test_title_scalars_then_one_row_per_finding(self):
        document = {
            "schema_version": 1,
            "fault": None,
            "verdict": "FINDINGS",
            "fault_detected": True,
            "modes": {"a": {"findings": []}},
            "windows": [{"findings": []}],
        }
        findings = [
            ("a", {"code": "X001", "severity": "error", "message": "lost"}),
            ("b", {"code": "X002", "severity": None}),
        ]
        assert render_report("drill", document, findings).splitlines() == [
            "== drill ==",
            "verdict: FINDINGS",
            "fault_detected: True",
            "at  code  severity  message",
            "--  ----  --------  -------",
            "a   X001     error     lost",
            "b   X002         -        -",
        ]


class TestHelpers:
    def test_series_ratios(self):
        assert series_ratios([10, 20], [5, 5]) == [2.0, 4.0]
        assert series_ratios([1], [0]) == [float("inf")]

    def test_strictly_increasing(self):
        assert strictly_increasing([1, 2, 3])
        assert not strictly_increasing([1, 2, 2])

    def test_non_decreasing(self):
        assert non_decreasing([1, 2, 2])
        assert not non_decreasing([2, 1])

    def test_roughly_constant(self):
        assert roughly_constant([1.0, 1.2, 1.3], tolerance=0.5)
        assert not roughly_constant([1.0, 2.0], tolerance=0.5)
        assert not roughly_constant([0.0, 1.0])

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestPaperData:
    def test_tables_have_consistent_shapes(self):
        from repro.bench import paper_data as pd

        for table in (pd.TABLE1_MS, pd.TABLE2_MS, pd.TABLE3_MS):
            for series in table.values():
                assert len(series) == len(pd.TABLE123_SIZES_MB)
                assert strictly_increasing(series)
        for series in pd.TABLE4_MS.values():
            assert len(series) == len(pd.TXN_SIZES)

    def test_published_orderings(self):
        """Sanity: the transcription preserves the paper's orderings."""
        from repro.bench import paper_data as pd

        assert all(
            imp > loader
            for imp, loader in zip(pd.TABLE1_MS["import"], pd.TABLE1_MS["loader"])
        )
        assert all(
            f <= d
            for f, d in zip(
                pd.TABLE4_MS["insert_filelog"], pd.TABLE4_MS["insert_dblog"]
            )
        )


class TestCli:
    def test_list(self, capsys):
        from repro.bench.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig3" in out

    def test_unknown_experiment(self, capsys):
        from repro.bench.cli import main

        assert main(["nonsense"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_one_small_experiment(self, capsys):
        from repro.bench.cli import main

        # snapshot_algorithms is the fastest registered experiment.
        assert main(["snapshot_algorithms"]) == 0
        out = capsys.readouterr().out
        assert "snapshot_algorithms" in out


class TestReportPassesRunAlone:
    """A report pass refuses the experiment flags it would silently drop."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--health", "--metrics"], "--metrics"),
            (["table4", "--health"], "experiment ids"),
            (["--list", "--flight"], "--list"),
            (["--check", "--health"], "--check"),
        ],
    )
    def test_refused(self, argv, named, capsys):
        from repro.bench.cli import main

        assert main(argv) == 2
        assert f"cannot be combined with {named}" in capsys.readouterr().err

    def test_trace_is_refused_and_writes_nothing(self, tmp_path, capsys):
        from repro.bench.cli import main

        trace = tmp_path / "t.json"
        assert main(["--certify", "--trace", str(trace), "--metrics"]) == 2
        err = capsys.readouterr().err
        assert "--certify cannot be combined with --metrics, --trace" in err
        assert not trace.exists()
