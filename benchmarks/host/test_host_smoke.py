"""Smoke test of the host-time benchmark (``--smoke``: 1/10 size, 1 rep).

Checks the harness, not the numbers: the correctness gate passes, the
metric set is exactly the one ``BENCHMARK.json`` names, inputs and modelled
cost are functions of the seed alone, and ``compare.py`` catches a
regression.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def run_smoke(out: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke",
            "--out", str(out), "--out-dir", str(out.parent), *extra,
        ],
        capture_output=True, text=True, check=False,
    )


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("host") / "smoke.json"
    done = run_smoke(out, "--seed", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_correctness_gate_passes(smoke, contract):
    assert set(smoke["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, result in smoke["workloads"].items():
        assert result["ops_attempted"] > 0, name
        assert result["ops_failed"] == 0, (name, result["misses"])
        assert result["span_coverage"] >= 0.95, name


def test_emits_exactly_the_contract_metrics(smoke, contract):
    end_to_end = {m["name"]: m for m in contract["end_to_end"]}
    per_layer = {m["name"]: m for m in contract["per_layer"]}
    for name, result in smoke["workloads"].items():
        assert set(result["end_to_end"]) == set(end_to_end), name
        assert set(result["per_layer"]) == set(per_layer), name
        for metric, row in result["end_to_end"].items():
            assert row["unit"] == end_to_end[metric]["unit"]
            assert row["bound"] == end_to_end[metric]["bound"]
            assert row["median"] > 0, (name, metric)
        for metric, row in result["per_layer"].items():
            assert row["unit"] == per_layer[metric]["unit"]


def test_value_delta_runs_no_opdelta_layer(smoke):
    per_layer = smoke["workloads"]["value_delta"]["per_layer"]
    counts = [
        "core.capture.statements", "core.store.bytes",
        "analysis.conflict_graph.calls", "analysis.conflict.components",
        "compaction.ops_in", "columnar.statements", "warehouse.apply.calls",
    ]
    assert [per_layer[name]["value"] for name in counts] == [0] * len(counts)
    assert per_layer["extraction.logscan.rows_emitted"]["value"] > 0


def test_inputs_and_virtual_time_depend_on_the_seed_alone(smoke, tmp_path):
    again = tmp_path / "again.json"
    done = run_smoke(again, "--seed", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    for name, result in json.loads(again.read_text())["workloads"].items():
        first = smoke["workloads"][name]
        assert result["input_sha256"] == first["input_sha256"], name
        assert result["virtual_fingerprint"] == first["virtual_fingerprint"], name
        assert (
            result["end_to_end"]["virtual_ms"]["median"]
            == first["end_to_end"]["virtual_ms"]["median"]
        ), name

    other = tmp_path / "other.json"
    done = run_smoke(
        other, "--seed", "2", "--trace", "0", "--workload", "opdelta_scan"
    )
    assert done.returncode == 0, done.stdout + done.stderr
    # With one workload and --trace, the last line is the contract's object.
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    result = json.loads(other.read_text())["workloads"]["opdelta_scan"]
    assert result["input_sha256"] != (
        smoke["workloads"]["opdelta_scan"]["input_sha256"]
    )


def test_compare_flags_a_regression_beyond_the_bound(smoke):
    lines, code = compare.compare(smoke, smoke)
    assert code == 0, lines
    assert not [line for line in lines if "regressed" in line]

    slower = copy.deepcopy(smoke)
    row = slower["workloads"]["opdelta_scan"]["end_to_end"]["freshness_p50_ms"]
    worse = 1 + 1.5 * row["bound"]
    row["median"] *= worse
    row["reps"] = [value * worse for value in row["reps"]]
    lines, code = compare.compare(smoke, slower)
    assert code == 1
    flagged = [line for line in lines if "regressed" in line]
    assert len(flagged) == 1 and "freshness_p50_ms" in flagged[0]

    other_inputs = copy.deepcopy(smoke)
    other_inputs["workloads"]["value_delta"]["input_sha256"] = "0" * 64
    assert compare.compare(smoke, other_inputs)[1] == 1
