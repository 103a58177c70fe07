"""The host-benchmark pair runner (tools/host_pairs.py), on a stub runner."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import host_pairs  # noqa: E402

BETTER = {"freshness_p50_ms": "lower", "delta_rows_per_s": "higher", "virtual_ms": "lower"}


def contract(freshness, rate, virtual=100.0, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {
            "freshness_p50_ms": {"value": freshness, "unit": "ms"},
            "delta_rows_per_s": {"value": rate, "unit": "rows/s"},
            "virtual_ms": {"value": virtual, "unit": "ms"},
        },
    }


class StubRunner:
    """Hands out scripted contracts per checkout and records the call order."""

    def __init__(self, base, new, by_side):
        self.sides = {base: "base", new: "new"}
        self.by_side = {side: iter(runs) for side, runs in by_side.items()}
        self.calls = []

    def __call__(self, checkout, workload, seed):
        side = self.sides[checkout]
        self.calls.append((side, workload, seed))
        return next(self.by_side[side])


def test_pairs_alternate_which_side_goes_first(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    stub = StubRunner(base, new, {
        "base": [contract(10.0, 1.0)] * 4, "new": [contract(8.0, 1.0)] * 4,
    })
    runs = host_pairs.run_pairs(stub, base, new, "value_delta", 7, 4)
    assert [side for side, _w, _s in stub.calls] == [
        "base", "new", "new", "base", "base", "new", "new", "base",
    ]
    assert {(w, s) for _side, w, s in stub.calls} == {("value_delta", 7)}
    assert len(runs["base"]) == len(runs["new"]) == 4


def test_quartiles_wins_and_direction():
    runs = {
        "base": [contract(f, 100.0) for f in (10.0, 11.0, 12.0, 13.0, 14.0)],
        "new": [contract(f, r) for f, r in (
            (8.0, 101.0), (12.0, 99.0), (9.0, 102.0), (9.5, 100.0), (10.0, 103.0),
        )],
    }
    summary = host_pairs.summarise(runs, BETTER)
    fresh = summary["metrics"]["freshness_p50_ms"]
    assert fresh["base"] == (11.0, 12.0, 13.0)
    assert fresh["new"] == (9.0, 9.5, 10.0)
    assert fresh["wins"] == 4  # pair 2 lost: 12.0 is not below 11.0
    # Higher is better here, and a tie is not a win.
    assert summary["metrics"]["delta_rows_per_s"]["wins"] == 3
    assert summary["same_virtual"] and summary["correct"]


def test_one_pair_is_its_own_quartiles():
    assert host_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_summary_line_and_verdict(capsys, monkeypatch):
    exported = {}
    monkeypatch.setattr(
        host_pairs, "export_revision",
        lambda revision, into: exported.setdefault("base", (revision, into))[1],
    )
    monkeypatch.setattr(
        host_pairs, "export_working_tree",
        lambda into: exported.setdefault("work", into),
    )
    runs = {
        "base": [contract(10.0, 100.0), contract(12.0, 100.0)],
        "new": [contract(8.0, 110.0), contract(9.0, 110.0, virtual=100.5)],
    }

    def runner(checkout, workload, seed):
        return runs["base" if checkout == exported["base"][1] else "new"].pop(0)

    status = host_pairs.main(
        ["--base", "HEAD", "--workload", "value_delta", "--pairs", "2"], runner
    )
    out = capsys.readouterr().out
    # The second pair's virtual time moved: not the same experiment.
    assert status == 1
    line = out.strip().splitlines()[-1]
    assert line.startswith("host_pairs value_delta seed 1 vs ")
    assert "freshness_p50_ms 11 -> 8.5 ms (-22.7%, 2/2)" in line
    assert "delta_rows_per_s 100 -> 110 rows/s (+10.0%, 2/2)" in line
    assert line.endswith("virtual_ms DIFFERS")
    # Both sides ran from copies of the same shape, side by side.
    (revision, base), work = exported["base"], exported["work"]
    assert revision == "HEAD"
    assert base.parent == work.parent and len(base.name) == len(work.name)


def test_the_working_tree_copy_holds_its_files(tmp_path, monkeypatch):
    # A checkout of its own, so the test holds in a copy that is not one.
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "tools" / "tracked.py").write_text("tracked\n")
    (repo / ".gitignore").write_text("ignored.txt\n")

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             "-c", "commit.gpgsign=false", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    git("add", "tools/tracked.py", ".gitignore")
    git("commit", "-q", "-m", "one file")
    (repo / "untracked.py").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")
    monkeypatch.setattr(host_pairs, "REPO", repo)

    work = host_pairs.export_working_tree(tmp_path / "work")
    for name in ("tools/tracked.py", "untracked.py", ".gitignore"):
        assert (work / name).read_bytes() == (repo / name).read_bytes()
    assert not (work / "ignored.txt").exists()
    assert not (work / ".git").exists()


def test_unknown_workload_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        host_pairs.main(["--base", "HEAD", "--workload", "nope"], lambda *a: {})
    assert exit_info.value.code == 2


def test_run_benchmark_reads_the_contract_line(tmp_path, monkeypatch):
    class Done:
        returncode = 0
        stdout = "== value_delta ==\nwrote x\n" + json.dumps(contract(1.0, 2.0)) + "\n"
        stderr = ""

    seen = {}

    def fake_run(command, **kwargs):
        seen["command"], seen["cwd"] = command, kwargs["cwd"]
        assert "PYTHONPATH" not in kwargs["env"]
        return Done()

    monkeypatch.setattr(host_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    assert host_pairs.run_benchmark(tmp_path, "value_delta", 7) == contract(1.0, 2.0)
    assert seen["cwd"] == tmp_path
    assert seen["command"][1:] == [
        str(host_pairs.RUN), "--workload", "value_delta", "--seed", "7",
        "--trace", "0", "--reps", "1", "--out-dir", seen["command"][-1],
    ]


def test_repeated_workloads_run_in_order_with_a_line_each(capsys, monkeypatch):
    monkeypatch.setattr(host_pairs, "export_revision", lambda revision, into: into)
    monkeypatch.setattr(host_pairs, "export_working_tree", lambda into: into)
    calls = []

    def runner(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        faster = checkout.name == "work" and workload == "opdelta_scan"
        return contract(8.0 if faster else 10.0, 100.0)

    status = host_pairs.main(
        ["--base", "HEAD", "--workload", "opdelta_scan", "--workload", "olap_mostly",
         "--seed", "1", "--seed", "7", "--pairs", "2"],
        runner,
    )
    assert status == 0
    # Workload by workload, seed by seed, each in alternated pairs.
    assert [(w, s) for _side, w, s in calls[::4]] == [
        ("opdelta_scan", 1), ("opdelta_scan", 7), ("olap_mostly", 1), ("olap_mostly", 7),
    ]
    assert len(calls) == 16
    out = capsys.readouterr().out.strip().splitlines()
    summary = out[out.index("== summary ==") + 1:]
    assert [line.split(" vs ")[0] for line in summary] == [
        "host_pairs opdelta_scan seed 1", "host_pairs opdelta_scan seed 7",
        "host_pairs olap_mostly seed 1", "host_pairs olap_mostly seed 7",
    ]
    assert "freshness_p50_ms 10 -> 8 ms (-20.0%, 2/2)" in summary[0]
    assert "freshness_p50_ms 10 -> 10 ms (+0.0%, 0/2)" in summary[3]


def test_an_unknown_workload_among_several_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        host_pairs.main(
            ["--base", "HEAD", "--workload", "opdelta_scan", "--workload", "nope"],
            lambda *a: {},
        )
    assert exit_info.value.code == 2
