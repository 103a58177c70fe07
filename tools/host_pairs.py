#!/usr/bin/env python3
"""Alternated pairs of host-benchmark runs: a base revision against the
working tree.

A host-time claim on a shared machine cannot rest on one run of each side:
the box drifts by more than the change.  This runs N *pairs* of single-rep
runs of one workload,

    python3 benchmarks/host/run.py --workload W --seed S --trace 0 --reps 1

one in a copy of the base revision and one in a copy of the working tree, the side
that goes first alternating from pair to pair, and reads each run's last
stdout line (the ``BENCHMARK.json`` contract JSON).  For every end-to-end
metric it prints q1 / median / q3 per side and how many pairs the working
tree won (by the metric's ``better`` direction), then one summary line per
(workload, seed) to quote in CHANGES.md.  ``--workload`` and ``--seed``
repeat, so one invocation covers a claim and the no-regression sweep over
the other workloads.  Usage::

    python3 tools/host_pairs.py --base HEAD~1 --workload value_delta \\
        --seed 1 --seed 7 --pairs 10
    python3 tools/host_pairs.py --base HEAD~1 --workload opdelta_batched \\
        --workload value_delta --workload olap_mostly --pairs 4

Both sides run from fresh copies of the same shape in one temporary
directory, removed afterwards: the base revision exported with ``git
archive`` (nothing is registered in the repository), the working tree's
files (tracked or not ignored) copied beside it.  Where a checkout lives
moves host time by itself: two copies of one revision, one run in place and
one exported, differed by 6–8% in ``olap_query_p50_ms`` over 10 pairs of
``olap_mostly``, and by ~1% once both were exported.  The benchmark itself
(``benchmarks/host/``) is only called, never imported.

Exit status: 0 when every run was correct and ``virtual_ms`` was the same on
both sides of every pair; 1 otherwise (the table is still printed); 2 usage.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Callable

REPO = Path(__file__).resolve().parent.parent
RUN = Path("benchmarks") / "host" / "run.py"
#: The metric whose equality makes a pair the same experiment.
VIRTUAL = "virtual_ms"

#: ``runner(checkout, workload, seed) -> contract`` — one single-rep run.
Runner = Callable[[Path, str, int], dict[str, Any]]


def run_benchmark(checkout: Path, workload: str, seed: int) -> dict[str, Any]:
    """One untraced single-rep run of ``workload`` in ``checkout``: the
    contract JSON of its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory(prefix="host_pairs_") as out_dir:
        done = subprocess.run(
            [
                sys.executable, str(RUN), "--workload", workload,
                "--seed", str(seed), "--trace", "0", "--reps", "1",
                "--out-dir", out_dir,
            ],
            cwd=checkout, env=env, capture_output=True, text=True,
        )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"{checkout}: run.py exited {done.returncode} without a contract "
            f"line\n{done.stderr[-2000:]}"
        ) from None


def export_revision(revision: str, into: Path) -> Path:
    """Write the tree of ``revision`` into ``into`` (``git archive``)."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=REPO, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def export_working_tree(into: Path) -> Path:
    """Copy the working tree's files — tracked, or untracked and not
    ignored — into ``into``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, capture_output=True, check=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = REPO / name
        if source.is_file():  # a tracked file deleted in the tree is listed
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return into


def run_pairs(
    runner: Runner, base: Path, new: Path, workload: str, seed: int, pairs: int
) -> dict[str, list[dict[str, Any]]]:
    """``pairs`` alternated pairs: the base side first in even pairs, the
    working tree first in odd ones.  Each side's contracts, in pair order."""
    runs: dict[str, list[dict[str, Any]]] = {"base": [], "new": []}
    for index in range(pairs):
        order = ("base", "new") if index % 2 == 0 else ("new", "base")
        for side in order:
            checkout = base if side == "base" else new
            runs[side].append(runner(checkout, workload, seed))
            print(f"  pair {index + 1}/{pairs}: {side} done", file=sys.stderr)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median, q3 (inclusive method; one value is all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(
    runs: dict[str, list[dict[str, Any]]], better: dict[str, str]
) -> dict[str, Any]:
    """Per end-to-end metric: the quartiles of each side, the wins of the
    working tree, and whether every run was correct and every pair had the
    same ``virtual_ms``."""
    base, new = runs["base"], runs["new"]
    metrics: dict[str, Any] = {}
    for name, direction in better.items():
        if not all(name in run["metrics"] for run in base + new):
            continue
        pair_values = [
            (b["metrics"][name]["value"], n["metrics"][name]["value"])
            for b, n in zip(base, new)
        ]
        wins = sum(
            (n < b) if direction == "lower" else (n > b) for b, n in pair_values
        )
        metrics[name] = {
            "unit": base[0]["metrics"][name]["unit"],
            "base": quartiles([b for b, _n in pair_values]),
            "new": quartiles([n for _b, n in pair_values]),
            "wins": wins,
        }
    same_virtual = all(
        b["metrics"][VIRTUAL]["value"] == n["metrics"][VIRTUAL]["value"]
        for b, n in zip(base, new)
    )
    correct = all(run["correct"] for run in base + new)
    return {
        "pairs": len(base), "metrics": metrics,
        "same_virtual": same_virtual, "correct": correct,
    }


def render(summary: dict[str, Any], workload: str, seed: int, label: str) -> str:
    pairs = summary["pairs"]
    lines = [
        f"== {workload} seed {seed}: {pairs} alternated pairs, base {label} ==",
        f"  {'metric':<20}{'base q1/median/q3':>32}{'new q1/median/q3':>32}"
        f"{'change':>9}{'wins':>7}",
    ]
    for name, row in summary["metrics"].items():
        lines.append(
            f"  {name:<20}{_triple(row['base']):>32}{_triple(row['new']):>32}"
            f"{_change(row):>9}{row['wins']:>4}/{pairs}"
        )
    lines.append(
        f"  correct: {summary['correct']}, {VIRTUAL} identical in every pair: "
        f"{summary['same_virtual']}"
    )
    lines.append(summary_line(summary, workload, seed, label))
    return "\n".join(lines)


def summary_line(summary: dict[str, Any], workload: str, seed: int, label: str) -> str:
    """The one line a CHANGES.md entry quotes."""
    pairs = summary["pairs"]
    parts = [
        f"{name} {row['base'][1]:.4g} -> {row['new'][1]:.4g} {row['unit']} "
        f"({_change(row)}, {row['wins']}/{pairs})"
        for name, row in summary["metrics"].items()
        if name != VIRTUAL
    ]
    virtual = "identical" if summary["same_virtual"] else "DIFFERS"
    return (
        f"host_pairs {workload} seed {seed} vs {label}, {pairs} pairs, median "
        f"(change, wins): " + "; ".join(parts) + f"; {VIRTUAL} {virtual}"
    )


def _triple(values: tuple[float, float, float]) -> str:
    return "/".join(f"{value:.4g}" for value in values)


def _change(row: dict[str, Any]) -> str:
    base, new = row["base"][1], row["new"][1]
    return f"{100 * (new - base) / base:+.1f}%" if base else "n/a"


def main(argv: list[str] | None = None, runner: Runner = run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base revision (git rev)")
    parser.add_argument(
        "--workload", required=True, action="append",
        help="workload to measure; repeat for several, run in the order given",
    )
    parser.add_argument(
        "--seed", type=int, action="append",
        help="input seed; repeat for several (default: 1)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    contract = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = {w["name"] for w in contract["workloads"]}
    for workload in args.workload:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}")
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    label = subprocess.run(
        ["git", "rev-parse", "--short", args.base],
        cwd=REPO, capture_output=True, text=True,
    ).stdout.strip() or args.base
    ok = True
    with tempfile.TemporaryDirectory(prefix="host_pairs_") as scratch:
        base = export_revision(args.base, Path(scratch) / "base")
        work = export_working_tree(Path(scratch) / "work")
        lines = []
        for workload in args.workload:
            for seed in args.seed or [1]:
                runs = run_pairs(runner, base, work, workload, seed, args.pairs)
                summary = summarise(runs, better)
                print(render(summary, workload, seed, label), flush=True)
                lines.append(summary_line(summary, workload, seed, label))
                ok = ok and summary["correct"] and summary["same_virtual"]
    if len(lines) > 1:
        print("== summary ==", *lines, sep="\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
