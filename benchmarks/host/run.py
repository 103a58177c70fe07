"""Host-time pipeline benchmark: the one command.

    python3 benchmarks/host/run.py --seed S --out FILE

drives the real pipeline — source DML, capture/extraction, transport,
analysis/compaction, warehouse apply, view maintenance, OLAP queries — on
the four workloads of ``scenarios.py``, prints every metric by name and
unit, and verifies the outputs (exit code 1 on any failed op).

Run protocol: each (workload, rep) runs in a fresh subprocess, so the
library's process-wide caches start empty and every rep pays identical
work; an end-to-end value is the median of the untraced reps; one extra
traced rep per workload yields the per-layer metrics, the self-time table
and a Chrome trace.  ``--workload NAME --trace 0|1`` runs one workload and
one kind of rep and prints the result as one JSON object on the last line
(the contract of ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Document layout of ``--out``; bump on any structural change.
SCHEMA_VERSION = 1
DEFAULT_REPS = 3


def load_contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ child side
def child_main(args: argparse.Namespace) -> int:
    """One rep in this (fresh) process; the record goes to stdout as JSON."""
    # Set-up is scaled to reference speed like everything else, so the
    # box's speed is read before and after the imports too.
    from calibration import calibrate

    readings = [calibrate()]
    sys.path.insert(0, str(ROOT / "src"))
    from driver import run_rep

    readings.append(calibrate())
    record = run_rep(
        args.workload,
        args.seed,
        args.scale,
        bool(args.trace),
        args.spawned_ns,
        Path(args.out_dir),
        readings,
    )
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------- parent side
def spawn_rep(
    workload: str, seed: int, scale: float, traced: bool, out_dir: Path
) -> dict[str, Any]:
    """Run one rep in a fresh interpreter and parse its record."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--trace", str(int(traced)), "--out-dir", str(out_dir),
        "--spawned-ns", str(time.time_ns()),
    ]
    # A fixed hash seed: set iteration order inside the library must not
    # differ between reps, or their virtual fingerprints could.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, capture_output=True, text=True, env=env, check=False
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"rep of {workload!r} exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(
    reps: list[dict[str, Any]], contract: dict[str, Any]
) -> dict[str, Any]:
    """Median, minimum and ``(max-min)/median`` spread of each metric."""
    summary = {}
    for metric in contract["end_to_end"]:
        values = [rep["end_to_end"][metric["name"]] for rep in reps]
        median = statistics.median(values)
        summary[metric["name"]] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "median": median,
            "min": min(values),
            "spread": (max(values) - min(values)) / median if median else 0.0,
            "reps": values,
        }
        measured = [rep["as_measured"].get(metric["name"]) for rep in reps]
        if None not in measured:
            # Before scaling to reference speed (see calibration.py).
            summary[metric["name"]]["as_measured"] = statistics.median(measured)
    return summary


def run_workload(
    name: str,
    seed: int,
    scale: float,
    reps: int,
    traced: bool,
    out_dir: Path,
    contract: dict[str, Any],
) -> dict[str, Any]:
    """All reps of one workload, folded into its result record."""
    untraced = [
        spawn_rep(name, seed, scale, False, out_dir) for _ in range(reps)
    ]
    records = list(untraced)
    result: dict[str, Any] = {
        "input_sha256": untraced[0]["input_sha256"],
        "virtual_fingerprint": untraced[0]["virtual_fingerprint"],
        "windows": untraced[0]["windows"],
        "samples": untraced[0]["samples"],
        "noisy_reps": sum(rep["noisy"] for rep in untraced),
        "speed_index": statistics.median(rep["speed_index"] for rep in untraced),
        "end_to_end": summarise(untraced, contract),
    }
    if traced:
        rep = spawn_rep(name, seed, scale, True, out_dir)
        records.append(rep)
        speed = result["end_to_end"]["delta_rows_per_s"]["median"]
        traced_speed = rep["end_to_end"]["delta_rows_per_s"]
        rep["per_layer"]["harness.trace_overhead_pct"] = (
            100.0 * (speed / traced_speed - 1.0) if traced_speed else 0.0
        )
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        if set(units) != set(rep["per_layer"]):
            raise SystemExit(
                "per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(units) ^ set(rep['per_layer']))}"
            )
        result["per_layer"] = {
            metric: {"value": rep["per_layer"][metric], "unit": units[metric]}
            for metric in units
        }
        result["self_time"] = rep["self_time"]
        result["span_coverage"] = rep["span_coverage"]
    # Identical inputs and identical modelled cost on every rep, traced or
    # not: anything else means the run is not the experiment it claims.
    drifted = [
        f"{key} differs between reps"
        for key in ("input_sha256", "virtual_fingerprint")
        if len({rep[key] for rep in records}) != 1
    ]
    result["ops_attempted"] = sum(rep["ops_attempted"] for rep in records)
    result["ops_failed"] = sum(rep["ops_failed"] for rep in records) + len(
        drifted
    )
    result["misses"] = (
        drifted + [miss for rep in records for miss in rep["misses"]]
    )[:10]
    return result


def render(name: str, result: dict[str, Any]) -> str:
    lines = [
        f"== {name}: {result['windows']} timed windows, "
        f"{result['ops_failed']}/{result['ops_attempted']} ops failed, "
        f"samples {result['samples']}, box at {result['speed_index']:.2f}x "
        "reference time =="
    ]
    for metric, row in result.get("end_to_end", {}).items():
        lines.append(
            f"  {metric:<22}{row['median']:>14.4f} {row['unit']:<7}"
            f"min {row['min']:.4f}  spread {100 * row['spread']:.1f}%  "
            f"(bound {100 * row['bound']:.0f}%)"
        )
    for metric, row in result.get("per_layer", {}).items():
        lines.append(f"  {metric:<52}{row['value']:>16.4f} {row['unit']}")
    lines.extend(f"  MISS {miss}" for miss in result["misses"])
    return "\n".join(lines)


def contract_line(result: dict[str, Any], trace: int) -> str:
    """The last line of stdout ``BENCHMARK.json`` prescribes."""
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            name: {"value": row["median"], "unit": row["unit"]}
            for name, row in result["end_to_end"].items()
        }
    return json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="result document (default: in --out-dir)")
    parser.add_argument(
        "--out-dir", default=str(HERE / "out"),
        help="result, trace and self-time output (git-ignored by default)",
    )
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument(
        "--seconds", type=float,
        help="timed seconds per run on the reference box (default: "
        "run_seconds of BENCHMARK.json); scales the number of timed windows",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="1/10 size, 1 rep: for CI, never for metrics",
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: untraced reps only; 1: the traced pass only; with "
        "--workload the result is also printed as one JSON line",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-ns", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    contract = load_contract()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no library to benchmark under {ROOT / 'src'}")
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; known: {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds else contract["run_seconds"]
    scale = seconds / contract["run_seconds"]
    reps = args.reps
    if args.smoke:
        scale, reps = 0.1, 1
    # The traced pass needs one untraced rep beside it to state its overhead.
    if args.trace == 1:
        reps = 1
    out_dir = Path(args.out_dir)
    document: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "seconds": seconds,
        "reps": reps,
        "smoke": args.smoke,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    for name in names:
        result = run_workload(
            name, args.seed, scale, reps, args.trace != 0, out_dir, contract
        )
        if args.trace == 1:
            del result["end_to_end"]
        document["workloads"][name] = result
        print(render(name, result), flush=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else out_dir / "host_bench.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    failed = sum(r["ops_failed"] for r in document["workloads"].values())
    if args.workload is not None and args.trace is not None:
        print(contract_line(document["workloads"][args.workload], args.trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
