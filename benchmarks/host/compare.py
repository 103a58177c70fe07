"""Compare two host-benchmark result documents.

    python3 benchmarks/host/compare.py BASE.json NEW.json

One row per (end-to-end metric x workload): both medians, both rep spreads,
the metric's bound and a verdict.

* ``regressed``  — the median worsened by more than the bound;
* ``improved``   — the median is better by more than the bound;
* ``unchanged``  — neither;
* ``unresolved`` — a rep spread exceeds the bound, so the pairing cannot
  tell a change of the bound's size from noise.  It still resolves when
  every rep of one side beats every rep of the other.

Exits non-zero on any ``regressed``, on a changed ``input_sha256`` (the
two runs did not measure the same inputs) or on a larger share of failed
operations.
"""

from __future__ import annotations

import json
import sys
from typing import Any


def verdict(base: dict[str, Any], new: dict[str, Any]) -> str:
    """Classify one (metric x workload) pairing."""
    lower = base["better"] == "lower"
    bound = base["bound"]
    if not base["median"]:
        return "unresolved"
    # Positive = worse, as a share of the base median.
    worsening = (new["median"] - base["median"]) / base["median"]
    if not lower:
        worsening = -worsening
    spread = max(base["spread"], new["spread"])
    if spread > bound:
        base_reps, new_reps = base["reps"], new["reps"]
        if lower:
            new_wins = max(new_reps) < min(base_reps)
            base_wins = max(base_reps) < min(new_reps)
        else:
            new_wins = min(new_reps) > max(base_reps)
            base_wins = min(base_reps) > max(new_reps)
        if new_wins:
            return "improved"
        if base_wins and worsening > bound:
            return "regressed"
        return "unresolved"
    if worsening > bound:
        return "regressed"
    if -worsening > bound:
        return "improved"
    return "unchanged"


def failure_share(result: dict[str, Any]) -> float:
    return result["ops_failed"] / max(1, result["ops_attempted"])


def compare(base: dict[str, Any], new: dict[str, Any]) -> tuple[list[str], int]:
    """Rendered rows and the exit code."""
    lines = [
        f"{'workload':<16}{'metric':<20}{'base':>12}{'new':>12}{'change':>9}"
        f"{'spread b/n':>14}{'bound':>7}  verdict"
    ]
    problems = 0
    for name, base_result in base["workloads"].items():
        new_result = new["workloads"].get(name)
        if new_result is None:
            lines.append(f"{name:<16}missing from the new document")
            problems += 1
            continue
        if base_result["input_sha256"] != new_result["input_sha256"]:
            lines.append(f"{name:<16}input_sha256 changed: not the same inputs")
            problems += 1
        if failure_share(new_result) > failure_share(base_result):
            lines.append(
                f"{name:<16}failed ops rose: {base_result['ops_failed']}/"
                f"{base_result['ops_attempted']} -> {new_result['ops_failed']}/"
                f"{new_result['ops_attempted']}"
            )
            problems += 1
        for metric, base_row in base_result.get("end_to_end", {}).items():
            new_row = new_result["end_to_end"][metric]
            outcome = verdict(base_row, new_row)
            problems += outcome == "regressed"
            change = (
                100 * (new_row["median"] - base_row["median"]) / base_row["median"]
                if base_row["median"] else 0.0
            )
            lines.append(
                f"{name:<16}{metric:<20}{base_row['median']:>12.4f}"
                f"{new_row['median']:>12.4f}{change:>+8.1f}%"
                f"{100 * base_row['spread']:>7.1f}/{100 * new_row['spread']:<5.1f}%"
                f"{100 * base_row['bound']:>6.0f}%  {outcome}"
            )
    return lines, 1 if problems else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, code = compare(*documents)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
