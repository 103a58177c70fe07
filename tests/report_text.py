"""What a report pass prints, split into its verdict lines and its grid."""

from __future__ import annotations

from repro.bench.cli import REPORT_PASSES
from repro.bench.report import render_report


def pass_text(flag: str, report) -> tuple[list[str], list[tuple[str, ...]]]:
    """``repro-bench <flag>``'s text for ``report``, split in two.

    Returns the lines above the findings grid (the title and the
    ``name: value`` verdict lines) and the grid's rows as stripped cells,
    header first.  The grid is cut at its dash line, so a cell may hold
    spaces (``window 3``, ``qty_by_supplier [UPDATE]``).
    """
    title = next(p.title for p in REPORT_PASSES if p.flag == flag)
    text = render_report(title, report.to_dict(), report.located_findings())
    lines = text.splitlines()
    dashes = next(i for i, line in enumerate(lines) if line.startswith("--"))
    spans, start = [], 0
    for dash in lines[dashes].split("  "):
        spans.append((start, start + len(dash)))
        start += len(dash) + 2
    grid = [
        tuple(line[a:b].strip() for a, b in spans)
        for line in (lines[dashes - 1], *lines[dashes + 1:])
    ]
    return lines[: dashes - 1], grid
