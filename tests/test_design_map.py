"""DESIGN.md's module map names only modules that exist.

The map (§3) is a fenced block that draws ``src/repro/`` as an indented
tree: two spaces per level, a directory line ending in ``/``.  Every
``.py`` name on a line is a module of that line's directory — a directory
line's own description lists its modules — and a name with a ``/`` in it
is a path below ``src/repro``.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"


def mapped_modules(design: str) -> list[Path]:
    block = design.split("## 3. System inventory", 1)[1].split("```")[1]
    lines = block.splitlines()
    assert lines[1].strip() == "src/repro/", lines[:2]
    stack: list[str] = []
    modules = []
    for line in lines[2:]:
        if not line.strip():
            continue
        depth = (len(line) - len(line.lstrip()) - 2) // 2
        stack = stack[:depth]
        first = line.split()[0]
        if first.endswith("/"):
            stack.append(first.rstrip("/"))
        for name in re.findall(r"[\w/]+\.py\b", line):
            base = PACKAGE if "/" in name else PACKAGE.joinpath(*stack)
            modules.append(base / name)
    return modules


def test_every_mapped_module_exists():
    modules = mapped_modules((REPO / "DESIGN.md").read_text(encoding="utf-8"))
    assert len(modules) > 100
    missing = [str(m.relative_to(PACKAGE)) for m in modules if not m.is_file()]
    assert missing == []


def test_a_deleted_module_is_caught():
    design = (
        "## 3. System inventory\n\n```\nsrc/repro/\n"
        "  workloads/\n    records.py   generator\n    queries.py   gone\n"
        "  analysis/\n    certify/     schedule.py lanes; gone.py\n```\n"
    )
    names = [m.relative_to(PACKAGE).as_posix() for m in mapped_modules(design)]
    assert names == [
        "workloads/records.py", "workloads/queries.py",
        "analysis/certify/schedule.py", "analysis/certify/gone.py",
    ]
