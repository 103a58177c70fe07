"""DESIGN.md's module map names only modules and names that exist.

The map (§3) is a fenced block that draws ``src/repro/`` as an indented
tree: two spaces per level, a directory line ending in ``/``.  Every
``.py`` name on a line is a module of that line's directory — a directory
line's own description lists its modules — and a name with a ``/`` in it
is a path below ``src/repro``.  Every CamelCase name on it (``BTreeIndex``,
``RowId``) is a class, function or assignment defined under ``src/repro``,
bar the names of other projects in :data:`FOREIGN`.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: CamelCase names in the map that belong to other projects.
FOREIGN = {"SimPy"}


def _map(design: str) -> str:
    return design.split("## 3. System inventory", 1)[1].split("```")[1]


def mapped_names(design: str) -> list[str]:
    """The CamelCase names of the map, in the order written."""
    return re.findall(r"\b(?:[A-Z]+[a-z0-9]+){2,}\b", _map(design))


def defined_names() -> set[str]:
    """Every class, function and assigned name under ``src/repro``."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def mapped_modules(design: str) -> list[Path]:
    lines = _map(design).splitlines()
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


def test_every_mapped_name_is_defined():
    names = set(mapped_names((REPO / "DESIGN.md").read_text(encoding="utf-8")))
    assert len(names) > 50
    assert sorted(names - FOREIGN - defined_names()) == []


def test_a_deleted_name_is_caught():
    design = (
        "## 3. System inventory\n\n```\nsrc/repro/\n  engine/\n"
        "    index.py   HashIndex + BTreeIndex (SimPy-like; RACE00x, KiB, APIs)\n"
        "```\n"
    )
    names = mapped_names(design)
    assert names == ["HashIndex", "BTreeIndex", "SimPy"]
    assert set(names) - FOREIGN - defined_names() == {"HashIndex"}
