#!/usr/bin/env python3
"""Count code lines: the size every CHANGES.md entry and the ROADMAP cite.

A code line is a source line that holds at least one token other than a
comment or a line break, and that is not part of a docstring (the leading
string literal of a module, class or function body).  A token spanning
several lines, such as a multi-line string, counts each line it covers.
Blank lines and comment-only lines never count.

Usage::

    python tools/code_lines.py            # src/repro, by package
    python tools/code_lines.py PATH ...   # other files or trees

Prints one line per package (the first directory below each tree; its
top-level modules under ``(top)``), then the total.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

#: Tokens that never make a line a code line.
_NOT_CODE = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, (first.end_lineno or first.lineno) + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def by_package(root: Path) -> Counter[str]:
    """Code lines per first directory below ``root`` (``(top)``: its modules)."""
    counts: Counter[str] = Counter()
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    for path in files:
        parts = path.relative_to(root).parts if path != root else (path.name,)
        package = parts[0] if len(parts) > 1 else "(top)"
        counts[package] += code_lines(path.read_text(encoding="utf-8"))
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to count (default: src/repro)",
    )
    targets = parser.parse_args(argv).paths or [Path("src/repro")]
    missing = [t for t in targets if not t.exists()]
    for target in missing:
        print(f"code_lines: no such path: {target}", file=sys.stderr)
    if missing:
        return 2
    total = 0
    for target in targets:
        counts = by_package(target)
        for package, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{count:>8,}  {target}: {package}")
        total += sum(counts.values())
    print(f"{total:>8,}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
