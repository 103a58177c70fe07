"""The code-line count (tools/code_lines.py) that CHANGES.md and the ROADMAP cite."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import code_lines  # noqa: E402

SAMPLE = REPO / "tests" / "fixtures" / "code_lines_sample.py"


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path, capsys):
    # The fixture numbers each line that counts.
    assert code_lines.code_lines(SAMPLE.read_text(encoding="utf-8")) == 12
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "top.py").write_text(SAMPLE.read_text(encoding="utf-8"))
    (package / "sub" / "mod.py").write_text("x = 1\n\n# y = 2\n")
    assert code_lines.by_package(package) == {"(top)": 12, "sub": 1}
    assert code_lines.main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["13", "total"]
