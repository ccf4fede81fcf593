"""The line counter of scripts/src_lines.py on a small fixture module: every
line counts in the total; docstrings, comments and blank lines are not
code."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"
)
src_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(src_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
class A:
    """Class docstring."""

    x = """a string that is not a docstring,
    over two lines"""

    def f(self):
        """Function docstring,

        with a blank line inside."""
        return (1 +
                2)
'''


def test_counts_a_fixture_module():
    # code lines: import, class, x (two lines), def, return (two lines)
    assert src_lines.count(FIXTURE) == (19, 7)


def test_main_prints_each_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["19", "7"], ["3", "1"], ["22", "8"]]
    assert lines[-1].endswith("total")
