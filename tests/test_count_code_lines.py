"""``tools/count_code_lines.py``: blank lines, ``#`` lines and docstrings
are not code; every other line, other strings included, is."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

# Nine code lines: import, class, x, def, return, async def, s (two lines), return.
SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os


class A:
    """Class docstring."""

    x = "a string, not a docstring"

    def f(self):
        """Function
        docstring."""
        # an indented comment
        return 1  # a trailing comment


async def g():
    """One line."""
    s = """a string
    on two lines"""
    return s
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    assert count_code_lines.count_code_lines(SOURCE) == 9


def test_a_directory_counts_every_python_file_under_it(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text(SOURCE)
    (tmp_path / "notes.txt").write_text("not python\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "18\n"
