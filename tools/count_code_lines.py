"""Count the code lines of the Python files under the given paths.

A code line is any line that is not blank, does not start with ``#``
(after indentation) and is not part of a module, class or function
docstring; docstrings are found with ``ast``, so a string that is not a
docstring still counts.  Prints the total.

    python tools/count_code_lines.py src
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in skip
    )


def python_files(paths: list[str]) -> list[Path]:
    found = []
    for name in paths:
        path = Path(name)
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/count_code_lines.py PATH...", file=sys.stderr)
        return 2
    print(sum(count_code_lines(path.read_text()) for path in python_files(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
