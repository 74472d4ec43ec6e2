"""Source structure: a kind is known only to its construction.

Each construction declares its flags, lazy rules, analytic counts, gap
claims and witnesses in its own module under ``commgraph/embeddings/``.
No other module may name a kind in a string constant, so none can branch
on one.  ``presets.py`` is the exception: its ``*_family`` aliases bind a
kind name to ``family`` without branching on it.
"""

from __future__ import annotations

import ast
from pathlib import Path

from commgraph.embeddings import ALL_KINDS

SRC = Path(__file__).resolve().parent.parent / "src" / "commgraph"
ALLOWED = ("embeddings/", "presets.py")


def test_no_kind_name_outside_the_constructions():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(ALLOWED):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
            if isinstance(node, ast.Constant) and node.value in ALL_KINDS:
                found.append(f"{rel}:{node.lineno} {node.value!r}")
    assert found == []
