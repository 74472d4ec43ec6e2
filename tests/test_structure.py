"""Source structure: a kind is known only to its construction, and every
query goes through the transcript.

Each construction declares its flags, lazy rules, analytic counts, gap
claims and witnesses in its own module under ``commgraph/embeddings/``.
No other module may name a kind in a string constant, so none can branch
on one.  ``presets.py`` is the exception: its ``*_family`` aliases bind a
kind name to ``family`` without branching on it.

``ProtocolSession.simulate`` is the one place in the package that reads
an ``answer`` attribute, so no query is answered off the transcript.
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


def _answer_reads(tree: ast.AST, scope: str = ""):
    """The enclosing class/function path of every ``.answer`` read."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _answer_reads(node, f"{scope}{node.name}.")
            continue
        if isinstance(node, ast.Attribute) and node.attr == "answer":
            yield scope.rstrip(".")
        yield from _answer_reads(node, scope)


def test_only_the_protocol_session_answers_queries():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=rel)
        found += [(rel, scope) for scope in _answer_reads(tree)]
    assert found == [("protocols.py", "ProtocolSession.simulate")]
