"""Source structure: a kind is known only to its construction, and every
query goes through the transcript.

Each construction declares its flags, lazy rules, analytic counts, gap
claims and witnesses in its own module under ``commgraph/embeddings/``.
No other module may name a kind in a string constant, so none can branch
on one.  ``presets.py`` is the exception: its ``*_family`` aliases bind a
kind name to ``family`` without branching on it.

``ProtocolSession.simulate`` is the one place in the package that reads
an ``answer`` attribute, so no query is answered off the transcript, and
``protocols.run_reduction`` is the one place that advances a generator
(``next`` on anything but a generator expression, or ``.send``), so every
distinguisher run goes through the one driver.
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


def _scopes(tree: ast.AST, match, scope: str = ""):
    """The enclosing class/function path of every node ``match`` accepts."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scopes(node, match, f"{scope}{node.name}.")
            continue
        if match(node):
            yield scope.rstrip(".")
        yield from _scopes(node, match, scope)


def _found_in_src(match) -> list[tuple[str, str]]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=rel)
        found += [(rel, scope) for scope in _scopes(tree, match)]
    return found


def _reads_answer(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "answer"


def _advances_a_generator(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "send"
    return (
        isinstance(func, ast.Name) and func.id == "next"
        and not (node.args and isinstance(node.args[0], ast.GeneratorExp))
    )


def test_only_the_protocol_session_answers_queries():
    assert _found_in_src(_reads_answer) == [("protocols.py", "ProtocolSession.simulate")]


def test_only_run_reduction_drives_a_distinguisher():
    assert _found_in_src(_advances_a_generator) == [("protocols.py", "run_reduction")] * 2
