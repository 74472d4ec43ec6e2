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
distinguisher run goes through the one driver.  ``os.fork`` appears once,
where a threshold sweep forks the helpers that run its grid points, so no
other code path has to be safe to run in a forked copy of the process.

Inside ``commgraph/embeddings/`` only the members named below read the
promise pair (``.pp``, or an attribute of a ``pp`` argument): the input
checks, JSON output, ``direct_joint``, ``materialize``, the labels, the
analytic counts and the claims.  None of them is on the query path, where
a construction reads the inputs only through ``joint``.  Degree-only's
``__init__`` is the one exception: it finds the shared block (``_hot``)
for its rows and its Pair rule, which it does not answer.
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


def _forks(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name.startswith("fork") for a in node.names)
    return isinstance(node, ast.Attribute) and node.attr.startswith("fork")


def test_only_the_sweep_forks():
    assert _found_in_src(_forks) == [("experiments.py", "_forked_outcomes")]


def _reads_the_inputs(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and (
        node.attr == "pp" or isinstance(node.value, ast.Name) and node.value.id == "pp"
    )


def test_only_named_construction_members_read_the_inputs():
    readers = {
        f"{rel.removeprefix('embeddings/')}:{scope}"
        for rel, scope in _found_in_src(_reads_the_inputs)
        if rel.startswith("embeddings/")
    }
    assert readers == {
        "__init__.py:instance_to_json",
        "base.py:Embedding.__init__",
        "base.py:Embedding.__repr__",
        "base.py:Embedding.direct_joint",
        "base.py:Embedding.gap_label",
        "base.py:Embedding.materialize",
        "clique_hiding.py:CliqueHidingEmbedding.claims",
        "clique_hiding.py:CliqueHidingEmbedding.edge_count",
        "connectivity.py:ConnectivityEmbedding.claims",
        "degree_only.py:DegreeOnlyEmbedding.__init__",  # _hot: its Pair is unsupported
        "degree_only.py:DegreeOnlyEmbedding.claims",
        "moments_block.py:MomentsBlockEmbedding.claims",
        "moments_block.py:MomentsBlockEmbedding.edge_count",
        "moments_block.py:MomentsBlockEmbedding.expected_moment",
        "moments_hiding.py:MomentsHidingEmbedding.claims",
        "moments_hiding.py:MomentsHidingEmbedding.edge_count",
        "moments_hiding.py:MomentsHidingEmbedding.expected_moment",
        "rclique.py:RCliqueEmbedding.claims",
        "rclique.py:RCliqueEmbedding.expected_clique_count",
    }
