"""``verify --edges`` reads each instance once.

The instance is materialized once; an edge file whose text is that
materialization's canonical dump is not parsed, and any other file is
parsed and compared as before.  The reports must not tell the two paths
apart.  Also checked here: the name-table edge-list writer against the
per-token ``str`` writer, and moments-hiding's bulk rows against the
position-by-position rule on every base family.
"""

import json
import random

import pytest

from commgraph.bits import BitVec
from commgraph.embeddings import MomentsHidingEmbedding, MomentsHidingParams
from commgraph.embeddings.base import Embedding, MaterializationCapExceeded
from commgraph.families import MatchingGraph, lex_graph, path_graph
from commgraph.graph import ExplicitGraph, dump_edge_list, load_edge_list
from commgraph.promises import PromisePair, UniqueIntersection
from commgraph.verify import verify_instance

from helpers import (
    SMALL_KIND_FLAGS,
    dump_by_str,
    materialize_by_position,
    random_graph,
    random_instance,
)

KINDS = list(SMALL_KIND_FLAGS)


def _reports(reports) -> list[dict]:
    return [r.to_json() for r in reports]


def _variants(text: str) -> dict[str, str]:
    """Texts that parse to the same graph as ``text`` but differ in bytes."""
    lines = text.splitlines()
    spaced = [lines[0]] + [line.replace(": ", ":  ") + "  " for line in lines[1:]]
    zeros = [f"n 0{lines[0][2:]}"] + [
        head + ":" + "".join(f" 0{w}" for w in rest.split())
        for head, _, rest in (line.partition(":") for line in lines[1:])
    ]
    return {
        "extra spaces": "\n".join(spaced) + "\n",
        "leading zeros": "\n".join(zeros) + "\n",
        "crlf": text.replace("\n", "\r\n"),
        "no final newline": text[:-1],
    }


@pytest.mark.parametrize("kind", KINDS)
def test_reports_do_not_depend_on_the_bytes_of_an_equal_file(kind):
    rng = random.Random(sum(map(ord, kind)) * 5)
    for _ in range(4):
        inst = random_instance(kind, rng.getrandbits(64))
        text = dump_edge_list(inst.materialize())
        expected = _reports(verify_instance(inst, load_edge_list(text)))
        assert expected[0]["quantity"] == "edge_list_match" and expected[0]["pass"]
        assert _reports(verify_instance(inst, text)) == expected
        for name, variant in _variants(text).items():
            assert variant != text
            assert load_edge_list(variant) == load_edge_list(text), name
            assert _reports(verify_instance(inst, variant)) == expected, name


@pytest.mark.parametrize("kind", KINDS)
def test_reports_on_a_mutated_file_are_those_of_its_parsed_graph(kind):
    rng = random.Random(sum(map(ord, kind)) * 9)
    for _ in range(4):
        inst = random_instance(kind, rng.getrandbits(64))
        g = inst.materialize()
        adj = [list(row) for row in g.adj]
        if g.m:  # drop one edge
            u, v = g.edges()[0]
            adj[u].remove(v)
            adj[v].remove(u)
        else:  # add a self-loop
            adj[0].append(0)
        text = dump_edge_list(ExplicitGraph(g.n, adj))
        reports = _reports(verify_instance(inst, text))
        assert reports == _reports(verify_instance(inst, load_edge_list(text)))
        assert reports[0]["quantity"] == "edge_list_match" and not reports[0]["pass"]


def test_name_table_writer_matches_str_formatting():
    rng = random.Random(3)
    graphs = [ExplicitGraph(0, []), ExplicitGraph(1, [[]]), lex_graph(12, 30), path_graph(101)]
    graphs += [random_graph(rng, n, 0.2) for n in (2, 11, 150)]
    # ids outside [0, n), including negative ones, as a broken file has them
    graphs += [
        ExplicitGraph(3, [[-1, 2], [5, -7, 10**30], []]),
        ExplicitGraph(2, [[-2], [-1, 1, 0]]),
    ]
    for g in graphs:
        assert dump_edge_list(g) == dump_by_str(g), g
        assert load_edge_list(dump_edge_list(g)) == g


def test_matching_file_is_materialized_once_and_never_parsed(tmp_path, monkeypatch):
    import commgraph.graph
    import commgraph.verify
    from commgraph.cli import main

    out = tmp_path / "mh.json"
    assert main(["gen", "--kind", "moments-hiding", *SMALL_KIND_FLAGS["moments-hiding"],
                 "--seed", "1", "--side", "intersecting", "--out", str(out)]) == 0
    calls = {"materialize": 0, "load": 0}
    materialize, load = Embedding.materialize, commgraph.graph.load_edge_list

    def counted_materialize(self):
        calls["materialize"] += 1
        return materialize(self)

    def counted_load(text):
        calls["load"] += 1
        return load(text)

    monkeypatch.setattr(Embedding, "materialize", counted_materialize)
    monkeypatch.setattr(commgraph.verify, "load_edge_list", counted_load)
    monkeypatch.setattr(commgraph.graph, "load_edge_list", counted_load)
    report = tmp_path / "r.jsonl"
    argv = ["verify", "--instance", str(out), "--edges", str(out.with_suffix(".edges")),
            "--out", str(report)]
    assert main(argv) == 0
    assert calls == {"materialize": 1, "load": 0}
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert rows[0]["quantity"] == "edge_list_match" and rows[0]["pass"]

    # a file in other bytes is parsed once, still with one materialization
    edges = out.with_suffix(".edges")
    edges.write_text(edges.read_text().replace(": ", ":  "))
    calls.update(materialize=0, load=0)
    assert main(argv) == 0
    assert calls == {"materialize": 1, "load": 1}
    assert [json.loads(line) for line in report.read_text().splitlines()] == rows


def test_malformed_file_over_the_cap_is_an_error_not_a_refusal(tmp_path, capsys, monkeypatch):
    from commgraph.cli import main

    out, edges = tmp_path / "t.json", tmp_path / "t.edges"
    assert main(["gen", "--kind", "triangle", "--l", "3", "--k", "1", "--seed", "5",
                 "--out", str(out)]) == 0
    monkeypatch.setenv("COMMGRAPH_MAX_VERTICES", "2")
    capsys.readouterr()
    assert main(["verify", "--instance", str(out), "--edges", str(edges)]) == 2
    assert capsys.readouterr().err.startswith("refused: ")
    edges.write_text("n 3\n0:\n")
    assert main(["verify", "--instance", str(out), "--edges", str(edges)]) == 2
    assert capsys.readouterr().err == "error: expected 3 vertex lines, found 1\n"
    # a well-formed file that is not the instance's: still a refusal
    edges.write_text(dump_edge_list(ExplicitGraph(1, [[]])))
    assert main(["verify", "--instance", str(out), "--edges", str(edges)]) == 2
    assert capsys.readouterr().err.startswith("refused: ")
    with pytest.raises(MaterializationCapExceeded):
        verify_instance(random_instance("triangle", 1), "n 1\n0:\n")


def _moments_hiding(base, base_family, blocks: int, hot) -> MomentsHidingEmbedding:
    """Moments-hiding over ``base`` with block ``hot`` active (None: none)."""
    params = MomentsHidingParams(s=2, alpha=3, c=2, m_tilde=base.moment(2), blocks=blocks,
                                 base=base, base_family=base_family)
    bits = BitVec.from_bits(1 if j == hot else 0 for j in range(blocks))
    return MomentsHidingEmbedding(params, PromisePair(bits, bits, UniqueIntersection()))


@pytest.mark.parametrize("base, base_family", [
    (MatchingGraph(6), {"kind": "matching", "pairs": 6}),
    (path_graph(9), {"kind": "path", "n": 9}),
    (lex_graph(7, 12), {"kind": "lex", "n": 7, "m": 12}),
    (ExplicitGraph(5, [[3, 1], [0], [4], [0, 4], [2, 3]]), None),
], ids=["matching", "path", "lex", "explicit"])
@pytest.mark.parametrize("hot", [None, 0, 3], ids=["disjoint", "hot-first", "hot-last"])
def test_moments_hiding_bulk_rows_match_position_by_position(base, base_family, hot):
    inst = _moments_hiding(base, base_family, blocks=4, hot=hot)
    assert inst.pp.intersecting == (hot is not None)
    g, ref = inst.materialize(), materialize_by_position(inst)
    assert g.n == ref.n
    assert g.adj == ref.adj
    assert g.m == inst.edge_count()
