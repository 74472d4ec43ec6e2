import pytest

from commgraph.bits import BitVec
from commgraph.embeddings import ConnectivityEmbedding as build_connectivity
from commgraph.embeddings import ConnectivityParams, lazy_answer
from commgraph.embeddings.base import ParameterError
from commgraph.graph import Degree, Pair, validate_graph
from commgraph.promises import KIntersectOrDisjoint, PromisePair, gen_promise_instance
from commgraph.verify import connected_components, min_cut
from helpers import expand_runs


def pair_with_hits(l: int, k: int, hits):
    bits = [0] * (l * l)
    for i, j in hits:
        bits[i * l + j] = 1
    v = BitVec.from_bits(bits)
    return PromisePair(v, v, KIntersectOrDisjoint(k))


def disjoint_pair(l: int, k: int):
    return PromisePair(BitVec(l * l), BitVec(l * l), KIntersectOrDisjoint(k))


def test_disjoint_side_disconnected():
    inst = build_connectivity(ConnectivityParams(k=2, l=4, n=20), disjoint_pair(4, 2))
    g = inst.materialize()
    assert validate_graph(g) == []
    assert connected_components(g) >= 2
    assert min_cut(g) == 0
    # no edge leaves the A-side: B and B' ids are [8, 16)
    a_side = set(range(0, 8)) | set(range(16, 20))
    for u in a_side:
        for w in g.adj[u]:
            assert w in a_side


def test_intersecting_min_cut_at_least_k():
    inst = build_connectivity(
        ConnectivityParams(k=2, l=4, n=20), pair_with_hits(4, 2, [(0, 1), (3, 2)])
    )
    g = inst.materialize()
    assert validate_graph(g) == []
    assert min_cut(g) >= 2


def test_edge_count_formula():
    inst = build_connectivity(
        ConnectivityParams(k=2, l=4, n=20), pair_with_hits(4, 2, [(0, 1), (3, 2)])
    )
    g = inst.materialize()
    assert g.m == 2 * 16 + 2 * (20 - 16) == 40


def test_attachment_round_robin():
    inst = build_connectivity(ConnectivityParams(k=2, l=4, n=20), disjoint_pair(4, 2))
    # c_t is adjacent to a_((t*k + r) mod l) for r = 0, 1
    for t in range(4):
        c = 16 + t
        assert lazy_answer(inst, Degree(c)).d == 2
        for r in range(2):
            assert lazy_answer(inst, Pair(c, (t * 2 + r) % 4)).bit == 1
    g = inst.materialize()
    # every attachment degree matches the lazy table
    assert g.degrees() == expand_runs(inst.input_free_degrees(), inst.n)


def test_degree_sequence_invariant():
    base = None
    for seed in range(20):
        pp = gen_promise_instance(16, KIntersectOrDisjoint(2), seed)
        inst = build_connectivity(ConnectivityParams(k=2, l=4, n=21), pp)
        degs = inst.materialize().degrees()
        if base is None:
            base = degs
        assert degs == base


def test_l_at_least_2k():
    with pytest.raises(ParameterError):
        ConnectivityParams(k=3, l=5)


def test_min_cut_never_exceeds_c_degree():
    # C vertices have degree k, so the global min cut is exactly k
    inst = build_connectivity(
        ConnectivityParams(k=2, l=5, n=25),
        pair_with_hits(5, 2, [(0, 0), (4, 4)]),
    )
    assert min_cut(inst.materialize()) == 2
