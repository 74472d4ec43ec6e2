from math import comb

import pytest

from commgraph.bits import BitVec
from commgraph.embeddings import (
    RCliqueParams,
    TriangleParams,
    RCliqueEmbedding as build_r_clique,
    TriangleEmbedding as build_triangle,
)
from commgraph.embeddings.base import ParameterError
from commgraph.graph import validate_graph
from commgraph.promises import KIntersectOrDisjoint, PromisePair, gen_promise_instance
from commgraph.verify import count_r_cliques, count_triangles
from helpers import expand_runs


def pair_with_hits(l: int, k: int, hits):
    bits = [0] * (l * l)
    for i, j in hits:
        bits[i * l + j] = 1
    v = BitVec.from_bits(bits)
    return PromisePair(v, v, KIntersectOrDisjoint(k))


def disjoint_pair(l: int, k: int):
    return PromisePair(BitVec(l * l), BitVec(l * l), KIntersectOrDisjoint(k))


def test_edge_count_formula_r4_l3():
    inst = build_r_clique(RCliqueParams(r=4, l=3, k=2), pair_with_hits(3, 2, [(0, 1), (2, 2)]))
    g = inst.materialize()
    assert validate_graph(g) == []
    assert g.m == 9 * (comb(2, 2) + 2 * 2 + 2) == 63


def test_clique_count_r4():
    inst = build_r_clique(RCliqueParams(r=4, l=3, k=2), pair_with_hits(3, 2, [(0, 1), (2, 2)]))
    g = inst.materialize()
    assert count_r_cliques(g, 4) == 18  # k * l^(r-2) exactly


def test_disjoint_has_no_r_cliques():
    for r in (3, 4, 5):
        inst = build_r_clique(RCliqueParams(r=r, l=3, k=1), disjoint_pair(3, 1))
        assert count_r_cliques(inst.materialize(), r) == 0


def test_r3_reduces_to_triangle_counts():
    hits = [(1, 0), (2, 2)]
    rc = build_r_clique(RCliqueParams(r=3, l=3, k=2), pair_with_hits(3, 2, hits))
    tr = build_triangle(TriangleParams(l=3, k=2), pair_with_hits(3, 2, hits))
    g_rc, g_tr = rc.materialize(), tr.materialize()
    assert count_triangles(g_rc) == count_triangles(g_tr) == 2 * 3  # k * l
    assert g_rc.m == g_tr.m


def test_sparse_s_budget():
    inst = build_r_clique(
        RCliqueParams(r=4, l=4, k=1, s_clique_budget=5), pair_with_hits(4, 1, [(0, 0)])
    )
    g = inst.materialize()
    assert validate_graph(g) == []
    got = count_r_cliques(g, 4)
    assert got == inst.expected_clique_count()
    assert 5 <= got < 10  # within a factor 2 of the budget
    # all A-S and B-S edges remain
    l = 4
    s_lo, s_hi = 4 * l, 6 * l
    for a in range(l):
        for s in range(s_lo, s_hi):
            assert g.has_edge(a, s)


def test_sparse_s_exact_when_feasible():
    inst = build_r_clique(
        RCliqueParams(r=5, l=3, k=1, s_clique_budget=8), pair_with_hits(3, 1, [(1, 1)])
    )
    g = inst.materialize()
    # greedy prefix sizes reach exactly 8 = 2*2*2
    assert inst.active == [2, 2, 2]
    assert count_r_cliques(g, 5) == 8


def test_sparse_s_infeasible():
    with pytest.raises(ParameterError):
        build_r_clique(
            RCliqueParams(r=4, l=2, k=1, s_clique_budget=5), pair_with_hits(2, 1, [(0, 0)])
        )
    with pytest.raises(ParameterError):
        build_r_clique(
            RCliqueParams(r=3, l=2, k=1, s_clique_budget=2), pair_with_hits(2, 1, [(0, 0)])
        )


def test_degree_sequence_invariant():
    base = None
    for seed in range(20):
        pp = gen_promise_instance(4, KIntersectOrDisjoint(1), seed)
        inst = build_r_clique(RCliqueParams(r=4, l=2, k=1), pp)
        degs = inst.materialize().degrees()
        assert degs == expand_runs(inst.input_free_degrees(), inst.n)
        if base is None:
            base = degs
        assert degs == base


def test_r_must_be_at_least_3():
    with pytest.raises(ParameterError):
        RCliqueParams(r=2, l=3, k=1)
