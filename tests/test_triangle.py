import pytest

from commgraph.bits import BitVec
from commgraph.embeddings import TriangleParams, TriangleEmbedding as build_triangle
from commgraph.embeddings.base import ParameterError
from commgraph.graph import Degree, Neighbor, Pair, validate_graph
from commgraph.promises import KIntersectOrDisjoint, PromisePair, gen_promise_instance
from commgraph.verify import count_triangles
from helpers import expand_runs


def pair_with_hits(l: int, k: int, hits):
    bits = [0] * (l * l)
    for i, j in hits:
        bits[i * l + j] = 1
    v = BitVec.from_bits(bits)
    return PromisePair(v, v, KIntersectOrDisjoint(k))


def disjoint_pair(l: int, k: int):
    return PromisePair(BitVec(l * l), BitVec(l * l), KIntersectOrDisjoint(k))


def is_bipartite(g):
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def test_disjoint_side_is_bipartite_triangle_free():
    inst = build_triangle(TriangleParams(l=4, k=2), disjoint_pair(4, 2))
    g = inst.materialize()
    assert validate_graph(g) == []
    assert is_bipartite(g)
    assert count_triangles(g) == 0


def test_exact_counts_l4_k2():
    inst = build_triangle(TriangleParams(l=4, k=2), pair_with_hits(4, 2, [(0, 2), (3, 1)]))
    g = inst.materialize()
    assert g.m == 64  # 4 * l^2
    assert count_triangles(g) == 8  # k * l exactly
    # every triangle is {a, b, s}: check by brute force over all triples
    s_range = range(16, 20)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                continue
            for w in range(v + 1, g.n):
                if g.has_edge(u, w) and g.has_edge(v, w):
                    assert w in s_range


def test_small_count_variant():
    # k = 1 with a 3-vertex witness set: exactly 3 triangles when intersecting
    inst = build_triangle(
        TriangleParams(l=4, k=1, s_size=3), pair_with_hits(4, 1, [(2, 2)])
    )
    g = inst.materialize()
    assert count_triangles(g) == 3
    assert inst.expected_clique_count() == 3


def test_degree_rules():
    inst = build_triangle(TriangleParams(l=4, k=2, n=25), pair_with_hits(4, 2, [(0, 0), (1, 1)]))
    # A and B have degree 2l, A' and B' have degree l, padding has degree 0
    for v in range(4):
        assert inst.answer(Degree(v)).d == 8  # A
        assert inst.answer(Degree(4 + v)).d == 4  # A'
        assert inst.answer(Degree(8 + v)).d == 8  # B
        assert inst.answer(Degree(12 + v)).d == 4  # B'
        assert inst.answer(Degree(16 + v)).d == 8  # S
    assert inst.answer(Degree(24)).d == 0


def test_neighbor_labeling():
    hits = [(0, 2), (3, 3)]
    inst = build_triangle(TriangleParams(l=4, k=2), pair_with_hits(4, 2, hits))
    # a_0's 3rd neighbor is b_2 (hit) and its 1st is a'_0 (miss)
    assert inst.answer(Neighbor(0, 3)).w == 8 + 2
    assert inst.answer(Neighbor(0, 1)).w == 4 + 0
    # positions l+1 .. l+|S| are the witness vertices in index order
    for t in range(4):
        assert inst.answer(Neighbor(0, 5 + t)).w == 16 + t
    # symmetric views: b_2's 1st neighbor is a_0 (hit at (0, 2))
    assert inst.answer(Neighbor(8 + 2, 1)).w == 0
    # a'_3's 4th neighbor is b'_3 (hit at (3, 3))
    assert inst.answer(Neighbor(4 + 3, 4)).w == 12 + 3


def test_pair_rules():
    inst = build_triangle(TriangleParams(l=4, k=1), pair_with_hits(4, 1, [(1, 2)]))
    assert inst.answer(Pair(1, 8 + 2)).bit == 1  # a_1 - b_2 hit
    assert inst.answer(Pair(1, 4 + 2)).bit == 0  # a_1 - a'_2 replaced
    assert inst.answer(Pair(0, 8 + 2)).bit == 0  # a_0 - b_2 not a hit
    assert inst.answer(Pair(0, 4 + 2)).bit == 1  # a_0 - a'_2 present
    assert inst.answer(Pair(2, 16)).bit == 1  # A - S always
    assert inst.answer(Pair(4, 16)).bit == 0  # A' - S never


def test_edge_count_is_input_independent():
    for seed in range(5):
        pp = gen_promise_instance(16, KIntersectOrDisjoint(3), seed)
        inst = build_triangle(TriangleParams(l=4, k=3), pp)
        assert inst.materialize().m == 64


def test_degree_sequence_invariant_across_inputs():
    base = None
    for seed in range(20):
        pp = gen_promise_instance(9, KIntersectOrDisjoint(2), seed)
        inst = build_triangle(TriangleParams(l=3, k=2), pp)
        degs = inst.materialize().degrees()
        assert degs == expand_runs(inst.input_free_degrees(), inst.n)
        if base is None:
            base = degs
        assert degs == base


def test_wrong_promise_rejected():
    pp = PromisePair(BitVec(16), BitVec(16), KIntersectOrDisjoint(3))
    with pytest.raises(ParameterError):
        build_triangle(TriangleParams(l=4, k=2), pp)  # k mismatch
    with pytest.raises(ParameterError):
        build_triangle(TriangleParams(l=3, k=3), pp)  # N mismatch


def test_n_padding():
    inst = build_triangle(TriangleParams(l=2, k=1, n=5), disjoint_pair(2, 1))
    assert inst.n == 10  # padded up to 4l + s_size
    assert inst.pad == 5


def test_all_queries_supported():
    inst = build_triangle(TriangleParams(l=2, k=1), disjoint_pair(2, 1))
    assert inst.supported == {"degree", "neighbor", "pair", "random_edge"}
