"""Laziness of the random-edge path and of the moments-hiding and
degree-only builds, checked by counting work, not timing it.

Building a lazy-only instance and drawing random edges from it must
allocate nothing in proportion to n.  Each case first runs at n = 10^5,
where an O(n) table would cost megabytes and fail the allocation
bound, so the n = 10^9 run (where it would cost gigabytes) only happens
once the small one has passed.
"""

import random
import tracemalloc

import pytest

from commgraph.bits import BitVec
from commgraph.embeddings import DegreeOnlyEmbedding, DegreeOnlyParams
from commgraph.families import MatchingGraph
from commgraph.graph import Degree, Neighbor, Pair, RandomEdge
from commgraph.presets import family
from commgraph.promises import Disjoint, PromisePair, UniqueIntersection, gen_promise_instance

from helpers import matching_graph

DRAWS = 50
MAX_ALLOCATED = 64 * 1024  # bytes: a few objects, no per-vertex table


def build_and_draw(kind, flags, n):
    """Peak bytes allocated by building at size n and drawing DRAWS edges,
    and the instance's degree runs."""
    fam = family(kind, n=n, **flags)
    pp = gen_promise_instance(fam.n_bits, fam.promise, 1)
    rng = random.Random(2)
    tracemalloc.start()
    try:
        inst = fam.build(pp)
        runs = inst.input_free_degrees()
        for _ in range(DRAWS):
            inst.answer(RandomEdge(), None, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n >= n
    return peak, runs


@pytest.mark.parametrize("kind, flags, max_runs", [
    ("triangle", dict(l=3, k=1), 6),
    ("triangle", dict(l=4, k=2, s_size=2), 6),
    ("connectivity", dict(k=2, l=4), 4),
    ("connectivity", dict(k=3, l=7), 4),
    ("r-clique", dict(r=4, l=3, k=1), 4 + 2 * 2),
    ("r-clique", dict(r=5, l=3, k=1, s_clique_budget=2), 4 + 2 * 3),
])
def test_random_edge_path_is_flat_in_n(kind, flags, max_runs):
    for n in (10**5, 10**9):
        peak, runs = build_and_draw(kind, flags, n)
        assert peak <= MAX_ALLOCATED, (n, peak)
        assert len(runs) <= max_runs


def build_moments_hiding(m_tilde):
    """Peak bytes allocated by building the moments-hiding family with its
    default matching base, one instance from it and three queries."""
    pp = gen_promise_instance(16, UniqueIntersection(), 1)
    tracemalloc.start()
    try:
        fam = family("moments-hiding", s=2, alpha=4, c=1, m_tilde=m_tilde, blocks=16)
        inst = fam.build(pp)
        last = inst.n - 1
        answers = [inst.answer(q) for q in (Degree(last), Neighbor(last, 1), Pair(last - 1, last))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.base.n == m_tilde
    assert [tuple(a) for a in answers] == [(1,), (last - 1,), (1,)]
    return peak


def test_moments_hiding_build_is_flat_in_m_tilde():
    for m_tilde in (2 * 10**5, 2 * 10**9):
        peak = build_moments_hiding(m_tilde)
        assert peak <= MAX_ALLOCATED, (m_tilde, peak)


@pytest.mark.parametrize("hot", [None, 0, 10**5 - 1])
def test_degree_only_build_reads_no_input_bit(hot, monkeypatch):
    """Finding the shared block takes no per-coordinate read, on either
    promise side, at N = 10^5 blocks."""
    n_bits = 10**5
    x = BitVec(n_bits, (1 << n_bits) - 1)
    y = BitVec(n_bits, 0 if hot is None else 1 << (n_bits - 1 - hot))
    pp = PromisePair(x, y, Disjoint() if hot is None else UniqueIntersection())
    reads = []
    getitem = BitVec.__getitem__
    monkeypatch.setattr(BitVec, "__getitem__", lambda vec, i: reads.append(i) or getitem(vec, i))
    inst = DegreeOnlyEmbedding(DegreeOnlyParams(n=3 * n_bits, k=1), pp)
    assert reads == []
    monkeypatch.undo()
    if hot is None:
        assert inst.edge_count() == n_bits
    else:
        assert inst.edge_count() == 2 * n_bits
        assert inst.row_of(hot, inst.direct_joint) == range(n_bits, 3 * n_bits)


@pytest.mark.parametrize("pairs", [0, 1, 2, 5])
def test_matching_formula_equals_the_explicit_matching(pairs):
    lazy, explicit = MatchingGraph(pairs), matching_graph(pairs)
    assert (lazy.n, lazy.m) == (explicit.n, explicit.m)
    for s in (1, 2, 3):
        assert lazy.moment(s) == explicit.moment(s)
    for u in range(explicit.n):
        assert lazy.degree(u) == explicit.degree(u)
        assert tuple(lazy.row(u)) == explicit.row(u)
        for v in range(explicit.n):
            assert lazy.has_edge(u, v) == explicit.has_edge(u, v)
