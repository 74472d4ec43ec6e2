import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from commgraph.embeddings import ConnectivityEmbedding, ConnectivityParams
from commgraph.families import path_graph
from commgraph.graph import ExplicitGraph
from commgraph.promises import KIntersectOrDisjoint, UniqueIntersection, gen_promise_instance
from commgraph.verify import (
    VerifyBudgetExceeded,
    arboricity_bounds,
    check_alpha_bounds,
    connected_components,
    count_r_cliques,
    count_triangles,
    densest_subgraph_bruteforce,
    degeneracy,
    min_cut,
    moment,
    verify_instance,
)

from helpers import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empirical_distribution,
    random_graph,
    random_instance,
    star_graph,
    stoer_wagner_min_cut,
    tvd,
    uniform_distribution,
)


# --- triangle / clique counting ----------------------------------------------


def test_k4_triangles():
    assert count_triangles(complete_graph(4)) == 4


def test_bipartite_triangle_free():
    assert count_triangles(complete_bipartite_graph(5, 7)) == 0


def test_k5_four_cliques():
    assert count_r_cliques(complete_graph(5), 4) == 5


def test_counting_agreement_on_random_graphs():
    rng = random.Random(31)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 30), rng.random())
        assert count_triangles(g) == count_r_cliques(g, 3)


def test_clique_count_against_itertools_oracle():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(rng, rng.randint(4, 12), 0.5)
        for r in (3, 4, 5):
            expect = sum(
                all(g.has_edge(u, v) for u, v in combinations(combo, 2))
                for combo in combinations(range(g.n), r)
            )
            assert count_r_cliques(g, r) == expect


def test_clique_budget_refusal():
    g = complete_graph(18)
    with pytest.raises(VerifyBudgetExceeded):
        count_r_cliques(g, 9, budget=1000)


def test_complete_graph_clique_counts():
    for n in range(1, 13):
        for r in range(1, 9):
            assert count_r_cliques(complete_graph(n), r) == comb(n, r)


def test_clique_budget_counts_scanned_partial_cliques():
    # K_5, r = 3: the roots 0, 1, 2 have >= 2 forward neighbours and are
    # the only partial cliques whose candidates are scanned; they add
    # 6, 3 and 1 triangles
    assert count_r_cliques(complete_graph(5), 3, budget=3) == 10
    with pytest.raises(VerifyBudgetExceeded, match=r"after counting 9$"):
        count_r_cliques(complete_graph(5), 3, budget=2)


# --- min cut ------------------------------------------------------------------


def brute_force_min_cut(g: ExplicitGraph) -> int:
    """Oracle: try every bipartition of the vertex set."""
    best = None
    for mask in range(1, 1 << (g.n - 1)):  # fix vertex n-1 on one side
        crossing = sum(
            1
            for u, v in g.edges()
            if ((mask >> u) & 1) != ((mask >> v) & 1 if v < g.n - 1 else 0)
        )
        best = crossing if best is None else min(best, crossing)
    return best


def test_min_cut_small_cases():
    assert min_cut(complete_graph(4)) == 3
    assert min_cut(path_graph(5)) == 1
    assert min_cut(cycle_graph(6)) == 2
    two_parts = ExplicitGraph(4, [[1], [0], [3], [2]])
    assert min_cut(two_parts) == 0
    assert connected_components(two_parts) == 2


def test_min_cut_matches_bruteforce():
    rng = random.Random(77)
    tried = 0
    while tried < 40:
        g = random_graph(rng, rng.randint(3, 8), 0.6)
        if connected_components(g) != 1:
            continue
        tried += 1
        assert min_cut(g) == brute_force_min_cut(g), g.adj


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 40), st.floats(0.05, 1.0))
def test_min_cut_matches_stoer_wagner(seed, n, p):
    g = random_graph(random.Random(seed), n, p)
    assert min_cut(g) == stoer_wagner_min_cut(g)


def bridged_clusters(rng, n1, n2, bridges):
    """Two random clusters joined by a few edges, vertices shuffled: their
    min cut is often the bridges, below every degree."""
    n = n1 + n2
    p1, p2 = rng.random(), rng.random()
    edges = {(u, v) for u in range(n1) for v in range(u + 1, n1) if rng.random() < p1}
    edges |= {(u, v) for u in range(n1, n) for v in range(u + 1, n) if rng.random() < p2}
    edges |= {(rng.randrange(n1), rng.randrange(n1, n)) for _ in range(bridges)}
    perm = list(range(n))
    rng.shuffle(perm)
    adj = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adj[perm[u]].append(perm[v])
        adj[perm[v]].append(perm[u])
    return ExplicitGraph(n, adj)


def test_min_cut_matches_stoer_wagner_on_bridged_clusters():
    rng = random.Random(1)
    for _ in range(1500):
        g = bridged_clusters(rng, rng.randint(3, 9), rng.randint(3, 9), rng.randint(1, 4))
        assert min_cut(g) == stoer_wagner_min_cut(g), g.adj


def connectivity_instance(k: int, l: int, seed: int, intersecting: bool):
    params = ConnectivityParams(k=k, l=l)
    while True:
        pp = gen_promise_instance(l * l, KIntersectOrDisjoint(k), seed)
        if pp.intersecting == intersecting:
            return ConnectivityEmbedding(params, pp)
        seed += 1


@pytest.mark.parametrize("intersecting", [True, False])
@pytest.mark.parametrize("k", [2, 6])
def test_min_cut_matches_stoer_wagner_on_connectivity(k, intersecting):
    for l in (2 * k, 2 * k + 3):
        for seed in (1, 2):
            g = connectivity_instance(k, l, seed, intersecting).materialize()
            cut = min_cut(g)
            assert cut == stoer_wagner_min_cut(g)
            assert cut == (k if intersecting else 0)


def test_connectivity_certifies_at_n_1000():
    inst = connectivity_instance(6, 200, 7, True)
    assert inst.n == 1000
    reports = verify_instance(inst)
    assert all(r.passed for r in reports)
    assert [r.value for r in reports if r.quantity == "min_cut"] == [6]


def test_min_cut_bounded_by_min_degree():
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 12), 0.5)
        if g.m == 0:
            continue
        assert min_cut(g) <= min(d for d in g.degrees())


# --- moments and arboricity -----------------------------------------------


def test_first_moment_is_handshake():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 20), 0.4)
        assert moment(g, 1) == 2 * g.m


def test_star_second_moment():
    assert moment(star_graph(3), 2) == 9 + 3


def test_k42_second_moment():
    assert moment(complete_bipartite_graph(4, 2), 2) == 48


def test_densest_subgraph_examples():
    assert densest_subgraph_bruteforce(path_graph(7)) == 1  # trees
    assert densest_subgraph_bruteforce(complete_graph(4)) == 2  # ceil(6/3)
    assert densest_subgraph_bruteforce(complete_bipartite_graph(4, 2)) == 2
    assert densest_subgraph_bruteforce(ExplicitGraph(3, [[], [], []])) == 0


def test_densest_subgraph_refuses_large():
    with pytest.raises(VerifyBudgetExceeded):
        densest_subgraph_bruteforce(complete_graph(21))


def test_known_arboricities():
    assert degeneracy(complete_graph(5)) == 4
    assert arboricity_bounds(path_graph(6)) == (1, 1)
    lo, hi = arboricity_bounds(complete_bipartite_graph(4, 2))
    assert lo == hi == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_arboricity_interval_sandwiches_exact(seed, n):
    g = random_graph(random.Random(seed), n, 0.5)
    exact = densest_subgraph_bruteforce(g)
    lo, hi = arboricity_bounds(g)
    assert lo <= exact <= hi


def test_alpha_bounds_k4_exact_arithmetic():
    # with exact arithmetic the literal lower side fails on K_4 at s = 2:
    # M_2/n^2 = 36/16 = 2.25 > 2 = arboricity (the provable general form
    # carries a factor 2); the upper side 2^3 <= 36 holds
    report = check_alpha_bounds(complete_graph(4), 2)
    assert report.value == 2
    assert not report.passed
    assert moment(complete_graph(4), 2) <= 2 * 2 * 4**2  # factor-2 form


def test_alpha_bounds_single_edge():
    report = check_alpha_bounds(complete_graph(2), 1)
    assert report.passed
    assert report.value == 1


def test_alpha_bounds_provable_forms_on_random_graphs():
    # the factor-2 lower form and the upper form hold on every graph
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        if g.m == 0:
            continue
        alpha = densest_subgraph_bruteforce(g)
        for s in (1, 2, 3):
            assert moment(g, s) <= 2 * alpha * g.n**s
            assert alpha ** (s + 1) <= moment(g, s)


# --- total variation -----------------------------------------------------------


def test_tvd_identical_zero():
    u = uniform_distribution(["a", "b", "c"])
    assert tvd(u, u) == 0


def test_tvd_point_mass_vs_uniform():
    point = {"a": Fraction(1), "b": Fraction(0)}
    assert tvd(point, uniform_distribution(["a", "b"])) == Fraction(1, 2)


def test_tvd_mismatched_universe():
    with pytest.raises(ValueError):
        tvd({"a": 1}, {"b": 1})


def test_empirical_distribution_sums_to_one():
    emp = empirical_distribution({"x": 30, "y": 70}, 100)
    assert sum(emp.values()) == 1


# --- instance-level certification ----------------------------------------------


@pytest.mark.parametrize(
    "kind",
    [
        "clique-hiding",
        "triangle",
        "r-clique",
        "connectivity",
        "degree-only",
        "moments-hiding",
        "moments-block",
    ],
)
def test_gap_certification_random_instances(kind):
    # >= 50 random promise instances per side for each construction
    rng = random.Random(sum(map(ord, kind)))
    sides = {True: 0, False: 0}
    guard = 0
    while min(sides.values()) < 50 and guard < 2000:
        guard += 1
        inst = random_instance(kind, rng.getrandbits(64))
        sides[inst.pp.intersecting] += 1
        reports = verify_instance(inst)
        assert all(r.passed for r in reports), (kind, inst, [
            r for r in reports if not r.passed
        ])
    assert min(sides.values()) >= 50


def test_mutated_instance_fails():
    inst = random_instance("triangle", 99)
    g = inst.materialize()
    edges = g.edges()
    u, v = edges[0]
    adj = [list(row) for row in g.adj]
    adj[u].remove(v)
    adj[v].remove(u)
    mutated = ExplicitGraph(g.n, adj)
    reports = verify_instance(inst, mutated)
    assert any(not r.passed for r in reports)
