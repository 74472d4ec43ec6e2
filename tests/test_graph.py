import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from commgraph.graph import (
    ContractViolation,
    Degree,
    DegreeIs,
    DegreeRuns,
    ExplicitGraph,
    Neighbor,
    NeighborIs,
    NoEdgesError,
    Pair,
    PairIs,
    RandomEdge,
    answer_on_explicit,
    dump_edge_list,
    load_edge_list,
    sample_edge_by_degrees,
    validate_graph,
)
from helpers import (
    empirical_distribution,
    random_instance,
    tvd,
    uniform_distribution,
    validate_by_neighbor,
)

TRIANGLE = ExplicitGraph(3, [[1, 2], [0, 2], [0, 1]])
PATH3 = ExplicitGraph(3, [[1], [0, 2], [1]])


def test_degree_on_three_cycle():
    assert answer_on_explicit(TRIANGLE, Degree(0)) == DegreeIs(2)


def test_neighbor_beyond_degree_is_empty():
    assert answer_on_explicit(TRIANGLE, Neighbor(0, 2)) == NeighborIs(2)
    # index exceeds degree
    assert answer_on_explicit(PATH3, Neighbor(0, 2)) == NeighborIs(None)


def test_pair_on_path_endpoints():
    assert answer_on_explicit(PATH3, Pair(0, 2)) == PairIs(0)
    assert answer_on_explicit(PATH3, Pair(0, 1)) == PairIs(1)
    assert answer_on_explicit(PATH3, Pair(1, 0)) == PairIs(1)


def test_malformed_queries_rejected():
    with pytest.raises(ContractViolation):
        answer_on_explicit(TRIANGLE, Degree(3))
    with pytest.raises(ContractViolation):
        answer_on_explicit(TRIANGLE, Neighbor(0, 0))
    with pytest.raises(ContractViolation):
        answer_on_explicit(TRIANGLE, Neighbor(0, 3))  # i > n-1
    with pytest.raises(ContractViolation):
        answer_on_explicit(TRIANGLE, Pair(0, -1))


def test_random_edge_requires_rng_and_edges():
    with pytest.raises(ContractViolation):
        answer_on_explicit(TRIANGLE, RandomEdge())
    empty = ExplicitGraph(2, [[], []])
    with pytest.raises(NoEdgesError):
        answer_on_explicit(empty, RandomEdge(), random.Random(0))


def test_validate_graph_findings():
    assert validate_graph(TRIANGLE) == []
    asym = ExplicitGraph(2, [[1], []])
    assert any("asymmetry" in f for f in validate_graph(asym))
    loop = ExplicitGraph(1, [[0]])
    assert any("self-loop" in f for f in validate_graph(loop))
    dup = ExplicitGraph(2, [[1, 1], [0, 0]])
    assert sum("duplicate" in f for f in validate_graph(dup)) == 2


def _mutate(adj: list, mutation: str, rng: random.Random) -> None:
    n = len(adj)
    v = rng.choice([u for u in range(n) if adj[u]] or [0])
    if mutation == "out-of-range":
        adj[v].insert(rng.randint(0, len(adj[v])), rng.choice([-1, n, n + 5]))
    elif mutation == "self-loop":
        adj[v].insert(rng.randint(0, len(adj[v])), v)
    elif mutation == "duplicate" and adj[v]:
        adj[v].insert(rng.randint(0, len(adj[v])), rng.choice(adj[v]))
    elif mutation == "asymmetry" and adj[v]:
        w = rng.choice(adj[v])
        if v in adj[w]:  # never restore an edge an earlier mutation cut
            adj[v].remove(w)
    else:  # an edgeless graph: list an edge one way only
        adj[0].append(n - 1 if n > 1 else 0)


@pytest.mark.parametrize("mutation", ["out-of-range", "self-loop", "duplicate", "asymmetry"])
def test_validate_graph_reports_the_reference_findings(mutation):
    """On valid graphs the bulk check finds nothing; on each kind of broken
    graph the findings equal the neighbor-by-neighbor reference word for
    word, in order."""
    rng = random.Random(sum(map(ord, mutation)))
    kinds = ["clique-hiding", "triangle", "r-clique", "connectivity", "degree-only",
             "moments-hiding", "moments-block"]
    for kind in kinds:
        for _ in range(4):
            g = random_instance(kind, rng.getrandbits(64)).materialize()
            assert validate_graph(g) == validate_by_neighbor(g) == []
            adj = [list(row) for row in g.adj]
            for _ in range(rng.randint(1, 3)):
                _mutate(adj, mutation, rng)
            broken = ExplicitGraph(g.n, adj)
            findings = validate_graph(broken)
            assert findings, (kind, mutation)
            assert findings == validate_by_neighbor(broken), (kind, mutation)


# --- degree-proportional edge sampling ------------------------------------


def enumerate_pair_distribution(g: ExplicitGraph) -> dict:
    """Independent oracle: walk every (vertex, index) pair of the sampling
    scheme and accumulate exact probabilities."""
    total = sum(g.degrees())
    dist = Counter()
    for v in range(g.n):
        for i in range(1, g.degree(v) + 1):
            w = g.adj[v][i - 1]
            e = (v, w) if v < w else (w, v)
            dist[e] += Fraction(1, total)
    return dict(dist)


def test_three_cycle_sampling_chi_square():
    # exact distribution by enumeration is uniform over the 3 edges
    exact = enumerate_pair_distribution(TRIANGLE)
    assert exact == {e: Fraction(1, 3) for e in TRIANGLE.edges()}
    rng = random.Random(1234)
    draws = 30_000
    counts = Counter(
        sample_edge_by_degrees(DegreeRuns([(1, d) for d in TRIANGLE.degrees()]), lambda v, i: TRIANGLE.adj[v][i - 1], rng)
        for _ in range(draws)
    )
    expected = draws / 3
    chi2 = sum((counts[e] - expected) ** 2 / expected for e in TRIANGLE.edges())
    assert chi2 <= 9.21  # chi-square 99th percentile, 2 degrees of freedom


def test_star_sampling_probabilities():
    star = ExplicitGraph(4, [[1, 2, 3], [0], [0], [0]])
    # enumeration: center path 1/2 * 1/3 per edge, each leaf 1/6: total 1/3 each
    exact = enumerate_pair_distribution(star)
    assert exact == {(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 3), (0, 3): Fraction(1, 3)}


def test_single_edge_sampling_certain():
    g = ExplicitGraph(2, [[1], [0]])
    rng = random.Random(0)
    for _ in range(10):
        assert sample_edge_by_degrees(DegreeRuns([(1, d) for d in g.degrees()]), lambda v, i: g.adj[v][i - 1], rng) == (0, 1)


def test_sampling_zero_degree_error():
    with pytest.raises(NoEdgesError):
        sample_edge_by_degrees(DegreeRuns([(1, 0), (1, 0)]), lambda v, i: 0, random.Random(0))


def test_sampling_tvd_seeded():
    rng = random.Random(77)
    g = ExplicitGraph(6, [[1, 2, 3, 4, 5], [0, 2], [0, 1], [0, 4], [0, 3], [0]])
    assert validate_graph(g) == []
    draws = 100_000
    counts = Counter(
        sample_edge_by_degrees(DegreeRuns([(1, d) for d in g.degrees()]), lambda v, i: g.adj[v][i - 1], rng)
        for _ in range(draws)
    )
    emp = empirical_distribution({e: counts.get(e, 0) for e in g.edges()}, draws)
    assert tvd(emp, uniform_distribution(g.edges())) <= Fraction(2, 100)


# --- invariants on random graphs -------------------------------------------


def random_graph(rng: random.Random, n: int, p: float) -> ExplicitGraph:
    adj = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return ExplicitGraph(n, adj)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 24))
def test_handshake_and_pair_symmetry(seed, n):
    g = random_graph(random.Random(seed), n, 0.4)
    assert validate_graph(g) == []
    # handshake: degree sum equals twice the number of pair-query edges
    pair_edges = sum(
        answer_on_explicit(g, Pair(u, v)).bit for u in range(n) for v in range(u + 1, n)
    )
    assert sum(answer_on_explicit(g, Degree(v)).d for v in range(n)) == 2 * pair_edges
    # pair symmetry and neighbor/degree consistency
    rng = random.Random(seed + 1)
    for _ in range(20):
        u, v = rng.randrange(n), rng.randrange(n)
        assert answer_on_explicit(g, Pair(u, v)) == answer_on_explicit(g, Pair(v, u))
    for v in range(n):
        answers = [answer_on_explicit(g, Neighbor(v, i)).w for i in range(1, n)]
        hits = [w for w in answers if w is not None]
        assert len(hits) == g.degree(v)
        assert len(set(hits)) == len(hits)


def test_edge_list_round_trip():
    g = random_graph(random.Random(5), 9, 0.5)
    text = dump_edge_list(g)
    again = load_edge_list(text)
    assert again == g
    assert validate_graph(again) == []
    assert dump_edge_list(again) == text  # byte-exact round trip


def test_edge_list_format_exact():
    g = ExplicitGraph(3, [[1], [0], []])
    assert dump_edge_list(g) == "n 3\n0: 1\n1: 0\n2:\n"


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        load_edge_list("3\n0:\n1:\n2:\n")
    with pytest.raises(ValueError):
        load_edge_list("n 2\n0: 1\n")
