"""The verifiers against networkx, an independent implementation.

networkx is a test-only dependency; without it this module is skipped and
the library itself stays stdlib-only.
"""

import random
from collections import Counter

import pytest

from commgraph.embeddings import ALL_KINDS
from commgraph.graph import ExplicitGraph
from commgraph.verify import (
    arboricity_bounds,
    count_r_cliques,
    count_triangles,
    degeneracy,
    k_core_sizes,
    min_cut,
)

from helpers import random_graph, random_instance

nx = pytest.importorskip("networkx")

MAX_R = 6


def to_networkx(g: ExplicitGraph):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def clique_counts(G) -> Counter:
    """Cliques per size up to MAX_R; enumerate_all_cliques yields them by
    nondecreasing size, so it stops at the first larger one."""
    counts = Counter()
    for clique in nx.enumerate_all_cliques(G):
        if len(clique) > MAX_R:
            break
        counts[len(clique)] += 1
    return counts


def density(n_s: int, m_s: int) -> int:
    return -(-m_s // (n_s - 1)) if n_s >= 2 and m_s else 0


def assert_matches_networkx(g: ExplicitGraph) -> None:
    G = to_networkx(g)
    if g.n >= 2:
        assert min_cut(g) == nx.edge_connectivity(G)
    counts = clique_counts(G)
    for r in range(3, MAX_R + 1):
        assert count_r_cliques(g, r) == counts[r], r
    assert count_triangles(g) == sum(nx.triangles(G).values()) // 3
    core = nx.core_number(G)
    assert degeneracy(g) == max(core.values(), default=0)
    sizes = k_core_sizes(g)
    assert len(sizes) == degeneracy(g) + 1
    for k, (n_k, m_k) in enumerate(sizes):
        k_core = G.subgraph(v for v in G if core[v] >= k)
        assert (n_k, m_k) == (k_core.number_of_nodes(), k_core.number_of_edges()), k
    # the lower witness is the densest of the whole graph, its components
    # and its k-cores for k >= 2
    parts = [G] + [G.subgraph(c) for c in nx.connected_components(G)]
    parts += [G.subgraph(v for v in G if core[v] >= k) for k in range(2, len(sizes))]
    lo = max(density(H.number_of_nodes(), H.number_of_edges()) for H in parts)
    assert arboricity_bounds(g) == ((lo, degeneracy(g)) if g.m else (0, 0))


@pytest.mark.parametrize("seed", range(6))
def test_random_graphs_match_networkx(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 22)
        assert_matches_networkx(random_graph(rng, n, rng.random() ** 1.5))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_instances_match_networkx(kind):
    rng = random.Random(sum(map(ord, kind)) + 1)
    for _ in range(10):
        assert_matches_networkx(random_instance(kind, rng.getrandbits(64)).materialize())
