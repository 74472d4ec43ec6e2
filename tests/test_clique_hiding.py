from math import comb

import pytest

from commgraph.embeddings import (
    CliqueHidingParams,
    CliqueHidingEmbedding as build_clique_hiding,
    edge_counting_block_side,
    triangle_freeness_block_side,
)
from commgraph.embeddings.base import ParameterError
from commgraph.families import lex_graph, path_graph
from commgraph.graph import Degree, Neighbor, Pair, validate_graph
from commgraph.promises import (
    Disjoint,
    KIntersectOrDisjoint,
    PromisePair,
    UniqueIntersection,
)

from helpers import bits_from_string


def make(x: str, y: str, **kwargs):
    defaults = dict(base=path_graph(4), l=3, blocks=len(x))
    defaults.update(kwargs)
    pp = PromisePair(bits_from_string(x), bits_from_string(y), UniqueIntersection())
    return build_clique_hiding(CliqueHidingParams(**defaults), pp)


def test_disjoint_blocks_isolated():
    inst = make("10", "01")
    g = inst.materialize()
    assert g.m == 3  # just the base path
    assert all(g.degree(v) == 0 for v in range(6))  # all block vertices isolated
    assert validate_graph(g) == []


def test_single_intersection_adds_one_clique():
    inst = make("11", "01")  # intersect at block 1
    g = inst.materialize()
    # independent count: brute-force edges of the materialized graph
    assert g.m == 6
    assert g.m == 3 + comb(3, 2)
    assert inst.edge_count() == 6
    block1 = {3, 4, 5}
    for u in block1:
        for v in block1:
            if u != v:
                assert g.has_edge(u, v)


def test_modular_block_ordering():
    inst = make("11", "01", l=4)
    # block 1 occupies vertices 4..7; vertex z's i-th neighbor is z+i mod l
    for z in range(4):
        for i in range(1, 4):
            expected = 4 + ((z + i) % 4)
            assert inst.answer(Neighbor(4 + z, i)).w == expected


def test_edge_counting_preset():
    # eps = 1/4, base m = 16: block side 2*sqrt(eps*m) = 4
    base = lex_graph(12, 16)
    l = edge_counting_block_side(1, 4, base.m)
    assert l == 4
    pp = PromisePair(bits_from_string("01"), bits_from_string("01"), UniqueIntersection())
    inst = build_clique_hiding(CliqueHidingParams(base=base, l=l, blocks=2), pp)
    g = inst.materialize()
    added = g.m - base.m
    assert added == comb(l, 2)
    assert added >= base.m // 4  # at least eps * m' extra edges
    assert g.m >= base.m + base.m // 4  # the (1+eps) side of the gap


def test_triangle_freeness_preset():
    assert triangle_freeness_block_side(1, 4, 16) == 2  # ceil(sqrt(4))
    assert triangle_freeness_block_side(1, 2, 9) == 3  # ceil(sqrt(4.5))


def test_gap_label_is_disjointness():
    assert make("10", "01").gap_label() == 1
    assert make("11", "01").gap_label() == 0


def test_pair_inside_block_is_joint_bit():
    inst = make("11", "01")
    # block 0 inactive, block 1 active
    assert inst.answer(Pair(0, 1)).bit == 0
    assert inst.answer(Pair(3, 4)).bit == 1
    assert inst.answer(Pair(2, 3)).bit == 0  # across blocks


def test_augment_connect_hub_appended_last():
    inst = make("11", "01", augment_connect=True)
    g = inst.materialize()
    assert validate_graph(g) == []
    hub = inst.hub
    assert g.degree(hub) == g.n - 1
    # every non-hub vertex ends its ordering with the hub unless the hub is
    # already a base-graph neighbor
    for v in range(g.n):
        if v == hub:
            continue
        assert hub in g.adj[v]
    # isolated block vertex: only the hub
    assert g.adj[0] == (hub,)
    # active block vertex: block neighbors then hub last
    assert g.adj[3][-1] == hub


def test_promise_type_enforced():
    pp = PromisePair(
        bits_from_string("11"), bits_from_string("11"), KIntersectOrDisjoint(2)
    )
    with pytest.raises(ParameterError):
        build_clique_hiding(CliqueHidingParams(base=path_graph(4), l=3, blocks=2), pp)


def test_block_count_must_match_input_length():
    pp = PromisePair(bits_from_string("101"), bits_from_string("010"), Disjoint())
    with pytest.raises(ParameterError):
        build_clique_hiding(CliqueHidingParams(base=path_graph(4), l=3, blocks=2), pp)
