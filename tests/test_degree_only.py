import random

import pytest

from commgraph.bits import BitVec
from commgraph.embeddings import DegreeOnlyEmbedding as build_degree_only
from commgraph.embeddings import DegreeOnlyParams
from commgraph.embeddings.base import UnsupportedQuery
from commgraph.graph import Degree, Neighbor, Pair, RandomEdge, validate_graph
from commgraph.promises import PromisePair, UniqueIntersection
from commgraph.protocols import ProtocolSession


def intersecting(n, k, hot=1):
    blocks = n // (3 * k)
    bits = [1 if j == hot else 0 for j in range(blocks)]
    v = BitVec.from_bits(bits)
    return build_degree_only(DegreeOnlyParams(n=n, k=k), PromisePair(v, v, UniqueIntersection()))


def disjoint(n, k):
    blocks = n // (3 * k)
    x = BitVec.from_bits([1] * blocks)
    y = BitVec(blocks)
    return build_degree_only(DegreeOnlyParams(n=n, k=k), PromisePair(x, y, UniqueIntersection()))


def test_disjoint_edge_count():
    g = disjoint(12, 2).materialize()
    assert validate_graph(g) == []
    assert g.m == 8  # n k / 3


def test_intersecting_edge_count():
    g = intersecting(12, 2).materialize()
    assert validate_graph(g) == []
    assert g.m == 16  # 2 n k / 3
    assert sum(g.degrees()) == 32  # handshake


def test_vw_degree_constant():
    for inst in (disjoint(12, 2), intersecting(12, 2)):
        for v in range(4, 12):
            assert inst.answer(Degree(v)).d == 2


def test_hot_block_degree():
    inst = intersecting(12, 2, hot=1)
    assert inst.answer(Degree(0)).d == 0  # cold U block
    assert inst.answer(Degree(2)).d == 8  # hot U block: 2n/3
    g = inst.materialize()
    assert g.degree(2) == 8 and g.degree(3) == 8


def test_disjoint_bipartite_blocks():
    g = disjoint(12, 2).materialize()
    # V_i x W_i complete bipartite: V = [4, 8), W = [8, 12)
    for i in range(2):
        for v in range(4 + 2 * i, 6 + 2 * i):
            for w in range(8 + 2 * i, 10 + 2 * i):
                assert g.has_edge(v, w)
    # U isolated
    assert all(g.degree(u) == 0 for u in range(4))


def test_only_degree_queries_supported():
    inst = intersecting(12, 2)
    assert inst.supported == {"degree"}
    with pytest.raises(UnsupportedQuery):
        inst.answer(Neighbor(4, 1))
    with pytest.raises(UnsupportedQuery):
        inst.answer(Pair(4, 8))
    with pytest.raises(UnsupportedQuery):
        inst.answer(RandomEdge(), rng=random.Random(0))


def test_a_protocol_pair_query_is_refused_with_no_bit_exchanged():
    # The pair rule reads the shared block, which is disjointness itself, so
    # it serves materialization only and must stay off the protocol path.
    assert "pair" not in build_degree_only.supported
    inst = intersecting(12, 2, hot=1)
    assert inst.materialize().has_edge(2, 4)
    session = ProtocolSession(inst, seed=1)
    with pytest.raises(UnsupportedQuery):
        session.simulate(Pair(2, 4))
    assert session.transcript.query_count == 0 and session.transcript.total_bits == 0


def test_padding_to_multiple_of_3k():
    inst = build_degree_only(
        DegreeOnlyParams(n=13, k=2),
        PromisePair(BitVec(3), BitVec(3), UniqueIntersection()),
    )
    assert inst.n == 18
    assert inst.pad == 5
    assert inst.blocks == 3
