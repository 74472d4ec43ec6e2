import pytest

from commgraph.bits import BitVec
from commgraph.embeddings import (
    MomentsBlockParams,
    MomentsHidingParams,
    MomentsBlockEmbedding as build_moments_block,
    MomentsHidingEmbedding as build_moments_hiding,
    lazy_answer,
)
from commgraph.embeddings.base import ParameterError
from commgraph.embeddings.moments_block import derive_block_shape
from commgraph.embeddings.moments_hiding import _least_power_at_least
from commgraph.families import complete_bipartite_graph
from commgraph.graph import Degree, validate_graph
from commgraph.presets import moments_hiding_family
from commgraph.promises import PromisePair, UniqueIntersection
from commgraph.verify import densest_subgraph_bruteforce, moment


def hiding_pair(blocks, hot=None):
    bits = [1 if j == hot else 0 for j in range(blocks)]
    v = BitVec.from_bits(bits)
    return PromisePair(v, v, UniqueIntersection())


# --- hidden complete bipartite blocks ---------------------------------------


def test_block_shape_and_moment():
    inst = build_moments_hiding(
        MomentsHidingParams(s=2, alpha=2, c=2, m_tilde=16, blocks=2), hiding_pair(2, hot=1)
    )
    assert inst.p == 4  # least p with alpha p^s >= c m_tilde: 2 * 16 = 32 <= 2 p^2
    assert inst.block_moment() == 48  # 2*4^2*... = alpha p^s + p alpha^s = 32 + 16
    g = inst.materialize()
    assert validate_graph(g) == []
    assert moment(g, 2) == 16 + 48
    # the active block really is K_{4,2}
    block = g.induced_subgraph(inst.block_vertices(1))
    reference = complete_bipartite_graph(4, 2)
    assert sorted(map(sorted, block.edges())) == sorted(map(sorted, reference.edges()))


def test_block_arboricity_is_alpha():
    # the hidden block decomposes into alpha stars: exact arboricity 2
    assert densest_subgraph_bruteforce(complete_bipartite_graph(4, 2)) == 2


def test_disjoint_moment_unchanged():
    inst = build_moments_hiding(
        MomentsHidingParams(s=2, alpha=2, c=2, m_tilde=16, blocks=2), hiding_pair(2)
    )
    g = inst.materialize()
    assert moment(g, 2) == 16
    assert inst.gap_label() == 1


def test_intersecting_moment_exceeds_gap():
    inst = build_moments_hiding(
        MomentsHidingParams(s=2, alpha=2, c=2, m_tilde=16, blocks=3), hiding_pair(3, hot=0)
    )
    g = inst.materialize()
    assert moment(g, 2) >= (1 + 2) * 16
    assert inst.gap_label() == 0


def test_base_moment_must_match():
    base = complete_bipartite_graph(2, 2)  # M_2 = 16, deliberately mismatched
    with pytest.raises(ParameterError):
        build_moments_hiding(
            MomentsHidingParams(s=2, alpha=1, c=1, m_tilde=10, blocks=1, base=base),
            hiding_pair(1),
        )


def test_odd_m_tilde_needs_explicit_base():
    with pytest.raises(ParameterError):
        build_moments_hiding(
            MomentsHidingParams(s=1, alpha=1, c=1, m_tilde=3, blocks=1), hiding_pair(1)
        )
    base = complete_bipartite_graph(1, 1)  # single edge: M_1 = 2... use a path for 3?
    # a 3-vertex path has degrees 1,2,1: M_1 = 4; build an explicit M_1 = 3 is
    # impossible (handshake), so the parameter error above is the contract.


def test_family_builds_share_one_default_base():
    fam = moments_hiding_family(s=2, alpha=2, c=2, m_tilde=16, blocks=2)
    first, second = fam.build(hiding_pair(2, hot=1)), fam.build(hiding_pair(2))
    assert first.base is second.base
    assert first.base_family == {"kind": "matching", "pairs": 8}


def test_least_power_matches_count_up():
    for alpha in (1, 2, 3, 7):
        for s in (1, 2, 3, 5):
            for target in [*range(1, 400), 10**6, 10**6 + 1]:
                p = 1
                while alpha * p**s < target:
                    p += 1
                assert _least_power_at_least(alpha, s, target) == p, (alpha, s, target)


# --- rerouted-block construction ---------------------------------------------


LOW = dict(s=2, alpha=2, c=4, m_tilde=1024, n_side=128)  # low-moment, subcase 1
LOW2 = dict(s=2, alpha=3, c=4, m_tilde=1024, n_side=128)  # low-moment, subcase 2
HIGH1 = dict(s=2, alpha=4, c=4, m_tilde=257, n_side=16)  # high-moment, subcase 1
HIGH2 = dict(s=2, alpha=5, c=4, m_tilde=257, n_side=16)  # high-moment, subcase 2


def block_pair(params_dict, hot=None):
    shape = derive_block_shape(MomentsBlockParams(**params_dict))
    return hiding_pair(shape.blocks, hot)


@pytest.mark.parametrize("params", [LOW, LOW2, HIGH1, HIGH2])
def test_shapes_and_exact_moments(params):
    p = MomentsBlockParams(**params)
    shape = derive_block_shape(p)
    for hot in (None, 0, shape.blocks - 1):
        inst = build_moments_block(p, block_pair(params, hot))
        g = inst.materialize()
        assert validate_graph(g) == []
        assert g.m == inst.edge_count()
        assert moment(g, inst.s) == inst.expected_moment()


def test_low_moment_shape():
    inst = build_moments_block(MomentsBlockParams(**LOW), block_pair(LOW))
    assert inst.case == "low-moment"
    assert inst.subcase == 1
    assert inst.d == 2 and inst.l == 1 and inst.w_size == 4
    assert inst.blocks == 2


def test_low_moment_subcase2_uses_floor_root():
    inst = build_moments_block(MomentsBlockParams(**LOW2), block_pair(LOW2))
    assert inst.subcase == 2
    assert inst.d == 2  # floor((1024/128)^(1/2)) = floor(2.83)


def test_high_moment_regime_is_complete_bipartite():
    params = MomentsBlockParams(**HIGH2)
    inst = build_moments_block(params, block_pair(HIGH2, hot=0))
    assert inst.case == "high-moment"
    assert inst.l == inst.w_size  # rerouted block joins W_j to all of A+B
    g = inst.materialize()
    w_start = inst.w0
    for z in range(inst.w_size):
        assert g.degree(w_start + z) == 2 * inst.n_side


def test_rerouted_degrees():
    params = MomentsBlockParams(**LOW)
    inst = build_moments_block(params, block_pair(LOW, hot=1))
    # A+B keep degree d on both sides
    for v in (0, inst.n_side, 2 * inst.n_side - 1):
        assert lazy_answer(inst, Degree(v)).d == inst.d
    # active W vertices have degree 2 n l / w_size, inactive 0
    active = inst.w0 + inst.w_size  # block 1 starts here
    assert lazy_answer(inst, Degree(active)).d == inst.chunk_size
    assert lazy_answer(inst, Degree(inst.w0)).d == 0
    assert (2 * inst.n_side * inst.l) % inst.w_size == 0


def test_clique_contribution_is_exact():
    # the always-on clique contributes alpha*(alpha-1)^s, not alpha^(s+1)
    params = MomentsBlockParams(**HIGH2)
    inst = build_moments_block(params, block_pair(HIGH2))
    g = inst.materialize()
    clique = range(inst.r0, inst.w0)
    assert sum(g.degree(v) ** 2 for v in clique) == 5 * 4**2


def test_middle_band_rejected():
    with pytest.raises(ParameterError):
        derive_block_shape(MomentsBlockParams(s=2, alpha=2, c=4, m_tilde=200, n_side=16))


def test_high_moment_requires_d_above_l():
    # alpha = 2 gives d = 2 = l in the high-moment regime: rejected
    with pytest.raises(ParameterError):
        derive_block_shape(MomentsBlockParams(s=2, alpha=2, c=4, m_tilde=257, n_side=16))


def test_gap_ratio_between_sides():
    for params in (LOW, LOW2, HIGH1, HIGH2):
        inst = build_moments_block(MomentsBlockParams(**params), block_pair(params))
        quiet, loud = inst.moment_both_sides()
        assert 3 * loud >= inst.c * quiet  # intersecting/disjoint ratio >= c/3


def test_bipartite_part_degrees_invariant_across_inputs():
    import random

    from commgraph.promises import gen_promise_instance

    p = MomentsBlockParams(**HIGH1)
    shape = derive_block_shape(p)
    base = None
    rng = random.Random(6)
    for _ in range(20):
        pp = gen_promise_instance(shape.blocks, UniqueIntersection(), rng.getrandbits(64))
        inst = build_moments_block(p, pp)
        degs = inst.materialize().degrees()[: 2 * inst.n_side]
        assert all(d == inst.d for d in degs)
        if base is None:
            base = degs
        assert degs == base
