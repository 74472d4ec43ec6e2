"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import random
from fractions import Fraction

from commgraph.bits import BitVec
from commgraph.embeddings import (
    MomentsBlockParams,
    MomentsHidingParams,
    TriangleParams,
    MomentsBlockEmbedding as build_moments_block,
    MomentsHidingEmbedding as build_moments_hiding,
    TriangleEmbedding as build_triangle,
)
from commgraph.experiments import (
    distinguisher_by_name,
    edge_sampling_amplifier,
    loglog_slope,
    minimal_budget,
    run_distinguisher_trials,
)
from commgraph.graph import RandomEdge
from commgraph.presets import clique_hiding_family
from commgraph.promises import (
    KIntersectOrDisjoint,
    PromisePair,
    UniqueIntersection,
    disj,
    gen_promise_instance,
    inter_k,
    replicate_input,
)
from commgraph.protocols import ProtocolSession
from commgraph.rng import derive_seed
from commgraph.verify import (
    check_alpha_bounds,
    connected_components,
    count_r_cliques,
    count_triangles,
    densest_subgraph_bruteforce,
    min_cut,
    moment,
    verify_instance,
)

from helpers import (
    compare_all_queries,
    empirical_distribution,
    induced_subgraph,
    random_instance,
    tvd,
    uniform_distribution,
)

ALL_KINDS = [
    "clique-hiding",
    "triangle",
    "r-clique",
    "connectivity",
    "degree-only",
    "moments-hiding",
    "moments-block",
]

B2_KINDS = ALL_KINDS  # every construction's queries cost at most 2 bits


def _announce(criterion: int, text: str):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_lazy_materialized_equivalence():
    total = 0
    for kind in ALL_KINDS:
        rng = random.Random(derive_seed(1, sum(map(ord, kind))))
        for _ in range(100):
            inst = random_instance(kind, rng.getrandbits(64))
            assert inst.n <= 200
            total += compare_all_queries(inst)
    _announce(1, f"7 embeddings x 100 instances, {total} query comparisons, 0 mismatches")


def test_criterion_2_exact_gap_certification():
    # triangle l=4, k=2
    bits = [0] * 16
    bits[1] = bits[14] = 1
    vec = BitVec.from_bits(bits)
    tri = build_triangle(
        TriangleParams(l=4, k=2), PromisePair(vec, vec, KIntersectOrDisjoint(2))
    )
    g = tri.materialize()
    assert g.m == 64
    assert count_triangles(g) == 8
    zero = BitVec(16)
    tri0 = build_triangle(
        TriangleParams(l=4, k=2), PromisePair(zero, zero, KIntersectOrDisjoint(2))
    )
    assert count_triangles(tri0.materialize()) == 0

    # r-clique r=4, l=3, k=2
    from commgraph.embeddings import RCliqueParams, RCliqueEmbedding as build_r_clique

    bits = [0] * 9
    bits[0] = bits[5] = 1
    vec = BitVec.from_bits(bits)
    rc = build_r_clique(
        RCliqueParams(r=4, l=3, k=2), PromisePair(vec, vec, KIntersectOrDisjoint(2))
    )
    g = rc.materialize()
    assert g.m == 63
    assert count_r_cliques(g, 4) == 18

    # connectivity k=2, l=4, n=20
    from commgraph.embeddings import ConnectivityEmbedding as build_connectivity
    from commgraph.embeddings import ConnectivityParams

    bits = [0] * 16
    bits[2] = bits[11] = 1
    vec = BitVec.from_bits(bits)
    conn = build_connectivity(
        ConnectivityParams(k=2, l=4, n=20), PromisePair(vec, vec, KIntersectOrDisjoint(2))
    )
    assert min_cut(conn.materialize()) >= 2
    zero16 = BitVec(16)
    conn0 = build_connectivity(
        ConnectivityParams(k=2, l=4, n=20),
        PromisePair(zero16, zero16, KIntersectOrDisjoint(2)),
    )
    assert connected_components(conn0.materialize()) >= 2

    # degree-only n=12, k=2
    from commgraph.embeddings import DegreeOnlyParams, DegreeOnlyEmbedding as build_degree_only

    hot = BitVec.from_bits([1, 0])
    d_hot = build_degree_only(
        DegreeOnlyParams(n=12, k=2), PromisePair(hot, hot, UniqueIntersection())
    )
    cold_x, cold_y = BitVec.from_bits([1, 0]), BitVec.from_bits([0, 1])
    d_cold = build_degree_only(
        DegreeOnlyParams(n=12, k=2), PromisePair(cold_x, cold_y, UniqueIntersection())
    )
    assert d_hot.materialize().m == 16
    assert d_cold.materialize().m == 8

    # moments-hiding s=2, alpha=2, c=2, m_tilde=16
    hot2 = BitVec.from_bits([0, 1])
    mh = build_moments_hiding(
        MomentsHidingParams(s=2, alpha=2, c=2, m_tilde=16, blocks=2),
        PromisePair(hot2, hot2, UniqueIntersection()),
    )
    g = mh.materialize()
    block = induced_subgraph(g, mh.block_vertices(1))
    assert moment(block, 2) == 48
    assert densest_subgraph_bruteforce(block) == 2
    _announce(
        2,
        "triangle m=64/C3=8 (0 disjoint), r-clique m=63/C4=18, "
        "connectivity cut>=2 / >=2 components, degree-only m in {8,16}, "
        "moments block M2=48 with densest-subgraph 2 (all exact)",
    )


def test_criterion_3_bit_accounting_fuzz():
    rng = random.Random(3_000)
    checked = 0
    free_seen = 0
    for kind in B2_KINDS:
        for _ in range(1000):
            inst = random_instance(kind, rng.getrandbits(64))
            sess = ProtocolSession(inst, seed=rng.getrandbits(64))
            from commgraph.graph import Degree, Neighbor, Pair

            for _ in range(8):
                v = rng.randrange(inst.n)
                roll = rng.random()
                if "neighbor" in inst.supported and roll < 0.35 and inst.n > 1:
                    q = Neighbor(v, rng.randrange(1, inst.n))
                elif "pair" in inst.supported and roll < 0.7:
                    q = Pair(v, rng.randrange(inst.n))
                elif "random_edge" in inst.supported and roll < 0.85:
                    q = RandomEdge()
                else:
                    q = Degree(v)
                sess.simulate(q)
            assert sess.transcript.max_bits_per_query <= 2, (kind, inst)
            free_seen += sum(e.bits == 0 for e in sess.transcript.entries)
            checked += sess.transcript.query_count
    assert free_seen > 0  # input-independent queries really cost 0
    _announce(3, f"{checked} fuzzed queries across 7 kinds, max 2 bits per query")


def test_criterion_4_uniform_edge_sampling_tvd():
    for side, seed in (("intersecting", 41), ("disjoint", 42)):
        if side == "intersecting":
            bits = [0] * 36
            for c in (3, 17, 30):
                bits[c] = 1
            vec = BitVec.from_bits(bits)
            pp = PromisePair(vec, vec, KIntersectOrDisjoint(3))
        else:
            zero = BitVec(36)
            pp = PromisePair(zero, zero, KIntersectOrDisjoint(3))
        inst = build_triangle(TriangleParams(l=6, k=3), pp)
        g = inst.materialize()
        edges = g.edges()
        assert len(edges) == 144  # 4 l^2
        rng = random.Random(seed)
        counts = {e: 0 for e in edges}
        draws = 100_000
        for _ in range(draws):
            e = inst.answer(RandomEdge(), rng=rng)
            counts[(e.u, e.v)] += 1
        dist = tvd(
            empirical_distribution(counts, draws), uniform_distribution(edges)
        )
        assert dist <= Fraction(2, 100), (side, float(dist))
    _announce(4, "triangle l=6 both sides: 1e5 draws, TVD from uniform <= 0.02")


def test_criterion_5_amplifier_error_rate():
    rng = random.Random(55)
    hidden = set(range(10))
    inside = [(u, u + 1) for u in range(0, 9)]  # 9 edges inside the region
    outside = [(20 + u, 21 + u) for u in range(0, 9)]  # 9 edges outside
    universe = inside + outside  # hidden fraction exactly 1/2

    def sampler():
        return universe[rng.randrange(len(universe))]

    errors = 0
    runs = 10_000
    for _ in range(runs):
        errors += edge_sampling_amplifier(sampler, lambda v: v in hidden) == 1
    rate = errors / runs
    assert rate <= 1 / 3
    assert rate <= (5 / 6) ** 7 + 0.01
    _announce(5, f"amplifier 0-side error {rate:.4f} <= 1/3 over {runs} runs")


def test_criterion_6_threshold_scaling():
    d = distinguisher_by_name("pair-probe")
    points = []
    for N in (16, 32, 64, 128, 256):
        family = clique_hiding_family(blocks=N, l=2, base_n=2, base_m=1)
        t_star, _ = minimal_budget(family, d, trials=400, seed=202_406)
        assert t_star is not None
        points.append((float(N), float(t_star)))
    slope = loglog_slope(points)
    assert abs(slope - 1.0) <= 0.2, points

    family = clique_hiding_family(blocks=256, l=2, base_n=2, base_m=1)
    row = run_distinguisher_trials(family, d, budget=256 // 8, trials=2000, seed=77)
    assert row.success <= 0.62
    assert row.max_bits_per_query <= 2
    _announce(
        6,
        f"T*(N) log-log slope {slope:.3f} within 1.0 +/- 0.2; "
        f"success {row.success:.3f} <= 0.62 at T=N/8, N=256",
    )


def test_criterion_7_alpha_bounds_on_moments_instances():
    instances = []
    # the criterion-2 hiding parameters, both sides (witness-interval scale)
    for hot in (None, 1):
        bits = [1 if j == hot else 0 for j in range(2)]
        vec = BitVec.from_bits(bits)
        instances.append(
            build_moments_hiding(
                MomentsHidingParams(s=2, alpha=2, c=2, m_tilde=16, blocks=2),
                PromisePair(vec, vec, UniqueIntersection()),
            )
        )
    # a small hiding instance within exact Nash-Williams range (n <= 20)
    for hot in (None, 0):
        bits = [1 if j == hot else 0 for j in range(2)]
        vec = BitVec.from_bits(bits)
        inst = build_moments_hiding(
            MomentsHidingParams(s=2, alpha=1, c=2, m_tilde=4, blocks=2),
            PromisePair(vec, vec, UniqueIntersection()),
        )
        assert inst.n <= 20
        instances.append(inst)
    # every rerouted-block regime, both sides
    for params in (
        dict(s=2, alpha=2, c=4, m_tilde=1024, n_side=128),
        dict(s=2, alpha=3, c=4, m_tilde=1024, n_side=128),
        dict(s=2, alpha=4, c=4, m_tilde=257, n_side=16),
        dict(s=2, alpha=5, c=4, m_tilde=257, n_side=16),
    ):
        p = MomentsBlockParams(**params)
        from commgraph.embeddings.moments_block import derive_block_shape

        blocks = derive_block_shape(p).blocks
        for hot in (None, 0):
            bits = [1 if j == hot else 0 for j in range(blocks)]
            vec = BitVec.from_bits(bits)
            instances.append(
                build_moments_block(p, PromisePair(vec, vec, UniqueIntersection()))
            )
    # random moment instances with s >= 2
    rng = random.Random(7_000)
    for kind in ("moments-hiding", "moments-block"):
        picked = 0
        while picked < 20:
            inst = random_instance(kind, rng.getrandbits(64))
            if inst.s < 2:
                continue
            picked += 1
            instances.append(inst)
    for inst in instances:
        report = check_alpha_bounds(inst.materialize(), inst.s)
        assert report.passed, (inst, report)
    _announce(
        7, f"alpha bounds hold (exact rationals) on {len(instances)} moments instances"
    )


def test_criterion_8_replication_reduction():
    violations = 0
    for t in range(1000):
        k = (2, 3, 5, 7)[t % 4]
        pp = gen_promise_instance(8, UniqueIntersection(), derive_seed(8, t))
        xr, yr = replicate_input(pp.x, k), replicate_input(pp.y, k)
        if (xr & yr).popcount() not in (0, k):
            violations += 1
        if inter_k(xr, yr, k) != 1 - disj(pp.x, pp.y):
            violations += 1
        PromisePair(xr, yr, KIntersectOrDisjoint(k))  # must not raise
    assert violations == 0
    _announce(8, "1000 replicated pairs: {0,k} promise and INTER_k = NOT DISJ, 0 violations")


def test_gap_certification_suite_spot_check():
    # one verified instance per kind per side through the full verifier suite
    rng = random.Random(1234)
    for kind in ALL_KINDS:
        seen = set()
        while len(seen) < 2:
            inst = random_instance(kind, rng.getrandbits(64))
            if kind == "r-clique" and inst.r >= 5 and inst.l >= 4:
                continue
            seen.add(inst.pp.intersecting)
            reports = verify_instance(inst)
            assert all(r.passed for r in reports), (kind, reports)
