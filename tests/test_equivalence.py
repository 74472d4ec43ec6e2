import bisect
import random

import pytest

from commgraph.embeddings import lazy_answer
from commgraph.graph import EdgeIs, Pair, RandomEdge
from commgraph.presets import family
from commgraph.promises import gen_promise_instance

from helpers import compare_all_queries, random_instance

KINDS = [
    "clique-hiding",
    "triangle",
    "r-clique",
    "connectivity",
    "degree-only",
    "moments-hiding",
    "moments-block",
]


@pytest.mark.parametrize("kind", KINDS)
def test_lazy_matches_materialized(kind):
    rng = random.Random(sum(map(ord, kind)))
    for _ in range(15):
        inst = random_instance(kind, rng.getrandbits(64))
        assert inst.n <= 200
        assert compare_all_queries(inst) > 0


@pytest.mark.parametrize("kind", ["triangle", "r-clique", "connectivity"])
def test_random_edge_lands_on_real_edges(kind):
    rng = random.Random(13)
    for _ in range(5):
        inst = random_instance(kind, rng.getrandbits(64))
        g = inst.materialize()
        if g.m == 0:
            continue
        draw = random.Random(1)
        for _ in range(50):
            e = lazy_answer(inst, RandomEdge(), draw)
            assert e.u < e.v
            assert g.has_edge(e.u, e.v)


def test_pair_symmetry_property():
    rng = random.Random(17)
    for kind in KINDS:
        inst = random_instance(kind, rng.getrandbits(64))
        if "pair" not in inst.supported:
            continue
        for _ in range(50):
            u, v = rng.randrange(inst.n), rng.randrange(inst.n)
            assert lazy_answer(inst, Pair(u, v)) == lazy_answer(inst, Pair(v, u))


def test_gap_label_matches_comm_function():
    from commgraph.promises import disj, inter_k

    rng = random.Random(23)
    for kind in KINDS:
        for _ in range(10):
            inst = random_instance(kind, rng.getrandbits(64))
            if inst.comm_function == "disj":
                assert inst.gap_label() == disj(inst.pp.x, inst.pp.y)
            else:
                assert inst.gap_label() == inter_k(inst.pp.x, inst.pp.y, inst.pp.promise.k)


def reference_random_edge(inst, rng):
    """Cumulative per-vertex degree table, one randrange, bisect."""
    cumulative, total = [], 0
    for v in range(inst.n):
        total += inst.degree_of(v, inst.direct_joint)
        cumulative.append(total)
    t = rng.randrange(total)
    v = bisect.bisect_right(cumulative, t)
    offset = t - (cumulative[v - 1] if v else 0)
    w = inst.neighbor_of(v, offset + 1, inst.direct_joint)
    return EdgeIs(*sorted((v, w)))


@pytest.mark.parametrize("kind, flags", [
    ("triangle", dict(l=3, k=1)),
    ("triangle", dict(l=4, k=2, n=60)),
    ("triangle", dict(l=5, k=2, s_size=2, n=31)),
    ("r-clique", dict(r=4, l=3, k=1)),
    ("r-clique", dict(r=5, l=3, k=2, n=70)),
    ("r-clique", dict(r=4, l=4, k=1, s_clique_budget=1)),
    ("r-clique", dict(r=5, l=4, k=2, s_clique_budget=6, n=50)),
    ("connectivity", dict(k=1, l=2)),
    ("connectivity", dict(k=2, l=4, n=16)),
    ("connectivity", dict(k=2, l=4, n=21)),
    ("connectivity", dict(k=3, l=7, n=61)),
])
def test_random_edge_matches_cumulative_table_sampler(kind, flags):
    fam = family(kind, **flags)
    for seed in range(4):
        inst = fam.build(gen_promise_instance(fam.n_bits, fam.promise, seed))
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(100):
            assert inst.answer(RandomEdge(), None, ours) == reference_random_edge(inst, ref)
            assert ours.getstate() == ref.getstate()
