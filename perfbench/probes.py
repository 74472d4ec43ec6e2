"""Scaling probes: the per-operation time of one layer at three or more sizes,
reduced to a log-log slope with ``commgraph.experiments.loglog_slope``.

A slope near 0 means the layer's cost is flat in the size, 1 linear, 2
quadratic.  Each point is the median of three timed batches.
"""

from __future__ import annotations

import random
import statistics
import time

from commgraph.bits import BitVec
from commgraph.experiments import loglog_slope
from commgraph.graph import Pair, RandomEdge
from commgraph.presets import clique_hiding_family, connectivity_family, triangle_family
from commgraph.promises import UniqueIntersection, gen_promise_instance
from commgraph.verify import min_cut

REPEATS = 3


def _seconds_per_op(batch, ops: int) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        batch()
        times.append((time.perf_counter() - start) / ops)
    return statistics.median(times)


def _instance(family, seed: int, intersecting=None):
    attempt = 0
    while True:
        pp = gen_promise_instance(family.n_bits, family.promise, seed + attempt)
        if intersecting is None or pp.intersecting == intersecting:
            return family.build(pp)
        attempt += 1


def probe_gen(rng):
    def point(n_bits):
        seed = rng.getrandbits(32)
        return n_bits, _seconds_per_op(
            lambda: gen_promise_instance(n_bits, UniqueIntersection(), seed), 1)
    return [point(n) for n in (5_000, 10_000, 20_000, 40_000)]


def probe_getitem(rng):
    def point(n_bits):
        bits = BitVec(n_bits, rng.getrandbits(n_bits))
        idx = [rng.randrange(n_bits) for _ in range(2_000)]
        return n_bits, _seconds_per_op(lambda: [bits[i] for i in idx], len(idx))
    return [point(n) for n in (10**3, 10**4, 10**5, 10**6)]


def probe_random_edge(rng):
    def point(n):
        inst = _instance(triangle_family(l=10, k=2, n=n), rng.getrandbits(32))
        draws = random.Random(rng.getrandbits(32))
        return inst.n, _seconds_per_op(
            lambda: [inst.answer(RandomEdge(), None, draws) for _ in range(100)], 100)
    return [point(n) for n in (150, 1_500, 15_000)]


def probe_pair(rng):
    def point(blocks):
        inst = _instance(clique_hiding_family(blocks=blocks, l=2), rng.getrandbits(32))
        pairs = [Pair(2 * j, 2 * j + 1) for j in (rng.randrange(blocks) for _ in range(2_000))]
        return inst.n, _seconds_per_op(lambda: [inst.answer(q) for q in pairs], len(pairs))
    return [point(b) for b in (100, 1_000, 10_000)]


def probe_min_cut(rng):
    def point(l):
        g = _instance(connectivity_family(k=3, l=l), rng.getrandbits(32), True).materialize()
        return g.n, _seconds_per_op(lambda: min_cut(g), 1)
    return [point(l) for l in (6, 12, 24)]


PROBES = {
    "promises.gen.exp_N": probe_gen,
    "bits.getitem.exp_N": probe_getitem,
    "embeddings.random_edge.exp_n": probe_random_edge,
    "embeddings.pair.exp_n": probe_pair,
    "verify.min_cut.exp_n": probe_min_cut,
}


def run_probes(seed: int) -> dict:
    """Slope and points of every probe, inputs drawn from ``seed``."""
    rng = random.Random(seed)
    out = {}
    for name, probe in PROBES.items():
        points = probe(rng)
        out[name] = {"slope": loglog_slope(points), "points": points}
    return out
