"""Shared test utilities: independent query-comparison oracle and instance
samplers used by both the unit tests and the acceptance suite."""

from __future__ import annotations

import random

from commgraph.embeddings import lazy_answer
from commgraph.embeddings.base import Embedding
from commgraph.graph import Degree, Neighbor, Pair, answer_on_explicit
from commgraph.promises import (
    Disjoint,
    KIntersectOrDisjoint,
    UniqueIntersection,
    gen_promise_instance,
)


def compare_all_queries(inst: Embedding) -> int:
    """Compare lazy answers against the materialized graph for every degree
    query, every pair, and every meaningful neighbor index (all positions up
    to degree, two past the degree, and the maximal index, whose answers are
    the empty sentinel beyond the degree).  Returns the query count."""
    g = inst.materialize()
    assert g.n == inst.n
    checked = 0
    if "degree" in inst.supported:
        for v in range(g.n):
            assert lazy_answer(inst, Degree(v)) == answer_on_explicit(g, Degree(v)), (
                inst, v,
            )
            checked += 1
    if "neighbor" in inst.supported:
        top = g.n - 1
        for v in range(g.n):
            positions = set(range(1, min(g.degree(v) + 3, top + 1)))
            if top >= 1:
                positions.add(top)
                probe = random.Random(v * 31 + g.n)
                positions.update(probe.randint(1, top) for _ in range(2))
            for i in sorted(positions):
                a = lazy_answer(inst, Neighbor(v, i))
                b = answer_on_explicit(g, Neighbor(v, i))
                assert a == b, (inst, v, i, a, b)
                checked += 1
    if "pair" in inst.supported:
        for u in range(g.n):
            for v in range(g.n):
                a = lazy_answer(inst, Pair(u, v))
                b = answer_on_explicit(g, Pair(u, v))
                assert a == b, (inst, u, v, a, b)
                checked += 1
    return checked


def expand_runs(runs, n: int) -> list[int]:
    """Per-vertex degree list of ``(count, degree)`` runs over n vertices."""
    degrees = [d for count, d in runs for _ in range(count)]
    return degrees + [0] * (n - len(degrees))


def random_instance(kind: str, seed: int) -> Embedding:
    """A random small promise instance of the given kind (n <= 200)."""
    from commgraph.embeddings import (
        CliqueHidingParams,
        ConnectivityParams,
        DegreeOnlyParams,
        MomentsBlockParams,
        MomentsHidingParams,
        RCliqueParams,
        TriangleParams,
        CliqueHidingEmbedding as build_clique_hiding,
        ConnectivityEmbedding as build_connectivity,
        DegreeOnlyEmbedding as build_degree_only,
        MomentsBlockEmbedding as build_moments_block,
        MomentsHidingEmbedding as build_moments_hiding,
        RCliqueEmbedding as build_r_clique,
        TriangleEmbedding as build_triangle,
    )
    from commgraph.embeddings.moments_block import derive_block_shape
    from commgraph.families import lex_graph

    rng = random.Random(seed)
    if kind == "clique-hiding":
        l = rng.randint(1, 5)
        blocks = rng.randint(1, 6)
        base_n = rng.randint(1, 8)
        base_m = rng.randint(0, base_n * (base_n - 1) // 2)
        params = CliqueHidingParams(
            base=lex_graph(base_n, base_m),
            l=l,
            blocks=blocks,
            augment_connect=rng.random() < 0.5,
        )
        pp = gen_promise_instance(blocks, UniqueIntersection(), rng.getrandbits(64))
        return build_clique_hiding(params, pp)
    if kind == "triangle":
        l = rng.randint(1, 6)
        k = rng.randint(1, max(1, l * l // 2))
        s_size = rng.choice([None, rng.randint(1, 2 * l)])
        n = 4 * l + (s_size or l) + rng.randint(0, 6)
        pp = gen_promise_instance(l * l, KIntersectOrDisjoint(k), rng.getrandbits(64))
        return build_triangle(TriangleParams(l=l, k=k, n=n, s_size=s_size), pp)
    if kind == "r-clique":
        r = rng.randint(3, 6)
        l = rng.randint(1, 4)
        k = rng.randint(1, max(1, l * l // 2))
        budget = None
        if r >= 4 and rng.random() < 0.4:
            budget = rng.randint(1, l ** (r - 2))
        pp = gen_promise_instance(l * l, KIntersectOrDisjoint(k), rng.getrandbits(64))
        return build_r_clique(
            RCliqueParams(r=r, l=l, k=k, n=(r + 2) * l + rng.randint(0, 5),
                          s_clique_budget=budget),
            pp,
        )
    if kind == "connectivity":
        k = rng.randint(1, 3)
        l = rng.randint(2 * k, 2 * k + 4)
        n = 4 * l + rng.randint(0, 12)
        pp = gen_promise_instance(l * l, KIntersectOrDisjoint(k), rng.getrandbits(64))
        return build_connectivity(ConnectivityParams(k=k, l=l, n=n), pp)
    if kind == "degree-only":
        k = rng.randint(1, 4)
        blocks = rng.randint(1, 5)
        n = 3 * k * blocks
        pp = gen_promise_instance(blocks, UniqueIntersection(), rng.getrandbits(64))
        return build_degree_only(DegreeOnlyParams(n=n, k=k), pp)
    if kind == "moments-hiding":
        while True:
            s = rng.randint(1, 3)
            alpha = rng.randint(1, 3)
            c = rng.randint(1, 4)
            m_tilde = 2 * rng.randint(1, 10)
            blocks = rng.randint(1, 4)
            params = MomentsHidingParams(
                s=s, alpha=alpha, c=c, m_tilde=m_tilde, blocks=blocks
            )
            pp = gen_promise_instance(blocks, UniqueIntersection(), rng.getrandbits(64))
            inst = build_moments_hiding(params, pp)
            if inst.n <= 200:
                return inst
    if kind == "moments-block":
        params = _random_block_params(rng)
        shape = derive_block_shape(params)
        pp = gen_promise_instance(shape.blocks, UniqueIntersection(), rng.getrandbits(64))
        return build_moments_block(params, pp)
    raise ValueError(kind)


def _random_block_params(rng: random.Random):
    """Rejection-sample valid small moments-block parameters."""
    from commgraph.embeddings import MomentsBlockParams
    from commgraph.embeddings.base import ParameterError
    from commgraph.embeddings.moments_block import derive_block_shape

    for _ in range(10_000):
        s = rng.randint(1, 3)
        if rng.random() < 0.5:  # aim at the low-moment regime
            n_side = rng.randint(8, 60)
            c = rng.randint(2, 4)
            alpha = rng.randint(1, 4)
            m_tilde = rng.randint(n_side // 2 + 1, max(n_side, (n_side // c) ** s))
        else:  # aim at the high-moment regime
            n_side = rng.randint(2, 12)
            c = rng.randint(1, 4)
            alpha = rng.randint(1, 8)
            m_tilde = rng.randint(n_side**s + 1, 3 * n_side**s + 8)
        try:
            params = MomentsBlockParams(
                s=s, alpha=alpha, c=c, m_tilde=m_tilde, n_side=n_side
            )
            shape = derive_block_shape(params)
        except ParameterError:
            continue
        if 2 * n_side + alpha + shape.blocks * shape.w_size <= 200:
            return params
    raise RuntimeError("could not sample moments-block parameters")
