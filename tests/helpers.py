"""Shared test utilities: independent query-comparison oracle, reference
materialization, validation, min cut and edge-list writer, small named
graphs, distribution distances, and instance samplers used by both the
unit tests and the acceptance suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from commgraph.bits import BitVec
from commgraph.embeddings.base import Embedding
from commgraph.families import lex_graph
from commgraph.graph import Degree, ExplicitGraph, Neighbor, Pair, answer_on_explicit
from commgraph.presets import family
from commgraph.promises import (
    Disjoint,
    KIntersectOrDisjoint,
    UniqueIntersection,
    gen_promise_instance,
)
from commgraph.rng import derive_seed
from commgraph.verify import connected_components


# CLI flags of one small instance per kind; the grid and degree-only kinds
# are padded up to their minimum vertex count.
SMALL_KIND_FLAGS = {
    "clique-hiding": ["--l", "3", "--blocks", "4", "--augment-connect"],
    "triangle": ["--l", "3", "--k", "1", "--n", "10"],
    "r-clique": ["--r", "4", "--l", "3", "--k", "1", "--n", "12"],
    "connectivity": ["--k", "1", "--l", "3", "--n", "9"],
    "degree-only": ["--n", "10", "--k", "2"],
    "moments-hiding": ["--s", "2", "--alpha", "2", "--c", "1", "--m-tilde", "16",
                       "--blocks", "3"],
    "moments-block": ["--s", "2", "--alpha", "4", "--c", "4", "--m-tilde", "257",
                      "--n-side", "16"],
}


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
            assert inst.answer(Degree(v)) == answer_on_explicit(g, Degree(v)), (
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
                a = inst.answer(Neighbor(v, i))
                b = answer_on_explicit(g, Neighbor(v, i))
                assert a == b, (inst, v, i, a, b)
                checked += 1
    if "pair" in inst.supported:
        for u in range(g.n):
            for v in range(g.n):
                a = inst.answer(Pair(u, v))
                b = answer_on_explicit(g, Pair(u, v))
                assert a == b, (inst, u, v, a, b)
                checked += 1
    return checked


def materialize_by_position(inst: Embedding) -> ExplicitGraph:
    """Reference materialization: the lazy degree and neighbor rules read
    one position at a time, with a direct bit read per coordinate.
    Degree-only answers no neighbor queries, so its rows come from
    ``degree_only_neighbor``."""
    joint = inst.direct_joint
    if inst.kind == "degree-only":
        neighbor_of = lambda v, i, _: degree_only_neighbor(inst, v, i)  # noqa: E731
    else:
        neighbor_of = inst.neighbor_of
    adj = []
    for v in range(inst.n):
        d = inst.degree_of(v, joint)
        adj.append([neighbor_of(v, i, joint) for i in range(1, d + 1)])
    return ExplicitGraph(inst.n, adj)


def degree_only_neighbor(inst, v: int, i: int):
    """The i-th neighbor of v in a degree-only instance, position by
    position: V_b and W_b are completely joined when no block is hot,
    otherwise the hot block U_j is joined to all of V and W."""
    k, third, hot = inst.k, inst.third, inst._hot
    if hot is None:
        if v < third:
            return None
        in_v = v < 2 * third
        block = (v - (third if in_v else 2 * third)) // k
        partner_base = (2 * third if in_v else third) + block * k
        return partner_base + (i - 1) if i <= k else None
    if v < third:
        if v // k != hot:
            return None
        if i <= 2 * third:
            return third + (i - 1)
        return None
    return hot * k + (i - 1) if i <= k else None


def validate_by_neighbor(g: ExplicitGraph) -> list[str]:
    """Reference graph validation: every neighbor of every row in turn."""
    findings = []
    for v in range(g.n):
        seen = set()
        for w in g.adj[v]:
            if not 0 <= w < g.n:
                findings.append(f"vertex {v}: neighbor {w} out of range")
                continue
            if w == v:
                findings.append(f"vertex {v}: self-loop")
            if w in seen:
                findings.append(f"vertex {v}: duplicate neighbor {w}")
            seen.add(w)
        for w in seen:
            if 0 <= w < g.n and w != v and v not in set(g.adj[w]):
                findings.append(f"asymmetry: {v} lists {w} but not conversely")
    return findings


def dump_by_str(g: ExplicitGraph) -> str:
    """Reference edge-list writer: every id formatted by ``str`` where it
    is written."""
    lines = [f"n {g.n}"]
    lines += [f"{v}: {' '.join(map(str, row))}" if row else f"{v}:" for v, row in enumerate(g.adj)]
    return "\n".join(lines) + "\n"


def instance_on_side(kind: str, intersecting: bool, **flags) -> Embedding:
    """The instance of ``family(kind, **flags)`` built from the first promise
    pair on the given side over seeds 0, 1, 2, ..."""
    fam = family(kind, **flags)
    seed = 0
    while (pp := gen_promise_instance(fam.n_bits, fam.promise, seed)).intersecting != intersecting:
        seed += 1
    return fam.build(pp)


def bits_from_string(s: str) -> BitVec:
    """The bit vector written as a string of 0s and 1s."""
    return BitVec.from_bits(int(ch) for ch in s)


def induced_subgraph(g: ExplicitGraph, vertices: Sequence[int]) -> ExplicitGraph:
    """Induced subgraph, vertices relabeled 0..k-1 in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    adj = [[index[w] for w in g.adj[v] if w in index] for v in vertices]
    return ExplicitGraph(len(vertices), adj)


def matching_graph(pairs: int) -> ExplicitGraph:
    """A perfect matching on 2*pairs vertices: edges (0,1), (2,3), ..."""
    adj = []
    for v in range(2 * pairs):
        adj.append([v + 1] if v % 2 == 0 else [v - 1])
    return ExplicitGraph(2 * pairs, adj)


def complete_graph(n: int) -> ExplicitGraph:
    return lex_graph(n, n * (n - 1) // 2)


def complete_bipartite_graph(a: int, b: int) -> ExplicitGraph:
    """K_{a,b}: side one is vertices [0, a), side two is [a, a+b)."""
    adj = [[a + j for j in range(b)] for _ in range(a)]
    adj += [list(range(a)) for _ in range(b)]
    return ExplicitGraph(a + b, adj)


def cycle_graph(n: int) -> ExplicitGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    adj = [sorted(((v - 1) % n, (v + 1) % n)) for v in range(n)]
    return ExplicitGraph(n, adj)


def star_graph(leaves: int) -> ExplicitGraph:
    """K_{1,leaves} with the center at vertex 0."""
    adj = [list(range(1, leaves + 1))] + [[0] for _ in range(leaves)]
    return ExplicitGraph(leaves + 1, adj)


def tvd(p: dict, q: dict) -> Fraction:
    """Total variation distance between two distributions on the same keys."""
    if set(p) != set(q):
        raise ValueError("distributions have mismatched universes")
    total = Fraction(0)
    for key, pv in p.items():
        total += abs(Fraction(pv) - Fraction(q[key]))
    return total / 2


def empirical_distribution(counts: dict, total: int) -> dict:
    return {k: Fraction(c, total) for k, c in counts.items()}


def uniform_distribution(keys) -> dict:
    keys = list(keys)
    return {k: Fraction(1, len(keys)) for k in keys}


def approx_checker(
    estimator: Callable[[random.Random], float],
    truth: float,
    epsilon: float,
    trials: int,
    seed: int,
) -> tuple[float, bool]:
    """Empirical check of a (1 +/- epsilon) approximation at the standard 2/3
    success level, with binomial slack at 95% confidence."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if trials < 30:
        raise ValueError("need at least 30 trials")
    rng = random.Random(derive_seed(seed))
    hits = 0
    for _ in range(trials):
        est = estimator(random.Random(rng.getrandbits(64)))
        if abs(est - truth) <= epsilon * truth:
            hits += 1
    rate = hits / trials
    slack = 1.96 * math.sqrt((2.0 / 9.0) / trials)
    return rate, rate >= 2.0 / 3.0 - slack


def random_graph(rng: random.Random, n: int, p: float) -> ExplicitGraph:
    """G(n, p): each pair joined independently with probability p."""
    adj = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return ExplicitGraph(n, adj)


def stoer_wagner_min_cut(g: ExplicitGraph) -> int:
    """Reference global edge min cut (Stoer-Wagner, O(n^3)); 0 iff the
    graph is disconnected or has fewer than two vertices."""
    if g.n < 2 or connected_components(g) > 1:
        return 0
    weights: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}
    for u, v in g.edges():
        weights[u][v] = weights[u].get(v, 0) + 1
        weights[v][u] = weights[v].get(u, 0) + 1
    active = list(range(g.n))
    best = None
    while len(active) > 1:
        # maximum-adjacency order; the last vertex's attachment is a cut
        start = active[0]
        in_order = {start}
        attach = dict(weights[start])
        order = [start]
        while len(order) < len(active):
            nxt = max(
                (v for v in active if v not in in_order),
                key=lambda v: attach.get(v, 0),
            )
            order.append(nxt)
            in_order.add(nxt)
            for w, wt in weights[nxt].items():
                if w not in in_order:
                    attach[w] = attach.get(w, 0) + wt
        s, t = order[-2], order[-1]
        phase_cut = sum(weights[t].values())
        if best is None or phase_cut < best:
            best = phase_cut
        # contract t into s
        for w, wt in weights[t].items():
            if w == s:
                continue
            weights[s][w] = weights[s].get(w, 0) + wt
            weights[w][s] = weights[w].get(s, 0) + wt
            del weights[w][t]
        weights[s].pop(t, None)
        del weights[t]
        active.remove(t)
    return best if best is not None else 0


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
        l = rng.randint(2, 5)
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
