"""Independent exact verifiers for every gap claim.

Every kernel here works on materialized graphs with exact integer or
rational arithmetic; no floating point.  These are the second route
against which the constructions' analytic claims (``Embedding.claims``,
which call them) are certified, so none of them share code with the lazy
rules.  ``verify_instance`` checks the graph, then reports those claims.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .graph import ExplicitGraph, dump_edge_list, load_edge_list, validate_graph

if TYPE_CHECKING:  # the constructions import this module for their claims
    from .embeddings.base import Embedding


class VerifyBudgetExceeded(RuntimeError):
    """Exact enumeration refused above desk scale; message carries progress."""


@dataclass
class VerificationReport:
    quantity: str
    value: Union[int, tuple]
    claim: str
    passed: bool

    def to_json(self) -> dict:
        value = self.value
        if isinstance(value, tuple):
            value = list(value)
        return {
            "quantity": self.quantity,
            "value": value,
            "claim": self.claim,
            "pass": self.passed,
        }


def count_triangles(g: ExplicitGraph) -> int:
    """Exact triangle count via neighbor-set intersections over edges."""
    higher = [frozenset(w for w in g.adj[v] if w > v) for v in range(g.n)]
    total = 0
    for v in range(g.n):
        for w in higher[v]:
            total += len(higher[v] & higher[w])
    return total


def count_r_cliques(g: ExplicitGraph, r: int, budget: int = 20_000_000) -> int:
    """Exact r-clique count over forward neighbourhoods in degeneracy order
    (Chiba-Nishizeki), on bitsets.

    Each clique is counted once, from its first vertex v in the peel order,
    as an (r-1)-clique of v's forward neighbours (at most the degeneracy
    of them).  Those are greedily coloured and relabelled 0..d-1 by colour
    class, so every clique's labels rise with its colours, and each gets a
    d-bit mask of its higher-labelled neighbours.  Candidate sets shrink
    by ``&``; a candidate is only picked while enough colours remain above
    it to finish a clique, and the last vertex is counted by
    ``bit_count``.  Each partial clique whose candidates are scanned costs
    one step of ``budget``; past it the count refuses with the progress so
    far.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return g.n
    if r == 2:
        return g.m
    order, rank, _ = _core_decomposition(g)
    # forward[v]: v's neighbours later in the peel order
    forward: list[list[int]] = [[] for _ in range(g.n)]
    for v in order:
        for w in g.adj[v]:
            if rank[w] < rank[v]:
                forward[w].append(v)
    count = 0
    steps = 0

    def extend(candidates: int, masks: list[int], pickable: list[int], missing: int) -> None:
        # count the cliques that add ``missing`` >= 2 vertices from ``candidates``
        nonlocal count, steps
        steps += 1
        if steps > budget:
            raise VerifyBudgetExceeded(
                f"r-clique enumeration budget exceeded after counting {count}"
            )
        picks = candidates & pickable[missing]
        while picks:
            low = picks & -picks
            picks ^= low
            nxt = candidates & masks[low.bit_length() - 1]
            if missing == 2:
                count += nxt.bit_count()
            elif nxt.bit_count() >= missing - 1:
                extend(nxt, masks, pickable, missing - 1)

    for v in order:
        row = forward[v]
        if len(row) < r - 1:
            continue
        local = {w: j for j, w in enumerate(row)}
        adjacent = [0] * len(row)
        for j, w in enumerate(row):
            for x in forward[w]:
                i = local.get(x)
                if i is not None:
                    adjacent[j] |= 1 << i
                    adjacent[i] |= 1 << j
        # greedy colouring, one independent class at a time
        by_colour: list[int] = []
        class_ends: list[int] = []
        uncoloured = (1 << len(row)) - 1
        while uncoloured:
            free = uncoloured
            while free:
                low = free & -free
                j = low.bit_length() - 1
                by_colour.append(j)
                uncoloured ^= low
                free &= ~adjacent[j] & ~low
            class_ends.append(len(by_colour))
        colours = len(class_ends)
        if colours < r - 1:
            continue
        label = [0] * len(row)
        for new, j in enumerate(by_colour):
            label[j] = new
        masks = []
        for new, j in enumerate(by_colour):
            mask, rest = 0, adjacent[j]
            while rest:
                low = rest & -rest
                rest ^= low
                mask |= 1 << label[low.bit_length() - 1]
            masks.append(mask >> (new + 1) << (new + 1))
        # pickable[k]: the labels with at least k - 1 colour classes above
        pickable = [0] + [
            (1 << class_ends[colours - k]) - 1 if k <= colours else 0
            for k in range(1, r)
        ]
        extend((1 << len(row)) - 1, masks, pickable, r - 1)
    return count


def _components(g: ExplicitGraph):
    """Yield the vertex list of each connected component (breadth first)."""
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        yield comp


def connected_components(g: ExplicitGraph) -> int:
    return sum(1 for _ in _components(g))


def min_cut(g: ExplicitGraph) -> int:
    """Global edge min cut (Nagamochi-Ibaraki); 0 iff disconnected or trivial.

    Each phase scans the contracted multigraph once in maximum-adjacency
    order.  The scanned prefixes are cuts, so they lower the bound
    ``best`` (which starts at the minimum degree).  An edge (x, y) whose
    scan value q (y's attachment to the prefix once the edge is counted)
    reaches ``best`` has local connectivity >= q, so contracting it keeps
    every cut below ``best``; the last vertex of a phase always qualifies,
    so every phase contracts at least one edge.  When one vertex is left,
    ``best`` is the min cut.
    """
    if g.n < 2 or connected_components(g) > 1:
        return 0
    adj: list[dict[int, int]] = [dict.fromkeys(row, 1) for row in g.adj]
    best = g.m

    def find(v: int) -> int:  # union-find root, with path halving
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    while len(adj) > 1:
        n = len(adj)
        # a contracted vertex's degree is a cut too, so best <= deg[t] for
        # the vertex t left unscanned: its last edge reaches q = deg[t]
        deg = [sum(row.values()) for row in adj]
        best = min(best, min(deg))
        parent = list(range(n))
        attach = [0] * n
        scanned = [False] * n
        heap = [(0, 0)]
        prefix_cut = 0
        for _ in range(n - 1):
            while True:
                _, x = heapq.heappop(heap)
                if not scanned[x]:
                    break
            scanned[x] = True
            prefix_cut += deg[x] - 2 * attach[x]
            if prefix_cut < best:
                best = prefix_cut
            for y, w in adj[x].items():
                if scanned[y]:
                    continue
                q = attach[y] + w
                attach[y] = q
                heapq.heappush(heap, (-q, y))
                if q >= best:
                    parent[find(y)] = find(x)
        label: dict[int, int] = {}
        new_index = [label.setdefault(find(v), len(label)) for v in range(n)]
        merged: list[dict[int, int]] = [{} for _ in label]
        for v, row in enumerate(adj):
            a = new_index[v]
            target = merged[a]
            for y, w in row.items():
                b = new_index[y]
                if a != b:
                    target[b] = target.get(b, 0) + w
        adj = merged
    return best


def moment(g: ExplicitGraph, s: int) -> int:
    """Exact s-th moment of the degree sequence."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return sum(d**s for d in g.degrees())


def densest_subgraph_bruteforce(g: ExplicitGraph, limit: int = 20) -> int:
    """Exact arboricity via the max over all vertex subsets S (|S| >= 2) of
    ceil(m_S / (|S| - 1)).  Exponential; refuses above `limit` vertices."""
    if g.n > limit:
        raise VerifyBudgetExceeded(
            f"exact subset enumeration refused for n={g.n} > {limit}"
        )
    if g.m == 0:
        return 0
    masks = [0] * g.n
    for v in range(g.n):
        for w in g.adj[v]:
            masks[v] |= 1 << w
    edges_in = [0] * (1 << g.n)
    best = 0
    for mask in range(1, 1 << g.n):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        m_s = edges_in[rest] + (masks[low] & rest).bit_count()
        edges_in[mask] = m_s
        size = mask.bit_count()
        if size >= 2 and m_s:
            density = -(-m_s // (size - 1))
            if density > best:
                best = density
    return best


def _core_decomposition(g: ExplicitGraph) -> tuple[list[int], list[int], list[int]]:
    """(peel order, rank in it, core number) of every vertex, by one
    Matula-Beck bucket peel in O(n + m) (Batagelj-Zaversnik layout).

    Core numbers never decrease along the peel order.  The result is kept
    on the graph, so the peel runs once per graph.
    """
    if g._cores is not None:
        return g._cores
    n = g.n
    core = g.degrees()
    top = max(core, default=0)
    start = [0] * (top + 1)  # start[d]: first slot of degree-d vertices
    for d in core:
        start[d] += 1
    total = 0
    for d in range(top + 1):
        start[d], total = total, total + start[d]
    order = [0] * n  # vertices bucket-sorted by degree
    rank = [0] * n  # position of each vertex in order
    fill = list(start)
    for v, d in enumerate(core):
        rank[v] = fill[d]
        order[fill[d]] = v
        fill[d] += 1
    for i in range(n):
        v = order[i]
        cv = core[v]
        for u in g.adj[v]:
            cu = core[u]
            if cu > cv:
                # move u to the front of its bucket, then shrink the bucket
                first = start[cu]
                w = order[first]
                if w != u:
                    pu = rank[u]
                    order[first], order[pu] = u, w
                    rank[u], rank[w] = first, pu
                start[cu] = first + 1
                core[u] = cu - 1
    g._cores = (order, rank, core)
    return g._cores


def degeneracy(g: ExplicitGraph) -> int:
    """Largest core number: the max over the peeling order of the minimum
    remaining degree.  Upper bounds arboricity: assigning each vertex's
    back-edges to slots yields a partition of the edges into that many
    forests."""
    return max(_core_decomposition(g)[2], default=0)


def _subgraph_density(n_s: int, m_s: int) -> int:
    return -(-m_s // (n_s - 1)) if n_s >= 2 and m_s else 0


def k_core_sizes(g: ExplicitGraph) -> list[tuple[int, int]]:
    """(vertices, edges) of the k-core for every k from 0 to the degeneracy.

    The k-core is every vertex of core number >= k.  An edge lies in it iff
    its endpoint peeled first does, and that endpoint has the smaller core
    number, so one pass and a suffix sum give every size.
    """
    _, rank, core = _core_decomposition(g)
    top = max(core, default=0)
    vertices_at = [0] * (top + 1)
    edges_at = [0] * (top + 1)
    for v, row in enumerate(g.adj):
        c, rv = core[v], rank[v]
        vertices_at[c] += 1
        for w in row:
            if rank[w] > rv:
                edges_at[c] += 1
    sizes = []
    n_k = m_k = 0
    for k in range(top, -1, -1):
        n_k += vertices_at[k]
        m_k += edges_at[k]
        sizes.append((n_k, m_k))
    return sizes[::-1]


def arboricity_bounds(g: ExplicitGraph) -> tuple[int, int]:
    """(lower, upper) witnesses for arboricity when exact enumeration is out
    of reach: lower from subgraph densities (whole graph, components,
    k-cores), upper from the degeneracy forest decomposition."""
    m = g.m
    if m == 0:
        return 0, 0
    lo = _subgraph_density(g.n, m)  # >= 1
    for comp in _components(g):
        if len(comp) > 2:  # smaller components have density <= 1
            m_c = sum(map(len, map(g.adj.__getitem__, comp))) // 2
            lo = max(lo, _subgraph_density(len(comp), m_c))
    hi = degeneracy(g)
    for n_k, m_k in k_core_sizes(g)[2:]:
        lo = max(lo, _subgraph_density(n_k, m_k))
    return lo, hi


def check_alpha_bounds(g: ExplicitGraph, s: int) -> VerificationReport:
    """Certify M_s/n^s <= arboricity <= M_s^(1/(s+1)) with exact arithmetic,
    by exact enumeration up to 20 vertices and the witness interval beyond.

    The check is the literal two-sided inequality.  Its lower side is only a
    factor-2 statement in general (M_s <= 2*arboricity*n^s always holds;
    K_4 at s = 2 gives 36/16 > 2), but it holds as written on the hidden- and
    rerouted-block moment instances with s >= 2, which is where it is
    claimed.
    """
    m_s = moment(g, s)
    claim = "M_s/n^s <= arboricity <= M_s^(1/(s+1))"
    if g.n <= 20:
        alpha = densest_subgraph_bruteforce(g)
        ok = m_s <= alpha * g.n**s and alpha ** (s + 1) <= m_s
        if alpha == 0:
            ok = m_s == 0
        return VerificationReport("alpha_bounds", alpha, claim, ok)
    lo, hi = arboricity_bounds(g)
    if lo == 0:
        ok = m_s == 0
    else:
        ok = m_s <= lo * g.n**s and hi ** (s + 1) <= m_s
    return VerificationReport("alpha_bounds", (lo, hi), claim + " (witness interval)", ok)


# ---------------------------------------------------------------------------
# gap certification


def verify_instance(
    inst: Embedding, g: Optional[Union[ExplicitGraph, str]] = None
) -> list[VerificationReport]:
    """Run the gap-claim verifier suite for one materializable instance.

    When ``g`` is supplied, as a graph or as the text of an edge-list file,
    the claims are checked against it and it is additionally compared with
    the instance's own materialization, so any mutation shows up.  Text
    that equals the materialization's ``dump_edge_list`` is not parsed: the
    claims run on the materialization itself.  A graph that fails
    ``valid_graph`` gets only those two reports; any other gets the
    instance's own ``claims`` after them.
    """
    from .embeddings.base import MaterializationCapExceeded  # deferred: import cycle

    reports = []
    if g is None:
        g = inst.materialize()
    else:
        try:
            mine = inst.materialize()
        except MaterializationCapExceeded:
            if isinstance(g, str):
                load_edge_list(g)  # a malformed file is an error before a refusal
            raise
        if isinstance(g, str):
            g = mine if g == dump_edge_list(mine) else load_edge_list(g)
        reports.append(
            VerificationReport(
                "edge_list_match",
                g.m,
                "supplied graph equals the instance's materialization",
                g == mine,
            )
        )
    findings = validate_graph(g)
    reports.append(
        VerificationReport("valid_graph", len(findings), "no invariant findings", not findings)
    )
    if findings:
        # the claims' kernels assume a simple, symmetric graph
        return reports
    return reports + inst.claims(g)
