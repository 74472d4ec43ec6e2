"""Explicit graphs and the four-query vocabulary of the general graph model.

A graph is simple and undirected.  Every vertex carries an explicit
neighbor ordering: ``adj[v][i-1]`` is v's i-th neighbor (queries use
1-based neighbor indices, vertex ids are 0-based).
"""

from __future__ import annotations

import bisect
import random
from typing import Callable, NamedTuple, Optional, Sequence


class ContractViolation(ValueError):
    """A query or graph argument breaks the oracle contract."""


class NoEdgesError(ValueError):
    """Random edge requested from an edgeless graph."""


class Degree(NamedTuple):
    v: int


class Neighbor(NamedTuple):
    v: int
    i: int  # 1-based position in v's neighbor ordering


class Pair(NamedTuple):
    u: int
    v: int


class RandomEdge(NamedTuple):
    pass


Query = Degree | Neighbor | Pair | RandomEdge


class DegreeIs(NamedTuple):
    d: int


class NeighborIs(NamedTuple):
    w: Optional[int]  # None is the "no such neighbor" sentinel


class PairIs(NamedTuple):
    bit: int


class EdgeIs(NamedTuple):
    u: int
    v: int  # canonical form: u < v


QueryAnswer = DegreeIs | NeighborIs | PairIs | EdgeIs

ALL_QUERY_KINDS = frozenset({"degree", "neighbor", "pair", "random_edge"})


def query_kind(q: Query) -> str:
    if isinstance(q, Degree):
        return "degree"
    if isinstance(q, Neighbor):
        return "neighbor"
    if isinstance(q, Pair):
        return "pair"
    if isinstance(q, RandomEdge):
        return "random_edge"
    raise ContractViolation(f"unknown query {q!r}")


def check_query(q: Query, n: int) -> None:
    """Reject malformed queries for an n-vertex graph."""
    if isinstance(q, Degree):
        if not 0 <= q.v < n:
            raise ContractViolation(f"vertex {q.v} out of range [0, {n})")
    elif isinstance(q, Neighbor):
        if not 0 <= q.v < n:
            raise ContractViolation(f"vertex {q.v} out of range [0, {n})")
        if not 1 <= q.i <= max(n - 1, 1):
            raise ContractViolation(f"neighbor index {q.i} out of range [1, {n - 1}]")
    elif isinstance(q, Pair):
        for v in (q.u, q.v):
            if not 0 <= v < n:
                raise ContractViolation(f"vertex {v} out of range [0, {n})")
    elif not isinstance(q, RandomEdge):
        raise ContractViolation(f"unknown query {q!r}")


class ExplicitGraph:
    """Materialized simple undirected graph with explicit neighbor orderings."""

    def __init__(self, n: int, adjacency: Sequence[Sequence[int]]):
        if len(adjacency) != n:
            raise ValueError(f"adjacency has {len(adjacency)} rows for n={n}")
        self.n = n
        self.adj: list[tuple[int, ...]] = [tuple(row) for row in adjacency]
        self._sets = [frozenset(row) for row in self.adj]
        self._edges: Optional[list[tuple[int, int]]] = None

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._sets[u]

    def degrees(self) -> list[int]:
        return [len(row) for row in self.adj]

    def edges(self) -> list[tuple[int, int]]:
        """Canonical edge list: (u, v) with u < v, sorted."""
        if self._edges is None:
            self._edges = sorted(
                (v, w) for v in range(self.n) for w in self.adj[v] if v < w
            )
        return self._edges

    def induced_subgraph(self, vertices: Sequence[int]) -> "ExplicitGraph":
        """Induced subgraph, vertices relabeled 0..k-1 in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        adj = [
            [index[w] for w in self.adj[v] if w in index]
            for v in vertices
        ]
        return ExplicitGraph(len(vertices), adj)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExplicitGraph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __repr__(self) -> str:
        return f"ExplicitGraph(n={self.n}, m={self.m})"


def answer_on_explicit(
    g: ExplicitGraph, q: Query, rng: Optional[random.Random] = None
) -> QueryAnswer:
    """Answer one query against a materialized graph.

    RandomEdge draws uniformly from the canonical edge list, so this path
    is independent of degree-proportional sampling.
    """
    check_query(q, g.n)
    if isinstance(q, Degree):
        return DegreeIs(g.degree(q.v))
    if isinstance(q, Neighbor):
        row = g.adj[q.v]
        return NeighborIs(row[q.i - 1] if q.i <= len(row) else None)
    if isinstance(q, Pair):
        return PairIs(1 if g.has_edge(q.u, q.v) else 0)
    edges = g.edges()
    if not edges:
        raise NoEdgesError("random edge requested from an edgeless graph")
    if rng is None:
        raise ContractViolation("RandomEdge needs a randomness stream")
    u, v = edges[rng.randrange(len(edges))]
    return EdgeIs(u, v)


def validate_graph(g: ExplicitGraph) -> list[str]:
    """Report every violated invariant; empty list iff the graph is valid."""
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
            if 0 <= w < g.n and w != v and v not in g._sets[w]:
                findings.append(f"asymmetry: {v} lists {w} but not conversely")
    return findings


def sample_edge_by_degrees(
    runs: Sequence[tuple[int, int]],
    neighbor_access: Callable[[int, int], int],
    rng: random.Random,
) -> tuple[int, int]:
    """Draw a uniform edge by picking a vertex with probability proportional
    to its degree and then a uniform incident position.

    ``runs`` is the degree table as ``(count, degree)`` runs over vertices
    0, 1, ... in order (vertices past the last run have degree 0), so a
    draw costs O(len(runs)).  Each unordered edge is reached through both
    endpoints, so its total probability is 2 / (sum of degrees) = 1/m.
    Returns (u, v) with u < v.
    """
    ends = []  # cumulative degree total at the end of each run
    total = 0
    for count, d in runs:
        total += count * d
        ends.append(total)
    if total == 0:
        raise NoEdgesError("no edges: total degree is zero")
    t = rng.randrange(total)
    r = bisect.bisect_right(ends, t)
    first = sum(count for count, _ in runs[:r])
    step, offset = divmod(t - (ends[r - 1] if r else 0), runs[r][1])
    v = first + step
    w = neighbor_access(v, offset + 1)
    return (v, w) if v < w else (w, v)


def dump_edge_list(g: ExplicitGraph) -> str:
    """Text form: header 'n <count>', then 'v: w1 w2 ... wd' per vertex."""
    lines = [f"n {g.n}"]
    for v in range(g.n):
        row = " ".join(str(w) for w in g.adj[v])
        lines.append(f"{v}: {row}" if row else f"{v}:")
    return "\n".join(lines) + "\n"


def load_edge_list(text: str) -> ExplicitGraph:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("n "):
        raise ValueError("missing 'n <count>' header")
    n = int(lines[0][2:])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} vertex lines, found {len(lines) - 1}")
    adj = []
    for v, line in enumerate(lines[1:]):
        prefix = f"{v}:"
        if not line.startswith(prefix):
            raise ValueError(f"line {v + 2}: expected prefix '{prefix}'")
        rest = line[len(prefix):].strip()
        adj.append([int(tok) for tok in rest.split()] if rest else [])
    return ExplicitGraph(n, adj)


class ExplicitOracle:
    """Query oracle over a materialized graph, with a query counter."""

    def __init__(self, g: ExplicitGraph, rng: Optional[random.Random] = None):
        self.graph = g
        self.n = g.n
        self.supported = ALL_QUERY_KINDS
        self.rng = rng
        self.queries_made = 0

    def answer(self, q: Query) -> QueryAnswer:
        ans = answer_on_explicit(self.graph, q, self.rng)
        self.queries_made += 1
        return ans
