"""Explicit graphs and the four-query vocabulary of the general graph model.

A graph is simple and undirected.  Every vertex carries an explicit
neighbor ordering: ``adj[v][i-1]`` is v's i-th neighbor (queries use
1-based neighbor indices, vertex ids are 0-based).
"""

from __future__ import annotations

import bisect
import random
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import contains, eq, itemgetter
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

_QUERY_KINDS = {
    Degree: "degree",
    Neighbor: "neighbor",
    Pair: "pair",
    RandomEdge: "random_edge",
}


def query_kind(q: Query) -> str:
    try:
        return _QUERY_KINDS[type(q)]
    except KeyError:
        raise ContractViolation(f"unknown query {q!r}") from None


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
    """Materialized simple undirected graph with explicit neighbor orderings.

    The per-row neighbor sets are built on first use and kept: only
    ``has_edge`` and the findings walk of ``validate_graph`` (which runs on
    an invalid graph) read them."""

    def __init__(self, n: int, adjacency: Sequence[Sequence[int]]):
        if len(adjacency) != n:
            raise ValueError(f"adjacency has {len(adjacency)} rows for n={n}")
        self.n = n
        self.adj: list[tuple[int, ...]] = [tuple(row) for row in adjacency]
        self.m = sum(map(len, self.adj)) // 2
        self._edges: Optional[list[tuple[int, int]]] = None
        # (peel order, rank, core numbers), filled once by the verifiers
        self._cores: Optional[tuple[list[int], list[int], list[int]]] = None

    @cached_property
    def row_sets(self) -> list[frozenset[int]]:
        """Each row's neighbors as a set."""
        return list(map(frozenset, self.adj))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def row(self, v: int) -> Sequence[int]:
        """v's neighbors in order."""
        return self.adj[v]

    def shifted_rows(self, offset: int) -> list[tuple[int, ...]]:
        """Every vertex's neighbors in order, each id plus ``offset``."""
        shift = offset.__add__
        return [tuple(map(shift, row)) for row in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.row_sets[u]

    def degrees(self) -> list[int]:
        return [len(row) for row in self.adj]

    def moment(self, s: int) -> int:
        """The s-th degree moment, sum of deg(v)^s."""
        return sum(d**s for d in self.degrees())

    def edges(self) -> list[tuple[int, int]]:
        """Canonical edge list: (u, v) with u < v, sorted."""
        if self._edges is None:
            self._edges = sorted(
                (v, w) for v in range(self.n) for w in self.adj[v] if v < w
            )
        return self._edges

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
    """Report every violated invariant; empty list iff the graph is valid.

    A valid graph is confirmed in bulk; only a graph with a finding is
    walked neighbor by neighbor to report each one."""
    if _valid_in_bulk(g):
        return []
    sets = g.row_sets
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
            if 0 <= w < g.n and w != v and v not in sets[w]:
                findings.append(f"asymmetry: {v} lists {w} but not conversely")
    return findings


_SHORT_ROW = 8  # a row shorter than this is searched as the tuple itself


def _stretches(adj: Sequence[tuple[int, ...]]):
    """Each stretch of consecutive rows of one length: its vertices as a
    range, the length and the rows."""
    first = 0
    for length, rows in groupby(adj, key=len):
        rows = list(rows)
        yield range(first, first + len(rows)), length, rows
        first += len(rows)


def _column(rows: list[tuple[int, ...]], j: int):
    """The j-th neighbor of each of ``rows``, in order."""
    return map(itemgetter(j), rows)


def _valid_in_bulk(g: ExplicitGraph) -> bool:
    """Every neighbor in range, no self-loop, no duplicate in a row, and
    every listed edge listed back, checked with no per-edge Python code.

    Rows are taken in stretches of one length.  A stretch of short rows is
    read column by column (a duplicate is two columns equal in one row),
    and each short row is its own vertex's search target.  Longer rows
    come in runs of consecutive equal rows (the constructions share one
    row object per block): each run's row is checked once, and one
    frozenset of it, kept only for this call, is the search target of the
    whole run.  Listed back is checked once every target is known.
    Nothing is cached on the graph."""
    ids = range(g.n)
    stretches = list(_stretches(g.adj))
    targets = []
    for vertices, length, rows in stretches:
        if length < _SHORT_ROW:
            columns = range(length)
            if (
                not all(all(map(ids.__contains__, _column(rows, j))) for j in columns)
                or any(any(map(eq, _column(rows, i), _column(rows, j)))
                       for j in columns for i in range(j))
                or any(map(contains, rows, vertices))
            ):
                return False
            targets += rows
            continue
        for row, run in groupby(rows):
            run = range(len(targets), len(targets) + len(list(run)))
            distinct = frozenset(row)
            if (
                len(distinct) < length
                or not all(map(ids.__contains__, row))
                or any(map(run.__contains__, row))
            ):
                return False
            targets += repeat(distinct, len(run))
    for vertices, length, rows in stretches:
        # (listed neighbors, the vertex listing each) in one or more passes
        if length < _SHORT_ROW:
            passes = [(_column(rows, j), vertices) for j in range(length)]
        else:
            owners = chain.from_iterable(map(repeat, vertices, repeat(length)))
            passes = [(chain.from_iterable(rows), owners)]
        for neighbors, owners in passes:
            if not all(map(contains, map(targets.__getitem__, neighbors), owners)):
                return False
    return True


class DegreeRuns:
    """A degree table of ``(count, degree)`` runs over vertices 0, 1, ...
    in order (vertices past the last run have degree 0), laid out for
    ``sample_edge_by_degrees``: per run, the cumulative degree total at
    its start and at its end, its first vertex and its degree."""

    __slots__ = ("starts", "ends", "firsts", "degrees", "total")

    def __init__(self, runs: Sequence[tuple[int, int]]):
        self.starts, self.ends, self.firsts, self.degrees = [], [], [], []
        total = first = 0
        for count, d in runs:
            self.starts.append(total)
            self.firsts.append(first)
            self.degrees.append(d)
            total += count * d
            first += count
            self.ends.append(total)
        self.total = total


def sample_edge_by_degrees(
    runs: DegreeRuns,
    neighbor_access: Callable[[int, int], int],
    rng: random.Random,
) -> tuple[int, int]:
    """Draw a uniform edge by picking a vertex with probability proportional
    to its degree and then a uniform incident position.

    A draw is one ``randrange`` over the total degree, a bisection of the
    run ends and one ``divmod``.  Each unordered edge is reached through
    both endpoints, so its total probability is 2 / (sum of degrees) = 1/m.
    Returns (u, v) with u < v.
    """
    if runs.total == 0:
        raise NoEdgesError("no edges: total degree is zero")
    t = rng.randrange(runs.total)
    r = bisect.bisect_right(runs.ends, t)
    step, offset = divmod(t - runs.starts[r], runs.degrees[r])
    v = runs.firsts[r] + step
    w = neighbor_access(v, offset + 1)
    return (v, w) if v < w else (w, v)


def dump_edge_list(g: ExplicitGraph) -> str:
    """Text form: header 'n <count>', then 'v: w1 w2 ... wd' per vertex
    ('v:' for a vertex with no neighbor).

    Ids are written as ``str`` writes them, with no table of names.  Rows
    are taken in stretches of one length: each line of a stretch of short
    rows is one ``str.format`` call over the stretch's columns, and a run
    of consecutive equal longer rows (the constructions share one row
    object per block) formats its row once."""
    lines = [f"n {g.n}"]
    for vertices, length, rows in _stretches(g.adj):
        if length < _SHORT_ROW:
            line = ("{}:" + " {}" * length).format
            lines += map(line, vertices, *(_column(rows, j) for j in range(length)))
            continue
        texts = (repeat(": " + " ".join(map(str, row)), len(list(run)))
                 for row, run in groupby(rows))
        lines += map(str.__add__, map(str, vertices), chain.from_iterable(texts))
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
        head, colon, rest = line.partition(":")
        if not colon or head != str(v):
            raise ValueError(f"line {v + 2}: expected prefix '{v}:'")
        adj.append(tuple(map(int, rest.split())))
    return ExplicitGraph(n, adj)
