"""Shared machinery for the gap-instance constructions.

Every construction answers queries lazily through one code path that
reads the two-party inputs only via a ``joint(coord) -> 0/1`` callback
returning x_c AND y_c.  The local oracle passes a direct reader; the
two-party simulation passes an exchanging callback that charges bits.
Materialization reads whole rows through ``rows``, by default one
``row_of`` per vertex, whose default is the same lazy neighbor rule at
every position, so neighbor orderings match position by position.
"""

from __future__ import annotations

import os
import random
from functools import cached_property
from math import isqrt
from typing import Callable, Optional, Sequence

from ..graph import (
    ContractViolation,
    DegreeIs,
    DegreeRuns,
    EdgeIs,
    ExplicitGraph,
    NeighborIs,
    PairIs,
    Query,
    QueryAnswer,
    query_kind,
    sample_edge_by_degrees,
)
from ..promises import Disjoint, KIntersectOrDisjoint, PromisePair, UniqueIntersection
from ..verify import VerificationReport

JointAccess = Callable[[int], int]

DEFAULT_MAX_VERTICES = 10**6
DEFAULT_MAX_EDGES = 10**7

ENV_MAX_VERTICES = "COMMGRAPH_MAX_VERTICES"
ENV_MAX_EDGES = "COMMGRAPH_MAX_EDGES"


class ParameterError(ValueError):
    """Construction parameters violate a named constraint."""


class UnsupportedQuery(ValueError):
    """Query kind not supported by this construction."""


class MaterializationCapExceeded(RuntimeError):
    """Instance too large to materialize; it remains usable lazily."""


def least_at_least(f: Callable[[int], int], target: int) -> int:
    """Smallest x >= 1 with f(x) >= target, for a nondecreasing integer
    function f that eventually reaches the target: doubling, then
    bisection, so O(log x) evaluations of f in exact integer arithmetic."""
    lo, hi = 0, 1  # f(lo) < target is assumed for lo = 0
    while f(hi) < target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def flag_name(field: str) -> str:
    """The command-line spelling of a parameter field."""
    return "--" + field.replace("_", "-")


def materialization_caps() -> tuple[int, int]:
    max_n = int(os.environ.get(ENV_MAX_VERTICES, DEFAULT_MAX_VERTICES))
    max_m = int(os.environ.get(ENV_MAX_EDGES, DEFAULT_MAX_EDGES))
    return max_n, max_m


class Embedding:
    """A parameterized construction applied to one promise input pair.

    Each construction declares, once, everything needed to build it from
    flags: its ``Params`` dataclass, the flags it ``requires`` and
    ``accepts``, the input length ``n_bits_for(params)`` and the flag a
    sweep size N sets (``swept``, via ``swept_value``).  The promise
    follows from ``comm_function``: a ``disj`` construction takes a
    ``promise`` flag naming disjoint or unique-intersection, an
    ``inter_k`` one the {0, k} promise of its ``k`` parameter.  It also
    states its gap (``claims``) and the witnesses it hides (below).
    """

    kind: str = "abstract"
    comm_function: str = "disj"  # "disj" or "inter_k"
    supported: frozenset = frozenset()
    Params: type
    requires: tuple[str, ...] = ()
    accepts: tuple[str, ...] = ()
    swept: Optional[str] = None  # None: not sweepable

    def __init__(self, params, pp: PromisePair, seed: Optional[int] = None):
        if self.comm_function == "disj":
            if not isinstance(pp.promise, (Disjoint, UniqueIntersection)):
                raise ParameterError("promise must be disjoint or unique-intersection")
        elif not isinstance(pp.promise, KIntersectOrDisjoint):
            raise ParameterError("promise must be k-intersect-or-disjoint")
        elif pp.promise.k != params.k:
            raise ParameterError(f"promise k={pp.promise.k} != construction k={params.k}")
        n_bits = self.n_bits_for(params)
        if pp.n_bits != n_bits:
            raise ParameterError(
                f"input length {pp.n_bits} != {n_bits} required by the {self.kind} parameters"
            )
        self.params = params
        self.pp = pp
        self.seed = seed
        self.n = 0  # subclasses set the vertex count

    # -- declarations -------------------------------------------------------

    @classmethod
    def params_from_flags(cls, **flags):
        return cls.Params(**flags)

    @classmethod
    def n_bits_for(cls, params) -> int:
        """Input length N for these parameters."""
        raise NotImplementedError

    @classmethod
    def swept_value(cls, n_bits: int, flags: dict) -> int:
        """Value of the ``swept`` flag for sweep size N."""
        return n_bits

    @classmethod
    def check_flags(cls, given) -> None:
        missing = [flag_name(f) for f in cls.requires if f not in given]
        if missing:
            raise ParameterError(f"kind {cls.kind} requires {' '.join(missing)}")

    # -- the lazy rules -------------------------------------------------

    def degree_of(self, v: int, joint: JointAccess) -> int:
        raise NotImplementedError

    def neighbor_of(self, v: int, i: int, joint: JointAccess) -> Optional[int]:
        raise NotImplementedError

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        raise NotImplementedError

    def row_of(self, v: int, joint: JointAccess) -> Sequence[int]:
        """v's neighbors in order: by default the neighbor rule at positions
        1..degree.  Constructions whose rows have a closed form override it."""
        neighbor_of = self.neighbor_of
        return [neighbor_of(v, i, joint) for i in range(1, self.degree_of(v, joint) + 1)]

    def rows(self, joint: JointAccess) -> list[Sequence[int]]:
        """Every vertex's neighbors in order: by default ``row_of`` of each
        vertex.  Constructions whose rows repeat in bulk override it."""
        row_of = self.row_of
        return [row_of(v, joint) for v in range(self.n)]

    def input_free_degrees(self) -> list[tuple[int, int]]:
        """Degree table independent of the inputs, as ``(count, degree)``
        runs over vertices 0, 1, ... in order; vertices past the last run
        have degree 0.  Only constructions with such a table support random
        edge queries."""
        raise UnsupportedQuery(f"{self.kind} has input-dependent degrees")

    @cached_property
    def degree_runs(self) -> DegreeRuns:
        """``input_free_degrees`` laid out for edge sampling, once per
        instance, on its first random edge query."""
        return DegreeRuns(self.input_free_degrees())

    def edge_count(self) -> int:
        """Exact number of edges, computed analytically."""
        raise NotImplementedError

    # -- the gap claims and the witnesses ---------------------------------

    def claims(self, g: ExplicitGraph) -> list[VerificationReport]:
        """This instance's gap claims, each from the analytic counts above,
        checked on g, a simple graph, by ``verify``'s kernels."""
        raise NotImplementedError

    def edge_count_report(self, g: ExplicitGraph) -> VerificationReport:
        expected = self.edge_count()
        return VerificationReport("edge_count", g.m, f"m == {expected}", g.m == expected)

    # The witnesses the reference distinguishers read, from the parameters
    # alone and shown only when the inputs intersect; a construction
    # declares one by overriding its None with a property.
    witness_pair = None  # (stride, offset): block j's pair (u, u + offset), u = j * stride
    probe_vertex = None  # (stride, offset, disjoint-side degree): block j's offset + j * stride
    witness_edges = None  # ranges (a, b, c, d): an edge u < v with a <= u < b, c <= v < d

    # -- query answering ------------------------------------------------

    def direct_joint(self, c: int) -> int:
        return self.pp.x[c] & self.pp.y[c]

    def answer(
        self,
        q: Query,
        joint: Optional[JointAccess] = None,
        rng: Optional[random.Random] = None,
    ) -> QueryAnswer:
        kind = query_kind(q)
        if kind not in self.supported:
            raise UnsupportedQuery(f"{self.kind} does not answer {kind} queries")
        if joint is None:
            joint = self.direct_joint
        n = self.n
        if kind == "pair":
            u, v = q
            if not (0 <= u < n and 0 <= v < n):
                bad = v if 0 <= u < n else u
                raise ContractViolation(f"vertex {bad} out of range [0, {n})")
            if u == v:
                return PairIs(0)
            return PairIs(self.pair_of(u, v, joint))
        if kind == "random_edge":
            if rng is None:
                raise ContractViolation("RandomEdge needs a randomness stream")
            u, v = sample_edge_by_degrees(
                self.degree_runs, lambda w, i: self.neighbor_of(w, i, joint), rng
            )
            return EdgeIs(u, v)
        v = q[0]
        if not 0 <= v < n:
            raise ContractViolation(f"vertex {v} out of range [0, {n})")
        if kind == "degree":
            return DegreeIs(self.degree_of(v, joint))
        i = q.i
        if not 1 <= i <= max(n - 1, 1):
            raise ContractViolation(f"neighbor index {i} out of range [1, {n - 1}]")
        return NeighborIs(self.neighbor_of(v, i, joint))

    # -- materialization and labels --------------------------------------

    def materialize(self) -> ExplicitGraph:
        max_n, max_m = materialization_caps()
        if self.n > max_n:
            raise MaterializationCapExceeded(
                f"{self.n} vertices exceeds cap {max_n}; instance is lazy-only"
            )
        m = self.edge_count()
        if m > max_m:
            raise MaterializationCapExceeded(
                f"{m} edges exceeds cap {max_m}; instance is lazy-only"
            )
        return ExplicitGraph(self.n, self.rows((self.pp.x & self.pp.y).__getitem__))

    def gap_label(self) -> int:
        """The communication function's value, computed from the inputs."""
        return self.label_for(self.pp.intersecting)

    def label_for(self, intersecting: bool) -> int:
        """Label a guess of the promise side in this construction's convention."""
        if self.comm_function == "disj":
            return 0 if intersecting else 1
        return 1 if intersecting else 0

    # -- serialization ----------------------------------------------------

    def params_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        side = "intersecting" if self.pp.intersecting else "disjoint"
        return f"<{self.kind} n={self.n} N={self.pp.n_bits} {side}>"


class GridEmbedding(Embedding):
    """A {0, k}-intersection construction whose N = l*l input coordinates
    form an l x l grid; a sweep size N sets l = sqrt(N).

    Its vertices start with one routing gadget of four groups of l: A at
    0, A' at l, and at ``p0`` and ``q0`` (2l and 3l in some order) a group
    P indexed like A' and a group Q indexed like A.  Each subclass's
    constructor sets ``l``, ``p0`` and ``q0``.  Coordinate (i, j) joins
    a_i-p_j and a'_j-q_i when both inputs hold it, and a_i-a'_j and p_j-q_i
    otherwise, so every gadget vertex has exactly l gadget neighbors
    whatever the inputs.  Subclasses add their other groups from 4l on,
    and any further neighbors after a gadget vertex's first l."""

    comm_function = "inter_k"
    swept = "l"

    @classmethod
    def n_bits_for(cls, params) -> int:
        return params.l * params.l

    @classmethod
    def swept_value(cls, n_bits: int, flags: dict) -> int:
        side = isqrt(n_bits)
        if side * side != n_bits:
            raise ParameterError(f"grid entry {n_bits} is not a perfect square (N = l^2)")
        return side

    # A-P and A'-Q: the gadget's crossing groups, joined only over shared coordinates
    witness_edges = property(lambda self: (
        (0, self.l, self.p0, self.p0 + self.l), (self.l, 2 * self.l, self.q0, self.q0 + self.l)
    ))

    def grid_neighbor(self, v: int, i: int, joint: JointAccess) -> int:
        """The i-th neighbor (1 <= i <= l) of a gadget vertex v < 4l: grid
        bit (row, column) = (t, i-1) for a_t and q_t, (i-1, t) for a'_t and
        p_t, picks the crossing edge or the side-preserving one."""
        l, p0, q0 = self.l, self.p0, self.q0
        group, t = divmod(v, l)
        x = i - 1
        if group == 0:  # a_t
            return p0 + x if joint(t * l + x) else l + x
        if group == 1:  # a'_t
            return q0 + x if joint(x * l + t) else x
        if v - t == p0:  # p_t
            return x if joint(x * l + t) else q0 + x
        return l + x if joint(t * l + x) else p0 + x  # q_t

    def grid_row(self, v: int, joint: JointAccess) -> list[int]:
        """``grid_neighbor`` at positions 1..l in one pass."""
        l, p0, q0 = self.l, self.p0, self.q0
        group, t = divmod(v, l)
        if group == 0:  # a_t: grid row t picks p_j or a'_j
            return [p0 + j if joint(t * l + j) else l + j for j in range(l)]
        if group == 1:  # a'_t: grid column t picks q_i or a_i
            return [q0 + i if joint(i * l + t) else i for i in range(l)]
        if v - t == p0:  # p_t: grid column t picks a_i or q_i
            return [i if joint(i * l + t) else q0 + i for i in range(l)]
        return [l + j if joint(t * l + j) else p0 + j for j in range(l)]  # q_t: row t

    def grid_pair(self, u: int, v: int, joint: JointAccess) -> int:
        """Whether gadget vertices u, v < 4l are adjacent.  The gadget is
        bipartite between A+Q and A'+P, and across the two sides the one
        position of u's row that can hold v is v's index plus one."""
        l, q0 = self.l, self.q0
        if (u < l or u - u % l == q0) == (v < l or v - v % l == q0):
            return 0
        return 1 if self.grid_neighbor(u, v % l + 1, joint) == v else 0


def lazy_answer(
    inst: Embedding, q: Query, rng: Optional[random.Random] = None
) -> QueryAnswer:
    """Answer a query from the inputs without materializing the graph."""
    return inst.answer(q, None, rng)


class LazyOracle:
    """Counter-carrying oracle over an instance's lazy rules.

    Safe for concurrent readers when each owns its oracle (and hence its
    counter and randomness stream); the instance itself is immutable.
    """

    def __init__(self, inst: Embedding, rng: Optional[random.Random] = None):
        self.instance = inst
        self.n = inst.n
        self.supported = inst.supported
        self.rng = rng
        self.queries_made = 0

    def answer(self, q: Query) -> QueryAnswer:
        ans = self.instance.answer(q, None, self.rng)
        self.queries_made += 1
        return ans

