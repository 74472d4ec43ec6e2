"""Shared machinery for the gap-instance constructions.

Every construction answers queries lazily through one code path that
reads the two-party inputs only via a ``joint(coord) -> 0/1`` callback
returning x_c AND y_c.  The local oracle passes a direct reader; the
two-party simulation passes an exchanging callback that charges bits.
Materialization drives the same lazy neighbor rules, so neighbor
orderings match position by position.
"""

from __future__ import annotations

import os
import random
from math import isqrt
from typing import Callable, Optional

from ..graph import (
    ContractViolation,
    Degree,
    DegreeIs,
    EdgeIs,
    ExplicitGraph,
    Neighbor,
    NeighborIs,
    Pair,
    PairIs,
    Query,
    QueryAnswer,
    check_query,
    query_kind,
    sample_edge_by_degrees,
)
from ..promises import Disjoint, KIntersectOrDisjoint, PromisePair, UniqueIntersection

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
    ``inter_k`` one the {0, k} promise of its ``k`` parameter.
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

    def input_free_degrees(self) -> list[tuple[int, int]]:
        """Degree table independent of the inputs, as ``(count, degree)``
        runs over vertices 0, 1, ... in order; vertices past the last run
        have degree 0.  Only constructions with such a table support random
        edge queries."""
        raise UnsupportedQuery(f"{self.kind} has input-dependent degrees")

    def edge_count(self) -> int:
        """Exact number of edges, computed analytically."""
        raise NotImplementedError

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
        check_query(q, self.n)
        if joint is None:
            joint = self.direct_joint
        if isinstance(q, Degree):
            return DegreeIs(self.degree_of(q.v, joint))
        if isinstance(q, Neighbor):
            return NeighborIs(self.neighbor_of(q.v, q.i, joint))
        if isinstance(q, Pair):
            if q.u == q.v:
                return PairIs(0)
            return PairIs(self.pair_of(q.u, q.v, joint))
        if rng is None:
            raise ContractViolation("RandomEdge needs a randomness stream")
        u, v = sample_edge_by_degrees(
            self.input_free_degrees(),
            lambda w, i: self.neighbor_of(w, i, joint),
            rng,
        )
        return EdgeIs(u, v)

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
        joint = self.direct_joint
        adj = []
        for v in range(self.n):
            d = self.degree_of(v, joint)
            adj.append([self.neighbor_of(v, i, joint) for i in range(1, d + 1)])
        return ExplicitGraph(self.n, adj)

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
    form an l x l grid; a sweep size N sets l = sqrt(N)."""

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


def materialize(inst: Embedding) -> ExplicitGraph:
    return inst.materialize()


def gap_label(inst: Embedding) -> int:
    return inst.gap_label()
