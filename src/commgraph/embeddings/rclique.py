"""r-clique gap instances: the grid routing gadget plus r-2 mutually
complete witness sets; triangle is the r = 3 case.

The gadget's four groups are A, A', B = P and B' = Q (see
``GridEmbedding``): a shared coordinate (i, j) joins a_i to b_j and a'_j
to b'_i, and nothing else ever joins A or A' to B or B'.  S_1 .. S_(r-2) of
``s_size`` vertices each (default l) are pairwise completely joined, and
every A and B vertex is adjacent to all of S, so each shared coordinate's
(a_i, b_j) edge completes one r-clique per transversal of the S sets:
s_size^(r-2) of them.  Disjoint inputs leave no r-clique at all.
Padding vertices after S have no edges.  Degrees never depend on the
inputs, which is what makes uniform random edge sampling simulable: a
vertex is picked proportionally to its known degree and only the final
neighbor lookup can touch an input bit.

The sparse-S variant (r >= 4) keeps only an "active" prefix of each S
set inside the S-S join, shrinking the transversal count to a requested
budget while all A-S and B-S edges remain.

The ``triangle`` kind is this construction at r = 3 with one S set whose
size is its own ``--s-size`` flag: ``TriangleParams`` builds the r = 3
parameters, and ``TriangleEmbedding`` keeps the triangle flags, JSON and
verifier claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

from ..graph import ExplicitGraph
from ..promises import PromisePair
from ..verify import VerificationReport, count_r_cliques, count_triangles
from .base import GridEmbedding, JointAccess, ParameterError, least_at_least


@dataclass(frozen=True)
class RCliqueParams:
    r: int
    l: int
    k: int
    n: Optional[int] = None  # padded up to 4l + (r-2)*s_size when too small
    s_clique_budget: Optional[int] = None  # sparse-S target transversal count
    s_size: Optional[int] = None  # size of each S set; defaults to l

    def __post_init__(self):
        if self.r < 3:
            raise ParameterError("r must be >= 3")
        if self.l < 1:
            raise ParameterError("l must be >= 1")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if self.s_size is not None and self.s_size < 1:
            raise ParameterError("s_size must be >= 1")
        _active_sizes(self.r, self.s_size or self.l, self.s_clique_budget)  # budget feasibility


def TriangleParams(
    l: int, k: int, n: Optional[int] = None, s_size: Optional[int] = None
) -> RCliqueParams:
    """Triangle parameters: r-clique at r = 3, whose one S set has
    ``s_size`` vertices (default l); n is padded up to 4l + s_size."""
    return RCliqueParams(r=3, l=l, k=k, n=n, s_size=s_size)


def _active_sizes(r: int, l: int, budget: Optional[int]) -> list[int]:
    """Active prefix size of each of the r-2 S sets, for S sets of l
    vertices each (l is the S set size, the grid side unless s_size is set)."""
    sets = r - 2
    if budget is None:
        return [l] * sets
    if r == 3:
        raise ParameterError(
            "sparse-S is undefined for r=3 (use the triangle s_size variant)"
        )
    if budget < 1 or budget > l**sets:
        raise ParameterError(f"sparse-S budget {budget} infeasible for l={l}, r={r}")
    # Raising the first smallest size by one at a time until the product
    # reaches the budget stops at j sizes a + 1 followed by sets - j sizes
    # a, where a + 1 is the least integer root of the budget.
    a = least_at_least(lambda b: b**sets, budget) - 1
    j = next(j for j in range(1, sets + 1) if (a + 1) ** j * a ** (sets - j) >= budget)
    return [a + 1] * j + [a] * (sets - j)


class RCliqueEmbedding(GridEmbedding):
    kind = "r-clique"
    supported = frozenset({"degree", "neighbor", "pair", "random_edge"})
    Params = RCliqueParams
    requires = ("r", "l", "k")
    accepts = ("n", "s_clique_budget")

    def __init__(self, params: RCliqueParams, pp: PromisePair, seed=None):
        super().__init__(params, pp, seed)
        l, r = params.l, params.r
        self.l, self.r, self.k = l, r, params.k
        self.s_size = params.s_size if params.s_size is not None else l
        self.sets = r - 2
        self.active = _active_sizes(r, self.s_size, params.s_clique_budget)
        self.p0, self.q0 = 2 * l, 3 * l  # B = [2l, 3l) is j-indexed, B' = [3l, 4l) i-indexed
        self.s0 = 4 * l
        self.s_total = self.sets * self.s_size
        self.c0 = self.s0 + self.s_total  # padding
        requested = params.n if params.n is not None else self.c0
        self.n = max(requested, self.c0)
        self.pad = self.n - requested

    def _joins_s(self, v: int) -> bool:
        """Whether gadget vertex v is in A or B, the groups joined to all of S."""
        return v < self.l or self.p0 <= v < self.q0

    def _s_set(self, v: int) -> tuple[int, int]:
        """(set index, local index) for an S vertex."""
        return divmod(v - self.s0, self.s_size)

    def degree_of(self, v: int, joint: JointAccess) -> int:
        l = self.l
        if v < self.s0:
            return l + self.s_total if self._joins_s(v) else l
        if v < self.c0:  # S
            t, z = self._s_set(v)
            inter = sum(self.active[u] for u in range(self.sets) if u != t)
            return 2 * l + (inter if z < self.active[t] else 0)
        return 0

    def neighbor_of(self, v: int, i: int, joint: JointAccess) -> Optional[int]:
        l = self.l
        if v < self.s0:  # gadget; A and B continue with all of S
            if i <= l:
                return self.grid_neighbor(v, i, joint)
            if i <= l + self.s_total and self._joins_s(v):
                return self.s0 + (i - l - 1)
            return None
        if v < self.c0:  # S vertex: all of A, all of B, then the S-S join
            if i <= l:
                return i - 1
            if i <= 2 * l:
                return self.p0 + (i - l - 1)
            t, z = self._s_set(v)
            if z >= self.active[t]:
                return None
            q = i - 2 * l
            for u in range(self.sets):
                if u == t:
                    continue
                if q <= self.active[u]:
                    return self.s0 + u * self.s_size + (q - 1)
                q -= self.active[u]
            return None
        return None

    def row_of(self, v: int, joint: JointAccess) -> Sequence[int]:
        """The neighbor rule's whole row in one pass."""
        if v < self.s0:  # the gadget row; A and B rows end with all of S
            row = self.grid_row(v, joint)
            if self._joins_s(v):
                row.extend(range(self.s0, self.c0))
            return row
        if v >= self.c0:  # padding
            return ()
        l = self.l
        row = [*range(l), *range(self.p0, self.p0 + l)]
        t, z = self._s_set(v)
        if z < self.active[t]:
            for u, a in enumerate(self.active):
                if u != t:
                    start = self.s0 + u * self.s_size
                    row.extend(range(start, start + a))
        return row

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        u, v = (u, v) if u < v else (v, u)
        if v < self.s0:
            return self.grid_pair(u, v, joint)
        if v >= self.c0:
            return 0
        if u < self.s0:  # gadget vertex against S
            return 1 if self._joins_s(u) else 0
        tu, zu = self._s_set(u)
        tv, zv = self._s_set(v)
        if tu == tv:
            return 0
        return 1 if zu < self.active[tu] and zv < self.active[tv] else 0

    def input_free_degrees(self) -> list[tuple[int, int]]:
        l, s = self.l, self.s_size
        runs = [(l, l + self.s_total), (l, l), (l, l + self.s_total), (l, l)]
        active_total = sum(self.active)
        for a in self.active:  # S_t: active prefix joined to the other sets
            runs.append((a, 2 * l + active_total - a))
            if a < s:  # no run for an empty inactive rest
                runs.append((s - a, 2 * l))
        return runs

    def edge_count(self) -> int:
        l = self.l
        inter_s = sum(
            self.active[t] * self.active[u]
            for t in range(self.sets)
            for u in range(t + 1, self.sets)
        )
        return 2 * l * l + 2 * l * self.s_total + inter_s

    def expected_clique_count(self) -> int:
        """Exact r-clique count: {a_i, b_j} over a shared coordinate plus an
        active transversal of the S sets."""
        return self.pp.overlap * prod(self.active)

    def clique_count(self, g: ExplicitGraph) -> tuple[str, str, int]:
        """(report name, symbol, r-clique count of g)."""
        return f"r_clique_count({self.r})", "C_r", count_r_cliques(g, self.r)

    def claims(self, g: ExplicitGraph) -> list[VerificationReport]:
        name, symbol, count = self.clique_count(g)
        expected = self.expected_clique_count()  # 0 on the disjoint side
        if self.pp.intersecting:
            side = VerificationReport(name, count, f"{symbol} >= {expected}", count >= expected)
        else:
            side = VerificationReport(name, count, f"{symbol} == 0", count == 0)
        return [
            self.edge_count_report(g),
            VerificationReport(name, count, f"{symbol} == {expected}", count == expected),
            side,
        ]

    def params_json(self) -> dict:
        return {
            "r": self.r,
            "l": self.l,
            "k": self.k,
            "n": self.n,
            "s_clique_budget": self.params.s_clique_budget,
            "active_sizes": list(self.active),
            "blocks": self.l * self.l,
            "pad": self.pad,
        }

    @classmethod
    def from_params_json(cls, params: dict, pp: PromisePair, seed=None):
        p = RCliqueParams(
            r=params["r"],
            l=params["l"],
            k=params["k"],
            n=params["n"] - params["pad"],
            s_clique_budget=params.get("s_clique_budget"),
        )
        return cls(p, pp, seed)


class TriangleEmbedding(RCliqueEmbedding):
    """r-clique at r = 3 under its own kind name, flags and JSON: one S set
    of ``s_size`` vertices, so disjoint inputs leave the graph bipartite
    between S+A+B and A'+B'+padding and each shared coordinate's A-B edge
    lies in s_size triangles."""

    kind = "triangle"
    Params = TriangleParams
    requires = ("l", "k")
    accepts = ("n", "s_size")

    def clique_count(self, g: ExplicitGraph) -> tuple[str, str, int]:
        return "triangle_count", "C3", count_triangles(g)

    def params_json(self) -> dict:
        return {
            "l": self.l,
            "k": self.k,
            "n": self.n,
            "s_size": self.s_size,
            "blocks": self.l * self.l,
            "pad": self.pad,
        }

    @classmethod
    def from_params_json(cls, params: dict, pp: PromisePair, seed=None):
        p = TriangleParams(
            l=params["l"],
            k=params["k"],
            n=params["n"] - params["pad"],
            s_size=params["s_size"],
        )
        return cls(p, pp, seed)
