"""r-clique gap instances: the triangle grid plus r-2 mutually complete
witness sets.

S_1 .. S_(r-2) are pairwise completely joined, and every A and B vertex
is adjacent to all of S, so each shared coordinate's (a_i, b_j) edge
completes one r-clique per transversal of the S sets: l^(r-2) of them.
Disjoint inputs leave no r-clique at all.

The sparse-S variant (r >= 4) keeps only an "active" prefix of each S
set inside the S-S join, shrinking the transversal count to a requested
budget while all A-S and B-S edges remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

from ..promises import PromisePair
from .base import GridEmbedding, JointAccess, ParameterError, least_at_least


@dataclass(frozen=True)
class RCliqueParams:
    r: int
    l: int
    k: int
    n: Optional[int] = None  # padded up to (r+2)*l when too small
    s_clique_budget: Optional[int] = None  # sparse-S target transversal count

    def __post_init__(self):
        if self.r < 3:
            raise ParameterError("r must be >= 3")
        if self.l < 1:
            raise ParameterError("l must be >= 1")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        _active_sizes(self.r, self.l, self.s_clique_budget)  # budget feasibility


def _active_sizes(r: int, l: int, budget: Optional[int]) -> list[int]:
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
        self.sets = r - 2
        self.active = _active_sizes(r, l, params.s_clique_budget)
        minimum = (r + 2) * l
        requested = params.n if params.n is not None else minimum
        self.n = max(requested, minimum)
        self.pad = self.n - requested
        self.a0, self.ap0, self.b0, self.bp0 = 0, l, 2 * l, 3 * l
        self.s0 = 4 * l
        self.c0 = (r + 2) * l
        self.s_total = self.sets * l

    def _coord(self, i: int, j: int) -> int:
        return i * self.l + j

    def _s_set(self, v: int) -> tuple[int, int]:
        """(set index, local index) for an S vertex."""
        off = v - self.s0
        return off // self.l, off % self.l

    def degree_of(self, v: int, joint: JointAccess) -> int:
        l = self.l
        if v < l or self.b0 <= v < self.bp0:  # A or B
            return l + self.s_total
        if v < self.b0 or self.bp0 <= v < self.s0:  # A' or B'
            return l
        if v < self.c0:  # S
            t, z = self._s_set(v)
            inter = sum(self.active[u] for u in range(self.sets) if u != t)
            return 2 * l + (inter if z < self.active[t] else 0)
        return 0

    def neighbor_of(self, v: int, i: int, joint: JointAccess) -> Optional[int]:
        l = self.l
        if v < l:  # a_v
            if i <= l:
                j = i - 1
                return self.b0 + j if joint(self._coord(v, j)) else self.ap0 + j
            if i <= l + self.s_total:
                return self.s0 + (i - l - 1)
            return None
        if v < self.b0:  # a'_j
            j = v - self.ap0
            if i <= l:
                row = i - 1
                return self.bp0 + row if joint(self._coord(row, j)) else row
            return None
        if v < self.bp0:  # b_j
            j = v - self.b0
            if i <= l:
                row = i - 1
                return row if joint(self._coord(row, j)) else self.bp0 + row
            if i <= l + self.s_total:
                return self.s0 + (i - l - 1)
            return None
        if v < self.s0:  # b'_i
            row = v - self.bp0
            if i <= l:
                j = i - 1
                return self.ap0 + j if joint(self._coord(row, j)) else self.b0 + j
            return None
        if v < self.c0:  # S vertex
            if i <= l:
                return i - 1
            if i <= 2 * l:
                return self.b0 + (i - l - 1)
            t, z = self._s_set(v)
            if z >= self.active[t]:
                return None
            q = i - 2 * l
            for u in range(self.sets):
                if u == t:
                    continue
                if q <= self.active[u]:
                    return self.s0 + u * l + (q - 1)
                q -= self.active[u]
            return None
        return None

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        u, v = (u, v) if u < v else (v, u)
        ga, gb = self._group(u), self._group(v)
        if ga == "A" and gb == "B":
            return joint(self._coord(u, v - self.b0))
        if ga == "A" and gb == "A'":
            return 1 - joint(self._coord(u, v - self.ap0))
        if ga == "A'" and gb == "B'":
            return joint(self._coord(v - self.bp0, u - self.ap0))
        if ga == "B" and gb == "B'":
            return 1 - joint(self._coord(v - self.bp0, u - self.b0))
        if gb == "S" and ga in ("A", "B"):
            return 1
        if ga == "S" and gb == "S":
            tu, zu = self._s_set(u)
            tv, zv = self._s_set(v)
            if tu == tv:
                return 0
            return 1 if zu < self.active[tu] and zv < self.active[tv] else 0
        return 0

    def _group(self, v: int) -> str:
        if v < self.ap0:
            return "A"
        if v < self.b0:
            return "A'"
        if v < self.bp0:
            return "B"
        if v < self.s0:
            return "B'"
        if v < self.c0:
            return "S"
        return "C"

    def input_free_degrees(self) -> list[tuple[int, int]]:
        l = self.l
        runs = [(l, l + self.s_total), (l, l), (l, l + self.s_total), (l, l)]
        active_total = sum(self.active)
        for a in self.active:  # S_t: active prefix joined to the other sets
            runs += [(a, 2 * l + active_total - a), (l - a, 2 * l)]
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
