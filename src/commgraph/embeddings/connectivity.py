"""Edge-connectivity gap instances.

Four groups A, A', B, B' of size l plus an attachment pool C.  Each grid
coordinate (i, j) routes one pair of edges: crossing edges (a_i, b'_j),
(b_i, a'_j) when both inputs hold the bit, side-preserving edges
(a_i, a'_j), (b_i, b'_j) otherwise.  Disjoint inputs leave no edge
between the A side and the B side, so the graph is disconnected; with k
shared coordinates the graph is k-edge-connected.  Every c in C hangs off
k distinct A vertices, assigned round-robin, so all degrees are fixed in
advance and uniform edge sampling is simulable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..promises import PromisePair
from .base import GridEmbedding, JointAccess, ParameterError


@dataclass(frozen=True)
class ConnectivityParams:
    k: int
    l: int
    n: Optional[int] = None  # padded up to 4l when too small; default 5l

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if self.l < 2 * self.k:
            raise ParameterError(f"l={self.l} must be >= 2k = {2 * self.k}")


class ConnectivityEmbedding(GridEmbedding):
    kind = "connectivity"
    supported = frozenset({"degree", "neighbor", "pair", "random_edge"})
    Params = ConnectivityParams
    requires = ("k", "l")
    accepts = ("n",)

    def __init__(self, params: ConnectivityParams, pp: PromisePair, seed=None):
        super().__init__(params, pp, seed)
        l, k = params.l, params.k
        self.l, self.k = l, k
        requested = params.n if params.n is not None else 5 * l
        self.n = max(requested, 4 * l)
        self.pad = self.n - requested if requested < 4 * l else 0
        self.a0, self.ap0, self.b0, self.bp0, self.c0 = 0, l, 2 * l, 3 * l, 4 * l
        self.n_c = self.n - 4 * l
        # Round-robin attachments: c_t's r-th neighbor is a_((t*k + r - 1) mod l).
        # Slot e = t*k + r - 1 runs over [0, n_c*k), so a_i holds the slots
        # i, i + l, i + 2l, ... below n_c*k, in order: its j-th attachment
        # (from 0) is c_((i + j*l) // k), and the first ``_extra`` A vertices
        # hold one more than the others' ``_attach_base``.
        self._attach_base, self._extra = divmod(self.n_c * k, l)

    def _coord(self, i: int, j: int) -> int:
        return i * self.l + j

    def _attachments(self, i: int) -> int:
        return self._attach_base + (1 if i < self._extra else 0)

    def degree_of(self, v: int, joint: JointAccess) -> int:
        l = self.l
        if v < l:
            return l + self._attachments(v)
        if v < self.c0:
            return l
        return self.k

    def neighbor_of(self, v: int, i: int, joint: JointAccess) -> Optional[int]:
        l = self.l
        if v < l:  # a_v
            if i <= l:
                j = i - 1
                return self.bp0 + j if joint(self._coord(v, j)) else self.ap0 + j
            j = i - l - 1
            if j < self._attachments(v):
                return self.c0 + (v + j * l) // self.k
            return None
        if v < self.b0:  # a'_j
            j = v - self.ap0
            if i <= l:
                row = i - 1
                return self.b0 + row if joint(self._coord(row, j)) else row
            return None
        if v < self.bp0:  # b_i
            row = v - self.b0
            if i <= l:
                j = i - 1
                return self.ap0 + j if joint(self._coord(row, j)) else self.bp0 + j
            return None
        if v < self.c0:  # b'_j
            j = v - self.bp0
            if i <= l:
                row = i - 1
                return row if joint(self._coord(row, j)) else self.b0 + row
            return None
        t = v - self.c0
        if i <= self.k:
            return (t * self.k + i - 1) % l
        return None

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        u, v = (u, v) if u < v else (v, u)
        ga, gb = self._group(u), self._group(v)
        if ga == "A" and gb == "A'":
            return 1 - joint(self._coord(u, v - self.ap0))
        if ga == "A" and gb == "B'":
            return joint(self._coord(u, v - self.bp0))
        if ga == "A'" and gb == "B":
            return joint(self._coord(v - self.b0, u - self.ap0))
        if ga == "B" and gb == "B'":
            return 1 - joint(self._coord(u - self.b0, v - self.bp0))
        if ga == "A" and gb == "C":
            return 1 if ((u - (v - self.c0) * self.k) % self.l) < self.k else 0
        return 0

    def _group(self, v: int) -> str:
        if v < self.ap0:
            return "A"
        if v < self.b0:
            return "A'"
        if v < self.bp0:
            return "B"
        if v < self.c0:
            return "B'"
        return "C"

    def input_free_degrees(self) -> list[tuple[int, int]]:
        l, base = self.l, self._attach_base
        return [
            (self._extra, l + base + 1),
            (l - self._extra, l + base),
            (3 * l, l),
            (self.n_c, self.k),
        ]

    def edge_count(self) -> int:
        return 2 * self.l * self.l + self.k * self.n_c

    def params_json(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "n": self.n,
            "blocks": self.l * self.l,
            "pad": self.pad,
        }

    @classmethod
    def from_params_json(cls, params: dict, pp: PromisePair, seed=None):
        p = ConnectivityParams(k=params["k"], l=params["l"], n=params["n"] - params["pad"])
        return cls(p, pp, seed)
