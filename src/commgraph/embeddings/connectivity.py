"""Edge-connectivity gap instances.

The grid routing gadget (see ``GridEmbedding``) with B' = P and B = Q,
plus an attachment pool C.  Each grid coordinate (i, j) routes one pair
of edges: crossing edges (a_i, b'_j), (b_i, a'_j) when both inputs hold
the bit, side-preserving edges (a_i, a'_j), (b_i, b'_j) otherwise.
Disjoint inputs leave no edge between the A side and the B side, so the
graph is disconnected; with k shared coordinates the graph is
k-edge-connected.  Every c in C hangs off
k distinct A vertices, assigned round-robin, so all degrees are fixed in
advance and uniform edge sampling is simulable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..graph import ExplicitGraph
from ..promises import PromisePair
from ..verify import VerificationReport, connected_components, min_cut
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
        self.p0, self.q0 = 3 * l, 2 * l  # B' = [3l, 4l) is j-indexed, B = [2l, 3l) i-indexed
        self.c0 = 4 * l
        self.n_c = self.n - 4 * l
        # Round-robin attachments: c_t's r-th neighbor is a_((t*k + r - 1) mod l).
        # Slot e = t*k + r - 1 runs over [0, n_c*k), so a_i holds the slots
        # i, i + l, i + 2l, ... below n_c*k, in order: its j-th attachment
        # (from 0) is c_((i + j*l) // k), and the first ``_extra`` A vertices
        # hold one more than the others' ``_attach_base``.
        self._attach_base, self._extra = divmod(self.n_c * k, l)

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
        if v < self.c0:  # gadget; A continues with its attachments
            if i <= l:
                return self.grid_neighbor(v, i, joint)
            j = i - l - 1
            if v < l and j < self._attachments(v):
                return self.c0 + (v + j * l) // self.k
            return None
        if i <= self.k:  # c_t
            return ((v - self.c0) * self.k + i - 1) % l
        return None

    def row_of(self, v: int, joint: JointAccess) -> Sequence[int]:
        """The neighbor rule's whole row in one pass."""
        l, k = self.l, self.k
        if v < self.c0:  # the gadget row; A rows end with their attachments
            row = self.grid_row(v, joint)
            if v < l:
                row.extend(self.c0 + (v + j * l) // k for j in range(self._attachments(v)))
            return row
        t = v - self.c0
        return [(t * k + r) % l for r in range(k)]

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        u, v = (u, v) if u < v else (v, u)
        if v < self.c0:
            return self.grid_pair(u, v, joint)
        if u < self.l:  # a_u against c_(v - 4l)
            return 1 if ((u - (v - self.c0) * self.k) % self.l) < self.k else 0
        return 0

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

    def claims(self, g: ExplicitGraph) -> list[VerificationReport]:
        if self.pp.intersecting:
            cut = min_cut(g)
            gap = VerificationReport("min_cut", cut, f"min cut >= {self.k}", cut >= self.k)
        else:
            comps = connected_components(g)
            gap = VerificationReport("connected_components", comps, "components >= 2", comps >= 2)
        return [self.edge_count_report(g), gap]

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
