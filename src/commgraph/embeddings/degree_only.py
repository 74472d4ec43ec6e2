"""Degree-query-only gap instances.

Three equal thirds U, V, W, each split into blocks of size k.  On the
disjoint side U is isolated and each V_i x W_i is complete bipartite; on
the unique-intersection side the hot block U_j is completely joined to
V and W and nothing else has edges.  Either way every V and W vertex has
degree exactly k, so only degrees of U vertices reveal anything, and a
single bit exchange settles them.

Only degree queries are served lazily: answering a neighbor or pair
query cheaply would require locating the hot block, which is exactly
what the construction is hiding.  Materialization still produces the
full graph for offline verification: a closed-form range per row,
one tuple shared by the k rows of a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..graph import ExplicitGraph
from ..promises import PromisePair
from ..verify import VerificationReport
from .base import Embedding, JointAccess, ParameterError


@dataclass(frozen=True)
class DegreeOnlyParams:
    n: int
    k: int  # block size; n is padded up to a multiple of 3k

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if self.n < 1:
            raise ParameterError("n must be >= 1")


class DegreeOnlyEmbedding(Embedding):
    kind = "degree-only"
    comm_function = "disj"
    supported = frozenset({"degree"})
    Params = DegreeOnlyParams
    requires = ("n", "k")
    accepts = ("promise",)
    swept = "n"

    def __init__(self, params: DegreeOnlyParams, pp: PromisePair, seed=None):
        super().__init__(params, pp, seed)
        self.k = params.k
        self.blocks = pp.n_bits
        self.n = 3 * self.k * self.blocks
        self.pad = self.n - params.n
        self.third = self.n // 3
        self._hot = (pp.x & pp.y).first_one()  # the shared block, if any

    @classmethod
    def n_bits_for(cls, params: DegreeOnlyParams) -> int:
        """One block per 3k vertices, n padded up to a multiple of 3k."""
        return -(-params.n // (3 * params.k))

    @classmethod
    def swept_value(cls, n_bits: int, flags: dict) -> int:
        return 3 * flags["k"] * n_bits

    def degree_of(self, v: int, joint: JointAccess) -> int:
        if v >= self.third:  # V or W: degree k on both promise sides
            return self.k
        j = v // self.k
        return (2 * self.n) // 3 if joint(j) else 0

    def row_of(self, v: int, joint: JointAccess) -> Sequence[int]:
        # Materialization only: the oracle answers degree queries alone.
        k, third, hot = self.k, self.third, self._hot
        if v < third:  # U: the hot block is joined to all of V and W
            return range(third, self.n) if hot is not None and v // k == hot else ()
        if hot is not None:
            return range(hot * k, hot * k + k)
        in_v = v < 2 * third
        block = (v - (third if in_v else 2 * third)) // k
        partner_base = (2 * third if in_v else third) + block * k
        return range(partner_base, partner_base + k)

    def rows(self, joint: JointAccess) -> list[Sequence[int]]:
        # the k vertices of a block have one row, so they share one tuple
        k, row_of = self.k, self.row_of
        rows: list[Sequence[int]] = []
        for start in range(0, self.n, k):
            rows += [tuple(row_of(start, joint))] * k
        return rows

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        u, v = (u, v) if u < v else (v, u)
        k, third, hot = self.k, self.third, self._hot
        if hot is None:
            if third <= u < 2 * third and v >= 2 * third:
                return 1 if (u - third) // k == (v - 2 * third) // k else 0
            return 0
        if u < third and v >= third:
            return 1 if u // k == hot else 0
        return 0

    def edge_count(self) -> int:
        return (self.n * self.k) // 3 if self._hot is None else (2 * self.n * self.k) // 3

    def claims(self, g: ExplicitGraph) -> list[VerificationReport]:
        n, k, m = self.n, self.k, g.m
        want = 2 * n * k // 3 if self.pp.intersecting else n * k // 3
        degrees = g.degrees()
        vw_ok = all(degrees[v] == k for v in range(self.third, n))
        return [
            self.edge_count_report(g),
            VerificationReport("edge_count", m, f"m == {want}", m == want),
            VerificationReport("degree_table", k, "every V,W vertex has degree k", vw_ok),
        ]

    # U_j's first vertex is joined to all of V and W only when j is shared
    probe_vertex = property(lambda self: (self.k, 0, 0))

    def params_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "blocks": self.blocks,
            "pad": self.pad,
        }

    @classmethod
    def from_params_json(cls, params: dict, pp: PromisePair, seed=None):
        return cls(DegreeOnlyParams(n=params["n"] - params["pad"], k=params["k"]), pp, seed)
