"""Clique hiding: blocks of potential cliques next to a fixed base graph.

Vertices [0, blocks*l) are the hiding blocks; block j is a clique exactly
when both inputs have bit j set, and isolated otherwise.  The base graph
occupies the remaining vertices unchanged.  With ``augment_connect`` every
vertex is additionally attached to a fixed hub vertex of the base graph,
which makes the graph connected with diameter 2 without disturbing the
edge-count gap.

Inside an active block the i-th neighbor of the block-local vertex z is
block-local (z + i) mod l for i in [1, l-1], so the ordering is a
bijection and never maps a vertex to itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from typing import Optional

from ..families import base_graph_from_json, base_graph_to_json, lex_graph
from ..graph import ExplicitGraph
from ..promises import PromisePair
from ..verify import VerificationReport
from .base import Embedding, JointAccess, ParameterError


@dataclass(frozen=True)
class CliqueHidingParams:
    base: ExplicitGraph
    l: int  # block size
    blocks: int
    augment_connect: bool = False
    base_family: Optional[dict] = None  # JSON descriptor when canonical

    def __post_init__(self):
        if self.l < 1:
            raise ParameterError("block size l must be >= 1")
        if self.blocks < 1:
            raise ParameterError("blocks must be >= 1")
        if self.augment_connect and self.base.n < 1:
            raise ParameterError("augment_connect needs a base vertex to act as hub")


class CliqueHidingEmbedding(Embedding):
    kind = "clique-hiding"
    comm_function = "disj"
    supported = frozenset({"degree", "neighbor", "pair"})
    Params = CliqueHidingParams
    requires = ("l", "blocks")
    accepts = ("base_n", "base_m", "augment_connect", "promise")
    swept = "blocks"

    def __init__(self, params: CliqueHidingParams, pp: PromisePair, seed=None):
        super().__init__(params, pp, seed)
        self.l = params.l
        self.blocks = params.blocks
        self.base = params.base
        self.block_span = self.blocks * self.l
        self.offset = self.block_span  # base copy starts here
        self.n = self.block_span + self.base.n
        self.augment = params.augment_connect
        self.hub = self.offset if self.augment else None

    @classmethod
    def params_from_flags(cls, l, blocks, base_n=4, base_m=3, augment_connect=False):
        """The base graph is the first base_m edges of K_base_n (``lex_graph``)."""
        return CliqueHidingParams(
            base=lex_graph(base_n, base_m),
            l=l,
            blocks=blocks,
            augment_connect=augment_connect,
            base_family={"kind": "lex", "n": base_n, "m": base_m},
        )

    @classmethod
    def n_bits_for(cls, params: CliqueHidingParams) -> int:
        return params.blocks

    # block-local helpers
    def _block_of(self, v: int) -> int:
        return v // self.l

    def degree_of(self, v: int, joint: JointAccess) -> int:
        if v < self.block_span:
            if self.l == 1:  # size-1 blocks never hold edges
                return 1 if self.augment else 0
            d = (self.l - 1) if joint(self._block_of(v)) else 0
            return d + (1 if self.augment else 0)
        b = v - self.offset
        if not self.augment:
            return self.base.degree(b)
        if b == 0:
            return self.n - 1
        return self.base.degree(b) + (0 if self.base.has_edge(b, 0) else 1)

    def neighbor_of(self, v: int, i: int, joint: JointAccess) -> Optional[int]:
        if v < self.block_span:
            max_pos = self.l if self.augment else self.l - 1
            if i > max_pos:
                return None
            if self.l == 1:  # position 1 is the hub on both promise sides
                return self.hub
            j = self._block_of(v)
            z = v - j * self.l
            if joint(j):
                if i <= self.l - 1:
                    return j * self.l + (z + i) % self.l
                return self.hub  # i == l, augment only
            return self.hub if (self.augment and i == 1) else None
        b = v - self.offset
        if self.augment and b == 0:
            return (i - 1 if i <= self.offset else i) if i <= self.n - 1 else None
        row = self.base.row(b)
        if i <= len(row):
            return self.offset + row[i - 1]
        if self.augment and i == len(row) + 1 and not self.base.has_edge(b, 0):
            return self.hub
        return None

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        if self.augment and (u == self.hub or v == self.hub):
            return 1
        ub, vb = u < self.block_span, v < self.block_span
        if ub and vb:
            j = self._block_of(u)
            if j == self._block_of(v):
                return joint(j)
            return 0
        if not ub and not vb:
            return 1 if self.base.has_edge(u - self.offset, v - self.offset) else 0
        return 0

    def edge_count(self) -> int:
        return self.baseline_edge_count() + comb(self.l, 2) * self.pp.overlap

    def baseline_edge_count(self) -> int:
        """Edge count on the disjoint side (same parameters)."""
        m = self.base.m
        if self.augment:
            m += self.n - 1 - self.base.degree(0)
        return m

    def claims(self, g: ExplicitGraph) -> list[VerificationReport]:
        m, baseline = g.m, self.baseline_edge_count()
        if self.pp.intersecting:
            gain = comb(self.l, 2)
            side = VerificationReport(
                "edge_count", m, f"m >= baseline + {gain}", m >= baseline + gain
            )
        else:
            side = VerificationReport("edge_count", m, "m == baseline", m == baseline)
        return [self.edge_count_report(g), side]

    # block j's first two vertices are adjacent, and its first vertex gains
    # l - 1 neighbors, only when j is shared; one-vertex blocks have no pair
    witness_pair = property(lambda self: (self.l, 1) if self.l >= 2 else None)
    probe_vertex = property(lambda self: (self.l, 0, 1 if self.augment else 0))

    def params_json(self) -> dict:
        return {
            "l": self.l,
            "blocks": self.blocks,
            "n": self.n,
            "augment_connect": self.augment,
            "base": base_graph_to_json(self.base, self.params.base_family),
            "base_m": self.base.m,
        }

    @classmethod
    def from_params_json(cls, params: dict, pp: PromisePair, seed=None):
        base = base_graph_from_json(params["base"])
        p = CliqueHidingParams(
            base=base,
            l=params["l"],
            blocks=params["blocks"],
            augment_connect=params.get("augment_connect", False),
            base_family=params["base"] if params["base"].get("kind") != "explicit" else None,
        )
        return cls(p, pp, seed)


def edge_counting_block_side(eps_num: int, eps_den: int, base_m: int) -> int:
    """Smallest block size l with l >= 2*sqrt(eps*base_m), so an active
    block contributes at least eps*base_m edges: C(l,2) >= eps*base_m
    whenever eps*base_m >= 1."""
    target = 4 * eps_num * base_m  # l^2 >= 4*eps*m'  <=>  l^2*den >= 4*num*m'
    lo = isqrt(target // eps_den)
    while lo * lo * eps_den < target:
        lo += 1
    return max(lo, 1)


def triangle_freeness_block_side(eps_num: int, eps_den: int, base_m: int) -> int:
    """Smallest block size l with l >= sqrt(eps*base_m) (the preset used
    when the base graph is triangle-free and blocks must hold ~eps*m edges)."""
    target = eps_num * base_m
    lo = isqrt(target // eps_den)
    while lo * lo * eps_den < target:
        lo += 1
    return max(lo, 1)
