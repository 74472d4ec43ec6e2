"""Degree-moment gap instances that hide complete bipartite blocks.

Same hiding pattern as the clique blocks, but each active block is the
complete bipartite graph K_{p, alpha} with p chosen as the least integer
satisfying alpha * p^s >= c * m_tilde.  An active block then contributes
at least c * m_tilde to the s-th degree moment while its edges still
decompose into alpha stars, so the arboricity never rises above
max(alpha, arboricity of the base graph).

The base graph must have s-th moment exactly m_tilde; the default is a
perfect matching (m_tilde/2 edges, arboricity 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..families import MatchingGraph, base_graph_from_json, base_graph_to_json
from ..graph import ExplicitGraph
from ..promises import PromisePair
from ..verify import VerificationReport, check_alpha_bounds, moment
from .base import Embedding, JointAccess, ParameterError, least_at_least


def _least_power_at_least(alpha: int, s: int, target: int) -> int:
    """Smallest p >= 1 with alpha * p^s >= target."""
    return least_at_least(lambda p: alpha * p**s, target)


@dataclass(frozen=True)
class MomentsHidingParams:
    s: int
    alpha: int
    c: int
    m_tilde: int
    blocks: int
    base: Optional[ExplicitGraph | MatchingGraph] = None  # default: matching, moment m_tilde
    base_family: Optional[dict] = None

    def __post_init__(self):
        if self.s < 1:
            raise ParameterError("moment order s must be >= 1")
        if self.alpha < 1:
            raise ParameterError("alpha must be >= 1")
        if self.c < 1:
            raise ParameterError("gap factor c must be >= 1")
        if self.m_tilde < 1:
            raise ParameterError("m_tilde must be >= 1")
        if self.blocks < 1:
            raise ParameterError("blocks must be >= 1")
        # The base is built and checked here, once, so every instance built
        # from these parameters (one per trial) shares it.
        if self.base is None:
            if self.m_tilde % 2:
                raise ParameterError(
                    "default matching base needs even m_tilde; pass a base graph"
                )
            pairs = self.m_tilde // 2
            object.__setattr__(self, "base", MatchingGraph(pairs))
            object.__setattr__(self, "base_family", {"kind": "matching", "pairs": pairs})
        actual = self.base.moment(self.s)
        if actual != self.m_tilde:
            raise ParameterError(
                f"base graph moment M_{self.s} = {actual} != m_tilde = {self.m_tilde}"
            )


class MomentsHidingEmbedding(Embedding):
    kind = "moments-hiding"
    comm_function = "disj"
    supported = frozenset({"degree", "neighbor", "pair"})
    Params = MomentsHidingParams
    requires = ("s", "alpha", "c", "m_tilde", "blocks")
    accepts = ("promise",)
    swept = "blocks"

    def __init__(self, params: MomentsHidingParams, pp: PromisePair, seed=None):
        super().__init__(params, pp, seed)
        self.s, self.alpha, self.c = params.s, params.alpha, params.c
        self.m_tilde = params.m_tilde
        self.base = params.base
        self.base_family = params.base_family
        self.p = _least_power_at_least(self.alpha, self.s, self.c * self.m_tilde)
        self.block_size = self.p + self.alpha
        self.blocks = params.blocks
        self.block_span = self.blocks * self.block_size
        self.offset = self.block_span
        self.n = self.block_span + self.base.n

    @classmethod
    def n_bits_for(cls, params: MomentsHidingParams) -> int:
        return params.blocks

    def _locate(self, v: int) -> tuple[int, int]:
        return v // self.block_size, v % self.block_size

    def degree_of(self, v: int, joint: JointAccess) -> int:
        if v < self.block_span:
            j, z = self._locate(v)
            if not joint(j):
                return 0
            return self.alpha if z < self.p else self.p
        return self.base.degree(v - self.offset)

    def neighbor_of(self, v: int, i: int, joint: JointAccess) -> Optional[int]:
        if v < self.block_span:
            j, z = self._locate(v)
            start = j * self.block_size
            if z < self.p:
                if i <= self.alpha and joint(j):
                    return start + self.p + (i - 1)
                return None
            if i <= self.p and joint(j):
                return start + (i - 1)
            return None
        row = self.base.row(v - self.offset)
        return self.offset + row[i - 1] if i <= len(row) else None

    def rows(self, joint: JointAccess) -> list[Sequence[int]]:
        # an active block's p rows share one tuple, as do its alpha rows
        p, size = self.p, self.block_size
        rows: list[Sequence[int]] = []
        for j in range(self.blocks):
            start = j * size
            if joint(j):
                rows += [tuple(range(start + p, start + size))] * p
                rows += [tuple(range(start, start + p))] * self.alpha
            else:
                rows += [()] * size
        rows += self.base.shifted_rows(self.offset)
        return rows

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        ub, vb = u < self.block_span, v < self.block_span
        if ub and vb:
            ju, zu = self._locate(u)
            jv, zv = self._locate(v)
            if ju != jv:
                return 0
            if (zu < self.p) == (zv < self.p):  # same side of the bipartition
                return 0
            return joint(ju)
        if not ub and not vb:
            return 1 if self.base.has_edge(u - self.offset, v - self.offset) else 0
        return 0

    def edge_count(self) -> int:
        return self.base.m + self.p * self.alpha * self.pp.overlap

    def block_moment(self) -> int:
        """Exact s-th moment of one active block K_{p, alpha}."""
        return self.alpha * self.p**self.s + self.p * self.alpha**self.s

    def expected_moment(self) -> int:
        return self.m_tilde + self.block_moment() * self.pp.overlap

    def claims(self, g: ExplicitGraph) -> list[VerificationReport]:
        m_s, name, expected = moment(g, self.s), f"moment({self.s})", self.expected_moment()
        reports = [VerificationReport(name, m_s, f"M_s == {expected}", m_s == expected)]
        if self.pp.intersecting:
            bound = (1 + self.c) * self.m_tilde
            reports.append(VerificationReport(name, m_s, f"M_s >= {bound}", m_s >= bound))
        else:
            claim = f"M_s == {self.m_tilde}"
            reports.append(VerificationReport(name, m_s, claim, m_s == self.m_tilde))
        if self.s >= 2:
            reports.append(check_alpha_bounds(g, self.s))
        return reports

    # block j's first vertex on each side of K_{p, alpha} are adjacent, and
    # its first vertex gains alpha neighbors, only when j is shared
    witness_pair = property(lambda self: (self.block_size, self.p))
    probe_vertex = property(lambda self: (self.block_size, 0, 0))

    def block_vertices(self, j: int) -> list[int]:
        start = j * self.block_size
        return list(range(start, start + self.block_size))

    def params_json(self) -> dict:
        return {
            "s": self.s,
            "alpha": self.alpha,
            "c": self.c,
            "m_tilde": self.m_tilde,
            "blocks": self.blocks,
            "p": self.p,
            "block_size": self.block_size,
            "n": self.n,
            "base": base_graph_to_json(self.base, self.base_family),
        }

    @classmethod
    def from_params_json(cls, params: dict, pp: PromisePair, seed=None):
        base = base_graph_from_json(params["base"])
        family = params["base"] if params["base"].get("kind") != "explicit" else None
        p = MomentsHidingParams(
            s=params["s"],
            alpha=params["alpha"],
            c=params["c"],
            m_tilde=params["m_tilde"],
            blocks=params["blocks"],
            base=base,
            base_family=family,
        )
        return cls(p, pp, seed)
