"""Degree-moment gap instances that reroute neighbor blocks.

A and B are two sides of size n_side.  On the disjoint side A+B is a
d-regular bipartite circulant: a_i's r-th neighbor is b at index
(i + r - 1) mod n_side, and symmetrically b_t's r-th neighbor is a at
index (t - r + 1) mod n_side, so an edge occupies the same position
offset on both endpoints.  Positions are split into d/l blocks of l;
when the inputs share coordinate j, block j of every A+B vertex is
rerouted into the pool W_j, whose w_size vertices then each pick up
degree 2*n_side*l/w_size.  R is always a clique on alpha vertices and
pins the arboricity.

Rerouted targets are assigned by contiguous chunks: the first
2*n_side*l/w_size vertices of A+B (A first, then B) connect to the first
l vertices of W_j, and so on.  In the high-moment regime w_size = l, so
a rerouted block makes W_j completely bipartite to A+B.

Derived quantities use exact integer arithmetic; impossible parameter
combinations raise with the violated constraint named.  Two readings in
the source material are ambiguous and resolved here: rerouted W_j
degrees are 2*n_side*l/w_size in every regime, and the high-moment
regime carries the single assumption d > l.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from ..graph import ExplicitGraph
from ..promises import PromisePair
from ..verify import VerificationReport, check_alpha_bounds, moment
from .base import Embedding, JointAccess, ParameterError, least_at_least


def _floor_root(value: int, s: int) -> int:
    """Largest d >= 0 with d^s <= value."""
    if value < 0:
        raise ValueError("negative radicand")
    return least_at_least(lambda d: d**s, value + 1) - 1


def _least_scaled(target: int, unit: int) -> int:
    """Smallest k >= 1 with k * unit >= target."""
    return max(1, -(-target // unit))


@dataclass(frozen=True)
class MomentsBlockParams:
    s: int
    alpha: int
    c: int
    m_tilde: int
    n_side: int  # size of each bipartite side

    def __post_init__(self):
        if self.s < 1:
            raise ParameterError("moment order s must be >= 1")
        if self.alpha < 1:
            raise ParameterError("alpha must be >= 1")
        if self.c < 1:
            raise ParameterError("gap factor c must be >= 1")
        if self.m_tilde < 1:
            raise ParameterError("m_tilde must be >= 1")
        if self.n_side < 1:
            raise ParameterError("n_side must be >= 1")


@dataclass(frozen=True)
class DerivedBlockShape:
    case: str
    subcase: int
    d: int
    l: int
    w_size: int
    blocks: int
    chunk_size: int


def derive_block_shape(params: MomentsBlockParams) -> DerivedBlockShape:
    """Resolve the regime and all derived sizes with exact integer
    arithmetic, raising with the violated constraint named."""
    s, alpha, c = params.s, params.alpha, params.c
    m_tilde, n_side = params.m_tilde, params.n_side

    if m_tilde * c**s <= n_side**s:
        case = "low-moment"
        # l = ceil(c * m_tilde^(1/s) / (2 n)): least l with (2 n l)^s >= m_tilde c^s
        l = _least_scaled_root(m_tilde * c**s, 2 * n_side, s)
        w_size = c
    elif m_tilde > n_side**s:
        case = "high-moment"
        w_size = _least_scaled(c * m_tilde, (2 * n_side) ** s)
        l = w_size
    else:
        raise ParameterError(
            "m_tilde falls between (n_side/c)^s and n_side^s: neither regime applies"
        )

    if alpha**s * n_side < m_tilde:
        subcase, d = 1, alpha
    else:
        subcase, d = 2, _floor_root(m_tilde // n_side, s)

    if d < 1:
        raise ParameterError("derived degree d = 0: m_tilde too small for n_side")
    if d > n_side:
        raise ParameterError(f"derived degree d = {d} exceeds n_side")
    if case == "high-moment" and d <= l:
        raise ParameterError(
            f"high-moment regime requires d > l (got d={d}, l={l})"
        )
    if d % l:
        raise ParameterError(f"l = {l} must divide d = {d}")
    if w_size % l:
        raise ParameterError(f"group size l = {l} must divide w_size = {w_size}")
    if (2 * n_side * l) % w_size:
        raise ParameterError(
            f"chunking mismatch: 2*n_side*l = {2 * n_side * l}"
            f" not divisible by w_size = {w_size}"
        )
    return DerivedBlockShape(
        case=case,
        subcase=subcase,
        d=d,
        l=l,
        w_size=w_size,
        blocks=d // l,
        chunk_size=(2 * n_side * l) // w_size,
    )


class MomentsBlockEmbedding(Embedding):
    kind = "moments-block"
    comm_function = "disj"
    supported = frozenset({"degree", "neighbor", "pair"})
    Params = MomentsBlockParams
    requires = ("s", "alpha", "c", "m_tilde", "n_side")
    accepts = ("promise",)

    def __init__(self, params: MomentsBlockParams, pp: PromisePair, seed=None):
        super().__init__(params, pp, seed)
        self.s, self.alpha, self.c = params.s, params.alpha, params.c
        self.m_tilde, self.n_side = params.m_tilde, params.n_side
        shape = derive_block_shape(params)
        self.case, self.subcase = shape.case, shape.subcase
        self.d, self.l, self.w_size = shape.d, shape.l, shape.w_size
        self.blocks, self.chunk_size = shape.blocks, shape.chunk_size
        self.r0 = 2 * self.n_side
        self.w0 = self.r0 + self.alpha
        self.n = self.w0 + self.blocks * self.w_size

    @classmethod
    def n_bits_for(cls, params: MomentsBlockParams) -> int:
        return derive_block_shape(params).blocks

    # combined A+B index of a vertex (A first, then B) is its global id
    def _w_block(self, v: int) -> tuple[int, int]:
        off = v - self.w0
        return off // self.w_size, off % self.w_size

    def degree_of(self, v: int, joint: JointAccess) -> int:
        if v < self.r0:
            return self.d
        if v < self.w0:
            return self.alpha - 1
        j, _ = self._w_block(v)
        return self.chunk_size if joint(j) else 0

    def neighbor_of(self, v: int, i: int, joint: JointAccess) -> Optional[int]:
        n = self.n_side
        if v < self.r0:  # a_i or b_t
            if i > self.d:
                return None
            jb, t = (i - 1) // self.l, (i - 1) % self.l
            if joint(jb):
                grp = v // self.chunk_size
                return self.w0 + jb * self.w_size + grp * self.l + t
            if v < n:  # a_v
                return n + (v + i - 1) % n
            return (v - n - i + 1) % n  # b_{v-n}
        if v < self.w0:  # R clique, modular ordering
            z = v - self.r0
            if i <= self.alpha - 1:
                return self.r0 + (z + i) % self.alpha
            return None
        j, z = self._w_block(v)
        if i <= self.chunk_size and joint(j):
            grp = z // self.l
            return grp * self.chunk_size + (i - 1)
        return None

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        u, v = (u, v) if u < v else (v, u)
        n = self.n_side
        if v < self.r0:
            if u < n and v >= n:  # a_u, b_{v-n}
                offset = (v - n - u) % n
                if offset >= self.d:
                    return 0
                return 1 - joint(offset // self.l)
            return 0
        if u >= self.r0 and v < self.w0:  # both in R
            return 1
        if u < self.r0 and v >= self.w0:  # A+B against W
            j, z = self._w_block(v)
            if u // self.chunk_size != z // self.l:
                return 0
            return joint(j)
        return 0

    def edge_count(self) -> int:
        # Rerouting a block replaces n*l A-B edges (two A+B endpoints each)
        # with 2*n*l A-W edges (one A+B endpoint each): net gain n*l.
        return (
            self.n_side * self.d
            + comb(self.alpha, 2)
            + self.n_side * self.l * self.pp.overlap
        )

    def expected_moment(self) -> int:
        """Exact analytic s-th moment for this instance's promise side."""
        return self.moment_both_sides()[self.pp.intersecting]

    def moment_both_sides(self) -> tuple[int, int]:
        """(disjoint, intersecting) analytic moments for these parameters."""
        quiet = 2 * self.n_side * self.d**self.s + self.alpha * (self.alpha - 1) ** self.s
        return quiet, quiet + self.w_size * self.chunk_size**self.s

    def claims(self, g: ExplicitGraph) -> list[VerificationReport]:
        m_s, name, expected = moment(g, self.s), f"moment({self.s})", self.expected_moment()
        (quiet, loud), c = self.moment_both_sides(), self.c
        if self.pp.intersecting:
            claim, ok = f"3*M_s >= c*disjoint-side M_s = {c * quiet}", 3 * m_s >= c * quiet
        else:
            claim, ok = f"3*intersecting-side M_s = {3 * loud} >= c*M_s", 3 * loud >= c * m_s
        reports = [
            VerificationReport(name, m_s, f"M_s == {expected}", m_s == expected),
            VerificationReport(name, m_s, claim, ok),
        ]
        if self.s >= 2:
            reports.append(check_alpha_bounds(g, self.s))
        return reports

    # W_j's first vertex gains chunk_size neighbors only when j is shared
    probe_vertex = property(lambda self: (self.w_size, self.w0, 0))

    def params_json(self) -> dict:
        return {
            "s": self.s,
            "alpha": self.alpha,
            "c": self.c,
            "m_tilde": self.m_tilde,
            "n_side": self.n_side,
            "case": self.case,
            "subcase": self.subcase,
            "d": self.d,
            "l": self.l,
            "w_size": self.w_size,
            "blocks": self.blocks,
            "chunk_size": self.chunk_size,
            "n": self.n,
        }

    @classmethod
    def from_params_json(cls, params: dict, pp: PromisePair, seed=None):
        p = MomentsBlockParams(
            s=params["s"],
            alpha=params["alpha"],
            c=params["c"],
            m_tilde=params["m_tilde"],
            n_side=params["n_side"],
        )
        return cls(p, pp, seed)


def _least_scaled_root(target: int, unit: int, s: int) -> int:
    """Smallest l >= 1 with (unit * l)^s >= target."""
    return least_at_least(lambda l: (unit * l) ** s, target)
