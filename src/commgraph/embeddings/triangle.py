"""Triangle gap instances driven by an l*l grid of input coordinates.

Five vertex groups: A, A', B, B' of size l and a witness set S (default
size l), plus padding vertices with no edges.  Every A and B vertex is
adjacent to all of S.  Coordinate (i, j) toggles one matched pair of
edges: (a_i, b_j) and (a'_j, b'_i) when both inputs hold the bit,
(a_i, a'_j) and (b_j, b'_i) otherwise.  Disjoint inputs therefore leave
the graph bipartite between S+A+B and A'+B'+pad (triangle-free), while
each shared coordinate creates one A-B edge lying in |S| triangles.

Degrees never depend on the inputs, which is what makes uniform random
edge sampling simulable: a vertex is picked proportionally to its known
degree and only the final neighbor lookup can touch an input bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..promises import PromisePair
from .base import GridEmbedding, JointAccess, ParameterError


@dataclass(frozen=True)
class TriangleParams:
    l: int
    k: int
    n: Optional[int] = None  # padded up to 4l + s_size when too small
    s_size: Optional[int] = None  # defaults to l; the small-count variant shrinks it

    def __post_init__(self):
        if self.l < 1:
            raise ParameterError("l must be >= 1")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if self.s_size is not None and self.s_size < 1:
            raise ParameterError("s_size must be >= 1")


class TriangleEmbedding(GridEmbedding):
    kind = "triangle"
    supported = frozenset({"degree", "neighbor", "pair", "random_edge"})
    Params = TriangleParams
    requires = ("l", "k")
    accepts = ("n", "s_size")

    def __init__(self, params: TriangleParams, pp: PromisePair, seed=None):
        super().__init__(params, pp, seed)
        l = params.l
        self.l = l
        self.k = params.k
        self.s_size = params.s_size if params.s_size is not None else l
        minimum = 4 * l + self.s_size
        requested = params.n if params.n is not None else minimum
        self.n = max(requested, minimum)
        self.pad = self.n - requested
        # group offsets: A, A', B, B', S, padding
        self.a0 = 0
        self.ap0 = l
        self.b0 = 2 * l
        self.bp0 = 3 * l
        self.s0 = 4 * l
        self.c0 = 4 * l + self.s_size

    def _coord(self, i: int, j: int) -> int:
        return i * self.l + j

    def degree_of(self, v: int, joint: JointAccess) -> int:
        l = self.l
        if v < l or self.b0 <= v < self.bp0:  # A or B
            return l + self.s_size
        if v < self.b0 or self.bp0 <= v < self.s0:  # A' or B'
            return l
        if v < self.c0:  # S
            return 2 * l
        return 0

    def neighbor_of(self, v: int, i: int, joint: JointAccess) -> Optional[int]:
        l = self.l
        if v < l:  # a_v
            if i <= l:
                j = i - 1
                return self.b0 + j if joint(self._coord(v, j)) else self.ap0 + j
            if i <= l + self.s_size:
                return self.s0 + (i - l - 1)
            return None
        if v < self.b0:  # a'_{v-l}
            j = v - self.ap0
            if i <= l:
                row = i - 1
                return self.bp0 + row if joint(self._coord(row, j)) else row
            return None
        if v < self.bp0:  # b_{v-2l}
            j = v - self.b0
            if i <= l:
                row = i - 1
                return row if joint(self._coord(row, j)) else self.bp0 + row
            if i <= l + self.s_size:
                return self.s0 + (i - l - 1)
            return None
        if v < self.s0:  # b'_{v-3l}
            row = v - self.bp0
            if i <= l:
                j = i - 1
                return self.ap0 + j if joint(self._coord(row, j)) else self.b0 + j
            return None
        if v < self.c0:  # s vertex
            if i <= l:
                return i - 1
            if i <= 2 * l:
                return self.b0 + (i - l - 1)
            return None
        return None

    def row_of(self, v: int, joint: JointAccess) -> Sequence[int]:
        """The neighbor rule's whole row: l grid bits pick the first l
        neighbors, and A and B rows end with all of S."""
        l, s = self.l, range(self.s0, self.c0)
        if v >= self.s0:  # S: all of A, then all of B; padding: no edges
            return [*range(l), *range(self.b0, self.bp0)] if v < self.c0 else ()
        group, t = divmod(v, l)
        if group == 0:  # a_t: grid row t picks b_j or a'_j
            return [self.b0 + j if joint(t * l + j) else self.ap0 + j for j in range(l)] + list(s)
        if group == 1:  # a'_t: grid column t picks b'_i or a_i
            return [self.bp0 + i if joint(i * l + t) else i for i in range(l)]
        if group == 2:  # b_t: grid column t picks a_i or b'_i
            return [i if joint(i * l + t) else self.bp0 + i for i in range(l)] + list(s)
        # b'_t: grid row t picks a'_j or b_j
        return [self.ap0 + j if joint(t * l + j) else self.b0 + j for j in range(l)]

    def pair_of(self, u: int, v: int, joint: JointAccess) -> int:
        u, v = (u, v) if u < v else (v, u)
        ga, gb = self._group(u), self._group(v)
        l = self.l
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
        l, s = self.l, self.s_size
        return [(l, l + s), (l, l), (l, l + s), (l, l), (s, 2 * l)]

    def edge_count(self) -> int:
        return 2 * self.l * self.l + 2 * self.l * self.s_size

    def expected_triangle_count(self) -> int:
        """Exact triangle count: every triangle is {a, b, s} over a shared
        coordinate's A-B edge."""
        return self.pp.overlap * self.s_size

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
