"""Canonical deterministic base-graph families.

Used by builders and the CLI whenever a construction needs an arbitrary
but reproducible base graph.  Neighbor orderings are ascending by id.
A construction reads its base graph through ``n``, ``m``, ``degree``,
``row``, ``shifted_rows``, ``has_edge`` and ``moment`` only, so a family
that answers these by formula (``MatchingGraph``) never materializes.
"""

from __future__ import annotations

from .graph import ExplicitGraph


def lex_graph(n: int, m: int) -> ExplicitGraph:
    """The first m edges of K_n in lexicographic order."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds the {n * (n - 1) // 2} edges of K_{n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    count = 0
    for u in range(n):
        for v in range(u + 1, n):
            if count == m:
                break
            adj[u].append(v)
            adj[v].append(u)
            count += 1
        if count == m:
            break
    return ExplicitGraph(n, [sorted(row) for row in adj])


class MatchingGraph:
    """The perfect matching on 2*pairs vertices, edges (0,1), (2,3), ...,
    answered by formula: vertex v's one neighbor is v XOR 1."""

    def __init__(self, pairs: int):
        if not isinstance(pairs, int) or pairs < 0:
            raise ValueError(f"matching needs a pair count >= 0, got {pairs!r}")
        self.pairs = pairs
        self.n = 2 * pairs
        self.m = pairs

    def degree(self, v: int) -> int:
        return 1

    def row(self, v: int) -> tuple[int]:
        return (v ^ 1,)

    def shifted_rows(self, offset: int) -> list[tuple[int]]:
        """Every vertex's neighbor, plus ``offset``."""
        return [(offset + (v ^ 1),) for v in range(self.n)]

    def has_edge(self, u: int, v: int) -> bool:
        return u ^ 1 == v

    def moment(self, s: int) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"MatchingGraph(n={self.n}, m={self.m})"


def path_graph(n: int) -> ExplicitGraph:
    adj = []
    for v in range(n):
        row = []
        if v > 0:
            row.append(v - 1)
        if v < n - 1:
            row.append(v + 1)
        adj.append(row)
    return ExplicitGraph(n, adj)


# family kind -> (its descriptor's fields, builder from the descriptor)
FAMILY_BUILDERS = {
    "explicit": (("n", "adj"), lambda desc: ExplicitGraph(desc["n"], desc["adj"])),
    "lex": (("n", "m"), lambda desc: lex_graph(desc["n"], desc["m"])),
    "matching": (("pairs",), lambda desc: MatchingGraph(desc["pairs"])),
    "path": (("n",), lambda desc: path_graph(desc["n"])),
}


def base_graph_from_json(desc: dict) -> ExplicitGraph | MatchingGraph:
    kind = desc["kind"]
    if kind not in FAMILY_BUILDERS:
        raise ValueError(f"unknown base graph family {kind!r}")
    fields, build = FAMILY_BUILDERS[kind]
    unknown = sorted(desc.keys() - {"kind", *fields})
    if unknown:
        raise ValueError(f"base graph family {kind!r} has unknown key {unknown[0]!r}")
    return build(desc)


def base_graph_to_json(g: ExplicitGraph, family: dict | None) -> dict:
    """Serialize a base graph: by family descriptor when one is known,
    otherwise as explicit adjacency."""
    if family is not None:
        return family
    return {"kind": "explicit", "n": g.n, "adj": [list(row) for row in g.adj]}
