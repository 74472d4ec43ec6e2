"""Every answer is a function of the coordinates it pays for.

The reductions turn a T-query algorithm into a protocol of at most 2T
bits because a lazy answer depends on the inputs only through x AND y on
the coordinates passed to ``joint``, which the simulator exchanges and
charges.  This check proves that, exhaustively, at one small shape per
kind: every query of every kind the construction answers (every Pair
u < v, every Degree v, every Neighbor (v, i) up to one past the maximum
degree, RandomEdge under 64 fixed rng seeds) runs on every input pair of
the promise's support, with a ``joint`` that records the coordinates it
reads, C.  Then:

1. input pairs with the same x AND y give the same answer, the same C and
   leave the rng in the same state;
2. two AND vectors that agree on the first one's C give the same answer,
   C and rng state.

Together they are the pairwise rule "input pairs whose ANDs agree on C
answer alike", at one representative per AND vector.  Two planted leaks,
a pair rule that also reads x alone and one that reads x AND y without
``joint``, must each fail it.
"""

from __future__ import annotations

import random

import pytest

from commgraph.bits import BitVec
from commgraph.embeddings import ALL_KINDS, CliqueHidingEmbedding
from commgraph.graph import Degree, Neighbor, Pair, RandomEdge
from commgraph.presets import family
from commgraph.promises import PromisePair

# One small shape per kind, N <= 4, so the promise's support is enumerable.
SHAPES = {
    "clique-hiding": dict(l=2, blocks=4, base_n=3, base_m=2, augment_connect=True),
    "triangle": dict(l=2, k=1),
    "r-clique": dict(r=4, l=2, k=1),
    "connectivity": dict(k=1, l=2),
    "degree-only": dict(n=12, k=1),
    "moments-hiding": dict(s=2, alpha=2, c=1, m_tilde=4, blocks=4),
    "moments-block": dict(s=2, alpha=3, c=1, m_tilde=28, n_side=3),
}
RNG_STATES = [random.Random(seed).getstate() for seed in range(64)]


def _support(n_bits: int, promise) -> list[tuple[BitVec, BitVec]]:
    """Every input pair of ``n_bits`` bits that the promise admits."""
    return [
        (BitVec(n_bits, x), BitVec(n_bits, y))
        for x in range(1 << n_bits)
        for y in range(1 << n_bits)
        if promise.check((x & y).bit_count())
    ]


def _queries(insts) -> list[tuple]:
    """Every query of each kind the instances answer, RandomEdge once per
    rng seed."""
    n, supported = insts[0].n, insts[0].supported
    found = []
    if "pair" in supported:
        found += [(Pair(u, v), None) for u in range(n) for v in range(u + 1, n)]
    if "degree" in supported:
        found += [(Degree(v), None) for v in range(n)]
    if "neighbor" in supported:
        top = max(max(inst.materialize().degrees()) for inst in insts) + 1
        found += [(Neighbor(v, i), None) for v in range(n) for i in range(1, min(top, n - 1) + 1)]
    if "random_edge" in supported:
        found += [(RandomEdge(), state) for state in RNG_STATES]
    return found


def _outcomes(inst, both: BitVec, queries) -> list[tuple]:
    """Each query's answer, the coordinates its ``joint`` read and the rng
    state it left, with ``joint(c)`` reading ``both``, the AND vector."""
    outcomes = []
    rng = random.Random()
    for q, state in queries:
        read = set()

        def joint(c: int) -> int:
            read.add(c)
            return both[c]

        if state is not None:
            rng.setstate(state)
        answer = inst.answer(q, joint, rng)
        outcomes.append((answer, frozenset(read), rng.getstate() if state is not None else None))
    return outcomes


def check_coordinate_dependence(kind: str) -> None:
    """Checks 1 and 2 above on ``kind``'s shape; a failure names the query."""
    fam = family(kind, **SHAPES[kind])
    pairs = _support(fam.n_bits, fam.promise)
    insts = [fam.build(PromisePair(x, y, fam.promise)) for x, y in pairs]
    queries = _queries(insts)
    by_and: dict[BitVec, list[tuple]] = {}
    for (x, y), inst in zip(pairs, insts):
        both = x & y
        outcomes = _outcomes(inst, both, queries)
        first = by_and.setdefault(both, outcomes)
        for (q, _), got, want in zip(queries, outcomes, first):
            assert got == want, (
                f"{kind}: {q} differs between input pairs with the same x AND y {both}: "
                f"{got[:2]} on x={x}, y={y} against {want[:2]}"
            )
    for a, a_outcomes in by_and.items():
        for b, b_outcomes in by_and.items():
            for (q, _), got, want in zip(queries, b_outcomes, a_outcomes):
                if a != b and all(a[c] == b[c] for c in want[1]):
                    assert got == want, (
                        f"{kind}: {q} reads {sorted(want[1])} but differs between AND "
                        f"vectors {a} and {b}, which agree there: {want[:2]} against {got[:2]}"
                    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_answer_depends_only_on_the_coordinates_it_exchanges(kind):
    check_coordinate_dependence(kind)


def _plant(monkeypatch, read) -> None:
    """Make clique-hiding's pair rule read each coordinate as ``read(inst,
    joint, c)`` instead of ``joint(c)``."""
    rule = CliqueHidingEmbedding.pair_of
    monkeypatch.setattr(
        CliqueHidingEmbedding, "pair_of",
        lambda self, u, v, joint: rule(self, u, v, lambda c: read(self, joint, c)),
    )


def test_a_pair_rule_that_also_reads_x_alone_fails_the_check(monkeypatch):
    _plant(monkeypatch, lambda inst, joint, c: joint(c) | inst.pp.x[c])
    with pytest.raises(AssertionError, match="with the same x AND y"):
        check_coordinate_dependence("clique-hiding")


def test_a_pair_rule_that_reads_x_and_y_without_joint_fails_the_check(monkeypatch):
    _plant(monkeypatch, lambda inst, joint, c: (inst.pp.x & inst.pp.y)[c])
    with pytest.raises(AssertionError, match="which agree there"):
        check_coordinate_dependence("clique-hiding")
