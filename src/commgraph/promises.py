"""Two-party promise inputs: disjoint / unique-intersection / {0, k}-intersection.

The two N-bit inputs are the characteristic vectors held by the two
parties.  ``disj`` is 1 iff they share no coordinate; ``inter_k`` is 1
iff they share at least k coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from .bits import BitVec
from .rng import stream


class PromiseViolation(ValueError):
    """Inputs do not satisfy their declared promise."""


@dataclass(frozen=True)
class Disjoint:
    def check(self, overlap: int) -> bool:
        return overlap == 0

    def to_json(self):
        return {"kind": "disjoint"}


@dataclass(frozen=True)
class UniqueIntersection:
    def check(self, overlap: int) -> bool:
        return overlap in (0, 1)

    def to_json(self):
        return {"kind": "unique-intersection"}


@dataclass(frozen=True)
class KIntersectOrDisjoint:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")

    def check(self, overlap: int) -> bool:
        return overlap in (0, self.k)

    def to_json(self):
        return {"kind": "k-intersect-or-disjoint", "k": self.k}


Promise = Union[Disjoint, UniqueIntersection, KIntersectOrDisjoint]

# The promises a disjointness-based construction takes, by name.
DISJ_PROMISES = {"disjoint": Disjoint, "unique-intersection": UniqueIntersection}


def promise_from_json(obj) -> Promise:
    kind = obj["kind"]
    if kind == "disjoint":
        return Disjoint()
    if kind == "unique-intersection":
        return UniqueIntersection()
    if kind == "k-intersect-or-disjoint":
        return KIntersectOrDisjoint(obj["k"])
    raise ValueError(f"unknown promise kind {kind!r}")


def disj(x: BitVec, y: BitVec) -> int:
    """1 iff the inputs are disjoint."""
    return 1 if (x & y).popcount() == 0 else 0


def inter_k(x: BitVec, y: BitVec, k: int) -> int:
    """1 iff the inputs share at least k coordinates."""
    return 1 if (x & y).popcount() >= k else 0


@dataclass(frozen=True)
class PromisePair:
    """Two N-bit inputs plus the promise they are declared to satisfy."""

    x: BitVec
    y: BitVec
    promise: Promise

    def __post_init__(self):
        if self.x.n != self.y.n:
            raise PromiseViolation("inputs differ in length")
        overlap = (self.x & self.y).popcount()
        if not self.promise.check(overlap):
            raise PromiseViolation(
                f"overlap {overlap} violates promise {self.promise}"
            )

    @property
    def n_bits(self) -> int:
        return self.x.n

    @property
    def overlap(self) -> int:
        return (self.x & self.y).popcount()

    @property
    def intersecting(self) -> bool:
        return self.overlap > 0


def gen_promise_instance(n_bits: int, promise: Promise, seed: int) -> PromisePair:
    """Uniformly random pair satisfying the promise.

    The intersecting/disjoint side is chosen by a fair coin; within a side,
    each non-shared coordinate is uniform over {(0,0), (0,1), (1,0)} and
    shared positions (when present) are uniform among coordinate subsets.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if isinstance(promise, KIntersectOrDisjoint) and promise.k > n_bits:
        raise ValueError(f"infeasible: k={promise.k} exceeds N={n_bits}")
    rng = stream(seed)
    if isinstance(promise, Disjoint):
        shared: set[int] = set()
    else:
        count = 1 if isinstance(promise, UniqueIntersection) else promise.k
        shared = set(rng.sample(range(n_bits), count)) if rng.random() < 0.5 else set()
    xbits, ybits = [], []
    for i in range(n_bits):
        if i in shared:
            xbits.append(1)
            ybits.append(1)
        else:
            xb, yb = ((0, 0), (0, 1), (1, 0))[rng.randrange(3)]
            xbits.append(xb)
            ybits.append(yb)
    return PromisePair(BitVec.from_bits(xbits), BitVec.from_bits(ybits), promise)


def forced_promise_instance(
    n_bits: int, promise: Promise, seed: int, intersecting: bool
) -> PromisePair:
    """Like gen_promise_instance but with the promise side forced."""
    rng = random.Random(seed)
    for attempt in range(10_000):
        pp = gen_promise_instance(n_bits, promise, rng.getrandbits(64))
        if pp.intersecting == intersecting:
            return pp
    raise RuntimeError("could not hit the requested promise side")


def replicate_input(x: BitVec, k: int) -> BitVec:
    """Concatenation of k copies of x.

    If (x, y) satisfies the unique-intersection promise, then the pair of
    k-fold replicas satisfies the {0, k} promise and
    inter_k(x_rep, y_rep, k) = 1 - disj(x, y).
    """
    return x.concat_copies(k)
