"""Two-party promise inputs: disjoint / unique-intersection / {0, k}-intersection.

The two N-bit inputs are the characteristic vectors held by the two
parties.  ``disj`` is 1 iff they share no coordinate; ``inter_k`` is 1
iff they share at least k coordinates.  ``gen_promise_instance`` fixes the
shared coordinates, x AND y, before it draws the rest of x and y, two
random bits per coordinate.
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


# A coordinate's draw code 0, 1, 2 stands for the pair (0,0), (0,1), (1,0);
# code 3 marks a shared coordinate (1,1).  Each random byte holds four
# two-bit codes: the table of pair j maps a byte to bits 2j and 2j+1, and its
# delete set holds the bytes whose pair j is 3.
_BIT_PAIRS = [
    (bytes((b >> 2 * j) & 3 for b in range(256)),
     bytes(b for b in range(256) if (b >> 2 * j) & 3 == 3))
    for j in range(4)
]
_CODE_TO_X = bytes.maketrans(b"\x00\x01\x02\x03", b"\x00\x00\x01\x01")
_CODE_TO_Y = bytes.maketrans(b"\x00\x01\x02\x03", b"\x00\x01\x00\x01")


def _ternary_codes(rng: random.Random, count: int) -> bytes:
    """``count`` uniform codes in {0, 1, 2}, two random bits each.

    Each round takes ``b`` bytes from ``getrandbits(8 * b)``, little-endian,
    and reads pair 0 of every byte, then pair 1, pair 2 and pair 3; the
    code 3 is rejected, so the codes kept stay uniform.  A byte keeps three
    codes on average, and ``b`` leaves a margin of at least four standard
    deviations, so a second round is rare.  Codes past ``count``
    are left unused, so the caller must discard ``rng`` afterwards.
    """
    codes = b""
    while len(codes) < count:
        need = count - len(codes)
        b = need // 3 + need // 64 + 8
        raw = rng.getrandbits(8 * b).to_bytes(b, "little")
        codes += b"".join([raw.translate(pair, rejected) for pair, rejected in _BIT_PAIRS])
    return codes[:count]


def gen_promise_instance(n_bits: int, promise: Promise, seed: int) -> PromisePair:
    """Uniformly random pair satisfying the promise.

    The intersecting/disjoint side is chosen by a fair coin; within a side,
    each non-shared coordinate is uniform over {(0,0), (0,1), (1,0)} and
    shared positions (when present) are uniform among coordinate subsets.
    The coin and the shared positions are drawn first; the non-shared
    coordinates then take successive ``_ternary_codes`` of the seed's
    stream in coordinate order, two random bits each, in O(N).
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if isinstance(promise, KIntersectOrDisjoint) and promise.k > n_bits:
        raise ValueError(f"infeasible: k={promise.k} exceeds N={n_bits}")
    rng = stream(seed)
    if isinstance(promise, Disjoint):
        shared: list[int] = []
    else:
        count = 1 if isinstance(promise, UniqueIntersection) else promise.k
        shared = sorted(rng.sample(range(n_bits), count)) if rng.random() < 0.5 else []
    draws = _ternary_codes(rng, n_bits - len(shared))
    pieces, start = [], 0
    for j, pos in enumerate(shared):  # draws[start:pos - j] fill the gap before pos
        pieces.append(draws[start:pos - j])
        start = pos - j
    pieces.append(draws[start:])
    codes = b"\x03".join(pieces)
    return PromisePair(
        BitVec.from_bits(codes.translate(_CODE_TO_X)),
        BitVec.from_bits(codes.translate(_CODE_TO_Y)),
        promise,
    )


def replicate_input(x: BitVec, k: int) -> BitVec:
    """Concatenation of k copies of x.

    If (x, y) satisfies the unique-intersection promise, then the pair of
    k-fold replicas satisfies the {0, k} promise and
    inter_k(x_rep, y_rep, k) = 1 - disj(x, y).
    """
    return x.concat_copies(k)
