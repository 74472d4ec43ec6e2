"""Fixed-length bit vectors with MSB-first hex serialization.

Coordinate 0 is the leftmost bit.  Hex encoding groups the bits
b0 b1 ... b(N-1) into nibbles left to right, padding the final nibble
with zeros on the right, so b0 is the most significant bit of the
first hex digit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

# 0 and 1 become their digits and any other byte 'x', which int(..., 2) refuses
_BYTE_TO_DIGIT = b"01" + b"x" * 254
_DIGIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")


class BitVec:
    """Immutable bit vector of fixed length n.

    Indexing reads a table of one byte per bit, built on the first read
    (or taken from ``from_bits``), so each read after it is O(1).
    """

    __slots__ = ("n", "_value", "_table")

    def __init__(self, n: int, value: int = 0):
        if n < 0:
            raise ValueError("length must be non-negative")
        if value < 0 or value >> n:
            raise ValueError(f"value out of range for {n} bits")
        self.n = n
        self._value = value
        self._table: Optional[bytes] = None

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVec":
        if isinstance(bits, int):  # bytes(n) would read it as a length
            raise TypeError("bits must be an iterable of 0/1 values")
        try:
            table = bytes(bits)
        except ValueError:  # an int outside 0..255
            raise ValueError("bits must be 0 or 1") from None
        try:
            value = int(table.translate(_BYTE_TO_DIGIT), 2) if table else 0
        except ValueError:  # a byte other than 0 or 1
            raise ValueError("bits must be 0 or 1") from None
        vec = cls(len(table), value)
        vec._table = table
        return vec

    @classmethod
    def from_hex(cls, s: str, n: int) -> "BitVec":
        nibbles = (n + 3) // 4
        if len(s) != nibbles:
            raise ValueError(f"expected {nibbles} hex digits for {n} bits, got {len(s)}")
        raw = int(s, 16) if s else 0
        pad = (4 - n % 4) % 4
        if raw & ((1 << pad) - 1):
            raise ValueError("nonzero padding bits in hex encoding")
        return cls(n, raw >> pad)

    def to_hex(self) -> str:
        pad = (4 - self.n % 4) % 4
        nibbles = (self.n + 3) // 4
        return format(self._value << pad, f"0{nibbles}x") if self.n else ""

    @property
    def table(self) -> bytes:
        """One byte per bit, coordinate i at index i, built on first use."""
        if self._table is None:
            digits = format(self._value, f"0{self.n}b").encode("ascii")
            self._table = digits.translate(_DIGIT_TO_BYTE)
        return self._table

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range [0, {self.n})")
        return (self._table or self.table)[i]

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return (self[i] for i in range(self.n))

    def __and__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self._value & other._value)

    def popcount(self) -> int:
        return self._value.bit_count()

    def first_one(self) -> Optional[int]:
        """The least index holding a 1 (None if there is none), found in one
        big-integer step without building the byte table."""
        return self.n - self._value.bit_length() if self._value else None

    def concat_copies(self, k: int) -> "BitVec":
        """k concatenated copies of this vector."""
        if k < 1:
            raise ValueError("k must be >= 1")
        value = 0
        for _ in range(k):
            value = (value << self.n) | self._value
        return BitVec(self.n * k, value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVec)
            and self.n == other.n
            and self._value == other._value
        )

    def __hash__(self) -> int:
        return hash((self.n, self._value))

    def __repr__(self) -> str:
        return f"BitVec('{''.join(str(b) for b in self)}')"
