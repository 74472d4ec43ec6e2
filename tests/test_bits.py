import pytest
from hypothesis import given, settings, strategies as st

from commgraph.bits import BitVec

from helpers import bits_from_string


def test_msb_first_hex():
    # bits 1010 -> first nibble 0xa
    assert bits_from_string("1010").to_hex() == "a"
    # 5 bits pad on the right: 10111 -> 1011 1000 -> "b8"
    assert bits_from_string("10111").to_hex() == "b8"
    assert BitVec.from_hex("b8", 5) == bits_from_string("10111")


def test_bad_hex_padding_rejected():
    with pytest.raises(ValueError):
        BitVec.from_hex("b9", 5)  # nonzero bits in the padding


def test_indexing_matches_string_order():
    v = bits_from_string("0110")
    assert [v[i] for i in range(4)] == [0, 1, 1, 0]
    with pytest.raises(IndexError):
        v[4]


def test_and_popcount():
    a = bits_from_string("1101")
    b = bits_from_string("1011")
    assert (a & b) == bits_from_string("1001")
    assert (a & b).popcount() == 2


def test_concat_copies():
    assert bits_from_string("101").concat_copies(2) == bits_from_string("101101")


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_hex_round_trip(bits):
    v = BitVec.from_bits(bits)
    assert BitVec.from_hex(v.to_hex(), v.n) == v
    assert list(v) == bits


@given(st.lists(st.integers(0, 1), min_size=1, max_size=50), st.integers(1, 5))
def test_concat_copies_indexing(bits, k):
    v = BitVec.from_bits(bits)
    rep = v.concat_copies(k)
    assert rep.n == v.n * k
    assert all(rep[i] == bits[i % len(bits)] for i in range(rep.n))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 1), max_size=120),
    st.lists(st.integers(0, 1), max_size=120),
    st.integers(1, 4),
)
def test_bitvec_matches_list_model(bits, other, k):
    v = BitVec.from_bits(bits)
    assert v.n == len(bits)
    assert [v[i] for i in range(v.n)] == bits
    for i in (-1, len(bits)):
        with pytest.raises(IndexError):
            v[i]
    assert v.popcount() == sum(bits)
    digits = "".join(map(str, bits))
    nibbles = digits + "0" * (-len(bits) % 4)
    hex_model = "".join(format(int(nibbles[j:j + 4], 2), "x") for j in range(0, len(nibbles), 4))
    assert v.to_hex() == hex_model
    parsed = BitVec.from_hex(hex_model, len(bits))
    assert parsed == v
    assert [parsed[i] for i in range(parsed.n)] == bits
    rep = v.concat_copies(k)
    assert [rep[i] for i in range(rep.n)] == bits * k
    if len(other) == len(bits):
        w = BitVec.from_bits(other)
        assert list(v & w) == [a & b for a, b in zip(bits, other)]


@pytest.mark.parametrize("bad", [[2], [0, 1, -1], [1, 256]])
def test_from_bits_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        BitVec.from_bits(bad)


def test_from_bits_rejects_an_int():
    with pytest.raises(TypeError):
        BitVec.from_bits(5)


def test_from_bits_refuses_every_other_byte():
    # int(..., 2) reads whitespace, '_', signs and a '0b' prefix, so every
    # byte but 0 and 1 must reach it as a non-digit
    for bad in range(2, 256):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitVec.from_bits([0, 1, bad, 1])
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitVec.from_bits([bad])
