from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from commgraph.rng import stream
from commgraph.promises import (
    Disjoint,
    KIntersectOrDisjoint,
    PromisePair,
    PromiseViolation,
    UniqueIntersection,
    disj,
    gen_promise_instance,
    inter_k,
    replicate_input,
)

from helpers import bits_from_string


def test_promise_validation():
    x = bits_from_string("110")
    y = bits_from_string("011")
    with pytest.raises(PromiseViolation):
        PromisePair(x, y, Disjoint())
    PromisePair(x, y, UniqueIntersection())  # overlap 1 is fine
    with pytest.raises(PromiseViolation):
        PromisePair(x, y, KIntersectOrDisjoint(2))


def test_unique_intersection_draws():
    for seed in range(50):
        pp = gen_promise_instance(8, UniqueIntersection(), seed)
        assert pp.overlap in (0, 1)


def test_k_intersection_draws():
    for seed in range(50):
        pp = gen_promise_instance(9, KIntersectOrDisjoint(3), seed)
        assert pp.overlap in (0, 3)


def test_infeasible_k():
    with pytest.raises(ValueError):
        gen_promise_instance(2, KIntersectOrDisjoint(3), 0)


def test_side_is_fair_coin():
    hits = sum(
        gen_promise_instance(8, UniqueIntersection(), seed).intersecting
        for seed in range(10_000)
    )
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_replicate_definition():
    assert replicate_input(bits_from_string("101"), 2) == bits_from_string("101101")


def test_replicate_unique_intersection_gives_k_promise():
    x = bits_from_string("100")
    y = bits_from_string("100")
    xr, yr = replicate_input(x, 3), replicate_input(y, 3)
    assert (xr & yr).popcount() == 3
    assert inter_k(xr, yr, 3) == 1 - disj(x, y)


def test_replicate_disjoint_stays_disjoint():
    x = bits_from_string("101")
    y = bits_from_string("010")
    for k in (1, 2, 5):
        assert (replicate_input(x, k) & replicate_input(y, k)).popcount() == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8))
def test_replication_reduction_property(seed, k):
    pp = gen_promise_instance(6, UniqueIntersection(), seed)
    xr, yr = replicate_input(pp.x, k), replicate_input(pp.y, k)
    assert (xr & yr).popcount() in (0, k)
    assert inter_k(xr, yr, k) == 1 - disj(pp.x, pp.y)
    # the replicated pair is a valid {0, k} promise pair
    PromisePair(xr, yr, KIntersectOrDisjoint(k))


def draw_shared(rng, n_bits, promise):
    """The shared coordinates, from the side coin and ``rng.sample`` alone."""
    if isinstance(promise, Disjoint):
        return []
    count = 1 if isinstance(promise, UniqueIntersection) else promise.k
    return sorted(rng.sample(range(n_bits), count)) if rng.random() < 0.5 else []


def reference_codes(rng, count):
    """Ternary codes as a plain loop over random bit pairs.

    Each round draws ``b`` bytes as one ``getrandbits(8 * b)`` integer, low
    byte first, and walks bit pair 0 (bits 0-1) of every byte, then pair 1,
    2 and 3, keeping the codes 0, 1 and 2."""
    codes = []
    while len(codes) < count:
        need = count - len(codes)
        b = need // 3 + need // 64 + 8
        word = rng.getrandbits(8 * b)
        for j in range(4):
            for i in range(b):
                code = (word >> (8 * i + 2 * j)) & 3
                if code != 3:
                    codes.append(code)
    return codes[:count]


def reference_gen(n_bits, promise, seed):
    """The coin and the shared positions first, then one ternary code per
    non-shared coordinate in coordinate order, as a plain loop."""
    rng = stream(seed)
    shared = set(draw_shared(rng, n_bits, promise))
    codes = iter(reference_codes(rng, n_bits - len(shared)))
    xbits, ybits = [], []
    for i in range(n_bits):
        if i in shared:
            xb, yb = 1, 1
        else:
            xb, yb = ((0, 0), (0, 1), (1, 0))[next(codes)]
        xbits.append(xb)
        ybits.append(yb)
    return xbits, ybits


def promises_for(n_bits):
    ks = sorted({1, max(1, n_bits - 1), n_bits})
    return [Disjoint(), UniqueIntersection()] + [KIntersectOrDisjoint(k) for k in ks]


@pytest.mark.parametrize("n_bits", [1, 2, 3, 7, 100, 10_000])
def test_gen_matches_plain_randrange_loop(n_bits):
    """Each non-shared coordinate is a randrange(3) drawn from two random
    bits by rejection, as ``reference_codes`` draws it."""
    seeds = range(3) if n_bits == 10_000 else range(40)
    for promise in promises_for(n_bits):
        for seed in seeds:
            pp = gen_promise_instance(n_bits, promise, seed)
            assert (list(pp.x), list(pp.y)) == reference_gen(n_bits, promise, seed), (
                promise, seed,
            )


@pytest.mark.parametrize("n_bits", [1, 2, 3, 7, 100, 10_000])
def test_shared_coordinates_come_from_the_coin_and_sample_alone(n_bits):
    """x AND y, the only part of a pair any graph reads, is fixed before the
    first coordinate code is drawn."""
    seeds = range(3) if n_bits == 10_000 else range(40)
    for promise in promises_for(n_bits):
        for seed in seeds:
            pp = gen_promise_instance(n_bits, promise, seed)
            joint = pp.x & pp.y
            assert [i for i in range(n_bits) if joint[i]] == draw_shared(
                stream(seed), n_bits, promise
            ), (promise, seed)


def test_coordinate_codes_are_uniform_and_independent():
    """Chi-square over the three non-shared pairs (2 degrees of freedom) and
    over successive pairs of them (8), each at its 99.9th percentile."""
    n_bits = 30_000
    for seed in (2026, 2027, 2028):
        pp = gen_promise_instance(n_bits, Disjoint(), seed)
        codes = [2 * xb + yb for xb, yb in zip(pp.x, pp.y)]
        assert set(codes) <= {0, 1, 2}
        singles = Counter(codes)
        expected = n_bits / 3
        assert sum((singles[c] - expected) ** 2 / expected for c in range(3)) <= 13.82
        pairs = Counter(zip(codes[::2], codes[1::2]))
        expected = (n_bits // 2) / 9
        chi2 = sum((pairs[(a, b)] - expected) ** 2 / expected
                   for a in range(3) for b in range(3))
        assert chi2 <= 26.12
