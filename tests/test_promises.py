import pytest
from hypothesis import given, settings, strategies as st

from commgraph.bits import BitVec
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


def test_promise_validation():
    x = BitVec.from_string("110")
    y = BitVec.from_string("011")
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
    assert replicate_input(BitVec.from_string("101"), 2) == BitVec.from_string("101101")


def test_replicate_unique_intersection_gives_k_promise():
    x = BitVec.from_string("100")
    y = BitVec.from_string("100")
    xr, yr = replicate_input(x, 3), replicate_input(y, 3)
    assert (xr & yr).popcount() == 3
    assert inter_k(xr, yr, 3) == 1 - disj(x, y)


def test_replicate_disjoint_stays_disjoint():
    x = BitVec.from_string("101")
    y = BitVec.from_string("010")
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


def reference_gen(n_bits, promise, seed):
    """One rng.randrange(3) call per non-shared coordinate, as a plain loop."""
    rng = stream(seed)
    if isinstance(promise, Disjoint):
        shared = set()
    else:
        count = 1 if isinstance(promise, UniqueIntersection) else promise.k
        shared = set(rng.sample(range(n_bits), count)) if rng.random() < 0.5 else set()
    xbits, ybits = [], []
    for i in range(n_bits):
        if i in shared:
            xb, yb = 1, 1
        else:
            xb, yb = ((0, 0), (0, 1), (1, 0))[rng.randrange(3)]
        xbits.append(xb)
        ybits.append(yb)
    return xbits, ybits


def promises_for(n_bits):
    ks = sorted({1, max(1, n_bits - 1), n_bits})
    return [Disjoint(), UniqueIntersection()] + [KIntersectOrDisjoint(k) for k in ks]


@pytest.mark.parametrize("n_bits", [1, 2, 3, 7, 100, 10_000])
def test_gen_matches_plain_randrange_loop(n_bits):
    seeds = range(3) if n_bits == 10_000 else range(40)
    for promise in promises_for(n_bits):
        for seed in seeds:
            pp = gen_promise_instance(n_bits, promise, seed)
            assert (list(pp.x), list(pp.y)) == reference_gen(n_bits, promise, seed), (
                promise, seed,
            )
