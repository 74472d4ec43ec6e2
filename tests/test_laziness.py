"""Laziness of the random-edge path, checked by counting work, not timing it.

Building a lazy-only instance and drawing random edges from it must
allocate nothing in proportion to n.  Each case first runs at n = 10^5,
where an O(n) table would cost megabytes and fail the allocation
bound, so the n = 10^9 run (where it would cost gigabytes) only happens
once the small one has passed.
"""

import random
import tracemalloc

import pytest

from commgraph.graph import RandomEdge
from commgraph.presets import family
from commgraph.promises import gen_promise_instance

DRAWS = 50
MAX_ALLOCATED = 64 * 1024  # bytes: a few objects, no per-vertex table


def build_and_draw(kind, flags, n):
    """Peak bytes allocated by building at size n and drawing DRAWS edges,
    and the instance's degree runs."""
    fam = family(kind, n=n, **flags)
    pp = gen_promise_instance(fam.n_bits, fam.promise, 1)
    rng = random.Random(2)
    tracemalloc.start()
    try:
        inst = fam.build(pp)
        runs = inst.input_free_degrees()
        for _ in range(DRAWS):
            inst.answer(RandomEdge(), None, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n >= n
    return peak, runs


@pytest.mark.parametrize("kind, flags, max_runs", [
    ("triangle", dict(l=3, k=1), 6),
    ("triangle", dict(l=4, k=2, s_size=2), 6),
    ("connectivity", dict(k=2, l=4), 4),
    ("connectivity", dict(k=3, l=7), 4),
    ("r-clique", dict(r=4, l=3, k=1), 4 + 2 * 2),
    ("r-clique", dict(r=5, l=3, k=1, s_clique_budget=2), 4 + 2 * 3),
])
def test_random_edge_path_is_flat_in_n(kind, flags, max_runs):
    for n in (10**5, 10**9):
        peak, runs = build_and_draw(kind, flags, n)
        assert peak <= MAX_ALLOCATED, (n, peak)
        assert len(runs) <= max_runs
