import random

import pytest

from commgraph.experiments import (
    AMPLIFIER_SAMPLES,
    distinguisher_by_name,
    edge_sampling_amplifier,
    loglog_slope,
    minimal_budget,
    run_distinguisher_trials,
    wilson_lower,
)
from commgraph.presets import (
    clique_hiding_family,
    connectivity_family,
    degree_only_family,
    triangle_family,
)

from helpers import approx_checker


def counting_sampler(universe, rng, log):
    def sampler():
        e = universe[rng.randrange(len(universe))]
        log.append(e)
        return e

    return sampler


# --- amplifier -----------------------------------------------------------


def test_amplifier_hidden_everywhere_returns_zero():
    rng = random.Random(0)
    universe = [(0, 1), (1, 2), (2, 3)]
    log = []
    out = edge_sampling_amplifier(counting_sampler(universe, rng, log), lambda v: True)
    assert out == 0
    assert len(log) == AMPLIFIER_SAMPLES == 7


def test_amplifier_hidden_empty_returns_one():
    rng = random.Random(0)
    universe = [(0, 1), (1, 2)]
    log = []
    out = edge_sampling_amplifier(counting_sampler(universe, rng, log), lambda v: False)
    assert out == 1
    assert len(log) == 7


def test_amplifier_uses_exactly_seven_draws_even_on_early_hit():
    rng = random.Random(1)
    log = []
    edge_sampling_amplifier(counting_sampler([(0, 1)], rng, log), lambda v: True)
    assert len(log) == 7


def test_amplifier_error_rate_half_hidden():
    # hidden region holds exactly half the edges of a uniform universe:
    # the 0-side miss rate is (1/2)^7, far below the conservative (5/6)^7
    rng = random.Random(99)
    hidden = {0, 1}
    universe = [(0, 1), (2, 3)]  # one edge inside, one outside
    misses = 0
    runs = 10_000
    for _ in range(runs):
        out = edge_sampling_amplifier(
            counting_sampler(universe, rng, []), lambda v: v in hidden
        )
        misses += out == 1
    rate = misses / runs
    assert rate <= (5 / 6) ** 7 + 0.01
    assert rate <= 1 / 3


# --- approximation checker --------------------------------------------------


def test_approx_checker_exact_estimator():
    rate, ok = approx_checker(lambda rng: 100.0, truth=100.0, epsilon=0.1, trials=50, seed=1)
    assert rate == 1.0 and ok


def test_approx_checker_biased_estimator_fails():
    rate, ok = approx_checker(lambda rng: 120.0, truth=100.0, epsilon=0.1, trials=50, seed=1)
    assert rate == 0.0 and not ok


def test_approx_checker_noisy_within_tolerance():
    def estimator(rng):
        return 100.0 + rng.uniform(-5.0, 5.0)  # within eps/2 of the truth

    rate, ok = approx_checker(estimator, truth=100.0, epsilon=0.1, trials=60, seed=2)
    assert rate == 1.0 and ok


def test_approx_checker_requires_trials():
    with pytest.raises(ValueError):
        approx_checker(lambda rng: 1.0, 1.0, 0.1, trials=10, seed=0)


# --- distinguisher trials ------------------------------------------------------


def test_zero_budget_is_a_coin_flip():
    family = clique_hiding_family(blocks=8, l=2)
    d = distinguisher_by_name("pair-probe")
    row = run_distinguisher_trials(family, d, budget=0, trials=1000, seed=11)
    assert abs(row.success - 0.5) <= 0.05
    assert row.mean_bits == 0


def test_generous_budget_wins():
    family = clique_hiding_family(blocks=32, l=2)
    d = distinguisher_by_name("pair-probe")
    row = run_distinguisher_trials(family, d, budget=320, trials=200, seed=12)
    assert row.success >= 0.95
    assert row.max_bits_per_query == 2


def test_degree_scan_on_degree_only():
    family = degree_only_family(n=96, k=2)  # 16 blocks
    d = distinguisher_by_name("degree-scan")
    row = run_distinguisher_trials(family, d, budget=160, trials=200, seed=13)
    assert row.success >= 0.95
    assert row.max_bits_per_query == 2


def test_edge_sampler_on_connectivity():
    family = connectivity_family(k=2, l=4, n=20)
    d = distinguisher_by_name("edge-sample-tester")
    row = run_distinguisher_trials(family, d, budget=200, trials=100, seed=14)
    assert row.success >= 0.9
    assert row.max_bits_per_query <= 2


def test_unsupported_kind_rejected():
    family = degree_only_family(n=12, k=2)
    d = distinguisher_by_name("pair-probe")
    with pytest.raises(ValueError):
        run_distinguisher_trials(family, d, budget=5, trials=5, seed=0)


def test_triangle_family_bits_bounded():
    family = triangle_family(l=4, k=2)
    d = distinguisher_by_name("edge-sample-tester")
    row = run_distinguisher_trials(family, d, budget=64, trials=100, seed=15)
    assert row.max_bits_per_query <= 2


def test_edge_sampler_with_heavy_hidden_mass():
    # k = l^2 shared coordinates puts one half of all edges (every A-B and
    # A'-B' edge) in the input-coupled region, so even a 7-draw budget
    # detects reliably: miss probability (1/2)^7 on the intersecting side
    # only.  The bound below is the one-quarter rate's, which still holds.
    family = triangle_family(l=4, k=16)
    d = distinguisher_by_name("edge-sample-tester")
    row = run_distinguisher_trials(family, d, budget=7, trials=300, seed=16)
    expected = 0.5 + 0.5 * (1 - 0.75**7)
    assert row.success >= expected - 0.07


# --- wilson and sweeps ----------------------------------------------------------


def test_wilson_lower_properties():
    assert wilson_lower(0, 100) == pytest.approx(0.0, abs=0.05)
    assert wilson_lower(100, 100) < 1.0
    assert wilson_lower(80, 100) < 0.8
    # monotone in successes
    values = [wilson_lower(s, 100) for s in range(0, 101, 10)]
    assert values == sorted(values)


def test_minimal_budget_small_grid():
    family = clique_hiding_family(blocks=8, l=2)
    d = distinguisher_by_name("pair-probe")
    t_star, _ = minimal_budget(family, d, trials=200, seed=5)
    assert t_star is not None
    # at N = 8 the scanner needs a handful of probes, not dozens
    assert 1 <= t_star <= 24


def test_threshold_sweep_rows():
    from commgraph.experiments import threshold_sweep

    d = distinguisher_by_name("pair-probe")
    rows = threshold_sweep(
        lambda n: clique_hiding_family(blocks=n, l=2, base_n=2, base_m=1),
        [4, 8, 16],
        d,
        seed=9,
        trials=120,
    )
    assert [r.n_bits for r in rows] == [4, 8, 16]
    assert all(r.budget >= 1 for r in rows)
    assert all(r.max_bits_per_query <= 2 for r in rows)
    assert rows[0].budget <= rows[-1].budget


def test_loglog_slope_exact_line():
    pts = [(2.0, 4.0), (4.0, 8.0), (8.0, 16.0)]
    assert loglog_slope(pts) == pytest.approx(1.0)
    pts = [(2.0, 4.0), (4.0, 16.0), (8.0, 64.0)]
    assert loglog_slope(pts) == pytest.approx(2.0)
