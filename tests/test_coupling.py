"""Prefix-coupled trials: one set of trials at budget hi stands for a
separate run at every budget T <= hi, and the budget search pays for it
once per doubling step, not once per probed budget."""

import pytest

from commgraph.experiments import (
    CoupledTrials,
    distinguisher_by_name,
    minimal_budget,
    run_distinguisher_trials,
    threshold_sweep,
)
from commgraph.presets import clique_hiding_family, degree_only_family, triangle_family
from commgraph.protocols import ProtocolSession

HI = 16
TRIALS = 40


@pytest.mark.parametrize("name, family", [
    ("pair-probe", clique_hiding_family(blocks=16, l=2)),
    ("degree-scan", degree_only_family(n=48, k=2)),
    ("edge-sample-tester", triangle_family(l=4, k=2)),
])
def test_coupled_rows_equal_separate_runs(name, family):
    d = distinguisher_by_name(name)
    coupled = CoupledTrials.run(family, d, HI, TRIALS, seed=31)
    for budget in range(1, HI + 1):
        separate = run_distinguisher_trials(family, d, budget, TRIALS, seed=31)
        assert coupled.successes[budget] == round(separate.success * TRIALS), budget
        assert coupled.row(budget) == separate, budget


def test_coupled_success_is_monotone_and_reaches_every_trial():
    d = distinguisher_by_name("pair-probe")
    coupled = CoupledTrials.run(clique_hiding_family(blocks=8, l=2), d, 64, 100, seed=3)
    assert coupled.successes == sorted(coupled.successes)
    assert coupled.successes[64] >= 95


def test_minimal_budget_row_matches_a_separate_run_at_t_star():
    family = clique_hiding_family(blocks=32, l=2, base_n=2, base_m=1)
    d = distinguisher_by_name("pair-probe")
    t_star, row = minimal_budget(family, d, trials=120, seed=8)
    assert row.budget == t_star
    assert row == run_distinguisher_trials(family, d, t_star, 120, seed=8)
    assert minimal_budget(family, d, trials=120, seed=8, budget_cap=1) == (None, None)


def test_sweep_work_is_within_4x_of_the_reported_queries(monkeypatch):
    calls = 0
    simulate = ProtocolSession.simulate

    def counting(self, q):
        nonlocal calls
        calls += 1
        return simulate(self, q)

    monkeypatch.setattr(ProtocolSession, "simulate", counting)
    rows = threshold_sweep(
        lambda n: clique_hiding_family(blocks=n, l=2, base_n=2, base_m=1),
        [16, 32, 64],
        distinguisher_by_name("pair-probe"),
        seed=3,
        trials=200,
    )
    assert len(rows) == 3
    # every pair-probe query costs 2 bits
    reported = sum(r.trials * r.mean_bits / 2 for r in rows)
    assert calls <= 4 * reported, (calls, reported)
