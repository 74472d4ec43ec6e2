"""Prefix-coupled trials: one set of trials at budget hi stands for a
separate run at every budget T <= hi, and the budget search pays for it
once per doubling step, not once per probed budget.  Each trial's inputs
and instance are drawn once per search, not once per step."""

import dataclasses
import weakref

import pytest

from commgraph import experiments
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


def test_sweep_draws_and_builds_each_trial_once_per_grid_point(monkeypatch):
    gen = experiments.gen_promise_instance
    drawn, builds = [], 0

    def counting_gen(*args):
        drawn.append(args)
        return gen(*args)

    def family_for(n):
        family = clique_hiding_family(blocks=n, l=2, base_n=2, base_m=1)

        def build(pp):
            nonlocal builds
            builds += 1
            return family.build(pp)

        return dataclasses.replace(family, build=build)

    monkeypatch.setattr(experiments, "gen_promise_instance", counting_gen)
    rows = threshold_sweep(
        family_for, [16, 32, 64], distinguisher_by_name("pair-probe"), seed=3, trials=200
    )
    assert len(rows) == 3
    assert len(drawn) == len(set(drawn)) == builds == 600


def test_one_shot_trials_keep_one_instance_alive_at_a_time():
    family = triangle_family(l=4, k=2)
    refs, events = [], []

    def build(pp):
        events.append(("build", len(refs)))
        inst = family.build(pp)
        refs.append(weakref.ref(inst))
        return inst

    def on_trial(t, output, truth, transcript, view):
        events.append(("trial", t))
        assert [i for i, ref in enumerate(refs) if ref() is not None] == [t]

    run_distinguisher_trials(
        dataclasses.replace(family, build=build),
        distinguisher_by_name("edge-sample-tester"),
        budget=8, trials=6, seed=2, on_trial=on_trial,
    )
    assert events == [(kind, t) for t in range(6) for kind in ("build", "trial")]
