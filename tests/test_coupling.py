"""Prefix-coupled trials: one set of trials at budget hi stands for a
separate run at every budget T <= hi, and the budget search resumes each
trial's run at every doubling step, so it simulates each query once.
Each trial's inputs, instance and run are made once per search, not once
per step, and a trial's instance is freed once its run has returned."""

import dataclasses
import gc
import weakref

import pytest

from commgraph import experiments
from commgraph.experiments import (
    CoupledTrials,
    _KeptTrials,
    distinguisher_by_name,
    minimal_budget,
    run_distinguisher_trials,
    threshold_sweep,
    wilson_lower,
)
from commgraph.presets import clique_hiding_family, degree_only_family, triangle_family
from commgraph.protocols import ProtocolSession

HI = 16
TRIALS = 40
FAMILIES = [
    ("pair-probe", clique_hiding_family(blocks=16, l=2)),
    ("degree-scan", degree_only_family(n=48, k=2)),
    ("edge-sample-tester", triangle_family(l=4, k=2)),
]


def count_simulate_calls(monkeypatch) -> list:
    """Count every ``ProtocolSession.simulate`` call from now on."""
    calls = []
    simulate = ProtocolSession.simulate
    monkeypatch.setattr(ProtocolSession, "simulate",
                        lambda self, q: calls.append(q) or simulate(self, q))
    return calls


@pytest.mark.parametrize("name, family", FAMILIES)
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


@pytest.mark.parametrize("name, family", FAMILIES)
def test_resumed_steps_equal_a_fresh_run_at_each_step(name, family, monkeypatch):
    d = distinguisher_by_name(name)
    kept = _KeptTrials.of(family)
    calls = count_simulate_calls(monkeypatch)
    hi = 1
    while hi <= HI:
        resumed = CoupledTrials.run(kept, d, hi, TRIALS, seed=31)
        simulated = len(calls)
        fresh = CoupledTrials.run(family, d, hi, TRIALS, seed=31)
        del calls[simulated:]
        assert resumed.successes == fresh.successes, hi
        assert resumed.bits == fresh.bits, hi
        for budget in range(1, hi + 1):
            assert resumed.row(budget) == fresh.row(budget), (hi, budget)
        # every query of the steps so far was simulated once: min(q, hi) per trial
        assert simulated == sum(map(len, resumed.bits)), hi
        hi *= 2


@pytest.mark.parametrize("name, family", FAMILIES)
def test_a_search_starts_each_trial_run_once(name, family, monkeypatch):
    d = distinguisher_by_name(name)
    starts, steps = [], []
    trial_loop = experiments.run_distinguisher_trials

    def run(view, rng):
        starts.append(view)
        return d.run(view, rng)

    def step(fam, dist, hi, *args, **kwargs):
        steps.append(hi)
        return trial_loop(fam, dist, hi, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_distinguisher_trials", step)
    t_star, _ = minimal_budget(family, dataclasses.replace(d, run=run), TRIALS, seed=4)
    assert t_star is not None and len(steps) >= 3, (t_star, steps)
    assert len(starts) == TRIALS


def test_an_unreachable_target_is_refused_before_any_trial_is_drawn(monkeypatch, capsys):
    # with 7 trials even 7 successes have a Wilson lower bound below 2/3
    assert wilson_lower(7, 7) < 2 / 3 <= wilson_lower(8, 8)
    drawn = []
    monkeypatch.setattr(experiments, "gen_promise_instance", lambda *args: drawn.append(args))
    d = distinguisher_by_name("pair-probe")
    assert minimal_budget(clique_hiding_family(blocks=16, l=2), d, 7, seed=1) == (None, None)
    rows = threshold_sweep(lambda n: clique_hiding_family(blocks=n, l=2), [16, 32], d, 1, 7)
    assert rows == [] and drawn == []
    assert capsys.readouterr().err == (
        "skipping N=16: no budget reached 2/3 success\n"
        "skipping N=32: no budget reached 2/3 success\n"
    )


def test_sweep_work_is_within_2x_of_the_reported_queries(monkeypatch):
    calls = count_simulate_calls(monkeypatch)
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
    # each trial simulates min(q, hi) queries and reports min(q, T*), with hi < 2 T*
    assert len(calls) <= 2 * reported, (len(calls), reported)


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


def test_a_search_frees_each_finished_trial_instance_before_it_returns(monkeypatch):
    family = clique_hiding_family(blocks=32, l=2, base_n=2, base_m=1)
    d = distinguisher_by_name("pair-probe")
    refs, finished, live_finished = [], [], []

    def build(pp):
        inst = family.build(pp)
        refs.append(weakref.ref(inst))
        return inst

    def run(view, rng):
        t = len(finished)
        finished.append(False)
        output = yield from d.run(view, rng)
        finished[t] = True
        return output

    trial_loop = experiments.run_distinguisher_trials

    def step(*args, **kwargs):
        row = trial_loop(*args, **kwargs)
        done = [t for t, f in enumerate(finished) if f]
        live_finished.append((len(done), [t for t in done if refs[t]() is not None]))
        return row

    monkeypatch.setattr(experiments, "run_distinguisher_trials", step)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t_star, _ = minimal_budget(
            dataclasses.replace(family, build=build),
            dataclasses.replace(d, run=run), trials=120, seed=8,
        )
    finally:
        if enabled:
            gc.enable()
    assert t_star is not None and len(live_finished) >= 3
    assert live_finished[-2][0] > 0  # some trial finished before the last step
    assert all(alive == [] for _, alive in live_finished), live_finished
