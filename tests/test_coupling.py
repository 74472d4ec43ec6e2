"""Prefix-coupled trials: one set of trials, taken through the budgets
1, 2, ... one answer at a time, stands for a separate run at every budget,
so the budget search simulates each query once and only the queries its
row reports.  Each trial's inputs, instance and run are made once per
search, and a trial's instance is freed once its run has returned."""

import dataclasses
import gc
import weakref

import pytest

from commgraph import experiments
from commgraph.experiments import (
    Distinguisher,
    distinguisher_by_name,
    minimal_budget,
    run_distinguisher_trials,
    threshold_sweep,
    wilson_lower,
)
from commgraph.graph import Pair
from commgraph.presets import clique_hiding_family, degree_only_family, triangle_family
from commgraph.protocols import ProtocolSession

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


def record_searches(monkeypatch) -> list:
    """Keep every budget search's trials (``_KeptTrials``) made from now on."""
    searches = []
    of = experiments._KeptTrials.of

    def recording(*args):
        searches.append(of(*args))
        return searches[-1]

    monkeypatch.setattr(experiments._KeptTrials, "of", recording)
    return searches


@pytest.mark.parametrize("name, family", FAMILIES)
def test_coupled_rows_equal_separate_runs(name, family, monkeypatch):
    d = distinguisher_by_name(name)
    searches = record_searches(monkeypatch)
    calls = count_simulate_calls(monkeypatch)
    t_star, row = minimal_budget(family, d, TRIALS, seed=31)
    [search] = searches
    assert t_star is not None and len(search.successes) == t_star + 1
    # the search simulated min(q, T*) queries per trial: the row's queries
    assert len(calls) == sum(trial.run.transcript.query_count for trial in search.kept)
    for budget in range(1, t_star + 1):
        separate = run_distinguisher_trials(family, d, budget, TRIALS, seed=31)
        assert search.successes[budget] == round(separate.success * TRIALS), budget
        assert wilson_lower(search.successes[budget], TRIALS) < 2 / 3 or budget == t_star
    assert row == separate


def test_minimal_budget_row_matches_a_separate_run_at_t_star():
    family = clique_hiding_family(blocks=32, l=2, base_n=2, base_m=1)
    d = distinguisher_by_name("pair-probe")
    t_star, row = minimal_budget(family, d, trials=120, seed=8)
    assert row.budget == t_star
    assert row == run_distinguisher_trials(family, d, t_star, 120, seed=8)
    assert minimal_budget(family, d, trials=120, seed=8, budget_cap=1) == (None, None)


def test_budgets_go_up_to_the_largest_power_of_two_under_the_cap():
    family = clique_hiding_family(blocks=32, l=2, base_n=2, base_m=1)
    d = distinguisher_by_name("pair-probe")
    t_star, _ = minimal_budget(family, d, trials=120, seed=8)
    low = 1 << (t_star.bit_length() - 1)
    assert low < t_star < 2 * low - 1, t_star
    assert minimal_budget(family, d, 120, seed=8, budget_cap=2 * low - 1) == (None, None)
    assert minimal_budget(family, d, 120, seed=8, budget_cap=2 * low)[0] == t_star


@pytest.mark.parametrize("name, family", FAMILIES)
def test_a_search_starts_each_trial_run_once(name, family, monkeypatch):
    d = distinguisher_by_name(name)
    starts = []

    def run(view, rng):
        starts.append(view)
        return d.run(view, rng)

    t_star, _ = minimal_budget(family, dataclasses.replace(d, run=run), TRIALS, seed=4)
    assert t_star is not None and t_star > 1, t_star
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


def test_a_search_gives_up_once_two_thirds_is_out_of_reach(monkeypatch, capsys):
    # Every input pair is disjoint, so a run that returns the intersecting
    # label is wrong.  About half the runs return it on their first answer and
    # the rest never return, so after budget 1 at most about half can be right.
    def wrong_or_endless(view, rng):
        gives_up = rng.random() < 0.5
        while True:
            yield Pair(0, 1)
            if gives_up:
                return view.label_intersecting

    d = Distinguisher("wrong-or-endless", "witness_pair", wrong_or_endless)
    family = clique_hiding_family(blocks=16, l=2, promise="disjoint")
    calls = count_simulate_calls(monkeypatch)
    assert minimal_budget(family, d, TRIALS, seed=6) == (None, None)
    assert len(calls) <= TRIALS
    del calls[:]
    rows = threshold_sweep(
        lambda n: clique_hiding_family(blocks=n, l=2, promise="disjoint"), [16], d, 6, TRIALS
    )
    assert rows == [] and len(calls) <= TRIALS
    assert capsys.readouterr().err == "skipping N=16: no budget reached 2/3 success\n"


def test_sweep_work_equals_the_reported_queries(monkeypatch):
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
    reported = round(sum(r.trials * r.mean_bits / 2 for r in rows))
    # each trial simulates min(q, T*) queries and reports as many
    assert len(calls) == reported, (len(calls), reported)


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
    refs, finished, rows_read = [], [], []

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

    def read_row(*args, **kwargs):
        done = [t for t, f in enumerate(finished) if f]
        rows_read.append((len(done), [t for t in done if refs[t]() is not None]))
        return trial_loop(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_distinguisher_trials", read_row)
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
    assert t_star is not None and len(rows_read) == 1
    [(done, alive)] = rows_read
    assert done > 0 and alive == [], rows_read
