"""Distinguisher harnesses, threshold sweeps, and the sampling amplifier.

A distinguisher is a generator that sees only the construction's public
shape (kind, sizes, derived parameters, declared witnesses) and the shared
randomness.  It yields queries and receives their answers, which
``protocols.run_reduction`` computes through the two-party simulation, so
the inputs are reachable only via transcripted queries.  It supports the
kinds that declare the witness it reads, whatever their names.  Success
rates are judged against Wilson lower confidence bounds to keep thresholds
stable under finite-trial noise.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Generator, Iterable, Optional

from .embeddings import EMBEDDING_CLASSES
from .embeddings.base import Embedding, ParameterError
from .graph import Degree, Pair, Query, QueryAnswer, RandomEdge
from .promises import Promise, PromisePair, gen_promise_instance
from .protocols import ProtocolRun, run_reduction
from .rng import derive_seed

AMPLIFIER_SAMPLES = 7


@dataclass(frozen=True)
class PublicView:
    """What an algorithm may know about an instance: everything except the
    two parties' inputs.  The witness fields are the construction's
    declarations (see ``Embedding``), None where it declares none."""

    kind: str
    n: int
    params: dict
    label_intersecting: int
    label_disjoint: int
    witness_pair: Optional[tuple]
    probe_vertex: Optional[tuple]
    witness_edges: Optional[tuple]

    @classmethod
    def of(cls, inst: Embedding) -> "PublicView":
        return cls(
            kind=inst.kind,
            n=inst.n,
            params=inst.params_json(),
            label_intersecting=inst.label_for(True),
            label_disjoint=inst.label_for(False),
            witness_pair=inst.witness_pair,
            probe_vertex=inst.probe_vertex,
            witness_edges=inst.witness_edges,
        )


@dataclass(frozen=True)
class Distinguisher:
    """A query algorithm and the witness it ``reads``: the ``PublicView``
    field it looks for.

    ``run(view, rng)`` is a generator: it yields queries, receives their
    answers and returns its label.  It never sees the budget: the driver
    (``run_reduction``) cuts the run off after the budget's answers, and a
    run cut off outputs ``view.label_disjoint``.  With the same randomness,
    the run at budget T is then the first T queries of the run at any
    larger budget, which is what lets ``minimal_budget`` take one set of
    runs through the budgets 1, 2, ... one answer at a time, resuming each
    run instead of replaying it, and read the success at every budget.
    """

    name: str
    reads: str
    run: Callable[[PublicView, random.Random], Generator[Query, QueryAnswer, int]]

    @property
    def supports(self) -> frozenset:
        """The kinds whose construction declares the witness it reads."""
        return frozenset(
            kind for kind, cls in EMBEDDING_CLASSES.items() if getattr(cls, self.reads) is not None
        )

    def __repr__(self) -> str:
        return f"Distinguisher({self.name})"


@dataclass(frozen=True)
class Trial:
    """One trial's instance, its true label, its public view and its
    protocol run.  A kept trial (``_KeptTrials``) holds no ``inst``: its
    run holds the instance only while it is live."""

    inst: Optional[Embedding]
    truth: int
    view: PublicView
    run: ProtocolRun


@dataclass(frozen=True)
class InstanceFamily:
    """A construction with fixed parameters, buildable per random input pair."""

    kind: str
    n_bits: int
    promise: Promise
    build: Callable[[PromisePair], Embedding]

    def trial(self, d: Distinguisher, seed: int, t: int) -> Trial:
        """Trial t of ``d``, not yet run: its inputs come from
        ``derive_seed(seed, t, 0)`` alone and its randomness from
        ``derive_seed(seed, t, 1)`` alone."""
        pp = gen_promise_instance(self.n_bits, self.promise, derive_seed(seed, t, 0))
        inst = self.build(pp)
        view = PublicView.of(inst)
        run = ProtocolRun(inst, partial(d.run, view), derive_seed(seed, t, 1))
        return Trial(inst, inst.gap_label(), view, run)


@dataclass(frozen=True)
class _KeptTrials(InstanceFamily):
    """One budget search: a family's trials of one distinguisher at one
    seed, each drawn, built and started once and kept, so ``trial`` hands
    back the kept trial with its run wherever the search has taken it.

    ``search`` takes every live run on by one answer per budget
    T = 1, 2, ... (``run_reduction(run, T)``), so by budget T a trial has
    simulated min(q, T) queries, where q is the number it makes before it
    returns: the queries of a fresh run at T (see ``Distinguisher``).
    ``successes[T]`` counts the trials whose run at budget T outputs their
    truth.  A run still live outputs the cut-off's ``view.label_disjoint``,
    so the count moves only when a run returns.  A run that has returned
    keeps only its output and transcript, so only live trials hold an
    instance."""

    kept: tuple = field(default=(), compare=False, repr=False)
    successes: list = field(default_factory=list, compare=False, repr=False)

    @classmethod
    def of(cls, family: InstanceFamily, d: Distinguisher, trials: int, seed: int) -> "_KeptTrials":
        kept = tuple(replace(family.trial(d, seed, t), inst=None) for t in range(trials))
        return cls(family.kind, family.n_bits, family.promise, family.build, kept)

    def trial(self, d: Distinguisher, seed: int, t: int) -> Trial:
        return self.kept[t]

    def search(self, target: float, last: int) -> Optional[int]:
        """The least budget T <= ``last`` whose success count's Wilson lower
        bound reaches ``target``, or None.  A returned run's output is
        final, so the search gives up at the first T where the returned
        trials that are right plus every live trial have a Wilson lower
        bound below ``target``: no larger budget can reach it."""
        trials = len(self.kept)
        right = sum(trial.view.label_disjoint == trial.truth for trial in self.kept)
        reachable = trials  # live trials plus those that returned right
        self.successes.append(right)
        live = self.kept
        for budget in range(1, last + 1):
            still_live = []
            for trial in live:
                run = trial.run
                output, _ = run_reduction(run, budget)
                if run.session is not None:
                    still_live.append(trial)
                    continue
                truth = trial.truth
                right += (output == truth) - (trial.view.label_disjoint == truth)
                reachable -= output != truth
            live = still_live
            self.successes.append(right)
            if wilson_lower(right, trials) >= target:
                return budget
            if wilson_lower(reachable, trials) < target:
                return None
        return None


@dataclass
class SweepRow:
    kind: str
    n_bits: int
    budget: int
    trials: int
    success: float
    mean_bits: float
    max_bits_per_query: int

    def csv_tuple(self) -> tuple:
        return (
            self.kind,
            self.n_bits,
            self.budget,
            self.trials,
            f"{self.success:.6f}",
            f"{self.mean_bits:.3f}",
            self.max_bits_per_query,
        )


SWEEP_CSV_HEADER = ("kind", "N", "T", "trials", "success", "mean_bits", "max_bits_per_query")


def wilson_lower(successes: int, trials: int, z: float = 1.96) -> float:
    """Lower end of the Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = phat + z * z / (2 * trials)
    margin = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (center - margin) / denom


def check_trials(family: InstanceFamily, d: Distinguisher, budget: int, trials: int) -> None:
    """Refuse, with ``ValueError``, a run that ``run_distinguisher_trials``
    would refuse, before any of its trials is drawn."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if family.kind not in d.supports:
        raise ValueError(f"{d.name} does not support {family.kind}")


def run_distinguisher_trials(
    family: InstanceFamily,
    d: Distinguisher,
    budget: int,
    trials: int,
    seed: int,
    on_trial: Optional[Callable] = None,
) -> SweepRow:
    """Fresh promise instance per trial, every query transcripted.

    ``mean_bits`` is the mean transcript total per trial.  Trial t draws
    its inputs and randomness from ``derive_seed(seed, t, .)`` alone, so
    the same seed runs the same trials at every budget.  Each trial is
    drawn (``family.trial``) only after the previous one's ``on_trial``
    has run, and an ``InstanceFamily`` keeps none of them.  ``on_trial``
    gets ``(t, output, truth, transcript, view)`` after each trial.
    """
    check_trials(family, d, budget, trials)
    successes = 0
    total_bits = 0
    max_bits = 0
    for t in range(trials):
        trial = family.trial(d, seed, t)
        truth, view = trial.truth, trial.view
        output, transcript = run_reduction(trial.run, budget)
        if output == truth:
            successes += 1
        total_bits += transcript.total_bits
        max_bits = max(max_bits, transcript.max_bits_per_query)
        if on_trial is not None:
            on_trial(t, output, truth, transcript, view)
    return SweepRow(
        kind=family.kind,
        n_bits=family.n_bits,
        budget=budget,
        trials=trials,
        success=successes / trials,
        mean_bits=total_bits / trials,
        max_bits_per_query=max_bits,
    )


# ---------------------------------------------------------------------------
# reference distinguishers


def _pair_probe(view: PublicView, rng: random.Random):
    """Probe the witness pair of a uniformly random block per query; a
    positive answer certifies the intersecting side."""
    blocks = view.params["blocks"]
    stride, offset = view.witness_pair
    randrange = rng.randrange
    while True:
        u = randrange(blocks) * stride
        if (yield Pair(u, u + offset)).bit:
            return view.label_intersecting


def _degree_scan(view: PublicView, rng: random.Random):
    """Degree-probe one block's probe vertex per query; any deviation from
    the disjoint-side degree certifies the intersecting side."""
    blocks = view.params["blocks"]
    stride, offset, baseline = view.probe_vertex
    randrange = rng.randrange
    while True:
        if (yield Degree(offset + randrange(blocks) * stride)).d != baseline:
            return view.label_intersecting


def _edge_sample_tester(view: PublicView, rng: random.Random):
    """Draw uniform edges; an edge inside the declared witness ranges exists
    only when the inputs intersect."""
    ranges = view.witness_edges
    while True:
        u, v = yield RandomEdge()
        if any(a <= u < b and c <= v < d for a, b, c, d in ranges):
            return view.label_intersecting


def reference_distinguishers() -> list[Distinguisher]:
    return [
        Distinguisher("pair-probe", "witness_pair", _pair_probe),
        Distinguisher("degree-scan", "probe_vertex", _degree_scan),
        Distinguisher("edge-sample-tester", "witness_edges", _edge_sample_tester),
    ]


def distinguisher_by_name(name: str) -> Distinguisher:
    for d in reference_distinguishers():
        if d.name == name:
            return d
    raise ValueError(f"unknown distinguisher {name!r}")


# ---------------------------------------------------------------------------
# sampling amplifier


def edge_sampling_amplifier(
    sampler: Callable[[], tuple[int, int]],
    in_hidden_region: Callable[[int], bool],
) -> int:
    """Draw exactly 7 edges; return 0 iff some edge lies inside the hidden
    region.  With a sampler at most 1/3 from uniform and the hidden region
    holding at least half the edges, each draw hits with probability at
    least 1/2 - 1/3 = 1/6, so the 0-side error is below (5/6)^7 < 1/3."""
    edges = [sampler() for _ in range(AMPLIFIER_SAMPLES)]
    for u, v in edges:
        if in_hidden_region(u) and in_hidden_region(v):
            return 0
    return 1


# ---------------------------------------------------------------------------
# threshold sweeps


def minimal_budget(
    family: InstanceFamily,
    d: Distinguisher,
    trials: int,
    seed: int,
    target: float = 2.0 / 3.0,
    budget_cap: Optional[int] = None,
) -> tuple[Optional[int], Optional[SweepRow]]:
    """The least budget T* whose Wilson lower bound reaches the target
    success rate, and its row.

    One set of trials on the seed serves every budget: the search
    (``_KeptTrials``) takes each trial's run through T = 1, 2, ... one
    answer at a time, keeps the success count at each T, and stops at the
    first T that reaches the target.  So it simulates min(q, T*) queries
    per trial, where q is the number the trial makes before it returns:
    exactly the queries behind the row, which ``run_distinguisher_trials``
    then reads from the same runs without simulating any.  Budgets go up
    to the largest power of two <= the cap (64 N by default), so a cap
    that is not a power of two ends the search where a doubling search
    would, and the rows stay those of one.

    Returns (None, None) if no budget reaches the target: at the first T
    where the trials still live could no longer lift the count to it, or,
    with no trial drawn, if even ``trials`` successes out of ``trials``
    would not."""
    check_trials(family, d, 0, trials)  # what the row would refuse
    cap = budget_cap if budget_cap is not None else 64 * family.n_bits
    last = 1 << (cap.bit_length() - 1) if cap > 0 else 0
    if last == 0 or wilson_lower(trials, trials) < target:
        return None, None
    search = _KeptTrials.of(family, d, trials, seed)
    t_star = search.search(target, last)
    if t_star is None:
        return None, None
    return t_star, run_distinguisher_trials(search, d, t_star, trials, seed)


def threshold_sweep(
    family_for: Callable[[int], InstanceFamily],
    grid: Iterable[int],
    d: Distinguisher,
    seed: int,
    trials: int = 400,
    workers: int = 1,
) -> list[SweepRow]:
    """For each grid size, find the minimal budget reaching 2/3 success and
    report it with that budget's bit statistics, all from the search's own
    trials (see ``minimal_budget``).

    A grid size whose parameters are invalid, or where no budget reaches
    2/3 success, is skipped with a line on stderr.

    Each grid point is an independent search on ``derive_seed(seed, idx)``,
    so with ``workers`` > 1 the points run in up to that many processes
    (see ``_forked_outcomes``); rows, skip lines and the first error are
    still given in grid order, exactly as a serial run gives them."""
    grid = list(grid)

    def point(idx: int):
        n_bits = grid[idx]
        try:
            family = family_for(n_bits)
        except ParameterError as exc:
            return f"skipping N={n_bits}: {exc}"
        t_star, row = minimal_budget(family, d, trials, derive_seed(seed, idx))
        if t_star is None:
            return f"skipping N={n_bits}: no budget reached 2/3 success"
        return row

    count = min(workers, len(grid))
    if count > 1 and hasattr(os, "fork"):
        outcomes = _forked_outcomes(point, _balanced_groups(grid, count))
    else:
        outcomes = map(point, range(len(grid)))
    rows = []
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
        if isinstance(outcome, str):
            print(outcome, file=sys.stderr)
        else:
            rows.append(outcome)
    return rows


def _balanced_groups(grid: list[int], count: int) -> list[list[int]]:
    """The grid's indices in ``count`` groups of about equal total N, since a
    point's cost grows with N: longest processing time first, each point in
    turn to the lightest group.  Group 0 holds the largest N; each group
    lists its indices in grid order."""
    groups = [[] for _ in range(count)]
    loads = [0] * count
    for idx in sorted(range(len(grid)), key=lambda i: -grid[i]):
        lightest = loads.index(min(loads))
        groups[lightest].append(idx)
        loads[lightest] += max(grid[idx], 1)
    return [sorted(group) for group in groups]


def _run_group(point: Callable[[int], object], group: list[int]) -> list[tuple[int, object]]:
    """(index, row or skip line) for the group's points in order; a point
    that raises ends the group with (index, its exception)."""
    done = []
    for idx in group:
        try:
            done.append((idx, point(idx)))
        except Exception as exc:
            done.append((idx, exc))
            break
    return done


def _forked_outcomes(point: Callable[[int], object], groups: list[list[int]]) -> list:
    """Every point's outcome in grid order, the first group run here and
    each other group in a forked helper that pickles its ``_run_group``
    back through a pipe.

    A group stops at its first exception, so walking the outcomes in grid
    order reaches an exception before any point left unrun.  Every helper
    is reaped on every way out; on a way out by an exception here (the
    caller interrupted, a helper that died) the helpers are killed first."""
    import pickle
    import signal

    pids, pipes = [], []
    try:
        for group in groups[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _helper(write_end, point, group)
            os.close(write_end)
            pids.append(pid)
            pipes.append(open(read_end, "rb"))
        outcomes = dict(_run_group(point, groups[0]))
        for pid, pipe in zip(pids, pipes):
            data = pipe.read()
            if not data:
                raise ChildProcessError(f"sweep helper {pid} ended without a result")
            outcomes.update(pickle.loads(data))
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # one that has ended is a zombie until reaped
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return [outcomes[idx] for idx in sorted(outcomes)]


def _helper(write_end: int, point: Callable[[int], object], group: list[int]):
    """A forked helper's whole life: run the group, write its pickled
    outcomes, and leave through ``os._exit``, so it never prints, never
    runs the caller's cleanup and never returns into the caller's stack.
    An exception goes back without its traceback; one that does not
    pickle leaves the pipe empty."""
    try:
        import pickle

        data = pickle.dumps(_run_group(point, group))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    n = len(points)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den
