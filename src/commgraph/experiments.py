"""Distinguisher harnesses, threshold sweeps, and the sampling amplifier.

A distinguisher sees only the construction's public shape (kind, sizes,
derived parameters, declared witnesses) and an oracle whose every answer
goes through the two-party simulation, so the inputs are reachable only
via transcripted queries.  It supports the kinds that declare the witness
it reads, whatever their names.  Success rates are judged against Wilson
lower confidence bounds to keep thresholds stable under finite-trial noise.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Optional

from .embeddings import EMBEDDING_CLASSES
from .embeddings.base import Embedding, ParameterError
from .graph import Degree, Pair, RandomEdge
from .promises import Promise, PromisePair, gen_promise_instance
from .protocols import BudgetExceeded, ReductionOracle, run_reduction
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
    """A query algorithm ``run(oracle, view, budget, rng) -> label`` and the
    witness it ``reads``: the ``PublicView`` field it looks for.

    The prefix contract: a distinguisher answers ``view.label_intersecting``
    exactly when one of its queries showed a witness, and it stops at that
    query; otherwise it answers ``view.label_disjoint``.  Which queries it
    makes depends on the oracle's answers and ``rng``, never on ``budget``,
    which only cuts the run short.  With the same randomness, the run at
    budget T is then the first T queries of the run at any larger budget,
    which is what lets ``minimal_budget`` read the success at every budget
    up to hi from one set of trials run at hi.  All three reference
    distinguishers satisfy it.
    """

    name: str
    reads: str
    run: Callable[[ReductionOracle, PublicView, int, random.Random], int]

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
    """One trial's instance, its true label and its public view."""

    inst: Embedding
    truth: int
    view: PublicView


@dataclass(frozen=True)
class InstanceFamily:
    """A construction with fixed parameters, buildable per random input pair."""

    kind: str
    n_bits: int
    promise: Promise
    build: Callable[[PromisePair], Embedding]

    def draw(self, seed: int, t: int) -> Trial:
        """Trial t: its inputs come from ``derive_seed(seed, t, 0)`` alone."""
        pp = gen_promise_instance(self.n_bits, self.promise, derive_seed(seed, t, 0))
        inst = self.build(pp)
        return Trial(inst, inst.gap_label(), PublicView.of(inst))


@dataclass(frozen=True)
class _KeptTrials(InstanceFamily):
    """A family that keeps every trial it draws, so the steps of one budget
    search, which all draw at the search's seed, run the same instances
    without drawing or building them again."""

    kept: list = field(default_factory=list, compare=False, repr=False)

    def draw(self, seed: int, t: int) -> Trial:
        kept = self.kept
        while len(kept) <= t:
            kept.append(super().draw(seed, len(kept)))
        return kept[t]


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


def run_distinguisher_trials(
    family: InstanceFamily,
    d: Distinguisher,
    budget: int,
    trials: int,
    seed: int,
    on_trial: Optional[Callable] = None,
) -> SweepRow:
    """Fresh promise instance per trial, every query transcripted.

    A budget violation invalidates the trial and counts as a failure.
    ``mean_bits`` is the mean transcript total per trial.  Trial t draws
    its inputs and randomness from ``derive_seed(seed, t, .)`` alone, so
    the same seed runs the same trials at every budget.  Each trial is
    drawn (``family.draw``) only after the previous one's ``on_trial``
    has run, and an ``InstanceFamily`` keeps none of them.  ``on_trial``
    gets ``(t, output, truth, transcript, view)`` after each trial, with
    output and transcript None after a budget violation.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if family.kind not in d.supports:
        raise ValueError(f"{d.name} does not support {family.kind}")
    successes = 0
    total_bits = 0
    max_bits = 0
    for t in range(trials):
        trial = family.draw(seed, t)
        truth, view = trial.truth, trial.view

        def algorithm(oracle, rng):
            return d.run(oracle, view, budget, rng)

        try:
            output, transcript = run_reduction(
                trial.inst, algorithm, derive_seed(seed, t, 1), budget=budget
            )
            ok = output == truth
        except BudgetExceeded:
            output, transcript, ok = None, None, False
        if ok:
            successes += 1
        if transcript is not None:
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


def _pair_probe(oracle, view: PublicView, budget: int, rng: random.Random) -> int:
    """Probe the witness pair of a uniformly random block per query; a
    positive answer certifies the intersecting side."""
    blocks = view.params["blocks"]
    stride, offset = view.witness_pair
    answer, randrange = oracle.answer, rng.randrange
    for _ in range(budget):
        u = randrange(blocks) * stride
        if answer(Pair(u, u + offset)).bit:
            return view.label_intersecting
    return view.label_disjoint


def _degree_scan(oracle, view: PublicView, budget: int, rng: random.Random) -> int:
    """Degree-probe one block's probe vertex per query; any deviation from
    the disjoint-side degree certifies the intersecting side."""
    blocks = view.params["blocks"]
    stride, offset, baseline = view.probe_vertex
    answer, randrange = oracle.answer, rng.randrange
    for _ in range(budget):
        if answer(Degree(offset + randrange(blocks) * stride)).d != baseline:
            return view.label_intersecting
    return view.label_disjoint


def _edge_sample_tester(oracle, view: PublicView, budget: int, rng: random.Random) -> int:
    """Draw uniform edges; an edge inside the declared witness ranges exists
    only when the inputs intersect."""
    ranges = view.witness_edges
    for _ in range(budget):
        u, v = oracle.answer(RandomEdge())
        if any(a <= u < b and c <= v < d for a, b, c, d in ranges):
            return view.label_intersecting
    return view.label_disjoint


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


@dataclass
class CoupledTrials:
    """One set of trials run at budget ``hi``, read at every budget T <= hi.

    By the prefix contract (see ``Distinguisher``), the run at T outputs
    the intersecting label exactly when the run at hi showed its witness
    by query T, and its queries are the first min(q, T) of the q made at
    hi.  So each trial succeeds on an interval of budgets: from its witness
    query up when the witness was right, below it when it was wrong, at
    every budget or at none when it showed no witness.  A budget violation
    fails the trial at every budget.
    """

    family: InstanceFamily
    hi: int
    trials: int
    successes: list[int]  # trials succeeding at budget T, for T = 0..hi
    bits: list[bytes]  # per trial, the bit cost of each query made at hi

    @classmethod
    def run(
        cls, family: InstanceFamily, d: Distinguisher, hi: int, trials: int, seed: int
    ) -> "CoupledTrials":
        delta = [0] * (hi + 2)
        per_trial_bits = []

        def record(t, output, truth, transcript, view):
            if transcript is None:
                per_trial_bits.append(b"")
                return
            ok = output == truth
            if output == view.label_intersecting:  # witness at the last query
                q = transcript.query_count
                first, last = (q, hi) if ok else (0, q - 1)
            else:
                first, last = (0, hi) if ok else (1, 0)  # (1, 0): no budget
            delta[first] += 1
            delta[last + 1] -= 1
            per_trial_bits.append(bytes(transcript.bits))

        run_distinguisher_trials(family, d, hi, trials, seed, on_trial=record)
        return cls(family, hi, trials, list(accumulate(delta[: hi + 1])), per_trial_bits)

    def row(self, budget: int) -> SweepRow:
        """The row ``run_distinguisher_trials`` reports at ``budget`` on the
        same seed."""
        if not 1 <= budget <= self.hi:
            raise ValueError(f"budget {budget} outside [1, {self.hi}]")
        prefixes = [bits[:budget] for bits in self.bits]
        return SweepRow(
            kind=self.family.kind,
            n_bits=self.family.n_bits,
            budget=budget,
            trials=self.trials,
            success=self.successes[budget] / self.trials,
            mean_bits=sum(sum(b) for b in prefixes) / self.trials,
            max_bits_per_query=max((max(b, default=0) for b in prefixes), default=0),
        )


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

    Doubling steps hi = 1, 2, 4, ... (up to the cap, 64 N by default) each
    run one set of trials on the same seed, so every trial keeps its inputs
    and randomness at every budget, and the success count at each T <= hi
    is read from that one set (``CoupledTrials``).  The first step where
    some T reaches the target ends the search; the row comes from the same
    trials.  Returns (None, None) if no budget reaches the target."""
    cap = budget_cap if budget_cap is not None else 64 * family.n_bits
    kept = _KeptTrials(family.kind, family.n_bits, family.promise, family.build)
    hi = 1
    while hi <= cap:
        coupled = CoupledTrials.run(kept, d, hi, trials, seed)
        for t_star in range(1, hi + 1):
            if wilson_lower(coupled.successes[t_star], trials) >= target:
                return t_star, coupled.row(t_star)
        hi *= 2
    return None, None


def threshold_sweep(
    family_for: Callable[[int], InstanceFamily],
    grid: Iterable[int],
    d: Distinguisher,
    seed: int,
    trials: int = 400,
) -> list[SweepRow]:
    """For each grid size, find the minimal budget reaching 2/3 success and
    report it with that budget's bit statistics, all from the search's own
    trials (see ``minimal_budget``).

    A grid size whose parameters are invalid, or where no budget reaches
    2/3 success, is skipped with a line on stderr."""
    rows = []
    for idx, n_bits in enumerate(grid):
        try:
            family = family_for(n_bits)
        except ParameterError as exc:
            print(f"skipping N={n_bits}: {exc}", file=sys.stderr)
            continue
        t_star, row = minimal_budget(family, d, trials, derive_seed(seed, idx))
        if t_star is None:
            print(f"skipping N={n_bits}: no budget reached 2/3 success", file=sys.stderr)
            continue
        rows.append(row)
    return rows


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    n = len(points)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den
