"""Distinguisher harnesses, threshold sweeps, and the sampling amplifier.

A distinguisher sees only the construction's public shape (kind, sizes,
derived parameters) and an oracle whose every answer goes through the
two-party simulation, so the inputs are reachable only via transcripted
queries.  Success rates are judged against Wilson lower confidence
bounds to keep thresholds stable under finite-trial noise.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .embeddings.base import Embedding, ParameterError
from .graph import Degree, Pair, RandomEdge
from .promises import Promise, PromisePair, gen_promise_instance
from .protocols import BudgetExceeded, ReductionOracle, run_reduction
from .rng import derive_seed

AMPLIFIER_SAMPLES = 7


@dataclass(frozen=True)
class PublicView:
    """What an algorithm may know about an instance: everything except the
    two parties' inputs."""

    kind: str
    n: int
    params: dict
    label_intersecting: int
    label_disjoint: int

    @classmethod
    def of(cls, inst: Embedding) -> "PublicView":
        return cls(
            kind=inst.kind,
            n=inst.n,
            params=inst.params_json(),
            label_intersecting=inst.label_for(True),
            label_disjoint=inst.label_for(False),
        )


@dataclass(frozen=True)
class Distinguisher:
    name: str
    supports: frozenset
    run: Callable[[ReductionOracle, PublicView, int, random.Random], int]

    def __repr__(self) -> str:
        return f"Distinguisher({self.name})"


@dataclass(frozen=True)
class InstanceFamily:
    """A construction with fixed parameters, buildable per random input pair."""

    kind: str
    n_bits: int
    promise: Promise
    build: Callable[[PromisePair], Embedding]


@dataclass
class SweepRow:
    kind: str
    n_bits: int
    budget: int
    trials: int
    success: float
    mean_bits: float
    max_bits_per_query: int
    warn: bool = False

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
    ``mean_bits`` is the mean transcript total per trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if d.supports and family.kind not in d.supports:
        raise ValueError(f"{d.name} does not support {family.kind}")
    successes = 0
    total_bits = 0
    max_bits = 0
    for t in range(trials):
        pp = gen_promise_instance(family.n_bits, family.promise, derive_seed(seed, t, 0))
        inst = family.build(pp)
        truth = inst.gap_label()
        view = PublicView.of(inst)

        def algorithm(oracle, rng):
            return d.run(oracle, view, budget, rng)

        try:
            output, transcript = run_reduction(
                inst, algorithm, derive_seed(seed, t, 1), budget=budget
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
            on_trial(t, output, truth, transcript)
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


def _block_witness_pair(view: PublicView, j: int) -> tuple[int, int]:
    if view.kind == "clique-hiding":
        l = view.params["l"]
        if l < 2:
            raise ValueError("pair probing needs blocks of size >= 2")
        return j * l, j * l + 1
    if view.kind == "moments-hiding":
        size, p = view.params["block_size"], view.params["p"]
        return j * size, j * size + p
    raise ValueError(f"no in-block witness pair for {view.kind}")


def _pair_probe(oracle, view: PublicView, budget: int, rng: random.Random) -> int:
    """Probe the witness pair of a uniformly random block per query; a
    positive answer certifies the intersecting side."""
    blocks = view.params["blocks"]
    for _ in range(budget):
        u, v = _block_witness_pair(view, rng.randrange(blocks))
        if oracle.answer(Pair(u, v)).bit:
            return view.label_intersecting
    return view.label_disjoint


def _block_probe_vertex(view: PublicView) -> tuple[int, int, int]:
    """(vertex stride, offset, disjoint-side degree) for degree scanning."""
    if view.kind == "degree-only":
        return view.params["k"], 0, 0
    if view.kind == "clique-hiding":
        base = 1 if view.params["augment_connect"] else 0
        return view.params["l"], 0, base
    if view.kind == "moments-hiding":
        return view.params["block_size"], 0, 0
    if view.kind == "moments-block":
        w0 = 2 * view.params["n_side"] + view.params["alpha"]
        return view.params["w_size"], w0, 0
    raise ValueError(f"no degree tell for {view.kind}")


def _degree_scan(oracle, view: PublicView, budget: int, rng: random.Random) -> int:
    """Degree-probe one block representative per query; any deviation from
    the disjoint-side degree certifies the intersecting side."""
    blocks = view.params["blocks"]
    stride, offset, baseline = _block_probe_vertex(view)
    for _ in range(budget):
        v = offset + rng.randrange(blocks) * stride
        if oracle.answer(Degree(v)).d != baseline:
            return view.label_intersecting
    return view.label_disjoint


def _cross_edge_test(view: PublicView, u: int, v: int) -> bool:
    l = view.params["l"]
    if view.kind in ("triangle", "r-clique"):
        return u < l and 2 * l <= v < 3 * l  # an A-B edge
    if view.kind == "connectivity":
        a_bp = u < l and 3 * l <= v < 4 * l  # A-B'
        ap_b = l <= u < 2 * l and 2 * l <= v < 3 * l  # A'-B
        return a_bp or ap_b
    raise ValueError(f"no cross-edge witness for {view.kind}")


def _edge_sample_tester(oracle, view: PublicView, budget: int, rng: random.Random) -> int:
    """Draw uniform edges; any edge crossing between the input-coupled sides
    exists only when the inputs intersect."""
    for _ in range(budget):
        e = oracle.answer(RandomEdge())
        if _cross_edge_test(view, e.u, e.v):
            return view.label_intersecting
    return view.label_disjoint


def reference_distinguishers() -> list[Distinguisher]:
    return [
        Distinguisher(
            "pair-probe",
            frozenset({"clique-hiding", "moments-hiding"}),
            _pair_probe,
        ),
        Distinguisher(
            "degree-scan",
            frozenset({"degree-only", "clique-hiding", "moments-hiding", "moments-block"}),
            _degree_scan,
        ),
        Distinguisher(
            "edge-sample-tester",
            frozenset({"triangle", "r-clique", "connectivity"}),
            _edge_sample_tester,
        ),
    ]


def distinguisher_by_name(name: str) -> Distinguisher:
    for d in reference_distinguishers():
        if d.name == name:
            return d
    raise ValueError(f"unknown distinguisher {name!r}")


# ---------------------------------------------------------------------------
# amplifier and approximation checking


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


def approx_checker(
    estimator: Callable[[random.Random], float],
    truth: float,
    epsilon: float,
    trials: int,
    seed: int,
) -> tuple[float, bool]:
    """Empirical check of a (1 +/- epsilon) approximation at the standard 2/3
    success level, with binomial slack at 95% confidence."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if trials < 30:
        raise ValueError("need at least 30 trials")
    rng = random.Random(derive_seed(seed))
    hits = 0
    for _ in range(trials):
        est = estimator(random.Random(rng.getrandbits(64)))
        if abs(est - truth) <= epsilon * truth:
            hits += 1
    rate = hits / trials
    slack = 1.96 * math.sqrt((2.0 / 9.0) / trials)
    return rate, rate >= 2.0 / 3.0 - slack


# ---------------------------------------------------------------------------
# threshold sweeps


@dataclass
class _SearchLog:
    evaluations: dict = field(default_factory=dict)  # budget -> success rate


def _monotone(log: _SearchLog) -> bool:
    pts = sorted(log.evaluations.items())
    # allow small noise: a later budget may dip a little below an earlier one
    return all(b[1] >= a[1] - 0.08 for a, b in zip(pts, pts[1:]))


def minimal_budget(
    family: InstanceFamily,
    d: Distinguisher,
    trials: int,
    seed: int,
    target: float = 2.0 / 3.0,
    budget_cap: Optional[int] = None,
) -> tuple[Optional[int], int, bool, _SearchLog]:
    """Binary-search the least budget whose Wilson lower bound reaches the
    target success rate.  Returns (budget or None, trials used, warn, log)."""
    cap = budget_cap if budget_cap is not None else 64 * family.n_bits
    warned = False
    for attempt in range(2):
        log = _SearchLog()

        def good(t: int) -> bool:
            row = run_distinguisher_trials(family, d, t, trials, derive_seed(seed, attempt, t))
            log.evaluations[t] = row.success
            return wilson_lower(round(row.success * trials), trials) >= target

        hi = 1
        while hi <= cap and not good(hi):
            hi *= 2
        if hi > cap:
            return None, trials, True, log
        lo = hi // 2  # good(lo) unknown for hi == 1; treat 0 as failing
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if good(mid):
                hi = mid
            else:
                lo = mid
        if _monotone(log):
            return hi, trials, warned, log
        # noisy, widen once and retry
        trials *= 2
        warned = True
    return hi, trials, True, log


def threshold_sweep(
    family_for: Callable[[int], InstanceFamily],
    grid: Iterable[int],
    d: Distinguisher,
    seed: int,
    trials: int = 400,
) -> list[SweepRow]:
    """For each grid size, find the minimal budget reaching 2/3 success and
    report it with that budget's bit statistics.

    A grid size whose parameters are invalid, or where no budget reaches
    2/3 success, is skipped with a line on stderr.  A size whose search had
    to widen its trials keeps its row and gets a warning line."""
    rows = []
    for idx, n_bits in enumerate(grid):
        try:
            family = family_for(n_bits)
        except ParameterError as exc:
            print(f"skipping N={n_bits}: {exc}", file=sys.stderr)
            continue
        t_star, used, warn, _ = minimal_budget(
            family, d, trials, derive_seed(seed, idx)
        )
        if t_star is None:
            print(f"skipping N={n_bits}: no budget reached 2/3 success", file=sys.stderr)
            continue
        row = run_distinguisher_trials(
            family, d, t_star, used, derive_seed(seed, idx, 0xFF)
        )
        if warn:
            print(f"warning: N={n_bits} needed widened trials", file=sys.stderr)
        row.warn = warn
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
