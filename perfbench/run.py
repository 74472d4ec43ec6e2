"""commgraph benchmark: sweep, lazy-scale and certify through the CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,lazy-scale,certify} \
        --seed N --seconds S --trace {0,1}

Each repetition runs the workload's CLI calls in a fresh interpreter
(``perfbench/worker.py``) with inputs drawn from ``--seed``, so set-up time
and peak memory belong to that workload alone.  Repetitions continue until
``--seconds`` have passed and at least three have run, and every metric is
the median over repetitions.  Set-up time also gets samples from interpreters
that only import commgraph and parse arguments.  Times are scaled for the
host's speed at the moment they were taken (see REFERENCE_S).

With ``--trace 0`` the workers install no wrappers and the end-to-end
metrics are reported.  With ``--trace 1`` each repetition runs once untraced
and once traced, and one repetition is enough; the per-layer metrics come
from the traced runs and the scaling probes, and ``trace.overhead_s`` is
traced minus untraced wall time.

Outputs are checked through the README file formats, and their digests are
printed to stderr.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run summary and
the traced spans are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 5
MIN_REPETITIONS = 3  # a median that one unusual input cannot move
# Shared hosts drift in speed by tens of percent within seconds and over
# minutes, and all of a run can fall in a slow spell.  Workers therefore time
# a fixed ~5 ms pure-Python loop (worker.reference_loop) after set-up and every
# 0.1 s during the ops, and each reported time is scaled to a host on which
# that loop takes REFERENCE_S: seconds * REFERENCE_S / mean loop seconds.
# Raw seconds are kept in the run summary.
REFERENCE_S = 0.005
RUN_LIMIT_S = 170.0
SWEEP_HEADER = ["kind", "N", "T", "trials", "success", "mean_bits", "max_bits_per_query"]
TRANSCRIPT_HEADER = ["trial", "query_index", "query_kind", "bits", "cumulative_bits"]

# Span names reported as <name>.calls and <name>.self_s, or as self_s only.
CALLS_AND_SELF = [
    "protocols.simulate", "embeddings.answer.degree", "embeddings.answer.neighbor",
    "embeddings.answer.pair", "embeddings.answer.random_edge", "embeddings.build",
    "embeddings.input_free_degrees", "graph.sample_edge", "bits.from_bits", "bits.getitem",
    "promises.gen", "embeddings.materialize",
]
SELF_ONLY = [
    "experiments.trial_loop", "graph.explicit_graph", "graph.validate", "graph.edge_list_io",
    "verify.count_triangles", "verify.count_r_cliques", "verify.min_cut",
    "verify.connected_components", "verify.moment", "verify.degeneracy",
    "verify.arboricity_bounds", "cli.gen", "cli.verify", "cli.simulate", "cli.sweep",
]
COUNTERS = ["protocols.bits", "embeddings.input_free_degrees.entries", "promises.gen.coords",
            "embeddings.materialize.edges", "verify.checks", "verify.checks_failed"]


def _flag(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def sub_seed(seed: int, index: int) -> int:
    """The CLI seed of repetition ``index``: each repetition runs other
    inputs, so a run's median spans several inputs, and the same run seed
    always gives the same sequence of inputs."""
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) on log(x); kept apart from commgraph's
    own fit so that the output check does not trust the code it checks."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


# ---------------------------------------------------------------------------
# workloads: the CLI calls of one repetition and the checks of its outputs.
# A check returns (ops attempted, ops failed, problems, work units, outputs).


def sweep_ops(seed: int, d: Path) -> list:
    return [[WORKLOADS["sweep"]["argv"] + ["--seed", str(seed), "--out", str(d / "sweep.csv")]]]


def sweep_check(ops: list, d: Path):
    """A row at every grid point, T ~ N with log-log slope 1.0 +/- 0.2, and at
    most 2 bits per query.  Work units: queries in the reported rows (each
    pair-probe query costs 2 bits)."""
    grid = [int(n) for n in _flag(WORKLOADS["sweep"]["argv"], "--grid").split(",")]
    path = d / "sweep.csv"
    if not path.is_file():
        return len(grid), len(grid), ["sweep CSV missing"], 0, []
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    problems = []
    if not rows or rows[0] != SWEEP_HEADER:
        problems.append("sweep CSV header")
    by_n = {int(r[1]): r for r in rows[1:]}  # an unreadable row fails every op
    missing = [n for n in grid if n not in by_n]
    if missing:
        problems.append(f"no row at grid points {missing}")
    if len(by_n) >= 2:
        slope = loglog_slope([(n, int(r[2])) for n, r in by_n.items()])
        if abs(slope - 1.0) > 0.2:
            problems.append(f"T*(N) log-log slope {slope:.3f} outside 1.0 +/- 0.2")
    if any(int(r[6]) > 2 for r in by_n.values()):
        problems.append("max_bits_per_query above 2")
    queries = sum(int(r[3]) * float(r[5]) / 2 for r in by_n.values())
    return len(grid), len(missing), problems, queries, [path]


def lazy_ops(seed: int, d: Path) -> list:
    argv = WORKLOADS["lazy-scale"]["argv"]
    return [[argv + ["--seed", str(seed), "--transcripts", str(d / "transcripts.csv")]]]


def lazy_check(ops: list, d: Path):
    """Every transcript row costs 0 or 2 bits, cumulative bits add up, and
    every trial has between 1 and budget queries.  Work units: rows."""
    argv = WORKLOADS["lazy-scale"]["argv"]
    trials, budget = int(_flag(argv, "--trials")), int(_flag(argv, "--budget"))
    path = d / "transcripts.csv"
    if not path.is_file():
        return trials, trials, ["transcript CSV missing"], 0, []
    problems = []
    per_trial: Counter = Counter()
    bad_trials = set()
    cumulative: dict = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != TRANSCRIPT_HEADER:
            problems.append("transcript header")
        rows = 0
        for trial, index, _, bits, total in reader:
            rows += 1
            trial, bits = int(trial), int(bits)
            expected = cumulative.get(trial, 0) + bits
            if bits not in (0, 2) or int(index) != per_trial[trial] or int(total) != expected:
                bad_trials.add(trial)
            cumulative[trial] = expected
            per_trial[trial] += 1
    bad_trials |= {t for t in range(trials) if not 1 <= per_trial[t] <= budget}
    if bad_trials:
        problems.append(f"{len(bad_trials)} trials with bad rows or query counts")
    return trials, len(bad_trials), problems, rows, [path]


def certify_ops(seed: int, d: Path) -> list:
    ops = []
    for kind, params in WORKLOADS["certify"]["kinds"].items():
        for side in ("intersecting", "disjoint"):
            stem = d / f"{kind}-{side}"
            ops.append([
                ["gen", "--kind", kind, *params, "--seed", str(seed), "--side", side,
                 "--out", f"{stem}.json"],
                ["verify", "--instance", f"{stem}.json", "--edges", f"{stem}.edges",
                 "--out", f"{stem}.jsonl"],
            ])
    return ops


def certify_check(ops: list, d: Path):
    """Every report line passes and edge_list_match is present and true.
    Work units: lazy lookups by materialization, n + 2m each in gen and in
    verify."""
    problems, failed, lookups, reports = [], 0, 0, []
    for op in ops:
        stem = Path(op[1][-1]).with_suffix("")
        report = stem.with_suffix(".jsonl")
        if not report.is_file():
            failed += 1
            problems.append(f"{stem.name}: no report")
            continue
        reports.append(report)
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        match = [r for r in lines if r["quantity"] == "edge_list_match"]
        if not match or not all(r["pass"] is True for r in lines + match):
            failed += 1
            problems.append(f"{stem.name}: a check did not pass")
            continue
        n = json.loads(stem.with_suffix(".json").read_text())["params"]["n"]
        lookups += 2 * (n + 2 * match[0]["value"])
    return len(ops), failed, problems, lookups, reports


SPECS = {
    "sweep": (sweep_ops, sweep_check),
    "lazy-scale": (lazy_ops, lazy_check),
    "certify": (certify_ops, certify_check),
}


# ---------------------------------------------------------------------------
# workers


class Runner:
    """Spawns workers one at a time and keeps each one's raw result."""

    def __init__(self, workload: str, seed: int, work: Path, out: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out = out
        self.deadline = deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("COMMGRAPH_") and k != "PYTHONPATH"}

    def spawn(self, mode: str, ops: list, trace: bool = False) -> dict:
        """Run one worker; returns its result plus ``setup`` seconds, or
        ``{"error": ...}`` when it fails."""
        self.count += 1
        tag = f"{self.workload}-s{self.seed}-w{self.count}"
        spec = {"root": str(ROOT), "mode": mode, "ops": ops, "trace": trace,
                "seed": self.seed, "run_id": tag,
                "result": str(self.work / f"{tag}.result.json"),
                "spans": str(self.out / f"spans-{tag}.jsonl")}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return {"error": "no time left"}
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or proc.stderr.strip():
            sys.stderr.write(proc.stderr[-4000:])
        if proc.returncode != 0:
            return {"error": f"worker exited {proc.returncode}"}
        result = json.loads(Path(spec["result"]).read_text())
        setup = result["ready"] - spawned
        result["raw_setup"] = setup
        result["setup"] = setup * REFERENCE_S / statistics.fmean(result["setup_reference"])
        if "wall" in result:
            samples = result["samples"] or result["setup_reference"]
            result["raw_wall"] = result["wall"]
            result["wall"] *= REFERENCE_S / statistics.fmean(samples)
            if "trace" in result:
                # spans also cover the samples taken while they ran
                gross = result["raw_wall"] + sum(result["samples"])
                scale = result["wall"] / gross
                result["trace"]["self_s"] = {
                    k: v * scale for k, v in result["trace"]["self_s"].items()}
        return result

    def repetition(self, seed: int, trace: bool) -> dict:
        d = self.work / f"rep{self.count + 1}"
        d.mkdir()
        make_ops, check = SPECS[self.workload]
        ops = make_ops(seed, d)
        result = self.spawn("ops", ops, trace)
        try:
            attempted, failed, problems, units, outputs = check(ops, d)
        except (ValueError, KeyError, IndexError) as exc:
            attempted, problems, units, outputs = len(ops), [f"unreadable output: {exc!r}"], 0, []
            failed = attempted
        if "error" in result:
            failed = attempted
            problems.append(result["error"])
        else:
            failed = max(failed, sum(1 for op in result["ops"] if not op["ok"]))
        rep = {"seed": seed, "trace": trace, "attempted": attempted, "failed": failed,
               "problems": problems, "units": units,
               "digest": _digest(outputs) if outputs else None}
        if "error" not in result:
            rep.update({k: result[k] for k in ("setup", "raw_setup", "wall", "raw_wall",
                                               "maxrss_mb")},
                       trace_summary=result.get("trace"))
        shutil.rmtree(d)
        return rep


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(summary: dict) -> dict:
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    errors = Counter({(s, e): n for s, e, n in summary["errors"]})
    edges = {(p, c): n for p, c, n in summary["edges"]}
    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in COUNTERS:
        m[name] = counters.get(name, 0)
    trials = calls.get("experiments.trial", 0)
    m.update({
        "protocols.exchange.calls": calls.get("protocols.exchange", 0),
        "protocols.capability_violations": errors["protocols.exchange", "CapabilityViolation"],
        "experiments.trials": trials,
        "experiments.budget_evals":
            edges.get(("experiments.budget_search", "experiments.trial_loop"), 0),
        "experiments.budget_exceeded": errors["experiments.trial", "BudgetExceeded"],
        "experiments.useful_trial_frac":
            counters.get("experiments.reported_trials", 0) / trials if trials else 0.0,
        "verify.refused": errors["verify.suite", "MaterializationCapExceeded"]
            + errors["verify.suite", "VerifyBudgetExceeded"],
    })
    return m


def median_of(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list, setups: list) -> dict:
    done = [r for r in reps if "wall" in r]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "setup_s": median_of(setups + [r["setup"] for r in done]),
        "wall_s": median_of([r["wall"] for r in done]),
        "queries_per_s": median_of([r["units"] / r["wall"] for r in done]),
        "peak_rss_mb": median_of([r["maxrss_mb"] for r in done]),
        "completed_frac": (attempted - failed) / attempted if attempted else 0.0,
    }


def per_layer(workload: str, reps: list, probes: dict) -> tuple[dict, list]:
    traced = [r for r in reps if r["trace"] and r.get("trace_summary")]
    plain = [r["wall"] for r in reps if not r["trace"] and "wall" in r]
    per_rep = [layer_metrics(r["trace_summary"]) for r in traced]
    names = per_rep[0] if per_rep else layer_metrics(
        {"calls": {}, "self_s": {}, "counters": {}, "errors": [], "edges": []})
    metrics = {name: median_of([m[name] for m in per_rep]) for name in names}
    for name in ("promises.gen.exp_N", "bits.getitem.exp_N", "embeddings.random_edge.exp_n",
                 "embeddings.pair.exp_n", "verify.min_cut.exp_n"):
        metrics[name] = probes[name]["slope"] if name in probes else 0.0
    metrics["trace.overhead_s"] = median_of([r["wall"] for r in traced]) - median_of(plain)
    problems = [] if traced else ["no traced repetition finished"]
    for r in traced:
        calls = r["trace_summary"]["calls"]
        zero = [name for name in WORKLOADS[workload]["expect_calls"] if not calls.get(name)]
        if zero:
            problems.append(f"expected boundaries recorded no calls: {zero}")
    if probes.get("error"):
        problems.append(f"scaling probes: {probes['error']}")
    return metrics, problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "commgraph" / "__init__.py").is_file():
        print(f"no commgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{tag}-p{os.getpid()}"
    out.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work, out, started + RUN_LIMIT_S)
        first_call = SPECS[args.workload][0](args.seed, work)[:1]
        setups = [r["setup"] for r in
                  (runner.spawn("setup", first_call) for _ in range(SETUP_SAMPLES))
                  if "setup" in r]
        reps = []
        longest = 0.0
        for index in itertools.count():
            rep_start = time.perf_counter()
            rep_seed = sub_seed(args.seed, index)
            reps.append(runner.repetition(rep_seed, False))
            if args.trace:
                reps.append(runner.repetition(rep_seed, True))
            now = time.perf_counter()
            longest = max(longest, now - rep_start)
            if reps[-1]["problems"] or reps[-1 - args.trace]["problems"]:
                break
            enough = index + 1 >= (1 if args.trace else MIN_REPETITIONS)
            if enough and now - started >= args.seconds:
                break
            if now + 1.5 * longest > started + RUN_LIMIT_S:
                break
        probes = {}
        if args.trace:
            probe = runner.spawn("probe", [])
            probes = probe.get("probes") or {"error": probe.get("error", "no result")}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in reps for p in r["problems"]]
    if args.trace:
        metrics, layer_problems = per_layer(args.workload, reps, probes)
        problems += layer_problems
    else:
        metrics = end_to_end(reps, setups)
    listed = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        problems.append(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    digests = {f"seed={r['seed']} trace={int(r['trace'])}": r["digest"] for r in reps}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units.get(name)}", file=sys.stderr)
    for key, digest in digests.items():
        print(f"{args.workload} output digest {key} sha256 {digest}", file=sys.stderr)
    for problem in problems:
        print(f"{args.workload} CHECK FAILED: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "setup_samples": setups, "digests": digests, "problems": problems,
               "probes": probes if args.trace else None,
               "reps": [{k: v for k, v in r.items() if k != "trace_summary"} for r in reps],
               "metrics": metrics}
    (out / f"{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
