"""Command-line front end: gen / verify / simulate / sweep.

Every command is a pure function of its flags plus the seed; outputs are
byte-reproducible.  Exit codes: 0 success, 1 verification failure,
2 configuration or parameter error, a file that cannot be read or
written, or a refusal (``refused: ...``).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from pathlib import Path

from .embeddings import ALL_KINDS, EMBEDDING_CLASSES, instance_from_json, instance_to_json
from .embeddings.base import (
    ENV_MAX_EDGES,
    ENV_MAX_VERTICES,
    MaterializationCapExceeded,
    ParameterError,
    flag_name,
)
from .experiments import (
    SWEEP_CSV_HEADER,
    check_trials,
    distinguisher_by_name,
    run_distinguisher_trials,
    threshold_sweep,
)
from .graph import dump_edge_list
from .presets import family
from .promises import DISJ_PROMISES, Disjoint, gen_promise_instance
from .protocols import TRANSCRIPT_CSV_HEADER
from .rng import derive_seed


def _flags(names) -> str:
    return " ".join(flag_name(name) for name in names)


PARAM_SCHEMA = """\
per-kind parameters:
%s

promise defaults to unique-intersection for the disjointness-based kinds;
triangle / r-clique / connectivity use the {0, k} promise implied by --k.
Materialization caps come from %s / %s.
""" % (
    "\n".join(
        f"  {cls.kind:<16} {_flags(cls.requires)} [{_flags(cls.accepts)}]"
        for cls in EMBEDDING_CLASSES.values()
    ),
    ENV_MAX_VERTICES,
    ENV_MAX_EDGES,
)


class ConfigError(Exception):
    pass


# Every construction flag, in the order the constructions declare them.
KIND_FLAGS = tuple(dict.fromkeys(
    name for cls in EMBEDDING_CLASSES.values() for name in cls.requires + cls.accepts
))


def _kind_flags(args) -> dict:
    """The construction flags given, which must all be among those
    ``--kind``'s construction declares: one it ignores is refused, not
    dropped."""
    cls = EMBEDDING_CLASSES[args.kind]
    given = {name: value for name in KIND_FLAGS if (value := getattr(args, name)) is not None}
    stray = [name for name in given if name not in cls.requires + cls.accepts]
    if stray:
        raise ConfigError(f"kind {cls.kind} does not take {_flags(stray)}")
    return given


def _add_kind_params(p: argparse.ArgumentParser):
    p.add_argument("--kind", required=True, choices=ALL_KINDS)
    p.add_argument("--l", type=int, help="block side / block size")
    p.add_argument("--k", type=int, help="intersection multiplicity or block size")
    p.add_argument("--r", type=int, help="clique order (r-clique)")
    p.add_argument("--n", type=int, help="total vertex count (padded up if too small)")
    p.add_argument("--s-size", type=int, dest="s_size", help="witness set size (triangle)")
    p.add_argument("--blocks", type=int, help="number of hiding blocks")
    p.add_argument("--base-n", type=int, dest="base_n", help="base graph vertices")
    p.add_argument("--base-m", type=int, dest="base_m", help="base graph edges")
    p.add_argument("--augment-connect", action="store_true", dest="augment_connect",
                   default=None,  # left off, it is not given
                   help="attach every vertex to a hub (diameter-2 variant)")
    p.add_argument("--s", type=int, help="degree-moment order")
    p.add_argument("--alpha", type=int, help="arboricity target")
    p.add_argument("--c", type=int, help="moment gap factor")
    p.add_argument("--m-tilde", type=int, dest="m_tilde", help="moment scale")
    p.add_argument("--n-side", type=int, dest="n_side", help="bipartite side size")
    p.add_argument("--s-clique-budget", type=int, dest="s_clique_budget",
                   help="sparse-S transversal budget (r-clique)")
    p.add_argument("--promise", choices=list(DISJ_PROMISES),
                   help="promise for the disjointness-based kinds")


def _instance_for(args):
    fam = family(args.kind, **_kind_flags(args))
    impossible = f"cannot draw a {args.side} instance for this promise"
    if args.side == "intersecting" and isinstance(fam.promise, Disjoint):
        raise ConfigError(impossible)  # no draw under this promise intersects
    pp = gen_promise_instance(fam.n_bits, fam.promise, derive_seed(args.seed, 0))
    if args.side != "coin":
        want = args.side == "intersecting"
        attempt = 0
        while pp.intersecting != want:
            attempt += 1
            if attempt > 10_000:
                raise ConfigError(impossible)
            pp = gen_promise_instance(
                fam.n_bits, fam.promise, derive_seed(args.seed, 0, attempt)
            )
    inst = fam.build(pp)
    inst.seed = args.seed
    return inst


def cmd_gen(args) -> int:
    inst = _instance_for(args)
    out = Path(args.out)
    out.write_text(json.dumps(instance_to_json(inst), sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")
    try:
        g = inst.materialize()
        edges_path = out.with_suffix(".edges")
        edges_path.write_text(dump_edge_list(g))
        print(f"wrote {edges_path} (n={g.n}, m={g.m})")
    except MaterializationCapExceeded as exc:
        print(f"edge list skipped: {exc}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    from .verify import VerifyBudgetExceeded, verify_instance

    obj = json.loads(Path(args.instance).read_text())
    inst = instance_from_json(obj)
    edges = Path(args.edges).read_text() if args.edges else None
    try:
        reports = verify_instance(inst, edges)
    except (MaterializationCapExceeded, VerifyBudgetExceeded) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    lines = [json.dumps(r.to_json(), sort_keys=True) for r in reports]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAIL {r.quantity}: value {r.value}, claim {r.claim}", file=sys.stderr)
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    fam = family(args.kind, **_kind_flags(args))
    d = distinguisher_by_name(args.distinguisher)
    check_trials(fam, d, args.budget, args.trials)  # before the file is opened
    writer = None
    handle = None
    if args.transcripts:
        handle = open(args.transcripts, "w", newline="")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRANSCRIPT_CSV_HEADER)

    def on_trial(trial, output, truth, transcript, view):
        if writer is not None:
            writer.writerows(transcript.csv_rows(trial))

    try:
        row = run_distinguisher_trials(
            fam, d, args.budget, args.trials, args.seed, on_trial=on_trial
        )
    finally:
        if handle is not None:
            handle.close()
    print(
        f"kind={row.kind} N={row.n_bits} budget={row.budget} trials={row.trials} "
        f"success={row.success:.4f} mean_bits={row.mean_bits:.2f} "
        f"max_bits_per_query={row.max_bits_per_query}"
    )
    return 0


def cmd_sweep(args) -> int:
    d = distinguisher_by_name(args.distinguisher)
    grid = [int(tok) for tok in args.grid.split(",") if tok]
    cls = EMBEDDING_CLASSES[args.kind]
    if cls.swept is None:
        raise ConfigError(f"sweep does not support kind {args.kind!r}")
    flags = _kind_flags(args)
    if cls.swept in flags:
        raise ConfigError(f"sweep sets {flag_name(cls.swept)} from --grid; do not give it")
    cls.check_flags([*flags, cls.swept])

    def family_for(n_bits: int):
        return family(args.kind, **{**flags, cls.swept: cls.swept_value(n_bits, flags)})

    affinity = getattr(os, "sched_getaffinity", None)
    workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    rows = threshold_sweep(family_for, grid, d, args.seed, args.trials, workers)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SWEEP_CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_tuple())
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process.  It names the command; ``main``
    looks up ``cmd_<name>`` at call time, so a wrapper installed on a
    command function after the parser was built still runs."""
    parser = argparse.ArgumentParser(
        prog="commgraph",
        description="Gap-instance constructions over two-party inputs: "
        "generate, verify, simulate, sweep.",
        epilog=PARAM_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance JSON (+ edge list)",
                           epilog=PARAM_SCHEMA,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_kind_params(p_gen)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", default="instance.json")
    p_gen.add_argument("--side", default="coin",
                       choices=["coin", "disjoint", "intersecting"])

    p_verify = sub.add_parser("verify", help="run the gap-claim verifier suite")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--edges", help="edge-list file to check against the instance")
    p_verify.add_argument("--out", help="report JSONL path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="run distinguisher trials with transcripts",
                           epilog=PARAM_SCHEMA,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_kind_params(p_sim)
    p_sim.add_argument("--distinguisher", required=True)
    p_sim.add_argument("--budget", type=int, required=True)
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--transcripts", help="transcript CSV path")

    p_sweep = sub.add_parser("sweep", help="threshold sweep over instance sizes",
                             epilog=PARAM_SCHEMA,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_kind_params(p_sweep)
    p_sweep.add_argument("--distinguisher", required=True)
    p_sweep.add_argument("--grid", required=True, help="comma-separated N values")
    p_sweep.add_argument("--trials", type=int, default=400)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--out", default="sweep.csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 <= getattr(args, "seed", 0) < 1 << 64:
            raise ConfigError(f"seed must be in [0, 2^64), got {args.seed}")
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
