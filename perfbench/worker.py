"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the checkout root, a list of ops (each a list of CLI argument
vectors passed to ``commgraph.cli.main``), whether to trace, and where to
write the result.  The worker imports commgraph from ``<root>/src``, parses
the first argument vector, and records that instant as the end of set-up.
It then runs the ops in order, timing each CLI call.  A call that raises or
returns a nonzero code fails its op; the remaining calls of that op are
skipped.  Mode ``setup`` stops after set-up; mode ``probe`` runs the
scaling probes instead of the ops.  Next to set-up and to the ops the worker
samples the host's speed with a fixed reference loop.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


SAMPLE_PERIOD_S = 0.1


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and big-int work,
    about 5 ms: the host's speed at this moment (see ``run.REFERENCE_S``)."""
    start = time.perf_counter()
    table = {}
    big = 1
    for i in range(20_000):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
        if i % 64 == 0:
            big = (big << 97) ^ i
    return time.perf_counter() - start


class HostSpeed:
    """Times ``reference_loop`` every SAMPLE_PERIOD_S while measured code runs.

    The SIGALRM handler runs on the measured code's own thread, between its
    bytecodes, so no thread or process is added; the caller subtracts the
    samples' time from its measurement."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(reference_loop())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_ops(cli, ops: list) -> list:
    results = []
    for op in ops:
        seconds = []
        ok = True
        for argv in op:
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = None
            seconds.append(time.perf_counter() - start)
            if rc != 0:
                print(f"op failed (rc={rc}): {' '.join(argv)}", file=sys.stderr)
                ok = False
                break
        results.append({"ok": ok, "seconds": seconds})
    return results


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = (Path(spec["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import commgraph.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"commgraph imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops = spec["ops"]
    if ops:
        cli.build_parser().parse_args(ops[0][0])
    result = {"ready": time.perf_counter(),
              "setup_reference": [reference_loop() for _ in range(8)]}
    if spec["mode"] == "setup":
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    import spans

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(spec["run_id"])
        tracer.install()
    else:
        wrapped = spans.wrapped_sites()
        if wrapped:
            print(f"untraced run has wrappers: {wrapped}", file=sys.stderr)
            return 2

    if spec["mode"] == "probe":
        import probes

        result["probes"] = probes.run_probes(spec["seed"])
    else:
        with HostSpeed() as speed:
            start = time.perf_counter()
            result["ops"] = run_ops(cli, ops)
            gross = time.perf_counter() - start
        result["wall"] = gross - sum(speed.samples)
        result["samples"] = speed.samples
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
