"""The benchmark's trace contract: every boundary a perfbench workload
expects to record calls (``expect_calls`` in ``perfbench/workloads.json``)
is still reached.

A traced benchmark run fails when an expected boundary records no calls,
so a change that renames, bypasses or stops calling one of them breaks the
benchmark.  This test catches that in tier-1: a subprocess installs
``perfbench/spans.Tracer`` and runs a small version of each workload (a
sweep, a simulate, and gen plus verify --edges of both promise sides of
every kind), counting the calls each workload's ops record.  It only reads
``perfbench/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from helpers import SMALL_KIND_FLAGS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]

RUNNER = """
import json, sys
root, ops_path, out_path = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import spans
from commgraph.cli import main

tracer = spans.Tracer("contract")
tracer.install()
recorded = {}
for workload, argvs in json.loads(open(ops_path).read()).items():
    before = dict(tracer.calls)
    for argv in argvs:
        if main(argv) != 0:
            raise SystemExit(f"{workload}: exit code not 0 for {argv}")
    recorded[workload] = {name: count - before.get(name, 0)
                          for name, count in tracer.calls.items()}
open(out_path, "w").write(json.dumps(recorded))
"""


def _override(argv: list, values: dict) -> list:
    argv = list(argv)
    for flag, value in values.items():
        argv[argv.index(flag) + 1] = value
    return argv


def _small_ops(d: Path) -> dict:
    sweep = _override(WORKLOADS["sweep"]["argv"], {"--grid": "16,32", "--trials": "40"})
    simulate = _override(WORKLOADS["lazy-scale"]["argv"],
                         {"--l": "4", "--n": "40", "--trials": "5"})
    certify = []
    for kind in WORKLOADS["certify"]["kinds"]:
        for side in ("intersecting", "disjoint"):
            stem = d / f"{kind}-{side}"
            certify += [
                ["gen", "--kind", kind, *SMALL_KIND_FLAGS[kind], "--seed", "1",
                 "--side", side, "--out", f"{stem}.json"],
                ["verify", "--instance", f"{stem}.json", "--edges", f"{stem}.edges",
                 "--out", f"{stem}.jsonl"],
            ]
    return {
        "sweep": [sweep + ["--seed", "1", "--out", str(d / "sweep.csv")]],
        "lazy-scale": [simulate + ["--seed", "1",
                                   "--transcripts", str(d / "transcripts.csv")]],
        "certify": certify,
    }


def test_every_expected_boundary_records_calls(tmp_path):
    assert set(WORKLOADS) == {"sweep", "lazy-scale", "certify"}
    ops_path, out_path = tmp_path / "ops.json", tmp_path / "calls.json"
    ops_path.write_text(json.dumps(_small_ops(tmp_path)))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(ROOT), str(ops_path), str(out_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    recorded = json.loads(out_path.read_text())
    for workload, spec in WORKLOADS.items():
        silent = [name for name in spec["expect_calls"] if not recorded[workload].get(name)]
        assert not silent, f"{workload}: expected boundaries recorded no calls: {silent}"
