"""The trace contract as ``perfbench/worker.py`` meets it: the worker builds
the CLI parser and parses the first op before it installs the tracer, so a
parser kept across ``main`` calls would still dispatch to the unwrapped
command functions and the ``cli.*`` boundaries would record no calls.

Each workload's small ops (those of ``test_perfbench_contract``) run in one
traced worker, and every boundary the workload expects must record calls.
It only reads ``perfbench/``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from test_perfbench_contract import ROOT, WORKLOADS, _small_ops


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_worker_records_every_expected_boundary(tmp_path, workload):
    spec = {"root": str(ROOT), "mode": "ops", "ops": [[argv] for argv in _small_ops(tmp_path)[workload]],
            "trace": True, "seed": 1, "run_id": workload,
            "result": str(tmp_path / "result.json"), "spans": str(tmp_path / "spans.jsonl")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert all(op["ok"] for op in result["ops"]), proc.stderr[-2000:]
    calls = result["trace"]["calls"]
    silent = [name for name in WORKLOADS[workload]["expect_calls"] if not calls.get(name)]
    assert not silent, f"{workload}: expected boundaries recorded no calls: {silent}"
