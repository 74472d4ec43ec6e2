"""A sweep's grid points run in forked helpers, one group per CPU, and
nothing a sweep writes depends on how many run at once.

``commgraph sweep`` takes its worker count from the CPUs the process may
run on, so these tests set that count through ``os.sched_getaffinity``.
A forked helper inherits the test's monkeypatches, which is how a failure
is placed inside one.  After every sweep no helper may be left unreaped.
"""

import os

import pytest

from commgraph import experiments
from commgraph.cli import main
from commgraph.experiments import _balanced_groups

# triangle's N must be a perfect square, so N=10 is skipped with a line
GRID = [9, 10, 16, 25]
SWEEP = ["sweep", "--kind", "triangle", "--k", "1", "--distinguisher", "edge-sample-tester",
         "--grid", ",".join(map(str, GRID)), "--trials", "60", "--seed", "4"]
SKIP = "skipping N=10: grid entry 10 is not a perfect square (N = l^2)\n"


def assert_no_helper_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sweep_on(cpus: int, tmp_path, capfd, monkeypatch):
    """(exit code, CSV bytes or None, stdout, stderr) of the sweep on ``cpus``
    CPUs, captured at the file descriptors, so a helper's output would show."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    out = tmp_path / f"sweep-{cpus}.csv"
    capfd.readouterr()
    code = main(SWEEP + ["--out", str(out)])
    captured = capfd.readouterr()
    assert_no_helper_left()
    csv_bytes = out.read_bytes() if out.exists() else None
    return code, csv_bytes, captured.out.replace(str(out), "OUT"), captured.err


def fail_at(n_bits: int, fail, monkeypatch):
    """Make the budget search at N=n_bits call ``fail``."""
    search = experiments.minimal_budget

    def failing(family, *args):
        if family.n_bits == n_bits:
            fail()
        return search(family, *args)

    monkeypatch.setattr(experiments, "minimal_budget", failing)


def test_outputs_do_not_depend_on_the_worker_count(tmp_path, capfd, monkeypatch):
    serial = sweep_on(1, tmp_path, capfd, monkeypatch)
    code, csv_bytes, _, err = serial
    assert code == 0 and err == SKIP
    assert csv_bytes.count(b"\n") == 4  # the header and three rows
    for cpus in (2, 3):
        assert sweep_on(cpus, tmp_path, capfd, monkeypatch) == serial, cpus


def test_a_helpers_error_reaches_the_caller_as_in_a_serial_run(tmp_path, capfd, monkeypatch):
    assert 2 not in _balanced_groups(GRID, 2)[0]  # N=16 runs in the helper

    def boom():
        raise ValueError("boom at N=16")

    fail_at(16, boom, monkeypatch)
    serial = sweep_on(1, tmp_path, capfd, monkeypatch)
    assert serial == (2, None, "", SKIP + "error: boom at N=16\n")
    assert sweep_on(2, tmp_path, capfd, monkeypatch) == serial


def test_a_helper_that_dies_is_reported_and_reaped(tmp_path, capfd, monkeypatch):
    fail_at(16, lambda: os._exit(3), monkeypatch)  # only ever in the helper
    code, csv_bytes, _, err = sweep_on(2, tmp_path, capfd, monkeypatch)
    assert (code, csv_bytes) == (2, None)
    assert err.startswith("error: sweep helper ") and err.endswith(" ended without a result\n")


def test_an_interrupted_caller_reaps_its_helpers(tmp_path, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    fail_at(25, interrupt, monkeypatch)  # the caller's own group
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(KeyboardInterrupt):
        main(SWEEP + ["--out", str(tmp_path / "s.csv")])
    assert_no_helper_left()


@pytest.mark.parametrize("cpus, forks", [(1, 0), (2, 1), (3, 2), (8, 3)])
def test_helpers_never_outnumber_cpus_or_grid_points(tmp_path, capfd, monkeypatch, cpus, forks):
    fork, forked = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    assert sweep_on(cpus, tmp_path, capfd, monkeypatch)[0] == 0
    assert len(forked) == forks


def test_groups_balance_n_and_the_caller_holds_the_largest():
    grid = [16, 32, 64, 128, 256]
    assert _balanced_groups(grid, 2) == [[4], [0, 1, 2, 3]]
    assert _balanced_groups(grid, 3) == [[4], [3], [0, 1, 2]]
    assert _balanced_groups([5, 7, 5], 3) == [[1], [0], [2]]
