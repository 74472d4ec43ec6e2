import csv
import json
from pathlib import Path

import pytest

from commgraph.cli import main
from commgraph.graph import load_edge_list

from helpers import SMALL_KIND_FLAGS


def run(args):
    return main(args)


def test_gen_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = ["gen", "--kind", "triangle", "--l", "4", "--k", "2", "--seed", "7"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.edges").read_bytes() == (tmp_path / "b.edges").read_bytes()


def test_gen_triangle_intersecting_m64(tmp_path):
    out = tmp_path / "t.json"
    assert run([
        "gen", "--kind", "triangle", "--l", "4", "--k", "2", "--seed", "7",
        "--side", "intersecting", "--out", str(out),
    ]) == 0
    g = load_edge_list((tmp_path / "t.edges").read_text())
    assert g.m == 64
    blob = json.loads(out.read_text())
    assert blob["kind"] == "triangle"
    assert blob["params"]["l"] == 4


def test_gen_degree_only(tmp_path):
    out = tmp_path / "d.json"
    assert run([
        "gen", "--kind", "degree-only", "--n", "12", "--k", "2", "--seed", "1",
        "--out", str(out),
    ]) == 0
    g = load_edge_list((tmp_path / "d.edges").read_text())
    assert g.m in (8, 16)


def test_gen_missing_params_is_config_error(tmp_path):
    assert run(["gen", "--kind", "triangle", "--seed", "1",
                "--out", str(tmp_path / "x.json")]) == 2


# One flag per kind that its construction does not declare.
STRAY_FLAGS = {
    "clique-hiding": ["--k", "2"],
    "triangle": ["--s-clique-budget", "4"],
    "r-clique": ["--s-size", "2"],
    "connectivity": ["--promise", "disjoint"],
    "degree-only": ["--augment-connect"],
    "moments-hiding": ["--n-side", "4"],
    "moments-block": ["--blocks", "3"],
}


@pytest.mark.parametrize("kind", sorted(STRAY_FLAGS))
def test_a_flag_the_kind_ignores_is_refused(tmp_path, capsys, kind):
    out = tmp_path / "x.json"
    assert run(["gen", "--kind", kind, *SMALL_KIND_FLAGS[kind], *STRAY_FLAGS[kind],
                "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: kind {kind} does not take {STRAY_FLAGS[kind][0]}\n"
    assert not out.exists()


def test_verify_pass_and_exit_codes(tmp_path):
    out = tmp_path / "c.json"
    assert run([
        "gen", "--kind", "connectivity", "--k", "2", "--l", "4", "--n", "20",
        "--seed", "3", "--side", "intersecting", "--out", str(out),
    ]) == 0
    report = tmp_path / "report.jsonl"
    assert run(["verify", "--instance", str(out), "--out", str(report)]) == 0
    lines = [json.loads(line) for line in report.read_text().splitlines()]
    assert lines and all(line["pass"] for line in lines)
    assert any(line["quantity"] == "min_cut" for line in lines)


def test_verify_corrupted_edge_list_fails(tmp_path):
    out = tmp_path / "t.json"
    run([
        "gen", "--kind", "triangle", "--l", "3", "--k", "1", "--seed", "5",
        "--side", "intersecting", "--out", str(out),
    ])
    edges_path = tmp_path / "t.edges"
    g = load_edge_list(edges_path.read_text())
    u, v = g.edges()[0]
    adj = [list(row) for row in g.adj]
    adj[u].remove(v)
    adj[v].remove(u)
    from commgraph.graph import ExplicitGraph, dump_edge_list

    edges_path.write_text(dump_edge_list(ExplicitGraph(g.n, adj)))
    code = run([
        "verify", "--instance", str(out), "--edges", str(edges_path),
        "--out", str(tmp_path / "r.jsonl"),
    ])
    assert code == 1
    lines = [json.loads(line) for line in (tmp_path / "r.jsonl").read_text().splitlines()]
    assert any(not line["pass"] for line in lines)


@pytest.mark.parametrize("kind_args", [
    ["--kind", "triangle", "--l", "4", "--k", "2"],
    ["--kind", "connectivity", "--k", "2", "--l", "4", "--n", "20"],
    ["--kind", "moments-block", "--s", "2", "--alpha", "4", "--c", "4",
     "--m-tilde", "257", "--n-side", "16"],
], ids=["triangle", "connectivity", "moments-block"])
def test_verify_out_of_range_neighbour_fails_cleanly(tmp_path, capsys, kind_args):
    # an edge file naming a vertex past n fails valid_graph; the kernels,
    # which assume a simple symmetric graph, never see it
    out = tmp_path / "g.json"
    assert run(["gen", *kind_args, "--seed", "1", "--side", "intersecting",
                "--out", str(out)]) == 0
    edges_path = tmp_path / "g.edges"
    lines = edges_path.read_text().splitlines()
    lines[1] += " 99999"
    edges_path.write_text("\n".join(lines) + "\n")
    report = tmp_path / "r.jsonl"
    capsys.readouterr()
    assert run(["verify", "--instance", str(out), "--edges", str(edges_path),
                "--out", str(report)]) == 1
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert [(r["quantity"], r["pass"]) for r in rows] == [
        ("edge_list_match", False), ("valid_graph", False),
    ]
    assert "FAIL valid_graph: value 1, claim no invariant findings\n" in capsys.readouterr().err


def test_simulate_summary_and_transcripts(tmp_path, capsys):
    transcripts = tmp_path / "t.csv"
    code = run([
        "simulate", "--kind", "clique-hiding", "--l", "2", "--blocks", "32",
        "--distinguisher", "pair-probe", "--budget", "320", "--trials", "40",
        "--seed", "1", "--transcripts", str(transcripts),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "success=" in printed
    assert float(printed.split("success=")[1].split()[0]) >= 0.95
    with open(transcripts) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "query_index", "query_kind", "bits", "cumulative_bits"]
    assert all(int(r[3]) <= 2 for r in rows[1:])


def test_simulate_unsupported_distinguisher_errors(tmp_path):
    code = run([
        "simulate", "--kind", "degree-only", "--n", "12", "--k", "2",
        "--distinguisher", "pair-probe", "--budget", "5", "--trials", "5",
        "--seed", "1",
    ])
    assert code == 2


def test_sweep_deterministic_and_monotone(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    base = [
        "sweep", "--kind", "clique-hiding", "--l", "2",
        "--distinguisher", "pair-probe", "--grid", "8,16,32",
        "--trials", "120", "--seed", "21",
    ]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    budgets = [int(r["T"]) for r in rows]
    assert budgets == sorted(budgets)
    assert all(int(r["max_bits_per_query"]) <= 2 for r in rows)


def test_sweep_empty_grid(tmp_path):
    out = tmp_path / "empty.csv"
    assert run([
        "sweep", "--kind", "clique-hiding", "--l", "2",
        "--distinguisher", "pair-probe", "--grid", "",
        "--seed", "1", "--out", str(out),
    ]) == 0
    assert out.read_text() == "kind,N,T,trials,success,mean_bits,max_bits_per_query\n"


def test_sweep_skips_non_square_grid_for_triangle(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run([
        "sweep", "--kind", "triangle", "--k", "1",
        "--distinguisher", "edge-sample-tester", "--grid", "10",
        "--trials", "50", "--seed", "2", "--out", str(out),
    ]) == 0
    assert "not a perfect square" in capsys.readouterr().err


@pytest.mark.parametrize("kind_args, message", [
    (["--kind", "triangle", "--distinguisher", "edge-sample-tester"],
     "kind triangle requires --k"),
    (["--kind", "clique-hiding", "--distinguisher", "pair-probe"],
     "kind clique-hiding requires --l"),
    (["--kind", "moments-block", "--s", "2", "--alpha", "4", "--c", "4",
      "--m-tilde", "257", "--n-side", "16", "--distinguisher", "degree-scan"],
     "sweep does not support kind 'moments-block'"),
    (["--kind", "clique-hiding", "--l", "2", "--blocks", "5", "--distinguisher", "pair-probe"],
     "sweep sets --blocks from --grid; do not give it"),
])
def test_sweep_config_error_exits_before_the_grid(tmp_path, capsys, kind_args, message):
    out = tmp_path / "s.csv"
    assert run(["sweep", *kind_args, "--grid", "16,25", "--seed", "1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_verify_budget_refusal_exits_2(tmp_path, capsys, monkeypatch):
    import commgraph.verify
    from commgraph.verify import VerifyBudgetExceeded

    out = tmp_path / "t.json"
    assert run(["gen", "--kind", "triangle", "--l", "3", "--k", "1", "--seed", "5",
                "--out", str(out)]) == 0

    def refuse(inst, g=None):
        raise VerifyBudgetExceeded("exact subset enumeration refused for n=99 > 24")

    monkeypatch.setattr(commgraph.verify, "verify_instance", refuse)
    capsys.readouterr()
    assert run(["verify", "--instance", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "refused: exact subset enumeration refused for n=99 > 24\n"
    assert captured.out == ""


def test_sweep_honours_s_clique_budget(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run([
        "sweep", "--kind", "r-clique", "--r", "4", "--k", "1", "--s-clique-budget", "5",
        "--distinguisher", "edge-sample-tester", "--grid", "4",
        "--trials", "20", "--seed", "1", "--out", str(out),
    ]) == 0
    assert "skipping N=4: sparse-S budget 5 infeasible for l=2, r=4" in capsys.readouterr().err
    assert out.read_text() == "kind,N,T,trials,success,mean_bits,max_bits_per_query\n"


@pytest.mark.parametrize("command", [
    ["simulate", "--budget", "3", "--l", "3"],
    ["sweep", "--grid", "9"],
])
def test_zero_trials_is_a_config_error(tmp_path, capsys, command):
    assert run([
        *command, "--kind", "triangle", "--k", "1",
        "--distinguisher", "edge-sample-tester", "--trials", "0", "--seed", "1",
        "--out" if command[0] == "sweep" else "--transcripts", str(tmp_path / "out.csv"),
    ]) == 2
    assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"


def test_negative_budget_is_a_config_error(capsys):
    assert run([
        "simulate", "--kind", "triangle", "--l", "3", "--k", "1",
        "--distinguisher", "edge-sample-tester", "--budget", "-4", "--trials", "5",
        "--seed", "1",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be >= 0, got -4\n"


def test_huge_moment_parameters_are_a_config_error(tmp_path, capsys):
    # d = floor(sqrt(m_tilde / n_side)) far exceeds n_side; finding it must
    # not go through floats, which overflow at 10^320
    assert run([
        "gen", "--kind", "moments-block", "--s", "2", "--alpha", str(10**200),
        "--c", "1", "--m-tilde", str(10**320), "--n-side", "4", "--seed", "1",
        "--out", str(tmp_path / "x.json"),
    ]) == 2
    assert capsys.readouterr().err.startswith("error: derived degree d = ")


@pytest.mark.parametrize("case", ["instance", "edges", "gen-out", "transcripts"])
def test_unreadable_or_unwritable_file_is_an_error(tmp_path, capsys, case):
    # exit 1 means a failed verification; a missing file is exit 2, no traceback
    out = tmp_path / "t.json"
    assert run(["gen", "--kind", "triangle", "--l", "3", "--k", "1", "--seed", "5",
                "--out", str(out)]) == 0
    missing = tmp_path / "nodir" / "x"
    argv = {
        "instance": ["verify", "--instance", str(missing)],
        "edges": ["verify", "--instance", str(out), "--edges", str(missing)],
        "gen-out": ["gen", "--kind", "triangle", "--l", "3", "--k", "1", "--seed", "5",
                    "--out", str(missing)],
        "transcripts": ["simulate", "--kind", "triangle", "--l", "3", "--k", "1",
                        "--distinguisher", "edge-sample-tester", "--budget", "3",
                        "--trials", "2", "--seed", "1", "--transcripts", str(missing)],
    }[case]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory: ")
    assert str(missing) in err and "Traceback" not in err


def test_intersecting_side_of_a_disjoint_promise_is_refused_before_drawing(
    tmp_path, capsys, monkeypatch
):
    import commgraph.cli

    draws = []
    real = commgraph.cli.gen_promise_instance
    monkeypatch.setattr(commgraph.cli, "gen_promise_instance",
                        lambda *a: draws.append(a) or real(*a))
    out = tmp_path / "d.json"
    assert run(["gen", "--kind", "degree-only", "--n", "12", "--k", "2",
                "--promise", "disjoint", "--side", "intersecting", "--seed", "1",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot draw a intersecting instance for this promise\n"
    )
    assert draws == []
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["gen", "--out", "x.json"],
    ["simulate", "--distinguisher", "degree-scan", "--budget", "8", "--trials", "4"],
])
def test_one_vertex_clique_hiding_blocks_are_a_config_error(tmp_path, capsys, monkeypatch,
                                                            command):
    # a block of one vertex never holds an edge, so both sides give one graph
    monkeypatch.chdir(tmp_path)
    assert run([*command, "--kind", "clique-hiding", "--l", "1", "--blocks", "4",
                "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: block size l must be >= 2\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,error", [
    (["--distinguisher", "pair-probe", "--budget", "8", "--trials", "4"],
     "pair-probe does not support triangle"),
    (["--distinguisher", "edge-sample-tester", "--budget", "-1", "--trials", "4"],
     "budget must be >= 0, got -1"),
    (["--distinguisher", "edge-sample-tester", "--budget", "8", "--trials", "0"],
     "trials must be >= 1, got 0"),
])
def test_refused_simulate_leaves_the_transcript_file_alone(tmp_path, capsys, flags, error):
    created, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_text("earlier run\n")
    for path in (created, kept):
        assert run(["simulate", "--kind", "triangle", "--l", "4", "--k", "2", *flags,
                    "--seed", "1", "--transcripts", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
    assert not created.exists()
    assert kept.read_text() == "earlier run\n"


SEED_COMMANDS = {
    "gen": ["gen", "--kind", "triangle", "--l", "3", "--k", "1", "--out", "x.json"],
    "simulate": ["simulate", "--kind", "triangle", "--l", "3", "--k", "1",
                 "--distinguisher", "edge-sample-tester", "--budget", "3", "--trials", "2"],
    "sweep": ["sweep", "--kind", "triangle", "--k", "1", "--grid", "9",
              "--distinguisher", "edge-sample-tester", "--trials", "5", "--out", "s.csv"],
}


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
@pytest.mark.parametrize("seed", [str(2**64), "-1", str(2**64 + 1)])
def test_seed_outside_64_bits_is_a_config_error(tmp_path, capsys, monkeypatch, command, seed):
    monkeypatch.chdir(tmp_path)
    assert run([*SEED_COMMANDS[command], "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be in [0, 2^64), got {seed}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_largest_64_bit_seed_is_accepted(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert run([*SEED_COMMANDS[command], "--seed", str(2**64 - 1)]) == 0
    assert capsys.readouterr().out != ""
