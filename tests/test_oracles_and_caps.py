import gc
import itertools
import json
from types import ModuleType

import pytest

from commgraph.bits import BitVec
import commgraph.cli
from commgraph.cli import main
from commgraph.embeddings import ALL_KINDS, Embedding, MaterializationCapExceeded
from commgraph.experiments import Distinguisher, PublicView, reference_distinguishers
from commgraph.promises import PromisePair
from commgraph.protocols import ProtocolSession

from helpers import SMALL_KIND_FLAGS, random_instance


def _reachable(root) -> list:
    """Every object reachable from root by reference, not descending into
    classes, modules or callables (a callable found is reported as is)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        if not callable(obj):
            stack.extend(gc.get_referents(obj))
    return found


def test_public_view_hides_inputs():
    for kind, seed in itertools.product(ALL_KINDS, range(4)):
        inst = random_instance(kind, seed)
        view = PublicView.of(inst)
        blob = json.dumps(view.params)
        assert not hasattr(view, "pp")
        assert "\"x\"" not in blob and "\"y\"" not in blob
        leaks = [
            obj for obj in _reachable(view)
            if isinstance(obj, (Embedding, PromisePair, BitVec)) or callable(obj)
        ]
        assert leaks == [], (kind, seed)


def test_a_distinguisher_receives_nothing_that_reaches_the_inputs(monkeypatch, capsys):
    # everything a distinguisher gets: its view, its rng and each answer
    received = []

    def spying(d):
        def run(view, rng):
            received.extend((view, rng))
            queries = d.run(view, rng)
            try:
                query = next(queries)
                while True:
                    answer = yield query
                    received.append(answer)
                    query = queries.send(answer)
            except StopIteration as done:
                return done.value

        return Distinguisher(d.name, d.reads, run)

    spies = {d.name: spying(d) for d in reference_distinguishers()}
    monkeypatch.setattr(commgraph.cli, "distinguisher_by_name", spies.__getitem__)
    for d in spies.values():
        for kind in sorted(d.supports):
            assert main(["simulate", "--kind", kind, *SMALL_KIND_FLAGS[kind],
                         "--distinguisher", d.name, "--budget", "6", "--trials", "4",
                         "--seed", "5"]) == 0, capsys.readouterr().err
    assert sum(isinstance(obj, tuple) for obj in received) > 9 * 4
    forbidden = (Embedding, PromisePair, BitVec, ProtocolSession)
    leaks = [obj for root in received for obj in _reachable(root) if isinstance(obj, forbidden)]
    assert leaks == []


def test_distinguishers_support_the_kinds_declaring_their_witness():
    supports = {d.name: d.supports for d in reference_distinguishers()}
    assert supports == {
        "pair-probe": {"clique-hiding", "moments-hiding"},
        "degree-scan": {"degree-only", "clique-hiding", "moments-hiding", "moments-block"},
        "edge-sample-tester": {"triangle", "r-clique", "connectivity"},
    }


def test_simulate_refuses_a_kind_without_the_witness(capsys):
    code = main([
        "simulate", "--kind", "triangle", "--l", "4", "--k", "2",
        "--distinguisher", "pair-probe", "--budget", "8", "--trials", "4", "--seed", "1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "pair-probe" in err and "triangle" in err, err


def test_materialization_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("COMMGRAPH_MAX_VERTICES", "10")
    inst = random_instance("connectivity", 0)
    assert inst.n > 10
    with pytest.raises(MaterializationCapExceeded):
        inst.materialize()


def test_cli_gen_skips_edges_above_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMMGRAPH_MAX_VERTICES", "10")
    out = tmp_path / "big.json"
    code = main([
        "gen", "--kind", "triangle", "--l", "4", "--k", "2", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0  # the JSON is still written; the edge list is refused
    assert out.exists()
    assert not (tmp_path / "big.edges").exists()
    assert "skipped" in capsys.readouterr().err


def test_cli_verify_refuses_above_cap(tmp_path, monkeypatch):
    out = tmp_path / "x.json"
    assert main([
        "gen", "--kind", "triangle", "--l", "4", "--k", "2", "--seed", "7",
        "--out", str(out),
    ]) == 0
    monkeypatch.setenv("COMMGRAPH_MAX_VERTICES", "10")
    assert main(["verify", "--instance", str(out)]) == 2
