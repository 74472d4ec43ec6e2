import random
from functools import partial

import pytest

from commgraph.embeddings import (
    CliqueHidingParams,
    DegreeOnlyParams,
    TriangleParams,
    CliqueHidingEmbedding as build_clique_hiding,
    DegreeOnlyEmbedding as build_degree_only,
    TriangleEmbedding as build_triangle,
)
from commgraph.families import path_graph
from commgraph.graph import Degree, Neighbor, Pair, RandomEdge
from commgraph.promises import (
    KIntersectOrDisjoint,
    PromisePair,
    UniqueIntersection,
    disj,
    gen_promise_instance,
    inter_k,
)
from commgraph.protocols import (
    CapabilityViolation,
    ProtocolRun,
    ProtocolSession,
    TranscriptEntry,
    _GuardedBits,
    run_reduction,
)

from helpers import bits_from_string, random_instance


def triangle_instance(seed=0):
    pp = gen_promise_instance(16, KIntersectOrDisjoint(2), seed)
    return build_triangle(TriangleParams(l=4, k=2), pp)


def clique_instance():
    pp = PromisePair(
        bits_from_string("11"), bits_from_string("01"), UniqueIntersection()
    )
    return build_clique_hiding(
        CliqueHidingParams(base=path_graph(4), l=3, blocks=2), pp
    )


def test_degree_query_is_free_on_triangle():
    inst = triangle_instance()
    sess = ProtocolSession(inst, seed=1)
    ans = sess.simulate(Degree(16))  # a witness-set vertex
    assert ans.d == 8  # 2l
    assert sess.transcript.entries[-1].bits == 0


def test_pair_in_block_costs_two_bits():
    inst = clique_instance()
    sess = ProtocolSession(inst, seed=1)
    ans = sess.simulate(Pair(3, 4))  # inside the active block
    assert ans.bit == 1
    assert sess.transcript.entries[-1].bits == 2
    # base-graph pair is free
    sess.simulate(Pair(6, 7))
    assert sess.transcript.entries[-1].bits == 0


def test_random_edge_costs_at_most_two_bits():
    inst = triangle_instance()
    sess = ProtocolSession(inst, seed=5)
    for _ in range(50):
        sess.simulate(RandomEdge())
    assert all(e.bits <= 2 for e in sess.transcript.entries)
    assert any(e.bits == 0 for e in sess.transcript.entries)  # witness-set hits


def test_transcript_agrees_with_the_queries_and_exchanged_coordinates():
    inst = triangle_instance(seed=5)
    sess = ProtocolSession(inst, seed=9)
    exchange = sess.exchange
    coords = set()

    def counting_exchange(coord):
        coords.add(coord)
        return exchange(coord)

    sess.exchange = counting_exchange
    names = {Degree: "degree", Neighbor: "neighbor", Pair: "pair", RandomEdge: "random_edge"}
    rng = random.Random(4)
    kinds, costs = [], []
    for _ in range(80):
        u, v = rng.randrange(inst.n), rng.randrange(inst.n)
        q = rng.choice([Degree(u), Neighbor(u, rng.randrange(1, inst.n)), Pair(u, v),
                        RandomEdge()])
        coords.clear()
        sess.simulate(q)
        kinds.append(names[type(q)])
        costs.append(2 * len(coords))
    assert set(kinds) == set(names.values())
    assert set(costs) == {0, 2}
    t = sess.transcript
    assert t.entries == [TranscriptEntry(k, b) for k, b in zip(kinds, costs)]
    assert t.csv_rows(7) == [
        (7, idx, k, b, sum(costs[: idx + 1])) for idx, (k, b) in enumerate(zip(kinds, costs))
    ]
    assert t.total_bits == sum(costs)
    assert t.query_count == len(kinds)
    assert t.max_bits_per_query == max(costs)


def test_transcript_totals():
    inst = clique_instance()

    def five_pair_probes(rng):
        for _ in range(5):
            yield Pair(0, 1)  # in-block pair: input-dependent
        return 0

    _, transcript = run_reduction(ProtocolRun(inst, five_pair_probes, seed=3))
    assert transcript.total_bits == 10
    assert transcript.query_count == 5


def test_degree_queries_free_for_triangle_reduction():
    inst = triangle_instance()

    def degree_sweep(rng):
        for v in range(inst.n):
            yield Degree(v)
        return 0

    _, transcript = run_reduction(ProtocolRun(inst, degree_sweep, seed=3))
    assert transcript.total_bits == 0


def test_simulation_matches_lazy_answers():
    for seed in range(10):
        inst = triangle_instance(seed)
        sess = ProtocolSession(inst, seed=99)
        rng = random.Random(seed)
        for _ in range(60):
            q = random.Random(rng.random()).choice(
                [
                    Degree(rng.randrange(inst.n)),
                    Neighbor(rng.randrange(inst.n), rng.randrange(1, inst.n)),
                    Pair(rng.randrange(inst.n), rng.randrange(inst.n)),
                ]
            )
            assert sess.simulate(q) == inst.answer(q)


def test_capability_guard():
    inst = triangle_instance()
    sess = ProtocolSession(inst, seed=1)
    with pytest.raises(CapabilityViolation):
        sess.alice_input[0]
    with pytest.raises(CapabilityViolation):
        sess.bob_input[3]

    def rogue(rng):
        yield Degree(0)
        return sess.bob_input[0]

    with pytest.raises(CapabilityViolation):
        run_reduction(ProtocolRun(inst, rogue, seed=1))


def test_a_guarded_read_checks_owner_and_index_after_the_first_read():
    bits = bits_from_string("10110")
    active = ["alice"]
    guarded = _GuardedBits(bits, "alice", active)
    assert [guarded[i] for i in range(5)] == list(bits)
    for i in (-1, 5):
        with pytest.raises(IndexError, match="out of range"):
            guarded[i]
    active[0] = "bob"
    with pytest.raises(CapabilityViolation):
        guarded[0]


def test_fuzz_bits_bounded_all_kinds():
    # every B = 2 construction: random query sequences cost at most 2 bits per
    # query, and degree-only costs at most 2 on its degree queries
    kinds = [
        "clique-hiding",
        "triangle",
        "r-clique",
        "connectivity",
        "moments-hiding",
        "moments-block",
        "degree-only",
    ]
    rng = random.Random(2024)
    for kind in kinds:
        for trial in range(30):
            inst = random_instance(kind, rng.getrandbits(64))
            sess = ProtocolSession(inst, seed=rng.getrandbits(64))
            for _ in range(8):
                v = rng.randrange(inst.n)
                if "neighbor" in inst.supported and rng.random() < 0.4 and inst.n > 1:
                    q = Neighbor(v, rng.randrange(1, inst.n))
                elif "pair" in inst.supported and rng.random() < 0.5:
                    q = Pair(v, rng.randrange(inst.n))
                elif "random_edge" in inst.supported and rng.random() < 0.3:
                    q = RandomEdge()
                else:
                    q = Degree(v)
                sess.simulate(q)
            assert sess.transcript.max_bits_per_query <= 2, (kind, inst)


def test_reduction_soundness():
    # an algorithm succeeding against gap_label is, with its transcript, a
    # protocol computing the communication function directly
    from commgraph.experiments import PublicView, distinguisher_by_name

    d = distinguisher_by_name("pair-probe")
    wins = 0
    trials = 300
    for t in range(trials):
        pp = gen_promise_instance(8, UniqueIntersection(), 5_000 + t)
        inst = build_clique_hiding(
            CliqueHidingParams(base=path_graph(2), l=2, blocks=8), pp
        )
        view = PublicView.of(inst)
        out, transcript = run_reduction(ProtocolRun(inst, partial(d.run, view), seed=t), budget=64)
        assert transcript.max_bits_per_query <= 2
        if out == disj(pp.x, pp.y):  # compared against f(x, y) directly
            wins += 1
    assert wins / trials >= 2 / 3


def test_transcript_csv_rows():
    inst = clique_instance()
    sess = ProtocolSession(inst, seed=1)
    sess.simulate(Degree(6))  # base-graph vertex: free
    sess.simulate(Degree(0))  # block vertex: 2 bits
    sess.simulate(Pair(3, 4))
    rows = sess.transcript.csv_rows(trial=7)
    assert rows == [
        (7, 0, "degree", 0, 0),
        (7, 1, "degree", 2, 2),
        (7, 2, "pair", 2, 4),
    ]
    assert rows[-1][4] == sess.transcript.total_bits


def endless_degree_probes(rng):
    """Never returns: only the driver's budget ends its run."""
    while True:
        yield Degree(rng.randrange(16))


def test_budget_cuts_an_endless_run_off_with_the_disjoint_label():
    inst = triangle_instance()
    for budget in (1, 3, 17):
        out, transcript = run_reduction(
            ProtocolRun(inst, endless_degree_probes, seed=1), budget=budget
        )
        assert out == inst.label_for(False)
        assert transcript.query_count == budget


def test_budget_zero_makes_no_query(monkeypatch):
    inst = triangle_instance()
    simulated = []
    real = ProtocolSession.simulate
    monkeypatch.setattr(ProtocolSession, "simulate",
                        lambda self, q: simulated.append(q) or real(self, q))
    out, transcript = run_reduction(ProtocolRun(inst, endless_degree_probes, seed=1), budget=0)
    assert out == inst.label_for(False)
    assert transcript.query_count == 0 and simulated == []


def test_a_run_that_returns_early_ends_there():
    inst = triangle_instance()
    seen = []

    def three_then_done(rng):
        for v in range(3):
            seen.append((yield Degree(v)))
        return 7

    for budget in (3, 4, 100, None):
        seen.clear()
        out, transcript = run_reduction(ProtocolRun(inst, three_then_done, seed=1), budget=budget)
        assert out == 7
        assert transcript.query_count == 3
        assert seen == [inst.answer(Degree(v)) for v in range(3)]
    out, transcript = run_reduction(ProtocolRun(inst, three_then_done, seed=1), budget=2)
    assert out == inst.label_for(False) and transcript.query_count == 2


def test_a_cut_off_run_resumes_where_it_stopped():
    inst = clique_instance()

    def pair_probes(seen):
        def run(rng):
            while True:
                seen.append((yield Pair(rng.randrange(inst.n), rng.randrange(inst.n))))

        return run

    resumed_seen, fresh_seen = [], []
    resumed = ProtocolRun(inst, pair_probes(resumed_seen), seed=4)
    for budget in (0, 1, 3, 3, 10):
        out, transcript = run_reduction(resumed, budget)
        assert out == inst.label_for(False) and transcript.query_count == budget
    _, replayed = run_reduction(ProtocolRun(inst, pair_probes(fresh_seen), seed=4), 10)
    assert transcript.entries == replayed.entries
    assert resumed_seen == fresh_seen
    with pytest.raises(ValueError, match="cannot cut it off at 9"):
        run_reduction(resumed, 9)


def test_a_returned_run_keeps_only_its_output_and_transcript():
    inst = triangle_instance()

    def three_then_done(rng):
        for v in range(3):
            yield Degree(v)
        return 7

    run = ProtocolRun(inst, three_then_done, seed=1)
    assert run_reduction(run, 2)[0] == inst.label_for(False)
    out, transcript = run_reduction(run, 5)
    assert (out, transcript.query_count) == (7, 3)
    assert run.session is run.generator is run.pending is None
    assert run_reduction(run, 8) == (7, transcript)
    assert run_reduction(run) == (7, transcript)
