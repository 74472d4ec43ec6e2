"""Each construction's declared witnesses, checked exhaustively on small
materialized instances of both promise sides.

Sound: no declared witness pair, probe-degree deviation or witness edge
occurs on a disjoint instance.  Complete: every edge that occurs only on
intersecting instances satisfies the witness-edge rule, and block j's
pair and probe vertex show a witness exactly when coordinate j is
shared.  The sizes are the golden-output ``KIND_FLAGS``; the promise
seeds are fixed.
"""

from __future__ import annotations

import pytest

from commgraph.embeddings import ALL_KINDS, EMBEDDING_CLASSES
from commgraph.presets import family
from commgraph.promises import gen_promise_instance

from test_golden_outputs import KIND_FLAGS

PER_SIDE = 3


def _instances(kind: str):
    """(disjoint, intersecting) lists of PER_SIDE instances each, from the
    first promise seeds that give them."""
    argv = KIND_FLAGS[kind]
    flags = {name[2:].replace("-", "_"): int(value) for name, value in zip(argv[::2], argv[1::2])}
    fam = family(kind, **flags)
    sides = ([], [])
    seed = 0
    while min(map(len, sides)) < PER_SIDE:
        pp = gen_promise_instance(fam.n_bits, fam.promise, seed)
        seed += 1
        side = sides[pp.intersecting]
        if len(side) < PER_SIDE:
            side.append(fam.build(pp))
    return sides


def _shared(inst) -> set:
    pp = inst.pp
    return {j for j in range(pp.n_bits) if pp.x[j] & pp.y[j]}


def _edges(g) -> set:
    return {(u, v) for u in range(g.n) for v in g.adj[u] if u < v}


def _is_witness_edge(inst, u: int, v: int) -> bool:
    return any(a <= u < b and c <= v < d for a, b, c, d in inst.witness_edges)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_block_witnesses_show_exactly_the_shared_blocks(kind):
    disjoint, intersecting = _instances(kind)
    for inst in disjoint + intersecting:
        g, shared = inst.materialize(), _shared(inst)
        blocks = range(inst.params_json()["blocks"])
        if inst.witness_pair is not None:
            stride, offset = inst.witness_pair
            hits = {j for j in blocks if g.has_edge(j * stride, j * stride + offset)}
            assert hits == shared, (inst, hits)
        if inst.probe_vertex is not None:
            stride, offset, baseline = inst.probe_vertex
            hits = {j for j in blocks if g.degree(offset + j * stride) != baseline}
            assert hits == shared, (inst, hits)


@pytest.mark.parametrize(
    "kind", [k for k in ALL_KINDS if EMBEDDING_CLASSES[k].witness_edges is not None]
)
def test_witness_edges_are_sound_and_complete(kind):
    disjoint, intersecting = _instances(kind)
    seen_disjoint = set()
    for inst in disjoint:
        edges = _edges(inst.materialize())
        assert not [e for e in edges if _is_witness_edge(inst, *e)], inst  # sound
        seen_disjoint |= edges
    for inst in intersecting:
        only_here = _edges(inst.materialize()) - seen_disjoint
        assert only_here, inst
        missed = sorted(e for e in only_here if not _is_witness_edge(inst, *e))
        assert missed == [], (inst, missed)  # complete
