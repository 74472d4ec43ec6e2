"""Memory of the graph checks that every ``verify`` runs, measured with
tracemalloc on the largest certify graphs (degree-only n=6000, k=30 and
moments-hiding m_tilde=40000, blocks=64, both intersecting).

``validate_graph`` on a valid graph caches nothing on it and holds only
transient lists of O(n + m) entries, no per-vertex set; ``dump_edge_list``
holds its lines and the text, with no table of vertex names.
"""

import tracemalloc
from functools import cache

import pytest

from commgraph.graph import ExplicitGraph, dump_edge_list, validate_graph

from helpers import instance_on_side

MAX_KEPT = 64 * 1024  # bytes still held after validate_graph returns
MAX_VALIDATE_PEAK = 4 * 2**20
MAX_DUMP_PEAK = 6 * 2**20

CERTIFY_GRAPHS = {
    "degree-only": dict(n=6000, k=30),
    "moments-hiding": dict(s=2, alpha=4, c=1, m_tilde=40000, blocks=64),
}


@cache
def certify_graph(kind: str) -> ExplicitGraph:
    return instance_on_side(kind, True, **CERTIFY_GRAPHS[kind]).materialize()


def traced(fn, g: ExplicitGraph):
    """fn(g), and the bytes it left allocated and its peak, both counted
    from the moment of the call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(g)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, end - start, peak - start


@pytest.mark.parametrize("kind", sorted(CERTIFY_GRAPHS))
def test_validate_keeps_nothing_and_peaks_low(kind):
    findings, kept, peak = traced(validate_graph, certify_graph(kind))
    assert findings == []
    assert kept <= MAX_KEPT, kept
    assert peak <= MAX_VALIDATE_PEAK, peak


def test_dump_holds_no_name_table():
    g = certify_graph("moments-hiding")
    text, _, peak = traced(dump_edge_list, g)
    assert text.count("\n") == g.n + 1
    assert peak <= MAX_DUMP_PEAK, peak
