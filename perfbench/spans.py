"""Outside-in span tracing of commgraph's layer boundaries.

The tracer replaces a fixed list of commgraph functions and methods with
wrappers that time each call.  A module-level function is replaced in every
loaded ``commgraph`` module that holds a reference to it (``from x import f``
copies the reference), so a call is traced whichever module makes it.

Each wrapped call is one span: name, start, end, parent span and run id.
Spans stay in memory (up to ``max_spans``; later ones are only aggregated)
and are written out as JSON lines when the run ends.  Per span name the
tracer keeps the call count and the self time, which is the span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

MARK = "__perfbench_traced__"

# (module, attribute, span name): module-level functions.
FUNCTIONS = [
    ("commgraph.promises", "gen_promise_instance", "promises.gen"),
    ("commgraph.graph", "sample_edge_by_degrees", "graph.sample_edge"),
    ("commgraph.graph", "validate_graph", "graph.validate"),
    ("commgraph.graph", "dump_edge_list", "graph.edge_list_io"),
    ("commgraph.graph", "load_edge_list", "graph.edge_list_io"),
    ("commgraph.protocols", "run_reduction", "experiments.trial"),
    ("commgraph.experiments", "run_distinguisher_trials", "experiments.trial_loop"),
    ("commgraph.experiments", "minimal_budget", "experiments.budget_search"),
    ("commgraph.verify", "verify_instance", "verify.suite"),
    ("commgraph.verify", "count_triangles", "verify.count_triangles"),
    ("commgraph.verify", "count_r_cliques", "verify.count_r_cliques"),
    ("commgraph.verify", "min_cut", "verify.min_cut"),
    ("commgraph.verify", "connected_components", "verify.connected_components"),
    ("commgraph.verify", "moment", "verify.moment"),
    ("commgraph.verify", "degeneracy", "verify.degeneracy"),
    ("commgraph.verify", "arboricity_bounds", "verify.arboricity_bounds"),
    ("commgraph.cli", "cmd_gen", "cli.gen"),
    ("commgraph.cli", "cmd_verify", "cli.verify"),
    ("commgraph.cli", "cmd_simulate", "cli.simulate"),
    ("commgraph.cli", "cmd_sweep", "cli.sweep"),
]

# (module, class, method, span name, wrap the class itself): methods are
# wrapped on the class and on every subclass that overrides them.  Embedding
# constructors are wrapped on the concrete classes only, because each one
# calls the base constructor.
METHODS = [
    ("commgraph.protocols", "ProtocolSession", "simulate", "protocols.simulate", True),
    ("commgraph.protocols", "ProtocolSession", "exchange", "protocols.exchange", True),
    ("commgraph.embeddings.base", "Embedding", "answer", None, True),
    ("commgraph.embeddings.base", "Embedding", "materialize", "embeddings.materialize", True),
    ("commgraph.embeddings.base", "Embedding", "input_free_degrees",
     "embeddings.input_free_degrees", True),
    ("commgraph.embeddings.base", "Embedding", "__init__", "embeddings.build", False),
    ("commgraph.bits", "BitVec", "__getitem__", "bits.getitem", True),
    ("commgraph.bits", "BitVec", "from_bits", "bits.from_bits", True),
    ("commgraph.graph", "ExplicitGraph", "__init__", "graph.explicit_graph", True),
]

_ANSWER_NAMES = {
    "Degree": "embeddings.answer.degree",
    "Neighbor": "embeddings.answer.neighbor",
    "Pair": "embeddings.answer.pair",
    "RandomEdge": "embeddings.answer.random_edge",
}


def _answer_name(args) -> str:
    return _ANSWER_NAMES.get(type(args[1]).__name__, "embeddings.answer.other")


def _classes(cls, include_self: bool):
    found = [cls] if include_self else []
    for sub in cls.__subclasses__():
        found.extend(_classes(sub, True))
    return found


def _method_sites(module: str, cls_name: str, method: str, include_self: bool):
    cls = getattr(importlib.import_module(module), cls_name)
    return [c for c in _classes(cls, include_self) if method in vars(c)]


def _commgraph_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "commgraph" or name.startswith("commgraph."))]


def _raw(attr):
    return attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr


def wrapped_sites() -> list[str]:
    """Every traced target that currently carries a tracing wrapper."""
    found = []
    for mod in _commgraph_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
    for module, cls_name, method, _, include_self in METHODS:
        for c in _method_sites(module, cls_name, method, include_self):
            if getattr(_raw(vars(c)[method]), MARK, False):
                found.append(f"{c.__qualname__}.{method}")
    return found


class Tracer:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self, run_id: str, max_spans: int = 20_000):
        self.run_id = run_id
        self.max_spans = max_spans
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [name, span id, child seconds]
        self._next_id = 0

    def wrap(self, fn, name, on_result=None):
        """Return ``fn`` wrapped in a span; ``name`` is a string or a
        function of the call's positional arguments."""
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = fixed or name(args)
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_name, span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[span_name, type(exc).__name__] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.calls[span_name] += 1
                tracer.self_s[span_name] += duration - frame[2]
                tracer.edges[parent[0] if parent else None, span_name] += 1
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append(
                        (span_id, parent[1] if parent else None, span_name, start, end)
                    )
                else:
                    tracer.dropped += 1
            if on_result is not None:
                on_result(tracer, parent[0] if parent else None, args, result)
            return result

        setattr(traced, MARK, True)
        return traced

    def install(self) -> None:
        """Wrap every target at every site that refers to it."""
        importlib.import_module("commgraph.cli")
        importlib.import_module("commgraph.verify")
        for module, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            traced = self.wrap(original, name, _HOOKS.get(name))
            for mod in _commgraph_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for module, cls_name, method, name, include_self in METHODS:
            for c in _method_sites(module, cls_name, method, include_self):
                attr = vars(c)[method]
                traced = self.wrap(_raw(attr), name or _answer_name, _HOOKS.get(name))
                if isinstance(attr, classmethod):
                    traced = classmethod(traced)
                setattr(c, method, traced)

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps({"run": self.run_id, "spans": len(self.spans),
                                     "dropped": self.dropped}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"run": self.run_id, "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "errors": [[s, e, n] for (s, e), n in self.errors.items()],
            "counters": dict(self.counters),
            "spans": len(self.spans) + self.dropped,
        }


def _count_coords(tracer, parent, args, result):
    tracer.counters["promises.gen.coords"] += args[0]


def _count_entries(tracer, parent, args, result):
    tracer.counters["embeddings.input_free_degrees.entries"] += len(result)


def _count_edges(tracer, parent, args, result):
    tracer.counters["embeddings.materialize.edges"] += result.m


def _count_bits(tracer, parent, args, result):
    tracer.counters["protocols.bits"] += result[1].total_bits


def _count_reported_trials(tracer, parent, args, result):
    if parent != "experiments.budget_search":
        tracer.counters["experiments.reported_trials"] += result.trials


def _count_checks(tracer, parent, args, result):
    tracer.counters["verify.checks"] += len(result)
    tracer.counters["verify.checks_failed"] += sum(1 for r in result if not r.passed)


_HOOKS = {
    "promises.gen": _count_coords,
    "embeddings.input_free_degrees": _count_entries,
    "embeddings.materialize": _count_edges,
    "experiments.trial": _count_bits,
    "experiments.trial_loop": _count_reported_trials,
    "verify.suite": _count_checks,
}
