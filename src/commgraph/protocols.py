"""Two-party simulation of graph queries with per-query bit accounting.

Both parties know the construction; only the input bits are private.
A query is answered through the construction's lazy rules, with every
input-coordinate access routed through an explicit exchange: the first
party reveals its bit, the second reveals its bit, 2 bits on the wire.
Queries whose answers never touch an input coordinate cost 0 bits.

An algorithm is a generator: it yields queries, receives their answers
and returns its output.  A ``ProtocolRun`` holds one such generator with
its session; ``run_reduction`` is the one driver: it sends every query
through ``ProtocolSession.simulate`` and stops the run at the budget, so an
algorithm never holds the session or the inputs.  A run stopped at budget
T resumes at a larger budget where it stopped, so a run taken through the
budgets 1, 2, ..., T simulates each of its queries once: min(q, T) in
all, where q is the number it makes before it returns.

Capability separation is enforced dynamically: each party's input lives
in a guarded container that only the owning party's context may read.
Any other access raises CapabilityViolation and aborts the run.
"""

from __future__ import annotations

import random
from itertools import accumulate, count
from typing import Callable, Generator, NamedTuple, Optional

from .bits import BitVec
from .embeddings.base import Embedding
from .graph import Query, QueryAnswer, query_kind
from .rng import derive_seed


class CapabilityViolation(RuntimeError):
    """A party's code path touched the other party's input."""


class TranscriptEntry(NamedTuple):
    query_kind: str
    bits: int


class Transcript:
    """Each query's kind and bit cost, in query order.

    Kinds are kept in a list and costs in a ``bytearray``: every lazy rule
    reads at most one input coordinate per query, so a query costs 0 or 2
    bits.  ``entries`` builds the rows only when asked for them."""

    __slots__ = ("kinds", "bits")

    def __init__(self):
        self.kinds: list[str] = []
        self.bits = bytearray()

    @property
    def entries(self) -> list[TranscriptEntry]:
        return list(map(TranscriptEntry, self.kinds, self.bits))

    @property
    def total_bits(self) -> int:
        return sum(self.bits)

    @property
    def query_count(self) -> int:
        return len(self.bits)

    @property
    def max_bits_per_query(self) -> int:
        return max(self.bits, default=0)

    def csv_rows(self, trial: int) -> list[tuple]:
        return [
            (trial, idx, kind, bits, cumulative)
            for idx, (kind, bits, cumulative) in enumerate(
                zip(self.kinds, self.bits, accumulate(self.bits))
            )
        ]


TRANSCRIPT_CSV_HEADER = ("trial", "query_index", "query_kind", "bits", "cumulative_bits")


class _GuardedBits:
    """Read access restricted to the owning party's active context, read
    from the session's ``active`` cell: holding the session itself would
    leave a finished session for the cyclic collector.  The first read goes
    through the vector, which checks the index and builds its byte table;
    a later read in range indexes that table directly."""

    __slots__ = ("_bits", "_table", "_owner", "_active")

    def __init__(self, bits: BitVec, owner: str, active: list):
        self._bits = bits
        self._table = b""
        self._owner = owner
        self._active = active

    def __getitem__(self, i: int) -> int:
        if self._active[0] != self._owner:
            raise CapabilityViolation(
                f"{self._owner}'s input read outside {self._owner}'s context"
            )
        if i >= 0:
            try:
                return self._table[i]
            except IndexError:
                pass
        bit = self._bits[i]
        self._table = self._bits.table
        return bit

    def __len__(self) -> int:
        return self._bits.n


class ProtocolSession:
    """One two-party run over a fixed instance.

    The session owns the transcript; queries are answered via
    ``simulate`` and charged 2 bits per input coordinate exchanged.
    """

    def __init__(self, inst: Embedding, seed: int):
        self.instance = inst
        self._active: list[Optional[str]] = [None]  # the party whose code runs
        self.alice_input = _GuardedBits(inst.pp.x, "alice", self._active)
        self.bob_input = _GuardedBits(inst.pp.y, "bob", self._active)
        self.shared_rng = random.Random(derive_seed(seed, 0xA))
        self.transcript = Transcript()
        self._current_coords: Optional[set[int]] = None

    def exchange(self, coord: int) -> int:
        """Run the designated coordinate protocol: Alice sends her bit, Bob
        sends his.  Returns the AND.  Charged once per coordinate per query."""
        coords = self._current_coords
        if coords is None:
            raise RuntimeError("exchange outside of a query simulation")
        active = self._active
        previous = active[0]
        try:
            active[0] = "alice"
            xb = self.alice_input[coord]
            active[0] = "bob"
            yb = self.bob_input[coord]
        finally:
            active[0] = previous
        coords.add(coord)
        return xb & yb

    def simulate(self, q: Query) -> QueryAnswer:
        kind = query_kind(q)
        self._current_coords = coords = set()
        try:
            answer = self.instance.answer(q, self.exchange, self.shared_rng, kind)
        finally:
            self._current_coords = None
        transcript = self.transcript
        transcript.kinds.append(kind)
        transcript.bits.append(2 * len(coords))
        return answer


class ProtocolRun:
    """One algorithm's run on one instance, resumable at a larger budget.

    A run that ``run_reduction`` cut off after T answers keeps its session,
    its generator and the query waiting for an answer; a later call at a
    budget T' > T continues it from there.  With the same shared rng
    stream, that is the run a fresh call at T' makes (the prefix
    contract).  Until then ``output`` is the cut-off label, the instance's
    disjoint label.  Once the generator returns, the run keeps only its
    ``output`` and ``transcript``: session, generator, rng and instance
    are dropped."""

    __slots__ = ("session", "generator", "pending", "output", "transcript")

    def __init__(
        self,
        inst: Embedding,
        algorithm: Callable[[random.Random], Generator[Query, QueryAnswer, int]],
        seed: int,
    ):
        session = ProtocolSession(inst, seed)
        self.session: Optional[ProtocolSession] = session
        self.generator = algorithm(session.shared_rng)
        self.pending: Optional[Query] = None  # the query awaiting its answer
        self.output: int = inst.label_for(False)
        self.transcript = session.transcript


def run_reduction(run: ProtocolRun, budget: Optional[int] = None) -> tuple[int, Transcript]:
    """Drive ``run``'s algorithm with every query it yields answered
    through the two-party simulation, until it returns or has ``budget``
    answers in all.  Its randomness is the parties' shared stream, so its
    output plus the transcript is a communication protocol for the
    instance's promise problem.

    A run still asking after ``budget`` answers is cut off and outputs the
    disjoint label, ``inst.label_for(False)``, kept as ``run.output``; with
    no budget it runs until the generator returns.  The algorithm never
    sees the budget, so the run at budget T is the first T queries of the
    run at any larger budget, and a cut-off run is continued, not replayed,
    by a later call at a larger budget."""
    transcript = run.transcript
    made = len(transcript.bits)
    if budget is not None and budget < made:
        raise ValueError(f"run already made {made} queries; cannot cut it off at {budget}")
    session = run.session
    if session is None:
        return run.output, transcript
    generator = run.generator
    simulate = session.simulate
    try:
        query = run.pending
        if query is None:
            query = next(generator)
        steps = count() if budget is None else range(budget - made)
        for _ in steps:
            query = generator.send(simulate(query))
    except StopIteration as done:
        run.output = done.value
        run.session = run.generator = run.pending = None
        return done.value, transcript
    run.pending = query
    return run.output, transcript
