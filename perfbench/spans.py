"""In-memory spans around the program's layers.

The program's modules bind what they import by name (``from .horn import
entails``), so a layer boundary is traced by replacing the function at each
import site, not in its home module alone.  A span records its name, start,
end, parent span and session id in flat arrays; nothing is written until the
benchmark ends.  Hot value-type operations get a counter instead of a span,
because a timer per call would swamp them.

:func:`install` patches the sites listed in :data:`SITES` and returns a
function that restores the originals.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter_ns

# (module, class or None, attribute, span name).  Span names are
# "<calling module>.<callee>", except the CLI phases and the orchestrator
# round.  pac's sampling oracle ("pac.check") is spanned by the pac-label
# workload, which already intercepts it.
SITES = [
    ("posshorn.cli", None, "parse_poss_kb", "cli.parse"),
    ("posshorn.cli", None, "parse_horn_kb", "cli.parse"),
    ("posshorn.cli", None, "poss_equivalent", "cli.verify.poss"),
    ("posshorn.cli", None, "equivalent", "cli.verify.horn"),
    ("posshorn.cli", None, "_write_outputs", "cli.write"),
    ("posshorn.cli", None, "learn_with_mq_eq", "cli.learn"),
    ("posshorn.cli", None, "drive", "cli.learn"),
    ("posshorn.teacher", "PossibilisticTeacher", "mq", "teacher.mq"),
    ("posshorn.teacher", "PossibilisticTeacher", "eq", "teacher.eq"),
    ("posshorn.teacher", "ClassicalTeacher", "mq", "teacher.mq"),
    ("posshorn.teacher", "ClassicalTeacher", "eq", "teacher.eq"),
    ("posshorn.teacher", None, "poss_equivalent", "teacher.poss_equivalent"),
    ("posshorn.teacher", None, "equivalent", "teacher.equivalent"),
    ("posshorn.teacher", None, "find_counterexample", "teacher.find_counterexample"),
    ("posshorn.teacher", None, "find_classical_counterexample", "teacher.find_counterexample"),
    ("posshorn.teacher", None, "poss_entails", "teacher.poss_entails"),
    ("posshorn.teacher", None, "entails", "teacher.entails"),
    ("posshorn.teacher", None, "val_of", "teacher.val_of"),
    ("posshorn.transcript", "Transcript", "record", "transcript.record"),
    ("posshorn.lift", None, "orchestrate_mq_eq", "lift.round"),
    ("posshorn.lift", None, "find_valuation", "lift.find_valuation"),
    ("posshorn.lift", None, "entails", "lift.entails"),
    ("posshorn.classical", "HornEntailmentLearner", "answer_eq_counterexample",
     "classical.answer_eq_counterexample"),
    ("posshorn.classical", "HornEntailmentLearner", "pending_hypothesis",
     "classical.pending_hypothesis"),
    ("posshorn.classical", None, "entails", "classical.entails"),
    ("posshorn.possibilistic", None, "cut", "possibilistic.cut"),
    ("posshorn.possibilistic", None, "projection", "possibilistic.projection"),
    ("posshorn.possibilistic", None, "entails", "possibilistic.entails"),
    ("posshorn.possibilistic", None, "equivalent", "possibilistic.equivalent"),
    ("posshorn.horn", None, "entails", "horn.entails"),
    ("posshorn.horn", None, "closure", "horn.closure"),
    ("posshorn.pac", None, "poss_entails", "pac.poss_entails"),
    ("posshorn.pac", "UniformClauseDistribution", "sample", "pac.sample"),
    ("posshorn.pac", None, "learn_with_mq_eq", "pac.learn"),
    ("posshorn.pac", None, "empirical_error", "pac.empirical_error"),
]

# Counted, not timed: (module, class, attribute, counter name).
COUNTERS = [
    ("posshorn.valuation", "Valuation", "__lt__", "valuation.lt"),
    ("posshorn.valuation", "Valuation", "__post_init__", "valuation.new"),
    ("posshorn.horn", "HornKB", "__post_init__", "horn.kb_built"),
]


class Tracer:
    """Flat span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.session = array("i")
        self.start = array("q")
        self.end = array("q")
        self.failed: set[int] = set()  # spans that ended by an exception
        self.notes: dict[int, object] = {}  # span index -> recorded argument
        self.counts: dict[str, list[int]] = {}
        self.current_session = -1
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording one span per call; ``note(args, kwargs)``
        returns a value stored for the span."""
        nid = self.name_id(name)
        names, parents, sessions = self.name, self.parent, self.session
        starts, ends, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            i = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            sessions.append(self.current_session)
            ends.append(0)
            if note is not None:
                self.notes[i] = note(args, kwargs)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed.add(i)
                raise
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()

        return traced

    def count(self, fn, name: str):
        cell = self.counts.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def by_name(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, self ns, total ns)."""
        own = self.self_times()
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += own[i]
            total_ns[nid] += self.end[i] - self.start[i]
        return {n: (calls[k], self_ns[k], total_ns[k]) for k, n in enumerate(self.names)}

    def nearest(self, i: int, nid: int) -> int:
        """Index of the closest ancestor of span i named ``nid``, or -1."""
        p = self.parent[i]
        while p >= 0 and self.name[p] != nid:
            p = self.parent[p]
        return p

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: name, start, end, parent
        (a line number, header excluded, or -1) and session."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tsession\n")
            for i, nid in enumerate(self.name):
                fh.write(
                    f"{self.names[nid]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.session[i]}\n"
                )


NOTES = {
    # the working precision p of each level search
    "lift.find_valuation": lambda args, kwargs: args[1],
    # the RunStats object a CLI session accumulates into
    "cli.learn": lambda args, kwargs: kwargs.get("stats"),
}


def install(tracer: Tracer):
    """Patch every site; returns a function that undoes the patches."""
    undo = []
    for module, cls, attr, name in SITES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        if isinstance(original, property):
            patched = property(tracer.wrap(original.fget, name))
        else:
            patched = tracer.wrap(original, name, note=NOTES.get(name))
        setattr(owner, attr, patched)
        undo.append((owner, attr, original))
    for module, cls, attr, name in COUNTERS:
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.count(original, name))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
