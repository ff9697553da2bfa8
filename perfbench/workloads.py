"""The three session workloads and their per-session correctness checks.

Each workload turns (run seed, session index) into one target, so session i
is the same input however many sessions a run reaches.  ``draw`` generates a
target (benchmark work, never timed); ``materialise`` hands it to the program
the way a user would, as a KB file and, for library sessions, a parsed KB.
``run`` is the timed call into the program; ``check`` runs after the clock
stops, re-checks the result with :mod:`oracle` and reads the counts the
program wrote.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gen
import oracle
from posshorn import cli, pac
from posshorn.lift import RunStats
from posshorn.possibilistic import parse_poss_kb
from posshorn.teacher import PossibilisticTeacher

STRATEGIES = ("clause-exact", "random", "adversarial-low")


@dataclass
class Session:
    index: int
    kb: tuple  # the target in oracle form
    precision: int  # semantic precision; 1 for classical targets
    strategy: str
    seed: int
    path: Path
    text: str  # the target as KB file text
    target: object = None  # the parsed program object, for library sessions


@dataclass
class Result:
    """What one session did, read back after the clock stopped."""

    ok: bool = True
    reason: str = ""
    mq: int = 0
    eq: int = 0
    labels: int = 0  # examples labelled
    escalations: int = 0
    instances: int = 0
    steps: int = 0
    level_search_mqs: int = 0  # MQs tagged "orchestrator"
    base_mqs: int = 0  # MQs tagged with a base-learner instance
    search_runs: list = field(default_factory=list)  # (MQs, p) per level search
    transcript_bytes: int = 0
    hypothesis: str = ""

    def fail(self, reason: str) -> "Result":
        self.ok, self.reason = False, reason
        return self


# The orchestrator's hypothesis carries the anchor clause "v -> v @ 10^-p" of
# its working precision p; no other clause can be a tautology at a finer degree.
ANCHOR = re.compile(r"(?:^|; )(\S+) -> \1 @ 0\.(0*1)(?=;|$)")


def working_precision(hypothesis_text: str) -> int:
    """p of a hypothesis as the teacher records it (clauses joined by "; "),
    or 0 for a classical hypothesis, which has no anchor."""
    return max((len(m.group(2)) for m in ANCHOR.finditer(hypothesis_text)), default=0)


def _split_mqs(result: Result, events) -> None:
    """Split MQ events by requester.  A maximal run of orchestrator MQs is
    one level search, because each follows its own equivalence query; it
    runs at the working precision of the hypothesis that query asked about.
    ``events`` yields (event, instance, input text)."""
    run, p = 0, 0
    for event, instance, text in events:
        if event == "mq" and instance == "orchestrator":
            result.level_search_mqs += 1
            run += 1
            continue
        if run:
            result.search_runs.append((run, p))
            run = 0
        if event == "mq":
            result.base_mqs += 1
        elif event == "eq":
            p = working_precision(text)
    if run:
        result.search_runs.append((run, p))


class Workload:
    name = ""
    min_sessions = 0  # always run; the query counts cover exactly these
    trace_sessions = 0  # sessions a traced run runs, each untraced and traced
    tracer = None  # set while a traced session runs

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def make(self, i: int) -> Session:
        s = self.draw(i)
        self.materialise(s)
        return s

    def draw(self, i: int) -> Session:
        raise NotImplementedError

    def materialise(self, s: Session) -> None:
        """Write the target as a KB file for the program to read."""
        s.path.write_text(s.text)

    def run(self, s: Session):
        raise NotImplementedError

    def check(self, s: Session, outcome) -> Result:
        raise NotImplementedError

    def failed(self, reason: str) -> Result:
        return Result().fail(reason)


class CliWorkload(Workload):
    """A ``posshorn learn`` session, called in-process through cli.main."""

    mode = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.out_h = workdir / "hypothesis.out"
        self.out_t = workdir / "transcript.out.jsonl"
        self.out_s = workdir / "stats.out.json"

    def run(self, s: Session) -> int:
        argv = [
            "learn", "--mode", self.mode, "--target", str(s.path),
            "--cex-strategy", s.strategy, "--seed", str(s.seed),
            "--out-hypothesis", str(self.out_h),
            "--out-transcript", str(self.out_t),
            "--out-stats", str(self.out_s),
        ]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, s: Session, code: int) -> Result:
        r = Result()
        if code != 0:
            return r.fail(f"exit code {code}")
        stats = json.loads(self.out_s.read_text())
        r.mq, r.eq = stats["mq_count"], stats["eq_count"]
        r.labels = r.mq  # each membership query is one example the teacher labels
        r.escalations = stats["escalations"]
        r.instances = stats["instances_spawned"]
        r.steps = stats["wall_steps"]
        transcript = self.out_t.read_bytes()
        r.transcript_bytes = len(transcript)
        events = (json.loads(line) for line in transcript.splitlines())
        _split_mqs(r, ((e["event"], e["instance"], e["input"]) for e in events))
        r.hypothesis = self.out_h.read_text()
        if not oracle.equivalent(oracle.parse_kb(r.hypothesis), s.kb):
            return r.fail("hypothesis not equivalent to the target")
        return r


class LearnExact(CliWorkload):
    name = "learn-exact"
    mode = "mq-eq"
    min_sessions = 90
    trace_sessions = 30

    def draw(self, i: int) -> Session:
        rng = self.rng(i)
        precision = 3 if i % 3 == 2 else 2
        kb = gen.poss_target(
            rng, n_vars=16, n_clauses=30, precision=precision, levels=8, max_ant=3, falsum_prob=0.05
        )
        path = self.workdir / f"target{i}.pkb"
        # strategy changes every third session, so each meets both precisions
        strategy = STRATEGIES[(i // 3) % 3]
        return Session(i, kb, precision, strategy, rng.randrange(2**31), path, oracle.format_kb(kb))


class LearnClassical(CliWorkload):
    name = "learn-classical"
    mode = "classical"
    min_sessions = 160
    trace_sessions = 40

    def draw(self, i: int) -> Session:
        rng = self.rng(i)
        kb = gen.horn_target(rng, n_vars=20, n_clauses=40, min_ant=1, max_ant=3, falsum_prob=0.02)
        path = self.workdir / f"target{i}.hkb"
        strategy = STRATEGIES[i % 2]
        text = oracle.format_kb(kb, classical=True)
        return Session(i, kb, 1, strategy, rng.randrange(2**31), path, text)


class PacLabel(Workload):
    """Library pac_learn, then empirical_error on a fixed-size test set."""

    name = "pac-label"
    min_sessions = 70
    trace_sessions = 20
    epsilon = 0.05
    delta = 0.05
    test_size = 2000

    def draw(self, i: int) -> Session:
        rng = self.rng(i)
        kb = gen.poss_target(
            rng, n_vars=10, n_clauses=15, precision=2, levels=5, max_ant=3, falsum_prob=0.05
        )
        path = self.workdir / f"target{i}.pkb"
        return Session(i, kb, 2, "sampled", rng.randrange(2**31), path, oracle.format_kb(kb))

    def materialise(self, s: Session) -> None:
        super().materialise(s)
        s.target = parse_poss_kb(s.path.read_text())

    def run(self, s: Session):
        teacher = PossibilisticTeacher(s.target, rng_seed=s.seed)
        eq_marks = []
        learn = pac.learn_with_mq_eq

        # pac_learn answers its EQs by sampling, out of the teacher's sight;
        # where pac hands its oracle to the learner, note the transcript
        # position and the hypothesis of each one
        def marking_learn(signature, mq, eq, **kwargs):
            if self.tracer is not None:
                eq = self.tracer.wrap(eq, "pac.check")

            def marked_eq(hypothesis, **kw):
                eq_marks.append((len(teacher.transcript.events), hypothesis))
                return eq(hypothesis, **kw)

            return learn(signature, mq, marked_eq, **kwargs)

        dist = pac.UniformClauseDistribution(s.target, seed=s.seed)
        stats = RunStats()
        pac.learn_with_mq_eq = marking_learn
        try:
            hypothesis = pac.pac_learn(
                teacher.signature, dist, self.epsilon, self.delta, teacher.mq, stats=stats
            )
        finally:
            pac.learn_with_mq_eq = learn
        test = RecordingDistribution(s.target, seed=s.seed + 1)
        error = pac.empirical_error(hypothesis, test, self.test_size)
        return hypothesis, error, teacher, dist, stats, eq_marks, test.drawn

    def check(self, s: Session, outcome) -> Result:
        hypothesis, error, teacher, dist, stats, eq_marks, tests = outcome
        r = Result()
        r.mq, r.eq = teacher.mq_count, teacher.eq_count + len(eq_marks)
        r.labels = dist.draws + self.test_size
        r.escalations = stats.escalations
        r.instances = stats.instances_spawned
        r.steps = stats.wall_steps
        events = [(e.event, e.instance, e.input) for e in teacher.transcript.events]
        for position, asked in reversed(eq_marks):
            text = "; ".join(str(c) for c in asked.sorted_clauses)
            events.insert(position, ("eq", "orchestrator", text))
        _split_mqs(r, events)
        r.hypothesis = str(hypothesis)
        if error > self.epsilon:
            return r.fail(f"empirical error {error} exceeds epsilon {self.epsilon}")
        # recount the test-set errors and labels independently
        h, t = oracle.Cuts(oracle.parse_kb(r.hypothesis)), oracle.Cuts(s.kb)
        wrong = 0
        for example, label in tests:
            f, degree = example.formula, Fraction(str(example.valuation))
            truth = t.entails(f.antecedent, f.consequent, degree)
            if truth != label:
                return r.fail(f"sampler labelled {example} {label}, expected {truth}")
            wrong += h.entails(f.antecedent, f.consequent, degree) != truth
        if Fraction(wrong, self.test_size) != error:
            return r.fail(f"empirical error {error} but {wrong} independent disagreements")
        return r


class RecordingDistribution(pac.UniformClauseDistribution):
    """The test-set sampler, keeping each labelled example for the check."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.drawn: list = []

    def sample(self):
        drawn = super().sample()
        self.drawn.append(drawn)
        return drawn


WORKLOADS = {w.name: w for w in (LearnExact, PacLabel, LearnClassical)}
