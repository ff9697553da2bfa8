"""The compiled reasoning core against the independent oracles.

Entailment chains over bitsets and cut tables (``horn``, ``possibilistic``);
these properties pit it against the truth-table oracle ``tt_entails``, the
distribution semantics ``pi_k``/``necessity``, and exact ``Fraction``
arithmetic, and pin the clause scan order to a key written out here.  KBs
assembled from parts are pinned to ``PossKB.of`` of the same clauses, each
transcript line to ``json.dumps`` of its event, and the transcript file the
CLI streams to the in-memory transcript of the same session.  Every test is
derandomized, so a run is reproducible.
"""

import copy
import inspect
import io
import json
import operator
import pickle
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from posshorn import (
    FALSUM,
    HornClause,
    HornKB,
    HornSyntaxError,
    PossClause,
    PossKB,
    PossibilisticTeacher,
    Valuation,
    cut,
    entails,
    find_classical_counterexample,
    find_counterexample,
    learn_with_mq_eq,
    necessity,
    pi_k,
    poss_entails,
    poss_equivalent,
    parse_clause,
    parse_horn_kb,
    tt_entails,
    val_of,
)
from posshorn.horn import _compile, scan_key
from posshorn.lift import RunStats
from posshorn.pac import UniformClauseDistribution
from posshorn.possibilistic import Assembly, Distribution, _cut_rules
from posshorn.valuation import ValuationError
from posshorn import cli
from posshorn.transcript import Event, Transcript, render

from helpers import random_poss_kb

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)
POOL = [f"x{i}" for i in range(8)]


@st.composite
def clauses(draw, names):
    """Any clause over ``names``: tautologies and falsum included."""
    antecedent = draw(st.frozensets(st.sampled_from(names), max_size=len(names)))
    consequent = draw(st.one_of(st.just(FALSUM), st.sampled_from(names)))
    return HornClause(antecedent, consequent)


@st.composite
def valuations(draw, max_precision=3):
    p = draw(st.integers(1, max_precision))
    return Valuation(draw(st.integers(0, 10**p)), p)


positive = valuations().filter(lambda v: not v.is_zero)


@st.composite
def horn_kbs(draw):
    """A KB over the first k <= 8 pool variables (k = 0: the empty KB)."""
    names = POOL[: draw(st.integers(0, 8))]
    if not names:
        return HornKB.of((), ())
    body = draw(st.lists(clauses(names), max_size=10))
    return HornKB.of(body, names)


@st.composite
def poss_kbs(draw, max_vars=6, max_clauses=8):
    names = POOL[: draw(st.integers(1, max_vars))]
    body = draw(
        st.lists(st.builds(PossClause, clauses(names), positive), max_size=max_clauses)
    )
    return PossKB.of(body, names)


# a query may use up to two variables beyond any KB signature
queries = clauses(POOL[:8] + ["y0", "y1"])


def fraction(v: Valuation) -> Fraction:
    return Fraction(v.mantissa, 10**v.precision)


class TestHornEntailment:
    @SETTINGS
    @given(horn_kbs(), queries)
    # c -> d sorts before a,b -> c, so d needs a second pass over the rules
    @example(parse_horn_kb("a,b -> c\nc -> d"), parse_clause("a,b -> d"))
    def test_matches_truth_table(self, kb, query):
        assert entails(kb, query) == tt_entails(kb, query)

    @SETTINGS
    @given(horn_kbs())
    def test_falsum_and_tautologies(self, kb):
        falsum = HornClause(frozenset(), FALSUM)
        assert entails(kb, falsum) == tt_entails(kb, falsum)
        for v in sorted(kb.signature) + ["y0"]:
            assert entails(kb, HornClause(frozenset([v]), v))


class TestPossibilisticEntailment:
    @SETTINGS
    @given(poss_kbs(), queries, positive)
    def test_entails_and_val_match_necessity(self, kb, phi, a):
        degree = necessity(pi_k(kb.with_signature(phi.variables)), phi)
        assert val_of(kb, phi) == degree
        assert poss_entails(kb, PossClause(phi, a)) == (a <= degree)

    @SETTINGS
    @given(poss_kbs(max_vars=4, max_clauses=5), st.data())
    def test_equivalence_matches_distributions(self, a, data):
        # b: a plus clauses it already entails, at most at their degree, and
        # sometimes one arbitrary clause, which usually breaks equivalence
        names = sorted(a.signature)
        extra = []
        for phi in data.draw(st.lists(clauses(names), max_size=3)):
            degree = val_of(a, phi)
            if not degree.is_zero:
                lower = data.draw(positive.filter(lambda v: v <= degree))
                extra.append(PossClause(phi, lower))
        if data.draw(st.booleans()):
            extra.append(PossClause(data.draw(clauses(names)), data.draw(positive)))
        b = PossKB.of(set(a.clauses) | set(extra), a.signature)
        assert poss_equivalent(a, b) == (pi_k(a) == pi_k(b))
        assert poss_equivalent(b, a) == poss_equivalent(a, b)

    @SETTINGS
    @given(poss_kbs(), valuations(max_precision=4))
    def test_cut_lookup_matches_definition(self, kb, a):
        index = kb._cut_table[0]
        expected = [_compile(index, c.formula) for c in kb.clauses if c.valuation >= a]
        assert sorted(_cut_rules(kb, a)) == sorted(expected)
        # the a-cut as a KB, the paper's definition, compiles to the same rules
        rules = [_compile(index, c.formula) for c in cut(kb, a).clauses]
        assert sorted(rules) == sorted(_cut_rules(kb, a))


@st.composite
def poss_kb_pairs(draw):
    """(a, b) over one signature: b drops some clauses of a, adds clauses a
    entails at most at their degree (at any precision up to 3), and
    sometimes one arbitrary clause, so equivalent and inequivalent pairs,
    and counterexamples on either side, are all common."""
    a = draw(poss_kbs(max_vars=4, max_clauses=5))
    names = sorted(a.signature)
    kept = [c for c in a.sorted_clauses if draw(st.booleans()) or draw(st.booleans())]
    for phi in draw(st.lists(clauses(names), max_size=3)):
        degree = val_of(a, phi)
        if not degree.is_zero:
            kept.append(PossClause(phi, draw(positive.filter(lambda v: v <= degree))))
    if draw(st.booleans()):
        kept.append(PossClause(draw(clauses(names)), draw(positive)))
    return a, PossKB.of(kept, a.signature)


@st.composite
def horn_kb_pairs(draw):
    """(a, b) built like :func:`poss_kb_pairs`, classically; b may use
    variables outside the signature of a."""
    a = draw(horn_kbs())
    names = sorted(a.signature) + ["y0"]
    kept = [c for c in a.sorted_clauses if draw(st.booleans()) or draw(st.booleans())]
    kept += [phi for phi in draw(st.lists(clauses(names), max_size=3)) if tt_entails(a, phi)]
    if draw(st.booleans()):
        kept.append(draw(clauses(names)))
    return a, HornKB.of(kept, a.signature)


class TestSeparatingClauseScan:
    @SETTINGS
    @given(poss_kb_pairs())
    def test_none_iff_same_distribution(self, pair):
        a, b = pair
        found = find_counterexample(a, b)
        assert (found is None) == (pi_k(a) == pi_k(b))
        if found is not None:
            positive, c = found
            assert poss_entails(a, c) == positive
            assert poss_entails(b, c) != positive

    @SETTINGS
    @given(horn_kb_pairs())
    def test_classical_none_iff_mutual_truth_table_entailment(self, pair):
        a, b = pair
        found = find_classical_counterexample(a, b)
        mutual = all(tt_entails(b, c) for c in a.clauses) and all(
            tt_entails(a, c) for c in b.clauses
        )
        assert (found is None) == mutual
        if found is not None:
            positive, c = found
            assert tt_entails(a, c) == positive
            assert tt_entails(b, c) != positive


def scan_order(c: HornClause) -> tuple:
    """The scan order written out: antecedent size, sorted antecedent, then
    falsum before every variable, then the consequent's name."""
    cons = c.consequent
    return (len(c.antecedent), sorted(c.antecedent), cons is not FALSUM, cons or "")


@st.composite
def graded_formulas(draw):
    """Distinct formulas, each at one to three positive degrees of precision
    1-3; falsum consequents and empty antecedents are common."""
    names = POOL[: draw(st.integers(1, 4))]
    formulas = draw(st.lists(clauses(names), unique=True, max_size=8))
    degrees = st.lists(positive, min_size=1, max_size=3, unique=True)
    return [(phi, draw(degrees)) for phi in formulas]


class TestScanOrder:
    @SETTINGS
    @given(graded_formulas())
    @example(
        [
            (parse_clause("x0 -> x1"), [Valuation(3, 1), Valuation(25, 2), Valuation(125, 3)]),
            (parse_clause("x0 -> false"), [Valuation(1, 2)]),
            (parse_clause("true -> x1"), [Valuation(5, 1)]),
            (parse_clause("true -> false"), [Valuation(5, 1), Valuation(5, 2)]),
            (parse_clause("x0,x1 -> false"), [Valuation.one()]),
        ]
    )
    def test_sorted_clauses_follow_the_scan_order(self, graded):
        horn = HornKB.of(phi for phi, _ in graded)
        assert list(horn.sorted_clauses) == sorted(horn.clauses, key=scan_order)
        poss = PossKB.of(PossClause(phi, v) for phi, degrees in graded for v in degrees)
        assert list(poss.sorted_clauses) == sorted(
            poss.clauses, key=lambda c: (scan_order(c.formula), fraction(c.valuation))
        )


class TestValuationOrder:
    @SETTINGS
    # mixed precisions up to one past the learner's limit of 12 digits
    @given(valuations(max_precision=13), valuations(max_precision=13))
    @example(Valuation(10**13 - 1, 13), Valuation.one())
    @example(Valuation(1, 13), Valuation(1, 12))
    def test_order_matches_fractions(self, a, b):
        x, y = fraction(a), fraction(b)
        assert (a < b) == (x < y)
        assert (a <= b) == (x <= y)
        assert (a > b) == (x > y)
        assert (a >= b) == (x >= y)
        assert (a == b) == (x == y)


# Quotes, backslashes, control, non-ASCII and astral characters, and lone
# surrogates: everything json.dumps escapes in its own way.
HARD = '"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800\udfff'
texts = st.text(st.one_of(st.sampled_from(HARD), st.characters(exclude_categories=())))


@st.composite
def events(draw):
    return Event(
        draw(st.sampled_from(["mq", "eq"]) | texts),
        draw(texts),
        draw(st.none() | texts),
        draw(texts),
        draw(texts),
        draw(st.integers(1, 10**9)),
    )


class TestTranscriptLines:
    @SETTINGS
    @given(st.lists(events(), max_size=4))
    @example([Event("mq", "a -> b", None, "yes", "orchestrator", 1)])
    @example([Event("eq", HARD, HARD, HARD, HARD, 10**9)])
    def test_each_line_is_json_dumps_of_its_event(self, evs):
        lines = [render(*ev) for ev in evs]
        assert lines == [json.dumps(ev._asdict()) + "\n" for ev in evs]
        assert all(line.isascii() for line in lines)
        transcript = Transcript()
        transcript.events = evs
        assert transcript.to_jsonl() == "".join(lines)

    def test_streamed_lines_are_the_kept_lines(self):
        out = io.StringIO()
        kept, streamed = Transcript(), Transcript(out)
        for args in [
            ("mq", "a -> b", "0.25", "yes", "0.3"),
            ("mq", HARD, None, "no", HARD),
            ("eq", "a -> b @ 0.25; true -> c @ 1", None, HARD, "orchestrator"),
        ]:
            kept.record(*args)
            streamed.record(*args)
        assert [ev.index for ev in kept.events] == [1, 2, 3]
        assert streamed.events == [] and streamed.count == 3
        assert out.getvalue() == kept.to_jsonl()


DATA = Path(__file__).resolve().parent.parent / "data"


def cli_session(monkeypatch, work, argv, streamed):
    """(exit code, transcript file bytes, teacher) of one ``posshorn learn``
    session; unless ``streamed``, its teacher keeps the events in memory."""
    teachers = []
    for name in ("PossibilisticTeacher", "ClassicalTeacher"):

        class Capturing(getattr(cli, name)):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                teachers.append(self)

        monkeypatch.setattr(cli, name, Capturing)
    if not streamed:
        monkeypatch.setattr(cli, "Transcript", lambda out: Transcript())
    work.mkdir()
    outputs = [
        f"--out-{name}={work / name}" for name in ("hypothesis", "transcript", "stats")
    ]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(["learn", *argv, *outputs])
    monkeypatch.undo()
    (teacher,) = teachers
    return code, (work / "transcript").read_bytes(), teacher


class TestStreamedTranscript:
    """The CLI writes each event as it happens; the file must be the bytes
    an in-memory teacher renders for the same session."""

    @pytest.mark.parametrize(
        "argv",
        [
            [f"--mode=mq-eq", f"--cex-strategy={strategy}", f"--seed={seed}"]
            for strategy in ("clause-exact", "random", "adversarial-low")
            for seed in (1, 2)
        ]
        + [
            ["--mode=pac", "--seed=3", "--epsilon=0.1", "--delta=0.1"],
            ["--mode=pac", "--seed=4", "--epsilon=0.1", "--delta=0.1"],
            ["--mode=classical", "--cex-strategy=clause-exact"],
            ["--mode=classical", "--cex-strategy=random", "--seed=5"],
            ["--mode=mq-eq", "--cex-strategy=scripted", f"--script={DATA / 'mqeq.script'}"],
        ],
        ids=lambda argv: " ".join(a.split("=")[1] for a in argv[:2]),
    )
    def test_streamed_file_is_the_in_memory_transcript(self, tmp_path, monkeypatch, argv):
        mode = argv[0].split("=")[1]
        if mode == "classical":
            target = DATA / "classical.hkb"
        elif "--cex-strategy=scripted" in argv:
            target = DATA / "mqeq.pkb"
        else:
            target = tmp_path / "target.pkb"
            rng = random.Random(" ".join(argv))
            kb = random_poss_kb(rng, 6, 8, 2)
            while len(kb.clauses) < 3:
                kb = random_poss_kb(rng, 6, 8, 2)
            target.write_text(str(kb) + "\n")
        argv = [*argv, f"--target={target}"]
        code, streamed, teacher = cli_session(monkeypatch, tmp_path / "s", argv, True)
        ref_code, _, ref_teacher = cli_session(monkeypatch, tmp_path / "m", argv, False)
        # a PAC session may stop at an approximation, exit 1
        assert code == ref_code and code in ((0, 1) if mode == "pac" else (0,))
        assert teacher.transcript.events == []
        assert len(ref_teacher.transcript.events) == teacher.transcript.count > 0
        assert streamed == ref_teacher.transcript.to_jsonl().encode()

    def test_exhausted_script_leaves_the_queries_up_to_the_failure(
        self, tmp_path, monkeypatch
    ):
        script = tmp_path / "short.script"
        script.write_text("p -> q1 @ 0.1\n")
        argv = ["--mode=mq-eq", f"--target={DATA / 'mqeq.pkb'}",
                "--cex-strategy=scripted", f"--script={script}"]
        code, streamed, teacher = cli_session(monkeypatch, tmp_path / "s", argv, True)
        ref_code, _, ref_teacher = cli_session(monkeypatch, tmp_path / "m", argv, False)
        assert code == ref_code == 3
        assert teacher.transcript.events == []
        lines = streamed.decode().splitlines(keepends=True)
        assert len(lines) == len(ref_teacher.transcript.events) > 1
        assert streamed == ref_teacher.transcript.to_jsonl().encode()
        # the session stopped at the EQ the script could not answer
        assert json.loads(lines[-1])["event"] == "mq"
        for name in ("hypothesis", "stats"):
            assert not (tmp_path / "s" / name).exists()


@st.composite
def pools(draw):
    """(p, signature, [(label, HornKB)]) as the orchestrator holds them: up
    to four distinct labels on grid p = 1-4, whose KBs share formulas (so
    one formula often sits at two labels) and are often empty.  Falsum and
    tautologies occur, but not the anchor formula; the signature may be
    empty."""
    p = draw(st.integers(1, 4))
    names = POOL[: draw(st.integers(0, 5))]
    if names:
        anchor = HornClause(frozenset([names[0]]), names[0])
        formulas = clauses(names).filter(lambda c: c != anchor)
        formulas = draw(st.lists(formulas, unique=True, max_size=6))
    else:
        formulas = [HornClause(frozenset(), FALSUM)]
    keys = st.one_of(st.just(1), st.integers(1, 10**p))
    labels = draw(st.lists(keys, unique=True, max_size=4))
    pool = [
        (Valuation(k, p), HornKB.of([c for c in formulas if draw(st.booleans())], names))
        for k in labels
    ]
    return p, names, pool


def assert_same_kb(kb: PossKB, expected: PossKB) -> None:
    assert kb.clauses == expected.clauses
    assert kb.signature == expected.signature
    assert kb.sorted_clauses == expected.sorted_clauses
    assert kb.levels == expected.levels
    assert kb.prec() == expected.prec()
    assert kb._cut_table == expected._cut_table
    assert str(kb) == str(expected)


class TestPooledAssembly:
    @SETTINGS
    @given(pools())
    @example(
        (2, [], [(Valuation(1, 2), HornKB.of([parse_clause("true -> false")]))])
    )
    @example(
        (
            1,
            ["x0", "x1"],
            [
                (Valuation(1, 1), HornKB.of([parse_clause("x1 -> x1")], ["x0", "x1"])),
                (Valuation(5, 1), HornKB.of([parse_clause("x0 -> false")], ["x0", "x1"])),
                (Valuation(7, 1), HornKB.of([parse_clause("x0 -> false")], ["x0", "x1"])),
                (Valuation(9, 1), HornKB.of((), ["x0", "x1"])),
            ],
        )
    )
    def test_matches_poss_kb_of_the_same_clauses(self, pooled):
        p, names, pool = pooled
        anchor_var = min(names) if names else "x1"
        anchor = HornClause(frozenset([anchor_var]), anchor_var)
        signature = set(names) | {anchor_var}
        assembly = Assembly(signature, p)

        def parts():
            return [assembly.part(label, kb.sorted_clauses) for label, kb in pool] + [
                assembly.part(Valuation.unit(p), [anchor])
            ]

        expected = PossKB.of(
            [PossClause(phi, label) for label, kb in pool for phi in kb.clauses]
            + [PossClause(anchor, Valuation.unit(p))],
            signature,
        )
        first = parts()
        assert_same_kb(assembly.kb(first), expected)
        # parts built again reuse the entries of the first ones
        assert_same_kb(assembly.kb(parts()), expected)
        assert_same_kb(assembly.kb(first[::-1]), expected)

    def test_rejects_a_variable_outside_the_signature(self):
        with pytest.raises(HornSyntaxError):
            Assembly({"a"}, 1).part(Valuation(5, 1), [parse_clause("a -> b")])

    def test_rejects_parts_sharing_a_clause(self):
        assembly = Assembly({"a"}, 1)
        anchor = [parse_clause("a -> a")]
        with pytest.raises(ValueError):
            assembly.kb([assembly.part(Valuation(1, 1), anchor)] * 2)

    @pytest.mark.parametrize("strategy", ["clause-exact", "adversarial-low", "random"])
    def test_every_submitted_hypothesis_equals_its_rebuild(self, strategy):
        rng = random.Random(f"assembly:{strategy}")
        for trial in range(12):
            target = random_poss_kb(rng, 6, 10, precision=rng.randint(1, 3))
            teacher = PossibilisticTeacher(target, cex_strategy=strategy, rng_seed=trial)
            submitted = []

            def eq(h, *, instance=""):
                submitted.append(h)
                return teacher.eq(h, instance=instance)

            learn_with_mq_eq(target.signature, teacher.mq, eq)
            assert submitted
            for h in submitted:
                assert_same_kb(h, PossKB.of(h.clauses, h.signature))


# -- the value types against the dataclasses they replaced ------------------
#
# Each Parent* class repeats the dataclass definition its posshorn namesake
# had (fields, __post_init__, and the methods that shape ==, hash, repr, str
# and order), so the hand-written types are checked against what
# ``dataclasses`` generated for them.


@dataclass(frozen=True)
class ParentHornClause:
    antecedent: frozenset[str]
    consequent: Optional[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedent", frozenset(self.antecedent))

    def __str__(self) -> str:
        ant = ",".join(sorted(self.antecedent)) if self.antecedent else "true"
        cons = "false" if self.consequent is FALSUM else self.consequent
        return f"{ant} -> {cons}"


@dataclass(frozen=True)
class ParentHornKB:
    clauses: frozenset[ParentHornClause]
    signature: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", frozenset(self.clauses))
        object.__setattr__(self, "signature", frozenset(self.signature))

    def __str__(self) -> str:
        return "\n".join(str(c) for c in sorted(self.clauses, key=scan_key))


@dataclass(frozen=True)
class ParentValuation:
    mantissa: int
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValuationError("precision must be a positive integer")
        if not 0 <= self.mantissa <= 10**self.precision:
            raise ValuationError("outside [0, 1]")
        m, p = self.mantissa, self.precision
        while p > 1 and m % 10 == 0:
            m //= 10
            p -= 1
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "precision", p)

    def _cmp(self, other) -> int:
        return self.mantissa * 10**other.precision - other.mantissa * 10**self.precision

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __str__(self) -> str:
        if self.mantissa == 10 and self.precision == 1:
            return "1.0"
        if self.mantissa == 0:
            return "0"
        return "0." + str(self.mantissa).rjust(self.precision, "0")

    def __repr__(self) -> str:
        return f"Valuation({str(self)!r})"


@dataclass(frozen=True)
class ParentPossClause:
    formula: ParentHornClause
    valuation: ParentValuation

    def __post_init__(self) -> None:
        if self.valuation.mantissa == 0:
            raise ValueError("formula valuation must be positive")

    def __str__(self) -> str:
        return f"{self.formula} @ {self.valuation}"


@dataclass(frozen=True)
class ParentPossKB:
    clauses: frozenset[ParentPossClause]
    signature: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", frozenset(self.clauses))
        object.__setattr__(self, "signature", frozenset(self.signature))

    def __str__(self) -> str:
        key = lambda c: (scan_key(c.formula), c.valuation)  # noqa: E731
        return "\n".join(str(c) for c in sorted(self.clauses, key=key))


@dataclass(frozen=True)
class ParentDistribution:
    degrees: dict[frozenset[str], ParentValuation]
    signature: frozenset[str]


@dataclass
class ParentUniformClauseDistribution:
    target: PossKB
    seed: int
    draws: int = field(default=0, init=False)


@dataclass
class ParentRunStats:
    instances_spawned: int = 0
    wall_steps: int = 0
    escalations: int = 0
    spawn_order: list[str] = field(default_factory=list)
    dispatches: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)


NEW = SimpleNamespace(
    HornClause=HornClause, HornKB=HornKB, Valuation=Valuation, PossClause=PossClause,
    PossKB=PossKB, Distribution=Distribution, RunStats=RunStats,
    UniformClauseDistribution=UniformClauseDistribution,
)
PARENT = SimpleNamespace(**{name: globals()["Parent" + name] for name in vars(NEW)})
PARENT_FIELDS = {c: [f.name for f in fields(c)] for c in vars(PARENT).values()}
LETTERS = frozenset("abc")

# Each strategy draws a builder: a function from NEW or PARENT to an object,
# so one draw makes the hand-written object and its dataclass twin.
letters = st.sampled_from(sorted(LETTERS))


def valuation_builders(least=0):
    return st.integers(1, 3).flatmap(
        lambda p: st.integers(least, 10**p).map(
            lambda m: lambda t: t.Valuation(mantissa=m, precision=p)
        )
    )


clause_builders = st.builds(
    lambda ant, cons: lambda t: t.HornClause(antecedent=ant, consequent=cons),
    st.frozensets(letters),
    st.one_of(st.just(FALSUM), letters),
)
poss_clause_builders = st.builds(
    lambda phi, a: lambda t: t.PossClause(formula=phi(t), valuation=a(t)),
    clause_builders,
    valuation_builders(least=1),
)


def kb_builders(kind, clause_builders):
    return st.lists(clause_builders, max_size=3).map(
        lambda body: lambda t: getattr(t, kind)(
            clauses=[c(t) for c in body], signature=LETTERS
        )
    )


distribution_builders = st.dictionaries(
    st.frozensets(letters), valuation_builders(), max_size=3
).map(
    lambda degrees: lambda t: t.Distribution(
        degrees={w: a(t) for w, a in degrees.items()}, signature=LETTERS
    )
)
run_stats_builders = st.builds(
    lambda n, order: lambda t: t.RunStats(instances_spawned=n, spawn_order=list(order)),
    st.integers(0, 3),
    st.lists(st.sampled_from(["0.3", "0.7"]), max_size=2),
)
sampler_builders = st.builds(
    # the sampler reads the target's cut table, so both get a PossKB
    lambda target, seed: lambda t: t.UniformClauseDistribution(
        target=target(NEW), seed=seed
    ),
    kb_builders("PossKB", poss_clause_builders),
    st.integers(0, 2),
)
value_builders = st.one_of(
    valuation_builders(),
    clause_builders,
    poss_clause_builders,
    kb_builders("HornKB", clause_builders),
    kb_builders("PossKB", poss_clause_builders),
    distribution_builders,
    run_stats_builders,
    sampler_builders,
)


def outcome(f, *args):
    """f(*args), or the exception it raised, with every AttributeError
    (``dataclasses.FrozenInstanceError`` is one) as AttributeError."""
    try:
        return "ok", f(*args)
    except AttributeError:
        return "raised", AttributeError
    except Exception as exc:
        return "raised", type(exc)


def unparent(text: str) -> str:
    return text.replace("Parent", "")


class TestValueTypes:
    def test_constructor_signatures_match(self):
        for name, new in vars(NEW).items():
            params = inspect.signature(new).parameters
            parent = inspect.signature(getattr(PARENT, name)).parameters
            assert [(p.name, p.kind) for p in params.values()] == [
                (p.name, p.kind) for p in parent.values()
            ], name

    @SETTINGS
    @given(st.lists(value_builders, min_size=1, max_size=5))
    # two classes whose instances hold equal field tuples
    @example([lambda t: t.HornKB((), LETTERS), lambda t: t.PossKB((), LETTERS)])
    @example([lambda t: t.HornClause(frozenset("a"), "b"),
              lambda t: t.PossClause(t.HornClause(frozenset("a"), "b"), t.Valuation(5, 1))])
    def test_match_the_parent_dataclasses(self, builders):
        new = [b(NEW) for b in builders] + [("a", "b"), None]
        parent = [b(PARENT) for b in builders] + [("a", "b"), None]
        for x, r in zip(new, parent):
            assert type(x).__name__ == unparent(type(r).__name__)
            assert outcome(hash, x) == outcome(hash, r)
            assert repr(x) == unparent(repr(r))
            assert str(x) == unparent(str(r))
            for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                assert type(twin) is type(x) and twin == x
        for (x, r), (y, s) in product(zip(new, parent), repeat=2):
            assert (x == y) == (r == s) and (x != y) == (r != s)
            assert (x.__eq__(y) is NotImplemented) == (r.__eq__(s) is NotImplemented)
            if isinstance(x, Valuation) and isinstance(y, Valuation):
                for op in (operator.lt, operator.le, operator.gt, operator.ge):
                    assert op(x, y) == op(r, s)
        for b in builders:
            for name in [*PARENT_FIELDS[type(b(PARENT))], "extra"]:
                # fresh objects: assignment may succeed on a mutable one
                assert outcome(setattr, b(NEW), name, 0) == outcome(setattr, b(PARENT), name, 0)
                assert outcome(delattr, b(NEW), name) == outcome(delattr, b(PARENT), name)

    def test_poss_clause_has_no_instance_dict(self):
        clause = PossClause(HornClause(frozenset("ba"), "c"), Valuation(25, 2))
        assert not hasattr(clause, "__dict__")
        # the text is cached in a slot on first use, and the cache changes
        # neither ==, hash nor what pickling rebuilds
        fresh = PossClause(HornClause(frozenset("ab"), "c"), Valuation(25, 2))
        assert str(clause) == "a,b -> c @ 0.25" and str(clause) is str(clause)
        assert clause == fresh and hash(clause) == hash(fresh)
        assert hash(clause) == hash((clause.formula, clause.valuation))
        twin = pickle.loads(pickle.dumps(clause))
        assert twin == clause and hash(twin) == hash(clause)
        assert str(twin) == str(clause) and not hasattr(twin, "__dict__")
