"""Teacher oracles: query answering, counterexample strategies, transcripts."""

import random

import pytest

from posshorn import (
    ClassicalTeacher,
    HornEntailmentLearner,
    HornKB,
    PossibilisticTeacher,
    ScriptExhausted,
    TeacherError,
    PossKB,
    Valuation,
    drive,
    find_counterexample,
    parse_clause,
    parse_horn_kb,
    parse_poss_clause,
    parse_poss_kb,
    poss_entails,
    val_of,
)
from helpers import random_poss_kb


TARGET_TEXT = "p -> q1 @ 0.3\np -> q2 @ 0.7"


@pytest.fixture
def teacher() -> PossibilisticTeacher:
    return PossibilisticTeacher(parse_poss_kb(TARGET_TEXT))


class TestMembership:
    def test_contained_clause(self, teacher):
        assert teacher.mq(parse_clause("p -> q1"), Valuation.parse("0.3"))

    def test_just_above_val(self, teacher):
        assert not teacher.mq(parse_clause("p -> q1"), Valuation.parse("0.31"))

    def test_tautology_at_one(self, teacher):
        assert teacher.mq(parse_clause("p -> p"), Valuation.one())

    def test_counts_and_logs(self, teacher):
        teacher.mq(parse_clause("p -> q1"), Valuation.parse("0.1"))
        teacher.mq(parse_clause("p -> q2"), Valuation.parse("0.9"))
        assert teacher.mq_count == 2
        events = teacher.transcript.events
        assert [e.answer for e in events] == ["yes", "no"]
        assert [e.index for e in events] == [1, 2]

    def test_signature_mismatch_rejected(self, teacher):
        with pytest.raises(TeacherError):
            teacher.mq(parse_clause("zz -> p"), Valuation.parse("0.1"))


class TestEquivalence:
    def test_yes_on_equivalent(self, teacher):
        assert teacher.eq(parse_poss_kb(TARGET_TEXT)) is None
        assert teacher.eq_count == 1

    def test_counterexample_on_missing_level(self, teacher):
        cex = teacher.eq(parse_poss_kb("p -> q1 @ 0.3"))
        assert str(cex) == "p -> q2 @ 0.7"

    def test_extra_hypothesis_variables_tolerated(self, teacher):
        hyp = parse_poss_kb("w -> w @ 0.1\np -> q1 @ 0.3\np -> q2 @ 0.7")
        assert teacher.eq(hyp) is None

    def test_soundness_of_returned_counterexamples(self):
        rng = random.Random(5)
        for _ in range(100):
            target = random_poss_kb(rng, 5, 6, precision=1)
            hyp = random_poss_kb(rng, 5, 6, precision=1)
            teacher = PossibilisticTeacher(target)
            cex = teacher.eq(hyp)
            if cex is None:
                continue
            t_side = poss_entails(target, cex)
            h_side = poss_entails(hyp, cex)
            assert t_side != h_side

    def test_positive_only_when_hypothesis_is_target_entailed(self):
        # hypotheses made of target-entailed clauses only draw positive cexs
        rng = random.Random(9)
        for _ in range(100):
            target = random_poss_kb(rng, 5, 6, precision=1)
            entailed = [
                c for c in target.sorted_clauses if rng.random() < 0.5
            ]
            hyp = PossKB.of(entailed, target.signature)
            teacher = PossibilisticTeacher(target)
            cex = teacher.eq(hyp)
            if cex is not None:
                assert poss_entails(target, cex) and not poss_entails(hyp, cex)


class TestStrategies:
    def test_clause_exact_is_deterministic_scan(self, teacher):
        empty = PossKB.of((), teacher.signature)
        assert str(teacher.eq(empty)) == "p -> q1 @ 0.3"

    def test_adversarial_low_lowers_the_degree(self):
        target = parse_poss_kb(TARGET_TEXT)
        teacher = PossibilisticTeacher(
            target, cex_strategy="adversarial-low", rng_seed=13, cex_precision=2
        )
        seen = set()
        for _ in range(25):
            cex = teacher.eq(PossKB.of((), target.signature))
            assert cex is not None
            assert poss_entails(target, cex)
            assert cex.valuation <= val_of(target, cex.formula)
            seen.add(cex.valuation)
        assert any(v.prec() == 2 for v in seen)  # exercises degrees finer than the target

    def test_random_strategy_is_seed_deterministic(self):
        target = parse_poss_kb(TARGET_TEXT)
        picks = []
        for _ in range(2):
            teacher = PossibilisticTeacher(target, cex_strategy="random", rng_seed=99)
            picks.append(
                [str(teacher.eq(PossKB.of((), target.signature))) for _ in range(10)]
            )
        assert picks[0] == picks[1]

    def test_scripted_replay_and_exhaustion(self):
        target = parse_poss_kb(TARGET_TEXT)
        script = [parse_poss_clause("p -> q1 @ 0.1")]
        teacher = PossibilisticTeacher(target, cex_strategy="scripted", script=script)
        empty = PossKB.of((), target.signature)
        assert str(teacher.eq(empty)) == "p -> q1 @ 0.1"
        with pytest.raises(ScriptExhausted):
            teacher.eq(empty)

    def test_scripted_rejects_invalid_entry(self):
        target = parse_poss_kb(TARGET_TEXT)
        script = [parse_poss_clause("p -> q1 @ 0.1")]
        teacher = PossibilisticTeacher(target, cex_strategy="scripted", script=script)
        hyp = parse_poss_kb("p -> q1 @ 0.3")  # already entails the scripted entry
        with pytest.raises(TeacherError):
            teacher.eq(hyp)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(TeacherError):
            PossibilisticTeacher(parse_poss_kb(TARGET_TEXT), cex_strategy="nope")


class TestFindCounterexample:
    def test_missing_clause_found(self):
        target = parse_poss_kb(TARGET_TEXT)
        hyp = parse_poss_kb("p -> q1 @ 0.3")
        positive, cex = find_counterexample(target, hyp)
        assert positive and str(cex) == "p -> q2 @ 0.7"

    def test_none_iff_equivalent(self):
        target = parse_poss_kb(TARGET_TEXT)
        assert find_counterexample(target, target) is None

    def test_positive_scan_runs_first(self):
        target = parse_poss_kb(TARGET_TEXT)
        hyp = parse_poss_kb("p -> q3 @ 0.5")
        positive, cex = find_counterexample(target, hyp)
        assert positive and str(cex) == "p -> q1 @ 0.3"

    def test_negative_fallback(self):
        target = parse_poss_kb("p -> q1 @ 0.3")
        hyp = parse_poss_kb("p -> q1 @ 0.3\np -> q3 @ 0.5")
        positive, cex = find_counterexample(target, hyp)
        assert not positive and str(cex) == "p -> q3 @ 0.5"


class TestTranscriptDeterminism:
    def test_identical_sessions_identical_bytes(self):
        logs = []
        for _ in range(2):
            target = parse_poss_kb(TARGET_TEXT)
            teacher = PossibilisticTeacher(
                target, cex_strategy="adversarial-low", rng_seed=7
            )
            teacher.mq(parse_clause("p -> q1"), Valuation.parse("0.2"))
            teacher.eq(PossKB.of((), target.signature))
            teacher.eq(parse_poss_kb("p -> q1 @ 0.3"))
            logs.append(teacher.transcript.to_jsonl())
        assert logs[0] == logs[1]


class TestClassicalTeacher:
    def test_mq_eq_and_counterexample(self):
        teacher = ClassicalTeacher(parse_horn_kb("a -> b\nb -> c"))
        assert teacher.mq(parse_clause("a -> c"))
        assert not teacher.mq(parse_clause("c -> a"))
        cex = teacher.eq(parse_horn_kb("a -> b"))
        assert str(cex) == "b -> c"
        assert teacher.eq(parse_horn_kb("a -> b\nb -> c\na -> c")) is None


# Classical sessions on one target, one block per strategy: a full drive()
# run, then one EQ on an over-general hypothesis (a negative counterexample).
# Recorded before the classical teacher became the possibilistic teacher
# at degree 1; the bytes must not change.
CLASSICAL_TARGET = "a -> b\nb,c -> false"
CLASSICAL_SCRIPT = "a,c -> false; b,c -> false; a -> b; b -> a"
CLASSICAL_CLAUSE_EXACT = """\
{"event": "eq", "input": "", "valuation": null, "answer": "a -> b", "instance": "learner", "index": 1}
{"event": "eq", "input": "a -> b", "valuation": null, "answer": "b,c -> false", "instance": "learner", "index": 2}
{"event": "mq", "input": "true -> a", "valuation": null, "answer": "no", "instance": "learner", "index": 3}
{"event": "mq", "input": "true -> b", "valuation": null, "answer": "no", "instance": "learner", "index": 4}
{"event": "mq", "input": "true -> c", "valuation": null, "answer": "no", "instance": "learner", "index": 5}
{"event": "mq", "input": "true -> false", "valuation": null, "answer": "no", "instance": "learner", "index": 6}
{"event": "eq", "input": "a -> b; b,c -> false", "valuation": null, "answer": "yes", "instance": "learner", "index": 7}
{"event": "eq", "input": "a -> b; b -> a; b,c -> false", "valuation": null, "answer": "b -> a", "instance": "check", "index": 8}
"""
CLASSICAL_RANDOM_SEED_5 = """\
{"event": "eq", "input": "", "valuation": null, "answer": "b,c -> false", "instance": "learner", "index": 1}
{"event": "eq", "input": "b,c -> false", "valuation": null, "answer": "a -> b", "instance": "learner", "index": 2}
{"event": "mq", "input": "true -> a", "valuation": null, "answer": "no", "instance": "learner", "index": 3}
{"event": "mq", "input": "true -> b", "valuation": null, "answer": "no", "instance": "learner", "index": 4}
{"event": "mq", "input": "true -> c", "valuation": null, "answer": "no", "instance": "learner", "index": 5}
{"event": "mq", "input": "true -> false", "valuation": null, "answer": "no", "instance": "learner", "index": 6}
{"event": "eq", "input": "a -> b; b,c -> false", "valuation": null, "answer": "yes", "instance": "learner", "index": 7}
{"event": "eq", "input": "a -> b; b -> a; b,c -> false", "valuation": null, "answer": "b -> a", "instance": "check", "index": 8}
"""
CLASSICAL_SCRIPTED = """\
{"event": "eq", "input": "", "valuation": null, "answer": "a,c -> false", "instance": "learner", "index": 1}
{"event": "eq", "input": "a,c -> false", "valuation": null, "answer": "b,c -> false", "instance": "learner", "index": 2}
{"event": "mq", "input": "c -> a", "valuation": null, "answer": "no", "instance": "learner", "index": 3}
{"event": "mq", "input": "c -> b", "valuation": null, "answer": "no", "instance": "learner", "index": 4}
{"event": "mq", "input": "c -> false", "valuation": null, "answer": "no", "instance": "learner", "index": 5}
{"event": "eq", "input": "a,c -> false; b,c -> false", "valuation": null, "answer": "a -> b", "instance": "learner", "index": 6}
{"event": "mq", "input": "a -> b", "valuation": null, "answer": "yes", "instance": "learner", "index": 7}
{"event": "mq", "input": "a -> c", "valuation": null, "answer": "no", "instance": "learner", "index": 8}
{"event": "mq", "input": "a -> false", "valuation": null, "answer": "no", "instance": "learner", "index": 9}
{"event": "eq", "input": "a -> b; b,c -> false", "valuation": null, "answer": "yes", "instance": "learner", "index": 10}
{"event": "eq", "input": "a -> b; b -> a; b,c -> false", "valuation": null, "answer": "b -> a", "instance": "check", "index": 11}
"""


CLASSICAL_EXPECTED = {
    "clause-exact": CLASSICAL_CLAUSE_EXACT,
    # no degree to lower classically: the clause-exact formula
    "adversarial-low": CLASSICAL_CLAUSE_EXACT,
    "random": CLASSICAL_RANDOM_SEED_5,
    "scripted": CLASSICAL_SCRIPTED,
}


class TestClassicalTranscripts:
    @pytest.mark.parametrize("strategy", sorted(CLASSICAL_EXPECTED))
    def test_session_bytes(self, strategy):
        target = parse_horn_kb(CLASSICAL_TARGET)
        script = [parse_clause(s) for s in CLASSICAL_SCRIPT.split("; ")]
        teacher = ClassicalTeacher(
            target, cex_strategy=strategy, rng_seed=5, script=script
        )
        drive(
            HornEntailmentLearner(teacher.signature),
            lambda c: teacher.mq(c, instance="learner"),
            lambda kb: teacher.eq(kb, instance="learner"),
        )
        over = HornKB.of(target.clauses | {parse_clause("b -> a")}, target.signature)
        assert teacher.eq(over, instance="check") == parse_clause("b -> a")
        assert teacher.transcript.to_jsonl() == CLASSICAL_EXPECTED[strategy]
