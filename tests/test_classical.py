"""The Horn-from-entailment MQ+EQ learner and the query-only learners."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posshorn import (
    ClassicalTeacher,
    EnumerationCapReached,
    HornEntailmentLearner,
    HornKB,
    HornSyntaxError,
    ProtocolError,
    clause_space,
    drive,
    entails,
    equivalent,
    learn_by_eq_enumeration,
    learn_by_mq_enumeration,
    parse_clause,
    parse_horn_kb,
    tt_entails,
)
from helpers import random_horn_kb, variables
from test_acceptance import QUERY_CONSTANT


SLOT_TARGET = HornKB.of(parse_horn_kb("a -> b").clauses, ["a", "b", "c"])


def learner_at_eq() -> HornEntailmentLearner:
    """A learner of SLOT_TARGET waiting at its EQ with one slot, a,c -> b."""
    learner = HornEntailmentLearner(["a", "b", "c"], ClassicalTeacher(SLOT_TARGET).mq)
    learner.answer_eq_counterexample(parse_clause("a,c -> b"))
    return learner


class TestStateMachine:
    def test_fresh_instance_asks_empty_eq(self):
        learner = HornEntailmentLearner(["a", "b"], lambda c: True)
        assert not learner.pending_hypothesis.clauses
        assert learner.eqs == 1

    def test_rejects_non_counterexample(self):
        teacher = ClassicalTeacher(parse_horn_kb("a -> b"))
        learner = HornEntailmentLearner(teacher.signature, teacher.mq)
        learner.answer_eq_counterexample(parse_clause("a -> b"))
        with pytest.raises(ProtocolError):
            learner.answer_eq_counterexample(parse_clause("a -> b"))

    def test_rejects_counterexample_outside_signature(self):
        learner = HornEntailmentLearner(["a", "b"], lambda c: True)
        with pytest.raises(ProtocolError):
            learner.answer_eq_counterexample(parse_clause("a,z -> b"))
        assert not learner.antecedents


class TestRefinement:
    def test_append_on_empty(self):
        teacher = ClassicalTeacher(parse_horn_kb("p -> q1\np -> q2"))
        learner = HornEntailmentLearner(teacher.signature, teacher.mq)
        learner.answer_eq_counterexample(parse_clause("p -> q1"))
        assert learner.antecedents == [frozenset({"p"})]
        assert learner.consequents == [{"q1"}]

    def test_intersection_refines_when_target_negative(self):
        # slot {p,r} shrinks to {p} because some clause with body {p} holds
        target = parse_horn_kb("p -> q1")
        target = HornKB.of(target.clauses, target.signature | {"r"})
        teacher = ClassicalTeacher(target)
        learner = HornEntailmentLearner(teacher.signature, teacher.mq)
        learner.answer_eq_counterexample(parse_clause("p,r -> q1"))
        assert learner.antecedents == [frozenset({"p", "r"})]
        learner.answer_eq_counterexample(parse_clause("p -> q1"))
        assert learner.antecedents == [frozenset({"p"})]
        assert learner.consequents == [{"q1"}]

    def test_disjoint_intersection_appends(self):
        # {a} & {b} is empty and nothing follows from the empty body
        teacher = ClassicalTeacher(parse_horn_kb("a -> b\nb -> c"))
        learner = HornEntailmentLearner(teacher.signature, teacher.mq)
        learner.answer_eq_counterexample(parse_clause("a -> b"))
        learner.answer_eq_counterexample(parse_clause("b -> c"))
        assert learner.antecedents == [frozenset({"a"}), frozenset({"b"})]

    def test_same_antecedent_merges(self):
        teacher = ClassicalTeacher(parse_horn_kb("p -> q1\np -> q2"))
        learner = HornEntailmentLearner(teacher.signature, teacher.mq)
        learner.answer_eq_counterexample(parse_clause("p -> q1"))
        learner.answer_eq_counterexample(parse_clause("p -> q2"))
        assert learner.antecedents == [frozenset({"p"})]
        assert learner.consequents == [{"q1", "q2"}]


class TestEndToEnd:
    @pytest.mark.parametrize(
        "text",
        [
            "p -> q1\np -> q2",
            "a -> b\nb -> c",
            "",
            "true -> a",
            "a,b -> c\nc -> d\nd -> false",
        ],
    )
    def test_small_targets(self, text):
        target = parse_horn_kb(text)
        target = HornKB.of(target.clauses, target.signature | set(variables(4)))
        teacher = ClassicalTeacher(target)
        learner = HornEntailmentLearner(teacher.signature, teacher.mq)
        result = drive(learner, teacher.eq)
        assert equivalent(result, target)

    def test_exactness_on_500_random_targets(self):
        rng = random.Random(2024)
        for trial in range(500):
            n = rng.randint(1, 10)
            target = random_horn_kb(rng, n, 12)
            teacher = ClassicalTeacher(target, cex_strategy="clause-exact")
            learner = HornEntailmentLearner(teacher.signature, teacher.mq)
            result = drive(learner, teacher.eq)
            assert equivalent(result, target), f"trial {trial}: {target}"

    def test_query_budget_polynomial(self):
        # regression bound: MQs <= C*m^2*n^2 and EQs <= C*m*n + 1, C pinned at 3
        rng = random.Random(77)
        C = 3
        worst_mq = worst_eq = 0.0
        for _ in range(120):
            n = rng.randint(2, 10)
            target = random_horn_kb(rng, n, 12)
            m = max(len(target.clauses), 1)
            teacher = ClassicalTeacher(target)
            learner = HornEntailmentLearner(teacher.signature, teacher.mq)
            result = drive(learner, teacher.eq)
            assert equivalent(result, target)
            assert teacher.mq_count <= C * m * m * n * n
            assert teacher.eq_count <= C * m * n + 1
            worst_mq = max(worst_mq, teacher.mq_count / (m * m * n * n))
            worst_eq = max(worst_eq, teacher.eq_count / (m * n))
        print(f"budget constant C={C}; worst ratios mq={worst_mq:.2f} eq={worst_eq:.2f}")

    def test_hypothesis_purity(self):
        # every clause the learner ever stands behind is target-entailed,
        # hence every counterexample the teacher picks is positive
        rng = random.Random(123)
        for _ in range(50):
            target = random_horn_kb(rng, 6, 8)
            teacher = ClassicalTeacher(target)
            learner = HornEntailmentLearner(teacher.signature, teacher.mq)

            def checking_eq(hyp):
                for clause in hyp.clauses:
                    assert entails(target, clause)
                return teacher.eq(hyp)

            result = drive(learner, checking_eq)
            assert equivalent(result, target)

    def test_random_strategy_still_exact(self):
        rng = random.Random(3000)
        for seed in range(30):
            target = random_horn_kb(rng, 6, 8)
            teacher = ClassicalTeacher(target, cex_strategy="random", rng_seed=seed)
            learner = HornEntailmentLearner(teacher.signature, teacher.mq)
            assert equivalent(drive(learner, teacher.eq), target)


class TestAnyLegalTeacher:
    """The Horn learner is exact for any positive counterexample, not only a
    target clause."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2**32 - 1))
    def test_exact_within_budgets(self, n, seed):
        rng = random.Random(seed)
        target = random_horn_kb(rng, n, 8)
        # every clause the target entails; a legal counterexample is one of
        # these that the hypothesis does not entail
        entailed = [c for c in clause_space(target.signature, n) if entails(target, c)]
        teacher = ClassicalTeacher(target)
        eqs = [0]

        def eq(hypothesis):
            eqs[0] += 1
            for clause in hypothesis.clauses:
                assert entails(target, clause), f"negative counterexample {clause}"
            legal = [c for c in entailed if not entails(hypothesis, c)]
            return rng.choice(legal) if legal else None

        h = drive(HornEntailmentLearner(target.signature, teacher.mq), eq)
        assert all(tt_entails(h, c) for c in target.clauses)
        assert all(tt_entails(target, c) for c in h.clauses)
        C, m = QUERY_CONSTANT, max(len(target.clauses), 1)
        assert teacher.mq_count <= C * m * m * n * n
        assert eqs[0] <= C * m * n


# snapshots written before the learner asked its MQs through an oracle: one
# at a membership query (a,c -> b, then a -> b; sweeping body {a}) and one
# at the equivalence query after that sweep; and one written when snapshots
# still carried a status, after the teacher accepted that EQ
OLD_WAITING_MQ = (
    '{"signature": ["a", "b", "c"], "antecedents": [["a", "c"]], "consequents": [["b"]], '
    '"status": "waiting-mq", "pending_mq": "a -> b", "task": {"ant": ["a"], "cons": "b", '
    '"i": 0, "sweep": ["c", null], "asked": "b", "confirmed": [], "sweep_cache": {}}, '
    '"counters": {"mqs": 1, "eqs": 2}}'
)
OLD_WAITING_EQ = (
    '{"signature": ["a", "b", "c"], "antecedents": [["a"]], "consequents": [["b"]], '
    '"status": "waiting-eq", "pending_mq": null, "task": null, '
    '"counters": {"mqs": 3, "eqs": 3}}'
)
OLD_DONE = OLD_WAITING_EQ.replace('"waiting-eq"', '"done"')


class TestSnapshots:
    def test_snapshot_schema_fields(self):
        learner = HornEntailmentLearner(["a", "b"], lambda c: True)
        state = json.loads(learner.to_snapshot())
        assert set(state) == {"signature", "antecedents", "consequents", "counters"}

    def test_resume_produces_identical_transcript(self):
        rng = random.Random(55)
        for _ in range(20):
            target = random_horn_kb(rng, 6, 8)
            # reference run
            ref_teacher = ClassicalTeacher(target)
            drive(HornEntailmentLearner(ref_teacher.signature, ref_teacher.mq), ref_teacher.eq)

            # interrupted run: snapshot at a mid-session EQ wait, then resume
            teacher = ClassicalTeacher(target)
            learner = HornEntailmentLearner(teacher.signature, teacher.mq)
            interrupted_at = rng.randint(1, max(ref_teacher.eq_count, 2))
            while teacher.eq_count < interrupted_at:  # at least one EQ
                cex = teacher.eq(learner.pending_hypothesis)
                if cex is None:
                    break
                learner.answer_eq_counterexample(cex)
            if cex is None:
                continue
            resumed = HornEntailmentLearner.from_snapshot(learner.to_snapshot(), teacher.mq)
            assert resumed.to_snapshot() == learner.to_snapshot()
            drive(resumed, teacher.eq)
            assert teacher.transcript.to_jsonl() == ref_teacher.transcript.to_jsonl()

    def test_resume_at_every_wait(self):
        rng = random.Random(56)
        for _ in range(20):
            target = random_horn_kb(rng, 6, 8)
            ref_teacher = ClassicalTeacher(target)
            drive(HornEntailmentLearner(ref_teacher.signature, ref_teacher.mq), ref_teacher.eq)

            teacher = ClassicalTeacher(target)
            learner = HornEntailmentLearner(teacher.signature, teacher.mq)
            while True:
                learner = HornEntailmentLearner.from_snapshot(learner.to_snapshot(), teacher.mq)
                cex = teacher.eq(learner.pending_hypothesis)
                if cex is None:
                    break
                learner.answer_eq_counterexample(cex)
            resumed = HornEntailmentLearner.from_snapshot(learner.to_snapshot(), teacher.mq)
            assert equivalent(resumed.pending_hypothesis, target)
            assert (learner.mqs, learner.eqs) == (teacher.mq_count, teacher.eq_count)
            assert teacher.transcript.to_jsonl() == ref_teacher.transcript.to_jsonl()

    @pytest.mark.parametrize("status", ["running", "thinking", None])
    def test_snapshot_status_must_be_a_wait(self, status):
        state = json.loads(learner_at_eq().to_snapshot())
        state["status"] = status
        with pytest.raises(ProtocolError):
            HornEntailmentLearner.from_snapshot(json.dumps(state), lambda c: True)

    def test_old_waiting_mq_snapshot_is_refused(self):
        with pytest.raises(ProtocolError):
            HornEntailmentLearner.from_snapshot(OLD_WAITING_MQ, lambda c: True)

    def test_old_waiting_eq_snapshot_still_loads(self):
        teacher = ClassicalTeacher(SLOT_TARGET)
        resumed = HornEntailmentLearner.from_snapshot(OLD_WAITING_EQ, teacher.mq)
        state = json.loads(OLD_WAITING_EQ)
        del state["status"], state["pending_mq"], state["task"]
        assert json.loads(resumed.to_snapshot()) == state
        assert equivalent(drive(resumed, teacher.eq), SLOT_TARGET)

    def test_old_done_snapshot_loads_at_its_accepted_eq(self):
        teacher = ClassicalTeacher(SLOT_TARGET)
        resumed = HornEntailmentLearner.from_snapshot(OLD_DONE, teacher.mq)
        assert teacher.eq(resumed.pending_hypothesis) is None
        assert (teacher.mq_count, teacher.eq_count) == (0, 1)

    def test_snapshot_clauses_stay_in_the_signature(self):
        state = json.loads(learner_at_eq().to_snapshot())
        state["antecedents"][0].append("z")
        with pytest.raises(HornSyntaxError):
            HornEntailmentLearner.from_snapshot(json.dumps(state), lambda c: True)

    def test_snapshot_slots_pair_antecedents_with_consequents(self):
        state = json.loads(learner_at_eq().to_snapshot())
        state["consequents"].append(["b"])
        with pytest.raises(ProtocolError):
            HornEntailmentLearner.from_snapshot(json.dumps(state), lambda c: True)

    def test_legacy_snapshot_fields_are_ignored(self):
        state = json.loads(learner_at_eq().to_snapshot())
        legacy = dict(state, mq_answer=None, counters=dict(state["counters"], steps=7))
        resumed = HornEntailmentLearner.from_snapshot(json.dumps(legacy), lambda c: True)
        assert json.loads(resumed.to_snapshot()) == state


class TestMqOnlyEnumeration:
    def test_recovers_bounded_target(self):
        target = parse_horn_kb("p -> q1\np -> q2")
        target = HornKB.of(target.clauses, {"p", "q1", "q2"})
        teacher = ClassicalTeacher(target)
        learned = learn_by_mq_enumeration(teacher.signature, 1, teacher.mq)
        assert equivalent(learned, target)

    def test_empty_target(self):
        learned = learn_by_mq_enumeration(["a", "b"], 1, lambda c: False)
        assert not learned.clauses

    def test_expressibility_failure_is_visible(self):
        target = parse_horn_kb("a,b -> c")
        teacher = ClassicalTeacher(target)
        learned = learn_by_mq_enumeration(teacher.signature, 0, teacher.mq)
        assert not equivalent(learned, target)

    def test_clause_space_has_no_tautologies(self):
        for clause in clause_space(["a", "b", "c"], 3):
            assert not clause.is_tautology


def all_horn_kbs(signature):
    """Every Horn KB over the signature, fewest clauses first."""
    clauses = list(clause_space(signature, len(signature)))
    for size in range(len(clauses) + 1):
        for combo in combinations(clauses, size):
            yield HornKB.of(combo, signature)


class TestEqOnlyEnumeration:
    def test_empty_target_found_first(self):
        teacher = ClassicalTeacher(HornKB.of((), ["a", "b"]))
        found = learn_by_eq_enumeration(
            all_horn_kbs(["a", "b"]), teacher.eq, cap=10
        )
        assert not found.clauses

    def test_single_clause_target_in_first_stratum(self):
        target = parse_horn_kb("a -> b")
        target = HornKB.of(target.clauses, ["a", "b"])
        teacher = ClassicalTeacher(target)
        found = learn_by_eq_enumeration(
            all_horn_kbs(["a", "b"]), teacher.eq, cap=100
        )
        assert equivalent(found, target)
        # within the <=1-clause strata: 1 empty KB + at most 6 single clauses
        assert teacher.eq_count <= 7

    def test_cap_reached(self):
        teacher = ClassicalTeacher(parse_horn_kb("a -> b\nb -> c"))
        with pytest.raises(EnumerationCapReached):
            learn_by_eq_enumeration(
                all_horn_kbs(["a", "b", "c"]), teacher.eq, cap=2
            )
