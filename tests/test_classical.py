"""The resumable Horn-from-entailment learner and the query-only learners."""

import json
import random
from itertools import combinations

import pytest

from posshorn import (
    DONE,
    RUNNING,
    WAITING_EQ,
    WAITING_MQ,
    ClassicalTeacher,
    EnumerationCapReached,
    HornEntailmentLearner,
    HornKB,
    ProtocolError,
    QueryBudgetExceeded,
    clause_space,
    drive,
    entails,
    equivalent,
    learn_by_eq_enumeration,
    learn_by_mq_enumeration,
    parse_clause,
    parse_horn_kb,
)
from helpers import random_horn_kb, variables


def run_to_eq(learner):
    while learner.status == RUNNING:
        learner.step()


def drive_mqs(learner, teacher):
    """Advance the instance until its next EQ, answering MQs from the teacher."""
    while True:
        run_to_eq(learner)
        if learner.status != WAITING_MQ:
            return
        learner.answer_mq(teacher.mq(learner.pending_mq))


class TestStateMachine:
    def test_fresh_instance_asks_empty_eq(self):
        learner = HornEntailmentLearner(["a", "b"])
        assert learner.status == RUNNING
        run_to_eq(learner)
        assert learner.status == WAITING_EQ
        assert not learner.pending_hypothesis.clauses
        assert learner.eqs == 1

    def test_done_instance_never_resumes(self):
        learner = HornEntailmentLearner(["a"])
        run_to_eq(learner)
        learner.answer_eq_yes()
        assert learner.status == DONE
        assert not learner.result.clauses
        with pytest.raises(ProtocolError):
            learner.step()

    def test_rejects_answers_out_of_turn(self):
        learner = HornEntailmentLearner(["a", "b"])
        with pytest.raises(ProtocolError):
            learner.answer_mq(True)
        run_to_eq(learner)
        with pytest.raises(ProtocolError):
            learner.answer_mq(True)

    def test_rejects_non_counterexample(self):
        teacher = ClassicalTeacher(parse_horn_kb("a -> b"))
        learner = HornEntailmentLearner(teacher.signature)
        drive_mqs(learner, teacher)
        learner.answer_eq_counterexample(parse_clause("a -> b"))
        drive_mqs(learner, teacher)
        with pytest.raises(ProtocolError):
            learner.answer_eq_counterexample(parse_clause("a -> b"))


class TestRefinement:
    def test_append_on_empty(self):
        teacher = ClassicalTeacher(parse_horn_kb("p -> q1\np -> q2"))
        learner = HornEntailmentLearner(teacher.signature)
        drive_mqs(learner, teacher)
        learner.answer_eq_counterexample(parse_clause("p -> q1"))
        drive_mqs(learner, teacher)
        assert learner.antecedents == [frozenset({"p"})]
        assert learner.consequents == [{"q1"}]

    def test_intersection_refines_when_target_negative(self):
        # slot {p,r} shrinks to {p} because some clause with body {p} holds
        target = parse_horn_kb("p -> q1")
        target = HornKB.of(target.clauses, target.signature | {"r"})
        teacher = ClassicalTeacher(target)
        learner = HornEntailmentLearner(teacher.signature)
        drive_mqs(learner, teacher)
        learner.answer_eq_counterexample(parse_clause("p,r -> q1"))
        drive_mqs(learner, teacher)
        assert learner.antecedents == [frozenset({"p", "r"})]
        learner.answer_eq_counterexample(parse_clause("p -> q1"))
        drive_mqs(learner, teacher)
        assert learner.antecedents == [frozenset({"p"})]
        assert learner.consequents == [{"q1"}]

    def test_disjoint_intersection_appends(self):
        # {a} & {b} is empty and nothing follows from the empty body
        teacher = ClassicalTeacher(parse_horn_kb("a -> b\nb -> c"))
        learner = HornEntailmentLearner(teacher.signature)
        drive_mqs(learner, teacher)
        learner.answer_eq_counterexample(parse_clause("a -> b"))
        drive_mqs(learner, teacher)
        learner.answer_eq_counterexample(parse_clause("b -> c"))
        drive_mqs(learner, teacher)
        assert learner.antecedents == [frozenset({"a"}), frozenset({"b"})]

    def test_same_antecedent_merges(self):
        teacher = ClassicalTeacher(parse_horn_kb("p -> q1\np -> q2"))
        learner = HornEntailmentLearner(teacher.signature)
        drive_mqs(learner, teacher)
        learner.answer_eq_counterexample(parse_clause("p -> q1"))
        drive_mqs(learner, teacher)
        learner.answer_eq_counterexample(parse_clause("p -> q2"))
        drive_mqs(learner, teacher)
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
        learner = HornEntailmentLearner(teacher.signature)
        result = drive(learner, teacher.mq, teacher.eq)
        assert equivalent(result, target)

    def test_exactness_on_500_random_targets(self):
        rng = random.Random(2024)
        for trial in range(500):
            n = rng.randint(1, 10)
            target = random_horn_kb(rng, n, 12)
            teacher = ClassicalTeacher(target, cex_strategy="clause-exact")
            learner = HornEntailmentLearner(teacher.signature)
            result = drive(learner, teacher.mq, teacher.eq)
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
            learner = HornEntailmentLearner(teacher.signature)
            result = drive(learner, teacher.mq, teacher.eq)
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
            learner = HornEntailmentLearner(teacher.signature)

            def checking_eq(hyp):
                for clause in hyp.clauses:
                    assert entails(target, clause)
                return teacher.eq(hyp)

            result = drive(learner, teacher.mq, checking_eq)
            assert equivalent(result, target)

    def test_random_strategy_still_exact(self):
        rng = random.Random(3000)
        for seed in range(30):
            target = random_horn_kb(rng, 6, 8)
            teacher = ClassicalTeacher(target, cex_strategy="random", rng_seed=seed)
            learner = HornEntailmentLearner(teacher.signature)
            assert equivalent(drive(learner, teacher.mq, teacher.eq), target)


class TestSnapshots:
    def test_snapshot_schema_fields(self):
        learner = HornEntailmentLearner(["a", "b"])
        run_to_eq(learner)
        state = json.loads(learner.to_snapshot())
        assert set(state) == {
            "signature",
            "antecedents",
            "consequents",
            "status",
            "pending_mq",
            "mq_answer",
            "task",
            "counters",
        }

    def test_resume_produces_identical_transcript(self):
        rng = random.Random(55)
        for _ in range(20):
            target = random_horn_kb(rng, 6, 8)
            # reference run
            ref_teacher = ClassicalTeacher(target)
            ref = HornEntailmentLearner(teacher_signature := ref_teacher.signature)
            drive(ref, ref_teacher.mq, ref_teacher.eq)

            # interrupted run: snapshot at a mid-session wait, then resume
            teacher = ClassicalTeacher(target)
            learner = HornEntailmentLearner(teacher_signature)
            interrupted_at = rng.randint(1, max(ref_teacher.mq_count, 2))
            queries = 0
            while learner.status != DONE and queries < interrupted_at:
                run_to_eq(learner)
                if learner.status == WAITING_MQ:
                    learner.answer_mq(teacher.mq(learner.pending_mq))
                    queries += 1
                elif learner.status == WAITING_EQ:
                    cex = teacher.eq(learner.pending_hypothesis)
                    if cex is None:
                        learner.answer_eq_yes()
                    else:
                        learner.answer_eq_counterexample(cex)
            if learner.status == DONE:
                continue
            resumed = HornEntailmentLearner.from_snapshot(learner.to_snapshot())
            assert resumed.to_snapshot() == learner.to_snapshot()
            drive(resumed, teacher.mq, teacher.eq)
            assert teacher.transcript.to_jsonl() == ref_teacher.transcript.to_jsonl()


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

    def test_budget_enforced(self):
        with pytest.raises(QueryBudgetExceeded):
            learn_by_mq_enumeration(variables(8), 3, lambda c: False, max_queries=10)

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
