"""PAC conversion: sample schedule, sampling-EQ behavior, error estimation."""

import random
from fractions import Fraction

import pytest

from posshorn import (
    PossibilisticTeacher,
    PossKB,
    ProtocolError,
    UniformClauseDistribution,
    empirical_error,
    pac_learn,
    parse_poss_clause,
    parse_poss_kb,
    poss_entails,
    sample_size,
)
from helpers import random_poss_kb


WORKED_TARGET = "p -> q1 @ 0.3\np -> q2 @ 0.7"


class TestSampleSchedule:
    def test_first_query_size(self):
        assert sample_size(0.1, 0.05, 1) == 37

    def test_monotone_in_query_index(self):
        sizes = [sample_size(0.1, 0.05, i) for i in range(1, 20)]
        assert sizes == sorted(sizes)

    def test_rejects_bad_parameters(self):
        target = parse_poss_kb(WORKED_TARGET)
        dist = UniformClauseDistribution(target, seed=0)
        with pytest.raises(ValueError):
            pac_learn(target.signature, dist, 0.0, 0.5, None)
        with pytest.raises(ValueError):
            pac_learn(target.signature, dist, 0.5, 1.0, None)


class TestDistributions:
    def test_uniform_labels_match_target(self):
        target = parse_poss_kb(WORKED_TARGET)
        dist = UniformClauseDistribution(target, seed=3)
        for _ in range(200):
            example, label = dist.sample()
            assert label == poss_entails(target, example)

    def test_uniform_is_seed_deterministic(self):
        target = parse_poss_kb(WORKED_TARGET)
        a = UniformClauseDistribution(target, seed=5)
        b = UniformClauseDistribution(target, seed=5)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]


class TestPacLearning:
    def test_learns_worked_target(self):
        target = parse_poss_kb(WORKED_TARGET)
        teacher = PossibilisticTeacher(target)
        dist = UniformClauseDistribution(target, seed=11)
        h = pac_learn(target.signature, dist, 0.1, 0.05, teacher.mq)
        error = empirical_error(h, UniformClauseDistribution(target, seed=999), 2000)
        assert error <= Fraction(1, 10)

    def test_sampled_disagreements_separate_target_and_hypothesis(self):
        rng = random.Random(8)
        for seed in range(10):
            target = random_poss_kb(rng, 4, 5, precision=1)
            teacher = PossibilisticTeacher(target)
            dist = UniformClauseDistribution(target, seed=seed)
            captured = []

            def spy_mq(phi, degree, instance=""):
                return teacher.mq(phi, degree, instance=instance)

            h = pac_learn(target.signature, dist, 0.2, 0.1, spy_mq)
            # every disagreement the run consumed was positive for the target
            # (checked inside pac_learn); the result is near the target
            error = empirical_error(
                h, UniformClauseDistribution(target, seed=seed + 1000), 500
            )
            assert error <= Fraction(2, 10)

    def test_exact_eq_substitution_reduces_to_plain_learning(self):
        target = parse_poss_kb(WORKED_TARGET)
        ref_teacher = PossibilisticTeacher(target)
        reference = pac_learn(
            target.signature,
            UniformClauseDistribution(target, seed=0),
            0.1,
            0.05,
            ref_teacher.mq,
            exact_eq=ref_teacher.eq,
        )
        from posshorn import learn_with_mq_eq

        plain_teacher = PossibilisticTeacher(target)
        plain = learn_with_mq_eq(target.signature, plain_teacher.mq, plain_teacher.eq)
        assert reference == plain
        assert (
            ref_teacher.transcript.to_jsonl() == plain_teacher.transcript.to_jsonl()
        )


    def test_negative_disagreement_is_a_protocol_error(self):
        # a sampler whose labels contradict the target: the hypothesis
        # entails the tautology, the label says no
        class NegativeLabels:
            def sample(self):
                return parse_poss_clause("p -> p @ 0.5"), False

        target = parse_poss_kb(WORKED_TARGET)
        teacher = PossibilisticTeacher(target)
        with pytest.raises(ProtocolError, match="negative disagreement"):
            pac_learn(target.signature, NegativeLabels(), 0.1, 0.05, teacher.mq)


class TestEmpiricalError:
    def test_zero_on_equivalent_hypothesis(self):
        target = parse_poss_kb(WORKED_TARGET)
        dist = UniformClauseDistribution(target, seed=2)
        assert empirical_error(target, dist, 500) == 0

    def test_positive_on_empty_hypothesis(self):
        target = parse_poss_kb(WORKED_TARGET)
        dist = UniformClauseDistribution(target, seed=2)
        empty = PossKB.of((), target.signature)
        assert empirical_error(empty, dist, 500) > 0

    def test_reproducible_under_fixed_seed(self):
        target = parse_poss_kb(WORKED_TARGET)
        empty = PossKB.of((), target.signature)
        runs = [
            empirical_error(empty, UniformClauseDistribution(target, seed=4), 300)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_rejects_empty_sample(self):
        target = parse_poss_kb(WORKED_TARGET)
        with pytest.raises(ValueError):
            empirical_error(target, UniformClauseDistribution(target, seed=0), 0)
