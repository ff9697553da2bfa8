"""PAC conversion: sample schedule, sampling-EQ behavior, error estimation."""

import random
from fractions import Fraction

import pytest

import posshorn.pac as pac
from posshorn import (
    FALSUM,
    HornClause,
    PossClause,
    PossibilisticTeacher,
    PossKB,
    ProtocolError,
    RunStats,
    UniformClauseDistribution,
    Valuation,
    empirical_error,
    pac_learn,
    parse_poss_clause,
    parse_poss_kb,
    poss_entails,
    sample_size,
)
from helpers import random_poss_kb


WORKED_TARGET = "p -> q1 @ 0.3\np -> q2 @ 0.7"


class ReferenceSampler:
    """The object-building sampler the int draws replace: a frozenset, a
    consequent list, a Valuation and a clause per draw, labelled with
    poss_entails."""

    def __init__(self, target, seed):
        self.target = target
        self.draws = 0
        self._rng = random.Random(seed)
        self._variables = sorted(target.signature)

    def sample(self):
        rng = self._rng
        antecedent = frozenset(v for v in self._variables if rng.random() < 0.5)
        consequents = [v for v in self._variables if v not in antecedent]
        consequents.append(FALSUM)
        consequent = rng.choice(consequents)
        valuation = Valuation(rng.randint(1, 100), 2)
        example = PossClause(HornClause(antecedent, consequent), valuation)
        self.draws += 1
        return example, poss_entails(self.target, example)


class SampleOnly:
    """A UniformClauseDistribution seen through ``sample()`` alone."""

    def __init__(self, target, seed):
        self._dist = UniformClauseDistribution(target, seed=seed)

    def sample(self):
        return self._dist.sample()

    @property
    def draws(self):
        return self._dist.draws


class SkewedSampler:
    """A sampler that is not uniform, seen through ``sample()`` alone: the
    i-th variable in sorted order joins the antecedent with probability
    0.9**(i+1), the free consequents weigh len - k at position k (falsum
    last, lightest), and the degree m/100 weighs 101 - m.  Labels come from
    poss_entails."""

    def __init__(self, target, seed):
        self.target = target
        self._rng = random.Random(seed)
        self._variables = sorted(target.signature)
        self._degrees = [Valuation(m, 2) for m in range(1, 101)]
        self._degree_weights = [101 - m for m in range(1, 101)]

    def sample(self):
        rng = self._rng
        antecedent = frozenset(
            v for i, v in enumerate(self._variables) if rng.random() < 0.9 ** (i + 1)
        )
        consequents = [v for v in self._variables if v not in antecedent] + [FALSUM]
        weights = range(len(consequents), 0, -1)
        consequent = rng.choices(consequents, weights=weights)[0]
        valuation = rng.choices(self._degrees, weights=self._degree_weights)[0]
        example = PossClause(HornClause(antecedent, consequent), valuation)
        return example, poss_entails(self.target, example)


def seeded_targets(count, precisions=(1, 2, 3)):
    rng = random.Random(31)
    for k in range(count):
        p = precisions[k % len(precisions)]
        yield k, random_poss_kb(rng, 1 + k % 8, 3 + k % 10, precision=p)


def run_pac(signature, target, dist, epsilon=0.1, delta=0.05):
    """(hypothesis, transcript, draws) of a PAC run whose teacher holds
    ``target``."""
    teacher = PossibilisticTeacher(target)
    hypothesis = pac_learn(signature, dist, epsilon, delta, teacher.mq)
    return hypothesis, teacher.transcript.to_jsonl(), dist.draws


@pytest.fixture
def sample_calls(monkeypatch):
    """Counts calls of UniformClauseDistribution.sample."""
    calls = [0]
    sample = UniformClauseDistribution.sample

    def counted(self):
        calls[0] += 1
        return sample(self)

    monkeypatch.setattr(UniformClauseDistribution, "sample", counted)
    return calls


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

    @pytest.mark.parametrize("epsilon,delta", [(5e-324, 0.5), (0.5, 5e-324)])
    def test_rejects_an_infinite_sample_size(self, epsilon, delta):
        target = parse_poss_kb(WORKED_TARGET)
        dist = UniformClauseDistribution(target, seed=0)
        with pytest.raises(ValueError, match="infinite sample size"):
            pac_learn(target.signature, dist, epsilon, delta, None)
        assert dist.draws == 0


class TestDistributions:
    def test_uniform_labels_match_target(self):
        target = parse_poss_kb(WORKED_TARGET)
        dist = UniformClauseDistribution(target, seed=3)
        for _ in range(200):
            example, label = dist.sample()
            assert label == poss_entails(target, example)

    def test_stream_matches_reference_sampler(self):
        # precision 1 targets lie on a coarser grid than the draws, 2 and 3
        # on an equal or finer one
        for k, target in seeded_targets(60):
            dist = UniformClauseDistribution(target, seed=k)
            reference = ReferenceSampler(target, seed=k)
            for _ in range(300):
                assert dist.sample() == reference.sample(), f"target {k}"
            assert dist.draws == reference.draws == 300

    def test_draw_is_sample_as_ints(self):
        target = parse_poss_kb(WORKED_TARGET)
        drawn = UniformClauseDistribution(target, seed=6)
        sampled = UniformClauseDistribution(target, seed=6)
        for _ in range(200):
            ant, cons, m, label = drawn.draw()
            assert sampled.sample() == (drawn.example(ant, cons, m), label)

    def test_uniform_is_seed_deterministic(self):
        target = parse_poss_kb(WORKED_TARGET)
        a = UniformClauseDistribution(target, seed=5)
        b = UniformClauseDistribution(target, seed=5)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_examples_with_one_mask_share_their_antecedent(self):
        target = parse_poss_kb(WORKED_TARGET)
        dist = UniformClauseDistribution(target, seed=8)
        first: dict = {}
        for _ in range(200):
            example, _ = dist.sample()
            antecedent = example.formula.antecedent
            assert first.setdefault(antecedent, antecedent) is antecedent
        # three variables give eight masks, and every one was drawn
        assert len(first) == 8

    def test_shared_antecedents_stay_within_their_bound(self):
        signature = [f"x{i}" for i in range(20)]
        target = PossKB.of([parse_poss_clause("x0 -> x1 @ 0.5")], signature)
        dist = UniformClauseDistribution(target, seed=9)
        reference = ReferenceSampler(target, seed=9)
        largest = 0
        for _ in range(20_000):
            # clearing the table changes no example
            assert dist.sample() == reference.sample()
            largest = max(largest, len(dist._antecedents))
        assert largest == pac._SHARED_ANTECEDENTS


class TestPacLearning:
    def test_learns_worked_target(self):
        target = parse_poss_kb(WORKED_TARGET)
        teacher = PossibilisticTeacher(target)
        dist = UniformClauseDistribution(target, seed=11)
        h = pac_learn(target.signature, dist, 0.1, 0.05, teacher.mq)
        error = empirical_error(h, UniformClauseDistribution(target, seed=999), 2000)
        assert error <= Fraction(1, 10)

    def test_within_epsilon_under_a_skewed_sampler(self):
        # acceptance 9's targets, epsilon and delta; the sampler is the
        # teacher, and a negative disagreement would raise ProtocolError
        rng = random.Random(999)
        within = 0
        for seed in range(100):
            target = random_poss_kb(rng, 5, 6, precision=1)
            teacher = PossibilisticTeacher(target)
            stats = RunStats()
            h = pac_learn(
                target.signature, SkewedSampler(target, seed), 0.1, 0.05, teacher.mq,
                stats=stats,
            )
            prec = max([1] + [c.valuation.prec() for c in target.clauses])
            assert stats.escalations <= prec - 1, f"trial {seed}"
            error = empirical_error(h, SkewedSampler(target, 10_000 + seed), 2000)
            within += error <= Fraction(1, 10)
        assert within >= 90, f"only {within}/100 trials within epsilon"

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

    def test_int_path_matches_sample_path(self, sample_calls):
        for k, target in seeded_targets(36):
            before = sample_calls[0]
            h, transcript, draws = run_pac(
                target.signature, target, UniformClauseDistribution(target, seed=k)
            )
            # the sampled EQs never built an example through sample()
            assert sample_calls[0] == before, f"target {k}"
            reference = run_pac(target.signature, target, SampleOnly(target, k))
            assert (h, transcript, draws) == reference, f"target {k}"
            errors = [
                empirical_error(kb, UniformClauseDistribution(target, seed=k + 500), 400)
                for kb in (h, reference[0])
            ]
            assert errors[0] == errors[1], f"target {k}"

    def test_wider_learner_signature_falls_back(self, sample_calls):
        rng = random.Random(12)
        for k in range(10):
            target = random_poss_kb(rng, 5, 7, precision=2)
            wide = target.with_signature({"zz"})
            dist = UniformClauseDistribution(target, seed=k)
            before = sample_calls[0]
            got = run_pac(wide.signature, wide, dist)
            assert sample_calls[0] - before == dist.draws, f"target {k}"
            assert got == run_pac(wide.signature, wide, ReferenceSampler(target, k))

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

    @pytest.mark.parametrize("seed", range(5))
    def test_negative_disagreement_has_the_same_text_on_ints(self, seed):
        # an MQ oracle that confirms everything puts clauses the target does
        # not entail into the hypothesis
        target = parse_poss_kb(WORKED_TARGET)
        messages = []
        for dist in (
            UniformClauseDistribution(target, seed=seed),
            SampleOnly(target, seed),
        ):
            with pytest.raises(ProtocolError, match="negative disagreement on ") as caught:
                pac_learn(target.signature, dist, 0.1, 0.05, lambda *a, **k: True)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


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

    def test_plain_distribution_counts_on_ints(self, sample_calls):
        # the same test set through draw(), sample() alone and the
        # object-building reference
        for k, target in seeded_targets(36):
            half = PossKB.of(target.sorted_clauses[::2], target.signature)
            for h in (half, PossKB.of((), target.signature)):
                plain = UniformClauseDistribution(target, seed=k)
                before = sample_calls[0]
                error = empirical_error(h, plain, 300)
                assert sample_calls[0] == before, f"target {k}"
                for other in (SampleOnly(target, k), ReferenceSampler(target, k)):
                    assert empirical_error(h, other, 300) == error, f"target {k}"
                    assert other.draws == plain.draws == 300

    def test_overridden_sample_sees_every_example(self):
        class Counting(UniformClauseDistribution):
            calls = 0

            def sample(self):
                self.calls += 1
                return super().sample()

        for k, target in seeded_targets(12):
            dist = Counting(target, seed=k)
            empirical_error(PossKB.of((), target.signature), dist, 250)
            assert dist.calls == dist.draws == 250, f"target {k}"

    def test_rejects_empty_sample(self):
        target = parse_poss_kb(WORKED_TARGET)
        with pytest.raises(ValueError):
            empirical_error(target, UniformClauseDistribution(target, seed=0), 0)
