"""Possibilistic lifts: level search, per-level transfers, the orchestrator."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posshorn import (
    ClassicalTeacher,
    HornKB,
    PossClause,
    PossibilisticTeacher,
    PossKB,
    PrecisionTooLow,
    RunStats,
    Valuation,
    assemble,
    clause_space,
    cut,
    enumerate_poss_kbs,
    equivalent,
    find_counterexample,
    find_valuation,
    grid,
    learn_classical_via_possibilistic,
    learn_with_eq_enumeration,
    learn_with_mq_eq,
    learn_with_mq_levels,
    learn_with_mq_naive,
    orchestrate_mq_eq,
    parse_clause,
    parse_horn_kb,
    parse_poss_clause,
    parse_poss_kb,
    pi_k,
    poss_equivalent,
    projection,
    val_of,
)
from helpers import random_clause, random_horn_kb, random_poss_kb
from test_acceptance import QUERY_CONSTANT


WORKED_TARGET = "p -> q1 @ 0.3\np -> q2 @ 0.7"


def counting_mq(teacher):
    """Plain (formula, degree) oracle that also counts calls."""
    calls = [0]

    def mq(phi, degree, instance=""):
        calls[0] += 1
        return teacher.mq(phi, degree, instance=instance)

    return mq, calls


def target_oracles(target: PossKB):
    teacher = PossibilisticTeacher(target)
    return teacher.mq, teacher.eq, teacher


class TestFindValuation:
    def test_worked_degrees(self):
        target = parse_poss_kb(WORKED_TARGET)
        mq, _, _ = target_oracles(target)
        assert find_valuation(mq, 1, parse_clause("p -> q1")) == Valuation.parse("0.3")
        assert find_valuation(mq, 1, parse_clause("p -> q2")) == Valuation.parse("0.7")

    def test_unentailed_formula_within_search_bound(self):
        target = parse_poss_kb(WORKED_TARGET)
        mq, calls = counting_mq(PossibilisticTeacher(target))
        assert find_valuation(mq, 1, parse_clause("q1 -> p")).is_zero
        assert calls[0] <= math.ceil(math.log2(10**1 + 1))
        # the count is deterministic: a rerun asks the same three queries
        mq2, calls2 = counting_mq(PossibilisticTeacher(target))
        find_valuation(mq2, 1, parse_clause("q1 -> p"))
        assert calls2[0] == calls[0]

    @pytest.mark.parametrize("p,bound", [(1, 4), (2, 7), (3, 10)])
    def test_query_bound_and_linear_scan_agreement(self, p, bound):
        rng = random.Random(100 + p)
        for _ in range(60):
            target = random_poss_kb(rng, 4, 5, precision=p)
            teacher = PossibilisticTeacher(target)
            phi = random_clause(rng, sorted(target.signature) or ["x0"])
            if not phi.variables <= target.signature:
                continue
            mq, calls = counting_mq(teacher)
            result = find_valuation(mq, p, phi)
            assert calls[0] <= bound
            # independent oracle: walk the grid downward, first yes wins
            expected = Valuation.zero()
            for point in reversed(grid(p)[1:]):
                if teacher.mq(phi, point):
                    expected = point
                    break
            assert result == expected

    def test_truncates_finer_degrees(self):
        target = parse_poss_kb("a -> b @ 0.25")
        mq, _, _ = target_oracles(target)
        assert find_valuation(mq, 1, parse_clause("a -> b")) == Valuation.parse("0.2")
        assert find_valuation(mq, 2, parse_clause("a -> b")) == Valuation.parse("0.25")


class TestAssemble:
    def test_worked_cuts(self):
        target = parse_poss_kb(WORKED_TARGET)
        pairs = [
            (Valuation.parse("0.3"), projection(cut(target, Valuation.parse("0.3")))),
            (Valuation.parse("0.7"), projection(cut(target, Valuation.parse("0.7")))),
        ]
        assert poss_equivalent(assemble(pairs), target)

    def test_empty(self):
        assert not assemble([]).clauses

    def test_single_level(self):
        kb = HornKB.of([parse_clause("a -> b")])
        out = assemble([(Valuation.one(), kb)])
        assert {str(c) for c in out.clauses} == {"a -> b @ 1.0"}

    def test_rejects_duplicate_levels(self):
        kb = HornKB.of([parse_clause("a -> b")])
        with pytest.raises(ValueError):
            assemble([(Valuation.one(), kb), (Valuation.one(), kb)])

    def test_round_trip_over_true_cuts(self):
        # rebuilding from every occurring level reproduces the KB
        rng = random.Random(17)
        for _ in range(50):
            target = random_poss_kb(rng, 5, 6, precision=1)
            pairs = [
                (level, projection(cut(target, level))) for level in target.levels
            ]
            assert poss_equivalent(assemble(pairs), target)

    def test_round_trip_over_a_superset_of_levels(self):
        # extra levels beyond the occurring ones change nothing
        rng = random.Random(19)
        for _ in range(50):
            target = random_poss_kb(rng, 5, 6, precision=1)
            pairs = [
                (level, projection(cut(target, level))) for level in grid(1)[1:]
            ]
            assert poss_equivalent(assemble(pairs), target)


class TestMqOnlyTransfers:
    def test_naive_on_worked_target(self):
        target = parse_poss_kb(WORKED_TARGET)
        mq, _, teacher = target_oracles(target)
        learned = learn_with_mq_naive(target.signature, 1, mq, max_antecedent=1)
        assert poss_equivalent(learned, target)

    def test_naive_single_level_target(self):
        target = parse_poss_kb("a -> b @ 1.0")
        mq, _, _ = target_oracles(target)
        learned = learn_with_mq_naive(target.signature, 1, mq, max_antecedent=1)
        assert poss_equivalent(learned, target)

    def test_naive_empty_target(self):
        target = PossKB.of((), ["a", "b"])
        mq, _, _ = target_oracles(target)
        assert not learn_with_mq_naive(target.signature, 1, mq, 1).clauses

    def test_levels_on_worked_target_records_two_levels(self):
        target = parse_poss_kb(WORKED_TARGET)
        mq, _, _ = target_oracles(target)
        levels = []
        learned = learn_with_mq_levels(
            target.signature, 1, mq, max_antecedent=1, level_log=levels
        )
        assert poss_equivalent(learned, target)
        assert [str(v) for v in levels] == ["0.3", "0.7"]

    def test_levels_single_iteration_at_one(self):
        target = parse_poss_kb("a -> b @ 1.0")
        mq, _, _ = target_oracles(target)
        levels = []
        learned = learn_with_mq_levels(target.signature, 1, mq, 1, level_log=levels)
        assert poss_equivalent(learned, target)
        assert [str(v) for v in levels] == ["1.0"]

    def test_levels_empty_target_zero_iterations(self):
        target = PossKB.of((), ["a", "b"])
        mq, _, _ = target_oracles(target)
        levels = []
        learned = learn_with_mq_levels(target.signature, 1, mq, 1, level_log=levels)
        assert not learned.clauses and not levels

    def test_both_transfers_on_random_bounded_targets(self):
        rng = random.Random(71)
        for _ in range(40):
            target = random_poss_kb(rng, 5, 6, precision=1, max_antecedent=2)
            mq, _, _ = target_oracles(target)
            levels = []
            by_levels = learn_with_mq_levels(
                target.signature, 1, mq, max_antecedent=2, level_log=levels
            )
            assert poss_equivalent(by_levels, target)
            assert len(levels) <= len(target.levels)
            naive = learn_with_mq_naive(target.signature, 1, mq, max_antecedent=2)
            assert poss_equivalent(naive, target)


class TestEqOnlyEnumeration:
    def test_empty_target_immediate(self):
        target = PossKB.of((), ["a"])
        _, eq, teacher = target_oracles(target)
        learned = learn_with_eq_enumeration(
            lambda kb: eq(kb, instance="enumeration"), ["a"], cap=10
        )
        assert poss_equivalent(learned, target)
        assert teacher.eq_count == 1

    def test_single_clause_found_in_first_stratum(self):
        target = parse_poss_kb("x0 -> x1 @ 0.5")
        target = PossKB.of(target.clauses, ["x0", "x1"])
        _, eq, teacher = target_oracles(target)
        learned = learn_with_eq_enumeration(
            lambda kb: eq(kb, instance="enumeration"), ["x0", "x1"], cap=500
        )
        assert poss_equivalent(learned, target)

    def test_precision_two_target_needs_later_stratum(self):
        coarse = parse_poss_kb("x0 -> x1 @ 0.5")
        fine = parse_poss_kb("x0 -> x1 @ 0.25")
        sig = ["x0", "x1"]
        queries = {}
        for name, target in [("coarse", coarse), ("fine", fine)]:
            teacher = PossibilisticTeacher(PossKB.of(target.clauses, sig))
            learned = learn_with_eq_enumeration(
                lambda kb: teacher.eq(kb, instance="enumeration"), sig, cap=20000
            )
            assert poss_equivalent(learned, PossKB.of(target.clauses, sig))
            queries[name] = teacher.eq_count
        assert queries["fine"] > queries["coarse"]


class TestOrchestrator:
    def test_scripted_worked_session(self):
        target = parse_poss_kb(WORKED_TARGET)
        script = [
            parse_poss_clause("p -> q1 @ 0.1"),
            parse_poss_clause("p -> q1 @ 0.1"),
            parse_poss_clause("p -> q2 @ 0.21"),
            parse_poss_clause("p -> q2 @ 0.1"),
        ]
        teacher = PossibilisticTeacher(target, cex_strategy="scripted", script=script)
        stats = RunStats()
        h = orchestrate_mq_eq(target.signature, 1, teacher.mq, teacher.eq, stats=stats)
        assert poss_equivalent(h, target)
        assert stats.instances_spawned == 3
        assert teacher.eq_count == 5
        assert teacher.mq_count == 16

    def test_precision_too_low_detected(self):
        target = parse_poss_kb("a -> b @ 0.25")
        teacher = PossibilisticTeacher(target)
        with pytest.raises(PrecisionTooLow):
            orchestrate_mq_eq(target.signature, 1, teacher.mq, teacher.eq)

    def test_degree_below_grid_detected(self):
        target = parse_poss_kb("a -> b @ 0.01")
        teacher = PossibilisticTeacher(target)
        with pytest.raises(PrecisionTooLow):
            orchestrate_mq_eq(target.signature, 1, teacher.mq, teacher.eq)

    def test_singleton_top_target(self):
        target = parse_poss_kb("a -> b @ 1.0")
        teacher = PossibilisticTeacher(target)
        stats = RunStats()
        h = orchestrate_mq_eq(target.signature, 1, teacher.mq, teacher.eq, stats=stats)
        assert poss_equivalent(h, target)
        assert stats.instances_spawned == 2  # the 0.1 anchor instance plus level 1.0

    def test_anchor_pins_hypothesis_precision(self):
        # every submitted hypothesis carries a degree of exactly precision p
        target = parse_poss_kb("a -> b @ 0.25")
        teacher = PossibilisticTeacher(target)
        seen = []

        def spy_eq(h, instance=""):
            seen.append(h.prec())
            return teacher.eq(h, instance=instance)

        h = orchestrate_mq_eq(target.signature, 2, teacher.mq, spy_eq)
        assert poss_equivalent(h, target)
        assert seen and all(p == 2 for p in seen)

    def test_every_submitted_clause_is_target_entailed(self):
        # pooled hypotheses stay inside the target, so counterexamples are
        # always positive
        from posshorn import poss_entails

        rng = random.Random(53)
        for _ in range(20):
            target = random_poss_kb(rng, 5, 6, precision=1)
            teacher = PossibilisticTeacher(target)

            def spy_eq(h, instance=""):
                for clause in h.clauses:
                    assert poss_entails(target, clause), clause
                return teacher.eq(h, instance=instance)

            h = learn_with_mq_eq(target.signature, teacher.mq, spy_eq)
            assert poss_equivalent(h, target)


class TestFullLearning:
    def test_worked_target_at_precision_one(self):
        target = parse_poss_kb(WORKED_TARGET)
        teacher = PossibilisticTeacher(target)
        stats = RunStats()
        h = learn_with_mq_eq(target.signature, teacher.mq, teacher.eq, stats=stats)
        assert poss_equivalent(h, target)
        assert stats.escalations == 0

    def test_two_escalations_for_precision_three(self):
        target = parse_poss_kb("a -> b @ 0.123")
        teacher = PossibilisticTeacher(target)
        stats = RunStats()
        h = learn_with_mq_eq(target.signature, teacher.mq, teacher.eq, stats=stats)
        assert poss_equivalent(h, target)
        assert stats.escalations == 2

    def test_no_escalation_for_top_target(self):
        target = parse_poss_kb("a -> b @ 1.0")
        teacher = PossibilisticTeacher(target)
        stats = RunStats()
        learn_with_mq_eq(target.signature, teacher.mq, teacher.eq, stats=stats)
        assert stats.escalations == 0

    def test_random_targets_all_strategies(self):
        rng = random.Random(2025)
        for trial in range(60):
            target = random_poss_kb(rng, 6, 8, precision=rng.randint(1, 2))
            strategy = ("clause-exact", "adversarial-low", "random")[trial % 3]
            teacher = PossibilisticTeacher(
                target, cex_strategy=strategy, rng_seed=trial
            )
            stats = RunStats()
            h = learn_with_mq_eq(target.signature, teacher.mq, teacher.eq, stats=stats)
            assert poss_equivalent(h, target), f"trial {trial} ({strategy})"
            assert stats.escalations <= target.prec() - 1

    @pytest.mark.parametrize("cex_precision", [3, 4, 5, 6])
    def test_adversarial_low_at_fine_counterexample_precision(self, cex_precision):
        # counterexample degrees finer than any grid the learner works on;
        # escalation runs the pool at grids up to p = 3
        rng = random.Random(f"adversarial-low:{cex_precision}")
        reached = 0
        for trial in range(20):
            target = random_poss_kb(rng, 8, 12, precision=trial % 3 + 1)
            teacher = PossibilisticTeacher(
                target, cex_strategy="adversarial-low", rng_seed=trial,
                cex_precision=cex_precision,
            )
            stats = RunStats()
            h = learn_with_mq_eq(target.signature, teacher.mq, teacher.eq, stats=stats)
            assert find_counterexample(target, h) is None, f"trial {trial}"
            assert stats.escalations <= target.prec() - 1
            reached = max(reached, stats.escalations)
        assert reached == 2

    def test_pool_bounded_by_levels_plus_anchor(self):
        rng = random.Random(31415)
        for _ in range(40):
            target = random_poss_kb(rng, 5, 8, precision=1)
            teacher = PossibilisticTeacher(target)
            stats = RunStats()
            h = learn_with_mq_eq(target.signature, teacher.mq, teacher.eq, stats=stats)
            assert poss_equivalent(h, target)
            assert stats.instances_spawned <= len(target.levels) + 1


def grid_between(low: Valuation, high: Valuation, q: int) -> range:
    """The mantissas k with low < k * 10^-q <= high."""
    return range(
        low.mantissa * 10**q // 10**low.precision + 1,
        high.mantissa * 10**q // 10**high.precision + 1,
    )


class TestAnyLegalTeacher:
    """The guarantee holds for any counterexample, not only a target clause."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_exact_within_budgets(self, data):
        n = data.draw(st.integers(1, 5), label="variables")
        precision = data.draw(st.integers(1, 2), label="precision")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        target = random_poss_kb(random.Random(seed), n, 6, precision)
        space = list(clause_space(target.signature, n))
        teacher = PossibilisticTeacher(target)
        eqs = [0]

        def eq(hypothesis, instance=""):
            # any formula the target entails above the hypothesis, at any
            # degree in (val_h, val_t] on a grid of precision up to 4
            eqs[0] += 1
            legal = []
            for phi in space:
                val_t, val_h = val_of(target, phi), val_of(hypothesis, phi)
                assert val_h <= val_t, f"negative counterexample {phi} @ {val_h}"
                if val_h < val_t:
                    legal.append((phi, val_h, val_t))
            if not legal:
                return None
            phi, val_h, val_t = data.draw(st.sampled_from(legal))
            grids = {q: grid_between(val_h, val_t, q) for q in range(1, 5)}
            q = data.draw(st.sampled_from([q for q, ks in grids.items() if ks]))
            return PossClause(phi, Valuation(data.draw(st.sampled_from(grids[q])), q))

        stats = RunStats()
        h = learn_with_mq_eq(target.signature, teacher.mq, eq, stats=stats)
        assert pi_k(PossKB(h.clauses, target.signature)).degrees == pi_k(target).degrees
        C, m = QUERY_CONSTANT, max(len(target.clauses), 1)
        assert teacher.mq_count <= C * m * m * n * n
        assert eqs[0] <= C * m * n
        assert stats.escalations <= target.prec() - 1


class TestReverseReduction:
    def test_projection_recovers_classical_target(self):
        target = parse_horn_kb("p -> q1\np -> q2")
        teacher = ClassicalTeacher(target)
        learned = learn_classical_via_possibilistic(
            teacher.signature, teacher.mq, teacher.eq
        )
        assert equivalent(learned, target)

    def test_empty_classical_target(self):
        teacher = ClassicalTeacher(HornKB.of((), ["a"]))
        learned = learn_classical_via_possibilistic(
            teacher.signature, teacher.mq, teacher.eq
        )
        assert equivalent(learned, HornKB.of((), ["a"]))

    def test_lifted_counterexamples_carry_degree_one(self):
        rng = random.Random(43)
        for _ in range(20):
            target = random_horn_kb(rng, 5, 6)
            teacher = ClassicalTeacher(target)
            lifted = []
            learned = learn_classical_via_possibilistic(
                teacher.signature, teacher.mq, teacher.eq, on_lift=lifted.append
            )
            assert equivalent(learned, target)
            assert all(c.valuation.is_one for c in lifted)


# sha256 over the transcripts of 360 seeded sessions (see TestTranscriptDigest),
# recorded before the Horn learner asked its MQs through an oracle; the query
# order, and so every byte, must not change
SESSIONS_DIGEST = "c1eeee922803f1c1b1dfcd1e1fd0ae8120cc541aa542d003d39988f08def42b8"


class TestTranscriptDigest:
    def test_seeded_sessions_replay_byte_for_byte(self):
        digest = hashlib.sha256()
        for strategy in ("clause-exact", "random", "adversarial-low"):
            rng = random.Random(f"digest-{strategy}")
            for seed in range(60):
                target = random_poss_kb(rng, rng.randint(1, 8), 8, rng.randint(1, 2))
                teacher = PossibilisticTeacher(target, cex_strategy=strategy, rng_seed=seed)
                learn_with_mq_eq(target.signature, teacher.mq, teacher.eq)
                digest.update(teacher.transcript.to_jsonl().encode())

                target = random_horn_kb(rng, rng.randint(1, 8), 8)
                teacher = ClassicalTeacher(target, cex_strategy=strategy, rng_seed=seed)
                learn_classical_via_possibilistic(target.signature, teacher.mq, teacher.eq)
                digest.update(teacher.transcript.to_jsonl().encode())
        assert digest.hexdigest() == SESSIONS_DIGEST


class TestPossEnumeration:
    def test_first_items_are_small(self):
        gen = enumerate_poss_kbs(["a"])
        first = next(gen)
        assert not first.clauses
        second = next(gen)
        assert len(second.clauses) == 1
        assert second.prec() == 1
