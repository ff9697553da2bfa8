"""Possibilistic lifts: level search, per-level transfers, the orchestrator."""

import math
import random

import pytest

from posshorn import (
    ClassicalTeacher,
    HornKB,
    PossibilisticTeacher,
    PossKB,
    PrecisionTooLow,
    RunStats,
    Valuation,
    assemble,
    cut,
    enumerate_poss_kbs,
    equivalent,
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
    poss_equivalent,
    projection,
)
from helpers import random_clause, random_horn_kb, random_poss_kb


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

    def test_pool_bounded_by_levels_plus_anchor(self):
        rng = random.Random(31415)
        for _ in range(40):
            target = random_poss_kb(rng, 5, 8, precision=1)
            teacher = PossibilisticTeacher(target)
            stats = RunStats()
            h = learn_with_mq_eq(target.signature, teacher.mq, teacher.eq, stats=stats)
            assert poss_equivalent(h, target)
            assert stats.instances_spawned <= len(target.levels) + 1


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


class TestPossEnumeration:
    def test_first_items_are_small(self):
        gen = enumerate_poss_kbs(["a"])
        first = next(gen)
        assert not first.clauses
        second = next(gen)
        assert len(second.clauses) == 1
        assert second.prec() == 1
