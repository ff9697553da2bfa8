"""Possibilistic KB semantics: cuts, val, inc, and the distribution oracle.

The worked target t = {(p -> q1, 0.3), (p -> q2, 0.7)} reappears throughout;
its degrees are pinned here and cross-checked against the least-specific
possibility distribution computed from first principles.
"""

import random

import pytest

from posshorn import (
    PossClause,
    PossKB,
    Valuation,
    cut,
    inc_of,
    necessity,
    parse_clause,
    parse_poss_clause,
    parse_poss_kb,
    pi_k,
    poss_entails,
    poss_equivalent,
    projection,
    val_of,
)
from helpers import random_clause, random_poss_kb, random_valuation


@pytest.fixture
def target() -> PossKB:
    return parse_poss_kb("p -> q1 @ 0.3\np -> q2 @ 0.7")


def v(text: str) -> Valuation:
    return Valuation.parse(text)


class TestProjectionAndCuts:
    def test_projection_drops_valuations(self, target):
        assert {str(c) for c in projection(target).clauses} == {"p -> q1", "p -> q2"}

    def test_projection_empty(self):
        assert not projection(PossKB.of(())).clauses

    def test_cut_at_top_level(self, target):
        assert {str(c) for c in cut(target, v("0.7")).clauses} == {"p -> q2 @ 0.7"}

    def test_cut_at_minimum_keeps_everything(self, target):
        assert cut(target, min(target.levels)).clauses == target.clauses

    def test_prec_is_max_over_valuations(self, target):
        assert target.prec() == 1
        assert parse_poss_kb("a -> b @ 0.25").prec() == 2
        assert PossKB.of(()).prec() == 1


class TestEntailmentAndVal:
    def test_entailed_below_val(self, target):
        assert poss_entails(target, parse_poss_clause("p -> q1 @ 0.1"))
        assert poss_entails(target, parse_poss_clause("p -> q2 @ 0.21"))

    def test_not_entailed_above_val(self, target):
        assert not poss_entails(target, parse_poss_clause("p -> q1 @ 0.4"))
        assert not poss_entails(target, parse_poss_clause("p -> q1 @ 0.31"))

    def test_val_of_worked_target(self, target):
        assert val_of(target, parse_clause("p -> q1")) == v("0.3")
        assert val_of(target, parse_clause("p -> q2")) == v("0.7")

    def test_val_of_tautology_is_one(self, target):
        assert val_of(target, parse_clause("q1 -> q1")).is_one

    def test_val_of_unentailed_is_zero(self, target):
        assert val_of(target, parse_clause("q1 -> p")).is_zero

    def test_entailment_iff_below_val(self):
        # degree-monotonicity of entailment, on random KBs and clauses
        rng = random.Random(23)
        for _ in range(300):
            kb = random_poss_kb(rng, 5, 6, precision=rng.randint(1, 3))
            phi = random_clause(rng, sorted(kb.signature))
            alpha = random_valuation(rng, 3)
            expected = alpha <= val_of(kb, phi)
            assert poss_entails(kb, PossClause(phi, alpha)) == expected

    def test_val_lands_on_a_kb_level_or_one(self):
        rng = random.Random(29)
        for _ in range(300):
            kb = random_poss_kb(rng, 5, 6, precision=2)
            phi = random_clause(rng, sorted(kb.signature))
            degree = val_of(kb, phi)
            if not degree.is_zero:
                assert degree in set(kb.levels) | {Valuation.one()}

    def test_cut_monotonicity(self):
        rng = random.Random(31)
        for _ in range(100):
            kb = random_poss_kb(rng, 5, 6, precision=2)
            a, b = sorted([random_valuation(rng, 2), random_valuation(rng, 2)])
            assert cut(kb, b).clauses <= cut(kb, a).clauses


class TestInconsistencyDegree:
    def test_partial_contradiction(self):
        kb = parse_poss_kb("true -> a @ 0.8\na -> false @ 0.6")
        assert inc_of(kb) == v("0.6")

    def test_consistent_kb(self, target):
        assert inc_of(target).is_zero

    def test_fully_contradictory(self):
        kb = parse_poss_kb("true -> a @ 1.0\na -> false @ 1.0")
        assert inc_of(kb).is_one


class TestDistributionOracle:
    def test_satisfying_assignment_gets_one(self, target):
        dist = pi_k(target)
        assert dist[frozenset({"p", "q1", "q2"})].is_one
        assert dist[frozenset()].is_one

    def test_single_violation(self, target):
        # p true, q1 false, q2 true violates only (p -> q1, 0.3)
        assert pi_k(target)[frozenset({"p", "q2"})] == v("0.7")

    def test_double_violation_takes_min(self, target):
        # p true, both q false violates both formulas: min(0.7, 0.3)
        assert pi_k(target)[frozenset({"p"})] == v("0.3")

    def test_necessity_of_tautology(self, target):
        assert necessity(pi_k(target), parse_clause("p -> p")).is_one

    def test_necessity_matches_val_on_worked_target(self, target):
        dist = pi_k(target)
        assert necessity(dist, parse_clause("p -> q1")) == v("0.3")
        assert necessity(dist, parse_clause("p -> q2")) == v("0.7")

    def test_necessity_matches_val_on_randoms(self):
        rng = random.Random(37)
        for _ in range(60):
            kb = random_poss_kb(rng, 4, 5, precision=2)
            dist = pi_k(kb)
            for _ in range(10):
                phi = random_clause(rng, sorted(kb.signature))
                assert necessity(dist, phi) == val_of(kb, phi), (kb, phi)


class TestPossEquivalence:
    def test_level_structure_matters(self, target):
        flattened = parse_poss_kb("p -> q1 @ 0.3\np -> q2 @ 0.3")
        assert not poss_equivalent(target, flattened)

    def test_single_cut_collapse_rejected(self, target):
        # learning only the projection and tagging it with the least degree
        from posshorn import equivalent

        collapse = parse_poss_kb("p -> q1 @ 0.3\np -> q2 @ 0.3")
        assert equivalent(projection(collapse), projection(target))
        assert not poss_equivalent(collapse, target)

    def test_redundant_lower_clause(self, target):
        extended = PossKB.of(
            set(target.clauses) | {parse_poss_clause("p -> q1 @ 0.2")},
            target.signature,
        )
        assert poss_equivalent(target, extended)

    def test_clausewise_definition_agrees(self):
        # cut-level equivalence must match mutual clause entailment
        rng = random.Random(41)
        for _ in range(200):
            a = random_poss_kb(rng, 4, 4, precision=1)
            b = random_poss_kb(rng, 4, 4, precision=1)
            clausewise = all(poss_entails(b, c) for c in a.clauses) and all(
                poss_entails(a, c) for c in b.clauses
            )
            assert poss_equivalent(a, b) == clausewise

    def test_duplicate_formulas_at_two_levels_allowed(self):
        kb = parse_poss_kb("a -> b @ 0.3\na -> b @ 0.7")
        assert val_of(kb, parse_clause("a -> b")) == v("0.7")
