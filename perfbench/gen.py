"""Seeded target generator with fixed clause and level counts.

Every target has exactly ``n_clauses`` distinct, non-tautological clauses,
so session cost does not swing with a randomly drawn KB size.  Possibilistic
targets also have a fixed number of degrees up to equivalence: the learner
spawns one instance per degree, and on 16-variable, 30-clause targets with
free degrees that number alone decided most of the spread in MQs per session
(correlation 0.82 over 120 targets).  Their precision up to equivalence is
exact as well, so a precision-p target makes the learner escalate exactly
p - 1 times.  Both are decided by :mod:`oracle`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle


def variables(n: int) -> list[str]:
    return [f"x{i}" for i in range(n)]


def _clause(rng: random.Random, vars_, min_ant: int, max_ant: int, falsum_prob: float):
    ant = frozenset(rng.sample(vars_, rng.randint(min_ant, max_ant)))
    if rng.random() < falsum_prob:
        return ant, None
    return ant, rng.choice([v for v in vars_ if v not in ant])


def _formulas(rng, n_vars, n_clauses, min_ant, max_ant, falsum_prob):
    vars_ = variables(n_vars)
    seen: dict = {}
    while len(seen) < n_clauses:
        seen.setdefault(_clause(rng, vars_, min_ant, max_ant, falsum_prob), None)
    return list(seen)


def poss_target(
    rng: random.Random,
    n_vars: int,
    n_clauses: int,
    precision: int,
    levels: int,
    max_ant: int,
    falsum_prob: float,
) -> tuple:
    """A possibilistic KB with exactly ``levels`` degrees and precision
    ``precision``, both up to equivalence.

    The clauses are dealt round-robin over ``levels`` distinct grid degrees;
    the draw is repeated until none of those levels is redundant.
    """
    scale = 10**precision
    while True:
        degrees = rng.sample(range(1, scale + 1), levels)
        formulas = _formulas(rng, n_vars, n_clauses, 0, max_ant, falsum_prob)
        kb = tuple(
            (ant, cons, Fraction(degrees[k % levels], scale))
            for k, (ant, cons) in enumerate(formulas)
        )
        semantic = oracle.semantic_degrees(kb)
        if len(semantic) == levels and max(map(oracle.precision, semantic)) == precision:
            return kb


def horn_target(
    rng: random.Random,
    n_vars: int,
    n_clauses: int,
    min_ant: int,
    max_ant: int,
    falsum_prob: float,
) -> tuple:
    """A classical Horn KB, every clause at degree 1."""
    return tuple(
        (ant, cons, oracle.ONE)
        for ant, cons in _formulas(rng, n_vars, n_clauses, min_ant, max_ant, falsum_prob)
    )
