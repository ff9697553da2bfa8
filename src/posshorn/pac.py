"""PAC learning with membership queries, by sampling the equivalence oracle.

The exact MQ+EQ learner becomes a PAC-with-MQ learner through the classic
conversion: the i-th equivalence query is answered by drawing

    m_i = ceil((1/epsilon) * (ln(1/delta) + i * ln 2))

labeled examples and returning any sample the hypothesis misclassifies as the
counterexample; if all m_i samples agree, the query is answered yes.  Every
hypothesis clause is membership-confirmed, so disagreements are always
positive examples, which is what the orchestrator expects.

Example distributions are seeded and label their own samples against the
hidden target, so labels are exact and runs replay deterministically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .classical import ProtocolError
from .horn import FALSUM, HornClause
from .lift import RunStats, learn_with_mq_eq
from .possibilistic import PossClause, PossKB, poss_entails
from .valuation import Valuation


@dataclass
class UniformClauseDistribution:
    """Uniform over (antecedent subset, consequent, grid valuation) triples.

    Antecedents include each signature variable independently with
    probability 1/2; the consequent is uniform over the remaining variables
    plus falsum; the valuation is uniform over the positive points of the
    precision-q grid.  Labels are computed against the target.
    """

    target: PossKB
    seed: int
    valuation_precision: int = 2
    draws: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._variables = sorted(self.target.signature)

    def sample(self) -> tuple[PossClause, bool]:
        rng = self._rng
        antecedent = frozenset(v for v in self._variables if rng.random() < 0.5)
        consequents = [v for v in self._variables if v not in antecedent]
        consequents.append(FALSUM)
        consequent = rng.choice(consequents)
        q = self.valuation_precision
        valuation = Valuation(rng.randint(1, 10**q), q)
        example = PossClause(HornClause(antecedent, consequent), valuation)
        self.draws += 1
        return example, poss_entails(self.target, example)


def sample_size(epsilon: float, delta: float, i: int) -> int:
    """Samples for the i-th simulated equivalence query (1-based)."""
    return math.ceil((1.0 / epsilon) * (math.log(1.0 / delta) + i * math.log(2.0)))


def pac_learn(
    signature,
    dist,
    epsilon: float,
    delta: float,
    mq,
    exact_eq=None,
    stats: Optional[RunStats] = None,
) -> PossKB:
    """Run the exact learner with equivalence queries simulated by sampling.

    With ``exact_eq`` supplied, the sampling layer is bypassed entirely and
    the run is identical to plain exact learning (degenerate-case check).
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if exact_eq is not None:
        return learn_with_mq_eq(signature, mq, exact_eq, stats=stats)

    eq_index = 0

    def sampling_eq(hypothesis: PossKB, *, instance: str = "") -> Optional[PossClause]:
        nonlocal eq_index
        eq_index += 1
        for _ in range(sample_size(epsilon, delta, eq_index)):
            example, label = dist.sample()
            if poss_entails(hypothesis, example) != label:
                # hypothesis clauses are target-entailed, so a disagreement
                # can only be a positive example the hypothesis misses
                if not label:
                    raise ProtocolError(f"negative disagreement on {example}")
                return example
        return None

    return learn_with_mq_eq(signature, mq, sampling_eq, stats=stats)


def empirical_error(hypothesis: PossKB, dist, n: int) -> Fraction:
    """Fraction of n fresh samples where hypothesis entailment differs from
    the label."""
    if n < 1:
        raise ValueError("need at least one sample")
    disagreements = 0
    for _ in range(n):
        example, label = dist.sample()
        if poss_entails(hypothesis, example) != label:
            disagreements += 1
    return Fraction(disagreements, n)
