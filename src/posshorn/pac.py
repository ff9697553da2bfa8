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

:class:`UniformClauseDistribution` has one draw routine, ``draw()``, which
returns a draw as ints over the target's compiled cut table: an antecedent
mask, a consequent bit, a mantissa on the precision-2 grid and the label.
``sample()`` is ``draw()`` plus building the :class:`PossClause`.  Examples
with one antecedent mask share one antecedent frozenset, built on the first
such example; the table of shared sets is cleared when it reaches
:data:`_SHARED_ANTECEDENTS` entries, so a long stream over a large signature
does not keep every set alive.

A sampled EQ and :func:`empirical_error` share one scan for the samples the
hypothesis gets wrong, :func:`_disagreements`.  It tests the hypothesis on
the ints of ``draw()`` when the sampler is a :class:`UniformClauseDistribution`
whose class does not override ``sample()`` and the hypothesis has the
target's signature, and so its bit index; that holds for every hypothesis
the orchestrator submits.  A clause is then built only for a disagreement.
Any other sampler or hypothesis is checked on ``sample()`` and
:func:`poss_entails`, so a sampler that overrides ``sample()`` (to record the
test set, say) still sees every example.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Optional

from .classical import ProtocolError
from .horn import _FALSUM_BIT, FALSUM, HornClause, _chain, _Record
from .lift import RunStats, learn_with_mq_eq
from .possibilistic import PossClause, PossKB, _cut_rules, poss_entails
from .valuation import Valuation

_SHARED_ANTECEDENTS = 4096  # antecedent sets a distribution keeps for sharing


class UniformClauseDistribution(_Record):
    """Uniform over (antecedent subset, consequent, grid valuation) triples.

    Antecedents include each signature variable independently with
    probability 1/2; the consequent is uniform over the remaining variables
    plus falsum; the valuation is uniform over the positive points of the
    precision-2 grid.  Labels are computed against the target.

    A draw makes its RNG calls in a fixed order: ``random()`` per variable in
    sorted order, ``choice`` over the free variables in that order followed
    by falsum, then ``randint(1, 100)`` for the mantissa.  The target's cut
    rules for each of the 100 degrees, and the degrees themselves, are looked
    up once at construction; ``draws`` counts every draw.
    """

    _fields = ("target", "seed", "draws")
    draws = 0  # the first draw makes it an instance attribute

    def __init__(self, target: PossKB, seed: int) -> None:
        self.target, self.seed = target, seed
        self.__post_init__()

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        index = self.target._cut_table[0]
        self._variables = [(v, index[v]) for v in sorted(self.target.signature)]
        self._bits = [bit for _, bit in self._variables]
        self._names = {bit: v for v, bit in self._variables}
        self._names[_FALSUM_BIT] = FALSUM
        self._degrees = tuple(Valuation(m, 2) for m in range(1, 101))
        self._cuts = tuple(_cut_rules(self.target, a) for a in self._degrees)
        self._antecedents: dict[int, frozenset[str]] = {}

    def draw(self) -> tuple[int, int, int, bool]:
        """One draw as (antecedent mask, consequent bit, mantissa, label);
        its degree is mantissa / 100."""
        rng = self._rng
        ant, free = 0, []
        for bit in self._bits:
            if rng.random() < 0.5:
                ant |= bit
            else:
                free.append(bit)
        free.append(_FALSUM_BIT)
        cons = rng.choice(free)
        m = rng.randint(1, 100)
        self.draws += 1
        goal = _FALSUM_BIT | cons
        return ant, cons, m, bool(_chain(self._cuts[m - 1], ant, goal) & goal)

    def example(self, ant: int, cons: int, m: int) -> PossClause:
        """The clause of a draw; its antecedent is shared with every earlier
        example of the same mask since the table was last cleared."""
        antecedents = self._antecedents
        antecedent = antecedents.get(ant)
        if antecedent is None:
            if len(antecedents) >= _SHARED_ANTECEDENTS:
                antecedents.clear()
            antecedent = antecedents[ant] = frozenset(
                v for v, bit in self._variables if ant & bit
            )
        return PossClause(HornClause(antecedent, self._names[cons]), self._degrees[m - 1])

    def sample(self) -> tuple[PossClause, bool]:
        ant, cons, m, label = self.draw()
        return self.example(ant, cons, m), label


def sample_size(epsilon: float, delta: float, i: int) -> int:
    """Samples for the i-th simulated equivalence query (1-based)."""
    return math.ceil((1.0 / epsilon) * (math.log(1.0 / delta) + i * math.log(2.0)))


def check_rates(epsilon: float, delta: float) -> None:
    """ValueError unless both lie in (0, 1) and the first sampled EQ has a finite size."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    try:
        sample_size(epsilon, delta, 1)
    except OverflowError:
        raise ValueError(f"epsilon {epsilon} and delta {delta} give an infinite sample size") from None


def _disagreements(hypothesis: PossKB, dist, n: int) -> Iterator[tuple[PossClause, bool]]:
    """(example, label) of each of n fresh samples that the hypothesis labels
    differently; drawing stops when the caller stops reading.  On ints, the
    hypothesis's cut rules are looked up once per degree drawn."""
    if (
        isinstance(dist, UniformClauseDistribution)
        and type(dist).sample is UniformClauseDistribution.sample
        # the bit index is a function of the signature alone
        and hypothesis.signature == dist.target.signature
    ):
        cuts: dict[int, tuple] = {}
        for _ in range(n):
            ant, cons, m, label = dist.draw()
            rules = cuts.get(m)
            if rules is None:
                rules = cuts[m] = _cut_rules(hypothesis, dist._degrees[m - 1])
            goal = _FALSUM_BIT | cons
            if bool(_chain(rules, ant, goal) & goal) != label:
                yield dist.example(ant, cons, m), label
    else:
        for _ in range(n):
            example, label = dist.sample()
            if poss_entails(hypothesis, example) != label:
                yield example, label


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
    check_rates(epsilon, delta)
    if exact_eq is not None:
        return learn_with_mq_eq(signature, mq, exact_eq, stats=stats)

    eq_index = 0

    def sampling_eq(hypothesis: PossKB, *, instance: str = "") -> Optional[PossClause]:
        nonlocal eq_index
        eq_index += 1
        n = sample_size(epsilon, delta, eq_index)
        found = next(_disagreements(hypothesis, dist, n), None)
        if found is None:
            return None
        example, label = found
        # hypothesis clauses are target-entailed, so a disagreement can only
        # be a positive example the hypothesis misses
        if not label:
            raise ProtocolError(f"negative disagreement on {example}")
        return example

    return learn_with_mq_eq(signature, mq, sampling_eq, stats=stats)


def empirical_error(hypothesis: PossKB, dist, n: int):
    """The :class:`~fractions.Fraction` of n fresh samples where hypothesis
    entailment differs from the label, counted by the scan of a sampled EQ."""
    from fractions import Fraction  # imported here: its only use in the package
    if n < 1:
        raise ValueError("need at least one sample")
    return Fraction(sum(1 for _ in _disagreements(hypothesis, dist, n)), n)
