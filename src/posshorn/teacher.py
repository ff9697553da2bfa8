"""Target-holding oracles answering membership and equivalence queries.

A teacher owns a fixed hidden target, counts every query, logs every event,
and never exposes the target to the learner side.

There is one teacher, :class:`PossibilisticTeacher`.  A classical Horn KB k
is the possibilistic KB {(phi, 1) | phi in k}, so :class:`ClassicalTeacher`
is that teacher at degree 1: it lifts its target, its script and every
submitted hypothesis to degree 1, answers through the possibilistic oracles,
and projects each counterexample back to its formula.  Its transcript shows
no degrees: membership queries record a null valuation.  ``adversarial-low``
gives it the ``clause-exact`` formula, as the projection drops the degree.

An equivalence query is one scan: :func:`find_counterexample` returns None
exactly when hypothesis and target are equivalent, which answers yes.
Otherwise the strategy picks the counterexample from that scan's result:

* ``clause-exact``   - first target clause not entailed by the hypothesis
                       (deterministic canonical scan order);
* ``adversarial-low``- same formula, valuation redrawn uniformly from the
                       grid points the hypothesis misses, possibly at higher
                       precision than the target itself;
* ``random``         - uniform choice among the violated clauses;
* ``scripted``       - fixed replay list, each entry validated before use.

Negative counterexamples (entailed by the hypothesis only) are returned as
found by every strategy but ``scripted``.  Every returned counterexample is
checked to actually separate target and hypothesis; a scripted entry that
does not is a hard error rather than a silently wrong session.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from .horn import HornClause, HornKB
from .possibilistic import PossClause, PossKB, poss_entails, val_of
from .transcript import Transcript
from .valuation import Valuation

# not called here; perfbench/spans.py patches these names in this module,
# so they stay importable from it
from .horn import entails, equivalent
from .possibilistic import poss_equivalent

STRATEGIES = ("clause-exact", "adversarial-low", "random", "scripted")


class TeacherError(RuntimeError):
    """Protocol violations: bad query signature or an unusable script."""


class ScriptExhausted(TeacherError):
    """The scripted counterexample list ran out while hypotheses still differ."""


def find_counterexample(
    target: PossKB, hypothesis: PossKB
) -> Optional[tuple[bool, PossClause]]:
    """A clause separating target and hypothesis, or None iff equivalent.

    Prefers positive counterexamples (entailed by the target, missed by the
    hypothesis); falls back to negative ones.  The boolean flags positivity.
    """
    for c in target.sorted_clauses:
        if not poss_entails(hypothesis, c):
            return True, c
    for c in hypothesis.sorted_clauses:
        if not poss_entails(target, c):
            return False, c
    return None


def _at_one(kb: HornKB) -> PossKB:
    """The classical KB read possibilistically: every clause at degree 1."""
    one = Valuation.one()
    return PossKB(frozenset(PossClause(c, one) for c in kb.clauses), kb.signature)


def find_classical_counterexample(
    target: HornKB, hypothesis: HornKB
) -> Optional[tuple[bool, HornClause]]:
    """:func:`find_counterexample` on the degree-1 readings of both KBs."""
    found = find_counterexample(_at_one(target), _at_one(hypothesis))
    return None if found is None else (found[0], found[1].formula)


class PossibilisticTeacher:
    """MQ/EQ oracle pair for a hidden possibilistic Horn target."""

    def __init__(
        self,
        target: PossKB,
        cex_strategy: str = "clause-exact",
        rng_seed: int = 0,
        script: Optional[Sequence[PossClause]] = None,
        cex_precision: int = 2,
    ) -> None:
        if cex_strategy not in STRATEGIES:
            raise TeacherError(f"unknown strategy: {cex_strategy!r}")
        if cex_strategy == "scripted" and script is None:
            raise TeacherError("scripted strategy requires a script")
        self.target = target
        self.cex_strategy = cex_strategy
        self.rng = random.Random(rng_seed)
        self.script = list(script) if script is not None else []
        self._script_pos = 0
        self.cex_precision = cex_precision
        self.transcript = Transcript()
        self.mq_count = 0
        self.eq_count = 0

    @property
    def signature(self) -> frozenset[str]:
        return self.target.signature

    def mq(self, formula: HornClause, valuation: Valuation, *, instance: str = "") -> bool:
        return self._answer_mq(formula, valuation, str(valuation), instance)

    def eq(self, hypothesis: PossKB, *, instance: str = "") -> Optional[PossClause]:
        """None means yes; otherwise a counterexample chosen by the strategy."""
        return self._answer_eq(hypothesis, str, instance)

    def _answer_mq(
        self, formula: HornClause, valuation: Valuation, shown: Optional[str], instance: str
    ) -> bool:
        if not formula.variables <= self.target.signature:
            extra = sorted(formula.variables - self.target.signature)
            raise TeacherError(f"membership query outside target signature: {extra}")
        answer = poss_entails(self.target, PossClause(formula, valuation))
        self.mq_count += 1
        self.transcript.record(
            "mq", str(formula), shown, "yes" if answer else "no", instance
        )
        return answer

    def _answer_eq(
        self, hypothesis: PossKB, show: Callable[[PossClause], str], instance: str
    ) -> Optional[PossClause]:
        self.eq_count += 1
        input_text = "; ".join(show(c) for c in hypothesis.sorted_clauses)
        found = find_counterexample(self.target, hypothesis)
        if found is None:
            self.transcript.record("eq", input_text, None, "yes", instance)
            return None
        cex = self._choose_counterexample(hypothesis, *found)
        if poss_entails(self.target, cex) == poss_entails(hypothesis, cex):
            raise TeacherError(f"not a counterexample for this hypothesis: {show(cex)}")
        self.transcript.record("eq", input_text, None, show(cex), instance)
        return cex

    def _choose_counterexample(
        self, hypothesis: PossKB, positive: bool, cex: PossClause
    ) -> PossClause:
        if self.cex_strategy == "scripted":
            if self._script_pos >= len(self.script):
                raise ScriptExhausted(
                    "script exhausted while hypothesis is not equivalent to the target"
                )
            self._script_pos += 1
            return self.script[self._script_pos - 1]
        if self.cex_strategy == "clause-exact" or not positive:
            return cex
        if self.cex_strategy == "random":
            pool = [
                c for c in self.target.sorted_clauses if not poss_entails(hypothesis, c)
            ]
            return self.rng.choice(pool)
        # adversarial-low: same formula, valuation redrawn below val(phi, t)
        phi = cex.formula
        high = val_of(self.target, phi)
        low = val_of(hypothesis, phi)
        p = max(self.cex_precision, high.prec(), low.prec())
        lo_i, hi_i = low.scaled(p), high.scaled(p)
        pick = self.rng.randint(lo_i + 1, hi_i)
        return PossClause(phi, Valuation(pick, p))


def _formula_text(c: PossClause) -> str:
    return str(c.formula)


class ClassicalTeacher(PossibilisticTeacher):
    """MQ/EQ oracle pair for a hidden classical Horn target, read at degree 1."""

    def __init__(
        self,
        target: HornKB,
        cex_strategy: str = "clause-exact",
        rng_seed: int = 0,
        script: Optional[Sequence[HornClause]] = None,
    ) -> None:
        one = Valuation.one()
        lifted = None if script is None else [PossClause(c, one) for c in script]
        super().__init__(_at_one(target), cex_strategy, rng_seed, lifted)

    def mq(self, formula: HornClause, *, instance: str = "") -> bool:
        return self._answer_mq(formula, Valuation.one(), None, instance)

    def eq(self, hypothesis: HornKB, *, instance: str = "") -> Optional[HornClause]:
        cex = self._answer_eq(_at_one(hypothesis), _formula_text, instance)
        return None if cex is None else cex.formula
