"""Target-holding oracles answering membership and equivalence queries.

A teacher owns a fixed hidden target, counts every query, logs every event,
and never exposes the target to the learner side.  Counterexample selection
is pluggable:

* ``clause-exact``   - first target clause not entailed by the hypothesis
                       (deterministic canonical scan order);
* ``adversarial-low``- same formula, valuation redrawn uniformly from the
                       grid points the hypothesis misses, possibly at higher
                       precision than the target itself;
* ``random``         - uniform choice among the violated clauses;
* ``scripted``       - fixed replay list, each entry validated before use.

Every returned counterexample is checked to actually separate target and
hypothesis; a scripted entry that does not is a hard error rather than a
silently wrong session.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .horn import HornClause, HornKB, entails, equivalent
from .possibilistic import PossClause, PossKB, poss_entails, poss_equivalent, val_of
from .transcript import Transcript
from .valuation import Valuation

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


def find_classical_counterexample(
    target: HornKB, hypothesis: HornKB
) -> Optional[tuple[bool, HornClause]]:
    for c in target.sorted_clauses:
        if not entails(hypothesis, c):
            return True, c
    for c in hypothesis.sorted_clauses:
        if not entails(target, c):
            return False, c
    return None


class _TeacherBase:
    def __init__(
        self,
        cex_strategy: str,
        rng_seed: int,
        script: Optional[Sequence] = None,
    ) -> None:
        if cex_strategy not in STRATEGIES:
            raise TeacherError(f"unknown strategy: {cex_strategy!r}")
        if cex_strategy == "scripted" and script is None:
            raise TeacherError("scripted strategy requires a script")
        self.cex_strategy = cex_strategy
        self.rng = random.Random(rng_seed)
        self.script = list(script) if script is not None else []
        self._script_pos = 0
        self.transcript = Transcript()
        self.mq_count = 0
        self.eq_count = 0

    def _next_script_entry(self):
        if self._script_pos >= len(self.script):
            raise ScriptExhausted(
                "script exhausted while hypothesis is not equivalent to the target"
            )
        entry = self.script[self._script_pos]
        self._script_pos += 1
        return entry


class PossibilisticTeacher(_TeacherBase):
    """MQ/EQ oracle pair for a hidden possibilistic Horn target."""

    def __init__(
        self,
        target: PossKB,
        cex_strategy: str = "clause-exact",
        rng_seed: int = 0,
        script: Optional[Sequence[PossClause]] = None,
        cex_precision: int = 2,
    ) -> None:
        super().__init__(cex_strategy, rng_seed, script)
        self.target = target
        self.cex_precision = cex_precision

    @property
    def signature(self) -> frozenset[str]:
        return self.target.signature

    def mq(self, formula: HornClause, valuation: Valuation, *, instance: str = "") -> bool:
        if not formula.variables <= self.target.signature:
            extra = sorted(formula.variables - self.target.signature)
            raise TeacherError(f"membership query outside target signature: {extra}")
        answer = poss_entails(self.target, PossClause(formula, valuation))
        self.mq_count += 1
        self.transcript.record(
            "mq", str(formula), str(valuation), "yes" if answer else "no", instance
        )
        return answer

    def eq(self, hypothesis: PossKB, *, instance: str = "") -> Optional[PossClause]:
        """None means yes; otherwise a counterexample chosen by the strategy."""
        self.eq_count += 1
        input_text = "; ".join(str(c) for c in hypothesis.sorted_clauses)
        if poss_equivalent(hypothesis, self.target):
            self.transcript.record("eq", input_text, None, "yes", instance)
            return None
        cex = self._choose_counterexample(hypothesis)
        self._check_sound(cex, hypothesis)
        self.transcript.record("eq", input_text, None, str(cex), instance)
        return cex

    def _check_sound(self, cex: PossClause, hypothesis: PossKB) -> None:
        t_side = poss_entails(self.target, cex)
        h_side = poss_entails(hypothesis, cex)
        if t_side == h_side:
            raise TeacherError(f"not a counterexample for this hypothesis: {cex}")

    def _choose_counterexample(self, hypothesis: PossKB) -> PossClause:
        if self.cex_strategy == "scripted":
            return self._next_script_entry()
        found = find_counterexample(self.target, hypothesis)
        if found is None:
            raise TeacherError("no separating clause for an inequivalent hypothesis")
        positive, cex = found
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


class ClassicalTeacher(_TeacherBase):
    """MQ/EQ oracle pair for a hidden classical Horn target."""

    def __init__(
        self,
        target: HornKB,
        cex_strategy: str = "clause-exact",
        rng_seed: int = 0,
        script: Optional[Sequence[HornClause]] = None,
    ) -> None:
        super().__init__(cex_strategy, rng_seed, script)
        self.target = target

    @property
    def signature(self) -> frozenset[str]:
        return self.target.signature

    def mq(self, formula: HornClause, *, instance: str = "") -> bool:
        if not formula.variables <= self.target.signature:
            extra = sorted(formula.variables - self.target.signature)
            raise TeacherError(f"membership query outside target signature: {extra}")
        answer = entails(self.target, formula)
        self.mq_count += 1
        self.transcript.record(
            "mq", str(formula), None, "yes" if answer else "no", instance
        )
        return answer

    def eq(self, hypothesis: HornKB, *, instance: str = "") -> Optional[HornClause]:
        self.eq_count += 1
        input_text = "; ".join(str(c) for c in hypothesis.sorted_clauses)
        if equivalent(hypothesis, self.target):
            self.transcript.record("eq", input_text, None, "yes", instance)
            return None
        cex = self._choose_counterexample(hypothesis)
        t_side = entails(self.target, cex)
        h_side = entails(hypothesis, cex)
        if t_side == h_side:
            raise TeacherError(f"not a counterexample for this hypothesis: {cex}")
        self.transcript.record("eq", input_text, None, str(cex), instance)
        return cex

    def _choose_counterexample(self, hypothesis: HornKB) -> HornClause:
        if self.cex_strategy == "scripted":
            return self._next_script_entry()
        found = find_classical_counterexample(self.target, hypothesis)
        if found is None:
            raise TeacherError("no separating clause for an inequivalent hypothesis")
        positive, cex = found
        if self.cex_strategy == "random" and positive:
            pool = [
                c for c in self.target.sorted_clauses if not entails(hypothesis, c)
            ]
            return self.rng.choice(pool)
        # adversarial-low has no valuation to lower classically
        return cex
