"""Exact learners for propositional Horn KBs from entailment queries.

Three learners live here:

* :class:`HornEntailmentLearner` - the polynomial MQ+EQ learner.  It asks
  its membership queries through an oracle callable and always waits at its
  equivalence query: each counterexample runs it to its next EQ.  Waiting
  there is what lets the possibilistic orchestrator run many instances side
  by side and pool their hypotheses into one EQ.
* :func:`learn_by_mq_enumeration` - a bounded MQ-only learner that simply
  confirms every candidate clause up to an antecedent-size bound.
* :func:`learn_by_eq_enumeration` - an EQ-only learner that walks a dovetailed
  enumeration of the hypothesis space until the oracle accepts.

The MQ+EQ learner keeps an ordered list of antecedent sets with a cached set
of confirmed consequents per slot.  On a positive counterexample A -> d it
scans for the first slot s_i whose intersection I = s_i & A is a proper
subset of s_i and admits a productive refinement: some clause I -> c is
confirmed by the oracle and not yet entailed by the current hypothesis.
That slot shrinks to I and takes all its confirmed consequents; if no slot
refines, A is appended with consequent d (merging into an existing slot with
the same antecedent).  Every hypothesis clause is oracle-confirmed, so
counterexamples stay positive.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

from .horn import FALSUM, HornClause, HornKB, entails


class ProtocolError(RuntimeError):
    """The learning-system message protocol was violated."""


class EnumerationCapReached(RuntimeError):
    """The EQ-only enumeration hit its cap before finding the target."""


def _cons_key(c: Optional[str]) -> tuple[bool, str]:
    return (c is FALSUM, c or "")


class HornEntailmentLearner:
    """MQ+EQ learner for a hidden Horn KB over a known signature.

    ``mq`` answers whether the target entails a clause.  The learner always
    waits at an EQ on :attr:`pending_hypothesis`: construction and every
    counterexample run it, MQs included, to the next one.  A "yes" ends the
    run; the caller that hears it keeps the hypothesis.
    """

    def __init__(self, signature: Iterable[str], mq: Callable[[HornClause], bool]):
        self.signature = tuple(sorted(set(signature)))
        self._mq = mq
        self.antecedents: list[frozenset[str]] = []
        self.consequents: list[set[Optional[str]]] = []
        self.mqs = 0
        self.eqs = 1  # the EQ on the empty hypothesis
        self._build()

    # -- protocol surface ----------------------------------------------------

    @property
    def pending_hypothesis(self) -> HornKB:
        """The hypothesis this instance currently stands behind."""
        return self._hypothesis

    def answer_eq_counterexample(self, cex: HornClause) -> None:
        """Refine or extend the hypothesis by a positive counterexample.

        The scan looks for the first slot whose intersection I with the
        counterexample antecedent is a proper subset and a productive
        refinement.  The slot is refined only when some confirmed clause
        I -> c is not already entailed by the current hypothesis; refining on
        a bare confirmation loops when the target holds empty- or
        small-antecedent clauses another slot already covers, because the
        shrunk slot then duplicates known material while its own clauses are
        thrown away.
        """
        if not cex.variables <= self._hypothesis.signature:
            raise ProtocolError(f"counterexample outside the signature: {cex}")
        if entails(self._hypothesis, cex):
            raise ProtocolError(f"counterexample already entailed: {cex}")
        swept: dict[frozenset[str], list[Optional[str]]] = {}
        for i, slot in enumerate(self.antecedents):
            intersection = slot & cex.antecedent
            if intersection == slot:
                continue
            if intersection not in swept:
                swept[intersection] = self._sweep(intersection)
            confirmed = swept[intersection]
            if any(
                not entails(self._hypothesis, HornClause(intersection, c))
                for c in confirmed
            ):
                self.antecedents[i] = intersection
                self.consequents[i] = set(confirmed)
                break
        else:
            self._append(cex.antecedent, cex.consequent)
        self._build()
        self.eqs += 1

    # -- the counterexample scan -----------------------------------------------

    def _build(self) -> None:
        """Rebuild the hypothesis KB after the slots changed."""
        self._hypothesis = HornKB(
            (
                HornClause(ant, c)
                for ant, cs in zip(self.antecedents, self.consequents)
                for c in cs
            ),
            self.signature,
        )

    def _sweep(self, body: frozenset[str]) -> list[Optional[str]]:
        """The consequents c of the candidates body -> c that ``mq``
        confirms, asked in signature order and then falsum."""
        confirmed = []
        for c in [v for v in self.signature if v not in body] + [FALSUM]:
            self.mqs += 1
            if self._mq(HornClause(body, c)):
                confirmed.append(c)
        return confirmed

    def _append(self, ant: frozenset[str], cons: Optional[str]) -> None:
        for i, existing in enumerate(self.antecedents):
            if existing == ant:
                self.consequents[i].add(cons)
                break
        else:
            self.antecedents.append(ant)
            self.consequents.append({cons})

    # -- snapshots ---------------------------------------------------------------

    def to_snapshot(self) -> str:
        """Serialize the waiting state to a JSON document."""
        state = {
            "signature": list(self.signature),
            "antecedents": [sorted(a) for a in self.antecedents],
            "consequents": [sorted(cs, key=_cons_key) for cs in self.consequents],
            "counters": {"mqs": self.mqs, "eqs": self.eqs},
        }
        return json.dumps(state, indent=2)

    @classmethod
    def from_snapshot(
        cls, text: str, mq: Callable[[HornClause], bool]
    ) -> "HornEntailmentLearner":
        state = json.loads(text)
        # older snapshots may carry "pending_mq", "task", "minimize_antecedents",
        # "mq_answer" and a "steps" counter; all are ignored.  An old "status"
        # "done" loads as the EQ wait, which its teacher then accepts; one at a
        # membership query ("waiting-mq") is refused: its sweep cannot resume.
        wait = state.get("status", "waiting-eq")
        if wait not in ("waiting-eq", "done"):
            raise ProtocolError(f"snapshot status {wait!r} is not an EQ wait or done")
        if len(state["antecedents"]) != len(state["consequents"]):
            raise ProtocolError("snapshot slots differ in antecedents and consequents")
        learner = cls(state["signature"], mq)
        learner.antecedents = [frozenset(a) for a in state["antecedents"]]
        learner.consequents = [set(cs) for cs in state["consequents"]]
        learner._build()
        learner.mqs = state["counters"]["mqs"]
        learner.eqs = state["counters"]["eqs"]
        return learner


def drive(
    learner: HornEntailmentLearner,
    eq: Callable[[HornKB], Optional[HornClause]],
) -> HornKB:
    """The hypothesis ``eq`` accepts (answers None for), answering every
    counterexample before it."""
    while True:
        hypothesis = learner.pending_hypothesis
        cex = eq(hypothesis)
        if cex is None:
            return hypothesis
        learner.answer_eq_counterexample(cex)


# -- MQ-only bounded learner --------------------------------------------------


def clause_space(
    signature: Iterable[str], max_antecedent: int
) -> Iterator[HornClause]:
    """All non-tautology clauses with bounded antecedent, in canonical order."""
    variables = sorted(set(signature))
    for size in range(min(max_antecedent, len(variables)) + 1):
        for ant in combinations(variables, size):
            body = frozenset(ant)
            for cons in variables:
                if cons not in body:
                    yield HornClause(body, cons)
            yield HornClause(body, FALSUM)


def learn_by_mq_enumeration(
    signature: Iterable[str],
    max_antecedent: int,
    mq: Callable[[HornClause], bool],
) -> HornKB:
    """Confirm every candidate clause; exact for targets within the bound."""
    variables = sorted(set(signature))
    confirmed = [c for c in clause_space(variables, max_antecedent) if mq(c)]
    return HornKB.of(confirmed, variables)


# -- EQ-only enumeration learner ------------------------------------------------


def learn_by_eq_enumeration(enumeration, eq, cap: int):
    """First enumerated hypothesis the EQ oracle accepts.

    Generic over classical and possibilistic KBs: ``eq`` answers None for
    yes.  Raises EnumerationCapReached after ``cap`` rejected hypotheses.
    """
    for i, kb in enumerate(enumeration):
        if i >= cap:
            raise EnumerationCapReached(f"no accepted hypothesis within {cap} tries")
        if eq(kb) is None:
            return kb
    raise EnumerationCapReached("enumeration exhausted without acceptance")
