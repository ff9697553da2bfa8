"""Exact learners for propositional Horn KBs from entailment queries.

Three learners live here:

* :class:`HornEntailmentLearner` - the polynomial MQ+EQ learner, written as a
  resumable state machine: it emits one oracle request at a time and waits;
  delivering the answer runs it to its next request.  This message-passing
  shape is what lets the possibilistic orchestrator run many instances side
  by side and hold them all at their equivalence queries.
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

from .horn import FALSUM, HornClause, HornKB, entails, parse_clause

WAITING_MQ = "waiting-mq"
WAITING_EQ = "waiting-eq"
DONE = "done"


class ProtocolError(RuntimeError):
    """The learning-system message protocol was violated."""


class EnumerationCapReached(RuntimeError):
    """The EQ-only enumeration hit its cap before finding the target."""


def _cons_key(c: Optional[str]) -> tuple[bool, str]:
    return (c is FALSUM, c or "")


class HornEntailmentLearner:
    """Resumable MQ+EQ learner for a hidden Horn KB over a known signature.

    The learner always waits: at a membership query, at an equivalence query,
    or done.  Construction and every answer run it to its next request.
    """

    def __init__(self, signature: Iterable[str]):
        self.signature = tuple(sorted(set(signature)))
        self.antecedents: list[frozenset[str]] = []
        self.consequents: list[set[Optional[str]]] = []
        self.mqs = 0
        self.eqs = 0
        self._pending_mq: Optional[HornClause] = None
        self._task: Optional[dict] = None
        self._build()
        self._ask_eq()

    # -- protocol surface ----------------------------------------------------

    @property
    def status(self) -> str:
        return self._status

    @property
    def pending_mq(self) -> HornClause:
        if self._status != WAITING_MQ:
            raise ProtocolError("no membership query pending")
        return self._pending_mq

    @property
    def pending_hypothesis(self) -> HornKB:
        """The hypothesis this instance currently stands behind."""
        return self._hypothesis

    @property
    def result(self) -> HornKB:
        if self._status != DONE:
            raise ProtocolError("learner has not finished")
        return self._hypothesis

    def answer_mq(self, answer: bool) -> None:
        if self._status != WAITING_MQ:
            raise ProtocolError("no membership query to answer")
        self._scan(bool(answer))

    def answer_eq_yes(self) -> None:
        if self._status != WAITING_EQ:
            raise ProtocolError("no equivalence query to answer")
        self._status = DONE

    def answer_eq_counterexample(self, cex: HornClause) -> None:
        if self._status != WAITING_EQ:
            raise ProtocolError("no equivalence query to answer")
        if not cex.variables <= self._hypothesis.signature:
            raise ProtocolError(f"counterexample outside the signature: {cex}")
        if entails(self._hypothesis, cex):
            raise ProtocolError(f"counterexample already entailed: {cex}")
        self._task = {
            "ant": sorted(cex.antecedent),
            "cons": cex.consequent,
            "i": 0,
            "sweep": None,
            "asked": None,
            "confirmed": None,
            "sweep_cache": {},
        }
        self._scan(None)

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

    def _ask_mq(self, clause: HornClause) -> None:
        self._pending_mq = clause
        self._status = WAITING_MQ
        self.mqs += 1

    def _ask_eq(self) -> None:
        self._task = None
        self._pending_mq = None
        self._status = WAITING_EQ
        self.eqs += 1

    def _scan(self, answer: Optional[bool]) -> None:
        """Run the counterexample scan to its next request.

        The scan looks for the first slot whose intersection with the
        counterexample antecedent is a productive refinement.  For each slot
        with a properly smaller intersection I, every candidate I -> c is
        confirmed with the oracle (cached per I for the lifetime of this
        counterexample); ``answer`` is the oracle's answer to the candidate in
        flight, or None when no sweep is.  The slot is refined only when some
        confirmed clause is not already entailed by the current hypothesis;
        refining on a bare confirmation loops when the target holds empty- or
        small-antecedent clauses another slot already covers, because the
        shrunk slot then duplicates known material while its own clauses are
        thrown away.
        """
        task = self._task
        ant = frozenset(task["ant"])
        while task["i"] < len(self.antecedents):
            i = task["i"]
            intersection = self.antecedents[i] & ant
            if intersection == self.antecedents[i]:
                task["i"] += 1
                continue
            key = ",".join(sorted(intersection))
            if key not in task["sweep_cache"]:
                if task["sweep"] is None:
                    task["confirmed"] = []
                    task["sweep"] = [v for v in self.signature if v not in intersection]
                    task["sweep"].append(FALSUM)
                elif answer:
                    task["confirmed"].append(task["asked"])
                if task["sweep"]:
                    task["asked"] = task["sweep"].pop(0)
                    self._ask_mq(HornClause(intersection, task["asked"]))
                    return
                task["sweep_cache"][key] = task["confirmed"]
                task["sweep"] = None
            if self._refine_if_productive(i, intersection, task["sweep_cache"][key]):
                return
            task["i"] += 1
        self._append(ant, task["cons"])
        self._ask_eq()

    def _refine_if_productive(self, slot, intersection, confirmed) -> bool:
        """Shrink the slot to the intersection if that teaches us anything."""
        if not any(
            not entails(self._hypothesis, HornClause(intersection, c))
            for c in confirmed
        ):
            return False
        self.antecedents[slot] = intersection
        self.consequents[slot] = set(confirmed)
        self._build()
        self._ask_eq()
        return True

    def _append(self, ant: frozenset[str], cons: Optional[str]) -> None:
        for i, existing in enumerate(self.antecedents):
            if existing == ant:
                self.consequents[i].add(cons)
                break
        else:
            self.antecedents.append(ant)
            self.consequents.append({cons})
        self._build()

    # -- snapshots ---------------------------------------------------------------

    def to_snapshot(self) -> str:
        """Serialize the waiting state to a JSON document."""
        state = {
            "signature": list(self.signature),
            "antecedents": [sorted(a) for a in self.antecedents],
            "consequents": [sorted(cs, key=_cons_key) for cs in self.consequents],
            "status": self._status,
            "pending_mq": str(self._pending_mq) if self._pending_mq else None,
            "task": self._task,
            "counters": {"mqs": self.mqs, "eqs": self.eqs},
        }
        return json.dumps(state, indent=2)

    @classmethod
    def from_snapshot(cls, text: str) -> "HornEntailmentLearner":
        state = json.loads(text)
        # older snapshots may carry "minimize_antecedents", "mq_answer" and
        # a "steps" counter, and their tasks "stage"/"min_order"/"min_idx";
        # all are ignored
        status = state["status"]
        if status not in (WAITING_MQ, WAITING_EQ, DONE):
            raise ProtocolError(f"snapshot status {status!r} is not a wait")
        if status == WAITING_MQ and not (state["pending_mq"] and state["task"]):
            raise ProtocolError("waiting-mq snapshot lacks its query or task")
        if len(state["antecedents"]) != len(state["consequents"]):
            raise ProtocolError("snapshot slots differ in antecedents and consequents")
        learner = cls(state["signature"])
        learner.antecedents = [frozenset(a) for a in state["antecedents"]]
        learner.consequents = [set(cs) for cs in state["consequents"]]
        learner._build()
        learner._status = status
        learner._task = task = state["task"]
        if status == WAITING_MQ:
            if not 0 <= task["i"] < len(learner.antecedents):
                raise ProtocolError(f"snapshot task slot {task['i']} is out of range")
            if not {*task["ant"], task["cons"]} - {FALSUM} <= set(learner.signature):
                raise ProtocolError("snapshot task leaves the signature")
            learner._pending_mq = parse_clause(state["pending_mq"])
        learner.mqs = state["counters"]["mqs"]
        learner.eqs = state["counters"]["eqs"]
        return learner


def drive(
    learner: HornEntailmentLearner,
    mq: Callable[[HornClause], bool],
    eq: Callable[[HornKB], Optional[HornClause]],
) -> HornKB:
    """Run a learner instance to completion against oracle callables."""
    while learner.status != DONE:
        if learner.status == WAITING_MQ:
            learner.answer_mq(mq(learner.pending_mq))
            continue
        cex = eq(learner.pending_hypothesis)
        if cex is None:
            learner.answer_eq_yes()
        else:
            learner.answer_eq_counterexample(cex)
    return learner.result


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
