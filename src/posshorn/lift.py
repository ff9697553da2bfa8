"""Lifting classical Horn learners to possibilistic targets, and back.

The possibilistic membership oracle answers "is (phi, a) entailed", which by
the cut reduction is exactly "does the a-cut of the target entail phi".  Everything
in this module exploits that bridge:

* :func:`find_valuation` binary-searches the precision-p grid for the largest
  degree at which a formula is entailed (the entailment predicate is monotone
  in the degree), in at most ceil(log2(10^p + 1)) membership queries.
* :func:`learn_with_mq_naive` runs one MQ-only base learner per grid point
  and assembles the per-level results.
* :func:`learn_with_mq_levels` discovers the occurring levels bottom-up: learn
  the strict cut above the current level, locate the next level as the least
  valuation among the learned clauses, repeat; at most one iteration per
  distinct target valuation.
* :func:`orchestrate_mq_eq` runs a pool of MQ+EQ learner instances, one per
  discovered level.  Each instance asks its MQs at label a as (phi, a)
  through its own oracle and waits only at its equivalence query.  With
  every instance waiting there, the pooled hypotheses (each clause tagged
  with its instance label, plus a tautology anchor pinning the hypothesis
  precision to p) are submitted as one possibilistic EQ.  That KB is
  assembled from per-instance parts (see
  :class:`~posshorn.possibilistic.Assembly`), each kept while its instance's
  KB is unchanged.  A counterexample either spawns the instance for its
  level or is forwarded to every pooled instance at or below that level that
  does not entail it yet.  When the level search degenerates (degree 0, or the
  owning instance already entails the formula) the working precision p is too
  small: :exc:`PrecisionTooLow`.
* :func:`learn_with_mq_eq` wraps the orchestrator with precision escalation
  p = 1, 2, ... and needs no prior knowledge of the target precision.
* :func:`learn_classical_via_possibilistic` is the reverse reduction: a
  classical target is presented to the possibilistic learner as if every
  formula held with degree 1.
"""

from __future__ import annotations

from itertools import combinations, count, product
from typing import Callable, Iterator, Optional

from .classical import (
    HornEntailmentLearner,
    ProtocolError,
    clause_space,
    learn_by_eq_enumeration,
    learn_by_mq_enumeration,
)
from .horn import HornClause, HornKB, _Record, entails
from .possibilistic import Assembly, Part, PossClause, PossKB, projection
from .valuation import Valuation, grid

# Plain oracle callables take (formula, degree) / (hypothesis).  The session
# oracles of the orchestrator additionally accept a keyword-only ``instance``
# label naming the requester, so teachers can attribute transcript events.
PossMQ = Callable[[HornClause, Valuation], bool]
PossEQ = Callable[[PossKB], Optional[PossClause]]


class PrecisionTooLow(Exception):
    """The working precision is provably below the target precision."""


class RunStats(_Record):
    """Aggregate counters and scheduling trace of a learning session."""

    _fields = ("instances_spawned", "wall_steps", "escalations", "spawn_order", "dispatches")

    def __init__(
        self, instances_spawned: int = 0, wall_steps: int = 0, escalations: int = 0,
        spawn_order: Optional[list[str]] = None,
        dispatches: Optional[list[tuple[str, tuple[str, ...]]]] = None,
    ) -> None:
        self.instances_spawned = instances_spawned
        self.wall_steps = wall_steps
        self.escalations = escalations
        self.spawn_order = [] if spawn_order is None else spawn_order
        self.dispatches = [] if dispatches is None else dispatches


def find_valuation(mq: PossMQ, p: int, phi: HornClause) -> Valuation:
    """Largest grid(p) point at which phi is entailed, or exact zero.

    Binary search on the monotone predicate degree -> mq(phi, degree); uses
    at most ceil(log2(10^p + 1)) membership queries.
    """
    lo, hi = 0, 10**p
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mq(phi, Valuation(mid, p)):
            lo = mid
        else:
            hi = mid - 1
    return Valuation(lo, p) if lo else Valuation.zero()


def assemble(cuts: list[tuple[Valuation, HornKB]]) -> PossKB:
    """Union of per-level KBs tagged with their level."""
    levels = [v for v, _ in cuts]
    if len(set(levels)) != len(levels):
        raise ValueError("assemble requires distinct levels")
    clauses = [
        PossClause(phi, level) for level, kb in cuts for phi in kb.sorted_clauses
    ]
    signature = frozenset().union(*(kb.signature for _, kb in cuts)) if cuts else ()
    return PossKB.of(clauses, signature)


# -- MQ-only transfers (target precision known) ---------------------------------


def learn_with_mq_naive(
    signature,
    p: int,
    mq: PossMQ,
    max_antecedent: int,
) -> PossKB:
    """One bounded MQ-only base run per positive grid(p) point."""
    pairs = []
    for alpha in grid(p)[1:]:
        kb = learn_by_mq_enumeration(
            signature, max_antecedent, lambda c, _a=alpha: mq(c, _a)
        )
        pairs.append((alpha, kb))
    return assemble(pairs)


def learn_with_mq_levels(
    signature,
    p: int,
    mq: PossMQ,
    max_antecedent: int,
    level_log: Optional[list[Valuation]] = None,
) -> PossKB:
    """Level-discovery MQ-only transfer: one base run per occurring level.

    Learns the strict cut above gamma (probing at gamma + 10^-p), then jumps
    gamma to the least valuation among the learned clauses.  Stops when the
    learned cut is empty or the probe would leave (0, 1].
    """
    gamma = Valuation.zero()
    recorded: list[tuple[Valuation, HornKB]] = []
    while True:
        next_index = gamma.scaled(p) + 1
        if next_index > 10**p:
            break
        probe = Valuation(next_index, p)
        kb = learn_by_mq_enumeration(
            signature, max_antecedent, lambda c, _a=probe: mq(c, _a)
        )
        if not kb.clauses:
            break
        beta = min(find_valuation(mq, p, phi) for phi in kb.sorted_clauses)
        if beta <= gamma:
            raise ProtocolError(
                f"level search made no progress at {gamma} (target precision > {p}?)"
            )
        recorded.append((beta, kb))
        if level_log is not None:
            level_log.append(beta)
        gamma = beta
    return assemble(recorded)


# -- EQ-only enumeration ---------------------------------------------------------


def enumerate_poss_kbs(signature) -> Iterator[PossKB]:
    """Dovetailed enumeration of possibilistic Horn KBs over the signature.

    Stratified by (clause count m, valuation precision p) in order of
    m + p; a KB whose valuations all have lower precision reappears in later
    strata, which costs enumeration budget but never correctness.
    """
    variables = sorted(set(signature))
    clauses = list(clause_space(variables, len(variables)))
    for stratum in count(1):
        for m in range(stratum):
            p = stratum - m
            if m == 0:
                if p == 1:
                    yield PossKB.of((), variables)
                continue
            if m > len(clauses):
                continue
            values = [Valuation(i, p) for i in range(1, 10**p + 1)]
            for combo in combinations(clauses, m):
                for vals in product(values, repeat=m):
                    yield PossKB.of(
                        (PossClause(c, v) for c, v in zip(combo, vals)), variables
                    )


def learn_with_eq_enumeration(eq: PossEQ, signature, cap: int) -> PossKB:
    """EQ-only learning by enumeration; no precision knowledge needed."""
    return learn_by_eq_enumeration(enumerate_poss_kbs(signature), eq, cap)


# -- the MQ+EQ orchestrator -------------------------------------------------------


def orchestrate_mq_eq(
    signature,
    p: int,
    mq: PossMQ,
    eq: PossEQ,
    stats: Optional[RunStats] = None,
) -> PossKB:
    """Drive one instance pool at working precision p.

    ``mq`` and ``eq`` are session oracles: they must accept a keyword-only
    ``instance`` string naming the requester (a pool label, or
    "orchestrator" for level searches and the pooled equivalence queries).
    Returns the accepted hypothesis, or raises :exc:`PrecisionTooLow` when a
    counterexample proves the target has precision above p.
    """
    if stats is None:
        stats = RunStats()
    sig = frozenset(signature)
    anchor_var = min(sig) if sig else "x1"
    assembly = Assembly(sig | {anchor_var}, p)
    anchor = assembly.part(
        Valuation.unit(p), [HornClause(frozenset([anchor_var]), anchor_var)]
    )
    # label -> its instance, in spawn order
    pool: dict[Valuation, HornEntailmentLearner] = {}
    # label -> (the instance KB a part was built from, that part)
    parts: dict[Valuation, tuple[HornKB, Part]] = {}

    def part(label: Valuation) -> Part:
        kb = pool[label].pending_hypothesis
        held = parts.get(label)
        if held is None or held[0] is not kb:
            held = parts[label] = kb, assembly.part(label, kb.sorted_clauses)
        return held[1]

    def spawn(label: Valuation) -> None:
        name = str(label)
        pool[label] = HornEntailmentLearner(
            sig, lambda phi: mq(phi, label, instance=name)
        )
        stats.spawn_order.append(name)

    def orchestrator_mq(phi: HornClause, degree: Valuation) -> bool:
        return mq(phi, degree, instance="orchestrator")

    try:
        spawn(Valuation.unit(p))
        while True:
            hypothesis = assembly.kb([part(label) for label in pool] + [anchor])
            answer = eq(hypothesis, instance="orchestrator")
            if answer is None:
                return hypothesis
            phi = answer.formula
            beta = find_valuation(orchestrator_mq, p, phi)
            if beta.is_zero:
                raise PrecisionTooLow(
                    f"counterexample {phi} has degree below 10^-{p}"
                )
            if beta not in pool:
                spawn(beta)
                continue
            receivers = [
                label
                for label in pool
                if label <= beta and not entails(pool[label].pending_hypothesis, phi)
            ]
            if beta not in receivers:
                raise PrecisionTooLow(
                    f"level {beta} already entails {phi}: degree needs precision > {p}"
                )
            for label in receivers:
                pool[label].answer_eq_counterexample(phi)
            stats.dispatches.append((str(phi), tuple(map(str, receivers))))
    finally:
        stats.instances_spawned += len(pool)
        stats.wall_steps += sum(inst.mqs + inst.eqs for inst in pool.values())


def learn_with_mq_eq(
    signature,
    mq: PossMQ,
    eq: PossEQ,
    stats: Optional[RunStats] = None,
    max_precision: int = 12,
) -> PossKB:
    """Full MQ+EQ learning with precision escalation p = 1, 2, ...

    Each escalation restarts the orchestrator from scratch, as a counterexample
    has proven the working precision too small; the target precision bounds
    the number of escalations.
    """
    if stats is None:
        stats = RunStats()
    p = 1
    while True:
        try:
            return orchestrate_mq_eq(signature, p, mq, eq, stats=stats)
        except PrecisionTooLow:
            p += 1
            stats.escalations += 1
            if p > max_precision:
                raise


# -- reverse reduction -------------------------------------------------------------


def learn_classical_via_possibilistic(
    signature,
    mq: Callable[[HornClause], bool],
    eq: Callable[[HornKB], Optional[HornClause]],
    stats: Optional[RunStats] = None,
    on_lift: Optional[Callable[[PossClause], None]] = None,
) -> HornKB:
    """Learn a classical Horn target through the possibilistic learner.

    The classical target k is presented as {(phi, 1) | phi in k}: membership
    queries ignore the degree, classical counterexamples are lifted to degree
    1, and the learned hypothesis is projected back.  ``mq`` and ``eq`` are
    classical session oracles (clause/KB plus a keyword ``instance``).
    """

    def poss_mq(phi: HornClause, _degree: Valuation, *, instance: str = "") -> bool:
        return mq(phi, instance=instance)

    def poss_eq(h: PossKB, *, instance: str = "") -> Optional[PossClause]:
        cex = eq(projection(h), instance=instance)
        if cex is None:
            return None
        lifted = PossClause(cex, Valuation.one())
        if on_lift is not None:
            on_lift(lifted)
        return lifted

    hypothesis = learn_with_mq_eq(signature, poss_mq, poss_eq, stats=stats)
    return projection(hypothesis)
