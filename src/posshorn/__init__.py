"""Possibilistic propositional Horn reasoning and exact learning from queries.

The package splits into:

* :mod:`posshorn.valuation` - exact scaled-decimal degrees in [0, 1];
* :mod:`posshorn.horn` - Horn clauses, forward-chaining entailment, and a
  truth-table cross-check oracle;
* :mod:`posshorn.possibilistic` - possibilistic KBs (cuts, entailment,
  degrees, inconsistency) plus the brute-force distribution semantics;
* :mod:`posshorn.teacher` - the target-holding MQ/EQ oracle with
  counterexample strategies, query accounting, and JSON-lines transcripts;
  the classical teacher is the same oracle reading its KB at degree 1;
* :mod:`posshorn.classical` - classical Horn learners (the MQ+EQ learner,
  which asks MQs through an oracle and waits at its EQs, a bounded MQ-only
  learner, EQ-only enumeration);
* :mod:`posshorn.lift` - the possibilistic lifts: level search by binary
  search over degrees, per-level transfers, the multi-instance orchestrator
  with precision escalation, and the reverse reduction;
* :mod:`posshorn.pac` - PAC-with-membership-queries via sampled equivalence;
* :mod:`posshorn.cli` - the ``posshorn`` command (learn/verify/oracle-check).
"""

from .valuation import Valuation, ValuationError, grid
from .horn import (
    FALSUM,
    HornClause,
    HornKB,
    HornSyntaxError,
    closure,
    entails,
    equivalent,
    parse_clause,
    parse_horn_kb,
    tt_entails,
)
from .possibilistic import (
    PossClause,
    PossKB,
    cut,
    inc_of,
    necessity,
    parse_poss_clause,
    parse_poss_kb,
    pi_k,
    poss_entails,
    poss_equivalent,
    projection,
    val_of,
)
from .teacher import (
    ClassicalTeacher,
    PossibilisticTeacher,
    ScriptExhausted,
    TeacherError,
    find_classical_counterexample,
    find_counterexample,
)
from .classical import (
    DONE,
    WAITING_EQ,
    EnumerationCapReached,
    HornEntailmentLearner,
    ProtocolError,
    clause_space,
    drive,
    learn_by_eq_enumeration,
    learn_by_mq_enumeration,
)
from .lift import (
    PrecisionTooLow,
    RunStats,
    assemble,
    enumerate_poss_kbs,
    find_valuation,
    learn_classical_via_possibilistic,
    learn_with_eq_enumeration,
    learn_with_mq_eq,
    learn_with_mq_levels,
    learn_with_mq_naive,
    orchestrate_mq_eq,
)
from .pac import (
    UniformClauseDistribution,
    empirical_error,
    pac_learn,
    sample_size,
)

__version__ = "0.1.0"
