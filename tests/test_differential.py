"""The compiled reasoning core against the independent oracles.

Entailment chains over bitsets and cut tables (``horn``, ``possibilistic``);
these properties pit it against the truth-table oracle ``tt_entails``, the
distribution semantics ``pi_k``/``necessity``, and exact ``Fraction``
arithmetic.  Every test is derandomized, so a run is reproducible.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from posshorn import (
    FALSUM,
    HornClause,
    HornKB,
    PossClause,
    PossKB,
    Valuation,
    entails,
    find_classical_counterexample,
    find_counterexample,
    necessity,
    pi_k,
    poss_entails,
    poss_equivalent,
    parse_clause,
    parse_horn_kb,
    tt_entails,
    val_of,
)
from posshorn.horn import _compile
from posshorn.possibilistic import _cut_rules

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)
POOL = [f"x{i}" for i in range(8)]


@st.composite
def clauses(draw, names):
    """Any clause over ``names``: tautologies and falsum included."""
    antecedent = draw(st.frozensets(st.sampled_from(names), max_size=len(names)))
    consequent = draw(st.one_of(st.just(FALSUM), st.sampled_from(names)))
    return HornClause(antecedent, consequent)


@st.composite
def valuations(draw, max_precision=3):
    p = draw(st.integers(1, max_precision))
    return Valuation(draw(st.integers(0, 10**p)), p)


positive = valuations().filter(lambda v: not v.is_zero)


@st.composite
def horn_kbs(draw):
    """A KB over the first k <= 8 pool variables (k = 0: the empty KB)."""
    names = POOL[: draw(st.integers(0, 8))]
    if not names:
        return HornKB.of((), ())
    body = draw(st.lists(clauses(names), max_size=10))
    return HornKB.of(body, names)


@st.composite
def poss_kbs(draw, max_vars=6, max_clauses=8):
    names = POOL[: draw(st.integers(1, max_vars))]
    body = draw(
        st.lists(st.builds(PossClause, clauses(names), positive), max_size=max_clauses)
    )
    return PossKB.of(body, names)


# a query may use up to two variables beyond any KB signature
queries = clauses(POOL[:8] + ["y0", "y1"])


def fraction(v: Valuation) -> Fraction:
    return Fraction(v.mantissa, 10**v.precision)


class TestHornEntailment:
    @SETTINGS
    @given(horn_kbs(), queries)
    # c -> d sorts before a,b -> c, so d needs a second pass over the rules
    @example(parse_horn_kb("a,b -> c\nc -> d"), parse_clause("a,b -> d"))
    def test_matches_truth_table(self, kb, query):
        assert entails(kb, query) == tt_entails(kb, query)

    @SETTINGS
    @given(horn_kbs())
    def test_falsum_and_tautologies(self, kb):
        falsum = HornClause(frozenset(), FALSUM)
        assert entails(kb, falsum) == tt_entails(kb, falsum)
        for v in sorted(kb.signature) + ["y0"]:
            assert entails(kb, HornClause(frozenset([v]), v))


class TestPossibilisticEntailment:
    @SETTINGS
    @given(poss_kbs(), queries, positive)
    def test_entails_and_val_match_necessity(self, kb, phi, a):
        degree = necessity(pi_k(kb.with_signature(phi.variables)), phi)
        assert val_of(kb, phi) == degree
        assert poss_entails(kb, PossClause(phi, a)) == (a <= degree)

    @SETTINGS
    @given(poss_kbs(max_vars=4, max_clauses=5), st.data())
    def test_equivalence_matches_distributions(self, a, data):
        # b: a plus clauses it already entails, at most at their degree, and
        # sometimes one arbitrary clause, which usually breaks equivalence
        names = sorted(a.signature)
        extra = []
        for phi in data.draw(st.lists(clauses(names), max_size=3)):
            degree = val_of(a, phi)
            if not degree.is_zero:
                lower = data.draw(positive.filter(lambda v: v <= degree))
                extra.append(PossClause(phi, lower))
        if data.draw(st.booleans()):
            extra.append(PossClause(data.draw(clauses(names)), data.draw(positive)))
        b = PossKB.of(set(a.clauses) | set(extra), a.signature)
        assert poss_equivalent(a, b) == (pi_k(a) == pi_k(b))
        assert poss_equivalent(b, a) == poss_equivalent(a, b)

    @SETTINGS
    @given(poss_kbs(), valuations(max_precision=4))
    def test_cut_lookup_matches_definition(self, kb, a):
        index = kb._cut_table[0]
        expected = [_compile(index, c.formula) for c in kb.clauses if c.valuation >= a]
        assert sorted(_cut_rules(kb, a)) == sorted(expected)


@st.composite
def poss_kb_pairs(draw):
    """(a, b) over one signature: b drops some clauses of a, adds clauses a
    entails at most at their degree (at any precision up to 3), and
    sometimes one arbitrary clause, so equivalent and inequivalent pairs,
    and counterexamples on either side, are all common."""
    a = draw(poss_kbs(max_vars=4, max_clauses=5))
    names = sorted(a.signature)
    kept = [c for c in a.sorted_clauses if draw(st.booleans()) or draw(st.booleans())]
    for phi in draw(st.lists(clauses(names), max_size=3)):
        degree = val_of(a, phi)
        if not degree.is_zero:
            kept.append(PossClause(phi, draw(positive.filter(lambda v: v <= degree))))
    if draw(st.booleans()):
        kept.append(PossClause(draw(clauses(names)), draw(positive)))
    return a, PossKB.of(kept, a.signature)


@st.composite
def horn_kb_pairs(draw):
    """(a, b) built like :func:`poss_kb_pairs`, classically; b may use
    variables outside the signature of a."""
    a = draw(horn_kbs())
    names = sorted(a.signature) + ["y0"]
    kept = [c for c in a.sorted_clauses if draw(st.booleans()) or draw(st.booleans())]
    kept += [phi for phi in draw(st.lists(clauses(names), max_size=3)) if tt_entails(a, phi)]
    if draw(st.booleans()):
        kept.append(draw(clauses(names)))
    return a, HornKB.of(kept, a.signature)


class TestSeparatingClauseScan:
    @SETTINGS
    @given(poss_kb_pairs())
    def test_none_iff_same_distribution(self, pair):
        a, b = pair
        found = find_counterexample(a, b)
        assert (found is None) == (pi_k(a) == pi_k(b))
        if found is not None:
            positive, c = found
            assert poss_entails(a, c) == positive
            assert poss_entails(b, c) != positive

    @SETTINGS
    @given(horn_kb_pairs())
    def test_classical_none_iff_mutual_truth_table_entailment(self, pair):
        a, b = pair
        found = find_classical_counterexample(a, b)
        mutual = all(tt_entails(b, c) for c in a.clauses) and all(
            tt_entails(a, c) for c in b.clauses
        )
        assert (found is None) == mutual
        if found is not None:
            positive, c = found
            assert tt_entails(a, c) == positive
            assert tt_entails(b, c) != positive


class TestValuationOrder:
    @SETTINGS
    @given(valuations(max_precision=4), valuations(max_precision=4))
    def test_order_matches_fractions(self, a, b):
        x, y = fraction(a), fraction(b)
        assert (a < b) == (x < y)
        assert (a <= b) == (x <= y)
        assert (a > b) == (x > y)
        assert (a >= b) == (x >= y)
        assert (a == b) == (x == y)
