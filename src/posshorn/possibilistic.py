"""Possibilistic Horn knowledge bases: cuts, entailment, val, inc.

A possibilistic clause pairs a Horn clause with a positive valuation (a lower
bound on its necessity degree).  Entailment of (phi, a) reduces to classical
entailment from the a-cut, the clauses with valuation >= a.

Cuts only change at the valuations occurring in the KB (its ``levels``), so
each KB is compiled once, on first use, into a cut table: one bit index over
its signature, the levels as integer keys on the grid of the KB precision,
and for each level the rules of its cut in the bitset form of
:mod:`posshorn.horn`.  A query (phi, a) bisects the keys for the least level
>= a and chains over that level's rules; no cut KB is built.  ``val`` is a
binary search over the levels, and equivalence is mutual entailment of the
clauses.  :func:`cut` and :func:`projection` still build the cut KBs, for
callers that want them as objects.

The module also materializes the least-specific possibility distribution a KB
induces over the full assignment space, which gives a second, independent
route to the same entailment answers: necessity(pi_K, phi) must equal
val(phi, K).  That agreement is the semantic cross-check behind the
``oracle-check`` command.

KB file format, one clause per line: ``ANT -> CONS @ DECIMAL`` with ``#``
comments and blank lines ignored.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .horn import (
    BRUTE_FORCE_CAP,
    HornClause,
    HornKB,
    HornSyntaxError,
    _bit_index,
    _compile,
    _entails,
    _satisfies,
    assignments,
    entails,  # not called here; perfbench/spans.py patches both names in
    equivalent,  # this module, so they stay importable from it
    parse_clause,
)
from .valuation import Valuation


@dataclass(frozen=True, order=True)
class PossClause:
    """A Horn clause asserted to hold with necessity at least ``valuation``."""

    sort_index: tuple = field(init=False, repr=False)
    formula: HornClause
    valuation: Valuation

    def __post_init__(self) -> None:
        if self.valuation.is_zero:
            raise ValueError(f"formula valuation must be positive: {self.formula}")
        object.__setattr__(
            self, "sort_index", (self.formula.sort_index, self.valuation)
        )

    def __str__(self) -> str:
        return f"{self.formula} @ {self.valuation}"


@dataclass(frozen=True)
class PossKB:
    """An immutable finite set of possibilistic clauses over a signature."""

    clauses: frozenset[PossClause]
    signature: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", frozenset(self.clauses))
        object.__setattr__(self, "signature", frozenset(self.signature))
        occurring = {v for c in self.clauses for v in c.formula.variables}
        if not occurring <= self.signature:
            missing = sorted(occurring - self.signature)
            raise HornSyntaxError(f"clause variables not in signature: {missing}")

    @classmethod
    def of(cls, clauses: Iterable[PossClause], signature: Iterable[str] = ()) -> "PossKB":
        clauses = frozenset(clauses)
        sig = frozenset(signature) | {
            v for c in clauses for v in c.formula.variables
        }
        return cls(clauses, sig)

    @cached_property
    def sorted_clauses(self) -> tuple[PossClause, ...]:
        return tuple(sorted(self.clauses))

    @cached_property
    def levels(self) -> tuple[Valuation, ...]:
        """The distinct valuations occurring in the KB, increasing."""
        return tuple(sorted({c.valuation for c in self.clauses}))

    def prec(self) -> int:
        """Maximum precision over clause valuations (1 for the empty KB)."""
        return max((v.prec() for v in self.levels), default=1)

    @cached_property
    def _cut_table(self) -> tuple[dict[str, int], int, list[int], tuple]:
        """(variable -> bit, p, level keys, compiled rules of each cut).

        The levels are keyed by their mantissas on the precision-p grid,
        p = prec(self).  The i-th rule tuple holds the clauses with valuation
        >= levels[i], all compiled over the one index of the KB signature.
        """
        index = _bit_index(self.signature)
        p = self.prec()
        keys = [level.scaled(p) for level in self.levels]
        rules = [
            (c.valuation.scaled(p), _compile(index, c.formula))
            for c in self.sorted_clauses
        ]
        cuts = tuple(tuple(r for k, r in rules if k >= key) for key in keys)
        return index, p, keys, cuts

    def with_signature(self, extra: Iterable[str]) -> "PossKB":
        return PossKB(self.clauses, self.signature | frozenset(extra))

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.sorted_clauses)


def projection(kb: PossKB) -> HornKB:
    """Drop the valuations."""
    return HornKB(frozenset(c.formula for c in kb.clauses), kb.signature)


def cut(kb: PossKB, a: Valuation) -> PossKB:
    """Clauses with valuation >= a."""
    return PossKB(frozenset(c for c in kb.clauses if c.valuation >= a), kb.signature)


def _cut_rules(kb: PossKB, a: Valuation) -> tuple[tuple[int, int], ...]:
    """The compiled rules of the a-cut.

    Cuts only change at the levels of the KB, so this is the table entry of
    the least level >= a, found by bisecting the level keys.
    """
    _, p, keys, cuts = kb._cut_table
    m, q = a.mantissa, a.precision
    if q != p:
        # the key of the least precision-p grid point >= a
        m = m * 10 ** (p - q) if q < p else -(-m // 10 ** (q - p))
    i = bisect_left(keys, m)
    return cuts[i] if i < len(cuts) else ()


def poss_entails(kb: PossKB, c: PossClause) -> bool:
    """kb |= (phi, a) iff the a-cut classically entails phi."""
    return _entails(kb._cut_table[0], _cut_rules(kb, c.valuation), c.formula)


def val_of(kb: PossKB, phi: HornClause) -> Valuation:
    """Largest degree at which phi is entailed; 1 for tautologies, else the
    greatest KB level whose cut entails phi, else exact zero.

    Cuts shrink as the level rises, so the levels whose cut entails phi form
    a prefix of ``kb.levels``; its length is found by binary search.
    """
    if phi.is_tautology:
        return Valuation.one()
    index, _, _, cuts = kb._cut_table
    lo, hi = 0, len(cuts)  # cuts[:lo] entail phi, cuts[hi:] do not
    while lo < hi:
        mid = (lo + hi) // 2
        if _entails(index, cuts[mid], phi):
            lo = mid + 1
        else:
            hi = mid
    return kb.levels[lo - 1] if lo else Valuation.zero()


def inc_of(kb: PossKB) -> Valuation:
    """Inconsistency degree: the degree at which falsum is entailed."""
    return val_of(kb, HornClause(frozenset(), None))


def poss_equivalent(a: PossKB, b: PossKB) -> bool:
    """Each KB entails every clause of the other.

    Equivalent to classical equivalence of the two cuts at every level, with
    one chain per clause instead of one per clause and level.
    """
    return all(poss_entails(b, c) for c in a.clauses) and all(
        poss_entails(a, c) for c in b.clauses
    )


# -- brute-force semantic oracle -------------------------------------------


@dataclass(frozen=True)
class Distribution:
    """A possibility degree for every assignment over a signature."""

    degrees: dict[frozenset[str], Valuation]
    signature: frozenset[str]

    def __getitem__(self, world: frozenset[str]) -> Valuation:
        return self.degrees[world]


def pi_k(kb: PossKB, cap: int = BRUTE_FORCE_CAP) -> Distribution:
    """The least-specific possibility distribution compatible with the KB.

    An assignment satisfying every formula gets degree 1; otherwise its
    degree is min over violated formulas of 1 - valuation.
    """
    degrees: dict[frozenset[str], Valuation] = {}
    for world in assignments(kb.signature, cap):
        violated = [
            c.valuation for c in kb.clauses if not _satisfies(world, c.formula)
        ]
        if violated:
            degrees[world] = max(violated).complement()
        else:
            degrees[world] = Valuation.one()
    return Distribution(degrees, kb.signature)


def necessity(dist: Distribution, phi: HornClause) -> Valuation:
    """N(phi) = 1 - Pi(not phi): min of 1 - degree over falsifying worlds."""
    best: Valuation | None = None
    for world, degree in dist.degrees.items():
        if not _satisfies(world, phi):
            value = degree.complement()
            if best is None or value < best:
                best = value
    return Valuation.one() if best is None else best


# -- text format -------------------------------------------------------------


def parse_poss_clause(text: str) -> PossClause:
    if "@" not in text:
        raise HornSyntaxError(f"missing '@ VALUATION' in: {text!r}")
    clause_text, val_text = text.rsplit("@", 1)
    return PossClause(parse_clause(clause_text), Valuation.parse(val_text.strip()))


def parse_poss_kb(text: str) -> PossKB:
    """Parse a possibilistic KB file (tautologies other than v -> v dropped)."""
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            c = parse_poss_clause(line)
        except (HornSyntaxError, ValueError) as exc:
            raise HornSyntaxError(f"line {lineno}: {exc}") from exc
        f = c.formula
        if f.is_tautology and f.antecedent != frozenset([f.consequent]):
            continue
        clauses.append(c)
    return PossKB.of(clauses)
