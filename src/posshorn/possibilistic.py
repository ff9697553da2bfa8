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
binary search over the levels, and equivalence is one scan for a separating
clause, :func:`find_counterexample`.  :func:`cut` and :func:`projection`
still build the cut KBs, for callers that want them as objects.

A KB built by :meth:`Assembly.kb` (the orchestrator's pooled hypotheses)
does not compile on first use: it gets its sorted clauses, levels and cut
table from per-level parts whose rules were compiled when the part was
built, through the same table builder.

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
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .horn import (
    BRUTE_FORCE_CAP,
    HornClause,
    HornKB,
    HornSyntaxError,
    _set,
    _Value,
    _bit_index,
    _compile,
    _entails,
    _satisfies,
    assignments,
    entails,  # not called here; perfbench/spans.py patches both names in
    equivalent,  # this module, so they stay importable from it
    parse_clause,
    parse_lines,
    scan_key,
)
from .valuation import Valuation


class PossClause(_Value):
    """A Horn clause asserted to hold with necessity at least ``valuation``."""

    _fields = ("formula", "valuation")
    __slots__ = (*_fields, "_text")  # no per-instance __dict__; _text caches str()

    def __init__(self, formula: HornClause, valuation: Valuation) -> None:
        if valuation.is_zero:
            raise ValueError(f"formula valuation must be positive: {formula}")
        _set(self, "formula", formula)
        _set(self, "valuation", valuation)

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            text = f"{self.formula} @ {self.valuation}"
            _set(self, "_text", text)
            return text


class PossKB(_Value):
    """An immutable finite set of possibilistic clauses over a signature."""

    _fields = ("clauses", "signature")

    def __init__(self, clauses: Iterable[PossClause], signature: Iterable[str]) -> None:
        _set(self, "clauses", frozenset(clauses))
        _set(self, "signature", frozenset(signature))
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
        """The clauses in scan order of their formulas, then by valuation."""
        return tuple(
            sorted(self.clauses, key=lambda c: (scan_key(c.formula), c.valuation))
        )

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
        rules = [
            (c.valuation.scaled(p), _compile(index, c.formula))
            for c in self.sorted_clauses
        ]
        return _table(index, p, [level.scaled(p) for level in self.levels], rules)

    def with_signature(self, extra: Iterable[str]) -> "PossKB":
        return PossKB(self.clauses, self.signature | frozenset(extra))

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.sorted_clauses)


def _table(index: dict[str, int], p: int, keys: list[int], rules: list) -> tuple:
    """The cut table of a KB from its level keys, increasing, and its
    (level key, compiled rule) pairs in ``sorted_clauses`` order."""
    cuts = tuple(tuple([r for k, r in rules if k >= key]) for key in keys)
    return index, p, keys, cuts


class Part(NamedTuple):
    """The clauses of one level, prepared once for :meth:`Assembly.kb`."""

    level: Valuation
    key: int  # the level's mantissa on the assembly's grid
    members: frozenset[PossClause]
    # (sort key, clause, (level key, rule)) per formula, in the order given
    entries: tuple[tuple[tuple, PossClause, tuple[int, tuple[int, int]]], ...]


class Assembly:
    """PossKBs over one signature and precision-p grid, built from parts.

    A part holds the clauses of one level with their hashes, sort keys and
    rules compiled over the signature's bit index.  A caller that keeps a
    part while its formulas are unchanged pays for each clause once, however
    many KBs it goes into: :meth:`kb` unions the member sets, merges the
    sorted runs and fills the cut table from the cached rules.  A new part
    reuses the entries of the clauses that earlier parts of its level held.
    """

    def __init__(self, signature: Iterable[str], p: int) -> None:
        self.signature = frozenset(signature)
        self.index = _bit_index(self.signature)
        self.p = p
        self._entries: dict[int, dict[HornClause, tuple]] = {}

    def part(self, level: Valuation, formulas: Sequence[HornClause]) -> Part:
        """The distinct formulas tagged with ``level``.  Given in scan order,
        as ``HornKB.sorted_clauses`` holds them, they are one sorted run."""
        key = level.scaled(self.p)
        known = self._entries.setdefault(key, {})
        entries = []
        for phi in formulas:
            entry = known.get(phi)
            if entry is None:
                try:
                    rule = _compile(self.index, phi)
                except KeyError as exc:
                    raise HornSyntaxError(
                        f"clause variable not in signature: {exc}"
                    ) from None
                entry = known[phi] = (
                    (scan_key(phi), key), PossClause(phi, level), (key, rule)
                )
            entries.append(entry)
        return Part(level, key, frozenset(c for _, c, _ in entries), tuple(entries))

    def kb(self, parts: Sequence[Part]) -> PossKB:
        """The KB of the clauses of the parts, which share no clause, over
        the assembly's signature.

        Equal to ``PossKB.of`` of those clauses, with its sorted clauses,
        levels and cut table filled in.  The table is on the assembly's grid
        p, which is the KB's precision once one nonempty part has a level of
        precision p.
        """
        clauses = frozenset().union(*(part.members for part in parts))
        # sorted() finds the presorted run of each part and merges the runs
        entries = sorted(
            chain.from_iterable(part.entries for part in parts), key=itemgetter(0)
        )
        if len(entries) != len(clauses):
            raise ValueError("the parts of one KB must hold distinct clauses")
        levels = {part.key: part.level for part in parts if part.members}
        keys = sorted(levels)
        kb = object.__new__(PossKB)  # the parts have validated every clause
        kb.__dict__.update(
            clauses=clauses,
            signature=self.signature,
            sorted_clauses=tuple(c for _, c, _ in entries),
            levels=tuple(levels[k] for k in keys),
            _cut_table=_table(self.index, self.p, keys, [r for _, _, r in entries]),
        )
        return kb


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


def entails_at(kb: PossKB, phi: HornClause, a: Valuation) -> bool:
    """kb |= (phi, a) iff the a-cut classically entails phi; the pair need
    not be a :class:`PossClause`, so a membership query builds none."""
    return _entails(kb._cut_table[0], _cut_rules(kb, a), phi)


def poss_entails(kb: PossKB, c: PossClause) -> bool:
    """kb |= c, decided by :func:`entails_at`."""
    return entails_at(kb, c.formula, c.valuation)


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


def poss_equivalent(a: PossKB, b: PossKB) -> bool:
    """No clause separates the KBs: each entails every clause of the other.

    Equivalent to classical equivalence of the two cuts at every level, with
    one chain per clause instead of one per clause and level.
    """
    return find_counterexample(a, b) is None


# -- brute-force semantic oracle -------------------------------------------


class Distribution(_Value):
    """A possibility degree for every assignment over a signature."""

    _fields = ("degrees", "signature")

    def __init__(self, degrees: dict[frozenset[str], Valuation], signature: frozenset[str]):
        _set(self, "degrees", degrees)
        _set(self, "signature", signature)

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
    return PossKB.of(
        c
        for c in parse_lines(text, parse_poss_clause)
        if not c.formula.is_tautology or c.formula.antecedent == {c.formula.consequent}
    )
