"""Independent possibilistic Horn semantics used to check the program.

This module shares no code with ``posshorn``: it parses the KB text format
itself, decides entailment by naive fixpoint chaining over exact fractions,
and compares KBs clause by clause.  The benchmark uses it to generate
targets of a known semantic precision and to re-check every hypothesis the
program returns.

A KB is a tuple of clauses ``(antecedent, consequent, degree)``: a frozenset
of variable names, a variable name or ``None`` for falsum, and a
``Fraction`` in (0, 1].
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

ONE = Fraction(1)


def parse_kb(text: str) -> tuple:
    """Parse ``ANT -> CONS @ DEGREE`` lines; ``#`` starts a comment.

    A classical line (no ``@``) is read as holding with degree 1.
    """
    clauses = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        body, _, degree = line.partition("@")
        left, right = (s.strip() for s in body.split("->", 1))
        ant = frozenset() if left == "true" else frozenset(v.strip() for v in left.split(","))
        cons = None if right == "false" else right
        clauses.append((ant, cons, Fraction(degree.strip()) if degree else ONE))
    return tuple(clauses)


def format_kb(kb, classical: bool = False) -> str:
    """The KB in the program's text format, one clause per line; a
    classical KB is written without degrees."""
    lines = []
    for ant, cons, degree in kb:
        left = ",".join(sorted(ant)) if ant else "true"
        right = "false" if cons is None else cons
        tail = "" if classical else f" @ {format_degree(degree)}"
        lines.append(f"{left} -> {right}{tail}")
    return "\n".join(lines) + "\n"


def format_degree(degree: Fraction) -> str:
    if degree == ONE:
        return "1.0"
    digits = precision(degree)
    return f"0.{degree.numerator * 10**digits // degree.denominator:0{digits}d}"


def precision(degree: Fraction) -> int:
    """Digits of the shortest exact decimal of ``degree`` (at least 1)."""
    p = 1
    while (degree * 10**p).denominator != 1:
        p += 1
    return p


def _entails(rules, ant: frozenset, cons) -> bool:
    """Do the classical ``rules`` entail ``ant -> cons``?  Naive fixpoint."""
    if cons is not None and cons in ant:
        return True
    known = set(ant)
    changed = True
    while changed:
        changed = False
        for body, head in rules:
            if body <= known:
                if head is None:
                    return True
                if head not in known:
                    known.add(head)
                    changed = True
    return cons is not None and cons in known


class Cuts:
    """A KB's degree-cuts, built once for repeated queries.

    The a-cut holds the clauses of degree >= a, so it only changes at the
    KB's own levels: a query at degree a uses the cut at the least level
    >= a.  Cuts shrink as the degree rises, so entailment is monotone in the
    degree and ``val`` binary-searches the levels.
    """

    def __init__(self, kb) -> None:
        self.levels = sorted({d for _, _, d in kb})
        self.cuts = [[(ant, cons) for ant, cons, d in kb if d >= lv] for lv in self.levels]

    def entails(self, ant: frozenset, cons, degree: Fraction) -> bool:
        """kb |= (ant -> cons, degree)."""
        k = bisect_left(self.levels, degree)
        return _entails(self.cuts[k] if k < len(self.cuts) else [], ant, cons)

    def val(self, ant: frozenset, cons) -> Fraction:
        """Largest degree at which the clause is entailed, or 0."""
        if cons is not None and cons in ant:
            return ONE
        lo, hi = -1, len(self.levels) - 1  # cuts[lo] entails (lo = -1: none known)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _entails(self.cuts[mid], ant, cons):
                lo = mid
            else:
                hi = mid - 1
        return self.levels[lo] if lo >= 0 else Fraction(0)


def semantic_degrees(kb) -> set:
    """The degrees val(phi) of the KB's formulas.

    Every KB is equivalent to {(phi, val(phi))}, so these are its levels up
    to equivalence, and their largest precision is the KB's precision.
    """
    cuts = Cuts(kb)
    return {cuts.val(ant, cons) for ant, cons, _ in kb}


def equivalent(a, b) -> bool:
    """Each KB entails every clause of the other at its degree."""
    ca, cb = Cuts(a), Cuts(b)
    return all(cb.entails(ant, cons, d) for ant, cons, d in a) and all(
        ca.entails(ant, cons, d) for ant, cons, d in b
    )
