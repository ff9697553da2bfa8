"""Propositional Horn clauses, knowledge bases, and entailment.

Entailment is decided by forward chaining over bitsets.  Each KB is compiled
once, on first use: every signature variable gets a bit (bit 0 stands for
falsum) and every clause becomes a rule (antecedent mask, consequent bit).
A query seeds an int with the bits of its antecedent; chaining then makes
passes over the rules, ORing in the consequent of every rule whose
antecedent mask is covered, until a pass adds nothing or the goal bit (the
query consequent, or falsum) is set.  A pass is one mask test per rule, so a
query costs O(rules x derivation depth).  :mod:`posshorn.possibilistic`
chains over the same rules, one rule tuple per cut.

A truth-table oracle that enumerates all 2^n assignments is provided as an
independent cross-check for small signatures; it is used by the test suite
and the ``oracle-check`` command, never by the learners.

Text format, one clause per line: ``ANT -> CONS`` where ANT is ``true`` or a
comma-separated variable list and CONS is a variable or ``false``.

The package's value types are written by hand on :class:`_Record` and its
immutable :class:`_Value`: importing :mod:`dataclasses` and generating their
methods would cost a cold ``posshorn`` start more than a small learning run.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Optional

FALSUM = None  # consequent of an integrity constraint, printed as "false"

_VARIABLE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_RESERVED = {"true", "false"}


class HornSyntaxError(ValueError):
    """Raised for malformed clause or KB text."""


def check_variable(name: str) -> str:
    if not _VARIABLE.match(name) or name in _RESERVED:
        raise HornSyntaxError(f"bad variable name: {name!r}")
    return name


_set = object.__setattr__  # how a constructor stores a field of a _Value


class _Record:
    """A record of the attributes named in ``_fields``: ``==`` compares their
    tuple, ``_key(self)``, between instances of one class, and the repr names
    each.  ``==``, and a _Value's hash, are closures made per class: no source
    is generated and compiled, as ``dataclasses`` does."""

    __slots__ = ()
    __hash__ = None  # mutable, like a dataclass that is not frozen

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            key = cls._key = attrgetter(*cls._fields)
            cls.__eq__ = lambda self, other: (
                key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented
            )
            if issubclass(cls, _Value):
                cls.__hash__ = lambda self: hash(key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _Value(_Record):
    """A frozen record: assignment and ``del`` raise AttributeError, and
    pickling or copying goes through the constructor."""

    __slots__ = ()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._key(self)


class HornClause(_Value):
    """A definite clause or integrity constraint: antecedent -> consequent.

    The consequent is a variable, or FALSUM (None) for constraints.
    """

    __slots__ = _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: Iterable[str], consequent: Optional[str]) -> None:
        _set(self, "antecedent", frozenset(antecedent))
        _set(self, "consequent", consequent)

    @property
    def is_tautology(self) -> bool:
        return self.consequent is not FALSUM and self.consequent in self.antecedent

    @property
    def variables(self) -> frozenset[str]:
        if self.consequent is FALSUM:
            return self.antecedent
        return self.antecedent | {self.consequent}

    def __str__(self) -> str:
        ant = ",".join(sorted(self.antecedent)) if self.antecedent else "true"
        cons = "false" if self.consequent is FALSUM else self.consequent
        return f"{ant} -> {cons}"


def parse_clause(text: str) -> HornClause:
    """Parse ``ANT -> CONS`` clause text."""
    if "->" not in text:
        raise HornSyntaxError(f"missing '->' in clause: {text!r}")
    left, right = text.split("->", 1)
    left, right = left.strip(), right.strip()
    if left == "true":
        antecedent: frozenset[str] = frozenset()
    else:
        parts = [p.strip() for p in left.split(",")]
        if not all(parts):
            raise HornSyntaxError(f"empty antecedent variable in: {text!r}")
        antecedent = frozenset(check_variable(p) for p in parts)
    consequent = FALSUM if right == "false" else check_variable(right)
    return HornClause(antecedent, consequent)


def scan_key(clause: HornClause) -> tuple:
    """The ordering key (antecedent size, sorted antecedent, consequent),
    which fixes the deterministic scan order used throughout the package.

    Falsum sorts as "", before every variable: a constraint comes first
    among the clauses with its antecedent.
    """
    ant, cons = clause.antecedent, clause.consequent
    return (len(ant), sorted(ant), cons or "", cons is FALSUM)


# -- compiled form -------------------------------------------------------------

# Bit 0 stands for falsum; the variables of a signature take bits 1, 2, ...
# in sorted order, so a set of derived atoms is one int.
_FALSUM_BIT = 1


def _bit_index(signature: Iterable[str]) -> dict[str, int]:
    return {v: 2 << i for i, v in enumerate(sorted(signature))}


def _compile(index: dict[str, int], clause: HornClause) -> tuple[int, int]:
    """(antecedent mask, consequent bit) of a clause over the index."""
    ant = 0
    for v in clause.antecedent:
        ant |= index[v]
    cons = _FALSUM_BIT if clause.consequent is FALSUM else index[clause.consequent]
    return ant, cons


def _chain(rules: tuple[tuple[int, int], ...], derived: int, goal: int = 0) -> int:
    """Close the mask ``derived`` under the rules.

    Each pass tests every rule's antecedent mask against the derived mask
    and ORs in the consequents of those that fire.  Chaining stops after a
    pass that derives nothing new, or as soon as a bit of ``goal`` is set.
    """
    while True:
        before = derived
        for ant, cons in rules:
            if ant & derived == ant:
                derived |= cons
        if derived == before or derived & goal:
            return derived


def _entails(index: dict[str, int], rules, clause: HornClause) -> bool:
    """The rules, compiled over ``index``, entail the clause.

    Clause variables outside the index occur in no rule: in the antecedent
    they derive nothing, and as the consequent they follow only ex falso.
    """
    cons = clause.consequent
    if cons is not FALSUM and cons in clause.antecedent:
        return True
    seed = 0
    for v in clause.antecedent:
        seed |= index.get(v, 0)
    # FALSUM is None, which no index holds: its goal is the falsum bit alone
    goal = _FALSUM_BIT | index.get(cons, 0)
    return bool(_chain(rules, seed, goal) & goal)


class HornKB(_Value):
    """An immutable finite set of Horn clauses over an explicit signature."""

    _fields = ("clauses", "signature")

    def __init__(self, clauses: Iterable[HornClause], signature: Iterable[str]) -> None:
        _set(self, "clauses", frozenset(clauses))
        _set(self, "signature", frozenset(signature))
        self.__post_init__()

    def __post_init__(self) -> None:
        occurring = {v for c in self.clauses for v in c.variables}
        if not occurring <= self.signature:
            missing = sorted(occurring - self.signature)
            raise HornSyntaxError(f"clause variables not in signature: {missing}")

    @classmethod
    def of(cls, clauses: Iterable[HornClause], signature: Iterable[str] = ()) -> "HornKB":
        clauses = frozenset(clauses)
        sig = frozenset(signature) | {v for c in clauses for v in c.variables}
        return cls(clauses, sig)

    @cached_property
    def sorted_clauses(self) -> tuple[HornClause, ...]:
        return tuple(sorted(self.clauses, key=scan_key))

    @cached_property
    def _compiled(self) -> tuple[dict[str, int], tuple[tuple[int, int], ...]]:
        """(variable -> bit, rules as (antecedent mask, consequent bit))."""
        index = _bit_index(self.signature)
        return index, tuple(_compile(index, c) for c in self.sorted_clauses)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.sorted_clauses)


def closure(kb: HornKB, seed: Iterable[str]) -> tuple[frozenset[str], bool]:
    """Least superset of seed closed under kb's clauses.

    Returns (closed set, inconsistent flag); the flag is set when a
    falsum-consequent clause fires.
    """
    seed = frozenset(seed)
    unknown = seed - kb.signature
    if unknown:
        raise HornSyntaxError(f"seed variables not in signature: {sorted(unknown)}")
    index, rules = kb._compiled
    derived = _chain(rules, sum(index[v] for v in seed))
    closed = frozenset(v for v, bit in index.items() if derived & bit)
    return closed, bool(derived & _FALSUM_BIT)


def entails(kb: HornKB, clause: HornClause) -> bool:
    """kb |= clause, by chaining from the clause antecedent (ex falso holds)."""
    index, rules = kb._compiled
    return _entails(index, rules, clause)


def equivalent(a: HornKB, b: HornKB) -> bool:
    """Each KB entails every clause of the other."""
    return all(entails(b, c) for c in a.clauses) and all(
        entails(a, c) for c in b.clauses
    )


class SignatureCapExceeded(RuntimeError):
    """Raised when a brute-force operation would enumerate too many assignments."""


BRUTE_FORCE_CAP = 16


def _satisfies(true_vars: frozenset[str], clause: HornClause) -> bool:
    if not clause.antecedent <= true_vars:
        return True
    return clause.consequent is not FALSUM and clause.consequent in true_vars


def assignments(signature: Iterable[str], cap: int = BRUTE_FORCE_CAP):
    """All assignments over the signature, as frozensets of true variables."""
    variables = sorted(signature)
    if len(variables) > cap:
        raise SignatureCapExceeded(
            f"{len(variables)} variables exceed the brute-force cap {cap}"
        )
    for mask in range(2 ** len(variables)):
        yield frozenset(v for i, v in enumerate(variables) if mask >> i & 1)


def tt_entails(kb: HornKB, clause: HornClause, cap: int = BRUTE_FORCE_CAP) -> bool:
    """Semantic entailment by enumerating every assignment (oracle only)."""
    signature = kb.signature | clause.variables
    for world in assignments(signature, cap):
        if all(_satisfies(world, c) for c in kb.clauses) and not _satisfies(
            world, clause
        ):
            return False
    return True


def parse_lines(text: str, parse: Callable[[str], object]) -> list:
    """Parse each clause line of a KB or script text.

    ``#`` starts a comment and blank lines are skipped; every other line,
    stripped, goes to ``parse``.  A parse error is raised as a
    HornSyntaxError naming its 1-based line.
    """
    parsed = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                parsed.append(parse(line))
            except ValueError as exc:
                raise HornSyntaxError(f"line {lineno}: {exc}") from exc
    return parsed


def parse_horn_kb(text: str) -> HornKB:
    """Parse a classical KB file: one clause per line, ``#`` comments.

    Tautological clauses are normalized away, except the designated single
    variable form ``v -> v`` which the learners use as an anchor formula.
    """
    return HornKB.of(
        c
        for c in parse_lines(text, parse_clause)
        if not c.is_tautology or c.antecedent == {c.consequent}
    )
