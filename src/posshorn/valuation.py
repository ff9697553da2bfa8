"""Exact finite-precision decimal valuations in [0, 1].

Valuations are stored as scaled integers (mantissa, precision) with value
mantissa * 10^-precision.  Binary floating point is never used anywhere in
this package: equality-up-to-precision must be exact, and 0.1 + 0.2 style
artifacts would silently break the learners' binary searches.

Canonical form: the mantissa carries no trailing zero unless precision is 1,
so 0.30 normalizes to 0.3 and precision is always the length of the shortest
exact decimal representation (minimum 1; the value 1 is stored as 10 * 10^-1).
Zero is representable (mantissa 0, precision 1) because "not entailed at any
positive degree" needs a sentinel, but formula valuations must be positive.
"""

from __future__ import annotations

import re
from functools import cached_property

from .horn import _set, _Value

# [0-9], not \d: \d also matches non-ASCII digits such as "\u0663"
_LITERAL = re.compile(r"^(?:0|1|1\.0|0\.[0-9]+)$")


class ValuationError(ValueError):
    """Raised for malformed decimal literals or out-of-range values."""


class Valuation(_Value):
    """An exact decimal in [0, 1], canonicalized on construction."""

    _fields = ("mantissa", "precision")

    def __init__(self, mantissa: int, precision: int) -> None:
        _set(self, "mantissa", mantissa)
        _set(self, "precision", precision)
        self.__post_init__()

    def __post_init__(self) -> None:
        m, p = self.mantissa, self.precision
        if p < 1:
            raise ValuationError("precision must be a positive integer")
        if not 0 <= m <= 10**p:
            raise ValuationError(f"value {m}e-{p} outside [0, 1]")
        while p > 1 and m % 10 == 0:
            m //= 10
            p -= 1
        _set(self, "mantissa", m)
        _set(self, "precision", p)

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Valuation":
        """Parse a decimal literal: ``1``, ``1.0``, ``0.D+``, or ``0``."""
        s = text.strip()
        if not _LITERAL.match(s):
            raise ValuationError(f"bad decimal literal: {text!r}")
        if s in ("1", "1.0"):
            return cls.one()
        if s == "0":
            return cls.zero()
        digits = s.split(".", 1)[1]
        return cls(int(digits), len(digits))

    @classmethod
    def zero(cls) -> "Valuation":
        return cls(0, 1)

    @classmethod
    def one(cls) -> "Valuation":
        return cls(10, 1)

    @classmethod
    def unit(cls, p: int) -> "Valuation":
        """The smallest positive grid point of precision p, i.e. 10^-p."""
        if p < 1:
            raise ValuationError("precision must be a positive integer")
        return cls(1, p)

    # -- predicates and accessors ------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    @property
    def is_one(self) -> bool:
        return self.mantissa == 10 and self.precision == 1

    def prec(self) -> int:
        """Number of decimal digits of the shortest exact representation."""
        return self.precision

    def scaled(self, p: int) -> int:
        """Integer i with value == i * 10^-p.  Requires prec(self) <= p."""
        if p < self.precision:
            raise ValuationError(f"{self} does not lie on the precision-{p} grid")
        return self.mantissa * 10 ** (p - self.precision)

    # -- operations --------------------------------------------------------

    def complement(self) -> "Valuation":
        """The exact value 1 - self (same grid)."""
        return Valuation(10**self.precision - self.mantissa, self.precision)

    # -- order: compare mantissas on a common grid ------------------------

    def _cmp(self, other: "Valuation") -> int:
        """Negative, zero or positive as self is below, equal to or above
        other: each mantissa scaled by the other's precision, onto one grid."""
        return self.mantissa * 10**other.precision - other.mantissa * 10**self.precision

    def __lt__(self, other: "Valuation") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Valuation") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Valuation") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Valuation") -> bool:
        return self._cmp(other) >= 0

    @cached_property
    def _text(self) -> str:
        if self.is_one:
            return "1.0"
        if self.is_zero:
            return "0"
        digits = str(self.mantissa).rjust(self.precision, "0")
        return "0." + digits

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Valuation({str(self)!r})"


def grid(p: int) -> list[Valuation]:
    """All precision-<=p points of [0, 1] in increasing order: i * 10^-p."""
    if p < 1:
        raise ValuationError("precision must be a positive integer")
    return [Valuation(i, p) if i else Valuation.zero() for i in range(10**p + 1)]

