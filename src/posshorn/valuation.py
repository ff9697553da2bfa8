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
from dataclasses import dataclass
from typing import Iterator

_LITERAL = re.compile(r"^(?:0|1|1\.0|0\.\d+)$")


class ValuationError(ValueError):
    """Raised for malformed decimal literals or out-of-range values."""


@dataclass(frozen=True)
class Valuation:
    """An exact decimal in [0, 1], canonicalized on construction."""

    mantissa: int
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValuationError("precision must be a positive integer")
        if not 0 <= self.mantissa <= 10**self.precision:
            raise ValuationError(
                f"value {self.mantissa}e-{self.precision} outside [0, 1]"
            )
        m, p = self.mantissa, self.precision
        while p > 1 and m % 10 == 0:
            m //= 10
            p -= 1
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "precision", p)

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

    def truncate(self, p: int) -> "Valuation":
        """Drop digits beyond position p (floor toward zero)."""
        if p < 1:
            raise ValuationError("precision must be a positive integer")
        if p >= self.precision:
            return self
        return Valuation(self.mantissa // 10 ** (self.precision - p), p)

    def complement(self) -> "Valuation":
        """The exact value 1 - self (same grid)."""
        return Valuation(10**self.precision - self.mantissa, self.precision)

    # -- order: compare mantissas on a common grid ------------------------

    def _pair(self, other: "Valuation") -> tuple[int, int]:
        """Both mantissas scaled to the finer of the two precisions."""
        shift = self.precision - other.precision
        if shift >= 0:
            return self.mantissa, other.mantissa * 10**shift
        return self.mantissa * 10**-shift, other.mantissa

    def __lt__(self, other: "Valuation") -> bool:
        if self.precision == other.precision:
            return self.mantissa < other.mantissa
        a, b = self._pair(other)
        return a < b

    def __le__(self, other: "Valuation") -> bool:
        if self.precision == other.precision:
            return self.mantissa <= other.mantissa
        a, b = self._pair(other)
        return a <= b

    def __gt__(self, other: "Valuation") -> bool:
        if self.precision == other.precision:
            return self.mantissa > other.mantissa
        a, b = self._pair(other)
        return a > b

    def __ge__(self, other: "Valuation") -> bool:
        if self.precision == other.precision:
            return self.mantissa >= other.mantissa
        a, b = self._pair(other)
        return a >= b

    def __str__(self) -> str:
        if self.is_one:
            return "1.0"
        if self.is_zero:
            return "0"
        digits = str(self.mantissa).rjust(self.precision, "0")
        return "0." + digits

    def __repr__(self) -> str:
        return f"Valuation({str(self)!r})"


def eq_p(a: Valuation, b: Valuation, p: int) -> bool:
    """Equality up to precision p: compare truncations to p digits."""
    return a.truncate(p) == b.truncate(p)


def grid(p: int) -> list[Valuation]:
    """All precision-<=p points of [0, 1] in increasing order: i * 10^-p."""
    if p < 1:
        raise ValuationError("precision must be a positive integer")
    return [Valuation(i, p) if i else Valuation.zero() for i in range(10**p + 1)]


def positive_grid(p: int) -> Iterator[Valuation]:
    """The points of grid(p) lying in (0, 1], in increasing order."""
    return iter(grid(p)[1:])
