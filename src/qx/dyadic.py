"""Exact dyadic rationals man * 2**exp, the boundary type of the interval layer.

Enclosures keep their endpoints as libmp mpf tuples (see ``qx.interval``);
a Dyadic is what they hand out at the boundary: expression selectors, the
exact decimal of a point enclosure, and tests. Certified decimals and JSON
endpoints are written from the mpf integers directly (``qx.cli``). Dyadics
are closed under +, -, * and comparison, all computed in integer arithmetic
with no rounding, and convert losslessly to and from mpf tuples.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from mpmath.libmp import from_man_exp, fzero


class Dyadic(NamedTuple):
    """Normalized dyadic rational: man odd unless zero, zero is (0, 0)."""

    man: int
    exp: int

    @staticmethod
    def new(man: int, exp: int = 0) -> "Dyadic":
        if man == 0:
            return Dyadic(0, 0)
        while man % 2 == 0:
            man //= 2
            exp += 1
        return Dyadic(man, exp)

    @staticmethod
    def from_fraction(fr: Fraction) -> "Dyadic":
        """Exact conversion; raises ValueError if the denominator is not a power of 2."""
        den = fr.denominator
        if den & (den - 1):
            raise ValueError(f"{fr} is not a dyadic rational")
        return Dyadic.new(fr.numerator, -(den.bit_length() - 1))

    @staticmethod
    def from_mpf(t) -> "Dyadic":
        sign, man, exp, _bc = t
        man = int(man)
        if man == 0:
            if t != fzero and exp != 0:
                raise ValueError("special mpf value (inf/nan) has no dyadic form")
            return Dyadic(0, 0)
        return Dyadic.new(-man if sign else man, exp)

    def to_mpf(self):
        return from_man_exp(self.man, self.exp)

    def to_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    @property
    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.exp, other.exp)
        return Dyadic.new((self.man << (self.exp - e)) + (other.man << (other.exp - e)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp if self.man else 0)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic.new(self.man * other.man, self.exp + other.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.man), self.exp)

    def _cmp(self, other: "Dyadic") -> int:
        d = self - other
        return d.sign

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def ldexp(self, k: int) -> "Dyadic":
        """self * 2**k, exact."""
        if self.man == 0:
            return self
        return Dyadic(self.man, self.exp + k)

    def is_zero(self) -> bool:
        return self.man == 0

    def decimal(self) -> str:
        """Exact decimal string (dyadics always terminate in base 10)."""
        if self.exp >= 0:
            return str(self.man << self.exp)
        # man * 10**k / 2**k for k = -exp; man is odd, so the last digit is a 5
        return fixed_point(self.man * 5**-self.exp, -self.exp)

    def __float__(self) -> float:
        return self.man * 2.0**self.exp

    def __str__(self) -> str:
        return self.decimal()


def fixed_point(n: int, places: int, negative: bool | None = None) -> str:
    """Decimal text of n / 10**places, with exactly `places` digits after the point.

    The one writer of fixed-point text in qx; callers round n as they need.
    `negative` sets the sign (default: n < 0), so a negative value that
    rounded to n = 0 can keep its "-".
    """
    sign = "-" if (n < 0 if negative is None else negative) else ""
    s = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{s[:-places]}.{s[-places:]}" if places else f"{sign}{s}"


def floor_div(p: int, q: int, scale_exp: int) -> Dyadic:
    """Largest dyadic m*2**scale_exp with value <= p/q (q > 0, scale_exp <= 0)."""
    return Dyadic.new(p * (1 << -scale_exp) // q, scale_exp)


def ceil_div(p: int, q: int, scale_exp: int) -> Dyadic:
    return Dyadic.new(-((-p) * (1 << -scale_exp) // q), scale_exp)
