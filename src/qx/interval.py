"""Certified real/complex interval arithmetic on libmp endpoints.

Every operation returns an enclosure guaranteed to contain the exact
mathematical result (outward rounding throughout). An endpoint is a
normalised libmp mpf tuple: a canonical dyadic rational (odd mantissa, zero
is ``fzero``), so tuple equality is value equality. The ops call libmp's
interval and mpf primitives on those tuples directly, with an explicit
working precision and outward rounding; negation, scaling by 2**k and the
exact width and midpoint involve no rounding. ``Dyadic`` appears only at
the boundary: the public ``RInterval(lo, hi)`` constructor and the ``lo``,
``hi``, ``mid``, ``mag`` and ``mignitude`` views, which serve expression
selectors, a point enclosure's exact decimal, ladder checks, verify and tests.
Certified decimals and JSON endpoints are written from ``lo_mpf`` and
``hi_mpf`` themselves (``qx.cli``).

exp, log, sin, cos and atan of a narrow operand (see ``_narrow``) make one
libmp evaluation: at the exact midpoint m, at prec + _GUARD bits, returning
f(m) ± (2 ulp + L*r) rounded outward, where r is the exact radius and L
bounds |f'| on the operand (Arb's midpoint-radius arithmetic). The pad
trusts libmp's kernel to within one ulp, with one ulp to spare; libmp makes
that assumption itself: it evaluates with 10 to 20 guard bits and rounds
once, and ``mpi_cos_sin`` pads by only a relative 2**(10 - wp). Wide
operands, and operands centred where f is rational (0 for exp, sin, cos and
atan, 1 for log), keep libmp's two-endpoint interval functions, so exp(0),
log(1), sin(0), cos(0) and atan(0) stay exact points; by Hermite-Lindemann
f is irrational at every other dyadic point, so no point enclosure is lost.
arcsin passes the monotone x / sqrt(1 - x^2) to the same atan kernel.

log's kernel (``_log``) calls libmp where libmp uses its cached Taylor
series. Above that range libmp switches to an AGM that costs two to three
times an exp at the same precision; ``_log`` instead takes y = log m at half
the bits and one Newton step on exp, y + 2(m - e^y)/(m + e^y), at 16 guard
bits plus the bits that m - 1 cancels. If y is off by d, the step is off by
d - 2 tanh(d/2) = d^3/12 + O(d^5), about 2^-(3wp/2) relative; the step's
roundings add a few 2^-16 ulp and the last one half an ulp. The result stays
within the one ulp ``_ball`` trusts libmp for. An m outside [1/2, 2) is first
rounded to 16 guard bits: libmp misreads a longer m in [1/4, 1/2) (``_log``).

Precision is measured as interval *width*, never significand bits.
``escalate`` is the one loop in qx that raises precision: it doubles the
bits until the caller's test accepts a value, retries a DomainStraddle at the
next precision, and past its cap raises MaxPrecision naming what it could not
settle and the bits it tried. ``refine`` is ``escalate`` with a width target.
Exact zero is never decided here: an unreachable target is reported, and the
decision is left to the symbolic layers.
"""
from __future__ import annotations

import os
from fractions import Fraction
from typing import Callable, Optional, TypeVar

from mpmath.libmp import (fhalf, fnone, fone, from_int, from_man_exp, fzero, mpf_abs,
                          mpf_add, mpf_atan, mpf_cos_sin, mpf_div, mpf_exp, mpf_le, mpf_log,
                          mpf_lt, mpf_mul, mpf_neg, mpf_pi, mpf_pos, mpf_shift, mpf_sign, mpf_sub,
                          mpi_add, mpi_atan, mpi_cos_sin, mpi_div, mpi_exp, mpi_log, mpi_mul,
                          mpi_sqrt, mpi_sub, to_int, to_rational)
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC

from .dyadic import Dyadic
from .errors import DomainStraddle, MaxPrecision

DEFAULT_CEILING_BITS = 4096
_GUARD = 8
T = TypeVar("T")
R = TypeVar("R")


def precision_ceiling() -> int:
    """Refinement cap in bits; override with QX_PRECISION_CEILING."""
    value = os.environ.get("QX_PRECISION_CEILING")
    return int(value) if value else DEFAULT_CEILING_BITS


def _fraction(t) -> Fraction:
    """Exact value of a finite mpf; ValueError for an infinity or NaN."""
    if t[3] < 0:  # libmp's special values have a negative bit count; zero has 0
        raise ValueError("an infinite or NaN endpoint has no exact value")
    return Fraction(*to_rational(t))


def _min(a, b):
    return a if mpf_le(a, b) else b


def _max(a, b):
    return b if mpf_le(a, b) else a


_new = object.__new__


def _iv(lo, hi) -> "RInterval":
    """Interval from mpf endpoints known to be ordered; no check."""
    r = _new(RInterval)
    r.lo_mpf = lo
    r.hi_mpf = hi
    return r


class RInterval:
    """Closed real interval [lo, hi] with normalised libmp mpf endpoints.

    ``RInterval(lo, hi)`` takes Dyadic endpoints and rejects lo > hi. The ops
    build their results from libmp's, which are ordered, without that check.
    Instances are immutable by convention and hash by value.
    """

    __slots__ = ("lo_mpf", "hi_mpf")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        a, b = lo.to_mpf(), hi.to_mpf()
        if mpf_lt(b, a):
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo_mpf = a
        self.hi_mpf = b

    def __eq__(self, other):
        if not isinstance(other, RInterval):
            return NotImplemented
        return self.lo_mpf == other.lo_mpf and self.hi_mpf == other.hi_mpf

    def __hash__(self):
        return hash((self.lo_mpf, self.hi_mpf))

    def __repr__(self):
        return f"RInterval(lo={self.lo!r}, hi={self.hi!r})"

    # --- Dyadic views, for the decimal and JSON boundary ---

    @property
    def lo(self) -> Dyadic:
        return Dyadic.from_mpf(self.lo_mpf)

    @property
    def hi(self) -> Dyadic:
        return Dyadic.from_mpf(self.hi_mpf)

    # --- constructors ---

    @staticmethod
    def zero() -> "RInterval":
        return _ZERO

    @staticmethod
    def from_int(n: int) -> "RInterval":
        t = from_int(n)
        return _iv(t, t)

    @staticmethod
    def from_fraction(fr: Fraction, prec: int) -> "RInterval":
        num, den = fr.numerator, fr.denominator
        if den & (den - 1) == 0:
            t = from_man_exp(num, 1 - den.bit_length())
            return _iv(t, t)
        scale = prec + _GUARD
        floor = (num << scale) // den
        return _iv(from_man_exp(floor, -scale),
                   from_man_exp(-((-num << scale) // den), -scale))

    @staticmethod
    def from_mpi(t) -> "RInterval":
        """From a libmp interval (lo, hi), which libmp returns ordered; no check."""
        return _iv(t[0], t[1])

    def to_mpi(self):
        return (self.lo_mpf, self.hi_mpf)

    # --- predicates and measures ---

    @property
    def width(self) -> Fraction:
        return _fraction(mpf_sub(self.hi_mpf, self.lo_mpf))

    def width_at_most(self, target: Fraction) -> bool:
        """width <= target, in integers: man*2^exp <= p/q as man*q*2^exp <= p, by shifts."""
        _, man, exp, bc = mpf_sub(self.hi_mpf, self.lo_mpf)
        if bc < 0:
            return False  # an infinite or NaN width
        p, q = target.numerator, target.denominator
        if exp >= 0:
            if man and exp >= p.bit_length():
                return False  # the width is at least 2^exp > p >= p/q: build no such shift
            return (man * q) << exp <= p
        return man * q <= p << -exp

    def mid(self) -> Dyadic:
        return Dyadic.from_mpf(mpf_shift(mpf_add(self.lo_mpf, self.hi_mpf), -1))

    def is_point(self) -> bool:
        return self.lo_mpf == self.hi_mpf

    def is_zero_point(self) -> bool:
        return self.lo_mpf == fzero and self.hi_mpf == fzero

    def contains_zero(self) -> bool:
        return mpf_sign(self.lo_mpf) <= 0 <= mpf_sign(self.hi_mpf)

    def contains_fraction(self, fr: Fraction) -> bool:
        return _fraction(self.lo_mpf) <= fr <= _fraction(self.hi_mpf)

    def strictly_positive(self) -> bool:
        return mpf_sign(self.lo_mpf) > 0

    def strictly_negative(self) -> bool:
        return mpf_sign(self.hi_mpf) < 0

    def intersects(self, other: "RInterval") -> bool:
        return mpf_le(self.lo_mpf, other.hi_mpf) and mpf_le(other.lo_mpf, self.hi_mpf)

    def intersect(self, other: "RInterval") -> "RInterval":
        lo = _max(self.lo_mpf, other.lo_mpf)
        hi = _min(self.hi_mpf, other.hi_mpf)
        if mpf_lt(hi, lo):
            raise ValueError(f"disjoint intervals {self!r} and {other!r}")
        return _iv(lo, hi)

    def hull(self, other: "RInterval") -> "RInterval":
        return _iv(_min(self.lo_mpf, other.lo_mpf), _max(self.hi_mpf, other.hi_mpf))

    def _mag_mpf(self):
        return _max(mpf_abs(self.lo_mpf), mpf_abs(self.hi_mpf))

    def mag(self) -> Dyadic:
        """Upper bound on |x| over the interval."""
        return Dyadic.from_mpf(self._mag_mpf())

    def mignitude(self) -> Dyadic:
        """Lower bound on |x| over the interval (0 if it contains 0)."""
        if self.contains_zero():
            return Dyadic.new(0)
        return Dyadic.from_mpf(_min(mpf_abs(self.lo_mpf), mpf_abs(self.hi_mpf)))

    # --- arithmetic, rounded outward at prec ---

    def add(self, other: "RInterval", prec: int) -> "RInterval":
        return _iv(*mpi_add((self.lo_mpf, self.hi_mpf), (other.lo_mpf, other.hi_mpf),
                            prec + _GUARD))

    def sub(self, other: "RInterval", prec: int) -> "RInterval":
        return _iv(*mpi_sub((self.lo_mpf, self.hi_mpf), (other.lo_mpf, other.hi_mpf),
                            prec + _GUARD))

    def mul(self, other: "RInterval", prec: int) -> "RInterval":
        return _iv(*mpi_mul((self.lo_mpf, self.hi_mpf), (other.lo_mpf, other.hi_mpf),
                            prec + _GUARD))

    def neg(self) -> "RInterval":
        return _iv(mpf_neg(self.hi_mpf), mpf_neg(self.lo_mpf))

    def div(self, other: "RInterval", prec: int) -> "RInterval":
        if mpf_sign(other.lo_mpf) <= 0 <= mpf_sign(other.hi_mpf):
            raise DomainStraddle("division by an enclosure containing 0")
        return _iv(*mpi_div((self.lo_mpf, self.hi_mpf), (other.lo_mpf, other.hi_mpf),
                            prec + _GUARD))

    # --- elementary functions ---

    def sqrt_nonneg(self, prec: int) -> "RInterval":
        """Real sqrt; the interval must not be strictly negative."""
        lo = self.lo_mpf if mpf_sign(self.lo_mpf) > 0 else fzero
        return _iv(*mpi_sqrt((lo, self.hi_mpf), prec + _GUARD))

    def _mid_rad(self):
        """Exact midpoint and radius."""
        lo, hi = self.lo_mpf, self.hi_mpf
        return mpf_shift(mpf_add(lo, hi), -1), mpf_shift(mpf_sub(hi, lo), -1)

    def exp(self, prec: int) -> "RInterval":
        m, r = self._mid_rad()
        if m == fzero or not _narrow(r, fone):
            return _iv(*mpi_exp((self.lo_mpf, self.hi_mpf), prec + _GUARD))
        # on the operand exp' <= exp(m) * e**r <= (v + ulp) * (1 + 2**-8), and the
        # second ulp of the pad covers ulp * e**r * r
        wp = prec + _GUARD
        v = mpf_exp(m, wp, "n")
        return _ball(v, mpf_mul(mpf_mul(v, r, wp, "u"), _EXP_SLOPE, wp, "u"), wp)

    def log_pos(self, prec: int) -> "RInterval":
        if not self.strictly_positive():
            raise DomainStraddle("log of an enclosure touching (-inf, 0]")
        m, r = self._mid_rad()
        if m == fone or not _narrow(r, self.lo_mpf):
            return _iv(*mpi_log((self.lo_mpf, self.hi_mpf), prec + _GUARD))
        wp = prec + _GUARD
        return _ball(_log(m, wp), mpf_div(r, self.lo_mpf, wp, "u"), wp)

    def cos_sin(self, prec: int) -> tuple["RInterval", "RInterval"]:
        """(cos, sin) of the interval from one libmp evaluation; both lie in [-1, 1]."""
        m, r = self._mid_rad()
        if m == fzero or not _narrow(r, fone):
            c, s = mpi_cos_sin((self.lo_mpf, self.hi_mpf), prec + _GUARD)
            return _iv(*c), _iv(*s)
        wp = prec + _GUARD
        c, s = mpf_cos_sin(m, wp, "n")
        return _ball(c, r, wp).intersect(_UNIT), _ball(s, r, wp).intersect(_UNIT)

    def sin(self, prec: int) -> "RInterval":
        return self.cos_sin(prec)[1]

    def cos(self, prec: int) -> "RInterval":
        return self.cos_sin(prec)[0]

    def atan(self, prec: int) -> "RInterval":
        m, r = self._mid_rad()
        if m == fzero or not _narrow(r, fone):
            return _iv(*mpi_atan((self.lo_mpf, self.hi_mpf), prec + _GUARD))
        wp = prec + _GUARD
        return _ball(mpf_atan(m, wp, "n"), r, wp)

    def ldexp(self, k: int) -> "RInterval":
        return _iv(mpf_shift(self.lo_mpf, k), mpf_shift(self.hi_mpf, k))


_ZERO = _iv(fzero, fzero)
_UNIT = _iv(fnone, fone)                  # [-1, 1]
_HALF_UNIT = _iv(mpf_neg(fhalf), fhalf)   # [-1/2, 1/2]
_NARROW = -10                             # narrow: radius <= 2**_NARROW * scale
_EXP_SLOPE = from_man_exp(257, -8)        # 1 + 2**-8 > e**(2**-10)


def _narrow(r, scale) -> bool:
    """Is the radius r at most 2**-10 * scale?

    scale is the distance over which the slope bound L stays close to |f'|:
    1 for exp, sin, cos and atan, lo for log, 1 - max|x| for arcsin.
    """
    return mpf_le(r, mpf_shift(scale, _NARROW))


def _ball(v, err, wp: int) -> RInterval:
    """v ± (err + 2 ulp of v at wp bits), rounded outward.

    v is libmp's value of f at the midpoint, trusted to within one ulp; err
    bounds |f(x) - f(m)| over the operand.
    """
    _, _, exp, bc = v
    e = mpf_add(err, from_man_exp(1, exp + bc + 1 - wp), wp, "u")
    return _iv(mpf_sub(v, e, wp, "f"), mpf_add(v, e, wp, "c"))


def _log(m, wp: int):
    """log of the positive mpf m to within one ulp at wp bits.

    libmp's cached Taylor series serves wp + 20 + c <= LOG_TAYLOR_PREC bits,
    c the bits that m - 1 cancels; its shortcuts serve a power of two (a
    multiple of its cached log 2) and c > wp + 20 (log m ~ m - 1). Otherwise
    y = log m at wp/2 + 32 bits and one Newton step on exp,
    y + 2(m - e^y)/(m + e^y) at wp + 16 + c bits, replace libmp's AGM.

    libmp also counts cancellation for m in [1/4, 1/2), against 1/4, and
    past wp + 20 bits returns 4m - 1 for log m. Outside [1/2, 2) |log m| >=
    log 2, so m is first rounded to wp + 16 bits: that moves log m by under
    2^-15 ulp and leaves libmp fewer than wp + 20 bits to count.
    """
    mag, c = m[2] + m[3], 0
    if mag in (0, 1):  # m in [1/2, 2): libmp's count of the bits m - 1 cancels
        t = mpf_sub(m, fone)  # exact
        c = mag - t[2] - t[3]
    else:
        m = mpf_pos(m, wp + 16, "n")
    if wp + 20 + c <= LOG_TAYLOR_PREC or m[1] == 1 or c > wp + 20:
        return mpf_log(m, wp, "n")
    y = _log(m, wp // 2 + 32)
    sp = wp + 16 + c
    ey = mpf_exp(y, sp, "n")
    step = mpf_div(mpf_sub(m, ey, sp, "n"), mpf_add(m, ey, sp, "n"), sp, "n")
    return mpf_add(y, mpf_shift(step, 1), wp, "n")


def pi_interval(prec: int) -> RInterval:
    p = prec + _GUARD
    return _iv(mpf_pi(p, "d"), mpf_pi(p, "u"))


def asin_interval(x: RInterval, prec: int) -> RInterval:
    """arcsin on [-1, 1]; endpoints outside [-1, 1] are clamped (outward rounding slack)."""
    lo = _max(x.lo_mpf, fnone)
    hi = _min(x.hi_mpf, fone)
    if mpf_lt(hi, lo):
        raise DomainStraddle("arcsin argument enclosure outside [-1, 1]")
    x = _iv(lo, hi)
    gap = mpf_sub(fone, _max(mpf_neg(lo), hi))  # 1 - max|x|, exact
    if mpf_sign(gap) > 0 and _narrow(x._mid_rad()[1], gap):
        # asin(x) = atan(x / sqrt(1 - x^2)): the monotone inner map encloses
        # tightly, and atan takes one evaluation at its midpoint
        one = RInterval.from_int(1)
        return x.div(one.sub(x.mul(x, prec), prec).sqrt_nonneg(prec), prec).atan(prec)
    return _iv(_asin_endpoint(lo, prec, upper=False), _asin_endpoint(hi, prec, upper=True))


def _asin_endpoint(t, prec: int, upper: bool):
    """Outward bound on arcsin of the mpf t in [-1, 1]; arcsin is monotone."""
    if mpf_lt(mpf_abs(t), fone):
        val = asin_interval(_iv(t, t), prec)  # a point inside (-1, 1) takes the narrow path
    else:
        val = pi_interval(prec).ldexp(-1)
        val = val if mpf_sign(t) > 0 else val.neg()
    return val.hi_mpf if upper else val.lo_mpf


def sin_pi_interval(x: RInterval, prec: int) -> RInterval:
    """Enclosure of sin(pi * x)."""
    extra = to_int(x._mag_mpf()).bit_length() + 4
    inner = pi_interval(prec + extra)
    return x.mul(inner, prec + extra).sin(prec)


class CInterval:
    """Rectangular complex enclosure re + i*im.

    Immutable by convention and compared by value. A real value has the
    zero point ``_ZERO`` as its imaginary part, and the ops on two real
    operands keep it without calling libmp.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RInterval, im: RInterval):
        self.re = re
        self.im = im

    def __eq__(self, other):
        if not isinstance(other, CInterval):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"CInterval(re={self.re!r}, im={self.im!r})"

    # --- constructors ---

    @staticmethod
    def real(r: RInterval) -> "CInterval":
        return CInterval(r, _ZERO)

    @staticmethod
    def from_int(n: int) -> "CInterval":
        return CInterval.real(RInterval.from_int(n))

    @staticmethod
    def from_fraction(fr: Fraction, prec: int) -> "CInterval":
        return CInterval.real(RInterval.from_fraction(fr, prec))

    # --- predicates and measures ---

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    def width_at_most(self, target: Fraction) -> bool:
        return self.re.width_at_most(target) and self.im.width_at_most(target)

    def is_real(self) -> bool:
        return self.im.is_zero_point()

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def intersects(self, other: "CInterval") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)

    def contains_fraction(self, fr: Fraction) -> bool:
        return self.re.contains_fraction(fr) and self.im.contains_zero()

    def mag_upper(self) -> Fraction:
        m = _fraction(_max(self.re._mag_mpf(), self.im._mag_mpf()))
        return 2 * m  # cheap bound: |z| <= |re| + |im| <= 2*max

    # --- arithmetic ---

    def add(self, other: "CInterval", prec: int) -> "CInterval":
        if self.is_real() and other.is_real():
            return CInterval(self.re.add(other.re, prec), _ZERO)
        return CInterval(self.re.add(other.re, prec), self.im.add(other.im, prec))

    def sub(self, other: "CInterval", prec: int) -> "CInterval":
        if self.is_real() and other.is_real():
            return CInterval(self.re.sub(other.re, prec), _ZERO)
        return CInterval(self.re.sub(other.re, prec), self.im.sub(other.im, prec))

    def neg(self) -> "CInterval":
        return CInterval(self.re.neg(), self.im.neg())

    def mul(self, other: "CInterval", prec: int) -> "CInterval":
        if self.is_real() and other.is_real():
            return CInterval.real(self.re.mul(other.re, prec))
        a, b, c, d = self.re, self.im, other.re, other.im
        re = a.mul(c, prec).sub(b.mul(d, prec), prec)
        im = a.mul(d, prec).add(b.mul(c, prec), prec)
        return CInterval(re, im)

    def div(self, other: "CInterval", prec: int) -> "CInterval":
        if other.is_real():
            if self.is_real():
                return CInterval(self.re.div(other.re, prec), _ZERO)
            return CInterval(self.re.div(other.re, prec), self.im.div(other.re, prec))
        den = other.re.mul(other.re, prec).add(other.im.mul(other.im, prec), prec)
        if den.contains_zero():
            raise DomainStraddle("division by an enclosure containing 0")
        num = self.mul(other.conj(), prec)
        return CInterval(num.re.div(den, prec), num.im.div(den, prec))

    def conj(self) -> "CInterval":
        return CInterval(self.re, self.im.neg())

    # --- elementary functions ---

    def sqrt(self, prec: int) -> "CInterval":
        if self.is_real():
            if not self.re.strictly_negative():
                if self.re.contains_zero():
                    # principal sqrt over [lo, hi] with lo <= 0: hull of the
                    # real branch and the +i branch (im >= 0 on the cut)
                    pos = self.re.sqrt_nonneg(prec)
                    neg_mag = self.re.neg().sqrt_nonneg(prec)
                    return CInterval(_iv(fzero, pos.hi_mpf), _iv(fzero, neg_mag.hi_mpf))
                return CInterval.real(self.re.sqrt_nonneg(prec))
            return CInterval(_ZERO, self.re.neg().sqrt_nonneg(prec))
        return self.log(0, prec).scale_half().exp(prec)

    def scale_half(self) -> "CInterval":
        return CInterval(self.re.ldexp(-1), self.im.ldexp(-1))

    def exp(self, prec: int) -> "CInterval":
        r = self.re.exp(prec)
        if self.im.is_zero_point():
            return CInterval.real(r)
        cos, sin = self.im.cos_sin(prec)
        return CInterval(r.mul(cos, prec), r.mul(sin, prec))

    def arg(self, prec: int) -> RInterval:
        """Principal argument in (-pi, pi]; DomainStraddle on the branch cut."""
        x, y = self.re, self.im
        if x.strictly_positive():
            return y.div(x, prec).atan(prec)
        pi2 = pi_interval(prec).ldexp(-1)
        if y.strictly_positive():
            return pi2.sub(x.div(y, prec).atan(prec), prec)
        if y.strictly_negative():
            return pi2.neg().sub(x.div(y, prec).atan(prec), prec)
        if x.strictly_negative() and y.is_zero_point():
            return pi_interval(prec)  # on the cut: arg = +pi by convention
        raise DomainStraddle("argument enclosure straddles 0 or the branch cut")

    def log(self, branch: int, prec: int) -> "CInterval":
        """log z + 2*pi*i*branch, principal branch Im in (-pi, pi]."""
        if self.is_real() and self.re.strictly_positive():
            re = self.re.log_pos(prec)
            if branch == 0:
                return CInterval.real(re)
            im = pi_interval(prec).ldexp(1).mul(RInterval.from_int(branch), prec)
            return CInterval(re, im)
        sq = self.re.mul(self.re, prec).add(self.im.mul(self.im, prec), prec)
        if sq.contains_zero():
            raise DomainStraddle("log of an enclosure containing 0")
        re = sq.log_pos(prec).ldexp(-1)
        im = self.arg(prec)
        if branch:
            im = im.add(pi_interval(prec).ldexp(1).mul(RInterval.from_int(branch), prec), prec)
        return CInterval(re, im)

    def pow(self, other: "CInterval", prec: int) -> "CInterval":
        """Principal power z^w = exp(w * log z)."""
        return other.mul(self.log(0, prec), prec).exp(prec)


def sin_pi_complex(x: CInterval, prec: int) -> CInterval:
    """sin(pi*x); exact real path with [-1,1] clamp, general path otherwise.

    Arguments whose imaginary enclosure merely contains 0 (real values with
    rectangular rounding slack, e.g. ratios involving a pi enclosure) go
    through the entire-function formula with no clamping.
    """
    if x.is_real():
        return CInterval.real(sin_pi_interval(x.re, prec).intersect(_UNIT))
    if not x.im.contains_zero():
        raise DomainStraddle("sin_pi requires a (near-)real enclosure")
    extra = int(x.mag_upper()).bit_length() + 4
    w = x.mul(CInterval.real(pi_interval(prec + extra)), prec + extra)
    iw = CInterval(w.im.neg(), w.re)
    a = iw.exp(prec)
    b = iw.neg().exp(prec)
    # (a - b) / (2i) = ((a.im - b.im) + i*(b.re - a.re)) / 2
    return CInterval(a.im.sub(b.im, prec).ldexp(-1), b.re.sub(a.re, prec).ldexp(-1))


def arcsin_over_pi_complex(x: CInterval, prec: int) -> CInterval:
    if not x.is_real():
        raise DomainStraddle("arcsin_over_pi requires a real enclosure")
    val = asin_interval(x.re, prec).div(pi_interval(prec), prec)
    return CInterval.real(val.intersect(_HALF_UNIT))


def _bits_for(width: Fraction) -> int:
    """The least b >= 1 with 2^-b <= width: for 0 < width < 1, 2^-b <= width < 2^-(b-1)."""
    if width <= 0:
        raise ValueError("target width must be positive")
    return max(1, (-(-width.denominator // width.numerator) - 1).bit_length())


def escalate(thunk: Callable[[int], T], accept: Callable[[T], Optional[R]], what: str,
             start: int = 64, cap: Optional[int] = None) -> R:
    """The first accept(thunk(prec)) that is not None, for prec = start, 2*start, ...

    The one loop in qx that raises precision. A DomainStraddle from thunk or
    accept moves on to the next precision. Past cap (default: the precision
    ceiling) it raises MaxPrecision naming `what`, the bits tried and a
    straddle that persisted to the last of them.
    """
    cap = precision_ceiling() if cap is None else cap
    prec, straddle = start, None
    while prec <= cap:
        try:
            verdict = accept(thunk(prec))
        except DomainStraddle as exc:
            straddle = exc
        else:
            if verdict is not None:
                return verdict
            straddle = None
        prec *= 2
    tried = f"tried {start} to {prec // 2} bits" if prec > start else "no bits tried"
    persists = f"; a domain straddle persists: {straddle}" if straddle else ""
    raise MaxPrecision(f"{what}: not settled within the precision ceiling of {cap} bits "
                       f"({tried}){persists}")


def start_bits(bits: int) -> int:
    """The first precision tried for a width of 2^-bits: 24 guard bits, and at
    least the 64 bits every sign, domain and round-trip test starts at, so a
    low-precision width target shares their evaluation."""
    return max(64, bits + 24)


def refine(thunk: Callable[[int], CInterval], target: Fraction) -> CInterval:
    """Re-evaluate thunk at growing precision until the width target is met.

    It starts at `start_bits(b)`, b the least integer with 2^-b <= target:
    at 64 bits for 10^-12 and 2^-40, 84 for 2^-60 and 357 for 10^-100.
    Raises MaxPrecision at the ceiling; a tiny-but-nonpoint enclosure around a
    possibly-exact zero is reported this way, never silently decided.
    """
    bits = _bits_for(target)
    # in bits: str() of a fine target can pass Python's int-to-str digit limit
    return escalate(thunk, lambda value: value if value.width_at_most(target) else None,
                    f"a width of 2^-{bits}", start=start_bits(bits))
