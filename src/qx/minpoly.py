"""Annihilating polynomials for sin(pi*p/q), the rational-sine classifier,
and the unconditional transcendence rule base.

Every polynomial is an `IntPoly`: integer coefficients, constant term first.
Its operations stay in exact integer arithmetic: ring operations, exact
division, a primitive pseudo-remainder gcd, and evaluation at a rational
num/den as the homogeneous sum of c_k * num^k * den^(n-k). Enclosures of
p(z) cost one interval product per nonzero coefficient plus O(log) per run
of zeros.

Structural witness steps are maps on the coefficient tuple: interleaving
zeros for a square root, scaling coefficient k by u^k * v^(n-k) for a
rational factor, reversal for a reciprocal, and one integer Taylor shift for
a rational translate.

The annihilator of sin(pi*p/q) is a Chebyshev polynomial in closed form:
sin(q*t) = +-T_q(sin t) for q odd and +-cos(t) * U_(q-1)(sin t) for q even,
so T_q, or (x^2 - 1) * U_(q-1) made primitive, has exactly the roots
sin(pi*j/q). Its linear factors are those of the rational values 0, +-1 and
+-1/2 (Niven), so the Olmsted witness is the same polynomial with them
divided out.

Verdicts are honest: "unknown" is a first-class outcome and nothing is ever
decided by numerical coincidence. Enclosures are used only to prove
*inequalities* (disjointness), never equalities.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count, zip_longest
from math import gcd, lcm, prod
from typing import NamedTuple, Optional

from . import expr as E
from .errors import ZeroPolynomial
from .expr import Context, Expr, fold, quad_flatten, separates
from .interval import CInterval


class IntPoly:
    """Integer-coefficient polynomial, constant term first, no leading zeros.

    A class, not a tuple: `algebraic_witness` returns a (IntPoly, rule) pair,
    and callers tell that pair from a bare IntPoly by `isinstance(_, tuple)`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = coeffs

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, IntPoly) else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly(coeffs={self.coeffs!r})"

    @staticmethod
    def new(coeffs) -> "IntPoly":
        """From ints, dropping leading zeros; a float, bool or string is a TypeError.

        Certificate witnesses are read through here, so nothing is rounded.
        """
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"polynomial coefficient {c!r} is not an integer")
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @staticmethod
    def from_fractions(cs) -> "IntPoly":
        """The least positive integer multiple of a rational polynomial."""
        den = lcm(*(c.denominator for c in cs))
        return IntPoly.new(c.numerator * (den // c.denominator) for c in cs)

    @staticmethod
    def _lift(x) -> "IntPoly":
        return x if isinstance(x, IntPoly) else IntPoly.new((x,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other) -> "IntPoly":
        return IntPoly.new(a + b for a, b in
                           zip_longest(self.coeffs, IntPoly._lift(other).coeffs, fillvalue=0))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "IntPoly":
        return self + -IntPoly._lift(other)

    def __mul__(self, other) -> "IntPoly":
        a, b = self.coeffs, IntPoly._lift(other).coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        return self.divide_content(0)  # gcd(0, content) is the content

    def divide_content(self, d: int) -> "IntPoly":
        """Divide out the greatest common factor of d and the content."""
        g = abs(d)
        for c in self.coeffs:
            if g == 1:
                return self
            g = gcd(g, c)
        if g <= 1:
            return self
        return IntPoly(tuple(c // g for c in self.coeffs))

    def monic_sign(self) -> "IntPoly":
        if self.coeffs and self.coeffs[-1] < 0:
            return -self
        return self

    def derivative(self) -> "IntPoly":
        return IntPoly.new(k * c for k, c in enumerate(self.coeffs) if k)

    def exact_quotient(self, d: "IntPoly") -> Optional["IntPoly"]:
        """self / d when d divides self in Z[x], otherwise None."""
        r, m = list(self.coeffs), d.degree
        if len(r) <= m:
            return None
        lead = d.coeffs[-1]
        quot = [0] * (len(r) - m)
        for k in range(len(quot) - 1, -1, -1):
            c, rem = divmod(r[k + m], lead)
            if rem:
                return None
            quot[k] = c
            if c:
                for i, b in enumerate(d.coeffs):
                    r[k + i] -= c * b
        return None if any(r[:m]) else IntPoly(tuple(quot))

    def pseudo_remainder(self, d: "IntPoly") -> "IntPoly":
        """lead(d)^k * self mod d, for the number k of division steps taken."""
        r, m, lead = list(self.coeffs), d.degree, d.coeffs[-1]
        while len(r) > m:
            top, k = r[-1], len(r) - 1 - m
            r = [lead * c for c in r]
            for i, b in enumerate(d.coeffs):
                r[k + i] -= top * b
            while r and r[-1] == 0:
                r.pop()
        return IntPoly(tuple(r))

    def gcd(self, other: "IntPoly") -> "IntPoly":
        """Greatest common divisor in Z[x], primitive with a positive leading coefficient."""
        a, b = self.primitive(), other.primitive()
        while not b.is_zero():
            a, b = b, a.pseudo_remainder(b).primitive()
        return a.monic_sign()

    def eval_fraction(self, x: Fraction) -> Fraction:
        return Fraction(_homogeneous(self.coeffs, x.numerator, x.denominator),
                        x.denominator ** max(self.degree, 0))

    def eval_enclosure(self, z: CInterval, prec: int) -> CInterval:
        """Enclosure of p(z): Horner's rule over the nonzero coefficients only.

        A run of g - 1 zero coefficients between two nonzero ones becomes one
        factor z^g, by repeated squaring.
        """
        acc, top = CInterval.from_int(0), None
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c:
                if top is not None:
                    acc = acc.mul(_power(z, top - k, prec), prec)
                acc, top = acc.add(CInterval.from_int(c), prec), k
        return acc if not top else acc.mul(_power(z, top, prec), prec)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            term = f"{c}" if k == 0 else (f"{c}*x" if k == 1 else f"{c}*x^{k}")
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


def _power(z: CInterval, g: int, prec: int) -> CInterval:
    """z^g for g >= 1 by repeated squaring: at most 2*log2(g) products."""
    out = None
    while True:
        if g & 1:
            out = z if out is None else out.mul(z, prec)
        g >>= 1
        if not g:
            return out
        z = z.mul(z, prec)


def _scaled(coeffs, u: int, v: int) -> list[int]:
    """c_k * u^k * v^(n-k) for each k, n = len(coeffs) - 1."""
    n = len(coeffs) - 1
    vpow = [1] * (n + 1)  # vpow[j] = v^j
    for j in range(1, n + 1):
        vpow[j] = vpow[j - 1] * v
    out, upow = [], 1
    for k, c in enumerate(coeffs):
        out.append(c * upow * vpow[n - k] if c else 0)
        upow *= u
    return out


def _taylor_shift(coeffs, c: int) -> list[int]:
    """Coefficients of Q(x + c) from those of Q, for an integer c.

    Horner's scheme: n passes of synthetic division, n(n+1)/2 multiply-adds
    on plain ints (J. von zur Gathen and J. Gerhard, "Fast algorithms for
    Taylor shifts and certain difference equations", ISSAC 1997).
    """
    a = list(coeffs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _homogeneous(coeffs, num: int, den: int) -> int:
    """Sum of c_k * num^k * den^(n-k) over k, n = len(coeffs) - 1, by Horner's rule."""
    acc, dpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * dpow
        dpow = dpow * den
    return acc


class Verdict(NamedTuple):
    """Classification certificate for one expression."""

    status: str  # rational | algebraic | transcendental | unknown
    rule: str
    conditional: bool = False
    witness: Optional[IntPoly] = None
    value: Optional[Fraction] = None


def squarefree_part(p: IntPoly) -> IntPoly:
    """Largest squarefree divisor; same root set, multiplicities dropped."""
    if p.degree <= 0:
        return p
    return p.exact_quotient(p.gcd(p.derivative())).primitive().monic_sign()


# --- sin(pi*p/q) annihilators --------------------------------------------------

def _chebyshev_sin_pi(q: int) -> IntPoly:
    """T_q for q odd, U_(q-1) divided by its content for q even.

    Both are odd polynomials of odd degree n, with leading coefficient
    2^(n-1) for T_n and 2^n for U_n. The coefficient of x^(n-2k) is
    (-1)^k * n/(n-k) * C(n-k, k) * 2^(n-2k-1) in T_n and
    (-1)^k * C(n-k, k) * 2^(n-2k) in U_n, so each follows from the one before
    by one exact ratio, and the polynomial costs O(q) big-integer operations
    (J. C. Mason and D. C. Handscomb, *Chebyshev Polynomials*, 2003, ch. 2).
    """
    odd = q % 2  # 1 for T_q, 0 for U_(q-1)
    n = q - 1 + odd
    out = [0] * (n + 1)
    c = 1 << (n - odd)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = c
        if 2 * k + 1 < n:
            c = -c * (n - 2 * k) * (n - 2 * k - 1) // (4 * (k + 1) * (n - k - odd))
    return IntPoly(tuple(out)).primitive()


def annihilator_sin_pi(r: Fraction) -> IntPoly:
    """Squarefree integer polynomial whose roots are sin(pi*j/q), j = 0..2q-1.

    q is the denominator of r. With x = sin(t), sin(q*t) = +-T_q(x) for q odd
    and sin(q*t) = +-cos(t) * U_(q-1)(x) for q even, and sin(q*t) = 0 at
    every t = pi*j/q. T_q has the q distinct roots sin(pi*j/q); U_(q-1) has
    q - 1 of them, and cos(t) = 0 adds x = +-1. So the result is T_q, which
    is primitive (its x coefficient is +-q against a leading 2^(q-1)), or
    (x^2 - 1) * U_(q-1) made primitive. A primitive polynomial with a
    positive leading coefficient is fixed by its simple roots (Gauss's
    lemma), so this is the product of the distinct minimal polynomials of
    those values, and sin(pi*r) is among its roots.
    """
    q = Fraction(r).denominator
    p = _chebyshev_sin_pi(q)
    if q % 2:
        return p
    out = [0, 0, *p.coeffs]  # x^2 * p - p
    for k, c in enumerate(p.coeffs):
        out[k] -= c
    return IntPoly(tuple(out))


# --- rational root scan -------------------------------------------------------

def _divisors(n: int) -> Optional[list[int]]:
    """Positive divisors of |n| in ascending order; [] for 0; None when
    `E.factor` leaves a rest, whose divisors are not known, or when they
    number, as prod (e + 1), more than `E._TRIAL_BOUND`."""
    n = abs(n)
    if n == 0:
        return []
    primes, rest = E.factor(n)
    if rest != 1 or prod(e + 1 for e in primes.values()) > E._TRIAL_BOUND:
        return None
    divs = [1]
    for p, e in primes.items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def rational_root_scan(p: IntPoly) -> Optional[list[Fraction]]:
    """All rational roots by the rational-root theorem, each verified exactly.

    None means "not settled": an end coefficient leaves a rest in `E.factor`,
    so its divisors, and the candidates, are not known, or the candidate
    pairs (num, den) number more than `E._TRIAL_BOUND`.
    """
    if p.is_zero():
        raise ZeroPolynomial("rational roots of the zero polynomial are undefined")
    shift = next(k for k, c in enumerate(p.coeffs) if c)
    roots = [Fraction(0)] if shift else []
    trimmed = IntPoly(p.coeffs[shift:])
    if trimmed.degree == 0:
        return roots
    # a root num/den in lowest terms has num | c_0 and den | c_n
    nums, dens = _divisors(trimmed.coeffs[0]), _divisors(trimmed.coeffs[-1])
    if nums is None or dens is None or len(nums) * len(dens) > E._TRIAL_BOUND:
        return None
    # Gauss: for a root num/den in lowest terms, den*x - num divides the
    # trimmed polynomial t in Z[x], so den*k - num divides t(k) at every
    # integer k. Sieve at the two k nearest 0 with t(k) != 0 (sin-pi
    # annihilators vanish at +-1); there den*k = num is no root either.
    sieve = []
    for k in (k for m in count(1) for k in (m, -m)):
        value = _homogeneous(trimmed.coeffs, k, 1)
        if value:
            sieve.append((k, value))
            if len(sieve) == 2:
                break

    def survives(num: int, den: int) -> bool:
        return all(den * k != num and value % (den * k - num) == 0 for k, value in sieve)

    for num in nums:
        for den in dens:
            if gcd(num, den) == 1:
                for signed in (num, -num):
                    if survives(signed, den):
                        cand = Fraction(signed, den)
                        if trimmed.eval_fraction(cand) == 0:
                            roots.append(cand)
    return sorted(roots)


# --- Olmsted classifier --------------------------------------------------------

def _linear_witness(value: Fraction) -> IntPoly:
    return IntPoly.new((-value.numerator, value.denominator))


def olmsted_classify(r: Fraction) -> Verdict:
    """sin(pi*r) is rational exactly when it lies in {0, +-1/2, +-1}.

    Otherwise the witness is the annihilator of `annihilator_sin_pi` with its
    linear factors divided out. By Niven (I. Niven, *Irrational Numbers*,
    1956, Cor. 3.12) those are the factors of the rational roots: x always,
    x - 1 and x + 1 when q is even, 2x - 1 and 2x + 1 when 6 | q. So the
    witness is T_q / x or U_(q-1) / x made primitive, then divided once by
    4x^2 - 1 when 6 | q. A quotient of primitive polynomials is primitive
    (Gauss's lemma), so the witness is the product of the minimal
    polynomials of degree > 1 of the values sin(pi*j/q).
    """
    r = Fraction(r)
    table_value = E._SIN_TABLE.get(r % 2)
    if table_value is not None:
        return Verdict("rational", "olmsted", witness=_linear_witness(table_value),
                       value=table_value)
    witness = IntPoly(_chebyshev_sin_pi(r.denominator).coeffs[1:])  # odd: over x
    if r.denominator % 6 == 0:
        witness = witness.exact_quotient(IntPoly((-1, 0, 4)))
    return Verdict("algebraic", "sin-pi-annihilator", witness=witness)


# --- structural algebraicity witnesses ----------------------------------------

def _affine_image(p: IntPoly, s: Fraction, h: Fraction) -> IntPoly:
    """Witness for s*t + h given witness p for t (s != 0).

    That is s^n * p((x - h)/s) times the least positive integer that clears
    its denominators. For s = a/b and h = c/d in lowest terms,
    (x - h)/s = b(dx - c) / (da), so (bd)^n * s^n * p((x - h)/s) is
    sum p_k * b^k * (da)^(n-k) * (dx - c)^k = Q(dx - c): scale, shift by -c,
    then scale x by d. Dividing out the common factor of (bd)^n and its
    content leaves that least multiple.
    """
    a, b, c, d = s.numerator, s.denominator, h.numerator, h.denominator
    q = _scaled(p.coeffs, b, d * a)
    if c:
        q = _taylor_shift(q, -c)
    if d != 1:
        q = _scaled(q, d, 1)
    return IntPoly.new(q).divide_content((b * d) ** p.degree)


def algebraic_witness(e: Expr) -> Optional[tuple[IntPoly, str]]:
    """Structural annihilating polynomial, or None when the syntax gives none.

    No resultant machinery: covers rationals, one quadratic extension,
    square-root towers, sin(pi*rational), rational-coefficient poly roots,
    and rational-affine images of those. Each step maps the coefficients of
    the operand's witness p: p(x^2) for a square root interleaves zeros,
    t*a and t/a scale coefficient k, t + a, t - a and a - t scale and then
    Taylor-shift (`_affine_image`), and x^n * p(a/x) for a/t scales and
    reverses. A witness with rational coefficients is scaled by the least
    positive integer that makes it integral; certificates record these exact
    coefficients.
    """
    return fold(e, "algebraic_witness", _witness_node, _witness_operands)


def _witness_operands(e: Expr):
    """The radicand of a sqrt, or the non-rational operand of a rational-affine op."""
    if quad_flatten(e) is not None:
        return ()
    if e.kind == E.SQRT:
        return e.children
    if e.kind in E.FIELD_OPS:
        left, right = e.children
        if right.kind == E.RAT:
            return (left,)
        if left.kind == E.RAT:
            return (right,)
    return ()


def _witness_node(e: Expr, kids) -> Optional[tuple[IntPoly, str]]:
    flat = quad_flatten(e)
    if flat is not None:
        u, v, d = flat
        if v == 0:
            return _linear_witness(u), "rational-constant"
        # u + v*sqrt(d) is the affine image of a root of x^2 - d
        return _affine_image(IntPoly.new((-d.numerator, 0, 1)), v, u), "quadratic-field"
    k = e.kind
    if k == E.SINPI and e.children[0].kind == E.RAT:
        return annihilator_sin_pi(e.children[0].rat), "sin-pi-annihilator"
    if k == E.POLYROOT and all(c.kind == E.RAT for c in e.children):
        return IntPoly.from_fractions([c.rat for c in e.children]), "poly-root"
    if not kids or kids[0] is None:
        return None
    p = kids[0][0]
    if k == E.SQRT:
        spread = [0] * (2 * p.degree + 1)
        spread[::2] = p.coeffs
        return IntPoly(tuple(spread)), "sqrt-tower"
    left, right = e.children
    on_right = right.kind == E.RAT  # t op a; otherwise a op t
    a = right.rat if on_right else left.rat
    if k == E.ADD:
        poly = _affine_image(p, Fraction(1), a)
    elif k == E.SUB:
        poly = _affine_image(p, Fraction(1), -a) if on_right else _affine_image(p, Fraction(-1), a)
    elif k == E.MUL:
        poly = _affine_image(p, a, Fraction(0)) if a != 0 else None
    elif on_right:
        poly = _affine_image(p, 1 / a, Fraction(0))
    elif a != 0 and separates(right, 0):
        # x^n * p(a/x) times m'^n for a = m/m': p_k * m^k * m'^(n-k) at x^(n-k);
        # a root 0 of p drops the degree
        poly = IntPoly.new(reversed(_scaled(p.coeffs, a.numerator, a.denominator))
                           ).divide_content(a.denominator ** p.degree)
    else:
        poly = None
    return None if poly is None else (poly, "affine-combination")


# --- exact inequality proofs ----------------------------------------------------

def _provably_irrational(e: Expr, witness: IntPoly) -> bool:
    """Prove that e, whose structural witness is `witness`, is irrational."""
    # a field op with a witness is s*t + h or a/t of its one operand t, with
    # s and a nonzero, so it is irrational exactly when t is; t's witness has
    # smaller coefficients than the shifted one, and fewer divisors to scan
    while e.kind in E.FIELD_OPS and quad_flatten(e) is None:
        (e,) = _witness_operands(e)
        witness = algebraic_witness(e)[0]
    flat = quad_flatten(e)
    if flat is not None:
        return flat[1] != 0
    roots = rational_root_scan(witness)
    return roots is not None and all(separates(e, root) for root in roots)


# --- the rule base ---------------------------------------------------------------

def transcendence_rules(e: Expr) -> Verdict:
    """First matching unconditional rule wins; otherwise an honest 'unknown'."""
    # only a field op without a structural witness is judged by its operands
    return fold(e, "transcendence_rules", _classify_node, lambda n: (
        n.children if n.kind in E.FIELD_OPS and algebraic_witness(n) is None else ()))


def _classify_node(e: Expr, kids) -> Verdict:
    if e.kind == E.RAT:
        return Verdict("rational", "rational-constant",
                       witness=_linear_witness(e.rat), value=e.rat)
    witness = algebraic_witness(e)
    if witness is not None:
        poly, rule = witness
        flat = quad_flatten(e)
        if flat is not None and flat[1] == 0:
            return Verdict("rational", rule, witness=poly, value=flat[0])
        return Verdict("algebraic", rule, witness=poly)

    k = e.kind
    if k == E.EXP:
        arg_w = algebraic_witness(e.arg)
        if e.natural:
            if arg_w is not None and separates(e.arg, 0):
                return Verdict("transcendental", "hermite-lindemann")
        else:
            base_w = algebraic_witness(e.base)
            if (base_w is not None and arg_w is not None
                    and separates(e.base, 0) and separates(e.base, 1)
                    and _provably_irrational(e.arg, arg_w[0])):
                return Verdict("transcendental", "gelfond-schneider")
    elif k == E.LOG and e.natural:
        arg_w = algebraic_witness(e.arg)
        if arg_w is not None:
            if e.arg.is_rat(1) and e.branch != 0:
                return Verdict("transcendental", "lindemann")
            if separates(e.arg, 0) and separates(e.arg, 1):
                return Verdict("transcendental", "hermite-lindemann")
    elif k == E.SINPI:
        arg_w = algebraic_witness(e.children[0])
        if arg_w is not None and _provably_irrational(e.children[0], arg_w[0]):
            return Verdict("transcendental", "euler-bridge")
    elif k == E.ARCSINPI:
        if e.children[0].kind == E.RAT:
            # non-table rational (table values folded away at construction)
            return Verdict("transcendental", "olmsted-arcsin")
    elif k in E.FIELD_OPS:
        left, right = kids
        if _shift_applies(k, e.children[0], left, e.children[1], right):
            return Verdict("transcendental", "algebraic-shift")
    return Verdict("unknown", "none")


def _shift_applies(kind, le: Expr, lv: Verdict, re_: Expr, rv: Verdict) -> bool:
    """Field combination of one transcendental with one certified algebraic."""
    if lv.status == "transcendental" and rv.status in ("rational", "algebraic"):
        alg = re_
    elif rv.status == "transcendental" and lv.status in ("rational", "algebraic"):
        alg = le
    else:
        return False
    if kind in (E.MUL, E.DIV):
        return separates(alg, 0)
    return True
