"""Annihilating polynomials for sin(pi*p/q), the rational-sine classifier,
and the unconditional transcendence rule base.

The multiple-angle construction follows the classical expansion
sin(q*theta) = A(x) + y*B(x) with x = sin(theta), y = cos(theta), driven by
the angle-addition recurrence in exact integer arithmetic. Since
sin(q*theta) = sin(pi*p) = 0, the integer polynomial A^2 - (1 - x^2)*B^2
annihilates sin(pi*p/q).

Verdicts are honest: "unknown" is a first-class outcome and nothing is ever
decided by numerical coincidence. Enclosures are used only to prove
*inequalities* (disjointness), never equalities.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from . import expr as E
from .errors import DomainStraddle, MaxPrecision, ZeroPolynomial
from .expr import Context, Expr, fold, quad_flatten
from .interval import CInterval

_SEPARATION_CAP = 1024  # bits spent proving enclosure disjointness


@dataclass(frozen=True)
class IntPoly:
    """Integer-coefficient polynomial, constant term first, no leading zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def new(coeffs) -> "IntPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(int(c) for c in cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        g = self.content()
        if g <= 1:
            return self
        return IntPoly(tuple(c // g for c in self.coeffs))

    def monic_sign(self) -> "IntPoly":
        if self.coeffs and self.coeffs[-1] < 0:
            return IntPoly(tuple(-c for c in self.coeffs))
        return self

    def derivative(self) -> "IntPoly":
        return IntPoly.new(k * c for k, c in enumerate(self.coeffs) if k)

    def eval_fraction(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_enclosure(self, z: CInterval, prec: int) -> CInterval:
        acc = CInterval.from_int(0)
        for c in reversed(self.coeffs):
            acc = acc.mul(z, prec).add(CInterval.from_int(c), prec)
        return acc

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


@dataclass(frozen=True)
class Verdict:
    """Classification certificate for one expression."""

    status: str  # rational | algebraic | transcendental | unknown
    rule: str
    conditional: bool = False
    witness: Optional[IntPoly] = None
    value: Optional[Fraction] = None


# --- polynomial helpers over Q (lists of Fractions, constant first) ----------

def _q(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _from_q(cs: list[Fraction]) -> IntPoly:
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return IntPoly(())
    lcm = 1
    for c in cs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    return IntPoly.new(int(c * lcm) for c in cs)


def _q_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _q_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _q_divmod(a, b):
    a = a[:]
    while a and a[-1] == 0:
        a.pop()
    db = len(b) - 1
    quot = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        f = a[-1] / b[-1]
        quot[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def _q_gcd(a, b):
    a, b = a[:], b[:]
    while b:
        _, r = _q_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    return _from_q(_q_mul(_q(a), _q(b)))


def squarefree_part(p: IntPoly) -> IntPoly:
    """Largest squarefree divisor; same root set, multiplicities dropped."""
    if p.is_zero() or p.degree == 0:
        return p
    g = _q_gcd(_q(p), _q(p.derivative()))
    if len(g) <= 1:
        return p.primitive().monic_sign()
    quot, rem = _q_divmod(_q(p), g)
    assert not rem
    return _from_q(quot).primitive().monic_sign()


def divide_out_root(p: IntPoly, root: Fraction) -> IntPoly:
    """Remove every (x - root) factor from p."""
    linear = [Fraction(-root), Fraction(1)]
    cs = _q(p)
    while cs:
        quot, rem = _q_divmod(cs, linear)
        if rem:
            break
        cs = quot
    return _from_q(cs).primitive()


# --- multiple-angle annihilators ---------------------------------------------

def annihilator_sin_pi(r: Fraction) -> IntPoly:
    """Integer polynomial with sin(pi*r) among its roots.

    Angle-addition recurrence on (A, B, C, D) with
    sin(n*t) = A + y*B, cos(n*t) = C + y*D, all in Z[x], y^2 = 1 - x^2.
    """
    r = Fraction(r)
    q = r.denominator
    A, B = [0, 1], []      # sin(t) = x
    C, D = [], [1]         # cos(t) = y
    one_minus_x2 = [1, 0, -1]
    for _ in range(q - 1):
        A, B, C, D = (
            _i_add(_i_mul(B, one_minus_x2), _i_shift_mul_x(C)),
            _i_add(A, _i_shift_mul_x(D)),
            _i_sub(_i_mul(D, one_minus_x2), _i_shift_mul_x(A)),
            _i_sub(C, _i_shift_mul_x(B)),
        )
    if not _trim(B):
        p = IntPoly.new(A)
    else:
        a2 = _i_mul(A, A)
        b2 = _i_mul(_i_mul(B, B), one_minus_x2)
        p = IntPoly.new(_i_sub(a2, b2))
    return squarefree_part(p.primitive()).monic_sign()


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _i_mul(a, b):
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _i_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def _i_sub(a, b):
    return _i_add(a, [-y for y in b])


def _i_shift_mul_x(a):
    return [0] + list(a)


# --- rational root scan -------------------------------------------------------

def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_root_scan(p: IntPoly) -> list[Fraction]:
    """All rational roots by the rational-root theorem, each verified exactly."""
    if p.is_zero():
        raise ZeroPolynomial("rational roots of the zero polynomial are undefined")
    coeffs = list(p.coeffs)
    roots = []
    shift = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.append(Fraction(0))
    if not coeffs or len(coeffs) == 1:
        return sorted(roots)
    trimmed = IntPoly.new(coeffs)
    for num_d in _divisors(trimmed.coeffs[0]):
        for den_d in _divisors(trimmed.coeffs[-1]):
            for sign in (1, -1):
                cand = Fraction(sign * num_d, den_d)
                if cand not in roots and trimmed.eval_fraction(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


# --- Olmsted classifier --------------------------------------------------------

def _linear_witness(value: Fraction) -> IntPoly:
    return IntPoly.new((-value.numerator, value.denominator))


def olmsted_classify(r: Fraction) -> Verdict:
    """sin(pi*r) is rational exactly when it lies in {0, +-1/2, +-1}."""
    r = Fraction(r)
    table_value = E._SIN_TABLE.get(r % 2)
    if table_value is not None:
        return Verdict("rational", "olmsted", witness=_linear_witness(table_value),
                       value=table_value)
    p = annihilator_sin_pi(r)
    # sin(pi*r) is irrational here, so no rational root can be the value:
    # strip every rational linear factor to sharpen the witness
    for root in rational_root_scan(p):
        p = divide_out_root(p, root)
    return Verdict("algebraic", "sin-pi-annihilator", witness=p.monic_sign())


# --- structural algebraicity witnesses ----------------------------------------

def _q_add(a, b):
    return _q_sub(a, [-y for y in b])


def _affine_witness(p: IntPoly, scale: Fraction, shift: Fraction) -> IntPoly:
    """Witness for scale*t + shift given witness p for t (scale != 0)."""
    # Q(x) = scale^deg * p((x - shift)/scale), cleared of denominators
    x_minus = [-shift, Fraction(1)]
    acc: list[Fraction] = []
    power = [Fraction(1)]
    qc = _q(p)
    deg = len(qc) - 1
    for k, c in enumerate(qc):
        acc = _q_add(acc, [v * c * scale ** (deg - k) for v in power])
        power = _q_mul(power, x_minus)
    return _from_q(acc)


def _reciprocal_witness(p: IntPoly, a: Fraction) -> IntPoly:
    """Witness for a/t given witness p for t (a != 0): x^deg * p(a/x)."""
    qc = _q(p)
    deg = len(qc) - 1
    out = [qc[deg - k] * a ** (deg - k) for k in range(deg + 1)]
    return _from_q(out)


def _compose_square(p: IntPoly) -> IntPoly:
    out = [0] * (2 * p.degree + 1)
    for k, c in enumerate(p.coeffs):
        out[2 * k] = c
    return IntPoly.new(out)


def algebraic_witness(e: Expr) -> Optional[tuple[IntPoly, str]]:
    """Structural annihilating polynomial, or None when the syntax gives none.

    No resultant machinery: covers rationals, one quadratic extension,
    square-root towers, sin(pi*rational), rational-coefficient poly roots,
    and rational-affine images of those.
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
        poly = _from_q([u * u - v * v * d, -2 * u, Fraction(1)])
        return poly, "quadratic-field"
    k = e.kind
    if k == E.SINPI and e.children[0].kind == E.RAT:
        return annihilator_sin_pi(e.children[0].rat), "sin-pi-annihilator"
    if k == E.POLYROOT and all(c.kind == E.RAT for c in e.children):
        return _from_q([c.rat for c in e.children]), "poly-root"
    if not kids or kids[0] is None:
        return None
    p = kids[0][0]
    if k == E.SQRT:
        return _compose_square(p), "sqrt-tower"
    left, right = e.children
    on_right = right.kind == E.RAT  # t op a; otherwise a op t
    a = right.rat if on_right else left.rat
    if k == E.ADD:
        poly = _affine_witness(p, Fraction(1), a)
    elif k == E.SUB:
        poly = _affine_witness(p, Fraction(1), -a) if on_right else _affine_witness(p, Fraction(-1), a)
    elif k == E.MUL:
        poly = _affine_witness(p, a, Fraction(0)) if a != 0 else None
    elif on_right:
        poly = _affine_witness(p, 1 / a, Fraction(0))
    else:
        poly = _reciprocal_witness(p, a) if a != 0 and _provably_nonzero(right) else None
    return None if poly is None else (poly, "affine-combination")


# --- exact inequality proofs ----------------------------------------------------

def separates(e: Expr, value: Fraction, im_value: Fraction = Fraction(0)) -> bool:
    """Prove e != value + i*im_value by enclosure disjointness (sound; may fail)."""
    prec = 64
    while prec <= _SEPARATION_CAP:
        try:
            enc = e.eval(prec)
        except (DomainStraddle, MaxPrecision):
            return False
        if not enc.contains_fraction(value, im_value):
            return True
        if enc.width == 0:
            return False  # exact point equal to the value
        prec *= 2
    return False


def _provably_irrational(e: Expr, witness: IntPoly) -> bool:
    if e.kind == E.RAT:
        return False
    flat = quad_flatten(e)
    if flat is not None:
        return flat[1] != 0
    roots = rational_root_scan(witness)
    return all(separates(e, root) for root in roots)


def _provably_nonzero(e: Expr) -> bool:
    if e.kind == E.RAT:
        return e.rat != 0
    flat = quad_flatten(e)
    if flat is not None:
        return flat[0] != 0 or flat[1] != 0
    return separates(e, Fraction(0))


def _provably_not_one(e: Expr) -> bool:
    if e.kind == E.RAT:
        return e.rat != 1
    flat = quad_flatten(e)
    if flat is not None:
        return flat != (Fraction(1), Fraction(0), Fraction(0))
    return separates(e, Fraction(1))


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
            if arg_w is not None and _provably_nonzero(e.arg):
                return Verdict("transcendental", "hermite-lindemann")
        else:
            base_w = algebraic_witness(e.base)
            if (base_w is not None and arg_w is not None
                    and _provably_nonzero(e.base) and _provably_not_one(e.base)
                    and _provably_irrational(e.arg, arg_w[0])):
                return Verdict("transcendental", "gelfond-schneider")
    elif k == E.LOG and e.natural:
        arg_w = algebraic_witness(e.arg)
        if arg_w is not None:
            if e.arg.is_rat(1) and e.branch != 0:
                return Verdict("transcendental", "lindemann")
            if _provably_nonzero(e.arg) and _provably_not_one(e.arg):
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
        return _provably_nonzero(alg)
    return True
