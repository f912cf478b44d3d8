"""IntPoly witnesses, squarefree parts, rational roots, cyclotomic minimal
polynomials, divisors and trial division cross-checked against sympy.

The witness coefficients are written into certificates, so the normal form is
pinned exactly: a witness with rational coefficients is scaled by the least
positive integer that makes it integral, which is what sympy's
`clear_denoms` computes.
"""
from fractions import Fraction as F
from math import ceil, floor, prod

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qx.dyadic import Dyadic
from qx.errors import OutOfDomain
from qx.expr import Context, factor
from qx.interval import CInterval, RInterval
from qx.minpoly import (IntPoly, _cos_2pi_minpoly, _cyclotomic, _divisors,
                        algebraic_witness, rational_root_scan, separates, squarefree_part)

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")
SEL_BITS = 32

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
nonzero_rationals = rationals.filter(lambda a: a != 0)
rational_polys = st.builds(lambda cs, lead: cs + [lead],
                           st.lists(rationals, min_size=1, max_size=4), nonzero_rationals)


def _qq(c) -> sympy.Rational:
    c = F(c)
    return sympy.Rational(c.numerator, c.denominator)


def _sympy_poly(coeffs) -> "sympy.Poly":
    """Constant term first, as qx stores coefficients."""
    return sympy.Poly([_qq(c) for c in reversed(coeffs)], X, domain="QQ")


def _coeffs(poly: "sympy.Poly") -> tuple[int, ...]:
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def _cleared(expr) -> tuple[int, ...]:
    return _coeffs(sympy.Poly(sympy.expand(expr), X, domain="QQ").clear_denoms(convert=True)[1])


def _polyroot(ctx: Context, coeffs):
    """polyroot of coeffs on a dyadic selector around one simple real root, or None."""
    poly = _sympy_poly(coeffs)
    scale = 1 << SEL_BITS
    for (a, b), mult in poly.intervals():
        if mult != 1:
            continue
        if a != b:
            a, b = poly.refine_root(a, b, eps=sympy.Rational(1, scale))
        lo = F(floor(a * scale) - 1, scale)
        hi = F(ceil(b * scale) + 1, scale)
        if poly.count_roots(_qq(lo), _qq(hi)) != 1 or 0 in (poly.eval(_qq(lo)), poly.eval(_qq(hi))):
            continue
        zero = Dyadic.new(0)
        sel = CInterval(RInterval(Dyadic.from_fraction(lo), Dyadic.from_fraction(hi)),
                        RInterval(zero, zero))
        try:
            return ctx.polyroot([ctx.rat(c) for c in coeffs], sel)
        except OutOfDomain:
            continue
    return None


# value of the op on root t and rational a -> (qx expression, composed polynomial in x
# given the witness P of t, as a sympy expression)
OPS = {
    "t+a": (lambda ctx, t, a: ctx.add(t, a), lambda P, n, a: P.subs(X, X - a)),
    "a+t": (lambda ctx, t, a: ctx.add(a, t), lambda P, n, a: P.subs(X, X - a)),
    "t-a": (lambda ctx, t, a: ctx.sub(t, a), lambda P, n, a: P.subs(X, X + a)),
    "a-t": (lambda ctx, t, a: ctx.sub(a, t), lambda P, n, a: (-1) ** n * P.subs(X, a - X)),
    "t*a": (lambda ctx, t, a: ctx.mul(t, a), lambda P, n, a: a ** n * P.subs(X, X / a)),
    "a*t": (lambda ctx, t, a: ctx.mul(a, t), lambda P, n, a: a ** n * P.subs(X, X / a)),
    "t/a": (lambda ctx, t, a: ctx.div(t, a), lambda P, n, a: a ** -n * P.subs(X, a * X)),
    "a/t": (lambda ctx, t, a: ctx.div(a, t), lambda P, n, a: X ** n * P.subs(X, a / X)),
    "sqrt": (lambda ctx, t, a: ctx.sqrt(t), lambda P, n, a: P.subs(X, X ** 2)),
}


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(coeffs=rational_polys, a=nonzero_rationals, op=st.sampled_from(sorted(OPS)))
def test_witnesses_match_sympy_clear_denoms(coeffs, a, op):
    ctx = Context()
    t = _polyroot(ctx, coeffs)
    assume(t is not None)
    assume(op != "a/t" or coeffs[0] != 0)  # a/t needs t provably nonzero
    base, rule = algebraic_witness(t)
    assert rule == "poly-root"
    assert base.coeffs == _cleared(_sympy_poly(coeffs).as_expr())
    build, compose = OPS[op]
    witness, rule = algebraic_witness(build(ctx, t, ctx.rat(a)))
    assert rule in ("affine-combination", "sqrt-tower", "poly-root")
    P = sympy.Poly([int(c) for c in reversed(base.coeffs)], X).as_expr()
    assert witness.coeffs == _cleared(compose(P, base.degree, _qq(a)))


def _composed(coeffs: tuple[int, ...], op: str, a: F) -> tuple[int, ...]:
    """sympy's cleared witness of op applied to a root of the integer polynomial coeffs."""
    P = sympy.Poly([int(c) for c in reversed(coeffs)], X).as_expr()
    return _cleared(OPS[op][1](P, len(coeffs) - 1, _qq(a)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(coeffs=rational_polys,
       steps=st.lists(st.tuples(st.sampled_from(sorted(OPS)), nonzero_rationals),
                      min_size=1, max_size=6))
def test_witness_chains_match_sympy_clear_denoms(coeffs, steps):
    assume(sum(op == "sqrt" for op, _ in steps) <= 4)  # degree at most 4 * 2^4
    ctx = Context()
    t = _polyroot(ctx, coeffs)
    assume(t is not None)
    expected = _cleared(_sympy_poly(coeffs).as_expr())
    for op, a in steps:
        # a/t needs t provably nonzero; a square root of 0 is rational
        assume(op not in ("a/t", "sqrt") or separates(t, F(0)))
        t = OPS[op][0](ctx, t, ctx.rat(a))
        expected = _composed(expected, op, a)
    witness, rule = algebraic_witness(t)
    assert rule in ("affine-combination", "sqrt-tower", "poly-root")
    assert witness.coeffs == expected


def test_reciprocal_of_a_witness_with_root_zero_drops_the_degree():
    ctx = Context()
    t = ctx.sin_pi(F(2, 7))
    base, _ = algebraic_witness(t)
    assert base.degree == 7 and base.coeffs[0] == 0
    witness, rule = algebraic_witness(ctx.div(3, t))
    assert rule == "affine-combination"
    assert witness.degree == 6
    assert witness.coeffs == _composed(base.coeffs, "a/t", F(3))


int_factors = st.builds(lambda cs, lead: IntPoly.new(cs + [lead]),
                        st.lists(st.integers(-6, 6), min_size=1, max_size=3),
                        st.integers(-4, 4).filter(bool))
factored_polys = st.lists(st.tuples(int_factors, st.integers(1, 3)), min_size=1, max_size=4)


def _product(factors) -> IntPoly:
    p = IntPoly((1,))
    for f, mult in factors:
        for _ in range(mult):
            p = p * f
    return p


def _to_sympy_int(p: IntPoly) -> "sympy.Poly":
    return sympy.Poly(list(reversed(p.coeffs)), X, domain="ZZ")


@settings(max_examples=150, deadline=None)
@given(factors=factored_polys)
def test_squarefree_part_matches_sympy(factors):
    p = _product(factors)
    expected = _to_sympy_int(p).sqf_part().primitive()[1]
    if expected.LC() < 0:
        expected = -expected
    assert squarefree_part(p).coeffs == _coeffs(expected)


@settings(max_examples=150, deadline=None)
@given(factors=factored_polys)
def test_rational_root_scan_matches_sympy(factors):
    p = _product(factors)
    roots = set()
    for f, _ in _to_sympy_int(p).factor_list()[1]:
        if f.degree() == 1:
            r = -f.nth(0) / f.nth(1)
            roots.add(F(int(r.p), int(r.q)))
    assert rational_root_scan(p) == sorted(roots)


def test_cyclotomic_matches_sympy():
    # n = 105 is the first with a coefficient outside {-1, 0, 1}
    for n in range(1, 211):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, X), X)
        assert tuple(_cyclotomic(n)) == _coeffs(expected), n


def test_cos_2pi_factors_match_sympy_minimal_polynomial():
    for n in range(1, 65):
        expected = sympy.Poly(sympy.minimal_polynomial(sympy.cos(2 * sympy.pi / n), X), X)
        expected = expected.primitive()[1]
        if expected.LC() < 0:
            expected = -expected
        assert _cos_2pi_minpoly(n).coeffs == _coeffs(expected), n


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(1, 10 ** 9),
                   st.builds(lambda a, p: a * p, st.integers(1, 10 ** 4),
                             st.sampled_from([65537, 65539, 1000003, 2 ** 31 - 1]))))
def test_divisors_match_sympy(n):
    assert _divisors(n) == sympy.divisors(n)
    assert _divisors(-n) == _divisors(n)


def test_divisors_edge_cases():
    assert _divisors(0) == []
    assert _divisors(1) == [1] == sympy.divisors(1)
    assert _divisors(2 ** 32) == [2 ** k for k in range(33)]
    assert _divisors(65537 * 65539) is None  # a rest: its divisors are not known


@settings(max_examples=200, deadline=None)
@given(small=st.lists(st.sampled_from([2, 3, 5, 7, 11, 251, 65521]), max_size=16),
       planted=st.lists(st.sampled_from([65537, 65539, 1000003, 2 ** 31 - 1]), max_size=3))
def test_factor_matches_sympy_up_to_the_trial_bound(small, planted):
    n = prod(small) * prod(planted)
    assume(n <= 2 ** 64)
    expected = {p: e for p, e in sympy.factorint(n).items() if p <= 1 << 16}
    rest = n // prod(p ** e for p, e in expected.items())
    if 1 < rest < 65537 ** 2 and sympy.isprime(rest):  # the loop ran past its square root
        expected[rest], rest = 1, 1
    assert factor(n) == (expected, rest)
