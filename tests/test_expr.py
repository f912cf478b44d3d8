"""Expression-DAG tests: folding, dedup, tower tags, Euler bridge, rewrites."""
import random
from fractions import Fraction as F
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qx.expr as expr_mod
from qx.dyadic import Dyadic
from qx.errors import (DivisionByZero, InvalidBase, NonRealArgument, OutOfDomain)
from qx.expr import Context, TowerTag, quad_flatten, to_text, tower
from qx.exprtext import parse_expr
from qx.interval import CInterval, RInterval

W40 = F(1, 1 << 40)

# frozen oracle values (mpmath, dps=60)
COS_PI_SQRT2 = F("-0.266255342041415488608932606917")
SIN_PI_SQRT2 = F("-0.96390253284987733028833685528")
ASIN13_OVER_PI = F("0.1081734479693927298291444407775690886833713505606")
E_TO_PI = F("23.1406926327792690057290863679")
THREE_TO_SQRT2 = F("4.72880438783741494789428334042")


def near(enc, value, tol=F(1, 10**9)):
    return abs(enc.re.mid().to_fraction() - value) < tol


def test_constant_folding(ctx):
    assert to_text(ctx.add(F(1, 2), F(1, 3))) == "5/6"
    assert ctx.mul(F(2, 5), F(5, 2)).is_rat(1)
    with pytest.raises(DivisionByZero):
        ctx.div(1, 0)


def test_sqrt_perfect_square_folds(ctx):
    assert ctx.sqrt(F(9, 4)).is_rat(F(3, 2))
    assert ctx.sqrt(16).is_rat(4)
    assert ctx.sqrt(2).kind == "sqrt"


def test_exp_base_guards(ctx):
    with pytest.raises(InvalidBase):
        ctx.exp(ctx.rat(0), ctx.sqrt(2))
    with pytest.raises(InvalidBase):
        ctx.exp(ctx.rat(1), ctx.sqrt(2))
    with pytest.raises(InvalidBase):
        ctx.log(ctx.rat(1), ctx.rat(3))


def test_dedup_pointer_identity(ctx):
    a = ctx.add(ctx.sqrt(2), F(1, 2))
    b = ctx.add(ctx.sqrt(2), F(1, 2))
    assert a is b
    assert ctx.sqrt(2) is ctx.sqrt(2)


def test_tower_tags_examples(ctx):
    s2 = ctx.sqrt(2)
    assert tower(s2) == (1, 1, 1, 1)
    gs = tower(ctx.exp(ctx.rat(-1), s2))
    assert gs.s == 2 and gs.sa == 2 and gs.el == 2
    assert gs.a is None
    assert tower(ctx.rat(F(5, 7))) == TowerTag(0, 0, 0, 0)
    assert tower(ctx.pi()).el is None  # no syntactic witness over an algebraic base
    assert tower(ctx.e()).el is None


def _random_dag(ctx, rng, depth):
    if depth == 0:
        return ctx.rat(F(rng.randint(-9, 9), rng.randint(1, 9)))
    op = rng.choice(["add", "sub", "mul", "sqrt", "sinpi", "exp"])
    a = _random_dag(ctx, rng, depth - 1)
    if op == "sqrt":
        return ctx.sqrt(a)
    if op == "sinpi":
        enc = a.eval(64)
        if not enc.im.contains_zero():
            return a
        return ctx.sin_pi(a)
    if op == "exp":
        return ctx.exp(ctx.rat(-1), a)
    b = _random_dag(ctx, rng, depth - 1)
    return getattr(ctx, op)(a, b)


def test_tag_monotonicity_random(ctx):
    rng = random.Random(99)
    for _ in range(200):
        e = _random_dag(ctx, rng, rng.randint(1, 4))
        for node in e.walk():
            for child in node.children:
                assert _tag_ok(node, child)


def _tag_ok(node, child):
    # dominance must hold levelwise with top absorbing
    def ge(x, y):
        return x is None or (y is not None and x >= y)
    t, c = tower(node), tower(child)
    return ge(t.s, c.s) and ge(t.a, c.a) and ge(t.sa, c.sa) and ge(t.el, c.el)


def test_sin_pi_folds_and_oracle(ctx):
    assert ctx.sin_pi(F(1, 2)).is_rat(1)
    assert ctx.sin_pi(F(1, 6)).is_rat(F(1, 2))
    assert ctx.sin_pi(F(-1, 2)).is_rat(-1)
    node = ctx.sin_pi(F(2, 5))
    assert node.kind == "sin_pi"
    assert near(node.enclosure(W40), F("0.95105651629515357211643933337938214340569863412575"))


def test_sin_pi_nonreal_rejected(ctx):
    with pytest.raises(NonRealArgument):
        ctx.sin_pi(ctx.i())


def test_a_real_argument_not_proven_real_is_reported_as_such(ctx):
    # (pow(-1, 1/3) + pow(-1, -1/3))/2 is exactly 1/2, but its imaginary
    # enclosure is not the point 0
    half = ctx.div(ctx.add(ctx.exp(ctx.rat(-1), F(1, 3)), ctx.exp(ctx.rat(-1), F(-1, 3))), 2)
    with pytest.raises(NonRealArgument, match="is not proven real$"):
        ctx.arcsin_over_pi(half)
    with pytest.raises(NonRealArgument, match="requires a real argument, got sqrt"):
        ctx.arcsin_over_pi(ctx.sqrt(-3))


def test_arcsin_examples(ctx):
    assert ctx.arcsin_over_pi(1).is_rat(F(1, 2))
    assert near(ctx.arcsin_over_pi(F(1, 3)).enclosure(W40), ASIN13_OVER_PI)
    with pytest.raises(OutOfDomain):
        ctx.arcsin_over_pi(2)
    assert ctx.arcsin_over_pi(ctx.div(1, ctx.sqrt(2))).is_rat(F(1, 4))
    assert ctx.arcsin_over_pi(ctx.div(ctx.sqrt(3), 2)).is_rat(F(1, 3))
    assert ctx.arcsin_over_pi(ctx.div(ctx.mul(-1, ctx.sqrt(3)), 2)).is_rat(F(-1, 3))


def test_euler_split_examples(ctx):
    ef = ctx.euler_split(ctx.rat(1))
    assert ef.cos_part.is_rat(-1) and ef.sin_part.is_rat(0)
    ef = ctx.euler_split(ctx.rat(F(1, 2)))
    assert ef.cos_part.is_rat(0) and ef.sin_part.is_rat(1)
    ef = ctx.euler_split(ctx.sqrt(2))
    assert near(ef.cos_part.enclosure(W40), COS_PI_SQRT2)
    assert near(ef.sin_part.enclosure(W40), SIN_PI_SQRT2)
    # cos^2 + sin^2 encloses 1
    s = ctx.add(ctx.mul(ef.cos_part, ef.cos_part), ctx.mul(ef.sin_part, ef.sin_part))
    assert s.enclosure(W40).contains_fraction(F(1))


def test_euler_bridge_random_100(ctx):
    rng = random.Random(1882)
    for _ in range(100):
        x = F(rng.randint(-40, 40), rng.randint(1, 20))
        lhs = ctx.exp(ctx.rat(-1), ctx.rat(x))
        ef = ctx.euler_split(ctx.rat(x))
        rhs = ctx.add(ef.cos_part, ctx.mul(ctx.i(), ef.sin_part))
        assert lhs.enclosure(W40).intersects(rhs.enclosure(W40))


def test_rewrite_elprop_examples(ctx):
    s2 = ctx.sqrt(2)
    p = ctx.exp(ctx.rat(3), s2)
    rw = ctx.rewrite_elprop(p)
    assert to_text(rw) == "pow(-1, (sqrt(2) * log(3; -1; 0)))"
    assert near(rw.enclosure(W40), THREE_TO_SQRT2)
    assert p.enclosure(W40).intersects(rw.enclosure(W40))

    l28 = ctx.log(ctx.rat(2), ctx.rat(8), 0)
    rl = ctx.rewrite_elprop(l28)
    assert to_text(rl) == "(log(8; -1; 0) / log(2; -1; 0))"
    assert rl.enclosure(W40).contains_fraction(F(3))

    gelfond = ctx.exp(ctx.rat(-1), ctx.mul(ctx.rat(-1), ctx.i()))
    assert ctx.rewrite_elprop(gelfond) is gelfond
    assert near(gelfond.enclosure(W40), E_TO_PI)


def test_elprop_closure_random_50(ctx):
    rng = random.Random(1934)
    done = 0
    while done < 50:
        x = F(rng.randint(-20, 20), rng.randint(1, 10))
        y = F(rng.randint(-12, 12), rng.randint(1, 6))
        if x in (0, 1) or y in (0, 1):
            continue
        lhs = ctx.exp(ctx.rat(x), ctx.rat(y))
        rhs = ctx.rewrite_elprop(lhs)
        assert lhs.enclosure(W40).intersects(rhs.enclosure(W40))
        done += 1


def test_quad_flatten(ctx):
    golden = ctx.div(ctx.add(1, ctx.sqrt(5)), 2)
    assert quad_flatten(golden) == (F(1, 2), F(1, 2), F(5))
    assert quad_flatten(ctx.mul(ctx.sqrt(2), ctx.sqrt(8)))[1] == 0
    assert quad_flatten(ctx.add(ctx.sqrt(2), ctx.sqrt(3))) is None
    assert quad_flatten(ctx.sqrt(F(8, 9))) == (F(0), F(2, 3), F(2))


def test_serialization_roundtrip(ctx):
    exprs = [
        ctx.sqrt(2),
        ctx.exp(ctx.rat(-1), ctx.sqrt(2)),
        ctx.sin_pi(F(2, 5)),
        ctx.arcsin_over_pi(F(1, 3)),
        ctx.log(ctx.rat(2), ctx.rat(8), 0),
        ctx.ln(ctx.rat(-1)),
        ctx.pi(),
        ctx.e(),
        ctx.div(ctx.add(1, ctx.sqrt(5)), 2),
        ctx.polyroot([ctx.rat(-2), ctx.rat(0), ctx.rat(1)],
                     CInterval.real(RInterval.from_int(1).hull(RInterval.from_int(2)))),
    ]
    for e in exprs:
        assert parse_expr(to_text(e), ctx) is e


def test_polyroot_cube_root_two(ctx):
    sel = CInterval.real(RInterval.from_int(1).hull(RInterval.from_int(2)))
    r = ctx.polyroot([ctx.rat(-2), ctx.rat(0), ctx.rat(0), ctx.rat(1)], sel)
    enc = r.enclosure(W40)
    assert near(enc, F("1.2599210498948731647672106072782283505702514647015"))
    assert tower(r).el == 1 and tower(r).s is None


def test_polyroot_rejects_bad_selector(ctx):
    sel = CInterval.real(RInterval.from_int(3).hull(RInterval.from_int(4)))
    with pytest.raises(OutOfDomain):
        ctx.polyroot([ctx.rat(-2), ctx.rat(0), ctx.rat(1)], sel)


def _encloses(enc, value, tol=F(0)):
    """lo <= value <= hi up to tol, for an mpmath value compared exactly."""
    man, exp = value.man_exp
    v = F(man) * F(2) ** exp
    return enc.re.lo.to_fraction() - tol <= v <= enc.re.hi.to_fraction() + tol


def _selector(lo=1, hi=2):
    return CInterval.real(RInterval(Dyadic.from_fraction(F(lo)), Dyadic.from_fraction(F(hi))))


@pytest.mark.parametrize("text, exact, digits", [
    ("polyroot(-2, 0, 0, 1; 1, 2)", lambda: mpmath.cbrt(2), 1000),
    ("polyroot(-sqrt(2), 0, 0, 1; 1, 2)", lambda: mpmath.root(2, 6), 1000),
    ("polyroot(-9, 3, 0, 1; 1, 2)", lambda: mpmath.findroot(lambda x: x**3 + 3 * x - 9, 1.6), 1200),
])
def test_polyroot_agrees_with_mpmath_at_1000_digits(ctx, monkeypatch, text, exact, digits):
    # 1200 digits start at 4011 bits; a retry at twice that would pass the default ceiling
    monkeypatch.setenv("QX_PRECISION_CEILING", "8192")
    enc = parse_expr(text, ctx).enclosure(F(1, 10**digits))
    assert enc.is_real() and enc.width <= F(1, 10**digits)
    with mpmath.workdps(2 * digits):
        assert _encloses(enc, exact(), F(1, 10**(2 * digits - 10)))


@settings(max_examples=40, deadline=None)
@given(a=st.fractions(min_value=-2, max_value=30, max_denominator=7),
       t=st.integers(min_value=1, max_value=63),
       bits=st.sampled_from([64, 200, 700]))
def test_polyroot_cubic_enclosure_contains_root_and_meets_width(a, t, bits):
    # x^3 + a*x - b has its one root in (1, 2) when 1 + a < b < 8 + 2a, a >= -2
    b = 1 + a + (7 + a) * F(t, 64)
    ctx = Context()
    r = ctx.polyroot([ctx.rat(-b), ctx.rat(a), ctx.rat(0), ctx.rat(1)], _selector())
    enc = r.eval(bits)
    assert enc.width <= F(1, 1 << bits)
    with mpmath.workdps(2 * bits // 3 + 20):
        a_, b_ = mpmath.mpf(a.numerator) / a.denominator, mpmath.mpf(b.numerator) / b.denominator
        root = mpmath.findroot(lambda x: x**3 + a_ * x - b_, mpmath.mpf(2))
        assert _encloses(enc, root, F(1, 1 << (2 * bits)))


def test_polyroot_wide_selector_encloses_root(ctx):
    r = ctx.polyroot([ctx.rat(-2), ctx.rat(0), ctx.rat(0), ctx.rat(1)], _selector(F(1, 2), 8))
    enc = r.eval(300)
    assert enc.width <= F(1, 1 << 300)
    with mpmath.workdps(200):
        assert _encloses(enc, mpmath.cbrt(2), F(1, 1 << 600))


def _two(ctx):
    """2 as a node that is not rational, so a polyroot over it takes the interval Newton."""
    return ctx.mul(ctx.sqrt(2), ctx.sqrt(2))


def test_polyroot_bisection_fallback_encloses_root(ctx, monkeypatch):
    # x^2 - (2 - e)x + 1/2 with e = 2^-80/3: at 64 bits the enclosure of
    # c1 contains -2, so F'([1, 2]) = 2[1, 2] + c1 contains 0 and the first
    # step must bisect; the 96-bit isolation check still separates it
    c1 = F(-2) + F(1, 3 << 80)
    r = ctx.polyroot([ctx.div(1, _two(ctx)), ctx.rat(c1), ctx.rat(1)], _selector())
    signs = []
    point_sign = expr_mod._point_sign
    monkeypatch.setattr(expr_mod, "_point_sign", lambda *a: signs.append(a) or point_sign(*a))
    enc = r.eval(64)
    assert len(signs) > 1  # the low-end sign plus at least one bisection step
    assert enc.width <= F(1, 1 << 64)
    with mpmath.workdps(80):
        c = mpmath.mpf(c1.numerator) / c1.denominator
        assert _encloses(enc, (-c + mpmath.sqrt(c * c - 2)) / 2, F(1, 1 << 200))


def _horner_precisions(monkeypatch) -> list[int]:
    """The precision of every _horner call from now on."""
    precisions = []
    horner = expr_mod._horner
    monkeypatch.setattr(expr_mod, "_horner",
                        lambda coeffs, x, prec: precisions.append(prec) or horner(coeffs, x, prec))
    return precisions


def test_polyroot_newton_needs_few_horner_calls(ctx, monkeypatch):
    r = ctx.polyroot([ctx.mul(-1, _two(ctx)), ctx.rat(0), ctx.rat(0), ctx.rat(1)], _selector())
    precisions = _horner_precisions(monkeypatch)
    enc = r.eval(3354)  # the working precision of 1000 digits; bisection took ~3400 calls
    assert enc.width <= F(1, 1 << 3354)
    assert len(precisions) <= 64
    # each step runs at twice the bits of the width it starts from: the sign at the
    # selector's low end and the last step alone take all 3354 (23 calls at one precision)
    assert precisions.count(3354) <= 4
    # a root near 2^100: the step's bits count from the root's magnitude, so no more calls
    # than with every step at 3354 (29); the width stops near 2^(100 - 3354), and the last
    # calls, which cannot halve it, run at 3354
    r = ctx.polyroot([ctx.mul(-10**90, _two(ctx)), ctx.rat(0), ctx.rat(0), ctx.rat(1)],
                     _selector(10**30, 2 * 10**30))
    precisions.clear()
    enc = r.eval(3354)
    assert enc.width <= F(1, 1 << (3354 - 110))
    assert len(precisions) <= 29 and precisions.count(3354) <= 9


# the three polyroots above with rational coefficients: x^2 - (2 - e)x + 1/2 at 64 bits,
# x^3 - 2 and x^3 - 2*10^90 at 3354, (x - a)(x - a - d) scaled at 3354
_NEAR_A, _NEAR_D = F(4, 3), F(1, 3 << 40)


def _bisection_root():
    b = 1 - mpmath.mpf(1) / (3 << 81)  # half of 2 - e
    return b + mpmath.sqrt(b * b - mpmath.mpf(1) / 2)


RATIONAL_ROOTS = [
    ([F(1, 2), F(-2) + F(1, 3 << 80), 1], (1, 2), 64, _bisection_root),
    ([-2, 0, 0, 1], (1, 2), 3354, lambda: mpmath.cbrt(2)),
    ([-2 * 10**90, 0, 0, 1], (10**30, 2 * 10**30), 3354,
     lambda: mpmath.cbrt(2 * mpmath.mpf(10) ** 90)),
] + [([scale * _NEAR_A * (_NEAR_A + _NEAR_D), -scale * (2 * _NEAR_A + _NEAR_D), scale],
      (F(int((_NEAR_A + 3 * _NEAR_D / 4) * 2**60), 2**60), 2), 3354,
      lambda: mpmath.mpf(4) / 3 + mpmath.mpf(1) / (3 << 40))
     for scale in (F(1), F(10**30), F(1, 10**30))]


@pytest.mark.parametrize("coeffs, bounds, bits, root", RATIONAL_ROOTS,
                         ids=["bisection", "cube-root", "large-root", "next-to-a-root",
                              "next-to-a-root-scaled-up", "next-to-a-root-scaled-down"])
def test_a_rational_polyroot_takes_integer_newton_and_no_horner_call(monkeypatch, coeffs, bounds,
                                                                     bits, root):
    ctx = Context()
    r = ctx.polyroot([ctx.rat(c) for c in coeffs], _selector(*bounds))
    precisions = _horner_precisions(monkeypatch)
    enc = r.eval(bits)
    assert precisions == []
    assert enc.width <= F(1, 1 << bits)
    with mpmath.workdps(bits // 3 * 2 + 40):
        assert _encloses(enc, root())


def test_a_rational_polyroot_whose_integer_bracket_fails_takes_the_interval_newton(ctx,
                                                                                   monkeypatch):
    # the selector starts 2^-71 or less below sqrt(2), and Newton converges from
    # above: at 64 bits the integer bracket, 2^-70 either side of the root, leaves
    # the selector, and the interval Newton encloses the root as it always has
    lo = F(isqrt(2 << 142), 1 << 71)
    r = ctx.polyroot([ctx.rat(-2), ctx.rat(0), ctx.rat(1)], _selector(lo, 2))
    brackets = []
    integer_root = expr_mod._integer_root
    monkeypatch.setattr(expr_mod, "_integer_root",
                        lambda *a: brackets.append(integer_root(*a)) or brackets[-1])
    precisions = _horner_precisions(monkeypatch)
    enc = r.eval(64)
    assert brackets == [None] and precisions
    assert enc.width <= F(1, 1 << 64) and enc.re.lo.to_fraction() >= lo
    with mpmath.workdps(60):
        assert _encloses(enc, mpmath.sqrt(2))


@pytest.mark.parametrize("scale", [F(1), F(10**30), F(1, 10**30)])
def test_polyroot_next_to_a_second_root_takes_no_more_horner_calls(monkeypatch, scale):
    # (x - a)(x - a - d), d < 2^-40, scaled: F' is about d at the root, so a step at
    # reduced precision can fail to halve the width and is retried at full precision
    a, d = F(4, 3), F(1, 3 << 40)
    ctx = Context()
    coeffs = [ctx.rat(scale * a * (a + d)), ctx.rat(-scale * (2 * a + d)),
              ctx.mul(scale / 2, _two(ctx))]
    lo = F(int((a + 3 * d / 4) * 2**60), 2**60)  # between the two roots
    r = ctx.polyroot(coeffs, _selector(lo, 2))
    precisions = _horner_precisions(monkeypatch)
    enc = r.eval(3354)
    assert len(precisions) <= 87  # the count with every step at the full 3354 bits
    with mpmath.workdps(2100):
        # coefficient enclosures 2^-3362 wide move the root by up to 2^-3362 * |c| / F'
        assert _encloses(enc, mpmath.mpf(4) / 3 + mpmath.mpf(1) / (3 << 40))
    # coefficients under 1 are enclosed at as many more bits as they are small, so
    # every scale ends about as narrow as the unscaled 2^35 * 2^-3354
    assert enc.width <= F(1, 1 << (3354 - 40))


def test_log_branch_values(ctx):
    ln_m1 = ctx.ln(ctx.rat(-1))
    enc = ln_m1.enclosure(W40)
    assert enc.re.contains_zero()
    assert near(CInterval.real(enc.im), F("3.14159265358979323846264338327950288419716939937511"))
    shifted = ctx.ln(ctx.rat(-1), branch=-1)
    enc2 = shifted.enclosure(W40)
    assert near(CInterval.real(enc2.im), F("-3.14159265358979323846264338327950288419716939937511"))


def _halving_tower(ctx, levels):
    """x -> (x + x)/2 from 1 + sqrt(2): two nodes a level, 2^levels paths from the top."""
    x = ctx.add(1, ctx.sqrt(2))
    for _ in range(levels):
        x = ctx.div(ctx.add(x, x), 2)
    return x


def test_every_pass_is_linear_in_unique_nodes_of_a_shared_dag(ctx):
    from qx.ladders import linear_decompose
    from qx.minpoly import transcendence_rules

    x = _halving_tower(ctx, 60)
    assert sum(1 for _ in x.walk()) == 124
    assert quad_flatten(x) == (1, 1, 2)
    verdict = transcendence_rules(x)
    assert (verdict.status, verdict.rule) == ("algebraic", "quadratic-field")
    assert linear_decompose(x) == {None: 1, ctx.sqrt(2): 1}
    assert ctx.euler_expand(x) is x
    assert ctx.rewrite_elprop(x) is x
    enc = x.eval(211)  # a precision no construction step used
    assert enc.width < F(1, 1 << 190)
    assert enc.intersects(ctx.add(1, ctx.sqrt(2)).eval(211))


def _fraction_constructions(monkeypatch) -> list:
    """Record every call of Fraction.__new__ from now on."""
    calls, original = [], F.__new__

    def spy(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)
    monkeypatch.setattr(F, "__new__", staticmethod(spy))
    return calls


def test_a_rational_hit_and_is_rat_build_no_fraction(monkeypatch):
    ctx = Context()
    assert len(ctx._table) == 1  # the session base -1
    h = F(3, 2)
    three, half3, minus1 = ctx.rat(3), ctx.rat(h), ctx.rat(-1)
    s = ctx.sqrt(2)
    assert len(ctx._table) == 5  # -1, 3, 3/2, 2 and sqrt(2)
    calls = _fraction_constructions(monkeypatch)
    assert ctx.rat(3) is three and ctx.rat(h) is half3 and ctx.rat(-1) is minus1
    assert minus1 is ctx.base
    assert three.is_rat(3) and not three.is_rat(0) and not three.is_rat(1)
    assert ctx.rat(0).is_rat(0) and ctx.rat(1).is_rat(1)
    assert not s.is_rat(0) and not s.is_rat(1)
    assert calls == [(0,), (1,)]  # only the two new rationals 0 and 1
    assert len(ctx._table) == 7
    assert ctx.rat(0.5) is ctx.rat(F(1, 2)) is ctx.rat("2/4")
    assert ctx.rat(True) is ctx.rat(1) and ctx.rat(F(6, 2)) is three
    assert type(three.rat) is F and three.rat == 3 and half3.rat == F(3, 2)
    assert tower(three) == tower(ctx.rat(F(5, 7))) == TowerTag(0, 0, 0, 0)
    assert len(ctx._table) == 9  # and 1/2, 5/7


@pytest.mark.parametrize("text, rewritten", [
    ("sin_pi(pow(2, 1/3))", "sin_pi(pow(-1, (1/3 * log(2; -1; 0))))"),
    ("arcsin_over_pi(pow(3, -1/2))", "arcsin_over_pi(pow(-1, (-1/2 * log(3; -1; 0))))"),
    ("polyroot(-pow(4, 1/2), 0, 1; 1, 2)",
     "polyroot((-1 * pow(-1, (1/2 * log(4; -1; 0)))), 0, 1; 1, 2, 0, 0)"),
], ids=["sin_pi", "arcsin_over_pi", "polyroot"])
def test_rewrite_elprop_changes_the_base_inside_sin_pi_arcsin_and_polyroot(ctx, text, rewritten):
    e = parse_expr(text, ctx)
    rw = ctx.rewrite_elprop(e)
    assert to_text(rw) == rewritten
    assert e.enclosure(W40).intersects(rw.enclosure(W40))


def test_euler_expand_writes_arcsin_over_pi_as_a_base_minus_one_log(ctx):
    rw = ctx.euler_expand(parse_expr("arcsin_over_pi(1/3)", ctx))
    assert to_text(rw) == "log(((sqrt(-1) * 1/3) + sqrt(8/9)); -1; 0)"
    assert near(rw.enclosure(W40), ASIN13_OVER_PI)


def _computed_nodes(monkeypatch) -> list:
    """Record every node Expr._compute evaluates from now on."""
    nodes, original = [], expr_mod.Expr._compute
    monkeypatch.setattr(expr_mod.Expr, "_compute",
                        lambda self, prec, kids: nodes.append(self) or original(self, prec, kids))
    return nodes


def test_interning_nested_radicals_computes_no_node(monkeypatch):
    nodes = _computed_nodes(monkeypatch)
    ctx = Context()
    e = ctx.sqrt(ctx.add(ctx.sqrt(2), ctx.sqrt(3)))
    ctx.sqrt(ctx.sub(ctx.sqrt(e), 1))
    assert nodes == []
    assert tower(e) == (2, 2, 2, 1)
    assert nodes  # the first evaluation is the tag's sign test of sqrt(2) + sqrt(3)


@pytest.mark.parametrize("k", range(1, 33))
def test_the_tower_memo_holds_exactly_the_nodes_under_the_emits_of_a_bisection_chain(k):
    from qx.dsl import compile_program, parse

    lines = ["let p0 = ra(3, 4);"] + [f"let p{i} = bisect(p{i - 1});" for i in range(1, k + 1)]
    result = compile_program(parse("\n".join(lines + [f"emit p{k};"])))
    values = [result.values[name] for name in sorted(result.values)]
    assert [tower(v) for v in values] == [(k + 1, None, k + 1, 1)] * 2
    memo = result.ctx._memos["tower"]
    assert set(memo) == set(expr_mod.post_order(values))
    assert len(memo) == 7 * k + 5


def test_compiling_the_corpus_computes_no_more_nodes_than_with_eager_tags(monkeypatch, capsys):
    from pathlib import Path

    from qx.cli import main

    nodes = _computed_nodes(monkeypatch)
    for path in sorted((Path(__file__).parent / "corpus").glob("*.qdx")):
        assert main(["compile", str(path)]) == 0
    capsys.readouterr()
    assert len(nodes) <= 95  # 95 when every interned sqrt ran its sign test
