"""Numeric-kernel tests: exact rationals, dyadics, certified intervals, refine."""
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from math import gcd

import mpmath
import mpmath.libmp.libmpi as libmpi
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import (ComplexResult, finf, fnan, fninf, from_int, from_man_exp, fone, fzero,
                          mpf_abs, mpf_add, mpf_lt, mpf_neg, mpf_sign, mpf_sub, to_rational)
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC

import qx.interval
from qx.cli import main
from qx.dsl import _NumericExecutor, compile_program, parse
from qx.dyadic import Dyadic
from qx.errors import DivisionByZero, DomainStraddle, MaxPrecision
from qx.expr import Context
from qx.exprtext import parse_expr
from qx.geometry import right_anglesect
from qx.interval import (CInterval, RInterval, _bits_for, arcsin_over_pi_complex, asin_interval,
                         escalate, pi_interval, refine, sin_pi_complex, sin_pi_interval)

W33 = F(1, 1 << 33)
W40 = F(1, 1 << 40)
W60 = F(1, 1 << 60)

# frozen 50-digit oracle values (mpmath, dps=60)
SQRT2 = F("1.4142135623730950488016887242096980785696718753769")
SIN_2PI5 = F("0.95105651629515357211643933337938214340569863412575")
PI_MINUS_355_113 = F("-2.6676418906242231237e-7")


def test_rat_arith_examples(ctx):
    # rational operands fold to one exact rational node
    assert ctx.add(F(1, 2), F(1, 3)).rat == F(5, 6)
    assert ctx.mul(F(2, 5), F(5, 2)).rat == F(1)
    with pytest.raises(DivisionByZero):
        ctx.div(F(1, 2), F(0))


def test_rat_arith_canonical_random(ctx):
    ops = {"add": ctx.add, "sub": ctx.sub, "mul": ctx.mul, "div": ctx.div}
    rng = random.Random(7)
    for _ in range(500):
        a = F(rng.randint(-50, 50), rng.randint(1, 50))
        b = F(rng.randint(-50, 50), rng.randint(1, 50))
        op = rng.choice(["add", "sub", "mul", "div"])
        if op == "div" and b == 0:
            continue
        r = ops[op](a, b).rat
        assert r.denominator > 0
        assert gcd(abs(r.numerator), r.denominator) == 1


def test_dyadic_roundtrip_and_order():
    d = Dyadic.new(12, -3)  # 1.5
    assert d.man == 3 and d.exp == -1
    assert Dyadic.from_mpf(d.to_mpf()) == d
    assert Dyadic.new(1, -1) < Dyadic.new(1, 0)
    assert Dyadic.new(-1, 4) < Dyadic.new(0)
    assert Dyadic.new(5, -2).decimal() == "1.25"
    assert Dyadic.new(-3, -1).decimal() == "-1.5"


def test_iv_sqrt_point_two_oracle():
    out = refine(lambda p: CInterval.from_int(2).sqrt(p), W33)
    assert out.width <= W33
    assert out.contains_fraction(SQRT2 + F(1, 10**45)) or out.contains_fraction(SQRT2)


def test_iv_exp_i_pi_contains_minus_one():
    enc = CInterval(RInterval.zero(), pi_interval(80)).exp(80)
    assert enc.contains_fraction(F(-1))


def test_iv_div_straddle_error():
    with pytest.raises(DomainStraddle):
        one = CInterval.from_int(1)
        wide = CInterval.real(RInterval(Dyadic.new(-1), Dyadic.new(1)))
        one.div(wide, 64)


def test_refine_exact_zero_ambiguity():
    # sqrt(2)*sqrt(2) - 2 is exactly 0; either a tiny 0-containing enclosure
    # or MaxPrecision is acceptable, never a claimed nonzero
    def thunk(p):
        s = CInterval.from_int(2).sqrt(p)
        return s.mul(s, p).sub(CInterval.from_int(2), p)
    try:
        out = refine(thunk, W60)
        assert out.contains_zero()
    except MaxPrecision:
        pass


def test_refine_pi_vs_355_113():
    def thunk(p):
        return CInterval.real(pi_interval(p)).sub(CInterval.from_fraction(F(355, 113), p), p)
    out = refine(thunk, F(1, 1 << 20))
    assert not out.contains_zero()
    assert abs(out.re.mid().to_fraction() - PI_MINUS_355_113) < F(1, 10**12)


def test_refine_sin_pi_two_fifths_oracle():
    def thunk(p):
        return CInterval.real(sin_pi_interval(RInterval.from_fraction(F(2, 5), p), p))
    out = refine(thunk, W40)
    assert out.contains_fraction(SIN_2PI5 + F(1, 10**51)) or out.contains_fraction(SIN_2PI5)
    assert out.width <= W40


def test_asin_endpoints_exact():
    full = asin_interval(RInterval.from_int(1), 80)
    half_pi = pi_interval(80).ldexp(-1)
    assert full.lo <= half_pi.hi and half_pi.lo <= full.hi


def _random_interval_expr(rng, depth):
    """Random {+,-,*,/,sqrt} tree as a precision thunk; float shadows guard domains."""
    if depth == 0:
        v = F(rng.randint(-40, 40), rng.randint(1, 20))
        return (lambda p, v=v: CInterval.from_fraction(v, p)), float(v)
    op = rng.choice(["add", "sub", "mul", "div", "sqrt"])
    lf, lv = _random_interval_expr(rng, depth - 1)
    if op == "sqrt":
        if lv < 1e-6:
            return lf, lv
        return (lambda p: lf(p).sqrt(p)), lv**0.5
    rf, rv = _random_interval_expr(rng, depth - 1)
    if op == "div" and abs(rv) < 1e-6:
        return lf, lv
    table = {"add": (CInterval.add, lv + rv), "sub": (CInterval.sub, lv - rv),
             "mul": (CInterval.mul, lv * rv),
             "div": (CInterval.div, lv / rv if rv else 0.0)}
    fn, value = table[op]
    return (lambda p: fn(lf(p), rf(p), p)), value


def test_enclosure_soundness_1000_random():
    rng = random.Random(20260810)
    checked = 0
    while checked < 1000:
        thunk, _ = _random_interval_expr(rng, rng.randint(1, 4))
        try:
            low = thunk(64)
            high = thunk(192)
        except (DomainStraddle, ZeroDivisionError):
            continue
        pad = low.width
        for part in ("re", "im"):
            lo, hi = _bounds(getattr(low, part))
            high_lo, high_hi = _bounds(getattr(high, part))
            assert lo - pad <= high_lo and high_hi <= hi + pad
        checked += 1


def test_monotone_refinement():
    def thunk(p):
        return CInterval.from_int(2).sqrt(p)
    widths = []
    for k in (10, 20, 40, 80):
        widths.append(refine(thunk, F(1, 1 << k)).width)
    assert all(widths[i + 1] <= widths[i] for i in range(len(widths) - 1))


def test_iv_arith_log_branches():
    principal = refine(lambda p: CInterval.from_int(-1).log(0, p), W40)
    assert principal.re.contains_zero()
    pi_enc = pi_interval(96)
    assert principal.im.intersects(pi_enc)
    shifted = refine(lambda p: CInterval.from_int(-1).log(-1, p), W40)
    # -1 branch: i*pi - 2*pi*i = -i*pi
    assert shifted.im.intersects(pi_enc.neg())


def test_iv_arith_pow():
    out = refine(lambda p: CInterval.from_int(2).pow(CInterval.from_int(3), p), W40)
    assert out.contains_fraction(F(8))


def test_iv_arith_sin_pi_and_arcsin_dispatch():
    out = refine(lambda p: sin_pi_complex(CInterval.from_fraction(F(2, 5), 96), p), W40)
    assert out.contains_fraction(SIN_2PI5 + F(1, 10**51)) or out.contains_fraction(SIN_2PI5)
    out = refine(lambda p: arcsin_over_pi_complex(CInterval.from_int(1), p), W40)
    assert out.contains_fraction(F(1, 2))


def test_escalate_moves_past_a_straddle_to_the_first_accepted_precision():
    seen = []

    def thunk(p):
        seen.append(p)
        if p < 256:
            raise DomainStraddle("division by an enclosure containing 0")
        return p

    assert escalate(thunk, lambda p: p if p >= 512 else None, "a test") == 512
    assert seen == [64, 128, 256, 512]


def test_escalate_names_what_the_bits_tried_and_a_persisting_straddle():
    def straddles(p):
        raise DomainStraddle("log of an enclosure containing 0")

    with pytest.raises(MaxPrecision, match=r"^a test: not settled within the precision "
                       r"ceiling of 256 bits \(tried 64 to 256 bits\); a domain straddle "
                       r"persists: log of an enclosure containing 0$"):
        escalate(straddles, lambda v: v, "a test", cap=256)
    with pytest.raises(MaxPrecision, match=r"of 256 bits \(tried 128 to 256 bits\)$"):
        escalate(lambda p: p, lambda v: None, "a test", start=128, cap=256)

    def straddles_at_64(p):
        if p == 64:
            raise DomainStraddle("division by an enclosure containing 0")
        return p

    # a straddle that later precisions got past is not reported
    with pytest.raises(MaxPrecision, match=r"of 256 bits \(tried 64 to 256 bits\)$"):
        escalate(straddles_at_64, lambda v: None, "a test", cap=256)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(min_value=0, max_value=1).filter(lambda w: 0 < w < 1),
                 st.integers(1, 400).map(lambda k: F(1, 1 << k))))
def test_bits_for_is_the_least_b_with_two_to_the_minus_b_within_the_width(w):
    b = _bits_for(w)
    assert F(1, 1 << b) <= w < F(1, 1 << (b - 1))


def test_bits_for_a_decimal_width_is_the_bit_length_of_its_power_of_ten():
    # 10^d is not a power of two, so 2^-b <= 10^-d starts at b = bit_length(10^d)
    assert all(_bits_for(F(1, 10**d)) == (10**d).bit_length() for d in range(1, 1301))


def test_refine_names_a_power_of_two_target_by_its_own_exponent(monkeypatch):
    # 2^-41 starts at 65 bits, past a 64-bit ceiling
    monkeypatch.setenv("QX_PRECISION_CEILING", "64")
    with pytest.raises(MaxPrecision, match=r"^a width of 2\^-41: not settled within the "
                                           r"precision ceiling of 64 bits \(no bits tried\)$"):
        refine(lambda p: CInterval.from_int(2).sqrt(p), F(1, 1 << 41))


@pytest.mark.parametrize("target, start", [(F(1, 10**12), 64), (W40, 64), (F(1, 1 << 60), 84),
                                           (F(1, 10**100), 357)])
def test_refine_starts_at_the_64_bit_working_precision_or_24_bits_past_the_target(target, start):
    tried = []

    def thunk(p):
        tried.append(p)
        return CInterval.from_int(2).sqrt(p)

    refine(thunk, target)
    assert tried[0] == start


def test_precision_ceiling_env(monkeypatch):
    monkeypatch.setenv("QX_PRECISION_CEILING", "64")
    with pytest.raises(MaxPrecision):
        refine(lambda p: CInterval.from_int(2).sqrt(p), F(1, 1 << 128))


def test_iv_arith_raises_at_the_precision_ceiling(monkeypatch):
    monkeypatch.setenv("QX_PRECISION_CEILING", "64")
    with pytest.raises(MaxPrecision):
        refine(lambda p: CInterval.from_int(2).sqrt(p), F(1, 1 << 200))


def _random_dyadic_interval(rng):
    ends = [Dyadic.new(rng.choice([0, rng.randint(-1 << 40, 1 << 40)]), rng.randint(-70, 10))
            for _ in range(2)]
    if rng.random() < 0.2:
        ends[1] = ends[0]
    lo, hi = sorted(ends, key=Dyadic.to_fraction)
    return RInterval(lo, hi)


def _bounds(r):
    return r.lo.to_fraction(), r.hi.to_fraction()


def _exact_hull(op, a, b):
    (alo, ahi), (blo, bhi) = _bounds(a), _bounds(b)
    if op == "add":
        return alo + blo, ahi + bhi
    if op == "sub":
        return alo - bhi, ahi - blo
    if op == "mul":
        corners = [x * y for x in (alo, ahi) for y in (blo, bhi)]
    else:
        corners = [x / y for x in (alo, ahi) for y in (blo, bhi)]
    return min(corners), max(corners)


def test_random_dyadic_ops_enclose_the_exact_result():
    rng = random.Random(90210)
    checked = 0
    while checked < 2000:
        a, b = _random_dyadic_interval(rng), _random_dyadic_interval(rng)
        prec = rng.choice([1, 8, 53, 64, 200])
        op = rng.choice(["add", "sub", "mul", "div", "sqrt_nonneg"])
        if op == "div" and b.contains_zero():
            with pytest.raises(DomainStraddle):
                a.div(b, prec)
            continue
        if op == "sqrt_nonneg":
            a = RInterval(Dyadic.new(0), a.hi) if a.lo.sign < 0 <= a.hi.sign else a
            if a.hi.sign < 0:
                continue
            out = a.sqrt_nonneg(prec)
            lo, hi = _bounds(out)
            alo, ahi = _bounds(a)
            assert (lo <= 0 or lo * lo <= alo) and hi >= 0 and hi * hi >= ahi
        else:
            out = getattr(a, op)(b, prec)
            lo, hi = _bounds(out)
            exact_lo, exact_hi = _exact_hull(op, a, b)
            assert lo <= exact_lo and exact_hi <= hi
        assert lo <= hi
        assert out.width == hi - lo
        checked += 1


def test_eval_builds_no_dyadic(monkeypatch):
    from qx.expr import Context
    calls = []
    for name in ("new", "from_mpf"):
        original = getattr(Dyadic, name)

        def counted(*args, original=original):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(Dyadic, name, staticmethod(counted))
    ctx = Context()
    values = [ctx.sin_pi(F(3, 7)), ctx.exp(2, ctx.sqrt(3)), ctx.ln(5)]
    assert all(v.kind != "rat" for v in values)
    for value in values:
        assert value.enclosure(F(1, 10**1000)).width <= F(1, 10**1000)
    assert calls == []


# --- transcendental ops: one libmp evaluation at the midpoint of a narrow operand ---

_MONOTONE = {"exp": mp.exp, "log_pos": mp.log, "atan": mp.atan, "asin": mp.asin}
_PERIODIC = {"sin": iv.sin, "cos": iv.cos, "sin_pi": lambda x: iv.sin(iv.pi * x)}


def _apply(fn, x, prec):
    if fn == "asin":
        return asin_interval(x, prec)
    if fn == "sin_pi":
        return sin_pi_interval(x, prec)
    return getattr(x, fn)(prec)


def _random_operand(rng, fn, prec):
    """A point, or a radius 2**-k times f's scale: far below, at either side of, or above the
    narrow/wide rule (radius <= 2**-10 * scale); for arcsin also at and across +-1."""
    sign = rng.choice([-1, 1])
    if fn == "log_pos":
        sign = 1
    top = {"exp": 5, "log_pos": 20, "asin": 0}.get(fn, 6)
    c = from_man_exp(sign * (rng.getrandbits(prec) | 1 << (prec - 1)),
                     rng.randint(-20, top) - prec)
    if fn == "asin":
        c = rng.choice([c, from_man_exp(sign * ((1 << prec) - 1), -prec), from_man_exp(sign, 0)])
    scale = {"log_pos": c, "asin": mpf_sub(fone, mpf_abs(c))}.get(fn, fone)
    if scale == fzero:  # arcsin at exactly +-1
        scale = from_man_exp(1, -prec)
    kind = rng.choice(["point", "tiny", "edge", "wide"])
    shift = {"point": None, "tiny": -prec - rng.randint(0, 8), "edge": rng.randint(-11, -9),
             "wide": rng.randint(-8, -1 if fn == "log_pos" else 2)}[kind]
    if shift is None:
        return qx.interval._iv(c, c)
    r = from_man_exp(scale[1], scale[2] + shift)
    return qx.interval._iv(mpf_sub(c, r), mpf_add(c, r))


def _assert_encloses(fn, x, out, prec):
    """The image of x under fn, computed at 2 * prec + 64 bits, lies inside out."""
    lo, hi = mp.make_mpf(out.lo_mpf), mp.make_mpf(out.hi_mpf)
    with mp.workprec(2 * prec + 64):
        a, b = mp.make_mpf(x.lo_mpf), mp.make_mpf(x.hi_mpf)
        if fn in _MONOTONE:
            if fn == "asin":
                a, b = max(a, -1), min(b, 1)
            ref_lo, ref_hi = _MONOTONE[fn](a), _MONOTONE[fn](b)
            slack = mp.ldexp(1, 4 - mp.prec)  # relative error of the reference
            assert lo <= ref_lo - slack * abs(ref_lo) and ref_hi + slack * abs(ref_hi) <= hi, (
                fn, x, out)
            return
        saved = iv.prec
        iv.prec = mp.prec
        try:
            ref = _PERIODIC[fn](iv.mpf([a, b]))
        finally:
            iv.prec = saved
        assert lo <= ref.a and ref.b <= hi, (fn, x, out)


def test_transcendental_ops_enclose_their_image_on_random_operands():
    rng = random.Random(20261018)
    for _ in range(2100):
        fn = rng.choice(["exp", "log_pos", "sin", "cos", "atan", "asin", "sin_pi"])
        prec = rng.choice([53, 53, 64, 64, 128, 200, 400, 1000, 3000])
        x = _random_operand(rng, fn, prec)
        try:
            out = _apply(fn, x, prec)
        except DomainStraddle:
            # 1 - t^2 at an endpoint t within 2**-prec of +-1 rounds to an
            # enclosure of 0; refine retries at a higher precision
            assert fn == "asin" and not x.is_point()
            continue
        _assert_encloses(fn, x, out, prec)
        if x.is_point() and fn != "asin":
            # one evaluation, 2-ulp pad: still tight at prec bits
            assert out.width <= max(abs(out.hi.to_fraction()), 1) * F(1, 2 ** (prec - 2))


def test_transcendental_ops_at_their_exact_points_stay_points():
    zero, one = RInterval.from_int(0), RInterval.from_int(1)
    for prec in (53, 1000):
        assert zero.exp(prec) == one and one.log_pos(prec) == zero
        assert zero.sin(prec) == zero and zero.cos(prec) == one and zero.atan(prec) == zero
        assert zero.cos_sin(prec) == (one, zero)
        assert asin_interval(zero, prec) == zero and sin_pi_interval(zero, prec) == zero


# --- log above libmp's Taylor range: one Newton step on exp ---

# the last prec at which libmp's log takes its Taylor path when m - 1 cancels no bits
_TAYLOR_TOP = LOG_TAYLOR_PREC - 20 - qx.interval._GUARD


def _log_operands(rng, prec):
    """Random positive dyadics, and m = 1 +- (2^-k + a tiny odd tail), where m - 1 cancels
    about k bits, for k far below, near and beyond the working precision, and m/4, where
    libmp counts the bits m/4 - 1/4 cancels; each as a point and with two radii."""
    wp = prec + qx.interval._GUARD
    mids = [from_man_exp(rng.getrandbits(prec) | 1 << (prec - 1) | 1, rng.randint(-40, 40) - prec)
            for _ in range(6)]
    for k in (1, 10, 100, 1000, wp // 2 + 60, wp - 1, wp + 20, wp + 22):
        tail = rng.getrandbits(32) | 1
        for sign in (1, -1):
            for quarter in (0, 2):
                man = (1 << (k + 64)) + sign * ((1 << 64) + tail)
                mids.append(from_man_exp(man, -(k + 64 + quarter)))
    for m in mids:
        yield qx.interval._iv(m, m)
        for shift in (prec + 8, 40):  # a radius of m * 2^-shift, well inside the narrow path
            r = from_man_exp(m[1], m[2] - shift)
            yield qx.interval._iv(mpf_sub(m, r), mpf_add(m, r))


def _assert_tight_log(x, prec):
    """log_pos(x) encloses log over x, computed at 2 * prec + 64 bits, and is no wider
    than 2r/lo + 8 ulp at the working precision."""
    out = x.log_pos(prec)
    lo, hi = qx.interval._fraction(x.lo_mpf), qx.interval._fraction(x.hi_mpf)
    with mp.workprec(2 * prec + 64):
        a, b = mp.log(mp.make_mpf(x.lo_mpf)), mp.log(mp.make_mpf(x.hi_mpf))
        slack = mp.ldexp(1, 4 - mp.prec)  # relative error of the reference
        assert mp.make_mpf(out.lo_mpf) <= a - slack * abs(a), (x, out)
        assert b + slack * abs(b) <= mp.make_mpf(out.hi_mpf), (x, out)
        top = max(abs(a), abs(b))
        ulp = F(2) ** (int(mp.floor(mp.log(top, 2))) + 1 - prec - qx.interval._GUARD)
    assert out.width <= (hi - lo) / lo + 8 * ulp, (x, out)


@pytest.mark.parametrize("prec", [_TAYLOR_TOP - 1, _TAYLOR_TOP, _TAYLOR_TOP + 1, 3354, 6000])
def test_log_pos_encloses_and_stays_tight_on_both_sides_of_libmps_taylor_range(prec):
    rng = random.Random(prec)
    for x in _log_operands(rng, prec):
        _assert_tight_log(x, prec)


@pytest.mark.parametrize("bits", [3354, 6000])
def test_log_refined_above_the_taylor_range_is_certified(monkeypatch, bits):
    monkeypatch.setenv("QX_PRECISION_CEILING", "16384")
    target = F(1, 1 << bits)
    for arg in (F(17, 9), 1 + F(1, 3 << 3000), F(1, 4) + F(1, 10**600)):
        enc = refine(lambda p: CInterval.from_fraction(arg, p).log(0, p), target)
        with mp.workprec(2 * bits + 100):
            ref = mp.log(mp.mpf(arg.numerator) / arg.denominator)
            lo, hi = enc.re.lo_mpf, enc.re.hi_mpf
            assert mp.make_mpf(lo) < ref < mp.make_mpf(hi) and enc.is_real()
        assert enc.width <= target


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("text, kernel, prefix", [
    ("ln(23/7)", "mpf_log", "1.18958406687383638"),
    ("exp(7/5)", "mpf_exp", "4.05519996684467458"),
    ("arcsin_over_pi(3/7)", "mpf_atan", "0.14098296402862390"),
])
def test_one_kernel_evaluation_per_transcendental_op(monkeypatch, text, kernel, prefix):
    calls = []
    original = getattr(libmpi, kernel)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(qx.interval, kernel, counted)
    monkeypatch.setattr(libmpi, kernel, counted)  # inside the mpi_* of wide operands
    code, out = _run(["eval", text, "--precision", "1000"])
    assert code == 0 and out.startswith(prefix)
    assert len(calls) == 1


def _mpf(draw):
    sign = draw(st.sampled_from((1, -1)))
    return from_man_exp(sign * draw(st.integers(0, 2 ** 80)), draw(st.integers(-200, 60)))


@st.composite
def _interval_and_target(draw):
    a, b = _mpf(draw), _mpf(draw)
    iv_ = RInterval.from_mpi((a, b) if mpf_sub(b, a)[0] == 0 else (b, a))
    width = iv_.width
    mode = draw(st.sampled_from(("any", "dyadic", "exact", "near")))
    if mode == "any" or width == 0:
        target = draw(st.fractions(min_value=F(1, 10 ** 60), max_value=10 ** 30))
    elif mode == "dyadic":
        target = F(draw(st.integers(1, 2 ** 64)), 2 ** draw(st.integers(0, 260)))
    elif mode == "exact":
        target = width
    else:
        target = width + F(draw(st.sampled_from((1, -1))), draw(st.integers(2 ** 200, 2 ** 300)))
    if target <= 0:
        target = width
    return iv_, target


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_interval_and_target(), _interval_and_target())
def test_width_at_most_is_the_exact_width_test(re_case, im_case):
    (x, target), (y, _) = re_case, im_case
    assert x.width_at_most(target) == (x.width <= target)
    z = CInterval(x, y)
    assert z.width_at_most(target) == (z.width <= target)


@pytest.mark.parametrize("lo, hi", [(fzero, finf), (fninf, fone), (fninf, finf), (fnan, fnan)],
                         ids=["to-inf", "from-minus-inf", "both", "nan"])
def test_an_infinite_or_nan_endpoint_has_no_exact_value(lo, hi):
    x = RInterval.from_mpi((lo, hi))
    with pytest.raises(ValueError, match="infinite or NaN"):
        x.width
    with pytest.raises(ValueError, match="infinite or NaN"):
        x.contains_fraction(F(0))
    with pytest.raises(ValueError, match="infinite or NaN"):
        CInterval(x, RInterval.zero()).mag_upper()
    assert not x.width_at_most(F(1))
    assert not CInterval(RInterval.zero(), x).width_at_most(F(1))


# --- one kernel value per evaluation: square roots and angles ---------------------------

@st.composite
def _sqrt_operand(draw):
    """A non-negative mpf of up to 4096 bits: odd and even exponents, a mantissa of 1
    (a power of two), an exact square, or zero."""
    kind = draw(st.sampled_from(("any", "power-of-two", "square", "zero")))
    exp = draw(st.integers(-5000, 5000))
    if kind == "zero":
        return fzero
    if kind == "power-of-two":
        return from_man_exp(1, exp)
    man = draw(st.integers(1, 2 ** draw(st.integers(1, 4096))))
    if kind == "square":
        return from_man_exp(man * man, 2 * exp)
    return from_man_exp(man, exp)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(a=_sqrt_operand(), b=_sqrt_operand(), prec=st.integers(8, 4096),
       shape=st.sampled_from(("interval", "point", "negative-low-end")))
def test_sqrt_nonneg_endpoints_are_libmps_mpi_sqrt(a, b, prec, shape):
    if shape == "point":
        b = a
    elif mpf_lt(b, a):
        a, b = b, a
    if shape == "negative-low-end":
        a = mpf_neg(a) if a != fzero else from_man_exp(-1, 0)
    x = RInterval.from_mpi((a, b))
    lo = a if mpf_sign(a) > 0 else fzero
    assert x.sqrt_nonneg(prec).to_mpi() == libmpi.mpi_sqrt((lo, b), prec + qx.interval._GUARD)


@pytest.mark.parametrize("lo, hi", [(-4, -4), (-9, -1), (-1, -1)],
                         ids=["point", "interval", "minus-one"])
def test_sqrt_nonneg_of_a_negative_upper_end_raises_as_libmp_does(lo, hi):
    x = RInterval.from_mpi((from_int(lo), from_int(hi)))
    with pytest.raises(ComplexResult):
        libmpi.mpi_sqrt((fzero, x.hi_mpf), 72)
    with pytest.raises(ComplexResult):  # never the square root of |x|
        x.sqrt_nonneg(64)


def test_sqrt_nonneg_clamps_a_negative_low_end_to_zero():
    x = RInterval.from_mpi((from_int(-4), from_int(9)))
    assert x.sqrt_nonneg(64).to_mpi() == (fzero, from_int(3))


def _exact(value) -> F:
    """An mpmath value as an exact Fraction (its `man_exp` drops the sign)."""
    return F(*to_rational(value._mpf_))


def _sinpi_reference(p: int, q: int, bits: int) -> F:
    with mp.workprec(2 * bits):
        return _exact(mpmath.sinpi(mpmath.mpf(p) / q))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(q=st.integers(1, 64), p=st.integers(-512, 512), bits=st.sampled_from([64, 200, 1000]))
def test_sin_pi_of_a_rational_encloses_mpmath_and_meets_its_width(q, p, bits):
    p = max(-8 * q, min(8 * q, p))
    enc = Context().sin_pi(F(p, q)).eval(bits)
    assert enc.is_real() and enc.width <= F(1, 1 << bits)
    # the reference rounds p/q first, which moves it by up to 2^(3 - 2*bits)
    tol = F(1, 1 << (2 * bits - 8))
    ref = _sinpi_reference(p, q, bits)
    assert enc.re.lo.to_fraction() - tol <= ref <= enc.re.hi.to_fraction() + tol


def _count_cos_sin(monkeypatch) -> list[int]:
    """The precision of every RInterval.cos_sin call from now on."""
    calls = []
    original = RInterval.cos_sin
    monkeypatch.setattr(RInterval, "cos_sin",
                        lambda x, prec: calls.append(prec) or original(x, prec))
    return calls


@pytest.mark.parametrize("u, v", [(1, 2), (2, 1), (3, 4), (5, 2), (1, 1)])
def test_an_ra_point_takes_both_coordinates_from_one_cos_sin_per_precision(monkeypatch, u, v):
    ctx = Context()
    point = right_anglesect(ctx, ctx.rat(u), ctx.rat(v))
    calls = _count_cos_sin(monkeypatch)
    for prec in (64, 128, 64):
        point.x.eval(prec)
        point.y.eval(prec)
    assert calls == [64, 128] or (u == v and calls == [])  # ra(1, 1) folds to sqrt(1/2)


@pytest.mark.parametrize("n", [2, 5, 12])  # clavius_x(1) is 1/2: its two sines are one node
def test_clavius_x_makes_one_cos_sin_per_precision(monkeypatch, n):
    ctx = Context()
    x = parse_expr(f"clavius_x({n})", ctx)
    calls = _count_cos_sin(monkeypatch)
    x.eval(100)
    x.eval(200)
    assert calls == [100, 200]


def test_the_round_trip_computes_an_ra_point_from_one_cos_sin(monkeypatch):
    result = compile_program(parse("let p = ra(2, 5);\nemit p;\n"))
    calls = _count_cos_sin(monkeypatch)
    ex = _NumericExecutor(64)
    ex.run(result.steps)
    assert calls == [64]
    x, y = ex.env["p"][1].re, ex.env["p"][2].re
    with mp.workprec(200):  # ra(2, 5): the angle is pi/2 * 2/7
        t = mpmath.mpf(1) / 7
        for enc, ref in ((x, mpmath.cospi(t)), (y, mpmath.sinpi(t))):
            assert enc.lo.to_fraction() <= _exact(ref) <= enc.hi.to_fraction()
