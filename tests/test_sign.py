"""The sign oracle: exact in one quadratic field, enclosures elsewhere, None when undecided.

`decide_sign` is its raising form: NonRealArgument for a proven nonreal value,
MaxPrecision naming the test, the value and the bits for an undecided one.
"""
from fractions import Fraction as F
from itertools import product

import pytest

import qx.expr
from qx.errors import MaxPrecision, NonRealArgument
from qx.expr import Context, decide_sign, quad_flatten, separates, sign

sympy = pytest.importorskip("sympy")

GRID = [F(k, 3) for k in range(-2, 3)]


def _field_value(ctx, u, v, d):
    return ctx.add(ctx.rat(u), ctx.mul(ctx.rat(v), ctx.sqrt(d)))


@pytest.mark.parametrize("d", [2, 3, 5, -1])
def test_sign_over_a_grid_matches_sympy(d):
    ctx = Context()
    for u, v in product(GRID, GRID):
        x = _field_value(ctx, u, v, d)
        if d < 0 and v != 0:
            assert sign(x) is None
            continue
        exact = sympy.Rational(u.numerator, u.denominator) \
            + sympy.Rational(v.numerator, v.denominator) * sympy.sqrt(d)
        assert sign(x) == int(sympy.sign(exact)), (u, v, d)


@pytest.mark.parametrize("d", [2, 3, 5, -1])
def test_an_exact_zero_built_two_ways_has_sign_zero(d):
    ctx = Context()
    for u, v in product(GRID, GRID):
        x = _field_value(ctx, u, v, d)
        # (2u*sqrt(d) + 2v*d) / (2*sqrt(d)) is the same value as a different DAG
        s = ctx.sqrt(d)
        y = ctx.div(ctx.add(ctx.mul(2 * u, s), 2 * v * d), ctx.mul(2, s))
        diff = ctx.sub(x, y)
        assert sign(diff) == 0 and not separates(diff, 0)
        assert separates(x, u + 1)


def test_values_outside_one_quadratic_field_use_enclosures(ctx):
    pi = ctx.pi()
    assert sign(ctx.sub(pi, 3)) == 1
    assert sign(ctx.sub(ctx.sqrt(ctx.add(2, ctx.sqrt(3))), 2)) == -1
    assert separates(pi, 3) and not separates(ctx.sqrt(ctx.sqrt(16)), 2)


def test_an_undecided_zero_is_none_never_zero(ctx):
    # sqrt(2 + sqrt(3)) = (sqrt(6) + sqrt(2)) / 2 mixes two fields: no exact path
    nested = ctx.sqrt(ctx.add(2, ctx.sqrt(3)))
    mixed = ctx.div(ctx.add(ctx.sqrt(6), ctx.sqrt(2)), 2)
    diff = ctx.sub(nested, mixed)
    assert quad_flatten(diff) is None
    assert sign(diff) is None and not separates(diff, 0)


def test_nonreal_values_have_no_sign(ctx):
    assert sign(ctx.sqrt(-2)) is None
    assert sign(ctx.sqrt(ctx.sub(ctx.sqrt(2), 2))) is None
    assert separates(ctx.sqrt(-2), 0)


def test_a_straddle_moves_the_sign_test_on_to_more_bits(ctx):
    # sin(pi/7) - r is about 6e-50: its reciprocal's enclosure divides by one
    # holding 0 until the precision separates the difference from 0
    r = F("0.4338837391175581204757683328483587546099907277874")
    diff = ctx.sub(ctx.sin_pi(F(1, 7)), r)
    assert sign(diff) == 1
    assert sign(ctx.div(1, diff)) == 1 and separates(ctx.div(1, diff), 0)


def test_a_value_proven_nonreal_costs_one_evaluation(ctx):
    x = ctx.add(ctx.sqrt(ctx.sub(ctx.sqrt(2), 2)), ctx.sin_pi(ctx.sqrt(2)))
    assert sign(x) is None
    assert [key for key in ctx._memos if key[0] == "eval"] == [("eval", 64)]
    with pytest.raises(NonRealArgument, match=r"^the test needs a real value, got \(sqrt"):
        decide_sign(x, "the test")


def test_an_undecided_sign_names_the_test_the_value_and_the_bits(ctx):
    nested = ctx.sqrt(ctx.add(2, ctx.sqrt(3)))
    mixed = ctx.div(ctx.add(ctx.sqrt(6), ctx.sqrt(2)), 2)
    with pytest.raises(MaxPrecision, match=r"^the test: .*\(tried 64 to 1024 bits\); "
                                           r"the value is \(sqrt\(\(2 \+ sqrt\(3\)\)\) - "):
        decide_sign(ctx.sub(nested, mixed), "the test")


def test_sign_formats_no_text_for_the_error_it_discards(ctx, monkeypatch):
    calls = []
    text_node = qx.expr._text_node
    monkeypatch.setattr(qx.expr, "_text_node", lambda *a: calls.append(a) or text_node(*a))
    nested = ctx.sqrt(ctx.add(2, ctx.sqrt(3)))
    undecided = ctx.sub(nested, ctx.div(ctx.add(ctx.sqrt(6), ctx.sqrt(2)), 2))
    nonreal = ctx.add(ctx.sqrt(ctx.sub(ctx.sqrt(2), 2)), ctx.sin_pi(ctx.sqrt(2)))
    assert sign(undecided) is None and sign(nonreal) is None
    assert calls == []
    with pytest.raises(MaxPrecision, match=r"; the value is \(sqrt\(\(2 \+ sqrt\(3\)\)\) - "):
        decide_sign(undecided, "the test")
    with pytest.raises(NonRealArgument, match=r"^the test needs a real value, got \(sqrt"):
        decide_sign(nonreal, "the test")
    assert calls
