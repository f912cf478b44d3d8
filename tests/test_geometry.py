"""Geometry tests: intersections, proportionals, anglesectors, curve probes."""
import random
from fractions import Fraction as F

import pytest

from qx.errors import (Coincident, DegenerateSecant, MaxPrecision, NoIntersection,
                       NonPositiveLength, NotOnUnitCircle, OutOfRange)
from qx.expr import Context, Expr, to_text
from qx.geometry import (GPoint, UnitPoint, bisect, circle, clavius_point, fourth_proportional,
                         general_anglesect, intersect, line, mean_proportional,
                         quadratrix_x_of_y, reverse_anglesect, right_anglesect,
                         spiral_point, spiral_probe_report, spiral_secant_cut)
from qx.interval import CInterval, pi_interval

W40 = F(1, 1 << 40)

COT_PI8_OVER_4 = F("0.603553390593273762200422181052")
TWO_ASIN13_OVER_PI = F("0.216346895938785459658288881555")
PI_OVER_12 = F("0.261799387799149436538553615273")


def near(e, value, tol=F(1, 10**9)):
    return abs(e.enclosure(W40).re.mid().to_fraction() - value) < tol


def _pt(ctx, x, y):
    return GPoint(ctx.rat(x), ctx.rat(y))


def test_line_line(ctx):
    l1 = line(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 1))
    l2 = line(ctx, _pt(ctx, 0, 2), _pt(ctx, 2, 0))
    (p,) = intersect(ctx, l1, l2)
    assert p.x.is_rat(1) and p.y.is_rat(1)


def test_line_line_parallel_and_coincident(ctx):
    l1 = line(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 0))
    l2 = line(ctx, _pt(ctx, 0, 1), _pt(ctx, 1, 1))
    with pytest.raises(NoIntersection):
        intersect(ctx, l1, l2)
    l3 = line(ctx, _pt(ctx, 2, 0), _pt(ctx, 3, 0))
    with pytest.raises(Coincident):
        intersect(ctx, l1, l3)


def test_unit_circle_axis(ctx):
    c = circle(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 0))
    ax = line(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 0))
    pts = intersect(ctx, ax, c)
    assert [(to_text(p.x), to_text(p.y)) for p in pts] == [("-1", "0"), ("1", "0")]


def test_no_intersection_far_line(ctx):
    c = circle(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 0))
    v = line(ctx, _pt(ctx, 2, 0), _pt(ctx, 2, 1))
    with pytest.raises(NoIntersection):
        intersect(ctx, v, c)


def test_tangent_line_single_point(ctx):
    c = circle(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 0))
    t = line(ctx, _pt(ctx, 1, -1), _pt(ctx, 1, 1))
    pts = intersect(ctx, t, c)
    assert len(pts) == 1
    assert pts[0].x.is_rat(1) and pts[0].y.is_rat(0)


def test_circle_circle(ctx):
    c1 = circle(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 0))
    c2 = circle(ctx, _pt(ctx, 1, 0), _pt(ctx, 2, 0))
    pts = intersect(ctx, c1, c2)
    assert len(pts) == 2
    for p in pts:
        assert p.x.is_rat(F(1, 2))
    resid = ctx.sub(ctx.add(ctx.mul(pts[1].x, pts[1].x),
                            ctx.mul(pts[1].y, pts[1].y)), 1)
    assert resid.enclosure(W40).contains_zero()


def test_intersection_points_satisfy_equations(ctx):
    c1 = circle(ctx, _pt(ctx, 0, 0), _pt(ctx, F(3, 2), F(1, 3)))
    l1 = line(ctx, _pt(ctx, F(-1, 2), -1), _pt(ctx, 1, F(5, 4)))
    for p in intersect(ctx, l1, c1):
        r2 = ctx.add(ctx.mul(ctx.rat(F(3, 2)), ctx.rat(F(3, 2))),
                     ctx.mul(ctx.rat(F(1, 3)), ctx.rat(F(1, 3))))
        on_circle = ctx.sub(ctx.add(ctx.mul(p.x, p.x), ctx.mul(p.y, p.y)), r2)
        assert on_circle.enclosure(W40).contains_zero()
        cross = ctx.sub(ctx.mul(ctx.sub(p.x, ctx.rat(F(-1, 2))), ctx.rat(F(9, 4))),
                        ctx.mul(ctx.sub(p.y, ctx.rat(-1)), ctx.rat(F(3, 2))))
        assert cross.enclosure(W40).contains_zero()


def test_concentric_circles_with_an_exact_zero_offset(ctx):
    # the centre's x is sqrt(3)*sqrt(3) - 3, exactly 0 but not the constant 0
    unit = circle(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 0))
    cx = ctx.sub(ctx.mul(ctx.sqrt(3), ctx.sqrt(3)), 3)
    assert not cx.is_rat(0)
    wide = circle(ctx, GPoint(cx, ctx.rat(0)), _pt(ctx, 2, 0))
    with pytest.raises(NoIntersection, match="concentric"):
        intersect(ctx, unit, wide)


def test_an_undecided_zero_is_no_verdict_on_concentric_circles(ctx):
    # sqrt(2 + sqrt(3)) and (sqrt(6) + sqrt(2))/2 are the same number, but
    # outside one quadratic field, so their difference has no decided sign
    nested = ctx.sqrt(ctx.add(2, ctx.sqrt(3)))
    split = ctx.div(ctx.add(ctx.sqrt(6), ctx.sqrt(2)), 2)
    origin = _pt(ctx, 0, 0)
    c1 = circle(ctx, origin, GPoint(nested, ctx.rat(0)))
    c2 = circle(ctx, origin, GPoint(split, ctx.rat(0)))
    with pytest.raises(MaxPrecision, match="radii"):
        intersect(ctx, c1, c2)
    moved = circle(ctx, GPoint(ctx.sub(nested, split), ctx.rat(0)), _pt(ctx, 2, 0))
    with pytest.raises(MaxPrecision, match="not concentric"):
        intersect(ctx, c1, moved)


def test_an_undecided_tangency_names_the_test_the_value_and_the_bits(ctx):
    # the vertical line x = (sqrt(6) + sqrt(2))/2 touches the circle of radius
    # sqrt(2 + sqrt(3)) about the origin: its discriminant is an exact zero
    # outside one quadratic field
    nested = ctx.sqrt(ctx.add(2, ctx.sqrt(3)))
    split = ctx.div(ctx.add(ctx.sqrt(6), ctx.sqrt(2)), 2)
    c = circle(ctx, _pt(ctx, 0, 0), GPoint(nested, ctx.rat(0)))
    tangent = line(ctx, GPoint(split, ctx.rat(0)), GPoint(split, ctx.rat(1)))
    with pytest.raises(MaxPrecision, match=r"^tangency vs crossing: not settled .* "
                                           r"\(tried 64 to 1024 bits\); the value is \(0 - "):
        intersect(ctx, tangent, c)


def test_an_undecided_offset_is_no_domain_fault(ctx):
    nested = ctx.sqrt(ctx.add(2, ctx.sqrt(3)))
    zero = ctx.sub(nested, ctx.div(ctx.add(ctx.sqrt(6), ctx.sqrt(2)), 2))
    with pytest.raises(MaxPrecision, match="secant offset"):
        spiral_secant_cut(ctx, ctx.div(ctx.pi(), 2), zero, ctx.rat(1))
    with pytest.raises(DegenerateSecant, match="need 0 < h < theta0"):
        spiral_secant_cut(ctx, ctx.div(ctx.pi(), 2), ctx.rat(0), ctx.rat(1))


def test_mean_proportional(ctx):
    assert mean_proportional(ctx, 2, 8).is_rat(4)
    assert to_text(mean_proportional(ctx, 1, 2)) == "sqrt(2)"
    x = mean_proportional(ctx, ctx.rat(3), ctx.rat(5))
    resid = ctx.sub(ctx.mul(x, x), 15)
    assert resid.enclosure(W40).contains_zero()
    with pytest.raises(NonPositiveLength):
        mean_proportional(ctx, ctx.rat(-1), ctx.rat(2))
    exact_zero = ctx.sub(ctx.mul(ctx.sqrt(3), ctx.sqrt(3)), 3)
    with pytest.raises(NonPositiveLength, match="provably zero"):
        mean_proportional(ctx, exact_zero, ctx.rat(2))


def test_fourth_proportional(ctx):
    assert fourth_proportional(ctx, 3, 2, 4).is_rat(6)
    assert fourth_proportional(ctx, ctx.rat(5), ctx.rat(7), ctx.rat(7)).is_rat(5)
    # scaling a rectified circumference: R1=1, R2=2, C1 ~ 2pi gives ~ 4pi
    c1 = ctx.mul(2, ctx.pi())
    c2 = fourth_proportional(ctx, ctx.rat(2), ctx.rat(1), c1)
    target = ctx.mul(4, ctx.pi())
    assert c2.enclosure(W40).intersects(target.enclosure(W40))
    with pytest.raises(NonPositiveLength):
        fourth_proportional(ctx, 1, 0, 1)


def test_fourth_proportional_property(ctx):
    # x*b - a*c encloses 0
    a, b, c = ctx.rat(F(7, 3)), ctx.rat(F(2, 5)), ctx.sqrt(2)
    x = fourth_proportional(ctx, a, b, c)
    resid = ctx.sub(ctx.mul(x, b), ctx.mul(a, c))
    assert resid.enclosure(W40).contains_zero()


def test_right_anglesect_examples(ctx):
    p = right_anglesect(ctx, 1, 1)
    sq2_half = F("0.70710678118654752440084436210484903928483593768847")
    assert near(p.x, sq2_half) and near(p.y, sq2_half)
    p = right_anglesect(ctx, 1, 2)
    assert p.y.is_rat(F(1, 2))
    assert near(p.x, F("0.86602540378443864676372317075293618347140262690519"))
    p = right_anglesect(ctx, ctx.sqrt(2), ctx.rat(1))
    resid = ctx.sub(ctx.add(ctx.mul(p.x, p.x), ctx.mul(p.y, p.y)), 1)
    assert resid.enclosure(W40).contains_zero()
    with pytest.raises(NonPositiveLength):
        right_anglesect(ctx, 0, 1)


def test_reverse_anglesect_examples(ctx):
    assert reverse_anglesect(ctx, _pt(ctx, 0, 1)).is_rat(1)
    p30 = GPoint(ctx.div(ctx.sqrt(3), 2), ctx.rat(F(1, 2)))
    assert reverse_anglesect(ctx, p30).is_rat(F(1, 3))
    y = F(1, 3)
    p = GPoint(ctx.sqrt(ctx.rat(1 - y * y)), ctx.rat(y))
    assert near(reverse_anglesect(ctx, p), TWO_ASIN13_OVER_PI)
    with pytest.raises(NotOnUnitCircle):
        reverse_anglesect(ctx, _pt(ctx, 1, 1))


def test_anglesector_round_trip_50(ctx):
    rng = random.Random(420)
    for _ in range(50):
        u = F(rng.randint(1, 30), rng.randint(1, 10))
        v = F(rng.randint(1, 30), rng.randint(1, 10))
        p = right_anglesect(ctx, ctx.rat(u), ctx.rat(v))
        back = reverse_anglesect(ctx, p)
        assert back.enclosure(W40).contains_fraction(u / (u + v))


def test_general_anglesect_trisection(ctx):
    p = general_anglesect(ctx, _pt(ctx, 0, 1), 1, 2)
    assert p.y.is_rat(F(1, 2))  # 30 degrees


def test_general_anglesect_bisection_cross_check(ctx):
    # 60-degree point, ratio 1:1 -> 30-degree point, matching compass bisection
    p60 = GPoint(ctx.rat(F(1, 2)), ctx.div(ctx.sqrt(3), 2))
    half = general_anglesect(ctx, p60, 1, 1)
    assert half.y.enclosure(W40).contains_fraction(F(1, 2))
    # compass bisection: normalize (1 + x, y)
    d = ctx.sqrt(ctx.add(ctx.mul(ctx.add(1, p60.x), ctx.add(1, p60.x)),
                         ctx.mul(p60.y, p60.y)))
    bx = ctx.div(ctx.add(1, p60.x), d)
    assert half.x.enclosure(W40).intersects(bx.enclosure(W40))


def test_general_anglesect_45_in_1_2(ctx):
    p45 = GPoint(ctx.sin_pi(F(1, 4)), ctx.sin_pi(F(1, 4)))
    p15 = general_anglesect(ctx, p45, 1, 2)
    angle = ctx.mul(ctx.mul(2, ctx.arcsin_over_pi(p15.y)), ctx.div(ctx.pi(), 2))
    assert abs(angle.enclosure(W40).re.mid().to_fraction() - PI_OVER_12) < F(1, 10**9)


def test_general_anglesect_additivity(ctx):
    rng = random.Random(7)
    theta = right_anglesect(ctx, 3, 2)
    for _ in range(5):
        u = F(rng.randint(1, 9))
        v = F(rng.randint(1, 9))
        a = general_anglesect(ctx, theta, ctx.rat(u), ctx.rat(v))
        b = general_anglesect(ctx, theta, ctx.rat(v), ctx.rat(u))
        # rotation composition: angle(a) + angle(b) = angle(theta)
        comp_x = ctx.sub(ctx.mul(a.x, b.x), ctx.mul(a.y, b.y))
        comp_y = ctx.add(ctx.mul(a.y, b.x), ctx.mul(a.x, b.y))
        assert comp_x.enclosure(W40).intersects(theta.x.enclosure(W40))
        assert comp_y.enclosure(W40).intersects(theta.y.enclosure(W40))


@pytest.mark.parametrize("u, v", [(2, -1), (1, 0), (-1, -1)])
def test_general_anglesect_needs_both_ratio_parts_positive(ctx, u, v):
    # else the point leaves the angle it divides: u : v = 2 : -1 doubles the angle
    with pytest.raises(NonPositiveLength):
        general_anglesect(ctx, right_anglesect(ctx, 1, 3), u, v)


def test_quadratrix_x_of_y(ctx):
    assert quadratrix_x_of_y(ctx, ctx.rat(F(1, 2)), ctx.rat(1)).is_rat(F(1, 2))
    assert near(quadratrix_x_of_y(ctx, ctx.rat(F(1, 4)), ctx.rat(1)), COT_PI8_OVER_4)
    with pytest.raises(OutOfRange):
        quadratrix_x_of_y(ctx, ctx.rat(0), ctx.rat(1))
    with pytest.raises(OutOfRange):
        quadratrix_x_of_y(ctx, ctx.rat(2), ctx.rat(1))


def test_quadratrix_sample_satisfies_curve(ctx):
    y = ctx.rat(F(1, 3))
    x = quadratrix_x_of_y(ctx, y, ctx.rat(1))
    # y * cos(pi y / 2) - x * sin(pi y / 2) encloses 0
    t = F(1, 6)
    resid = ctx.sub(ctx.mul(y, ctx.sin_pi(F(1, 2) - t)), ctx.mul(x, ctx.sin_pi(t)))
    assert resid.enclosure(W40).contains_zero()


def test_clavius_points(ctx):
    p1 = clavius_point(ctx, 1)
    assert p1.x.is_rat(F(1, 2)) and p1.y.is_rat(F(1, 2))
    assert near(clavius_point(ctx, 2).x, COT_PI8_OVER_4)
    x10 = clavius_point(ctx, 10).x
    two_over_pi = ctx.div(2, ctx.pi())
    err = ctx.sub(x10, two_over_pi).enclosure(W40)
    assert err.re.mag().to_fraction() < F(1, 10**5)


def test_spiral_secant_and_errors(ctx):
    pi = ctx.pi()
    cut = spiral_secant_cut(ctx, ctx.div(pi, 2), ctx.div(pi, 8), ctx.rat(1))
    assert near(cut, F("0.93461931870406167"), tol=F(1, 10**12))
    with pytest.raises(DegenerateSecant):
        spiral_secant_cut(ctx, ctx.div(pi, 2), ctx.rat(0), ctx.rat(1))


def test_spiral_sample_on_curve(ctx):
    p = spiral_point(ctx, ctx.div(ctx.pi(), 3), ctx.rat(1))
    # r = (2/pi) * theta at theta = pi/3: r = 2/3
    r2 = ctx.add(ctx.mul(p.x, p.x), ctx.mul(p.y, p.y))
    assert r2.enclosure(W40).contains_fraction(F(4, 9))


def test_spiral_probe_report(ctx):
    rep = spiral_probe_report(ctx, 1, 3, 8)
    assert rep.factor_between_readings == pytest.approx(2.0, abs=1e-9)
    assert all(rep.shrink_factors[i] < rep.shrink_factors[i + 1]
               for i in range(len(rep.shrink_factors) - 1))


def _undecided_zero(ctx):
    # sqrt(2 + sqrt(3)) - (sqrt(6) + sqrt(2))/2 is exactly 0, outside one quadratic field
    nested = ctx.sqrt(ctx.add(2, ctx.sqrt(3)))
    return ctx.sub(nested, ctx.div(ctx.add(ctx.sqrt(6), ctx.sqrt(2)), 2))


def test_a_line_through_an_undecided_zero_offset_is_no_line(ctx):
    z = _undecided_zero(ctx)
    with pytest.raises(MaxPrecision, match=r"^line endpoints coincide: not settled .*1024 bits"):
        line(ctx, _pt(ctx, 0, 0), GPoint(z, z))


def test_a_circle_through_an_undecided_zero_radius_is_no_circle(ctx):
    z = _undecided_zero(ctx)
    with pytest.raises(MaxPrecision, match=r"^circle radius is zero: not settled .*1024 bits"):
        circle(ctx, _pt(ctx, 0, 0), GPoint(z, ctx.rat(0)))


def test_a_rational_coordinate_difference_makes_a_line_without_evaluating(ctx, monkeypatch):
    z = _undecided_zero(ctx)
    origin = _pt(ctx, 0, 0)
    evaluated = []
    real_eval = Expr.eval
    monkeypatch.setattr(Expr, "eval", lambda e, prec: evaluated.append(prec) or real_eval(e, prec))
    for q in (GPoint(z, ctx.rat(1)), GPoint(ctx.rat(1), z)):
        got = line(ctx, origin, q)
        assert got.p is origin and got.q is q
    assert evaluated == []


def test_one_proven_nonzero_difference_makes_a_line(ctx):
    z = _undecided_zero(ctx)
    origin = _pt(ctx, 0, 0)
    assert line(ctx, origin, GPoint(z, ctx.rat(1))).q.y.is_rat(1)
    with pytest.raises(Coincident, match="line endpoints coincide"):
        line(ctx, origin, _pt(ctx, 0, 0))
    with pytest.raises(Coincident, match="circle radius is zero"):
        circle(ctx, origin, origin)


def test_circles_with_one_centre_and_one_radius_coincide(ctx):
    c1 = circle(ctx, _pt(ctx, F(1, 2), 0), _pt(ctx, F(3, 2), 0))
    c2 = circle(ctx, _pt(ctx, F(1, 2), 0), _pt(ctx, F(1, 2), -1))
    with pytest.raises(Coincident, match="^circles coincide$"):
        intersect(ctx, c1, c2)


def test_rra_of_a_unit_point_below_the_x_axis_is_out_of_its_arc(ctx):
    below = _pt(ctx, F(3, 5), F(-4, 5))
    with pytest.raises(NotOnUnitCircle, match="^point lies below the first-quadrant arc$"):
        reverse_anglesect(ctx, below)
    half = bisect(ctx, below)
    assert isinstance(half, UnitPoint)
    with pytest.raises(NotOnUnitCircle, match="^point lies below the first-quadrant arc$"):
        reverse_anglesect(ctx, half)


def test_bisect_halves_a_segment_or_the_angle_of_a_unit_circle_point(ctx):
    assert bisect(ctx, ctx.rat(3)).is_rat(F(3, 2))
    with pytest.raises(NonPositiveLength, match="^segment length must be positive, got 0$"):
        bisect(ctx, ctx.rat(0))
    # (3/5, 4/5) is at 2*theta where (cos theta, sin theta) = (2, 1)/sqrt(5)
    half = bisect(ctx, _pt(ctx, F(3, 5), F(4, 5)))
    assert near(half.x, F("0.894427190999915878563669467492510494329"))
    assert near(half.y, F("0.447213595499957939281834733746255247165"))
    with pytest.raises(NotOnUnitCircle, match=r"^x\^2 \+ y\^2 - 1 is provably nonzero for \(0, 2\)$"):
        bisect(ctx, _pt(ctx, 0, 2))


def test_every_point_built_on_the_unit_circle_is_a_unit_point(ctx):
    ra = right_anglesect(ctx, 3, 4)
    points = [ra, general_anglesect(ctx, ra, ctx.rat(1), ctx.rat(2)),
              bisect(ctx, ra), bisect(ctx, _pt(ctx, 0, 1))]
    assert all(type(p) is UnitPoint for p in points)
    assert type(intersect(ctx, circle(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 0)),
                          line(ctx, _pt(ctx, 0, 0), _pt(ctx, 1, 0)))[0]) is GPoint

