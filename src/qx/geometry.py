"""Exact synthetic geometry: points, lines, circles, the two classical
proportion constructions, anglesector tools, and transcendental-curve probes.

Angles are unit-circle points. A point that `ra`, `anglesect` or `bisect`
built is a `UnitPoint`, which lies on the circle by construction and is
never tested there again; any other point is tested when a tool needs an
angle. Coordinates are expressions, so every derived length is exact and
certifiable. The quadratrix terminal point exists only as a limit: the
y = 0 parameter is a hard domain error, and the probes expose only
finite-stage data (Clavius bisection points, spiral secant intercepts) for
the caller to study.

Every zero and sign test (do two circles touch, are two lines parallel, is
a length positive) is `expr.decide_sign`: exact for values in one quadratic
field Q(sqrt(d)), so a tangency or a coincidence built from such values is
decided; any other value needs an enclosure that excludes 0. An undecided
test raises MaxPrecision naming the test, the value and the bits tried; it
is never reported as a domain fault.

Each .qdx tool is one public function here, which checks what the tool
requires and computes its value; `dsl` names them in its tool table. This
layer only computes: a tool returns its value and draws nothing.
Drawing a construction is `render`'s job, from the record of compiled steps.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .dyadic import fixed_point
from .errors import (Coincident, DegenerateSecant, MaxPrecision, NoIntersection,
                     NonPositiveLength, NotOnUnitCircle, OutOfRange)
from .expr import RAT, Context, Expr, decide_sign, short_text, sign
from .interval import precision_ceiling


class GPoint(NamedTuple):
    x: Expr
    y: Expr


class UnitPoint(GPoint):
    """A point on the unit circle by construction: sin^2(pi s) + sin^2(pi (1/2 - s)) = 1
    for real s, and a bisected point is a vector divided by its own length."""

    __slots__ = ()


class GLine(NamedTuple):
    p: GPoint
    q: GPoint


class GCircle(NamedTuple):
    center: GPoint
    through: GPoint


# --- exact sign reasoning ------------------------------------------------------

def _require_positive(e: Expr, what: str) -> None:
    if e.kind == "rat":
        if e.rat <= 0:
            raise NonPositiveLength(f"{what} must be positive, got {e.rat}")
        return
    s = decide_sign(e, f"positivity of {what}")
    if s != 1:
        raise NonPositiveLength(f"{what} is provably {'negative' if s else 'zero'}")


# --- points, segments and intersections -------------------------------------------

def segment(ctx: Context, e: Expr) -> Expr:
    """A segment of length e, once e is proven positive."""
    _require_positive(e, "segment length")
    return e


def point(ctx: Context, x: Expr, y: Expr) -> GPoint:
    return GPoint(x, y)


def line(ctx: Context, p: GPoint, q: GPoint) -> GLine:
    """The line through p and q, once a coordinate difference, rational first, is proven nonzero."""
    undecided = None
    for d in sorted((ctx.sub(q.x, p.x), ctx.sub(q.y, p.y)), key=lambda d: d.kind != RAT):
        try:
            if decide_sign(d, "line endpoints coincide"):
                return GLine(p, q)
        except MaxPrecision as exc:
            undecided = exc
    if undecided:
        raise undecided
    raise Coincident("line endpoints coincide")


def circle(ctx: Context, center: GPoint, through: GPoint) -> GCircle:
    if decide_sign(_dist2(ctx, center, through), "circle radius is zero") == 0:
        raise Coincident("circle radius is zero")
    return GCircle(center, through)


def _dist2(ctx: Context, a: GPoint, b: GPoint) -> Expr:
    dx = ctx.sub(b.x, a.x)
    dy = ctx.sub(b.y, a.y)
    return ctx.add(ctx.mul(dx, dx), ctx.mul(dy, dy))


def intersect(ctx: Context, a, b) -> list[GPoint]:
    """0, 1 or 2 points, ordered by exact value (x, then y)."""
    if isinstance(a, GLine) and isinstance(b, GLine):
        return _line_line(ctx, a, b)
    if isinstance(a, GLine) and isinstance(b, GCircle):
        return _line_circle(ctx, a, b)
    if isinstance(a, GCircle) and isinstance(b, GLine):
        return _line_circle(ctx, b, a)
    if isinstance(a, GCircle) and isinstance(b, GCircle):
        return _circle_circle(ctx, a, b)
    raise TypeError("intersect expects lines and circles")


def _line_line(ctx: Context, l1: GLine, l2: GLine) -> list[GPoint]:
    d1x, d1y = ctx.sub(l1.q.x, l1.p.x), ctx.sub(l1.q.y, l1.p.y)
    d2x, d2y = ctx.sub(l2.q.x, l2.p.x), ctx.sub(l2.q.y, l2.p.y)
    denom = ctx.sub(ctx.mul(d1x, d2y), ctx.mul(d1y, d2x))
    if decide_sign(denom, "the lines are not parallel") == 0:
        off = ctx.sub(ctx.mul(ctx.sub(l2.p.x, l1.p.x), d1y), ctx.mul(ctx.sub(l2.p.y, l1.p.y), d1x))
        if decide_sign(off, "parallel lines are distinct") == 0:
            raise Coincident("lines coincide")
        raise NoIntersection("parallel distinct lines")
    t = ctx.div(ctx.sub(ctx.mul(ctx.sub(l2.p.x, l1.p.x), d2y),
                        ctx.mul(ctx.sub(l2.p.y, l1.p.y), d2x)), denom)
    return [GPoint(ctx.add(l1.p.x, ctx.mul(t, d1x)),
                   ctx.add(l1.p.y, ctx.mul(t, d1y)))]


def _line_circle(ctx: Context, l: GLine, c: GCircle) -> list[GPoint]:
    dx, dy = ctx.sub(l.q.x, l.p.x), ctx.sub(l.q.y, l.p.y)
    fx, fy = ctx.sub(l.p.x, c.center.x), ctx.sub(l.p.y, c.center.y)
    a = ctx.add(ctx.mul(dx, dx), ctx.mul(dy, dy))
    b = ctx.mul(2, ctx.add(ctx.mul(fx, dx), ctx.mul(fy, dy)))
    r2 = _dist2(ctx, c.center, c.through)
    cc = ctx.sub(ctx.add(ctx.mul(fx, fx), ctx.mul(fy, fy)), r2)
    disc = ctx.sub(ctx.mul(b, b), ctx.mul(4, ctx.mul(a, cc)))
    s = decide_sign(disc, "tangency vs crossing")
    if s == 0:
        t = ctx.div(ctx.mul(-1, b), ctx.mul(2, a))
        return [_along(ctx, l.p, t, dx, dy)]
    if s == -1:
        raise NoIntersection("line provably misses the circle")
    root = ctx.sqrt(disc)
    t1 = ctx.div(ctx.sub(ctx.mul(-1, b), root), ctx.mul(2, a))
    t2 = ctx.div(ctx.add(ctx.mul(-1, b), root), ctx.mul(2, a))
    return _order_points(ctx, _along(ctx, l.p, t1, dx, dy), _along(ctx, l.p, t2, dx, dy))


def _along(ctx: Context, p: GPoint, t: Expr, dx: Expr, dy: Expr) -> GPoint:
    return GPoint(ctx.add(p.x, ctx.mul(t, dx)), ctx.add(p.y, ctx.mul(t, dy)))


def _circle_circle(ctx: Context, c1: GCircle, c2: GCircle) -> list[GPoint]:
    ax, ay = c1.center.x, c1.center.y
    bx, by = c2.center.x, c2.center.y
    ux, uy = ctx.sub(bx, ax), ctx.sub(by, ay)
    d2 = ctx.add(ctx.mul(ux, ux), ctx.mul(uy, uy))
    r1 = _dist2(ctx, c1.center, c1.through)
    r2 = _dist2(ctx, c2.center, c2.through)
    if decide_sign(d2, "the circles are not concentric") == 0:
        if decide_sign(ctx.sub(r1, r2), "the radii of concentric circles differ") == 0:
            raise Coincident("circles coincide")
        raise NoIntersection("concentric circles with distinct radii")
    lam = ctx.div(ctx.add(d2, ctx.sub(r1, r2)), ctx.mul(2, d2))
    x0 = GPoint(ctx.add(ax, ctx.mul(lam, ux)), ctx.add(ay, ctx.mul(lam, uy)))
    x1 = GPoint(ctx.sub(x0.x, uy), ctx.add(x0.y, ux))
    return _line_circle(ctx, GLine(x0, x1), c1)


def _order_points(ctx: Context, p: GPoint, q: GPoint) -> list[GPoint]:
    """Two distinct points, lexicographic by exact value: x first, then y."""
    s = decide_sign(ctx.sub(p.x, q.x), "the order of the intersection points")
    if s == 0:
        s = decide_sign(ctx.sub(p.y, q.y), "the order of the intersection points")
    return [q, p] if s > 0 else [p, q]


# --- proportion constructions -----------------------------------------------------

def mean_proportional(ctx: Context, a: Expr, b: Expr) -> Expr:
    """x with a : x = x : b, i.e. x = sqrt(a*b), by the semicircle construction."""
    a, b = ctx._coerce(a), ctx._coerce(b)
    _require_positive(a, "first segment")
    _require_positive(b, "second segment")
    return ctx.sqrt(ctx.mul(a, b))


def fourth_proportional(ctx: Context, a: Expr, b: Expr, c: Expr) -> Expr:
    """x with x : a = c : b, i.e. x = a*c/b, by the similar-triangle construction."""
    a, b, c = ctx._coerce(a), ctx._coerce(b), ctx._coerce(c)
    for name, seg in (("a", a), ("b", b), ("c", c)):
        _require_positive(seg, f"segment {name}")
    return ctx.div(ctx.mul(a, c), b)


# --- anglesector tools ---------------------------------------------------------------

def right_anglesect(ctx: Context, u: Expr, v: Expr) -> UnitPoint:
    """Unit-circle point dividing the right angle in ratio u : v from the x-axis.

    The point is (cos(pi*t/2), sin(pi*t/2)) with t = u/(u+v), realized with
    sin_pi nodes only (cos via the complementary angle).
    """
    u, v = ctx._coerce(u), ctx._coerce(v)
    _require_positive(u, "ratio numerator")
    _require_positive(v, "ratio complement")
    t = ctx.div(u, ctx.add(u, v))
    half = Fraction(1, 2)
    return UnitPoint(ctx.sin_pi(ctx.mul(half, ctx.sub(1, t))),
                     ctx.sin_pi(ctx.mul(half, t)))


def reverse_anglesect(ctx: Context, p: GPoint) -> Expr:
    """Fraction of the right angle below the unit-circle point p: (2/pi) arcsin(y)."""
    _check_unit_circle(ctx, p)
    if sign(p.y) == -1:
        raise NotOnUnitCircle("point lies below the first-quadrant arc")
    return ctx.mul(2, ctx.arcsin_over_pi(p.y))


def _check_unit_circle(ctx: Context, p: GPoint) -> None:
    if isinstance(p, UnitPoint):
        return
    resid = ctx.sub(_dist2(ctx, GPoint(ctx.rat(0), ctx.rat(0)), p), 1)
    if sign(resid):
        raise NotOnUnitCircle(f"x^2 + y^2 - 1 is provably nonzero for "
                              f"({short_text(p.x)}, {short_text(p.y)})")
    # a residual that is 0, or encloses 0 down to the sign cap, is accepted (necessary check)


def general_anglesect(ctx: Context, theta: GPoint, u: Expr, v: Expr) -> UnitPoint:
    """Divide the acute angle at theta in ratio u : v via reverse-then-right anglesection."""
    u, v = ctx._coerce(u), ctx._coerce(v)
    f = reverse_anglesect(ctx, theta)
    _require_positive(u, "ratio numerator")
    _require_positive(v, "ratio complement")
    w = ctx.mul(f, ctx.div(u, ctx.add(u, v)))
    return right_anglesect(ctx, w, ctx.sub(1, w))


def bisect(ctx: Context, value):
    """Half of the segment value, or the unit-circle point at half the angle of the point value."""
    if isinstance(value, GPoint):
        _check_unit_circle(ctx, value)
        x = ctx.add(1, value.x)
        d = ctx.sqrt(ctx.add(ctx.mul(x, x), ctx.mul(value.y, value.y)))
        return UnitPoint(ctx.div(x, d), ctx.div(value.y, d))
    _require_positive(value, "segment length")
    return ctx.div(value, 2)


# --- curve probes -------------------------------------------------------------------

def quadratrix_x_of_y(ctx: Context, yv: Expr, R: Expr) -> Expr:
    """Abscissa of the quadratrix at height yv: x = yv / tan((pi/2)(yv/R)).

    yv = 0 is the terminal limit and is rejected: the generating motions
    provide no intersection point there.
    """
    yv, R = ctx._coerce(yv), ctx._coerce(R)
    _require_positive(R, "quadratrix parameter R")
    s_y = decide_sign(yv, "quadratrix height 0 < y")
    if s_y == 0:
        raise OutOfRange("the quadratrix has no generated point at y = 0")
    if s_y == -1 or decide_sign(ctx.sub(R, yv), "quadratrix height y < R") == -1:
        raise OutOfRange("quadratrix height must satisfy 0 < y < R")
    t = ctx.div(yv, R)
    half = Fraction(1, 2)
    return ctx.mul(yv, ctx.div(ctx.sin_pi(ctx.mul(half, ctx.sub(1, t))),
                               ctx.sin_pi(ctx.mul(half, t))))


def clavius_point(ctx: Context, n: int) -> GPoint:
    """Quadratrix point at y = 2^-n reached by n successive compass bisections."""
    if n < 1:
        raise OutOfRange("at least one bisection required")
    y = Fraction(1, 1 << n)
    return GPoint(quadratrix_x_of_y(ctx, ctx.rat(y), ctx.rat(1)), ctx.rat(y))


def spiral_point(ctx: Context, theta: Expr, R: Expr) -> GPoint:
    """Point of the spiral r = a*theta with quarter-turn radius R (a = 2R/pi)."""
    a = ctx.div(ctx.mul(2, R), ctx.pi())
    t = ctx.div(theta, ctx.pi())
    r = ctx.mul(a, theta)
    half = Fraction(1, 2)
    return GPoint(ctx.mul(r, ctx.sin_pi(ctx.sub(half, t))),
                  ctx.mul(r, ctx.sin_pi(t)))


def spiral_secant_cut(ctx: Context, theta0: Expr, h: Expr, R: Expr) -> Expr:
    """x-axis intercept of the secant through spiral points at theta0 and theta0 - h.

    As h -> 0 the intercepts approach the tangent cut on the initial tangent
    line; only the secant data is exposed, a tangent is not constructible.
    """
    theta0, h, R = ctx._coerce(theta0), ctx._coerce(h), ctx._coerce(R)
    if (decide_sign(h, "secant offset 0 < h") != 1
            or decide_sign(ctx.sub(theta0, h), "secant offset h < theta0") != 1):
        raise DegenerateSecant("need 0 < h < theta0")
    p0 = spiral_point(ctx, theta0, R)
    p1 = spiral_point(ctx, ctx.sub(theta0, h), R)
    dy = ctx.sub(p1.y, p0.y)
    return ctx.sub(p0.x, ctx.div(ctx.mul(p0.y, ctx.sub(p1.x, p0.x)), dy))


class SpiralProbeReport(NamedTuple):
    """Secant-limit study at the quarter turn; reports, never reconciles.

    Two candidate closed forms disagree by a factor of 2 in the classical
    sources: the polar subtangent R*pi/2 and the 'one eighth of the
    circumference' reading pi*R/4. Both are carried with their measured
    discrepancies; the report itself is the deliverable.
    """

    k_range: tuple[int, ...]
    intercepts: tuple[str, ...]
    differences: tuple[str, ...]
    shrink_factors: tuple[float, ...]
    limit_estimate: str
    subtangent: str
    eighth_reading: str
    discrepancy_subtangent: str
    discrepancy_eighth: str
    factor_between_readings: float


def spiral_probe_report(ctx: Context, R: Expr | int = 1, k_min: int = 3,
                        k_max: int = 12) -> SpiralProbeReport:
    if k_max <= k_min:
        raise OutOfRange("the probe needs at least two stages (k_max > k_min)")
    cap = precision_ceiling()
    if k_max >= cap:
        # stage k's secant rise is about 2^-k: no enclosure within cap bits separates it from 0
        raise OutOfRange(f"stage {k_max} needs more than the precision ceiling of {cap} bits "
                         f"(k_max must be below {cap})")
    R = ctx._coerce(R)
    pi = ctx.pi()
    width = Fraction(1, 1 << 64)
    digits = 12  # decimal places of every figure the report writes
    ks = tuple(range(k_min, k_max + 1))
    theta0 = ctx.div(pi, 2)
    vals = []
    for k in ks:
        h = ctx.div(pi, 1 << k)
        cut = spiral_secant_cut(ctx, theta0, h, R)
        vals.append(cut.enclosure(width))
    mids = [v.re.mid().to_fraction() for v in vals]
    diffs = [mids[i + 1] - mids[i] for i in range(len(mids) - 1)]
    shrink = tuple(float(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1))
    limit = mids[-1] + (mids[-1] - mids[-2])  # first-order extrapolation
    sub = ctx.div(ctx.mul(R, pi), 2).enclosure(width)
    eighth = ctx.div(ctx.mul(R, pi), 4).enclosure(width)
    sub_mid = sub.re.mid().to_fraction()
    eighth_mid = eighth.re.mid().to_fraction()

    def fmt(fr: Fraction) -> str:  # rounded half up
        return fixed_point(int(abs(fr) * 10**digits + Fraction(1, 2)), digits, fr < 0)

    return SpiralProbeReport(
        ks,
        tuple(fmt(m) for m in mids),
        tuple(fmt(d) for d in diffs),
        shrink,
        fmt(limit),
        fmt(sub_mid),
        fmt(eighth_mid),
        fmt(abs(limit - sub_mid)),
        fmt(abs(limit - eighth_mid)),
        float(sub_mid / eighth_mid),
    )
