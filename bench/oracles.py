"""Independent correctness oracles for the benchmark.

Nothing here imports qx. Reference values come from mpmath at roughly twice
the digits the program certified, and from known-answer tables fixed when
the inputs are generated.
"""
from __future__ import annotations

import re
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

# sin(pi*r) is rational exactly for r mod 2 in this table (Olmsted)
OLMSTED_TABLE = {
    Fraction(0): Fraction(0), Fraction(1): Fraction(0),
    Fraction(1, 2): Fraction(1), Fraction(3, 2): Fraction(-1),
    Fraction(1, 6): Fraction(1, 2), Fraction(5, 6): Fraction(1, 2),
    Fraction(7, 6): Fraction(-1, 2), Fraction(11, 6): Fraction(-1, 2),
}

_DECIMAL = re.compile(r"-?\d+(?:\.(\d+))?")


def decimal_agrees(text: str, ref, digits: int) -> bool:
    """True when `text` is a certified reading of the reference value at `digits` digits.

    A certified decimal with k fractional digits is the reference truncated
    toward zero, so it lies within 10^-k of it. Fewer than `digits` digits
    are correct only where an enclosure 10^-digits wide can straddle a
    decimal boundary, that is, where the reference lies that close to a
    multiple of 10^-(k+1). When no digit is certain, the program prints the
    enclosure as "[lo, hi]", which must contain the reference.
    """
    text = text.strip()
    width = mpf(10) ** (-digits)
    if text.startswith("[") and text.endswith("]"):
        lo, hi = (mpf(s) for s in text[1:-1].split(","))
        return lo <= ref <= hi and hi - lo <= 3 * width
    m = _DECIMAL.fullmatch(text)
    if m is None:
        return False
    k = len(m.group(1) or "")
    if abs(mpf(text) - ref) >= mpf(10) ** (-k):
        return False
    if k >= digits:
        return True
    grid = mpf(10) ** (-(k + 1))
    return abs(ref - mpmath.nint(ref / grid) * grid) <= 2 * width


def rat(fr: Fraction):
    return mpf(fr.numerator) / fr.denominator


# --- the .qdx tools on mpmath numbers -------------------------------------------

_STMT_LET = re.compile(r"let\s+(\w+)\s*=\s*(\w+)\s*\((.*)\)$")
_STMT_EMIT = re.compile(r"emit\s+(.*)$")


def qdx_reference(source: str, dps: int) -> dict:
    """Execute a .qdx program with mpmath at `dps` digits: emitted name -> value.

    Written from the tool semantics (seg, point, line, circle, intersect,
    meanprop, fourthprop, ra, rra, bisect, anglesect), not from qx's code.
    Points emit as name.x and name.y; intersections are ordered by x, then y.
    """
    text = "\n".join(line.split("#", 1)[0] for line in source.splitlines())
    env: dict = {}
    out: dict = {}
    with mp.workdps(dps):
        for stmt in (s.strip() for s in text.split(";")):
            if not stmt:
                continue
            let = _STMT_LET.match(stmt)
            if let:
                name, tool, raw = let.groups()
                args = [_arg(a.strip(), env) for a in raw.split(",")]
                env[name] = _TOOLS[tool](*args)
                continue
            for name in _STMT_EMIT.match(stmt).group(1).split(","):
                name = name.strip()
                value = env[name]
                if isinstance(value, tuple):
                    out[f"{name}.x"], out[f"{name}.y"] = value[1], value[2]
                else:
                    out[name] = value
    return out


def _arg(text: str, env: dict):
    if re.fullmatch(r"-?\d+(?:/\d+)?", text):
        return rat(Fraction(text))
    return env[text]


def _pt(x, y):
    return ("pt", x, y)


def _ra(t):
    """Unit-circle point at the fraction t of the right angle."""
    return _pt(mpmath.cospi(t / 2), mpmath.sinpi(t / 2))


def _frac_of_right_angle(p):
    return 2 * mpmath.asin(p[2]) / mp.pi


def _line_circle(line, circle):
    (_, p, q), (_, c, t) = line, circle
    dx, dy = q[1] - p[1], q[2] - p[2]
    fx, fy = p[1] - c[1], p[2] - c[2]
    r2 = (t[1] - c[1]) ** 2 + (t[2] - c[2]) ** 2
    a = dx * dx + dy * dy
    b = 2 * (fx * dx + fy * dy)
    disc = b * b - 4 * a * (fx * fx + fy * fy - r2)
    root = mpmath.sqrt(max(disc, mpf(0)))
    return [_pt(p[1] + s * dx, p[2] + s * dy)
            for s in ((-b - root) / (2 * a), (-b + root) / (2 * a))]


def _intersect(a, b, index=mpf(0)):
    if a[0] == "line" and b[0] == "line":
        (_, p1, q1), (_, p2, q2) = a, b
        d1x, d1y = q1[1] - p1[1], q1[2] - p1[2]
        d2x, d2y = q2[1] - p2[1], q2[2] - p2[2]
        s = ((p2[1] - p1[1]) * d2y - (p2[2] - p1[2]) * d2x) / (d1x * d2y - d1y * d2x)
        pts = [_pt(p1[1] + s * d1x, p1[2] + s * d1y)]
    elif a[0] == "circle" and b[0] == "circle":
        (_, c1, t1), (_, c2, t2) = a, b
        ux, uy = c2[1] - c1[1], c2[2] - c1[2]
        d2 = ux * ux + uy * uy
        r1 = (t1[1] - c1[1]) ** 2 + (t1[2] - c1[2]) ** 2
        r2 = (t2[1] - c2[1]) ** 2 + (t2[2] - c2[2]) ** 2
        lam = (d2 + r1 - r2) / (2 * d2)
        foot = _pt(c1[1] + lam * ux, c1[2] + lam * uy)
        pts = _line_circle(("line", foot, _pt(foot[1] - uy, foot[2] + ux)), a)
    else:
        line, circle = (a, b) if a[0] == "line" else (b, a)
        pts = _line_circle(line, circle)
    tie = mpf(10) ** (-(mp.dps // 2))
    pts.sort(key=lambda p: (mpmath.nint(p[1] / tie), p[2]))
    return pts[int(index)]


def _bisect(value):
    if isinstance(value, tuple):
        x, y = value[1], value[2]
        d = mpmath.sqrt((1 + x) ** 2 + y * y)
        return _pt((1 + x) / d, y / d)
    return value / 2


def _anglesect(p, u, v):
    return _ra(_frac_of_right_angle(p) * u / (u + v))


_TOOLS = {
    "seg": lambda x: x,
    "point": _pt,
    "line": lambda p, q: ("line", p, q),
    "circle": lambda c, t: ("circle", c, t),
    "intersect": _intersect,
    "meanprop": lambda a, b: mpmath.sqrt(a * b),
    "fourthprop": lambda a, b, c: a * c / b,
    "ra": lambda u, v: _ra(u / (u + v)),
    "rra": _frac_of_right_angle,
    "bisect": _bisect,
    "anglesect": _anglesect,
}


# --- expression families of the digits workload -----------------------------------

def cubic_root(a: int, b: int):
    """The real root of x^3 + a*x - b in (1, 2), by Newton from a bisected start."""
    f = lambda x: x ** 3 + a * x - b
    lo_x, hi_x = mpf(1), mpf(2)
    for _ in range(60):
        mid = (lo_x + hi_x) / 2
        lo_x, hi_x = (mid, hi_x) if f(mid) < 0 else (lo_x, mid)
    x = lo_x
    for _ in range(16):
        x = x - f(x) / (3 * x * x + a)
    return x


def clavius_x(n: int):
    """Abscissa of the quadratrix (R = 1) at height 2^-n: y*cot(pi*y/2)."""
    y = mpf(1) / 2 ** n
    return y * mpmath.cospi(y / 2) / mpmath.sinpi(y / 2)


def spiral_cut(k: int):
    """x-intercept of the spiral secant through theta = pi/2 and pi/2 - pi/2^k (R = 1)."""
    def point(theta):
        r = 2 / mp.pi * theta
        return r * mpmath.cos(theta), r * mpmath.sin(theta)
    x0, y0 = point(mp.pi / 2)
    x1, y1 = point(mp.pi / 2 - mp.pi / 2 ** k)
    return x0 - y0 * (x1 - x0) / (y1 - y0)


def poly_annihilates(coeffs, value, dps: int = 60) -> bool:
    """True when the integer polynomial (constant term first) vanishes at value."""
    with mp.workdps(dps):
        acc = mpf(0)
        scale = mpf(0)
        for c in reversed(coeffs):
            acc = acc * value + c
            scale = scale * abs(value) + abs(c)
        return bool(coeffs) and abs(acc) <= scale * mpf(10) ** (-(dps - 15))
