"""Deterministic SVG 1.1 rendering of compiled constructions and curve overlays.

Each `let` step is drawn from its argument values and the value it bound,
in program order, and no geometry tool is run again. All geometry is emitted
in world coordinates inside a single group whose matrix maps world to screen
(y up) at one scale for both axes, so circles stay round; the view is the
padded union of every shape's bounding box, centred in the viewport. Each
point is drawn once, by the step that binds it. Strokes and point dots are
sized in pixels, whatever the scale: a stroke's width is _STROKE_PX / scale
and a dot's radius _POINT_PX / scale, both in world units.
Fixed formatting and stable element order make byte-identical output for
identical inputs.
Rendering is illustrative: floats are fine here, certified arithmetic stays
in the kernel.
"""
from __future__ import annotations

import math

from . import geometry as G
from .dsl import CompileResult
from .expr import sign

_MARGIN = 0.08   # fraction of world bounds added as padding
_DENSITY = 2.0   # curve samples per output pixel
_POINT_PX = 3.0  # radius of a point dot, in pixels
_STROKE_PX = 1.5  # width of a stroke, in pixels
_STYLES = {
    "segment": 'stroke="#1f3a5f"',
    "circle": 'stroke="#7a5c1e"',
    "point": 'fill="#b03030"',
    "curve": 'stroke="#2e7d32"',
}


def _f(x: float) -> str:
    return f"{x:.9f}"


def _expr_float(e) -> float:
    enc = e.eval(96)
    return float(enc.re.mid())


def _point_xy(p) -> tuple[float, float]:
    return (_expr_float(p.x), _expr_float(p.y))


def quadratrix_points(n: int) -> list[tuple[float, float]]:
    """n points of the quadratrix with R = 1, inside 0 < y < 1."""
    pts = []
    for i in range(1, n + 1):
        y = i / (n + 1)
        theta = math.pi * y / 2
        pts.append((y / math.tan(theta), y))
    return pts


def spiral_points(n: int) -> list[tuple[float, float]]:
    """n points of one turn of the spiral with quarter-turn radius 1."""
    a = 2 / math.pi
    pts = []
    for i in range(1, n + 1):
        t = 2 * math.pi * i / n
        pts.append((a * t * math.cos(t), a * t * math.sin(t)))
    return pts


def drawables(result: CompileResult) -> list[tuple]:
    """("segment", p, q), ("circle", center, through) and ("point", p) of every step."""
    ctx = result.ctx
    env: dict = {}
    out = []
    for st, value in result.steps:
        args = [env[a.value] if a.kind == "name" else ctx.rat(a.value) for a in st.call.args]
        out.extend(_step_drawables(ctx, st.call.tool, args, value))
        env[st.name] = value
    return out


def _step_drawables(ctx, tool: str, args: list, value) -> list[tuple]:
    zero = ctx.rat(0)
    origin = G.GPoint(zero, zero)
    if tool == "line":
        return [("segment", value.p, value.q)]
    if tool == "circle":
        return [("circle", value.center, value.through)]
    if tool == "meanprop":
        # the circle on the diameter from 0 to a + b meets the perpendicular at a at height x
        a, b = args
        D = G.GPoint(a, zero)
        B = G.GPoint(ctx.add(a, b), zero)
        M = G.GPoint(ctx.div(ctx.add(a, b), 2), zero)
        C = G.GPoint(a, value)
        return [("segment", origin, D), ("segment", D, B), ("circle", M, origin),
                ("segment", D, C), ("point", C)]
    if tool == "fourthprop":
        # similar triangles; their apex O exists only where b - c has a certified sign
        a, b, c = args
        Ap = G.GPoint(zero, a)
        Gp = G.GPoint(c, a)
        Gb = G.GPoint(b, zero)
        D = G.GPoint(a, zero)
        out = [("segment", origin, D), ("segment", origin, Ap), ("segment", Ap, Gp),
               ("point", Gb)]
        diff = ctx.sub(b, c)
        if sign(diff):
            O = G.GPoint(zero, ctx.div(ctx.mul(a, b), diff))
            Dp = G.GPoint(ctx.div(ctx.mul(a, ctx.sub(Ap.y, O.y)),
                                  ctx.sub(zero, O.y)), a)
            out += [("segment", O, Gb), ("segment", O, D), ("point", Dp)]
        return out
    if tool == "ra" or tool == "anglesect":
        return [("point", value), ("segment", origin, value)]
    if isinstance(value, G.GPoint):  # point, intersect or a bisected angle
        return [("point", value)]
    return []


def _floats(d: tuple) -> tuple:
    """A drawable in floats: segment (ax, ay, bx, by), circle (cx, cy, r), point (x, y)."""
    if d[0] == "segment":
        return (d[0], _point_xy(d[1]) + _point_xy(d[2]))
    if d[0] == "circle":
        (cx, cy), (tx, ty) = _point_xy(d[1]), _point_xy(d[2])
        return (d[0], (cx, cy, math.hypot(tx - cx, ty - cy)))
    return (d[0], _point_xy(d[1]))


def render_svg(result: CompileResult, width: int, height: int,
               curves: tuple[str, ...] = ()) -> str:
    shapes = [_floats(d) for d in drawables(result)]
    curve_polys = []
    samples = int(_DENSITY * width)
    for curve in curves:
        if curve == "quadratrix":
            curve_polys.append(("quadratrix", quadratrix_points(samples)))
        elif curve == "spiral":
            curve_polys.append(("spiral", spiral_points(samples)))
        else:
            raise ValueError(f"unknown curve overlay {curve!r}")

    xs, ys = [0.0, 1.0], [0.0, 1.0]
    for kind, v in shapes:
        if kind == "circle":  # its bounding box: the centre +- the radius
            cx, cy, r = v
            v = (cx - r, cy - r, cx + r, cy + r)
        xs.extend(v[0::2])
        ys.extend(v[1::2])
    for _, pts in curve_polys:
        xs.extend(p[0] for p in pts)
        ys.extend(p[1] for p in pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad_x = (x1 - x0 or 1.0) * _MARGIN
    pad_y = (y1 - y0 or 1.0) * _MARGIN
    x0, x1 = x0 - pad_x, x1 + pad_x
    y0, y1 = y0 - pad_y, y1 + pad_y
    scale = min(width / (x1 - x0), height / (y1 - y0))
    # centre the view: the unused screen span on each axis is split evenly
    tx = (width - scale * (x1 - x0)) / 2 - x0 * scale
    ty = (height - scale * (y1 - y0)) / 2 + y1 * scale
    stroke = f'stroke-width="{_f(_STROKE_PX / scale)}" fill="none"'

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<g transform="matrix({_f(scale)} 0 0 {_f(-scale)} {_f(tx)} {_f(ty)})">',
    ]
    for name, pts in curve_polys:
        coords = " ".join(f"{_f(px)},{_f(py)}" for px, py in pts)
        lines.append(f'<polyline class="curve {name}" {_STYLES["curve"]} {stroke} '
                     f'points="{coords}"/>')
    for kind, v in shapes:
        if kind == "segment":
            lines.append(f'<line class="segment" {_STYLES["segment"]} {stroke} '
                         f'x1="{_f(v[0])}" y1="{_f(v[1])}" x2="{_f(v[2])}" y2="{_f(v[3])}"/>')
        elif kind == "circle":
            lines.append(f'<circle class="circle" {_STYLES["circle"]} {stroke} '
                         f'cx="{_f(v[0])}" cy="{_f(v[1])}" r="{_f(v[2])}"/>')
        else:
            lines.append(f'<circle class="point" {_STYLES["point"]} '
                         f'cx="{_f(v[0])}" cy="{_f(v[1])}" r="{_f(_POINT_PX / scale)}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
