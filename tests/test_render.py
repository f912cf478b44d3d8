"""Rendering tests: SVG bytes pinned per corpus program, and what each step draws."""
import re
from pathlib import Path

import pytest

from qx import geometry
from qx.cli import main
from qx.dsl import compile_program, parse
from qx.render import drawables, render_svg

HERE = Path(__file__).parent
CORPUS = sorted((HERE / "corpus").glob("*.qdx"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_render_regenerates_golden_svg_byte_for_byte(path, tmp_path):
    out = tmp_path / "out.svg"
    assert main(["render", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == (HERE / "golden" / "render" / f"{path.stem}.svg").read_bytes()


def _kinds(src: str) -> list[str]:
    return [d[0] for d in drawables(compile_program(parse(src)))]


def test_meanprop_draws_three_segments_and_one_circle():
    kinds = _kinds("let m = meanprop(2, 8); emit m;")
    assert kinds.count("segment") == 3 and kinds.count("circle") == 1


def test_fourthprop_draws_its_apex_only_when_b_and_c_differ():
    assert _kinds("let x = fourthprop(3, 2, 2); emit x;").count("segment") == 3
    assert _kinds("let x = fourthprop(3, 2, 4); emit x;").count("segment") == 5


def test_line_and_circle_steps_draw_their_segment_and_circle():
    src = "let o = point(0, 0); let u = point(1, 0); let l = line(o, u); let c = circle(u, o); emit o;"
    assert _kinds(src) == ["point", "point", "segment", "circle"]
    vesica = (HERE / "golden" / "render" / "06_vesica.svg").read_text()
    assert vesica.count('class="circle"') == 2


GOLDEN_SVGS = sorted((HERE / "golden" / "render").glob("*.svg"))
_MATRIX = re.compile(r'matrix\((\S+) 0 0 (\S+) (\S+) (\S+)\)')
_CIRCLE = re.compile(r'class="circle" .*? cx="(\S+)" cy="(\S+)" r="(\S+)"')


_POINT_R = re.compile(r'class="point" .*? r="(\S+)"')
_STROKE_WIDTH = re.compile(r'stroke="\S+" stroke-width="(\S+)" fill="none"')


def test_every_golden_draws_each_dot_and_stroke_at_one_size_in_pixels():
    radii_px, widths_px = [], []
    for path in GOLDEN_SVGS:
        svg = path.read_text()
        scale = float(_MATRIX.search(svg).group(1))
        radii_px += [float(r) * scale for r in _POINT_R.findall(svg)]
        widths = _STROKE_WIDTH.findall(svg)
        assert widths and len(widths) == svg.count("stroke=")
        assert "vector-effect" not in svg  # SVG 1.1 has no such attribute
        widths_px += [float(w) * scale for w in widths]
    assert len(radii_px) == 33
    assert all(abs(r - 3.0) < 1e-6 for r in radii_px), radii_px
    assert all(abs(w - 1.5) < 1e-6 for w in widths_px), widths_px


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_each_bound_point_is_drawn_once_at_the_step_that_binds_it(path):
    result = compile_program(parse(path.read_text()))
    bound = [v for _, v in result.steps if isinstance(v, geometry.GPoint)]
    drawn = [d[1] for d in drawables(result) if d[0] == "point"]
    assert [p for p in drawn if any(p is b for b in bound)] == bound


def test_anglesect_and_rra_do_not_draw_their_given_point_again():
    assert _kinds("let p = ra(2, 1); let q = anglesect(p, 1, 2); emit q;").count("point") == 2
    assert _kinds("let p = point(3/5, 4/5); let r = rra(p); emit r;") == ["point"]


@pytest.mark.parametrize("path", GOLDEN_SVGS, ids=lambda p: p.stem)
def test_every_svg_draws_both_axes_at_one_scale_with_each_circle_in_view(path):
    svg = path.read_text()
    width, height = (int(v) for v in re.search(r'width="(\d+)" height="(\d+)"', svg).groups())
    sx, sy, tx, ty = (float(v) for v in _MATRIX.search(svg).groups())
    assert sx > 0 and sy == -sx
    circles = [tuple(float(v) for v in m) for m in _CIRCLE.findall(svg)]
    for cx, cy, r in circles:
        assert 0 <= sx * (cx - r) + tx and sx * (cx + r) + tx <= width
        assert 0 <= sy * (cy + r) + ty and sy * (cy - r) + ty <= height
    assert len(circles) == svg.count('class="circle"')


def test_an_intersect_step_draws_its_one_point_without_recomputing_it(monkeypatch):
    src = ("let o = point(0, 0); let u = point(1, 0); let c1 = circle(o, u); "
           "let c2 = circle(u, o); let p = intersect(c1, c2, 1); emit p;")
    result = compile_program(parse(src))
    calls = []
    real = geometry.intersect
    monkeypatch.setattr(geometry, "intersect", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert [d[0] for d in drawables(result)] == ["point", "point", "circle", "circle", "point"]
    assert drawables(result)[-1][1] is result.steps[-1][1]
    render_svg(result, 640, 640)
    assert calls == []
