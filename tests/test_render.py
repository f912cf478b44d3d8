"""Rendering tests: SVG bytes pinned per corpus program, and what each step draws."""
from pathlib import Path

import pytest

from qx.cli import main
from qx.dsl import compile_program, parse
from qx.render import drawables

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
    assert _kinds(src) == ["segment", "circle"]
    vesica = (HERE / "golden" / "render" / "06_vesica.svg").read_text()
    assert vesica.count('class="circle"') == 2
