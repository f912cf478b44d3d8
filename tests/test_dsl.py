"""Construction-language tests: parsing, diagnostics, compilation, round trip."""
import importlib.util
import io
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qx.geometry
from qx import dsl, expr, exprtext
from qx.cli import main
from qx.dsl import (Arg, Call, EmitStmt, LetStmt, Span, compile_program, parse, pretty_print,
                    verify_roundtrip)
from qx.errors import DslSemanticError, DslSyntaxError, MaxPrecision, MismatchError, QxError
from qx.dyadic import Dyadic
from qx.expr import SQRT, Context, fold, sign, to_text
from qx.exprtext import parse_expr
from qx.interval import CInterval, RInterval
from qx.minpoly import transcendence_rules

CORPUS = sorted(Path(__file__).parent.glob("corpus/*.qdx"))
README = Path(__file__).resolve().parent.parent / "README.md"

SINPI_KINDS = ("exp", "log", "sin_pi", "arcsin_over_pi")


def test_corpus_exists_and_covers_every_tool():
    assert len(CORPUS) >= 10
    text = "\n".join(p.read_text() for p in CORPUS)
    for tool in ("seg", "point", "line", "circle", "intersect", "meanprop",
                 "fourthprop", "ra", "rra", "bisect", "anglesect"):
        assert f"{tool}(" in text, tool


def test_parse_examples():
    prog = parse("let a = seg(2); let b = seg(8); let m = meanprop(a,b); emit m;")
    assert len(prog.statements) == 4
    assert prog.statements[-1].names == ("m",)
    prog = parse("let p = ra(1,2); emit p;")
    assert prog.statements[0].call.tool == "ra"


def test_parse_gives_each_statement_call_and_argument_its_span():
    prog = parse("let a = seg(2);\n  let b =\n meanprop(a,\t3/4); emit a, b;")
    assert prog.statements == (
        LetStmt("a", Call("seg", (Arg("rat", F(2), Span(1, 13)),), Span(1, 9)), Span(1, 1)),
        LetStmt("b", Call("meanprop", (Arg("name", "a", Span(3, 11)),
                                       Arg("rat", F(3, 4), Span(3, 14))), Span(3, 2)), Span(2, 3)),
        EmitStmt(("a", "b"), Span(3, 20)),
    )
    assert [type(a.value) for a in prog.statements[1].call.args] == [str, F]


def test_parse_missing_semicolon_span():
    with pytest.raises(DslSyntaxError) as ei:
        parse("let a = seg(2) emit a;")
    assert ei.value.span == Span(1, 16)


def test_parse_duplicate_and_unbound():
    with pytest.raises(DslSemanticError):
        parse("let a = seg(2); let a = seg(3); emit a;")
    with pytest.raises(DslSemanticError):
        parse("let a = seg(b); emit a;")
    with pytest.raises(DslSemanticError):
        parse("let a = seg(2); emit c;")


def test_parse_bad_tool_and_arity():
    with pytest.raises(DslSyntaxError):
        parse("let a = frobnicate(2); emit a;")
    prog = parse("let a = seg(2); let b = meanprop(a); emit b;")
    with pytest.raises(DslSemanticError):
        compile_program(prog)


def test_argument_kind_mismatch():
    prog = parse("let a = seg(2); let l = line(a, a); emit l;")
    with pytest.raises(DslSemanticError):
        compile_program(prog)


def test_compile_meanprop_value():
    res = compile_program(parse("let a = seg(2); let b = seg(8); let m = meanprop(a,b); emit m;"))
    assert res.values["m"].is_rat(4)


def test_compile_trisection_y_is_half():
    res = compile_program(parse("let p = ra(1, 2); emit p;"))
    y = res.values["p.y"]
    assert y.is_rat(F(1, 2))
    assert transcendence_rules(y).status == "rational"


def test_compile_rra_third_transcendental():
    src = ("let y2 = seg(8/9); let u = seg(1); let x = meanprop(y2, u);"
           "let p = point(x, 1/3); let L = rra(p); emit L;")
    res = compile_program(parse(src))
    L = res.values["L"]
    assert to_text(L) == "(2 * arcsin_over_pi(1/3))"
    assert transcendence_rules(L).status == "transcendental"


def test_node_kind_discipline():
    # no ra/rra/anglesect statements -> no exp/log/sin_pi/arcsin nodes
    for path in CORPUS:
        src = path.read_text()
        if any(t in src for t in ("ra(", "rra(", "anglesect(")):
            continue
        res = compile_program(parse(src))
        for e in res.values.values():
            for node in e.walk():
                assert node.kind not in SINPI_KINDS, (path.name, to_text(e))


def test_roundtrip_corpus_at_2_to_30():
    for path in CORPUS:
        res = compile_program(parse(path.read_text()))
        report = verify_roundtrip(res, 30)
        assert report["precision_bits"] == 30, path.name


def _fraction_width_text(nv: CInterval, sv: CInterval) -> str:
    """The reference: the larger exact width as a Fraction, then as a float."""
    return str(float(max(nv.width, sv.width)))


def test_roundtrip_widths_of_the_corpus_are_the_fraction_widths(monkeypatch):
    pairs = []
    width_text = dsl._width_text
    monkeypatch.setattr(dsl, "_width_text", lambda nv, sv: pairs.append((nv, sv)) or
                        width_text(nv, sv))
    for path in CORPUS:
        verify_roundtrip(compile_program(parse(path.read_text())), 30)
    assert pairs
    for nv, sv in pairs:
        assert width_text(nv, sv) == _fraction_width_text(nv, sv)


@st.composite
def _intervals(draw, scale: int) -> CInterval:
    """Parts of width up to about 2^(scale + 80), with zero widths."""
    def part():
        lo = Dyadic.new(draw(st.integers(-10**30, 10**30)), draw(st.integers(-1200, 40)))
        width = Dyadic.new(draw(st.integers(0, 1 << 70)), scale + draw(st.integers(-40, 10)))
        return RInterval(lo, lo + width)
    return CInterval(part(), draw(st.one_of(st.just(RInterval.zero()), st.builds(part))))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_roundtrip_width_text_matches_the_fraction_formula(data):
    # subnormal floats (below 2^-1022), rounding to 0, and normal ones
    scale = data.draw(st.sampled_from([-1150, -1110, -1080, -200, -60, 0]))
    nv, sv = data.draw(_intervals(scale)), data.draw(_intervals(scale))
    assert dsl._width_text(nv, sv) == _fraction_width_text(nv, sv)


def test_roundtrip_width_text_rounds_a_subnormal_width_once():
    # 2^-1075 (1 + 2^-60): rounded to 53 bits first it is 2^-1075, a tie that rounds to 0.0
    tiny = CInterval.real(RInterval(Dyadic.new(0), Dyadic.new((1 << 60) + 1, -1135)))
    point = CInterval.from_int(1)
    assert dsl._width_text(tiny, point) == "5e-324" == _fraction_width_text(tiny, point)


def test_roundtrip_detects_corruption():
    res = compile_program(parse(
        "let a = seg(2); let b = seg(8); let m = meanprop(a,b); emit m;"))
    st, value = res.steps[1]  # let b = seg(8)
    (arg,) = st.call.args
    tampered = st.call._replace(args=(arg._replace(value=F(9)),))
    res.steps[1] = (st._replace(call=tampered), value)
    with pytest.raises(MismatchError) as ei:
        verify_roundtrip(res, 30)
    assert "m" in ei.value.names


def test_roundtrip_stops_at_the_precision_ceiling(monkeypatch):
    res = compile_program(parse("let a = seg(2); let m = meanprop(a, 3); emit m;"))
    monkeypatch.setenv("QX_PRECISION_CEILING", "256")
    verify_roundtrip(res, 100)
    with pytest.raises(MaxPrecision, match="precision ceiling of 256 bits"):
        verify_roundtrip(res, 300)


def _rotation_chain(k: int) -> str:
    """p_i is the far meeting point of the circle about p_{i-1} through o with
    the circle of radius 3/2 about o: a rotation by 60 degrees, then back."""
    lines = ["let o = point(0, 0);", "let q = point(3/2, 0);", "let c = circle(o, q);",
             "let p0 = point(3/2, 0);"]
    for i in range(1, k + 1):
        lines += [f"let d{i} = circle(p{i - 1}, o);", f"let p{i} = intersect(d{i}, c, 1);"]
    return "\n".join(lines + [f"emit p{k};"])


def test_rotation_chain_picks_the_same_point_at_every_step():
    # odd steps tie the two candidates in x, so index 1 is the upper one. A
    # failure reports its message only: pytest would print the values, and
    # their text grows about 550-fold per step
    for k in range(1, 13):
        try:
            res = compile_program(parse(_rotation_chain(k)))
            verify_roundtrip(res, 30)
        except QxError as exc:
            pytest.fail(f"k = {k}: {type(exc).__name__}: {exc}", pytrace=False)
        ctx = res.ctx
        if k % 2:
            want = (ctx.div(3, 4), ctx.div(ctx.mul(3, ctx.sqrt(3)), 4))
        else:
            want = (ctx.rat(F(3, 2)), ctx.rat(0))
        got = (res.values[f"p{k}.x"], res.values[f"p{k}.y"])
        signs = [sign(ctx.sub(g, w)) for g, w in zip(got, want)]
        assert signs == [0, 0], k


def test_repr_of_a_deep_value_is_bounded_and_builds_no_full_text(monkeypatch):
    res = compile_program(parse(_rotation_chain(3)))
    y = res.values["p3.y"]
    length = fold(y, "text length", lambda n, kids: sum(kids) + len(
        expr._text_node(n, [""] * len(n.children))))
    assert length > 9 * 10 ** 6  # 9.6 million characters of canonical text

    def refuse(e):
        raise AssertionError("repr built the full text")
    monkeypatch.setattr(expr, "to_text", refuse)
    text = repr(y)
    assert len(text) <= 200 and text.startswith("<Expr (") and text.endswith("...>")
    assert y not in res.ctx._memos["to_text"]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 9), st.integers(2, 9),
       st.booleans())
def test_intersections_tied_in_x_are_ordered_by_y(a, b, c, g, swap):
    # centres (sqrt(a), h) and (sqrt(b), h) on one horizontal line, h = sqrt(g*sqrt(c+1))
    first, second = ("cb", "ca") if swap else ("ca", "cb")
    source = f"""
        let r = meanprop({c + 1}, 1); let h = meanprop(r, {g});
        let xa = meanprop({a}, 1); let xb = meanprop({a + b}, 1);
        let pa = point(xa, h); let pb = point(xb, h);
        let ca = circle(pa, pb); let cb = circle(pb, pa);
        let lo = intersect({first}, {second}, 0); let hi = intersect({first}, {second}, 1);
        emit lo, hi;"""
    res = compile_program(parse(source))
    verify_roundtrip(res, 30)
    v, ctx = res.values, res.ctx
    assert sign(ctx.sub(v["hi.x"], v["lo.x"])) == 0
    assert sign(ctx.sub(v["hi.y"], v["lo.y"])) == 1


def _signature(prog):
    """The program without its spans: what a print/parse round trip keeps."""
    return tuple(("let", st.name, st.call.tool, tuple((a.kind, str(a.value)) for a in st.call.args))
                 if isinstance(st, LetStmt) else ("emit", st.names) for st in prog.statements)


def test_pretty_print_parse_idempotent():
    for path in CORPUS:
        prog = parse(path.read_text())
        printed = pretty_print(prog)
        again = parse(printed)
        assert _signature(again) == _signature(prog)
        assert pretty_print(again) == printed


def test_emit_line_rejected():
    prog = parse("let o = point(0,0); let u = point(1,0); let l = line(o,u); emit l;")
    with pytest.raises(DslSemanticError):
        compile_program(prog)


def test_geometry_error_carries_span():
    prog = parse("let a = seg(2); let b = seg(2); let z = fourthprop(a, b, b); emit z;")
    res = compile_program(prog)  # b = c trivial case works
    assert res.values["z"].is_rat(2)
    bad = parse("let o = point(0,0); let u = point(1,0); let c = circle(o, u);"
                "let v = point(2, 0); let w = point(2, 1); let l = line(v, w);"
                "let p = intersect(l, c); emit p;")
    from qx.errors import NoIntersection
    with pytest.raises(NoIntersection) as ei:
        compile_program(bad)
    assert getattr(ei.value, "span", None) is not None


def test_negative_coordinates():
    res = compile_program(parse(
        "let p = point(-1, -1/2); let q = point(1, 1/2); let l = line(p, q);"
        "let o = point(0, 0); let u = point(0, 1); let v = line(o, u);"
        "let m = intersect(l, v); emit m;"))
    assert res.values["m.x"].is_rat(0)
    assert res.values["m.y"].is_rat(0)


def test_degenerate_line_rejected():
    from qx.errors import Coincident
    with pytest.raises(Coincident):
        compile_program(parse("let o = point(1, 2); let l = line(o, o); emit o;"))


def test_meanprop_chain_of_1500_at_the_default_recursion_limit():
    # s_i = sqrt(2 * s_(i-1)) from 3 tends to 2; the DAG is 3000 nodes deep
    n = 1500
    lines = ["let s0 = seg(3);"]
    lines += [f"let s{i} = meanprop(s{i - 1}, 2);" for i in range(1, n + 1)]
    result = compile_program(parse("\n".join(lines + [f"emit s{n};"]) + "\n"))
    assert verify_roundtrip(result)["names"] == [f"s{n}"]
    value = result.values[f"s{n}"]
    enc = value.enclosure(F(1, 1 << 64))
    assert abs(enc.re.mid().to_fraction() - 2) < F(1, 1 << 60)
    assert to_text(value).startswith("sqrt((sqrt((")


def _interned(src: str) -> int:
    ctx = Context()
    compile_program(parse(src), ctx)
    return len(ctx._table)


def _meanprop_chain(n: int) -> str:
    lines = ["let s0 = seg(2);"]
    lines += [f"let s{i} = meanprop(s{i - 1}, 3/2);" for i in range(1, n + 1)]
    return "\n".join(lines + [f"emit s{n};"]) + "\n"


def test_compile_interns_only_the_nodes_of_the_values():
    # each meanprop step adds its product and its square root, nothing drawn
    counts = [_interned(_meanprop_chain(n)) for n in range(1, 9)]
    assert [b - a for a, b in zip(counts, counts[1:])] == [2] * 7
    # the base -1, the literals 3, 2 and 4, then a*c = 12 and 12/2 = 6
    assert _interned("let x = fourthprop(3, 2, 4); emit x;") == 6


@pytest.mark.parametrize("source, rendered", [
    ("let a = seg(1);\r\n# c\r\nlet b = seg(2)\r\nemit b;",
     "error: 4:1: expected ';' after the tool call, found 'emit' (hint: insert ';')"),
    ("let a = seg(1);\n\tlet b = seg(1);\f emit a;", "error: 2:17: unexpected character '\\x0c'"),
    ("let a = seg(1);\vemit a;", "error: 1:16: unexpected character '\\x0b'"),
    ("# only\n\n  ", "error: 3:3: empty program"),
    ("let a = seg(1);\n# x \f y\nemit a, c;", "error: 3:9: unbound name 'c'"),
], ids=["crlf-and-comment", "form-feed", "vertical-tab", "empty", "form-feed-in-comment"])
def test_diagnostics_name_the_line_and_column_of_the_offending_token(tmp_path, source, rendered):
    # whitespace is exactly space, tab, CR and LF; a comment runs to the end of its line
    assert _compile_exit(tmp_path, source)[1] == rendered + "\n"


@pytest.mark.parametrize("source, rendered", [
    ("let s = seg(\u0663);\nemit s;", "error: 1:13: unexpected character '\u0663'"),
    ("let s = seg(1/\uff12);\nemit s;", "error: 1:14: unexpected character '/'"),
], ids=["arabic-indic-three", "fullwidth-two"])
def test_numbers_are_ascii_digits(tmp_path, source, rendered):
    assert _compile_exit(tmp_path, source) == (3, rendered + "\n")


# --- counter gates on the front ends ----------------------------------------------------

_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _bench_expression_texts(monkeypatch) -> list[str]:
    """The texts of every bench digits and classify family, for three seeds."""
    monkeypatch.syspath_prepend(str(_WORKLOADS.parent))  # workloads imports bench's oracles
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    texts = []
    for seed in range(3):
        rng = random.Random(seed)
        texts += [family[1] for family in workloads.digit_families(rng)]
        texts += [family[1] for family in workloads.classify_families(rng)]
    return texts


class _CountingPattern:
    """A token pattern that records each source it is run over."""

    def __init__(self, pattern):
        self.pattern, self.scanned = pattern, []

    def finditer(self, source):
        self.scanned.append(source)
        return self.pattern.finditer(source)


def test_each_source_is_scanned_once(monkeypatch):
    texts = _bench_expression_texts(monkeypatch)
    qdx = _CountingPattern(dsl._TOKEN_RE)
    expression = _CountingPattern(exprtext._TOKEN)
    monkeypatch.setattr(dsl, "_TOKEN_RE", qdx)
    monkeypatch.setattr(exprtext, "_TOKEN", expression)
    sources = [path.read_text() for path in CORPUS]
    for source in sources:
        parse(source)
    for text in texts:
        parse_expr(text, Context())
    assert qdx.scanned == sources
    assert expression.scanned == texts


def test_the_front_ends_build_no_fraction_from_text(monkeypatch):
    texts = _bench_expression_texts(monkeypatch)
    sources = [path.read_text() for path in CORPUS]
    from_text = []
    new = F.__new__

    def spy(cls, numerator=0, denominator=None, **kwargs):
        if isinstance(numerator, str):
            from_text.append(numerator)
        return new(cls, numerator, denominator, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(spy))
    assert F("1/3") == F(1, 3) and from_text == ["1/3"]  # the spy sees a text
    from_text.clear()
    for source in sources:
        parse(source)
    for text in texts + ["1.25 + 0.5*sqrt(2)", "007.0700"]:
        parse_expr(text, Context())
    assert from_text == []


def test_a_10000_deep_sqrt_nest_parses_with_one_node_per_level():
    assert sys.getrecursionlimit() <= 1000
    ctx = Context()
    before = len(ctx._table)
    node = parse_expr("sqrt(" * 10_000 + "2" + ")" * 10_000, ctx)
    assert len(ctx._table) == before + 1 + 10_000  # the literal 2, then one sqrt per level
    for _ in range(10_000):
        assert node.kind == SQRT
        (node,) = node.children
    assert node.is_rat(2)


# --- diagnostics through `qx compile`, and the tool table ------------------------------

def _compile_exit(tmp_path, source: str) -> tuple[int, str]:
    """qx compile's exit code and stderr for source."""
    path = tmp_path / "prog.qdx"
    path.write_text(source)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["compile", str(path)])
    return code, err.getvalue()


_CIRCLES = ("let o = point(0, 0);\nlet u = point(1, 0);\n"
            "let c = circle(o, u);\nlet d = circle(u, o);\n")


@pytest.mark.parametrize("source, code, rendered", [
    ("let seg = seg(1);\nemit seg;\n", 3, "error: 1:5: 'seg' is reserved"),
    ("let a = seg(1);\nlet b = seg(3/0);\nemit b;\n", 3,
     "error: 2:13: rational literal with denominator 0"),
    ("let a = seg(1);\nlet b = meanprop(a, );\nemit b;\n", 3,
     "error: 2:21: expected an argument, found ')'"),
    ("let a = seg(1);\nemit ;\n", 3, "error: 2:6: expected a name to emit"),
    (_CIRCLES + "let p = intersect(c, d, 1/2);\nemit p;\n", 4,
     "error: 5:25: intersection index must be 0 or 1"),
    (_CIRCLES + "let p = intersect(c, d, -1);\nemit p;\n", 4,
     "error: 5:25: intersection index must be 0 or 1"),
    (_CIRCLES + "let p = intersect(c, d, 2);\nemit p;\n", 4,
     "error: 5:9: intersection produced 2 point(s); index 2 is out of range"),
    ("let o = point(0, 0);\nlet u = point(1, 0);\nlet v = point(0, 1);\nlet l = line(o, u);\n"
     "let m = line(o, v);\nlet p = intersect(l, m, 1);\nemit p;\n", 4,
     "error: 6:9: intersection produced 1 point(s); index 1 is out of range"),
    ("let p = point(0, 2);\nlet b = bisect(p);\nemit b;\n", 5,
     "error: 2:9: x^2 + y^2 - 1 is provably nonzero for (0, 2)"),
    ("let p = point(0, 2);\nlet b = rra(p);\nemit b;\n", 5,
     "error: 2:9: x^2 + y^2 - 1 is provably nonzero for (0, 2)"),
    ("let p = ra(1, 3);\nlet q = anglesect(p, 2, -1);\nemit q;\n", 5,
     "error: 2:9: ratio complement must be positive, got -1"),
], ids=["reserved-name", "zero-denominator", "no-argument", "no-emit-name", "index-1/2",
        "index-negative", "index-past-two", "index-past-one", "bisect-off-circle",
        "rra-off-circle", "anglesect-negative-ratio"])
def test_compile_diagnostics_name_the_message_the_span_and_the_exit_code(
        tmp_path, source, code, rendered):
    assert _compile_exit(tmp_path, source) == (code, rendered + "\n")


def test_ra_anglesect_and_bisect_of_a_point_bind_unit_points():
    res = compile_program(parse(
        "let p = ra(3, 4); let q = anglesect(p, 1, 2); let b = bisect(q); let o = point(0, 1);"
        "let c = bisect(o); let s = bisect(1); emit s;"))
    kinds = {st.name: type(value).__name__ for st, value in res.steps}
    assert kinds == {"p": "UnitPoint", "q": "UnitPoint", "b": "UnitPoint", "o": "GPoint",
                     "c": "UnitPoint", "s": "Expr"}


def test_each_tool_names_a_public_geometry_function_looked_up_when_its_step_runs(monkeypatch):
    for tool, (kinds, name) in dsl._TOOLS.items():
        assert not name.startswith("_") and callable(getattr(qx.geometry, name)), tool
    source = Path(dsl.__file__).read_text()
    assert re.findall(r"\bG\._\w+", source) == []
    # a geometry function replaced by name, as the bench tracer does, is the one called
    calls = []
    for name in ("line", "circle", "intersect"):
        original = getattr(qx.geometry, name)
        monkeypatch.setattr(qx.geometry, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    compile_program(parse(_CIRCLES + "let p = intersect(c, d, 1);\nemit p;\n"))
    assert calls == ["circle", "circle", "intersect"]


def _tool_production(text: str) -> list[str]:
    """The alternatives of the `TOOL :=` production in a grammar block."""
    m = re.search(r"TOOL\s*:=((?:\s*\|?\s*[a-z]+)+)", text)
    return re.findall(r"[a-z]+", m.group(1))


def test_the_grammars_in_the_readme_and_the_dsl_docstring_list_exactly_the_tools():
    assert _tool_production(README.read_text()) == list(dsl._TOOLS)
    assert _tool_production(dsl.__doc__) == list(dsl._TOOLS)
