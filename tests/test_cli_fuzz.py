"""Fuzz the CLI boundary: every input ends in a documented exit code.

`qx.cli.main` runs in-process on random expressions and random .qdx
programs. A return value, or the SystemExit code of a usage error, outside
{0, 2, 3, 4, 5} fails the test, and so does any other exception escaping
`main` (that is a traceback on the command line), and so does a
DomainStraddle reaching `main`'s error boundary: a straddle only asks for
more bits, so it is never a verdict. A real value that `eval` prints is
checked digit by digit against mpmath at twice the precision, plus the digits
a cancellation within qx's precision ceiling can cost. A program that
compiles must also verify, and each decimal it emits is checked the same way
against bench's mpmath interpreter of .qdx programs. An expression, one
that starts with "-" included, reads the same before or after --precision
as after "--".
"""
import importlib.util
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qx.cli
from qx.cli import main
from qx.errors import DomainStraddle
from qx.interval import precision_ceiling

DOCUMENTED = {0, 2, 3, 4, 5}
FUZZ = settings(derandomize=True, deadline=None, max_examples=60)


def run_cli(argv) -> tuple[int, str]:
    """The exit code, or the SystemExit code of a usage error, and stdout.

    Fails when a DomainStraddle reaches `qx.cli._failure`, the error boundary.
    """
    out = io.StringIO()
    failure, seen = qx.cli._failure, []

    def spy(exc, args):
        seen.append(exc)
        return failure(exc, args)
    qx.cli._failure = spy
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        qx.cli._failure = failure
    assert not any(isinstance(exc, DomainStraddle) for exc in seen), (argv, seen)
    return code, out.getvalue()


def exit_code(argv) -> int:
    return run_cli(argv)[0]


# --- the expression grammar (qx.exprtext) -----------------------------------------

_number = st.one_of(st.integers(0, 12).map(str),
                    st.sampled_from(["0.5", "2.25", "1/3", "-2", "10/7"]))
# sin(pi/7) - NEAR is about 6e-50: at 64 bits its reciprocal divides by an
# enclosure holding 0, so every decision on it must take more bits
NEAR = "4338837391175581204757683328483587546099907277874/" + "1" + "0" * 49
TINY = f"(sin_pi(1/7) - {NEAR})"
_atom = st.one_of(_number, st.sampled_from(["pi", "e", "i", TINY]))


def _compound(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        pair.map(lambda ab: f"({ab[0]} + {ab[1]})"),
        pair.map(lambda ab: f"({ab[0]} - {ab[1]})"),
        pair.map(lambda ab: f"{ab[0]} * {ab[1]}"),
        pair.map(lambda ab: f"{ab[0]} / {ab[1]}"),
        inner.map(lambda a: f"-{a}"),
        st.tuples(st.sampled_from(["sqrt", "exp", "ln", "sin_pi", "arcsin_over_pi"]),
                  inner).map(lambda fa: f"{fa[0]}({fa[1]})"),
        pair.map(lambda ab: f"pow({ab[0]}, {ab[1]})"),
        pair.map(lambda ab: f"log({ab[0]}; {ab[1]})"),
        st.tuples(inner, st.integers(-2, 2)).map(lambda ak: f"ln({ak[0]}; {ak[1]})"),
        st.integers(0, 6).map(lambda n: f"clavius_x({n})"),
        st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
                  st.integers(-3, 3), st.integers(-4, 4)).map(
            lambda c: f"polyroot({', '.join(map(str, c[0]))}; {c[1]}, {c[1] + c[2]})"),
    )


expressions = st.recursive(_atom, _compound, max_leaves=6)


@FUZZ
@given(expressions, st.sampled_from([["eval"], ["classify"], ["classify", "--json"]]),
       st.integers(0, 30))
def test_expression_commands_end_in_a_documented_exit_code(text, command, digits):
    assert exit_code(command + ["--precision", str(digits), "--", text]) in DOCUMENTED


# an expression that starts with one "-" is a value, not an option, wherever it stands
@FUZZ
@given(st.one_of(expressions.map(lambda t: f"-{t}"), expressions),
       st.sampled_from([["eval"], ["classify", "--json"]]), st.integers(0, 30))
def test_an_expression_reads_the_same_with_or_without_a_double_dash(text, command, digits):
    assume(not text.startswith("--"))  # a long option's form: such a text needs the "--"
    precision = ["--precision", str(digits)]
    want = run_cli(command + precision + ["--", text])
    assert want[0] in DOCUMENTED
    assert run_cli(command + precision + [text]) == want
    assert run_cli(command[:1] + [text] + command[1:] + precision) == want


# --- certified digits against an independent evaluation ------------------------------

_ORACLES = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("bench_oracles", _ORACLES)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

_NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _mpmath_value(text: str):
    """The fuzz grammar's text evaluated by mpmath, on qx's principal branches.

    The texts the strategy draws parse the same way in Python once ';' is ','
    and every number is an exact mpf: unary minus binds tighter than * and /,
    and both grammars associate to the left.
    """
    def ln(x, k=0):
        return mpmath.log(x) + 2j * mpmath.pi * k

    names = {"N": mpmath.mpf, "pi": mpmath.pi, "e": mpmath.e, "i": mpmath.mpc(0, 1),
             "sqrt": mpmath.sqrt, "exp": mpmath.exp, "ln": ln,
             "log": lambda x, b, k=0: ln(x, k) / mpmath.log(b),
             "pow": lambda b, x: mpmath.exp(x * mpmath.log(b)),
             "sin_pi": lambda x: mpmath.sin(mpmath.pi * x),
             "arcsin_over_pi": lambda x: mpmath.asin(x) / mpmath.pi}
    source = _NUMBER.sub(lambda m: f"N('{m.group()}')", text).replace(";", ",")
    return eval(source, {"__builtins__": {}}, names)


# qx prints digits only from an enclosure it reached within its precision
# ceiling, so a reference this many digits finer survives any cancellation qx did
CANCELLATION_DIGITS = precision_ceiling() * 30103 // 100000 + 1


def run_eval(text: str, digits: int):
    code, out = run_cli(["eval", "--precision", str(digits), "--", text])
    return code, out.strip()


@settings(FUZZ, max_examples=300)  # about a third of the draws print a real value
@given(expressions, st.integers(0, 30))
def test_eval_digits_agree_with_mpmath_at_twice_the_precision(text, digits):
    code, printed = run_eval(text, digits)
    assert code in DOCUMENTED
    # polyroot and clavius_x have no closed form here; "i" marks a nonreal print
    if code != 0 or "polyroot" in text or "clavius_x" in text or printed.endswith("i"):
        return
    with mpmath.workdps(2 * digits + 20 + CANCELLATION_DIGITS):
        try:
            ref = mpmath.mpmathify(_mpmath_value(text))
        except (ZeroDivisionError, ValueError):
            return
        if mpmath.im(ref) != 0:
            return
        assert oracles.decimal_agrees(printed, mpmath.re(ref), digits), (text, printed, ref)


# --- the construction language (qx.dsl) ------------------------------------------

# argument kinds of each tool: "num" is a rational or a segment, "point" a
# point, "curve" a line or circle, "index" the optional intersection index
_TOOLS = {
    "seg": (("num",), "seg"), "point": (("num", "num"), "point"),
    "line": (("point", "point"), "line"), "circle": (("point", "point"), "circle"),
    "intersect": (("curve", "curve", "index"), "point"),
    "meanprop": (("num", "num"), "seg"), "fourthprop": (("num", "num", "num"), "seg"),
    "ra": (("num", "num"), "point"), "rra": (("point",), "seg"),
    "bisect": (("num",), "seg"), "anglesect": (("point", "num", "num"), "point"),
}
_rational = st.tuples(st.integers(-3, 6), st.integers(1, 4)).map(
    lambda pq: str(pq[0]) if pq[1] == 1 else f"{pq[0]}/{pq[1]}")


@st.composite
def programs(draw):
    kinds: dict[str, str] = {}
    lines = []
    for n in range(draw(st.integers(1, 6))):
        tool = draw(st.sampled_from(sorted(_TOOLS)))
        wanted, built = _TOOLS[tool]
        args = []
        for kind in wanted:
            if kind == "index":
                if draw(st.booleans()):
                    args.append(str(draw(st.integers(0, 2))))
                continue
            fits = sorted(name for name, k in kinds.items()
                          if k == kind or (kind == "num" and k == "seg")
                          or (kind == "curve" and k in ("line", "circle")))
            if fits and draw(st.integers(0, 3)):
                args.append(draw(st.sampled_from(fits)))
            elif kinds and not draw(st.integers(0, 5)):
                args.append(draw(st.sampled_from(sorted(kinds))))  # possibly ill-typed
            else:
                args.append(draw(_rational))
        name = f"v{n}"
        kinds[name] = built
        lines.append(f"let {name} = {tool}({', '.join(args)});")
    emitted = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=3,
                            unique=True))
    lines.append(f"emit {', '.join(emitted)};")
    source = "\n".join(lines) + "\n"
    if draw(st.integers(0, 4)):
        return source
    cut = draw(st.integers(0, len(source) - 1))  # one character dropped: syntax errors
    return source[:cut] + source[cut + 1:]


COMPILE_DIGITS = 12  # qx compile's default --precision


@settings(FUZZ, max_examples=300)  # about one draw in ten compiles
@given(programs(), st.sampled_from([[], ["--json"]]))
def test_compile_ends_in_a_documented_exit_code(tmp_path_factory, source, flags):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "p.qdx"
    path.write_text(source)
    code, out = run_cli(["compile", str(path)] + flags)
    assert code in DOCUMENTED
    if code != 0:
        return
    # the round trip closes: the certificate verifies, and its decimals are certified
    cert = work / "p.json"
    cert.write_text(out)
    assert run_cli(["verify", str(cert)]) == (0, "certificate verified\n"), source
    emits = json.loads(out)["emits"]
    dps = 2 * COMPILE_DIGITS + 10
    ref = oracles.qdx_reference(source, dps)
    assert sorted(emits) == sorted(ref), source
    with mpmath.workdps(dps):
        for name, sub in emits.items():
            assert oracles.decimal_agrees(sub["decimal"], ref[name], COMPILE_DIGITS), (
                source, name, sub["decimal"], ref[name])


# --- straddling inputs: more bits decide them, and no straddle reaches main --------------

def _tiny():
    """sin(pi/7) - NEAR at the working precision."""
    num, den = NEAR.split("/")
    return mpmath.sin(mpmath.pi / 7) - mpmath.mpf(num) / mpmath.mpf(den)


STRADDLING = [(f"sin_pi(1/{TINY})", lambda: mpmath.sin(mpmath.pi / _tiny())),
              (f"polyroot(-2, 1/{TINY}; 0, 1)", lambda: 2 * _tiny())]


@pytest.mark.parametrize("text, reference", STRADDLING, ids=["sin_pi", "polyroot"])
def test_a_straddling_argument_is_evaluated_at_more_bits(text, reference):
    # a one-shot 64-bit evaluation of 1/TINY divides by an enclosure holding 0
    digits = 60
    code, printed = run_eval(text, digits)
    assert code == 0, printed
    with mpmath.workdps(2 * digits + 20 + CANCELLATION_DIGITS):
        assert oracles.decimal_agrees(printed, reference(), digits), (text, printed)
    assert exit_code(["classify", text]) in DOCUMENTED


# q is where the unit circle meets the ray towards `far`, the point at which the
# line through (0, NEAR) and (cos(pi/7), sin(pi/7)) crosses y = -1: its height,
# about 1e-49, divides by TINY, and so does the segment t = rra(q)
NEAR_PROGRAM = f"""let o = point(0, 0);
let u = point(1, 0);
let p = ra(2, 5);
let a = point(0, {NEAR});
let tilted = line(a, p);
let b = point(0, -1);
let c = point(1, -1);
let low = line(b, c);
let far = intersect(tilted, low);
let ray = line(o, far);
let unit = circle(o, u);
let q = intersect(ray, unit, 1);
let t = rra(q);
"""


@pytest.mark.parametrize("tail", [
    "emit t, q;",
    "let s = seg(t);\nemit s;",
    "let m = meanprop(t, 1);\nemit m;",
    "let r = ra(t, 1);\nemit r;",
    "let f = fourthprop(1, t, 1);\nlet r = ra(f, 1);\nemit r;",
], ids=["rra", "seg", "meanprop", "ra", "fourthprop"])
def test_a_segment_built_from_a_near_cancelling_value_compiles(tmp_path, tail):
    source = NEAR_PROGRAM + tail + "\n"
    path = tmp_path / "near.qdx"
    path.write_text(source)
    code, out = run_cli(["compile", str(path)])
    assert code == 0, source
    cert = tmp_path / "near.json"
    cert.write_text(out)
    assert run_cli(["verify", str(cert)]) == (0, "certificate verified\n")
    dps = 2 * COMPILE_DIGITS + 10 + CANCELLATION_DIGITS
    ref = oracles.qdx_reference(source, dps)
    with mpmath.workdps(dps):
        for name, sub in json.loads(out)["emits"].items():
            assert oracles.decimal_agrees(sub["decimal"], ref[name], COMPILE_DIGITS), (
                name, sub["decimal"], ref[name])
