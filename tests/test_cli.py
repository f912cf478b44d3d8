"""CLI tests: exit codes, certified digits, determinism, rendering, verify."""
import importlib.util
import io
import json
import math
import os
import random
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qx.cli
import qx.dsl
import qx.expr
import qx.geometry
import qx.interval
import qx.ladders
from qx.cli import main, rational
from qx.dyadic import Dyadic, fixed_point
from qx.expr import Context, Expr
from qx.interval import CInterval, RInterval
from qx.ladders import Relation

GOLDEN = sorted(Path(__file__).parent.glob("golden/*.json"))
CORPUS = Path(__file__).parent / "corpus"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_compile_ok_and_exit_zero():
    code, out, _ = run(["compile", str(CORPUS / "01_square_rectangle.qdx")])
    assert code == 0
    cert = json.loads(out)
    assert cert["meta"]["format"] == "qx-certificate/2"
    assert cert["nodes"] == ["4"] and cert["emits"]["m"]["node"] == 0
    assert cert["emits"]["m"]["verdict"]["status"] == "rational"


def test_exit_code_2_missing_file():
    code, _, err = run(["compile", "/nonexistent/nowhere.qdx"])
    assert code == 2 and "cannot read" in err


def test_exit_code_3_syntax(tmp_path):
    bad = tmp_path / "bad.qdx"
    bad.write_text("let a = seg(2) emit a;\n")
    code, _, err = run(["compile", str(bad)])
    assert code == 3 and "expected" in err


def test_exit_code_4_semantic_with_json_span(tmp_path):
    bad = tmp_path / "unbound.qdx"
    bad.write_text("let a = seg(2);\nemit zz;\n")
    code, _, err = run(["compile", str(bad), "--json"])
    assert code == 4
    payload = json.loads(err)
    assert payload["error"]["line"] == 2


def test_exit_code_5_domain(tmp_path):
    bad = tmp_path / "neg.qdx"
    bad.write_text("let a = seg(2);\nlet b = meanprop(a, a);\nlet c = fourthprop(a, a, a);\nemit c;\n")
    # domain error: arcsin out of range via eval instead
    code, _, err = run(["eval", "arcsin_over_pi(2)"])
    assert code == 5


def test_eval_certified_digits():
    code, out, _ = run(["eval", "sin_pi(2/5)", "--precision", "20"])
    assert code == 0
    # mpmath dps=60 oracle: 0.95105651629515357211643933...
    assert out.strip() == "0.95105651629515357211"


@pytest.mark.parametrize("text, decimal", [
    ("314/25", "12.56"),
    ("sqrt(3)*sqrt(12) - 6 - 1/2", "-0.5"),
    ("sqrt(3)*sqrt(12) - 6 - 1/3", "-0.333333333333"),
    ("sqrt(2)*sqrt(8) - 4", "0"),
], ids=["rational-node", "minus-half", "minus-third", "zero"])
def test_a_rational_verdict_prints_the_exact_decimal(text, decimal):
    # these enclosures straddle the value, so their endpoints agree on fewer digits
    code, out, err = run(["classify", text, "--json"])
    assert code == 0, err
    assert json.loads(out)["subject"]["decimal"] == decimal


def test_eval_ln_minus_one():
    code, out, _ = run(["eval", "ln(-1)", "--precision", "12"])
    assert code == 0
    assert re.fullmatch(r"0(\.0+)? \+ 3\.141592653589i", out.strip())


def test_eval_clavius_probe():
    code, out, _ = run(["eval", "clavius_x(20)", "--precision", "8"])
    assert code == 0
    assert out.strip().startswith("0.63661977")


def test_compile_determinism():
    path = str(CORPUS / "07_trisect_right.qdx")
    _, out1, _ = run(["compile", path])
    _, out2, _ = run(["compile", path])
    assert out1 == out2


def test_render_structure_and_determinism(tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    path = str(CORPUS / "01_square_rectangle.qdx")
    assert run(["render", path, "--out", str(out1)])[0] == 0
    assert run(["render", path, "--out", str(out2)])[0] == 0
    svg = out1.read_text()
    assert svg == out2.read_text()
    assert svg.count("<line") >= 3
    assert 'class="circle"' in svg


def test_render_bad_out_path():
    path = str(CORPUS / "01_square_rectangle.qdx")
    code, _, err = run(["render", path, "--out", "/nonexistent-dir/x.svg"])
    assert code == 2


def test_render_quadratrix_overlay_satisfies_equation(tmp_path):
    import math
    out = tmp_path / "q.svg"
    path = str(CORPUS / "01_square_rectangle.qdx")
    assert run(["render", path, "--out", str(out), "--with-curve", "quadratrix"])[0] == 0
    svg = out.read_text()
    m = re.search(r'class="curve quadratrix"[^>]*points="([^"]+)"', svg)
    assert m
    pts = [tuple(map(float, pair.split(","))) for pair in m.group(1).split()]
    assert len(pts) >= 2 * 640
    for x, y in pts[:: len(pts) // 97]:
        assert abs(y - x * math.tan(math.pi * y / 2)) < 1e-6


def test_ladder_cli_gs_case():
    code, out, _ = run(["ladder", "pow(-1, sqrt(2))", "--reduce", "--ascend"])
    assert code == 0
    cert = json.loads(out)
    assert cert["ascent"]["degree"] == 1
    assert cert["ascent"]["conditional"] is True
    assert cert["ascent"]["crosschecks"][0]["rule"] == "gelfond-schneider"


def test_ladder_cli_log_and_rational():
    code, out, _ = run(["ladder", "log(3; -1)"])
    cert = json.loads(out)
    assert [r["kind"] for r in cert["ladder"]["rungs"]] == ["exponential-algebraic"]
    code, out, _ = run(["ladder", "5/7", "--reduce", "--ascend"])
    cert = json.loads(out)
    assert cert["ladder"]["rungs"] == []
    assert cert["ascent"]["degree"] == 0


def test_reduce_alias():
    code, out, _ = run(["reduce", "pow(-1, sqrt(2))"])
    assert code == 0
    assert "reduced" in json.loads(out)


def test_report_determinism():
    _, out1, _ = run(["report", "spiral", "--kmax", "8"])
    _, out2, _ = run(["report", "spiral", "--kmax", "8"])
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["discrepancy"]["factor_between_readings"] == "2.000000"


def test_verify_golden_certificates():
    assert GOLDEN, "golden certificates must ship with the tests"
    for path in GOLDEN:
        code, out, err = run(["verify", str(path)])
        assert code == 0, (path.name, err)


# golden certificates in a format that compile no longer writes; verify still reads them
LEGACY_GOLDEN = {"compile_square_rectangle.json"}  # qx-certificate/1, emits as text

# the command line each other golden certificate was made with
GOLDEN_ARGV = {
    "classify_sin_2pi5.json": ["classify", "sin_pi(2/5)", "--json"],
    # its degree-48 witness goes through every witness step: a/t on a witness
    # with root 0, t + a, t*a, t/a, t - a, a - t and three square roots
    "classify_witness_steps.json": [
        "classify", "sqrt(sqrt(sqrt(7/2 - ((((((3 / sin_pi(2/7)) + 1/3) * 2) / 5) / 3) - 1/4))))",
        "--json"],
    "compile_square_rectangle_v2.json": ["compile", str(CORPUS / "01_square_rectangle.qdx")],
    "ladder_gs.json": ["ladder", "pow(-1, sqrt(2))", "--base", "-1", "--reduce", "--ascend"],
    "ladder_log3.json": ["ladder", "log(3; -1; 0)", "--base", "-1"],
    "ladder_logs_reduced.json": ["ladder", "((log(6; -1; 0) + log(2; -1; 0)) + log(3; -1; 0))",
                                 "--base", "-1", "--reduce", "--ascend"],
}


@pytest.mark.parametrize("path", [p for p in GOLDEN if p.name not in LEGACY_GOLDEN],
                         ids=lambda p: p.name)
def test_golden_certificate_regenerates_byte_for_byte(path):
    code, out, err = run(GOLDEN_ARGV[path.name])
    assert code == 0, err
    assert out.encode("utf-8") == path.read_bytes()


def test_verify_rejects_a_stored_decimal_the_enclosure_does_not_print(tmp_path):
    cert = json.loads((Path(__file__).parent / "golden" / "compile_square_rectangle.json").read_text())
    cert["emits"]["m"]["decimal"] = "7.5"  # the value is 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, _, err = run(["verify", str(bad)])
    assert code == 1
    assert "FAIL /emits/m/decimal: " in err


def test_verify_rejects_tampered_certificate(tmp_path):
    src = json.loads((Path(__file__).parent / "golden" / "classify_sin_2pi5.json").read_text())
    src["subject"]["verdict"]["status"] = "rational"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(src))
    code, _, err = run(["verify", str(bad)])
    assert code == 1 and "FAIL" in err


def test_eval_syntax_error_exit_3():
    code, _, err = run(["eval", "sin_pi(2/5"])
    assert code == 3
    code, _, err = run(["eval", "nosuchfn(3)"])
    assert code == 3


def test_classify_polyroot_low_precision_sound():
    code, out, _ = run(["classify", "polyroot(-2, 0, 0, 1; 1, 2)", "--json"])
    assert code == 0
    cert = json.loads(out)
    assert cert["subject"]["decimal"].startswith("1.2599210498")
    assert cert["subject"]["verdict"]["status"] == "algebraic"


def test_subprocess_determinism_across_hash_seeds(tmp_path):
    import subprocess
    import sys

    import qx
    path = str(CORPUS / "10_general_anglesect.qdx")
    # The child imports qx from where this process did (src/ or an install);
    # nothing else is forwarded, so QX_PRECISION_CEILING cannot leak in.
    import_root = str(Path(qx.__file__).resolve().parent.parent)
    outs = []
    for seed in ("1", "31337"):
        proc = subprocess.run(
            [sys.executable, "-m", "qx.cli", "compile", path],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed,
                 "PYTHONPATH": import_root},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_importing_qx_loads_no_record_machinery():
    """`import qx` loads no submodule, and `import qx.cli` none of dataclasses' imports."""
    import subprocess
    import sys

    import qx
    code = ("import sys; import qx; print(sorted(m for m in sys.modules if m.startswith('qx.')));"
            " import qx.cli; print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis',"
            " 'tokenize') if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(Path(qx.__file__).resolve().parent.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_render_spiral_overlay(tmp_path):
    out = tmp_path / "s.svg"
    path = str(CORPUS / "01_square_rectangle.qdx")
    assert run(["render", path, "--out", str(out), "--with-curve", "spiral"])[0] == 0
    svg = out.read_text()
    assert 'class="curve spiral"' in svg


def test_compile_domain_error_exit_5(tmp_path):
    prog = tmp_path / "miss.qdx"
    prog.write_text(
        "let o = point(0, 0);\nlet u = point(1, 0);\nlet c = circle(o, u);\n"
        "let v = point(3, 0);\nlet w = point(3, 1);\nlet l = line(v, w);\n"
        "let p = intersect(l, c);\nemit p;\n")
    code, _, err = run(["compile", str(prog)])
    assert code == 5 and "7:" in err  # span of the offending statement


def test_render_anglesector_program(tmp_path):
    out = tmp_path / "a.svg"
    assert run(["render", str(CORPUS / "10_general_anglesect.qdx"),
                "--out", str(out)])[0] == 0
    assert 'class="point"' in out.read_text()


def _timed_qx(argv, timeout=None):
    """qx run in a fresh interpreter: the finished process and its wall time in s.

    A run longer than `timeout` seconds raises subprocess.TimeoutExpired.
    """
    import subprocess
    import sys
    import time

    import qx
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qx.cli", *argv], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(Path(qx.__file__).resolve().parent.parent)},
        timeout=timeout,
    )
    return proc, time.perf_counter() - start


def test_eval_past_the_precision_ceiling_exits_5_without_traceback():
    proc, _ = _timed_qx(["eval", "sqrt(2)", "--precision", "20000"])
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "bits" in proc.stderr


def test_precision_above_the_ceiling_exits_5_before_building_the_target():
    # 10^-4000000 as an exact Fraction alone took seconds
    proc, seconds = _timed_qx(["eval", "pi", "--precision", "4000000"])
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "4096 bits" in proc.stderr
    assert seconds < 1


def test_spiral_report_past_the_ceiling_exits_5_before_any_stage():
    # stage k's secant rise is about 2^-k; the 4096-bit ceiling cannot separate it from 0
    proc, seconds = _timed_qx(["report", "spiral", "--kmin", "3", "--kmax", "100000"])
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "precision ceiling" in proc.stderr
    assert seconds < 2


@pytest.mark.parametrize("argv", [["eval", "pow(2, 8000000000)"],
                                  ["classify", "pow(2, sqrt(10000000000000000000000013))"]],
                         ids=["eval", "classify"])
def test_a_width_of_2_to_the_billions_fails_its_target_without_building_it(argv):
    # man*q*2^exp of such a width took 4.4 s of 1 GB shifts, or ran out of memory
    proc, seconds = _timed_qx(argv, timeout=60)
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "a width of 2^-" in proc.stderr and "not settled" in proc.stderr
    assert seconds < 2


def test_a_scan_of_a_coefficient_past_the_trial_bound_is_unknown_at_once():
    # the rational-root scan's divisors of a 20-digit prime took longer than 60 s
    proc, seconds = _timed_qx(["classify", "sin_pi(polyroot(-100000000000000000039, 0, 1; "
                                           "10000000000, 10000000001)/10000000000)"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "status=unknown" in proc.stdout
    assert seconds < 2


def test_a_scan_of_more_candidate_pairs_than_the_trial_bound_is_unknown_at_once():
    # x^2 - N, N the product of the first 20 primes: 2^20 candidate pairs, none scanned
    n = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71])
    r = math.isqrt(n)
    proc, seconds = _timed_qx(["classify", f"sin_pi(polyroot(-{n}, 0, 1; {r}, {r + 1}))"],
                              timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "status=unknown" in proc.stdout
    assert seconds < 2


def _mutate_removal_index(d):
    d["reduced"]["removals"][0]["index"] = 99


def _mutate_combo(j):
    def mutate(d):
        d["reduced"]["removals"][0]["combo"][0][0] = j
    return mutate


def _drop_constant(d):
    del d["reduced"]["removals"][0]["constant"]


@pytest.mark.parametrize("mutate, needle", [
    (_mutate_combo(7), "FAIL /reduced/removals/0/combo/0/0: stored 7,"),
    (_mutate_combo(-1), "FAIL /reduced/removals/0/combo/0/0: stored -1,"),
    (_mutate_removal_index, "FAIL malformed certificate: removal index 99"),
    (_drop_constant, "FAIL /reduced/removals/0/constant: stored nothing,"),
], ids=["combo-7", "combo-minus-1", "index-99", "dropped-key"])
def test_verify_malformed_ladder_certificate_fails_without_traceback(tmp_path, mutate, needle):
    cert = json.loads((Path(__file__).parent / "golden" / "ladder_logs_reduced.json").read_text())
    mutate(cert)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, _, err = run(["verify", str(bad)])
    assert code == 1
    assert needle in err
    assert "Traceback" not in err


def test_verify_rejects_a_removal_whose_relation_was_changed(tmp_path):
    cert = json.loads((Path(__file__).parent / "golden" / "ladder_logs_reduced.json").read_text())
    cert["reduced"]["removals"][0]["relation"]["coefficients"] = [3, 5, 7, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, _, err = run(["verify", str(bad)])
    assert code == 1
    assert "FAIL /reduced/removals/0/constant: " in err
    assert "FAIL /reduced/removals/0/combo/" in err


# every qx error class without subclasses, with the exit code the CLI gives it
EXIT_CODES = {
    "DivisionByZero": 5, "DomainStraddle": 5, "MaxPrecision": 5, "InvalidBase": 4,
    "NonRealArgument": 5, "OutOfDomain": 5, "ZeroPolynomial": 4, "UnsupportedNode": 4,
    "NotReduced": 4, "NonPositiveLength": 5, "NotOnUnitCircle": 5, "OutOfRange": 5,
    "DegenerateSecant": 5, "Coincident": 5, "NoIntersection": 5,
    "DslSyntaxError": 3, "DslSemanticError": 4, "MismatchError": 1,
}


def test_every_error_class_exits_with_its_code():
    from qx import errors
    from qx.cli import _failure

    def leaves(cls):
        subs = cls.__subclasses__()
        return [c for s in subs for c in leaves(s)] if subs else [cls]
    assert sorted(c.__name__ for c in leaves(errors.QxError)) == sorted(EXIT_CODES)
    for name, code in EXIT_CODES.items():
        cls = getattr(errors, name)
        if cls is errors.MismatchError:
            exc = cls(["x"])
        else:
            exc = cls("message")
        assert _failure(exc, None)[0] == code, name


@pytest.mark.parametrize("depth", [1500, 10_000])
def test_eval_of_a_deep_nest_prints_its_value_without_traceback(depth):
    import subprocess
    import sys

    import qx
    text = "sqrt(" * depth + "2" + ")" * depth  # 2^(2^-depth), at the default recursion limit
    proc = subprocess.run(
        [sys.executable, "-m", "qx.cli", "eval", text],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(Path(qx.__file__).resolve().parent.parent)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1.0000000000000000\n", "")


def test_verify_of_a_deeply_nested_certificate_exits_5_without_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, err = run_to_exit(["verify", str(path)])
    assert code == 5, err
    assert err.startswith("error: input nesting exceeds the depth limit")
    assert "Traceback" not in err


@pytest.mark.parametrize("witness", [[-4.9, 1.7], [-4, True], ["-4", "1"]],
                         ids=["float", "bool", "string"])
def test_verify_rejects_non_integer_witness(tmp_path, witness):
    cert = json.loads((Path(__file__).parent / "golden" / "compile_square_rectangle.json").read_text())
    cert["emits"]["m"]["verdict"]["witness"] = witness
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, _, err = run(["verify", str(bad)])
    assert code == 1
    assert "FAIL malformed certificate" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "classify"])
def test_polyroot_with_nonreal_coefficient_exits_5_without_traceback(command):
    import subprocess
    import sys

    import qx
    proc = subprocess.run(
        [sys.executable, "-m", "qx.cli", command, "polyroot(sqrt(-1), 1; -1, 1)"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(Path(qx.__file__).resolve().parent.parent)},
    )
    assert proc.returncode == 5, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "real" in proc.stderr


def run_to_exit(argv):
    """main's return value, or the code of the SystemExit of a usage error, with stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


_SEVENS = "7" * 2200


@pytest.mark.parametrize("argv, code, needle", [
    (["ladder", "x", "--base", "abc"], 2, "--base"),
    (["ladder", "pi", "--base", "1/0"], 2, "--base"),
    (["eval", "pi", "--precision", "-1"], 2, "--precision"),
    (["classify", "pi", "--precision", "-2"], 2, "--precision"),
    (["reduce", "log(6;-1)+log(2;-1)", "--relation-bits", "-1"], 2, "--relation-bits"),
    (["report", "spiral", "--kmin", "-2", "--kmax", "3"], 2, "--kmin"),
    (["report", "spiral", "--kmin", "5", "--kmax", "4"], 5, "two stages"),
    (["eval", "1" + "0" * 5000], 5, "4300 digits"),
    (["classify", f"{_SEVENS}*{_SEVENS}"], 5, "4300 digits"),
    (["eval", "pow(2,pow(2,pow(2,100)))"], 5, "size limit"),
    (["eval", "polyroot(-2, 0, 1; 2, 1)"], 3,
     "error: 1:25: selector bounds must be ordered low <= high"),
    (["classify", "polyroot(-2, 0, 1; 1, 2, 1, -1)"], 3,
     "error: 1:32: selector bounds must be ordered low <= high"),
    (["render", str(CORPUS / "07_trisect_right.qdx"), "--out", os.devnull, "--width", "0"], 2,
     "argument --width: expected a positive integer"),
    (["render", str(CORPUS / "07_trisect_right.qdx"), "--out", os.devnull, "--height", "0"], 2,
     "argument --height: expected a positive integer"),
    (["report", "clavius", "--n", "0"], 2, "argument --n: expected a positive integer"),
    (["reduce", "log(2; -1)", "--max-coeff", "7"], 2, "unrecognized arguments: --max-coeff"),
], ids=["base-abc", "base-1/0", "eval-precision-negative", "classify-precision-negative",
        "relation-bits-negative", "kmin-negative",
        "kmax-below-kmin", "eval-5001-digits", "classify-4400-digit-value",
        "overflow-in-pow", "polyroot-inverted-real-bounds", "polyroot-inverted-imaginary-bounds",
        "render-width-0", "render-height-0", "clavius-n-0", "max-coeff-is-gone"])
def test_bad_input_ends_in_its_exit_code_without_traceback(argv, code, needle):
    got, err = run_to_exit(argv)
    assert got == code, err
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, program, needle", [
    (["eval", "\u0663"], None, "unexpected character '\u0663' in expression"),
    (["eval", "sqrt(\uff12)"], None, "unexpected character '\uff12' in expression"),
    (["compile"], "let s = seg(\u0663);\nemit s;\n", "error: 1:13: unexpected character '\u0663'"),
], ids=["eval-arabic-indic", "eval-fullwidth", "compile-arabic-indic"])
def test_a_non_ascii_digit_exits_3(tmp_path, argv, program, needle):
    if program is not None:
        path = tmp_path / "digits.qdx"
        path.write_text(program, encoding="utf-8")
        argv = argv + [str(path)]
    code, err = run_to_exit(argv)
    assert code == 3, err
    assert needle in err


@pytest.mark.parametrize("base", ["1e10000000", "1e3000000", "+2", ".5", "2.", " 2", "2_0", "1/2/3",
                                  "\u0663", "inf"])
def test_base_outside_its_documented_forms_exits_2_at_once(base):
    start = time.perf_counter()
    code, err = run_to_exit(["ladder", "sqrt(2)", "--base", base])
    assert time.perf_counter() - start < 0.5
    assert code == 2, err
    assert "argument --base: expected an integer, p/q or a decimal" in err


@pytest.mark.parametrize("command, expr", [
    ("eval", "-sqrt(2)"), ("eval", "-pi*2"), ("classify", "-sqrt(2)"), ("classify", "-ln(3)"),
    ("ladder", "-log(6;-1)+log(2;-1)"), ("reduce", "-log(6;-1)+log(2;-1)"),
])
def test_an_expression_that_starts_with_minus_needs_no_double_dash(command, expr):
    want = run([command, "--precision", "8", "--", expr])
    assert want[0] == 0, want
    assert run([command, "--precision", "8", expr]) == want
    assert run([command, expr, "--precision", "8"]) == want


@pytest.mark.parametrize("argv", [["eval", "--nope"], ["eval", "-sqrt(2)", "--nope"],
                                  ["classify", "--nope", "-sqrt(2)"], ["eval", "--1"]])
def test_an_unknown_long_option_still_exits_2(argv):
    code, err = run_to_exit(argv)
    assert code == 2
    assert "usage:" in err


def test_help_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: qx eval")


_DEFAULTS = {
    "compile": {"path": "p.qdx", "precision": 12, "json": False},
    "eval": {"expr": "pi", "precision": 16},
    "classify": {"expr": "pi", "precision": 12, "json": False},
    "ladder": {"expr": "x", "ascend": False, "base": F(-1), "precision": 12,
               "relation_bits": 160, "reduce": False, "json": True},
    "reduce": {"expr": "x", "ascend": False, "base": F(-1), "precision": 12,
               "relation_bits": 160, "reduce": True, "json": True},
    "report": {"kind": "clavius", "kmin": 3, "kmax": 12, "n": 12},
    "render": {"path": "p.qdx", "out": "o.svg", "with_curve": None, "width": 640, "height": 640},
    "verify": {"path": "c.json"},
}
_FUNCS = {"ladder": "cmd_ladder", "reduce": "cmd_ladder"}
_FIRST = {"compile": ["p.qdx"], "eval": ["pi"], "classify": ["pi"], "ladder": ["x"],
          "reduce": ["x"], "report": ["clavius"], "render": ["p.qdx", "--out", "o.svg"],
          "verify": ["c.json"]}


@pytest.mark.parametrize("argv, changed", [
    *(([name, *first], {}) for name, first in _FIRST.items()),
    (["eval", "pi", "--precision=30"], {"precision": 30}),
    (["eval", "--precision=30", "pi"], {"precision": 30}),
    (["ladder", "x", "--base=-1/2", "--relation-bits", "7"],
     {"base": F(-1, 2), "relation_bits": 7}),
    (["eval", "pi", "--prec", "30"], {"precision": 30}),
    (["ladder", "x", "--red", "--a"], {"reduce": True, "ascend": True}),
    (["reduce", "x", "--re", "7", "--p=5"], {"relation_bits": 7, "precision": 5}),
    (["render", "p.qdx", "--o=o.svg", "--with", "spiral", "--wid", "3", "--hei", "4"],
     {"with_curve": "spiral", "width": 3, "height": 4}),
    (["report", "--kmin", "4", "clavius", "--n=2"], {"kmin": 4, "n": 2}),
    (["eval", "--", "pi"], {}),
    (["eval", "pi", "--"], {}),
    (["eval", "--precision", "5", "--", "--2"], {"precision": 5, "expr": "--2"}),
    (["eval", "--", "-h"], {"expr": "-h"}),
    (["eval", "-sqrt(2)", "--precision", "5"], {"expr": "-sqrt(2)", "precision": 5}),
    (["eval", "-"], {"expr": "-"}),
    (["eval", "--a b"], {"expr": "--a b"}),
    (["ladder", "x", "--base", "-1/2"], {"base": F(-1, 2)}),
    (["render", "-p.qdx", "--out", "-o.svg"], {"path": "-p.qdx", "out": "-o.svg"}),
    (["eval", "pi", "--precision", "5", "--precision", "6"], {"precision": 6}),
    (["classify", "pi", "--json", "--json"], {"json": True}),
], ids=[*_FIRST, "equals", "equals-first", "equals-negative-base", "prefix", "flag-prefixes",
        "reduce-prefixes", "render-prefixes", "option-before-choice", "dashes-before",
        "dashes-after", "dashes-then-double-dash-value", "dashes-then-h", "minus-value",
        "lone-minus", "space-value", "negative-base", "minus-paths", "repeated-option",
        "repeated-flag"])
def test_the_command_table_reads_argv(argv, changed):
    name = argv[0]
    want = {"command": name, "func": _FUNCS.get(name, f"cmd_{name}"), **_DEFAULTS[name], **changed}
    assert vars(qx.cli.parse_args(argv)) == want


@pytest.mark.parametrize("argv, error", [
    ([], "qx: error: the following arguments are required: command"),
    (["nope"], "qx: error: argument command: invalid choice: 'nope' (choose from 'compile', "),
    (["--x", "eval", "pi"], "qx: error: argument command: invalid choice: '--x'"),
    (["eval", "pi", "--nope"], "qx eval: error: unrecognized arguments: --nope"),
    (["verify", "--precision", "5", "c.json"],
     "qx verify: error: unrecognized arguments: --precision c.json"),
    (["eval"], "qx eval: error: the following arguments are required: expr"),
    (["eval", "pi", "--", "--precision"], "qx eval: error: unrecognized arguments: --precision"),
    (["eval", "pi", "e"], "qx eval: error: unrecognized arguments: e"),
    (["eval", "pi", "--", "e"], "qx eval: error: unrecognized arguments: e"),
    (["eval", "pi", "--precision", "x"], "qx eval: error: argument --precision: invalid literal"),
    (["eval", "pi", "--precision=-1"],
     "qx eval: error: argument --precision: expected a non-negative integer, got '-1'"),
    (["eval", "pi", "--precision", "\u0663"],
     "qx eval: error: argument --precision: expected a non-negative integer, got '\u0663'"),
    (["eval", "pi", "--precision", "7_0"],
     "qx eval: error: argument --precision: expected a non-negative integer, got '7_0'"),
    (["eval", "pi", "--precision", " 7"],
     "qx eval: error: argument --precision: expected a non-negative integer, got ' 7'"),
    (["ladder", "x", "--base", "1e5"],
     "qx ladder: error: argument --base: expected an integer, p/q or a decimal, got '1e5'"),
    (["ladder", "x", "--base", "1/0"], "qx ladder: error: argument --base: zero denominator"),
    (["report", "bogus"], "qx report: error: argument kind: invalid choice: 'bogus' "
                          "(choose from 'spiral', 'clavius')"),
    (["render", "p", "--out", "o", "--with-curve", "circle"],
     "qx render: error: argument --with-curve: invalid choice: 'circle'"),
    (["classify", "pi", "--json=yes"],
     "qx classify: error: argument --json: ignored explicit argument 'yes'"),
    (["eval", "pi", "--help="], "qx eval: error: argument --help: ignored explicit argument ''"),
    (["render", "p"], "qx render: error: the following arguments are required: --out"),
    (["render"], "qx render: error: the following arguments are required: path, --out"),
    (["ladder", "x", "--re", "1"],
     "qx ladder: error: ambiguous option: --re could match --relation-bits, --reduce"),
    (["ladder", "-h", "--re"], "qx ladder: error: ambiguous option: --re could match"),
    (["render", "p", "--out", "o", "--w=3"], "qx render: error: ambiguous option: --w=3 could"),
    (["eval", "pi", "--precision"], "qx eval: error: argument --precision: expected one argument"),
    (["eval", "--precision", "--", "pi"], "qx eval: error: argument --precision: expected one"),
    (["eval", "--precision", "-h", "pi"], "qx eval: error: argument --precision: expected one"),
    (["ladder", "x", "--base", "--1"], "qx ladder: error: argument --base: expected one argument"),
    (["ladder", "x", "--relation-bits", "0"],
     "qx ladder: error: argument --relation-bits: expected a positive integer, got '0'"),
    (["reduce", "x", "--relation-bits=00"],
     "qx reduce: error: argument --relation-bits: expected a positive integer, got '00'"),
], ids=["no-command", "unknown-command", "option-before-command", "unknown-option",
        "verify-has-no-precision", "missing-positional", "option-after-dashes-is-a-value",
        "extra-positional", "extra-after-dashes", "not-an-integer", "negative-natural",
        "non-ascii-digit", "underscore-digits", "space-before-digits",
        "base-exponent", "base-zero-denominator", "bad-choice", "bad-option-choice",
        "flag-with-value", "help-with-empty-value", "missing-out", "missing-path-and-out",
        "ambiguous-prefix", "ambiguous-before-help", "ambiguous-with-value",
        "missing-value", "value-after-dashes", "help-as-value", "double-dash-value",
        "ladder-zero-relation-bits", "reduce-zero-relation-bits"])
def test_a_usage_error_writes_usage_and_error_and_exits_2(argv, error):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and out.getvalue() == ""
    usage, message = err.getvalue().splitlines()
    prog = " ".join(["qx", *argv[:1]]) if argv and argv[0] in qx.cli._COMMANDS else "qx"
    assert usage.startswith(f"usage: {prog} ")
    assert message.startswith(error)


def test_the_readme_synopsis_lists_every_option_of_each_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis = {line.split()[1]: sorted(re.findall(r"--([a-z-]+)", line))
                for line in block.splitlines()}
    assert synopsis == {name: sorted(spec[3]) for name, spec in qx.cli._COMMANDS.items()}


@pytest.mark.parametrize("argv", [[], *([name] for name in qx.cli._COMMANDS)],
                         ids=["qx", *qx.cli._COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help", "--hel"])
def test_help_of_qx_and_of_each_command_exits_0(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, *(["--nope"] if argv else [])])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith(" ".join(["usage: qx", *argv]) + " ")
    names = qx.cli._COMMANDS if not argv else [f"--{o}" for o in qx.cli._COMMANDS[argv[0]][3]]
    assert all(name in out for name in names)


def test_importing_the_cli_leaves_argparse_out():
    import subprocess
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qx.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(Path(qx.cli.__file__).resolve().parent.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_a_negative_base_needs_no_double_dash():
    want = run(["ladder", "pow(2, sqrt(2))", "--base", "-1/2"])
    assert want[0] == 0 and '"base": "-1/2"' in want[1], want


@pytest.mark.parametrize("base, value", [("7", F(7)), ("-3/4", F(-3, 4)), ("1.25", F(5, 4)),
                                         ("-0.50", F(-1, 2)), ("6/4", F(3, 2))])
def test_base_takes_an_integer_p_over_q_or_a_decimal(base, value):
    assert rational(base) == value


def test_compile_of_a_5001_digit_literal_exits_5(tmp_path):
    prog = tmp_path / "big.qdx"
    prog.write_text("let a = seg(1" + "0" * 5000 + "); emit a;\n")
    code, err = run_to_exit(["compile", str(prog)])
    assert code == 5, err
    assert "4300 digits" in err


def test_input_that_is_not_utf8_exits_2(tmp_path):
    prog = tmp_path / "latin1.qdx"
    prog.write_bytes(b"# caf\xe9\nlet a = seg(2);\nemit a;\n")
    for command in ("compile", "verify"):
        code, err = run_to_exit([command, str(prog)])
        assert code == 2, err
        assert "cannot read" in err
    # the decode error names the byte's offset in the file, CRLF counting two
    prog.write_bytes(b"# a\r\n" * 3000 + b"# caf\xe9\r\n")
    code, err = run_to_exit(["compile", str(prog)])
    assert code == 2 and "in position 15005:" in err, err


def test_crlf_input_reads_as_its_lf_twin(tmp_path):
    lf = (CORPUS / "01_square_rectangle.qdx").read_text(encoding="utf-8")
    crlf, cr = tmp_path / "crlf.qdx", tmp_path / "cr.qdx"
    crlf.write_bytes(lf.replace("\n", "\r\n").encode())
    cr.write_bytes(lf.replace("\n", "\r").encode())
    want = run(["compile", str(CORPUS / "01_square_rectangle.qdx")])
    assert want[0] == 0
    assert run(["compile", str(crlf)]) == run(["compile", str(cr)]) == want
    cert = tmp_path / "cert.json"
    cert.write_bytes(want[1].replace("\n", "\r\n").encode())
    assert run(["verify", str(cert)])[:2] == (0, "certificate verified\n")


def test_a_polyroot_with_tiny_coefficients_prints_what_its_unscaled_twin_prints():
    tiny = "0.000000000000000000000000000001"
    want = run(["eval", "polyroot(2, -3, 1; 1.75, 3)", "--precision", "1200"])
    assert want[0] == 0
    scaled = f"polyroot(2 * {tiny}, -3 * {tiny}, {tiny}; 1.75, 3)"
    assert run(["eval", scaled, "--precision", "1200"]) == want


def test_ladder_and_reduce_share_options_and_defaults():
    from fractions import Fraction

    from qx.cli import parse_args
    ladder = vars(parse_args(["ladder", "x"]))
    reduce = vars(parse_args(["reduce", "x"]))
    assert ladder.pop("reduce") is False and reduce.pop("reduce") is True
    assert ladder.pop("command") == "ladder" and reduce.pop("command") == "reduce"
    assert ladder == reduce
    assert {k: ladder[k] for k in ("ascend", "base", "precision", "relation_bits", "json")} == {
        "ascend": False, "base": Fraction(-1), "precision": 12, "relation_bits": 160,
        "json": True}


def test_main_reads_the_table_and_calls_the_current_command_function(monkeypatch, tmp_path):
    import qx.cli
    assert run(["eval", "1/2"])[0] == 0
    table = qx.cli._COMMANDS["verify"]
    seen = []
    monkeypatch.setattr(qx.cli, "cmd_verify", lambda args: seen.append(args.path) or 0)
    cert = str(tmp_path / "never_read.json")
    assert main(["verify", cert]) == 0
    assert seen == [cert]
    assert qx.cli._COMMANDS["verify"] is table and table[0] == "cmd_verify"


def test_verify_rejects_a_compile_certificate_whose_subject_the_program_does_not_build(
        tmp_path):
    cert = json.loads((Path(__file__).parent / "golden" / "compile_square_rectangle.json").read_text())
    m = cert["emits"]["m"]
    m["expr"] = m["decimal"] = "5"
    m["enclosure"]["re"] = ["5.0", "5.0"]
    m["verdict"]["value"], m["verdict"]["witness"] = "5", [-5, 1]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert))
    code, _, err = run(["verify", str(forged)])
    assert code == 1
    assert "FAIL /emits/m/expr: " in err


DEGENERATE = Path(__file__).parent / "degenerate"


def test_tangent_circles_compile_to_their_one_touching_point(tmp_path):
    code, out, err = run(["compile", str(DEGENERATE / "tangent_circles.qdx")])
    assert code == 0, err
    emits = json.loads(out)["emits"]
    assert sorted(emits) == ["t.x", "t.y"]
    assert emits["t.x"]["verdict"]["status"] == "rational"
    assert emits["t.x"]["verdict"]["value"] == "1/2"
    assert emits["t.x"]["decimal"] == "0.5"
    assert emits["t.y"]["verdict"]["witness"] == [-3, 0, 4]
    cert = tmp_path / "tangent.json"
    cert.write_text(out)
    assert run(["verify", str(cert)])[:2] == (0, "certificate verified\n")


def test_a_near_parallel_intersection_compiles_and_verifies(tmp_path):
    # the discriminant's sign straddles a division at 64 bits and is decided at 128
    code, out, err = run(["compile", str(DEGENERATE / "near_parallel_circle.qdx")])
    assert code == 0, err
    assert sorted(json.loads(out)["emits"]) == ["y.x", "y.y"]
    cert = tmp_path / "near_parallel.json"
    cert.write_text(out)
    assert run(["verify", str(cert)])[:2] == (0, "certificate verified\n")


def test_coincident_lines_exit_5_saying_they_coincide():
    code, _, err = run(["compile", str(DEGENERATE / "coincident_lines.qdx")])
    assert code == 5
    assert "lines coincide" in err


def test_classify_sqrt_of_a_31_digit_radicand_is_fast():
    # trial division of the radicand stops at a fixed bound
    proc, seconds = _timed_qx(["classify", "sqrt(1000000000000000000000000000057)"], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "quadratic-field" in proc.stdout
    assert seconds < 1


def test_square_cofactor_above_the_trial_bound_is_taken_out():
    # 7000042000063 = 1000003^2 * 7, and 1000003 is a prime above the bound
    code, out, err = run(["classify", "sqrt(7000042000063) + sqrt(7)", "--json"])
    assert code == 0, err
    verdict = json.loads(out)["subject"]["verdict"]
    assert verdict["rule"] == "quadratic-field"
    assert verdict["witness"] == [-7000056000112, 0, 1]


# --- qx-certificate/2: the compile node table ----------------------------------------

def rotation_chain(k: int) -> str:
    """p_i is p_{i-1} turned about the circle of radius 3/2 by the circle through o."""
    lines = ["let o = point(0, 0);", "let q = point(3/2, 0);", "let c = circle(o, q);",
             "let p0 = point(3/2, 0);"]
    for i in range(1, k + 1):
        lines += [f"let d{i} = circle(p{i - 1}, o);", f"let p{i} = intersect(d{i}, c, 1);"]
    return "\n".join(lines + [f"emit p{k};"]) + "\n"


def bisect_chain(k: int) -> str:
    lines = ["let p0 = ra(3, 4);"] + [f"let p{i} = bisect(p{i - 1});" for i in range(1, k + 1)]
    return "\n".join(lines + [f"emit p{k};"]) + "\n"


def read_node_table(rows, ctx):
    """The value of every row, built through Context constructors alone."""
    from fractions import Fraction

    from qx.dyadic import Dyadic
    from qx.interval import CInterval, RInterval

    built = []
    for at, row in enumerate(rows):
        if isinstance(row, str):
            built.append(ctx.rat(Fraction(row)))
            continue
        kind, *rest = row
        extras = {"exp": 1, "log": 2, "polyroot": 1}.get(kind, 0)
        assert all(type(i) is int and 0 <= i < at for i in rest[extras:]), row
        kids = [built[i] for i in rest[extras:]]
        if kind in ("add", "sub", "mul", "div", "sqrt", "sin_pi", "arcsin_over_pi"):
            value = getattr(ctx, kind)(*kids)
        elif kind == "exp":
            value = ctx.exp(None, *kids) if rest[0] else ctx.exp(*kids)
        elif kind == "log":
            natural, branch = rest[:2]
            value = ctx.log(None if natural else kids[0], kids[-1], branch)
        else:
            assert kind == "polyroot", row
            lo, hi, ilo, ihi = (Dyadic.from_fraction(Fraction(d)) for d in rest[0])
            value = ctx.polyroot(kids, CInterval(RInterval(lo, hi), RInterval(ilo, ihi)))
        built.append(value)
    return built


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.qdx")), ids=lambda p: p.stem)
def test_the_node_table_alone_rebuilds_every_emit(path):
    from qx.dsl import compile_program, parse
    from qx.expr import Context, to_text

    code, out, err = run(["compile", str(path)])
    assert code == 0, err
    cert = json.loads(out)
    built = read_node_table(cert["nodes"], Context())
    values = compile_program(parse(path.read_text())).values
    assert sorted(cert["emits"]) == sorted(values)
    for name, sub in cert["emits"].items():
        assert to_text(built[sub["node"]]) == to_text(values[name]), name


def test_the_node_table_carries_exp_log_and_polyroot_rows():
    from qx.expr import Context, to_table, to_text
    from qx.exprtext import parse_expr

    ctx = Context()
    roots = [parse_expr(t, ctx) for t in (
        "pow(2, sqrt(3)) + exp(1/3)", "ln(5; 1) * log(7; 3; -1)",
        "polyroot(-2, 0, 1; 1, 2) + polyroot(-3, 1/2, 0, 1; 1, 5/2)")]
    rows, at = to_table(roots)
    assert json.loads(json.dumps(rows)) == rows
    kinds = {row[0] for row in rows if isinstance(row, list)}
    assert {"exp", "log", "polyroot"} <= kinds
    built = read_node_table(rows, Context())
    assert [to_text(built[i]) for i in at] == [to_text(r) for r in roots]


CHAIN_DEPTHS = (*range(1, 9), 16, 32, 64)


@pytest.mark.parametrize("chain", [rotation_chain, bisect_chain],
                         ids=["rotation", "bisect"])
def test_certificate_bytes_grow_linearly_in_dag_nodes(tmp_path, chain):
    # /1 text of the rotation chain was 19 MB at k = 3 and ran out of memory at k = 4
    for k in CHAIN_DEPTHS:
        prog = tmp_path / f"k{k}.qdx"
        prog.write_text(chain(k))
        if k == CHAIN_DEPTHS[-1]:  # a fresh interpreter: the default recursion limit
            proc, _ = _timed_qx(["compile", str(prog)])
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            code, out, err = run(["compile", str(prog)])
        assert code == 0, (k, err)
        assert len(out.encode()) <= 80 * len(json.loads(out)["nodes"]) + 2048, k
        cert = tmp_path / f"k{k}.json"
        cert.write_text(out)
        if k == CHAIN_DEPTHS[-1]:
            proc, _ = _timed_qx(["verify", str(cert)])
            assert (proc.returncode, proc.stdout) == (0, "certificate verified\n"), proc.stderr
        else:
            assert run(["verify", str(cert)])[:2] == (0, "certificate verified\n"), k


def test_the_rotation_chain_at_k4_compiles_fast_to_a_small_certificate(tmp_path):
    prog = tmp_path / "rotation4.qdx"
    prog.write_text(rotation_chain(4))
    proc, seconds = _timed_qx(["compile", str(prog)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert seconds < 1 and len(proc.stdout.encode()) < 20_000


@pytest.mark.parametrize("k", [3, 4])
def test_an_error_names_a_deep_value_in_bounded_text(tmp_path, k):
    # the unbounded text of the offending point was 19 MB at k = 3
    prog = tmp_path / "off_unit_circle.qdx"
    prog.write_text(rotation_chain(k).replace(f"emit p{k};", f"let t = rra(p{k});\nemit t;"))
    proc, seconds = _timed_qx(["compile", str(prog)], timeout=30)
    assert proc.returncode == 5, proc.stderr
    assert "provably nonzero" in proc.stderr and "Traceback" not in proc.stderr
    assert seconds < 1 and len(proc.stderr.encode()) < 1024


def _compiled(tmp_path, source: str) -> dict:
    prog = tmp_path / "p.qdx"
    prog.write_text(source)
    code, out, err = run(["compile", str(prog)])
    assert code == 0, err
    return json.loads(out)


def _forge_leaf(cert):
    # the value is 4: every stored field changed to agree with 5
    m = cert["emits"]["m"]
    cert["nodes"][m["node"]] = m["decimal"] = "5"
    m["enclosure"]["re"] = ["5.0", "5.0"]
    m["verdict"]["value"], m["verdict"]["witness"] = "5", [-5, 1]


def _forge_row(index, row):
    def forge(cert):
        cert["nodes"][index] = row
    return forge


def _forge_emit_node(cert):
    cert["emits"]["p.x"]["node"] = cert["emits"]["p.y"]["node"]


def _forge_emit_node_type(cert):
    cert["emits"]["p.y"]["node"] = float(cert["emits"]["p.y"]["node"])


def _forge_format(cert):
    cert["meta"]["format"] = "qx-certificate/3"


# corpus 07 is ra(1, 2): rows "1/3", ["sin_pi", 0], "1/2"
TRISECT = "let p = ra(1, 2);\nemit p;\n"


@pytest.mark.parametrize("source, forge, needle", [
    (None, _forge_leaf, "FAIL /nodes/0: "),
    (TRISECT, _forge_emit_node, "FAIL /emits/p.x/node: stored 2,"),
    (TRISECT, _forge_emit_node_type, "FAIL /emits/p.y/node: stored 2.0,"),
    (TRISECT, _forge_row(1, ["sin_pi", 1]), "FAIL /nodes/1/1: "),
    (TRISECT, _forge_row(1, ["sin_pi", 2]), "FAIL /nodes/1/1: "),
    (TRISECT, _forge_row(1, ["cos_pi", 0]), "FAIL /nodes/1/0: "),
    (TRISECT, _forge_row(1, ["sin_pi", False]), "FAIL /nodes/1/1: stored false,"),
    (TRISECT, _forge_format, "FAIL unknown certificate format 'qx-certificate/3'"),
], ids=["rational-leaf", "emit-node", "emit-node-float", "child-at-own-row",
        "child-after-own-row", "unknown-kind", "child-false-for-0", "unknown-format"])
def test_verify_rejects_a_forged_node_table_certificate(tmp_path, source, forge, needle):
    if source is None:
        cert = json.loads((Path(__file__).parent / "golden"
                           / "compile_square_rectangle_v2.json").read_text())
    else:
        cert = _compiled(tmp_path, source)
    forge(cert)
    forged = tmp_path / "forged.json"
    for layout in (json.dumps, qx.cli._dump):
        forged.write_text(layout(cert))
        code, _, err = run(["verify", str(forged)])
        assert code == 1
        assert needle in err
        assert "Traceback" not in err


def test_verify_reads_node_tables_for_compile_certificates_only(tmp_path):
    cert = json.loads((Path(__file__).parent / "golden" / "classify_sin_2pi5.json").read_text())
    cert["meta"]["format"] = "qx-certificate/2"
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert))
    code, _, err = run(["verify", str(forged)])
    assert code == 1
    assert "FAIL unknown certificate format 'qx-certificate/2' for classify" in err


@pytest.mark.parametrize("command", ["eval", "classify"])
def test_a_rational_polyroot_with_a_root_at_a_selector_endpoint_exits_5(command):
    # x over [0, 1]: the endpoint 0 is exactly a root, decided without escalating
    code, out, err = run([command, "polyroot(0, 1; 0, 1)"])
    assert (code, out) == (5, "")
    assert err == "error: selector endpoint is a root\n"
    code, out, _ = run(["eval", "polyroot(-2, 0, 1; 1, 2)"])
    assert code == 0 and out.startswith("1.41421356")


_json_text = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f a\u00e9\u2028\ud800\U0001f600')
                     | st.characters())
_json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-(2 ** 300), 2 ** 300)
                | st.floats() | _json_text)
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_json_text, kids, max_size=4),
    max_leaves=40)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_json_trees)
def test_the_certificate_writer_is_json_dumps_indented_and_sorted(value):
    assert qx.cli._dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_the_certificate_writer_keeps_empty_containers_on_one_line():
    value = {"b": [], "a": {}, "c": [{}, [[]], ()], "d": {"x": []}}
    assert qx.cli._dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert '"a": {},' in qx.cli._dump(value)


def _set(*path_and_value):
    """A forgery that sets the field at the key path to the value."""
    *path, last, value = path_and_value

    def forge(cert):
        for key in path:
            cert = cert[key]
        cert[last] = value
    return forge


def _drop(*path):
    def forge(cert):
        for key in path[:-1]:
            cert = cert[key]
        del cert[path[-1]]
    return forge


def _forge_reduced_rungs(count):
    # the reduced ladder keeps `count` copies of its only rung; the ascent agrees
    def forge(cert):
        cert["reduced"]["rungs"] = cert["reduced"]["rungs"] * count
        cert["ascent"]["degree"] = count
    return forge


_LINDEMANN = {"conditional": False, "rule": "lindemann", "status": "transcendental"}


def _removal_twice(cert):
    removals = cert["reduced"]["removals"]
    removals.append(dict(removals[0]))


def _false_by_two(cert):
    # off by 2, which the removal identity cannot see: (-1)^2 = 1
    removal = cert["reduced"]["removals"][0]
    removal["relation"]["coefficients"], removal["constant"] = [-2, -1, 1, 1], "2"


def _lo_above_sqrt3_over_2(cert):
    # p.x is sqrt(3)/2; its real enclosure starts 10^-45 above it, written to 50 places
    n = math.isqrt(75 * 10**98) + 10**5  # floor(sqrt(3)/2 * 10^50) + 10^5
    cert["emits"]["p.x"]["enclosure"]["re"][0] = f"0.{n:050d}"


def _below_sin_2pi5(cert):
    # an enclosure from 10^-45 to 10^-46 below sin(2pi/5), written to 50 places
    with mpmath.workdps(80):
        n = int(mpmath.floor(mpmath.sinpi(mpmath.mpf(2) / 5) * 10**50))
    cert["subject"]["enclosure"]["re"] = [f"0.{n - 10**5:050d}", f"0.{n - 10**4:050d}"]


@pytest.mark.parametrize("source, forge, needle", [
    ("07_trisect_right.qdx", _set("emits", "p.x", "tower", {"a": 0, "el": 0, "s": 0, "sa": 0}),
     "FAIL /emits/p.x/tower/"),
    ("07_trisect_right.qdx", _set("emits", "p.x", "verdict", "rule", "lindemann"),
     "FAIL /emits/p.x/verdict/rule: "),
    ("07_trisect_right.qdx", _set("emits", "p.x", "verdict", "conditional", True),
     "FAIL /emits/p.x/verdict/conditional: "),
    ("07_trisect_right.qdx", _set("emits", "p.y", "verdict", "conditional", 0),
     "FAIL /emits/p.y/verdict/conditional: stored 0,"),
    ("07_trisect_right.qdx", _set("roundtrip", {}),
     "FAIL /roundtrip/"),
    ("07_trisect_right.qdx", _set("emits", "p.x", "precision_digits", True),
     "FAIL malformed certificate: precision_digits True is not an integer"),
    ("classify_sin_2pi5.json", _set("subject", "precision_digits", -3),
     "FAIL malformed certificate: precision_digits -3 is not a non-negative integer"),
    ("07_trisect_right.qdx", _set("emits", "p.y", "origin", "forged"),
     "FAIL /emits/p.y/origin: "),
    ("compile_square_rectangle_v2.json", _set("emits", "m", "verdict", "value", "5"),
     "FAIL /emits/m/verdict/value: "),
    ("compile_square_rectangle_v2.json", _set("emits", "m", "verdict", "witness", [0]),
     "FAIL /emits/m/verdict/witness: "),
    ("classify_sin_2pi5.json", _set("subject", "tower", "s", 2),
     "FAIL /subject/tower/s: "),
    ("classify_sin_2pi5.json", _set("subject", "verdict", "rule", "sqrt-tower"),
     "FAIL /subject/verdict/rule: "),
    ("classify_sin_2pi5.json", _drop("subject", "verdict", "witness"),
     "FAIL /subject/verdict/witness: stored nothing,"),
    ("ladder_gs.json", _drop("subject", "enclosure", "im"),
     "FAIL /subject/enclosure/im: enclosure does not contain the value"),
    ("ladder_gs.json", _forge_reduced_rungs(0),
     "FAIL /reduced/rungs: "),
    ("ladder_gs.json", _forge_reduced_rungs(2),
     "FAIL /reduced/rungs: "),
    ("ladder_logs_reduced.json", _set("ladder", "rungs", 1, "kind", "element-algebraic"),
     "FAIL /ladder/rungs/1/kind: "),
    ("ladder_logs_reduced.json", _set("reduced", "rungs", 1, "kind", "element-algebraic"),
     "FAIL /reduced/rungs/1/kind: "),
    ("ladder_logs_reduced.json", _set("reduced", "removals", 0, "identity_verified", False),
     "FAIL /reduced/removals/0/identity_verified: "),
    ("ladder_logs_reduced.json", _set("ascent", "kinds", ["element-algebraic"] * 2),
     "FAIL /ascent/kinds/"),
    ("ladder_logs_reduced.json", _set("ascent", "crosschecks", [_LINDEMANN] * 2),
     "FAIL /ascent/crosschecks/0: "),
    ("ladder_logs_reduced.json", _set("reduced", "removals", 0, "relation", "confidence", "exact"),
     "FAIL ladder: the relation at index 2 is labelled exact but does not hold exactly"),
    ("ladder_logs_reduced.json",
     _set("reduced", "removals", 0, "relation", "coefficients", [0, -1, True, 1]),
     "FAIL malformed certificate: relation coefficients"),
    ("07_trisect_right.qdx", _drop("emits", "p.y"),
     "FAIL /emits/p.y: stored nothing,"),
    # equal to qx's list in Python, but not in JSON: true == 1 and 3.0 == 3
    ("ladder_logs_reduced.json", _set("reduced", "removals", 0, "combo", 1, 0, True),
     "FAIL /reduced/removals/0/combo/1/0: stored true, qx writes 1"),
    ("06_vesica.qdx", _set("nodes", 4, 2, 3.0),
     "FAIL /nodes/4/2: stored 3.0, qx writes 3"),
    ("ladder_logs_reduced.json", _set("reduced", "removals", 0, "relation", "confidence", "proven"),
     "FAIL malformed certificate: relation confidence 'proven' is neither exact nor heuristic"),
    ("ladder_logs_reduced.json", _removal_twice,
     "FAIL malformed certificate: removal index 2 does not follow the index 2 before it"),
    ("ladder_logs_reduced.json", _false_by_two,
     "FAIL ladder: the relation at index 2 is labelled heuristic but does not hold to 2^-160"),
    ("ladder_logs_reduced.json", _set("reduced", "removals", 0, "relation", "precision_bits", True),
     "FAIL malformed certificate: relation precision_bits True is not an integer"),
    ("ladder_logs_reduced.json", _set("reduced", "removals", 0, "relation", "precision_bits", 0),
     "FAIL malformed certificate: relation precision_bits 0 is not an integer"),
    ("07_trisect_right.qdx", _set("emits", "p.x", "enclosure", "re", 1, "1/0"),
     "FAIL malformed certificate: enclosure endpoint '1/0' is not of the form"),
    ("ladder_logs_reduced.json", _set("ladder", "base", "1/0"),
     "FAIL malformed certificate: ladder base '1/0' is not of the form"),
    ("07_trisect_right.qdx", _set("emits", []),
     "FAIL malformed certificate: emits is not an object"),
    # Fraction alone reads an exponent, and would expand 1e10000000 for seconds
    ("07_trisect_right.qdx", _set("emits", "p.x", "enclosure", "re", 1, "1e5"),
     "FAIL malformed certificate: enclosure endpoint '1e5' is not of the form"),
    ("ladder_logs_reduced.json", _set("subject", "enclosure", "im", 0, "-1e5"),
     "FAIL malformed certificate: enclosure endpoint '-1e5' is not of the form"),
    ("ladder_logs_reduced.json", _set("ladder", "base", "-1e0"),
     "FAIL malformed certificate: ladder base '-1e0' is not of the form"),
    ("ladder_logs_reduced.json", _set("ladder", "base", -1),
     "FAIL malformed certificate: ladder base -1 is not of the form"),
    # linear witnesses that vanish on the enclosure: each says the value is rational
    ("07_trisect_right.qdx",
     _set("emits", "p.x", "verdict", "witness", [-866025403784438646763723, 10**24]),
     "FAIL /emits/p.x/verdict/witness: "),
    ("classify_sin_2pi5.json",
     _set("subject", "verdict", "witness", [-951056516295153572116, 10**21]),
     "FAIL /subject/verdict/witness: "),
    # enclosures that meet the value's but exclude the value
    ("07_trisect_right.qdx", _lo_above_sqrt3_over_2,
     "FAIL /emits/p.x/enclosure/re: enclosure does not contain the value"),
    ("classify_sin_2pi5.json", _below_sin_2pi5,
     "FAIL /subject/enclosure/re: enclosure does not contain the value"),
], ids=["tower", "rule", "conditional", "conditional-0-for-false", "roundtrip",
        "precision-true", "precision-negative", "extra-field", "value", "zero-witness",
        "classify-tower", "classify-rule", "classify-witness-dropped", "imaginary-part-dropped",
        "no-reduced-rung", "duplicated-reduced-rung", "ladder-kind", "reduced-kind",
        "identity-verified", "ascent-kinds", "crosschecks", "exact-label", "bool-coefficient",
        "emit-dropped", "bool-combo-index", "float-child-index", "unknown-confidence",
        "removal-twice", "false-heuristic-relation", "bool-bits", "zero-bits", "zero-denominator-endpoint", "zero-denominator-base", "emits-list",
        "exponent-endpoint", "exponent-ladder-endpoint", "exponent-base", "integer-base",
        "linear-witness", "classify-linear-witness", "enclosure-above-the-value",
        "classify-enclosure-below-the-value"])
def test_verify_rejects_every_forged_field(tmp_path, source, forge, needle):
    if source.endswith(".qdx"):
        cert = _compiled(tmp_path, (CORPUS / source).read_text())
    else:
        cert = json.loads((Path(__file__).parent / "golden" / source).read_text())
    forge(cert)
    forged = tmp_path / "forged.json"
    for layout in (json.dumps, qx.cli._dump):
        forged.write_text(layout(cert))
        code, _, err = run(["verify", str(forged)])
        assert code == 1
        assert needle in err
        assert "Traceback" not in err


@pytest.mark.parametrize("source, forge, message", [
    ("classify_sin_2pi5.json", _set("subject", [1]), "subject is not an object"),
    ("classify_sin_2pi5.json", _set("subject", "expr", 3), "subject expr is not a string"),
    ("compile_square_rectangle_v2.json", _set("program", 3), "program is not a string"),
    ("classify_sin_2pi5.json", _set("meta", [1]), "meta is not an object"),
    ("ladder_logs_reduced.json", _set("reduced", "removals", 0, "x"), "a removal is not an object"),
    ("ladder_logs_reduced.json", _set("reduced", "removals", 0, "relation", 3),
     "a relation is not an object"),
    ("compile_square_rectangle_v2.json", _set("emits", "m", []), "an emit is not an object"),
    ("ladder_logs_reduced.json", _set("ladder", "x"), "ladder is not an object"),
    ("ladder_logs_reduced.json", _set("reduced", []), "reduced is not an object"),
    ("ladder_logs_reduced.json", _set("reduced", "removals", {}), "removals is not an array"),
], ids=["subject-list", "expr-int", "program-int", "meta-list", "removal-string", "relation-int",
        "emit-list", "ladder-string", "reduced-list", "removals-object"])
def test_verify_names_a_field_of_the_wrong_json_type(tmp_path, source, forge, message):
    cert = json.loads((Path(__file__).parent / "golden" / source).read_text())
    forge(cert)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert))
    assert run(["verify", str(forged)]) == (1, "", f"FAIL malformed certificate: {message}\n")


def test_verify_accepts_a_witness_that_is_a_multiple_of_the_recomputed_one(tmp_path):
    cert = _compiled(tmp_path, (CORPUS / "07_trisect_right.qdx").read_text())
    verdict = cert["emits"]["p.x"]["verdict"]
    assert verdict["witness"] == [0, -3, 0, 4]
    verdict["witness"] = [0, 15, -3, -20, 4]  # times (x - 5)
    path = tmp_path / "multiple.json"
    path.write_text(json.dumps(cert))
    assert run(["verify", str(path)])[:2] == (0, "certificate verified\n")


SQRT_LADDER = "pow(-1, sqrt(2)) * pow(-1, sqrt(3)) * pow(-1, sqrt(5)) * pow(-1, sqrt(7))"


@pytest.mark.parametrize("bits", [8, 16, 24])
def test_low_relation_bits_remove_no_independent_square_root(bits):
    # square roots of distinct squarefree integers are independent, so PSLQ's
    # near-relations at low precision must not remove a rung
    code, out, err = run(["reduce", SQRT_LADDER, "--relation-bits", str(bits)])
    assert code == 0, err
    reduced = json.loads(out)["reduced"]
    assert reduced["removals"] == []
    assert [r["value"] for r in reduced["rungs"]] == ["sqrt(2)", "sqrt(3)", "sqrt(5)", "sqrt(7)"]


def test_verify_rejects_a_heuristic_removal_among_proven_independent_rungs(tmp_path, monkeypatch):
    # no rational relation exists among 1 and these roots, so check_removal
    # refuses a heuristic one among them even when its size is admissible
    # (every coefficient below 2^25 among five numbers at 160 bits)
    forged = Relation((-1, 2, -3, 1, 1), "heuristic", 160)
    detect, check = qx.ladders.detect_relation, qx.ladders.check_removal

    def forge(values, precision_bits):
        return forged if len(values) == 4 else detect(values, precision_bits)

    monkeypatch.setattr(qx.ladders, "detect_relation", forge)
    code, out, err = run(["reduce", SQRT_LADDER, "--ascend"])
    assert code == 0, err
    reduced = json.loads(out)["reduced"]
    assert reduced["removals"] == []
    assert [r["value"] for r in reduced["rungs"]] == ["sqrt(2)", "sqrt(3)", "sqrt(5)", "sqrt(7)"]
    # a certificate that carries the forged removal: written while every removal is accepted
    monkeypatch.setattr(qx.ladders, "check_removal", lambda *a: (*check(*a)[:2], None))
    code, out, err = run(["reduce", SQRT_LADDER, "--ascend"])
    monkeypatch.undo()
    assert code == 0, err
    removal = json.loads(out)["reduced"]["removals"][0]
    assert (removal["index"], removal["identity_verified"]) == (3, True)
    path = tmp_path / "forged.json"
    path.write_text(out)
    code, _, err = run(["verify", str(path)])
    assert code == 1
    assert err == ("FAIL ladder: the relation at index 3 is labelled heuristic, but the atoms "
                   "of the rungs it relates are independent and it does not hold exactly\n"
                   "FAIL /reduced/removals/0/identity_verified: stored true, qx writes false\n")


_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.mark.parametrize("seed", range(5))
def test_reduce_and_verify_of_planted_bench_ladders_run_no_pslq(tmp_path, monkeypatch, seed):
    # the seven atoms the bench plants relations over are proven independent,
    # so every relation reduction keeps or drops is decided exactly
    monkeypatch.syspath_prepend(str(_WORKLOADS.parent))  # workloads imports bench's oracles
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    calls = []
    pslq = mpmath.pslq
    monkeypatch.setattr(mpmath, "pslq", lambda v, **k: calls.append(len(v)) or pslq(v, **k))
    # and an exact relation's removal identity is a theorem: check_removal computes no node
    checking, computed = [], []
    check, compute = qx.ladders.check_removal, Expr._compute

    def spy_check(*args):
        checking.append(args[2])
        try:
            return check(*args)
        finally:
            checking.pop()
    monkeypatch.setattr(qx.ladders, "check_removal", spy_check)
    monkeypatch.setattr(qx.cli, "check_removal", spy_check)
    monkeypatch.setattr(Expr, "_compute",
                        lambda node, *a: computed.extend(checking) or compute(node, *a))
    rng = random.Random(seed)
    for base_count, planted_count in workloads.LADDER_SHAPES:
        text, atoms, planted = workloads.planted_ladder(rng, base_count, planted_count)
        code, out, err = run(["reduce", text, "--ascend"])
        assert code == 0, err
        removals = json.loads(out)["reduced"]["removals"]
        assert [rm["index"] for rm in removals] == list(range(base_count,
                                                              base_count + planted_count))
        assert {rm["relation"]["confidence"] for rm in removals} == {"exact"}
        path = tmp_path / f"{base_count}-{planted_count}.json"
        path.write_text(out)
        assert run(["verify", str(path)])[:2] == (0, "certificate verified\n")
    assert calls == []
    assert computed == []


# four exponentials of nested roots, whose exponents have no rational relation:
# PSLQ finds near-relations among them that their size alone explains
NESTED_LADDER = " + ".join(f"pow(2, sqrt(1+sqrt({n})))" for n in (2, 3, 5, 6))
# log_-1(3) = log_-1(6) - log_-1(2): a true relation, found by PSLQ and labelled heuristic
LOG_LADDER = "log(6; -1) + log(2; -1) + log(3; -1)"


def _reduced(tmp_path, text, bits, *options):
    code, out, err = run(["reduce", text, "--relation-bits", str(bits), *options])
    assert code == 0, err
    path = tmp_path / f"reduced-{len(text)}-{bits}.json"
    path.write_text(out)
    return out, path


@pytest.mark.parametrize("bits", [1, 8, 16, 32, 44, 60, 100, 160])
def test_verify_accepts_every_reduce_certificate_at_any_relation_bits(tmp_path, bits):
    # a removal is valid when its relation holds as labelled and is admissible;
    # reduce and verify decide both by one rule, so what reduce writes, verify accepts
    for text, options in ((NESTED_LADDER, ("--base", "2")), (LOG_LADDER, ())):
        out, path = _reduced(tmp_path, text, bits, *options)
        assert all(rm["identity_verified"] for rm in json.loads(out)["reduced"]["removals"])
        assert run(["verify", str(path)]) == (0, "certificate verified\n", "")


def test_reduce_certificate_bytes_do_not_depend_on_the_start_precision(tmp_path, monkeypatch):
    # at 60 bits one heuristic removal; a 128-bit start gave an identity false
    # when it was tested on two enclosures at an unstated precision
    outs = []
    for floor in (64, 128):
        for module in (qx.interval, qx.dsl, qx.cli):
            monkeypatch.setattr(module, "start_bits", lambda bits, f=floor: max(f, bits + 24))
        outs.append(_reduced(tmp_path, LOG_LADDER, 60)[0])
    removals = json.loads(outs[0])["reduced"]["removals"]
    assert [rm["relation"]["confidence"] for rm in removals] == ["heuristic"]
    assert outs[0] == outs[1]


def test_check_removal_evaluates_no_exponential(tmp_path, monkeypatch):
    # b^{a_k} = b^q * prod (b^{a_j})^{q_j} follows from the relation: no exp node is built
    checking, exps = [], []
    check, exp = qx.ladders.check_removal, Context.exp

    def spy_check(*args):
        checking.append(args)
        try:
            return check(*args)
        finally:
            checking.pop()
    monkeypatch.setattr(qx.ladders, "check_removal", spy_check)
    monkeypatch.setattr(qx.cli, "check_removal", spy_check)
    monkeypatch.setattr(Context, "exp", lambda self, *a: exps.extend(checking) or exp(self, *a))
    out, path = _reduced(tmp_path, LOG_LADDER, 60)
    assert len(json.loads(out)["reduced"]["removals"]) == 1
    assert run(["verify", str(path)])[:2] == (0, "certificate verified\n")
    assert exps == []


E8_LADDER = " + ".join(f"pow(2, sqrt(1+sqrt({n})))" for n in (2, 3, 5, 6, 7, 10, 11, 13))


def test_verify_rejects_a_relation_that_its_size_alone_explains(tmp_path, monkeypatch):
    # PSLQ's vector for the eighth exponent at 160 bits: its form is 2^-160.3, but nine
    # reals meet 2^-160 with coefficients near 2^20 (Dirichlet), far above 2^14
    forged = Relation((-302047, -585029, 230280, -619243, 342486, 212269, 238867, -276266,
                       461145), "heuristic", 160)
    detect, check = qx.ladders.detect_relation, qx.ladders.check_removal

    def forge(values, precision_bits):
        return forged if len(values) == 8 else detect(values, precision_bits)

    monkeypatch.setattr(qx.ladders, "detect_relation", forge)
    monkeypatch.setattr(qx.ladders, "check_removal", lambda *a: (*check(*a)[:2], None))
    code, out, err = run(["reduce", E8_LADDER, "--base", "2", "--ascend"])
    monkeypatch.undo()
    assert code == 0, err
    cert = json.loads(out)
    assert [rm["index"] for rm in cert["reduced"]["removals"]] == [7]
    assert cert["ascent"]["degree"] == 7
    path = tmp_path / "forged.json"
    path.write_text(out)
    code, _, err = run(["verify", str(path)])
    assert code == 1
    assert err == ("FAIL ladder: the relation at index 7 is labelled heuristic, but a "
                   "coefficient is not below 16384: among 9 numbers at 160 bits its size "
                   "alone explains it\n"
                   "FAIL /reduced/removals/0/identity_verified: stored true, qx writes false\n")


def test_a_root_of_unity_is_removed_exactly_whatever_its_denominator():
    # pow(-1, 1/10^7) is algebraic: its rung 1/10^7 is rational, (-1, 10^7) is exact
    code, out, err = run(["reduce", "pow(-1, 1/10000000) + pow(-1, 1/1000000)", "--ascend"])
    assert code == 0, err
    cert = json.loads(out)
    assert [(rm["index"], rm["relation"]["coefficients"], rm["relation"]["confidence"])
            for rm in cert["reduced"]["removals"]] == [(0, [-1, 10**7], "exact"),
                                                       (1, [-1, 10**6], "exact")]
    assert cert["ascent"]["degree"] == 0


def test_a_ladder_command_evaluates_each_node_at_one_low_precision(tmp_path, monkeypatch):
    # reduce's 12-digit certificate computes each node at one precision below
    # 200 bits, and each base's log is taken once per precision; the removal
    # check decides the relation as labelled and evaluates no exponential, and
    # PSLQ runs above 200 bits
    low = {}        # node -> the precisions below 200 bits it was computed at
    base_logs = {}  # (base node, precision) -> logs of its enclosure
    computing = []
    compute, log = Expr._compute, CInterval.log

    def spy_compute(node, prec, kids):
        if prec < 200:
            low.setdefault(node, set()).add(prec)
        computing.append((node, kids))
        try:
            return compute(node, prec, kids)
        finally:
            computing.pop()

    def spy_log(enc, branch, prec):
        node, kids = computing[-1] if computing else (None, ())
        if node is not None and node.base is not None and enc is kids[0]:
            key = (node.base, prec)
            base_logs[key] = base_logs.get(key, 0) + 1
        return log(enc, branch, prec)

    monkeypatch.setattr(Expr, "_compute", spy_compute)
    monkeypatch.setattr(CInterval, "log", spy_log)
    planted = ("pow(-1, sqrt(2)) * pow(-1, log(3; -1)) "
               "* pow(-1, ((1/2) + 2*sqrt(2) - log(3; -1)))")
    code, out, err = run(["reduce", planted, "--ascend"])
    assert code == 0, err
    assert [rm["index"] for rm in json.loads(out)["reduced"]["removals"]] == [2]
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    assert run(["verify", str(cert)])[:2] == (0, "certificate verified\n")
    assert low and base_logs
    assert {node: precs for node, precs in low.items() if len(precs) > 1} == {}
    assert set(base_logs.values()) == {1}


def _meanprop_chain(n: int) -> str:
    lines = ["let s0 = seg(2);"]
    lines += [f"let s{i} = meanprop(s{i - 1}, {('2/3', '3/2')[i % 2]});" for i in range(1, n + 1)]
    return "\n".join(lines + [f"emit s{n};"]) + "\n"


_CHAINS = {"bisect-5": bisect_chain(5), "meanprop-8": _meanprop_chain(8)}


def test_compile_and_verify_of_a_meanprop_chain_escalate_at_most_2n_evaluations(
        tmp_path, monkeypatch):
    # each escalate evaluates its thunk once per precision it tries; a chain
    # of n steps takes 2 evaluations at n = 1 and 2, then 2n - 2, per command
    evaluations = [0]
    escalate = qx.interval.escalate

    def counting(thunk, *args, **kwargs):
        def counted(prec):
            evaluations[0] += 1
            return thunk(prec)
        return escalate(counted, *args, **kwargs)
    for module in (qx.interval, qx.expr, qx.dsl, qx.cli):
        monkeypatch.setattr(module, "escalate", counting)

    def evaluated(*argv):
        evaluations[0] = 0
        code, out, err = run(list(argv))
        assert code == 0, err
        return out, evaluations[0]
    prog, cert = tmp_path / "chain.qdx", tmp_path / "chain.json"
    for n in range(1, 13):
        prog.write_text(_meanprop_chain(n))
        out, compiled = evaluated("compile", str(prog))
        cert.write_text(out)
        verified = evaluated("verify", str(cert))[1]
        assert max(compiled, verified) <= 2 * n, (n, compiled, verified)


@pytest.mark.parametrize("source", [*(p.read_text() for p in sorted(CORPUS.glob("*.qdx"))),
                                    *_CHAINS.values()],
                         ids=[*(p.stem for p in sorted(CORPUS.glob("*.qdx"))), *_CHAINS])
def test_compile_and_verify_evaluate_each_node_at_one_low_precision(tmp_path, monkeypatch, source):
    # the round trip, the 12-digit certificate and verify's witness check
    # share the 64-bit evaluation of the sign and domain tests
    low = {}  # node -> the precisions below 128 bits it was computed at
    computed = [0]
    compute = Expr._compute

    def spy_compute(node, prec, kids):
        if prec < 128:
            low.setdefault(node, set()).add(prec)
        computed[0] += 1
        return compute(node, prec, kids)

    def verify(cert) -> tuple[int, str]:
        """The evaluations verify of cert makes, and what it prints."""
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        computed[0] = 0
        out = run(["verify", str(path)])[1]
        return computed[0], out

    monkeypatch.setattr(Expr, "_compute", spy_compute)
    cert = _compiled(tmp_path, source)
    evaluations, out = verify(cert)
    assert out == "certificate verified\n"
    assert low
    assert {node: precs for node, precs in low.items() if len(precs) > 1} == {}
    # the witness check makes no evaluation: verify makes as many without it
    for sub in cert["emits"].values():
        sub["verdict"].pop("witness", None)
    assert verify(cert)[0] == evaluations


def test_verify_rejects_a_ladder_whose_reduction_keeps_an_exact_relation(tmp_path):
    # the third rung is 1 + 2*sqrt(2): dropping its removal keeps a relation ascend refuses
    code, out, err = run(["ladder", "pow(-1, sqrt(2)) * pow(-1, (1 + 2*sqrt(2)))",
                          "--base", "-1", "--reduce", "--ascend"])
    assert code == 0, err
    cert = json.loads(out)
    assert [rm["index"] for rm in cert["reduced"]["removals"]] == [1]
    cert["reduced"]["removals"] = []
    cert["reduced"]["rungs"] = cert["ladder"]["rungs"]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert))
    code, _, err = run(["verify", str(forged)])
    assert code == 1
    assert "FAIL re-verification raised: rational relation" in err


def test_verify_rejects_an_exact_relation_that_states_a_precision(tmp_path):
    code, out, err = run(["reduce", "pow(-1, sqrt(2)) * pow(-1, (1 + 2*sqrt(2)))", "--ascend"])
    assert code == 0, err
    cert = json.loads(out)
    assert cert["reduced"]["removals"][0]["relation"]["precision_bits"] is None
    cert["reduced"]["removals"][0]["relation"]["precision_bits"] = 160
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(cert))
    code, _, err = run(["verify", str(forged)])
    assert (code, err) == (1, "FAIL malformed certificate: the exact relation at index 1 "
                              "states precision_bits 160\n")


def test_compile_certificates_of_every_corpus_program_verify(tmp_path):
    for path in sorted(CORPUS.glob("*.qdx")):
        cert = tmp_path / "cert.json"
        code, out, err = run(["compile", str(path)])
        assert code == 0, (path.name, err)
        cert.write_text(out)
        assert run(["verify", str(cert)])[:2] == (0, "certificate verified\n"), path.name


@pytest.mark.parametrize("text, digits, decimal", [
    ("1/5", 16, "0.2"), ("7/5", 16, "1.4"), ("-7/5", 16, "-1.4"),
    ("1/3", 16, "0.3333333333333333"), ("sqrt(2)*sqrt(2)/4", 30, "0.5"),
    ("(sqrt(5)-1)*(sqrt(5)+1)/8", 16, "0.5"),
])
def test_eval_prints_the_exact_decimal_of_a_quadratic_field_rational(text, digits, decimal):
    code, out, err = run(["eval", "--precision", str(digits), "--", text])
    assert (code, out) == (0, decimal + "\n"), err
    code, out, err = run(["classify", "--json", "--precision", str(digits), "--", text])
    assert code == 0, err
    assert json.loads(out)["subject"]["decimal"] == decimal


def test_eval_prints_a_proven_rational_without_enclosing_it():
    # the radicand is exactly 0: its square root's enclosure at 700 digits
    # needs twice the bits, past the precision ceiling
    assert run(["eval", "--precision", "700", "sqrt(sqrt(8) - 2*sqrt(2))"]) == (0, "0\n", "")


@pytest.mark.parametrize("text, rendered", [
    ("1 +\n $", "error: 2:2: unexpected character '$' in expression\n"),
    ("sqrt(2)\n  + (1", "error: 2:7: expected ')', found 'end of input'\n"),
    ("1 + $", "error: 1:5: unexpected character '$' in expression\n"),
    ("foo", "error: 1:1: unknown constant 'foo' (hint: try pi, e, i)\n"),
    ("2+foo*3", "error: 1:3: unknown constant 'foo' (hint: try pi, e, i)\n"),
])
def test_an_expression_error_names_its_line_and_column(text, rendered):
    assert run(["eval", text]) == (3, "", rendered)


def test_an_unknown_constant_carries_its_hint_as_the_suggestion():
    code, out, err = run(["classify", "2+foo*3", "--json"])
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": {
        "message": "unknown constant 'foo'", "type": "DslSyntaxError", "line": 1, "column": 3,
        "suggestion": "try pi, e, i"}}


# --- the decimal writer against the Fraction algorithm it replaced -------------

def _fraction_dec_dir(fr, places: int, up: bool) -> str:
    n = fr * 10**places
    return fixed_point(-(-n.numerator // n.denominator) if up else n.numerator // n.denominator,
                       places)


def _fraction_certified_real(r: RInterval, digits: int) -> str:
    """The reference: both endpoints as Fractions, scaled afresh for every d."""
    if r.is_point():
        return r.lo.decimal()
    lo, hi = r.lo.to_fraction(), r.hi.to_fraction()
    for d in range(digits, -1, -1):
        scale = 10**d
        tlo, thi = int(lo * scale), int(hi * scale)  # toward zero
        if tlo == thi:
            return fixed_point(tlo, d, tlo < 0 or (tlo == 0 and hi <= 0 and lo < 0))
    return f"[{_fraction_dec_dir(lo, digits, False)}, {_fraction_dec_dir(hi, digits, True)}]"


def _fraction_certified_decimal(ci: CInterval, digits: int) -> str:
    re_s = _fraction_certified_real(ci.re, digits)
    if ci.im.is_zero_point():
        return re_s
    im_s = _fraction_certified_real(ci.im, digits)
    return f"{re_s} - {im_s[1:]}i" if im_s.startswith("-") else f"{re_s} + {im_s}i"


def _fraction_enclosure_json(ci: CInterval, digits: int) -> dict:
    def ends(r):
        return [_fraction_dec_dir(r.lo.to_fraction(), digits + 6, False),
                _fraction_dec_dir(r.hi.to_fraction(), digits + 6, True)]
    out = {"re": ends(ci.re)}
    if not ci.im.is_zero_point():
        out["im"] = ends(ci.im)
    return out


@st.composite
def _intervals(draw) -> RInterval:
    """Point, [-x, 0], [0, x], zero-crossing, negative, narrow or any interval;
    exponents up to 40 give integer endpoints."""
    m1, m2 = draw(st.integers(0, 10**40)), draw(st.integers(0, 10**40))
    e1, e2 = draw(st.integers(-160, 40)), draw(st.integers(-160, 40))
    kind = draw(st.sampled_from(["point", "upto0", "from0", "across0", "negative", "narrow",
                                 "any"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "point":
        return RInterval(Dyadic.new(sign * m1, e1), Dyadic.new(sign * m1, e1))
    if kind == "upto0":
        return RInterval(Dyadic.new(-m1, e1), Dyadic.new(0))
    if kind == "from0":
        return RInterval(Dyadic.new(0), Dyadic.new(m1, e1))
    if kind == "across0":
        return RInterval(Dyadic.new(-m1, e1), Dyadic.new(m2, e2))
    if kind == "narrow":  # endpoints that agree on up to about 1000 decimal places
        shift, gap = draw(st.integers(0, 3400)), draw(st.integers(0, 10**6))
        return RInterval(Dyadic.new(sign * m1, e1),
                         Dyadic.new((sign * m1 << shift) + gap, e1 - shift))
    if kind == "negative":
        ends = [Dyadic.new(-m1, e1), Dyadic.new(-m2, e2)]
    else:
        ends = [Dyadic.new(sign * m1, e1), Dyadic.new(draw(st.sampled_from([1, -1])) * m2, e2)]
    return RInterval(*sorted(ends, key=Dyadic.to_fraction))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_intervals(), st.one_of(st.just(RInterval.zero()), _intervals()),
       st.one_of(st.just(0), st.integers(1, 40), st.just(1000)))
def test_decimal_writer_matches_the_fraction_algorithm(re_part, im_part, digits):
    ci = CInterval(re_part, im_part)
    assert qx.cli.certified_real(re_part, digits) == _fraction_certified_real(re_part, digits)
    assert qx.cli.certified_decimal(ci, digits) == _fraction_certified_decimal(ci, digits)
    assert qx.cli._enclosure_json(ci, digits) == _fraction_enclosure_json(ci, digits)


@pytest.mark.parametrize("lo, hi, digits, decimal", [
    ((-1, -200), (0, 0), 5, "-0.00000"), ((0, 0), (1, -200), 5, "0.00000"),
    ((-1, -200), (1, -200), 5, "0.00000"), ((-3, -1), (-5, -2), 2, "-1"),
    ((-3, -1), (5, -2), 1, "[-1.5, 1.3]"), ((7, 2), (3, 4), 3, "[28.000, 48.000]"),
])
def test_certified_real_renders_signs_and_disagreeing_endpoints(lo, hi, digits, decimal):
    r = RInterval(Dyadic.new(*lo), Dyadic.new(*hi))
    assert qx.cli.certified_real(r, digits) == decimal


@pytest.mark.parametrize("argv", [
    ["eval", "sin_pi(3/7)", "--precision", "1000"],
    ["eval", "pow(5, sqrt(5))", "--precision", "300"],
    ["classify", "sqrt(2)+sqrt(3)", "--json"],
    *(["compile", str(p)] for p in sorted(CORPUS.glob("*.qdx"))),
    ["verify", "widened.json"],
], ids=lambda argv: " ".join(argv[:2]) if argv[0] != "compile" else Path(argv[1]).stem)
def test_the_decimal_writer_turns_no_endpoint_into_a_fraction(monkeypatch, tmp_path, argv):
    if argv[0] == "verify":  # corpus 07's certificate, p.x = sqrt(3)/2 stored in [0.8, 0.9]
        cert = _compiled(tmp_path, (CORPUS / "07_trisect_right.qdx").read_text())
        cert["emits"]["p.x"]["enclosure"]["re"] = ["0.8", "0.9"]
        argv = ["verify", str(tmp_path / argv[1])]
        Path(argv[1]).write_text(qx.cli._dump(cert))
    calls = []
    to_fraction = Dyadic.to_fraction
    monkeypatch.setattr(Dyadic, "to_fraction", lambda d: calls.append(d) or to_fraction(d))
    code, _, err = run(argv)
    assert code == 0, err
    assert calls == []


# --- verify: the relaxed fields of each rebuilt subject, then the diff ------------------

def _spied(monkeypatch, *names: str) -> dict:
    """The number of calls to each of the named qx.cli functions, as they happen."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _real=getattr(qx.cli, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(qx.cli, name, spy)
    return calls


@pytest.mark.parametrize("source", [
    *GOLDEN,
    *(["compile", str(p)] for p in sorted(CORPUS.glob("*.qdx"))),
    ["classify", "sqrt(2)+sqrt(3)", "--json"],
    ["reduce", "log(6; -1) + log(2; -1) + log(3; -1)", "--ascend"],
], ids=lambda s: s.name if isinstance(s, Path) else Path(s[1]).stem if s[0] == "compile"
   else s[0])
def test_verify_of_qx_s_own_certificates_runs_no_containment_check(monkeypatch, tmp_path,
                                                                     source):
    if isinstance(source, Path):
        path = source
    else:
        code, out, err = run(source)
        assert code == 0, err
        path = tmp_path / "cert.json"
        path.write_text(out)
    calls = _spied(monkeypatch, "_contains")
    assert run(["verify", str(path)])[:2] == (0, "certificate verified\n")
    assert calls == {"_contains": 0}


@pytest.mark.parametrize("indent", [None, 4])
def test_a_certificate_in_another_layout_verifies_through_the_relaxed_checks(
        monkeypatch, tmp_path, indent):
    cert = _compiled(tmp_path, (CORPUS / "07_trisect_right.qdx").read_text())
    path = tmp_path / "relaid.json"
    path.write_text(json.dumps(cert, indent=indent))
    calls = _spied(monkeypatch, "_relax", "_diff")
    assert run(["verify", str(path)])[:2] == (0, "certificate verified\n")
    assert calls["_relax"] == len(cert["emits"]) and calls["_diff"] > 0


def _fraction_contains(bounds, r: RInterval):
    """The reference: stored bounds and endpoints as Fractions; None while the two only meet."""
    from fractions import Fraction
    lo, hi = map(Fraction, bounds)
    rlo, rhi = r.lo.to_fraction(), r.hi.to_fraction()
    return (lo <= rlo and rhi <= hi) or (None if lo <= rhi and rlo <= hi else False)


@st.composite
def _bound_near(draw, r: RInterval) -> str:
    """A stored endpoint in verify's syntax within a few units of the last
    place from one of r's endpoints, which it may equal; "-0" and leading
    zeros included."""
    end = draw(st.sampled_from([r.lo, r.hi])).to_fraction()
    places = draw(st.integers(0, 170))
    n = math.floor(end * 10**places) + draw(st.integers(-2, 2))
    sign = "-" if n < 0 or (n == 0 and draw(st.booleans())) else ""
    return sign + "0" * draw(st.integers(0, 2)) + fixed_point(abs(n), places)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_containment_in_integers_matches_the_fraction_comparison(data):
    r = data.draw(_intervals())
    bounds = [data.draw(_bound_near(r)), data.draw(_bound_near(r))]
    value = type("Value", (), {"eval": lambda self, prec: CInterval.real(r)})()
    failures = []
    contained = qx.cli._contains(value, 12, "re", bounds, "/x", failures)
    expected = _fraction_contains(bounds, r)
    assert contained is (expected is True)
    assert failures == {True: [], False: ["/x: enclosure does not contain the value"],
                        None: ["/x: containment not settled within the precision ceiling"]}[
        expected]


def _subject_outside(cert):  # its value is -1.14...i: no real part in [1, 2]
    cert["subject"]["enclosure"]["re"] = ["1", "2"]


def _both(*forges):
    def forge(cert):
        for f in forges:
            f(cert)
    return forge


@pytest.mark.parametrize("forge, stderr", [
    (_drop("reduced", "removals", 0, "relation"),
     "FAIL /subject/enclosure/re: enclosure does not contain the value\n"
     "FAIL malformed certificate: missing field 'relation'\n"),
    (_both(_drop("reduced", "removals", 0, "relation"),
           _set("subject", "enclosure", "re", 0, "1e5")),
     "FAIL malformed certificate: enclosure endpoint '1e5' is not of the form "
     "-?[0-9]+(\\.[0-9]+)?\n"),
    (_set("reduced", "removals", 0, "relation", "confidence", "exact"),
     "FAIL /subject/enclosure/re: enclosure does not contain the value\n"
     "FAIL malformed certificate: the exact relation at index 2 states precision_bits 160\n"
     "FAIL ladder: the relation at index 2 is labelled exact but does not hold exactly\n"
     "FAIL /reduced/removals/0/identity_verified: stored true, qx writes false\n"
     'FAIL /subject/enclosure/re/0: stored "1", qx writes "0.000000000000000000"\n'
     'FAIL /subject/enclosure/re/1: stored "2", qx writes "0.000000000000000000"\n'),
], ids=["removal-raises", "endpoint-raises-first", "removal-fails"])
def test_verify_reports_the_subject_before_the_ladder_rebuilt_after_it(tmp_path, forge, stderr):
    """The subject's relaxed fields are checked as soon as the subject is
    rebuilt, before what the ladder rebuild finds: an error there ends the
    check, and an error of the rebuild follows them."""
    cert = json.loads((Path(__file__).parent / "golden" / "ladder_logs_reduced.json").read_text())
    _subject_outside(cert)
    forge(cert)
    path = tmp_path / "forged.json"
    for layout in (json.dumps, qx.cli._dump):
        path.write_text(layout(cert))
        assert run(["verify", str(path)]) == (1, "", stderr)


def _bisected_then_reversed(k: int) -> str:
    lines = ["let p0 = ra(3, 4);"] + [f"let p{i} = bisect(p{i - 1});" for i in range(1, k + 1)]
    return "\n".join(lines + [f"let t = rra(p{k});", "emit t;"]) + "\n"


def test_points_built_on_the_unit_circle_are_never_proved_there_again(tmp_path, monkeypatch):
    # at 64 bits x^2 + y^2 - 1 of an ra point encloses 0 and its sign escalates to
    # the precision ceiling; ra and bisect build on the circle, so no test runs
    top, signs, checking = [0], [0], [False]
    compute, sign, check = Expr._compute, qx.geometry.sign, qx.geometry._check_unit_circle

    def spy_compute(node, prec, kids):
        top[0] = max(top[0], prec)
        return compute(node, prec, kids)

    def spy_sign(e):
        signs[0] += checking[0]
        return sign(e)

    def spy_check(ctx, p):
        checking[0] = True
        try:
            return check(ctx, p)
        finally:
            checking[0] = False

    monkeypatch.setattr(Expr, "_compute", spy_compute)
    monkeypatch.setattr(qx.geometry, "sign", spy_sign)
    monkeypatch.setattr(qx.geometry, "_check_unit_circle", spy_check)
    sources = {"10_general_anglesect": (CORPUS / "10_general_anglesect.qdx").read_text()}
    sources.update((f"bisect-{k}", _bisected_then_reversed(k)) for k in range(1, 13))
    prog, cert = tmp_path / "prog.qdx", tmp_path / "cert.json"
    for label, source in sources.items():
        prog.write_text(source)
        code, out, err = run(["compile", str(prog)])
        assert code == 0, (label, err)
        cert.write_text(out)
        assert run(["verify", str(cert)])[:2] == (0, "certificate verified\n"), label
        assert (top[0], signs[0]) == (64, 0), label


def _certified_reading(text: str, ref, digits: int) -> bool:
    """text is ref truncated toward zero at its k <= digits places, and exact where k < digits."""
    k = len(text.partition(".")[2])
    value = mpmath.mpf(text)
    if k < digits:
        return abs(value - ref) < mpmath.mpf(10) ** (-2 * digits)
    return 0 <= ref - value < mpmath.mpf(10) ** (-k)


def test_report_clavius_rows_are_certified_readings_of_mpmath():
    n = 12
    code, out, err = run(["report", "clavius", "--n", str(n)])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["report"] == "clavius-convergence"
    with mpmath.workdps(30):
        two_over_pi = 2 / mpmath.pi
        assert _certified_reading(rep["two_over_pi"], two_over_pi, 15)
        assert [row["n"] for row in rep["rows"]] == list(range(1, n + 1))
        for row in rep["rows"]:
            y = mpmath.mpf(1) / 2 ** row["n"]
            x = y * mpmath.cospi(y / 2) / mpmath.sinpi(y / 2)
            assert _certified_reading(row["x"], x, 15), row
            assert _certified_reading(row["abs_error_vs_2_over_pi"], abs(x - two_over_pi), 15), row


def test_a_ladder_of_arcsin_over_pi_rests_on_its_euler_log_and_verifies(tmp_path):
    code, out, err = run(["ladder", "arcsin_over_pi(1/3)", "--reduce", "--ascend"])
    assert code == 0, err
    cert = json.loads(out)
    assert [r["value"] for r in cert["reduced"]["rungs"]] == [
        "log(((sqrt(-1) * 1/3) + sqrt(8/9)); -1; 0)"]
    path = tmp_path / "cert.json"
    path.write_text(out)
    assert run(["verify", str(path)])[:2] == (0, "certificate verified\n")
