"""Command-line surface: compile, eval, classify, ladder, reduce, report,
render, verify.

Certificates are self-contained JSON: expressions in canonical text
(`qx-certificate/1`: classify and ladder) or, for compile, as one node table
of the emitted DAGs (`qx-certificate/2`); enclosures as exact decimal
endpoints (outward-rounded); witnesses and relations embedded, so `qx verify`
can re-check everything offline.
Printed decimal digits are certified only: a digit is shown when the whole
enclosure agrees on it.

Every input ends in one of six exit codes, never in a traceback: 0 ok,
1 verification failure, 2 I/O or a malformed option value, 3 syntax,
4 semantic, 5 domain/precision or one of Python's resource limits (recursion
depth, memory, number size, the int/str digit limit). Subcommands raise;
`main` alone turns an exception into an exit code and one stderr message
(a qx error's code is its class's `exit_code`), and lets any other
exception propagate, since that is a bug.
QX_PRECISION_CEILING (bits) caps refinement.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from . import errors as err
from .dsl import compile_program, parse, pretty_print, verify_roundtrip
from .dyadic import fixed_point
from .expr import Context, Expr, quad_flatten, to_table, to_text
from .exprtext import parse_expr
from .geometry import clavius_point, spiral_probe_report
from .interval import CInterval, RInterval, precision_ceiling
from .ladders import (Ladder, Relation, Removal, ascend, atoms_independent, check_removal,
                      descend, reduce_ladder, relation_holds)
from .minpoly import IntPoly, Verdict, transcendence_rules
from .render import render_svg

VERSION = "0.1.0"
TEXT_FORMAT = "qx-certificate/1"        # subjects as canonical text
NODE_TABLE_FORMAT = "qx-certificate/2"  # compile emits as rows of one node table


# --- decimal formatting --------------------------------------------------------

def _dec_dir(fr: Fraction, places: int, up: bool) -> str:
    n = fr * 10**places
    return fixed_point(-(-n.numerator // n.denominator) if up else n.numerator // n.denominator,
                       places)


def _interval_json(r: RInterval, places: int) -> list[str]:
    return [_dec_dir(r.lo.to_fraction(), places, up=False),
            _dec_dir(r.hi.to_fraction(), places, up=True)]


def certified_real(r: RInterval, digits: int) -> str:
    """Decimal string whose digits the whole enclosure agrees on (truncated)."""
    if r.is_point():
        return r.lo.decimal()  # exact value, exact finite decimal
    lo, hi = r.lo.to_fraction(), r.hi.to_fraction()
    for d in range(digits, -1, -1):
        scale = 10**d
        tlo, thi = int(lo * scale), int(hi * scale)  # toward zero
        if tlo == thi:
            return fixed_point(tlo, d, tlo < 0 or (tlo == 0 and hi <= 0 and lo < 0))
    return f"[{_dec_dir(lo, digits, up=False)}, {_dec_dir(hi, digits, up=True)}]"


def _rational_decimal(v: Fraction, digits: int) -> str:
    """The exact rational v in decimal: all of it when it terminates, as for an
    exact point enclosure, else its first `digits` places (truncated)."""
    rest = v.denominator
    twos = (rest & -rest).bit_length() - 1
    rest >>= twos
    fives = 0
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if rest != 1:
        return fixed_point(int(v * 10**digits), digits, v < 0)
    places = max(twos, fives)
    return fixed_point(v.numerator * 10**places // v.denominator, places)


def certified_decimal(ci: CInterval, digits: int) -> str:
    re_s = certified_real(ci.re, digits)
    if ci.im.is_zero_point():
        return re_s
    im_s = certified_real(ci.im, digits)
    if im_s.startswith("-"):
        return f"{re_s} - {im_s[1:]}i"
    return f"{re_s} + {im_s}i"


def _enclosure_json(ci: CInterval, digits: int) -> dict:
    places = digits + 6
    out = {"re": _interval_json(ci.re, places)}
    if not ci.im.is_zero_point():
        out["im"] = _interval_json(ci.im, places)
    return out


def _digits_width(digits: int) -> Fraction:
    cap = precision_ceiling()
    if digits > cap:
        # 10^-digits < 2^-digits: the target needs more bits than the ceiling allows
        raise err.MaxPrecision(f"{digits} digits need a width target of more than {digits} "
                               f"bits, beyond the precision ceiling of {cap} bits")
    return Fraction(1, 10**digits)


# --- certificate builders --------------------------------------------------------

def _tower_json(tag) -> dict:
    def lv(x):
        return "top" if x is None else x
    return {"s": lv(tag.s), "a": lv(tag.a), "sa": lv(tag.sa), "el": lv(tag.el)}


def _verdict_json(v: Verdict) -> dict:
    out = {"status": v.status, "rule": v.rule, "conditional": v.conditional}
    if v.witness is not None:
        out["witness"] = list(v.witness.coeffs)
    if v.value is not None:
        out["value"] = str(v.value)
    return out


def _subject_json(e: Expr, digits: int) -> dict:
    """What a certificate states about one value, apart from how it names the value.

    Its "decimal" is the exact value of a rational verdict, else the digits
    the enclosure certifies.
    """
    enc = e.enclosure(_digits_width(digits))
    verdict = transcendence_rules(e)
    exact = verdict.value  # set exactly when the verdict is rational
    return {
        "decimal": (certified_decimal(enc, digits) if exact is None
                    else _rational_decimal(exact, digits)),
        "enclosure": _enclosure_json(enc, digits),
        "precision_digits": digits,
        "verdict": _verdict_json(verdict),
        "tower": _tower_json(e.tag),
    }


def expr_certificate(e: Expr, digits: int) -> dict:
    return {"expr": to_text(e), **_subject_json(e, digits)}


def _emit_table(values: dict) -> tuple[list, dict]:
    """The node table of the emitted values, in sorted name order, and each name's row."""
    names = sorted(values)
    nodes, rows = to_table([values[n] for n in names])
    return nodes, dict(zip(names, rows))


def _meta() -> dict:
    return {"tool": "qx", "version": VERSION, "format": TEXT_FORMAT}


def _ladder_json(ladder) -> dict:
    return {
        "base": to_text(ladder.base),
        "rungs": [{"value": to_text(r.value), "kind": r.kind, "witness": r.witness}
                  for r in ladder.rungs],
        "removals": [{
            "index": rm.original_index,
            "relation": {"coefficients": list(rm.relation.coefficients),
                         "confidence": rm.relation.confidence,
                         "precision_bits": rm.relation.precision_bits},
            "constant": str(rm.constant),
            "combo": _combo_json(rm.combo),
            "identity_verified": rm.identity_verified,
        } for rm in ladder.removals],
    }


def _combo_json(combo) -> list:
    return [[j, str(q)] for j, q in combo]


def _ascent_json(report) -> dict:
    return {
        "choices": [to_text(c) for c in report.choices],
        "kinds": list(report.kinds),
        "degree": report.degree,
        "conditional": report.conditional,
        "notes": list(report.notes),
        "crosschecks": [None if v is None else _verdict_json(v) for v in report.crosschecks],
    }


def _dump(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", byte for byte.

    CPython runs an indented `json.dumps` in its pure-Python encoder; this
    walks the value once and escapes strings with the C encoder's
    `encode_basestring_ascii`. Every key is a string.
    """
    out: list = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(v, newline: str, out: list) -> None:
    """Append the JSON text of v; `newline` is a newline plus v's own indent."""
    if type(v) is str:
        out.append(_encode_str(v))
    elif type(v) is int:
        out.append(repr(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in v:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(v.items()):
            out.append(sep + _encode_str(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    else:
        out.append(json.dumps(v))  # floats, subclasses; TypeError for the rest


# --- subcommands ---------------------------------------------------------------------

def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def cmd_compile(args) -> int:
    prog = parse(_read(args.path))
    result = compile_program(prog)
    roundtrip = verify_roundtrip(result)
    nodes, rows = _emit_table(result.values)
    cert = {
        "command": "compile",
        "meta": {**_meta(), "format": NODE_TABLE_FORMAT},
        "program": pretty_print(prog),
        "roundtrip": roundtrip,
        "nodes": nodes,
        "emits": {name: {"node": rows[name], **_subject_json(e, args.precision)}
                  for name, e in result.values.items()},
    }
    sys.stdout.write(_dump(cert))
    return 0


def cmd_eval(args) -> int:
    e = parse_expr(args.expr, Context())
    width = _digits_width(args.precision)
    flat = quad_flatten(e)  # (u, 0, 0): proven rational, so printed exactly
    print(_rational_decimal(flat[0], args.precision) if flat is not None and flat[1:] == (0, 0)
          else certified_decimal(e.enclosure(width), args.precision))
    return 0


def cmd_classify(args) -> int:
    e = parse_expr(args.expr, Context())
    cert = {"command": "classify", "meta": _meta(),
            "subject": expr_certificate(e, args.precision)}
    if args.json:
        sys.stdout.write(_dump(cert))
    else:
        s = cert["subject"]
        v = s["verdict"]
        line = f"{s['expr']} = {s['decimal']}  status={v['status']} rule={v['rule']}"
        if v.get("witness"):
            line += f" witness={IntPoly.new(v['witness'])}"
        print(line)
    return 0


def cmd_ladder(args) -> int:
    ctx = Context(base=args.base)
    e = parse_expr(args.expr, ctx)
    ladder = descend(e, ctx)
    cert = {"command": "ladder", "meta": _meta(),
            "subject": expr_certificate(e, args.precision),
            "ladder": _ladder_json(ladder)}
    if args.reduce or args.ascend:
        reduced = reduce_ladder(ladder, ctx, args.max_coeff, args.relation_bits)
        cert["reduced"] = _ladder_json(reduced)
    if args.ascend:
        cert["ascent"] = _ascent_json(ascend(reduced, ctx))
    sys.stdout.write(_dump(cert))
    return 0


def cmd_report(args) -> int:
    ctx = Context()
    if args.kind == "spiral":
        rep = spiral_probe_report(ctx, 1, args.kmin, args.kmax)
        payload = {
            "command": "report", "meta": _meta(), "report": "spiral-secant-probe",
            "k_range": list(rep.k_range),
            "intercepts": list(rep.intercepts),
            "successive_differences": list(rep.differences),
            "shrink_factors": [f"{s:.6f}" for s in rep.shrink_factors],
            "limit_estimate": rep.limit_estimate,
            "closed_forms": {
                "polar_subtangent_R_pi_over_2": rep.subtangent,
                "one_eighth_circumference_pi_R_over_4": rep.eighth_reading,
            },
            "discrepancy": {
                "vs_subtangent": rep.discrepancy_subtangent,
                "vs_one_eighth": rep.discrepancy_eighth,
                "factor_between_readings": f"{rep.factor_between_readings:.6f}",
            },
            "note": "the two classical readings differ by a factor of 2; "
                    "this report states the measured limit and both candidates "
                    "without choosing",
        }
    else:
        width = Fraction(1, 1 << 80)
        pi_enc = ctx.pi().enclosure(width)
        two_over_pi = CInterval.from_int(2).div(pi_enc, 96)
        rows = []
        for n in range(1, args.n + 1):
            x = clavius_point(ctx, n).x.enclosure(width)
            diff = x.sub(two_over_pi, 96)
            rows.append({"n": n, "x": certified_decimal(x, 15),
                         "abs_error_vs_2_over_pi":
                             certified_real(diff.re, 15).lstrip("-")})
        payload = {"command": "report", "meta": _meta(), "report": "clavius-convergence",
                   "rows": rows, "two_over_pi": certified_decimal(two_over_pi, 15)}
    sys.stdout.write(_dump(payload))
    return 0


def cmd_render(args) -> int:
    result = compile_program(parse(_read(args.path)))
    curves = (args.with_curve,) if args.with_curve else ()
    svg = render_svg(result, args.width, args.height, curves)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


# --- certificate verification ---------------------------------------------------------

_sorted_json = json.JSONEncoder(sort_keys=True).encode  # json.dumps(x, sort_keys=True)


def _same_json(a, b) -> bool:
    """Equal as JSON text, since in Python true == 1 and 1.0 == 1."""
    return _sorted_json(a) == _sorted_json(b)


# verify reads an enclosure endpoint and a ladder base only in the syntax qx
# writes them in (`fixed_point`, `to_text` of a rational): Fraction alone
# would also take "1e10000000", and spend seconds expanding it
_ENDPOINT = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_BASE = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _stored_number(text, syntax: re.Pattern, what: str) -> Fraction:
    if type(text) is not str or not syntax.fullmatch(text):
        raise ValueError(f"{what} {text!r} is not of the form {syntax.pattern}")
    return Fraction(text)


_WITNESS_WIDTH = Fraction(1, 1 << 60)  # a stored witness is re-checked on this width or finer

# the subject fields `_check_subject` checks on their own, and those naming the value
_CHECKED_APART = {"decimal", "enclosure", "verdict", "verdict.status", "verdict.witness",
                  "expr", "node"}


def _check_subject(e: Expr, sub: dict, failures: list[str], label: str):
    """Every field of sub must be the one `_subject_json` writes for e, but two.

    The stored enclosure need only meet the recomputed one, and a witness
    need only be a multiple of the recomputed one in Z[x] that annihilates
    the value on its enclosure, though it must be stored exactly when the
    recomputation has one: old certificates keep verifying when a witness
    changes. The field naming the value ("expr" or "node") is the caller's.
    """
    digits = sub["precision_digits"]
    if type(digits) is not int:
        raise TypeError(f"precision_digits {digits!r} is not an integer")
    want = _subject_json(e, digits)
    enc = e.enclosure(_digits_width(digits))  # memoized by `_subject_json`
    stored_enc = {"im": ["0", "0"], **sub["enclosure"]}  # no "im": a real value
    for part, name in (("re", "real"), ("im", "imaginary")):
        lo, hi = (_stored_number(s, _ENDPOINT, "enclosure endpoint") for s in stored_enc[part])
        got = getattr(enc, part)
        if not (got.lo.to_fraction() <= hi and lo <= got.hi.to_fraction()):
            failures.append(f"{label}: stored {name} enclosure does not meet recomputation")
    v, now = sub["verdict"], want["verdict"]
    if now["status"] != v["status"]:
        failures.append(f"{label}: verdict status changed ({v['status']} -> {now['status']})")
    if sub["decimal"] != want["decimal"]:
        failures.append(f"{label}: stored decimal is not the one the recomputation prints")
    if ("witness" in v) != ("witness" in now):
        failures.append(f"{label}: a witness is stored exactly when the recomputation has one")
    elif "witness" in v:
        poly = IntPoly.new(v["witness"])
        # on an enclosure no wider than 2^-60: the certificate's one when it is
        fine = enc if enc.width_at_most(_WITNESS_WIDTH) else e.enclosure(_WITNESS_WIDTH)
        val = poly.eval_enclosure(fine, 128)
        if poly.is_zero() or not val.contains_zero():
            failures.append(f"{label}: witness polynomial does not annihilate the value")
        elif poly.coeffs != tuple(now["witness"]) and (
                poly.exact_quotient(IntPoly.new(now["witness"])) is None):
            failures.append(f"{label}: witness polynomial is not a multiple of the "
                            f"recomputed witness")
    # every other field exactly, the verdict's one by one
    stored, written = ({**d, **{f"verdict.{k}": x for k, x in d["verdict"].items()}}
                       for d in (sub, want))
    for key in sorted((stored.keys() | written.keys()) - _CHECKED_APART):
        if key not in stored or key not in written or not _same_json(stored[key], written[key]):
            failures.append(f"{label}: stored {key} is not the one the recomputation writes")


def cmd_verify(args) -> int:
    cert = json.loads(_read(args.path))
    failures: list[str] = []
    command = cert.get("command") if isinstance(cert, dict) else None
    # a qx error or a malformed field while re-checking is a verification failure
    try:
        if command not in _FORMATS:
            failures.append(f"unknown certificate command {command!r}")
        elif cert["meta"]["format"] not in _FORMATS[command]:
            failures.append(f"unknown certificate format {cert['meta']['format']!r} "
                            f"for {command}")
        elif command == "compile":
            _verify_compile_cert(cert, failures)
        elif command == "classify":
            sub = cert["subject"]
            _check_subject(parse_expr(sub["expr"], Context()), sub, failures, "subject")
        else:
            _verify_ladder_cert(cert, failures)
    except err.QxError as exc:
        failures.append(f"re-verification raised: {exc}")
    except KeyError as exc:
        failures.append(f"malformed certificate: missing field {exc}")
    except (TypeError, ValueError) as exc:
        failures.append(f"malformed certificate: {exc}")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print("certificate verified")
    return 0


# the certificate formats verify reads, per command
_FORMATS = {"compile": (TEXT_FORMAT, NODE_TABLE_FORMAT), "classify": (TEXT_FORMAT,),
            "ladder": (TEXT_FORMAT,)}


def _verify_compile_cert(cert: dict, failures: list[str]):
    """The stored emits must be the embedded program's, each naming the value
    the program builds, then passing `_check_subject`: by its canonical text
    under /1, by its row of the node table under /2, whose every row must be
    the one `compile` would write."""
    result = compile_program(parse(cert["program"]))
    if not _same_json(cert["roundtrip"], verify_roundtrip(result)):
        failures.append("stored round-trip report is not the one the embedded program gives")
    by_table = cert["meta"]["format"] == NODE_TABLE_FORMAT
    if by_table:
        nodes, rows = _emit_table(result.values)
        if not _same_json(cert["nodes"], nodes):
            failures.append("stored node table is not the one the embedded program builds")
    if type(cert["emits"]) is not dict:
        raise TypeError("emits is not an object from names to subjects")
    for name in sorted(result.values.keys() - cert["emits"].keys()):
        failures.append(f"{name}: emitted by the embedded program but not stored")
    for name, sub in cert["emits"].items():
        value = result.values.get(name)
        if value is None:
            failures.append(f"{name}: not produced by the embedded program")
            continue
        if by_table:
            row = sub["node"]
            if type(row) is not int or row != rows[name]:  # bools and floats too
                failures.append(f"{name}: stored node {row!r} is not the row of the value "
                                f"the embedded program builds")
        elif to_text(value) != sub["expr"]:
            failures.append(f"{name}: stored expression is not the one the "
                            f"embedded program builds")
        _check_subject(value, sub, failures, name)


def _verify_ladder_cert(cert: dict, failures: list[str]):
    """The subject; the ladder `descend` writes; each removal, in increasing
    index order, re-derived from its relation over the rungs kept before it,
    whose relation must hold as its label says (`relation_holds`), and hold
    exactly when the atoms of those rungs are proven independent; the reduced
    ladder, which is the descent's without the removed rungs; and the report
    `ascend` gives on it."""
    ctx = Context(base=_stored_number(cert["ladder"]["base"], _BASE, "ladder base"))
    sub = cert["subject"]
    subject = parse_expr(sub["expr"], ctx)
    _check_subject(subject, sub, failures, "subject")
    ladder = descend(subject, ctx)
    stored = [r["value"] for r in cert["ladder"]["rungs"]]
    if [to_text(r.value) for r in ladder.rungs] != stored:
        failures.append("ladder: descent does not reproduce the stored rungs")
        return  # everything below is derived from the descent
    if not _same_json(cert["ladder"], _ladder_json(ladder)):
        failures.append("ladder: stored ladder is not the one the descent writes")
    if "reduced" not in cert and "ascent" not in cert:
        return
    reduced = cert["reduced"]
    removed = {rm["index"] for rm in reduced["removals"]  # not bools, -1 or past the end
               if type(rm["index"]) is int and 0 <= rm["index"] < len(stored)}
    removals, last = [], -1
    for rm in reduced["removals"]:
        index, rel = rm["index"], rm["relation"]
        if type(index) is not int or index not in removed:
            failures.append(f"malformed certificate: removal index {index!r} is not "
                            f"a position among the {len(stored)} stored rungs")
            continue
        if index <= last:
            failures.append(f"malformed certificate: removal index {index} does not "
                            f"follow the index {last} before it")
            continue
        last = index
        coefficients = tuple(rel["coefficients"])
        confidence, bits = rel["confidence"], rel["precision_bits"]
        if any(type(n) is not int for n in coefficients):
            raise TypeError(f"relation coefficients {list(coefficients)} are not all integers")
        if confidence == "exact":
            if bits is not None:
                failures.append(f"malformed certificate: the exact relation at index {index} "
                                f"states precision_bits {bits!r}")
        elif confidence != "heuristic":
            raise ValueError(f"relation confidence {confidence!r} is neither exact nor heuristic")
        elif type(bits) is not int or not 1 <= bits <= precision_ceiling():
            raise ValueError(f"relation precision_bits {bits!r} is not an integer from 1 "
                             f"to the precision ceiling")
        relation = Relation(coefficients, confidence, bits)
        kept = [r.value for i, r in enumerate(ladder.rungs[:index]) if i not in removed]
        a_k = ladder.rungs[index].value
        constant, combo, verified = check_removal(ctx, ctx.base, coefficients, a_k, kept)
        related = kept[:len(coefficients) - 2] + [a_k]
        if rm["constant"] != str(constant) or rm["combo"] != _combo_json(combo):
            failures.append(f"malformed certificate: the removal at index {index} "
                            f"does not store what its relation gives")
        elif not verified:
            failures.append(f"ladder: removal identity fails at index {index}")
        elif (confidence == "heuristic" and atoms_independent(related)
              and not relation_holds(Relation(coefficients, "exact"), related)):
            failures.append(f"ladder: the relation at index {index} is labelled heuristic, but "
                            f"the atoms of the rungs it relates are independent and it does not "
                            f"hold exactly")
        elif not relation_holds(relation, related):
            failures.append(f"ladder: the relation at index {index} is labelled {confidence} "
                            f"but does not hold " + ("exactly" if confidence == "exact"
                                                      else f"to 2^-{bits}"))
        removals.append(Removal(index, relation, constant, combo, verified))
    rungs = tuple(r for i, r in enumerate(ladder.rungs) if i not in removed)
    if not _same_json(reduced, _ladder_json(Ladder(ladder.base, rungs, tuple(removals)))):
        failures.append("reduced: stored ladder is not the descent's without its removed rungs")
    if "ascent" in cert:
        asc = cert["ascent"]
        if asc["degree"] != len(reduced["rungs"]):
            failures.append("ascent: degree does not equal the reduced rung count")
        if not asc["conditional"]:
            failures.append("ascent: report must be Schanuel-conditional")
        if not _same_json(asc, _ascent_json(ascend(Ladder(ladder.base, rungs), ctx))):
            failures.append("ascent: stored report is not the one ascend gives on the "
                            "reduced ladder")


# --- argument parsing -------------------------------------------------------------------

def natural(text: str) -> int:
    """argparse type of every int option: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def rational(text: str) -> Fraction:
    """argparse type of --base: an integer, p/q or a decimal."""
    _, slash, den = text.partition("/")
    # Fraction raises ZeroDivisionError for q = 0, which argparse would not report
    if slash and int(den) == 0:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
    return Fraction(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged, so callers share it.

    Each subcommand's `func` default is the *name* of its command function:
    `main` looks the function up when it runs, so a replaced module attribute
    (a test's monkeypatch, the bench tracer's wrapper) takes effect even
    though the parser was built earlier.
    """
    p = argparse.ArgumentParser(
        prog="qx",
        description="exact construction compiler and certified number classifier")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a .qdx construction to certificates")
    c.add_argument("path")
    c.add_argument("--precision", type=natural, default=12, metavar="DIGITS")
    c.add_argument("--json", action="store_true",
                   help="machine-readable diagnostics on stderr")
    c.set_defaults(func="cmd_compile")

    e = sub.add_parser("eval", help="evaluate an expression to certified digits")
    e.add_argument("expr")
    e.add_argument("--precision", type=natural, default=16, metavar="DIGITS")
    e.set_defaults(func="cmd_eval")

    cl = sub.add_parser("classify", help="classification verdict for an expression")
    cl.add_argument("expr")
    cl.add_argument("--precision", type=natural, default=12)
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(func="cmd_classify")

    ladder = argparse.ArgumentParser(add_help=False)
    ladder.add_argument("expr")
    ladder.add_argument("--ascend", action="store_true")
    ladder.add_argument("--base", type=rational, default=Fraction(-1))
    ladder.add_argument("--precision", type=natural, default=12)
    ladder.add_argument("--max-coeff", type=natural, default=10**6)
    ladder.add_argument("--relation-bits", type=natural, default=160)

    la = sub.add_parser("ladder", parents=[ladder],
                        help="descend (and optionally reduce/ascend) a ladder")
    la.add_argument("--reduce", action="store_true")
    la.set_defaults(func="cmd_ladder", json=True)

    rd = sub.add_parser("reduce", parents=[ladder],
                        help="ladder with reduction (alias for ladder --reduce)")
    rd.set_defaults(func="cmd_ladder", json=True, reduce=True)

    rp = sub.add_parser("report", help="convergence/probe study reports")
    rp.add_argument("kind", choices=("spiral", "clavius"))
    rp.add_argument("--kmin", type=natural, default=3)
    rp.add_argument("--kmax", type=natural, default=12)
    rp.add_argument("--n", type=natural, default=12)
    rp.set_defaults(func="cmd_report")

    rn = sub.add_parser("render", help="render a construction to SVG")
    rn.add_argument("path")
    rn.add_argument("--out", required=True)
    rn.add_argument("--with-curve", choices=("quadratrix", "spiral"))
    rn.add_argument("--width", type=natural, default=640)
    rn.add_argument("--height", type=natural, default=640)
    rn.set_defaults(func="cmd_render")

    vf = sub.add_parser("verify", help="re-verify a certificate")
    vf.add_argument("path")
    vf.set_defaults(func="cmd_verify")
    return p


# --- the error boundary -------------------------------------------------------------------

def _failure(exc: Exception, args) -> tuple[int, str] | None:
    """Exit code and message for an exception a command raised; None for a bug."""
    if isinstance(exc, err.QxError):
        return exc.exit_code, str(exc)
    if isinstance(exc, OSError):
        out = getattr(args, "out", None)  # render's SVG is the only file qx writes
        if out is not None and exc.filename == str(Path(out)):
            return 2, f"cannot write {out}: {exc}"
        return 2, f"cannot read {exc.filename}: {exc}"
    if isinstance(exc, UnicodeDecodeError):
        return 2, f"cannot read {Path(args.path)}: {exc}"
    if isinstance(exc, json.JSONDecodeError):
        return 3, f"malformed certificate: {exc}"
    # Python's own resource limits
    if isinstance(exc, RecursionError):  # the parsers are recursive descent
        return 5, (f"input nesting exceeds the depth limit "
                   f"(Python recursion limit {sys.getrecursionlimit()})")
    if isinstance(exc, MemoryError):
        return 5, "out of memory"
    if isinstance(exc, OverflowError):
        return 5, f"a number exceeds Python's size limit ({exc})"
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
        return 5, (f"a number exceeds Python's limit of {sys.get_int_max_str_digits()} "
                   f"digits for integer/string conversion")
    return None


def _emit_error(exc: Exception, message: str, as_json: bool):
    """The one stderr report of a failed command: a JSON object when as_json."""
    if isinstance(exc, err.DslError):
        d = exc.diagnostic
        fields = {"severity": d.severity, "line": d.span.line, "column": d.span.column,
                  "message": d.message, "suggestion": d.suggestion}
        text = d.render()
    else:
        fields = {"message": message, "type": type(exc).__name__}
        span = getattr(exc, "span", None)  # set by compile_program: the failing statement
        if span is not None:
            fields.update(line=span.line, column=span.column)
        loc = f"{span.line}:{span.column}: " if span is not None else ""
        text = f"error: {loc}{message}"
    sys.stderr.write(_dump({"error": fields}) if as_json else text + "\n")


def main(argv=None) -> int:
    """Run one command; the only place an exception becomes an exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except Exception as exc:
        failure = _failure(exc, args)
        if failure is None:
            raise
        code, message = failure
        _emit_error(exc, message, getattr(args, "json", False))
        return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
