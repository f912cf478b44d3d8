"""Command-line surface: compile, eval, classify, ladder, reduce, report,
render, verify.

Certificates are self-contained JSON: expressions in canonical text
(`qx-certificate/1`: classify and ladder) or, for compile, as one node table
of the emitted DAGs (`qx-certificate/2`); enclosures as exact decimal
endpoints (outward-rounded); witnesses and relations embedded. One writer per
command fixes the format: `qx verify` rebuilds the certificate from what it
embeds with that writer, checks the two relaxed fields of each subject where
they differ from the rebuilt ones (a stored enclosure need only contain the
value, and a witness be a nonzero multiple in Z[x] of the recomputed one), and
prints `FAIL <JSON pointer>: ...` for each field the stored JSON states
otherwise, a `meta` or `/1` trace edit, non-canonical program text and compile
emits at different precisions included.
Printed decimal digits are certified only: a digit is shown when the whole
enclosure agrees on it. Digits and endpoints are written from each endpoint's
mpf integers, with one multiply by a power of ten and one shift.

Every input ends in one of six exit codes, never in a traceback: 0 ok,
1 verification failure, 2 I/O or a malformed option value, 3 syntax,
4 semantic, 5 domain/precision or one of Python's resource limits (recursion
depth, memory, number size, the int/str digit limit). Subcommands raise;
`main` alone turns an exception into an exit code and one stderr message
(a qx error's code is its class's `exit_code`), and lets any other
exception propagate, since that is a bug.
QX_PRECISION_CEILING (bits) caps refinement.

One table, `_COMMANDS`, holds each command's positional and long options;
`parse_args` reads argv with it, as argparse would: `--name value`,
`--name=value` or a unique prefix of the name, the last of a repeated option,
-h/--help, every argument after `--` and any other that starts with one `-` as
a value. A usage error writes the usage line and `qx <cmd>: error: ...` to
stderr and exits 2.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from types import SimpleNamespace

from mpmath.libmp import mpf_sign

from . import __version__
from . import errors as err
from .dsl import compile_program, parse, pretty_print, verify_roundtrip
from .dyadic import fixed_point
from .expr import Context, Expr, quad_flatten, to_table, to_text, tower
from .exprtext import parse_expr
from .geometry import clavius_point, spiral_probe_report
from .interval import CInterval, RInterval, _bits_for, escalate, precision_ceiling, start_bits
from .ladders import (DEFAULT_PRECISION_BITS, Ladder, Relation, Removal, ascend, check_removal,
                      descend, reduce_ladder)
from .minpoly import IntPoly, Verdict, transcendence_rules
from .render import render_svg

TEXT_FORMAT = "qx-certificate/1"        # subjects as canonical text
NODE_TABLE_FORMAT = "qx-certificate/2"  # compile emits as rows of one node table


# --- decimal formatting --------------------------------------------------------

def _scaled(t, places: int, up: bool) -> int:
    """Floor (ceil if up) of the mpf endpoint t times 10**places: one multiply, one shift."""
    sign, man, exp, bc = t
    if bc < 0:
        raise ValueError("an infinite or NaN endpoint has no decimal")
    n = (-man if sign else man) * 10**places
    if exp >= 0:
        return n << exp
    return -((-n) >> -exp) if up else n >> -exp


def _interval_json(r: RInterval, places: int) -> list[str]:
    return [fixed_point(_scaled(r.lo_mpf, places, up=False), places),
            fixed_point(_scaled(r.hi_mpf, places, up=True), places)]


def certified_real(r: RInterval, digits: int) -> str:
    """Decimal string whose digits the whole enclosure agrees on (truncated)."""
    if r.is_point():
        return r.lo.decimal()  # exact value, exact finite decimal
    slo, shi = mpf_sign(r.lo_mpf), mpf_sign(r.hi_mpf)
    # toward zero (ceil a negative endpoint); trunc(trunc(y) / 10) = trunc(y / 10)
    tlo, thi = _scaled(r.lo_mpf, digits, up=slo < 0), _scaled(r.hi_mpf, digits, up=shi < 0)
    for d in range(digits, -1, -1):
        if tlo == thi:
            return fixed_point(tlo, d, tlo < 0 or (tlo == 0 and shi <= 0 and slo < 0))
        tlo = -(-tlo // 10) if tlo < 0 else tlo // 10
        thi = -(-thi // 10) if thi < 0 else thi // 10
    return "[{}, {}]".format(*_interval_json(r, digits))


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


def _decimal(e: Expr, digits: int, enc: CInterval | None = None) -> str:
    """The decimal `eval` prints and every certificate states for e: exact when
    `quad_flatten` proves e rational (never enclosed: the enclosure of sqrt(0)
    needs twice the bits), else the digits its enclosure, enc if given, certifies."""
    width = _digits_width(digits)  # past the ceiling, a rational value fails too
    flat = quad_flatten(e)  # (u, 0, 0) for a rational value
    if flat is not None and flat[1] == 0:
        return _rational_decimal(flat[0], digits)
    return certified_decimal(e.enclosure(width) if enc is None else enc, digits)


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
    """What a certificate states about one value, apart from how it names the value."""
    enc = e.enclosure(_digits_width(digits))
    return {
        "decimal": _decimal(e, digits, enc),
        "enclosure": _enclosure_json(enc, digits),
        "precision_digits": digits,
        "verdict": _verdict_json(transcendence_rules(e)),
        "tower": _tower_json(tower(e)),
    }


def expr_certificate(e: Expr, digits: int) -> dict:
    return {"expr": to_text(e), **_subject_json(e, digits)}


def _meta() -> dict:
    return {"tool": "qx", "version": __version__, "format": TEXT_FORMAT}


def _ladder_json(ladder) -> dict:
    return {
        "base": to_text(ladder.base),
        "rungs": [{"value": to_text(r.value), "kind": r.kind, "witness": "structural"}
                  for r in ladder.rungs],
        "removals": [{
            "index": rm.original_index,
            "relation": {"coefficients": list(rm.relation.coefficients),
                         "confidence": rm.relation.confidence,
                         "precision_bits": rm.relation.precision_bits},
            "constant": str(rm.constant),
            "combo": [[j, str(q)] for j, q in rm.combo],
            "identity_verified": rm.identity_verified,
        } for rm in ladder.removals],
    }


def _ascent_json(report) -> dict:
    return {
        "choices": [to_text(c) for c in report.choices],
        "kinds": list(report.kinds),
        "degree": report.degree,
        "conditional": report.conditional,
        "notes": list(report.notes),
        "crosschecks": [None if v is None else _verdict_json(v) for v in report.crosschecks],
    }


def _compile_cert(prog, digits: int, fmt: str) -> tuple[dict, dict]:
    """The certificate `compile` writes for prog in format fmt, and the values it states.

    `/2` names each emit by its row of the node table; `/1`, the format before
    the table, by its text, and adds the trace: {tool, inputs, outputs} per `let`.
    """
    result = compile_program(prog)
    cert = {"command": "compile", "meta": {**_meta(), "format": fmt},
            "program": pretty_print(prog), "roundtrip": verify_roundtrip(result)}
    if fmt == NODE_TABLE_FORMAT:  # rows in post-order over the emits in sorted name order
        names = sorted(result.values)
        cert["nodes"], rows = to_table([result.values[n] for n in names])
        cert["emits"] = {name: {"node": row, **_subject_json(result.values[name], digits)}
                         for name, row in zip(names, rows)}
    else:
        cert["trace"] = [{"tool": st.call.tool, "inputs": [str(a.value) for a in st.call.args],
                          "outputs": [st.name]} for st, _ in result.steps]
        cert["emits"] = {name: expr_certificate(e, digits) for name, e in result.values.items()}
    return cert, result.values


def _classify_cert(subject: dict) -> dict:
    return {"command": "classify", "meta": _meta(), "subject": subject}


def _ladder_cert(subject: dict, ladder, reduced, report) -> dict:
    """A ladder certificate; `reduced` and the ascent `report` are None when not asked for."""
    cert = {"command": "ladder", "meta": _meta(), "subject": subject,
            "ladder": _ladder_json(ladder)}
    if reduced is not None:
        cert["reduced"] = _ladder_json(reduced)
    if report is not None:
        cert["ascent"] = _ascent_json(report)
    return cert


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
    """Append the JSON text of v; `newline` is a newline plus v's own indent.

    A list whose items are all strings and ints (a node-table row, a witness,
    a list of names) is written in one join; a dict writes its string and int
    values in place.
    """
    if type(v) is str:
        out.append(_encode_str(v))
    elif type(v) is int:
        out.append(repr(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = newline + "  "
        texts = []
        for item in v:
            if type(item) is str:
                texts.append(_encode_str(item))
            elif type(item) is int:
                texts.append(repr(item))
            else:
                break
        else:
            out.append("[" + inner + ("," + inner).join(texts) + newline + "]")
            return
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
            if type(item) is str:
                out.append(sep + _encode_str(key) + ": " + _encode_str(item))
            elif type(item) is int:
                out.append(sep + _encode_str(key) + ": " + repr(item))
            else:
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
    """The UTF-8 text of a file with universal newlines, as text mode reads it."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def cmd_compile(args) -> int:
    cert, _ = _compile_cert(parse(_read(args.path)), args.precision, NODE_TABLE_FORMAT)
    sys.stdout.write(_dump(cert))
    return 0


def cmd_eval(args) -> int:
    e = parse_expr(args.expr, Context())
    print(_decimal(e, args.precision))
    return 0


def cmd_classify(args) -> int:
    e = parse_expr(args.expr, Context())
    cert = _classify_cert(expr_certificate(e, args.precision))
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
    subject = expr_certificate(e, args.precision)
    reduced = (reduce_ladder(ladder, ctx, args.relation_bits)
               if args.reduce or args.ascend else None)
    report = ascend(reduced, ctx) if args.ascend else None
    sys.stdout.write(_dump(_ladder_cert(subject, ladder, reduced, report)))
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

# verify reads an enclosure endpoint and a ladder base only in the syntax qx
# writes them in (`fixed_point`, `to_text` of a rational): Fraction alone
# would also take "1e10000000", and spend seconds expanding it
_ENDPOINT = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_BASE = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _stored(text, syntax: re.Pattern, what: str) -> str:
    if type(text) is not str or not syntax.fullmatch(text):
        raise ValueError(f"{what} {text!r} is not of the form {syntax.pattern}")
    return text


def _stored_endpoint(text) -> tuple[int, int]:
    """A stored enclosure endpoint as (n, places): its value is n / 10**places.

    Each side of the point is read on its own, as `Fraction` reads a decimal,
    so the int/str digit limit applies to the same digits."""
    whole, _, frac = _stored(text, _ENDPOINT, "enclosure endpoint").lstrip("-").partition(".")
    n = int(whole) * 10**len(frac) + (int(frac) if frac else 0)
    return (-n if text[0] == "-" else n), len(frac)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _typed(value, kind: type, what: str):
    """A stored field that must be of one JSON type, named by `what` if it is not."""
    if type(value) is not kind:
        raise TypeError(f"{what} is not {_JSON_TYPES[kind]}")
    return value


def _stored_digits(sub) -> int:
    """A stored precision_digits: a value `--precision` takes."""
    digits = sub["precision_digits"]
    if type(digits) is not int:
        raise TypeError(f"precision_digits {digits!r} is not an integer")
    if digits < 0:
        raise ValueError(f"precision_digits {digits} is not a non-negative integer")
    return digits


def cmd_verify(args) -> int:
    """Rebuild the certificate from what it embeds with its command's writer,
    relaxing each rebuilt subject as it goes, then compare it field by field."""
    cert = json.loads(_read(args.path))
    failures: list[str] = []
    command = cert.get("command") if isinstance(cert, dict) else None
    # a qx error or a malformed field while re-checking is a verification failure
    try:
        if command not in _REBUILD:
            failures.append(f"unknown certificate command {command!r}")
        elif (fmt := _typed(cert["meta"], dict, "meta")["format"]) not in _REBUILD[command][0]:
            failures.append(f"unknown certificate format {fmt!r} for {command}")
        else:
            written = _REBUILD[command][1](cert, failures)
            failures.extend(_diff(cert, written, ""))
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


def _pointer(at: str, key) -> str:  # RFC 6901: emit names hold dots, not slashes
    return f"{at}/{str(key).replace('~', '~0').replace('/', '~1')}"


_ABSENT = object()  # the value of a field an object does not have
_SCALARS = {str, int}  # two items of one of these types are equal in JSON when ==


def _brief(v) -> str:
    text = "nothing" if v is _ABSENT else json.dumps(v, sort_keys=True)
    return text if len(text) <= 60 else text[:57] + "..."


def _diff(stored, written, at: str):
    """One line per field where stored differs from written, by JSON type
    too (in Python true == 1 and 2.0 == 2), named by its JSON pointer."""
    if type(stored) is dict and type(written) is dict:
        for key in sorted(stored.keys() | written.keys()):
            yield from _diff(stored.get(key, _ABSENT), written.get(key, _ABSENT),
                             _pointer(at, key))
    elif type(stored) is list and type(written) is list and len(stored) == len(written):
        types = [*map(type, written)]
        if _SCALARS.issuperset(types) and types == [*map(type, stored)] and stored == written:
            return  # a witness or a node-table row, as qx writes it
        for i, (s, w) in enumerate(zip(stored, written)):
            yield from _diff(s, w, _pointer(at, i))
    elif type(stored) is not type(written) or stored != written:
        yield f"{at}: stored {_brief(stored)}, qx writes {_brief(written)}"


def _relax(sub, written: dict, e: Expr, at: str, failures: list[str]):
    """Put the written enclosure and witness in place of stored ones that
    differ but hold too: an enclosure that contains the value (decided on finer
    enclosures while the two only meet), a witness that is a nonzero multiple
    in Z[x] of the recomputed one (by exact division)."""
    if type(sub) is not dict:
        return
    enc = sub.get("enclosure")
    if (enc != written["enclosure"] and type(enc) is dict and "re" in enc
            and enc.keys() <= {"re", "im"} and all(
                _contains(e, written["precision_digits"], part, enc.get(part, ("0", "0")),
                          f"{at}/enclosure/{part}", failures) for part in ("re", "im"))):
        sub["enclosure"] = written["enclosure"]
    got, now = sub.get("verdict"), written["verdict"]
    if type(got) is dict and "witness" in got and "witness" in now:
        poly = IntPoly.new(got["witness"])
        if not poly.is_zero() and poly.exact_quotient(IntPoly.new(now["witness"])) is not None:
            got["witness"] = now["witness"]


def _contains(e: Expr, digits: int, part: str, bounds, at: str, failures: list[str]) -> bool:
    """Whether the stored bounds of e's part ("re" or "im") contain its value.

    In integers: for lo = n / 10**p, lo <= x exactly when n <= floor(x * 10**p),
    and x <= hi = m / 10**q exactly when ceil(x * 10**q) <= m."""
    (n, p), (m, q) = (_stored_endpoint(s) for s in bounds)

    def settle(ci: CInterval):  # None while the two only meet
        r = getattr(ci, part)
        rlo, rhi = r.lo_mpf, r.hi_mpf
        return ((n <= _scaled(rlo, p, False) and _scaled(rhi, q, True) <= m)
                or (None if n <= _scaled(rhi, p, False) and _scaled(rlo, q, True) <= m
                    else False))

    try:  # from the precision the certificate enclosure was refined from
        if escalate(e.eval, settle, at, start=start_bits(_bits_for(_digits_width(digits)))):
            return True
        failures.append(f"{at}: enclosure does not contain the value")
    except err.MaxPrecision:
        failures.append(f"{at}: containment not settled within the precision ceiling")
    return False


# Each `_rebuilt_*` returns the certificate its command's writer writes from
# what cert embeds, relaxes each subject as soon as it rebuilds it, and appends
# a line per failed check of what cert embeds to `failures`.

def _rebuilt_compile(cert: dict, failures: list[str]) -> dict:
    emits = _typed(cert["emits"], dict, "emits")
    # compile states one precision for every emit; an empty `emits` differs at any
    digits = _stored_digits(_typed(emits[min(emits)], dict, "an emit")) if emits else 0
    written, values = _compile_cert(parse(_typed(cert["program"], str, "program")), digits,
                                    cert["meta"]["format"])
    for name in sorted(emits.keys() & values.keys()):
        _relax(emits[name], written["emits"][name], values[name], _pointer("/emits", name),
               failures)
    return written


def _rebuilt_subject(cert: dict, ctx: Context, failures: list[str]) -> tuple[Expr, dict]:
    sub = _typed(cert["subject"], dict, "subject")
    e = parse_expr(_typed(sub["expr"], str, "subject expr"), ctx)
    written = expr_certificate(e, _stored_digits(sub))
    _relax(sub, written, e, "/subject", failures)
    return e, written


def _rebuilt_classify(cert: dict, failures: list[str]) -> dict:
    return _classify_cert(_rebuilt_subject(cert, Context(), failures)[1])


def _rebuilt_ladder(cert: dict, failures: list[str]) -> dict:
    """The subject, the descent, the reduction its stored removals give and
    the ascent on it, each present when stored."""
    base = _typed(cert["ladder"], dict, "ladder")["base"]
    ctx = Context(base=Fraction(_stored(base, _BASE, "ladder base")))
    e, subject = _rebuilt_subject(cert, ctx, failures)
    ladder = descend(e, ctx)
    reduced = (_rederived(ladder, _typed(cert["reduced"], dict, "reduced")["removals"], failures)
               if "reduced" in cert or "ascent" in cert else None)
    report = ascend(reduced, ctx) if "ascent" in cert else None
    return _ladder_cert(subject, ladder, reduced, report)


def _rederived(ladder: Ladder, stored: list, failures: list[str]) -> Ladder:
    """The descent without the stored removals: each, in increasing index
    order, re-derived from its relation over the rungs kept before it by
    `check_removal`, which alone decides whether the removal is valid."""
    count = len(ladder.rungs)
    stored = [_typed(rm, dict, "a removal") for rm in _typed(stored, list, "removals")]
    removed = {rm["index"] for rm in stored  # not bools, -1 or past the end
               if type(rm["index"]) is int and 0 <= rm["index"] < count}
    removals, last = [], -1
    for rm in stored:
        index, rel = rm["index"], rm["relation"]
        if type(index) is not int or index not in removed:
            failures.append(f"malformed certificate: removal index {index!r} is not "
                            f"a position among the {count} rungs of the descent")
            continue
        if index <= last:
            failures.append(f"malformed certificate: removal index {index} does not "
                            f"follow the index {last} before it")
            continue
        last = index
        rel = _typed(rel, dict, "a relation")
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
        constant, combo, problem = check_removal(relation, ladder.rungs[index].value, kept)
        if problem is not None:
            failures.append(f"ladder: the relation at index {index} {problem}")
        removals.append(Removal(index, relation, constant, combo, problem is None))
    rungs = tuple(r for i, r in enumerate(ladder.rungs) if i not in removed)
    return Ladder(ladder.base, rungs, tuple(removals))


# per command, the certificate formats verify reads and how it rebuilds one
_REBUILD = {"compile": ((TEXT_FORMAT, NODE_TABLE_FORMAT), _rebuilt_compile),
            "classify": ((TEXT_FORMAT,), _rebuilt_classify),
            "ladder": ((TEXT_FORMAT,), _rebuilt_ladder)}


# --- the command line ------------------------------------------------------------------

def natural(text: str) -> int:
    """Converter of the int options `positive` does not read: a non-negative ASCII integer."""
    value = int(text)
    if not (text.isascii() and text.isdigit()):  # int also takes a sign, '_', other digits
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


def positive(text: str) -> int:
    """Converter of --relation-bits, --n, --width and --height: a `natural` above 0."""
    if natural(text) == 0:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(text)


# an integer, p/q or a decimal; Fraction alone would also take an exponent
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")


def rational(text: str) -> Fraction:
    """Converter of --base: an integer, p/q or a decimal."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected an integer, p/q or a decimal, got {text!r}")
    _, slash, den = text.partition("/")
    if slash and int(den) == 0:  # Fraction would raise ZeroDivisionError
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(text)


_REQUIRED = object()  # the default of an option that must be given
_LADDER = {"ascend": (None, False), "base": (rational, Fraction(-1)), "precision": (natural, 12),
           "relation-bits": (positive, DEFAULT_PRECISION_BITS)}
# Per command: the name of its function, looked up when `main` runs (so a
# monkeypatch or the bench tracer's wrapper takes effect), its help, its one
# positional (name, converter), its options {name: (converter, default)} and
# the attributes no option sets. A flag's converter is None; a tuple takes one
# of its strings.
_COMMANDS = {
    "compile": ("cmd_compile", "compile a .qdx construction to certificates", ("path", str),
                {"precision": (natural, 12), "json": (None, False)}, {}),
    "eval": ("cmd_eval", "evaluate an expression to certified digits", ("expr", str),
             {"precision": (natural, 16)}, {}),
    "classify": ("cmd_classify", "classification verdict for an expression", ("expr", str),
                 {"precision": (natural, 12), "json": (None, False)}, {}),
    "ladder": ("cmd_ladder", "descend (and optionally reduce/ascend) a ladder", ("expr", str),
               {**_LADDER, "reduce": (None, False)}, {"json": True}),
    "reduce": ("cmd_ladder", "ladder with reduction (alias for ladder --reduce)", ("expr", str),
               _LADDER, {"json": True, "reduce": True}),
    "report": ("cmd_report", "convergence/probe study reports", ("kind", ("spiral", "clavius")),
               {"kmin": (natural, 3), "kmax": (natural, 12), "n": (positive, 12)}, {}),
    "render": ("cmd_render", "render a construction to SVG", ("path", str),
               {"out": (str, _REQUIRED), "with-curve": (("quadratrix", "spiral"), None),
                "width": (positive, 640), "height": (positive, 640)}, {}),
    "verify": ("cmd_verify", "re-verify a certificate", ("path", str), {}, {}),
}


def _exit(name, error: str | None = None):
    """Exit 2 after qx's (name None) or a command's usage error on stderr, or
    exit 0 after (error None) its help on stdout."""
    if name is None:
        usage = "usage: qx [-h] {" + ",".join(_COMMANDS) + "} ..."
        about = "commands:\n" + "\n".join(f"  {c:<9} {spec[1]}" for c, spec in _COMMANDS.items())
    else:
        _, about, (positional, _), options, _ = _COMMANDS[name]
        words = [f"usage: qx {name} [-h]"]
        for o, (conv, default) in options.items():
            word = f"--{o}" if conv is None else f"--{o} {o.upper()}"
            words.append(word if default is _REQUIRED else f"[{word}]")
        usage = " ".join(words + [positional])
    if error is None:
        sys.stdout.write(f"{usage}\n\n{about}\n")
        raise SystemExit(0)
    sys.stderr.write(f"{usage}\nqx{'' if name is None else ' ' + name}: error: {error}\n")
    raise SystemExit(2)


def _convert(name, what: str, conv, text: str):
    try:
        if type(conv) is not tuple:
            return conv(text)
        if text in conv:
            return text
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, conv))})")
    except ValueError as exc:
        _exit(name, f"argument {what}: {exc}")


def _option(name, arg: str, names) -> tuple | None:
    """None for a value, else (option, its `=value` or None), or (None, arg)
    for an unknown option: -h, or `--` and a unique prefix of a name."""
    if arg[:2] != "--" or arg == "--":
        return ("help", None) if arg == "-h" else None
    key, eq, value = arg[2:].partition("=")
    found = (key,) if key in names else tuple(n for n in names if n.startswith(key))
    if len(found) > 1:
        _exit(name, f"ambiguous option: {arg} could match {', '.join('--' + n for n in found)}")
    if found:
        return found[0], value if eq else None
    return None if " " in arg else (None, arg)  # argparse reads `--a b` as a value too


def parse_args(argv: list[str]) -> SimpleNamespace:
    """What the command table reads from argv, or SystemExit: 0 after help, 2
    after a usage error. Before the command only -h/--help is read. After it,
    as in argparse, every argument is told option or value before any is read,
    and an unknown option or extra value fails at the end."""
    if argv and _option(None, argv[0], ("help",)) == ("help", None):
        _exit(None)
    if not argv:
        _exit(None, "the following arguments are required: command")
    name = _convert(None, "command", tuple(_COMMANDS), argv[0])
    func, _, (positional, pconv), options, fixed = _COMMANDS[name]
    args = {"command": name, "func": func, **fixed,
            **{o.replace("-", "_"): default for o, (_, default) in options.items()}}
    argv = argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)  # every argument after it is a value
    items = [(a, _option(name, a, ("help", *options))) for a in argv[:cut]]
    items += [(a, None) for a in argv[cut + 1:]]
    extras, i = [], 0
    while i < len(items):
        arg, found = items[i]
        option, value = found or (None, None)
        conv = options[option][0] if option in options else None
        i += 1
        if found is None and positional not in args:
            args[positional] = _convert(name, positional, pconv, arg)
        elif option is None:
            extras.append(arg)
        elif conv is None and value is not None:
            _exit(name, f"argument --{option}: ignored explicit argument {value!r}")
        elif option == "help":
            _exit(name)
        elif conv is None:
            args[option.replace("-", "_")] = True
        else:
            if value is None:
                if i >= cut or items[i][1] is not None:
                    _exit(name, f"argument --{option}: expected one argument")
                value, i = items[i][0], i + 1
            args[option.replace("-", "_")] = _convert(name, f"--{option}", conv, value)
    missing = [positional] * (positional not in args) + [
        f"--{o}" for o in options if args[o.replace("-", "_")] is _REQUIRED]
    if missing:
        _exit(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _exit(name, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**args)


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
    if isinstance(exc, RecursionError):  # JSON decoding of a deeply nested certificate
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
    """The one stderr report of a failed command: `error: [L:C: ]message[ (hint: ...)]`,
    or when as_json the same fields and the error's type as one JSON object."""
    fields = {"message": message, "type": type(exc).__name__}
    text = message
    span = getattr(exc, "span", None)  # a QxError's; the other exceptions have none
    if span is not None:
        fields.update(line=span.line, column=span.column)
        text = f"{span.line}:{span.column}: {text}"
    suggestion = getattr(exc, "suggestion", None)
    if suggestion is not None:
        fields["suggestion"] = suggestion
        text += f" (hint: {suggestion})"
    sys.stderr.write(_dump({"error": fields}) if as_json else f"error: {text}\n")


def main(argv=None) -> int:
    """Run one command; the only place an exception becomes an exit code."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
