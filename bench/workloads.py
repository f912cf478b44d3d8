"""Seeded operations of the three workloads, each paired with its check.

An operation is one call into qx's public surface: `qx.cli.main(argv)` with
stdout and stderr captured, or the library functions the acceptance tests
call. Every operation builds its own `Context`, as a CLI command does. A
pass draws fresh inputs from every family at every size, so any seed gives
the same load. Warm-up inputs come from the same families but from value
ranges the timed passes never draw.
"""
from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from mpmath import mp, mpf
import mpmath

import qx.cli
from qx import minpoly
from qx.expr import Context

import oracles

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.qdx"))
DIGIT_LEVELS = (100, 300, 600, 1000)
BISECT_DEPTHS = range(1, 6)       # timed passes; the traced run's size rows go one further
SIZE_BISECT_DEPTHS = range(1, 7)
BISECT_TOTAL = 7          # u + v of the bisection chains
MEANPROP_LENGTHS = range(1, 9)
SIZE_MEANPROP_LENGTHS = (3, 5, 7, 9)
OLMSTED_DENOMINATORS = (6, 8, 12, 16, 20, 24, 28, 32)
COMPILE_DIGITS = 12   # qx compile's default --precision


@dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Op:
    kind: str                                  # compile, verify, eval, report, classify, reduce, olmsted
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    then: Optional[Callable[[Any], None]] = None  # untimed follow-up, e.g. saving a certificate


def cli(argv: list[str]) -> Callable[[], CliResult]:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = qx.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return CliResult(code, out.getvalue(), err.getvalue())
    return run


def _verified(res: CliResult) -> bool:
    return res.code == 0 and res.out.strip() == "certificate verified"


def _exit_code(code: int) -> Callable[[CliResult], bool]:
    return lambda res: res.code == code


def _certify_then_verify(kind: str, label: str, argv: list[str], check, work: Path) -> list[Op]:
    """A certificate-producing command followed by `qx verify` of its output."""
    cert = work / f"{label}.json"
    return [Op(kind, label, cli(argv), check, then=lambda res: cert.write_text(res.out)),
            Op("verify", label, cli(["verify", str(cert)]), _verified)]


def _frac_text(fr: Fraction) -> str:
    return f"({fr.numerator}/{fr.denominator})" if fr.denominator != 1 else f"({fr.numerator})"


# --- construct ----------------------------------------------------------------------

def _check_compile(source: str, res: CliResult) -> bool:
    if res.code != 0:
        return False
    emits = json.loads(res.out)["emits"]
    dps = 2 * COMPILE_DIGITS + 10
    ref = oracles.qdx_reference(source, dps)
    if set(emits) != set(ref):
        return False
    with mp.workdps(dps):
        return all(oracles.decimal_agrees(emits[n]["decimal"], ref[n], COMPILE_DIGITS)
                   and emits[n]["verdict"]["status"] in
                   ("rational", "algebraic", "transcendental", "unknown")
                   for n in emits)


def program_ops(label: str, source: str, work: Path) -> list[Op]:
    qdx = work / f"{label}.qdx"
    qdx.write_text(source)
    return _certify_then_verify("compile", label, ["compile", str(qdx)],
                                lambda res: _check_compile(source, res), work)


def bisect_chain(u: int, v: int, k: int) -> str:
    lines = [f"let p0 = ra({u}, {v});"]
    lines += [f"let p{i} = bisect(p{i - 1});" for i in range(1, k + 1)]
    return "\n".join(lines + [f"emit p{k};"]) + "\n"


def meanprop_chain(a: int, cs: list[Fraction]) -> str:
    lines = [f"let s0 = seg({a});"]
    lines += [f"let s{i} = meanprop(s{i - 1}, {c.numerator}/{c.denominator});"
              for i, c in enumerate(cs, 1)]
    return "\n".join(lines + [f"emit s{len(cs)};"]) + "\n"


def draw_ratio(rng: random.Random, total: int) -> tuple[int, int]:
    """u:v with u + v a fixed prime, so every draw costs the same.

    The point's coordinates are sines of pi*u/(2*total) and pi*v/(2*total),
    whose classification costs grow with that denominator; a prime total
    never gives the table angles 1/3, 1/2 or 2/3, which would fold.
    """
    u = rng.randint(1, total - 1)
    return u, total - u


def draw_meanprop(rng: random.Random, n: int, start=2, factors=(2, 3)):
    """Start length and n factors p/q or q/p for the two given primes.

    The witness coefficients grow with the heights of the start and of every
    factor, which are the same on every draw; no factor is 1 and no product
    is a square, so nothing folds.
    """
    p, q = factors
    return start, [Fraction(*rng.choice([(p, q), (q, p)])) for _ in range(n)]


def _malformed(rng: random.Random, index: int) -> tuple[str, int]:
    """A broken program and the exit code it must end in (3 syntax, 4 semantic, 5 domain)."""
    x = rng.randint(2, 9)
    if index == 0:
        return f"let a = seg({x});\nlet b = seg({x + 1})\nemit a;\n", 3
    if index == 1:
        if rng.random() < 0.5:
            return f"let a = seg({x});\nemit b{x};\n", 4
        return (f"let o = point(0, 0);\nlet u = point({x}, 0);\nlet l = line(o, u);\n"
                "emit l;\n"), 4
    if rng.random() < 0.5:
        return f"let a = seg({x});\nlet b = seg(-{x});\nlet m = meanprop(a, b);\nemit m;\n", 5
    return ("let o = point(0, 0);\nlet u = point(1, 0);\nlet c = circle(o, u);\n"
            f"let v = point({x}, 0);\nlet w = point({x}, 1);\nlet l = line(v, w);\n"
            "let p = intersect(l, c);\nemit p;\n"), 5


def construct_pass(rng: random.Random, work: Path) -> list[Op]:
    ops: list[Op] = []
    for path in CORPUS:
        ops += program_ops(f"corpus-{path.stem}", path.read_text(), work)
    u, v = draw_ratio(rng, BISECT_TOTAL)
    for k in BISECT_DEPTHS:
        ops += program_ops(f"bisect-k{k}", bisect_chain(u, v, k), work)
    a, cs = draw_meanprop(rng, max(MEANPROP_LENGTHS))
    for n in MEANPROP_LENGTHS:
        ops += program_ops(f"meanprop-n{n}", meanprop_chain(a, cs[:n]), work)
    for index in range(3):
        source, code = _malformed(rng, index)
        qdx = work / f"malformed-{index}.qdx"
        qdx.write_text(source)
        ops.append(Op("compile", f"malformed-{index}", cli(["compile", str(qdx)]),
                      _exit_code(code)))
    return ops


def construct_warmup(work: Path) -> list[Op]:
    rng = random.Random("warm/construct")
    u, v = draw_ratio(rng, 11)
    ops = program_ops("warm-bisect", bisect_chain(u, v, 3), work)
    a, cs = draw_meanprop(rng, 4, start=11, factors=(11, 13))
    ops += program_ops("warm-meanprop", meanprop_chain(a, cs), work)
    ops += program_ops("warm-lines", "let o = point(0, 0);\nlet u = point(3, 0);\n"
                       "let c = circle(o, u);\nlet p = point(1, 5);\nlet q = point(2, -5);\n"
                       "let l = line(p, q);\nlet x = intersect(l, c, 1);\nemit x;\n", work)
    source, code = _malformed(rng, 2)
    qdx = work / "warm-malformed.qdx"
    qdx.write_text(source)
    ops.append(Op("compile", "warm-malformed", cli(["compile", str(qdx)]), _exit_code(code)))
    return ops


# --- digits ---------------------------------------------------------------------------

def coprime(rng: random.Random, q: int, hi: int) -> int:
    while True:
        p = rng.randint(1, hi)
        if math.gcd(p, q) == 1:
            return p


def _cubic(rng: random.Random, a_range) -> tuple[int, int]:
    """x^3 + a*x - b, increasing, with its one real root in (1, 2), so never rational.

    The bracket [1, 2] is the same for every draw, and so is the bisection
    work to a given precision.
    """
    a = rng.randint(*a_range)
    return a, rng.randint(a + 2, 2 * a + 7)


def _nonsquares(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    pool = [n for n in range(lo, hi + 1) if math.isqrt(n) ** 2 != n]
    return rng.sample(pool, count)


def digit_families(rng: random.Random, warm: bool = False) -> list[tuple[str, str, Callable]]:
    """(family, expression text, mpmath reference) for every digits family.

    Warm-up draws come from ranges the timed draws never use.
    """
    q = 37 if warm else rng.choice([n for n in range(5, 32) if n != 6])
    p = coprime(rng, q, 2 * q - 1)
    base = Fraction(rng.randint(11, 13), 3) if warm else Fraction(rng.randint(2, 9), rng.randint(1, 4))
    if base == 1:
        base = Fraction(5, 2)
    root = 13 if warm else rng.choice([2, 3, 5, 6, 7, 10, 11])
    ex = Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), 23 if warm else rng.randint(2, 9))
    ln_arg = Fraction(rng.randint(2, 40), 29 if warm else rng.randint(1, 9))
    if ln_arg == 1:
        ln_arg = Fraction(7, 3)
    log_base = 11 if warm else rng.randint(2, 9)
    sq = 19 if warm else rng.choice([5, 7, 9, 11, 13])
    s_num = rng.choice([n for n in range(-sq + 1, sq) if n and 2 * abs(n) != sq])
    asin_arg = Fraction(s_num, sq)
    stage = 3 if warm else rng.randint(5, 20)
    a, b = _cubic(rng, (7, 9) if warm else (1, 5))
    radicands = [31, 37, 41] if warm else _nonsquares(rng, 3, 2, 30)
    r = Fraction(p, q)
    return [
        ("sin_pi", f"sin_pi({p}/{q})", lambda: mpmath.sinpi(oracles.rat(r))),
        ("pow_sqrt", f"pow({_frac_text(base)}, sqrt({root}))",
         lambda: oracles.rat(base) ** mpmath.sqrt(root)),
        ("exp", f"exp({_frac_text(ex)})", lambda: mpmath.exp(oracles.rat(ex))),
        ("ln", f"ln({_frac_text(ln_arg)})", lambda: mpmath.log(oracles.rat(ln_arg))),
        ("log", f"log({_frac_text(ln_arg)}; {log_base})",
         lambda: mpmath.log(oracles.rat(ln_arg)) / mpmath.log(log_base)),
        ("arcsin", f"arcsin_over_pi({_frac_text(asin_arg)})",
         lambda: mpmath.asin(oracles.rat(asin_arg)) / mp.pi),
        ("clavius", f"clavius_x({stage})", lambda: oracles.clavius_x(stage)),
        ("polyroot", f"polyroot({-b}, {a}, 0, 1; 1, 2)", lambda: oracles.cubic_root(a, b)),
        ("sqrt_sum", " + ".join(f"sqrt({n})" for n in radicands),
         lambda: sum(mpmath.sqrt(n) for n in radicands)),
    ]


def eval_op(family: str, text: str, digits: int, ref: Callable) -> Op:
    def check(res: CliResult) -> bool:
        if res.code != 0:
            return False
        with mp.workdps(2 * digits + 20):
            return oracles.decimal_agrees(res.out.strip(), ref(), digits)
    return Op("eval", f"{family}-d{digits}", cli(["eval", text, "--precision", str(digits)]), check)


def _check_spiral(kmin: int, kmax: int, res: CliResult) -> bool:
    if res.code != 0:
        return False
    rep = json.loads(res.out)
    with mp.workdps(40):
        tol = mpf(10) ** -11
        return (rep["k_range"] == list(range(kmin, kmax + 1))
                and all(abs(mpf(x) - oracles.spiral_cut(k)) < tol
                        for x, k in zip(rep["intercepts"], rep["k_range"]))
                and abs(mpf(rep["closed_forms"]["polar_subtangent_R_pi_over_2"]) - mp.pi / 2) < tol
                and abs(mpf(rep["closed_forms"]["one_eighth_circumference_pi_R_over_4"]) - mp.pi / 4) < tol
                and abs(mpf(rep["limit_estimate"]) - mp.pi / 2) < mpf(10) ** -4
                and rep["discrepancy"]["factor_between_readings"] == "2.000000")


def _check_clavius(n: int, res: CliResult) -> bool:
    if res.code != 0:
        return False
    rep = json.loads(res.out)
    with mp.workdps(50):
        two_over_pi = 2 / mp.pi
        rows_ok = all(
            row["n"] == i
            and oracles.decimal_agrees(row["x"], oracles.clavius_x(i), 15)
            and oracles.decimal_agrees(row["abs_error_vs_2_over_pi"],
                                       abs(oracles.clavius_x(i) - two_over_pi), 15)
            for i, row in enumerate(rep["rows"], 1))
        return (len(rep["rows"]) == n and rows_ok
                and oracles.decimal_agrees(rep["two_over_pi"], two_over_pi, 15))


def report_ops(kmin: int, clavius_n: int) -> list[Op]:
    kmax = kmin + 9
    return [
        Op("report", f"spiral-k{kmin}",
           cli(["report", "spiral", "--kmin", str(kmin), "--kmax", str(kmax)]),
           lambda res: _check_spiral(kmin, kmax, res)),
        Op("report", f"clavius-n{clavius_n}", cli(["report", "clavius", "--n", str(clavius_n)]),
           lambda res: _check_clavius(clavius_n, res)),
    ]


def digits_pass(rng: random.Random, work: Path) -> list[Op]:
    ops = [eval_op(family, text, d, ref)
           for d in DIGIT_LEVELS for family, text, ref in digit_families(rng)]
    return ops + report_ops(rng.randint(2, 4), 12)


def digits_warmup(work: Path) -> list[Op]:
    rng = random.Random("warm/digits")
    ops = [eval_op(family, text, 100 if family == "polyroot" else max(DIGIT_LEVELS), ref)
           for family, text, ref in digit_families(rng, warm=True)]
    return ops + report_ops(5, 5)


# --- symbolic -------------------------------------------------------------------------

def _olmsted_run(r: Fraction) -> Callable[[], tuple]:
    """olmsted_classify plus the acceptance test's exhaustive separation check."""
    def run():
        verdict = minpoly.olmsted_classify(r)
        ctx = Context()
        value = ctx.sin_pi(r)
        candidates = [c for c in minpoly.rational_root_scan(minpoly.annihilator_sin_pi(r))
                      if abs(c) <= 1]
        separated = [minpoly.separates(value, c) for c in candidates
                     if not value.is_rat(c)]
        return verdict, candidates, separated
    return run


def _check_olmsted(r: Fraction, result) -> bool:
    verdict, candidates, separated = result
    expected = oracles.OLMSTED_TABLE.get(r % 2)
    if expected is not None:
        return (verdict.status == "rational" and verdict.value == expected
                and expected in candidates and all(separated))
    with mp.workdps(60):
        return (verdict.status == "algebraic" and all(separated)
                and oracles.poly_annihilates(verdict.witness.coeffs,
                                             mpmath.sinpi(oracles.rat(r))))


def olmsted_op(r: Fraction) -> Op:
    return Op("olmsted", f"olmsted-q{r.denominator}", _olmsted_run(r),
              lambda result: _check_olmsted(r, result))


def olmsted_ops(rng: random.Random, denominators) -> list[Op]:
    return [olmsted_op(Fraction(coprime(rng, q, 2 * q - 1), q)) for q in denominators]


def classify_families(rng: random.Random, warm: bool = False) -> list[tuple]:
    """(family, text, status, rule, exact value or None, mpmath reference) with known verdicts.

    The verdict lists follow the rule-base tests: Gelfond-Schneider,
    Euler bridge, Hermite-Lindemann, the rational-arcsin rule, the algebraic
    shift, structural witnesses, rational detection and honest unknowns.
    """
    big = 20 if warm else 0
    a = rng.randint(2 + big, 9 + big)
    b, c = _nonsquares(rng, 2, 2 + big, 15 + big)
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    den = rng.randint(2 + big, 9 + big)
    ln_arg = Fraction(rng.randint(2, 30), den)
    if ln_arg == 1:
        ln_arg = Fraction(3, 2)
    sq = 23 if warm else rng.choice([7, 9, 11, 13])
    s_num = rng.randint(1, sq - 1)
    q = 13 if warm else rng.choice([5, 7, 9, 11])
    p = coprime(rng, q, 2 * q - 1)
    k = rng.randint(2, 5)
    m = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    shift = Fraction(rng.randint(1, 9), rng.randint(2, 7))
    R = oracles.rat
    return [
        ("gelfond-schneider", f"pow({a}, sqrt({b}))", "transcendental", "gelfond-schneider",
         None, lambda: mpf(a) ** mpmath.sqrt(b)),
        ("euler-bridge", f"sin_pi(sqrt({b}))", "transcendental", "euler-bridge",
         None, lambda: mpmath.sinpi(mpmath.sqrt(b))),
        ("exp", f"exp({num}/{den})", "transcendental", "hermite-lindemann",
         None, lambda: mpmath.exp(mpf(num) / den)),
        ("ln", f"ln({_frac_text(ln_arg)})", "transcendental", "hermite-lindemann",
         None, lambda: mpmath.log(R(ln_arg))),
        ("arcsin", f"arcsin_over_pi({s_num}/{sq})", "transcendental", "olmsted-arcsin",
         None, lambda: mpmath.asin(mpf(s_num) / sq) / mp.pi),
        ("shift", f"sqrt({c}) + sin_pi(sqrt({b}))", "transcendental", "algebraic-shift",
         None, lambda: mpmath.sqrt(c) + mpmath.sinpi(mpmath.sqrt(b))),
        ("quadratic", f"({a} + sqrt({b}))/{den}", "algebraic", "quadratic-field",
         None, lambda: (a + mpmath.sqrt(b)) / den),
        ("sin_pi", f"sin_pi({p}/{q})", "algebraic", "sin-pi-annihilator",
         None, lambda: mpmath.sinpi(mpf(p) / q)),
        ("tower", f"sqrt({a} + sqrt({b}))", "algebraic", "sqrt-tower",
         None, lambda: mpmath.sqrt(a + mpmath.sqrt(b))),
        ("rational", f"sqrt({b})*sqrt({b * k * k}) - {b * k} + {_frac_text(m)}",
         "rational", "rational-constant", m, lambda: R(m)),
        ("unknown-sum", f"pi + {_frac_text(shift)}*e", "unknown", "none",
         None, lambda: mp.pi + R(shift) * mp.e),
        ("unknown-pow", f"pow({a}, pi)", "unknown", "none", None, lambda: mpf(a) ** mp.pi),
        ("unknown-log", f"log({a}; {den + 1})", "unknown", "none",
         None, lambda: mpmath.log(a) / mpmath.log(den + 1)),
    ]


def _check_classify(status, rule, value, ref, res: CliResult) -> bool:
    if res.code != 0:
        return False
    subject = json.loads(res.out)["subject"]
    verdict = subject["verdict"]
    with mp.workdps(60):
        reference = ref()
        ok = (verdict["status"] == status and verdict["rule"] == rule
              and oracles.decimal_agrees(subject["decimal"], reference, subject["precision_digits"]))
        if value is not None:
            ok = ok and Fraction(verdict["value"]) == value
        if status in ("algebraic", "rational"):
            ok = ok and oracles.poly_annihilates(verdict["witness"], reference)
        return ok


def classify_ops(rng: random.Random, work: Path, tag: str, warm: bool = False) -> list[Op]:
    ops: list[Op] = []
    for family, text, status, rule, value, ref in classify_families(rng, warm):
        check = (lambda s, r, v, f: lambda res: _check_classify(s, r, v, f, res))(status, rule, value, ref)
        ops += _certify_then_verify("classify", f"{tag}classify-{family}",
                                    ["classify", text, "--json"], check, work)
    return ops


LADDER_ATOMS = ("sqrt(2)", "sqrt(3)", "sqrt(5)", "sqrt(7)",
                "log(2; -1)", "log(3; -1)", "log(5; -1)")
LADDER_SHAPES = ((1, 1), (2, 1), (3, 2), (4, 2))   # (independent rungs, planted rungs)


def planted_ladder(rng: random.Random, base_count: int, planted_count: int,
                   coefs=(1, -1, 2, 3)) -> tuple[str, list, list]:
    """Product of (-1)^a_k: independent atoms first, then planted rational-affine combinations.

    Returns the expression text, the atoms, and per planted rung its constant
    and {atom index: coefficient}. Descent meets the rungs in this order.
    """
    atoms = rng.sample(LADDER_ATOMS, base_count)
    planted: list = []
    while len(planted) < planted_count:
        q0 = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        parts = sorted(rng.sample(range(base_count), rng.randint(1, min(2, base_count))))
        combo = {j: Fraction(rng.choice(coefs), rng.choice([1, 2])) for j in parts}
        if q0 == 0 and len(combo) == 1 and 1 in combo.values():
            continue   # would be an atom itself
        if (q0, combo) not in planted:
            planted.append((q0, combo))
    values = list(atoms)
    for q0, combo in planted:
        terms = [_frac_text(q0)] + [f"{_frac_text(c)}*{atoms[j]}" for j, c in combo.items()]
        values.append("(" + " + ".join(terms) + ")")
    return " * ".join(f"pow(-1, {v})" for v in values), atoms, planted


def _check_ladder(atoms, planted, res: CliResult) -> bool:
    if res.code != 0:
        return False
    cert = json.loads(res.out)
    base_count = len(atoms)
    kinds = ["exponential-algebraic" if a.startswith("log") else "element-algebraic"
             for a in atoms] + ["element-algebraic"] * len(planted)
    removals = cert["reduced"]["removals"]
    ok = ([r["kind"] for r in cert["ladder"]["rungs"]] == kinds
          and len(cert["reduced"]["rungs"]) == base_count
          and [r["index"] for r in removals] == list(range(base_count, base_count + len(planted)))
          and cert["ascent"]["degree"] == base_count and cert["ascent"]["conditional"] is True)
    for rm, (q0, combo) in zip(removals, planted):
        ok = ok and (rm["identity_verified"] is True
                     and rm["relation"]["confidence"] == "exact"
                     and Fraction(rm["constant"]) == q0
                     and {j: Fraction(c) for j, c in rm["combo"]} == combo)
    return ok


def reduce_ops(rng: random.Random, work: Path, tag: str, shapes=LADDER_SHAPES,
               coefs=(1, -1, 2, 3)) -> list[Op]:
    ops: list[Op] = []
    for base_count, planted_count in shapes:
        text, atoms, planted = planted_ladder(rng, base_count, planted_count, coefs)
        check = (lambda a, p: lambda res: _check_ladder(a, p, res))(atoms, planted)
        ops += _certify_then_verify("reduce", f"{tag}reduce-{base_count}-{planted_count}",
                                    ["reduce", text, "--ascend"], check, work)
    return ops


def symbolic_pass(rng: random.Random, work: Path) -> list[Op]:
    # two draws per denominator keep minpoly the heaviest layer over the
    # enclosure checks that reduce and verify make
    return (olmsted_ops(rng, OLMSTED_DENOMINATORS * 2) + classify_ops(rng, work, "")
            + reduce_ops(rng, work, ""))


def symbolic_warmup(work: Path) -> list[Op]:
    rng = random.Random("warm/symbolic")
    return (olmsted_ops(rng, (7, 9)) + classify_ops(rng, work, "warm-", warm=True)
            + reduce_ops(rng, work, "warm-", shapes=((2, 1),), coefs=(5, 7)))


PASSES = {"construct": construct_pass, "digits": digits_pass, "symbolic": symbolic_pass}
WARMUPS = {"construct": construct_warmup, "digits": digits_warmup, "symbolic": symbolic_warmup}
