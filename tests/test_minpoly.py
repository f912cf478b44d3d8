"""Annihilator, Olmsted classifier, rational-root scan, and rule-base tests."""
from fractions import Fraction as F
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qx import expr, ladders, minpoly
from qx.dsl import compile_program, parse
from qx.errors import ZeroPolynomial
from qx.expr import Context
from qx.interval import CInterval, RInterval, sin_pi_interval
from qx.minpoly import (IntPoly, annihilator_sin_pi, olmsted_classify,
                        rational_root_scan, separates, squarefree_part,
                        transcendence_rules)

W40 = F(1, 1 << 40)
W60 = F(1, 1 << 60)


def test_annihilator_two_fifths_golden():
    p = annihilator_sin_pi(F(2, 5))
    # 16x^5 - 20x^3 + 5x up to content and sign
    target = (0, 5, 0, -20, 0, 16)
    c = p.content() or 1
    norm = tuple(v // c for v in p.monic_sign().coeffs)
    assert norm == target


def test_annihilator_degenerate_and_half():
    assert annihilator_sin_pi(F(0)).coeffs == (0, 1)
    assert annihilator_sin_pi(F(3)).coeffs == (0, 1)
    p = annihilator_sin_pi(F(1, 2))
    assert p.eval_fraction(F(1)) == 0


def test_annihilator_one_sixth_has_half_root():
    p = annihilator_sin_pi(F(1, 6))
    assert p.eval_fraction(F(1, 2)) == 0
    assert F(1, 2) in rational_root_scan(p)


def test_annihilator_soundness_all_q_up_to_24():
    for q in range(1, 25):
        for p_num in range(0, 2 * q + 1):
            if gcd(p_num, q) != 1:
                continue
            r = F(p_num, q)
            poly = annihilator_sin_pi(r)
            prec = 200
            s = sin_pi_interval(RInterval.from_fraction(r, prec), prec)
            val = poly.eval_enclosure(CInterval.real(s), prec)
            assert val.contains_zero()
            assert val.width <= W60


def _recurrence_annihilator(q: int) -> IntPoly:
    """The multiple-angle annihilator of sin(pi*p/q), kept as the reference.

    With x = sin(t), y = cos(t) and y^2 = 1 - x^2, the angle-addition
    recurrence gives sin(n*t) = A + y*B and cos(n*t) = C + y*D in Z[x]; since
    sin(q*t) = 0, A^2 - (1 - x^2)*B^2 vanishes at sin(pi*p/q).
    """
    x, zero, one = IntPoly((0, 1)), IntPoly(()), IntPoly((1,))
    one_minus_x2 = IntPoly((1, 0, -1))
    A, B, C, D = x, zero, zero, one
    for _ in range(q - 1):
        A, B, C, D = (B * one_minus_x2 + x * C, A + x * D,
                      D * one_minus_x2 - x * A, C - x * B)
    p = A if B.is_zero() else A * A - B * B * one_minus_x2
    return squarefree_part(p.primitive()).monic_sign()


def _stripped_of_rational_roots(p: IntPoly) -> IntPoly:
    """The reference Olmsted witness: every rational linear factor divided out."""
    for root in rational_root_scan(p):
        linear = IntPoly.new((-root.numerator, root.denominator))
        while (quot := p.exact_quotient(linear)) is not None:
            p = quot
    return p.primitive().monic_sign()


def test_annihilator_matches_recurrence_reference():
    for q in range(1, 41):
        # the annihilator depends only on the denominator of r
        assert annihilator_sin_pi(F(1, q)).coeffs == _recurrence_annihilator(q).coeffs, q


def test_olmsted_witness_matches_recurrence_reference():
    for q in range(1, 25):
        reference = _stripped_of_rational_roots(_recurrence_annihilator(q))
        for p_num in range(0, 2 * q + 1):
            if gcd(p_num, q) != 1:
                continue
            verdict = olmsted_classify(F(p_num, q))
            if verdict.status == "algebraic":
                assert verdict.witness.coeffs == reference.coeffs, (p_num, q)


def test_sin_pi_annihilators_run_no_gcd_and_no_root_scan(monkeypatch):
    calls = {"gcd": 0, "pseudo_remainder": 0, "rational_root_scan": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("gcd", "pseudo_remainder"):
        monkeypatch.setattr(IntPoly, name, counted(name, getattr(IntPoly, name)))
    monkeypatch.setattr(minpoly, "rational_root_scan",
                        counted("rational_root_scan", minpoly.rational_root_scan))
    for q in range(1, 33):
        for p_num in range(0, 2 * q + 1):
            if gcd(p_num, q) == 1:
                olmsted_classify(F(p_num, q))
    assert annihilator_sin_pi(F(1, 512)).degree == 513
    assert calls == {"gcd": 0, "pseudo_remainder": 0, "rational_root_scan": 0}


def test_sin_pi_annihilators_multiply_no_polynomials_and_factor_nothing(monkeypatch):
    # the closed Chebyshev forms: no product of factors, no factorization of q
    calls = {"mul": 0, "factor": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(IntPoly, "__mul__", counted("mul", IntPoly.__mul__))
    monkeypatch.setattr(IntPoly, "__rmul__", counted("mul", IntPoly.__rmul__))
    monkeypatch.setattr(expr, "factor", counted("factor", expr.factor))
    for q in range(1, 65):
        for p_num in range(0, 2 * q + 1):
            if gcd(p_num, q) == 1:
                annihilator_sin_pi(F(p_num, q))
                olmsted_classify(F(p_num, q))
    assert annihilator_sin_pi(F(1, 4096)).degree == 4097
    assert olmsted_classify(F(1, 4096)).witness.degree == 4094
    assert calls == {"mul": 0, "factor": 0}


def _meanprop_chain(n: int):
    """s_i = meanprop(s_(i-1), 3/2 or 2/3) from s_0 = 2: a product of powers of 2 and
    3 with exponents over 2^n, whose witness is the binomial x^(2^n) - c."""
    lines = ["let s0 = seg(2);"]
    lines += [f"let s{i} = meanprop(s{i - 1}, {'3/2' if i % 2 else '2/3'});"
              for i in range(1, n + 1)]
    return "\n".join(lines + [f"emit s{n};"]) + "\n"


def test_meanprop_witness_steps_multiply_no_polynomials(monkeypatch):
    calls = {"mul": 0}
    original = IntPoly.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return original(self, other)

    monkeypatch.setattr(IntPoly, "__mul__", counted)
    monkeypatch.setattr(IntPoly, "__rmul__", counted)
    res = compile_program(parse(_meanprop_chain(12)))
    witness, rule = minpoly.algebraic_witness(res.values["s12"])
    assert rule == "sqrt-tower" and witness.degree == 4096
    assert sum(1 for c in witness.coeffs if c) == 2
    assert calls == {"mul": 0}


def test_sparse_witness_encloses_in_logarithmic_products(monkeypatch):
    res = compile_program(parse(_meanprop_chain(12)))
    value = res.values["s12"]
    witness, _ = minpoly.algebraic_witness(value)
    z = value.enclosure(F(1, 1 << 60))
    calls = {"mul": 0}
    original = CInterval.mul

    def counted(self, other, prec):
        calls["mul"] += 1
        return original(self, other, prec)

    monkeypatch.setattr(CInterval, "mul", counted)
    assert witness.eval_enclosure(z, 128).contains_zero()
    assert calls["mul"] <= 28  # dense Horner made 4096


def test_meanprop_chain_compiles_and_verifies_up_to_the_digit_limit(tmp_path):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from qx.cli import main

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    results = {}
    for n in (14, 15):
        program = tmp_path / f"meanprop{n}.qdx"
        program.write_text(_meanprop_chain(n))
        results[n] = run(["compile", str(program)])
    code, out, err = results[14]
    assert code == 0, err
    cert = tmp_path / "meanprop14.json"
    cert.write_text(out)
    assert run(["verify", str(cert)])[:2] == (0, "certificate verified\n")
    # at n = 15 a witness coefficient is past Python's int/str digit limit
    code, out, err = results[15]
    assert code == 5 and out == ""
    assert "4300 digits" in err and "Traceback" not in err


def test_olmsted_examples():
    v = olmsted_classify(F(1, 6))
    assert v.status == "rational" and v.value == F(1, 2)
    v = olmsted_classify(F(1, 2))
    assert v.status == "rational" and v.value == F(1)
    v = olmsted_classify(F(1, 5))
    assert v.status == "algebraic"
    assert rational_root_scan(v.witness) == []


def test_rational_root_scan_examples():
    assert rational_root_scan(IntPoly.new((-1, 2))) == [F(1, 2)]
    assert rational_root_scan(IntPoly.new((0, 5, 0, -20, 0, 16))) == [F(0)]
    assert rational_root_scan(IntPoly.new((-2, 0, 1))) == []
    with pytest.raises(ZeroPolynomial):
        rational_root_scan(IntPoly.new(()))
    # a prime past the trial bound's square leaves its divisors, and the scan, not settled
    assert rational_root_scan(IntPoly.new((-(10 ** 20 + 39), 0, 1))) is None


def test_rational_root_scan_settles_at_most_trial_bound_candidate_pairs():
    # x^2 - N, N the product of the first k primes, has 2^k pairs (num, den):
    # up to _TRIAL_BOUND (k = 16) the scan runs, past it it is not settled
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert expr._TRIAL_BOUND == 2 ** 16
    assert rational_root_scan(IntPoly.new((-prod(primes[:16]), 0, 1))) == []
    assert rational_root_scan(IntPoly.new((-prod(primes), 0, 1))) is None


def test_every_factorization_is_expr_factor(ctx, monkeypatch):
    calls = []
    factor = expr.factor
    monkeypatch.setattr(expr, "factor", lambda n: calls.append(n) or factor(n))

    def factored(result):
        seen = set(calls)
        calls.clear()
        return result, seen

    m1 = ctx.rat(-1)
    assert factored(expr.quad_flatten(ctx.sqrt(72))) == ((F(0), F(6), F(2)), {72})
    assert factored(ladders.atoms_independent(
        [ctx.log(m1, ctx.rat(2), 0), ctx.log(m1, ctx.rat(F(3, 5)), 0), ctx.sqrt(6)])
    ) == (True, {1, 2, 3, 5, 6})
    assert factored(rational_root_scan(IntPoly.new((-6, 1, 1)))) == ([-3, 2], {1, 6})


def _reference_rational_root_scan(p: IntPoly) -> list[F]:
    """The scan before its sieve: every candidate of the rational-root theorem
    evaluated exactly. Kept as the reference the sieved scan must equal."""
    shift = next(k for k, c in enumerate(p.coeffs) if c)
    roots = [F(0)] if shift else []
    trimmed = IntPoly(p.coeffs[shift:])
    if trimmed.degree == 0:
        return roots
    for num in minpoly._divisors(trimmed.coeffs[0]):
        for den in minpoly._divisors(trimmed.coeffs[-1]):
            if gcd(num, den) == 1:
                for cand in (F(num, den), F(-num, den)):
                    if trimmed.eval_fraction(cand) == 0:
                        roots.append(cand)
    return sorted(roots)


def test_sieved_root_scan_equals_the_reference_on_sin_pi_annihilators():
    # these vanish at +-1, so the sieve must look further for t(k) != 0
    for q in range(1, 41):
        p = annihilator_sin_pi(F(1, q))
        assert rational_root_scan(p) == _reference_rational_root_scan(p), q


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), max_size=4),
       st.integers(0, 2))
def test_sieved_root_scan_equals_the_reference_with_planted_roots(coeffs, planted, shift):
    p = IntPoly.new([0] * shift + coeffs)
    for num, den in planted:
        p = p * IntPoly.new((-num, den))
    if p.is_zero():
        return
    roots = rational_root_scan(p)
    assert roots == _reference_rational_root_scan(p)
    assert {F(num, den) for num, den in planted} <= set(roots)


def test_golden_transcendental_list(ctx):
    s2 = ctx.sqrt(2)
    cases = {
        "pi": ctx.pi(),
        "e": ctx.e(),
        "(-1)^sqrt2": ctx.exp(ctx.rat(-1), s2),
        "sin(pi sqrt2)": ctx.sin_pi(s2),
        "2^sqrt2": ctx.exp(ctx.rat(2), s2),
    }
    expected_rules = {
        "pi": "algebraic-shift",
        "e": "hermite-lindemann",
        "(-1)^sqrt2": "gelfond-schneider",
        "sin(pi sqrt2)": "euler-bridge",
        "2^sqrt2": "gelfond-schneider",
    }
    for name, e in cases.items():
        v = transcendence_rules(e)
        assert v.status == "transcendental", name
        assert not v.conditional, name
        assert v.rule == expected_rules[name], name


def test_golden_algebraic_list_with_verified_witnesses(ctx):
    cases = [
        (ctx.sqrt(2), (-2, 0, 1)),
        (ctx.div(ctx.add(1, ctx.sqrt(5)), 2), (-1, -1, 1)),
        (ctx.sin_pi(F(2, 5)), (0, 5, 0, -20, 0, 16)),
    ]
    for e, coeffs in cases:
        v = transcendence_rules(e)
        assert v.status == "algebraic"
        assert v.witness.coeffs == coeffs
        val = v.witness.eval_enclosure(e.enclosure(W40), 128)
        assert val.contains_zero()


def test_unknowns_never_misclassified(ctx):
    unknowns = [
        ctx.add(ctx.pi(), ctx.e()),
        ctx.mul(ctx.pi(), ctx.e()),
        ctx.exp(None, ctx.e()),
        ctx.ln(ctx.pi()),
        ctx.log(ctx.rat(2), ctx.rat(3), 0),
        ctx.exp(ctx.rat(2), ctx.pi()),
        # 0/t has no witness, so t's irrationality says nothing about it
        ctx.exp(ctx.rat(2), ctx.div(0, ctx.sin_pi(F(1, 7)))),
    ]
    for e in unknowns:
        assert transcendence_rules(e).status == "unknown"


def test_irrationality_scans_the_leaf_witness_not_the_shifted_one(ctx, monkeypatch):
    # the shifted witness's coefficients carry the offset's digits in every
    # power, and the divisors of its end coefficients to scan grow with them
    scanned = []

    def recorded(p):
        scanned.append(p)
        return rational_root_scan(p)

    monkeypatch.setattr(minpoly, "rational_root_scan", recorded)
    leaf = ctx.sin_pi(F(1, 7))
    shifted = ctx.sub(leaf, F(43388, 100000))
    for exponent in (shifted, ctx.add(ctx.div(3, shifted), F(1, 2))):
        scanned.clear()
        v = transcendence_rules(ctx.exp(ctx.rat(2), exponent))
        assert (v.status, v.rule) == ("transcendental", "gelfond-schneider")
        assert scanned == [annihilator_sin_pi(F(1, 7))]


def test_shift_rule_composes_with_algebraic(ctx):
    mixed = ctx.add(ctx.sqrt(2), ctx.sin_pi(ctx.sqrt(2)))
    v = transcendence_rules(mixed)
    assert v.status == "transcendental" and v.rule == "algebraic-shift"


def test_rational_detection_through_irrational_syntax(ctx):
    e = ctx.sub(ctx.mul(ctx.sqrt(2), ctx.sqrt(8)), ctx.rat(4))
    v = transcendence_rules(e)
    assert v.status == "rational" and v.value == 0


def test_arcsin_rational_nontable_transcendental(ctx):
    v = transcendence_rules(ctx.arcsin_over_pi(F(1, 3)))
    assert v.status == "transcendental" and v.rule == "olmsted-arcsin"
    shifted = ctx.mul(2, ctx.arcsin_over_pi(F(1, 3)))
    assert transcendence_rules(shifted).status == "transcendental"


def test_natural_log_of_algebraic(ctx):
    v = transcendence_rules(ctx.ln(ctx.rat(2)))
    assert v.status == "transcendental" and v.rule == "hermite-lindemann"
    v = transcendence_rules(ctx.ln(ctx.rat(1), branch=3))
    assert v.status == "transcendental" and v.rule == "lindemann"


def test_sqrt_tower_witness(ctx):
    nested = ctx.sqrt(ctx.add(1, ctx.sqrt(2)))
    v = transcendence_rules(nested)
    assert v.status == "algebraic"
    val = v.witness.eval_enclosure(nested.enclosure(W40), 128)
    assert val.contains_zero()


def test_separates_is_sound(ctx):
    assert separates(ctx.sqrt(2), F(0))
    assert separates(ctx.sqrt(2), F(3, 2))
    assert not separates(ctx.rat(F(3, 2)), F(3, 2))


def test_olmsted_exhaustive_scan_q_up_to_24(ctx):
    table = {F(0): F(0), F(1): F(0), F(1, 2): F(1), F(3, 2): F(-1),
             F(1, 6): F(1, 2), F(5, 6): F(1, 2), F(7, 6): F(-1, 2),
             F(11, 6): F(-1, 2)}
    one = F(1)
    for q in range(1, 25):
        for p_num in range(0, 2 * q + 1):
            if gcd(p_num, q) != 1:
                continue
            r = F(p_num, q)
            expected = table.get(r % 2)
            verdict = olmsted_classify(r)
            if expected is not None:
                assert verdict.status == "rational" and verdict.value == expected
            else:
                assert verdict.status == "algebraic"
                # exhaustiveness: every rational-root candidate is exactly excluded
                sin_expr = ctx.sin_pi(r)
                for cand in rational_root_scan(annihilator_sin_pi(r)):
                    if abs(cand) <= one:
                        assert separates(sin_expr, cand)


def test_division_by_hidden_zero_stays_unknown(ctx):
    hidden_zero = ctx.add(ctx.sqrt(2), ctx.mul(-1, ctx.sqrt(2)))
    e = ctx.div(2, hidden_zero)
    assert transcendence_rules(e).status == "unknown"


def test_reciprocal_witness_valid_case(ctx):
    e = ctx.div(3, ctx.sqrt(2))  # 3/sqrt(2): quadratic-field route
    v = transcendence_rules(e)
    assert v.status == "algebraic"
    assert v.witness.eval_enclosure(e.enclosure(F(1, 1 << 40)), 128).contains_zero()
    e = ctx.div(3, ctx.sin_pi(F(2, 5)))  # reciprocal-of-witness route
    v = transcendence_rules(e)
    assert v.status == "algebraic" and v.rule == "affine-combination"
    assert v.witness.eval_enclosure(e.enclosure(F(1, 1 << 40)), 128).contains_zero()


def test_affine_witness_random_property(ctx):
    import random
    rng = random.Random(1837)
    for _ in range(25):
        r = F(rng.randint(1, 9), rng.choice([5, 7, 9, 11]))
        t = ctx.sin_pi(r)
        if t.kind != "sin_pi":
            continue
        a = F(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice([1, -1])
        b = F(rng.randint(-6, 6), rng.randint(1, 3))
        e = ctx.add(ctx.mul(ctx.rat(a), t), ctx.rat(b))
        v = transcendence_rules(e)
        assert v.status == "algebraic"
        val = v.witness.eval_enclosure(e.enclosure(F(1, 1 << 40)), 160)
        assert val.contains_zero()
