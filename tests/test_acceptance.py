"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and certified by enclosures, never by
floating-point reading.
"""
import random
import time
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from qx.dsl import compile_program, parse, verify_roundtrip
from qx.expr import Context, to_text
from qx.geometry import clavius_point, spiral_probe_report
from qx.interval import CInterval, RInterval
from qx.ladders import (ELEMENT, EXPONENTIAL, Ladder, Rung, ascend, descend,
                        reduce_ladder)
from qx.minpoly import (annihilator_sin_pi, olmsted_classify,
                        rational_root_scan, separates, transcendence_rules)

W40 = F(1, 1 << 40)
W60 = F(1, 1 << 60)
CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.qdx"))


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_annihilator_golden():
    start = time.perf_counter()
    p = annihilator_sin_pi(F(2, 5))
    elapsed = time.perf_counter() - start
    c = p.content() or 1
    norm = tuple(v // c for v in p.monic_sign().coeffs)
    assert norm == (0, 5, 0, -20, 0, 16)
    assert elapsed < 1.0
    _report(1, f"sin(2pi/5) annihilator is 16x^5-20x^3+5x up to content/sign ({elapsed:.3f}s)")


def test_criterion_02_olmsted_scan():
    start = time.perf_counter()
    ctx = Context()
    table = {F(0): F(0), F(1): F(0), F(1, 2): F(1), F(3, 2): F(-1),
             F(1, 6): F(1, 2), F(5, 6): F(1, 2), F(7, 6): F(-1, 2),
             F(11, 6): F(-1, 2)}
    count = 0
    for q in range(1, 25):
        for p_num in range(0, 2 * q + 1):
            if gcd(p_num, q) != 1:
                continue
            r = F(p_num, q)
            count += 1
            expected = table.get(r % 2)
            verdict = olmsted_classify(r)
            candidates = [c for c in rational_root_scan(annihilator_sin_pi(r))
                          if abs(c) <= 1]
            if expected is not None:
                assert verdict.status == "rational" and verdict.value == expected
                assert expected in candidates
                assert ctx.sin_pi(r).is_rat(expected)
                for cand in candidates:
                    if cand != expected:
                        assert separates(ctx.rat(expected), cand)
            else:
                assert verdict.status == "algebraic"
                sin_expr = ctx.sin_pi(r)
                for cand in candidates:
                    assert separates(sin_expr, cand)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"sin(pi p/q) rational iff value in {{0, +-1/2, +-1}} for {count} "
               f"ratios with q <= 24 ({elapsed:.1f}s)")


def _clavius_sequence(ctx, n_max, width):
    xs = []
    for n in range(1, n_max + 1):
        xs.append(clavius_point(ctx, n).x.enclosure(width))
    return xs


def test_criterion_03_quadratrix_terminal_ratio():
    ctx = Context()
    width = F(1, 1 << 70)
    xs = _clavius_sequence(ctx, 12, width)
    half_pi = ctx.div(ctx.pi(), 2).enclosure(width).re
    prec = 128
    inverses = [CInterval.from_int(1).div(x, prec).re for x in xs]
    # monotone decrease toward pi/2, certified by disjoint enclosures
    for a, b in zip(inverses, inverses[1:]):
        assert b.hi < a.lo
    for inv in inverses:
        assert inv.hi > half_pi.lo
    final_err = inverses[-1].sub(half_pi, prec)
    assert final_err.mag().to_fraction() < F(1, 10**6)
    _report(3, "1/clavius_x(n) decreases to pi/2 with |1/x_12 - pi/2| < 1e-6 (certified)")


def test_criterion_04_clavius_convergence():
    ctx = Context()
    width = F(1, 1 << 70)
    xs = _clavius_sequence(ctx, 12, width)
    two_over_pi = ctx.div(2, ctx.pi()).enclosure(width).re
    prec = 128
    errors = [x.re.sub(two_over_pi, prec) for x in xs]
    # |x_10 - 2/pi| < 1e-5
    assert errors[9].mag().to_fraction() < F(1, 10**5)
    # strictly decreasing absolute error, certified
    for a, b in zip(errors, errors[1:]):
        assert b.mag() < a.mignitude()
    _report(4, "|clavius_x(10) - 2/pi| < 1e-5 and errors strictly decrease for n=1..12")


def test_criterion_05_compiler_soundness():
    start = time.perf_counter()
    assert len(CORPUS) >= 10
    text = "\n".join(p.read_text() for p in CORPUS)
    for tool in ("seg", "point", "line", "circle", "intersect", "meanprop",
                 "fourthprop", "ra", "rra", "bisect", "anglesect"):
        assert f"{tool}(" in text
    for path in CORPUS:
        res = compile_program(parse(path.read_text()))
        verify_roundtrip(res, 30)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"{len(CORPUS)} corpus programs round-trip at 2^-30 ({elapsed:.1f}s)")


def test_criterion_06_euler_bridge():
    ctx = Context()
    rng = random.Random(1748)
    for _ in range(100):
        x = F(rng.randint(-200, 200), 100)
        lhs = ctx.exp(ctx.rat(-1), ctx.rat(x))
        ef = ctx.euler_split(ctx.rat(x))
        rhs = ctx.add(ef.cos_part, ctx.mul(ctx.i(), ef.sin_part))
        assert lhs.enclosure(W40).intersects(rhs.enclosure(W40))
    _report(6, "(-1)^x meets cos(pi x) + i sin(pi x) at width 2^-40 "
               "for 100 rational x in [-2, 2]")


def test_criterion_07_elprop_rewrites():
    ctx = Context()
    rng = random.Random(1909)
    done = 0
    while done < 50:
        x = F(rng.randint(-30, 30), rng.randint(1, 12))
        y = F(rng.randint(-18, 18), rng.randint(1, 8))
        if x in (0, 1) or y in (0, 1):
            continue
        lhs = ctx.exp(ctx.rat(x), ctx.rat(y))
        rhs = ctx.rewrite_elprop(lhs)
        assert rhs is not lhs
        assert lhs.enclosure(W40).intersects(rhs.enclosure(W40))
        done += 1
    _report(7, "x^y meets b^(y log_b x) at width 2^-40 for 50 principal-branch samples")


def test_criterion_08_ladder_reduction_planted():
    ctx = Context()
    rng = random.Random(2026)
    m1 = ctx.rat(-1)
    pool = [(ctx.sqrt(2), ELEMENT), (ctx.sqrt(3), ELEMENT), (ctx.sqrt(5), ELEMENT),
            (ctx.sqrt(7), ELEMENT),
            (ctx.log(m1, ctx.rat(2), 0), EXPONENTIAL),
            (ctx.log(m1, ctx.rat(3), 0), EXPONENTIAL),
            (ctx.log(m1, ctx.rat(5), 0), EXPONENTIAL)]
    total_removed = 0
    for _ in range(20):
        base_count = rng.randint(1, 4)
        chosen = rng.sample(pool, base_count)
        rungs = [Rung(v, k) for v, k in chosen]
        planted = []
        for _ in range(rng.randint(1, 6 - base_count)):
            q0 = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            parts = rng.sample(range(len(rungs)), rng.randint(1, min(2, len(rungs))))
            value = ctx.rat(q0)
            for j in parts:
                coef = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
                value = ctx.add(value, ctx.mul(ctx.rat(coef), rungs[j].value))
            planted.append(len(rungs))
            rungs.append(Rung(value, ELEMENT))
        assert len(rungs) <= 6
        red = reduce_ladder(Ladder(ctx.base, tuple(rungs)), ctx, precision_bits=128)
        assert sorted(rm.original_index for rm in red.removals) == planted
        for rm in red.removals:
            # the relation holds as labelled, so b^{a_k} = b^q * prod (b^{a_j})^{q_j}
            assert rm.identity_verified
        total_removed += len(red.removals)
    _report(8, f"20 planted ladders reduced exactly; {total_removed} removal "
               "identities verified from relations that hold as labelled")


def test_criterion_09_ascent_bookkeeping():
    ctx = Context()
    m1 = ctx.rat(-1)
    ladders = {
        0: Ladder(ctx.base, ()),
        1: Ladder(ctx.base, (Rung(ctx.sqrt(2), ELEMENT),)),
        2: Ladder(ctx.base, (Rung(ctx.sqrt(2), ELEMENT),
                             Rung(ctx.log(m1, ctx.rat(3), 0), EXPONENTIAL))),
    }
    for size, ladder in ladders.items():
        rep = ascend(ladder, ctx)
        assert rep.degree == size == len(ladder.rungs)
        assert rep.conditional
        for rung, choice in zip(ladder.rungs, rep.choices):
            alt = ctx.exp(ctx.base, rung.value)
            picked_value = choice is rung.value
            picked_exp = choice is alt
            assert picked_value != picked_exp  # exactly one of {a_k, b^{a_k}}
    gs = descend(ctx.exp(m1, ctx.sqrt(2)), ctx)
    rep = ascend(reduce_ladder(gs, ctx), ctx)
    assert rep.crosschecks[0] is not None
    assert rep.crosschecks[0].rule == "gelfond-schneider"
    assert not rep.crosschecks[0].conditional
    _report(9, "ascent picks exactly one of {a_k, b^a_k} per rung; degree = rung "
               "count; (-1)^sqrt(2) cross-labeled unconditional (Gelfond-Schneider)")


def test_criterion_10_transcendence_rule_base():
    ctx = Context()
    s2 = ctx.sqrt(2)
    transcendental = {
        "pi": ctx.pi(),
        "e": ctx.e(),
        "(-1)^sqrt2": ctx.exp(ctx.rat(-1), s2),
        "sin(pi sqrt2)": ctx.sin_pi(s2),
        "2^sqrt2": ctx.exp(ctx.rat(2), s2),
    }
    for name, e in transcendental.items():
        v = transcendence_rules(e)
        assert v.status == "transcendental" and not v.conditional, name
    algebraic = [ctx.sqrt(2), ctx.div(ctx.add(1, ctx.sqrt(5)), 2), ctx.sin_pi(F(2, 5))]
    for e in algebraic:
        v = transcendence_rules(e)
        assert v.status == "algebraic"
        assert v.witness is not None
        val = v.witness.eval_enclosure(e.enclosure(W40), 128)
        assert val.contains_zero()
    unknowns = [ctx.add(ctx.pi(), ctx.e()), ctx.exp(None, ctx.e()),
                ctx.ln(ctx.pi()), ctx.exp(ctx.rat(2), ctx.pi()),
                ctx.log(ctx.rat(2), ctx.rat(3), 0)]
    for e in unknowns:
        assert transcendence_rules(e).status == "unknown"
    _report(10, "golden transcendental/algebraic lists classified with verified "
                "witnesses; open cases stay 'unknown'")


def test_criterion_11_spiral_probe_report():
    ctx = Context()
    rep = spiral_probe_report(ctx, 1, 3, 12)
    diffs = [abs(F(d)) for d in rep.differences]
    # convergence: strictly shrinking differences, overall shrink far beyond 2x,
    # per-step factors rising to the halving limit 2 (measured from below)
    for a, b in zip(diffs, diffs[1:]):
        assert b < a
    assert diffs[0] / diffs[-1] > 2
    assert all(rep.shrink_factors[i] < rep.shrink_factors[i + 1]
               for i in range(len(rep.shrink_factors) - 1))
    assert rep.shrink_factors[-1] > 1.99
    # the report carries the limit estimate and BOTH closed forms with discrepancies
    limit = F(rep.limit_estimate)
    sub = F(rep.subtangent)
    eighth = F(rep.eighth_reading)
    assert abs(limit - sub) < F(1, 10**4)
    assert abs(F(rep.discrepancy_subtangent)) < F(1, 10**4)
    assert abs(F(rep.discrepancy_eighth) - eighth) < F(1, 10**3)
    assert rep.factor_between_readings == pytest.approx(2.0, abs=1e-9)
    _report(11, "spiral secant intercepts converge to the polar subtangent "
                "R*pi/2; the 'one eighth' reading differs by the reported "
                "factor 2; report carries both")
