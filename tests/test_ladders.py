"""Ladder tests: descent, relation detection, reduction, ascent."""
import random
from fractions import Fraction as F

import mpmath
import pytest

from qx.errors import NotReduced, UnsupportedNode
from qx.expr import Context, to_text
from qx.ladders import (ELEMENT, EXPONENTIAL, Ladder, Relation, Rung, ascend,
                        atoms_independent, check_removal, coefficient_bound, descend,
                        detect_relation, linear_decompose, reduce_ladder)

W40 = F(1, 1 << 40)


def test_descend_gs_example(ctx):
    ladder = descend(ctx.exp(ctx.rat(-1), ctx.sqrt(2)), ctx)
    assert len(ladder.rungs) == 1
    assert to_text(ladder.rungs[0].value) == "sqrt(2)"
    assert ladder.rungs[0].kind == ELEMENT


def test_descend_log_example(ctx):
    node = ctx.log(ctx.rat(-1), ctx.rat(3), 0)
    ladder = descend(node, ctx)
    assert len(ladder.rungs) == 1
    assert ladder.rungs[0].value is node
    assert ladder.rungs[0].kind == EXPONENTIAL


def test_descend_rational_empty(ctx):
    assert len(descend(ctx.rat(F(5, 7)), ctx).rungs) == 0


def test_descend_deterministic(ctx):
    e = ctx.exp(ctx.rat(3), ctx.add(ctx.sqrt(2), ctx.log(ctx.rat(-1), ctx.rat(5), 0)))
    l1 = descend(e, ctx)
    l2 = descend(e, ctx)
    assert [r.value for r in l1.rungs] == [r.value for r in l2.rungs]
    assert [r.kind for r in l1.rungs] == [r.kind for r in l2.rungs]


def test_descend_sin_pi_expands_to_exp_rungs(ctx):
    ladder = descend(ctx.sin_pi(ctx.sqrt(2)), ctx)
    assert len(ladder.rungs) >= 1
    assert all(r.kind in (ELEMENT, EXPONENTIAL) for r in ladder.rungs)


def test_descend_rejects_natural_base(ctx):
    with pytest.raises(UnsupportedNode):
        descend(ctx.pi(), ctx)
    with pytest.raises(UnsupportedNode):
        descend(ctx.e(), ctx)


def test_linear_decompose(ctx):
    s2 = ctx.sqrt(2)
    e = ctx.add(ctx.rat(F(1, 2)), ctx.mul(2, s2))
    d = linear_decompose(e)
    assert d[None] == F(1, 2) and d[s2] == F(2)


def test_detect_relation_examples(ctx):
    s2 = ctx.sqrt(2)
    rel = detect_relation([s2, ctx.add(1, ctx.mul(2, s2))])
    assert rel is not None and rel.confidence == "exact"
    # 1 + 2*sqrt2 - (1 + 2*sqrt2) = 0, canonicalized with lex-least sign
    assert rel.coefficients in ((-1, -2, 1), (1, 2, -1))

    rel = detect_relation([ctx.rat(F(1, 3))])
    assert rel is not None and rel.confidence == "exact"
    assert rel.coefficients == (-1, 3)

    assert detect_relation([s2], precision_bits=200) is None


def test_sqrt2_has_no_small_relation_continued_fraction_oracle():
    # independent oracle: best rational approximations of sqrt(2) come from
    # its continued fraction [1;2,2,2,...]; check |q*sqrt2 - p| stays huge
    # relative to 2^-200 for all q <= 10^6
    p0, q0, p1, q1 = 1, 1, 3, 2
    bound = F(1, 1 << 200)
    s2 = F("1.41421356237309504880168872420969807856967187537694809")
    worst = None
    while q1 <= 10**6:
        err = abs(q1 * s2 - p1)
        worst = err if worst is None else min(worst, err)
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
    assert worst > F(1, 10**8)
    assert worst > bound


def test_detect_relation_heuristic_logs(ctx):
    m1 = ctx.rat(-1)
    logs = [ctx.log(m1, ctx.rat(n), 0) for n in (2, 3, 6)]
    rel = detect_relation(logs, precision_bits=100)
    assert rel is not None
    assert rel.confidence == "heuristic"
    n0, n1, n2, n3 = rel.coefficients
    assert n0 == 0 and (n1, n2, n3) in ((1, 1, -1), (-1, -1, 1))
    # heuristic relations must re-verify at double precision
    rel2 = detect_relation(logs, precision_bits=200)
    assert rel2 is not None


@pytest.mark.parametrize("values, relation", [
    (lambda ctx: [ctx.log(-1, n, 0) for n in (2, 3, 6)], (0, -1, -1, 1)),
    (lambda ctx: [ctx.sqrt(2), ctx.sqrt(8)], (0, -2, 1)),
    (lambda ctx: [ctx.sqrt(2), ctx.sqrt(F(1, 2))], (0, -1, 2)),
    (lambda ctx: [ctx.log(-1, F(1, 4), 0), ctx.log(-1, 2, 0)], (0, -1, -2)),
], ids=["log-2-3-6", "sqrt-2-8", "sqrt-2-half", "log-quarter-2"])
def test_pslq_still_decides_what_the_independence_proof_leaves_open(ctx, monkeypatch,
                                                                     values, relation):
    # each family has a relation the rational-affine structure does not show
    calls = []
    pslq = mpmath.pslq
    monkeypatch.setattr(mpmath, "pslq", lambda v, **k: calls.append(len(v)) or pslq(v, **k))
    values = values(ctx)
    assert not atoms_independent(values)
    rel = detect_relation(values, precision_bits=100)
    assert calls
    assert rel == Relation(relation, "heuristic", 100)


def test_a_heuristic_relation_keeps_every_coefficient_below_the_bound(ctx, monkeypatch):
    # B = 2^floor((b - 32)/n) among n numbers at b bits
    assert [coefficient_bound(b, 4) for b in (1, 32, 35, 36, 60, 160)] == [1, 1, 1, 2, 128, 2**32]
    assert coefficient_bound(160, 9) == 2**14
    # 28859 + 36203*sqrt(2) - 29716*sqrt(3) - 25320*sqrt(5) + 10594*sqrt(7) is 2.2e-19,
    # below 2^-60: held as labelled, but five reals meet 2^-60 with coefficients near 2^15
    roots = [ctx.sqrt(n) for n in (2, 3, 5, 7)]
    rel = Relation((-28859, -36203, 29716, 25320, -10594), "heuristic", 60)
    assert check_removal(rel, roots[3], roots[:3])[2] == (
        "is labelled heuristic, but a coefficient is not below 32: among 5 numbers at 60 bits "
        "its size alone explains it")
    # the relation among the logs of 2, 3 and 6 is found from 36 bits; below, PSLQ does not run
    calls = []
    pslq = mpmath.pslq
    monkeypatch.setattr(mpmath, "pslq", lambda v, **k: calls.append(len(v)) or pslq(v, **k))
    logs = [ctx.log(-1, n, 0) for n in (2, 3, 6)]
    assert detect_relation(logs, precision_bits=32) is None and calls == []
    assert detect_relation(logs, precision_bits=36) == Relation((0, -1, -1, 1), "heuristic", 36)


def test_distinct_square_free_roots_and_independent_logs_are_proven_independent(ctx):
    m1 = ctx.rat(-1)
    roots = [ctx.sqrt(n) for n in (2, 3, 5, 7)] + [ctx.sqrt(F(3, 2))]  # kernel 6
    logs = [ctx.log(m1, ctx.rat(r), 0) for r in (2, 3, F(5, 7))]
    planted = ctx.add(ctx.rat(F(1, 2)), ctx.sub(ctx.mul(3, roots[0]), logs[2]))
    assert atoms_independent(roots + logs + [planted])
    assert detect_relation(roots + logs) is None
    # a repeated kernel, dependent exponents, another base, another family: not proven
    assert not atoms_independent([roots[0], ctx.sqrt(18)])
    assert not atoms_independent([ctx.log(m1, ctx.rat(4), 0), logs[0]])
    assert not atoms_independent([ctx.log(ctx.rat(2), ctx.rat(3), 0)])
    assert not atoms_independent([ctx.sin_pi(ctx.sqrt(2))])
    # a kernel or a log that leaves a rest past the trial bound is not proven
    assert not atoms_independent([ctx.sqrt(65537 * 65539)])
    assert atoms_independent([ctx.sqrt(1 << 32 | 1)])  # 641 * 6700417
    assert not atoms_independent([ctx.log(m1, ctx.rat(65537 * 65539), 0)])
    assert atoms_independent([ctx.log(m1, ctx.rat(65537 * 3), 0)])


def test_reduce_explicit_combination(ctx):
    s2 = ctx.sqrt(2)
    log3 = ctx.log(ctx.rat(-1), ctx.rat(3), 0)
    planted = ctx.add(ctx.rat(F(1, 2)), ctx.mul(2, log3))
    ladder = Ladder(ctx.base, (Rung(s2, ELEMENT), Rung(log3, EXPONENTIAL),
                               Rung(planted, ELEMENT)))
    red = reduce_ladder(ladder, ctx)
    assert [r.value for r in red.rungs] == [s2, log3]
    assert len(red.removals) == 1
    rm = red.removals[0]
    assert rm.original_index == 2
    assert rm.constant == F(1, 2)
    assert rm.combo == ((1, F(2)),)
    assert rm.identity_verified
    # kinds and witnesses of kept rungs unchanged
    assert [r.kind for r in red.rungs] == [ELEMENT, EXPONENTIAL]


def test_reduce_identity_when_independent(ctx):
    s2 = ctx.sqrt(2)
    ladder = Ladder(ctx.base, (Rung(s2, ELEMENT),))
    red = reduce_ladder(ladder, ctx)
    assert red.rungs == ladder.rungs
    assert red.removals == ()


def test_reduce_log_relation(ctx):
    m1 = ctx.rat(-1)
    rungs = tuple(Rung(ctx.log(m1, ctx.rat(n), 0), EXPONENTIAL) for n in (2, 3, 6))
    red = reduce_ladder(Ladder(ctx.base, rungs), ctx, precision_bits=100)
    assert len(red.rungs) == 2
    assert len(red.removals) == 1
    assert red.removals[0].relation.confidence == "heuristic"
    assert red.removals[0].identity_verified


def test_ascend_selection_and_crosscheck(ctx):
    s2 = ctx.sqrt(2)
    ladder = Ladder(ctx.base, (Rung(s2, ELEMENT),))
    rep = ascend(ladder, ctx)
    assert rep.degree == 1
    assert to_text(rep.choices[0]) == "pow(-1, sqrt(2))"
    assert rep.conditional
    assert rep.crosschecks[0] is not None
    assert rep.crosschecks[0].rule == "gelfond-schneider"
    assert not rep.crosschecks[0].conditional


def test_ascend_exponential_keeps_value(ctx):
    log3 = ctx.log(ctx.rat(-1), ctx.rat(3), 0)
    rep = ascend(Ladder(ctx.base, (Rung(log3, EXPONENTIAL),)), ctx)
    assert rep.degree == 1
    assert rep.choices[0] is log3


def test_ascend_empty_ladder(ctx):
    rep = ascend(Ladder(ctx.base, ()), ctx)
    assert rep.degree == 0
    assert rep.conditional
    assert any("Lindemann" in note for note in rep.notes)


def test_ascend_rejects_unreduced(ctx):
    s2 = ctx.sqrt(2)
    dependent = ctx.add(1, ctx.mul(2, s2))
    ladder = Ladder(ctx.base, (Rung(s2, ELEMENT), Rung(dependent, ELEMENT)))
    with pytest.raises(NotReduced):
        ascend(ladder, ctx)


def test_ascend_picks_exactly_one_per_rung(ctx):
    m1 = ctx.rat(-1)
    rungs = (Rung(ctx.sqrt(2), ELEMENT),
             Rung(ctx.log(m1, ctx.rat(3), 0), EXPONENTIAL))
    rep = ascend(Ladder(ctx.base, rungs), ctx)
    assert rep.degree == 2
    for rung, choice in zip(rungs, rep.choices):
        exp_alt = ctx.exp(ctx.base, rung.value)
        assert (choice is rung.value) != (choice is exp_alt)


def test_reduction_preserves_validity_random(ctx):
    rng = random.Random(1966)
    m1 = ctx.rat(-1)
    pool = [(ctx.sqrt(2), ELEMENT), (ctx.sqrt(3), ELEMENT), (ctx.sqrt(5), ELEMENT),
            (ctx.log(m1, ctx.rat(2), 0), EXPONENTIAL),
            (ctx.log(m1, ctx.rat(3), 0), EXPONENTIAL)]
    for _ in range(6):
        chosen = rng.sample(pool, rng.randint(1, 3))
        rungs = [Rung(v, k) for v, k in chosen]
        planted_positions = []
        for _ in range(rng.randint(0, 2)):
            if not rungs:
                break
            q0 = F(rng.randint(-3, 3), rng.choice([1, 2]))
            j = rng.randrange(len(rungs))
            coef = F(rng.choice([1, 2, -1]), rng.choice([1, 2]))
            value = ctx.add(ctx.rat(q0), ctx.mul(ctx.rat(coef), rungs[j].value))
            planted_positions.append(len(rungs))
            rungs.append(Rung(value, ELEMENT))
        red = reduce_ladder(Ladder(ctx.base, tuple(rungs)), ctx, precision_bits=96)
        assert sorted(rm.original_index for rm in red.removals) == planted_positions
        for rm in red.removals:
            assert rm.identity_verified
        # kept rungs keep their kinds and witnesses
        kept = [r for i, r in enumerate(rungs) if i not in planted_positions]
        assert [r.kind for r in red.rungs] == [r.kind for r in kept]


def test_heuristic_relation_reverifies_at_double_precision(ctx):
    from qx.interval import CInterval
    m1 = ctx.rat(-1)
    logs = [ctx.log(m1, ctx.rat(n), 0) for n in (2, 3, 6)]
    rel = detect_relation(logs, precision_bits=100)
    assert rel is not None and rel.confidence == "heuristic"
    prec = 260
    total = CInterval.from_int(rel.coefficients[0])
    for n, v in zip(rel.coefficients[1:], logs):
        total = total.add(v.enclosure(F(1, 1 << 240)).mul(CInterval.from_int(n), prec), prec)
    assert total.re.mag().to_fraction() < F(1, 1 << 100)
    assert total.im.mag().to_fraction() < F(1, 1 << 100)


def test_cross_base_session():
    from qx.expr import Context, to_text
    ctx = Context(base=3)
    lad = descend(ctx.exp(ctx.rat(3), ctx.sqrt(2)), ctx)
    assert [(to_text(r.value), r.kind) for r in lad.rungs] == [("sqrt(2)", ELEMENT)]
    rep = ascend(reduce_ladder(lad, ctx), ctx)
    assert rep.crosschecks[0].rule == "gelfond-schneider"
    # sin(pi x) under base 3 rebases its base -1 exponentials via log_3(-1)
    lad2 = descend(ctx.sin_pi(ctx.sqrt(2)), ctx)
    assert len(lad2.rungs) == 3
    red = reduce_ladder(lad2, ctx)
    # the mirrored exponent -sqrt(2)*log_3(-1) is an exact combination
    assert len(red.rungs) == 2
    assert red.removals[0].relation.confidence == "exact"
    assert red.removals[0].identity_verified
