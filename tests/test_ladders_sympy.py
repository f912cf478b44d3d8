"""The exact independence proof of `ladders` cross-checked against sympy.

Whenever `atoms_independent` claims that {1} and the atoms of some square
roots and base -1 logarithms of rationals are Q-independent, sympy's
factorizations must agree: the squarefree kernels of the roots are distinct
and the prime-exponent vectors of the logs' arguments have full rank.
"""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qx.expr import Context
from qx.ladders import atoms_independent

sympy = pytest.importorskip("sympy")

positive = st.builds(F, st.integers(1, 400), st.integers(1, 60))
atoms = st.tuples(st.sampled_from(["sqrt", "log"]), positive)


@st.composite
def families(draw):
    """Random atoms, then planted dependencies among them: sqrt(r*k^2) with
    sqrt(r), log(r^e) with log(r), log(r*s) with log(r) and log(s)."""
    family = draw(st.lists(atoms, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        kind, r = draw(st.sampled_from(family))
        if kind == "sqrt":
            family.append(("sqrt", r * draw(positive) ** 2))
        elif draw(st.booleans()):
            family.append(("log", r ** draw(st.sampled_from([-2, -1, 2, 3]))))
        else:
            s = draw(positive)
            family += [("log", s), ("log", r * s)]
    return draw(st.permutations(family))


def _build(ctx, kind, r):
    return ctx.sqrt(ctx.rat(r)) if kind == "sqrt" else ctx.log(ctx.rat(-1), ctx.rat(r), 0)


def _exponents(r: F) -> dict:
    out = dict(sympy.factorint(r.numerator))
    for p, k in sympy.factorint(r.denominator).items():
        out[p] = -k
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(families(), st.integers(0, 3))
def test_claimed_independence_agrees_with_sympy_factorizations(family, combine):
    ctx = Context()
    values = [_build(ctx, kind, r) for kind, r in family]
    # rational-affine combinations of drawn values share their atoms
    values += [ctx.add(ctx.rat(F(1, 3)), ctx.mul(2, values[i % len(values)]))
               for i in range(combine)]
    if not atoms_independent(values):
        return
    kernels = []
    vectors = []
    for kind, r in set(family):  # a value drawn twice is one atom
        exponents = _exponents(r)
        if kind == "sqrt":
            kernel = 1
            for p, k in exponents.items():
                kernel *= p ** (k % 2)
            if kernel > 1:  # a square root of a square is rational, not an atom
                kernels.append(kernel)
        elif exponents:  # log(1; -1) is 0, not an atom
            vectors.append(exponents)
    assert len(set(kernels)) == len(kernels)
    primes = sorted({p for v in vectors for p in v})
    matrix = sympy.Matrix([[v.get(p, 0) for p in primes] for v in vectors])
    assert not vectors or matrix.rank() == len(vectors)


def test_the_strategy_draws_both_verdicts():
    # the property above is vacuous unless the proof claims independence
    ctx = Context()
    assert atoms_independent([_build(ctx, "sqrt", F(8)), _build(ctx, "log", F(6, 5))])
    assert not atoms_independent([_build(ctx, "sqrt", F(8)), _build(ctx, "sqrt", F(1, 2))])
