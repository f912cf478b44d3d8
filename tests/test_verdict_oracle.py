"""Verdicts checked against a truth known by construction, on derandomized random input.

A verdict may be `unknown` but is never wrong. Each family here draws inputs
whose answer is fixed by how they are built, runs the command line on them
and compares. Today it holds the ladder family: reduction must remove no rung
of a ladder whose exponents are Q-independent, and must still remove a rung
planted as a small integer combination of earlier ones; `qx verify` must
accept every certificate that `qx reduce` writes.
"""
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

from qx.cli import main

sympy = pytest.importorskip("sympy")

# sqrt(1 + sqrt(p)) for distinct squarefree p: each generates its own quartic
# field, and 1 and these numbers are Q-independent, so no rung may go
RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19)
RELATION_BITS = (1, 8, 16, 32, 44, 60, 100, 160)
PRIMES = (2, 3, 5, 7)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reduced_and_verified(tmp_path, argv):
    """The reduce certificate of argv, after `qx verify` has accepted it."""
    code, out, err = run(["reduce", *argv, "--ascend"])
    assert code == 0, err
    path = tmp_path / "reduced.json"
    path.write_text(out)
    assert run(["verify", str(path)]) == (0, "certificate verified\n", "")
    return json.loads(out)


@pytest.mark.parametrize("draw", range(10))
def test_a_ladder_of_independent_exponents_keeps_every_rung(tmp_path, draw):
    rng = random.Random(draw)
    radicands = rng.sample(RADICANDS, rng.randint(2, 8))
    bits = rng.choice(RELATION_BITS)
    text = " + ".join(f"pow(2, sqrt(1+sqrt({p})))" for p in radicands)
    cert = _reduced_and_verified(tmp_path, [text, "--base", "2", "--relation-bits", str(bits)])
    assert cert["reduced"]["removals"] == [], (radicands, bits)
    assert cert["ascent"]["degree"] == len(radicands)


def _log(vector) -> str:
    r = F(1)
    for p, e in zip(PRIMES, vector):
        r *= F(p) ** e
    return f"log({r}; -1)"


@pytest.mark.parametrize("draw", range(10))
def test_a_planted_relation_among_logs_is_removed_from_64_bits(tmp_path, draw):
    # log(r; -1) = ln(r)/(i pi): the logs of rationals are Q-dependent exactly when
    # their prime-exponent vectors are, which no exact decomposition shows, so PSLQ finds it
    rng = random.Random(draw)
    count = rng.randint(1, 3)
    while True:
        bases = [tuple(rng.randint(-2, 2) for _ in PRIMES) for _ in range(count)]
        if sympy.Matrix(bases).rank() == count:
            break
    vectors, planted, target = list(bases), [], rng.randint(1, 2)
    while len(planted) < target:
        coefficients = [rng.randint(-2, 2) for _ in bases]
        vector = tuple(sum(c * b[i] for c, b in zip(coefficients, bases))
                       for i in range(len(PRIMES)))
        if any(vector) and vector not in vectors:  # a repeated log is one rung
            vectors.append(vector)
            planted.append(coefficients)
    bits = rng.choice((64, 100, 160))
    cert = _reduced_and_verified(tmp_path, [" + ".join(map(_log, vectors)),
                                            "--relation-bits", str(bits)])
    removals = cert["reduced"]["removals"]
    assert [rm["index"] for rm in removals] == list(range(count, len(vectors))), (vectors, bits)
    for rm, coefficients in zip(removals, planted):
        assert rm["relation"]["confidence"] == "heuristic"
        assert rm["constant"] == "0"
        assert rm["combo"] == [[j, str(c)] for j, c in enumerate(coefficients) if c]
    assert cert["ascent"]["degree"] == count
