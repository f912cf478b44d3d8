"""Ladders to exponential-logarithmic numbers: descent, reduction, ascent.

A ladder over base b is a finite sequence of rungs a_1..a_m where each a_k
is algebraic over the preceding field F_{k-1} = Q(a_1..a_k, b^{a_1}..b^{a_k})
or b^{a_k} is. Descent reads the rungs off an expression's exp/log DAG,
reduction removes rungs that are rational-affine combinations of earlier
ones, and ascent records which member of each pair {a_k, b^{a_k}} is the
new transcendental, conditional on the Schanuel conjecture.

Rational dependence is semi-decidable in general. Reduction writes each
rung exactly as q_0 + sum q_i * atom_i (`linear_decompose`); the rational
nullspace of those decompositions holds the exact relations. Where the atoms
are square roots of rationals with distinct squarefree kernels and principal
logarithms to base -1 of rationals with independent prime-exponent vectors,
{1} and the atoms are Q-independent (Besicovitch; unique factorization), so
the nullspace holds every relation and a trivial one proves independence.
Every other family falls back to PSLQ. Each relation is labeled exact or
heuristic. An exact one has no size limit; a heuristic one is re-verified by
enclosure at the precision it was found at, and its coefficients must stay
below `coefficient_bound`: there "no relation found" is never a proof of
independence.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

import mpmath
from mpmath import mp

from . import expr as E
from .errors import MaxPrecision, NotReduced, UnsupportedNode
from .expr import Context, Expr, fold, quad_flatten
from .interval import CInterval, refine
from .minpoly import Verdict, transcendence_rules

ELEMENT = "element-algebraic"
EXPONENTIAL = "exponential-algebraic"

DEFAULT_PRECISION_BITS = 160


class Rung(NamedTuple):
    value: Expr
    kind: str  # ELEMENT: a_k is algebraic over F_{k-1}; EXPONENTIAL: b^{a_k} is


class Relation(NamedTuple):
    """Integer vector (n_0..n_m) with n_0 + sum n_j * a_j = 0 (exactly or heuristically)."""

    coefficients: tuple[int, ...]
    confidence: str  # "exact" | "heuristic"
    precision_bits: Optional[int] = None


class Removal(NamedTuple):
    original_index: int
    relation: Relation
    constant: Fraction
    combo: tuple[tuple[int, Fraction], ...]  # (kept-rung index, q_j)
    identity_verified: bool


class Ladder(NamedTuple):
    base: Expr
    rungs: tuple[Rung, ...]
    removals: tuple[Removal, ...] = ()


class AscentReport(NamedTuple):
    """Per-rung new transcendental b_k, conditional on the Schanuel conjecture."""

    choices: tuple[Expr, ...]
    kinds: tuple[str, ...]
    degree: int
    conditional: bool
    notes: tuple[str, ...]
    crosschecks: tuple[Optional[Verdict], ...]


def descend(xi: Expr, ctx: Context) -> Ladder:
    """Build a ladder generating xi, rungs in dependency order.

    Natural-base exp/log nodes are not exponential-logarithmic over an
    algebraic base and are rejected (there is no ladder to pi).
    """
    normalized = ctx.rewrite_elprop(ctx.euler_expand(xi))
    rungs: list[Rung] = []
    registered: set[int] = set()
    for node in normalized.walk():
        if node.kind == E.EXP:
            if node.natural:
                raise UnsupportedNode("natural-base exponential has no ladder over an algebraic base")
            value = node.arg
            if id(value) not in registered:
                registered.add(id(value))
                rungs.append(Rung(value, ELEMENT))
        elif node.kind == E.LOG:
            if node.natural:
                raise UnsupportedNode("natural-base logarithm has no ladder over an algebraic base")
            if id(node) not in registered:
                registered.add(id(node))
                rungs.append(Rung(node, EXPONENTIAL))
    return Ladder(ctx.base, tuple(rungs))


# --- rational-affine decomposition -------------------------------------------

def linear_decompose(e: Expr) -> dict:
    """Write e as q_0 + sum q_i * atom_i exactly; atoms keyed by node, None = 1.

    Atoms are content-stripped cores: rational factors are pulled out of
    products and quotients, so 2*x, x*(-3) and -x/2 all share the atom x.
    """
    return dict(fold(e, "linear_decompose", _linear_node, _linear_operands))


def _linear_operands(e: Expr):
    """Both terms of a sum or difference, else the rational-free core if it is new."""
    if e.kind in (E.ADD, E.SUB):
        return e.children
    content, core = _content_core(e)
    return () if core is None or content == 0 or core is e else (core,)


def _linear_node(e: Expr, kids) -> dict:
    if e.kind in (E.ADD, E.SUB):
        left, right = kids
        sign = 1 if e.kind == E.ADD else -1
        out = dict(left)
        for key, coef in right.items():
            out[key] = out.get(key, Fraction(0)) + sign * coef
        return {k: v for k, v in out.items() if v != 0} or {None: Fraction(0)}
    content, core = _content_core(e)
    if core is None or content == 0:
        return {None: content}
    if kids:
        out = {k: v * content for k, v in kids[0].items() if v * content != 0}
        return out or {None: Fraction(0)}
    return {e: Fraction(1)}


def _content_core(e: Expr):
    """(q, core) with e = q * core exactly, core free of rational factors."""
    return fold(e, "content_core", _content_node,
                lambda n: n.children if n.kind in (E.MUL, E.DIV) else ())


def _content_node(e: Expr, kids):
    if e.kind not in (E.MUL, E.DIV):
        return (e.rat, None) if e.kind == E.RAT else (Fraction(1), e)
    (c1, k1), (c2, k2) = kids
    if e.kind == E.MUL:
        if k1 is None:
            return c1 * c2, k2
        if k2 is None:
            return c1 * c2, k1
        return c1 * c2, e.ctx.mul(k1, k2)
    if k2 is None:
        return c1 / c2, k1  # denominator is a nonzero rational by construction
    if k1 is None:
        return c1 / c2, e.ctx.div(e.ctx.rat(1), k2)
    return c1 / c2, e.ctx.div(k1, k2)


def _nullspace(columns: list[dict]) -> list[list[Fraction]]:
    """Rational nullspace basis of the matrix whose columns are decompositions."""
    keys: list = []
    seen = set()
    for col in columns:
        for k in col:
            if k not in seen:
                seen.add(k)
                keys.append(k)
    rows = [[col.get(k, Fraction(0)) for col in columns] for k in keys]
    n = len(columns)
    # Gaussian elimination to RREF
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


def _canonical_int_vector(vec: list[Fraction]) -> tuple[int, ...]:
    lcm = 1
    for v in vec:
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    neg = [-v for v in ints]
    return tuple(neg) if neg < ints else tuple(ints)


def detect_relation(values: list[Expr],
                    precision_bits: int = DEFAULT_PRECISION_BITS) -> Optional[Relation]:
    """Integer relation n_0 + sum n_j v_j = 0, or None.

    Exact relations come from rational-affine structure and are verified in
    rational arithmetic. When that structure has no relation and its atoms
    are proven independent (`atoms_independent`), None is a proof that no
    relation exists, and PSLQ does not run. Otherwise heuristic relations
    come from PSLQ within `coefficient_bound` and are verified by enclosure
    at the stated precision, and None is absence of evidence only.
    """
    columns = _columns(values)
    exact = _detect_exact(values, _nullspace(columns))
    if exact is not None or _independent(columns):
        return exact
    return _detect_pslq(values, precision_bits)


def coefficient_bound(precision_bits: int, count: int) -> int:
    """B = 2^floor((b - 32)/n): every coefficient of a heuristic relation among
    n = count numbers (1 included), found at b = precision_bits, is below B.

    Any n reals meet 2^-b with coefficients near 2^(b/(n-1)) (Dirichlet), so a
    relation within B holds 32 bits beyond what its size alone explains (D. H.
    Bailey, CiSE 2, 2000). At b <= 32, B is 1 and no relation is admissible.
    """
    return 1 << max(0, (precision_bits - 32) // count)


def _columns(values: list[Expr]) -> list[dict]:
    """The decompositions of 1 and of each value: the matrix `_nullspace` reads."""
    return [{None: Fraction(1)}] + [linear_decompose(v) for v in values]


def _detect_exact(values: list[Expr], basis: list[list[Fraction]]) -> Optional[Relation]:
    """The relation of the nullspace basis with the smallest coefficients, or None."""
    if not basis:
        return None
    best = min((_canonical_int_vector(vec) for vec in basis),
               key=lambda v: (max(abs(c) for c in v), v))
    assert _verify_exact(best, values)
    return Relation(best, "exact")


# --- exact independence ----------------------------------------------------------

def atoms_independent(values: list[Expr]) -> bool:
    """Whether {1} and the atoms of the values' decompositions are proven Q-independent.

    Then every rational relation among the values lies in the exact
    nullspace of their decompositions. False means "not proven" only.
    """
    return _independent(_columns(values))


def _independent(columns: list[dict]) -> bool:
    """The proof for atoms of two kinds, any other atom leaving it unproven.

    sqrt(r) = v*sqrt(d), r a positive rational and d its squarefree kernel,
    read from `quad_flatten`: square roots of distinct squarefree integers
    > 1 are Q-independent of each other and of 1 (A. S. Besicovitch,
    J. London Math. Soc. 15, 1940). log(r; -1) = ln(r)/(i*pi) for a positive
    rational r: a relation sum b_j ln(r_j) = 0 means prod r_j^b_j = 1, so by
    unique factorization these logs are independent when the prime-exponent
    vectors of the r_j are. The roots are real and the logs purely imaginary,
    so a relation among all of them splits into one among each kind.

    Both read `E.factor`: a kernel counts when it factors completely with every
    exponent 1, a log when r's numerator and denominator factor completely.
    """
    kernels: set = set()
    exponents: list[dict] = []
    for atom in {k for col in columns[1:] for k in col if k is not None}:
        generator = fold(atom, "independence generator", lambda n, _: _generator(n),
                         lambda n: ())
        if generator is None:
            return False
        if isinstance(generator, dict):  # a log's exponent vector
            exponents.append(generator)
        elif generator in kernels:       # a root's kernel, seen before
            return False
        else:
            kernels.add(generator)
    return not _nullspace(exponents)


def _generator(atom: Expr):
    """The squarefree kernel of a covered root, the exponent vector of a covered log, or None."""
    if atom.kind == E.SQRT:
        flat = quad_flatten(atom)  # (0, v, d) for a root of a rational that is not a square
        if flat is not None and flat[1] != 0 and flat[2] > 1:
            primes, rest = E.factor(int(flat[2]))
            if rest == 1 and all(e == 1 for e in primes.values()):
                return flat[2]
        return None
    if (atom.kind == E.LOG and not atom.natural and atom.branch == 0
            and atom.base.is_rat(-1) and atom.arg.kind == E.RAT and atom.arg.rat > 0):
        r = atom.arg.rat
        (num, num_rest), (den, den_rest) = E.factor(r.numerator), E.factor(r.denominator)
        if num_rest != 1 or den_rest != 1:
            return None
        return {**{p: Fraction(k) for p, k in num.items()},
                **{p: Fraction(-k) for p, k in den.items()}}
    return None


def _verify_exact(coeffs: tuple[int, ...], values: list[Expr]) -> bool:
    total: dict = {None: Fraction(coeffs[0])}
    for n, v in zip(coeffs[1:], values):
        for key, coef in linear_decompose(v).items():
            total[key] = total.get(key, Fraction(0)) + n * coef
    return all(v == 0 for v in total.values())


def _to_mpf(dy) -> mpmath.mpf:
    return mp.make_mpf(dy.to_mpf())


def _detect_pslq(values: list[Expr], precision_bits: int) -> Optional[Relation]:
    bound = coefficient_bound(precision_bits, len(values) + 1)
    if bound == 1:
        return None
    try:
        encs = _enclosures(values, precision_bits)
    except MaxPrecision:
        return None
    candidates = []
    with mp.workprec(precision_bits + 80):
        tol = mpmath.mpf(2) ** (-precision_bits)
        # one PSLQ pass over 1 and the real parts, one over the imaginary parts
        # alone (1 then has coefficient 0); a pass needs all entries nonzero, so
        # mixed real/imaginary collections only resolve via the exact path
        for ones, parts in ((1, [e.re.mid() for e in encs]), (0, [e.im.mid() for e in encs])):
            if ones + len(parts) < 2 or any(m.is_zero() for m in parts):
                continue
            try:
                got = mpmath.pslq([mpmath.mpf(1)] * ones + [_to_mpf(m) for m in parts],
                                  tol=tol, maxcoeff=bound, maxsteps=2000)
            except ValueError:
                continue
            if got:
                candidates.append((0,) * (1 - ones) + tuple(got))
    for cand in candidates:
        if _verify_heuristic(cand, encs, precision_bits):
            neg = tuple(-c for c in cand)
            return Relation(min(neg, cand), "heuristic", precision_bits)
    return None


def _enclosures(values: list[Expr], precision_bits: int) -> list[CInterval]:
    """The values to width 2^-(precision_bits + 48): what PSLQ reads and
    `_verify_heuristic` checks a relation on."""
    width = Fraction(1, 1 << (precision_bits + 48))
    return [refine(v.eval, width) for v in values]


def relation_holds(rel: Relation, values: list[Expr]) -> bool:
    """Re-check rel on the values it relates: an exact relation in rational
    arithmetic, a heuristic one by enclosure at its stated precision."""
    if rel.confidence == "exact":
        return _verify_exact(rel.coefficients, values)
    return _verify_heuristic(rel.coefficients, _enclosures(values, rel.precision_bits),
                             rel.precision_bits)


def _verify_heuristic(coeffs, encs: list[CInterval], precision_bits: int) -> bool:
    prec = precision_bits + 48
    total = CInterval.from_int(coeffs[0])
    for n, enc in zip(coeffs[1:], encs):
        total = total.add(enc.mul(CInterval.from_int(n), prec), prec)
    bound = Fraction(1, 1 << precision_bits)
    return (abs(total.re.mag().to_fraction()) < bound
            and abs(total.im.mag().to_fraction()) < bound)


# --- reduction -----------------------------------------------------------------

def reduce_ladder(ladder: Ladder, ctx: Context,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> Ladder:
    """Remove rungs that are rational-affine combinations of earlier kept rungs.

    Lowest index first; a rung goes only when `check_removal` accepts the
    relation found for it, and its removal stores that relation and the
    rational-affine combination derived from it.
    """
    kept: list[Rung] = []
    removals: list[Removal] = list(ladder.removals)
    for index, rung in enumerate(ladder.rungs):
        values = [r.value for r in kept]
        rel = detect_relation(values + [rung.value], precision_bits)
        if rel is not None and rel.coefficients[-1] != 0:
            constant, combo, problem = check_removal(rel, rung.value, values)
            if problem is None:
                removals.append(Removal(index, rel, constant, combo, True))
                continue
        kept.append(rung)
    return Ladder(ladder.base, tuple(kept), tuple(removals))


def check_removal(relation: Relation, a_k: Expr, kept: list[Expr]):
    """The removal of a_k given by the relation n_0 + sum_j n_j a_j + n_k a_k = 0.

    Its coefficients are (n_0, n_1..n_m, n_k) and kept[j - 1] is a_j. Returns
    (q, combo, problem): a_k = q + sum q_j a_j with combo the nonzero
    (j - 1, q_j), and problem None when the removal is valid, else what is
    wrong with the relation. It is valid when the relation holds as labelled
    (`relation_holds`). A heuristic one must also keep every coefficient below
    `coefficient_bound`, and among rungs whose atoms `atoms_independent`
    proves independent it must hold exactly, since no other relation exists
    there. Then b^{a_k} = b^q * prod (b^{a_j})^{q_j} (powers read as
    b^{q_j a_j}, principal values) follows from the relation, because
    b^z = exp(z Log b) is a homomorphism in z: no exponential is evaluated.
    `reduce_ladder` and `qx verify` both decide removals here.
    Raises ValueError when the relation does not give a_k over kept.
    """
    *ns, nk = relation.coefficients
    m = len(ns) - 1
    if nk == 0 or not 0 <= m <= len(kept):
        raise ValueError(f"relation {list(relation.coefficients)} does not give the removed "
                         f"rung in terms of {len(kept)} kept rungs")
    constant = Fraction(-ns[0], nk)
    combo = tuple((j, Fraction(-ns[j + 1], nk)) for j in range(m) if ns[j + 1])
    related = kept[:m] + [a_k]
    if relation.confidence == "heuristic":
        bits, n = relation.precision_bits, len(relation.coefficients)
        bound = coefficient_bound(bits, n)
        if max(map(abs, relation.coefficients)) >= bound:
            return constant, combo, (f"is labelled heuristic, but a coefficient is not below "
                                     f"{bound}: among {n} numbers at {bits} bits its size "
                                     f"alone explains it")
        if atoms_independent(related) and not _verify_exact(relation.coefficients, related):
            return constant, combo, ("is labelled heuristic, but the atoms of the rungs it "
                                     "relates are independent and it does not hold exactly")
    if not relation_holds(relation, related):
        return constant, combo, (f"is labelled {relation.confidence} but does not hold " +
                                 ("exactly" if relation.confidence == "exact"
                                  else f"to 2^-{relation.precision_bits}"))
    return constant, combo, None


# --- ascent ----------------------------------------------------------------------

def ascend(ladder: Ladder, ctx: Context) -> AscentReport:
    """Schanuel-conditional bookkeeping: exactly one new transcendental per rung.

    ELEMENT rungs (a_k algebraic over F_{k-1}) contribute b^{a_k}; EXPONENTIAL
    rungs contribute a_k itself. The report is always conditional; per-rung
    unconditional verdicts from the rule base are attached as cross-checks.
    """
    values = [r.value for r in ladder.rungs]
    stored = _detect_exact(values, _nullspace(_columns(values)))
    if stored is not None:
        raise NotReduced(f"rational relation {stored.coefficients} persists among rungs")
    choices = []
    kinds = []
    crosschecks = []
    for rung in ladder.rungs:
        if rung.kind == ELEMENT:
            chosen = ctx.exp(ladder.base, rung.value)
        else:
            chosen = rung.value
        choices.append(chosen)
        kinds.append(rung.kind)
        verdict = transcendence_rules(chosen)
        crosschecks.append(verdict if verdict.status == "transcendental" else None)
    notes = ["conditional on the Schanuel conjecture",
             "ln(base) is not in the algebraic closure of F_m"]
    if not ladder.rungs and ladder.base.is_rat(-1):
        notes.append("empty ladder: ln(-1) = i*pi is not algebraic, unconditionally (Lindemann)")
    return AscentReport(tuple(choices), tuple(kinds), len(ladder.rungs), True,
                        tuple(notes), tuple(crosschecks))
