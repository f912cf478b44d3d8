"""Exact expression DAG over Q closed under field ops, roots, b^x and log_b.

Nodes are hash-consed per Context (structurally identical subterms are the
same object) and constants fold on rational leaves; building a node computes
nothing else. `tower` is the syntactic tower tag, one fold like every other
structural pass: an upper bound on the level at which the expression's own
syntax witnesses membership in the S / A / SA towers (anglesector closures)
and the exponential-logarithmic tower over an algebraic base. A level of None
means "this syntax does not witness membership at all".

Values are never trusted as floats: every node evaluates to a certified
complex enclosure at a requested working precision. Zero is never decided
numerically: `decide_sign` and `separates` are exact in one quadratic field
and otherwise raise the precision through `interval.escalate`, retrying a
DomainStraddle, up to 1024 bits, past which they answer "undecided". Every
domain precondition takes its enclosures from `escalate` too.
"""
from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from mpmath.libmp import fnone, fone, from_man_exp, mpf_add, mpf_le, mpf_lt, mpf_shift, mpf_sub

from .errors import DivisionByZero, InvalidBase, MaxPrecision, NonRealArgument, OutOfDomain
from .interval import (CInterval, RInterval, arcsin_over_pi_complex, cos_sin_pi, escalate,
                       refine, sin_pi_complex)

RAT = "rat"
ADD = "add"
SUB = "sub"
MUL = "mul"
DIV = "div"
SQRT = "sqrt"
POLYROOT = "polyroot"
EXP = "exp"
LOG = "log"
SINPI = "sin_pi"
ARCSINPI = "arcsin_over_pi"

FIELD_OPS = (ADD, SUB, MUL, DIV)

# sin(pi*r) for rational r is rational exactly on this table (Olmsted)
_SIN_TABLE = {
    Fraction(0): Fraction(0),
    Fraction(1): Fraction(0),
    Fraction(1, 2): Fraction(1),
    Fraction(3, 2): Fraction(-1),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(5, 6): Fraction(1, 2),
    Fraction(7, 6): Fraction(-1, 2),
    Fraction(11, 6): Fraction(-1, 2),
}

_ARCSIN_TABLE = {
    Fraction(0): Fraction(0),
    Fraction(1, 2): Fraction(1, 6),
    Fraction(-1, 2): Fraction(-1, 6),
    Fraction(1): Fraction(1, 2),
    Fraction(-1): Fraction(-1, 2),
}

# arcsin(x)/pi for quadratic-field x with x^2 in this table (quarter/third angles)
_ARCSIN_SQUARED = {
    Fraction(1, 2): Fraction(1, 4),
    Fraction(3, 4): Fraction(1, 3),
}


def _top_max(*levels: Optional[int]) -> Optional[int]:
    out = 0
    for lv in levels:
        if lv is None:
            return None
        out = max(out, lv)
    return out


def _plus1(level: Optional[int]) -> Optional[int]:
    return None if level is None else level + 1


class TowerTag(NamedTuple):
    """Syntactic level upper bounds; None marks 'not representable by this syntax'."""

    s: Optional[int]
    a: Optional[int]
    sa: Optional[int]
    el: Optional[int]


def tower(e: Expr) -> TowerTag:
    """The syntactic tower tag of e, one memoized fold: each level one more than its
    operands' where the operation climbs that tower, None (top) where it leaves it."""
    return fold(e, "tower", _tower_node)


def _tower_node(e: Expr, tags) -> TowerTag:
    k = e.kind
    if k == RAT:
        return TowerTag(0, 0, 0, 0)
    if k in FIELD_OPS:
        return TowerTag(*map(_top_max, *tags))
    if k == SQRT:
        t = tags[0]
        bump = _plus1 if sign(e.children[0]) == 1 else (lambda _lv: None)
        return TowerTag(bump(t.s), bump(t.a), bump(t.sa), _top_max(1, t.el))
    if k == POLYROOT:
        return TowerTag(None, None, None, _top_max(1, *(t.el for t in tags)))
    if k == SINPI:
        t = tags[0]
        return TowerTag(_plus1(t.s), None, _plus1(t.sa), _plus1(t.el))
    if k == ARCSINPI:
        t = tags[0]
        return TowerTag(None, _plus1(t.a), _plus1(t.sa), _plus1(_top_max(1, t.el)))
    if e.natural:  # exp or ln: no syntactic witness over an algebraic base
        return TowerTag(None, None, None, None)
    base_t, arg_t = tags
    if k == EXP:
        base = e.children[0]
        euler = base.is_rat(-1)
        if base is e.ctx.base:
            el = _plus1(arg_t.el)
        else:
            el = _plus1(_top_max(arg_t.el, _plus1(base_t.el)))
        return TowerTag(_plus1(arg_t.s) if euler else None, None,
                        _plus1(arg_t.sa) if euler else None, el)
    if k == LOG:
        return TowerTag(None, None, None, _plus1(_top_max(arg_t.el, base_t.el)))
    raise AssertionError(k)


class Expr:
    """Immutable DAG node; build only through a Context."""

    __slots__ = ("kind", "rat", "children", "natural", "branch", "selector", "ctx")

    def __init__(self, ctx, kind, rat=None, children=(), natural=False, branch=0, selector=None):
        self.ctx = ctx
        self.kind = kind
        self.rat = rat
        self.children = children
        self.natural = natural
        self.branch = branch
        self.selector = selector

    # exp/log accessors: children = (base, arg) or (arg,) for the natural base
    @property
    def base(self) -> Optional["Expr"]:
        if self.kind in (EXP, LOG) and not self.natural:
            return self.children[0]
        return None

    @property
    def arg(self) -> "Expr":
        return self.children[-1]

    def is_rat(self, value=None) -> bool:
        if self.kind != RAT:
            return False
        return value is None or self.rat == value

    # --- evaluation ---

    def eval(self, prec: int) -> CInterval:
        return fold(self, ("eval", prec), lambda n, kids: n._compute(prec, kids))

    def _compute(self, prec: int, kids) -> CInterval:
        k = self.kind
        if k == RAT:
            return CInterval.from_fraction(self.rat, prec)
        if k in FIELD_OPS:
            x, y = kids
            if k == ADD:
                return x.add(y, prec)
            if k == SUB:
                return x.sub(y, prec)
            if k == MUL:
                return x.mul(y, prec)
            return x.div(y, prec)
        if k == SQRT:
            return kids[0].sqrt(prec)
        if k == EXP:
            z = kids[-1]
            if self.natural:
                return z.exp(prec)
            return z.mul(self._base_log(prec, kids[0]), prec).exp(prec)
        if k == LOG:
            val = kids[-1].log(self.branch, prec)
            if self.natural:
                return val
            return val.div(self._base_log(prec, kids[0]), prec)
        if k == SINPI:
            return self._sin_pi(prec, kids[0])
        if k == ARCSINPI:
            return arcsin_over_pi_complex(kids[0], prec)
        if k == POLYROOT:
            return self._refine_root(prec, [c.re for c in kids])
        raise AssertionError(f"unhandled kind {k}")

    def _base_log(self, prec: int, base: CInterval) -> CInterval:
        """The principal log of this node's base enclosure, once per base node and precision."""
        return fold(self.children[0], ("base log", prec), lambda n, _: base.log(0, prec),
                    lambda n: ())

    def _sin_pi(self, prec: int, x: CInterval) -> CInterval:
        """sin(pi*x) for x's enclosure; a rational x reads it from its angle's
        (cos, sin) pair (`_angle`), made once per angle and precision."""
        if not self.children[0].is_rat():
            return sin_pi_complex(x, prec)
        angle, use_cos, negate = _angle(self.children[0])
        cos, sin = fold(angle, ("cos_sin", prec),
                        lambda n, _: cos_sin_pi(RInterval.from_fraction(n.rat, prec), prec),
                        lambda n: ())
        value = cos if use_cos else sin
        return CInterval.real(value.neg() if negate else value)

    def _refine_root(self, prec: int, coeffs) -> CInterval:
        """A bracket of width at most 2^-prec inside the selector around the root.

        Rational coefficients take Newton's method in integers (`_integer_root`).
        Any other polynomial, and a bracket that method cannot certify, take a
        safeguarded interval Newton from the selector down to width 2^-prec.

        Every root in X of every polynomial with coefficients in the
        enclosures lies in m - F(m)/F'(X) (mean value theorem), so X meets
        that set and stays an enclosure. About a root under 2^E (E >= 0), a
        step from a width under 2^-b at most doubles the b + E correct bits,
        so it runs at min(prec, 2(b + E) + 32) bits, and at least 64;
        rounding outward at fewer bits only loosens it. A
        step that does not halve the width is retried once at prec, then
        replaced by a certified-sign bisection step; the isolation check
        makes F monotone on the selector, so the sign at its low end tells on
        which side of any point the root lies. Every sign is taken at prec,
        and the coefficient enclosures at prec + s bits, 2^-s (s >= 0) a
        bound on every |c_k|: as narrow next to the coefficients as those of
        a coefficient of 1 or more are at prec.
        """
        if all(c.kind == RAT for c in self.children):
            x = _integer_root([c.rat for c in self.children], self.selector.re, prec)
            if x is not None:
                return CInterval.real(x)
        s = -max((e[2] + e[3] for c in coeffs for e in (c.lo_mpf, c.hi_mpf) if e[1]), default=0)
        if s > 0:
            coeffs = [c.eval(prec + s).re for c in self.children]
        x = self.selector.re
        sign_lo = _point_sign(coeffs, x.lo_mpf, prec)
        if sign_lo is None:
            # endpoint sign not certifiable at this precision: the full
            # selector is the only sound enclosure
            return CInterval.real(x)
        deriv = _derivative(coeffs, prec)
        target = from_man_exp(1, -prec)
        for _ in range(prec + 64):
            lo, hi = x.lo_mpf, x.hi_mpf
            width = mpf_sub(hi, lo)  # widths and midpoints are exact
            if mpf_le(width, target):
                break
            m = mpf_shift(mpf_add(lo, hi), -1)
            # width < 2^-b and |m| < 2^E, E >= 0: 2(b + E) + 32 bits
            wp = min(prec, max(64, 32 + 2 * (max(0, m[2] + m[3]) - width[2] - width[3])))
            narrowed = _newton_step(coeffs, deriv, x, m, wp)
            if narrowed is None and wp < prec:
                narrowed = _newton_step(coeffs, deriv, x, m, prec)
            if narrowed is not None:
                x = narrowed
                continue
            s = _point_sign(coeffs, m, prec)
            if s is None:
                # nudge off a possible root hit: try the 1/4 point
                m = mpf_shift(mpf_add(lo, m), -1)
                s = _point_sign(coeffs, m, prec)
                if s is None:
                    break
            x = RInterval.from_mpi((m, hi) if s == sign_lo else (lo, m))
        return CInterval.real(x)

    def enclosure(self, width: Fraction) -> CInterval:
        return refine(self.eval, width)

    # --- traversal and display ---

    def walk(self) -> Iterator["Expr"]:
        """Post-order over unique nodes."""
        return post_order((self,))

    def __repr__(self):
        return f"<Expr {short_text(self)}>"


def post_order(roots) -> Iterator[Expr]:
    """Each unique node below roots once, children first, the roots in the order given."""
    seen = set()
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                yield node
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))


def _angle(x: Expr) -> tuple[Expr, bool, bool]:
    """sin(pi*x) for a rational x as (angle, use_cos, negate): +-cos or +-sin
    of pi times a rational angle in [0, 1/4].

    x is reduced exactly, mod 2 and by the quarter-turn symmetries, so the
    coordinates sin_pi((1 - t)/2) and sin_pi(t/2) of a point `ra` makes from
    a rational t share one angle. The angle's node, which no DAG holds, is
    only a memo key: its enclosure is made from its value directly.
    """
    q = x.rat.denominator
    n = x.rat.numerator % (2 * q)  # x mod 2 is n/q
    negate = n >= q
    n = n - q if negate else n
    n = min(n, q - n)  # sin(pi*r) = sin(pi*(1 - r))
    if 4 * n > q:
        return x.ctx.rat(Fraction(q - 2 * n, 2 * q)), True, negate
    return x.ctx.rat(Fraction(n, q)), False, negate


_ROOT_START = 64   # fixed-point bits of the first Newton steps on a rational polynomial
_ROOT_STEPS = 256  # Newton steps before `_integer_root` gives up


def _integer_root(coeffs: list[Fraction], sel: RInterval, prec: int) -> Optional[RInterval]:
    """A bracket of width under 2^-prec inside the selector around the root of
    the rational polynomial, by Newton's method in integers; None if it fails.

    With its denominators cleared the polynomial P has integer coefficients,
    and x = X / 2^k is a number at scale k. Newton steps run from the
    selector's midpoint at _ROOT_START bits (more for a narrow selector) until
    one moves X by at most a unit, then once at each scale 2k - 32, and at
    the final scale prec + 8 until a bracket is certified. A step is exact
    but for its last floor, so near the root each squares the error, times
    |P''/2P'|. Nothing of this is trusted: the bracket [X - 4, X + 4] / 2^k is
    returned only if it lies in the selector and P has opposite exact signs
    at its ends. The selector isolates one root, so it lies between them.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    p = [c.numerator * (den // c.denominator) for c in coeffs]
    dp = [i * c for i, c in enumerate(p) if i]
    lo, hi = sel.lo_mpf, sel.hi_mpf
    width = mpf_sub(hi, lo)
    start = k = max(_ROOT_START, 32 - width[2] - width[3])
    final = max(prec + 8, k)
    low, high = _fixed(lo, k, up=True), _fixed(hi, k, up=False)
    x = (low + high) >> 1
    for _ in range(_ROOT_STEPS):
        slope = _scaled_value(dp, x, k)
        if not slope:
            return None
        step = _scaled_value(p, x, k) // slope
        x -= step
        if not low <= x <= high:
            return None
        if k == final:
            a, b = x - 4, x + 4
            if low <= a and b <= high and _scaled_value(p, a, k) * _scaled_value(p, b, k) < 0:
                return RInterval.from_mpi((from_man_exp(a, -k), from_man_exp(b, -k)))
            if -1 <= step <= 1:
                return None  # converged, and still no bracket
        elif k > start or -1 <= step <= 1:
            scale = min(final, 2 * k - 32)
            x, k = x << (scale - k), scale
            low, high = _fixed(lo, k, up=True), _fixed(hi, k, up=False)
    return None


def _fixed(t, k: int, up: bool) -> int:
    """Floor (ceil if up) of the mpf t times 2^k."""
    sign, man, exp, _ = t
    n, e = (-man if sign else man), exp + k
    if e >= 0:
        return n << e
    return -((-n) >> -e) if up else n >> -e


def _scaled_value(p: list[int], x: int, k: int) -> int:
    """P(x / 2^k) * 2^(k*n) for the integer polynomial P = p of degree n, exactly."""
    v, shift = 0, 0
    for c in reversed(p):
        v = v * x + (c << shift)
        shift += k
    return v


def _horner(coeffs, x: RInterval, prec: int) -> RInterval:
    """Enclosure of c0 + c1*x + ... + cn*x^n over the coefficient enclosures."""
    v = RInterval.zero()
    for c in reversed(coeffs):
        v = v.mul(x, prec).add(c, prec)
    return v


def _newton_step(coeffs, deriv, x: RInterval, m, wp: int) -> Optional[RInterval]:
    """X meet m - F(m)/F'(X), computed at wp bits, if it halves X's width; else None."""
    slope = _horner(deriv, x, wp)
    if slope.contains_zero():
        return None
    pm = RInterval.from_mpi((m, m))
    step = pm.sub(_horner(coeffs, pm, wp).div(slope, wp), wp)
    if not x.intersects(step):
        return None
    narrowed = x.intersect(step)
    half = mpf_shift(mpf_sub(x.hi_mpf, x.lo_mpf), -1)
    return narrowed if mpf_le(mpf_sub(narrowed.hi_mpf, narrowed.lo_mpf), half) else None


def _derivative(coeffs, prec: int) -> list[RInterval]:
    """Coefficient enclosures k*c_k of the derivative."""
    return [c.mul(RInterval.from_int(k), prec) for k, c in enumerate(coeffs) if k]


def _point_sign(coeffs, t, prec: int) -> Optional[int]:
    """Sign of the polynomial with these coefficient enclosures at the mpf t, if certified."""
    return _interval_sign(_horner(coeffs, RInterval.from_mpi((t, t)), prec))


def _rational_poly_at(coeffs: list[Fraction], x: Fraction) -> Fraction:
    v = Fraction(0)
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _interval_sign(v: RInterval) -> Optional[int]:
    if v.strictly_positive():
        return 1
    if v.strictly_negative():
        return -1
    return None


def fold(root: Expr, key, combine, select=None):
    """Memoized post-order fold below root: the one traversal every structural pass uses.

    combine(node, kids) gets the results for select(node) (default: the
    children), in order. The memo lives in the Context, keyed by `key` and
    node; nodes are immutable, interned and kept alive by the context's table.
    An explicit stack never descends below a memoized node, so each unique
    node is combined at most once, at any depth.
    """
    memo = root.ctx._memos[key]
    if root in memo:
        return memo[root]
    stack = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if node in memo:
            continue
        if kids is None:
            kids = node.children if select is None else select(node)
            stack.append((node, kids))
            stack.extend((c, None) for c in reversed(kids) if c not in memo)
        else:
            memo[node] = combine(node, [memo[c] for c in kids])
    return memo[root]


_SYMBOLS = {ADD: "+", SUB: "-", MUL: "*", DIV: "/"}
_REPR_CHARS = 160  # text characters in a repr, which adds at most 12 more


def to_text(e: Expr) -> str:
    """Deterministic canonical text; reparses to the identical DAG."""
    return fold(e, "to_text", _text_node)


def _text_node(e: Expr, kids) -> str:
    k = e.kind
    if k == RAT:
        return str(e.rat)  # "p" or "p/q"
    if k in FIELD_OPS:
        return f"({kids[0]} {_SYMBOLS[k]} {kids[1]})"
    if k == SQRT:
        return f"sqrt({kids[0]})"
    if k == EXP:
        if e.natural:
            return f"exp({kids[0]})"
        return f"pow({kids[0]}, {kids[1]})"
    if k == LOG:
        if e.natural:
            return f"ln({kids[0]}; {e.branch})"
        return f"log({kids[1]}; {kids[0]}; {e.branch})"
    if k in (SINPI, ARCSINPI):
        return f"{k}({kids[0]})"
    if k == POLYROOT:
        return f"polyroot({', '.join(kids)}; {', '.join(_selector_decimals(e))})"
    raise AssertionError(k)


def short_text(e: Expr) -> str:
    """The text of e cut after _REPR_CHARS characters, for reprs and error messages.

    The `to_text` fold with every node's text cut after _REPR_CHARS + 1
    characters: a prefix of each child's text fixes the same prefix of its
    parent's, so the cut is exact, and it is bounded where the full text is
    exponential in the depth of sharing.
    """
    text = fold(e, "short_text", lambda n, kids: _text_node(n, kids)[:_REPR_CHARS + 1])
    return text if len(text) <= _REPR_CHARS else text[:_REPR_CHARS] + "..."


def _selector_decimals(e: Expr) -> list[str]:
    """The four exact endpoints of a polyroot's selector, re then im, low then high."""
    sel = e.selector
    return [d.decimal() for d in (sel.re.lo, sel.re.hi, sel.im.lo, sel.im.hi)]


def to_table(roots) -> tuple[list, list[int]]:
    """The node table of the DAGs below roots, and the row of each root.

    Each unique node is one row, in post-order over the roots in the order
    given, so a row's children are earlier rows. A rational is its string,
    "p/q" or "p"; any other node is [kind, extras..., child rows...], where the
    extras are `natural` for exp, `natural` and `branch` for log, and the
    selector's four exact endpoints for polyroot. Its size is linear in the
    number of nodes, where `to_text` can be exponential in the depth of sharing.
    """
    index: dict = {}
    rows: list = []
    for node in post_order(roots):
        index[node] = len(rows)
        rows.append(_table_row(node, [index[c] for c in node.children]))
    return rows, [index[r] for r in roots]


def _table_row(e: Expr, kids: list[int]):
    k = e.kind
    if k == RAT:
        return str(e.rat)
    if k == EXP:
        return [k, e.natural, *kids]
    if k == LOG:
        return [k, e.natural, e.branch, *kids]
    if k == POLYROOT:
        return [k, _selector_decimals(e), *kids]
    return [k, *kids]


class Context:
    """One expression-building session: hash-consing table plus the session base.

    Mutable state: the dedup table and the memo of every `fold` over its
    nodes (enclosures per precision, texts, tower tags, verdicts, rewrites),
    kept for the context's life. Exprs never change but reach that state
    through `ctx`, so a Context and its expressions belong to one thread.
    """

    def __init__(self, base: Fraction | int = Fraction(-1)):
        self._table: dict = {}
        self._memos = defaultdict(dict)  # fold key -> {node: result}
        self.base = self.rat(base)
        if self.base.rat in (0, 1):
            raise InvalidBase("session base must differ from 0 and 1")

    # --- interning ---

    def _intern(self, kind, children=(), natural=False, branch=0, selector=None) -> Expr:
        """The one node of a non-rational kind over these children; `rat` interns rationals."""
        key = (kind, tuple(map(id, children)), natural, branch, selector)
        node = self._table.get(key)
        if node is None:
            node = Expr(self, kind, None, tuple(children), natural, branch, selector)
            self._table[key] = node
        return node

    # --- constructors ---

    def rat(self, value) -> Expr:
        """The one rational node of this value, keyed by its numerator and denominator.

        An int or a Fraction needs no new Fraction on a hit; any other value
        (a float, a string) goes through Fraction first.
        """
        if type(value) is not int and type(value) is not Fraction:
            value = Fraction(value)
        key = (RAT, value.numerator, value.denominator)
        node = self._table.get(key)
        if node is None:
            rat = value if type(value) is Fraction else Fraction(value)
            node = Expr(self, RAT, rat)
            self._table[key] = node
        return node

    def _field(self, kind, x: Expr, y: Expr) -> Expr:
        if x.kind == RAT and y.kind == RAT:
            if kind == ADD:
                return self.rat(x.rat + y.rat)
            if kind == SUB:
                return self.rat(x.rat - y.rat)
            if kind == MUL:
                return self.rat(x.rat * y.rat)
            if y.rat == 0:
                raise DivisionByZero("division by the constant 0")
            return self.rat(x.rat / y.rat)
        if kind == DIV and y.is_rat(0):
            raise DivisionByZero("division by the constant 0")
        # identity and absorbing folds (enclosures are finite, so 0*x = 0)
        if kind == ADD:
            if x.is_rat(0):
                return y
            if y.is_rat(0):
                return x
        elif kind == SUB:
            if y.is_rat(0):
                return x
            if x is y:
                return self.rat(0)
        elif kind == MUL:
            if x.is_rat(0) or y.is_rat(0):
                return self.rat(0)
            if x.is_rat(1):
                return y
            if y.is_rat(1):
                return x
        elif kind == DIV:
            if y.is_rat(1):
                return x
            if x is y and separates(x, 0):
                return self.rat(1)
        return self._intern(kind, children=(x, y))

    def add(self, x, y) -> Expr:
        return self._field(ADD, self._coerce(x), self._coerce(y))

    def sub(self, x, y) -> Expr:
        return self._field(SUB, self._coerce(x), self._coerce(y))

    def mul(self, x, y) -> Expr:
        return self._field(MUL, self._coerce(x), self._coerce(y))

    def div(self, x, y) -> Expr:
        return self._field(DIV, self._coerce(x), self._coerce(y))

    def _coerce(self, x) -> Expr:
        if isinstance(x, Expr):
            if x.ctx is not self:
                raise ValueError("expression belongs to a different context")
            return x
        return self.rat(x)

    def sqrt(self, x) -> Expr:
        x = self._coerce(x)
        if x.kind == RAT and x.rat >= 0:
            num, den = x.rat.numerator, x.rat.denominator
            rn, rd = math.isqrt(num), math.isqrt(den)
            if rn * rn == num and rd * rd == den:
                return self.rat(Fraction(rn, rd))
        return self._intern(SQRT, children=(x,))

    def polyroot(self, coeffs, selector: CInterval) -> Expr:
        coeffs = tuple(self._coerce(c) for c in coeffs)
        if len(coeffs) < 2 or coeffs[-1].is_rat(0):
            raise OutOfDomain("polyroot needs degree >= 1 with nonzero leading coefficient")
        for c in coeffs:
            self._require_real(c, "polyroot")
        node = self._intern(POLYROOT, children=coeffs, selector=selector)
        _check_isolation(node)
        return node

    def exp(self, base: Optional[Expr], exponent) -> Expr:
        exponent = self._coerce(exponent)
        if base is None:
            if exponent.is_rat(0):
                return self.rat(1)
            return self._intern(EXP, children=(exponent,), natural=True)
        base = self._coerce(base)
        if base.kind == RAT and base.rat in (0, 1):
            raise InvalidBase(f"exponential base {base.rat} is forbidden")
        if exponent.is_rat(0):
            return self.rat(1)
        if exponent.is_rat(1):
            return base
        return self._intern(EXP, children=(base, exponent))

    def log(self, base: Optional[Expr], arg, branch: int = 0) -> Expr:
        arg = self._coerce(arg)
        if arg.is_rat(0):
            raise OutOfDomain("log of the constant 0")
        if base is None:
            if arg.is_rat(1) and branch == 0:
                return self.rat(0)
            return self._intern(LOG, children=(arg,), natural=True, branch=branch)
        base = self._coerce(base)
        if base.kind == RAT and base.rat in (0, 1):
            raise InvalidBase(f"logarithm base {base.rat} is forbidden")
        if arg.is_rat(1) and branch == 0:
            return self.rat(0)
        return self._intern(LOG, children=(base, arg), branch=branch)

    def ln(self, arg, branch: int = 0) -> Expr:
        return self.log(None, arg, branch)

    def sin_pi(self, x) -> Expr:
        x = self._coerce(x)
        self._require_near_real(x, "sin_pi")
        if x.kind == RAT:
            folded = _SIN_TABLE.get(x.rat % 2)
            if folded is not None:
                return self.rat(folded)
        return self._intern(SINPI, children=(x,))

    def arcsin_over_pi(self, x) -> Expr:
        x = self._coerce(x)
        self._require_real(x, "arcsin_over_pi")
        if x.kind == RAT:
            folded = _ARCSIN_TABLE.get(x.rat)
            if folded is not None:
                return self.rat(folded)
            if abs(x.rat) > 1:
                raise OutOfDomain(f"arcsin argument {x.rat} outside [-1, 1]")
        flat = quad_flatten(x)
        if flat is not None:
            u, v, d = flat
            if v != 0 and u == 0:
                folded = _ARCSIN_SQUARED.get(v * v * d)
                if folded is not None:
                    return self.rat(folded if v > 0 else -folded)
        self._require_unit_domain(x)
        return self._intern(ARCSINPI, children=(x,))

    # --- canonical constants ---

    def i(self) -> Expr:
        return self.sqrt(self.rat(-1))

    def pi(self) -> Expr:
        """pi = (-1) * i * ln(-1); transcendence rules recognize this DAG."""
        return self.mul(self.mul(self.rat(-1), self.i()), self.ln(self.rat(-1)))

    def e(self) -> Expr:
        return self._intern(EXP, children=(self.rat(1),), natural=True)

    # --- checked preconditions ---

    def _require_real(self, x: Expr, op: str):
        if not self._require_near_real(x, op).is_real():
            # proving a value built through complex subterms real waits on an exact test
            raise NonRealArgument(f"{op} requires a real argument; {short_text(x)} "
                                  f"is not proven real")

    def _require_near_real(self, x: Expr, op: str) -> CInterval:
        # real values built through complex subterms keep a sliver of
        # imaginary rounding slack; only a provably nonreal argument is rejected
        enc = escalate(x.eval, lambda enc: enc, f"the argument of {op}")
        if not enc.im.contains_zero():
            raise NonRealArgument(f"{op} requires a real argument, got {short_text(x)}")
        return enc

    def _require_unit_domain(self, x: Expr):
        def inside(enc: CInterval) -> Optional[bool]:
            lo, hi = enc.re.lo_mpf, enc.re.hi_mpf
            if mpf_lt(fone, lo) or mpf_lt(hi, fnone):
                return False
            return True if mpf_le(fnone, lo) and mpf_le(hi, fone) else None
        if not escalate(x.eval, inside, "arcsin argument inside [-1, 1]"):
            raise OutOfDomain("arcsin argument provably outside [-1, 1]")

    # --- derived forms ---

    def cos_pi(self, x) -> Expr:
        """cos(pi*x) = sin(pi*(1/2 - x))."""
        return self.sin_pi(self.sub(self.rat(Fraction(1, 2)), self._coerce(x)))

    def euler_split(self, x) -> "EulerForm":
        x = self._coerce(x)
        self._require_real(x, "euler_split")
        return EulerForm(self.cos_pi(x), self.sin_pi(x))

    def euler_expand(self, e: Expr) -> Expr:
        """Rewrite sin_pi/arcsin_over_pi into their base -1 exp/log definitions."""
        return fold(e, "euler_expand", self._euler_node)

    def _euler_node(self, n: Expr, kids) -> Expr:
        m1 = self.rat(-1)
        if n.kind == SINPI:
            x = kids[0]
            num = self.sub(self.exp(m1, x), self.exp(m1, self.mul(self.rat(-1), x)))
            return self.div(num, self.mul(self.rat(2), self.i()))
        if n.kind == ARCSINPI:
            x = kids[0]
            z = self.add(self.mul(self.i(), x),
                         self.sqrt(self.sub(self.rat(1), self.mul(x, x))))
            return self.log(m1, z, 0)
        return self._rebuild(n, kids)

    def rewrite_elprop(self, e: Expr) -> Expr:
        """Normalize every exp/log node to the session base via change of base.

        x^y -> b^(y*log_b x) and log_x y -> log_b y / log_b x; natural-base
        nodes have no algebraic-base normal form and pass through unchanged.
        """
        return fold(e, "rewrite_elprop", self._elprop_node)

    def _elprop_node(self, n: Expr, kids) -> Expr:
        out = self._rebuild(n, kids)
        if out.kind == EXP and not out.natural and out.base is not self.base:
            return self.exp(self.base, self.mul(out.arg, self.log(self.base, out.base, 0)))
        if out.kind == LOG and not out.natural and out.base is not self.base:
            return self.div(self.log(self.base, out.arg, out.branch),
                            self.log(self.base, out.base, 0))
        return out

    def _rebuild(self, n: Expr, kids) -> Expr:
        k = n.kind
        if k == RAT:
            return n
        if k in FIELD_OPS:
            return self._field(k, kids[0], kids[1])
        if k == SQRT:
            return self.sqrt(kids[0])
        if k == EXP:
            return self.exp(None if n.natural else kids[0], kids[-1])
        if k == LOG:
            return self.log(None if n.natural else kids[0], kids[-1], n.branch)
        if k == SINPI:
            return self.sin_pi(kids[0])
        if k == ARCSINPI:
            return self.arcsin_over_pi(kids[0])
        if k == POLYROOT:
            if all(a is b for a, b in zip(kids, n.children)):
                return n
            return self.polyroot(kids, n.selector)
        raise AssertionError(k)


class EulerForm(NamedTuple):
    """cos/sin split of (-1)^x; cos_part^2 + sin_part^2 encloses 1."""

    cos_part: Expr
    sin_part: Expr


def _check_isolation(node: Expr):
    """Selector must bracket a sign change and the derivative must not vanish on it."""
    sel = node.selector
    if not sel.im.is_zero_point():
        raise OutOfDomain("only real root selectors are supported")
    if all(c.kind == RAT for c in node.children):
        # exact: a rational polynomial at a dyadic endpoint
        coeffs = [c.rat for c in node.children]
        if any(_rational_poly_at(coeffs, end.to_fraction()) == 0 for end in (sel.re.lo, sel.re.hi)):
            raise OutOfDomain("selector endpoint is a root")

    def endpoint_signs(prec: int):
        coeffs = [c.eval(prec).re for c in node.children]
        return (_point_sign(coeffs, sel.re.lo_mpf, prec), _point_sign(coeffs, sel.re.hi_mpf, prec),
                _horner(_derivative(coeffs, prec), sel.re, prec).contains_zero())
    lo_sign, hi_sign, may_vanish = escalate(
        endpoint_signs, lambda signs: None if None in signs[:2] else signs,
        "a sign change bracketed by the polyroot selector", start=96)
    if lo_sign == hi_sign:
        raise OutOfDomain("selector endpoints do not bracket a single sign change")
    if may_vanish:
        raise OutOfDomain("derivative may vanish on the selector; root not isolated")


# --- quadratic-field flattening ----------------------------------------------

_TRIAL_BOUND = 1 << 16  # largest trial divisor of any factorization, most pairs a root scan tries


def factor(n: int) -> tuple[dict, int]:
    """n >= 1 as ({p: e}, rest), n = rest * prod p^e: qx's one trial division.

    It divides by 2 and the odd d while d*d <= n and d <= _TRIAL_BOUND. Past
    d*d > n the factorization is complete and rest is 1; otherwise rest has no
    prime factor up to _TRIAL_BOUND, and whether it is prime is left open.
    """
    primes: dict = {}
    d = 2
    while d * d <= n:
        if d > _TRIAL_BOUND:
            return primes, n
        count = 0
        while n % d == 0:
            n //= d
            count += 1
        if count:
            primes[d] = count
        d += 1 if d == 2 else 2
    if n > 1:
        primes[n] = 1  # every prime below d is divided out, so n is a prime
    return primes, 1


def _square_free_decomp(n: int) -> tuple[int, int]:
    """n = s^2 * m (n > 0) with m = 1 or m not a perfect square.

    From `factor(n)`: a rest is taken out when it is a square, else m keeps
    it and may keep a squared prime above _TRIAL_BOUND with it.
    """
    primes, rest = factor(n)
    s, m = 1, 1
    for p, e in primes.items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    r = math.isqrt(rest)
    return (s * r, m) if r * r == rest else (s, m * rest)


def quad_flatten(e: Expr) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """Flatten into u + v*sqrt(d) with rational u, v and a non-square integer d.

    Returns (u, 0, 0) for rational values; None when the expression leaves a
    single quadratic extension (nested or mixed radicals).
    """
    return fold(e, "quad_flatten", _quad_node,
                lambda n: n.children if n.kind == SQRT or n.kind in FIELD_OPS else ())


def _quad_node(e: Expr, kids):
    k = e.kind
    if k == RAT:
        return (e.rat, Fraction(0), Fraction(0))
    if k == SQRT:
        inner = kids[0]
        if inner is None or inner[1] != 0:
            return None
        u = inner[0]
        if u == 0:
            return (Fraction(0), Fraction(0), Fraction(0))
        sign = 1 if u > 0 else -1
        n = abs(u.numerator) * u.denominator
        s, m = _square_free_decomp(n)
        if m == 1 and sign == 1:
            return (Fraction(s, u.denominator), Fraction(0), Fraction(0))
        return (Fraction(0), Fraction(s, u.denominator), Fraction(sign * m))
    if k not in FIELD_OPS:
        return None
    a, b = kids
    if a is None or b is None:
        return None
    u1, v1, d1 = a
    u2, v2, d2 = b
    if v1 != 0 and v2 != 0 and d1 != d2:
        return None
    d = d1 if v1 != 0 else d2
    if k == ADD:
        return _quad_norm(u1 + u2, v1 + v2, d)
    if k == SUB:
        return _quad_norm(u1 - u2, v1 - v2, d)
    if k == MUL:
        return _quad_norm(u1 * u2 + v1 * v2 * d, u1 * v2 + v1 * u2, d)
    norm = u2 * u2 - v2 * v2 * d
    if norm == 0:
        return None
    ru = (u1 * u2 - v1 * v2 * d) / norm
    rv = (v1 * u2 - u1 * v2) / norm
    return _quad_norm(ru, rv, d)


def _quad_norm(u: Fraction, v: Fraction, d: Fraction):
    if v == 0 or d == 0:
        return (u, Fraction(0), Fraction(0))
    return (u, v, d)


# --- the sign oracle ------------------------------------------------------------

_SIGN_CAP = 1024  # bits spent before a sign or separation test gives up


def decide_sign(x: Expr, what: str) -> int:
    """-1, 0 or +1 for x; NonRealArgument or MaxPrecision naming `what` otherwise.

    u + v*sqrt(d) in one real quadratic field is compared exactly (u^2 !=
    v^2*d, as d is never a square), and only there can the answer be 0. Any
    other value gets the sign of the first enclosure, up to _SIGN_CAP bits,
    whose real part excludes 0: x counts as real while its imaginary enclosure
    contains 0, and one that excludes 0 raises NonRealArgument at once.
    """
    try:
        return _sign(x, what)
    except NonRealArgument:
        raise NonRealArgument(f"{what} needs a real value, got {short_text(x)}") from None
    except MaxPrecision as exc:
        raise MaxPrecision(f"{exc}; the value is {short_text(x)}") from None


def sign(x: Expr) -> Optional[int]:
    """decide_sign(x), or None when x is nonreal or its sign is undecided."""
    try:
        return _sign(x, "a sign test")
    except (NonRealArgument, MaxPrecision):
        return None


def _sign(x: Expr, what: str) -> int:
    """decide_sign without the value's text in its errors, which `sign` throws away."""
    flat = quad_flatten(x)
    if flat is not None and (flat[1] == 0 or flat[2] > 0):
        u, v, d = flat
        w = u if v == 0 or u * u > v * v * d else v
        return (w > 0) - (w < 0)

    def real_sign(enc: CInterval) -> Optional[int]:
        if not enc.im.contains_zero():
            raise NonRealArgument(what)
        return _interval_sign(enc.re)
    return escalate(x.eval, real_sign, what, cap=_SIGN_CAP)


def separates(x: Expr, value: Fraction) -> bool:
    """Prove x != value (a rational): exactly in one quadratic field, else by enclosures."""
    flat = quad_flatten(x)
    if flat is not None:
        return flat != (value, 0, 0)
    try:
        return escalate(x.eval, lambda enc: not enc.contains_fraction(value) or None,
                        "a separation test", cap=_SIGN_CAP)
    except MaxPrecision:
        return False
