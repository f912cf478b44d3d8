"""Text syntax for expressions: infix arithmetic plus named operations.

This is the CLI-facing grammar and also the canonical serialization
target: `to_text` output reparses to the identical hash-consed node.

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | primary
    primary := NUMBER | 'pi' | 'e' | 'i' | NAME '(' arglist ')' | '(' expr ')'
    arglist := expr (',' expr)* (';' expr)*

Operations: sqrt(x), exp(x) [natural base], pow(b, x), ln(x[; branch]),
log(x; b[; branch]), sin_pi(x), arcsin_over_pi(x), clavius_x(n),
polyroot(c0..cn; re_lo, re_hi[, im_lo, im_hi]). Numbers are integers or
finite decimals in ASCII digits; rationals are spelled with '/' (ordinary
division, folded exactly).

`parse_expr` reads this grammar without recursion, by operator precedence over
the token list (V. Pratt, "Top down operator precedence", POPL 1973): nesting
is bounded by memory, not by Python's recursion limit.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .dyadic import Dyadic
from .dsl import error_at, lex
from .expr import Context, Expr
from .geometry import clavius_point
from .interval import CInterval, RInterval

# Whitespace is skipped inside the match, so each match is one token (see `dsl.lex`).
_TOKEN = re.compile(r"""\s*
    (?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)
     | (?P<op>[()+\-*/,;])
     | (?P<number>[0-9]+(?:\.[0-9]+)?)
     | (?P<bad>.)
     | \Z)""", re.VERBOSE | re.DOTALL)


def _number(text: str) -> int | Fraction:
    """The value of a number token: an int, or a Fraction for a decimal."""
    whole, _, frac = text.partition(".")
    if not frac:
        return int(whole)
    scale = 10 ** len(frac)
    return Fraction(int(whole) * scale + int(frac), scale)


def parse_expr(text: str, ctx: Context) -> Expr:
    """The node of text, built in one loop of operator precedence over its tokens.

    Each operand (prefix minus signs, then a number, a constant, a parenthesised
    expression or a call) is followed by the operations it completes: every pending
    one that binds at least as tightly as the next operator, innermost first. The
    nodes are built in the order a recursive-descent parser of the grammar above
    builds them, and an error is raised where it would raise it.
    """
    tokens = lex(text, _TOKEN, " in expression")
    binary = {"+": (1, ctx.add), "-": (1, ctx.sub), "*": (2, ctx.mul), "/": (2, ctx.div)}
    levels = []  # per open '(' or call: the operators pending outside it, its name, its groups
    ops = []     # the (precedence, operation, left operand) pending in the innermost level
    i = 0
    while True:
        kind, word, _ = tokens[i]
        while word == "-":  # a prefix minus binds tightest: -a*b is (-a)*b
            ops.append((3, ctx.mul, ctx.rat(-1)))
            i += 1
            kind, word, _ = tokens[i]
        i += 1
        if kind == "number":
            node = ctx.rat(_number(word))
        elif word == "(":
            levels.append((ops, None, None))
            ops = []
            continue
        elif kind == "name" and tokens[i][1] == "(":
            levels.append((ops, word, [[]]))
            ops = []
            i += 1
            continue
        elif word == "pi" or word == "e" or word == "i":
            node = ctx.pi() if word == "pi" else ctx.e() if word == "e" else ctx.i()
        elif kind == "name":
            raise error_at(text, tokens[i - 1][2], f"unknown constant {word!r}", "try pi, e, i")
        else:
            raise error_at(text, tokens[i - 1][2],
                           f"expected an expression, found {word or 'end of input'!r}")
        while True:  # node is a whole operand
            word = tokens[i][1]
            prec, op = binary.get(word, (0, None))
            while ops and ops[-1][0] >= prec:
                _, apply, lhs = ops.pop()
                node = apply(lhs, node)
            if op is not None:
                ops.append((prec, op, node))
                i += 1
                break
            if not levels:
                if tokens[i][0] != "eof":
                    raise error_at(text, tokens[i][2], f"trailing input starting at {word!r}")
                return node
            outer, name, groups = levels[-1]
            if name is not None and (word == "," or word == ";"):
                groups[-1].append(node)
                if word == ";":
                    groups.append([])
                i += 1
                break
            if word != ")":
                raise error_at(text, tokens[i][2],
                               f"expected ')', found {word or 'end of input'!r}")
            i += 1
            levels.pop()
            ops = outer
            if name is not None:
                groups[-1].append(node)
                node = _Call(text, tokens[i][2], ctx).call(name, groups)


class _Call:
    """A named operation applied to its argument groups; errors name the token after ')'."""

    def __init__(self, text: str, pos: int, ctx: Context):
        self.text, self.pos, self.ctx = text, pos, ctx

    def fail(self, message: str):
        raise error_at(self.text, self.pos, message)

    def call(self, name: str, groups: list[list[Expr]]) -> Expr:
        ctx = self.ctx
        main = groups[0]

        def arity(n_groups, n_main):
            if len(groups) not in n_groups or len(main) not in n_main:
                self.fail(f"wrong arguments for {name}")

        unary = {"sqrt": ctx.sqrt, "exp": lambda x: ctx.exp(None, x), "sin_pi": ctx.sin_pi,
                 "arcsin_over_pi": ctx.arcsin_over_pi}
        if name in unary:
            arity({1}, {1})
            return unary[name](main[0])
        if name == "pow":
            arity({1}, {2})
            return ctx.exp(main[0], main[1])
        if name == "ln":
            arity({1, 2}, {1})
            return ctx.ln(main[0], self._branch(groups))
        if name == "log":
            if len(groups) not in (2, 3) or len(main) != 1:
                self.fail("log takes log(x; base) or log(x; base; branch)")
            return ctx.log(groups[1][0], main[0], self._branch(groups, 2))
        if name == "clavius_x":
            arity({1}, {1})
            n = main[0]
            if n.kind != "rat" or n.rat.denominator != 1 or n.rat < 1:
                self.fail("clavius_x takes a positive integer stage")
            return clavius_point(ctx, int(n.rat)).x
        if name == "polyroot":
            if len(groups) != 2 or len(groups[1]) not in (2, 4):
                self.fail("polyroot takes coefficients; selector bounds")
            return ctx.polyroot(main, self._selector(groups[1]))
        self.fail(f"unknown operation {name!r}")

    def _branch(self, groups, index: int = 1) -> int:
        if len(groups) <= index:
            return 0
        b = groups[index][0]
        if b.kind != "rat" or b.rat.denominator != 1:
            self.fail("branch index must be an integer")
        return int(b.rat)

    def _selector(self, bounds: list[Expr]) -> CInterval:
        vals = []
        for b in bounds:
            if b.kind != "rat":
                self.fail("selector bounds must be constants")
            try:
                vals.append(Dyadic.from_fraction(b.rat))
            except ValueError:
                self.fail("selector bounds must be dyadic (integers or finite binary fractions)")
        if len(vals) == 2:
            vals += [Dyadic.new(0), Dyadic.new(0)]
        if vals[1] < vals[0] or vals[3] < vals[2]:
            self.fail("selector bounds must be ordered low <= high")
        return CInterval(RInterval(vals[0], vals[1]), RInterval(vals[2], vals[3]))

