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
finite decimals; rationals are spelled with '/' (ordinary division, folded
exactly).
"""
from __future__ import annotations

import re
from fractions import Fraction

from .dyadic import Dyadic
from .dsl import Token, _Cursor
from .expr import Context, Expr
from .geometry import clavius_point
from .interval import CInterval, RInterval

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[()+\-*/,;])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class _P(_Cursor):
    def __init__(self, text: str, ctx: Context):
        super().__init__(text, _TOKEN, " in expression")
        self.ctx = ctx

    def take(self, text=None) -> Token:
        if text is not None and self.peek().text != text:
            self.fail(f"expected {text!r}, found {self.peek().text or 'end of input'!r}")
        return self.advance()

    def fail(self, message: str):
        raise self.error(self.peek(), message)

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.term()
            node = self.ctx.add(node, rhs) if op == "+" else self.ctx.sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.take().text
            rhs = self.unary()
            node = self.ctx.mul(node, rhs) if op == "*" else self.ctx.div(node, rhs)
        return node

    def unary(self) -> Expr:
        if self.peek().text == "-":
            self.take()
            return self.ctx.mul(self.ctx.rat(-1), self.unary())
        return self.primary()

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            return self.ctx.rat(Fraction(tok.text))
        if tok.text == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok.kind == "name":
            self.take()
            name = tok.text
            if self.peek().text != "(":
                if name == "pi":
                    return self.ctx.pi()
                if name == "e":
                    return self.ctx.e()
                if name == "i":
                    return self.ctx.i()
                self.fail(f"unknown constant {name!r} (try pi, e, i)")
            self.take("(")
            groups: list[list[Expr]] = [[self.expr()]]
            while self.peek().text in (",", ";"):
                sep = self.take().text
                if sep == ",":
                    groups[-1].append(self.expr())
                else:
                    groups.append([self.expr()])
            self.take(")")
            return self.call(name, groups)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

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
        return CInterval(RInterval(vals[0], vals[1]), RInterval(vals[2], vals[3]))


def parse_expr(text: str, ctx: Context) -> Expr:
    p = _P(text, ctx)
    node = p.expr()
    if p.peek().kind != "eof":
        p.fail(f"trailing input starting at {p.peek().text!r}")
    return node
