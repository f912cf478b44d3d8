"""Expression-text parser: the operator-precedence loop against the recursive-descent
parser it replaced, deep nesting, and the ASCII-digit rule."""
import re
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qx.dsl import Span
from qx.dyadic import Dyadic
from qx.errors import DslSyntaxError
from qx.expr import Context, to_text
from qx.exprtext import parse_expr
from qx.geometry import clavius_point
from qx.interval import CInterval, RInterval


# --- the reference: the recursive-descent parser and its lexer as they were, -------------
# --- but for numbers, which are ASCII digits in both ---------------------------------------

_REF_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>[0-9]+(?:\.[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[()+\-*/,;])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


class _RefParser:
    def __init__(self, text: str, ctx: Context):
        self.text, self.ctx = text, ctx
        self.tokens = []
        for m in _REF_TOKEN.finditer(text):
            if m.lastgroup == "bad":
                self.pos = m.start()
                self.raise_at(self.pos, f"unexpected character {text[self.pos]!r} in expression")
            if m.lastgroup != "ws":
                self.tokens.append(_Token(m.lastgroup, m.group(), m.start()))
        self.tokens.append(_Token("eof", "", len(text)))
        self.pos = 0

    def raise_at(self, offset: int, message: str, suggestion=None):
        line_start = self.text.rfind("\n", 0, offset) + 1
        raise DslSyntaxError(message, Span(self.text.count("\n", 0, offset) + 1,
                                           offset - line_start + 1), suggestion)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, text=None) -> _Token:
        if text is not None and self.peek().text != text:
            self.fail(f"expected {text!r}, found {self.peek().text or 'end of input'!r}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        self.raise_at(self.peek().pos, message)

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.term()
            node = self.ctx.add(node, rhs) if op == "+" else self.ctx.sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.take().text
            rhs = self.unary()
            node = self.ctx.mul(node, rhs) if op == "*" else self.ctx.div(node, rhs)
        return node

    def unary(self):
        if self.peek().text == "-":
            self.take()
            return self.ctx.mul(self.ctx.rat(-1), self.unary())
        return self.primary()

    def primary(self):
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
                self.raise_at(tok.pos, f"unknown constant {name!r}", "try pi, e, i")
            self.take("(")
            groups = [[self.expr()]]
            while self.peek().text in (",", ";"):
                sep = self.take().text
                if sep == ",":
                    groups[-1].append(self.expr())
                else:
                    groups.append([self.expr()])
            self.take(")")
            return self.call(name, groups)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

    def call(self, name, groups):
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

    def _branch(self, groups, index=1):
        if len(groups) <= index:
            return 0
        b = groups[index][0]
        if b.kind != "rat" or b.rat.denominator != 1:
            self.fail("branch index must be an integer")
        return int(b.rat)

    def _selector(self, bounds):
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


def _reference(text: str, ctx: Context):
    p = _RefParser(text, ctx)
    node = p.expr()
    if p.peek().kind != "eof":
        p.fail(f"trailing input starting at {p.peek().text!r}")
    return node


# --- inputs ----------------------------------------------------------------------------------

_NUMBERS = st.one_of(st.integers(0, 12).map(str),
                     st.sampled_from(["0.5", "1.25", "2.50", "0.125", "007", "10.0", "3.14"]))
_CONSTANTS = st.sampled_from(["pi", "e", "i"])


def _expressions():
    """Well-formed texts, mostly; a few calls take arguments their operation rejects."""
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " - ", "*-"]), inner)
            .map("".join),
            inner.map(lambda x: f"-{x}"),
            inner.map(lambda x: f"({x})"),
            st.tuples(st.sampled_from(["sqrt", "exp", "sin_pi", "arcsin_over_pi", "ln"]), inner)
            .map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(["2", "3", "1/2"]), inner)
            .map(lambda t: f"pow({t[0]}, {t[1]})"),
            st.tuples(inner, st.sampled_from(["2", "3", "-1", "pi"]))
            .map(lambda t: f"log({t[0]}; {t[1]})"),
            st.tuples(inner, st.sampled_from(["0", "1", "-1", "1/2", "pi"]))
            .map(lambda t: f"ln({t[0]}; {t[1]})"),
            st.sampled_from(["clavius_x(2)", "clavius_x(0)", "clavius_x(1/2)", "clavius_x(pi)",
                             "polyroot(-2, 0, 1; 1, 2)", "polyroot(-2, 0, 1; 1, 2, 0, 0)",
                             "polyroot(-2, 0, 1; 1)", "polyroot(-2, 0, 1; 1/3, 2)",
                             "polyroot(-2, 0, 1; pi, 2)", "sqrt(1, 2)", "pow(2)", "log(2)",
                             "frob(1)", "sqrt(2; 3)"]),
        )
    return st.recursive(st.one_of(_NUMBERS, _CONSTANTS), extend, max_leaves=8)


_PIECES = ["1", "2", "0", "1.5", "pi", "e", "i", "x", "sqrt", "ln", "log", "pow", "clavius_x",
           "(", ")", "(", ")", "+", "-", "-", "*", "/", ",", ";", " ", "\n"]
_BAD = [".", "$", "٣", "1.", "é", "#"]  # each holds a character that starts no token


def _soup():
    return st.lists(st.sampled_from(_PIECES), max_size=14).map("".join)


def _mutated():
    """A well-formed text with one piece inserted or one character deleted."""
    @st.composite
    def build(draw):
        text = draw(_expressions())
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()) and text:
            return text[:at] + text[at + 1:]
        return text[:at] + draw(st.sampled_from(_PIECES + _BAD)) + text[at:]
    return build()


def _outcome(parse, text: str):
    """(node texts in the order they were interned, the result's text) or (error type, message)."""
    ctx = Context()
    try:
        node = parse(text, ctx)
    except Exception as exc:  # every exception the parser raises is part of its contract
        return (type(exc), str(exc), getattr(exc, "span", None),
                getattr(exc, "suggestion", None), [to_text(n) for n in ctx._table.values()])
    return [to_text(n) for n in ctx._table.values()], to_text(node)


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_expressions(), _soup(), _mutated()))
def test_parse_expr_matches_the_recursive_descent_parser(text):
    assert _outcome(parse_expr, text) == _outcome(_reference, text)


@pytest.mark.parametrize("text", [
    "1" * 4400, "1." + "2" * 4400, "2" * 4400 + ".5", "--2", "-(-(2))*-3", "2*-3-4/-5",
    "1/0", "sqrt(2", "sqrt 2", "sqrt()", "()", "", "   ", "2 3", "(2))", "pi(2)", "x",
    "ln(2;)", "log(2;;3)", "sqrt(2,)", "1 +\n  * 2", "\n\n  $", "1.", ".5",
])
def test_parse_expr_matches_the_recursive_descent_parser_at_the_edges(text):
    assert _outcome(parse_expr, text) == _outcome(_reference, text)


def test_a_10000_deep_nest_parses_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    for text in ("(" * 10_000 + "2" + ")" * 10_000, "-" * 10_000 + "2",
                 "-(" * 5_000 + "2" + ")" * 5_000):
        assert to_text(parse_expr(text, Context())) == "2"


@pytest.mark.parametrize("text", ["٣", "sqrt(٣)", "1２", "2.٥"])
def test_numbers_are_ascii_digits(text):
    with pytest.raises(DslSyntaxError) as info:
        parse_expr(text, Context())
    assert "unexpected character" in str(info.value)
