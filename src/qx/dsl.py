"""Construction-language front end: lexer, parser, compiler to named
expressions, and the dual-execution round-trip check. The lexer also serves
the expression parser (`exprtext`).

The statement grammar is flat, so the parser is one loop over the token list,
one statement per turn. Every error raised here is located: its `span` is the
line and column of the token or the statement at fault.

Programs are finite SSA step sequences: `let` binds a name once, tools are
a closed set, rational literals are the only source-level numbers, and
there are no loops (unbounded iteration would smuggle limits back in).
File extension .qdx, '#' starts a line comment.

Grammar:
    program   := statement+
    statement := "let" IDENT "=" call ";" | "emit" IDENT ("," IDENT)* ";"
    call      := TOOL "(" arg ("," arg)* ")"
    arg       := IDENT | RATIONAL
    TOOL      := seg | point | line | circle | intersect | meanprop
               | fourthprop | ra | rra | bisect | anglesect
    RATIONAL  := INT ("/" POSINT)?      (digits are ASCII 0-9)
"""
from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple, Optional

from mpmath.libmp import mpf_sub

from . import geometry as G
from .errors import DslError, DslSemanticError, DslSyntaxError, MismatchError, QxError
from .expr import Context, Expr
from .interval import (CInterval, RInterval, asin_interval, escalate, pi_interval, sin_pi_interval,
                       start_bits)

_SEG = ("rat", "seg")   # a segment or a literal length
_INDEX = ("rat",)       # a literal alone: intersect's index, the one optional argument

# tool -> (the kinds each argument takes, the name of the geometry function that
# computes it); the keys are the closed set of tools
_TOOLS = {
    "seg": ((_SEG,), "segment"),
    "point": ((_SEG, _SEG), "point"),
    "line": ((("point",), ("point",)), "line"),
    "circle": ((("point",), ("point",)), "circle"),
    "intersect": ((("line", "circle"), ("line", "circle"), _INDEX), "intersect"),
    "meanprop": ((_SEG, _SEG), "mean_proportional"),
    "fourthprop": ((_SEG, _SEG, _SEG), "fourth_proportional"),
    "ra": ((_SEG, _SEG), "right_anglesect"),
    "rra": ((("point",),), "reverse_anglesect"),
    "bisect": ((("rat", "seg", "point"),), "bisect"),
    "anglesect": ((("point",), _SEG, _SEG), "general_anglesect"),
}


class Span(NamedTuple):
    line: int
    column: int


class Arg(NamedTuple):
    kind: str  # "name" | "rat"
    value: object
    span: Span


class Call(NamedTuple):
    tool: str
    args: tuple[Arg, ...]
    span: Span


class LetStmt(NamedTuple):
    name: str
    call: Call
    span: Span


class EmitStmt(NamedTuple):
    names: tuple[str, ...]
    span: Span


class ConstructionProgram(NamedTuple):
    statements: tuple


# --- lexer ----------------------------------------------------------------------------

# Whitespace (exactly space, tab, CR and LF) and comments are skipped inside the
# match, so each match is one token; the last match is the empty one at the end.
_TOKEN_RE = re.compile(r"""[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:(?P<ident>[A-Za-z_][A-Za-z_0-9]*)
     | (?P<sym>[()=,;])
     | (?P<rational>-?[0-9]+(?:/[0-9]+)?)
     | (?P<bad>.)
     | \Z)""", re.VERBOSE | re.DOTALL)


def error_at(source: str, pos: int, message: str,
             suggestion: Optional[str] = None) -> DslSyntaxError:
    """The syntax error to raise at offset pos of source; lines are split at LF only."""
    return DslSyntaxError(message, Span(source.count("\n", 0, pos) + 1,
                                        pos - source.rfind("\n", 0, pos)), suggestion)


def lex(source: str, pattern: re.Pattern, what: str = "") -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of one pass of pattern over source, then eof.

    Each match of the pattern skips what separates tokens and then holds one
    token in the named group of its kind, or none at the end of the source.
    The group `bad` matches any one character that starts no token: a syntax
    error ("unexpected character", plus what).
    """
    tokens = [(m.lastgroup, m[i], m.start(i)) for m in pattern.finditer(source)
              if (i := m.lastindex)]
    if "bad" in map(itemgetter(0), tokens):
        pos = next(pos for kind, _, pos in tokens if kind == "bad")
        raise error_at(source, pos, f"unexpected character {source[pos]!r}{what}")
    tokens.append(("eof", "", len(source)))
    return tokens


# --- parser ---------------------------------------------------------------------------

def parse(source: str) -> ConstructionProgram:
    """Parse .qdx source: one loop over its tokens, one statement per turn; deterministic,
    no backtracking."""
    tokens = lex(source, _TOKEN_RE)
    starts = [0, *accumulate(len(line) + 1 for line in source.split("\n"))]

    def span(pos: int) -> Span:
        line = bisect_right(starts, pos)
        return Span(line, pos - starts[line - 1] + 1)

    def error(tok, message: str, suggestion: Optional[str] = None,
              cls: type = DslSyntaxError) -> DslError:
        return cls(message, span(tok[2]), suggestion)

    def expect(i: int, sym: str, context: str) -> int:
        """The index after tokens[i], which must be sym."""
        tok = tokens[i]
        if tok[1] != sym:
            raise error(tok, f"expected {sym!r} {context}, found {tok[1] or 'end of file'!r}",
                        f"insert {sym!r}")
        return i + 1

    bound: set[str] = set()
    statements = []
    i = 0
    while True:
        kind, text, pos = tok = tokens[i]
        if kind == "eof":
            break
        if text == "let":
            kind, name, _ = tok = tokens[i + 1]
            if kind != "ident":
                raise error(tok, "expected a name after 'let'")
            if name in _TOOLS or name in ("let", "emit"):
                raise error(tok, f"{name!r} is reserved")
            if name in bound:
                raise error(tok, f"duplicate name {name!r}", "names bind once; pick a fresh name",
                            DslSemanticError)
            tok = tokens[i + 2]
            if tok[1] != "=":
                raise error(tok, f"expected '=', found {tok[1] or 'end of file'!r}")
            kind, tool, tool_pos = tok = tokens[i + 3]
            if kind != "ident" or tool not in _TOOLS:
                raise error(tok, f"expected a tool name, found {tool or 'end of file'!r}",
                            "tools: " + ", ".join(_TOOLS))
            i = expect(i + 4, "(", f"after {tool!r}")
            args = []
            while True:
                kind, text, arg_pos = tok = tokens[i]
                if kind == "rational":
                    num, _, den = text.partition("/")
                    if not den:
                        value = Fraction(int(num))
                    elif int(den) == 0:
                        raise error(tok, "rational literal with denominator 0")
                    else:
                        value = Fraction(int(num), int(den))
                    args.append(Arg("rat", value, span(arg_pos)))
                elif kind == "ident":
                    if text not in bound:
                        raise error(tok, f"unbound name {text!r}", "bind it with 'let' before use",
                                    DslSemanticError)
                    args.append(Arg("name", text, span(arg_pos)))
                else:
                    raise error(tok, f"expected an argument, found {text or 'end of file'!r}")
                if tokens[i + 1][1] != ",":
                    break
                i += 2
            i = expect(i + 1, ")", "to close the argument list")
            i = expect(i, ";", "after the tool call")
            bound.add(name)
            statements.append(LetStmt(name, Call(tool, tuple(args), span(tool_pos)), span(pos)))
        elif text == "emit":
            names = []
            while True:
                tok = tokens[i + 1]
                if tok[0] != "ident":
                    raise error(tok, "expected a name to emit")
                if tok[1] not in bound:
                    raise error(tok, f"unbound name {tok[1]!r}", cls=DslSemanticError)
                names.append(tok[1])
                i += 2
                if tokens[i][1] != ",":
                    break
            i = expect(i, ";", "after the emit list")
            statements.append(EmitStmt(tuple(names), span(pos)))
        else:
            raise error(tok, f"expected 'let' or 'emit', found {text!r}")
    if not statements:
        raise error(tokens[i], "empty program")
    return ConstructionProgram(tuple(statements))


def pretty_print(prog: ConstructionProgram) -> str:
    lines = []
    for st in prog.statements:
        if isinstance(st, LetStmt):
            args = ", ".join(str(a.value) for a in st.call.args)  # a name or a Fraction
            lines.append(f"let {st.name} = {st.call.tool}({args});")
        else:
            lines.append("emit " + ", ".join(st.names) + ";")
    return "\n".join(lines) + "\n"


# --- compiler -------------------------------------------------------------------

class CompileResult(NamedTuple):
    values: dict  # emitted name (points expand to name.x / name.y) -> Expr
    steps: list   # (LetStmt, the value it bound) per `let`, in program order
    ctx: Context  # the session every value was built in


def _kind_of(value) -> str:
    if isinstance(value, Expr):
        return "seg"
    if isinstance(value, G.GPoint):
        return "point"
    if isinstance(value, G.GLine):
        return "line"
    return "circle"


def compile_program(prog: ConstructionProgram, ctx: Optional[Context] = None) -> CompileResult:
    """Execute the program against the geometry engine.

    Straightedge/compass tools introduce only field ops and square roots;
    ra introduces sin_pi, rra introduces arcsin_over_pi. An error a tool
    raises without a span propagates with the span of its statement.
    """
    if ctx is None:
        ctx = Context()
    env: dict = {}
    steps: list = []
    for st in prog.statements:
        if isinstance(st, EmitStmt):
            continue
        call = st.call
        kinds, name = _TOOLS[call.tool]
        hi = len(kinds)
        lo = hi - (kinds[-1] == _INDEX)
        if not lo <= len(call.args) <= hi:
            raise DslSemanticError(f"{call.tool} expects {lo if lo == hi else f'{lo}..{hi}'} "
                                   f"arguments, got {len(call.args)}", call.span)
        args = [_expect(ctx, env, call, i, kinds[i]) for i in range(len(call.args))]
        try:
            # looked up per step, so that a geometry function patched by name is the one called
            tool = getattr(G, name)
            if kinds[-1] == _INDEX:
                value = _intersection(ctx, call, tool, *args)
            else:
                value = tool(ctx, *args)
        except QxError as exc:
            if exc.span is None:
                exc.span = call.span
            raise
        env[st.name] = value
        steps.append((st, value))
    values: dict = {}
    for st in prog.statements:
        if not isinstance(st, EmitStmt):
            continue
        for name in st.names:
            value = env[name]
            if isinstance(value, Expr):
                values[name] = value
            elif isinstance(value, G.GPoint):
                values[f"{name}.x"] = value.x
                values[f"{name}.y"] = value.y
            else:
                raise DslSemanticError(
                    f"cannot emit a {_kind_of(value)}; emit segments or points", st.span)
    return CompileResult(values, steps, ctx)


def _expect(ctx: Context, env, call: Call, idx: int, kinds: tuple[str, ...]):
    """Argument idx of call, of one of kinds; a literal is a length where a segment may stand."""
    arg = call.args[idx]
    if arg.kind == "rat":
        if "rat" in kinds:
            return ctx.rat(arg.value) if "seg" in kinds else arg.value
        raise DslSemanticError(f"{call.tool} argument {idx + 1} cannot be a literal", arg.span)
    value = env[arg.value]
    kind = _kind_of(value)
    if kind not in kinds:
        raise DslSemanticError(
            f"{call.tool} argument {idx + 1} must be {' or '.join(kinds)}, got {kind}", arg.span)
    return value


def _intersection(ctx: Context, call: Call, intersect, a, b, index: Fraction = Fraction(0)):
    """Point number index of intersect(a, b); an index error names its span or the call's."""
    if index.denominator != 1 or index < 0:
        raise DslSemanticError("intersection index must be 0 or 1", call.args[2].span)
    pts = intersect(ctx, a, b)
    if index >= len(pts):
        raise DslSemanticError(
            f"intersection produced {len(pts)} point(s); index {index} is out of range", call.span)
    return pts[int(index)]


# --- round-trip verification ------------------------------------------------------

class _NumericExecutor:
    """Replays the `let` steps in plain interval geometry, no symbolic layer.

    Values: CInterval for segments, ("pt", x, y), ("line", p, q),
    ("circle", center, through). The formulas mirror the tool semantics
    directly on enclosures, which is the dual execution the round-trip
    check compares against.
    """

    def __init__(self, prec: int):
        self.prec = prec
        self.env: dict = {}

    def run(self, steps):
        for st, _ in steps:
            args = [a.value if a.kind == "rat" else self.env[a.value] for a in st.call.args]
            self.env[st.name] = self.apply(st.call.tool, args)

    def _ci(self, v) -> CInterval:
        if isinstance(v, CInterval):
            return v
        return CInterval.from_fraction(v, self.prec)

    def _ra_point(self, t: RInterval):
        p = self.prec
        half = RInterval.from_fraction(Fraction(1, 2), p)
        cos = sin_pi_interval(half.sub(t.ldexp(-1), p), p)
        sin = sin_pi_interval(t.ldexp(-1), p)
        return ("pt", CInterval.real(cos), CInterval.real(sin))

    def apply(self, tool, args):
        p = self.prec
        if tool == "seg":
            return self._ci(args[0])
        if tool == "point":
            return ("pt", self._ci(args[0]), self._ci(args[1]))
        if tool == "line":
            return ("line", args[0], args[1])
        if tool == "circle":
            return ("circle", args[0], args[1])
        if tool == "meanprop":
            return self._ci(args[0]).mul(self._ci(args[1]), p).sqrt(p)
        if tool == "fourthprop":
            return self._ci(args[0]).mul(self._ci(args[2]), p).div(self._ci(args[1]), p)
        if tool == "ra":
            u, v = self._ci(args[0]), self._ci(args[1])
            return self._ra_point(u.div(u.add(v, p), p).re)
        if tool == "rra":
            y = args[0][2].re
            return CInterval.real(asin_interval(y, p).div(pi_interval(p), p).ldexp(1))
        if tool == "bisect":
            if isinstance(args[0], tuple) and args[0][0] == "pt":
                x, y = args[0][1].re, args[0][2].re
                onep = RInterval.from_int(1).add(x, p)
                d = onep.mul(onep, p).add(y.mul(y, p), p).sqrt_nonneg(p)
                return ("pt", CInterval.real(onep.div(d, p)), CInterval.real(y.div(d, p)))
            return self._ci(args[0]).mul(CInterval.from_fraction(Fraction(1, 2), p), p)
        if tool == "anglesect":
            y = args[0][2].re
            u, v = self._ci(args[1]), self._ci(args[2])
            f = asin_interval(y, p).div(pi_interval(p), p).ldexp(1)
            w = f.mul(u.div(u.add(v, p), p).re, p)
            return self._ra_point(w)
        if tool == "intersect":
            index = int(args[2]) if len(args) == 3 else 0
            pts = self._ordered(self._intersect(args[0], args[1]))
            return pts[min(index, len(pts) - 1)]
        raise AssertionError(tool)

    @staticmethod
    def _ordered(pts):
        """Candidates in `geometry.intersect`'s order (x, then y) where disjoint
        enclosures decide it; where neither axis does, each is the hull of both."""
        if len(pts) == 1:
            return pts
        a, b = pts
        for axis in (1, 2):
            ra, rb = a[axis].re, b[axis].re
            if not ra.intersects(rb):
                return [a, b] if ra.hi < rb.lo else [b, a]
        hull = ("pt", CInterval.real(a[1].re.hull(b[1].re)),
                CInterval.real(a[2].re.hull(b[2].re)))
        return [hull, hull]

    def _intersect(self, a, b):
        if a[0] == "line" and b[0] == "line":
            return [self._line_line(a, b)]
        if a[0] == "line" and b[0] == "circle":
            return self._line_circle(a, b)
        if a[0] == "circle" and b[0] == "line":
            return self._line_circle(b, a)
        return self._circle_circle(a, b)

    def _line_line(self, l1, l2):
        p = self.prec
        (p1, q1), (p2, q2) = (l1[1], l1[2]), (l2[1], l2[2])
        d1x, d1y = q1[1].re.sub(p1[1].re, p), q1[2].re.sub(p1[2].re, p)
        d2x, d2y = q2[1].re.sub(p2[1].re, p), q2[2].re.sub(p2[2].re, p)
        det = d1x.mul(d2y, p).sub(d1y.mul(d2x, p), p)
        ex, ey = p2[1].re.sub(p1[1].re, p), p2[2].re.sub(p1[2].re, p)
        t = ex.mul(d2y, p).sub(ey.mul(d2x, p), p).div(det, p)
        return ("pt", CInterval.real(p1[1].re.add(t.mul(d1x, p), p)),
                CInterval.real(p1[2].re.add(t.mul(d1y, p), p)))

    def _line_circle(self, l, c):
        p = self.prec
        lp, lq = l[1], l[2]
        center, through = c[1], c[2]
        dx, dy = lq[1].re.sub(lp[1].re, p), lq[2].re.sub(lp[2].re, p)
        fx, fy = lp[1].re.sub(center[1].re, p), lp[2].re.sub(center[2].re, p)
        tx, ty = through[1].re.sub(center[1].re, p), through[2].re.sub(center[2].re, p)
        a = dx.mul(dx, p).add(dy.mul(dy, p), p)
        bb = fx.mul(dx, p).add(fy.mul(dy, p), p).ldexp(1)
        r2 = tx.mul(tx, p).add(ty.mul(ty, p), p)
        cc = fx.mul(fx, p).add(fy.mul(fy, p), p).sub(r2, p)
        disc = bb.mul(bb, p).sub(a.mul(cc, p).ldexp(2), p)
        root = disc.sqrt_nonneg(p)
        out = []
        for signed in (root.neg(), root):
            t = signed.sub(bb, p).div(a.ldexp(1), p)
            out.append(("pt", CInterval.real(lp[1].re.add(t.mul(dx, p), p)),
                        CInterval.real(lp[2].re.add(t.mul(dy, p), p))))
        return out

    def _circle_circle(self, c1, c2):
        p = self.prec
        a_c, b_c = c1[1], c2[1]
        ux, uy = b_c[1].re.sub(a_c[1].re, p), b_c[2].re.sub(a_c[2].re, p)
        d2 = ux.mul(ux, p).add(uy.mul(uy, p), p)
        r1 = self._radius2(c1)
        r2 = self._radius2(c2)
        lam = d2.add(r1.sub(r2, p), p).div(d2.ldexp(1), p)
        x0x = a_c[1].re.add(lam.mul(ux, p), p)
        x0y = a_c[2].re.add(lam.mul(uy, p), p)
        x0 = ("pt", CInterval.real(x0x), CInterval.real(x0y))
        x1 = ("pt", CInterval.real(x0x.sub(uy, p)), CInterval.real(x0y.add(ux, p)))
        return self._line_circle(("line", x0, x1), c1)

    def _radius2(self, c):
        p = self.prec
        tx = c[2][1].re.sub(c[1][1].re, p)
        ty = c[2][2].re.sub(c[1][2].re, p)
        return tx.mul(tx, p).add(ty.mul(ty, p), p)


def _width_text(nv: CInterval, sv: CInterval) -> str:
    """str(float(max(nv.width, sv.width))) without a Fraction: each exact mpf
    width to its nearest float by one integer true division, which rounds as
    float(Fraction) does, then the largest, since rounding is monotone."""
    def nearest(r: RInterval) -> float:
        _, man, exp, _ = mpf_sub(r.hi_mpf, r.lo_mpf)
        man = int(man)  # a gmpy mantissa would divide in its own float type
        return float(man << exp) if exp >= 0 else man / (1 << -exp)
    return str(max(nearest(r) for r in (nv.re, nv.im, sv.re, sv.im)))


def verify_roundtrip(result: CompileResult, precision_bits: int = 30) -> dict:
    """Re-execute the `let` steps numerically; every emit must overlap at the width.

    Raises MismatchError naming the divergent emits, and MaxPrecision when
    the width is out of reach below the precision ceiling; returns a report
    of per-name widths otherwise.
    """
    target = Fraction(1, 1 << precision_bits)

    def run(prec: int) -> dict:
        """name -> (numeric, symbolic) enclosure of every emit at prec."""
        ex = _NumericExecutor(prec)
        ex.run(result.steps)
        pairs = {}
        for name, sym in result.values.items():
            nv = ex.env.get(name.split(".")[0])
            if isinstance(nv, tuple):
                nv = nv[1] if name.endswith(".x") else nv[2]
            pairs[name] = (nv, sym.eval(prec))
        return pairs

    def settled(pairs: dict) -> Optional[dict]:
        return pairs if all(nv.width_at_most(target) and sv.width_at_most(target)
                            for nv, sv in pairs.values()) else None

    pairs = escalate(run, settled, f"round trip at a width of 2^-{precision_bits}",
                     start=start_bits(precision_bits))
    failures = [name for name, (nv, sv) in pairs.items() if not nv.intersects(sv)]
    if failures:
        raise MismatchError(sorted(failures))
    return {"precision_bits": precision_bits, "names": sorted(result.values),
            "widths": {name: _width_text(nv, sv) for name, (nv, sv) in pairs.items()}}
