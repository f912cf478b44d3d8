"""Spans and counters around qx's layers, installed by patching from outside.

Each layer is a group of public functions or methods. The tracer replaces
them in their defining module or class and in every qx module that bound
them with `from ... import`, and restores the originals on `uninstall`.
Only the outermost call of a group opens a span; nested and recursive calls
are counted but get none. A group's self time is its spans' duration minus
the child spans they cover, accumulated on a stack as spans close, less the
wrappers' own cost per call, which `install` measures first.

Spans of the coarse groups are kept in memory and written out at the end.
The fine-grained groups (expr.eval, the interval ops, the dyadic ops) run up
to a million times per pass, so they keep only their counts and self time.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

_REAL_OPS = ("add", "sub", "mul", "div", "neg", "sqrt_nonneg", "exp", "log_pos",
             "sin", "cos", "atan", "ldexp", "mid", "intersect", "hull", "to_mpi",
             "from_fraction", "from_mpi")
_COMPLEX_OPS = ("add", "sub", "neg", "mul", "div", "conj", "sqrt", "scale_half",
                "exp", "arg", "log", "pow", "real", "from_int", "from_fraction")
_DYADIC_OPS = ("new", "from_fraction", "from_mpf", "to_mpf", "to_fraction",
               "__add__", "__sub__", "__neg__", "__mul__", "__abs__", "_cmp",
               "ldexp", "decimal")
_GEOMETRY_TOOLS = ("line", "circle", "intersect", "mean_proportional",
                   "fourth_proportional", "right_anglesect", "reverse_anglesect",
                   "general_anglesect")
_GEOMETRY_PROBES = ("quadratrix_x_of_y", "clavius_point", "spiral_secant_cut",
                    "spiral_probe_report")

# group -> (targets as "module:attr" or "module:Class.attr", fine-grained)
LAYERS = {
    "cli.expr_certificate": (["qx.cli:expr_certificate"], False),
    "cli.verify": (["qx.cli:cmd_verify"], False),
    "dsl.parse": (["qx.dsl:parse"], False),
    "dsl.compile_program": (["qx.dsl:compile_program"], False),
    "dsl.verify_roundtrip": (["qx.dsl:verify_roundtrip"], False),
    "exprtext.parse_expr": (["qx.exprtext:parse_expr"], False),
    "geometry.tools": ([f"qx.geometry:{n}" for n in _GEOMETRY_TOOLS], False),
    "geometry.probes": ([f"qx.geometry:{n}" for n in _GEOMETRY_PROBES], False),
    "expr.to_text": (["qx.expr:to_text"], False),
    "expr.quad_flatten": (["qx.expr:quad_flatten"], False),
    "expr.rewrite": (["qx.expr:Context.euler_expand", "qx.expr:Context.rewrite_elprop"], False),
    "expr.eval": (["qx.expr:Expr.eval"], True),
    "interval.refine": (["qx.interval:refine"], False),
    "interval.real_ops": ([f"qx.interval:RInterval.{n}" for n in _REAL_OPS]
                          + ["qx.interval:pi_interval", "qx.interval:asin_interval",
                             "qx.interval:sin_pi_interval"], True),
    "interval.complex_ops": ([f"qx.interval:CInterval.{n}" for n in _COMPLEX_OPS]
                             + ["qx.interval:sin_pi_complex",
                                "qx.interval:arcsin_over_pi_complex"], True),
    "dyadic.ops": ([f"qx.dyadic:Dyadic.{n}" for n in _DYADIC_OPS]
                   + ["qx.dyadic:floor_div", "qx.dyadic:ceil_div"], True),
    "minpoly.transcendence_rules": (["qx.minpoly:transcendence_rules"], False),
    "minpoly.algebraic_witness": (["qx.minpoly:algebraic_witness"], False),
    "minpoly.annihilator_sin_pi": (["qx.minpoly:annihilator_sin_pi"], False),
    "minpoly.rational_root_scan": (["qx.minpoly:rational_root_scan"], False),
    "minpoly.separates": (["qx.minpoly:separates"], False),
    "ladders.descend": (["qx.ladders:descend"], False),
    "ladders.reduce_ladder": (["qx.ladders:reduce_ladder"], False),
    "ladders.detect_relation": (["qx.ladders:detect_relation"], False),
    "ladders.linear_decompose": (["qx.ladders:linear_decompose"], False),
    "ladders.ascend": (["qx.ladders:ascend"], False),
}

OP_GROUP = "op"


class _Group:
    __slots__ = ("name", "fine", "calls", "outer", "open", "self_s")

    def __init__(self, name: str, fine: bool):
        self.name, self.fine = name, fine
        self.calls, self.outer, self.open, self.self_s = 0, 0, 0, 0.0


class Tracer:
    """Collects spans, per-group self time and counters while installed."""

    def __init__(self):
        self.groups = {name: _Group(name, fine) for name, (_, fine) in LAYERS.items()}
        self.groups[OP_GROUP] = _Group(OP_GROUP, False)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(int)
        self.spans: list = []
        self._stack: list = []      # open frames: [child seconds, span id]
        self._patches: list = []    # (owner, attribute, original)
        self.op_id = 0
        self.op_kind = ""
        self.nested_cost = 0.0      # wrapper seconds per nested call, charged to the open span
        self.outer_cost = 0.0       # wrapper seconds per outermost call, charged to the parent
        self._calibrate()

    # --- installation ---

    def install(self):
        for group, (targets, _) in LAYERS.items():
            for target in targets:
                self._patch(self.groups[group], target)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, group: _Group, target: str):
        module_name, path = target.split(":")
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            wrapper = self._wrap(group, raw.__func__ if is_static else raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)
            return
        func = getattr(module, path)
        wrapper = self._wrap(group, func)
        for name, mod in list(sys.modules.items()):
            if (name == "qx" or name.startswith("qx.")) and getattr(mod, path, None) is func:
                self._patches.append((mod, path, func))
                setattr(mod, path, wrapper)

    def _calibrate(self, calls: int = 20000, rounds: int = 5):
        """Measure the wrappers' own cost per call, so self times can leave it out."""
        probe = _Group("calibration", True)

        def nop(a, b):
            return None

        wrapped = self._wrap(probe, nop)
        direct = nested = outer = float("inf")
        self._stack.append([0.0, None])
        for _ in range(rounds):
            start = perf_counter()
            for _ in range(calls):
                nop(1, 2)
            direct = min(direct, perf_counter() - start)
            probe.open = 1
            start = perf_counter()
            for _ in range(calls):
                wrapped(1, 2)
            nested = min(nested, perf_counter() - start)
            probe.open = 0
            start = perf_counter()
            for _ in range(calls):
                wrapped(1, 2)
            outer = min(outer, perf_counter() - start)
        self._stack.pop()
        self.nested_cost = max(0.0, (nested - direct) / calls)
        self.outer_cost = max(0.0, (outer - direct) / calls)

    def self_seconds(self, group: _Group) -> float:
        """Self time less the wrapper cost of the group's nested calls."""
        return max(0.0, group.self_s - (group.calls - group.outer) * self.nested_cost)

    def _wrap(self, group: _Group, func):
        pre = _PRE.get(group.name)
        post = _POST.get(group.name)
        timed = self._timed

        if pre is None and post is None:
            def wrapper(*args, **kwargs):
                group.calls += 1
                if group.open:
                    return func(*args, **kwargs)
                return timed(group, func, args, kwargs)
        else:
            tracer = self

            def wrapper(*args, **kwargs):
                group.calls += 1
                if pre is not None:
                    args = pre(tracer, args)
                outer = not group.open
                result = timed(group, func, args, kwargs) if outer else func(*args, **kwargs)
                if post is not None:
                    post(tracer, args, result, outer)
                return result

        wrapper.__wrapped__ = func
        return wrapper

    # --- spans ---

    def _timed(self, group: _Group, func, args, kwargs):
        stack = self._stack
        span_id = None
        if not group.fine:
            span_id = len(self.spans)
            self.spans.append((self._parent_span(), self.op_id, group.name))
        frame = [0.0, span_id]
        stack.append(frame)
        group.open = 1
        group.outer += 1
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = perf_counter()
            group.open = 0
            stack.pop()
            duration = end - start
            group.self_s += duration - frame[0]
            if stack:
                stack[-1][0] += duration + self.outer_cost
            if span_id is not None:
                self.spans[span_id] += (start, end)

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def run_op(self, kind: str, func):
        """Run one operation as the root span of its own operation id."""
        self.op_id += 1
        self.op_kind = kind
        group = self.groups[OP_GROUP]
        group.calls += 1
        return self._timed(group, func, (), {})

    def exclude(self, func, *args):
        """Run bookkeeping whose time no layer should be charged with."""
        start = perf_counter()
        try:
            return func(*args)
        finally:
            if self._stack:
                self._stack[-1][0] += perf_counter() - start

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span_id parent_id op_id name start_s end_s\n")
            for span_id, span in enumerate(self.spans):
                fh.write(json.dumps((span_id,) + span) + "\n")

    def module_shares(self) -> dict:
        """Self-time share of each qx module; 'other' is op time outside every layer."""
        by_module = defaultdict(float)
        for name, group in self.groups.items():
            by_module["other" if name == OP_GROUP else name.split(".")[0]] += self.self_seconds(group)
        total = sum(by_module.values()) or 1.0
        return {m: s / total for m, s in sorted(by_module.items())}


# --- counters recorded at the layer boundaries ----------------------------------

def _dag_nodes(expr) -> int:
    return sum(1 for _ in expr.walk())


def _count_nodes(tracer, expr):
    tracer.counters["expr.dag_nodes"] += tracer.exclude(_dag_nodes, expr)


def _post_certificate(tracer, args, result, outer):
    _count_nodes(tracer, args[0])


def _post_parse_expr(tracer, args, result, outer):
    if outer:
        tracer.counters["exprtext.parse_expr.chars_in"] += len(args[0])
        if tracer.op_kind == "eval":
            _count_nodes(tracer, result)


def _post_to_text(tracer, args, result, outer):
    if outer:
        tracer.counters["expr.to_text.chars_out"] += len(result)


def _pre_refine(tracer, args):
    thunk = args[0]

    def counted(prec):
        tracer.counters["interval.refine.rounds"] += 1
        tracer.maxima["interval.refine.max_bits"] = max(
            tracer.maxima["interval.refine.max_bits"], prec)
        return thunk(prec)

    return (counted,) + tuple(args[1:])


def _max_degree(name):
    def post(tracer, args, result, outer):
        poly = result[0] if isinstance(result, tuple) else result
        if poly is not None:
            tracer.maxima[name] = max(tracer.maxima[name], poly.degree)
    return post


def _post_roots(tracer, args, result, outer):
    tracer.counters["minpoly.rational_root_scan.roots_found"] += len(result)


def _post_separates(tracer, args, result, outer):
    tracer.counters["minpoly.separates.proved"] += bool(result)


def _post_descend(tracer, args, result, outer):
    tracer.counters["ladders.descend.rungs"] += len(result.rungs)


def _post_reduce(tracer, args, result, outer):
    tracer.counters["ladders.reduce_ladder.removals"] += len(result.removals) - len(args[0].removals)


def _post_relation(tracer, args, result, outer):
    label = "none" if result is None else result.confidence
    tracer.counters[f"ladders.detect_relation.{label}"] += 1


_PRE = {"interval.refine": _pre_refine}
_POST = {
    "cli.expr_certificate": _post_certificate,
    "exprtext.parse_expr": _post_parse_expr,
    "expr.to_text": _post_to_text,
    "minpoly.algebraic_witness": _max_degree("minpoly.algebraic_witness.max_degree"),
    "minpoly.annihilator_sin_pi": _max_degree("minpoly.annihilator_sin_pi.max_degree"),
    "minpoly.rational_root_scan": _post_roots,
    "minpoly.separates": _post_separates,
    "ladders.descend": _post_descend,
    "ladders.reduce_ladder": _post_reduce,
    "ladders.detect_relation": _post_relation,
}


PER_LAYER = (
    "cli.expr_certificate.calls", "cli.expr_certificate.self_s", "cli.verify.self_s",
    "dsl.parse.self_s", "dsl.compile_program.self_s",
    "dsl.verify_roundtrip.calls", "dsl.verify_roundtrip.self_s",
    "exprtext.parse_expr.calls", "exprtext.parse_expr.self_s", "exprtext.parse_expr.chars_in",
    "geometry.tools.calls", "geometry.tools.self_s", "geometry.probes.self_s",
    "expr.dag_nodes", "expr.to_text.calls", "expr.to_text.self_s", "expr.to_text.chars_out",
    "expr.quad_flatten.calls", "expr.quad_flatten.self_s", "expr.rewrite.self_s",
    "expr.eval.calls", "expr.eval.self_s",
    "interval.refine.calls", "interval.refine.rounds", "interval.refine.max_bits",
    "interval.refine.self_s", "interval.real_ops.calls", "interval.real_ops.self_s",
    "interval.complex_ops.calls", "interval.complex_ops.self_s",
    "dyadic.ops.calls", "dyadic.ops.self_s",
    "minpoly.transcendence_rules.calls", "minpoly.transcendence_rules.self_s",
    "minpoly.algebraic_witness.calls", "minpoly.algebraic_witness.self_s",
    "minpoly.algebraic_witness.max_degree", "minpoly.annihilator_sin_pi.calls",
    "minpoly.annihilator_sin_pi.self_s", "minpoly.annihilator_sin_pi.max_degree",
    "minpoly.rational_root_scan.calls", "minpoly.rational_root_scan.self_s",
    "minpoly.rational_root_scan.roots_found",
    "minpoly.separates.calls", "minpoly.separates.proved_share",
    "ladders.descend.self_s", "ladders.descend.rungs",
    "ladders.reduce_ladder.self_s", "ladders.reduce_ladder.removals",
    "ladders.detect_relation.calls", "ladders.detect_relation.exact_share",
    "ladders.detect_relation.heuristic_share", "ladders.detect_relation.none_share",
    "ladders.linear_decompose.calls", "ladders.linear_decompose.self_s",
    "ladders.ascend.self_s",
)
_UNITS = {"calls": "count", "self_s": "s", "chars_in": "chars", "chars_out": "chars",
          "max_bits": "bits", "max_degree": "degree"}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """PER_LAYER as name -> (value, unit); calls, times and counts are per pass.

    A `<group>.<outcome>_share` is that outcome's count over the group's calls.
    """
    per = 1.0 / max(passes, 1)
    out = {}
    for name in PER_LAYER:
        group, _, measure = name.rpartition(".")
        unit = _UNITS.get(measure, "count")
        if measure == "calls":
            value = tracer.groups[group].calls * per
        elif measure == "self_s":
            value = tracer.self_seconds(tracer.groups[group]) * per
        elif measure.startswith("max_"):
            value = tracer.maxima[name]
        elif measure.endswith("_share"):
            total = tracer.groups[group].calls
            value = tracer.counters[f"{group}.{measure[:-len('_share')]}"] / total if total else 0.0
            unit = "share"
        else:
            value = tracer.counters[name] * per
        out[name] = (value, unit)
    return out
