"""The benchmark's tracer patches qx by name: every target it lists must exist."""
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from qx.expr import Context
from qx.minpoly import IntPoly, algebraic_witness, annihilator_sin_pi

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _resolves(target: str) -> bool:
    module_name, path = target.split(":")
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return attr in vars(getattr(module, cls_name, object))
    return hasattr(module, path)


def test_every_traced_layer_resolves_in_qx():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for targets, _ in tracing.LAYERS.values() for t in targets]
    assert targets
    assert [t for t in targets if not _resolves(t)] == []


def test_a_witness_pair_is_a_tuple_and_a_bare_polynomial_is_not():
    """The tracer reads a degree from `result[0] if isinstance(result, tuple) else result`."""
    bare = annihilator_sin_pi(Fraction(2, 5))
    assert isinstance(bare, IntPoly) and not isinstance(bare, tuple)
    pair = algebraic_witness(Context().sqrt(2))
    assert isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], IntPoly)
    a, b = IntPoly((-2, 0, 1)), IntPoly((-2, 0, 1))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != IntPoly((2, 0, 1)) and a != (-2, 0, 1)
