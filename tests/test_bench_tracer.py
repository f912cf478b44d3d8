"""The benchmark's tracer patches qx by name: every target it lists must exist."""
import importlib
import importlib.util
from pathlib import Path

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
