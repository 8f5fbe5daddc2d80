"""The benchmark's tracer wraps package functions by module attribute name;
a renamed or removed binding would only show in the slow harness self-test."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    missing = []
    for module_name, attribute, _, _ in load_tracing().TARGETS:
        module = importlib.import_module(f"sceneselect.{module_name}")
        if not callable(getattr(module, attribute, None)):
            missing.append(f"{module_name}.{attribute}")
    assert missing == []


def test_counter_hooks_find_their_fields():
    # hooks read SamplingState.distinct_drawn and ModelCache.loaded
    from sceneselect import runtime, sampling

    assert isinstance(sampling.SamplingState.distinct_drawn, property)
    assert isinstance(runtime.ModelCache(1).loaded, dict)
