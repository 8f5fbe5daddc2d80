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


def test_run_trace_calls_each_traced_layer(small_ds, monkeypatch):
    # the per-layer metrics count calls through these bindings; a call
    # inlined into run_trace would silently read as zero
    import math

    from sceneselect import dataset, decision, learners, runtime

    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    d, c = small_ds.schema.feature_dim, small_ds.schema.num_classes
    models = [learners.new_classifier(d, 4, c, seed) for seed in range(4)]
    dm = decision.DecisionModel(
        backbone=learners.new_classifier(d, 5, 3, 10), head=learners.new_classifier(5, 6, 4, 11)
    )
    trace = dataset.synthesize_trace(small_ds, 2, 7, 5, seed=0)
    for module, name in [(runtime, "rank_models"), (runtime, "cache_request"),
                         (runtime, "macro_f1"), (learners, "predict")]:
        counting(module, name)

    metrics = runtime.run_trace(trace, dm, models, 2, window=10)
    served = {r.served_model for r in metrics.frames}
    assert calls == {
        "rank_models": 1,
        "cache_request": len(trace),
        "macro_f1": math.ceil(len(trace) / 10),
        "predict": len(served),
    }
    assert len(served) <= len(models)


def test_train_calls_gradient_per_step_and_loss_per_epoch(monkeypatch):
    # learners.sgd_steps and learners.epoch_loss_s count these bindings; a
    # step or loss inlined into train would silently read as zero
    import math

    import numpy as np

    from sceneselect import learners

    calls = {}

    def counting(name):
        original = getattr(learners, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(learners, name, wrapper)

    for name in ("gradient", "cross_entropy"):
        counting(name)

    rng = np.random.default_rng(0)
    n, epochs = 23, 3
    for batch_size in (5, 23, 1):
        calls.clear()
        model = learners.new_classifier(4, 6, 3, 1)
        cfg = learners.TrainConfig(0.1, epochs, batch_size, seed=2)
        learners.train(model, rng.normal(size=(n, 4)), rng.integers(0, 3, n), cfg)
        assert calls == {"gradient": epochs * math.ceil(n / batch_size), "cross_entropy": epochs}
