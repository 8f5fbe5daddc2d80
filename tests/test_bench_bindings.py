"""The benchmark's tracer wraps package functions by module attribute name;
a renamed or removed binding would only show in the slow harness self-test."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch, calls, module, name):
    """Count calls through ``module.name`` into ``calls[name]``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_every_traced_binding_resolves():
    missing = []
    for module_name, attribute, _, _ in load_bench("tracing").TARGETS:
        module = importlib.import_module(f"sceneselect.{module_name}")
        if not callable(getattr(module, attribute, None)):
            missing.append(f"{module_name}.{attribute}")
    assert missing == []


def test_counter_hooks_find_their_fields():
    # hooks read SamplingState.distinct_drawn and ModelCache.loaded
    from sceneselect import runtime, sampling

    assert isinstance(sampling.SamplingState.distinct_drawn, property)
    assert isinstance(runtime.ModelCache(1).loaded, dict)


def test_trace_invariants_find_their_fields(small_ds):
    # bench/worker.py::trace_invariants checks every serve and baselines op
    # through TraceMetrics.cache_misses and .cache_accesses and the "frames"
    # and "mean_window_f1" keys of summarize
    from sceneselect import dataset, learners, runtime

    d, c = small_ds.schema.feature_dim, small_ds.schema.num_classes
    models = [learners.new_classifier(d, 4, c, seed) for seed in range(3)]
    trace = dataset.synthesize_trace(small_ds, 2, 7, 5, seed=0)
    metrics = runtime.run_trace(trace, runtime.constant_ranker(3), models, 2)
    summary = runtime.summarize(metrics)
    assert load_bench("worker").trace_invariants(metrics, summary, len(trace)) is None


def test_run_trace_calls_each_traced_layer(small_ds, monkeypatch):
    # the per-layer metrics count calls through these bindings; a call
    # inlined into run_trace would silently read as zero; every window of
    # the trace is scored in one macro_f1 call, as every frame is ranked in one
    from sceneselect import dataset, decision, learners, runtime

    calls = {}
    d, c = small_ds.schema.feature_dim, small_ds.schema.num_classes
    models = [learners.new_classifier(d, 4, c, seed) for seed in range(4)]
    dm = decision.DecisionModel(
        backbone=learners.new_classifier(d, 5, 3, 10), head=learners.new_classifier(5, 6, 4, 11)
    )
    trace = dataset.synthesize_trace(small_ds, 2, 7, 5, seed=0)
    for module, name in [(runtime, "rank_models"), (runtime, "cache_request"),
                         (runtime, "macro_f1"), (learners, "predict")]:
        count_calls(monkeypatch, calls, module, name)

    metrics = runtime.run_trace(trace, dm, models, 2, window=10)
    served = set(metrics.served.tolist())
    assert calls == {
        "rank_models": 1,
        "cache_request": len(trace),
        "macro_f1": 1,
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
    for name in ("gradient", "cross_entropy"):
        count_calls(monkeypatch, calls, learners, name)

    rng = np.random.default_rng(0)
    n, epochs = 23, 3
    for batch_size in (5, 23, 1):
        calls.clear()
        model = learners.new_classifier(4, 6, 3, 1)
        cfg = learners.TrainConfig(0.1, epochs, batch_size, seed=2)
        learners.train(model, rng.normal(size=(n, 4)), rng.integers(0, 3, n), cfg)
        assert calls == {"gradient": epochs * math.ceil(n / batch_size), "cross_entropy": epochs}


def test_train_stack_calls_gradient_per_stacked_step(monkeypatch):
    # per epoch: one stacked call for each step at which any model has a
    # full batch, one stack-of-one call per ragged batch, one loss per model
    import numpy as np

    from sceneselect import learners

    calls = {}
    for name in ("gradient", "cross_entropy"):
        count_calls(monkeypatch, calls, learners, name)

    rng = np.random.default_rng(0)
    epochs = 2
    for sizes, batch_size in [((23, 9, 16, 4), 5), ((20, 10, 15), 5), ((7, 3), 8), ((6,), 1)]:
        calls.clear()
        models = [learners.new_classifier(4, 6, 3, j) for j in range(len(sizes))]
        cfgs = [learners.TrainConfig(0.1, epochs, batch_size, seed=j) for j in range(len(sizes))]
        Xs = [rng.normal(size=(n, 4)) for n in sizes]
        ys = [rng.integers(0, 3, n) for n in sizes]
        learners.train_stack(models, Xs, ys, cfgs)
        full_steps = max(sizes) // batch_size
        ragged = sum(1 for n in sizes if n % batch_size)
        assert calls == {
            "gradient": epochs * (full_steps + ragged),
            "cross_entropy": epochs * len(sizes),
        }
