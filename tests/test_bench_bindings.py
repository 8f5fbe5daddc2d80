"""The benchmark's tracer wraps package functions by module attribute name;
a renamed or removed binding would only show in the slow harness self-test."""

import importlib
import importlib.util
from pathlib import Path

from conftest import train_pooled

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
    # the trace is scored in one macro_f1 call, as every frame is ranked in
    # one, and the cache walks every run of equal top-1 in one call (head
    # seed 12 gives this trace 9 such runs)
    from sceneselect import dataset, decision, learners, runtime

    calls = {}
    d, c = small_ds.schema.feature_dim, small_ds.schema.num_classes
    models = [learners.new_classifier(d, 4, c, seed) for seed in range(4)]
    dm = decision.DecisionModel(
        backbone=learners.new_classifier(d, 5, 3, 10), head=learners.new_classifier(5, 6, 4, 12)
    )
    trace = dataset.synthesize_trace(small_ds, 2, 7, 5, seed=0)
    for module, name in [(runtime, "rank_models"), (runtime, "cache_request"),
                         (runtime, "macro_f1"), (learners, "predict")]:
        count_calls(monkeypatch, calls, module, name)

    metrics = runtime.run_trace(trace, dm, models, 2, window=10)
    served = set(metrics.served.tolist())
    top1 = metrics.top1.tolist()
    runs = 1 + sum(a != b for a, b in zip(top1, top1[1:]))
    assert 1 < runs < len(trace)
    assert calls == {
        "rank_models": 1,
        "cache_request": 1,
        "macro_f1": 1,
        "predict": len(served),
    }
    assert len(served) <= len(models)


def test_train_calls_gradient_per_step_and_loss_per_epoch(monkeypatch):
    # learners.sgd_steps and learners.epoch_loss_s count these bindings; a
    # step or loss inlined into train would silently read as zero. A stable
    # run's loss bound rules out divergence, so it computes no loss; a
    # diverging run computes its loss and raises after epoch 0
    import math

    import numpy as np
    import pytest

    from sceneselect import learners
    from sceneselect.errors import DivergedError

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
        assert calls == {"gradient": epochs * math.ceil(n / batch_size)}

    calls.clear()
    model = learners.new_classifier(4, 6, 3, 1)
    cfg = learners.TrainConfig(1e160, epochs, 5, seed=2)
    with np.errstate(all="ignore"), pytest.raises(DivergedError) as err:
        learners.train(model, rng.normal(size=(n, 4)) * 100, rng.integers(0, 3, n), cfg)
    assert err.value.epoch == 0
    assert calls == {"gradient": math.ceil(n / 5), "cross_entropy": 1}


def test_train_stack_calls_gradient_per_stacked_step(monkeypatch):
    # per epoch: one stacked call for each step at which any model has a
    # full batch, one call per distinct length of ragged last batch, however
    # many models share it; a loss only for a model whose loss bound does
    # not rule out divergence
    import numpy as np
    import pytest

    from sceneselect import learners
    from sceneselect.errors import DivergedError

    calls = {}
    for name in ("gradient", "cross_entropy"):
        count_calls(monkeypatch, calls, learners, name)

    rng = np.random.default_rng(0)
    epochs = 2
    for sizes, batch_size, diverging in [
        ((23, 9, 16, 4), 5, None), ((20, 10, 15), 5, None), ((7, 3), 8, None), ((6,), 1, None),
        ((12, 7, 12, 3, 7, 12), 5, None), ((8, 8, 8), 3, None),  # equal sizes share their last batch
        ((23, 9, 16, 4), 5, 2),  # a training set scaled past the bound
    ]:
        calls.clear()
        models = [learners.new_classifier(4, 6, 3, j) for j in range(len(sizes))]
        cfgs = [learners.TrainConfig(0.1, epochs, batch_size, seed=j) for j in range(len(sizes))]
        Xs = [rng.normal(size=(n, 4)) for n in sizes]
        ys = [rng.integers(0, 3, n) for n in sizes]
        full_steps = max(sizes) // batch_size
        ragged = len({n for n in sizes if n % batch_size})
        if diverging is None:
            train_pooled(models, Xs, ys, cfgs)
            assert calls == {"gradient": epochs * (full_steps + ragged)}
        else:
            Xs[diverging] *= 1e200
            with np.errstate(all="ignore"), pytest.raises(DivergedError) as err:
                train_pooled(models, Xs, ys, cfgs)
            assert err.value.epoch == 0
            assert calls == {"gradient": full_steps + ragged, "cross_entropy": 1}


def test_adaptive_sampling_calls_thompson_round_per_draw_and_per_none(small_ds, monkeypatch):
    # sampling.rounds counts this binding; a round inlined into
    # adaptive_sampling would silently read as zero. Every draw is one call,
    # and so is every round that finds no arm free to draw: each raise of
    # the share cap, and the last round once every arm is frozen
    from types import SimpleNamespace

    import numpy as np

    from sceneselect import learners, sampling

    results = []
    original = sampling.thompson_round

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(sampling, "thompson_round", counted)
    d, c = small_ds.schema.feature_dim, small_ds.schema.num_classes
    gammas = [[0, 1, 2], [2, 3, 4, 5, 6, 7, 8, 9, 10, 11], [11, 12, 13, 14]]
    repo = SimpleNamespace(
        entries=[SimpleNamespace(scene=SimpleNamespace(train_indices=np.array(g))) for g in gammas],
        models=[learners.new_classifier(d, 4, c, seed) for seed in range(len(gammas))],
    )

    # a budget above the 15-row union: no cap, so one None once all are exhausted
    state = sampling.adaptive_sampling(small_ds, repo, sampling.SamplingConfig(0.9, 40, 3))
    assert sum(r is not None for r in results) == sum(a.drawn for a in state.arms) == 17
    assert results.count(None) == 1

    # a budget of 12 caps each arm at 4 draws; the 3-row arm drains first,
    # so the cap must rise before the budget is spent
    results.clear()
    state = sampling.adaptive_sampling(small_ds, repo, sampling.SamplingConfig(0.9, 12, 3))
    assert state.distinct_drawn == 12
    assert sum(r is not None for r in results) == sum(a.drawn for a in state.arms)
    assert results.count(None) >= 1


def test_worker_builds_and_serves_through_the_package(tmp_path):
    # bench/worker.py calls the CLI, the loaders and run_trace with its own
    # arguments; a changed signature there would otherwise show only in the
    # slow harness self-test
    from sceneselect import cli

    worker = load_bench("worker")
    spec = {"workload": "serve", "config": str(BENCH / "tiny.ini"), "seed": 17, "dataset_seed": 42,
            "work": str(tmp_path), "prep": str(tmp_path)}
    _, codes = worker.Build(spec, cli).run(None, out=spec["prep"])
    assert codes == [0] * len(worker.STAGES)
    serve = worker.Serve(spec, cli)
    serve.setup()
    key = serve.schedule()[0]
    assert serve.check(key, serve.run(key)) == [(f"run_trace:{key[0]}/{key[1]}", None)]
