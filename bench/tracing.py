"""Spans and counters recorded from outside the package.

`Tracer.install` replaces module bindings that the program calls with
wrappers that record a span per call: (name, start, end, parent span, op id).
Spans live in flat arrays in memory and are written out once, at the end of
the run. Nothing inside ``src/`` is changed; `Tracer.restore` puts every
original binding back.

Op ids: 0 is worker set-up, 1.. are traced ops.
"""

from __future__ import annotations

import importlib
import json
import os
from array import array
from collections import defaultdict
from time import perf_counter

SETUP = 0


def _count_cache(tracer, args, before, result):
    cache = args[0]
    _, miss = result
    tracer.count("runtime.cache_misses" if miss else "runtime.cache_hits")
    tracer.count("runtime.cache_evictions", len(before - set(cache.loaded)))


def _count_written(tracer, args, before, result):
    tracer.count("artifacts.bytes_written", os.path.getsize(args[0]))


# (module, attribute, span name, counter hook). One entry per binding the
# program looks up at call time: a function imported by name into another
# module is wrapped in each importer, under the same span name.
TARGETS = [
    ("cli", "cmd_generate", "cli.generate", None),
    ("cli", "cmd_profile", "cli.profile", None),
    ("cli", "cmd_sample", "cli.sample", None),
    ("cli", "cmd_train_decision", "cli.train_decision", None),
    ("cli", "generate_dataset", "dataset.generate", None),
    ("cli", "save_dataset", "dataset.save", None),
    ("cli", "load_dataset", "dataset.load", None),
    ("dataset", "load_dataset", "dataset.load", None),
    ("cli", "synthesize_trace", "dataset.trace", None),
    ("dataset", "synthesize_trace", "dataset.trace", None),
    ("learners", "train", "learners.train", None),
    ("learners", "gradient", "learners.gradient", None),
    ("learners", "cross_entropy", "learners.cross_entropy", None),
    ("learners", "predict", "learners.predict", None),
    ("profiling", "train_scene_encoder", "profiling.encoder", None),
    (
        "profiling", "build_repository", "profiling.repository",
        lambda t, a, b, r: t.count("profiling.models_accepted", len(r)),
    ),
    (
        "profiling", "kmeans", "profiling.kmeans",
        lambda t, a, b, r: t.count("profiling.kmeans_iters", len(r.inertia_history)),
    ),
    (
        "runtime", "kmeans", "profiling.kmeans",
        lambda t, a, b, r: t.count("profiling.kmeans_iters", len(r.inertia_history)),
    ),
    ("profiling", "macro_f1", "profiling.macro_f1", None),
    ("runtime", "macro_f1", "profiling.macro_f1", None),
    (
        "sampling", "adaptive_sampling", "sampling.adaptive",
        lambda t, a, b, r: t.count("sampling.rows", r.distinct_drawn),
    ),
    ("sampling", "thompson_round", "sampling.round", None),
    (
        "decision", "train_decision", "decision.train",
        lambda t, a, b, r: t.count("decision.head_rows", len(a[2])),
    ),
    ("runtime", "rank_models", "decision.rank", None),
    ("runtime", "run_trace", "runtime.run_trace", None),
    ("runtime", "cache_request", "runtime.cache_request", _count_cache),
    ("runtime", "build_baseline", "runtime.baseline_build", None),
    ("cli", "write_artifact", "artifacts.write", _count_written),
    ("profiling", "write_artifact", "artifacts.write", _count_written),
    ("sampling", "write_artifact", "artifacts.write", _count_written),
    ("decision", "write_artifact", "artifacts.write", _count_written),
    ("cli", "read_artifact", "artifacts.read", None),
    ("profiling", "read_artifact", "artifacts.read", None),
    ("decision", "read_artifact", "artifacts.read", None),
    ("artifacts", "read_artifact", "artifacts.read", None),
    ("cli", "sha256_file", "artifacts.hash", None),
    ("artifacts", "sha256_file", "artifacts.hash", None),
]

# Hooks that need state from before the call.
BEFORE = {
    "runtime.cache_request": lambda args: set(args[0].loaded),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = SETUP
        self.counters = defaultdict(float)  # (op id, counter name) -> total
        self._stack = []
        self._bindings = None  # (module, attribute, original, wrapper)

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name, value=1):
        self.counters[(self.op_id, name)] += value

    def wrap(self, fn, name, hook=None):
        nid = self._intern(name)
        before = BEFORE.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            state = before(args) if before else None
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, state, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package="sceneselect"):
        if self._bindings is None:
            self._bindings = []
            for module_name, attr, name, hook in TARGETS:
                module = importlib.import_module(f"{package}.{module_name}")
                original = getattr(module, attr)
                self._bindings.append((module, attr, original, self.wrap(original, name, hook)))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def dump(self, path):
        """Write the spans as one .npz of columns plus the name table."""
        import numpy as np

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def layer_metrics(tracer, measured_ops):
    """Per-layer figures: what set-up costs plus what one measured op costs.

    Totals and counts are set-up (op 0) plus the mean over measured ops;
    `_us` figures are the mean duration of one call over the same spans.
    """
    import numpy as np

    names = tracer.names
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    op = np.frombuffer(tracer.op, dtype=np.int32)
    ops = max(measured_ops, 1)
    setup = op == SETUP

    def per_op(m, values=None):
        """Set-up spans count once, measured-op spans 1/ops each."""
        v = np.ones(len(nid)) if values is None else values
        return float(v[m & setup].sum() + v[m & ~setup].sum() / ops)

    def mask(name):
        if name not in names:
            return np.zeros(len(nid), dtype=bool)
        return nid == names.index(name)

    def calls(name):
        return per_op(mask(name))

    def total(name):
        return per_op(mask(name), dur)

    def mean_us(name):
        m = mask(name)
        return float(dur[m].mean() * 1e6) if m.any() else 0.0

    def counter(name):
        at_setup = tracer.counters.get((SETUP, name), 0)
        in_ops = sum(v for (o, n), v in tracer.counters.items() if n == name and o != SETUP)
        return float(at_setup + in_ops / ops)

    def ratio(a, b):
        return a / b if b else 0.0

    # self time of run_trace: its spans minus their direct children
    run = mask("runtime.run_trace")
    child_of_run = parent >= 0
    child_of_run[child_of_run] = run[parent[child_of_run]]
    run_trace_self = total("runtime.run_trace") - per_op(child_of_run, dur)

    # models trained inside repository construction
    repo = mask("profiling.repository")
    trained = mask("learners.train") & (parent >= 0)
    trained[trained] = repo[parent[trained]]
    models_trained = per_op(trained)
    models_accepted = counter("profiling.models_accepted")

    hits, misses = counter("runtime.cache_hits"), counter("runtime.cache_misses")
    rounds, rows = calls("sampling.round"), counter("sampling.rows")
    return {
        "learners.train_calls": (calls("learners.train"), "count"),
        "learners.train_s": (total("learners.train"), "s"),
        "learners.sgd_steps": (calls("learners.gradient"), "count"),
        "learners.step_us": (mean_us("learners.gradient"), "us"),
        "learners.epoch_loss_s": (total("learners.cross_entropy"), "s"),
        "learners.predict_calls": (calls("learners.predict"), "count"),
        "learners.predict_us": (mean_us("learners.predict"), "us"),
        "profiling.encoder_s": (total("profiling.encoder"), "s"),
        "profiling.repository_s": (total("profiling.repository"), "s"),
        "profiling.models_trained": (models_trained, "count"),
        "profiling.models_accepted": (models_accepted, "count"),
        "profiling.accept_ratio": (ratio(models_accepted, models_trained), "ratio"),
        "profiling.kmeans_calls": (calls("profiling.kmeans"), "count"),
        "profiling.kmeans_iters": (counter("profiling.kmeans_iters"), "count"),
        "profiling.kmeans_s": (total("profiling.kmeans"), "s"),
        "profiling.macro_f1_calls": (calls("profiling.macro_f1"), "count"),
        "profiling.macro_f1_s": (total("profiling.macro_f1"), "s"),
        "sampling.adaptive_s": (total("sampling.adaptive"), "s"),
        "sampling.rounds": (rounds, "count"),
        "sampling.round_us": (mean_us("sampling.round"), "us"),
        "sampling.rows": (rows, "count"),
        "sampling.row_yield": (ratio(rows, rounds), "ratio"),
        "decision.train_s": (total("decision.train"), "s"),
        "decision.head_rows": (counter("decision.head_rows"), "count"),
        "decision.rank_calls": (calls("decision.rank"), "count"),
        "decision.rank_us": (mean_us("decision.rank"), "us"),
        "runtime.run_trace_calls": (calls("runtime.run_trace"), "count"),
        "runtime.run_trace_self_s": (run_trace_self, "s"),
        "runtime.cache_requests": (calls("runtime.cache_request"), "count"),
        "runtime.cache_hits": (hits, "count"),
        "runtime.cache_misses": (misses, "count"),
        "runtime.cache_evictions": (counter("runtime.cache_evictions"), "count"),
        "runtime.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "runtime.cache_request_us": (mean_us("runtime.cache_request"), "us"),
        "runtime.baseline_build_s": (total("runtime.baseline_build"), "s"),
        "dataset.generate_s": (total("dataset.generate"), "s"),
        "dataset.save_s": (total("dataset.save"), "s"),
        "dataset.load_s": (total("dataset.load"), "s"),
        "dataset.trace_s": (total("dataset.trace"), "s"),
        "artifacts.writes": (calls("artifacts.write"), "count"),
        "artifacts.write_s": (total("artifacts.write"), "s"),
        "artifacts.bytes_written": (counter("artifacts.bytes_written"), "bytes"),
        "artifacts.reads": (calls("artifacts.read"), "count"),
        "artifacts.read_s": (total("artifacts.read"), "s"),
        "artifacts.hash_s": (total("artifacts.hash"), "s"),
        "cli.generate_s": (total("cli.generate"), "s"),
        "cli.profile_s": (total("cli.profile"), "s"),
        "cli.sample_s": (total("cli.sample"), "s"),
        "cli.train_decision_s": (total("cli.train_decision"), "s"),
        "trace.spans_per_op": (per_op(np.ones(len(nid), dtype=bool)), "count"),
    }
