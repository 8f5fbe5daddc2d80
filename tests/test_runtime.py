import csv
import dataclasses
import functools
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneselect import learners, profiling, runtime
from sceneselect.dataset import generate_dataset, part_indices, synthesize_trace
from sceneselect.errors import ConfigError
from sceneselect.runtime import (
    ModelCache,
    cache_request,
    run_baselines,
    run_trace,
    summarize,
    write_metrics_csv,
)

from conftest import decision_probs, params_hash, small_generator_config
from test_profiling import cpus_usable, quick_train_cfg


class ReferenceCache:
    """Deliberately dumb re-statement of the documented cache semantics."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []  # [model, use_count, load_order]
        self.clock = 0
        self.evictions = 0

    def request(self, ranking):
        ranking = list(ranking)
        top = ranking[0]
        for e in self.entries:
            if e[0] == top:
                e[1] += 1
                return top, False
        if not self.entries:
            self.entries.append([top, 1, self.clock])
            self.clock += 1
            return top, True
        loaded = {e[0] for e in self.entries}
        served = next(m for m in ranking if m in loaded)
        victim = None
        if len(self.entries) >= self.capacity:
            victim = min(self.entries, key=lambda e: (e[1], e[2]))
        for e in self.entries:
            if e[0] == served:
                e[1] += 1
        if victim is not None:
            self.entries.remove(victim)
            self.evictions += 1
        self.entries.append([top, 0, self.clock])
        self.clock += 1
        return served, True


def request(cache, ranking, frames=1):
    """One request of ``frames`` frames, as a walk over one run: its
    (served, missed)."""
    [served], [missed] = cache_request(cache, [ranking], [frames])
    return served, missed


@dataclasses.dataclass
class FrameRecord:
    frame: int
    window_id: int
    served_model: int
    top1_model: int
    miss: bool
    correct: bool


def write_reference_csv(records, path):
    """The per-frame CSV writer run_trace's columns replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame", "window_id", "served_model", "top1_model", "miss", "correct"])
        for r in records:
            writer.writerow(
                [r.frame, r.window_id, r.served_model, r.top1_model, int(r.miss), int(r.correct)]
            )


def reference_run_trace(trace, decision, models, cache_capacity, window=10, low_confidence=0.2):
    """The per-frame loop run_trace replaced: rank and predict on batches of
    one, the cache request, then macro F1 per window. ``decision`` is a
    DecisionModel, ranked by its probabilities and flagging each frame whose
    top probability is below ``low_confidence``, or a per-frame ranker
    (trace, frame) -> ranking, which has no confidence and flags none."""
    if hasattr(models, "models"):
        models = models.models
    if isinstance(decision, runtime.DecisionModel):

        def ranker(trace, frame):
            probs = decision_probs(decision, trace.features[frame][None])[0]
            return probs.max(), np.argsort(-probs, kind="stable")
    else:

        def ranker(trace, frame):
            return None, decision(trace, frame)

    num_classes = models[0].output_dim
    cache = ModelCache(cache_capacity)
    records = []
    top1_counts = np.zeros(len(models), dtype=int)
    misses = 0
    low_conf = 0
    prev_served = None
    switch_frames = []
    preds = []
    for frame in range(len(trace)):
        confidence, ranking = ranker(trace, frame)
        top1 = int(ranking[0])
        top1_counts[top1] += 1
        if confidence is not None and confidence < low_confidence:
            low_conf += 1
        served, miss = request(cache, ranking)
        misses += int(miss)
        if prev_served is not None and served != prev_served:
            switch_frames.append(frame)
        prev_served = served
        pred = int(learners.predict(models[served], trace.features[frame][None])[0])
        preds.append(pred)
        records.append(
            FrameRecord(
                frame=frame,
                window_id=frame // window,
                served_model=served,
                top1_model=top1,
                miss=miss,
                correct=pred == trace.labels[frame],
            )
        )

    labels = trace.labels.tolist()
    window_f1 = []
    for w in range((len(trace) + window - 1) // window):
        lo, hi = w * window, min((w + 1) * window, len(trace))
        window_f1.append((w, profiling.macro_f1(preds[lo:hi], labels[lo:hi], num_classes)))
    return records, window_f1, switch_frames, top1_counts, low_conf


def assert_matches_reference(metrics, reference, tmp_path):
    records, window_f1, switch_frames, top1_counts, low_conf = reference
    assert metrics.cache_accesses == len(records)
    assert metrics.served.tolist() == [r.served_model for r in records]
    assert metrics.top1.tolist() == [r.top1_model for r in records]
    assert metrics.missed.tolist() == [r.miss for r in records]
    assert metrics.correct.tolist() == [r.correct for r in records]
    write_metrics_csv(metrics, tmp_path / "columns.csv")
    write_reference_csv(records, tmp_path / "records.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()
    assert list(enumerate(metrics.window_f1.tolist())) == window_f1
    assert summarize(metrics)["switches"] == len(switch_frames)
    assert metrics.top1_counts.tolist() == top1_counts.tolist()
    assert metrics.low_confidence_events == low_conf
    assert metrics.cache_misses == sum(r.miss for r in records)


def constant_rank_one(trace, frame):
    return np.arange(1)


def cdg_rank_one(centroids, trace, frame):
    d = np.linalg.norm(centroids - trace.features[frame], axis=1)
    return np.argsort(d, kind="stable")


def dmm_rank_one(families, trace, frame):
    own = families.index(trace.attrs[frame][0])
    return np.array([own] + [i for i in range(len(families)) if i != own])


def reference_train_global_model(ds, hidden_dim, cfg):
    """sdm and ssm as once built: one learners.train call over the training split."""
    train = part_indices(ds, "train")
    model = learners.new_classifier(ds.schema.feature_dim, hidden_dim, ds.schema.num_classes, cfg.seed)
    learners.train(model, ds.features[train], ds.labels[train], cfg)
    return model


def reference_train_alone(ds, row_sets, hidden_dim, cfg, seeds):
    """One model per row set, each trained alone on its own copy of the rows."""
    models = []
    for rows, seed in zip(row_sets, seeds):
        model = learners.new_classifier(ds.schema.feature_dim, hidden_dim, ds.schema.num_classes, seed)
        learners.train(model, ds.features[rows], ds.labels[rows], dataclasses.replace(cfg, seed=seed))
        models.append(model)
    return models


def reference_build_cdg(ds, k, hidden_dim, cfg, seed):
    train = part_indices(ds, "train")
    result = profiling.kmeans(ds.features[train], k, seed=seed)
    members = [train[result.assignments == j] for j in range(k)]
    seeds = range(seed + 1, seed + k + 1)
    return runtime.cdg_ranker(result.centroids), reference_train_alone(ds, members, hidden_dim, cfg, seeds)


def reference_build_dmm(ds, hidden_dim, cfg, seed):
    train = part_indices(ds, "train")
    family = ds.attrs[train, 0]
    families = np.unique(family)
    members = [train[family == fam] for fam in families]
    seeds = range(seed, seed + len(families))
    return runtime.dmm_ranker(families), reference_train_alone(ds, members, hidden_dim, cfg, seeds)


def reference_build_baseline(name, ds, compressed_hidden, deep_hidden, num_models, cfg, seed):
    """build_baseline as it was with one builder per baseline."""
    tc = dataclasses.replace(cfg, seed=seed)
    if name == "sdm":
        return runtime.constant_ranker(1), [reference_train_global_model(ds, deep_hidden, tc)]
    if name == "ssm":
        return runtime.constant_ranker(1), [reference_train_global_model(ds, compressed_hidden, tc)]
    if name == "cdg":
        return reference_build_cdg(ds, num_models, compressed_hidden, tc, seed)
    return reference_build_dmm(ds, compressed_hidden, tc, seed)


@pytest.fixture(scope="module")
def bench42_baselines(bench42):
    """name -> (batch ranker, per-frame reference ranker, models), from build_baseline."""
    ds, cfg = bench42.ds, bench42.cfg
    seeds = cfg.baseline_seeds

    def build(name):
        return runtime.build_baseline(
            name, ds, cfg.profiling.compressed_hidden, cfg.deep_hidden, cfg.profiling.n,
            cfg.baseline_train, seeds[name],
        )

    (sdm_ranker, sdm_models), (cdg_ranker, cdg_models), (dmm_ranker, dmm_models) = map(
        build, ("sdm", "cdg", "dmm")
    )
    # the centroids and families build_baseline derives, restated for the per-frame rankers
    train = part_indices(ds, "train")
    centroids = profiling.kmeans(ds.features[train], cfg.profiling.n, seed=seeds["cdg"]).centroids
    families = sorted(set(ds.attrs[train, 0].tolist()))
    return {
        "sdm": (sdm_ranker, constant_rank_one, sdm_models),
        "cdg": (cdg_ranker, functools.partial(cdg_rank_one, centroids), cdg_models),
        "dmm": (dmm_ranker, functools.partial(dmm_rank_one, families), dmm_models),
    }


class TestWholeTraceMatchesPerFrame:
    """run_trace ranks and predicts the whole trace in batches; it must give
    what the per-frame loop gives."""

    def test_decision_model_every_capacity(self, bench42, tmp_path):
        cfg = bench42.cfg
        for cap in range(1, len(bench42.repo.models) + 1):
            args = (bench42.trace, bench42.decision, bench42.repo, cap, cfg.window, cfg.low_confidence)
            assert_matches_reference(run_trace(*args), reference_run_trace(*args), tmp_path)

    def test_decision_model_low_confidence_events(self, bench42, tmp_path):
        # the default threshold of 0.2 flags no frame of this trace; the
        # median confidence flags about half of them
        trace, cfg = bench42.trace, bench42.cfg
        low = float(np.median(decision_probs(bench42.decision, trace.features).max(axis=1)))
        args = (trace, bench42.decision, bench42.repo, cfg.capacity, cfg.window, low)
        metrics = run_trace(*args)
        assert 0 < metrics.low_confidence_events < len(trace)
        assert_matches_reference(metrics, reference_run_trace(*args), tmp_path)

    @pytest.mark.parametrize("name", ["sdm", "cdg", "dmm"])
    def test_baseline_rankers(self, bench42, bench42_baselines, name, tmp_path):
        ranker, rank_one, models = bench42_baselines[name]
        for cap in range(1, len(models) + 1):
            metrics = run_trace(bench42.trace, ranker, models, cap, bench42.cfg.window)
            reference = reference_run_trace(bench42.trace, rank_one, models, cap, bench42.cfg.window)
            assert_matches_reference(metrics, reference, tmp_path)

    def test_baseline_ranker_records_no_low_confidence_event(self, bench42, bench42_baselines):
        # only the decision head has a confidence: even a threshold of 1
        # flags no frame a baseline ranks
        ranker, _, models = bench42_baselines["cdg"]
        metrics = run_trace(bench42.trace, ranker, models, bench42.cfg.capacity, bench42.cfg.window, 1.0)
        assert metrics.low_confidence_events == 0


class TestCacheUnit:
    def test_capacity_zero_rejected(self):
        with pytest.raises(ConfigError):
            ModelCache(0)

    def test_hit_increments_use_count(self):
        cache = ModelCache(2)
        request(cache, [0, 1, 2])
        served, miss = request(cache, [0, 1, 2])
        assert (served, miss) == (0, False)
        assert cache.loaded == {0: 2}  # model -> use count

    def test_empty_cache_loads_and_serves_top(self):
        cache = ModelCache(2)
        served, miss = request(cache, [2, 0, 1])
        assert (served, miss) == (2, True)
        assert set(cache.loaded) == {2}

    def test_forced_fallback_and_lfu_eviction(self):
        # ends with loaded {A=0: 3 uses, B=1: 1 use}, then requests top C=2:
        # B outranks A in the ranking so B serves the frame, yet B is still
        # the LFU victim (pre-serve counts) and C replaces it.
        cache = ModelCache(2)
        request(cache, [0, 1, 2])  # A loaded+served
        request(cache, [1, 0, 2])  # miss: A serves, B loaded (no eviction below capacity)
        request(cache, [0, 1, 2])  # hit A
        request(cache, [1, 0, 2])  # hit B
        served, miss = request(cache, [2, 1, 0])
        assert miss is True
        assert served == 1
        assert set(cache.loaded) == {0, 2}

    def test_ranking_without_a_resident_rejected(self):
        # not a permutation: it repeats model 1 and leaves out the resident 0
        cache = ModelCache(2)
        request(cache, [0, 1, 2])
        with pytest.raises(ConfigError, match="names no resident model"):
            request(cache, [1, 1, 1])
        assert cache.loaded == {0: 1}

    @pytest.mark.parametrize("frames", [0, -2])
    def test_a_miss_of_fewer_than_one_frame_rejected(self, frames):
        # a miss stores frames - 1 uses for the loaded top model; below one
        # frame that count is negative and the LFU pick would favour it
        cache, empty = ModelCache(2), ModelCache(2)
        request(cache, [0, 1, 2])
        for c in (cache, empty):
            with pytest.raises(ConfigError, match="at least one frame"):
                request(c, [1, 0, 2], frames=frames)
        assert (cache.loaded, empty.loaded) == ({0: 1}, {})

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
    def test_returns_a_python_int_and_a_bool(self, as_array):
        # a cold miss, a hit, a miss the old resident serves, and a miss that
        # a resident serves and is then evicted for the top model
        rankings = [[1, 0, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]]
        cache = ModelCache(2)
        results = [cache_request(cache, np.array(r) if as_array else r) for r in rankings]
        assert results == [(1, True), (1, False), (1, True), (2, True)]
        for served, miss in results:
            assert type(served) is int and type(miss) is bool
        assert set(cache.loaded) == {0, 1}

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_frame_without_lengths_is_a_walk_of_one_run(self, data):
        # cache_request(cache, ranking) answers one frame's request as a pair
        n = data.draw(st.integers(1, 6))
        capacity = data.draw(st.integers(1, n))
        rankings = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=30))
        as_row = data.draw(st.sampled_from([list, np.array]))
        single, walked = ModelCache(capacity), ModelCache(capacity)
        for ranking in rankings:
            served, missed = cache_request(single, as_row(ranking))
            assert (served, missed) == request(walked, ranking)
            assert type(served) is int and type(missed) is bool
            assert list(single.loaded.items()) == list(walked.loaded.items())

    def test_capacity_at_least_n_only_cold_misses(self):
        cache = ModelCache(4)
        rng = np.random.default_rng(0)
        misses = 0
        tops = []
        for _ in range(100):
            ranking = rng.permutation(4)
            tops.append(ranking[0])
            _, miss = request(cache, ranking)
            misses += int(miss)
        assert misses == len(set(tops))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_invariants_after_every_request(self, data):
        n = data.draw(st.integers(1, 6))
        capacity = data.draw(st.integers(1, n))
        rankings = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=40))
        cache = ModelCache(capacity)
        hits = misses = 0
        for requests, ranking in enumerate(rankings, start=1):
            before = set(cache.loaded)
            served, miss = request(cache, ranking)
            hits += not miss
            misses += miss
            assert len(cache.loaded) <= capacity
            # served from residency, or a miss that loaded it (only into an empty cache)
            assert served in before or (miss and not before and served == ranking[0])
            assert miss == (ranking[0] not in before)
            assert ranking[0] in cache.loaded
            assert hits + misses == requests
            # a miss loads exactly the top model, as the newest entry; a hit loads none
            assert set(cache.loaded) - before == ({ranking[0]} if miss else set())
            if miss:
                assert next(reversed(cache.loaded)) == ranking[0]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_position_fallback_reference(self, data):
        # the fast path takes the first resident in ranking order and the
        # LFU victim as the first least-used entry of a dict kept in load
        # order; both must agree with the reference's explicit load clock,
        # down to every resident's use count and the residents' load order
        n = data.draw(st.integers(1, 8))
        capacity = data.draw(st.integers(1, n))
        rankings = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=60))
        cache, ref = ModelCache(capacity), ReferenceCache(capacity)
        misses = 0
        for ranking in rankings:
            answer = request(cache, ranking)
            assert answer == ref.request(ranking)
            misses += answer[1]
            assert list(cache.loaded.items()) == [(m, uses) for m, uses, _ in ref.entries]
            assert misses == ref.clock  # one load per miss

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_evict_and_reload_cycles_match_reference(self, data):
        # more distinct tops than slots, each visited once per cycle, so
        # models are evicted and loaded again; a reloaded model must come
        # back as the newest entry with a fresh count, as the reference's
        # clock says. Each visit is a run of 1-3 frames, asked once.
        capacity = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(capacity + 1, capacity + 3))
        cycles = data.draw(st.integers(2, 5))
        rnd = data.draw(st.randoms(use_true_random=False))
        cache, ref = ModelCache(capacity), ReferenceCache(capacity)
        loads = [0] * n
        for _ in range(cycles):
            for top in rnd.sample(range(n), n):
                ranking = [top] + rnd.sample([m for m in range(n) if m != top], n - 1)
                length = rnd.randint(1, 3)
                answer = request(cache, ranking, length)
                assert answer == ref.request(ranking)
                for _ in range(length - 1):
                    assert ref.request(ranking) == (top, False)
                loads[top] += answer[1]
                assert list(cache.loaded.items()) == [(m, uses) for m, uses, _ in ref.entries]
        assert sum(loads) == ref.clock
        assert max(loads) >= 2  # the second cycle reloads a model the first evicted

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_capacity_above_model_count_acts_as_model_count(self, data):
        # a cache that holds every model never evicts, so extra slots change nothing
        n = data.draw(st.integers(1, 6))
        capacity = data.draw(st.integers(n, n + 3))
        rankings = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=40))
        big, exact = ModelCache(capacity), ModelCache(n)
        for ranking in rankings:
            assert request(big, ranking) == request(exact, ranking)
            assert list(big.loaded.items()) == list(exact.loaded.items())

    def test_matches_reference_on_random_traces(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            capacity = int(rng.integers(1, n + 1))
            cache, ref = ModelCache(capacity), ReferenceCache(capacity)
            for _ in range(int(rng.integers(5, 60))):
                ranking = rng.permutation(n)
                assert request(cache, ranking) == ref.request(list(ranking))
                assert len(cache.loaded) <= capacity


class TestCachePerRun:
    """run_trace asks the cache once per trace, with each run of equal
    top-1 given by its first frame's ranking and its length; it must give
    what one request per frame gives."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_walk_matches_per_frame_reference(self, data):
        # one call over every run against one reference request per frame:
        # each run's answer, then every resident's use count and the load order
        n = data.draw(st.integers(1, 6))
        capacity = data.draw(st.integers(1, n + 1))
        runs = data.draw(st.lists(st.tuples(st.permutations(range(n)), st.integers(1, 6)), max_size=40))
        cache, ref = ModelCache(capacity), ReferenceCache(capacity)
        served, missed = cache_request(cache, [r for r, _ in runs], [length for _, length in runs])
        expected = []
        for ranking, length in runs:
            expected.append(ref.request(ranking))
            for _ in range(length - 1):
                assert ref.request(ranking) == (ranking[0], False)
        assert list(zip(served, missed)) == expected
        assert {type(m) for m in served} <= {int} and {type(m) for m in missed} <= {bool}
        assert list(cache.loaded.items()) == [(m, uses) for m, uses, _ in ref.entries]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_an_error_mid_walk_leaves_the_state_of_per_run_calls(self, data):
        # a miss that names no resident, or of fewer than one frame, inserted
        # at a random run: the walk raises what the per-run call raises, and
        # leaves the cache as the runs before it left it
        n = data.draw(st.integers(2, 6))
        capacity = data.draw(st.integers(1, n - 1))  # so some model is never resident
        runs = data.draw(
            st.lists(st.tuples(st.permutations(range(n)), st.integers(1, 4)), min_size=1, max_size=30)
        )
        fault = data.draw(st.sampled_from(["names no resident model", "at least one frame"]))
        # a cold miss checks its length but not its ranking
        at = data.draw(st.integers(int(fault == "names no resident model"), len(runs)))
        per_run = ModelCache(capacity)
        for ranking, length in runs[:at]:
            request(per_run, ranking, length)
        before = list(per_run.loaded.items())
        top = data.draw(st.sampled_from([m for m in range(n) if m not in per_run.loaded]))
        if fault == "names no resident model":
            bad = ([top] * n, 1)
        else:
            bad = ([top] + [m for m in range(n) if m != top], data.draw(st.integers(-2, 0)))
        with pytest.raises(ConfigError, match=fault):
            request(per_run, *bad)
        assert list(per_run.loaded.items()) == before
        walked = runs[:at] + [bad] + runs[at:]
        walk = ModelCache(capacity)
        with pytest.raises(ConfigError, match=fault):
            cache_request(walk, [r for r, _ in walked], [length for _, length in walked])
        assert list(walk.loaded.items()) == before

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_run_request_matches_per_frame_requests(self, data):
        n = data.draw(st.integers(1, 6))
        capacity = data.draw(st.integers(1, n + 1))
        runs = data.draw(st.lists(
            st.tuples(st.permutations(range(n)), st.integers(1, 6), st.randoms(use_true_random=False)),
            min_size=1, max_size=30,
        ))
        per_run, per_frame = ModelCache(capacity), ModelCache(capacity)
        for ranking, length, rnd in runs:
            answer = request(per_run, ranking, length)
            assert answer == request(per_frame, ranking)
            for _ in range(length - 1):
                # a later frame of the run: the same top, the rest in any order
                rest = ranking[1:]
                rnd.shuffle(rest)
                assert request(per_frame, [ranking[0]] + rest) == (ranking[0], False)
            assert list(per_run.loaded.items()) == list(per_frame.loaded.items())

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_run_trace_matches_per_frame_reference(self, small_ds, tmp_path_factory, data):
        full = synthesize_trace(small_ds, 2, 7, 5, seed=0)
        frames = data.draw(st.integers(1, len(full)))
        trace = dataclasses.replace(
            full, **{f.name: getattr(full, f.name)[:frames] for f in dataclasses.fields(full)}
        )
        d, c = small_ds.schema.feature_dim, small_ds.schema.num_classes
        n = data.draw(st.integers(1, 5))
        lengths = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=frames))
        tops = data.draw(st.lists(st.integers(0, n - 1), min_size=len(lengths), max_size=len(lengths)))
        top1 = np.resize(np.repeat(tops, lengths), frames)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rankings = np.array([[t] + [m for m in rng.permutation(n).tolist() if m != t] for t in top1])
        models = [learners.new_classifier(d, 4, c, seed) for seed in range(n)]
        tmp = tmp_path_factory.mktemp("runs")
        for cap in range(1, n + 2):
            metrics = run_trace(trace, lambda trace: rankings, models, cap, window=4)
            reference = reference_run_trace(trace, lambda trace, f: rankings[f], models, cap, window=4)
            assert_matches_reference(metrics, reference, tmp)

    def test_columns_keep_their_dtypes_under_an_int32_ranker(self, small_ds):
        trace = synthesize_trace(small_ds, 2, 7, 5, seed=0)
        d, c = small_ds.schema.feature_dim, small_ds.schema.num_classes
        models = [learners.new_classifier(d, 4, c, seed) for seed in range(3)]
        rng = np.random.default_rng(0)
        rankings = np.array([rng.permutation(3) for _ in range(len(trace))])
        wide = run_trace(trace, lambda trace: rankings, models, 2)
        narrow = run_trace(trace, lambda trace: rankings.astype(np.int32), models, 2)
        assert narrow.served.dtype == wide.served.dtype == np.dtype(int)
        assert narrow.missed.dtype == wide.missed.dtype == np.dtype(bool)
        assert narrow.served.tolist() == wide.served.tolist()
        assert narrow.missed.tolist() == wide.missed.tolist()
        assert wide.missed.any() and not wide.missed.all()


class TestTraceCacheCounts:
    """TraceMetrics derives its hits and evictions from the misses and the
    capacity; they must be what a per-frame reference cache counts."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hits_and_evictions_match_reference(self, small_ds, data):
        trace = synthesize_trace(small_ds, 2, 7, 5, seed=0)
        d, c = small_ds.schema.feature_dim, small_ds.schema.num_classes
        n = data.draw(st.integers(1, 6))
        capacity = data.draw(st.integers(1, n + 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # a few distinct rankings, each held for a random run of frames
        pool = np.array([rng.permutation(n) for _ in range(data.draw(st.integers(1, 6)))])
        held = np.repeat(rng.integers(0, len(pool), len(trace)), rng.integers(1, 6, len(trace)))
        rankings = pool[held[: len(trace)]]
        models = [learners.new_classifier(d, 4, c, seed) for seed in range(n)]
        metrics = run_trace(trace, lambda trace: rankings, models, capacity)
        ref = ReferenceCache(capacity)
        misses = sum(ref.request(ranking)[1] for ranking in rankings.tolist())
        assert metrics.capacity == capacity
        assert metrics.cache_misses == misses == ref.clock
        assert metrics.cache_hits == len(trace) - misses
        assert metrics.cache_evictions == ref.evictions


def reference_predictions(models, X, served):
    """The per-model loop predict_served replaced: one boolean mask and one
    fancy-index gather per served model."""
    preds = np.empty(len(served), dtype=int)
    for model in np.unique(served):
        rows = np.flatnonzero(served == model)
        preds[rows] = learners.predict(models[model], X[rows])
    return preds


class TestGroupedPrediction:
    """predict_served groups the frames by model with one stable sort and
    predicts each group on a slice; it must give what the per-model loop gives."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_per_model_loop(self, data):
        # models 1..n-2 serve random frames, model 0 exactly one frame and
        # model n-1 none
        n = data.draw(st.integers(3, 7))
        frames = data.draw(st.integers(1, 80))
        served = np.array(data.draw(st.lists(st.integers(1, n - 2), min_size=frames, max_size=frames)))
        served[data.draw(st.integers(0, frames - 1))] = 0
        served = served.astype(data.draw(st.sampled_from([np.int64, np.int32])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = rng.normal(size=(frames, 6))
        models = [learners.new_classifier(6, 4, 3, seed) for seed in range(n)]
        calls = []
        predict = learners.predict

        def counting_predict(model, batch):
            calls.append(next(i for i, m in enumerate(models) if m is model))
            return predict(model, batch)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learners, "predict", counting_predict)
            preds = runtime.predict_served(models, X, served)
        assert sorted(calls) == calls == sorted(set(served.tolist()))  # one call per served model
        assert preds.dtype == np.dtype(int)
        assert preds.tolist() == reference_predictions(models, X, served).tolist()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_run_trace_correct_column_matches_per_model_loop(self, small_ds, data):
        trace = synthesize_trace(small_ds, 2, 7, 5, seed=data.draw(st.integers(0, 3)))
        d, c = small_ds.schema.feature_dim, small_ds.schema.num_classes
        n = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # a few distinct rankings, each held for a random run of frames
        pool = np.array([rng.permutation(n) for _ in range(4)])
        rankings = pool[np.repeat(rng.integers(0, 4, len(trace)), rng.integers(1, 6, len(trace)))[: len(trace)]]
        rankings = rankings.astype(data.draw(st.sampled_from([np.int64, np.int32])))
        models = [learners.new_classifier(d, 4, c, seed) for seed in range(n)]
        for cap in range(1, n + 2):
            metrics = run_trace(trace, lambda trace: rankings, models, cap, window=4)
            preds = reference_predictions(models, trace.features, metrics.served)
            assert metrics.correct.tobytes() == (preds == trace.labels).tobytes()
            assert metrics.window_f1.tobytes() == profiling.macro_f1(preds, trace.labels, c, 4).tobytes()


class TestRunTrace:
    def test_single_model_never_switches(self, bench42):
        metrics = run_trace(
            bench42.trace, runtime.constant_ranker(1), [bench42.repo.models[0]], 3
        )
        report = summarize(metrics)
        assert report["switches"] == 0
        assert report["duration_quartiles"] == [float(len(bench42.trace))] * 5
        assert metrics.cache_misses == 1  # cold load only

    def test_accounting_identities(self, bench42):
        metrics = run_trace(bench42.trace, bench42.decision, bench42.repo, 5)
        n = len(bench42.trace)
        assert metrics.cache_accesses == n
        assert metrics.cache_misses == int(metrics.missed.sum())
        assert metrics.window_f1.shape == ((n + 9) // 10,)
        assert len(metrics.served) == len(metrics.top1) == len(metrics.missed) == len(metrics.correct) == n
        assert int(metrics.top1_counts.sum()) == n

    def test_oracle_ranking_composes_per_segment_best(self, bench42):
        # rank the truly best model of each 100-frame segment first; with
        # capacity >= n the run must reproduce the composed per-segment-best
        # predictions, diverging only on segment-entry frames where the
        # documented serve-then-load fallback serves a resident model.
        ds, repo, trace = bench42.ds, bench42.repo, bench42.trace
        seg, n = 100, len(repo.models)
        X, y = trace.features, trace.labels
        best = []
        for s in range(5):
            sl = slice(s * seg, (s + 1) * seg)
            scores = [
                profiling.macro_f1(learners.predict(m, X[sl]), y[sl], ds.schema.num_classes)
                for m in repo.models
            ]
            best.append(int(np.argmax(scores)))

        def oracle_one(frame):
            model = best[frame // seg]
            return np.array([model] + [j for j in range(n) if j != model])

        def oracle(frames):
            return np.stack([oracle_one(f) for f in range(len(frames))])

        metrics = run_trace(trace, oracle, repo.models, cache_capacity=n)

        loaded = set()
        expected_serve = []
        for i in range(len(trace)):
            want = best[i // seg]
            if want in loaded or not loaded:
                serve = want
            else:
                order = [want] + [j for j in range(n) if j != want]
                serve = next(m for m in order if m in loaded)
            loaded.add(want)  # capacity >= n: nothing is ever evicted
            expected_serve.append(serve)
        assert metrics.served.tolist() == expected_serve

        expected_preds = [
            learners.predict(repo.models[m], trace.features[i][None])[0]
            for i, m in enumerate(expected_serve)
        ]
        exp_f1 = [
            profiling.macro_f1(
                expected_preds[w * 10 : (w + 1) * 10], y[w * 10 : (w + 1) * 10], ds.schema.num_classes
            )
            for w in range(50)
        ]
        assert metrics.mean_window_f1 == pytest.approx(float(np.mean(exp_f1)))

    def test_capacity_above_repository_size_changes_nothing(self, bench42):
        def summary(cap):
            return summarize(run_trace(bench42.trace, bench42.decision, bench42.repo, cap))

        assert len(bench42.repo.models) == 8
        assert summary(9) == summary(12) == summary(8)

    def test_miss_rate_monotone_in_capacity(self, bench42):
        rates = [
            run_trace(bench42.trace, bench42.decision, bench42.repo, cap).miss_rate
            for cap in range(1, len(bench42.repo.models) + 1)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_empty_trace_rejected(self, bench42):
        with pytest.raises(ConfigError):
            run_trace([], bench42.decision, bench42.repo, 2)

    @pytest.mark.parametrize("returned", ["confidence and rankings", "one ranking"])
    def test_ranker_must_return_rankings_alone(self, bench42, returned):
        frames, n = len(bench42.trace), len(bench42.repo.models)
        rankings = np.tile(np.arange(n), (frames, 1))
        wrong = {"confidence and rankings": (np.ones(frames), rankings), "one ranking": rankings[0]}[returned]
        with pytest.raises(ConfigError, match="rankings"):
            run_trace(bench42.trace, lambda trace: wrong, bench42.repo, 2)

    @pytest.mark.parametrize("frame, row, message", [
        (7, [-1, 0, 1, 2, 3, 4, 5, 6], r"frame 7 the model index -1, outside \[0, 8\)"),
        (12, [8, 0, 1, 2, 3, 4, 5, 6], r"frame 12 the model index 8, outside \[0, 8\)"),
        (30, [1] * 8, "frame 30 a ranking that repeats a model index"),
    ], ids=["negative", "n", "repeat"])
    def test_bad_model_index_rejected_before_the_cache(self, bench42, monkeypatch, frame, row, message):
        frames, n = len(bench42.trace), len(bench42.repo.models)
        assert n == 8
        rankings = np.tile(np.arange(n), (frames, 1))
        rankings[frame] = row
        requests = []
        monkeypatch.setattr(runtime, "cache_request", lambda *args: requests.append(args))
        with pytest.raises(ConfigError, match=message):
            run_trace(bench42.trace, lambda trace: rankings, bench42.repo, 2)
        assert requests == []

    def test_ranker_must_return_integer_indices(self, bench42):
        frames, n = len(bench42.trace), len(bench42.repo.models)
        rankings = np.tile(np.arange(n, dtype=float), (frames, 1))
        with pytest.raises(ConfigError, match="integer rankings"):
            run_trace(bench42.trace, lambda trace: rankings, bench42.repo, 2)

    @pytest.mark.parametrize("window", [0, -10])
    def test_window_below_one_rejected(self, bench42, window):
        with pytest.raises(ConfigError, match="window"):
            run_trace(bench42.trace, bench42.decision, bench42.repo, 2, window=window)

    def test_decision_of_another_repository_size_rejected(self, bench42):
        with pytest.raises(ConfigError, match="^decision output width does not match the repository size$"):
            run_trace(bench42.trace, bench42.decision, bench42.repo.models[:3], 2)


class TestSummarize:
    def test_single_model_histogram(self, bench42):
        metrics = run_trace(bench42.trace, runtime.constant_ranker(1), [bench42.repo.models[0]], 1)
        report = summarize(metrics)
        assert report["top1_histogram"][0] == [0, len(bench42.trace)]
        assert report["top5_coverage"] == 1.0

    def test_durations_sum_to_trace_length(self, bench42):
        metrics = run_trace(bench42.trace, bench42.decision, bench42.repo, 5)
        report = summarize(metrics)
        # the durations are the runs of one served model, split at each switch
        durations = [len(list(run)) for _, run in itertools.groupby(metrics.served.tolist())]
        assert sum(durations) == report["frames"] == 500
        assert report["switches"] == len(durations) - 1
        assert report["duration_quartiles"] == np.percentile(durations, [0, 25, 50, 75, 100]).tolist()
        q = report["duration_quartiles"]
        assert q[0] <= q[1] <= q[2] <= q[3] <= q[4]

    def test_csv_format(self, tmp_path, bench42):
        metrics = run_trace(bench42.trace, bench42.decision, bench42.repo, 5)
        path = tmp_path / "frames.csv"
        write_metrics_csv(metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,window_id,served_model,top1_model,miss,correct"
        assert len(lines) == 501

    def test_csv_failure_mid_write_leaves_target_and_no_temp_file(self, tmp_path, bench42):
        class Unprintable:
            def __str__(self):
                raise ValueError("cannot format")

        metrics = run_trace(bench42.trace, bench42.decision, bench42.repo, 5)
        served = metrics.served.astype(object)
        served[-1] = Unprintable()  # fails on the last row, after the earlier rows
        path = tmp_path / "frames.csv"
        path.write_text("earlier file\n")
        with pytest.raises(ValueError, match="cannot format"):
            write_metrics_csv(dataclasses.replace(metrics, served=served), path)
        assert path.read_text() == "earlier file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.csv"]

    def test_empty_metrics_rejected(self, bench42):
        metrics = run_trace(bench42.trace, runtime.constant_ranker(1), [bench42.repo.models[0]], 1)
        with pytest.raises(ConfigError, match="^metrics are empty$"):
            summarize(dataclasses.replace(metrics, served=metrics.served[:0]))


class TestBaselines:
    def test_param_ratio_at_least_ten(self):
        from sceneselect import cli

        cfg = cli.load_run_config()
        d = cfg.generator.schema
        sdm = learners.new_classifier(d.feature_dim, cfg.deep_hidden, d.num_classes, 0)
        ssm = learners.new_classifier(d.feature_dim, cfg.profiling.compressed_hidden, d.num_classes, 0)
        assert sum(getattr(sdm, p).size for p in learners.PARAMS) >= 10 * sum(
            getattr(ssm, p).size for p in learners.PARAMS
        )

    def test_cdg_equidistant_tie_lowest_cluster(self):
        ranker = runtime.cdg_ranker(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
        frames = SimpleNamespace(features=np.array([[2.0, 0.0]]))
        assert ranker(frames)[0].tolist() == [0, 1, 2]

    def test_dmm_selects_family_model(self):
        ds = generate_dataset(small_generator_config(num_cells=4, cards=(2, 2)))
        ranker, models = runtime.build_baseline(
            "dmm", ds, compressed_hidden=4, deep_hidden=16, num_models=1, cfg=quick_train_cfg(epochs=2), seed=3
        )
        assert len(models) == 2  # families 0 and 1
        rows = [int(np.flatnonzero(ds.attrs[:, 0] == family)[0]) for family in (1, 0)]
        assert ranker(SimpleNamespace(attrs=ds.attrs[rows])).tolist() == [[1, 0], [0, 1]]

    def test_dmm_rejects_an_unknown_family(self):
        ranker = runtime.dmm_ranker([0, 2])
        with pytest.raises(ConfigError, match="no model for a family"):
            ranker(SimpleNamespace(attrs=np.array([[1, 0]])))

    def test_ssm_matches_dominant_scene_model(self):
        # when one cell dominates training 9:1, the global compressed model
        # behaves like that cell's specialist on a single-scene trace
        cfg = small_generator_config(
            num_cells=2, cards=(2, 1), clips_per_cell=2, frames_per_clip=60,
            cell_weights=(9, 1), noise=0.0,
        )
        ds = generate_dataset(cfg)
        scenes = profiling.segment_semantic_scenes(ds)
        dominant = scenes[0]
        specialist = learners.new_classifier(ds.schema.feature_dim, 8, ds.schema.num_classes, 1)
        learners.train(
            specialist,
            ds.features[dominant.sample_indices],
            ds.labels[dominant.sample_indices],
            quick_train_cfg(seed=2, epochs=60),
        )
        _, [ssm] = runtime.build_baseline(
            "ssm", ds, compressed_hidden=8, deep_hidden=96, num_models=1, cfg=quick_train_cfg(epochs=60), seed=3
        )
        test_idx = part_indices(ds, "test")
        test_idx = test_idx[(ds.attrs[test_idx] == dominant.attrs).all(axis=1)]
        X, y = ds.features[test_idx], ds.labels[test_idx]
        f_spec = profiling.macro_f1(learners.predict(specialist, X), y, ds.schema.num_classes)
        f_ssm = profiling.macro_f1(learners.predict(ssm, X), y, ds.schema.num_classes)
        assert abs(f_spec - f_ssm) <= 0.1

    @pytest.mark.parametrize("name", ["sdm", "ssm", "cdg", "dmm"])
    def test_build_baseline_matches_the_per_baseline_builders(self, small_ds, name):
        # pinned bit for bit to the per-baseline builders it replaced
        trace = synthesize_trace(small_ds, 3, 5, 6, seed=1)
        for seed in (5, 42):
            args = (name, small_ds, 4, 12, 3, quick_train_cfg(epochs=5), seed)
            ranker, models = runtime.build_baseline(*args)
            ref_ranker, ref_models = reference_build_baseline(*args)
            assert [params_hash(m) for m in models] == [params_hash(m) for m in ref_models]
            assert np.array_equal(ranker(trace), ref_ranker(trace))

    def test_run_baselines_trains_one_stack_per_width(self, small_ds, monkeypatch):
        # in one process, sdm is the one deep stack; ssm, cdg and dmm share
        # one compressed stack, and every model is still bit-equal to
        # building it alone
        names = ("sdm", "ssm", "cdg", "dmm")
        seeds = {name: seed for name, seed in zip(names, (19, 23, 29, 31))}
        cfg = quick_train_cfg(epochs=5)
        trace = synthesize_trace(small_ds, 3, 5, 6, seed=1)
        served, stacks = [], []
        run, train_stack = runtime.run_trace, learners.train_stack

        def recording_run(trace, ranker, models, *args):
            served.append((ranker, models))
            return run(trace, ranker, models, *args)

        def recording_train_stack(models, X, *args):
            assert X is small_ds.features
            stacks.append((models[0].hidden_dim, len(models)))
            return train_stack(models, X, *args)

        monkeypatch.setattr(runtime, "run_trace", recording_run)
        monkeypatch.setattr(learners, "train_stack", recording_train_stack)
        with cpus_usable(1):
            out = run_baselines(trace, small_ds, names, 4, 12, 3, cfg, seeds, cache_capacity=2)
        monkeypatch.undo()
        assert list(out) == list(names) and len(served) == len(names)
        families = len(np.unique(small_ds.attrs[part_indices(small_ds, "train"), 0]))
        assert stacks == [(12, 1), (4, 1 + 3 + families)]
        for name, (ranker, models) in zip(names, served):
            ref_ranker, ref_models = reference_build_baseline(name, small_ds, 4, 12, 3, cfg, seeds[name])
            assert [params_hash(m) for m in models] == [params_hash(m) for m in ref_models], name
            assert np.array_equal(ranker(trace), ref_ranker(trace)), name

    def test_unknown_baseline_rejected(self, small_ds):
        with pytest.raises(ConfigError, match="unknown baseline 'anole'"):
            runtime.build_baseline("anole", small_ds, 4, 12, 3, quick_train_cfg(epochs=1), 0)

    def test_run_baselines_shapes(self, bench42):
        out = run_baselines(
            bench42.trace,
            bench42.ds,
            ("sdm", "ssm", "cdg", "dmm"),
            compressed_hidden=8,
            deep_hidden=96,
            num_models=8,
            cfg=bench42.cfg.baseline_train,
            seeds=bench42.cfg.baseline_seeds,
            cache_capacity=5,
        )
        assert set(out) == {"sdm", "ssm", "cdg", "dmm"}
        for metrics in out.values():
            assert metrics.cache_accesses == len(bench42.trace)
            assert summarize(metrics)["frames"] == len(bench42.trace)


class TestBenchReferences:
    """The serve and baselines outputs that bench/references.json records for
    the default config, dataset seed 42 and trace seeds 17.., from the same
    build as the bench42 fixture."""

    @pytest.fixture(scope="class")
    def refs(self, bench42):
        refs = json.loads((Path(__file__).parent.parent / "bench" / "references.json").read_text())
        assert (refs["config"], refs["dataset_seed"]) == ("configs/default.ini", bench42.cfg.generator.seed)
        return refs

    @staticmethod
    def as_json(summary):
        return json.loads(json.dumps(summary))

    def test_serve(self, bench42, refs):
        cfg = bench42.cfg
        assert len(refs["serve"]) == 128
        traces = {}
        for key, expected in refs["serve"].items():
            seed, cap = map(int, key.split("/"))
            if seed not in traces:
                traces[seed] = synthesize_trace(bench42.ds, 11, 10, 50, seed)
            metrics = run_trace(traces[seed], bench42.decision, bench42.repo, cap, cfg.window, cfg.low_confidence)
            assert self.as_json(summarize(metrics)) == expected, key

    def test_baselines(self, bench42, refs):
        cfg, seed = bench42.cfg, refs["seed"]
        out = run_baselines(
            synthesize_trace(bench42.ds, 11, 10, 50, seed), bench42.ds, ("sdm", "ssm", "cdg", "dmm"),
            cfg.profiling.compressed_hidden, cfg.deep_hidden, cfg.profiling.n, cfg.baseline_train,
            cfg.baseline_seeds, cfg.capacity, cfg.window,
        )
        for method, metrics in out.items():
            assert self.as_json(summarize(metrics)) == refs["baselines"][f"{seed}/{method}"], method
