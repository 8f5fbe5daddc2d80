import csv
import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneselect import learners, profiling, runtime
from sceneselect.dataset import generate_dataset, part_indices
from sceneselect.errors import ConfigError
from sceneselect.runtime import (
    CacheEntry,
    ModelCache,
    cache_request,
    run_baselines,
    run_trace,
    summarize,
    write_metrics_csv,
)

from conftest import small_generator_config
from test_profiling import quick_train_cfg


def reference_cache_request(cache: ModelCache, ranking) -> tuple:
    """cache_request as it was before the first-resident fallback: the
    fallback is the resident with the smallest position in the ranking."""
    top = int(ranking[0])
    if top in cache.loaded:
        cache.loaded[top].use_count += 1
        return top, False
    served = top
    if cache.loaded:
        position = {int(m): pos for pos, m in enumerate(ranking)}
        served = min(cache.loaded, key=lambda m: position[m])
        victim = None
        if len(cache.loaded) >= cache.capacity:
            victim = min(
                cache.loaded,
                key=lambda m: (cache.loaded[m].use_count, cache.loaded[m].load_order),
            )
        cache.loaded[served].use_count += 1
        if victim is not None:
            del cache.loaded[victim]
    cache.loaded[top] = CacheEntry(use_count=int(served == top), load_order=cache.loads)
    cache.loads += 1
    return served, True


class ReferenceCache:
    """Deliberately dumb re-statement of the documented cache semantics."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []  # [model, use_count, load_order]
        self.clock = 0

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
        self.entries.append([top, 0, self.clock])
        self.clock += 1
        return served, True


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
    DecisionModel or a per-frame ranker (trace, frame) -> (probs, ranking)."""
    if hasattr(models, "models"):
        models = models.models
    if isinstance(decision, runtime.DecisionModel):

        def ranker(trace, frame):
            probs, ranking = runtime.rank_models(decision, trace.features[frame][None])
            return probs[0], ranking[0]
    else:
        ranker = decision

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
        probs, ranking = ranker(trace, frame)
        top1 = int(ranking[0])
        top1_counts[top1] += 1
        if np.max(probs) < low_confidence:
            low_conf += 1
        served, miss = cache_request(cache, ranking)
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
    assert metrics.window_f1 == window_f1
    assert metrics.switch_frames == switch_frames
    assert metrics.top1_counts.tolist() == top1_counts.tolist()
    assert metrics.low_confidence_events == low_conf
    assert metrics.cache_misses == sum(r.miss for r in records)


def constant_rank_one(trace, frame):
    return np.ones(1), np.arange(1)


def cdg_rank_one(centroids, trace, frame):
    d = np.linalg.norm(centroids - trace.features[frame], axis=1)
    return 1.0 / (1.0 + d), np.argsort(d, kind="stable")


def dmm_rank_one(families, trace, frame):
    own = families.index(trace.attrs[frame][0])
    probs = np.zeros(len(families))
    probs[own] = 1.0
    return probs, np.array([own] + [i for i in range(len(families)) if i != own])


@pytest.fixture(scope="module")
def bench42_baselines(bench42):
    """name -> (batch ranker, per-frame reference ranker, models), built as build_baseline does."""
    ds, cfg = bench42.ds, bench42.cfg
    hidden, seeds = cfg.profiling.compressed_hidden, cfg.baseline_seeds

    def train_cfg(name):
        return dataclasses.replace(cfg.baseline_train, seed=seeds[name])

    sdm = runtime.train_global_model(ds, cfg.deep_hidden, train_cfg("sdm"))
    cdg = runtime.build_cdg(ds, cfg.profiling.n, hidden, train_cfg("cdg"), seeds["cdg"])
    dmm = runtime.build_dmm(ds, hidden, train_cfg("dmm"), seeds["dmm"])
    return {
        "sdm": (runtime.constant_ranker(1), constant_rank_one, [sdm]),
        "cdg": (cdg.ranker(), functools.partial(cdg_rank_one, cdg.centroids), cdg.models),
        "dmm": (dmm.ranker(), functools.partial(dmm_rank_one, dmm.families), dmm.models),
    }


class TestWholeTraceMatchesPerFrame:
    """run_trace ranks and predicts the whole trace in batches; it must give
    what the per-frame loop gives."""

    def test_decision_model_every_capacity(self, bench42, tmp_path):
        cfg = bench42.cfg
        for cap in range(1, len(bench42.repo.models) + 1):
            args = (bench42.trace, bench42.decision, bench42.repo, cap, cfg.window, cfg.low_confidence)
            assert_matches_reference(run_trace(*args), reference_run_trace(*args), tmp_path)

    @pytest.mark.parametrize("name", ["sdm", "cdg", "dmm"])
    def test_baseline_rankers(self, bench42, bench42_baselines, name, tmp_path):
        ranker, rank_one, models = bench42_baselines[name]
        for cap in range(1, len(models) + 1):
            metrics = run_trace(bench42.trace, ranker, models, cap, bench42.cfg.window, 0.0)
            reference = reference_run_trace(bench42.trace, rank_one, models, cap, bench42.cfg.window, 0.0)
            assert_matches_reference(metrics, reference, tmp_path)


class TestCacheUnit:
    def test_capacity_zero_rejected(self):
        with pytest.raises(ConfigError):
            ModelCache(0)

    def test_hit_increments_use_count(self):
        cache = ModelCache(2)
        cache_request(cache, [0, 1, 2])
        served, miss = cache_request(cache, [0, 1, 2])
        assert (served, miss) == (0, False)
        assert cache.loaded[0].use_count == 2

    def test_empty_cache_loads_and_serves_top(self):
        cache = ModelCache(2)
        served, miss = cache_request(cache, [2, 0, 1])
        assert (served, miss) == (2, True)
        assert set(cache.loaded) == {2}

    def test_forced_fallback_and_lfu_eviction(self):
        # ends with loaded {A=0: 3 uses, B=1: 1 use}, then requests top C=2:
        # B outranks A in the ranking so B serves the frame, yet B is still
        # the LFU victim (pre-serve counts) and C replaces it.
        cache = ModelCache(2)
        cache_request(cache, [0, 1, 2])  # A loaded+served
        cache_request(cache, [1, 0, 2])  # miss: A serves, B loaded (no eviction below capacity)
        cache_request(cache, [0, 1, 2])  # hit A
        cache_request(cache, [1, 0, 2])  # hit B
        served, miss = cache_request(cache, [2, 1, 0])
        assert miss is True
        assert served == 1
        assert set(cache.loaded) == {0, 2}

    def test_capacity_at_least_n_only_cold_misses(self):
        cache = ModelCache(4)
        rng = np.random.default_rng(0)
        misses = 0
        tops = []
        for _ in range(100):
            ranking = rng.permutation(4)
            tops.append(ranking[0])
            _, miss = cache_request(cache, ranking)
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
            served, miss = cache_request(cache, ranking)
            hits += not miss
            misses += miss
            assert len(cache.loaded) <= capacity
            # served from residency, or a miss that loaded it (only into an empty cache)
            assert served in before or (miss and not before and served == ranking[0])
            assert miss == (ranking[0] not in before)
            assert ranking[0] in cache.loaded
            assert hits + misses == requests
            assert cache.loads == misses  # every miss loads exactly one model

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_position_fallback_reference(self, data):
        # the fast path takes the first resident in ranking order; on
        # permutations that must equal the smallest-position resident
        n = data.draw(st.integers(1, 8))
        capacity = data.draw(st.integers(1, n))
        rankings = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=60))
        cache, ref = ModelCache(capacity), ModelCache(capacity)
        for ranking in rankings:
            assert cache_request(cache, ranking) == reference_cache_request(ref, ranking)
            assert {m: (e.use_count, e.load_order) for m, e in cache.loaded.items()} == {
                m: (e.use_count, e.load_order) for m, e in ref.loaded.items()
            }
            assert cache.loads == ref.loads

    def test_matches_reference_on_random_traces(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            capacity = int(rng.integers(1, n + 1))
            cache, ref = ModelCache(capacity), ReferenceCache(capacity)
            for _ in range(int(rng.integers(5, 60))):
                ranking = rng.permutation(n)
                assert cache_request(cache, ranking) == ref.request(list(ranking))
                assert len(cache.loaded) <= capacity


class TestRunTrace:
    def test_single_model_never_switches(self, bench42):
        metrics = run_trace(
            bench42.trace, runtime.constant_ranker(1), [bench42.repo.models[0]], 3
        )
        assert metrics.switch_frames == []
        assert metrics.scene_durations == [len(bench42.trace)]
        assert metrics.cache_misses == 1  # cold load only

    def test_accounting_identities(self, bench42):
        metrics = run_trace(bench42.trace, bench42.decision, bench42.repo, 5)
        n = len(bench42.trace)
        assert metrics.cache_accesses == n
        assert sum(metrics.scene_durations) == n
        assert len(metrics.scene_durations) == len(metrics.switch_frames) + 1
        window_ids = [w for w, _ in metrics.window_f1]
        assert window_ids == list(range((n + 9) // 10))
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
            probs = np.zeros(n)
            probs[model] = 1.0
            ranking = np.array([model] + [j for j in range(n) if j != model])
            return probs, ranking

        def oracle(frames):
            probs, rankings = zip(*map(oracle_one, range(len(frames))))
            return np.stack(probs), np.stack(rankings)

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

    def test_miss_rate_monotone_in_capacity(self, bench42):
        rates = [
            run_trace(bench42.trace, bench42.decision, bench42.repo, cap).miss_rate
            for cap in range(1, len(bench42.repo.models) + 1)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_empty_trace_rejected(self, bench42):
        with pytest.raises(ConfigError):
            run_trace([], bench42.decision, bench42.repo, 2)

    @pytest.mark.parametrize("window", [0, -10])
    def test_window_below_one_rejected(self, bench42, window):
        with pytest.raises(ConfigError, match="window"):
            run_trace(bench42.trace, bench42.decision, bench42.repo, 2, window=window)


class TestSummarize:
    def test_single_model_histogram(self, bench42):
        metrics = run_trace(bench42.trace, runtime.constant_ranker(1), [bench42.repo.models[0]], 1)
        report = summarize(metrics)
        assert report["top1_histogram"][0] == [0, len(bench42.trace)]
        assert report["top5_coverage"] == 1.0

    def test_durations_sum_to_trace_length(self, bench42):
        metrics = run_trace(bench42.trace, bench42.decision, bench42.repo, 5)
        report = summarize(metrics)
        assert sum(metrics.scene_durations) == report["frames"] == 500
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


class TestBaselines:
    def test_param_ratio_at_least_ten(self):
        from sceneselect import cli

        cfg = cli.load_run_config()
        d = cfg.generator.schema
        sdm = learners.new_classifier(d.feature_dim, cfg.deep_hidden, d.num_classes, 0)
        ssm = learners.new_classifier(d.feature_dim, cfg.profiling.compressed_hidden, d.num_classes, 0)
        assert learners.param_count(sdm) >= 10 * learners.param_count(ssm)

    def test_cdg_equidistant_tie_lowest_cluster(self):
        base = runtime.CdgBaseline(
            models=[None, None, None],
            centroids=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
        )
        frames = SimpleNamespace(features=np.array([[2.0, 0.0]]))
        _, rankings = base.ranker()(frames)
        assert rankings[0].tolist() == [0, 1, 2]

    def test_dmm_selects_family_model(self):
        ds = generate_dataset(small_generator_config(num_cells=4, cards=(2, 2)))
        dmm = runtime.build_dmm(ds, 4, quick_train_cfg(epochs=2), seed=3)
        assert dmm.families == [0, 1]
        row = int(np.flatnonzero(ds.attrs[:, 0] == 1)[0])
        frames = SimpleNamespace(attrs=ds.attrs[[row]])
        probs, rankings = dmm.ranker()(frames)
        ranking, probs = rankings[0], probs[0]
        assert ranking[0] == 1 and probs[1] == 1.0

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
        ssm = runtime.train_global_model(ds, 8, quick_train_cfg(seed=3, epochs=60))
        cell0_clips = np.unique(ds.clip_ids[(ds.attrs == dominant.attrs).all(axis=1)]).tolist()
        test_idx = part_indices(ds, "test", clips=cell0_clips)
        X, y = ds.features[test_idx], ds.labels[test_idx]
        f_spec = profiling.macro_f1(learners.predict(specialist, X), y, ds.schema.num_classes)
        f_ssm = profiling.macro_f1(learners.predict(ssm, X), y, ds.schema.num_classes)
        assert abs(f_spec - f_ssm) <= 0.1

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
            assert sum(metrics.scene_durations) == len(bench42.trace)
