import contextlib
import dataclasses
import itertools
import os
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sceneselect import learners, profiling
from sceneselect.dataset import SplitDataset, generate_dataset, part_indices
from sceneselect.errors import ConfigError, DivergedError, InsufficientModelsError
from sceneselect.learners import TrainConfig
from sceneselect.profiling import (
    ProfilingConfig,
    build_repository,
    embed_scenes,
    kmeans,
    macro_f1,
    segment_semantic_scenes,
    train_scene_encoder,
)

from conftest import params_hash, small_generator_config


def quick_train_cfg(seed=1, epochs=30):
    return TrainConfig(learning_rate=0.2, epochs=epochs, batch_size=64, seed=seed)


def quick_profiling_cfg(n=3, delta=0.0, **kw):
    base = dict(
        n=n,
        delta=delta,
        k_start=2,
        k_max=8,
        encoder_hidden=8,
        compressed_hidden=6,
        encoder_train=quick_train_cfg(2),
        model_train=quick_train_cfg(3),
        seed=5,
    )
    base.update(kw)
    return ProfilingConfig(**base)


def without_seen_clips():
    """A one-clip dataset whose clip is unseen, so its training split is empty."""
    ds = generate_dataset(small_generator_config(num_cells=1, clips_per_cell=1, frames_per_clip=5))
    return dataclasses.replace(ds, split=SplitDataset(seen_clips=(), unseen_clips=(0,), ranges={}))


@pytest.mark.parametrize("call, message", [
    (lambda: quick_profiling_cfg(n=0).validate(), "repository size n must be >= 1"),
    (lambda: quick_profiling_cfg(delta=1.5).validate(), "delta must lie in [0, 1]"),
    (lambda: quick_profiling_cfg(k_start=1).validate(), "k_start must be >= 2"),
    (lambda: quick_profiling_cfg(k_start=4, k_max=3).validate(), "k_max must be >= k_start"),
    (lambda: quick_profiling_cfg(compressed_hidden=0).validate(), "hidden widths must be positive"),
    (lambda: segment_semantic_scenes(without_seen_clips()), "training split is empty"),
    (lambda: kmeans(np.zeros((0, 2)), 1, seed=0), "kmeans expects a non-empty 2-D point array"),
    (lambda: kmeans(np.ones((3, 2)), 0, seed=0), "k must be positive"),
    (lambda: macro_f1([0], [0, 1], 2), "predictions and labels disagree in length"),
], ids=["n", "delta", "k_start", "k_max", "hidden", "empty training split", "no points", "k", "lengths"])
def test_bad_argument_named(call, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


class TestScenes:
    def test_all_tuples_present_lexicographic(self, small_ds):
        scenes = segment_semantic_scenes(small_ds)
        assert [s.attrs for s in scenes] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [s.scene_id for s in scenes] == [0, 1, 2, 3]

    def test_single_tuple(self):
        ds = generate_dataset(small_generator_config(num_cells=1, cards=(1, 1)))
        scenes = segment_semantic_scenes(ds)
        assert len(scenes) == 1
        assert len(scenes[0].sample_indices) == len(part_indices(ds, "train"))

    def test_120_attribute_combinations(self):
        # a tenth of the clips is unseen; with 10 clips per cell every cell
        # keeps a seen clip
        cfg = small_generator_config(
            num_cells=120, cards=(5, 8, 3), clips_per_cell=10, frames_per_clip=10, feature_dim=4
        )
        ds = generate_dataset(cfg)
        scenes = segment_semantic_scenes(ds)
        assert len(scenes) == 120

    def test_scenes_partition_training_split(self, small_ds):
        scenes = segment_semantic_scenes(small_ds)
        union = np.concatenate([s.sample_indices for s in scenes])
        assert sorted(union.tolist()) == sorted(part_indices(small_ds, "train").tolist())
        for s in scenes:
            assert (small_ds.attrs[s.sample_indices] == s.attrs).all()


class TestEncoder:
    def test_two_separated_scenes_accuracy(self):
        ds = generate_dataset(small_generator_config(num_cells=2, cards=(2, 1), spread=0.15))
        scenes = segment_semantic_scenes(ds)
        enc = train_scene_encoder(ds, scenes, 8, quick_train_cfg())
        rows = np.concatenate([s.valid_indices for s in scenes])
        true = np.concatenate([np.full(len(s.valid_indices), s.scene_id) for s in scenes])
        assert np.mean(learners.predict(enc, ds.features[rows]) == true) >= 0.95

    def test_single_scene_rejected(self):
        ds = generate_dataset(small_generator_config(num_cells=1, cards=(1, 1)))
        with pytest.raises(ConfigError):
            train_scene_encoder(ds, segment_semantic_scenes(ds), 8, quick_train_cfg())

    def test_deterministic(self, small_ds):
        scenes = segment_semantic_scenes(small_ds)
        a = train_scene_encoder(small_ds, scenes, 8, quick_train_cfg())
        b = train_scene_encoder(small_ds, scenes, 8, quick_train_cfg())
        assert params_hash(a) == params_hash(b)


class TestEmbeddings:
    def test_singleton_scene_centroid(self, small_ds):
        scenes = segment_semantic_scenes(small_ds)
        enc = train_scene_encoder(small_ds, scenes, 8, quick_train_cfg())
        only = dataclasses.replace(scenes[0], sample_indices=scenes[0].sample_indices[:1])
        centroids = embed_scenes(enc, [only] + scenes[1:], small_ds)
        assert centroids.shape == (len(scenes), 8)
        assert np.allclose(centroids[0], learners.embed(enc, small_ds.features[only.sample_indices])[0])

    def test_duplicating_scene_samples_keeps_centroid(self, small_ds):
        scenes = segment_semantic_scenes(small_ds)
        enc = train_scene_encoder(small_ds, scenes, 8, quick_train_cfg())
        doubled = dataclasses.replace(
            scenes[1], sample_indices=np.concatenate([scenes[1].sample_indices] * 2)
        )
        base = embed_scenes(enc, scenes, small_ds)
        dup = embed_scenes(enc, scenes[:1] + [doubled] + scenes[2:], small_ds)
        assert np.allclose(base[1], dup[1])

    def test_identical_features_identical_embeddings(self, small_ds):
        scenes = segment_semantic_scenes(small_ds)
        enc = train_scene_encoder(small_ds, scenes, 8, quick_train_cfg())
        x = small_ds.features[0]
        assert np.array_equal(learners.embed(enc, x[None]), learners.embed(enc, x.copy()[None]))

    def test_dimension_mismatch(self, small_ds):
        scenes = segment_semantic_scenes(small_ds)
        enc = learners.new_classifier(small_ds.schema.feature_dim + 1, 4, 4, 0)
        with pytest.raises(ConfigError):
            embed_scenes(enc, scenes, small_ds)


class TestKMeans:
    def test_four_point_fixture(self):
        pts = [(0.0, 0.0), (0.0, 1.0), (10.0, 0.0), (10.0, 1.0)]
        res = kmeans(pts, 2, seed=0)
        assert res.inertia == 1.0
        assert res.assignments[0] == res.assignments[1]
        assert res.assignments[2] == res.assignments[3]
        assert res.assignments[0] != res.assignments[2]

    def test_k_equals_points_zero_inertia(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 3))
        res = kmeans(pts, 6, seed=2)
        assert res.inertia == 0.0

    def test_inertia_monotone_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            pts = rng.normal(size=(rng.integers(10, 40), rng.integers(2, 5)))
            k = int(rng.integers(2, 6))
            res = kmeans(pts, k, seed=trial)
            hist = res.inertia_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_k_exceeding_distinct_points(self):
        pts = [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)]
        with pytest.raises(ConfigError):
            kmeans(pts, 3, seed=0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_duplicate_points(self, data):
        distinct = data.draw(st.integers(2, 6))
        dim = data.draw(st.integers(1, 3))
        coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
        points = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=distinct,
                                    max_size=distinct, unique=True))
        repeats = data.draw(st.lists(st.integers(1, 6), min_size=distinct, max_size=distinct))
        pts = np.repeat(np.array(points), repeats, axis=0)
        pts = pts[data.draw(st.permutations(range(len(pts))))]
        k = data.draw(st.integers(1, distinct))
        seed = data.draw(st.integers(0, 2**16))

        res = kmeans(pts, k, seed=seed)
        assert sorted(set(res.assignments.tolist())) == list(range(k))  # no cluster empty
        assert np.isfinite(res.centroids).all()
        hist = res.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        again = kmeans(pts, k, seed=seed)
        assert np.array_equal(again.assignments, res.assignments)
        assert np.array_equal(again.centroids, res.centroids)
        assert again.inertia_history == hist
        with pytest.raises(ConfigError):
            kmeans(pts, distinct + data.draw(st.integers(1, 3)), seed=seed)

    @pytest.mark.parametrize(
        "points, k",
        [
            ([1.0, 0.0, 2.0, 2.0, 9.891546322150135e-167], 4),
            ([0.0, 1.93e-255, 1.31e-301], 3),
        ],
    )
    def test_underflowing_distances_leave_no_cluster_empty(self, points, k):
        # squared distances underflow to 0, so the farthest point from its
        # centroid may be its cluster's only one; moving it emptied that cluster
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kmeans(np.array(points)[:, None], k, seed=0)
        assert sorted(set(res.assignments.tolist())) == list(range(k))
        assert np.isfinite(res.centroids).all()
        assert res.inertia_history == sorted(res.inertia_history, reverse=True)

    def test_partition_covers_all_points(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 4))
        res = kmeans(pts, 5, seed=5)
        assert sorted(np.unique(res.assignments).tolist()) == [0, 1, 2, 3, 4]


def reference_kmeans(points, k, seed):
    """(KMeansResult, number of empty-cluster repairs) of `kmeans` as it was
    with each iteration's distances from one (n, k, d) broadcast."""
    pts = np.asarray(points, dtype=float)
    centroids = profiling._kmeans_pp(pts, k, np.random.default_rng(seed))
    prev_assign, history, repairs = None, [], 0
    for _ in range(profiling.KMEANS_MAX_ITERS):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(k):
            if not np.any(assign == j):
                repairs += 1
                own = d2[np.arange(len(pts)), assign]
                own[np.bincount(assign, minlength=k)[assign] < 2] = -1.0
                far = int(np.argmax(own))
                assign[far] = j
                d2[far, :] = np.inf
                d2[far, j] = 0.0
        for j in range(k):
            centroids[j] = pts[assign == j].mean(axis=0)
        history.append(float(((pts - centroids[assign]) ** 2).sum()))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if len(history) >= 2 and history[-2] - history[-1] < profiling.KMEANS_TOL:
            break
        prev_assign = assign
    return profiling.KMeansResult(assign, centroids, history[-1], history), repairs


def assert_same_kmeans(got, expected):
    assert got.assignments.tobytes() == expected.assignments.tobytes()
    assert got.centroids.tobytes() == expected.centroids.tobytes()
    assert got.inertia_history == expected.inertia_history
    assert got.inertia == expected.inertia


class TestKMeansMatchesBroadcast:
    """kmeans fills its distances one centroid at a time; every result must
    be bit-equal to the (n, k, d) broadcast it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_points_with_duplicates(self, data):
        # dims past 8 sum each distance pairwise in numpy, below it in order
        distinct = data.draw(st.integers(1, 12))
        dim = data.draw(st.integers(1, 18))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pts = np.repeat(rng.normal(size=(distinct, dim)) * scale,
                        data.draw(st.lists(st.integers(1, 5), min_size=distinct, max_size=distinct)), axis=0)
        pts = pts[rng.permutation(len(pts))]
        k = data.draw(st.integers(1, distinct))
        seed = data.draw(st.integers(0, 2**16))
        expected, _ = reference_kmeans(pts, k, seed)
        assert_same_kmeans(kmeans(pts, k, seed=seed), expected)

    @pytest.mark.parametrize(
        "points, k",
        [
            ([1.0, 0.0, 2.0, 2.0, 9.891546322150135e-167], 4),
            ([0.0, 1.93e-255, 1.31e-301], 3),
        ],
    )
    def test_empty_cluster_repair(self, points, k):
        pts = np.array(points)[:, None]
        expected, repairs = reference_kmeans(pts, k, 0)
        assert repairs > 0
        assert_same_kmeans(kmeans(pts, k, seed=0), expected)

    def test_scene_centroids_and_raw_features(self, easy):
        # what a build clusters (scene centroids) and what cdg does (raw features)
        ds, scenes, encoder = easy
        centroids = profiling.embed_scenes(encoder, scenes, ds)
        for k in range(1, len(scenes) + 1):
            expected, _ = reference_kmeans(centroids, k, k)
            assert_same_kmeans(kmeans(centroids, k, seed=k), expected)
        features = ds.features[part_indices(ds, "train")]
        for k in (1, 3, 8):
            expected, _ = reference_kmeans(features, k, k)
            assert_same_kmeans(kmeans(features, k, seed=k), expected)


def binary_f1(tp: int, fp: int, fn: int) -> float:
    """F1 = 2pr/(p+r) from counts; 0 when precision and recall are both 0."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


class TestMacroF1:
    def test_point_six_point_four(self):
        # class 1 has 6 true positives, 4 false positives (class 0 frames)
        # and 9 misses (predicted as the absent class 2): precision 0.6,
        # recall 0.4, F1 0.48; class 0 is never predicted and scores 0
        labels = [1] * 15 + [0] * 4
        preds = [1] * 6 + [2] * 9 + [1] * 4
        assert macro_f1(preds, labels, 3) == pytest.approx(0.48 / 2)

    def test_symmetric_construction(self):
        labels = [1] * 15 + [0] * 10
        preds = [1] * 6 + [0] * 9 + [1] * 4 + [0] * 6
        assert macro_f1(preds, labels, 2) == pytest.approx(0.48)

    def test_perfect(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_binary_tp_fp_fn_one_each(self):
        # each class has one true positive, one false positive and one miss
        assert macro_f1([1, 0, 1, 0], [1, 1, 0, 0], 2) == pytest.approx(0.5)

    def test_zero_when_no_predictions_correct(self):
        # class 1: 0 true positives, 3 false positives, 2 misses; class 0: 0, 2 and 3
        assert macro_f1([0, 0, 1, 1, 1], [1, 1, 0, 0, 0], 2) == 0.0

    def test_macro_over_classes_present_only(self):
        # class 2 never appears in labels and must not enter the mean
        assert macro_f1([0, 1], [0, 1], 3) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            macro_f1([], [], 2)

    def test_negative_class_rejected(self):
        with pytest.raises(ConfigError):
            macro_f1([-1, 0], [0, 0], 2)

    @pytest.mark.parametrize("preds, labels", [([0, 0, -1], [0, 0, 0]), ([0, 0, 0], [0, 0, -1])])
    def test_negative_class_rejected_in_a_later_window(self, preds, labels):
        # the index must not be taken for a class of the window before it
        with pytest.raises(ConfigError, match="non-negative"):
            macro_f1(preds, labels, 2, window=2)

    @settings(max_examples=200, deadline=None)
    @example(  # 8 present classes whose left-to-right sum differs from numpy's pairwise one
        num_classes=8, pairs=[(7, 7), (1, 1), (5, 5), (7, 6), (3, 3), (0, 0), (8, 2), (4, 4)]
    )
    @given(
        num_classes=st.integers(1, 12),
        pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=60),
    )
    def test_matches_per_class_reference(self, num_classes, pairs):
        # predicted classes may be absent from the labels (and exceed num_classes);
        # up to 12 present classes reach both sides of macro_f1's 8-score rule
        preds = np.array([p for p, _ in pairs])
        labels = np.array([y % num_classes for _, y in pairs])
        scores = []
        for c in np.unique(labels):
            tp = int(np.sum((preds == c) & (labels == c)))
            fp = int(np.sum((preds == c) & (labels != c)))
            fn = int(np.sum((preds != c) & (labels == c)))
            scores.append(binary_f1(tp, fp, fn))
        assert macro_f1(preds, labels, num_classes) == float(np.mean(scores))


def reference_macro_f1(predictions, labels, num_classes: int) -> float:
    """macro_f1 as it was before it scored windows: one sequence, per-class
    F1 through binary_f1 in a Python loop."""
    preds = np.asarray(predictions, dtype=int)
    labs = np.asarray(labels, dtype=int)
    if len(labs) == 0:
        raise ConfigError("macro_f1 needs a non-empty label set")
    if len(preds) != len(labs):
        raise ConfigError("predictions and labels disagree in length")
    try:
        actual = np.bincount(labs, minlength=num_classes)
        predicted = np.bincount(preds, minlength=len(actual))
    except ValueError as exc:
        raise ConfigError("class indices must be non-negative") from exc
    tp = np.bincount(labs[preds == labs], minlength=len(actual))
    # predicted may be longer than actual; only classes present in labels count
    scores = [
        binary_f1(t, p - t, a - t)
        for t, p, a in zip(tp.tolist(), predicted.tolist(), actual.tolist())
        if a
    ]
    # below 8 terms numpy's pairwise sum adds left to right, as sum() does,
    # so this is bit-equal to np.mean and skips its array round trip
    if len(scores) < 8:
        return sum(scores) / len(scores)
    return float(np.mean(scores))


class TestWindowedMacroF1:
    @settings(max_examples=200, deadline=None)
    @example(  # window 1 holds 8 present classes whose left-to-right sum differs from numpy's
        # pairwise one (the pairs of TestMacroF1's example); the last window is ragged
        num_classes=8,
        window=8,
        pairs=[(0, 0), (1, 1), (1, 0), (2, 2), (9, 2), (0, 1), (3, 3), (3, 0)]
        + [(7, 7), (1, 1), (5, 5), (7, 6), (3, 3), (0, 0), (8, 2), (4, 4)]
        + [(2, 2), (3, 1), (12, 2)],
    )
    @example(num_classes=3, window=25, pairs=[(0, 0), (1, 2), (2, 2), (13, 1)])  # window > frames
    @given(
        num_classes=st.integers(1, 12),
        window=st.integers(1, 25),
        pairs=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 11)), min_size=1, max_size=120),
    )
    def test_matches_per_slice_reference(self, num_classes, window, pairs):
        # predicted classes may be absent from the labels or >= num_classes
        preds = np.array([p for p, _ in pairs])
        labels = np.array([y % num_classes for _, y in pairs])
        expected = [
            reference_macro_f1(preds[lo : lo + window], labels[lo : lo + window], num_classes)
            for lo in range(0, len(pairs), window)
        ]
        assert macro_f1(preds, labels, num_classes, window=window).tolist() == expected


@pytest.fixture(scope="module")
def easy():
    ds = generate_dataset(small_generator_config(num_cells=4, clips_per_cell=2, frames_per_clip=60))
    scenes = segment_semantic_scenes(ds)
    enc = train_scene_encoder(ds, scenes, 8, quick_train_cfg())
    return ds, scenes, enc


class TestRepository:

    def test_delta_zero_stop_at_n_sources(self, easy):
        ds, scenes, enc = easy
        repo = build_repository(ds, scenes, enc, quick_profiling_cfg(n=3, delta=0.0))
        assert [e.source for e in repo.entries] == [(2, 0), (2, 1), (3, 0)]

    def test_delta_one_exhausts(self, easy):
        ds, scenes, enc = easy
        with pytest.raises(InsufficientModelsError) as err:
            build_repository(ds, scenes, enc, quick_profiling_cfg(n=3, delta=1.0, k_max=3))
        assert err.value.accepted == 0

    def test_strict_inequality_at_delta(self, easy):
        # a model scoring exactly delta is rejected
        ds, scenes, enc = easy
        repo = build_repository(ds, scenes, enc, quick_profiling_cfg(n=2, delta=0.0))
        exact = repo.entries[0].validation_f1
        cfg = quick_profiling_cfg(n=8, delta=float(exact), k_max=4)
        try:
            repo2 = build_repository(ds, scenes, enc, cfg)
            assert all(e.validation_f1 > exact for e in repo2.entries)
        except InsufficientModelsError:
            pass  # also acceptable: everything at or below delta was rejected

    def test_repository_bound_and_f1_filter(self, bench42):
        repo = bench42.repo
        cfg = bench42.cfg.profiling
        assert len(repo) == cfg.n
        assert all(e.validation_f1 > cfg.delta for e in repo.entries)

    def test_cluster_partition_per_k(self, bench42):
        by_k = {}
        for e in bench42.repo.entries:
            by_k.setdefault(e.source[0], []).append(e)
        full_k = [k for k, entries in by_k.items() if len(entries) == k]
        assert full_k, "expected at least one complete clustering level"
        for k in full_k:
            members = sorted(m for e in by_k[k] for m in e.scene.member_scene_ids)
            assert members == list(range(len(bench42.scenes)))
            union = np.concatenate([e.scene.train_indices for e in by_k[k]])
            assert sorted(union.tolist()) == sorted(part_indices(bench42.ds, "train").tolist())

    def test_valid_indices_match_member_attrs(self, bench42):
        entry = bench42.repo.entries[0]
        member_attrs = {bench42.scenes[i].attrs for i in entry.scene.member_scene_ids}
        for i in entry.scene.valid_indices:
            assert tuple(bench42.ds.attrs[i]) in member_attrs

    def test_deterministic(self, easy):
        ds, scenes, enc = easy
        a = build_repository(ds, scenes, enc, quick_profiling_cfg(n=3, delta=0.0))
        b = build_repository(ds, scenes, enc, quick_profiling_cfg(n=3, delta=0.0))
        for x, y in zip(a.entries, b.entries):
            assert params_hash(x.model) == params_hash(y.model)
            assert x.validation_f1 == y.validation_f1


def reference_build_repository(ds, scenes, encoder, cfg):
    """The level-by-level build: one `learners.train` per scored cluster, whose
    validation rows are found by a row-by-row attribute lookup."""
    centroids = embed_scenes(encoder, scenes, ds)
    valid = part_indices(ds, "valid")
    distinct = np.unique(centroids, axis=0).shape[0]
    entries = []
    for k in range(cfg.k_start, cfg.k_max + 1):
        if len(entries) >= cfg.n:
            break
        if k > distinct:
            raise InsufficientModelsError(
                len(entries), cfg.n, f"k={k} exceeds the {distinct} distinct scene centroids"
            )
        result = kmeans(centroids, k, seed=profiling.derive_seed(cfg.seed, 1, k))
        for j in range(k):
            if len(entries) >= cfg.n:
                break
            members = [i for i in range(len(scenes)) if result.assignments[i] == j]
            member_attrs = {scenes[i].attrs for i in members}
            cluster = profiling.ClusterScene(
                member_scene_ids=tuple(members),
                train_indices=np.sort(np.concatenate([scenes[i].sample_indices for i in members])),
                valid_indices=np.array([i for i in valid if tuple(ds.attrs[i]) in member_attrs], dtype=int),
            )
            model = learners.new_classifier(
                ds.schema.feature_dim, cfg.compressed_hidden, ds.schema.num_classes,
                seed=profiling.derive_seed(cfg.seed, 2, k, j),
            )
            tc = dataclasses.replace(cfg.model_train, seed=profiling.derive_seed(cfg.seed, 3, k, j))
            learners.train(model, ds.features[cluster.train_indices], ds.labels[cluster.train_indices], tc)
            preds = learners.predict(model, ds.features[cluster.valid_indices])
            f1 = macro_f1(preds, ds.labels[cluster.valid_indices], ds.schema.num_classes)
            if f1 > cfg.delta:
                entries.append(profiling.RepositoryEntry(model, (k, j), cluster, f1))
    if len(entries) < cfg.n:
        raise InsufficientModelsError(len(entries), cfg.n, f"exhausted k up to {cfg.k_max}")
    return profiling.ModelRepository(entries)


def repository_outcome(build, *args):
    """(source, F1, parameter hash) per entry, or the error's accepted count and message."""
    try:
        repo = build(*args)
    except InsufficientModelsError as err:
        return err.accepted, str(err)
    return [(e.source, e.validation_f1, params_hash(e.model)) for e in repo.entries]


class TestStackedRepositoryMatchesLevelByLevel:
    # the easy dataset has 4 distinct scene centroids; at delta 0.99 the
    # clusters (2, 0) and (4, 2) are rejected, so n = 5 takes two rounds
    @pytest.mark.parametrize(
        "n, delta, k_max",
        [
            (3, 0.0, 8),
            (5, 0.99, 8),
            (12, 0.0, 8),  # k = 5 exceeds the distinct centroids with 9 accepted
            (6, 0.0, 3),  # k_max exhausted with 5 accepted
            (3, 1.0, 3),  # k_max exhausted with none accepted
        ],
    )
    def test_same_entries_and_errors(self, easy, n, delta, k_max):
        ds, scenes, enc = easy
        cfg = quick_profiling_cfg(n=n, delta=delta, k_max=k_max)
        stacked = repository_outcome(build_repository, ds, scenes, enc, cfg)
        assert stacked == repository_outcome(reference_build_repository, ds, scenes, enc, cfg)
        if n == 12:
            assert stacked == (9, "accepted only 9 of 12 requested models: "
                                  "k=5 exceeds the 4 distinct scene centroids")
        if (n, k_max) == (6, 3):
            assert stacked == (5, "accepted only 5 of 6 requested models: exhausted k up to 3")

    def test_one_stacked_training_per_round(self, easy, monkeypatch):
        # with one usable CPU nothing forks, so a child's stacks cannot go
        # unrecorded, and each round is one stack
        ds, scenes, enc = easy
        stacks = []
        original = learners.train_stack

        def recording(models, X, y, rows, cfgs):
            # every round gathers its rows from the dataset's own arrays
            assert X is ds.features and y is ds.labels
            stacks.append(len(models))
            return original(models, X, y, rows, cfgs)

        monkeypatch.setattr(learners, "train_stack", recording)
        with cpus_usable(1):
            build_repository(ds, scenes, enc, quick_profiling_cfg(n=5, delta=0.99))
        assert stacks == [2 + 3, 4]


def forbidden_fork():
    raise AssertionError("forked with one usable CPU")


@contextlib.contextmanager
def cpus_usable(count):
    """Run with ``count`` usable CPUs; yields a list that gains an entry per
    fork. With one CPU, a fork fails the test."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        mp.setattr(os, "fork", counted_fork if count > 1 else forbidden_fork)
        yield forks


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def diverged(cpus, *args):
    """(epoch, message, forks) of the DivergedError that `train_on_row_sets`
    raises with ``cpus`` usable CPUs."""
    with cpus_usable(cpus) as forks, np.errstate(all="ignore"), pytest.raises(DivergedError) as err:
        profiling.train_on_row_sets(*args)
    return err.value.epoch, str(err.value), len(forks)


def three_sets(ds):
    """`train_on_row_sets` arguments for three small models of two widths."""
    train = part_indices(ds, "train")
    row_sets = [train[::3][:50], train[1::3][:40], train[2::3][:30]]
    return ds, row_sets, [4, 6, 4], quick_train_cfg(epochs=3), [5, 6, 7], [8, 9, 10]


class TestSharedTraining:
    # training-set sizes at the defaults (batch size 128): the nine 8-wide
    # models of the build's one round, and sdm (96 wide) before ssm, cdg x 8
    # and dmm x 3 (8 wide) in a `baselines` op
    BUILD_ROUND = ([1200, 2100, 900, 1800, 600, 1200, 1200, 600, 300], [8] * 9)
    BASELINES = ([3300, 3300, 600, 297, 600, 300, 600, 600, 159, 144, 900, 1200, 1200], [96] + [8] * 12)

    def test_split_known_answer(self, monkeypatch):
        # the same splits for any fixed cost per call from 20 to 60 µs
        for call_us in (20.0, 30.0, 60.0):
            monkeypatch.setattr(profiling, "STEP_CALL_US", call_us)
            # the 2,100- and 1,800-row models share their 16 full-batch calls
            assert profiling.split_shares(*self.BUILD_ROUND, 128, 2) == [[1, 3], [0, 2, 4, 5, 6, 7, 8]]
            assert profiling.split_shares(*self.BASELINES, 128, 2) == [[0], list(range(1, 13))]
            assert profiling.split_shares(*self.BUILD_ROUND, 128, 1) == [list(range(9))]
            assert profiling.split_shares(*self.BASELINES, 128, 1) == [list(range(13))]

    def test_share_cost_known_answer(self):
        # 2,100 and 1,800 rows: 16 full-batch calls and ragged batches of 52
        # and 8 rows, 17 + 15 model-steps; with a 12-row model of width 4,
        # one call and one model-step more
        assert profiling.share_cost([2100, 1800], [8, 8], 128) == pytest.approx(18 * 30.0 + 32 * (5.0 + 0.57 * 8))
        assert profiling.share_cost([2100, 12, 1800], [8, 4, 8], 128) == pytest.approx(
            18 * 30.0 + 32 * (5.0 + 0.57 * 8) + 30.0 + (5.0 + 0.57 * 4)
        )
        # no ragged batch: 2 calls, 2 + 1 model-steps
        assert profiling.share_cost([256, 128], [8, 8], 128) == pytest.approx(2 * 30.0 + 3 * (5.0 + 0.57 * 8))

    @settings(max_examples=60, deadline=None)
    @given(
        models=st.lists(st.tuples(st.integers(1, 700), st.sampled_from([4, 8, 96])), min_size=1, max_size=7),
        shares=st.integers(1, 4),
    )
    def test_split_takes_the_best_contiguous_cuts(self, models, shares):
        sizes, widths = [n for n, _ in models], [w for _, w in models]
        shares = min(shares, len(models))
        split = profiling.split_shares(sizes, widths, 64, shares)

        def cost(share):
            return profiling.share_cost([sizes[j] for j in share], [widths[j] for j in share], 64)

        assert len(split) == shares and all(split) and all(s == sorted(s) for s in split)
        assert sorted(j for s in split for j in s) == list(range(len(models)))
        # against every way to cut the models, ordered by their own cost,
        # into `shares` runs
        order = sorted(range(len(models)), key=lambda j: -cost([j]))
        best = min(
            max(cost(order[lo:hi]) for lo, hi in zip((0,) + cuts, cuts + (len(order),)))
            for cuts in itertools.combinations(range(1, len(order)), shares - 1)
        )
        assert max(map(cost, split)) == best

    @settings(max_examples=25, deadline=None)
    @given(
        sets=st.lists(
            st.tuples(st.integers(1, 60), st.sampled_from([2, 5, 9]), st.integers(0, 2**31 - 1)),
            min_size=1, max_size=5,
        ),
        cpus=st.integers(1, 3),
    )
    def test_every_split_matches_one_process(self, small_ds, sets, cpus):
        train = part_indices(small_ds, "train")
        row_sets = [np.random.default_rng(seed).choice(train, n) for n, _, seed in sets]
        widths = [h for _, h, _ in sets]
        seeds = [seed for _, _, seed in sets]
        args = (small_ds, row_sets, widths, quick_train_cfg(epochs=2), seeds, seeds[::-1])
        with cpus_usable(cpus) as forks:
            models = profiling.train_on_row_sets(*args)
        with cpus_usable(1):
            alone = profiling.train_on_row_sets(*args)
        assert len(forks) == min(cpus, len(sets)) - 1
        assert [m.hidden_dim for m in models] == widths
        assert [params_hash(m) for m in models] == [params_hash(m) for m in alone]
        assert no_child_left()

    @pytest.mark.parametrize("scaled", [[1], [0], [0, 1]], ids=["child", "parent", "both"])
    def test_a_diverging_share_raises_as_one_process(self, small_ds, scaled):
        # sets 0 and 1 train in the calling process and in one child; a
        # scaled set diverges, set 0 at epoch 1 and set 1 at epoch 0, so
        # when both do, one process raises the child's error
        features = small_ds.features.copy()
        train = part_indices(small_ds, "train")
        row_sets = [train[::4][:40], train[1::4][:30]]
        for j in scaled:
            features[row_sets[j]] *= 1e150 if j else 1e100
        ds = dataclasses.replace(small_ds, features=features)
        args = (ds, row_sets, [4, 4], TrainConfig(1e3, 3, 64), [1, 2], [3, 4])
        epoch, message, _ = diverged(1, *args)
        assert epoch == (0 if 1 in scaled else 1)
        assert diverged(2, *args) == (epoch, message, 1)
        assert no_child_left()

    def test_a_failed_fork_trains_in_one_process_and_leaks_no_fd(self, small_ds, monkeypatch):
        args = three_sets(small_ds)
        with cpus_usable(1):
            alone = profiling.train_on_row_sets(*args)
        fds = len(os.listdir("/proc/self/fd"))

        def failed_fork():
            raise OSError("fork failed")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", failed_fork)
        models = profiling.train_on_row_sets(*args)
        assert len(os.listdir("/proc/self/fd")) == fds
        assert [params_hash(m) for m in models] == [params_hash(m) for m in alone]

    def test_a_child_whose_pickle_breaks_exits_non_zero(self, small_ds, monkeypatch):
        # the child writes half its pickle and raises: this process unpickles
        # a cut stream, reaps a non-zero status and trains the set again
        args = three_sets(small_ds)
        with cpus_usable(1):
            alone = profiling.train_on_row_sets(*args)
        statuses, waitpid = [], os.waitpid

        def broken_dump(obj, file, protocol):
            data = pickle.dumps(obj, protocol)
            file.write(data[: len(data) // 2])
            raise OSError("pickling failed")

        def recorded_waitpid(pid, options):
            statuses.append(waitpid(pid, options)[1])
            return pid, statuses[-1]

        monkeypatch.setattr(pickle, "dump", broken_dump)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        with cpus_usable(2) as forks:
            models = profiling.train_on_row_sets(*args)
        monkeypatch.undo()
        assert len(forks) == 1 and len(statuses) == 1 and os.WEXITSTATUS(statuses[0]) == 1
        assert [params_hash(m) for m in models] == [params_hash(m) for m in alone]
        assert no_child_left()


class TestRepositoryIO:
    def test_round_trip(self, tmp_path):
        ds = generate_dataset(small_generator_config())
        scenes = segment_semantic_scenes(ds)
        enc = train_scene_encoder(ds, scenes, 8, quick_train_cfg())
        cfg = quick_profiling_cfg(n=3, delta=0.0)
        repo = build_repository(ds, scenes, enc, cfg)
        path = tmp_path / "repo.json"
        profiling.save_repository(path, repo, cfg, "dhash", "ehash")
        again, body = profiling.load_repository(path, ds, "dhash")
        assert body["dataset_hash"] == "dhash"
        for a, b in zip(repo.entries, again.entries):
            assert params_hash(a.model) == params_hash(b.model)
            assert a.source == b.source
            assert a.scene.member_scene_ids == b.scene.member_scene_ids
            assert np.array_equal(a.scene.train_indices, b.scene.train_indices)
            assert np.array_equal(a.scene.valid_indices, b.scene.valid_indices)

    def test_encoder_round_trip(self, tmp_path, small_ds):
        scenes = segment_semantic_scenes(small_ds)
        enc = train_scene_encoder(small_ds, scenes, 8, quick_train_cfg())
        path = tmp_path / "encoder.json"
        profiling.save_encoder(path, enc, len(scenes), "dhash")
        again, body = profiling.load_encoder(path, "dhash")
        assert params_hash(again) == params_hash(enc)
