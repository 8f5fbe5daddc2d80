"""Acceptance criteria for the synthetic benchmark.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The heavy fixtures (10-seed benchmark, skewed-sampling benchmark) are built
once per session and shared.
"""

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from sceneselect import cli, dataset, decision, learners, profiling, runtime, sampling
from sceneselect.learners import TrainConfig

from conftest import run_pipeline
from test_runtime import ReferenceCache

BENCH_SEEDS = list(range(10))


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------------------
# Shared fixtures


@pytest.fixture(scope="session")
def ten_seed_results():
    """Default benchmark over seeds 0..9: anole vs baselines plus per-segment bests."""
    rows = []
    for seed in BENCH_SEEDS:
        p = run_pipeline(seed)
        cfg = p.cfg
        anole = runtime.run_trace(
            p.trace, p.decision, p.repo, cfg.capacity, cfg.window, cfg.low_confidence
        )
        ssm = runtime.run_baselines(
            p.trace,
            p.ds,
            ("ssm",),
            compressed_hidden=cfg.profiling.compressed_hidden,
            deep_hidden=cfg.deep_hidden,
            num_models=cfg.profiling.n,
            cfg=cfg.baseline_train,
            seeds=cfg.baseline_seeds,
            cache_capacity=cfg.capacity,
            window=cfg.window,
        )["ssm"]
        # sdm is built once: served over the trace as run_baselines does,
        # then scored per segment
        sdm_ranker, sdm_models = runtime.build_baseline(
            "sdm", p.ds, cfg.profiling.compressed_hidden, cfg.deep_hidden,
            cfg.profiling.n, cfg.baseline_train, cfg.baseline_seeds["sdm"],
        )
        sdm = runtime.run_trace(
            p.trace, sdm_ranker, sdm_models, min(cfg.capacity, len(sdm_models)), cfg.window,
            low_confidence=0.0,
        )
        sdm_model = sdm_models[0]
        seg = cfg.trace.segment_len
        X, y = p.trace.features, p.trace.labels
        segments = []
        for s in range(cfg.trace.num_segments):
            sl = slice(s * seg, (s + 1) * seg)
            best = max(
                profiling.macro_f1(
                    learners.predict(m, X[sl]), y[sl], p.ds.schema.num_classes
                )
                for m in p.repo.models
            )
            f_sdm = profiling.macro_f1(
                learners.predict(sdm_model, X[sl]), y[sl], p.ds.schema.num_classes
            )
            segments.append((best, f_sdm))
        rows.append(
            {
                "seed": seed,
                "pipeline": p,
                "anole": anole,
                "anole_f1": anole.mean_window_f1,
                "sdm_f1": sdm.mean_window_f1,
                "ssm_f1": ssm.mean_window_f1,
                "segments": segments,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Criteria


def test_01_gradient_oracle():
    """Backprop vs central finite differences on 20 random networks <= 8x8x4."""
    worst = 0.0
    h = 1e-4
    for seed in range(20):
        rng = np.random.default_rng(seed)
        i, hid, o = int(rng.integers(2, 9)), int(rng.integers(2, 9)), int(rng.integers(2, 5))
        m = learners.new_classifier(i, hid, o, int(rng.integers(1_000_000)))
        n = int(rng.integers(1, 6))
        X = rng.normal(size=(n, i))
        y = rng.integers(0, o, size=n)
        l2 = float(rng.choice([0.0, 0.01]))
        g = learners.gradient(m, X, y, l2)
        for arr, garr in ((m.W1, g.dW1), (m.b1, g.db1), (m.W2, g.dW2), (m.b2, g.db2)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                old = arr[ix]
                arr[ix] = old + h
                up = learners.cross_entropy(m, X, y, l2)
                arr[ix] = old - h
                dn = learners.cross_entropy(m, X, y, l2)
                arr[ix] = old
                fd = (up - dn) / (2 * h)
                rel = abs(garr[ix] - fd) / max(abs(garr[ix]), abs(fd), 1e-8)
                worst = max(worst, rel)
    assert report("01 gradient-oracle", worst < 1e-4, f"max rel err {worst:.3e}")


def coverage_probability(g, m, trials=10_000, seed=0):
    rng = np.random.default_rng(seed)
    hits = 0
    batch = 500
    for start in range(0, trials, batch):
        b = min(batch, trials - start)
        draws = rng.integers(0, g, size=(b, m))
        mask = np.zeros((b, g), dtype=bool)
        mask[np.arange(b)[:, None], draws] = True
        hits += int(mask.all(axis=1).sum())
    return hits / trials


def test_02_well_sampled_monte_carlo():
    """Coupon-collector bound vs empirical full-coverage probability."""
    ok = True
    details = []
    for g, theta in ((50, 0.9), (100, 0.95)):
        m = math.ceil(sampling.well_sampled_threshold(g, theta))
        p = coverage_probability(g, m, seed=g)
        details.append(f"(g={g}, theta={theta}): m={m} coverage={p:.4f}")
        ok &= abs(p - theta) <= 0.03
    assert report("02 well-sampled-monte-carlo", ok, "; ".join(details))


def test_03_kmeans():
    rng = np.random.default_rng(1234)
    monotone = True
    for trial in range(100):
        pts = rng.normal(size=(int(rng.integers(8, 50)), int(rng.integers(2, 6))))
        k = int(rng.integers(2, 7))
        res = profiling.kmeans(pts, k, seed=trial)
        hist = res.inertia_history
        monotone &= all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    fixture = profiling.kmeans([(0.0, 0.0), (0.0, 1.0), (10.0, 0.0), (10.0, 1.0)], 2, seed=0)
    split_ok = (
        fixture.inertia == 1.0
        and fixture.assignments[0] == fixture.assignments[1]
        and fixture.assignments[2] == fixture.assignments[3]
        and fixture.assignments[0] != fixture.assignments[2]
    )
    assert report(
        "03 kmeans", monotone and split_ok, f"monotone={monotone} fixture_inertia={fixture.inertia}"
    )


def test_04_lfu_equivalence():
    """Runtime cache vs brute-force reference, decision for decision."""
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        capacity = int(rng.integers(1, n + 1))
        cache = runtime.ModelCache(capacity)
        ref = ReferenceCache(capacity)
        for _ in range(int(rng.integers(5, 40))):
            ranking = rng.permutation(n)
            if runtime.cache_request(cache, ranking) != ref.request(list(ranking)):
                mismatches += 1
    assert report("04 lfu-equivalence", mismatches == 0, f"{mismatches} mismatching decisions")


def test_05_sampling_balance(skew_results):
    """Adaptive vs random positive-count balance on the skewed benchmark.

    The bandit's literal update rule (chosen arm alpha+1, every other active
    arm beta+1, deterministic reward) on its own concentrates the budget on
    one arm until its scene drains, so an arm holding the oversized scene
    could take nearly the whole budget. The sampler's per-arm share cap
    (ceil(kappa / n) draws, raised only once every live arm has reached it)
    keeps the oversized scene to its share in every seed, so the per-seed
    comparison must hold in at least 9 of 10 seeds, not only in aggregate
    (test_sampling).
    """

    def cov(x):
        x = np.asarray(x, float)
        return float(x.std() / x.mean())

    wins = sum(
        1 for r in skew_results if cov(r["adaptive_positives"]) < cov(r["random_positives"])
    )
    margins = [
        round(cov(r["random_positives"]) - cov(r["adaptive_positives"]), 3)
        for r in skew_results
    ]
    assert report(
        "05 sampling-balance",
        wins >= 9,
        f"wins={wins}/10 (need >= 9); per-seed (random - adaptive) margins {margins}",
    )


def test_06_own_scene_misprediction(bench42):
    """At least one repository model mispredicts a sample of its own training scene."""
    witness = None
    for idx, entry in enumerate(bench42.repo.entries):
        X = bench42.ds.features[entry.scene.train_indices]
        y = bench42.ds.labels[entry.scene.train_indices]
        wrong = np.nonzero(learners.predict(entry.model, X) != y)[0]
        if len(wrong):
            witness = (idx, int(entry.scene.train_indices[wrong[0]]))
            break
    assert report(
        "06 own-scene-misprediction",
        witness is not None,
        f"model {witness[0]} mispredicts its own training sample {witness[1]}" if witness else "",
    )


def test_07_method_ordering(ten_seed_results):
    """Anole >= SSM + 0.05 and >= SDM - 0.02 in the mean; per-segment best
    repository model within 0.05 of SDM on every seen segment."""
    anole = float(np.mean([r["anole_f1"] for r in ten_seed_results]))
    sdm = float(np.mean([r["sdm_f1"] for r in ten_seed_results]))
    ssm = float(np.mean([r["ssm_f1"] for r in ten_seed_results]))
    worst_gap = min(best - f_sdm for r in ten_seed_results for best, f_sdm in r["segments"])
    ok = anole >= ssm + 0.05 and anole >= sdm - 0.02 and worst_gap >= -0.05
    assert report(
        "07 method-ordering",
        ok,
        f"anole={anole:.4f} sdm={sdm:.4f} ssm={ssm:.4f} worst_segment_gap={worst_gap:+.4f}",
    )


def test_08_cache_sweep(bench42):
    """Miss rate monotone over capacities 1..n; F1 at 5 slots within 0.02 of n slots."""
    cfg = bench42.cfg
    results = [
        runtime.run_trace(bench42.trace, bench42.decision, bench42.repo, cap, cfg.window, cfg.low_confidence)
        for cap in range(1, len(bench42.repo.models) + 1)
    ]
    miss = [m.miss_rate for m in results]
    monotone = all(b <= a + 1e-12 for a, b in zip(miss, miss[1:]))
    gap = abs(results[4].mean_window_f1 - results[-1].mean_window_f1)
    assert report(
        "08 cache-sweep",
        monotone and gap <= 0.02,
        f"miss_rates={[round(m, 3) for m in miss]} f1_gap_at_5={gap:.4f}",
    )


def test_09_power_law_utility(bench42):
    """Top-5 models cover at least 80% of top-1 selection events."""
    cfg = bench42.cfg
    metrics = runtime.run_trace(
        bench42.trace, bench42.decision, bench42.repo, cfg.capacity, cfg.window, cfg.low_confidence
    )
    coverage = runtime.summarize(metrics)["top5_coverage"]
    assert report("09 power-law-utility", coverage >= 0.8, f"top5_coverage={coverage:.3f}")


def test_10_decision_competence(bench42):
    """One-hot fixture: held-out top-1 scene selection accuracy >= 0.9."""
    ds, scenes, encoder = bench42.ds, bench42.scenes, bench42.encoder
    lookup = {s.attrs: s.scene_id for s in scenes}
    train_idx = dataset.part_indices(ds, "train")
    labels = np.zeros((len(train_idx), len(scenes)))
    for row, i in enumerate(train_idx):
        labels[row, lookup[tuple(ds.attrs[i])]] = 1.0
    model = decision.train_decision(
        encoder, ds, train_idx, labels, bench42.cfg.head_hidden,
        TrainConfig(0.2, 60, 128, seed=21),
    )
    valid_idx = dataset.part_indices(ds, "valid")
    hits = 0
    for i in valid_idx:
        probs, ranking = decision.rank_models(model, ds.features[i][None])
        hits += int(ranking[0][0] == lookup[tuple(ds.attrs[i])])
    accuracy = hits / len(valid_idx)
    assert report("10 decision-competence", accuracy >= 0.9, f"top1 accuracy={accuracy:.4f}")


def dir_digest(root):
    digest = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


def test_11_determinism(tmp_path):
    """The whole CLI pipeline run twice with seed 42 is byte-identical."""
    digests = []
    for run in ("a", "b"):
        root = tmp_path / run
        root.mkdir()
        data = root / "data.jsonl"
        assert cli.main(["generate", "--out", str(data), "--seed", "42"]) == 0
        prof = root / "prof"
        assert cli.main(["profile", "--dataset", str(data), "--out", str(prof)]) == 0
        pools = root / "pools.json"
        assert cli.main([
            "sample", "--dataset", str(data),
            "--repository", str(prof / "repository.json"), "--out", str(pools),
        ]) == 0
        dec = root / "decision.json"
        assert cli.main([
            "train-decision", "--dataset", str(data),
            "--repository", str(prof / "repository.json"),
            "--encoder", str(prof / "encoder.json"), "--pools", str(pools), "--out", str(dec),
        ]) == 0
        sim = root / "sim"
        assert cli.main([
            "simulate", "--dataset", str(data), "--baseline", "anole",
            "--repository", str(prof / "repository.json"),
            "--encoder", str(prof / "encoder.json"), "--decision", str(dec),
            "--out", str(sim),
        ]) == 0
        assert cli.main([
            "simulate", "--dataset", str(data), "--baseline", "ssm", "--out", str(sim),
        ]) == 0
        digests.append(dir_digest(root))
    identical = digests[0] == digests[1]
    assert report("11 determinism", identical, f"{len(digests[0])} files compared")


def test_separability_property():
    """Benchmark guarantee: a per-cell classifier reaches F1 >= 0.95 on its own
    cell when label noise is zero and the spread is small."""
    cfg = cli.load_run_config()
    cfg.generator.label_rule_noise = 0.0
    cfg.generator.cluster_spread = 0.15
    cfg.generator.seed = 42
    ds = dataset.generate_dataset(cfg.generator)
    scenes = profiling.segment_semantic_scenes(ds)
    worst = 1.0
    for scene in scenes:
        model = learners.new_classifier(
            ds.schema.feature_dim, cfg.profiling.compressed_hidden, ds.schema.num_classes, seed=scene.scene_id
        )
        learners.train(
            model,
            ds.features[scene.sample_indices],
            ds.labels[scene.sample_indices],
            dataclasses.replace(cfg.profiling.model_train, seed=scene.scene_id + 100),
        )
        valid = [
            i for i in dataset.part_indices(ds, "valid") if tuple(ds.attrs[i]) == scene.attrs
        ]
        f1 = profiling.macro_f1(
            learners.predict(model, ds.features[valid]), ds.labels[valid], ds.schema.num_classes
        )
        worst = min(worst, f1)
    assert report("00 separability-property", worst >= 0.95, f"worst per-cell F1={worst:.4f}")
