"""Shared fixtures: small calibration datasets and the full default benchmark."""

from dataclasses import dataclass

import pytest

from sceneselect import cli, dataset, decision, profiling, sampling


def small_generator_config(
    seed=42,
    num_cells=4,
    cards=(2, 2),
    clips_per_cell=2,
    frames_per_clip=50,
    feature_dim=6,
    num_classes=3,
    spread=0.2,
    noise=0.0,
    drift=0.1,
    cell_weights=None,
):
    return dataset.GeneratorConfig(
        schema=dataset.DatasetSchema(feature_dim, num_classes, tuple(cards)),
        num_semantic_cells=num_cells,
        clips_per_cell=clips_per_cell,
        frames_per_clip=frames_per_clip,
        cluster_spread=spread,
        label_rule_noise=noise,
        drift_strength=drift,
        seed=seed,
        cell_weights=cell_weights,
    )


@dataclass
class Pipeline:
    cfg: object
    ds: object
    scenes: list
    encoder: object
    repo: object
    state: object
    decision: object
    trace: object  # dataset.Trace


def run_pipeline(gen_seed, cfg=None, with_decision=True, with_trace=True):
    """Drive the full offline pipeline for one benchmark seed."""
    cfg = cfg or cli.load_run_config()
    cfg.generator.seed = gen_seed
    ds = dataset.generate_dataset(cfg.generator)
    scenes = profiling.segment_semantic_scenes(ds)
    encoder = profiling.train_scene_encoder(
        ds, scenes, cfg.profiling.encoder_hidden, cfg.profiling.encoder_train
    )
    repo = profiling.build_repository(ds, scenes, encoder, cfg.profiling)
    state = dm = trace = None
    if with_decision:
        state = sampling.adaptive_sampling(ds, repo, cfg.sampling)
        dm = decision.train_decision(
            encoder, ds, state.rows, state.bits, cfg.head_hidden, cfg.decision_train
        )
    if with_trace:
        trace = dataset.synthesize_trace(
            ds,
            cfg.trace.num_source_clips,
            cfg.trace.segment_len,
            cfg.trace.num_segments,
            cfg.trace.seed,
        )
    return Pipeline(cfg, ds, scenes, encoder, repo, state, dm, trace)


@pytest.fixture(scope="session")
def bench42():
    """Default benchmark, seed 42, full pipeline (shared across test modules)."""
    return run_pipeline(42)


@pytest.fixture(scope="session")
def small_ds():
    """Quick 4-cell dataset for unit tests."""
    return dataset.generate_dataset(small_generator_config())


@pytest.fixture(scope="session")
def skew_results():
    """Skewed benchmark (one scene family 10x larger): adaptive vs random pools
    at equal budget, over benchmark seeds 0..9."""
    rows = []
    for seed in range(10):
        cfg = cli.load_run_config()
        cfg.generator.seed = seed
        cfg.generator.frames_per_clip = 150
        cfg.generator.cell_weights = (10, 1, 1, 1, 1, 1)
        ds = dataset.generate_dataset(cfg.generator)
        scenes = profiling.segment_semantic_scenes(ds)
        encoder = profiling.train_scene_encoder(
            ds, scenes, cfg.profiling.encoder_hidden, cfg.profiling.encoder_train
        )
        repo = profiling.build_repository(ds, scenes, encoder, cfg.profiling)
        kappa = 800
        ad = sampling.adaptive_sampling(ds, repo, sampling.SamplingConfig(0.9, kappa, seed))
        rn = sampling.random_sampling(ds, repo, kappa, seed)
        rows.append(
            {
                "seed": seed,
                "adaptive_positives": sampling.positives_per_model(ad),
                "random_positives": sampling.positives_per_model(rn),
            }
        )
    return rows


def params_hash(model):
    return (
        model.W1.tobytes(),
        model.b1.tobytes(),
        model.W2.tobytes(),
        model.b2.tobytes(),
    )
