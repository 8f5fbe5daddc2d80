"""Shared fixtures: small calibration datasets and the full default benchmark."""

import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from sceneselect import cli, dataset, decision, learners, profiling, sampling
from sceneselect.errors import ConfigError

# CI runs with HYPOTHESIS_PROFILE=ci: examples are drawn from a fixed seed,
# so a property that fails there fails the same way on a rerun.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
        rn = random_sampling(ds, repo, kappa, seed)
        rows.append(
            {
                "seed": seed,
                "adaptive_positives": sampling.positives_per_model(ad),
                "random_positives": sampling.positives_per_model(rn),
            }
        )
    return rows


def random_sampling(ds, repo, kappa: int, seed: int) -> sampling.SamplingState:
    """Uniform draws (without replacement) from the training split, same
    probing. There are no arms and no stopping rule. The baseline that
    `test_05_sampling_balance` holds adaptive pools against."""
    if kappa < 0:
        raise ConfigError("kappa must be non-negative")
    train = dataset.part_indices(ds, "train")
    picks = train[np.random.default_rng(seed).permutation(len(train))[:kappa]]
    bits = sampling._probe_rows(ds, repo.models, picks, picks)
    return sampling.SamplingState(arms=[], rows=picks.tolist(), bits=bits)


def decision_probs(dm, X):
    """Per-model suitability probabilities (n, models) of a batch: the
    sigmoid of the decision head's logits."""
    return learners.expit(learners.logits(dm.head, learners.embed(dm.backbone, X)))


def train_pooled(models, Xs, ys, cfgs):
    """`learners.train_stack` over one training set per model: the sets are
    pooled into one X and one y, and each model indexes its own rows, in order."""
    ends = np.cumsum([len(X) for X in Xs])
    rows = [np.arange(end - len(X), end) for X, end in zip(Xs, ends)]
    learners.train_stack(models, np.concatenate(Xs), np.concatenate(ys), rows, cfgs)


def params_hash(model):
    return (
        model.W1.tobytes(),
        model.b1.tobytes(),
        model.W2.tobytes(),
        model.b2.tobytes(),
    )
