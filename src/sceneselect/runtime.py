"""Online inference over a trace: whole-trace ranking, LFU model cache, metrics.

Every frame is ranked independently (scene changes are not announced), so
ranking does not depend on cache state and the whole trace is ranked in one
batch. The cache is the one stateful step and runs frame by frame: if the
top-ranked model is resident it serves the frame; otherwise the best-ranked
resident model serves this frame as a fallback and the missing top model is
loaded afterwards, evicting the least-frequently-used resident if the cache
is full. Use counts reset on load, so eviction is LFU over residency. Once
the cache has picked every frame's model, each served model predicts its
frames in one batch. A run's per-frame results are columns: one array per
field, indexed by frame.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from . import learners
from .artifacts import atomic_path
from .dataset import Dataset, part_indices
from .decision import DecisionModel, rank_models
from .errors import ConfigError
from .learners import TrainConfig, VectorClassifier
from .profiling import kmeans, macro_f1, train_on_row_sets

log = logging.getLogger(__name__)


@dataclass
class CacheEntry:
    use_count: int
    load_order: int


@dataclass
class ModelCache:
    """Fixed number of model slots with LFU eviction (ties: oldest load first)."""

    capacity: int
    loaded: dict = field(default_factory=dict)  # model index -> CacheEntry
    loads: int = 0  # loads so far; the next load's load_order

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigError("cache capacity must be >= 1")


def cache_request(cache: ModelCache, ranking) -> tuple:
    """Serve one frame given a ranking, a permutation of the model indices;
    returns (served_model_index, was_miss).

    Hit: the top-ranked model is resident and serves. Miss: the best-ranked
    resident serves this frame, then the LFU resident is evicted (if the
    cache is full) and the top model is loaded for subsequent frames. The
    eviction victim is picked by the use counts as they stood when the
    request arrived, so a resident can serve the frame and still be the one
    evicted. An empty cache loads and serves the top model immediately,
    counted as a miss.
    """
    top = int(ranking[0])
    loaded = cache.loaded
    entry = loaded.get(top)
    if entry is not None:
        entry.use_count += 1
        return top, False
    served = top
    if loaded:
        served = int(next(m for m in ranking if m in loaded))
        victim = None
        if len(loaded) >= cache.capacity:
            victim = min(loaded.items(), key=lambda kv: (kv[1].use_count, kv[1].load_order))[0]
        loaded[served].use_count += 1
        if victim is not None:
            del loaded[victim]
    loaded[top] = CacheEntry(use_count=int(served == top), load_order=cache.loads)
    cache.loads += 1
    return served, True


@dataclass
class TraceMetrics:
    """One trace run. ``served``, ``top1``, ``missed`` and ``correct`` are
    per-frame columns of length F: the model that served frame f, the model
    ranked first for it, whether its cache request missed, and whether the
    served model's prediction was right. Frame f falls in window f // window.
    """

    served: np.ndarray  # (F,) int
    top1: np.ndarray  # (F,) int
    missed: np.ndarray  # (F,) bool
    correct: np.ndarray  # (F,) bool
    window_f1: list  # (window_id, macro F1), one per window, in frame order
    cache_misses: int
    cache_accesses: int
    switch_frames: list
    scene_durations: list
    top1_counts: np.ndarray
    low_confidence_events: int
    window: int

    @property
    def miss_rate(self) -> float:
        return self.cache_misses / self.cache_accesses if self.cache_accesses else 0.0

    @property
    def mean_window_f1(self) -> float:
        return float(np.mean([f1 for _, f1 in self.window_f1]))


def run_trace(
    trace,
    decision,
    models,
    cache_capacity: int,
    window: int = 10,
    low_confidence: float = 0.2,
) -> TraceMetrics:
    """Drive a trace through ranking, cache, and inference.

    ``trace`` is a `dataset.Trace`. ``decision`` is either a DecisionModel or
    a batch ranker, a callable trace -> (probs (F, n), rankings (F, n)), so
    baselines and oracle rankers take the same path. The whole trace is
    ranked in one call, the LFU cache runs frame by frame, and each served
    model then predicts all of its frames in one batch. F1 is computed per
    ``window`` frames (macro over classes present; the last window may be
    short), every window in one `macro_f1` call; a ``window`` below 1 is a
    ConfigError. A max suitability below ``low_confidence`` is recorded as a
    no-suitable-model event; the frame is still served.
    """
    if len(trace) == 0:
        raise ConfigError("trace is empty")
    if hasattr(models, "models"):  # accept a ModelRepository directly
        models = models.models
    X = trace.features
    if isinstance(decision, DecisionModel):
        if decision.n != len(models):
            raise ConfigError("decision output width does not match the repository size")
        probs, rankings = rank_models(decision, X)
    else:
        probs, rankings = decision(trace)
    frames = len(trace)
    if probs.shape != (frames, len(models)) or rankings.shape != (frames, len(models)):
        raise ConfigError(f"ranker must return ({frames}, {len(models)}) probabilities and rankings")

    top1 = rankings[:, 0]
    low = probs.max(axis=1) < low_confidence
    for frame in np.flatnonzero(low):
        log.debug("frame %d: no model above confidence %.2f", frame, low_confidence)

    cache = ModelCache(cache_capacity)
    served, missed = zip(*[cache_request(cache, ranking) for ranking in rankings.tolist()])
    served, missed = np.array(served), np.array(missed)

    preds = np.empty(frames, dtype=int)
    for model in np.unique(served):
        rows = np.flatnonzero(served == model)
        preds[rows] = learners.predict(models[model], X[rows])
    labels = trace.labels

    num_classes = models[0].output_dim
    window_f1 = list(enumerate(macro_f1(preds, labels, num_classes, window).tolist()))
    switch_frames = (np.flatnonzero(served[1:] != served[:-1]) + 1).tolist()
    durations = np.diff([0, *switch_frames, frames]).tolist()

    return TraceMetrics(
        served=served,
        top1=top1,
        missed=missed,
        correct=preds == labels,
        window_f1=window_f1,
        cache_misses=int(missed.sum()),
        cache_accesses=frames,
        switch_frames=switch_frames,
        scene_durations=durations,
        top1_counts=np.bincount(top1, minlength=len(models)),
        low_confidence_events=int(low.sum()),
        window=window,
    )


def summarize(metrics: TraceMetrics) -> dict:
    """Roll a trace run up into the quantities the comparisons are made on."""
    if not metrics.cache_accesses:
        raise ConfigError("metrics are empty")
    durations = np.array(metrics.scene_durations)
    quartiles = np.percentile(durations, [0, 25, 50, 75, 100])
    order = sorted(
        range(len(metrics.top1_counts)),
        key=lambda i: (-metrics.top1_counts[i], i),
    )
    histogram = [[int(i), int(metrics.top1_counts[i])] for i in order]
    total = int(metrics.top1_counts.sum())
    top5 = sum(count for _, count in histogram[:5])
    return {
        "frames": metrics.cache_accesses,
        "miss_rate": metrics.miss_rate,
        "mean_window_f1": metrics.mean_window_f1,
        "duration_quartiles": [float(q) for q in quartiles],
        "switches": len(metrics.switch_frames),
        "top1_histogram": histogram,
        "top5_coverage": top5 / total if total else 0.0,
        "low_confidence_events": metrics.low_confidence_events,
    }


def write_metrics_csv(metrics: TraceMetrics, path) -> None:
    """One row per frame; written to a temporary file and renamed into place."""
    frame = np.arange(metrics.cache_accesses)
    columns = (frame, frame // metrics.window, metrics.served, metrics.top1,
               metrics.missed.astype(int), metrics.correct.astype(int))
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame", "window_id", "served_model", "top1_model", "miss", "correct"])
        writer.writerows(zip(*(c.tolist() for c in columns)))


# ---------------------------------------------------------------------------
# Baselines: one deep model, one compressed model, feature-space clustering
# with nearest-centroid selection, and one model per generator cell family.


def constant_ranker(num_models: int = 1):
    """Batch ranker that ranks the models in index order on every frame."""

    def rank(trace):
        frames = len(trace)
        return np.ones((frames, num_models)), np.tile(np.arange(num_models), (frames, 1))

    return rank


def train_global_model(ds: Dataset, hidden_dim: int, cfg: TrainConfig) -> VectorClassifier:
    """Single model over the whole training split (deep or compressed per hidden_dim)."""
    train = part_indices(ds, "train")
    model = learners.new_classifier(ds.schema.feature_dim, hidden_dim, ds.schema.num_classes, cfg.seed)
    learners.train(model, ds.features[train], ds.labels[train], cfg)
    return model


@dataclass
class CdgBaseline:
    """Clusters of raw training features; selection by nearest cluster mean."""

    models: list
    centroids: np.ndarray

    def ranker(self):
        def rank(trace):
            d = np.linalg.norm(self.centroids[None, :, :] - trace.features[:, None, :], axis=2)
            rankings = np.argsort(d, axis=1, kind="stable")  # equidistant -> lowest index
            return 1.0 / (1.0 + d), rankings

        return rank


def build_cdg(ds: Dataset, k: int, hidden_dim: int, cfg: TrainConfig, seed: int) -> CdgBaseline:
    train = part_indices(ds, "train")
    X = ds.features[train]
    result = kmeans(X, k, seed=seed)
    members = [train[result.assignments == j] for j in range(k)]
    seeds = range(seed + 1, seed + k + 1)
    models = train_on_row_sets(ds, members, hidden_dim, cfg, seeds, seeds)
    return CdgBaseline(models=models, centroids=result.centroids)


@dataclass
class DmmBaseline:
    """One model per value of attribute dimension 0 (the coarse source family)."""

    models: list
    families: list  # family value per model slot, ascending

    def ranker(self):
        families = np.array(self.families)

        def rank(trace):
            family = trace.attrs[:, 0]
            if not np.isin(family, families).all():
                raise ConfigError("dmm has no model for a family in the trace")
            probs = np.zeros((len(family), len(self.models)))
            probs[np.arange(len(family)), np.searchsorted(families, family)] = 1.0
            # own family first, then the rest by index
            return probs, np.argsort(-probs, axis=1, kind="stable")

        return rank


def build_dmm(ds: Dataset, hidden_dim: int, cfg: TrainConfig, seed: int) -> DmmBaseline:
    train = part_indices(ds, "train")
    family = ds.attrs[train, 0]
    families = np.unique(family).tolist()
    members = [train[family == fam] for fam in families]
    seeds = range(seed, seed + len(families))
    models = train_on_row_sets(ds, members, hidden_dim, cfg, seeds, seeds)
    return DmmBaseline(models=models, families=families)


def build_baseline(name: str, ds: Dataset, compressed_hidden: int, deep_hidden: int,
                   num_models: int, cfg: TrainConfig, seed: int):
    """(ranker, models) for one baseline: sdm, ssm, cdg, or dmm."""
    tc = dataclasses.replace(cfg, seed=seed)
    if name == "sdm":
        return constant_ranker(1), [train_global_model(ds, deep_hidden, tc)]
    if name == "ssm":
        return constant_ranker(1), [train_global_model(ds, compressed_hidden, tc)]
    if name == "cdg":
        base = build_cdg(ds, num_models, compressed_hidden, tc, seed)
        return base.ranker(), base.models
    if name == "dmm":
        base = build_dmm(ds, compressed_hidden, tc, seed)
        return base.ranker(), base.models
    raise ConfigError(f"unknown baseline {name!r}")


def run_baselines(trace, ds: Dataset, names, compressed_hidden: int, deep_hidden: int,
                  num_models: int, cfg: TrainConfig, seeds: dict,
                  cache_capacity: int, window: int = 10) -> dict:
    """Train and run the requested baselines over one trace (same metrics shape)."""
    out = {}
    for name in names:
        ranker, models = build_baseline(
            name, ds, compressed_hidden, deep_hidden, num_models, cfg, seeds[name]
        )
        capacity = min(cache_capacity, len(models))
        out[name] = run_trace(trace, ranker, models, capacity, window, low_confidence=0.0)
    return out
