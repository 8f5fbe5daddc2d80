"""Online inference over a trace: whole-trace ranking, LFU model cache, metrics.

Every frame is ranked independently (scene changes are not announced), so
ranking does not depend on cache state and the whole trace is ranked in one
batch. The cache is the one stateful step: if the top-ranked model is
resident it serves the frame; otherwise the best-ranked resident model
serves this frame as a fallback and the missing top model is loaded
afterwards, evicting the least-frequently-used resident if the cache is
full. Use counts reset on load, so eviction is LFU over residency. After any
request the top model is resident, so every later frame of a run of equal
top-1 is a hit that adds one use: the cache is asked once per such run, for
the run's first frame and its length. Once the cache has picked every
frame's model, each served model predicts its frames in one batch. A run's
per-frame results are columns: one array per field, indexed by frame.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from . import learners
from .artifacts import atomic_path
from .dataset import Dataset, part_indices
from .decision import DecisionModel, rank_models
from .errors import ConfigError
from .learners import TrainConfig
from .profiling import kmeans, macro_f1, train_on_row_sets


@dataclass
class ModelCache:
    """Fixed number of model slots with LFU eviction (ties: oldest load first).

    ``loaded`` maps each resident model index to its use count. A model is
    inserted only when it loads, so the dict's order is load order.
    """

    capacity: int
    loaded: dict = field(default_factory=dict)  # model index -> use count, oldest load first

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigError("cache capacity must be >= 1")


def cache_request(cache: ModelCache, ranking, frames: int = 1) -> tuple:
    """Serve one frame given a ranking, a permutation of the model indices;
    returns (served_model_index, was_miss).

    Hit: the top-ranked model is resident and serves. Miss: the best-ranked
    resident serves this frame, then the LFU resident is evicted (if the
    cache is full) and the top model is loaded for subsequent frames. The
    eviction victim is picked by the use counts as they stood when the
    request arrived, so a resident can serve the frame and still be the one
    evicted. Among equal counts the victim is the first in ``loaded``, the
    oldest load. An empty cache loads and serves the top model immediately,
    counted as a miss. A miss whose ranking names no resident model (so it
    is no permutation of the model indices) is a ConfigError.

    ``frames`` > 1 serves a run of that many frames with the same top model
    from the run's first ranking: the later frames are hits on the top
    model, so it gains ``frames - 1`` more uses, and the cache ends as after
    one request per frame. The answer is the first frame's. A miss with
    ``frames`` < 1 is a ConfigError: it would store a negative use count.
    A hit, which stores no new count, does not check ``frames``.
    """
    top = int(ranking[0])
    loaded = cache.loaded
    if top in loaded:
        loaded[top] += frames
        return top, False
    if frames < 1:
        raise ConfigError(f"a request serves at least one frame, got frames={frames}")
    if not loaded:
        loaded[top] = frames
        return top, True
    for m in ranking:
        if m in loaded:
            served = int(m)
            break
    else:
        raise ConfigError("ranking names no resident model")
    if len(loaded) >= cache.capacity:
        # min keeps the first of equal counts: the oldest load
        victim = min(loaded, key=loaded.__getitem__)
        loaded[served] += 1
        del loaded[victim]
    else:
        loaded[served] += 1
    loaded[top] = frames - 1  # served != top: the first frame is not a use
    return served, True


@dataclass
class TraceMetrics:
    """One trace run. ``served``, ``top1``, ``missed`` and ``correct`` are
    per-frame columns of length F: the model that served frame f, the model
    ranked first for it, whether that model was missing from the cache, and
    whether the served model's prediction was right. Frame f falls in window
    f // window.
    """

    served: np.ndarray  # (F,) int
    top1: np.ndarray  # (F,) int
    missed: np.ndarray  # (F,) bool
    correct: np.ndarray  # (F,) bool
    window_f1: np.ndarray  # (W,) float, macro F1 of window w at index w
    top1_counts: np.ndarray  # (num models,) int, frames each model ranked first
    low_confidence_events: int
    window: int

    @property
    def cache_accesses(self) -> int:
        return len(self.served)

    @property
    def cache_misses(self) -> int:
        return int(self.missed.sum())

    @property
    def miss_rate(self) -> float:
        return self.cache_misses / self.cache_accesses if self.cache_accesses else 0.0

    @property
    def mean_window_f1(self) -> float:
        return float(np.mean(self.window_f1))


def _check_rankings(rankings, frames: int, n: int) -> None:
    """Raise ConfigError unless a batch ranker's answer is an (F, n) integer
    array whose every row is a permutation of the model indices 0..n-1,
    naming the first frame that breaks this."""
    if not isinstance(rankings, np.ndarray) or rankings.shape != (frames, n):
        raise ConfigError(f"ranker must return ({frames}, {n}) rankings")
    if rankings.dtype.kind not in "iu":
        raise ConfigError(f"ranker must return integer rankings, not {rankings.dtype}")
    if rankings.min() < 0 or rankings.max() >= n:
        frame, pos = np.argwhere((rankings < 0) | (rankings >= n))[0].tolist()
        raise ConfigError(
            f"ranker gave frame {frame} the model index {rankings[frame, pos]}, outside [0, {n})"
        )
    ordered = np.sort(rankings, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        frame = int(repeats.argmax())
        raise ConfigError(f"ranker gave frame {frame} a ranking that repeats a model index")


def predict_served(models, X: np.ndarray, served: np.ndarray) -> np.ndarray:
    """Each frame's class as predicted by the model that served it.

    The frames are grouped by model with one stable sort, so each model that
    served a frame predicts all of its frames, in frame order, in one
    `learners.predict` call on a contiguous slice; the answers are scattered
    back to frame order at once.
    """
    order = np.argsort(served, kind="stable")
    grouped = X[order]
    grouped_preds = np.empty(len(served), dtype=int)
    start = 0
    for model, count in enumerate(np.bincount(served, minlength=len(models)).tolist()):
        if count:
            stop = start + count
            grouped_preds[start:stop] = learners.predict(models[model], grouped[start:stop])
            start = stop
    preds = np.empty_like(grouped_preds)
    preds[order] = grouped_preds
    return preds


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
    a batch ranker, a callable trace -> rankings (F, n) giving each frame's
    model order, so baselines and oracle rankers take the same path. The
    whole trace is ranked in one call, the LFU cache is asked once per run
    of frames with equal top-1 (the later frames of a run hit their top
    model), and each served model then predicts all of its frames in one
    batch. F1 is computed per ``window`` frames (macro over classes present;
    the last window may be short), every window in one `macro_f1` call; a
    ``window`` below 1 is a ConfigError. Only a DecisionModel has a
    confidence: a frame whose top suitability is below ``low_confidence`` is
    recorded as a no-suitable-model event and is still served. A batch ranker
    records none, and its answer is checked before the cache runs: anything
    but an (F, n) integer array whose rows are permutations of 0..n-1 is a
    ConfigError, which names the first frame at fault.
    """
    if len(trace) == 0:
        raise ConfigError("trace is empty")
    if hasattr(models, "models"):  # accept a ModelRepository directly
        models = models.models
    X, frames = trace.features, len(trace)
    if isinstance(decision, DecisionModel):
        if decision.n != len(models):
            raise ConfigError("decision output width does not match the repository size")
        confidence, rankings = rank_models(decision, X)
        low_confidence_events = int((confidence < low_confidence).sum())
    else:
        rankings, low_confidence_events = decision(trace), 0
        _check_rankings(rankings, frames, len(models))

    top1 = rankings[:, 0]
    edges = np.ones(frames + 1, dtype=bool)
    np.not_equal(top1[1:], top1[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)  # each run's first frame, then the trace length
    starts = bounds[:-1]
    cache = ModelCache(cache_capacity)
    answers = np.fromiter(
        chain.from_iterable(
            map(cache_request, repeat(cache), rankings[starts].tolist(), np.diff(bounds).tolist())
        ),
        dtype=int, count=2 * len(starts),
    )
    served = top1.astype(int)  # a copy in int64, whatever the ranker's dtype
    served[starts] = answers[::2]
    missed = np.zeros(frames, dtype=bool)
    missed[starts] = answers[1::2]

    preds = predict_served(models, X, served)
    labels = trace.labels

    return TraceMetrics(
        served=served,
        top1=top1,
        missed=missed,
        correct=preds == labels,
        window_f1=macro_f1(preds, labels, models[0].output_dim, window),
        top1_counts=np.bincount(top1, minlength=len(models)),
        low_confidence_events=low_confidence_events,
        window=window,
    )


def summarize(metrics: TraceMetrics) -> dict:
    """Roll a trace run up into the quantities the comparisons are made on.

    A switch is a frame served by another model than the frame before it; a
    scene duration is the length of a run of frames served by one model. The
    histogram lists (model, frames ranked first), most frames first, ties by
    model index.
    """
    frames = metrics.cache_accesses
    if not frames:
        raise ConfigError("metrics are empty")
    served = metrics.served
    switch_frames = np.flatnonzero(served[1:] != served[:-1]) + 1
    durations = np.diff(np.concatenate(([0], switch_frames, [frames])))
    counts = metrics.top1_counts
    order = np.argsort(-counts, kind="stable")
    histogram = [[i, c] for i, c in zip(order.tolist(), counts[order].tolist())]
    return {
        "frames": frames,
        "miss_rate": metrics.miss_rate,
        "mean_window_f1": metrics.mean_window_f1,
        "duration_quartiles": np.percentile(durations, [0, 25, 50, 75, 100]).tolist(),
        "switches": len(switch_frames),
        "top1_histogram": histogram,
        "top5_coverage": sum(count for _, count in histogram[:5]) / frames,
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
        return np.tile(np.arange(num_models), (len(trace), 1))

    return rank


def cdg_ranker(centroids: np.ndarray):
    """Batch ranker by nearest cluster mean in raw feature space; equidistant
    clusters rank by index."""

    def rank(trace):
        d = np.linalg.norm(centroids[None, :, :] - trace.features[:, None, :], axis=2)
        return np.argsort(d, axis=1, kind="stable")

    return rank


def dmm_ranker(families):
    """Batch ranker for one model per family (attribute dimension 0), with
    ``families`` the ascending family of each model: a frame's own family's
    model first, then the rest by index."""
    families = np.asarray(families)

    def rank(trace):
        family = trace.attrs[:, 0]
        if not np.isin(family, families).all():
            raise ConfigError("dmm has no model for a family in the trace")
        other = np.arange(len(families)) != np.searchsorted(families, family)[:, None]
        return np.argsort(other, axis=1, kind="stable")

    return rank


@dataclass
class BaselinePlan:
    """What a baseline trains, before any training: a batch ranker over its
    models and, per model, a row set of the training split and a seed that
    both initialises and trains it, all ``hidden`` wide."""

    ranker: object
    row_sets: list
    seeds: Sequence[int]
    hidden: int


def baseline_plan(name: str, ds: Dataset, compressed_hidden: int, deep_hidden: int,
                  num_models: int, seed: int) -> BaselinePlan:
    """The plan of one baseline, sdm, ssm, cdg or dmm; trains nothing.

    sdm (``deep_hidden`` wide) and ssm train the whole split with ``seed``.
    cdg clusters the raw training features by k-means seeded with ``seed``
    and trains one model per cluster with seeds ``seed + 1`` onward. dmm
    trains one model per family (attribute dimension 0), ascending, with
    seeds ``seed`` onward. Every model but sdm's is ``compressed_hidden``
    wide.
    """
    train = part_indices(ds, "train")
    if name in ("sdm", "ssm"):
        ranker, row_sets, seeds = constant_ranker(1), [train], [seed]
    elif name == "cdg":
        result = kmeans(ds.features[train], num_models, seed=seed)
        ranker = cdg_ranker(result.centroids)
        row_sets = [train[result.assignments == j] for j in range(num_models)]
        seeds = range(seed + 1, seed + num_models + 1)
    elif name == "dmm":
        family = ds.attrs[train, 0]
        families = np.unique(family)
        ranker = dmm_ranker(families)
        row_sets = [train[family == fam] for fam in families]
        seeds = range(seed, seed + len(families))
    else:
        raise ConfigError(f"unknown baseline {name!r}")
    return BaselinePlan(ranker, row_sets, seeds, deep_hidden if name == "sdm" else compressed_hidden)


def train_baselines(ds: Dataset, plans, cfg: TrainConfig) -> list:
    """Each plan's models, in plan order, trained with ``cfg`` but for the
    seeds, all in one `train_on_row_sets` call, each at its plan's width. A
    model's parameters do not depend on what it is trained with."""
    row_sets = [r for plan in plans for r in plan.row_sets]
    widths = [plan.hidden for plan in plans for _ in plan.row_sets]
    seeds = [s for plan in plans for s in plan.seeds]
    trained = iter(train_on_row_sets(ds, row_sets, widths, cfg, seeds, seeds))
    return [[next(trained) for _ in plan.seeds] for plan in plans]


def build_baseline(name: str, ds: Dataset, compressed_hidden: int, deep_hidden: int,
                   num_models: int, cfg: TrainConfig, seed: int):
    """(ranker, models) for one baseline: its `baseline_plan`, trained by
    `train_baselines` as a plan of its own."""
    plan = baseline_plan(name, ds, compressed_hidden, deep_hidden, num_models, seed)
    [models] = train_baselines(ds, [plan], cfg)
    return plan.ranker, models


def run_baselines(trace, ds: Dataset, names, compressed_hidden: int, deep_hidden: int,
                  num_models: int, cfg: TrainConfig, seeds: dict,
                  cache_capacity: int, window: int = 10) -> dict:
    """Train and run the requested baselines over one trace (same metrics
    shape). Their models are trained together in one `train_baselines`
    call, and each baseline then serves the trace alone."""
    plans = [baseline_plan(name, ds, compressed_hidden, deep_hidden, num_models, seeds[name])
             for name in names]
    return {
        name: run_trace(trace, plan.ranker, models, cache_capacity, window)
        for name, plan, models in zip(names, plans, train_baselines(ds, plans, cfg))
    }
