"""Offline scene profiling.

Turns a dataset into a repository of compressed models in four steps:
semantic scene segmentation (group by attribute tuple), scene-encoder
training (classify scene indices), scene embedding (penultimate activations,
aggregated to per-scene centroids), and multi-level clustering: k-means over
the scene centroids for k = k_start, k_start+1, ..., training one compressed
model per cluster and keeping those whose validation macro-F1 clears a
threshold, until the repository reaches its preset size. The clusters of
all the levels that could still be needed are trained together, one
`train_on_row_sets` call per round of levels, which trains its models in
one share per usable CPU, side by side.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import learners
from .artifacts import artifact_body, is_int, read_artifact, write_artifact
from .dataset import Dataset, part_indices
from .errors import ConfigError, InsufficientModelsError
from .learners import TrainConfig, VectorClassifier


@dataclass
class SemanticScene:
    """The training samples sharing one exact attribute tuple, and the validation samples with it."""

    scene_id: int
    attrs: tuple
    sample_indices: np.ndarray
    valid_indices: np.ndarray


@dataclass
class ClusterScene:
    """A model-friendly scene: semantic scenes merged in embedding space."""

    member_scene_ids: tuple
    train_indices: np.ndarray
    valid_indices: np.ndarray


@dataclass
class RepositoryEntry:
    model: VectorClassifier
    source: tuple  # (k, cluster_id)
    scene: ClusterScene
    validation_f1: float


@dataclass
class ModelRepository:
    entries: list

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def models(self) -> list:
        return [e.model for e in self.entries]


@dataclass
class ProfilingConfig:
    n: int
    delta: float
    k_start: int
    k_max: int
    encoder_hidden: int
    compressed_hidden: int
    encoder_train: TrainConfig
    model_train: TrainConfig
    seed: int

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError("repository size n must be >= 1")
        # delta = 1.0 is allowed so a run can demonstrate the
        # insufficient-models failure path (no F1 exceeds 1.0).
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError("delta must lie in [0, 1]")
        if self.k_start < 2:
            raise ConfigError("k_start must be >= 2")
        if self.k_max < self.k_start:
            raise ConfigError("k_max must be >= k_start")
        if self.encoder_hidden < 1 or self.compressed_hidden < 1:
            raise ConfigError("hidden widths must be positive")


def derive_seed(base: int, *parts) -> int:
    """Stable per-stage sub-seed (keeps every training independently seeded)."""
    material = [int(base)] + [int(p) for p in parts]
    return int(np.random.SeedSequence(material).generate_state(1)[0])


def segment_semantic_scenes(ds: Dataset) -> list:
    """One scene per attribute tuple present in the training split, lexicographic order."""
    train = part_indices(ds, "train")
    if len(train) == 0:
        raise ConfigError("training split is empty")
    keys, scene_of = np.unique(ds.attrs[train], axis=0, return_inverse=True)
    valid = part_indices(ds, "valid")
    in_scene = (ds.attrs[valid][:, None, :] == keys[None, :, :]).all(axis=2)  # (valid rows, scenes)
    return [
        SemanticScene(scene_id=i, attrs=tuple(attrs), sample_indices=train[scene_of.ravel() == i],
                      valid_indices=valid[in_scene[:, i]])
        for i, attrs in enumerate(keys.tolist())
    ]


def train_scene_encoder(ds: Dataset, scenes, hidden_dim: int, cfg: TrainConfig) -> VectorClassifier:
    """Classifier over scene indices; its hidden layer is the scene embedding."""
    if len(scenes) < 2:
        raise ConfigError("need at least 2 semantic scenes to train an encoder")
    idx = np.concatenate([s.sample_indices for s in scenes])
    y = np.concatenate([np.full(len(s.sample_indices), s.scene_id) for s in scenes])
    encoder = learners.new_classifier(ds.schema.feature_dim, hidden_dim, len(scenes), cfg.seed)
    learners.train(encoder, ds.features[idx], y, cfg)
    return encoder


def embed_scenes(encoder: VectorClassifier, scenes, ds: Dataset) -> np.ndarray:
    """Per-scene centroids (num_scenes, hidden): the mean embedding of each scene's training samples."""
    if encoder.input_dim != ds.schema.feature_dim:
        raise ConfigError("encoder input_dim does not match the dataset feature_dim")
    centroids = np.zeros((len(scenes), encoder.hidden_dim))
    for scene in scenes:
        H = learners.embed(encoder, ds.features[scene.sample_indices])
        centroids[scene.scene_id] = H.mean(axis=0)
    return centroids


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    inertia_history: list


KMEANS_MAX_ITERS = 100
KMEANS_TOL = 1e-9


def kmeans(points, k: int, seed: int) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Runs until the assignment reaches a fixpoint, the inertia improvement
    drops below ``KMEANS_TOL``, or ``KMEANS_MAX_ITERS``. Empty clusters are
    repaired by reseeding them on the point currently farthest from its
    centroid among those that share their cluster, which never increases
    inertia. The recorded per-iteration inertia sequence is non-increasing.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ConfigError("kmeans expects a non-empty 2-D point array")
    if k < 1:
        raise ConfigError("k must be positive")
    distinct = np.unique(pts, axis=0).shape[0]
    if k > distinct:
        raise ConfigError(f"k={k} exceeds the number of distinct points ({distinct})")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp(pts, k, rng)

    prev_assign = None
    history = []
    # squared distances of every point to every centroid, one centroid's
    # column at a time through an (n, d) buffer: no (n, k, d) temporary, and
    # each distance is summed over the same contiguous d values
    d2 = np.empty((len(pts), k))
    diff = np.empty(pts.shape)
    for _ in range(KMEANS_MAX_ITERS):
        for j in range(k):
            np.subtract(pts, centroids[j], out=diff)
            np.square(diff, out=diff)
            diff.sum(axis=1, out=d2[:, j])
        assign = d2.argmin(axis=1)
        for j in range(k):
            if not np.any(assign == j):
                own = d2[np.arange(len(pts)), assign]
                # a cluster's last point stays, or its cluster would be empty
                own[np.bincount(assign, minlength=k)[assign] < 2] = -1.0
                far = int(np.argmax(own))
                assign[far] = j
                d2[far, :] = np.inf
                d2[far, j] = 0.0
        for j in range(k):
            centroids[j] = pts[assign == j].mean(axis=0)
        inertia = float(((pts - centroids[assign]) ** 2).sum())
        history.append(inertia)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if len(history) >= 2 and history[-2] - history[-1] < KMEANS_TOL:
            break
        prev_assign = assign
    return KMeansResult(assignments=assign, centroids=centroids, inertia=history[-1], inertia_history=history)


def _kmeans_pp(pts, k, rng):
    n = len(pts)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[int(rng.integers(n))]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = int(np.argmin(d2))  # all remaining points coincide with a centroid
        centroids[j] = pts[idx]
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))
    return centroids


def binary_f1(tp: int, fp: int, fn: int) -> float:
    """F1 = 2pr/(p+r) from counts; 0 when precision and recall are both 0."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def macro_f1(predictions, labels, num_classes: int, window: int | None = None):
    """Unweighted mean of per-class F1 over the classes present in labels.

    Without ``window``, one float for the whole sequence. With it, a float64
    array holding one score per run of ``window`` frames (the last run may
    be short), each scored as its own sequence. Per-class F1 is `binary_f1`
    done elementwise on (class, window) count tables, so every score is
    bit-equal to scoring its slice alone.
    """
    preds = np.asarray(predictions, dtype=int)
    labs = np.asarray(labels, dtype=int)
    frames = len(labs)
    if frames == 0:
        raise ConfigError("macro_f1 needs a non-empty label set")
    if len(preds) != frames:
        raise ConfigError("predictions and labels disagree in length")
    if window is not None and window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    span = frames if window is None else window
    windows = -(-frames // span)
    # labels past num_classes still count as present classes; predicted classes
    # at or past `width` are never present, so they share one spare class row.
    # Cells are class-major, so a negative class gives a negative cell index.
    width = max(num_classes, int(labs.max()) + 1)
    cells = (width + 1) * windows
    window_of = np.arange(frames) // span
    true_cell = labs * windows + window_of
    try:
        actual = np.bincount(true_cell, minlength=cells)
        predicted = np.bincount(np.minimum(preds, width) * windows + window_of, minlength=cells)
    except ValueError as exc:
        raise ConfigError("class indices must be non-negative") from exc
    tp = np.bincount(true_cell[preds == labs], minlength=cells)
    actual, predicted, tp = (a.reshape(width + 1, windows) for a in (actual, predicted, tp))
    shape = actual.shape
    precision = np.divide(tp, predicted, out=np.zeros(shape), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros(shape), where=actual > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(shape), where=both > 0)
    present = actual > 0
    count = present.sum(axis=0)
    # accumulate adds strictly in class order and absent classes add 0.0, so
    # below 8 present classes this is the left-to-right sum np.mean makes;
    # from 8 on numpy's pairwise sum reorders, so those windows keep np.mean
    scores = np.add.accumulate(f1)[-1] / count
    for w in (count >= 8).nonzero()[0]:
        scores[w] = np.mean(f1[present[:, w], w])
    return float(scores[0]) if window is None else scores


def _usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform
    cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def split_shares(costs, shares: int) -> list:
    """Split models of the given costs into ``shares`` lists of model
    indices, each ascending: the models go largest cost first (ties by
    index), each to the share with the least cost so far (ties to the
    lower share)."""
    loads = [0] * shares
    members = [[] for _ in range(shares)]
    for j in sorted(range(len(costs)), key=lambda j: -costs[j]):
        s = loads.index(min(loads))
        loads[s] += costs[j]
        members[s].append(j)
    return [sorted(m) for m in members]


def train_on_row_sets(ds: Dataset, row_sets, hidden_dims, cfg: TrainConfig,
                      init_seeds, train_seeds) -> list:
    """One classifier per row set of ``ds``, ``hidden_dims[j]`` wide, gathering
    its rows from ``ds`` by index: model j is initialised with
    ``init_seeds[j]`` and trained with ``train_seeds[j]``.

    The models are split into one share per usable CPU, at most one per
    model, by `split_shares` on rows times width. The first share trains in
    this process and every other one at the same time in a forked child,
    which pickles its models into a pipe for this process to unpickle;
    within a share, the models of one width train as one
    `learners.train_stack` call. A model's parameters do not depend on what
    it is stacked with, so every split gives the same bits. If any share
    raises, a child exits non-zero or its pickle is cut short, the whole
    set is trained again in this process, so an error is the one a single
    process raises.
    """
    train = functools.partial(_train_models, ds, row_sets, hidden_dims, cfg, init_seeds, train_seeds)
    costs = [len(rows) * hidden for rows, hidden in zip(row_sets, hidden_dims)]
    shares = split_shares(costs, min(_usable_cpus(), len(costs)))
    trained = _train_shares(train, shares) if len(shares) > 1 else None
    return train(range(len(costs))) if trained is None else trained


def _train_models(ds: Dataset, row_sets, hidden_dims, cfg: TrainConfig, init_seeds, train_seeds,
                  members) -> list:
    """The models ``members`` of `train_on_row_sets`, in that order, trained in
    this process: one `learners.train_stack` call per hidden width, the
    widths in order of first appearance."""
    models = {
        j: learners.new_classifier(ds.schema.feature_dim, hidden_dims[j], ds.schema.num_classes,
                                   seed=init_seeds[j])
        for j in members
    }
    for hidden in dict.fromkeys(hidden_dims[j] for j in members):
        stack = [j for j in members if hidden_dims[j] == hidden]
        learners.train_stack(
            [models[j] for j in stack], ds.features, ds.labels, [row_sets[j] for j in stack],
            [dataclasses.replace(cfg, seed=train_seeds[j]) for j in stack],
        )
    return list(models.values())


def _train_shares(train, shares) -> list | None:
    """Every model of ``shares``, in model order: ``train(share)`` for the
    first share in this process and for each other share in a forked child,
    which pickles its models straight into a pipe and exits 0 only once that
    pipe has closed cleanly. None if any share raised, a child exited
    non-zero or its pickle was cut short. Every read end is closed, then
    every child reaped, before this returns: a child still training meets a
    closed pipe and exits non-zero by itself."""
    children = []  # (pid, read end of its pipe)
    try:
        try:
            for share in shares[1:]:
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:
                    status = 1
                    try:
                        os.close(read_end)
                        with open(write_end, "wb") as pipe:
                            pickle.dump(train(share), pipe, pickle.HIGHEST_PROTOCOL)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write_end)
                children.append((pid, open(read_end, "rb")))
            by_model = dict(zip(shares[0], train(shares[0])))
            for share, (_, pipe) in zip(shares[1:], children):
                by_model.update(zip(share, pickle.load(pipe)))
        except Exception:
            return None  # the caller trains the whole set again and raises what that raises
    finally:
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    return None if any(statuses) else [by_model[j] for j in sorted(by_model)]


def _cluster_scene(scenes, member_ids) -> ClusterScene:
    return ClusterScene(
        member_scene_ids=tuple(int(i) for i in member_ids),
        train_indices=np.sort(np.concatenate([scenes[i].sample_indices for i in member_ids])),
        valid_indices=np.sort(np.concatenate([scenes[i].valid_indices for i in member_ids])),
    )


def build_repository(ds: Dataset, scenes, encoder: VectorClassifier, cfg: ProfilingConfig) -> ModelRepository:
    """Multi-level clustering over scene centroids with accept-if-good filtering.

    For each k the scene centroids are clustered; each cluster yields one
    compressed model trained on the cluster's training samples and scored by
    macro-F1 on its validation samples. Models scoring strictly above
    ``delta`` join the repository in ascending (k, cluster_id) order, and
    scoring stops the moment the repository holds ``n`` models (mid-k
    allowed).

    The models are trained in rounds of whole levels, one
    `train_on_row_sets` call per round: from the current k up to the first
    level that could fill the repository if every model were accepted,
    capped at ``k_max`` and at the number of distinct centroids. Each model
    has its own seeds, so the repository equals level-by-level training;
    the last level of a round may train models that are never scored.
    """
    cfg.validate()
    centroids = embed_scenes(encoder, scenes, ds)
    distinct = np.unique(centroids, axis=0).shape[0]
    entries = []
    k = cfg.k_start
    while len(entries) < cfg.n:
        if k > cfg.k_max:
            raise InsufficientModelsError(len(entries), cfg.n, f"exhausted k up to {cfg.k_max}")
        if k > distinct:
            raise InsufficientModelsError(
                len(entries), cfg.n, f"k={k} exceeds the {distinct} distinct scene centroids"
            )
        last, room = k, k
        while room < cfg.n - len(entries) and last < min(cfg.k_max, distinct):
            last += 1
            room += last
        sources, clusters = [], []
        for level in range(k, last + 1):
            result = kmeans(centroids, level, seed=derive_seed(cfg.seed, 1, level))
            for j in range(level):
                members = np.flatnonzero(result.assignments == j).tolist()
                sources.append((level, j))
                clusters.append(_cluster_scene(scenes, members))
        models = train_on_row_sets(
            ds, [c.train_indices for c in clusters], [cfg.compressed_hidden] * len(clusters),
            cfg.model_train, [derive_seed(cfg.seed, 2, *s) for s in sources],
            [derive_seed(cfg.seed, 3, *s) for s in sources],
        )
        for source, cluster, model in zip(sources, clusters, models):
            if len(entries) >= cfg.n:
                break
            if len(cluster.valid_indices) > 0:
                preds = learners.predict(model, ds.features[cluster.valid_indices])
                f1 = macro_f1(preds, ds.labels[cluster.valid_indices], ds.schema.num_classes)
            else:
                f1 = 0.0
            if f1 > cfg.delta:
                entries.append(
                    RepositoryEntry(model=model, source=source, scene=cluster, validation_f1=f1)
                )
        k = last + 1
    return ModelRepository(entries=entries)


# ---------------------------------------------------------------------------
# Artifact I/O

def save_encoder(path, encoder: VectorClassifier, num_scenes: int, dataset_hash: str) -> str:
    return write_artifact(path, {
        "kind": "encoder",
        "dataset_hash": dataset_hash,
        "num_scenes": num_scenes,
        "model": learners.model_to_dict(encoder),
    })


def load_encoder(path, dataset_hash: str):
    body = read_artifact(path, "encoder", dataset=dataset_hash)
    with artifact_body(path):
        return learners.model_from_dict(body.get("model")), body


def save_repository(path, repo: ModelRepository, cfg: ProfilingConfig, dataset_hash: str, encoder_hash: str) -> str:
    return write_artifact(path, {
        "kind": "repository",
        "dataset_hash": dataset_hash,
        "encoder_hash": encoder_hash,
        "config": {
            "n": cfg.n,
            "delta": cfg.delta,
            "k_start": cfg.k_start,
            "k_max": cfg.k_max,
            "encoder_hidden": cfg.encoder_hidden,
            "compressed_hidden": cfg.compressed_hidden,
            "seed": cfg.seed,
        },
        "models": [
            {
                "model": learners.model_to_dict(e.model),
                "source": list(e.source),
                "member_scene_ids": list(e.scene.member_scene_ids),
                "validation_f1": float(e.validation_f1),
            }
            for e in repo.entries
        ],
    })


def load_repository(path, ds: Dataset, dataset_hash: str):
    """Rebuild a ModelRepository; cluster scenes are reconstructed from member ids."""
    body = read_artifact(path, "repository", dataset=dataset_hash)
    scenes = segment_semantic_scenes(ds)
    entries = []
    with artifact_body(path):
        records = body.get("models")
        if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
            raise ConfigError("models must be a list of records")
        for i, rec in enumerate(records):
            members, source, f1 = rec.get("member_scene_ids"), rec.get("source"), rec.get("validation_f1")
            if not (isinstance(members, list) and members
                    and all(is_int(m) and 0 <= m < len(scenes) for m in members)):
                raise ConfigError(f"models[{i}]: member_scene_ids must be a non-empty list of the dataset's scenes")
            if not (isinstance(source, list) and len(source) == 2 and all(is_int(v) for v in source)):
                raise ConfigError(f"models[{i}]: source must be a [k, cluster_id] pair")
            if not isinstance(f1, float):
                raise ConfigError(f"models[{i}]: validation_f1 must be a number")
            entries.append(RepositoryEntry(model=learners.model_from_dict(rec.get("model")), source=tuple(source),
                                           scene=_cluster_scene(scenes, members), validation_f1=f1))
    return ModelRepository(entries=entries), body
