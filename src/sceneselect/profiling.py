"""Offline scene profiling.

Turns a dataset into a repository of compressed models in four steps:
semantic scene segmentation (group by attribute tuple), scene-encoder
training (classify scene indices), scene embedding (penultimate activations,
aggregated to per-scene centroids), and multi-level clustering: k-means over
the scene centroids for k = k_start, k_start+1, ..., training one compressed
model per cluster and keeping those whose validation macro-F1 clears a
threshold, until the repository reaches its preset size. The clusters of
all the levels that could still be needed are trained together, one
`learners.train_stack` call per round of levels.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from . import learners
from .artifacts import read_artifact, require_match, write_artifact
from .dataset import Dataset, part_indices
from .errors import ConfigError, InsufficientModelsError
from .learners import TrainConfig, VectorClassifier

log = logging.getLogger(__name__)


@dataclass
class SemanticScene:
    """The training samples sharing one exact attribute tuple, and the validation samples with it."""

    scene_id: int
    attrs: tuple
    sample_indices: np.ndarray
    valid_indices: np.ndarray


@dataclass
class EmbeddingSet:
    per_scene: list  # scene_id -> (count, hidden_dim) array
    centroids: np.ndarray  # (num_scenes, hidden_dim)


@dataclass
class ClusterScene:
    """A model-friendly scene: semantic scenes merged in embedding space."""

    cluster_id: int
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


def scene_of_attrs(scenes) -> dict:
    return {scene.attrs: scene.scene_id for scene in scenes}


def train_scene_encoder(ds: Dataset, scenes, hidden_dim: int, cfg: TrainConfig) -> VectorClassifier:
    """Classifier over scene indices; its hidden layer is the scene embedding."""
    if len(scenes) < 2:
        raise ConfigError("need at least 2 semantic scenes to train an encoder")
    idx = np.concatenate([s.sample_indices for s in scenes])
    y = np.concatenate([np.full(len(s.sample_indices), s.scene_id) for s in scenes])
    encoder = learners.new_classifier(ds.schema.feature_dim, hidden_dim, len(scenes), cfg.seed)
    learners.train(encoder, ds.features[idx], y, cfg)
    return encoder


def embed_scenes(encoder: VectorClassifier, scenes, ds: Dataset) -> EmbeddingSet:
    if encoder.input_dim != ds.schema.feature_dim:
        raise ConfigError("encoder input_dim does not match the dataset feature_dim")
    per_scene = []
    centroids = np.zeros((len(scenes), encoder.hidden_dim))
    for scene in scenes:
        H = learners.embed(encoder, ds.features[scene.sample_indices])
        per_scene.append(H)
        centroids[scene.scene_id] = H.mean(axis=0)
    return EmbeddingSet(per_scene=per_scene, centroids=centroids)


def encoder_confusion(encoder: VectorClassifier, scenes, ds: Dataset) -> np.ndarray:
    """Scene confusion counts on the validation split (rows: true, cols: predicted)."""
    rows = np.concatenate([s.valid_indices for s in scenes])
    true = np.concatenate([np.full(len(s.valid_indices), s.scene_id) for s in scenes])
    counts = np.zeros((len(scenes), len(scenes)), dtype=int)
    np.add.at(counts, (true, learners.predict(encoder, ds.features[rows])), 1)
    return counts


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    inertia_history: list


def kmeans(points, k: int, seed: int, max_iters: int = 100, tol: float = 1e-9) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Runs until the assignment reaches a fixpoint, the inertia improvement
    drops below ``tol``, or ``max_iters``. Empty clusters are repaired by
    reseeding them on the point currently farthest from its centroid, which
    never increases inertia. The recorded per-iteration inertia sequence is
    non-increasing.
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
    for _ in range(max_iters):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(k):
            if not np.any(assign == j):
                own = d2[np.arange(len(pts)), assign]
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
        if len(history) >= 2 and history[-2] - history[-1] < tol:
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


def train_on_row_sets(ds: Dataset, row_sets, hidden_dim: int, cfg: TrainConfig,
                      init_seeds, train_seeds) -> list:
    """One classifier per row set of ``ds``, all trained in one `learners.train_stack`
    call: model j is initialised with ``init_seeds[j]`` and trained with ``train_seeds[j]``."""
    models = [
        learners.new_classifier(ds.schema.feature_dim, hidden_dim, ds.schema.num_classes, seed=s)
        for s in init_seeds
    ]
    learners.train_stack(
        models, [ds.features[r] for r in row_sets], [ds.labels[r] for r in row_sets],
        [dataclasses.replace(cfg, seed=s) for s in train_seeds],
    )
    return models


def _cluster_scene(scenes, cluster_id: int, member_ids) -> ClusterScene:
    return ClusterScene(
        cluster_id=cluster_id,
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

    The models are trained in rounds of whole levels, one `train_stack`
    call per round: from the current k up to the first level that could
    fill the repository if every model were accepted, capped at ``k_max``
    and at the number of distinct centroids. Each model has its own seeds,
    so the repository equals level-by-level training; the last level of a
    round may train models that are never scored.
    """
    cfg.validate()
    emb = embed_scenes(encoder, scenes, ds)
    centroids = emb.centroids
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
                clusters.append(_cluster_scene(scenes, j, members))
        models = train_on_row_sets(
            ds, [c.train_indices for c in clusters], cfg.compressed_hidden, cfg.model_train,
            [derive_seed(cfg.seed, 2, *s) for s in sources], [derive_seed(cfg.seed, 3, *s) for s in sources],
        )
        for source, cluster, model in zip(sources, clusters, models):
            if len(entries) >= cfg.n:
                break
            if len(cluster.valid_indices) > 0:
                preds = learners.predict(model, ds.features[cluster.valid_indices])
                f1 = macro_f1(preds, ds.labels[cluster.valid_indices], ds.schema.num_classes)
            else:
                f1 = 0.0
            accepted = f1 > cfg.delta
            log.debug("k=%d cluster=%d f1=%.4f accepted=%s", *source, f1, accepted)
            if accepted:
                entries.append(
                    RepositoryEntry(model=model, source=source, scene=cluster, validation_f1=f1)
                )
        k = last + 1
    return ModelRepository(entries=entries)


# ---------------------------------------------------------------------------
# Artifact I/O

def encoder_payload(encoder: VectorClassifier, num_scenes: int, dataset_hash: str) -> dict:
    return {
        "kind": "encoder",
        "dataset_hash": dataset_hash,
        "num_scenes": num_scenes,
        "model": learners.model_to_dict(encoder),
    }


def save_encoder(path, encoder: VectorClassifier, num_scenes: int, dataset_hash: str) -> str:
    return write_artifact(path, encoder_payload(encoder, num_scenes, dataset_hash))


def load_encoder(path, dataset_hash: str | None = None):
    body = read_artifact(path, "encoder")
    if dataset_hash is not None:
        require_match("dataset", body["dataset_hash"], dataset_hash)
    return learners.model_from_dict(body["model"]), body


def repository_payload(repo: ModelRepository, cfg: ProfilingConfig, dataset_hash: str, encoder_hash: str) -> dict:
    return {
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
    }


def save_repository(path, repo, cfg, dataset_hash, encoder_hash) -> str:
    return write_artifact(path, repository_payload(repo, cfg, dataset_hash, encoder_hash))


def load_repository(path, ds: Dataset, dataset_hash: str | None = None):
    """Rebuild a ModelRepository; cluster scenes are reconstructed from member ids."""
    body = read_artifact(path, "repository")
    if dataset_hash is not None:
        require_match("dataset", body["dataset_hash"], dataset_hash)
    scenes = segment_semantic_scenes(ds)
    entries = []
    for rec in body["models"]:
        members = rec["member_scene_ids"]
        if not all(0 <= m < len(scenes) for m in members):
            raise ConfigError("repository references scenes missing from the dataset")
        cluster = _cluster_scene(scenes, rec["source"][1], members)
        entries.append(
            RepositoryEntry(
                model=learners.model_from_dict(rec["model"]),
                source=tuple(rec["source"]),
                scene=cluster,
                validation_f1=rec["validation_f1"],
            )
        )
    return ModelRepository(entries=entries), body
