"""Synthetic scene-structured classification streams.

A dataset is a flat list of samples organized into clips (simulated video
segments). Every clip belongs to one semantic cell: a distinct tuple of
attribute values (weather/location/time analogs). Each cell owns a Gaussian
mixture in feature space (one component per class) and, crucially, its own
affine labeling rule: the label is the nearest of the cell's class anchors,
and anchor-to-class bindings are drawn independently per cell. Labeling
conflicts across cells therefore exist by construction: no single
low-capacity model fits every cell, while a per-cell model fits its own
cell easily.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, SchemaError

SEEN_UNSEEN_RATIO = (9, 1)
TRAIN_VALID_TEST_RATIO = (6, 2, 2)

PARTS = ("train", "valid", "test")

# Feature-space geometry of the synthetic benchmark: cell centers are drawn
# inside +/-CELL_RANGE per coordinate and class anchors sit ANCHOR_SEPARATION
# away from the center, so cluster_spread directly controls the label margin.
# CELL_RANGE is kept small relative to feature_dim so the inputs stay
# reasonably centered for gradient descent.
CELL_RANGE = 1.5
ANCHOR_SEPARATION = 1.0


@dataclass(frozen=True)
class DatasetSchema:
    feature_dim: int
    num_classes: int
    attr_cardinalities: tuple

    def validate(self) -> None:
        if self.feature_dim < 1 or self.num_classes < 1:
            raise ConfigError("feature_dim and num_classes must be positive")
        if not self.attr_cardinalities or any(c < 1 for c in self.attr_cardinalities):
            raise ConfigError("attr_cardinalities must be positive")

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.attr_cardinalities))


@dataclass
class Sample:
    features: np.ndarray
    label: int
    attrs: tuple
    clip_id: int
    frame_index: int


@dataclass
class SplitDataset:
    """Seen/unseen clip partition plus contiguous per-seen-clip frame ranges."""

    seen_clips: tuple
    unseen_clips: tuple
    ranges: dict  # clip_id -> {"train": (lo, hi), "valid": (lo, hi), "test": (lo, hi)}


@dataclass
class GeneratorConfig:
    schema: DatasetSchema
    num_semantic_cells: int
    clips_per_cell: int
    frames_per_clip: int
    cluster_spread: float
    label_rule_noise: float
    drift_strength: float
    seed: int
    # Optional per-cell clip multipliers used to build skewed benchmarks
    # (e.g. one scene family 10x larger). None means uniform.
    cell_weights: tuple | None = None

    def validate(self) -> None:
        self.schema.validate()
        if self.num_semantic_cells < 1:
            raise ConfigError("num_semantic_cells must be positive")
        if self.num_semantic_cells > self.schema.num_cells:
            raise ConfigError(
                "num_semantic_cells exceeds the number of attribute combinations"
            )
        if self.clips_per_cell < 1 or self.frames_per_clip < 1:
            raise ConfigError("clips_per_cell and frames_per_clip must be positive")
        if self.cluster_spread <= 0:
            raise ConfigError("cluster_spread must be positive")
        if not 0.0 <= self.label_rule_noise <= 1.0:
            raise ConfigError("label_rule_noise must be in [0, 1]")
        if self.drift_strength < 0:
            raise ConfigError("drift_strength must be non-negative")
        if self.cell_weights is not None:
            if len(self.cell_weights) != self.num_semantic_cells:
                raise ConfigError("cell_weights length must equal num_semantic_cells")
            if any(w < 1 for w in self.cell_weights):
                raise ConfigError("cell_weights must be positive integers")


@dataclass
class Dataset:
    schema: DatasetSchema
    samples: list
    split: SplitDataset
    _features: np.ndarray = field(default=None, repr=False, compare=False)
    _labels: np.ndarray = field(default=None, repr=False, compare=False)
    _clips: np.ndarray = field(default=None, repr=False, compare=False)
    _frames: np.ndarray = field(default=None, repr=False, compare=False)

    # Cached column views; the sample list itself is treated as immutable.
    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            self._features = np.stack([s.features for s in self.samples])
        return self._features

    @property
    def labels(self) -> np.ndarray:
        if self._labels is None:
            self._labels = np.array([s.label for s in self.samples], dtype=int)
        return self._labels

    @property
    def clip_ids(self) -> np.ndarray:
        if self._clips is None:
            self._clips = np.array([s.clip_id for s in self.samples], dtype=int)
        return self._clips

    @property
    def frame_indices(self) -> np.ndarray:
        if self._frames is None:
            self._frames = np.array([s.frame_index for s in self.samples], dtype=int)
        return self._frames

    def __len__(self) -> int:
        return len(self.samples)


def box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via the Box-Muller transform over uniform draws."""
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1], keeps log() finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:n]


def cell_attrs(cell: int, cardinalities) -> tuple:
    """Mixed-radix decode, most-significant dimension first (lexicographic in cell index)."""
    values = []
    for card in reversed(cardinalities):
        values.append(cell % card)
        cell //= card
    return tuple(reversed(values))


def generate_dataset(
    cfg: GeneratorConfig,
    seen_ratio=SEEN_UNSEEN_RATIO,
    part_ratio=TRAIN_VALID_TEST_RATIO,
) -> Dataset:
    """Deterministic synthetic dataset: cells -> clips -> frames.

    Cell c gets a center mu_c and one anchor per class at distance
    ANCHOR_SEPARATION from it. A frame picks a class component uniformly,
    draws x = anchor + clip drift + spread * z (z from Box-Muller), and is
    labeled by the cell's rule: nearest anchor, an affine map + argmax.
    The label is flipped to a random other class with probability
    ``label_rule_noise``. All randomness comes from one seeded PRNG.
    """
    cfg.validate()
    schema = cfg.schema
    rng = np.random.default_rng(cfg.seed)
    d = schema.feature_dim
    ncls = schema.num_classes

    anchors = []
    for _ in range(cfg.num_semantic_cells):
        mu = rng.uniform(-CELL_RANGE, CELL_RANGE, size=d)
        directions = box_muller(rng, ncls * d).reshape(ncls, d)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        anchors.append(mu + ANCHOR_SEPARATION * directions)

    weights = cfg.cell_weights or tuple([1] * cfg.num_semantic_cells)
    samples = []
    clip_id = 0
    frames = cfg.frames_per_clip
    for cell in range(cfg.num_semantic_cells):
        attrs = cell_attrs(cell, schema.attr_cardinalities)
        A = anchors[cell]
        for _ in range(cfg.clips_per_cell * weights[cell]):
            if cfg.drift_strength > 0:
                g = box_muller(rng, d)
                offset = cfg.drift_strength * g / np.linalg.norm(g)
            else:
                offset = np.zeros(d)
            comps = rng.integers(0, ncls, size=frames)
            Z = box_muller(rng, frames * d).reshape(frames, d)
            X = A[comps] + offset + cfg.cluster_spread * Z
            dist2 = ((X[:, None, :] - A[None, :, :]) ** 2).sum(axis=2)
            labels = dist2.argmin(axis=1)
            if ncls > 1 and cfg.label_rule_noise > 0:
                flip = rng.random(frames) < cfg.label_rule_noise
                alt = rng.integers(0, ncls - 1, size=frames)
                labels = np.where(flip, (labels + 1 + alt) % ncls, labels)
            for frame in range(frames):
                samples.append(Sample(X[frame], int(labels[frame]), attrs, clip_id, frame))
            clip_id += 1

    split = _make_split(rng, clip_id, frames, seen_ratio, part_ratio)
    return Dataset(schema=schema, samples=samples, split=split)


def _make_split(rng, num_clips, frames_per_clip, seen_ratio, part_ratio) -> SplitDataset:
    # Floor division for the smaller shares; the remainder goes to the larger
    # split (seen clips, training frames).
    total_ratio = sum(seen_ratio)
    unseen_count = num_clips * seen_ratio[1] // total_ratio
    order = rng.permutation(num_clips)
    unseen = tuple(sorted(int(c) for c in order[:unseen_count]))
    seen = tuple(sorted(int(c) for c in order[unseen_count:]))

    part_total = sum(part_ratio)
    valid_n = frames_per_clip * part_ratio[1] // part_total
    test_n = frames_per_clip * part_ratio[2] // part_total
    train_n = frames_per_clip - valid_n - test_n
    ranges = {
        clip: {
            "train": (0, train_n),
            "valid": (train_n, train_n + valid_n),
            "test": (train_n + valid_n, frames_per_clip),
        }
        for clip in seen
    }
    return SplitDataset(seen_clips=seen, unseen_clips=unseen, ranges=ranges)


def part_indices(ds: Dataset, part: str, clips=None) -> np.ndarray:
    """Indices of one split part ('train'|'valid'|'test') over seen clips."""
    if part not in PARTS:
        raise ConfigError(f"unknown split part {part!r}")
    wanted = set(ds.split.seen_clips if clips is None else clips)
    clip_arr = ds.clip_ids
    frame_arr = ds.frame_indices
    mask = np.zeros(len(ds.samples), dtype=bool)
    for clip in wanted:
        rng_ = ds.split.ranges.get(clip)
        if rng_ is None:
            continue
        lo, hi = rng_[part]
        mask |= (clip_arr == clip) & (frame_arr >= lo) & (frame_arr < hi)
    return np.nonzero(mask)[0]


def synthesize_trace(
    ds: Dataset,
    num_source_clips: int,
    segment_len: int,
    num_segments: int,
    seed: int,
) -> list:
    """Fast-changing trace: contiguous test-split segments spliced together.

    ``num_source_clips`` seen clips are chosen without replacement; segment s
    is cut from chosen clip s mod num_source_clips at a random offset inside
    that clip's test range. Output length is num_segments * segment_len.
    """
    if num_source_clips < 1 or segment_len < 1 or num_segments < 1:
        raise ConfigError("trace parameters must be positive")
    seen = sorted(ds.split.seen_clips)
    if num_source_clips > len(seen):
        raise ConfigError(
            f"requested {num_source_clips} source clips, dataset has {len(seen)} seen clips"
        )
    rng = np.random.default_rng(seed)
    chosen = [seen[i] for i in rng.choice(len(seen), size=num_source_clips, replace=False)]

    by_clip = {}
    for idx, s in enumerate(ds.samples):
        by_clip.setdefault(s.clip_id, {})[s.frame_index] = idx

    trace = []
    for seg in range(num_segments):
        clip = chosen[seg % num_source_clips]
        lo, hi = ds.split.ranges[clip]["test"]
        if hi - lo < segment_len:
            raise ConfigError(
                f"clip {clip} has only {hi - lo} test frames, need {segment_len}"
            )
        start = lo + int(rng.integers(hi - lo - segment_len + 1))
        frames = by_clip[clip]
        for f in range(start, start + segment_len):
            trace.append(ds.samples[frames[f]])
    return trace


def save_dataset(ds: Dataset, path) -> None:
    """JSON-lines: header object on line 1, one sample per following line."""
    header = {
        "schema": {
            "feature_dim": ds.schema.feature_dim,
            "num_classes": ds.schema.num_classes,
            "attr_cardinalities": list(ds.schema.attr_cardinalities),
        },
        "splits": {
            "seen_clips": list(ds.split.seen_clips),
            "unseen_clips": list(ds.split.unseen_clips),
            "ranges": {
                str(clip): {p: list(r[p]) for p in PARTS}
                for clip, r in sorted(ds.split.ranges.items())
            },
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in ds.samples:
            row = {
                "f": [float(v) for v in s.features],
                "y": int(s.label),
                "a": list(s.attrs),
                "clip": int(s.clip_id),
                "frame": int(s.frame_index),
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_dataset(path) -> Dataset:
    path = Path(path)
    samples = []
    schema = None
    split = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ParseError(lineno, f"invalid JSON: {exc.msg}") from exc
            if lineno == 1:
                schema, split = _parse_header(obj, lineno)
                continue
            samples.append(_parse_sample(obj, schema, lineno))
    if schema is None:
        raise ParseError(1, "missing header line")
    ds = Dataset(schema=schema, samples=samples, split=split)
    if samples:
        # one check over the cached feature matrix, not one per sample
        bad = np.flatnonzero(~np.isfinite(ds.features).all(axis=1))
        if len(bad):
            s = samples[bad[0]]
            raise SchemaError(f"sample in clip {s.clip_id} frame {s.frame_index}: non-finite feature")
    _check_index(ds)
    return ds


def _check_index(ds: Dataset) -> None:
    """Reject a repeated (clip, frame) pair, a split range outside its clip's
    frames, and a clip listed as both seen and unseen."""
    clips, frames = ds.clip_ids, ds.frame_indices
    order = np.lexsort((frames, clips))
    clips_sorted, frames_sorted = clips[order], frames[order]
    repeated = np.flatnonzero(
        (clips_sorted[1:] == clips_sorted[:-1]) & (frames_sorted[1:] == frames_sorted[:-1])
    )
    if len(repeated):
        i = repeated[0]
        raise SchemaError(f"clip {clips_sorted[i]} frame {frames_sorted[i]} appears more than once")
    frame_counts = Counter(clips.tolist())
    for clip, parts in ds.split.ranges.items():
        count = frame_counts[clip]
        for part, bounds in parts.items():
            if len(bounds) != 2 or not 0 <= bounds[0] <= bounds[1] <= count:
                raise SchemaError(f"clip {clip} {part} range {list(bounds)} does not fit its {count} frames")
    both = set(ds.split.seen_clips) & set(ds.split.unseen_clips)
    if both:
        raise SchemaError(f"clip {min(both)} is listed as both seen and unseen")


def _parse_header(obj, lineno):
    try:
        sc = obj["schema"]
        schema = DatasetSchema(
            feature_dim=int(sc["feature_dim"]),
            num_classes=int(sc["num_classes"]),
            attr_cardinalities=tuple(int(c) for c in sc["attr_cardinalities"]),
        )
        sp = obj["splits"]
        ranges = {
            int(clip): {p: tuple(int(v) for v in r[p]) for p in PARTS}
            for clip, r in sp["ranges"].items()
        }
        split = SplitDataset(
            seen_clips=tuple(int(c) for c in sp["seen_clips"]),
            unseen_clips=tuple(int(c) for c in sp["unseen_clips"]),
            ranges=ranges,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(lineno, f"malformed header: {exc}") from exc
    schema.validate()
    return schema, split


def _parse_sample(obj, schema, lineno):
    try:
        features = np.asarray(obj["f"], dtype=float)
        label = int(obj["y"])
        attrs = tuple(int(a) for a in obj["a"])
        clip = int(obj["clip"])
        frame = int(obj["frame"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(lineno, f"malformed sample: {exc}") from exc
    if features.shape != (schema.feature_dim,):
        raise SchemaError(
            f"sample at line {lineno}: feature length {features.shape[0] if features.ndim == 1 else features.shape}"
            f" != schema feature_dim {schema.feature_dim}"
        )
    if not 0 <= label < schema.num_classes:
        raise SchemaError(f"sample at line {lineno}: label {label} out of range")
    if len(attrs) != len(schema.attr_cardinalities):
        raise SchemaError(f"sample at line {lineno}: attribute tuple has wrong length")
    for dim, (a, card) in enumerate(zip(attrs, schema.attr_cardinalities)):
        if not 0 <= a < card:
            raise SchemaError(
                f"sample at line {lineno}: attribute {a} exceeds cardinality {card} in dimension {dim}"
            )
    return Sample(features, label, attrs, clip, frame)
