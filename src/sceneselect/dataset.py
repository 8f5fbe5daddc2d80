"""Synthetic scene-structured classification streams.

A dataset is a table of frames held as columns: features, labels, attribute
tuples, clip ids and frame indices, one row per frame. Frames are grouped
into clips (simulated video segments). Every clip belongs to one semantic
cell: a distinct tuple of attribute values (weather/location/time analogs).
Each cell owns a Gaussian mixture in feature space (one component per class)
and, crucially, its own affine labeling rule: the label is the nearest of the
cell's class anchors, and anchor-to-class bindings are drawn independently
per cell. Labeling conflicts across cells therefore exist by construction: no
single low-capacity model fits every cell, while a per-cell model fits its
own cell easily. A trace is a row subset of a dataset, in replay order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import islice
from typing import NamedTuple

import numpy as np

from .artifacts import atomic_path
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

# Sample lines per json.loads call when loading, and per write when saving.
# Parsing the whole file in one call costs more peak memory than it saves.
_CHUNK_LINES = 256

# One sample line exactly as json.dumps(row, sort_keys=True) writes it.
_ROW = '{"a": [%s], "clip": %d, "f": [%s], "frame": %d, "y": %d}\n'


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


@dataclass(eq=False)
class Rows:
    """Frames as columns: row i is frame ``frame_indices[i]`` of clip ``clip_ids[i]``."""

    features: np.ndarray  # (n, feature_dim) float
    labels: np.ndarray  # (n,) int
    attrs: np.ndarray  # (n, len(attr_cardinalities)) int
    clip_ids: np.ndarray  # (n,) int
    frame_indices: np.ndarray  # (n,) int

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(eq=False)
class Dataset(Rows):
    schema: DatasetSchema
    split: SplitDataset


class Frame(NamedTuple):
    features: np.ndarray
    label: int


@dataclass(eq=False)
class Trace(Rows):
    """Dataset rows in replay order; ``rows`` holds their dataset indices."""

    rows: np.ndarray

    def __iter__(self):
        """(features, label) per frame, for code that walks a trace frame by frame."""
        return map(Frame, self.features, self.labels.tolist())


def box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via the Box-Muller transform over uniform draws."""
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1], keeps log() finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:n]


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
    features, labels, clip_cells = [], [], []
    frames = cfg.frames_per_clip
    for cell in range(cfg.num_semantic_cells):
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
            y = dist2.argmin(axis=1)
            if ncls > 1 and cfg.label_rule_noise > 0:
                flip = rng.random(frames) < cfg.label_rule_noise
                alt = rng.integers(0, ncls - 1, size=frames)
                y = np.where(flip, (y + 1 + alt) % ncls, y)
            features.append(X)
            labels.append(y)
            clip_cells.append(cell)

    num_clips = len(clip_cells)
    # cell c's attribute tuple: c in mixed radix, most significant dimension first
    cell_attrs = np.stack(np.unravel_index(clip_cells, schema.attr_cardinalities), axis=1)
    split = _make_split(rng, num_clips, frames, seen_ratio, part_ratio)
    return Dataset(
        schema=schema,
        split=split,
        features=np.concatenate(features),
        labels=np.concatenate(labels).astype(np.int64),
        attrs=np.repeat(cell_attrs, frames, axis=0),
        clip_ids=np.repeat(np.arange(num_clips, dtype=np.int64), frames),
        frame_indices=np.tile(np.arange(frames, dtype=np.int64), num_clips),
    )


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
    wanted = sorted(set(ds.split.seen_clips if clips is None else clips) & ds.split.ranges.keys())
    if not wanted:
        return np.zeros(0, dtype=np.intp)
    bounds = np.array([ds.split.ranges[clip][part] for clip in wanted], dtype=np.int64)
    wanted = np.array(wanted, dtype=np.int64)
    slot = np.minimum(np.searchsorted(wanted, ds.clip_ids), len(wanted) - 1)
    frames = ds.frame_indices
    mask = (wanted[slot] == ds.clip_ids) & (frames >= bounds[slot, 0]) & (frames < bounds[slot, 1])
    return np.flatnonzero(mask)


def synthesize_trace(
    ds: Dataset,
    num_source_clips: int,
    segment_len: int,
    num_segments: int,
    seed: int,
) -> Trace:
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

    clips, starts = [], []
    for seg in range(num_segments):
        clip = chosen[seg % num_source_clips]
        lo, hi = ds.split.ranges[clip]["test"]
        if hi - lo < segment_len:
            raise ConfigError(
                f"clip {clip} has only {hi - lo} test frames, need {segment_len}"
            )
        clips.append(clip)
        starts.append(lo + int(rng.integers(hi - lo - segment_len + 1)))
    rows = _rows_of(
        ds, np.repeat(clips, segment_len), (np.array(starts)[:, None] + np.arange(segment_len)).ravel()
    )
    return Trace(rows=rows, **{f.name: getattr(ds, f.name)[rows] for f in fields(Rows)})


def _rows_of(ds: Dataset, clips: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Dataset row of each (clip, frame) pair, by one sort of the (clip, frame) keys."""
    low, stride = ds.frame_indices.min(), np.ptp(ds.frame_indices) + 1
    keys = ds.clip_ids * stride + (ds.frame_indices - low)
    order = np.argsort(keys)
    slot = np.minimum(np.searchsorted(keys[order], clips * stride + (frames - low)), len(order) - 1)
    rows = order[slot]
    missing = np.flatnonzero((ds.clip_ids[rows] != clips) | (ds.frame_indices[rows] != frames))
    if len(missing):
        raise SchemaError(f"clip {clips[missing[0]]} has no frame {frames[missing[0]]}")
    return rows


def _check_finite(ds: Dataset) -> None:
    bad = np.flatnonzero(~np.isfinite(ds.features).all(axis=1))
    if len(bad):
        clip, frame = ds.clip_ids[bad[0]], ds.frame_indices[bad[0]]
        raise SchemaError(f"sample in clip {clip} frame {frame}: non-finite feature")


def save_dataset(ds: Dataset, path) -> None:
    """JSON-lines: header object on line 1, one sample per following line.

    Each sample line is what ``json.dumps(row, sort_keys=True)`` writes. The
    file is written beside ``path`` and renamed over it, so a failed save
    leaves any earlier file in place. Non-finite features are refused before
    any byte is written: the loader would refuse them.
    """
    _check_finite(ds)
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
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for lo in range(0, len(ds), _CHUNK_LINES):
            columns = [getattr(ds, f.name)[lo : lo + _CHUNK_LINES].tolist() for f in fields(Rows)]
            fh.write("".join(
                _ROW % (", ".join(map(str, a)), clip, ", ".join(map(repr, x)), frame, y)
                for x, y, a, clip, frame in zip(*columns)
            ))


def load_dataset(path) -> Dataset:
    """Parse a dataset file into columns.

    Sample lines are parsed a chunk at a time: one ``json.loads`` over the
    chunk as a JSON array, then array checks. A chunk that fails any of them
    is parsed again line by line, which raises the first bad line's error.
    Blank lines are skipped but counted.
    """
    with open(path, "r", encoding="utf-8") as fh:
        numbered = ((n, text) for n, text in enumerate(map(str.strip, fh), start=1) if text)
        first = next(numbered, None)
        if first is None or first[0] != 1:
            raise ParseError(1, "missing header line")
        schema, split = _parse_header(_loads(first[1], 1), 1)
        chunks = [_parse_chunk(c, schema) for c in iter(lambda: list(islice(numbered, _CHUNK_LINES)), [])]
    features, labels, attrs, clips, frames = (np.concatenate(c) for c in zip(*chunks or [_columns([], schema)]))
    ds = Dataset(schema=schema, split=split, features=features, labels=labels, attrs=attrs,
                 clip_ids=clips, frame_indices=frames)
    _check_finite(ds)
    _check_index(ds)
    return ds


def _loads(text, lineno):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"invalid JSON: {exc.msg}") from exc


def _parse_chunk(numbered, schema):
    """Columns of consecutive (line number, text) sample lines."""
    try:
        rows = json.loads("[" + ",".join(text for _, text in numbered) + "]")
        if len(rows) == len(numbered):
            return _columns(rows, schema)
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    return _columns([_parse_sample(_loads(text, n), schema, n) for n, text in numbered], schema)


def _columns(rows, schema):
    """(features, labels, attrs, clips, frames) of parsed sample rows. Integer
    fields convert as int() does; ValueError if a row fails a per-sample check."""
    m, d, cards = len(rows), schema.feature_dim, np.array(schema.attr_cardinalities)
    features = np.array([r["f"] for r in rows], dtype=float)
    labels, attrs, clips, frames = (
        np.array([r[k] for r in rows], dtype=np.int64) for k in ("y", "a", "clip", "frame")
    )
    if m and (
        features.shape != (m, d) or attrs.shape != (m, len(cards))
        or not labels.shape == clips.shape == frames.shape == (m,)
        or ((labels < 0) | (labels >= schema.num_classes)).any() or ((attrs < 0) | (attrs >= cards)).any()
    ):
        raise ValueError("a sample fails a per-sample check")
    return features.reshape(m, d), labels, attrs.reshape(m, len(cards)), clips, frames


def _check_index(ds: Dataset) -> None:
    """Reject a repeated (clip, frame) pair, a split range outside its clip's
    frames, and a clip listed as both seen and unseen."""
    pairs, repeats = np.unique(np.stack([ds.clip_ids, ds.frame_indices], axis=1), axis=0, return_counts=True)
    if (repeats > 1).any():
        clip, frame = pairs[repeats > 1][0]
        raise SchemaError(f"clip {clip} frame {frame} appears more than once")
    frame_counts = dict(zip(*(c.tolist() for c in np.unique(ds.clip_ids, return_counts=True))))
    for clip, parts in ds.split.ranges.items():
        count = frame_counts.get(clip, 0)
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
    """One sample row with its fields converted and checked against the schema."""
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
    return {"f": features, "y": label, "a": attrs, "clip": clip, "frame": frame}
