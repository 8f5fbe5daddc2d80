import contextlib
import dataclasses
import json
import os
import pickle
import re
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneselect import dataset
from sceneselect.dataset import (
    PARTS,
    _parse_header,
    generate_dataset,
    load_dataset,
    part_indices,
    save_dataset,
    synthesize_trace,
)
from sceneselect.artifacts import sha256_file
from sceneselect.errors import ConfigError, Error, ParseError, SchemaError

from conftest import small_generator_config
from test_profiling import cpus_usable, no_child_left


def assert_same_rows(a, b):
    assert len(a) == len(b)
    for column in ("features", "labels", "attrs", "clip_ids", "frame_indices"):
        assert getattr(a, column).tobytes() == getattr(b, column).tobytes(), column


class TestGenerate:
    def test_counts_and_attr_tuples(self):
        ds = generate_dataset(small_generator_config(num_cells=4, clips_per_cell=2, frames_per_clip=50))
        assert len(ds) == 4 * 2 * 50
        assert len(np.unique(ds.attrs, axis=0)) == 4

    def test_degenerate_limit_single_class(self):
        cfg = small_generator_config(num_classes=1, spread=1e-12, noise=0.0, drift=0.0)
        ds = generate_dataset(cfg)
        for cell_attrs in np.unique(ds.attrs, axis=0):
            rows = (ds.attrs == cell_attrs).all(axis=1)
            assert np.ptp(ds.features[rows], axis=0).max() < 1e-9  # one feature point per cell
            assert set(ds.labels[rows].tolist()) == {0}

    def test_degenerate_limit_one_label_per_point(self):
        # with several classes the cell collapses onto one point per class,
        # each point carrying a single deterministic label
        cfg = small_generator_config(num_classes=3, spread=1e-12, noise=0.0, drift=0.0)
        ds = generate_dataset(cfg)
        by_point = {}
        for a, x, y in zip(ds.attrs.tolist(), ds.features, ds.labels.tolist()):
            by_point.setdefault((tuple(a), tuple(np.round(x, 6))), set()).add(y)
        for (attrs, _), labels in by_point.items():
            assert len(labels) == 1
        points_per_cell = {}
        for attrs, point in by_point:
            points_per_cell.setdefault(attrs, set()).add(point)
        assert all(len(p) <= 3 for p in points_per_cell.values())

    def test_deterministic_per_seed(self):
        cfg = small_generator_config(seed=42)
        a = generate_dataset(cfg)
        b = generate_dataset(small_generator_config(seed=42))
        assert_same_rows(a, b)
        assert a.split == b.split

    def test_different_seeds_differ(self):
        a = generate_dataset(small_generator_config(seed=1))
        b = generate_dataset(small_generator_config(seed=2))
        assert a.features.tobytes() != b.features.tobytes()

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            generate_dataset(small_generator_config(num_cells=0))
        with pytest.raises(ConfigError):
            generate_dataset(small_generator_config(clips_per_cell=0))
        with pytest.raises(ConfigError):
            generate_dataset(small_generator_config(frames_per_clip=0))
        with pytest.raises(ConfigError):
            # more cells than attribute combinations
            generate_dataset(small_generator_config(num_cells=5, cards=(2, 2)))

        for change, message in [
            (dict(feature_dim=0), "feature_dim and num_classes must be positive"),
            (dict(cards=(2, 0)), "attr_cardinalities must be positive"),
            (dict(noise=1.5), "label_rule_noise must be in [0, 1]"),
            (dict(cell_weights=(1, 1)), "cell_weights length must equal num_semantic_cells"),
            (dict(cell_weights=(1, 0, 1, 1)), "cell_weights must be positive integers"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                generate_dataset(small_generator_config(**change))

    def test_drift_is_constant_offset_per_clip(self):
        # with spread ~ 0 the two clips of a cell differ by one constant
        # offset vector (difference of their drift draws), same for every class
        cfg = small_generator_config(spread=1e-10, drift=0.7, noise=0.0)
        ds = generate_dataset(cfg)
        point = {}
        for clip, y, x in zip(ds.clip_ids.tolist(), ds.labels.tolist(), ds.features):
            if clip in (0, 1):
                point[(clip, y)] = x
        shifts = [
            point[(0, lab)] - point[(1, lab)]
            for lab in range(cfg.schema.num_classes)
            if (0, lab) in point and (1, lab) in point
        ]
        assert len(shifts) >= 2
        for other in shifts[1:]:
            assert np.allclose(shifts[0], other, atol=1e-8)
        assert 0.0 < np.linalg.norm(shifts[0]) <= 2 * 0.7 + 1e-9


class TestSplits:
    def test_ratios_with_flooring(self):
        ds = generate_dataset(small_generator_config(num_cells=4, clips_per_cell=4, frames_per_clip=50))
        # 16 clips -> floor(16/10) = 1 unseen, remainder to seen
        assert len(ds.split.unseen_clips) == 1
        assert len(ds.split.seen_clips) == 15
        for r in ds.split.ranges.values():
            assert r["train"] == (0, 30) and r["valid"] == (30, 40) and r["test"] == (40, 50)

    def test_remainder_goes_to_train(self):
        ds = generate_dataset(small_generator_config(frames_per_clip=9))
        r = next(iter(ds.split.ranges.values()))
        # 9 frames at 6:2:2 -> valid=1, test=1, train=7
        assert r["train"] == (0, 7) and r["valid"] == (7, 8) and r["test"] == (8, 9)

    def test_parts_disjoint_and_cover(self):
        ds = generate_dataset(small_generator_config())
        train = set(part_indices(ds, "train"))
        valid = set(part_indices(ds, "valid"))
        test = set(part_indices(ds, "test"))
        assert not (train & valid) and not (train & test) and not (valid & test)
        seen = set(ds.split.seen_clips)
        all_seen = set(np.flatnonzero(np.isin(ds.clip_ids, list(seen))))
        assert train | valid | test == all_seen


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, small_ds):
        path = tmp_path / "data.jsonl"
        save_dataset(small_ds, path)
        again = load_dataset(path)
        assert again.schema == small_ds.schema
        assert again.split == small_ds.split
        assert_same_rows(small_ds, again)

    def test_truncated_file_reports_last_line(self, tmp_path, small_ds):
        path = tmp_path / "data.jsonl"
        save_dataset(small_ds, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2].rstrip("\n")[:-5])
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line_number > 1

    def test_malformed_line_number(self, tmp_path, small_ds):
        path = tmp_path / "data.jsonl"
        save_dataset(small_ds, path)
        lines = path.read_text().splitlines()
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line_number == 4
        assert str(err.value).startswith(f"line 4: {path}: invalid JSON")

    def test_wrong_feature_length_names_sample(self, tmp_path, small_ds):
        path = tmp_path / "data.jsonl"
        save_dataset(small_ds, path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])
        row["f"] = row["f"][:-1]
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("value", ["NaN", "1e999"])
    def test_non_finite_feature_names_sample(self, tmp_path, value):
        header = {
            "schema": {"feature_dim": 2, "num_classes": 2, "attr_cardinalities": [1]},
            "splits": {
                "seen_clips": [3],
                "unseen_clips": [],
                "ranges": {"3": {"train": [0, 1], "valid": [1, 1], "test": [1, 1]}},
            },
        }
        sample = '{"f": [0.5, %s], "y": 0, "a": [0], "clip": 3, "frame": 0}' % value
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(header) + "\n" + sample + "\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: sample in clip 3 frame 0: non-finite feature"

    def test_label_out_of_range(self, tmp_path, small_ds):
        path = tmp_path / "data.jsonl"
        save_dataset(small_ds, path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["y"] = 99
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            load_dataset(path)



def edit_saved(small_ds, tmp_path, edit):
    """Save small_ds, let ``edit`` change the header and the sample rows, write it back."""
    path = tmp_path / "data.jsonl"
    save_dataset(small_ds, path)
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(header, rows)
    path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *rows]))
    return path


class TestIndexChecks:
    def test_repeated_clip_frame_rejected(self, tmp_path, small_ds):
        def repeat(header, rows):
            rows[5]["clip"], rows[5]["frame"] = rows[2]["clip"], rows[2]["frame"]

        with pytest.raises(SchemaError, match="appears more than once"):
            load_dataset(edit_saved(small_ds, tmp_path, repeat))

    @pytest.mark.parametrize("bounds", [[-1, 3], [5, 4], [0, 10**6]])
    def test_split_range_outside_clip_rejected(self, tmp_path, small_ds, bounds):
        clip = small_ds.split.seen_clips[0]

        def stretch(header, rows):
            header["splits"]["ranges"][str(clip)]["valid"] = bounds

        with pytest.raises(SchemaError, match=f"clip {clip} valid range"):
            load_dataset(edit_saved(small_ds, tmp_path, stretch))

    @pytest.mark.parametrize(
        "part, bounds, message",
        [
            ("valid", [0, 40], "train range [0, 30] overlaps its valid range [0, 40]"),
            ("test", [29, 50], "train range [0, 30] overlaps its test range [29, 50]"),
            ("train", [0, 45], "train range [0, 45] overlaps its valid range [30, 40]"),
        ],
    )
    def test_overlapping_split_parts_rejected(self, tmp_path, small_ds, part, bounds, message):
        clip = small_ds.split.seen_clips[0]
        assert small_ds.split.ranges[clip] == {"train": (0, 30), "valid": (30, 40), "test": (40, 50)}

        def overlap(header, rows):
            header["splits"]["ranges"][str(clip)][part] = bounds

        with pytest.raises(SchemaError, match=re.escape(f"clip {clip} {message}")):
            load_dataset(edit_saved(small_ds, tmp_path, overlap))

    def test_empty_part_inside_another_allowed(self, tmp_path, small_ds):
        clip = small_ds.split.seen_clips[0]

        def empty_valid(header, rows):
            header["splits"]["ranges"][str(clip)]["valid"] = [10, 10]

        assert load_dataset(edit_saved(small_ds, tmp_path, empty_valid)).split.ranges[clip]["valid"] == (10, 10)

    def test_seen_clip_without_ranges_rejected(self, tmp_path, small_ds):
        clip = small_ds.split.seen_clips[1]

        def drop(header, rows):
            del header["splits"]["ranges"][str(clip)]

        with pytest.raises(SchemaError, match=f"seen clip {clip} has no split ranges"):
            load_dataset(edit_saved(small_ds, tmp_path, drop))

    def test_clip_both_seen_and_unseen_rejected(self, tmp_path, small_ds):
        clip = small_ds.split.seen_clips[0]

        def overlap(header, rows):
            header["splits"]["unseen_clips"].append(clip)

        with pytest.raises(SchemaError, match=f"clip {clip} is listed as both seen and unseen"):
            load_dataset(edit_saved(small_ds, tmp_path, overlap))


@pytest.fixture(scope="module")
def traceable():
    return generate_dataset(
        small_generator_config(num_cells=4, clips_per_cell=3, frames_per_clip=50)
    )


class TestTrace:
    def test_default_trace_is_500_frames(self, bench42):
        trace = synthesize_trace(bench42.ds, 5, 100, 5, seed=99)
        assert len(trace) == 500

    def test_single_segment_is_contiguous_run(self, traceable):
        trace = synthesize_trace(traceable, 3, 10, 1, seed=1)
        assert len(trace) == 10
        assert len(set(trace.clip_ids.tolist())) == 1
        frames = trace.frame_indices.tolist()
        assert frames == list(range(frames[0], frames[0] + 10))

    def test_attrs_change_only_at_segment_boundaries(self, traceable):
        seg = 10
        trace = synthesize_trace(traceable, 4, seg, 6, seed=3)
        changes = np.flatnonzero((trace.attrs[1:] != trace.attrs[:-1]).any(axis=1)) + 1
        assert (changes % seg == 0).all()

    def test_segments_come_from_test_split(self, traceable):
        trace = synthesize_trace(traceable, 3, 10, 4, seed=5)
        for clip, frame in zip(trace.clip_ids.tolist(), trace.frame_indices.tolist()):
            lo, hi = traceable.split.ranges[clip]["test"]
            assert lo <= frame < hi

    def test_clip_too_short_names_clip(self, traceable):
        with pytest.raises(ConfigError) as err:
            synthesize_trace(traceable, 3, 1000, 1, seed=1)
        assert "clip" in str(err.value)

    @pytest.mark.parametrize("call, message", [
        (lambda ds: part_indices(ds, "bogus"), "unknown split part 'bogus'"),
        (lambda ds: synthesize_trace(ds, 0, 10, 3, seed=7), "trace parameters must be positive"),
        (lambda ds: synthesize_trace(ds, 99, 10, 3, seed=7), "requested 99 source clips, dataset has 11 seen clips"),
    ], ids=["split part", "non-positive", "too many clips"])
    def test_bad_argument_named(self, traceable, call, message):
        assert len(traceable.split.seen_clips) == 11
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call(traceable)

    def test_deterministic(self, traceable):
        t1 = synthesize_trace(traceable, 3, 10, 4, seed=7)
        t2 = synthesize_trace(traceable, 3, 10, 4, seed=7)
        assert np.array_equal(t1.rows, t2.rows)

    def test_columns_are_the_dataset_rows(self, traceable):
        trace = synthesize_trace(traceable, 3, 10, 4, seed=7)
        for column in ("features", "labels", "attrs", "clip_ids", "frame_indices"):
            assert np.array_equal(getattr(trace, column), getattr(traceable, column)[trace.rows])

    def test_rows_found_in_a_shuffled_dataset(self, traceable):
        order = np.random.default_rng(0).permutation(len(traceable))
        shuffled = dataclasses.replace(
            traceable,
            **{c: getattr(traceable, c)[order] for c in ("features", "labels", "attrs", "clip_ids", "frame_indices")},
        )
        a = synthesize_trace(traceable, 3, 10, 4, seed=7)
        b = synthesize_trace(shuffled, 3, 10, 4, seed=7)
        assert np.array_equal(order[b.rows], a.rows)
        assert np.array_equal(a.features, b.features)

    def test_missing_frame_named(self, traceable):
        clip = traceable.split.seen_clips[0]
        keep = ~((traceable.clip_ids == clip) & (traceable.frame_indices >= 40))
        holed = dataclasses.replace(
            traceable,
            **{c: getattr(traceable, c)[keep] for c in ("features", "labels", "attrs", "clip_ids", "frame_indices")},
        )
        with pytest.raises(SchemaError, match=f"clip {clip} has no frame"):
            synthesize_trace(holed, len(traceable.split.seen_clips), 10, len(traceable.split.seen_clips), seed=7)


# ---------------------------------------------------------------------------
# The columnar save and the chunked load, pinned to the per-sample I/O they
# replaced. The reference copies below are that I/O as it was, over a list
# of Sample objects.


@dataclass
class Sample:
    features: np.ndarray
    label: int
    attrs: tuple
    clip_id: int
    frame_index: int


def as_samples(ds):
    """The reference's view of a dataset: schema, split and one Sample per row."""
    samples = [
        Sample(x, y, tuple(a), clip, frame)
        for x, y, a, clip, frame in zip(
            ds.features, ds.labels.tolist(), ds.attrs.tolist(), ds.clip_ids.tolist(), ds.frame_indices.tolist()
        )
    ]
    return SimpleNamespace(schema=ds.schema, split=ds.split, samples=samples)


def reference_save_dataset(ds, path) -> None:
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


def reference_load_dataset(path):
    """Per-line parse; returns (schema, split, columns) with columns named as
    Dataset's. Its errors name the file, as load_dataset's do."""
    try:
        return reference_parse_dataset(path)
    except ParseError as exc:
        raise ParseError(exc.line_number, f"{path}: {exc.message}") from exc
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def reference_parse_dataset(path):
    path = Path(path)
    samples = []
    schema = None
    split = None
    # JSON Lines: a \n ends a line, and a \r is JSON whitespace
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
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
            samples.append(reference_parse_sample(obj, schema, lineno))
    if schema is None:
        raise ParseError(1, "missing header line")
    columns = {
        "features": np.stack([s.features for s in samples]) if samples else np.zeros((0, schema.feature_dim)),
        "labels": np.array([s.label for s in samples], dtype=int),
        "attrs": np.array([s.attrs for s in samples], dtype=int).reshape(len(samples), len(schema.attr_cardinalities)),
        "clip_ids": np.array([s.clip_id for s in samples], dtype=int),
        "frame_indices": np.array([s.frame_index for s in samples], dtype=int),
    }
    if samples:
        bad = np.flatnonzero(~np.isfinite(columns["features"]).all(axis=1))
        if len(bad):
            s = samples[bad[0]]
            raise SchemaError(f"sample in clip {s.clip_id} frame {s.frame_index}: non-finite feature")
    reference_check_index(columns["clip_ids"], columns["frame_indices"], split)
    return schema, split, columns


def reference_check_index(clips, frames, split) -> None:
    order = np.lexsort((frames, clips))
    clips_sorted, frames_sorted = clips[order], frames[order]
    repeated = np.flatnonzero(
        (clips_sorted[1:] == clips_sorted[:-1]) & (frames_sorted[1:] == frames_sorted[:-1])
    )
    if len(repeated):
        i = repeated[0]
        raise SchemaError(f"clip {clips_sorted[i]} frame {frames_sorted[i]} appears more than once")
    frame_counts = Counter(clips.tolist())
    for clip, parts in split.ranges.items():
        count = frame_counts[clip]
        for part, bounds in parts.items():
            if len(bounds) != 2 or not 0 <= bounds[0] <= bounds[1] <= count:
                raise SchemaError(f"clip {clip} {part} range {list(bounds)} does not fit its {count} frames")
        # every pair of parts, the earlier-starting one first; the first pair to share a frame is reported
        ordered = sorted((tuple(bounds), part) for part, bounds in parts.items())
        for i, (a, part) in enumerate(ordered):
            for b, other in ordered[i + 1:]:
                if max(a[0], b[0]) < min(a[1], b[1]):
                    raise SchemaError(f"clip {clip} {part} range {list(a)} overlaps its {other} range {list(b)}")
    for clip in sorted(split.seen_clips):
        if clip not in split.ranges:
            raise SchemaError(f"seen clip {clip} has no split ranges")
    both = set(split.seen_clips) & set(split.unseen_clips)
    if both:
        raise SchemaError(f"clip {min(both)} is listed as both seen and unseen")


def reference_parse_sample(obj, schema, lineno):
    try:
        if isinstance(obj["f"], list):
            for value in obj["f"]:
                if isinstance(value, (bool, str)):
                    raise TypeError(f"f must hold numbers, got {json.dumps(value)}")
        features = np.asarray(obj["f"], dtype=float)
        label = reference_integer(obj["y"], "y")
        attrs = tuple(reference_integer(a, "a") for a in obj["a"])
        clip = reference_integer(obj["clip"], "clip")
        frame = reference_integer(obj["frame"], "frame")
        # a dataset's clip ids and frame indices are int64 columns
        for key, value in (("clip", clip), ("frame", frame)):
            if not np.iinfo(np.int64).min <= value <= np.iinfo(np.int64).max:
                raise ValueError(f"{key} {value} is past int64 range")
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


def reference_integer(value, key):
    """A JSON integer field: ``json`` reads ``true`` as True and ``1.0`` as a
    float, and neither is an integer of the format."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def load_outcome(load, path):
    """(schema, split, columns) of a load, or the error's type and message."""
    try:
        ds = load(path)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)
    if isinstance(ds, tuple):
        return ds
    return ds.schema, ds.split, {c: getattr(ds, c) for c in ("features", "labels", "attrs", "clip_ids", "frame_indices")}


def assert_same_outcome(new, ref):
    """Two `load_outcome`s are the same error, or the same columns bit for bit."""
    assert new[:2] == ref[:2]
    if not isinstance(ref[0], type):
        for column, values in ref[2].items():
            assert new[2][column].dtype == values.dtype and new[2][column].shape == values.shape, column
            assert new[2][column].tobytes() == values.tobytes(), column


def assert_same_load(path):
    """`load_dataset` loads ``path`` as the reference does; its outcome."""
    new, ref = load_outcome(load_dataset, path), load_outcome(reference_load_dataset, path)
    if isinstance(ref[0], type):
        assert new == ref
        return new
    assert new[:2] == ref[:2]
    for column, values in ref[2].items():
        assert new[2][column].dtype == values.dtype, column
        assert new[2][column].shape == values.shape, column
        assert np.array_equal(new[2][column], values), column
    return new


small_configs = st.builds(
    small_generator_config,
    seed=st.integers(0, 2**32 - 1),
    num_cells=st.integers(1, 4),
    clips_per_cell=st.integers(1, 3),
    frames_per_clip=st.integers(1, 40),
    feature_dim=st.integers(1, 5),
    num_classes=st.integers(1, 4),
    noise=st.sampled_from([0.0, 0.3]),
    drift=st.sampled_from([0.0, 0.5]),
)


class TestIoMatchesPerLineReference:
    @settings(max_examples=30, deadline=None)
    @given(cfg=small_configs)
    def test_bytes_and_columns(self, cfg):
        ds = generate_dataset(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            new, ref = Path(tmp) / "new.jsonl", Path(tmp) / "ref.jsonl"
            save_dataset(ds, new)
            reference_save_dataset(as_samples(ds), ref)
            assert new.read_bytes() == ref.read_bytes()
            assert_same_load(new)

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
    def test_any_finite_float_is_written_as_json_writes_it(self, values):
        ds = generate_dataset(small_generator_config(num_cells=1, clips_per_cell=1, frames_per_clip=4, feature_dim=3))
        ds.features[1] = values
        with tempfile.TemporaryDirectory() as tmp:
            new, ref = Path(tmp) / "new.jsonl", Path(tmp) / "ref.jsonl"
            save_dataset(ds, new)
            reference_save_dataset(as_samples(ds), ref)
            assert new.read_bytes() == ref.read_bytes()
            assert_same_load(new)


def replace_line(number, text):
    def edit(lines):
        lines[number - 1] = text
    return edit


def edit_row(number, **changes):
    def edit(lines):
        row = json.loads(lines[number - 1])
        row.update(changes)
        for key, value in changes.items():
            if value is None:
                del row[key]
        lines[number - 1] = json.dumps(row, sort_keys=True)
    return edit


def first_feature_as(number, token):
    """Write row ``number``'s first feature as the bare token ``token``."""
    def edit(lines):
        head, rest = lines[number - 1].split('"f": [', 1)
        lines[number - 1] = head + '"f": [' + token + rest[rest.index(","):]
    return edit


def truncate_last(lines):
    lines[-1] = lines[-1][: len(lines[-1]) // 2]


def blank_lines(lines):
    lines[5:5] = ["", "   "]
    lines[300:300] = [""]


def two_rows_on_one_line(lines):
    lines[9] = lines[9] + ", " + lines.pop(10)


def row_split_across_lines(lines):
    cut = lines[9].index('"f": [') + 8
    lines[9:10] = [lines[9][:cut], lines[9][cut:]]


def row_parted_by_a_carriage_return(lines):
    # a carriage return inside a row is JSON whitespace, so the row loads
    cut = lines[699].index('"f": [') + 6
    lines[699] = lines[699][:cut] + "\r" + lines[699][cut:]


def header_and_row_parted_by_a_carriage_return(lines):
    lines[0] = lines[0] + "\r" + lines.pop(1)


def crlf_line_ends(lines):
    lines[:] = [line + "\r" for line in lines]


def cr_line_ends(lines):
    # every line end but the file's last, a \n, is a lone carriage return,
    # so the whole file is line 1
    lines[:] = ["\r".join(lines)]


def mixed_cr_and_crlf_line_ends(lines):
    # every tenth line ends in a lone carriage return, the others in a \r\n,
    # so line 10 holds two rows
    text = "".join(line + ("\r" if n % 10 == 9 else "\r\n") for n, line in enumerate(lines))
    lines[:] = [text.removesuffix("\n")]


def cr_line_ends_and_a_bad_row_past_the_first_chunk(lines):
    edit_row(700, y=99)(lines)
    cr_line_ends(lines)


def byte_order_mark(lines):
    # strict UTF-8 reads UTF-8's byte order mark as U+FEFF, which JSON refuses
    lines[0] = "\ufeff" + lines[0]


def schema_error_before_json_error(lines):
    edit_row(300, y=99)(lines)
    lines[399] = "{not json"


def header_only(lines):
    del lines[1:]


def edit_header(edit):
    """Corruption: ``edit`` changes the header's splits of the first seen clip."""
    def corrupt(lines):
        header = json.loads(lines[0])
        splits = header["splits"]
        edit(splits, str(splits["seen_clips"][0]))
        lines[0] = json.dumps(header, sort_keys=True)
    return corrupt


def repeat_clip_frame(lines):
    edit_row(20, clip=json.loads(lines[9])["clip"], frame=json.loads(lines[9])["frame"])(lines)


CORRUPTIONS = {
    "bad JSON": replace_line(4, "{not json"),
    "missing key": edit_row(3, y=None),
    "wrong feature length": edit_row(3, f=[0.5]),
    "nested features": edit_row(3, f=[[0.5, 0.5, 0.5]]),
    "label out of range": edit_row(2, y=99),
    "negative label": edit_row(2, y=-1),
    "attr out of range": edit_row(6, a=[0, 2]),
    "attr tuple too short": edit_row(6, a=[0]),
    "string label": edit_row(7, y="x"),
    "float label": edit_row(7, y=1.0),
    "frame past int64": edit_row(5, frame=9 * 10**30),
    "clip past int64": edit_row(500, clip=-1234567890123456789012345),
    "NaN feature": first_feature_as(8, "NaN"),
    "1e999 feature": first_feature_as(600, "1e999"),
    "blank lines between rows": blank_lines,
    "truncated last line": truncate_last,
    "bad JSON past the first chunk": replace_line(700, "{not json"),
    "bad row past the first chunk": edit_row(700, y=99),
    # the first chunk holds lines 2 to 257, the second starts at line 258
    "bad row on the first chunk's last line": edit_row(257, y=99),
    "bad row on the second chunk's first line": edit_row(258, y=99),
    "schema error before a JSON error in one chunk": schema_error_before_json_error,
    "two rows on one line": two_rows_on_one_line,
    "one row over two lines": row_split_across_lines,
    "a carriage return inside a row": row_parted_by_a_carriage_return,
    "header and first row parted by a carriage return": header_and_row_parted_by_a_carriage_return,
    "CRLF line ends": crlf_line_ends,
    "CR line ends": cr_line_ends,
    "CR and CRLF line ends mixed": mixed_cr_and_crlf_line_ends,
    "CR line ends and a bad row past the first chunk": cr_line_ends_and_a_bad_row_past_the_first_chunk,
    "byte order mark": byte_order_mark,
    "repeated clip and frame": repeat_clip_frame,
    "overlapping split parts": edit_header(lambda splits, clip: splits["ranges"][clip].update(valid=[0, 70])),
    "seen clip without ranges": edit_header(lambda splits, clip: splits["ranges"].pop(clip)),
    "ranges not an object": edit_header(lambda splits, clip: splits.update(ranges=[])),
    "header only": header_only,
    "empty file": lambda lines: lines.clear(),
}


@pytest.fixture(scope="module")
def ds_800():
    """An 800-row dataset (3 features, 2 x 2 attributes)."""
    return generate_dataset(small_generator_config(num_cells=4, clips_per_cell=2, frames_per_clip=100, feature_dim=3))


@pytest.fixture(scope="module")
def saved_800(tmp_path_factory, ds_800):
    """Text of ds_800's dataset file."""
    path = tmp_path_factory.mktemp("io") / "data.jsonl"
    save_dataset(ds_800, path)
    return path.read_text()


class TestCorruptionMatchesPerLineReference:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_same_error_or_same_columns(self, tmp_path, saved_800, name):
        lines = saved_800.splitlines()
        CORRUPTIONS[name](lines)
        path = tmp_path / "data.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with cpus_usable(1):
            alone = assert_same_load(path)
        if isinstance(alone[0], type):
            assert issubclass(alone[0], Error), alone  # an error line, not a traceback
        # at two usable CPUs the file loads or fails as at one, with the
        # same line number, and nothing forks
        with cpus_usable(2) as forks:
            assert_same_outcome(load_outcome(load_dataset, path), alone)
        assert forks == []

    def test_error_past_the_first_chunk_names_its_line(self, tmp_path, saved_800):
        lines = saved_800.splitlines()
        CORRUPTIONS["bad row past the first chunk"](lines)
        path = tmp_path / "data.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(SchemaError, match="sample at line 700: label 99 out of range"):
            load_dataset(path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("number", [10, 700])
@pytest.mark.parametrize("cpus", [1, 2])
def test_bad_utf8_byte_names_its_line(tmp_path, saved_800, end, number, cpus):
    # the reference raises the decoder's own error, so the line is checked
    # here; a line is decoded where it is parsed, unless the file's lines
    # end in a lone \r: without a \n byte before its end, the file is
    # line 1, refused as the header is read
    lines = [line.encode() for line in saved_800.splitlines()]
    lines[number - 1] = lines[number - 1][:5] + b"\xff" + lines[number - 1][5:]
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"".join(line + end.encode() for line in lines))
    with cpus_usable(cpus) as forks, pytest.raises(ParseError) as err:
        load_dataset(path)
    assert forks == []
    line = number if end != "\r" else 1
    assert str(err.value) == f"line {line}: {path}: not UTF-8 text (invalid start byte)"


# a \r right after each of these is at a JSON-whitespace position of a row
WHITESPACE_AFTER = ('"f": [', '"clip": ', "], ")


@settings(max_examples=20, deadline=None)
@given(
    crlf=st.one_of(st.just(range(1, 802)), st.sets(st.integers(1, 801), max_size=30)),
    blank_after=st.sets(st.integers(1, 801), max_size=3),
    inner=st.dictionaries(st.integers(2, 801), st.sampled_from(WHITESPACE_AFTER), max_size=3),
    lone=st.none() | st.integers(1, 800),
)
def test_line_end_mixes_load_as_the_reference(tmp_path_factory, saved_800, ds_800, crlf, blank_after, inner, lone):
    # saved_800's 801 lines, numbered from 1: those in crlf end in \r\n,
    # a blank \r\n line follows those in blank_after, the rows in inner
    # hold a \r, and line lone, if any, ends in a lone \r before the next
    lines = saved_800.splitlines()
    for n, token in inner.items():
        at = lines[n - 1].index(token) + len(token)
        lines[n - 1] = lines[n - 1][:at] + "\r" + lines[n - 1][at:]
    text = "".join(
        line + ("\r" if n == lone else ("\r\n" if n in crlf else "\n") + "\r\n" * (n in blank_after))
        for n, line in enumerate(lines, start=1)
    )
    path = tmp_path_factory.mktemp("ends") / "data.jsonl"
    path.write_bytes(text.encode())
    with cpus_usable(1):
        alone = assert_same_load(path)
    if lone is None:  # the columns of the file as saved, bit for bit
        assert_same_outcome(alone, load_outcome(lambda _: ds_800, path))
    else:
        line = lone + sum(n < lone for n in blank_after)
        assert alone == (ParseError, f"line {line}: {path}: invalid JSON: Extra data")
    with cpus_usable(2) as forks:
        assert_same_outcome(load_outcome(load_dataset, path), alone)
    assert forks == []


class TestAtomicSave:
    def test_non_finite_feature_refused_before_writing(self, tmp_path, small_ds):
        path = tmp_path / "data.jsonl"
        path.write_text("earlier file\n")
        bad = dataclasses.replace(small_ds, features=small_ds.features.copy())
        bad.features[7, 1] = np.inf
        clip, frame = small_ds.clip_ids[7], small_ds.frame_indices[7]
        with pytest.raises(SchemaError, match=f"sample in clip {clip} frame {frame}: non-finite feature"):
            save_dataset(bad, path)
        assert path.read_text() == "earlier file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    def test_failure_mid_write_leaves_target_and_no_temp_file(self, tmp_path, small_ds):
        path = tmp_path / "data.jsonl"
        path.write_text("earlier file\n")
        labels = small_ds.labels.astype(object)
        labels[len(labels) - 1] = "not a label"  # fails on the last chunk, after earlier writes
        with pytest.raises(TypeError):
            save_dataset(dataclasses.replace(small_ds, labels=labels), path)
        assert path.read_text() == "earlier file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]


def test_load_peak_memory(tmp_path, bench42):
    """A whole-file parse peaks near 6.3 MB on this file, the chunked one near 1.9 MB."""
    path = tmp_path / "data.jsonl"
    save_dataset(bench42.ds, path)
    load_dataset(path)  # warm any lazily built parser state
    tracemalloc.start()
    try:
        load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.8e6, f"load_dataset peaked at {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# Integer fields hold JSON integers only: json reads ``true`` as True and
# ``1.0`` as a float, and int() or an int64 array would take either.

NON_INTEGERS = {"y": [0.9, True], "a": [[0, 1.0], [False, 0]], "clip": [1.0, True], "frame": [2.5, False]}


@pytest.mark.parametrize("key", sorted(NON_INTEGERS))
def test_non_integer_field_refused(tmp_path, saved_800, key):
    # each line's own parse must see the value: alone in its chunk, before a
    # JSON error in its chunk, which must not be raised first, and at line
    # 700, past the first chunk, loaded at two usable CPUs
    for value in NON_INTEGERS[key]:
        shown = json.dumps(next(v for v in value if type(v) is not int) if key == "a" else value)
        for number, cpus, also in [(5, 1, None), (300, 1, replace_line(310, "{not json")), (700, 2, None)]:
            lines = saved_800.splitlines()
            edit_row(number, **{key: value})(lines)
            if also:
                also(lines)
            path = tmp_path / "data.jsonl"
            path.write_text("".join(line + "\n" for line in lines))
            with cpus_usable(cpus) as forks, pytest.raises(ParseError) as err:
                load_dataset(path)
            assert forks == []
            assert str(err.value) == f"line {number}: {path}: malformed sample: {key} must be an integer, got {shown}"
        assert_same_load(path)  # the reference refuses it too


# Features hold JSON numbers only: numpy reads ``true`` as 1.0 and "0.5" as
# 0.5 in a float array.

@pytest.mark.parametrize("value", [True, False, "0.5"])
def test_non_number_feature_refused(tmp_path, saved_800, value):
    # as for the integer fields, each line's own parse must see the value:
    # alone in its chunk, before a JSON error in its chunk, and past the
    # first chunk
    for number, cpus, also in [(5, 1, None), (300, 1, replace_line(310, "{not json")), (700, 2, None)]:
        lines = saved_800.splitlines()
        edit_row(number, f=[0.5, value, 0.5])(lines)
        if also:
            also(lines)
        path = tmp_path / "data.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with cpus_usable(cpus) as forks, pytest.raises(ParseError) as err:
            load_dataset(path)
        assert forks == []
        assert str(err.value) == f"line {number}: {path}: malformed sample: f must hold numbers, got {json.dumps(value)}"
    assert_same_load(path)  # the reference refuses it too


def test_integer_feature_past_float_range_names_its_line(tmp_path, saved_800):
    lines = saved_800.splitlines()
    edit_row(5, f=[0.5, 10**400, 0.5])(lines)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ParseError, match=r"^line 5: .*: malformed sample: int too large to convert to float$"):
        load_dataset(path)


def test_integer_features_load_as_floats(tmp_path, saved_800):
    # a row of JSON integers parses to an integer array before the cast
    lines = saved_800.splitlines()
    edit_row(5, f=[1, -2, 3])(lines)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    _, _, columns = assert_same_load(path)
    assert columns["features"].dtype == np.float64
    assert columns["features"][3].tolist() == [1.0, -2.0, 3.0]


HEADER_INTEGERS = {
    "feature_dim": lambda h, v: h["schema"].update(feature_dim=v),
    "num_classes": lambda h, v: h["schema"].update(num_classes=v),
    "attr_cardinalities": lambda h, v: h["schema"]["attr_cardinalities"].__setitem__(0, v),
    "seen_clips": lambda h, v: h["splits"]["seen_clips"].__setitem__(0, v),
    "unseen_clips": lambda h, v: h["splits"]["unseen_clips"].append(v),
}


@pytest.mark.parametrize("key", sorted(HEADER_INTEGERS))
@pytest.mark.parametrize("value", [2.0, True, "3"])
def test_non_integer_header_field_refused(tmp_path, saved_800, key, value):
    lines = saved_800.splitlines()
    header = json.loads(lines[0])
    HEADER_INTEGERS[key](header, value)
    lines[0] = json.dumps(header)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line_number == 1
    assert str(err.value) == f"line 1: {path}: malformed header: {key} must be an integer, got {json.dumps(value)}"


@pytest.mark.parametrize("ranges", [[], "0", None, 3])
def test_ranges_not_an_object_refused(tmp_path, saved_800, ranges):
    lines = saved_800.splitlines()
    header = json.loads(lines[0])
    header["splits"]["ranges"] = ranges
    lines[0] = json.dumps(header)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ParseError, match=rf"^line 1: {re.escape(str(path))}: malformed header: ") as err:
        load_dataset(path)
    assert err.value.line_number == 1


@pytest.mark.parametrize("key", ["feature_dim", "num_classes"])
@pytest.mark.parametrize("value", [10**30, 2**63 - 1])
@pytest.mark.parametrize("rows", [True, False], ids=["with rows", "header only"])
def test_dimension_past_numpy_array_size_refused(tmp_path, saved_800, key, value, rows):
    # numpy refuses a row of that many floats without allocating anything
    lines = saved_800.splitlines()
    header = json.loads(lines[0])
    header["schema"][key] = value
    lines[0] = json.dumps(header)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in (lines if rows else lines[:1])))
    with pytest.raises(ConfigError, match="^feature_dim and num_classes must be at most 1152921504606846975, "):
        load_dataset(path)
    schema = dataclasses.replace(small_generator_config().schema, **{key: value})
    with pytest.raises(ConfigError, match="the most floats a numpy array holds$"):
        schema.validate()


def test_non_integer_split_bound_refused(tmp_path, saved_800):
    lines = saved_800.splitlines()
    header = json.loads(lines[0])
    clip = next(iter(header["splits"]["ranges"]))
    header["splits"]["ranges"][clip]["valid"][1] = 70.0
    lines[0] = json.dumps(header)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ParseError, match=rf"^line 1: .*: malformed header: ranges\[{clip}\].valid must be an integer, got 70.0$"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# Dataset I/O runs in one process, whatever the number of usable CPUs.


@contextlib.contextmanager
def small_chunks():
    """Chunks of 3 lines, so that small datasets span many chunks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_CHUNK_LINES", 3)
        yield


def awkward_features(ds, seed):
    """``ds`` with features of every form repr gives a float: -0.0,
    subnormals, exponents from the smallest to the largest, and a few
    short decimals."""
    rng = np.random.default_rng(seed)
    shape = ds.features.shape
    features = np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(-1074, 1024, shape)) * rng.choice([-1, 1], shape)
    specials = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308, 1e16, 1e-07, 0.1]
    pick = rng.random(shape) < 0.3
    features[pick] = rng.choice(specials, pick.sum())
    return dataclasses.replace(ds, features=features)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def saved_alone(ds, path):
    """Save ``ds`` to ``path`` with one usable CPU; its bytes and its load."""
    with cpus_usable(1):
        save_dataset(ds, path)
        return path.read_bytes(), load_outcome(load_dataset, path)


@pytest.mark.parametrize("cpus", [1, 4])
def test_dataset_io_never_forks(tmp_path, ds_800, saved_800, cpus):
    # a save, a parse and a column-file read: the bytes and columns of one CPU
    path = tmp_path / "data.jsonl"
    with cpus_usable(cpus) as forks:
        save_dataset(ds_800, path)
        parsed = load_outcome(load_dataset, path)
        dataset.save_columns(ds_800, path)
        read = load_outcome(load_dataset, path)
    assert forks == []
    assert path.read_bytes() == saved_800.encode()
    assert_same_outcome(parsed, load_outcome(lambda _: ds_800, path))
    assert_same_outcome(read, parsed)


class TestSharesMatchOneProcess:
    """Dataset I/O at several usable CPUs gives what it gives at one, and
    forks nothing: only training splits into shares."""

    @settings(max_examples=10, deadline=None)
    @given(cfg=small_configs, seed=st.integers(0, 2**32 - 1), cpus=st.sampled_from([2, 3]))
    def test_bytes_and_columns(self, cfg, seed, cpus):
        ds = awkward_features(generate_dataset(cfg), seed)
        with tempfile.TemporaryDirectory() as tmp, small_chunks():
            one, other = Path(tmp) / "one.jsonl", Path(tmp) / "other.jsonl"
            data, alone = saved_alone(ds, one)
            with cpus_usable(cpus) as forks:
                save_dataset(ds, other)
                loaded = load_outcome(load_dataset, other)
            assert other.read_bytes() == data
        assert forks == []
        assert_same_outcome(loaded, alone)

    def test_shares_of_the_fewest_chunks(self, tmp_path):
        # six chunks of 12 features, as in the default dataset, at 3 CPUs
        ds = generate_dataset(small_generator_config(clips_per_cell=2, frames_per_clip=192, feature_dim=12))
        data, alone = saved_alone(ds, tmp_path / "one.jsonl")
        path = tmp_path / "data.jsonl"
        with cpus_usable(3) as forks:
            save_dataset(ds, path)
            loaded = load_outcome(load_dataset, path)
        assert path.read_bytes() == data
        assert_same_outcome(loaded, alone)
        assert forks == []

    def test_shares_below_the_minimum_fork_nothing(self, tmp_path, small_ds):
        # 400 rows, two chunks, at 2 CPUs
        path = tmp_path / "data.jsonl"
        with cpus_usable(2) as forks:
            save_dataset(small_ds, path)
            load_dataset(path)
        assert forks == []

    @pytest.mark.parametrize("failure", ["fork", "child"])
    def test_a_failed_share_gives_the_one_process_result(self, tmp_path, ds_800, failure, monkeypatch):
        # a fork that fails, or a pickle that breaks as a child's would:
        # dataset I/O uses neither, so a save and a load are unchanged
        data, alone = saved_alone(ds_800, tmp_path / "one.jsonl")
        path = tmp_path / "data.jsonl"
        path.write_text("earlier file\n")
        fds = open_fds()

        def failed_fork():
            raise OSError("fork failed")

        def broken_dump(obj, file, protocol):
            raise OSError("pickling failed")

        with cpus_usable(2) as forks:
            if failure == "fork":
                monkeypatch.setattr(os, "fork", failed_fork)
            else:
                monkeypatch.setattr(pickle, "dump", broken_dump)
            save_dataset(ds_800, path)
            loaded = load_outcome(load_dataset, path)
            monkeypatch.undo()
        assert path.read_bytes() == data
        assert_same_outcome(loaded, alone)
        assert forks == []
        assert open_fds() == fds
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "one.jsonl"]

    @pytest.mark.parametrize("row", [0, 799], ids=["parent's share", "child's share"])
    def test_a_share_that_raises_leaves_the_earlier_file(self, tmp_path, ds_800, row):
        # a row that fails to format, in the first chunk or in the last
        path = tmp_path / "data.jsonl"
        path.write_text("earlier file\n")
        labels = ds_800.labels.astype(object)
        labels[row] = "not a label"
        fds = open_fds()
        with cpus_usable(2) as forks, pytest.raises(TypeError):
            save_dataset(dataclasses.replace(ds_800, labels=labels), path)
        assert forks == []
        assert path.read_text() == "earlier file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]
        assert open_fds() == fds

# ---------------------------------------------------------------------------
# The column file `save_columns` writes beside a dataset file, which
# `generate` writes and `load_dataset` reads while it is keyed to that file,
# pinned to the parse of the file itself.

COLUMNS = ("features", "labels", "attrs", "clip_ids", "frame_indices")


def save_with_columns(ds, path):
    """Save ``ds`` to ``path`` and its column file beside it, as generate does;
    the column file's path."""
    save_dataset(ds, path)
    dataset.save_columns(ds, path)
    return Path(dataset.columns_path(path))


def parsed_outcome(path):
    """`load_outcome` of ``path`` with its column file, if any, moved away."""
    columns = Path(dataset.columns_path(path))
    aside = columns.with_name(columns.name + ".aside")
    moved = columns.exists()
    if moved:
        columns.rename(aside)
    try:
        return load_outcome(load_dataset, path)
    finally:
        if moved:
            aside.rename(columns)


class TestColumnFileMatchesParse:
    @settings(max_examples=20, deadline=None)
    @given(cfg=small_configs, awkward=st.booleans(), seed=st.integers(0, 2**32 - 1), cpus=st.sampled_from([1, 2]))
    def test_same_columns_as_the_parse(self, cfg, awkward, seed, cpus):
        ds = generate_dataset(cfg)
        if awkward:
            ds = awkward_features(ds, seed)
        with tempfile.TemporaryDirectory() as tmp, small_chunks(), cpus_usable(cpus):
            path = Path(tmp) / "data.jsonl"
            columns = save_with_columns(ds, path)
            read = load_dataset(path)
            columns.unlink()
            parsed = load_dataset(path)
        assert (read.schema, read.split) == (parsed.schema, parsed.split)
        for column in COLUMNS:
            new, ref = getattr(read, column), getattr(parsed, column)
            assert new.dtype == ref.dtype and new.shape == ref.shape and new.tobytes() == ref.tobytes(), column
            assert new.flags.c_contiguous and new.flags.writeable, column
        assert no_child_left()

    def test_read_without_parsing_a_row(self, tmp_path, ds_800, monkeypatch):
        path = tmp_path / "data.jsonl"
        save_with_columns(ds_800, path)

        def no_parse(*args):
            raise AssertionError("the sample lines were parsed")

        expected = parsed_outcome(path)
        monkeypatch.setattr(dataset, "_lines", no_parse)
        with cpus_usable(1):  # a fork fails the test
            assert_same_outcome(load_outcome(load_dataset, path), expected)

    def test_layout(self, tmp_path, ds_800):
        path = tmp_path / "data.jsonl"
        data = save_with_columns(ds_800, path).read_bytes()
        header, body = data[: data.index(b"\n") + 1], data[data.index(b"\n") + 1 :]
        assert json.loads(header) == {
            "format": "sceneselect-columns", "version": 1, "dataset_sha256": sha256_file(path),
            "columns": [["features", "<f8", [800, 3]], ["labels", "<i8", [800]], ["attrs", "<i8", [800, 2]],
                        ["clip_ids", "<i8", [800]], ["frame_indices", "<i8", [800]]],
        }
        assert body == b"".join(getattr(ds_800, c).astype("<f8" if c == "features" else "<i8").tobytes() for c in COLUMNS)

    def test_peak_memory_holds_no_copy_of_the_file(self, tmp_path, bench42):
        # the columns and one hash block peak near 1.27x the columns' bytes;
        # reading the file whole first would add another 1.0x
        path = tmp_path / "data.jsonl"
        save_with_columns(bench42.ds, path)
        load_dataset(path)
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sum(getattr(ds, column).nbytes for column in COLUMNS)
        assert peak < 1.6 * size, f"load_dataset peaked at {peak / size:.2f}x the columns' bytes"


def column_file(path):
    """(header, {name: array}) of the column file at ``path``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {name: np.frombuffer(fh.read(np.dtype(dtype).itemsize * int(np.prod(shape))), dtype).reshape(shape)
                  for name, dtype, shape in header["columns"]}
    return header, arrays


def rewrite_columns(edit):
    """Corruption: the column file rewritten after ``edit(header, arrays)``,
    each array written as its own bytes, so its header still matches its body."""

    def corrupt(path, columns):
        header, arrays = column_file(columns)
        arrays = {name: a.copy() for name, a in arrays.items()}
        edit(header, arrays)
        columns.write_bytes(json.dumps(header).encode() + b"\n" + b"".join(a.tobytes() for a in arrays.values()))

    return corrupt


def one_feature_wider(header, arrays):
    header["columns"][0][2][1] += 1
    arrays["features"] = np.hstack([arrays["features"], arrays["features"][:, :1]])


def one_row_short(header, arrays):
    header["columns"][1][2][0] -= 1
    arrays["labels"] = arrays["labels"][:-1]


def retyped_labels(header, arrays):
    header["columns"][1][1] = "<i4"
    arrays["labels"] = arrays["labels"].astype("<i4")


def renamed_labels(header, arrays):
    header["columns"][1][0] = "label"
    arrays["label"] = arrays.pop("labels")


def repeated_clip_frame(header, arrays):
    arrays["frame_indices"][1] = arrays["frame_indices"][0]


def set_value(name, index, value):
    """Array edit: column ``name``'s entry at ``index`` set to ``value``; the header keeps the file's hash."""

    def edit(header, arrays):
        arrays[name][index] = value

    return edit


def edit_dataset_line(number, old, new):
    def corrupt(path, columns):
        lines = path.read_text().splitlines()
        lines[number - 1] = lines[number - 1].replace(old, new, 1)
        path.write_text("".join(line + "\n" for line in lines))

    return corrupt


def truncate_dataset(path, columns):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def cut_columns(count):
    def corrupt(path, columns):
        columns.write_bytes(columns.read_bytes()[:-count])

    return corrupt


# (dataset path, column file path) -> None; a row of ds_800's columns is 64 bytes
COLUMN_CORRUPTIONS = {
    "missing": lambda path, columns: columns.unlink(),
    "a directory": lambda path, columns: (columns.unlink(), columns.mkdir()),
    "wrong format": rewrite_columns(lambda h, a: h.update(format="sceneselect-rows")),
    "wrong version": rewrite_columns(lambda h, a: h.update(version=2)),
    "version true": rewrite_columns(lambda h, a: h.update(version=True)),
    "stale hash after an edited row": edit_dataset_line(5, '"f": [', '"f": [0.25, '),
    "stale hash after an edited header": edit_dataset_line(1, '"seen_clips": [', '"seen_clips": [99, '),
    "stale hash after a truncated dataset": truncate_dataset,
    "hash of another file": rewrite_columns(lambda h, a: h.update(dataset_sha256="0" * 64)),
    "truncated by a byte": cut_columns(1),
    "truncated by a row": cut_columns(64),
    "one extra byte": lambda path, columns: columns.write_bytes(columns.read_bytes() + b"\0"),
    "one extra row": lambda path, columns: columns.write_bytes(columns.read_bytes() + bytes(64)),
    "a column renamed": rewrite_columns(renamed_labels),
    "a column retyped": rewrite_columns(retyped_labels),
    "a column one row short": rewrite_columns(one_row_short),
    "a feature column one wider": rewrite_columns(one_feature_wider),
    "a NaN feature": rewrite_columns(set_value("features", (5, 1), np.nan)),
    "an infinite feature": rewrite_columns(set_value("features", (700, 0), -np.inf)),
    "a label out of range": rewrite_columns(set_value("labels", 7, 3)),
    "a negative label": rewrite_columns(set_value("labels", 799, -1)),
    "an attribute out of range": rewrite_columns(set_value("attrs", (3, 1), 2)),
    "a repeated (clip, frame)": rewrite_columns(repeated_clip_frame),
    "a row moved to another clip": rewrite_columns(set_value("clip_ids", 0, 99)),
}


@pytest.mark.parametrize("name", sorted(COLUMN_CORRUPTIONS))
def test_corrupt_column_file_loads_as_the_parse(tmp_path, ds_800, name, monkeypatch):
    path = tmp_path / "data.jsonl"
    columns = save_with_columns(ds_800, path)
    COLUMN_CORRUPTIONS[name](path, columns)
    expected = parsed_outcome(path)
    parses, lines = [], dataset._lines

    def counted_lines(*args):
        parses.append(args)
        return lines(*args)

    monkeypatch.setattr(dataset, "_lines", counted_lines)
    with cpus_usable(1):
        outcome = load_outcome(load_dataset, path)
    assert_same_outcome(outcome, expected)
    assert parses, "the column file was read"
