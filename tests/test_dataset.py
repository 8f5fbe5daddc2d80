import dataclasses
import json
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

from sceneselect.dataset import (
    PARTS,
    _parse_header,
    generate_dataset,
    load_dataset,
    part_indices,
    save_dataset,
    synthesize_trace,
)
from sceneselect.errors import ConfigError, ParseError, SchemaError

from conftest import small_generator_config


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
        assert "clip 3 frame 0" in str(err.value)

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

    def test_deterministic(self, traceable):
        t1 = synthesize_trace(traceable, 3, 10, 4, seed=7)
        t2 = synthesize_trace(traceable, 3, 10, 4, seed=7)
        assert np.array_equal(t1.rows, t2.rows)

    def test_columns_are_the_dataset_rows(self, traceable):
        trace = synthesize_trace(traceable, 3, 10, 4, seed=7)
        for column in ("features", "labels", "attrs", "clip_ids", "frame_indices"):
            assert np.array_equal(getattr(trace, column), getattr(traceable, column)[trace.rows])
        frames = list(trace)
        assert len(frames) == len(trace)
        assert np.array_equal(np.stack([f.features for f in frames]), trace.features)
        assert [f.label for f in frames] == trace.labels.tolist()

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
    """Per-line parse; returns (schema, split, columns) with columns named as Dataset's."""
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
    both = set(split.seen_clips) & set(split.unseen_clips)
    if both:
        raise SchemaError(f"clip {min(both)} is listed as both seen and unseen")


def reference_parse_sample(obj, schema, lineno):
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


def load_outcome(load, path):
    """(schema, split, columns) of a load, or the error's type and message."""
    try:
        ds = load(path)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)
    if isinstance(ds, tuple):
        return ds
    return ds.schema, ds.split, {c: getattr(ds, c) for c in ("features", "labels", "attrs", "clip_ids", "frame_indices")}


def assert_same_load(path):
    new, ref = load_outcome(load_dataset, path), load_outcome(reference_load_dataset, path)
    if isinstance(ref[0], type):
        assert new == ref
        return
    assert new[:2] == ref[:2]
    for column, values in ref[2].items():
        assert new[2][column].dtype == values.dtype, column
        assert new[2][column].shape == values.shape, column
        assert np.array_equal(new[2][column], values), column


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


def schema_error_before_json_error(lines):
    edit_row(300, y=99)(lines)
    lines[399] = "{not json"


def header_only(lines):
    del lines[1:]


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
    "NaN feature": first_feature_as(8, "NaN"),
    "1e999 feature": first_feature_as(600, "1e999"),
    "blank lines between rows": blank_lines,
    "truncated last line": truncate_last,
    "bad JSON past the first chunk": replace_line(700, "{not json"),
    "bad row past the first chunk": edit_row(700, y=99),
    "schema error before a JSON error in one chunk": schema_error_before_json_error,
    "two rows on one line": two_rows_on_one_line,
    "one row over two lines": row_split_across_lines,
    "repeated clip and frame": repeat_clip_frame,
    "header only": header_only,
    "empty file": lambda lines: lines.clear(),
}


@pytest.fixture(scope="module")
def saved_800(tmp_path_factory):
    """Text of an 800-row dataset file (3 features, 2 x 2 attributes)."""
    ds = generate_dataset(small_generator_config(num_cells=4, clips_per_cell=2, frames_per_clip=100, feature_dim=3))
    path = tmp_path_factory.mktemp("io") / "data.jsonl"
    save_dataset(ds, path)
    return path.read_text()


class TestCorruptionMatchesPerLineReference:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_same_error_or_same_columns(self, tmp_path, saved_800, name):
        lines = saved_800.splitlines()
        CORRUPTIONS[name](lines)
        path = tmp_path / "data.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        assert_same_load(path)

    def test_error_past_the_first_chunk_names_its_line(self, tmp_path, saved_800):
        lines = saved_800.splitlines()
        CORRUPTIONS["bad row past the first chunk"](lines)
        path = tmp_path / "data.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(SchemaError, match="sample at line 700: label 99 out of range"):
            load_dataset(path)


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
    """A whole-file parse peaks near 9.5 MB on this file, the chunked one near 2.3 MB."""
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
