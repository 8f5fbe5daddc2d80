import json

import numpy as np
import pytest

from sceneselect.dataset import generate_dataset, load_dataset, part_indices, save_dataset, synthesize_trace
from sceneselect.errors import ConfigError, ParseError, SchemaError

from conftest import small_generator_config


class TestGenerate:
    def test_counts_and_attr_tuples(self):
        ds = generate_dataset(small_generator_config(num_cells=4, clips_per_cell=2, frames_per_clip=50))
        assert len(ds.samples) == 4 * 2 * 50
        assert len({s.attrs for s in ds.samples}) == 4

    def test_degenerate_limit_single_class(self):
        cfg = small_generator_config(num_classes=1, spread=1e-12, noise=0.0, drift=0.0)
        ds = generate_dataset(cfg)
        for cell_attrs in {s.attrs for s in ds.samples}:
            feats = np.stack([s.features for s in ds.samples if s.attrs == cell_attrs])
            labels = {s.label for s in ds.samples if s.attrs == cell_attrs}
            assert np.ptp(feats, axis=0).max() < 1e-9  # one feature point per cell
            assert labels == {0}

    def test_degenerate_limit_one_label_per_point(self):
        # with several classes the cell collapses onto one point per class,
        # each point carrying a single deterministic label
        cfg = small_generator_config(num_classes=3, spread=1e-12, noise=0.0, drift=0.0)
        ds = generate_dataset(cfg)
        by_point = {}
        for s in ds.samples:
            by_point.setdefault((s.attrs, tuple(np.round(s.features, 6))), set()).add(s.label)
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
        assert len(a.samples) == len(b.samples)
        for x, y in zip(a.samples, b.samples):
            assert x.features.tobytes() == y.features.tobytes()
            assert (x.label, x.attrs, x.clip_id, x.frame_index) == (
                y.label,
                y.attrs,
                y.clip_id,
                y.frame_index,
            )
        assert a.split == b.split

    def test_different_seeds_differ(self):
        a = generate_dataset(small_generator_config(seed=1))
        b = generate_dataset(small_generator_config(seed=2))
        assert any(
            x.features.tobytes() != y.features.tobytes() for x, y in zip(a.samples, b.samples)
        )

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
        for s in ds.samples:
            if s.clip_id in (0, 1):
                point[(s.clip_id, s.label)] = s.features
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
        all_seen = {i for i, s in enumerate(ds.samples) if s.clip_id in seen}
        assert train | valid | test == all_seen


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, small_ds):
        path = tmp_path / "data.jsonl"
        save_dataset(small_ds, path)
        again = load_dataset(path)
        assert again.schema == small_ds.schema
        assert again.split == small_ds.split
        assert len(again.samples) == len(small_ds.samples)
        for a, b in zip(small_ds.samples, again.samples):
            assert a.features.tobytes() == b.features.tobytes()
            assert (a.label, a.attrs, a.clip_id, a.frame_index) == (
                b.label,
                b.attrs,
                b.clip_id,
                b.frame_index,
            )

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
        assert len({s.clip_id for s in trace}) == 1
        frames = [s.frame_index for s in trace]
        assert frames == list(range(frames[0], frames[0] + 10))

    def test_attrs_change_only_at_segment_boundaries(self, traceable):
        seg = 10
        trace = synthesize_trace(traceable, 4, seg, 6, seed=3)
        for i in range(1, len(trace)):
            if trace[i].attrs != trace[i - 1].attrs:
                assert i % seg == 0

    def test_segments_come_from_test_split(self, traceable):
        trace = synthesize_trace(traceable, 3, 10, 4, seed=5)
        for s in trace:
            lo, hi = traceable.split.ranges[s.clip_id]["test"]
            assert lo <= s.frame_index < hi

    def test_clip_too_short_names_clip(self, traceable):
        with pytest.raises(ConfigError) as err:
            synthesize_trace(traceable, 3, 1000, 1, seed=1)
        assert "clip" in str(err.value)

    def test_deterministic(self, traceable):
        t1 = synthesize_trace(traceable, 3, 10, 4, seed=7)
        t2 = synthesize_trace(traceable, 3, 10, 4, seed=7)
        assert [(s.clip_id, s.frame_index) for s in t1] == [(s.clip_id, s.frame_index) for s in t2]
