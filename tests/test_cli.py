import configparser
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneselect import cli, dataset, decision, learners, profiling, sampling
from sceneselect.artifacts import read_artifact, write_artifact
from sceneselect.dataset import load_dataset
from sceneselect.errors import (
    ArtifactMismatchError,
    ConfigError,
    DivergedError,
    Error,
    InsufficientModelsError,
    ParseError,
    SchemaError,
)
from sceneselect.sampling import well_sampled_threshold

from test_profiling import cpus_usable, no_child_left

SMALL_INI = """
[dataset]
feature_dim = 6
num_classes = 3
attr_cardinalities = 2,2
num_semantic_cells = 4
clips_per_cell = 2
frames_per_clip = 60
cluster_spread = 0.2
label_rule_noise = 0.0
drift_strength = 0.1
seed = 42

[profiling]
n = 3
delta = 0.0
k_start = 2
k_max = 8
encoder_hidden = 8
compressed_hidden = 6
encoder_lr = 0.2
encoder_epochs = 20
encoder_batch_size = 64
encoder_l2 = 0.0
encoder_seed = 101
model_lr = 0.2
model_epochs = 25
model_batch_size = 64
model_l2 = 0.0
seed = 7

[sampling]
theta = 0.9
kappa = 150
seed = 11

[decision]
head_hidden = 8
lr = 0.2
epochs = 30
batch_size = 64
l2 = 0.0
seed = 13
low_confidence = 0.2

[trace]
num_source_clips = 3
segment_len = 10
num_segments = 3
seed = 17

[runtime]
capacity = 2
window = 10

[baselines]
deep_hidden = 64
lr = 0.2
epochs = 25
batch_size = 64
l2 = 0.0
sdm_seed = 19
ssm_seed = 23
cdg_seed = 29
dmm_seed = 31
"""


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Full CLI pipeline run once in a temp dir."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "small.ini"
    ini.write_text(SMALL_INI)
    data = root / "data.jsonl"
    assert cli.main(["generate", "--config", str(ini), "--out", str(data)]) == 0
    prof = root / "prof"
    assert cli.main(["profile", "--config", str(ini), "--dataset", str(data), "--out", str(prof)]) == 0
    pools = root / "pools.json"
    assert cli.main([
        "sample", "--config", str(ini), "--dataset", str(data),
        "--repository", str(prof / "repository.json"), "--out", str(pools),
    ]) == 0
    dec = root / "decision.json"
    assert cli.main([
        "train-decision", "--config", str(ini), "--dataset", str(data),
        "--repository", str(prof / "repository.json"),
        "--encoder", str(prof / "encoder.json"), "--pools", str(pools), "--out", str(dec),
    ]) == 0
    return {"root": root, "ini": ini, "data": data, "prof": prof, "pools": pools, "dec": dec}


class TestGenerate:
    def test_header_matches_config(self, workdir):
        header = json.loads(Path(workdir["data"]).read_text().splitlines()[0])
        assert header["schema"]["feature_dim"] == 6
        assert header["schema"]["attr_cardinalities"] == [2, 2]

    def test_seed_flag_changes_bytes(self, tmp_path, workdir):
        out = tmp_path / "other.jsonl"
        cli.main(["generate", "--config", str(workdir["ini"]), "--out", str(out), "--seed", "43"])
        assert sha(out) != sha(workdir["data"])

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["generate"])
        assert err.value.code == 2

    def test_rerun_is_byte_identical(self, tmp_path, workdir):
        out = tmp_path / "again.jsonl"
        cli.main(["generate", "--config", str(workdir["ini"]), "--out", str(out)])
        assert sha(out) == sha(workdir["data"])

    def test_column_file_beside_the_dataset_is_read(self, workdir, monkeypatch):
        columns = Path(dataset.columns_path(workdir["data"]))
        with columns.open("rb") as fh:
            assert json.loads(fh.readline())["dataset_sha256"] == sha(workdir["data"])
        moved = columns.rename(columns.with_name("aside"))
        try:
            parsed = load_dataset(workdir["data"])
        finally:
            moved.rename(columns)

        def no_parse(*args):
            raise AssertionError("the sample lines were parsed")

        monkeypatch.setattr(dataset, "_lines", no_parse)
        read = load_dataset(workdir["data"])
        for column in ("features", "labels", "attrs", "clip_ids", "frame_indices"):
            assert getattr(read, column).tobytes() == getattr(parsed, column).tobytes(), column

    @pytest.mark.parametrize("failure", ["dataset", "column file"])
    def test_failed_generate_leaves_no_temp_file(self, tmp_path, workdir, capsys, monkeypatch, failure):
        out = tmp_path / "data.jsonl"
        if failure == "dataset":
            def full_disk(ds, lo):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(dataset, "_chunk_text", full_disk)
        else:
            Path(dataset.columns_path(out)).mkdir()  # the rename over it fails
        with cpus_usable(1):
            assert cli.main(["generate", "--config", str(workdir["ini"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ([] if failure == "dataset" else ["data.jsonl", "data.jsonl.columns"])


class TestProfile:
    def test_repository_has_n_models(self, workdir):
        body = read_artifact(workdir["prof"] / "repository.json", "repository")
        assert len(body["models"]) == 3
        assert body["dataset_hash"] == sha(workdir["data"])

    def test_rerun_identical(self, tmp_path, workdir):
        out = tmp_path / "prof2"
        cli.main(["profile", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]), "--out", str(out)])
        assert sha(out / "repository.json") == sha(workdir["prof"] / "repository.json")
        assert sha(out / "encoder.json") == sha(workdir["prof"] / "encoder.json")

    def test_delta_one_reports_insufficient(self, tmp_path, workdir, capsys):
        ini = tmp_path / "hard.ini"
        ini.write_text(SMALL_INI.replace("delta = 0.0", "delta = 1.0").replace("k_max = 8", "k_max = 4"))
        code = cli.main(["profile", "--config", str(ini), "--dataset", str(workdir["data"]), "--out", str(tmp_path / "p")])
        assert code == 1
        assert "accepted only" in capsys.readouterr().err


class TestChain:
    def test_pools_artifact(self, workdir):
        body = read_artifact(workdir["pools"], "pools")
        assert (body["theta"], body["kappa"], body["seed"]) == (0.9, 150, 11)
        assert body["repository_hash"] == sha(workdir["prof"] / "repository.json")
        assert len(body["arms"]) == 3

    def test_sample_flags_reach_the_pools_header(self, tmp_path, workdir):
        out = tmp_path / "p.json"
        assert cli.main([
            "sample", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
            "--repository", str(workdir["prof"] / "repository.json"), "--out", str(out),
            "--theta", "0.5", "--kappa", "40", "--seed", "12",
        ]) == 0
        body = read_artifact(out, "pools")
        assert (body["theta"], body["kappa"], body["seed"]) == (0.5, 40, 12)
        assert len(body["rows"]) == 40

    def test_decision_artifact(self, workdir):
        body = read_artifact(workdir["dec"], "decision")
        assert body["encoder_hash"] == sha(workdir["prof"] / "encoder.json")

    def test_hash_mismatch_refused(self, tmp_path, workdir, capsys):
        other = tmp_path / "other.jsonl"
        cli.main(["generate", "--config", str(workdir["ini"]), "--out", str(other), "--seed", "7"])
        code = cli.main([
            "sample", "--config", str(workdir["ini"]), "--dataset", str(other),
            "--repository", str(workdir["prof"] / "repository.json"), "--out", str(tmp_path / "p.json"),
        ])
        assert code == 1
        assert "hash mismatch" in capsys.readouterr().err

    def test_corrupted_artifact_refused(self, tmp_path, workdir, capsys):
        bad = tmp_path / "bad.json"
        body = json.loads((workdir["prof"] / "repository.json").read_text())
        body["models"] = body["models"][:1]  # tamper without updating the hash
        bad.write_text(json.dumps(body))
        code = cli.main([
            "sample", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
            "--repository", str(bad), "--out", str(tmp_path / "p.json"),
        ])
        assert code == 1
        assert "hash" in capsys.readouterr().err


class TestSimulate:
    def test_anole_and_baseline_summaries(self, tmp_path, workdir):
        out = tmp_path / "sim"
        assert cli.main([
            "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
            "--baseline", "anole", "--repository", str(workdir["prof"] / "repository.json"),
            "--encoder", str(workdir["prof"] / "encoder.json"), "--decision", str(workdir["dec"]),
            "--out", str(out),
        ]) == 0
        for baseline in ("ssm", "cdg", "dmm"):
            assert cli.main([
                "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
                "--baseline", baseline, "--out", str(out),
            ]) == 0
        anole = read_artifact(out / "summary_anole_cap2.json", "summary")
        ssm = read_artifact(out / "summary_ssm_cap2.json", "summary")
        assert set(anole) >= {"miss_rate", "mean_window_f1", "duration_quartiles", "top1_histogram", "top5_coverage"}
        assert anole["method"] == "anole" and ssm["method"] == "ssm"
        for baseline in ("cdg", "dmm"):
            assert read_artifact(out / f"summary_{baseline}_cap2.json", "summary")["method"] == baseline
        assert (out / "frames_anole_cap2.csv").exists()

    def test_anole_requires_artifacts(self, workdir, tmp_path, capsys):
        code = cli.main([
            "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
            "--baseline", "anole", "--out", str(tmp_path / "x"),
        ])
        assert code == 1

    def test_capacity_sweep_and_report(self, tmp_path, workdir, capsys):
        out = tmp_path / "sweep"
        assert cli.main([
            "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
            "--baseline", "anole", "--repository", str(workdir["prof"] / "repository.json"),
            "--encoder", str(workdir["prof"] / "encoder.json"), "--decision", str(workdir["dec"]),
            "--capacity-sweep", "1..3", "--out", str(out),
        ]) == 0
        summaries = sorted(out.glob("summary_anole_cap*.json"))
        assert len(summaries) == 3
        report_path = tmp_path / "report.json"
        assert cli.main(["report", *[str(p) for p in summaries], "--out", str(report_path)]) == 0
        report = read_artifact(report_path, "report")
        assert report["sweeps"]["anole"]["monotone_miss_rate"] is True
        assert report["methods"]["anole"]["runs"] == 3

    def test_capacity_and_sweep_exclude_each_other(self, workdir, tmp_path, capsys):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            cli.main([
                "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
                "--baseline", "ssm", "--capacity", "3", "--capacity-sweep", "1..2", "--out", str(out),
            ])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sweep_argument(self, workdir, tmp_path):
        code = cli.main([
            "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
            "--baseline", "ssm", "--capacity-sweep", "5..1", "--out", str(tmp_path / "x"),
        ])
        assert code == 1

    def test_empty_sweep_rejected(self, workdir, tmp_path, capsys):
        # an empty range is a bad sweep, not a request for the config's capacity
        out = tmp_path / "x"
        code = cli.main([
            "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
            "--baseline", "ssm", "--capacity-sweep", "", "--out", str(out),
        ])
        assert code == 1
        assert "bad sweep ''" in capsys.readouterr().err
        assert not out.exists()


# runs cli.main(argv) in a fresh interpreter in which importing scipy fails
NO_SCIPY = "import sys; sys.modules['scipy'] = None; from sceneselect import cli; sys.exit(cli.main(sys.argv[1:]))"


class TestWithoutScipy:
    def test_decision_and_simulation_need_only_numpy(self, workdir, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        dec = tmp_path / "decision.json"
        train = [
            "train-decision", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
            "--repository", str(workdir["prof"] / "repository.json"),
            "--encoder", str(workdir["prof"] / "encoder.json"), "--pools", str(workdir["pools"]), "--out", str(dec),
        ]

        def simulate(decision, out):
            return [
                "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
                "--baseline", "anole", "--repository", str(workdir["prof"] / "repository.json"),
                "--encoder", str(workdir["prof"] / "encoder.json"), "--decision", str(decision), "--out", str(out),
            ]

        for argv in (train, simulate(dec, tmp_path / "sub")):
            run = subprocess.run([sys.executable, "-c", NO_SCIPY, *argv], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
        assert cli.main(simulate(workdir["dec"], tmp_path / "own")) == 0
        assert dec.read_bytes() == workdir["dec"].read_bytes()
        for name in ("summary_anole_cap2.json", "frames_anole_cap2.csv"):
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "own" / name).read_bytes()


DEFAULT_INI = Path(__file__).resolve().parent.parent / "configs" / "default.ini"


def other_value(value):
    """INI text of a valid value of ``value``'s type that differs from it."""
    if isinstance(value, tuple):
        return ",".join(str(v + 1) for v in value)
    if isinstance(value, float):
        return repr(value / 2 if value else 0.125)
    return str(value + 1)


class TestDefaultsFile:
    def test_checked_in_defaults_match_builtins(self):
        assert cli.load_run_config(DEFAULT_INI) == cli.load_run_config(None)

    def test_checked_in_defaults_list_every_key_as_its_type(self):
        parser = configparser.ConfigParser()
        parser.read(DEFAULT_INI, encoding="utf-8")
        assert {name: list(parser[name]) for name in parser.sections()} == {
            name: list(keys) for name, keys in cli.DEFAULTS.items()
        }
        for name, keys in cli.DEFAULTS.items():
            for key, value in keys.items():
                text = parser[name][key]
                assert type(value) is (float if "." in text else tuple if "," in text else int), (name, key)

    @pytest.mark.parametrize("where, text", [("missing.ini", "config file not found: "), (".", "Is a directory: ")])
    def test_unreadable_config_path_named(self, tmp_path, capsys, where, text):
        path = tmp_path / where
        assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "data.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and text in err and str(path) in err

    @pytest.mark.parametrize("name, key", [(name, key) for name, keys in cli.DEFAULTS.items() for key in keys])
    def test_every_key_changes_the_run_config(self, tmp_path, name, key):
        # a key no field reads would be dead: setting it alone would change nothing
        ini = tmp_path / "one.ini"
        ini.write_text(f"[{name}]\n{key} = {other_value(cli.DEFAULTS[name][key])}\n")
        assert cli.load_run_config(ini) != cli.load_run_config(None)


def truncated_dataset(workdir, tmp_path):
    data = tmp_path / "data.jsonl"
    text = Path(workdir["data"]).read_text()
    data.write_text(text[: len(text) // 2])
    return ["profile", "--config", str(workdir["ini"]), "--dataset", str(data), "--out", str(tmp_path / "p")]


def truncated_dataset_for_train_decision(workdir, tmp_path):
    # train-decision reads four inputs; the error names the malformed one
    data = tmp_path / "half.jsonl"
    text = Path(workdir["data"]).read_text()
    data.write_text(text[: len(text) // 2])
    return [
        "train-decision", "--config", str(workdir["ini"]), "--dataset", str(data),
        "--repository", str(workdir["prof"] / "repository.json"),
        "--encoder", str(workdir["prof"] / "encoder.json"), "--pools", str(workdir["pools"]),
        "--out", str(tmp_path / "decision.json"),
    ]


def dataset_row_with(key, value):
    """Case builder: profile on a copy of the dataset, without its column
    file, whose line 6 holds ``key`` = ``value``."""

    def build(workdir, tmp_path):
        data = tmp_path / "data.jsonl"
        lines = Path(workdir["data"]).read_text().splitlines()
        lines[5] = json.dumps({**json.loads(lines[5]), key: value}, sort_keys=True)
        data.write_text("\n".join(lines) + "\n")
        return ["profile", "--config", str(workdir["ini"]), "--dataset", str(data), "--out", str(tmp_path / "p")]

    return build


def dataset_header_with(edit):
    """Case builder: profile on a copy of the dataset, without its column
    file, whose header has had ``edit`` applied."""

    def build(workdir, tmp_path):
        data = tmp_path / "data.jsonl"
        lines = Path(workdir["data"]).read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header, sort_keys=True)
        data.write_text("\n".join(lines) + "\n")
        return ["profile", "--config", str(workdir["ini"]), "--dataset", str(data), "--out", str(tmp_path / "p")]

    return build


def label_out_of_range(workdir, tmp_path):
    data = tmp_path / "data.jsonl"
    lines = Path(workdir["data"]).read_text().splitlines()
    lines[5] = lines[5].replace('"y": ', '"y": 9', 1)
    data.write_text("\n".join(lines) + "\n")
    return ["profile", "--config", str(workdir["ini"]), "--dataset", str(data), "--out", str(tmp_path / "p")]


def diverging_encoder(workdir, tmp_path):
    ini = tmp_path / "diverge.ini"
    ini.write_text(SMALL_INI.replace("encoder_lr = 0.2", "encoder_lr = 1e300"))
    return ["profile", "--config", str(ini), "--dataset", str(workdir["data"]), "--out", str(tmp_path / "p")]


def nan_learning_rate(workdir, tmp_path):
    ini = tmp_path / "nan.ini"
    ini.write_text(SMALL_INI.replace("encoder_lr = 0.2", "encoder_lr = nan"))
    return ["profile", "--config", str(ini), "--dataset", str(workdir["data"]), "--out", str(tmp_path / "p")]


def unreachable_delta(workdir, tmp_path):
    ini = tmp_path / "hard.ini"
    ini.write_text(SMALL_INI.replace("delta = 0.0", "delta = 1.0").replace("k_max = 8", "k_max = 4"))
    return ["profile", "--config", str(ini), "--dataset", str(workdir["data"]), "--out", str(tmp_path / "p")]


def pools_as_repository(workdir, tmp_path):
    return [
        "sample", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(workdir["pools"]), "--out", str(tmp_path / "p.json"),
    ]


def foreign_kind_pools(workdir, tmp_path):
    foreign = tmp_path / "calibration.json"
    write_artifact(foreign, {"kind": "calibration", "scale": 1.0})
    return [
        "train-decision", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(workdir["prof"] / "repository.json"),
        "--encoder", str(workdir["prof"] / "encoder.json"), "--pools", str(foreign),
        "--out", str(tmp_path / "d.json"),
    ]


def repository_without_dataset_hash(workdir, tmp_path):
    # re-stamped, so its own content hash still holds
    repo = tmp_path / "repository.json"
    body = read_artifact(workdir["prof"] / "repository.json", "repository")
    del body["dataset_hash"]
    write_artifact(repo, body)
    return [
        "sample", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(repo), "--out", str(tmp_path / "p.json"),
    ]


def encoder_from_another_build(workdir, tmp_path):
    # a valid encoder artifact, but not the file the repository was built against
    encoder = tmp_path / "encoder.json"
    body = read_artifact(workdir["prof"] / "encoder.json", "encoder")
    body["model"]["W1"][0] += 1.0
    write_artifact(encoder, body)
    return [
        "train-decision", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(workdir["prof"] / "repository.json"), "--encoder", str(encoder),
        "--pools", str(workdir["pools"]), "--out", str(tmp_path / "d.json"),
    ]


def truncated_repository(workdir, tmp_path):
    repo = tmp_path / "repository.json"
    text = (workdir["prof"] / "repository.json").read_text()
    repo.write_text(text[: len(text) // 2])
    return [
        "sample", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(repo), "--out", str(tmp_path / "p.json"),
    ]


def malformed(kind, change):
    """Case builder: the workdir's ``kind`` artifact, re-stamped after
    ``change(body)`` so that its own content hash still holds, read by
    train-decision, or by simulate for a decision artifact."""

    def build(workdir, tmp_path):
        paths = {"encoder": workdir["prof"] / "encoder.json", "repository": workdir["prof"] / "repository.json",
                 "pools": workdir["pools"], "decision": workdir["dec"]}
        body = read_artifact(paths[kind], kind)
        change(body)
        paths[kind] = tmp_path / f"{kind}.json"
        write_artifact(paths[kind], body)
        if kind == "encoder":  # the repository records the encoder's file hash
            repo = read_artifact(paths["repository"], "repository")
            repo["encoder_hash"] = sha(paths["encoder"])
            paths["repository"] = tmp_path / "repository.json"
            write_artifact(paths["repository"], repo)
        inputs = ["--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
                  "--repository", str(paths["repository"]), "--encoder", str(paths["encoder"])]
        if kind == "decision":
            return ["simulate", *inputs, "--decision", str(paths["decision"]), "--out", str(tmp_path / "x")]
        return ["train-decision", *inputs, "--pools", str(paths["pools"]), "--out", str(tmp_path / "d.json")]

    return build


def one_hidden_unit_dim_true(body):
    """Cut the encoder to its first hidden unit and record that dim as ``true``."""
    model = body["model"]
    i, h = model["input_dim"], model["hidden_dim"]
    model.update(hidden_dim=True, W1=model["W1"][:i], b1=model["b1"][:1], W2=model["W2"][::h])


def row_0_repeated_at_row_2(body):
    """Give row 2 row 0's sample index, a training frame that sampling probed."""
    body["rows"][2]["sample_index"] = body["rows"][0]["sample_index"]


def anole_without_artifacts(workdir, tmp_path):
    return [
        "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--baseline", "anole", "--out", str(tmp_path / "x"),
    ]


def generate_with(old, new):
    """Case builder: generate under SMALL_INI with ``old`` replaced by ``new``."""

    def build(workdir, tmp_path):
        ini = tmp_path / "generate.ini"
        ini.write_text(SMALL_INI.replace(old, new))
        return ["generate", "--config", str(ini), "--out", str(tmp_path / "data.jsonl")]

    return build


def simulate_anole_with(old, new):
    """Case builder: simulate anole under SMALL_INI with ``old`` replaced by ``new``."""

    def build(workdir, tmp_path):
        ini = tmp_path / "simulate.ini"
        ini.write_text(SMALL_INI.replace(old, new))
        return [
            "simulate", "--config", str(ini), "--dataset", str(workdir["data"]),
            "--baseline", "anole", "--repository", str(workdir["prof"] / "repository.json"),
            "--encoder", str(workdir["prof"] / "encoder.json"), "--decision", str(workdir["dec"]),
            "--out", str(tmp_path / "x"),
        ]

    return build


def not_utf8_dataset(workdir, tmp_path):
    data = tmp_path / "data.jsonl"
    data.write_bytes(b"\xff\xfe" + Path(workdir["data"]).read_bytes())
    return ["profile", "--config", str(workdir["ini"]), "--dataset", str(data), "--out", str(tmp_path / "p")]


def not_utf8_repository(workdir, tmp_path):
    repo = tmp_path / "repository.json"
    repo.write_bytes(b"\xff\xfe" + (workdir["prof"] / "repository.json").read_bytes())
    return [
        "sample", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(repo), "--out", str(tmp_path / "p.json"),
    ]


def not_utf8_config(workdir, tmp_path):
    ini = tmp_path / "generate.ini"
    ini.write_bytes(SMALL_INI.replace("seed = 42", "seed = 4\xff2").encode("latin-1"))
    return ["generate", "--config", str(ini), "--out", str(tmp_path / "data.jsonl")]


def pools_without_rows(workdir, tmp_path):
    # sample --kappa 0 probes no rows and exits 0
    pools = tmp_path / "pools.json"
    assert cli.main([
        "sample", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(workdir["prof"] / "repository.json"), "--kappa", "0", "--out", str(pools),
    ]) == 0
    return [
        "train-decision", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(workdir["prof"] / "repository.json"),
        "--encoder", str(workdir["prof"] / "encoder.json"), "--pools", str(pools),
        "--out", str(tmp_path / "decision.json"),
    ]


def zero_capacity(workdir, tmp_path):
    return [
        "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--baseline", "sdm", "--capacity", "0", "--out", str(tmp_path / "x"),
    ]


def profile_with(old, new):
    """Case builder: profile under SMALL_INI with ``old`` replaced by ``new``."""

    def build(workdir, tmp_path):
        ini = tmp_path / "profile.ini"
        ini.write_text(SMALL_INI.replace(old, new))
        return ["profile", "--config", str(ini), "--dataset", str(workdir["data"]), "--out", str(tmp_path / "p")]

    return build


def negative_seed_flag(workdir, tmp_path):
    return ["generate", "--config", str(workdir["ini"]), "--seed", "-1", "--out", str(tmp_path / "data.jsonl")]


def negative_trace_seed_flag(workdir, tmp_path):
    return [
        "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--baseline", "sdm", "--trace-seed", "-1", "--out", str(tmp_path / "x"),
    ]


def write_summaries(tmp_path, *changes):
    """One ssm summary artifact per dict of ``changes`` to a fixed body; their paths."""
    paths = []
    for i, change in enumerate(changes):
        body = {"kind": "summary", "method": "ssm", "capacity": 1, "trace_seed": 7,
                "dataset_hash": "d" * 64, "miss_rate": 0.5, "mean_window_f1": 0.9, **change}
        paths.append(str(tmp_path / f"summary_{i}.json"))
        write_artifact(paths[-1], body)
    return paths


def report_of_nan_summary(workdir, tmp_path):
    # write_artifact writes a NaN as the bare token NaN, which json and its hash check read back
    paths = write_summaries(tmp_path, {"mean_window_f1": float("nan")})
    return ["report", *paths, "--out", str(tmp_path / "report.json")]


def repository_with_a_number_past_float_range(workdir, tmp_path):
    # json reads 1e400 as infinity, which its hash check writes back as Infinity
    repo = tmp_path / "repository.json"
    body = read_artifact(workdir["prof"] / "repository.json", "repository")
    body["models"][1]["validation_f1"] = float("inf")
    write_artifact(repo, body)
    repo.write_text(repo.read_text().replace("Infinity", "1e400"))
    return [
        "sample", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(repo), "--out", str(tmp_path / "p.json"),
    ]


def report_of_summary_without(key):
    """Case builder: report on two ssm summaries of a sweep, the first lacking ``key``."""

    def build(workdir, tmp_path):
        paths = write_summaries(tmp_path, {}, {"capacity": 2})
        body = read_artifact(paths[0], "summary")
        body.pop(key)
        write_artifact(paths[0], body)
        return ["report", *paths]

    return build


class TestReport:
    def test_trace_seeds_may_differ(self, tmp_path, capsys):
        # three runs at one capacity, and a sweep whose capacities each come from another trace
        paths = write_summaries(
            tmp_path, {}, {"trace_seed": 8}, {"trace_seed": 9},
            {"method": "dmm"}, {"method": "dmm", "capacity": 2, "trace_seed": 8},
        )
        assert cli.main(["report", *paths, "--out", str(tmp_path / "report.json")]) == 0
        report = read_artifact(tmp_path / "report.json", "report")
        assert report["methods"]["ssm"]["runs"] == 3 and "ssm" not in report["sweeps"]
        assert report["sweeps"]["dmm"]["capacities"] == [1, 2]

    def test_summaries_of_two_datasets_refused(self, tmp_path, capsys):
        paths = write_summaries(tmp_path, {}, {"method": "dmm"}, {"dataset_hash": "e" * 64})
        assert cli.main(["report", *paths]) == 1
        assert capsys.readouterr().err == f"error: summaries of different datasets: {paths[0]} and {paths[2]}\n"

    def test_sweep_repeating_a_capacity_refused(self, tmp_path, capsys):
        # a sweep per trace seed: sorted by capacity, the two traces' miss rates would interleave
        paths = write_summaries(
            tmp_path, {}, {"capacity": 2}, {"trace_seed": 8}, {"capacity": 2, "trace_seed": 8},
        )
        assert cli.main(["report", *paths]) == 1
        assert capsys.readouterr().err == (
            f"error: ssm's capacity sweep repeats a capacity: {paths[0]} and {paths[2]}\n"
        )


# (argv builder, error class raised by the command, text the message must hold)
FAILURES = {
    "truncated dataset": (truncated_dataset, ParseError, "invalid JSON"),
    "truncated dataset for train-decision": (
        truncated_dataset_for_train_decision, ParseError, "half.jsonl: invalid JSON"
    ),
    "truncated artifact": (truncated_repository, ParseError, "repository.json"),
    "label out of range": (label_out_of_range, SchemaError, "out of range"),
    "dataset frame past int64": (
        dataset_row_with("frame", 9 * 10**30), ParseError,
        "data.jsonl: malformed sample: frame 9000000000000000000000000000000 is past int64 range",
    ),
    "dataset clip past int64": (
        dataset_row_with("clip", -1234567890123456789012345), ParseError,
        "data.jsonl: malformed sample: clip -1234567890123456789012345 is past int64 range",
    ),
    "dataset ranges not an object": (
        dataset_header_with(lambda h: h["splits"].update(ranges=[])), ParseError,
        "data.jsonl: malformed header: 'list' object has no attribute 'items'",
    ),
    "dataset num_classes past numpy's array size": (
        dataset_header_with(lambda h: h["schema"].update(num_classes=10**30)), ConfigError,
        "feature_dim and num_classes must be at most 1152921504606846975, the most floats a numpy array holds",
    ),
    "dataset feature_dim past numpy's array size": (
        dataset_header_with(lambda h: h["schema"].update(feature_dim=2**63 - 1)), ConfigError,
        "feature_dim and num_classes must be at most 1152921504606846975, the most floats a numpy array holds",
    ),
    "diverging training": (diverging_encoder, DivergedError, "training diverged"),
    "insufficient models": (unreachable_delta, InsufficientModelsError, "accepted only"),
    "pools passed as repository": (pools_as_repository, ArtifactMismatchError, "found 'pools'"),
    "foreign-kind artifact": (foreign_kind_pools, ArtifactMismatchError, "found 'calibration'"),
    "artifact without upstream hash": (
        repository_without_dataset_hash, ArtifactMismatchError, "repository.json: artifact records no dataset_hash"
    ),
    "encoder from another build": (
        encoder_from_another_build, ArtifactMismatchError, "repository.json: encoder hash mismatch"
    ),
    "repository models not a list": (
        malformed("repository", lambda b: b.update(models={})), ArtifactMismatchError,
        "repository.json: models must be a list of records",
    ),
    "repository model without scenes": (
        malformed("repository", lambda b: b["models"][0].update(member_scene_ids=[])), ArtifactMismatchError,
        "repository.json: models[0]: member_scene_ids must be a non-empty list",
    ),
    "repository model without source": (
        malformed("repository", lambda b: b["models"][1].pop("source")), ArtifactMismatchError,
        "repository.json: models[1]: source must be a [k, cluster_id] pair",
    ),
    "repository model without validation_f1": (
        malformed("repository", lambda b: b["models"][2].pop("validation_f1")), ArtifactMismatchError,
        "repository.json: models[2]: validation_f1 must be a number",
    ),
    "encoder without model": (
        malformed("encoder", lambda b: b.pop("model")), ArtifactMismatchError,
        "encoder.json: a model must be a JSON object, got NoneType",
    ),
    "decision without head": (
        malformed("decision", lambda b: b.pop("head")), ArtifactMismatchError,
        "decision.json: a model must be a JSON object, got NoneType",
    ),
    "pools row with short bits": (
        malformed("pools", lambda b: b["rows"][0]["bits"].pop()), ArtifactMismatchError,
        "pools.json: rows[0]: bits must be 3 values, each 0 or 1",
    ),
    "pools row with a bit other than 0 or 1": (
        malformed("pools", lambda b: b["rows"][2].update(bits=[1, 2, 0])), ArtifactMismatchError,
        "pools.json: rows[2]: bits must be 3 values, each 0 or 1",
    ),
    "pools rows not a list": (
        malformed("pools", lambda b: b.update(rows={})), ArtifactMismatchError, "pools.json: rows must be a list",
    ),
    "pools without rows": (pools_without_rows, ConfigError, "pools.json: the pools file holds no probed rows"),
    "pools row outside the dataset": (
        malformed("pools", lambda b: b["rows"][1].update(sample_index=10**6)), ArtifactMismatchError,
        "pools.json: rows[1]: sample_index must be a row of the repository's training scenes",
    ),
    "pools row at a test frame": (
        # the dataset's last sample (4 cells x 2 clips x 60 frames), which no
        # repository model trains on, so sampling never probes it
        malformed("pools", lambda b: b["rows"][1].update(sample_index=479)), ArtifactMismatchError,
        "pools.json: rows[1]: sample_index must be a row of the repository's training scenes",
    ),
    "pools rows repeating a sample_index": (
        malformed("pools", row_0_repeated_at_row_2), ArtifactMismatchError,
        "pools.json: rows[2]: sample_index 438 repeats rows[0]",
    ),
    "missing anole artifacts": (anole_without_artifacts, ConfigError, "needs --repository"),
    "nan learning rate": (nan_learning_rate, ConfigError, "learning_rate must be finite"),
    "zero window": (simulate_anole_with("window = 10", "window = 0"), ConfigError, "window must be >= 1"),
    "nan low confidence": (
        simulate_anole_with("low_confidence = 0.2", "low_confidence = nan"), ConfigError,
        "low_confidence must be in [0, 1]",
    ),
    "low confidence above one": (
        simulate_anole_with("low_confidence = 0.2", "low_confidence = 1.5"), ConfigError,
        "low_confidence must be in [0, 1]",
    ),
    "nan drift strength": (
        generate_with("drift_strength = 0.1", "drift_strength = nan"), ConfigError,
        "drift_strength must be finite",
    ),
    "nan cluster spread": (
        generate_with("cluster_spread = 0.2", "cluster_spread = nan"), ConfigError,
        "cluster_spread must be finite",
    ),
    "infinite cluster spread": (
        generate_with("cluster_spread = 0.2", "cluster_spread = inf"), ConfigError,
        "cluster_spread must be finite",
    ),
    "non-UTF-8 dataset": (not_utf8_dataset, ParseError, "data.jsonl: not UTF-8 text"),
    "non-UTF-8 artifact": (not_utf8_repository, ParseError, "repository.json: not UTF-8 text"),
    "zero capacity": (zero_capacity, ConfigError, "capacity must be >= 1"),
    "unknown config key": (
        generate_with("kappa = 150", "kapa = 150"), ConfigError, "generate.ini: unknown key 'kapa' in [sampling]"
    ),
    "unknown config section": (
        generate_with("[runtime]", "[nosuch]\n\n[runtime]"), ConfigError, "generate.ini: unknown section [nosuch]"
    ),
    "unparsable config value": (
        generate_with("seed = 42", "seed = abc"), ConfigError, "generate.ini: [dataset] seed = 'abc' does not parse"
    ),
    "negative seed flag": (negative_seed_flag, ConfigError, "--seed must be >= 0, got -1"),
    "negative trace seed flag": (negative_trace_seed_flag, ConfigError, "--trace-seed must be >= 0, got -1"),
    "negative config seed": (
        profile_with("seed = 7", "seed = -3"), ConfigError, "profile.ini: [profiling] seed must be >= 0, got -3"
    ),
    "percent sign in config value": (
        generate_with("seed = 42", "seed = 5%"), ConfigError, "generate.ini: [dataset] seed = '5%' does not parse"
    ),
    "config without section header": (
        generate_with("[dataset]\n", ""), ConfigError,
        "generate.ini', line: 2 'feature_dim = 6\\n'",
    ),
    "duplicate config section": (
        generate_with("[runtime]", "[trace]\n\n[runtime]"), ConfigError,
        "generate.ini' [line 52]: section 'trace' already exists",
    ),
    "duplicate config key": (
        generate_with("kappa = 150", "kappa = 150\nkappa = 160"), ConfigError,
        "generate.ini' [line 35]: option 'kappa' in section 'sampling' already exists",
    ),
    "config line without a value": (
        generate_with("kappa = 150", "kappa"), ConfigError, "generate.ini' [line 34]: 'kappa\\n'",
    ),
    "DEFAULT config section": (
        generate_with("[runtime]", "[DEFAULT]\nseed = 1\n\n[runtime]"), ConfigError,
        "generate.ini: unknown section [DEFAULT]",
    ),
    "non-UTF-8 config": (not_utf8_config, ParseError, "generate.ini: not UTF-8 text"),
    "summary without method": (
        report_of_summary_without("method"), ArtifactMismatchError, "summary_0.json: method must be a string"
    ),
    "summary without capacity": (
        report_of_summary_without("capacity"), ArtifactMismatchError, "summary_0.json: capacity must be an integer"
    ),
    "summary without mean_window_f1": (
        report_of_summary_without("mean_window_f1"), ArtifactMismatchError,
        "summary_0.json: mean_window_f1 must be a number",
    ),
    "summary without miss_rate": (
        report_of_summary_without("miss_rate"), ArtifactMismatchError, "summary_0.json: miss_rate must be a number"
    ),
    "pools row with a boolean sample_index": (
        malformed("pools", lambda b: b["rows"][1].update(sample_index=True)), ArtifactMismatchError,
        "pools.json: rows[1]: sample_index must be a row of the repository's training scenes",
    ),
    "pools row with a float sample_index": (
        malformed("pools", lambda b: b["rows"][1].update(sample_index=1.0)), ArtifactMismatchError,
        "pools.json: rows[1]: sample_index must be a row of the repository's training scenes",
    ),
    "pools row with boolean bits": (
        malformed("pools", lambda b: b["rows"][0].update(bits=[True, False, True])), ArtifactMismatchError,
        "pools.json: rows[0]: bits must be 3 values, each 0 or 1",
    ),
    "pools row with a float bit": (
        malformed("pools", lambda b: b["rows"][0].update(bits=[0.0, 1, 1])), ArtifactMismatchError,
        "pools.json: rows[0]: bits must be 3 values, each 0 or 1",
    ),
    "repository model with a boolean scene id": (
        malformed("repository", lambda b: b["models"][0].update(member_scene_ids=[True])), ArtifactMismatchError,
        "repository.json: models[0]: member_scene_ids must be a non-empty list",
    ),
    "repository model with a boolean source": (
        malformed("repository", lambda b: b["models"][1].update(source=[True, 0])), ArtifactMismatchError,
        "repository.json: models[1]: source must be a [k, cluster_id] pair",
    ),
    "encoder with a boolean weight": (
        malformed("encoder", lambda b: b["model"]["W1"].__setitem__(0, True)), ArtifactMismatchError,
        "encoder.json: model parameters must be lists of numbers, and W1 is not",
    ),
    "repository model with a string bias": (
        malformed("repository", lambda b: b["models"][1]["model"]["b1"].__setitem__(2, "0.5")),
        ArtifactMismatchError, "repository.json: model parameters must be lists of numbers, and b1 is not",
    ),
    "decision head with a boolean bias": (
        malformed("decision", lambda b: b["head"]["b2"].__setitem__(0, False)), ArtifactMismatchError,
        "decision.json: model parameters must be lists of numbers, and b2 is not",
    ),
    "repository model with an integer past float range": (
        malformed("repository", lambda b: b["models"][0]["model"]["b2"].__setitem__(0, 10**400)),
        ArtifactMismatchError, "repository.json: b2 holds an integer past float range",
    ),
    "decision head with an integer past float range": (
        malformed("decision", lambda b: b["head"]["W1"].__setitem__(3, -(10**400))), ArtifactMismatchError,
        "decision.json: W1 holds an integer past float range",
    ),
    "summary with a NaN": (
        report_of_nan_summary, ArtifactMismatchError, "summary_0.json: artifact holds a non-finite number",
    ),
    "repository with a number past float range": (
        repository_with_a_number_past_float_range, ArtifactMismatchError,
        "repository.json: artifact holds a non-finite number",
    ),
    "encoder with a boolean dim": (
        malformed("encoder", one_hidden_unit_dim_true), ArtifactMismatchError,
        "encoder.json: model dims must be positive integers, got",
    ),
}


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_non_utf8_config_names_its_line(tmp_path, capsys, end):
    # line 12 of SMALL_INI, which starts with a blank line, is the dataset's seed
    ini = tmp_path / "generate.ini"
    ini.write_bytes(SMALL_INI.replace("seed = 42", "seed = 4\xff2").replace("\n", end).encode("latin-1"))
    assert cli.main(["generate", "--config", str(ini), "--out", str(tmp_path / "data.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: line 12: {ini}: not UTF-8 text (invalid start byte)\n"


class TestFailureMatrix:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging case overflows
    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_exit_code_and_one_line_message(self, case, workdir, tmp_path, capsys):
        build, error, text = FAILURES[case]
        argv = build(workdir, tmp_path)
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(error):
            args.func(args)
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert err.startswith("error: ") and text in err
        if argv[0] in ("generate", "simulate"):
            # settings are checked before the dataset is read or --out is made
            assert not Path(argv[argv.index("--out") + 1]).exists()

    def test_allocation_past_memory_is_one_line_message(self, workdir, tmp_path, capsys, monkeypatch):
        # num_classes 10**12 passes every size check, and its classifier asks
        # numpy for 58.2 TiB; the stub fails that allocation as numpy does,
        # before it starts, since an overcommitting kernel may grant it
        argv = dataset_header_with(lambda h: h["schema"].update(num_classes=10**12))(workdir, tmp_path)
        new_classifier = learners.new_classifier

        def refuse_past_memory(input_dim, hidden_dim, output_dim, seed):
            if output_dim >= 10**12:
                raise MemoryError("Unable to allocate 58.2 TiB")
            return new_classifier(input_dim, hidden_dim, output_dim, seed)

        monkeypatch.setattr(learners, "new_classifier", refuse_past_memory)
        with cpus_usable(1):
            assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 58.2 TiB\n"

    def test_every_error_class_is_covered(self):
        assert {error for _, error, _ in FAILURES.values()} == set(Error.__subclasses__())


# ---------------------------------------------------------------------------
# The whole chain over small configs around bench/tiny.ini, at 1 and 2 CPUs.

TINY_INI = Path(__file__).resolve().parent.parent / "bench" / "tiny.ini"



@st.composite
def chain_settings(draw):
    """{(section, key): value} changes to bench/tiny.ini. Most chains run
    through; some stop at a repository that cannot fill, empty pools or a
    trace longer than a clip's test frames."""
    frames = draw(st.integers(20, 80))
    return {
        ("dataset", "clips_per_cell"): draw(st.integers(1, 3)),
        ("dataset", "frames_per_clip"): frames,
        ("profiling", "n"): draw(st.integers(1, 4)),
        ("profiling", "k_max"): draw(st.integers(2, 6)),
        ("profiling", "delta"): draw(st.sampled_from([0.0, 0.0, 0.3])),
        ("sampling", "theta"): draw(st.sampled_from([0.05, 0.3, 0.9])),
        ("sampling", "kappa"): draw(st.integers(0, 400)),
        ("trace", "num_source_clips"): draw(st.integers(1, 5)),
        ("trace", "segment_len"): draw(st.integers(1, frames * 2 // 10 + 1)),
        ("trace", "num_segments"): draw(st.integers(1, 5)),
    }


def run_chain(root, changes):
    """Run generate, profile, sample, train-decision and simulate on the
    tiny config with ``changes`` in ``root`` until a command fails; the
    (command, exit code, stdout, stderr) of each, with ``root`` cut out."""
    parser = configparser.ConfigParser()
    parser.read(TINY_INI)
    for (section, key), value in changes.items():
        parser[section][key] = str(value)
    with open(root / "tiny.ini", "w") as fh:
        parser.write(fh)
    ini, data, pools, dec = (str(root / name) for name in ("tiny.ini", "data.jsonl", "pools.json", "decision.json"))
    common = ["--config", ini, "--dataset", data]
    repository = ["--repository", str(root / "prof" / "repository.json")]
    encoder = ["--encoder", str(root / "prof" / "encoder.json")]
    commands = [
        ["generate", "--config", ini, "--out", data],
        ["profile", *common, "--out", str(root / "prof")],
        ["sample", *common, *repository, "--out", pools],
        ["train-decision", *common, *repository, *encoder, "--pools", pools, "--out", dec],
        ["simulate", *common, *repository, *encoder, "--decision", dec, "--out", str(root / "sim")],
    ]
    runs = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code
        runs.append((argv[0], code, *(s.getvalue().replace(str(root), "<root>") for s in (out, err))))
        if code != 0:
            break
    return runs


def artifact_tree(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def check_artifacts(root, theta, kappa):
    """Reload every artifact the chain wrote in ``root`` through its loader,
    with the hashes it was built against; check the pools' rows."""
    data, prof = root / "data.jsonl", root / "prof"
    if not data.exists():
        return
    ds, data_hash = load_dataset(data), sha(data)
    if not (prof / "repository.json").exists():
        return
    encoder, _ = profiling.load_encoder(prof / "encoder.json", data_hash)
    repo, body = profiling.load_repository(prof / "repository.json", ds, data_hash)
    assert body["encoder_hash"] == sha(prof / "encoder.json")
    pools = root / "pools.json"
    if not pools.exists():
        return
    repo_hash = sha(prof / "repository.json")
    rows = read_artifact(pools, "pools", dataset=data_hash, repository=repo_hash)["rows"]
    gammas = [e.scene.train_indices for e in repo.entries]
    union = set(np.concatenate(gammas).tolist())
    indices = [r["sample_index"] for r in rows]
    assert len(set(indices)) == len(indices) and set(indices) <= union
    if all(well_sampled_threshold(len(g), theta) >= len(g) - 1 for g in gammas):  # no arm can freeze
        assert len(indices) == min(kappa, len(union))
    if rows:
        loaded, bits = sampling.load_pools(pools, data_hash, repo_hash, repo)
        assert loaded.tolist() == indices and bits.shape == (len(rows), len(repo))
    if (root / "decision.json").exists():
        decision.load_decision(root / "decision.json", encoder, sha(prof / "encoder.json"), repo_hash)
    for path in sorted((root / "sim").glob("summary_*.json")):
        summary = read_artifact(path, "summary")
        assert summary["dataset_hash"] == data_hash
        assert 0.0 <= summary["miss_rate"] <= 1.0 and 0.0 <= summary["mean_window_f1"] <= 1.0


@settings(max_examples=10, deadline=None)
@given(changes=chain_settings())
def test_chain_over_small_configs(changes):
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        # chunks of 32 lines, so that these small datasets span several
        mp.setattr(dataset, "_CHUNK_LINES", 32)
        for cpus in (1, 2):
            with tempfile.TemporaryDirectory() as tmp, cpus_usable(cpus):
                root = Path(tmp)
                runs = run_chain(root, changes)
                for command, code, _, err in runs:
                    if code == 0:
                        assert err == "", command
                    else:
                        assert code in (1, 2) and err.count("error:") == 1 and "Traceback" not in err, (command, err)
                check_artifacts(root, changes[("sampling", "theta")], changes[("sampling", "kappa")])
                results[cpus] = runs, artifact_tree(root)
    assert results[1] == results[2]
    assert no_child_left()
