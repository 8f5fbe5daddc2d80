import hashlib
import json
from pathlib import Path

import pytest

from sceneselect import cli
from sceneselect.artifacts import read_artifact, write_artifact
from sceneselect.errors import (
    ArtifactMismatchError,
    ConfigError,
    DivergedError,
    Error,
    InsufficientModelsError,
    ParseError,
    SchemaError,
)

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
        assert body["kappa"] == 150
        assert body["repository_hash"] == sha(workdir["prof"] / "repository.json")
        assert len(body["arms"]) == 3

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

    def test_bad_sweep_argument(self, workdir, tmp_path):
        code = cli.main([
            "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
            "--baseline", "ssm", "--capacity-sweep", "5..1", "--out", str(tmp_path / "x"),
        ])
        assert code == 1


class TestDefaultsFile:
    def test_checked_in_defaults_match_builtins(self):
        here = Path(__file__).resolve().parent.parent
        assert cli.load_run_config(here / "configs" / "default.ini") == cli.load_run_config(None)


def truncated_dataset(workdir, tmp_path):
    data = tmp_path / "data.jsonl"
    text = Path(workdir["data"]).read_text()
    data.write_text(text[: len(text) // 2])
    return ["profile", "--config", str(workdir["ini"]), "--dataset", str(data), "--out", str(tmp_path / "p")]


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


def truncated_repository(workdir, tmp_path):
    repo = tmp_path / "repository.json"
    text = (workdir["prof"] / "repository.json").read_text()
    repo.write_text(text[: len(text) // 2])
    return [
        "sample", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--repository", str(repo), "--out", str(tmp_path / "p.json"),
    ]


def anole_without_artifacts(workdir, tmp_path):
    return [
        "simulate", "--config", str(workdir["ini"]), "--dataset", str(workdir["data"]),
        "--baseline", "anole", "--out", str(tmp_path / "x"),
    ]


def zero_window(workdir, tmp_path):
    ini = tmp_path / "zero_window.ini"
    ini.write_text(SMALL_INI.replace("window = 10", "window = 0"))
    return [
        "simulate", "--config", str(ini), "--dataset", str(workdir["data"]),
        "--baseline", "anole", "--repository", str(workdir["prof"] / "repository.json"),
        "--encoder", str(workdir["prof"] / "encoder.json"), "--decision", str(workdir["dec"]),
        "--out", str(tmp_path / "x"),
    ]


# (argv builder, error class raised by the command, text the message must hold)
FAILURES = {
    "truncated dataset": (truncated_dataset, ParseError, "invalid JSON"),
    "truncated artifact": (truncated_repository, ParseError, "repository.json"),
    "label out of range": (label_out_of_range, SchemaError, "out of range"),
    "diverging training": (diverging_encoder, DivergedError, "training diverged"),
    "insufficient models": (unreachable_delta, InsufficientModelsError, "accepted only"),
    "pools passed as repository": (pools_as_repository, ArtifactMismatchError, "found 'pools'"),
    "foreign-kind artifact": (foreign_kind_pools, ArtifactMismatchError, "found 'calibration'"),
    "missing anole artifacts": (anole_without_artifacts, ConfigError, "needs --repository"),
    "zero window": (zero_window, ConfigError, "window must be >= 1"),
}


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

    def test_every_error_class_is_covered(self):
        assert {error for _, error, _ in FAILURES.values()} == set(Error.__subclasses__())
