import numpy as np
import pytest

from sceneselect import artifacts, decision, learners, profiling
from sceneselect.artifacts import canonical_dumps, read_artifact, sha256_text, write_artifact
from sceneselect.errors import ArtifactMismatchError


def test_written_bytes_are_canonical_json(tmp_path):
    path = tmp_path / "a.json"
    digest = write_artifact(path, {"kind": "report", "x": [1, 2.5]})
    body = read_artifact(path, "report")
    assert body["content_hash"] == digest
    assert path.read_text(encoding="utf-8") == canonical_dumps(body) + "\n"


@pytest.mark.parametrize("version", [True, 1.0])
def test_non_integer_format_version_refused(tmp_path, version):
    # json reads true as True == 1 and 1.0 == 1; neither is the format's integer
    path = tmp_path / "a.json"
    body = {"kind": "report", "format_version": version}
    body["content_hash"] = sha256_text(canonical_dumps(body))
    path.write_text(canonical_dumps(body) + "\n", encoding="utf-8")
    with pytest.raises(ArtifactMismatchError, match=f"a.json: unsupported format_version {version!r}"):
        read_artifact(path, "report")


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    write_artifact(path, {"kind": "report", "x": 1})
    before = path.read_bytes()

    def half_then_fail(self, text, encoding=None):
        with open(self, "w", encoding=encoding) as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(artifacts.Path, "write_text", half_then_fail)
    with pytest.raises(OSError):
        write_artifact(path, {"kind": "report", "x": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


def saved_artifacts(folder, ds):
    """An encoder, repository and decision artifact saved under ``folder``, each
    naming "dhash" as its dataset, "ehash" as its encoder and "rhash" as its
    repository; returns a loader per kind that takes the upstream hashes."""
    d, c = ds.schema.feature_dim, ds.schema.num_classes
    enc = learners.new_classifier(d, 6, 4, seed=3)
    profiling.save_encoder(folder / "encoder.json", enc, 4, "dhash")
    train = learners.TrainConfig(0.1, 1, 8)
    cfg = profiling.ProfilingConfig(1, 0.5, 2, 2, 6, 4, train, train, seed=0)
    none = np.zeros(0, dtype=int)
    entry = profiling.RepositoryEntry(
        learners.new_classifier(d, 4, c, seed=1), (2, 0), profiling.ClusterScene((0,), none, none), 0.9
    )
    profiling.save_repository(folder / "repository.json", profiling.ModelRepository([entry]), cfg, "dhash", "ehash")
    head = learners.new_classifier(6, 8, 1, seed=2)
    decision.save_decision(folder / "decision.json", decision.DecisionModel(enc, head), "ehash", "rhash")
    return {
        "encoder": (lambda *h: profiling.load_encoder(folder / "encoder.json", *h), ["dhash"]),
        "repository": (lambda *h: profiling.load_repository(folder / "repository.json", ds, *h), ["dhash"]),
        "decision": (lambda *h: decision.load_decision(folder / "decision.json", enc, *h), ["ehash", "rhash"]),
    }


@pytest.mark.parametrize("kind", ["encoder", "repository", "decision"])
def test_loaders_refuse_a_missing_or_wrong_upstream_hash(tmp_path, small_ds, kind):
    load, hashes = saved_artifacts(tmp_path, small_ds)[kind]
    assert load(*hashes)[1]["kind"] == kind
    for given in range(len(hashes)):
        with pytest.raises(TypeError):
            load(*hashes[:given])
    for i in range(len(hashes)):
        with pytest.raises(ArtifactMismatchError):
            load(*hashes[:i], "WRONG", *hashes[i + 1 :])


@pytest.mark.parametrize("recorded", ["absent", None, 7])
def test_read_artifact_refuses_a_missing_or_non_string_upstream_hash(tmp_path, recorded):
    path = tmp_path / "pools.json"
    payload = {"kind": "pools", "repository_hash": "rhash"}
    if recorded != "absent":
        payload["dataset_hash"] = recorded
    write_artifact(path, payload)
    assert read_artifact(path, "pools", repository="rhash")["repository_hash"] == "rhash"
    with pytest.raises(ArtifactMismatchError, match="no dataset_hash"):
        read_artifact(path, "pools", dataset="dhash", repository="rhash")
