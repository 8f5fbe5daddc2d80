import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneselect import artifacts, decision, learners, profiling
from sceneselect.artifacts import canonical_dumps, not_utf8, read_artifact, sha256_file, sha256_text, write_artifact
from sceneselect.errors import ArtifactMismatchError


def test_written_bytes_are_canonical_json(tmp_path):
    path = tmp_path / "a.json"
    digest = write_artifact(path, {"kind": "report", "x": [1, 2.5]})
    body = read_artifact(path, "report")
    assert body["content_hash"] == digest
    assert path.read_text(encoding="utf-8") == canonical_dumps(body) + "\n"


@pytest.mark.parametrize("payload", [
    {"kind": "report", "nested": {"b": [1, {"z": None, "a": [True, False]}], "a": {}}, "list": [[], [[0.5]]]},
    {"kind": "report", "name": "scène été ☃ \"quoted\" \\ \n tab\t", "ékey": "ü", "Zed": 1},
    {"kind": "report", "x": [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-07, 3.0, -2]},
    {"kind": "report", "content_hash": "stale", "format_version": 7, "a_key": "", "zz": 2**70},
])
def test_written_bytes_are_one_canonical_dump(tmp_path, payload):
    # each value is encoded once and the pieces joined: the same bytes as
    # encoding the stamped body whole
    path = tmp_path / "a.json"
    digest = write_artifact(path, payload)
    body = {k: v for k, v in payload.items() if k != "content_hash"}
    body["format_version"] = artifacts.FORMAT_VERSION
    assert digest == sha256_text(canonical_dumps(body))
    body["content_hash"] = digest
    assert path.read_bytes() == (canonical_dumps(body) + "\n").encode("utf-8")


def one_dump(obj, allow_nan):
    """The text of one ``json.dumps`` call, or the ValueError it raises."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=allow_nan)
    except ValueError as exc:
        return f"ValueError: {exc}"


def chunked_dump(obj, allow_nan):
    try:
        return canonical_dumps(obj, allow_nan=allow_nan)
    except ValueError as exc:
        return f"ValueError: {exc}"


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
# lists around the chunk size, of scalars or of small nested values, inside objects and lists
LONG_LISTS = st.lists(
    JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2) | st.dictionaries(st.text(max_size=2), JSON_SCALARS, max_size=2),
    min_size=250, max_size=520,
)
BODIES = st.recursive(
    JSON_VALUES | LONG_LISTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=25, deadline=None)
@given(body=BODIES, allow_nan=st.booleans())
def test_chunked_encoding_is_one_json_dumps(body, allow_nan):
    # floats() draws NaN and infinities, which allow_nan=False refuses
    assert chunked_dump(body, allow_nan) == one_dump(body, allow_nan)


@pytest.mark.parametrize("size", [256, 257, 512, 513, 3300])
def test_chunked_encoding_at_the_chunk_bounds(size):
    rows = [{"i": i, "x": [i / 7, -0.0]} for i in range(size)]
    for body in (rows, tuple(rows), {"kind": "pools", "rows": rows}):
        assert canonical_dumps(body) == one_dump(body, True)
    rows[-1]["x"][0] = float("nan")
    assert chunked_dump({"rows": rows}, False) == one_dump({"rows": rows}, False)
    assert chunked_dump({"rows": rows}, False).startswith("ValueError: Out of range float values")


@pytest.mark.parametrize("version", [True, 1.0])
def test_non_integer_format_version_refused(tmp_path, version):
    # json reads true as True == 1 and 1.0 == 1; neither is the format's integer
    path = tmp_path / "a.json"
    body = {"kind": "report", "format_version": version}
    body["content_hash"] = sha256_text(canonical_dumps(body))
    path.write_text(canonical_dumps(body) + "\n", encoding="utf-8")
    with pytest.raises(ArtifactMismatchError, match=f"a.json: unsupported format_version {version!r}"):
        read_artifact(path, "report")


def test_read_artifact_refuses_a_non_object(tmp_path):
    path = tmp_path / "a.json"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ArtifactMismatchError, match="a.json: artifact must be a JSON object$"):
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


@settings(max_examples=100, deadline=None)
@given(data=st.lists(st.sampled_from([b"a", b"\r", b"\n", b"\r\n"]), max_size=30).map(b"".join))
def test_not_utf8_names_the_line_text_mode_ends(tmp_path_factory, data):
    # configs and artifacts are read in text mode, where each \n, \r\n and
    # lone \r ends a line, so their undecodable byte's line is counted so
    path = tmp_path_factory.mktemp("text") / "run.ini"
    path.write_bytes(data + b"\xff")
    line = data.decode().replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
    assert str(not_utf8(path)) == f"line {line}: {path}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_sha256_file_in_blocks_is_the_whole_file_digest(tmp_path, size, monkeypatch):
    monkeypatch.setattr(artifacts, "_HASH_BLOCK", 4096)
    path = tmp_path / "data.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_read_artifact_refuses_a_non_finite_number(tmp_path, token):
    # write_artifact writes the token json writes for it, and the hash over
    # that text; json reads 1e400 as infinity, so its hash is Infinity's
    path = tmp_path / "a.json"
    write_artifact(path, {"kind": "report", "x": [0.5, float(token)]})
    if token.endswith("e400"):
        path.write_text(path.read_text().replace("Infinity", "1e400"))
    assert token in path.read_text()
    with pytest.raises(ArtifactMismatchError, match="a.json: artifact holds a non-finite number"):
        read_artifact(path, "report")
