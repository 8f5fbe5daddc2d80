import pytest

from sceneselect import artifacts
from sceneselect.artifacts import canonical_dumps, read_artifact, write_artifact


def test_written_bytes_are_canonical_json(tmp_path):
    path = tmp_path / "a.json"
    digest = write_artifact(path, {"kind": "report", "x": [1, 2.5]})
    body = read_artifact(path, "report")
    assert body["content_hash"] == digest
    assert path.read_text(encoding="utf-8") == canonical_dumps(body) + "\n"


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
