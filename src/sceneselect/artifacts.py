"""Hash-stamped JSON artifact I/O.

Every artifact written by the pipeline embeds a ``content_hash`` over its own
canonical payload plus the hashes of the upstream files it was derived from,
so downstream commands can refuse to mix artifacts from different runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ArtifactMismatchError, ConfigError, ParseError

FORMAT_VERSION = 1


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def is_int(value) -> bool:
    """Whether a JSON value is an integer: ``json`` reads ``true`` as True,
    which isinstance counts as an int, and ``1.0`` as a float."""
    return type(value) is int


def not_utf8(path) -> ParseError:
    """ParseError for a file that does not decode as UTF-8, naming the file
    and the line of its first undecodable byte."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseError(data.count(b"\n", 0, exc.start) + 1, f"{path}: not UTF-8 text ({exc.reason})")
    return ParseError(1, f"{path}: not UTF-8 text")


def write_artifact(path, payload: dict) -> str:
    """Stamp ``payload`` with format version and self-hash, write it atomically,
    return the hash."""
    body = dict(payload)
    body["format_version"] = FORMAT_VERSION
    body.pop("content_hash", None)
    digest = sha256_text(canonical_dumps(body))
    body["content_hash"] = digest
    with atomic_path(path) as tmp:
        tmp.write_text(canonical_dumps(body) + "\n", encoding="utf-8")
    return digest


@contextmanager
def atomic_path(path):
    """A temporary path beside ``path`` to write to: renamed over ``path`` on a
    clean exit, removed on an error, so readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_artifact(path, kind: str, **upstream) -> dict:
    """Load an artifact, verifying its self-hash and ``kind`` tag, and that for
    each ``name=hash`` in ``upstream`` it records ``hash`` as its ``<name>_hash``."""
    path = Path(path)
    try:
        body = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"{path}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    if not isinstance(body, dict):
        raise ArtifactMismatchError(f"{path}: artifact must be a JSON object")
    if not is_int(body.get("format_version")) or body["format_version"] != FORMAT_VERSION:
        raise ArtifactMismatchError(
            f"{path}: unsupported format_version {body.get('format_version')!r}"
        )
    if body.get("kind") != kind:
        raise ArtifactMismatchError(
            f"{path}: expected {kind!r} artifact, found {body.get('kind')!r}"
        )
    stored = body.get("content_hash")
    check = dict(body)
    check.pop("content_hash", None)
    actual = sha256_text(canonical_dumps(check))
    if stored != actual:
        raise ArtifactMismatchError(f"{path}: content hash mismatch")
    for name, expected in upstream.items():
        require_match(name, body.get(f"{name}_hash"), expected, path)
    return body


@contextmanager
def artifact_body(path):
    """Raise a `ConfigError` from the block, which turns the body of the
    artifact read from ``path`` into objects, as an `ArtifactMismatchError`
    naming the file: its hash held, so the body was written malformed."""
    try:
        yield
    except ConfigError as exc:
        raise ArtifactMismatchError(f"{path}: {exc}") from None


def require_match(name: str, recorded, actual: str, path=None) -> None:
    """Refuse an artifact whose recorded ``<name>_hash`` is missing, not a
    string, or other than ``actual``; the message starts with the artifact's
    ``path`` when one is given."""
    where = "" if path is None else f"{path}: "
    if not isinstance(recorded, str):
        raise ArtifactMismatchError(f"{where}artifact records no {name}_hash")
    if recorded != actual:
        raise ArtifactMismatchError(
            f"{where}{name} hash mismatch: artifact was built against {recorded[:12]}..., "
            f"got {actual[:12]}..."
        )
