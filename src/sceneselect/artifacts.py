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

from .errors import ArtifactMismatchError, ParseError

FORMAT_VERSION = 1


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


def read_artifact(path, kind: str) -> dict:
    """Load an artifact, verifying its self-hash and ``kind`` tag."""
    path = Path(path)
    try:
        body = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"{path}: {exc.msg}") from exc
    if not isinstance(body, dict):
        raise ArtifactMismatchError(f"{path}: artifact must be a JSON object")
    if body.get("format_version") != FORMAT_VERSION:
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
    return body


def require_match(name: str, recorded: str, actual: str) -> None:
    if recorded != actual:
        raise ArtifactMismatchError(
            f"{name} hash mismatch: artifact was built against {recorded[:12]}..., "
            f"got {actual[:12]}..."
        )
