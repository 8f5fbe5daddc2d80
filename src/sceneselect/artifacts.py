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

# Bytes per read when a file is hashed.
_HASH_BLOCK = 1 << 18


# A list of more items than this is encoded this many items at a time.
_CHUNK_ITEMS = 256


def _dumps(obj, allow_nan) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=allow_nan)


def canonical_dumps(obj, allow_nan=True) -> str:
    """``json.dumps`` of ``obj`` with sorted keys, no spaces and non-ASCII
    text kept, built in pieces. An object whose keys are all strings is
    encoded one value at a time, and a list or tuple of more than
    ``_CHUNK_ITEMS`` items that many items at a time, each chunk's text
    without its brackets; the pieces are joined as ``json.dumps`` joins
    them, so the text is the same, and so is the refusal of a non-finite
    number when ``allow_nan`` is false. One ``json.dumps`` of a long list
    first builds a list of every fragment of its text: for the 3,300 rows
    of a default ``pools.json``, 3 MB on Python 3.11 for a 155 KB file."""
    if isinstance(obj, dict) and all(type(key) is str for key in obj):
        return "{" + ",".join(
            f"{_dumps(key, allow_nan)}:{canonical_dumps(obj[key], allow_nan)}" for key in sorted(obj)
        ) + "}"
    if isinstance(obj, (list, tuple)) and len(obj) > _CHUNK_ITEMS:
        return "[" + ",".join(
            _dumps(obj[i : i + _CHUNK_ITEMS], allow_nan)[1:-1] for i in range(0, len(obj), _CHUNK_ITEMS)
        ) + "]"
    return _dumps(obj, allow_nan)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    """The SHA-256 of the file's bytes, read ``_HASH_BLOCK`` bytes at a time."""
    digest, block = hashlib.sha256(), bytearray(_HASH_BLOCK)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


def is_int(value) -> bool:
    """Whether a JSON value is an integer: ``json`` reads ``true`` as True,
    which isinstance counts as an int, and ``1.0`` as a float."""
    return type(value) is int


def not_utf8(path) -> ParseError:
    """ParseError for a file that does not decode as UTF-8, naming the file
    and the line of its first undecodable byte, with lines ended as text
    mode ends them: each ``\\n``, ``\\r\\n`` and lone ``\\r`` is one."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        ends = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ParseError(ends + 1, f"{path}: not UTF-8 text ({exc.reason})")
    return ParseError(1, f"{path}: not UTF-8 text")


def write_artifact(path, payload: dict) -> str:
    """Stamp ``payload`` with format version and self-hash, write it atomically,
    return the hash.

    The file is ``canonical_dumps`` of the stamped body. Each top-level
    value is encoded once: ``canonical_dumps`` of an object is its sorted
    ``"key":value`` pieces joined by commas, each value encoded as it would
    be alone, so the hashed text and the file are both joins of the same
    pieces, the file's with the hash's piece added."""
    body = dict(payload, format_version=FORMAT_VERSION)
    body.pop("content_hash", None)
    pieces = {key: f"{canonical_dumps(key)}:{canonical_dumps(value)}" for key, value in body.items()}
    digest = sha256_text("{" + ",".join(pieces[key] for key in sorted(pieces)) + "}")
    pieces["content_hash"] = f'"content_hash":"{digest}"'
    with atomic_path(path) as tmp:
        tmp.write_text("{" + ",".join(pieces[key] for key in sorted(pieces)) + "}\n", encoding="utf-8")
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
    each ``name=hash`` in ``upstream`` it records ``hash`` as its ``<name>_hash``.
    A number JSON does not define (``NaN``, ``Infinity``) or one past float
    range (``1e400``, which reads as infinity) is refused."""
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
    try:
        actual = sha256_text(canonical_dumps(check, allow_nan=False))
    except ValueError:  # json reads NaN and Infinity, and a float past range as infinity
        raise ArtifactMismatchError(f"{path}: artifact holds a non-finite number") from None
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
