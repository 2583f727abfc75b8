"""Hardened atomic JSON disk cache shared by every on-disk store.

The macromodel identification cache (:mod:`repro.experiments.devices`)
grew a robust unlink-and-recompute pattern for corrupt entries; the
ROADMAP item-5 warm-start/result store needs the same guarantees.  This
module is that pattern as a reusable helper:

* **atomic writes** — payloads land via ``tempfile`` + ``os.replace`` in
  the target directory, so readers never observe a torn file and
  concurrent writers last-one-wins cleanly;
* **checksum validation** — the stored document wraps the payload with a
  SHA-256 of its canonical encoding; a bit-flipped or truncated entry
  fails validation instead of deserialising into garbage;
* **unlink-and-recover reads** — permanently corrupt entries (bad JSON,
  failed checksum, structurally wrong payload) are removed best-effort so
  later runs recompute once instead of tripping repeatedly, while
  *transient* read failures (``OSError`` from a flaky shared volume) keep
  the entry and just miss.

Caches built on this module are optimisations only: no helper here ever
raises on I/O problems — a failed write is dropped, a failed read is a
miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any

__all__ = [
    "CACHE_DOC_FORMAT",
    "disk_enabled",
    "checksum",
    "atomic_write_json",
    "read_json",
    "invalidate",
]

#: bump when the wrapping document schema changes incompatibly
CACHE_DOC_FORMAT = 1


def disk_enabled() -> bool:
    """Whether disk caches may read and write (``REPRO_DISK_CACHE``).

    ``0``/``false``/``off`` switches every disk cache of the package off;
    unset or anything else leaves them on.  Read on each call, so a test
    or a daemon sees changes to the environment.
    """
    return os.environ.get("REPRO_DISK_CACHE", "1").strip().lower() not in ("0", "false", "off")


def checksum(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of a payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write_json(path: str, payload: Any) -> bool:
    """Atomically persist ``payload`` (checksum-wrapped) at ``path``.

    Returns ``True`` on success, ``False`` on any failure (read-only
    filesystem, unserialisable payload, ...) — cache writes are best
    effort and must never fail the computation that produced the payload.
    """
    try:
        document = {
            "cache_format": CACHE_DOC_FORMAT,
            "checksum": checksum(payload),
            "payload": payload,
        }
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            os.replace(tmp_path, path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except (OSError, TypeError, ValueError):
        return False
    return True


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def read_json(path: str) -> Any | None:
    """Load and validate a cache entry; ``None`` on miss or any failure.

    Corrupt entries — unparseable JSON, a checksum mismatch, a wrapper of
    the wrong shape — are unlinked (best effort) before returning ``None``
    so the recomputed entry replaces them.  Transient ``OSError`` reads
    keep the entry: it may be perfectly valid on the next attempt.

    Legacy entries written before the checksum wrapper existed (a bare
    JSON object without the ``cache_format`` key) are returned as-is; the
    caller's own payload validation governs them.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError:
        return None
    except ValueError:
        _unlink_quietly(path)
        return None
    if not isinstance(document, dict) or "cache_format" not in document:
        return document  # legacy pre-checksum entry: caller validates
    payload = document.get("payload")
    if document.get("checksum") != checksum(payload):
        _unlink_quietly(path)
        return None
    return payload


def invalidate(path: str) -> None:
    """Remove an entry a caller found structurally unusable (best effort)."""
    _unlink_quietly(path)
