"""Content-addressed results cache.

Reports are keyed by the sha256 of a canonical-JSON payload describing what
was computed (model serialization plus parameters), so any change to a
model's coefficients or to the extension degree changes the key.  The key
and the stored entry also carry the cache schema version, so entries written
by an earlier version of the counting code are misses.  A corrupt or
unreadable entry is treated as a miss and recomputed; an unwritable cache
directory degrades to no caching.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path


def content_key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultsCache:
    """Tiny JSON file cache; pass root=None to disable."""

    # Bump whenever a change to the program can change a cached value.
    SCHEMA = 2

    def __init__(self, root: Path | str | None):
        self.root = Path(root) if root is not None else None
        self.enabled = root is not None
        if self.enabled:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError:
                self.enabled = False

    def _path(self, payload: dict) -> Path:
        key = content_key({"schema": self.SCHEMA, "payload": payload})
        return self.root / f"{key}.json"

    def get(self, payload: dict) -> dict | None:
        if not self.enabled:
            return None
        try:
            entry = json.loads(self._path(payload).read_text())
        except (OSError, ValueError):
            return None
        if (not isinstance(entry, dict) or entry.get("schema") != self.SCHEMA
                or entry.get("payload") != payload):
            return None  # stale schema, hash collision or corruption: recompute
        return entry.get("value")

    def put(self, payload: dict, value: dict) -> None:
        if not self.enabled:
            return
        blob = json.dumps({"schema": self.SCHEMA, "payload": payload, "value": value},
                          sort_keys=True)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(payload))
        except OSError:
            self.enabled = False
