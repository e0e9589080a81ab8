"""Content-addressed on-disk cache for completed estimation runs.

A cache entry is keyed by the SHA-256 of a canonical JSON rendering of
everything that determines the result bit-for-bit: the task's own cache
token (model parameters, measure, evaluation times), the experiment seed,
the replication budget or stopping rule, the chunk size (it fixes the
floating-point merge grouping) and the code version from
:mod:`repro._version`.  Anything that does *not* enter the key — worker
count, retry budget, telemetry settings — is guaranteed not to change the
numbers, so a hit is always safe to reuse.

Entries are plain JSON files under ``root/<key[:2]>/<key>.json``, written
atomically (temp file + ``os.replace``) so concurrent runs never observe
a torn entry.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro._version import __version__

__all__ = ["fingerprint", "cache_key", "ResultCache"]


def fingerprint(obj: Any) -> Any:
    """Normalise ``obj`` into a canonical JSON-serialisable structure.

    Handles the vocabulary of this library's parameter objects: nested
    dataclasses (:class:`~repro.core.parameters.AHSParameters`), enum keys
    and values (:class:`~repro.core.maneuvers.Maneuver`), tuples, NumPy
    scalars and arrays.  Floats are rendered with ``repr`` so the token is
    exact, not rounded.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # np.float64 subclasses float but reprs as "np.float64(...)";
        # coerce so both spell the same token.
        return repr(float(obj))
    if isinstance(obj, enum.Enum):
        return fingerprint(obj.value)
    if isinstance(obj, np.generic):
        return fingerprint(obj.item())
    if isinstance(obj, np.ndarray):
        return [fingerprint(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{
                f.name: fingerprint(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Mapping):
        items = [
            (str(fingerprint(key)), fingerprint(value))
            for key, value in obj.items()
        ]
        return {key: value for key, value in sorted(items)}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [fingerprint(v) for v in seq]
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__!r} for cache keying"
    )


def cache_key(token: Any) -> str:
    """SHA-256 hex digest of the canonical rendering of ``token``.

    The code version is always mixed in, so upgrading the library
    invalidates every entry rather than serving stale numbers.
    """
    canonical = json.dumps(
        {"version": __version__, "token": fingerprint(token)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed store of completed run records.

    Parameters
    ----------
    root:
        Cache directory (created on first write).
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: why the latest :meth:`get` missed: ``"absent"`` (no entry),
        #: ``"corrupt"`` (not a decodable record) or ``"key-mismatch"``
        #: (a record stored under another key); None after a hit
        self.last_miss: Optional[str] = None

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        """Whether an entry exists for ``key`` (no counter side effects)."""
        return self._path(key).is_file()

    def get(
        self, key: str, decode: Optional[Callable[[dict], Any]] = None
    ) -> Any:
        """The stored payload for ``key``, or ``None`` (counted as a miss).

        Only a JSON object whose ``key`` is the requested one and whose
        ``payload`` is an object is a hit; ``decode``, when given, turns
        that payload into the returned value, and a payload it cannot
        decode is a miss too.  :attr:`last_miss` records why a lookup
        missed, so a copied, renamed or truncated file is never served.
        """
        try:
            text = self._path(key).read_text()
        except FileNotFoundError:
            return self._miss("absent")
        except OSError:
            return self._miss("corrupt")
        try:
            record = json.loads(text)
        except ValueError:
            return self._miss("corrupt")
        if not isinstance(record, dict):
            return self._miss("corrupt")
        if record.get("key") != key:
            return self._miss("key-mismatch")
        payload = record.get("payload")
        if not isinstance(payload, dict):
            return self._miss("corrupt")
        if decode is not None:
            try:
                payload = decode(payload)
            except (KeyError, TypeError, ValueError):
                return self._miss("corrupt")
        self.hits += 1
        self.last_miss = None
        return payload

    def _miss(self, reason: str) -> None:
        self.misses += 1
        self.last_miss = reason
        return None

    def put(self, key: str, payload: dict) -> Path:
        """Atomically store ``payload`` under ``key``; returns the path."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "key": key,
            "version": __version__,
            "created": time.time(),
            "payload": payload,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.puts += 1
        return path

    # ------------------------------------------------------------------
    # hygiene: stats, session counters, clearing
    # ------------------------------------------------------------------
    #: session-counter sidecar (not a cache entry: lives outside the
    #: two-hex-digit shard directories, so stats/clear never mistake it
    #: for a result)
    _SESSION_FILE = "_session.json"

    def _iter_entries(self):
        root = self.root
        if not root.is_dir():
            return
        for shard in sorted(root.iterdir()):
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            for path in sorted(shard.glob("*.json")):
                if path.name.startswith(".tmp-"):
                    continue
                yield path

    def stats(self) -> dict:
        """On-disk inventory plus the last finished session's counters.

        ``entries``/``total_bytes`` are computed by walking the store;
        ``last_session`` is whatever :meth:`flush_session` recorded most
        recently (``None`` before the first flushed run).
        """
        entries = 0
        total_bytes = 0
        for path in self._iter_entries():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue  # entry vanished mid-walk (concurrent clear)
            entries += 1
        last_session = None
        try:
            last_session = json.loads(
                (self.root / self._SESSION_FILE).read_text()
            )
        except (OSError, ValueError):
            pass
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total_bytes,
            "last_session": last_session,
        }

    def flush_session(self) -> None:
        """Persist this process's hit/miss/put counters (atomically).

        Called by :meth:`ParallelRunner.close` so ``repro-cli cache
        stats`` can report how the cache behaved in the last run even
        though the counters themselves live in memory.  No-op when the
        session did no cache work at all.
        """
        if self.hits == self.misses == self.puts == 0:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "hit_rate": self.hit_rate,
                "finished": time.time(),
            }
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, self.root / self._SESSION_FILE)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every cache entry (and the session sidecar).

        Returns the number of entries removed.  Shard directories are
        pruned when emptied; the root itself is kept.
        """
        removed = 0
        for path in list(self._iter_entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
            try:
                path.parent.rmdir()
            except OSError:
                pass  # shard not empty yet
        try:
            (self.root / self._SESSION_FILE).unlink()
        except OSError:
            pass
        return removed

    @property
    def lookups(self) -> int:
        """Total get() calls so far."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 with no lookups)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, puts={self.puts})"
        )
