"""Content-addressed on-disk result cache.

A campaign job is addressed by the SHA-256 of its canonical JSON
serialization (frozen dataclasses -> sorted-key JSON, tuples -> lists).
The cache stores one JSON file per key under a two-level fan-out
(``<dir>/<key[:2]>/<key>.json``) together with the code version that
produced the payload; entries written by a different code version are
*invalidated* on read (counted and deleted), so the effective address is
``(job, code version)`` while stale entries remain observable in the
accounting instead of silently shadowing fresh results.

The cache never deserializes payloads into live objects — it deals in the
same JSON-compatible dicts :mod:`repro.serialization` produces — so a hit
is a file read plus a version check, nothing more.

One cache directory may be shared by many processes (pool workers of one
campaign, or several campaigns/hosts on a shared filesystem): writers
stage entries under unique per-writer temp names and publish with an
atomic rename, so readers never observe half a file and concurrent
writers of the same key never clobber each other's staging file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from .. import telemetry as tele
from ..exceptions import ReproError

__all__ = ["canonical_json", "cache_key", "CacheStats", "ResultCache", "CACHE_ENTRY_VERSION"]

#: Schema version of on-disk cache entries.
CACHE_ENTRY_VERSION = 1


def _jsonable(obj):
    """Recursively convert dataclasses/tuples into JSON-compatible values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: _jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise ReproError(
        f"cannot canonically serialize {type(obj).__name__!r} for cache keying"
    )


def canonical_json(obj) -> str:
    """Stable JSON text for hashing: sorted keys, no whitespace drift."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def cache_key(obj) -> str:
    """SHA-256 hex digest of an object's canonical serialization."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Cumulative accounting over the lifetime of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses + self.invalidations

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0 when nothing was looked up)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly snapshot for manifests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Filesystem-backed cache of campaign job payloads.

    Parameters
    ----------
    directory:
        Root directory; created on first write.
    code_version:
        Version stamp written into every entry and checked on read.
        Defaults to the library version — bump it (or pass a custom stamp
        covering e.g. a model calibration hash) to invalidate en masse.
    """

    def __init__(self, directory: Union[str, Path], *, code_version: Optional[str] = None):
        from .. import __version__

        self.directory = Path(directory)
        self.code_version = code_version or __version__
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where an entry for ``key`` lives (whether or not it exists)."""
        return self.directory / key[:2] / f"{key}.json"

    def _read_entry(self, key: str) -> Optional[Dict]:
        """The on-disk entry for ``key`` if present *and* valid, else ``None``.

        Pure read: no stats mutation, no deletion.  This is the single
        validation predicate — ``get`` layers accounting and stale-entry
        cleanup on top of it, and ``__contains__``/``__len__`` use it
        directly so membership always agrees with what ``get`` would
        actually serve.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("entry_version") != CACHE_ENTRY_VERSION
            or entry.get("code_version") != self.code_version
            or entry.get("key") != key
            or "payload" not in entry
        ):
            return None
        return entry

    def get(self, key: str) -> Optional[Dict]:
        """The cached payload for ``key``, or ``None`` (miss/invalidated)."""
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            tele.count("tgi_cache_lookups_total", result="miss")
            return None
        entry = self._read_entry(key)
        if entry is None:
            # Stale or corrupt: drop it so the rerun's put() replaces it.
            self.stats.invalidations += 1
            tele.count("tgi_cache_lookups_total", result="invalidated")
            path.unlink(missing_ok=True)
            return None
        self.stats.hits += 1
        tele.count("tgi_cache_lookups_total", result="hit")
        return entry["payload"]

    def peek(self, key: str) -> Optional[Dict]:
        """The cached payload for ``key`` if a valid entry exists, else ``None``.

        A pure read, like ``__contains__``: no accounting and no stale-entry
        cleanup.  It re-checks a key whose lookup :meth:`get` already
        counted — the executing process's last look for a result another
        worker may have published since — so each lookup counts once.
        """
        entry = self._read_entry(key)
        return None if entry is None else entry["payload"]

    def put(self, key: str, payload: Dict) -> Path:
        """Store a payload under ``key``; returns the entry path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "entry_version": CACHE_ENTRY_VERSION,
            "key": key,
            "code_version": self.code_version,
            "payload": payload,
        }
        # Unique per-writer staging name: a shared name (the old
        # ``path.with_suffix(".tmp")``) let one writer's replace() yank the
        # file out from under another writer of the same key mid-write.
        # The ``.tmp`` suffix keeps stragglers out of the ``*/*.json`` scan.
        tmp = path.parent / f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            tmp.write_text(json.dumps(entry, sort_keys=True))
            tmp.replace(path)  # atomic publish: readers never see half a file
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.stats.puts += 1
        tele.count("tgi_cache_puts_total")
        return path

    @property
    def cache_stats(self) -> Dict[str, float]:
        """The accounting snapshot (same shape campaign manifests embed)."""
        return self.stats.as_dict()

    def __contains__(self, key: str) -> bool:
        """Whether ``get(key)`` would hit (validated, stats untouched)."""
        return self._read_entry(key) is not None

    def __len__(self) -> int:
        """Number of entries ``get`` would serve (stale/corrupt excluded)."""
        if not self.directory.exists():
            return 0
        return sum(
            1
            for path in self.directory.glob("*/*.json")
            if self._read_entry(path.stem) is not None
        )
