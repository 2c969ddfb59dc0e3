"""On-disk cache of finished simulation runs.

Simulations are deterministic: the same machine configuration, workload,
scale and seed always produce the same :class:`RunStats`.  That makes a
run a pure function of its parameters, so the harness can persist each
result as a small JSON file and skip the simulation entirely the next
time the identical point is requested — across processes and sessions,
not just within one runner's in-memory memoisation.

Layout: one file per run under the cache directory, named by a sha256
digest of the canonical-JSON key.  The key covers every field of the
:class:`~repro.config.GPUConfig`, the workload name, scale, seed, and
``repro.__version__`` — bumping the package version invalidates every
entry, which is the coarse-but-safe answer to "the simulator's
behaviour changed".  A missing file is an ordinary miss; a file that
*opens* but cannot be parsed back into a :class:`RunStats` is cache
rot, reported through :mod:`warnings` with the offending path before
being re-simulated (the fresh result overwrites it).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import warnings
from typing import Dict

import repro
from repro.config import GPUConfig
from repro.stats.collector import RunStats


def _canonical(value):
    """Reduce a key component to deterministic JSON-friendly values."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


def run_key(config: GPUConfig, workload: str, scale: float,
            seed: int) -> str:
    """The sha256 cache key of one simulation point.

    Every config field participates, so changing *any* machine
    parameter — not just the ones a sweep happens to vary — lands on a
    different file.
    """
    payload = {
        "version": repro.__version__,
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "config": {
            f.name: _canonical(getattr(config, f.name))
            for f in dataclasses.fields(config)
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class JsonFileCache:
    """Generic JSON-per-entry store keyed by digest strings.

    Pure storage mechanics, shared by the run cache below and the
    compiled-trace cache in :mod:`repro.workloads`: one ``<key>.json``
    file per entry, atomic writes (temp file + rename) so a crashed or
    interrupted process never leaves a half-written entry, and
    hit/miss counters.  Anything unreadable or unparsable is a miss —
    corruption is reported through :mod:`warnings` with the offending
    path and then overwritten by the fresh result.
    """

    #: label used in corruption warnings ("run-cache", "trace-cache")
    what = "cache"
    #: what happens after a corrupt entry is discarded
    recovery = "regenerating"

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key + ".json")

    def _decode(self, data):
        """Turn the raw JSON payload into the cached object.

        Subclasses override; raising ``ValueError``/``KeyError``/
        ``TypeError`` marks the entry as corrupt.
        """
        return data

    def _encode(self, value):
        """Turn the cached object into a JSON-serializable payload."""
        return value

    def get(self, key: str):
        """The cached value for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            handle = open(path)
        except OSError:
            self.misses += 1
            return None
        try:
            with handle:
                data = json.load(handle)
            value = self._decode(data)
        except (OSError, ValueError, KeyError, TypeError) as error:
            warnings.warn(
                f"corrupt {self.what} entry {path}: "
                f"{type(error).__name__}: {error}; {self.recovery}",
                RuntimeWarning, stacklevel=2)
            self.misses += 1
            return None
        self.hits += 1
        try:
            # refresh the entry's LRU clock (prune evicts by mtime)
            os.utime(path, None)
        except OSError:
            pass
        return value

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (no counters).

        Cheaper than :meth:`get` — one ``stat`` instead of a read and
        parse — which matters on the fleet dispatcher's lease path,
        where every granted job is first checked against the shared
        result store.
        """
        return os.path.exists(self._path(key))

    def put_if_absent(self, key: str, value) -> bool:
        """Persist ``value`` unless an entry for ``key`` already exists.

        Returns whether this call wrote.  The check-then-write is not
        atomic across processes, but it does not need to be: entries
        are pure functions of their key, so two racing writers of the
        same key produce identical files and the atomic rename in
        :meth:`put` makes the last one win harmlessly.  What this
        buys is *bookkeeping* — a late result arriving after its job
        was requeued and re-executed elsewhere can tell it was
        redundant.
        """
        if self.contains(key):
            return False
        self.put(key, value)
        return True

    def put(self, key: str, value) -> None:
        """Persist ``value`` under ``key`` (atomic, best-effort)."""
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir,
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(self._encode(value), handle,
                              sort_keys=True)
                os.replace(tmp, self._path(key))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            # a read-only or full disk must not fail the experiment
            pass

    def _entries(self):
        """``(mtime, size, path)`` of every entry file, oldest first.

        mtime doubles as the LRU clock: writes stamp it naturally and
        :meth:`get` re-stamps it on every hit.
        """
        entries = []
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return entries
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, path))
        entries.sort()
        return entries

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used entries until <= ``max_bytes``.

        A long-lived server writes one file per distinct point forever;
        this is the bound that keeps the cache directory finite.
        Returns ``{"evicted": n, "freed_bytes": b, "bytes": left}``.
        Eviction is best-effort: an entry that vanishes concurrently
        (another process pruning) is simply counted as already gone.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        evicted = freed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
            freed += size
        return {"evicted": evicted, "freed_bytes": freed,
                "bytes": total}

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus the on-disk footprint.

        ``entries``/``bytes`` are measured from the directory, so they
        reflect what every process sharing the cache has written, not
        just this handle.
        """
        entries = self._entries()
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(entries),
                "bytes": sum(size for _, size, _ in entries)}


class RunCache(JsonFileCache):
    """JSON-per-run store of :class:`RunStats` keyed by :func:`run_key`.

    ``repro serve`` uses it as the fleet's shared result store, so a
    point run by the batch harness is a store hit for the service, and
    a served result is a cache hit for a later batch run.
    """

    what = "run-cache"
    recovery = "re-simulating"

    def _decode(self, data) -> RunStats:
        return RunStats.from_dict(data)

    def _encode(self, stats: RunStats):
        return stats.to_dict()
