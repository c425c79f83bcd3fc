"""Probe/plan memoization: compute each sweep-invariant result once.

Every experiment sweep re-runs the same Glinda probes and split
predictions at every sweep point: the simulated platform is deterministic,
so a probe of the same kernel on the same device at the same size always
times the same.  This module provides small keyed memo stores —
*fingerprint* keyed, so a cache entry can never survive a change to the
platform, the kernel cost model, or the model parameters — used by

* :mod:`repro.partition.profiling` (throughput probes, kernel profiles,
  DP-Perf profile-table seeding),
* :mod:`repro.partition.glinda` (split predictions),
* :mod:`repro.core.tournament` (measured-ranking match results, keyed by
  platform fingerprint + scenario + strategy, so ``repro rank`` replays
  a platform's round-robin for free once it has been played).

Hit/miss counters are kept per store and surfaced
:class:`~repro.runtime.executor.ExecutionResult`-style via
:func:`cache_stats` / :meth:`MemoCache.stats`; strategies snapshot them
into their :class:`~repro.partition.base.StrategyDecision` notes and
``benchmarks/bench_pipeline_perf.py`` records them in
``BENCH_pipeline.json``.  Caching is on by default; set the environment
variable ``REPRO_CACHE=0`` (read once, at import) or call :func:`configure`
to disable it, e.g. when ablating cache behaviour.  Keys, invalidation
rules, and the worker-process caveat are documented in
``docs/performance.md``.

Stores can also be persisted across CLI invocations:
:func:`save_snapshot`/:func:`load_snapshot` write/read a version-stamped,
fingerprint-keyed bundle, and ``python -m repro ... --cache-dir DIR``
warm-starts repeated runs from it (stale or incompatible snapshots are
ignored, never half-loaded).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import sys
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable

__all__ = [
    "CacheStats",
    "MemoCache",
    "SNAPSHOT_VERSION",
    "cache_stats",
    "clear_all",
    "configure",
    "counters",
    "device_fingerprint",
    "get_cache",
    "kernel_fingerprint",
    "load_snapshot",
    "platform_fingerprint",
    "preload_snapshot",
    "save_snapshot",
    "snapshot_stores",
    "stats_delta",
]


@dataclass
class CacheStats:
    """Hit/miss counters of one memo store."""

    name: str
    hits: int = 0
    misses: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "hit_rate": self.hit_rate,
        }


#: whether stores cache at all: ``REPRO_CACHE`` read once, at import, then
#: owned by :func:`configure`; stores created later start from it
_ENABLED = os.environ.get("REPRO_CACHE", "1") not in ("0", "false", "off")


class MemoCache:
    """A keyed memo store with hit/miss accounting.

    Keys must be hashable; values are returned by reference, so only
    immutable results (or results the caller copies) belong here.
    ``max_entries`` bounds memory: when full, the store stops admitting
    new entries (sweeps revisit a small working set, so eviction churn
    would cost more than it saves).
    """

    def __init__(self, name: str, *, max_entries: int = 65536) -> None:
        self.name = name
        self.max_entries = max_entries
        self.enabled = _ENABLED
        self._store: dict[Hashable, Any] = {}
        self._hits = 0
        self._misses = 0

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        if not self.enabled:
            return compute()
        try:
            value = self._store[key]
        except KeyError:
            self._misses += 1
            value = compute()
            if len(self._store) < self.max_entries:
                self._store[key] = value
            return value
        self._hits += 1
        return value

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._store.clear()
        self._hits = 0
        self._misses = 0

    def preload(self, entries: dict[Hashable, Any]) -> int:
        """Install entries without touching the hit/miss counters.

        Used to ship a parent process's warm store into sweep workers:
        preloaded entries serve later lookups as ordinary hits, but the
        preload itself is bookkeeping, not cache traffic.  Respects
        ``max_entries``; returns the number of entries installed.
        """
        installed = 0
        store = self._store
        for key, value in entries.items():
            if key in store:
                continue
            if len(store) >= self.max_entries:
                break
            store[key] = value
            installed += 1
        return installed

    def entries(self) -> dict[Hashable, Any]:
        """Shallow copy of the stored entries (for snapshotting)."""
        return dict(self._store)

    def stats(self) -> CacheStats:
        return CacheStats(
            name=self.name,
            hits=self._hits,
            misses=self._misses,
            size=len(self._store),
        )

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"MemoCache({self.name!r}, hits={s.hits}, misses={s.misses}, "
            f"size={s.size})"
        )


#: the process-wide named stores (one per cached computation family)
_CACHES: dict[str, MemoCache] = {}


def get_cache(name: str) -> MemoCache:
    """The process-wide memo store ``name`` (created on first use)."""
    cache = _CACHES.get(name)
    if cache is None:
        cache = _CACHES[name] = MemoCache(name)
    return cache


def cache_stats() -> dict[str, CacheStats]:
    """Snapshot of every store's counters, keyed by store name."""
    return {name: cache.stats() for name, cache in sorted(_CACHES.items())}


def clear_all() -> None:
    """Clear every store (tests and ablations)."""
    for cache in _CACHES.values():
        cache.clear()


def configure(*, enabled: bool) -> None:
    """Enable or disable all stores (present and future)."""
    global _ENABLED
    _ENABLED = enabled
    for cache in _CACHES.values():
        cache.enabled = enabled


def counters() -> dict[str, tuple[int, int]]:
    """Cheap counter snapshot: store name -> (hits, misses).

    Pair with :func:`stats_delta` to attribute cache traffic to one run:
    take the counters before, run, and diff afterwards.
    """
    return {
        name: (cache._hits, cache._misses) for name, cache in _CACHES.items()
    }


def stats_delta(before: dict[str, tuple[int, int]]) -> dict[str, dict[str, Any]]:
    """Per-store hit/miss deltas since a :func:`counters` snapshot.

    Only stores with traffic in the window appear; the result is the
    JSON-ready shape :class:`~repro.artifact.RunArtifact` carries.
    """
    out: dict[str, dict[str, Any]] = {}
    for name, cache in sorted(_CACHES.items()):
        hits0, misses0 = before.get(name, (0, 0))
        hits = cache._hits - hits0
        misses = cache._misses - misses0
        if hits or misses:
            lookups = hits + misses
            out[name] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else 0.0,
            }
    return out


# -- cross-process snapshots -------------------------------------------------
#
# ``run_sweep`` workers are separate processes, so they start with cold
# stores and re-run every probe the parent already has.  A *snapshot* is a
# picklable {store name -> {key -> value}} bundle the parent captures once
# and ships to each worker through the pool initializer; workers install
# it read-only-by-convention (their own additions never flow back).


def snapshot_stores() -> dict[str, dict[Hashable, Any]]:
    """Picklable copy of every store's entries (counters excluded)."""
    return {
        name: cache.entries()
        for name, cache in sorted(_CACHES.items())
        if len(cache)
    }


def preload_snapshot(snapshot: dict[str, dict[Hashable, Any]]) -> None:
    """Install a :func:`snapshot_stores` bundle into this process."""
    for name, entries in snapshot.items():
        get_cache(name).preload(entries)


# -- disk-backed snapshots ---------------------------------------------------
#
# The same {store name -> {key -> value}} bundle, persisted so a *second*
# ``python -m repro`` invocation warm-starts from the first one's probes
# and predictions (``--cache-dir`` on the CLI).  Every entry key already
# embeds the platform/kernel fingerprints, so a snapshot taken against a
# different cost model simply never hits — staleness needs no protocol.
# The version stamp guards the pickle layout itself: snapshots written by
# an incompatible build are ignored wholesale, never half-loaded.

#: bump when the snapshot payload layout, any pickled value type, or the
#: key encoding changes (2: framed fingerprints)
SNAPSHOT_VERSION = 2

_SNAPSHOT_FORMAT = "repro-cache-snapshot"


def save_snapshot(path: str | os.PathLike) -> int:
    """Persist every store's entries to ``path``; returns the entry count.

    The write is atomic (temp file + rename), so a concurrent reader never
    observes a torn snapshot.
    """
    path = Path(path)
    stores = snapshot_stores()
    payload = {
        "format": _SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "stores": stores,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return sum(len(entries) for entries in stores.values())


def load_snapshot(path: str | os.PathLike) -> int:
    """Warm this process's stores from a :func:`save_snapshot` file.

    Returns the number of entries installed.  A missing, unreadable,
    corrupt, or version-incompatible snapshot is ignored (returns 0) —
    a stale cache must never break a run, only fail to speed it up.
    Installed entries do not touch the hit/miss counters.
    """
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except Exception:  # noqa: BLE001 - any unreadable or corrupt file
        return 0
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _SNAPSHOT_FORMAT
        or payload.get("version") != SNAPSHOT_VERSION
        or not isinstance(payload.get("stores"), dict)
    ):
        return 0
    installed = 0
    for name, entries in payload["stores"].items():
        if not isinstance(name, str) or not isinstance(entries, dict):
            continue
        installed += get_cache(name).preload(entries)
    return installed


# -- fingerprints -----------------------------------------------------------
#
# A fingerprint digests everything a cached result depends on, so a cache
# key built from fingerprints is automatically invalidated by any change
# to the underlying model — there is no explicit invalidation protocol.
#
# Keys are framed, not concatenated: every part is fed to the hash as a type
# tag, a byte length, then its payload, and tuples recurse, so two different
# part sequences can never produce the same byte stream.  Bytes-like parts
# and numpy arrays go to the hash as buffers — no ``tobytes()`` copy, never
# ``repr()`` — so a key costs time in proportion to its metadata plus one
# pass over any raw payload.  An array's frame carries its dtype and shape.

_LENGTH = struct.Struct("<Q").pack


def _feed(update: Callable[[Any], None], part: object) -> None:
    """Feed one framed part to ``update`` (a hash's ``update`` method)."""
    # no ndarray can exist before numpy is imported, so an unloaded numpy
    # means no part is an array and the fingerprint path never loads it
    np = sys.modules.get("numpy")
    if type(part) is tuple:
        update(b"T" + _LENGTH(len(part)))
        for item in part:
            _feed(update, item)
    elif np is not None and isinstance(part, np.ndarray):
        if part.dtype.hasobject:
            raise TypeError("cannot fingerprint an object array")
        header = f"{part.dtype.str}{part.shape}".encode()
        data = np.ascontiguousarray(part)
        update(b"A" + _LENGTH(len(header)) + header + _LENGTH(data.nbytes))
        update(data)
    elif isinstance(part, (bytes, bytearray, memoryview)):
        update(b"B" + _LENGTH(memoryview(part).nbytes))
        update(part)
    else:
        text = (part if isinstance(part, str) else repr(part)).encode()
        tag = b"S" if isinstance(part, str) else b"R"
        update(tag + _LENGTH(len(text)) + text)


def _digest(*parts: object) -> str:
    h = hashlib.sha1()
    _feed(h.update, parts)
    return h.hexdigest()[:16]


def device_fingerprint(device) -> str:
    """Digest of one device's spec and cost model (timing inputs)."""
    return _digest(device.device_id, device.spec, device.cost_model)


def platform_fingerprint(platform) -> str:
    """Digest of a whole platform: devices plus host links."""
    return _digest(
        tuple(device_fingerprint(d) for d in platform.devices),
        tuple(sorted(
            (dev_id, link) for dev_id, link in platform.links.items()
        )),
    )


#: ``id(kernel) -> (weak reference, fingerprint)`` for live kernels.  The
#: memo sits beside the kernel, never in its ``__dict__`` (artifacts and
#: cells must pickle the same bytes whether or not a kernel was keyed), and
#: the weak reference's callback drops the entry as the kernel dies, before
#: its id can be reused.  Kernels are frozen, and their prefix arrays are
#: treated as immutable once built: editing one in place after the kernel
#: was fingerprinted would leave a stale key.
_KERNEL_FPS: dict[int, tuple[weakref.ref, str]] = {}


def kernel_fingerprint(kernel) -> str:
    """Digest of a kernel's cost model and access shapes.

    The functional body (``impl``/``params``) is excluded — it never
    affects simulated timing.  PREFIX extents and imbalanced work weights
    do affect probe sizes and work units, so the arrays themselves are
    framed in (dtype, shape and buffer).  Memoized per kernel object: a
    matched program is keyed by several stores, and SpMV's arrays are MBs.
    """
    key = id(kernel)
    entry = _KERNEL_FPS.get(key)
    if entry is not None:
        return entry[1]
    access_parts = []
    for acc in kernel.accesses:
        access_parts.append((
            acc.array.name,
            acc.array.n_elems,
            acc.array.elem_bytes,
            acc.mode.value,
            acc.pattern.value,
            acc.elems_per_index,
            acc.halo,
            acc.prefix,
        ))
    fp = _digest(
        kernel.name, kernel.cost, tuple(access_parts), kernel.work_prefix
    )
    _KERNEL_FPS[key] = (
        weakref.ref(kernel, lambda _, key=key: _KERNEL_FPS.pop(key, None)),
        fp,
    )
    return fp
