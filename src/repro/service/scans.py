"""The service's scan table: its one feature cache, keyed by content.

Stage-1 extraction is a pure function of (scan, extraction
configuration), so :func:`~repro.runtime.cache.scan_key` identifies a
scan's features exactly, whatever transport delivered the scan.  The
:class:`ScanTable` keys the service's single
:class:`~repro.runtime.cache.FeatureCache` that way.  An entry is a
:class:`Scan`, an extraction running or done.  So a scan that several
requests carry (the ego scan every partner of a V2V frame is matched
against) is extracted once, and a request that arrives while that
extraction runs waits for it instead of starting another.  Cache on/off
is response-byte-identical: the cache only short-circuits a
deterministic recomputation.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Hashable

import numpy as np

from repro.bev.projection import BVImage
from repro.comms.tiers import Tier, TieredMessage
from repro.core.config import BBAlignConfig
from repro.obs.metrics import MetricsRegistry
from repro.pointcloud.cloud import PointCloud
from repro.runtime.cache import FeatureCache, extraction_fingerprint, scan_key
from repro.runtime.shm import SharedObjects, ShmBlockRef

__all__ = ["Scan", "ScanTable", "scan_of"]

#: Entry bound far above what any byte budget admits; the byte budget
#: is the real limiter (entries are megabytes each).
_CACHE_MAX_ENTRIES = 1024
#: The counters perfbench and the tests read (named for the per-worker
#: caches this table replaced).
_COUNTER = "service/worker_cache/"


def _features_nbytes(features, _depth: int = 0) -> int:
    """Rough footprint of a feature object: the arrays it references.

    Generic attribute walk (``__slots__`` / ``__dict__``) so feature
    shapes can grow fields without this under-counting to zero; caps
    recursion instead of chasing arbitrary object graphs.
    """
    if isinstance(features, np.ndarray):
        return features.nbytes
    if _depth >= 3 or features is None or isinstance(
            features, (int, float, str, bytes, bool, tuple, list)):
        return 0
    names = getattr(features, "__slots__", None)
    if names is None:
        names = vars(features).keys() if hasattr(features, "__dict__") \
            else ()
    return sum(_features_nbytes(getattr(features, name, None), _depth + 1)
               for name in names)


def scan_of(message: TieredMessage) -> PointCloud | BVImage | None:
    """The scan ``message`` carries for stage 1 to extract — its
    full-scan cloud or its BV image — or ``None``: other tiers go to the
    match as they are."""
    if message.tier is Tier.FULL_SCAN:
        return message.cloud
    if message.tier is Tier.BV_IMAGE:
        return message.bv_image
    return None


class Scan:
    """One distinct scan's extraction, shared by the requests carrying it.

    ``task`` resolves to the features — in process, or as a descriptor
    of the shared segment ``block`` a worker wrote them into — or to the
    failure response every waiting request answers with.  ``holders``
    counts the requests still using the scan; ``block`` is freed once
    none does and the cache no longer holds the scan either.
    """

    __slots__ = ("key", "task", "block", "holders", "cached")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.task: asyncio.Task | None = None
        self.block: ShmBlockRef | None = None
        self.holders = 0
        self.cached = False


class ScanTable:
    """The service's one feature cache, keyed by scan content.

    Bounded by ``cache_mb`` MiB of features (``0`` disables storage,
    and with it the sharing of running extractions).  Lookups count
    into the service registry's
    ``service/worker_cache/{hits,misses,evictions}`` counters; joining
    a running extraction is a hit.  ``free`` unlinks a segment that no
    request and no cache entry holds any more.
    """

    def __init__(self, config: BBAlignConfig | None, cache_mb: float,
                 registry: MetricsRegistry,
                 free: Callable[[ShmBlockRef], None]) -> None:
        self.fingerprint = extraction_fingerprint(config or BBAlignConfig())
        self.cache = (FeatureCache(max_entries=_CACHE_MAX_ENTRIES,
                                   max_bytes=int(cache_mb * 1024 * 1024),
                                   on_evict=self._evicted)
                      if cache_mb > 0 else FeatureCache(max_entries=0))
        self._registry = registry
        self._free = free

    def acquire(self, scan: PointCloud | BVImage) -> tuple[Scan, bool]:
        """Hold ``scan``'s extraction; whether it is new (the caller
        then starts it)."""
        key = scan_key(scan, self.fingerprint)
        entry = self.cache.get(key)
        self._registry.counter(
            _COUNTER + ("misses" if entry is None else "hits")).inc()
        new = entry is None
        if new:
            entry = Scan(key)
            self._put(entry, 0)
        entry.holders += 1
        return entry, new

    def finish(self, scan: Scan, features: object) -> None:
        """Record a finished extraction's features; the cache budget
        counts their bytes."""
        if isinstance(features, SharedObjects):
            scan.block = features.block
            nbytes = features.block.payload_bytes
        else:
            nbytes = _features_nbytes(features)
        if scan.cached:
            self._put(scan, nbytes)

    def fail(self, scan: Scan) -> None:
        """Forget a failed extraction, so a later request retries it."""
        if scan.cached:
            self.cache.discard(scan.key)

    def release(self, scan: Scan) -> None:
        """A request is done with ``scan``."""
        scan.holders -= 1
        self._maybe_free(scan)

    def limit_bytes(self, nbytes: int) -> None:
        """Lower the cache's byte budget to ``nbytes`` (at least 1)."""
        if self.cache.max_entries:
            self.cache.max_bytes = max(1, min(self.cache.max_bytes, nbytes))

    def clear(self) -> None:
        """Drop every entry (service shutdown), freeing its segment."""
        self.cache.clear()

    def _put(self, scan: Scan, nbytes: int) -> None:
        evictions = self.cache.evictions
        self.cache.put(scan.key, scan, nbytes=nbytes)
        scan.cached = scan.key in self.cache
        if self.cache.evictions > evictions:
            self._registry.counter(_COUNTER + "evictions").inc(
                self.cache.evictions - evictions)

    def _evicted(self, _key: Hashable, scan: Scan) -> None:
        scan.cached = False
        self._maybe_free(scan)

    def _maybe_free(self, scan: Scan) -> None:
        if scan.block is not None and not scan.cached \
                and not scan.holders:
            self._free(scan.block)
            scan.block = None
