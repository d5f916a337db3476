"""Tests for the warm worker cache.

The cache contract: byte-budget LRU bounds compose with the entry
bound, counters are exact, and — the service-level guarantee — cache
on/off is *response-byte-identical* (the cache only short-circuits a
deterministic recomputation).
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.comms.envelope import ServiceRequest
from repro.comms.tiers import Tier, TieredMessage, build_message
from repro.runtime.cache import FeatureCache
from repro.service import PoseService, ServiceConfig
from repro.service.scans import _features_nbytes
from repro.simulation.dataset import DatasetConfig, V2VDatasetSim

DATASET = DatasetConfig(num_pairs=2, seed=2024)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


def scan_messages(index: int = 0):
    pair = V2VDatasetSim(DATASET)[index].pair
    return (build_message(Tier.FULL_SCAN, [], cloud=pair.ego_cloud),
            build_message(Tier.FULL_SCAN, [], cloud=pair.other_cloud))


class TestByteBudget:
    def test_byte_budget_evicts_least_recent(self):
        cache = FeatureCache(max_entries=64, max_bytes=100)
        cache.put("a", "A", nbytes=40)
        cache.put("b", "B", nbytes=40)
        cache.put("c", "C", nbytes=40)  # 120 > 100: evict "a"
        assert "a" not in cache and "b" in cache and "c" in cache
        assert cache.evictions == 1
        assert cache.total_bytes == 80

    def test_recency_protects_entries(self):
        cache = FeatureCache(max_entries=64, max_bytes=100)
        cache.put("a", "A", nbytes=40)
        cache.put("b", "B", nbytes=40)
        assert cache.get("a") == "A"  # refresh "a"
        cache.put("c", "C", nbytes=40)  # now "b" is least recent
        assert "a" in cache and "b" not in cache

    def test_oversized_entry_degrades_to_cache_of_one(self):
        cache = FeatureCache(max_entries=64, max_bytes=100)
        cache.put("a", "A", nbytes=40)
        cache.put("huge", "H", nbytes=500)
        assert "huge" in cache and "a" not in cache
        assert len(cache) == 1  # stored despite exceeding the budget

    def test_refresh_replaces_size(self):
        cache = FeatureCache(max_entries=64, max_bytes=100)
        cache.put("a", "A", nbytes=90)
        cache.put("a", "A2", nbytes=10)
        assert cache.total_bytes == 10
        cache.put("b", "B", nbytes=80)
        assert "a" in cache and "b" in cache

    def test_entry_bound_still_applies(self):
        cache = FeatureCache(max_entries=2, max_bytes=10**9)
        for key in "abc":
            cache.put(key, key, nbytes=1)
        assert len(cache) == 2 and "a" not in cache

    def test_on_evict_hears_every_departure(self):
        """Trimmed, replaced, discarded and cleared values all reach the
        owner's callback; a refresh of the same value does not."""
        gone = []
        cache = FeatureCache(max_entries=2, max_bytes=100,
                             on_evict=lambda key, value: gone.append(value))
        cache.put("a", "A", nbytes=10)
        cache.put("a", "A", nbytes=20)  # same value, new size
        cache.put("b", "B", nbytes=10)
        cache.put("c", "C", nbytes=10)  # entry bound trims "a"
        cache.put("b", "B2", nbytes=10)  # replaced by a different value
        cache.discard("c")
        cache.discard("missing")
        cache.clear()
        assert gone == ["A", "B", "C", "B2"]
        assert cache.evictions == 0  # clear() resets the counters

    def test_shm_space_lowers_the_service_budget(self):
        """The service's cache keeps features in /dev/shm segments, so
        its budget never exceeds the share of free space it is given;
        a disabled cache stays disabled."""
        from repro.obs.metrics import MetricsRegistry
        from repro.service.scans import ScanTable

        table = ScanTable(None, 64, MetricsRegistry(), free=lambda _: None)
        table.limit_bytes(1 << 20)
        assert table.cache.max_bytes == 1 << 20
        table.limit_bytes(1 << 30)
        assert table.cache.max_bytes == 1 << 20
        off = ScanTable(None, 0, MetricsRegistry(), free=lambda _: None)
        off.limit_bytes(1 << 20)
        assert off.cache.max_entries == 0

    def test_clear_resets_byte_accounting(self):
        cache = FeatureCache(max_entries=4, max_bytes=100)
        cache.put("a", "A", nbytes=40)
        cache.clear()
        assert cache.total_bytes == 0 and len(cache) == 0


class TestWorkerHelpers:
    def test_features_nbytes_walks_attributes(self):
        class Inner:
            __slots__ = ("image",)

            def __init__(self):
                self.image = np.zeros((4, 4))

        class Outer:
            def __init__(self):
                self.inner = Inner()
                self.xy = np.zeros((3, 2), dtype=np.int64)
                self.name = "not an array"

        expected = 4 * 4 * 8 + 3 * 2 * 8
        assert _features_nbytes(Outer()) == expected
        assert _features_nbytes(np.zeros(10)) == 80
        assert _features_nbytes(None) == 0


class TestWarmCacheService:
    def test_hit_counters_monotonic_across_requests(self):
        """Repeated identical scan pairs: the second and later requests
        hit the warm cache, and the merged counters only ever grow."""
        ego, other = scan_messages()

        async def scenario():
            config = ServiceConfig(dataset_config=DATASET, workers=1,
                                   heartbeat_interval=0.05)
            async with PoseService(config) as service:
                observed = []
                for n in range(3):
                    await service.submit(ServiceRequest(
                        request_id=1, ego=ego, other=other))
                    counters = service.registry.counter_values(
                        "service/worker_cache/")
                    observed.append(
                        (counters.get("service/worker_cache/hits", 0),
                         counters.get("service/worker_cache/misses", 0)))
                return observed

        observed = run(scenario())
        hits = [h for h, _ in observed]
        assert hits == sorted(hits)  # monotonic
        # First request misses both sides, later ones hit both.
        assert observed[0] == (0, 2)
        assert observed[-1][0] >= 4

    def test_cache_on_off_byte_identical(self):
        """The acceptance contract: every response field equal with the
        cache enabled and disabled, across full-scan and BV tiers."""
        from repro.core.pipeline import BBAlign

        ego, other_full = scan_messages()
        aligner = BBAlign()
        other_bv = build_message(
            Tier.BV_IMAGE, [],
            features=aligner.extract_features(
                V2VDatasetSim(DATASET)[0].pair.other_cloud))
        requests = [
            ServiceRequest(request_id=1, ego=ego, other=other_full),
            ServiceRequest(request_id=2, ego=ego, other=other_bv),
            ServiceRequest(request_id=1, ego=ego, other=other_full),
        ]

        async def leg(cache_mb: float):
            config = ServiceConfig(dataset_config=DATASET, workers=1,
                                   worker_cache_mb=cache_mb,
                                   heartbeat_interval=0.05)
            async with PoseService(config) as service:
                return [await service.submit(request)
                        for request in requests]

        warm = run(leg(64.0))
        cold = run(leg(0.0))
        assert warm == cold

    def test_zero_budget_disables_storage(self):
        cache = FeatureCache(max_entries=0)
        cache.put("a", "A", nbytes=1)
        assert cache.get("a") is None
        assert cache.misses == 1


def shared_ego_requests():
    """Two requests of one V2V frame: the same ego scan against a
    full-scan partner and against a BV-image partner, then a boxes-only
    partner that needs no extraction at all."""
    from repro.core.pipeline import BBAlign

    ego, other_full = scan_messages(0)
    other_bv = TieredMessage(
        Tier.BV_IMAGE, [], bv_image=BBAlign().bv_matcher.make_bv_image(
            V2VDatasetSim(DATASET)[1].pair.other_cloud))
    return [ServiceRequest(request_id=21, ego=ego, other=other_full),
            ServiceRequest(request_id=22, ego=ego, other=other_bv),
            ServiceRequest(request_id=23, ego=ego,
                           other=build_message(Tier.BOXES_ONLY, []))]


def in_process(request: ServiceRequest, seed: int):
    """What ``BBAlign.recover`` answers for ``request`` on the same
    messages and the same stream, as a service response."""
    from repro.comms.envelope import ServiceResponse
    from repro.core.pipeline import BBAlign

    result = BBAlign().recover(
        request.ego.cloud, request.other, request.ego.boxes,
        rng=np.random.default_rng([seed, request.request_id, 2]))
    return ServiceResponse(
        request_id=request.request_id, status="ok",
        success=result.success,
        failure_reason=(result.failure_reason.value
                        if result.failure_reason is not None else None),
        degradation=result.degradation.value,
        inliers_bv=result.inliers_bv, inliers_box=result.inliers_box,
        tx=result.transform.tx, ty=result.transform.ty,
        theta=result.transform.theta)


def serve_together(requests):
    """Submit ``requests`` in one event-loop tick to a 2-worker
    service; their responses and the service's counters."""
    async def scenario():
        config = ServiceConfig(dataset_config=DATASET, workers=2,
                               heartbeat_interval=0.05)
        async with PoseService(config) as service:
            responses = await asyncio.gather(*[
                service.submit_nowait(request) for request in requests])
            return responses, service.registry.counter_values()

    return run(scenario())


class TestScanKeyedExtraction:
    def test_shared_ego_is_extracted_once(self):
        """Two concurrent requests sharing an ego scan: three distinct
        scans, so one hit and three misses, and each answer is
        ``BBAlign.recover``'s on the same messages and stream."""
        requests = shared_ego_requests()[:2]
        responses, counters = serve_together(requests)
        assert counters["service/worker_cache/hits"] == 1
        assert counters["service/worker_cache/misses"] == 3
        seed = ServiceConfig().seed
        assert responses == [in_process(r, seed) for r in requests]

    def test_extraction_error_reaches_every_dependent(self, monkeypatch):
        """Stage 1 raising in the workers: every request waiting on the
        failed extraction gets the extraction-error answer in-process
        recovery gives; one that needs no extraction is unaffected."""
        from repro.core.bv_matching import BVMatcher

        def broken_extract(*args, **kwargs):
            raise RuntimeError("extraction exploded (test)")

        # Class level, before the pool forks: the workers inherit it.
        monkeypatch.setattr(BVMatcher, "extract", broken_extract)
        requests = shared_ego_requests()
        responses, counters = serve_together(requests)
        seed = ServiceConfig().seed
        expected = [in_process(r, seed) for r in requests]
        assert responses == expected
        assert [r.failure_reason for r in responses[:2]] == [
            "extraction-error"] * 2
        assert responses[2].failure_reason != "extraction-error"
        assert counters["pipeline/failure/extraction-error"] == 2
