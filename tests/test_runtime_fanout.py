"""Parallel equals serial for the in-process fan-out.

:func:`repro.runtime.fanout.fan_out` runs a fleet frame's extractions
and edges, and a pair's two extractions, on threads.  Every test here
forces the CPU count to 2 and to 1 (monkeypatching the affinity lookup)
and asserts the two runs agree bit for bit: outputs, raised exceptions,
the aligner's last-good pose, and the telemetry the calls record.  The
fork tests check that a fan-out in the parent leaves a pool or a
service started afterwards working, that pool workers run the
primitive serially, and that a fork never hands a child the Log-Gabor
workspace-pool lock held.  The footprint tests bound what fanned
extractions cost the allocator: one extraction's traced peak, and the
page faults two fanned extractions take once warm.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.bev import compute_mim, log_gabor
from repro.bev.log_gabor import LogGaborBank
from repro.comms import Tier, TieredMessage, encode_message
from repro.comms.envelope import ServiceRequest
from repro.comms.tiers import build_message
from repro.core import BBAlign, MultiVehicleAligner
from repro.core.degradation import FailureReason
from repro.detection.simulated import SimulatedDetector
from repro.obs import MetricsRegistry, collect_spans, span, use_registry
from repro.runtime import (
    FeatureCache,
    SweepTimings,
    WorkerPool,
    collect_timings,
    fanout,
    stage,
)
from repro.runtime.fanout import fan_out
from repro.service import PoseService, ServiceConfig
from repro.simulation import (
    DatasetConfig,
    MultiScenarioConfig,
    ScenarioConfig,
    V2VDatasetSim,
)
from repro.simulation.multi import make_multi_frame

FRAMES = 5
DATA_SEED = 2024


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the process look like it may run on n CPUs."""
    def force(n: int) -> None:
        monkeypatch.setattr(fanout, "_affinity", lambda: n)
    return force


@pytest.fixture(scope="module")
def fleet_frames():
    """Five 8-car convoy frames, generated as the fleet benchmark does:
    frame ``[seed, f]``, boxes ``[seed, f, vehicle]``."""
    config = MultiScenarioConfig(
        scenario=ScenarioConfig(same_direction_prob=1.0), num_vehicles=8,
        spacing=22.0, same_direction_prob=1.0, density=2.5, degradation=0)
    detector = SimulatedDetector()
    frames = []
    for index in range(FRAMES):
        frame = make_multi_frame(config, rng=np.random.default_rng(
            [DATA_SEED, index]))
        boxes = [[d.box for d in detector.detect(
            visible, np.random.default_rng([DATA_SEED, index, v]))]
            for v, visible in enumerate(frame.visible)]
        frames.append((index, list(frame.clouds), boxes,
                       frame.candidate_pairs()))
    return frames


@pytest.fixture(scope="module")
def wire_pairs():
    """Three dataset pairs as the pair benchmark exchanges them: the
    ego's cloud and boxes, the partner's BV-image-tier wire bytes."""
    dataset = V2VDatasetSim(DatasetConfig(num_pairs=3, seed=DATA_SEED))
    detector = SimulatedDetector()
    matcher = BBAlign().bv_matcher
    pairs = []
    for index in range(3):
        pair = dataset[index].pair
        ego = detector.detect(pair.ego_visible, np.random.default_rng(
            [DATA_SEED, index, 0]))
        other = detector.detect(pair.other_visible, np.random.default_rng(
            [DATA_SEED, index, 1]))
        wire = encode_message(TieredMessage(
            Tier.BV_IMAGE, [d.box.to_bev() for d in other],
            bv_image=matcher.make_bv_image(pair.other_cloud)))
        pairs.append((index, pair.ego_cloud, pair.other_cloud,
                      [d.box for d in ego], [d.box for d in other], wire))
    return pairs


@pytest.fixture(scope="module")
def bv_pairs(wire_pairs):
    """The BV images of both scans of each ``wire_pairs`` pair (192 px,
    the default configuration)."""
    matcher = BBAlign().bv_matcher
    return [(matcher.make_bv_image(ego), matcher.make_bv_image(other))
            for _, ego, other, *_ in wire_pairs]


def extract_with_mim(matcher, bv) -> tuple:
    """``matcher.extract(bv)`` and, beside it on the same thread, the
    MIM it was described from (features keep no MIM maps)."""
    return matcher.extract(bv), compute_mim(bv, matcher.config.log_gabor)


def features_digest(extracted: tuple) -> str:
    """SHA-256 of an :func:`extract_with_mim` result: the MIM maps,
    keypoints and descriptors."""
    features, mim = extracted
    descriptors = features.descriptors
    digest = hashlib.sha256()
    for array in (mim.mim, mim.max_amplitude,
                  features.keypoints.xy, descriptors.descriptors,
                  descriptors.keypoint_xy, descriptors.keypoint_indices,
                  descriptors.dominant_bins):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def result_key(result) -> tuple:
    """Everything a recovery reports, in comparable form."""
    stage1 = result.stage1
    return (result.transform, result.transform_3d.matrix.tobytes(),
            result.success, result.inliers_bv, result.inliers_box,
            result.message_bytes, result.failure_reason,
            result.degradation, result.diagnostics,
            stage1.transform, stage1.num_matches, stage1.used_flip,
            stage1.ransac.inlier_mask.tobytes(),
            result.stage2.correction, result.stage2.success)


def telemetry(registry: MetricsRegistry, events: list[dict]) -> tuple:
    """Counter values, histogram counts and the span tree (ids and
    parents) — the parts of a recording that do not depend on time."""
    return (dict(registry.counter_values()),
            {name: h.count for name, h in registry.histograms.items()},
            [(e["name"], e["span_id"], e["parent_id"]) for e in events])


# ----------------------------------------------------------------------
# The primitive
# ----------------------------------------------------------------------
class TestFanOut:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_in_item_order(self, cpus, n):
        cpus(n)
        assert list(fan_out(lambda x: x * x, range(20))) == [
            x * x for x in range(20)]

    def test_uses_threads_and_caller_takes_part(self, cpus):
        cpus(2)
        barrier = threading.Barrier(2, timeout=30)

        def name(_item):
            barrier.wait()  # both threads must be in an item at once
            return threading.current_thread().name

        names = list(fan_out(name, range(2)))
        assert threading.current_thread().name in names
        assert len(set(names)) == 2

    def test_one_cpu_is_a_plain_loop(self, cpus):
        cpus(1)
        main = threading.current_thread().name
        assert set(fan_out(lambda _: threading.current_thread().name,
                           range(4))) == {main}

    def test_nested_fan_out_runs_inline(self, cpus):
        cpus(2)

        def inner(_item):
            assert fanout._thread_count() == 1
            here = threading.current_thread().name
            return {threading.current_thread().name
                    for _ in fan_out(lambda x: x, range(3))} == {here}

        assert all(fan_out(inner, range(4)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_exception_surfaces_at_its_position(self, cpus, n):
        """Earlier results are yielded first; the failing item's own
        telemetry is kept, later items' is not — as in the loop, where
        they never ran."""
        cpus(n)

        def work(item):
            from repro.obs import counter
            counter("items").inc()
            if item == 2:
                raise ValueError("item 2")
            return item

        registry = MetricsRegistry()
        seen = []
        with use_registry(registry):
            with pytest.raises(ValueError, match="item 2"):
                for value in fan_out(work, range(6)):
                    seen.append(value)
        assert seen == [0, 1]
        assert registry.counters["items"].value == 3

    def test_telemetry_equals_serial(self, cpus):
        def work(item):
            from repro.obs import counter, histogram
            with span("outer", item=item):
                counter("items").inc()
                with span("inner"):
                    histogram("values").observe(float(item))
            return item

        recorded = []
        for n in (1, 2):
            cpus(n)
            registry = MetricsRegistry()
            with use_registry(registry), collect_spans() as collector:
                with span("root"):
                    assert list(fan_out(work, range(7))) == list(range(7))
                with span("after"):
                    pass
            recorded.append((telemetry(registry, collector.events),
                             registry.histograms["values"].total))
        assert recorded[0] == recorded[1]


def run_threads(target, count: int) -> None:
    """Run ``target(slot)`` on ``count`` threads with a short switch
    interval, so interleavings that lose an update show up."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(slot,))
                   for slot in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestSharedStateUnderThreads:
    """More threads than cores on the state fanned-out items share."""

    def test_threads_on_one_bank_match_serial(self):
        bank = LogGaborBank(64)
        rng = np.random.default_rng(3)
        images = [rng.random((64, 64)) for _ in range(8)]
        serial = [bank.orientation_amplitude_sum(image) for image in images]
        results: dict[int, list] = {}
        barrier = threading.Barrier(4, timeout=60)

        def worker(slot: int) -> None:
            results[slot] = []
            for _ in range(3):
                barrier.wait()
                for step in range(len(images)):
                    index = (step + slot) % len(images)
                    results[slot].append(
                        (index, bank.orientation_amplitude_sum(
                            images[index])))

        run_threads(worker, 4)
        for slot in range(4):
            assert len(results[slot]) == 3 * len(images)
            for index, sums in results[slot]:
                assert np.array_equal(sums, serial[index])

    def test_concurrent_workspaces_never_share_buffers(self):
        """Each thread fills every buffer of the workspace it holds with
        its own byte, lets the others run, and must find the byte
        intact; the barrier makes all four hold a workspace at once."""
        bank = LogGaborBank(32)
        with bank._workspace() as first, bank._workspace() as second:
            assert not any(np.shares_memory(a, b)
                           for a in first for b in second)
        barrier = threading.Barrier(4, timeout=60)
        clobbered: list[int] = []

        def worker(slot: int) -> None:
            for round_ in range(20):
                with bank._workspace() as buffers:
                    for buffer in buffers:
                        buffer.view(np.uint8).fill(slot)
                    if round_ == 0:
                        barrier.wait()
                    time.sleep(0)
                    if not all((buffer.view(np.uint8) == slot).all()
                               for buffer in buffers):
                        clobbered.append(slot)

        run_threads(worker, 4)
        assert clobbered == []
        assert len(bank._free) == 4  # one set per call that overlapped


class TestExtractionParallelEqualsSerial:
    def test_fanned_extractions_match_serial_across_calls(self, cpus,
                                                          bv_pairs):
        """MIM and descriptor digests of every scan, extracted pairwise
        through fan_out three times over, equal the serial ones: the
        pooled workspaces carry nothing from one call to the next."""
        matcher = BBAlign().bv_matcher
        cpus(1)
        serial = [[features_digest(extract_with_mim(matcher, bv))
                   for bv in pair] for pair in bv_pairs]
        cpus(2)
        extract = functools.partial(extract_with_mim, matcher)
        for _ in range(3):
            for pair, expected in zip(bv_pairs, serial):
                assert [features_digest(extracted) for extracted in
                        fan_out(extract, pair)] == expected


# ----------------------------------------------------------------------
# The two call sites
# ----------------------------------------------------------------------
class TestAlignParallelEqualsSerial:
    def _align(self, frames, cache=None):
        multi = MultiVehicleAligner()
        registry = MetricsRegistry()
        outputs = []
        with use_registry(registry):
            for index, clouds, boxes, pairs in frames:
                outputs.append(multi.align(
                    clouds, boxes, rng=np.random.default_rng(
                        [DATA_SEED, index, 99]),
                    pairs=pairs, cache=cache))
        return outputs, multi.aligner.last_good_transform, registry

    @staticmethod
    def _key(alignment) -> tuple:
        return (alignment.poses,
                {pair: result_key(result)
                 for pair, result in alignment.recoveries.items()},
                alignment.edges, alignment.rejected_edges,
                alignment.edge_residuals, alignment.cycle_residuals)

    def test_fleet_frames_bit_identical(self, cpus, fleet_frames):
        runs = []
        for n in (1, 2):
            cpus(n)
            outputs, last_good, registry = self._align(fleet_frames)
            runs.append(([self._key(a) for a in outputs], last_good,
                         telemetry(registry, [])))
        assert runs[0][1] is not None  # some edge succeeded
        assert runs[0] == runs[1]

    def test_fleet_stage_timings_equal_across_cpus(self, cpus,
                                                   fleet_frames):
        """``align`` passes no timer, yet a ``collect_timings`` report
        sees its extractions and edges, the same counts at 1 and 2
        CPUs."""
        index, clouds, boxes, pairs = fleet_frames[0]
        counts = []
        for n in (1, 2):
            cpus(n)
            with collect_timings() as timings:
                MultiVehicleAligner().align(
                    clouds, boxes, rng=np.random.default_rng(
                        [DATA_SEED, index, 99]), pairs=pairs)
            counts.append({name: timings.stage_count(name)
                           for name in timings.seconds})
        assert counts[0]["stage1_match"] == len(pairs)
        assert counts[0]["bv_extract"] == len(clouds)
        assert counts[0]["bv_extract/mim"] == len(clouds)
        assert counts[0] == counts[1]

    def test_cache_replays_loop_order(self, cpus, fleet_frames):
        """A cache too small for a frame: the second align of a frame
        finds vehicles 4-7 cached, and each miss's put evicts one of
        them before its lookup — the inline-extraction branch."""
        frame = fleet_frames[:1]
        runs = []
        for n in (1, 2):
            cpus(n)
            cache = FeatureCache(max_entries=4)
            first, _, _ = self._align(frame, cache)
            second, last_good, registry = self._align(frame, cache)
            runs.append(([self._key(a) for a in first + second], last_good,
                         (cache.hits, cache.misses, cache.evictions),
                         list(cache._entries), telemetry(registry, [])))
        assert runs[0][2] == (0, 16, 12)
        assert runs[0] == runs[1]

    def test_edge_error_raises_after_earlier_edges_settle(self, cpus,
                                                          fleet_frames):
        """A bad box list on one vehicle raises TypeError from its first
        edge; every edge before it has already updated the last-good
        pose, exactly as in a loop of ``recover`` calls."""
        index, clouds, boxes, pairs = fleet_frames[0]
        bad = max(j for _, j in pairs)
        broken = list(boxes)
        broken[bad] = ["not a box"]
        root = int(np.random.default_rng([DATA_SEED, index, 99]).integers(
            0, 2 ** 31))
        loop = BBAlign()
        features = [loop.extract_features(cloud) for cloud in clouds]
        with pytest.raises(TypeError, match="Box2D or Box3D"):
            for i, j in pairs:
                loop.recover(features[i], features[j], broken[i],
                             broken[j], rng=np.random.default_rng(
                                 [root, i, j]))
        assert loop.last_good_transform is not None

        cpus(2)
        multi = MultiVehicleAligner()
        with pytest.raises(TypeError, match="Box2D or Box3D"):
            multi.align(clouds, broken, rng=np.random.default_rng(
                [DATA_SEED, index, 99]), pairs=pairs)
        assert multi.aligner.last_good_transform == \
            loop.last_good_transform


class TestRecoverParallelEqualsSerial:
    @staticmethod
    def _recover(wire_pairs, use_wire: bool, traced: bool):
        aligner = BBAlign()
        registry = MetricsRegistry()
        timings = SweepTimings(registry)
        keys = []
        with use_registry(registry), collect_spans() as collector:
            for index, ego, other_cloud, ego_boxes, other_boxes, wire \
                    in wire_pairs:
                aligner.reset_temporal()
                rng = np.random.default_rng([DATA_SEED, index, 2])
                timer = functools.partial(stage, timings) if traced \
                    else None
                with span("pair"):
                    if use_wire:
                        result = aligner.recover(ego, wire, ego_boxes,
                                                 rng=rng, timer=timer)
                    else:
                        result = aligner.recover(ego, other_cloud,
                                                 ego_boxes, other_boxes,
                                                 rng=rng, timer=timer)
                keys.append(result_key(result))
        return keys, telemetry(registry, collector.events)

    @pytest.mark.parametrize("use_wire", [True, False],
                             ids=["bv-image-wire", "two-clouds"])
    def test_pairs_bit_identical(self, cpus, wire_pairs, use_wire):
        runs = []
        for n in (1, 2):
            cpus(n)
            runs.append(self._recover(wire_pairs, use_wire, traced=True))
        counters, histograms, spans = runs[0][1]
        assert histograms["stage/bv_extract"] == 2 * len(wire_pairs)
        assert any(name == "bv_extract/mim" for name, _, _ in spans)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("failing", ["ego", "other"])
    def test_extraction_error_degrades_as_serial(self, cpus, wire_pairs,
                                                 monkeypatch, failing):
        index, ego, other_cloud, ego_boxes, other_boxes, _ = wire_pairs[0]
        target = ego if failing == "ego" else other_cloud

        def run(threads: int):
            cpus(threads)
            aligner = BBAlign()
            extract = aligner.bv_matcher.extract_from_cloud

            def flaky(cloud, **kwargs):
                if cloud is target:
                    raise RuntimeError(f"{failing} extraction failed")
                return extract(cloud, **kwargs)

            monkeypatch.setattr(aligner.bv_matcher, "extract_from_cloud",
                                flaky)
            registry = MetricsRegistry()
            with use_registry(registry):
                result = aligner.recover(ego, other_cloud, ego_boxes,
                                         other_boxes, rng=index)
            return result_key(result), telemetry(registry, [])

        serial, parallel = run(1), run(2)
        assert serial[0][6] is FailureReason.EXTRACTION_ERROR
        assert failing in serial[0][8].stage1_error
        assert serial == parallel


# ----------------------------------------------------------------------
# Fork safety and pool workers
# ----------------------------------------------------------------------
def _worker_fan_out() -> tuple[int, set[str], str]:
    """Run in a pool worker: the fan-out's thread count and threads."""
    names = set(fan_out(lambda _: threading.current_thread().name,
                        range(6)))
    return fanout._thread_count(), names, threading.current_thread().name


class TestForkAndWorkers:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_while_workspace_lock_held_extracts_in_child(self,
                                                              bv_pairs):
        """Another thread holds the workspace-pool lock as the parent
        forks: the fork waits for it, so the child, which has no such
        thread, finds the lock free and extracts the same features."""
        matcher = BBAlign().bv_matcher
        bv = bv_pairs[0][0]
        expected = features_digest(extract_with_mim(matcher, bv))
        held, release = threading.Event(), threading.Event()

        def holder() -> None:
            with log_gabor._WORKSPACE_LOCK:
                held.set()
                release.wait(timeout=60)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(timeout=60)
        # Release while the fork below waits for the lock.
        timer = threading.Timer(0.2, release.set)
        timer.start()
        pid = os.fork()
        if pid == 0:  # the child: exit with the verdict, never return
            code = 1
            try:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(30)  # a lock inherited held hangs here
                code = 0 if features_digest(
                    extract_with_mim(matcher, bv)) == expected else 2
            finally:
                os._exit(code)
        timer.join(timeout=60)
        thread.join(timeout=60)
        assert not thread.is_alive()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_pool_after_fan_out_runs_serially_in_workers(self, cpus,
                                                         wire_pairs):
        cpus(2)  # the forked worker inherits the forced count
        index, ego, other_cloud, ego_boxes, other_boxes, wire = \
            wire_pairs[0]
        BBAlign().recover(ego, wire, ego_boxes, rng=index)  # fans out
        pool = WorkerPool(1)
        try:
            threads, names, worker = pool.submit(_worker_fan_out).result(
                timeout=60)
        finally:
            pool.shutdown(kill_workers=True)
        assert threads == 1
        assert names == {worker}

    def test_service_after_fan_out_answers(self, cpus, wire_pairs):
        """The parent fans out a full-scan recovery, then a service
        forked afterwards answers the same request, serially in its
        worker, with the same pose."""
        cpus(2)
        _, ego, other_cloud, ego_boxes, other_boxes, _ = wire_pairs[0]
        ego_message = build_message(Tier.FULL_SCAN, ego_boxes, cloud=ego)
        other_message = build_message(Tier.FULL_SCAN, other_boxes,
                                      cloud=other_cloud)
        config = ServiceConfig(workers=1, batch_size=1,
                               heartbeat_interval=0.05)
        request_id = 7
        expected = BBAlign().recover(
            ego, other_message, ego_message.boxes,
            rng=np.random.default_rng([config.seed, request_id, 2]))

        async def scenario():
            async with PoseService(config) as service:
                return await service.submit_nowait(ServiceRequest(
                    request_id=request_id, ego=ego_message,
                    other=other_message))

        response = asyncio.run(asyncio.wait_for(scenario(), timeout=120))
        assert response.status == "ok"
        assert (response.tx, response.ty, response.theta) == (
            expected.transform.tx, expected.transform.ty,
            expected.transform.theta)
        assert response.inliers_bv == expected.inliers_bv


# ----------------------------------------------------------------------
# Extraction footprint
# ----------------------------------------------------------------------
class TestExtractionFootprint:
    """Fanned extractions run on the allocator's per-thread arenas, so
    what one extraction allocates is paid once per concurrent call and
    must stay small, and warm calls must not fault in fresh pages."""

    def test_extraction_peak_is_bounded(self, bv_pairs):
        """One warmed extraction of a default 192-px scan allocates at
        most 6 MB at its peak (12.6 MB before the Log-Gabor stack and
        the all-keypoint vote arrays went)."""
        matcher = BBAlign().bv_matcher
        bv = bv_pairs[0][0]
        assert bv.size == 192
        matcher.extract(bv)  # builds the bank, the grids, a workspace
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            matcher.extract(bv)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 6e6

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads Linux minor-fault counts")
    def test_fanned_extraction_takes_few_page_faults(self, cpus,
                                                      bv_pairs):
        """Once warm, two extractions through fan_out take fewer than
        500 minor page faults per pair (about 5,000 when the process was
        capped to one malloc arena, which unmapped the temporaries)."""
        import resource

        cpus(2)
        matcher = BBAlign().bv_matcher
        for pair in bv_pairs:  # warm-up
            list(fan_out(matcher.extract, pair))
        rounds = 3
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(rounds):
            for pair in bv_pairs:
                list(fan_out(matcher.extract, pair))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / (rounds * len(bv_pairs)) < 500
