"""Tests for the zero-copy scan data plane (:mod:`repro.runtime.shm`).

The lifecycle contract under test: the parent owns every segment
(workers attach and close, never unlink), packing fidelity is exact
for every tier-message shape and for extracted features, mapped arrays
are read-only, the shm-pair envelope kind survives encode/decode and
malformed input, the TCP shared-memory fast path returns the same
responses as the wire path, and — the crash-cleanup protocol — chaos
faults leave zero segments in ``/dev/shm``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import glob
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.boxes.box import Box2D
from repro.bev.projection import BVImage
from repro.comms.codec import CodecError
from repro.comms.envelope import (
    ServiceRequest,
    ShmPairRef,
    decode_request,
)
from repro.comms.tiers import (
    KeypointPayload,
    Tier,
    TieredMessage,
    build_message,
)
from repro.pointcloud.cloud import PointCloud
from repro.runtime.faults import WorkerFault
from repro.runtime.shm import (
    SharedObjects,
    ShmArena,
    ShmUnavailableError,
    attach_block,
    load_objects,
    pack_objects,
    read_segment,
    share_objects,
    shm_available,
    write_segment,
)
from repro.service import (
    PoseService,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
)
from repro.service.core import _FEATURE_SEGMENT_BYTES
from repro.service.worker import ExtractTask, run_extract
from repro.simulation.dataset import DatasetConfig, V2VDatasetSim

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no shared memory here")

DATASET = DatasetConfig(num_pairs=2, seed=2024)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


def leaked_segments() -> list[str]:
    return glob.glob("/dev/shm/repro-svc-*") + \
        glob.glob("/dev/shm/repro-test-*")


def sample_boxes() -> list[Box2D]:
    return [Box2D(1.0, -2.0, 4.5, 1.9, 0.3), Box2D(-3.0, 7.0, 4.0, 2.0, -1.2)]


def sample_cloud(n: int = 50, seed: int = 0) -> PointCloud:
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(size=(n, 3)) * 10.0,
                      timestamps=rng.uniform(0.0, 1.0, n),
                      labels=rng.integers(0, 3, n))


class TestArena:
    def test_place_attach_roundtrip(self):
        arena = ShmArena(prefix="repro-test")
        arrays = [np.arange(12, dtype=np.float64).reshape(3, 4),
                  np.empty((0, 3)),
                  np.arange(7, dtype=np.int32),
                  np.ones((2, 2), dtype=np.float32)]
        ref = arena.place(arrays)
        assert arena.active == 1
        assert ref.payload_bytes == sum(a.nbytes for a in arrays)
        views, close = attach_block(ref)
        for original, view, shm_slice in zip(arrays, views, ref.slices):
            assert view.dtype == original.dtype
            np.testing.assert_array_equal(view, original)
            assert not view.flags.writeable  # segments may be resubmitted
            assert shm_slice.offset % 64 == 0  # cache-line aligned
        del views
        close()
        arena.release(ref)
        assert arena.active == 0
        assert not leaked_segments()

    def test_release_is_idempotent(self):
        arena = ShmArena(prefix="repro-test")
        ref = arena.place([np.arange(4.0)])
        arena.release(ref)
        arena.release(ref)  # no-op, no error
        assert arena.active == 0
        assert not leaked_segments()

    def test_release_all_unlinks_every_segment(self):
        arena = ShmArena(prefix="repro-test")
        placed = arena.place([np.arange(4.0)])
        reserved = arena.reserve(1024)
        assert placed.name != reserved.name
        arena.release_all()
        assert arena.active == 0
        assert not leaked_segments()

    def test_finalizer_backstop_unlinks_on_gc(self):
        arena = ShmArena(prefix="repro-test")
        arena.place([np.arange(64.0)])
        assert leaked_segments()
        del arena
        gc.collect()
        assert not leaked_segments()

    def test_views_write_through_until_release(self):
        # The consumer sees exactly what the producer placed, even if
        # the producer's source array mutates afterwards (place copies).
        arena = ShmArena(prefix="repro-test")
        source = np.arange(8.0)
        ref = arena.place([source])
        source[:] = -1.0
        views, close = attach_block(ref)
        np.testing.assert_array_equal(views[0], np.arange(8.0))
        del views
        close()
        arena.release(ref)

    def test_view_outliving_close_stays_readable(self):
        # Unmapping pages under a live view crashes the process that
        # reads it, so the check runs in a child.
        script = textwrap.dedent("""
            import numpy as np
            from repro.runtime.shm import (
                ShmArena, load_objects, share_objects)
            arena = ShmArena(prefix="repro-test")
            view, close = load_objects(share_objects(arena, np.arange(8.0)))
            close()
            assert view.sum() == 28.0
            arena.release_all()
        """)
        child = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert not leaked_segments()

    def test_place_failure_raises_unavailable(self):
        arena = ShmArena(prefix="repro-test")
        arena._sequence = -1  # force a name collision with ourselves
        ref = arena.place([np.arange(4.0)])
        arena._sequence = -1
        with pytest.raises(ShmUnavailableError):
            arena.place([np.arange(4.0)])
        arena.release(ref)

    def test_raw_segment_roundtrip(self):
        segment = write_segment(b"hello shm")
        try:
            assert read_segment(segment.name, 9) == b"hello shm"
            with pytest.raises(ValueError):
                read_segment(segment.name, segment.size + 1)
        finally:
            segment.close()
            segment.unlink()
        with pytest.raises(FileNotFoundError):
            read_segment(segment.name, 1)


def assert_same(got, want):
    """Deep equality; arrays must match in dtype, shape and bytes."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert_same(mine, theirs)
    elif dataclasses.is_dataclass(want) or hasattr(want, "__slots__"):
        names = ([f.name for f in dataclasses.fields(want)]
                 if dataclasses.is_dataclass(want) else want.__slots__)
        for name in names:
            assert_same(getattr(got, name), getattr(want, name))
    else:
        assert got == want


def sample_messages() -> list[TieredMessage]:
    """One message of every tier shape the data plane carries."""
    rng = np.random.default_rng(3)
    bv = BVImage(rng.uniform(size=(32, 32)), cell_size=0.5,
                 lidar_range=40.0, num_nonfinite=2)
    kp = KeypointPayload(
        xy=rng.integers(0, 32, (5, 2)),
        scores=rng.uniform(size=5).astype(np.float64),
        descriptors=rng.uniform(size=(5, 24)),
        image_size=32, cell_size=0.5, lidar_range=40.0,
        grid_size=2, num_orientations=6)
    return [
        build_message(Tier.FULL_SCAN, sample_boxes(),
                      cloud=sample_cloud(80, seed=1)),
        build_message(Tier.FULL_SCAN, [],
                      cloud=PointCloud(np.zeros((3, 3)))),
        TieredMessage(Tier.BV_IMAGE, sample_boxes(), bv_image=bv),
        TieredMessage(Tier.KEYPOINTS, [], keypoints=kp),
        build_message(Tier.BOXES_ONLY, sample_boxes()),
    ]


def assert_roundtrips(samples) -> None:
    """Each sample comes back exact from ``load_objects``, whether the
    parent placed it (``share_objects``) or a worker packed it into a
    segment the parent reserved (``pack_objects``)."""
    arena = ShmArena(prefix="repro-test")
    for want in samples:
        out = arena.reserve(1 << 20)
        for shared in (share_objects(arena, want), pack_objects(out, want)):
            got, close = load_objects(shared)
            assert_same(got, want)
            got = None  # noqa: F841  (drop the views before close)
            close()
    arena.release_all()
    assert arena.active == 0
    assert not leaked_segments()


class TestMessagePacking:
    """Every tier-message shape, one at a time (as an extraction task's
    scan travels) and all together."""

    def test_full_scan_fidelity(self):
        messages = sample_messages()[:2]
        assert_roundtrips([*messages, messages])

    def test_bv_image_and_keypoints_fidelity(self):
        messages = sample_messages()[2:]
        assert_roundtrips([*messages, messages])


class TestObjectPacking:
    """Any picklable object, its array buffers out of band: placed by
    the parent (``share_objects``) or written by a worker into a
    segment the parent reserved (``pack_objects``)."""

    def sample(self) -> dict:
        rng = np.random.default_rng(5)
        return {"image": rng.uniform(size=(16, 16)),
                "fortran": np.asfortranarray(rng.uniform(size=(3, 4))),
                "strided": np.arange(10.0)[::3],
                "empty": np.empty((0, 3)),
                "boxes": sample_boxes(), "scale": 0.4}

    def test_share_and_pack_roundtrip(self):
        assert_roundtrips([self.sample(), [self.sample(), *sample_messages()]])

    def test_loaded_arrays_are_read_only(self):
        arena = ShmArena(prefix="repro-test")
        cloud_message, _, bv_message = sample_messages()[:3]
        got, close = load_objects(share_objects(
            arena, [cloud_message, bv_message]))
        try:
            with pytest.raises(ValueError):
                got[0].cloud.points[0, 0] = 1.0
            with pytest.raises(ValueError):
                got[1].bv_image.image[0, 0] = 1.0
        finally:
            got = None  # noqa: F841
            close()
            arena.release_all()
        assert not leaked_segments()

    def test_pack_refuses_what_does_not_fit(self):
        arena = ShmArena(prefix="repro-test")
        assert pack_objects(arena.reserve(64), self.sample()) is None
        arena.release_all()
        assert not leaked_segments()


class TestRunExtract:
    """The worker's extraction task, run in-process on every data-plane
    path: the features equal ``BBAlign`` extraction bit for bit."""

    def scans(self):
        """A full-scan cloud and a BV image, each with the features
        in-process extraction gives."""
        from repro.core.pipeline import BBAlign

        aligner = BBAlign()
        pair = V2VDatasetSim(DATASET)[0].pair
        bv = aligner.bv_matcher.make_bv_image(pair.other_cloud)
        return [(pair.ego_cloud, aligner.extract_features(pair.ego_cloud)),
                (bv, aligner.bv_matcher.extract(bv))]

    def test_features_equal_in_process_extraction(self):
        arena = ShmArena(prefix="repro-test")
        for data, want in self.scans():
            for scan in (data, share_objects(arena, data)):
                for out in (arena.reserve(_FEATURE_SEGMENT_BYTES), None):
                    _, payload, _ = run_extract(ExtractTask(
                        config=None, scan=scan, out=out))
                    if out is None:
                        assert_same(payload, want)
                        continue
                    assert isinstance(payload, SharedObjects)
                    got, close = load_objects(payload)
                    assert_same(got, want)
                    got = None  # noqa: F841  (drop the views before close)
                    close()
        arena.release_all()
        assert not leaked_segments()


class TestShmEnvelope:
    def test_shm_pair_roundtrip(self):
        ref = ShmPairRef(name="psm_abc123", ego_len=1024, other_len=2048)
        request = ServiceRequest(request_id=7, shm=ref, deadline_ms=250)
        assert request.kind == "shm-pair"
        decoded = decode_request(request.encode())
        assert decoded.shm == ref
        assert decoded.request_id == 7
        assert decoded.deadline_ms == 250
        assert decoded.ego is None and decoded.other is None

    def test_exactly_one_request_form(self):
        ref = ShmPairRef(name="x", ego_len=1, other_len=1)
        scans = TieredMessage(Tier.BOXES_ONLY, [])
        with pytest.raises(ValueError):
            ServiceRequest(request_id=1, ego=scans, other=scans, shm=ref)
        with pytest.raises(ValueError):
            ServiceRequest(request_id=1)

    def test_ref_validation(self):
        with pytest.raises(ValueError):
            ShmPairRef(name="", ego_len=1, other_len=1)
        with pytest.raises(ValueError):
            ShmPairRef(name="x" * 256, ego_len=1, other_len=1)
        with pytest.raises(ValueError):
            ShmPairRef(name="ség", ego_len=1, other_len=1)
        with pytest.raises(ValueError):
            ShmPairRef(name="x", ego_len=-1, other_len=1)

    def test_truncated_payload_is_codec_error(self):
        encoded = ServiceRequest(
            request_id=1, shm=ShmPairRef(name="abcdef", ego_len=4,
                                         other_len=4)).encode()
        # Chop one byte off the segment name; the CRC framing catches
        # byte flips, so rebuild a shorter frame instead: flip the name
        # length to promise more than the payload holds.
        broken = bytearray(encoded)
        # name-length byte sits after the 14-byte request head and the
        # two u32 lengths of the shm block.
        offset = struct.calcsize("<4sIBBI") + 8
        broken[offset] = 250
        with pytest.raises(CodecError):
            decode_request(bytes(broken))


def scan_request_messages(index: int = 0):
    pair = V2VDatasetSim(DATASET)[index].pair
    ego = build_message(Tier.FULL_SCAN, [], cloud=pair.ego_cloud)
    other = build_message(Tier.FULL_SCAN, [], cloud=pair.other_cloud)
    return ego, other


class TestShmTransport:
    def test_request_shm_matches_wire_path(self):
        ego, other = scan_request_messages()

        async def scenario():
            config = ServiceConfig(workers=2, heartbeat_interval=0.05)
            service = PoseService(config)
            await service.start()
            server = ServiceServer(service)
            await server.start()
            client = await ServiceClient.connect(server.host, server.port)
            try:
                via_shm = await client.request_shm(ego, other)
                via_wire = await client.request(ServiceRequest(
                    request_id=1, ego=ego, other=other))
                counters = service.registry.counter_values("service/shm/")
            finally:
                await client.close()
                await server.stop()
                await service.stop()
            return via_shm, via_wire, counters

        via_shm, via_wire, counters = run(scenario())
        assert via_shm.status == "ok"
        # The client reallocates ids per request, so compare payloads.
        for field in ("status", "success", "degradation", "tx", "ty",
                      "theta", "inliers_bv", "inliers_box"):
            assert getattr(via_shm, field) == getattr(via_wire, field)
        assert counters["service/shm/requests"] == 1
        assert not leaked_segments()

    def test_unresolvable_descriptor_gets_typed_response(self):
        async def scenario():
            config = ServiceConfig(workers=2, heartbeat_interval=0.05)
            service = PoseService(config)
            await service.start()
            server = ServiceServer(service)
            await server.start()
            client = await ServiceClient.connect(server.host, server.port)
            try:
                response = await client.request(ServiceRequest(
                    request_id=1,
                    shm=ShmPairRef(name="no-such-segment",
                                   ego_len=64, other_len=64)))
                counters = service.registry.counter_values("service/shm/")
            finally:
                await client.close()
                await server.stop()
                await service.stop()
            return response, counters

        response, counters = run(scenario())
        assert response.status == "shed"
        assert response.failure_reason == "ShmResolveError"
        assert counters["service/shm/resolve_failures"] == 1

    def test_unresolved_descriptor_refused_at_admission(self):
        # Defense in depth: a descriptor that somehow bypasses the
        # transport must be refused, not guessed at.
        from repro.service import ServiceUnsupported

        async def scenario():
            config = ServiceConfig(workers=2)
            async with PoseService(config) as service:
                with pytest.raises(ServiceUnsupported):
                    service.submit_nowait(ServiceRequest(
                        request_id=1,
                        shm=ShmPairRef(name="x", ego_len=1, other_len=1)))

        run(scenario())


class TestChaosLifecycle:
    def test_chaos_faults_leak_no_segments(self, tmp_path):
        """A worker killed mid-match, with the request's feature
        segments mapped: every request answered, workers restarted,
        zero segments left in /dev/shm."""
        pairs = [scan_request_messages(index) for index in range(2)]
        # Request 2's match kills its worker once; the extractions
        # before it wrote both scans' features into segments, which the
        # match maps before the fault fires.
        fault = WorkerFault(kind="kill", indices=(2,),
                            once_dir=str(tmp_path))

        async def scenario():
            config = ServiceConfig(workers=2, batch_size=2,
                                   heartbeat_interval=0.05, fault=fault)
            service = PoseService(config)
            await service.start()
            try:
                futures = [service.submit_nowait(ServiceRequest(
                    request_id=n + 1, ego=pairs[n % 2][0],
                    other=pairs[n % 2][1])) for n in range(7)]
                responses = await asyncio.gather(*futures)
            finally:
                await service.stop()
            counters = service.registry.counter_values("service/")
            gauges = service.registry.gauges
            return responses, counters, gauges

        responses, counters, gauges = run(scenario())
        assert len(responses) == 7  # every admitted request answered
        assert all(r.status in ("ok", "exhausted") for r in responses)
        assert counters.get("service/worker_restarts", 0) >= 1
        assert counters.get("service/shm/segments", 0) >= 1
        assert gauges["service/shm/segments_leaked"].value == 0
        assert not leaked_segments()

    def test_drain_releases_all_segments(self):
        ego, other = scan_request_messages()

        async def scenario():
            config = ServiceConfig(workers=2, heartbeat_interval=0.05)
            service = PoseService(config)
            await service.start()
            futures = [service.submit_nowait(ServiceRequest(
                request_id=n + 1, ego=ego, other=other))
                for n in range(4)]
            await service.stop()  # graceful drain
            responses = [f.result() for f in futures]
            arena_active = (service.arena.active
                            if service.arena is not None else 0)
            return responses, arena_active

        responses, arena_active = run(scenario())
        assert all(r.status == "ok" for r in responses)
        assert arena_active == 0
        assert not leaked_segments()
