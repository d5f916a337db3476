"""Tests for the always-on pose service (:mod:`repro.service`).

Fast, deterministic versions of the chaos-soak contract
(``benchmarks/test_service_soak.py`` runs the sustained version):

* burst admission against a bounded queue sheds *exactly* the overflow,
  and a partner BV image or keypoint message at a geometry other than
  the service's is refused at the door;
* clean-path parity — the service's answer to the scan pair of dataset
  pair ``i``, sent with the sweep's boxes as request ``i``, is
  byte-identical to the sweep engine's outcome for pair ``i``;
* an admitted request always gets a response: through worker kills,
  hangs, raising matches, deadlines, and both shutdown modes;
* dispatch is per request: a short queue spreads over idle workers, a
  burst keeps ``workers × batch_size`` requests in flight and the rest
  queued, and racing restarts of one pool generation collapse to one;
* the TCP transport survives malformed frames, maps admission
  rejections and verified-but-undecodable requests onto typed wire
  responses, and decodes envelopes off the event loop, so one
  connection's decode never holds up another;
* the service imports neither the simulator nor the experiment layer.

No pytest-asyncio in the toolchain: each test drives its own loop via
``asyncio.run`` with a hard timeout, so a regression hangs a test, not
the suite.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import itertools
import signal
import struct
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.bev.projection import BVImage
from repro.comms.codec import _frame
from repro.comms.envelope import (
    _REQ_HEAD,
    REQUEST_MAGIC,
    ServiceRequest,
    decode_response,
)
from repro.comms.tiers import Tier, TieredMessage, build_message
from repro.core.pipeline import BBAlign
from repro.experiments.common import (
    default_dataset,
    run_pose_recovery_sweep,
    scan_pair_messages,
)
from repro.runtime.faults import WorkerFault
from repro.service import server as server_module
from repro.service import (
    PoseService,
    ServiceClient,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    ServiceServer,
    ServiceUnsupported,
    run_load,
)

PAIRS = 6


def service_config(**overrides) -> ServiceConfig:
    base = dict(workers=2, batch_size=4, heartbeat_interval=0.05)
    base.update(overrides)
    return ServiceConfig(**base)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


@functools.cache
def messages() -> list[tuple]:
    return scan_pair_messages(PAIRS)


def scan_pair(index: int, *, request_id: int | None = None,
              deadline_ms: int = 0) -> ServiceRequest:
    """Dataset pair ``index`` as a full-scan scan-pair request, sent as
    request ``index`` unless ``request_id`` says otherwise."""
    ego, other = messages()[index]
    return ServiceRequest(
        request_id=index if request_id is None else request_id,
        ego=ego, other=other, deadline_ms=deadline_ms)


def counters(service: PoseService) -> dict[str, int]:
    snapshot = service.registry.snapshot().get("counters", {})
    return {key.removeprefix("service/"): value
            for key, value in snapshot.items()
            if key.startswith("service/")}


class TestAdmission:
    def test_burst_sheds_exactly_the_overflow(self):
        """B synchronous submissions against a queue of depth Q yield
        exactly B - Q typed rejections."""
        async def scenario():
            async with PoseService(service_config(queue_limit=3)) as svc:
                futures, rejected = [], 0
                for i in range(10):
                    try:
                        futures.append(svc.submit_nowait(scan_pair(
                            i % PAIRS, request_id=i + 1)))
                    except ServiceOverloaded:
                        rejected += 1
                responses = await asyncio.gather(*futures)
                return rejected, responses, counters(svc)

        rejected, responses, stats = run(scenario())
        assert rejected == 7
        assert [r.status for r in responses] == ["ok"] * 3
        assert stats["shed"] == 7
        assert stats["admitted"] == 3

    def test_submit_before_start_raises_closed(self):
        async def scenario():
            svc = PoseService(service_config())
            with pytest.raises(ServiceClosed):
                svc.submit_nowait(scan_pair(0))

        run(scenario())

    def test_scan_pair_needs_full_scan_ego(self):
        async def scenario():
            message = build_message(Tier.BOXES_ONLY, [])
            async with PoseService(service_config()) as svc:
                with pytest.raises(ServiceUnsupported):
                    svc.submit_nowait(ServiceRequest(
                        request_id=1, ego=message, other=message))
                return counters(svc)

        assert run(scenario())["rejected_unsupported"] == 1

    def test_partner_geometry_must_match_the_service(self):
        """A BV-image or keypoint partner at another BV geometry than
        the service's is refused before any of its scans is acquired, so
        no extraction (and no Log-Gabor bank at the partner's size)
        starts; default-geometry partners are still answered."""
        ego, other = messages()[0]
        features = BBAlign().extract_features(other.cloud)
        native = [build_message(tier, other.boxes, features=features)
                  for tier in (Tier.BV_IMAGE, Tier.KEYPOINTS)]
        foreign = [
            TieredMessage(Tier.BV_IMAGE, [], bv_image=BVImage(
                np.zeros((size, size)), 153.6 / size, 76.8))
            for size in (96, 384, 2048)
        ] + [TieredMessage(Tier.KEYPOINTS, [], keypoints=dataclasses.replace(
            native[1].keypoints, image_size=96, cell_size=1.6))]

        async def scenario():
            svc = PoseService(service_config())
            await svc.start()
            acquired = []
            acquire = svc._scans.acquire
            svc._scans.acquire = lambda scan: (acquired.append(scan)
                                               or acquire(scan))
            try:
                admitted = []
                for n, partner in enumerate(foreign):
                    with contextlib.suppress(ServiceUnsupported):
                        svc.submit_nowait(ServiceRequest(
                            request_id=n + 1, ego=ego, other=partner))
                        admitted.append(n)
                refused = counters(svc), len(acquired)
                if admitted:  # shed unrun when the service stops
                    return admitted, refused, []
                return admitted, refused, [
                    await svc.submit(ServiceRequest(
                        request_id=n + 11, ego=ego, other=partner))
                    for n, partner in enumerate(native)]
            finally:
                await svc.stop(drain=False)

        admitted, (stats, acquired), responses = run(scenario())
        assert admitted == []
        assert stats["rejected_unsupported"] == len(foreign)
        assert "admitted" not in stats
        assert "worker_cache/misses" not in stats
        assert acquired == 0
        assert [r.status for r in responses] == ["ok", "ok"]


class TestParity:
    def test_clean_path_matches_sweep_exactly(self):
        """The service adds transport, dispatch and supervision, never
        arithmetic: its answer to pair ``i``'s scans, sent with the
        sweep's boxes as request ``i``, is the sweep's outcome for pair
        ``i`` byte for byte (same boxes, same ``[7, i, 2]`` stream).
        The benchmark checks 40 pairs against in-process recovery."""
        sweep = run_pose_recovery_sweep(default_dataset(PAIRS),
                                        include_vips=False, seed=7)

        async def scenario():
            async with PoseService(service_config()) as svc:
                return await asyncio.gather(*[
                    svc.submit_nowait(scan_pair(i)) for i in range(PAIRS)])

        responses = run(scenario())
        for outcome, response in zip(sweep, responses):
            assert response.status == "ok"
            assert response.tx == outcome.tx
            assert response.ty == outcome.ty
            assert response.theta == outcome.theta
            assert response.success == outcome.success
            assert response.degradation == outcome.degradation
            assert response.failure_reason == outcome.failure_reason
            assert response.inliers_bv == outcome.inliers_bv
            assert response.inliers_box == outcome.inliers_box


class TestDispatch:
    def test_idle_workers_split_a_tick(self):
        """Two scan pairs arriving together at an idle two-worker pool
        run side by side and answer byte for byte what one worker
        answers running them back to back."""
        requests = [scan_pair(0, request_id=11),
                    scan_pair(1, request_id=12)]

        async def leg(workers: int):
            async with PoseService(service_config(workers=workers)) as svc:
                responses = await asyncio.gather(*[
                    svc.submit_nowait(request) for request in requests])
                stages = {name: svc.registry.histogram(f"stage/{name}").count
                          for name in ("scan_pair", "bv_extract",
                                       "stage1_match", "stage2_align")}
                return [r.encode() for r in responses], stages

        spread, spread_stages = run(leg(2))
        serial, serial_stages = run(leg(1))
        assert spread == serial
        # The workers' stage timings reach the service registry: one
        # scan_pair stage per pool task, two extractions and one match
        # per request (the two pairs share no scan).
        assert spread_stages["scan_pair"] == 3 * len(requests)
        assert spread_stages["bv_extract"] == 2 * len(requests)
        assert spread_stages["stage1_match"] == len(requests)
        assert spread_stages == serial_stages

    def test_burst_fills_the_in_flight_bound(self):
        """A one-tick burst twice the in-flight bound: ``workers ×
        batch_size`` requests run at once, the rest wait in the
        admission queue, and every request answers."""
        config = service_config()
        bound = config.workers * config.batch_size
        burst = 2 * bound

        async def scenario():
            async with PoseService(config) as svc:
                responses = await asyncio.gather(*[
                    svc.submit_nowait(scan_pair(i % PAIRS, request_id=i + 1))
                    for i in range(burst)])
                gauges = {name: svc.registry.gauge(f"service/{name}")
                          for name in ("in_flight", "queue_depth")}
                return responses, gauges

        responses, gauges = run(scenario())
        assert [r.status for r in responses] == ["ok"] * burst
        assert gauges["in_flight"].high_water == bound
        assert gauges["queue_depth"].high_water == burst


class TestDeadline:
    def test_expired_deadline_resolves_typed(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                doomed = svc.submit_nowait(scan_pair(0, deadline_ms=1))
                clean = svc.submit_nowait(scan_pair(1, request_id=9))
                return await doomed, await clean, counters(svc)

        doomed, clean, stats = run(scenario())
        assert doomed.status == "deadline"
        assert doomed.failure_reason == "deadline-exceeded"
        assert not doomed.success
        assert clean.status == "ok"
        assert stats["deadline_expired"] == 1
        assert stats["responses"] == 2


class TestChaos:
    def test_worker_kill_restarts_and_answers(self, tmp_path):
        fault = WorkerFault(kind="kill", indices=(3,),
                            once_dir=str(tmp_path))

        async def scenario():
            async with PoseService(service_config(fault=fault)) as svc:
                responses = await asyncio.gather(*[
                    svc.submit_nowait(scan_pair(i, request_id=i + 1))
                    for i in range(PAIRS)])
                return responses, counters(svc)

        responses, stats = run(scenario())
        assert [r.status for r in responses] == ["ok"] * PAIRS
        assert stats["worker_restarts"] == 1
        assert stats["batch_retries"] >= 1
        assert stats["responses"] == PAIRS

    def test_concurrent_restarts_of_one_generation_collapse(self):
        """The batch-failure path and the supervisor restart from
        executor threads: two restarts racing on one generation must
        make exactly one restart."""
        from repro.runtime.pool import WorkerPool
        pool = WorkerPool(2)
        try:
            for _ in range(10):
                assert pool.submit(abs, -3).result() == 3  # started
                generation, restarts = pool.generation, pool.restarts
                barrier = threading.Barrier(2)
                results: list[bool] = []

                def race():
                    barrier.wait()
                    results.append(pool.restart(generation,
                                                kill_workers=True))

                threads = [threading.Thread(target=race) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert sorted(results) == [False, True]
                assert pool.generation == generation + 1
                assert pool.restarts == restarts + 1
        finally:
            pool.shutdown(kill_workers=True)

    def test_worker_hang_is_killed_and_retried(self, tmp_path):
        fault = WorkerFault(kind="hang", indices=(1,),
                            once_dir=str(tmp_path), hang_seconds=5.0)

        async def scenario():
            config = service_config(fault=fault, batch_timeout=1.5)
            async with PoseService(config) as svc:
                responses = await asyncio.gather(*[
                    svc.submit_nowait(scan_pair(i, request_id=i + 1))
                    for i in range(4)])
                return responses, counters(svc)

        responses, stats = run(scenario())
        assert [r.status for r in responses] == ["ok"] * 4
        assert stats["hangs"] == 1
        assert stats["worker_restarts"] == 1

    def test_raise_fault_degrades_one_pair_without_restart(self, tmp_path):
        """A match that throws is answered in the worker, not treated
        as a worker fault: one flagged answer, zero restarts."""
        fault = WorkerFault(kind="raise", indices=(3,),
                            once_dir=str(tmp_path))

        async def scenario():
            async with PoseService(service_config(fault=fault)) as svc:
                responses = await asyncio.gather(*[
                    svc.submit_nowait(scan_pair(i, request_id=i + 1))
                    for i in range(4)])
                return responses, counters(svc)

        responses, stats = run(scenario())
        assert [r.status for r in responses] == ["ok"] * 4
        hurt = responses[2]
        assert not hurt.success
        assert hurt.failure_reason == "evaluation-error"
        assert hurt.degradation is None
        assert (hurt.tx, hurt.ty, hurt.theta) == (0.0, 0.0, 0.0)
        assert "worker_restarts" not in stats
        assert all(responses[i].success for i in (0, 1, 3))


class TestShutdown:
    def test_stop_is_idempotent_sequential(self):
        async def scenario():
            svc = PoseService(service_config())
            await svc.start()
            await svc.stop()
            await svc.stop()
            with pytest.raises(ServiceClosed):
                svc.submit_nowait(scan_pair(0))

        run(scenario())

    def test_stop_is_idempotent_concurrent(self):
        async def scenario():
            svc = PoseService(service_config())
            await svc.start()
            future = svc.submit_nowait(scan_pair(0))
            await asyncio.gather(svc.stop(), svc.stop())
            assert (await future).status == "ok"

        run(scenario())

    def test_stop_without_drain_sheds_queued(self):
        async def scenario():
            config = service_config(batch_size=1, workers=1)
            svc = PoseService(config)
            await svc.start()
            futures = [svc.submit_nowait(scan_pair(i, request_id=i + 1))
                       for i in range(5)]
            await svc.stop(drain=False)
            responses = await asyncio.gather(*futures)
            return responses, counters(svc)

        responses, stats = run(scenario())
        statuses = [r.status for r in responses]
        assert set(statuses) <= {"ok", "shed"}
        assert statuses.count("shed") == stats.get("shed_on_shutdown", 0)
        assert statuses.count("shed") >= 1
        assert stats["responses"] == 5
        shed = next(r for r in responses if r.status == "shed")
        assert shed.failure_reason == "service-shutdown"

    def test_engine_shutdown_pool_idempotent(self):
        from repro.runtime.engine import shutdown_pool
        shutdown_pool()
        shutdown_pool()

    def test_worker_pool_shutdown_idempotent(self):
        from repro.runtime.pool import WorkerPool
        pool = WorkerPool(1)
        assert pool.submit(abs, -3).result() == 3
        pool.shutdown()
        pool.shutdown()
        assert not pool.started

    def test_serve_subprocess_drains_on_sigterm(self, tmp_path):
        """The ``repro serve`` process answers requests, then SIGTERM
        drains it: exit 0, every admitted request responded."""
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            port = int(line.split("listening on ")[1].split()[0]
                       .rsplit(":", 1)[1])

            async def drive():
                client = await ServiceClient.connect("127.0.0.1", port)
                responses = await asyncio.gather(
                    client.request(scan_pair(0)),
                    client.request(scan_pair(1)))
                await client.close()
                return responses

            responses = run(drive())
            assert [r.status for r in responses] == ["ok", "ok"]
            process.send_signal(signal.SIGTERM)
            out, _err = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "drained;" in out
        assert "admitted=2" in out
        assert "responses=2" in out


class TestServer:
    def test_bad_frame_counted_connection_survives(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                server = ServiceServer(svc)
                await server.start()
                client = await ServiceClient.connect("127.0.0.1",
                                                     server.port)
                first = await client.request(scan_pair(0))
                garbage = b"SQ01" + b"\x00" * 20
                client._writer.write(
                    struct.pack("<I", len(garbage)) + garbage)
                await client._writer.drain()
                second = await client.request(scan_pair(1))
                await client.close()
                await server.stop()
                return first, second, counters(svc)

        first, second, stats = run(scenario())
        assert first.status == "ok"
        assert second.status == "ok"
        assert stats["bad_frames"] == 1

    def test_verified_undecodable_frame_gets_codec_shed(self):
        """A CRC-valid frame of the retired kind 2 is answered with a
        typed shed under its own id, and the connection still serves
        the next request."""
        header = _REQ_HEAD.pack(REQUEST_MAGIC, 41, 2, 0, 0)
        frame = _frame(header, b"\x00" * 8)

        async def scenario():
            async with PoseService(service_config()) as svc:
                server = ServiceServer(svc)
                await server.start()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                try:
                    answers = []
                    for payload in (frame, scan_pair(0, request_id=42)
                                    .encode()):
                        writer.write(struct.pack("<I", len(payload))
                                     + payload)
                        await writer.drain()
                        answers.append(decode_response(
                            await asyncio.wait_for(
                                server_module._read_frame(reader), 30)))
                    return answers, counters(svc)
                finally:
                    writer.close()
                    await server.stop()

        (rejected, answered), stats = run(scenario())
        assert rejected.status == "shed"
        assert rejected.failure_reason == "CodecError"
        assert rejected.request_id == 41
        assert answered.request_id == 42
        assert answered.status == "ok"
        assert stats["bad_frames"] == 1

    def test_admission_rejection_becomes_wire_shed(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                server = ServiceServer(svc)
                await server.start()
                client = await ServiceClient.connect("127.0.0.1",
                                                     server.port)
                boxes_only = build_message(Tier.BOXES_ONLY, [])
                response = await client.request(ServiceRequest(
                    request_id=1, ego=boxes_only, other=boxes_only))
                await client.close()
                await server.stop()
                return response

        response = run(scenario())
        assert response.status == "shed"
        assert response.failure_reason == "ServiceUnsupported"
        assert not response.success

    def test_decode_runs_off_the_event_loop(self, monkeypatch):
        """While connection A's envelope decode is blocked, connection
        B's request is still decoded, refused and answered."""
        decode = server_module.decode_request
        entered, release, finished = (threading.Event() for _ in range(3))
        calls = itertools.count()

        def slow_first_decode(frame):
            if next(calls) == 0:
                entered.set()
                release.wait(timeout=3.0)
                finished.set()
            return decode(frame)

        monkeypatch.setattr(server_module, "decode_request",
                            slow_first_decode)
        boxes_only = build_message(Tier.BOXES_ONLY, [])
        request = ServiceRequest(request_id=1, ego=boxes_only,
                                 other=boxes_only)

        async def scenario():
            async with PoseService(service_config(workers=1)) as svc:
                server = ServiceServer(svc)
                await server.start()
                a = await ServiceClient.connect("127.0.0.1", server.port)
                b = await ServiceClient.connect("127.0.0.1", server.port)
                try:
                    first = asyncio.create_task(a.request(request))
                    while not entered.is_set():
                        await asyncio.sleep(0.005)
                    second = await b.request(request)
                    blocked = not finished.is_set()
                    release.set()
                    return blocked, second, await first
                finally:
                    release.set()
                    await a.close()
                    await b.close()
                    await server.stop()

        blocked, second, first = run(scenario())
        assert blocked, "B was answered only after A's decode finished"
        for response in (second, first):
            assert response.status == "shed"
            assert response.failure_reason == "ServiceUnsupported"

    def test_request_after_close_fails_fast(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                server = ServiceServer(svc)
                await server.start()
                client = await ServiceClient.connect("127.0.0.1",
                                                     server.port)
                await client.close()
                with pytest.raises(ConnectionError):
                    await client.request(scan_pair(0))
                await server.stop()

        run(scenario())


class TestLoad:
    def test_closed_loop_summary_accounts_for_everything(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                return await run_load(
                    svc.submit, requests=8, concurrency=2,
                    make_request=lambda n: scan_pair(n % PAIRS,
                                                     request_id=n + 1))

        summary = run(scenario())
        assert summary.attempted == 8
        assert summary.responded == 8
        assert summary.rejected == 0
        assert summary.errors == 0
        assert summary.statuses == {"ok": 8}
        assert summary.successes >= 6
        payload = summary.to_dict()
        assert payload["responded"] == 8
        assert payload["sustained_rps"] > 0
        assert payload["p99_ms"] >= payload["p50_ms"] > 0


class TestImportBoundary:
    def test_service_imports_no_harness(self):
        """The service is the system; the simulator, the detector
        model, the experiment layer and the baselines are harnesses.
        A fresh interpreter importing the service loads none of
        them."""
        harness = ("repro.simulation", "repro.detection",
                   "repro.experiments", "repro.baselines")
        probe = textwrap.dedent(f"""
            import sys
            import repro.service, repro.service.worker
            print(sorted(name for name in sys.modules
                         if name.startswith({harness!r})))
            """)
        loaded = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]"
