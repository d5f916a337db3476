"""Tests for the always-on pose service (:mod:`repro.service`).

Fast, deterministic versions of the chaos-soak contract
(``benchmarks/test_service_soak.py`` runs the sustained version):

* burst admission against a bounded queue sheds *exactly* the overflow;
* clean-path parity — a service answer for dataset pair ``i`` is
  byte-identical to the sweep engine's outcome for pair ``i``;
* an admitted request always gets a response: through worker kills,
  hangs, per-pair raises, deadlines, and both shutdown modes;
* dispatch is work-conserving: a short queue spreads over idle
  workers, a burst still fills whole batches, and racing restarts of
  one pool generation collapse to one;
* the TCP transport survives malformed frames and maps admission
  rejections onto typed wire responses.

No pytest-asyncio in the toolchain: each test drives its own loop via
``asyncio.run`` with a hard timeout, so a regression hangs a test, not
the suite.
"""

from __future__ import annotations

import asyncio
import signal
import struct
import subprocess
import sys
import threading

import pytest

from repro.comms.envelope import ServiceRequest
from repro.comms.tiers import Tier, build_message
from repro.detection.simulated import COBEVT_PROFILE, SimulatedDetector
from repro.experiments.common import detect_for_pair, run_pose_recovery_sweep
from repro.runtime.faults import WorkerFault
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
from repro.simulation.dataset import DatasetConfig, V2VDatasetSim

PAIRS = 6
DATASET = DatasetConfig(num_pairs=PAIRS, seed=2024)


def service_config(**overrides) -> ServiceConfig:
    base = dict(dataset_config=DATASET, workers=2, batch_size=4,
                batch_window=0.001, heartbeat_interval=0.05)
    base.update(overrides)
    return ServiceConfig(**base)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


def indexed(index: int, *, request_id: int | None = None,
            deadline_ms: int = 0) -> ServiceRequest:
    return ServiceRequest(request_id=request_id or index + 1, index=index,
                         deadline_ms=deadline_ms)


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
                        futures.append(svc.submit_nowait(indexed(
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
                svc.submit_nowait(indexed(0))

        run(scenario())

    def test_out_of_range_index_rejected(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                with pytest.raises(ServiceUnsupported):
                    svc.submit_nowait(indexed(PAIRS))
                return counters(svc)

        assert run(scenario())["rejected_unsupported"] == 1

    def test_scan_pair_needs_full_scan_ego(self):
        async def scenario():
            message = build_message(Tier.BOXES_ONLY, [])
            async with PoseService(service_config()) as svc:
                with pytest.raises(ServiceUnsupported):
                    svc.submit_nowait(ServiceRequest(
                        request_id=1, ego=message, other=message))

        run(scenario())


class TestParity:
    def test_clean_path_matches_sweep_exactly(self):
        """The acceptance criterion in miniature: service poses are
        byte-identical to the direct sweep (same chunk runner, same
        seeds).  The benchmark runs the full 40-pair version."""
        sweep = run_pose_recovery_sweep(
            V2VDatasetSim(DATASET), include_vips=False, seed=7)

        async def scenario():
            async with PoseService(service_config()) as svc:
                return await asyncio.gather(*[
                    svc.submit_nowait(indexed(i)) for i in range(PAIRS)])

        responses = run(scenario())
        for outcome, response in zip(sweep, responses):
            assert response.status == "ok"
            assert response.tx == outcome.tx
            assert response.ty == outcome.ty
            assert response.theta == outcome.theta
            assert response.success == outcome.success
            assert response.degradation == outcome.degradation
            assert response.inliers_bv == outcome.inliers_bv
            assert response.inliers_box == outcome.inliers_box

    def test_scan_pair_recovers_same_pose_as_indexed(self):
        """The message path (raw tier payloads in the request) lands on
        the same pose the indexed path computes for that pair."""
        dataset = V2VDatasetSim(DATASET)
        pair = dataset[0].pair
        detector = SimulatedDetector(COBEVT_PROFILE)
        ego_dets, other_dets = detect_for_pair(pair, detector, 7, 0)
        ego = build_message(Tier.FULL_SCAN, [d.box for d in ego_dets],
                            cloud=pair.ego_cloud)
        other = build_message(Tier.FULL_SCAN, [d.box for d in other_dets],
                              cloud=pair.other_cloud)

        async def scenario():
            async with PoseService(service_config()) as svc:
                return await asyncio.gather(
                    svc.submit_nowait(indexed(0)),
                    svc.submit_nowait(ServiceRequest(
                        request_id=50, ego=ego, other=other)))

        by_index, by_scan = run(scenario())
        assert by_scan.status == "ok"
        assert by_scan.success
        # Different RANSAC stream than the sweep's (seeded per request
        # id), so same pose up to convergence, not bit-equality.
        assert abs(by_scan.tx - by_index.tx) < 0.5
        assert abs(by_scan.ty - by_index.ty) < 0.5
        assert abs(by_scan.theta - by_index.theta) < 0.05


def scan_request(index: int, request_id: int) -> ServiceRequest:
    pair = V2VDatasetSim(DATASET)[index].pair
    return ServiceRequest(
        request_id=request_id,
        ego=build_message(Tier.FULL_SCAN, [], cloud=pair.ego_cloud),
        other=build_message(Tier.FULL_SCAN, [], cloud=pair.other_cloud))


class TestDispatch:
    def test_idle_workers_split_a_tick(self):
        """Two scan pairs arriving together at an idle two-worker pool
        run side by side, one batch each, and answer byte for byte what
        one worker answers running them back to back."""
        requests = [scan_request(0, 11), scan_request(1, 12)]

        async def leg(workers: int):
            async with PoseService(service_config(workers=workers)) as svc:
                responses = await asyncio.gather(*[
                    svc.submit_nowait(request) for request in requests])
                stages = {name: svc.registry.histogram(f"stage/{name}").count
                          for name in ("scan_pair", "bv_extract",
                                       "stage1_match", "stage2_align")}
                return [r.encode() for r in responses], counters(svc), \
                    stages

        spread, spread_stats, spread_stages = run(leg(2))
        serial, serial_stats, serial_stages = run(leg(1))
        assert spread_stats["batches"] == 2
        assert serial_stats["batches"] == 1
        assert spread == serial
        # The workers' stage timings reach the service registry.
        assert spread_stages["scan_pair"] == len(requests)
        assert spread_stages["bv_extract"] == 2 * len(requests)
        assert spread_stages["stage1_match"] == len(requests)
        assert spread_stages == serial_stages

    def test_burst_still_fills_batches(self):
        """More queued than the idle workers can take: every batch fills
        to ``batch_size``, as before work-conserving dispatch."""
        config = service_config()
        burst = 2 * config.workers * config.batch_size

        async def scenario():
            async with PoseService(config) as svc:
                responses = await asyncio.gather(*[
                    svc.submit_nowait(indexed(i % PAIRS, request_id=i + 1))
                    for i in range(burst)])
                return responses, counters(svc)

        responses, stats = run(scenario())
        assert [r.status for r in responses] == ["ok"] * burst
        assert stats["batches"] == 4


class TestDeadline:
    def test_expired_deadline_resolves_typed(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                doomed = svc.submit_nowait(indexed(0, deadline_ms=1))
                clean = svc.submit_nowait(indexed(1, request_id=9))
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
                    svc.submit_nowait(indexed(i)) for i in range(PAIRS)])
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
                    svc.submit_nowait(indexed(i)) for i in range(4)])
                return responses, counters(svc)

        responses, stats = run(scenario())
        assert [r.status for r in responses] == ["ok"] * 4
        assert stats["hangs"] == 1
        assert stats["worker_restarts"] == 1

    def test_raise_fault_degrades_one_pair_without_restart(self, tmp_path):
        """A pair evaluation that throws is the engine's per-pair
        capture, not a worker fault: one flagged answer, zero
        restarts."""
        fault = WorkerFault(kind="raise", indices=(2,),
                            once_dir=str(tmp_path))

        async def scenario():
            async with PoseService(service_config(fault=fault)) as svc:
                responses = await asyncio.gather(*[
                    svc.submit_nowait(indexed(i)) for i in range(4)])
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
                svc.submit_nowait(indexed(0))

        run(scenario())

    def test_stop_is_idempotent_concurrent(self):
        async def scenario():
            svc = PoseService(service_config())
            await svc.start()
            future = svc.submit_nowait(indexed(0))
            await asyncio.gather(svc.stop(), svc.stop())
            assert (await future).status == "ok"

        run(scenario())

    def test_stop_without_drain_sheds_queued(self):
        async def scenario():
            config = service_config(batch_size=1, workers=1,
                                    batch_window=0.0)
            svc = PoseService(config)
            await svc.start()
            futures = [svc.submit_nowait(indexed(i, request_id=i + 1))
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
             "--pairs", "2", "--workers", "2"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            port = int(line.split("listening on ")[1].split()[0]
                       .rsplit(":", 1)[1])

            async def drive():
                client = await ServiceClient.connect("127.0.0.1", port)
                responses = await asyncio.gather(
                    client.request(index=0), client.request(index=1))
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
                first = await client.request(index=0)
                garbage = b"SQ01" + b"\x00" * 20
                client._writer.write(
                    struct.pack("<I", len(garbage)) + garbage)
                await client._writer.drain()
                second = await client.request(index=1)
                await client.close()
                await server.stop()
                return first, second, counters(svc)

        first, second, stats = run(scenario())
        assert first.status == "ok"
        assert second.status == "ok"
        assert stats["bad_frames"] == 1

    def test_admission_rejection_becomes_wire_shed(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                server = ServiceServer(svc)
                await server.start()
                client = await ServiceClient.connect("127.0.0.1",
                                                     server.port)
                response = await client.request(
                    ServiceRequest(request_id=1, index=99))
                await client.close()
                await server.stop()
                return response

        response = run(scenario())
        assert response.status == "shed"
        assert response.failure_reason == "ServiceUnsupported"
        assert not response.success

    def test_request_after_close_fails_fast(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                server = ServiceServer(svc)
                await server.start()
                client = await ServiceClient.connect("127.0.0.1",
                                                     server.port)
                await client.close()
                with pytest.raises(ConnectionError):
                    await client.request(index=0)
                await server.stop()

        run(scenario())


class TestLoad:
    def test_closed_loop_summary_accounts_for_everything(self):
        async def scenario():
            async with PoseService(service_config()) as svc:
                return await run_load(svc.submit, requests=8,
                                      concurrency=2, num_pairs=PAIRS)

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
