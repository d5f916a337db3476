"""Bench: the always-on pose service — clean-path parity + chaos soak.

Writes ``benchmarks/results/BENCH_service.json`` for the
``tools/check_bench.py`` regression gate.  Four legs:

* **Clean-path parity** — the service answers the 40 benchmark pairs
  as full-scan scan-pair messages (detector boxes included), and every
  response must equal, field for field, ``BBAlign.recover`` run in this
  process on the same messages with the same ``[seed, request_id, 2]``
  stream.  The service adds transport, dispatch, caching and
  supervision around the pipeline — never arithmetic.
* **Scan data-plane parity** — the same 40 scan pairs, answered once
  over the pickle path (shm off, cache off) and once over the
  zero-copy path (shm on, warm cache on), same request ids in both
  legs.  Every response field must be identical:
  the data plane moves bytes, never arithmetic.
* **Scan data-plane throughput** — a closed-loop load run cycling a
  small working set of scan pairs, pickle leg vs shm leg, with task
  payload accounting on.  The per-request serialized bytes reduction
  (>= 5x) is asserted always; the RPS speedup (>= 1.5x) is asserted
  under ``REPRO_BENCH_STRICT=1`` and ratio-gated otherwise.
* **Chaos soak** — a closed-loop load run of scan pairs (80 requests,
  6 virtual clients) while injected faults kill two workers mid-match,
  hang a third past the batch timeout, and make one match raise.  The contract
  under fire: every admitted request gets a typed response, zero
  unhandled errors, and the restart counter equals the injected pool
  faults — supervision is exact, not best-effort.

Deterministic fields (response/success/status counts, restart
accounting, parity, leak checks) gate exactly; ``*_s``/``*_ms``
latencies, ``*_rps`` throughput, ``*speedup`` ratios, per-request
``*_mb`` payload sizes and the ``peak_rss_mb`` memory ceiling gate as
ratio budgets (strict in the nightly soak leg).
"""

from __future__ import annotations

import asyncio
import dataclasses
import glob
import json
import os
import resource
import time

import numpy as np

from repro.comms.envelope import ServiceRequest, ServiceResponse
from repro.core.pipeline import BBAlign
from repro.experiments.common import scan_pair_messages
from repro.runtime.faults import WorkerFault
from repro.runtime.retry import RetryPolicy
from repro.service import PoseService, ServiceConfig, run_load

SWEEP_PAIRS = 40
SWEEP_SEED = 2024
WORKERS = 2

#: Scan data-plane throughput leg: a working set small enough that the
#: warm cache sees repeats (48 requests over 8 unique pairs) but large
#: enough that the byte accounting averages over dispatch jitter.
DP_UNIQUE_PAIRS = 8
DP_REQUESTS = 48
DP_CONCURRENCY = 6

#: Fault plan for the soak.  Faults fire in the match task of the
#: listed *request ids* (each request runs exactly one match, whether
#: or not the cache held its features), and the ids are >= 10 apart.
#: The <= 6 outstanding closed-loop requests hold nearby ids, so no two
#: faults are in flight together.  That matters because a kill's
#: restart breaks every task on the pool: it would reap a concurrently
#: hung worker before its timeout counted it.  The hang comes last for
#: the same reason.  Each fires exactly once.
KILL_AT = (3, 14)
RAISE_AT = (25,)
HANG_AT = (36,)

#: One hang (2 s timeout) + three restarts + jittered retries all fit
#: inside a typical soak second; four attempts give even a
#: cancelled-then-killed task headroom to finish clean.
SOAK_RETRY = RetryPolicy(attempts=4, base_delay=0.05, multiplier=2.0,
                         max_delay=0.5, jitter=0.5)

_REPORT: dict = {}


@dataclasses.dataclass(frozen=True)
class MixedFault:
    """Kills, hangs and raises at disjoint request ids, each fire-once.

    Duck-typed like :class:`WorkerFault` (the match task only calls
    ``maybe_fire``); delegates each kind to a real ``WorkerFault`` so
    the claim-by-sentinel protocol is shared.
    """

    kills: tuple[int, ...]
    hangs: tuple[int, ...]
    raise_at: tuple[int, ...]
    once_dir: str
    hang_seconds: float = 4.0

    def maybe_fire(self, index: int) -> None:
        for kind, indices in (("kill", self.kills), ("hang", self.hangs),
                              ("raise", self.raise_at)):
            if index in indices:
                WorkerFault(kind=kind, indices=indices,
                            once_dir=self.once_dir,
                            hang_seconds=self.hang_seconds
                            ).maybe_fire(index)


def _service_config(**overrides) -> ServiceConfig:
    base = dict(workers=WORKERS, queue_limit=64, batch_size=4,
                heartbeat_interval=0.1)
    base.update(overrides)
    return ServiceConfig(**base)


def _messages(count: int = SWEEP_PAIRS) -> list[tuple]:
    return scan_pair_messages(count, SWEEP_SEED)


def _in_process(requests: list[ServiceRequest],
                seed: int) -> list[ServiceResponse]:
    """What ``BBAlign.recover`` answers for each request on the same
    messages and the ``[seed, request_id, 2]`` stream, as responses."""
    aligner = BBAlign()
    responses = []
    for request in requests:
        aligner.reset_temporal()
        result = aligner.recover(
            request.ego.cloud, request.other, request.ego.boxes,
            rng=np.random.default_rng([seed, request.request_id, 2]))
        responses.append(ServiceResponse(
            request_id=request.request_id, status="ok",
            success=result.success,
            failure_reason=(result.failure_reason.value
                            if result.failure_reason is not None
                            else None),
            degradation=result.degradation.value,
            inliers_bv=result.inliers_bv, inliers_box=result.inliers_box,
            tx=result.transform.tx, ty=result.transform.ty,
            theta=result.transform.theta))
    return responses


def test_service_clean_path_parity():
    """Every service answer equals in-process recovery, field for
    field."""
    requests = [ServiceRequest(request_id=index + 1, ego=ego, other=other)
                for index, (ego, other) in enumerate(_messages())]
    config = _service_config()

    async def scenario():
        async with PoseService(config) as service:
            return await asyncio.gather(*[
                service.submit_nowait(request) for request in requests])

    start = time.perf_counter()
    responses = asyncio.run(asyncio.wait_for(scenario(), timeout=600))
    parity_seconds = time.perf_counter() - start

    expected = _in_process(requests, config.seed)
    mismatches = sum(a != b for a, b in zip(responses, expected))
    assert mismatches == 0

    _REPORT["parity"] = {
        "pairs": SWEEP_PAIRS,
        "identical": mismatches == 0,
        "parity_s": round(parity_seconds, 3),
    }


def _leaked_segments() -> list[str]:
    return glob.glob("/dev/shm/repro-svc-*")


def test_service_scan_data_plane_parity():
    """Pickle path and zero-copy path answer scan pairs identically.

    Same 40 pairs, same request ids (the per-request RNG streams hang
    off them), one leg with shm and the warm cache off, one with both
    on.  Every response field must match — the correctness contract of
    the data plane."""
    messages = _messages()

    async def leg(use_shm: bool, cache_mb: float):
        config = _service_config(use_shm=use_shm, worker_cache_mb=cache_mb)
        async with PoseService(config) as service:
            futures = [service.submit_nowait(
                ServiceRequest(request_id=index + 1, ego=ego, other=other))
                for index, (ego, other) in enumerate(messages)]
            return await asyncio.gather(*futures)

    start = time.perf_counter()
    pickle_leg = asyncio.run(asyncio.wait_for(
        leg(use_shm=False, cache_mb=0.0), timeout=600))
    shm_leg = asyncio.run(asyncio.wait_for(
        leg(use_shm=True, cache_mb=64.0), timeout=600))
    parity_seconds = time.perf_counter() - start

    mismatches = sum(a != b for a, b in zip(pickle_leg, shm_leg))
    assert mismatches == 0
    assert all(response.status == "ok" for response in pickle_leg)
    assert _leaked_segments() == []

    _REPORT["scan_parity"] = {
        "pairs": SWEEP_PAIRS,
        "identical": mismatches == 0,
        "scan_parity_s": round(parity_seconds, 3),
    }


def test_service_scan_data_plane_throughput():
    """Closed-loop scan-pair load: pickle leg vs zero-copy leg.

    The deterministic bar — per-request serialized task bytes shrink
    >= 5x when descriptors replace pickled clouds — always gates.  The
    wall-clock bar (>= 1.5x RPS) is asserted under
    ``REPRO_BENCH_STRICT=1`` and ratio-gated against the committed
    baseline otherwise."""
    messages = _messages(DP_UNIQUE_PAIRS)

    def factory(n: int) -> ServiceRequest:
        ego, other = messages[n % DP_UNIQUE_PAIRS]
        return ServiceRequest(request_id=(n + 1) & 0xFFFFFFFF,
                              ego=ego, other=other)

    async def leg(use_shm: bool, cache_mb: float):
        config = _service_config(use_shm=use_shm, worker_cache_mb=cache_mb,
                                 account_payload_bytes=True)
        async with PoseService(config) as service:
            summary = await run_load(service.submit,
                                     requests=DP_REQUESTS,
                                     concurrency=DP_CONCURRENCY,
                                     warmup=WORKERS,
                                     make_request=factory)
            histogram = service.registry.histograms.get("service/task_bytes")
            counters = service.registry.counter_values("service/")
            accounted = counters.get("service/payload_requests", 0)
            per_request = (histogram.total / accounted
                           if histogram is not None and accounted else 0.0)
            return summary, per_request, counters

    pickle_summary, pickle_bytes, _ = asyncio.run(
        asyncio.wait_for(leg(use_shm=False, cache_mb=0.0), timeout=600))
    shm_summary, shm_bytes, shm_counters = asyncio.run(
        asyncio.wait_for(leg(use_shm=True, cache_mb=64.0), timeout=600))

    for summary in (pickle_summary, shm_summary):
        assert summary.errors == 0
        assert summary.responded == DP_REQUESTS
        assert summary.rejected == 0
        assert summary.statuses == {"ok": DP_REQUESTS}
    # Same request ids + deterministic per-request RNG: the legs must
    # agree on every pose outcome, so the success tallies match.
    assert pickle_summary.successes == shm_summary.successes

    bytes_speedup = pickle_bytes / shm_bytes if shm_bytes else 0.0
    assert bytes_speedup >= 5.0, (
        f"serialized task bytes only shrank {bytes_speedup:.1f}x "
        f"({pickle_bytes:.0f} -> {shm_bytes:.0f} bytes/request)")

    # 48 requests over two workers means some pair repeats in whichever
    # worker saw more than DP_UNIQUE_PAIRS requests — the warm cache
    # must have hits (the exact split across workers is scheduling).
    cache_hits = shm_counters.get("service/worker_cache/hits", 0)
    assert cache_hits > 0

    rps_speedup = (shm_summary.sustained_rps / pickle_summary.sustained_rps
                   if pickle_summary.sustained_rps else 0.0)
    strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    if strict:
        assert rps_speedup >= 1.5, (
            f"zero-copy leg only {rps_speedup:.2f}x the pickle leg")
    assert _leaked_segments() == []

    _REPORT["data_plane"] = {
        "requests": DP_REQUESTS,
        "unique_pairs": DP_UNIQUE_PAIRS,
        "concurrency": DP_CONCURRENCY,
        "warmup": WORKERS,
        "successes": shm_summary.successes,
        "pickle_rps": round(pickle_summary.sustained_rps, 3),
        "shm_rps": round(shm_summary.sustained_rps, 3),
        "rps_speedup": round(rps_speedup, 3),
        "pickle_task_mb": round(pickle_bytes / 2**20, 4),
        "shm_task_mb": round(shm_bytes / 2**20, 4),
        "bytes_speedup": round(bytes_speedup, 1),
        "warm_cache_hit": cache_hits > 0,
    }
    print(f"\nservice data plane: {pickle_bytes:.0f} -> {shm_bytes:.0f} "
          f"bytes/request ({bytes_speedup:.0f}x), "
          f"{pickle_summary.sustained_rps:.1f} -> "
          f"{shm_summary.sustained_rps:.1f} rps ({rps_speedup:.2f}x), "
          f"{cache_hits} warm-cache hits")


def test_service_chaos_soak(tmp_path, results_dir):
    """Sustained scan-pair load under injected kills, a hang, and a
    raise."""
    messages = _messages()
    fault = MixedFault(kills=KILL_AT, hangs=HANG_AT, raise_at=RAISE_AT,
                       once_dir=str(tmp_path))
    config = _service_config(batch_timeout=2.0, retry=SOAK_RETRY,
                             fault=fault)

    def factory(n: int) -> ServiceRequest:
        ego, other = messages[n % SWEEP_PAIRS]
        return ServiceRequest(request_id=n + 1, ego=ego, other=other)

    async def scenario():
        async with PoseService(config) as service:
            summary = await run_load(service.submit, make_request=factory,
                                     requests=80, concurrency=6)
            snapshot = service.registry.snapshot().get("counters", {})
            stats = {key.removeprefix("service/"): value
                     for key, value in snapshot.items()
                     if key.startswith("service/")}
            return summary, stats

    summary, stats = asyncio.run(
        asyncio.wait_for(scenario(), timeout=600))

    # The robustness contract, exactly.
    assert summary.errors == 0
    assert summary.attempted == 80
    assert summary.responded == 80
    assert summary.rejected == 0
    assert summary.statuses == {"ok": 80}
    injected_pool_faults = len(KILL_AT) + len(HANG_AT)
    assert stats["worker_restarts"] == injected_pool_faults
    assert stats["hangs"] == len(HANG_AT)
    assert stats.get("exhausted", 0) == 0
    assert stats.get("internal_errors", 0) == 0
    # The raise reaches the caller as a typed failed response (status
    # still "ok" transport-wise, success False, tagged
    # evaluation-error), never an exception and never a restart — the
    # exact success/degradation tallies are seeded and gate against the
    # committed baseline.

    leaked = _leaked_segments()
    assert leaked == [], f"leaked shm segments: {leaked}"

    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "schema_version": 2,
        "config": {
            "num_pairs": SWEEP_PAIRS,
            "seed": SWEEP_SEED,
            "workers": WORKERS,
            "batch_size": config.batch_size,
            "requests": 80,
            "concurrency": 6,
            "injected_kills": len(KILL_AT),
            "injected_hangs": len(HANG_AT),
            "injected_raises": len(RAISE_AT),
            "strict": os.environ.get("REPRO_BENCH_STRICT") == "1",
        },
        "parity": _REPORT.get("parity",
                              {"pairs": 0, "identical": False,
                               "parity_s": 0.0}),
        "scan_parity": _REPORT.get("scan_parity",
                                   {"pairs": 0, "identical": False,
                                    "scan_parity_s": 0.0}),
        "data_plane": _REPORT.get("data_plane", {}),
        "soak": summary.to_dict(),
        "supervision": {
            "worker_restarts": stats["worker_restarts"],
            "hangs": stats["hangs"],
            "exhausted": stats.get("exhausted", 0),
            "internal_errors": stats.get("internal_errors", 0),
        },
        "checks": {
            "all_answered": summary.responded == summary.attempted,
            "zero_unhandled": summary.errors == 0,
            "restarts_equal_injected_faults":
                stats["worker_restarts"] == injected_pool_faults,
            "scan_parity_identical":
                _REPORT.get("scan_parity", {}).get("identical", False),
            "bytes_reduction_at_least_5x":
                _REPORT.get("data_plane", {}).get("bytes_speedup", 0) >= 5.0,
            "zero_leaked_segments": leaked == [],
        },
        "peak_rss_mb": round(rss_kib / 1024.0, 1),
    }
    (results_dir / "BENCH_service.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print("\nservice soak: " + summary.format())
