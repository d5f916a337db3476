"""Closed-loop load generation and the soak summary statistics.

The harness behind ``repro service-load`` and the chaos-soak benchmark:
``run_load`` drives a submit function (in-process service or TCP
client, the caller chooses) with ``concurrency`` always-busy virtual
clients sending the requests a factory builds, and folds every
response into a :class:`LoadSummary` — admitted/refused counts, status
breakdown, sustained RPS and latency percentiles.

Closed-loop on purpose: each virtual client waits for its response
before sending the next request, so offered load adapts to service
capacity instead of melting the admission queue — overload behavior is
exercised separately by burst submission (``tests/test_service.py``)
where the rejection count is exact.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field

from repro.comms.envelope import ServiceResponse
from repro.service.config import ServiceError, ServiceOverloaded

__all__ = ["LoadSummary", "percentile", "run_load"]


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1,
               max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class LoadSummary:
    """What one load run observed, end to end.

    ``attempted = responded + rejected``: every request either resolved
    to a typed response (whatever its status) or was refused at
    admission with a typed error.  Anything else would be an unhandled
    error — counted in ``errors`` and required to be zero by the soak
    harness.
    """

    attempted: int = 0
    responded: int = 0
    rejected: int = 0          # typed admission rejections (overload...)
    errors: int = 0            # unhandled — the soak requires 0
    statuses: dict[str, int] = field(default_factory=dict)
    degradations: dict[str, int] = field(default_factory=dict)
    successes: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)

    def record(self, response: ServiceResponse, latency_s: float) -> None:
        self.responded += 1
        self.latencies_s.append(latency_s)
        self.statuses[response.status] = \
            self.statuses.get(response.status, 0) + 1
        if response.degradation is not None:
            self.degradations[response.degradation] = \
                self.degradations.get(response.degradation, 0) + 1
        if response.success:
            self.successes += 1

    @property
    def sustained_rps(self) -> float:
        return self.responded / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_s, 0.50) * 1000.0

    @property
    def p95_ms(self) -> float:
        return percentile(self.latencies_s, 0.95) * 1000.0

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_s, 0.99) * 1000.0

    def to_dict(self) -> dict:
        """JSON form (the ``soak`` block of ``BENCH_service.json``)."""
        return {
            "attempted": self.attempted,
            "responded": self.responded,
            "rejected": self.rejected,
            "errors": self.errors,
            "successes": self.successes,
            "statuses": dict(sorted(self.statuses.items())),
            "degradations": dict(sorted(self.degradations.items())),
            "wall_s": round(self.wall_s, 3),
            "sustained_rps": round(self.sustained_rps, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }

    def format(self) -> str:
        statuses = " ".join(f"{status}={count}" for status, count
                            in sorted(self.statuses.items()))
        return (f"{self.responded}/{self.attempted} responded "
                f"({self.rejected} rejected, {self.errors} unhandled) "
                f"in {self.wall_s:.2f} s — {self.sustained_rps:.1f} rps, "
                f"p50 {self.p50_ms:.0f} ms, p95 {self.p95_ms:.0f} ms, "
                f"p99 {self.p99_ms:.0f} ms; {statuses}")


async def run_load(submit, *, make_request, requests: int,
                   concurrency: int, overload_backoff: float = 0.01,
                   warmup: int = 0) -> LoadSummary:
    """Drive ``submit`` with a closed-loop request stream.

    Args:
        submit: ``async (ServiceRequest) -> ServiceResponse``.  Typed
            :class:`ServiceError` rejections count as ``rejected``
            (with a short backoff after :class:`ServiceOverloaded`);
            any other exception counts as ``errors`` — the failure the
            soak harness exists to catch.
        make_request: ``(n: int) -> ServiceRequest`` factory of the
            ``n``-th request.  It must assign its own (stable) request
            ids; determinism of per-request RNG streams hangs off them.
        requests: total requests to attempt.
        concurrency: simultaneous virtual clients.
        overload_backoff: seconds a client sleeps after an overload
            rejection before its next attempt.
        warmup: requests to run (serially, best-effort, uncounted)
            before the timed window opens — they absorb one-time costs
            (worker pipeline construction, cold caches) so the summary
            measures steady state.  Warmup ids live in a reserved high
            band (``0x7F000000 + n``) and never collide with the timed
            stream's.
    """
    summary = LoadSummary()
    counter = iter(range(requests))
    for n in range(warmup):
        warm = dataclasses.replace(
            make_request(n), request_id=(0x7F000000 + n) & 0xFFFFFFFF,
            deadline_ms=0)
        try:
            await submit(warm)
        except Exception:
            pass  # warmup is best-effort; the timed loop counts errors

    async def client() -> None:
        for n in counter:
            request = make_request(n)
            summary.attempted += 1
            start = time.perf_counter()
            try:
                response = await submit(request)
            except ServiceOverloaded:
                summary.rejected += 1
                await asyncio.sleep(overload_backoff)
                continue
            except ServiceError:
                summary.rejected += 1
                continue
            except Exception:
                summary.errors += 1
                continue
            summary.record(response, time.perf_counter() - start)

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    summary.wall_s = time.perf_counter() - start
    return summary
