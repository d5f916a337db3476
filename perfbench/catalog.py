"""The benchmark's workloads and metrics, in one place.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/catalog.py > BENCHMARK.json``), and ``run.py``
refuses to print a result whose metric names differ from it, so the
two cannot drift apart.

Every end-to-end metric is printed on every workload.  Each workload
has one unit of work -- a pair on ``pair-sweep``, a frame on
``fleet-frame``, a request on ``service-stream`` -- and ``DEFINITIONS``
says what each metric means there.  The per-layer table records, for
every layer metric, the end-to-end metric and workload it should move,
including the layers predicted to move nothing.
"""

from __future__ import annotations

import json

#: Command the benchmark is run with, from the repository root.
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: Seconds one run measures.  A run of this length works through each
#: workload's whole input pool; shorter runs take a prefix of it, so a
#: fixed run length is a fixed amount of work and the shares repeat
#: exactly at a seed.
RUN_SECONDS = 20

#: The workload seed orders a run's inputs (and seeds the service's
#: RANSAC streams).  The data seed generates the input pools: the
#: default pool is used while the benchmark and a claim are written,
#: the held-out pool (``run.py --held-out``) rechecks a claim on inputs
#: it was not tuned on.  Both pools have recorded outcomes.
DEFAULT_SEED = 1
DATA_SEED = 2024
HELD_OUT_DATA_SEED = 2026

#: The paper's success criterion (Sec. V-A), ``success_share``:
#: Inliers_bv > 25 and Inliers_box > 6.  BBAlign runs with the
#: repository's default, Inliers_bv > 12 (simulated BV images carry
#: fewer keypoints than 64-beam scans), and hands out the poses that
#: meet it: ``coverage_share`` and ``accurate_share`` count those.
PAPER_MIN_INLIERS_BV = 25
PAPER_MIN_INLIERS_BOX = 6

#: Service-stream latency limit: five lidar frames at 10 Hz.
LATENCY_LIMIT_S = 0.5
#: Service-stream arrival rates, requests per second.
LO_RATE = 4.0
HI_RATE = 8.0

WORKLOADS: dict[str, str] = {
    "pair-sweep": (
        "the paper's two-car exchange: BV-image message out, pose back, "
        "each pair cold; stage-1 extraction is most of a pair, so bev "
        "and features kernels show here most"),
    "fleet-frame": (
        "8-car convoy, one MultiVehicleAligner.align per frame: ~21 "
        "edges against 8 extractions, so matching outweighs "
        "extraction, the reverse of pair-sweep"),
    "service-stream": (
        "open loop into PoseService, a new 3-car frame per tick, lo 4 "
        "then hi 8 req/s, 500 ms latency limit; the only workload with "
        "admission, batching, shm and the worker cache"),
}

# (name, unit, better, bound).  Bounds are shares of the parent's
# median.  The shares repeat exactly at a seed and vary between seeds
# only on service-stream (RANSAC streams follow the seed).  Timings
# take the largest bound.  On the 2-vCPU host the same inputs run up
# to a quarter faster or slower from one minute to the next, whatever
# the run length or statistic.  Timings are reported at reference host
# speed (harness.HostSpeed, README.md), which removes most of that on
# pair-sweep and fleet-frame; service-stream's latencies, scaled by its
# workers' slowdown, still spread up to 0.09 of their median.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "share", "higher", 0.02),
    ("success_share", "share", "higher", 0.15),
    ("accurate_share", "share", "higher", 0.15),
    ("coverage_share", "share", "higher", 0.15),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
]

#: What each end-to-end metric means on each workload.
DEFINITIONS: dict[str, dict[str, str]] = {
    "setup_s": {
        "all": "input generation (simulation, detection), message "
               "building, service start and warm-up; never timed work; "
               "the sum of the input chunks plus the median of three "
               "service starts, at reference host speed",
    },
    "peak_rss_mb": {
        "all": "peak resident set of the benchmark process plus its "
               "largest child (a service worker)",
    },
    "ok_share": {
        "all": "1 - error_share: units answered without an exception, "
               "an extraction-error degradation, a non-ok service "
               "status, a refused admission or a leaked shm segment",
    },
    "success_share": {
        "pair-sweep": "pairs meeting the paper's success criterion "
                      "(Inliers_bv > 25 and Inliers_box > 6)",
        "fleet-frame": "candidate edges meeting the paper's criterion",
        "service-stream": "responses meeting the paper's criterion",
    },
    "accurate_share": {
        "all": "poses handed out (pairs and responses meeting BBAlign's "
               "default criterion, Inliers_bv > 12, placed vehicles) "
               "within 1 m and 1 deg of ground truth",
    },
    "coverage_share": {
        "pair-sweep": "partners placed in the ego frame (pairs meeting "
                      "BBAlign's default criterion)",
        "fleet-frame": "non-ego vehicles placed in the ego frame",
        "service-stream": "partners placed in the ego frame (responses "
                          "meeting BBAlign's default criterion)",
    },
    "throughput_per_s": {
        "pair-sweep": "pairs per second (pairs_per_s), at reference "
                      "host speed",
        "fleet-frame": "frames per second (frames_per_s), at reference "
                       "host speed",
        "service-stream": "hi-rate goodput: ok responses within the 500 "
                          "ms limit per second, from the phase's first "
                          "due time to its last answer (about 8 x "
                          "hi.goodput_share; not scaled)",
    },
    "latency_ms_p50": {
        "pair-sweep": "wire-to-pose time per pair, median (pair_ms_p50), "
                      "at reference host speed",
        "fleet-frame": "align time per frame, median, at reference host "
                       "speed",
        "service-stream": "lo-rate request latency from its due time, "
                          "median (lo.latency_ms_p50, about worker "
                          "compute), at reference speed by the workers' "
                          "slowdown over lo",
    },
    "latency_ms_p90": {
        "pair-sweep": "wire-to-pose time per pair, p90 (pair_ms_p90, "
                      "120 pairs), at reference host speed",
        "fleet-frame": "align time per frame, p90 (16 frames: "
                       "under-sampled, see the report), at reference "
                       "host speed",
        "service-stream": "lo-rate request latency from its due time, "
                          "p90 (lo.latency_ms_p90, 100 requests), at "
                          "reference speed by the workers' slowdown over "
                          "lo; the hi tail is in the report",
    },
}

# (name, unit, better, layer, what it should move).  A layer that does
# not run on a workload reports 0 there.
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("comms.encode_ms", "ms", "lower",
     "pair-sweep latency_ms_p50 (about 3 % of a pair)"),
    ("comms.decode_ms", "ms", "lower",
     "pair-sweep latency_ms_p50"),
    ("comms.message_bytes", "bytes", "lower",
     "nothing; guards the bandwidth claim"),
    ("bev.project_ms", "ms", "lower",
     "pair-sweep throughput_per_s"),
    ("bev.mim_ms", "ms", "lower",
     "pair-sweep throughput_per_s (largest share); fleet-frame "
     "throughput_per_s by less"),
    ("features.fast_ms", "ms", "lower",
     "pair-sweep throughput_per_s"),
    ("features.describe_ms", "ms", "lower",
     "pair-sweep throughput_per_s"),
    ("features.keypoints", "count", "higher",
     "nothing unless outputs change"),
    ("features.nn_ms", "ms", "lower",
     "fleet-frame throughput_per_s more than pair-sweep's"),
    ("features.matches", "count", "higher",
     "nothing unless outputs change"),
    ("geometry.ransac_ms", "ms", "lower",
     "fleet-frame throughput_per_s"),
    ("geometry.inlier_share", "share", "higher",
     "nothing unless outputs change"),
    ("core.extract_ms", "ms", "lower",
     "pair-sweep throughput_per_s"),
    ("core.match_ms", "ms", "lower",
     "fleet-frame throughput_per_s"),
    ("core.box_align_ms", "ms", "lower",
     "fleet-frame throughput_per_s"),
    ("core.edge_ms", "ms", "lower",
     "fleet-frame throughput_per_s"),
    ("core.edges", "count", "higher",
     "fleet-frame throughput_per_s (work per frame)"),
    ("core.edge_success_share", "share", "higher",
     "fleet-frame coverage_share"),
    ("core.fuse_ms", "ms", "lower",
     "nothing: about 1 % of a frame"),
    ("core.rejected_edges", "count", "lower",
     "fleet-frame accurate_share"),
    ("service.worker_ms", "ms", "lower",
     "service-stream latency_ms_p50 (lo)"),
    ("service.queue_wait_ms_p50", "ms", "lower",
     "service-stream throughput_per_s (hi goodput) and the hi tail"),
    ("service.batch_size_mean", "count", "higher",
     "service-stream throughput_per_s (hi goodput) and the hi tail"),
    ("service.queue_depth_max", "count", "lower",
     "service-stream throughput_per_s (hi goodput) and the hi tail"),
    ("service.shed", "count", "lower", "service-stream ok_share"),
    ("service.deadline_expired", "count", "lower",
     "service-stream ok_share"),
    ("service.batch_retries", "count", "lower",
     "service-stream latency_ms_p90 and the hi tail"),
    ("service.worker_restarts", "count", "lower",
     "service-stream latency_ms_p90 and the hi tail"),
    ("runtime.cache_hit_share", "share", "higher",
     "service-stream latency_ms_p50 and the hi tail; nothing on "
     "pair-sweep, which has no cache"),
    ("runtime.cache_evictions", "count", "lower",
     "service-stream latency_ms_p50 and the hi tail"),
    ("runtime.shm_bytes_per_request", "bytes", "lower",
     "service-stream latency_ms_p50 and the hi tail"),
    ("runtime.shm_fallbacks", "count", "lower",
     "service-stream latency_ms_p50 and the hi tail"),
    ("runtime.segments_leaked", "count", "lower",
     "service-stream ok_share"),
    ("obs.trace_overhead_share", "share", "lower",
     "nothing; must stay near 0"),
    ("obs.attributed_share", "share", "higher",
     "nothing; share of traced time inside a named layer span"),
    ("load.late_ms_max", "ms", "lower",
     "service-stream latency_ms_p50 and latency_ms_p90 when large"),
    ("load.refused", "count", "lower", "ok_share"),
]


#: Per-layer compute times of the benchmark process, reported at
#: reference host speed with the whole run's slowdown
#: (``harness.HostSpeed``).  Not scaled: shares, counts, bytes, what the
#: clock sets rather than the host (queue waits, generator lateness),
#: and ``service.worker_ms``, timed in the service's workers, whose
#: speed a probe in the benchmark process does not track.
HOST_SCALED_LAYERS = frozenset({
    "comms.encode_ms", "comms.decode_ms", "bev.project_ms", "bev.mim_ms",
    "features.fast_ms", "features.describe_ms", "features.nn_ms",
    "geometry.ransac_ms", "core.extract_ms", "core.match_ms",
    "core.box_align_ms", "core.edge_ms", "core.fuse_ms",
})


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalog describes."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _moves in PER_LAYER],
    }


def units(trace: bool) -> dict[str, str]:
    """Metric name -> unit for one kind of run."""
    rows = PER_LAYER if trace else END_TO_END
    return {row[0]: row[1] for row in rows}


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
