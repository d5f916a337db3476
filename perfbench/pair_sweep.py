"""Workload ``pair-sweep``: the paper's two-car exchange, pair by pair.

Per pair, timed as one unit: the partner projects its scan to a BV
image and encodes a BV-image-tier message with its detector boxes; the
ego decodes it and calls ``BBAlign.recover(ego_cloud, wire_bytes,
ego_boxes)``.  Every pair is recovered once, cold, with no feature
cache.

Inputs are the first ``POOL_SIZE`` pairs of a ``V2VDatasetSim`` with
the default distance and scenario mix, seeded with the data seed (the
repository's standard evaluation dataset at the default data seed).
Their outcomes are recorded in ``expected/pair-sweep.<data seed>.json``.
A run recovers the whole pool in the order the workload seed draws.
Detector and RANSAC streams are the sweep engine's ``[data seed, index,
stream]`` streams, so a pair's outcome does not depend on the order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from harness import (
    HostSpeed,
    SetupClock,
    Tally,
    calibrate,
    layer_zeros,
    mean,
    paper_success,
    peak_rss_mb,
    per_call_ms,
    plan,
    same_pose,
    scale_layers,
    share,
    span_stats,
    supported_percentile,
    tracing,
    unit_timings,
)

NAME = "pair-sweep"
#: 120 pairs take about 17 s on a 2-vCPU host, and put 12 beyond the
#: p90.
POOL_SIZE = 120
#: Pairs generated per set-up chunk (bounds input memory).
CHUNK = 20
#: Pairs timed both traced and untraced to measure trace overhead.
CALIBRATION_PAIRS = 12


@dataclass(frozen=True)
class PairInput:
    data_seed: int
    index: int
    ego_cloud: object
    other_cloud: object
    ego_boxes: list
    other_bev: list
    gt: object


class Inputs:
    """Generates pool pairs (simulation and detection: set-up only)."""

    def __init__(self, data_seed: int) -> None:
        from repro.detection.simulated import SimulatedDetector
        from repro.simulation import DatasetConfig, V2VDatasetSim
        self.seed = data_seed
        self.dataset = V2VDatasetSim(DatasetConfig(num_pairs=POOL_SIZE,
                                                   seed=data_seed))
        self.detector = SimulatedDetector()

    def __call__(self, index: int) -> PairInput:
        pair = self.dataset[index].pair
        ego = self.detector.detect(pair.ego_visible, np.random.default_rng(
            [self.seed, index, 0]))
        other = self.detector.detect(pair.other_visible,
                                     np.random.default_rng(
                                         [self.seed, index, 1]))
        return PairInput(self.seed, index, pair.ego_cloud, pair.other_cloud,
                         [d.box for d in ego],
                         [d.box.to_bev() for d in other],
                         pair.gt_relative)


def exchange(aligner, item: PairInput, timer=None):
    """One wire-to-pose exchange; returns (result, wire bytes)."""
    from repro.comms import Tier, TieredMessage, decode_message, \
        encode_message
    from repro.obs import span

    with span("bench/pair"):
        with span("bench/project"):
            bv = aligner.bv_matcher.make_bv_image(item.other_cloud)
        with span("bench/encode"):
            wire = encode_message(TieredMessage(Tier.BV_IMAGE,
                                                item.other_bev,
                                                bv_image=bv))
        with span("bench/decode"):
            decode_message(wire)
        with span("bench/recover"):
            result = aligner.recover(
                item.ego_cloud, wire, item.ego_boxes,
                rng=np.random.default_rng([item.data_seed, item.index,
                                           2]),
                timer=timer)
    return result, len(wire)


def outcome(item: PairInput, result) -> dict:
    """The recorded form of one pair's output."""
    t = result.transform
    return {"points": [len(item.ego_cloud), len(item.other_cloud)],
            "success": bool(result.success),
            "inliers_bv": int(result.inliers_bv),
            "inliers_box": int(result.inliers_box),
            "pose": [t.tx, t.ty, t.theta],
            "failure": (result.failure_reason.value
                        if result.failure_reason is not None else None)}


def check(tally: Tally, index: int, got: dict, expected: dict) -> None:
    exact = ("points", "success", "inliers_bv", "inliers_box", "failure")
    diffs = [key for key in exact if got[key] != expected[key]]
    if not same_pose(got["pose"], expected["pose"]):
        diffs.append("pose")
    if diffs:
        tally.mismatch(f"pair {index}: {', '.join(diffs)} differ "
                       f"(got {got}, expected {expected})")


def run(seed: int, seconds: float, trace: bool, data_seed: int,
        expected: dict):
    from repro.core import BBAlign
    from repro.metrics.pose_error import pose_errors

    indices = plan(seed, seconds, POOL_SIZE, 0x5A17)
    setup = SetupClock()
    with setup.one_off():
        inputs = Inputs(data_seed)
        aligner = BBAlign()
    tally = Tally()
    speed = HostSpeed()
    moments: list[float] = []
    times: list[float] = []
    results = []
    with tracing(trace) as traced:
        for start in range(0, len(indices), CHUNK):
            with setup.chunk():
                chunk = [inputs(i) for i in indices[start:start + CHUNK]]
            for item in chunk:
                speed.probe()
                aligner.reset_temporal()
                begin = time.perf_counter()
                try:
                    result, nbytes = exchange(aligner, item, traced.timer)
                except Exception as error:  # noqa: BLE001 - counted
                    # Every pool pair has a recorded outcome, so a raise
                    # is also a wrong output.
                    tally.fail(type(error).__name__)
                    tally.mismatch(f"pair {item.index}: raised "
                                   f"{type(error).__name__}: {error}")
                    continue
                times.append(time.perf_counter() - begin)
                moments.append(begin)
                # Keep the result, not the input: clouds are megabytes.
                results.append((item.index, outcome(item, result),
                                pose_errors(result.transform,
                                            item.gt).within(),
                                result, nbytes))

    accurate = successes = paper = 0
    for index, got, within, _result, _nbytes in results:
        check(tally, index, got, expected["items"][index])
        if got["failure"] == "extraction-error":
            tally.fail("extraction-error")
            continue
        tally.ok()
        paper += paper_success(got["inliers_bv"], got["inliers_box"])
        if got["success"]:
            successes += 1
            accurate += within

    pairs = len(indices)
    # Each pair at reference speed, with the host's slowdown around it.
    measured = {"setup_s": setup.seconds} | unit_timings(times)
    metrics = {
        "setup_s": setup.scaled_seconds(speed),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - tally.error_share,
        "success_share": share(paper, pairs),
        "accurate_share": share(accurate, successes),
        "coverage_share": share(successes, pairs),
    } | unit_timings([speed.scaled(moment, seconds)
                      for moment, seconds in zip(moments, times)])
    report = [
        f"pairs {pairs} from a pool of {POOL_SIZE}; timed {sum(times):.2f}"
        f" s; {setup.format()}",
        f"measured: pairs_per_s {measured['throughput_per_s']:.3f} 1/s, "
        f"pair_ms_p50 {measured['latency_ms_p50']:.2f} ms, "
        f"pair_ms_p90 {measured['latency_ms_p90']:.2f} ms (n={len(times)}, "
        f"supports p{supported_percentile(len(times))})",
    ]
    if not trace:
        return metrics, measured, tally, report, speed
    layers = _layers(traced.events, [row[3] for row in results],
                     [row[4] for row in results])

    def untraced(item):
        aligner.reset_temporal()
        exchange(aligner, item)

    def traced_unit(item, timer):
        aligner.reset_temporal()
        exchange(aligner, item, timer)

    layers["obs.trace_overhead_share"] = calibrate(
        [inputs(i) for i in indices[:CALIBRATION_PAIRS]], untraced,
        traced_unit)
    layers, measured = scale_layers(speed, layers)
    return layers, measured, tally, report, speed


def _layers(events, results, sizes) -> dict:
    """Per-layer numbers of one traced pair sweep (see the catalog)."""
    stats = span_stats(events, "bench/pair")
    pairs = len(results)
    scans = 2 * pairs
    matches = sum(r.stage1.num_matches for r in results)
    # The ego's projection runs inside recover's bv_extract stage, as
    # its only work outside the kernel detail stages.
    project = stats["bench/project"].wall + stats["bv_extract"].self_time
    edge = stats["stage1_match"].wall + stats["stage2_align"].wall
    layered = sum(entry.self_time for name, entry in stats.items()
                  if name not in ("bench/pair", "bench/recover"))
    return layer_zeros() | {
        "comms.encode_ms": per_call_ms(stats, "bench/encode"),
        "comms.decode_ms": per_call_ms(stats, "bench/decode"),
        "comms.message_bytes": mean(sizes),
        "bev.project_ms": 1000.0 * share(project, scans),
        "bev.mim_ms": per_call_ms(stats, "bv_extract/mim"),
        "features.fast_ms": per_call_ms(stats, "bv_extract/keypoints"),
        "features.describe_ms": per_call_ms(stats,
                                            "bv_extract/descriptors"),
        "features.keypoints": mean(
            [r.diagnostics.ego_keypoints for r in results]
            + [r.diagnostics.other_keypoints for r in results]),
        "features.nn_ms": per_call_ms(stats, "stage1_match/nn"),
        "features.matches": share(matches, pairs),
        "geometry.ransac_ms": per_call_ms(stats, "stage1_match/ransac"),
        "geometry.inlier_share": share(sum(r.inliers_bv for r in results),
                                       matches),
        "core.extract_ms": per_call_ms(stats, "bv_extract", scans),
        "core.match_ms": per_call_ms(stats, "stage1_match", pairs),
        "core.box_align_ms": per_call_ms(stats, "stage2_align", pairs),
        "core.edge_ms": 1000.0 * share(edge, pairs),
        "core.edges": 1.0,
        "core.edge_success_share": share(sum(r.success for r in results),
                                         pairs),
        "obs.attributed_share": share(layered, stats["bench/pair"].wall),
    }


def record(data_seed: int, progress=None) -> dict:
    """Recorded outcomes of the whole pool at ``data_seed``."""
    from repro.core import BBAlign

    inputs = Inputs(data_seed)
    aligner = BBAlign()
    items = []
    for index in range(POOL_SIZE):
        item = inputs(index)
        aligner.reset_temporal()
        result, _nbytes = exchange(aligner, item)
        items.append(outcome(item, result))
        if progress is not None:
            progress(index)
    return {"workload": NAME, "data_seed": data_seed,
            "pool_size": POOL_SIZE, "items": items}
