"""Workload ``fleet-frame``: one 8-car convoy frame per unit.

Each frame is an 8-vehicle same-direction convoy (spacing 22 m, world
density 2.5, no sensor degradation), aligned by one
``MultiVehicleAligner.align(clouds, boxes, pairs=frame.candidate_pairs())``
call.  Frames are generated as the ``multi-grid`` study generates them
(frame ``[seed, f]``, boxes ``[seed, f, vehicle]``, alignment ``[seed,
f, 99]``) from the data seed; the first ``POOL_SIZE`` frames form the
pool recorded in ``expected/fleet-frame.<data seed>.json``.  A run
aligns the whole pool, each frame once, in the order the workload seed
draws: with a frame moving coverage_share by 1/16, a sample of the
pool would move it more between seeds than any bound could absorb.

The traced run drives the same computation step by step --
``extract_features`` per vehicle, ``recover`` per candidate edge with
the ``[root, i, j]`` streams ``align`` derives, then ``fuse`` -- so each
step gets its own span, and checks the fused poses against the same
expectation as the untraced ``align``.
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

NAME = "fleet-frame"
#: 16 frames take about 19 s on a 2-vCPU host.
POOL_SIZE = 16
VEHICLES = 8
SPACING_M = 22.0
DENSITY = 2.5
#: Frames generated per set-up chunk (bounds input memory).
CHUNK = 4
CALIBRATION_FRAMES = 2
#: Host-speed probes before each frame.  A frame takes about a second,
#: during which the host's speed can switch; a frame is scaled by the
#: 15 probes nearest its middle, about the blocks before and after it.
PROBES_PER_FRAME = 8


@dataclass(frozen=True)
class FrameInput:
    data_seed: int
    index: int
    clouds: tuple
    boxes: list
    pairs: tuple
    gt: tuple  # ground-truth pose of each vehicle in the ego frame


class Inputs:
    """Generates pool frames (simulation and detection: set-up only)."""

    def __init__(self, data_seed: int) -> None:
        from repro.detection.simulated import SimulatedDetector
        from repro.simulation import MultiScenarioConfig, ScenarioConfig
        self.seed = data_seed
        self.config = MultiScenarioConfig(
            scenario=ScenarioConfig(same_direction_prob=1.0),
            num_vehicles=VEHICLES, spacing=SPACING_M,
            same_direction_prob=1.0, density=DENSITY, degradation=0)
        self.detector = SimulatedDetector()

    def __call__(self, index: int) -> FrameInput:
        from repro.simulation.multi import make_multi_frame
        frame = make_multi_frame(self.config, rng=np.random.default_rng(
            [self.seed, index]))
        boxes = [[d.box for d in self.detector.detect(
            visible, np.random.default_rng([self.seed, index, v]))]
            for v, visible in enumerate(frame.visible)]
        return FrameInput(self.seed, index, frame.clouds, boxes,
                          frame.candidate_pairs(),
                          tuple(frame.gt_relative(0, v)
                                for v in range(VEHICLES)))


def align_rng(item: FrameInput) -> np.random.Generator:
    return np.random.default_rng([item.data_seed, item.index, 99])


def align(multi, item: FrameInput):
    """The untraced unit: one ``align`` call.  Returns (poses, edges,
    rejected) with edges as {(i, j): result}."""
    alignment = multi.align(list(item.clouds), item.boxes,
                            rng=align_rng(item), pairs=item.pairs)
    return (alignment.poses, alignment.recoveries,
            len(alignment.rejected_edges))


def align_stepwise(multi, item: FrameInput, timer):
    """The traced unit: ``align`` unrolled into its public steps."""
    from repro.core import PairwiseEdge
    from repro.obs import span

    aligner = multi.aligner
    with span("bench/frame"):
        features = []
        for cloud in item.clouds:
            with span("bench/extract"):
                features.append(aligner.extract_features(cloud,
                                                         timer=timer))
        root = int(align_rng(item).integers(0, 2 ** 31))
        recoveries = {}
        measured = []
        for i, j in item.pairs:
            with span("bench/edge"):
                result = aligner.recover(
                    features[i], features[j], item.boxes[i],
                    item.boxes[j], rng=np.random.default_rng([root, i, j]),
                    timer=timer)
            recoveries[(i, j)] = result
            if result.success:
                measured.append(PairwiseEdge(
                    i, j, result.transform,
                    float(result.inliers_bv + result.inliers_box)))
        with span("bench/fuse"):
            poses, gate, _solution = multi.fuse(len(item.clouds), measured)
    return poses, recoveries, len(gate.rejected), [
        len(f.keypoints.xy) for f in features]


def outcome(points: list[int], pairs, poses, recoveries) -> dict:
    """The recorded form of one frame's output."""
    edges = []
    for pair in pairs:
        result = recoveries[pair]
        t = result.transform
        edges.append({"success": bool(result.success),
                      "inliers_bv": int(result.inliers_bv),
                      "inliers_box": int(result.inliers_box),
                      "pose": [t.tx, t.ty, t.theta],
                      "failure": (result.failure_reason.value
                                  if result.failure_reason is not None
                                  else None)})
    return {"points": list(points),
            "pairs": [list(pair) for pair in pairs],
            "edges": edges,
            "poses": [None if pose is None else [pose.tx, pose.ty,
                                                 pose.theta]
                      for pose in poses]}


def check(tally: Tally, index: int, got: dict, expected: dict) -> None:
    where = f"frame {index}"
    if got["points"] != expected["points"] \
            or got["pairs"] != expected["pairs"]:
        tally.mismatch(f"{where}: inputs differ from the recorded pool")
        return
    for pair, edge, want in zip(got["pairs"], got["edges"],
                                expected["edges"]):
        diffs = [key for key in ("success", "inliers_bv", "inliers_box",
                                 "failure") if edge[key] != want[key]]
        if not same_pose(edge["pose"], want["pose"]):
            diffs.append("pose")
        if diffs:
            tally.mismatch(f"{where} edge {pair}: {', '.join(diffs)} "
                           f"differ (got {edge}, expected {want})")
    for vehicle, (pose, want) in enumerate(zip(got["poses"],
                                               expected["poses"])):
        if (pose is None) != (want is None) or (
                pose is not None and not same_pose(pose, want)):
            tally.mismatch(f"{where} vehicle {vehicle}: fused pose "
                           f"{pose} != expected {want}")


def run(seed: int, seconds: float, trace: bool, data_seed: int,
        expected: dict):
    from repro.core import MultiVehicleAligner
    from repro.metrics.pose_error import pose_errors

    indices = plan(seed, seconds, POOL_SIZE, 0xF1EE7)
    setup = SetupClock()
    with setup.one_off():
        inputs = Inputs(data_seed)
        multi = MultiVehicleAligner()
    tally = Tally()
    speed = HostSpeed()
    moments: list[float] = []
    times: list[float] = []
    frames: list[_Frame] = []
    with tracing(trace) as traced:
        for start in range(0, len(indices), CHUNK):
            with setup.chunk():
                chunk = [inputs(i) for i in indices[start:start + CHUNK]]
            for item in chunk:
                speed.probe(PROBES_PER_FRAME)
                multi.reset()
                multi.aligner.reset_temporal()
                keypoints: list[int] = []
                begin = time.perf_counter()
                try:
                    if trace:
                        poses, recoveries, rejected, keypoints = \
                            align_stepwise(multi, item, traced.timer)
                    else:
                        poses, recoveries, rejected = align(multi, item)
                except Exception as error:  # noqa: BLE001 - counted
                    # Every pool frame has a recorded outcome, so a raise
                    # is also a wrong output.
                    tally.fail(type(error).__name__)
                    tally.mismatch(f"frame {item.index}: raised "
                                   f"{type(error).__name__}: {error}")
                    continue
                times.append(time.perf_counter() - begin)
                moments.append(begin)
                frames.append(_Frame(
                    item.index, outcome([len(c) for c in item.clouds],
                                        item.pairs, poses, recoveries),
                    [pose is not None and pose_errors(
                        pose, item.gt[v]).within()
                     for v, pose in enumerate(poses)],
                    list(recoveries.values()), rejected, keypoints))

    targets = placed = accurate = edges = paper = 0
    for frame in frames:
        check(tally, frame.index, frame.got, expected["items"][frame.index])
        if any(edge["failure"] == "extraction-error"
               for edge in frame.got["edges"]):
            tally.fail("extraction-error")
            continue
        tally.ok()
        edges += len(frame.got["edges"])
        paper += sum(paper_success(edge["inliers_bv"], edge["inliers_box"])
                     for edge in frame.got["edges"])
        for vehicle in range(1, VEHICLES):
            targets += 1
            placed += frame.got["poses"][vehicle] is not None
            accurate += frame.within[vehicle]

    # Each frame at reference speed, with the host's slowdown around it.
    measured = {"setup_s": setup.seconds} | unit_timings(times)
    metrics = {
        "setup_s": setup.scaled_seconds(speed),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - tally.error_share,
        "success_share": share(paper, edges),
        "accurate_share": share(accurate, placed),
        "coverage_share": share(placed, targets),
    } | unit_timings([speed.scaled(moment, seconds)
                      for moment, seconds in zip(moments, times)])
    supported = supported_percentile(len(times))
    report = [
        f"frames {len(indices)} from a pool of {POOL_SIZE}, {VEHICLES} "
        f"vehicles, {share(edges, len(frames)):.1f} edges/frame; timed "
        f"{sum(times):.2f} s; {setup.format()}",
        f"measured: frames_per_s {measured['throughput_per_s']:.4f} 1/s, "
        f"frame_ms_p50 {measured['latency_ms_p50']:.1f} ms, "
        f"frame_ms_p90 {measured['latency_ms_p90']:.1f} ms (n={len(times)}"
        + (f"; p90 under-sampled, supports p{supported})"
           if supported < 90 else ")"),
    ]
    if not trace:
        return metrics, measured, tally, report, speed
    layers = _layers(traced.events, frames)

    def untraced(item):
        multi.reset()
        multi.aligner.reset_temporal()
        align(multi, item)

    def traced_unit(item, timer):
        multi.reset()
        multi.aligner.reset_temporal()
        align_stepwise(multi, item, timer)

    layers["obs.trace_overhead_share"] = calibrate(
        [inputs(i) for i in indices[:CALIBRATION_FRAMES]], untraced,
        traced_unit)
    layers, measured = scale_layers(speed, layers)
    return layers, measured, tally, report, speed


@dataclass
class _Frame:
    """What a run keeps of one aligned frame (no clouds)."""

    index: int
    got: dict
    within: list[bool]
    results: list
    rejected: int
    keypoints: list[int]


def _layers(events, frames: list[_Frame]) -> dict:
    """Per-layer numbers of one traced fleet run (see the catalog)."""
    stats = span_stats(events, "bench/frame")
    count = len(frames)
    scans = sum(len(f.keypoints) for f in frames)
    results = [r for f in frames for r in f.results]
    edges = len(results)
    matches = sum(r.stage1.num_matches for r in results)
    # Projection is the only work of extract_features outside its
    # kernel detail stages.
    project = stats["bench/extract"].self_time
    layered = sum(entry.self_time for name, entry in stats.items()
                  if name not in ("bench/frame", "bench/edge"))
    return layer_zeros() | {
        "bev.project_ms": 1000.0 * share(project, scans),
        "bev.mim_ms": per_call_ms(stats, "bv_extract/mim"),
        "features.fast_ms": per_call_ms(stats, "bv_extract/keypoints"),
        "features.describe_ms": per_call_ms(stats,
                                            "bv_extract/descriptors"),
        "features.keypoints": mean([k for f in frames for k in f.keypoints]),
        "features.nn_ms": per_call_ms(stats, "stage1_match/nn"),
        "features.matches": share(matches, edges),
        "geometry.ransac_ms": per_call_ms(stats, "stage1_match/ransac"),
        "geometry.inlier_share": share(sum(r.inliers_bv for r in results),
                                       matches),
        "core.extract_ms": per_call_ms(stats, "bench/extract", scans),
        "core.match_ms": per_call_ms(stats, "stage1_match", edges),
        "core.box_align_ms": per_call_ms(stats, "stage2_align", edges),
        "core.edge_ms": per_call_ms(stats, "bench/edge", edges),
        "core.edges": share(edges, count),
        "core.edge_success_share": share(sum(r.success for r in results),
                                         edges),
        "core.fuse_ms": per_call_ms(stats, "bench/fuse", count),
        "core.rejected_edges": float(sum(f.rejected for f in frames)),
        "obs.attributed_share": share(layered,
                                      stats["bench/frame"].wall),
    }


def record(data_seed: int, progress=None) -> dict:
    """Recorded outcomes of the whole pool at ``data_seed``."""
    from repro.core import MultiVehicleAligner

    inputs = Inputs(data_seed)
    multi = MultiVehicleAligner()
    items = []
    for index in range(POOL_SIZE):
        item = inputs(index)
        multi.reset()
        multi.aligner.reset_temporal()
        poses, recoveries, _rejected = align(multi, item)
        items.append(outcome([len(c) for c in item.clouds], item.pairs,
                             poses, recoveries))
        if progress is not None:
            progress(index)
    return {"workload": NAME, "data_seed": data_seed,
            "pool_size": POOL_SIZE, "items": items}
