"""Channel-robustness sweep — pose recovery under a lossy V2V link.

The paper evaluates BB-Align on cleanly delivered messages.  A deployed
V2V link drops, truncates and corrupts frames; this extension study
pushes every pair's encoded BV-image tier message (the paper's message:
the BV image and the boxes) through a
:class:`~repro.comms.LossyChannel` over a (drop rate x corruption rate)
grid and measures how the recovery degrades: success rate per cell,
error on the surviving recoveries, and which rung of the fallback
ladder (:class:`~repro.core.DegradationLevel`) absorbed each failure.

The zero-impairment cell is the control: the channel short-circuits to
an identical payload, so its numbers must equal a clean sweep's — any
difference would mean the robustness plumbing itself perturbs results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.comms.channel import LossyChannel
from repro.comms.tiers import Tier, build_message, encode_message
from repro.core.pipeline import BBAlign
from repro.detection.simulated import SimulatedDetector
from repro.experiments.common import default_dataset, detect_for_pair
from repro.experiments.registry import ExperimentSpec, register
from repro.metrics.pose_error import pose_errors

__all__ = ["RobustnessCell", "RobustnessResult", "run_robustness_sweep",
           "format_robustness_sweep"]

# The grid: drop rate x per-byte corruption rate.  Corruption rates are
# per *byte*, so 1e-3 on a ~1.7 kB message flips ~2 bytes — enough that
# most frames fail their CRC and the decode rung of the ladder carries
# the cell.
DROP_RATES: tuple[float, ...] = (0.0, 0.1, 0.3)
CORRUPTION_RATES: tuple[float, ...] = (0.0, 1e-4, 1e-3)

# Spawn-key stream tags (see repro.experiments.common for the
# convention): 2 = recovery RANSAC, 7 = channel transmissions.
_RECOVERY_STREAM = 2
_CHANNEL_STREAM = 7


@dataclass(frozen=True)
class RobustnessCell:
    """Aggregates for one (drop rate, corruption rate) grid cell.

    Attributes:
        drop_rate / corruption_rate: the cell's channel setting.
        num_pairs: pairs evaluated.
        successes: recoveries meeting BB-Align's success criterion.
        dropped / undecodable: messages lost outright / delivered but
            failing decode (CRC, truncation, bad frame).
        temporal_fallbacks / identity_fallbacks: failures answered with
            the last good pose vs the flagged identity.
        mean_translation_error / mean_rotation_error_deg: means over the
            *successful* recoveries (NaN when none succeeded).
        failure_reasons: ``{FailureReason value: count}`` over failures.
    """

    drop_rate: float
    corruption_rate: float
    num_pairs: int
    successes: int
    dropped: int
    undecodable: int
    temporal_fallbacks: int
    identity_fallbacks: int
    mean_translation_error: float
    mean_rotation_error_deg: float
    failure_reasons: dict[str, int]

    @property
    def success_rate(self) -> float:
        return self.successes / max(self.num_pairs, 1)


@dataclass(frozen=True)
class RobustnessResult:
    """The full grid plus the sweep's provenance."""

    cells: tuple[RobustnessCell, ...]
    num_pairs: int
    seed: int

    def cell(self, drop_rate: float,
             corruption_rate: float) -> RobustnessCell:
        for cell in self.cells:
            if (cell.drop_rate == drop_rate
                    and cell.corruption_rate == corruption_rate):
                return cell
        raise KeyError(f"no cell ({drop_rate}, {corruption_rate})")


def run_robustness_sweep(num_pairs: int = 12, seed: int = 2024, *,
                         workers: int = 1,
                         drop_rates: tuple[float, ...] = DROP_RATES,
                         corruption_rates: tuple[float, ...]
                         = CORRUPTION_RATES) -> RobustnessResult:
    """Evaluate recovery success over the channel-impairment grid.

    Every pair's message is encoded once; each grid cell pushes it
    through its own :class:`LossyChannel` with a per-(cell, pair)
    spawn-key stream, then recovers via
    :meth:`~repro.core.BBAlign.recover` — the
    receiver-side entry point that never raises.  Each cell uses a
    fresh :class:`BBAlign` so the temporal last-good memory cannot leak
    between cells, and pairs run in index order so that memory means
    "the previous frame", as it would on a vehicle.
    """
    del workers  # sequential by design: temporal fallback is stateful
    dataset = default_dataset(num_pairs, seed)
    encoder = BBAlign()
    detector = SimulatedDetector()

    # Sender side, once per pair: detections, ego features, wire bytes.
    prepared = []
    for record in dataset:
        pair = record.pair
        ego_dets, other_dets = detect_for_pair(pair, detector, seed,
                                               record.index)
        ego_features = encoder.extract_features(pair.ego_cloud)
        other_features = encoder.extract_features(pair.other_cloud)
        payload = encode_message(build_message(
            Tier.BV_IMAGE, [d.box.to_bev() for d in other_dets],
            features=other_features), record=False)
        prepared.append((record.index, pair, ego_features,
                         [d.box for d in ego_dets], payload))

    cells = []
    for cell_index, (drop, corruption) in enumerate(
            (d, c) for d in drop_rates for c in corruption_rates):
        channel = LossyChannel(drop_rate=drop, corruption_rate=corruption)
        aligner = BBAlign()  # fresh temporal memory per cell
        successes = dropped = undecodable = 0
        temporal = identity = 0
        translation_errors = []
        rotation_errors = []
        reasons: Counter[str] = Counter()
        for index, pair, ego_features, ego_boxes, payload in prepared:
            delivery = channel.transmit(
                payload,
                rng=np.random.default_rng(
                    [seed, cell_index, index, _CHANNEL_STREAM]))
            result = aligner.recover(
                ego_features, delivery.payload, ego_boxes,
                rng=np.random.default_rng(
                    [seed, index, _RECOVERY_STREAM]),
                stale=delivery.delay_frames > 0)
            if result.success:
                successes += 1
                errors = pose_errors(result.transform, pair.gt_relative)
                translation_errors.append(errors.translation)
                rotation_errors.append(errors.rotation_deg)
            else:
                reasons[str(result.failure_reason.value)] += 1
            dropped += delivery.dropped
            undecodable += (result.failure_reason is not None
                            and result.failure_reason.value
                            == "message-undecodable")
            temporal += result.degradation.value == "temporal"
            identity += result.degradation.value == "identity"
        cells.append(RobustnessCell(
            drop_rate=drop,
            corruption_rate=corruption,
            num_pairs=len(prepared),
            successes=successes,
            dropped=dropped,
            undecodable=undecodable,
            temporal_fallbacks=temporal,
            identity_fallbacks=identity,
            mean_translation_error=float(np.mean(translation_errors))
            if translation_errors else float("nan"),
            mean_rotation_error_deg=float(np.mean(rotation_errors))
            if rotation_errors else float("nan"),
            failure_reasons=dict(reasons),
        ))
    return RobustnessResult(cells=tuple(cells), num_pairs=len(prepared),
                            seed=seed)


def format_robustness_sweep(result: RobustnessResult) -> str:
    drops = sorted({c.drop_rate for c in result.cells})
    corruptions = sorted({c.corruption_rate for c in result.cells})
    corner = "drop \\ corr"
    lines = [
        f"Channel-robustness sweep (extension) over {result.num_pairs} "
        f"pairs (seed {result.seed}):",
        "  success rate (%) by drop rate (rows) x per-byte corruption "
        "rate (cols):",
        "  " + f"{corner:>12} | "
        + " | ".join(f"{c:>8.0e}" for c in corruptions),
        "  " + "-" * (15 + 11 * len(corruptions)),
    ]
    for drop in drops:
        row = [f"{result.cell(drop, c).success_rate * 100:8.0f}"
               for c in corruptions]
        lines.append("  " + f"{drop:>12.2f} | " + " | ".join(row))
    lines.append("  fallback usage (temporal/identity) and mean error on "
                 "successes:")
    for cell in result.cells:
        err = ("-" if np.isnan(cell.mean_translation_error)
               else f"{cell.mean_translation_error:.2f} m")
        reasons = ", ".join(f"{k}: {v}" for k, v in
                            sorted(cell.failure_reasons.items())) or "none"
        lines.append(
            f"    drop {cell.drop_rate:.2f} corr {cell.corruption_rate:.0e}"
            f": {cell.successes}/{cell.num_pairs} ok, "
            f"{cell.temporal_fallbacks} temporal / "
            f"{cell.identity_fallbacks} identity, err {err} "
            f"({reasons})")
    lines.append("  (the 0.00 / 0e+00 cell is the clean-channel control)")
    return "\n".join(lines)


register(ExperimentSpec(
    name="robustness", runner=run_robustness_sweep,
    formatter=format_robustness_sweep,
    description="recovery success under a lossy V2V channel (extension)",
    paper_artifact="extension", parallelizable=False))
