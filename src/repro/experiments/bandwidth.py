"""Bandwidth accounting and the accuracy-vs-bitrate Pareto frontier.

BB-Align ships one BV image plus a handful of boxes instead of the raw
point cloud; the paper argues this is "significantly lower" than raw
lidar (Sec. III).  Two experiments make the claim measurable:

* ``bandwidth`` — the original per-frame size comparison: raw scan vs
  dense 8-bit estimate vs actual encoded wire bytes.  With ``--tier`` /
  ``--adaptive`` it instead runs the requested policies through the
  impairment grid below.
* ``comms-grid`` — the tier x impairment grid: every fixed
  :class:`~repro.comms.tiers.Tier` plus the adaptive policy, against a
  clean link, 30% drops, and two per-byte corruption rates.  Each cell
  reports success rate and bytes actually sent, yielding the
  success-rate-vs-bytes Pareto frontier (``BENCH_comms.json``).

The grid is seeded end to end: channel draws spawn from
``[seed, cell_index, pair_index, 7]`` and recovery draws from
``[seed, pair_index, 2]`` — the same recovery stream the pairwise sweep
uses, which is what makes the zero-impairment full-fidelity cell
byte-identical to a clean direct run (the ``control_identical`` check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comms.accounting import record_sent
from repro.comms.channel import LossyChannel
from repro.comms.policy import TIER_LADDER, AdaptiveTierPolicy
from repro.comms.tiers import (
    Tier,
    TieredMessage,
    build_message,
    dense_payload_bytes,
    encode_message,
)
from repro.core.bv_matching import BVMatcher
from repro.core.config import BBAlignConfig
from repro.core.degradation import FailureReason
from repro.core.pipeline import BBAlign
from repro.detection.simulated import SimulatedDetector
from repro.experiments.common import default_dataset, detect_for_pair
from repro.experiments.registry import ExperimentSpec, register
from repro.obs.metrics import MetricsRegistry, active_registry, use_registry

__all__ = ["BandwidthResult", "run_bandwidth", "format_bandwidth",
           "compute_bandwidth", "CommsCell", "CommsGridResult",
           "run_comms_grid", "format_comms_grid", "IMPAIRMENTS"]

# Spawn-key streams (shared convention with the robustness sweep).
_RECOVERY_STREAM = 2
_CHANNEL_STREAM = 7

#: The impairment axis of the grid: (label, drop_rate, corruption_rate).
#: Corruption is per *byte*, so the two corruption cells separate the
#: tiers by size alone: at 3e-4/byte a ~1 MB full scan survives with
#: probability ~e^-300 while a ~1.5 KB keypoint message survives ~64%
#: of the time.
IMPAIRMENTS: tuple[tuple[str, float, float], ...] = (
    ("clean", 0.0, 0.0),
    ("drop-0.3", 0.3, 0.0),
    ("corrupt-3e-5", 0.0, 3e-5),
    ("corrupt-3e-4", 0.0, 3e-4),
)

#: The policy axis: every fixed tier, heaviest first, then adaptive.
POLICIES: tuple[str, ...] = tuple(t.value for t in TIER_LADDER) + (
    "adaptive",)


# ----------------------------------------------------------------------
# Legacy size comparison (unchanged semantics).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BandwidthResult:
    """Per-frame message-size statistics (bytes).

    Attributes:
        raw_cloud_mean: mean raw-scan size (float32 xyz).
        dense_message_mean: mean dense 8-bit BV image + boxes estimate.
        encoded_message_mean: mean actual encoded wire size.
        reduction_factor_dense: raw / dense.
        reduction_factor_encoded: raw / encoded.
        num_pairs: frames measured.
    """

    raw_cloud_mean: float
    dense_message_mean: float
    encoded_message_mean: float
    reduction_factor_dense: float
    reduction_factor_encoded: float
    num_pairs: int


def compute_bandwidth(outcomes=None, *, num_pairs: int = 20,
                      seed: int = 2024) -> BandwidthResult:
    """Measure message sizes over the standard dataset.

    ``outcomes`` is accepted (and its length reused) for API symmetry
    with the other experiment modules, but sizes are measured directly
    from freshly generated frames so the encoded wire format is
    exercised.
    """
    if outcomes is not None:
        num_pairs = max(len(outcomes) // 4, 2)
    dataset = default_dataset(num_pairs, seed)
    matcher = BVMatcher(BBAlignConfig())
    detector = SimulatedDetector()

    raw, dense, encoded = [], [], []
    for record in dataset:
        pair = record.pair
        _, other_dets = detect_for_pair(pair, detector, seed, record.index)
        bv = matcher.make_bv_image(pair.other_cloud)
        boxes = [d.box.to_bev() for d in other_dets]
        raw.append(BBAlign.raw_cloud_bytes(pair.other_cloud))
        dense.append(bv.message_size_bytes() + 20 * len(boxes))
        encoded.append(
            TieredMessage(Tier.BV_IMAGE, boxes, bv_image=bv).size_bytes)

    raw_mean = float(np.mean(raw))
    dense_mean = float(np.mean(dense))
    encoded_mean = float(np.mean(encoded))
    return BandwidthResult(
        raw_cloud_mean=raw_mean,
        dense_message_mean=dense_mean,
        encoded_message_mean=encoded_mean,
        reduction_factor_dense=raw_mean / dense_mean,
        reduction_factor_encoded=raw_mean / encoded_mean,
        num_pairs=num_pairs,
    )


# ----------------------------------------------------------------------
# The tier x impairment grid.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommsCell:
    """One (policy, impairment) cell of the grid.

    ``total_sent_bytes`` counts what the sender put on the wire for
    every pair — including messages the channel then destroyed; that is
    the honest bitrate cost of choosing a heavy tier on a bad link.
    """

    policy: str
    impairment: str
    drop_rate: float
    corruption_rate: float
    num_pairs: int
    successes: int
    delivered: int
    decode_errors: int
    total_sent_bytes: int
    tier_messages: dict[str, int] = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        return self.successes / self.num_pairs if self.num_pairs else 0.0

    @property
    def mean_sent_bytes(self) -> float:
        return (self.total_sent_bytes / self.num_pairs
                if self.num_pairs else 0.0)


@dataclass(frozen=True)
class CommsGridResult:
    """The full grid plus the acceptance-facing summary facts.

    Attributes:
        cells: one :class:`CommsCell` per (policy, impairment).
        tier_mean_bytes: clean-cell mean encoded bytes per fixed tier,
            in ladder order — the "strictly decreasing" check reads
            this.
        control_identical: the (full-scan, clean) cell reproduced a
            direct clean feature-to-feature sweep exactly (success flags
            and SE2 parameters, all pairs).
        dominated: ``"tier@impairment"`` labels of fixed-tier cells the
            adaptive policy dominates (success rate >= and bytes <=,
            at least one strict).
    """

    num_pairs: int
    seed: int
    cells: tuple[CommsCell, ...]
    tier_mean_bytes: dict[str, float]
    control_identical: bool
    dominated: tuple[str, ...]

    def cell(self, policy: str, impairment: str) -> CommsCell:
        for candidate in self.cells:
            if (candidate.policy == policy
                    and candidate.impairment == impairment):
                return candidate
        raise KeyError(f"no cell ({policy}, {impairment})")

    def pareto(self, impairment: str) -> tuple[CommsCell, ...]:
        """Non-dominated (bytes, success) cells for one impairment."""
        cells = [c for c in self.cells if c.impairment == impairment]
        frontier = []
        for cell in cells:
            dominated = any(
                other.success_rate >= cell.success_rate
                and other.mean_sent_bytes <= cell.mean_sent_bytes
                and (other.success_rate > cell.success_rate
                     or other.mean_sent_bytes < cell.mean_sent_bytes)
                for other in cells)
            if not dominated:
                frontier.append(cell)
        return tuple(sorted(frontier, key=lambda c: c.mean_sent_bytes))


def _prepare_pairs(num_pairs: int, seed: int):
    """Extract, detect and pre-encode every tier for every pair."""
    dataset = default_dataset(num_pairs, seed)
    extractor = BBAlign()
    detector = SimulatedDetector()
    config = extractor.config.comms
    prepared = []
    for record in dataset:
        pair = record.pair
        ego_dets, other_dets = detect_for_pair(pair, detector, seed,
                                               record.index)
        ego_features = extractor.extract_features(pair.ego_cloud)
        other_features = extractor.extract_features(pair.other_cloud)
        ego_boxes = [d.box for d in ego_dets]
        other_boxes = [d.box for d in other_dets]
        payloads: dict[str, bytes] = {}
        payload_cost: dict[str, int] = {}
        for tier in Tier:
            message = build_message(
                tier, other_boxes,
                cloud=pair.other_cloud if tier is Tier.FULL_SCAN else None,
                features=other_features if tier in (Tier.BV_IMAGE,
                                                    Tier.KEYPOINTS)
                else None,
                config=config)
            payloads[tier.value] = encode_message(message, config,
                                                  record=False)
            payload_cost[tier.value] = dense_payload_bytes(message)
        prepared.append((record.index, ego_features, other_features,
                         ego_boxes, other_boxes, payloads, payload_cost))
    return prepared


def run_comms_grid(num_pairs: int = 10, seed: int = 2024, *,
                   workers: int = 1,
                   policies: tuple[str, ...] | None = None,
                   ) -> CommsGridResult:
    """Run the tier x impairment grid (see module docstring).

    Cells run serially in a fixed order with spawn-keyed streams, so
    the grid is deterministic for a given ``(num_pairs, seed)`` no
    matter which subset of ``policies`` runs.
    """
    del workers  # deterministic serial grid; cells share prepared pairs
    policies = tuple(policies) if policies is not None else POLICIES
    unknown = set(policies) - set(POLICIES)
    if unknown:
        raise ValueError(f"unknown policies: {sorted(unknown)}")
    prepared = _prepare_pairs(num_pairs, seed)

    # Control: a clean feature-to-feature run with the same recovery
    # streams; the (full-scan, clean) cell must reproduce it exactly.
    control_aligner = BBAlign()
    control = [
        control_aligner.recover(
            ego_features, other_features, ego_boxes, other_boxes,
            rng=np.random.default_rng([seed, index, _RECOVERY_STREAM]))
        for index, ego_features, other_features, ego_boxes, other_boxes,
        _, _ in prepared
    ]

    cells = []
    control_identical = True
    full_scan_clean_seen = False
    # cell_index enumerates the FULL policy grid so channel streams stay
    # stable when a subset of policies is requested.
    for cell_index, (policy, (impairment, drop, corruption)) in enumerate(
            (p, imp) for p in POLICIES for imp in IMPAIRMENTS):
        if policy not in policies:
            continue
        channel = LossyChannel(drop_rate=drop, corruption_rate=corruption)
        aligner = BBAlign()  # fresh temporal memory per cell
        tier_policy = AdaptiveTierPolicy() if policy == "adaptive" else None
        # The cell's comms counters: record_sent below, record_received
        # inside recover().
        registry = MetricsRegistry()
        successes = delivered = 0
        with use_registry(registry):
            for pair_slot, (index, ego_features, _other_features, ego_boxes,
                            _other_boxes, payloads, payload_cost) \
                    in enumerate(prepared):
                tier_name = (tier_policy.tier.value
                             if tier_policy is not None else policy)
                payload = payloads[tier_name]
                record_sent(tier_name, len(payload), payload_cost[tier_name])
                delivery = channel.transmit(
                    payload, rng=np.random.default_rng(
                        [seed, cell_index, index, _CHANNEL_STREAM]))
                result = aligner.recover(
                    ego_features, delivery, ego_boxes,
                    rng=np.random.default_rng(
                        [seed, index, _RECOVERY_STREAM]))
                delivered += delivery.delivered
                if tier_policy is not None:
                    tier_policy.observe(
                        delivery, decoded=result.failure_reason
                        is not FailureReason.MESSAGE_UNDECODABLE)
                if result.success:
                    successes += 1
                if policy == Tier.FULL_SCAN.value and impairment == "clean":
                    full_scan_clean_seen = True
                    ctrl = control[pair_slot]
                    same = (ctrl.success == result.success
                            and ctrl.transform.theta == result.transform.theta
                            and ctrl.transform.tx == result.transform.tx
                            and ctrl.transform.ty == result.transform.ty)
                    control_identical = control_identical and same
        ambient = active_registry()
        if ambient is not None:  # --timings / --trace see the grid too
            ambient.merge(registry)
        counters = registry.counter_values("comms/")
        cells.append(CommsCell(
            policy=policy, impairment=impairment, drop_rate=drop,
            corruption_rate=corruption, num_pairs=len(prepared),
            successes=successes, delivered=delivered,
            decode_errors=counters.get("comms/decode/error", 0),
            total_sent_bytes=counters.get("comms/bytes/encoded", 0),
            tier_messages={name.split("/")[2]: count
                           for name, count in counters.items()
                           if name.endswith("/messages")}))
    if not full_scan_clean_seen:
        # A policy subset without the control cell can't attest identity.
        control_identical = False

    tier_mean_bytes = {}
    for tier in TIER_LADDER:
        clean = [c for c in cells if c.policy == tier.value
                 and c.impairment == "clean"]
        if clean:
            tier_mean_bytes[tier.value] = clean[0].mean_sent_bytes

    dominated = []
    adaptive_cells = {c.impairment: c for c in cells
                      if c.policy == "adaptive"}
    for cell in cells:
        adaptive = adaptive_cells.get(cell.impairment)
        if adaptive is None or cell.policy == "adaptive":
            continue
        if (adaptive.success_rate >= cell.success_rate
                and adaptive.mean_sent_bytes <= cell.mean_sent_bytes
                and (adaptive.success_rate > cell.success_rate
                     or adaptive.mean_sent_bytes < cell.mean_sent_bytes)):
            dominated.append(f"{cell.policy}@{cell.impairment}")

    return CommsGridResult(
        num_pairs=num_pairs, seed=seed, cells=tuple(cells),
        tier_mean_bytes=tier_mean_bytes,
        control_identical=control_identical,
        dominated=tuple(dominated))


def format_comms_grid(result: CommsGridResult) -> str:
    lines = [f"Comms grid over {result.num_pairs} pairs "
             f"(seed {result.seed}):"]
    impairments = []
    for cell in result.cells:
        if cell.impairment not in impairments:
            impairments.append(cell.impairment)
    for impairment in impairments:
        lines.append(f"  [{impairment}]")
        frontier = {id(c) for c in result.pareto(impairment)}
        for cell in result.cells:
            if cell.impairment != impairment:
                continue
            marker = "*" if id(cell) in frontier else " "
            lines.append(
                f"   {marker} {cell.policy:<10}  "
                f"{cell.mean_sent_bytes / 1024:9.1f} KiB/msg  "
                f"success {cell.successes:>2}/{cell.num_pairs}")
    lines.append("  (* = on the success-vs-bytes Pareto frontier)")
    if result.tier_mean_bytes:
        lines.append("  clean-link bytes/message by tier: " + " > ".join(
            f"{tier}={int(round(size))}"
            for tier, size in result.tier_mean_bytes.items()))
    lines.append(f"  control identical to clean sweep: "
                 f"{result.control_identical}")
    if result.dominated:
        lines.append("  adaptive dominates: "
                     + ", ".join(result.dominated))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Runners and registration.
# ----------------------------------------------------------------------
def run_bandwidth(num_pairs: int = 12, seed: int = 2024, *,
                  workers: int = 1, tier: str | None = None,
                  adaptive: bool = False):
    """The ``bandwidth`` experiment.

    Plain: the legacy size comparison.  With ``tier`` and/or
    ``adaptive``: those policies through the impairment grid.
    """
    if tier is None and not adaptive:
        del workers  # size measurement is IO-free and fast; not sharded
        return compute_bandwidth(num_pairs=num_pairs, seed=seed)
    policies = tuple(([tier] if tier is not None else [])
                     + (["adaptive"] if adaptive else []))
    return run_comms_grid(num_pairs=num_pairs, seed=seed, workers=workers,
                          policies=policies)


def format_bandwidth(result) -> str:
    if isinstance(result, CommsGridResult):
        return format_comms_grid(result)
    return "\n".join([
        f"Bandwidth (Sec. III) over {result.num_pairs} frames:",
        f"  raw point cloud (early fusion):        "
        f"{result.raw_cloud_mean / 1024:7.1f} KiB",
        f"  BV image + boxes, dense 8-bit:         "
        f"{result.dense_message_mean / 1024:7.1f} KiB  "
        f"({result.reduction_factor_dense:.1f}x smaller)",
        f"  BV image + boxes, encoded wire format: "
        f"{result.encoded_message_mean / 1024:7.1f} KiB  "
        f"({result.reduction_factor_encoded:.1f}x smaller)",
    ])


def _bandwidth_cli(parser) -> None:
    parser.add_argument("--tier", choices=[t.value for t in Tier],
                        default=None,
                        help="run this fixed tier through the "
                             "impairment grid instead of the size "
                             "comparison")
    parser.add_argument("--adaptive", action="store_true", default=False,
                        help="run the adaptive tier policy through the "
                             "impairment grid")


register(ExperimentSpec(
    name="bandwidth", runner=run_bandwidth, formatter=format_bandwidth,
    description="message size vs raw point cloud (tiers via --tier)",
    paper_artifact="Sec. III", parallelizable=False,
    cli_options=_bandwidth_cli, cli_option_dests=("tier", "adaptive")))

register(ExperimentSpec(
    name="comms-grid", runner=run_comms_grid,
    formatter=format_comms_grid,
    description="tier x impairment grid: success-vs-bytes Pareto",
    paper_artifact="extension", parallelizable=False))
