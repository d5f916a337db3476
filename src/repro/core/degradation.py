"""Structured failure taxonomy for the graceful-degradation ladder.

A field deployment feeds BB-Align dropped packets, damaged buffers and
degenerate scans; the pipeline's contract is that **every** input
produces a :class:`~repro.core.result.PoseRecoveryResult` — never an
exception — with the failure mode named and the fallback that produced
the returned transform recorded.  The ladder, from best to worst:

1. **full** — both stages ran; stage-2 refinement applied (or cleanly
   rejected by its own confidence guard).
2. **stage1-only** — stage 2 failed outright (e.g. raised); the stage-1
   estimate is returned unrefined.
3. **boxes-only** — the message tier carried no BV evidence (see
   :class:`repro.comms.tiers.Tier`), so stage 1 was skipped *by
   design* and stage-2 box alignment ran from a pose prior.  Unlike
   the rungs below, this one can still succeed — under the weaker,
   box-consensus-only criterion.
4. **temporal** — the current frame produced nothing usable; the last
   successfully recovered pose is returned (see
   :mod:`repro.core.temporal` for the full odometry-predicted filter).
5. **identity** — nothing usable and no history; a flagged identity
   transform, which downstream consumers must treat as "no pose".

``success`` is always ``False`` from rung 4 down, and ``failure_reason``
is always populated whenever ``success`` is ``False``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.obs.metrics import counter

__all__ = ["FailureReason", "DegradationLevel", "StageDiagnostics",
           "record_transition"]


class FailureReason(str, enum.Enum):
    """Why a recovery did not meet the success criterion."""

    #: The V2V message never arrived (channel drop).
    MESSAGE_DROPPED = "message-dropped"
    #: The V2V message arrived too late to be trusted for this frame.
    MESSAGE_STALE = "message-stale"
    #: The V2V message failed to decode (truncation, corruption,
    #: checksum mismatch — any :class:`repro.comms.CodecError`).
    MESSAGE_UNDECODABLE = "message-undecodable"
    #: The message's BV image or keypoints were rendered at another
    #: (size, cell, range) than the receiver's: stage 1 would extract
    #: at the sender's size and answer in the wrong metric scale.
    GEOMETRY_MISMATCH = "geometry-mismatch"
    #: Stage-1 feature extraction raised (degenerate image or cloud).
    EXTRACTION_ERROR = "extraction-error"
    #: Stage-1 matching raised an internal exception.
    STAGE1_ERROR = "stage1-error"
    #: Stage-2 box alignment raised an internal exception.
    STAGE2_ERROR = "stage2-error"
    #: One or both BV images yielded no keypoints (featureless scene,
    #: empty or fully non-finite cloud).
    NO_KEYPOINTS = "no-keypoints"
    #: Stage-1 RANSAC found no consensus model.
    STAGE1_NO_CONSENSUS = "stage1-no-consensus"
    #: A boxes-only message left stage-2 alignment as the only
    #: evidence, and it found no box consensus from the pose prior.
    BOXES_ONLY_NO_CONSENSUS = "boxes-only-no-consensus"
    #: Both stages ran but the inlier counts failed the paper's
    #: success criterion.
    BELOW_SUCCESS_THRESHOLD = "below-success-threshold"
    #: The pair evaluation itself crashed (sweep-engine error capture).
    EVALUATION_ERROR = "evaluation-error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class DegradationLevel(str, enum.Enum):
    """Which rung of the fallback ladder produced the returned pose."""

    FULL = "full"
    STAGE1_ONLY = "stage1-only"
    BOXES_ONLY = "boxes-only"
    TEMPORAL = "temporal"
    IDENTITY = "identity"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def record_transition(level: "DegradationLevel",
                      reason: "FailureReason | None") -> None:
    """Count one walk down (or along) the ladder into the active
    metrics registry.

    Called by the pipeline every time a recovery resolves, so a sweep's
    registry (and hence its trace export) carries the per-reason failure
    rates and per-rung fallback rates — which stage failed and how
    often, not just how long it took.  No-op when no registry is
    installed; consumes no randomness either way.
    """
    counter("pipeline/recoveries").inc()
    counter(f"pipeline/degradation/{level.value}").inc()
    if reason is not None:
        counter(f"pipeline/failure/{reason.value}").inc()


@dataclass(frozen=True)
class StageDiagnostics:
    """Per-stage observability attached to every recovery result.

    Attributes:
        nonfinite_ego_points / nonfinite_other_points: points filtered
            at the BV-projection boundary for carrying NaN/inf
            coordinates (see :func:`repro.bev.projection.height_map`).
        ego_keypoints / other_keypoints: stage-1 keypoint counts.
        decode_error: the :class:`~repro.comms.CodecError` message when
            the V2V payload failed to decode.
        stage1_error / stage2_error: captured exception reprs when a
            stage raised instead of returning.
        tier: the :class:`repro.comms.tiers.Tier` value the decoded
            message carried (``None`` for direct cloud/feature calls).
    """

    nonfinite_ego_points: int = 0
    nonfinite_other_points: int = 0
    ego_keypoints: int = 0
    other_keypoints: int = 0
    decode_error: str | None = None
    stage1_error: str | None = None
    stage2_error: str | None = None
    tier: str | None = None
