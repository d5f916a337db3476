"""V2V message serialization, tiered compression, and the fault model.

The paper's bandwidth argument (Sec. III) rests on the BV image being
"highly compressed" relative to raw lidar.  This package makes the claim
concrete — and measurable — along three axes:

* **Wire formats** — :mod:`repro.comms.codec` defines the quantized,
  zero-run-length-encoded BV image plus fixed-point boxes, each framed
  with a CRC32 integrity field; :mod:`repro.comms.tiers` generalizes it
  to four fidelity rungs (full scan > BV image > keypoints > boxes-only)
  behind one :class:`Tier` enum and codec registry.  The paper's
  message (Algorithm 1, line 3: the BV image and the boxes) is the
  BV-image tier, ``build_message(Tier.BV_IMAGE, boxes, features=...)``.
* **Accounting** — :mod:`repro.comms.accounting` counts encoded vs dense
  payload bytes per tier into the ambient metrics registry (so
  ``--timings`` reports KB per pair, and the comms grid reads one
  registry per cell).
* **Faults and adaptation** — :mod:`repro.comms.channel` is the seeded
  :class:`LossyChannel` that drops, truncates, corrupts and delays
  messages; :mod:`repro.comms.policy` is the hysteresis controller that
  steps the tier ladder in response.
"""

from repro.comms.accounting import record_received, record_sent
from repro.comms.channel import Delivery, LossyChannel
from repro.comms.codec import (
    CodecError,
    decode_bv_image,
    decode_boxes,
    encode_bv_image,
    encode_boxes,
)
from repro.comms.envelope import (
    ServiceRequest,
    ServiceResponse,
    decode_request,
    decode_response,
)
from repro.comms.policy import TIER_LADDER, AdaptiveTierPolicy
from repro.comms.tiers import (
    KeypointPayload,
    Tier,
    TierCodecConfig,
    TieredMessage,
    build_message,
    decode_message,
    encode_message,
)

__all__ = [
    "AdaptiveTierPolicy",
    "CodecError",
    "Delivery",
    "KeypointPayload",
    "LossyChannel",
    "ServiceRequest",
    "ServiceResponse",
    "TIER_LADDER",
    "Tier",
    "TierCodecConfig",
    "TieredMessage",
    "build_message",
    "decode_boxes",
    "decode_bv_image",
    "decode_message",
    "decode_request",
    "decode_response",
    "encode_boxes",
    "encode_bv_image",
    "encode_message",
    "record_received",
    "record_sent",
]
