"""Service request/response envelopes over the tier codecs.

The always-on pose service (:mod:`repro.service`) speaks the same
hardened wire discipline as the V2V tiers: every frame is
``header | crc32(header + payload) | payload``, decoding is *total*
(any malformed buffer raises :class:`~repro.comms.codec.CodecError`,
never crashes a worker, never yields silent garbage), and unknown
magics are rejected.  Two magics:

* ``SQ01`` — :class:`ServiceRequest`: one scan-pair pose-recovery
  request (``kind=1``).  It carries the sensing itself as two embedded
  :mod:`repro.comms.tiers` messages (ego + other), so a client can
  submit any tier combination the pipeline accepts.  Every other kind
  byte (the retired dataset-index kind 0 and shared-memory kind 2
  included) decodes as an unknown kind.

* ``SP01`` — :class:`ServiceResponse`: the recovered planar pose plus
  the degradation verdict (``status``, ``failure_reason``,
  ``degradation``, inlier counts).  Responses are *small by design*:
  the service's bandwidth story collapses if every answer ships
  diagnostics blobs.

The module deliberately knows nothing about asyncio or the worker
pool — it is pure serialization, which is what lets the fuzz suite
(``tests/test_comms_fuzz.py``) drive it byte-by-byte like every other
codec.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.comms.codec import CodecError, _frame, _verify_crc
from repro.comms.tiers import TieredMessage, decode_message, encode_message

__all__ = [
    "REQUEST_MAGIC",
    "RESPONSE_MAGIC",
    "ServiceRequest",
    "ServiceResponse",
    "decode_request",
    "decode_response",
]

REQUEST_MAGIC = b"SQ01"
RESPONSE_MAGIC = b"SP01"

# Request: magic, request_id, kind, flags (reserved), deadline_ms.
_REQ_HEAD = struct.Struct("<4sIBBI")
# Scan-pair request block header: ego/other embedded message lengths.
_REQ_SCANS = struct.Struct("<II")
# Response: magic, request_id, status, degradation-code, reason length,
# success flag, inliers_bv, inliers_box, tx, ty, theta.
_RSP_HEAD = struct.Struct("<4sIBBBBii3d")

# Kinds 0 (a dataset index) and 2 (a shared-memory descriptor) are
# retired and stay unassigned: they decode as unknown kinds.
_KIND_SCAN_PAIR = 1

#: Response status codes (the service's admission/executive verdicts).
STATUS_OK = 0            # the pipeline ran; see failure_reason for rung
STATUS_DEADLINE = 1      # deadline expired before/while executing
STATUS_EXHAUSTED = 2     # worker faults outlasted the retry budget
STATUS_SHED = 3          # shed during shutdown drain
_STATUS_NAMES = {STATUS_OK: "ok", STATUS_DEADLINE: "deadline",
                 STATUS_EXHAUSTED: "exhausted", STATUS_SHED: "shed"}
_STATUS_CODES = {name: code for code, name in _STATUS_NAMES.items()}

# Degradation rungs on the wire (repro.core.degradation order), plus
# 0xFF for "no pipeline result" (deadline/exhausted/shed responses).
_DEGRADATIONS = ("full", "stage1-only", "boxes-only", "temporal",
                 "identity")
_NO_RESULT = 0xFF


@dataclass(frozen=True)
class ServiceRequest:
    """One decoded (or to-be-encoded) pose-recovery request.

    Attributes:
        request_id: caller-chosen correlation id (echoed in the
            response).
        ego / other: the embedded tiered messages of the scan pair.
        deadline_ms: client-declared deadline budget in milliseconds
            (0 = none); the service clamps it against its own config.
    """

    request_id: int
    ego: TieredMessage
    other: TieredMessage
    deadline_ms: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.request_id <= 0xFFFFFFFF:
            raise ValueError("request_id must fit in uint32")
        if not 0 <= self.deadline_ms <= 0xFFFFFFFF:
            raise ValueError("deadline_ms must fit in uint32")

    def encode(self) -> bytes:
        """Serialize into the CRC32-framed ``SQ01`` envelope."""
        ego = encode_message(self.ego, record=False)
        other = encode_message(self.other, record=False)
        payload = _REQ_SCANS.pack(len(ego), len(other)) + ego + other
        header = _REQ_HEAD.pack(REQUEST_MAGIC, self.request_id,
                                _KIND_SCAN_PAIR, 0, self.deadline_ms)
        return _frame(header, payload)


def decode_request(data: bytes) -> ServiceRequest:
    """Parse a ``SQ01`` request envelope; the inverse of
    :meth:`ServiceRequest.encode`.

    Raises:
        CodecError: ``data`` is not a well-formed request envelope —
            wrong magic, truncation, checksum damage, unknown kind, or
            malformed embedded tier messages.  Once the header and
            checksum verified, the error carries the header's
            ``request_id``.
    """
    try:
        magic, request_id, kind, _flags, deadline_ms = \
            _REQ_HEAD.unpack_from(data, 0)
    except struct.error as exc:
        raise CodecError(f"malformed request header: {exc}") from exc
    if magic != REQUEST_MAGIC:
        raise CodecError(f"not a service request (magic {magic!r})")
    payload = _verify_crc(bytes(data), _REQ_HEAD, "service request")
    try:
        ego, other = _decode_scan_pair(kind, payload)
    except CodecError as exc:
        exc.request_id = request_id  # verified: the sender's own id
        raise
    return ServiceRequest(request_id=request_id, ego=ego, other=other,
                          deadline_ms=deadline_ms)


def _decode_scan_pair(kind: int,
                      payload: bytes) -> tuple[TieredMessage, TieredMessage]:
    """The (ego, other) messages of a CRC-verified request payload."""
    if kind != _KIND_SCAN_PAIR:
        raise CodecError(f"unknown request kind {kind}")
    try:
        ego_len, other_len = _REQ_SCANS.unpack_from(payload, 0)
    except struct.error as exc:
        raise CodecError(f"truncated scan-pair block: {exc}") from exc
    expected = _REQ_SCANS.size + ego_len + other_len
    if len(payload) != expected:
        raise CodecError(
            f"scan-pair block is {len(payload)} bytes, header "
            f"promises {expected}")
    ego = decode_message(payload[_REQ_SCANS.size:
                                 _REQ_SCANS.size + ego_len])
    other = decode_message(payload[_REQ_SCANS.size + ego_len:])
    return ego, other


@dataclass(frozen=True)
class ServiceResponse:
    """One decoded (or to-be-encoded) pose-recovery response.

    Attributes:
        request_id: echo of the request's correlation id.
        status: the service verdict — ``"ok"`` (the pipeline ran,
            possibly degraded), ``"deadline"``, ``"exhausted"`` (retry
            budget spent on worker faults) or ``"shed"`` (shutdown
            drain).  Non-``ok`` responses carry an identity pose.
        success: the pipeline's success criterion (``ok`` only).
        failure_reason: the pipeline's taxonomy tag, or ``None``.
        degradation: which ladder rung produced the pose, ``None`` for
            non-``ok`` responses.
        inliers_bv / inliers_box: confidence counts.
        tx / ty / theta: the recovered planar pose.
    """

    request_id: int
    status: str
    success: bool
    failure_reason: str | None
    degradation: str | None
    inliers_bv: int
    inliers_box: int
    tx: float
    ty: float
    theta: float

    def __post_init__(self) -> None:
        if self.status not in _STATUS_CODES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.degradation is not None \
                and self.degradation not in _DEGRADATIONS:
            raise ValueError(f"unknown degradation {self.degradation!r}")
        if not 0 <= self.request_id <= 0xFFFFFFFF:
            raise ValueError("request_id must fit in uint32")

    def encode(self) -> bytes:
        """Serialize into the CRC32-framed ``SP01`` envelope."""
        reason = (self.failure_reason or "").encode("utf-8")
        if len(reason) > 0xFF:
            raise ValueError("failure_reason too long for the wire")
        degradation = (_NO_RESULT if self.degradation is None
                       else _DEGRADATIONS.index(self.degradation))
        header = _RSP_HEAD.pack(
            RESPONSE_MAGIC, self.request_id, _STATUS_CODES[self.status],
            degradation, len(reason), int(self.success),
            self.inliers_bv, self.inliers_box,
            self.tx, self.ty, self.theta)
        return _frame(header, reason)


def decode_response(data: bytes) -> ServiceResponse:
    """Parse a ``SP01`` response envelope; the inverse of
    :meth:`ServiceResponse.encode`.

    Raises:
        CodecError: ``data`` is not a well-formed response envelope.
    """
    try:
        (magic, request_id, status, degradation, reason_len, success,
         inliers_bv, inliers_box, tx, ty, theta) = \
            _RSP_HEAD.unpack_from(data, 0)
    except struct.error as exc:
        raise CodecError(f"malformed response header: {exc}") from exc
    if magic != RESPONSE_MAGIC:
        raise CodecError(f"not a service response (magic {magic!r})")
    payload = _verify_crc(bytes(data), _RSP_HEAD, "service response")
    if status not in _STATUS_NAMES:
        raise CodecError(f"unknown response status code {status}")
    if degradation != _NO_RESULT and degradation >= len(_DEGRADATIONS):
        raise CodecError(f"unknown degradation code {degradation}")
    if len(payload) != reason_len:
        raise CodecError(
            f"response reason is {len(payload)} bytes, header promises "
            f"{reason_len}")
    if not all(np.isfinite(v) for v in (tx, ty, theta)):
        raise CodecError("response pose carries non-finite values")
    try:
        reason = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable failure reason: {exc}") from exc
    return ServiceResponse(
        request_id=request_id, status=_STATUS_NAMES[status],
        success=bool(success), failure_reason=reason or None,
        degradation=(None if degradation == _NO_RESULT
                     else _DEGRADATIONS[degradation]),
        inliers_bv=inliers_bv, inliers_box=inliers_box,
        tx=tx, ty=ty, theta=theta)

