"""Tiered compression: four message fidelities behind one envelope.

BB-Align's bandwidth argument is only meaningful against alternatives.
This module defines the four rungs a sender can choose from, ordered by
fidelity (and, strictly, by encoded size):

1. **full-scan** (``TF01``) — the raw point cloud, lossless (float64
   xyz in a stored, uncompressed zlib stream) plus lossless float64
   boxes.  What early fusion would transmit; the receiver re-runs the
   whole pipeline and must reproduce a clean local run
   *byte-identically* (the control tier).
2. **bv-image** (``TB01``) — the quantized, zero-RLE, zlib BV image of
   :mod:`repro.comms.codec` plus float32 boxes.  The paper's message.
3. **keypoints** (``TK01``) — no image at all: the top-K FAST keypoints
   with grid/orientation-pooled BVFT descriptors, 4-bit quantized and
   bit-packed, delta-encoded int16 coordinates, float16 scores, zlib.
   The receiver matches against its own (identically pooled)
   descriptors and still runs both stages.
4. **boxes-only** (``TX01``) — detections only; the receiver can only
   run stage-2 box alignment from a pose prior.

Every tier shares the envelope of :mod:`repro.comms.codec`:
``header | crc32(header + payload) | payload`` — so damage anywhere is
detected, and decoding is *total*: any non-message raises
:class:`~repro.comms.codec.CodecError`, never crashes, never returns
silent garbage.  Unknown magics (including a tier this build does not
know) are a :class:`CodecError` too, and so is a sense block whose
header claims more than :data:`MAX_INFLATION` times its zlib stream,
so a frame cannot make the decoder allocate far beyond its own size.

The module deliberately does not import :mod:`repro.core` — the
pipeline imports *us* (locally), and :class:`TierCodecConfig` is
embedded in :class:`repro.core.config.BBAlignConfig`.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bev.projection import BVImage
from repro.boxes.box import Box2D
from repro.comms import accounting
from repro.comms.codec import (
    MAX_BV_SIZE,
    CodecError,
    _frame,
    _inflate,
    _verify_crc,
    decode_boxes,
    decode_bv_image,
    encode_boxes,
    encode_bv_image,
)
from repro.pointcloud.cloud import PointCloud

__all__ = [
    "Tier",
    "TierCodecConfig",
    "KeypointPayload",
    "TieredMessage",
    "TIER_CODECS",
    "MAX_INFLATION",
    "build_message",
    "encode_message",
    "decode_message",
    "pool_descriptors",
]


class Tier(str, enum.Enum):
    """Message fidelity rungs, heaviest first."""

    FULL_SCAN = "full-scan"
    BV_IMAGE = "bv-image"
    KEYPOINTS = "keypoints"
    BOXES_ONLY = "boxes-only"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TierCodecConfig:
    """Sender-side encoding knobs for the lossy tiers.

    The defaults are calibrated so mean encoded size is *strictly*
    decreasing down the tier ladder on the standard dataset (the
    ``BENCH_comms.json`` acceptance check): 80 four-bit keypoints land
    at ~1.3 KB against the ~1.8 KB compressed BV image.

    Attributes:
        max_keypoints: keypoint budget for the keypoints tier (top-K by
            FAST score).
        descriptor_bits: quantization depth for pooled descriptors
            (4 = two values per byte, 8 = one).
        grid_pool: spatial pooling factor — ``l x l`` descriptor cells
            become ``(l/grid_pool) x (l/grid_pool)``.
        orientation_pool: adjacent orientation bins summed per pooled
            bin.
        compress_level: zlib level for the keypoint blob (the
            full-scan tier stores its points uncompressed).
    """

    max_keypoints: int = 80
    descriptor_bits: int = 4
    grid_pool: int = 2
    orientation_pool: int = 2
    compress_level: int = 6

    def __post_init__(self) -> None:
        if self.max_keypoints < 1:
            raise ValueError("max_keypoints must be >= 1")
        if self.descriptor_bits not in (4, 8):
            raise ValueError("descriptor_bits must be 4 or 8")
        if self.grid_pool < 1 or self.orientation_pool < 1:
            raise ValueError("pooling factors must be >= 1")
        if not 0 <= self.compress_level <= 9:
            raise ValueError("compress_level must be in [0, 9]")


@dataclass(frozen=True)
class KeypointPayload:
    """What the keypoints tier carries instead of an image.

    Attributes:
        xy: (K, 2) integer pixel (col, row) keypoint coordinates.
        scores: (K,) detector scores (float16 wire precision).
        descriptors: (K, D) pooled, L2-normalized descriptor rows.
        image_size / cell_size / lidar_range: the sender's BV geometry,
            so the receiver can convert the pixel transform to meters.
        grid_size: pooled descriptor grid edge (cells per axis).
        num_orientations: pooled orientation bins per cell.
    """

    xy: np.ndarray
    scores: np.ndarray
    descriptors: np.ndarray
    image_size: int
    cell_size: float
    lidar_range: float
    grid_size: int
    num_orientations: int


@dataclass(frozen=True)
class TieredMessage:
    """One decoded (or to-be-encoded) tiered V2V message.

    Exactly one sensing field is populated, matching ``tier``; ``boxes``
    always travel (they are the cheapest and most load-bearing part).
    """

    tier: Tier
    boxes: list[Box2D]
    cloud: PointCloud | None = None
    bv_image: BVImage | None = None
    keypoints: KeypointPayload | None = None

    @property
    def size_bytes(self) -> int:
        """Encoded size under the default codec configuration.

        Re-encodes (cheap for light tiers); skips byte accounting so
        sizing a message never counts as sending one.
        """
        return len(encode_message(self, record=False))


# ----------------------------------------------------------------------
# Descriptor pooling (shared by sender and receiver — both sides must
# pool identically or the keypoint tier cannot match).
# ----------------------------------------------------------------------
def pool_descriptors(descriptors: np.ndarray, grid_size: int,
                     num_orientations: int, grid_pool: int,
                     orientation_pool: int) -> np.ndarray:
    """Sum-pool BVFT rows over cell blocks and orientation pairs.

    The descriptor layout is ``(row, col, orientation)`` flattened with
    orientation innermost, so pooling is a reshape + block sum; rows are
    re-normalized to unit L2 afterwards.  Raises :class:`ValueError`
    when the factors do not divide the geometry.
    """
    if grid_size % grid_pool or num_orientations % orientation_pool:
        raise ValueError(
            f"pooling ({grid_pool}, {orientation_pool}) does not divide "
            f"descriptor geometry ({grid_size}, {num_orientations})")
    pg = grid_size // grid_pool
    po = num_orientations // orientation_pool
    d = np.asarray(descriptors, dtype=np.float64)
    n = len(d)
    if n == 0:
        return np.empty((0, pg * pg * po))
    pooled = d.reshape(n, pg, grid_pool, pg, grid_pool, po,
                       orientation_pool).sum(axis=(2, 4, 6))
    pooled = pooled.reshape(n, pg * pg * po)
    norms = np.linalg.norm(pooled, axis=1)
    pooled /= np.where(norms > 0, norms, 1.0)[:, None]
    return np.ascontiguousarray(pooled)


def _infer_descriptor_geometry(dim: int, num_orientations: int) -> int:
    """Grid edge of a ``grid**2 * num_orientations``-dim descriptor."""
    if num_orientations <= 0 or dim % num_orientations:
        raise ValueError(f"descriptor dim {dim} is not a multiple of "
                         f"{num_orientations} orientations")
    cells = dim // num_orientations
    grid = int(round(np.sqrt(cells)))
    if grid * grid != cells:
        raise ValueError(f"descriptor dim {dim} is not a square grid")
    return grid


# ----------------------------------------------------------------------
# Wire format.  Outer envelope shared by all tiers:
#   <4s magic> <I sense_len> <I box_len> <I crc32> <sense block> <box block>
# The CRC runs over the packed header plus both blocks (codec._frame).
# ----------------------------------------------------------------------
_TIER_HEAD = struct.Struct("<4sII")
_MAGIC_BY_TIER = {
    Tier.FULL_SCAN: b"TF01",
    Tier.BV_IMAGE: b"TB01",
    Tier.KEYPOINTS: b"TK01",
    Tier.BOXES_ONLY: b"TX01",
}
_TIER_BY_MAGIC = {magic: tier for tier, magic in _MAGIC_BY_TIER.items()}

# Full-scan sense block: <I num_points> + zlib(float64 xyz rows),
# written stored (level 0); older level-6 blocks decode the same way.
_SCAN_HEAD = struct.Struct("<I")
# Full-scan box block: <H count> + count * <5d> (lossless float64).
_BOX64_HEAD = struct.Struct("<H")
_BOX64_RECORD = struct.Struct("<5d")
# Keypoint sense block header, then zlib(delta-int16 xy | float16
# scores | packed quantized descriptors): image size, cell, range,
# keypoint count, pooled grid, pooled orientations, bits, reserved,
# quantization scale.
_KP_HEAD = struct.Struct("<HddHBBBBf")

#: A sense block's zlib stream may inflate to at most this many times
#: its own size.  Stored full-scan rows never grow, level-6 float64
#: clouds grow ~4 %, and keypoint blobs grew at most 4.6x over the
#: standard dataset's encodings (8-bit, unpooled, level 9).  A header
#: claiming more is refused before anything is inflated: deflate turns
#: a run of zeros into ~1/1000 of its size, so the header's own count
#: would let a 16 KB frame make the decoder produce 16 MB.
MAX_INFLATION = 8


def _inflate_block(stream: bytes, expected: int, what: str) -> bytes:
    """Inflate a sense block's zlib ``stream`` to at most ``expected``
    bytes, refusing a claim beyond :data:`MAX_INFLATION` first."""
    if expected > MAX_INFLATION * len(stream):
        raise CodecError(
            f"{what} claims {expected} bytes from a {len(stream)}-byte "
            f"stream (more than {MAX_INFLATION}x)")
    return _inflate(stream, expected, what)


def _encode_cloud(cloud: PointCloud) -> bytes:
    # A stored (level 0) zlib stream: raw float64 coordinates deflate by
    # ~4 % at ~50 ms a scan, while storing them costs a memory copy.
    # The block keeps its zlib framing, so every TF01 decoder reads it.
    points = np.ascontiguousarray(cloud.points, dtype=np.float64)
    return _SCAN_HEAD.pack(len(points)) + zlib.compress(points, level=0)


def _decode_cloud(block: bytes) -> PointCloud:
    try:
        (count,) = _SCAN_HEAD.unpack_from(block, 0)
    except struct.error as exc:
        raise CodecError(f"truncated full-scan block: {exc}") from exc
    expected = count * 3 * 8
    raw = _inflate_block(block[_SCAN_HEAD.size:], expected,
                         "full-scan payload")
    if len(raw) != expected:
        raise CodecError(
            f"full-scan payload is {len(raw)} bytes for {count} points "
            f"(expected {expected})")
    points = np.frombuffer(raw, dtype=np.float64).reshape(count, 3)
    # Non-finite coordinates are legal here: the pipeline's projection
    # boundary filters them (and counts them in StageDiagnostics).
    return PointCloud(points.copy())


def _encode_boxes64(boxes: list[Box2D]) -> bytes:
    if len(boxes) > 0xFFFF:
        raise ValueError(f"too many boxes for one message: {len(boxes)}")
    return _BOX64_HEAD.pack(len(boxes)) + b"".join(
        _BOX64_RECORD.pack(b.center_x, b.center_y, b.length, b.width,
                           b.yaw) for b in boxes)


def _decode_boxes64(block: bytes) -> list[Box2D]:
    try:
        (count,) = _BOX64_HEAD.unpack_from(block, 0)
    except struct.error as exc:
        raise CodecError(f"truncated box64 block: {exc}") from exc
    expected = _BOX64_HEAD.size + count * _BOX64_RECORD.size
    if len(block) != expected:
        raise CodecError(
            f"box64 block is {len(block)} bytes for {count} boxes "
            f"(expected {expected})")
    boxes: list[Box2D] = []
    for offset in range(_BOX64_HEAD.size, expected, _BOX64_RECORD.size):
        values = _BOX64_RECORD.unpack_from(block, offset)
        if not all(np.isfinite(v) for v in values):
            raise CodecError("box record carries non-finite values")
        try:
            boxes.append(Box2D(*values))
        except ValueError as exc:
            raise CodecError(f"invalid box record: {exc}") from exc
    return boxes


def _pack_quantized(quantized: np.ndarray, bits: int) -> bytes:
    flat = quantized.astype(np.uint8).ravel()
    if bits == 8:
        return flat.tobytes()
    if len(flat) % 2:
        flat = np.append(flat, np.uint8(0))
    return ((flat[0::2] << 4) | flat[1::2]).astype(np.uint8).tobytes()


def _unpack_quantized(packed: np.ndarray, count: int,
                      bits: int) -> np.ndarray:
    if bits == 8:
        return packed[:count].astype(np.float64)
    nibbles = np.empty(len(packed) * 2, dtype=np.uint8)
    nibbles[0::2] = packed >> 4
    nibbles[1::2] = packed & 0x0F
    return nibbles[:count].astype(np.float64)


def _encode_keypoints(kp: KeypointPayload, level: int, bits: int) -> bytes:
    xy = np.asarray(kp.xy, dtype=np.int64)
    n_kp = len(xy)
    desc = np.asarray(kp.descriptors, dtype=np.float64)
    dim = kp.grid_size * kp.grid_size * kp.num_orientations
    if desc.shape != (n_kp, dim):
        raise ValueError(f"descriptor shape {desc.shape} does not match "
                         f"{n_kp} keypoints of dim {dim}")
    scale = float(desc.max()) if desc.size else 1.0
    if scale <= 0:
        scale = 1.0
    full = (1 << bits) - 1
    quantized = np.clip(np.round(desc / scale * full), 0, full)
    # Delta-encode coordinates (keypoints arrive in scan order, so
    # successive rows are near each other and the deltas compress well).
    delta = np.diff(xy, axis=0,
                    prepend=np.zeros((1, 2), dtype=np.int64))
    delta = delta.astype(np.int16)  # first row stays absolute
    blob = (delta.tobytes()
            + np.asarray(kp.scores, dtype=np.float16).tobytes()
            + _pack_quantized(quantized, bits))
    header = _KP_HEAD.pack(kp.image_size, kp.cell_size, kp.lidar_range,
                           n_kp, kp.grid_size, kp.num_orientations,
                           bits, 0, scale)
    return header + zlib.compress(blob, level=level)


def _decode_keypoints(block: bytes) -> KeypointPayload:
    try:
        (size, cell, lidar_range, n_kp, grid, n_orient, bits, _reserved,
         scale) = _KP_HEAD.unpack_from(block, 0)
    except struct.error as exc:
        raise CodecError(f"truncated keypoint header: {exc}") from exc
    if bits not in (4, 8):
        raise CodecError(f"unsupported descriptor depth: {bits} bits")
    if grid < 1 or n_orient < 1 or size < 1:
        raise CodecError("keypoint header carries degenerate geometry")
    if size > MAX_BV_SIZE:
        raise CodecError(f"keypoint image size {size} exceeds the "
                         f"decoder limit of {MAX_BV_SIZE}")
    if not (np.isfinite(cell) and np.isfinite(lidar_range)
            and np.isfinite(scale)) or cell <= 0 or lidar_range <= 0 \
            or scale <= 0:
        raise CodecError("keypoint header carries non-physical geometry")
    dim = grid * grid * n_orient
    xy_bytes = n_kp * 2 * 2
    score_bytes = n_kp * 2
    packed_bytes = (n_kp * dim + 1) // 2 if bits == 4 else n_kp * dim
    expected = xy_bytes + score_bytes + packed_bytes
    blob = _inflate_block(block[_KP_HEAD.size:], expected,
                          "keypoint payload")
    if len(blob) != expected:
        raise CodecError(
            f"keypoint payload is {len(blob)} bytes for {n_kp} keypoints "
            f"(expected {expected})")
    delta = np.frombuffer(blob, dtype=np.int16,
                          count=n_kp * 2).reshape(n_kp, 2)
    xy = np.cumsum(delta.astype(np.int64), axis=0)
    if n_kp and (xy.min() < 0 or xy.max() >= size):
        raise CodecError("keypoint coordinates fall outside the image")
    scores = np.frombuffer(blob, dtype=np.float16, offset=xy_bytes,
                           count=n_kp).astype(np.float64)
    packed = np.frombuffer(blob, dtype=np.uint8,
                           offset=xy_bytes + score_bytes)
    full = (1 << bits) - 1
    desc = _unpack_quantized(packed, n_kp * dim, bits).reshape(n_kp, dim)
    desc = desc / full * scale
    norms = np.linalg.norm(desc, axis=1)
    desc /= np.where(norms > 0, norms, 1.0)[:, None]
    return KeypointPayload(xy=xy, scores=scores, descriptors=desc,
                           image_size=size, cell_size=cell,
                           lidar_range=lidar_range, grid_size=grid,
                           num_orientations=n_orient)


# ----------------------------------------------------------------------
# The codec registry: per-tier sense/box encoders and decoders.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TierCodec:
    tier: Tier
    magic: bytes
    encode_sense: Callable[[TieredMessage, TierCodecConfig], bytes]
    decode_sense: Callable[[bytes], dict]
    encode_boxes: Callable[[list[Box2D]], bytes]
    decode_boxes: Callable[[bytes], list[Box2D]]


def _require(value, tier: Tier, what: str):
    if value is None:
        raise ValueError(f"tier {tier.value} requires {what}")
    return value


TIER_CODECS: dict[Tier, _TierCodec] = {
    Tier.FULL_SCAN: _TierCodec(
        Tier.FULL_SCAN, _MAGIC_BY_TIER[Tier.FULL_SCAN],
        lambda m, c: _encode_cloud(
            _require(m.cloud, Tier.FULL_SCAN, "a point cloud")),
        lambda block: {"cloud": _decode_cloud(block)},
        _encode_boxes64, _decode_boxes64),
    Tier.BV_IMAGE: _TierCodec(
        Tier.BV_IMAGE, _MAGIC_BY_TIER[Tier.BV_IMAGE],
        lambda m, c: encode_bv_image(
            _require(m.bv_image, Tier.BV_IMAGE, "a BV image"),
            compress=True),
        lambda block: {"bv_image": decode_bv_image(block)},
        encode_boxes, decode_boxes),
    Tier.KEYPOINTS: _TierCodec(
        Tier.KEYPOINTS, _MAGIC_BY_TIER[Tier.KEYPOINTS],
        lambda m, c: _encode_keypoints(
            _require(m.keypoints, Tier.KEYPOINTS, "a keypoint payload"),
            c.compress_level, c.descriptor_bits),
        lambda block: {"keypoints": _decode_keypoints(block)},
        encode_boxes, decode_boxes),
    Tier.BOXES_ONLY: _TierCodec(
        Tier.BOXES_ONLY, _MAGIC_BY_TIER[Tier.BOXES_ONLY],
        lambda m, c: b"",
        lambda block: {} if len(block) == 0
        else (_ for _ in ()).throw(CodecError(
            f"boxes-only message carries {len(block)} unexpected sense "
            "bytes")),
        encode_boxes, decode_boxes),
}


def dense_payload_bytes(message: TieredMessage) -> int:
    """Uncompressed single-precision cost of the carried content.

    The accountant's numerator: what the tier's information would cost
    with no quantization, packing, RLE or deflate — float32 xyz for the
    cloud, dense 8-bit pixels for the image, float32 keypoint rows, 20
    bytes per box.  ``payload / encoded`` is the compression ratio.
    """
    boxes = 20 * len(message.boxes)
    if message.tier is Tier.FULL_SCAN:
        return 12 * len(message.cloud) + boxes
    if message.tier is Tier.BV_IMAGE:
        return message.bv_image.size ** 2 + boxes
    if message.tier is Tier.KEYPOINTS:
        kp = message.keypoints
        return len(kp.xy) * (12 + 4 * kp.descriptors.shape[1]) + boxes
    return boxes


def encode_message(message: TieredMessage,
                   config: TierCodecConfig | None = None, *,
                   record: bool = True) -> bytes:
    """Serialize a tiered message into the CRC32-framed envelope.

    Unless ``record=False``, records sender-side byte accounting
    (encoded bytes, dense payload bytes, per-tier counters) into the
    active metrics registry — a no-op when none is installed.
    """
    config = config or TierCodecConfig()
    codec = TIER_CODECS[message.tier]
    sense = codec.encode_sense(message, config)
    boxes = codec.encode_boxes(message.boxes)
    header = _TIER_HEAD.pack(codec.magic, len(sense), len(boxes))
    encoded = _frame(header, sense + boxes)
    if record:
        accounting.record_sent(message.tier.value, len(encoded),
                               dense_payload_bytes(message))
    return encoded


def decode_message(data: bytes) -> TieredMessage:
    """Parse any tiered message; the inverse of :func:`encode_message`.

    Raises:
        CodecError: ``data`` is not a well-formed tiered message of a
            known tier (unknown magics included).
    """
    try:
        magic, sense_len, box_len = _TIER_HEAD.unpack_from(data, 0)
    except struct.error as exc:
        raise CodecError(f"malformed tier header: {exc}") from exc
    tier = _TIER_BY_MAGIC.get(magic)
    if tier is None:
        raise CodecError(f"unknown message tier (magic {magic!r})")
    payload = _verify_crc(bytes(data), _TIER_HEAD, f"tier {tier.value}")
    if len(payload) != sense_len + box_len:
        raise CodecError(
            f"tier {tier.value} payload is {len(payload)} bytes, header "
            f"promises {sense_len + box_len}")
    codec = TIER_CODECS[tier]
    sense = codec.decode_sense(payload[:sense_len])
    boxes = codec.decode_boxes(payload[sense_len:])
    return TieredMessage(tier=tier, boxes=boxes, **sense)


# ----------------------------------------------------------------------
# Sender-side construction from pipeline objects.
# ----------------------------------------------------------------------
def build_message(tier: Tier, boxes: list[Box2D], *,
                  cloud: PointCloud | None = None,
                  features=None,
                  config: TierCodecConfig | None = None) -> TieredMessage:
    """Assemble the message a sender at ``tier`` would transmit.

    Args:
        tier: the fidelity rung to send at.
        boxes: the sender's BEV detection boxes (always transmitted).
        cloud: the raw scan (full-scan tier only).
        features: the sender's extracted
            :class:`~repro.core.bv_matching.BVFeatures` (BV-image and
            keypoint tiers; accessed duck-typed to keep this package
            core-free).
        config: encoding knobs (defaults).
    """
    config = config or TierCodecConfig()
    if tier is Tier.FULL_SCAN:
        return TieredMessage(tier, list(boxes), cloud=_require(
            cloud, tier, "the raw point cloud"))
    if tier is Tier.BV_IMAGE:
        features = _require(features, tier, "extracted BVFeatures")
        return TieredMessage(tier, list(boxes), bv_image=features.bv_image)
    if tier is Tier.KEYPOINTS:
        features = _require(features, tier, "extracted BVFeatures")
        return TieredMessage(tier, list(boxes),
                             keypoints=_keypoint_payload(features, config))
    if tier is Tier.BOXES_ONLY:
        return TieredMessage(tier, list(boxes))
    raise ValueError(f"unknown tier: {tier!r}")


def _keypoint_payload(features, config: TierCodecConfig) -> KeypointPayload:
    """Top-K pooled keypoints + descriptors from extracted features."""
    desc_set = features.descriptors
    bv = features.bv_image
    n_orient = features.num_orientations
    dim = desc_set.descriptors.shape[1] if len(desc_set) else n_orient
    if len(desc_set) == 0:
        pooled_grid = 1
        pooled_orient = max(n_orient // config.orientation_pool, 1)
        return KeypointPayload(
            xy=np.empty((0, 2), dtype=np.int64), scores=np.empty(0),
            descriptors=np.empty((0, pooled_grid ** 2 * pooled_orient)),
            image_size=bv.size, cell_size=bv.cell_size,
            lidar_range=bv.lidar_range, grid_size=pooled_grid,
            num_orientations=pooled_orient)
    grid = _infer_descriptor_geometry(dim, n_orient)
    scores = np.asarray(features.keypoints.scores)[
        desc_set.keypoint_indices]
    if len(desc_set) > config.max_keypoints:
        top = np.argpartition(scores, -config.max_keypoints)[
            -config.max_keypoints:]
        selected = np.sort(top)  # back to scan order for delta coding
    else:
        selected = np.arange(len(desc_set))
    pooled = pool_descriptors(desc_set.descriptors[selected], grid,
                              n_orient, config.grid_pool,
                              config.orientation_pool)
    xy = np.rint(desc_set.keypoint_xy[selected]).astype(np.int64)
    return KeypointPayload(
        xy=xy, scores=scores[selected], descriptors=pooled,
        image_size=bv.size, cell_size=bv.cell_size,
        lidar_range=bv.lidar_range,
        grid_size=grid // config.grid_pool,
        num_orientations=n_orient // config.orientation_pool)
