"""Wire codecs for BV images and bounding boxes.

BV images are ~95 % zeros (empty cells), so the codec quantizes
intensities to 8 bits and run-length-encodes zero runs:

* token ``0x00`` + uint16 run length: a run of empty cells,
* any other byte: one occupied cell's quantized intensity (1..255).

Boxes are packed as five little-endian float32 values each
(x, y, length, width, yaw) — the 2-D BEV rectangle stage 2 consumes.
All headers are explicit so messages are self-describing, and every
message carries a CRC32 over everything but the checksum field itself,
so a receiver can tell a damaged buffer from a valid one before acting
on it.

Decoders are *total* over ``bytes``: any input that is not a well-formed
message — wrong magic, short header, truncated payload, length mismatch,
RLE overrun, an image above :data:`MAX_BV_SIZE`, a payload inflating
past what its header allows, checksum failure — raises
:class:`CodecError` (a ``ValueError`` subclass).  They never crash
with an internal exception and never return a silently-wrong image,
which is what lets the degradation ladder in :mod:`repro.core.pipeline`
treat "undecodable message" as one well-defined failure mode.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.bev.projection import BVImage
from repro.boxes.box import Box2D

__all__ = ["CodecError", "MAX_BV_SIZE", "encode_bv_image",
           "decode_bv_image", "encode_boxes", "decode_boxes"]

_BV_MAGIC = b"BV02"
_BV_MAGIC_Z = b"BVZ2"
_BOX_MAGIC = b"BX02"
_LEGACY_MAGICS = (b"BV01", b"BVZ1", b"BX01")
# Header layout: base fields, then a uint32 CRC32 computed over the
# packed base header plus the (possibly compressed) payload.
_BV_HEAD = struct.Struct("<4sHddd")     # magic, size, cell, range, scale
_BOX_HEAD = struct.Struct("<4sH")       # magic, count
_CRC = struct.Struct("<I")
_BOX_RECORD = struct.Struct("<5f")
_MAX_RUN = 0xFFFF                       # cells per zero-run token
_SCAN_CHUNK = 1 << 16                   # zero bytes per token-scan chunk
#: Largest BV image edge :func:`decode_bv_image` accepts (4.2 M cells).
#: The repository's configurations produce 192 (0.8 m cells over
#: +-76.8 m) up to 384; the header's uint16 would otherwise let a
#: CRC-valid 3-byte message ask for a 32 GiB image.
MAX_BV_SIZE = 2048


class CodecError(ValueError):
    """A buffer is not a valid wire message (malformed, truncated or
    failing its integrity check).

    ``request_id`` is set when a service request's header and checksum
    verified but its body did not decode: the id is then the sender's,
    so the request can still be answered.
    """

    request_id: int | None = None


def _check_magic(magic: bytes, expected: tuple[bytes, ...],
                 kind: str) -> None:
    if magic in expected:
        return
    if magic in _LEGACY_MAGICS:
        raise CodecError(
            f"legacy v1 {kind} message (no integrity field); re-encode "
            "with the current codec")
    raise CodecError(f"not a {kind} message (magic {magic!r})")


def _verify_crc(data: bytes, head: struct.Struct, kind: str) -> bytes:
    """Split ``header | crc | payload``, verify, return the payload."""
    crc_offset = head.size
    payload_offset = crc_offset + _CRC.size
    if len(data) < payload_offset:
        raise CodecError(f"truncated {kind} header: {len(data)} bytes")
    (stored,) = _CRC.unpack_from(data, crc_offset)
    payload = data[payload_offset:]
    actual = zlib.crc32(payload, zlib.crc32(data[:crc_offset]))
    if stored != actual:
        raise CodecError(
            f"{kind} checksum mismatch: stored {stored:#010x}, "
            f"computed {actual:#010x}")
    return payload


def _frame(header: bytes, payload: bytes) -> bytes:
    """Assemble ``header | crc32(header + payload) | payload``."""
    crc = zlib.crc32(payload, zlib.crc32(header))
    return header + _CRC.pack(crc) + payload


def encode_bv_image(bv: BVImage, max_intensity: float | None = None,
                    compress: bool = False) -> bytes:
    """Serialize a BV image (8-bit quantization + zero-RLE + CRC32).

    Args:
        bv: the image to encode.
        max_intensity: quantization full-scale; defaults to the image
            maximum (stored in the header so decoding is self-contained).
        compress: additionally deflate the RLE payload with zlib —
            typically another ~2x on street scenes (repeated wall
            intensities compress well).

    Returns:
        The encoded byte string.
    """
    image = bv.image
    scale = float(max_intensity if max_intensity is not None
                  else max(image.max(), 1e-9))
    # Quantize occupied cells to 1..255 (0 is reserved for empty).
    quantized = np.zeros(image.shape, dtype=np.uint8)
    occupied = image > 0
    levels = np.clip(np.round(image[occupied] / scale * 255.0), 1, 255)
    quantized[occupied] = levels.astype(np.uint8)

    magic = _BV_MAGIC_Z if compress else _BV_MAGIC
    payload = _zero_rle(quantized.ravel())
    if compress:
        payload = zlib.compress(payload, level=6)
    header = _BV_HEAD.pack(magic, bv.size, bv.cell_size, bv.lidar_range,
                           scale)
    return _frame(header, payload)


def decode_bv_image(data: bytes) -> BVImage:
    """Inverse of :func:`encode_bv_image` (lossy only by quantization).

    Raises:
        CodecError: ``data`` is not a well-formed BV image message,
            including one whose image is larger than
            :data:`MAX_BV_SIZE` or whose payload exceeds 3 bytes per
            cell (only zero-length runs could pad it that far).
    """
    try:
        magic, size, cell_size, lidar_range, scale = _BV_HEAD.unpack_from(
            data, 0)
    except struct.error as exc:
        raise CodecError(f"malformed BV image header: {exc}") from exc
    _check_magic(magic, (_BV_MAGIC, _BV_MAGIC_Z), "BV image")
    payload = _verify_crc(data, _BV_HEAD, "BV image")
    if size > MAX_BV_SIZE:
        raise CodecError(f"BV image of {size}x{size} cells exceeds the "
                         f"decoder limit of {MAX_BV_SIZE}")
    total = size * size
    # Every cell costs at most one 3-byte run token.
    limit = 3 * total
    if magic == _BV_MAGIC_Z:
        payload = _inflate(payload, limit, "compressed BV payload")
    elif len(payload) > limit:
        raise CodecError(f"BV payload of {len(payload)} bytes is longer "
                         f"than {total} cells can need")
    if not (np.isfinite(cell_size) and np.isfinite(lidar_range)
            and np.isfinite(scale)) or cell_size <= 0 or lidar_range <= 0:
        raise CodecError("BV image header carries non-physical geometry")
    cells, levels = _parse_zero_rle(payload, total)
    # The only image-sized allocation, made once coverage is checked.
    flat = np.zeros(total, dtype=np.float64)
    flat[cells] = levels / 255.0 * scale
    return BVImage(flat.reshape(size, size), cell_size, lidar_range)


def _zero_rle(flat: np.ndarray) -> bytes:
    """Zero-RLE of quantized cells: literals kept, zero runs tokenized.

    The runs are the gaps between occupied cells.  A gap of ``L`` empty
    cells becomes ``ceil(L / 65535)`` tokens (full 65535-cell ones,
    then the remainder), so literals and tokens land at offsets known
    from cumulative token counts and are scattered there at once.
    """
    # On a bool mask: flatnonzero scans it ~5x faster than uint8.
    literals = np.flatnonzero(flat != 0)
    # Empty cells before each literal, then after the last one.
    gaps = np.diff(literals, prepend=-1, append=len(flat)) - 1
    tokens = -(-gaps // _MAX_RUN)
    token_bytes = np.cumsum(3 * tokens)
    out = np.empty(int(token_bytes[-1]) + len(literals), dtype=np.uint8)
    out[token_bytes[:-1] + np.arange(len(literals))] = flat[literals]
    gap = np.repeat(np.arange(len(gaps)), tokens)
    step = np.arange(len(gap)) - (token_bytes // 3 - tokens)[gap]
    at = (token_bytes - 3 * tokens)[gap] + gap + 3 * step
    cells = np.where(step == tokens[gap] - 1,
                     gaps[gap] - _MAX_RUN * step, _MAX_RUN)
    out[at] = 0
    out[at + 1] = cells & 0xFF
    out[at + 2] = cells >> 8
    return out.tobytes()


def _token_starts(buf: np.ndarray) -> np.ndarray:
    """Offsets of the zero-run tokens of an RLE payload.

    A zero byte opens a token unless it is a length byte of the token
    before it, so one pass over the zero bytes (in bounded chunks)
    finds every token; every other byte is a literal.
    """
    zeros = np.flatnonzero(buf == 0)
    starts = []
    free = 0
    for lo in range(0, len(zeros), _SCAN_CHUNK):
        kept = []
        for offset in zeros[lo:lo + _SCAN_CHUNK].tolist():
            if offset >= free:
                kept.append(offset)
                free = offset + 3
        starts.append(np.array(kept, dtype=np.intp))
    return np.concatenate(starts) if starts else np.empty(0, np.intp)


def _parse_zero_rle(payload: bytes,
                    total: int) -> tuple[np.ndarray, np.ndarray]:
    """The (cell, level) of every literal of a zero-RLE payload.

    Raises :class:`CodecError` unless the tokens cover exactly
    ``total`` cells, before anything image-sized is allocated.
    """
    buf = np.frombuffer(payload, dtype=np.uint8)
    starts = _token_starts(buf)
    if len(starts) and starts[-1] + 3 > len(buf):
        raise CodecError("truncated BV payload")
    runs = buf[starts + 1] | buf[starts + 2].astype(np.int64) << 8
    literal = np.ones(len(buf), dtype=bool)
    for k in range(3):
        literal[starts + k] = False
    literals = np.flatnonzero(literal)
    covered = len(literals) + int(runs.sum())
    if covered != total:
        raise CodecError(f"BV payload covers {covered} of {total} cells")
    run_cells = np.concatenate(([0], np.cumsum(runs)))
    cells = (np.arange(len(literals))
             + run_cells[np.searchsorted(starts, literals)])
    return cells, buf[literals]


def _inflate(data: bytes, limit: int, what: str) -> bytes:
    """``zlib.decompress`` that refuses to produce more than ``limit``
    bytes (the most the enclosing header allows)."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(data, limit + 1)
    except zlib.error as exc:
        raise CodecError(f"corrupt {what}: {exc}") from exc
    if len(out) > limit:
        raise CodecError(f"{what} inflates past the {limit} bytes its "
                         "header allows")
    if not inflater.eof:
        raise CodecError(f"corrupt {what}: incomplete or truncated stream")
    return out


def encode_boxes(boxes: list[Box2D]) -> bytes:
    """Serialize BEV boxes (five float32 values each + CRC32)."""
    payload = b"".join(
        _BOX_RECORD.pack(box.center_x, box.center_y, box.length,
                         box.width, box.yaw)
        for box in boxes)
    header = _BOX_HEAD.pack(_BOX_MAGIC, len(boxes))
    return _frame(header, payload)


def decode_boxes(data: bytes) -> list[Box2D]:
    """Inverse of :func:`encode_boxes`.

    Raises:
        CodecError: ``data`` is not a well-formed box message.
    """
    try:
        magic, count = _BOX_HEAD.unpack_from(data, 0)
    except struct.error as exc:
        raise CodecError(f"malformed box header: {exc}") from exc
    _check_magic(magic, (_BOX_MAGIC,), "box")
    payload = _verify_crc(data, _BOX_HEAD, "box")
    expected = count * _BOX_RECORD.size
    if len(payload) != expected:
        raise CodecError(
            f"box payload length mismatch: {len(payload)} bytes for "
            f"{count} boxes (expected {expected})")
    boxes: list[Box2D] = []
    for offset in range(0, expected, _BOX_RECORD.size):
        x, y, length, width, yaw = _BOX_RECORD.unpack_from(payload, offset)
        if not all(np.isfinite(v) for v in (x, y, length, width, yaw)):
            raise CodecError("box record carries non-finite values")
        try:
            boxes.append(Box2D(x, y, length, width, yaw))
        except ValueError as exc:
            raise CodecError(f"invalid box record: {exc}") from exc
    return boxes
