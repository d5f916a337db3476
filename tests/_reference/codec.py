"""Loop zero-RLE codec, the twin of ``repro.comms.codec``'s BV-image
encoder and decoder.

The pre-rework implementation: the encoder walks zero runs one by one
and the decoder walks the payload byte by byte into an image it
allocates from the header first.  The vectorized codec must write the
same bytes and decode every buffer to the same image or the same
:class:`~repro.comms.codec.CodecError`, within the decoder's size
limits (this twin would allocate whatever image a header names).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.bev.projection import BVImage
from repro.comms.codec import (
    _BV_HEAD,
    _BV_MAGIC,
    _BV_MAGIC_Z,
    CodecError,
    _check_magic,
    _frame,
    _verify_crc,
)


def reference_encode_bv_image(bv: BVImage,
                              max_intensity: float | None = None,
                              compress: bool = False) -> bytes:
    """8-bit quantization + zero-RLE (+ zlib) + CRC32, run by run."""
    image = bv.image
    scale = float(max_intensity if max_intensity is not None
                  else max(image.max(), 1e-9))
    quantized = np.zeros(image.shape, dtype=np.uint8)
    occupied = image > 0
    levels = np.clip(np.round(image[occupied] / scale * 255.0), 1, 255)
    quantized[occupied] = levels.astype(np.uint8)

    flat = quantized.ravel()
    magic = _BV_MAGIC_Z if compress else _BV_MAGIC
    chunks: list[bytes] = []
    is_zero = flat == 0
    boundaries = np.flatnonzero(np.diff(is_zero.astype(np.int8))) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(flat)]])
    for start, end in zip(starts, ends):
        if is_zero[start]:
            run = int(end - start)
            while run > 0:
                step = min(run, 0xFFFF)
                chunks.append(b"\x00" + struct.pack("<H", step))
                run -= step
        else:
            chunks.append(flat[start:end].tobytes())
    payload = b"".join(chunks)
    if compress:
        payload = zlib.compress(payload, level=6)
    header = _BV_HEAD.pack(magic, bv.size, bv.cell_size, bv.lidar_range,
                           scale)
    return _frame(header, payload)


def reference_decode_bv_image(data: bytes) -> BVImage:
    """Inverse of :func:`reference_encode_bv_image`, byte by byte."""
    try:
        magic, size, cell_size, lidar_range, scale = _BV_HEAD.unpack_from(
            data, 0)
    except struct.error as exc:
        raise CodecError(f"malformed BV image header: {exc}") from exc
    _check_magic(magic, (_BV_MAGIC, _BV_MAGIC_Z), "BV image")
    payload = _verify_crc(data, _BV_HEAD, "BV image")
    if magic == _BV_MAGIC_Z:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise CodecError(f"corrupt compressed payload: {exc}") from exc
    if not (np.isfinite(cell_size) and np.isfinite(lidar_range)
            and np.isfinite(scale)) or cell_size <= 0 or lidar_range <= 0:
        raise CodecError("BV image header carries non-physical geometry")
    total = size * size
    flat = np.zeros(total, dtype=np.float64)
    cursor = 0
    offset = 0
    view = memoryview(payload)
    length = len(payload)
    while offset < length:
        byte = view[offset]
        if byte == 0:
            try:
                run = struct.unpack_from("<H", payload, offset + 1)[0]
            except struct.error as exc:
                raise CodecError("truncated BV payload") from exc
            cursor += run
            offset += 3
        else:
            if cursor >= total:
                raise CodecError(
                    f"BV payload overruns the image: cell {cursor} of "
                    f"{total}")
            flat[cursor] = byte / 255.0 * scale
            cursor += 1
            offset += 1
    if cursor != total:
        raise CodecError(
            f"BV payload covers {cursor} of {total} cells")
    return BVImage(flat.reshape(size, size), cell_size, lidar_range)
