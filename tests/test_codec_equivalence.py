"""Equivalence of the vectorized BV-image zero-RLE with its loop twin.

``tests/_reference/codec.py`` keeps the pre-vectorization encoder and
decoder (see CONTRIBUTING.md).  Both contracts are bit-identical:

- Encoding writes the same bytes, with ``compress`` off and on, on the
  pair-sweep pool's BV images (data seed 2024) and on edge images: all
  empty and longer than one run token (65,535 cells), one cell, every
  cell occupied.
- Decoding any buffer gives the same image, or a ``CodecError`` from
  both, on mutated and truncated messages whose CRC is recomputed (so
  the damage reaches the RLE parser).  Buffers beyond the decoder's
  limits (an edge above ``MAX_BV_SIZE``, more than 3 payload bytes per
  cell) must raise from the new decoder; the twin is not run on them,
  since it allocates whatever image a header names.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bev.projection import BVImage
from repro.comms.codec import (
    _BV_HEAD,
    _CRC,
    MAX_BV_SIZE,
    CodecError,
    decode_bv_image,
    encode_bv_image,
)
from repro.core import BBAlign
from repro.simulation import DatasetConfig, V2VDatasetSim

from tests._reference.codec import (
    reference_decode_bv_image,
    reference_encode_bv_image,
)

#: The first pairs of the pair-sweep pool: 40 BV images.
POOL_PAIRS = 20
DATA_SEED = 2024
_PAYLOAD = _BV_HEAD.size + _CRC.size


def random_image(seed: int, size: int, occupancy: float) -> BVImage:
    rng = np.random.default_rng(seed)
    image = np.zeros((size, size))
    occupied = rng.random((size, size)) < occupancy
    image[occupied] = rng.uniform(0.1, 6.0, occupied.sum())
    return BVImage(image, cell_size=0.4, lidar_range=size * 0.2)


def edge_images() -> dict[str, BVImage]:
    long_runs = np.zeros((300, 300))
    long_runs[0, 0] = long_runs[150, 7] = long_runs[-1, -1] = 3.0
    return {
        # 90,000 empty cells: one full 65,535-cell token and the rest.
        "all-zero-300": BVImage(np.zeros((300, 300)), 0.4, 60.0),
        # 65,536 cells: a full token and a 1-cell one.
        "all-zero-256": BVImage(np.zeros((256, 256)), 0.4, 51.2),
        "long-runs": BVImage(long_runs, 0.4, 60.0),
        "one-cell": BVImage(np.full((1, 1), 2.5), 0.4, 0.2),
        "one-empty-cell": BVImage(np.zeros((1, 1)), 0.4, 0.2),
        "full": random_image(3, 24, 1.0),
        "sparse": random_image(4, 16, 0.2),
    }


@pytest.fixture(scope="module")
def pool_images() -> list[BVImage]:
    dataset = V2VDatasetSim(DatasetConfig(num_pairs=POOL_PAIRS,
                                          seed=DATA_SEED))
    matcher = BBAlign().bv_matcher
    images = []
    for index in range(POOL_PAIRS):
        pair = dataset[index].pair
        images.append(matcher.make_bv_image(pair.ego_cloud))
        images.append(matcher.make_bv_image(pair.other_cloud))
    return images


def assert_same_image(got: BVImage, want: BVImage) -> None:
    assert np.array_equal(got.image, want.image)
    assert got.cell_size == want.cell_size
    assert got.lidar_range == want.lidar_range


class TestEncodeIdentical:
    @pytest.mark.parametrize("compress", [False, True])
    def test_pool_images(self, pool_images, compress):
        for bv in pool_images:
            data = encode_bv_image(bv, compress=compress)
            assert data == reference_encode_bv_image(bv, compress=compress)
            assert_same_image(decode_bv_image(data),
                              reference_decode_bv_image(data))

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("name", list(edge_images()))
    def test_edge_images(self, name, compress):
        bv = edge_images()[name]
        data = encode_bv_image(bv, compress=compress)
        assert data == reference_encode_bv_image(bv, compress=compress)
        assert_same_image(decode_bv_image(data),
                          reference_decode_bv_image(data))

    def test_clipped_full_scale(self):
        bv = random_image(5, 16, 0.5)
        assert encode_bv_image(bv, max_intensity=1.0) \
            == reference_encode_bv_image(bv, max_intensity=1.0)


def reframe(header: bytes, payload: bytes) -> bytes:
    """A message with a recomputed (valid) CRC."""
    crc = zlib.crc32(payload, zlib.crc32(header))
    return header + _CRC.pack(crc) + payload


def beyond_limits(data: bytes) -> bool:
    """Whether a CRC-valid BV buffer is outside the decoder's limits."""
    magic, size = struct.unpack_from("<4sH", data, 0)
    payload = data[_PAYLOAD:]
    if size > MAX_BV_SIZE:
        return True
    if magic == b"BVZ2":
        try:
            payload = zlib.decompress(payload)
        except zlib.error:
            return False
    return len(payload) > 3 * size * size


def assert_same_outcome(data: bytes) -> None:
    try:
        got = decode_bv_image(data)
    except CodecError:
        got = None
    if beyond_limits(data):
        assert got is None
        return
    try:
        want = reference_decode_bv_image(data)
    except CodecError:
        want = None
    assert (got is None) == (want is None)
    if got is not None:
        assert_same_image(got, want)


FUZZ_IMAGES = [random_image(6, 12, 0.3), random_image(7, 20, 0.05),
               edge_images()["long-runs"], edge_images()["full"]]


@st.composite
def damaged_messages(draw) -> bytes:
    """A valid message with its header fields, RLE bytes or length
    damaged, re-framed with a valid CRC.  Compressed messages are
    damaged before deflating, so the damage reaches the parser."""
    bv = draw(st.sampled_from(FUZZ_IMAGES))
    compress = draw(st.booleans())
    plain = reference_encode_bv_image(bv)
    header = bytearray(plain[:_BV_HEAD.size])
    rle = bytearray(plain[_PAYLOAD:])
    edits = draw(st.lists(
        st.tuples(st.integers(0, 10 ** 6),
                  st.one_of(st.just(0), st.integers(0, 255))),
        min_size=1, max_size=4))
    # Positions past the magic: the size, geometry and scale fields,
    # then the RLE payload.
    editable = len(header) - 4 + len(rle)
    for position, value in edits:
        at = position % editable
        if at < len(header) - 4:
            header[4 + at] = value
        else:
            rle[at - len(header) + 4] = value
    if draw(st.booleans()):
        rle = rle[:draw(st.integers(0, len(rle)))]
    if compress:
        header[:4] = b"BVZ2"
        rle = zlib.compress(bytes(rle), 6)
    return reframe(bytes(header), bytes(rle))


class TestDecodeIdentical:
    @given(damaged_messages())
    @settings(max_examples=400, deadline=None)
    def test_damaged_messages(self, data):
        assert_same_outcome(data)

    @pytest.mark.parametrize("compress", [False, True])
    def test_every_payload_truncation(self, compress):
        """Every RLE prefix, re-framed: mid-token cuts and short
        coverage alike."""
        bv = edge_images()["long-runs"]
        plain = reference_encode_bv_image(bv)
        header = bytearray(plain[:_BV_HEAD.size])
        rle = plain[_PAYLOAD:]
        for cut in range(len(rle)):
            payload = rle[:cut]
            if compress:
                header[:4] = b"BVZ2"
                payload = zlib.compress(payload, 6)
            assert_same_outcome(reframe(bytes(header), payload))

    @pytest.mark.parametrize("payload", [
        b"\x00\x00\x00\x07",                 # an empty run, then a literal
        b"\x05\x00",                         # truncated token
        b"\x00\x03\x00\x00\x01",             # token, then a cut token
        b"\x09" * 5,                         # literals past the image
        b"\x00\x00\x00",                     # covers nothing
    ])
    def test_crafted_payloads(self, payload):
        header = _BV_HEAD.pack(b"BV02", 1, 0.4, 0.2, 1.0)
        assert_same_outcome(reframe(header, payload))

    def test_padding_beyond_three_bytes_per_cell_refused(self):
        """The one verdict that differs: zero-length runs can pad a
        payload without bound, and the twin decodes such a payload; the
        new decoder refuses more than 3 bytes per cell (what the
        BVZ2 inflate bound allows, too)."""
        header = _BV_HEAD.pack(b"BV02", 1, 0.4, 0.2, 1.0)
        data = reframe(header, b"\x00\x00\x00" * 4 + b"\x07")
        assert reference_decode_bv_image(data).image[0, 0] > 0
        with pytest.raises(CodecError, match="longer than"):
            decode_bv_image(data)
