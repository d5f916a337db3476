"""The shared bev FFT backend (``repro.bev._fft``).

The backend's numerical contract: a batched ``(B, H, W)`` transform is
bitwise-identical to ``B`` independent ``(H, W)`` transforms.  These
tests pin that fact for both directions and both precisions, plus the
numpy fallback used when SciPy is absent.
"""

import numpy as np
import pytest

from repro.bev import _fft


class TestBatchedBitwiseIdentity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_batch_matches_slices(self, dtype):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((3, 48, 48)).astype(dtype)
        batched = _fft.fft2(stack)
        for i in range(len(stack)):
            single = _fft.fft2(stack[i])
            assert single.dtype == batched.dtype
            assert np.array_equal(
                batched[i].view(np.float64 if dtype is np.float64
                                else np.float32),
                single.view(np.float64 if dtype is np.float64
                            else np.float32))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_inverse_batch_matches_slices(self, dtype):
        rng = np.random.default_rng(9)
        stack = (rng.standard_normal((4, 32, 64))
                 + 1j * rng.standard_normal((4, 32, 64))).astype(dtype)
        batched = _fft.ifft2(stack)
        for i in range(len(stack)):
            assert np.array_equal(batched[i], _fft.ifft2(stack[i].copy()))

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        image = rng.standard_normal((40, 40))
        back = _fft.ifft2(_fft.fft2(image))
        np.testing.assert_allclose(back.real, image, atol=1e-12)

    def test_overwrite_same_values(self):
        rng = np.random.default_rng(5)
        spec = (rng.standard_normal((24, 24))
                + 1j * rng.standard_normal((24, 24)))
        expected = _fft.ifft2(spec.copy(), overwrite=False)
        overwritten = _fft.ifft2(spec.copy(), overwrite=True)
        assert np.array_equal(expected, overwritten)


class TestNumpyFallback:
    def test_fallback_used_when_scipy_missing(self, monkeypatch):
        monkeypatch.setattr(_fft, "_sp_fft", None)
        rng = np.random.default_rng(13)
        image = rng.standard_normal((16, 16))
        spec = _fft.fft2(image)
        assert np.array_equal(spec, np.fft.fft2(image))
        assert np.array_equal(_fft.ifft2(spec), np.fft.ifft2(spec))

    def test_fallback_batch_matches_slices(self, monkeypatch):
        monkeypatch.setattr(_fft, "_sp_fft", None)
        rng = np.random.default_rng(15)
        stack = rng.standard_normal((2, 16, 16))
        batched = _fft.fft2(stack)
        for i in range(len(stack)):
            assert np.array_equal(batched[i], _fft.fft2(stack[i]))
