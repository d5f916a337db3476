"""Shared FFT backend for the bev package.

Every frequency-domain consumer in :mod:`repro.bev` (the Log-Gabor bank,
phase congruency) routes its transforms through this module so all of
them get the same backend selection: SciPy's pocketfft when available
(SIMD-vectorized, ~2x faster than ``numpy.fft`` on this workload, and it
preserves single precision — a float32 input yields a complex64
spectrum), falling back to ``numpy.fft`` otherwise.

Both helpers transform over the last two axes, so a ``(B, H, W)`` stack
is one batched call; pocketfft iterates the leading axis internally and
produces outputs bitwise-identical to per-slice transforms (asserted by
``tests/test_bev_fft.py``).

Transforms are single-threaded: parallelism lives a level up, in the
sweep's and the service's worker processes and in
:func:`repro.runtime.fanout.fan_out` within a process.
"""

from __future__ import annotations

import numpy as np

try:  # SciPy's pocketfft is SIMD-vectorized; numpy's is scalar C.
    from scipy import fft as _sp_fft
except ImportError:  # pragma: no cover - scipy is a standard dependency
    _sp_fft = None

__all__ = ["fft2", "ifft2"]


def fft2(image: np.ndarray) -> np.ndarray:
    """Forward FFT over the last two axes via the fastest backend.

    Accepts a single ``(H, W)`` image or a ``(B, H, W)`` batch.  Under
    SciPy a float32 input produces a complex64 spectrum; the numpy
    fallback always returns complex128 (callers downcast as needed).
    """
    if _sp_fft is not None:
        return _sp_fft.fft2(image)
    return np.fft.fft2(image)


def ifft2(spectrum: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Inverse FFT over the last two axes; ``overwrite`` lets the backend
    destroy the input (safe for freshly-computed product spectra)."""
    if _sp_fft is not None:
        return _sp_fft.ifft2(spectrum, overwrite_x=overwrite)
    return np.fft.ifft2(spectrum)
