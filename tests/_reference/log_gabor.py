"""Per-frame Log-Gabor filtering, the twin of ``LogGaborBank``'s kernels.

The pre-rework implementation: the ``radial * angular`` frequency-domain
product is rebuilt for every filter and every frame, in double
precision, over the same FFT backend.  The stage-1 equivalence tests
hold the packed single-precision bank to it (identical orientation
argmax on valid pixels, amplitudes within float32 rounding).
"""

from __future__ import annotations

import numpy as np

from repro.bev._fft import fft2 as _fft2
from repro.bev._fft import ifft2 as _ifft2
from repro.bev.log_gabor import LogGaborBank


def reference_amplitudes_by_orientation(bank: LogGaborBank,
                                        image: np.ndarray, scales=None,
                                        orientations=None
                                        ) -> list[list[np.ndarray]]:
    """Per-(orientation, scale) amplitude maps, one filter at a time."""
    image = bank._check_image(image)
    cfg = bank.config
    scales = range(cfg.num_scales) if scales is None else scales
    orientations = (range(cfg.num_orientations) if orientations is None
                    else orientations)
    image_fft = _fft2(image)
    out: list[list[np.ndarray]] = []
    for o in orientations:
        per_scale = []
        for s in scales:
            filt = bank._radial[s] * bank._angular[o]
            response = _ifft2(image_fft * filt)
            per_scale.append(np.abs(response))
        out.append(per_scale)
    return out


def reference_orientation_amplitude_sum(bank: LogGaborBank,
                                        image: np.ndarray) -> np.ndarray:
    """Per-orientation amplitude summed over scales, float64."""
    image = bank._check_image(image)
    cfg = bank.config
    image_fft = _fft2(image)
    sums = np.empty((cfg.num_orientations, bank.size, bank.size))
    for o in range(cfg.num_orientations):
        acc = np.zeros((bank.size, bank.size))
        for s in range(cfg.num_scales):
            filt = bank._radial[s] * bank._angular[o]
            acc += np.abs(_ifft2(image_fft * filt))
        sums[o] = acc
    return sums
