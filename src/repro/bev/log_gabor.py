"""2-D Log-Gabor filter bank (paper Eq. 6-8).

The paper (following RIFT [25] / BVMatch [27] / Kovesi [32]) filters the BV
image with a bank of ``N_s x N_o`` Log-Gabor filters.  A 2-D Log-Gabor
filter is defined in the *frequency domain* in polar coordinates
``(rho, theta)`` as the product of a log-normal radial window centered on
the scale's center frequency and a Gaussian angular window centered on the
preferred orientation — this is the (rho, theta, rho_0, theta_0)
parameterization of the paper's Eq. (6); the polar change of variables of
Eq. (5) is exactly the frequency-plane polar grid built here.  Filtering is
a frequency-domain product followed by an inverse FFT; the complex
magnitude of the result is the amplitude of Eq. (8).

Scale center frequencies follow Kovesi's convention referenced by the
paper's footnote 2: wavelength ``lambda_s = min_wavelength * mult**(s-1)``,
center frequency ``rho_s = 1 / lambda_s``.

Performance notes (the stage-1 hot path runs this on every frame):

* The frequency-domain windows are **real**, so filtering never performs
  complex multiplies: windows are prebuilt at bank construction as
  duplicated-interleaved float32 rows (:func:`_pack_window`) that scale a
  complex64 spectrum viewed as float32 with one contiguous SIMD pass.
  The ``radial[s] * angular[o]`` product stays *factored* — the hot loop
  hoists ``spectrum * radial[s]`` once per scale — so applying the bank
  streams ``N_s + N_o`` windows instead of ``N_s * N_o`` full filter
  products (the multiply is memory-bound; this is ~5x less filter
  traffic).
* Transforms go through the shared :mod:`repro.bev._fft` backend (SciPy's
  pocketfft when available — SIMD-vectorized and ~2x faster than
  ``numpy.fft`` on this workload — falling back to ``numpy.fft``).
* The bank owns its **scratch workspace**, one per thread: the
  per-scale scaled spectra, the product buffer and the magnitude
  temporary are allocated on a thread's first use and reused across
  every image that thread filters (:meth:`LogGaborBank._workspace`), so
  the hot loop performs no per-call allocations beyond the returned
  sums and the backend's inverse-transform outputs, and two threads
  sharing one cached bank (:mod:`repro.runtime.fanout`) never write
  each other's buffers.
* The inverse transforms are applied filter-by-filter rather than as one
  giant batched transform: the angular window is one-sided, so the complex
  response *is* the analytic signal and a single complex ``ifft2`` already
  delivers the two real transforms (even/odd part) needed for the Eq. (8)
  amplitude — which also means a real-input ``rfft`` cannot halve the
  work (the product spectrum is not conjugate-symmetric) — and the
  per-filter working set stays cache-resident, which measures faster than
  a ``(N_s*N_o, H, W)`` batched transform on cache-constrained hosts (see
  ``benchmarks/test_stage1_kernels.py``).
* The per-filter product and inverse transform run in **single
  precision** (the forward FFT of the image stays double and is then
  downcast, so the input spectrum carries full accuracy).  Amplitudes are
  only consumed through wide-margin discrete decisions — the MIM
  orientation argmax, FAST thresholding, descriptor votes — and the
  relative ``~1e-7`` single-precision rounding does not move any of
  them, while complex64 transforms run ~2x faster on SIMD hosts.

The pre-rework implementations are preserved as ``_reference_*`` methods.
They compute in double precision exactly as the original code did, so the
equivalence tests assert identical MIM argmax decisions and amplitude
agreement at single-precision tolerance (``rtol ~1e-5``) rather than
bitwise equality.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.bev._fft import fft2 as _fft2
from repro.bev._fft import ifft2 as _ifft2

__all__ = ["LogGaborConfig", "LogGaborBank"]


def _pack_window(window: np.ndarray) -> np.ndarray:
    """A real frequency window duplicated along the last axis (float32).

    Viewing a complex64 spectrum as float32 interleaves re/im pairs; the
    duplicated window lines each value up with both components, so
    ``spectrum * window`` becomes one contiguous real SIMD multiply that
    is bit-identical to the complex product with a real-valued filter.
    """
    return np.repeat(np.asarray(window, dtype=np.float32), 2, axis=1)


@dataclass(frozen=True)
class LogGaborConfig:
    """Hyperparameters of the filter bank.

    Defaults match the paper's evaluation setup (``N_s = 4`` scales,
    ``N_o = 12`` orientations) with Kovesi's standard bandwidth settings.

    Attributes:
        num_scales: ``N_s``.
        num_orientations: ``N_o``; orientation ``o`` is at angle
            ``(o - 1) * pi / N_o``.
        min_wavelength: wavelength of the finest scale, in pixels.
        mult: scaling factor between successive filter wavelengths.
        sigma_on_f: ratio ``sigma_rho / rho_0`` of the log-normal radial
            window (0.55 ~ two-octave bandwidth).
        d_theta_on_sigma: ratio of the angular spacing between filter
            orientations to the angular Gaussian sigma.
    """

    num_scales: int = 4
    num_orientations: int = 12
    min_wavelength: float = 3.0
    mult: float = 1.6
    sigma_on_f: float = 0.55
    d_theta_on_sigma: float = 1.2

    def __post_init__(self) -> None:
        if self.num_scales < 1:
            raise ValueError("num_scales must be >= 1")
        if self.num_orientations < 2:
            raise ValueError("num_orientations must be >= 2")
        if self.min_wavelength < 2:
            raise ValueError("min_wavelength must be >= 2 pixels (Nyquist)")
        if self.mult <= 1:
            raise ValueError("mult must be > 1")
        if not (0 < self.sigma_on_f < 1):
            raise ValueError("sigma_on_f must be in (0, 1)")

    @property
    def orientations(self) -> np.ndarray:
        """Filter orientations ``O[o] = (o - 1) * pi / N_o`` (radians)."""
        return np.arange(self.num_orientations) * np.pi / self.num_orientations

    @property
    def wavelengths(self) -> np.ndarray:
        """Per-scale wavelengths in pixels."""
        return self.min_wavelength * self.mult ** np.arange(self.num_scales)

    @property
    def center_frequencies(self) -> np.ndarray:
        """Per-scale center frequencies ``rho_s`` (cycles/pixel)."""
        return 1.0 / self.wavelengths


class LogGaborBank:
    """A Log-Gabor filter bank precomputed for one image size.

    Building the frequency-domain filters is the expensive part; this class
    caches them so repeated MIM computations on same-sized BV images (every
    frame of a drive) reuse the bank.
    """

    def __init__(self, size: int, config: LogGaborConfig | None = None) -> None:
        if size < 4:
            raise ValueError("image size must be >= 4 pixels")
        self.size = int(size)
        self.config = config or LogGaborConfig()
        self._radial, self._angular, self._lowpass = self._build()
        # The frequency-domain windows are *real*, so the per-filter
        # product never needs complex arithmetic: each window is stored
        # duplicated along the last axis (shape (H, 2W), float32) so one
        # contiguous SIMD multiply scales the interleaved re/im pairs of a
        # complex64 spectrum viewed as float32.  The separable structure
        # (filter = radial[s] * angular[o]) is kept factored: the hot loop
        # hoists ``spectrum * radial[s]`` per scale, cutting the streamed
        # filter bytes from N_s*N_o full products to N_s + N_o windows.
        self._radial_packed = np.stack(
            [_pack_window(r) for r in self._radial])
        self._angular_packed = np.stack(
            [_pack_window(a) for a in self._angular])
        # Reusable scratch buffers, per thread (see _workspace).
        self._scratch = threading.local()

    # ------------------------------------------------------------------
    def _frequency_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalized frequency-plane polar grid (rho in cycles/pixel)."""
        n = self.size
        freqs = np.fft.fftfreq(n)
        fx, fy = np.meshgrid(freqs, freqs)
        rho = np.sqrt(fx ** 2 + fy ** 2)
        rho[0, 0] = 1.0  # avoid log(0) at DC; the DC gain is zeroed below
        # BV images use row = +y (world axes, no flip), so the frequency
        # angle uses the same handedness; a +alpha world rotation then
        # shifts MIM orientation indices by +alpha, which the descriptor's
        # rotation normalization relies on.
        theta = np.arctan2(fy, fx)
        return rho, theta

    def _build(self):
        cfg = self.config
        rho, theta = self._frequency_grid()

        # Low-pass window keeps the radial filters from wrapping at the
        # FFT boundary (Kovesi's standard trick).
        lowpass = 1.0 / (1.0 + (rho / 0.45) ** 30)

        radial = []
        for f0 in cfg.center_frequencies:
            log_rho = np.log(rho / f0)
            r = np.exp(-(log_rho ** 2) / (2.0 * np.log(cfg.sigma_on_f) ** 2))
            r *= lowpass
            r[0, 0] = 0.0  # zero DC gain
            radial.append(r)

        d_theta_sigma = (np.pi / cfg.num_orientations) / cfg.d_theta_on_sigma
        angular = []
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        for theta0 in cfg.orientations:
            # Angular distance folded onto [0, pi) — Log-Gabor orientation
            # windows are symmetric under 180-degree rotation.
            ds = sin_t * np.cos(theta0) - cos_t * np.sin(theta0)
            dc = cos_t * np.cos(theta0) + sin_t * np.sin(theta0)
            d_theta = np.abs(np.arctan2(ds, dc))
            a = np.exp(-(d_theta ** 2) / (2.0 * d_theta_sigma ** 2))
            angular.append(a)
        return radial, angular, lowpass

    # ------------------------------------------------------------------
    def _check_image(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image, dtype=float)
        if image.shape != (self.size, self.size):
            raise ValueError(
                f"image shape {image.shape} does not match bank size {self.size}")
        return image

    def amplitude(self, image: np.ndarray, scale: int,
                  orientation: int) -> np.ndarray:
        """Amplitude response (Eq. 8) for one (scale, orientation) filter."""
        responses = self.amplitudes_by_orientation(
            image, scales=[scale], orientations=[orientation])
        return responses[0][0]

    def amplitudes_by_orientation(self, image: np.ndarray,
                                  scales=None, orientations=None) -> list[list[np.ndarray]]:
        """All amplitude responses, indexed ``[orientation][scale]``."""
        cfg = self.config
        scales = range(cfg.num_scales) if scales is None else scales
        orientations = (range(cfg.num_orientations) if orientations is None
                        else orientations)
        image_fft = _fft2(self._check_image(image)).astype(np.complex64)
        fview = image_fft.view(np.float32)
        product = np.empty((self.size, 2 * self.size), dtype=np.float32)
        out: list[list[np.ndarray]] = []
        for o in orientations:
            per_scale = []
            for s in scales:
                # Same two-step product as orientation_amplitude_sum, so
                # the two methods agree bit-for-bit.
                np.multiply(fview, self._radial_packed[s], out=product)
                product *= self._angular_packed[o]
                response = _ifft2(product.view(np.complex64),
                                  overwrite=True)
                per_scale.append(np.abs(response))
            out.append(per_scale)
        return out

    def _workspace(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The calling thread's scratch buffers, allocated on its first
        use.

        Returns ``(scaled, product, magnitude)``: the per-scale scaled
        spectra ``(N_s, H, 2W)``, the complex product buffer ``(H, W)``
        and the magnitude temporary ``(H, W)``.
        """
        buffers = getattr(self._scratch, "buffers", None)
        if buffers is None:
            n = self.size
            buffers = self._scratch.buffers = (
                np.empty((self.config.num_scales, n, 2 * n),
                         dtype=np.float32),
                np.empty((n, n), dtype=np.complex64),
                np.empty((n, n), dtype=np.float32))
        return buffers

    def orientation_amplitude_sum(self, image: np.ndarray) -> np.ndarray:
        """Eq. (9): per-orientation amplitude summed over scales.

        Returns an array of shape ``(N_o, H, H)``, float32 — the
        transforms run in single precision (see the module docstring);
        consumers needing double precision cast at their boundary.
        """
        cfg = self.config
        # Double-precision forward FFT, then downcast: the input spectrum
        # keeps full accuracy while the 48 products and inverse
        # transforms run at complex64 speed.
        spectrum = _fft2(self._check_image(image)).astype(np.complex64)
        fview = spectrum.view(np.float32)  # (H, 2W) interleaved re/im
        scaled, product, magnitude = self._workspace()
        # Hoist the radial product: scaled[s] = spectrum * radial[s], then
        # each filter is one angular multiply away.  All operands are
        # interleaved-f32 views (see _pack_window), so every product is a
        # contiguous real SIMD multiply.
        for s in range(cfg.num_scales):
            np.multiply(fview, self._radial_packed[s], out=scaled[s])
        sums = np.empty((cfg.num_orientations, self.size, self.size),
                        dtype=np.float32)
        pview = product.view(np.float32)
        for o in range(cfg.num_orientations):
            acc = sums[o]  # accumulate in place, no final copy
            # The first scale writes its magnitude straight into the
            # accumulator (0.0 + x == x, so skipping the zero-fill and
            # first add is bit-identical and two passes cheaper).
            np.multiply(scaled[0], self._angular_packed[o], out=pview)
            np.abs(_ifft2(product, overwrite=True), out=acc)
            for s in range(1, cfg.num_scales):
                np.multiply(scaled[s], self._angular_packed[o], out=pview)
                np.abs(_ifft2(product, overwrite=True), out=magnitude)
                acc += magnitude
        return sums

    # ------------------------------------------------------------------
    # Reference (pre-vectorization) implementations, kept for the
    # equivalence tests and the stage-1 micro-benchmark.  They rebuild
    # the frequency-domain product per frame, exactly as the original
    # code did; same FFT backend, so results match bit-for-bit.
    # ------------------------------------------------------------------
    def _reference_amplitudes_by_orientation(self, image: np.ndarray,
                                             scales=None, orientations=None
                                             ) -> list[list[np.ndarray]]:
        image = self._check_image(image)
        cfg = self.config
        scales = range(cfg.num_scales) if scales is None else scales
        orientations = (range(cfg.num_orientations) if orientations is None
                        else orientations)
        image_fft = _fft2(image)
        out: list[list[np.ndarray]] = []
        for o in orientations:
            per_scale = []
            for s in scales:
                filt = self._radial[s] * self._angular[o]
                response = _ifft2(image_fft * filt)
                per_scale.append(np.abs(response))
            out.append(per_scale)
        return out

    def _reference_orientation_amplitude_sum(self,
                                             image: np.ndarray) -> np.ndarray:
        image = self._check_image(image)
        cfg = self.config
        image_fft = _fft2(image)
        sums = np.empty((cfg.num_orientations, self.size, self.size))
        for o in range(cfg.num_orientations):
            acc = np.zeros((self.size, self.size))
            for s in range(cfg.num_scales):
                filt = self._radial[s] * self._angular[o]
                acc += np.abs(_ifft2(image_fft * filt))
            sums[o] = acc
        return sums
