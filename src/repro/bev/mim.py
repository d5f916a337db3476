"""Maximum Index Map (paper Eq. 9-10).

For every pixel, the MIM stores the index of the orientation whose
scale-summed Log-Gabor amplitude is largest — i.e. the direction of the
dominant local structure.  On sparse BV images this turns disconnected
wall returns into coherent oriented "edge" regions, which is what makes
keypoint description possible at all (Fig. 4 of the paper).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.bev.log_gabor import LogGaborBank, LogGaborConfig
from repro.bev.projection import BVImage

__all__ = ["MIMResult", "compute_mim"]

# Reusable banks keyed by (size, config); building a bank is ~10x the cost
# of applying it, and every frame of a drive shares one image size.  True
# LRU: multi-size studies (submap/bandwidth sweeps) cycle through more
# than one key per frame pair, and evicting *everything* on overflow (as
# an earlier revision did) made them rebuild banks every frame.
_BANK_CACHE: OrderedDict[tuple, LogGaborBank] = OrderedDict()
_BANK_CACHE_CAPACITY = 8
# Fanned-out extractions (repro.runtime.fanout) share the cache: one
# thread builds a missing bank while the others wait for it.
_BANK_LOCK = threading.Lock()

# A fork waits for the lock, so no child inherits it held.
os.register_at_fork(before=_BANK_LOCK.acquire,
                    after_in_parent=_BANK_LOCK.release,
                    after_in_child=_BANK_LOCK.release)


def _get_bank(size: int, config: LogGaborConfig) -> LogGaborBank:
    key = (size, config)
    with _BANK_LOCK:
        bank = _BANK_CACHE.get(key)
        if bank is not None:
            _BANK_CACHE.move_to_end(key)
            return bank
        bank = LogGaborBank(size, config)
        _BANK_CACHE[key] = bank
        while len(_BANK_CACHE) > _BANK_CACHE_CAPACITY:  # bound memory
            _BANK_CACHE.popitem(last=False)
        return bank


@dataclass(frozen=True)
class MIMResult:
    """MIM plus the auxiliary maps the descriptor stage needs.

    Attributes:
        mim: (H, H) int array of winning orientation indices in
            ``[0, N_o)``.
        max_amplitude: (H, H) amplitude of the winning orientation; used to
            weight histograms and to mask meaningless (near-zero energy)
            pixels.
        num_orientations: ``N_o`` of the generating bank.
    """

    mim: np.ndarray
    max_amplitude: np.ndarray
    num_orientations: int

    def valid_mask(self, relative_threshold: float = 0.05) -> np.ndarray:
        """Pixels whose winning amplitude exceeds ``relative_threshold``
        times the image's peak amplitude — i.e. where the MIM value is
        meaningful rather than argmax-of-noise."""
        peak = float(self.max_amplitude.max())
        if peak <= 0:
            return np.zeros_like(self.mim, dtype=bool)
        return self.max_amplitude >= relative_threshold * peak


def compute_mim(bv: BVImage | np.ndarray,
                config: LogGaborConfig | None = None) -> MIMResult:
    """Compute the Maximum Index Map of a BV image (Eq. 9-10).

    Args:
        bv: a :class:`BVImage` or a raw square float image.
        config: Log-Gabor bank configuration; defaults to the paper's
            ``N_s = 4, N_o = 12``.

    Returns:
        A :class:`MIMResult`.
    """
    image = (bv.image if isinstance(bv, BVImage)
             else np.asarray(bv, dtype=float))
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ValueError(f"expected a square image, got {image.shape}")
    config = config or LogGaborConfig()
    bank = _get_bank(image.shape[0], config)
    amplitude = bank.orientation_amplitude_sum(image)
    # Winner selection as a manual maximum sweep over the float32
    # amplitudes: np.argmax reduces across axis 0 with a cache-hostile
    # stride (~5 ms at 320 px vs ~1 ms for the sweep), and the sweep
    # yields the winning-amplitude map for free.  The strict ``>`` keeps
    # np.argmax's first-occurrence tie-breaking, so the winners are
    # identical.  The stored map is float64 for downstream consumers.
    best = amplitude[0].copy()
    mim = np.zeros(best.shape, dtype=np.int32)
    mask = np.empty(best.shape, dtype=bool)
    for o in range(1, amplitude.shape[0]):
        np.greater(amplitude[o], best, out=mask)
        np.copyto(mim, np.int32(o), where=mask)
        np.maximum(best, amplitude[o], out=best)
    return MIMResult(mim=mim, max_amplitude=best.astype(np.float64),
                     num_orientations=config.num_orientations)
