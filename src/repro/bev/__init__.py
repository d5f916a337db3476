"""Bird's-eye-view imaging: projection, Log-Gabor filtering, MIM.

Implements Section IV-A of the paper up to (but not including) keypoint
detection: the height-map BV projection (Eq. 4), the Log-Gabor filter bank
(Eq. 6-8) and the Maximum Index Map (Eq. 9-10).
"""

from repro.bev.log_gabor import LogGaborBank, LogGaborConfig
from repro.bev.mim import MIMResult, compute_mim
from repro.bev.phase_congruency import (
    PhaseCongruencyResult,
    compute_phase_congruency,
)
from repro.bev.projection import (
    BVImage,
    density_map,
    height_map,
)
from repro.bev.roi import RoiCullConfig, RoiWindow, roi_window

__all__ = [
    "BVImage",
    "LogGaborBank",
    "LogGaborConfig",
    "MIMResult",
    "PhaseCongruencyResult",
    "RoiCullConfig",
    "RoiWindow",
    "compute_mim",
    "compute_phase_congruency",
    "density_map",
    "height_map",
    "roi_window",
]
