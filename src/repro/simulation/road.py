"""Road centerline model.

A gently curving road represented by a piecewise-constant-curvature
centerline.  Curvature both matches real drives and, importantly for the
matching problem, breaks the translational self-similarity of a straight
corridor: sliding the scene along a curved road changes what the sensors
see, so feature matching cannot alias one stretch of road onto another.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.geometry.se2 import SE2

__all__ = ["RoadModel", "make_road"]


class RoadModel:
    """A sampled road centerline with arc-length parameterization.

    Attributes:
        s: (N,) arc-length samples (monotonic, meters).
        xy: (N, 2) centerline positions.
        heading: (N,) tangent headings (radians).
    """

    def __init__(self, s: np.ndarray, xy: np.ndarray,
                 heading: np.ndarray) -> None:
        s = np.asarray(s, dtype=float)
        xy = np.asarray(xy, dtype=float)
        heading = np.asarray(heading, dtype=float)
        if len(s) < 2 or xy.shape != (len(s), 2) or heading.shape != s.shape:
            raise ValueError("inconsistent road sample arrays")
        if np.any(np.diff(s) <= 0):
            raise ValueError("arc length must be strictly increasing")
        self.s = s
        self.xy = xy
        self.heading = heading

    @property
    def length(self) -> float:
        return float(self.s[-1] - self.s[0])

    @property
    def s_min(self) -> float:
        return float(self.s[0])

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def pose_at(self, s: float, lateral: float = 0.0) -> SE2:
        """Pose at arc length ``s``, offset ``lateral`` meters to the left
        of the travel direction (negative = right)."""
        s = float(np.clip(s, self.s_min, self.s_max))
        x = float(np.interp(s, self.s, self.xy[:, 0]))
        y = float(np.interp(s, self.s, self.xy[:, 1]))
        # Interpolate heading via its unwrapped form (precomputed
        # monotone-ish; piecewise-constant curvature keeps it smooth).
        h = float(np.interp(s, self.s, self.heading))
        nx, ny = -np.sin(h), np.cos(h)  # left normal
        return SE2(h, x + lateral * nx, y + lateral * ny)

    def frames_at(self, s: np.ndarray, lateral: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`pose_at`: ``(tx, ty, theta)`` arrays.

        Element ``i`` is bit-identical to ``pose_at(s[i], lateral[i])``
        (``np.clip``/``np.interp``/the trig are all elementwise, and the
        heading is wrapped the same way ``SE2.__post_init__`` does), so
        callers placing many objects can evaluate the road frame once
        instead of per object.
        """
        s = np.clip(np.asarray(s, dtype=float), self.s_min, self.s_max)
        lateral = np.asarray(lateral, dtype=float)
        x = np.interp(s, self.s, self.xy[:, 0])
        y = np.interp(s, self.s, self.xy[:, 1])
        h = np.interp(s, self.s, self.heading)
        nx, ny = -np.sin(h), np.cos(h)  # left normal
        return x + lateral * nx, y + lateral * ny, wrap_to_pi(h)


def make_road(length: float = 300.0,
              block_length: float = 80.0,
              max_curvature: float = 0.004,
              rng: np.random.Generator | int | None = None,
              step: float = 1.0) -> RoadModel:
    """Generate a piecewise-constant-curvature road through the origin.

    Args:
        length: total road length; arc length spans [-length/2, length/2].
        block_length: curvature changes every ~block_length meters.
        max_curvature: |kappa| bound (0.004 = 250 m turn radius).
        rng: generator or seed.
        step: sampling resolution in meters.

    Returns:
        A :class:`RoadModel` whose s=0 pose is the origin heading +x.
    """
    if length <= 0 or block_length <= 0 or step <= 0:
        raise ValueError("length, block_length and step must be positive")
    if max_curvature < 0:
        raise ValueError("max_curvature must be >= 0")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    half = length / 2.0
    s = np.arange(-half, half + step, step)
    n_blocks = int(np.ceil(length / block_length)) + 1
    block_kappa = rng.uniform(-max_curvature, max_curvature, size=n_blocks)
    kappa = block_kappa[((s + half) / block_length).astype(int)]

    # Integrate outward from s = 0 so the origin pose is exact.
    zero_idx = int(np.argmin(np.abs(s)))
    heading = np.zeros_like(s)
    heading[zero_idx:] = np.concatenate(
        [[0.0], np.cumsum(kappa[zero_idx:-1] * step)])
    heading[:zero_idx] = -np.cumsum(
        kappa[zero_idx - 1::-1] * step)[::-1]

    xy = np.zeros((len(s), 2))
    cos_h, sin_h = np.cos(heading), np.sin(heading)
    xy[zero_idx:, 0] = np.concatenate(
        [[0.0], np.cumsum(cos_h[zero_idx:-1] * step)])
    xy[zero_idx:, 1] = np.concatenate(
        [[0.0], np.cumsum(sin_h[zero_idx:-1] * step)])
    xy[:zero_idx, 0] = -np.cumsum(cos_h[zero_idx - 1::-1] * step)[::-1]
    xy[:zero_idx, 1] = -np.cumsum(sin_h[zero_idx - 1::-1] * step)[::-1]
    return RoadModel(s, xy, heading)
