"""Spinning multi-channel lidar simulation.

Models the sensor BB-Align's inputs come from: a 360-degree mechanically
spinning lidar with ``num_channels`` fixed elevation beams.  For every
azimuth step the simulator finds all 2-D ray intersections with world
geometry (building walls, tree trunks/crowns, poles, vehicle sides), then
assigns each elevation channel to the nearest obstacle whose vertical
extent contains the beam at that distance — a faithful, fully occlusion-
aware model of what a real scanner returns, including:

* beams passing *over* low obstacles and hitting structure behind them,
* beams passing *under* tree crowns,
* ground returns for descending beams that clear everything,
* Gaussian range noise and random dropout,
* per-point sweep timestamps, feeding the self-motion-distortion model.

Heights are expressed above ground (not relative to the sensor), so BV
height maps from vehicles with different mounting heights are directly
comparable — the V2V4Real vehicles also calibrate to a common ground
frame.

Implementation note — the production path is a vectorized rework of the
original simulator, which survives as the test twins in
``tests/_reference/lidar.py`` (see CONTRIBUTING.md).  The rework is
*bit-identical*: static world geometry is cached on
:class:`~repro.simulation.world.WorldModel` and transformed with stacked
matmuls that reproduce the per-object ``SE2.apply`` results exactly; ray
casting only evaluates sector-culled candidate pairs but
with the reference's elementwise formulas, so the accepted hit set — and
therefore every noise/dropout RNG draw and output byte — is unchanged.
``tests/test_sim_equivalence.py`` enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud, PointLabel
from repro.pointcloud.distortion import MotionState, _pose_batch
from repro.simulation.world import WorldModel

__all__ = ["LidarConfig", "simulate_scan"]


@dataclass(frozen=True)
class LidarConfig:
    """Sensor model parameters.

    The defaults approximate the 32-channel sensors of V2V4Real's two
    vehicles; heterogeneous setups (the paper's motivation for avoiding
    3-D registration) are modeled by giving the two cars different
    configs.

    Attributes:
        num_channels: number of elevation beams.
        elevation_min_deg / elevation_max_deg: vertical field of view.
        azimuth_steps: rays per sweep (0.2 deg resolution = 1800).
        max_range: maximum return distance (meters, horizontal).
        range_noise: Gaussian sigma on the measured range (meters).
        dropout: probability a return is lost.
        sensor_height: mounting height above ground.
        include_ground: emit ground returns for descending beams.
        max_hits_per_ray: occlusion depth considered per azimuth.
        scan_duration: sweep period in seconds (for distortion).
    """

    num_channels: int = 32
    elevation_min_deg: float = -25.0
    elevation_max_deg: float = 15.0
    azimuth_steps: int = 1800
    max_range: float = 100.0
    range_noise: float = 0.03
    dropout: float = 0.05
    sensor_height: float = 1.9
    include_ground: bool = True
    max_hits_per_ray: int = 12
    scan_duration: float = 0.1

    def __post_init__(self) -> None:
        if self.num_channels < 1 or self.azimuth_steps < 4:
            raise ValueError("need at least 1 channel and 4 azimuth steps")
        if self.elevation_min_deg >= self.elevation_max_deg:
            raise ValueError("elevation_min_deg must be < elevation_max_deg")
        if self.max_range <= 0 or self.sensor_height <= 0:
            raise ValueError("max_range and sensor_height must be positive")
        if not (0 <= self.dropout < 1):
            raise ValueError("dropout must be in [0, 1)")

    @property
    def elevations(self) -> np.ndarray:
        """Channel elevation angles in radians (ascending)."""
        return np.deg2rad(np.linspace(self.elevation_min_deg,
                                      self.elevation_max_deg,
                                      self.num_channels))


def _world_obstacles(world: WorldModel, sensor_pose: SE2):
    """Collect obstacle geometry in the sensor frame.

    Static objects come from the world's cached geometry and are moved
    into the sensor frame with one stacked transform per array; only the
    (few, dynamic) vehicles are still gathered per object.  The stacked
    ``(N, k, 2) @ (2, 2)`` matmuls run the same per-slice GEMM as the
    reference's per-object ``SE2.apply`` calls, so every coordinate is
    bit-identical to the reference's per-object loop.

    Returns:
        segments: (S, 2, 2) wall/side segments with metadata arrays
            ``seg_zmin, seg_zmax, seg_label``.
        circles: (C, 3) as (x, y, radius) with ``circ_zmin, circ_zmax,
            circ_label``.
    """
    static = world.static_geometry()
    inv = sensor_pose.inverse()
    rot_t = inv.rotation.T
    trans = inv.translation

    parts = []
    if len(static.wall_points):
        walls = (static.wall_points @ rot_t + trans).reshape(-1, 2, 2)
        parts.append(walls)
    vehicles = world.vehicles
    if vehicles:
        corners = np.stack([v.box.to_bev().corners() for v in vehicles])
        corners = corners @ rot_t + trans                     # (V, 4, 2)
        sides = np.stack([corners, np.roll(corners, -1, axis=1)], axis=2)
        parts.append(sides.reshape(-1, 2, 2))
    if parts:
        segments = parts[0] if len(parts) == 1 else np.concatenate(parts)
    else:
        segments = np.empty((0, 2, 2))
    seg_zmin = np.zeros(len(segments))
    if vehicles:
        veh_zmax = np.repeat(np.array([v.box.height for v in vehicles]), 4)
        seg_zmax = np.concatenate([static.wall_zmax, veh_zmax])
        seg_label = np.concatenate([
            static.wall_label,
            np.full(4 * len(vehicles), int(PointLabel.VEHICLE),
                    dtype=np.int32)])
    else:
        seg_zmax = static.wall_zmax
        seg_label = static.wall_label

    if len(static.circle_points):
        centers = (static.circle_points @ rot_t + trans)[:, 0]  # (C, 2)
        circles = np.concatenate([centers, static.circle_radii[:, None]],
                                 axis=1)
    else:
        circles = np.empty((0, 3))
    return (segments, seg_zmin, seg_zmax, seg_label,
            circles, static.circ_zmin, static.circ_zmax, static.circ_label)


def _candidate_pairs(i_lo: np.ndarray, counts: np.ndarray, keep: np.ndarray,
                     n_az: int):
    """Expand per-obstacle ray windows into flat (ray, obstacle) pairs.

    ``i_lo``/``counts`` give each obstacle's candidate azimuth-index
    window (start, length, wrapping modulo ``n_az``); ``keep`` masks the
    obstacles worth testing.  Pairs come out obstacle-major with rays
    ascending inside each window.
    """
    obs_sel = np.nonzero(keep)[0]
    counts = counts[obs_sel]
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    starts = np.cumsum(counts) - counts
    flat_obs = np.repeat(obs_sel, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    flat_ray = (np.repeat(i_lo[obs_sel], counts) + offsets) % n_az
    return flat_ray, flat_obs


def _ray_segment_hits(directions: np.ndarray, segments: np.ndarray,
                      max_range: float):
    """All (ray, segment) intersections, sector-culled.

    Rays start at the origin.  Returns flat arrays
    ``(ray_index, t, segment_index)`` for hits with ``0 < t <= max_range``,
    in the reference's (ray-major, segment-minor) order.

    Precondition: ``directions`` lie on :func:`simulate_scan`'s uniform
    CCW azimuth grid ``-pi + 2 pi (i + 0.5) / A`` — the culling exploits
    that structure.  Each segment can only be hit by rays inside the
    azimuth arc spanned by its endpoints (padded by one ray step for
    rounding) and only if its closest approach to the origin is within
    range; the exact intersection test then runs on those candidate pairs
    with the same elementwise arithmetic as the reference's dense
    ``(A, S)`` broadcast, so the surviving hit set is bit-identical.
    """
    n_seg = len(segments)
    if n_seg == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int64))
    n_az = len(directions)
    step = 2.0 * np.pi / n_az
    p0 = segments[:, 0]                      # (S, 2)
    edge = segments[:, 1] - segments[:, 0]   # (S, 2)

    # Near-distance cull: closest approach of each segment to the origin.
    ee = edge[:, 0] ** 2 + edge[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        tproj = -(p0[:, 0] * edge[:, 0] + p0[:, 1] * edge[:, 1]) / ee
    tproj = np.clip(np.nan_to_num(tproj), 0.0, 1.0)
    nearest = p0 + tproj[:, None] * edge
    near_d = np.hypot(nearest[:, 0], nearest[:, 1])
    keep = near_d <= max_range + 1e-6

    # Azimuth window: the arc between the endpoint azimuths, the short
    # way around (a segment not through the origin subtends < pi).
    az0 = np.arctan2(p0[:, 1], p0[:, 0])
    p1 = segments[:, 1]
    az1 = np.arctan2(p1[:, 1], p1[:, 0])
    delta = (az1 - az0 + np.pi) % (2.0 * np.pi) - np.pi  # [-pi, pi)
    lo = np.where(delta >= 0.0, az0, az1)
    width = np.abs(delta)
    i_lo = np.floor((lo + np.pi) / step - 0.5).astype(np.int64) - 1
    i_hi = np.ceil((lo + width + np.pi) / step - 0.5).astype(np.int64) + 1
    counts = i_hi - i_lo + 1
    # Segments passing (numerically) through the origin subtend two
    # opposite arcs; give them every ray rather than reason about it.
    full = (near_d < 1e-3) | (counts >= n_az)
    counts = np.where(full, n_az, counts)
    i_lo = np.where(full, 0, i_lo)

    flat_ray, flat_seg = _candidate_pairs(i_lo, counts, keep, n_az)
    if len(flat_ray) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int64))

    # Exact test — identical elementwise arithmetic to the reference
    # broadcast, evaluated only on the candidate pairs.
    dx = directions[flat_ray, 0]
    dy = directions[flat_ray, 1]
    ex = edge[flat_seg, 0]
    ey = edge[flat_seg, 1]
    px = p0[flat_seg, 0]
    py = p0[flat_seg, 1]
    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (px * ey - py * ex) / denom
        u = (px * dy - py * dx) / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-6) & (t <= max_range) \
        & (u >= 0.0) & (u <= 1.0)
    hit = np.nonzero(valid)[0]
    ray_h, seg_h, t_h = flat_ray[hit], flat_seg[hit], t[hit]
    order = np.lexsort((seg_h, ray_h))       # reference row-major order
    return ray_h[order], t_h[order], seg_h[order]


def _ray_circle_hits(directions: np.ndarray, circles: np.ndarray,
                     max_range: float):
    """Nearest entry intersection of each ray with each circle, culled.

    Same grid precondition as :func:`_ray_segment_hits`.  The ``d . c``
    projection stays a full dense GEMM — BLAS results are not stable
    under input gathering, and its bits feed straight into the hit
    distances — but the quadratic tail (discriminant, sqrt, entry/exit
    selection) runs only on pairs inside each circle's azimuth window.
    """
    n_circ = len(circles)
    if n_circ == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int64))
    n_az = len(directions)
    step = 2.0 * np.pi / n_az
    centers = circles[:, :2]                 # (C, 2)
    radii = circles[:, 2]                    # (C,)
    b_full = directions @ centers.T          # (A, C) = d.c (dense, exact)

    dist_c = np.hypot(centers[:, 0], centers[:, 1])
    keep = dist_c - radii <= max_range + 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = radii / dist_c
    half = np.arcsin(np.clip(np.nan_to_num(ratio, nan=1.0, posinf=1.0),
                             0.0, 1.0))
    az_c = np.arctan2(centers[:, 1], centers[:, 0])
    i_lo = np.floor((az_c - half + np.pi) / step - 0.5).astype(np.int64) - 1
    i_hi = np.ceil((az_c + half + np.pi) / step - 0.5).astype(np.int64) + 1
    counts = i_hi - i_lo + 1
    full = (dist_c <= radii) | (counts >= n_az)  # origin inside: all rays
    counts = np.where(full, n_az, counts)
    i_lo = np.where(full, 0, i_lo)

    flat_ray, flat_circ = _candidate_pairs(i_lo, counts, keep, n_az)
    if len(flat_ray) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int64))

    b = b_full[flat_ray, flat_circ]
    c_term = np.sum(centers ** 2, axis=1) - radii ** 2  # (C,)
    disc = b ** 2 - c_term[flat_circ]
    valid = disc >= 0
    sqrt_disc = np.sqrt(np.where(valid, disc, 0.0))
    t = b - sqrt_disc                        # entry point
    t_exit = b + sqrt_disc
    t = np.where(t > 1e-6, t, t_exit)
    valid &= (t > 1e-6) & (t <= max_range)
    hit = np.nonzero(valid)[0]
    ray_h, circ_h, t_h = flat_ray[hit], flat_circ[hit], t[hit]
    order = np.lexsort((circ_h, ray_h))      # reference row-major order
    return ray_h[order], t_h[order], circ_h[order]


def simulate_scan(world: WorldModel, sensor_pose: SE2,
                  config: LidarConfig | None = None,
                  rng: np.random.Generator | int | None = None,
                  motion: MotionState | None = None) -> PointCloud:
    """Simulate one full lidar sweep.

    Args:
        world: the static world (world coordinates).
        sensor_pose: the sensor's planar pose in world coordinates; the
            returned cloud is in the *sensor frame* (x forward).
        config: sensor model.
        rng: randomness for noise/dropout.
        motion: when given, self-motion distortion for this twist is
            applied to the scan (the sweep reference is its start).

    Returns:
        A :class:`PointCloud` with heights above ground, per-point sweep
        timestamps and semantic labels.  Byte-identical to the
        pre-rework dense simulator for every input.
    """
    config = config or LidarConfig()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    (segments, seg_zmin, seg_zmax, seg_label,
     circles, circ_zmin, circ_zmax, circ_label) = _world_obstacles(
        world, sensor_pose)

    n_az = config.azimuth_steps
    azimuths = -np.pi + 2.0 * np.pi * (np.arange(n_az) + 0.5) / n_az
    cos_az = np.cos(azimuths)
    sin_az = np.sin(azimuths)
    directions = np.stack([cos_az, sin_az], axis=1)

    s_ray, s_t, s_idx = _ray_segment_hits(directions, segments,
                                          config.max_range)
    c_ray, c_t, c_idx = _ray_circle_hits(directions, circles,
                                         config.max_range)

    ray_idx = np.concatenate([s_ray, c_ray])
    t_hit = np.concatenate([s_t, c_t])
    zmin = np.concatenate([seg_zmin[s_idx] if len(s_idx) else np.empty(0),
                           circ_zmin[c_idx] if len(c_idx) else np.empty(0)])
    zmax = np.concatenate([seg_zmax[s_idx] if len(s_idx) else np.empty(0),
                           circ_zmax[c_idx] if len(c_idx) else np.empty(0)])
    labels = np.concatenate([seg_label[s_idx] if len(s_idx) else
                             np.empty(0, dtype=np.int32),
                             circ_label[c_idx] if len(c_idx) else
                             np.empty(0, dtype=np.int32)])

    elevations = config.elevations
    tan_elev = np.tan(elevations)
    n_ch = config.num_channels
    # Winning (hit, channel) pair index per grid cell, -1 = no obstacle
    # return.  Replaces the reference's dense out_t / out_z / out_label
    # grids: one index scatter instead of three value scatters, with the
    # values gathered only for the points that survive dropout.
    first = np.full(n_az * n_ch, -1, dtype=np.int64)
    t_pair = z_pair_hit = label_pair = None

    if len(ray_idx):
        # Occlusion: sort hits per ray by increasing distance, then make
        # one first-fit assignment pass over (ray, channel) — each beam
        # takes the nearest in-depth hit whose vertical extent contains
        # it.  Equivalent to the reference's per-rank loop: within a ray
        # the hits are rank-ordered, so "first occurrence of a (ray,
        # channel) key" is exactly "lowest rank that contains the beam".
        # The distances sort by their int64 bit patterns — positive IEEE
        # doubles are order-isomorphic to them, and integer keys take
        # numpy's radix path.
        order = np.lexsort((t_hit.view(np.int64), ray_idx))
        ray_idx, t_hit = ray_idx[order], t_hit[order]
        zmin, zmax, labels = zmin[order], zmax[order], labels[order]
        is_new_ray = np.empty(len(ray_idx), dtype=bool)
        is_new_ray[0] = True
        is_new_ray[1:] = ray_idx[1:] != ray_idx[:-1]
        group_start = np.maximum.accumulate(
            np.where(is_new_ray, np.arange(len(ray_idx)), 0))
        ranks = np.arange(len(ray_idx)) - group_start

        depth = ranks < config.max_hits_per_ray
        ray_d = ray_idx[depth]
        t_d = t_hit[depth]
        zmin_d = zmin[depth]
        zmax_d = zmax[depth]
        label_d = labels[depth]
        n_d = len(ray_d)

        # Containment test z(t) = h + t tan(e) in [zmin, zmax].  When
        # the channels are monotone in tan(e) (always, for a field of
        # view inside (-90, 90) degrees) the contained channels of each
        # hit form a contiguous window; locate it with searchsorted, pad
        # one channel for division rounding, and run the reference's
        # exact comparison only on the windowed pairs.  Otherwise fall
        # back to the dense (hits, channels) mask.
        if n_d and np.all(np.diff(tan_elev) >= 0.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                lo_val = (zmin_d - config.sensor_height) / t_d
                hi_val = (zmax_d - config.sensor_height) / t_d
            c_lo = np.searchsorted(tan_elev, lo_val, side="left") - 1
            c_hi = np.searchsorted(tan_elev, hi_val, side="right") + 1
            np.clip(c_lo, 0, n_ch, out=c_lo)
            np.clip(c_hi, 0, n_ch, out=c_hi)
            counts = np.maximum(c_hi - c_lo, 0)
            total = int(counts.sum())
            starts = np.cumsum(counts) - counts
            pair_hit = np.repeat(np.arange(n_d), counts)
            pair_col = (np.arange(total, dtype=np.int64)
                        - np.repeat(starts - c_lo, counts))
            z_pair = (config.sensor_height
                      + t_d[pair_hit] * tan_elev[pair_col])
            ok = ((z_pair >= zmin_d[pair_hit])
                  & (z_pair <= zmax_d[pair_hit]))
            hit_rows = pair_hit[ok]
            hit_cols = pair_col[ok]
            z_hit = z_pair[ok]
        elif n_d:
            z_beam = config.sensor_height + t_d[:, None] * tan_elev[None, :]
            contains = ((z_beam >= zmin_d[:, None])
                        & (z_beam <= zmax_d[:, None]))
            hit_rows, hit_cols = np.nonzero(contains)
            z_hit = z_beam[hit_rows, hit_cols]
        else:
            hit_rows = np.empty(0, dtype=np.int64)
            hit_cols = hit_rows
            z_hit = np.empty(0)
        if len(hit_rows):
            # (hit, channel) pairs are hit-major = rank-ordered within
            # each ray, so the FIRST occurrence of each flat (ray,
            # channel) key must win.  Fancy assignment keeps the LAST
            # write for duplicate indices; scatter in reverse order.
            keys = ray_d[hit_rows] * n_ch + hit_cols
            first[np.ascontiguousarray(keys[::-1])] = np.arange(
                len(keys) - 1, -1, -1)
            t_pair = t_d.take(hit_rows)
            z_pair_hit = z_hit
            label_pair = label_d.take(hit_rows)

    if config.include_ground:
        descending = tan_elev < 0
        t_ground = np.full(n_ch, np.inf)
        t_ground[descending] = config.sensor_height / -tan_elev[descending]
        ground_row = t_ground <= config.max_range           # (n_ch,)
        assigned = ((first >= 0).reshape(n_az, n_ch)
                    | ground_row[None, :])
    else:
        assigned = first >= 0

    flat = np.flatnonzero(assigned)
    if len(flat) == 0:
        return PointCloud.empty()

    # Noise and dropout draws happen at the reference's stream positions
    # (full-size normal, then full-size uniform); the surviving subset is
    # known before assembly, so the cloud is only ever built at its final
    # size.  All trig is evaluated once on the azimuth / elevation grids
    # and gathered per point (same bits: np.cos/np.sin are value-
    # deterministic, and the grid cosines ARE ``directions``).  Gathers
    # run on flat indices into contiguous 1-D arrays — same elements as
    # the reference's ``[rows, cols]`` pairs, minus the 2-D indexing.
    noise = rng.normal(0.0, config.range_noise, size=len(flat))
    if config.dropout > 0:
        keep = rng.random(len(flat)) >= config.dropout
        flat, noise = flat[keep], noise[keep]
    rows = flat // n_ch
    cols = flat - rows * n_ch
    # Per-point values, resolved through the winning pair index (ground
    # cells have index -1: range from the per-channel ground table,
    # height 0, GROUND label — the reference's grid held the same).
    if t_pair is None:
        t_final = t_ground.take(cols)
        z_final = np.zeros(len(flat))
        point_labels = np.full(len(flat), int(PointLabel.GROUND),
                               dtype=np.int32)
    elif config.include_ground:
        sel = first.take(flat)
        is_hit = sel >= 0
        sel0 = np.where(is_hit, sel, 0)
        t_final = np.where(is_hit, t_pair.take(sel0), t_ground.take(cols))
        z_final = np.where(is_hit, z_pair_hit.take(sel0), 0.0)
        point_labels = np.where(is_hit, label_pair.take(sel0),
                                np.int32(PointLabel.GROUND))
    else:
        sel = first.take(flat)
        t_final = t_pair.take(sel)
        z_final = z_pair_hit.take(sel)
        point_labels = label_pair.take(sel)
    cos_elev = np.cos(elevations)
    sin_elev = np.sin(elevations)
    t_noisy = t_final + noise * cos_elev.take(cols)
    x = t_noisy * cos_az.take(rows)
    y = t_noisy * sin_az.take(rows)
    z = z_final + noise * sin_elev.take(cols)
    grid_ts = (azimuths + np.pi) / (2.0 * np.pi)
    timestamps = grid_ts.take(rows)

    if motion is not None and len(flat):
        # Self-motion distortion, evaluated on the azimuth grid: the
        # sweep poses depend only on the (quantized) per-ray timestamps,
        # so the trig runs over n_az entries once and is gathered per
        # point — elementwise-identical to apply_self_motion_distortion
        # on the full cloud.  Coordinates stay 1-D (contiguous) until
        # the final stack.
        thetas, trans = _pose_batch(motion, grid_ts, config.scan_duration)
        cos_t, sin_t = np.cos(-thetas), np.sin(-thetas)
        trans_x = np.ascontiguousarray(trans[:, 0])
        trans_y = np.ascontiguousarray(trans[:, 1])
        sx = x - trans_x.take(rows)
        sy = y - trans_y.take(rows)
        cos_p = cos_t.take(rows)
        sin_p = sin_t.take(rows)
        x = cos_p * sx - sin_p * sy
        y = sin_p * sx + cos_p * sy
    points = np.stack([x, y, z], axis=1)
    return PointCloud(points, timestamps, point_labels)
