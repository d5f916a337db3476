"""Dense lidar simulator, the twins of ``repro.simulation.simulate_scan``.

The pre-rework implementation: per-object obstacle gathering, dense
``(A, S)`` / ``(A, C)`` ray casting and per-rank occlusion.  The
vectorized simulator must be byte-identical to it, RNG draw sequence
included.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud, PointLabel
from repro.pointcloud.distortion import (
    MotionState,
    apply_self_motion_distortion,
)
from repro.simulation.lidar import LidarConfig
from repro.simulation.world import WorldModel


def reference_world_obstacles(world: WorldModel, sensor_pose: SE2):
    """Pre-rework :func:`_world_obstacles`: per-object Python loops.

    Kept as the behavioral specification for the cached/stacked fast
    path (bit-identical contract).
    """
    inv = sensor_pose.inverse()

    segments, seg_zmin, seg_zmax, seg_label = [], [], [], []
    for building in world.buildings:
        walls = building.wall_segments()
        flat = walls.reshape(-1, 2)
        flat = inv.apply(flat).reshape(-1, 2, 2)
        for wall in flat:
            segments.append(wall)
            seg_zmin.append(0.0)
            seg_zmax.append(building.height)
            seg_label.append(int(PointLabel.BUILDING))
    for vehicle in world.vehicles:
        corners = inv.apply(vehicle.box.to_bev().corners())
        for k in range(4):
            segments.append(np.stack([corners[k], corners[(k + 1) % 4]]))
            seg_zmin.append(0.0)
            seg_zmax.append(vehicle.box.height)
            seg_label.append(int(PointLabel.VEHICLE))

    circles, circ_zmin, circ_zmax, circ_label = [], [], [], []
    for tree in world.trees:
        center = inv.apply(np.array([tree.x, tree.y]))
        circles.append([center[0], center[1], tree.trunk_radius])
        circ_zmin.append(0.0)
        circ_zmax.append(tree.crown_base)
        circ_label.append(int(PointLabel.TREE))
        circles.append([center[0], center[1], tree.crown_radius])
        circ_zmin.append(tree.crown_base)
        circ_zmax.append(tree.height)
        circ_label.append(int(PointLabel.TREE))
    for pole in world.poles:
        center = inv.apply(np.array([pole.x, pole.y]))
        circles.append([center[0], center[1], pole.radius])
        circ_zmin.append(0.0)
        circ_zmax.append(pole.height)
        circ_label.append(int(PointLabel.POLE))

    segments = (np.asarray(segments) if segments else np.empty((0, 2, 2)))
    circles = (np.asarray(circles) if circles else np.empty((0, 3)))
    return (segments, np.asarray(seg_zmin), np.asarray(seg_zmax),
            np.asarray(seg_label, dtype=np.int32),
            circles, np.asarray(circ_zmin), np.asarray(circ_zmax),
            np.asarray(circ_label, dtype=np.int32))


def reference_ray_segment_hits(directions: np.ndarray, segments: np.ndarray,
                               max_range: float):
    """Pre-rework :func:`_ray_segment_hits`: the dense (A, S) broadcast.

    Kept as the behavioral specification for the sector-culled fast path
    (bit-identical contract).
    """
    if len(segments) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int64))
    p0 = segments[:, 0]                      # (S, 2)
    edge = segments[:, 1] - segments[:, 0]   # (S, 2)
    d = directions                           # (A, 2)
    # Solve o + t d = p0 + u e for each (ray, segment) pair.
    denom = d[:, None, 0] * edge[None, :, 1] - d[:, None, 1] * edge[None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        v = p0[None, :, :]                   # (1, S, 2) since origin = 0
        t = (v[..., 0] * edge[None, :, 1] - v[..., 1] * edge[None, :, 0]) / denom
        u = (v[..., 0] * d[:, None, 1] - v[..., 1] * d[:, None, 0]) / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-6) & (t <= max_range) \
        & (u >= 0.0) & (u <= 1.0)
    ray_idx, seg_idx = np.nonzero(valid)
    return ray_idx, t[ray_idx, seg_idx], seg_idx


def reference_ray_circle_hits(directions: np.ndarray, circles: np.ndarray,
                              max_range: float):
    """Pre-rework :func:`_ray_circle_hits`: the dense (A, C) evaluation.

    Kept as the behavioral specification for the sector-culled fast path
    (bit-identical contract).
    """
    if len(circles) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int64))
    centers = circles[:, :2]                 # (C, 2)
    radii = circles[:, 2]                    # (C,)
    d = directions                           # (A, 2)
    # |t d - c|^2 = r^2  ->  t^2 - 2 t (d.c) + |c|^2 - r^2 = 0.
    b = d @ centers.T                        # (A, C) = d.c
    c_term = np.sum(centers ** 2, axis=1) - radii ** 2  # (C,)
    disc = b ** 2 - c_term[None, :]
    valid = disc >= 0
    sqrt_disc = np.sqrt(np.where(valid, disc, 0.0))
    t = b - sqrt_disc                        # entry point
    # If entry is behind the origin but exit ahead, the origin is inside
    # the circle; use the exit point.
    t_exit = b + sqrt_disc
    t = np.where(t > 1e-6, t, t_exit)
    valid &= (t > 1e-6) & (t <= max_range)
    ray_idx, circ_idx = np.nonzero(valid)
    return ray_idx, t[ray_idx, circ_idx], circ_idx


def reference_simulate_scan(world: WorldModel, sensor_pose: SE2,
                            config: LidarConfig | None = None,
                            rng: np.random.Generator | int | None = None,
                            motion: MotionState | None = None) -> PointCloud:
    """Pre-rework :func:`simulate_scan`: dense casting, per-rank occlusion.

    Kept as the behavioral specification for the vectorized fast path
    (bit-identical contract, including the RNG draw sequence).
    """
    config = config or LidarConfig()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    (segments, seg_zmin, seg_zmax, seg_label,
     circles, circ_zmin, circ_zmax, circ_label) = reference_world_obstacles(
        world, sensor_pose)

    n_az = config.azimuth_steps
    azimuths = -np.pi + 2.0 * np.pi * (np.arange(n_az) + 0.5) / n_az
    directions = np.stack([np.cos(azimuths), np.sin(azimuths)], axis=1)

    s_ray, s_t, s_idx = reference_ray_segment_hits(directions, segments,
                                                   config.max_range)
    c_ray, c_t, c_idx = reference_ray_circle_hits(directions, circles,
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
    assigned = np.zeros((n_az, n_ch), dtype=bool)
    out_t = np.zeros((n_az, n_ch))
    out_z = np.zeros((n_az, n_ch))
    out_label = np.zeros((n_az, n_ch), dtype=np.int32)

    if len(ray_idx):
        # Occlusion: process hits per ray in increasing distance.
        order = np.lexsort((t_hit, ray_idx))
        ray_idx, t_hit = ray_idx[order], t_hit[order]
        zmin, zmax, labels = zmin[order], zmax[order], labels[order]
        # Rank of each hit within its ray.
        is_new_ray = np.empty(len(ray_idx), dtype=bool)
        is_new_ray[0] = True
        is_new_ray[1:] = ray_idx[1:] != ray_idx[:-1]
        group_start = np.maximum.accumulate(
            np.where(is_new_ray, np.arange(len(ray_idx)), 0))
        ranks = np.arange(len(ray_idx)) - group_start

        max_rank = min(int(ranks.max()) + 1, config.max_hits_per_ray)
        for rank in range(max_rank):
            sel = ranks == rank
            if not sel.any():
                break
            rays = ray_idx[sel]
            ts = t_hit[sel]
            z_beam = config.sensor_height + ts[:, None] * tan_elev[None, :]
            hit = ((z_beam >= zmin[sel][:, None])
                   & (z_beam <= zmax[sel][:, None])
                   & ~assigned[rays])
            rows, cols = np.nonzero(hit)
            assigned[rays[rows], cols] = True
            out_t[rays[rows], cols] = ts[rows]
            out_z[rays[rows], cols] = z_beam[rows, cols]
            out_label[rays[rows], cols] = labels[sel][rows]

    if config.include_ground:
        descending = tan_elev < 0
        t_ground = np.full(n_ch, np.inf)
        t_ground[descending] = config.sensor_height / -tan_elev[descending]
        ground_ok = (~assigned) & (t_ground[None, :] <= config.max_range)
        rows, cols = np.nonzero(ground_ok)
        assigned[rows, cols] = True
        out_t[rows, cols] = t_ground[cols]
        out_z[rows, cols] = 0.0
        out_label[rows, cols] = int(PointLabel.GROUND)

    rows, cols = np.nonzero(assigned)
    if len(rows) == 0:
        return PointCloud.empty()
    t_final = out_t[rows, cols]
    z_final = out_z[rows, cols]

    # Range noise along the beam; horizontal and vertical components
    # scale together.
    noise = rng.normal(0.0, config.range_noise, size=len(rows))
    cos_e = np.cos(elevations[cols])
    t_noisy = t_final + noise * cos_e
    z_noisy = z_final + noise * np.sin(elevations[cols])

    points = np.stack([
        t_noisy * np.cos(azimuths[rows]),
        t_noisy * np.sin(azimuths[rows]),
        z_noisy,
    ], axis=1)
    timestamps = (azimuths[rows] + np.pi) / (2.0 * np.pi)
    point_labels = out_label[rows, cols]

    if config.dropout > 0:
        keep = rng.random(len(points)) >= config.dropout
        points, timestamps = points[keep], timestamps[keep]
        point_labels = point_labels[keep]

    cloud = PointCloud(points, timestamps, point_labels)
    if motion is not None:
        cloud = apply_self_motion_distortion(cloud, motion,
                                             config.scan_duration)
    return cloud
