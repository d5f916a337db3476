"""Two-vehicle frame-pair construction.

A *frame pair* is the unit of evaluation in the paper: one synchronized
pair of lidar scans from the ego and the other car, with ground-truth
relative pose and per-vehicle ground-truth object boxes.  This module
places the two cooperating vehicles on the generated road, gives each a
motion state (producing *different* self-motion distortion in the two
scans — the effect stage 2 corrects), scans the world from both
viewpoints with possibly heterogeneous sensors, and records which world
vehicles each car actually observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.boxes.box import Box3D
from repro.geometry.angles import wrap_to_pi
from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud, PointLabel
from repro.pointcloud.distortion import (
    MotionState,
    _pose_batch,
    compensate_self_motion_distortion,
)
from repro.simulation.lidar import LidarConfig, simulate_scan
from repro.simulation.world import (
    ScenarioKind,
    SimVehicle,
    WorldConfig,
    WorldModel,
    generate_world,
    share_static_geometry,
)

__all__ = ["VisibleObject", "ScenarioConfig", "FramePair", "make_frame_pair",
           "observe_frame", "EGO_VEHICLE_ID", "OTHER_VEHICLE_ID"]

# Reserved identities for the two cooperating vehicles themselves.
EGO_VEHICLE_ID = -1
OTHER_VEHICLE_ID = -2


@dataclass(frozen=True)
class VisibleObject:
    """A ground-truth vehicle as seen from one sensor.

    Attributes:
        vehicle_id: stable world identity (or the reserved partner ids).
        box: ground-truth 3-D box in the observing sensor's frame.
        num_points: lidar returns on the object in this scan — the raw
            visibility signal detection profiles use.
    """

    vehicle_id: int
    box: Box3D
    num_points: int


@dataclass(frozen=True)
class ScenarioConfig:
    """Frame-pair generation parameters.

    Attributes:
        world: world generation config (scenario kind, densities).
        ego_lidar / other_lidar: per-vehicle sensor models.  The defaults
            differ (channel count and FOV), reproducing the paper's
            heterogeneous-sensor setting.
        distance: target inter-vehicle distance in meters.
        same_direction_prob: probability the other car travels the same
            way (vs oncoming).
        speed_range: vehicle speeds, m/s.
        yaw_rate_std: random heading rate, rad/s (mild curving).
        lane_jitter: lateral placement noise, meters.
        min_visible_points: returns needed to count a vehicle as observed.
        motion_compensation_error: every real lidar pipeline de-skews
            scans with onboard odometry; this is the *fraction* of the
            self-motion distortion that survives imperfect compensation
            (0 = perfect de-skew, 1 = raw distorted scans).  The residual
            is the misalignment source the paper's stage-2 box alignment
            corrects.
    """

    world: WorldConfig = field(default_factory=WorldConfig)
    ego_lidar: LidarConfig = field(default_factory=LidarConfig)
    other_lidar: LidarConfig = field(default_factory=lambda: LidarConfig(
        num_channels=40, elevation_min_deg=-22.0, elevation_max_deg=18.0,
        azimuth_steps=1500, sensor_height=2.1))
    distance: float = 40.0
    same_direction_prob: float = 0.6
    speed_range: tuple[float, float] = (3.0, 14.0)
    yaw_rate_std: float = 0.05
    lane_jitter: float = 0.4
    min_visible_points: int = 8
    motion_compensation_error: float = 0.3

    def __post_init__(self) -> None:
        if self.distance <= 0:
            raise ValueError("distance must be positive")
        if not (0 <= self.same_direction_prob <= 1):
            raise ValueError("same_direction_prob must be in [0, 1]")


@dataclass(frozen=True)
class FramePair:
    """One synchronized two-vehicle observation.

    Attributes:
        world: the generated world (world frame).
        ego_pose / other_pose: vehicle planar poses in the world frame.
        gt_relative: ground-truth transform mapping other-frame
            coordinates into the ego frame (``X_ego^-1 @ X_other``).
        ego_cloud / other_cloud: scans in each vehicle's own frame,
            heights above ground, self-motion distortion applied.
        ego_motion / other_motion: the twists used for distortion.
        ego_visible / other_visible: ground-truth vehicles observed by
            each car (own frame), including the partner vehicle.
        scenario_kind: world flavor, for bucketing.
    """

    world: WorldModel
    ego_pose: SE2
    other_pose: SE2
    gt_relative: SE2
    ego_cloud: PointCloud
    other_cloud: PointCloud
    ego_motion: MotionState
    other_motion: MotionState
    ego_visible: tuple[VisibleObject, ...]
    other_visible: tuple[VisibleObject, ...]
    scenario_kind: ScenarioKind

    @property
    def distance(self) -> float:
        """Inter-vehicle distance in meters."""
        return float(np.hypot(self.ego_pose.tx - self.other_pose.tx,
                              self.ego_pose.ty - self.other_pose.ty))

    @property
    def common_vehicle_ids(self) -> set[int]:
        """World vehicles observed by *both* cars (partner bodies
        excluded: a car never observes itself, so they can't be common)."""
        ego_ids = {v.vehicle_id for v in self.ego_visible
                   if v.vehicle_id >= 0}
        other_ids = {v.vehicle_id for v in self.other_visible
                     if v.vehicle_id >= 0}
        return ego_ids & other_ids

    @property
    def num_common_vehicles(self) -> int:
        return len(self.common_vehicle_ids)


def _partner_vehicle(rng: np.random.Generator, pose: SE2, speed: float,
                     vehicle_id: int) -> SimVehicle:
    """The physical body of a cooperating vehicle, visible to its partner."""
    length = rng.uniform(4.6, 5.0)
    width = rng.uniform(1.9, 2.1)
    height = rng.uniform(1.6, 1.9)
    box = Box3D(pose.tx, pose.ty, height / 2.0, length, width, height,
                pose.theta)
    return SimVehicle(box=box, velocity=speed, vehicle_id=vehicle_id)


def _clear_area(world: WorldModel, positions: list[np.ndarray],
                radius: float = 7.0) -> WorldModel:
    """Drop world vehicles overlapping the cooperating cars' placements."""
    kept = tuple(v for v in world.vehicles
                 if all(np.hypot(v.box.center_x - p[0],
                                 v.box.center_y - p[1]) > radius
                        for p in positions))
    return replace_world_vehicles(world, kept)


def replace_world_vehicles(world: WorldModel,
                           vehicles: tuple[SimVehicle, ...]) -> WorldModel:
    """A copy of the world with a different vehicle set.

    The copy shares the source's static-geometry cache (the obstacle
    tuples are reused verbatim), so per-frame vehicle swaps do not
    rebuild the cached arrays — see ``WorldModel.static_geometry``.
    """
    new = WorldModel(buildings=world.buildings, trees=world.trees,
                     poles=world.poles, vehicles=vehicles,
                     extent=world.extent, road=world.road)
    return share_static_geometry(world, new)


def _distort_box(box: Box3D, residual_motion: MotionState,
                 scan_duration: float) -> Box3D:
    """Displace a ground-truth box the way the observer's residual scan
    distortion displaces the points on it.

    A detector infers boxes from the (imperfectly de-skewed) scan, so its
    output inherits the residual warp at the object's bearing: the object
    was swept at time ``t = (azimuth + pi) / 2pi`` of the sweep, when the
    sensor had drifted by the (uncompensated part of the) motion.
    """
    azimuth = float(np.arctan2(box.center_y, box.center_x))
    t = (azimuth + np.pi) / (2.0 * np.pi) * scan_duration
    drift = residual_motion.pose_at(t)
    warped = drift.inverse()  # stored frame = sweep-start frame
    center = warped.apply(np.array([box.center_x, box.center_y]))
    return Box3D(float(center[0]), float(center[1]), box.center_z,
                 box.length, box.width, box.height,
                 float(wrap_to_pi(box.yaw + warped.theta)))


def _visible_objects(cloud: PointCloud, vehicles: tuple[SimVehicle, ...],
                     sensor_pose: SE2, min_points: int,
                     exclude_id: int,
                     residual_motion: MotionState | None = None,
                     scan_duration: float = 0.1) -> tuple[VisibleObject, ...]:
    """Ground-truth boxes (sensor frame) for vehicles with enough returns."""
    if len(cloud) == 0:
        return ()
    inv = sensor_pose.inverse()
    vehicle_mask = (cloud.labels == int(PointLabel.VEHICLE)
                    if cloud.labels is not None
                    else np.ones(len(cloud), dtype=bool))
    vehicle_points = cloud.points[vehicle_mask]
    if len(vehicle_points) == 0:
        return ()
    px = vehicle_points[:, 0]
    py = vehicle_points[:, 1]
    # Vehicles farther from the sensor than the farthest return (plus
    # their own circumradius, the box inflation and a slack that dwarfs
    # distortion drift and rounding) cannot contain any point — skip
    # their transform and containment test outright.
    r_max = float(np.sqrt(np.max(px * px + py * py)))
    visible: list[VisibleObject] = []
    for vehicle in vehicles:
        if vehicle.vehicle_id == exclude_id:
            continue
        reach = (r_max + 5.0
                 + 0.5 * float(np.hypot(vehicle.box.length + 0.4,
                                        vehicle.box.width + 0.4)))
        if (np.hypot(vehicle.box.center_x - sensor_pose.tx,
                     vehicle.box.center_y - sensor_pose.ty) > reach):
            continue
        local_box = vehicle.box.transform(inv)
        if residual_motion is not None:
            local_box = _distort_box(local_box, residual_motion,
                                     scan_duration)
        # Tolerate range noise with a slightly inflated test box.
        test_box = Box3D(local_box.center_x, local_box.center_y,
                         local_box.center_z, local_box.length + 0.4,
                         local_box.width + 0.4, local_box.height + 0.4,
                         local_box.yaw)
        # Only points within the box's BEV circumradius can be inside;
        # the 1e-6 slack dwarfs the rotation's rounding, so the exact
        # containment test over the near subset counts identically.
        radius = (0.5 * float(np.hypot(test_box.length, test_box.width))
                  + 1e-6)
        near = ((px - test_box.center_x) ** 2
                + (py - test_box.center_y) ** 2) <= radius * radius
        count = int(np.count_nonzero(test_box.contains(
            vehicle_points[near])))
        if count >= min_points:
            visible.append(VisibleObject(vehicle.vehicle_id, local_box,
                                         count))
    return tuple(visible)


def make_frame_pair(config: ScenarioConfig | None = None,
                    rng: np.random.Generator | int | None = None,
                    world: WorldModel | None = None,
                    min_common: int = 0) -> FramePair | None:
    """Generate one two-vehicle frame pair.

    Args:
        config: scenario parameters.
        rng: generator or seed.
        world: reuse a pre-generated world (vehicles near the cooperating
            cars are still cleared); a fresh one is generated when None.
        min_common: when > 0, return None as soon as the pair is certain
            to fail the dataset's common-vehicle selection rule (see
            :func:`observe_frame`); 0 (the default) always builds the
            full pair.

    Returns:
        A :class:`FramePair` with scans, ground truth and visibility, or
        None if the ``min_common`` screen rejected the pair early.
    """
    config = config or ScenarioConfig()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if world is None:
        world = generate_world(config.world, rng)

    half = world.extent
    lane = config.world.road_half_width / 2.0
    # Ego somewhere mid-corridor so both cars keep landmarks around them.
    margin = min(config.distance + 20.0, half)
    ego_s = rng.uniform(-half + margin, half - margin)

    same_direction = rng.random() < config.same_direction_prob
    along = rng.choice([-1.0, 1.0])
    other_s = ego_s + along * config.distance

    if world.road is not None:
        ego_base = world.road.pose_at(
            ego_s, -lane + rng.normal(0.0, config.lane_jitter))
        ego_pose = SE2(wrap_to_pi(ego_base.theta
                                  + rng.normal(0.0, np.deg2rad(4.0))),
                       ego_base.tx, ego_base.ty)
        other_lat = (-lane if same_direction else lane) \
            + rng.normal(0.0, config.lane_jitter)
        other_base = world.road.pose_at(other_s, other_lat)
        other_heading = other_base.theta if same_direction \
            else other_base.theta + np.pi
        other_pose = SE2(wrap_to_pi(other_heading
                                    + rng.normal(0.0, np.deg2rad(4.0))),
                         other_base.tx, other_base.ty)
    else:
        # Hand-built worlds without a road: straight x-axis placement.
        ego_pose = SE2(rng.normal(0.0, np.deg2rad(4.0)),
                       ego_s, -lane + rng.normal(0.0, config.lane_jitter))
        other_y = (-lane if same_direction else lane) \
            + rng.normal(0.0, config.lane_jitter)
        other_yaw = (0.0 if same_direction else np.pi) \
            + rng.normal(0.0, np.deg2rad(4.0))
        other_pose = SE2(float(wrap_to_pi(other_yaw)), float(other_s),
                         float(other_y))

    world = _clear_area(world, [np.array([ego_pose.tx, ego_pose.ty]),
                                np.array([other_pose.tx, other_pose.ty])])

    ego_speed = rng.uniform(*config.speed_range)
    other_speed = rng.uniform(*config.speed_range)
    ego_motion = MotionState(velocity_x=float(ego_speed),
                             velocity_y=0.0,
                             yaw_rate=float(rng.normal(0.0,
                                                       config.yaw_rate_std)))
    other_motion = MotionState(velocity_x=float(other_speed),
                               velocity_y=0.0,
                               yaw_rate=float(rng.normal(0.0,
                                                         config.yaw_rate_std)))

    return observe_frame(world, ego_pose, other_pose, ego_motion,
                         other_motion, config, rng, min_common=min_common)


def _compensate_on_grid(cloud: PointCloud, motion: MotionState,
                        scan_duration: float,
                        azimuth_steps: int) -> PointCloud:
    """:func:`compensate_self_motion_distortion`, with the sweep poses
    evaluated once on the scan's azimuth grid and gathered per point.

    :func:`simulate_scan` timestamps points with exact azimuth-grid
    values, so the per-point pose batch collapses to ``azimuth_steps``
    entries — bit-identical output, a fraction of the trig.  Falls back
    to the general routine if the timestamps turn out not to sit on the
    expected grid (e.g. a resampled or merged cloud).
    """
    if len(cloud) == 0 or cloud.timestamps is None:
        return compensate_self_motion_distortion(cloud, motion,
                                                 scan_duration)
    n_az = azimuth_steps
    azimuths = -np.pi + 2.0 * np.pi * (np.arange(n_az) + 0.5) / n_az
    grid_ts = (azimuths + np.pi) / (2.0 * np.pi)
    # Grid timestamps are ~(row + 0.5) / n_az, so the inverse map is a
    # rounding, not a search; the exact-match check below still decides
    # whether the grid fast path applies.
    idx = np.rint(cloud.timestamps * n_az - 0.5).astype(np.int64)
    idx_c = np.clip(idx, 0, n_az - 1)
    if not np.array_equal(grid_ts[idx_c], cloud.timestamps):
        return compensate_self_motion_distortion(cloud, motion,
                                                 scan_duration)
    thetas_g, trans_g = _pose_batch(motion, grid_ts, scan_duration)
    cos_g, sin_g = np.cos(thetas_g), np.sin(thetas_g)
    cos_t, sin_t = cos_g.take(idx_c), sin_g.take(idx_c)
    px = np.ascontiguousarray(cloud.points[:, 0])
    py = np.ascontiguousarray(cloud.points[:, 1])
    tx = np.ascontiguousarray(trans_g[:, 0])
    ty = np.ascontiguousarray(trans_g[:, 1])
    new_points = np.empty_like(cloud.points)
    new_points[:, 0] = (cos_t * px - sin_t * py) + tx.take(idx_c)
    new_points[:, 1] = (sin_t * px + cos_t * py) + ty.take(idx_c)
    new_points[:, 2] = cloud.points[:, 2]
    return PointCloud(new_points, cloud.timestamps, cloud.labels)


def observe_frame(world: WorldModel, ego_pose: SE2, other_pose: SE2,
                  ego_motion: MotionState, other_motion: MotionState,
                  config: ScenarioConfig,
                  rng: np.random.Generator | int | None = None,
                  min_common: int = 0) -> FramePair | None:
    """Scan a given two-vehicle configuration into a :class:`FramePair`.

    This is the observation half of :func:`make_frame_pair`, exposed so
    sequence generators (:mod:`repro.simulation.sequence`) can evolve the
    vehicle configuration themselves and re-observe each frame.

    ``min_common`` > 0 enables the dataset's rejection screen: common
    vehicles are an intersection of the two visible sets, so once the
    ego side alone has fewer than ``min_common`` world vehicles the pair
    is certain to be rejected and the partner scan is skipped (returns
    None).  The ego side consumes the same RNG draws either way and
    per-attempt generators are independent, so enabling the screen
    changes no surviving pair's bytes.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    ego_body = _partner_vehicle(rng, ego_pose, ego_motion.speed,
                                EGO_VEHICLE_ID)
    other_body = _partner_vehicle(rng, other_pose, other_motion.speed,
                                  OTHER_VEHICLE_ID)

    # Each car scans the world plus its partner's body (never its own).
    world_for_ego = replace_world_vehicles(
        world, world.vehicles + (other_body,))
    world_for_other = replace_world_vehicles(
        world, world.vehicles + (ego_body,))

    # Odometry-based de-skew (standard lidar preprocessing): compensate
    # with a slightly-wrong motion estimate, leaving the configured
    # fraction of the distortion in the data.
    comp_err = config.motion_compensation_error
    ego_residual = MotionState(ego_motion.velocity_x * comp_err,
                               ego_motion.velocity_y * comp_err,
                               ego_motion.yaw_rate * comp_err)
    other_residual = MotionState(other_motion.velocity_x * comp_err,
                                 other_motion.velocity_y * comp_err,
                                 other_motion.yaw_rate * comp_err)

    # Ego side first, through visibility: nothing between the two scan
    # calls draws randomness, so finishing the ego pipeline before the
    # partner scan leaves every RNG draw at its reference position.
    ego_cloud = simulate_scan(world_for_ego, ego_pose, config.ego_lidar,
                              rng=rng, motion=ego_motion)
    if comp_err < 1.0:
        ego_est = MotionState(ego_motion.velocity_x * (1.0 - comp_err),
                              ego_motion.velocity_y * (1.0 - comp_err),
                              ego_motion.yaw_rate * (1.0 - comp_err))
        ego_cloud = _compensate_on_grid(
            ego_cloud, ego_est, config.ego_lidar.scan_duration,
            config.ego_lidar.azimuth_steps)
    ego_visible = _visible_objects(ego_cloud, world_for_ego.vehicles,
                                   ego_pose, config.min_visible_points,
                                   EGO_VEHICLE_ID, ego_residual,
                                   config.ego_lidar.scan_duration)
    if min_common > 0 and sum(
            1 for v in ego_visible if v.vehicle_id >= 0) < min_common:
        return None

    other_cloud = simulate_scan(world_for_other, other_pose,
                                config.other_lidar, rng=rng,
                                motion=other_motion)
    if comp_err < 1.0:
        other_est = MotionState(other_motion.velocity_x * (1.0 - comp_err),
                                other_motion.velocity_y * (1.0 - comp_err),
                                other_motion.yaw_rate * (1.0 - comp_err))
        other_cloud = _compensate_on_grid(
            other_cloud, other_est, config.other_lidar.scan_duration,
            config.other_lidar.azimuth_steps)
    other_visible = _visible_objects(other_cloud, world_for_other.vehicles,
                                     other_pose, config.min_visible_points,
                                     OTHER_VEHICLE_ID, other_residual,
                                     config.other_lidar.scan_duration)

    gt_relative = ego_pose.inverse() @ other_pose
    return FramePair(world=world, ego_pose=ego_pose, other_pose=other_pose,
                     gt_relative=gt_relative, ego_cloud=ego_cloud,
                     other_cloud=other_cloud, ego_motion=ego_motion,
                     other_motion=other_motion, ego_visible=ego_visible,
                     other_visible=other_visible,
                     scenario_kind=config.world.kind)
