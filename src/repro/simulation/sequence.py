"""Drive sequences: consecutive frame pairs of one evolving scene.

The paper evaluates independent frame pairs; a deployed system sees a
*stream*.  :class:`DriveSequence` evolves one world over time — the two
cooperating vehicles follow the road at their speeds, traffic vehicles
advance along their headings — and re-observes a frame pair at each step,
so temporal components (:mod:`repro.core.temporal`) can be evaluated on
physically consistent streams with per-frame ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.geometry.se2 import SE2
from repro.pointcloud.distortion import MotionState
from repro.simulation.scenario import (
    FramePair,
    ScenarioConfig,
    _clear_area,
    observe_frame,
)
from repro.simulation.world import (
    SimVehicle,
    WorldModel,
    generate_world,
)
from repro.simulation.scenario import replace_world_vehicles

__all__ = ["SequenceConfig", "DriveSequence"]


@dataclass(frozen=True)
class SequenceConfig:
    """Sequence generation parameters.

    Attributes:
        scenario: the per-frame scenario template (world, sensors,
            distortion...).
        num_frames: sequence length.
        frame_dt: time between frames (seconds); 0.1 s = every sweep.
    """

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    num_frames: int = 10
    frame_dt: float = 0.1

    def __post_init__(self) -> None:
        if self.num_frames < 1:
            raise ValueError("num_frames must be >= 1")
        if self.frame_dt <= 0:
            raise ValueError("frame_dt must be positive")


def _advance_vehicle(vehicle: SimVehicle, dt: float) -> SimVehicle:
    """Move a traffic vehicle along its heading at its speed."""
    if not vehicle.is_moving:
        return vehicle
    dx = vehicle.velocity * dt * np.cos(vehicle.box.yaw)
    dy = vehicle.velocity * dt * np.sin(vehicle.box.yaw)
    return SimVehicle(vehicle.box.with_center(vehicle.box.center_x + dx,
                                              vehicle.box.center_y + dy),
                      vehicle.velocity, vehicle.vehicle_id)


class DriveSequence:
    """Generates consecutive frame pairs of one evolving scene.

    Both cooperating vehicles track the road centerline at their sampled
    speeds (arc-length integration), so headings follow curves naturally.

    Example:
        >>> seq = DriveSequence(SequenceConfig(num_frames=5), rng=3)
        >>> frames = list(seq)           # doctest: +SKIP
    """

    def __init__(self, config: SequenceConfig | None = None,
                 rng: np.random.Generator | int | None = None) -> None:
        self.config = config or SequenceConfig()
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self._rng = rng
        scenario = self.config.scenario
        self._world = generate_world(scenario.world, rng)
        road = self._world.road
        if road is None:
            raise ValueError("drive sequences need a road-based world")

        half = self._world.extent
        travel = (scenario.speed_range[1] * self.config.num_frames
                  * self.config.frame_dt)
        margin = min(scenario.distance + travel + 20.0, half)
        self._ego_s = float(rng.uniform(-half + margin, half - margin))
        self._same_direction = rng.random() < scenario.same_direction_prob
        along = rng.choice([-1.0, 1.0])
        self._other_s = self._ego_s + float(along * scenario.distance)
        self._lane = scenario.world.road_half_width / 2.0
        self._ego_lat = -self._lane + rng.normal(0.0, scenario.lane_jitter)
        self._other_lat = ((-self._lane if self._same_direction
                            else self._lane)
                           + rng.normal(0.0, scenario.lane_jitter))
        self._ego_speed = float(rng.uniform(*scenario.speed_range))
        self._other_speed = float(rng.uniform(*scenario.speed_range))
        self._frame_index = 0

    # ------------------------------------------------------------------
    def _pose_of(self, s: float, lateral: float, forward: bool) -> SE2:
        base = self._world.road.pose_at(s, lateral)
        heading = base.theta if forward else base.theta + np.pi
        return SE2(float(wrap_to_pi(heading)), base.tx, base.ty)

    def __iter__(self):
        for _ in range(self.config.num_frames):
            yield self.next_frame()

    def next_frame(self) -> FramePair:
        """Observe the current configuration, then advance time."""
        if self._frame_index >= self.config.num_frames:
            raise StopIteration("sequence exhausted")
        scenario = self.config.scenario
        ego_pose = self._pose_of(self._ego_s, self._ego_lat, True)
        other_pose = self._pose_of(self._other_s, self._other_lat,
                                   self._same_direction)
        world = _clear_area(self._world,
                            [np.array([ego_pose.tx, ego_pose.ty]),
                             np.array([other_pose.tx, other_pose.ty])])
        ego_motion = MotionState(velocity_x=self._ego_speed)
        other_motion = MotionState(velocity_x=self._other_speed)
        frame = observe_frame(world, ego_pose, other_pose, ego_motion,
                              other_motion, scenario,
                              rng=np.random.default_rng(
                                  self._rng.integers(0, 2 ** 31)))

        # Advance the scene.
        dt = self.config.frame_dt
        self._ego_s += self._ego_speed * dt
        self._other_s += (self._other_speed * dt
                          if self._same_direction
                          else -self._other_speed * dt)
        self._world = replace_world_vehicles(
            self._world,
            tuple(_advance_vehicle(v, dt) for v in self._world.vehicles))
        self._frame_index += 1
        return frame

