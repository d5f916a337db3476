"""Per-object world placement, the twin of ``repro.simulation.generate_world``.

The pre-rework implementation: one ``road.pose_at`` per placed object,
interleaved with the random draws.  The batched-placement generator must
draw the same RNG sequence and build bit-identical worlds.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.simulation.road import make_road
from repro.simulation.world import (
    Building,
    Pole,
    SimVehicle,
    Tree,
    WorldConfig,
    WorldModel,
    _make_car,
)


def reference_generate_world(config: WorldConfig | None = None,
                             rng: np.random.Generator | int | None = None
                             ) -> WorldModel:
    """Pre-rework :func:`generate_world`: one ``pose_at`` per object.

    Kept as the behavioral specification for the batched-placement fast
    path — same RNG draw sequence, bit-identical worlds
    (``tests/test_sim_equivalence.py`` enforces this).
    """
    config = (config or WorldConfig()).resolved()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    road = make_road(length=config.corridor_length, rng=rng)
    half = config.corridor_length / 2.0
    scale = config.corridor_length / 100.0

    # Blocks: density and style vary along the corridor.
    block_len = rng.uniform(55.0, 90.0)
    n_blocks = int(np.ceil(config.corridor_length / block_len)) + 1
    block_density = np.exp(rng.normal(0.0, 0.55, size=n_blocks))
    block_height = rng.uniform(0.6, 1.6, size=n_blocks)

    def block_of(s: float) -> int:
        return min(int((s + half) / block_len), n_blocks - 1)

    def place(s: float, lateral: float, yaw_jitter: float = 0.0):
        pose = road.pose_at(s, lateral)
        return pose.tx, pose.ty, wrap_to_pi(pose.theta + yaw_jitter)

    buildings: list[Building] = []
    n_buildings = rng.poisson(config.building_density * scale)
    for _ in range(n_buildings):
        side = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        if rng.random() > min(block_density[block_of(s_pos)], 1.6):
            continue
        setback = rng.uniform(6.0, 25.0)
        size_s = rng.uniform(8.0, 28.0)
        size_n = rng.uniform(6.0, 20.0)
        lateral = side * (config.road_half_width + setback + size_n / 2.0)
        x, y, yaw = place(s_pos, lateral, rng.normal(0.0, np.deg2rad(8.0)))
        height = rng.uniform(4.0, 15.0) * block_height[block_of(s_pos)]
        main = Building(x, y, size_s, size_n, yaw, height)
        buildings.append(main)
        for _ in range(rng.integers(0, 3)):
            a_s = s_pos + rng.uniform(-size_s / 2.0, size_s / 2.0)
            a_lat = lateral - side * rng.uniform(0.3, 0.7) * size_n
            ax, ay, ayaw = place(a_s, a_lat,
                                 rng.normal(0.0, np.deg2rad(12.0)))
            buildings.append(Building(ax, ay,
                                      rng.uniform(3.0, 9.0),
                                      rng.uniform(3.0, 8.0),
                                      ayaw, height * rng.uniform(0.4, 0.9)))

    n_fences = rng.poisson(config.building_density * scale * 0.8)
    for _ in range(n_fences):
        side = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        along_road = rng.random() < 0.5
        length = rng.uniform(6.0, 25.0)
        lateral = side * (config.road_half_width + rng.uniform(1.5, 15.0))
        jitter = (rng.normal(0.0, np.deg2rad(5.0)) if along_road
                  else rng.normal(np.pi / 2.0, np.deg2rad(5.0)))
        x, y, yaw = place(s_pos, lateral, jitter)
        buildings.append(Building(x, y, length, 0.25, yaw,
                                  rng.uniform(1.4, 2.4)))

    trees: list[Tree] = []
    n_trees = rng.poisson(config.tree_density * scale)
    for _ in range(n_trees):
        side = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        if rng.random() > min(block_density[block_of(s_pos)], 1.6):
            continue
        pt = road.point_at(s_pos, side * (config.road_half_width
                                          + rng.uniform(2.0, 12.0)))
        trees.append(Tree(x=float(pt[0]), y=float(pt[1]),
                          trunk_radius=rng.uniform(0.15, 0.35),
                          crown_radius=rng.uniform(1.2, 3.0),
                          crown_base=rng.uniform(1.8, 3.0),
                          height=rng.uniform(5.0, 12.0)))
    n_bushes = rng.poisson(config.tree_density * scale * 0.8)
    for _ in range(n_bushes):
        side = rng.choice([-1.0, 1.0])
        pt = road.point_at(rng.uniform(-half, half),
                           side * (config.road_half_width
                                   + rng.uniform(0.8, 6.0)))
        trees.append(Tree(x=float(pt[0]), y=float(pt[1]),
                          trunk_radius=0.1,
                          crown_radius=rng.uniform(0.5, 1.4),
                          crown_base=0.0,
                          height=rng.uniform(0.8, 2.2)))

    poles: list[Pole] = []
    n_poles = rng.poisson(config.pole_density * scale)
    for _ in range(n_poles):
        side = rng.choice([-1.0, 1.0])
        pt = road.point_at(rng.uniform(-half, half),
                           side * (config.road_half_width
                                   + rng.uniform(0.5, 2.0)))
        poles.append(Pole(x=float(pt[0]), y=float(pt[1]),
                          radius=rng.uniform(0.1, 0.2),
                          height=rng.uniform(6.0, 10.0)))

    vehicles: list[SimVehicle] = []
    vehicle_id = 0
    n_parked = rng.poisson(config.parked_density * scale)
    for _ in range(n_parked):
        side = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        lateral = side * (config.road_half_width + rng.uniform(0.3, 1.2))
        jitter = rng.normal(0.0, np.deg2rad(3.0))
        if side < 0:
            jitter = jitter + np.pi
        x, y, yaw = place(s_pos, lateral, jitter)
        vehicles.append(_make_car(rng, x, y, float(yaw), 0.0, vehicle_id))
        vehicle_id += 1

    n_moving = rng.poisson(config.traffic_density * scale)
    lane_offset = config.road_half_width / 2.0
    for _ in range(n_moving):
        direction = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        lateral = -direction * lane_offset  # right-hand traffic
        jitter = 0.0 if direction > 0 else np.pi
        x, y, yaw = place(s_pos, lateral, jitter)
        speed = rng.uniform(5.0, 18.0)
        vehicles.append(_make_car(rng, x, y, float(yaw),
                                  float(speed), vehicle_id))
        vehicle_id += 1

    # Remove vehicle-vehicle overlaps (keep earlier = parked first).
    kept: list[SimVehicle] = []
    for vehicle in vehicles:
        clash = any(
            np.hypot(vehicle.box.center_x - other.box.center_x,
                     vehicle.box.center_y - other.box.center_y) < 6.0
            for other in kept)
        if not clash:
            kept.append(vehicle)

    return WorldModel(buildings=tuple(buildings), trees=tuple(trees),
                      poles=tuple(poles), vehicles=tuple(kept),
                      extent=half, road=road)
