"""Procedural street-world generation.

A world is a flat ground plane populated with the object classes that
matter to BB-Align: tall static landmarks (building walls, tree crowns,
poles) that the BV image matching keys on, and vehicles (parked and
moving) that stage 2 aligns.  Worlds are generated along a straight
two-lane road on the x-axis — the dominant geometry of the V2V4Real
drives — with scenario flavors controlling landmark and traffic density.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.boxes.box import Box3D
from repro.geometry.angles import wrap_to_pi
from repro.pointcloud.cloud import PointLabel
from repro.simulation.road import RoadModel, make_road

__all__ = ["Building", "Tree", "Pole", "SimVehicle", "WorldModel",
           "WorldConfig", "ScenarioKind", "generate_world",
           "share_static_geometry"]


@dataclass(frozen=True)
class Building:
    """An axis-oriented rectangular building.

    Attributes:
        center_x, center_y: footprint center.
        size_x, size_y: footprint extents.
        yaw: footprint rotation (radians).
        height: roof height above ground.
    """

    center_x: float
    center_y: float
    size_x: float
    size_y: float
    yaw: float
    height: float

    def wall_segments(self) -> np.ndarray:
        """(4, 2, 2) array of wall segments (corner -> next corner)."""
        half = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        local = half * np.array([self.size_x, self.size_y])
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        corners = local @ rot.T + np.array([self.center_x, self.center_y])
        return np.stack([corners, np.roll(corners, -1, axis=0)], axis=1)


@dataclass(frozen=True)
class Tree:
    """A tree: trunk (thin cylinder) plus crown (wide cylinder).

    Attributes:
        x, y: trunk position.
        trunk_radius: trunk cylinder radius.
        crown_radius: crown cylinder radius.
        crown_base: height where the crown starts.
        height: total height.
    """

    x: float
    y: float
    trunk_radius: float
    crown_radius: float
    crown_base: float
    height: float


@dataclass(frozen=True)
class Pole:
    """A utility/light pole — thin, tall, a crisp BV landmark."""

    x: float
    y: float
    radius: float
    height: float


@dataclass(frozen=True)
class SimVehicle:
    """A vehicle in the world.

    Attributes:
        box: 3-D bounding box in world coordinates (center z at half
            height, i.e. the box sits on the ground).
        velocity: planar speed along the box yaw (m/s); 0 for parked cars.
        vehicle_id: stable identity for common-car bookkeeping.
    """

    box: Box3D
    velocity: float
    vehicle_id: int

    @property
    def is_moving(self) -> bool:
        return abs(self.velocity) > 0.1


class _StaticGeometry:
    """World-frame obstacle arrays for everything that never moves.

    Built once per world by :meth:`WorldModel.static_geometry` and reused
    by every scan: the per-scan work reduces to one stacked rigid
    transform instead of per-object Python loops.  Walls are stored as
    (B, 8, 2) per-building corner runs (4 segments x 2 endpoints) so the
    sensor-frame transform can be applied as a stacked ``(B, 8, 2) @
    (2, 2)`` matmul — bit-identical to the per-building ``SE2.apply``
    calls the reference simulator makes.  Circles likewise keep the
    (C, 1, 2) single-point shape of the reference per-object transforms.
    """

    __slots__ = ("wall_points", "wall_zmax", "wall_label",
                 "circle_points", "circle_radii",
                 "circ_zmin", "circ_zmax", "circ_label")

    def __init__(self, wall_points: np.ndarray, wall_zmax: np.ndarray,
                 wall_label: np.ndarray, circle_points: np.ndarray,
                 circle_radii: np.ndarray, circ_zmin: np.ndarray,
                 circ_zmax: np.ndarray, circ_label: np.ndarray) -> None:
        self.wall_points = wall_points        # (B, 8, 2) world frame
        self.wall_zmax = wall_zmax            # (4B,)
        self.wall_label = wall_label          # (4B,) int32
        self.circle_points = circle_points    # (C, 1, 2) world frame
        self.circle_radii = circle_radii      # (C,)
        self.circ_zmin = circ_zmin            # (C,)
        self.circ_zmax = circ_zmax            # (C,)
        self.circ_label = circ_label          # (C,) int32


class _GeometryCacheCell:
    """One-slot mutable holder for a lazily built :class:`_StaticGeometry`.

    The indirection lets frozen :class:`WorldModel` copies that share the
    same static objects (see :func:`share_static_geometry`) also share the
    cache *before* it is built — whichever copy scans first fills it for
    all of them.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: _StaticGeometry | None = None


def _build_static_geometry(world: "WorldModel") -> _StaticGeometry:
    buildings = world.buildings
    if buildings:
        # All buildings' wall segments at once.  The per-building
        # (4, 2) @ (2, 2) corner rotation of Building.wall_segments()
        # becomes one batched (B, 4, 2) @ (B, 2, 2) matmul, which runs
        # the same per-slice GEMM — corners come out bit-identical.
        attrs = np.array([(b.center_x, b.center_y, b.size_x, b.size_y,
                           b.yaw, b.height) for b in buildings])
        half = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        local = half[None, :, :] * attrs[:, None, 2:4]
        c, s = np.cos(attrs[:, 4]), np.sin(attrs[:, 4])
        rot_t = np.empty((len(buildings), 2, 2))
        rot_t[:, 0, 0] = c
        rot_t[:, 0, 1] = s
        rot_t[:, 1, 0] = -s
        rot_t[:, 1, 1] = c
        corners = local @ rot_t + attrs[:, None, 0:2]        # (B, 4, 2)
        wall_points = np.stack(
            [corners, np.roll(corners, -1, axis=1)], axis=2).reshape(-1, 8, 2)
        wall_zmax = np.repeat(attrs[:, 5], 4)
    else:
        wall_points = np.empty((0, 8, 2))
        wall_zmax = np.empty(0)
    wall_label = np.full(4 * len(buildings), int(PointLabel.BUILDING),
                         dtype=np.int32)

    # Circles: two per tree (trunk below the crown base, crown above it),
    # one per pole — interleaved exactly like the reference's append
    # order (trunk, crown per tree, then poles).
    n_trees, n_poles = len(world.trees), len(world.poles)
    if n_trees or n_poles:
        tree_attrs = np.array([(t.x, t.y, t.trunk_radius, t.crown_radius,
                                t.crown_base, t.height) for t in world.trees]
                              ).reshape(n_trees, 6)
        pole_attrs = np.array([(p.x, p.y, p.radius, p.height)
                               for p in world.poles]).reshape(n_poles, 4)
        centers = np.concatenate([np.repeat(tree_attrs[:, 0:2], 2, axis=0),
                                  pole_attrs[:, 0:2]])
        radii = np.concatenate([tree_attrs[:, 2:4].reshape(-1),
                                pole_attrs[:, 2]])
        zeros = np.zeros(n_trees)
        circ_zmin = np.concatenate([
            np.stack([zeros, tree_attrs[:, 4]], axis=1).reshape(-1),
            np.zeros(n_poles)])
        circ_zmax = np.concatenate([tree_attrs[:, 4:6].reshape(-1),
                                    pole_attrs[:, 3]])
        circ_label = np.concatenate([
            np.full(2 * n_trees, int(PointLabel.TREE), dtype=np.int32),
            np.full(n_poles, int(PointLabel.POLE), dtype=np.int32)])
        circle_points = centers.reshape(-1, 1, 2)
    else:
        circle_points = np.empty((0, 1, 2))
        radii = circ_zmin = circ_zmax = np.empty(0)
        circ_label = np.empty(0, dtype=np.int32)
    return _StaticGeometry(
        wall_points, wall_zmax, wall_label, circle_points,
        radii, circ_zmin, circ_zmax, circ_label)


@dataclass(frozen=True)
class WorldModel:
    """Everything the lidar simulator can see.

    ``road`` is the centerline the corridor was generated around (None
    for hand-built worlds); ``extent`` is half the corridor arc length.

    Static geometry caching: buildings, trees and poles never move, so
    the simulator caches their concatenated world-frame arrays on the
    instance (lazily, on first scan).  The model is frozen, which makes
    the cache trivially valid for its lifetime: "modifying" a world means
    constructing a new :class:`WorldModel`, which starts with a fresh,
    empty cache.  Copies that share the same ``buildings``/``trees``/
    ``poles`` tuples (e.g. vehicle-set swaps) can share the cache through
    :func:`share_static_geometry`.  The cache never pickles — a world
    sent to a worker process rebuilds it on first use.
    """

    buildings: tuple[Building, ...]
    trees: tuple[Tree, ...]
    poles: tuple[Pole, ...]
    vehicles: tuple[SimVehicle, ...]
    extent: float
    road: "RoadModel | None" = None

    def _geometry_cell(self) -> _GeometryCacheCell:
        cell = self.__dict__.get("_static_geometry_cell")
        if cell is None:
            cell = _GeometryCacheCell()
            object.__setattr__(self, "_static_geometry_cell", cell)
        return cell

    def static_geometry(self) -> _StaticGeometry:
        """The cached world-frame arrays for buildings/trees/poles."""
        cell = self._geometry_cell()
        if cell.value is None:
            cell.value = _build_static_geometry(self)
        return cell.value

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_static_geometry_cell", None)
        return state


def share_static_geometry(source: WorldModel, dest: WorldModel) -> WorldModel:
    """Let ``dest`` reuse ``source``'s static-geometry cache.

    Only legal — and only applied — when the two worlds carry the *same*
    static object tuples (identity, not equality): that is the
    invalidation contract.  Returns ``dest`` for chaining.
    """
    if (dest.buildings is source.buildings and dest.trees is source.trees
            and dest.poles is source.poles):
        object.__setattr__(dest, "_static_geometry_cell",
                           source._geometry_cell())
    return dest


class ScenarioKind(str, enum.Enum):
    """Scenario flavors mirroring the V2V4Real drive mix."""

    URBAN = "urban"          # dense buildings and traffic
    SUBURBAN = "suburban"    # moderate landmarks, light traffic
    HIGHWAY = "highway"      # sparse landmarks (the hard case), fast traffic
    OPEN = "open"            # almost no landmarks — recovery should fail


@dataclass(frozen=True)
class WorldConfig:
    """Generation knobs.

    Densities are per 100 m of road corridor (both sides combined).

    Attributes:
        kind: scenario flavor; presets override densities unless the
            caller sets ``override_densities``.
        corridor_length: total road length to populate (meters).
        road_half_width: lane center offset from the road axis.
        building_density: buildings per 100 m.
        tree_density: trees per 100 m.
        pole_density: poles per 100 m.
        parked_density: parked cars per 100 m.
        traffic_density: moving cars per 100 m.
        override_densities: use the explicit densities instead of the
            ``kind`` preset.
    """

    kind: ScenarioKind = ScenarioKind.SUBURBAN
    corridor_length: float = 300.0
    road_half_width: float = 3.5
    building_density: float = 8.0
    tree_density: float = 6.0
    pole_density: float = 2.0
    parked_density: float = 3.0
    traffic_density: float = 4.0
    override_densities: bool = False

    def resolved(self) -> "WorldConfig":
        """Apply the ``kind`` preset unless densities are overridden."""
        if self.override_densities:
            return self
        presets = {
            ScenarioKind.URBAN: dict(building_density=14.0, tree_density=5.0,
                                     pole_density=3.0, parked_density=6.0,
                                     traffic_density=8.0),
            ScenarioKind.SUBURBAN: dict(building_density=8.0, tree_density=7.0,
                                        pole_density=2.0, parked_density=3.0,
                                        traffic_density=4.0),
            ScenarioKind.HIGHWAY: dict(building_density=1.5, tree_density=3.0,
                                       pole_density=1.5, parked_density=0.0,
                                       traffic_density=6.0),
            ScenarioKind.OPEN: dict(building_density=0.2, tree_density=0.5,
                                    pole_density=0.3, parked_density=0.0,
                                    traffic_density=1.0),
        }
        values = presets[self.kind]
        return WorldConfig(kind=self.kind,
                           corridor_length=self.corridor_length,
                           road_half_width=self.road_half_width,
                           override_densities=True, **values)


_CAR_LENGTH_RANGE = (4.2, 5.2)
_CAR_WIDTH_RANGE = (1.8, 2.1)
_CAR_HEIGHT_RANGE = (1.5, 1.9)


def _make_car(rng: np.random.Generator, x: float, y: float, yaw: float,
              velocity: float, vehicle_id: int) -> SimVehicle:
    length = rng.uniform(*_CAR_LENGTH_RANGE)
    width = rng.uniform(*_CAR_WIDTH_RANGE)
    height = rng.uniform(*_CAR_HEIGHT_RANGE)
    box = Box3D(x, y, height / 2.0, length, width, height, yaw)
    return SimVehicle(box=box, velocity=velocity, vehicle_id=vehicle_id)


def generate_world(config: WorldConfig | None = None,
                   rng: np.random.Generator | int | None = None) -> WorldModel:
    """Generate a random street world around a curved road.

    The road is a piecewise-constant-curvature centerline through the
    origin (see :mod:`repro.simulation.road`).  The corridor is split into
    blocks of ~60-90 m, each with its own density multiplier and building
    style, so scenery varies along the drive the way real streets do —
    both properties (curvature and block variation) are what prevents one
    stretch of road from aliasing onto another during image matching.

    Objects are placed in road coordinates (arc length s, signed lateral
    offset) and mapped to world coordinates through the centerline frame.

    Args:
        config: generation parameters (scenario presets applied).
        rng: generator or seed.

    Returns:
        A :class:`WorldModel` carrying the generated road.
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

    # Placement is deferred: ``road.pose_at`` consumes no randomness, so
    # the loops below draw in the reference order while only *recording*
    # (s, lateral, yaw_jitter) placement requests plus the remaining
    # constructor arguments.  All road frames are then evaluated in one
    # batched :meth:`RoadModel.frames_at` call (bit-identical per
    # element to the per-object ``pose_at``), and the objects built from
    # the results — the per-object twin in ``tests/_reference/world.py``
    # is the spec.
    req_s: list[float] = []
    req_lat: list[float] = []
    req_jit: list[float] = []

    def request(s: float, lateral: float, yaw_jitter: float = 0.0) -> int:
        req_s.append(s)
        req_lat.append(lateral)
        req_jit.append(yaw_jitter)
        return len(req_s) - 1

    building_req: list[tuple[int, float, float, float]] = []
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
        at = request(s_pos, lateral, rng.normal(0.0, np.deg2rad(8.0)))
        height = rng.uniform(4.0, 15.0) * block_height[block_of(s_pos)]
        building_req.append((at, size_s, size_n, height))
        # Facade articulation: annex wings at jittered offsets create the
        # corner/height-step structure real BV images are full of — and
        # that keypoint matching needs to break the translational
        # self-similarity of a bare straight wall.
        for _ in range(rng.integers(0, 3)):
            a_s = s_pos + rng.uniform(-size_s / 2.0, size_s / 2.0)
            a_lat = lateral - side * rng.uniform(0.3, 0.7) * size_n
            a_at = request(a_s, a_lat, rng.normal(0.0, np.deg2rad(12.0)))
            building_req.append((a_at,
                                 rng.uniform(3.0, 9.0),
                                 rng.uniform(3.0, 8.0),
                                 height * rng.uniform(0.4, 0.9)))

    # Fences and free-standing walls: thin, car-height structures along
    # and across property lines, at many orientations.
    n_fences = rng.poisson(config.building_density * scale * 0.8)
    for _ in range(n_fences):
        side = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        along_road = rng.random() < 0.5
        length = rng.uniform(6.0, 25.0)
        lateral = side * (config.road_half_width + rng.uniform(1.5, 15.0))
        jitter = (rng.normal(0.0, np.deg2rad(5.0)) if along_road
                  else rng.normal(np.pi / 2.0, np.deg2rad(5.0)))
        at = request(s_pos, lateral, jitter)
        building_req.append((at, length, 0.25, rng.uniform(1.4, 2.4)))

    tree_req: list[tuple[int, float, float, float, float]] = []
    n_trees = rng.poisson(config.tree_density * scale)
    for _ in range(n_trees):
        side = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        if rng.random() > min(block_density[block_of(s_pos)], 1.6):
            continue
        at = request(s_pos, side * (config.road_half_width
                                    + rng.uniform(2.0, 12.0)))
        tree_req.append((at,
                         rng.uniform(0.15, 0.35),
                         rng.uniform(1.2, 3.0),
                         rng.uniform(1.8, 3.0),
                         rng.uniform(5.0, 12.0)))
    # Bushes/hedges: low discrete blobs near the road edge.
    n_bushes = rng.poisson(config.tree_density * scale * 0.8)
    for _ in range(n_bushes):
        side = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        at = request(s_pos, side * (config.road_half_width
                                    + rng.uniform(0.8, 6.0)))
        tree_req.append((at, 0.1, rng.uniform(0.5, 1.4), 0.0,
                         rng.uniform(0.8, 2.2)))

    pole_req: list[tuple[int, float, float]] = []
    n_poles = rng.poisson(config.pole_density * scale)
    for _ in range(n_poles):
        side = rng.choice([-1.0, 1.0])
        at = request(rng.uniform(-half, half),
                     side * (config.road_half_width
                             + rng.uniform(0.5, 2.0)))
        pole_req.append((at, rng.uniform(0.1, 0.2),
                         rng.uniform(6.0, 10.0)))

    car_req: list[tuple[int, float, float, float, float, int]] = []
    vehicle_id = 0
    n_parked = rng.poisson(config.parked_density * scale)
    for _ in range(n_parked):
        side = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        lateral = side * (config.road_half_width + rng.uniform(0.3, 1.2))
        jitter = rng.normal(0.0, np.deg2rad(3.0))
        if side < 0:
            jitter = jitter + np.pi
        at = request(s_pos, lateral, jitter)
        car_req.append((at,
                        rng.uniform(*_CAR_LENGTH_RANGE),
                        rng.uniform(*_CAR_WIDTH_RANGE),
                        rng.uniform(*_CAR_HEIGHT_RANGE),
                        0.0, vehicle_id))
        vehicle_id += 1

    n_moving = rng.poisson(config.traffic_density * scale)
    lane_offset = config.road_half_width / 2.0
    for _ in range(n_moving):
        direction = rng.choice([-1.0, 1.0])
        s_pos = rng.uniform(-half, half)
        lateral = -direction * lane_offset  # right-hand traffic
        jitter = 0.0 if direction > 0 else np.pi
        at = request(s_pos, lateral, jitter)
        speed = rng.uniform(5.0, 18.0)
        car_req.append((at,
                        rng.uniform(*_CAR_LENGTH_RANGE),
                        rng.uniform(*_CAR_WIDTH_RANGE),
                        rng.uniform(*_CAR_HEIGHT_RANGE),
                        float(speed), vehicle_id))
        vehicle_id += 1

    if req_s:
        txs, tys, theta = road.frames_at(np.asarray(req_s),
                                         np.asarray(req_lat))
        yaws = wrap_to_pi(theta + np.asarray(req_jit))
    else:
        txs = tys = yaws = np.empty(0)

    buildings = [Building(float(txs[at]), float(tys[at]), size_s, size_n,
                          float(yaws[at]), height)
                 for at, size_s, size_n, height in building_req]
    trees = [Tree(x=float(txs[at]), y=float(tys[at]), trunk_radius=trunk,
                  crown_radius=crown, crown_base=base, height=height)
             for at, trunk, crown, base, height in tree_req]
    poles = [Pole(x=float(txs[at]), y=float(tys[at]), radius=radius,
                  height=height)
             for at, radius, height in pole_req]
    vehicles = [SimVehicle(box=Box3D(float(txs[at]), float(tys[at]),
                                     height / 2.0, length, width, height,
                                     float(yaws[at])),
                           velocity=velocity, vehicle_id=vid)
                for at, length, width, height, velocity, vid in car_req]

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
