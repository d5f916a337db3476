"""Equivalence tests for the vectorized simulation hot path.

Every rework in the simulation pipeline kept its pre-rework
implementation as a twin under ``tests/_reference/`` (see
CONTRIBUTING.md); these tests pin the contract: the vectorized paths
produce **byte-identical** outputs — same RNG draws, same floats, same
bits — so every experiment, figure and cached artifact is unchanged by
the speedups.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boxes.box import Box2D
from repro.boxes.iou import iou_matrix
from repro.geometry.polygon import (
    convex_polygon_clip,
    convex_polygon_clip_batch,
)
from repro.geometry.se2 import SE2
from repro.pointcloud.distortion import MotionState
from repro.simulation.dataset import DatasetConfig, V2VDatasetSim
from repro.simulation.lidar import LidarConfig, simulate_scan
from repro.simulation.scenario import (
    _compensate_on_grid,
    _visible_objects,
    compensate_self_motion_distortion,
    replace_world_vehicles,
)
from repro.simulation.world import (
    ScenarioKind,
    WorldConfig,
    WorldModel,
    generate_world,
    share_static_geometry,
)

from tests._reference.iou import reference_iou_matrix
from tests._reference.lidar import reference_simulate_scan
from tests._reference.scenario import reference_visible_objects
from tests._reference.world import reference_generate_world

MOTION = MotionState(velocity_x=9.0, velocity_y=0.4, yaw_rate=0.06)
POSE = SE2(0.35, 4.0, -1.5)


def _cloud_bytes(cloud) -> tuple:
    return (cloud.points.tobytes(),
            None if cloud.timestamps is None else cloud.timestamps.tobytes(),
            None if cloud.labels is None else cloud.labels.tobytes())


def _assert_scans_identical(world, pose, config, motion, seed=5):
    new = simulate_scan(world, pose, config,
                        rng=np.random.default_rng(seed), motion=motion)
    ref = reference_simulate_scan(world, pose, config,
                                  rng=np.random.default_rng(seed),
                                  motion=motion)
    assert _cloud_bytes(new) == _cloud_bytes(ref)
    return new


# ----------------------------------------------------------------------
# simulate_scan vs reference_simulate_scan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_simulate_scan_identical_across_kinds(kind):
    world = generate_world(WorldConfig(kind=kind),
                           np.random.default_rng(11))
    cloud = _assert_scans_identical(world, POSE, LidarConfig(), MOTION)
    if kind is not ScenarioKind.OPEN:
        assert len(cloud) > 0


@pytest.mark.parametrize("config", [
    LidarConfig(include_ground=False),
    LidarConfig(dropout=0.0),
    LidarConfig(dropout=0.5),
    LidarConfig(range_noise=0.0),
    LidarConfig(num_channels=40, elevation_min_deg=-22.0,
                elevation_max_deg=18.0, azimuth_steps=1500,
                sensor_height=2.1),
    LidarConfig(max_hits_per_ray=1),
], ids=["no-ground", "no-dropout", "heavy-dropout", "no-noise",
        "heterogeneous-40ch", "single-hit"])
def test_simulate_scan_identical_config_variants(config):
    world = generate_world(WorldConfig(kind=ScenarioKind.SUBURBAN),
                           np.random.default_rng(12))
    _assert_scans_identical(world, POSE, config, MOTION)


def test_simulate_scan_identical_without_motion():
    world = generate_world(WorldConfig(kind=ScenarioKind.URBAN),
                           np.random.default_rng(13))
    _assert_scans_identical(world, POSE, LidarConfig(), None)


def test_simulate_scan_identical_empty_world():
    empty = WorldModel(buildings=(), trees=(), poles=(), vehicles=(),
                       extent=100.0, road=None)
    ground_only = _assert_scans_identical(empty, POSE, LidarConfig(),
                                          MOTION)
    assert len(ground_only) > 0  # descending beams still hit the ground
    nothing = _assert_scans_identical(
        empty, POSE, LidarConfig(include_ground=False), MOTION)
    assert len(nothing) == 0


def test_simulate_scan_identical_with_warm_cache():
    """The lazily cached obstacle arrays change no bytes."""
    world = generate_world(WorldConfig(kind=ScenarioKind.SUBURBAN),
                           np.random.default_rng(14))
    cold = simulate_scan(world, POSE, rng=np.random.default_rng(3))
    warm = simulate_scan(world, POSE, rng=np.random.default_rng(3))
    assert _cloud_bytes(cold) == _cloud_bytes(warm)


# ----------------------------------------------------------------------
# generate_world vs reference_generate_world
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_generate_world_identical(kind):
    config = WorldConfig(kind=kind)
    new = generate_world(config, np.random.default_rng(21))
    ref = reference_generate_world(config, np.random.default_rng(21))
    assert new.buildings == ref.buildings
    assert new.trees == ref.trees
    assert new.poles == ref.poles
    assert new.vehicles == ref.vehicles
    assert new.extent == ref.extent


# ----------------------------------------------------------------------
# _visible_objects vs reference_visible_objects
# ----------------------------------------------------------------------
def test_visible_objects_identical():
    world = generate_world(WorldConfig(kind=ScenarioKind.URBAN),
                           np.random.default_rng(31))
    cloud = simulate_scan(world, POSE, rng=np.random.default_rng(4),
                          motion=MOTION)
    residual = MotionState(velocity_x=2.7, velocity_y=0.12,
                           yaw_rate=0.018)
    for res, exclude in [(None, -1), (residual, -1),
                         (residual, world.vehicles[0].vehicle_id
                          if world.vehicles else -1)]:
        new = _visible_objects(cloud, world.vehicles, POSE, 8, exclude,
                               res, 0.1)
        ref = reference_visible_objects(cloud, world.vehicles, POSE, 8,
                                        exclude, res, 0.1)
        assert new == ref
    assert any(len(_visible_objects(cloud, world.vehicles, POSE, m, -1))
               > 0 for m in (1, 8))


def test_visible_objects_empty_inputs():
    world = generate_world(WorldConfig(kind=ScenarioKind.SUBURBAN),
                           np.random.default_rng(32))
    cloud = simulate_scan(world, POSE, rng=np.random.default_rng(5))
    assert _visible_objects(cloud, (), POSE, 8, -1) == ()
    empty_cloud = simulate_scan(
        WorldModel(buildings=(), trees=(), poles=(), vehicles=(),
                   extent=50.0, road=None),
        POSE, LidarConfig(include_ground=False),
        rng=np.random.default_rng(5))
    assert (_visible_objects(empty_cloud, world.vehicles, POSE, 8, -1)
            == reference_visible_objects(empty_cloud, world.vehicles,
                                         POSE, 8, -1))


# ----------------------------------------------------------------------
# _compensate_on_grid vs the general de-skew routine
# ----------------------------------------------------------------------
def test_compensate_on_grid_identical():
    world = generate_world(WorldConfig(kind=ScenarioKind.SUBURBAN),
                           np.random.default_rng(41))
    for config in (LidarConfig(), LidarConfig(num_channels=40,
                                              azimuth_steps=1500)):
        cloud = simulate_scan(world, POSE, config,
                              rng=np.random.default_rng(6), motion=MOTION)
        grid = _compensate_on_grid(cloud, MOTION, config.scan_duration,
                                   config.azimuth_steps)
        general = compensate_self_motion_distortion(cloud, MOTION,
                                                    config.scan_duration)
        assert _cloud_bytes(grid) == _cloud_bytes(general)


def test_compensate_on_grid_fallback_off_grid():
    """Timestamps off the azimuth grid take the general (exact) path."""
    world = generate_world(WorldConfig(kind=ScenarioKind.SUBURBAN),
                           np.random.default_rng(42))
    cloud = simulate_scan(world, POSE, rng=np.random.default_rng(7),
                          motion=MOTION)
    shifted = type(cloud)(cloud.points, cloud.timestamps * 0.97 + 0.01,
                          cloud.labels)
    grid = _compensate_on_grid(shifted, MOTION, 0.1, 1800)
    general = compensate_self_motion_distortion(shifted, MOTION, 0.1)
    assert _cloud_bytes(grid) == _cloud_bytes(general)


# ----------------------------------------------------------------------
# Batched polygon clipping and the IoU matrix
# ----------------------------------------------------------------------
def _rect(cx, cy, w, h, yaw=0.0):
    return Box2D(cx, cy, w, h, yaw).corners()


def test_polygon_clip_batch_identical_including_degenerate():
    cases = [
        (_rect(0, 0, 4, 2), _rect(1, 0.5, 4, 2, 0.3)),    # overlapping
        (_rect(0, 0, 4, 2), _rect(0, 0, 4, 2)),           # identical
        (_rect(0, 0, 4, 2), _rect(100, 0, 4, 2)),         # disjoint
        (_rect(0, 0, 4, 2), _rect(4.0, 0, 4, 2)),         # edge-touching
        (_rect(0, 0, 8, 8), _rect(0, 0, 2, 2, 0.7)),      # clip inside
        (_rect(0, 0, 2, 2, 0.7), _rect(0, 0, 8, 8)),      # subject inside
        (_rect(0, 0, 4, 2), _rect(2.0, 1.0, 4, 2)),       # corner-touching
    ]
    subjects = np.stack([s for s, _ in cases])
    clips = np.stack([c for _, c in cases])
    verts, counts = convex_polygon_clip_batch(subjects, clips)
    for p, (subject, clip) in enumerate(cases):
        scalar = convex_polygon_clip(subject, clip)
        if len(scalar) < 3:
            assert counts[p] < 3
        else:
            assert np.array_equal(verts[p, :counts[p]], scalar)


def test_iou_matrix_identical():
    rng = np.random.default_rng(51)
    boxes_a = [Box2D(float(rng.uniform(-20, 20)),
                     float(rng.uniform(-20, 20)), 4.6, 1.9,
                     float(rng.uniform(-np.pi, np.pi))) for _ in range(15)]
    boxes_b = [Box2D(float(rng.uniform(-20, 20)),
                     float(rng.uniform(-20, 20)), 4.2, 1.8,
                     float(rng.uniform(-np.pi, np.pi))) for _ in range(12)]
    assert np.array_equal(iou_matrix(boxes_a, boxes_b),
                          reference_iou_matrix(boxes_a, boxes_b))
    # Self-comparison exercises exact-overlap (IoU 1.0) entries.
    assert np.array_equal(iou_matrix(boxes_a, boxes_a),
                          reference_iou_matrix(boxes_a, boxes_a))
    assert iou_matrix([], boxes_b).shape == (0, 12)
    assert iou_matrix(boxes_a, []).shape == (15, 0)


# ----------------------------------------------------------------------
# Cached static geometry: sharing and invalidation contract
# ----------------------------------------------------------------------
def test_static_geometry_cache_contract():
    world = generate_world(WorldConfig(kind=ScenarioKind.SUBURBAN),
                           np.random.default_rng(61))
    geometry = world.static_geometry()
    assert world.static_geometry() is geometry  # built once, reused

    # Vehicle swaps reuse the static tuples, so the cache is shared.
    swapped = replace_world_vehicles(world, world.vehicles[:1])
    assert swapped.static_geometry() is geometry

    # A world with *different* static tuples must not inherit the cache.
    rebuilt = WorldModel(buildings=tuple(list(world.buildings)),
                         trees=world.trees, poles=world.poles,
                         vehicles=world.vehicles, extent=world.extent,
                         road=world.road)
    assert rebuilt.buildings is not world.buildings
    share_static_geometry(world, rebuilt)
    assert rebuilt.static_geometry() is not geometry

    # Sharing before the cache is built still ends up with one build.
    fresh = generate_world(WorldConfig(kind=ScenarioKind.SUBURBAN),
                           np.random.default_rng(62))
    copy = replace_world_vehicles(fresh, ())
    built = copy.static_geometry()
    assert fresh.static_geometry() is built


# ----------------------------------------------------------------------
# Dataset early-rejection screen
# ----------------------------------------------------------------------
def test_dataset_screen_changes_nothing(monkeypatch):
    """The ego-side early-reject skips work, never changes records."""
    config = DatasetConfig(num_pairs=6, seed=2024)

    screened = [V2VDatasetSim(config)[i] for i in range(6)]

    original = V2VDatasetSim._attempt
    monkeypatch.setattr(
        V2VDatasetSim, "_attempt",
        lambda self, index, attempt, min_common=0:
        original(self, index, attempt, 0))
    unscreened = [V2VDatasetSim(config)[i] for i in range(6)]

    for a, b in zip(screened, unscreened):
        assert a.index == b.index
        assert a.selected == b.selected
        assert a.pair.num_common_vehicles == b.pair.num_common_vehicles
        assert _cloud_bytes(a.pair.ego_cloud) == _cloud_bytes(b.pair.ego_cloud)
        assert (_cloud_bytes(a.pair.other_cloud)
                == _cloud_bytes(b.pair.other_cloud))
        assert a.pair.gt_relative == b.pair.gt_relative
