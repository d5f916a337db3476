"""Tests for repro.simulation.sequence."""

import numpy as np
import pytest

from repro.simulation.scenario import ScenarioConfig
from repro.simulation.sequence import DriveSequence, SequenceConfig


@pytest.fixture(scope="module")
def short_sequence():
    config = SequenceConfig(
        scenario=ScenarioConfig(distance=25.0, same_direction_prob=1.0),
        num_frames=4, frame_dt=0.2)
    return list(DriveSequence(config, rng=9))


class TestSequenceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SequenceConfig(num_frames=0)
        with pytest.raises(ValueError):
            SequenceConfig(frame_dt=0.0)


class TestDriveSequence:
    def test_produces_requested_frames(self, short_sequence):
        assert len(short_sequence) == 4

    def test_vehicles_advance_along_road(self, short_sequence):
        positions = np.array([[f.ego_pose.tx, f.ego_pose.ty]
                              for f in short_sequence])
        steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        # Speed range is 3-14 m/s at dt = 0.2 s.
        assert np.all(steps > 0.3)
        assert np.all(steps < 3.5)

    def test_same_direction_distance_roughly_constant(self, short_sequence):
        distances = [f.distance for f in short_sequence]
        assert max(distances) - min(distances) < 8.0

    def test_gt_relative_consistent_each_frame(self, short_sequence):
        for frame in short_sequence:
            expected = frame.ego_pose.inverse() @ frame.other_pose
            assert frame.gt_relative.is_close(expected,
                                              atol_translation=1e-9)

    def test_static_world_structure_constant(self, short_sequence):
        first = short_sequence[0].world
        last = short_sequence[-1].world
        assert first.buildings == last.buildings
        assert first.trees == last.trees

    def test_moving_traffic_advances(self):
        config = SequenceConfig(
            scenario=ScenarioConfig(distance=20.0), num_frames=3,
            frame_dt=0.5)
        seq = DriveSequence(config, rng=4)
        frames = list(seq)
        moving_first = {v.vehicle_id: v.box.center
                        for v in frames[0].world.vehicles if v.is_moving}
        moving_last = {v.vehicle_id: v.box.center
                       for v in frames[-1].world.vehicles if v.is_moving}
        common = set(moving_first) & set(moving_last)
        if common:
            moved = [np.linalg.norm(moving_last[i] - moving_first[i])
                     for i in common]
            assert max(moved) > 1.0

    def test_exhaustion(self):
        seq = DriveSequence(SequenceConfig(num_frames=1), rng=1)
        seq.next_frame()
        with pytest.raises(StopIteration):
            seq.next_frame()

    def test_deterministic(self):
        config = SequenceConfig(num_frames=2)
        a = list(DriveSequence(config, rng=7))
        b = list(DriveSequence(config, rng=7))
        for fa, fb in zip(a, b):
            assert fa.gt_relative.is_close(fb.gt_relative)
