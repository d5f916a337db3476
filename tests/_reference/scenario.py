"""All-pairs visibility test, the twin of ``repro.simulation.scenario``'s
``_visible_objects``.

The pre-rework implementation: every vehicle is tested against every
vehicle-labelled point, with no reach or circumradius prefilter.  The
prefiltered test must return the identical visible set.
"""

from __future__ import annotations

import numpy as np

from repro.boxes.box import Box3D
from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud, PointLabel
from repro.pointcloud.distortion import MotionState
from repro.simulation.scenario import VisibleObject, _distort_box
from repro.simulation.world import SimVehicle


def reference_visible_objects(
        cloud: PointCloud, vehicles: tuple[SimVehicle, ...],
        sensor_pose: SE2, min_points: int, exclude_id: int,
        residual_motion: MotionState | None = None,
        scan_duration: float = 0.1) -> tuple[VisibleObject, ...]:
    """Pre-rework :func:`_visible_objects`: every vehicle tested against
    every vehicle point.

    Kept as the behavioral specification for the reach/circumradius
    prefilters (identical visible set — ``tests/test_sim_equivalence.py``
    enforces this).
    """
    if len(cloud) == 0:
        return ()
    inv = sensor_pose.inverse()
    vehicle_mask = (cloud.labels == int(PointLabel.VEHICLE)
                    if cloud.labels is not None
                    else np.ones(len(cloud), dtype=bool))
    vehicle_points = cloud.points[vehicle_mask]
    visible: list[VisibleObject] = []
    for vehicle in vehicles:
        if vehicle.vehicle_id == exclude_id:
            continue
        local_box = vehicle.box.transform(inv)
        if residual_motion is not None:
            local_box = _distort_box(local_box, residual_motion,
                                     scan_duration)
        if len(vehicle_points) == 0:
            continue
        # Tolerate range noise with a slightly inflated test box.
        test_box = Box3D(local_box.center_x, local_box.center_y,
                         local_box.center_z, local_box.length + 0.4,
                         local_box.width + 0.4, local_box.height + 0.4,
                         local_box.yaw)
        count = int(np.count_nonzero(test_box.contains(vehicle_points)))
        if count >= min_points:
            visible.append(VisibleObject(vehicle.vehicle_id, local_box,
                                         count))
    return tuple(visible)
