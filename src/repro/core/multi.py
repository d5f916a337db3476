"""Multi-vehicle pose recovery: pairwise BB-Align + robust pose graph.

BB-Align is pairwise; with K cooperating vehicles the pairwise
recoveries form a *pose graph* whose redundancy buys three things the
paper's two-vehicle setting cannot have:

* **relay** — if the direct recovery ego<->k fails (little overlap), k
  is still reachable through an intermediate vehicle;
* **adjudication** — cycles in the graph measure recovery error without
  ground truth (a loop composition should be the identity), and
  triangle voting rejects a corrupted pairwise estimate a third car
  disputes (:func:`repro.core.pose_graph.cycle_gate`);
* **fusion** — the surviving edges are fused by inlier-weighted robust
  least squares (Gauss-Newton with Huber weights,
  :func:`repro.core.pose_graph.optimize_pose_graph`), so every edge's
  evidence sharpens every pose instead of one spanning-tree path
  deciding each.

:class:`MultiVehicleAligner` extracts each vehicle's stage-1 features
exactly once (optionally through a :class:`~repro.runtime.cache.\
FeatureCache`, so consecutive frames or repeated scenes skip
re-extraction), runs pairwise :meth:`~repro.core.pipeline.BBAlign.\
recover` over a caller-supplied connectivity graph (all pairs by
default), and fuses the successful edges.  The extractions, then the
edges, run on the process's cores through
:func:`repro.runtime.fanout.fan_out`: no item reads another's state,
each edge draws its own ``[root, i, j]`` stream, and edge outcomes are
settled in candidate order (:meth:`~repro.core.pipeline.BBAlign.\
recover_many`), so every output is bit-identical to the serial run.
An *incremental* mode
(``incremental=True``) warm-starts from the previous call's graph and
only re-solves connected components whose edges changed — on an
unchanged graph the fused poses are returned without running a single
Gauss-Newton iteration, bit-identical to a full solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bv_matching import BVFeatures
from repro.core.config import BBAlignConfig
from repro.core.pipeline import BBAlign
from repro.core.pose_graph import (
    CycleGateResult,
    PoseGraphConfig,
    PoseGraphEdge,
    PoseGraphSolution,
    connected_components,
    cycle_gate,
    solve_incremental,
)
from repro.core.result import PoseRecoveryResult
from repro.geometry.se2 import SE2
from repro.runtime.cache import FeatureCache, extraction_fingerprint, scan_key
from repro.runtime.fanout import fan_out
from repro.runtime.timings import stage

__all__ = ["PairwiseEdge", "MultiAlignment", "MultiVehicleAligner"]

#: A successful pairwise recovery *is* a pose-graph edge; the historical
#: name remains importable.
PairwiseEdge = PoseGraphEdge


@dataclass(frozen=True)
class MultiAlignment:
    """K-vehicle alignment result.

    Attributes:
        poses: per-vehicle pose in the ego (vehicle-0) frame; ``None``
            where the vehicle is unreachable from the ego through
            surviving edges.
        edges: edges that survived cycle gating and fed the solve.
        rejected_edges: edges cycle gating threw out.
        recoveries: every attempted pairwise result, keyed ``(target,
            source)``, for diagnostics.
        cycle_residuals: per-3-cycle loop errors *before* gating
            (translation meters, rotation degrees) — a ground-truth-free
            health metric.
        edge_residuals: per undirected pair, the post-optimization
            scaled residual norm.
        solution: the raw :class:`~repro.core.pose_graph.\
PoseGraphSolution` (component gauges; feed it back for incremental
            re-solves).
    """

    poses: tuple[SE2 | None, ...]
    edges: tuple[PoseGraphEdge, ...]
    recoveries: dict[tuple[int, int], PoseRecoveryResult]
    cycle_residuals: tuple[tuple[float, float], ...]
    rejected_edges: tuple[PoseGraphEdge, ...] = ()
    edge_residuals: dict[tuple[int, int], float] = field(
        default_factory=dict)
    solution: PoseGraphSolution | None = None


class MultiVehicleAligner:
    """Pairwise BB-Align + cycle-gated robust pose-graph fusion.

    :meth:`align` fans a frame's per-vehicle extractions and then its
    pairwise edges out over the process's cores (serially in pool-worker
    processes and on one CPU); poses, recoveries, residuals and the
    aligner's last-good pose equal those of the serial loop.
    """

    def __init__(self, config: BBAlignConfig | None = None,
                 graph: PoseGraphConfig | None = None) -> None:
        self.aligner = BBAlign(config)
        self.graph_config = graph or PoseGraphConfig()
        self._previous: PoseGraphSolution | None = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the previous graph (e.g. when the fleet changes)."""
        self._previous = None

    # ------------------------------------------------------------------
    def _features(self, clouds,
                  cache: FeatureCache | None) -> list[BVFeatures]:
        """Stage-1 features, one extraction per vehicle.

        With a cache, each vehicle's features are keyed by
        :func:`~repro.runtime.cache.scan_key` — the incident edges of a
        vehicle share one extraction, and repeated scenes (worker
        processes revisiting a frame, incremental re-alignment of an
        unchanged fleet, a sweep that already extracted the scan) skip
        extraction entirely.  Each extraction is one ``bv_extract``
        stage.
        """
        def extract(cloud) -> BVFeatures:
            with stage(None, "bv_extract"):
                return self.aligner.extract_features(cloud)

        if cache is None:
            return list(fan_out(extract, clouds))
        fingerprint = extraction_fingerprint(self.aligner.config)
        keys = [scan_key(cloud, fingerprint) for cloud in clouds]
        # Extract what the cache lacks now side by side (each distinct
        # scan once), then replay the loop's get/put order, so hits,
        # misses and evictions are the loop's.  A key an earlier put
        # evicts is extracted inline.
        missing = [keys.index(key) for key in dict.fromkeys(keys)
                   if key not in cache]
        fresh = fan_out(extract, [clouds[index] for index in missing])
        features: list[BVFeatures] = []
        for index, key in enumerate(keys):
            cached = cache.get(key)
            if cached is None:
                cached = (next(fresh) if index in missing
                          else extract(clouds[index]))
                cache.put(key, cached)
            features.append(cached)
        return features

    @staticmethod
    def _normalize_pairs(k: int, pairs) -> list[tuple[int, int]]:
        if pairs is None:
            return [(i, j) for i in range(k) for j in range(i + 1, k)]
        normalized: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for i, j in pairs:
            if not (0 <= i < k and 0 <= j < k) or i == j:
                raise ValueError(f"invalid pair ({i}, {j}) for {k} "
                                 "vehicles")
            key = (min(i, j), max(i, j))
            if key not in seen:
                seen.add(key)
                normalized.append(key)
        return normalized

    # ------------------------------------------------------------------
    def align(self, clouds, boxes_per_vehicle,
              rng: np.random.Generator | int | None = None, *,
              pairs=None, cache: FeatureCache | None = None,
              incremental: bool = False) -> MultiAlignment:
        """Align K vehicles into the ego (index 0) frame.

        Args:
            clouds: K point clouds, each in its vehicle's own frame.
            boxes_per_vehicle: K lists of detected boxes (own frames).
            rng: randomness for the RANSAC stages.  Per-pair streams
                spawn as ``[root, i, j]`` from one root draw, so which
                *subset* of pairs runs does not perturb any pair's
                stream.
            pairs: candidate connectivity — iterable of ``(i, j)``
                vehicle index pairs to attempt (e.g. from
                :meth:`repro.simulation.multi.MultiFrame.\
candidate_pairs`).  ``None`` attempts every pair.
            cache: optional feature cache; see :meth:`_features`.
            incremental: warm-start from the previous call's solved
                graph, re-solving only components whose edge sets
                changed (see :func:`~repro.core.pose_graph.\
solve_incremental`).

        Returns:
            A :class:`MultiAlignment`.
        """
        k = len(clouds)
        if len(boxes_per_vehicle) != k:
            raise ValueError("need one box list per vehicle")
        if k < 2:
            raise ValueError("need at least two vehicles")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        candidate_pairs = self._normalize_pairs(k, pairs)

        features = self._features(clouds, cache)

        # One root draw keeps per-pair streams subset-stable: a sparser
        # connectivity graph replays the exact streams the full graph
        # would hand the same pairs.
        root = int(rng.integers(0, 2 ** 31))
        results = self.aligner.recover_many(
            (features[i], features[j], boxes_per_vehicle[i],
             boxes_per_vehicle[j], np.random.default_rng([root, i, j]))
            for i, j in candidate_pairs)
        recoveries: dict[tuple[int, int], PoseRecoveryResult] = {}
        measured: list[PoseGraphEdge] = []
        for (i, j), result in zip(candidate_pairs, results):
            recoveries[(i, j)] = result
            if result.success:
                weight = float(result.inliers_bv + result.inliers_box)
                measured.append(PoseGraphEdge(i, j, result.transform,
                                              weight))

        poses, gate, solution = self.fuse(k, measured,
                                          incremental=incremental)
        return MultiAlignment(poses=poses, edges=gate.kept,
                              recoveries=recoveries,
                              cycle_residuals=gate.cycle_residuals,
                              rejected_edges=gate.rejected,
                              edge_residuals=dict(
                                  solution.edge_residuals),
                              solution=solution)

    # ------------------------------------------------------------------
    def fuse(self, num_vehicles: int, edges, *,
             incremental: bool = False,
             ) -> tuple[tuple[SE2 | None, ...], CycleGateResult,
                        PoseGraphSolution]:
        """Gate, solve and re-base measured edges into the ego frame.

        The three-step pipeline behind :meth:`align`, exposed for
        callers that already hold pairwise measurements: triangle-vote
        gating, robust per-component Gauss-Newton, then re-basing the
        ego's component so vehicle 0 is the identity.  Vehicles outside
        the ego's component have a pose only in their own component's
        gauge — unrecoverable into the ego frame, so they map to
        ``None``.

        Updates (and in incremental mode consumes) the aligner's
        previous-solution memory.
        """
        gate = cycle_gate(edges, self.graph_config)
        previous = self._previous if incremental else None
        solution = solve_incremental(num_vehicles, gate.kept, previous,
                                     self.graph_config)
        self._previous = solution

        ego_component: set[int] = {0}
        for component in connected_components(num_vehicles, gate.kept):
            if 0 in component:
                ego_component = set(component)
                break
        ego_pose = solution.poses[0]
        poses: list[SE2 | None] = [None] * num_vehicles
        poses[0] = SE2.identity()
        if ego_pose is not None:
            base = ego_pose.inverse()
            for node in ego_component:
                node_pose = solution.poses[node]
                if node != 0 and node_pose is not None:
                    poses[node] = base @ node_pose
        return tuple(poses), gate, solution
