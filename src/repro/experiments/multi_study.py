"""Multi-vehicle study — what a pose graph buys over pairwise recovery.

Extension experiments over K-vehicle scenes:

* ``multi`` — one fleet configuration: coverage of *direct* pairwise
  recovery (only the ego's own edges) vs the cycle-gated pose graph
  (which relays through intermediates and fuses redundant edges), plus
  accuracy of resolved poses and the ground-truth-free cycle-residual
  health metric.
* ``multi-grid`` — the same study swept over fleet size x world density
  x sensor degradation.  The headline fact the benchmark gate asserts:
  graph coverage is never below direct coverage, and is *strictly*
  greater for impaired fleets of 5+, where long ego edges fail but
  short relay edges survive.

Scenes are independent, so both runners shard whole scenes over the
fault-tolerant parallel engine (:func:`repro.runtime.engine.\
run_tasks_parallel`): a payload is just the scene's configuration, the
worker regenerates the frame deterministically, and a scene that fails
degrades to one error record instead of aborting the study.  Inside a
scene, each vehicle's stage-1 features are extracted once and shared by
all incident edges through the per-process feature cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multi import MultiVehicleAligner
from repro.detection.simulated import SimulatedDetector
from repro.experiments.registry import ExperimentSpec, register
from repro.obs.metrics import counter
from repro.runtime.cache import get_default_cache
from repro.runtime.engine import TaskError, run_tasks_parallel
from repro.runtime.timings import PAIRS_KEY
from repro.simulation.multi import MultiScenarioConfig, make_multi_frame
from repro.simulation.scenario import ScenarioConfig

__all__ = ["SceneOutcome", "MultiStudyResult", "run_multi_study",
           "format_multi_study", "MultiGridResult", "run_multi_grid",
           "format_multi_grid"]


@dataclass(frozen=True)
class _ScenePayload:
    """Everything a worker needs to regenerate and evaluate one scene."""

    seed: int
    scene: int
    num_vehicles: int
    spacing: float
    density: float
    degradation: int


@dataclass(frozen=True)
class SceneOutcome:
    """Per-scene tallies, summed by the parent into study aggregates.

    Attributes:
        targets: non-ego vehicles in the scene.
        direct_hits: targets whose *direct* ego edge was attempted and
            succeeded (the pairwise-only baseline).
        graph_hits: targets the fused pose graph resolved.
        errors: translation errors of graph-resolved poses (m).
        cycle_translations: pre-gating 3-cycle loop translations (m).
        num_candidate_pairs / num_edges / num_rejected: connectivity
            attempted, edges surviving the cycle gate, edges it threw
            out.
    """

    targets: int
    direct_hits: int
    graph_hits: int
    errors: tuple[float, ...]
    cycle_translations: tuple[float, ...]
    num_candidate_pairs: int
    num_edges: int
    num_rejected: int


# Worker-side collaborators, built once per process and reused across
# every scene the engine hands it (same idiom as the sweep's per-process
# state in repro.experiments.common).
_SCENE_STATE: tuple[MultiVehicleAligner, SimulatedDetector] | None = None


def _scene_state() -> tuple[MultiVehicleAligner, SimulatedDetector]:
    global _SCENE_STATE
    if _SCENE_STATE is None:
        _SCENE_STATE = (MultiVehicleAligner(), SimulatedDetector())
    return _SCENE_STATE


def _evaluate_scene(payload: _ScenePayload) -> SceneOutcome:
    """Generate one K-vehicle frame, align it, and tally coverage.

    Deterministic: the frame regenerates from ``[seed, scene]``, boxes
    from ``[seed, scene, vehicle]`` and alignment from ``[seed, scene,
    99]`` regardless of which process runs the payload — so parallel
    runs reproduce serial runs exactly.
    """
    aligner, detector = _scene_state()
    frame = make_multi_frame(MultiScenarioConfig(
        scenario=ScenarioConfig(same_direction_prob=1.0),
        num_vehicles=payload.num_vehicles, spacing=payload.spacing,
        density=payload.density, degradation=payload.degradation),
        rng=np.random.default_rng([payload.seed, payload.scene]))
    boxes = [[d.box for d in detector.detect(
        visible, np.random.default_rng([payload.seed, payload.scene, i]))]
        for i, visible in enumerate(frame.visible)]
    pairs = frame.candidate_pairs()
    scene_key = ("multi", payload.seed, payload.scene,
                 payload.num_vehicles, payload.spacing, payload.density,
                 payload.degradation)
    result = aligner.align(
        list(frame.clouds), boxes,
        rng=np.random.default_rng([payload.seed, payload.scene, 99]),
        pairs=pairs, cache=get_default_cache(), scene_key=scene_key)
    # The study's unit of work is one candidate-pair recovery.
    counter(PAIRS_KEY).inc(len(result.recoveries))

    targets = direct_hits = graph_hits = 0
    errors: list[float] = []
    for index in range(1, frame.num_vehicles):
        targets += 1
        direct = result.recoveries.get((0, index))
        if direct is not None and direct.success:
            direct_hits += 1
        pose = result.poses[index]
        if pose is not None:
            graph_hits += 1
            errors.append(pose.translation_distance(
                frame.gt_relative(0, index)))
    return SceneOutcome(
        targets=targets, direct_hits=direct_hits, graph_hits=graph_hits,
        errors=tuple(errors),
        cycle_translations=tuple(residual[0] for residual
                                 in result.cycle_residuals),
        num_candidate_pairs=len(pairs), num_edges=len(result.edges),
        num_rejected=len(result.rejected_edges))


@dataclass(frozen=True)
class MultiStudyResult:
    """Aggregates over all scenes of one fleet configuration.

    Attributes:
        direct_coverage: non-ego vehicles whose *direct* ego edge
            succeeded, over all non-ego vehicles — what pairwise-only
            BB-Align delivers.
        graph_coverage: vehicles resolved by the fused pose graph.
        median_error: median translation error of resolved poses (m).
        median_cycle_translation: median 3-cycle loop translation (m).
        num_scenes / vehicles_per_scene: study size.
        density / degradation: the scene knobs this cell ran at.
        targets / direct_hits / graph_hits: the raw integer counts
            behind the coverage fractions (exact-gateable in benches).
        candidate_pairs / kept_edges / rejected_edges: totals across
            scenes — connectivity attempted, edges fused, edges the
            cycle gate threw out.
        scenes_with_cycles: scenes whose measured graph contained at
            least one 3-cycle (so loop closure was checkable).
        scene_errors: scenes that failed outright (engine
            :class:`~repro.runtime.engine.TaskError` records).
    """

    direct_coverage: float
    graph_coverage: float
    median_error: float
    median_cycle_translation: float
    num_scenes: int
    vehicles_per_scene: int
    density: float = 1.0
    degradation: int = 0
    targets: int = 0
    direct_hits: int = 0
    graph_hits: int = 0
    candidate_pairs: int = 0
    kept_edges: int = 0
    rejected_edges: int = 0
    scenes_with_cycles: int = 0
    scene_errors: int = 0


def _aggregate(outcomes: list, num_scenes: int, num_vehicles: int,
               density: float, degradation: int) -> MultiStudyResult:
    good = [o for o in outcomes if not isinstance(o, TaskError)]
    targets = sum(o.targets for o in good)
    direct_hits = sum(o.direct_hits for o in good)
    graph_hits = sum(o.graph_hits for o in good)
    errors = [e for o in good for e in o.errors]
    cycles = [c for o in good for c in o.cycle_translations]
    return MultiStudyResult(
        direct_coverage=direct_hits / max(targets, 1),
        graph_coverage=graph_hits / max(targets, 1),
        median_error=(float(np.median(errors)) if errors
                      else float("nan")),
        median_cycle_translation=(float(np.median(cycles)) if cycles
                                  else float("nan")),
        num_scenes=num_scenes,
        vehicles_per_scene=num_vehicles,
        density=density,
        degradation=degradation,
        targets=targets,
        direct_hits=direct_hits,
        graph_hits=graph_hits,
        candidate_pairs=sum(o.num_candidate_pairs for o in good),
        kept_edges=sum(o.num_edges for o in good),
        rejected_edges=sum(o.num_rejected for o in good),
        scenes_with_cycles=sum(1 for o in good if o.cycle_translations),
        scene_errors=len(outcomes) - len(good),
    )


def run_multi_study(num_pairs: int = 4, seed: int = 2024,
                    num_vehicles: int = 3,
                    spacing: float = 22.0, *,
                    density: float = 2.5, degradation: int = 0,
                    workers: int = 1) -> MultiStudyResult:
    """Run the study (``num_pairs`` = scene count, for CLI uniformity).

    Scenes shard over the parallel engine when ``workers > 1``; results
    are identical to a serial run.  The defaults (22 m spacing, 2.5x
    world density) put consecutive vehicles within reliable pairwise
    range while long ego edges still fail — the regime where the graph
    visibly out-covers direct recovery.
    """
    num_scenes = max(num_pairs, 1)
    payloads = [_ScenePayload(seed, s, num_vehicles, spacing, density,
                              degradation)
                for s in range(num_scenes)]
    outcomes = run_tasks_parallel(_evaluate_scene, payloads,
                                  workers=workers, seed=seed)
    return _aggregate(outcomes, num_scenes, num_vehicles, density,
                      degradation)


def format_multi_study(result: MultiStudyResult) -> str:
    lines = [
        f"Multi-vehicle study (extension) — {result.num_scenes} scenes x "
        f"{result.vehicles_per_scene} vehicles "
        f"(density x{result.density:g}, "
        f"degradation {result.degradation}):",
        f"  direct pairwise coverage: "
        f"{result.direct_coverage * 100:5.1f} % of non-ego vehicles",
        f"  pose-graph coverage:      "
        f"{result.graph_coverage * 100:5.1f} %  (relay through "
        "intermediates)",
        f"  median resolved-pose error: {result.median_error:.2f} m",
        f"  median 3-cycle loop error:  "
        f"{result.median_cycle_translation:.2f} m  (ground-truth-free "
        "consistency check)",
        f"  edges: {result.kept_edges} fused / "
        f"{result.rejected_edges} cycle-rejected / "
        f"{result.candidate_pairs} attempted",
    ]
    if result.scene_errors:
        lines.append(f"  scene errors: {result.scene_errors}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet-scale grid: fleet size x density x degradation.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MultiGridResult:
    """One :class:`MultiStudyResult` per grid cell.

    Attributes:
        cells: per-cell aggregates; each carries its own
            ``vehicles_per_scene`` / ``density`` / ``degradation``.
        spacing: inter-vehicle spacing shared by every cell (m).
        scenes_per_cell: study size per cell.
    """

    cells: tuple[MultiStudyResult, ...]
    spacing: float
    scenes_per_cell: int


def run_multi_grid(num_pairs: int = 3, seed: int = 2024, *,
                   fleet_sizes: tuple[int, ...] = (3, 5),
                   densities: tuple[float, ...] = (1.0, 2.5),
                   degradations: tuple[int, ...] = (0, 1),
                   spacing: float = 22.0,
                   workers: int = 1) -> MultiGridResult:
    """Sweep the multi study over fleet size x density x degradation.

    ``num_pairs`` is the scene count *per cell*.  All cells' scenes go
    through the parallel engine as one flat task list, so workers stay
    busy across cell boundaries.
    """
    scenes = max(num_pairs, 1)
    cell_params = [(k, density, degradation)
                   for k in fleet_sizes
                   for density in densities
                   for degradation in degradations]
    payloads = [_ScenePayload(seed, s, k, spacing, density, degradation)
                for k, density, degradation in cell_params
                for s in range(scenes)]
    outcomes = run_tasks_parallel(_evaluate_scene, payloads,
                                  workers=workers, seed=seed)
    cells = []
    for index, (k, density, degradation) in enumerate(cell_params):
        chunk = outcomes[index * scenes:(index + 1) * scenes]
        cells.append(_aggregate(chunk, scenes, k, density, degradation))
    return MultiGridResult(cells=tuple(cells), spacing=spacing,
                           scenes_per_cell=scenes)


def format_multi_grid(result: MultiGridResult) -> str:
    lines = [
        f"Fleet-scale grid (extension) — {result.scenes_per_cell} "
        f"scenes/cell, spacing {result.spacing:g} m:",
        "  fleet  density  degr   direct   graph    gain  "
        "median err",
    ]
    for cell in result.cells:
        gain = cell.graph_coverage - cell.direct_coverage
        error = (f"{cell.median_error:7.2f} m"
                 if not np.isnan(cell.median_error) else "      — ")
        lines.append(
            f"  {cell.vehicles_per_scene:>5}  x{cell.density:<6g} "
            f"{cell.degradation:>4}  "
            f"{cell.direct_coverage * 100:6.1f} % "
            f"{cell.graph_coverage * 100:6.1f} % "
            f"{gain * 100:+6.1f} %  {error}")
    return "\n".join(lines)


def _multi_cli(parser) -> None:
    parser.add_argument("--vehicles", dest="num_vehicles", type=int,
                        default=None,
                        help="cooperating vehicles per scene "
                             "(default: 3)")
    parser.add_argument("--spacing", dest="spacing", type=float,
                        default=None,
                        help="inter-vehicle spacing in meters "
                             "(default: 22)")
    parser.add_argument("--density", dest="density", type=float,
                        default=None,
                        help="world object-density multiplier "
                             "(default: 2.5)")
    parser.add_argument("--degradation", dest="degradation", type=int,
                        default=None,
                        help="sensor impairment rung 0-2 (default: 0)")


register(ExperimentSpec(
    name="multi", runner=run_multi_study, formatter=format_multi_study,
    description="multi-vehicle pose-graph alignment (extension)",
    paper_artifact="extension", parallelizable=True,
    cli_options=_multi_cli,
    cli_option_dests=("num_vehicles", "spacing", "density",
                      "degradation")))

register(ExperimentSpec(
    name="multi-grid", runner=run_multi_grid,
    formatter=format_multi_grid,
    description="fleet size x density x degradation pose-graph grid",
    paper_artifact="extension", parallelizable=True))
