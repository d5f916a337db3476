"""Tests for the parallel sweep engine (repro.runtime.engine)."""

import warnings

import pytest

from repro.experiments import common
from repro.experiments.common import default_dataset, run_pose_recovery_sweep
from repro.experiments.multi_study import run_multi_study
from repro.runtime import engine
from repro.runtime.engine import (
    PoolUnavailableError,
    chunk_indices,
    resolve_workers,
)
from repro.runtime.faults import WorkerFault
from repro.runtime.retry import RetryPolicy
from repro.runtime.timings import SweepTimings, collect_timings
from repro.simulation.dataset import DatasetConfig


def _refuse_pool(workers):
    raise PoolUnavailableError("pool refused (test)")


class TestChunking:
    def test_chunks_cover_all_indices_contiguously(self):
        chunks = chunk_indices(10, workers=3)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(10))

    def test_explicit_chunk_size(self):
        chunks = chunk_indices(7, workers=2, chunk_size=3)
        assert chunks == [(0, 1, 2), (3, 4, 5), (6,)]

    def test_empty_dataset(self):
        assert chunk_indices(0, workers=4) == []

    def test_default_targets_four_chunks_per_worker(self):
        chunks = chunk_indices(80, workers=2)
        assert len(chunks) == 8

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1


class TestParallelDeterminism:
    def test_parallel_matches_serial(self):
        """workers=4 must produce byte-identical outcomes to workers=1."""
        dataset = default_dataset(6, seed=11)
        serial = run_pose_recovery_sweep(dataset, include_vips=True,
                                         workers=1, cache=False)
        parallel = run_pose_recovery_sweep(dataset, include_vips=True,
                                           workers=4)
        assert serial == parallel

    def test_parallel_records_timings(self):
        timings = SweepTimings()
        dataset = default_dataset(4, seed=12)
        outcomes = run_pose_recovery_sweep(dataset, include_vips=False,
                                           workers=2, timings=timings)
        assert len(outcomes) == 4
        assert timings.pairs == 4
        assert timings.workers == 2
        assert timings.wall_seconds > 0
        assert timings.seconds.get("bv_extract", 0) > 0


class TestSweepState:
    def test_longer_dataset_rebuilds_the_state(self):
        """The per-process sweep state is keyed on the whole dataset
        config: after a 1-pair sweep, a 3-pair sweep of the same seed
        evaluates all three pairs instead of reading them out of the
        1-pair dataset."""
        def sweep(num_pairs):
            return common.run_sweep_parallel(
                DatasetConfig(num_pairs=num_pairs, seed=5),
                num_pairs=num_pairs, workers=1, include_vips=False)

        short = sweep(1)
        longer = sweep(3)
        assert all(isinstance(o, common.PairOutcome) for o in longer)
        assert [o.index for o in longer] == [0, 1, 2]
        assert longer[0] == short[0]


class TestFallback:
    def test_falls_back_to_serial_when_pool_unavailable(self, monkeypatch):
        monkeypatch.setattr(engine, "_get_pool", _refuse_pool)
        dataset = default_dataset(3, seed=13)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = run_pose_recovery_sweep(dataset, include_vips=False,
                                               workers=4, cache=False)
        assert len(outcomes) == 3
        assert any("falling back" in str(w.message) for w in caught)
        reference = run_pose_recovery_sweep(dataset, include_vips=False,
                                            workers=1, cache=False)
        assert outcomes == reference

    def test_single_pair_dataset_stays_serial(self, monkeypatch):
        def must_not_run(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("pool path taken for 1-pair dataset")

        monkeypatch.setattr(common, "run_tasks_parallel", must_not_run)
        dataset = default_dataset(1, seed=14)
        outcomes = run_pose_recovery_sweep(dataset, include_vips=False,
                                           workers=4, cache=False)
        assert len(outcomes) == 1

    def test_task_map_falls_back_when_pool_unavailable(self, monkeypatch):
        monkeypatch.setattr(engine, "_get_pool", _refuse_pool)
        sleeps = []
        monkeypatch.setattr(engine.time, "sleep", sleeps.append)
        items = list(range(5))
        timings = SweepTimings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = engine.run_tasks_parallel(
                _square, items, workers=2, timings=timings,
                retry=RetryPolicy(attempts=3, base_delay=0.5))
        assert out == engine.run_tasks_parallel(_square, items, workers=1)
        assert any("falling back" in str(w.message) for w in caught)
        assert timings.registry.counter("engine/serial_fallbacks").value \
            == len(chunk_indices(len(items), 2))
        # Straight to the in-process rung: no retry rung, no backoff.
        assert timings.registry.counter("engine/chunk_retries").value == 0
        assert sleeps == []

    def test_retry_rung_without_pool_ends_the_climb(self, monkeypatch,
                                                    tmp_path):
        """A chunk kills its worker; the first retry rung's pool cannot
        start, so the chunks go in-process without a second rung."""
        real_get_pool = engine._get_pool
        requests = []

        def first_pool_only(workers):
            requests.append(workers)
            if len(requests) > 1:
                raise PoolUnavailableError("pool refused (test)")
            return real_get_pool(workers)

        monkeypatch.setattr(engine, "_get_pool", first_pool_only)
        fault = WorkerFault("kill", (1,), once_dir=str(tmp_path))
        items = [(fault, x) for x in range(4)]
        timings = SweepTimings()
        out = engine.run_tasks_parallel(
            _square_after_fault, items, workers=2, chunk_size=2,
            timings=timings, retry=RetryPolicy(attempts=3))
        engine.shutdown_pool()
        assert out == [x * x for x in range(4)]
        assert len(requests) == 2  # the first pool, then one retry rung
        counters = timings.registry.counters
        assert counters["engine/serial_fallbacks"].value \
            == counters["engine/chunk_retries"].value >= 1


def _square(x):
    return x * x


def _square_after_fault(item):
    fault, x = item
    fault.maybe_fire(x)
    return x * x


def _increment_positive(x):
    if x < 0:
        raise ValueError(f"bad item {x}")
    return x + 1


class TestTasksParallel:
    def test_serial_path_matches_comprehension(self):
        items = list(range(7))
        assert engine.run_tasks_parallel(_square, items, workers=1) \
            == [x * x for x in items]

    def test_pool_matches_serial(self):
        items = list(range(9))
        serial = engine.run_tasks_parallel(_square, items, workers=1)
        parallel = engine.run_tasks_parallel(_square, items, workers=3)
        engine.shutdown_pool()
        assert parallel == serial

    def test_item_error_degrades_not_aborts(self):
        out = engine.run_tasks_parallel(_increment_positive, [1, -2, 3],
                                        workers=1)
        assert out[0] == 2 and out[2] == 4
        assert isinstance(out[1], engine.TaskError)
        assert out[1].index == 1
        assert out[1].error_type == "ValueError"

    def test_pool_item_error_in_slot(self):
        out = engine.run_tasks_parallel(_increment_positive,
                                        [5, -1, 6, 7], workers=2)
        engine.shutdown_pool()
        assert [r for r in out if not isinstance(r, engine.TaskError)] \
            == [6, 7, 8]
        assert isinstance(out[1], engine.TaskError)

    def test_empty_items(self):
        assert engine.run_tasks_parallel(_square, [], workers=4) == []

    def test_timings_count_task_errors(self):
        timings = SweepTimings()
        engine.run_tasks_parallel(_increment_positive, [1, -2, -3],
                                  workers=2, timings=timings)
        engine.shutdown_pool()
        assert timings.registry.counter("engine/task_errors").value == 2

    def test_in_process_timings_count_task_errors(self):
        timings = SweepTimings()
        engine.run_tasks_parallel(_increment_positive, [1, -2, -3],
                                  workers=1, timings=timings)
        assert timings.registry.counter("engine/task_errors").value == 2

    def test_ambient_timings_equal_across_worker_counts(self):
        """A generic map's worker telemetry reaches the ambient
        accumulator, and the same telemetry at every worker count."""
        counts = []
        for workers in (1, 2):
            with collect_timings() as timings:
                run_multi_study(2, workers=workers)
            engine.shutdown_pool()
            counters = timings.registry.counters
            counts.append({name: counters[name].value
                           for name in ("pipeline/recoveries",
                                        "stage1/matches")})
        assert counts[0] == counts[1]
        assert all(value > 0 for value in counts[0].values())
