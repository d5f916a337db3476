"""Fault-injection tests for the engine's retry ladder.

Each test injects one of the three :class:`WorkerFault` kinds and
asserts the blast radius the engine promises: a raising pair degrades to
one error record, a killed or hung worker degrades to *nothing* (the
chunk retries clean on a fresh pool), and even a chunk that fails every
rung yields error records instead of an exception.
"""

import pytest

from repro.experiments.common import (
    PairErrorOutcome,
    PairOutcome,
    default_dataset,
    run_pose_recovery_sweep,
)
from repro.runtime.engine import run_sweep_parallel, shutdown_pool
from repro.runtime.faults import InjectedFault, WorkerFault
from repro.runtime.timings import SweepTimings
from repro.simulation.dataset import DatasetConfig

NUM_PAIRS = 6
DATASET = DatasetConfig(num_pairs=NUM_PAIRS, seed=2024)


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test gets (and leaves behind) a clean pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def sweep(fault=None, chunk_timeout=None, workers=2, timings=None):
    return run_sweep_parallel(
        DATASET, num_pairs=NUM_PAIRS, include_vips=False, seed=7,
        workers=workers, chunk_size=2, fault=fault,
        chunk_timeout=chunk_timeout, timings=timings)


@pytest.fixture(scope="module")
def clean_outcomes():
    result = run_sweep_parallel(DATASET, num_pairs=NUM_PAIRS,
                                include_vips=False, seed=7, workers=2,
                                chunk_size=2)
    shutdown_pool()
    return result


class TestWorkerFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            WorkerFault("explode", (0,))

    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_process_faults_require_once_dir(self, kind):
        with pytest.raises(ValueError, match="once_dir"):
            WorkerFault(kind, (0,))

    def test_fire_once_claims_exactly_once(self, tmp_path):
        fault = WorkerFault("raise", (4,), once_dir=str(tmp_path))
        with pytest.raises(InjectedFault):
            fault.maybe_fire(4)
        fault.maybe_fire(4)  # claimed: second evaluation runs clean
        fault.maybe_fire(0)  # untargeted index never fires


class TestRaiseFault:
    def test_one_error_record_others_untouched(self, clean_outcomes):
        fault = WorkerFault("raise", (2,))
        timings = SweepTimings()
        outcomes = sweep(fault=fault, timings=timings)
        assert len(outcomes) == NUM_PAIRS
        assert timings.registry.counter("engine/pair_errors").value == 1
        error = outcomes[2]
        assert isinstance(error, PairErrorOutcome)
        assert error.index == 2
        assert error.error_type == "InjectedFault"
        assert not error.success
        assert error.failure_reason == "evaluation-error"
        for i in range(NUM_PAIRS):
            if i != 2:
                assert outcomes[i] == clean_outcomes[i]


class TestKillFault:
    def test_killed_worker_degrades_nothing(self, tmp_path, clean_outcomes):
        """SIGKILL mid-chunk breaks the pool; the retry on a fresh pool
        must recover *every* pair — the acceptance scenario."""
        fault = WorkerFault("kill", (3,), once_dir=str(tmp_path))
        outcomes = sweep(fault=fault)
        assert outcomes == clean_outcomes
        assert (tmp_path / "fault-kill-3.fired").exists()


class TestHangFault:
    def test_hung_chunk_times_out_and_recovers(self, tmp_path,
                                               clean_outcomes):
        fault = WorkerFault("hang", (1,), once_dir=str(tmp_path),
                            hang_seconds=5.0)
        outcomes = sweep(fault=fault, chunk_timeout=3.0)
        assert outcomes == clean_outcomes


class TestSerialErrorCapture:
    def test_serial_sweep_captures_pair_exception(self, monkeypatch):
        from repro.experiments import common

        real = common.evaluate_pair

        def flaky(record, *args, **kwargs):
            if record.index == 1:
                raise RuntimeError("flaky pair (test)")
            return real(record, *args, **kwargs)

        monkeypatch.setattr(common, "evaluate_pair", flaky)
        timings = SweepTimings()
        outcomes = run_pose_recovery_sweep(default_dataset(3, seed=11),
                                           include_vips=False, workers=1,
                                           cache=False, timings=timings)
        assert len(outcomes) == 3
        assert timings.registry.counter("engine/pair_errors").value == 1
        assert isinstance(outcomes[0], PairOutcome)
        assert isinstance(outcomes[1], PairErrorOutcome)
        assert outcomes[1].error_type == "RuntimeError"
        assert isinstance(outcomes[2], PairOutcome)
