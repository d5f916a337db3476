"""Tests for the observability layer (repro.obs) and its integration
with the sweep engine: registry merge semantics, span nesting (in one
process and across the pool boundary), trace export, chunk-keyed
telemetry dedupe, and the byte-identical traced-vs-untraced contract.
"""

import dataclasses
import json
import os
import signal

import pytest

from repro.experiments.common import (
    PairOutcome,
    default_dataset,
    run_pose_recovery_sweep,
)
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    JsonlExporter,
    MetricsRegistry,
    collect_spans,
    counter,
    gauge,
    histogram,
    span,
    trace_session,
    use_registry,
)
from repro.runtime.engine import run_sweep_parallel, shutdown_pool
from repro.runtime.faults import WorkerFault
from repro.runtime.timings import SweepTimings, collect_timings, stage
from repro.simulation.dataset import DatasetConfig, V2VDatasetSim


@pytest.fixture(autouse=True)
def fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


@dataclasses.dataclass(frozen=True)
class DoubleKillFault:
    """Kills the worker evaluating ``index`` twice (first pool attempt
    and the retry pool), never the parent — forcing a chunk all the way
    down to the in-process serial fallback.  Same claim-by-sentinel
    protocol as :class:`WorkerFault`, with a two-firing budget.
    """

    index: int
    once_dir: str
    parent_pid: int

    def maybe_fire(self, index):
        if index != self.index or os.getpid() == self.parent_pid:
            return
        for firing in range(2):
            sentinel = os.path.join(self.once_dir, f"kill-{firing}.fired")
            try:
                with open(sentinel, "x"):
                    pass
            except FileExistsError:
                continue
            os.kill(os.getpid(), signal.SIGKILL)


class TestRegistry:
    def test_counter_and_histogram_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.histogram("h").observe(2.0)
        registry.histogram("h").observe(1.0)
        assert registry.counter("a").value == 5
        h = registry.histogram("h")
        assert (h.count, h.total, h.min, h.max) == (2, 3.0, 1.0, 2.0)
        assert h.mean == pytest.approx(1.5)

    def test_snapshot_roundtrip_and_merge(self):
        source = MetricsRegistry()
        source.counter("c").inc(3)
        source.histogram("h").observe(1.5)
        snapshot = source.snapshot()
        # Snapshots must survive the pickle-ish JSON boundary the chunk
        # protocol implies.
        snapshot = json.loads(json.dumps(snapshot))
        target = MetricsRegistry()
        target.merge_snapshot(snapshot)
        target.merge_snapshot(snapshot)
        assert target.counter("c").value == 6
        assert target.histogram("h").count == 2
        target.merge_snapshot(snapshot, sign=-1)
        assert target.counter("c").value == 3
        assert target.histogram("h").count == 1

    def test_empty_histogram_serializes_min_max_as_none(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        data = registry.snapshot()["histograms"]["h"]
        assert data["min"] is None and data["max"] is None

    def test_module_helpers_are_noop_without_registry(self):
        counter("nowhere").inc()
        histogram("nowhere").observe(1.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            counter("somewhere").inc()
        assert "nowhere" not in registry.counters
        assert registry.counter("somewhere").value == 1

    def test_noop_instruments_allocate_nothing(self):
        assert counter("a") is counter("b")
        assert histogram("a") is histogram("b")
        assert gauge("a") is gauge("b")


class TestGauge:
    def test_level_tracking_and_high_water(self):
        g = Gauge("depth")
        g.set(3)
        g.inc(2)
        g.dec(4)
        assert g.value == 1.0
        assert g.high_water == 5.0
        g.set(0)
        assert g.high_water == 5.0  # the mark never shrinks

    def test_merge_adds_levels_and_widens_high_water(self):
        """Gauges partitioned across contributors merge additively:
        two workers each holding 3 in-flight requests total 6."""
        source = MetricsRegistry()
        source.gauge("in_flight").set(3)
        target = MetricsRegistry()
        target.gauge("in_flight").set(3)
        snapshot = json.loads(json.dumps(source.snapshot()))
        target.merge_snapshot(snapshot)
        assert target.gauge("in_flight").value == 6.0
        assert target.gauge("in_flight").high_water == 6.0

    def test_unmerge_restores_the_level_not_the_mark(self):
        """sign=-1 un-merge is exact for the level (the chunk-keyed
        dedupe contract) while the high-water mark survives — a retried
        chunk's peak really happened."""
        source = MetricsRegistry()
        source.gauge("queue").set(4)
        snapshot = source.snapshot()
        target = MetricsRegistry()
        target.gauge("queue").set(1)
        target.merge_snapshot(snapshot)
        assert target.gauge("queue").value == 5.0
        target.merge_snapshot(snapshot, sign=-1)
        assert target.gauge("queue").value == 1.0
        assert target.gauge("queue").high_water == 5.0
        # Re-merge (the dedupe ladder's replace step) lands back at 5.
        target.merge_snapshot(snapshot)
        assert target.gauge("queue").value == 5.0
        assert target.gauge("queue").high_water == 5.0

    def test_gauge_module_helper_uses_active_registry(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            gauge("live").set(7)
        assert registry.gauge("live").value == 7.0
        gauge("live").set(99)  # no active registry: a no-op sink
        assert registry.gauge("live").value == 7.0


class TestSpans:
    def test_span_disabled_yields_none(self):
        with span("outside") as handle:
            assert handle is None

    def test_nesting_and_parent_linkage(self):
        with collect_spans() as collector:
            with span("outer", kind="test"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        events = {event["name"]: event for event in collector.events}
        assert set(events) == {"outer", "inner", "inner2"}
        assert events["outer"]["parent_id"] is None
        assert events["inner"]["parent_id"] == events["outer"]["span_id"]
        assert events["inner2"]["parent_id"] == events["outer"]["span_id"]
        assert events["outer"]["attrs"] == {"kind": "test"}
        # Children close before parents, so they appear first.
        assert [e["name"] for e in collector.events][-1] == "outer"

    def test_root_parent_seeds_linkage(self):
        with collect_spans(root_parent="123:9") as collector:
            with span("child"):
                pass
        assert collector.events[0]["parent_id"] == "123:9"

    def test_span_observes_registry_histogram(self):
        registry = MetricsRegistry()
        with use_registry(registry), collect_spans():
            with span("timed"):
                pass
        assert registry.histogram("span/timed/seconds").count == 1

    def test_stage_records_span_and_timings(self):
        timings = SweepTimings()
        with collect_spans() as collector:
            with stage(timings, "bv_extract"):
                pass
        assert [e["name"] for e in collector.events] == ["bv_extract"]
        assert timings.stage_count("bv_extract") == 1


class TestExport:
    def test_trace_session_writes_meta_spans_metrics(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with trace_session(path, command="test", pairs=0):
            with span("hello", index=3):
                counter("things").inc()
        events = [json.loads(line) for line in path.open()]
        assert [e["type"] for e in events] == ["meta", "span", "metrics"]
        meta, span_event, metrics = events
        assert meta["schema_version"] == 1
        assert meta["command"] == "test"
        assert span_event["name"] == "hello"
        assert span_event["attrs"] == {"index": 3}
        assert span_event["wall_s"] >= 0
        assert metrics["counters"]["things"] == 1
        assert metrics["wall_s"] > 0

    def test_exporter_requires_open(self, tmp_path):
        exporter = JsonlExporter(tmp_path / "x.jsonl")
        with pytest.raises(RuntimeError):
            exporter.write({"type": "span"})


class TestSweepIntegration:
    NUM_PAIRS = 4
    DATASET = DatasetConfig(num_pairs=4, seed=31)

    def _sweep(self, **kwargs):
        kwargs.setdefault("chunk_size", 2)
        kwargs.setdefault("workers", 2)
        return run_sweep_parallel(self.DATASET, num_pairs=self.NUM_PAIRS,
                                  include_vips=False, seed=7, **kwargs)

    def _serial_sweep(self, **kwargs):
        return run_pose_recovery_sweep(
            V2VDatasetSim(self.DATASET), include_vips=False, seed=7,
            workers=1, cache=False, **kwargs)

    def test_traced_sweep_byte_identical(self):
        """The observability acceptance contract: tracing must not
        perturb a single field of a seeded sweep's outcomes."""
        dataset = default_dataset(6, seed=2024)
        plain = run_pose_recovery_sweep(dataset, include_vips=True,
                                        cache=False)
        with collect_timings(), collect_spans(), \
                use_registry(MetricsRegistry()):
            traced = run_pose_recovery_sweep(dataset, include_vips=True,
                                             cache=False)
        assert plain == traced

    def test_worker_spans_nest_under_parent_sweep_span(self):
        with collect_spans() as collector:
            outcomes = self._sweep()
        assert len(outcomes) == self.NUM_PAIRS
        events = collector.events
        sweeps = [e for e in events if e["name"] == "engine/sweep"]
        assert len(sweeps) == 1
        chunks = [e for e in events if e["name"] == "engine/chunk"]
        assert {c["parent_id"] for c in chunks} == {sweeps[0]["span_id"]}
        assert all(c["pid"] != sweeps[0]["pid"] for c in chunks)
        pairs = [e for e in events if e["name"] == "engine/pair"]
        assert sorted(p["attrs"]["index"] for p in pairs) == \
            list(range(self.NUM_PAIRS))
        chunk_ids = {c["span_id"] for c in chunks}
        assert {p["parent_id"] for p in pairs} <= chunk_ids
        # Worker-side stage spans nest under their pair span.
        stages = [e for e in events if e["name"] == "data_generation"]
        pair_ids = {p["span_id"] for p in pairs}
        assert stages and {s["parent_id"] for s in stages} <= pair_ids

        # The serial path runs the same per-pair loop: pair spans nest
        # under its sweep span, and data generation under its pair.
        with collect_spans() as collector:
            outcomes = self._serial_sweep()
        assert len(outcomes) == self.NUM_PAIRS
        events = collector.events
        sweeps = [e for e in events if e["name"] == "engine/sweep"]
        assert len(sweeps) == 1
        pairs = [e for e in events if e["name"] == "engine/pair"]
        assert [p["attrs"]["index"] for p in pairs] == \
            list(range(self.NUM_PAIRS))
        assert {p["parent_id"] for p in pairs} == {sweeps[0]["span_id"]}
        stages = [e for e in events if e["name"] == "data_generation"]
        assert sorted(s["parent_id"] for s in stages) == \
            sorted(p["span_id"] for p in pairs)

    def test_parallel_sweep_counters_travel_home(self):
        timings = SweepTimings()
        self._sweep(timings=timings)
        counters = timings.registry.counters
        assert counters["engine/chunks"].value == 2
        assert counters["pipeline/recoveries"].value == self.NUM_PAIRS
        assert counters["stage1/matches"].value == self.NUM_PAIRS
        assert timings.stage_count("data_generation") == self.NUM_PAIRS

        serial = SweepTimings()
        self._serial_sweep(timings=serial)
        for name in ("pipeline/recoveries", "stage1/matches"):
            assert serial.registry.counters[name].value == \
                counters[name].value
        assert serial.stage_count("data_generation") == self.NUM_PAIRS

    def test_untraced_sweep_ships_no_span_events(self):
        timings = SweepTimings()
        outcomes = self._sweep(timings=timings)
        assert len(outcomes) == self.NUM_PAIRS
        # Stage seconds still travel (the registry snapshot), but no
        # span histograms: workers skip span collection when untraced.
        assert timings.stage_count("bv_extract") > 0
        span_keys = [name for name in timings.registry.histograms
                     if name.startswith("span/")]
        assert span_keys == []


class TestChunkDedupe:
    def test_merge_chunk_replaces_previous_delivery(self):
        worker = SweepTimings()
        worker.add("data_generation", 1.0)
        worker.pairs = 2
        merged = SweepTimings()
        assert merged.merge_chunk(0, worker.to_snapshot()) == 1
        # The retry ladder re-delivers the same chunk (serial fallback
        # after a pool retry): the second delivery must replace, not add.
        assert merged.merge_chunk(0, worker.to_snapshot()) == 2
        assert merged.pairs == 2
        assert merged.stage_count("data_generation") == 1
        assert merged.seconds["data_generation"] == pytest.approx(1.0)
        assert merged.registry.counter("timings/chunk_remerges").value == 1
        # A different chunk still adds.
        merged.merge_chunk(2, worker.to_snapshot())
        assert merged.pairs == 4

    def test_retried_chunk_counts_each_pair_once(self, tmp_path):
        """A chunk that dies on the pool and re-runs must contribute its
        stage timings exactly once (the --timings double-count fix)."""
        num_pairs = 4
        fault = WorkerFault(kind="kill", indices=(1,),
                            once_dir=str(tmp_path))
        timings = SweepTimings()
        outcomes = run_sweep_parallel(
            DatasetConfig(num_pairs=num_pairs, seed=31),
            num_pairs=num_pairs, include_vips=False, seed=7, workers=2,
            chunk_size=2, fault=fault, timings=timings)
        assert len(outcomes) == num_pairs
        assert all(isinstance(o, PairOutcome) for o in outcomes)
        assert timings.registry.counter("engine/chunk_retries").value >= 1
        assert timings.pairs == num_pairs
        assert timings.stage_count("data_generation") == num_pairs

    def test_twice_killed_chunk_counts_each_pair_once(self, tmp_path):
        """Kill the same chunk on the first pool *and* the retry pool so
        it lands on the in-process serial fallback — the chunk's
        telemetry is delivered by the last rung only, and each pair
        still counts exactly once."""
        num_pairs = 4
        fault = DoubleKillFault(index=1, once_dir=str(tmp_path),
                                parent_pid=os.getpid())
        timings = SweepTimings()
        outcomes = run_sweep_parallel(
            DatasetConfig(num_pairs=num_pairs, seed=31),
            num_pairs=num_pairs, include_vips=False, seed=7, workers=2,
            chunk_size=2, fault=fault, timings=timings)
        assert len(outcomes) == num_pairs
        assert all(isinstance(o, PairOutcome) for o in outcomes)
        # Both kills break the whole pool, so the innocent sibling chunk
        # rides the ladder too — at least the faulted chunk went serial.
        counters = timings.registry.counters
        assert counters["engine/serial_fallbacks"].value >= 1
        assert timings.pairs == num_pairs
        assert timings.stage_count("data_generation") == num_pairs
