"""Tests for the scheduler profiler (a bus subscriber) and its
observability-only contract."""

from __future__ import annotations

import os

import pytest

from repro.config import GPUConfig
from repro.engine import ProcessPoolScheduler, SerialScheduler
from repro.obs import ChromeTracer, SchedulerProfiler, global_registry
from repro.obs.events import Span, subscribed
from repro.obs.profile import phase_breakdown
from repro.pipeline import GPU
from repro.techniques import EVR
from repro.scenes import benchmark_stream

CONFIG = GPUConfig.tiny(frames=3)


def _render(scheduler):
    stream = benchmark_stream("hop", CONFIG)
    gpu = GPU(CONFIG, EVR, scheduler=scheduler)
    return gpu.render_stream(stream)


def _slow_square(n: int) -> int:
    total = 0
    for i in range(2000):
        total += i
    return n * n


class TestProfilerPassThrough:
    def test_results_unchanged_serial(self):
        profiler = SchedulerProfiler()
        with subscribed(profiler):
            assert SerialScheduler().map(_slow_square, [3, 1, 2]) == [9, 1, 4]
        assert len(profiler.timings) == 3
        assert len(profiler.batches) == 1

    def test_results_unchanged_pool(self):
        profiler = SchedulerProfiler()
        with subscribed(profiler), ProcessPoolScheduler(2) as pool:
            assert pool.map(_slow_square, list(range(8))) == [
                n * n for n in range(8)
            ]
        assert len(profiler.timings) == 8

    def test_profiled_run_bit_identical(self):
        plain = _render(SerialScheduler())
        profiler = SchedulerProfiler()
        with subscribed(profiler):
            profiled = _render(SerialScheduler())
        assert profiler.timings
        for frame_a, frame_b in zip(plain.frames, profiled.frames):
            assert frame_a.image.tobytes() == frame_b.image.tobytes()
            assert frame_a.stats.as_dict() == frame_b.stats.as_dict()


class TestTimings:
    def test_timings_are_ordered_and_labelled(self):
        profiler = SchedulerProfiler()
        with subscribed(profiler):
            SerialScheduler().map(_slow_square, [5, 6])
        first, second = profiler.timings
        assert first.label == second.label == "job"
        assert first.end <= second.start  # serial: strictly sequential
        assert first.duration > 0.0
        assert first.queue_wait >= 0.0
        assert first.worker == os.getpid()

    def test_batch_wall_covers_jobs(self):
        profiler = SchedulerProfiler()
        with subscribed(profiler):
            SerialScheduler().map(_slow_square, [1, 2, 3])
        [batch] = profiler.batches
        assert batch.jobs == 3
        assert batch.wall >= sum(t.duration for t in profiler.timings)

    def test_pool_workers_differ_from_parent(self):
        profiler = SchedulerProfiler()
        with subscribed(profiler), ProcessPoolScheduler(2) as pool:
            pool.map(_slow_square, list(range(8)))
        workers = {t.worker for t in profiler.timings}
        assert os.getpid() not in workers


def _inner_map(n: int) -> int:
    """A pooled job that fans out again (module-level: must pickle)."""
    return sum(SerialScheduler().map(_slow_square, [n, n + 1]))


class TestNestedBatches:
    def test_inner_maps_claim_their_own_jobs(self):
        profiler = SchedulerProfiler()
        with subscribed(profiler), ProcessPoolScheduler(2) as pool:
            assert pool.map(_inner_map, list(range(4))) == [
                n * n + (n + 1) * (n + 1) for n in range(4)]
        assert sorted(batch.jobs for batch in profiler.batches) == [
            2, 2, 2, 2, 4]
        outer = profiler.batches[-1]
        assert outer.jobs == 4
        for timing in profiler.timings:
            batch = profiler.batches[timing.batch]
            assert batch.submit <= timing.start <= timing.end <= batch.end


    def test_jobs_pair_with_their_map_by_id(self):
        # A short job of map "b" lies inside map "a"'s window (as a cell
        # of one pool worker can, inside another worker's tile map); it
        # still belongs to "b" and waits from "b"'s start.
        profiler = SchedulerProfiler()

        def job(name, map_id, start, end, worker):
            return Span(name, "cell", start, end, worker, {"map": map_id})

        profiler(job("a0", "a", 1.0, 9.0, worker=11))
        profiler(job("b0", "b", 2.0, 3.0, worker=12))
        profiler(Span("map", "scheduler", 0.0, 10.0, 10,
                      {"jobs": 1, "map": "a"}))
        profiler(Span("map", "scheduler", 1.5, 11.0, 10,
                      {"jobs": 1, "map": "b"}))
        assert [(batch.submit, batch.jobs)
                for batch in profiler.batches] == [(0.0, 1), (1.5, 1)]
        timings = {timing.label: timing for timing in profiler.timings}
        assert timings["a0"].batch == 0
        assert timings["b0"].batch == 1
        assert timings["b0"].queue_wait == pytest.approx(0.5)


class TestSummaries:
    def test_job_summary_empty(self):
        assert SchedulerProfiler().job_summary()["jobs"] == 0

    def test_job_and_worker_summaries(self):
        profiler = SchedulerProfiler()
        with subscribed(profiler):
            SerialScheduler().map(_slow_square, [1, 2, 3, 4])
        summary = profiler.job_summary()
        assert summary["jobs"] == 4
        assert summary["busy_seconds"] > 0.0
        assert summary["max_seconds"] >= summary["mean_seconds"]
        [worker] = profiler.worker_summary()
        assert worker["worker"] == "main"
        assert worker["jobs"] == 4
        assert 0.0 < worker["occupancy"] <= 1.0

    def test_registry_counters_fed(self):
        registry = global_registry()
        registry.reset()
        profiler = SchedulerProfiler()
        with subscribed(profiler):
            SerialScheduler().map(_slow_square, [1, 2])
        assert registry.counter("scheduler.jobs").value == 2
        assert registry.counter("scheduler.batches").value == 1
        assert registry.histogram("scheduler.job_seconds").count == 2
        registry.reset()


class TestTraceIntegration:
    def test_tile_spans_on_main_track_when_serial(self):
        tracer = ChromeTracer()
        with subscribed(tracer):
            _render(SerialScheduler())
        tiles = [e for e in tracer.events if e.get("cat") == "tile"]
        assert tiles
        main_tid = tracer.track_id("main")
        assert {e["tid"] for e in tiles} == {main_tid}

    def test_phase_breakdown_orders_by_total(self):
        tracer = ChromeTracer()
        with subscribed(tracer):
            _render(SerialScheduler())
        rows = phase_breakdown(tracer)
        names = [row["span"] for row in rows]
        assert "frame" in names and "geometry" in names and "raster" in names
        totals = [row["total_ms"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        for row in rows:
            assert row["mean_ms"] * row["count"] == pytest.approx(
                row["total_ms"]
            )
