"""Scheduler profiling: where wall-clock time and worker capacity go.

A :class:`SchedulerProfiler` subscribes to the event bus and reads the
spans the schedulers publish: one job span per mapped item (category
``tile`` or ``cell``, timed in the process that ran it) and one ``map``
span per ``Scheduler.map`` call, which closes after all of its jobs.
Both carry the call's ``map`` id.  From those it derives per-job wall
time, queue wait (map entry to job start), which worker ran each job,
and worker occupancy — the fraction of the fan-out window each worker
spent busy — for both the Serial and ProcessPool schedulers.

It is a subscriber like any other: it never touches the jobs it
measures, so profiled and unprofiled executions produce bit-identical
simulated results.  Job timings also feed the process-wide metrics
registry (``scheduler.*`` histograms).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List

from .events import JOB_CATEGORIES, Event, Span
from .metrics import global_registry


@dataclass(frozen=True)
class JobTiming:
    """One mapped job's observed execution."""

    label: str
    batch: int
    start: float
    end: float
    worker: int
    queue_wait: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class BatchTiming:
    """One ``Scheduler.map`` call's envelope."""

    submit: float
    end: float
    jobs: int

    @property
    def wall(self) -> float:
        return self.end - self.submit


class SchedulerProfiler:
    """Accumulates job and batch timings from scheduler spans.

    Job spans arrive before the ``map`` span that encloses them (a span
    is published when it closes, and a map closes after its jobs), so
    jobs wait under their ``map`` id until that map span claims them.
    """

    def __init__(self) -> None:
        self.timings: List[JobTiming] = []
        self.batches: List[BatchTiming] = []
        self._pending: Dict[str, List[Span]] = {}
        self._parent_pid = os.getpid()

    def __call__(self, event: Event) -> None:
        if not isinstance(event, Span):
            return
        if event.category in JOB_CATEGORIES:
            self._pending.setdefault(event.args.get("map"), []).append(event)
        elif event.category == "scheduler":
            self._close_batch(event)

    def _close_batch(self, envelope: Span) -> None:
        claimed = self._pending.pop(envelope.args.get("map"), None)
        if not claimed:
            return
        batch = len(self.batches)
        registry = global_registry()
        job_hist = registry.histogram("scheduler.job_seconds")
        wait_hist = registry.histogram("scheduler.queue_wait_seconds")
        for job in claimed:
            timing = JobTiming(
                label=job.name,
                batch=batch,
                start=job.start,
                end=job.end,
                worker=job.worker,
                queue_wait=max(0.0, job.start - envelope.start),
            )
            self.timings.append(timing)
            job_hist.observe(timing.duration)
            wait_hist.observe(timing.queue_wait)
        self.batches.append(BatchTiming(envelope.start, envelope.end,
                                        len(claimed)))
        registry.counter("scheduler.jobs").inc(len(claimed))
        registry.counter("scheduler.batches").inc()

    # -- summaries -----------------------------------------------------------

    @property
    def total_wall(self) -> float:
        """Sum of all fan-out windows (submission to last completion)."""
        return sum(batch.wall for batch in self.batches)

    def job_summary(self) -> Dict[str, float]:
        """Aggregate job statistics across every batch."""
        if not self.timings:
            return {"jobs": 0, "busy_seconds": 0.0, "mean_seconds": 0.0,
                    "max_seconds": 0.0, "mean_queue_wait_seconds": 0.0,
                    "max_queue_wait_seconds": 0.0}
        durations = [t.duration for t in self.timings]
        waits = [t.queue_wait for t in self.timings]
        return {
            "jobs": len(self.timings),
            "busy_seconds": sum(durations),
            "mean_seconds": sum(durations) / len(durations),
            "max_seconds": max(durations),
            "mean_queue_wait_seconds": sum(waits) / len(waits),
            "max_queue_wait_seconds": max(waits),
        }

    def worker_summary(self) -> List[Dict[str, float]]:
        """Per-worker rows: jobs run, busy time, occupancy.

        Occupancy is the worker's busy time over the total fan-out wall
        (the only window during which it *could* have been busy).
        """
        wall = self.total_wall
        by_worker: Dict[int, List[JobTiming]] = {}
        for timing in self.timings:
            by_worker.setdefault(timing.worker, []).append(timing)
        rows = []
        for worker in sorted(by_worker):
            timings = by_worker[worker]
            busy = sum(t.duration for t in timings)
            rows.append({
                "worker": ("main" if worker == self._parent_pid
                           else f"worker-{worker}"),
                "jobs": len(timings),
                "busy_seconds": busy,
                "occupancy": busy / wall if wall else 0.0,
            })
        return rows


def phase_breakdown(tracer) -> List[Dict[str, float]]:
    """Wall-time totals per span name for ``run``/``frame``/``phase``/
    ``harness`` category spans of a :class:`~repro.obs.trace.ChromeTracer`."""
    totals: Dict[str, Dict[str, float]] = {}
    for event in tracer.spans():
        if event.get("cat") not in ("run", "frame", "phase", "harness"):
            continue
        entry = totals.setdefault(
            event["name"], {"count": 0, "total_ms": 0.0}
        )
        entry["count"] += 1
        entry["total_ms"] += event["dur"] / 1e3
    return [
        {"span": name, "count": entry["count"],
         "total_ms": entry["total_ms"],
         "mean_ms": entry["total_ms"] / entry["count"]}
        for name, entry in sorted(totals.items(),
                                  key=lambda kv: -kv[1]["total_ms"])
    ]
