"""Tests for the structured event bus (:mod:`repro.obs.events`).

The load-bearing properties: sequence numbers are monotonic, the wire
form round-trips (and tolerates unknown kinds/fields), worker-side
forwarding replays events on the parent bus in submission order even
when the worker fork-inherited a live parent bus, subscribers are
one-way (a raising subscriber is disconnected, and a run with every
subscriber attached is bit-identical to a bare run).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.config import GPUConfig
from repro.engine import ProcessPoolScheduler, SerialScheduler
from repro.harness.runner import metrics_from_result
from repro.obs import ChromeTracer, MetricsRegistry
from repro.obs.events import (
    CorpusFamilyChecked,
    EVENT_SCHEMA_VERSION,
    EventBus,
    EventForwardingCall,
    ForwardedResult,
    JsonlEventWriter,
    MetricSample,
    MetricsSubscriber,
    NULL_BUS,
    RunStarted,
    Span,
    event_from_wire,
    get_bus,
    publishing,
    job_label,
    read_event_log,
    replay_forwarded,
    run_span,
    set_bus,
    span,
    to_wire,
)
from repro.pipeline import GPU
from repro.techniques import EVR
from repro.scenes import benchmark_stream


class TestBusBasics:
    def test_null_bus_is_default_and_disabled(self):
        assert get_bus() is NULL_BUS
        assert not NULL_BUS.enabled
        NULL_BUS.emit(MetricSample(name="x", value=1.0))  # no-op

    def test_null_bus_rejects_subscribers(self):
        with pytest.raises(RuntimeError):
            NULL_BUS.subscribe(lambda event: None)

    def test_publishing_scopes_and_restores(self):
        bus = EventBus()
        with publishing(bus):
            assert get_bus() is bus
        assert get_bus() is NULL_BUS

    def test_set_bus_returns_previous(self):
        bus = EventBus()
        assert set_bus(bus) is NULL_BUS
        assert set_bus(NULL_BUS) is bus

    def test_emit_stamps_monotonic_seq_and_ts(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(MetricSample(name="a", value=1.0))
        bus.emit(MetricSample(name="b", value=2.0))
        bus.emit(MetricSample(name="c", value=3.0))
        assert [event.seq for event in seen] == [1, 2, 3]
        assert all(event.ts > 0 for event in seen)
        assert bus.emitted == 3

    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.emit(MetricSample(name="x", value=0.0))
        assert order == ["first", "second"]

    def test_raising_subscriber_is_disconnected_not_fatal(self):
        bus = EventBus()
        good = []

        def bad(event):
            raise ValueError("subscriber bug")

        bus.subscribe(bad)
        bus.subscribe(good.append)
        bus.emit(MetricSample(name="x", value=0.0))
        bus.emit(MetricSample(name="y", value=1.0))
        # The bad subscriber saw at most one event; the good one saw both.
        assert [event.name for event in good] == ["x", "y"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.emit(MetricSample(name="x", value=0.0))
        assert seen == []


class TestSpan:
    def test_span_publishes_one_event_at_exit(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with publishing(bus):
            with span("work", "test", answer=42) as handle:
                assert handle.enabled and seen == []
                handle.args["late"] = 1
        [event] = seen
        assert (event.name, event.category) == ("work", "test")
        assert event.args == {"answer": 42, "late": 1}
        assert 0.0 < event.start <= event.end
        assert event.worker == os.getpid() and event.seq == 1

    def test_span_published_when_block_raises(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with publishing(bus), pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        assert [event.name for event in seen] == ["doomed"]

    def test_run_span_marks_entry_then_closes(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with publishing(bus):
            with run_span("hop", "evr", 3):
                with span("frame", "frame"):
                    pass
        assert [event.kind for event in seen] == ["run-started", "span",
                                                  "span"]
        run = seen[-1]
        assert (run.name, run.category) == ("run hop:evr", "run")
        assert run.args == {"benchmark": "hop", "mode": "evr", "frames": 3}

    def test_job_labels(self):
        class Tile:
            tile = 5

        assert job_label(Tile()) == ("tile 5", "tile")
        assert job_label(("hop", EVR, None)) == ("hop:evr",
                                                              "cell")
        assert job_label(3) == ("job", "cell")


class TestWireForm:
    EVENTS = [
        RunStarted(benchmark="cde", mode="evr", frames=4),
        Span(name="raster", category="phase", start=1.0, end=1.5,
             worker=123, args={"frame": 2, "fragments": 100,
                               "cache_ops": 200}),
        Span(name="tile 7", category="tile", start=1.0, end=2.0,
             worker=123),
        MetricSample(name="suite.progress", value=0.5),
        Span(name="run cde:evr", category="run", start=0.5, end=2.0,
             worker=123, args={"benchmark": "cde", "mode": "evr",
                               "frames": 4}),
        CorpusFamilyChecked(family="sliver", frames=4, seconds=0.8,
                            passed=False, checks=13, failures=9,
                            shrink_evals=17),
    ]

    def test_round_trip_every_kind(self):
        for event in self.EVENTS:
            wire = to_wire(event)
            assert wire["v"] == EVENT_SCHEMA_VERSION
            assert wire["kind"] == event.kind
            json.dumps(wire)  # JSON-serialisable
            assert event_from_wire(wire) == event

    def test_unknown_kind_is_skipped(self):
        assert event_from_wire({"v": EVENT_SCHEMA_VERSION,
                                "kind": "quantum-flux"}) is None

    def test_foreign_version_is_skipped(self):
        wire = to_wire(MetricSample(name="x", value=1.0))
        wire["v"] = EVENT_SCHEMA_VERSION + 1
        assert event_from_wire(wire) is None
        wire["v"] = 1  # the retired pre-span schema
        assert event_from_wire(wire) is None

    def test_unknown_fields_of_known_kind_are_ignored(self):
        wire = to_wire(MetricSample(name="x", value=1.0))
        wire["added_in_v2"] = "whatever"
        assert event_from_wire(wire) == MetricSample(name="x", value=1.0)

    def test_jsonl_writer_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        bus = EventBus()
        writer = JsonlEventWriter(path)
        bus.subscribe(writer)
        for event in self.EVENTS:
            bus.emit(event)
        writer.close()
        writer.close()  # idempotent
        assert writer.written == len(self.EVENTS)
        replayed = read_event_log(path)
        assert [event.kind for event in replayed] == \
            [event.kind for event in self.EVENTS]
        assert [event.seq for event in replayed] == \
            list(range(1, len(self.EVENTS) + 1))

    def test_reader_skips_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(to_wire(self.EVENTS[0])) + "\n")
            handle.write('{"v": 1, "kind": "metric-sa')  # killed mid-write
        assert len(read_event_log(path)) == 1


def _square_and_emit(item):
    """Pool-mapped job (module-level: must pickle into workers)."""
    get_bus().emit(MetricSample(name="job", value=float(item)))
    return item * item


class TestForwarding:
    def test_in_parent_passes_through_without_buffering(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)

        def fn(item):
            get_bus().emit(MetricSample(name="inner", value=item))
            return item * 2

        with publishing(bus):
            wrapped = EventForwardingCall(fn)
            result = wrapped(21)
        assert isinstance(result, ForwardedResult)
        assert result.result == 42
        assert result.events == []  # emitted live, nothing buffered
        # The job's own span closes after what the job emitted.
        assert [event.name for event in seen] == ["inner", "job"]
        assert seen[-1].category == "cell"
        assert seen[-1].worker == os.getpid()

    def test_in_worker_buffers_even_with_inherited_bus(self):
        # Simulate a forked worker: the parent's live bus object is
        # inherited, but the pid check reroutes emission to a buffer.
        parent_subscribers = []
        parent_bus = EventBus()
        parent_bus.subscribe(parent_subscribers.append)

        def fn(item):
            get_bus().emit(MetricSample(name="inner", value=item))
            return item

        with publishing(parent_bus):
            wrapped = EventForwardingCall(fn, parent_pid=os.getpid() + 1)
            result = wrapped(7)
        assert result.result == 7
        assert [event.name for event in result.events] == ["inner", "job"]
        assert parent_subscribers == []  # parent saw nothing in-worker

    def test_replay_forwarded_restamps_on_parent_bus(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(MetricSample(name="before", value=0.0))
        forwarded = ForwardedResult(
            "payload",
            [MetricSample(name="a", value=1.0, seq=1, ts=5.0),
             MetricSample(name="b", value=2.0, seq=2, ts=6.0)],
        )
        assert replay_forwarded(forwarded, bus) == "payload"
        assert [event.seq for event in seen] == [1, 2, 3]  # re-stamped

    def test_replay_passes_plain_values_through(self):
        assert replay_forwarded(123) == 123

    def test_pool_scheduler_forwards_worker_events(self):
        calls = list(range(8))
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with publishing(bus):
            with ProcessPoolScheduler(jobs=2) as scheduler:
                results = scheduler.map(_square_and_emit, calls)
        assert results == [item * item for item in calls]
        samples = [event for event in seen
                   if isinstance(event, MetricSample)]
        # Ordered: submission order, re-stamped monotonically.
        assert [event.value for event in samples] == [float(i) for i in calls]
        seqs = [event.seq for event in samples]
        assert seqs == sorted(seqs)


class TestConsumerSubscribers:
    def test_tracer_subscriber_emits_instants(self):
        tracer = ChromeTracer()
        bus = EventBus()
        bus.subscribe(tracer)
        bus.emit(RunStarted(benchmark="cde", mode="evr", frames=4))
        # A metric sample's ``name`` field must not clash with the
        # instant's own name.
        bus.emit(MetricSample(name="suite.progress", value=0.5))
        instants = [e for e in tracer.events if e.get("ph") == "i"]
        assert [e["name"] for e in instants] == ["run-started",
                                                 "metric-sample"]
        assert instants[0]["args"]["benchmark"] == "cde"
        assert instants[1]["args"] == {"name": "suite.progress",
                                       "value": 0.5, "seq": 2}
        assert bus.emitted == 2 and tracer in bus._subscribers

    def test_metrics_subscriber_counts_and_observes(self):
        registry = MetricsRegistry()
        bus = EventBus()
        bus.subscribe(MetricsSubscriber(registry))
        bus.emit(Span("raster", "phase", 0.0, 0.25, args={"frame": 0}))
        bus.emit(Span("raster", "phase", 1.0, 1.75, args={"frame": 1}))
        bus.emit(MetricSample(name="suite.progress", value=0.5))
        snapshot = registry.as_dict()
        assert snapshot["counters"]["events.span"] == 2
        assert snapshot["counters"]["events.metric-sample"] == 1
        histogram = snapshot["histograms"]["events.phase_seconds.raster"]
        assert histogram["count"] == 2 and histogram["sum"] == 1.0
        assert snapshot["gauges"]["events.sample.suite.progress"] == 0.5


def _render(config, scheduler=None, subscribers=()):
    """One tiny EVR run; returns distilled metrics.  ``subscribers``
    attach to a fresh bus installed for the run."""
    stream = benchmark_stream("hop", config)
    if subscribers:
        bus = EventBus()
        for subscriber in subscribers:
            bus.subscribe(subscriber)
        with publishing(bus):
            result = GPU(config, EVR,
                         scheduler=scheduler).render_stream(stream)
    else:
        result = GPU(config, EVR,
                     scheduler=scheduler).render_stream(stream)
    return metrics_from_result("hop", EVR, result)


class TestBitIdentity:
    """The one-way contract: subscribers never change what they watch."""

    def test_serial_run_identical_with_and_without_bus(self, tmp_path):
        config = GPUConfig.tiny(frames=3)
        bare = _render(config)
        sink = []
        tracer = ChromeTracer()
        registry = MetricsRegistry()
        writer = JsonlEventWriter(str(tmp_path / "events.jsonl"))
        observed = _render(config, subscribers=(
            sink.append, writer, tracer, MetricsSubscriber(registry),
        ))
        writer.close()
        assert dataclasses.asdict(observed) == dataclasses.asdict(bare)
        assert sink  # the bus actually saw the run

    def test_pool_run_identical_with_and_without_bus(self, tmp_path):
        config = GPUConfig.tiny(frames=3)
        with ProcessPoolScheduler(jobs=2) as scheduler:
            bare = _render(config, scheduler)
        writer = JsonlEventWriter(str(tmp_path / "events.jsonl"))
        sink = []
        with ProcessPoolScheduler(jobs=2) as scheduler:
            observed = _render(config, scheduler,
                               subscribers=(sink.append, writer))
        writer.close()
        assert dataclasses.asdict(observed) == dataclasses.asdict(bare)
        categories = {event.category for event in sink
                      if isinstance(event, Span)}
        assert {"tile", "phase", "scheduler"} <= categories
        assert any(event.worker != os.getpid() for event in sink
                   if isinstance(event, Span) and event.category == "tile")

    def test_fuzz_identity_across_seeds(self):
        # Fuzz over benchmark/frame-count variations: bus-on always
        # equals bus-off, whatever the workload shape.
        for benchmark, frames in (("hop", 2), ("cde", 2), ("tib", 3)):
            config = GPUConfig.tiny(frames=frames)
            stream = benchmark_stream(benchmark, config)
            bare = GPU(config, EVR).render_stream(stream)
            bus = EventBus()
            bus.subscribe(lambda event: None)
            with publishing(bus):
                stream = benchmark_stream(benchmark, config)
                observed = GPU(config, EVR).render_stream(stream)
            bare_metrics = metrics_from_result(benchmark, EVR,
                                               bare)
            observed_metrics = metrics_from_result(benchmark,
                                                   EVR,
                                                   observed)
            assert (dataclasses.asdict(observed_metrics)
                    == dataclasses.asdict(bare_metrics))
            assert bus.emitted > 0
