"""Tests for the span → bus → Chrome tracer path and its trace export.

The golden-file test renders a small benchmark with a
:class:`~repro.obs.ChromeTracer` subscribed to the event bus and checks
the exported JSON against the trace-event format contract
Perfetto/chrome://tracing rely on: every complete event carries
``ts``/``dur``/``pid``/``tid``, tracks are named through ``thread_name``
metadata, and within any one track spans are properly nested — pairwise
disjoint or contained, never partially overlapping — with the
``frame ⊇ phase ⊇ tile`` chain present.  The one-stream tests check that
a trace, an event log and the ledger of the same CLI run agree.
"""

from __future__ import annotations

import collections
import json
import os

import pytest

from repro.config import GPUConfig
from repro.obs import NULL_BUS, ChromeTracer, get_bus, span
from repro.obs.events import Span, subscribed
from repro.engine import SerialScheduler
from repro.pipeline import GPU
from repro.techniques import EVR
from repro.scenes import benchmark_stream


class TestNullTracer:
    """Tracing off: with the NULL_BUS installed every span is a no-op."""

    def test_is_default(self):
        assert get_bus() is NULL_BUS
        assert not NULL_BUS.enabled
        assert not span("a").enabled

    def test_span_is_shared_noop(self):
        span_a = span("a", "x", foo=1)
        span_b = span("b")
        assert span_a is span_b  # one shared object, no per-call garbage
        with span_a:
            pass

    def test_complete_and_instant_are_noops(self):
        NULL_BUS.emit(Span("n", "c", 0.0, 1.0, os.getpid()))
        with span("n"):
            pass
        assert get_bus() is NULL_BUS


class TestTracerInstallation:
    """A tracer is installed by subscribing it to the bus."""

    def test_set_tracer_returns_previous(self):
        tracer = ChromeTracer()
        with subscribed(tracer) as bus:
            assert get_bus() is bus and bus.enabled
            with span("work"):
                pass
        assert get_bus() is NULL_BUS
        assert [e["name"] for e in tracer.spans()] == ["work"]

    def test_tracing_scope_restores_on_exception(self):
        before = get_bus()
        try:
            with subscribed(ChromeTracer()):
                assert get_bus() is not before
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_bus() is before

    def test_subscribed_joins_an_installed_bus(self):
        outer = []
        tracer = ChromeTracer()
        with subscribed(outer.append) as bus:
            with subscribed(tracer) as inner:
                assert inner is bus
                with span("shared"):
                    pass
            with span("after"):
                pass
        assert [e.name for e in outer] == ["shared", "after"]
        assert [e["name"] for e in tracer.spans()] == ["shared"]


class TestChromeTracer:
    def test_span_records_complete_event(self):
        tracer = ChromeTracer()
        with subscribed(tracer):
            with span("work", "test", answer=42) as handle:
                handle.args["late"] = "yes"
        [event] = tracer.spans()
        assert event["name"] == "work"
        assert event["cat"] == "test"
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
        assert event["args"] == {"answer": 42, "late": "yes", "seq": 1}

    def test_tracks_get_metadata_events(self):
        tracer = ChromeTracer()
        tid_main = tracer.track_id("main")
        tid_worker = tracer.track_id("worker-7")
        assert tracer.track_id("main") == tid_main  # stable on reuse
        names = {
            event["args"]["name"]: event["tid"]
            for event in tracer.events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names == {"main": tid_main, "worker-7": tid_worker}

    def test_spans_from_other_processes_get_worker_lanes(self):
        tracer = ChromeTracer()
        tracer(Span("mine", "test", 1.0, 2.0, os.getpid()))
        tracer(Span("theirs", "test", 1.0, 2.0, 7))
        lanes = {e["args"]["name"]: e["tid"] for e in tracer.events
                 if e["ph"] == "M"}
        tids = {e["name"]: e["tid"] for e in tracer.spans()}
        assert tids == {"mine": lanes["main"], "theirs": lanes["worker-7"]}

    def test_write_round_trips_json(self, tmp_path):
        tracer = ChromeTracer()
        with subscribed(tracer):
            with span("a"):
                pass
        path = str(tmp_path / "trace.json")
        tracer.write(path)
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["traceEvents"] == tracer.export()["traceEvents"]

    def test_spans_filters_by_category(self):
        tracer = ChromeTracer()
        with subscribed(tracer):
            with span("a", "one"):
                pass
            with span("b", "two"):
                pass
        assert [e["name"] for e in tracer.spans("one")] == ["a"]


def _contained(inner, outer) -> bool:
    return (outer["ts"] <= inner["ts"]
            and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"])


def _disjoint(a, b) -> bool:
    return (a["ts"] + a["dur"] <= b["ts"]
            or b["ts"] + b["dur"] <= a["ts"])


class TestGoldenTrace:
    """Export contract for a real (tiny) simulated run."""

    @classmethod
    def setup_class(cls):
        config = GPUConfig.tiny(frames=3)
        tracer = ChromeTracer()
        with subscribed(tracer):
            scheduler = SerialScheduler()
            stream = benchmark_stream("hop", config)
            GPU(config, EVR,
                scheduler=scheduler).render_stream(stream)
        cls.trace = tracer.export()
        cls.events = cls.trace["traceEvents"]

    def test_trace_is_json_serializable(self):
        json.dumps(self.trace)

    def test_complete_events_are_well_formed(self):
        spans = [e for e in self.events if e.get("ph") == "X"]
        assert spans
        for event in spans:
            assert isinstance(event["name"], str) and event["name"]
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)

    def test_every_track_is_named(self):
        named = {
            e["tid"] for e in self.events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        used = {e["tid"] for e in self.events if e.get("ph") == "X"}
        assert used <= named

    def test_spans_properly_nested_per_track(self):
        by_track = {}
        for event in self.events:
            if event.get("ph") == "X":
                by_track.setdefault(event["tid"], []).append(event)
        for spans in by_track.values():
            spans.sort(key=lambda e: (e["ts"], -e["dur"]))
            for i, a in enumerate(spans):
                for b in spans[i + 1:]:
                    assert (_contained(b, a) or _contained(a, b)
                            or _disjoint(a, b)), (
                        f"partial overlap: {a['name']} vs {b['name']}"
                    )

    def test_frame_phase_tile_chain(self):
        frames = [e for e in self.events if e.get("cat") == "frame"]
        phases = [e for e in self.events if e.get("cat") == "phase"]
        tiles = [e for e in self.events if e.get("cat") == "tile"]
        assert len(frames) == 3
        assert {e["name"] for e in phases} == {"geometry", "raster"}
        assert tiles  # serial scheduler: tiles land on the main track
        # Every phase sits inside a frame; every tile inside a raster phase.
        for phase in phases:
            assert any(_contained(phase, frame) for frame in frames)
        rasters = [e for e in phases if e["name"] == "raster"]
        for tile in tiles:
            assert any(_contained(tile, raster) for raster in rasters)

    def test_tile_spans_cover_unskipped_tiles(self):
        tiles = [e for e in self.events if e.get("cat") == "tile"]
        executes = [e for e in self.events
                    if e.get("cat") == "raster" and e["name"] == "execute"]
        assert len(tiles) == sum(e["args"]["tiles"] for e in executes)


class TestGoldenTraceReduce:
    """The ``frame → raster → reduce-replay/reduce-finalize`` chain must
    nest correctly under both kernel backends, with non-negative self
    time everywhere (children never exceed their parent's wall time)."""

    @staticmethod
    def render_events(backend):
        config = GPUConfig.tiny(frames=2)
        tracer = ChromeTracer()
        with subscribed(tracer):
            stream = benchmark_stream("hop", config)
            GPU(config, EVR,
                backend=backend).render_stream(stream)
        return tracer.export()["traceEvents"]

    def assert_reduce_chain(self, events):
        spans = [e for e in events if e.get("ph") == "X"]
        frames = [e for e in spans if e.get("cat") == "frame"]
        rasters = [e for e in spans
                   if e.get("cat") == "phase" and e["name"] == "raster"]
        reduces = [e for e in spans
                   if e.get("cat") == "raster" and e["name"] == "reduce"]
        replays = [e for e in spans
                   if e.get("cat") == "raster"
                   and e["name"] == "reduce-replay"]
        finalizes = [e for e in spans
                     if e.get("cat") == "raster"
                     and e["name"] == "reduce-finalize"]
        # One reduce (with both sub-loops) per rendered frame.
        assert len(frames) == 2
        assert len(reduces) == len(replays) == len(finalizes) == 2
        for raster in rasters:
            assert any(_contained(raster, frame) for frame in frames)
        for reduce_span in reduces:
            assert any(_contained(reduce_span, raster)
                       for raster in rasters)
        for child in replays + finalizes:
            assert any(_contained(child, reduce_span)
                       for reduce_span in reduces)
        # Self time: within each reduce, the two sub-loops never sum to
        # more than the parent's wall time (they are disjoint siblings).
        for reduce_span in reduces:
            children = [c for c in replays + finalizes
                        if _contained(c, reduce_span)]
            assert sum(c["dur"] for c in children) <= reduce_span["dur"]

    def test_numpy_backend(self):
        self.assert_reduce_chain(self.render_events("numpy"))

    def test_python_backend(self):
        self.assert_reduce_chain(self.render_events("python"))


class TestFlushOnCrash:
    """Satellite contract: a run that dies mid-way still leaves valid
    observability artifacts on disk."""

    def test_arm_flush_writes_at_exit(self, tmp_path):
        tracer = ChromeTracer()
        with subscribed(tracer):
            with span("work", "test"):
                pass
        path = str(tmp_path / "crash.json")
        tracer.arm_flush(path)
        tracer._flush_at_exit()  # what atexit would run
        with open(path) as handle:
            trace = json.load(handle)
        assert any(e.get("name") == "work"
                   for e in trace["traceEvents"])

    def test_flush_at_exit_is_one_shot(self, tmp_path):
        tracer = ChromeTracer()
        path = str(tmp_path / "crash.json")
        tracer.arm_flush(path)
        tracer._flush_at_exit()
        os.remove(path)
        tracer._flush_at_exit()  # armed path consumed: no rewrite
        assert not os.path.exists(path)

    def test_disarm_flush_cancels_backstop(self, tmp_path):
        tracer = ChromeTracer()
        path = str(tmp_path / "crash.json")
        tracer.arm_flush(path)
        tracer.disarm_flush()
        tracer._flush_at_exit()
        assert not os.path.exists(path)

    def test_trace_written_when_command_raises(self, tmp_path,
                                               monkeypatch, capsys):
        # An exception escaping the command still leaves the partial
        # trace on disk as valid JSON (the finally path).
        import repro.cli as cli

        def explode(runner, subset):
            with span("doomed", "test"):
                raise RuntimeError("mid-run crash")

        monkeypatch.setitem(cli._FIGURES, "fig9", explode)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = str(tmp_path / "partial.json")
        with pytest.raises(RuntimeError):
            cli.main(["figure", "fig9", "--trace", path,
                      "--frames", "2", "--width", "64", "--height", "48"])
        with open(path) as handle:
            trace = json.load(handle)
        assert any(e.get("name") == "doomed"
                   for e in trace["traceEvents"])

    def test_faulted_run_leaves_valid_trace_and_event_log(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        import repro.cli as cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        trace_path = str(tmp_path / "faulted.json")
        events_path = str(tmp_path / "faulted.jsonl")
        assert cli.main(
            ["figure", "fig9", "--benchmarks", "hop",
             "--inject-faults", "raise:1.0", "--retries", "1",
             "--trace", trace_path, "--events", events_path,
             "--frames", "2", "--width", "64", "--height", "48"]
        ) == 0  # graceful degradation
        with open(trace_path) as handle:
            json.load(handle)  # valid JSON despite every cell failing
        from repro.obs.events import read_event_log
        events = read_event_log(events_path)
        assert any(e.kind == "fault-injected" for e in events)


def _run_cli(tmp_path, monkeypatch, name, *flags):
    """``repro figure fig9`` on two tiny benchmarks in a fresh cache."""
    import repro.cli as cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-{name}"))
    argv = ["figure", "fig9", "--preset", "tiny",
            "--benchmarks", "hop", "ccs", "-q", *flags]
    assert cli.main(argv) == 0


def _load_trace(path):
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    lanes = {e["tid"]: e["args"]["name"] for e in events
             if e.get("ph") == "M"}
    spans = [e for e in events if e.get("ph") == "X"]
    return events, lanes, spans


class TestOneStream:
    """A trace, an event log and the ledger of one run read one stream."""

    def test_faulted_pool_run_trace_matches_event_log(self, tmp_path,
                                                      monkeypatch, capsys):
        trace_path = str(tmp_path / "t.json")
        events_path = str(tmp_path / "e.jsonl")
        _run_cli(tmp_path, monkeypatch, "faults", "--jobs", "2",
                 "--inject-faults", "raise:0.5", "--ledger", "off",
                 "--trace", trace_path, "--events", events_path)
        from repro.obs.events import LOGGED_SPAN_CATEGORIES, read_event_log

        logged = read_event_log(events_path)
        events, _, _ = _load_trace(trace_path)
        recorded = [e for e in events if e.get("ph") in ("X", "i")]
        traced = collections.Counter(e["args"]["seq"] for e in recorded)
        # Every logged event (the metric samples included) is in the
        # trace exactly once, as a span or an instant.
        logged_seqs = {e.seq for e in logged}
        assert len(logged_seqs) == len(logged)
        assert all(traced[seq] == 1 for seq in logged_seqs)
        # The trace's extra events are exactly the fine-grained spans the
        # log leaves out; every marker reaches the log.
        extra = [e for e in recorded if e["args"]["seq"] not in logged_seqs]
        assert extra
        assert all(e["ph"] == "X" and e["cat"] not in LOGGED_SPAN_CATEGORIES
                   for e in extra)
        assert max(traced.values()) == 1
        faults = [e for e in logged if e.kind == "fault-injected"]
        assert faults  # raise:0.5 over six cells injects at least one
        markers = [e for e in events if e.get("ph") == "i"
                   and "fault" in e["name"]]
        assert len(markers) == len(faults)
        assert any(e.kind == "metric-sample" for e in logged)

    def test_pooled_trace_matches_serial_trace(self, tmp_path, monkeypatch,
                                               capsys):
        serial = str(tmp_path / "serial.json")
        pooled = str(tmp_path / "pooled.json")
        _run_cli(tmp_path, monkeypatch, "serial", "--jobs", "1",
                 "--ledger", "off", "--trace", serial)
        _run_cli(tmp_path, monkeypatch, "pooled", "--jobs", "2",
                 "--ledger", "off", "--trace", pooled)
        _, _, serial_spans = _load_trace(serial)
        _, lanes, pooled_spans = _load_trace(pooled)

        def shape(spans):
            return collections.Counter((e["name"], e["cat"]) for e in spans)

        assert shape(serial_spans) == shape(pooled_spans)
        cells = [e for e in pooled_spans if e["cat"] == "cell"]
        assert len(cells) == 6
        assert not any(":" in e["name"] for e in pooled_spans
                       if e["cat"] == "tile")
        nested = [e for e in pooled_spans if e["cat"] in ("frame", "phase")]
        assert nested
        for event in nested:
            assert lanes[event["tid"]].startswith("worker-")
            assert any(cell["tid"] == event["tid"]
                       and _contained(event, cell) for cell in cells)

    def test_ledger_phases_equal_trace_phase_spans(self, tmp_path,
                                                   monkeypatch, capsys):
        trace_path = str(tmp_path / "t.json")
        ledger_dir = str(tmp_path / "ledger")
        _run_cli(tmp_path, monkeypatch, "ledger", "--ledger", ledger_dir,
                 "--trace", trace_path)
        from repro.obs.ledger import RunLedger

        entries = RunLedger(ledger_dir).entries()
        assert len(entries) == 6
        _, _, spans = _load_trace(trace_path)
        for entry in entries:
            [run] = [e for e in spans if e["cat"] == "run"
                     and e["args"]["benchmark"] == entry["benchmark"]
                     and e["args"]["mode"] == entry["mode"]]
            phases = [e for e in spans if e["cat"] == "phase"
                      and e["tid"] == run["tid"] and _contained(e, run)]
            assert phases and entry["phases"]
            totals = collections.defaultdict(float)
            for phase in phases:
                totals[phase["name"]] += phase["dur"] / 1e6
            assert set(totals) == set(entry["phases"])
            for name, seconds in totals.items():
                count = sum(1 for e in phases if e["name"] == name)
                assert entry["phases"][name] == pytest.approx(
                    seconds, abs=1e-6 * count)
