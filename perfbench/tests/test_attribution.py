"""Attribution self-test: a slowdown injected into one layer from outside
must show end to end and be attributed to that layer.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from spans import FRAME_LAYERS, Recorder, layer_times  # noqa: E402
from repro.pipeline.geometry import GeometryPipeline  # noqa: E402

#: How much slower the wrapped geometry layer runs.  Geometry is about
#: half of a frames-redundant frame, so frames run about 10% slower.
SLOWDOWN = 0.2
#: Time layers that partition a frame (kernels.prepare_s is inside
#: tile_job.busy_s).
#: Back-to-back plain/slowed renders of every stream in the paired tests.
REPEATS = 8
PARTS = ("geometry.self_s", "raster.self_s", "tile_job.busy_s",
         "memsys.replay_s", "memsys.instr_s", "frame.unattributed_s")


def load(path: str) -> dict:
    with open(os.path.join(BENCH, path)) as handle:
        return json.load(handle)


class Slowdown:
    """While :attr:`active`, every ``GeometryPipeline.process_frame`` call
    spins for ``share`` of its own duration after it returns."""

    def __init__(self, share: float = SLOWDOWN):
        self.share = share
        self.active = False
        self.injected = 0.0

    @contextlib.contextmanager
    def installed(self):
        original = GeometryPipeline.__dict__["process_frame"]

        def slowed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            if self.active:
                extra = self.share * (time.perf_counter() - start)
                until = time.perf_counter() + extra
                while time.perf_counter() < until:
                    pass
                self.injected += extra
            return result

        GeometryPipeline.process_frame = slowed
        try:
            yield self
        finally:
            GeometryPipeline.process_frame = original


@pytest.fixture(scope="module")
def loop():
    frame_loop = workloads.FrameLoop(
        workloads.WORKLOADS["frames-redundant"], seed=0)
    frame_loop.build()
    frame_loop.warm_up()
    return frame_loop


def traced_pass(loop):
    recorder = Recorder()
    with recorder.installed():
        loop.run_pass([])
    return recorder.take()


class GaugedWall:
    """The benchmark's gauge, also summing the wall time of the calls."""

    def __init__(self):
        self.gauge = hostspeed.Gauge()
        self.wall = 0.0

    def time(self, action):
        def walled():
            start = time.perf_counter()
            result = action()
            self.wall += time.perf_counter() - start
            return result

        return self.gauge.time(walled)


def paired_streams(loop, traced: bool, repeats: int = REPEATS):
    """Render every stream plain and slowed back to back, alternating
    which goes first, ``repeats`` times.  Host speed on a shared machine
    drifts by tens of percent within seconds, so the tests compare the
    two renders of each pair, never renders far apart in time.

    Returns one ``(plain, slowed, injected)`` tuple per pair, where
    plain and slowed are ``(seconds, frames, layers, wall)``.  A traced
    render gives its per-layer metrics in ``layers`` and its wall time
    as ``seconds``; an untraced one is timed as the benchmark times it,
    in reference seconds, with the wall time of its frames as ``wall``.
    """
    recorder = Recorder()
    pairs = []
    with Slowdown().installed() as slowdown:
        for repeat in range(repeats):
            for stream in loop.streams:
                renders = {}
                before = slowdown.injected
                for slowed in ((False, True) if repeat % 2 == 0
                               else (True, False)):
                    slowdown.active = slowed
                    if traced:
                        with recorder.installed():
                            start = time.perf_counter()
                            _, results = loop.render(*stream)
                            wall = time.perf_counter() - start
                        renders[slowed] = (
                            wall, len(results),
                            workloads.frame_layers(recorder.take()), wall)
                    else:
                        timer, latencies = GaugedWall(), []
                        _, results = loop.render(*stream,
                                                 latencies=latencies,
                                                 timer=timer.time)
                        renders[slowed] = (sum(latencies), len(results), {},
                                           timer.wall)
                pairs.append((renders[False], renders[True],
                              slowdown.injected - before))
    return pairs


def test_layers_add_up_to_frame_wall_time(loop):
    spans = traced_pass(loop)
    layers = workloads.frame_layers(spans)
    assert layers["frame.wall_s"] > 0
    assert sum(layers[name] for name in PARTS) == pytest.approx(
        layers["frame.wall_s"], rel=1e-9)
    # Every span recorded inside a frame belongs to a frame layer, so
    # nothing is counted twice or dropped.
    assert {span.name for span in spans} <= set(FRAME_LAYERS)
    frame_layer_total = sum(layer_times(spans).values())
    assert frame_layer_total == pytest.approx(layers["frame.wall_s"],
                                              rel=1e-9)


def test_geometry_slowdown_shows_in_frames_per_s(loop):
    pairs = paired_streams(loop, traced=False)
    assert all(plain[1] == slowed[1] for plain, slowed, _ in pairs)
    # frames_per_s is frames over reference seconds, so its relative
    # drop is 1 - plain seconds / slowed seconds.
    drop = statistics.median(1.0 - plain[0] / slowed[0]
                             for plain, slowed, _ in pairs)
    expected = statistics.median(injected / (plain[3] + injected)
                                 for plain, _, injected in pairs)
    assert expected > 0.05
    assert 0.5 * expected < drop < 2.0 * expected, (drop, expected)


def test_geometry_slowdown_is_attributed_to_geometry(loop):
    pairs = paired_streams(loop, traced=True)
    deltas = {name: statistics.median(slowed[2][name] - plain[2][name]
                                      for plain, slowed, _ in pairs)
              for name in PARTS}
    injected = statistics.median(injected for _, _, injected in pairs)
    assert deltas["geometry.self_s"] == pytest.approx(injected, rel=0.3)
    others = [abs(delta) for name, delta in deltas.items()
              if name != "geometry.self_s"]
    assert max(others) < 0.3 * deltas["geometry.self_s"], deltas


def test_benchmark_json_matches_metric_map():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    metric_map = load("metric_map.json")
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        mapped = {name: spec["unit"]
                  for name, spec in metric_map[section].items()}
        assert declared == mapped, section
    assert [w["name"] for w in bench["workloads"]] == list(
        metric_map["workloads"])
    for name, spec in metric_map["workloads"].items():
        workload = workloads.WORKLOADS[name]
        assert list(workload.benchmarks) == spec["benchmarks"], name
        assert list(workload.modes) == spec["modes"], name
    metrics = set(metric_map["end_to_end"]) | set(metric_map["per_layer"])
    for name, spec in metric_map["per_layer"].items():
        # A metric that moves no end-to-end metric says why.
        assert spec["moves"] or spec.get("note"), name
        assert set(spec["moves"]) <= metrics, name
        assert spec["on"], name
        assert set(spec["on"]) <= set(metric_map["workloads"]), name
