"""The three benchmark workloads and what one run of each measures.

Every workload drives the simulator only through its public functions:
``GPU.render_frame`` for the in-process frame loops, ``SuiteRunner``
plus a figure function for the sweep.  Inputs are built before the timed
region; the seed picks the frame window (see ``metric_map.json``).

A run returns a :class:`Outcome`: end-to-end metrics from untraced
passes, or per-layer metrics from traced passes interleaved with
untraced ones (the traced run never reports end-to-end metrics).
End-to-end times are CPU time in reference seconds (``hostspeed``);
per-layer times are wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed
from spans import MEMSYS_UNITS, Recorder, layer_times

from repro.config import GPUConfig
from repro.harness.experiments import figure11_time_vs_re
from repro.harness.runner import SuiteRunner
from repro.pipeline import GPU, RunResult
from repro.scenes import benchmark_info
from repro.spec import RunSpec

#: Frames per stream on the frames-* workloads, and how many window
#: starts the seed chooses from.
WINDOW = 9
WINDOW_STARTS = 48
#: A latency percentile needs ten samples beyond it: p90 needs 100.
MIN_SAMPLES = 100
#: Stop adding passes after this long, whatever the sample count, so a
#: run on a slow machine still ends well inside its time limit.
MAX_MEASURE_S = 110.0
SUITE_JOBS = 2
#: Share of a traced suite run spent on cold sweeps; warm re-invocations
#: take the rest.
COLD_SHARE = 0.6
#: Warm re-invocations an untraced suite run checks against the pins.
WARM_CHECKS = 20
BACKEND = "numpy"
ORACLE_BACKEND = "python"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    benchmarks: Tuple[str, ...]
    modes: Tuple[str, ...]


WORKLOADS = {
    "frames-raster": Workload("frames-raster", ("300", "mst"),
                              ("baseline", "evr")),
    "frames-redundant": Workload("frames-redundant",
                                 ("ccs", "cde", "dpe", "mto"), ("re", "evr")),
    "suite-sweep": Workload("suite-sweep", ("300", "tib", "ccs", "wog"),
                            ("baseline", "re", "evr")),
}


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: The spans of every traced pass (traced runs only).
    passes: List[list] = dataclasses.field(default_factory=list)


def window_start(seed: int) -> int:
    return random.Random(seed).randrange(WINDOW_STARTS)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def digest(payload: object, image: Optional[bytes] = None) -> str:
    hasher = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    if image is not None:
        hasher.update(image)
    return hasher.hexdigest()[:20]


def frame_digest(result) -> str:
    """Digest of a frame's image bytes, FrameStats and memsys counters."""
    return digest({
        "stats": result.stats.as_dict(),
        "geometry": [result.geometry.units, result.geometry.dram_cycles],
        "raster": [result.raster.units, result.raster.dram_cycles],
    }, result.image.tobytes())


def metrics_digest(metrics) -> str:
    """Digest of a suite cell's distilled :class:`RunMetrics`."""
    return digest(dataclasses.asdict(metrics))


def median_seconds(action, repeats: int = 5) -> float:
    """Median wall time of ``action()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def wall_timer(action):
    """``action()`` and its wall time."""
    start = time.perf_counter()
    result = action()
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# frames-raster / frames-redundant: the in-process frame loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Pass:
    """One cold pass over every stream of a frames-* workload."""

    #: Wall seconds of the pass, or, when timed by a gauge, the
    #: reference seconds of its render_frame calls.
    wall: float = 0.0
    latencies: List[float] = dataclasses.field(default_factory=list)
    digests: Dict[str, List[Optional[str]]] = dataclasses.field(
        default_factory=dict)
    sim: Dict[str, Tuple[float, float]] = dataclasses.field(
        default_factory=dict)


class FrameLoop:
    """Streams of prebuilt frames rendered serially through
    ``GPU.render_frame``, one fresh GPU per (benchmark, mode) stream."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.config = GPUConfig.default()
        self.start = window_start(seed)
        self.frames: Dict[str, list] = {}

    @property
    def streams(self) -> List[Tuple[str, str]]:
        return [(benchmark, mode) for benchmark in self.workload.benchmarks
                for mode in self.workload.modes]

    def build_scenes(self) -> None:
        """Every benchmark's scene and its window of frames."""
        frames = {}
        for benchmark in self.workload.benchmarks:
            scene = benchmark_info(benchmark).builder(self.config)
            frames[benchmark] = [scene.build_frame(self.start + offset)
                                 for offset in range(WINDOW)]
        self.frames = frames

    def build(self) -> None:
        """Set-up: the scenes plus one GPU per stream."""
        self.build_scenes()
        for benchmark, mode in self.streams:
            GPU(self.config, mode, backend=BACKEND)

    def render(self, benchmark: str, mode: str, backend: str = BACKEND,
               frames: Optional[int] = None, latencies=None,
               timer=wall_timer):
        """Render one stream; returns its GPU and frame results.  Each
        frame's time, as ``timer`` gives it, goes to ``latencies``."""
        gpu = GPU(self.config, mode, backend=backend)
        results = []
        for frame in self.frames[benchmark][:frames]:
            result, seconds = timer(functools.partial(gpu.render_frame, frame))
            results.append(result)
            if latencies is not None:
                latencies.append(seconds)
        return gpu, results

    def run_stream(self, done: Pass, benchmark: str, mode: str,
                   problems: List[str],
                   gauge: Optional[hostspeed.Gauge] = None) -> None:
        """Render one stream into ``done``: time, digests, simulated
        totals.  An error fails the stream's frames and is recorded.
        With a ``gauge`` the stream's time is the reference seconds of
        its frames; without, its wall time, GPU construction included."""
        key = f"{benchmark}/{mode}"
        results = []
        latencies: List[float] = []
        start = time.perf_counter()
        try:
            gpu, results = self.render(
                benchmark, mode, latencies=latencies,
                timer=wall_timer if gauge is None else gauge.time)
        except Exception:
            problems.append(f"{key}: {traceback.format_exc()}")
        done.wall += (time.perf_counter() - start if gauge is None
                      else sum(latencies))
        done.latencies += latencies
        digests: List[Optional[str]] = [frame_digest(result)
                                        for result in results]
        done.digests[key] = digests + [None] * (WINDOW - len(digests))
        if len(results) == WINDOW:
            run = RunResult(
                config=self.config, features=gpu.features,
                frames=results, comparator=gpu.comparator,
                predictor=gpu.predictor, re_controller=gpu.re,
                cost_model=gpu.cost_model, energy_model=gpu.energy_model,
            )
            done.sim[key] = (run.total_cycles().total,
                             run.total_energy().total)

    def run_pass(self, problems: List[str],
                 gauge: Optional[hostspeed.Gauge] = None) -> Pass:
        done = Pass()
        for benchmark, mode in self.streams:
            self.run_stream(done, benchmark, mode, problems, gauge)
        return done

    def warm_up(self) -> None:
        """Fill lazy module caches before timing: two frames a stream."""
        for benchmark, mode in self.streams:
            self.render(benchmark, mode, frames=2)

    def reference(self, pins: dict, first: Pass,
                  problems: List[str]) -> Dict[str, List[Optional[str]]]:
        """Expected digests per stream: the pins for this seed, or else
        one stream (chosen by the seed) rendered with the scalar oracle
        backend, and the first pass for the others."""
        pinned = pins.get(self.workload.name, {}).get(str(self.seed))
        if pinned is not None:
            return pinned
        expected = dict(first.digests)
        benchmark, mode = self.streams[self.seed % len(self.streams)]
        try:
            _, results = self.render(benchmark, mode, backend=ORACLE_BACKEND)
            expected[f"{benchmark}/{mode}"] = [frame_digest(result)
                                               for result in results]
        except Exception:
            problems.append(f"oracle {benchmark}/{mode}: "
                            f"{traceback.format_exc()}")
        return expected

    def check(self, passes: List[Pass], expected, outcome: Outcome) -> None:
        for done in passes:
            for key, digests in done.digests.items():
                want = expected.get(key)
                for index, got in enumerate(digests):
                    outcome.attempted += 1
                    if want is None or got is None or got != want[index]:
                        outcome.failed += 1
                        outcome.problems.append(
                            f"{key} frame {self.start + index}: digest "
                            f"{got} != pinned "
                            f"{None if want is None else want[index]}")

    def sim_norms(self, done: Pass) -> Tuple[float, float]:
        """EVR over the workload's first mode, averaged over benchmarks."""
        first, last = self.workload.modes[0], self.workload.modes[-1]
        time_norms, energy_norms = [], []
        for benchmark in self.workload.benchmarks:
            base = done.sim.get(f"{benchmark}/{first}")
            evr = done.sim.get(f"{benchmark}/{last}")
            if base is None or evr is None:
                return math.nan, math.nan
            time_norms.append(evr[0] / base[0])
            energy_norms.append(evr[1] / base[1])
        return statistics.fmean(time_norms), statistics.fmean(energy_norms)

    # -- the two kinds of run ----------------------------------------------

    def measure(self, seconds: float, pins: dict) -> Outcome:
        outcome = Outcome()
        self.warm_up()
        gauge = hostspeed.Gauge()
        passes: List[Pass] = []
        began = time.perf_counter()
        while not passes or keep_going(
                began, len(passes), seconds,
                sum(len(done.latencies) for done in passes) < MIN_SAMPLES):
            passes.append(self.run_pass(outcome.problems, gauge))
        self.check(passes, self.reference(pins, passes[0], outcome.problems),
                   outcome)
        latencies = [value for done in passes for value in done.latencies]
        sim_time, sim_energy = self.sim_norms(passes[0])
        outcome.metrics.update({
            "frames_per_s": statistics.median(
                len(done.latencies) / done.wall for done in passes),
            "frame_ms_p50": 1000.0 * statistics.median(latencies),
            "frame_ms_p90": 1000.0 * percentile(latencies, 0.9),
            "cold_pass_s": statistics.median(d.wall for d in passes),
            "sim_time_norm": sim_time,
            "sim_energy_norm": sim_energy,
        })
        return outcome

    def trace(self, seconds: float, pins: dict) -> Outcome:
        outcome = Outcome()
        self.warm_up()
        recorder = Recorder()
        plain: List[Pass] = []
        traced: List[Tuple[Pass, list]] = []
        began = time.perf_counter()
        while not traced or keep_going(began, len(traced), seconds):
            # Each stream renders untraced and traced back to back, in
            # alternating order, so host drift hardly touches the
            # overhead ratio.
            passes = {False: Pass(), True: Pass()}
            for index, stream in enumerate(self.streams):
                for tracing in (index % 2 == 0, index % 2 == 1):
                    with contextlib.ExitStack() as stack:
                        if tracing:
                            stack.enter_context(recorder.installed())
                        self.run_stream(passes[tracing], *stream,
                                        outcome.problems)
            plain.append(passes[False])
            traced.append((passes[True], recorder.take()))
        self.check(plain + [done for done, _ in traced],
                   self.reference(pins, plain[0], outcome.problems), outcome)

        outcome.passes = [spans for _, spans in traced]
        per_pass = [frame_layers(spans) for spans in outcome.passes]
        outcome.metrics.update(median_layers(per_pass, outcome))
        draws = sum(len(frame.commands) for frames in self.frames.values()
                    for frame in frames)
        build_s = median_seconds(self.build_scenes)
        outcome.metrics.update({
            "scenes.build_s": build_s,
            "scenes.draws": draws,
            "trace.overhead_ratio": (
                statistics.median(done.wall for done, _ in traced)
                / statistics.median(done.wall for done in plain) - 1.0),
        })
        outcome.metrics.update(dict.fromkeys(SUITE_ONLY, 0.0))
        return outcome


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

#: Per-layer metrics that must repeat exactly from pass to pass.
EXACT = (
    "scenes.draws", "geometry.primitives_in", "geometry.primitives_culled",
    "geometry.primitive_tile_pairs", "geometry.signature_updates",
    "re.signature_checks", "re.tiles_skipped", "re.signature_poisons",
    "evr.predictions_made", "evr.predicted_occluded",
    "evr.mispredicted_visible", "tile_job.count", "tile_job.entries",
    "kernels.fragments_generated", "kernels.early_z_kills",
    "kernels.fragments_shaded", "memsys.trace_ops", "memsys.accesses",
    "memsys.dram_cycles", "runner.cells", "runner.cache_hits",
    "runner.cache_misses", "pool.job_bytes", "pool.result_bytes",
    "diskcache.entries", "diskcache.bytes",
)


#: Per-layer metrics of the sweep's own layers; the in-process frame
#: loops have no runner, pool or disk cache and report them as 0.
SUITE_ONLY = (
    "metrics.distill_s", "runner.cells", "runner.cache_hits", "runner.warm_ms",
    "runner.cache_misses", "runner.cell_s_p50", "runner.cell_s_max",
    "pool.map_s", "pool.idle_ratio", "pool.job_bytes", "pool.result_bytes",
    "diskcache.put_s", "diskcache.get_s", "diskcache.entries",
    "diskcache.bytes",
)


def frame_layers(spans) -> Dict[str, float]:
    """Layer self times and exact counts of the frames among ``spans``."""
    times = layer_times(spans)
    frames = [span for span in spans if span.name == "frame"]
    counts: Dict[str, float] = {}
    for span in frames:
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
    wall = sum(span.seconds for span in frames)
    jobs = [span for span in spans if span.name == "tile_job"]
    job_s = [span.seconds for span in jobs]
    layers = {
        "frame.wall_s": wall,
        "frame.unattributed_s": times.get("frame.unattributed", 0.0),
        "geometry.self_s": times.get("geometry", 0.0),
        "raster.self_s": times.get("raster", 0.0),
        "tile_job.busy_s": sum(job_s),
        "kernels.prepare_s": times.get("kernels.prepare", 0.0),
        "memsys.replay_s": times.get("memsys.replay", 0.0),
        "memsys.instr_s": times.get("memsys.instr", 0.0),
        "tile_job.ms_p50": 1000.0 * percentile(job_s, 0.5),
        "tile_job.ms_p99": 1000.0 * percentile(job_s, 0.99),
        "tile_job.count": len(jobs),
        "tile_job.entries": sum(span.counts["entries"] for span in jobs),
        "memsys.trace_ops": sum(span.counts.get("ops", 0) for span in spans
                                if span.name == "memsys.replay"),
        "memsys.accesses": sum(counts.get(f"{unit}.accesses", 0)
                               for unit in MEMSYS_UNITS),
        "memsys.dram_cycles": counts.get("dram_cycles", 0.0),
    }
    layers["geometry.share"] = ratio(layers["geometry.self_s"], wall)
    layers["frame.unattributed_share"] = ratio(
        layers["frame.unattributed_s"], wall)
    for unit in MEMSYS_UNITS:
        hits = counts.get(f"{unit}.hits", 0)
        layers[f"memsys.hit_ratio.{unit}"] = ratio(
            hits, hits + counts.get(f"{unit}.misses", 0))
    prefixes = {"geometry": ("primitives_in", "primitives_culled",
                             "primitive_tile_pairs", "signature_updates"),
                "re": ("signature_checks", "tiles_skipped",
                       "signature_poisons"),
                "evr": ("predictions_made", "predicted_occluded",
                        "mispredicted_visible"),
                "kernels": ("fragments_generated", "early_z_kills",
                            "fragments_shaded")}
    for prefix, names in prefixes.items():
        for name in names:
            layers[f"{prefix}.{name}"] = counts.get(name, 0)
    layers["re.skip_ratio"] = ratio(counts.get("tiles_skipped", 0),
                                    counts.get("signature_checks", 0))
    layers["evr.occluded_ratio"] = ratio(counts.get("predicted_occluded", 0),
                                         counts.get("predictions_made", 0))
    layers["kernels.shaded_ratio"] = ratio(
        counts.get("fragments_shaded", 0),
        counts.get("fragments_generated", 0))
    return layers


def median_layers(per_pass: List[Dict[str, float]],
                  outcome: Outcome) -> Dict[str, float]:
    """Median of each time over the traced passes; exact counts must
    agree between passes, or the run reports a change in behaviour."""
    merged: Dict[str, float] = {}
    for key in per_pass[0]:
        values = [layers[key] for layers in per_pass]
        if key in EXACT:
            if any(value != values[0] for value in values):
                outcome.failed += 1
                outcome.problems.append(
                    f"count {key} changed between passes: {values}")
            merged[key] = values[0]
        else:
            merged[key] = statistics.median(values)
    return merged


# ---------------------------------------------------------------------------
# suite-sweep: the `repro figure` path
# ---------------------------------------------------------------------------

class SuiteSweep:
    """``SuiteRunner.run_many`` with a process pool into an empty disk
    cache, then fresh runners re-invoking the sweep on the full cache."""

    def __init__(self, workload: Workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.spec = RunSpec()
        self.cells = len(workload.benchmarks) * len(workload.modes)

    def build(self) -> None:
        """Spec and runner construction; timed as part of set-up."""
        self.spec = RunSpec()
        SuiteRunner(spec=self.spec, jobs=SUITE_JOBS,
                    cache_dir=self.cache_dir).close()

    @property
    def cache_dir(self) -> str:
        return os.path.join(self.workdir, "cache")

    @property
    def spool_dir(self) -> str:
        path = os.path.join(self.workdir, "spool")
        os.makedirs(path, exist_ok=True)
        return path

    def invoke(self):
        """One invocation of the sweep plus its figure table."""
        with SuiteRunner(spec=self.spec, jobs=SUITE_JOBS,
                         cache_dir=self.cache_dir) as runner:
            results = runner.run_many(self.workload.benchmarks,
                                      self.workload.modes)
            figure11_time_vs_re(runner, self.workload.benchmarks).render()
        return runner, results

    def cold(self, outcome: Outcome) -> Tuple[float, dict]:
        """One sweep into an empty disk cache: its wall time, results."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        start = time.perf_counter()
        runner, results = self.invoke()
        wall = time.perf_counter() - start
        if runner.cache_misses != self.cells:
            outcome.problems.append(
                f"cold sweep: {runner.cache_misses} misses, "
                f"expected {self.cells}")
            outcome.failed += 1
        return wall, results

    def warm(self, outcome: Outcome) -> Tuple[float, dict]:
        start = time.perf_counter()
        runner, results = self.invoke()
        wall = time.perf_counter() - start
        if runner.cache_hits != self.cells:
            outcome.problems.append(
                f"warm sweep: {runner.cache_hits} hits, "
                f"expected {self.cells}")
            outcome.failed += 1
        return wall, results

    def check(self, results: dict, pins: dict, outcome: Outcome) -> None:
        pinned = pins.get(self.workload.name, {})
        for (benchmark, mode), metrics in sorted(results.items()):
            outcome.attempted += 1
            want = pinned.get(f"{benchmark}/{mode}")
            got = metrics_digest(metrics)
            if got != want:
                outcome.failed += 1
                outcome.problems.append(
                    f"{benchmark}/{mode}: metrics digest {got} "
                    f"!= pinned {want}")

    def sim_norms(self, results: dict) -> Tuple[float, float]:
        first, last = self.workload.modes[0], self.workload.modes[-1]
        time_norms, energy_norms = [], []
        for benchmark in self.workload.benchmarks:
            base = results[(benchmark, first)]
            evr = results[(benchmark, last)]
            time_norms.append(evr.total_cycles / base.total_cycles)
            energy_norms.append(evr.energy_joules / base.energy_joules)
        return statistics.fmean(time_norms), statistics.fmean(energy_norms)

    def measure(self, seconds: float, pins: dict) -> Outcome:
        outcome = Outcome()
        # Cold sweeps in CPU time, scaled to reference seconds: the
        # parent's share by gauge samples taken around the sweep, each
        # cell's by samples its pool worker takes around the cell.  The
        # recorder only carries the cell and frame timings back from the
        # workers.
        recorder = Recorder(spool_dir=self.spool_dir,
                            clock=time.thread_time, gauge=hostspeed.sample)
        hostspeed.reference_unit()
        began = time.perf_counter()
        colds: List[float] = []
        latencies: List[float] = []
        results: dict = {}
        while len(colds) < 2 or keep_going(
                began, len(colds), seconds, len(latencies) < MIN_SAMPLES):
            # Emptying the cache is not part of the sweep.
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            before = hostspeed.sample()
            start = time.process_time()
            with recorder.installed(only=("cell", "frame")):
                _, results = self.cold(outcome)
            parent = time.process_time() - start
            parent = hostspeed.scale(parent, before, hostspeed.sample())
            recorder.load_spool()
            cells, frames = cell_seconds(recorder.take())
            colds.append(parent + sum(cells))
            latencies += frames
            self.check(results, pins, outcome)
        # The warm path is checked here and timed in the traced run: its
        # few-millisecond latency follows the host's speed swings too
        # closely to gate on.
        for _ in range(WARM_CHECKS):
            _, warm_results = self.warm(outcome)
            self.check(warm_results, pins, outcome)
        sim_time, sim_energy = self.sim_norms(results)
        cold = statistics.median(colds)
        outcome.metrics.update({
            "frames_per_s": self.cells * self.spec.gpu.frames / cold,
            "frame_ms_p50": 1000.0 * statistics.median(latencies),
            "frame_ms_p90": 1000.0 * percentile(latencies, 0.9),
            "cold_pass_s": cold,
            "sim_time_norm": sim_time,
            "sim_energy_norm": sim_energy,
        })
        return outcome

    def trace(self, seconds: float, pins: dict) -> Outcome:
        outcome = Outcome()
        recorder = Recorder(spool_dir=self.spool_dir)
        began = time.perf_counter()
        plain: List[float] = []
        traced: List[Tuple[float, list]] = []
        while not traced or keep_going(began, len(traced),
                                       COLD_SHARE * seconds):
            wall, results = self.cold(outcome)
            plain.append(wall)
            self.check(results, pins, outcome)
            with recorder.installed():
                wall, results = self.cold(outcome)
            recorder.load_spool()
            traced.append((wall, recorder.take()))
            self.check(results, pins, outcome)
        entries, size = cache_footprint(self.cache_dir)

        outcome.passes = [spans for _, spans in traced]
        per_sweep = [sweep_layers(spans, SUITE_JOBS)
                     for spans in outcome.passes]
        for layers in per_sweep:
            layers["diskcache.entries"] = entries
            layers["diskcache.bytes"] = size
        metrics = median_layers(per_sweep, outcome)

        # Warm re-invocations, untraced and traced in turn: the untraced
        # ones give the warm latency, the traced ones the disk-cache reads.
        warm_s: List[float] = []
        warm_get: List[float] = []
        hits = []
        while len(warm_get) < MIN_SAMPLES or time.perf_counter() - began < seconds:
            wall, results = self.warm(outcome)
            warm_s.append(wall)
            self.check(results, pins, outcome)
            with recorder.installed():
                runner, results = self.invoke()
            self.check(results, pins, outcome)
            warm_get.append(sum(span.seconds for span in recorder.take()
                                if span.name == "diskcache.get"))
            hits.append(runner.cache_hits)
        if any(value != self.cells for value in hits):
            outcome.failed += 1
            outcome.problems.append(f"warm sweeps hit {sorted(set(hits))}")
        metrics.update({
            "runner.warm_ms": 1000.0 * statistics.median(warm_s),
            "diskcache.get_s": statistics.median(warm_get),
            "runner.cache_hits": hits[0],
            "trace.overhead_ratio": (
                statistics.median(wall for wall, _ in traced)
                / statistics.median(plain) - 1.0),
        })
        outcome.metrics.update(metrics)
        return outcome


def keep_going(began: float, passes: int, seconds: float,
               short: bool = False) -> bool:
    """Whether to start another pass: yes while the sample is ``short``
    or another pass would end nearer the target than stopping now, but
    never past :data:`MAX_MEASURE_S`."""
    elapsed = time.perf_counter() - began
    if elapsed >= MAX_MEASURE_S:
        return False
    return short or elapsed + 0.5 * elapsed / passes < seconds


def cell_seconds(spans) -> Tuple[List[float], List[float]]:
    """Reference seconds of each gauged cell span and of each frame
    span inside one, scaled by the samples taken around its cell."""
    cells, frames = [], []
    for span in spans:
        cell = span if span.name == "cell" else spans[span.parent]
        seconds = hostspeed.scale(span.seconds, cell.counts["gauge_before"],
                                  cell.counts["gauge_after"])
        (cells if span is cell else frames).append(seconds)
    return cells, frames


def cache_footprint(directory: str) -> Tuple[int, int]:
    names = [name for name in os.listdir(directory) if name.endswith(".pkl")]
    return len(names), sum(os.path.getsize(os.path.join(directory, name))
                           for name in names)


def sweep_layers(spans, jobs: int) -> Dict[str, float]:
    """Per-layer metrics of one traced cold sweep: the frame layers summed
    over every cell, plus the runner, pool and disk-cache layers."""
    layers = frame_layers(spans)
    times = layer_times(spans)
    cells = [span for span in spans if span.name == "cell"]
    cell_s = [span.seconds for span in cells]
    map_s = sum(span.seconds for span in spans if span.name == "pool.map")
    layers.update({
        "scenes.build_s": times.get("scenes.build", 0.0),
        "scenes.draws": sum(span.counts["draws"] for span in spans
                            if span.name == "scenes.build"),
        "metrics.distill_s": times.get("metrics.distill", 0.0),
        "runner.cells": len(cells),
        # Every cell of a cold sweep is a miss; SuiteSweep.cold fails the
        # run when the runner counts otherwise.
        "runner.cache_misses": len(cells),
        "runner.cell_s_p50": statistics.median(cell_s),
        "runner.cell_s_max": max(cell_s),
        "pool.map_s": map_s,
        "pool.idle_ratio": 1.0 - ratio(sum(cell_s), jobs * map_s),
        "pool.job_bytes": statistics.fmean(
            span.counts["job_bytes"] for span in cells),
        "pool.result_bytes": statistics.fmean(
            span.counts["result_bytes"] for span in cells),
        "diskcache.put_s": times.get("diskcache.put", 0.0),
    })
    return layers
