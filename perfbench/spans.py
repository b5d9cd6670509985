"""Span recording around the simulator's public calls, from outside it.

:class:`Recorder` wraps named functions and methods of the ``repro``
package (module attributes and class attributes) so every call records
one span: name, start, end, parent span and a group id shared by all
spans of one frame or one suite cell.  Nothing inside ``src/`` changes;
:meth:`Recorder.installed` puts the wrappers in place and restores the
originals on exit.

Spans stay in memory.  Pool workers forked while the wrappers are
installed inherit them; a worker appends each finished cell's spans to
a spool file, which the parent reads back with :meth:`Recorder.load_spool`
once the pool has shut down.

:func:`layer_times` turns spans into per-layer *self* time: a span's
duration minus the time its child spans cover.  The layers partition
every root span, so layer self times add up to the roots' wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import time
from typing import Dict, Iterator, List, Optional


class Span:
    """One recorded call.  ``counts`` carries exact work counts taken
    at the boundary (entries of a tile job, ops of a replayed trace,
    counters of a rendered frame)."""

    __slots__ = ("name", "start", "end", "parent", "group", "counts")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 group: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.group = group
        self.counts: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self, offset: int = 0) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": None if self.parent is None
                else self.parent - offset,
                "group": self.group, "counts": self.counts}


# -- what a finished call contributes to its span's counts --------------------

def _frame_counts(args, result) -> Dict[str, float]:
    """Exact counters of one rendered frame (FrameStats + memsys)."""
    stats = result.stats
    counts = {name: getattr(stats, name) for name in FRAME_STAT_COUNTS}
    counts["dram_cycles"] = (result.geometry.dram_cycles
                             + result.raster.dram_cycles)
    for record in (result.geometry, result.raster):
        for unit, counters in record.units.items():
            group = "texture" if unit.startswith("texture") else unit
            if group == "dram":
                continue
            for key in ("accesses", "hits", "misses"):
                name = f"{group}.{key}"
                counts[name] = counts.get(name, 0) + counters.get(key, 0)
    return counts


FRAME_STAT_COUNTS = (
    "primitives_in", "primitives_culled", "primitive_tile_pairs",
    "signature_updates", "signature_checks", "tiles_skipped",
    "signature_poisons", "tiles_rendered", "predictions_made",
    "predicted_occluded", "mispredicted_visible", "fragments_generated",
    "early_z_kills", "fragments_shaded",
)

MEMSYS_UNITS = ("vertex", "tile", "texture", "l2")


def _tile_job_counts(args, result) -> Dict[str, float]:
    return {"entries": len(args[0].entries)}


def _replay_counts(args, result) -> Dict[str, float]:
    return {"ops": len(args[0])}


def _built_frame_counts(args, result) -> Dict[str, float]:
    return {"draws": len(result.commands)}


def _cell_counts(args, result) -> Dict[str, float]:
    return {"job_bytes": len(pickle.dumps(args[0])),
            "result_bytes": len(pickle.dumps(result))}


def targets():
    """``(owner, attribute, span name, counts)`` for every wrapped call.

    Imported lazily: the benchmark puts the checkout's ``src`` on the
    path before anything from ``repro`` loads.
    """
    from repro.engine.diskcache import DiskCache
    from repro.engine.scheduler import ProcessPoolScheduler
    from repro.commands.stream import FrameStream
    from repro.harness import runner
    from repro.kernels import batched, reference
    from repro.memsys.batched import BatchedMemorySystem
    from repro.memsys.hierarchy import MemorySystem
    from repro.pipeline import raster
    from repro.pipeline.geometry import GeometryPipeline
    from repro.pipeline.gpu import GPU

    calls = [
        (GPU, "render_frame", "frame", _frame_counts),
        (GeometryPipeline, "process_frame", "geometry", None),
        (raster.RasterPipeline, "render_frame", "raster", None),
        (raster, "execute_tile_job", "tile_job", _tile_job_counts),
        (batched, "prepare_tile", "kernels.prepare", None),
        (reference, "prepare_tile", "kernels.prepare", None),
        (raster, "replay_memory_trace", "memsys.replay", _replay_counts),
        (FrameStream, "frame", "scenes.build", _built_frame_counts),
        (runner, "_run_pair", "cell", _cell_counts),
        (runner, "metrics_from_result", "metrics.distill", None),
        (runner.SuiteRunner, "run_many", "runner.run_many", None),
        (ProcessPoolScheduler, "map", "pool.map", None),
        (DiskCache, "get", "diskcache.get", None),
        (DiskCache, "put", "diskcache.put", None),
    ]
    for memsys in (BatchedMemorySystem, MemorySystem):
        # ``drain`` is called explicitly only by the raster reduce step;
        # the drains inside ``instrumentation`` are private calls.
        calls.append((memsys, "drain", "memsys.replay", None))
        for method in ("instrumentation", "end_frame", "reset_stats"):
            calls.append((memsys, method, "memsys.instr", None))
    return calls


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, spool_dir: Optional[str] = None,
                 clock=time.perf_counter, gauge=None):
        """``clock`` stamps span starts and ends (wall time by default).
        ``gauge``, when given, is sampled just before and just after
        every root span, outside it; the samples land in the span's
        counts as ``gauge_before`` and ``gauge_after``."""
        self.spans: List[Span] = []
        self.spool_dir = spool_dir
        self.clock = clock
        self.gauge = gauge
        self._stack: List[int] = []
        self._group: Optional[str] = None
        self._roots = 0
        self._pid = os.getpid()
        self._owner = self._pid

    def _wrap(self, function, name: str, counter):
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder._owner:
                # First call in a forked pool worker: the spans and the
                # open stack copied from the parent are not this
                # process's.
                recorder._owner = os.getpid()
                recorder.spans = []
                recorder._stack = []
            stack = recorder._stack
            if not stack:
                # A root span (a frame of the in-process loop, a suite
                # cell in a worker, a sweep in the parent) opens a group.
                recorder._roots += 1
                recorder._group = f"{os.getpid()}.{recorder._roots}"
            gauged = recorder.gauge is not None and not stack
            before = recorder.gauge() if gauged else None
            span = Span(name, 0.0, stack[-1] if stack else None,
                        recorder._group)
            index = len(recorder.spans)
            recorder.spans.append(span)
            stack.append(index)
            clock = recorder.clock
            span.start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            if gauged:
                span.counts.update(gauge_before=before,
                                   gauge_after=recorder.gauge())
            if name == "cell" and os.getpid() != recorder._pid:
                recorder._spool(index)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, only=None) -> Iterator["Recorder"]:
        """Wrap every target, or those whose span name is in ``only``,
        for the duration of the block."""
        originals = []
        try:
            for owner, attribute, name, counter in targets():
                if only is not None and name not in only:
                    continue
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    # -- pool workers ------------------------------------------------------

    def _spool(self, first: int) -> None:
        """Append the spans of the cell that started at ``first`` to
        this worker's spool file and drop them from memory."""
        spans = self.spans[first:]
        del self.spans[first:]
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps([span.as_dict(first) for span in spans])
                         + "\n")

    def load_spool(self) -> None:
        """Move every spooled worker span into :attr:`spans`."""
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path) as handle:
                for line in handle:
                    offset = len(self.spans)
                    for data in json.loads(line):
                        span = Span(data["name"], data["start"],
                                    None if data["parent"] is None
                                    else data["parent"] + offset,
                                    data["group"])
                        span.end = data["end"]
                        span.counts = data["counts"]
                        self.spans.append(span)
            os.remove(path)

    def take(self) -> List[Span]:
        """Hand over every recorded span and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.seconds
    return own


#: Span name -> the layer its self time belongs to.  Every name the
#: recorder emits under a frame appears here, so the frame layers
#: partition the frame's wall time.
FRAME_LAYERS = {
    "frame": "frame.unattributed",
    "geometry": "geometry",
    "raster": "raster",
    "tile_job": "tile_job.self",
    "kernels.prepare": "kernels.prepare",
    "memsys.replay": "memsys.replay",
    "memsys.instr": "memsys.instr",
}


def layer_times(spans: List[Span]) -> Dict[str, float]:
    """Summed self time per span name (frame names mapped to layers)."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = FRAME_LAYERS.get(span.name, span.name)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
