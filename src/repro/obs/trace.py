"""The Chrome/Perfetto trace: a bus subscriber that writes trace-event JSON.

:class:`ChromeTracer` subscribes to the event bus
(:mod:`repro.obs.events`) and turns every event into one `trace-event`__
record: each :class:`~repro.obs.events.Span` becomes a "complete" (``X``)
event, every other event an instant (``i``) named after its kind.  Both
carry the event's bus ``seq`` in their args, so every line of a JSONL
event log of the same run can be found in the trace.

__ https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

Spans land on the lane of the process that ran them: ``main`` for the
process that built the tracer, ``worker-<pid>`` for a pool worker, so a
pooled run renders as one lane per worker with its cells, frames and
phases nested inside.  Instants go on ``main`` at the moment the parent
receives them.  The output loads in ``chrome://tracing`` or
https://ui.perfetto.dev.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from typing import IO, Any, Dict, List, Optional, Union

from .events import Event, Span

MAIN_TRACK = "main"


class ChromeTracer:
    """Buffers trace events and serializes them as trace-event JSON.

    All events share one virtual process (pid 1); tracks map to thread
    ids, named through ``thread_name`` metadata events so viewers show
    ``main``, ``worker-<pid>``, … as labelled lanes.
    """

    _PID = 1

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._epoch = time.perf_counter()
        self._pid = os.getpid()
        self._tracks: Dict[str, int] = {}
        self._flush_path: Optional[str] = None
        self._atexit_armed = False

    # -- tracks and time ----------------------------------------------------

    def track_id(self, label: str) -> int:
        """Thread id of ``label``'s track, allocating it on first use."""
        tid = self._tracks.get(label)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[label] = tid
            self.events.append({
                "name": "thread_name", "ph": "M", "pid": self._PID,
                "tid": tid, "args": {"name": label},
            })
        return tid

    def _to_us(self, t: float) -> float:
        return (t - self._epoch) * 1e6

    # -- the subscriber -----------------------------------------------------

    def __call__(self, event: Event) -> None:
        if isinstance(event, Span):
            track = (MAIN_TRACK if event.worker == self._pid
                     else f"worker-{event.worker}")
            self.events.append({
                "name": event.name, "cat": event.category, "ph": "X",
                "ts": self._to_us(event.start),
                "dur": max(0.0, event.seconds * 1e6),
                "pid": self._PID, "tid": self.track_id(track),
                "args": {**event.args, "seq": event.seq},
            })
            return
        args = {key: value for key, value in vars(event).items()
                if key != "ts"}
        self.events.append({
            "name": event.kind, "cat": "event", "ph": "i",
            "ts": self._to_us(time.perf_counter()), "s": "t",
            "pid": self._PID, "tid": self.track_id(MAIN_TRACK),
            "args": args,
        })

    # -- export -------------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """The trace as a JSON-serializable object (JSON Object Format)."""
        return {"traceEvents": self.events, "displayTimeUnit": "ms"}

    def write(self, file: Union[str, IO[str]]) -> None:
        """Serialize the trace to ``file`` (path or text handle)."""
        # ``dumps`` takes the C encoder; ``dump`` would stream through
        # the pure-Python one, which is slow on large traces.
        text = json.dumps(self.export())
        if isinstance(file, str):
            with open(file, "w") as handle:
                handle.write(text)
        else:
            file.write(text)

    # -- crash durability ----------------------------------------------------

    def arm_flush(self, path: str) -> None:
        """Make the buffered trace crash-durable: if the process exits —
        cleanly, on an unhandled exception, or on any signal that still
        runs ``atexit`` — before :meth:`disarm_flush`, whatever spans
        have accumulated are written to ``path``.  The buffer always
        holds only *finished* events, so a partial trace is still valid
        trace-event JSON."""
        self._flush_path = path
        if not self._atexit_armed:
            self._atexit_armed = True
            atexit.register(self._flush_at_exit)

    def disarm_flush(self) -> None:
        """The trace was written normally; the exit hook becomes a no-op."""
        self._flush_path = None

    def _flush_at_exit(self) -> None:
        path = self._flush_path
        self._flush_path = None
        if path is None:
            return
        try:
            self.write(path)
        except Exception:  # noqa: BLE001 - last-gasp flush, never raise
            pass

    # -- analysis (used by ``repro profile`` and ``repro bench``) -----------

    def spans(self, category: Optional[str] = None) -> List[Dict[str, Any]]:
        """Complete events, optionally filtered by category."""
        return [
            event for event in self.events
            if event.get("ph") == "X"
            and (category is None or event.get("cat") == category)
        ]
