"""Observability: one instrumentation stream and its subscribers.

The paper's argument is quantitative, and so is the simulator's account
of itself.  Everything it measures about its own execution travels one
path — span → bus → subscribers — without perturbing what it measures:

* :mod:`repro.obs.events` — the process-wide event bus (the only
  observability singleton) and :func:`~repro.obs.events.span`, the only
  timing primitive.  With the default :data:`~repro.obs.events.NULL_BUS`
  a span is a shared no-op; otherwise it reads ``perf_counter`` at entry
  and exit and publishes one :class:`~repro.obs.events.Span`.  Work a
  scheduler maps runs inside :class:`~repro.obs.events.EventForwardingCall`,
  which opens the job's span where it runs and ships a pool worker's
  buffered events home with the result.  Events have a versioned JSONL
  wire form; the ``--events`` log carries the markers and the run,
  phase and job spans.
* :mod:`repro.obs.trace` — :class:`~repro.obs.trace.ChromeTracer`, the
  subscriber behind ``--trace``: Chrome/Perfetto trace-event JSON with
  one lane per process.
* :mod:`repro.obs.profile` — :class:`~repro.obs.profile.SchedulerProfiler`,
  the subscriber deriving per-job time, queue wait and worker occupancy
  from job and ``map`` spans (``repro profile``).
* :mod:`repro.obs.ledger` — the persistent run ledger under
  ``.repro_ledger/`` with drift detection (``repro ledger check``); its
  :class:`~repro.obs.ledger.PhaseAccumulator` subscriber fills each
  cell's measured phase seconds.
* :mod:`repro.obs.live` — :class:`~repro.obs.live.LiveRenderer`, the
  subscriber behind ``--live``.
* :mod:`repro.obs.metrics` — counters, gauges and histograms plus the
  derived EVR telemetry (FVP confusion matrix, RE ratios); the bus feeds
  it through :class:`~repro.obs.events.MetricsSubscriber`, runtime
  components (disk cache, resilience) count into it directly.
* :mod:`repro.obs.dashboard` — renders the ledger (plus optional event
  and metrics logs) into one self-contained HTML page.
* :mod:`repro.obs.log` — logging configuration and the CLI output
  helper honoring ``-v/--verbose`` and ``-q/--quiet``.

Every subscriber is one-way: nothing is read back by the simulation, so
a run with any of them attached is bit-identical to a bare run.  Spans
sit at run / frame / phase / command / job granularity, never on the
per-fragment hot path.
"""

from .events import (
    EVENT_SCHEMA_VERSION,
    EventBus,
    EventForwardingCall,
    FaultInjected,
    JsonlEventWriter,
    MetricSample,
    MetricsSubscriber,
    NULL_BUS,
    NullBus,
    RunStarted,
    Span,
    event_from_wire,
    get_bus,
    publishing,
    read_event_log,
    replay_forwarded,
    run_span,
    set_bus,
    span,
    to_wire,
)
from .ledger import PhaseAccumulator, RunLedger, resolve_ledger_dir
from .live import LiveRenderer
from .log import Output, get_logger, setup_logging, verbosity_from_flags
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    frame_record,
    fvp_confusion_matrix,
    global_registry,
    re_ratios,
    run_record,
    write_csv_records,
    write_jsonl,
)
from .profile import SchedulerProfiler, phase_breakdown
from .trace import ChromeTracer

__all__ = [
    "Output",
    "get_logger",
    "setup_logging",
    "verbosity_from_flags",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "fvp_confusion_matrix",
    "re_ratios",
    "frame_record",
    "run_record",
    "write_jsonl",
    "write_csv_records",
    "SchedulerProfiler",
    "phase_breakdown",
    "ChromeTracer",
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "EventForwardingCall",
    "FaultInjected",
    "JsonlEventWriter",
    "MetricSample",
    "MetricsSubscriber",
    "NULL_BUS",
    "NullBus",
    "RunStarted",
    "Span",
    "event_from_wire",
    "get_bus",
    "publishing",
    "read_event_log",
    "replay_forwarded",
    "run_span",
    "set_bus",
    "span",
    "to_wire",
    "PhaseAccumulator",
    "RunLedger",
    "resolve_ledger_dir",
    "LiveRenderer",
]
