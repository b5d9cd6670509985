"""The event bus and the span: the one instrumentation stream.

Every measurement the simulator reports about *itself* — where wall time
went, which worker ran which job, how a run progressed — travels as a
typed event on one process-wide bus.  Durations have exactly one source:

* :func:`span` times a block.  With the :data:`NULL_BUS` installed (the
  default) it returns a shared no-op, so an instrumented call site costs
  one function call.  Otherwise it reads ``time.perf_counter`` once at
  entry and once at exit and publishes one :class:`Span` carrying name,
  category, both endpoints, the executing pid and its args.  The handle
  lets the call site attach args before exit (``handle.args[...]``,
  guarded by ``handle.enabled``).
* :class:`RunStarted`, :class:`MetricSample` and :class:`FaultInjected`
  are markers without a duration; :class:`CorpusFamilyChecked` reports
  a corpus family's verdict with the gate's own elapsed seconds.

Subscribers (the Chrome tracer, scheduler profiler, ledger phase
accumulator, live renderer, metrics registry, JSONL event log) all read
this one stream, so they can never disagree about a timing.

**Wire schema (v2).**  One JSON object per line carrying ``v``
(:data:`EVENT_SCHEMA_VERSION`), ``kind``, ``seq`` (monotonic per bus),
``ts`` (wall-clock seconds) and the event's own fields.  The version
bumps whenever a field is removed or changes meaning; readers skip
lines of any other version and ignore unknown fields.

**Worker forwarding.**  Work mapped by a scheduler runs inside
:class:`EventForwardingCall`, which opens the job's span where the job
runs.  In a pool worker it also installs a buffering bus for the call;
the buffered events ride home next to the result, and the parent
re-emits them (re-stamped, so the merged stream stays ordered) when it
unwraps the result.  ``perf_counter`` is system-wide monotonic, so
worker span endpoints are comparable with the parent's.

**One-way by construction.**  Nothing here is read back by the
simulation, and a subscriber that raises is disconnected with a warning
rather than allowed to fail the run: a run with subscribers attached is
bit-identical to a bare run.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

from .log import get_logger

logger = get_logger("obs.events")

#: Bumped when an existing wire field is removed or changes meaning.
#: New fields may be added without a bump (readers ignore unknowns).
EVENT_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Event types (the versioned schema)
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """A finished, timed interval.

    ``start``/``end`` are ``time.perf_counter`` readings in the process
    that ran the block (``worker`` is its pid).  Categories in use:
    ``run``, ``frame``, ``phase``, ``geometry``, ``raster``, ``tile`` and
    ``cell`` (scheduler jobs), ``scheduler`` (one ``map`` call),
    ``harness``, ``cache`` and ``resilience``.
    """

    name: str
    category: str
    start: float
    end: float
    worker: int = 0
    args: Dict[str, Any] = field(default_factory=dict)
    seq: int = 0
    ts: float = 0.0

    kind = "span"

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class RunStarted:
    """One (benchmark, mode) simulation is about to render; its ``run``
    span follows once it finishes."""

    benchmark: str
    mode: str
    frames: int = 0
    seq: int = 0
    ts: float = 0.0

    kind = "run-started"


@dataclass
class MetricSample:
    """A named scalar sampled mid-run (suite progress, bench rates)."""

    name: str
    value: float
    seq: int = 0
    ts: float = 0.0

    kind = "metric-sample"


@dataclass
class FaultInjected:
    """The resilience layer observed a retryable failure."""

    key: str
    attempt: int
    fault: str
    seq: int = 0
    ts: float = 0.0

    kind = "fault-injected"


@dataclass
class CorpusFamilyChecked:
    """The corpus gate finished differentially validating one stress
    family.

    ``failures`` counts violated checks; ``shrink_evals`` is non-zero
    only when a violation triggered the delta-debugging shrinker.
    """

    family: str
    frames: int
    seconds: float
    passed: bool
    checks: int = 0
    failures: int = 0
    shrink_evals: int = 0
    seq: int = 0
    ts: float = 0.0

    kind = "corpus-family-checked"


Event = Union[Span, RunStarted, MetricSample, FaultInjected,
              CorpusFamilyChecked]

EVENT_TYPES: Tuple[Type, ...] = (
    Span, RunStarted, MetricSample, FaultInjected, CorpusFamilyChecked,
)

_KIND_TO_TYPE: Dict[str, Type] = {cls.kind: cls for cls in EVENT_TYPES}


def to_wire(event: Event) -> Dict[str, Any]:
    """The event's JSONL wire object (``v`` + ``kind`` + fields)."""
    record: Dict[str, Any] = {"v": EVENT_SCHEMA_VERSION, "kind": event.kind}
    record.update(vars(event))
    return record


def event_from_wire(record: Dict[str, Any]) -> Optional[Event]:
    """Rebuild an event from its wire object.

    Returns ``None`` for unknown kinds or unsupported schema versions
    (readers of event logs skip rather than crash); unknown *fields* of
    a known kind are ignored (additive schema evolution).
    """
    if record.get("v") != EVENT_SCHEMA_VERSION:
        return None
    cls = _KIND_TO_TYPE.get(record.get("kind", ""))
    if cls is None:
        return None
    known = {field.name for field in dataclasses.fields(cls)}
    try:
        return cls(**{key: value for key, value in record.items()
                      if key in known})
    except (TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------

Subscriber = Callable[[Event], None]


class NullBus:
    """Events disabled: every operation is a no-op."""

    enabled = False

    def emit(self, event: Event) -> None:
        return None

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        raise RuntimeError(
            "cannot subscribe to the null bus; install an EventBus first "
            "(see repro.obs.events.publishing)"
        )


NULL_BUS = NullBus()


class EventBus:
    """Fans typed events out to subscribers, stamping monotonic ``seq``.

    Emission is synchronous and in subscription order.  A subscriber
    that raises is disconnected (with a warning) instead of failing the
    run — observability must never change a result, and a run whose
    event log dies mid-way is still a correct run.
    """

    enabled = True

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        self._seq = 0
        self.emitted = 0

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Attach ``subscriber``; returns it (decorator-friendly)."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)

    def emit(self, event: Event) -> None:
        """Stamp ``seq`` (and ``ts``, unless set) on the event in place and
        deliver it to every subscriber.  An event object is emitted once
        per bus; a worker's events reach the parent as fresh copies."""
        self._seq += 1
        event.seq = self._seq
        if not event.ts:
            event.ts = time.time()
        self.emitted += 1
        for subscriber in list(self._subscribers):
            try:
                subscriber(event)
            except Exception as error:  # noqa: BLE001 - one-way contract
                self.unsubscribe(subscriber)
                logger.warning(
                    "event subscriber %r failed (%r); disconnected",
                    subscriber, error,
                )


Bus = Union[NullBus, EventBus]

_CURRENT: Bus = NULL_BUS


def get_bus() -> Bus:
    """The process-wide bus instrumented call sites publish on."""
    return _CURRENT


def set_bus(bus: Bus) -> Bus:
    """Install ``bus`` process-wide; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = bus
    return previous


@contextmanager
def publishing(bus: Bus) -> Iterator[Bus]:
    """Scoped :func:`set_bus`: restores the previous bus on exit."""
    previous = set_bus(bus)
    try:
        yield bus
    finally:
        set_bus(previous)


@contextmanager
def subscribed(subscriber: Subscriber) -> Iterator[Bus]:
    """Attach ``subscriber`` to the installed bus for the block,
    installing a fresh :class:`EventBus` first when only the null bus
    is there."""
    bus = _CURRENT
    if not bus.enabled:
        with publishing(EventBus()) as fresh:
            fresh.subscribe(subscriber)
            yield fresh
        return
    bus.subscribe(subscriber)
    try:
        yield bus
    finally:
        bus.unsubscribe(subscriber)


# ---------------------------------------------------------------------------
# The span
# ---------------------------------------------------------------------------

class _NullSpan:
    """The shared do-nothing span handed out while the bus is off."""

    __slots__ = ()

    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """A span in progress; publishes one :class:`Span` when it exits."""

    __slots__ = ("_bus", "name", "category", "args", "start")

    enabled = True

    def __init__(self, bus: EventBus, name: str, category: str,
                 args: Dict[str, Any]):
        self._bus = bus
        self.name = name
        self.category = category
        self.args = args
        self.start = 0.0

    def __enter__(self) -> "_OpenSpan":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self._bus.emit(Span(self.name, self.category, self.start, end,
                            os.getpid(), self.args))


def span(name: str, category: str = "sim",
         **args: Any) -> Union[_NullSpan, _OpenSpan]:
    """Time a ``with`` block and publish it as one :class:`Span`."""
    bus = _CURRENT
    if not bus.enabled:
        return _NULL_SPAN
    return _OpenSpan(bus, name, category, args)


@contextmanager
def run_span(benchmark: str, mode: str, frames: int) -> Iterator[None]:
    """Announce one (benchmark, mode) simulation: a :class:`RunStarted`
    marker at entry, then a ``run`` span covering the block."""
    bus = _CURRENT
    if bus.enabled:
        bus.emit(RunStarted(benchmark=benchmark, mode=mode, frames=frames))
    with span(f"run {benchmark}:{mode}", "run", benchmark=benchmark,
              mode=mode, frames=frames):
        yield


# ---------------------------------------------------------------------------
# Worker-side forwarding (the result-channel wire)
# ---------------------------------------------------------------------------

class _BufferBus(EventBus):
    """The bus installed inside a worker: buffers instead of delivering."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Event] = []
        self.subscribe(self.events.append)


@dataclass
class ForwardedResult:
    """Wire record pairing a job's result with its buffered events."""

    result: Any
    events: List[Event]


#: Span categories of scheduler jobs (see :func:`job_label`).
TILE_JOB = "tile"
CELL_JOB = "cell"
JOB_CATEGORIES = (TILE_JOB, CELL_JOB)

_MAP_IDS = itertools.count(1)


def next_map_id() -> str:
    """A fresh id tying one ``map`` span to its job spans; unique across
    processes (pool workers number their own maps under their pid)."""
    return f"{os.getpid()}.{next(_MAP_IDS)}"


def job_label(item: Any) -> Tuple[str, str]:
    """``(span name, category)`` of one mapped work item: tile jobs are
    ``tile <n>`` in category ``tile``; suite cells ``<bench>:<mode>``
    and anything else category ``cell``."""
    tile = getattr(item, "tile", None)
    if tile is not None:
        return f"tile {tile}", TILE_JOB
    if isinstance(item, tuple) and len(item) >= 2:
        return f"{item[0]}:{item[1]}", CELL_JOB
    return "job", CELL_JOB


class EventForwardingCall:
    """The one worker wrapper: runs a mapped call inside its job span.

    In the parent process (serial scheduler, or a pool's single-item
    shortcut) the span and any events the job emits reach the live bus
    directly, and nothing is forwarded.  In a worker — including one
    forked with the parent's bus object inherited — a fresh buffering
    bus is installed for the call's duration, and the buffered events
    (the job span last) ride home next to the result for the parent to
    re-emit in submission order.
    """

    def __init__(self, fn: Callable[[Any], Any],
                 parent_pid: Optional[int] = None,
                 map_id: Optional[str] = None):
        self.fn = fn
        self.parent_pid = os.getpid() if parent_pid is None else parent_pid
        self.map_id = map_id

    def __call__(self, item: Any) -> ForwardedResult:
        name, category = job_label(item)
        if os.getpid() == self.parent_pid:
            with span(name, category, map=self.map_id):
                return ForwardedResult(self.fn(item), [])
        buffer = _BufferBus()
        with publishing(buffer):
            with span(name, category, map=self.map_id):
                result = self.fn(item)
        return ForwardedResult(result, buffer.events)


def replay_forwarded(value: Any, bus: Optional[Bus] = None) -> Any:
    """Parent-side unwrap: re-emit a job's buffered events, return its
    result.  Passes non-forwarded values through untouched, so unwrap
    sites need not know whether forwarding was armed."""
    if not isinstance(value, ForwardedResult):
        return value
    target = get_bus() if bus is None else bus
    if target.enabled:
        for event in value.events:
            target.emit(event)
    return value.result


# ---------------------------------------------------------------------------
# Subscribers: event log and metrics registry
# ---------------------------------------------------------------------------

#: Span categories the JSONL event log carries: runs, phases, scheduler
#: jobs, the suite sweep and pool rebuilds.  The finer spans (frames,
#: geometry commands, raster stages, ``map`` calls, cache operations)
#: reach the in-memory subscribers and the trace but not the log, which
#: keeps the per-event write cost of ``--events`` bounded.
LOGGED_SPAN_CATEGORIES = frozenset(
    ("run", "phase", TILE_JOB, CELL_JOB, "harness", "resilience"))


class JsonlEventWriter:
    """Streams events to a JSONL file, crash-durably.

    Every marker and every span in :data:`LOGGED_SPAN_CATEGORIES` is
    written and flushed as it arrives, so a faulted or killed run leaves
    a valid prefix of the stream on disk; ``close()`` is idempotent and
    registered with ``atexit`` by the CLI as the flush-on-crash backstop.
    """

    def __init__(self, path: str):
        self.path = path
        self.written = 0
        self._handle: Optional[IO[str]] = open(path, "w")

    def __call__(self, event: Event) -> None:
        if self._handle is None or (
                isinstance(event, Span)
                and event.category not in LOGGED_SPAN_CATEGORIES):
            return
        self._handle.write(json.dumps(to_wire(event), sort_keys=True))
        self._handle.write("\n")
        self._handle.flush()
        self.written += 1

    def close(self) -> None:
        handle = self._handle
        self._handle = None
        if handle is not None:
            handle.close()


def read_event_log(path: str) -> List[Event]:
    """Parse a JSONL event log back into typed events (unknown kinds
    and foreign schema versions are skipped)."""
    events: List[Event] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            event = event_from_wire(record)
            if event is not None:
                events.append(event)
    return events


class MetricsSubscriber:
    """Counts bus events into a metrics registry (``events.*``): per-kind
    counters, phase-seconds histograms and metric-sample gauges."""

    def __init__(self, registry) -> None:
        self.registry = registry

    def __call__(self, event: Event) -> None:
        registry = self.registry
        registry.counter(f"events.{event.kind}").inc()
        if isinstance(event, Span):
            if event.category == "phase":
                registry.histogram(
                    f"events.phase_seconds.{event.name}"
                ).observe(event.seconds)
        elif isinstance(event, MetricSample):
            registry.gauge(f"events.sample.{event.name}").set(event.value)


def cache_ops_of(instrumentation) -> int:
    """Simulated cache-unit accesses in one instrumentation record (the
    ``cache_ops`` arg of a phase span)."""
    return sum(counters.get("accesses", 0)
               for counters in instrumentation.units.values())
