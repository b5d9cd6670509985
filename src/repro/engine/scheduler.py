"""Pluggable schedulers: how the engine fans work out.

A :class:`Scheduler` maps a picklable function over picklable items and
returns the results *in submission order* — that ordering contract is what
lets the engine reduce results deterministically regardless of execution
order.  Two implementations:

* :class:`SerialScheduler` — in-process, in-order; the default, and
  bit-identical to the historical inline loops.
* :class:`ProcessPoolScheduler` — a persistent
  :class:`concurrent.futures.ProcessPoolExecutor`; used for per-frame
  tile fan-out and for suite-level (benchmark, mode) fan-out.

Both are used through :func:`make_scheduler`, which turns a ``--jobs N``
style request into the right implementation.

``map`` takes an optional ``on_result(index, value)`` callback, invoked
in submission order as each result arrives (on the serial path, before
the next item runs), so callers can checkpoint work item by item.

With an event bus installed (:mod:`repro.obs.events`), both schedulers
run every mapped call inside :class:`~repro.obs.events.EventForwardingCall`
— the job's span opens where the job runs, and events a job emits inside
a pool worker ride the result channel home and are re-emitted on the
parent's bus, in submission order — and publish one ``map`` span around
the call.  The map span and its job spans share a ``map`` id arg.  The
wrapper passes results through untouched, so observed and bare runs are
bit-identical; with the null bus nothing is wrapped.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    TypeVar,
)

from ..obs.events import (
    EventForwardingCall,
    get_bus,
    next_map_id,
    replay_forwarded,
    span,
)

T = TypeVar("T")
R = TypeVar("R")

#: ``on_result(index, value)``: called as each mapped result arrives.
OnResult = Optional[Callable[[int, Any], None]]


class Scheduler(Protocol):
    """The engine's execution strategy.

    Implementations must return results in submission order and may
    assume ``fn`` and every item are picklable (the serial scheduler
    does not need that property, but callers must not rely on it).
    """

    def map(self, fn: Callable[[T], R], items: Sequence[T],
            on_result: OnResult = None) -> List[R]:
        """Apply ``fn`` to every item; results in submission order, each
        also handed to ``on_result`` as it arrives."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release any held workers (idempotent)."""
        ...  # pragma: no cover - protocol


def _settled(values: Iterable[R], on_result: OnResult) -> List[R]:
    """Drain ``values`` into a list, calling ``on_result`` per item."""
    if on_result is None:
        return list(values)
    results: List[R] = []
    for index, value in enumerate(values):
        results.append(value)
        on_result(index, value)
    return results


def _observed_map(run: Callable[[Callable, Sequence], Iterable],
                  fn: Callable[[T], R], items: Sequence[T],
                  on_result: OnResult) -> List[R]:
    """``run(fn, items)``, observed when a bus is installed: each call
    wrapped in :class:`EventForwardingCall`, the whole under one ``map``
    span, forwarded events replayed as results arrive."""
    bus = get_bus()
    if not bus.enabled:
        return _settled(run(fn, items), on_result)
    map_id = next_map_id()
    with span("map", "scheduler", jobs=len(items), map=map_id):
        return _settled(
            (replay_forwarded(value, bus)
             for value in run(EventForwardingCall(fn, map_id=map_id),
                              items)),
            on_result,
        )


class SerialScheduler:
    """Run everything inline, in order — the default execution strategy."""

    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T],
            on_result: OnResult = None) -> List[R]:
        return _observed_map(map, fn, items, on_result)

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "SerialScheduler()"


class ProcessPoolScheduler:
    """Fan work out to a persistent pool of worker processes.

    The executor is created lazily (constructing a scheduler is free) and
    kept alive across :meth:`map` calls so per-frame tile fan-out does not
    pay process start-up for every frame.  ``fork`` is preferred where
    available: workers inherit the parent's imports, which matters when a
    frame's tile jobs are small.
    """

    def __init__(self, jobs: int, mp_context: Optional[str] = None):
        if jobs < 2:
            raise ValueError("ProcessPoolScheduler needs jobs >= 2; "
                             "use SerialScheduler for jobs=1")
        self.jobs = jobs
        self._mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            import multiprocessing

            if self._mp_context is not None:
                context = multiprocessing.get_context(self._mp_context)
            elif "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:  # pragma: no cover - Windows/macOS spawn fallback
                context = multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._executor

    def map(self, fn: Callable[[T], R], items: Sequence[T],
            on_result: OnResult = None) -> List[R]:
        items = list(items)
        if not items:
            return []
        return _observed_map(self._map, fn, items, on_result)

    def _map(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterable[R]:
        if len(items) == 1:
            # One item gains nothing from a round-trip through the pool.
            return [fn(items[0])]
        executor = self._ensure_executor()
        chunksize = max(1, len(items) // (self.jobs * 4))
        return executor.map(fn, items, chunksize=chunksize)

    def close(self) -> None:
        """Shut the executor down gracefully (idempotent).

        The executor reference is dropped *before* shutdown so a failure
        mid-shutdown (or a re-entrant call) can neither leak the old
        executor nor double-close it.  ``getattr`` guards the case where
        ``__init__`` raised before ``_executor`` was ever assigned.
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is not None:
            executor.shutdown()

    def terminate(self) -> None:
        """Forcibly kill the pool, hung workers included (idempotent).

        Unlike :meth:`close`, this never waits on workers: a worker
        stuck in an endless job would block ``shutdown()`` forever, so
        the resilience layer uses this to reclaim the pool before
        rebuilding it.  Reaches into the executor's ``_processes`` —
        stdlib ``ProcessPoolExecutor`` offers no public kill switch —
        and degrades to a plain shutdown if that internal ever moves.
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is None:
            return
        processes = list((getattr(executor, "_processes", None) or {})
                         .values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                process.kill()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(timeout=1.0)
            except Exception:
                pass

    def __enter__(self) -> "ProcessPoolScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"ProcessPoolScheduler(jobs={self.jobs})"


def make_scheduler(jobs: Optional[int]) -> "Scheduler":
    """Turn a ``--jobs N`` request into a scheduler.

    ``None``, 0 and 1 mean serial; ``N >= 2`` means a process pool with N
    workers; negative N means one worker per CPU.
    """
    if jobs is not None and jobs < 0:
        jobs = os.cpu_count() or 1
    if not jobs or jobs == 1:
        return SerialScheduler()
    return ProcessPoolScheduler(jobs)
