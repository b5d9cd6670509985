"""Tests for :class:`repro.resilience.ResilientScheduler`.

The failure paths are staged exactly with :class:`ScriptedFaultPlan`
(fault kind per (job-key, attempt)), so every scenario — retry on raise,
corrupt-result rejection, worker crash with pool rebuild, hang with
per-job timeout, degradation to serial — is deterministic and fast.
Job keys are ``"<batch>:<index>"`` with batches counted per scheduler
instance, so a fresh scheduler's first ``map`` uses keys ``1:0, 1:1, …``.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import ProcessPoolScheduler, SerialScheduler
from repro.errors import (
    JobRetryExhaustedError,
    JobTimeoutError,
    WorkerCrashError,
)
from repro.obs.metrics import global_registry
from repro.resilience import (
    JobFailure,
    ResilientScheduler,
    RetryPolicy,
    ScriptedFaultPlan,
    backoff_delay,
)

# Fast policies: effectively-zero backoff keeps the retry tests snappy.
FAST = RetryPolicy(max_attempts=3, backoff_base=0.001, backoff_max=0.002)


def _square(n: int) -> int:
    return n * n


def _flaky_once(arg):
    """Raises on item 3 exactly once (a flag file remembers), then heals
    — the shape of a real transient failure, not an injected one."""
    n, flag = arg
    if n == 3 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        raise RuntimeError("transient failure")
    return n * n


def _boom_on_two(n):
    if n == 2:
        raise RuntimeError("permanent failure")
    return n


def _fresh_registry():
    registry = global_registry()
    registry.reset()
    return registry


class TestSerialPath:
    def test_passthrough_without_faults(self):
        with ResilientScheduler(SerialScheduler(), policy=FAST) as scheduler:
            assert scheduler.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_map(self):
        with ResilientScheduler(SerialScheduler(), policy=FAST) as scheduler:
            assert scheduler.map(_square, []) == []

    def test_retries_transient_raise(self):
        registry = _fresh_registry()
        plan = ScriptedFaultPlan({("1:1", 1): "raise", ("1:1", 2): "raise"})
        with ResilientScheduler(SerialScheduler(), policy=FAST,
                                fault_plan=plan) as scheduler:
            assert scheduler.map(_square, [5, 6, 7]) == [25, 36, 49]
        assert registry.counter("resilience.retries").value == 2
        assert registry.counter("resilience.injected_faults").value == 2
        assert registry.counter("resilience.jobs_failed").value == 0

    def test_retries_corrupt_result(self):
        registry = _fresh_registry()
        plan = ScriptedFaultPlan({("1:0", 1): "corrupt"})
        with ResilientScheduler(SerialScheduler(), policy=FAST,
                                fault_plan=plan) as scheduler:
            assert scheduler.map(_square, [4]) == [16]
        assert registry.counter("resilience.corrupt_results").value == 1

    def test_crash_converted_in_process(self):
        # Serial execution cannot lose a worker; an injected crash is
        # converted to an ordinary (retryable) exception.
        plan = ScriptedFaultPlan({("1:0", 1): "crash"})
        with ResilientScheduler(SerialScheduler(), policy=FAST,
                                fault_plan=plan) as scheduler:
            assert scheduler.map(_square, [2]) == [4]

    def test_exhaustion_raises_typed_error(self):
        plan = ScriptedFaultPlan({("1:0", attempt): "raise"
                                  for attempt in (1, 2, 3)})
        with ResilientScheduler(SerialScheduler(), policy=FAST,
                                fault_plan=plan) as scheduler:
            with pytest.raises(JobRetryExhaustedError) as excinfo:
                scheduler.map(_square, [1])
        assert excinfo.value.key == "1:0"
        assert excinfo.value.attempts == 3

    def test_map_resilient_returns_failure_slots(self):
        registry = _fresh_registry()
        plan = ScriptedFaultPlan({("1:1", attempt): "raise"
                                  for attempt in (1, 2, 3)})
        settled = []
        with ResilientScheduler(SerialScheduler(), policy=FAST,
                                fault_plan=plan) as scheduler:
            results = scheduler.map_resilient(
                _square, [1, 2, 3],
                on_result=lambda index, value: settled.append(index),
            )
        assert results[0] == 1 and results[2] == 9
        failure = results[1]
        assert isinstance(failure, JobFailure)
        assert (failure.index, failure.kind, failure.attempts) == (1, "error", 3)
        assert sorted(settled) == [0, 1, 2]
        assert registry.counter("resilience.jobs_failed").value == 1

    def test_backoff_delays_follow_policy(self):
        plan = ScriptedFaultPlan({("1:0", 1): "raise", ("1:0", 2): "raise"})
        scheduler = ResilientScheduler(SerialScheduler(), policy=FAST,
                                       fault_plan=plan)
        slept = []
        scheduler._sleep = slept.append
        assert scheduler.map(_square, [3]) == [9]
        assert slept == [backoff_delay(FAST, 1, "1:0"),
                         backoff_delay(FAST, 2, "1:0")]

    def test_batches_are_keyed_independently(self):
        # The second map's jobs draw under batch 2, so a batch-1 script
        # leaves them untouched.
        plan = ScriptedFaultPlan({("1:0", attempt): "raise"
                                  for attempt in (1, 2, 3)})
        with ResilientScheduler(SerialScheduler(), policy=FAST,
                                fault_plan=plan) as scheduler:
            assert isinstance(
                scheduler.map_resilient(_square, [1])[0], JobFailure
            )
            assert scheduler.map(_square, [1]) == [1]


class TestJobFailureTaxonomy:
    def test_to_error_by_kind(self):
        make = lambda kind: JobFailure(0, "1:0", kind, "boom", 3)
        assert isinstance(make("timeout").to_error(), JobTimeoutError)
        assert isinstance(make("crash").to_error(), WorkerCrashError)
        assert isinstance(make("error").to_error(), JobRetryExhaustedError)
        assert isinstance(make("corrupt").to_error(), JobRetryExhaustedError)


class TestPoolPath:
    def test_passthrough_preserves_order(self):
        with ProcessPoolScheduler(2) as pool:
            with ResilientScheduler(pool, policy=FAST) as scheduler:
                assert scheduler.map(_square, list(range(8))) == [
                    n * n for n in range(8)
                ]

    def test_retries_injected_raise_under_pool(self):
        registry = _fresh_registry()
        plan = ScriptedFaultPlan({("1:2", 1): "raise"})
        with ProcessPoolScheduler(2) as pool:
            with ResilientScheduler(pool, policy=FAST,
                                    fault_plan=plan) as scheduler:
                assert scheduler.map(_square, list(range(5))) == [
                    n * n for n in range(5)
                ]
        assert registry.counter("resilience.injected_faults").value == 1
        assert registry.counter("resilience.pool_rebuilds").value == 0

    def test_worker_crash_rebuilds_pool(self):
        registry = _fresh_registry()
        plan = ScriptedFaultPlan({("1:1", 1): "crash"})
        with ProcessPoolScheduler(2) as pool:
            with ResilientScheduler(pool, policy=FAST,
                                    fault_plan=plan) as scheduler:
                assert scheduler.map(_square, list(range(4))) == [
                    0, 1, 4, 9
                ]
                assert not scheduler._degraded
        assert registry.counter("resilience.pool_rebuilds").value >= 1
        assert registry.counter("resilience.crashes").value >= 1

    def test_hang_trips_timeout_and_recovers(self):
        registry = _fresh_registry()
        plan = ScriptedFaultPlan({("1:0", 1): "hang"}, hang_seconds=20.0)
        policy = RetryPolicy(max_attempts=3, timeout_seconds=0.4,
                             backoff_base=0.001, backoff_max=0.002)
        with ProcessPoolScheduler(2) as pool:
            with ResilientScheduler(pool, policy=policy,
                                    fault_plan=plan) as scheduler:
                assert scheduler.map(_square, [1, 2]) == [1, 4]
        assert registry.counter("resilience.timeouts").value >= 1
        assert registry.counter("resilience.pool_rebuilds").value >= 1

    def test_degrades_to_serial_after_rebuild_budget(self):
        registry = _fresh_registry()
        plan = ScriptedFaultPlan({("1:0", 1): "crash"})
        policy = RetryPolicy(max_attempts=3, backoff_base=0.001,
                             backoff_max=0.002, max_pool_rebuilds=0)
        with ProcessPoolScheduler(2) as pool:
            with ResilientScheduler(pool, policy=policy,
                                    fault_plan=plan) as scheduler:
                assert scheduler.map(_square, list(range(4))) == [
                    0, 1, 4, 9
                ]
                assert scheduler._degraded
        assert registry.counter("resilience.serial_fallbacks").value == 1

    def test_timeout_exhaustion_is_typed(self):
        # Every attempt of job 0 hangs past the deadline: the job fails
        # permanently as a timeout; job 1 still completes.
        plan = ScriptedFaultPlan(
            {("1:0", attempt): "hang" for attempt in (1, 2)},
            hang_seconds=20.0,
        )
        policy = RetryPolicy(max_attempts=2, timeout_seconds=0.3,
                             backoff_base=0.001, backoff_max=0.002,
                             max_pool_rebuilds=8)
        with ProcessPoolScheduler(2) as pool:
            with ResilientScheduler(pool, policy=policy,
                                    fault_plan=plan) as scheduler:
                results = scheduler.map_resilient(_square, [0, 1])
        failure = results[0]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "timeout"
        assert isinstance(failure.to_error(), JobTimeoutError)
        assert results[1] == 1


class TestOptimisticFastPath:
    """With no fault plan and no timeout, pool batches take one chunked
    unsupervised pass; supervision only engages when that pass fails."""

    def test_real_transient_exception_recovers(self, tmp_path):
        registry = _fresh_registry()
        flag = str(tmp_path / "failed-once")
        items = [(n, flag) for n in range(5)]
        with ProcessPoolScheduler(2) as pool:
            with ResilientScheduler(pool, policy=FAST) as scheduler:
                assert scheduler.map(_flaky_once, items) == [
                    n * n for n in range(5)
                ]
        assert registry.counter("resilience.errors").value >= 1

    def test_permanent_exception_exhausts_whole_batch_budget(self):
        policy = RetryPolicy(max_attempts=1)
        with ProcessPoolScheduler(2) as pool:
            with ResilientScheduler(pool, policy=policy) as scheduler:
                results = scheduler.map_resilient(_boom_on_two, [1, 2, 3])
        # A failed chunked pass charges the whole batch one attempt; at
        # max_attempts=1 that exhausts every job.
        assert all(isinstance(value, JobFailure) for value in results)
        assert all(failure.attempts == 1 for failure in results)


class TestLifecycle:
    def test_close_delegates_and_is_idempotent(self):
        pool = ProcessPoolScheduler(2)
        scheduler = ResilientScheduler(pool, policy=FAST)
        scheduler.map(_square, [1, 2])
        scheduler.close()
        scheduler.close()
        assert pool._executor is None

    def test_properties_delegate(self):
        with ProcessPoolScheduler(3) as pool:
            scheduler = ResilientScheduler(pool, policy=FAST)
            assert scheduler.jobs == 3
            assert "ResilientScheduler" in repr(scheduler)
