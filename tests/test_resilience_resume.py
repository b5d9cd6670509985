"""Tests for resuming interrupted suite sweeps from the run cache.

The contract under test: a suite sweep stores every cell in the disk
cache as it settles, so a run killed at any instant leaves exactly the
finished cells behind, and a rerun reuses those cells *bit-identically*
while recomputing only the rest.  Failed cells are never cached.
"""

from __future__ import annotations

import contextlib
import math
import os

import pytest

from repro.config import GPUConfig
from repro.harness.runner import RunMetrics, SuiteRunner, failed_metrics
from repro.resilience import RetryPolicy, ScriptedFaultPlan
from repro.spec import ResilienceSpec, RunSpec
from repro.techniques import BASELINE, EVR, RE

CONFIG = GPUConfig.tiny(frames=2)
FAST = RetryPolicy(max_attempts=2, backoff_base=0.001, backoff_max=0.002)


def _entries(cache_dir) -> int:
    return sum(1 for name in os.listdir(cache_dir) if name.endswith(".pkl"))


class TestSuiteRunnerResume:
    def _runner(self, tmp_path, **kwargs):
        return SuiteRunner(CONFIG, jobs=1, retry_policy=FAST,
                           cache_dir=str(tmp_path), **kwargs)

    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path):
        # Reference: one uninterrupted sweep (no cache, no resilience).
        with SuiteRunner(CONFIG) as runner:
            reference = runner.run_many(["hop"], [BASELINE, EVR])
        # Pass 1 "dies" after completing only the BASELINE cell.
        with self._runner(tmp_path) as runner:
            runner.run_many(["hop"], [BASELINE])
        # Pass 2 reuses BASELINE from the cache and computes only EVR.
        with self._runner(tmp_path) as runner:
            resumed = runner.run_many(["hop"], [BASELINE, EVR])
            assert runner.cache_hits == 1
            assert runner.cache_misses == 1
        assert resumed == reference

    def test_resume_skips_all_finished_work(self, tmp_path):
        modes = [BASELINE, RE]
        with self._runner(tmp_path) as runner:
            first = runner.run_many(["hop"], modes)
        with self._runner(tmp_path) as runner:
            second = runner.run_many(["hop"], modes)
            assert runner.cache_hits == 2
            assert runner.cache_misses == 0
        assert second == first

    def test_resume_setting_changes_nothing(self, tmp_path):
        # ``resilience.resume`` still loads from old spec files, but
        # settled cells are reused whether or not it is set.
        def sweep(resume):
            spec = RunSpec.from_config(
                CONFIG, resilience=ResilienceSpec(resume=resume))
            with SuiteRunner(spec=spec, cache_dir=str(tmp_path)) as runner:
                return runner.run_many(["hop"], [BASELINE]), runner.cache_hits

        first, hits = sweep(resume=True)  # nothing to resume: runs
        assert hits == 0
        second, hits = sweep(resume=False)  # still reuses the cell
        assert hits == 1
        assert second == first

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["bare", "observed"])
    def test_serial_sweep_checkpoints_each_cell(self, tmp_path, monkeypatch,
                                                observed):
        # A plain jobs=1 sweep (no supervision) whose second cell raises
        # keeps the first cell in the disk cache, and has reported its
        # progress.
        import repro.harness.runner as runner_module
        from repro.obs.events import MetricSample, subscribed

        real = runner_module.run_benchmark
        calls = []

        def second_cell_dies(benchmark, mode, **kwargs):
            calls.append(mode)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return real(benchmark, mode, **kwargs)

        monkeypatch.setattr(runner_module, "run_benchmark", second_cell_dies)
        samples = []
        cache_dir = str(tmp_path / "cache")
        with contextlib.ExitStack() as stack:
            if observed:
                stack.enter_context(subscribed(samples.append))
            runner = stack.enter_context(SuiteRunner(
                CONFIG, jobs=1, cache_dir=cache_dir))
            with pytest.raises(RuntimeError, match="interrupted"):
                runner.run_many(["hop"], [BASELINE, EVR])
        assert len(calls) == 2
        if observed:
            progress = [e.value for e in samples
                        if isinstance(e, MetricSample)]
            assert progress == [0.5]
        monkeypatch.setattr(runner_module, "run_benchmark", real)

        with SuiteRunner(CONFIG, jobs=1, cache_dir=cache_dir) as runner:
            runner.run_many(["hop"], [BASELINE])
            assert runner.cache_hits == 1
            assert runner.cache_misses == 0

    def test_config_change_misses(self, tmp_path):
        with self._runner(tmp_path) as runner:
            runner.run_many(["hop"], [BASELINE])
        other = GPUConfig.tiny(frames=3)
        with SuiteRunner(other, jobs=1, retry_policy=FAST,
                         cache_dir=str(tmp_path)) as runner:
            runner.run_many(["hop"], [BASELINE])
            assert runner.cache_hits == 0
            assert runner.cache_misses == 1


class TestGracefulDegradation:
    def test_failed_cell_becomes_nan_placeholder(self, tmp_path):
        # Suite job 0 fails on every permitted attempt.
        plan = ScriptedFaultPlan({("1:0", attempt): "raise"
                                  for attempt in (1, 2)})
        with SuiteRunner(CONFIG, jobs=1, retry_policy=FAST, fault_plan=plan,
                         cache_dir=str(tmp_path)) as runner:
            results = runner.run_many(["hop"], [BASELINE, EVR])
            assert len(runner.failures) == 1
            assert "1 cells FAILED" in runner.cache_summary()
            summary = runner.metrics_records()[-1]
            assert summary["failures"] == 1
            assert summary["failed_cells"] == ["hop:baseline"]
        failed = results[("hop", "baseline")]
        assert failed.failed
        assert math.isnan(failed.energy_joules)
        assert math.isnan(failed.energy_breakdown["dram"])  # any component
        healthy = results[("hop", "evr")]
        assert not healthy.failed
        assert _entries(tmp_path) == 1  # only the healthy cell is cached

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        plan = ScriptedFaultPlan({("1:0", attempt): "raise"
                                  for attempt in (1, 2)})
        with SuiteRunner(CONFIG, jobs=1, retry_policy=FAST, fault_plan=plan,
                         cache_dir=str(tmp_path)) as runner:
            runner.run_many(["hop"], [BASELINE])
            assert runner.failures
        # The rerun goes without a fault plan (the transient condition
        # cleared) and must recompute the failed cell.
        with SuiteRunner(CONFIG, jobs=1, retry_policy=FAST,
                         cache_dir=str(tmp_path)) as runner:
            results = runner.run_many(["hop"], [BASELINE])
            assert runner.cache_hits == 0  # failed cells are not cached
            assert runner.cache_misses == 1
            assert not runner.failures
        assert not results[("hop", "baseline")].failed

    def test_failed_metrics_shape(self):
        metrics = failed_metrics("hop", EVR, "boom")
        assert isinstance(metrics, RunMetrics)
        assert metrics.error == "boom"
        assert math.isnan(metrics.total_cycles)
        assert math.isnan(metrics.energy_breakdown["anything"])
