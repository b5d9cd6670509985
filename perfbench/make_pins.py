"""Regenerate ``pins.json`` with the scalar ``python`` backend, the oracle.

    python3 perfbench/make_pins.py

Pins the default seed (0) of the frames-* workloads: one digest per
frame of every (benchmark, mode) stream, over the image bytes, the
FrameStats and the memsys counters.  Pins every suite-sweep cell's
distilled RunMetrics, which do not depend on the seed.  Run it only when
a change is meant to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

from run import HERE, ROOT, SRC

sys.path.insert(0, SRC)

import workloads  # noqa: E402
from repro.harness.runner import SuiteRunner  # noqa: E402
from repro.spec import RunSpec, SchedulerSpec  # noqa: E402

DEFAULT_SEED = 0


def frame_pins(workload) -> dict:
    loop = workloads.FrameLoop(workload, DEFAULT_SEED)
    loop.build_scenes()
    pins = {}
    for benchmark, mode in loop.streams:
        _, results = loop.render(benchmark, mode,
                                 backend=workloads.ORACLE_BACKEND)
        pins[f"{benchmark}/{mode}"] = [workloads.frame_digest(result)
                                       for result in results]
        print(f"{workload.name} {benchmark}/{mode}", file=sys.stderr)
    return {str(DEFAULT_SEED): pins}


def suite_pins(workload) -> dict:
    spec = dataclasses.replace(
        RunSpec(), scheduler=SchedulerSpec(backend=workloads.ORACLE_BACKEND))
    cache = os.path.join(ROOT, ".perfbench_work", "pins-cache")
    shutil.rmtree(cache, ignore_errors=True)
    try:
        with SuiteRunner(spec=spec, jobs=workloads.SUITE_JOBS,
                         cache_dir=cache) as runner:
            results = runner.run_many(workload.benchmarks, workload.modes)
    finally:
        shutil.rmtree(os.path.dirname(cache), ignore_errors=True)
    return {f"{benchmark}/{mode}": workloads.metrics_digest(metrics)
            for (benchmark, mode), metrics in sorted(results.items())}


def main() -> int:
    pins = {}
    for name, workload in workloads.WORKLOADS.items():
        if name == "suite-sweep":
            pins[name] = suite_pins(workload)
        else:
            pins[name] = frame_pins(workload)
    with open(os.path.join(HERE, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
