"""Benchmark of the EVR/RE simulator's host time and simulated outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload frames-raster --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric from a separate, traced run.  Each metric appears on
its own line with its unit, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: What a fresh interpreter imports before the simulator can run.
IMPORTS = ("import repro.pipeline, repro.harness.runner, "
           "repro.harness.experiments, repro.scenes, repro.spec")
IMPORT_REPEATS = 7

#: The paper's suite means, printed beside the simulated metrics as
#: context only: the subset is not the suite and the model is not
#: validated against hardware, so no error figure is derived from them.
PAPER_MEANS = {"sim_time_norm": 0.61, "sim_energy_norm": 0.57}


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name)) as handle:
        return json.load(handle)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds(repeats: int) -> list:
    """Reference seconds for a fresh interpreter to start and import the
    simulator: the part of set-up that one process pays only once.  The
    child's CPU time is scaled by gauge samples taken around it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    hostspeed.reference_unit()
    before = hostspeed.sample()
    for _ in range(repeats):
        start = children_cpu()
        subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT, timeout=60)
        cpu = children_cpu() - start
        after = hostspeed.sample()
        times.append(hostspeed.scale(cpu, before, after))
        before = after
    return times


def build_seconds(build, repeats: int = 5) -> float:
    """Median reference seconds of ``build()`` over ``repeats`` calls."""
    gauge = hostspeed.Gauge()
    return statistics.median(gauge.time(build)[1] for _ in range(repeats))


def peak_rss_mb() -> float:
    """Highest RSS of this process and of any child it has waited for
    (pool workers, import probes); Linux reports kilobytes."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def write_spans(passes, path: str) -> None:
    """One JSON line per span; ``parent`` indexes spans of the same pass."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        for number, spans in enumerate(passes):
            for span in spans:
                handle.write(json.dumps({"pass": number, **span.as_dict()})
                             + "\n")


def describe_failures(problems, limit: int = 10) -> None:
    for problem in problems[:limit]:
        print(f"FAIL {problem}", file=sys.stderr)
    if len(problems) > limit:
        print(f"... and {len(problems) - limit} more", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads  # noqa: E402  (needs SRC on the path)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    metric_map = load_json("metric_map.json")
    pins = load_json("pins.json")
    workload = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.workload == "suite-sweep":
            runner = workloads.SuiteSweep(workload, workdir)
        else:
            runner = workloads.FrameLoop(workload, args.seed)
        if args.trace:
            runner.build()
            outcome = runner.trace(args.seconds, pins)
            expected = metric_map["per_layer"]
            trace_path = os.path.join(
                ROOT, ".perfbench_trace",
                f"{args.workload}-seed{args.seed}.jsonl")
            write_spans(outcome.passes, trace_path)
            print(f"perfbench: spans written to {trace_path}",
                  file=sys.stderr)
        else:
            # Host speed drifts over seconds: the import probes are split
            # between the start and the end of the run.
            imports = import_seconds(IMPORT_REPEATS // 2 + 1)
            build_s = build_seconds(runner.build)
            outcome = runner.measure(args.seconds, pins)
            imports += import_seconds(IMPORT_REPEATS // 2)
            outcome.metrics["setup_s"] = statistics.median(imports) + build_s
            outcome.metrics["peak_rss_mb"] = peak_rss_mb()
            expected = metric_map["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if outcome.attempted == 0:
        raise SystemExit("perfbench: the run attempted nothing")
    if set(outcome.metrics) != set(expected):
        raise SystemExit(
            f"perfbench: metrics do not match metric_map.json: missing "
            f"{sorted(set(expected) - set(outcome.metrics))}, extra "
            f"{sorted(set(outcome.metrics) - set(expected))}")
    describe_failures(outcome.problems)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"failed_ratio={outcome.failed / max(outcome.attempted, 1):.6f}")
    for name in expected:
        unit = expected[name]["unit"]
        line = f"{name:32s} {outcome.metrics[name]:>16.6f} {unit}"
        if (name in PAPER_MEANS and not args.trace
                and workload.modes[0] == "baseline"):
            line += (f"   (paper suite mean {PAPER_MEANS[name]}; context "
                     f"only, subset of the suite, model not validated)")
        print(line)
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name],
                           "unit": expected[name]["unit"]}
                    for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
