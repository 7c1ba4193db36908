"""Benchmark entry point.

    python3 perfbench/run.py --workload flagship_agg --seed 1 --seconds 10 --trace 0

Builds (or reuses) the seeded input, starts Ray sized to the usable
CPUs, and then:

- ``--trace 0``: sets up twice (Ray start plus an untimed warm-up
  run) and reports the median as ``setup_s``; then repeats
  the workload for ``--seconds`` (at least three times), checking every
  output against DuckDB, and reports the end-to-end metrics.
- ``--trace 1``: sets up once, then for ``--seconds`` (at least once)
  runs the workload untraced and then the traced procedure of
  ``layers.py``, and reports the median of each per-layer metric.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything the run writes stays under ``.perfbench_work/`` in the
checkout: cached inputs, traces, and a per-process scratch directory
(Ray's files and the workloads' outputs) that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUPS = 2
MIN_REPS = 3

# name -> unit, in the order they are reported
END_TO_END = {
    "wall_s": "s", "turns_per_s": "turns/s", "peak_rss_mb": "MB",
    "setup_s": "s", "partition_p50_s": "s",
}
# Printed with its sample count but not an end-to-end metric: a run has
# about ten repetitions (flagship_agg) or a hundred partitions
# (routed_cli), too few samples beyond the 90th percentile for it to
# repeat within a regression bound on a shared host.
TAIL = "partition_p90_s"


def _import_package():
    """Import the package from this checkout, never from elsewhere."""
    import opentelemetry_collector_ray as pkg

    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if os.path.dirname(where) != ROOT:
        raise ImportError(f"opentelemetry_collector_ray found at {where}, "
                          f"not in the checkout {ROOT}")
    # ray.data and the stages are imported here so every set-up below
    # pays the same cost
    import ray.data  # noqa: F401

    from opentelemetry_collector_ray.pipelines import builder, flagship  # noqa: F401
    from opentelemetry_collector_ray.stages import sessionize  # noqa: F401


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _empty(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _setup(engine, workload, paths: list[str], scratch: str) -> float:
    """Start Ray and run the workload once, untimed, so that every
    worker has started and imported the stages."""
    out_dir = _empty(os.path.join(scratch, "out"))
    t0 = time.perf_counter()
    engine.start()
    workload.run(paths, out_dir)
    return time.perf_counter() - t0


def measure(workload, engine, paths, oracle, seconds: float,
            scratch: str) -> dict:
    """Untraced runs: set-up medians, then repetitions for ``seconds``."""
    import pyarrow.parquet as pq

    setups = []
    for i in range(SETUPS):
        setups.append(_setup(engine, workload, paths, scratch))
        if i < SETUPS - 1:
            engine.stop()
    walls, failed_walls, units, problems = [], [], [], []
    peak = engine.peak_rss_mb()
    attempted = 0
    t_end = time.perf_counter() + seconds
    while attempted < MIN_REPS or time.perf_counter() < t_end:
        attempted += 1
        out_dir = _empty(os.path.join(scratch, "out"))
        t0 = time.perf_counter()
        raw = workload.run(paths, out_dir)
        wall = time.perf_counter() - t0
        out = workload.collect(raw)
        found = workload.check(out, oracle, paths)
        peak = max(peak, engine.peak_rss_mb())
        if found:
            problems.append(found)
            failed_walls.append(wall)
            continue
        walls.append(wall)
        units.extend(out.partition_walls() or [wall])
    rows = sum(pq.read_metadata(p).num_rows for p in paths)
    timed = walls or failed_walls
    wall = statistics.median(timed)
    return {
        "attempted": attempted, "failed": len(problems), "problems": problems,
        "samples": {"wall_s": [round(w, 3) for w in walls],
                    "setup_s": [round(s, 3) for s in setups],
                    "partition": len(units)},
        "metrics": {
            "wall_s": wall, "turns_per_s": rows / wall, "peak_rss_mb": peak,
            "setup_s": statistics.median(setups),
            "partition_p50_s": _percentile(units or timed, 50),
        },
        "tail": _percentile(units or timed, 90),
    }


def trace(workload, engine, paths, oracle, seconds: float, scratch: str,
          tracer) -> dict:
    """Traced runs: each repetition runs the workload untraced and then
    traced; per-layer metrics are medians over repetitions."""
    from . import layers

    _setup(engine, workload, paths, scratch)
    samples, problems = [], []
    t_end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < t_end:
        out_dir = _empty(os.path.join(scratch, "out"))
        t0 = time.perf_counter()
        raw = workload.run(paths, out_dir)
        untraced = time.perf_counter() - t0
        found = workload.check(workload.collect(raw), oracle, paths)
        if found:
            problems.append(found)
        metrics, found = layers.traced_repetition(
            tracer, workload, paths, oracle, scratch, untraced)
        if found:
            problems.append(found)
        samples.append(metrics)
    return {
        "attempted": 2 * len(samples), "failed": len(problems),
        "problems": problems, "samples": {"traced": len(samples)},
        "metrics": {k: statistics.median(s[k] for s in samples)
                    for k in layers.LAYER_METRICS},
    }


def run(name: str, seed: int, seconds: float, traced: bool,
        toy: bool = False) -> dict:
    """One benchmark run; returns the result object that ``main`` prints
    (plus ``problems``, ``samples``, ``host``, ``input`` and
    ``metric_units``)."""
    import dataclasses

    from . import engine as eng
    from . import inputs
    from .layers import LAYER_METRICS, Tracer
    from .workloads import WORKLOADS

    workload = WORKLOADS[name]
    spec = dataclasses.replace(workload.toy if toy else workload.full,
                               seed=seed)
    directory = inputs.ensure_input(os.path.join(WORK_DIR, "inputs"), spec)
    paths = inputs.fragment_paths(directory)
    oracle = inputs.load_oracle(directory)
    cpus = eng.usable_cpus()
    # short: Ray's socket paths live below it
    scratch = os.path.join(WORK_DIR, f"r{os.getpid()}")
    engine = eng.Engine(ROOT, scratch, cpus)
    tracer = Tracer()
    try:
        if traced:
            res = trace(workload, engine, paths, oracle, seconds, scratch,
                        tracer)
        else:
            res = measure(workload, engine, paths, oracle, seconds, scratch)
        res["host"] = eng.host_info(cpus)
    finally:
        engine.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    if traced:
        tracer.write(os.path.join(WORK_DIR, "traces",
                                  f"{name}-seed{seed}.json"))
    res["metric_units"] = ({k: v[0] for k, v in LAYER_METRICS.items()}
                           if traced else END_TO_END)
    res["input"] = dataclasses.asdict(spec)
    return res


def main(argv=None) -> int:
    from .workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy-size input, for the self-test")
    args = ap.parse_args(argv)

    _import_package()
    res = run(args.workload, args.seed, args.seconds, bool(args.trace),
              toy=args.toy)
    print(f"# host {json.dumps(res['host'], sort_keys=True)}")
    print(f"# input {json.dumps(res['input'], sort_keys=True)} "
          f"samples {json.dumps(res['samples'], sort_keys=True)}")
    for found in res["problems"]:
        print(f"# wrong output: {'; '.join(found)}")
    from .layers import LAYER_METRICS

    for k, unit in res["metric_units"].items():
        note = (f"  [{LAYER_METRICS[k][1]}; moves {LAYER_METRICS[k][2]}]"
                if args.trace else "")
        print(f"{k} = {res['metrics'][k]:.6g} {unit}{note}")
    if "tail" in res:
        print(f"{TAIL} = {res['tail']:.6g} s  [not gated; "
              f"{res['samples']['partition']} samples]")
    print(f"failed_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']})")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u}
                    for k, u in res["metric_units"].items()},
    }))
    return 0


if __name__ == "__main__":
    # run as a script: import the package form, not the sibling modules
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    from perfbench.run import main as _main

    sys.exit(_main())
