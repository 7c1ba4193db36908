"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench -q

Runs every workload once untraced and once traced and asserts that every
named metric is reported; plants wrong outputs and asserts that the
checks catch them; runs the benchmark from a working directory outside
the checkout; and runs it in a directory that holds only the benchmark,
where it must fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs, run
from perfbench.layers import LAYER_METRICS
from perfbench.workloads import WORKLOADS

SEED = 3
RUN_PY = os.path.join(run.ROOT, "perfbench", "run.py")


@pytest.fixture(scope="module", autouse=True)
def package():
    run._import_package()


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # every listed workload exists, in the same order; conv_sessions is
    # run by hand (see workloads.py)
    listed = [w["name"] for w in bench["workloads"]]
    assert listed == [name for name in WORKLOADS if name in listed]
    assert "flagship_agg" in listed and "routed_cli" in listed
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: v[0] for k, v in LAYER_METRICS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_end_to_end_metric(name):
    res = run.run(name, SEED, seconds=0.0, traced=False, toy=True)
    assert res["failed"] == 0, res["problems"]
    assert res["attempted"] >= run.MIN_REPS
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in res["metrics"].values()), res["metrics"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_layer_metric(name):
    res = run.run(name, SEED, seconds=0.0, traced=True, toy=True)
    assert res["failed"] == 0, res["problems"]
    m = res["metrics"]
    assert set(m) == set(LAYER_METRICS)
    assert 0 < m["parse.match_frac"] <= 1
    assert m["write.files"] > 0 and m["exchange.rows"] > 0
    # the layer self times and the engine's remainder make up the wall
    assert m["trace.wall_s"] == pytest.approx(
        m["trace.coverage"] * m["trace.wall_s"] + m["engine.other_s"])


def _toy(name):
    w = WORKLOADS[name]
    directory = inputs.ensure_input(os.path.join(run.WORK_DIR, "inputs"),
                                    dataclasses.replace(w.toy, seed=SEED))
    return w, inputs.fragment_paths(directory), inputs.load_oracle(directory)


def test_checks_catch_planted_errors():
    from perfbench.engine import Engine, usable_cpus

    scratch = os.path.join(run.WORK_DIR, f"r{os.getpid()}")
    engine = Engine(run.ROOT, scratch, usable_cpus())
    engine.start()
    try:
        w, paths, oracle = _toy("flagship_agg")
        out = w.collect(w.run(paths, ""))
        assert w.check(out, oracle, paths) == []
        dropped = next(k for k in out.rows if k[0] == "left")
        del out.rows[dropped]
        found = w.check(out, oracle, paths)
        assert any("route 'left'" in p for p in found)
        assert any("total turns" in p for p in found)

        w, paths, oracle = _toy("routed_cli")
        out_dir = os.path.join(scratch, "out")
        w.run(paths, out_dir)
        assert w.check(w.collect(out_dir), oracle, paths) == []
        manifests = sorted(os.listdir(os.path.join(out_dir, "_manifest")))
        os.remove(os.path.join(out_dir, "_manifest", manifests[0]))
        assert any("committed manifests, want 1" in p
                   for p in w.check(w.collect(out_dir), oracle, paths))

        w, paths, oracle = _toy("conv_sessions")
        out = w.collect(w.run(paths, ""))
        assert w.check(out, oracle, paths) == []
        key = next(iter(out.rows))
        out.rows[key] += 1
        assert w.check(out, oracle, paths)
    finally:
        engine.stop()
        shutil.rmtree(scratch, ignore_errors=True)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_runs_from_outside_the_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "conv_sessions", "--seed",
         str(SEED), "--seconds", "0", "--trace", "0", "--toy"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = _last_json(proc.stdout)
    assert res["correct"] and res["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flagship_agg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert _last_json(proc.stdout) is None
