"""Checkpoint-resume idempotence — the exporter contract-checker analog
(/root/reference/exporter/exportertest/contract_checker.go:45-110): tag
every record with its unique id (conv_id, turn_idx), kill the job partway,
rerun, and assert every id appears in exactly one sink exactly once."""

import glob

import pandas as pd
import pyarrow.parquet as pq
import pytest

from opentelemetry_collector_ray.config import PipelineConfig
from opentelemetry_collector_ray.pipelines.builder import run_pipeline
from opentelemetry_collector_ray.state.manifest import (
    ManifestStore, PartitionTask, run_resumable)
from opentelemetry_collector_ray.synth import synth_turns, write_turns_parquet


def _cfg(src):
    return PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": src}},
        "processors": {"parse": {}, "enrich": {}, "route": {}},
        "exporters": {"parquet_sink/out": {"path": "sinks"}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": ["parse", "enrich", "route"],
            "exporters": ["parquet_sink/out"],
        }}},
    })


def _die_on(flag, key, wait_for):
    """Pass-through stage that, while ``flag`` exists, raises on the
    fragment whose first row is ``key`` once every manifest in
    ``wait_for`` is committed: a crash inside the shared plan after some
    fragments were acked. A closure, so Ray ships it by value."""
    key = tuple(key)

    def stage(t):
        import os
        import time

        first = (t.column("conv_id")[0].as_py(),
                 t.column("turn_idx")[0].as_py())
        if os.path.exists(flag) and first == key:
            deadline = time.time() + 120
            while not all(map(os.path.exists, wait_for)) \
                    and time.time() < deadline:
                time.sleep(0.05)
            raise RuntimeError("simulated crash mid-job")
        return t

    return stage


def test_kill_and_resume_exactly_once(ray_session, tmp_path, monkeypatch):
    from opentelemetry_collector_ray import config
    from opentelemetry_collector_ray.pipelines.builder import _partition_id

    src = str(tmp_path / "in")
    out = str(tmp_path / "out")
    paths = write_turns_parquet(src, sf=0.05, shards=4)
    pids = [_partition_id([p]) for p in paths]
    flag = tmp_path / "die"
    flag.write_text("")
    first = pq.read_table(paths[2]).slice(0, 1)
    monkeypatch.setitem(config._REGISTRY, "die", config.Factory(
        lambda c: _die_on(c["flag"], c["key"], c["wait_for"])))
    cfg = _cfg(src)
    cfg.processors["die"] = {
        "flag": str(flag),
        "key": [first.column("conv_id")[0].as_py(),
                first.column("turn_idx")[0].as_py()],
        "wait_for": [f"{out}/_manifest/part-{pid}.json" for pid in pids[:2]]}
    cfg.pipeline["processors"] = ["die"] + cfg.pipeline["processors"]

    # The third fragment's task raises inside the one shared plan once the
    # first two fragments are acked and committed.
    with pytest.raises(Exception, match="simulated crash mid-job"):
        run_pipeline(cfg, out)

    store = ManifestStore(out)
    committed_before = store.committed_ids()
    # acked fragments committed; the one that died did not
    assert set(pids[:2]) <= committed_before and pids[2] not in committed_before

    # No partial output leaked into final dirs for uncommitted partitions.
    final_parts = {p.split("/")[-1].replace("part-", "")
                   for p in glob.glob(f"{out}/part-*") if not p.endswith(".staging")}
    assert final_parts == committed_before

    flag.unlink()
    r = run_pipeline(cfg, out)  # resume
    assert sorted(r["skipped"]) == sorted(committed_before)
    assert sorted(r["ran"]) == sorted(set(pids) - committed_before)

    # Exactly-once: every input (conv_id, turn_idx) appears in exactly one
    # sink exactly once.
    outs = []
    for f in glob.glob(f"{out}/part-*/**/*.parquet", recursive=True):
        if ".staging" in f:
            continue
        outs.append(pq.read_table(f, columns=["conv_id", "turn_idx"]).to_pandas())
    got = pd.concat(outs, ignore_index=True)
    expect = synth_turns(sf=0.05).select(["conv_id", "turn_idx"]).to_pandas()
    key = ["conv_id", "turn_idx"]
    got_s = got.sort_values(key).reset_index(drop=True)
    exp_s = expect.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_s, exp_s)


def test_torn_manifest_is_not_committed(tmp_path):
    store = ManifestStore(str(tmp_path))
    with open(store._path("x"), "w") as f:
        f.write('{"status": "comm')  # torn write
    assert not store.is_committed("x")
    ran = run_resumable(store, [PartitionTask("x", [])],
                        lambda t, d: {"ok": 1}, "h")
    assert ran["ran"] == ["x"]
    assert store.is_committed("x", "h")
    assert not store.is_committed("x", "other-hash")


def test_forced_rerun_crash_leaves_partition_uncommitted(tmp_path):
    """A forced rerun deletes a committed partition's output before it
    reprocesses it; its manifest goes first, so a crash in between leaves
    the partition to be redone, not committed with no output."""
    store = ManifestStore(str(tmp_path))
    task = PartitionTask("p", ["f"])
    run_resumable(store, [task], lambda t, d: {"ok": 1}, "h")
    assert store.is_committed("p", "h")

    def crash(t, d):
        raise RuntimeError("crash mid-partition")

    with pytest.raises(RuntimeError, match="crash mid-partition"):
        run_resumable(store, [task], crash, "h", force=True)
    assert not store.is_committed("p", "h")
    assert run_resumable(store, [task], lambda t, d: {"ok": 1},
                         "h")["ran"] == ["p"]


def test_config_staleness_partial_reload(tmp_path):
    """The batch partial-reload analog (otelcol/collector.go:290-329):
    editing ONE route rule changes only the routed output's ruleset hash
    — on the next run the routed partitions recompute while the
    aggregate output's committed manifests still skip."""
    from opentelemetry_collector_ray.config import (
        PipelineConfig, output_ruleset_hashes)
    from opentelemetry_collector_ray.state.manifest import reload_report

    def make_cfg(route_to):
        return PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": "/tmp/in"}},
            "processors": {
                "parse": {"pattern": r"(?P<k>\w+)", "column": "text"},
                "route": {"routes": [
                    {"match": {"column": "role", "equals": "user"},
                     "route": route_to}], "default_route": "other"},
            },
            "exporters": {"parquet_sink/routed": {"path": "/tmp/r"},
                          "parquet_sink/agg": {"path": "/tmp/a"}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"],
                "processors": ["parse", "route"],
                "exporters": ["parquet_sink/routed", "parquet_sink/agg"]}}},
        })

    # the aggregate output consumes parse but NOT the route table
    depends = {"parquet_sink/agg": ["parse"]}
    h1 = output_ruleset_hashes(make_cfg("users"), depends=depends)

    stores = {name: ManifestStore(str(tmp_path / name))
              for name in ("parquet_sink/routed", "parquet_sink/agg")}
    calls = {"parquet_sink/routed": 0, "parquet_sink/agg": 0}

    def run_all(hashes):
        for name, store in stores.items():
            def process(task, staging, _n=name):
                calls[_n] += 1
                return {"rows": 1}
            run_resumable(store, [PartitionTask("p0", ["f0"]),
                                  PartitionTask("p1", ["f1"])],
                          process, hashes[name])

    run_all(h1)
    assert calls == {"parquet_sink/routed": 2, "parquet_sink/agg": 2}

    # identical config → everything skips
    run_all(output_ruleset_hashes(make_cfg("users"), depends=depends))
    assert calls == {"parquet_sink/routed": 2, "parquet_sink/agg": 2}

    # edit ONE route rule → routed hash changes, agg hash does not
    h2 = output_ruleset_hashes(make_cfg("vip_users"), depends=depends)
    assert h2["parquet_sink/routed"] != h1["parquet_sink/routed"]
    assert h2["parquet_sink/agg"] == h1["parquet_sink/agg"]

    rep = reload_report(stores, h2)
    assert rep["parquet_sink/routed"]["stale"] == ["p0", "p1"]
    assert rep["parquet_sink/routed"]["valid"] == []
    assert rep["parquet_sink/agg"]["valid"] == ["p0", "p1"]
    assert rep["parquet_sink/agg"]["stale"] == []

    run_all(h2)  # only the routed partitions recompute
    assert calls == {"parquet_sink/routed": 4, "parquet_sink/agg": 2}

    # depends naming an unknown processor fails loudly
    with pytest.raises(Exception, match="unknown processors"):
        output_ruleset_hashes(make_cfg("users"),
                              depends={"parquet_sink/agg": ["nope"]})
