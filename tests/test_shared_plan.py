"""``run_pipeline``'s one streaming plan: every pending fragment goes
through one ``ReadParquet->MapBatches(FragmentWrite)`` plan, and each
fragment commits once the rows its acks consumed reach its footer's row
count, from exactly the files its acks name."""

from __future__ import annotations

import glob
import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

from opentelemetry_collector_ray.config import PipelineConfig


def _cfg(src, processors=None, order=None) -> PipelineConfig:
    processors = processors if processors is not None else {
        "parse": {}, "enrich": {}, "route": {"default_sink": "default"}}
    return PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": src}},
        "processors": processors,
        "exporters": {"parquet_sink/routed": {
            "path": "sinks", "partition_by_route": True}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": order if order is not None else list(processors),
            "exporters": ["parquet_sink/routed"]}}},
    }, expand=False)


def _manifests(out: str) -> list[dict]:
    from opentelemetry_collector_ray.state.manifest import ManifestStore

    store = ManifestStore(out)
    return [store.load(pid) for pid in sorted(store.committed_ids())]


def _routes(t: pa.Table) -> Counter:
    from opentelemetry_collector_ray.stages.enrich import EnrichStage
    from opentelemetry_collector_ray.stages.parse import ParseStage
    from opentelemetry_collector_ray.stages.route import RouteStage

    routed = RouteStage(default_sink="default")(EnrichStage()(ParseStage()(t)))
    return Counter(routed.column("route").to_pylist())


def _on_disk(out: str) -> Counter:
    rows = Counter()
    for f in glob.glob(os.path.join(out, "part-*", "sinks", "route=*",
                                    "*.parquet")):
        if ".staging" not in f:
            rows[os.path.basename(os.path.dirname(f))[len("route="):]] += \
                pq.read_metadata(f).num_rows
    return rows


def test_one_read_one_operator(ray_session, tmp_path, monkeypatch):
    """4 fragments: the footer-planned read (``ray.data.read_datasource``)
    is called once and ``ray.data.read_parquet`` never, and the plan is
    one ``ReadParquet->MapBatches(FragmentWrite)`` operator with one task
    per fragment; each fragment gets its own manifest and walls."""
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import run_pipeline
    from opentelemetry_collector_ray.synth import write_turns_parquet

    paths = write_turns_parquet(str(tmp_path / "in"), sf=0.05, shards=4)
    reads, plans = [], []
    read_datasource, iter_batches = ray.data.read_datasource, \
        ray.data.Dataset.iter_batches

    def spy_read(*a, **kw):
        reads.append(a)
        return read_datasource(*a, **kw)

    def no_read_parquet(*a, **kw):
        raise AssertionError("read_parquet called")

    def spy_iter(self, *a, **kw):
        plans.append(self)
        return iter_batches(self, *a, **kw)

    monkeypatch.setattr(ray.data, "read_datasource", spy_read)
    monkeypatch.setattr(ray.data, "read_parquet", no_read_parquet)
    monkeypatch.setattr(ray.data.Dataset, "iter_batches", spy_iter)
    out = str(tmp_path / "out")
    r = run_pipeline(_cfg(str(tmp_path / "in")), out)
    assert len(reads) == 1 and len(plans) == 1 and len(r["ran"]) == 4

    ops = [line.split(" ", 2)[2] for line in plans[0].stats().splitlines()
           if line.startswith("Operator ")]
    assert len(ops) == 1, ops
    assert ops[0].startswith("ReadParquet->MapBatches(FragmentWrite)"), ops
    assert ": 4 tasks executed" in ops[0], ops

    manifests = _manifests(out)
    assert sorted(m["inputs"][0] for m in manifests) == paths
    for m in manifests:
        want = _routes(pq.read_table(m["inputs"][0]))
        assert m["metrics"]["per_route"] == dict(want)
        assert m["metrics"]["rows_in"] == m["metrics"]["rows_out"] \
            == sum(want.values())
        assert m["metrics"]["dropped"] == 0 and m["metrics"]["acks"] == 1
        assert 0 < m["wall_sec"] <= m["plan_wall_sec"]


def test_split_fragment_commits_after_its_last_block(ray_session, tmp_path):
    """At 4 CPUs a fragment of more than 2 MiB by its footer reads as
    several blocks, each its own ack; the fragment commits once, with
    the file's counts, after the last of them."""
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline
    from opentelemetry_collector_ray.sources.parquet import plan_read
    from opentelemetry_collector_ray.synth import synth_turns

    src = tmp_path / "in"
    src.mkdir()
    path = str(src / "big.parquet")
    t = synth_turns(sf=3, seed=5)
    pq.write_table(t, path)
    assert plan_read(path, cpus=4).blocks >= 2
    out = str(tmp_path / "out")
    run_pipeline(_cfg(str(src)), out)
    (m,) = _manifests(out)
    assert m["metrics"]["acks"] >= 2
    assert m["metrics"]["rows_in"] == m["metrics"]["rows_out"] == t.num_rows
    assert m["metrics"]["per_route"] == dict(_routes(t))
    assert _on_disk(out) == _routes(t)


def test_unacked_staged_file_is_not_committed(ray_session, tmp_path,
                                              monkeypatch):
    """A file in a fragment's staging dir that no ack names (a planted
    stray, standing in for a retried attempt's leftovers) is deleted
    before the commit, with the directory it leaves empty."""
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline
    from opentelemetry_collector_ray.state import manifest
    from opentelemetry_collector_ray.synth import write_turns_parquet

    (path,) = write_turns_parquet(str(tmp_path / "in"), sf=0.05, shards=1)
    open_staging = manifest.open_staging

    def plant(store, pid):
        staging = open_staging(store, pid)
        stray = os.path.join(staging, "sinks", "route=stray")
        os.makedirs(stray)
        pq.write_table(pq.read_table(path).slice(0, 7),
                       os.path.join(stray, "old-attempt-0.parquet"))
        return staging

    monkeypatch.setattr(manifest, "open_staging", plant)
    out = str(tmp_path / "out")
    run_pipeline(_cfg(str(tmp_path / "in")), out)
    (m,) = _manifests(out)
    want = _routes(pq.read_table(path))
    assert m["metrics"]["per_route"] == dict(want)
    assert _on_disk(out) == want
    assert not glob.glob(os.path.join(out, "part-*", "sinks", "route=stray"))


def test_relative_input_paths(ray_session, tmp_path, monkeypatch):
    """Relative receiver paths and output root: the manifests record the
    paths as configured, and a rerun skips every fragment."""
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline
    from opentelemetry_collector_ray.synth import write_turns_parquet

    monkeypatch.chdir(tmp_path)
    write_turns_parquet("in", sf=0.05, shards=2)
    r = run_pipeline(_cfg("in"), "out")
    assert len(r["ran"]) == 2
    assert sorted(m["inputs"][0] for m in _manifests("out")) == \
        ["in/turns-0000.parquet", "in/turns-0001.parquet"]
    want = sum((_routes(pq.read_table(p)) for p in glob.glob("in/*.parquet")),
               Counter())
    assert _on_disk("out") == want
    r = run_pipeline(_cfg("in"), "out")
    assert not r["ran"] and len(r["skipped"]) == 2


def test_input_path_column_is_kept(ray_session, tmp_path):
    """Input with its own ``path`` column would collide with the column
    the shared plan's read adds, so it runs one plan per fragment and
    its ``path`` values come back byte-equal."""
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline
    from opentelemetry_collector_ray.synth import synth_turns

    src = tmp_path / "in"
    src.mkdir()
    t = synth_turns(sf=0.02, seed=9)
    t = t.append_column("path", pa.array(
        [f"/var/log/app-{i % 5}.log" for i in range(t.num_rows)]))
    pq.write_table(t.slice(0, 100), str(src / "a.parquet"))
    pq.write_table(t.slice(100), str(src / "b.parquet"))
    out = str(tmp_path / "out")
    assert len(run_pipeline(_cfg(str(src)), out)["ran"]) == 2
    assert all("plan_wall_sec" not in m for m in _manifests(out))

    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    got = pa.concat_tables(
        pq.read_table(f, columns=["conv_id", "turn_idx", "path"])
        for f in glob.glob(os.path.join(out, "part-*", "sinks", "route=*",
                                        "*.parquet"))).sort_by(key)
    want = t.select(["conv_id", "turn_idx", "path"]).sort_by(key)
    assert got.equals(want)
