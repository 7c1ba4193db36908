"""Each plan runs once: the CLI runner's route decision, the ``collect``
helper and the two-pass ``unigram_mass`` never re-run an upstream plan
for a schema.

Ray answers ``Dataset.schema()`` on a lazy plan by running the plan
under ``limit(1)``, and ``Dataset.to_arrow_refs()`` on a lazy plan asks
for the schema after running it. Row counters written by a UDF upstream
of the plan under test count how many times each input row was pushed.
"""

from __future__ import annotations

import ast
import glob
import os
import uuid
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _row_counter(directory: str):
    """Identity batch UDF that records each batch's row count as one
    file under ``directory`` (workers share the filesystem)."""

    def count(t: pa.Table) -> pa.Table:
        with open(os.path.join(directory, uuid.uuid4().hex), "w") as f:
            f.write(str(t.num_rows))
        return t

    return count


def _pushed(directory: str) -> int:
    total = 0
    for p in glob.glob(os.path.join(directory, "*")):
        with open(p) as f:
            total += int(f.read())
    return total


def _write_inputs(directory: str, shards: int = 2) -> list[str]:
    from opentelemetry_collector_ray.synth import write_turns_parquet

    write_turns_parquet(directory, sf=0.05, shards=shards)
    return sorted(glob.glob(os.path.join(directory, "*.parquet")))


def _routed(t: pa.Table) -> pa.Table:
    """The examples/pipeline.yaml processors, in process."""
    from opentelemetry_collector_ray.stages.enrich import EnrichStage
    from opentelemetry_collector_ray.stages.parse import ParseStage
    from opentelemetry_collector_ray.stages.route import RouteStage

    return RouteStage()(EnrichStage()(ParseStage()(t)))


def _cfg(src, processors: dict, order: list[str]):
    from opentelemetry_collector_ray.config import PipelineConfig

    return PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": src}},
        "processors": processors,
        "exporters": {"parquet_sink/routed": {
            "path": "sinks", "partition_by_route": True}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "processors": order,
            "exporters": ["parquet_sink/routed"]}}},
    }, expand=False)


def _manifests(out: str) -> list[dict]:
    from opentelemetry_collector_ray.state.manifest import ManifestStore

    store = ManifestStore(out)
    return [store.load(pid) for pid in sorted(store.committed_ids())]


def _on_disk_routes(out: str) -> Counter:
    rows = Counter()
    for f in glob.glob(os.path.join(out, "part-*", "sinks", "route=*",
                                    "*.parquet")):
        rows[os.path.basename(os.path.dirname(f))[len("route="):]] += \
            pq.read_metadata(f).num_rows
    return rows


@pytest.fixture
def spy(monkeypatch):
    """Records ``Dataset.limit`` calls and ``Dataset.schema`` calls that
    may fetch (``fetch_if_missing=True``) on a dataset that is not
    materialized: the two ways a schema question runs a plan."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    calls = {"limit": 0, "schema_fetch": 0}
    limit, schema = ray.data.Dataset.limit, ray.data.Dataset.schema

    def spy_limit(self, *a, **kw):
        calls["limit"] += 1
        return limit(self, *a, **kw)

    def spy_schema(self, fetch_if_missing: bool = True):
        if fetch_if_missing and not isinstance(self, MaterializedDataset):
            calls["schema_fetch"] += 1
        return schema(self, fetch_if_missing=fetch_if_missing)

    monkeypatch.setattr(ray.data.Dataset, "limit", spy_limit)
    monkeypatch.setattr(ray.data.Dataset, "schema", spy_schema)
    return calls


def test_example_pipeline_runs_no_probe(ray_session, tmp_path, spy):
    """The examples/pipeline.yaml shape ends in ``route``: the sink
    partitions by route without asking Ray for the schema, and the
    output is the in-process per-route rows, one committed manifest per
    input fragment."""
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline

    paths = _write_inputs(str(tmp_path / "in"))
    out = str(tmp_path / "out")
    cfg = _cfg(str(tmp_path / "in"),
               {"parse": {}, "enrich": {},
                "route": {"default_sink": "default"}},
               ["parse", "enrich", "route"])
    run_pipeline(cfg, out, resume=False)
    assert spy == {"limit": 0, "schema_fetch": 0}

    want = Counter()
    per_file = {}
    for p in paths:
        c = Counter(_routed(pq.read_table(p)).column("route").to_pylist())
        per_file[p] = c
        want += c
    assert _on_disk_routes(out) == want
    manifests = _manifests(out)
    assert sorted(m["inputs"][0] for m in manifests) == paths
    for m in manifests:
        (p,) = m["inputs"]
        assert m["metrics"]["per_route"] == dict(per_file[p])
        assert m["metrics"]["rows_in"] == m["metrics"]["rows_out"] \
            == sum(per_file[p].values())


def test_route_then_filter_materializes_once(ray_session, tmp_path,
                                             monkeypatch):
    """``route`` followed by ``filter``: the last processor is not
    ``route``, so whether to partition by route is read off the rows the
    processors produce, and every input row is pushed through the plan
    once."""
    from opentelemetry_collector_ray import config
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline

    counted = tmp_path / "counted"
    counted.mkdir()
    monkeypatch.setitem(config._REGISTRY, "row_count", config.Factory(
        lambda c: _row_counter(c["dir"])))
    paths = _write_inputs(str(tmp_path / "in"))
    out = str(tmp_path / "out")
    cfg = _cfg(str(tmp_path / "in"),
               {"row_count": {"dir": str(counted)}, "parse": {},
                "enrich": {}, "route": {"default_sink": "default"},
                "filter": {"exclude": {"column": "route",
                                       "strict": ["views"]}}},
               ["row_count", "parse", "enrich", "route", "filter"])
    run_pipeline(cfg, out, resume=False)

    n_in = sum(pq.read_metadata(p).num_rows for p in paths)
    assert _pushed(str(counted)) == n_in
    want = Counter()
    for p in paths:
        want += Counter(_routed(pq.read_table(p)).column("route").to_pylist())
    del want["views"]
    assert _on_disk_routes(out) == want
    # the shared plan's identities hold through the filter: each manifest
    # records the rows it dropped
    assert sum(m["metrics"]["dropped"] for m in _manifests(out)) \
        == n_in - sum(want.values())


def test_bare_read_with_route_column_runs_no_probe(ray_session, tmp_path,
                                                   spy):
    """No processors, input that already has ``route``: Ray knows a bare
    read's schema, so ``fetch_if_missing=False`` decides and no plan
    runs for it."""
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline

    src = tmp_path / "in"
    src.mkdir()
    t = _routed(pq.read_table(_write_inputs(str(tmp_path / "raw"), 1)[0]))
    pq.write_table(t, str(src / "routed.parquet"))
    out = str(tmp_path / "out")
    run_pipeline(_cfg(str(src), {}, []), out, resume=False)
    assert spy == {"limit": 0, "schema_fetch": 0}
    want = Counter(t.column("route").to_pylist())
    assert _on_disk_routes(out) == want
    (m,) = _manifests(out)
    assert m["metrics"]["per_route"] == dict(want)


def test_empty_fragment_commits(ray_session, tmp_path):
    """A zero-row input fragment commits an empty partition: the route
    decision asks no schema of a plan that has none."""
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline
    from opentelemetry_collector_ray.synth import synth_turns

    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(synth_turns(0.01, 1).slice(0, 0), str(src / "e.parquet"))
    out = str(tmp_path / "out")
    cfg = _cfg(str(src), {"parse": {}, "enrich": {}, "route": {}},
               ["parse", "enrich", "route"])
    assert len(run_pipeline(cfg, out, resume=False)["ran"]) == 1
    (m,) = _manifests(out)
    assert m["metrics"]["rows_in"] == m["metrics"]["rows_out"] == 0


def test_collect_runs_an_exchange_once(ray_session, tmp_path, monkeypatch):
    """``collect`` over a lazy bucket-exchange aggregate pushes each
    upstream row once (``to_arrow_refs`` alone would push it twice), and
    an empty input collects to ``[]``."""
    import ray.data

    from opentelemetry_collector_ray.stages import bucketing
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.treereduce import collect

    monkeypatch.setattr(bucketing, "TARGET_BUCKET_BYTES", 0)  # bucket path
    n = 4000
    t = pa.table({"k": pa.array([f"k{i % 37}" for i in range(n)])})
    ds = ray.data.from_arrow(t).repartition(4).map_batches(
        _row_counter(str(tmp_path)), batch_format="pyarrow")
    parts = collect(grouped_count(ds, ["k"], count_name="n"))
    assert _pushed(str(tmp_path)) == n
    got = pa.concat_tables(parts)
    assert got.num_rows == 37 and all(p.num_rows for p in parts)
    assert sum(got.column("n").to_pylist()) == n

    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.string())}))
    assert collect(grouped_count(empty, ["k"], count_name="n")) == []


def _two_pass(op: str, upstream, persist: str):
    from opentelemetry_collector_ray.stages.corpusstats import unigram_mass
    from opentelemetry_collector_ray.stages.sampling import (
        quota_sample, sample_bottom_k)

    if op == "unigram_mass":
        return unigram_mass(upstream, persist=persist)
    if op == "quota_sample":
        return quota_sample(upstream(), "k", 40, "doc_id", persist=persist)
    return sample_bottom_k(upstream(), 40, "doc_id")


@pytest.mark.parametrize("op,persist,passes", [
    ("unigram_mass", "none", 2), ("unigram_mass", "memory", 1),
    ("quota_sample", "none", 2), ("quota_sample", "memory", 1),
    ("sample_bottom_k", "none", 1)])
def test_upstream_pushes_per_pass(ray_session, tmp_path, op, persist,
                                  passes):
    """The cost contracts: ``persist="none"`` runs the upstream once per
    pass, ``persist="memory"`` runs it once, and the one-pass bottom-k
    sampler runs it once — no pass re-runs it for a schema."""
    import ray.data

    words = ["alpha", "beta", "gamma", "delta", "eps"]
    n = 4000
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "k": [f"k{i % 3}" for i in range(n)],
                  "text": [" ".join(words[(i + j) % 5] for j in range(i % 4 + 1))
                           for i in range(n)]})
    counted = str(tmp_path)

    def upstream():
        return ray.data.from_arrow(t).repartition(4).map_batches(
            _row_counter(counted), batch_format="pyarrow")

    out = _two_pass(op, upstream, persist).materialize()
    assert out.count() == (n if op == "unigram_mass" else 40)
    assert _pushed(counted) == passes * n


def _call_sites(path: str, hit, home: tuple[str, str],
                source: str | None = None) -> list[str]:
    """``path:line`` of each call whose ``ast.Attribute`` callee ``hit``
    accepts, outside the function ``home = (file suffix, name)``."""
    tree = ast.parse(open(path).read() if source is None else source, path)
    allowed: set[int] = set()
    if path.endswith(home[0]):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == home[1]:
                allowed |= {n.lineno for n in ast.walk(node)
                            if hasattr(n, "lineno")}
    return [f"{os.path.relpath(path, REPO)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and hit(node.func) and node.lineno not in allowed]


def _linted_files() -> list[str]:
    files = glob.glob(os.path.join(REPO, "opentelemetry_collector_ray",
                                   "**", "*.py"), recursive=True)
    files += [os.path.join(REPO, f) for f in
              ("__ray_entry__.py", "bench.py", "bench_skew.py")]
    return sorted(files)


def test_to_arrow_refs_only_inside_collect():
    """No-Ray lint: a lazy ``to_arrow_refs()`` runs its plan twice, so
    the package, the query registry and the bench scripts pull blocks
    only through ``treereduce.collect``, which materializes first."""
    home = (os.path.join("stages", "treereduce.py"), "collect")
    offenders = [site for f in _linted_files() for site in _call_sites(
        f, lambda fn: fn.attr == "to_arrow_refs", home)]
    assert offenders == []


# Ray's grouped reduces; pandas chains index a column first
# (``df.groupby(c)[col].sum()``) or call other methods (``.head(k)``)
_GROUPED = {"aggregate", "count", "sum", "min", "max", "mean", "std"}


def _is_ray_exchange(fn: ast.Attribute) -> bool:
    return fn.attr == "map_groups" or (
        fn.attr in _GROUPED and isinstance(fn.value, ast.Call)
        and isinstance(fn.value.func, ast.Attribute)
        and fn.value.func.attr == "groupby")


def _exchange_sites(path: str, source: str | None = None) -> list[str]:
    return _call_sites(path, _is_ray_exchange,
                       (os.path.join("stages", "bucketing.py"), "exchange"),
                       source)


def test_exchange_lint_flags_ray_chains_only():
    src = (
        "def f(ds, df):\n"
        "    a = ds.groupby('k').count()\n"
        "    b = df.groupby('c')['v'].sum()\n"
        "    c = df.groupby('c').head(3)\n"
        "    d = ds.groupby(['a', 'b']).map_groups(g)\n"
        "    return ds.map_groups(g)\n"
    )
    path = os.path.join(REPO, "planted.py")
    assert _exchange_sites(path, src) == [
        "planted.py:2", "planted.py:5", "planted.py:6"]


def test_one_keyed_exchange():
    """No-Ray lint: every Ray ``groupby`` runs inside
    ``bucketing.exchange`` (through ``bucketed_map_groups``, or
    ``grouped_agg``/``grouped_count`` for a keyed reduce), so a
    per-bucket cap or a hot-key split has one place to go."""
    offenders = [site for f in _linted_files()
                 for site in _exchange_sites(f)]
    assert offenders == []
