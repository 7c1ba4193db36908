"""The YAML builder composes each run of adjacent batch-map processors
into one ``map_batches(StageChain(run, None))``, and a sub-MiB fragment
reads as one block, so Ray runs read → processors as one operator with
one task, as it does ``build_routed``."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _maps(ds) -> list:
    from ray.data._internal.logical.operators.map_operator import MapBatches

    maps, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        maps += [op] if isinstance(op, MapBatches) else []
        todo.extend(op.input_dependencies)
    return maps[::-1]  # read order


def _operators(stats: str) -> list[str]:
    return [line.split(" ", 2)[2] for line in stats.splitlines()
            if line.startswith("Operator ")]


def _fragment(tmp_path, rows: int = 10_000) -> str:
    from opentelemetry_collector_ray.synth import synth_turns

    path = str(tmp_path / "turns-0.parquet")
    pq.write_table(synth_turns(sf=1.2, seed=4).slice(0, rows), path)
    return path


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def test_example_pipeline_is_one_fused_task(ray_session, tmp_path):
    """examples/pipeline.yaml over one 10k-row fragment at 4 CPUs: one
    ``MapBatches`` with no batch size, and the run is one operator,
    ``ReadParquet->MapBatches(StageChain)``, with one task."""
    from opentelemetry_collector_ray.config import PipelineConfig
    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.pipelines.flagship import StageChain
    from opentelemetry_collector_ray.sources.parquet import plan_read
    from opentelemetry_collector_ray.stages.enrich import EnrichStage
    from opentelemetry_collector_ray.stages.parse import ParseStage
    from opentelemetry_collector_ray.stages.route import RouteStage

    path = _fragment(tmp_path)
    assert plan_read(path, cpus=4).blocks == 1
    cfg = PipelineConfig.from_yaml(os.path.join(REPO, "examples",
                                                "pipeline.yaml"))
    ds = build_dataset(cfg, paths=[path])
    (m,) = _maps(ds)
    assert m._min_rows_per_bundled_input is None
    assert isinstance(m._fn, StageChain) and m._fn.batch_size is None
    assert [type(s) for s in m._fn.stages] == [ParseStage, EnrichStage,
                                               RouteStage]

    stats = ds.materialize().stats()
    assert "SplitBlocks" not in stats
    (op,) = _operators(stats)
    assert op.startswith("ReadParquet->MapBatches(StageChain)"), op
    assert ": 1 tasks executed" in op, op
    assert ds.count() == 10_000


def test_dataset_transform_splits_the_chain(ray_session, tmp_path):
    """A ``DatasetTransform`` (``sentence_stats``) between map processors
    ends a chain, and so does a processor with its own ``batch_size``;
    the output equals one ``map_batches`` per processor."""
    from opentelemetry_collector_ray.config import (
        DatasetTransform, PipelineConfig, get_factory)
    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.pipelines.flagship import StageChain
    from opentelemetry_collector_ray.sources.parquet import read_turns
    from opentelemetry_collector_ray.stages.treereduce import collect

    path = _fragment(tmp_path, rows=3000)
    processors = {"parse": {}, "enrich": {},
                  "sentence_stats": {"column": "text"},
                  "route": {"default_sink": "default"}, "time_bucket": {},
                  "filter": {"exclude": {"column": "route",
                                         "strict": ["views"]},
                             "batch_size": 500}}
    order = list(processors)
    cfg = PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": [path]}},
        "processors": processors,
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "processors": order,
            "exporters": ["debug"]}}},
    }, expand=False)
    ds = build_dataset(cfg)
    chains = [m._fn for m in _maps(ds) if isinstance(m._fn, StageChain)]
    assert [[type(s).__name__ for s in c.stages] for c in chains] == [
        ["ParseStage", "EnrichStage"], ["RouteStage", "function"]]
    assert [m._min_rows_per_bundled_input for m in _maps(ds)][-1] == 500

    want = read_turns([path])
    for name in order:
        stage = get_factory(name).create(processors[name])
        want = stage(want) if isinstance(stage, DatasetTransform) else \
            want.map_batches(stage, batch_format="pyarrow")
    got = _sorted(pa.concat_tables(collect(ds)))
    want = _sorted(pa.concat_tables(collect(want)))
    assert got.num_rows > 0 and "views" not in got.column("route").to_pylist()
    assert got.equals(want)
