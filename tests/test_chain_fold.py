"""A reduce over a ``StageChain`` map joins the chain (``chain.then``):
the flagship's partial count runs on each 8192-row slice inside the
read task, so a task holds one slice's stage output, not a whole
block's."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from opentelemetry_collector_ray.pipelines.flagship import AGG_KEYS
from opentelemetry_collector_ray.stages.aggregate import (
    CombineStage, PartialCountStage, add_time_bucket)
from opentelemetry_collector_ray.stages.chain import StageChain
from opentelemetry_collector_ray.stages.enrich import EnrichStage
from opentelemetry_collector_ray.stages.parse import ParseStage
from opentelemetry_collector_ray.stages.route import RouteStage

ROOT = Path(__file__).resolve().parents[1]


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in t.column_names])


def _rows(ds) -> pa.Table:
    import ray

    return _sorted(pa.concat_tables(ray.get(ds.materialize().to_arrow_refs())))


def _ops(ds) -> list:
    out, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        out.append(op)
        todo.extend(op.input_dependencies)
    return out


def test_sliced_partial_then_combine_equals_whole_block():
    """Partial counts per 7-row slice, merged by ``CombineStage``, equal
    the partial over the whole block merged the same way, with nulls
    planted in a key (``tool``)."""
    from opentelemetry_collector_ray.synth import synth_turns

    t = synth_turns(sf=0.05, seed=11)
    tool = t.column("tool").to_pylist()
    t = t.set_column(t.column_names.index("tool"), "tool",
                     pa.array([None if i % 5 == 0 else v
                               for i, v in enumerate(tool)], pa.string()))
    stages = (ParseStage(), EnrichStage(), RouteStage())
    combine = CombineStage(AGG_KEYS, ["n_turns"])
    part = PartialCountStage(AGG_KEYS)

    sliced = StageChain(stages + (add_time_bucket, part), 7)(t)
    whole = StageChain(stages + (add_time_bucket,), None)(t)
    want = combine(part(whole.select(AGG_KEYS)))
    assert sliced.num_rows > want.num_rows  # one partial row per slice
    got = combine(sliced)
    assert got.column("tool").null_count > 0
    assert _sorted(got).equals(_sorted(want))
    assert sum(got.column("n_turns").to_pylist()) == t.num_rows


_MEMORY_PROBE = textwrap.dedent("""
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.flagship import (
        AGG_KEYS, StageChain)
    from opentelemetry_collector_ray.stages.aggregate import (
        PartialCountStage, add_time_bucket)
    from opentelemetry_collector_ray.stages.enrich import EnrichStage
    from opentelemetry_collector_ray.stages.parse import ParseStage
    from opentelemetry_collector_ray.stages.route import RouteStage

    pa.set_memory_pool(pa.system_memory_pool())
    block = pq.read_table(sys.argv[1:])
    stages = (ParseStage(), EnrichStage(), RouteStage())
    part = PartialCountStage(AGG_KEYS)

    def unfolded(b):
        routed = StageChain(stages, 8192)(b)
        return part(add_time_bucket(routed).select(AGG_KEYS))

    def folded(b):
        return StageChain(stages + (add_time_bucket, part), 8192)(b)

    for run in (unfolded, folded):
        pool = pa.proxy_memory_pool(pa.system_memory_pool())
        pa.set_memory_pool(pool)
        run(block)
        print(run.__name__, pool.max_memory())
""")


def test_folded_chain_holds_a_slice_not_a_block(tmp_path):
    """Over one 4-file block (100k turns), the stages' Arrow allocations
    peak at no more than a quarter of the unfolded path's, which holds
    the whole block's routed output before it buckets and counts. Run in
    a subprocess: the memory pool is process-wide."""
    from opentelemetry_collector_ray.synth import write_turns_parquet

    paths = write_turns_parquet(str(tmp_path), sf=10, seed=3, shards=4)
    assert sum(pq.read_metadata(p).num_rows for p in paths) > 8 * 8192
    out = subprocess.run([sys.executable, "-c", _MEMORY_PROBE, *paths],
                         capture_output=True, text=True, check=True,
                         cwd=ROOT, timeout=300)
    peak = dict(line.split() for line in out.stdout.splitlines())
    assert 0 < int(peak["folded"]) <= int(peak["unfolded"]) // 4, peak


def test_flagship_aggregate_equals_unfolded_plan(ray_session, tmp_path):
    """The folded flagship plan is three operators and its counts equal
    the plan with the bucket and the partial as their own maps; the
    ``routed`` dataset it was built from still yields every column."""
    import re

    from opentelemetry_collector_ray.pipelines.flagship import (
        build_aggregate, build_routed)
    from opentelemetry_collector_ray.sources.parquet import read_turns
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.bucketing import adds_no_rows
    from opentelemetry_collector_ray.synth import write_turns_parquet

    paths = write_turns_parquet(str(tmp_path), sf=3, seed=5, shards=4)
    routed = build_routed(read_turns(paths))
    routed_names = routed.schema().names
    agg = build_aggregate(routed).materialize()
    ops = re.findall(r"^Operator \d+ ([^:]+):", agg.stats(), re.M)
    assert ops == ["ReadParquet->MapBatches(StageChain)", "Repartition",
                   "MapBatches(CombineStage)"], ops

    bucketed = routed.map_batches(
        adds_no_rows(partial(add_time_bucket)), batch_format="pyarrow")
    parent = grouped_count(bucketed.select_columns(AGG_KEYS), AGG_KEYS)
    assert _rows(agg).equals(_rows(parent))

    assert len(routed._logical_plan.dag._fn.stages) == 3
    rows = _rows(routed)
    assert rows.column_names == routed_names
    assert "route" in routed_names and "bucket" not in routed_names
    assert rows.num_rows == sum(pq.read_metadata(p).num_rows for p in paths)


def test_reduce_over_other_maps_keeps_its_own_partial(ray_session):
    """A map that is not a chain, a chain with its own batch size, or a
    chain over a source other than ``read_turns`` (whose partial asks
    for 64k-row batches) does not fold: the partial stays a separate
    ``MapBatches``."""
    import ray.data

    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    t = pa.table({"k": ["a", "b", "a", None], "v": [1, 2, 3, 4]})
    for ds in (ray.data.from_arrow(t).map_batches(lambda b: b,
                                                  batch_format="pyarrow"),
               ray.data.from_arrow(t).map_batches(
                   StageChain((lambda b: b,), None), batch_format="pyarrow",
                   batch_size=2),
               ray.data.from_arrow(t).map_batches(
                   StageChain((lambda b: b,), None),
                   batch_format="pyarrow")):
        names = [op.name for op in _ops(grouped_count(ds, ["k"]))]
        assert "MapBatches(PartialCountStage)" in names, names
        assert _rows(grouped_count(ds, ["k"])).to_pylist() == [
            {"k": "a", "n_turns": 2}, {"k": "b", "n_turns": 1},
            {"k": None, "n_turns": 1}]


def test_then_falls_back_when_the_plan_shape_differs(ray_session,
                                                     monkeypatch):
    """If Ray's logical operator lacks an attribute ``then`` reads, or
    the caller asks for a batch size, the stage is mapped on its own
    instead of raising, and the result is unchanged."""
    import ray.data

    from opentelemetry_collector_ray.stages.chain import then

    t = pa.table({"x": list(range(10))})
    double = StageChain((lambda b: b.set_column(0, "x", pc.multiply(
        b.column("x"), 2)),), 4)
    ds = ray.data.from_arrow(t).map_batches(double, batch_format="pyarrow")

    def add_y(b):
        return b.append_column("y", pc.add(b.column("x"), 1))

    folded = then(ds, add_y)
    assert folded._logical_plan.dag._fn.stages[-1] is add_y
    sized = then(ds, add_y, batch_size=3)
    assert sized._logical_plan.dag._fn is add_y
    assert sized._logical_plan.dag._batch_size == 3
    monkeypatch.delattr(ds._logical_plan.dag, "_fn_kwargs")
    mapped = then(ds, add_y)
    monkeypatch.undo()
    assert mapped._logical_plan.dag._fn is add_y
    assert mapped._logical_plan.dag.input_dependencies[0] \
        is ds._logical_plan.dag
    want = pa.table({"x": [2 * i for i in range(10)],
                     "y": [2 * i + 1 for i in range(10)]})
    for out in (folded, sized, mapped):
        assert _rows(out).equals(want)
