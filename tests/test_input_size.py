"""The input-size measurement behind the keyed-reduce size rule:
``bucketing.estimate_input_bytes`` reads the plan's source metadata
through operators that add no rows without running anything, is
unknown past one that may add rows, and the flagship's small input
keeps its one-task plan."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _boom(t: pa.Table) -> pa.Table:
    raise AssertionError("the measurement ran the plan")


def test_estimate_sees_through_row_bounded_operators(ray_session,
                                                     tmp_path):
    import ray.data

    from opentelemetry_collector_ray.sources.parquet import read_turns
    from opentelemetry_collector_ray.stages import bucketing
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    n = 5000
    on_disk = pa.table({"k": pa.array(np.arange(n) % 17),
                        "v": pa.array(np.arange(n, dtype=np.int64))})
    paths = []
    for i in range(2):
        paths.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(on_disk.slice(i * n // 2, n // 2), paths[-1],
                       row_group_size=1000)
    file_bytes = sum(md.row_group(g).total_byte_size
                     for md in map(pq.read_metadata, paths)
                     for g in range(md.num_row_groups))
    in_memory = pa.table({"k": pa.array(np.arange(300) % 5),
                          "v": pa.array(np.ones(300, np.int64))})

    read = read_turns(paths)
    mem = ray.data.from_arrow(in_memory)
    assert bucketing.estimate_input_bytes(read) == file_bytes
    assert bucketing.estimate_input_bytes(mem) == in_memory.nbytes

    marked = bucketing.adds_no_rows(lambda t: _boom(t))
    plan = read.map_batches(marked, batch_format="pyarrow") \
        .select_columns(["k", "v"]) \
        .union(mem.map_batches(marked, batch_format="pyarrow")) \
        .filter(marked).repartition(3).sort("k")
    want = file_bytes + in_memory.nbytes
    assert bucketing.estimate_input_bytes(plan) == want
    # a source reached twice counts twice: a self-union doubles the rows
    assert bucketing.estimate_input_bytes(mem.union(mem)) == \
        2 * in_memory.nbytes
    # planning an aggregate over it measures the same plan, runs nothing
    assert bucketing.fits_one_task(plan)
    grouped_agg(plan, ["k"], count_name="n")


def test_estimate_is_none_past_an_operator_that_may_add_rows(ray_session):
    """An unmarked map, a ``flat_map`` or an exchange may emit more rows
    than it takes in, so the source size bounds nothing past it."""
    import ray.data

    from opentelemetry_collector_ray.stages import bucketing

    mem = ray.data.from_arrow(pa.table({"k": pa.array(np.arange(300) % 5)}))
    marked = bucketing.adds_no_rows(lambda t: _boom(t))
    for plan in (
            mem.map_batches(_boom, batch_format="pyarrow"),
            mem.flat_map(lambda r: [r, r]),
            bucketing.bucketed_map_groups(mem, "k", marked),
            mem.union(mem.map_batches(_boom, batch_format="pyarrow")),
            mem.map_batches(_boom, batch_format="pyarrow").select_columns(
                ["k"]).map_batches(marked, batch_format="pyarrow")):
        assert bucketing.estimate_input_bytes(plan) is None
        assert not bucketing.fits_one_task(plan)
        assert bucketing.resolve_n_buckets(plan, "auto") == 64
    # a plan whose shape the walk does not know is unmeasured, not an error
    assert bucketing.estimate_input_bytes(object()) is None


def test_row_multiplying_map_takes_the_bucket_path(ray_session):
    """A map that repeats each row of a tiny input 40 times: the input
    is measured in bytes, but the partials could outgrow it, so the
    aggregate merges through the bucket exchange, and counts exactly."""
    import ray.data

    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    t = pa.table({"k": pa.array(np.arange(500))})

    def repeat(b: pa.Table) -> pa.Table:
        return b.take(pa.array(np.repeat(np.arange(b.num_rows), 40)))

    ds = ray.data.from_arrow(t).map_batches(repeat, batch_format="pyarrow")
    out = grouped_count(ds, ["k"], count_name="n").materialize()
    ops = re.findall(r"^Operator \d+ ([^:]+):", out.stats(), re.M)
    assert "Sort" in ops and "Repartition" not in ops, ops
    got = out.to_pandas()
    assert len(got) == 500 and set(got["n"]) == {40}


def test_partial_bundles_small_blocks(ray_session):
    """Eight small blocks behind an exchange share ONE partial task
    (64k-row batches), so the merge reads one partial block, not
    eight."""
    import ray.data

    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    t = pa.table({"k": pa.array(np.arange(4000) % 7)})
    out = grouped_count(ray.data.from_arrow(t).repartition(8), ["k"],
                        count_name="n").materialize()
    tasks = dict(re.findall(r"^Operator \d+ ([^:]+): (\d+) tasks executed",
                            out.stats(), re.M))
    assert tasks["MapBatches(PartialCountStage)"] == "1", tasks
    assert sorted(out.to_pandas()["n"]) == sorted(
        np.bincount(np.arange(4000) % 7).tolist())


def test_estimate_is_none_for_an_unsized_source(ray_session):
    """A source that cannot say its size makes the whole input unsized:
    the keyed reduce then takes the bucket exchange with 64 buckets."""
    import ray.data
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    from opentelemetry_collector_ray.stages import bucketing

    class Unsized(Datasource):
        def estimate_inmemory_data_size(self):
            return None

        def get_read_tasks(self, parallelism):
            meta = BlockMetadata(num_rows=None, size_bytes=None,
                                 input_files=None, exec_stats=None)
            return [ReadTask(lambda: [pa.table({"k": [1]})], meta)]

    ds = ray.data.read_datasource(Unsized()).map_batches(
        _boom, batch_format="pyarrow")
    sized = ray.data.from_arrow(pa.table({"k": [2]}))
    for plan in (ds, ds.union(sized), sized.union(ds)):
        assert bucketing.estimate_input_bytes(plan) is None
        assert not bucketing.fits_one_task(plan)
        assert bucketing.resolve_n_buckets(plan, "auto") == 64
    assert bucketing.resolve_n_buckets(sized, "auto") == 16


def test_flagship_plan_keeps_its_one_task_combine(ray_session, tmp_path):
    """The flagship aggregate over a few small files stays the read with
    its stage chain (the partial count inside it) → ``repartition(1)`` →
    one combine task."""
    from opentelemetry_collector_ray.pipelines.flagship import (
        build_aggregate, build_routed)
    from opentelemetry_collector_ray.sources.parquet import read_turns
    from opentelemetry_collector_ray.synth import write_turns_parquet

    paths = write_turns_parquet(str(tmp_path), sf=0.2, seed=3, shards=4)
    agg = build_aggregate(build_routed(read_turns(paths))).materialize()
    ops = re.findall(r"^Operator \d+ ([^:]+):", agg.stats(), re.M)
    assert ops[-3] == "ReadParquet->MapBatches(StageChain)", ops
    assert ops[-2:] == ["Repartition", "MapBatches(CombineStage)"], ops
    assert sum(agg.to_pandas()["n_turns"]) == sum(
        pq.read_metadata(p).num_rows for p in paths)
