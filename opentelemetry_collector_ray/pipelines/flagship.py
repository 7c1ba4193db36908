"""Flagship pipeline: parse → enrich → route → aggregate over turns.

This is the whole collector data path (``docs/internal-architecture.md:
8-37``; receiver → processors → connector-router → exporters) as one lazy
Dataset composition. The streaming executor supplies the per-stage queues
+ backpressure the reference hand-rolls with channels and the memory
limiter (SURVEY.md §2.2 memorylimiter row, §4.2).

Stage map:
  read_turns              ← otlpreceiver        (sources/parquet.py)
  ParseStage              ← transform processor (stages/parse.py)
  EnrichStage             ← attributes/resource processors (stages/enrich.py)
  RouteStage              ← routing connector   (stages/route.py)
  grouped_count           ← counting aggregate  (stages/aggregate.py)
  write_routed            ← exporters           (sinks/parquet_sink.py)

Parse, enrich and route run as one ``map_batches`` callable
(:class:`StageChain`), as a collector pushes each batch once through its
processors (``consumer/logs.go:15-20``). It is mapped with no
``batch_size``, so Ray fuses it into the read tasks and the read blocks
never pass through the object store; the chain slices each block itself.
``read_turns`` plans its tasks from the Parquet footers, with no
sampling task before the plan, and bundles neighbouring small files so
the read makes about two tasks per CPU (``max(1 MiB, footer bytes //
(2 × CPUs))`` each): every task is one block, read and mapped in one Ray
task, and each task's fixed cost is paid once per bundle, not once per
file. Ray does not fuse a read that splits a file into more blocks
(``SplitBlocks``), so a file is split only into pieces of at least
1 MiB. The YAML builder composes runs of adjacent processors the same
way (``pipelines/builder.build_dataset``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.block import BlockAccessor

from ..stages.aggregate import grouped_count
from ..stages.bucketing import adds_no_rows
from ..stages.enrich import EnrichStage
from ..stages.parse import DEFAULT_PARSE_RULES, ParseStage
from ..stages.route import DEFAULT_ROUTE_RULES, RouteStage

AGG_KEYS = ["route", "role", "tool", "bucket"]


class StageChain:
    """Runs ``stages`` in order over each ``batch_size``-row slice of a
    block (the whole block when ``batch_size`` is None) and concatenates
    the slices. A stage's output that is not a ``pa.Table`` becomes one
    as Ray turns a UDF's output into the next fused op's ``pyarrow``
    batch. A zero-row block still goes through the stages once, so its
    output has the full schema."""

    def __init__(self, stages, batch_size: int | None):
        self.stages = tuple(stages)
        self.batch_size = batch_size

    @property
    def adds_no_rows(self) -> bool:
        return all(getattr(s, "adds_no_rows", False) for s in self.stages)

    def __call__(self, block: pa.Table) -> pa.Table:
        step = self.batch_size or max(block.num_rows, 1)
        out = []
        for lo in range(0, max(block.num_rows, 1), step):
            batch = block.slice(lo, step)
            for stage in self.stages:
                batch = stage(batch)
                if not isinstance(batch, pa.Table):
                    batch = BlockAccessor.for_block(
                        BlockAccessor.batch_to_block(batch)).to_arrow()
            out.append(batch)
        return out[0] if len(out) == 1 else pa.concat_tables(out)


def build_routed(turns: ray.data.Dataset, *, parse_rules=DEFAULT_PARSE_RULES,
                 route_rules=DEFAULT_ROUTE_RULES, batch_size: int = 8192,
                 ) -> ray.data.Dataset:
    """turns → parsed+enriched+routed dataset (adds attribute columns,
    enrichment columns, ``route``), as one map operator fused into the
    read. ``batch_size`` is the rows each stage sees per call, which
    bounds per-call memory; its default mirrors the reference's
    send_batch_size=8192 (batchprocessor/factory.go:19-20)."""
    chain = StageChain((ParseStage(parse_rules), EnrichStage(),
                        RouteStage(route_rules)), batch_size)
    return turns.map_batches(chain, batch_format="pyarrow")


def build_aggregate(routed: ray.data.Dataset, *, bucket_unit: str = "hour",
                    keys: list[str] = AGG_KEYS) -> ray.data.Dataset:
    """Routed rows → per (route, role, tool, time-bucket) counts, two-phase:
    a partial count per batch, then ONE combine task over all partials
    (``grouped_count`` on an input of at most ``TARGET_BUCKET_BYTES``,
    measured through the stages, which add no rows — the plan's only
    all-to-all operator is the ``repartition(1)`` in front of that
    task)."""
    with_bucket = routed.map_batches(
        adds_no_rows(lambda t: t.append_column(
            "bucket", pc.floor_temporal(t.column("ts"), unit=bucket_unit))),
        batch_format="pyarrow")
    return grouped_count(with_bucket.select_columns(keys), keys, count_name="n_turns")
