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

Parse, enrich, route, the time bucket and the partial count run as one
``map_batches`` callable (:class:`StageChain`, ``stages/chain.py``), as a
collector pushes each batch once through its processors
(``consumer/logs.go:15-20``): the chain cuts each block into
``batch_size``-row slices, runs all five stages on a slice and keeps
only its partial counts, so a read task holds one slice's stage output,
not a whole block's. It is mapped with no ``batch_size``, so Ray fuses
it into the read tasks and the read blocks never pass through the
object store. The plan is three operators:
``ReadParquet->MapBatches(StageChain)`` → ``Repartition`` →
``MapBatches(CombineStage)``.
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

from functools import partial

import ray.data

from ..stages.aggregate import add_time_bucket, grouped_count
from ..stages.bucketing import adds_no_rows
from ..stages.chain import StageChain, then
from ..stages.enrich import EnrichStage
from ..stages.parse import DEFAULT_PARSE_RULES, ParseStage
from ..stages.route import DEFAULT_ROUTE_RULES, RouteStage

AGG_KEYS = ["route", "role", "tool", "bucket"]


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
    the time bucket and a partial count join ``routed``'s chain
    (``chain.then``), so each slice reduces to its partial
    rows before the next slice is parsed; then ONE combine task over all
    partials (``grouped_count`` on an input of at most
    ``TARGET_BUCKET_BYTES``, measured through the stages, which add no
    rows — the plan's only all-to-all operator is the ``repartition(1)``
    in front of that task). ``routed`` itself is left unchanged."""
    bucketed = then(routed, adds_no_rows(partial(add_time_bucket,
                                                 unit=bucket_unit)))
    return grouped_count(bucketed, keys, count_name="n_turns")
