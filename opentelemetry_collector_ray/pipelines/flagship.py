"""Flagship pipeline: parse → enrich → route → aggregate over turns.

This is the whole collector data path (``docs/internal-architecture.md:
8-37``; receiver → processors → connector-router → exporters) as one lazy
Dataset composition. The streaming executor supplies the per-stage queues
+ backpressure the reference hand-rolls with channels and the memory
limiter (SURVEY.md §2.2 memorylimiter row, §4.2).

Stage map:
  read_turns              ← otlpreceiver        (sources/parquet.py)
  ParseStage              ← transform processor (stages/parse.py)
  EnrichStage actor pool  ← attributes/resource processors (stages/enrich.py)
  RouteStage              ← routing connector   (stages/route.py)
  grouped_count           ← counting aggregate  (stages/aggregate.py)
  write_routed            ← exporters           (sinks/parquet_sink.py)
"""

from __future__ import annotations

import pyarrow.compute as pc

import ray.data

from ..stages.aggregate import grouped_count
from ..stages.enrich import EnrichStage
from ..stages.parse import DEFAULT_PARSE_RULES, ParseStage, ruleset_hash
from ..stages.route import DEFAULT_ROUTE_RULES, RouteStage

AGG_KEYS = ["route", "role", "tool", "bucket"]


def build_routed(turns: ray.data.Dataset, *, parse_rules=DEFAULT_PARSE_RULES,
                 route_rules=DEFAULT_ROUTE_RULES, enrich_refs=None,
                 enrich_concurrency=None, batch_size: int = 8192,
                 ) -> ray.data.Dataset:
    """turns → parsed+enriched+routed dataset (adds attribute columns,
    enrichment columns, ``route``). ``batch_size`` default mirrors the
    reference's send_batch_size=8192 (batchprocessor/factory.go:19-20)."""
    parsed = turns.map_batches(ParseStage(parse_rules), batch_format="pyarrow",
                               batch_size=batch_size)
    if enrich_concurrency:
        enriched = parsed.map_batches(
            EnrichStage, fn_constructor_kwargs={"refs": enrich_refs},
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=enrich_concurrency)
    else:
        enriched = parsed.map_batches(EnrichStage(enrich_refs),
                                      batch_format="pyarrow", batch_size=batch_size)
    return enriched.map_batches(RouteStage(route_rules), batch_format="pyarrow",
                                batch_size=batch_size)


def build_aggregate(routed: ray.data.Dataset, *, bucket_unit: str = "hour",
                    keys: list[str] = AGG_KEYS) -> ray.data.Dataset:
    """Routed rows → per (route, role, tool, time-bucket) counts, two-phase:
    a partial count per batch, then ONE combine task over all partials
    (``grouped_count`` strategy="tree" — the plan's only all-to-all
    operator is the ``repartition(1)`` in front of that task)."""
    with_bucket = routed.map_batches(
        lambda t: t.append_column("bucket", pc.floor_temporal(t.column("ts"),
                                                              unit=bucket_unit)),
        batch_format="pyarrow")
    return grouped_count(with_bucket.select_columns(keys), keys, count_name="n_turns")


def flagship_hash(parse_rules=DEFAULT_PARSE_RULES, route_rules=DEFAULT_ROUTE_RULES) -> str:
    """Config fingerprint for manifests (parse + route rules)."""
    import hashlib
    import json

    h = ruleset_hash(tuple(parse_rules))
    blob = json.dumps([[r.sink, sorted(r.strict.items()), sorted(r.regex.items())]
                       for r in route_rules])
    return hashlib.sha256((h + blob).encode()).hexdigest()[:16]
