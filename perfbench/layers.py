"""Outside-in layer trace: spans recorded around the benchmark's calls
into each layer's public functions.

A traced repetition of a workload records, under one root span:

- ``engine.<workload>``: the workload's Ray plan, run once as in the
  untimed runs. Its duration is the traced wall.
- ``sources.read`` … ``stages.aggregate.combine``: the same stage chain
  replayed single-threaded in this process over the same fragments, one
  span per call. Ray fuses parse through partial into one operator, so
  these calls are where the time inside the UDFs can be split by layer.
- ``exchange``: ``session_stats`` keyed by ``conv_id`` over the blocks
  the workload's read produces, already in the object store (the hash
  bucket → groupby → per-bucket reduce exchange).
- ``sinks.parquet_sink.write``: ``write_routed`` of each fragment's
  routed rows, already in the object store.
- ``pipelines.builder.run_pipeline``: the routed pipeline, whose
  committed manifests give each partition's wall (on ``routed_cli`` the
  engine run is that pipeline and is not repeated).

Every layer is measured on every workload; ``ON_PATH`` names the layers
a workload's plan runs, and only those count toward ``trace.coverage``
and ``engine.other_s``.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

EXCHANGE_BUCKETS = 64  # session_stats' default bucket count

ON_PATH = {
    "flagship_agg": ("sources.read", "stages.parse", "stages.enrich",
                     "stages.route", "stages.aggregate.bucket",
                     "stages.aggregate.partial", "stages.aggregate.combine"),
    "routed_cli": ("sources.read", "stages.parse", "stages.enrich",
                   "stages.route", "sinks.parquet_sink.write"),
    "conv_sessions": ("sources.read", "exchange"),
}

_FLAGSHIP = "flagship_agg turns_per_s strongly, routed_cli weakly"
_EXCHANGE = "conv_sessions wall_s and peak_rss_mb; not flagship_agg"

# name -> (unit, layer it times, end-to-end metric it should move), in
# the order they are reported
LAYER_METRICS = {
    "read.s": ("s", "sources", "wall_s on every workload"),
    "read.rows_per_s": ("rows/s", "sources", "wall_s on every workload"),
    "parse.us_per_row": ("us/row", "stages.parse", _FLAGSHIP),
    "parse.match_frac": ("fraction", "stages.parse", "none: input shape"),
    "enrich.us_per_row": ("us/row", "stages.enrich", _FLAGSHIP),
    "route.us_per_row": ("us/row", "stages.route", _FLAGSHIP),
    "bucket.us_per_row": ("us/row", "stages.aggregate", "flagship_agg wall_s"),
    "partial.us_per_row": ("us/row", "stages.aggregate",
                           "flagship_agg wall_s"),
    "partial.rows_out_per_row": ("rows/row", "stages.aggregate",
                                 "flagship_agg wall_s"),
    "combine.s": ("s", "stages.aggregate", "flagship_agg wall_s"),
    "exchange.s": ("s", "stages.bucketing", _EXCHANGE),
    "exchange.rows": ("rows", "stages.bucketing", _EXCHANGE),
    "exchange.max_task_rows": ("rows", "stages.bucketing", _EXCHANGE),
    "exchange.skew": ("ratio", "functions.hashing", _EXCHANGE),
    "write.s": ("s", "sinks.parquet_sink", "routed_cli wall_s only"),
    "write.bytes_per_turn": ("bytes/turn", "sinks.parquet_sink",
                             "routed_cli wall_s only"),
    "write.files": ("count", "sinks.parquet_sink", "routed_cli wall_s only"),
    "partition.startup_s": ("s", "pipelines.builder, state.manifest",
                            "routed_cli partition_p50_s"),
    "baseline.inproc_turns_per_s": ("turns/s", "engine",
                                    "none: single-threaded baseline"),
    "engine.other_s": ("s", "engine", "wall_s of the workload traced"),
    "trace.wall_s": ("s", "engine", "none: the traced wall"),
    "trace.coverage": ("fraction", "engine", "none: layer share of the wall"),
    "trace.overhead_frac": ("fraction", "engine", "none: cost of tracing"),
}


class Tracer:
    """In-memory spans: id, parent, name, start, end (seconds on the
    ``perf_counter`` clock) and attributes. Spans of one traced
    repetition share a trace id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count(1)
        self._trace_id = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self._stack:
            self._trace_id += 1
        s = {"id": next(self._ids), "trace": self._trace_id,
             "parent": self._stack[-1]["id"] if self._stack else None,
             "name": name, "attrs": attrs, "start": time.perf_counter()}
        self._stack.append(s)
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def self_times(self, trace_id: int) -> dict[str, float]:
        """Per span name: summed duration minus the time its direct
        children cover."""
        mine = [s for s in self.spans if s["trace"] == trace_id]
        child = {}
        for s in mine:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + \
                    s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in mine:
            out[s["name"]] = out.get(s["name"], 0.0) + \
                s["end"] - s["start"] - child.get(s["id"], 0.0)
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


def _replay(tracer: Tracer, paths: list[str]) -> dict:
    """The flagship's stage chain, one span per layer call, over each
    fragment in turn. Parse, enrich and route see ``build_routed``'s
    batch size; bucket and partial see a whole fragment, as Ray hands
    them one block per fragment."""
    from opentelemetry_collector_ray.pipelines.flagship import (
        AGG_KEYS, build_routed)
    from opentelemetry_collector_ray.stages.aggregate import (
        CombineStage, PartialCountStage, add_time_bucket)
    from opentelemetry_collector_ray.stages.enrich import EnrichStage
    from opentelemetry_collector_ray.stages.parse import ParseStage
    from opentelemetry_collector_ray.stages.route import RouteStage

    batch = inspect.signature(build_routed).parameters["batch_size"].default
    parse, enrich, route = ParseStage(), EnrichStage(), RouteStage()
    partial = PartialCountStage(AGG_KEYS)
    tables, routed, partials, per_fragment = [], [], [], []
    matched = rows = 0
    for path in paths:
        t0 = time.perf_counter()
        with tracer.span("sources.read", path=os.path.basename(path)):
            table = pq.read_table(path)
        out = []
        for lo in range(0, table.num_rows, batch):
            b = table.slice(lo, batch)
            with tracer.span("stages.parse", rows=b.num_rows):
                b = parse(b)
            matched += pc.sum(pc.greater_equal(b.column("parse_rule"), 0)).as_py()
            with tracer.span("stages.enrich", rows=b.num_rows):
                b = enrich(b)
            with tracer.span("stages.route", rows=b.num_rows):
                b = route(b)
            out.append(b)
        frag = pa.concat_tables(out)
        # read through route: the in-process share of a routed partition
        per_fragment.append(time.perf_counter() - t0)
        with tracer.span("stages.aggregate.bucket", rows=frag.num_rows):
            keyed = add_time_bucket(frag).select(AGG_KEYS)
        with tracer.span("stages.aggregate.partial", rows=frag.num_rows):
            partials.append(partial(keyed))
        rows += table.num_rows
        tables.append(table)
        routed.append(frag)
    with tracer.span("stages.aggregate.combine"):
        CombineStage(AGG_KEYS, ["n_turns"])(pa.concat_tables(partials))
    return {"tables": tables, "routed": routed, "rows": rows,
            "matched": matched,
            "partial_rows": sum(p.num_rows for p in partials),
            "per_fragment_s": per_fragment}


def _exchange(tracer: Tracer, paths: list[str],
              tables: list[pa.Table]) -> dict:
    import numpy as np

    from opentelemetry_collector_ray.functions.hashing import bucket_of
    from opentelemetry_collector_ray.sources.parquet import read_turns
    from opentelemetry_collector_ray.stages.sessionize import session_stats

    keys = pa.chunked_array([t.column("conv_id") for t in tables])
    per_bucket = np.bincount(bucket_of(keys, EXCHANGE_BUCKETS),
                             minlength=EXCHANGE_BUCKETS)
    # the blocks the workload's read produces, already in the object store
    ds = read_turns(paths).materialize()
    with tracer.span("exchange", rows=len(keys)):
        session_stats(ds, key="conv_id").to_pandas()
    return {"rows": len(keys), "max_task_rows": int(per_bucket.max()),
            "skew": float(per_bucket.max() / per_bucket.mean())}


def _sink(tracer: Tracer, routed: list[pa.Table], out_dir: str) -> dict:
    import ray.data

    from opentelemetry_collector_ray.sinks.parquet_sink import write_routed

    for i, table in enumerate(routed):
        ds = ray.data.from_arrow(table).materialize()
        with tracer.span("sinks.parquet_sink.write", rows=table.num_rows):
            write_routed(ds, os.path.join(out_dir, f"frag-{i:04d}"))
    files = [os.path.join(d, f) for d, _, fs in os.walk(out_dir) for f in fs
             if f.endswith(".parquet")]
    return {"files": len(files),
            "bytes": sum(os.path.getsize(f) for f in files)}


def traced_repetition(tracer: Tracer, workload, paths: list[str],
                      oracle, scratch: str,
                      untraced_wall: float) -> tuple[dict, list[str]]:
    """One traced repetition; returns its per-layer metrics and the
    problems the output check found in its engine run."""
    from .workloads import RoutedCli, pipeline_config

    out_dir = os.path.join(scratch, "traced")
    shutil.rmtree(out_dir, ignore_errors=True)
    with tracer.span("run", workload=workload.name) as root:
        with tracer.span(f"engine.{workload.name}") as engine:
            raw = workload.run(paths, os.path.join(out_dir, "engine"))
        problems = workload.check(workload.collect(raw), oracle, paths)
        replay = _replay(tracer, paths)
        exchange = _exchange(tracer, paths, replay["tables"])
        sink = _sink(tracer, replay["routed"], os.path.join(out_dir, "sink"))
        if isinstance(workload, RoutedCli):
            manifests = workload.collect(raw).manifests
        else:
            from opentelemetry_collector_ray.pipelines.builder import (
                run_pipeline)

            probe = os.path.join(out_dir, "partitions")
            with tracer.span("pipelines.builder.run_pipeline"):
                run_pipeline(pipeline_config(paths), probe, resume=False)
            manifests = RoutedCli().collect(probe).manifests
    own = tracer.self_times(root["trace"])
    rows = replay["rows"]
    wall = engine["end"] - engine["start"]
    inproc = sum(own[k] for k in ON_PATH["flagship_agg"])
    on_path = sum(own[k] for k in ON_PATH[workload.name])
    fragment_s = dict(zip(paths, replay["per_fragment_s"]))
    startup = [float(m["wall_sec"]) - fragment_s[m["inputs"][0]]
               for m in manifests]
    metrics = {
        "read.s": own["sources.read"],
        "read.rows_per_s": rows / own["sources.read"],
        "parse.us_per_row": own["stages.parse"] / rows * 1e6,
        "parse.match_frac": replay["matched"] / rows,
        "enrich.us_per_row": own["stages.enrich"] / rows * 1e6,
        "route.us_per_row": own["stages.route"] / rows * 1e6,
        "bucket.us_per_row": own["stages.aggregate.bucket"] / rows * 1e6,
        "partial.us_per_row": own["stages.aggregate.partial"] / rows * 1e6,
        "partial.rows_out_per_row": replay["partial_rows"] / rows,
        "combine.s": own["stages.aggregate.combine"],
        "exchange.s": own["exchange"],
        "exchange.rows": exchange["rows"],
        "exchange.max_task_rows": exchange["max_task_rows"],
        "exchange.skew": exchange["skew"],
        "write.s": own["sinks.parquet_sink.write"],
        "write.bytes_per_turn": sink["bytes"] / rows,
        "write.files": sink["files"],
        "partition.startup_s": statistics.median(startup),
        "baseline.inproc_turns_per_s": rows / inproc,
        "engine.other_s": wall - on_path,
        "trace.wall_s": wall,
        "trace.coverage": on_path / wall,
        "trace.overhead_frac": wall / untraced_wall - 1.0,
    }
    return metrics, problems
