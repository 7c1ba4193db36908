"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship parse→enrich→route→aggregate pipeline on
sf0.001. ``queries()`` exposes every implemented operator/pipeline from
SURVEY.md §2 over the driver's testdata tables; ``oracle_sql()`` gives the
DuckDB mirror for each SQL-expressible one. Ray is initialised by the
driver BEFORE import: nothing here calls ray.init()/ray.shutdown().

Column-name discipline: every computed column is named identically in the
Ray pipeline and the SQL (the driver's compare sorts columns by name and
hashes values). Float-sum aggregates use integer cents
(``floor(x*100+0.5)``) so the hash compare is exact under reordering.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO_DIR = os.path.dirname(os.path.abspath(__file__))
if _REPO_DIR not in sys.path:
    sys.path.insert(0, _REPO_DIR)  # robust to import from any CWD

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ------------------------------------------------------------------ helpers

def _read(sf_dir: str, name: str, columns=None):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)


def _read_co(sf_dir: str, name: str, columns=None,
             target_bytes: int = 64 << 20, floor: int = 4):
    """Coalesced read for exchange-bound pipelines (joins): blocks sized
    by BYTES (~64 MB each, small floor for local parallelism) instead of
    one-per-file. Ray's sort-based groupby exchange costs scale with
    BLOCK COUNT, not rows — measured on the sf0.1 big-big join: 64
    blocks/side 9.6 s → 8 blocks/side 1.6 s at identical output. At real
    scale bytes/target dominates and the floor is irrelevant."""
    import os

    import ray.data

    path = f"{sf_dir}/{name}.parquet"
    nblocks = max(floor, os.path.getsize(path) // target_bytes)
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=int(nblocks))


def _side_table(sf_dir: str, name: str, columns=None) -> pa.Table:
    import pyarrow.parquet as pq

    return pq.read_table(f"{sf_dir}/{name}.parquet", columns=columns)


def _cents(col):
    """Exact integer cents: floor(x*100+0.5) — same expression in SQL."""
    return pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)), pa.int64())


def _fixture_dir(kind: str, sources: list[str],
                 build: Callable[[str], Any]) -> str:
    """A local test fixture derived from the ``sources`` files, cached
    at ``/tmp/graft_<kind>_<sha256 of the sources' bytes>``:
    a source rewritten with other values gets a fresh directory, even
    at the same name and row count. ``build(stage)`` fills an empty
    staging directory that is then renamed into place, so a half-built
    fixture is never read; a run that loses the rename to a concurrent
    one drops its own copy. Single-node: real inputs live on shared
    storage."""
    import hashlib
    import shutil
    import uuid

    digest = hashlib.sha256()
    for path in sources:
        with open(path, "rb") as f:
            while chunk := f.read(1 << 20):
                digest.update(chunk)
    out_dir = f"/tmp/graft_{kind}_{digest.hexdigest()}"
    if not os.path.isdir(out_dir):
        stage = f"{out_dir}.stage-{uuid.uuid4().hex[:8]}"
        os.makedirs(stage)
        build(stage)
        try:
            os.rename(stage, out_dir)
        except OSError:  # a concurrent run won the rename
            shutil.rmtree(stage, ignore_errors=True)
    return out_dir


# ------------------------------------------------------ transcript pipeline

def _turns(sf_dir: str):
    from opentelemetry_collector_ray.sources.transcripts import read_derived_turns

    return read_derived_turns(sf_dir)


def _q_turns_derive(sf_dir: str):
    return _turns(sf_dir)


_PARSE_OUT = ["conv_id", "turn_idx", "parse_rule", "level", "tool_attr",
              "latency_ms", "status", "trace", "rest"]


def _parsed(sf_dir: str):
    from opentelemetry_collector_ray.stages.parse import ParseStage

    ds = _turns(sf_dir).map_batches(ParseStage(), batch_format="pyarrow")
    return ds.map_batches(
        lambda t: t.set_column(t.column_names.index("parse_rule"), "parse_rule",
                               t.column("parse_rule").cast(pa.int32())),
        batch_format="pyarrow")


def _q_turns_parse(sf_dir: str):
    return _parsed(sf_dir).select_columns(_PARSE_OUT)


def _q_turns_enrich(sf_dir: str):
    from opentelemetry_collector_ray.stages.enrich import EnrichStage

    ds = _turns(sf_dir).map_batches(EnrichStage(), batch_format="pyarrow")
    return ds.select_columns(["conv_id", "turn_idx", "role", "tool",
                              "tool_family", "tool_cost_class", "role_kind",
                              "tenant", "env"])


def _routed(sf_dir: str):
    from opentelemetry_collector_ray.pipelines.flagship import build_routed

    return build_routed(_turns(sf_dir))


def _q_turns_route(sf_dir: str):
    return _routed(sf_dir).select_columns(["conv_id", "turn_idx", "route"])


def _q_turns_agg(sf_dir: str):
    from opentelemetry_collector_ray.pipelines.flagship import build_aggregate

    return build_aggregate(_routed(sf_dir))


def _q_turns_agg_yaml(sf_dir: str):
    """The flagship built FROM a YAML confmap document end to end
    (receiver + processor + dataset-level aggregate components resolved
    through the provider/registry machinery) — config parity with the
    code-built ``turns_agg``: identical oracle SQL."""
    from opentelemetry_collector_ray.config import PipelineConfig
    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    yaml_text = f"""
receivers:
  turns:
    paths: {sf_dir}/events.parquet
    columns: [event_id, ts, user_id, event_type, value]
processors:
  parse: {{}}
  enrich: {{}}
  route: {{}}
  time_bucket: {{column: ts, unit: hour, out: bucket}}
  count_agg: {{keys: [route, role, tool, bucket], count_name: n_turns}}
exporters:
  debug: {{}}
service:
  pipelines:
    turns:
      receivers: [turns]
      processors: [parse, enrich, route, time_bucket, count_agg]
      exporters: [debug]
"""
    cfg = PipelineConfig.from_sources([f"yaml:{yaml_text}"])
    return build_dataset(cfg)


def _q_conv_stats(sf_dir: str):
    """Unbounded-key grouped aggregate (per-conversation stats) — per-batch
    partials (skew-neutralizing), merged as grouped_agg chooses."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    turns = _turns(sf_dir).select_columns(["conv_id", "ts"])
    # per-batch partials, then an int-bucket exchange: a hot conversation
    # sends at most one partial row per batch to its bucket task.
    return grouped_agg(turns, ["conv_id"], count_name="n_turns",
                       min_cols={"first_ts": "ts"}, max_cols={"last_ts": "ts"})


# ------------------------------------------------------------ events family

def _q_events_parse_props(sf_dir: str):
    def extract(t: pa.Table) -> pa.Table:
        ext = pc.extract_regex(t.column("props"), pattern=r'"k": (?P<k>\d+)')
        if isinstance(ext, pa.ChunkedArray):
            ext = ext.combine_chunks()
        k = pc.struct_field(ext, "k").cast(pa.int64())
        return pa.table({"event_id": t.column("event_id"), "k": k})

    return _read(sf_dir, "events", ["event_id", "props"]).map_batches(
        extract, batch_format="pyarrow")


def _q_events_agg(sf_dir: str):
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "bucket": pc.floor_temporal(t.column("ts"), unit="hour"),
            "value_cents": _cents(t.column("value")),
        })

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"]).map_batches(
        prep, batch_format="pyarrow")
    return grouped_count(ds, ["event_type", "bucket"], count_name="n_events",
                         sum_cols={"sum_value_cents": "value_cents"})


def _q_events_sessionize(sf_dir: str):
    from opentelemetry_collector_ray.stages.sessionize import session_stats

    ev = _read_co(sf_dir, "events", ["user_id", "event_id", "ts"],
                  floor=8)
    return session_stats(ev, key="user_id", ts_col="ts", gap_minutes=30)


def _q_events_topk_users(sf_dir: str):
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    ds = _read(sf_dir, "events", ["user_id"])
    counts = grouped_count(ds, ["user_id"], count_name="n_events")
    return counts.sort(["n_events", "user_id"], descending=[True, False]).limit(10)


# ------------------------------------------------------------- tpch family

def _q_tpch_q1(sf_dir: str):
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.less_equal(t.column("l_shipdate"),
                             pa.scalar(np.datetime64("1998-09-02", "us")))
        t = t.filter(keep)
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "qty": t.column("l_quantity").cast(pa.int64()),
            "base_cents": _cents(t.column("l_extendedprice")),
            "disc_cents": _cents(t.column("l_discount")),
        })

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"]).map_batches(
        prep, batch_format="pyarrow")
    return grouped_count(
        ds, ["l_returnflag", "l_linestatus"], count_name="count_order",
        sum_cols={"sum_qty": "qty", "sum_base_cents": "base_cents",
                  "sum_disc_cents": "disc_cents"})


def _q_nation_revenue(sf_dir: str):
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.join import broadcast_join

    cust = _side_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _side_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    j1 = broadcast_join(orders, cust, key="o_custkey", right_key="c_custkey")
    j2 = broadcast_join(j1, nation, key="c_nationkey", right_key="n_nationkey")
    prepped = j2.map_batches(
        lambda t: pa.table({"n_name": t.column("n_name"),
                            "price_cents": _cents(t.column("o_totalprice"))}),
        batch_format="pyarrow")
    return grouped_count(prepped, ["n_name"], count_name="n_orders",
                         sum_cols={"revenue_cents": "price_cents"})


def _q_topk_orders(sf_dir: str):
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(10)


def _q_filter_highvalue(sf_dir: str):
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"]).map_batches(
        lambda t: t.filter(pc.greater(t.column("l_quantity"), 45.0)),
        batch_format="pyarrow")
    return grouped_count(ds.select_columns(["l_returnflag"]), ["l_returnflag"],
                         count_name="n")


def _q_distinct_segments(sf_dir: str):
    import pandas as pd

    vals = sorted(_read(sf_dir, "customer", ["c_mktsegment"]).unique("c_mktsegment"))
    return pd.DataFrame({"c_mktsegment": vals})


# ---------------------------------------------------- more events operators

def _q_events_route(sf_dir: str):
    """RouteStage directly over events (strict + regex modes)."""
    from opentelemetry_collector_ray.stages.route import RouteRule, RouteStage

    rules = (
        RouteRule(sink="left", strict={"event_type": ("error",)}),
        RouteRule(sink="right", strict={"event_type": ("purchase", "signup")}),
        RouteRule(sink="zero", regex={"props": r'"k": 0\}'}),
    )
    ds = _read(sf_dir, "events", ["event_id", "event_type", "props"])
    return ds.map_batches(RouteStage(rules), batch_format="pyarrow") \
        .select_columns(["event_id", "route"])


def _q_events_sample(sf_dir: str):
    """Deterministic systematic sample (SQL-mirrorable; the probabilistic
    sampler analog uses ds.random_sample(seed) — not oracle-checkable)."""
    def pick(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(eid % 20 == 0))

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    return ds.map_batches(pick, batch_format="pyarrow")


def _q_events_stratified_sample(sf_dir: str):
    """Per-class deterministic sampling (training-data class rebalancing):
    keep rare classes whole, downsample dominant ones; rates broadcast as
    a small dict, selection by id-mod so the oracle is exact."""
    RATES_PERMILLE = {"error": 1000, "signup": 1000, "purchase": 500,
                      "view": 100, "click": 50}

    rate_keys = pa.array(list(RATES_PERMILLE), pa.string())
    rate_vals = np.array(list(RATES_PERMILLE.values()) + [0], np.int64)

    def pick(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        # one vectorized dictionary probe (unknown types → sentinel 0)
        idx = pc.index_in(t.column("event_type"), value_set=rate_keys) \
            .fill_null(len(rate_vals) - 1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        limit = rate_vals[idx]
        return t.filter(pa.array(eid % 1000 < limit))

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    return ds.map_batches(pick, batch_format="pyarrow")


def _q_events_window(sf_dir: str):
    """Tumbling event-time window counts per user."""
    from opentelemetry_collector_ray.stages.sessionize import tumbling_window_count

    ev = _read_co(sf_dir, "events", ["user_id", "ts"], floor=8)
    return tumbling_window_count(ev, key="user_id", ts_col="ts", unit="hour")


def _q_events_sliding_window(sf_dir: str):
    """Sliding/hopping event-time windows (3h window, 1h hop): each event
    counts in 3 consecutive windows — vectorized k-fold explode + the
    two-phase grouped count."""
    from opentelemetry_collector_ray.stages.sessionize import (
        sliding_window_count)

    ev = _read_co(sf_dir, "events", ["user_id", "ts"], floor=8)
    return sliding_window_count(ev, key="user_id", ts_col="ts",
                                window_hours=3, slide_hours=1)


def _q_events_cumulative(sf_dir: str):
    """Delta→cumulative temporality conversion: hourly per-user counts, then
    per-user running total (pmetric AggregationTemporality analog)."""
    from opentelemetry_collector_ray.stages.sessionize import tumbling_window_count
    from opentelemetry_collector_ray.stages.temporal import delta_to_cumulative

    ev = _read_co(sf_dir, "events", ["user_id", "ts"], floor=8)
    hourly = tumbling_window_count(ev, key="user_id", ts_col="ts", unit="hour")
    return delta_to_cumulative(hourly, key="user_id", order_col="bucket",
                               value_col="n_events", out_col="cum_n")


def _q_supplier_revenue(sf_dir: str):
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.join import broadcast_join

    supp = _side_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice"])
    j = broadcast_join(li, supp, key="l_suppkey", right_key="s_suppkey")
    prepped = j.map_batches(
        lambda t: pa.table({"s_name": t.column("s_name"),
                            "price_cents": _cents(t.column("l_extendedprice"))}),
        batch_format="pyarrow")
    return grouped_count(prepped, ["s_name"], count_name="n_items",
                         sum_cols={"revenue_cents": "price_cents"})


def _q_customers_no_orders(sf_dir: str):
    """Anti join: broadcast the key set of finished orders, filter customers
    without a match (semi/anti pattern — broadcast key set, never a
    shuffle). Restricted to status 'F' so the result is non-empty."""
    ot = _side_table(sf_dir, "orders", ["o_custkey", "o_orderstatus"])
    ot = ot.filter(pc.equal(ot.column("o_orderstatus"), "F"))
    key_set = pc.unique(ot.column("o_custkey").combine_chunks())

    def anti(t: pa.Table) -> pa.Table:
        m = pc.is_in(t.column("c_custkey"), value_set=key_set)
        return t.filter(pc.invert(m))

    return _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        anti, batch_format="pyarrow")


def _q_docs_top_terms(sf_dir: str):
    """Corpus word count (flat_map → two-phase count → top-k): per-batch
    term explode + count partials, tree merge, deterministic (-n, term)
    top 20."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def explode(t: pa.Table) -> pa.Table:
        split = pc.split_pattern_regex(pc.utf8_lower(t.column("text")),
                                       pattern="[^a-z]+")
        flat = split.combine_chunks().flatten() \
            if isinstance(split, pa.ChunkedArray) else split.flatten()
        flat = flat.filter(pc.greater(pc.utf8_length(flat), 0))
        return pa.table({"term": flat})

    ds = _read_co(sf_dir, "documents", ["text"], floor=8).map_batches(
        explode, batch_format="pyarrow")
    # vocabulary is unbounded: per-batch partials, and above one task's
    # worth of input the per-bucket exact counts stay distributed
    counts = grouped_count(ds, ["term"], count_name="n")
    return counts.sort(["n", "term"], descending=[True, False]).limit(20)


def _q_orders_histogram(sf_dir: str):
    """Explicit-bounds histogram aggregation (pmetric Histogram analog):
    fixed-width price buckets → per-bucket counts, two-phase tree."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def bucketize(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.floor(pc.divide(t.column("o_totalprice"), 50000.0)),
                    pa.int64())
        return pa.table({"price_bucket": b})

    ds = _read(sf_dir, "orders", ["o_totalprice"]).map_batches(
        bucketize, batch_format="pyarrow")
    return grouped_count(ds, ["price_bucket"], count_name="n_orders")


def _q_events_error_rate(sf_dir: str):
    """Per-user error rate in exact integer permille (two partial counts
    merged, then integer division — no float hashing risk)."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def prep(t: pa.Table) -> pa.Table:
        is_err = pc.cast(pc.equal(t.column("event_type"), "error"), pa.int64())
        return pa.table({"user_id": t.column("user_id"), "is_err": is_err})

    ds = _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
        prep, batch_format="pyarrow")
    counts = grouped_count(ds, ["user_id"], count_name="n_events",
                           sum_cols={"n_errors": "is_err"})

    def rate(t: pa.Table) -> pa.Table:
        import numpy as np2

        n = t.column("n_events").to_numpy(zero_copy_only=False)
        e = t.column("n_errors").to_numpy(zero_copy_only=False)
        permille = (e * 1000) // np2.maximum(n, 1)
        return t.append_column("err_permille", pa.array(permille.astype("int64")))

    return counts.map_batches(rate, batch_format="pyarrow")


def _q_media_pipeline(sf_dir: str):
    """REAL multimodal image pipeline (rows-only): GENUINE PNG payloads
    (stdlib encoder) → actor-pool decode (stdlib PNG codec; Pillow fast
    path when installed) → resize → feature extraction. sf_dir is unused
    (no binary table in testdata); determinism via seed."""
    import ray.data

    from opentelemetry_collector_ray.stages.multimodal import (
        DecodeStage, FeatureStage, synth_png_media)

    media = ray.data.from_arrow(synth_png_media(256, seed=42))
    decoded = media.map_batches(
        DecodeStage, fn_constructor_kwargs={"codec": "real", "target": (8, 8)},
        batch_format="pyarrow", batch_size=64, concurrency=2)
    return decoded.map_batches(FeatureStage(), batch_format="pyarrow")


def _q_audio_pipeline(sf_dir: str):
    """REAL multimodal pipeline (rows-only): genuine WAV payloads →
    stdlib-wave decode (actor pool) → vectorized feature extraction
    (rms/zcr/dominant-frequency). sf_dir unused (no binary table in
    testdata); determinism via seed."""
    import ray.data

    from opentelemetry_collector_ray.stages.multimodal import (
        AudioDecodeStage, AudioFeatureStage, synth_wav_media)

    media = ray.data.from_arrow(synth_wav_media(256, seed=7))
    decoded = media.map_batches(AudioDecodeStage, batch_format="pyarrow",
                                batch_size=64, concurrency=2)
    return decoded.map_batches(AudioFeatureStage(), batch_format="pyarrow")


def _q_video_pipeline(sf_dir: str):
    """REAL multimodal video pipeline (rows-only): genuine YUV4MPEG2
    payloads (stdlib encoder, planted scene cuts) → actor-pool y4m decode
    with every-k frame sampling → vectorized motion/scene-cut features.
    sf_dir unused (no binary table in testdata); determinism via seed."""
    import ray.data

    from opentelemetry_collector_ray.stages.multimodal import (
        VideoDecodeStage, VideoFeatureStage, synth_y4m_media)

    media = ray.data.from_arrow(synth_y4m_media(128, seed=11))
    decoded = media.map_batches(
        VideoDecodeStage, fn_constructor_kwargs={"every_k": 2},
        batch_format="pyarrow", batch_size=32, concurrency=2)
    return decoded.map_batches(VideoFeatureStage(), batch_format="pyarrow") \
        .drop_columns(["frame_idxs", "thumb"])


def _q_docs_attr_ops(sf_dir: str):
    """OTTL-style mutations (set/copy/rename/replace_match/keep_keys) with a
    SQL mirror — the attributes-processor surface."""
    from opentelemetry_collector_ray.functions import attrs

    def f(t: pa.Table) -> pa.Table:
        t = attrs.copy_attr(t, "lang", "lang_orig")
        t = attrs.set_attr(t, "lang", pc.utf8_upper(t.column("lang")))
        t = attrs.rename_attr(t, "source", "source_sys")
        t = attrs.replace_match(t, "text", r"data", "DATA")
        t = attrs.set_attr(t, "n_after",
                           pc.utf8_length(t.column("text")).cast(pa.int64()))
        return attrs.keep_keys(t, ["doc_id", "lang", "lang_orig",
                                   "source_sys", "n_after"])

    return _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"]) \
        .map_batches(f, batch_format="pyarrow")


def _q_turns_attrs_map(sf_dir: str):
    """Dynamic map<string,string> attributes column END TO END (SURVEY
    §1.5 / pcommon.Map): parse emits an attrs MAP, OTTL-style map ops
    mutate it (put / rename / delete / upsert), a route-style predicate
    reads it (map_has), and the final extraction reads values back out —
    all vectorized over MapArray flat buffers (functions/mapattrs.py)."""
    from opentelemetry_collector_ray.functions import mapattrs as M

    def to_map(t: pa.Table) -> pa.Table:
        attrs = M.build_map({
            "level": t.column("level"),
            "tool": t.column("tool_attr"),
            "latency_ms": pc.cast(t.column("latency_ms"), pa.string()),
            "status": t.column("status"),
            "trace": t.column("trace"),
        })
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "attrs": attrs})

    def mutate(t: pa.Table) -> pa.Table:
        m = t.column("attrs")
        m = M.map_put(m, "engine", "ray")                   # set
        m = M.map_rename(m, "tool", "tool_name")            # rename
        m = M.map_delete(m, "trace")                        # delete
        m = M.map_put(m, "status",                          # upsert
                      pc.utf8_upper(M.map_get(m, "status")))
        return t.set_column(t.column_names.index("attrs"), "attrs", m)

    def read_out(t: pa.Table) -> pa.Table:
        m = t.column("attrs")
        keep = M.map_has(m, "tool_name")  # route predicate over the map
        t = t.filter(keep)
        m = t.column("attrs")
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "level": M.map_get(m, "level"),
            "tool_name": M.map_get(m, "tool_name"),
            "latency_ms": pc.cast(M.map_get(m, "latency_ms"), pa.int64()),
            "status": M.map_get(m, "status"),
            "engine": M.map_get(m, "engine"),
            "n_attrs": M.map_len(m),
        })

    return _parsed(sf_dir).map_batches(to_map, batch_format="pyarrow") \
        .map_batches(mutate, batch_format="pyarrow") \
        .map_batches(read_out, batch_format="pyarrow")


def _q_turns_attrs_typed(sf_dir: str):
    """TYPED pcommon.Value attributes end to end (the full union,
    functions/typedattrs.py): parse emits an attrs map whose latency_ms is
    an INT cell (never stringified), a typed put adds a derived BOOL cell,
    and the readers extract each lane directly — no cast from string
    anywhere on the Ray side."""
    from opentelemetry_collector_ray.functions import typedattrs as T

    def to_map(t: pa.Table) -> pa.Table:
        attrs = T.build_typed_map({
            "level": t.column("level"),
            "tool": t.column("tool_attr"),
            "latency_ms": t.column("latency_ms"),  # Int lane, typed
            "status": t.column("status"),
        })
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "attrs": attrs})

    def mutate(t: pa.Table) -> pa.Table:
        m = t.column("attrs")
        lat = T.map_get_int(m, "latency_ms")
        m = T.map_put(m, "is_slow", pc.greater_equal(lat, 500))  # Bool cell
        return t.set_column(t.column_names.index("attrs"), "attrs", m)

    def read_out(t: pa.Table) -> pa.Table:
        m = t.column("attrs")
        keep = T.map_has(m, "latency_ms")  # rule-0 rows only
        t = t.filter(keep)
        m = t.column("attrs")
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "level": T.map_get_str(m, "level"),
            "latency_ms": T.map_get_int(m, "latency_ms"),
            "is_slow": pc.cast(T.map_get_bool(m, "is_slow"), pa.int64()),
            "n_attrs": T.map_len(m),
        })

    return _parsed(sf_dir).map_batches(to_map, batch_format="pyarrow") \
        .map_batches(mutate, batch_format="pyarrow") \
        .map_batches(read_out, batch_format="pyarrow")


def _q_docs_attrs_nested(sf_dir: str):
    """One-deep Slice attribute on the REAL nested lane (no JSON parse
    anywhere): tokens = split(text) lifted to a typed Slice cell
    (typedattrs nv lane — pdata/pcommon/value.go:19-30 Slice case), then
    elements and length read back vectorized via get_nested/nested_len."""
    from opentelemetry_collector_ray.functions import typedattrs as T

    def f(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text"), pattern=" ")
        m = T.build_typed_map({"tokens": toks, "lang": t.column("lang")})
        return pa.table({
            "doc_id": t.column("doc_id"),
            "first_tok": T.nested_str(T.get_nested(m, "tokens.0")),
            "tok5": T.nested_str(T.get_nested(m, "tokens.5")),
            "n_toks": T.nested_len(m, "tokens"),
            "lang": T.map_get_str(m, "lang"),
        })

    return _read(sf_dir, "documents", ["doc_id", "text", "lang"]) \
        .map_batches(f, batch_format="pyarrow")


def _q_orders_global_sorted(sf_dir: str):
    """Spill-safe distributed global sort (stages/sort.py sample sort —
    the §2.6 primitive the reference leaves to downstream consumers):
    orders totally ordered by (price_cents DESC, o_orderkey), with the
    dense global rank column that makes the ORDER itself value-hash
    checkable against the SQL ``row_number()`` oracle. The factory is a
    bare pruned read + one cheap cast, so the two-pass contract
    (persist="none") costs one extra parquet scan, not a recompute."""
    from opentelemetry_collector_ray.stages.sort import global_sort

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t.column("o_orderkey"),
                         "price_cents": _cents(t.column("o_totalprice"))})

    def make():
        return _read_co(sf_dir, "orders",
                        ["o_orderkey", "o_totalprice"]).map_batches(
            prep, batch_format="pyarrow")

    return global_sort(make, ["price_cents", "o_orderkey"],
                       descending=[True, False], rank_col="rnk")


def _q_emb_quantize(sf_dir: str):
    """int8 embedding quantization (stages/embeddings.py), ORACLE-
    CHECKED (promoted from rows-only in round 5): the codes are exact
    integers, so SQL recomputes them — scale = max|x|/127 in float64,
    banker's round_even (numpy rint), clip at ±127, zero-scale → 0 —
    and the gate compares exact per-vector integer aggregates (sum,
    abs-sum, saturated-code count) read back from the PACKED binary
    payloads after a real Ray exchange. IEEE double division and
    half-even rounding are bit-deterministic on both engines, so the
    hash match is exact."""
    from opentelemetry_collector_ray.stages.embeddings import (
        quantize_embeddings)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = quantize_embeddings(ds).repartition(8)

    def sums(t: pa.Table) -> pa.Table:
        codes = t.column("q8").combine_chunks()
        n = t.num_rows
        if n == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "q8_dim": pa.array([], pa.int64()),
                "code_sum": pa.array([], pa.int64()),
                "code_abs_sum": pa.array([], pa.int64()),
                "n_saturated": pa.array([], pa.int64())})
        dim = t.column("q8_dim").to_numpy(zero_copy_only=False)
        d = int(dim[0])
        off = np.frombuffer(codes.buffers()[1], np.int32)
        data = np.frombuffer(codes.buffers()[2], np.int8)
        mat = data[off[codes.offset]:off[codes.offset + n]] \
            .reshape(n, d).astype(np.int64)
        return pa.table({
            "vec_id": t.column("vec_id"),
            "q8_dim": pa.array(dim.astype(np.int64)),
            "code_sum": pa.array(mat.sum(axis=1)),
            "code_abs_sum": pa.array(np.abs(mat).sum(axis=1)),
            "n_saturated": pa.array((np.abs(mat) == 127).sum(axis=1))})

    return q.map_batches(sums, batch_format="pyarrow")


_TFIDF_TERMS = ("window", "join", "hash")


def _q_docs_tfidf_topk(sf_dir: str):
    """Integer-exact reciprocal-df tf-idf against a fixed query
    (stages/ranking.py): tiny stats pass (df per query term, per-batch
    partials), then one streaming scoring pass — a dense rows×3 tf
    matrix and one matmul per batch, no exchange. Top-20 docs with a
    deterministic (score DESC, doc_id) tie-break."""
    from opentelemetry_collector_ray.stages.ranking import score_tfidf_int

    scored = score_tfidf_int(
        lambda: _read_co(sf_dir, "documents", ["doc_id", "text"],
                         floor=8),
        list(_TFIDF_TERMS), scale=1000)
    return scored.map_batches(
        lambda t: t.filter(pc.greater(t.column("score"), 0)),
        batch_format="pyarrow").sort(
        ["score", "doc_id"], descending=[True, False]).limit(20)


def _q_docs_index_postings(sf_dir: str):
    """Persisted inverted index round-trip: build (one bucket exchange,
    Hive-partitioned write) into a fresh /tmp dir, then a
    partition-pruned posting read for the query terms (only the buckets
    the terms hash to are opened)."""
    import tempfile

    from opentelemetry_collector_ray.stages.ranking import (
        build_inverted_index, query_inverted_index)

    idx = tempfile.mkdtemp(prefix="invidx_", dir="/tmp")
    build_inverted_index(
        _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8), idx,
        n_buckets=32)
    return query_inverted_index(idx, list(_TFIDF_TERMS), n_buckets=32)


def _q_docs_index_conjunction(sf_dir: str):
    """Conjunctive retrieval over the inverted index: docs containing
    EVERY query term (posting count per doc == #terms over the pruned
    postings — one bounded groupby)."""
    import tempfile

    from opentelemetry_collector_ray.stages.ranking import (
        build_inverted_index, query_inverted_index)

    idx = tempfile.mkdtemp(prefix="invidx_", dir="/tmp")
    build_inverted_index(
        _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8), idx,
        n_buckets=32)
    return query_inverted_index(idx, list(_TFIDF_TERMS), mode="all",
                                n_buckets=32)


def _q_docs_mixture(sf_dir: str):
    """Deterministic corpus mixing (stages/mixing.py): per-language doc
    counts (pass 1, one row per class) → integer keep-permilles hitting
    the 5:3:2 en:fr:de target at the largest no-upsampling scale →
    streaming id-mod filter (pass 2). The SQL oracle recomputes the SAME
    integer rates from the same counts, so the match is exact."""
    from opentelemetry_collector_ray.stages.mixing import mix_by_class

    return mix_by_class(
        lambda: _read(sf_dir, "documents", ["doc_id", "lang"]),
        "lang", {"en": 5, "fr": 3, "de": 2}, id_col="doc_id")


_BENCH_PHRASES = ("window window", "key order sort", "batch batch batch")


def _q_docs_contamination(sf_dir: str):
    """Benchmark contamination screen (stages/contamination.py): the
    phrase set is hashed once on the driver (one sorted uint64 array per
    phrase length), broadcast, and every doc's rolling n-gram hashes are
    probed + exact-verified per batch. The oracle checks the SEMANTICS
    (consecutive-token containment via normalized-string search), not
    the hash path — matching results prove the hash+verify pipeline."""
    from opentelemetry_collector_ray.stages.contamination import (
        flag_contaminated)

    flagged = flag_contaminated(
        _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8),
        list(_BENCH_PHRASES))
    return flagged.map_batches(
        lambda t: t.select(["doc_id", "contaminated"]),
        batch_format="pyarrow")


def _q_docs_attrs_flatten(sf_dir: str):
    """OTTL editor set end-to-end on the real nested lanes: lift the
    token list to a typed Slice cell, LIMIT the map to its first entry
    (priority keeps the slice), FLATTEN hoists the elements to
    tokens.<i> entries, then read back size and an element — all
    vectorized, no JSON anywhere."""
    from opentelemetry_collector_ray.functions import typedattrs as T

    def f(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text"), pattern=" ")
        m = T.build_typed_map({"lang": t.column("lang"), "tokens": toks})
        m = T.map_limit(m, 1, priority_keys=["tokens"])
        flat = T.map_flatten(m)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_entries": T.map_len(flat),
            "tok2": T.map_get_str(flat, "tokens.2"),
        })

    return _read(sf_dir, "documents", ["doc_id", "text", "lang"]) \
        .map_batches(f, batch_format="pyarrow")


def _q_events_user_window(sf_dir: str):
    """Per-key SQL-window-function family (stages/window.py): lag /
    delta / running sum / row_number per user in (ts, event_id) order —
    one bucket exchange, all ops vectorized segment passes inside the
    bucket. Oracle = the same four window functions in DuckDB."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    ev = _read_co(sf_dir, "events",
                  ["user_id", "event_id", "ts", "value"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "event_id": t.column("event_id"),
                         "ts": t.column("ts"),
                         "value_cents": _cents(t.column("value"))})

    out = per_key_window(
        ev.map_batches(prep, batch_format="pyarrow"), "user_id",
        ["ts", "event_id"],
        {"prev_cents": ("lag", "value_cents"),
         "delta_cents": ("delta", "value_cents"),
         "cum_cents": ("cumsum", "value_cents"),
         "rn": ("row_number",)})
    return out.map_batches(lambda t: t.drop_columns(["ts"]),
                           batch_format="pyarrow")


def _q_events_user_rolling(sf_dir: str):
    """Value-RANGE rolling window per key (stages/window.py rolling_sum
    / rolling_count): per-user 1-hour trailing spend and event count in
    ts order — SQL ``RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND
    CURRENT ROW`` semantics (ties included), one bucket exchange, ONE
    global searchsorted over a segment-lifted composite per bucket.
    Oracle = the same RANGE frame in DuckDB."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    ev = _read_co(sf_dir, "events",
                  ["user_id", "event_id", "ts", "value"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "event_id": t.column("event_id"),
                         "ts": t.column("ts"),
                         "value_cents": _cents(t.column("value"))})

    out = per_key_window(
        ev.map_batches(prep, batch_format="pyarrow"), "user_id",
        ["ts", "event_id"],
        {"hour_cents": ("rolling_sum", "value_cents", 3_600_000_000),
         "hour_events": ("rolling_count", 3_600_000_000)})
    return out.map_batches(lambda t: t.drop_columns(["ts"]),
                           batch_format="pyarrow")


def _q_events_moving_avg(sf_dir: str):
    """ROWS-frame moving window per key (stages/window.py moving_sum /
    moving_count): per-user trailing-4-row spend and frame size in
    (ts, event_id) order — SQL ``ROWS BETWEEN 3 PRECEDING AND CURRENT
    ROW`` exactly (the unique event_id tie-break keeps a ROWS frame
    deterministic through ts ties, which RANGE frames never face).
    Integer lanes only — the moving average is the caller's division
    of two exact columns. Oracle = the same ROWS frame in DuckDB."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    ev = _read_co(sf_dir, "events",
                  ["user_id", "event_id", "ts", "value"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "event_id": t.column("event_id"),
                         "ts": t.column("ts"),
                         "value_cents": _cents(t.column("value"))})

    out = per_key_window(
        ev.map_batches(prep, batch_format="pyarrow"), "user_id",
        ["ts", "event_id"],
        {"m4_cents": ("moving_sum", "value_cents", 3),
         "m4_n": ("moving_count", 3)})
    return out.map_batches(lambda t: t.drop_columns(["ts"]),
                           batch_format="pyarrow")


def _q_events_type_p_cont(sf_dir: str):
    """Exact per-key CONTINUOUS quantiles (stages/spanops.py
    grouped_cont_quantiles): median / p90 / p99 of event cents per
    event type with SQL ``quantile_cont`` interpolation, returned as
    EXACT scaled integers (interpolated value × den) so the hash gate
    is bit-stable — no libm anywhere. Oracle = ordered-list indexing
    in DuckDB computing the same ``v_lo·(den−rem)+v_hi·rem`` integers
    (cross-checked against quantile_cont in the unit tests)."""
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_cont_quantiles)

    ev = _read_co(sf_dir, "events", ["event_type", "value"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    return grouped_cont_quantiles(
        ev.map_batches(prep, batch_format="pyarrow"), "event_type",
        "cents", qs=((1, 2), (9, 10), (99, 100)))


def _q_docs_extract_matches(sf_dir: str):
    """All-matches regex extraction exploded to rows
    (stages/parse.extract_all_explode — polars Rust-regex kernel, one
    vectorized pass per batch) then a tree grouped count per matched
    token: the every-IP-in-a-line / every-tag-in-a-message pull that
    first-match ParseStage cannot express. Oracle = DuckDB
    ``unnest(regexp_extract_all(...))`` + GROUP BY."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.parse import extract_all_explode

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ex = extract_all_explode(ds, "text", "[a-z]{6,}", keep=["doc_id"],
                             out="tok")
    return grouped_count(ex, ["tok"], count_name="n")


def _q_orders_incr_agg(sf_dir: str):
    """Incremental aggregate-view maintenance (stages/incragg.py):
    yesterday's materialized per-priority count/sum plus a +1/−1
    row-level changelog (inserts = orderkey%10≥8, retractions =
    orderkey%7==0 of the base) folds to today's view WITHOUT
    rescanning base facts — the self-maintainable-view identity
    ``groupsum(state ∪ signed partials)``. Oracle = full recompute
    over the effective row set in DuckDB; the gate proves maintained
    state ≡ recomputed state."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.incragg import apply_agg_delta

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "o_orderpriority": t.column("o_orderpriority"),
            "cents": _cents(t.column("o_totalprice"))})

    # materialized ONCE — base partition and changelog derive from the
    # same scan (review finding: two factory calls paid the read twice)
    facts_ds = _read_co(sf_dir, "orders",
                        ["o_orderkey", "o_orderpriority", "o_totalprice"],
                        floor=8).map_batches(
        prep, batch_format="pyarrow").materialize()

    def facts():
        return facts_ds

    def base_rows(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(k % 10 < 8))

    def changelog_rows(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        ins = t.filter(pa.array(k % 10 >= 8))
        dels = t.filter(pa.array((k % 10 < 8) & (k % 7 == 0)))
        return pa.concat_tables([
            ins.append_column("op", pa.array(
                np.ones(ins.num_rows, np.int64))),
            dels.append_column("op", pa.array(
                -np.ones(dels.num_rows, np.int64)))])

    base_agg = grouped_agg(
        facts().map_batches(base_rows, batch_format="pyarrow"),
        ["o_orderpriority"], count_name="n",
        sum_cols={"sum_cents": "cents"})
    return apply_agg_delta(
        base_agg,
        facts().map_batches(changelog_rows, batch_format="pyarrow"),
        ["o_orderpriority"], count_name="n",
        sum_cols={"sum_cents": "cents"})


def _q_parts_pair_cosine(sf_dir: str):
    """Item-item cosine similarity (stages/graph.py
    cooccurrence_cosine): the collaborative-filtering score over order
    baskets — support / sqrt(n_a·n_b) for part pairs co-ordered ≥ 3
    times. The float IS hash-gate safe: each row derives from three
    exact integers through correctly-rounded sqrt and divide only (no
    accumulation), so numpy and DuckDB agree bit-for-bit. Oracle = the
    distinct self-join + degree join computing the same expression."""
    from opentelemetry_collector_ray.stages.graph import (
        cooccurrence_cosine)

    return cooccurrence_cosine(
        lambda: _read_co(sf_dir, "lineitem",
                         ["l_orderkey", "l_partkey"], floor=8),
        "l_orderkey", "l_partkey", min_support=3)


def _q_events_path_trigrams(sf_dir: str):
    """Sequential-pattern mining at length 3 (stages/window.py lead
    with OFFSET): each user's consecutive event-type triples in
    (ts, event_id) order counted corpus-wide — ONE bucket exchange
    computes both leads, then a bounded tree count over the ≤ |types|³
    triple space. Oracle = lead(type, 1) / lead(type, 2) window
    composition in DuckDB."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.window import per_key_window

    ev = _read_co(sf_dir, "events",
                  ["user_id", "event_id", "ts", "event_type"], floor=8)
    w = per_key_window(ev, "user_id", ["ts", "event_id"],
                       {"t2": ("lead", "event_type", 1),
                        "t3": ("lead", "event_type", 2)})

    def triples(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(t.column("t2")),
                       pc.is_valid(t.column("t3")))
        t = t.filter(keep)
        return pa.table({"t1": t.column("event_type"),
                         "t2": t.column("t2"), "t3": t.column("t3")})

    return grouped_count(w.map_batches(triples, batch_format="pyarrow"),
                         ["t1", "t2", "t3"], count_name="n")


def _q_orders_scd2_asof(sf_dir: str):
    """Time-travel read over the SCD2 dimension (stages/cdc.py
    scd2_intervals + an interval point filter): each customer's order
    status AS OF 1996-06-01 — the interval containing T
    (valid_from ≤ T < valid_to, open current interval included). The
    snapshot goes THROUGH the versioned dimension, proving interval
    reconstruction ≡ the direct latest-row-at-T query the oracle
    runs."""
    from opentelemetry_collector_ray.stages.cdc import scd2_intervals

    T_US = 833_587_200_000_000  # 1996-06-01 in epoch microseconds

    iv = scd2_intervals(
        _read_co(sf_dir, "orders",
                 ["o_custkey", "o_orderkey", "o_orderdate",
                  "o_orderstatus"], floor=8),
        "o_custkey", "o_orderdate", ["o_orderstatus"],
        tie_break="o_orderkey")

    def asof(t: pa.Table) -> pa.Table:
        frm = pc.cast(pc.cast(t.column("valid_from"),
                              pa.timestamp("us")), pa.int64())
        to = pc.cast(pc.cast(t.column("valid_to"),
                             pa.timestamp("us")), pa.int64())
        # or_kleene: TRUE OR NULL = TRUE (plain or_ would null out the
        # open current interval and drop it at fill_null)
        keep = pc.and_(
            pc.less_equal(frm, pa.scalar(T_US, pa.int64())),
            pc.or_kleene(pc.is_null(to),
                         pc.greater(to, pa.scalar(T_US, pa.int64()))))
        t = t.filter(pc.fill_null(keep, False))
        return pa.table({"o_custkey": t.column("o_custkey"),
                         "o_orderstatus": t.column("o_orderstatus")})

    return iv.map_batches(asof, batch_format="pyarrow")


def _q_parts_bfs_depth(sf_dir: str):
    """BFS hop distance over the part↔supplier co-purchase graph
    (stages/graph.py bfs_layers): every node within 3 undirected hops
    of part p1, with its exact minimum hop count — the crawl-frontier
    / blast-radius primitive, SQL-exact vs DuckDB's recursive-CTE
    min-hop closure (the iterative-graph gate pattern proven by
    orders_cc)."""
    from opentelemetry_collector_ray.stages.graph import bfs_layers

    def make():
        return _read_co(sf_dir, "lineitem",
                        ["l_partkey", "l_suppkey"], floor=8).map_batches(
            lambda t: pa.table({
                "src": pc.binary_join_element_wise(
                    "p", pc.cast(t.column("l_partkey"), pa.string()), ""),
                "dst": pc.binary_join_element_wise(
                    "s", pc.cast(t.column("l_suppkey"), pa.string()), ""),
            }), batch_format="pyarrow")

    return bfs_layers(make, "src", "dst", seeds=["p1"], max_depth=3)


def _q_docs_above_lang_median(sf_dir: str):
    """Per-GROUP quantile thresholding (the per-language curation
    screen): keep documents strictly above their language's exact
    median token count. Pass 1 reduces the corpus to one count row per
    (lang, n_tokens) and reads every language's median off the bucket
    idiom (stages/spanops.grouped_exact_quantiles); the tiny per-lang
    table then broadcasts into a pass-2 filter join — the input text
    is scanned twice but never shuffled. Oracle = per-lang
    quantile_disc(0.5) join in DuckDB (same floor((n-1)q) rank rule)."""
    from opentelemetry_collector_ray.functions.text import token_count
    from opentelemetry_collector_ray.stages.join import broadcast_join
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_exact_quantiles)
    from opentelemetry_collector_ray.stages.treereduce import collect

    def toks():
        def f(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t.column("doc_id"),
                "lang": t.column("lang"),
                "n_tokens": token_count(t.column("text")).cast(pa.int64()),
            })

        return _read_co(sf_dir, "documents", ["doc_id", "lang", "text"],
                        floor=8).map_batches(f, batch_format="pyarrow")

    meds = grouped_exact_quantiles(toks(), "lang", "n_tokens", qs=(0.5,))
    # empty exchange blocks carry an empty schema
    parts = collect(meds.select_columns(["lang", "p50"]))
    med_tbl = pa.concat_tables(parts) if parts else pa.table(
        {"lang": pa.array([], pa.string()),
         "p50": pa.array([], pa.int64())})
    joined = broadcast_join(toks(), med_tbl, key="lang")
    return joined.map_batches(
        lambda t: t.filter(pc.greater(t.column("n_tokens"),
                                      t.column("p50"))),
        batch_format="pyarrow")


def _q_events_type_rank(sf_dir: str):
    """SQL RANK / DENSE_RANK per partition with real ties
    (stages/window.py): events ranked within their event_type by whole
    currency units — peer runs over the full order tuple, one bucket
    exchange. Oracle = rank()/dense_rank() windows in DuckDB (tie
    values are deterministic even though tie order is not)."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    ev = _read_co(sf_dir, "events", ["event_id", "event_type", "value"],
                  floor=8)

    def prep(t: pa.Table) -> pa.Table:
        units = pc.cast(pc.floor(t.column("value")), pa.int64())
        return pa.table({"event_id": t.column("event_id"),
                         "event_type": t.column("event_type"),
                         "units": units})

    return per_key_window(ev.map_batches(prep, batch_format="pyarrow"),
                          "event_type", ["units"],
                          {"rk": ("rank",), "dr": ("dense_rank",)})


def _q_events_rollup(sf_dir: str):
    """Multi-level SQL ROLLUP (stages/rollup.py): count / sum / min /
    max of cents by (event_type, day), by event_type, and grand total —
    input scanned ONCE by the two-phase fine aggregate, coarser levels
    derived from the small fine table in one task, GROUPING_ID bitmask
    emitted. Oracle = GROUP BY ROLLUP in DuckDB."""
    from opentelemetry_collector_ray.stages.aggregate import add_time_bucket
    from opentelemetry_collector_ray.stages.rollup import rollup_agg

    ev = _read_co(sf_dir, "events", ["event_type", "ts", "value"],
                  floor=8)

    def prep(t: pa.Table) -> pa.Table:
        t = add_time_bucket(t, "ts", "day", "day")
        return pa.table({"event_type": t.column("event_type"),
                         "day": t.column("day"),
                         "cents": _cents(t.column("value"))})

    return rollup_agg(ev.map_batches(prep, batch_format="pyarrow"),
                      ["event_type", "day"], count_name="n_events",
                      sum_cols={"sum_cents": "cents"},
                      min_cols={"min_cents": "cents"},
                      max_cols={"max_cents": "cents"})


def _q_events_funnel(sf_dir: str):
    """Per-user conversion funnel (stages/funnel.py): first view, first
    click at-or-after it, first purchase at-or-after that — one bucket
    exchange, per-step suffix-min resolution for every user at once.
    Oracle = nested min(ts) FILTER joins in DuckDB."""
    from opentelemetry_collector_ray.stages.funnel import funnel

    ev = _read_co(sf_dir, "events", ["user_id", "ts", "event_type"],
                  floor=8)
    return funnel(ev, "user_id", "ts", "event_type",
                  ["view", "click", "purchase"])


def _q_events_value_scaled(sf_dir: str):
    """Per-key min-max feature scaling (stages/normalize.py two-pass
    broadcast-statistics): cents scaled into [0, 1e6] within each
    event_type — exact integer arithmetic, oracle = SQL window MIN/MAX
    OVER (PARTITION BY event_type)."""
    from opentelemetry_collector_ray.stages.normalize import minmax_scale

    def make():
        return _read_co(sf_dir, "events",
                        ["event_id", "event_type", "value"],
                        floor=8).map_batches(
            lambda t: pa.table({"event_id": t.column("event_id"),
                                "event_type": t.column("event_type"),
                                "cents": _cents(t.column("value"))}),
            batch_format="pyarrow")

    return minmax_scale(make, "cents", key="event_type")


def _q_events_outliers(sf_dir: str):
    """EXACT per-key 3-sigma anomaly flags (stages/normalize.py
    sigma_outliers): |x − mean| > 3·std decided entirely in integer
    arithmetic — (n·x − s1)² > 9·(n·s2 − s1²) — via one per-key
    driver isqrt, so the HUGEINT SQL oracle hash-matches bit for bit."""
    from opentelemetry_collector_ray.stages.normalize import (
        sigma_outliers)

    def make():
        return _read_co(sf_dir, "events",
                        ["event_id", "event_type", "value"],
                        floor=8).map_batches(
            lambda t: pa.table({"event_id": t.column("event_id"),
                                "event_type": t.column("event_type"),
                                "cents": _cents(t.column("value"))}),
            batch_format="pyarrow")

    return sigma_outliers(make, "cents", key="event_type", k=3,
                          flag_col="is_outlier")


def _q_events_robust_outliers(sf_dir: str):
    """EXACT per-key median/MAD robust outlier flags (stages/
    normalize.py mad_outliers): |x − median| > 3·MAD in pure integers —
    per-key medians ride the bucket-idiom value-count path, the two
    stats tables broadcast, flags are one index_in probe per batch.
    Oracle = the same quantile_disc chain in DuckDB."""
    from opentelemetry_collector_ray.stages.normalize import mad_outliers

    def make():
        return _read_co(sf_dir, "events",
                        ["event_id", "event_type", "value"],
                        floor=8).map_batches(
            lambda t: pa.table({"event_id": t.column("event_id"),
                                "event_type": t.column("event_type"),
                                "cents": _cents(t.column("value"))}),
            batch_format="pyarrow")

    return mad_outliers(make, "cents", key="event_type", k=3,
                        flag_col="is_outlier")


def _q_orders_cc(sf_dir: str):
    """Connected components as a first-class oracle-checked operator
    (stages/dedup.py connected_components — the same min-label machinery
    the dedup family rides): high-value customers linked to order-days
    in a bipartite graph; label = min node id of each component. Oracle
    = recursive-CTE transitive closure + GROUP BY min — exact."""
    from opentelemetry_collector_ray.stages.dedup import (
        connected_components)

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.greater(t.column("o_totalprice"), 450000.0)
        t = t.filter(keep)
        us = pc.cast(t.column("o_orderdate"), pa.int64())
        day = pc.divide(us, 86_400_000_000)
        return pa.table({
            "id_a": pc.multiply(t.column("o_custkey"), 2),
            "id_b": pc.add(pc.multiply(day, 2), 1)})

    edges = _read_co(sf_dir, "orders",
                     ["o_custkey", "o_orderdate", "o_totalprice"],
                     floor=8).map_batches(prep, batch_format="pyarrow")
    return connected_components(edges)


def _q_parts_pagerank(sf_dir: str):
    """PageRank over the part→supplier bipartite graph built from
    lineitem (stages/graph.py): bounded nodes (parts + suppliers,
    count-guarded driver vector), unbounded edges (one lineitem row =
    one edge), sparse per-block contributions + bounded int-key groupby
    per iteration. Rows-only (iterative float fixpoint is not
    SQL-expressible); exactness vs a dense numpy reference is covered in
    tests/test_graph.py."""
    from opentelemetry_collector_ray.stages.graph import pagerank

    def make():
        return _read_co(sf_dir, "lineitem",
                        ["l_partkey", "l_suppkey"], floor=8).map_batches(
            lambda t: pa.table({
                "src": pc.binary_join_element_wise(
                    "p", pc.cast(t.column("l_partkey"), pa.string()), ""),
                "dst": pc.binary_join_element_wise(
                    "s", pc.cast(t.column("l_suppkey"), pa.string()), ""),
            }), batch_format="pyarrow")

    return pagerank(make, "src", "dst", iterations=10, tol=1e-7)


def _q_docs_canonical_dedup(sf_dir: str):
    """Exact dedup over the CANONICAL text form (lower / punct-fold /
    whitespace-collapse — functions/text.canonicalize_text): catches the
    case+punctuation variants raw byte dedup misses. Same hash-pair
    partial shuffle as docs_exact_dedup; only (h1, h2, id) rows move."""
    from opentelemetry_collector_ray.functions.text import canonicalize_text
    from opentelemetry_collector_ray.stages.dedup import exact_dedup

    canon = _read_co(sf_dir, "documents", ["doc_id", "text"],
                     floor=8).map_batches(
        lambda t: pa.table({"doc_id": t.column("doc_id"),
                            "text": canonicalize_text(t.column("text"))}),
        batch_format="pyarrow")
    return exact_dedup(canon, text_col="text", id_col="doc_id")


def _q_docs_chunk_sliding(sf_dir: str):
    """Per-document sliding-window chunking (stages/packing.py
    chunk_sliding): overlapping token windows for RAG/training prep —
    no shuffle, repeat/arange row materialization per batch. Oracle =
    a DuckDB generate_series lateral over the token counts."""
    from opentelemetry_collector_ray.stages.packing import chunk_sliding

    return chunk_sliding(_read_co(sf_dir, "documents", ["doc_id", "text"],
                                  floor=8), window=32, stride=16)


def _q_events_pivot(sf_dir: str):
    """Long→wide pivot (stages/reshape.py): hourly rows, one summed
    cents column per event type — static caller-named schema, one
    index_in scatter per batch feeding the mergeable grouped aggregate.
    Oracle = SUM(CASE WHEN ...) per name."""
    from opentelemetry_collector_ray.stages.aggregate import add_time_bucket
    from opentelemetry_collector_ray.stages.reshape import pivot

    ev = _read_co(sf_dir, "events", ["ts", "event_type", "value"],
                  floor=8).map_batches(
        lambda t: add_time_bucket(
            pa.table({"ts": t.column("ts"),
                      "event_type": t.column("event_type"),
                      "cents": _cents(t.column("value"))})),
        batch_format="pyarrow")
    return pivot(ev, ["bucket"], "event_type", "cents",
                 names=["click", "view", "purchase", "signup", "error"])


def _q_docs_quality_unpivot(sf_dir: str):
    """Wide→long melt (stages/reshape.py unpivot): the integer quality
    features exploded to (doc_id, name, value) rows — stateless per
    batch, zero shuffle. Oracle = UNION ALL of one SELECT per column."""
    from opentelemetry_collector_ray.functions.text import quality_features
    from opentelemetry_collector_ray.stages.reshape import unpivot

    def f(t: pa.Table) -> pa.Table:
        feats = quality_features(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_chars": feats["n_chars"],
                         "n_tokens": feats["n_tokens"],
                         "n_punct": feats["n_punct"]})

    wide = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow")
    return unpivot(wide, ["doc_id"], ["n_chars", "n_tokens", "n_punct"])


def _q_orders_violations(sf_dir: str):
    """Data-quality expectations (stages/validate.py): declared rules →
    violations table. Row-local rules are one vectorized mask per batch;
    the unique rule is one bucket exchange flagging ALL occurrences of a
    duplicated key. Oracle = UNION ALL of the rules in SQL (window count
    for unique)."""
    from opentelemetry_collector_ray.stages.validate import validate_rules

    return validate_rules(
        _read_co(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_totalprice",
                  "o_orderstatus"], floor=8),
        {"price_range": ("in_range", "o_totalprice", 0.0, 300000.0),
         "status_known": ("in_set", "o_orderstatus", ["F", "O"]),
         "custkey_not_null": ("not_null", "o_custkey"),
         "orderkey_unique": ("unique", "o_orderkey")},
        id_col="o_orderkey")


def _q_events_profile(sf_dir: str):
    """Per-column exact profiling (stages/profile.py): row / null /
    distinct counts for data validation — n/null partials tree-combined,
    exact distinct via the shuffle-free two-phase merge (SQL
    count(DISTINCT) null convention matched). Oracle = UNION ALL of one
    aggregate per column."""
    from opentelemetry_collector_ray.stages.profile import profile_table

    return profile_table(
        _read_co(sf_dir, "events",
                 ["event_type", "user_id", "value"], floor=8),
        ["event_type", "user_id", "value"])


def _q_events_hist_wire(sf_dir: str):
    """Histogram min/max + exemplars THROUGH the metrics wire codec,
    oracle-checked end to end: per-event-type histogram data points
    (count / sum / min / max over integer cents, one bucket) each
    carrying one exemplar whose value_int is the group max are encoded
    into ONE OTLP proto ExportMetricsServiceRequest blob
    (sources/otlp_metrics.py), decoded back, and the aggregates read
    off the DECODED rows — the SQL oracle therefore verifies wire
    fidelity of the min/max and exemplar fields (reference
    pdata/pmetric/generated_exemplar.go,
    pdata/internal/generated_proto_histogram_data_point.go). The
    distributed work is the grouped aggregate; the wire blob carries
    |event types| points (the small side)."""
    from opentelemetry_collector_ray.functions import typedattrs as tav
    from opentelemetry_collector_ray.sources.otlp_metrics import (
        HISTOGRAM, _empty_row, _rows_to_table, decode_metrics_request,
        encode_metrics_request)
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    agg = grouped_agg(
        _read_co(sf_dir, "events", ["event_type", "value"],
                 floor=8).map_batches(prep, batch_format="pyarrow"),
        ["event_type"], count_name="n", sum_cols={"s": "cents"},
        min_cols={"mn": "cents"}, max_cols={"mx": "cents"}).to_pandas()
    rows = []
    for r in agg.to_dict("records"):
        row = _empty_row()
        row.update({
            "metric_name": "events.cents", "metric_description": "",
            "metric_unit": "c", "metric_type": HISTOGRAM,
            "time_unix_nano": 1700000000000000000,
            "start_time_unix_nano": 1600000000000000000,
            "aggregation_temporality": 2,
            "attributes": [("event_type",
                            tav.cell(tav.VTYPE_STR, r["event_type"]))],
            "count": int(r["n"]), "sum": float(r["s"]),
            "min": float(r["mn"]), "max": float(r["mx"]),
            "bucket_counts": [int(r["n"])], "explicit_bounds": [],
            "exemplars": [{"time_unix_nano": 1700000000000000001,
                           "value_int": int(r["mx"]),
                           "value_double": None, "trace_id": "",
                           "span_id": "", "filtered_attributes": []}],
            "resource_attributes": [("service.name", "events")],
            "scope_name": "graft", "scope_version": "1"})
        rows.append(row)
    back = decode_metrics_request(
        encode_metrics_request(_rows_to_table(rows)))
    out = {"event_type": [], "n_events": [], "sum_cents": [],
           "min_cents": [], "max_cents": [], "exemplar_max": []}
    for r in back.to_pylist():
        attrs = dict(r["attributes"])
        out["event_type"].append(tav.cell_value(attrs["event_type"])[1])
        out["n_events"].append(int(r["count"]))
        # proto carries sum/min/max as doubles — exact for cents < 2^53
        out["sum_cents"].append(int(r["sum"]))
        out["min_cents"].append(int(r["min"]))
        out["max_cents"].append(int(r["max"]))
        out["exemplar_max"].append(int(r["exemplars"][0]["value_int"]))
    import ray.data

    return ray.data.from_arrow(pa.table({
        k: pa.array(v, pa.string() if k == "event_type" else pa.int64())
        for k, v in out.items()}))


def _q_events_value_pctile(sf_dir: str):
    """percent_rank / cume_dist / first_value / last_value window ops
    (stages/window.py, round-5 additions): per event type ordered by
    integer cents — ties exist at cents granularity, so the SQL peer
    semantics (rank runs for percent_rank, run-end counts for
    cume_dist) are genuinely exercised. percent_rank = (rank−1)/(n−1)
    and cume_dist = peers_through/n are exact double divisions of small
    ints, bit-identical across engines; first/last ride an explicit
    whole-partition frame in the oracle."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t.column("event_id"),
                         "event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    ds = _read_co(sf_dir, "events", ["event_id", "event_type", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return per_key_window(ds, "event_type", ["cents"], {
        "pct": ("percent_rank",),
        "cd": ("cume_dist",),
        "first_cents": ("first_value", "cents"),
        "last_cents": ("last_value", "cents")})


def _q_orders_latest_by_cust(sf_dir: str):
    """CDC upsert compaction (stages/cdc.py latest_by_key): each
    customer's single newest order under (o_orderdate, o_orderkey) —
    the materialized-view read of an append-only changelog. Oracle =
    row_number() = 1 over the DESC ordering."""
    from opentelemetry_collector_ray.stages.cdc import latest_by_key

    return latest_by_key(
        _read_co(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate",
                  "o_totalprice"], floor=8),
        "o_custkey", ["o_orderdate", "o_orderkey"], keep="last")


def _q_events_throttled(sf_dir: str):
    """Per-key rate limiting (stages/cdc.py first_k_by): each user's
    first 3 events in (ts, event_id) order — head-based retention.
    Oracle = row_number() <= 3."""
    from opentelemetry_collector_ray.stages.cdc import first_k_by

    return first_k_by(
        _read_co(sf_dir, "events", ["event_id", "user_id", "ts"],
                 floor=8),
        "user_id", ["ts", "event_id"], k=3)


def _q_events_state_changes(sf_dir: str):
    """Distinct-until-changed (stages/cdc.py dedupe_consecutive):
    per-user event stream compressed to state CHANGES of event_type —
    heartbeat compression. Oracle = first row per user OR event_type IS
    DISTINCT FROM its lag."""
    from opentelemetry_collector_ray.stages.cdc import dedupe_consecutive

    return dedupe_consecutive(
        _read_co(sf_dir, "events",
                 ["event_id", "user_id", "ts", "event_type"], floor=8),
        "user_id", ["ts", "event_id"], value_cols=["event_type"])


def _q_events_user_mode(sf_dir: str):
    """EXACT per-user mode of event_type (aggregate.grouped_mode):
    distinct (user, type, n) rows via the shuffle grouped count, then
    one vectorized argmax per bucket — deterministic tie-break (highest
    count, then smallest value) mirrored by the SQL row_number
    ordering."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_mode

    return grouped_mode(
        _read_co(sf_dir, "events", ["user_id", "event_type"], floor=8),
        "user_id", "event_type", out_name="mode", count_name="mode_n")


def _q_events_user_paths(sf_dir: str):
    """Ordered per-key string aggregation (aggregate.grouped_string_agg
    — SQL string_agg(... ORDER BY ...)): each user's event-type path in
    (ts, event_id) order, one Arrow binary_join per bucket. The
    session-path feature a funnel model trains on."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_string_agg)

    return grouped_string_agg(
        _read_co(sf_dir, "events",
                 ["user_id", "ts", "event_id", "event_type"], floor=8),
        "user_id", ["ts", "event_id"], "event_type", sep=",",
        out_name="path")


def _q_events_gap_stats(sf_dir: str):
    """Inter-arrival gap statistics per user (per_key_window delta →
    grouped_agg): count / min / max / sum of microsecond gaps between a
    user's consecutive events — the heartbeat-health rollup. Exact
    int64 all the way; oracle = lag() deltas aggregated."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.window import per_key_window

    ds = per_key_window(
        _read_co(sf_dir, "events", ["event_id", "user_id", "ts"],
                 floor=8),
        "user_id", ["ts", "event_id"], {"gap_us": ("delta", "ts")})

    def keep_gaps(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("gap_us")))
        return pa.table({"user_id": t.column("user_id"),
                         "gap_us": t.column("gap_us")})

    return grouped_agg(ds.map_batches(keep_gaps, batch_format="pyarrow"),
                       ["user_id"], count_name="n_gaps",
                       sum_cols={"sum_gap_us": "gap_us"},
                       min_cols={"min_gap_us": "gap_us"},
                       max_cols={"max_gap_us": "gap_us"})


def _q_events_twa(sf_dir: str):
    """Time-weighted average value per user (the gauge TWA a metrics
    backend computes): each event's cents hold until the user's next
    event; TWA = Σ(cents·dt) // Σ(dt), exact integers (bounded: max
    cents × total time range ≈ 1.3e17 < 2^63). Last event per user has
    no holding interval and is dropped — SQL mirrors with lead()."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.window import per_key_window

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t.column("event_id"),
                         "user_id": t.column("user_id"),
                         "ts": t.column("ts"),
                         "cents": _cents(t.column("value"))})

    ds = per_key_window(
        _read_co(sf_dir, "events",
                 ["event_id", "user_id", "ts", "value"],
                 floor=8).map_batches(prep, batch_format="pyarrow"),
        "user_id", ["ts", "event_id"], {"next_ts": ("lead", "ts")})

    def weighted(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("next_ts")))
        dt = pc.cast(pc.subtract(t.column("next_ts"), t.column("ts")),
                     pa.int64())
        c = t.column("cents")
        return pa.table({"user_id": t.column("user_id"),
                         "w": pc.multiply(c, dt), "dt": dt})

    agg = grouped_agg(ds.map_batches(weighted, batch_format="pyarrow"),
                      ["user_id"], sum_cols={"w": "w", "dt": "dt"})

    def finish(t: pa.Table) -> pa.Table:
        w = t.column("w").to_numpy(zero_copy_only=False)
        dt = t.column("dt").to_numpy(zero_copy_only=False)
        twa = np.where(dt > 0, w // np.maximum(dt, 1), 0)
        return pa.table({"user_id": t.column("user_id"),
                         "twa_cents": pa.array(twa, pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_lineitem_weighted_price(sf_dir: str):
    """Exact weighted mean in permille (quantity-weighted extended
    price per return flag): Σ(price_cents·qty)·1000 // Σ(qty) — the
    integer-rational pattern every weighted metric rollup needs at the
    hash gate."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def prep(t: pa.Table) -> pa.Table:
        qty = pc.cast(t.column("l_quantity"), pa.int64())
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "w": pc.multiply(_cents(t.column("l_extendedprice")), qty),
            "q": qty})

    agg = grouped_agg(
        _read_co(sf_dir, "lineitem",
                 ["l_returnflag", "l_extendedprice", "l_quantity"],
                 floor=8).map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag"], sum_cols={"w": "w", "q": "q"})

    def finish(t: pa.Table) -> pa.Table:
        w = t.column("w").to_numpy(zero_copy_only=False)
        q = t.column("q").to_numpy(zero_copy_only=False)
        # loud-guard convention: w*1000 wraps silently past 2^63
        if len(w) and int(np.abs(w).max()) > (2**63 - 1) // 1000:
            raise OverflowError(
                "lineitem_weighted_price: sum(price_cents*qty) x 1000 "
                "would overflow int64; rescale the weight units")
        out = (w * 1000) // np.maximum(q, 1)
        return pa.table({"l_returnflag": t.column("l_returnflag"),
                         "wavg_permille": pa.array(out, pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_customers_sha256(sf_dir: str):
    """OTTL SHA256() converter analog (functions/text.py sha256_hex;
    reference ottl/ottlfuncs/func_sha256.go): pseudonymize the customer
    name column — both engines compute the standard digest, exact hash
    parity."""
    from opentelemetry_collector_ray.functions.text import sha256_hex

    def f(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": t.column("c_custkey"),
                         "name_sha": sha256_hex(t.column("c_name"))})

    return _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        f, batch_format="pyarrow")


def _q_events_zorder(sf_dir: str):
    """Z-order (Morton) layout clustering (stages/layout.py): events
    totally ordered by interleave(user_id, cents) with a dense global
    rank — the lakehouse OPTIMIZE ZORDER step that makes BOTH dimension
    predicates prune row groups at 100 TB. Oracle recomputes the
    interleave bit-by-bit in SQL and ranks with row_number()."""
    from opentelemetry_collector_ray.stages.layout import zorder_sort

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t.column("event_id"),
                         "user_id": t.column("user_id"),
                         "cents": _cents(t.column("value"))})

    def make():
        return _read_co(sf_dir, "events",
                        ["event_id", "user_id", "value"],
                        floor=8).map_batches(prep,
                                             batch_format="pyarrow")

    return zorder_sort(make, "user_id", "cents", tie_break="event_id")


def _q_events_ffill(sf_dir: str):
    """LOCF forward fill (per_key_window ffill — the gauge
    carry-forward): each event carries the user's most recent purchase
    amount; rows before the first purchase stay null. Oracle =
    last_value(... IGNORE NULLS) with a ROWS UNBOUNDED PRECEDING
    frame."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    def prep(t: pa.Table) -> pa.Table:
        cents = _cents(t.column("value"))
        is_p = pc.equal(t.column("event_type"), "purchase")
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "ts": t.column("ts"),
            "purchase_cents": pc.if_else(is_p, cents,
                                         pa.scalar(None, pa.int64()))})

    ds = _read_co(sf_dir, "events",
                  ["event_id", "user_id", "ts", "event_type", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    out = per_key_window(ds, "user_id", ["ts", "event_id"],
                         {"last_purchase_cents": ("ffill",
                                                  "purchase_cents")})
    return out.select_columns(["event_id", "user_id",
                               "last_purchase_cents"])


def _q_docs_lm_bigram_stats(sf_dir: str):
    """Bigram-LM screen, integer lanes (stages/ngramlm.py — the CCNet
    perplexity-filter pattern, Wenzek et al. 2020): per doc the count
    of adjacent token pairs, the sum of each pair's CORPUS frequency,
    and the unseen-pair count (0 when trained on the same corpus). The
    exact lanes sit behind the SQL hash gate; the float log-prob lane
    is the rows-only sibling docs_lm_perplexity."""
    from opentelemetry_collector_ray.stages.ngramlm import score_bigram_lm

    out = score_bigram_lm(
        lambda: _read_co(sf_dir, "documents", ["doc_id", "text"],
                         floor=8))
    return out.select_columns(["doc_id", "n_bigrams", "sum_bigram_n",
                               "n_unseen"])


def _q_docs_lm_perplexity(sf_dir: str):
    """Per-doc add-one bigram perplexity (rows-only: Σ ln is
    libm-float; planted-truth coverage in tests/test_ngramlm.py) — the
    filterable quality score of the CCNet screen."""
    from opentelemetry_collector_ray.stages.ngramlm import score_bigram_lm

    out = score_bigram_lm(
        lambda: _read_co(sf_dir, "documents", ["doc_id", "text"],
                         floor=8))
    return out.select_columns(["doc_id", "logprob", "ppl_x1000"])


def _q_orders_price_band(sf_dir: str):
    """Broadcast range-table enrichment (stages/enrich.range_lookup —
    one np.searchsorted per batch, never a per-row CASE chain): orders
    binned into irregular price bands, then the per-band count rollup.
    Oracle = the equivalent CASE chain + GROUP BY."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.enrich import range_lookup

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"cents": _cents(t.column("o_totalprice"))})

    ds = range_lookup(
        _read_co(sf_dir, "orders", ["o_totalprice"],
                 floor=8).map_batches(prep, batch_format="pyarrow"),
        "cents", breaks=[5_000_00, 10_000_000, 25_000_000],
        labels=["micro", "small", "mid", "large"], out_col="band")
    return grouped_count(ds.select_columns(["band"]), ["band"],
                         count_name="n_orders")


def _q_events_daily_delta(sf_dir: str):
    """Period-over-period rollup: per event type, daily counts plus the
    day-over-day delta against the PREVIOUS OBSERVED day (grouped_count
    → per_key_window delta) — the trend lane of a metrics dashboard.
    Oracle = lag() over the same grouped counts."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.window import per_key_window

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            # ISO string, not date32: pandas renders arrow dates and
            # DuckDB DATEs differently (date vs midnight Timestamp),
            # which breaks the exact mirror; strings compare exactly
            "day": pc.cast(pc.cast(pc.floor_temporal(
                t.column("ts"), unit="day"), pa.date32()),
                pa.string())})

    daily = grouped_count(
        _read_co(sf_dir, "events", ["event_type", "ts"],
                 floor=8).map_batches(prep, batch_format="pyarrow"),
        ["event_type", "day"], count_name="n")
    return per_key_window(daily, "event_type", ["day"],
                          {"delta_n": ("delta", "n")})


def _q_events_label_encode(sf_dir: str):
    """Categorical → dense-id encoding (stages/encoding.label_encode,
    frequency order): id 0 = most frequent event type — the
    embedding-table layout step. Oracle = row_number() over
    (count DESC, value) joined back onto the rows."""
    from opentelemetry_collector_ray.stages.encoding import label_encode

    return label_encode(
        lambda: _read_co(sf_dir, "events", ["event_id", "event_type"],
                         floor=8),
        "event_type")


def _q_orders_with_returns(sf_dir: str):
    """Date-windowed orders having at least one RETURNED lineitem —
    the TPC-H Q4 shape (EXISTS = the shuffle join's SEMI mode) rolled
    up per order priority."""
    import datetime

    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    lo = pa.scalar(datetime.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1996, 7, 1), pa.timestamp("us"))

    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_orderdate", "o_orderpriority"],
                      floor=8).map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t.column("o_orderdate"), lo),
            pc.less(t.column("o_orderdate"), hi))),
        batch_format="pyarrow")
    returned = _read_co(sf_dir, "lineitem",
                        ["l_orderkey", "l_returnflag"],
                        floor=8).map_batches(
        lambda t: t.filter(pc.equal(t.column("l_returnflag"), "R"))
        .select(["l_orderkey"]), batch_format="pyarrow")
    sj = shuffle_hash_join(orders, returned, key="o_orderkey",
                           right_key="l_orderkey", how="semi")
    return grouped_count(sj.select_columns(["o_orderpriority"]),
                         ["o_orderpriority"], count_name="n_orders")


def _q_tpch_q10(sf_dir: str):
    """TPC-H Q10 shape (returned-item revenue by customer): returned
    lineitems shuffle-joined to date-windowed orders on the order key,
    broadcast-joined to customer + nation, bucket rollup per customer,
    global top 20 by (revenue DESC, custkey)."""
    import datetime

    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    lo = pa.scalar(datetime.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1996, 4, 1), pa.timestamp("us"))

    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_orderdate"],
                      floor=8).map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t.column("o_orderdate"), lo),
            pc.less(t.column("o_orderdate"), hi)))
        .select(["o_orderkey", "o_custkey"]), batch_format="pyarrow")

    def returned_rev(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0),
                                      t.column("l_discount")))
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "cents": _cents(rev)})

    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_returnflag", "l_extendedprice",
                   "l_discount"], floor=8).map_batches(
        returned_rev, batch_format="pyarrow")
    j = shuffle_hash_join(li, orders, key="l_orderkey",
                          right_key="o_orderkey", how="inner")
    agg = grouped_agg(j.select_columns(["o_custkey", "cents"]),
                      ["o_custkey"],
                      sum_cols={"revenue_cents": "cents"})
    cust = _side_table(sf_dir, "customer",
                       ["c_custkey", "c_name", "c_nationkey"])
    nation = _side_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    named = broadcast_join(agg, cust, key="o_custkey",
                           right_key="c_custkey")
    named = broadcast_join(named, nation, key="c_nationkey",
                           right_key="n_nationkey")
    out = named.select_columns(["o_custkey", "c_name", "n_name",
                                "revenue_cents"])
    return out.sort(["revenue_cents", "o_custkey"],
                    descending=[True, False]).limit(20)


def _q_docs_epoch_order(sf_dir: str):
    """Deterministic multi-epoch training order (stages/mixing.py
    epoch_order, md5 oracle mode): each doc's (shard, pos) coordinate
    for epoch 2 over 4 shards — hash-driven so every epoch reshuffles
    with zero coordination. Oracle = the identical md5 shard expression
    + row_number over the hex digest."""
    from opentelemetry_collector_ray.stages.mixing import epoch_order

    return epoch_order(
        _read_co(sf_dir, "documents", ["doc_id"], floor=8),
        "doc_id", epoch=2, n_shards=4, hash_mode="md5")


def _q_events_transform_ottl(sf_dir: str):
    """OTTL STATEMENT STRINGS end to end (functions/ottl.py — the
    transformprocessor config surface: parse → compile → one vectorized
    pass): conditional set with a compound where, ConvertCase/IsMatch/
    MD5 converters, and a global replace_pattern over the props JSON
    text. Oracle = the equivalent CASE/regexp SQL expressions (both
    engines run RE2; regexp_replace uses the 'g' flag to match Arrow's
    replace-all)."""
    from opentelemetry_collector_ray.functions.ottl import (
        compile_statements)

    fn = compile_statements([
        'set(etype_u, ConvertCase(event_type, "upper")) '
        'where value > 100.0',
        'set(flag, "hi") where value > 100.0 and '
        'IsMatch(event_type, "^(purchase|signup)$")',
        'replace_pattern(props, "[0-9]+", "#")',
        'set(digest, MD5(event_type))',
    ])
    out = _read_co(sf_dir, "events",
                   ["event_id", "event_type", "value", "props"],
                   floor=8).map_batches(fn, batch_format="pyarrow")
    return out.select_columns(["event_id", "etype_u", "flag", "props",
                               "digest"])


def _q_spans_depth(sf_dir: str):
    """Per-span tree depth (spanops.span_depth — vectorized pointer
    doubling, O(log depth) jump rounds per trace bucket, cycle-capped):
    the flame-level coordinate of every span. Oracle = a recursive CTE
    walking parent links from the roots."""
    from opentelemetry_collector_ray.stages.spanops import span_depth

    return span_depth(_spans(sf_dir))


def _q_docs_gopher(sf_dir: str):
    """Gopher rule-based quality screen (functions/text.gopher_quality
    — Rae et al. 2021 §A1.1, the standard pretraining filter): all
    feature lanes are exact integers and the composite keep flag is
    pure integer-permille comparisons, so the whole rule set sits
    behind the SQL hash gate (both engines run RE2)."""
    from opentelemetry_collector_ray.functions.text import gopher_quality

    def f(t: pa.Table) -> pa.Table:
        feats = gopher_quality(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"), **feats})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow")


def _q_events_winsorized(sf_dir: str):
    """Winsorization at the exact global p5/p95 (exact_global_quantiles
    + one clip pass): the outlier-capping step before statistical
    features. Oracle selects the same floor((n−1)·q) ranks by
    row_number and applies the same LEAST/GREATEST clip."""
    from opentelemetry_collector_ray.stages.aggregate import (
        exact_global_quantiles)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t.column("event_id"),
                         "cents": _cents(t.column("value"))})

    ds = _read_co(sf_dir, "events", ["event_id", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    lo, hi = exact_global_quantiles(ds, "cents", (0.05, 0.95))

    def clip(t: pa.Table) -> pa.Table:
        c = t.column("cents")
        return t.append_column(
            "cents_w", pc.min_element_wise(
                pc.max_element_wise(c, pa.scalar(lo, pa.int64())),
                pa.scalar(hi, pa.int64())))

    return ds.map_batches(clip, batch_format="pyarrow")


def _q_events_peak_rate(sf_dir: str):
    """Peak event rate per user: the max count of the user's events in
    any trailing 1-hour RANGE window (rolling_count → grouped max) —
    the burst-detection rollup a rate limiter is tuned against."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.window import per_key_window

    ds = per_key_window(
        _read_co(sf_dir, "events", ["event_id", "user_id", "ts"],
                 floor=8),
        "user_id", ["ts"], {"w1h": ("rolling_count", 3_600_000_000)})
    return grouped_agg(ds.select_columns(["user_id", "w1h"]),
                       ["user_id"], max_cols={"peak_1h": "w1h"})


def _q_docs_hybrid_rank(sf_dir: str):
    """Hybrid retrieval fusion (stages/ranking.rrf_fuse — reciprocal-
    rank fusion, Cormack et al. 2009): the integer-exact tf-idf top-20
    fused with a length-prior top-20; with two lists each rrf score is
    ONE IEEE add of reciprocals, so the oracle reproduces it exactly
    (both rankings are deterministic integer orderings)."""
    from opentelemetry_collector_ray.stages.ranking import (
        rrf_fuse, score_tfidf_int)
    import ray.data

    def make():
        return _read_co(sf_dir, "documents", ["doc_id", "text"],
                        floor=8)

    def _with_rank(pdf):
        pdf = pdf.reset_index(drop=True)
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(pdf["doc_id"].to_numpy(), pa.int64()),
            "rank": pa.array(np.arange(len(pdf)), pa.int64())}))

    # list A: tf-idf relevance (top-20, exact integer scores)
    text_top = score_tfidf_int(make, _TFIDF_TERMS).sort(
        ["score", "doc_id"], descending=[True, False]).limit(20) \
        .to_pandas()  # 20 rows — bounded by construction
    # list B: length prior (top-20 by char count)
    prior_top = make().map_batches(
        lambda t: pa.table({
            "doc_id": t.column("doc_id"),
            "n_chars": pc.utf8_length(t.column("text")).cast(pa.int64())}),
        batch_format="pyarrow").sort(
        ["n_chars", "doc_id"], descending=[True, False]).limit(20) \
        .to_pandas()
    return rrf_fuse([_with_rank(text_top), _with_rank(prior_top)],
                    k=60, topk=10)


def _q_events_type_deciles(sf_dir: str):
    """PER-KEY equi-depth deciles (grouped_exact_quantiles multi-q —
    the per-key sibling of the global orders_decile): p10..p90 of cents
    per event type in ONE bucket-idiom pass. Oracle selects each rank
    by row_number with the floor((n−1)·q) rule."""
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_exact_quantiles)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    ds = _read_co(sf_dir, "events", ["event_type", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return grouped_exact_quantiles(
        ds, "event_type", "cents",
        qs=(0.1, 0.3, 0.5, 0.7, 0.9))


def _q_events_user_hhi(sf_dir: str):
    """Per-user event-type concentration (Herfindahl–Hirschman index,
    exact integer micro-units): HHI_x1e6 = Σ n_i² · 10⁶ // n² — the
    diversity screen a corpus-mixing step runs per source. One shuffle
    count to (user, type, n) rows, then a per-bucket segment reduce."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.bucketing import (
        bucketed_map_groups, key_segments)

    counts = grouped_count(
        _read_co(sf_dir, "events", ["user_id", "event_type"], floor=8),
        ["user_id", "event_type"], count_name="_n")

    def hhi(t: pa.Table) -> pa.Table:
        t = t.sort_by([("user_id", "ascending")])
        keys = t.column("user_id").to_numpy(zero_copy_only=False)
        change, _seg = key_segments(keys)
        n = t.column("_n").to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.flatnonzero(change)
        seg_id = np.cumsum(change) - 1
        tot = np.bincount(seg_id, weights=n).astype(np.int64)
        sq = np.bincount(seg_id, weights=n * n).astype(np.int64)
        out = sq * 1_000_000 // (tot * tot)
        return pa.table({
            "user_id": t.column("user_id").take(
                pa.array(starts, pa.int64())),
            "n_events": pa.array(tot),
            "hhi_x1e6": pa.array(out)})

    return bucketed_map_groups(counts, "user_id", hhi)


def _q_events_user_split(sf_dir: str):
    """Group-aware deterministic train/val/test split (stages/sampling
    assign_split, md5 oracle mode): every event of a user lands in the
    same split — the leakage-safe corpus split. Oracle = the identical
    md5-hex-prefix bucket expression in SQL."""
    from opentelemetry_collector_ray.stages.sampling import assign_split

    return assign_split(
        _read_co(sf_dir, "events", ["event_id", "user_id"], floor=8),
        "user_id", {"train": 0.8, "val": 0.1, "test": 0.1},
        hash_mode="md5")


def _q_docs_uniform_sample(sf_dir: str):
    """Deterministic distributed uniform k-sample (stages/sampling.py
    bottom-k-by-hash, md5 oracle mode): every block emits its local
    bottom-k, the driver keeps the global bottom-k — reproducible
    across runs and block layouts, matching the SQL ORDER BY md5 LIMIT
    bit-for-bit."""
    from opentelemetry_collector_ray.stages.sampling import sample_bottom_k

    return sample_bottom_k(
        _read(sf_dir, "documents", ["doc_id", "lang"]), 25, "doc_id",
        hash_mode="md5")


def _q_docs_corpus_summary(sf_dir: str):
    """One-row corpus datasheet — the numbers a dataset card leads
    with: doc count, total whitespace tokens, language count, distinct
    text count (exact, distributed: the distinct-text set is counted
    via the shuffle grouped-count's OUTPUT row count, never pulled).
    Oracle = the same four aggregates in SQL."""
    from opentelemetry_collector_ray.functions.text import token_count
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count)

    def make():
        return _read_co(sf_dir, "documents",
                        ["doc_id", "lang", "text"], floor=8)

    def stats(t: pa.Table) -> pa.Table:
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "tok": pa.array([pc.sum(token_count(t.column("text"))
                                    .cast(pa.int64())).as_py() or 0],
                            pa.int64())})

    base = make().map_batches(stats, batch_format="pyarrow").to_pandas()
    n_docs = int(base["n"].sum())
    total_tokens = int(base["tok"].sum())

    def _nonnull(col: str):
        # SQL COUNT(DISTINCT x) ignores NULLs; a null group would count
        # as one extra distinct value without this pre-filter (same
        # convention as aggregate.grouped_count_distinct).
        return make().select_columns([col]).map_batches(
            lambda t, c=col: t.drop_null(), batch_format="pyarrow")

    n_langs = grouped_count(_nonnull("lang"), ["lang"],
                            count_name="_n").count()
    n_unique = grouped_count(_nonnull("text"), ["text"],
                             count_name="_n").count()
    import ray.data

    return ray.data.from_arrow(pa.table({
        "n_docs": pa.array([n_docs], pa.int64()),
        "total_tokens": pa.array([total_tokens], pa.int64()),
        "n_langs": pa.array([n_langs], pa.int64()),
        "n_unique_texts": pa.array([n_unique], pa.int64())}))


def _q_events_value_rscaled(sf_dir: str):
    """Robust median/IQR feature scaling (stages/normalize.py
    robust_scale): exact integers, floor((n−1)·q) quantile rank rule —
    the oracle selects p25/p50/p75 by row_number, not quantile_disc
    (the rules differ at q≠0.5)."""
    from opentelemetry_collector_ray.stages.normalize import robust_scale

    def make():
        return _read_co(sf_dir, "events",
                        ["event_id", "event_type", "value"],
                        floor=8).map_batches(
            lambda t: pa.table({"event_id": t.column("event_id"),
                                "event_type": t.column("event_type"),
                                "cents": _cents(t.column("value"))}),
            batch_format="pyarrow")

    return robust_scale(make, "cents", key="event_type")


def _q_events_cusum(sf_dir: str):
    """Per-key one-sided CUSUM change scores (stages/metricsops.py
    cusum_scores): deviations from the EXACT global median cents,
    scanned per event type in (ts, event_id) order — the classic
    max(0, S+d) recursion as one cumsum + one segment-lifted running
    min. Oracle = two SQL window functions + GREATEST with the same
    quantile_disc target."""
    from opentelemetry_collector_ray.stages.aggregate import (
        exact_global_quantile)
    from opentelemetry_collector_ray.stages.metricsops import (
        cusum_scores)

    def make():
        return _read_co(sf_dir, "events",
                        ["event_id", "event_type", "ts", "value"],
                        floor=8).map_batches(
            lambda t: pa.table({"event_id": t.column("event_id"),
                                "event_type": t.column("event_type"),
                                "ts": t.column("ts"),
                                "cents": _cents(t.column("value"))}),
            batch_format="pyarrow")

    med = exact_global_quantile(make(), "cents", 0.5)
    out = cusum_scores(make(), "event_type", ["ts", "event_id"],
                       "cents", target=med)
    return out.map_batches(
        lambda t: t.select(["event_id", "event_type", "cusum"]),
        batch_format="pyarrow")


def _q_events_type_users(sf_dir: str):
    """EXACT per-key COUNT DISTINCT (stages/aggregate.py
    grouped_count_distinct): distinct users per event type via two
    chained two-phase counts — only distinct (type, user) pairs ever
    flow. Oracle = SQL count(DISTINCT)."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count_distinct)

    return grouped_count_distinct(
        _read_co(sf_dir, "events", ["event_type", "user_id"], floor=8),
        ["event_type"], "user_id", out_name="n_users")


def _q_events_value_trend(sf_dir: str):
    """EXACT per-key OLS trend (stages/metricsops.py grouped_trend —
    "is this metric drifting?"): slope of cents over day index as a
    scaled truncating integer quotient from one mergeable-partials
    pass. Oracle = the identical HUGEINT expression (DuckDB // also
    truncates)."""
    from opentelemetry_collector_ray.stages.metricsops import (
        grouped_trend)

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                     pa.int64())
        return pa.table({"event_type": t.column("event_type"),
                         "day": pc.divide(us, 86_400_000_000),
                         "cents": _cents(t.column("value"))})

    pre = _read_co(sf_dir, "events", ["event_type", "ts", "value"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    return grouped_trend(pre, "event_type", "day", "cents")


def _q_events_transitions(sf_dir: str):
    """Per-user event-type transition matrix (path mining / Markov
    counts): per_key_window lead() over (ts, event_id) order, then a
    bounded tree count of (event_type, next_type) pairs. Oracle = the
    identical SQL lead() window + GROUP BY."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count)
    from opentelemetry_collector_ray.stages.window import per_key_window

    ev = _read_co(sf_dir, "events",
                  ["user_id", "event_id", "ts", "event_type"], floor=8)
    w = per_key_window(ev, "user_id", ["ts", "event_id"],
                       {"next_type": ("lead", "event_type")})
    pairs = w.map_batches(
        lambda t: t.select(["event_type", "next_type"]).filter(
            pc.is_valid(t.column("next_type"))),
        batch_format="pyarrow")
    return grouped_count(pairs, ["event_type", "next_type"],
                         count_name="n")


def _q_events_cohort_retention(sf_dir: str):
    """Cohort retention matrix (stages/cohort.py): users bucketed by
    first-event week, distinct-activity offsets counted per cohort —
    one bucket pass dedups a user's events to active weeks AND finds
    the cohort, then a bounded tree aggregate. Oracle = min-per-user +
    DISTINCT activity + GROUP BY in SQL (fixed-width epoch weeks)."""
    from opentelemetry_collector_ray.stages.cohort import (
        cohort_retention)

    return cohort_retention(
        _read_co(sf_dir, "events", ["user_id", "ts"], floor=8),
        period="week")


def _q_events_ottl_convert(sf_dir: str):
    """OTTL string converters (functions/text.py — contrib ottlfuncs
    ConvertCase / Substring / Split analogs) as whole-column Arrow
    kernels: camel → snake roundtrip, 0-based substring, split part
    count. Oracle = the equivalent SQL string expressions (shared RE2
    snake rule)."""
    from opentelemetry_collector_ray.functions.text import (
        convert_case, split_count, substring)

    def f(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        camel = convert_case(
            pc.binary_join_element_wise(
                "Evt", convert_case(et, "camel").cast(pa.string()), ""),
            "camel")
        return pa.table({
            "event_id": t.column("event_id"),
            "camel": camel,
            "snake": convert_case(camel, "snake"),
            "upper3": convert_case(substring(et, 0, 3).cast(pa.string()),
                                   "upper"),
            "n_e_parts": split_count(et, "e")})

    return _read_co(sf_dir, "events", ["event_id", "event_type"],
                    floor=8).map_batches(f, batch_format="pyarrow")


def _q_docs_token_budget(sf_dir: str):
    """Greedy token-budget corpus selection (stages/mixing.py
    select_token_budget — global_sort rank feeding ordered_prefix_sum):
    longest-first docs kept while inclusive cumulative tokens stay
    within half the corpus total. Oracle = SQL running-sum window
    prefix with the identical (score DESC, id) order."""
    from opentelemetry_collector_ray.functions.text import token_count
    from opentelemetry_collector_ray.stages.mixing import (
        select_token_budget)

    def make():
        def f(t: pa.Table) -> pa.Table:
            n = token_count(t.column("text")).cast(pa.int64())
            return pa.table({"doc_id": t.column("doc_id"),
                             "n_tokens": n})

        return _read_co(sf_dir, "documents", ["doc_id", "text"],
                        floor=8).map_batches(f, batch_format="pyarrow")

    total = int(make().sum("n_tokens"))
    return select_token_budget(make, "n_tokens", "n_tokens",
                               total // 2)


def _q_accounts_union_by_name(sf_dir: str):
    """Schema-evolution-safe union (stages/snapshot.py union_by_name —
    UNION ALL BY NAME semantics): customers and suppliers share
    id/balance columns, only suppliers carry nation — the missing
    column null-fills, types are validated. Oracle = DuckDB UNION ALL
    BY NAME."""
    from opentelemetry_collector_ray.stages.snapshot import union_by_name

    cust = _read_co(sf_dir, "customer", ["c_custkey", "c_acctbal"],
                    floor=4).map_batches(
        lambda t: pa.table({"id": t.column("c_custkey"),
                            "balance_cents": _cents(t.column("c_acctbal"))}),
        batch_format="pyarrow")
    supp = _read_co(sf_dir, "supplier", ["s_suppkey", "s_acctbal",
                                         "s_nationkey"],
                    floor=4).map_batches(
        lambda t: pa.table({"id": t.column("s_suppkey"),
                            "balance_cents": _cents(t.column("s_acctbal")),
                            "nation": t.column("s_nationkey")}),
        batch_format="pyarrow")
    return union_by_name([cust, supp])


def _q_orders_snapshot_diff(sf_dir: str):
    """Snapshot changelog (stages/snapshot.py snapshot_diff): old = all
    orders; new = orders minus every 10th key, urgent prices bumped
    100 cents, plus synthetic added keys — classified added / removed /
    changed over the distributed full bucket join. Oracle = the same
    derivation + FULL OUTER JOIN + CASE in SQL."""
    from opentelemetry_collector_ray.stages.snapshot import snapshot_diff

    def old_snap():
        return _read_co(sf_dir, "orders",
                        ["o_orderkey", "o_totalprice"],
                        floor=8).map_batches(
            lambda t: pa.table({"id": t.column("o_orderkey"),
                                "cents": _cents(t.column("o_totalprice"))}),
            batch_format="pyarrow")

    def new_snap():
        def f(t: pa.Table) -> pa.Table:
            keep = pc.not_equal(
                pc.subtract(t.column("o_orderkey"),
                            pc.multiply(pc.divide(t.column("o_orderkey"),
                                                  10), 10)), 0)
            t = t.filter(keep)
            bump = pc.if_else(
                pc.equal(t.column("o_orderpriority"), "1-URGENT"),
                pa.scalar(100, pa.int64()), pa.scalar(0, pa.int64()))
            base = pa.table({
                "id": t.column("o_orderkey"),
                "cents": pc.add(_cents(t.column("o_totalprice")), bump)})
            added_mask = pc.equal(
                pc.subtract(t.column("o_orderkey"),
                            pc.multiply(pc.divide(t.column("o_orderkey"),
                                                  13), 13)), 0)
            at = t.filter(added_mask)
            added = pa.table({
                "id": pc.add(at.column("o_orderkey"),
                             pa.scalar(10_000_000, pa.int64())),
                "cents": _cents(at.column("o_totalprice"))})
            return pa.concat_tables([base, added])

        return _read_co(sf_dir, "orders",
                        ["o_orderkey", "o_totalprice",
                         "o_orderpriority"],
                        floor=8).map_batches(f, batch_format="pyarrow")

    return snapshot_diff(old_snap(), new_snap(), "id", ["cents"])


def _q_events_url_parse(sf_dir: str):
    """OTTL URL() converter analog (functions/text.url_parse — contrib
    ottlfuncs URL): synthesize a deterministic URL per event, split it
    with ONE whole-column RE2 extract_regex into
    scheme/host/port/path/query lanes. Oracle = the same RFC-3986 regex
    via DuckDB regexp_extract (both engines are RE2; non-participating
    groups are '' in both)."""
    from opentelemetry_collector_ray.functions.text import url_parse

    def f(t: pa.Table) -> pa.Table:
        url = pc.binary_join_element_wise(
            "https://shop.example.com:8443/",
            t.column("event_type"), "/",
            pc.cast(t.column("user_id"), pa.string()),
            "?v=", pc.cast(_cents(t.column("value")), pa.string()), "")
        p = url_parse(url)
        return pa.table({"event_id": t.column("event_id"),
                         "scheme": p["scheme"], "host": p["host"],
                         "port_num": p["port_num"], "path": p["path"],
                         "query": p["query"]})

    return _read_co(sf_dir, "events",
                    ["event_id", "event_type", "user_id", "value"],
                    floor=8).map_batches(f, batch_format="pyarrow")


def _q_docs_top_terms_per_lang(sf_dir: str):
    """Per-language top-5 terms — the composition gate: bucket-partial
    term counts on the unbounded (lang, term) key (per-batch partials,
    skew-neutral) feeding grouped_topk's prereduced per-key rank.
    Oracle = exploded GROUP BY + row_number window."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count, grouped_topk)
    from opentelemetry_collector_ray.stages.corpusstats import (
        _tokens_with_rows)

    def explode(t: pa.Table) -> pa.Table:
        flat, rows = _tokens_with_rows(t.column("text"))
        return pa.table({"lang": t.column("lang").take(pa.array(rows)),
                         "term": flat})

    counts = grouped_count(
        _read_co(sf_dir, "documents", ["lang", "text"],
                 floor=8).map_batches(explode, batch_format="pyarrow"),
        ["lang", "term"], count_name="n")
    return grouped_topk(counts, "lang", "n", k=5, tiebreak="term",
                        rank_name="rk")


def _q_docs_lang_divergence(sf_dir: str):
    """Jensen–Shannon divergence between the 'en' slice and the rest of
    the corpus (stages/corpusstats.py term_divergence): both sides
    reduce to two-phase term counts, vocabularies are max_vocab-
    guarded, one aligned-vector JSD on the driver. Rows-only (log);
    identities (0 / ln 2 / symmetry) are property-tested."""
    from opentelemetry_collector_ray.stages.corpusstats import (
        term_divergence)

    def side(is_en: bool):
        def f(t: pa.Table) -> pa.Table:
            m = pc.equal(t.column("lang"), "en")
            return t.filter(m if is_en else pc.invert(m))

        return _read_co(sf_dir, "documents", ["lang", "text"],
                        floor=8).map_batches(f, batch_format="pyarrow")

    return term_divergence(side(True), side(False))


def _q_docs_incremental_dedup(sf_dir: str):
    """Incremental dedup against a PERSISTED seen-content index
    (stages/seenindex.py — the incremental-crawl pattern): even doc_ids
    play the historical corpus (fingerprints Hive-sharded to a
    directory), odd doc_ids are the new ingest; survivors are first-
    occurrence-within-ingest AND unseen, via a composite-key
    distributed ANTI join where only 16-byte hash rows move. Oracle =
    the equivalent NOT EXISTS chain over text."""
    import tempfile

    from opentelemetry_collector_ray.stages.seenindex import (
        build_seen_index, dedup_against_index)

    def half_b(parity: int):
        def f(t: pa.Table) -> pa.Table:
            keep = pc.equal(pc.bit_wise_and(t.column("doc_id"), 1),
                            parity)
            return t.filter(keep)

        return _read_co(sf_dir, "documents", ["doc_id", "text"],
                        floor=8).map_batches(f, batch_format="pyarrow")

    idx = tempfile.mkdtemp(prefix="seenidx_")
    build_seen_index(half_b(0), idx, n_shards=16)
    surv = dedup_against_index(half_b(1), idx)
    return surv.select_columns(["doc_id"])


def _q_docs_weighted_sample(sf_dir: str):
    """Weighted sample WITHOUT replacement (stages/sampling.py
    sample_weighted_k — Efraimidis–Spirakis exponential race, md5
    oracle mode): inclusion probability proportional to token count,
    deterministic across runs and block layouts. Oracle = the identical
    -ln(u)/w rank expression in DuckDB (same libm on this host),
    ORDER BY rank, id LIMIT k."""
    from opentelemetry_collector_ray.functions.text import token_count
    from opentelemetry_collector_ray.stages.sampling import (
        sample_weighted_k)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "w": pc.add(token_count(t.column("text")).cast(pa.int64()),
                        1)})

    pre = _read_co(sf_dir, "documents", ["doc_id", "text"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    return sample_weighted_k(pre, 50, "doc_id", "w", hash_mode="md5")


def _q_events_resampled_daily(sf_dir: str):
    """Time-series resample / gap-fill (stages/resample.py): per user,
    a daily grid from the first observation's day through the last
    observation, each grid point carrying the latest value as of that
    instant (leading point null) — min/max bounds scan + exploded grid
    + distributed as-of join. Oracle = generate_series + ASOF LEFT
    JOIN in DuckDB."""
    from opentelemetry_collector_ray.stages.resample import resample_asof

    def make():
        ev = _read_co(sf_dir, "events", ["user_id", "ts", "value"],
                      floor=8)
        return ev.map_batches(
            lambda t: pa.table({"user_id": t.column("user_id"),
                                "ts": t.column("ts"),
                                "cents": _cents(t.column("value"))}),
            batch_format="pyarrow")

    return resample_asof(make, "user_id", "ts", 86_400_000_000,
                         ["cents"])


def _q_events_jsonl_roundtrip(sf_dir: str):
    """filelog-receiver analog end-to-end (sources/textlog.py): the
    events table is serialized to sharded JSONL files (half gzipped,
    severity text in mixed case), read back with one pyarrow.json C++
    parse per file, severity-text mapped to OTLP SeverityNumber
    (case-folded), and compared to pure SQL over the original table —
    proving the reader, decompression and severity mapping invert the
    serialization exactly. The JSONL derivation is a
    :func:`_fixture_dir` cache, so repeated runs share one copy."""
    import gzip
    import json

    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.sources.textlog import (
        read_jsonl, severity_number)

    src = pq.read_table(f"{sf_dir}/events.parquet",
                        columns=["event_id", "user_id", "event_type",
                                 "ts"])
    ev_id = src.column("event_id").to_numpy(zero_copy_only=False)
    usr = src.column("user_id").to_numpy(zero_copy_only=False)
    typ = src.column("event_type").to_pylist()
    ts_us = src.column("ts").cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    # mixed-case severity text exercises the case fold
    lvl = {"error": "Error", "view": "DEBUG"}

    def build(stage: str) -> None:
        shard = ev_id % 8
        for s in range(8):
            rows = np.flatnonzero(shard == s)
            blob = "\n".join(json.dumps(
                {"event_id": int(ev_id[i]), "user_id": int(usr[i]),
                 "level": lvl.get(typ[i], "info"),
                 "ts_us": int(ts_us[i])},
                sort_keys=True) for i in rows).encode()
            name = f"part-{s}.jsonl.gz" if s % 2 else f"part-{s}.jsonl"
            data = gzip.compress(blob) if s % 2 else blob
            with open(f"{stage}/{name}", "wb") as f:
                f.write(data)

    out_dir = _fixture_dir("jsonl", [f"{sf_dir}/events.parquet"], build)

    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("level", pa.string()), ("ts_us", pa.int64())])
    logs = read_jsonl([f"{out_dir}/{n}" for n in sorted(
        os.listdir(out_dir))], schema=schema)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t.column("event_id"),
                         "user_id": t.column("user_id"),
                         "sev_num": severity_number(t.column("level")),
                         "ts_us": t.column("ts_us")})

    return logs.map_batches(finish, batch_format="pyarrow")


def _q_docs_dup_spans(sf_dir: str):
    """Substring-level duplicate detection (stages/subdedup.py — the
    Lee et al. 2022 passage-dedup operator): every 20-token window
    occurring >= 2 times corpus-wide, merged into maximal per-doc token
    spans. Window hashes are the only shuffle currency; spans merge in
    one vectorized gaps-and-islands pass per doc bucket. Oracle = the
    same windows by CONTENT in DuckDB (generate_series + HAVING + SQL
    islands) — exact because the 64-bit rolling hash is collision-free
    at this scale."""
    from opentelemetry_collector_ray.stages.subdedup import duplicate_spans

    return duplicate_spans(
        _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8),
        window=20)


def _q_docs_dup_stats(sf_dir: str):
    """Per-document duplication-coverage stats from the same operator
    (n_tokens / dup_tokens / n_spans — the 'mostly boilerplate' quality
    signal); zero-filled for clean docs. Oracle = the spans oracle
    aggregated per doc with a zero-fill LEFT JOIN."""
    from opentelemetry_collector_ray.stages.subdedup import (
        duplication_stats)

    return duplication_stats(
        _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8),
        window=20)


def _q_docs_lang_sample(sf_dir: str):
    """Per-group balanced k-sample (stages/sampling.py
    sample_bottom_k_by, md5 oracle mode): 25 deterministic docs per
    language — every block pre-reduces to ≤ k rows per group, one
    bucket exchange finishes; groups may be unbounded. Oracle = SQL
    row_number over md5 per partition."""
    from opentelemetry_collector_ray.stages.sampling import (
        sample_bottom_k_by)

    return sample_bottom_k_by(
        _read_co(sf_dir, "documents", ["doc_id", "lang"], floor=8),
        25, "doc_id", "lang", hash_mode="md5")


def _q_docs_frequent_terms(sf_dir: str):
    """Exact heavy hitters without a vocabulary exchange
    (corpusstats.frequent_terms): per-block local-threshold candidates
    (pigeonhole-complete), broadcast recount, rational threshold 1/200
    of all tokens so the SQL HAVING clause matches bit-exact."""
    from opentelemetry_collector_ray.stages.corpusstats import frequent_terms

    return frequent_terms(
        lambda: _read_co(sf_dir, "documents", ["text"], floor=8),
        num=1, den=200)


def _q_docs_heavy_tokens(sf_dir: str):
    """Misra–Gries heavy hitters (stages/sketch.py::heavy_hitters —
    the BOUNDED-MEMORY exact frequent-items path, complementing
    docs_frequent_terms' pigeonhole variant whose candidate set grows
    with block count): pass 1 merges per-batch value_counts compressed
    to a fixed 80-entry summary (candidate completeness per Agarwal et
    al. mergeable-summaries bound), pass 2 recounts the candidates
    exactly and keeps tokens with freq·40 > n — strict >, so the SQL
    HAVING mirrors bit-exact."""
    from opentelemetry_collector_ray.stages.corpusstats import (
        _tokens_with_rows)
    from opentelemetry_collector_ray.stages.sketch import heavy_hitters

    def explode(t: pa.Table) -> pa.Table:
        flat, _rows = _tokens_with_rows(t.column("text"))
        return pa.table({"tok": flat})

    return heavy_hitters(
        lambda: _read_co(sf_dir, "documents", ["text"], floor=8)
        .map_batches(explode, batch_format="pyarrow"),
        "tok", 40, count_name="n_tok")


def _q_events_ip_nets(sf_dir: str):
    """Client-address lanes (functions/net.py — the client.Info.Addr
    attribute surface, reference client/client.go:67): a deterministic
    md5 ip per user (md5_mod convention, ~1/16 corrupted with a junk
    suffix), formatted to dotted-quad, re-parsed with the validating
    RE2 lane (malformed → NULL, never a guess), classified first-match
    against the RFC 1918 / loopback / CGNAT ranges, and rolled up by
    (class, first octet) — a bounded key domain, so one tree
    aggregate. Oracle = same md5 synth + integer range CASE; the
    corrupt lane surfaces as class 'invalid' with a NULL octet."""
    from opentelemetry_collector_ray.functions.net import (
        classify_cidr, ipv4_format, ipv4_parse)
    from opentelemetry_collector_ray.functions.text import md5_mod
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    rules = [("loopback", "127.0.0.0/8"), ("private", "10.0.0.0/8"),
             ("private", "172.16.0.0/12"), ("private", "192.168.0.0/16"),
             ("cgnat", "100.64.0.0/10")]

    def prep(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.string())
        ip = pa.array(md5_mod(uid, 2 ** 32), pa.int64())
        s = ipv4_format(ip)
        bad = pc.equal(pc.bit_wise_and(t.column("event_id"),
                                       pa.scalar(15, pa.int64())), 0)
        corrupted = pc.binary_join_element_wise(
            s, pc.if_else(bad, ".x", ""), "")
        parsed = ipv4_parse(corrupted)
        cls = pc.fill_null(classify_cidr(parsed, rules), "invalid")
        octet1 = pc.shift_right(parsed, pa.scalar(24, pa.int64()))
        return pa.table({"net_class": cls, "octet1": octet1})

    ds = _read_co(sf_dir, "events", ["event_id", "user_id"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return grouped_count(ds, ["net_class", "octet1"], count_name="n")


def _q_spans_maint_overlap(sf_dir: str):
    """Interval-overlap join (stages/join.py overlap_join — the
    interval×interval sibling of range_join): spans against planted
    per-service 30-minute maintenance windows (every event_id%97==0
    event opens one on its service). Per window: how many spans
    intersected it and the exact intersected microseconds
    (min(e,we)−max(s,ws) summed — integer lanes). With only four
    service keys the bucket exchange is maximally skewed, so the join
    runs salted (salt=8: left split across sub-buckets, windows
    replicated — each pair still formed once). Oracle = the same
    OVERLAPS predicate as a SQL join."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.join import overlap_join

    WIN_US = 1_800_000_000

    def span_iv(t: pa.Table) -> pa.Table:
        s = pc.cast(pc.cast(t.column("start_ts"), pa.timestamp("us")),
                    pa.int64())
        return pa.table({"service": t.column("service"), "s": s,
                         "e": pc.add(s, t.column("duration_us"))})

    from opentelemetry_collector_ray.sources.spans import service_of

    def win_iv(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(eid % 97 == 0))
        ws = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                     pa.int64())
        return pa.table({"service": service_of(t.column("event_type")),
                         "ws": ws,
                         "we": pc.add(ws, pa.scalar(WIN_US, pa.int64()))})

    spans = _spans(sf_dir).map_batches(span_iv, batch_format="pyarrow")
    wins = _read_co(sf_dir, "events", ["event_id", "event_type", "ts"],
                    floor=4).map_batches(win_iv, batch_format="pyarrow")
    pairs = overlap_join(spans, wins, by="service",
                         left_start="s", left_end="e",
                         right_start="ws", right_end="we",
                         max_interval=WIN_US, salt=8)

    def ov(t: pa.Table) -> pa.Table:
        lo = pc.max_element_wise(t.column("s"), t.column("ws"))
        hi = pc.min_element_wise(t.column("e"), t.column("we"))
        return pa.table({"service": t.column("service"),
                         "win_start_us": t.column("ws"),
                         "ov_us": pc.subtract(hi, lo)})

    return grouped_count(pairs.map_batches(ov, batch_format="pyarrow"),
                         ["service", "win_start_us"],
                         count_name="n_spans",
                         sum_cols={"overlap_us": "ov_us"})


def _q_docs_term_cms(sf_dir: str):
    """Count-Min frequency sketch (stages/sketch.py cms_build /
    cms_query — completing the mergeable-sketch triad: HLL distinct,
    KLL quantiles, CMS frequency): the corpus token stream reduces to
    one depth×width count matrix per batch, summed by a tree merge
    (linear, so layout-invariant bit-for-bit); the exact heavy hitters
    are then probed against the sketch. Rows-only (CMS is approximate
    by design — est >= exact one-sided, within eN w.h.p.; both
    properties pytest-enforced)."""
    from opentelemetry_collector_ray.stages.corpusstats import (
        _tokens_with_rows, frequent_terms)
    from opentelemetry_collector_ray.stages.sketch import (
        cms_build, cms_query)
    from opentelemetry_collector_ray.stages.treereduce import collect

    def toks(t: pa.Table) -> pa.Table:
        flat, _ = _tokens_with_rows(t.column("text"))
        return pa.table({"term": flat})

    token_stream = _read_co(sf_dir, "documents", ["text"],
                            floor=8).map_batches(
        toks, batch_format="pyarrow")
    sketch = cms_build(token_stream, "term", width=8192, depth=4)

    exact = frequent_terms(
        lambda: _read_co(sf_dir, "documents", ["text"], floor=8),
        num=1, den=200)
    parts = collect(exact)
    hh = pa.concat_tables(parts).sort_by([("term", "ascending")]) \
        if parts else pa.table({"term": pa.array([], pa.string()),
                                "n": pa.array([], pa.int64())})
    est = cms_query(sketch, hh.column("term").combine_chunks())
    return pa.table({"term": hh.column("term"), "n": hh.column("n"),
                     "est_n": pa.array(est)})


def _q_docs_curation(sf_dir: str):
    """End-to-end curation flagship (pipelines/curation.py):
    contamination screen → 5:3:2 language mixing (rates over the
    SURVIVORS) → sequence packing. Integer-deterministic throughout, so
    ONE SQL oracle reproduces the whole pipeline."""
    from opentelemetry_collector_ray.pipelines.curation import build_curation

    return build_curation(
        lambda: _read(sf_dir, "documents", ["doc_id", "lang", "text"]),
        phrases=list(_BENCH_PHRASES),
        weights={"en": 5, "fr": 3, "de": 2}, capacity=2048,
        persist="memory")


def _q_docs_top_bigrams(sf_dir: str):
    """Corpus bigram statistics (corpusstats.ngram_counts): one
    tokenize + one binary_join_element_wise over shifted token views
    per batch (document-boundary windows masked), two-phase
    grouped count, top-20 with a deterministic tie-break."""
    from opentelemetry_collector_ray.stages.corpusstats import ngram_counts

    return ngram_counts(
        _read_co(sf_dir, "documents", ["text"], floor=8), n=2).sort(
        ["n", "ngram"], descending=[True, False]).limit(20)


# --------------------------------------------------------- documents family

def _q_docs_exact_dedup(sf_dir: str):
    from opentelemetry_collector_ray.stages.dedup import exact_dedup

    return exact_dedup(_read_co(sf_dir, "documents", ["doc_id", "text"], floor=8),
                       text_col="text", id_col="doc_id")


def _q_docs_token_count(sf_dir: str):
    from opentelemetry_collector_ray.functions.text import token_count

    def f(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_tokens": token_count(t.column("text")).cast(pa.int64())})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow")


def _q_docs_bpe_base_tokens(sf_dir: str):
    """BPE encode plumbing end-to-end with ZERO merges (stages/bpe.py):
    every [a-z] character is one base symbol, so the per-doc token count
    equals the letter count — SQL-exact, proving the train → broadcast →
    actor encode → per-doc assembly path under the driver's hash gate.
    (The trained-merges variant is the rows-only ``docs_bpe_tokens``.)"""
    from opentelemetry_collector_ray.stages.bpe import (
        bpe_encode, bpe_train)

    def make():
        return _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8)

    model = bpe_train(make(), num_merges=0)
    enc = bpe_encode(make(), model, concurrency=(1, 4), batch_size=4096)
    return enc.select_columns(["doc_id", "n_bpe_tokens"])


def _q_docs_bpe_roundtrip(sf_dir: str):
    """TRAINED-merge BPE under the SQL hash gate (round-5 promotion of
    the trained path): 200 merges learned from the corpus word
    histogram, distributed encode, then vectorized DECODE — trained on
    the same corpus nothing maps to UNK, so decode(encode(x)) must
    equal the normalized word sequence exactly. A wrong merge
    application, rank tie-break, vocab id assignment or per-doc offset
    in the encoder breaks reconstruction. Oracle = the same [a-z]+
    word extraction joined by single spaces."""
    from opentelemetry_collector_ray.stages.bpe import (
        bpe_decode, bpe_encode, bpe_train)

    def make():
        return _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8)

    model = bpe_train(make(), num_merges=200)
    enc = bpe_encode(make(), model, concurrency=(1, 4), batch_size=4096)
    return bpe_decode(enc, model).select_columns(["doc_id", "detok"])


def _q_docs_bpe_tokens(sf_dir: str):
    """Trained BPE (200 merges learned from the corpus word histogram,
    driver merge loop over the distributed word counts) → distributed
    actor-pool encode. Rows-only: greedy merge order is not
    SQL-expressible; exactness is covered by the naive-trainer parity
    and segmentation-invariant property tests (tests/test_bpe.py)."""
    from opentelemetry_collector_ray.stages.bpe import bpe_tokenize

    return bpe_tokenize(
        lambda: _read_co(sf_dir, "documents", ["doc_id", "text"],
                         floor=8),
        num_merges=200, concurrency=(1, 4), batch_size=4096)


def _q_docs_fingerprint(sf_dir: str):
    from opentelemetry_collector_ray.functions.text import md5_hex

    def f(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "fp": md5_hex(t.column("text"))})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow")


def _q_docs_quality(sf_dir: str):
    from opentelemetry_collector_ray.functions.text import lang_id, quality_features

    def f(t: pa.Table) -> pa.Table:
        feats = quality_features(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"),
                         "lang_pred": lang_id(t.column("text")), **feats})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow")


def _q_docs_quality_ints(sf_dir: str):
    """Integer-exact quality features (oracle-checked counterpart of the
    float-score docs_quality): char/token/punct counts + integer-division
    ratios (permille / milli-chars-per-token)."""
    from opentelemetry_collector_ray.functions.text import quality_features

    def f(t: pa.Table) -> pa.Table:
        feats = quality_features(t.column("text"))
        nc = feats["n_chars"].to_numpy(zero_copy_only=False)
        nt = feats["n_tokens"].to_numpy(zero_copy_only=False)
        npn = feats["n_punct"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_chars": feats["n_chars"],
            "n_tokens": feats["n_tokens"],
            "n_punct": feats["n_punct"],
            "punct_permille": pa.array(npn * 1000 // np.maximum(nc, 1)),
            "tok_len_milli": pa.array(nc * 1000 // np.maximum(nt, 1)),
        })

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow")


def _q_docs_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (exact integers): modal
    token / modal adjacent-bigram counts, distinct-token count, longest
    same-token run — the inputs to repetition-based corpus filtering.
    Embarrassingly parallel (no shuffle); oracle is an exploded
    unigram/bigram/gaps-and-islands SQL over the same tokenization."""
    from opentelemetry_collector_ray.functions.text import repetition_stats

    def f(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         **repetition_stats(t.column("text"))})

    return _read_co(sf_dir, "documents", ["doc_id", "text"],
                    floor=8).map_batches(f, batch_format="pyarrow")


def _q_pii_redact(sf_dir: str):
    """PII redaction over deterministically PII-seeded text (emails,
    phones, SSNs, credit cards, IPs built from customer columns so the
    oracle can construct byte-identical input); redaction + per-rule
    counts are whole-column RE2 kernels (functions/redact.py)."""
    from opentelemetry_collector_ray.functions.redact import redact_table

    def build(t: pa.Table) -> pa.Table:
        ck = t.column("c_custkey").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        k4 = pa.array(np.char.zfill((ck % 10000).astype("U4"), 4))
        ip = pa.array((ck % 256).astype("U3"))
        text = pc.binary_join_element_wise(
            "Contact ", t.column("c_name"), " at user",
            pc.cast(t.column("c_custkey"), pa.string()),
            "@corp.example.com or call 555-010-", k4,
            " card 4111-1111-1111-", k4, " ssn 123-45-", k4,
            " ip 10.", ip, ".0.1 end", "")
        return pa.table({"c_custkey": t.column("c_custkey"), "text": text})

    return _read(sf_dir, "customer", ["c_custkey", "c_name"]) \
        .map_batches(build, batch_format="pyarrow") \
        .map_batches(lambda t: redact_table(t, "text").drop_columns("text"),
                     batch_format="pyarrow")


def _q_join_priority_revenue(sf_dir: str):
    """Big-big shuffle join (lineitem ⋈ orders on orderkey — neither side
    broadcastable at scale) through one int-bucket co-partition exchange +
    per-bucket Arrow hash join, then a bounded-key rollup."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_extendedprice", "l_discount"])
    o = _read_co(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    j = shuffle_hash_join(li, o, key="l_orderkey", right_key="o_orderkey",
                          how="inner")

    def cents(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        return pa.table({"o_orderpriority": t.column("o_orderpriority"),
                         "rev_cents": _cents(rev)})

    return grouped_agg(j.map_batches(cents, batch_format="pyarrow"),
                       ["o_orderpriority"], count_name="n_items",
                       sum_cols={"rev_cents": "rev_cents"})


def _q_tpch_q3(sf_dir: str):
    """TPC-H Q3 shape (shipping-priority): dimension filter broadcast
    (customer segment) → pushed-down date filters on BOTH fact reads →
    big-big shuffle join → bucket rollup on the join key → global top-10
    with a deterministic tie-break. The canonical multi-join composition
    query — every stage is one of the repo's primitives."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    import datetime

    cut = pa.scalar(datetime.datetime(1998, 6, 1), pa.timestamp("us"))
    cust = _side_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    cust = cust.filter(pc.equal(cust.column("c_mktsegment"), "BUILDING")
                       ).select(["c_custkey"])

    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_orderdate"]
                      ).map_batches(
        lambda t: t.filter(pc.less(t.column("o_orderdate"), cut)),
        batch_format="pyarrow")
    orders = broadcast_join(orders, cust, key="o_custkey",
                            right_key="c_custkey").select_columns(
        ["o_orderkey", "o_orderdate"])

    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_extendedprice", "l_discount",
                   "l_shipdate"]).map_batches(
        lambda t: t.filter(pc.greater(t.column("l_shipdate"), cut)),
        batch_format="pyarrow")

    j = shuffle_hash_join(li, orders, key="l_orderkey",
                          right_key="o_orderkey", how="inner")

    def cents(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0),
                                      t.column("l_discount")))
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "o_orderdate": t.column("o_orderdate"),
                         "cents": _cents(rev)})

    agg = grouped_agg(j.map_batches(cents, batch_format="pyarrow"),
                      ["l_orderkey", "o_orderdate"],
                      sum_cols={"revenue_cents": "cents"})
    return agg.sort(["revenue_cents", "l_orderkey"],
                    descending=[True, False]).limit(10)


def _q_tpch_q5(sf_dir: str):
    """TPC-H Q5 shape (local-supplier revenue): region→nation dimension
    chain broadcast into BOTH fact sides, one big-big shuffle join on
    the order key, then the non-equi predicate (customer and supplier
    share a nation) filtered post-join and a bucket rollup to per-nation
    revenue. Exercises the full composition: two broadcast joins, a
    shuffle join, a residual filter, a bounded-key aggregate and a
    broadcast name lookup."""
    import datetime

    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    lo = pa.scalar(datetime.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1997, 1, 1), pa.timestamp("us"))

    region = _side_table(sf_dir, "region", ["r_regionkey", "r_name"])
    asia = region.filter(pc.equal(region.column("r_name"), "ASIA"))
    nation = _side_table(sf_dir, "nation",
                         ["n_nationkey", "n_name", "n_regionkey"])
    nation = nation.filter(pc.is_in(
        nation.column("n_regionkey"), value_set=asia.column("r_regionkey")
        .combine_chunks()))
    nk = nation.column("n_nationkey").combine_chunks()

    cust = _side_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust = cust.filter(pc.is_in(cust.column("c_nationkey"), value_set=nk))

    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_orderdate"]
                      ).map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t.column("o_orderdate"), lo),
            pc.less(t.column("o_orderdate"), hi))),
        batch_format="pyarrow")
    orders = broadcast_join(orders, cust, key="o_custkey",
                            right_key="c_custkey").select_columns(
        ["o_orderkey", "c_nationkey"])

    supp = _side_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp.filter(pc.is_in(supp.column("s_nationkey"), value_set=nk))

    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_suppkey", "l_extendedprice",
                   "l_discount"])
    li = broadcast_join(li, supp, key="l_suppkey", right_key="s_suppkey")

    j = shuffle_hash_join(li, orders, key="l_orderkey",
                          right_key="o_orderkey", how="inner")

    def local(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("c_nationkey"),
                              t.column("s_nationkey")))
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0),
                                      t.column("l_discount")))
        return pa.table({"n_nationkey": t.column("s_nationkey"),
                         "cents": _cents(rev)})

    agg = grouped_agg(j.map_batches(local, batch_format="pyarrow"),
                      ["n_nationkey"],
                      sum_cols={"revenue_cents": "cents"})
    named = broadcast_join(agg, nation.select(["n_nationkey", "n_name"]),
                           key="n_nationkey").select_columns(
        ["n_name", "revenue_cents"])
    return named.sort("revenue_cents", descending=True)


def _q_orders_vip_join(sf_dir: str):
    """Bloom-prefiltered selective inner join (stages/join.py
    bloom_bits): the right side is VIP customers (acctbal > 9900, ~1%
    of customers), so a ~128 KB bloom over their keys drops ~99% of
    the orders BEFORE the exchange — the 100 TB shuffle-reduction
    lever, exact because false positives still hit the per-bucket
    Arrow join. Oracle = the plain SQL inner join."""
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    vip = _read_co(sf_dir, "customer",
                   ["c_custkey", "c_acctbal", "c_name"]).map_batches(
        lambda t: t.filter(pc.greater(t.column("c_acctbal"), 9900.0)),
        batch_format="pyarrow").map_batches(
        lambda t: pa.table({"c_custkey": t.column("c_custkey"),
                            "c_name": t.column("c_name")}),
        batch_format="pyarrow").materialize()  # tiny side: one
    # execution feeds the bloom pass, the schema probe AND the join
    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_totalprice"],
                      floor=8).map_batches(
        lambda t: pa.table({"o_orderkey": t.column("o_orderkey"),
                            "o_custkey": t.column("o_custkey"),
                            "cents": _cents(t.column("o_totalprice"))}),
        batch_format="pyarrow")
    return shuffle_hash_join(orders, vip, key="o_custkey",
                             right_key="c_custkey", how="inner",
                             bloom_bits=1 << 20)


def _q_orders_decile(sf_dir: str):
    """Equi-depth bucketing (stages/aggregate.py
    exact_global_quantiles): every order assigned its exact global
    price decile — ONE value-count pass reads all nine thresholds,
    broadcast into a single searchsorted per batch. Oracle = the same
    quantile_disc threshold list in DuckDB, bucket = 1 + #thresholds
    strictly below the value."""
    from opentelemetry_collector_ray.stages.aggregate import (
        exact_global_quantiles)

    def make():
        return _read_co(sf_dir, "orders",
                        ["o_orderkey", "o_totalprice"],
                        floor=8).map_batches(
            lambda t: pa.table({"o_orderkey": t.column("o_orderkey"),
                                "cents": _cents(t.column("o_totalprice"))}),
            batch_format="pyarrow")

    qs = tuple(i / 10 for i in range(1, 10))
    ts = np.array(exact_global_quantiles(make(), "cents", qs), np.int64)

    def assign(t: pa.Table) -> pa.Table:
        c = t.column("cents").to_numpy(zero_copy_only=False)
        dec = np.searchsorted(ts, c, side="left") + 1
        return pa.table({"o_orderkey": t.column("o_orderkey"),
                         "cents": t.column("cents"),
                         "decile": pa.array(dec.astype(np.int64))})

    return make().map_batches(assign, batch_format="pyarrow")


def _q_customers_order_counts(sf_dir: str):
    """LEFT shuffle join: every customer with its order count INCLUDING
    zero-order customers (null right rows counted as 0)."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    c = _read_co(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    o = _read_co(sf_dir, "orders", ["o_custkey", "o_orderkey"])
    j = shuffle_hash_join(c, o, key="c_custkey", right_key="o_custkey",
                          how="left")

    def mark(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t.column("c_custkey"),
            "c_mktsegment": t.column("c_mktsegment"),
            "has_order": pc.cast(t.column("o_orderkey").is_valid(),
                                 pa.int64()),
        })

    return grouped_agg(j.map_batches(mark, batch_format="pyarrow"),
                       ["c_custkey", "c_mktsegment"],
                       sum_cols={"n_orders": "has_order"})


def _q_events_last_order_asof(sf_dir: str):
    """AS-OF join (events → latest prior order per user): one bucket
    co-partition exchange + vectorized per-bucket sort-merge; DuckDB
    ``ASOF JOIN`` is the oracle. Only the matched TIMESTAMP is emitted
    (the matched row among equal-timestamp orders is tie-ambiguous in
    both engines)."""
    from opentelemetry_collector_ray.stages.join import asof_join

    e = _read_co(sf_dir, "events", ["event_id", "user_id", "ts"])
    o = _read_co(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    j = asof_join(e, o, by="user_id", right_by="o_custkey",
                  on="ts", right_on="o_orderdate", how="inner")
    return j.map_batches(
        lambda t: t.rename_columns(
            ["event_id", "user_id", "ts", "last_order_ts"]),
        batch_format="pyarrow")


def _q_ship_window_join(sf_dir: str):
    """Equality+range join (lineitem rows shipped within 60 days of their
    order's date): bucket co-partition + vectorized per-bucket interval
    enumeration; the max_interval bound keeps candidates O(window)."""
    from opentelemetry_collector_ray.stages.join import range_join

    DAY_US = 86_400_000_000
    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_linenumber", "l_shipdate"])
    o = _read_co(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    return range_join(li, o, by="l_orderkey", right_by="o_orderkey",
                      on="l_shipdate", right_start="o_orderdate",
                      max_interval=60 * DAY_US)


def _q_events_topk_per_type(sf_dir: str):
    """Top-3 users per event_type by event count with deterministic
    tiebreak — per-key rank on the bucket idiom (row_number analog)."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count, grouped_topk)

    counts = grouped_count(
        _read_co(sf_dir, "events", ["event_type", "user_id"], floor=8),
        ["event_type", "user_id"], count_name="n")
    return grouped_topk(counts, "event_type", "n", k=3,
                        tiebreak="user_id")


def _q_docs_quality_model(sf_dir: str):
    """Batched model-inference pattern: integer linear scorer over text
    quality features, weights broadcast via ray.put and fetched once per
    actor; one matmul per batch. The deterministic model keeps the SQL
    oracle exact while the plumbing matches a real classifier's."""
    from opentelemetry_collector_ray.functions.text import quality_features
    from opentelemetry_collector_ray.stages.scoring import score

    def feats(t: pa.Table) -> pa.Table:
        f = quality_features(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_chars": f["n_chars"], "n_tokens": f["n_tokens"],
                         "n_punct": f["n_punct"]})

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        feats, batch_format="pyarrow")
    return score(ds, {"n_chars": 3, "n_tokens": 17, "n_punct": -5},
                 bias=7, out_col="score", concurrency=2)


def _q_docs_quality_cutoff(sf_dir: str):
    """Two-pass global-threshold selection (the corpus quality-cutoff
    pattern): pass 1 reduces 10^12 rows to one count per distinct score
    and reads the exact median off the driver-resident value-count table;
    pass 2 filters with the broadcast scalar. Oracle: quantile_disc."""
    import pyarrow.compute as _pc

    from opentelemetry_collector_ray.stages.aggregate import (
        exact_global_quantile)

    def scored(t: pa.Table) -> pa.Table:
        from opentelemetry_collector_ray.functions.text import (
            quality_features)

        f = quality_features(t.column("text"))
        nc = f["n_chars"].to_numpy(zero_copy_only=False)
        nt = f["n_tokens"].to_numpy(zero_copy_only=False)
        npn = f["n_punct"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": t.column("doc_id"),
                         "score": pa.array(3 * nc + 17 * nt - 5 * npn)})

    def build():
        return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            scored, batch_format="pyarrow")

    thr = exact_global_quantile(build(), "score", 0.5)
    return build().map_batches(
        lambda t: t.filter(_pc.greater_equal(t.column("score"),
                                             pa.scalar(thr))),
        batch_format="pyarrow")


def _q_docs_pack_chunks(sf_dir: str):
    """Sequence packing (concat-then-chunk): distributed two-pass prefix
    sum assigns each doc its global token offset; chunk_id = offset //
    capacity. Oracle: SQL window cumulative sum."""
    from opentelemetry_collector_ray.functions.text import token_count
    from opentelemetry_collector_ray.stages.packing import pack_chunks

    def make():
        return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            lambda t: pa.table({
                "doc_id": t.column("doc_id"),
                "n_tokens": token_count(t.column("text")).cast(pa.int64())}),
            batch_format="pyarrow")

    return pack_chunks(make, "doc_id", "n_tokens", capacity=2048)


def _q_docs_pack_bins(sf_dir: str):
    """Whole-document next-fit bin packing (rows-only: bin ids are
    content-addressed strings): every doc in exactly one bin, no bin over
    capacity unless a single oversize doc."""
    from opentelemetry_collector_ray.functions.text import token_count
    from opentelemetry_collector_ray.stages.packing import pack_bins

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: pa.table({
            "doc_id": t.column("doc_id"),
            "n_tokens": token_count(t.column("text")).cast(pa.int64())}),
        batch_format="pyarrow")
    return pack_bins(ds, "n_tokens", capacity=2048)


def _q_docs_dedup_filtered(sf_dir: str):
    """End-to-end near-dedup consumable: MinHash+LSH clusters → keep-one
    anti-join filter — the corpus a training run would actually read
    (rows-only; cluster membership is verified by planted-dup tests)."""
    from opentelemetry_collector_ray.stages.dedup import (
        dedup_filter, minhash_dedup)

    docs = _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8)
    clusters = minhash_dedup(_read_co(sf_dir, "documents", ["doc_id", "text"], floor=8),
                             threshold=0.5)
    return dedup_filter(docs, clusters, id_col="doc_id")


def _q_docs_unigram_mass(sf_dir: str):
    """Two-pass corpus-statistics scoring (TF/unigram-LM pattern): pass 1
    reduces the corpus to one count per term, broadcast; pass 2 scores
    each doc by the integer sum of its tokens' corpus frequencies — one
    index_in probe + numpy segment sums per batch."""
    from opentelemetry_collector_ray.stages.corpusstats import unigram_mass

    scored = unigram_mass(
        lambda: _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8))
    # SQL's exploded JOIN drops 0-token docs — mirror exactly
    return scored.map_batches(
        lambda t: t.filter(pc.greater(t.column("n_tokens"), 0)),
        batch_format="pyarrow")


def _q_docs_minhash_dedup(sf_dir: str):
    from opentelemetry_collector_ray.stages.dedup import minhash_dedup

    return minhash_dedup(_read_co(sf_dir, "documents", ["doc_id", "text"], floor=8),
                         threshold=0.5)


def _q_docs_simhash(sf_dir: str):
    from opentelemetry_collector_ray.stages.dedup import SimHashStage

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        SimHashStage(), batch_format="pyarrow")


def _q_docs_simhash_dedup(sf_dir: str):
    """SimHash near-dup clusters (pigeonhole band LSH + exact hamming
    verify + CC; rows-only — planted-dup ground truth in tests)."""
    from opentelemetry_collector_ray.stages.dedup import simhash_dedup

    return simhash_dedup(_read_co(sf_dir, "documents", ["doc_id", "text"], floor=8),
                         max_hamming=6)


def _q_docs_cross_decontaminate(sf_dir: str):
    """FUZZY train/eval decontamination: every ~37th document plays the
    role of a held-out eval set; the surviving training corpus excludes
    near-duplicates (MinHash, transitive) of any eval doc (rows-only —
    planted-truth pytest covers the semantics)."""
    from opentelemetry_collector_ray.stages.dedup import cross_decontaminate

    def side(keep_eval: bool):
        cmp = pc.equal if keep_eval else pc.not_equal
        return _read_co(sf_dir, "documents", ["doc_id", "text"],
                        floor=8).map_batches(
            lambda t: t.filter(cmp(
                pc.bit_wise_and(t.column("doc_id"), pa.scalar(31, pa.int64())),
                pa.scalar(0, pa.int64()))),
            batch_format="pyarrow")

    return cross_decontaminate(side(False), side(True), threshold=0.8)


def _q_emb_near_dup(sf_dir: str):
    """Embedding-cosine near-dup clusters over the embeddings table
    (rows-only — planted-dup ground truth in tests)."""
    from opentelemetry_collector_ray.stages.dedup import embedding_near_dup

    return embedding_near_dup(_read_co(sf_dir, "embeddings",
                                    ["vec_id", "embedding"]),
                              threshold=0.98)


# ------------------------------------------------------------- spans family

def _spans(sf_dir: str):
    from opentelemetry_collector_ray.sources.spans import read_derived_spans

    return read_derived_spans(sf_dir)


def _q_spans_derive(sf_dir: str):
    return _spans(sf_dir)


def _q_spans_service_stats(sf_dir: str):
    """Per-service span rollup (bounded keys → two-phase tree aggregate):
    count, errors, total + max duration."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def prep(t: pa.Table) -> pa.Table:
        is_err = pc.cast(pc.equal(t.column("status_code"), 2), pa.int64())
        return pa.table({"service": t.column("service"),
                         "duration_us": t.column("duration_us"),
                         "is_err": is_err})

    pre = _spans(sf_dir).map_batches(prep, batch_format="pyarrow")
    return grouped_agg(pre, ["service"], count_name="n_spans",
                       sum_cols={"sum_duration_us": "duration_us",
                                 "n_errors": "is_err"},
                       max_cols={"max_duration_us": "duration_us"})


def _q_spans_red_metrics(sf_dir: str):
    """spanmetrics-connector analog (RED metrics): per (service, minute
    bucket) call rate, error count and duration sum/max — the traces →
    metrics connector every APM stack runs. Bounded keys (services ×
    minutes in window) → two-phase tree aggregate."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def prep(t: pa.Table) -> pa.Table:
        minute = pc.floor_temporal(t.column("start_ts"), unit="minute")
        is_err = pc.cast(pc.equal(t.column("status_code"), 2), pa.int64())
        return pa.table({"service": t.column("service"),
                         "minute": minute,
                         "duration_us": t.column("duration_us"),
                         "is_err": is_err})

    pre = _spans(sf_dir).map_batches(prep, batch_format="pyarrow")
    return grouped_agg(pre, ["service", "minute"], count_name="n_calls",
                       sum_cols={"sum_duration_us": "duration_us",
                                 "n_errors": "is_err"},
                       max_cols={"max_duration_us": "duration_us"})


def _q_spans_parent_join(sf_dir: str):
    """Child → parent service resolution: co-partitioned self-join per
    trace bucket (never a global shuffle join)."""
    from opentelemetry_collector_ray.stages.spanops import parent_child_join

    return parent_child_join(_spans(sf_dir))


def _q_spans_service_graph(sf_dir: str):
    """Service-dependency-graph connector analog (spanops.py
    service_graph — contrib servicegraphconnector): per-trace
    co-partitioned parent join → (client, server) edge metrics,
    bounded-edge tree combine. Oracle = SQL self-join + GROUP BY."""
    from opentelemetry_collector_ray.stages.spanops import service_graph

    return service_graph(_spans(sf_dir))


def _q_spans_trace_stats(sf_dir: str):
    """Per-trace rollup (unbounded keys → partials + hash groupby)."""
    from opentelemetry_collector_ray.stages.spanops import trace_stats

    return trace_stats(_spans(sf_dir))


def _q_spans_duration_quantiles(sf_dir: str):
    """EXACT per-service duration percentiles via the bounded-integer-
    domain value-count path (pmetric Summary analog, exact not sketched)."""
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_exact_quantiles)

    # bounded keys (4 services) x bounded duration domain -> the
    # map-only tree count beats the sort exchange ~2s at sf0.1
    return grouped_exact_quantiles(_spans(sf_dir), key="service",
                                   value_col="duration_us")


def _q_spans_tail_sampled(sf_dir: str):
    """Tail-based sampling (tailsampling processor analog): all spans of
    traces containing at least one error — trace-level predicate inside
    the trace bucket task."""
    from opentelemetry_collector_ray.stages.spanops import tail_sample

    return tail_sample(_spans(sf_dir))


def _q_spans_tail_policy(sf_dir: str):
    """Composite tail-based sampling (stages/spanops.py::
    tail_sample_policies — the multi-policy tailsampling form: ordered
    error > latency > probabilistic legs, OR-combined per trace, the
    winning policy tagged on every kept span). One trace-bucket
    exchange; segment reduceat decides all traces in a bucket at once,
    the probabilistic leg hashes each DISTINCT trace id exactly once.
    Oracle = the same per-trace predicates as a SQL GROUP BY + join."""
    from opentelemetry_collector_ray.stages.spanops import (
        tail_sample_policies)

    out = tail_sample_policies(_spans(sf_dir),
                               latency_us=1_800_000_000, permille=100)
    return out.select_columns(["trace_id", "span_id", "service",
                               "duration_us", "status_code", "policy"])


def _q_docs_readability(sf_dir: str):
    """Flesch reading-ease screen (functions/text.py::
    readability_counts): per-doc word / sentence / vowel-group-syllable
    counts and the integer-millis Flesch score — map-only, one RE2 pass
    per lane, no shuffle. Oracle = the identical RE2 counting rules via
    DuckDB regexp_extract_all and the identical floor-divided formula."""
    from opentelemetry_collector_ray.functions.text import (
        readability_counts)

    def lanes(t: pa.Table) -> pa.Table:
        r = readability_counts(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"), **r})

    return _read_co(sf_dir, "documents", ["doc_id", "text"],
                    floor=8).map_batches(lanes, batch_format="pyarrow")


_BLOCKLIST = ["slow", "dup", "bug"]


def _q_docs_blocklist(sf_dir: str):
    """C4-style blocklist screen (functions/text.py::blocklist_counts):
    whole-word hits against a small blocklist, keep = zero hits —
    map-only, ONE compiled RE2 alternation per batch regardless of
    list size. Oracle runs the identical RE2 via regexp_extract_all."""
    from opentelemetry_collector_ray.functions.text import blocklist_counts

    def lanes(t: pa.Table) -> pa.Table:
        r = blocklist_counts(t.column("text"), _BLOCKLIST)
        return pa.table({"doc_id": t.column("doc_id"), **r})

    return _read_co(sf_dir, "documents", ["doc_id", "text"],
                    floor=8).map_batches(lanes, batch_format="pyarrow")


def _q_events_trimmed_mean(sf_dir: str):
    """Per-type 10% trimmed mean (stages/aggregate.py::grouped_trimmed
    — the robust-location aggregate): exact integer lanes computed from
    the (key, value, count) reduction, so raw rows never ride the
    exchange. Oracle = the SQL rank-window trim filter + FILTER sums
    with the identical truncating mean."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_trimmed

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    pre = _read_co(sf_dir, "events", ["event_type", "value"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    return grouped_trimmed(pre, "event_type", "cents", trim_permille=100)


def _q_turns_count_connector(sf_dir: str):
    """Count connector analog (logs → metrics): per-severity-band counts
    of parsed turns — a counting metric derived from the log stream."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def prep(t: pa.Table) -> pa.Table:
        lvl = t.column("level")
        band = pc.if_else(pc.equal(lvl, "ERROR"), "error",
                          pc.if_else(pc.equal(lvl, "INFO"), "info", "other"))
        band = pc.if_else(pc.is_valid(lvl), band, "unparsed")
        return pa.table({"band": band})

    pre = _parsed(sf_dir).map_batches(prep, batch_format="pyarrow")
    return grouped_count(pre, ["band"], count_name="n_logs")


def _q_spans_links_exploded(sf_dir: str):
    """Span.Links[] nested column end-to-end: every non-root span links to
    its trace's ROOT span (list<struct<trace_id, span_id>> column, one
    trace-bucket exchange), then the SpanLink traversal explodes to flat
    rows."""
    from opentelemetry_collector_ray.sources.spans import (
        explode_span_links, with_span_links)

    return explode_span_links(with_span_links(_spans(sf_dir)))


def _q_spans_events_exploded(sf_dir: str):
    """Span.Events[] nested column end-to-end: error spans get one
    'exception' event (list<struct> column, vectorized construction), then
    the SpanEvent traversal explodes to flat rows."""
    from opentelemetry_collector_ray.sources.spans import (
        explode_span_events, with_span_events)

    return explode_span_events(with_span_events(_spans(sf_dir)))


def _q_spans_busy_periods(sf_dir: str):
    """Per-service busy periods (stages/intervals.py merge_intervals):
    overlapping span intervals coalesced into maximal merged windows —
    gaps-and-islands, ONE hash-bucket exchange, per-key running max via
    a segment-lifted global cummax. Oracle = the classic SQL window
    chain (running MAX(e) OVER preceding rows → break flags → island
    ids → GROUP BY island)."""
    from opentelemetry_collector_ray.stages.intervals import (
        merge_intervals)

    def prep(t: pa.Table) -> pa.Table:
        start_us = pc.cast(pc.cast(t.column("start_ts"),
                                   pa.timestamp("us")), pa.int64())
        return pa.table({
            "service": t.column("service"),
            "start_us": start_us,
            "end_us": pc.add(start_us, t.column("duration_us")),
        })

    pre = _spans(sf_dir).map_batches(prep, batch_format="pyarrow")
    return merge_intervals(pre, "service", "start_us", "end_us",
                           out_start="busy_start_us",
                           out_end="busy_end_us", count_name="n_spans")


def _q_spans_concurrency(sf_dir: str):
    """Sweep-line span concurrency (stages/intervals.py
    concurrency_profile): ±1 boundary deltas range-partition-sorted by
    (service, time, delta) — a key's total delta is zero, so the GLOBAL
    prefix sum IS the per-key running concurrency with no base
    correction. Oracle = UNION ALL deltas + SUM OVER the same order."""
    from opentelemetry_collector_ray.stages.intervals import (
        concurrency_profile)

    def make():
        def prep(t: pa.Table) -> pa.Table:
            start_us = pc.cast(pc.cast(t.column("start_ts"),
                                       pa.timestamp("us")), pa.int64())
            return pa.table({
                "service": t.column("service"),
                "start_us": start_us,
                "end_us": pc.add(start_us, t.column("duration_us"))})

        return _spans(sf_dir).map_batches(prep, batch_format="pyarrow")

    return concurrency_profile(make, "service", "start_us", "end_us")


def _q_events_exp_histogram(sf_dir: str):
    """Base-2 exponential histogram of integer cents per event type
    (pmetric ExponentialHistogram analog; null idx = OTel zero bucket)."""
    from opentelemetry_collector_ray.stages.metricsops import exp_histogram

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    pre = _read(sf_dir, "events", ["event_type", "value"]).map_batches(
        prep, batch_format="pyarrow")
    return exp_histogram(pre, keys=["event_type"], value_col="cents", scale=0)


def _q_events_exp_histogram_signed(sf_dir: str):
    """Signed exponential histogram (separate negative bucket list + zero
    count, per the reference's ExponentialHistogramDataPoint): centered
    cents so all three signs occur."""
    from opentelemetry_collector_ray.stages.metricsops import exp_histogram

    def prep(t: pa.Table) -> pa.Table:
        centered = pc.subtract(_cents(t.column("value")),
                               pa.scalar(5000, pa.int64()))
        return pa.table({"event_type": t.column("event_type"),
                         "centered": centered})

    pre = _read(sf_dir, "events", ["event_type", "value"]).map_batches(
        prep, batch_format="pyarrow")
    return exp_histogram(pre, keys=["event_type"], value_col="centered",
                         scale=0, signed=True)


def _q_events_gauge_last(sf_dir: str):
    """Gauge last-value-wins per user (pmetric Gauge analog): the value at
    the max (ts, event_id), integerized to cents."""
    from opentelemetry_collector_ray.stages.metricsops import gauge_last

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "ts": t.column("ts"),
                         "event_id": t.column("event_id"),
                         "cents": _cents(t.column("value"))})

    pre = _read_co(sf_dir, "events",
                   ["user_id", "ts", "event_id", "value"],
                   floor=8).map_batches(
        prep, batch_format="pyarrow")
    return gauge_last(pre, key="user_id", order_cols=["ts", "event_id"],
                      value_col="cents", out_col="last_cents")


# -------------------------------------------------------- embeddings family

def _query_vec(sf_dir: str) -> np.ndarray:
    t = _side_table(sf_dir, "embeddings")
    idx = pc.index(t.column("vec_id"), pa.scalar(0)).as_py()
    return np.asarray(t.column("embedding")[idx].as_py(), dtype=np.float64)


def _q_emb_knn(sf_dir: str):
    from opentelemetry_collector_ray.stages.similarity import knn_topk

    return knn_topk(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                    _query_vec(sf_dir), k=20)


def _q_users_distinct(sf_dir: str):
    from opentelemetry_collector_ray.stages.aggregate import count_distinct

    return count_distinct(_read(sf_dir, "events", ["user_id"]), ["user_id"],
                          out_name="n_users")


def _q_users_distinct_approx(sf_dir: str):
    """HLL sketch estimate of distinct users (rows-only: approximate by
    design; accuracy envelope asserted in tests/test_sketch.py)."""
    import pandas as pd

    from opentelemetry_collector_ray.stages.sketch import approx_distinct

    est = approx_distinct(_read(sf_dir, "events", ["user_id"]), "user_id", p=12)
    return pd.DataFrame({"n_users_approx": [float(est)]})


def _q_orders_quantiles_sketch(sf_dir: str):
    """KLL mergeable quantile sketch over order prices (pmetric Summary
    analog for unbounded domains; rows-only — approximate by design,
    accuracy envelope in tests/test_sketch.py). The exact counterpart is
    spans_duration_quantiles."""
    import pandas as pd

    from opentelemetry_collector_ray.stages.sketch import approx_quantiles

    qs = approx_quantiles(_read(sf_dir, "orders", ["o_totalprice"]),
                          "o_totalprice")
    return pd.DataFrame({k: [v] for k, v in qs.items()})


def _q_events_user_quantiles_sketch(sf_dir: str):
    """Per-USER value quantiles via distributed per-key KLL sketches —
    unbounded keys AND unbounded value domain, the composition the exact
    path can't cover (rows-only: approximate by design; per-key accuracy
    envelope asserted in tests/test_sketch.py)."""
    from opentelemetry_collector_ray.stages.sketch import (
        grouped_approx_quantiles)

    ev = _read(sf_dir, "events", ["user_id", "value"])
    return grouped_approx_quantiles(ev, "user_id", "value",
                                    qs=(0.5, 0.95, 0.99))


def _q_emb_centroids(sf_dir: str):
    """Element-wise mean embedding per label (two-phase vector-sum tree
    reduce), exploded to (label, i, c_e6) rows for the SQL mirror."""
    import numpy as np

    from opentelemetry_collector_ray.stages.aggregate import vector_mean_by

    cent = vector_mean_by(_read(sf_dir, "embeddings", ["label", "embedding"]),
                          key="label").to_pandas()
    rows = {"label": [], "i": [], "c_e6": []}
    for _, r in cent.iterrows():
        v = np.asarray(r["centroid"], dtype=np.float64)
        rows["label"].extend([r["label"]] * len(v))
        rows["i"].extend(range(1, len(v) + 1))  # 1-based like generate_subscripts
        rows["c_e6"].extend(np.floor(v * 1_000_000 + 0.5).astype(np.int64))
    import pandas as pd

    return pd.DataFrame({"label": pd.array(rows["label"], dtype="int32"),
                         "i": pd.array(rows["i"], dtype="int64"),
                         "c_e6": pd.array(rows["c_e6"], dtype="int64")})


def _q_docs_ngram_jaccard(sf_dir: str):
    from opentelemetry_collector_ray.stages.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_read_co(sf_dir, "documents", ["doc_id", "text"], floor=8),
                               threshold=0.3)


def _q_emb_ann_lsh(sf_dir: str):
    """ANN on the PERSISTED LSH index: build once per corpus (cached under
    /tmp), then batch-query 4 vectors reading only probed bucket
    partitions (rows-only: approximate by design; recall + scan fraction
    asserted in tests)."""
    import hashlib

    from opentelemetry_collector_ray.stages.similarity import (
        ann_query_index, build_ann_index)

    src = f"{sf_dir}/embeddings.parquet"
    tag = hashlib.sha256(
        f"{src}:{os.path.getmtime(src)}:b6s42".encode()).hexdigest()[:12]
    index_dir = f"/tmp/ann_index/{tag}"
    if not os.path.exists(f"{index_dir}/_ann_meta.json"):
        build_ann_index(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                        index_dir, n_bits=6)
    t = _side_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    queries = np.array([t.column("embedding")[i].as_py() for i in range(4)],
                       dtype=np.float64)
    return ann_query_index(index_dir, queries, k=10, multiprobe=1)


# ----------------------------------------------------------- profiles family

def _profile_frames(sf_dir: str):
    from opentelemetry_collector_ray.sources.profiles import (
        derive_profile_frames)

    return derive_profile_frames(
        _read(sf_dir, "events", ["event_id", "event_type", "value"]))


def _q_profiles_functions(sf_dir: str):
    """pprofile dictionary build: the function string table (distinct
    frame names, densely numbered)."""
    from opentelemetry_collector_ray.sources.profiles import (
        build_function_table)

    return build_function_table(_profile_frames(sf_dir))


def _q_profiles_samples(sf_dir: str):
    """Dictionary-ENCODED samples: stacks stored as function-table indices
    (broadcast-dict actor encode — the pprofile reference step)."""
    from opentelemetry_collector_ray.sources.profiles import (
        build_function_table, encode_samples)

    frames = _profile_frames(sf_dir)
    ftab = build_function_table(frames)
    return encode_samples(frames, ftab)


def _q_profiles_top_functions(sf_dir: str):
    from opentelemetry_collector_ray.sources.profiles import top_functions

    return top_functions(_profile_frames(sf_dir))


def _q_profiles_flame_edges(sf_dir: str):
    from opentelemetry_collector_ray.sources.profiles import flame_edges

    return flame_edges(_profile_frames(sf_dir))


def _q_profiles_wire_top_functions(sf_dir: str):
    """Profiles WIRE-CODEC path, oracle-checked: frames → dictionary-
    encoded ProfilesData blob (sources/otlp_profiles.py) → decode → per-
    function rollup from the decoded form. Must equal the analytic
    profiles_top_functions — same oracle SQL checks both."""
    from opentelemetry_collector_ray.sources.otlp_profiles import (
        decode_profiles_request, decoded_top_functions,
        encode_profiles_request)
    from opentelemetry_collector_ray.sources.profiles import (
        build_function_table, encode_samples)
    from opentelemetry_collector_ray.stages.treereduce import collect

    frames = _profile_frames(sf_dir)
    ftab = build_function_table(frames)
    samples = pa.concat_tables(collect(encode_samples(frames, ftab)))
    blob = encode_profiles_request(ftab, samples)
    return decoded_top_functions(decode_profiles_request(blob))


def _q_emb_kmeans(sf_dir: str):
    """Full-corpus distributed spherical k-means (per-iteration partial
    sums, k-row driver state) + broadcast assignment pass → per-cluster
    member counts (rows-only: float iteration order is block-dependent;
    blob-recovery ground truth in tests)."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.clustering import (
        kmeans_assign, kmeans_fit)

    make = lambda: _read_co(sf_dir, "embeddings", ["vec_id", "embedding"],
                            floor=8)  # noqa: E731
    cent = kmeans_fit(make, k=8, iters=3, sample_size=4096)
    return grouped_count(kmeans_assign(make(), cent), ["cluster"],
                         count_name="count()")


def _q_emb_semdedup(sf_dir: str):
    """SemDeDup (k-means blocking + intra-cluster exact cosine verify)
    near-dup clusters over the embeddings table (rows-only —
    planted-pair ground truth in tests)."""
    from opentelemetry_collector_ray.stages.clustering import semantic_dedup

    return semantic_dedup(
        lambda: _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        k=8, threshold=0.98, iters=3)


def _q_emb_pca(sf_dir: str):
    """Distributed PCA (one pass of (n, Σx, Σxxᵀ) partials tree-reduced
    to d² driver floats + broadcast projection): embeddings reduced to
    8 dims (rows-only: float eigendecomposition; variance-recovery and
    numpy-parity ground truth in tests)."""
    from opentelemetry_collector_ray.stages.clustering import (
        pca_fit, pca_transform)

    make = lambda: _read_co(sf_dir, "embeddings", ["vec_id", "embedding"],
                            floor=8)  # noqa: E731
    mean, comp = pca_fit(make, n_components=8)
    return pca_transform(make(), mean, comp).map_batches(
        lambda t: t.drop_columns(["embedding"]), batch_format="pyarrow")


def _q_emb_ann_ivf(sf_dir: str):
    """ANN on the persisted IVF index (k-means coarse quantizer,
    centroid-partitioned; rows-only — approximate by design, recall + scan
    fraction asserted in tests)."""
    import hashlib

    from opentelemetry_collector_ray.stages.similarity import (
        ann_query_index, build_ivf_index)

    src = f"{sf_dir}/embeddings.parquet"
    tag = hashlib.sha256(
        f"{src}:{os.path.getmtime(src)}:ivf32".encode()).hexdigest()[:12]
    index_dir = f"/tmp/ann_index/{tag}"
    if not os.path.exists(f"{index_dir}/_ann_meta.json"):
        build_ivf_index(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                        index_dir, n_centroids=32, sample_size=8192)
    t = _side_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    queries = np.array([t.column("embedding")[i].as_py() for i in range(4)],
                       dtype=np.float64)
    return ann_query_index(index_dir, queries, k=10, multiprobe=2)


def _q_emb_ann_ivfpq(sf_dir: str):
    """ANN on the persisted IVF-PQ index (coarse quantizer + product-
    quantized residuals — m_sub BYTES per vector on disk, ADC scoring;
    rows-only — approximate by design, recall + compression asserted in
    tests)."""
    import hashlib

    from opentelemetry_collector_ray.stages.similarity import (
        ann_query_index, build_ivfpq_index)

    src = f"{sf_dir}/embeddings.parquet"
    tag = hashlib.sha256(
        f"{src}:{os.path.getmtime(src)}:ivfpq16".encode()).hexdigest()[:12]
    index_dir = f"/tmp/ann_index/{tag}"
    if not os.path.exists(f"{index_dir}/_ann_meta.json"):
        build_ivfpq_index(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                          index_dir, n_centroids=16, m_sub=8)
    t = _side_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    queries = np.array([t.column("embedding")[i].as_py() for i in range(4)],
                       dtype=np.float64)
    return ann_query_index(index_dir, queries, k=10, multiprobe=4)


def _q_customers_fuzzy_match(sf_dir: str):
    """Fuzzy-lookup join (stages/fuzzy.py): every customer name with its
    last two id digits corrupted ('xy') is matched against the canonical
    dictionary (every 50th customer) by vectorized byte-level
    Levenshtein — the entity-resolution primitive. Broadcast dictionary,
    one numpy DP per candidate per batch, min-distance with lexical
    tie-break, nulls past max_dist; the oracle mirrors with DuckDB's
    levenshtein() + ROW_NUMBER."""
    from opentelemetry_collector_ray.stages.fuzzy import fuzzy_lookup

    side = _side_table(sf_dir, "customer", ["c_custkey", "c_name"])
    keys = side.column("c_custkey").to_numpy()
    cands = side.column("c_name").combine_chunks().filter(
        pa.array(keys % 50 == 0))

    def probe(t: pa.Table) -> pa.Table:
        p = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(t.column("c_name"), 0, 16), "xy", "")
        return pa.table({"c_custkey": t.column("c_custkey"), "probe": p})

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        probe, batch_format="pyarrow")
    return fuzzy_lookup(ds, cands, "probe", max_dist=3).select_columns(
        ["c_custkey", "fuzzy_match", "fuzzy_dist"])


def _q_events_user_topp(sf_dir: str):
    """Per-key top-p (nucleus) selection (stages/mixing.py
    select_top_share_by): per user, keep the value-heaviest events until
    the running total crosses 3/4 of the user's total — exact integer
    prefix-mass semantics on the cents lane, one hash-bucket exchange,
    numpy segment kernels inside. Oracle = SQL window running sum with
    ROWS UNBOUNDED PRECEDING AND 1 PRECEDING."""
    from opentelemetry_collector_ray.stages.mixing import (
        select_top_share_by)

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t.column("event_id"),
                         "user_id": t.column("user_id"),
                         "cents": _cents(t.column("value"))})

    ds = _read_co(sf_dir, "events", ["event_id", "user_id", "value"],
                  floor=8).map_batches(cents, batch_format="pyarrow")
    return select_top_share_by(ds, "user_id", "cents", "event_id",
                               share_num=3, share_den=4)


def _q_docs_vocab_growth(sf_dir: str):
    """Vocabulary-growth curve (stages/corpusstats.py vocab_growth):
    new-BIGRAM births per 50-doc slice of the corpus in doc_id order —
    the Heaps'-law saturation diagnostic (bigrams: the unigram
    vocabulary here is tiny and saturates in the first slice). Per-term
    min rides the shuffle-partial aggregate (unbounded terms), the
    curve is a bounded tree roll-up; oracle = exploded GROUP BY term
    min(doc_id)."""
    from opentelemetry_collector_ray.stages.corpusstats import (
        vocab_growth)

    return vocab_growth(_read_co(sf_dir, "documents",
                                 ["doc_id", "text"], floor=8),
                        bucket_size=50, ngram=2)


_EVAL_TERMS = ("window", "join", "hash", "scan")


def _q_docs_retrieval_eval(sf_dir: str):
    """Retrieval-eval harness (stages/ranking.py eval_ranking): rank
    docs per query term by exact term count (per-key window
    row_number), judge docs with >= 3 occurrences relevant, then score
    the ranking — per query reciprocal rank (scale//rank, exact), hits
    and relevant totals. One semi-join + per-query partial aggregates;
    oracle recomputes the whole chain in SQL."""
    from opentelemetry_collector_ray.stages.corpusstats import (
        _tokens_with_rows)
    from opentelemetry_collector_ray.stages.ranking import eval_ranking
    from opentelemetry_collector_ray.stages.window import per_key_window

    terms = pa.array(_EVAL_TERMS)

    def counts(t: pa.Table) -> pa.Table:
        flat, rows = _tokens_with_rows(t.column("text"))
        ti = pc.index_in(flat, terms)
        valid = pc.is_valid(ti).to_numpy(zero_copy_only=False)
        tidx = ti.to_numpy(zero_copy_only=False)[valid].astype(np.int64)
        ridx = rows[valid]
        mat = np.zeros((len(t), len(_EVAL_TERMS)), np.int64)
        np.add.at(mat, (ridx, tidx), 1)
        r, c = np.nonzero(mat)
        ids = t.column("doc_id").combine_chunks().to_numpy(
            zero_copy_only=False)
        return pa.table({
            "query": pc.take(terms, pa.array(c, pa.int64())),
            "doc_id": pa.array(ids[r], pa.int64()),
            "cnt": pa.array(mat[r, c], pa.int64()),
            "neg_cnt": pa.array(-mat[r, c], pa.int64())})

    cnt = _read_co(sf_dir, "documents", ["doc_id", "text"],
                   floor=8).map_batches(counts, batch_format="pyarrow")
    ranked = per_key_window(cnt, "query", ["neg_cnt", "doc_id"],
                            {"_rn": ("row_number",)})
    results = ranked.map_batches(
        lambda t: pa.table({"query": t.column("query"),
                            "doc_id": t.column("doc_id"),
                            "rank": pc.add(t.column("_rn"), 1)}),
        batch_format="pyarrow")
    qrels = cnt.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("cnt"), 3)).select(
            ["query", "doc_id"]),
        batch_format="pyarrow")
    return eval_ranking(results, qrels, k=10)


def _q_events_k_anon(sf_dir: str):
    """k-anonymity + l-diversity release filter (stages/privacy.py):
    rows survive only when >= 5 rows share their (event_type,
    value-band) quasi-tuple AND those rows span >= 2 distinct users.
    Shuffle-partial group sizes, exact two-phase distinct counts, then
    the bounded-domain BROADCAST verdict (count-guarded pull + one
    Arrow left-semi per batch — raw rows never shuffle); oracle = SQL
    window COUNT(*) / COUNT(DISTINCT) OVER (PARTITION BY quasi)."""
    from opentelemetry_collector_ray.stages.privacy import k_anonymize

    def prep(t: pa.Table) -> pa.Table:
        band = pc.divide(_cents(t.column("value")),
                         pa.scalar(2000, pa.int64()))
        return pa.table({"event_id": t.column("event_id"),
                         "user_id": t.column("user_id"),
                         "event_type": t.column("event_type"),
                         "band": band})

    ds = _read_co(sf_dir, "events",
                  ["event_id", "user_id", "event_type", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    anon = k_anonymize(ds, ["event_type", "band"], 5,
                       sensitive_col="user_id", l=2, mode="broadcast")
    return anon.select_columns(["event_id", "event_type", "band"])


def _q_events_hopping(sf_dir: str):
    """Hopping-window rollup (stages/resample.py::hopping_window_agg):
    1-hour windows sliding every 15 minutes, per event_type — each
    event contributes to exactly 4 windows; the skinny 4-way expansion
    fuses with the grouped partial so only partial rows exchange.
    Oracle = CROSS JOIN range(4) window expansion + GROUP BY."""
    from opentelemetry_collector_ray.stages.resample import (
        hopping_window_agg)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"ts": t.column("ts"),
                         "event_type": t.column("event_type"),
                         "value_cents": _cents(t.column("value"))})

    ds = _read_co(sf_dir, "events", ["ts", "event_type", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return hopping_window_agg(
        ds, "ts", size_us=3_600_000_000, slide_us=900_000_000,
        keys=["event_type"], count_name="n_events",
        sum_cols={"value_cents": "value_cents"})


def _q_docs_source_budget(sf_dir: str):
    """Per-source token-budget quota (stages/mixing.py::
    select_budget_by): every source keeps its largest docs (n_chars
    DESC, doc_id ASC) while the inclusive running n_chars stays within
    4000 — the "domain quota" curation cap. One bucket exchange on
    source, segment cumsum inside. Oracle = SQL running-sum window."""
    from opentelemetry_collector_ray.stages.mixing import select_budget_by

    ds = _read_co(sf_dir, "documents",
                  ["doc_id", "source", "n_chars"], floor=8)
    return select_budget_by(ds, "source", "n_chars", "doc_id",
                            budget=4000)


def _q_events_dp_counts(sf_dir: str):
    """ε-DP event-type count release (stages/privacy.py::
    dp_count_release): exact two-phase counts + seeded deterministic
    Laplace(1/ε) noise, rounded, small groups suppressed. Rows-only by
    design (the noise is the point — no SQL mirror); determinism and
    noise-scale are pytest-verified (tests/test_privacy.py)."""
    from opentelemetry_collector_ray.stages.privacy import dp_count_release

    ds = _read_co(sf_dir, "events", ["event_type"], floor=8)
    return dp_count_release(ds, ["event_type"], epsilon=0.5, seed=2024,
                            count_name="n_released", suppress_below=5)


def _q_tpch_q4(sf_dir: str):
    """TPC-H Q4 shape (order-priority checking, adapted to this schema:
    late shipment = any line shipped > 90 days after the order date):
    date-filtered orders shuffle-joined to lineitem, residual predicate
    post-join, DISTINCT via a grouped partial, bounded priority
    roll-up."""
    import datetime

    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_count)
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    lo = pa.scalar(datetime.datetime(1996, 7, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1997, 7, 1), pa.timestamp("us"))
    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_orderdate", "o_orderpriority"]
                      ).map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t.column("o_orderdate"), lo),
            pc.less(t.column("o_orderdate"), hi))),
        batch_format="pyarrow")
    li = _read_co(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    j = shuffle_hash_join(li, orders, key="l_orderkey",
                          right_key="o_orderkey", how="inner")

    def late(t: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(t.column("l_shipdate"),
                               pa.timestamp("us")), pa.int64())
        od = pc.cast(pc.cast(t.column("o_orderdate"),
                             pa.timestamp("us")), pa.int64())
        keep = pc.greater(pc.subtract(ship, od),
                          90 * 86400 * 1_000_000)
        return t.filter(keep).select(["l_orderkey", "o_orderpriority"])

    dedup = grouped_agg(j.map_batches(late, batch_format="pyarrow"),
                        ["l_orderkey", "o_orderpriority"],
                        count_name="_n")
    return grouped_count(dedup, ["o_orderpriority"],
                         count_name="order_count")


def _q_tpch_q6(sf_dir: str):
    """TPC-H Q6 shape (forecast-revenue change): pure pushed-down
    filter + one global integer sum — the read-prune benchmark (3 of 11
    columns leave storage). Per-row cents floor matches the oracle
    exactly."""
    import datetime

    lo = pa.scalar(datetime.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1997, 1, 1), pa.timestamp("us"))

    def f(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.greater_equal(t.column("l_shipdate"), lo),
                    pc.less(t.column("l_shipdate"), hi)),
            pc.and_(
                pc.and_(pc.greater_equal(t.column("l_discount"), 0.05),
                        pc.less_equal(t.column("l_discount"), 0.07)),
                pc.less(t.column("l_quantity"), 24.0)))
        t = t.filter(keep)
        rev = pc.multiply(t.column("l_extendedprice"),
                          t.column("l_discount"))
        return pa.table({"revenue_cents": _cents(rev)})

    ds = _read_co(sf_dir, "lineitem",
                  ["l_shipdate", "l_discount", "l_quantity",
                   "l_extendedprice"], floor=8).map_batches(
        f, batch_format="pyarrow")
    total = ds.sum("revenue_cents") or 0
    return pa.table({"revenue_cents": pa.array([int(total)], pa.int64())})


def _q_tpch_q14(sf_dir: str):
    """TPC-H Q14 shape (promotion effect): month-filtered lineitem with
    the tiny part table broadcast in, conditional revenue split into
    exact integer numerator/denominator (promo vs total cents) — the
    float ratio never crosses the hash gate."""
    import datetime

    from opentelemetry_collector_ray.stages.join import broadcast_join

    lo = pa.scalar(datetime.datetime(1996, 9, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1996, 12, 1), pa.timestamp("us"))
    part = _side_table(sf_dir, "part", ["p_partkey", "p_type"])
    li = _read_co(sf_dir, "lineitem",
                  ["l_partkey", "l_shipdate", "l_extendedprice",
                   "l_discount"], floor=8).map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t.column("l_shipdate"), lo),
            pc.less(t.column("l_shipdate"), hi))),
        batch_format="pyarrow")
    j = broadcast_join(li, part, key="l_partkey", right_key="p_partkey")

    def split(t: pa.Table) -> pa.Table:
        cents = _cents(pc.multiply(
            t.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), t.column("l_discount"))))
        promo = pc.if_else(pc.equal(t.column("p_type"), "PROMO"),
                           cents, pa.scalar(0, pa.int64()))
        return pa.table({"promo_cents": promo, "total_cents": cents})

    agg = j.map_batches(split, batch_format="pyarrow")
    promo = agg.sum("promo_cents") or 0
    total = agg.sum("total_cents") or 0
    return pa.table({"promo_cents": pa.array([int(promo)], pa.int64()),
                     "total_cents": pa.array([int(total)], pa.int64())})


def _q_spans_overlap_pairs(sf_dir: str):
    """Per-service overlapping-span-pair count (stages/intervals.py::
    overlap_pair_count): SQL's quadratic self-join contention metric in
    O(n log n) — one bucket exchange of skinny rows, two global
    searchsorteds over the segment-lifted composite. Oracle = the
    literal self-join, halved."""
    from opentelemetry_collector_ray.stages.intervals import (
        overlap_pair_count)

    def prep(t: pa.Table) -> pa.Table:
        start_us = pc.cast(pc.cast(t.column("start_ts"),
                                   pa.timestamp("us")), pa.int64())
        return pa.table({
            "service": t.column("service"),
            "start_us": start_us,
            "end_us": pc.add(start_us, pc.max_element_wise(
                t.column("duration_us"), pa.scalar(1, pa.int64()))),
        })

    pre = _spans(sf_dir).map_batches(prep, batch_format="pyarrow")
    return overlap_pair_count(pre, "service", "start_us", "end_us")


def _q_events_hopping_dau(sf_dir: str):
    """Trailing-hour active users every 15 minutes — the rolling-DAU
    composition: the hopping-window 4-way expansion feeds the exact
    two-phase COUNT DISTINCT per window (stages/resample.py +
    aggregate.grouped_count_distinct). Oracle = the same CROSS JOIN
    range(4) expansion + count(DISTINCT user_id)."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count_distinct)

    SLIDE = 900_000_000

    def expand(t: pa.Table) -> pa.Table:
        ts = t.column("ts").cast(pa.timestamp("us")).cast(pa.int64()
                                                          ).to_numpy()
        w0 = (ts // SLIDE) * SLIDE
        uid = t.column("user_id")
        parts = [pa.table({
            "window_start": pa.array(w0 - i * SLIDE).cast(
                pa.timestamp("us")),
            "user_id": uid}) for i in range(4)]
        return pa.concat_tables(parts)

    ds = _read_co(sf_dir, "events", ["ts", "user_id"],
                  floor=8).map_batches(expand, batch_format="pyarrow")
    return grouped_count_distinct(ds, ["window_start"], "user_id",
                                  out_name="active_users")


def _q_docs_source_gini(sf_dir: str):
    """Per-source Gini concentration of document mass (stages/
    corpusstats.py::grouped_gini, exact integer parts): gini =
    gini_num / (n·total) with gini_num = Σ(2i−n−1)·x over the ascending
    sort — permutation-invariant under ties, so the row_number oracle
    is deterministic without a tiebreak. One bucket exchange."""
    from opentelemetry_collector_ray.stages.corpusstats import grouped_gini

    ds = _read_co(sf_dir, "documents", ["source", "n_chars"], floor=8)
    return grouped_gini(ds, "source", "n_chars")


def _q_events_user_growth(sf_dir: str):
    """Growth accounting — new vs cumulative users per day: per-user
    first-seen timestamps (shuffle partials, unbounded users) roll up
    to bounded daily new-user counts (tree), then the existing
    delta→cumulative stage turns them into the running total. Day
    crosses the gate as an ISO string (arrow date vs DuckDB DATE render
    differently in pandas)."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_count)
    from opentelemetry_collector_ray.stages.temporal import (
        delta_to_cumulative)

    ev = _read_co(sf_dir, "events", ["user_id", "ts"], floor=8)
    first = grouped_agg(ev, ["user_id"], min_cols={"_first": "ts"})

    def to_day(t: pa.Table) -> pa.Table:
        day = pc.strftime(pc.floor_temporal(
            t.column("_first").cast(pa.timestamp("us")), unit="day"),
            format="%Y-%m-%d")
        return pa.table({"day": day})

    daily = grouped_count(first.map_batches(to_day,
                                            batch_format="pyarrow"),
                          ["day"], count_name="new_users").map_batches(
        lambda t: t.append_column("_k", pa.nulls(len(t), pa.int64()
                                                 ).fill_null(0)),
        batch_format="pyarrow")
    return delta_to_cumulative(daily, key="_k", order_col="day",
                               value_col="new_users",
                               out_col="cum_users").map_batches(
        lambda t: t.select(["day", "new_users", "cum_users"]),
        batch_format="pyarrow")


def _q_tpch_q12(sf_dir: str):
    """TPC-H Q12 shape (shipping-priority line counts, adapted: no
    l_shipmode column, so the bounded roll-up key is l_linestatus):
    1996-shipped lineitems shuffle-joined to orders, priority classified
    into high (1-URGENT/2-HIGH) vs low, one tree roll-up."""
    import datetime

    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    lo = pa.scalar(datetime.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1997, 1, 1), pa.timestamp("us"))
    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_linestatus", "l_shipdate"],
                  floor=8).map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t.column("l_shipdate"), lo),
            pc.less(t.column("l_shipdate"), hi)))
        .select(["l_orderkey", "l_linestatus"]), batch_format="pyarrow")
    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_orderpriority"], floor=8)
    j = shuffle_hash_join(li, orders, key="l_orderkey",
                          right_key="o_orderkey", how="inner")

    def classify(t: pa.Table) -> pa.Table:
        high = pc.cast(pc.is_in(
            t.column("o_orderpriority"),
            value_set=pa.array(["1-URGENT", "2-HIGH"])), pa.int64())
        return pa.table({"l_linestatus": t.column("l_linestatus"),
                         "high": high,
                         "low": pc.subtract(pa.scalar(1, pa.int64()),
                                            high)})

    return grouped_agg(j.map_batches(classify, batch_format="pyarrow"),
                       ["l_linestatus"],
                       sum_cols={"high_line_count": "high",
                                 "low_line_count": "low"})


def _q_tpch_q13(sf_dir: str):
    """TPC-H Q13 shape (customer order-count distribution): per-customer
    counts of non-urgent orders (shuffle partials, unbounded custkey),
    LEFT-joined back to customer so zero-order customers count, then the
    bounded count-of-counts tree roll-up."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count, grouped_agg)
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    orders = _read_co(sf_dir, "orders",
                      ["o_custkey", "o_orderpriority"],
                      floor=8).map_batches(
        lambda t: t.filter(pc.not_equal(t.column("o_orderpriority"),
                                        "1-URGENT"))
        .select(["o_custkey"]), batch_format="pyarrow")
    per_cust = grouped_count(orders, ["o_custkey"],
                             count_name="_n")
    cust = _read_co(sf_dir, "customer", ["c_custkey"], floor=4)
    j = shuffle_hash_join(cust, per_cust, key="c_custkey",
                          right_key="o_custkey", how="left")

    def fill(t: pa.Table) -> pa.Table:
        return pa.table({"c_count": pc.coalesce(
            t.column("_n"), pa.scalar(0, pa.int64()))})

    return grouped_agg(j.map_batches(fill, batch_format="pyarrow"),
                       ["c_count"], count_name="custdist")


def _q_tpch_q16(sf_dir: str):
    """TPC-H Q16 shape (supplier count by part attributes): lineitem's
    (partkey, suppkey) pairs broadcast-joined to the filtered part
    attributes, suppliers with negative balance ANTI-joined out (the
    "complaints" exclusion), then the exact two-phase COUNT DISTINCT
    per bounded (brand, type, size) triple."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count_distinct)
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    part = _side_table(sf_dir, "part",
                       ["p_partkey", "p_brand", "p_type", "p_size"])
    part = part.filter(pc.and_(
        pc.not_equal(part.column("p_brand"), "Brand#5"),
        pc.and_(pc.not_equal(part.column("p_type"), "PROMO"),
                pc.less_equal(part.column("p_size"), 25))))
    li = _read_co(sf_dir, "lineitem", ["l_partkey", "l_suppkey"],
                  floor=8)
    j = broadcast_join(li, part, key="l_partkey", right_key="p_partkey")
    bad = _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"]
                ).map_batches(
        lambda t: t.filter(pc.less(t.column("s_acctbal"), 0.0))
        .select(["s_suppkey"]), batch_format="pyarrow")
    ok = shuffle_hash_join(j, bad, key="l_suppkey",
                           right_key="s_suppkey", how="anti")
    return grouped_count_distinct(ok, ["p_brand", "p_type", "p_size"],
                                  "l_suppkey", out_name="supplier_cnt")


def _q_tpch_q17(sf_dir: str):
    """TPC-H Q17 shape (small-quantity-order revenue for one brand
    slice): the brand slice of lineitem is materialized ONCE (broadcast
    join against the filtered part keys), per-part (n, Σqty) partials
    shuffle-joined back, and the keep rule is the EXACT integer cross
    multiplication 5·n·qty < Σqty (qty < 0.2·avg with no float
    division — mirrored verbatim in the oracle). Returns one row:
    total kept revenue cents + kept line count."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    part = _side_table(sf_dir, "part", ["p_partkey", "p_brand"])
    part = part.filter(pc.equal(part.column("p_brand"),
                                "Brand#3")).select(["p_partkey"])
    li = _read_co(sf_dir, "lineitem",
                  ["l_partkey", "l_quantity", "l_extendedprice"],
                  floor=8).map_batches(
        lambda t: pa.table({
            "l_partkey": t.column("l_partkey"),
            "qty_c": _cents(t.column("l_quantity")),
            "price_c": _cents(t.column("l_extendedprice"))}),
        batch_format="pyarrow")
    sliced = broadcast_join(li, part, key="l_partkey",
                            right_key="p_partkey").materialize()
    stats = grouped_count(sliced.select_columns(["l_partkey", "qty_c"]),
                          ["l_partkey"], count_name="_n",
                          sum_cols={"_sum_qty": "qty_c"})
    j = shuffle_hash_join(sliced, stats, key="l_partkey", how="inner")

    def keep(t: pa.Table) -> pa.Table:
        lhs = pc.multiply(pc.multiply(t.column("qty_c"),
                                      pa.scalar(5, pa.int64())),
                          t.column("_n"))
        t = t.filter(pc.less(lhs, t.column("_sum_qty")))
        return pa.table({"price_c": t.column("price_c")})

    kept = j.map_batches(keep, batch_format="pyarrow").materialize()
    total = kept.sum("price_c") or 0
    n = kept.count()
    return pa.table({"revenue_cents": pa.array([int(total)], pa.int64()),
                     "n_lines": pa.array([int(n)], pa.int64())})


def _q_tpch_q18(sf_dir: str):
    """TPC-H Q18 shape (large-volume orders): per-order quantity sums
    on the BUCKET exchange (unbounded orderkey — one int-bucket
    exchange of skinny raw rows beats sort-groupby partials here:
    ~4 lines/order means partials barely reduce), HAVING-filtered at
    250 units, then orders joins the small survivor side with a BLOOM
    prefilter (built over the survivors, dropping ~99% of orders
    before the exchange — the 100 TB lever). Dates cross the hash gate
    as ISO strings (arrow date/timestamp and DuckDB render differently
    in pandas)."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    li = _read_co(sf_dir, "lineitem", ["l_orderkey", "l_quantity"],
                  floor=8).map_batches(
        lambda t: pa.table({"l_orderkey": t.column("l_orderkey"),
                            "qty_c": _cents(t.column("l_quantity"))}),
        batch_format="pyarrow")
    sums = grouped_count(li, ["l_orderkey"], count_name="_n",
                         sum_cols={"qty_cents": "qty_c"}).map_batches(
        lambda t: t.filter(pc.greater(t.column("qty_cents"), 25000))
        .select(["l_orderkey", "qty_cents"]), batch_format="pyarrow")
    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_orderdate",
                       "o_totalprice"], floor=8)
    j = shuffle_hash_join(orders, sums, key="o_orderkey",
                          right_key="l_orderkey", how="inner",
                          bloom_bits=1 << 22)
    cust = _side_table(sf_dir, "customer", ["c_custkey", "c_name"])
    named = broadcast_join(j, cust, key="o_custkey",
                           right_key="c_custkey")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_name": t.column("c_name"),
            "o_custkey": t.column("o_custkey"),
            "l_orderkey": t.column("o_orderkey"),
            "o_orderdate": pc.strftime(t.column("o_orderdate"),
                                       format="%Y-%m-%d"),
            "totalprice_cents": _cents(t.column("o_totalprice")),
            "qty_cents": t.column("qty_cents")})

    return named.map_batches(finish, batch_format="pyarrow")


def _q_tpch_q22(sf_dir: str):
    """TPC-H Q22 shape (global sales opportunity, nationkey as the
    country code): customers above the positive-balance average with no
    HIGH-PRIORITY orders (the dataset has no order-less customers).
    The average gate is the exact integer cross multiplication
    bal_c · n_pos > Σpos_c (two driver scalars from one scan — never a
    float division), the no-orders gate one ANTI join, then a bounded
    per-nation tree roll-up of count + balance cents."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    cust = _read_co(sf_dir, "customer",
                    ["c_custkey", "c_nationkey", "c_acctbal"],
                    floor=4).map_batches(
        lambda t: pa.table({"c_custkey": t.column("c_custkey"),
                            "c_nationkey": t.column("c_nationkey"),
                            "bal_c": _cents(t.column("c_acctbal"))}),
        batch_format="pyarrow").materialize()
    pos = cust.map_batches(
        lambda t: pa.table({"bal_c": t.filter(
            pc.greater(t.column("bal_c"), 0)).column("bal_c")}),
        batch_format="pyarrow")
    n_pos = pos.count()
    sum_pos = pos.sum("bal_c") or 0
    rich = cust.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(t.column("bal_c"), pa.scalar(int(n_pos),
                                                     pa.int64())),
            pa.scalar(int(sum_pos), pa.int64()))),
        batch_format="pyarrow")
    orders = _read_co(sf_dir, "orders",
                      ["o_custkey", "o_orderpriority"],
                      floor=8).map_batches(
        lambda t: t.filter(pc.is_in(
            t.column("o_orderpriority"),
            value_set=pa.array(["1-URGENT", "2-HIGH"])))
        .select(["o_custkey"]), batch_format="pyarrow")
    no_orders = shuffle_hash_join(rich, orders, key="c_custkey",
                                  right_key="o_custkey", how="anti")
    return grouped_agg(no_orders.select_columns(["c_nationkey",
                                                 "bal_c"]),
                       ["c_nationkey"], count_name="numcust",
                       sum_cols={"totacctbal_cents": "bal_c"})


def _rev_cents(t: pa.Table) -> pa.Array:
    """Exact revenue cents: floor(price·(1−disc)·100 + 0.5) — the shared
    TPC-H idiom, identical expression in every oracle."""
    return _cents(pc.multiply(t.column("l_extendedprice"),
                              pc.subtract(pa.scalar(1.0),
                                          t.column("l_discount"))))


def _nation_region_supp(sf_dir: str, r_name: str) -> pa.Table:
    """Suppliers in one region with nation names attached — a driver-side
    dimension-chain join (region→nation→supplier are the three smallest
    tables; at 100 TB they are still broadcast-sized)."""
    region = _side_table(sf_dir, "region", ["r_regionkey", "r_name"])
    region = region.filter(pc.equal(region.column("r_name"), r_name))
    nation = _side_table(sf_dir, "nation",
                         ["n_nationkey", "n_name", "n_regionkey"])
    nation = nation.filter(pc.is_in(
        nation.column("n_regionkey"),
        value_set=region.column("r_regionkey").combine_chunks()))
    supp = _side_table(sf_dir, "supplier",
                       ["s_suppkey", "s_name", "s_nationkey", "s_acctbal"])
    return supp.join(nation.select(["n_nationkey", "n_name"]),
                     keys=["s_nationkey"], right_keys=["n_nationkey"],
                     join_type="inner")


def _q_tpch_q2(sf_dir: str):
    """TPC-H Q2 shape (minimum-cost supplier — adapted: no partsupp
    table, so the supply relation is the DISTINCT (l_partkey,
    l_suppkey) pairs observed in lineitem and the cost proxy is
    s_acctbal cents). Distinct pairs on the bucket exchange → part
    slice (LARGE, size ≤ 10) and EUROPE suppliers broadcast in →
    per-part min cost (shuffle partials, unbounded parts) → join back
    and keep the argmin rows. Mirrors reference q2's correlated-min
    subquery as one extra skinny exchange."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_count)
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    part = _side_table(sf_dir, "part", ["p_partkey", "p_name",
                                        "p_type", "p_size"])
    part = part.filter(pc.and_(pc.equal(part.column("p_type"), "LARGE"),
                               pc.less_equal(part.column("p_size"), 10))
                       ).select(["p_partkey", "p_name"])
    supp = _nation_region_supp(sf_dir, "EUROPE")
    supp = pa.table({"s_suppkey": supp.column("s_suppkey"),
                     "s_name": supp.column("s_name"),
                     "n_name": supp.column("n_name"),
                     "bal_c": _cents(supp.column("s_acctbal"))})

    li = _read_co(sf_dir, "lineitem", ["l_partkey", "l_suppkey"],
                  floor=8)
    pairs = grouped_count(li, ["l_partkey", "l_suppkey"],
                          count_name="_n")
    pairs = broadcast_join(pairs, part, key="l_partkey",
                           right_key="p_partkey")
    pairs = broadcast_join(pairs, supp, key="l_suppkey",
                           right_key="s_suppkey")
    mins = grouped_agg(pairs.select_columns(["l_partkey", "bal_c"]),
                       ["l_partkey"], min_cols={"_min_c": "bal_c"})
    j = shuffle_hash_join(pairs, mins, key="l_partkey", how="inner")

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("bal_c"), t.column("_min_c")))
        return pa.table({"s_acctbal_cents": t.column("bal_c"),
                         "s_name": t.column("s_name"),
                         "n_name": t.column("n_name"),
                         "p_partkey": t.column("l_partkey"),
                         "p_name": t.column("p_name")})

    return j.map_batches(finish, batch_format="pyarrow")


def _q_tpch_q7(sf_dir: str):
    """TPC-H Q7 shape (volume shipping between two nations): supplier
    nation broadcast into lineitem, customer nation broadcast into
    orders, ONE big-big shuffle join on the order key, the
    directional nation-pair predicate as a residual filter, then a
    bounded (nation, nation, year) tree roll-up of exact revenue
    cents."""
    import datetime

    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    N1, N2 = "NATION_12", "NATION_3"
    lo = pa.scalar(datetime.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1998, 1, 1), pa.timestamp("us"))
    nation = _side_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    nation = nation.filter(pc.is_in(nation.column("n_name"),
                                    value_set=pa.array([N1, N2])))
    supp = _side_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp.join(nation, keys=["s_nationkey"],
                     right_keys=["n_nationkey"], join_type="inner"
                     ).rename_columns(["s_suppkey", "_drop",
                                       "supp_nation"]
                                      ).select(["s_suppkey",
                                                "supp_nation"])
    cust = _side_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust = cust.join(nation, keys=["c_nationkey"],
                     right_keys=["n_nationkey"], join_type="inner"
                     ).rename_columns(["c_custkey", "_drop",
                                       "cust_nation"]
                                      ).select(["c_custkey",
                                                "cust_nation"])

    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_suppkey", "l_shipdate",
                   "l_extendedprice", "l_discount"], floor=8
                  ).map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t.column("l_shipdate"), lo),
            pc.less(t.column("l_shipdate"), hi))),
        batch_format="pyarrow")
    li = broadcast_join(li, supp, key="l_suppkey", right_key="s_suppkey")
    orders = _read_co(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                      floor=8)
    orders = broadcast_join(orders, cust, key="o_custkey",
                            right_key="c_custkey").select_columns(
        ["o_orderkey", "cust_nation"])
    j = shuffle_hash_join(li, orders, key="l_orderkey",
                          right_key="o_orderkey", how="inner")

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.and_(pc.equal(t.column("supp_nation"), N1),
                    pc.equal(t.column("cust_nation"), N2)),
            pc.and_(pc.equal(t.column("supp_nation"), N2),
                    pc.equal(t.column("cust_nation"), N1)))
        t = t.filter(keep)
        return pa.table({"supp_nation": t.column("supp_nation"),
                         "cust_nation": t.column("cust_nation"),
                         "l_year": pc.cast(pc.year(t.column("l_shipdate")),
                                           pa.int64()),
                         "cents": _rev_cents(t)})

    return grouped_agg(j.map_batches(finish, batch_format="pyarrow"),
                       ["supp_nation", "cust_nation", "l_year"],
                       sum_cols={"revenue_cents": "cents"})


def _q_tpch_q8(sf_dir: str):
    """TPC-H Q8 shape (national market share): the float ratio never
    crosses the hash gate — per order-year the numerator (revenue from
    NATION_3 suppliers) and denominator (all revenue) are EXACT integer
    cent sums, split by one if_else. Part slice + supplier nation
    broadcast into lineitem; AMERICA customers broadcast into orders;
    one shuffle join."""
    import datetime

    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    NAT = "NATION_3"
    lo = pa.scalar(datetime.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1998, 1, 1), pa.timestamp("us"))
    part = _side_table(sf_dir, "part", ["p_partkey", "p_type"])
    part = part.filter(pc.equal(part.column("p_type"), "ECONOMY")
                       ).select(["p_partkey"])
    nation = _side_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    nk3 = nation.filter(pc.equal(nation.column("n_name"), NAT)
                        ).column("n_nationkey").combine_chunks()
    supp = _side_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = pa.table({"s_suppkey": supp.column("s_suppkey"),
                     "_is_nat": pc.cast(pc.is_in(supp.column("s_nationkey"),
                                                 value_set=nk3),
                                        pa.int64())})
    region = _side_table(sf_dir, "region", ["r_regionkey", "r_name"])
    region = region.filter(pc.equal(region.column("r_name"), "AMERICA"))
    nat_am = _side_table(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    nat_am = nat_am.filter(pc.is_in(
        nat_am.column("n_regionkey"),
        value_set=region.column("r_regionkey").combine_chunks()))
    customer = _side_table(sf_dir, "customer",
                           ["c_custkey", "c_nationkey"])
    customer = customer.filter(pc.is_in(
        customer.column("c_nationkey"),
        value_set=nat_am.column("n_nationkey").combine_chunks())
    ).select(["c_custkey"])

    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_partkey", "l_suppkey",
                   "l_extendedprice", "l_discount"], floor=8)
    li = broadcast_join(li, part, key="l_partkey", right_key="p_partkey")
    li = broadcast_join(li, supp, key="l_suppkey", right_key="s_suppkey")
    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_orderdate"],
                      floor=8).map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater_equal(t.column("o_orderdate"), lo),
            pc.less(t.column("o_orderdate"), hi))),
        batch_format="pyarrow")
    orders = broadcast_join(orders, customer, key="o_custkey",
                            right_key="c_custkey").select_columns(
        ["o_orderkey", "o_orderdate"])
    j = shuffle_hash_join(li, orders, key="l_orderkey",
                          right_key="o_orderkey", how="inner")

    def split(t: pa.Table) -> pa.Table:
        cents = _rev_cents(t)
        num = pc.if_else(pc.equal(t.column("_is_nat"),
                                  pa.scalar(1, pa.int64())),
                         cents, pa.scalar(0, pa.int64()))
        return pa.table({"o_year": pc.cast(pc.year(t.column("o_orderdate")),
                                           pa.int64()),
                         "num": num, "den": cents})

    return grouped_agg(j.map_batches(split, batch_format="pyarrow"),
                       ["o_year"], sum_cols={"nat_cents": "num",
                                             "total_cents": "den"})


def _q_tpch_q9(sf_dir: str):
    """TPC-H Q9 shape (product-type profit — adapted: no partsupp, so
    supply cost is p_retailprice cents × integral quantity). Per-line
    profit = revenue_cents − retail_cents·qty stays in exact int64;
    bounded (supplier nation, year) tree roll-up. The part slice
    (name LIKE '%widget%') broadcasts as keys+cost, the supplier
    nation as a name column."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    part = _side_table(sf_dir, "part", ["p_partkey", "p_name",
                                        "p_retailprice"])
    part = part.filter(pc.match_substring(part.column("p_name"),
                                          "widget"))
    part = pa.table({"p_partkey": part.column("p_partkey"),
                     "retail_c": _cents(part.column("p_retailprice"))})
    nation = _side_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    supp = _side_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp.join(nation, keys=["s_nationkey"],
                     right_keys=["n_nationkey"], join_type="inner"
                     ).select(["s_suppkey", "n_name"])

    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                   "l_extendedprice", "l_discount"], floor=8)
    li = broadcast_join(li, part, key="l_partkey", right_key="p_partkey")
    li = broadcast_join(li, supp, key="l_suppkey", right_key="s_suppkey")
    orders = _read_co(sf_dir, "orders", ["o_orderkey", "o_orderdate"],
                      floor=8)
    j = shuffle_hash_join(li, orders, key="l_orderkey",
                          right_key="o_orderkey", how="inner")

    def amount(t: pa.Table) -> pa.Table:
        qty = pc.cast(t.column("l_quantity"), pa.int64())
        profit = pc.subtract(_rev_cents(t),
                             pc.multiply(t.column("retail_c"), qty))
        return pa.table({"n_name": t.column("n_name"),
                         "o_year": pc.cast(pc.year(t.column("o_orderdate")),
                                           pa.int64()),
                         "profit": profit})

    return grouped_agg(j.map_batches(amount, batch_format="pyarrow"),
                       ["n_name", "o_year"],
                       sum_cols={"profit_cents": "profit"})


def _q_tpch_q11(sf_dir: str):
    """TPC-H Q11 shape (important stock — adapted: supply value of a
    part is Σ quantity-cents shipped by ASIA suppliers; the HAVING
    fraction is scale-invariant: keep parts whose value exceeds 2× the
    mean part value, decided by the exact integer cross multiplication
    value·n_parts > 2·total). Per-part partials on the shuffle
    exchange (unbounded parts); the two global scalars come from the
    SAME aggregated dataset (one extra pass over the small per-part
    table, never the input)."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import broadcast_join

    supp = _nation_region_supp(sf_dir, "ASIA").select(["s_suppkey"])
    li = _read_co(sf_dir, "lineitem",
                  ["l_partkey", "l_suppkey", "l_quantity"], floor=8
                  ).map_batches(
        lambda t: pa.table({"l_partkey": t.column("l_partkey"),
                            "l_suppkey": t.column("l_suppkey"),
                            "qty_c": _cents(t.column("l_quantity"))}),
        batch_format="pyarrow")
    li = broadcast_join(li, supp, key="l_suppkey", right_key="s_suppkey")
    vals = grouped_agg(li.select_columns(["l_partkey", "qty_c"]),
                       ["l_partkey"],
                       sum_cols={"value_cents": "qty_c"}).materialize()
    total = int(vals.sum("value_cents") or 0)
    n_parts = int(vals.count())
    return vals.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(t.column("value_cents"),
                        pa.scalar(n_parts, pa.int64())),
            pa.scalar(2 * total, pa.int64()))),
        batch_format="pyarrow")


def _q_tpch_q15(sf_dir: str):
    """TPC-H Q15 shape (top supplier by quarterly revenue): per-supplier
    exact cent sums on the shuffle exchange, the max taken from the
    SAME small aggregated dataset (never the input), argmax rows kept
    by integer equality, names broadcast in."""
    import datetime

    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import broadcast_join

    lo = pa.scalar(datetime.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(datetime.datetime(1996, 4, 1), pa.timestamp("us"))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(
            pc.greater_equal(t.column("l_shipdate"), lo),
            pc.less(t.column("l_shipdate"), hi)))
        return pa.table({"l_suppkey": t.column("l_suppkey"),
                         "cents": _rev_cents(t)})

    li = _read_co(sf_dir, "lineitem",
                  ["l_suppkey", "l_shipdate", "l_extendedprice",
                   "l_discount"], floor=8).map_batches(
        prep, batch_format="pyarrow")
    rev = grouped_agg(li, ["l_suppkey"],
                      sum_cols={"total_revenue_cents": "cents"}).materialize()
    best = int(rev.max("total_revenue_cents"))
    top = rev.map_batches(
        lambda t: t.filter(pc.equal(t.column("total_revenue_cents"),
                                    pa.scalar(best, pa.int64()))),
        batch_format="pyarrow")
    supp = _side_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return broadcast_join(top, supp, key="l_suppkey",
                          right_key="s_suppkey").map_batches(
        lambda t: pa.table({"s_suppkey": t.column("l_suppkey"),
                            "s_name": t.column("s_name"),
                            "total_revenue_cents":
                                t.column("total_revenue_cents")}),
        batch_format="pyarrow")


def _q_tpch_q19(sf_dir: str):
    """TPC-H Q19 shape (discounted revenue, disjunctive predicates —
    adapted: no container/shipmode, so the three disjuncts pair brand
    with quantity and size bands): part attributes broadcast into
    lineitem, the OR-of-ANDs evaluated as ONE vectorized boolean
    expression, one global exact cent sum + line count."""
    from opentelemetry_collector_ray.stages.join import broadcast_join

    part = _side_table(sf_dir, "part", ["p_partkey", "p_brand",
                                        "p_size"])
    li = _read_co(sf_dir, "lineitem",
                  ["l_partkey", "l_quantity", "l_extendedprice",
                   "l_discount"], floor=8)
    j = broadcast_join(li, part, key="l_partkey", right_key="p_partkey")

    BANDS = [("Brand#1", 1.0, 11.0, 1, 5),
             ("Brand#2", 10.0, 20.0, 1, 10),
             ("Brand#3", 20.0, 30.0, 1, 15)]

    def keep(t: pa.Table) -> pa.Table:
        cond = None
        for brand, qlo, qhi, slo, shi in BANDS:
            c = pc.and_(
                pc.and_(pc.equal(t.column("p_brand"), brand),
                        pc.and_(pc.greater_equal(t.column("l_quantity"),
                                                 qlo),
                                pc.less_equal(t.column("l_quantity"),
                                              qhi))),
                pc.and_(pc.greater_equal(t.column("p_size"), slo),
                        pc.less_equal(t.column("p_size"), shi)))
            cond = c if cond is None else pc.or_(cond, c)
        t = t.filter(cond)
        return pa.table({"cents": _rev_cents(t)})

    kept = j.map_batches(keep, batch_format="pyarrow").materialize()
    total = int(kept.sum("cents") or 0)
    return pa.table({"revenue_cents": pa.array([total], pa.int64()),
                     "n_lines": pa.array([int(kept.count())],
                                         pa.int64())})


def _q_tpch_q20(sf_dir: str):
    """TPC-H Q20 shape (excess-supply suppliers — adapted: no partsupp
    availqty, so a (part, supplier) pair is "excess" when MORE than
    half its all-time shipped quantity shipped in 1996 alone:
    2·qty96 > total with qty96 > 0, exact cents). Part slice ('bolt')
    broadcast BEFORE the pair aggregate prunes the exchange; one
    bucket roll-up per (part, supplier); distinct survivors; names
    broadcast in."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_count)
    from opentelemetry_collector_ray.stages.join import broadcast_join

    part = _side_table(sf_dir, "part", ["p_partkey", "p_name"])
    part = part.filter(pc.match_substring(part.column("p_name"), "bolt")
                       ).select(["p_partkey"])

    def prep(t: pa.Table) -> pa.Table:
        qty_c = _cents(t.column("l_quantity"))
        y96 = pc.equal(pc.year(t.column("l_shipdate")), 1996)
        return pa.table({
            "l_partkey": t.column("l_partkey"),
            "l_suppkey": t.column("l_suppkey"),
            "qty_c": qty_c,
            "q96_c": pc.if_else(y96, qty_c, pa.scalar(0, pa.int64()))})

    li = _read_co(sf_dir, "lineitem",
                  ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
                  floor=8)
    li = broadcast_join(li, part, key="l_partkey", right_key="p_partkey"
                        ).map_batches(prep, batch_format="pyarrow")
    pairs = grouped_agg(li, ["l_partkey", "l_suppkey"],
                        sum_cols={"total_c": "qty_c", "q96_c": "q96_c"})
    excess = pairs.map_batches(
        lambda t: t.filter(pc.and_(
            pc.greater(t.column("q96_c"), 0),
            pc.greater(pc.multiply(t.column("q96_c"),
                                   pa.scalar(2, pa.int64())),
                       t.column("total_c"))))
        .select(["l_suppkey"]), batch_format="pyarrow")
    supps = grouped_count(excess, ["l_suppkey"], count_name="_n")
    names = _side_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return broadcast_join(supps, names, key="l_suppkey",
                          right_key="s_suppkey").map_batches(
        lambda t: pa.table({"s_suppkey": t.column("l_suppkey"),
                            "s_name": t.column("s_name")}),
        batch_format="pyarrow")


def _q_tpch_q21(sf_dir: str):
    """TPC-H Q21 shape (suppliers who kept orders waiting — adapted: no
    commit/receipt dates, so "late" is l_shipdate > o_orderdate + 365
    days, status 'F'). ONE shuffle join lineitem↔orders whose
    ``bucket_fn`` runs the whole correlated EXISTS / NOT-EXISTS
    reduction inside the join task (every row of an order is in its
    bucket): per-(order, supplier) late flags → per-order supplier /
    late counts → keep pairs where the order has ≥ 2 suppliers and
    EXACTLY this one late → per-bucket partial supplier counts. Only
    ≤ |suppliers| partial rows leave each bucket; one small shuffle
    sums them. Was three extra keyed exchanges before the fusion
    lever (4.9 s → 0.9 s at sf0.1)."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import (
        broadcast_join, shuffle_hash_join)

    LATE_US = 365 * 86_400_000_000

    orders = _read_co(sf_dir, "orders",
                      ["o_orderkey", "o_orderstatus", "o_orderdate"],
                      floor=8).map_batches(
        lambda t: t.filter(pc.equal(t.column("o_orderstatus"), "F"))
        .select(["o_orderkey", "o_orderdate"]), batch_format="pyarrow")
    li = _read_co(sf_dir, "lineitem",
                  ["l_orderkey", "l_suppkey", "l_shipdate"], floor=8)

    def per_order(joined: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(joined.column("l_shipdate"),
                               pa.timestamp("us")), pa.int64())
        odate = pc.cast(pc.cast(joined.column("o_orderdate"),
                                pa.timestamp("us")), pa.int64())
        late = pc.cast(pc.greater(pc.subtract(ship, odate),
                                  pa.scalar(LATE_US, pa.int64())),
                       pa.int64())
        pairs = pa.table({
            "l_orderkey": joined.column("l_orderkey"),
            "l_suppkey": joined.column("l_suppkey"),
            "late": late,
        }).group_by(["l_orderkey", "l_suppkey"]).aggregate(
            [("late", "max")])
        po = pairs.group_by("l_orderkey").aggregate(
            [("late_max", "sum"), ("late_max", "count")])
        m = pairs.join(po, keys="l_orderkey")
        culp = m.filter(pc.and_(
            pc.equal(m.column("late_max"), 1),
            pc.and_(pc.greater_equal(m.column("late_max_count"), 2),
                    pc.equal(m.column("late_max_sum"), 1))))
        part = culp.group_by("l_suppkey").aggregate(
            [("late_max", "count")])
        return pa.table({
            "l_suppkey": part.column("l_suppkey"),
            "numwait_part": part.column("late_max_count")
            .cast(pa.int64())})

    partials = shuffle_hash_join(li, orders, key="l_orderkey",
                                 right_key="o_orderkey", how="inner",
                                 bucket_fn=per_order)
    counts = grouped_agg(partials, ["l_suppkey"],
                         sum_cols={"numwait": "numwait_part"})
    names = _side_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return broadcast_join(counts, names, key="l_suppkey",
                          right_key="s_suppkey").map_batches(
        lambda t: pa.table({"s_name": t.column("s_name"),
                            "numwait": t.column("numwait")}),
        batch_format="pyarrow")


def _q_events_clustered_prune(sf_dir: str):
    """Zone-map data-skipping gate (stages/layout.cluster_write +
    read_pruned): events range-clustered by value into a zone-mapped
    parquet layout, the band [50, 80] answered by a PRUNED read (only
    files whose [min, max] intersect are opened; the residual filter
    restores exactness), then a bounded per-type roll-up of exact cent
    sums. Oracle = the same band over the raw table — pruning must be
    invisible to semantics (tests/test_layout.py additionally asserts
    most files were skipped)."""
    import tempfile

    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.layout import (
        cluster_write, read_pruned)

    out = tempfile.mkdtemp(prefix="zonemap_", dir="/tmp")
    cluster_write(
        lambda: _read_co(sf_dir, "events", ["event_type", "value"],
                         floor=8),
        out, keys="value", stats_cols=[], num_partitions=16)
    ds, _report = read_pruned(out, {"value": (50.0, 80.0)})
    prep = ds.map_batches(
        lambda t: pa.table({"event_type": t.column("event_type"),
                            "cents": _cents(t.column("value"))}),
        batch_format="pyarrow")
    return grouped_agg(prep, ["event_type"], count_name="n",
                       sum_cols={"value_cents": "cents"})


def _q_parts_triangles(sf_dir: str):
    """Co-purchase triangle counts (stages/graph.py::cooccurrence_edges
    + triangle_count): parts sharing an order become support-weighted
    undirected edges (vectorized within-order pair expansion, one
    bucket exchange), edges with support ≥ 2 close into triangles by
    pure join algebra (wedge join + composite-key semi join — no
    driver adjacency), each triangle crediting its three corners.
    Oracle = the literal e1 ⋈ e2 ⋈ e3 self-join."""
    from opentelemetry_collector_ray.stages.graph import (
        cooccurrence_edges, triangle_count)

    li = _read_co(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
                  floor=8)
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey",
                               min_support=2)
    return triangle_count(edges)


def _q_docs_bigram_pmi_parts(sf_dir: str):
    """Collocation extraction — PMI of the top-20 bigrams, as EXACT
    integer parts (n_xy, n_x, n_y, total unigrams/bigrams): the float
    log never crosses the hash gate, the downstream consumer computes
    ln((n_xy·N_uni²)/(n_x·n_y·N_big)) driver-side. Two corpus passes
    (bigram + unigram counts, both bucket-exchanged aggregates); only
    the 20 winners and their ≤ 40 member words reach the driver."""
    from opentelemetry_collector_ray.stages.corpusstats import (
        ngram_counts, term_counts)

    docs = lambda: _read_co(sf_dir, "documents", ["text"], floor=8)  # noqa: E731
    big = ngram_counts(docs(), n=2).materialize()
    n_bigrams = int(big.sum("n") or 0)
    top = big.sort(["n", "ngram"], descending=[True, False]).limit(20
                                                                   ).to_pandas()
    uni = term_counts(docs()).materialize()
    n_unigrams = int(uni.sum("n") or 0)
    words = sorted({w for ng in top["ngram"] for w in ng.split(" ")})
    wtab = uni.map_batches(
        lambda t: t.filter(pc.is_in(t.column("term"),
                                    value_set=pa.array(words))),
        batch_format="pyarrow").to_pandas()
    wcount = dict(zip(wtab["term"], wtab["n"]))
    xs = [ng.split(" ")[0] for ng in top["ngram"]]
    ys = [ng.split(" ")[1] for ng in top["ngram"]]
    return pa.table({
        "ngram": pa.array(top["ngram"], pa.string()),
        "n_xy": pa.array(top["n"].astype("int64")),
        "n_x": pa.array([int(wcount[w]) for w in xs], pa.int64()),
        "n_y": pa.array([int(wcount[w]) for w in ys], pa.int64()),
        "n_unigrams": pa.array([n_unigrams] * len(top), pa.int64()),
        "n_bigrams": pa.array([n_bigrams] * len(top), pa.int64())})


def _q_orders_merge_upsert(sf_dir: str):
    """CDC MERGE INTO (apply a changelog to a snapshot): base rows at
    version 0 union a deterministic changelog (updates to every
    orderkey ≡ 0 mod 7 at version 1; inserts in a disjoint key space
    for orderkey ≡ 0 mod 11), compacted to one row per key by
    stages/cdc.latest_by_key — the upsert semantics of
    row_number() OVER (PARTITION BY key ORDER BY version DESC) = 1.
    Completes the CDC family: snapshot_diff derives a changelog,
    this APPLIES one."""
    from opentelemetry_collector_ray.stages.cdc import latest_by_key

    INS_BASE = 1_000_000_000

    def expand(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey")
        price_c = _cents(t.column("o_totalprice"))
        base = pa.table({"k": key, "status": t.column("o_orderstatus"),
                         "price_c": price_c,
                         "version": pa.nulls(len(t), pa.int64()
                                             ).fill_null(0)})
        upd_mask = pc.equal(
            pc.subtract(key, pc.multiply(pc.divide(key, 7),
                                         pa.scalar(7, pa.int64()))),
            pa.scalar(0, pa.int64()))
        u = base.filter(upd_mask)
        upd = pa.table({
            "k": u.column("k"),
            "status": pa.nulls(len(u), pa.string()).fill_null("U"),
            "price_c": pc.add(u.column("price_c"),
                              pa.scalar(10_000, pa.int64())),
            "version": pa.nulls(len(u), pa.int64()).fill_null(1)})
        ins_mask = pc.equal(
            pc.subtract(key, pc.multiply(pc.divide(key, 11),
                                         pa.scalar(11, pa.int64()))),
            pa.scalar(0, pa.int64()))
        i = base.filter(ins_mask)
        ins = pa.table({
            "k": pc.add(i.column("k"),
                        pa.scalar(INS_BASE, pa.int64())),
            "status": pa.nulls(len(i), pa.string()).fill_null("N"),
            "price_c": i.column("price_c"),
            "version": pa.nulls(len(i), pa.int64()).fill_null(1)})
        return pa.concat_tables([base, upd, ins])

    ds = _read_co(sf_dir, "orders",
                  ["o_orderkey", "o_orderstatus", "o_totalprice"],
                  floor=8).map_batches(expand, batch_format="pyarrow")
    return latest_by_key(ds, "k", order_by=["version"], keep="last")


def _q_events_assoc_parts(sf_dir: str):
    """Association / chi-square contingency gate, exact integer parts:
    the (event_type × ISO weekday) contingency cells with their row,
    column and grand totals plus the deviation numerator
    obs·N − row·col (the χ² cell numerator before the float division —
    parts stay int64, guarded against overflow). One bounded tree
    roll-up; totals computed on the 35-cell driver table."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def prep(t: pa.Table) -> pa.Table:
        dow = pc.add(pc.day_of_week(t.column("ts")),
                     pa.scalar(1, pa.int64()))  # ISO: Mon=1 … Sun=7
        return pa.table({"event_type": t.column("event_type"),
                         "isodow": pc.cast(dow, pa.int64())})

    cells = grouped_count(
        _read_co(sf_dir, "events", ["event_type", "ts"],
                 floor=8).map_batches(prep, batch_format="pyarrow"),
        ["event_type", "isodow"], count_name="obs").to_pandas()
    n_total = int(cells["obs"].sum())
    row = cells.groupby("event_type")["obs"].sum().to_dict()
    col = cells.groupby("isodow")["obs"].sum().to_dict()
    cells["row_n"] = cells["event_type"].map(row).astype("int64")
    cells["col_n"] = cells["isodow"].map(col).astype("int64")
    cells["n_total"] = n_total
    max_row = int(cells["row_n"].max()) if len(cells) else 0
    max_col = int(cells["col_n"].max()) if len(cells) else 0
    if n_total and (int(cells["obs"].max()) > (2**62) // n_total
                    or (max_col and max_row > (2**62) // max_col)):
        raise ValueError("events_assoc_parts: obs·N or row·col would "
                         "overflow int64 — scale the parts down first")
    cells["dev_num"] = (cells["obs"] * n_total
                        - cells["row_n"] * cells["col_n"]).astype("int64")
    return pa.Table.from_pandas(cells[["event_type", "isodow", "obs",
                                       "row_n", "col_n", "n_total",
                                       "dev_num"]], preserve_index=False)


def _q_custs_pareto(sf_dir: str):
    """Pareto-frontier customer selection (stages/skyline.py): per-
    customer (order count, lifetime spend cents) roll-up, then the 2-D
    skyline — customers no other customer beats on BOTH axes (strict
    dominance, exact ties survive). O(n log n) sample-sort path vs the
    oracle's literal O(n²) NOT EXISTS self-join."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.skyline import skyline_2d

    def make():
        return grouped_count(
            _read_co(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                     floor=8).map_batches(
                lambda t: pa.table({
                    "o_custkey": t.column("o_custkey"),
                    "cents": _cents(t.column("o_totalprice"))}),
                batch_format="pyarrow"),
            ["o_custkey"], count_name="n_orders",
            sum_cols={"spend_c": "cents"})

    return skyline_2d(make, "n_orders", "spend_c", persist="memory")


def _q_events_compacted(sf_dir: str):
    """Small-file compaction under the SQL gate (sinks/parquet_sink.py::
    compact_files): events deliberately shattered into 24 tiny files,
    bin-packed back into a handful, then a bounded per-type roll-up of
    exact cent sums over the COMPACTED layout. Oracle = the same
    roll-up over the raw table — compaction must be invisible to
    semantics while collapsing the read-side task count (the actual
    100 TB failure mode of streaming micro-batch sinks)."""
    import tempfile

    from opentelemetry_collector_ray.sinks.parquet_sink import compact_files
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    import ray.data

    small = tempfile.mkdtemp(prefix="shatter_", dir="/tmp")
    out = tempfile.mkdtemp(prefix="compact_", dir="/tmp")
    _read(sf_dir, "events", ["event_type", "value"]).repartition(
        24).write_parquet(small)
    man = compact_files(small, out, target_bytes=64 << 20)
    assert man.num_rows < 24
    prep = ray.data.read_parquet(out).map_batches(
        lambda t: pa.table({"event_type": t.column("event_type"),
                            "cents": _cents(t.column("value"))}),
        batch_format="pyarrow")
    return grouped_count(prep, ["event_type"], count_name="n",
                         sum_cols={"value_cents": "cents"})


def _q_events_attribution(sf_dir: str):
    """Last-touch attribution — each purchase matched to the same
    user's latest click no more than ONE DAY earlier (stages/join.py::
    asof_join backward with tolerance=, how="left": beyond-tolerance
    matches become NULL, unmatched purchases survive). The first SQL
    gate on the tolerance lane; oracle = DuckDB ASOF LEFT JOIN with
    the tolerance applied as the same null-out rule."""
    from opentelemetry_collector_ray.stages.join import asof_join

    ONE_DAY_US = 86_400_000_000
    ev = _read_co(sf_dir, "events", ["event_id", "user_id",
                                     "event_type", "ts"], floor=8)
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t.column("event_type"), "purchase"))
        .select(["event_id", "user_id", "ts"]), batch_format="pyarrow")
    def _clicks(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("event_type"), "click"))
        return pa.table({"user_id": t.column("user_id"),
                         "click_ts": t.column("ts")})

    clicks = ev.map_batches(_clicks, batch_format="pyarrow")
    j = asof_join(purchases, clicks, by="user_id", on="ts",
                  right_on="click_ts", direction="backward",
                  how="left", tolerance=ONE_DAY_US)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            # arrow %S renders the unit's full precision, DuckDB %S
            # truncates — cast to second resolution so strings agree
            "purchase_ts": pc.strftime(
                pc.cast(t.column("ts"), pa.timestamp("s"), safe=False),
                format="%Y-%m-%d %H:%M:%S"),
            "click_ts": pc.strftime(
                pc.cast(t.column("click_ts"), pa.timestamp("s"),
                        safe=False),
                format="%Y-%m-%d %H:%M:%S")})

    return j.map_batches(finish, batch_format="pyarrow")


def _q_orders_scd2(sf_dir: str):
    """SCD type-2 dimension build (stages/cdc.py scd2_intervals): each
    customer's order-status change log collapsed to validity intervals
    — consecutive same-status orders merge, ``valid_from``/``valid_to``
    bound each version, the open interval is ``is_current``. Oracle =
    lag-filter then lead() over the same (o_orderdate, o_orderkey)
    ordering; dates as ISO strings on both sides (arrow date vs DuckDB
    DATE render differently in pandas)."""
    from opentelemetry_collector_ray.stages.cdc import scd2_intervals

    iv = scd2_intervals(
        _read_co(sf_dir, "orders",
                 ["o_custkey", "o_orderkey", "o_orderdate",
                  "o_orderstatus"], floor=8),
        "o_custkey", "o_orderdate", ["o_orderstatus"],
        tie_break="o_orderkey")

    def finish(t: pa.Table) -> pa.Table:
        iso = "%Y-%m-%d %H:%M:%S"
        return pa.table({
            "o_custkey": t.column("o_custkey"),
            "o_orderstatus": t.column("o_orderstatus"),
            "valid_from": pc.strftime(
                pc.cast(t.column("valid_from"), pa.timestamp("s"),
                        safe=False), format=iso),
            "valid_to": pc.strftime(
                pc.cast(t.column("valid_to"), pa.timestamp("s"),
                        safe=False), format=iso),
            "is_current": t.column("is_current")})

    return iv.map_batches(finish, batch_format="pyarrow")


def _q_docs_feature_hash(sf_dir: str):
    """Hashing-trick vectorizer (stages/encoding.py feature_hash, md5
    oracle mode): every doc's tokens bucketed into 64 hashed features
    with NO vocabulary pass — per-doc sparse vectors reduce entirely
    inside map_batches (zero shuffles). The gate aggregates the corpus
    feature-bucket histogram; oracle = the identical md5-prefix bucket
    expression over unnest(string_split(...)) in SQL."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.encoding import feature_hash

    vec = feature_hash(
        _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8),
        "doc_id", "text", n_buckets=64, hash_mode="md5")
    # each (doc, bucket) row is distinct -> count(rows) = distinct docs
    return grouped_agg(vec, ["bucket"], count_name="n_docs",
                       sum_cols={"n_tokens": "n"})


def _q_events_day_checksum(sf_dir: str):
    """Distributed table checksum (stages/checksum.py table_checksum):
    per-day row count + order-insensitive content digest of
    (event_id, user_id, event_type) — the cross-system replication
    validation primitive (uint64 wrap-sum of 48-bit md5 row digests;
    re-sharding never changes it). Oracle = sum of the same
    md5-prefix digests mod 2^64 in HUGEINT, emitted as a decimal
    string on both sides."""
    from opentelemetry_collector_ray.stages.checksum import table_checksum

    ev = _read_co(sf_dir, "events",
                  ["event_id", "user_id", "event_type", "ts"], floor=8)

    def add_day(t: pa.Table) -> pa.Table:
        return t.append_column(
            "day", pc.strftime(t.column("ts"), format="%Y-%m-%d")) \
            .drop_columns(["ts"])

    return table_checksum(ev.map_batches(add_day, batch_format="pyarrow"),
                          ["event_id", "user_id", "event_type"],
                          group_col="day")


def _q_custs_target_encode(sf_dir: str):
    """Smoothed target encoding (stages/encoding.py target_encode):
    each market segment's blended mean order value in cents,
    ``(s + 20·G)/(n + 20)`` evaluated as ONE exact integer floor
    division — the leakage-robust categorical feature. Broadcast join
    orders→customer (small side ships once), one two-phase aggregate.
    Oracle = the identical integer blend in SQL (all terms
    non-negative, so // truncation == floor)."""
    from opentelemetry_collector_ray.stages.encoding import target_encode
    from opentelemetry_collector_ray.stages.join import broadcast_join

    orders = _read_co(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                      floor=8)
    cust = _side_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = broadcast_join(orders, cust, key="o_custkey",
                       right_key="c_custkey")

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"c_mktsegment": t.column("c_mktsegment"),
                         "cents": _cents(t.column("o_totalprice"))})

    return target_encode(j.map_batches(prep, batch_format="pyarrow"),
                         "c_mktsegment", "cents", smoothing_m=20,
                         out_name="enc_cents")


def _q_lineitem_basket_pairs(sf_dir: str):
    """Market-basket co-occurrence (stages/graph.py cooccurrence_edges):
    part pairs ordered together in >= 2 orders — the frequent-itemset
    pair derivation (dedupe -> one bucket exchange -> vectorized
    within-order pair expansion -> support count). Oracle = the
    DISTINCT self-join with a < b and HAVING count(*) >= 2."""
    from opentelemetry_collector_ray.stages.graph import cooccurrence_edges

    return cooccurrence_edges(
        _read_co(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
                 floor=8),
        "l_orderkey", "l_partkey", min_support=2)


def _q_events_rolling_outliers(sf_dir: str):
    """Trailing-window anomaly detection (stages/window.py rolling ops
    composed): flag events whose value deviates from the user's OWN
    7-day trailing window by > 3 sigma — the integer-exact inequality
    ``(n·x − S)² > 9·(n·Q − S²)`` over rolling count/sum/sum-of-squares
    in cents (no float variance), requiring n >= 5 rows of history.
    Oracle = the same RANGE frame sums in SQL."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    ev = _read_co(sf_dir, "events",
                  ["event_id", "user_id", "ts", "value"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        x = _cents(t.column("value"))
        return pa.table({"user_id": t.column("user_id"),
                         "event_id": t.column("event_id"),
                         "ts": t.column("ts"), "x": x,
                         "x2": pc.multiply_checked(x, x)})

    WEEK_US = 7 * 86_400_000_000
    w = per_key_window(
        ev.map_batches(prep, batch_format="pyarrow"), "user_id",
        ["ts", "event_id"],
        {"s": ("rolling_sum", "x", WEEK_US),
         "q": ("rolling_sum", "x2", WEEK_US),
         "n": ("rolling_count", WEEK_US)})

    def flag(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        s = t.column("s").to_numpy(zero_copy_only=False)
        q = t.column("q").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        # magnitudes: x <= ~2^26 cents, n bounded by the hour window ->
        # n·x, S ~ 2^40; squares ~ 2^80 WOULD wrap int64 — go through
        # object ints only if needed; guard loudly instead
        if len(x):
            mx = max(int(np.max(np.abs(x))), 1)
            mn = max(int(np.max(n)), 1)
            if mn * mx >= 1_000_000_000:  # 9·(n·q) ≤ 9·(n·x)² must fit int64
                raise ValueError("events_rolling_outliers: window sums "
                                 "too large for the int64 inequality")
        d = n * x - s
        rhs = 9 * (n * q - s * s)
        keep = (n >= 5) & (d * d > rhs)
        return pa.table({"event_id": t.column("event_id").filter(
            pa.array(keep)),
            "user_id": t.column("user_id").filter(pa.array(keep))})

    return w.map_batches(flag, batch_format="pyarrow")


def _q_events_corr_parts(sf_dir: str):
    """Per-group Pearson correlation in EXACT integer parts (one
    two-phase aggregate, same convention as the OLS trend /
    chi-square parts queries): per event_type the six sufficient
    statistics (n, Σx, Σy, Σxy, Σx², Σy²) between value-cents and
    hour-of-day — r and its sign/strength derive from the parts
    without any float drift crossing the gate. Oracle = the same six
    integer sums in SQL."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    ev = _read_co(sf_dir, "events", ["event_type", "ts", "value"],
                  floor=8)

    def prep(t: pa.Table) -> pa.Table:
        x = _cents(t.column("value"))
        y = pc.cast(pc.hour(t.column("ts")), pa.int64())
        return pa.table({
            "event_type": t.column("event_type"), "x": x, "y": y,
            "xy": pc.multiply_checked(x, y),
            "xx": pc.multiply_checked(x, x),
            "yy": pc.multiply_checked(y, y)})

    return grouped_agg(ev.map_batches(prep, batch_format="pyarrow"),
                       ["event_type"], count_name="n",
                       sum_cols={"sx": "x", "sy": "y", "sxy": "xy",
                                 "sxx": "xx", "syy": "yy"})


def _q_events_json_extract(sf_dir: str):
    """Vectorized JSON-path attribute extraction (functions/text.py
    json_path_str through the OTTL ``JSONPath`` converter — the
    ParseJSON analog): pull ``$.k`` out of the props JSON column with
    polars' Rust kernel, cast, and roll up value stats per extracted
    key. Oracle = DuckDB ``json_extract_string`` + the same integer
    aggregate."""
    from opentelemetry_collector_ray.functions.ottl import (
        compile_statements)
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    fn = compile_statements(['set(k_str, JSONPath(props, "$.k"))'])

    def prep(t: pa.Table) -> pa.Table:
        t = fn(t)
        return pa.table({
            "k": pc.cast(t.column("k_str"), pa.int64()),
            "cents": _cents(t.column("value"))})

    ev = _read_co(sf_dir, "events", ["props", "value"], floor=8)
    return grouped_agg(ev.map_batches(prep, batch_format="pyarrow"),
                       ["k"], count_name="n",
                       sum_cols={"sum_cents": "cents"})


def _q_events_ipc_roundtrip(sf_dir: str):
    """Arrow IPC stream wire end-to-end (sources/arrow_ipc.py): the
    events table is exported block-per-file to ``.arrows`` IPC stream
    shards (one uncompressed dir + one zstd size-prefix-framed dir,
    exercising both wire paths), read back with one C++ stream-reader
    call per file, and rolled up per event_type against pure SQL over
    the original table — proving the sink/source pair inverts exactly.
    The derivation is a :func:`_fixture_dir` cache like the JSONL
    one."""
    from opentelemetry_collector_ray.sources.arrow_ipc import (
        read_ipc, write_ipc)
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def build(stage: str) -> None:
        ev = _read_co(sf_dir, "events",
                      ["event_id", "user_id", "event_type", "ts"],
                      floor=8)
        half = ev.map_batches(
            lambda t: t.filter(pc.equal(
                pc.bit_wise_and(t.column("event_id"), 1), 0)),
            batch_format="pyarrow")
        other = ev.map_batches(
            lambda t: t.filter(pc.equal(
                pc.bit_wise_and(t.column("event_id"), 1), 1)),
            batch_format="pyarrow")
        write_ipc(half, f"{stage}/plain", compression="none")
        write_ipc(other, f"{stage}/zstd", compression="zstd")

    out_dir = _fixture_dir("ipc", [f"{sf_dir}/events.parquet"], build)

    files = sorted(
        f"{out_dir}/{sub}/{n}"
        for sub in ("plain", "zstd")
        for n in os.listdir(f"{out_dir}/{sub}"))
    logs = read_ipc(files)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "user_id": t.column("user_id"),
            "ts_us": t.column("ts").cast(pa.int64())})

    return grouped_agg(logs.map_batches(prep, batch_format="pyarrow"),
                       ["event_type"], count_name="n",
                       sum_cols={"sum_uid": "user_id"},
                       min_cols={"min_ts_us": "ts_us"},
                       max_cols={"max_ts_us": "ts_us"})


def _q_lineitem_weighted_median(sf_dir: str):
    """Exact quantity-weighted median price per return flag
    (spanops.grouped_weighted_median — the volume-weighted central
    tendency): smallest price-cents whose cumulative quantity reaches
    half the flag's total, all integer (rank rule 2·cum >= tot).
    Oracle = the same rule over window cumsums in SQL."""
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_weighted_median)

    li = _read_co(sf_dir, "lineitem",
                  ["l_returnflag", "l_extendedprice", "l_quantity"],
                  floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "cents": _cents(t.column("l_extendedprice")),
            "qty": pc.cast(t.column("l_quantity"), pa.int64())})

    return grouped_weighted_median(
        li.map_batches(prep, batch_format="pyarrow"),
        "l_returnflag", "cents", "qty")


def _q_lineitem_weighted_p90(sf_dir: str):
    """Exact quantity-weighted QUANTILES at arbitrary rationals
    (spanops.grouped_weighted_quantiles — generalizes the weighted
    median): smallest price-cents whose cumulative quantity reaches
    q of the flag's total, rank rule den·cum >= num·tot, all
    integer. Oracle = the same rule via FILTERed min over window
    cumsums."""
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_weighted_quantiles)

    li = _read_co(sf_dir, "lineitem",
                  ["l_returnflag", "l_extendedprice", "l_quantity"],
                  floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "cents": _cents(t.column("l_extendedprice")),
            "qty": pc.cast(t.column("l_quantity"), pa.int64())})

    return grouped_weighted_quantiles(
        li.map_batches(prep, batch_format="pyarrow"),
        "l_returnflag", "cents", "qty", qs=((1, 4), (9, 10)))


def _q_events_survival(sf_dir: str):
    """Kaplan–Meier life table (stages/survival.py km_parts): per-user
    time-to-first-purchase in days from the first observed event,
    right-censored at the user's last event when no purchase happens —
    exact integer lanes (duration, d, c, at_risk); the KM survival
    product is the caller's float. One shuffle reduces events to
    |users| subject rows; the banded life table tree-combines behind
    an HLL screen. Oracle = the same subject derivation + reverse
    window sum in SQL."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.survival import km_parts

    ev = _read_co(sf_dir, "events", ["user_id", "ts", "event_type"],
                  floor=8)

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                     pa.int64())
        is_p = pc.equal(t.column("event_type"), "purchase")
        return pa.table({
            "user_id": t.column("user_id"), "_ts": ts,
            "_tp": pc.if_else(is_p, ts, pa.scalar(None, pa.int64()))})

    subj = grouped_agg(ev.map_batches(prep, batch_format="pyarrow"),
                       ["user_id"], min_cols={"t0": "_ts", "tp": "_tp"},
                       max_cols={"tl": "_ts"})

    def to_subject(t: pa.Table) -> pa.Table:
        end = pc.coalesce(t.column("tp"), t.column("tl"))
        dur = pc.divide(pc.subtract(end, t.column("t0")),
                        pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({
            "duration": dur,
            "observed": pc.cast(pc.is_valid(t.column("tp")),
                                pa.int64())})

    return km_parts(subj.map_batches(to_subject,
                                     batch_format="pyarrow"),
                    "duration", "observed")


def _q_events_type_drift(sf_dir: str):
    """PER-KEY KS drift (normalize.grouped_ks — the distributed scale
    path beside the global driver sweep): for every event type, the
    exact KS distance between its first-half and second-half spend
    distributions — segment-vectorized cumsums + maximum.reduceat on
    one bucket exchange, keys unbounded. Oracle = per-key window
    cumsums in SQL with a both-slices-present HAVING."""
    from opentelemetry_collector_ray.stages.normalize import grouped_ks

    T_US = 1_705_363_200_000_000  # 2024-01-16 epoch microseconds

    ev = _read_co(sf_dir, "events", ["event_type", "ts", "value"],
                  floor=8)

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                     pa.int64())
        period = pc.if_else(
            pc.less(ts, pa.scalar(T_US, pa.int64())), "early", "late")
        return pa.table({"event_type": t.column("event_type"),
                         "period": period,
                         "cents": _cents(t.column("value"))})

    return grouped_ks(ev.map_batches(prep, batch_format="pyarrow"),
                      "event_type", "period", "cents", "early", "late")


def _q_events_log_dedup(sf_dir: str):
    """Interval log deduplication (stages/cdc.py log_dedup — the
    contrib logdeduplication processor's batch analog): identical
    (event_type, props) rows within each hour collapse to one row
    with the duplicate count and first/last timestamps. Oracle = the
    same floor-window GROUP BY in SQL."""
    from opentelemetry_collector_ray.stages.cdc import log_dedup

    ev = _read_co(sf_dir, "events", ["ts", "event_type", "props"],
                  floor=8)
    return log_dedup(ev, ["event_type", "props"], "ts",
                     3_600_000_000)


def _q_events_lag_xcorr(sf_dir: str):
    """Lead/lag cross-correlation parts (stages/resample.py
    lagged_xcorr_parts): daily click vs purchase counts zero-filled
    over the union span, exact integer sufficient statistics (n, sx,
    sy, sxy, sxx, syy) per lag in ±3 days — "do clicks lead
    purchases?" with the per-lag Pearson r left as the caller's
    float. Oracle = dense generate_series grid + offset self-join in
    SQL."""
    from opentelemetry_collector_ray.stages.resample import (
        lagged_xcorr_parts)

    ev = _read_co(sf_dir, "events", ["ts", "event_type"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(
            pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                    pa.int64()),
            pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"day": day,
                         "event_type": t.column("event_type")})

    return lagged_xcorr_parts(
        ev.map_batches(prep, batch_format="pyarrow"), "day",
        "event_type", "click", "purchase")


def _q_events_ks_drift(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov drift distance
    (normalize.ks_two_sample): the exact D between the click and view
    spend distributions as integer lanes (n_a, n_b, d_num) plus the
    single correctly-rounded float d = d_num/(n_a·n_b) — the
    deploy-A-vs-deploy-B drift detector with a bit-stable gate.
    Oracle = the window-cumsum ECDF difference in SQL."""
    from opentelemetry_collector_ray.stages.normalize import (
        ks_two_sample)

    ev = _read_co(sf_dir, "events", ["event_type", "value"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    return ks_two_sample(ev.map_batches(prep, batch_format="pyarrow"),
                         "event_type", "cents", "click", "view")


def _q_events_trending(sf_dir: str):
    """Trending items: top-3 event types per day by count with a
    deterministic tie-break (aggregate.grouped_topk over the bounded
    day×type count table — per-block top-k pre-reduction bounds the
    exchange). Oracle = row_number() over (n DESC, type) <= 3."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_topk)

    ev = _read_co(sf_dir, "events", ["event_type", "ts"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(t.column("ts"), format="%Y-%m-%d"),
            "event_type": t.column("event_type")})

    counts = grouped_agg(ev.map_batches(prep, batch_format="pyarrow"),
                         ["day", "event_type"], count_name="n")
    return grouped_topk(counts, "day", "n", k=3, descending=True,
                        tiebreak="event_type")


def _q_events_debounced(sf_dir: str):
    """Alert-style spacing throttle (per_key_window lag composition):
    keep an event only when it is the (user, type) stream's first or
    lies more than 5 minutes after the PREVIOUS RAW event — the
    lag-spacing rule (one vectorized window pass; the reference's
    repeated-log suppression analog). Oracle = the same lag filter in
    SQL."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    ev = _read_co(sf_dir, "events",
                  ["event_id", "user_id", "event_type", "ts"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": pc.binary_join_element_wise(
                pc.cast(t.column("user_id"), pa.string()),
                t.column("event_type"), ":"),
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "event_type": t.column("event_type"),
            "ts_us": t.column("ts").cast(pa.int64())})

    w = per_key_window(
        ev.map_batches(prep, batch_format="pyarrow"), "k",
        ["ts_us", "event_id"], {"prev_us": ("lag", "ts_us")})

    def keep(t: pa.Table) -> pa.Table:
        m = pc.or_kleene(
            pc.is_null(t.column("prev_us")),
            pc.greater(pc.subtract(t.column("ts_us"),
                                   t.column("prev_us")),
                       pa.scalar(300_000_000, pa.int64())))
        t = t.filter(pc.fill_null(m, False))
        return t.select(["event_id", "user_id", "event_type"])

    return w.map_batches(keep, batch_format="pyarrow")


def _q_custs_rfm(sf_dir: str):
    """RFM segmentation mart (grouped_agg + three constant-key ntile
    window passes over the BOUNDED per-customer dimension): per
    customer the recency in whole days behind the corpus max order
    date, order count, monetary cents, and ntile(5) quintile scores
    for each — ties broken by custkey so every rank is total. Oracle =
    the identical ntile windows in SQL."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    DAY_US = 86_400_000_000
    orders = _read_co(sf_dir, "orders",
                      ["o_custkey", "o_orderdate", "o_totalprice"],
                      floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t.column("o_custkey"),
            "date_us": t.column("o_orderdate").cast(pa.int64()),
            "cents": _cents(t.column("o_totalprice"))})

    agg = grouped_agg(orders.map_batches(prep, batch_format="pyarrow"),
                      ["o_custkey"], count_name="freq",
                      sum_cols={"monetary": "cents"},
                      max_cols={"last_us": "date_us"}).materialize()
    gmax = int(agg.max("last_us"))

    def derive(t: pa.Table) -> pa.Table:
        rec = pc.divide(pc.subtract(pa.scalar(gmax, pa.int64()),
                                    t.column("last_us")),
                        pa.scalar(DAY_US, pa.int64()))
        return pa.table({"_all": pa.array(np.zeros(t.num_rows, np.int8)),
                         "o_custkey": t.column("o_custkey"),
                         "recency_days": rec,
                         "freq": t.column("freq"),
                         "monetary": t.column("monetary")})

    # all three quintile assignments in ONE single-task pass over the
    # small per-customer dimension (bounded by design: this is the
    # post-aggregate mart, not the raw fact table) — three sequential
    # per_key_window exchanges measured 4.9 s at sf0.1; fused = one
    from opentelemetry_collector_ray.stages.bucketing import (
        bucketed_map_groups)

    def ntiles(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cust = t.column("o_custkey").to_numpy(zero_copy_only=False)
        out = {c: t.column(c) for c in
               ("o_custkey", "recency_days", "freq", "monetary")}
        base, extra = divmod(n, 5)
        boundary = (base + 1) * extra
        for metric, name in (("recency_days", "r_q"), ("freq", "f_q"),
                             ("monetary", "m_q")):
            v = t.column(metric).to_numpy(zero_copy_only=False)
            pos = np.empty(n, np.int64)
            pos[np.lexsort((cust, v))] = np.arange(n)
            if base:
                tile = np.where(pos < boundary, pos // (base + 1),
                                extra + (pos - boundary) // base)
            else:  # n < 5: every row its own tile
                tile = pos
            out[name] = pa.array(tile + 1, pa.int64())
        return pa.table(out)

    d = agg.map_batches(derive, batch_format="pyarrow")
    return bucketed_map_groups(d, "_all", ntiles, n_buckets=1)


def _q_events_type_users_approx(sf_dir: str):
    """Per-key approximate COUNT DISTINCT (sketch.grouped_approx_distinct
    — one 2^p-byte HLL register row per key per batch, element-wise-max
    merge, ~3.2% error at p=10): the 100 TB scale path beside the exact
    events_type_users gate. Rows-only by design (an estimate has no
    SQL mirror); pytest asserts the error band against exact counts
    and shard-insensitivity."""
    from opentelemetry_collector_ray.stages.sketch import (
        grouped_approx_distinct)

    return grouped_approx_distinct(
        _read_co(sf_dir, "events", ["event_type", "user_id"], floor=8),
        "event_type", "user_id", p=10, out_name="approx_users")


def _q_events_point_lookup(sf_dir: str):
    """Bloom-filter point lookup over the zone-mapped layout
    (stages/layout.py cluster_write bloom_cols= + read_pruned eq=):
    events laid out clustered by event_id with a per-file Bloom on
    user_id; the probe reads only the files whose filter might contain
    the user, then the exact residual + rollup. Oracle = plain SQL
    WHERE user_id = 7 — pruning must never change semantics. The
    layout is a :func:`_fixture_dir` cache."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.layout import (
        cluster_write, read_pruned)

    def build(stage: str) -> None:
        cluster_write(
            lambda: _read_co(sf_dir, "events",
                             ["event_id", "user_id", "event_type",
                              "value"], floor=8),
            stage, keys="event_id", stats_cols=["event_id"],
            bloom_cols=["user_id"], num_partitions=16)

    cache = _fixture_dir("bloomzm", [f"{sf_dir}/events.parquet"], build)

    ds, report = read_pruned(cache, {}, eq={"user_id": 7})

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    return grouped_agg(ds.map_batches(prep, batch_format="pyarrow"),
                       ["event_type"], count_name="n",
                       sum_cols={"sum_cents": "cents"})


def _q_spans_self_time(sf_dir: str):
    """Flame-graph exclusive time (spanops.span_self_time): each
    span's duration minus its direct children's — one trace-bucket
    exchange, one Arrow group_by + index_in per bucket. Oracle = the
    LEFT JOIN against the per-parent child-duration sums."""
    from opentelemetry_collector_ray.stages.spanops import span_self_time

    return span_self_time(_spans(sf_dir))


def _q_events_chi2_drift(sf_dir: str):
    """Chi-square categorical drift (normalize.chi2_two_sample): the
    even-vs-odd user-cohort event-type mix compared cell by cell —
    exact observed counts plus each category's (O−E)²/E contribution
    as truncated scale=10⁶ integers (Python big-int rational over the
    bounded contingency table; the SQL mirror squares in HUGEINT).
    The categorical lane of the drift panel beside KS/MW/W1/JSD —
    KS needs an ordered domain, event types have none."""
    from opentelemetry_collector_ray.stages.normalize import chi2_two_sample

    ev = _read_co(sf_dir, "events", ["user_id", "event_type"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            # user_id % 2 — ids are non-negative so the bit mask is the
            # same value SQL's % computes
            "coh": pc.bit_wise_and(t.column("user_id"), 1),
            "event_type": t.column("event_type")})

    return chi2_two_sample(ev.map_batches(prep, batch_format="pyarrow"),
                           "coh", "event_type", 0, 1)


# Benford's-law expected first-digit mass, floor(log10(1+1/d)·10⁶) —
# hardcoded so neither engine touches libm in the gate.
_BENFORD_PPM = {"1": 301029, "2": 176091, "3": 124938, "4": 96910,
                "5": 79181, "6": 66946, "7": 57991, "8": 51152,
                "9": 45757}


def _q_orders_benford(sf_dir: str):
    """Benford first-digit audit — the classic fabricated-numbers
    screen for a numeric column: first significant digit of the order
    price in cents (prices are strictly positive, asserted), counted
    over the 9-digit domain (tree grouped count), with the Benford
    expectation permille attached as a constant lane so the consumer
    reads observed-vs-expected in one row. Oracle = substr of the
    cents cast in SQL with the same hardcoded log10(1+1/d) constants."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    ords = _read_co(sf_dir, "orders", ["o_totalprice"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        cents = _cents(t.column("o_totalprice"))
        lo = pc.min(cents).as_py()
        if lo is not None and lo <= 0:
            raise ValueError("orders_benford: non-positive price — "
                             "the first-digit domain assumes cents>0")
        digit = pc.utf8_slice_codeunits(pc.cast(cents, pa.string()), 0, 1)
        return pa.table({"digit": digit})

    counts = grouped_count(ords.map_batches(prep, batch_format="pyarrow"),
                           ["digit"], count_name="n")

    def attach(t: pa.Table) -> pa.Table:
        exp = pa.array([_BENFORD_PPM[d] for d in
                        t.column("digit").to_pylist()], pa.int64())
        return t.append_column("expected_ppm", exp)

    return counts.map_batches(attach, batch_format="pyarrow")


def _q_events_rolling_users(sf_dir: str):
    """Rolling 7-day distinct active users per day (rolling-WAU)
    via intervals.rolling_distinct_count: per-user coverage-interval
    union + one bounded boundary-delta tree sum — exact, with no
    per-window COUNT(DISTINCT) anywhere. Output = every covered day
    (including zero-event days inside some user's window) with its
    distinct-active count; oracle = generate_series day spine joined
    on BETWEEN with COUNT(DISTINCT)."""
    from opentelemetry_collector_ray.stages.intervals import (
        rolling_distinct_count)

    ev = _read_co(sf_dir, "events", ["user_id", "ts"], floor=8)

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64())  # native unit: us
        return pa.table({
            "user_id": t.column("user_id"),
            "day": pc.divide(us, pa.scalar(86_400_000_000, pa.int64()))})

    return rolling_distinct_count(
        ev.map_batches(prep, batch_format="pyarrow"),
        "user_id", "day", 7, out_time="t", out_count="n_active")


def _q_parts_assoc_rules(sf_dir: str):
    """Market-basket association rules (graph.association_rules) over
    order→part baskets: every directed part pair with co-occurrence
    support >= 2, its exact truncated-ppm confidence
    (support·10⁶ // n_ante) and lift (support·N·10⁶ //
    (n_ante·n_cons)) — integer rationals on both engines, nothing
    float crosses the gate. One distinct-membership exchange feeds
    pairs, broadcast degrees AND the distinct-basket count."""
    from opentelemetry_collector_ray.stages.graph import (
        association_rules)

    def make_ds():
        return _read_co(sf_dir, "lineitem",
                        ["l_orderkey", "l_partkey"], floor=8)

    return association_rules(make_ds, "l_orderkey", "l_partkey",
                             min_support=2)


def _q_turns_templates(sf_dir: str):
    """Log template mining (templates.mine_templates) over the derived
    turn stream: uuid/hex/number fragments masked to typed placeholders
    in one vectorized regex chain per batch, then the bounded template
    set counted with a deterministic min-example — the Drain-style
    reduction a log pipeline runs before storage, as an exact
    deterministic masker so DuckDB's identical regexp_replace chain is
    a bit-stable oracle."""
    from opentelemetry_collector_ray.stages.templates import (
        mine_templates)

    return mine_templates(_turns(sf_dir), "text")


def _q_events_cardinality_cap(sf_dir: str):
    """Cardinality limiter (stages/cardinality.py::cardinality_cap) —
    the OTel SDK metrics cardinality-limit semantic: per event_type,
    keep the top-5 users by event count (ties by user_id ASC) and fold
    every other user's count/cents into ONE overflow series
    (user_id = -1), so output cardinality is ≤ 6 rows per type no
    matter how many users exist. Raw rows reduce once to the skinny
    series table; the cap is one more bucket pass over those rows.
    Oracle = ROW_NUMBER() ranked series + UNION ALL overflow rollup."""
    from opentelemetry_collector_ray.stages.cardinality import (
        cardinality_cap)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "user_id": t.column("user_id"),
                         "cents_src": _cents(t.column("value"))})

    ds = _read_co(sf_dir, "events", ["event_type", "user_id", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return cardinality_cap(ds, "event_type", "user_id", 5,
                           overflow_value=-1, count_name="n",
                           sum_cols={"cents": "cents_src"})


def _q_events_late_arrivals(sf_dir: str):
    """Watermark / late-data audit (stages/temporal.py::late_arrivals)
    — the streaming allowed-lateness accounting, batch-exact: arrival
    order is simulated with a deterministic md5 network delay (first
    12 hex digits of md5(event_id) mod 24 h, the checksum lane's
    digest convention) added to event time; within each user's stream
    in arrival order, an event is late when its event time trails the
    running max of preceding event times by more than 1 h. One bucket
    exchange; lifted maximum.accumulate gives every stream's watermark
    at once. Oracle = MAX() OVER (... ROWS BETWEEN UNBOUNDED PRECEDING
    AND 1 PRECEDING) on the identical md5 arrival composite."""
    from opentelemetry_collector_ray.functions.text import md5_mod
    from opentelemetry_collector_ray.stages.temporal import late_arrivals

    day_us = 86_400_000_000

    def prep(t: pa.Table) -> pa.Table:
        ts_us = t.column("ts").cast(pa.int64())  # timestamp[us] native
        eid = t.column("event_id")
        delay = md5_mod(pc.cast(eid, pa.string()), day_us)
        arr = pc.add(ts_us, pa.array(delay))
        return pa.table({"user_id": t.column("user_id"),
                         "event_id": eid, "ts_us": ts_us,
                         "arr_us": arr})

    ds = _read_co(sf_dir, "events", ["event_id", "ts", "user_id"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return late_arrivals(ds, "user_id", ["arr_us", "event_id"], "ts_us",
                         allowed_lateness=3_600_000_000)


def _q_turns_oov_rate(sf_dir: str):
    """Vocabulary-coverage audit (stages/corpusstats.py::oov_stats)
    over the derived turn stream: vocabulary = terms with frequency
    >= 2 (a frequency threshold, not top-N — no tie-at-the-boundary
    nondeterminism), tokens = [a-z0-9]+ runs so the high-cardinality
    trace/uuid fragments in log lines register as singletons (the
    letters-only class was vacuous here — every letter run repeats);
    per turn: token count + how many fall outside the vocab. Two
    passes; the vocab is count-guarded, ray.put once, fetched once per
    actor; the turn pass never shuffles. Oracle = token explode +
    HAVING-thresholded term table + LEFT JOIN miss count."""
    from opentelemetry_collector_ray.stages.corpusstats import oov_stats

    return oov_stats(lambda: _turns(sf_dir), text_col="text",
                     id_cols=["conv_id", "turn_idx"], min_count=2,
                     split_pattern="[^a-z0-9]+")


def _q_spans_head_sampled(sf_dir: str):
    """Head-based consistent probability sampling
    (stages/spanops.py::head_sample — the probabilisticsampler analog;
    tail_sample is its whole-trace counterpart): keep all spans of
    traces whose md5(trace_id) 12-hex digest mod 1000 < 200. The
    decision is a pure function of the trace id, so this is a map-only
    filter with NO exchange — the head-sampling property itself.
    Oracle = identical digest predicate over SPANS_CTE."""
    from opentelemetry_collector_ray.stages.spanops import head_sample

    return head_sample(_spans(sf_dir), 200)


def _q_events_user_coverage(sf_dir: str):
    """Per-user active-time coverage: each event opens a 5-minute
    activity interval; merged per user (stages/intervals.py
    merge_intervals — associative per-block pre-merge, one bucket
    exchange), then one grouped rollup: how many distinct activity
    periods and how much total covered wall time each user has. The
    per-key aggregate ON TOP of the gaps-and-islands chain (the busy-
    periods gate checks the periods themselves). Oracle = SQL island
    chain + per-user SUM of merged lengths."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.intervals import (
        merge_intervals)

    WIN_US = 300_000_000

    def prep(t: pa.Table) -> pa.Table:
        s = t.column("ts").cast(pa.int64())
        return pa.table({"user_id": t.column("user_id"), "s": s,
                         "e": pc.add(s, pa.scalar(WIN_US, pa.int64()))})

    pre = _read_co(sf_dir, "events", ["user_id", "ts"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    merged = merge_intervals(pre, "user_id", "s", "e")

    def lengths(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t.column("user_id"),
            "len_us": pc.subtract(t.column("merged_end"),
                                  t.column("merged_start"))})

    per = merged.map_batches(lengths, batch_format="pyarrow")
    return grouped_count(per, ["user_id"], count_name="n_periods",
                         sum_cols={"covered_us": "len_us"})


def _q_events_alert_hysteresis(sf_dir: str):
    """Threshold alerting with hysteresis (stages/metricsops.py::
    hysteresis_alerts — the alertmanager firing/cleared state machine):
    per user in (ts, event_id) order, spend above 8000 cents fires,
    below 3500 clears, the dead band carries state (no flapping).
    The recurrence is LOCF over definitive signals, so one segment-
    lifted maximum.accumulate per bucket computes every user's alert
    state at once; per user: rows, firing rows, distinct episodes.
    Oracle = last_value(sig IGNORE NULLS) window + lag edge count."""
    from opentelemetry_collector_ray.stages.metricsops import (
        hysteresis_alerts)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "ts_us": t.column("ts").cast(pa.int64()),
                         "event_id": t.column("event_id"),
                         "cents": _cents(t.column("value"))})

    ds = _read_co(sf_dir, "events",
                  ["user_id", "ts", "event_id", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return hysteresis_alerts(ds, "user_id", ["ts_us", "event_id"],
                             "cents", high=8000, low=3500)


def _q_events_rank_movers(sf_dir: str):
    """Day-over-day rank movers — the trending-dashboard composition:
    per-day event-type leaderboard (counts → grouped_topk row_number
    rank, count DESC / type ASC total order), self-joined to the
    previous day on (type, day-1) through the bucket exchange, emitting
    each type's rank delta. Composes three existing operators (tree
    grouped count, top-k rank, composite-key shuffle join); oracle =
    window row_number + dated self-join."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count, grouped_topk)
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    DAY_US = 86_400_000_000

    def prep(t: pa.Table) -> pa.Table:
        day_us = pc.floor_temporal(t.column("ts"), unit="day") \
            .cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({"day_us": day_us,
                         "event_type": t.column("event_type")})

    ds = _read_co(sf_dir, "events", ["ts", "event_type"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    counts = grouped_count(ds, ["day_us", "event_type"],
                           count_name="n")
    ranked = grouped_topk(counts, "day_us", "n", k=1_000_000,
                          tiebreak="event_type", rank_name="rk")

    def mk_prev(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "prev_day_us": pc.add(t.column("day_us"),
                                  pa.scalar(DAY_US, pa.int64())),
            "prev_rk": t.column("rk")})

    prev = ranked.map_batches(mk_prev, batch_format="pyarrow")
    joined = shuffle_hash_join(
        ranked, prev, key=["event_type", "day_us"],
        right_key=["event_type", "prev_day_us"], how="inner")

    def finish(t: pa.Table) -> pa.Table:
        day = pc.strftime(t.column("day_us").cast(pa.timestamp("us")),
                          format="%Y-%m-%d")
        return pa.table({"day": day,
                         "event_type": t.column("event_type"),
                         "n": t.column("n"), "rk": t.column("rk"),
                         "prev_rk": t.column("prev_rk"),
                         "rank_delta": pc.subtract(t.column("prev_rk"),
                                                   t.column("rk"))})

    return joined.map_batches(finish, batch_format="pyarrow")


def _q_events_t_closeness(sf_dir: str):
    """t-closeness audit (stages/privacy.py::t_closeness — the third
    rung of the release ladder after k-anonymity/l-diversity): per
    (event_type # day-of-week) quasi group, the Wasserstein-1 distance
    between the group's spend-band distribution and the corpus's, as
    the exact integer lane w1_num = sum |N*cumG - n_g*cumA| * dv over
    the corpus grid (W1 = w1_num / (n_g*N); suppress when w1_num*den >
    num*n_g*N — no floats). One shuffle-partial (group, band) count,
    bounded grid broadcast, dense scatter + axis cumsum per bucket.
    Oracle = CROSS JOIN grid + per-group running sums."""
    from opentelemetry_collector_ray.stages.privacy import t_closeness

    def prep(t: pa.Table) -> pa.Table:
        dow = pc.strftime(t.column("ts"), format="%w")
        grp = pc.binary_join_element_wise(
            t.column("event_type"), dow, "#")
        band = pc.divide(_cents(t.column("value")),
                         pa.scalar(2000, pa.int64()))
        return pa.table({"grp": grp, "band": band})

    ds = _read_co(sf_dir, "events", ["ts", "event_type", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return t_closeness(ds, "grp", "band")


def _q_spans_apdex(sf_dir: str):
    """Apdex score per service (stages/spanops.py::apdex — the APM
    dashboard index over the spanmetrics-connector stream): satisfied
    <= 30 ms, tolerating <= 120 ms, apdex_permille = (2*sat+tol)*500
    // total as exact integers beside the raw counts. One indicator-
    lane map + the bounded-key tree aggregate. Oracle = FILTER counts
    + the same truncating integer division."""
    from opentelemetry_collector_ray.stages.spanops import apdex

    return apdex(_spans(sf_dir), 30_000)


def _q_events_delta_rate(sf_dir: str):
    """Delta→rate conversion (stages/temporal.py::delta_to_rate — the
    deltatorate processor analog): each user's spend delta becomes
    cents-per-second, exactly — value*1e6 // Δt_us with SQL-matching
    truncation (non-negative deltas validated loudly); a series' first
    point gets NULL, mirroring the reference dropping it. One bucket
    exchange. Oracle = lag() window + the same integer division."""
    from opentelemetry_collector_ray.stages.temporal import delta_to_rate

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "event_id": t.column("event_id"),
                         "ts_us": t.column("ts").cast(pa.int64()),
                         "cents": _cents(t.column("value"))})

    ds = _read_co(sf_dir, "events",
                  ["user_id", "event_id", "ts", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    out = delta_to_rate(ds, "user_id", "ts_us", "cents", "ts_us")
    return out.select_columns(["user_id", "event_id", "rate_scaled"])


def _q_spans_traceparent(sf_dir: str):
    """W3C traceparent propagation parse (functions/tracectx.py::
    parse_traceparent): headers synthesized from the span stream
    (version 00, md5 trace hex, span id, sampled = error status),
    ~1/16 deterministically corrupted; the parser's spec rules (shape
    regex, version != ff, non-zero ids) null out malformed rows, and
    the rollup counts version × sampled × parsed-or-not. One map pass
    (regex + fixed slices) + bounded tree aggregate. Oracle = same
    synth + substr/CASE rules."""
    from opentelemetry_collector_ray.functions.text import md5_hex
    from opentelemetry_collector_ray.functions.tracectx import (
        parse_traceparent)
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def prep(t: pa.Table) -> pa.Table:
        trace_hex = md5_hex(t.column("trace_id"))
        flags = pc.if_else(pc.equal(t.column("status_code"), 2),
                           "01", "00")
        tp = pc.binary_join_element_wise(
            pa.array(["00"] * t.num_rows), trace_hex,
            t.column("span_id").combine_chunks()
            if isinstance(t.column("span_id"), pa.ChunkedArray)
            else t.column("span_id"), flags, "-")
        corrupt = pc.equal(pc.utf8_slice_codeunits(
            md5_hex(t.column("span_id")), 0, 1), "0")
        tp = pc.if_else(corrupt, "garbage", tp)
        parsed = parse_traceparent(tp)
        return pa.table({"tp_version": parsed["tp_version"],
                         "tp_sampled": parsed["tp_sampled"]})

    pre = _spans(sf_dir).map_batches(prep, batch_format="pyarrow")
    return grouped_count(pre, ["tp_version", "tp_sampled"],
                         count_name="n")


def _q_events_syslog_pri(sf_dir: str):
    """Syslog PRI decode (functions/severity.py::decode_syslog_pri —
    the syslog receiver's RFC 5424 §6.2.1 ingest rule): PRI = facility*8
    + severity, mapped onto the plog severity bands; out-of-range PRI
    (192-199 planted via event_id % 200) nulls all three fields — the
    record survives, the priority doesn't. Pure integer lanes + the
    bounded tree aggregate. Oracle = // and % + a CASE band map."""
    from opentelemetry_collector_ray.functions.severity import (
        decode_syslog_pri)
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def prep(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        d = decode_syslog_pri(pa.array(eid % 200, pa.int64()))
        return pa.table(d)

    pre = _read_co(sf_dir, "events", ["event_id"], floor=8) \
        .map_batches(prep, batch_format="pyarrow")
    return grouped_count(
        pre, ["facility", "syslog_severity", "severity_number"],
        count_name="n")


def _q_docs_index_phrase(sf_dir: str):
    """Exact phrase query over the POSITIONAL inverted index
    (stages/ranking.py::build_positional_index / query_phrase): docs
    containing the exact token sequence 'table hash' — adjacency as
    integer arithmetic on (term, doc, pos) postings, partition-pruned
    reads per term, one skinny (doc, anchor) SEMI join. Oracle = token
    stream rebuilt in SQL (array_to_string of the same [a-z]+ extract)
    + a padded substring containment check — exact token adjacency."""
    import tempfile

    from opentelemetry_collector_ray.stages.ranking import (
        build_positional_index, query_phrase)

    idx = tempfile.mkdtemp(prefix="posindex_", dir="/tmp")
    # 16 buckets for the 500-doc demo corpus: the build is a fixed
    # per-bucket overhead at this size (64 buckets cost 4.8 s, 16 cost
    # ~2 s); at scale the bucket count follows the term mass instead
    build_positional_index(
        _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8), idx,
        n_buckets=16)
    return query_phrase(idx, ["table", "hash"], n_buckets=16)


def _q_turns_conv_digest(sf_dir: str):
    """Per-conversation ordered-content digest — the north rule's
    byte-equality invariant ('per-turn text byte-equal under stable
    (conv_id, turn_idx) ordering') as a direct hash gate: each conv's
    turn texts concatenated in turn order (grouped_string_agg — one
    bucket exchange, one binary_join per bucket) and md5-digested, so
    ANY byte drift, reorder, or lost turn anywhere in the derive path
    flips the value hash. Oracle = md5(string_agg(text ORDER BY
    turn_idx))."""
    from opentelemetry_collector_ray.functions.text import md5_hex
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_string_agg)

    def check_sep(t: pa.Table) -> pa.Table:
        # the digest's injectivity requires the separator to be absent
        # from every turn text — a newline INSIDE a turn would make
        # ['a\nb'] and ['a','b'] collide and skew the separator-derived
        # n_turns; raise loudly instead of hashing a lie
        hits = pc.sum(pc.count_substring(t.column("text"),
                                         pattern="\n")).as_py()
        if hits:
            raise ValueError(
                "turns_conv_digest: turn text contains the '\\n' "
                "separator — pick a separator outside the alphabet")
        return t

    turns = _turns(sf_dir).map_batches(check_sep, batch_format="pyarrow")
    agg = grouped_string_agg(turns, "conv_id", ["turn_idx"],
                             "text", sep="\n", out_name="joined")

    def digest(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "n_turns": pc.add(pc.count_substring(
                t.column("joined"), pattern="\n"),
                pa.scalar(1, pa.int64())).cast(pa.int64()),
            "content_md5": md5_hex(t.column("joined"))})

    return agg.map_batches(digest, batch_format="pyarrow")


def _q_turns_response_latency(sf_dir: str):
    """Per-conversation assistant response latency — the transcript-
    analytics rollup a conversation pipeline reports: for every
    assistant turn, the gap to the PRECEDING turn (any role), then per
    conv the response count and total/max latency. One per_key_window
    lag pass + one bucket grouped_agg (count/sum/max in a single
    exchange). Oracle = lag() window + FILTERed aggregates."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "role": t.column("role"),
                         "ts_us": t.column("ts").cast(pa.int64())})

    lagged = per_key_window(
        _turns(sf_dir).map_batches(prep, batch_format="pyarrow"),
        "conv_id", ["turn_idx"], {"prev_ts": ("lag", "ts_us")})

    def lat(t: pa.Table) -> pa.Table:
        is_resp = pc.and_(pc.equal(t.column("role"), "assistant"),
                          pc.is_valid(t.column("prev_ts")))
        f = t.filter(is_resp)
        return pa.table({
            "conv_id": f.column("conv_id"),
            "lat_us": pc.subtract(f.column("ts_us"),
                                  f.column("prev_ts"))})

    per = lagged.map_batches(lat, batch_format="pyarrow")
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    return grouped_agg(per, ["conv_id"], count_name="n_responses",
                       sum_cols={"total_lat_us": "lat_us"},
                       max_cols={"max_lat_us": "lat_us"})


def _q_events_snowflake(sf_dir: str):
    """Snowflake-id decode (functions/timefn.py::decode_snowflake —
    the [41-bit ms ts | 10-bit machine | 12-bit seq] layout): ids
    synthesized from the event stream (ts ms << 22 | user%1024 << 12 |
    event_id%4096), decoded back with pure bit arithmetic, and rolled
    up per machine: id count, distinct sequence values, min/max
    embedded timestamp — the id-forensics pass a log pipeline runs on
    ingest. Oracle = the same shifts/masks in SQL."""
    from opentelemetry_collector_ray.functions.timefn import (
        decode_snowflake)
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_count)
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    def prep(t: pa.Table) -> pa.Table:
        ts_ms = t.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False) // 1000
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        sf = (ts_ms << 22) | ((uid % 1024) << 12) | (eid % 4096)
        d = decode_snowflake(pa.array(sf, pa.int64()))
        return pa.table(d)

    ds = _read_co(sf_dir, "events", ["ts", "user_id", "event_id"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    # both lanes are DOMAIN-bounded (1024 machines; 1024×4096 pairs):
    # two grouped aggregates and a 1024-row join, no count-distinct
    rollup = grouped_agg(ds, ["sf_machine"], count_name="n",
                         min_cols={"first_ts_ms": "sf_ts_ms"},
                         max_cols={"last_ts_ms": "sf_ts_ms"})
    pairs = grouped_count(ds.select_columns(["sf_machine", "sf_seq"]),
                          ["sf_machine", "sf_seq"], count_name="_np")
    nseq = grouped_count(pairs.select_columns(["sf_machine"]),
                         ["sf_machine"], count_name="n_seqs")
    return shuffle_hash_join(rollup, nseq, key=["sf_machine"],
                             how="inner")


def _q_turns_span_correlation(sf_dir: str):
    """Logs ↔ traces correlation — the cross-signal join every OTel
    backend offers ('show me the logs for this trace'): the parse
    stage's extracted trace attribute joins the span stream on span id
    (one composite bucket exchange), then a per-(service, level)
    rollup of correlated log lines and error-status spans. Oracle =
    the same regex extract + equi-join over both derived CTEs."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    logs = _parsed(sf_dir).map_batches(
        lambda t: t.filter(pc.is_valid(t.column("trace")))
        .select(["trace", "level"]),
        batch_format="pyarrow")
    spans = _spans(sf_dir).map_batches(
        lambda t: pa.table({"span_id": t.column("span_id"),
                            "service": t.column("service"),
                            "status_code": t.column("status_code")}),
        batch_format="pyarrow")
    joined = shuffle_hash_join(logs, spans, key=["trace"],
                               right_key=["span_id"], how="inner")

    def lanes(t: pa.Table) -> pa.Table:
        return pa.table({
            "service": t.column("service"),
            "level": t.column("level"),
            "_err": pc.cast(pc.equal(t.column("status_code"), 2),
                            pa.int64())})

    return grouped_count(joined.map_batches(lanes,
                                            batch_format="pyarrow"),
                         ["service", "level"], count_name="n_logs",
                         sum_cols={"n_error_spans": "_err"})


def _q_events_bounce_rate(sf_dir: str):
    """Sessionized bounce rate — the web-analytics rollup ON TOP of
    the 30-minute-gap sessionizer: per user, session count, single-
    event ('bounce') session count, and bounce permille with
    SQL-matching truncation. One composition: session_stats (bucket
    exchange) → indicator lanes → bucket grouped count. Oracle = the
    session window chain + FILTERed counts + the same // division."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.sessionize import session_stats

    ev = _read_co(sf_dir, "events", ["user_id", "event_id", "ts"],
                  floor=8)
    sess = session_stats(ev, key="user_id", ts_col="ts",
                         gap_minutes=30)

    def lanes(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t.column("user_id"),
            "_b": pc.cast(pc.equal(t.column("n_events"), 1),
                          pa.int64())})

    per = grouped_count(sess.map_batches(lanes, batch_format="pyarrow"),
                        ["user_id"], count_name="n_sessions",
                        sum_cols={"n_bounce": "_b"})

    def permille(t: pa.Table) -> pa.Table:
        ns = t.column("n_sessions").to_numpy(zero_copy_only=False)
        nb = t.column("n_bounce").to_numpy(zero_copy_only=False)
        out = np.zeros(len(ns), np.int64)
        nz = ns > 0
        out[nz] = nb[nz] * 1000 // ns[nz]
        return t.append_column("bounce_permille", pa.array(out))

    return per.map_batches(permille, batch_format="pyarrow")


def _q_events_iat_parts(sf_dir: str):
    """Inter-arrival burstiness lanes — the traffic-shape statistic
    behind rate forecasting and anomaly baselines: per user, the
    sufficient statistics (n_gaps, sum_s, sum_s2) of inter-arrival
    SECONDS (truncated; non-negative so floor == SQL //), from which
    the caller derives mean/variance/CV² as their floats — the
    corr_parts lanes-only discipline. One per_key_window delta pass +
    one bucket grouped sum; sum_s2 magnitude fits int64 by the 30-day
    gap bound (loudly guarded). Oracle = lag() window + the same
    truncating division and sums."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.window import per_key_window

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "event_id": t.column("event_id"),
                         "ts_us": t.column("ts").cast(pa.int64())})

    lagged = per_key_window(
        _read_co(sf_dir, "events", ["user_id", "event_id", "ts"],
                 floor=8).map_batches(prep, batch_format="pyarrow"),
        "user_id", ["ts_us", "event_id"],
        {"dt_us": ("delta", "ts_us")})

    def lanes(t: pa.Table) -> pa.Table:
        f = t.filter(pc.is_valid(t.column("dt_us")))
        dt = f.column("dt_us").to_numpy(zero_copy_only=False)
        dt_s = dt // 1_000_000
        if len(dt_s) and int(dt_s.max()) > 3_000_000_000:
            raise ValueError("events_iat_parts: a gap above ~95 years "
                             "would overflow the squared lane")
        return pa.table({"user_id": f.column("user_id"),
                         "_s": pa.array(dt_s),
                         "_s2": pa.array(dt_s * dt_s)})

    return grouped_count(lagged.map_batches(lanes,
                                            batch_format="pyarrow"),
                         ["user_id"], count_name="n_gaps",
                         sum_cols={"sum_s": "_s", "sum_s2": "_s2"})


def _q_events_ring_assign(sf_dir: str):
    """Consistent-hash ring routing (stages/route.py::ring_assign —
    the loadbalancing exporter's keying rule): four backends × 8
    vnodes on the md5 12-hex ring; every event's user keys to the
    first ring position at or after its own hash (wrapping), and the
    rollup counts events per (backend, event_type). Map-only — the
    ring rides the closure, assignment is one searchsorted per batch,
    NO exchange. Oracle = identical md5 ring + MIN-over-ring lookup."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.route import ring_assign

    ds = _read_co(sf_dir, "events", ["user_id", "event_type"], floor=8)
    assigned = ring_assign(ds, "user_id",
                           ["be-a", "be-b", "be-c", "be-d"], vnodes=8)
    return grouped_count(
        assigned.select_columns(["backend", "event_type"]),
        ["backend", "event_type"], count_name="n")


def _q_events_hrw_assign(sf_dir: str):
    """Rendezvous-hash routing (stages/route.py::rendezvous_assign —
    highest-random-weight, the vnode-free sibling of the ring): four
    backends compete per user key via md5 weights, argmax wins; the
    rollup counts events per (backend, event_type). Map-only, NO
    exchange. Oracle = the identical md5 weight expression +
    row_number() pick per user."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.route import rendezvous_assign

    ds = _read_co(sf_dir, "events", ["user_id", "event_type"], floor=8)
    assigned = rendezvous_assign(ds, "user_id",
                                 ["be-a", "be-b", "be-c", "be-d"])
    return grouped_count(
        assigned.select_columns(["backend", "event_type"]),
        ["backend", "event_type"], count_name="n")


def _q_turns_missing_idx(sf_dir: str):
    """Sequence-completeness audit (stages/validate.py::sequence_gaps —
    the dropped-record detector over dense per-stream indices): a
    deterministic md5 rule drops ~10% of turns to plant real gaps, then
    every conversation reports present/missing counts and its FIRST
    missing turn_idx. One conv-bucket exchange, segment-vectorized.
    Oracle = the identical md5 drop + rank-window min-gap SQL."""
    from opentelemetry_collector_ray.functions.text import md5_mod
    from opentelemetry_collector_ray.stages.validate import sequence_gaps

    def drop(t: pa.Table) -> pa.Table:
        keyed = pc.binary_join_element_wise(
            t.column("conv_id"), pc.cast(t.column("turn_idx"),
                                         pa.string()), "#")
        h = md5_mod(keyed, 1000)
        return t.filter(pa.array(h >= 100))

    turns = _turns(sf_dir).select_columns(["conv_id", "turn_idx"]) \
        .map_batches(drop, batch_format="pyarrow")
    return sequence_gaps(turns, "conv_id", "turn_idx")


def _q_events_seasonal_outliers(sf_dir: str):
    """Seasonal-baseline anomaly cells: hourly traffic compared against
    its own (day-of-week × hour-of-day) history — the composition of
    the heatmap rollup with sigma_outliers' exact integer inequality
    ((n·c − s1)² > k²·(n·s2 − s1²) per seasonal slot). The corpus
    reduces once to (day, slot, count) cells (persist='memory' so the
    two-pass operator never re-scans), then both sigma passes run over
    the tiny cell table. k=1 deliberately — the synthetic traffic is
    seasonless, a 1-sigma fence is where the gate has teeth."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.normalize import sigma_outliers

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        day = us // 86_400_000_000
        hour = (us % 86_400_000_000) // 3_600_000_000
        dh = (day % 7) * 24 + hour
        return pa.table({"day": pa.array(day.astype(np.int64)),
                         "dh": pa.array(dh.astype(np.int64))})

    def make():
        return grouped_count(
            _read_co(sf_dir, "events", ["ts"], floor=8)
            .map_batches(prep, batch_format="pyarrow"),
            ["day", "dh"], count_name="c")

    return sigma_outliers(make, "c", key="dh", k=1,
                          flag_col="is_anomaly", persist="memory")


def _q_events_balanced_sample(sf_dir: str):
    """Class-balanced downsample (the class-imbalance fix before
    training a classifier): every event_type keeps exactly
    min-class-size rows via the deterministic md5 bottom-k rule. The
    class-count table is BOUNDED (5 types) — one tree aggregate pulls
    it to the driver to fix k, then sample_bottom_k_by does the
    unbounded-group work. Oracle = the same md5 rank window with k
    from a scalar subquery."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.sampling import (
        sample_bottom_k_by)

    ds = _read_co(sf_dir, "events", ["event_id", "event_type"], floor=8)
    counts = grouped_count(ds, ["event_type"], count_name="n").to_pandas()
    k = int(counts["n"].min())
    return sample_bottom_k_by(ds, k, "event_id", "event_type",
                              hash_mode="md5")


def _q_parts_kcore(sf_dir: str):
    """k-core of the part↔supplier co-purchase graph (stages/graph.py::
    kcore — iterative peeling; rows-only like pagerank: the fixpoint
    is planted-truth-tested, not SQL-expressible without iteration).
    k is data-relative — the median per-part distinct-supplier degree,
    read off a bounded count table — so the core stays non-trivial at
    every scale factor (a fixed k is vacuous: degrees grow with SF).
    Surviving nodes with their in-core degree."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.graph import kcore

    def make():
        return _read_co(sf_dir, "lineitem",
                        ["l_partkey", "l_suppkey"], floor=8).map_batches(
            lambda t: pa.table({
                "src": pc.binary_join_element_wise(
                    "p", pc.cast(t.column("l_partkey"), pa.string()), ""),
                "dst": pc.binary_join_element_wise(
                    "s", pc.cast(t.column("l_suppkey"), pa.string()), ""),
            }), batch_format="pyarrow")

    pairs = grouped_count(make(), ["src", "dst"], count_name="_m")
    pdeg = grouped_count(pairs.select_columns(["src"]), ["src"],
                         count_name="n").to_pandas()
    k = int(np.median(pdeg["n"].to_numpy()))
    return kcore(make, "src", "dst", k=k)


def _q_events_fair_quota(sf_dir: str):
    """Max-min fair quota (stages/mixing.py::fair_quota — the
    water-filling admission rule for multi-tenant ingest): 25 tenants
    (event_type # user%5) demand their event counts against a
    capacity of 60% of the stream; every tenant gets min(demand,
    floor(water level)), small tenants never starved. Exact integers
    end to end; only the skinny demand table reaches the driver.
    Oracle = window prefix sums + the same truncating division."""
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.stages.mixing import fair_quota

    total = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    cap = 3 * total // 5

    def prep(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        part = pa.array((uid % 5).astype("U1"))
        return pa.table({"tenant": pc.binary_join_element_wise(
            t.column("event_type"), part, "#")})

    ds = _read_co(sf_dir, "events", ["event_type", "user_id"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return fair_quota(ds, "tenant", cap)


def _q_events_interpolated(sf_dir: str):
    """Linear-interpolation gap fill (stages/resample.py::
    resample_interp — the LOCF resampler's sibling for continuous
    gauges): per user, a daily grid carries the value linearly
    interpolated between the surrounding observations as exact
    integers (truncation-toward-zero mirrors SQL //; negative deltas
    are where Python floor would silently diverge). Observations
    pre-aggregated to one per (user, ts); ONE bucket exchange, grids
    generated in-task, both neighbors via one lifted searchsorted.
    Oracle = generate_series grid + correlated neighbor lookups + the
    same truncating division."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.resample import (
        resample_interp)

    DAY_US = 86_400_000_000

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "tu": t.column("ts").cast(pa.int64()),
                         "cents": _cents(t.column("value"))})

    obs = grouped_agg(
        _read_co(sf_dir, "events", ["user_id", "ts", "value"],
                 floor=8).map_batches(prep, batch_format="pyarrow"),
        ["user_id", "tu"], max_cols={"cv": "cents"})
    return resample_interp(obs, "user_id", "tu", "cv", DAY_US)


def _q_events_quantile_map(sf_dir: str):
    """Quantile mapping (stages/normalize.py::quantile_map — the
    distribution-matching remap for score harmonization): every other
    event type's spend-band distribution mapped onto 'view''s scale —
    each distinct band goes to the reference band at the same quantile
    position, via the exact integer rank rule (n_ref−1)·r // (n_S−1)
    and the quantile_disc cumulative lookup. The corpus reduces once
    to the (slice, value) count table; the mapping is one driver pass
    over that skinny table. Oracle = window cumsums + the same
    truncating division + MIN-over-cumulative lookup."""
    from opentelemetry_collector_ray.stages.normalize import quantile_map

    def prep(t: pa.Table) -> pa.Table:
        band = pc.divide(_cents(t.column("value")),
                         pa.scalar(100, pa.int64()))
        return pa.table({"event_type": t.column("event_type"),
                         "v": band})

    ds = _read_co(sf_dir, "events", ["event_type", "value"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return quantile_map(ds, "event_type", "v", "view")


def _q_turns_context_window(sf_dir: str):
    """Context-window truncation (stages/packing.py::tail_budget — the
    chat-assembly step of LLM serving/training): per conversation keep
    the TRAILING turns whose whitespace-token count, summed from the
    last turn backward, fits a 64-token model context; ``suffix_tok``
    carries the running budget use. ONE bucket exchange, one sort +
    rebased cumsum per bucket. Oracle = the reverse-ordered ROWS-frame
    SUM with the same <= filter."""
    from opentelemetry_collector_ray.stages.packing import tail_budget

    def prep(t: pa.Table) -> pa.Table:
        n_tok = pc.add(pc.count_substring(t.column("text"), " "),
                       pa.scalar(1, pa.int32()))
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "n_tok": pc.cast(n_tok, pa.int64())})

    ds = _turns(sf_dir).map_batches(prep, batch_format="pyarrow")
    return tail_budget(ds, "conv_id", ["turn_idx"], "n_tok", 64,
                       out_col="suffix_tok")


def _q_spans_slo_burn(sf_dir: str):
    """Multi-window SLO burn-rate alert (stages/metricsops.py::slo_burn
    — the SRE-workbook multiwindow policy over the span feed): per
    service, the trailing 1 h / 6 h latency-SLO violation counts
    (duration > 75 ms) and span totals at every span; ``burning`` when
    the violation rate exceeds 250 permille in BOTH windows — integer
    inequality, never a float rate. All four RANGE lanes ride ONE
    bucket exchange (the frames share the segment-lifted searchsorted
    composite). Oracle = two SQL RANGE frames + the same inequality."""
    from opentelemetry_collector_ray.stages.metricsops import slo_burn

    def prep(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t.column("start_ts"), pa.timestamp("us")),
                        pa.int64())
        slow = pc.greater(t.column("duration_us"),
                          pa.scalar(75_000, pa.int64()))
        return pa.table({"service": t.column("service"),
                         "span_id": t.column("span_id"),
                         "ts_us": ts_us,
                         "is_err": pc.cast(slow, pa.int64())})

    pre = _spans(sf_dir).map_batches(prep, batch_format="pyarrow")
    return slo_burn(pre, "service", "ts_us", "is_err",
                    3_600_000_000, 21_600_000_000, 250,
                    id_cols=["span_id"])


def _q_events_exphist_downscale(sf_dir: str):
    """Exponential-histogram downscale (stages/metricsops.py::
    exphist_downscale — the OTel bucket-budget scale reduction,
    reference pmetric/exponential_histogram_data_point.go): the scale-0
    cents histogram per event type merged to scale −2 via idx >> 2,
    zero bucket (NULL idx) passing through. Perfect subsetting means
    the result equals the coarse histogram computed directly — which is
    exactly what the oracle does, with the SQL floor-div identity
    (DuckDB // truncates; idx can be −1)."""
    from opentelemetry_collector_ray.stages.metricsops import (
        exp_histogram, exphist_downscale)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    pre = _read_co(sf_dir, "events", ["event_type", "value"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    hist = exp_histogram(pre, keys=["event_type"], value_col="cents",
                         scale=0)
    return exphist_downscale(hist, ["event_type"], shift=2)


def _q_docs_rater_kappa(sf_dir: str):
    """Cohen's kappa between two rule raters per language
    (stages/agreement.py::rater_agreement — the annotation-quality
    audit): rater A bands n_chars at (250, 400), rater B bands the
    whitespace token count at (45, 72) — correlated but not identical,
    so chance-corrected agreement is informative. Exact integer lanes
    (n, n_agree, pe_num) + truncating kappa permille; the corpus
    reduces once to the (lang, a, b) count table."""
    from opentelemetry_collector_ray.stages.agreement import rater_agreement

    def prep(t: pa.Table) -> pa.Table:
        nc = t.column("n_chars")
        a = pc.add(pc.cast(pc.greater_equal(nc, 250), pa.int64()),
                   pc.cast(pc.greater_equal(nc, 400), pa.int64()))
        ntok = pc.add(pc.count_substring(t.column("text"), " "),
                      pa.scalar(1, pa.int32()))
        b = pc.add(pc.cast(pc.greater_equal(ntok, 45), pa.int64()),
                   pc.cast(pc.greater_equal(ntok, 72), pa.int64()))
        return pa.table({"lang": t.column("lang"), "a": a, "b": b})

    ds = _read_co(sf_dir, "documents", ["lang", "n_chars", "text"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return rater_agreement(ds, "lang", "a", "b")


def _q_turns_alternation(sf_dir: str):
    """Chat-template alternation audit (per_key_window lag/first/last
    values + one bucket aggregate — the validation every SFT data-prep
    pass runs before templating): per conversation the turn count, the
    adjacent same-role repeats (strict alternation violations), and the
    opening/closing roles. Oracle = SQL lag/first_value/last_value +
    GROUP BY."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.window import per_key_window

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "role": t.column("role")})

    win = per_key_window(
        _turns(sf_dir).map_batches(proj, batch_format="pyarrow"),
        "conv_id", ["turn_idx"],
        {"prev_role": ("lag", "role"),
         "first_role": ("first_value", "role"),
         "last_role": ("last_value", "role")})

    def lanes(t: pa.Table) -> pa.Table:
        rep = pc.cast(pc.equal(t.column("role"),
                               pc.fill_null(t.column("prev_role"), "")),
                      pa.int64())
        return pa.table({"conv_id": t.column("conv_id"),
                         "first_role": t.column("first_role"),
                         "last_role": t.column("last_role"),
                         "is_repeat": rep})

    pre = win.map_batches(lanes, batch_format="pyarrow")
    return grouped_agg(pre, ["conv_id", "first_role", "last_role"],
                       count_name="n_turns",
                       sum_cols={"n_repeats": "is_repeat"})


def _q_docs_screen_eval(sf_dir: str):
    """Screening-model scorecard (stages/agreement.py::binary_eval —
    the confusion-matrix + precision/recall/F1 gate every quality-model
    deploy reads): per language, a char-length screen (n_chars ≥ 280)
    evaluated against the token-count ground truth (whitespace tokens ≥
    50). All lanes exact integers; permilles truncate like DuckDB //.
    Four indicator lanes, ONE two-phase aggregate."""
    from opentelemetry_collector_ray.stages.agreement import binary_eval

    def prep(t: pa.Table) -> pa.Table:
        pred = pc.cast(pc.greater_equal(t.column("n_chars"),
                                        pa.scalar(280, pa.int64())),
                       pa.int64())
        ntok = pc.add(pc.count_substring(t.column("text"), " "),
                      pa.scalar(1, pa.int32()))
        label = pc.cast(pc.greater_equal(ntok, pa.scalar(50, pa.int32())),
                        pa.int64())
        return pa.table({"lang": t.column("lang"), "pred": pred,
                         "label": label})

    ds = _read_co(sf_dir, "documents", ["lang", "n_chars", "text"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return binary_eval(ds, ["lang"], "pred", "label")


def _q_events_value_auc(sf_dir: str):
    """Exact per-slice ROC AUC (stages/agreement.py::grouped_auc — the
    threshold-free ranking audit of a score against binary truth, via
    the Mann–Whitney midrank identity): per event type, how well the
    dime-banded spend ranks even event ids. Dime banding forces heavy
    score ties, exercising the half-credit midrank lane; u2 keeps
    everything integer. Oracle = the SQL rank()/peer-count identity
    2·R_pos − n_pos·(n_pos+1)."""
    from opentelemetry_collector_ray.stages.agreement import grouped_auc

    def prep(t: pa.Table) -> pa.Table:
        dimes = pc.cast(pc.floor(pc.multiply(t.column("value"),
                                             pa.scalar(10.0))), pa.int64())
        label = pc.cast(pc.equal(pc.bit_wise_and(t.column("event_id"),
                                                 pa.scalar(1, pa.int64())),
                                 pa.scalar(0, pa.int64())), pa.int64())
        return pa.table({"event_type": t.column("event_type"),
                         "score": dimes, "label": label})

    ds = _read_co(sf_dir, "events", ["event_type", "value", "event_id"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return grouped_auc(ds, "event_type", "score", "label")


def _q_events_user_gini(sf_dir: str):
    """Per-user event-mix Gini impurity (stages/agreement.py::
    gini_impurity — the class-diversity lane behind slice-skew audits):
    1 − Σp_c² over each user's event types as exact rationals
    (gini_num = n² − Σn_c², permille floor-divided — numerator is
    non-negative so floor == truncate). Keys unbounded: the corpus
    reduces to the (user, type) count table first."""
    from opentelemetry_collector_ray.stages.agreement import gini_impurity

    ds = _read_co(sf_dir, "events", ["user_id", "event_type"], floor=8)
    return gini_impurity(ds, "user_id", "event_type")


def _q_events_exphist_p99(sf_dir: str):
    """p99 FROM the exponential histogram (stages/metricsops.py::
    exphist_quantile — the DDSketch-style read side of the OTel
    exp-histogram pair): per event type, the scale-0 bucket index
    holding the 99th-percentile spend. The bucket decision is exact
    integer arithmetic (quantile_disc rank rule, zero bucket NULLS
    FIRST); the oracle recomputes the histogram and walks the same
    cumulative in SQL."""
    from opentelemetry_collector_ray.stages.metricsops import (
        exp_histogram, exphist_quantile)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    pre = _read_co(sf_dir, "events", ["event_type", "value"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    hist = exp_histogram(pre, keys=["event_type"], value_col="cents",
                         scale=0)
    return exphist_quantile(hist, "event_type", 990)


def _q_events_logfmt(sf_dir: str):
    """Logfmt parse (functions/text.py::parse_kv — the OTTL
    ParseKeyValue converter analog, reference
    ottl/ottlfuncs/func_parse_key_value.go): render each event as a
    ``k=v`` log line (with a quoted free-text field), then invert it
    with one RE2 extract per key. Both engines construct the identical
    line and run the identical RE2 pattern, so the parser sits behind
    the exact hash gate."""
    from opentelemetry_collector_ray.functions.text import parse_kv

    def prep(t: pa.Table) -> pa.Table:
        uid = pc.cast(t.column("user_id"), pa.string())
        cents = pc.cast(_cents(t.column("value")), pa.string())
        et = t.column("event_type")
        line = pc.binary_join_element_wise(
            "level=", et, " user=", uid, " cents=", cents,
            ' note="user ', uid, " did ", et, '"', "")
        kv = parse_kv(line, ["level", "user", "cents", "note"])
        return pa.table({"event_id": t.column("event_id"),
                         "level": kv["level"], "user_s": kv["user"],
                         "cents_s": kv["cents"], "note": kv["note"]})

    return _read_co(sf_dir, "events",
                    ["event_id", "event_type", "user_id", "value"],
                    floor=8).map_batches(prep, batch_format="pyarrow")


def _q_spans_deepest_path(sf_dir: str):
    """Per-trace deepest root-to-leaf duration sum
    (stages/spanops.py::trace_deepest_path — the flame-graph "longest
    chain" rollup, an upper bound on the critical path): pointer
    doubling with value accumulation inside one trace-bucket exchange,
    O(log depth) numpy rounds. Oracle = a recursive CTE accumulating
    duration along parent links (orphan links = chain roots, matching
    span_depth)."""
    from opentelemetry_collector_ray.stages.spanops import (
        trace_deepest_path)

    return trace_deepest_path(_spans(sf_dir))


def _q_events_series_staleness(sf_dir: str):
    """Series lifecycle / staleness audit (the metrics-SDK "stale
    series" sweep over an unbounded series keyspace): per user series
    the first/last timestamp and point count, plus a ``stale`` flag —
    no point in the trailing 24 h relative to the corpus watermark.
    Two-phase min/max aggregate; the watermark is ONE tiny driver
    scalar broadcast into the flag lane (never a per-row join)."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def prep(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                        pa.int64())
        return pa.table({"user_id": t.column("user_id"), "ts_us": ts_us})

    pre = _read_co(sf_dir, "events", ["user_id", "ts"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    agg = grouped_agg(pre, ["user_id"], count_name="n_points",
                      min_cols={"first_us": "ts_us"},
                      max_cols={"last_us": "ts_us"}).materialize()
    import pyarrow.compute as _pc
    wm = agg.max("last_us")

    def flag(t: pa.Table) -> pa.Table:
        stale = _pc.cast(_pc.less(t.column("last_us"),
                                  pa.scalar(int(wm) - 86_400_000_000,
                                            pa.int64())), pa.int64())
        return t.append_column("stale", stale)

    return agg.map_batches(flag, batch_format="pyarrow")


def _q_customers_near_names(sf_dir: str):
    """Blocked edit-distance SELF-join (stages/fuzzy.py::
    edit_distance_pairs — the entity-resolution pair-discovery step;
    fuzzy_lookup is the broadcast small-dictionary sibling): all
    customer-name pairs within Levenshtein distance 1, blocked on the
    first SEVEN digits of the customer number — blocks of 100
    consecutive ids, so pairs differing in a higher digit are excluded
    by design (the standard blocking recall trade) — and length-banded
    inside the block. The pairwise prefix-min DP scores every
    candidate pair in one vectorized pass; DuckDB's character-level
    levenshtein equals the byte-level lane on this ASCII corpus."""
    from opentelemetry_collector_ray.stages.fuzzy import (
        edit_distance_pairs)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t.column("c_custkey"),
            "c_name": t.column("c_name"),
            "blk": pc.utf8_slice_codeunits(t.column("c_name"), 9, 16)})

    ds = _read_co(sf_dir, "customer", ["c_custkey", "c_name"],
                  floor=4).map_batches(prep, batch_format="pyarrow")
    return edit_distance_pairs(ds, "c_custkey", "c_name", 1,
                               block_col="blk")


def _q_events_rolling_extrema(sf_dir: str):
    """Rolling window extrema (stages/window.py::per_key_window
    rolling_max/rolling_min/moving_max — the sparse-table range-query
    lanes completing the window family): per user the 7-day trailing
    max and min spend (RANGE frame) and the 3-row trailing max (ROWS
    frame), all riding ONE bucket exchange. Oracle = the same three
    SQL frames."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    def prep(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                        pa.int64())
        return pa.table({"user_id": t.column("user_id"),
                         "event_id": t.column("event_id"),
                         "ts_us": ts_us,
                         "cents": _cents(t.column("value"))})

    pre = _read_co(sf_dir, "events",
                   ["user_id", "event_id", "ts", "value"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    week = 7 * 86_400_000_000
    return per_key_window(
        pre, "user_id", ["ts_us", "event_id"],
        {"max_7d": ("rolling_max", "cents", week),
         "min_7d": ("rolling_min", "cents", week),
         "max_3r": ("moving_max", "cents", 3)})


def _q_events_exemplars(sf_dir: str):
    """Exemplar selection per histogram bucket (the OTel exemplar
    semantic — pmetric keeps a representative recorded value per
    bucket; reference pdata/pmetric/generated_exemplar.go): for every
    (event_type, scale-0 bucket) the single highest-spend event wins,
    ties broken by the smallest event id. One latest_by_key compaction
    over the composite bucket key — order (cents asc, -id asc) makes
    'last' = (max cents, min id). Oracle = the ROW_NUMBER() = 1
    window."""
    from opentelemetry_collector_ray.stages.cdc import latest_by_key
    from opentelemetry_collector_ray.stages.metricsops import (
        exp_bucket_index)

    def prep(t: pa.Table) -> pa.Table:
        cents = _cents(t.column("value"))
        cn = cents.to_numpy(zero_copy_only=False)
        nonzero = cn > 0
        idx = np.where(nonzero,
                       exp_bucket_index(np.where(nonzero, cn, 1.0)), 0)
        idx_arr = pa.array(idx.astype(np.int64), pa.int64(),
                           mask=~nonzero)
        ek = pc.binary_join_element_wise(
            t.column("event_type"),
            pc.fill_null(pc.cast(idx_arr, pa.string()), "zero"), "\x1f")
        return pa.table({
            "_ek": ek, "event_type": t.column("event_type"),
            "idx": idx_arr, "cents": cents,
            "event_id": t.column("event_id"),
            "_neg_id": pc.negate(t.column("event_id"))})

    pre = _read_co(sf_dir, "events", ["event_type", "value", "event_id"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    best = latest_by_key(pre, "_ek", ["cents", "_neg_id"], keep="last")
    return best.select_columns(["event_type", "idx", "cents",
                                "event_id"])


def _q_docs_calibration(sf_dir: str):
    """Reliability-diagram bins (the calibration audit behind every
    score-threshold decision): documents bucketed by a char-length
    score band, per bin the count, positives (token-rich docs) and the
    truncating positive-rate permille — all exact integers through one
    two-phase aggregate."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def prep(t: pa.Table) -> pa.Table:
        nc = t.column("n_chars").to_numpy(zero_copy_only=False)
        bin_ = np.minimum(nc // 50, 9).astype(np.int64)
        ntok = pc.add(pc.count_substring(t.column("text"), " "),
                      pa.scalar(1, pa.int32()))
        pos = pc.cast(pc.greater_equal(ntok, pa.scalar(50, pa.int32())),
                      pa.int64())
        return pa.table({"bin": pa.array(bin_), "pos": pos})

    pre = _read_co(sf_dir, "documents", ["n_chars", "text"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    agg = grouped_agg(pre, ["bin"], count_name="n",
                      sum_cols={"n_pos": "pos"})

    def lanes(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        p = t.column("n_pos").to_numpy(zero_copy_only=False)
        return t.append_column("pos_permille",
                               pa.array((1000 * p) // n, pa.int64()))

    return agg.map_batches(lanes, batch_format="pyarrow")


def _q_events_user_streak(sf_dir: str):
    """Longest consecutive-day activity streak per user
    (stages/sessionize.py::longest_run — the gaps-and-islands idiom as
    segment arithmetic: island id = day − rank, run lengths via one
    reduceat). Oracle = the classic SQL row_number() islands CTE."""
    from opentelemetry_collector_ray.stages.sessionize import longest_run

    def prep(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                        pa.int64())
        day = pc.divide(ts_us, pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"user_id": t.column("user_id"), "day": day})

    pre = _read_co(sf_dir, "events", ["user_id", "ts"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    return longest_run(pre, "user_id", "day")


def _q_turns_qa_pairs(sf_dir: str):
    """SFT (prompt, response) pair extraction (per_key_window lag over
    two columns — the pairing step of every instruction-tuning data
    build): each assistant turn whose immediate predecessor in its
    conversation is a user turn yields one training pair. Oracle = the
    SQL lag window + role filter."""
    from opentelemetry_collector_ray.stages.window import per_key_window

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "role": t.column("role"),
                         "text": t.column("text")})

    win = per_key_window(
        _turns(sf_dir).map_batches(proj, batch_format="pyarrow"),
        "conv_id", ["turn_idx"],
        {"prev_role": ("lag", "role"), "prev_text": ("lag", "text")})

    def pairs(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(t.column("role"), "assistant"),
                       pc.equal(pc.fill_null(t.column("prev_role"), ""),
                                "user"))
        t = t.filter(keep)
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "prompt": t.column("prev_text"),
                         "response": t.column("text")})

    return win.map_batches(pairs, batch_format="pyarrow")


def _q_turns_qa_rouge(sf_dir: str):
    """ROUGE-1 overlap of each SFT (prompt, response) pair
    (stages/agreement.py::unigram_overlap — the reference-based eval
    lane over the qa_pairs extraction): multiset token intersection,
    token counts and the exact f1 permille, all decided inside each
    batch with Arrow group_by/join kernels — map-only after the pairing
    window. Oracle = unnest(regexp_extract_all) token counts joined on
    (pair, token) with sum(least(ca, cb))."""
    from opentelemetry_collector_ray.stages.agreement import (
        unigram_overlap)

    pairs = _q_turns_qa_pairs(sf_dir)
    return unigram_overlap(pairs, "prompt", "response",
                           id_cols=["conv_id", "turn_idx"])


def _q_events_burstiness(sf_dir: str):
    """Per-user burstiness as the Fano factor over hourly activity
    windows (index of dispersion — the traffic-shape audit behind
    rate-limit and anomaly tuning): variance/mean of the user's
    per-active-hour event counts as exact rationals,
    ``fano_permille = 1000·(W·Q − S²) // (W·S)`` with W active windows,
    S = Σc, Q = Σc² (Cauchy–Schwarz keeps the numerator ≥ 0, so floor
    == truncate). Two shuffle-partial aggregates: the corpus reduces to
    (user, hour) cells, the cells to one lane row per user — raw rows
    never ride the second exchange."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    def prep(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                     pa.int64())
        hr = pc.divide(us, pa.scalar(3_600_000_000, pa.int64()))
        return pa.table({"user_id": t.column("user_id"), "hr": hr})

    cells = grouped_count(
        _read_co(sf_dir, "events", ["user_id", "ts"], floor=8)
        .map_batches(prep, batch_format="pyarrow"),
        ["user_id", "hr"], count_name="_c")

    def square(t: pa.Table) -> pa.Table:
        c = t.column("_c")
        return pa.table({"user_id": t.column("user_id"), "_c": c,
                         "_c2": pc.multiply(c, c)})

    g = grouped_count(cells.map_batches(square, batch_format="pyarrow"),
                      ["user_id"], count_name="w",
                      sum_cols={"s": "_c", "q": "_c2"})

    def lanes(t: pa.Table) -> pa.Table:
        w = t.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        q = t.column("q").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(w) and (int(w.max()) * int(q.max()) > 2 ** 62
                       or 1000 * int(w.max()) * int(q.max()) > 2 ** 62):
            raise ValueError(
                "events_burstiness: W·Q would overflow int64 — band the "
                "window unit coarser")
        fano = (1000 * (w * q - s * s)) // (w * s)
        return pa.table({"user_id": t.column("user_id"),
                         "w": t.column("w"), "s": t.column("s"),
                         "q": t.column("q"),
                         "fano_permille": pa.array(fano)})

    return g.map_batches(lanes, batch_format="pyarrow")


def _q_events_folds(sf_dir: str):
    """Stratified k-fold assignment (per_key_window row_number % k —
    the CV-split prep step): events get fold ids round-robin within
    their event-type stratum in (ts, event_id) order, then the
    per-(stratum, fold) counts prove balance (counts differ by at most
    one inside a stratum). Oracle = SQL row_number() % k + GROUP BY."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.window import per_key_window

    def prep(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                        pa.int64())
        return pa.table({"event_type": t.column("event_type"),
                         "ts_us": ts_us,
                         "event_id": t.column("event_id")})

    win = per_key_window(
        _read_co(sf_dir, "events", ["event_type", "ts", "event_id"],
                 floor=8).map_batches(prep, batch_format="pyarrow"),
        "event_type", ["ts_us", "event_id"], {"rn": ("row_number",)})

    def fold(t: pa.Table) -> pa.Table:
        rn = t.column("rn").to_numpy(zero_copy_only=False)
        return pa.table({"event_type": t.column("event_type"),
                         "fold": pa.array(rn % 5, pa.int64())})

    pre = win.map_batches(fold, batch_format="pyarrow")
    return grouped_agg(pre, ["event_type", "fold"], count_name="n")


def _q_docs_slice_odds(sf_dir: str):
    """Corpus keyness (stages/corpusstats.py::keyness_odds — the
    Fightin'-Words log-odds idea kept exactly rational): the 20 terms
    most characteristic of English vs German documents by add-one
    smoothed odds ratio, ``1000·(a+1)·(N_b+V) // ((b+1)·(N_a+V))``.
    Tokens explode once into two slice lanes and reduce through ONE
    bucket aggregate; totals come from the reduced vocabulary table."""
    from opentelemetry_collector_ray.stages.corpusstats import (
        keyness_odds)

    ds = _read_co(sf_dir, "documents", ["lang", "text"], floor=8)
    return keyness_odds(ds, "lang", "en", "de", top_k=20)


def _q_events_audience_overlap(sf_dir: str):
    """Day-over-day audience Jaccard (stages/cohort.py::
    audience_overlap — the population-drift lane): per event type and
    day, how much of today's distinct user set was also active
    yesterday. Consecutive-day membership is one lag compare per
    (type, user) day list — never a user-level self-join; the oracle
    IS that self-join."""
    from opentelemetry_collector_ray.stages.cohort import (
        audience_overlap)

    def prep(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                        pa.int64())
        day = pc.divide(ts_us, pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"event_type": t.column("event_type"),
                         "day": day, "user_id": t.column("user_id")})

    pre = _read_co(sf_dir, "events", ["event_type", "ts", "user_id"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    return audience_overlap(pre, "event_type", "day", "user_id")


def _q_docs_lang_eval(sf_dir: str):
    """Multiclass classifier scorecard (stages/agreement.py::
    multiclass_eval — one-vs-rest tp/fp/fn + truncating P/R/F1 per
    class): a marker-word rule classifier judged against the gold
    ``lang`` labels. Both engines run the identical rule (substring
    containment with priority order), so the confusion table — and
    every lane derived from it — sits behind the exact hash gate."""
    from opentelemetry_collector_ray.stages.agreement import (
        multiclass_eval)

    def prep(t: pa.Table) -> pa.Table:
        txt = pc.utf8_lower(t.column("text"))

        def has(word):
            return pc.greater(
                pc.count_substring(txt, f" {word} "),
                pa.scalar(0, pa.int32()))

        pred = pc.if_else(
            has("der"), "de",
            pc.if_else(has("el"), "es",
                       pc.if_else(has("le"), "fr",
                                  pc.if_else(has("the"), "en", "und"))))
        return pa.table({"pred": pred, "label": t.column("lang")})

    ds = _read_co(sf_dir, "documents", ["text", "lang"],
                  floor=8).map_batches(prep, batch_format="pyarrow")
    return multiclass_eval(ds, "pred", "label")


def _q_customers_entity_groups(sf_dir: str):
    """End-to-end entity resolution (edit_distance_pairs →
    connected_components — the pair-discovery + clustering composition
    every record-linkage pipeline runs): near-duplicate customer-name
    pairs (dist ≤ 1, 7-digit-prefix blocks) become an undirected edge
    list whose components get min-id canonical labels. Oracle = the
    same pair SQL + a recursive-CTE transitive closure."""
    from opentelemetry_collector_ray.stages.dedup import (
        connected_components)
    from opentelemetry_collector_ray.stages.fuzzy import (
        edit_distance_pairs)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t.column("c_custkey"),
            "c_name": t.column("c_name"),
            "blk": pc.utf8_slice_codeunits(t.column("c_name"), 9, 16)})

    ds = _read_co(sf_dir, "customer", ["c_custkey", "c_name"],
                  floor=4).map_batches(prep, batch_format="pyarrow")
    pairs = edit_distance_pairs(ds, "c_custkey", "c_name", 1,
                                block_col="blk")
    # no select_columns: the pairs dataset is schema-less (post
    # map_groups) and the projection would re-execute the whole DP as a
    # Ray 2.49 schema probe; connected_components reads id_a/id_b and
    # ignores the dist lane.
    return connected_components(pairs)


def _q_events_path_rollup(sf_dir: str):
    """Hierarchical path-prefix rollup (stages/rollup.py::path_rollup —
    the URL/file-path analog of SQL ROLLUP, the "traffic by /api,
    /api/v2, /api/v2/users" log-analytics view): every event's
    synthetic request path contributes one count to each of its
    depth-1..3 prefixes. One vectorized explode (a <=3-iteration depth
    loop over whole columns), two-phase count over unbounded prefix
    keys. Oracle = three UNION ALL list-slice selects."""
    from opentelemetry_collector_ray.stages.rollup import path_rollup

    def prep(t: pa.Table) -> pa.Table:
        uid = t.column("user_id")
        path = pc.binary_join_element_wise(
            t.column("event_type"), "/u",
            pc.cast(pc.bit_wise_and(uid, pa.scalar(7, pa.int64())),
                    pa.string()),
            "/", pc.cast(uid, pa.string()), "")
        return pa.table({"path": path})

    pre = _read_co(sf_dir, "events", ["event_type", "user_id"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    return path_rollup(pre, "path", 3)


def _q_docs_compress_ratio(sf_dir: str):
    """zlib redundancy screen (functions/text.compression_ratio — the
    classic compression-based boilerplate detector beside the Gopher
    repetition lanes). Rows-only: DEFLATE has no SQL oracle;
    planted-truth tests pin the ordering (repetitive text compresses
    harder than prose)."""
    from opentelemetry_collector_ray.functions.text import (
        compression_ratio)

    def f(t: pa.Table) -> pa.Table:
        lanes = compression_ratio(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"), **lanes})

    return _read_co(sf_dir, "documents", ["doc_id", "text"],
                    floor=8).map_batches(f, batch_format="pyarrow")


def _q_orders_hist_rebucket(sf_dir: str):
    """Explicit-bounds histogram re-bucketing (stages/metricsops.py::
    explicit_histogram + hist_rebucket — the fixed-bounds sibling of
    exphist_downscale): per order status, the fine 5k-dollar price
    histogram merged to 20k-dollar buckets (every coarse bound IS a
    fine bound, so the merge is exact — validated loudly). The oracle
    computes the coarse histogram directly, proving the subsetting
    identity end to end."""
    from opentelemetry_collector_ray.stages.metricsops import (
        explicit_histogram, hist_rebucket)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderstatus": t.column("o_orderstatus"),
                         "cents": _cents(t.column("o_totalprice"))})

    pre = _read_co(sf_dir, "orders", ["o_orderstatus", "o_totalprice"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    fine = [500_000 * i for i in range(1, 61)]
    coarse = [2_000_000 * i for i in range(1, 16)]
    hist = explicit_histogram(pre, ["o_orderstatus"], "cents", fine)
    return hist_rebucket(hist, ["o_orderstatus"], fine, coarse)


def _q_events_base64(sf_dir: str):
    """OTTL Base64 pair (functions/text.base64_encode/base64_decode —
    reference ottl/ottlfuncs/func_base64decode.go): each event's
    payload string encoded with the standard alphabet and decoded
    back; the encode lane is checked against DuckDB's to_base64 over
    the identical payload, the decode lane proves the inverse."""
    from opentelemetry_collector_ray.functions.text import (
        base64_decode, base64_encode)

    def f(t: pa.Table) -> pa.Table:
        payload = pc.binary_join_element_wise(
            t.column("event_type"), ":",
            pc.cast(t.column("user_id"), pa.string()), ":",
            pc.cast(_cents(t.column("value")), pa.string()), "")
        b64 = base64_encode(payload)
        return pa.table({"event_id": t.column("event_id"),
                         "b64": b64,
                         "roundtrip": base64_decode(b64)})

    return _read_co(sf_dir, "events",
                    ["event_id", "event_type", "user_id", "value"],
                    floor=8).map_batches(f, batch_format="pyarrow")


def _q_events_duration_parse(sf_dir: str):
    """Go-style Duration() parse (functions/text.parse_duration_us —
    the OTTL converter, integer h/m/s/ms lanes kept exact): a
    synthesized duration string per event ('2h17m45s', 1/16
    deterministically malformed) parsed to microseconds with one RE2
    extract per unit; the oracle runs the identical pattern through
    regexp_extract and the same unit arithmetic, malformed → NULL in
    both engines."""
    from opentelemetry_collector_ray.functions.text import (
        parse_duration_us)

    def f(t: pa.Table) -> pa.Table:
        uid = t.column("user_id")
        cents = _cents(t.column("value"))
        eid = t.column("event_id")
        h = pc.cast(pc.bit_wise_and(uid, pa.scalar(3, pa.int64())),
                    pa.string())
        m = pc.cast(pc.bit_wise_and(cents, pa.scalar(63, pa.int64())),
                    pa.string())
        sec = pc.cast(pc.bit_wise_and(eid, pa.scalar(63, pa.int64())),
                      pa.string())
        dur = pc.binary_join_element_wise(h, "h", m, "m", sec, "s", "")
        bogus = pc.equal(pc.bit_wise_and(eid, pa.scalar(15, pa.int64())),
                         pa.scalar(0, pa.int64()))
        dur = pc.if_else(bogus, pa.scalar("b0gus"), dur)
        return pa.table({"event_id": eid, "dur": dur,
                         "dur_us": parse_duration_us(dur)})

    return _read_co(sf_dir, "events",
                    ["event_id", "user_id", "value"],
                    floor=8).map_batches(f, batch_format="pyarrow")


def _q_events_dow_hour_heatmap(sf_dir: str):
    """Traffic heatmap (day-of-week × hour grid — the first dashboard
    every log pipeline serves): counts per (dow, hour) cell from pure
    epoch arithmetic (day ordinal mod 7 / in-day microseconds div
    3600e6 — no calendar library on either engine), two-phase tree
    aggregate over the bounded 168-cell grid."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    # numpy lanes: dow = day % 7, hour = (us % 86400e6) // 3600e6
    def lanes(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        day = us // 86_400_000_000
        return pa.table({
            "dow": pa.array((day % 7).astype(np.int64)),
            "hour": pa.array(((us % 86_400_000_000) // 3_600_000_000
                              ).astype(np.int64))})

    pre = _read_co(sf_dir, "events", ["ts"], floor=8).map_batches(
        lanes, batch_format="pyarrow")
    return grouped_count(pre, ["dow", "hour"], count_name="n")


def _q_parts_degree_hist(sf_dir: str):
    """Graph degree distribution (the power-law tail audit of the
    part–supplier bipartite graph): per part the count of DISTINCT
    suppliers (exact per-key count distinct on the fused BUCKET path —
    near-unique pairs paid full sort-exchange freight twice on the
    default path, 10.2 s → 0.4 s at sf0.1), then the bounded-domain
    degree histogram (tree rollup)."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count, grouped_count_distinct)

    ds = _read_co(sf_dir, "lineitem", ["l_partkey", "l_suppkey"],
                  floor=8)
    deg = grouped_count_distinct(ds, ["l_partkey"], "l_suppkey",
                                 out_name="degree")
    return grouped_count(deg, ["degree"], count_name="n_parts")


# ------------------------------------------- ninth-session operator batch

def _q_turns_tool_chains(sf_dir: str):
    """Tool-call transition bigrams (per_key_window lag over the
    tool-turn subsequence — the agent-behavior audit every transcript
    pipeline runs to see which tool follows which): within each
    conversation, consecutive tool turns (tool != '') yield one
    (prev_tool → tool) pair, counted corpus-wide. The lag window keys
    on conv_id (the ONE partitioning key, SURVEY.md §4.3); the final
    rollup is a bounded-domain tree aggregate. Oracle = SQL lag over
    the filtered subsequence + GROUP BY."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.window import per_key_window

    def proj(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t.column("tool"), ""))
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "tool": t.column("tool")})

    win = per_key_window(
        _turns(sf_dir).map_batches(proj, batch_format="pyarrow"),
        "conv_id", ["turn_idx"], {"prev_tool": ("lag", "tool")})

    def pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("prev_tool")))
        return pa.table({"prev_tool": t.column("prev_tool"),
                         "tool": t.column("tool")})

    pre = win.map_batches(pairs, batch_format="pyarrow")
    return grouped_count(pre, ["prev_tool", "tool"], count_name="n_pairs")


def _q_turns_role_tokens(sf_dir: str):
    """Per-conversation role token balance (the chat-mix audit every
    SFT data build reports: how many tokens each side contributed):
    whitespace token counts laned per role inside one map, ONE bucket
    aggregate on conv_id (unbounded keys), assistant/user share as a
    truncating permille. All exact integers; oracle = the same CASE
    lanes + GROUP BY + integer division."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def lanes(t: pa.Table) -> pa.Table:
        ntok = pc.cast(pc.add(pc.count_substring(t.column("text"), " "),
                              pa.scalar(1, pa.int32())), pa.int64())
        role = t.column("role")
        out = {"conv_id": t.column("conv_id")}
        for r in ("user", "assistant", "system", "tool"):
            out[f"{r}_tokens"] = pc.if_else(
                pc.equal(role, r), ntok, pa.scalar(0, pa.int64()))
        return pa.table(out)

    pre = _turns(sf_dir).map_batches(lanes, batch_format="pyarrow")
    agg = grouped_agg(pre, ["conv_id"], count_name="n_turns",
                      sum_cols={f"{r}_tokens": f"{r}_tokens"
                                for r in ("user", "assistant",
                                          "system", "tool")})

    def ratio(t: pa.Table) -> pa.Table:
        u = t.column("user_tokens")
        a = t.column("assistant_tokens")
        pm = pc.if_else(
            pc.greater(u, 0),
            pc.divide(pc.multiply(a, pa.scalar(1000, pa.int64())), u),
            pa.scalar(None, pa.int64()))
        return t.append_column("asst_user_permille", pm)

    return agg.map_batches(ratio, batch_format="pyarrow")


def _q_events_apportion(sf_dir: str):
    """Largest-remainder quota apportionment (stages/allocate.py — the
    fixed-budget fair-share primitive behind sampling quotas and shard
    budgets): 1000 seats across event types proportional to row count;
    ``Σ seats == 1000`` exactly. Oracle = the same base//remainder
    arithmetic with row_number() over (rem DESC, type ASC)."""
    from opentelemetry_collector_ray.stages.allocate import apportion

    return apportion(_read_co(sf_dir, "events", ["event_type"], floor=8),
                     ["event_type"], 1000)


def _q_events_ohlc(sf_dir: str):
    """Daily OHLC candles per event type (stages/metricsops.py::
    grouped_ohlc — the gauge first/last/min/max downsample every
    metrics backend materializes): open/close = cents value at the
    min/max (ts, event_id) tuple, low/high = min/max, all mergeable
    two-phase partials (each partial carries its candidate's order
    tuple) → tree combine over the bounded day×type domain. Oracle =
    two row_number windows + one GROUP BY."""
    from opentelemetry_collector_ray.stages.metricsops import grouped_ohlc

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(t.column("ts"), format="%Y-%m-%d"),
            "event_type": t.column("event_type"),
            "ts": t.column("ts"),
            "event_id": t.column("event_id"),
            "cents": _cents(t.column("value"))})

    pre = _read_co(sf_dir, "events",
                   ["ts", "event_type", "event_id", "value"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    return grouped_ohlc(pre, ["day", "event_type"], ["ts", "event_id"],
                        "cents")


def _q_lineitem_ship_bd(sf_dir: str):
    """Business-day fulfillment lag (functions/timefn.py::
    busday_count_col — the calendar-aware SLA metric): Mon–Fri days in
    [o_orderdate, l_shipdate) per lineitem via one distributed hash
    join on orderkey + vectorized np.busday_count, rolled up per ship
    month (tree — bounded domain). Oracle = the closed-form weekday
    formula (verified against np.busday_count on a 560-case lattice in
    tests) + the same join."""
    from opentelemetry_collector_ray.functions.timefn import (
        busday_count_col)
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    li = _read_co(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read_co(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    j = shuffle_hash_join(li, orders, key="l_orderkey",
                          right_key="o_orderkey")

    def lanes(t: pa.Table) -> pa.Table:
        bd = busday_count_col(t.column("o_orderdate"),
                              t.column("l_shipdate"))
        return pa.table({
            "ship_month": pc.strftime(t.column("l_shipdate"),
                                      format="%Y-%m"),
            "bd": bd})

    pre = j.map_batches(lanes, batch_format="pyarrow")
    return grouped_agg(pre, ["ship_month"], count_name="n_items",
                       sum_cols={"sum_bd": "bd"},
                       min_cols={"min_bd": "bd"},
                       max_cols={"max_bd": "bd"})


def _q_docs_sentence_stats(sf_dir: str):
    """Sentence segmentation stats (functions/text.py::sentence_stats —
    the granularity screen under readability / chunking passes): per
    doc the sentence count, longest sentence, and truncating mean
    sentence length in chars; RE2 split identical to DuckDB
    string_split_regex, flatten + reduceat segment kernels (map-only,
    no shuffle). The synthetic corpus is punctuation-free (every doc
    would be ONE sentence — a vacuous gate), so the query first
    synthesizes deterministic sentence breaks after three common
    terms — the same regexp_replace in both engines, non-overlapping
    RE2 left-to-right in both — giving per-doc variance the hash gate
    can bite on. Oracle = list_transform/list_max/list_sum over the
    same split."""
    from opentelemetry_collector_ray.functions.text import sentence_stats

    def fn(t: pa.Table) -> pa.Table:
        punct = pc.replace_substring_regex(
            t.column("text"), pattern=" (row|table|value) ",
            replacement=" \\1. ")
        st = sentence_stats(punct)
        avg = pc.divide(st["sum_sent_chars"], st["n_sents"])
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_sents": st["n_sents"],
                         "max_sent_chars": st["max_sent_chars"],
                         "avg_sent_chars": avg})

    return _read_co(sf_dir, "documents", ["doc_id", "text"],
                    floor=8).map_batches(fn, batch_format="pyarrow")


def _q_events_csv_roundtrip(sf_dir: str):
    """csv-receiver analog end-to-end (the filelog/csv sibling of
    events_jsonl_roundtrip): the events table is serialized to 8
    sharded CSV files (pyarrow.csv writer, integer cents lane computed
    at write time with the _cents expression), read back through
    ray.data.read_csv — the same reader the YAML ``csv`` receiver uses
    (pipelines/builder.py) — and aggregated; compared to pure SQL over
    the original table, proving the CSV wire path inverts the
    serialization exactly. The files are a :func:`_fixture_dir` cache,
    like the JSONL ones."""
    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    import ray.data

    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    src = pq.read_table(f"{sf_dir}/events.parquet",
                        columns=["event_id", "user_id", "event_type",
                                 "value"])
    cents = _cents(src.column("value"))
    tbl = pa.table({"event_id": src.column("event_id"),
                    "user_id": src.column("user_id"),
                    "event_type": src.column("event_type"),
                    "cents": cents})

    def build(stage: str) -> None:
        shard = tbl.column("event_id").to_numpy(zero_copy_only=False) % 8
        for s in range(8):
            part = tbl.filter(pa.array(shard == s))
            pacsv.write_csv(part, f"{stage}/events-{s}.csv")

    out_dir = _fixture_dir("csv", [f"{sf_dir}/events.parquet"], build)

    ds = ray.data.read_csv(out_dir)
    return grouped_agg(ds, ["event_type"], count_name="n",
                       sum_cols={"sum_cents": "cents"},
                       min_cols={"min_cents": "cents"},
                       max_cols={"max_cents": "cents"})


def _q_events_l_diversity(sf_dir: str):
    """l-diversity audit (stages/privacy.py::l_diversity — the privacy
    rung between the existing k-anonymity and t-closeness gates,
    Machanavajjhala et al. 2007): per (event_type, dow) quasi-group
    the row count, EXACT distinct sensitive users, truncating
    diversity ratio permille and the l >= 120 flag (mixed at the
    driver's sf0.01 — groups span ~113-140 distinct users; the exact
    count lanes carry the teeth at every scale). dow = epoch-day mod 7
    (pure integer arithmetic, no calendar parity risk). Oracle =
    COUNT + COUNT(DISTINCT) + the same integer lanes."""
    from opentelemetry_collector_ray.stages.privacy import l_diversity

    def lanes(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t.column("event_type"),
            "dow": pa.array(((us // 86_400_000_000) % 7)
                            .astype(np.int64)),
            "user_id": t.column("user_id")})

    pre = _read_co(sf_dir, "events", ["event_type", "ts", "user_id"],
                   floor=8).map_batches(lanes, batch_format="pyarrow")
    return l_diversity(pre, ["event_type", "dow"], "user_id", 120)


_HISTQ_BOUNDS = [500, 1000, 2000, 5000, 10000, 20000, 50000]
# SQL mirrors of explicit_histogram's searchsorted(bounds, v, 'left')
# bucket rule and the bucket→bound anchors (first bucket anchored at 0)
_HISTQ_BUCKET_SQL = " + ".join(
    f"(CASE WHEN cents > {b} THEN 1 ELSE 0 END)" for b in _HISTQ_BOUNDS)
_HISTQ_LO_SQL = ("CASE bucket "
                 + " ".join(f"WHEN {i} THEN {lo}" for i, lo in
                            enumerate([0] + _HISTQ_BOUNDS))
                 + " END")
_HISTQ_HI_SQL = ("CASE bucket "
                 + " ".join(f"WHEN {i} THEN {hi}" for i, hi in
                            enumerate(_HISTQ_BOUNDS))
                 + " END")


def _q_events_hist_p90(sf_dir: str):
    """PromQL histogram_quantile parity (stages/metricsops.py::
    hist_quantile_linear over explicit_histogram — the
    Prometheus-compatible read side every metrics consumer expects):
    per event type the LINEAR-interpolated p90 of cents from
    explicit-bounds bucket counts, exact ×1000 integer arithmetic
    with one truncating division; first bucket anchored at 0,
    overflow clamped to the last bound. Oracle = the same bucket
    CASE + window cumsum + interpolation formula."""
    from opentelemetry_collector_ray.stages.metricsops import (
        explicit_histogram, hist_quantile_linear)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "cents": _cents(t.column("value"))})

    pre = _read_co(sf_dir, "events", ["event_type", "value"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    hist = explicit_histogram(pre, ["event_type"], "cents",
                              _HISTQ_BOUNDS)
    return hist_quantile_linear(hist, ["event_type"], _HISTQ_BOUNDS,
                                900, out_col="p90_permille")


def _q_orders_partition_diff(sf_dir: str):
    """Anti-entropy partition diff (composition on
    stages/checksum.py::table_checksum — the merkle-style replication
    repair primitive: find WHICH day-partitions of two table versions
    diverge WITHOUT comparing rows): per-day order-insensitive
    checksums of (orderkey, cents) for the orders table and a derived
    second version (every 10th key dropped, urgent prices bumped 100
    cents — the orders_snapshot_diff derivation), full-outer-joined on
    day, emitting only days whose (n, checksum) differ. Only the
    skinny per-day digest rows ever meet — at 100 TB the row-level
    diff would then run on the ~handful of flagged partitions only.
    Oracle = the same md5-prefix wrap-sum per day + FULL JOIN +
    IS DISTINCT FROM."""
    from opentelemetry_collector_ray.stages.checksum import table_checksum
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    def old_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(t.column("o_orderdate"),
                               format="%Y-%m-%d"),
            "id": t.column("o_orderkey"),
            "cents": _cents(t.column("o_totalprice"))})

    def new_side(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(
            pc.subtract(t.column("o_orderkey"),
                        pc.multiply(pc.divide(t.column("o_orderkey"),
                                              10), 10)), 0)
        t = t.filter(keep)
        bump = pc.if_else(
            pc.equal(t.column("o_orderpriority"), "1-URGENT"),
            pa.scalar(100, pa.int64()), pa.scalar(0, pa.int64()))
        return pa.table({
            "day": pc.strftime(t.column("o_orderdate"),
                               format="%Y-%m-%d"),
            "id": t.column("o_orderkey"),
            "cents": pc.add(_cents(t.column("o_totalprice")), bump)})

    cols = ["o_orderkey", "o_totalprice", "o_orderdate",
            "o_orderpriority"]
    old_cs = table_checksum(
        _read_co(sf_dir, "orders", cols, floor=8).map_batches(
            old_side, batch_format="pyarrow"),
        ["id", "cents"], group_col="day")
    new_cs = table_checksum(
        _read_co(sf_dir, "orders", cols, floor=8).map_batches(
            new_side, batch_format="pyarrow"),
        ["id", "cents"], group_col="day")

    def tag(suffix):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"day": t.column("day"),
                             f"n_{suffix}": t.column("n"),
                             f"checksum_{suffix}": t.column("checksum")})
        return f

    j = shuffle_hash_join(
        old_cs.map_batches(tag("old"), batch_format="pyarrow"),
        new_cs.map_batches(tag("new"), batch_format="pyarrow"),
        key="day", how="full")

    def diff(t: pa.Table) -> pa.Table:
        n_o = pc.fill_null(t.column("n_old"), -1)
        n_n = pc.fill_null(t.column("n_new"), -1)
        c_o = pc.fill_null(t.column("checksum_old"), "")
        c_n = pc.fill_null(t.column("checksum_new"), "")
        mism = pc.or_(pc.not_equal(n_o, n_n), pc.not_equal(c_o, c_n))
        return t.filter(mism)

    return j.map_batches(diff, batch_format="pyarrow")


def _q_turns_tool_latency(sf_dir: str):
    """Log-to-metrics latency SLO (the spanmetrics-connector story on
    the PARSED turn stream: grok-extracted latency_ms rolled into
    exact per-tool percentiles via the bounded-integer value-count
    path of stages/spanops.py::grouped_exact_quantiles): p50/p95/p99
    per tool over the rows the ruleset actually parsed. Oracle = the
    same regexp extract + the row_number rank rule."""
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_exact_quantiles)

    def keep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t.column("tool_attr")),
                    pc.is_valid(t.column("latency_ms")))
        t = t.filter(m)
        return pa.table({"tool_attr": t.column("tool_attr"),
                         "latency_ms": t.column("latency_ms")})

    pre = _parsed(sf_dir).map_batches(keep, batch_format="pyarrow")
    # bounded tools × bounded latency domain → map-only tree count
    return grouped_exact_quantiles(pre, key="tool_attr",
                                   value_col="latency_ms")


def _q_events_user_day_grid(sf_dir: str):
    """Dense matrix zero-fill (stages/resample.py::grid_densify — the
    dashboard "no gaps" contract and the routing fan-out's
    every-sink-reports analog): the user × day activity matrix with
    EXPLICIT zeros for absent combinations (~11% of cells at every sf
    — day×type and user×type spines were fully dense, vacuous gates);
    spine = cross product of the observed value sets, built in one
    final task with a vectorized Arrow left join behind the max_cells
    guard. Oracle = CROSS JOIN of the DISTINCT sets + LEFT JOIN +
    COALESCE 0."""
    from opentelemetry_collector_ray.stages.resample import grid_densify

    def lanes(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t.column("user_id"),
            "day": pc.strftime(t.column("ts"), format="%Y-%m-%d")})

    pre = _read_co(sf_dir, "events", ["user_id", "ts"],
                   floor=8).map_batches(lanes, batch_format="pyarrow")
    return grid_densify(pre, "user_id", "day")


def _q_events_moment_parts(sf_dir: str):
    """Distribution-shape sufficient statistics (stages/normalize.py::
    grouped_moments — the higher-moment siblings of grouped_trend /
    events_corr_parts, from which variance/skewness/kurtosis read
    off): per event type the exact (n, Σx, Σx², Σx³, Σx⁴, min, max)
    over whole-unit values, every lane re-bounded by n·max|x|⁴ before
    the total is trusted. Oracle = the same integer power sums."""
    from opentelemetry_collector_ray.stages.normalize import (
        grouped_moments)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "x": pc.cast(pc.floor(t.column("value")), pa.int64())})

    pre = _read_co(sf_dir, "events", ["event_type", "value"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    return grouped_moments(pre, ["event_type"], "x")


def _q_spans_retry_rate(sf_dir: str):
    """Retry-storm audit (the trace-integrity screen every APM backend
    runs: the SAME operation executing more than once inside one
    trace): per (trace_id, name) occurrence counts — unbounded
    NEAR-UNIQUE composite keys, reduced by per-batch partials —
    laned into per-service group count / retried-group count / retry
    permille / worst repeat. The service is a pure function of the
    span name here, so no join back is needed. Oracle = two GROUP BYs
    + integer division."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_count)

    per = grouped_count(
        _spans(sf_dir).select_columns(["trace_id", "name", "service"]),
        ["trace_id", "name", "service"], count_name="c")

    def lanes(t: pa.Table) -> pa.Table:
        retried = pc.cast(pc.greater(t.column("c"), 1), pa.int64())
        return pa.table({"service": t.column("service"),
                         "is_retried": retried, "c": t.column("c")})

    pre = per.map_batches(lanes, batch_format="pyarrow")
    agg = grouped_agg(pre, ["service"], count_name="n_groups",
                      sum_cols={"n_retried": "is_retried"},
                      max_cols={"max_repeat": "c"})

    def pm(t: pa.Table) -> pa.Table:
        r = pc.divide(pc.multiply(t.column("n_retried"),
                                  pa.scalar(1000, pa.int64())),
                      t.column("n_groups"))
        return t.append_column("retry_permille", r)

    return agg.map_batches(pm, batch_format="pyarrow")


def _q_orders_revenue_apportion(sf_dir: str):
    """Weighted largest-remainder apportionment (the weight_col lane
    of stages/allocate.py::apportion under the hash gate — seats
    proportional to SUMMED revenue cents rather than row count): 1000
    budget seats across order priorities by total order value.
    Oracle = the same base//remainder arithmetic over sum(cents)."""
    from opentelemetry_collector_ray.stages.allocate import apportion

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderpriority": t.column("o_orderpriority"),
                         "cents": _cents(t.column("o_totalprice"))})

    pre = _read_co(sf_dir, "orders", ["o_orderpriority", "o_totalprice"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    return apportion(pre, ["o_orderpriority"], 1000, weight_col="cents")


def _q_events_promtext_roundtrip(sf_dir: str):
    """prometheusreceiver wire analog end-to-end (sources/textlog.py::
    read_prom_text — the text exposition format every scrape target
    serves): the events table is rendered to 8 sharded ``/metrics``
    pages (HELP/TYPE comments, blank lines, label bodies, millisecond
    timestamps), read back with one vectorized RE2 extract per batch,
    the ``type`` label pulled out with prom_label, and aggregated;
    compared to pure SQL over the original table — proving the scrape
    parser inverts the rendering exactly. The pages are a
    :func:`_fixture_dir` cache like the JSONL/CSV siblings."""
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.sources.textlog import (
        prom_label, read_prom_text)
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    src = pq.read_table(f"{sf_dir}/events.parquet",
                        columns=["event_id", "user_id", "event_type",
                                 "value", "ts"])
    ev_id = src.column("event_id").to_numpy(zero_copy_only=False)
    usr = src.column("user_id").to_numpy(zero_copy_only=False)
    typ = src.column("event_type").to_pylist()
    cents = _cents(src.column("value")).to_numpy(zero_copy_only=False)
    ts_ms = (src.column("ts").cast(pa.int64()).to_numpy(
        zero_copy_only=False) // 1000)

    def build(stage: str) -> None:
        shard = ev_id % 8
        for s in range(8):
            rows = np.flatnonzero(shard == s)
            body = "\n".join(
                ["# HELP app_events_cents event value in cents",
                 "# TYPE app_events_cents gauge", ""]
                + [f'app_events_cents{{type="{typ[i]}",'
                   f'user="{usr[i]}"}} {cents[i]} {ts_ms[i]}'
                   for i in rows])
            with open(f"{stage}/metrics-{s}.txt", "w") as f:
                f.write(body + "\n")

    out_dir = _fixture_dir("prom", [f"{sf_dir}/events.parquet"], build)

    ds = read_prom_text([f"{out_dir}/metrics-{s}.txt"
                         for s in range(8)])

    def lanes(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": prom_label(t.column("labels"), "type"),
            "cents": pc.cast(t.column("value"), pa.int64()),
            "ts_ms": t.column("ts_ms")})

    pre = ds.map_batches(lanes, batch_format="pyarrow")
    return grouped_agg(pre, ["event_type"], count_name="n",
                       sum_cols={"sum_cents": "cents"},
                       max_cols={"max_ts_ms": "ts_ms"})


def _q_events_orc_roundtrip(sf_dir: str):
    """ORC wire path end-to-end (sources/orcfile.py — the columnar
    sibling of the parquet/IPC lanes; Ray 2.49 has no read_orc, so
    the reader rides read_binary_files + one pyarrow.orc parse per
    file): the events table is written to 8 ORC shards THROUGH
    write_orc (atomic-rename sink convention) and read back through
    read_orc with column pruning, aggregated, and compared to pure
    SQL over the original parquet — both directions of the format
    proven. The shards are a :func:`_fixture_dir` cache like the
    CSV/JSONL/prom siblings."""
    import pyarrow.parquet as pq

    import ray.data

    from opentelemetry_collector_ray.sources.orcfile import (
        read_orc, write_orc)
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    src = pq.read_table(f"{sf_dir}/events.parquet",
                        columns=["event_id", "event_type", "value"])
    tbl = pa.table({"event_id": src.column("event_id"),
                    "event_type": src.column("event_type"),
                    "cents": _cents(src.column("value"))})
    out_dir = _fixture_dir(
        "orc", [f"{sf_dir}/events.parquet"],
        lambda stage: write_orc(ray.data.from_arrow(tbl).repartition(8),
                                stage))

    ds = read_orc([f"{out_dir}/{f}" for f in sorted(os.listdir(out_dir))],
                  columns=["event_type", "cents"])
    return grouped_agg(ds, ["event_type"], count_name="n",
                       sum_cols={"sum_cents": "cents"},
                       min_cols={"min_cents": "cents"},
                       max_cols={"max_cents": "cents"})


def _q_turns_sum_connector(sf_dir: str):
    """Sum connector (the contrib sumconnector analog beside the
    existing count connector: SUM a numeric attribute into a metric
    per dimension set): parsed latency_ms summed per (tool, status)
    from the grok-extracted turn attributes — logs in, metrics out.
    Oracle = the same regexp extracts + GROUP BY."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def keep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t.column("tool_attr")),
                    pc.is_valid(t.column("latency_ms")))
        t = t.filter(m)
        return pa.table({"tool": t.column("tool_attr"),
                         "status": t.column("status"),
                         "latency_ms": t.column("latency_ms")})

    pre = _parsed(sf_dir).map_batches(keep, batch_format="pyarrow")
    return grouped_agg(pre, ["tool", "status"], count_name="n_calls",
                       sum_cols={"sum_latency_ms": "latency_ms"})


_DECAY_ANCHOR_US = 1_706_659_200_000_000  # 2024-01-31T00:00:00Z in µs


def _q_events_decayed_counts(sf_dir: str):
    """Exponentially time-decayed counters (stages/temporal.py::
    decayed_count — the "recent items weigh more" trending primitive,
    exact as integers: weight 2^(30−h), h = age in 3-day half-lives
    below the 2024-01-31 anchor, pure floor arithmetic mirrored by
    SQL ``//``): per event type the decayed mass and raw count; the
    n·2^30 ≤ 2^62 guard fails loudly instead of wrapping. Oracle =
    SUM(1 << (30 − LEAST(age_halvings, 30)))."""
    from opentelemetry_collector_ray.stages.temporal import decayed_count

    return decayed_count(
        _read_co(sf_dir, "events", ["event_type", "ts"], floor=8),
        ["event_type"], "ts", _DECAY_ANCHOR_US, half_life_days=3,
        max_halvings=30)


def _q_events_counter_resets(sf_dir: str):
    """Counter-reset handling (stages/temporal.py::cumulative_to_delta
    resets="otel" — the cumulativetodelta processor's restart rule:
    a cumulative value that DROPS means the counter restarted, so the
    delta is the new value, never negative): a synthetic cumulative
    series with genuine resets (per-user running cents cumsum mod
    100000) is converted back to deltas with the reset rule and
    rolled up per user — n / resets / recovered monotone mass. One
    window pass + one bucket diff pass + one bucket aggregate, all on
    the same user partitioning key. Oracle = SQL windows + the same
    CASE."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.temporal import (
        cumulative_to_delta)
    from opentelemetry_collector_ray.stages.window import per_key_window

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "ts": t.column("ts"),
                         "event_id": t.column("event_id"),
                         "cents": _cents(t.column("value"))})

    pre = _read_co(sf_dir, "events",
                   ["user_id", "ts", "event_id", "value"],
                   floor=8).map_batches(prep, batch_format="pyarrow")
    # ONE window pass carries both the running sum and the per-user
    # ordinal (cumulative_to_delta's order_col must be a single
    # column, and event_id alone is not the event-time order)
    win = per_key_window(pre, "user_id", ["ts", "event_id"],
                         {"cum_raw": ("cumsum", "cents"),
                          "rn": ("row_number",)})

    def modded(t: pa.Table) -> pa.Table:
        cum = pc.subtract(
            t.column("cum_raw"),
            pc.multiply(pc.divide(t.column("cum_raw"),
                                  pa.scalar(100000, pa.int64())),
                        pa.scalar(100000, pa.int64())))
        return pa.table({"user_id": t.column("user_id"),
                         "rn": t.column("rn"), "cum": cum})

    cummed = win.map_batches(modded, batch_format="pyarrow")
    deltas = cumulative_to_delta(cummed, "user_id", "rn", "cum",
                                 out_col="delta", resets="otel",
                                 reset_col="is_reset")

    def lanes(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "delta": t.column("delta"),
                         "is_reset": t.column("is_reset")})

    pre2 = deltas.map_batches(lanes, batch_format="pyarrow")
    return grouped_agg(pre2, ["user_id"], count_name="n",
                       sum_cols={"n_resets": "is_reset",
                                 "sum_delta": "delta"})


def _q_events_quota_sample(sf_dir: str):
    """Quota sampling (stages/sampling.py::quota_sample — the
    apportionment made actionable: EXACTLY 1000 rows total, each
    event type keeping its largest-remainder share, membership
    decided by smallest-md5 hash order so re-sharding never changes
    the kept set): the deterministic "balanced eval set" draw. Block
    prereduce bounds the exchange to ≤ quota rows per key per block.
    Oracle = the apportion CTE + row_number over (md5, id) ≤ seats."""
    from opentelemetry_collector_ray.stages.sampling import quota_sample

    pre = _read_co(sf_dir, "events", ["event_id", "event_type"],
                   floor=8)
    return quota_sample(pre, "event_type", 1000, "event_id")


def _q_docs_index_near(sf_dir: str):
    """Proximity (NEAR) query over the positional index
    (stages/ranking.py::query_near — the relevance rung between the
    bag-of-words conjunction and the exact phrase): docs where
    'table' and 'hash' occur within 3 token positions in either
    order (126 of the 312 co-occurring docs at sf0.001 — teeth
    verified). Partition-pruned postings, ONE doc-bucket exchange,
    one searchsorted per bucket answers every b-position's ±window
    probe. Oracle = generate_subscripts token positions + |Δpos|≤3
    self-join."""
    import tempfile

    from opentelemetry_collector_ray.stages.ranking import (
        build_positional_index, query_near)

    idx = tempfile.mkdtemp(prefix="nearindex_", dir="/tmp")
    build_positional_index(
        _read_co(sf_dir, "documents", ["doc_id", "text"], floor=8), idx,
        n_buckets=16)
    return query_near(idx, "table", "hash", 3, n_buckets=16)


def _q_turns_tool_streak(sf_dir: str):
    """Longest unbroken tool-call run per conversation
    (sessionize.longest_run over the tool-turn subsequence — the
    agentic-loop audit: how deep does the assistant chain tool calls
    before a view breaks the streak): gaps-and-islands on turn_idx
    among turns with a tool attr. Oracle = the classic ordinal −
    row_number island id."""
    from opentelemetry_collector_ray.stages.sessionize import longest_run

    def proj(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t.column("tool"), ""))
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": pc.cast(t.column("turn_idx"),
                                             pa.int64())})

    pre = _turns(sf_dir).map_batches(proj, batch_format="pyarrow")
    return longest_run(pre, "conv_id", "turn_idx")


def _q_events_ab_lift(sf_dir: str):
    """A/B experiment readout (deterministic hash assignment + exact
    sufficient statistics — the two-proportion comparison every
    experimentation pipeline materializes): variant = user_id parity,
    conversion = purchase event; per variant the users, trials,
    conversions and the truncating conversion-rate permille, plus
    per-variant distinct converting users (fused bucket
    count-distinct). The z-score itself needs a sqrt, so the exact
    integer PARTS are the contract (the drift-panel convention).
    Oracle = the same CASE lanes + COUNT(DISTINCT)."""
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_count_distinct)
    from opentelemetry_collector_ray.stages.join import shuffle_hash_join

    def lanes(t: pa.Table) -> pa.Table:
        variant = pc.cast(
            pc.bit_wise_and(t.column("user_id"),
                            pa.scalar(1, pa.int64())), pa.int64())
        conv = pc.cast(pc.equal(t.column("event_type"), "purchase"),
                       pa.int64())
        return pa.table({"variant": variant,
                         "user_id": t.column("user_id"),
                         "is_conv": conv})

    pre = _read_co(sf_dir, "events", ["user_id", "event_type"],
                   floor=8).map_batches(lanes, batch_format="pyarrow")
    agg = grouped_agg(pre, ["variant"], count_name="n_trials",
                      sum_cols={"n_conversions": "is_conv"})
    conv_users = grouped_count_distinct(
        pre.map_batches(
            lambda t: t.filter(pc.equal(t.column("is_conv"), 1)),
            batch_format="pyarrow"),
        ["variant"], "user_id", out_name="n_conv_users")
    # LEFT join + zero-fill: a variant with zero conversions has no
    # conv_users row, but the oracle's COUNT(DISTINCT CASE...) still
    # emits it with 0 (review finding — inner join dropped the row)
    j = shuffle_hash_join(agg, conv_users, key="variant", how="left")

    def pm(t: pa.Table) -> pa.Table:
        t = t.set_column(
            t.column_names.index("n_conv_users"), "n_conv_users",
            pc.fill_null(t.column("n_conv_users"),
                         pa.scalar(0, pa.int64())))
        r = pc.divide(pc.multiply(t.column("n_conversions"),
                                  pa.scalar(1000, pa.int64())),
                      t.column("n_trials"))
        return t.append_column("conv_permille", r)

    return j.map_batches(pm, batch_format="pyarrow")


def _q_turns_pii_screen(sf_dir: str):
    """Transcript PII screen (functions/redact.py on the NORTH-RULE
    payload: deterministic emails + IPs are injected into assistant
    turns, the full 5-rule RE2 chain scrubs them, and each
    conversation's REDACTED content is digest-gated — proving the
    scrub byte-for-byte under the stable (conv_id, turn_idx)
    ordering, not just counting matches): per conversation the turn
    count, email/IP match counts and the md5 of the redacted
    ordered concat. Oracle = the same injection + regexp_replace
    chain + string_agg digest."""
    from opentelemetry_collector_ray.functions.redact import (
        pii_counts, redact)

    def inject(t: pa.Table) -> pa.Table:
        uid = pc.utf8_slice_codeunits(t.column("conv_id"), 5, 99)
        pii = pc.binary_join_element_wise(
            " contact u", uid, "@example.com from 10.1.2.3", "")
        txt = pc.if_else(pc.equal(t.column("role"), "assistant"),
                         pc.binary_join_element_wise(
                             t.column("text"), pii, ""),
                         t.column("text"))
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "text": txt})

    injected = _turns(sf_dir).map_batches(inject, batch_format="pyarrow")

    def scrub(t: pa.Table) -> pa.Table:
        counts = pii_counts(t.column("text"))
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "clean": redact(t.column("text")),
                         "n_email": counts["n_email"],
                         "n_ipv4": counts["n_ipv4"]})

    scrubbed = injected.map_batches(scrub, batch_format="pyarrow")

    # counts AND the ordered digest share the conv_id partitioning —
    # ONE bucket exchange computes both (no join, no second exchange)
    def per_bucket(t: pa.Table) -> pa.Table:
        from opentelemetry_collector_ray.functions.text import md5_hex
        from opentelemetry_collector_ray.stages.bucketing import (
            multi_key_change)

        t = t.sort_by([("conv_id", "ascending"),
                       ("turn_idx", "ascending")])
        mask = multi_key_change(t, ["conv_id"])
        starts = np.flatnonzero(mask)
        n = np.diff(np.append(starts, t.num_rows))
        em = np.add.reduceat(
            t.column("n_email").to_numpy(zero_copy_only=False), starts) \
            if len(starts) else np.empty(0, np.int64)
        ip = np.add.reduceat(
            t.column("n_ipv4").to_numpy(zero_copy_only=False), starts) \
            if len(starts) else np.empty(0, np.int64)
        offsets = np.append(starts, t.num_rows).astype(np.int32)
        clean = t.column("clean").combine_chunks()
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                         clean)
        joined = pc.binary_join(lists, "\n")
        heads = t.take(pa.array(starts.astype(np.int64)))
        return pa.table({"conv_id": heads.column("conv_id"),
                         "n_turns": pa.array(n.astype(np.int64)),
                         "n_emails": pa.array(em.astype(np.int64)),
                         "n_ips": pa.array(ip.astype(np.int64)),
                         "redacted_md5": md5_hex(joined)})

    from opentelemetry_collector_ray.stages.bucketing import (
        bucketed_map_groups)

    return bucketed_map_groups(scrubbed, "conv_id", per_bucket)


def _q_events_funnel_latency(sf_dir: str):
    """Time-to-convert distribution (composition on stages/funnel.py:
    the latency between a user's FIRST view and the funnel-completing
    purchase, the product metric beside the conversion rate): whole
    days via integer floor division, reduced to the bounded day
    value-count table (tree — the domain is the observation window),
    then the exact row_number rank rule reads p50/p90 off it in one
    final task. Oracle = the funnel CTEs + the same rank rule."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.funnel import funnel

    ev = _read_co(sf_dir, "events", ["user_id", "ts", "event_type"],
                  floor=8)
    fu = funnel(ev, "user_id", "ts", "event_type",
                ["view", "click", "purchase"])

    def days_lane(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("ts_3")))
        d = pc.divide(
            pc.subtract(pc.cast(pc.cast(t.column("ts_3"),
                                        pa.timestamp("us")), pa.int64()),
                        pc.cast(pc.cast(t.column("ts_1"),
                                        pa.timestamp("us")), pa.int64())),
            pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"days": d})

    counts = grouped_count(fu.map_batches(days_lane,
                                          batch_format="pyarrow"),
                           ["days"], count_name="_n")

    def rank_read(t: pa.Table) -> pa.Table:
        t = t.sort_by([("days", "ascending")])
        d = t.column("days").to_numpy(zero_copy_only=False)
        c = t.column("_n").to_numpy(zero_copy_only=False)
        cum = np.cumsum(c)
        n = int(cum[-1]) if len(cum) else 0
        out = {"n": pa.array([n], pa.int64())}
        for q, name in ((0.5, "p50_days"), (0.9, "p90_days")):
            if n:
                r = int(np.floor((n - 1) * q))
                out[name] = pa.array(
                    [int(d[np.searchsorted(cum, r + 1)])], pa.int64())
            else:
                out[name] = pa.array([None], pa.int64())
        return pa.table(out)

    return counts.repartition(1).map_batches(
        rank_read, batch_format="pyarrow", batch_size=None)


def _q_docs_dedup_keep_best(sf_dir: str):
    """Survivorship dedup — keep the BEST duplicate, not the first
    (the NeMo-Curator-style selection rule every curation stack
    prefers over arbitrary keep-first: among rows sharing a content
    hash, survive the highest token count, doc_id as tie-break):
    content md5 lane (text itself never shuffles), one bucket pass
    via cdc.latest_by_key. The synthetic corpus has NO exact
    duplicates (the gate would be vacuous), so every 7th doc is
    first re-injected as a higher-id copy — the survivor set then
    genuinely differs from the input (the injected ids win their
    groups on the tie-break). Oracle = the same UNION ALL +
    row_number over (hash ORDER BY quality DESC, doc_id DESC) = 1."""
    from opentelemetry_collector_ray.functions.text import md5_hex
    from opentelemetry_collector_ray.stages.cdc import latest_by_key

    def lanes(t: pa.Table) -> pa.Table:
        dup_mask = pc.equal(
            pc.subtract(t.column("doc_id"),
                        pc.multiply(pc.divide(t.column("doc_id"), 7),
                                    7)), 0)
        d = t.filter(dup_mask)
        ids = pa.concat_arrays(
            [t.column("doc_id").combine_chunks(),
             pc.add(d.column("doc_id"),
                    pa.scalar(1_000_000, pa.int64())).combine_chunks()])
        txt = pa.concat_arrays([t.column("text").combine_chunks(),
                                d.column("text").combine_chunks()])
        q = pc.cast(pc.add(pc.count_substring(txt, " "),
                           pa.scalar(1, pa.int32())), pa.int64())
        return pa.table({"hh": md5_hex(txt), "doc_id": ids, "q": q})

    pre = _read_co(sf_dir, "documents", ["doc_id", "text"],
                   floor=8).map_batches(lanes, batch_format="pyarrow")
    best = latest_by_key(pre, "hh", ["q", "doc_id"], keep="last")
    return best.select_columns(["doc_id", "q"])


def _q_docs_mixture_temp(sf_dir: str):
    """Power-weighted mixture quotas (the temperature knob on corpus
    mixing, at α=2 — the exactly-representable integer power:
    source budget share ∝ n², then largest-remainder apportionment of
    the 1000-seat token budget; α<1 flattening needs roots and stays
    outside the exact gate by design). Composition: bounded source
    counts (tree) → squared weights (int64-guarded) →
    allocate.apportion weight path. Oracle = the same n² + remainder
    arithmetic."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.allocate import apportion

    counts = grouped_count(
        _read_co(sf_dir, "documents", ["source"], floor=8),
        ["source"], count_name="n")

    def squared(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        if len(n) and int(n.max()) > 3_000_000_000:
            raise ValueError("docs_mixture_temp: n² would overflow "
                             "int64 — rescale")
        return pa.table({"source": t.column("source"),
                         "w": pa.array((n * n).astype(np.int64))})

    pre = counts.map_batches(squared, batch_format="pyarrow")
    return apportion(pre, ["source"], 1000, weight_col="w",
                     count_name="w")


def _q_events_metric_ratio(sf_dir: str):
    """Derived-metric generation (the metricsgeneration processor
    analog: a NEW metric computed from two existing series — here the
    daily click-through rate = clicks/views permille): per-day lane
    counts in ONE tree aggregate, ratio as truncating integer
    division, NULL when the denominator is absent. Oracle = the same
    CASE sums + integer division."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def lanes(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        return pa.table({
            "day": pc.strftime(t.column("ts"), format="%Y-%m-%d"),
            "n_clicks": pc.cast(pc.equal(et, "click"), pa.int64()),
            "n_views": pc.cast(pc.equal(et, "view"), pa.int64())})

    pre = _read_co(sf_dir, "events", ["ts", "event_type"],
                   floor=8).map_batches(lanes, batch_format="pyarrow")
    agg = grouped_agg(pre, ["day"],
                      sum_cols={"n_clicks": "n_clicks",
                                "n_views": "n_views"})

    def ratio(t: pa.Table) -> pa.Table:
        pm = pc.if_else(
            pc.greater(t.column("n_views"), 0),
            pc.divide(pc.multiply(t.column("n_clicks"),
                                  pa.scalar(1000, pa.int64())),
                      t.column("n_views")),
            pa.scalar(None, pa.int64()))
        return t.append_column("ctr_permille", pm)

    return agg.map_batches(ratio, batch_format="pyarrow")


def _q_turns_handoff_matrix(sf_dir: str):
    """Role handoff matrix (the conversation-flow audit beside
    turns_alternation's repeat counter: WHO follows WHOM, the full
    prev-role × role transition counts): one conv_id lag window +
    one bounded tree rollup. Oracle = SQL lag + GROUP BY."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.window import per_key_window

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "role": t.column("role")})

    win = per_key_window(
        _turns(sf_dir).map_batches(proj, batch_format="pyarrow"),
        "conv_id", ["turn_idx"], {"prev_role": ("lag", "role")})

    def pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("prev_role")))
        return pa.table({"prev_role": t.column("prev_role"),
                         "role": t.column("role")})

    pre = win.map_batches(pairs, batch_format="pyarrow")
    return grouped_count(pre, ["prev_role", "role"],
                         count_name="n_handoffs")


def _q_events_dwell_time(sf_dir: str):
    """Transition dwell times (the pair-conditioned sibling of the
    inter-arrival stats: how long users linger between one event type
    and the next): per-user lag window over (ts, event_id), dwell
    lanes rolled into the bounded (prev_type, type) matrix — n, total
    and max dwell µs, all exact integers. Oracle = epoch_us lag +
    GROUP BY."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.window import per_key_window

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(pc.cast(t.column("ts"),
                                     pa.timestamp("us")), pa.int64()),
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type")})

    pre = _read_co(sf_dir, "events",
                   ["user_id", "ts", "event_id", "event_type"],
                   floor=8).map_batches(proj, batch_format="pyarrow")
    win = per_key_window(pre, "user_id", ["ts_us", "event_id"],
                         {"prev_ts": ("lag", "ts_us"),
                          "prev_type": ("lag", "event_type")})

    def lanes(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("prev_ts")))
        return pa.table({
            "prev_type": t.column("prev_type"),
            "event_type": t.column("event_type"),
            "dwell_us": pc.subtract(t.column("ts_us"),
                                    t.column("prev_ts"))})

    mid = win.map_batches(lanes, batch_format="pyarrow")
    return grouped_agg(mid, ["prev_type", "event_type"],
                       count_name="n",
                       sum_cols={"sum_dwell_us": "dwell_us"},
                       max_cols={"max_dwell_us": "dwell_us"})


def _q_profiles_diff(sf_dir: str):
    """Differential flamegraph (the regression-detection read of the
    profiles signal: per function the total µs in a BASELINE vs a
    CANDIDATE sample set — here split by event_id parity — and the
    signed delta): frames explode once with side lanes, one bounded
    tree rollup; negative deltas are real signal. Oracle = the same
    frame UNION ALL + parity CASE lanes."""
    from opentelemetry_collector_ray.sources.profiles import FRAME_COLS
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    frames = _profile_frames(sf_dir)

    def lanes(t: pa.Table) -> pa.Table:
        n = t.num_rows
        names = pa.concat_arrays([
            (t.column(c).combine_chunks()
             if isinstance(t.column(c), pa.ChunkedArray)
             else t.column(c)).cast(pa.string()) for c in FRAME_COLS])
        us = t.column("value_us").to_numpy(zero_copy_only=False)
        odd = (t.column("event_id").to_numpy(zero_copy_only=False)
               & 1).astype(bool)
        us3 = np.tile(us, 3)
        odd3 = np.tile(odd, 3)
        return pa.table({
            "name": names,
            "base_us": pa.array(np.where(odd3, 0, us3)),
            "cand_us": pa.array(np.where(odd3, us3, 0)),
            "n_base": pa.array((~odd3).astype(np.int64)),
            "n_cand": pa.array(odd3.astype(np.int64))})

    pre = frames.map_batches(lanes, batch_format="pyarrow")
    agg = grouped_agg(pre, ["name"],
                      sum_cols={c: c for c in
                                ("base_us", "cand_us",
                                 "n_base", "n_cand")})

    def delta(t: pa.Table) -> pa.Table:
        return t.append_column(
            "delta_us", pc.subtract(t.column("cand_us"),
                                    t.column("base_us")))

    return agg.map_batches(delta, batch_format="pyarrow")


def _q_spans_slow_exemplars(sf_dir: str):
    """Slowest-trace exemplars (the drill-down link every latency
    dashboard carries: per service, WHICH trace to open — the one
    with the largest total span time): per-(service, trace) sums ride
    the two-phase aggregate (unbounded trace keys, near-unique
    composite), then one
    argmax per service via cdc.latest_by_key. Oracle = row_number
    over (total DESC, trace DESC) = 1."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.cdc import latest_by_key

    per_trace = grouped_agg(
        _spans(sf_dir).select_columns(["service", "trace_id",
                                       "duration_us"]),
        ["service", "trace_id"], count_name="n_spans",
        sum_cols={"total_us": "duration_us"})
    return latest_by_key(per_trace, "service",
                         ["total_us", "trace_id"], keep="last")


def _q_spans_trace_assembly(sf_dir: str):
    """Whole-trace assembly under a digest gate (the groupbytrace
    processor analog: gather every span of a trace in start order —
    here gated byte-exactly via the md5 of the ordered span-id
    concat, the turns_conv_digest discipline applied to traces): one
    bucket exchange (grouped_string_agg), n_spans recovered from the
    separator count (span ids are fixed 16-hex, ',' never occurs).
    Oracle = string_agg(span_id ORDER BY start_ts, span_id) + md5."""
    from opentelemetry_collector_ray.functions.text import md5_hex
    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_string_agg)

    def lanes(t: pa.Table) -> pa.Table:
        # the tie-break column must be distinct from the value column
        # (grouped_string_agg selects both)
        return pa.table({"trace_id": t.column("trace_id"),
                         "span_id": t.column("span_id"),
                         "start_ts": t.column("start_ts"),
                         "sid": t.column("span_id")})

    sel = _spans(sf_dir).select_columns(
        ["trace_id", "span_id", "start_ts"]).map_batches(
        lanes, batch_format="pyarrow")
    agg = grouped_string_agg(sel, "trace_id", ["start_ts", "sid"],
                             "span_id", sep=",", out_name="joined")

    def digest(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.add(pc.count_substring(t.column("joined"), ","),
                           pa.scalar(1, pa.int32())), pa.int64())
        return pa.table({"trace_id": t.column("trace_id"),
                         "n_spans": n,
                         "trace_md5": md5_hex(t.column("joined"))})

    return agg.map_batches(digest, batch_format="pyarrow")


def _q_turns_subsessions(sf_dir: str):
    """Conversation sub-session segmentation (the sessionize semantic
    applied WITHIN conversations: a >6h silence splits an episode —
    the multi-sitting-chat audit): per conversation the episode
    count, the longest silence and the active span, from one conv_id
    lag window + one bucket aggregate. Oracle = SQL lag + CASE."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.window import per_key_window

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "ts_us": pc.cast(pc.cast(t.column("ts"),
                                     pa.timestamp("us")), pa.int64())})

    win = per_key_window(
        _turns(sf_dir).map_batches(proj, batch_format="pyarrow"),
        "conv_id", ["turn_idx"], {"prev_ts": ("lag", "ts_us")})
    gap_thr = 6 * 3_600_000_000

    def lanes(t: pa.Table) -> pa.Table:
        gap = pc.subtract(t.column("ts_us"),
                          pc.fill_null(t.column("prev_ts"),
                                       t.column("ts_us")))
        brk = pc.cast(pc.greater(gap, pa.scalar(gap_thr, pa.int64())),
                      pa.int64())
        return pa.table({"conv_id": t.column("conv_id"),
                         "is_break": brk, "gap_us": gap,
                         "ts_us": t.column("ts_us")})

    pre = win.map_batches(lanes, batch_format="pyarrow")
    agg = grouped_agg(pre, ["conv_id"], count_name="n_turns",
                      sum_cols={"n_breaks": "is_break"},
                      max_cols={"max_gap_us": "gap_us",
                                "last_ts": "ts_us"},
                      min_cols={"first_ts": "ts_us"})

    def fin(t: pa.Table) -> pa.Table:
        eps = pc.add(t.column("n_breaks"), pa.scalar(1, pa.int64()))
        span = pc.subtract(t.column("last_ts"), t.column("first_ts"))
        return pa.table({"conv_id": t.column("conv_id"),
                         "n_turns": t.column("n_turns"),
                         "n_episodes": eps,
                         "max_gap_us": t.column("max_gap_us"),
                         "span_us": span})

    return agg.map_batches(fin, batch_format="pyarrow")


def _q_events_negative_samples(sf_dir: str):
    """Negative sampling for training pairs (the recommender /
    contrastive-learning prep step: deterministic draws from the
    ABSENT cells of the interaction matrix): the user×day zero-fill
    spine (grid_densify) filtered to its true zeros, thinned to ~half
    by the md5 permille of the composite key — membership is a pure
    content hash, so re-sharding or re-running never changes the
    sample. Oracle = the same spine + anti-join + md5 filter."""
    from opentelemetry_collector_ray.functions.text import md5_mod
    from opentelemetry_collector_ray.stages.resample import grid_densify

    def lanes(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t.column("user_id"),
            "day": pc.strftime(t.column("ts"), format="%Y-%m-%d")})

    pre = _read_co(sf_dir, "events", ["user_id", "ts"],
                   floor=8).map_batches(lanes, batch_format="pyarrow")
    grid = grid_densify(pre, "user_id", "day")

    def negatives(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("n"), 0))
        comp = pc.binary_join_element_wise(
            pc.cast(t.column("user_id"), pa.string()), "|",
            t.column("day"), "")
        keep = pa.array(md5_mod(comp, 1000) < 500)
        t = t.filter(keep)
        return pa.table({"user_id": t.column("user_id"),
                         "day": t.column("day")})

    return grid.map_batches(negatives, batch_format="pyarrow")


def _q_turns_length_drift(sf_dir: str):
    """Transcript length drift (normalize.grouped_ks on the NORTH-RULE
    payload: per role, the exact KS distance between early and late
    turn-text length distributions — the "did the chat template
    change mid-corpus" screen): one bucket exchange, segment cumsums
    + maximum.reduceat. Oracle = the standard KS window SQL over the
    same char-length lanes."""
    from opentelemetry_collector_ray.stages.normalize import grouped_ks

    T_US = 1_705_363_200_000_000  # 2024-01-16 epoch microseconds

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                     pa.int64())
        period = pc.if_else(
            pc.less(ts, pa.scalar(T_US, pa.int64())), "early", "late")
        return pa.table({"role": t.column("role"),
                         "period": period,
                         "nchars": pc.cast(
                             pc.utf8_length(t.column("text")),
                             pa.int64())})

    pre = _turns(sf_dir).map_batches(prep, batch_format="pyarrow")
    return grouped_ks(pre, "role", "period", "nchars",
                      "early", "late")


def _q_events_forecast_backtest(sf_dir: str):
    """Seasonal-naive forecast backtest (the baseline every capacity
    forecast is judged against: predict today's per-type traffic as
    LAST WEEK's same-weekday count, score the absolute error): daily
    counts ZERO-FILLED on the observed type×day spine (grid_densify —
    a review finding: a row-lag over the sparse count table would
    step back 7 ROWS, not 7 calendar days, silently misaligning the
    weekday whenever a type has an empty day) → lag-7 window per type
    → exact integer error lanes (n scored days, Σ|err|, Σ actual —
    MAE/WAPE read off as rationals). Oracle = the same spine +
    COALESCE 0 + lag window."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.stages.resample import grid_densify
    from opentelemetry_collector_ray.stages.window import per_key_window

    def lanes(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "day": pc.strftime(t.column("ts"), format="%Y-%m-%d")})

    daily = grid_densify(
        _read_co(sf_dir, "events", ["ts", "event_type"],
                 floor=8).map_batches(lanes, batch_format="pyarrow"),
        "event_type", "day")
    win = per_key_window(daily, "event_type", ["day"],
                         {"pred": ("lag", "n", 7)})

    def err(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("pred")))
        e = pc.abs(pc.subtract(t.column("n"), t.column("pred")))
        return pa.table({"event_type": t.column("event_type"),
                         "abs_err": e, "actual": t.column("n")})

    pre = win.map_batches(err, batch_format="pyarrow")
    return grouped_agg(pre, ["event_type"], count_name="n_days",
                       sum_cols={"sum_abs_err": "abs_err",
                                 "sum_actual": "actual"})


def _q_spans_error_budget(sf_dir: str):
    """Error-budget remaining (the SRE readout beside slo_burn's
    instantaneous rate: given a 99.5% success SLO, how many failures
    the service can still absorb this period): per service the
    request/error counts, the integer budget 5·n//1000, and the
    SIGNED remainder (negative = budget blown). One tree aggregate +
    integer lanes. Oracle = the same CASE + // arithmetic."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    def lanes(t: pa.Table) -> pa.Table:
        return pa.table({
            "service": t.column("service"),
            "is_err": pc.cast(pc.equal(t.column("status_code"), 2),
                              pa.int64())})

    pre = _spans(sf_dir).select_columns(
        ["service", "status_code"]).map_batches(
        lanes, batch_format="pyarrow")
    agg = grouped_agg(pre, ["service"], count_name="n_requests",
                      sum_cols={"n_errors": "is_err"})

    def budget(t: pa.Table) -> pa.Table:
        allowed = pc.divide(pc.multiply(t.column("n_requests"),
                                        pa.scalar(5, pa.int64())),
                            pa.scalar(1000, pa.int64()))
        rem = pc.subtract(allowed, t.column("n_errors"))
        return t.append_column("budget_allowed", allowed) \
                .append_column("budget_remaining", rem)

    return agg.map_batches(budget, batch_format="pyarrow")


def _q_orders_aging_buckets(sf_dir: str):
    """Open-order aging report (the accounts-receivable staple: how
    old is the open backlog, in watermark-relative bands): orders
    still 'O'pen bucketed by age vs the corpus max order date — the
    watermark is ONE tiny driver scalar (the series-staleness
    convention), the bands 0-30 / 31-90 / 91-365 / 365+ days are a
    pure integer CASE, cents summed per band. Oracle = the same
    max() scalar subquery + CASE."""
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg

    base = _read_co(sf_dir, "orders",
                    ["o_orderstatus", "o_orderdate", "o_totalprice"],
                    floor=8)
    wm = base.max("o_orderdate")
    wm_us = int(wm.value // 1000) if hasattr(wm, "value") else int(
        wm.timestamp() * 1e6)

    def lanes(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("o_orderstatus"), "O"))
        us = pc.cast(pc.cast(t.column("o_orderdate"),
                             pa.timestamp("us")), pa.int64())
        age = pc.divide(pc.subtract(pa.scalar(wm_us, pa.int64()), us),
                        pa.scalar(86_400_000_000, pa.int64()))
        a = age.to_numpy(zero_copy_only=False)
        band = np.select([a <= 30, a <= 90, a <= 365],
                         ["0-30", "31-90", "91-365"], "365+")
        return pa.table({"age_band": pa.array(band),
                         "cents": _cents(t.column("o_totalprice"))})

    pre = base.map_batches(lanes, batch_format="pyarrow")
    return grouped_agg(pre, ["age_band"], count_name="n_orders",
                       sum_cols={"sum_cents": "cents"})


# ----------------------------------------------------------- driver surface

def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 (Ray pre-initialised)."""
    return _q_turns_agg("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """Every ``_q_<name>`` function of this module, keyed by ``<name>``.

    A caller may check queries in iteration order and cap the run
    (observed cap: 50), so the oracle-checked queries come first, in
    ``oracle_sql()`` key order, and the rest (approximate or heuristic
    by design, checked by their own pytest oracles) follow in
    definition order. A name in ``oracle_sql()`` with no ``_q_``
    function raises ``KeyError(name)``."""
    fns = {name[3:]: fn for name, fn in globals().items()
           if name.startswith("_q_")}
    return {**{name: fns[name] for name in oracle_sql()}, **fns}


# ------------------------------------------------------------- oracle SQL

def _sql_case_map(col: str, mapping: dict, default: str, idx: int | None = None) -> str:
    parts = [f"CASE {col}"]
    for k, v in mapping.items():
        val = v[idx] if idx is not None else v
        parts.append(f"WHEN '{k}' THEN '{val}'")
    parts.append(f"ELSE '{default}' END")
    return " ".join(parts)


def _sql_prefix_case(col: str, prefixes, idx: int, default: str) -> str:
    parts = ["CASE"]
    for row in prefixes:
        parts.append(f"WHEN starts_with({col}, '{row[0]}') THEN '{row[idx]}'")
    parts.append(f"ELSE '{default}' END")
    return " ".join(parts)


def _pii_redact_sql() -> str:
    """DuckDB mirror of _q_pii_redact, composed from the SAME RE2 patterns
    as functions/redact.py (both engines run RE2 — exact parity)."""
    from opentelemetry_collector_ray.functions.redact import PII_RULES

    build = ("'Contact ' || c_name || ' at user' || CAST(c_custkey AS VARCHAR)"
             " || '@corp.example.com or call 555-010-' || k4"
             " || ' card 4111-1111-1111-' || k4 || ' ssn 123-45-' || k4"
             " || ' ip 10.' || CAST(c_custkey % 256 AS VARCHAR) || '.0.1 end'")
    redacted = "text"
    for _name, pattern, token in PII_RULES:
        redacted = f"regexp_replace({redacted}, '{pattern}', '{token}', 'g')"
    counts = ", ".join(
        f"CAST(len(regexp_extract_all(text, '{pattern}')) AS BIGINT)"
        f" AS n_{name}" for name, pattern, _token in PII_RULES)
    return f"""
WITH k AS (
  SELECT c_custkey, c_name,
         lpad(CAST(c_custkey % 10000 AS VARCHAR), 4, '0') AS k4
  FROM customer),
s AS (SELECT c_custkey, {build} AS text FROM k)
SELECT c_custkey, {redacted} AS redacted, {counts} FROM s
"""


def _zorder_sql_expr(x: str, y: str) -> str:
    """Morton interleave as a SQL bit expression (disjoint bits, so +
    is OR) — mirrors stages/layout.zorder_code exactly."""
    terms = []
    for k in range(31):
        terms.append(f"((({x} >> {k}) & 1) << {2 * k})")
        terms.append(f"((({y} >> {k}) & 1) << {2 * k + 1})")
    return " + ".join(terms)


def oracle_sql() -> dict[str, str]:
    from opentelemetry_collector_ray.sources.profiles import FRAMES_CTE
    from opentelemetry_collector_ray.sources.spans import SPANS_CTE
    from opentelemetry_collector_ray.sources.transcripts import TURNS_CTE
    from opentelemetry_collector_ray.stages.enrich import (
        RESOURCE_PREFIXES, ROLE_DICT, TOOL_DICT)
    from opentelemetry_collector_ray.stages.parse import DEFAULT_PARSE_RULES

    r0 = DEFAULT_PARSE_RULES[0].pattern
    r1 = DEFAULT_PARSE_RULES[1].pattern
    with_turns = "WITH " + TURNS_CTE.strip()

    from opentelemetry_collector_ray.stages.templates import (
        mask_templates_sql)
    _mask_sql = mask_templates_sql("text")

    parse_sql = f"""
{with_turns}
SELECT conv_id, turn_idx,
  CASE WHEN regexp_matches(text, '{r0}') THEN 0
       WHEN regexp_matches(text, '{r1}') THEN 1 ELSE -1 END AS parse_rule,
  CASE WHEN regexp_matches(text, '{r0}') OR regexp_matches(text, '{r1}')
       THEN regexp_extract(text, '{r1}', 1) END AS level,
  CASE WHEN regexp_matches(text, '{r0}')
       THEN regexp_extract(text, '{r0}', 2) END AS tool_attr,
  CASE WHEN regexp_matches(text, '{r0}')
       THEN CAST(regexp_extract(text, '{r0}', 3) AS BIGINT) END AS latency_ms,
  CASE WHEN regexp_matches(text, '{r0}')
       THEN regexp_extract(text, '{r0}', 4) END AS status,
  CASE WHEN regexp_matches(text, '{r0}')
       THEN regexp_extract(text, '{r0}', 5) END AS trace,
  CASE WHEN NOT regexp_matches(text, '{r0}') AND regexp_matches(text, '{r1}')
       THEN regexp_extract(text, '{r1}', 2) END AS rest
FROM turns
"""

    tool_fam = _sql_case_map("tool", TOOL_DICT, "unknown", 0)
    tool_cost = _sql_case_map("tool", TOOL_DICT, "unknown", 1)
    role_kind = _sql_case_map("role", ROLE_DICT, "unknown")
    tenant = _sql_prefix_case("conv_id", RESOURCE_PREFIXES, 1, "tenant-unknown")
    env = _sql_prefix_case("conv_id", RESOURCE_PREFIXES, 2, "none")

    enrich_sql = f"""
{with_turns}
SELECT conv_id, turn_idx, role, tool,
  {tool_fam} AS tool_family,
  {tool_cost} AS tool_cost_class,
  {role_kind} AS role_kind,
  {tenant} AS tenant,
  {env} AS env
FROM turns
"""

    # Route rules (stages/route.py DEFAULT_ROUTE_RULES), first match wins.
    route_expr = f"""
  CASE WHEN regexp_matches(text, '{r0}') OR regexp_matches(text, '{r1}')
            THEN regexp_extract(text, '{r1}', 1) END = 'ERROR'"""
    route_sql = f"""
{with_turns},
routed AS (
  SELECT conv_id, turn_idx, role, tool, text, ts,
    CASE WHEN COALESCE({route_expr}, FALSE) THEN 'left'
         WHEN tool IN ('purchase', 'signup', 'python', 'bash') THEN 'right'
         WHEN regexp_matches(text, 'viewed page') THEN 'views'
         ELSE 'default' END AS route
  FROM turns
)
SELECT conv_id, turn_idx, route FROM routed
"""

    agg_sql = f"""
{with_turns},
routed AS (
  SELECT role, tool, ts,
    CASE WHEN COALESCE({route_expr}, FALSE) THEN 'left'
         WHEN tool IN ('purchase', 'signup', 'python', 'bash') THEN 'right'
         WHEN regexp_matches(text, 'viewed page') THEN 'views'
         ELSE 'default' END AS route
  FROM turns
)
SELECT route, role, tool, date_trunc('hour', ts) AS bucket,
       count(*) AS n_turns
FROM routed GROUP BY route, role, tool, bucket
"""

    return {
        "turns_derive": f"{with_turns} SELECT * FROM turns",
        "turns_parse": parse_sql,
        "turns_enrich": enrich_sql,
        "turns_route": route_sql,
        "turns_agg": agg_sql,
        "turns_agg_yaml": agg_sql,  # config parity: same result by contract
        "turns_templates": f"""
{with_turns}
SELECT {_mask_sql} AS template, CAST(count(*) AS BIGINT) AS n,
       min(text) AS example
FROM turns GROUP BY template
""",
        "events_cardinality_cap": """
WITH series AS (
  SELECT event_type, user_id, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS cents
  FROM events GROUP BY event_type, user_id
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY event_type
              ORDER BY n DESC, user_id ASC) AS rk
  FROM series)
SELECT event_type, user_id, n, cents FROM ranked WHERE rk <= 5
UNION ALL
SELECT event_type, CAST(-1 AS BIGINT) AS user_id,
       CAST(sum(n) AS BIGINT) AS n, CAST(sum(cents) AS BIGINT) AS cents
FROM ranked WHERE rk > 5 GROUP BY event_type
""",
        "events_late_arrivals": """
WITH a AS (
  SELECT user_id, event_id, epoch_us(ts) AS ts_us,
         epoch_us(ts) + CAST(('0x' || substr(md5(CAST(event_id AS VARCHAR)),
                              1, 12))::UBIGINT % 86400000000 AS BIGINT)
           AS arr_us
  FROM events
), w AS (
  SELECT user_id, ts_us,
         MAX(ts_us) OVER (PARTITION BY user_id ORDER BY arr_us, event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND 1 PRECEDING) AS wm
  FROM a)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(*) FILTER (WHERE wm - ts_us > 3600000000) AS BIGINT)
         AS n_late,
       CAST(coalesce(max(wm - ts_us)
                     FILTER (WHERE wm - ts_us > 3600000000), 0) AS BIGINT)
         AS max_late_us
FROM w GROUP BY user_id
""",
        "turns_oov_rate": f"""
{with_turns},
tok AS (
  SELECT conv_id, turn_idx,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM turns),
tf AS (SELECT term FROM tok GROUP BY term HAVING count(*) >= 2),
per AS (
  SELECT conv_id, turn_idx, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(*) FILTER (WHERE tf.term IS NULL) AS BIGINT) AS n_oov
  FROM tok LEFT JOIN tf USING (term) GROUP BY conv_id, turn_idx)
SELECT t.conv_id, t.turn_idx,
       CAST(coalesce(per.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(per.n_oov, 0) AS BIGINT) AS n_oov
FROM turns t LEFT JOIN per USING (conv_id, turn_idx)
""",
        "events_user_coverage": """
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s, epoch_us(ts) + 300000000 AS e
  FROM events),
w AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING) AS prev_max
  FROM iv),
isl AS (
  SELECT user_id, s, e,
         SUM(CASE WHEN prev_max IS NULL OR s > prev_max
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY s, e) AS island
  FROM w),
per AS (
  SELECT user_id, island, min(s) AS ms, max(e) AS me
  FROM isl GROUP BY user_id, island)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_periods,
       CAST(sum(me - ms) AS BIGINT) AS covered_us
FROM per GROUP BY user_id
""",
        "events_alert_hysteresis": """
WITH s AS (
  SELECT user_id, ts, event_id,
         CASE WHEN CAST(floor(value * 100 + 0.5) AS BIGINT) > 8000 THEN 1
              WHEN CAST(floor(value * 100 + 0.5) AS BIGINT) < 3500 THEN 0
         END AS sig
  FROM events),
a AS (
  SELECT user_id, ts, event_id,
         coalesce(last_value(sig IGNORE NULLS) OVER (
             PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 0)
           AS alert
  FROM s),
l AS (
  SELECT user_id, alert,
         coalesce(lag(alert) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id), 0) AS prev
  FROM a)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(alert) AS BIGINT) AS n_firing,
       CAST(count(*) FILTER (WHERE alert = 1 AND prev = 0) AS BIGINT)
         AS n_alerts
FROM l GROUP BY user_id
""",
        "events_rank_movers": """
WITH c AS (
  SELECT strftime(ts, '%Y-%m-%d') AS day, event_type,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY day, event_type),
r AS (
  SELECT day, event_type, n,
         CAST(row_number() OVER (PARTITION BY day
              ORDER BY n DESC, event_type) AS BIGINT) AS rk
  FROM c)
SELECT a.day, a.event_type, a.n, a.rk, b.rk AS prev_rk,
       b.rk - a.rk AS rank_delta
FROM r a JOIN r b ON a.event_type = b.event_type
  AND b.day = strftime(CAST(a.day AS DATE) - INTERVAL 1 DAY, '%Y-%m-%d')
""",
        "events_t_closeness": """
WITH src AS (
  SELECT event_type || '#' || strftime(ts, '%w') AS grp,
         CAST(floor(value * 100 + 0.5) AS BIGINT) // 2000 AS band
  FROM events),
g AS (SELECT grp, band, CAST(count(*) AS BIGINT) AS c
      FROM src GROUP BY grp, band),
tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM src),
agrid AS (SELECT band, CAST(sum(c) AS BIGINT) AS cb
          FROM g GROUP BY band),
grid AS (
  SELECT band, CAST(sum(cb) OVER (ORDER BY band) AS BIGINT) AS cuma,
         lead(band) OVER (ORDER BY band) AS nxt
  FROM agrid),
gn AS (SELECT grp, CAST(sum(c) AS BIGINT) AS n_g FROM g GROUP BY grp),
cg AS (
  SELECT q.grp, q.n_g, r.band, r.cuma, r.nxt,
         CAST(coalesce(sum(g.c) OVER (
             PARTITION BY q.grp ORDER BY r.band
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 0)
           AS BIGINT) AS cumg
  FROM gn q CROSS JOIN grid r
  LEFT JOIN g ON g.grp = q.grp AND g.band = r.band)
SELECT grp, n_g, (SELECT n FROM tot) AS n_total,
       CAST(sum(CASE WHEN nxt IS NULL THEN 0
                ELSE abs((SELECT n FROM tot) * cumg - n_g * cuma)
                     * (nxt - band) END) AS BIGINT) AS w1_num
FROM cg GROUP BY grp, n_g
""",
        "events_delta_rate": """
WITH s AS (
  SELECT user_id, event_id, epoch_us(ts) AS ts_us,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events)
SELECT user_id, event_id,
       CASE WHEN lag(ts_us) OVER w IS NULL THEN NULL
            ELSE cents * 1000000 // (ts_us - lag(ts_us) OVER w)
       END AS rate_scaled
FROM s WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)
""",
        "events_syslog_pri": """
WITH s AS (SELECT event_id % 200 AS pri FROM events),
d AS (
  SELECT CASE WHEN pri BETWEEN 0 AND 191 THEN pri // 8 END AS facility,
         CASE WHEN pri BETWEEN 0 AND 191 THEN pri % 8 END
           AS syslog_severity
  FROM s)
SELECT facility, syslog_severity,
       CASE syslog_severity
            WHEN 0 THEN 21 WHEN 1 THEN 22 WHEN 2 THEN 23 WHEN 3 THEN 17
            WHEN 4 THEN 13 WHEN 5 THEN 10 WHEN 6 THEN 9 WHEN 7 THEN 5
       END AS severity_number,
       CAST(count(*) AS BIGINT) AS n
FROM d GROUP BY facility, syslog_severity, severity_number
""",
        "docs_index_phrase": """
SELECT doc_id FROM documents
WHERE contains(
  ' ' || array_to_string(regexp_extract_all(lower(text), '[a-z]+'), ' ')
      || ' ',
  ' table hash ')
""",
        "turns_conv_digest": f"""
{with_turns}
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
       md5(string_agg(text, chr(10) ORDER BY turn_idx)) AS content_md5
FROM turns GROUP BY conv_id
""",
        "turns_response_latency": f"""
{with_turns},
l AS (
  SELECT conv_id, role,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
             PARTITION BY conv_id ORDER BY turn_idx) AS lat_us
  FROM turns)
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_responses,
       CAST(sum(lat_us) AS BIGINT) AS total_lat_us,
       CAST(max(lat_us) AS BIGINT) AS max_lat_us
FROM l WHERE role = 'assistant' AND lat_us IS NOT NULL
GROUP BY conv_id
""",
        "events_snowflake": """
WITH sf AS (
  SELECT ((epoch_us(ts) // 1000) << 22)
         | ((user_id % 1024) << 12) | (event_id % 4096) AS id
  FROM events),
d AS (
  SELECT id >> 22 AS sf_ts_ms, (id >> 12) & 1023 AS sf_machine,
         id & 4095 AS sf_seq
  FROM sf)
SELECT sf_machine, CAST(count(*) AS BIGINT) AS n,
       CAST(min(sf_ts_ms) AS BIGINT) AS first_ts_ms,
       CAST(max(sf_ts_ms) AS BIGINT) AS last_ts_ms,
       CAST(count(DISTINCT sf_seq) AS BIGINT) AS n_seqs
FROM d GROUP BY sf_machine
""",
        "turns_span_correlation": f"""
WITH {TURNS_CTE.strip()}, {SPANS_CTE.strip()},
logs AS (
  SELECT regexp_extract(text, '{r0}', 5) AS trace,
         regexp_extract(text, '{r1}', 1) AS level
  FROM turns WHERE regexp_matches(text, '{r0}'))
SELECT s.service, l.level, CAST(count(*) AS BIGINT) AS n_logs,
       CAST(count(*) FILTER (WHERE s.status_code = 2) AS BIGINT)
         AS n_error_spans
FROM logs l JOIN spans s ON l.trace = s.span_id
GROUP BY s.service, l.level
""",
        "events_bounce_rate": """
WITH gaps AS (
  SELECT user_id, event_id, ts,
    CASE WHEN lag(ts) OVER w IS NULL
           OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
         THEN 1 ELSE 0 END AS new_sess
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT user_id,
    SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS session_id
  FROM gaps
), per_sess AS (
  SELECT user_id, session_id, count(*) AS n_events
  FROM s GROUP BY user_id, session_id)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(count(*) FILTER (WHERE n_events = 1) AS BIGINT) AS n_bounce,
       CAST(count(*) FILTER (WHERE n_events = 1) * 1000 // count(*)
            AS BIGINT) AS bounce_permille
FROM per_sess GROUP BY user_id
""",
        "events_iat_parts": """
WITH l AS (
  SELECT user_id,
         (epoch_us(ts) - lag(epoch_us(ts)) OVER (
              PARTITION BY user_id ORDER BY ts, event_id)) // 1000000
           AS dt_s
  FROM events)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps,
       CAST(sum(dt_s) AS BIGINT) AS sum_s,
       CAST(sum(dt_s * dt_s) AS BIGINT) AS sum_s2
FROM l WHERE dt_s IS NOT NULL GROUP BY user_id
""",
        "events_ring_assign": """
WITH ring AS (
  SELECT b, ('0x' || substr(md5(b || '#' || CAST(j AS VARCHAR)), 1, 12))
           ::UBIGINT AS pos
  FROM (VALUES ('be-a'), ('be-b'), ('be-c'), ('be-d')) AS t(b)
  CROSS JOIN generate_series(0, 7) AS g(j)),
k AS (
  SELECT event_type,
         ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 12))
           ::UBIGINT AS h
  FROM events),
a AS (
  SELECT event_type,
         coalesce(
           (SELECT r.b FROM ring r WHERE r.pos >= k.h
            ORDER BY r.pos, r.b LIMIT 1),
           (SELECT r.b FROM ring r ORDER BY r.pos, r.b LIMIT 1))
           AS backend
  FROM k)
SELECT backend, event_type, CAST(count(*) AS BIGINT) AS n
FROM a GROUP BY backend, event_type
""",
        "events_fair_quota": """
WITH src AS (
  SELECT event_type || '#' || CAST(user_id % 5 AS VARCHAR) AS tenant
  FROM events),
d AS (SELECT tenant, CAST(count(*) AS BIGINT) AS demand
      FROM src GROUP BY tenant),
cap AS (SELECT 3 * count(*) // 5 AS c FROM src),
o AS (
  SELECT tenant, demand,
         row_number() OVER (ORDER BY demand, tenant) AS rn,
         sum(demand) OVER (ORDER BY demand, tenant
                           ROWS UNBOUNDED PRECEDING) AS cum,
         count(*) OVER () AS n
  FROM d),
th AS (
  SELECT ((SELECT c FROM cap) - (cum - demand)) AS num,
         (n - rn + 1) AS den
  FROM o WHERE (cum - demand) + demand * (n - rn + 1)
               > (SELECT c FROM cap)
  ORDER BY rn LIMIT 1)
SELECT tenant, demand,
       CAST(CASE WHEN (SELECT count(*) FROM th) = 0 THEN demand
            ELSE least(demand,
                       (SELECT num FROM th) // (SELECT den FROM th))
       END AS BIGINT) AS alloc
FROM d
""",
        "events_interpolated": """
WITH obs AS (
  SELECT user_id, epoch_us(ts) AS tu,
         max(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS cv
  FROM events GROUP BY user_id, epoch_us(ts)),
b AS (SELECT user_id, min(tu) AS mn, max(tu) AS mx
      FROM obs GROUP BY user_id),
g AS (
  SELECT user_id,
         unnest(generate_series(
           CASE WHEN (mn // 86400000000) * 86400000000 < mn
                THEN (mn // 86400000000) * 86400000000 + 86400000000
                ELSE mn END,
           mx, 86400000000)) AS grid_ts
  FROM b),
nb AS (
  SELECT g.user_id, g.grid_ts,
         (SELECT max(o.tu) FROM obs o
          WHERE o.user_id = g.user_id AND o.tu <= g.grid_ts) AS pt,
         (SELECT min(o.tu) FROM obs o
          WHERE o.user_id = g.user_id AND o.tu >= g.grid_ts) AS nt
  FROM g)
SELECT nb.user_id, nb.grid_ts,
       CAST(po.cv + CASE WHEN nb.nt = nb.pt THEN 0
            ELSE (no.cv - po.cv) * (nb.grid_ts - nb.pt)
                 // (nb.nt - nb.pt) END AS BIGINT) AS v_interp
FROM nb
JOIN obs po ON po.user_id = nb.user_id AND po.tu = nb.pt
JOIN obs no ON no.user_id = nb.user_id AND no.tu = nb.nt
""",
        "events_quantile_map": """
WITH src AS (
  SELECT event_type AS s,
         CAST(floor(value * 100 + 0.5) AS BIGINT) // 100 AS v
  FROM events),
vc AS (SELECT s, v, CAST(count(*) AS BIGINT) AS c
       FROM src GROUP BY s, v),
ref AS (SELECT v, sum(c) OVER (ORDER BY v
                               ROWS UNBOUNDED PRECEDING) AS cum
        FROM vc WHERE s = 'view'),
refn AS (SELECT max(cum) AS nr FROM ref),
sv AS (
  SELECT s, v,
         sum(c) OVER (PARTITION BY s ORDER BY v
                      ROWS UNBOUNDED PRECEDING) - 1 AS r,
         sum(c) OVER (PARTITION BY s) AS n
  FROM vc WHERE s != 'view')
SELECT s AS event_type, v,
       CAST((SELECT min(ref.v) FROM ref
             WHERE ref.cum > ((SELECT nr FROM refn) - 1) * sv.r
                             // (sv.n - 1)) AS BIGINT) AS mapped
FROM sv WHERE n > 1
""",
        "turns_context_window": f"""
WITH {TURNS_CTE.strip()},
tok AS (
  SELECT conv_id, turn_idx,
         CAST(1 + length(text) - length(replace(text, ' ', ''))
              AS BIGINT) AS n_tok
  FROM turns),
s AS (
  SELECT conv_id, turn_idx, n_tok,
         CAST(sum(n_tok) OVER (PARTITION BY conv_id ORDER BY turn_idx DESC
              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
              AS BIGINT) AS suffix_tok
  FROM tok)
SELECT conv_id, turn_idx, n_tok, suffix_tok FROM s WHERE suffix_tok <= 64
""",
        "spans_slo_burn": f"""
WITH {SPANS_CTE.strip()},
x AS (
  SELECT service, span_id, CAST(epoch_us(start_ts) AS BIGINT) AS ts_us,
         CASE WHEN duration_us > 75000 THEN 1 ELSE 0 END AS is_err
  FROM spans),
w AS (
  SELECT service, span_id, ts_us,
         CAST(sum(is_err) OVER s AS BIGINT) AS n_err_short,
         CAST(count(*) OVER s AS BIGINT) AS n_short,
         CAST(sum(is_err) OVER l AS BIGINT) AS n_err_long,
         CAST(count(*) OVER l AS BIGINT) AS n_long
  FROM x WINDOW
  s AS (PARTITION BY service ORDER BY ts_us
        RANGE BETWEEN 3600000000 PRECEDING AND CURRENT ROW),
  l AS (PARTITION BY service ORDER BY ts_us
        RANGE BETWEEN 21600000000 PRECEDING AND CURRENT ROW))
SELECT service, span_id, ts_us, n_err_short, n_short, n_err_long, n_long,
       CAST(CASE WHEN n_err_short * 1000 > 250 * n_short
                  AND n_err_long * 1000 > 250 * n_long
            THEN 1 ELSE 0 END AS BIGINT) AS burning
FROM w
""",
        "events_exphist_downscale": """
WITH c AS (SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT)
               AS cents FROM events),
i AS (SELECT event_type,
             CASE WHEN cents > 0
                  THEN CAST(length(bin(cents)) - 1
                       - CASE WHEN (cents & (cents - 1)) = 0
                         THEN 1 ELSE 0 END AS BIGINT) END AS idx0
      FROM c)
SELECT event_type,
       CASE WHEN idx0 IS NOT NULL
            THEN (idx0 - ((idx0 % 4 + 4) % 4)) // 4 END AS idx,
       CAST(count(*) AS BIGINT) AS n
FROM i GROUP BY event_type, idx
""",
        "docs_rater_kappa": """
WITH r AS (
  SELECT lang,
         CASE WHEN n_chars >= 400 THEN 2
              WHEN n_chars >= 250 THEN 1 ELSE 0 END AS a,
         CASE WHEN 1 + length(text) - length(replace(text, ' ', '')) >= 72
              THEN 2
              WHEN 1 + length(text) - length(replace(text, ' ', '')) >= 45
              THEN 1 ELSE 0 END AS b
  FROM documents),
c AS (SELECT lang, a, b, count(*) AS n FROM r GROUP BY lang, a, b),
tot AS (SELECT lang, CAST(sum(n) AS BIGINT) AS n,
               CAST(sum(CASE WHEN a = b THEN n ELSE 0 END) AS BIGINT)
                   AS n_agree
        FROM c GROUP BY lang),
ma AS (SELECT lang, a AS cls, sum(n) AS na FROM c GROUP BY lang, a),
mb AS (SELECT lang, b AS cls, sum(n) AS nb FROM c GROUP BY lang, b),
pe AS (SELECT ma.lang, CAST(sum(ma.na * mb.nb) AS BIGINT) AS pe_num
       FROM ma JOIN mb ON ma.lang = mb.lang AND ma.cls = mb.cls
       GROUP BY ma.lang)
SELECT t.lang, t.n, t.n_agree, COALESCE(p.pe_num, 0) AS pe_num,
       CASE WHEN t.n * t.n - COALESCE(p.pe_num, 0) <> 0
            THEN CAST((1000 * (t.n * t.n_agree - COALESCE(p.pe_num, 0)))
                 // (t.n * t.n - COALESCE(p.pe_num, 0)) AS BIGINT)
       END AS kappa_permille
FROM tot t LEFT JOIN pe p ON t.lang = p.lang
""",
        "turns_alternation": f"""
WITH {TURNS_CTE.strip()},
w AS (
  SELECT conv_id, role,
         lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
             AS prev_role,
         first_value(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
             AS first_role,
         last_value(role) OVER (PARTITION BY conv_id ORDER BY turn_idx
             ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
             AS last_role
  FROM turns)
SELECT conv_id, first_role, last_role,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END) AS BIGINT)
           AS n_repeats
FROM w GROUP BY conv_id, first_role, last_role
""",
        "docs_screen_eval": """
WITH x AS (
  SELECT lang,
         CASE WHEN n_chars >= 280 THEN 1 ELSE 0 END AS p,
         CASE WHEN 1 + length(text) - length(replace(text, ' ', '')) >= 50
              THEN 1 ELSE 0 END AS y
  FROM documents),
c AS (
  SELECT lang,
         CAST(sum(p * y) AS BIGINT) AS tp,
         CAST(sum(p * (1 - y)) AS BIGINT) AS fp,
         CAST(sum((1 - p) * y) AS BIGINT) AS fn,
         CAST(sum((1 - p) * (1 - y)) AS BIGINT) AS tn
  FROM x GROUP BY lang)
SELECT lang, tp, fp, fn, tn,
       CASE WHEN tp + fp > 0
            THEN CAST(1000 * tp // (tp + fp) AS BIGINT) END
           AS precision_permille,
       CASE WHEN tp + fn > 0
            THEN CAST(1000 * tp // (tp + fn) AS BIGINT) END
           AS recall_permille,
       CASE WHEN 2 * tp + fp + fn > 0
            THEN CAST(2000 * tp // (2 * tp + fp + fn) AS BIGINT) END
           AS f1_permille
FROM c
""",
        "events_value_auc": """
WITH x AS (
  SELECT event_type,
         CAST(floor(value * 10) AS BIGINT) AS score,
         CASE WHEN event_id % 2 = 0 THEN 1 ELSE 0 END AS label
  FROM events),
w AS (
  SELECT event_type, label,
         rank() OVER (PARTITION BY event_type ORDER BY score) AS r,
         count(*) OVER (PARTITION BY event_type, score) AS c
  FROM x),
a AS (
  SELECT event_type,
         CAST(sum(label) AS BIGINT) AS n_pos,
         CAST(sum(1 - label) AS BIGINT) AS n_neg,
         CAST(sum(CASE WHEN label = 1 THEN 2 * r + c - 1 ELSE 0 END)
              - sum(label) * (sum(label) + 1) AS BIGINT) AS u2
  FROM w GROUP BY event_type)
SELECT event_type, n_pos, n_neg, u2,
       CASE WHEN n_pos > 0 AND n_neg > 0
            THEN CAST(1000 * u2 // (2 * n_pos * n_neg) AS BIGINT) END
           AS auc_permille
FROM a
""",
        "events_user_gini": """
WITH c AS (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS nc
  FROM events GROUP BY user_id, event_type),
g AS (
  SELECT user_id, CAST(sum(nc) AS BIGINT) AS n,
         CAST(sum(nc * nc) AS BIGINT) AS sq
  FROM c GROUP BY user_id)
SELECT user_id, n, n * n - sq AS gini_num,
       CAST(1000 * (n * n - sq) // (n * n) AS BIGINT) AS gini_permille
FROM g
""",
        "events_dow_hour_heatmap": """
WITH x AS (
  SELECT CAST((epoch_us(ts) // 86400000000) % 7 AS BIGINT) AS dow,
         CAST((epoch_us(ts) % 86400000000) // 3600000000 AS BIGINT)
             AS hour
  FROM events)
SELECT dow, hour, CAST(count(*) AS BIGINT) AS n
FROM x GROUP BY dow, hour
""",
        "parts_degree_hist": """
WITH d AS (
  SELECT l_partkey, CAST(count(DISTINCT l_suppkey) AS BIGINT) AS degree
  FROM lineitem GROUP BY l_partkey)
SELECT degree, CAST(count(*) AS BIGINT) AS n_parts
FROM d GROUP BY degree
""",
        "events_base64": """
WITH p AS (
  SELECT event_id,
         event_type || ':' || CAST(user_id AS VARCHAR) || ':' ||
         CAST(CAST(floor(value * 100 + 0.5) AS BIGINT) AS VARCHAR)
             AS payload
  FROM events)
SELECT event_id, to_base64(encode(payload)) AS b64,
       payload AS roundtrip
FROM p
""",
        "events_duration_parse": """
WITH d AS (
  SELECT event_id,
         CASE WHEN event_id % 16 = 0 THEN 'b0gus'
              ELSE CAST(user_id % 4 AS VARCHAR) || 'h' ||
                   CAST(CAST(floor(value * 100 + 0.5) AS BIGINT) % 64
                        AS VARCHAR) || 'm' ||
                   CAST(event_id % 64 AS VARCHAR) || 's' END AS dur
  FROM events),
x AS (
  SELECT event_id, dur,
         regexp_extract(dur,
           '^(?:(\\d+)h)?(?:(\\d+)m)?(?:(\\d+)s)?(?:(\\d+)ms)?$', 1)
             AS gh,
         regexp_extract(dur,
           '^(?:(\\d+)h)?(?:(\\d+)m)?(?:(\\d+)s)?(?:(\\d+)ms)?$', 2)
             AS gm,
         regexp_extract(dur,
           '^(?:(\\d+)h)?(?:(\\d+)m)?(?:(\\d+)s)?(?:(\\d+)ms)?$', 3)
             AS gs,
         regexp_extract(dur,
           '^(?:(\\d+)h)?(?:(\\d+)m)?(?:(\\d+)s)?(?:(\\d+)ms)?$', 4)
             AS gms
  FROM d)
SELECT event_id, dur,
       CASE WHEN gh = '' AND gm = '' AND gs = '' AND gms = '' THEN NULL
            ELSE CAST(COALESCE(NULLIF(gh, '')::BIGINT, 0) * 3600000000
                 + COALESCE(NULLIF(gm, '')::BIGINT, 0) * 60000000
                 + COALESCE(NULLIF(gs, '')::BIGINT, 0) * 1000000
                 + COALESCE(NULLIF(gms, '')::BIGINT, 0) * 1000
                 AS BIGINT) END AS dur_us
FROM x
""",
        "orders_hist_rebucket": """
WITH c AS (SELECT o_orderstatus,
                  CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                      AS cents
           FROM orders)
SELECT o_orderstatus,
       CAST(LEAST((cents + 2000000 - 1) // 2000000 - 1, 15)
            AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM c GROUP BY o_orderstatus, bucket
""",
        "events_path_rollup": """
WITH p AS (
  SELECT string_split(event_type || '/u' ||
                      CAST(user_id % 8 AS VARCHAR) || '/' ||
                      CAST(user_id AS VARCHAR), '/') AS parts
  FROM events),
x AS (
  SELECT array_to_string(parts[1:1], '/') AS prefix, 1 AS depth
  FROM p WHERE len(parts) >= 1
  UNION ALL
  SELECT array_to_string(parts[1:2], '/'), 2 FROM p WHERE len(parts) >= 2
  UNION ALL
  SELECT array_to_string(parts[1:3], '/'), 3 FROM p WHERE len(parts) >= 3)
SELECT prefix, CAST(depth AS BIGINT) AS depth,
       CAST(count(*) AS BIGINT) AS n
FROM x GROUP BY prefix, depth
""",
        "customers_entity_groups": """
WITH RECURSIVE
e AS (
  SELECT a.c_custkey AS ea, b.c_custkey AS eb
  FROM customer a JOIN customer b
    ON substr(a.c_name, 10, 7) = substr(b.c_name, 10, 7)
   AND a.c_custkey < b.c_custkey
  WHERE levenshtein(a.c_name, b.c_name) <= 1),
nodes AS (SELECT ea AS n FROM e UNION SELECT eb FROM e),
bid AS (SELECT ea AS s, eb AS d FROM e UNION SELECT eb, ea FROM e),
reach(x, y) AS (
  SELECT n, n FROM nodes
  UNION
  SELECT r.x, b.d FROM reach r JOIN bid b ON b.s = r.y
)
SELECT x AS node, CAST(min(y) AS BIGINT) AS label FROM reach GROUP BY x
""",
        "docs_lang_eval": """
WITH x AS (
  SELECT CASE WHEN contains(lower(text), ' der ') THEN 'de'
              WHEN contains(lower(text), ' el ') THEN 'es'
              WHEN contains(lower(text), ' le ') THEN 'fr'
              WHEN contains(lower(text), ' the ') THEN 'en'
              ELSE 'und' END AS pred,
         lang AS label
  FROM documents),
c AS (SELECT pred, label, CAST(count(*) AS BIGINT) AS n
      FROM x GROUP BY pred, label),
cls AS (SELECT pred AS cls FROM c UNION SELECT label FROM c),
m AS (
  SELECT cls,
         CAST(COALESCE((SELECT sum(n) FROM c
                        WHERE pred = cls AND label = cls), 0)
              AS BIGINT) AS tp,
         CAST(COALESCE((SELECT sum(n) FROM c
                        WHERE pred = cls AND label <> cls), 0)
              AS BIGINT) AS fp,
         CAST(COALESCE((SELECT sum(n) FROM c
                        WHERE label = cls AND pred <> cls), 0)
              AS BIGINT) AS fn
  FROM cls)
SELECT cls, tp, fp, fn,
       CASE WHEN tp + fp > 0
            THEN CAST(1000 * tp // (tp + fp) AS BIGINT) END
           AS precision_permille,
       CASE WHEN tp + fn > 0
            THEN CAST(1000 * tp // (tp + fn) AS BIGINT) END
           AS recall_permille,
       CASE WHEN 2 * tp + fp + fn > 0
            THEN CAST(2000 * tp // (2 * tp + fp + fn) AS BIGINT) END
           AS f1_permille
FROM m
""",
        "docs_slice_odds": """
WITH tok AS (
  SELECT lang, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents WHERE lang IN ('en', 'de')),
c AS (SELECT term,
             CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                  AS BIGINT) AS a,
             CAST(sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END)
                  AS BIGINT) AS b
      FROM tok GROUP BY term),
t AS (SELECT CAST(sum(a) AS BIGINT) AS na, CAST(sum(b) AS BIGINT) AS nb,
             CAST(count(*) AS BIGINT) AS v
      FROM c)
SELECT term, a, b,
       CAST(1000 * (a + 1) * (nb + v) // ((b + 1) * (na + v))
            AS BIGINT) AS odds_permille
FROM c, t
ORDER BY odds_permille DESC, term ASC LIMIT 20
""",
        "events_audience_overlap": """
WITH d AS (
  SELECT DISTINCT event_type,
         CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day, user_id
  FROM events),
i AS (SELECT a.event_type, a.day, CAST(count(*) AS BIGINT) AS n_inter
      FROM d a JOIN d b ON a.event_type = b.event_type
       AND a.user_id = b.user_id AND b.day = a.day - 1
      GROUP BY a.event_type, a.day),
n AS (SELECT event_type, day, CAST(count(*) AS BIGINT) AS n_today
      FROM d GROUP BY event_type, day)
SELECT n.event_type, n.day, n.n_today, p.n_today AS n_prev,
       COALESCE(i.n_inter, 0) AS n_inter,
       CAST(1000 * COALESCE(i.n_inter, 0)
            // (n.n_today + p.n_today - COALESCE(i.n_inter, 0))
            AS BIGINT) AS jaccard_permille
FROM n JOIN n p ON p.event_type = n.event_type AND p.day = n.day - 1
LEFT JOIN i ON i.event_type = n.event_type AND i.day = n.day
""",
        "events_user_streak": """
WITH d AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
  FROM events),
r AS (
  SELECT user_id, day,
         day - row_number() OVER (PARTITION BY user_id ORDER BY day)
             AS isl
  FROM d),
i AS (SELECT user_id, isl, CAST(count(*) AS BIGINT) AS len
      FROM r GROUP BY user_id, isl)
SELECT user_id, CAST(sum(len) AS BIGINT) AS n_ordinals,
       CAST(max(len) AS BIGINT) AS longest_run
FROM i GROUP BY user_id
""",
        "turns_qa_pairs": f"""
WITH {TURNS_CTE.strip()},
w AS (
  SELECT conv_id, turn_idx, role, text,
         lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
             AS prev_role,
         lag(text) OVER (PARTITION BY conv_id ORDER BY turn_idx)
             AS prev_text
  FROM turns)
SELECT conv_id, turn_idx, prev_text AS prompt, text AS response
FROM w WHERE role = 'assistant' AND prev_role = 'user'
""",
        "events_folds": """
WITH r AS (
  SELECT event_type,
         row_number() OVER (PARTITION BY event_type
             ORDER BY epoch_us(ts), event_id) - 1 AS rn
  FROM events)
SELECT event_type, CAST(rn % 5 AS BIGINT) AS fold,
       CAST(count(*) AS BIGINT) AS n
FROM r GROUP BY event_type, rn % 5
""",
        "events_exemplars": """
WITH c AS (SELECT event_type, event_id,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
i AS (SELECT event_type, event_id, cents,
             CASE WHEN cents > 0
                  THEN CAST(length(bin(cents)) - 1
                       - CASE WHEN (cents & (cents - 1)) = 0
                         THEN 1 ELSE 0 END AS BIGINT) END AS idx
      FROM c),
r AS (SELECT event_type, idx, cents, event_id,
             row_number() OVER (PARTITION BY event_type, idx
                 ORDER BY cents DESC, event_id ASC) AS rn
      FROM i)
SELECT event_type, idx, cents, event_id FROM r WHERE rn = 1
""",
        "docs_calibration": """
WITH x AS (
  SELECT least(n_chars // 50, 9) AS bin,
         CASE WHEN 1 + length(text) - length(replace(text, ' ', '')) >= 50
              THEN 1 ELSE 0 END AS pos
  FROM documents)
SELECT bin, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(pos) AS BIGINT) AS n_pos,
       CAST(1000 * sum(pos) // count(*) AS BIGINT) AS pos_permille
FROM x GROUP BY bin
""",
        "events_rolling_extrema": """
WITH e AS (SELECT user_id, event_id,
                  CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events)
SELECT user_id, event_id, ts_us, cents,
       CAST(max(cents) OVER r AS BIGINT) AS max_7d,
       CAST(min(cents) OVER r AS BIGINT) AS min_7d,
       CAST(max(cents) OVER (PARTITION BY user_id
            ORDER BY ts_us, event_id
            ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS BIGINT)
           AS max_3r
FROM e WINDOW r AS (PARTITION BY user_id ORDER BY ts_us
     RANGE BETWEEN 604800000000 PRECEDING AND CURRENT ROW)
""",
        "events_exphist_p99": """
WITH c AS (SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT)
               AS cents FROM events),
i AS (SELECT event_type,
             CASE WHEN cents > 0
                  THEN CAST(length(bin(cents)) - 1
                       - CASE WHEN (cents & (cents - 1)) = 0
                         THEN 1 ELSE 0 END AS BIGINT) END AS idx
      FROM c),
g AS (SELECT event_type, idx, CAST(count(*) AS BIGINT) AS n
      FROM i GROUP BY event_type, idx),
w AS (SELECT event_type, idx, n,
             sum(n) OVER (PARTITION BY event_type
                          ORDER BY idx ASC NULLS FIRST) AS cum,
             sum(n) OVER (PARTITION BY event_type) AS tot
      FROM g)
SELECT event_type, CAST(tot AS BIGINT) AS n_total, idx AS q_idx
FROM w
WHERE cum > (tot - 1) * 990 // 1000
  AND cum - n <= (tot - 1) * 990 // 1000
""",
        "events_logfmt": """
WITH l AS (
  SELECT event_id,
         'level=' || event_type || ' user=' ||
         CAST(user_id AS VARCHAR) || ' cents=' ||
         CAST(CAST(floor(value * 100 + 0.5) AS BIGINT) AS VARCHAR) ||
         ' note="user ' || CAST(user_id AS VARCHAR) || ' did ' ||
         event_type || '"' AS line
  FROM events),
x AS (
  SELECT event_id,
         regexp_extract(line, '(?:^| )level=("[^"]*"|[^ ]+)', 1) AS lv,
         regexp_extract(line, '(?:^| )user=("[^"]*"|[^ ]+)', 1) AS us,
         regexp_extract(line, '(?:^| )cents=("[^"]*"|[^ ]+)', 1) AS ce,
         regexp_extract(line, '(?:^| )note=("[^"]*"|[^ ]+)', 1) AS no
  FROM l)
SELECT event_id,
       CASE WHEN lv LIKE '"%' THEN substr(lv, 2, length(lv) - 2)
            ELSE lv END AS level,
       CASE WHEN us LIKE '"%' THEN substr(us, 2, length(us) - 2)
            ELSE us END AS user_s,
       CASE WHEN ce LIKE '"%' THEN substr(ce, 2, length(ce) - 2)
            ELSE ce END AS cents_s,
       CASE WHEN no LIKE '"%' THEN substr(no, 2, length(no) - 2)
            ELSE no END AS note
FROM x
""",
        "spans_deepest_path": f"""
WITH RECURSIVE {SPANS_CTE.strip()},
p AS (
  SELECT trace_id, span_id, CAST(duration_us AS BIGINT) AS total
  FROM spans WHERE parent_span_id = ''
  UNION ALL
  SELECT s.trace_id, s.span_id, p.total + s.duration_us
  FROM spans s JOIN p
    ON s.trace_id = p.trace_id AND s.parent_span_id = p.span_id)
SELECT t.trace_id, t.n_spans, m.critical_us
FROM (SELECT trace_id, CAST(count(*) AS BIGINT) AS n_spans
      FROM spans GROUP BY trace_id) t
JOIN (SELECT trace_id, CAST(max(total) AS BIGINT) AS critical_us
      FROM p GROUP BY trace_id) m USING (trace_id)
""",
        "events_series_staleness": """
WITH s AS (
  SELECT user_id,
         CAST(count(*) AS BIGINT) AS n_points,
         CAST(min(epoch_us(ts)) AS BIGINT) AS first_us,
         CAST(max(epoch_us(ts)) AS BIGINT) AS last_us
  FROM events GROUP BY user_id)
SELECT user_id, n_points, first_us, last_us,
       CAST(CASE WHEN last_us < (SELECT max(last_us) FROM s)
                                - 86400000000
            THEN 1 ELSE 0 END AS BIGINT) AS stale
FROM s
""",
        "customers_near_names": """
SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
       CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS dist
FROM customer a JOIN customer b
  ON substr(a.c_name, 10, 7) = substr(b.c_name, 10, 7)
 AND a.c_custkey < b.c_custkey
WHERE levenshtein(a.c_name, b.c_name) <= 1
""",
        "docs_attrs_nested": """
WITH d AS (SELECT doc_id, string_split(text, ' ') AS toks, lang
           FROM documents)
SELECT doc_id, toks[1] AS first_tok, toks[6] AS tok5,
       CAST(len(toks) AS BIGINT) AS n_toks, lang
FROM d
""",
        "orders_global_sorted": """
SELECT o_orderkey,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents,
       CAST(row_number() OVER (
            ORDER BY CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) DESC,
                     o_orderkey) - 1 AS BIGINT) AS rnk
FROM orders
""",
        "docs_tfidf_topk": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents),
n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents),
df AS (SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM tok WHERE term IN ('window', 'join', 'hash') GROUP BY term),
w AS (SELECT term, (n.n_docs * 1000) // (df.df + 1) AS w FROM df, n),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
       FROM tok WHERE term IN ('window', 'join', 'hash')
       GROUP BY doc_id, term)
SELECT doc_id, CAST(sum(tf.tf * w.w) AS BIGINT) AS score,
       CAST(count(*) AS BIGINT) AS n_matched
FROM tf JOIN w USING (term) GROUP BY doc_id
ORDER BY score DESC, doc_id LIMIT 20
""",
        "docs_index_postings": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents)
SELECT DISTINCT term, doc_id FROM tok
WHERE term IN ('window', 'join', 'hash')
""",
        "docs_index_conjunction": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents)
SELECT doc_id FROM tok WHERE term IN ('window', 'join', 'hash')
GROUP BY doc_id HAVING count(DISTINCT term) = 3
""",
        "docs_mixture": """
WITH c AS (SELECT lang, CAST(count(*) AS BIGINT) AS n
           FROM documents GROUP BY lang),
w(lang, w) AS (VALUES ('en', 5), ('fr', 3), ('de', 2)),
s AS (SELECT min(c.n // w.w) AS scale FROM c JOIN w USING (lang)),
r AS (SELECT w.lang,
             least(1000, (w.w * s.scale * 1000) // c.n) AS permille
      FROM w JOIN c USING (lang), s)
SELECT d.doc_id, d.lang FROM documents d JOIN r USING (lang)
WHERE d.doc_id % 1000 < r.permille
""",
        "docs_contamination": """
WITH norm AS (
  SELECT doc_id,
         ' ' || array_to_string(
             regexp_extract_all(lower(text), '[a-z]+'), ' ') || ' ' AS s
  FROM documents)
SELECT doc_id,
       (strpos(s, ' window window ') > 0
        OR strpos(s, ' key order sort ') > 0
        OR strpos(s, ' batch batch batch ') > 0) AS contaminated
FROM norm
""",
        "docs_attrs_flatten": """
WITH d AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
SELECT doc_id, CAST(len(toks) AS BIGINT) AS n_entries, toks[3] AS tok2
FROM d
""",
        "docs_uniform_sample": """
SELECT doc_id, lang FROM documents
ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id LIMIT 25
""",
        "docs_corpus_summary": r"""
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(len(regexp_extract_all(text, '\S+'))) AS BIGINT)
           AS total_tokens,
       CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
       CAST(count(DISTINCT text) AS BIGINT) AS n_unique_texts
FROM documents
""",
        "events_value_rscaled": """
WITH e AS (SELECT event_id, event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
r AS (SELECT *, row_number() OVER (PARTITION BY event_type
          ORDER BY cents) - 1 AS rn,
          count(*) OVER (PARTITION BY event_type) AS n FROM e),
q AS (SELECT event_type,
             max(CASE WHEN rn = ((n - 1) * 25) // 100
                 THEN cents END) AS p25,
             max(CASE WHEN rn = ((n - 1) * 50) // 100
                 THEN cents END) AS p50,
             max(CASE WHEN rn = ((n - 1) * 75) // 100
                 THEN cents END) AS p75
      FROM r GROUP BY event_type)
SELECT event_id, event_type, cents,
       CAST(CASE WHEN den > 0
            THEN (num - (((num % den) + den) % den)) // den
            ELSE 0 END AS BIGINT) AS cents_rscaled
FROM (SELECT e.event_id, e.event_type, e.cents,
             (e.cents - q.p50) * 1000000 AS num,
             q.p75 - q.p25 AS den
      FROM e JOIN q USING (event_type))
""",
        "events_cusum": """
WITH e AS (SELECT event_id, event_type, ts,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
m AS (SELECT quantile_disc(cents, 0.5) AS med FROM e),
p AS (SELECT e.event_id, e.event_type, e.ts,
             sum(e.cents - m.med) OVER (PARTITION BY e.event_type
                 ORDER BY e.ts, e.event_id
                 ROWS UNBOUNDED PRECEDING) AS pre
      FROM e, m),
r AS (SELECT *, min(pre) OVER (PARTITION BY event_type
          ORDER BY ts, event_id
          ROWS UNBOUNDED PRECEDING) AS runmin FROM p)
SELECT event_id, event_type,
       CAST(pre - LEAST(runmin, 0) AS BIGINT) AS cusum
FROM r
""",
        "events_type_users": """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
""",
        "events_value_trend": """
WITH e AS (SELECT event_type,
                  CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
s AS (SELECT event_type,
             CAST(count(*) AS HUGEINT) AS n,
             CAST(sum(day) AS HUGEINT) AS sx,
             CAST(sum(cents) AS HUGEINT) AS sy,
             CAST(sum(day * cents) AS HUGEINT) AS sxy,
             CAST(sum(day * day) AS HUGEINT) AS sxx,
             CAST(sum(cents * cents) AS HUGEINT) AS syy
      FROM e GROUP BY event_type)
SELECT event_type, CAST(n AS BIGINT) AS n,
       CASE WHEN n * sxx - sx * sx = 0 THEN NULL
            ELSE CAST((1000000 * (n * sxy - sx * sy))
                      // (n * sxx - sx * sx) AS BIGINT)
       END AS slope_scaled,
       CASE WHEN n * sxx - sx * sx = 0 OR n * syy - sy * sy = 0
            THEN NULL
            ELSE CAST((1000000 * (n * sxy - sx * sy)
                       * (n * sxy - sx * sy))
                      // ((n * sxx - sx * sx) * (n * syy - sy * sy))
                      AS BIGINT)
       END AS r2_scaled
FROM s
""",
        "events_transitions": """
WITH w AS (SELECT event_type,
                  lead(event_type) OVER (PARTITION BY user_id
                      ORDER BY ts, event_id) AS next_type
           FROM events)
SELECT event_type, next_type, count(*) AS n
FROM w WHERE next_type IS NOT NULL
GROUP BY event_type, next_type
""",
        "events_cohort_retention": """
WITH p AS (SELECT user_id,
                  (CAST(epoch_us(ts) AS BIGINT) // 604800000000)
                      * 604800000000 AS p
           FROM events),
c AS (SELECT user_id, min(p) AS cohort FROM p GROUP BY user_id),
a AS (SELECT DISTINCT user_id, p FROM p),
j AS (SELECT a.user_id, c.cohort,
             (a.p - c.cohort) // 604800000000 AS off
      FROM a JOIN c USING (user_id))
SELECT cohort AS cohort_week, CAST(off AS BIGINT) AS "offset",
       CAST(count(*) AS BIGINT) AS n_users
FROM j GROUP BY cohort, off
""",
        "events_ottl_convert": r"""
WITH c AS (SELECT event_id,
                  'Evt' || upper(substr(event_type, 1, 1)) ||
                  substr(event_type, 2) AS camel, event_type
           FROM events)
SELECT event_id, camel,
       lower(regexp_replace(camel, '([a-z0-9])([A-Z])', '\1_\2', 'g'))
           AS snake,
       upper(substr(event_type, 1, 3)) AS upper3,
       CAST(len(string_split(event_type, 'e')) AS BIGINT) AS n_e_parts
FROM c
""",
        "docs_token_budget": r"""
WITH d AS (SELECT doc_id,
                  CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)
                      AS n_tokens
           FROM documents),
b AS (SELECT CAST(sum(n_tokens) // 2 AS BIGINT) AS budget FROM d),
r AS (SELECT doc_id, n_tokens,
             sum(n_tokens) OVER (ORDER BY n_tokens DESC, doc_id
                 ROWS UNBOUNDED PRECEDING) AS cum
      FROM d)
SELECT r.doc_id, r.n_tokens,
       CAST(r.cum - r.n_tokens AS BIGINT) AS cum_before
FROM r, b WHERE r.cum <= b.budget
""",
        "accounts_union_by_name": """
SELECT c_custkey AS id,
       CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS balance_cents
FROM customer
UNION ALL BY NAME
SELECT s_suppkey AS id,
       CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT) AS balance_cents,
       s_nationkey AS nation
FROM supplier
""",
        "orders_snapshot_diff": """
WITH old AS (SELECT o_orderkey AS id,
                    CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                        AS cents
             FROM orders),
base AS (SELECT o_orderkey AS id,
                CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) +
                CASE WHEN o_orderpriority = '1-URGENT' THEN 100
                     ELSE 0 END AS cents
         FROM orders WHERE o_orderkey % 10 <> 0),
added AS (SELECT o_orderkey + 10000000 AS id,
                 CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                     AS cents
          FROM orders WHERE o_orderkey % 10 <> 0
            AND o_orderkey % 13 = 0),
new AS (SELECT * FROM base UNION ALL SELECT * FROM added),
j AS (SELECT COALESCE(o.id, n.id) AS id, o.cents AS old_cents,
             n.cents AS new_cents,
             o.id IS NOT NULL AS has_old, n.id IS NOT NULL AS has_new
      FROM old o FULL OUTER JOIN new n ON o.id = n.id)
SELECT id,
       CASE WHEN has_old AND NOT has_new THEN 'removed'
            WHEN has_new AND NOT has_old THEN 'added'
            ELSE 'changed' END AS change,
       old_cents, new_cents
FROM j
WHERE NOT (has_old AND has_new AND old_cents = new_cents)
""",
        "events_url_parse": r"""
WITH u AS (SELECT event_id,
    'https://shop.example.com:8443/' || event_type || '/' ||
    CAST(user_id AS VARCHAR) || '?v=' ||
    CAST(CAST(floor(value * 100 + 0.5) AS BIGINT) AS VARCHAR) AS url
  FROM events)
SELECT event_id,
  regexp_extract(url, '^(?:([^:/?#]+):)?(?://([^/?#:]*)(?::([0-9]+))?)?([^?#]*)(?:\?([^#]*))?(?:#(.*))?', 1) AS scheme,
  regexp_extract(url, '^(?:([^:/?#]+):)?(?://([^/?#:]*)(?::([0-9]+))?)?([^?#]*)(?:\?([^#]*))?(?:#(.*))?', 2) AS host,
  CAST(regexp_extract(url, '^(?:([^:/?#]+):)?(?://([^/?#:]*)(?::([0-9]+))?)?([^?#]*)(?:\?([^#]*))?(?:#(.*))?', 3) AS BIGINT) AS port_num,
  regexp_extract(url, '^(?:([^:/?#]+):)?(?://([^/?#:]*)(?::([0-9]+))?)?([^?#]*)(?:\?([^#]*))?(?:#(.*))?', 4) AS path,
  regexp_extract(url, '^(?:([^:/?#]+):)?(?://([^/?#:]*)(?::([0-9]+))?)?([^?#]*)(?:\?([^#]*))?(?:#(.*))?', 5) AS query
FROM u
""",
        "docs_top_terms_per_lang": """
WITH t AS (SELECT lang,
                  unnest(regexp_extract_all(lower(text), '[a-z]+'))
                      AS term
           FROM documents),
c AS (SELECT lang, term, CAST(count(*) AS BIGINT) AS n
      FROM t GROUP BY lang, term),
r AS (SELECT *, row_number() OVER (PARTITION BY lang
          ORDER BY n DESC, term) AS rk FROM c)
SELECT lang, term, n, CAST(rk AS BIGINT) AS rk FROM r WHERE rk <= 5
""",
        "docs_incremental_dedup": """
SELECT d.doc_id FROM documents d
WHERE d.doc_id % 2 = 1
  AND NOT EXISTS (SELECT 1 FROM documents s
                  WHERE s.doc_id % 2 = 0 AND s.text = d.text)
  AND NOT EXISTS (SELECT 1 FROM documents x
                  WHERE x.doc_id % 2 = 1 AND x.text = d.text
                    AND x.doc_id < d.doc_id)
""",
        "docs_weighted_sample": r"""
WITH d AS (SELECT doc_id,
                  len(regexp_extract_all(text, '\S+')) + 1 AS w
           FROM documents),
r AS (SELECT doc_id, w,
             -ln((('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 12))
                  ::UBIGINT + 0.5) / 281474976710656.0) / w AS rk
      FROM d)
SELECT doc_id, CAST(w AS BIGINT) AS w FROM r
ORDER BY rk, doc_id LIMIT 50
""",
        "docs_curation": r"""
WITH norm AS (
  SELECT doc_id,
         ' ' || array_to_string(
             regexp_extract_all(lower(text), '[a-z]+'), ' ') || ' ' AS s
  FROM documents),
kept AS (
  SELECT d.doc_id, d.lang, d.text
  FROM documents d JOIN norm USING (doc_id)
  WHERE NOT (strpos(s, ' window window ') > 0
             OR strpos(s, ' key order sort ') > 0
             OR strpos(s, ' batch batch batch ') > 0)),
c AS (SELECT lang, CAST(count(*) AS BIGINT) AS n FROM kept
      GROUP BY lang),
w(lang, w) AS (VALUES ('en', 5), ('fr', 3), ('de', 2)),
sc AS (SELECT min(c.n // w.w) AS scale FROM c JOIN w USING (lang)),
r AS (SELECT w.lang,
             least(1000, (w.w * sc.scale * 1000) // c.n) AS permille
      FROM w JOIN c USING (lang), sc),
mixed AS (SELECT k.doc_id, k.lang, k.text FROM kept k
          JOIN r USING (lang) WHERE k.doc_id % 1000 < r.permille),
s2 AS (SELECT doc_id, lang,
              CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)
                  AS n_tokens
       FROM mixed)
SELECT doc_id, lang, n_tokens,
  CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
      AS start_offset,
  CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) // 2048
      AS BIGINT) AS chunk_id
FROM s2
""",
        "events_user_window": """
WITH e AS (SELECT user_id, event_id, ts,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents
           FROM events)
SELECT user_id, event_id, value_cents,
       lag(value_cents) OVER w AS prev_cents,
       value_cents - lag(value_cents) OVER w AS delta_cents,
       CAST(sum(value_cents) OVER (PARTITION BY user_id
            ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS BIGINT)
           AS cum_cents,
       CAST(row_number() OVER w - 1 AS BIGINT) AS rn
FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
""",
        "events_user_rolling": """
WITH e AS (SELECT user_id, event_id, ts,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents
           FROM events)
SELECT user_id, event_id, value_cents,
       CAST(sum(value_cents) OVER w AS BIGINT) AS hour_cents,
       CAST(count(*) OVER w AS BIGINT) AS hour_events
FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts
     RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
""",
        "orders_decile": """
WITH o AS (SELECT o_orderkey,
                  CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
           FROM orders),
q AS (SELECT quantile_disc(cents,
             [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]) AS ts FROM o)
SELECT o.o_orderkey, o.cents,
       CAST(1 + len(list_filter(q.ts, t -> o.cents > t)) AS BIGINT)
           AS decile
FROM o, q
""",
        "orders_vip_join": """
SELECT o_orderkey, o_custkey,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents,
       c_name
FROM orders JOIN customer ON o_custkey = c_custkey
WHERE c_acctbal > 9900
""",
        "tpch_q5": """
SELECT n_name,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
            + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n_name
""",
        "events_resampled_daily": """
WITH e AS (SELECT user_id, ts,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
b AS (SELECT user_id, date_trunc('day', min(ts)) AS lo, max(ts) AS hi
      FROM e GROUP BY user_id),
g AS (SELECT user_id,
             unnest(generate_series(lo, hi, INTERVAL 1 DAY)) AS grid_ts
      FROM b)
SELECT g.user_id, g.grid_ts, e.cents
FROM g ASOF LEFT JOIN e ON g.user_id = e.user_id AND g.grid_ts >= e.ts
""",
        "events_jsonl_roundtrip": """
SELECT event_id, user_id,
       CASE WHEN event_type = 'error' THEN 17
            WHEN event_type = 'view' THEN 5
            ELSE 9 END AS sev_num,
       CAST(epoch_us(ts) AS BIGINT) AS ts_us
FROM events
""",
        "docs_dup_spans": r"""
WITH tok AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+')
                    AS toks FROM documents),
w AS (SELECT doc_id, i AS s, array_to_string(toks[i+1 : i+20], ' ') AS win
      FROM (SELECT doc_id, toks,
                   unnest(generate_series(0, len(toks) - 20)) AS i
            FROM tok WHERE len(toks) >= 20)),
d AS (SELECT win FROM w GROUP BY win HAVING count(*) >= 2),
hits AS (SELECT w.doc_id, w.s FROM w JOIN d USING (win)),
isl AS (SELECT doc_id, s,
        CASE WHEN lag(s) OVER (PARTITION BY doc_id ORDER BY s) IS NULL
               OR s > lag(s) OVER (PARTITION BY doc_id ORDER BY s) + 20
             THEN 1 ELSE 0 END AS new_run FROM hits),
g AS (SELECT doc_id, s,
      sum(new_run) OVER (PARTITION BY doc_id ORDER BY s) AS grp FROM isl)
SELECT doc_id, CAST(min(s) AS BIGINT) AS span_start,
       CAST(max(s) + 20 AS BIGINT) AS span_end
FROM g GROUP BY doc_id, grp
""",
        "docs_dup_stats": r"""
WITH tok AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+')
                    AS toks FROM documents),
w AS (SELECT doc_id, i AS s, array_to_string(toks[i+1 : i+20], ' ') AS win
      FROM (SELECT doc_id, toks,
                   unnest(generate_series(0, len(toks) - 20)) AS i
            FROM tok WHERE len(toks) >= 20)),
d AS (SELECT win FROM w GROUP BY win HAVING count(*) >= 2),
hits AS (SELECT w.doc_id, w.s FROM w JOIN d USING (win)),
isl AS (SELECT doc_id, s,
        CASE WHEN lag(s) OVER (PARTITION BY doc_id ORDER BY s) IS NULL
               OR s > lag(s) OVER (PARTITION BY doc_id ORDER BY s) + 20
             THEN 1 ELSE 0 END AS new_run FROM hits),
g AS (SELECT doc_id, s,
      sum(new_run) OVER (PARTITION BY doc_id ORDER BY s) AS grp FROM isl),
spans AS (SELECT doc_id, min(s) AS a, max(s) + 20 AS b
          FROM g GROUP BY doc_id, grp),
cov AS (SELECT doc_id, CAST(sum(b - a) AS BIGINT) AS dup_tokens,
        CAST(count(*) AS BIGINT) AS n_spans FROM spans GROUP BY doc_id)
SELECT t.doc_id, CAST(len(t.toks) AS BIGINT) AS n_tokens,
       COALESCE(cov.dup_tokens, 0) AS dup_tokens,
       COALESCE(cov.n_spans, 0) AS n_spans
FROM tok t LEFT JOIN cov USING (doc_id)
""",
        "docs_lang_sample": """
WITH r AS (SELECT doc_id, lang,
             row_number() OVER (PARTITION BY lang
               ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
           FROM documents)
SELECT doc_id, lang FROM r WHERE rn <= 25
""",
        "docs_above_lang_median": r"""
WITH d AS (SELECT doc_id, lang,
                  CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)
                      AS n_tokens
           FROM documents),
m AS (SELECT lang, CAST(quantile_disc(n_tokens, 0.5) AS BIGINT) AS p50
      FROM d GROUP BY lang)
SELECT d.doc_id, d.lang, d.n_tokens, m.p50
FROM d JOIN m USING (lang) WHERE d.n_tokens > m.p50
""",
        "events_type_rank": """
WITH e AS (SELECT event_id, event_type,
                  CAST(floor(value) AS BIGINT) AS units FROM events)
SELECT event_id, event_type, units,
       CAST(rank() OVER w AS BIGINT) AS rk,
       CAST(dense_rank() OVER w AS BIGINT) AS dr
FROM e WINDOW w AS (PARTITION BY event_type ORDER BY units)
""",
        "events_rollup": """
WITH e AS (SELECT event_type, date_trunc('day', ts) AS day,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events)
SELECT event_type, day, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS sum_cents,
       min(cents) AS min_cents, max(cents) AS max_cents,
       CAST(grouping(event_type, day) AS BIGINT) AS "grouping_id"
FROM e GROUP BY ROLLUP(event_type, day)
""",
        "events_funnel": """
WITH s1 AS (SELECT user_id, min(ts) AS ts_1 FROM events
            WHERE event_type = 'view' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.ts) AS ts_2 FROM events e
       JOIN s1 USING (user_id)
       WHERE e.event_type = 'click' AND e.ts >= s1.ts_1
       GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.ts) AS ts_3 FROM events e
       JOIN s2 USING (user_id)
       WHERE e.event_type = 'purchase' AND e.ts >= s2.ts_2
       GROUP BY e.user_id)
SELECT k.user_id, s1.ts_1, s2.ts_2, s3.ts_3,
  CAST(CASE WHEN s3.user_id IS NOT NULL THEN 3
            WHEN s2.user_id IS NOT NULL THEN 2
            WHEN s1.user_id IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
      AS steps_completed
FROM (SELECT DISTINCT user_id FROM events) k
LEFT JOIN s1 USING (user_id) LEFT JOIN s2 USING (user_id)
LEFT JOIN s3 USING (user_id)
""",
        "spans_maint_overlap": f"""
WITH {SPANS_CTE.strip()},
w AS (
  SELECT CASE event_type WHEN 'signup' THEN 'auth'
              WHEN 'purchase' THEN 'checkout'
              WHEN 'error' THEN 'backend' ELSE 'frontend' END AS service,
         CAST(epoch_us(ts) AS BIGINT) AS ws
  FROM events WHERE event_id % 97 = 0),
p AS (
  SELECT s.service, w.ws,
         CAST(epoch_us(s.start_ts) AS BIGINT) AS ss,
         CAST(epoch_us(s.start_ts) AS BIGINT) + s.duration_us AS se
  FROM spans s JOIN w ON s.service = w.service
   AND CAST(epoch_us(s.start_ts) AS BIGINT) < w.ws + 1800000000
   AND w.ws < CAST(epoch_us(s.start_ts) AS BIGINT) + s.duration_us)
SELECT service, ws AS win_start_us, CAST(count(*) AS BIGINT) AS n_spans,
       CAST(sum(LEAST(se, ws + 1800000000) - GREATEST(ss, ws)) AS BIGINT)
           AS overlap_us
FROM p GROUP BY service, ws
""",
        "events_ip_nets": """
WITH s AS (
  SELECT event_id,
         ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 12))::UBIGINT
           % 4294967296 AS ip0
  FROM events),
p AS (  -- the '.x' suffix corrupts exactly the event_id%16=0 rows
  SELECT CASE WHEN event_id % 16 = 0 THEN NULL
              ELSE CAST(ip0 AS BIGINT) END AS ip
  FROM s),
c AS (
  SELECT CASE
           WHEN ip IS NULL THEN 'invalid'
           WHEN ip BETWEEN 2130706432 AND 2147483647 THEN 'loopback'
           WHEN ip BETWEEN 167772160 AND 184549375 THEN 'private'
           WHEN ip BETWEEN 2886729728 AND 2887778303 THEN 'private'
           WHEN ip BETWEEN 3232235520 AND 3232301055 THEN 'private'
           WHEN ip BETWEEN 1681915904 AND 1686110207 THEN 'cgnat'
           ELSE 'public'
         END AS net_class,
         ip // 16777216 AS octet1
  FROM p)
SELECT net_class, CAST(octet1 AS BIGINT) AS octet1,
       CAST(count(*) AS BIGINT) AS n
FROM c GROUP BY net_class, octet1
""",
        "docs_heavy_tokens": """
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
  FROM documents),
tot AS (SELECT CAST(count(*) AS BIGINT) AS c FROM tok)
SELECT tok, CAST(count(*) AS BIGINT) AS n_tok
FROM tok, tot GROUP BY tok, tot.c
HAVING count(*) * 40 > tot.c
""",
        "docs_frequent_terms": """
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents),
tot AS (SELECT CAST(count(*) AS BIGINT) AS c FROM tok)
SELECT term, CAST(count(*) AS BIGINT) AS n
FROM tok, tot GROUP BY term, tot.c
HAVING count(*) * 200 >= 1 * tot.c
""",
        "orders_violations": """
SELECT 'price_range' AS rule, CAST(o_orderkey AS BIGINT) AS id
FROM orders WHERE o_totalprice < 0 OR o_totalprice > 300000
UNION ALL
SELECT 'status_known', o_orderkey FROM orders
WHERE o_orderstatus IS NOT NULL AND o_orderstatus NOT IN ('F', 'O')
UNION ALL
SELECT 'custkey_not_null', o_orderkey FROM orders WHERE o_custkey IS NULL
UNION ALL
SELECT 'orderkey_unique', o_orderkey FROM
  (SELECT o_orderkey, count(*) OVER (PARTITION BY o_orderkey) AS c
   FROM orders) WHERE c > 1
""",
        "events_transform_ottl": """
SELECT event_id,
       CASE WHEN value > 100.0 THEN upper(event_type) END AS etype_u,
       CASE WHEN value > 100.0
                 AND regexp_matches(event_type,
                                    '^(purchase|signup)$')
            THEN 'hi' END AS flag,
       regexp_replace(props, '[0-9]+', '#', 'g') AS props,
       md5(event_type) AS digest
FROM events
""",
        "docs_epoch_order": """
WITH h AS (SELECT doc_id,
                  md5(CAST(doc_id AS VARCHAR) || ':2') AS hx
           FROM documents),
s AS (SELECT doc_id, hx,
             CAST(('0x' || substr(hx, 1, 6))::UBIGINT % 4 AS BIGINT)
                 AS shard
      FROM h)
SELECT doc_id, shard,
       CAST(row_number() OVER (PARTITION BY shard
           ORDER BY hx, doc_id) - 1 AS BIGINT) AS pos
FROM s
""",
        "events_label_encode": """
WITH c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
           FROM events WHERE event_type IS NOT NULL
           GROUP BY event_type),
r AS (SELECT event_type,
             row_number() OVER (ORDER BY n DESC, event_type) - 1 AS id
      FROM c)
SELECT e.event_id, e.event_type,
       CAST(r.id AS BIGINT) AS event_type_id
FROM events e LEFT JOIN r USING (event_type)
""",
        "orders_with_returns": """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate < TIMESTAMP '1996-07-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_returnflag = 'R')
GROUP BY o_orderpriority
""",
        "tpch_q10": """
SELECT o_custkey, c_name, n_name, revenue_cents
FROM (SELECT o.o_custkey,
             CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                  * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
      FROM lineitem l
      JOIN orders o ON l.l_orderkey = o.o_orderkey
      WHERE l.l_returnflag = 'R'
        AND o.o_orderdate >= TIMESTAMP '1996-01-01'
        AND o.o_orderdate < TIMESTAMP '1996-04-01'
      GROUP BY o.o_custkey) rev
JOIN customer c ON rev.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
ORDER BY revenue_cents DESC, o_custkey
LIMIT 20
""",
        "orders_price_band": """
SELECT band, CAST(count(*) AS BIGINT) AS n_orders
FROM (SELECT CASE
        WHEN cents < 500000 THEN 'micro'
        WHEN cents < 10000000 THEN 'small'
        WHEN cents < 25000000 THEN 'mid'
        ELSE 'large' END AS band
      FROM (SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                   AS cents FROM orders))
GROUP BY band
""",
        "events_daily_delta": """
WITH d AS (SELECT event_type,
                  strftime(CAST(ts AS DATE), '%Y-%m-%d') AS day,
                  CAST(count(*) AS BIGINT) AS n
           FROM events
           GROUP BY event_type, strftime(CAST(ts AS DATE), '%Y-%m-%d'))
SELECT event_type, day, n,
       n - lag(n) OVER (PARTITION BY event_type ORDER BY day) AS delta_n
FROM d
""",
        "docs_lm_bigram_stats": r"""
WITH tok AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+')
                    AS t FROM documents),
big AS (SELECT doc_id, p[1] AS w1, p[2] AS w2
        FROM (SELECT doc_id,
                     unnest(list_zip(t[1:len(t) - 1], t[2:len(t)])) AS p
              FROM tok)),
cnt AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c
        FROM big GROUP BY w1, w2)
SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       CAST(sum(c.c) AS BIGINT) AS sum_bigram_n,
       CAST(0 AS BIGINT) AS n_unseen
FROM big b JOIN cnt c USING (w1, w2)
GROUP BY b.doc_id
""",
        "events_ffill": """
SELECT event_id, user_id,
       last_value(CASE WHEN event_type = 'purchase'
                  THEN CAST(floor(value * 100 + 0.5) AS BIGINT) END
                  IGNORE NULLS) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS last_purchase_cents
FROM events
""",
        "events_zorder": f"""
WITH e AS (SELECT event_id, user_id,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
z AS (SELECT event_id, user_id, cents,
             CAST({_zorder_sql_expr("user_id", "cents")} AS BIGINT)
                 AS zcode
      FROM e)
SELECT event_id, user_id, cents, zcode,
       CAST(row_number() OVER (ORDER BY zcode, event_id) - 1 AS BIGINT)
           AS zrank
FROM z
""",
        "events_gap_stats": """
WITH g AS (SELECT user_id,
                  epoch_us(ts) - lag(epoch_us(ts)) OVER (
                      PARTITION BY user_id ORDER BY ts, event_id)
                      AS gap_us
           FROM events)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps,
       CAST(sum(gap_us) AS BIGINT) AS sum_gap_us,
       CAST(min(gap_us) AS BIGINT) AS min_gap_us,
       CAST(max(gap_us) AS BIGINT) AS max_gap_us
FROM g WHERE gap_us IS NOT NULL GROUP BY user_id
""",
        "events_twa": """
WITH e AS (SELECT event_id, user_id, ts,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
h AS (SELECT user_id, cents,
             lead(epoch_us(ts)) OVER w - epoch_us(ts) AS dt
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
s AS (SELECT user_id, CAST(sum(cents * dt) AS BIGINT) AS w,
             CAST(sum(dt) AS BIGINT) AS dt
      FROM h WHERE dt IS NOT NULL GROUP BY user_id)
SELECT user_id,
       CAST(CASE WHEN dt > 0
            THEN (w - (((w % dt) + dt) % dt)) // dt
            ELSE 0 END AS BIGINT) AS twa_cents
FROM s
""",
        "lineitem_weighted_price": """
WITH p AS (SELECT l_returnflag,
                  CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                      * CAST(l_quantity AS BIGINT) AS w,
                  CAST(l_quantity AS BIGINT) AS q
           FROM lineitem),
s AS (SELECT l_returnflag, CAST(sum(w) AS BIGINT) AS w,
             CAST(sum(q) AS BIGINT) AS q
      FROM p GROUP BY l_returnflag)
SELECT l_returnflag,
       CAST((w * 1000 - (((w * 1000 % q) + q) % q)) // q AS BIGINT)
           AS wavg_permille
FROM s
""",
        "customers_sha256": """
SELECT c_custkey, sha256(c_name) AS name_sha FROM customer
""",
        "events_user_mode": """
SELECT user_id, mode, mode_n
FROM (SELECT user_id, event_type AS mode,
             CAST(count(*) AS BIGINT) AS mode_n,
             row_number() OVER (PARTITION BY user_id
                 ORDER BY count(*) DESC, event_type) AS rn
      FROM events GROUP BY user_id, event_type)
WHERE rn = 1
""",
        "events_user_paths": """
SELECT user_id,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS path
FROM events GROUP BY user_id
""",
        "orders_latest_by_cust": """
SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice
FROM (SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice,
             row_number() OVER (PARTITION BY o_custkey
                 ORDER BY o_orderdate DESC, o_orderkey DESC) AS rn
      FROM orders)
WHERE rn = 1
""",
        "events_throttled": """
SELECT event_id, user_id, ts
FROM (SELECT event_id, user_id, ts,
             row_number() OVER (PARTITION BY user_id
                 ORDER BY ts, event_id) AS rn
      FROM events)
WHERE rn <= 3
""",
        "events_state_changes": """
SELECT event_id, user_id, ts, event_type
FROM (SELECT event_id, user_id, ts, event_type,
             lag(event_type) OVER w AS prev_type,
             row_number() OVER w AS rn
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
WHERE rn = 1 OR event_type IS DISTINCT FROM prev_type
""",
        "events_value_pctile": """
WITH e AS (SELECT event_id, event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events)
SELECT event_id, event_type, cents,
       percent_rank() OVER w AS pct,
       cume_dist() OVER w AS cd,
       first_value(cents) OVER (PARTITION BY event_type ORDER BY cents
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
           AS first_cents,
       last_value(cents) OVER (PARTITION BY event_type ORDER BY cents
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
           AS last_cents
FROM e
WINDOW w AS (PARTITION BY event_type ORDER BY cents)
""",
        "docs_bpe_roundtrip": r"""
SELECT doc_id,
       array_to_string(regexp_extract_all(lower(text), '[a-z]+'), ' ')
           AS detok
FROM documents
""",
        "emb_quantize": """
WITH u AS (SELECT vec_id, CAST(len(embedding) AS BIGINT) AS d,
                  CAST(x AS DOUBLE) AS x
           FROM embeddings, UNNEST(embedding) AS t(x)),
s AS (SELECT vec_id, max(abs(x)) / 127.0 AS scale FROM u GROUP BY vec_id),
c AS (SELECT u.vec_id, u.d,
             CASE WHEN s.scale > 0
                  THEN CAST(GREATEST(-127.0, LEAST(127.0,
                       round_even(u.x / s.scale, 0))) AS BIGINT)
                  ELSE 0 END AS q
      FROM u JOIN s USING (vec_id))
SELECT vec_id, min(d) AS q8_dim,
       CAST(sum(q) AS BIGINT) AS code_sum,
       CAST(sum(abs(q)) AS BIGINT) AS code_abs_sum,
       CAST(sum(CASE WHEN abs(q) = 127 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_saturated
FROM c GROUP BY vec_id
""",
        "events_hist_wire": """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS sum_cents,
       CAST(min(cents) AS BIGINT) AS min_cents,
       CAST(max(cents) AS BIGINT) AS max_cents,
       CAST(max(cents) AS BIGINT) AS exemplar_max
FROM (SELECT event_type,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
      FROM events)
GROUP BY event_type
""",
        "events_profile": """
SELECT 'event_type' AS column, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(CASE WHEN event_type IS NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_null,
       CAST(count(DISTINCT event_type) AS BIGINT) AS n_distinct
FROM events
UNION ALL
SELECT 'user_id', CAST(count(*) AS BIGINT),
       CAST(sum(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(count(DISTINCT user_id) AS BIGINT) FROM events
UNION ALL
SELECT 'value', CAST(count(*) AS BIGINT),
       CAST(sum(CASE WHEN value IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(count(DISTINCT value) AS BIGINT) FROM events
""",
        "events_user_split": """
WITH b AS (SELECT event_id, user_id,
                  ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 6))
                      ::UBIGINT % 1000000 AS bk
           FROM events)
SELECT event_id, user_id,
       CASE WHEN bk < 800000 THEN 'train'
            WHEN bk < 900000 THEN 'val' ELSE 'test' END AS split
FROM b
""",
        "tpch_q3": """
WITH j AS (
  SELECT l_orderkey, o_orderdate,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS cents
  FROM customer, orders, lineitem
  WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
    AND l_orderkey = o_orderkey
    AND o_orderdate < TIMESTAMP '1998-06-01'
    AND l_shipdate > TIMESTAMP '1998-06-01')
SELECT l_orderkey, o_orderdate,
       CAST(sum(cents) AS BIGINT) AS revenue_cents
FROM j GROUP BY 1, 2
ORDER BY revenue_cents DESC, l_orderkey LIMIT 10
""",
        "docs_canonical_dedup": """
WITH c AS (SELECT doc_id,
                  trim(regexp_replace(regexp_replace(lower(text),
                       '[^a-z0-9 ]', ' ', 'g'), ' +', ' ', 'g')) AS ct
           FROM documents)
SELECT CAST(min(doc_id) AS BIGINT) AS doc_id FROM c GROUP BY ct
""",
        "docs_chunk_sliding": """
WITH t AS (SELECT doc_id,
                  len(regexp_extract_all(lower(text), '[a-z]+')) AS n
           FROM documents)
,
s AS (SELECT doc_id, n,
             unnest(generate_series(0, CAST(n - 1 AS BIGINT), 16)) AS st
      FROM t WHERE n > 0)
SELECT doc_id, CAST(st // 16 AS BIGINT) AS chunk_id,
       CAST(st AS BIGINT) AS start_tok,
       CAST(least(32, n - st) AS BIGINT) AS n_tok
FROM s
""",
        "events_pivot": """
WITH s AS (SELECT date_trunc('hour', ts) AS bucket, event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events)
SELECT bucket,
  CAST(sum(CASE WHEN event_type = 'click' THEN cents ELSE 0 END) AS BIGINT) AS click,
  CAST(sum(CASE WHEN event_type = 'view' THEN cents ELSE 0 END) AS BIGINT) AS view,
  CAST(sum(CASE WHEN event_type = 'purchase' THEN cents ELSE 0 END) AS BIGINT) AS purchase,
  CAST(sum(CASE WHEN event_type = 'signup' THEN cents ELSE 0 END) AS BIGINT) AS signup,
  CAST(sum(CASE WHEN event_type = 'error' THEN cents ELSE 0 END) AS BIGINT) AS error
FROM s GROUP BY bucket
""",
        "docs_quality_unpivot": r"""
WITH f AS (
  SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars,
         CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
         CAST(len(regexp_extract_all(text, '[^\w\s]')) AS BIGINT) AS n_punct
  FROM documents)
SELECT doc_id, 'n_chars' AS name, n_chars AS value FROM f
UNION ALL SELECT doc_id, 'n_tokens', n_tokens FROM f
UNION ALL SELECT doc_id, 'n_punct', n_punct FROM f
""",
        "events_value_scaled": """
WITH s AS (SELECT event_id, event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
m AS (SELECT event_id, event_type, cents,
             min(cents) OVER (PARTITION BY event_type) AS mn,
             max(cents) OVER (PARTITION BY event_type) AS mx FROM s)
SELECT event_id, event_type, cents,
       CAST(CASE WHEN mx > mn THEN (cents - mn) * 1000000 // (mx - mn)
            ELSE 0 END AS BIGINT) AS cents_scaled
FROM m
""",
        "events_robust_outliers": """
WITH e AS (SELECT event_id, event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
m AS (SELECT event_type, quantile_disc(cents, 0.5) AS med
      FROM e GROUP BY event_type),
d AS (SELECT e.event_id, e.event_type, e.cents, m.med,
             abs(e.cents - m.med) AS dev
      FROM e JOIN m USING (event_type)),
md AS (SELECT event_type, quantile_disc(dev, 0.5) AS mad
       FROM d GROUP BY event_type)
SELECT d.event_id, d.event_type, d.cents,
       CAST(CASE WHEN d.dev > 3 * md.mad THEN 1 ELSE 0 END AS BIGINT)
           AS is_outlier
FROM d JOIN md USING (event_type)
""",
        "orders_cc": """
WITH RECURSIVE
e AS (SELECT DISTINCT o_custkey * 2 AS a,
             (CAST(epoch(o_orderdate) AS BIGINT) // 86400) * 2 + 1 AS b
      FROM orders WHERE o_totalprice > 450000),
nodes AS (SELECT a AS n FROM e UNION SELECT b FROM e),
bid AS (SELECT a AS s, b AS d FROM e UNION SELECT b AS s, a AS d FROM e),
reach(x, y) AS (
  SELECT n, n FROM nodes
  UNION
  SELECT r.x, b.d FROM reach r JOIN bid b ON b.s = r.y
)
SELECT x AS node, CAST(min(y) AS BIGINT) AS label FROM reach GROUP BY x
""",
        "events_outliers": """
WITH e AS (SELECT event_id, event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
s AS (SELECT event_type,
             CAST(count(*) AS HUGEINT) AS n,
             CAST(sum(cents) AS HUGEINT) AS s1,
             CAST(sum(cents * cents) AS HUGEINT) AS s2
      FROM e GROUP BY event_type)
SELECT e.event_id, e.event_type, e.cents,
       CAST(CASE WHEN (n * e.cents - s1) * (n * e.cents - s1)
                      > 9 * (n * s2 - s1 * s1)
            THEN 1 ELSE 0 END AS BIGINT) AS is_outlier
FROM e JOIN s USING (event_type)
""",
        "docs_repetition": """
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS ts
           FROM documents),
p AS (SELECT doc_id, ts[i] AS tok, i
      FROM t, unnest(range(1, len(ts) + 1)) AS r(i)),
uc AS (SELECT doc_id, tok, count(*) AS c FROM p GROUP BY 1, 2),
us AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens,
              CAST(count(*) AS BIGINT) AS n_distinct,
              CAST(max(c) AS BIGINT) AS top_token_count
       FROM uc GROUP BY 1),
bg AS (SELECT doc_id, ts[i] || ' ' || ts[i+1] AS b
       FROM t, unnest(range(1, len(ts))) AS r(i)),
bc AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS top_bigram_count FROM
       (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY 1, 2) GROUP BY 1),
run AS (SELECT doc_id, count(*) AS rl FROM
        (SELECT doc_id, tok,
                i - row_number() OVER (PARTITION BY doc_id, tok ORDER BY i)
                AS isl FROM p)
        GROUP BY doc_id, tok, isl),
mr AS (SELECT doc_id, CAST(max(rl) AS BIGINT) AS max_run FROM run GROUP BY 1)
SELECT d.doc_id, coalesce(n_tokens, 0) AS n_tokens,
       coalesce(n_distinct, 0) AS n_distinct,
       coalesce(top_token_count, 0) AS top_token_count,
       coalesce(top_bigram_count, 0) AS top_bigram_count,
       coalesce(max_run, 0) AS max_run
FROM documents d LEFT JOIN us USING (doc_id) LEFT JOIN bc USING (doc_id)
LEFT JOIN mr USING (doc_id)
""",
        "docs_top_bigrams": """
WITH l AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS ts
           FROM documents),
big AS (SELECT ts[i] || ' ' || ts[i+1] AS ngram
        FROM l, unnest(range(1, len(ts))) AS r(i))
SELECT ngram, CAST(count(*) AS BIGINT) AS n FROM big
GROUP BY ngram ORDER BY n DESC, ngram LIMIT 20
""",
        "conv_stats": f"""
{with_turns}
SELECT conv_id, count(*) AS n_turns, min(ts) AS first_ts, max(ts) AS last_ts
FROM turns GROUP BY conv_id
""",
        "events_parse_props": (
            "SELECT event_id, CAST(NULLIF(regexp_extract(props, "
            "'\"k\": (\\d+)', 1), '') AS BIGINT) AS k FROM events"),
        "events_agg": """
SELECT event_type, date_trunc('hour', ts) AS bucket, count(*) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events GROUP BY event_type, bucket
""",
        "events_sessionize": """
WITH gaps AS (
  SELECT user_id, event_id, ts,
    CASE WHEN lag(ts) OVER w IS NULL
           OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
         THEN 1 ELSE 0 END AS new_sess
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT user_id, ts,
    CAST(SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
  FROM gaps
)
SELECT user_id, session_id, count(*) AS n_events,
       min(ts) AS start_ts, max(ts) AS end_ts
FROM s GROUP BY user_id, session_id
""",
        "events_topk_users": """
SELECT user_id, count(*) AS n_events FROM events
GROUP BY user_id ORDER BY n_events DESC, user_id LIMIT 10
""",
        "events_route": r"""
SELECT event_id,
  CASE WHEN event_type = 'error' THEN 'left'
       WHEN event_type IN ('purchase', 'signup') THEN 'right'
       WHEN regexp_matches(props, '"k": 0\}') THEN 'zero'
       ELSE 'default' END AS route
FROM events
""",
        "events_sample": """
SELECT event_id, event_type, value FROM events WHERE event_id % 20 = 0
""",
        "events_window": """
SELECT user_id, date_trunc('hour', ts) AS bucket, count(*) AS n_events
FROM events GROUP BY user_id, bucket
""",
        "events_sliding_window": """
SELECT user_id, date_trunc('hour', ts) - to_hours(o) AS window_start,
       count(*) AS n_events
FROM events CROSS JOIN UNNEST([0, 1, 2]) AS t(o)
WHERE ts IS NOT NULL
GROUP BY user_id, window_start
""",
        "events_cumulative": """
WITH w AS (SELECT user_id, date_trunc('hour', ts) AS bucket, count(*) AS n_events
           FROM events GROUP BY user_id, bucket)
SELECT user_id, bucket, n_events,
       CAST(SUM(n_events) OVER (PARTITION BY user_id ORDER BY bucket
                                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_n
FROM w
""",
        "supplier_revenue": """
SELECT s_name, count(*) AS n_items,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
GROUP BY s_name
""",
        "docs_attr_ops": """
SELECT doc_id, upper(lang) AS lang, lang AS lang_orig,
       source AS source_sys,
       length(regexp_replace(text, 'data', 'DATA', 'g')) AS n_after
FROM documents
""",
        "customers_no_orders": """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_orderstatus = 'F')
""",
        "docs_top_terms": """
SELECT term, count(*) AS n
FROM (SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
      FROM documents)
GROUP BY term ORDER BY n DESC, term LIMIT 20
""",
        "tpch_q1": """
SELECT l_returnflag, l_linestatus,
       count(*) AS count_order,
       CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(sum(CAST(floor(l_discount * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
""",
        "nation_revenue": """
SELECT n_name, count(*) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
""",
        "topk_orders": """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
""",
        "pii_redact": _pii_redact_sql(),
        "join_priority_revenue": """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5))
            AS BIGINT) AS rev_cents
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
""",
        "customers_order_counts": """
SELECT c_custkey, c_mktsegment,
       CAST(count(o_orderkey) AS BIGINT) AS n_orders
FROM customer LEFT JOIN orders ON c_custkey = o_custkey
GROUP BY c_custkey, c_mktsegment
""",
        "events_last_order_asof": """
SELECT e.event_id, e.user_id, e.ts, o.o_orderdate AS last_order_ts
FROM events e ASOF JOIN orders o
ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
""",
        "ship_window_join": """
SELECT l.l_orderkey, l.l_linenumber, l.l_shipdate, o.o_orderdate
FROM lineitem l JOIN orders o
ON l.l_orderkey = o.o_orderkey AND l.l_shipdate >= o.o_orderdate
   AND l.l_shipdate < o.o_orderdate + INTERVAL 60 DAY
""",
        "events_topk_per_type": """
WITH c AS (SELECT event_type, user_id, CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY event_type, user_id)
SELECT event_type, user_id, n, CAST(rk AS BIGINT) AS rk FROM (
  SELECT *, row_number() OVER (PARTITION BY event_type
                               ORDER BY n DESC, user_id) AS rk FROM c)
WHERE rk <= 3
""",
        "docs_quality_model": r"""
WITH f AS (
  SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars,
         CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
         CAST(len(regexp_extract_all(text, '[^\w\s]')) AS BIGINT) AS n_punct
  FROM documents)
SELECT doc_id, n_chars, n_tokens, n_punct,
       CAST(3 * n_chars + 17 * n_tokens - 5 * n_punct + 7 AS BIGINT)
           AS score
FROM f
""",
        "docs_unigram_mass": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents),
tf AS (SELECT term, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY term)
SELECT tok.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum(tf.n) AS BIGINT) AS freq_mass
FROM tok JOIN tf USING (term) GROUP BY tok.doc_id
""",
        "docs_pack_chunks": r"""
WITH s AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
  FROM documents)
SELECT doc_id, n_tokens,
  CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
      AS start_offset,
  CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) // 2048
      AS BIGINT) AS chunk_id
FROM s
""",
        "events_stratified_sample": """
SELECT event_id, event_type, value FROM events
WHERE event_id % 1000 < CASE event_type
  WHEN 'error' THEN 1000 WHEN 'signup' THEN 1000
  WHEN 'purchase' THEN 500 WHEN 'view' THEN 100
  WHEN 'click' THEN 50 ELSE 0 END
""",
        "docs_quality_cutoff": r"""
WITH s AS (
  SELECT doc_id,
         CAST(3 * length(text)
              + 17 * len(regexp_extract_all(text, '\S+'))
              - 5 * len(regexp_extract_all(text, '[^\w\s]'))
              AS BIGINT) AS score
  FROM documents)
SELECT doc_id, score FROM s
WHERE score >= (SELECT quantile_disc(score, 0.5) FROM s)
""",
        "filter_highvalue": """
SELECT l_returnflag, count(*) AS n FROM lineitem
WHERE l_quantity > 45 GROUP BY l_returnflag
""",
        "distinct_segments": "SELECT DISTINCT c_mktsegment FROM customer",
        "docs_exact_dedup": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "docs_token_count": r"""
SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS n_tokens FROM documents
""",
        "docs_bpe_base_tokens": r"""
SELECT doc_id,
       CAST(length(regexp_replace(lower(text), '[^a-z]', '', 'g'))
            AS BIGINT) AS n_bpe_tokens
FROM documents
""",
        "docs_fingerprint": "SELECT doc_id, md5(text) AS fp FROM documents",
        "docs_quality_ints": r"""
WITH f AS (
  SELECT doc_id, length(text) AS n_chars,
         len(regexp_extract_all(text, '\S+')) AS n_tokens,
         len(regexp_extract_all(text, '[^\w\s]')) AS n_punct
  FROM documents)
SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(n_punct AS BIGINT) AS n_punct,
       CAST(n_punct * 1000 // greatest(n_chars, 1) AS BIGINT)
           AS punct_permille,
       CAST(n_chars * 1000 // greatest(n_tokens, 1) AS BIGINT)
           AS tok_len_milli
FROM f
""",
        "emb_knn": """
SELECT vec_id,
       CAST(floor(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
             (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
              WHERE vec_id = 0)) * 1000000 + 0.5) AS BIGINT) AS cos_sim_e6
FROM embeddings ORDER BY cos_sim_e6 DESC, vec_id LIMIT 20
""",
        "users_distinct": "SELECT count(DISTINCT user_id) AS n_users FROM events",
        "orders_histogram": """
SELECT CAST(floor(o_totalprice / 50000) AS BIGINT) AS price_bucket,
       count(*) AS n_orders
FROM orders GROUP BY price_bucket
""",
        "events_error_rate": """
SELECT user_id, count(*) AS n_events,
       CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT)
           AS n_errors,
       CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) * 1000
            // greatest(count(*), 1) AS BIGINT) AS err_permille
FROM events GROUP BY user_id
""",
        "emb_centroids": """
SELECT label, i, CAST(floor(avg(e) * 1000000 + 0.5) AS BIGINT) AS c_e6
FROM (SELECT label, unnest(embedding) AS e,
             generate_subscripts(embedding, 1) AS i FROM embeddings)
GROUP BY label, i
""",
        "turns_attrs_map": f"""
{with_turns}
SELECT conv_id, turn_idx,
  regexp_extract(text, '{r0}', 1) AS level,
  regexp_extract(text, '{r0}', 2) AS tool_name,
  CAST(regexp_extract(text, '{r0}', 3) AS BIGINT) AS latency_ms,
  upper(regexp_extract(text, '{r0}', 4)) AS status,
  'ray' AS engine,
  CAST(5 AS BIGINT) AS n_attrs
FROM turns WHERE regexp_matches(text, '{r0}')
""",
        "turns_attrs_typed": f"""
{with_turns}
SELECT conv_id, turn_idx,
  regexp_extract(text, '{r0}', 1) AS level,
  CAST(regexp_extract(text, '{r0}', 3) AS BIGINT) AS latency_ms,
  CAST(CASE WHEN CAST(regexp_extract(text, '{r0}', 3) AS BIGINT) >= 500
       THEN 1 ELSE 0 END AS BIGINT) AS is_slow,
  CAST(5 AS BIGINT) AS n_attrs
FROM turns WHERE regexp_matches(text, '{r0}')
""",
        "spans_derive": f"WITH {SPANS_CTE.strip()} SELECT * FROM spans",
        "spans_service_stats": f"""
WITH {SPANS_CTE.strip()}
SELECT service, count(*) AS n_spans,
       CAST(sum(duration_us) AS BIGINT) AS sum_duration_us,
       CAST(sum(CASE WHEN status_code = 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_errors,
       max(duration_us) AS max_duration_us
FROM spans GROUP BY service
""",
        "spans_red_metrics": f"""
WITH {SPANS_CTE.strip()}
SELECT service, date_trunc('minute', start_ts) AS minute,
       count(*) AS n_calls,
       CAST(sum(duration_us) AS BIGINT) AS sum_duration_us,
       CAST(sum(CASE WHEN status_code = 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_errors,
       max(duration_us) AS max_duration_us
FROM spans GROUP BY service, date_trunc('minute', start_ts)
""",
        "events_type_deciles": """
WITH e AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
r AS (SELECT event_type, cents,
             row_number() OVER (PARTITION BY event_type
                 ORDER BY cents) - 1 AS rn,
             count(*) OVER (PARTITION BY event_type) AS n FROM e)
SELECT event_type, CAST(min(n) AS BIGINT) AS n,
       max(CASE WHEN rn = ((n - 1) * 10) // 100 THEN cents END) AS p10,
       max(CASE WHEN rn = ((n - 1) * 30) // 100 THEN cents END) AS p30,
       max(CASE WHEN rn = ((n - 1) * 50) // 100 THEN cents END) AS p50,
       max(CASE WHEN rn = ((n - 1) * 70) // 100 THEN cents END) AS p70,
       max(CASE WHEN rn = ((n - 1) * 90) // 100 THEN cents END) AS p90
FROM r GROUP BY event_type
""",
        "events_user_hhi": """
WITH c AS (SELECT user_id, event_type,
                  CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY user_id, event_type),
s AS (SELECT user_id, CAST(sum(n) AS BIGINT) AS tot,
             CAST(sum(n * n) AS BIGINT) AS sq
      FROM c GROUP BY user_id)
SELECT user_id, tot AS n_events,
       CAST(sq * 1000000 // (tot * tot) AS BIGINT) AS hhi_x1e6
FROM s
""",
        "docs_hybrid_rank": """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS term
  FROM documents),
n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents),
df AS (SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM tok WHERE term IN ('window', 'join', 'hash') GROUP BY term),
w AS (SELECT term, (n.n_docs * 1000) // (df.df + 1) AS w FROM df, n),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
       FROM tok WHERE term IN ('window', 'join', 'hash')
       GROUP BY doc_id, term),
text_top AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY sum(tf.tf * w.w) DESC, doc_id) - 1
             AS rank
  FROM tf JOIN w USING (term) GROUP BY doc_id
  ORDER BY rank LIMIT 20),
prior_top AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY length(text) DESC, doc_id) - 1
             AS rank
  FROM documents ORDER BY rank LIMIT 20),
u AS (SELECT doc_id, 1.0 / (60 + rank) AS c FROM text_top
      UNION ALL
      SELECT doc_id, 1.0 / (60 + rank) AS c FROM prior_top)
SELECT doc_id, sum(c) AS rrf
FROM u GROUP BY doc_id
ORDER BY rrf DESC, doc_id LIMIT 10
""",
        "events_winsorized": """
WITH e AS (SELECT event_id,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
r AS (SELECT cents, row_number() OVER (ORDER BY cents) - 1 AS rn,
             count(*) OVER () AS n FROM e),
q AS (SELECT max(CASE WHEN rn = ((n - 1) * 5) // 100
                 THEN cents END) AS lo,
             max(CASE WHEN rn = ((n - 1) * 95) // 100
                 THEN cents END) AS hi
      FROM r)
SELECT e.event_id, e.cents,
       LEAST(GREATEST(e.cents, q.lo), q.hi) AS cents_w
FROM e, q
""",
        "events_peak_rate": """
WITH w AS (SELECT user_id,
                  count(*) OVER (PARTITION BY user_id ORDER BY ts
                      RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                      AND CURRENT ROW) AS w1h
           FROM events)
SELECT user_id, CAST(max(w1h) AS BIGINT) AS peak_1h
FROM w GROUP BY user_id
""",
        "docs_gopher": r"""
WITH f AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_words,
    CAST(length(regexp_replace(text, '\s', '', 'g')) AS BIGINT)
        AS word_chars,
    CAST(len(regexp_extract_all(text, '#'))
         + len(regexp_extract_all(text, '\.\.\.')) AS BIGINT)
        AS n_symbols,
    CAST(len(regexp_extract_all(text, chr(10))) + 1 AS BIGINT)
        AS n_lines,
    CAST(len(regexp_extract_all(text, '(^|\n)[ \t]*[-*•]')) AS BIGINT)
        AS n_bullet_lines,
    CAST(len(regexp_extract_all(text, '\.\.\.[ \t]*(\n|$)'))
         AS BIGINT) AS n_ellipsis_lines,
    CAST(len(regexp_extract_all(text, '\S*[A-Za-z]\S*')) AS BIGINT)
        AS n_alpha_words,
    CAST((CASE WHEN regexp_matches(text, '(^|[^a-z])the([^a-z]|$)') THEN 1 ELSE 0 END) + (CASE WHEN regexp_matches(text, '(^|[^a-z])be([^a-z]|$)') THEN 1 ELSE 0 END) + (CASE WHEN regexp_matches(text, '(^|[^a-z])to([^a-z]|$)') THEN 1 ELSE 0 END) + (CASE WHEN regexp_matches(text, '(^|[^a-z])of([^a-z]|$)') THEN 1 ELSE 0 END) + (CASE WHEN regexp_matches(text, '(^|[^a-z])and([^a-z]|$)') THEN 1 ELSE 0 END) + (CASE WHEN regexp_matches(text, '(^|[^a-z])that([^a-z]|$)') THEN 1 ELSE 0 END) + (CASE WHEN regexp_matches(text, '(^|[^a-z])have([^a-z]|$)') THEN 1 ELSE 0 END) + (CASE WHEN regexp_matches(text, '(^|[^a-z])with([^a-z]|$)') THEN 1 ELSE 0 END) AS BIGINT) AS n_stopwords
  FROM documents)
SELECT *,
       (n_words >= 50 AND n_words <= 100000
        AND word_chars >= 3 * n_words AND word_chars <= 10 * n_words
        AND n_symbols * 10 <= n_words
        AND n_bullet_lines * 10 <= 9 * n_lines
        AND n_ellipsis_lines * 10 <= 3 * n_lines
        AND n_alpha_words * 5 >= 4 * n_words
        AND n_stopwords >= 2) AS keep
FROM f
""",
        "spans_depth": f"""
WITH RECURSIVE {SPANS_CTE.strip()},
d AS (
  SELECT trace_id, span_id, CAST(0 AS BIGINT) AS depth
  FROM spans WHERE parent_span_id = ''
  UNION ALL
  SELECT s.trace_id, s.span_id, d.depth + 1
  FROM spans s JOIN d
    ON s.trace_id = d.trace_id AND s.parent_span_id = d.span_id
)
SELECT trace_id, span_id, depth FROM d
""",
        "spans_self_time": f"""
WITH {SPANS_CTE.strip()},
k AS (SELECT trace_id, parent_span_id AS span_id,
             CAST(sum(duration_us) AS BIGINT) AS child_us
      FROM spans WHERE parent_span_id <> '' GROUP BY 1, 2)
SELECT s.trace_id, s.span_id, s.service,
       CAST(s.duration_us AS BIGINT) AS duration_us,
       CAST(s.duration_us - COALESCE(k.child_us, 0) AS BIGINT)
           AS self_us
FROM spans s LEFT JOIN k
  ON s.trace_id = k.trace_id AND s.span_id = k.span_id
""",
        "spans_parent_join": f"""
WITH {SPANS_CTE.strip()}
SELECT c.trace_id, c.span_id, c.parent_span_id, p.service AS parent_service
FROM spans c LEFT JOIN spans p
  ON c.trace_id = p.trace_id AND c.parent_span_id = p.span_id
""",
        "spans_service_graph": f"""
WITH {SPANS_CTE.strip()}
SELECT p.service AS client, c.service AS server,
       CAST(count(*) AS BIGINT) AS n_calls,
       CAST(sum(CASE WHEN c.status_code = 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_errors,
       CAST(sum(c.duration_us) AS BIGINT) AS total_duration_us
FROM spans c JOIN spans p
  ON c.trace_id = p.trace_id AND c.parent_span_id = p.span_id
GROUP BY p.service, c.service
""",
        "spans_concurrency": f"""
WITH {SPANS_CTE.strip()},
d AS (SELECT service, CAST(epoch_us(start_ts) AS BIGINT) AS t,
             CAST(1 AS BIGINT) AS delta
      FROM spans
      UNION ALL
      SELECT service,
             CAST(epoch_us(start_ts) AS BIGINT) + duration_us,
             CAST(-1 AS BIGINT)
      FROM spans)
SELECT service, t, delta,
       CAST(sum(delta) OVER (PARTITION BY service ORDER BY t, delta
            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS concurrency
FROM d
""",
        "spans_busy_periods": f"""
WITH {SPANS_CTE.strip()},
i AS (SELECT service,
             CAST(epoch_us(start_ts) AS BIGINT) AS s,
             CAST(epoch_us(start_ts) AS BIGINT) + duration_us AS e
      FROM spans),
b AS (SELECT service, s, e,
             CASE WHEN s > COALESCE(max(e) OVER (
                      PARTITION BY service ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  s - 1)
                  THEN 1 ELSE 0 END AS brk
      FROM i),
g AS (SELECT *, sum(brk) OVER (PARTITION BY service ORDER BY s, e
          ROWS UNBOUNDED PRECEDING) AS grp FROM b)
SELECT service, min(s) AS busy_start_us, max(e) AS busy_end_us,
       CAST(count(*) AS BIGINT) AS n_spans
FROM g GROUP BY service, grp
""",
        "spans_trace_stats": f"""
WITH {SPANS_CTE.strip()}
SELECT trace_id, count(*) AS n_spans,
       CAST(sum(CASE WHEN status_code = 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_errors,
       max(CAST(epoch_us(start_ts) AS BIGINT) + duration_us)
         - min(CAST(epoch_us(start_ts) AS BIGINT)) AS trace_duration_us
FROM spans GROUP BY trace_id
""",
        "spans_duration_quantiles": f"""
WITH {SPANS_CTE.strip()},
ranked AS (
  SELECT service, duration_us,
         row_number() OVER (PARTITION BY service ORDER BY duration_us) AS rn,
         count(*) OVER (PARTITION BY service) AS cnt
  FROM spans
)
SELECT service, CAST(max(cnt) AS BIGINT) AS n,
  max(CASE WHEN rn = CAST(floor((cnt-1)*0.5) AS BIGINT)+1 THEN duration_us END) AS p50,
  max(CASE WHEN rn = CAST(floor((cnt-1)*0.95) AS BIGINT)+1 THEN duration_us END) AS p95,
  max(CASE WHEN rn = CAST(floor((cnt-1)*0.99) AS BIGINT)+1 THEN duration_us END) AS p99
FROM ranked GROUP BY service
""",
        "spans_tail_sampled": f"""
WITH {SPANS_CTE.strip()}
SELECT * FROM spans WHERE trace_id IN
  (SELECT trace_id FROM spans WHERE status_code = 2)
""",
        "spans_head_sampled": f"""
WITH {SPANS_CTE.strip()}
SELECT * FROM spans
WHERE ('0x' || substr(md5(trace_id), 1, 12))::UBIGINT % 1000 < 200
""",
        "events_balanced_sample": """
WITH k AS (
  SELECT min(n) AS k FROM (
    SELECT count(*) AS n FROM events GROUP BY event_type)),
r AS (
  SELECT event_id, event_type,
         row_number() OVER (PARTITION BY event_type
             ORDER BY md5(CAST(event_id AS VARCHAR)), event_id) AS rn
  FROM events)
SELECT event_id, event_type FROM r WHERE rn <= (SELECT k FROM k)
""",
        "events_seasonal_outliers": """
WITH cells AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         ((epoch_us(ts) // 86400000000) % 7) * 24
           + (epoch_us(ts) % 86400000000) // 3600000000 AS dh,
         CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY day, dh),
g AS (
  SELECT dh, count(*) AS n, sum(c) AS s1, sum(c * c) AS s2
  FROM cells GROUP BY dh)
SELECT cells.day, cells.dh, cells.c,
       CAST(CASE WHEN (n * c - s1) * (n * c - s1)
                      > (n * s2 - s1 * s1)
            THEN 1 ELSE 0 END AS BIGINT) AS is_anomaly
FROM cells JOIN g USING (dh)
""",
        "turns_missing_idx": f"""
WITH {TURNS_CTE.strip()},
t AS (
  SELECT conv_id, turn_idx FROM turns
  WHERE ('0x' || substr(md5(conv_id || '#'
                             || CAST(turn_idx AS VARCHAR)), 1, 12)
        )::UBIGINT % 1000 >= 100),
g AS (
  SELECT conv_id, CAST(count(*) AS BIGINT) AS n_present,
         CAST(max(turn_idx) AS BIGINT) AS max_idx
  FROM t GROUP BY conv_id),
r AS (
  SELECT conv_id, turn_idx,
         row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) - 1
             AS rk
  FROM t),
fg AS (
  SELECT conv_id, CAST(min(rk) AS BIGINT) AS first_gap
  FROM r WHERE turn_idx > rk GROUP BY conv_id)
SELECT g.conv_id, n_present, max_idx,
       max_idx + 1 - n_present AS n_missing, fg.first_gap
FROM g LEFT JOIN fg USING (conv_id)
""",
        "events_hrw_assign": """
WITH u AS (SELECT DISTINCT user_id FROM events),
w AS (
  SELECT u.user_id, b.backend,
         ('0x' || substr(md5(b.backend || '#'
                              || CAST(u.user_id AS VARCHAR)), 1, 12)
         )::UBIGINT AS wt
  FROM u CROSS JOIN (VALUES ('be-a'), ('be-b'), ('be-c'), ('be-d'))
       AS b(backend)),
pick AS (
  SELECT user_id, backend FROM (
    SELECT user_id, backend,
           row_number() OVER (PARTITION BY user_id
                              ORDER BY wt DESC, backend) AS rn
    FROM w) WHERE rn = 1)
SELECT p.backend, e.event_type, CAST(count(*) AS BIGINT) AS n
FROM events e JOIN pick p USING (user_id)
GROUP BY p.backend, e.event_type
""",
        "events_burstiness": """
WITH cells AS (
  SELECT user_id, epoch_us(ts) // 3600000000 AS hr,
         CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY user_id, hr),
g AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS w,
         CAST(sum(c) AS BIGINT) AS s,
         CAST(sum(c * c) AS BIGINT) AS q
  FROM cells GROUP BY user_id)
SELECT user_id, w, s, q,
       CAST(1000 * (w * q - s * s) // (w * s) AS BIGINT)
           AS fano_permille
FROM g
""",
        "turns_qa_rouge": f"""
WITH {TURNS_CTE.strip()},
w AS (
  SELECT conv_id, turn_idx, role, text,
         lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
             AS prev_role,
         lag(text) OVER (PARTITION BY conv_id ORDER BY turn_idx)
             AS prev_text
  FROM turns),
p AS (
  SELECT conv_id, turn_idx, prev_text AS prompt, text AS response
  FROM w WHERE role = 'assistant' AND prev_role = 'user'),
ta AS (
  SELECT conv_id, turn_idx, tok, count(*) AS ca
  FROM (SELECT conv_id, turn_idx,
               unnest(regexp_extract_all(lower(prompt), '[a-z0-9]+'))
                   AS tok FROM p)
  GROUP BY conv_id, turn_idx, tok),
tb AS (
  SELECT conv_id, turn_idx, tok, count(*) AS cb
  FROM (SELECT conv_id, turn_idx,
               unnest(regexp_extract_all(lower(response), '[a-z0-9]+'))
                   AS tok FROM p)
  GROUP BY conv_id, turn_idx, tok),
o AS (
  SELECT ta.conv_id, ta.turn_idx, sum(least(ca, cb)) AS ov
  FROM ta JOIN tb USING (conv_id, turn_idx, tok)
  GROUP BY ta.conv_id, ta.turn_idx)
SELECT p.conv_id, p.turn_idx,
       CAST(len(regexp_extract_all(lower(prompt), '[a-z0-9]+'))
            AS BIGINT) AS n_a,
       CAST(len(regexp_extract_all(lower(response), '[a-z0-9]+'))
            AS BIGINT) AS n_b,
       CAST(COALESCE(ov, 0) AS BIGINT) AS overlap,
       CAST(CASE WHEN len(regexp_extract_all(lower(prompt), '[a-z0-9]+'))
                    + len(regexp_extract_all(lower(response), '[a-z0-9]+'))
                    > 0
            THEN 2000 * COALESCE(ov, 0)
                 // (len(regexp_extract_all(lower(prompt), '[a-z0-9]+'))
                     + len(regexp_extract_all(lower(response),
                                              '[a-z0-9]+')))
       END AS BIGINT) AS f1_permille
FROM p LEFT JOIN o USING (conv_id, turn_idx)
""",
        "events_trimmed_mean": """
WITH v AS (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events),
r AS (
  SELECT event_type, cents,
         row_number() OVER (PARTITION BY event_type ORDER BY cents)
             AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM v)
SELECT event_type, CAST(max(n) AS BIGINT) AS n,
       CAST(count(*) FILTER (WHERE rn > (n * 100) // 1000
                               AND rn <= n - (n * 100) // 1000)
            AS BIGINT) AS n_mid,
       CAST(sum(cents) FILTER (WHERE rn > (n * 100) // 1000
                                 AND rn <= n - (n * 100) // 1000)
            AS BIGINT) AS sum_mid,
       CAST(1000 * sum(cents) FILTER (WHERE rn > (n * 100) // 1000
                                        AND rn <= n - (n * 100) // 1000)
            // (max(n) - 2 * ((max(n) * 100) // 1000)) AS BIGINT)
           AS mean_milli
FROM r GROUP BY event_type
""",
        "docs_blocklist": r"""
SELECT doc_id,
       CAST(len(regexp_extract_all(lower(text),
                '\b(?:slow|dup|bug)\b')) AS BIGINT) AS n_hits,
       CAST(CASE WHEN len(regexp_extract_all(lower(text),
                '\b(?:slow|dup|bug)\b')) = 0
            THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM documents
""",
        "docs_readability": """
WITH x AS (SELECT doc_id, lower(text) AS t FROM documents),
c AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(t, '[a-z0-9]+')) AS BIGINT) AS n_words,
    CAST(len(regexp_extract_all(t, '[.!?]+')) + 1 AS BIGINT)
        AS n_sentences,
    CAST(len(regexp_extract_all(t, '[aeiouy]+')) AS BIGINT)
        AS n_syllables
  FROM x)
SELECT doc_id, n_words, n_sentences, n_syllables,
       CASE WHEN n_words > 0
            THEN 206835 - (1015 * n_words) // n_sentences
                 - (84600 * n_syllables) // n_words
       END AS ease_milli
FROM c
""",
        "spans_tail_policy": f"""
WITH {SPANS_CTE.strip()},
tr AS (
  SELECT trace_id,
         max(CASE WHEN status_code = 2 THEN 1 ELSE 0 END) AS has_err,
         max(epoch_us(start_ts) + duration_us)
           - min(epoch_us(start_ts)) AS win
  FROM spans GROUP BY trace_id),
verdict AS (
  SELECT trace_id,
         CASE WHEN has_err = 1 THEN 'error'
              WHEN win >= 1800000000 THEN 'latency'
              WHEN ('0x' || substr(md5(trace_id), 1, 12))::UBIGINT
                   % 1000 < 100 THEN 'prob'
         END AS policy
  FROM tr)
SELECT s.trace_id, s.span_id, s.service, s.duration_us, s.status_code,
       v.policy
FROM spans s JOIN verdict v USING (trace_id)
WHERE v.policy IS NOT NULL
""",
        "spans_apdex": f"""
WITH {SPANS_CTE.strip()}
SELECT service, CAST(count(*) AS BIGINT) AS n,
       CAST(count(*) FILTER (WHERE duration_us <= 30000) AS BIGINT)
         AS n_satisfied,
       CAST(count(*) FILTER (WHERE duration_us > 30000
                               AND duration_us <= 120000) AS BIGINT)
         AS n_tolerating,
       CAST((2 * count(*) FILTER (WHERE duration_us <= 30000)
             + count(*) FILTER (WHERE duration_us > 30000
                                  AND duration_us <= 120000)) * 500
            // count(*) AS BIGINT) AS apdex_permille
FROM spans GROUP BY service
""",
        "spans_traceparent": "WITH " + SPANS_CTE.strip() + """,
h AS (
  SELECT CASE WHEN substr(md5(span_id), 1, 1) = '0' THEN 'garbage'
         ELSE '00-' || md5(trace_id) || '-' || span_id || '-' ||
              CASE WHEN status_code = 2 THEN '01' ELSE '00' END
         END AS tp
  FROM spans),
p AS (
  SELECT tp,
         regexp_matches(tp,
           '^[0-9a-f]{2}-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}$')
           AND substr(tp, 1, 2) != 'ff'
           AND substr(tp, 4, 32) != repeat('0', 32)
           AND substr(tp, 37, 16) != repeat('0', 16) AS ok
  FROM h)
SELECT CASE WHEN ok THEN substr(tp, 1, 2) END AS tp_version,
       CASE WHEN ok THEN CASE WHEN substr(tp, 55, 1) IN
            ('1','3','5','7','9','b','d','f') THEN 1 ELSE 0 END
       END AS tp_sampled,
       CAST(count(*) AS BIGINT) AS n
FROM p GROUP BY tp_version, tp_sampled
""",
        "turns_count_connector": f"""
{with_turns}
SELECT CASE WHEN NOT (regexp_matches(text, '{r0}')
                      OR regexp_matches(text, '{r1}')) THEN 'unparsed'
            WHEN regexp_extract(text, '{r1}', 1) = 'ERROR' THEN 'error'
            WHEN regexp_extract(text, '{r1}', 1) = 'INFO' THEN 'info'
            ELSE 'other' END AS band,
       count(*) AS n_logs
FROM turns GROUP BY band
""",
        "spans_events_exploded": f"""
WITH {SPANS_CTE.strip()}
SELECT span_id, 'exception' AS event_name,
       CAST(duration_us // 2 AS BIGINT) AS ts_offset_us
FROM spans WHERE status_code = 2
""",
        "spans_links_exploded": f"""
WITH {SPANS_CTE.strip()},
roots AS (SELECT trace_id, span_id AS root_span_id FROM spans
          WHERE parent_span_id = '')
SELECT s.span_id, s.trace_id AS link_trace_id,
       r.root_span_id AS link_span_id
FROM spans s JOIN roots r ON s.trace_id = r.trace_id
WHERE s.parent_span_id <> ''
""",
        # OTel exponential-histogram mapping (lower-exclusive boundaries):
        # idx = ceil(log2 v)-1, computed EXACTLY over integers as
        # floor(log2 v) - [v is a power of two], with floor(log2 v) =
        # length(bin(v)) - 1.
        "events_exp_histogram": """
WITH c AS (SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT)
               AS cents FROM events)
SELECT event_type,
       CASE WHEN cents > 0
            THEN CAST(length(bin(cents)) - 1 - CASE WHEN (cents & (cents-1)) = 0
                      THEN 1 ELSE 0 END AS BIGINT) END AS idx,
       count(*) AS n
FROM c GROUP BY event_type, idx
""",
        "events_exp_histogram_signed": """
WITH c AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) - 5000 AS centered
           FROM events)
SELECT event_type,
       CAST(sign(centered) AS INTEGER) AS sign,
       CASE WHEN centered <> 0
            THEN CAST(length(bin(abs(centered))) - 1
                      - CASE WHEN (abs(centered) & (abs(centered)-1)) = 0
                        THEN 1 ELSE 0 END AS BIGINT) END AS idx,
       count(*) AS n
FROM c GROUP BY event_type, sign, idx
""",
        "events_gauge_last": """
SELECT user_id, CAST(floor(value * 100 + 0.5) AS BIGINT) AS last_cents
FROM (SELECT user_id, value, row_number() OVER (
        PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
      FROM events) WHERE rn = 1
""",
        "profiles_functions": f"""
WITH {FRAMES_CTE.strip()}
SELECT func_id, name FROM ftab
""",
        "profiles_samples": f"""
WITH {FRAMES_CTE.strip()}
SELECT f.event_id, a.func_id AS f0_id, b.func_id AS f1_id,
       c.func_id AS f2_id, f.value_us
FROM frames f JOIN ftab a ON f.frame0 = a.name
              JOIN ftab b ON f.frame1 = b.name
              JOIN ftab c ON f.frame2 = c.name
""",
        "profiles_top_functions": f"""
WITH {FRAMES_CTE.strip()},
exploded AS (
  SELECT frame0 AS name, value_us, 0 AS leaf FROM frames
  UNION ALL SELECT frame1, value_us, 0 FROM frames
  UNION ALL SELECT frame2, value_us, 1 FROM frames
)
SELECT name, count(*) AS n_samples,
       CAST(sum(value_us) AS BIGINT) AS total_us,
       CAST(sum(value_us * leaf) AS BIGINT) AS self_us
FROM exploded GROUP BY name
""",
        "profiles_wire_top_functions": f"""
WITH {FRAMES_CTE.strip()},
exploded AS (
  SELECT frame0 AS name, value_us, 0 AS leaf FROM frames
  UNION ALL SELECT frame1, value_us, 0 FROM frames
  UNION ALL SELECT frame2, value_us, 1 FROM frames
)
SELECT name, count(*) AS n_samples,
       CAST(sum(value_us) AS BIGINT) AS total_us,
       CAST(sum(value_us * leaf) AS BIGINT) AS self_us
FROM exploded GROUP BY name
""",
        "profiles_flame_edges": f"""
WITH {FRAMES_CTE.strip()},
edges AS (
  SELECT frame0 AS parent, frame1 AS child, value_us FROM frames
  UNION ALL SELECT frame1, frame2, value_us FROM frames
)
SELECT parent, child, count(*) AS n,
       CAST(sum(value_us) AS BIGINT) AS total_us
FROM edges GROUP BY parent, child
""",
        "customers_fuzzy_match": """
WITH l AS (SELECT c_name AS cand FROM customer WHERE c_custkey % 50 = 0),
p AS (SELECT c_custkey, substr(c_name, 1, 16) || 'xy' AS probe
      FROM customer),
d AS (SELECT c_custkey, cand, levenshtein(probe, cand) AS dist,
             row_number() OVER (PARTITION BY c_custkey
                 ORDER BY levenshtein(probe, cand), cand) AS rn
      FROM p, l)
SELECT c_custkey,
       CASE WHEN dist <= 3 THEN cand END AS fuzzy_match,
       CASE WHEN dist <= 3 THEN CAST(dist AS BIGINT) END AS fuzzy_dist
FROM d WHERE rn = 1
""",
        "events_user_topp": """
WITH s AS (SELECT event_id, user_id,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
w AS (SELECT event_id, user_id, cents,
             coalesce(sum(cents) OVER (PARTITION BY user_id
                 ORDER BY cents DESC, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
               AS cb,
             sum(cents) OVER (PARTITION BY user_id) AS total
      FROM s)
SELECT event_id, user_id, cents FROM w WHERE cb * 4 < 3 * total
""",
        "docs_vocab_growth": """
WITH l AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+')
                    AS ts
           FROM documents),
tok AS (SELECT doc_id, ts[i] || ' ' || ts[i+1] AS term
        FROM l, unnest(range(1, len(ts))) AS r(i)),
f AS (SELECT term, min(doc_id) AS fd FROM tok GROUP BY term)
SELECT CAST(fd // 50 AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS new_terms
FROM f GROUP BY 1
""",
        "docs_retrieval_eval": """
WITH tok AS (SELECT doc_id,
                    unnest(regexp_extract_all(lower(text), '[a-z]+'))
                      AS term
             FROM documents),
cnt AS (SELECT term AS query, doc_id, count(*) AS c FROM tok
        WHERE term IN ('window', 'join', 'hash', 'scan')
        GROUP BY 1, 2),
res AS (SELECT query, doc_id,
               row_number() OVER (PARTITION BY query
                                  ORDER BY c DESC, doc_id) AS rnk
        FROM cnt),
qrels AS (SELECT query, doc_id FROM cnt WHERE c >= 3),
hits AS (SELECT r.query, r.rnk FROM res r
         JOIN qrels q USING (query, doc_id) WHERE r.rnk <= 10),
perq AS (SELECT query, count(*) AS hits_at_k, min(rnk) AS fr
         FROM hits GROUP BY 1),
nrel AS (SELECT query, count(*) AS n_rel FROM qrels GROUP BY 1)
SELECT n.query,
       CAST(coalesce(1000000 // p.fr, 0) AS BIGINT) AS rr_scaled,
       CAST(coalesce(p.hits_at_k, 0) AS BIGINT) AS hits_at_k,
       CAST(n.n_rel AS BIGINT) AS n_rel
FROM nrel n LEFT JOIN perq p USING (query)
""",
        "events_k_anon": """
WITH s AS (SELECT event_id, user_id, event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) // 2000
                    AS band
           FROM events),
w AS (SELECT event_id, event_type, band,
             count(*) OVER (PARTITION BY event_type, band) AS c,
             count(DISTINCT user_id)
               OVER (PARTITION BY event_type, band) AS d
      FROM s)
SELECT event_id, event_type, band FROM w WHERE c >= 5 AND d >= 2
""",
        "events_hopping": """
WITH e AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
                  (epoch_us(ts) // 900000000) * 900000000 AS w0
           FROM events),
x AS (SELECT event_type, cents, w0 - r.i * 900000000 AS ws
      FROM e CROSS JOIN range(4) AS r(i))
SELECT make_timestamp(ws) AS window_start, event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS value_cents
FROM x GROUP BY 1, 2
""",
        "docs_source_budget": """
SELECT doc_id, source, n_chars FROM (
  SELECT doc_id, source, n_chars,
         sum(n_chars) OVER (PARTITION BY source
                            ORDER BY n_chars DESC, doc_id) AS cum
  FROM documents)
WHERE cum <= 4000
""",
        "tpch_q4": """
WITH o AS (SELECT o_orderkey, o_orderdate, o_orderpriority FROM orders
           WHERE o_orderdate >= TIMESTAMP '1996-07-01'
             AND o_orderdate < TIMESTAMP '1997-07-01')
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
FROM o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate > o.o_orderdate + INTERVAL 90 DAY)
GROUP BY 1
""",
        "tpch_q6": """
SELECT CAST(coalesce(sum(CAST(floor(l_extendedprice * l_discount * 100
                                    + 0.5) AS BIGINT)), 0) AS BIGINT)
         AS revenue_cents
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
""",
        "tpch_q14": """
WITH j AS (SELECT CAST(floor(l_extendedprice * (1 - l_discount) * 100
                             + 0.5) AS BIGINT) AS cents, p_type
           FROM lineitem, part
           WHERE l_partkey = p_partkey
             AND l_shipdate >= TIMESTAMP '1996-09-01'
             AND l_shipdate < TIMESTAMP '1996-12-01')
SELECT CAST(coalesce(sum(CASE WHEN p_type = 'PROMO' THEN cents
                              ELSE 0 END), 0) AS BIGINT) AS promo_cents,
       CAST(coalesce(sum(cents), 0) AS BIGINT) AS total_cents
FROM j
""",
        "spans_overlap_pairs": f"""
WITH {SPANS_CTE.strip()},
i AS (SELECT service, row_number() OVER () AS rid,
             CAST(epoch_us(start_ts) AS BIGINT) AS s,
             CAST(epoch_us(start_ts) AS BIGINT)
               + greatest(duration_us, 1) AS e
      FROM spans),
p AS (SELECT a.service AS service FROM i a JOIN i b
      ON a.service = b.service AND a.rid <> b.rid
         AND a.s < b.e AND b.s < a.e)
SELECT i.service,
       CAST(coalesce(c.n, 0) AS BIGINT) AS n_overlap_pairs,
       CAST(count(*) AS BIGINT) AS n_intervals
FROM i LEFT JOIN (SELECT service, count(*) // 2 AS n FROM p
                  GROUP BY service) c USING (service)
GROUP BY i.service, c.n
""",
        "docs_source_gini": """
WITH r AS (SELECT source, n_chars,
                  row_number() OVER (PARTITION BY source
                                     ORDER BY n_chars) AS rn,
                  count(*) OVER (PARTITION BY source) AS n
           FROM documents)
SELECT source,
       CAST(sum((2 * rn - n - 1) * n_chars) AS BIGINT) AS gini_num,
       CAST(sum(n_chars) AS BIGINT) AS total,
       CAST(max(n) AS BIGINT) AS n
FROM r GROUP BY source
""",
        "events_user_growth": """
WITH f AS (SELECT user_id,
                  strftime(date_trunc('day', min(ts)), '%Y-%m-%d')
                    AS day
           FROM events GROUP BY user_id),
d AS (SELECT day, CAST(count(*) AS BIGINT) AS new_users
      FROM f GROUP BY day)
SELECT day, new_users,
       CAST(sum(new_users) OVER (ORDER BY day) AS BIGINT) AS cum_users
FROM d
""",
        "events_hopping_dau": """
WITH e AS (SELECT user_id,
                  (epoch_us(ts) // 900000000) * 900000000 AS w0
           FROM events),
x AS (SELECT user_id, w0 - r.i * 900000000 AS ws
      FROM e CROSS JOIN range(4) AS r(i))
SELECT make_timestamp(ws) AS window_start,
       CAST(count(DISTINCT user_id) AS BIGINT) AS active_users
FROM x GROUP BY 1
""",
        "tpch_q12": """
SELECT l_linestatus,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
GROUP BY l_linestatus
""",
        "tpch_q13": """
WITH per_cust AS (
  SELECT c_custkey, CAST(count(o_custkey) AS BIGINT) AS c_count
  FROM customer LEFT JOIN orders
    ON c_custkey = o_custkey AND o_orderpriority <> '1-URGENT'
  GROUP BY c_custkey)
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM per_cust GROUP BY c_count
""",
        "tpch_q16": """
SELECT p_brand, p_type, p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE p_brand <> 'Brand#5' AND p_type <> 'PROMO' AND p_size <= 25
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                        WHERE s_acctbal < 0)
GROUP BY p_brand, p_type, p_size
""",
        "tpch_q17": """
WITH sliced AS (
  SELECT l_partkey,
         CAST(floor(l_quantity * 100 + 0.5) AS BIGINT) AS qty_c,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS price_c
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = 'Brand#3'),
stats AS (SELECT l_partkey, CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(qty_c) AS BIGINT) AS sum_qty
          FROM sliced GROUP BY l_partkey)
SELECT CAST(coalesce(sum(price_c), 0) AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_lines
FROM sliced JOIN stats USING (l_partkey)
WHERE 5 * qty_c * n < sum_qty
""",
        "tpch_q18": """
WITH sums AS (
  SELECT l_orderkey,
         CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS qty_cents
  FROM lineitem GROUP BY l_orderkey
  HAVING qty_cents > 25000)
SELECT c_name, o_custkey, l_orderkey,
       strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
         AS totalprice_cents,
       qty_cents
FROM sums JOIN orders ON l_orderkey = o_orderkey
          JOIN customer ON o_custkey = c_custkey
""",
        "tpch_q22": """
WITH c AS (SELECT c_custkey, c_nationkey,
                  CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS bal_c
           FROM customer),
p AS (SELECT CAST(count(*) AS BIGINT) AS n_pos,
             CAST(coalesce(sum(bal_c), 0) AS BIGINT) AS sum_pos
      FROM c WHERE bal_c > 0)
SELECT c_nationkey, CAST(count(*) AS BIGINT) AS numcust,
       CAST(sum(bal_c) AS BIGINT) AS totacctbal_cents
FROM c, p
WHERE bal_c * n_pos > sum_pos
  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey
                  AND o_orderpriority IN ('1-URGENT', '2-HIGH'))
GROUP BY c_nationkey
""",
        "tpch_q2": """
WITH pairs AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
p AS (SELECT p_partkey, p_name FROM part
      WHERE p_type = 'LARGE' AND p_size <= 10),
s AS (SELECT s_suppkey, s_name, n_name,
             CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT) AS bal_c
      FROM supplier JOIN nation ON s_nationkey = n_nationkey
                    JOIN region ON n_regionkey = r_regionkey
      WHERE r_name = 'EUROPE'),
j AS (SELECT * FROM pairs JOIN p ON l_partkey = p_partkey
                          JOIN s ON l_suppkey = s_suppkey),
m AS (SELECT l_partkey, MIN(bal_c) AS min_c FROM j GROUP BY 1)
SELECT bal_c AS s_acctbal_cents, s_name, n_name,
       j.l_partkey AS p_partkey, p_name
FROM j JOIN m ON j.l_partkey = m.l_partkey AND bal_c = min_c
""",
        "tpch_q7": """
WITH sn AS (SELECT s_suppkey, n_name AS supp_nation
            FROM supplier JOIN nation ON s_nationkey = n_nationkey
            WHERE n_name IN ('NATION_12', 'NATION_3')),
cn AS (SELECT c_custkey, n_name AS cust_nation
       FROM customer JOIN nation ON c_nationkey = n_nationkey
       WHERE n_name IN ('NATION_12', 'NATION_3'))
SELECT supp_nation, cust_nation,
       CAST(year(l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                           + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem JOIN sn ON l_suppkey = s_suppkey
              JOIN orders ON l_orderkey = o_orderkey
              JOIN cn ON o_custkey = c_custkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
  AND ((supp_nation = 'NATION_12' AND cust_nation = 'NATION_3')
       OR (supp_nation = 'NATION_3' AND cust_nation = 'NATION_12'))
GROUP BY 1, 2, 3
""",
        "tpch_q8": """
SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CASE WHEN sn.n_name = 'NATION_3' THEN cents ELSE 0 END)
            AS BIGINT) AS nat_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents
FROM (SELECT l_orderkey, l_suppkey, l_partkey,
             CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                  AS BIGINT) AS cents FROM lineitem) li
JOIN part ON l_partkey = p_partkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
JOIN region ON cn.n_regionkey = r_regionkey
WHERE r_name = 'AMERICA' AND p_type = 'ECONOMY'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1998-01-01'
GROUP BY 1
""",
        "tpch_q9": """
SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                           + 0.5) AS BIGINT)
                - CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
                  * CAST(l_quantity AS BIGINT)) AS BIGINT) AS profit_cents
FROM lineitem JOIN part ON l_partkey = p_partkey
              JOIN supplier ON l_suppkey = s_suppkey
              JOIN nation ON s_nationkey = n_nationkey
              JOIN orders ON l_orderkey = o_orderkey
WHERE p_name LIKE '%widget%'
GROUP BY 1, 2
""",
        "tpch_q11": """
WITH v AS (
  SELECT l_partkey,
         CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS value_cents
  FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation ON s_nationkey = n_nationkey
                JOIN region ON n_regionkey = r_regionkey
  WHERE r_name = 'ASIA' GROUP BY 1),
t AS (SELECT CAST(sum(value_cents) AS BIGINT) AS tot,
             CAST(count(*) AS BIGINT) AS np FROM v)
SELECT l_partkey, value_cents FROM v, t
WHERE value_cents * np > 2 * tot
""",
        "tpch_q15": """
WITH r AS (
  SELECT l_suppkey,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                             + 0.5) AS BIGINT)) AS BIGINT)
           AS total_revenue_cents
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY 1)
SELECT s_suppkey, s_name, total_revenue_cents
FROM r JOIN supplier ON l_suppkey = s_suppkey
WHERE total_revenue_cents = (SELECT max(total_revenue_cents) FROM r)
""",
        "tpch_q19": """
SELECT CAST(coalesce(sum(CAST(floor(l_extendedprice * (1 - l_discount)
                                    * 100 + 0.5) AS BIGINT)), 0)
            AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_lines
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE (p_brand = 'Brand#1' AND l_quantity BETWEEN 1 AND 11
       AND p_size BETWEEN 1 AND 5)
   OR (p_brand = 'Brand#2' AND l_quantity BETWEEN 10 AND 20
       AND p_size BETWEEN 1 AND 10)
   OR (p_brand = 'Brand#3' AND l_quantity BETWEEN 20 AND 30
       AND p_size BETWEEN 1 AND 15)
""",
        "tpch_q20": """
WITH pairs AS (
  SELECT l_partkey, l_suppkey,
         CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS total_c,
         CAST(sum(CASE WHEN year(l_shipdate) = 1996
                       THEN CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS q96_c
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_name LIKE '%bolt%' GROUP BY 1, 2)
SELECT DISTINCT s_suppkey, s_name
FROM pairs JOIN supplier ON l_suppkey = s_suppkey
WHERE q96_c > 0 AND 2 * q96_c > total_c
""",
        "tpch_q21": """
WITH pairs AS (
  SELECT l_orderkey, l_suppkey,
         max(CASE WHEN l_shipdate > o_orderdate + INTERVAL 365 DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE o_orderstatus = 'F' GROUP BY 1, 2),
per_order AS (SELECT l_orderkey, count(*) AS n_supp,
                     sum(late) AS n_late FROM pairs GROUP BY 1)
SELECT s_name, CAST(count(*) AS BIGINT) AS numwait
FROM pairs JOIN per_order USING (l_orderkey)
           JOIN supplier ON l_suppkey = s_suppkey
WHERE late = 1 AND n_supp >= 2 AND n_late = 1
GROUP BY 1
""",
        "events_clustered_prune": """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS value_cents
FROM events WHERE value >= 50.0 AND value <= 80.0
GROUP BY 1
""",
        "parts_triangles": """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
pairs AS (
  SELECT l1.l_orderkey, l1.l_partkey AS a, l2.l_partkey AS b
  FROM d l1 JOIN d l2
    ON l1.l_orderkey = l2.l_orderkey AND l1.l_partkey < l2.l_partkey),
edges AS (SELECT a, b FROM pairs GROUP BY a, b HAVING count(*) >= 2),
tri AS (SELECT e1.a, e1.b, e2.b AS c
        FROM edges e1 JOIN edges e2 ON e1.b = e2.a
        JOIN edges e3 ON e3.a = e1.a AND e3.b = e2.b)
SELECT node, CAST(count(*) AS BIGINT) AS n_triangles
FROM (SELECT a AS node FROM tri UNION ALL SELECT b FROM tri
      UNION ALL SELECT c FROM tri) GROUP BY 1
""",
        "docs_bigram_pmi_parts": """
WITH l AS (SELECT regexp_extract_all(lower(text), '[a-z]+') AS ts
           FROM documents),
big AS (SELECT ts[i] || ' ' || ts[i+1] AS ngram
        FROM l, unnest(range(1, len(ts))) AS r(i)),
bc AS (SELECT ngram, CAST(count(*) AS BIGINT) AS n_xy
       FROM big GROUP BY 1),
nb AS (SELECT CAST(count(*) AS BIGINT) AS n_bigrams FROM big),
uni AS (SELECT u.t AS term, CAST(count(*) AS BIGINT) AS n
        FROM l, unnest(ts) AS u(t) GROUP BY 1),
nu AS (SELECT CAST(sum(n) AS BIGINT) AS n_unigrams FROM uni),
top AS (SELECT ngram, n_xy FROM bc ORDER BY n_xy DESC, ngram LIMIT 20)
SELECT t.ngram, t.n_xy, ux.n AS n_x, uy.n AS n_y,
       nu.n_unigrams, nb.n_bigrams
FROM top t
JOIN uni ux ON ux.term = split_part(t.ngram, ' ', 1)
JOIN uni uy ON uy.term = split_part(t.ngram, ' ', 2)
CROSS JOIN nu CROSS JOIN nb
""",
        "orders_merge_upsert": """
WITH base AS (SELECT o_orderkey AS k, o_orderstatus AS status,
                     CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS price_c,
                     CAST(0 AS BIGINT) AS version FROM orders),
upd AS (SELECT k, 'U' AS status, price_c + 10000 AS price_c,
               CAST(1 AS BIGINT) AS version FROM base WHERE k % 7 = 0),
ins AS (SELECT k + 1000000000 AS k, 'N' AS status, price_c,
               CAST(1 AS BIGINT) AS version FROM base WHERE k % 11 = 0),
allr AS (SELECT * FROM base UNION ALL SELECT * FROM upd
         UNION ALL SELECT * FROM ins)
SELECT k, status, price_c, version FROM allr
QUALIFY row_number() OVER (PARTITION BY k ORDER BY version DESC) = 1
""",
        "events_assoc_parts": """
WITH cells AS (SELECT event_type, CAST(isodow(ts) AS BIGINT) AS isodow,
                      CAST(count(*) AS BIGINT) AS obs
               FROM events GROUP BY 1, 2),
tot AS (SELECT CAST(sum(obs) AS BIGINT) AS n_total FROM cells)
SELECT event_type, isodow, obs,
       CAST(sum(obs) OVER (PARTITION BY event_type) AS BIGINT) AS row_n,
       CAST(sum(obs) OVER (PARTITION BY isodow) AS BIGINT) AS col_n,
       n_total,
       CAST(obs * n_total
            - (sum(obs) OVER (PARTITION BY event_type))
              * (sum(obs) OVER (PARTITION BY isodow)) AS BIGINT)
         AS dev_num
FROM cells, tot
""",
        "custs_pareto": """
WITH c AS (
  SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_orders,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS spend_c
  FROM orders GROUP BY 1)
SELECT o_custkey, n_orders, spend_c FROM c a
WHERE NOT EXISTS (
  SELECT 1 FROM c b
  WHERE b.n_orders >= a.n_orders AND b.spend_c >= a.spend_c
    AND (b.n_orders > a.n_orders OR b.spend_c > a.spend_c))
""",
        "events_compacted": """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS value_cents
FROM events GROUP BY 1
""",
        "events_attribution": """
WITH p AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type = 'purchase'),
c AS (SELECT user_id, ts AS click_ts FROM events
      WHERE event_type = 'click')
SELECT p.event_id, p.user_id,
       strftime(p.ts, '%Y-%m-%d %H:%M:%S') AS purchase_ts,
       CASE WHEN p.ts - c.click_ts <= INTERVAL 1 DAY
            THEN strftime(c.click_ts, '%Y-%m-%d %H:%M:%S') END
         AS click_ts
FROM p ASOF LEFT JOIN c
  ON p.user_id = c.user_id AND p.ts >= c.click_ts
""",
        "orders_scd2": """
WITH s AS (SELECT o_custkey, o_orderkey, o_orderdate, o_orderstatus,
                  lag(o_orderstatus) OVER w AS prev
           FROM orders
           WINDOW w AS (PARTITION BY o_custkey
                        ORDER BY o_orderdate, o_orderkey)),
kept AS (SELECT * FROM s
         WHERE prev IS NULL OR prev <> o_orderstatus),
iv AS (SELECT o_custkey, o_orderstatus, o_orderdate AS vf,
              lead(o_orderdate) OVER (PARTITION BY o_custkey
                  ORDER BY o_orderdate, o_orderkey) AS vt
       FROM kept)
SELECT o_custkey, o_orderstatus,
       strftime(vf, '%Y-%m-%d %H:%M:%S') AS valid_from,
       strftime(vt, '%Y-%m-%d %H:%M:%S') AS valid_to,
       (vt IS NULL) AS is_current
FROM iv
""",
        "docs_feature_hash": """
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
              FROM documents),
h AS (SELECT doc_id,
             CAST(('0x' || substr(md5(tok), 1, 6))::UBIGINT % 64
                  AS BIGINT) AS bucket
      FROM toks WHERE tok <> '')
SELECT bucket, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_tokens
FROM h GROUP BY bucket
""",
        "events_day_checksum": """
WITH h AS (SELECT strftime(ts, '%Y-%m-%d') AS day,
                  ('0x' || substr(md5(
                      CAST(event_id AS VARCHAR) || ':' ||
                      CAST(user_id AS VARCHAR) || ':' ||
                      event_type), 1, 12))::UBIGINT AS hv
           FROM events)
SELECT day, CAST(count(*) AS BIGINT) AS n,
       CAST(CAST(sum(CAST(hv AS HUGEINT)) AS HUGEINT)
            % 18446744073709551616 AS VARCHAR) AS checksum
FROM h GROUP BY day
""",
        "custs_target_encode": """
WITH t AS (SELECT c_mktsegment,
                  CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                      AS cents
           FROM orders JOIN customer ON o_custkey = c_custkey),
p AS (SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n,
             CAST(sum(cents) AS BIGINT) AS s
      FROM t GROUP BY c_mktsegment),
g AS (SELECT CAST(sum(n) AS BIGINT) AS gn,
             CAST(sum(s) AS BIGINT) AS gs FROM p)
SELECT c_mktsegment, n, s,
       CAST((s * gn + 20 * gs) // ((n + 20) * gn) AS BIGINT)
           AS enc_cents
FROM p, g
""",
        "lineitem_basket_pairs": """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT a.l_partkey AS a, b.l_partkey AS b,
       CAST(count(*) AS BIGINT) AS support
FROM d a JOIN d b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
GROUP BY 1, 2 HAVING count(*) >= 2
""",
        "events_rolling_outliers": """
WITH v AS (SELECT event_id, user_id, ts,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS x
           FROM events),
w AS (SELECT event_id, user_id, x,
             CAST(count(*) OVER win AS BIGINT) AS n,
             CAST(sum(x) OVER win AS BIGINT) AS s,
             CAST(sum(x * x) OVER win AS BIGINT) AS q
      FROM v
      WINDOW win AS (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 7 DAY PRECEDING
                           AND CURRENT ROW))
SELECT event_id, user_id FROM w
WHERE n >= 5 AND (n*x - s)*(n*x - s) > 9*(n*q - s*s)
""",
        "events_corr_parts": """
WITH v AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS x,
                  CAST(hour(ts) AS BIGINT) AS y
           FROM events)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
       CAST(sum(x * y) AS BIGINT) AS sxy,
       CAST(sum(x * x) AS BIGINT) AS sxx,
       CAST(sum(y * y) AS BIGINT) AS syy
FROM v GROUP BY event_type
""",
        "events_json_extract": """
WITH v AS (SELECT CAST(json_extract_string(props, '$.k') AS BIGINT)
                      AS k,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events)
SELECT k, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cents) AS BIGINT) AS sum_cents
FROM v GROUP BY k
""",
        "events_ipc_roundtrip": """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(user_id) AS BIGINT) AS sum_uid,
       CAST(min(epoch_us(ts)) AS BIGINT) AS min_ts_us,
       CAST(max(epoch_us(ts)) AS BIGINT) AS max_ts_us
FROM events GROUP BY event_type
""",
        "lineitem_weighted_median": """
WITH d AS (SELECT l_returnflag,
                  CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                      AS v,
                  CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS w
           FROM lineitem GROUP BY 1, 2),
c AS (SELECT l_returnflag, v,
             sum(w) OVER (PARTITION BY l_returnflag ORDER BY v) AS cum,
             sum(w) OVER (PARTITION BY l_returnflag) AS tot
      FROM d)
SELECT l_returnflag, CAST(min(tot) AS BIGINT) AS tot_w,
       CAST(min(v) AS BIGINT) AS wmedian
FROM c WHERE 2 * cum >= tot GROUP BY l_returnflag
""",
        "lineitem_weighted_p90": """
WITH d AS (SELECT l_returnflag,
                  CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                      AS v,
                  CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS w
           FROM lineitem GROUP BY 1, 2),
c AS (SELECT l_returnflag, v,
             sum(w) OVER (PARTITION BY l_returnflag ORDER BY v) AS cum,
             sum(w) OVER (PARTITION BY l_returnflag) AS tot
      FROM d)
SELECT l_returnflag, CAST(min(tot) AS BIGINT) AS tot_w,
       CAST(min(v) FILTER (WHERE 4 * cum >= tot) AS BIGINT) AS p1_4_w,
       CAST(min(v) FILTER (WHERE 10 * cum >= 9 * tot) AS BIGINT)
           AS p9_10_w
FROM c GROUP BY l_returnflag
""",
        "events_type_drift": """
WITH e AS (SELECT event_type AS k,
                  CASE WHEN ts < TIMESTAMP '2024-01-16'
                       THEN 'early' ELSE 'late' END AS g,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
           FROM events),
c AS (SELECT k, v,
             CAST(count(*) FILTER (WHERE g = 'early') AS BIGINT) AS ca,
             CAST(count(*) FILTER (WHERE g = 'late') AS BIGINT) AS cb
      FROM e GROUP BY k, v),
w AS (SELECT k, sum(ca) OVER (PARTITION BY k ORDER BY v) AS cuma,
             sum(cb) OVER (PARTITION BY k ORDER BY v) AS cumb FROM c),
t AS (SELECT k, CAST(sum(ca) AS BIGINT) AS n_a,
             CAST(sum(cb) AS BIGINT) AS n_b FROM c GROUP BY k)
SELECT t.k AS event_type, t.n_a, t.n_b,
       CAST(max(abs(t.n_b * w.cuma - t.n_a * w.cumb)) AS BIGINT)
           AS d_num,
       CAST(max(abs(t.n_b * w.cuma - t.n_a * w.cumb)) AS BIGINT)
           / CAST(t.n_a * t.n_b AS DOUBLE) AS d
FROM w JOIN t ON w.k = t.k
GROUP BY t.k, t.n_a, t.n_b
HAVING t.n_a > 0 AND t.n_b > 0
""",
        "events_log_dedup": """
WITH e AS (SELECT epoch_us(ts) AS tus, event_type, props FROM events)
SELECT CAST((tus // 3600000000) * 3600000000 AS BIGINT)
           AS window_start,
       event_type, props,
       CAST(count(*) AS BIGINT) AS log_count,
       CAST(min(tus) AS BIGINT) AS first_ts,
       CAST(max(tus) AS BIGINT) AS last_ts
FROM e GROUP BY 1, 2, 3
""",
        "events_lag_xcorr": """
WITH e AS (SELECT epoch_us(ts) // 86400000000 AS b, event_type AS g
           FROM events WHERE event_type IN ('click', 'purchase')),
bounds AS (SELECT min(b) AS lo, max(b) AS hi FROM e),
grid AS (SELECT unnest(generate_series((SELECT lo FROM bounds),
                                       (SELECT hi FROM bounds))) AS b),
ca AS (SELECT b, count(*) AS c FROM e WHERE g = 'click' GROUP BY b),
cb AS (SELECT b, count(*) AS c FROM e WHERE g = 'purchase' GROUP BY b),
g2 AS (SELECT grid.b AS b, coalesce(ca.c, 0) AS a,
              coalesce(cb.c, 0) AS v
       FROM grid LEFT JOIN ca ON ca.b = grid.b
                 LEFT JOIN cb ON cb.b = grid.b),
l AS (SELECT unnest([-3, -2, -1, 0, 1, 2, 3]) AS lag)
SELECT CAST(l.lag AS BIGINT) AS lag, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(x.a) AS BIGINT) AS sx, CAST(sum(y.v) AS BIGINT) AS sy,
       CAST(sum(x.a * y.v) AS BIGINT) AS sxy,
       CAST(sum(x.a * x.a) AS BIGINT) AS sxx,
       CAST(sum(y.v * y.v) AS BIGINT) AS syy
FROM l JOIN g2 x ON TRUE JOIN g2 y ON y.b = x.b + l.lag
GROUP BY l.lag
""",
        "events_survival": """
WITH s AS (SELECT user_id, epoch_us(min(ts)) AS t0,
                  epoch_us(min(ts) FILTER (WHERE event_type = 'purchase'))
                      AS tp,
                  epoch_us(max(ts)) AS tl
           FROM events GROUP BY user_id),
subj AS (SELECT (coalesce(tp, tl) - t0) // 86400000000 AS duration,
                CASE WHEN tp IS NOT NULL THEN 1 ELSE 0 END AS observed
         FROM s),
c AS (SELECT duration, CAST(sum(observed) AS BIGINT) AS d,
             CAST(sum(1 - observed) AS BIGINT) AS c
      FROM subj GROUP BY duration)
SELECT CAST(duration AS BIGINT) AS duration, d, c,
       CAST(sum(d + c) OVER (ORDER BY duration
            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)
           AS BIGINT) AS at_risk
FROM c
""",
        "events_ks_drift": """
WITH e AS (SELECT event_type AS g,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
           FROM events WHERE event_type IN ('click', 'view')),
c AS (SELECT v,
             CAST(count(*) FILTER (WHERE g = 'click') AS BIGINT) AS ca,
             CAST(count(*) FILTER (WHERE g = 'view') AS BIGINT) AS cb
      FROM e GROUP BY v),
w AS (SELECT v, ca, cb, sum(ca) OVER (ORDER BY v) AS cuma,
             sum(cb) OVER (ORDER BY v) AS cumb FROM c),
w2 AS (SELECT v, ca, cb, cuma, cumb,
              lead(v) OVER (ORDER BY v) AS nv FROM w),
t AS (SELECT CAST(sum(ca) AS BIGINT) AS n_a,
             CAST(sum(cb) AS BIGINT) AS n_b FROM c)
SELECT t.n_a, t.n_b,
       CAST(max(abs(t.n_b * w2.cuma - t.n_a * w2.cumb)) AS BIGINT)
           AS d_num,
       CAST(max(abs(t.n_b * w2.cuma - t.n_a * w2.cumb)) AS BIGINT)
           / CAST(t.n_a * t.n_b AS DOUBLE) AS d,
       CAST(sum(w2.ca * (2 * w2.cumb - w2.cb)) AS BIGINT) AS u2,
       CAST(sum(CASE WHEN w2.nv IS NULL THEN 0
                ELSE abs(t.n_b * w2.cuma - t.n_a * w2.cumb)
                     * (w2.nv - w2.v) END) AS BIGINT) AS w1_num,
       CAST(sum(CASE WHEN w2.nv IS NULL THEN 0
                ELSE abs(t.n_b * w2.cuma - t.n_a * w2.cumb)
                     * (w2.nv - w2.v) END) AS BIGINT)
           / CAST(t.n_a * t.n_b AS DOUBLE) AS w1
FROM w2, t GROUP BY t.n_a, t.n_b
""",
        "events_point_lookup": """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM events WHERE user_id = 7 GROUP BY event_type
""",
        "events_moving_avg": """
WITH e AS (SELECT user_id, event_id, ts,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_cents
           FROM events)
SELECT user_id, event_id, value_cents,
       CAST(sum(value_cents) OVER w AS BIGINT) AS m4_cents,
       CAST(count(*) OVER w AS BIGINT) AS m4_n
FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
     ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
""",
        "events_type_p_cont": """
WITH e AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
s AS (SELECT event_type, list(cents ORDER BY cents) AS arr,
             CAST(count(*) AS BIGINT) AS n
      FROM e GROUP BY event_type)
SELECT event_type, n,
       CAST(arr[CAST((n-1)//2 AS BIGINT) + 1] * (2 - (n-1)%2)
            + arr[CAST((n-1)//2 AS BIGINT) + 1
                  + CASE WHEN (n-1)%2 > 0 THEN 1 ELSE 0 END]
              * ((n-1)%2) AS BIGINT) AS p1_2_x2,
       CAST(arr[CAST(((n-1)*9)//10 AS BIGINT) + 1] * (10 - ((n-1)*9)%10)
            + arr[CAST(((n-1)*9)//10 AS BIGINT) + 1
                  + CASE WHEN ((n-1)*9)%10 > 0 THEN 1 ELSE 0 END]
              * (((n-1)*9)%10) AS BIGINT) AS p9_10_x10,
       CAST(arr[CAST(((n-1)*99)//100 AS BIGINT) + 1]
              * (100 - ((n-1)*99)%100)
            + arr[CAST(((n-1)*99)//100 AS BIGINT) + 1
                  + CASE WHEN ((n-1)*99)%100 > 0 THEN 1 ELSE 0 END]
              * (((n-1)*99)%100) AS BIGINT) AS p99_100_x100
FROM s
""",
        "docs_extract_matches": """
SELECT tok, CAST(count(*) AS BIGINT) AS n
FROM (SELECT unnest(regexp_extract_all(text, '[a-z]{6,}')) AS tok
      FROM documents)
GROUP BY tok
""",
        "orders_incr_agg": """
WITH f AS (SELECT o_orderkey, o_orderpriority,
                  CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
           FROM orders)
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cents) AS BIGINT) AS sum_cents
FROM f
WHERE (o_orderkey % 10 < 8 AND o_orderkey % 7 != 0)
   OR o_orderkey % 10 >= 8
GROUP BY o_orderpriority
""",
        "parts_pair_cosine": """
WITH d AS (SELECT DISTINCT l_orderkey AS g, l_partkey AS i FROM lineitem),
p AS (SELECT x.i AS a, y.i AS b, CAST(count(*) AS BIGINT) AS support
      FROM d x JOIN d y ON x.g = y.g AND x.i < y.i
      GROUP BY x.i, y.i HAVING count(*) >= 3),
c AS (SELECT i, CAST(count(*) AS BIGINT) AS n FROM d GROUP BY i)
SELECT p.a, p.b, p.support, ca.n AS n_a, cb.n AS n_b,
       p.support / sqrt(CAST(ca.n * cb.n AS DOUBLE)) AS cosine
FROM p JOIN c ca ON p.a = ca.i JOIN c cb ON p.b = cb.i
""",
        "events_path_trigrams": """
WITH w AS (SELECT event_type AS t1,
                  lead(event_type, 1) OVER (PARTITION BY user_id
                      ORDER BY ts, event_id) AS t2,
                  lead(event_type, 2) OVER (PARTITION BY user_id
                      ORDER BY ts, event_id) AS t3
           FROM events)
SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS n
FROM w WHERE t2 IS NOT NULL AND t3 IS NOT NULL GROUP BY t1, t2, t3
""",
        "orders_scd2_asof": """
SELECT o_custkey, o_orderstatus FROM (
  SELECT o_custkey, o_orderstatus,
         row_number() OVER (PARTITION BY o_custkey
             ORDER BY o_orderdate DESC, o_orderkey DESC) AS rn
  FROM orders WHERE o_orderdate <= TIMESTAMP '1996-06-01')
WHERE rn = 1
""",
        "parts_bfs_depth": """
WITH RECURSIVE e AS (
  SELECT DISTINCT 'p' || CAST(l_partkey AS VARCHAR) AS a,
                  's' || CAST(l_suppkey AS VARCHAR) AS b
  FROM lineitem),
u AS (SELECT a, b FROM e UNION SELECT b, a FROM e),
r AS (
  SELECT 'p1' AS node, 0 AS d
  UNION
  SELECT u.b, r.d + 1 FROM r JOIN u ON u.a = r.node WHERE r.d < 3
)
SELECT node, CAST(min(d) AS BIGINT) AS depth FROM r GROUP BY node
""",
        "events_chi2_drift": """
WITH c AS (SELECT event_type, user_id % 2 AS coh,
                  CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY 1, 2),
tot AS (SELECT CAST(sum(n) AS HUGEINT) AS nt,
               CAST(sum(CASE WHEN coh = 0 THEN n ELSE 0 END) AS HUGEINT) AS na,
               CAST(sum(CASE WHEN coh = 1 THEN n ELSE 0 END) AS HUGEINT) AS nb
        FROM c),
col AS (SELECT event_type,
               CAST(sum(CASE WHEN coh = 0 THEN n ELSE 0 END) AS HUGEINT) AS oa,
               CAST(sum(CASE WHEN coh = 1 THEN n ELSE 0 END) AS HUGEINT) AS ob
        FROM c GROUP BY event_type)
SELECT event_type,
       CAST(oa AS BIGINT) AS o_a, CAST(ob AS BIGINT) AS o_b,
       CAST((oa*nt - na*(oa+ob)) * (oa*nt - na*(oa+ob)) * 1000000
                // (nt * na * (oa+ob))
          + (ob*nt - nb*(oa+ob)) * (ob*nt - nb*(oa+ob)) * 1000000
                // (nt * nb * (oa+ob)) AS BIGINT) AS chi2_scaled
FROM col CROSS JOIN tot
""",
        "orders_benford": """
WITH c AS (SELECT substr(CAST(CAST(floor(o_totalprice * 100 + 0.5)
                               AS BIGINT) AS VARCHAR), 1, 1) AS digit,
                  CAST(count(*) AS BIGINT) AS n
           FROM orders GROUP BY 1)
SELECT digit, n,
       CAST(CASE digit WHEN '1' THEN 301029 WHEN '2' THEN 176091
            WHEN '3' THEN 124938 WHEN '4' THEN 96910 WHEN '5' THEN 79181
            WHEN '6' THEN 66946 WHEN '7' THEN 57991 WHEN '8' THEN 51152
            WHEN '9' THEN 45757 END AS BIGINT) AS expected_ppm
FROM c
""",
        "events_rolling_users": """
WITH ud AS (SELECT DISTINCT user_id,
                   CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
            FROM events),
b AS (SELECT min(day) AS lo, max(day) + 6 AS hi FROM ud),
d AS (SELECT unnest(generate_series(lo, hi)) AS t FROM b)
SELECT d.t, CAST(count(DISTINCT u.user_id) AS BIGINT) AS n_active
FROM d JOIN ud u ON u.day BETWEEN d.t - 6 AND d.t
GROUP BY d.t
""",
        "parts_assoc_rules": """
WITH m AS (SELECT DISTINCT l_orderkey AS g, l_partkey AS i
           FROM lineitem),
deg AS (SELECT i, CAST(count(*) AS BIGINT) AS n FROM m GROUP BY i),
tot AS (SELECT CAST(count(DISTINCT g) AS HUGEINT) AS nb FROM m),
p AS (SELECT x.i AS a, y.i AS b, CAST(count(*) AS BIGINT) AS sup
      FROM m x JOIN m y ON x.g = y.g AND x.i < y.i
      GROUP BY 1, 2 HAVING count(*) >= 2),
d AS (SELECT a AS ante, b AS cons, sup FROM p
      UNION ALL SELECT b, a, sup FROM p)
SELECT d.ante AS antecedent, d.cons AS consequent, d.sup AS support,
       da.n AS n_ante, dc.n AS n_cons,
       CAST(CAST(d.sup AS HUGEINT) * 1000000 // da.n AS BIGINT)
           AS conf_ppm,
       CAST(CAST(d.sup AS HUGEINT) * nb * 1000000
                // (CAST(da.n AS HUGEINT) * dc.n) AS BIGINT)
           AS lift_ppm
FROM d JOIN deg da ON da.i = d.ante JOIN deg dc ON dc.i = d.cons
CROSS JOIN tot
""",
        "events_trending": """
WITH c AS (SELECT strftime(ts, '%Y-%m-%d') AS day, event_type,
                  CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY 1, 2)
SELECT day, event_type, n, rk FROM (
  SELECT day, event_type, n,
         CAST(row_number() OVER (PARTITION BY day
              ORDER BY n DESC, event_type) AS BIGINT) AS rk
  FROM c)
WHERE rk <= 3
""",
        "events_debounced": """
WITH w AS (SELECT event_id, user_id, event_type, epoch_us(ts) AS ts_us,
                  lag(epoch_us(ts)) OVER (
                      PARTITION BY user_id, event_type
                      ORDER BY epoch_us(ts), event_id) AS prev
           FROM events)
SELECT event_id, user_id, event_type FROM w
WHERE prev IS NULL OR ts_us - prev > 300000000
""",
        "custs_rfm": """
WITH a AS (SELECT o_custkey, CAST(count(*) AS BIGINT) AS freq,
                  CAST(sum(CAST(floor(o_totalprice * 100 + 0.5)
                                AS BIGINT)) AS BIGINT) AS monetary,
                  max(epoch_us(o_orderdate)) AS last_us
           FROM orders GROUP BY o_custkey),
g AS (SELECT max(last_us) AS gmax FROM a),
d AS (SELECT o_custkey,
             CAST((gmax - last_us) // 86400000000 AS BIGINT)
                 AS recency_days,
             freq, monetary
      FROM a, g)
SELECT o_custkey, recency_days, freq, monetary,
       CAST(ntile(5) OVER (ORDER BY recency_days, o_custkey)
            AS BIGINT) AS r_q,
       CAST(ntile(5) OVER (ORDER BY freq, o_custkey) AS BIGINT) AS f_q,
       CAST(ntile(5) OVER (ORDER BY monetary, o_custkey)
            AS BIGINT) AS m_q
FROM d
""",
        "turns_tool_chains": f"""
WITH {TURNS_CTE.strip()},
tt AS (SELECT conv_id, turn_idx, tool FROM turns WHERE tool <> ''),
w AS (SELECT conv_id, tool,
             lag(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                 AS prev_tool
      FROM tt)
SELECT prev_tool, tool, CAST(count(*) AS BIGINT) AS n_pairs
FROM w WHERE prev_tool IS NOT NULL GROUP BY prev_tool, tool
""",
        "turns_role_tokens": f"""
WITH {TURNS_CTE.strip()},
l AS (SELECT conv_id, role,
             CAST(1 + length(text) - length(replace(text, ' ', ''))
                  AS BIGINT) AS ntok
      FROM turns),
a AS (SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
      CAST(sum(CASE WHEN role = 'user' THEN ntok ELSE 0 END)
           AS BIGINT) AS user_tokens,
      CAST(sum(CASE WHEN role = 'assistant' THEN ntok ELSE 0 END)
           AS BIGINT) AS assistant_tokens,
      CAST(sum(CASE WHEN role = 'system' THEN ntok ELSE 0 END)
           AS BIGINT) AS system_tokens,
      CAST(sum(CASE WHEN role = 'tool' THEN ntok ELSE 0 END)
           AS BIGINT) AS tool_tokens
      FROM l GROUP BY conv_id)
SELECT conv_id, n_turns, user_tokens, assistant_tokens, system_tokens,
       tool_tokens,
       CASE WHEN user_tokens > 0
            THEN CAST(1000 * assistant_tokens // user_tokens AS BIGINT)
       END AS asst_user_permille
FROM a
""",
        "events_apportion": """
WITH c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY event_type),
b AS (SELECT event_type, n,
             (1000 * n) // (SELECT sum(n) FROM c) AS base,
             (1000 * n) % (SELECT sum(n) FROM c) AS rem
      FROM c),
r AS (SELECT event_type, n, base, rem,
             row_number() OVER (ORDER BY rem DESC, event_type) AS rk
      FROM b)
SELECT event_type, n,
       CAST(base + CASE WHEN rk <= 1000 - (SELECT sum(base) FROM b)
                        THEN 1 ELSE 0 END AS BIGINT) AS seats
FROM r
""",
        "events_ohlc": """
WITH x AS (SELECT strftime(ts, '%Y-%m-%d') AS day, event_type, ts,
                  event_id,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
w AS (SELECT day, event_type, cents,
             row_number() OVER (PARTITION BY day, event_type
                                ORDER BY ts, event_id) AS rf,
             row_number() OVER (PARTITION BY day, event_type
                                ORDER BY ts DESC, event_id DESC) AS rl
      FROM x),
a AS (SELECT day, event_type, CAST(min(cents) AS BIGINT) AS low,
             CAST(max(cents) AS BIGINT) AS high,
             CAST(count(*) AS BIGINT) AS n
      FROM x GROUP BY day, event_type)
SELECT a.day, a.event_type, f.cents AS open, l.cents AS close,
       a.low, a.high, a.n
FROM a
JOIN w f ON f.day = a.day AND f.event_type = a.event_type AND f.rf = 1
JOIN w l ON l.day = a.day AND l.event_type = a.event_type AND l.rl = 1
""",
        # closed-form weekday count verified against np.busday_count on a
        # 14×80 signed lattice (tests/test_ninth_batch.py)
        "lineitem_ship_bd": """
WITH j AS (SELECT strftime(l_shipdate, '%Y-%m') AS ship_month,
                  datediff('day', LEAST(o_orderdate, l_shipdate),
                           GREATEST(o_orderdate, l_shipdate)) AS dd,
                  isodow(LEAST(o_orderdate, l_shipdate)) - 1 AS s,
                  l_shipdate >= o_orderdate AS fwd
           FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
b AS (SELECT ship_month,
             CASE WHEN fwd THEN 1 ELSE -1 END *
             (5 * (dd // 7)
              + GREATEST(0, LEAST(s + dd % 7, 7) - s
                            - GREATEST(0, LEAST(s + dd % 7, 7) - 5))
              + GREATEST(0, s + dd % 7 - 7)) AS bd
      FROM j)
SELECT ship_month, CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(bd) AS BIGINT) AS sum_bd,
       CAST(min(bd) AS BIGINT) AS min_bd,
       CAST(max(bd) AS BIGINT) AS max_bd
FROM b GROUP BY ship_month
""",
        "docs_sentence_stats": """
WITH s AS (SELECT doc_id,
                  string_split_regex(
                      regexp_replace(text, ' (row|table|value) ',
                                     ' \\1. ', 'g'),
                      '[.!?]+ +') AS ss
           FROM documents),
x AS (SELECT doc_id, CAST(len(ss) AS BIGINT) AS n_sents,
             CAST(list_max(list_transform(ss, t -> length(t)))
                  AS BIGINT) AS max_sent_chars,
             CAST(list_sum(list_transform(ss, t -> length(t)))
                  AS BIGINT) AS sum_chars
      FROM s)
SELECT doc_id, n_sents, max_sent_chars,
       CAST(sum_chars // n_sents AS BIGINT) AS avg_sent_chars
FROM x
""",
        "events_csv_roundtrip": """
WITH c AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cents) AS BIGINT) AS sum_cents,
       CAST(min(cents) AS BIGINT) AS min_cents,
       CAST(max(cents) AS BIGINT) AS max_cents
FROM c GROUP BY event_type
""",
        "events_l_diversity": """
WITH x AS (SELECT event_type,
                  (epoch_us(ts) // 86400000000) % 7 AS dow, user_id
           FROM events),
g AS (SELECT event_type, dow, CAST(count(*) AS BIGINT) AS n,
             CAST(count(DISTINCT user_id) AS BIGINT) AS n_sensitive
      FROM x GROUP BY event_type, dow)
SELECT event_type, CAST(dow AS BIGINT) AS dow, n, n_sensitive,
       CAST(1000 * n_sensitive // n AS BIGINT) AS diversity_permille,
       CAST(CASE WHEN n_sensitive >= 120 THEN 1 ELSE 0 END AS BIGINT)
           AS is_diverse
FROM g
""",
        "events_hist_p90": f"""
WITH x AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
b AS (SELECT event_type, {_HISTQ_BUCKET_SQL} AS bucket FROM x),
c AS (SELECT event_type, bucket, CAST(count(*) AS BIGINT) AS n
      FROM b GROUP BY event_type, bucket),
w AS (SELECT event_type, bucket, n,
             sum(n) OVER (PARTITION BY event_type
                          ORDER BY bucket) AS cum,
             sum(n) OVER (PARTITION BY event_type) AS tot
      FROM c),
sel AS (SELECT *, row_number() OVER (PARTITION BY event_type
                                     ORDER BY bucket) AS rn
        FROM w WHERE 1000 * cum >= 900 * tot),
f AS (SELECT * FROM sel WHERE rn = 1)
SELECT event_type, CAST(tot AS BIGINT) AS n_total,
       CAST(CASE WHEN bucket >= {len(_HISTQ_BOUNDS)}
                 THEN 1000 * {_HISTQ_BOUNDS[-1]}
                 ELSE 1000 * ({_HISTQ_LO_SQL})
                      + (({_HISTQ_HI_SQL}) - ({_HISTQ_LO_SQL}))
                        * (900 * tot - 1000 * (cum - n)) // n
            END AS BIGINT) AS p90_permille
FROM f
""",
        "orders_partition_diff": """
WITH oldt AS (SELECT strftime(o_orderdate, '%Y-%m-%d') AS day,
                     o_orderkey AS id,
                     CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                         AS cents
              FROM orders),
newt AS (SELECT strftime(o_orderdate, '%Y-%m-%d') AS day,
                o_orderkey AS id,
                CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                + CASE WHEN o_orderpriority = '1-URGENT'
                       THEN 100 ELSE 0 END AS cents
         FROM orders WHERE o_orderkey % 10 <> 0),
co AS (SELECT day, CAST(count(*) AS BIGINT) AS n_old,
              CAST(CAST(sum(CAST(('0x' || substr(md5(
                  CAST(id AS VARCHAR) || ':' ||
                  CAST(cents AS VARCHAR)), 1, 12))::UBIGINT
                  AS HUGEINT)) AS HUGEINT)
                  % 18446744073709551616 AS VARCHAR) AS checksum_old
       FROM oldt GROUP BY day),
cn AS (SELECT day, CAST(count(*) AS BIGINT) AS n_new,
              CAST(CAST(sum(CAST(('0x' || substr(md5(
                  CAST(id AS VARCHAR) || ':' ||
                  CAST(cents AS VARCHAR)), 1, 12))::UBIGINT
                  AS HUGEINT)) AS HUGEINT)
                  % 18446744073709551616 AS VARCHAR) AS checksum_new
       FROM newt GROUP BY day)
SELECT COALESCE(co.day, cn.day) AS day, n_old, n_new,
       checksum_old, checksum_new
FROM co FULL JOIN cn ON co.day = cn.day
WHERE n_old IS DISTINCT FROM n_new
   OR checksum_old IS DISTINCT FROM checksum_new
""",
        "turns_tool_latency": f"""
WITH {TURNS_CTE.strip()},
x AS (SELECT tool AS tool_attr,
             CAST(regexp_extract(text, 'latency_ms=(\\d+)', 1)
                  AS BIGINT) AS latency_ms
      FROM turns WHERE tool <> ''),
ranked AS (
  SELECT tool_attr, latency_ms,
         row_number() OVER (PARTITION BY tool_attr
                            ORDER BY latency_ms) AS rn,
         count(*) OVER (PARTITION BY tool_attr) AS cnt
  FROM x)
SELECT tool_attr, CAST(max(cnt) AS BIGINT) AS n,
  max(CASE WHEN rn = CAST(floor((cnt-1)*0.5) AS BIGINT)+1
       THEN latency_ms END) AS p50,
  max(CASE WHEN rn = CAST(floor((cnt-1)*0.95) AS BIGINT)+1
       THEN latency_ms END) AS p95,
  max(CASE WHEN rn = CAST(floor((cnt-1)*0.99) AS BIGINT)+1
       THEN latency_ms END) AS p99
FROM ranked GROUP BY tool_attr
""",
        "events_user_day_grid": """
WITH c AS (SELECT user_id, strftime(ts, '%Y-%m-%d') AS day,
                  CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY user_id, day),
g AS (SELECT user_id, day
      FROM (SELECT DISTINCT user_id FROM c)
      CROSS JOIN (SELECT DISTINCT day FROM c))
SELECT g.user_id, g.day, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
FROM g LEFT JOIN c ON g.user_id = c.user_id AND g.day = c.day
""",
        "events_moment_parts": """
WITH x AS (SELECT event_type,
                  CAST(floor(value) AS BIGINT) AS v FROM events)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(v) AS BIGINT) AS sum_x,
       CAST(sum(v*v) AS BIGINT) AS sum_x2,
       CAST(sum(v*v*v) AS BIGINT) AS sum_x3,
       CAST(sum(v*v*v*v) AS BIGINT) AS sum_x4,
       CAST(min(v) AS BIGINT) AS min_x,
       CAST(max(v) AS BIGINT) AS max_x
FROM x GROUP BY event_type
""",
        "spans_retry_rate": f"""
WITH {SPANS_CTE.strip()},
per AS (SELECT trace_id, name, service, CAST(count(*) AS BIGINT) AS c
        FROM spans GROUP BY trace_id, name, service),
agg AS (SELECT service, CAST(count(*) AS BIGINT) AS n_groups,
               CAST(sum(CASE WHEN c > 1 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_retried,
               CAST(max(c) AS BIGINT) AS max_repeat
        FROM per GROUP BY service)
SELECT service, n_groups, n_retried, max_repeat,
       CAST(1000 * n_retried // n_groups AS BIGINT) AS retry_permille
FROM agg
""",
        "orders_revenue_apportion": """
WITH c AS (SELECT o_orderpriority,
                  CAST(sum(CAST(floor(o_totalprice * 100 + 0.5)
                                AS BIGINT)) AS BIGINT) AS n
           FROM orders GROUP BY o_orderpriority),
b AS (SELECT o_orderpriority, n,
             (1000 * n) // (SELECT sum(n) FROM c) AS base,
             (1000 * n) % (SELECT sum(n) FROM c) AS rem
      FROM c),
r AS (SELECT o_orderpriority, n, base, rem,
             row_number() OVER (ORDER BY rem DESC, o_orderpriority)
                 AS rk
      FROM b)
SELECT o_orderpriority, n,
       CAST(base + CASE WHEN rk <= 1000 - (SELECT sum(base) FROM b)
                        THEN 1 ELSE 0 END AS BIGINT) AS seats
FROM r
""",
        "events_promtext_roundtrip": """
WITH c AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
                  epoch_us(ts) // 1000 AS ts_ms
           FROM events)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cents) AS BIGINT) AS sum_cents,
       CAST(max(ts_ms) AS BIGINT) AS max_ts_ms
FROM c GROUP BY event_type
""",
        "events_orc_roundtrip": """
WITH c AS (SELECT event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cents) AS BIGINT) AS sum_cents,
       CAST(min(cents) AS BIGINT) AS min_cents,
       CAST(max(cents) AS BIGINT) AS max_cents
FROM c GROUP BY event_type
""",
        "turns_sum_connector": f"""
WITH {TURNS_CTE.strip()},
x AS (SELECT tool,
             regexp_extract(text, 'status=(ok|err)', 1) AS status,
             CAST(regexp_extract(text, 'latency_ms=(\\d+)', 1)
                  AS BIGINT) AS latency_ms
      FROM turns WHERE tool <> '')
SELECT tool, status, CAST(count(*) AS BIGINT) AS n_calls,
       CAST(sum(latency_ms) AS BIGINT) AS sum_latency_ms
FROM x GROUP BY tool, status
""",
        "events_decayed_counts": """
WITH x AS (SELECT event_type,
                  LEAST(GREATEST((1706659200000000 - epoch_us(ts))
                                 // (3 * 86400000000), 0), 30) AS h
           FROM events)
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(1 AS BIGINT) << (30 - h)) AS BIGINT) AS decayed
FROM x GROUP BY event_type
""",
        "events_counter_resets": """
WITH x AS (SELECT user_id, ts, event_id,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
w AS (SELECT user_id,
             sum(cents) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) % 100000 AS cum,
             ts, event_id
      FROM x),
d AS (SELECT user_id, cum,
             lag(cum) OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS prev
      FROM w),
e AS (SELECT user_id,
             CASE WHEN prev IS NULL THEN cum
                  WHEN cum < prev THEN cum
                  ELSE cum - prev END AS delta,
             CASE WHEN prev IS NOT NULL AND cum < prev
                  THEN 1 ELSE 0 END AS is_reset
      FROM d)
SELECT user_id, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(is_reset) AS BIGINT) AS n_resets,
       CAST(sum(delta) AS BIGINT) AS sum_delta
FROM e GROUP BY user_id
""",
        "events_quota_sample": """
WITH c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY event_type),
b AS (SELECT event_type, n,
             (1000 * n) // (SELECT sum(n) FROM c) AS base,
             (1000 * n) % (SELECT sum(n) FROM c) AS rem
      FROM c),
s AS (SELECT event_type,
             base + CASE WHEN row_number() OVER (ORDER BY rem DESC,
                                                 event_type)
                         <= 1000 - (SELECT sum(base) FROM b)
                    THEN 1 ELSE 0 END AS seats
      FROM b),
rk AS (SELECT event_id, event_type,
              row_number() OVER (PARTITION BY event_type
                                 ORDER BY md5(CAST(event_id AS VARCHAR)),
                                          event_id) AS rn
       FROM events)
SELECT rk.event_id, rk.event_type
FROM rk JOIN s ON rk.event_type = s.event_type
WHERE rn <= s.seats
""",
        "docs_index_near": """
WITH tok AS (SELECT doc_id, unnest(l) AS term,
                    generate_subscripts(l, 1) AS pos
             FROM (SELECT doc_id,
                          regexp_extract_all(lower(text), '[a-z]+') AS l
                   FROM documents)),
a AS (SELECT doc_id, pos FROM tok WHERE term = 'table'),
b AS (SELECT doc_id, pos FROM tok WHERE term = 'hash')
SELECT DISTINCT a.doc_id
FROM a JOIN b ON a.doc_id = b.doc_id AND abs(a.pos - b.pos) <= 3
""",
        "turns_tool_streak": f"""
WITH {TURNS_CTE.strip()},
tt AS (SELECT conv_id, CAST(turn_idx AS BIGINT) AS ordinal
       FROM turns WHERE tool <> ''),
i AS (SELECT conv_id, ordinal,
             ordinal - row_number() OVER (PARTITION BY conv_id
                                          ORDER BY ordinal) AS island
      FROM tt),
r AS (SELECT conv_id, island, CAST(count(*) AS BIGINT) AS run
      FROM i GROUP BY conv_id, island)
SELECT conv_id,
       CAST(sum(run) AS BIGINT) AS n_ordinals,
       CAST(max(run) AS BIGINT) AS longest_run
FROM r GROUP BY conv_id
""",
        "events_ab_lift": """
WITH x AS (SELECT user_id & 1 AS variant, user_id,
                  CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END
                      AS is_conv
           FROM events)
SELECT variant, CAST(count(*) AS BIGINT) AS n_trials,
       CAST(sum(is_conv) AS BIGINT) AS n_conversions,
       CAST(count(DISTINCT CASE WHEN is_conv = 1 THEN user_id END)
            AS BIGINT) AS n_conv_users,
       CAST(1000 * sum(is_conv) // count(*) AS BIGINT)
           AS conv_permille
FROM x GROUP BY variant
""",
        "turns_pii_screen": f"""
WITH {TURNS_CTE.strip()},
inj AS (SELECT conv_id, turn_idx,
               CASE WHEN role = 'assistant'
                    THEN text || ' contact u' || substr(conv_id, 6)
                         || '@example.com from 10.1.2.3'
                    ELSE text END AS text
        FROM turns),
scr AS (SELECT conv_id, turn_idx,
  regexp_replace(
   regexp_replace(
    regexp_replace(
     regexp_replace(
      regexp_replace(text,
       '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{{2,}}',
       '<EMAIL>', 'g'),
      '\\b\\d{{3}}-\\d{{2}}-\\d{{4}}\\b', '<SSN>', 'g'),
     '\\b\\d{{4}}[- ]\\d{{4}}[- ]\\d{{4}}[- ]\\d{{4}}\\b', '<CC>', 'g'),
    '\\b\\d{{3}}[-. ]\\d{{3}}[-. ]\\d{{4}}\\b', '<PHONE>', 'g'),
   '\\b\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\b', '<IP>',
   'g') AS clean,
  len(regexp_extract_all(text,
      '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{{2,}}'))
      AS n_email,
  len(regexp_extract_all(text,
      '\\b\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\.\\d{{1,3}}\\b'))
      AS n_ipv4
 FROM inj)
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
       CAST(sum(n_email) AS BIGINT) AS n_emails,
       CAST(sum(n_ipv4) AS BIGINT) AS n_ips,
       md5(string_agg(clean, chr(10) ORDER BY turn_idx))
           AS redacted_md5
FROM scr GROUP BY conv_id
""",
        "events_funnel_latency": """
WITH s1 AS (SELECT user_id, min(ts) AS ts_1 FROM events
            WHERE event_type = 'view' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.ts) AS ts_2 FROM events e
       JOIN s1 USING (user_id)
       WHERE e.event_type = 'click' AND e.ts >= s1.ts_1
       GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.ts) AS ts_3 FROM events e
       JOIN s2 USING (user_id)
       WHERE e.event_type = 'purchase' AND e.ts >= s2.ts_2
       GROUP BY e.user_id),
d AS (SELECT (epoch_us(s3.ts_3) - epoch_us(s1.ts_1))
             // 86400000000 AS days
      FROM s3 JOIN s1 USING (user_id)),
ranked AS (SELECT days, row_number() OVER (ORDER BY days) AS rn,
                  count(*) OVER () AS cnt
           FROM d)
SELECT CAST(max(cnt) AS BIGINT) AS n,
  CAST(max(CASE WHEN rn = CAST(floor((cnt-1)*0.5) AS BIGINT)+1
            THEN days END) AS BIGINT) AS p50_days,
  CAST(max(CASE WHEN rn = CAST(floor((cnt-1)*0.9) AS BIGINT)+1
            THEN days END) AS BIGINT) AS p90_days
FROM ranked
""",
        "docs_dedup_keep_best": """
WITH u AS (SELECT doc_id, text FROM documents
           UNION ALL
           SELECT doc_id + 1000000, text FROM documents
           WHERE doc_id % 7 = 0),
h AS (SELECT doc_id, md5(text) AS hh,
             CAST(1 + length(text) - length(replace(text, ' ', ''))
                  AS BIGINT) AS q
      FROM u),
r AS (SELECT doc_id, q,
             row_number() OVER (PARTITION BY hh
                                ORDER BY q DESC, doc_id DESC) AS rn
      FROM h)
SELECT doc_id, q FROM r WHERE rn = 1
""",
        "docs_mixture_temp": """
WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n
           FROM documents GROUP BY source),
w AS (SELECT source, n * n AS w FROM c),
b AS (SELECT source, w,
             (1000 * w) // (SELECT sum(w) FROM w) AS base,
             (1000 * w) % (SELECT sum(w) FROM w) AS rem
      FROM w),
r AS (SELECT source, w, base, rem,
             row_number() OVER (ORDER BY rem DESC, source) AS rk
      FROM b)
SELECT source, CAST(w AS BIGINT) AS w,
       CAST(base + CASE WHEN rk <= 1000 - (SELECT sum(base) FROM b)
                        THEN 1 ELSE 0 END AS BIGINT) AS seats
FROM r
""",
        "events_metric_ratio": """
WITH c AS (SELECT strftime(ts, '%Y-%m-%d') AS day,
                  CAST(sum(CASE WHEN event_type = 'click'
                           THEN 1 ELSE 0 END) AS BIGINT) AS n_clicks,
                  CAST(sum(CASE WHEN event_type = 'view'
                           THEN 1 ELSE 0 END) AS BIGINT) AS n_views
           FROM events GROUP BY day)
SELECT day, n_clicks, n_views,
       CASE WHEN n_views > 0
            THEN CAST(1000 * n_clicks // n_views AS BIGINT) END
           AS ctr_permille
FROM c
""",
        "turns_handoff_matrix": f"""
WITH {TURNS_CTE.strip()},
w AS (SELECT conv_id, role,
             lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                 AS prev_role
      FROM turns)
SELECT prev_role, role, CAST(count(*) AS BIGINT) AS n_handoffs
FROM w WHERE prev_role IS NOT NULL GROUP BY prev_role, role
""",
        "events_dwell_time": """
WITH w AS (SELECT user_id, event_type, epoch_us(ts) AS ts_us,
                  lag(epoch_us(ts)) OVER (PARTITION BY user_id
                      ORDER BY epoch_us(ts), event_id) AS prev_ts,
                  lag(event_type) OVER (PARTITION BY user_id
                      ORDER BY epoch_us(ts), event_id) AS prev_type
           FROM events)
SELECT prev_type, event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(ts_us - prev_ts) AS BIGINT) AS sum_dwell_us,
       CAST(max(ts_us - prev_ts) AS BIGINT) AS max_dwell_us
FROM w WHERE prev_ts IS NOT NULL
GROUP BY prev_type, event_type
""",
        "profiles_diff": """
WITH fr AS (
  SELECT event_id,
         'proc::' || CASE event_type WHEN 'signup' THEN 'auth'
              WHEN 'purchase' THEN 'checkout'
              WHEN 'error' THEN 'backend' ELSE 'frontend' END AS name,
         CAST(floor(value * 1000) AS BIGINT) AS us
  FROM events
  UNION ALL
  SELECT event_id, 'op::' || event_type,
         CAST(floor(value * 1000) AS BIGINT) FROM events
  UNION ALL
  SELECT event_id,
         CASE WHEN event_type = 'error' THEN 'status::err'
              ELSE 'status::ok' END,
         CAST(floor(value * 1000) AS BIGINT) FROM events),
x AS (SELECT name,
             CASE WHEN event_id % 2 = 0 THEN us ELSE 0 END AS b,
             CASE WHEN event_id % 2 = 1 THEN us ELSE 0 END AS c,
             CASE WHEN event_id % 2 = 0 THEN 1 ELSE 0 END AS nb,
             CASE WHEN event_id % 2 = 1 THEN 1 ELSE 0 END AS nc
      FROM fr)
SELECT name, CAST(sum(b) AS BIGINT) AS base_us,
       CAST(sum(c) AS BIGINT) AS cand_us,
       CAST(sum(nb) AS BIGINT) AS n_base,
       CAST(sum(nc) AS BIGINT) AS n_cand,
       CAST(sum(c) - sum(b) AS BIGINT) AS delta_us
FROM x GROUP BY name
""",
        "spans_slow_exemplars": f"""
WITH {SPANS_CTE.strip()},
pt AS (SELECT service, trace_id, CAST(count(*) AS BIGINT) AS n_spans,
              CAST(sum(duration_us) AS BIGINT) AS total_us
       FROM spans GROUP BY service, trace_id),
r AS (SELECT service, trace_id, n_spans, total_us,
             row_number() OVER (PARTITION BY service
                                ORDER BY total_us DESC,
                                         trace_id DESC) AS rn
      FROM pt)
SELECT service, trace_id, n_spans, total_us FROM r WHERE rn = 1
""",
        "spans_trace_assembly": f"""
WITH {SPANS_CTE.strip()}
SELECT trace_id, CAST(count(*) AS BIGINT) AS n_spans,
       md5(string_agg(span_id, ',' ORDER BY start_ts, span_id))
           AS trace_md5
FROM spans GROUP BY trace_id
""",
        "turns_subsessions": f"""
WITH {TURNS_CTE.strip()},
w AS (SELECT conv_id, epoch_us(ts) AS ts_us,
             lag(epoch_us(ts)) OVER (PARTITION BY conv_id
                                     ORDER BY turn_idx) AS prev_ts
      FROM turns),
l AS (SELECT conv_id, ts_us,
             ts_us - COALESCE(prev_ts, ts_us) AS gap_us,
             CASE WHEN ts_us - COALESCE(prev_ts, ts_us)
                       > 21600000000 THEN 1 ELSE 0 END AS is_break
      FROM w)
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
       CAST(sum(is_break) + 1 AS BIGINT) AS n_episodes,
       CAST(max(gap_us) AS BIGINT) AS max_gap_us,
       CAST(max(ts_us) - min(ts_us) AS BIGINT) AS span_us
FROM l GROUP BY conv_id
""",
        "events_negative_samples": """
WITH c AS (SELECT user_id, strftime(ts, '%Y-%m-%d') AS day,
                  count(*) AS n
           FROM events GROUP BY user_id, day),
g AS (SELECT user_id, day
      FROM (SELECT DISTINCT user_id FROM c)
      CROSS JOIN (SELECT DISTINCT day FROM c)),
z AS (SELECT g.user_id, g.day
      FROM g LEFT JOIN c ON g.user_id = c.user_id AND g.day = c.day
      WHERE c.n IS NULL)
SELECT user_id, day FROM z
WHERE ('0x' || substr(md5(CAST(user_id AS VARCHAR) || '|' || day),
                      1, 12))::UBIGINT % 1000 < 500
""",
        "turns_length_drift": f"""
WITH {TURNS_CTE.strip()},
e AS (SELECT role AS k,
             CASE WHEN ts < TIMESTAMP '2024-01-16'
                  THEN 'early' ELSE 'late' END AS g,
             CAST(length(text) AS BIGINT) AS v
      FROM turns),
c AS (SELECT k, v,
             CAST(count(*) FILTER (WHERE g = 'early') AS BIGINT) AS ca,
             CAST(count(*) FILTER (WHERE g = 'late') AS BIGINT) AS cb
      FROM e GROUP BY k, v),
w AS (SELECT k, sum(ca) OVER (PARTITION BY k ORDER BY v) AS cuma,
             sum(cb) OVER (PARTITION BY k ORDER BY v) AS cumb FROM c),
t AS (SELECT k, CAST(sum(ca) AS BIGINT) AS n_a,
             CAST(sum(cb) AS BIGINT) AS n_b FROM c GROUP BY k)
SELECT t.k AS role, t.n_a, t.n_b,
       CAST(max(abs(t.n_b * w.cuma - t.n_a * w.cumb)) AS BIGINT)
           AS d_num,
       CAST(max(abs(t.n_b * w.cuma - t.n_a * w.cumb)) AS BIGINT)
           / CAST(t.n_a * t.n_b AS DOUBLE) AS d
FROM w JOIN t ON w.k = t.k
GROUP BY t.k, t.n_a, t.n_b
HAVING t.n_a > 0 AND t.n_b > 0
""",
        "events_forecast_backtest": """
WITH c AS (SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                  CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY event_type, day),
g AS (SELECT event_type, day
      FROM (SELECT DISTINCT event_type FROM c)
      CROSS JOIN (SELECT DISTINCT day FROM c)),
daily AS (SELECT g.event_type, g.day,
                 CAST(COALESCE(c.n, 0) AS BIGINT) AS n
          FROM g LEFT JOIN c ON g.event_type = c.event_type
                            AND g.day = c.day),
w AS (SELECT event_type, day, n,
             lag(n, 7) OVER (PARTITION BY event_type
                             ORDER BY day) AS pred
      FROM daily)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
       CAST(sum(abs(n - pred)) AS BIGINT) AS sum_abs_err,
       CAST(sum(n) AS BIGINT) AS sum_actual
FROM w WHERE pred IS NOT NULL GROUP BY event_type
""",
        "spans_error_budget": f"""
WITH {SPANS_CTE.strip()},
a AS (SELECT service, CAST(count(*) AS BIGINT) AS n_requests,
             CAST(sum(CASE WHEN status_code = 2 THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_errors
      FROM spans GROUP BY service)
SELECT service, n_requests, n_errors,
       CAST(5 * n_requests // 1000 AS BIGINT) AS budget_allowed,
       CAST(5 * n_requests // 1000 - n_errors AS BIGINT)
           AS budget_remaining
FROM a
""",
        "orders_aging_buckets": """
WITH o AS (SELECT o_orderdate,
                  CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                      AS cents,
                  (SELECT epoch_us(max(o_orderdate)) FROM orders)
                      AS wm_us
           FROM orders WHERE o_orderstatus = 'O'),
b AS (SELECT CASE
        WHEN (wm_us - epoch_us(o_orderdate)) // 86400000000 <= 30
             THEN '0-30'
        WHEN (wm_us - epoch_us(o_orderdate)) // 86400000000 <= 90
             THEN '31-90'
        WHEN (wm_us - epoch_us(o_orderdate)) // 86400000000 <= 365
             THEN '91-365'
        ELSE '365+' END AS age_band, cents
      FROM o)
SELECT age_band, CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(cents) AS BIGINT) AS sum_cents
FROM b GROUP BY age_band
""",
    }
