"""Benchmark harness — prints ONE JSON line per run.

Headline: the north-rule flagship pipeline (parse → enrich → route →
aggregate) over a transcript table derived deterministically from the
``$GRAFT_SF_DIR`` events table and replicated to ~BENCH_TARGET_ROWS turns
(replicas get distinct conv_id suffixes, preserving per-conversation
structure). Secondary: per-query timings of representative operators.

``--scaling`` runs the headline twice in fresh processes at
``num_cpus=8`` and ``num_cpus=32`` on the SAME cached input and reports
throughput at both plus efficiency = (t_lo/t_hi)/(hi/lo) — the sandbox
stand-in for the N-vs-4N-node cluster criterion (BASELINE.json north_rule).
"""

from __future__ import annotations

import json
import os
import sys
import time

_REPO_DIR = os.path.dirname(os.path.abspath(__file__))
if _REPO_DIR not in sys.path:
    sys.path.insert(0, _REPO_DIR)  # robust to being invoked from any CWD

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
TARGET_ROWS = int(os.environ.get("BENCH_TARGET_ROWS", "2000000"))
CACHE_ROOT = os.environ.get("BENCH_CACHE", "/tmp/graft_bench")


def _prepare_turns(sf_dir: str) -> tuple[str, int]:
    """Derive turns from events once and replicate to ~TARGET_ROWS; cached
    across runs (both scaling levels read identical input)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tag = sf_dir.rstrip("/").split("/")[-1]
    events_rows = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    k = max(1, TARGET_ROWS // max(1, events_rows))
    # ≥128 files so the read stage can saturate 32+ workers (4× max CPUs);
    # at real scale these are the input fragments, many per node.
    chunks_per_replica = max(1, -(-128 // k))
    out_dir = os.path.join(CACHE_ROOT, f"turns_{tag}_x{k}_c{chunks_per_replica}")
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir, events_rows * k
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.sources.transcripts import read_derived_turns
    from opentelemetry_collector_ray.stages.treereduce import collect

    os.makedirs(out_dir, exist_ok=True)
    base = pa.concat_tables(collect(read_derived_turns(sf_dir)))  # once
    conv = base.column("conv_id")

    nrows = base.num_rows
    per = -(-nrows // chunks_per_replica)
    for i in range(k):
        t = base.set_column(base.column_names.index("conv_id"), "conv_id",
                            pc.binary_join_element_wise(
                                conv.cast(pa.string()), f"-r{i:03d}", ""))
        for c in range(chunks_per_replica):
            part = t.slice(c * per, per)
            if part.num_rows:
                pq.write_table(part, os.path.join(
                    out_dir, f"turns-{i:04d}-{c:02d}.parquet"))
    with open(done, "w") as f:
        f.write(str(base.num_rows * k))
    return out_dir, base.num_rows * k


def _read_blocks(turns_dir: str) -> int:
    """Block count for the timed read: max(num_cpus, bytes/128MB). The
    default (one-plus tasks per FILE) is dispatch-bound on many small
    fragments — measured 2.64s → 1.24s at 32 CPUs by coalescing to one
    block per CPU; at real scale the 128MB-per-block term dominates."""
    import glob

    nbytes = sum(os.path.getsize(f)
                 for f in glob.glob(os.path.join(turns_dir, "*.parquet")))
    return max(NCPUS, nbytes // (128 << 20))


def run_flagship(turns_dir: str) -> tuple[float, int, int]:
    """Timed: read → parse → enrich → route → two-phase aggregate."""
    t0 = time.time()
    pdf = _flagship_ds(turns_dir).to_pandas()  # final aggregate is small
    wall = time.time() - t0
    return wall, int(pdf["n_turns"].sum()), len(pdf)


def run_secondary(sf_dir: str) -> dict[str, float]:
    import __ray_entry__ as m

    out: dict[str, float] = {}
    names = ["events_agg", "events_sessionize", "tpch_q1", "nation_revenue",
             "docs_token_count", "docs_quality", "docs_exact_dedup", "emb_knn",
             "spans_service_stats", "spans_trace_stats", "events_gauge_last",
             "events_exp_histogram", "turns_attrs_map",
             "profiles_top_functions", "spans_tail_sampled",
             "join_priority_revenue", "events_last_order_asof",
             "pii_redact", "orders_global_sorted", "docs_tfidf_topk",
             "docs_index_postings", "events_user_window",
             "docs_contamination", "docs_curation", "docs_repetition",
             "events_pivot", "events_value_scaled", "docs_canonical_dedup",
             "docs_chunk_sliding", "emb_kmeans", "tpch_q3",
             "events_user_split", "events_profile", "orders_violations",
             "emb_pca", "events_user_rolling", "events_rollup",
             "events_funnel", "events_type_rank", "docs_above_lang_median",
             "docs_lang_sample", "tpch_q5", "events_resampled_daily",
             "events_jsonl_roundtrip", "orders_vip_join",
             "spans_service_graph", "docs_dup_spans", "docs_dup_stats",
             "orders_decile", "spans_busy_periods", "events_outliers",
             "events_robust_outliers", "orders_cc",
             "docs_weighted_sample", "docs_incremental_dedup",
             "events_url_parse", "docs_top_terms_per_lang",
             "orders_snapshot_diff", "docs_token_budget",
             "docs_bpe_tokens", "parts_pagerank",
             # round-5 additions
             "events_hist_wire", "emb_quantize", "docs_bpe_roundtrip",
             "events_value_pctile", "orders_latest_by_cust",
             "events_throttled", "events_state_changes",
             "events_user_mode", "events_user_paths", "events_gap_stats",
             "events_twa", "events_zorder", "events_ffill",
             "docs_lm_bigram_stats", "orders_price_band",
             "events_daily_delta", "lineitem_weighted_price",
             "customers_sha256", "events_label_encode",
             "orders_with_returns", "tpch_q10", "docs_epoch_order",
             "events_transform_ottl", "spans_depth", "docs_gopher",
             "events_winsorized", "events_peak_rate",
             "docs_hybrid_rank", "events_type_deciles",
             "events_user_hhi",
             # round-5 late additions
             "tpch_q9", "tpch_q21", "events_clustered_prune",
             "custs_pareto", "parts_triangles", "events_attribution",
             "events_compacted", "orders_merge_upsert",
             # round-5 closing-session additions
             "orders_scd2", "docs_feature_hash", "events_day_checksum",
             "custs_target_encode", "lineitem_basket_pairs",
             "events_rolling_outliers", "events_corr_parts",
             "events_json_extract", "events_ipc_roundtrip",
             "lineitem_weighted_median", "events_trending",
             "events_debounced", "custs_rfm", "spans_self_time",
             # round-5 final-session additions
             "events_moving_avg", "events_type_p_cont",
             "docs_extract_matches", "orders_incr_agg",
             "parts_pair_cosine", "events_path_trigrams",
             "orders_scd2_asof", "parts_bfs_depth",
             "lineitem_weighted_p90", "events_ks_drift",
             "events_survival", "events_lag_xcorr",
             "events_log_dedup", "events_type_drift",
             # round-5 drift-panel-session additions
             "events_chi2_drift", "orders_benford",
             "events_rolling_users", "parts_assoc_rules",
             "turns_templates",
             # round-5 sixth-session additions
             "events_cardinality_cap", "events_late_arrivals",
             "turns_oov_rate", "spans_head_sampled",
             "events_user_coverage", "events_alert_hysteresis",
             "events_rank_movers", "events_t_closeness",
             "spans_apdex", "events_delta_rate", "spans_traceparent",
             "events_syslog_pri", "docs_index_phrase",
             "turns_conv_digest", "turns_response_latency",
             "events_snowflake", "turns_span_correlation",
             "events_bounce_rate", "events_iat_parts",
             # round-5 seventh-session additions
             "turns_context_window", "spans_slo_burn",
             "events_exphist_downscale", "docs_rater_kappa",
             "turns_alternation", "docs_screen_eval",
             "events_value_auc", "events_user_gini",
             "events_exphist_p99", "events_logfmt",
             "spans_deepest_path", "events_series_staleness",
             "customers_near_names", "events_rolling_extrema",
             "events_exemplars", "docs_calibration",
             "events_user_streak", "turns_qa_pairs", "events_folds",
             "docs_slice_odds", "events_audience_overlap",
             "docs_lang_eval", "customers_entity_groups",
             "events_path_rollup", "orders_hist_rebucket",
             "docs_compress_ratio", "events_base64",
             "events_duration_parse", "events_dow_hour_heatmap",
             "parts_degree_hist",
             # round-5 ninth-session additions
             "turns_tool_chains", "turns_role_tokens",
             "events_apportion", "events_ohlc", "lineitem_ship_bd",
             "docs_sentence_stats", "events_csv_roundtrip",
             "events_l_diversity", "events_hist_p90",
             "orders_partition_diff", "turns_tool_latency",
             "events_user_day_grid", "events_moment_parts",
             "spans_retry_rate", "orders_revenue_apportion",
             "events_promtext_roundtrip", "events_orc_roundtrip",
             "turns_sum_connector", "events_decayed_counts",
             "events_counter_resets", "events_quota_sample",
             "docs_index_near", "turns_tool_streak",
             "events_ab_lift", "turns_pii_screen",
             "events_funnel_latency", "docs_dedup_keep_best",
             "docs_mixture_temp", "events_metric_ratio",
             "turns_handoff_matrix", "events_dwell_time",
             "profiles_diff", "spans_slow_exemplars",
             "spans_trace_assembly", "turns_subsessions",
             "events_negative_samples", "turns_length_drift",
             "events_forecast_backtest", "spans_error_budget",
             "orders_aging_buckets"]
    q = m.queries()
    for name in names:
        t0 = time.time()
        res = q[name](sf_dir)
        import ray.data

        if isinstance(res, ray.data.Dataset):
            res.count()
        out[name] = round(time.time() - t0, 3)
    return out


def run_ann(sf_dir: str) -> dict:
    """Persisted-index ANN: build once, batch-query; report query wall and
    the scan fraction (probed partition rows / corpus rows) — the
    sublinear-scan evidence for the index path."""
    import numpy as np
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.stages.similarity import (
        ann_query_index, ann_scan_fraction, build_ann_index)

    import ray.data

    src = f"{sf_dir}/embeddings.parquet"
    index_dir = "/tmp/graft_bench/ann_index"
    t0 = time.time()
    import shutil

    shutil.rmtree(index_dir, ignore_errors=True)
    build_ann_index(ray.data.read_parquet(src, columns=["vec_id", "embedding"]),
                    index_dir, n_bits=8)
    build_sec = round(time.time() - t0, 3)
    t = pq.read_table(src, columns=["embedding"])
    queries = np.array([t.column("embedding")[i].as_py() for i in range(16)],
                       dtype=np.float64)
    t0 = time.time()
    res = ann_query_index(index_dir, queries, k=10, multiprobe=1)
    query_sec = round(time.time() - t0, 3)
    frac_union = ann_scan_fraction(index_dir, queries, multiprobe=1)
    per_query = [ann_scan_fraction(index_dir, queries[i:i + 1], multiprobe=1)
                 for i in range(len(queries))]
    return {"ann_index_build_sec": build_sec,
            "ann_query16_sec": query_sec,
            "ann_scan_fraction_union16": round(float(frac_union), 4),
            "ann_scan_fraction_per_query": round(float(np.mean(per_query)), 4),
            "ann_result_rows": res.num_rows}


def main() -> None:
    import ray

    _init_ray()

    turns_dir, n_rows = _prepare_turns(SF_DIR)
    run_flagship(turns_dir)  # warm page cache / JIT, untimed
    # best-of-3 timed runs: short runs on a shared host are noise-sensitive
    # (ambient VM contention, object-store state); min is the standard
    # robust estimator for throughput
    walls = []
    for _ in range(3):
        w, n_turns, n_groups = run_flagship(turns_dir)
        walls.append(w)
    wall = min(walls)
    assert n_turns == n_rows, (n_turns, n_rows)
    routed_write = None
    if "--headline-only" not in sys.argv:
        import shutil

        import ray.data

        from opentelemetry_collector_ray.pipelines.flagship import build_routed
        from opentelemetry_collector_ray.sinks.parquet_sink import write_routed

        sink = "/tmp/graft_bench/routed_sink"
        shutil.rmtree(sink, ignore_errors=True)
        t0 = time.time()
        write_routed(build_routed(ray.data.read_parquet(
            turns_dir, override_num_blocks=_read_blocks(turns_dir))), sink)
        routed_write = round(time.time() - t0, 3)
    queries = run_secondary(SF_DIR) if "--headline-only" not in sys.argv else {}
    ann = run_ann(SF_DIR) if "--headline-only" not in sys.argv else {}
    headline = {
        "metric": "flagship_parse_enrich_route_aggregate_sec",
        "value": round(wall, 3),
        "unit": "sec",
        "turns": n_turns,
        "turns_per_sec": round(n_turns / wall, 1),
        "agg_groups": n_groups,
        "routed_write_sec": routed_write,
        "sf": SF_DIR,
        "num_cpus": NCPUS,
    }
    # The driver keeps only the LAST 2000 chars of stdout, so the stdout
    # line must stay small (r4's 61-entry queries dict pushed it past the
    # window and BENCH_r04.json came back parsed:null). Headline keys only
    # on stdout; the full per-query timing map goes to a side file + stderr.
    full = {**headline, "queries": queries, **ann}
    if "--headline-only" not in sys.argv:
        side = os.path.join(_REPO_DIR, "BENCH_SECONDARY.json")
        with open(side, "w") as f:
            json.dump(full, f, indent=1)
        print(json.dumps(full), file=sys.stderr)
    print(json.dumps(headline))
    ray.shutdown()


def scaling() -> None:
    import subprocess

    results = {}
    for ncpu in (8, 32):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.join(_REPO_DIR, "bench.py"),
             "--headline-only"],
            env=env, capture_output=True, text=True, check=True)
        line = json.loads(out.stdout.strip().splitlines()[-1])
        results[ncpu] = line
        time.sleep(15)  # let the previous session's shm/page-cache churn settle
    t8, t32 = results[8]["value"], results[32]["value"]
    eff = (t8 / t32) / (32 / 8)
    print(json.dumps({
        "metric": "scaling_efficiency_8_to_32_cpus",
        "sec_8": t8, "sec_32": t32,
        "turns_per_sec_8": results[8]["turns_per_sec"],
        "turns_per_sec_32": results[32]["turns_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "turns": results[32]["turns"],
    }))


def _init_ray() -> None:
    import ray

    ray.init(address="local", num_cpus=NCPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def _flagship_ds(turns_dir: str):
    import ray.data

    from opentelemetry_collector_ray.pipelines.flagship import (
        build_aggregate, build_routed)

    # prune at the read: the aggregate never touches turn_idx, so only the
    # five columns the parse→enrich→route→agg path reads leave storage
    return build_aggregate(build_routed(ray.data.read_parquet(
        turns_dir, columns=["conv_id", "role", "text", "tool", "ts"],
        override_num_blocks=_read_blocks(turns_dir))))


def stats() -> None:
    """Per-operator Ray Data stats for the flagship pipeline (the
    measure-don't-guess loop: read `ds.stats()` and iterate until wall is
    dominated by useful compute). Prints the stats report to stderr and a
    one-line summary JSON to stdout."""
    import ray

    _init_ray()
    turns_dir, n_rows = _prepare_turns(SF_DIR)
    t0 = time.time()
    ds = _flagship_ds(turns_dir).materialize()
    wall = time.time() - t0
    print(ds.stats(), file=sys.stderr)
    print(json.dumps({"metric": "flagship_stats_wall_sec",
                      "value": round(wall, 3), "unit": "sec",
                      "turns": n_rows, "num_cpus": NCPUS}))
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--stats" in sys.argv:
        stats()
    else:
        main()
