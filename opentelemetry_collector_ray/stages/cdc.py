"""Change-data-capture / log-retention operators — per-key row
selection by order, all on the bounded-bucket idiom.

Three telemetry-pipeline staples the reference expresses through its
processors and the batch engine expresses as one vectorized pass per
hash bucket (``bucketing.bucketed_map_groups`` — a key's rows always
share a bucket, so every selection below is exact):

- ``latest_by_key``: upsert compaction — keep each key's single newest
  row (the materialized-view read of an append-only CDC log; the
  reference's analog is the last-value gauge semantics,
  ``stages/metricsops.py``). ``keep="first"`` gives the oldest.
- ``first_k_by``: per-key rate limiting / throttle sampling — keep each
  key's first ``k`` rows in order (the head-based probe retention a log
  pipeline applies per user/session; cf. the reference's
  memory_limiter + probabilistic sampler family).
- ``dedupe_consecutive``: distinct-until-changed — drop a row when
  every watched column equals the key's PREVIOUS row (state-change
  compression of heartbeat/gauge streams).

Scale shape: one exchange (the bucket hash), then numpy segment kernels
on the sorted bucket — no per-key Python, no driver state. Ties on the
full ``order_by`` tuple are broken by sort stability within a bucket;
pass a unique tie-break column (an id) for cross-engine determinism.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .bucketing import bucketed_map_groups, key_segments

__all__ = ["latest_by_key", "first_k_by", "dedupe_consecutive",
           "scd2_intervals"]


def _sorted_segments(t: pa.Table, key: str, order_by: list[str]):
    t = t.sort_by([(key, "ascending")]
                  + [(c, "ascending") for c in order_by])
    for c in [key, *order_by]:
        if t.column(c).null_count:
            raise ValueError(
                f"cdc: key/order column {c!r} has nulls — SQL window "
                "ordering over nulls is engine-dependent; fill or drop "
                "them first")
    keys = t.column(key).to_numpy(zero_copy_only=False)
    change, seg_start = key_segments(keys)
    return t, change, seg_start


def latest_by_key(ds: ray.data.Dataset, key: str, order_by: list[str],
                  keep: str = "last",
                  n_buckets: int | str = "auto") -> ray.data.Dataset:
    """One row per key: the greatest (``keep="last"``) or least
    (``"first"``) row under ``order_by`` — the CDC upsert compaction.
    Equivalent SQL: ``row_number() OVER (PARTITION BY key ORDER BY
    order_by DESC) = 1``."""
    if keep not in ("last", "first"):
        raise ValueError(f"latest_by_key: keep must be 'last' or "
                         f"'first', got {keep!r}")

    def bucket_fn(t: pa.Table) -> pa.Table:
        t, change, seg_start = _sorted_segments(t, key, order_by)
        n = t.num_rows
        if keep == "first":
            idx = np.flatnonzero(change)
        else:
            # segment ends = (next segment start) - 1, last segment ends
            # at n-1
            starts = np.flatnonzero(change)
            idx = np.append(starts[1:], n) - 1
        return t.take(pa.array(idx, pa.int64()))

    return bucketed_map_groups(ds, key, bucket_fn, n_buckets=n_buckets)


def first_k_by(ds: ray.data.Dataset, key: str, order_by: list[str],
               k: int,
               n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Keep each key's FIRST ``k`` rows in ``order_by`` order — per-key
    rate limiting / head sampling. Equivalent SQL: ``row_number() OVER
    (PARTITION BY key ORDER BY order_by) <= k``."""
    k = int(k)
    if k < 1:
        raise ValueError(f"first_k_by: k must be >= 1, got {k}")

    def bucket_fn(t: pa.Table) -> pa.Table:
        t, change, seg_start = _sorted_segments(t, key, order_by)
        n = t.num_rows
        rn = np.arange(n) - seg_start
        return t.filter(pa.array(rn < k))

    return bucketed_map_groups(ds, key, bucket_fn, n_buckets=n_buckets)


def dedupe_consecutive(ds: ray.data.Dataset, key: str,
                       order_by: list[str], value_cols: list[str],
                       n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Distinct-until-changed: within each key's ``order_by`` sequence,
    drop a row when EVERY ``value_cols`` entry equals the previous
    row's — state-change compression for heartbeat/gauge streams.
    First row of each key always survives. Equivalent SQL: keep rows
    where any ``col IS DISTINCT FROM lag(col) OVER w``. Null values in
    ``value_cols`` compare like SQL IS DISTINCT FROM (null == null)."""
    if not value_cols:
        raise ValueError("dedupe_consecutive: value_cols must be "
                         "non-empty")

    def bucket_fn(t: pa.Table) -> pa.Table:
        t, change, seg_start = _sorted_segments(t, key, order_by)
        return t.filter(pa.array(_state_change_mask(t, value_cols,
                                                    change)))

    return bucketed_map_groups(ds, key, bucket_fn, n_buckets=n_buckets)


def _state_change_mask(t: pa.Table, value_cols: list[str],
                       change: np.ndarray) -> np.ndarray:
    """Keep-mask for distinct-until-changed over a key-sorted table:
    a row survives when it starts a key segment (``change``) or when
    ANY ``value_cols`` entry IS DISTINCT FROM the previous row's."""
    n = t.num_rows
    keep = change.copy()  # first row of each key always kept
    for c in value_cols:
        col = t.column(c)
        v = col.to_numpy(zero_copy_only=False)
        if n > 1:
            neq = v[1:] != v[:-1]
            if neq.dtype != bool:
                neq = neq.astype(bool)
            if col.null_count:
                # IS DISTINCT FROM: null vs null is NOT a change,
                # null vs value IS
                isnull = np.asarray(
                    col.is_null().to_numpy(zero_copy_only=False))
                both_null = isnull[1:] & isnull[:-1]
                one_null = isnull[1:] ^ isnull[:-1]
                neq = (neq & ~both_null) | one_null
            elif v.dtype.kind == "f":
                # NaN != NaN would mark every NaN run as changes
                both_nan = np.isnan(v[1:]) & np.isnan(v[:-1])
                neq = neq & ~both_nan
            keep[1:] |= neq
    return keep


def scd2_intervals(ds: ray.data.Dataset, key: str, order_col: str,
                   value_cols: list[str], tie_break: str | None = None,
                   n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Slowly-changing-dimension (type 2) build from an append-only
    change log: collapse consecutive no-change rows per key
    (:func:`dedupe_consecutive` semantics), then emit one VALIDITY
    INTERVAL per surviving version — ``valid_from`` = the version's
    ``order_col`` value, ``valid_to`` = the next version's (null for
    the key's current version, flagged ``is_current``).

    The warehouse-dimension analog of the reference's last-value /
    state-change compression (cf. ``stages/metricsops.py`` gauge
    semantics; reference pdata gauge datapoints
    `pdata/pmetric/generated_numberdatapoint.go`). Equivalent SQL:
    ``lag`` filter then ``lead(order_col) OVER (PARTITION BY key ORDER
    BY order_col, tie_break)``.

    One bucket exchange; within a bucket everything is numpy segment
    arithmetic. Pass a unique ``tie_break`` column (an id) whenever
    ``(key, order_col)`` can repeat, for cross-engine determinism.
    """
    if not value_cols:
        raise ValueError("scd2_intervals: value_cols must be non-empty")
    reserved = {"valid_from", "valid_to", "is_current"}
    clash = reserved & {key, order_col, *value_cols}
    if clash:
        raise ValueError(
            f"scd2_intervals: column(s) {sorted(clash)} collide with "
            "the reserved output columns valid_from/valid_to/"
            "is_current — rename them upstream")
    order_by = [order_col] + ([tie_break] if tie_break else [])

    def bucket_fn(t: pa.Table) -> pa.Table:
        t, change, seg_start = _sorted_segments(t, key, order_by)
        kept = t.filter(pa.array(_state_change_mask(t, value_cols,
                                                    change)))
        m = kept.num_rows
        valid_from = kept.column(order_col).combine_chunks()
        if m:
            kkeys = kept.column(key).to_numpy(zero_copy_only=False)
            kchange, _ = key_segments(kkeys)
            # valid_to[i] = valid_from[i+1] when row i+1 continues the
            # same key, else null — null take-indices yield nulls
            nxt = np.arange(1, m + 1, dtype=np.int64)
            is_last = np.append(kchange[1:], True)
            idx = pa.array(nxt, pa.int64(), mask=is_last)
            valid_to = pc.take(valid_from, idx)
        else:
            valid_to = valid_from
        cols = {key: kept.column(key)}
        for c in value_cols:
            cols[c] = kept.column(c)
        cols["valid_from"] = valid_from
        cols["valid_to"] = valid_to
        cols["is_current"] = pc.is_null(valid_to)
        return pa.table(cols)

    return bucketed_map_groups(ds, key, bucket_fn, n_buckets=n_buckets)


def log_dedup(ds: ray.data.Dataset, match_cols: list[str],
              ts_col: str, interval_us: int,
              count_name: str = "log_count",
              n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Interval log deduplication — the contrib logdedup processor's
    batch analog (opentelemetry-collector-contrib
    processor/logdeduplicationprocessor; core reference has only the
    OTLP/nop receivers, this mirrors the contrib semantics): within
    each ``interval_us`` window, rows identical on ``match_cols``
    collapse to ONE row carrying the duplicate count and the first /
    last observed timestamps — the "same error logged 40,000 times"
    compactor.

    One grouped aggregate keyed on (window, match...): each batch
    reduces to its partial rows, and above one task's worth of input
    they are exchanged by window hash and merged with one Arrow group_by
    per bucket — near-unique string match keys would make a Ray sort
    exchange pay full freight on the composite (measured 18 s vs 0.3 s
    at sf0.1 on 2M rows, the weighted-median lesson); a hot duplicate
    sends at most one partial row per batch.
    Returns
    ``(window_start, *match_cols, count_name, first_ts, last_ts)``."""
    from .aggregate import grouped_agg

    if interval_us <= 0:
        raise ValueError("log_dedup: interval_us must be positive")
    if not match_cols:
        raise ValueError("log_dedup: match_cols must be non-empty")
    reserved = {"window_start", count_name, "first_ts", "last_ts",
                "_ts"}
    clash = reserved & set(match_cols)
    if clash:
        raise ValueError(f"log_dedup: match column(s) {sorted(clash)} "
                         "collide with output/internal columns")

    def lanes(t: pa.Table) -> pa.Table:
        col = t.column(ts_col)
        if col.null_count:
            raise ValueError(f"log_dedup: {ts_col!r} has nulls — a "
                             "null has no window")
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us"))
        ts = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        w = (ts // interval_us) * interval_us  # numpy // floors
        out = {"window_start": pa.array(w)}
        for c in match_cols:
            out[c] = t.column(c)
        out["_ts"] = pa.array(ts)
        return pa.table(out)

    agg = grouped_agg(ds.map_batches(lanes, batch_format="pyarrow"),
                      ["window_start", *match_cols],
                      count_name=count_name,
                      min_cols={"first_ts": "_ts"},
                      max_cols={"last_ts": "_ts"},
                      n_buckets=n_buckets)
    return agg
