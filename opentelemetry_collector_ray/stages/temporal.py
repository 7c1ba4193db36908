"""Aggregation-temporality conversion — the pmetric delta↔cumulative analog.

Reference: metric data carries ``AggregationTemporality`` (delta |
cumulative, ``/root/reference/pdata/pmetric/aggregation_temporality.go:
14-21``) and downstream components must convert/respect it. In batch mode
the conversion is an exact per-series ordered running sum: partition by
series key, order by time bucket, prefix-sum the deltas.

Execution shape: the per-series scan uses the hash-bucket map_groups
pattern (bounded group count; ``Table.sort_by`` + numpy segment prefix
sums inside — no Arrow→pandas round trip, no per-series Python).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .bucketing import bucketed_map_groups, key_segments

N_BUCKETS = 64


def _sorted_with_segments(t: pa.Table, key: str, order_col: str):
    t = t.sort_by([(key, "ascending"), (order_col, "ascending")])
    keys = t.column(key).to_numpy(zero_copy_only=False)
    change, seg_start = key_segments(keys)
    return t, change, seg_start


def delta_to_cumulative(ds: ray.data.Dataset, key: str, order_col: str,
                        value_col: str, out_col: str = "cum",
                        n_buckets: int | str = N_BUCKETS) -> ray.data.Dataset:
    """Per-key ordered prefix sum: adds ``out_col`` = running total of
    ``value_col`` in ``order_col`` order within each ``key`` series."""

    def cumsum(t: pa.Table) -> pa.Table:
        t, change, seg_start = _sorted_with_segments(t, key, order_col)
        vals = t.column(value_col).to_numpy(zero_copy_only=False)
        total = np.cumsum(vals)
        # per-key prefix sum = global cumsum minus the cumsum just before
        # each key's first row (exact for any sign, no forward-fill tricks)
        base = total[seg_start] - vals[seg_start]
        out = total - base
        if vals.dtype.kind == "i":
            out = out.astype(np.int64)
        return t.append_column(out_col, pa.array(out))

    return bucketed_map_groups(ds, key, cumsum, n_buckets=n_buckets)


def cumulative_to_delta(ds: ray.data.Dataset, key: str, order_col: str,
                        value_col: str, out_col: str = "delta",
                        n_buckets: int | str = N_BUCKETS, *,
                        resets: str = "diff",
                        reset_col: str | None = None) -> ray.data.Dataset:
    """Inverse conversion: per-key ordered difference (first point keeps its
    value — the series start resets, matching cumulative semantics).

    ``resets="otel"`` applies the cumulativetodelta processor's
    counter-RESET rule (opentelemetry-collector-contrib's
    ``processor/cumulativetodeltaprocessor``, not a core-collector
    component; also the OTLP sum monotonic contract): when a cumulative
    value DROPS below its predecessor the counter restarted, so the delta
    is the new value itself rather than a negative difference.
    ``reset_col`` (optional) additionally emits a 0/1 lane marking the
    reset points — the restart-frequency audit. ``resets="diff"`` (default) keeps the
    plain ordered difference."""
    if resets not in ("diff", "otel"):
        raise ValueError(f"cumulative_to_delta: unknown resets={resets!r}")

    def diff(t: pa.Table) -> pa.Table:
        t, change, _ = _sorted_with_segments(t, key, order_col)
        vals = t.column(value_col).to_numpy(zero_copy_only=False)
        prev = np.empty_like(vals)
        if len(vals):
            prev[0] = 0
            prev[1:] = vals[:-1]
        out = np.where(change, vals, vals - prev).astype(vals.dtype)
        if resets == "otel":
            reset = (~change) & (vals < prev)
            out = np.where(reset, vals, out).astype(vals.dtype)
            if reset_col is not None:
                t = t.append_column(
                    reset_col, pa.array(reset.astype(np.int64)))
        elif reset_col is not None:
            raise ValueError(
                "cumulative_to_delta: reset_col needs resets='otel'")
        return t.append_column(out_col, pa.array(out))

    return bucketed_map_groups(ds, key, diff, n_buckets=n_buckets)


def delta_to_rate(ds: ray.data.Dataset, key: str, order_col: str,
                  value_col: str, ts_col: str, *,
                  scale: int = 1_000_000, out_col: str = "rate_scaled",
                  n_buckets: int | str = N_BUCKETS) -> ray.data.Dataset:
    """Delta→rate conversion (the deltatorate processor analog): each
    delta point becomes ``value · scale // Δt`` where Δt is the time
    since the key's previous point (``ts_col``, integer µs) — with the
    default ``scale=1_000_000`` the output is value-per-second, scaled
    to stay an EXACT integer (SQL mirror: the same truncating ``//``;
    value must be non-negative for floor==trunc to hold, validated
    loudly). A key's first point has no interval and is emitted with a
    NULL rate (the reference processor drops the first point of a
    series for the same reason).

    Same bucket idiom as the temporality conversions above; ``Δt <= 0``
    (duplicate or non-monotone timestamps within a key's order) raises
    loudly rather than emitting an infinite/negative-interval rate."""

    def rate(t: pa.Table) -> pa.Table:
        t, change, _ = _sorted_with_segments(t, key, order_col)
        ts = t.column(ts_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        if not np.issubdtype(ts.dtype, np.integer):
            raise TypeError(
                f"delta_to_rate: {ts_col!r} must be integer µs")
        if not np.issubdtype(v.dtype, np.integer):
            raise TypeError(
                f"delta_to_rate: {value_col!r} must be integer")
        if len(v) and int(v.min()) < 0:
            raise ValueError(
                "delta_to_rate: negative deltas — floor division would "
                "diverge from SQL truncation; split signs upstream")
        if len(v) and int(v.max()) > (2 ** 62) // max(int(scale), 1):
            raise ValueError(
                f"delta_to_rate: value {int(v.max()):,} × scale={scale} "
                "would overflow int64 — shrink scale or pre-divide")
        n = len(ts)
        if n == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        ts = ts.astype(np.int64)
        dt = np.empty(n, np.int64)
        dt[0] = 0
        dt[1:] = ts[1:] - ts[:-1]
        inner = ~change  # rows with a same-key predecessor
        if inner.any() and (dt[inner] <= 0).any():
            raise ValueError(
                f"delta_to_rate: non-increasing {ts_col!r} within a key "
                "— deduplicate or fix the order column")
        dt[change] = 0  # first point of each key: no interval
        out = np.zeros(n, np.int64)
        out[inner] = (v[inner].astype(np.int64) * int(scale)) // dt[inner]
        arr = pa.array(out, pa.int64())
        if (~inner).any():
            arr = pc.if_else(pa.array(inner), arr,
                             pa.scalar(None, pa.int64()))
        return t.append_column(out_col, arr)

    return bucketed_map_groups(ds, key, rate, n_buckets=n_buckets)


def late_arrivals(ds: ray.data.Dataset, key: str, arrival_cols: list[str],
                  ts_col: str, *, allowed_lateness: int = 0,
                  n_buckets: int | str = N_BUCKETS) -> ray.data.Dataset:
    """Watermark audit — the batch analog of streaming late-data
    accounting: within each ``key`` stream ordered by ``arrival_cols``
    (processing/arrival order, which must be a TOTAL order per key —
    pass a tiebreaker), the watermark at a row is the maximum event
    time ``ts_col`` over all STRICTLY PRECEDING arrivals; the row is
    late when ``ts + allowed_lateness < watermark``. Emits one row per
    key: ``n_events``, ``n_late``, and ``max_late_us`` (the largest
    ``watermark − ts`` over late rows; 0 when none — the number a
    pipeline operator reads to size its allowed-lateness window).

    ``ts_col`` and every arrival column must be integers (µs
    convention; cast ``timestamp[us]`` with ``.cast(int64)`` — the
    cast keeps the NATIVE unit, normalize ns first). Integer
    discipline keeps the gate hash-exact vs the SQL window mirror
    ``MAX(ts) OVER (PARTITION BY key ORDER BY arrival
    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)``.

    Scale shape: ONE hash-bucket exchange by ``key`` (complete streams
    per bucket), then per bucket a single sort + lifted
    ``np.maximum.accumulate`` gives every stream's running max at once
    (no per-key Python); per-key rollups are ``reduceat`` at segment
    starts. The lifted composite is magnitude-guarded loudly."""
    if allowed_lateness < 0:
        raise ValueError("late_arrivals: allowed_lateness must be >= 0")
    order = [(key, "ascending")] + [(c, "ascending") for c in arrival_cols]

    def audit(t: pa.Table) -> pa.Table:
        for c in [key, ts_col, *arrival_cols]:
            if t.column(c).null_count:
                raise ValueError(
                    f"late_arrivals: column {c!r} has nulls — SQL window "
                    "ordering over nulls would silently diverge")
        t = t.sort_by(order)
        ts = t.column(ts_col).to_numpy(zero_copy_only=False)
        if ts.dtype.kind not in "iu":
            raise ValueError(
                f"late_arrivals: {ts_col!r} must be an integer column "
                "(µs); cast timestamps explicitly")
        n = len(ts)
        keys_np = t.column(key).to_numpy(zero_copy_only=False)
        change, seg_start = key_segments(keys_np)
        if n == 0:
            return pa.table({key: t.column(key),
                             "n_events": pa.array([], pa.int64()),
                             "n_late": pa.array([], pa.int64()),
                             "max_late_us": pa.array([], pa.int64())})
        ts = ts.astype(np.int64)
        seg_id = np.cumsum(change) - 1
        lo = int(ts.min())
        stride = (int(ts.max()) - lo) + 2
        n_seg = int(seg_id[-1]) + 1
        if stride > (2 ** 62) // max(n_seg, 1):
            raise ValueError(
                "late_arrivals: lifted composite would overflow "
                f"(ts range {stride - 2:,} x {n_seg:,} key segments in "
                "one task); raise n_buckets or narrow the ts range")
        acc = np.maximum.accumulate((ts - lo) + seg_id * stride)
        wm = np.empty(n, np.int64)
        wm[1:] = acc[:-1] - seg_id[1:] * stride + lo
        wm[0] = ts[0]  # no predecessor; row 0 is masked by ~change below
        # first row of each segment has no preceding arrival
        lateness = wm - ts
        late = (~change) & (lateness > allowed_lateness)
        starts = np.flatnonzero(change)
        n_events = np.diff(np.append(starts, n)).astype(np.int64)
        n_late = np.add.reduceat(late.astype(np.int64), starts)
        late_amt = np.where(late, lateness, 0)
        max_late = np.maximum.reduceat(late_amt, starts)
        return pa.table({key: t.column(key).take(pa.array(starts)),
                         "n_events": pa.array(n_events),
                         "n_late": pa.array(n_late),
                         "max_late_us": pa.array(max_late)})

    return bucketed_map_groups(ds, key, audit, n_buckets=n_buckets)


def decayed_count(ds: ray.data.Dataset, keys: list[str], ts_col: str,
                  anchor_us: int, *, half_life_days: int = 3,
                  max_halvings: int = 30) -> ray.data.Dataset:
    """Exponentially time-decayed counter per key — the streaming
    "recent items weigh more" primitive (frequency-with-decay of every
    trending/alerting backend), kept EXACT as integers: each row
    contributes weight ``2^(max_halvings − h)`` where ``h`` is its age
    in half-lives below ``anchor_us`` (clamped to [0, max_halvings] —
    rows older than ``max_halvings`` half-lives keep weight 1, future
    rows weigh the maximum). ``decayed = Σ weights`` halves per
    half-life exactly; readers compare keys by the integer. Pure
    integer floor arithmetic end to end (identical ``//`` in the SQL
    mirror). The combine is guarded by ``n · 2^max_halvings ≤ 2^62``
    — raise loudly rather than wrap (lower ``max_halvings`` for
    larger corpora; resolution degrades gracefully)."""
    if half_life_days < 1 or not (0 < max_halvings < 62):
        raise ValueError("decayed_count: half_life_days >= 1 and "
                         "0 < max_halvings < 62")
    hl_us = half_life_days * 86_400_000_000

    def lanes(t: pa.Table) -> pa.Table:
        col = t.column(ts_col)
        if col.null_count:
            raise ValueError(
                f"decayed_count: {ts_col!r} has nulls — a null "
                "timestamp has no age; fill or filter upstream")
        us = pc.cast(pc.cast(col, pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        h = np.clip((anchor_us - us) // hl_us, 0, max_halvings)
        w = np.int64(1) << (max_halvings - h.astype(np.int64))
        cols = {k: t.column(k) for k in keys}
        cols["_w"] = pa.array(w)
        cols["_one"] = pa.array(np.ones(len(us), np.int64))
        return pa.table(cols)

    from .aggregate import grouped_agg

    pre = ds.select_columns(keys + [ts_col]).map_batches(
        lanes, batch_format="pyarrow", batch_size=65536)
    agg = grouped_agg(pre, keys, sum_cols={"n": "_one",
                                           "decayed": "_w"})

    def check(t: pa.Table) -> pa.Table:
        for n_k in t.column("n").to_pylist():
            if n_k * 2**max_halvings > 2**62:
                raise ValueError(
                    f"decayed_count: n·2^max_halvings = "
                    f"{n_k}·2^{max_halvings} > 2^62 — lower "
                    "max_halvings")
        return t

    return agg.map_batches(check, batch_format="pyarrow")
