"""Metrics-signal operators completing the pmetric type coverage
(``/root/reference/pdata/pmetric/metric_type.go:11-17``: Gauge, Sum,
Histogram, ExponentialHistogram, Summary).

- Sum       → grouped_count/grouped_agg (stages/aggregate.py)
- Histogram → explicit-bounds bucketize + grouped_count (orders_histogram)
- **ExponentialHistogram** (here): base-2 exponential bucket mapping per
  ``pmetric/exponential_histogram_data_point.go`` — the OTEL mapping with
  lower-EXCLUSIVE / upper-inclusive boundaries: at scale 0,
  index = ceil(log2(v)) - 1, so bucket i covers (2^i, 2^(i+1)] and exact
  powers of two land in the LOWER bucket (v=8 → index 2). The OTel zero
  bucket holds v == 0; ``signed=True`` adds the separate negative bucket
  list. At scale ≤ 0 over integer inputs the index is computed EXACTLY
  (frexp exponent arithmetic, no float log), so it is oracle-checkable;
  scale > 0 uses float log2 (documented approximate at bucket
  boundaries).
- **Gauge** (here): last-value-wins aggregation — value at the max
  (order_cols) per key, the gauge "most recent sample" semantics.
- Summary   → quantiles: exact bounded-domain path
  (stages/spanops.grouped_exact_quantiles) or mergeable KLL sketch
  (stages/sketch.py) for unbounded domains.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .aggregate import grouped_count
from .treereduce import combine_all


def exp_bucket_index(vals: np.ndarray, scale: int = 0) -> np.ndarray:
    """Exponential-histogram bucket index of positive values — the OTel
    mapping (lower-exclusive boundaries, base 2^(2^-scale)).

    At scale 0: index = ceil(log2(v)) - 1, i.e. bucket i is (2^i, 2^(i+1)]
    and an exact power of two maps to the lower bucket — matching the
    reference's ExponentialHistogramDataPoint model. scale ≤ 0 is exact:
    v = m·2^e with m ∈ [0.5, 1) gives floor(log2 v) = e-1, and an exact
    power (m == 0.5) subtracts one more; negative scales arithmetic-shift
    the base index (the OTel downscale rule). scale > 0 uses float log2
    (ceil(x·2^scale) - 1; approximate at bucket boundaries).
    """
    v = vals.astype(np.float64)
    if scale <= 0:
        m, e = np.frexp(v)
        base = e.astype(np.int64) - 1 - (m == 0.5)
        return base >> (-scale) if scale else base
    return (np.ceil(np.log2(v) * (1 << scale)) - 1).astype(np.int64)


def exp_histogram(ds: ray.data.Dataset, keys: list[str], value_col: str,
                  scale: int = 0, signed: bool = False) -> ray.data.Dataset:
    """Per-key exponential histogram → rows (keys..., idx, n) where idx is
    the bucket index (null = the OTel zero bucket).

    ``signed=True`` adds the reference's separate NEGATIVE bucket list
    (``exponential_histogram_data_point.go`` keeps positive/negative
    lists + a zero count): output gains a ``sign`` column (1 / -1 / 0),
    negative values bucket by |v| under sign=-1."""

    def bucketize(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        if not signed and len(v) and v.min() < 0:
            raise ValueError(
                "exp_histogram: negative values present — pass signed=True "
                "(silently folding them into the zero bucket would corrupt "
                "the histogram)")
        mag = np.abs(v) if signed else v
        nonzero = mag > 0 if signed else v > 0
        safe = np.where(nonzero, mag, 1.0)  # placeholder for masked slots
        idx = np.where(nonzero, exp_bucket_index(safe, scale), 0)
        arr = pa.array(idx.astype(np.int64), pa.int64(),
                       mask=~nonzero)  # null == zero bucket
        cols = {k: t.column(k) for k in keys}
        if signed:
            cols["sign"] = pa.array(np.sign(v).astype(np.int32))
        cols["idx"] = arr
        return pa.table(cols)

    pre = ds.select_columns(keys + [value_col]).map_batches(
        bucketize, batch_format="pyarrow")
    group_keys = keys + (["sign"] if signed else []) + ["idx"]
    return grouped_count(pre, group_keys, count_name="n")


def gauge_last(ds: ray.data.Dataset, key: str, order_cols: list[str],
               value_col: str, out_col: str = "last_value",
               n_buckets: int | str = 64) -> ray.data.Dataset:
    """Last-value-wins per key: the value at the maximum (order_cols)
    tuple — pmetric Gauge "latest sample" semantics. Hash-bucket
    map_groups: one Arrow sort + segment-tail take per BUCKET (no pandas,
    no per-key Python)."""
    from .bucketing import bucketed_map_groups, key_segments

    def last_per_key(t: pa.Table) -> pa.Table:
        t = t.sort_by([(key, "ascending")]
                      + [(c, "ascending") for c in order_cols])
        keys = t.column(key).to_numpy(zero_copy_only=False)
        change, _ = key_segments(keys)
        # segment tails = (next segment start) - 1, plus the final row
        ends = np.append(np.flatnonzero(change)[1:] - 1, len(keys) - 1) \
            if len(keys) else np.empty(0, np.int64)
        tail = t.take(pa.array(ends.astype(np.int64)))
        return pa.table({key: tail.column(key),
                         out_col: tail.column(value_col)})

    return bucketed_map_groups(
        ds.select_columns([key, value_col] + order_cols), key, last_per_key,
        n_buckets=n_buckets)


def grouped_trend(ds, key: str, x_col: str, y_col: str,
                  scale: int = 1_000_000,
                  max_groups: int = 1_000_000):
    """EXACT per-key OLS trend — "is this metric drifting?" as a
    first-class aggregate: slope = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²),
    emitted as the scaled TRUNCATING integer quotient ``slope_scaled =
    trunc(scale · num / den)`` so the HUGEINT SQL oracle matches bit
    for bit (DuckDB ``//`` truncates toward zero — mirrored here;
    constant-x keys emit null), plus the exact rational fit quality
    ``r2_scaled = trunc(scale · num² / (den_x · den_y))`` (null when
    either variance is zero — num² ≥ 0 and den_x·den_y > 0 otherwise,
    so plain truncating division needs no sign handling). One mergeable-partials pass (n, Σx,
    Σy, Σxy, Σx², per-batch partials — skew-neutral), then exact Python
    ints over the per-key table (``max_groups``-guarded); int64 partial
    overflow is guarded from the non-wrapping min/max/count lanes the
    same way ``sigma_outliers`` does.

    ``x_col``/``y_col`` must be integers; rebase wide x domains (e.g.
    epoch-µs → day index) so n·max|x|·max|y| stays inside int64."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from .aggregate import grouped_agg

    def prep(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False)
        if not (np.issubdtype(x.dtype, np.integer)
                and np.issubdtype(y.dtype, np.integer)):
            raise TypeError(
                f"grouped_trend: {x_col!r}/{y_col!r} must be integer "
                f"columns, got {x.dtype}/{y.dtype}")
        x = x.astype(np.int64)
        y = y.astype(np.int64)
        if len(x):
            mx = int(np.abs(x).max())
            my = int(np.abs(y).max())
            if mx * my >= 2 ** 62 or mx * mx >= 2 ** 62:
                raise ValueError(
                    "grouped_trend: |x|*|y| or x^2 would overflow the "
                    "int64 product partials; rebase/pre-scale x")
        if len(y) and int(np.abs(y).max()) ** 2 >= 2 ** 62:
            raise ValueError(
                "grouped_trend: y^2 would overflow the int64 product "
                "partials; pre-scale y")
        return pa.table({key: t.column(key),
                         "_x": pa.array(x), "_y": pa.array(y),
                         "_xy": pa.array(x * y),
                         "_xx": pa.array(x * x),
                         "_yy": pa.array(y * y)})

    pre = ds.select_columns([key, x_col, y_col]).map_batches(
        prep, batch_format="pyarrow")
    gt = grouped_agg(pre, [key], count_name="_n",
                     sum_cols={"_sx": "_x", "_sy": "_y",
                               "_sxy": "_xy", "_sxx": "_xx",
                               "_syy": "_yy"},
                     min_cols={"_mnx": "_x", "_mny": "_y"},
                     max_cols={"_mxx": "_x", "_mxy": "_y"}).materialize()
    n_groups = gt.count()
    if n_groups > int(max_groups):
        raise ValueError(
            f"grouped_trend: {key!r} has {n_groups:,} groups "
            f"(> max_groups={int(max_groups):,})")
    pdf = gt.to_pandas()
    keys_out, ns, slopes, r2s = [], [], [], []
    for r in pdf.to_dict("records"):  # itertuples mangles _-names
        n = int(r["_n"])
        mabs_x = max(abs(int(r["_mnx"])), abs(int(r["_mxx"])))
        mabs_y = max(abs(int(r["_mny"])), abs(int(r["_mxy"])))
        # the distributed int64 sums wrap silently past 2^63; the
        # non-wrapping count/min/max lanes bound them exactly
        if n * mabs_x * mabs_y >= 2 ** 63 or n * mabs_x * mabs_x >= 2 ** 63 \
                or n * mabs_y * mabs_y >= 2 ** 63:
            raise ValueError(
                "grouped_trend: n*max|x|*max|y| could overflow the "
                "int64 sum partials; rebase x or bucket the key")
        sx, sy = int(r["_sx"]), int(r["_sy"])
        sxy, sxx = int(r["_sxy"]), int(r["_sxx"])
        syy = int(r["_syy"])
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        den_y = n * syy - sy * sy
        keys_out.append(r[key])
        ns.append(n)
        if den == 0:
            slopes.append(None)
        else:
            q = abs(int(scale) * num) // abs(den)
            slopes.append(-q if (num < 0) != (den < 0) else q)
        # r^2 = num^2 / (den_x * den_y) — exact rational, truncating;
        # null when either variance is zero
        if den == 0 or den_y == 0:
            r2s.append(None)
        else:
            r2s.append((int(scale) * num * num) // (den * den_y))
    # the key's type comes from the materialized aggregate; a fully
    # empty one reports none, so only then probe the (empty) INPUT
    in_sch = gt.schema(fetch_if_missing=False)
    if in_sch is None or key not in in_sch.names:
        in_sch = ds.schema()
    key_type = (dict(zip(in_sch.names, in_sch.types)).get(key)
                if in_sch and in_sch.names else None) or pa.string()
    return ray.data.from_arrow(pa.table({
        key: pa.array(keys_out, key_type),
        "n": pa.array(ns, pa.int64()),
        "slope_scaled": pa.array(slopes, pa.int64()),
        "r2_scaled": pa.array(r2s, pa.int64())}))


def cusum_scores(ds, key: str, order_by: list[str], value_col: str, *,
                 target: int, drift: int = 0,
                 n_buckets="auto"):
    """Per-key one-sided CUSUM change detection — "when did this metric
    shift upward?" exactly: the classic recursion ``S_i = max(0,
    S_{i-1} + (x_i − target − drift))`` has the closed form ``S_i =
    P_i − min(0, min_{j≤i} P_j)`` over the deviation prefix sums P, so
    the whole per-key scan vectorizes as one cumsum + one
    segment-lifted running min (the stages/window.py lift idiom) per
    bucket — and the SQL oracle is two window functions + GREATEST.
    All integer; ``target``/``drift`` are constants (pre-subtract a
    per-key baseline upstream for per-key targets).

    Appends ``cusum`` (int64). Keys may be unbounded (bucket idiom);
    rows come back in bucket-sort order like every window op here."""
    import numpy as np
    import pyarrow as pa

    from .bucketing import bucketed_map_groups, key_segments

    shift = int(target) + int(drift)
    sort_spec = [(key, "ascending")] + [(c, "ascending")
                                        for c in order_by]

    def bucket_fn(t: pa.Table) -> pa.Table:
        t = t.sort_by(sort_spec)
        x = t.column(value_col).to_numpy(zero_copy_only=False)
        if not np.issubdtype(x.dtype, np.integer):
            raise TypeError(
                f"cusum_scores: {value_col!r} must be an integer "
                f"column, got {x.dtype}")
        n = len(x)
        if not n:
            return t.append_column("cusum", pa.array([], pa.int64()))
        d = x.astype(np.int64) - shift
        keys = t.column(key).to_numpy(zero_copy_only=False)
        change, seg_start = key_segments(keys)
        c = np.cumsum(d)
        # per-segment prefix: rebase to the segment's own start
        p = c - (c[seg_start] - d[seg_start])
        lo, hi = int(p.min()), int(p.max())
        seg_id = np.cumsum(change) - 1
        n_seg = int(seg_id[-1]) + 1
        stride = (hi - lo) + 2
        if stride > (2 ** 62) // max(n_seg, 1):
            raise ValueError(
                "cusum_scores: lifted composite would overflow; raise "
                "n_buckets or narrow the value range")
        # NB the lift goes DOWNWARD for a running MIN: each later
        # segment must sit BELOW every earlier segment's minimum so the
        # global minimum.accumulate cannot leak across the boundary
        # (the cummax idiom lifts upward — inverted here)
        runmin = (np.minimum.accumulate((p - lo) - seg_id * stride)
                  + seg_id * stride + lo)
        s = p - np.minimum(runmin, 0)
        return t.append_column("cusum", pa.array(s.astype(np.int64)))

    return bucketed_map_groups(ds, key, bucket_fn, n_buckets=n_buckets)


def hysteresis_alerts(ds, key: str, order_by: list[str], value_col: str,
                      *, high: int, low: int,
                      n_buckets="auto"):
    """Per-key threshold alerting WITH HYSTERESIS — the alertmanager
    firing/cleared state machine, batch-exact: within each key's stream
    a value above ``high`` fires the alert, below ``low`` clears it,
    and anything in the dead band carries the previous state forward
    (that carry is what stops a series hovering at one threshold from
    flapping). The recurrence is exactly LOCF over the definitive
    signals (1 above high, 0 below low, null in the band; initial
    state cleared), so the whole per-key scan is one segment-lifted
    ``maximum.accumulate`` — and the SQL mirror is
    ``last_value(sig IGNORE NULLS) OVER (... ROWS UNBOUNDED
    PRECEDING)`` + ``lag`` for the edges.

    Emits one row per key: ``n_rows``, ``n_firing`` (rows in the
    firing state) and ``n_alerts`` (rising edges — distinct alert
    episodes). All integer. Keys unbounded (bucket idiom)."""
    import numpy as np
    import pyarrow as pa

    from .bucketing import bucketed_map_groups, key_segments

    if int(low) > int(high):
        raise ValueError(
            f"hysteresis_alerts: low={low} must be <= high={high}")
    sort_spec = [(key, "ascending")] + [(c, "ascending")
                                        for c in order_by]

    def bucket_fn(t: pa.Table) -> pa.Table:
        for c in [key, value_col, *order_by]:
            if t.column(c).null_count:
                raise ValueError(
                    f"hysteresis_alerts: column {c!r} has nulls — SQL "
                    "window ordering over nulls would silently diverge")
        t = t.sort_by(sort_spec)
        x = t.column(value_col).to_numpy(zero_copy_only=False)
        if not np.issubdtype(x.dtype, np.integer):
            raise TypeError(
                f"hysteresis_alerts: {value_col!r} must be an integer "
                f"column, got {x.dtype} (scale to cents first)")
        n = len(x)
        keys = t.column(key).to_numpy(zero_copy_only=False)
        change, seg_start = key_segments(keys)
        if n == 0:
            empty = pa.array([], pa.int64())
            return pa.table({key: t.column(key), "n_rows": empty,
                             "n_firing": empty, "n_alerts": empty})
        sig = np.where(x > int(high), 1,
                       np.where(x < int(low), 0, -1)).astype(np.int64)
        valid = sig >= 0
        pos = np.arange(n, dtype=np.int64)
        seg_id = np.cumsum(change) - 1
        # LOCF via lifted cummax over last-definitive positions;
        # rows before a segment's first definitive signal stay cleared
        comp = seg_id * (n + 1) + np.where(valid, pos + 1, 0)
        acc = np.maximum.accumulate(comp)
        last_pos = acc - seg_id * (n + 1) - 1
        alert = np.where(last_pos < 0, 0,
                         sig[np.clip(last_pos, 0, None)])
        prev = np.empty(n, np.int64)
        prev[0] = 0
        prev[1:] = alert[:-1]
        prev[change] = 0  # a new key starts cleared
        rising = (alert == 1) & (prev == 0)
        starts = np.flatnonzero(change)
        return pa.table({
            key: t.column(key).take(pa.array(starts)),
            "n_rows": pa.array(np.diff(np.append(starts, n))
                               .astype(np.int64)),
            "n_firing": pa.array(np.add.reduceat(alert, starts)),
            "n_alerts": pa.array(np.add.reduceat(
                rising.astype(np.int64), starts))})

    return bucketed_map_groups(ds, key, bucket_fn, n_buckets=n_buckets)


def exphist_downscale(hist: ray.data.Dataset, keys: list[str], shift: int,
                      idx_col: str = "idx", count_col: str = "n"
                      ) -> ray.data.Dataset:
    """OTel exponential-histogram downscale (the scale-reduction merge
    of ``pmetric/exponential_histogram_data_point.go`` — applied when a
    series' range outgrows its bucket budget): at scale ``s``, bucket
    ``i`` covers ``(base^i, base^(i+1)]`` with ``base = 2^(2^-s)``, and
    moving to ``s - shift`` maps ``i → floor(i / 2^shift)`` — an
    arithmetic right shift, exact for negative indexes too. The OTel
    *perfect subsetting* invariant holds by construction:
    ``downscale(hist(s), k) == hist(s - k)`` bucket-for-bucket (asserted
    directly in tests and by the SQL oracle, which recomputes the
    coarse histogram from raw values).

    Input is an ``exp_histogram`` output — (keys..., [sign,] idx, n)
    with the zero bucket as a NULL idx, which passes through untouched
    (zero is scale-invariant). Counts re-aggregate with the same
    two-phase grouped count as the original histogram; a sign
    column, when present, is just another group key."""
    k = int(shift)
    if k < 0:
        raise ValueError("exphist_downscale: shift must be >= 0")
    group_keys = list(keys) + [idx_col]

    def remap(t: pa.Table) -> pa.Table:
        col = t.column(idx_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        idx = col.to_numpy(zero_copy_only=False)
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        coarse = np.where(valid, idx, 0).astype(np.int64) >> k
        cols = {c: t.column(c) for c in t.column_names}
        cols[idx_col] = pa.array(coarse, pa.int64(), mask=~valid)
        return pa.table(cols)

    from .aggregate import grouped_agg

    pre = hist.map_batches(remap, batch_format="pyarrow")
    return grouped_agg(pre, group_keys, sum_cols={count_col: count_col})


def slo_burn(ds: ray.data.Dataset, key: str, ts_col: str, err_col: str,
             short_us: int, long_us: int, err_permille: int,
             id_cols: list[str] | None = None,
             n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Multi-window SLO burn-rate alert (the Google SRE workbook
    multiwindow policy — the alerting rule every collector's metrics
    feed ultimately drives): per ``key`` series, the trailing error
    count and event total over a SHORT and a LONG value-range window
    ending at each row, and a ``burning`` lane set when the error rate
    exceeds the budget threshold in BOTH windows — the short window
    gives fast detection, the long window suppresses blips. All lanes
    are exact integers; the rate compare is ``err·1000 >
    permille·total`` (never a float division).

    ONE bucket exchange: all four rolling lanes ride the same
    ``per_key_window`` searchsorted pass (the RANGE frames share the
    segment-lifted composite, so the second window adds one binary
    search, not a second exchange)."""
    p = int(err_permille)
    if not (0 <= p <= 1000):
        raise ValueError("slo_burn: err_permille must be in [0, 1000]")
    s_us, l_us = int(short_us), int(long_us)
    if not (0 < s_us <= l_us):
        raise ValueError("slo_burn: need 0 < short_us <= long_us")
    from .window import per_key_window

    win = per_key_window(
        ds, key, [ts_col],
        {"n_err_short": ("rolling_sum", err_col, s_us),
         "n_short": ("rolling_count", s_us),
         "n_err_long": ("rolling_sum", err_col, l_us),
         "n_long": ("rolling_count", l_us)},
        n_buckets=n_buckets)
    keep = [key] + (list(id_cols) if id_cols else []) + [
        ts_col, "n_err_short", "n_short", "n_err_long", "n_long"]

    def lanes(t: pa.Table) -> pa.Table:
        es = t.column("n_err_short").to_numpy(zero_copy_only=False)
        ns = t.column("n_short").to_numpy(zero_copy_only=False)
        el = t.column("n_err_long").to_numpy(zero_copy_only=False)
        nl = t.column("n_long").to_numpy(zero_copy_only=False)
        burn = ((es * 1000 > p * ns) & (el * 1000 > p * nl))
        out = {c: t.column(c) for c in keep}
        out["burning"] = pa.array(burn.astype(np.int64))
        return pa.table(out)

    return win.map_batches(lanes, batch_format="pyarrow")


def exphist_quantile(hist: ray.data.Dataset, key: str, q_permille: int,
                     idx_col: str = "idx", count_col: str = "n",
                     n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Quantile estimate FROM an exponential histogram — the read side
    of the OTel exp-histogram pair (a DDSketch-style relative-error
    quantile: the answer is the BUCKET holding the target rank, exact
    as an integer decision). Per ``key``: order the zero bucket (NULL
    idx — value 0, below every positive bucket) first, then idx
    ascending; the discrete-quantile rank rule ``target =
    (N−1)·q//1000`` (DuckDB ``quantile_disc``) picks the bucket whose
    cumulative count first exceeds target. Output per key: ``n_total``
    and the nullable ``q_idx`` (NULL = the quantile is zero).

    Scale shape: the histogram table is already reduced (keys ×
    ~O(160) buckets); ONE bucket exchange on ``key``, one sort +
    segment cumsum + searchsorted per bucket."""
    q = int(q_permille)
    if not (0 <= q <= 1000):
        raise ValueError("exphist_quantile: q_permille must be in "
                         "[0, 1000]")
    _SENT = -(1 << 61)          # sorts before any real bucket index

    def fn(t: pa.Table) -> pa.Table:
        kt = t.column(key).type
        out_schema = pa.schema([(key, kt), ("n_total", pa.int64()),
                                ("q_idx", pa.int64())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        idx = t.column(idx_col)
        if pc.any(pc.less_equal(pc.fill_null(idx, 0),
                                pa.scalar(_SENT, pa.int64()))).as_py():
            raise ValueError("exphist_quantile: bucket index collides "
                             "with the null sentinel")
        t = t.append_column("_ord", pc.fill_null(
            pc.cast(idx, pa.int64()), _SENT))
        t = t.sort_by([(key, "ascending"), ("_ord", "ascending")])
        k = t.column(key).to_numpy(zero_copy_only=False)
        o = t.column("_ord").to_numpy(zero_copy_only=False)
        c = t.column(count_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if len(c) and c.min() < 0:
            raise ValueError("exphist_quantile: negative bucket count")
        new = np.append(True, k[1:] != k[:-1])
        bounds = np.flatnonzero(new)
        seg_start = bounds[np.cumsum(new) - 1]
        cum = np.cumsum(c)
        excl = cum - c
        seg_cum = cum - excl[seg_start]          # within-key cumulative
        totals = np.add.reduceat(c, bounds)
        if len(totals) and totals.min() <= 0:
            raise ValueError(
                "exphist_quantile: a key's bucket counts sum to zero — "
                "no rank to pick; drop empty histograms first")
        target = (totals - 1) * q // 1000        # quantile_disc rank
        # first row of each segment whose cumulative exceeds its key's
        # target — one vectorized min-reduceat over masked ordinals
        # (empty-count rows can't be picked: cum > target fails there
        # only if a later row satisfies it, and totals >= 1 guarantees
        # the last row of the segment always does).
        seg_of_row = np.cumsum(new) - 1
        ordinal = np.arange(len(k), dtype=np.int64)
        cand = np.where(seg_cum > target[seg_of_row], ordinal, len(k))
        pick = np.minimum.reduceat(cand, bounds)
        q_idx = o[pick]
        return pa.table({
            key: pa.array(k[bounds], type=kt),
            "n_total": pa.array(totals),
            "q_idx": pa.array(q_idx, pa.int64(),
                              mask=(q_idx == _SENT))})

    from .bucketing import bucketed_map_groups

    return bucketed_map_groups(hist, key, fn, n_buckets=n_buckets)


def explicit_histogram(ds: ray.data.Dataset, keys: list[str],
                       value_col: str, bounds: list[int]) -> ray.data.Dataset:
    """Explicit-bounds histogram — the pmetric Histogram bucket rule
    (reference ``pdata/pmetric/generated_histogram_data_point.go``:
    upper-INCLUSIVE explicit bounds): bucket ``i`` covers
    ``(bounds[i-1], bounds[i]]``, index ``len(bounds)`` is the
    overflow bucket. Bounds must be strictly increasing integers so
    the bucket decision is exact. Output (keys..., bucket, n)."""
    b = np.asarray(list(bounds), dtype=np.int64)
    if len(b) == 0 or (len(b) > 1 and not (np.diff(b) > 0).all()):
        raise ValueError(
            "explicit_histogram: bounds must be non-empty and strictly "
            "increasing")

    def bucketize(t: pa.Table) -> pa.Table:
        v = t.column(value_col)
        if v.null_count:
            raise ValueError(
                f"explicit_histogram: {value_col!r} has nulls")
        vn = v.to_numpy(zero_copy_only=False)
        if vn.dtype.kind not in "iu":
            raise ValueError(
                f"explicit_histogram: {value_col!r} must be integer "
                f"(scale floats to cents first), got {vn.dtype}")
        if vn.dtype.kind == "u" and len(vn) and \
                int(vn.max()) > (1 << 63) - 1:
            raise ValueError(
                "explicit_histogram: unsigned value exceeds int64 — "
                "the cast would wrap it below every bound")
        idx = np.searchsorted(b, vn.astype(np.int64), side="left")
        cols = {k: t.column(k) for k in keys}
        cols["bucket"] = pa.array(idx.astype(np.int64))
        return pa.table(cols)

    sch = ds.schema(fetch_if_missing=False)
    if sch is not None and all(c in sch.base_schema.names
                               for c in keys + [value_col]):
        ds = ds.select_columns(keys + [value_col])
    pre = ds.map_batches(bucketize, batch_format="pyarrow")
    return grouped_count(pre, keys + ["bucket"], count_name="n")


def hist_rebucket(hist: ray.data.Dataset, keys: list[str],
                  old_bounds: list[int], new_bounds: list[int],
                  bucket_col: str = "bucket", count_col: str = "n"
                  ) -> ray.data.Dataset:
    """Re-bucket an explicit-bounds histogram to COARSER bounds — the
    fixed-bounds sibling of :func:`exphist_downscale` (what a
    collector does when downstream wants fewer buckets): exact only
    when every new bound IS an old bound (validated loudly — merging
    across a split boundary would have to guess where counts fall).
    Old bucket ``i`` (upper edge ``old_bounds[i]``, overflow for
    ``i == len(old)``) maps to the new bucket whose interval contains
    its whole span; counts re-aggregate with the same two-phase
    grouped aggregate."""
    ob = np.asarray(list(old_bounds), dtype=np.int64)
    nb = np.asarray(list(new_bounds), dtype=np.int64)
    for name, arr in (("old_bounds", ob), ("new_bounds", nb)):
        if len(arr) == 0 or (len(arr) > 1 and not (np.diff(arr) > 0).all()):
            raise ValueError(
                f"hist_rebucket: {name} must be non-empty and strictly "
                "increasing")
    if not np.isin(nb, ob).all():
        raise ValueError(
            "hist_rebucket: every new bound must be one of the old "
            "bounds — merging across a split boundary is not exact")
    # old bucket i has upper edge ob[i]; its new index is the first new
    # bound >= that edge. The old overflow bucket maps to the new
    # overflow — always valid: the subset check above guarantees
    # nb[-1] <= ob[-1], so new bounds can never split it.
    edge_map = np.searchsorted(nb, ob, side="left")
    mapping = np.append(edge_map, len(nb))   # overflow -> overflow

    def remap(t: pa.Table) -> pa.Table:
        col = t.column(bucket_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        idx = col.to_numpy(zero_copy_only=False).astype(np.int64)
        if len(idx) and (idx.min() < 0 or idx.max() > len(ob)):
            raise ValueError(
                "hist_rebucket: bucket index outside the old histogram "
                f"(saw [{idx.min()}, {idx.max()}], expected "
                f"[0, {len(ob)}])")
        cols = {c: t.column(c) for c in t.column_names}
        cols[bucket_col] = pa.array(mapping[idx])
        return pa.table(cols)

    from .aggregate import grouped_agg

    pre = hist.map_batches(remap, batch_format="pyarrow")
    return grouped_agg(pre, list(keys) + [bucket_col],
                       sum_cols={count_col: count_col})


def _multi_key_change(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Shared sorted-key change mask (null-rejecting) — see
    :func:`..bucketing.multi_key_change`."""
    from .bucketing import multi_key_change

    return multi_key_change(t, keys)


def grouped_ohlc(ds: ray.data.Dataset, keys: list[str],
                 order_cols: list[str],
                 value_col: str) -> ray.data.Dataset:
    """Per-key OHLC candle — the classic gauge downsample every metrics
    backend materializes (the Gauge last-sample semantic of
    ``pdata/pmetric/metric_type.go:11-17`` extended to the full candle):
    ``open``/``close`` = value at the minimum / maximum ``order_cols``
    tuple, ``low``/``high`` = min/max value, ``n`` = count.

    Two-phase mergeable aggregate: per-batch partials (ONE Arrow sort +
    segment head/tail per 64k batch — each partial carries the order
    tuple of its open/close candidate, which is what makes first/last
    mergeable) → one combine task. No sort exchange; requires the
    distinct key set to fit one task (bounded roll-up keys, e.g.
    day×type).
    ``value_col`` must be integer (cents-style lanes) so min/max/count stay exact."""
    ocols = list(order_cols)
    sort_spec = [(k, "ascending") for k in keys] \
        + [(c, "ascending") for c in ocols]

    def partial(t: pa.Table) -> pa.Table:
        t = t.sort_by(sort_spec)
        mask = _multi_key_change(t, keys)
        starts = np.flatnonzero(mask)
        n_rows = t.num_rows
        # empty batch: append(starts[1:], 0) - 1 == [-1] would make
        # take() raise — short-circuit to an empty (typed) partial
        ends = (np.append(starts[1:], n_rows) - 1) if len(starts) \
            else np.empty(0, np.int64)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        if len(v) and v.dtype.kind not in "iu":
            raise ValueError(
                f"grouped_ohlc: {value_col!r} must be integer (scale "
                f"floats to cents first), got {v.dtype}")
        lo = np.minimum.reduceat(v, starts) if len(starts) else v[:0]
        hi = np.maximum.reduceat(v, starts) if len(starts) else v[:0]
        cnt = np.diff(np.append(starts, n_rows))
        heads = t.take(pa.array(starts.astype(np.int64)))
        tails = t.take(pa.array(ends.astype(np.int64)))
        out = {k: heads.column(k) for k in keys}
        for i, c in enumerate(ocols):
            out[f"_o{i}"] = heads.column(c)
            out[f"_c{i}"] = tails.column(c)
        out["open"] = heads.column(value_col)
        out["close"] = tails.column(value_col)
        out["low"] = pa.array(lo)
        out["high"] = pa.array(hi)
        out["n"] = pa.array(cnt.astype(np.int64))
        return pa.table(out)

    o_spec = [(k, "ascending") for k in keys] \
        + [(f"_o{i}", "ascending") for i in range(len(ocols))]
    c_spec = [(k, "ascending") for k in keys] \
        + [(f"_c{i}", "ascending") for i in range(len(ocols))]

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        so = t.sort_by(o_spec)
        mask = _multi_key_change(so, keys)
        starts = np.flatnonzero(mask)
        lo = np.minimum.reduceat(
            so.column("low").to_numpy(zero_copy_only=False), starts)
        hi = np.maximum.reduceat(
            so.column("high").to_numpy(zero_copy_only=False), starts)
        cnt = np.add.reduceat(
            so.column("n").to_numpy(zero_copy_only=False), starts)
        heads = so.take(pa.array(starts.astype(np.int64)))
        # same key segments in both sort orders (keys lead both specs)
        sc = t.sort_by(c_spec)
        ends = np.append(starts[1:], t.num_rows) - 1
        tails = sc.take(pa.array(ends.astype(np.int64)))
        out = {k: heads.column(k) for k in keys}
        for i in range(len(ocols)):
            out[f"_o{i}"] = heads.column(f"_o{i}")
            out[f"_c{i}"] = tails.column(f"_c{i}")
        out["open"] = heads.column("open")
        out["close"] = tails.column("close")
        out["low"] = pa.array(lo)
        out["high"] = pa.array(hi)
        out["n"] = pa.array(cnt.astype(np.int64))
        return pa.table(out)

    drop = [f"_o{i}" for i in range(len(ocols))] \
        + [f"_c{i}" for i in range(len(ocols))]
    sel = ds.select_columns(list(keys) + ocols + [value_col])
    part = sel.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
    return combine_all(part, combine).map_batches(
        lambda t: t.drop_columns(drop), batch_format="pyarrow")


def hist_quantile_linear(hist: ray.data.Dataset, keys: list[str],
                         bounds: list[int], q_permille: int, *,
                         out_col: str = "q_permille",
                         max_groups: int = 1_000_000) -> ray.data.Dataset:
    """PromQL ``histogram_quantile`` read side over explicit-bounds
    bucket counts (the companion of ``explicit_histogram``; Prometheus
    promql/quantile.go semantics): rank = q·N against the cumulative
    bucket CDF, LINEAR interpolation inside the selected bucket, the
    first bucket anchored at 0 and a rank beyond the last finite
    bound clamped to it. Exact integer arithmetic throughout: the
    output is the interpolated value ×1000 with ONE truncating
    division —

        out = 1000·lo + (hi−lo)·(q_permille·N − 1000·cumPrev) // cnt

    ``hist`` is (keys..., bucket, n) as produced by
    ``explicit_histogram`` with the SAME ``bounds``. The read side is
    a driver-free final task over the bounded key×bucket table
    (``max_groups`` raises loudly if the domain explodes)."""
    b = np.asarray(list(bounds), dtype=np.int64)
    if len(b) == 0 or (len(b) > 1 and not (np.diff(b) > 0).all()):
        raise ValueError("hist_quantile_linear: bounds must be "
                         "non-empty and strictly increasing")
    if not (0 < q_permille < 1000):
        raise ValueError("hist_quantile_linear: q_permille in (0,1000)")
    lo_of = np.concatenate(([0], b))          # bucket i lower bound
    hi_of = np.concatenate((b, [b[-1]]))      # overflow clamps to last

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows > max_groups:
            raise ValueError(
                f"hist_quantile_linear: {t.num_rows} bucket rows exceeds "
                f"max_groups={max_groups}")
        if t.num_rows == 0:
            return pa.table(
                {**{k: t.column(k) for k in keys},
                 "n_total": pa.array([], pa.int64()),
                 out_col: pa.array([], pa.int64())})
        t = t.sort_by([(k, "ascending") for k in keys]
                      + [("bucket", "ascending")])
        mask = _multi_key_change(t, keys)
        starts = np.flatnonzero(mask)
        ends = np.append(starts[1:], t.num_rows)
        cnt = t.column("n").to_numpy(zero_copy_only=False)
        bk = t.column("bucket").to_numpy(zero_copy_only=False)
        heads = t.take(pa.array(starts.astype(np.int64)))
        outs = np.empty(len(starts), np.int64)
        tots = np.empty(len(starts), np.int64)
        for gi, (s, e) in enumerate(zip(starts, ends)):
            c = cnt[s:e]
            cum = np.cumsum(c)
            tot = int(cum[-1])
            tots[gi] = tot
            # the search compares cum*1000 (q_permille < 1000 bounds the
            # rank side), so 1000*N is the product that must fit int64
            if 1000 * tot > 2**62:
                key = {k: t.column(k)[s].as_py() for k in keys}
                raise ValueError(
                    f"hist_quantile_linear: 1000*N overflows int64 "
                    f"(N={tot} at key {key})")
            rank1000 = q_permille * tot      # rank ×1000
            pos = int(np.searchsorted(cum * 1000, rank1000, side="left"))
            bidx = int(bk[s + pos])
            if bidx >= len(b):
                outs[gi] = 1000 * int(b[-1])
                continue
            lo, hi = int(lo_of[bidx]), int(hi_of[bidx])
            cum_prev = int(cum[pos - 1]) if pos else 0
            num = (hi - lo) * (rank1000 - 1000 * cum_prev)
            if abs(hi - lo) and abs(num) > 2**62:
                raise ValueError(
                    "hist_quantile_linear: interpolation numerator "
                    "overflows int64 — rescale the bounds")
            outs[gi] = 1000 * lo + num // int(c[pos])
        return pa.table(
            {**{k: heads.column(k) for k in keys},
             "n_total": pa.array(tots),
             out_col: pa.array(outs)})

    return hist.repartition(1).map_batches(fin, batch_format="pyarrow",
                                           batch_size=None)
