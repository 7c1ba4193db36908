"""Feature scaling for training-data pipelines — two-pass min-max
normalization (global or per-key).

The canonical broadcast-statistics shape: pass 1 reduces the corpus to
one (min, max) row per key (mergeable partials — hot keys are
batch-salted by ``grouped_agg``'s per-batch partials); the key→(min, max)
table is guarded by ``max_groups`` (count BEFORE driver pull, loud
failure like ``exact_global_quantile``) and broadcast via ``ray.put``;
pass 2 rescales every batch with ONE ``pc.index_in`` probe + numpy
gathers. ``make_ds`` is a factory because the input executes twice —
``persist=`` forwards to the shared two-pass machinery.

On an INTEGER column the output is exact integer arithmetic
(``(x − min) · scale // (max − min)``) so a DuckDB window oracle
(``min(x) OVER (PARTITION BY key)``) hash-matches; float columns work
but carry the usual cross-engine rounding caveat (rows-only gate).

Reference analog: no scaling processor exists in the reference
(metricstransform rescales by a CONSTANT factor); this is the
broadcast-statistics engine addition a feature pipeline needs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .aggregate import grouped_agg
from .bucketing import persisted_factory
from .treereduce import collect

__all__ = ["minmax_scale", "sigma_outliers", "mad_outliers",
           "robust_scale", "ks_two_sample", "grouped_ks"]


def minmax_scale(make_ds, col: str, key: str | None = None,
                 scale: int = 1_000_000, out_col: str | None = None,
                 max_groups: int = 1_000_000,
                 persist: str = "none") -> ray.data.Dataset:
    """Scale ``col`` into [0, scale] per ``key`` group (or globally when
    ``key`` is None); appends ``out_col`` (default ``{col}_scaled``).
    Constant groups (min == max) scale to 0."""
    out_col = out_col or f"{col}_scaled"
    make_ds = persisted_factory(make_ds, persist)

    if key is None:
        from ray.data.aggregate import Max, Min

        row = make_ds().aggregate(Min(col, alias_name="_min"),
                                  Max(col, alias_name="_max"))
        keys_ref = None
        mins = np.asarray([row["_min"]])
        maxs = np.asarray([row["_max"]])
        stats_ref = ray.put((mins, maxs))
    else:
        stats = grouped_agg(make_ds().select_columns([key, col]), [key],
                            min_cols={"_min": col},
                            max_cols={"_max": col}).materialize()
        n_groups = stats.count()
        if n_groups > int(max_groups):
            raise ValueError(
                f"minmax_scale: {key!r} has {n_groups:,} groups "
                f"(> max_groups={int(max_groups):,}); the broadcast "
                "stats table would not fit a worker. Raise max_groups "
                "or pre-bucket the key.")
        pdf = stats.to_pandas()
        keys_ref = ray.put(pa.array(pdf[key]))
        mins = pdf["_min"].to_numpy()
        maxs = pdf["_max"].to_numpy()
        stats_ref = ray.put((mins, maxs))

    # int-path overflow guard (same convention as sigma_outliers): the
    # pass-2 numerator (x - mn) * scale wraps silently past 2^63; mn <= x
    # <= mx per group, so span * scale is an exact upper bound computable
    # from the non-wrapping broadcast min/max stats.
    if len(mins) and np.issubdtype(np.asarray(mins).dtype, np.integer):
        max_span = int(np.max(np.asarray(maxs, np.int64)
                              - np.asarray(mins, np.int64)))
        if max_span * int(scale) > np.iinfo(np.int64).max:
            raise OverflowError(
                f"minmax_scale: span {max_span:,} x scale {scale:,} "
                "would overflow the int64 (x - min) * scale numerator; "
                "pre-scale the column or lower scale=")

    def apply(t: pa.Table) -> pa.Table:
        mins, maxs = ray.get(stats_ref)
        x = t.column(col).to_numpy(zero_copy_only=False)
        if key is None:
            idx = np.zeros(len(x), np.intp)
        else:
            keys_arr = ray.get(keys_ref)
            idx_pa = pc.index_in(t.column(key), keys_arr)
            if idx_pa.null_count:
                raise ValueError(
                    "minmax_scale: pass 2 saw keys absent from pass 1 "
                    "stats — the input factory is not deterministic "
                    "across passes (use persist=)")
            idx = idx_pa.to_numpy(zero_copy_only=False).astype(np.intp)
        mn, mx = mins[idx], maxs[idx]
        span = mx - mn
        if np.issubdtype(x.dtype, np.integer):
            scaled = np.where(
                span > 0,
                (x.astype(np.int64) - mn) * np.int64(scale)
                // np.maximum(span, 1),
                0).astype(np.int64)
            arr = pa.array(scaled, pa.int64())
        else:
            scaled = np.where(span > 0, (x - mn) * float(scale)
                              / np.where(span > 0, span, 1.0), 0.0)
            arr = pa.array(scaled, pa.float64())
        return t.append_column(out_col, arr)

    return make_ds().map_batches(apply, batch_format="pyarrow")


def sigma_outliers(make_ds, col: str, key: str | None = None,
                   k: int = 3, flag_col: str | None = None,
                   max_groups: int = 1_000_000,
                   persist: str = "none") -> ray.data.Dataset:
    """EXACT k-sigma outlier flagging on an integer column, global or
    per ``key`` — the distributed anomaly screen (3-sigma rule) with no
    floating point anywhere, so the DuckDB oracle hash-matches.

    The trick that keeps it exact: ``|x − mean| > k·std`` over a group
    with count n, sum s1, sum-of-squares s2 is equivalent to
    ``(n·x − s1)² > k²·(n·s2 − s1²)`` (variance = (n·s2 − s1²)/n²,
    both sides multiplied by n²), and with integer x both sides
    are integers. Pass 1 reduces the corpus to (n, s1, s2) per key
    (mergeable partials; ``max_groups``-guarded driver pull); the driver
    takes one exact ``isqrt`` per key (arbitrary-precision Python ints —
    the only place the 10^26-scale product exists) so pass 2 only
    compares int64: ``|n·x − s1| > T`` with ``T = isqrt(k²·(n·s2 −
    s1²))``; ``d² > S ⟺ |d| > floor(√S)`` for integer d. Appends
    ``flag_col`` (default ``{col}_outlier``) as int64 0/1.

    Loud guards: non-integer column; ``n·max|x|`` or T outside int64
    (pre-scale or bucket the key); pass-2 keys absent from pass 1
    (non-deterministic factory — use ``persist=``).
    """
    import math

    flag_col = flag_col or f"{col}_outlier"
    make_ds = persisted_factory(make_ds, persist)
    kk = int(k) * int(k)

    def prep(t: pa.Table) -> pa.Table:
        x = t.column(col).to_numpy(zero_copy_only=False)
        if not np.issubdtype(x.dtype, np.integer):
            raise TypeError(
                f"sigma_outliers: {col!r} must be an integer column for "
                f"the exact path, got {x.dtype} (integerize first, e.g. "
                "cents)")
        x = x.astype(np.int64)
        if len(x) and int(np.abs(x).max()) >= np.int64(3_000_000_000):
            raise ValueError(
                f"sigma_outliers: |{col}| up to {np.abs(x).max():,} "
                "would overflow the int64 x*x partial; pre-scale the "
                "column")
        cols = {col: pa.array(x), "_sq": pa.array(x * x)}
        if key is not None:
            cols = {key: t.column(key), **cols}
        return pa.table(cols)

    pre = make_ds().select_columns(
        [key, col] if key is not None else [col]).map_batches(
        prep, batch_format="pyarrow")

    if key is None:
        from ray.data.aggregate import Count, Max, Min, Sum

        row = pre.aggregate(Count(alias_name="_n"),
                            Sum(col, alias_name="_s1"),
                            Sum("_sq", alias_name="_s2"),
                            Min(col, alias_name="_mn"),
                            Max(col, alias_name="_mx"))
        stats = [(None, int(row["_n"]), int(row["_s1"]),
                  int(row["_s2"]),
                  max(abs(int(row["_mn"])), abs(int(row["_mx"]))))]
        keys_ref = None
    else:
        gt = grouped_agg(pre, [key], count_name="_n",
                         sum_cols={"_s1": col, "_s2": "_sq"},
                         min_cols={"_mn": col},
                         max_cols={"_mx": col}).materialize()
        n_groups = gt.count()
        if n_groups > int(max_groups):
            raise ValueError(
                f"sigma_outliers: {key!r} has {n_groups:,} groups "
                f"(> max_groups={int(max_groups):,}); raise the cap or "
                "pre-bucket the key")
        pdf = gt.to_pandas()
        stats = [(kv, int(n), int(s1), int(s2),
                  max(abs(int(mn)), abs(int(mx)))) for
                 kv, n, s1, s2, mn, mx in
                 zip(pdf[key], pdf["_n"], pdf["_s1"], pdf["_s2"],
                     pdf["_mn"], pdf["_mx"])]
        keys_ref = ray.put(pa.array(pdf[key]))

    ns, s1s, ts = [], [], []
    for _kv, n, s1, s2, mabs in stats:
        # the DISTRIBUTED s2 sum rides int64 and wraps silently past
        # 2^63; n and max|x| cannot wrap (count/min/max), so the exact
        # upper bound n*max|x|^2 >= true s2 detects any possible wrap
        # loudly (review finding: per-element x*x guard alone was not
        # enough)
        if n * mabs * mabs >= 2 ** 63:
            raise ValueError(
                f"sigma_outliers: n*max|x|^2 = {n * mabs * mabs:,} "
                "could overflow the int64 sum-of-squares partial; "
                "pre-scale the column or bucket the key")
        m2n = n * s2 - s1 * s1  # n^2 * variance, exact, >= 0
        t_int = math.isqrt(kk * m2n)
        # pass 2 computes d = n*x - s1 in int64: bound it exactly
        if t_int >= 2 ** 62 or n * mabs + abs(s1) >= 2 ** 62:
            raise ValueError(
                "sigma_outliers: per-key n*max|x| or threshold exceeds "
                "int64; pre-scale the column or bucket the key")
        ns.append(n)
        s1s.append(s1)
        ts.append(t_int)
    stats_ref = ray.put((np.asarray(ns, np.int64),
                         np.asarray(s1s, np.int64),
                         np.asarray(ts, np.int64)))

    def apply(t: pa.Table) -> pa.Table:
        n_arr, s1_arr, t_arr = ray.get(stats_ref)
        x = (t.column(col).to_numpy(zero_copy_only=False)
             .astype(np.int64))
        if key is None:
            idx = np.zeros(len(x), np.intp)
        else:
            idx_pa = pc.index_in(t.column(key), ray.get(keys_ref))
            if idx_pa.null_count:
                raise ValueError(
                    "sigma_outliers: pass 2 saw keys absent from pass 1 "
                    "stats — the input factory is not deterministic "
                    "across passes (use persist=)")
            idx = idx_pa.to_numpy(zero_copy_only=False).astype(np.intp)
        d = n_arr[idx] * x - s1_arr[idx]
        flag = (np.abs(d) > t_arr[idx]).astype(np.int64)
        return t.append_column(flag_col, pa.array(flag))

    return make_ds().map_batches(apply, batch_format="pyarrow")


def _broadcast_medians(ds, key: str, col: str, max_groups: int,
                       what: str):
    """Per-key exact median table → guarded driver pull → broadcast
    (keys_ref, med_array_ref is inlined as a plain numpy in the returned
    tuple — callers ray.put what they need)."""
    from .spanops import grouped_exact_quantiles

    # bounded keys (max_groups) x bounded value domain (the operator's
    # exact-integer contract) -> the distinct count table fits one
    # task: the map-only tree combine beats the sort exchange ~5x
    med = grouped_exact_quantiles(ds, key, col, qs=(0.5,)).materialize()
    n_groups = med.count()
    if n_groups > int(max_groups):
        raise ValueError(
            f"mad_outliers: {key!r} has {n_groups:,} groups "
            f"(> max_groups={int(max_groups):,}) at the {what} pass; "
            "raise the cap or pre-bucket the key")
    pdf = med.to_pandas()
    return pa.array(pdf[key]), pdf["p50"].to_numpy().astype(np.int64)


def mad_outliers(make_ds, col: str, key: str | None = None,
                 k: int = 3, flag_col: str | None = None,
                 max_groups: int = 1_000_000,
                 persist: str = "none") -> ray.data.Dataset:
    """EXACT robust (median/MAD) outlier flagging on an integer column —
    the heavy-tail-safe sibling of :func:`sigma_outliers`: flags
    ``|x − median| > k · MAD`` with MAD = median of ``|x − median|``,
    everything in integers so the DuckDB ``quantile_disc`` oracle
    hash-matches (the per-key median rank rule floor((n−1)/2) equals
    quantile_disc's ceil(n/2)−1 at q=0.5 for every n).

    Three passes, all scale-shaped: per-key medians ride the
    bucket-idiom value-count path (``spanops.grouped_exact_quantiles`` —
    the corpus reduces to |keys|×|distinct values| rows), the key→median
    and key→MAD tables are guarded by ``max_groups`` and broadcast, and
    the flag pass is one ``pc.index_in`` probe per batch. ``make_ds``
    executes three times — use ``persist=`` for derived inputs.

    Standard MAD caveat, unchanged here: a key where ≥ half the values
    are identical has MAD 0, so every other value is flagged.
    """
    flag_col = flag_col or f"{col}_outlier"
    make_ds = persisted_factory(make_ds, persist)
    kf = int(k)
    gkey = key if key is not None else "_g"

    def keyed(t: pa.Table) -> pa.Table:
        x = t.column(col)
        if not pa.types.is_integer(x.type):
            raise TypeError(
                f"mad_outliers: {col!r} must be an integer column for "
                f"the exact path, got {x.type}")
        cols = {gkey: (t.column(key) if key is not None else
                       pa.nulls(t.num_rows, pa.int8()).fill_null(0)),
                col: x}
        return pa.table(cols)

    med_keys, med_vals = _broadcast_medians(
        make_ds().map_batches(keyed, batch_format="pyarrow"),
        gkey, col, max_groups, "median")
    med_keys_ref = ray.put(med_keys)
    med_vals_ref = ray.put(med_vals)

    def probe_idx(t: pa.Table, keys_arr) -> np.ndarray:
        idx_pa = pc.index_in(t.column(gkey), keys_arr)
        if idx_pa.null_count:
            raise ValueError(
                "mad_outliers: a later pass saw keys absent from the "
                "median stats — the input factory is not deterministic "
                "across passes (use persist=)")
        return idx_pa.to_numpy(zero_copy_only=False).astype(np.intp)

    def to_dev(t: pa.Table) -> pa.Table:
        t = keyed(t)
        idx = probe_idx(t, ray.get(med_keys_ref))
        x = t.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        dev = np.abs(x - ray.get(med_vals_ref)[idx])
        return pa.table({gkey: t.column(gkey), "_dev": pa.array(dev)})

    mad_keys, mad_vals = _broadcast_medians(
        make_ds().map_batches(to_dev, batch_format="pyarrow"),
        gkey, "_dev", max_groups, "MAD")
    mad_keys_ref = ray.put(mad_keys)
    mad_vals_ref = ray.put(mad_vals)

    def flag(t: pa.Table) -> pa.Table:
        kt = keyed(t)
        mi = probe_idx(kt, ray.get(med_keys_ref))
        ai = probe_idx(kt, ray.get(mad_keys_ref))
        x = kt.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        dev = np.abs(x - ray.get(med_vals_ref)[mi])
        out = (dev > kf * ray.get(mad_vals_ref)[ai]).astype(np.int64)
        return t.append_column(flag_col, pa.array(out))

    return make_ds().map_batches(flag, batch_format="pyarrow")


def robust_scale(make_ds, col: str, key: str | None = None,
                 scale: int = 1_000_000, out_col: str | None = None,
                 max_groups: int = 1_000_000,
                 persist: str = "none") -> ray.data.Dataset:
    """Robust (median/IQR) feature scaling — the outlier-insensitive
    sibling of :func:`minmax_scale`: ``out = (x − median) · scale //
    IQR`` per key (floor division on exact integers, so the SQL
    row-number-rank oracle hash-matches; IQR = p75 − p25 with the
    floor((n−1)·q) rank rule — note this is NOT quantile_disc's rule
    at q≠0.5, the oracle must select by row_number). Zero-IQR groups
    scale to 0, like constant groups in minmax. Same broadcast-stats
    shape: one bucket-idiom quantile pass (tree count behind the HLL
    screen), ``max_groups``-guarded pull, one probe pass."""
    from .spanops import grouped_exact_quantiles

    out_col = out_col or f"{col}_rscaled"
    make_ds = persisted_factory(make_ds, persist)
    gkey = key if key is not None else "_g"

    def keyed(t: pa.Table) -> pa.Table:
        x = t.column(col)
        if not pa.types.is_integer(x.type):
            raise TypeError(
                f"robust_scale: {col!r} must be an integer column for "
                f"the exact path, got {x.type}")
        return pa.table({gkey: (t.column(key) if key is not None else
                                pa.nulls(t.num_rows,
                                         pa.int8()).fill_null(0)),
                         col: x})

    # p0/p100 (min/max) ride the same quantile pass for free and feed the
    # overflow guard below — they are never broadcast to pass 2.
    q = grouped_exact_quantiles(
        make_ds().map_batches(keyed, batch_format="pyarrow"),
        gkey, col, qs=(0.0, 0.25, 0.5, 0.75, 1.0)).materialize()
    n_groups = q.count()
    if n_groups > int(max_groups):
        raise ValueError(
            f"robust_scale: {key!r} has {n_groups:,} groups "
            f"(> max_groups={int(max_groups):,})")
    pdf = q.to_pandas()
    keys_ref = ray.put(pa.array(pdf[gkey]))
    med = pdf["p50"].to_numpy().astype(np.int64)
    # overflow guard (sigma_outliers convention): pass 2 computes
    # (x - median) * scale in int64, which wraps silently; per group
    # |x - median| <= max(p100 - p50, p50 - p0), both from non-wrapping
    # min/max lanes, so the bound is exact.
    if len(med):
        dev_bound = int(np.max(np.maximum(
            pdf["p100"].to_numpy().astype(np.int64) - med,
            med - pdf["p0"].to_numpy().astype(np.int64))))
        if dev_bound * int(scale) > np.iinfo(np.int64).max:
            raise OverflowError(
                f"robust_scale: max |x - median| {dev_bound:,} x scale "
                f"{scale:,} would overflow the int64 numerator; "
                "pre-scale the column or lower scale=")
    stats_ref = ray.put((med,
                         (pdf["p75"].to_numpy()
                          - pdf["p25"].to_numpy()).astype(np.int64)))

    def apply(t: pa.Table) -> pa.Table:
        kt = keyed(t)
        idx_pa = pc.index_in(kt.column(gkey), ray.get(keys_ref))
        if idx_pa.null_count:
            raise ValueError(
                "robust_scale: pass 2 saw keys absent from the stats "
                "— the input factory is not deterministic across "
                "passes (use persist=)")
        idx = idx_pa.to_numpy(zero_copy_only=False).astype(np.intp)
        med, iqr = ray.get(stats_ref)
        x = kt.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        m, r = med[idx], iqr[idx]
        scaled = np.where(r > 0,
                          (x - m) * np.int64(scale)
                          // np.maximum(r, 1), 0).astype(np.int64)
        return t.append_column(out_col, pa.array(scaled))

    return make_ds().map_batches(apply, batch_format="pyarrow")


def ks_two_sample(ds: ray.data.Dataset, group_col: str, value_col: str,
                  group_a, group_b,
                  max_distinct: int = 20_000_000) -> ray.data.Dataset:
    """Two-sample Kolmogorov–Smirnov distance between the value
    distributions of two slices — the exact drift detector (deploy A
    vs deploy B, yesterday vs today): ``D = max_v |ecdf_a(v) −
    ecdf_b(v)|`` returned as EXACT integer lanes ``(n_a, n_b, d_num)``
    with ``D = d_num / (n_a·n_b)`` — the single ``d`` float division
    is correctly rounded, so even the float column is hash-gate
    stable. Integer value domains only (cents-style lanes).

    The same counts pass also yields the Mann–Whitney rank-sum
    statistic ``u2 = 2·U_a = Σ_v ca(v)·(2·cumb(v) − cb(v))`` (ties
    counted half, doubled to stay integer; ``u2/(2·n_a·n_b)`` is the
    probability a random A value exceeds a random B value — the
    effect-size companion to the KS distance) and the Wasserstein-1
    (earth-mover) distance ``w1_num = Σ_i |n_b·cuma − n_a·cumb|·Δv``
    over consecutive observed values (``W1 = w1_num/(n_a·n_b)`` in
    value units — how FAR the distributions moved, where KS says how
    MUCH disagrees; magnitude-guarded before the sum).

    Scale shape: ONE grouped count reduces the input to
    |distinct values| × 2 rows (tree combine behind an HLL screen that
    fires BEFORE the single combine task exists — the guard bounds the
    step); the KS sweep itself is a driver sort + cumsum over that
    bounded table. Rows not in either group are ignored."""
    from .sketch import approx_distinct

    ga, gb = str(group_a), str(group_b)
    if ga == gb:
        raise ValueError("ks_two_sample: group_a and group_b must "
                         "differ")

    def keep(t: pa.Table) -> pa.Table:
        g = pc.cast(t.column(group_col), pa.string())
        m = pc.or_(pc.equal(g, ga), pc.equal(g, gb))
        t = t.filter(pc.fill_null(m, False))
        v = t.column(value_col)
        if v.null_count:
            raise ValueError(
                f"ks_two_sample: {value_col!r} has nulls — a null has "
                "no place on an ECDF")
        if not (pa.types.is_integer(v.type)):
            raise ValueError(
                f"ks_two_sample: {value_col!r} must be an integer "
                f"domain (got {v.type}) — the W1 lane truncates "
                "floats silently; integerize first (cents)")
        return pa.table({"_g": pc.cast(t.column(group_col),
                                       pa.string()),
                         "_v": v})

    skinny = ds.map_batches(keep, batch_format="pyarrow")
    est = approx_distinct(skinny, "_v")
    if est > max_distinct:
        raise ValueError(
            f"ks_two_sample: ~{int(est):,} distinct values (HLL "
            f"estimate, max_distinct={max_distinct:,}) — the count "
            "table would not fit one combine task; band the values "
            "upstream or raise the cap")
    counts = grouped_agg(skinny.map_batches(
        lambda t: pa.table({
            "_v": t.column("_v"),
            "_ca": pc.cast(pc.equal(t.column("_g"), ga), pa.int64()),
            "_cb": pc.cast(pc.equal(t.column("_g"), gb), pa.int64())}),
        batch_format="pyarrow"), ["_v"],
        sum_cols={"ca": "_ca", "cb": "_cb"})
    pdf = counts.to_pandas().sort_values("_v")
    ca = pdf["ca"].to_numpy()
    cb = pdf["cb"].to_numpy()
    n_a, n_b = int(ca.sum()), int(cb.sum())
    if n_a == 0 or n_b == 0:
        raise ValueError(
            f"ks_two_sample: empty slice (n_a={n_a}, n_b={n_b}) — "
            "both groups must be present")
    # |n_b·cuma − n_a·cumb| ≤ n_a·n_b, so int64 is safe below 2^62
    if n_a * n_b > 2 ** 62:
        raise ValueError("ks_two_sample: n_a*n_b would wrap int64; "
                         "subsample the slices")
    cuma = np.cumsum(ca)
    cumb = np.cumsum(cb)
    vv = pdf["_v"].to_numpy()
    d_num = int(np.abs(n_b * cuma - n_a * cumb).max()) if len(ca) else 0
    u2 = int((ca * (2 * cumb - cb)).sum()) if len(ca) else 0
    if len(vv) > 1:
        vrange = int(vv.max()) - int(vv.min())
        # Σ|diff|·Δv ≤ n_a·n_b·range — guard before the product sum
        if vrange and n_a * n_b > (2 ** 62) // vrange:
            raise ValueError(
                "ks_two_sample: n_a*n_b*value_range would wrap int64 "
                "in the W1 sum; band the values or subsample")
        dv = np.diff(vv.astype(np.int64))
        w1_num = int((np.abs(n_b * cuma - n_a * cumb)[:-1] * dv).sum())
    else:
        w1_num = 0
    return ray.data.from_arrow(pa.table({
        "n_a": pa.array([n_a]), "n_b": pa.array([n_b]),
        "d_num": pa.array([d_num]),
        "d": pa.array([d_num / float(n_a * n_b)]),
        "u2": pa.array([u2]),
        "w1_num": pa.array([w1_num]),
        "w1": pa.array([w1_num / float(n_a * n_b)])}))


def grouped_ks(ds: ray.data.Dataset, key: str, group_col: str,
               value_col: str, group_a, group_b,
               n_buckets: int | str = "auto") -> ray.data.Dataset:
    """PER-KEY two-sample KS distance — drift per service / event type
    / tenant in one distributed pass (the scale path beside the global
    :func:`ks_two_sample`, which drives a driver-side sweep): for each
    key, ``D = max_v |ecdf_a(v) − ecdf_b(v)|`` between the key's two
    slices, as exact integer lanes ``(key, n_a, n_b, d_num)`` plus the
    row-wise correctly-rounded float ``d``. Keys with either slice
    empty are dropped (no ECDF to compare — mirror the oracle with a
    ``HAVING`` on both counts).

    Scale shape: per-batch Arrow pre-reduction to (key, value, ca, cb)
    partial rows, ONE bucket exchange on the key, then per bucket a
    sort + segment cumsum + ``maximum.reduceat`` answers every key at
    once — no per-key Python, keys unbounded."""
    from .bucketing import bucketed_map_groups, key_segments

    ga, gb = str(group_a), str(group_b)
    if ga == gb:
        raise ValueError("grouped_ks: group_a and group_b must differ")
    if key in ("_v", "_ca", "_cb", "n_a", "n_b", "d_num", "d"):
        raise ValueError(
            f"grouped_ks: key {key!r} collides with an internal or "
            "output column — rename the key upstream")

    def partial(t: pa.Table) -> pa.Table:
        g = pc.cast(t.column(group_col), pa.string())
        m = pc.or_(pc.equal(g, ga), pc.equal(g, gb))
        t = t.filter(pc.fill_null(m, False))
        v = t.column(value_col)
        if v.null_count or t.column(key).null_count:
            raise ValueError(
                "grouped_ks: key/value columns must be non-null")
        g = pc.cast(t.column(group_col), pa.string())
        lanes = pa.table({
            key: t.column(key), "_v": v,
            "_ca": pc.cast(pc.equal(g, ga), pa.int64()),
            "_cb": pc.cast(pc.equal(g, gb), pa.int64())})
        out = lanes.group_by([key, "_v"]).aggregate(
            [("_ca", "sum"), ("_cb", "sum")])
        return out.rename_columns([key, "_v", "_ca", "_cb"])

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.group_by([key, "_v"]).aggregate(
            [("_ca", "sum"), ("_cb", "sum")]) \
            .rename_columns([key, "_v", "_ca", "_cb"])
        t = t.sort_by([(key, "ascending"), ("_v", "ascending")])
        k = t.column(key).to_numpy(zero_copy_only=False)
        ca = t.column("_ca").to_numpy(zero_copy_only=False)
        cb = t.column("_cb").to_numpy(zero_copy_only=False)
        n = len(k)
        if n == 0:
            return pa.table({key: t.column(key),
                             "n_a": pa.array([], pa.int64()),
                             "n_b": pa.array([], pa.int64()),
                             "d_num": pa.array([], pa.int64()),
                             "d": pa.array([], pa.float64())})
        change, seg_start = key_segments(k)
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n) - 1
        cum_a = np.cumsum(ca)
        cum_b = np.cumsum(cb)
        base_a = np.concatenate([[0], cum_a])[starts]
        base_b = np.concatenate([[0], cum_b])[starts]
        na_seg = cum_a[ends] - base_a
        nb_seg = cum_b[ends] - base_b
        if len(na_seg) and int(na_seg.max()) * max(
                int(nb_seg.max()), 1) > 2 ** 62:
            raise ValueError("grouped_ks: n_a*n_b would wrap int64 "
                             "for a key; subsample the slices")
        seg_of = np.cumsum(change) - 1
        na_row = na_seg[seg_of]
        nb_row = nb_seg[seg_of]
        diff = np.abs(nb_row * (cum_a - base_a[seg_of])
                      - na_row * (cum_b - base_b[seg_of]))
        d_num = np.maximum.reduceat(diff, starts)
        keep = (na_seg > 0) & (nb_seg > 0)
        kk = t.column(key).take(pa.array(starts.astype(np.int64)))
        out = pa.table({
            key: kk, "n_a": pa.array(na_seg.astype(np.int64)),
            "n_b": pa.array(nb_seg.astype(np.int64)),
            "d_num": pa.array(d_num.astype(np.int64)),
            "d": pa.array(d_num / (na_seg * nb_seg).clip(1)
                          .astype(np.float64))})
        return out.filter(pa.array(keep))

    return bucketed_map_groups(partials, key, per_bucket,
                               n_buckets=n_buckets)


def chi2_two_sample(ds: ray.data.Dataset, group_col: str, cell_col: str,
                    group_a, group_b, scale: int = 1_000_000,
                    max_cells: int = 100_000) -> ray.data.Dataset:
    """Two-sample chi-square drift over a CATEGORICAL column — the
    categorical companion to :func:`ks_two_sample` (which needs an
    ordered value domain): for each category ``c`` the exact observed
    counts ``(o_a, o_b)`` in the two slices plus the category's
    chi-square contribution as a scaled integer::

        term(o, r) = (o·N − r·C)² · scale // (N·r·C)
        chi2_scaled(c) = term(o_a, n_a) + term(o_b, n_b)

    where ``N`` is the grand total, ``r`` the slice row-total and ``C``
    the category column-total — algebraically ``(O−E)²/E · scale``
    with ``E = r·C/N``, truncated per cell (both engines truncate the
    same way, so the gate is bit-stable; Python big ints make the
    squared products exact, the SQL mirror uses HUGEINT).

    Scale shape: ONE bounded grouped count (tree — the category×2
    domain is a roll-up key) reduces the corpus to ≤ ``max_cells``
    rows (count-before-pull guard); the chi-square sweep is driver
    arithmetic over that table. Cells absent from one slice contribute
    ``term(0, r) = r·C²·scale // (N·r·C)`` like the SQL mirror's
    COALESCE(0) cell. Rows outside both slices are ignored; null
    categories raise (a null has no cell).

    Reference analog: none — the collector computes no cross-slice
    statistics; this is the drift-monitoring engine addition
    (deploy-A-vs-B event-mix shift) beside KS/MW/W1/JSD.
    """
    from .aggregate import grouped_agg

    ga, gb = str(group_a), str(group_b)
    if ga == gb:
        raise ValueError("chi2_two_sample: group_a and group_b must "
                         "differ")

    def keep(t: pa.Table) -> pa.Table:
        g = pc.cast(t.column(group_col), pa.string())
        m = pc.or_(pc.equal(g, ga), pc.equal(g, gb))
        t2 = pa.table({"_g": g, "_c": t.column(cell_col)}).filter(
            pc.fill_null(m, False))
        if t2.column("_c").null_count:
            raise ValueError(
                f"chi2_two_sample: {cell_col!r} has nulls — a null "
                "has no contingency cell; fill or filter upstream")
        return pa.table({
            "_c": pc.cast(t2.column("_c"), pa.string()),
            "_oa": pc.cast(pc.equal(t2.column("_g"), ga), pa.int64()),
            "_ob": pc.cast(pc.equal(t2.column("_g"), gb), pa.int64())})

    counts = grouped_agg(ds.map_batches(keep, batch_format="pyarrow"),
                         ["_c"], sum_cols={"o_a": "_oa", "o_b": "_ob"})
    counts = counts.materialize()
    ncells = counts.count()
    if ncells > max_cells:
        raise ValueError(
            f"chi2_two_sample: {ncells:,} categories exceeds "
            f"max_cells={max_cells:,} — band the column upstream or "
            "raise the cap")
    pdf = counts.to_pandas().sort_values("_c")
    o_a = [int(x) for x in pdf["o_a"]]
    o_b = [int(x) for x in pdf["o_b"]]
    n_a, n_b = sum(o_a), sum(o_b)
    if n_a == 0 or n_b == 0:
        raise ValueError(
            f"chi2_two_sample: empty slice (n_a={n_a}, n_b={n_b}) — "
            "both groups must be present")
    n_tot = n_a + n_b

    def term(o: int, r: int, c: int) -> int:
        # exact big-int rational, truncated like DuckDB // (numerator
        # is a square, so floor == trunc)
        return (o * n_tot - r * c) ** 2 * scale // (n_tot * r * c)

    chi2 = [term(oa, n_a, oa + ob) + term(ob, n_b, oa + ob)
            for oa, ob in zip(o_a, o_b)]
    if chi2 and max(chi2) > 2 ** 62:
        raise ValueError("chi2_two_sample: a scaled term exceeds "
                         "int64 — lower scale=")
    return ray.data.from_arrow(pa.table({
        cell_col: pa.array(pdf["_c"], pa.string()),
        "o_a": pa.array(o_a, pa.int64()),
        "o_b": pa.array(o_b, pa.int64()),
        "chi2_scaled": pa.array(chi2, pa.int64())}))


def quantile_map(ds: ray.data.Dataset, slice_col: str, value_col: str,
                 ref_slice, *, max_table: int = 4_000_000
                 ) -> ray.data.Dataset:
    """Quantile mapping (distribution matching / harmonization — the
    remap applied when one slice's score scale must be made comparable
    to a reference slice's: sensor recalibration, judge-score
    normalization, domain transfer): every distinct value ``x`` of a
    non-reference slice maps to the reference value at the same
    quantile position, with the exact integer rank rule
    ``idx = (n_ref − 1) · r // (n_S − 1)`` where ``r`` is x's 0-based
    LAST-row rank within its own slice and the lookup is DuckDB's
    ``quantile_disc`` rule (first reference value whose cumulative
    count exceeds ``idx``). All integers — the SQL mirror is the same
    window cumsums and truncating division.

    Emits the mapping table ``(slice_col, value_col, mapped)`` for
    every slice ≠ ``ref_slice`` with ≥ 2 rows — apply it to the raw
    rows with a broadcast join. Scale shape: the corpus reduces ONCE
    to the (slice, value) count table (bucket partials, domain- not
    row-bounded, ``count()``-guarded by ``max_table`` BEFORE the
    pull); the mapping itself is one driver-side vectorized pass over
    that skinny table — raw rows never move."""
    from .aggregate import grouped_count

    vc = grouped_count(ds.select_columns([slice_col, value_col]),
                       [slice_col, value_col], count_name="_c").materialize()
    nt = vc.count()
    if nt > int(max_table):
        raise ValueError(
            f"quantile_map: {nt:,} (slice, value) rows exceed "
            f"max_table={int(max_table):,} — band the value domain")
    parts = collect(vc)
    out_schema = pa.schema([
        pa.field(slice_col, pa.string()), pa.field(value_col, pa.int64()),
        pa.field("mapped", pa.int64())])
    if not parts:
        return ray.data.from_arrow(out_schema.empty_table())
    tbl = pa.concat_tables(parts).sort_by(
        [(slice_col, "ascending"), (value_col, "ascending")])
    sl = tbl.column(slice_col).to_numpy(zero_copy_only=False)
    v = tbl.column(value_col).to_numpy(zero_copy_only=False)
    if not np.issubdtype(v.dtype, np.integer):
        raise TypeError(
            f"quantile_map: {value_col!r} must be integer (band first)")
    v = v.astype(np.int64)
    c = tbl.column("_c").to_numpy(zero_copy_only=False).astype(np.int64)
    is_ref = sl == ref_slice
    if not is_ref.any():
        raise ValueError(
            f"quantile_map: reference slice {ref_slice!r} not present")
    ref_v = v[is_ref]
    ref_cum = np.cumsum(c[is_ref])
    n_ref = int(ref_cum[-1])
    keep = ~is_ref
    sl_k, v_k, c_k = sl[keep], v[keep], c[keep]
    # per-slice cumulative counts (rows already sorted by slice, value)
    change = np.ones(len(sl_k), dtype=bool)
    if len(sl_k) > 1:
        change[1:] = sl_k[1:] != sl_k[:-1]
    seg_start = np.flatnonzero(change)
    seg_of = np.repeat(np.arange(len(seg_start)),
                       np.diff(np.append(seg_start, len(sl_k))))
    cum = np.cumsum(c_k)
    base = cum[seg_start] - c_k[seg_start]
    cum_in = cum - base[seg_of]           # cumulative count within slice
    n_s = np.add.reduceat(c_k, seg_start)[seg_of] if len(c_k) else c_k
    r = cum_in - 1                        # 0-based LAST-row rank of x
    ok = n_s > 1
    idx = np.zeros(len(r), np.int64)
    idx[ok] = (n_ref - 1) * r[ok] // (n_s[ok] - 1)
    pos = np.searchsorted(ref_cum, idx, side="right")
    mapped = ref_v[np.clip(pos, 0, len(ref_v) - 1)]
    out = pa.table({slice_col: tbl.column(slice_col).filter(
                        pa.array(keep)).filter(pa.array(ok)),
                    value_col: pa.array(v_k[ok]),
                    "mapped": pa.array(mapped[ok])})
    return ray.data.from_arrow(out)


def grouped_moments(ds: ray.data.Dataset, keys: list[str],
                    value_col: str) -> ray.data.Dataset:
    """Distribution-shape sufficient statistics per key — the exact
    integer lanes (n, Σx, Σx², Σx³, Σx⁴, min, max) from which a reader
    derives variance / skewness / kurtosis (the higher-moment siblings
    of ``grouped_trend``'s first-order lanes). ``value_col`` must be
    integer.

    Overflow discipline (the full-expression-guard convention): every
    per-batch partial proves ``n_batch · max|x|⁴ < 2⁶²`` BEFORE
    summing — |Σx⁴| ≤ n·max⁴ bounds every lane, so a passing batch can
    never wrap int64; the batch size caps n at 65536, so the guard
    only bites when |x| is large (rescale upstream). The combine adds
    ≤ #batches partial rows per key whose TRUE total is re-bounded by
    the merged (n, max|x|) pair before the final sum is trusted."""

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(value_col)
        if v.null_count:
            raise ValueError(f"grouped_moments: {value_col!r} has nulls")
        x = v.to_numpy(zero_copy_only=False)
        if x.dtype.kind not in "iu":
            raise ValueError(
                f"grouped_moments: {value_col!r} must be integer "
                f"(scale floats upstream), got {x.dtype}")
        x = x.astype(np.int64)
        n_b = len(x)
        mx = int(np.abs(x).max()) if n_b else 0
        if n_b and n_b * mx**4 > 2**62:
            raise ValueError(
                f"grouped_moments: n·max|x|⁴ = {n_b}·{mx}⁴ could "
                "overflow int64 — rescale the value column")
        cols = {k: t.column(k) for k in keys}
        cols["n"] = pa.array(np.ones(n_b, np.int64))
        cols["sum_x"] = pa.array(x)
        cols["sum_x2"] = pa.array(x * x)
        cols["sum_x3"] = pa.array(x * x * x)
        cols["sum_x4"] = pa.array(x * x * x * x)
        cols["min_x"] = pa.array(x)
        cols["max_x"] = pa.array(x)
        cols["abs_x"] = pa.array(np.abs(x))
        return pa.table(cols)

    pre = ds.select_columns(keys + [value_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=65536)
    agg = grouped_agg(pre, keys, sum_cols={c: c for c in
                                           ("n", "sum_x", "sum_x2",
                                            "sum_x3", "sum_x4")},
                      min_cols={"min_x": "min_x"},
                      max_cols={"max_x": "max_x", "abs_x": "abs_x"})

    def check(t: pa.Table) -> pa.Table:
        # exact Python-int bound over the (bounded) grouped table: every
        # intermediate partial sum is ≤ n_total·max|x|⁴ in magnitude, so
        # a passing total proves no int64 wrap happened anywhere
        n = t.column("n").to_pylist()
        mx = t.column("abs_x").to_pylist()
        for n_k, mx_k in zip(n, mx):
            if n_k * mx_k**4 > 2**62:
                raise ValueError(
                    f"grouped_moments: n·max|x|⁴ = {n_k}·{mx_k}⁴ > 2^62 "
                    "— the combined sum cannot be trusted in int64; "
                    "rescale the value column")
        return t.drop_columns(["abs_x"])

    return agg.map_batches(check, batch_format="pyarrow")
