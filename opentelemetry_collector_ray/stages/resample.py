"""Time-series resampling / gap-fill — per key, a REGULAR timestamp
grid between the key's first and last observation with the latest
value AS OF each grid point carried forward: the batch analog of the
collector's metric-alignment story (aligning irregular points onto a
fixed reporting interval) and the standard feature-store "state at
time t" primitive.

Scale shape: pass 1 is a two-phase min/max aggregate (one scan →
per-key bounds rows); the grid is EXPLODED from the bounds rows with
repeat/arange (never materialized on the driver, validated against
``max_points_per_key`` loudly); pass 2 is the distributed
:func:`~.join.asof_join` (one bucket co-partition exchange, vectorized
sort-merge per bucket). The observations are scanned twice; neither
pass shuffles the raw values more than once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .aggregate import grouped_agg
from .join import asof_join


def hopping_window_agg(ds: ray.data.Dataset, ts_col: str, *,
                       size_us: int, slide_us: int,
                       keys: list[str] | None = None,
                       count_name: str = "n",
                       sum_cols: dict[str, str] | None = None,
                       window_name: str = "window_start",
                       max_windows_per_row: int = 1024
                       ) -> ray.data.Dataset:
    """Hopping (sliding/overlapping) window aggregate — the streaming
    "1-hour window every 15 minutes" rollup (the collector's
    metric-alignment story generalized to overlapping intervals; cf.
    reference processor/batchprocessor interval semantics and the
    standard HOP window of streaming SQL). Each row contributes to
    every window ``w`` with ``w <= ts < w + size_us`` where ``w`` is a
    multiple of ``slide_us`` — exactly ``size_us // slide_us`` windows
    per row when ``size_us % slide_us == 0`` (required, as in streaming
    SQL HOP).

    Scale shape: the window assignment is a vectorized m-way expansion
    of the SKINNY projection (window id + group keys + sum lanes) —
    Ray fuses it with the grouped partial stage into one task, so the
    m× amplification never hits the object store; the exchange carries
    only per-batch partial rows, merged as ``grouped_agg`` chooses from
    the input's size. Timestamp inputs
    are unit-normalized to MICROSECONDS (``size_us``/``slide_us`` are
    always microseconds); the window column is then timestamp[us],
    else the integer input type. Negative/epoch-preceding timestamps
    floor toward -inf (SQL mirrors must use floor(), not integer
    truncation)."""
    if slide_us <= 0 or size_us <= 0:
        raise ValueError("hopping_window_agg: size_us and slide_us "
                         "must be positive")
    if size_us % slide_us:
        raise ValueError("hopping_window_agg: size_us must be a "
                         "multiple of slide_us (streaming-SQL HOP "
                         "semantics)")
    m = size_us // slide_us
    if m > max_windows_per_row:
        raise ValueError(
            f"hopping_window_agg: {m} windows per row (> "
            f"max_windows_per_row={max_windows_per_row}) — each input "
            "row is replicated once per window; widen slide_us")
    keys = list(keys or [])
    if window_name in keys:
        raise ValueError("hopping_window_agg: window_name collides "
                         "with a group key")

    # the input's ts type plans the expansion: free for a read, else
    # one limit(1) run of the input to its first block
    sch = ds.schema()
    ts_type = dict(zip(sch.names, sch.types))[ts_col]
    win_type = pa.timestamp("us") if pa.types.is_timestamp(ts_type) \
        else ts_type

    def expand(t: pa.Table) -> pa.Table:
        col = t.column(ts_col)
        if col.null_count:
            raise ValueError(
                f"hopping_window_agg: {ts_col!r} has nulls — a null "
                "has no place on a time grid")
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us"))
        ts = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        w0 = (ts // slide_us) * slide_us  # numpy // floors, as floor()
        skinny = t.select([*keys, *(sum_cols or {}).values()])
        parts = []
        for i in range(m):
            parts.append(skinny.append_column(
                window_name,
                pa.array(w0 - i * slide_us).cast(win_type)))
        return pa.concat_tables(parts)

    return grouped_agg(ds.map_batches(expand, batch_format="pyarrow"),
                       [window_name, *keys], count_name=count_name,
                       sum_cols=sum_cols)


def resample_asof(ds_factory, key: str, ts_col: str, every_us: int,
                  value_cols: list[str], how: str = "left",
                  max_points_per_key: int = 1_000_000,
                  grid_name: str = "grid_ts",
                  n_buckets: int | str = "auto") -> ray.data.Dataset:
    """One row per (key, grid point): grid points are
    ``floor(first_ts / every_us) * every_us`` stepping by ``every_us``
    up to the key's last observation (UTC-epoch-aligned — for
    ``every_us`` = 1 day this is ``date_trunc('day', ...)``), each
    carrying the latest observation with ``ts <= grid point``
    (``how="left"``: the leading grid point before the first
    observation keeps null values). ``ds_factory`` is a zero-arg
    dataset factory (the input is scanned twice — pass a parquet-backed
    factory or persist upstream first, same contract as the other
    two-pass operators)."""
    if every_us <= 0:
        raise ValueError("resample_asof: every_us must be positive")
    if not value_cols:
        raise ValueError("resample_asof: value_cols must be non-empty")
    if grid_name in (key, ts_col, *value_cols):
        raise ValueError(
            f"resample_asof: grid column {grid_name!r} collides with an "
            "input column")

    def to_us(t: pa.Table) -> pa.Table:
        col = t.column(ts_col)
        if col.null_count:
            raise ValueError(
                f"resample_asof: {ts_col!r} has nulls — a null has no "
                "place on a time grid")
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us"))  # unit-normalize
        return pa.table({key: t.column(key),
                         "_ts_us": col.cast(pa.int64())})

    # the input's ts type plans the grid: free for a read, else one
    # limit(1) run of the input to its first block
    sch = ds_factory().schema()
    try:
        ts_type = dict(zip(sch.names, sch.types))[ts_col]
    except KeyError:
        raise ValueError(
            f"resample_asof: {ts_col!r} not in input schema "
            f"{list(sch.names)}") from None
    # Grid arithmetic and the as-of comparison run in MICROSECONDS for
    # every timestamp unit (s/ms/us/ns inputs are unit-normalized; a
    # ns column cast to int64 would otherwise make every_us silently
    # mean every_ns) — the grid column is therefore timestamp[us] for
    # any temporal input, the column's own unit for integer inputs.
    grid_type = pa.timestamp("us") if pa.types.is_timestamp(ts_type) \
        else ts_type

    bounds = grouped_agg(
        ds_factory().map_batches(to_us, batch_format="pyarrow"), [key],
        min_cols={"_lo": "_ts_us"}, max_cols={"_hi": "_ts_us"})

    def explode(t: pa.Table) -> pa.Table:
        lo = t.column("_lo").to_numpy(zero_copy_only=False)
        hi = t.column("_hi").to_numpy(zero_copy_only=False)
        lo_g = (lo // every_us) * every_us
        n = (hi - lo_g) // every_us + 1
        if len(n) and int(n.max()) > max_points_per_key:
            raise ValueError(
                f"resample_asof: a key spans {int(n.max())} grid points "
                f"(> max_points_per_key={max_points_per_key}); widen "
                "every_us or raise the cap")
        idx = np.repeat(np.arange(len(n)), n)
        step = np.arange(int(n.sum())) - np.repeat(
            np.concatenate([[0], np.cumsum(n)[:-1]]), n)
        grid = lo_g[idx] + step * every_us
        return pa.table({
            key: t.column(key).take(pa.array(idx)),
            grid_name: pa.array(grid).cast(grid_type)})

    def norm_right(t: pa.Table) -> pa.Table:
        t = t.select([key, ts_col, *value_cols])
        col = t.column(ts_col)
        if pa.types.is_timestamp(col.type):
            t = t.set_column(t.schema.get_field_index(ts_col), ts_col,
                             col.cast(pa.timestamp("us")))
        return t

    grid = bounds.map_batches(explode, batch_format="pyarrow")
    right = ds_factory().map_batches(norm_right, batch_format="pyarrow")
    return asof_join(grid, right, by=key, on=grid_name, right_on=ts_col,
                     direction="backward", how=how,
                     n_buckets=n_buckets).map_batches(
        lambda t: t.select([key, grid_name, *value_cols]),
        batch_format="pyarrow")


def lagged_xcorr_parts(ds: ray.data.Dataset, bucket_col: str,
                       group_col: str, group_a, group_b,
                       lags: tuple[int, ...] = (-3, -2, -1, 0, 1, 2, 3),
                       max_span: int = 20_000_000
                       ) -> ray.data.Dataset:
    """Lead/lag cross-correlation PARTS between two event-count series
    — "does A lead B?" (errors preceding latency, clicks preceding
    purchases): both slices are counted per integer ``bucket_col``
    (pre-banded time bucket — days/hours), zero-filled over the union
    span [lo, hi], and for each lag ``k`` the pairs ``(a_t, b_{t+k})``
    yield EXACT integer sufficient statistics ``(lag, n, sx, sy, sxy,
    sxx, syy)`` — the per-lag Pearson r is the caller's float, same
    lanes-only discipline as the correlation/PMI parts operators.

    Scale shape: one grouped count reduces the input to
    |buckets| × 2 rows (tree combine behind the span guard — the
    union span is checked BEFORE the dense driver arrays exist); the
    lag sweep is numpy dot products over the dense span."""
    import pyarrow.compute as _pc

    from .aggregate import grouped_agg

    ga, gb = str(group_a), str(group_b)
    if ga == gb:
        raise ValueError("lagged_xcorr_parts: groups must differ")
    if not lags:
        raise ValueError("lagged_xcorr_parts: lags must be non-empty")

    def lanes(t: pa.Table) -> pa.Table:
        g = _pc.cast(t.column(group_col), pa.string())
        m = _pc.or_(_pc.equal(g, ga), _pc.equal(g, gb))
        t = t.filter(_pc.fill_null(m, False))
        b = t.column(bucket_col)
        if b.null_count:
            raise ValueError(
                "lagged_xcorr_parts: bucket column has nulls")
        bv = b.to_numpy(zero_copy_only=False)
        if bv.dtype.kind not in "iu":
            raise ValueError(
                "lagged_xcorr_parts: bucket must be an integer time "
                f"band (got {bv.dtype}) — band timestamps upstream")
        g = _pc.cast(t.column(group_col), pa.string())
        return pa.table({
            "_b": pa.array(bv.astype(np.int64)),
            "_ca": _pc.cast(_pc.equal(g, ga), pa.int64()),
            "_cb": _pc.cast(_pc.equal(g, gb), pa.int64())})

    counts = grouped_agg(
        ds.map_batches(lanes, batch_format="pyarrow"), ["_b"],
        sum_cols={"ca": "_ca", "cb": "_cb"})
    pdf = counts.to_pandas()
    if not len(pdf):
        raise ValueError("lagged_xcorr_parts: no rows in either group")
    lo, hi = int(pdf["_b"].min()), int(pdf["_b"].max())
    span = hi - lo + 1
    if span > max_span:
        raise ValueError(
            f"lagged_xcorr_parts: union span {span:,} buckets "
            f"(> max_span={max_span:,}) — band coarser or raise "
            "the cap")
    a = np.zeros(span, np.int64)
    b = np.zeros(span, np.int64)
    idx = pdf["_b"].to_numpy() - lo
    a[idx] = pdf["ca"].to_numpy()
    b[idx] = pdf["cb"].to_numpy()
    max_c = int(max(a.max(), b.max())) if span else 0
    if max_c and max_c * max_c > (2 ** 62) // max(span, 1):
        raise ValueError(
            "lagged_xcorr_parts: per-bucket counts too large — "
            "sum of squares would wrap int64; band finer")
    rows = {"lag": [], "n": [], "sx": [], "sy": [], "sxy": [],
            "sxx": [], "syy": []}
    for k in lags:
        k = int(k)
        # pairs (a_t, b_{t+k}) with both indices inside the span
        t_lo, t_hi = max(0, -k), min(span, span - k)
        if t_hi <= t_lo:
            x = np.zeros(0, np.int64)
            y = np.zeros(0, np.int64)
        else:
            x = a[t_lo:t_hi]
            y = b[t_lo + k:t_hi + k]
        rows["lag"].append(k)
        rows["n"].append(len(x))
        rows["sx"].append(int(x.sum()))
        rows["sy"].append(int(y.sum()))
        rows["sxy"].append(int((x * y).sum()))
        rows["sxx"].append(int((x * x).sum()))
        rows["syy"].append(int((y * y).sum()))
    return ray.data.from_arrow(pa.table(
        {k: pa.array(v, pa.int64()) for k, v in rows.items()}))


def resample_interp(ds: ray.data.Dataset, key: str, ts_col: str,
                    value_col: str, every_us: int, *,
                    grid_name: str = "grid_ts",
                    out_col: str = "v_interp",
                    max_points_per_key: int = 1_000_000,
                    n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Linear-interpolation gap fill — the :func:`resample_asof`
    (LOCF) sibling for continuous gauges: one row per (key, grid
    point) with the value LINEARLY interpolated between the
    surrounding observations, as EXACT integers —
    ``pv + trunc((nv − pv)·(g − pt) / (nt − pt))`` with
    truncation-toward-zero mirroring SQL ``//`` (the delta can be
    negative, where Python's floor would silently diverge — the
    engine computes ``sign · (|num| // den)`` explicitly). Grid points
    start at ``floor(first_ts / every_us) · every_us`` (the
    resample_asof alignment) and leading points BEFORE the first
    observation are dropped (nothing to interpolate from); a grid
    point on an observation returns that value exactly. Duplicate
    timestamps within a key must be pre-aggregated (raises loudly —
    an ambiguous neighbor would be nondeterministic).

    Scale shape: ONE hash-bucket exchange of the skinny (key, ts,
    value) rows; per bucket each key's grid is generated in-task
    (``max_points_per_key``-guarded) and both neighbors resolve with
    two vectorized ``searchsorted`` calls — no second input pass, no
    per-key Python."""
    if every_us <= 0:
        raise ValueError("resample_interp: every_us must be positive")

    from .bucketing import bucketed_map_groups, key_segments

    def interp(t: pa.Table) -> pa.Table:
        for c in (key, ts_col, value_col):
            if t.column(c).null_count:
                raise ValueError(
                    f"resample_interp: column {c!r} has nulls")
        t = t.sort_by([(key, "ascending"), (ts_col, "ascending")])
        ts = t.column(ts_col).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        if not (np.issubdtype(ts.dtype, np.integer)
                and np.issubdtype(v.dtype, np.integer)):
            raise TypeError(
                "resample_interp: ts and value must be integer columns "
                "(µs / scaled ints)")
        n = len(ts)
        empty = pa.table({key: t.column(key).slice(0, 0),
                          grid_name: pa.array([], pa.int64()),
                          out_col: pa.array([], pa.int64())})
        if n == 0:
            return empty
        ts = ts.astype(np.int64)
        v = v.astype(np.int64)
        keys_np = t.column(key).to_numpy(zero_copy_only=False)
        change, _ = key_segments(keys_np)
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        if ((~change) & np.r_[True, ts[1:] == ts[:-1]]).any():
            raise ValueError(
                "resample_interp: duplicate timestamps within a key — "
                "pre-aggregate observations first")
        # vectorized per-segment grids: no Python per key
        first, last = ts[starts], ts[ends - 1]
        g0 = (first // every_us) * every_us
        g0 = np.where(g0 < first, g0 + every_us, g0)
        npts = np.maximum((last - g0) // every_us + 1, 0)
        if npts.size and int(npts.max()) > max_points_per_key:
            raise ValueError(
                f"resample_interp: {int(npts.max()):,} grid points for "
                f"one key exceed max_points_per_key="
                f"{max_points_per_key:,}")
        total = int(npts.sum())
        if total == 0:
            return empty
        seg_rep = np.repeat(np.arange(len(starts)), npts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(npts) - npts, npts)
        grid = g0[seg_rep] + within * every_us
        # one global searchsorted over the segment-lifted composite
        lo = int(ts.min())
        stride = (int(ts.max()) - lo) + int(every_us) + 2
        n_seg = len(starts)
        if stride > (2 ** 62) // max(n_seg, 1):
            raise ValueError(
                "resample_interp: lifted composite would overflow — "
                "raise n_buckets or narrow the ts range")
        seg_id_row = np.cumsum(change) - 1
        comp_ts = (ts - lo) + seg_id_row * stride
        comp_grid = (grid - lo) + seg_rep * stride
        nxt = np.searchsorted(comp_ts, comp_grid, side="left")
        prv = np.searchsorted(comp_ts, comp_grid, side="right") - 1
        pt, nt = ts[prv], ts[nxt]
        pv, nv = v[prv], v[nxt]
        den = nt - pt
        # the multiply is (nv − pv) · (grid − pt) with grid − pt
        # bounded by the OBSERVATION GAP den, not the grid step —
        # guard max|Δv| · max(gap) (conservative cross-product, exact
        # Python ints; a 30-day gap × a large delta is exactly the
        # sparse-gauge case this function targets)
        dv_max = int(np.abs(nv - pv).max()) if total else 0
        gap_max = int(den.max()) if total else 0
        if dv_max and gap_max and dv_max > (2 ** 62) // gap_max:
            raise ValueError(
                "resample_interp: value delta × observation gap would "
                "overflow int64 — rescale the value column or band "
                "the gaps")
        num = (nv - pv) * (grid - pt)
        # truncation toward zero = SQL // (num may be negative)
        q = np.where(den > 0,
                     np.sign(num) * (np.abs(num) // np.maximum(den, 1)),
                     0)
        karr = (t.column(key).combine_chunks()
                if isinstance(t.column(key), pa.ChunkedArray)
                else t.column(key)).take(pa.array(starts[seg_rep]))
        return pa.table({key: karr,
                         grid_name: pa.array(grid),
                         out_col: pa.array(pv + q)})

    return bucketed_map_groups(ds, key, interp, n_buckets=n_buckets)


def grid_densify(ds: ray.data.Dataset, row_col: str, col_col: str, *,
                 count_name: str = "n",
                 max_cells: int = 5_000_000) -> ray.data.Dataset:
    """Dense grid zero-fill — the dashboard "no gaps in the series"
    contract: count rows per (row_col, col_col) and emit EVERY
    observed-row × observed-col cell, absent combinations as explicit
    zeros (the routing-connector fan-out's "every sink reports, even
    empty" analog). The spine is the cross product of the OBSERVED
    row and column value sets (no calendar synthesis — engine-parity
    by construction). Counts ride the two-phase aggregate; the grid is
    built in ONE final task over the bounded count table with a
    vectorized Arrow left join; ``max_cells`` raises loudly before the
    cross product materializes."""
    from .aggregate import grouped_count

    counts = grouped_count(ds.select_columns([row_col, col_col]),
                           [row_col, col_col], count_name=count_name)

    def fin(t: pa.Table) -> pa.Table:
        for c in (row_col, col_col):
            if t.column(c).null_count:
                raise ValueError(
                    f"grid_densify: {c!r} has null key values — "
                    "Arrow's left join never matches null keys, so "
                    "the real count would be silently replaced by "
                    "the zero fill; fill them upstream")
        rows = pc.unique(t.column(row_col).combine_chunks())
        cols = pc.unique(t.column(col_col).combine_chunks())
        n_cells = len(rows) * len(cols)
        if n_cells > max_cells:
            raise ValueError(
                f"grid_densify: {len(rows)}×{len(cols)} = {n_cells} "
                f"cells exceeds max_cells={max_cells}")
        grid = pa.table({
            row_col: pa.concat_arrays([rows] * len(cols))
            if len(cols) else rows.slice(0, 0),
            col_col: cols.take(pa.array(
                np.repeat(np.arange(len(cols)), len(rows))))})
        j = grid.join(t, keys=[row_col, col_col], join_type="left outer")
        filled = pc.fill_null(j.column(count_name),
                              pa.scalar(0, pa.int64()))
        return j.set_column(j.column_names.index(count_name),
                            count_name, filled)

    return counts.repartition(1).map_batches(fin, batch_format="pyarrow",
                                             batch_size=None)
