"""Distributed per-key interval merging (gaps-and-islands).

Coalesces overlapping / near-adjacent ``[start, end]`` intervals into
maximal merged periods per key — the trace-concurrency / host-busy-time
rollup every APM backend derives from spans (SQL expresses it as the
gaps-and-islands window chain; see the ``spans_busy_periods`` oracle in
``__ray_entry__.py``). The collector itself has no such operator — this
is an engine addition in the spirit of the spanmetrics / servicegraph
connectors (reference: ``connector/spanmetricsconnector`` README — span
streams rolled up into derived signals).

Scale shape: interval merging is ASSOCIATIVE (pre-merging any subset of
a key's intervals never changes the final coalescing), so the operator
is two-phase like the counting aggregates: a per-block pre-merge
shrinks each batch to its local merged periods (carrying a merge count
as the weight), then ONE hash-bucket exchange on ``key`` (the repo's
bounded-group idiom, ``stages/bucketing.py``) re-merges the partials.
This matters precisely when the key is LOW-cardinality (4 services at
100 TB): the per-key chain in the final task sees only pre-merged
partials, not every raw interval. Inside a task everything is one Arrow
``sort_by`` plus O(n) numpy — the per-segment running max rides a
segment-lifted composite (same lift trick as ``stages/window.py``:
values rebased to the bucket minimum, each key segment lifted by
``seg_id * stride`` so one global ``np.maximum.accumulate`` computes
every per-key cummax at once, with a loud ``2^62`` overflow guard).
Only (key, start, end, count) columns ever shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .bucketing import bucketed_map_groups, key_segments
from .treereduce import collect


def _merge_table(t: pa.Table, key: str, start_col: str, end_col: str,
                 gap: int, count_name: str) -> pa.Table:
    """Merge one in-memory table's intervals per key. If ``count_name``
    is already a column it is summed across merged members (re-merge of
    partials); otherwise each input row counts 1."""
    has_w = count_name in t.column_names
    t = t.sort_by([(key, "ascending"), (start_col, "ascending"),
                   (end_col, "ascending")])
    s = t.column(start_col).to_numpy(zero_copy_only=False)
    e = t.column(end_col).to_numpy(zero_copy_only=False)
    if not (np.issubdtype(s.dtype, np.integer)
            and np.issubdtype(e.dtype, np.integer)):
        raise TypeError(
            f"merge_intervals: {start_col!r}/{end_col!r} must be integer "
            f"columns, got {s.dtype}/{e.dtype} (cast timestamps to epoch "
            "integers first)")
    s = s.astype(np.int64)
    e = e.astype(np.int64)
    bad = np.flatnonzero(e < s)
    if len(bad):
        raise ValueError(
            f"merge_intervals: {len(bad)} rows with {end_col} < "
            f"{start_col} (first: start={s[bad[0]]}, end={e[bad[0]]})")
    n = len(s)
    w = (t.column(count_name).to_numpy(zero_copy_only=False)
         .astype(np.int64) if has_w else np.ones(n, np.int64))
    if not n:
        return pa.table({key: t.column(key), start_col: pa.array(s),
                         end_col: pa.array(e), count_name: pa.array(w)})
    change, _ = key_segments(t.column(key).to_numpy(zero_copy_only=False))
    seg_id = np.cumsum(change) - 1
    lo = int(s.min())
    hi = int(e.max())
    stride = (hi - lo) + gap + 2
    n_seg = int(seg_id[-1]) + 1
    if stride > (2 ** 62) // max(n_seg, 1):
        raise ValueError(
            f"merge_intervals: lifted composite would overflow (range "
            f"{hi - lo:,} x {n_seg:,} key segments in one task); raise "
            "n_buckets or narrow the value range")
    # one global cummax = every per-key running max end at once
    cum_end = (np.maximum.accumulate((e - lo) + seg_id * stride)
               - seg_id * stride + lo)
    new_island = change.copy()
    cont = ~change  # cont[i] => row i-1 is the SAME key's previous row
    new_island[cont] |= s[cont] > cum_end[:-1][cont[1:]] + gap
    istarts = np.flatnonzero(new_island)
    iends = np.append(istarts[1:], n) - 1
    # per-segment cummax at an island's last row IS the island max:
    # earlier islands' ends are < this island's start <= its ends
    return pa.table({
        key: t.column(key).take(pa.array(istarts)),
        start_col: pa.array(s[istarts]),
        end_col: pa.array(cum_end[iends]),
        count_name: pa.array(np.add.reduceat(w, istarts)),
    })


def merge_intervals(ds: ray.data.Dataset, key: str, start_col: str,
                    end_col: str, *, min_gap: int = 0,
                    n_buckets: int | str = "auto", prereduce: bool = True,
                    out_start: str = "merged_start",
                    out_end: str = "merged_end",
                    count_name: str = "n_intervals") -> ray.data.Dataset:
    """Merge intervals per ``key``: two intervals belong to the same
    merged period when the later one starts at most ``min_gap`` after
    the running maximum end of the earlier ones (``min_gap=0`` merges
    touching intervals; a positive gap gives sessionization-style
    tolerance). ``start_col`` / ``end_col`` must be integer-valued
    (cast timestamps to epoch integers first — the repo convention) with
    ``end >= start`` per row, validated loudly per task.

    ``prereduce`` (default on) merges within each block before the
    exchange — exact by associativity, and the reason a 4-key corpus
    still scales: the exchange and the final per-key chain see partial
    periods, not raw intervals.

    Output: one row per merged period — ``key``, ``out_start`` (min
    start), ``out_end`` (max end), ``count_name`` (intervals merged).
    """
    if min_gap < 0:
        raise ValueError(
            f"merge_intervals: min_gap must be >= 0, got {min_gap}")
    gap = int(min_gap)
    for c in (out_start, out_end, count_name):
        if c in (key,):
            raise ValueError(f"merge_intervals: output column {c!r} "
                             "collides with the key column")

    ds = ds.select_columns([key, start_col, end_col])
    if prereduce:
        ds = ds.map_batches(
            lambda t: _merge_table(t, key, start_col, end_col, gap,
                                   count_name),
            batch_format="pyarrow")

    def final(t: pa.Table) -> pa.Table:
        m = _merge_table(t, key, start_col, end_col, gap, count_name)
        return m.rename_columns([key, out_start, out_end, count_name])

    return bucketed_map_groups(ds, key, final, n_buckets=n_buckets)


def concurrency_profile(make_ds, key: str, start_col: str,
                        end_col: str, *, out_time: str = "t",
                        out_conc: str = "concurrency",
                        num_partitions: int | None = None,
                        persist: str = "none") -> ray.data.Dataset:
    """Sweep-line concurrency: for every interval boundary, how many
    intervals of that ``key`` are open — the span-concurrency /
    active-sessions profile behind the busy-period rollup. Half-open
    semantics: at equal time, ends (-1) sort before starts (+1), so
    touching intervals never overlap.

    Scale shape — a composition with NO whole-key task (unlike the
    merge, a profile cannot pre-reduce, so a per-key bucket would hold
    a hot key's entire stream): each interval emits two delta rows,
    ``global_sort`` range-partitions them by (key, time, delta) with a
    dense global rank, and ``ordered_prefix_sum`` over that rank gives
    the running sum. Because every interval adds +1 and -1 to the SAME
    key, each key's total delta is zero — the global prefix at a key's
    first row is exactly zero, so the GLOBAL running sum equals the
    per-key running sum with no per-key base correction at all.

    Output: ``key``, ``out_time`` (boundary), ``delta`` (+1/-1),
    ``out_conc`` (inclusive running concurrency). ``make_ds`` is a
    zero-arg factory (two-pass sort contract; ``persist=`` as usual).
    """
    from .packing import ordered_prefix_sum
    from .sort import global_sort

    def deltas(t: pa.Table) -> pa.Table:
        s = t.column(start_col).to_numpy(zero_copy_only=False)
        e = t.column(end_col).to_numpy(zero_copy_only=False)
        if not (np.issubdtype(s.dtype, np.integer)
                and np.issubdtype(e.dtype, np.integer)):
            raise TypeError(
                f"concurrency_profile: {start_col!r}/{end_col!r} must "
                f"be integer columns, got {s.dtype}/{e.dtype}")
        bad = np.flatnonzero(e < s)
        if len(bad):
            raise ValueError(
                f"concurrency_profile: {len(bad)} rows with "
                f"{end_col} < {start_col}")
        n = t.num_rows
        k = t.column(key).combine_chunks()
        kk = pa.chunked_array([k, k]).combine_chunks()
        return pa.table({
            key: kk,
            out_time: pa.array(np.concatenate([s, e]).astype(np.int64)),
            "delta": pa.array(np.concatenate(
                [np.ones(n, np.int64), -np.ones(n, np.int64)])),
        })

    def make_deltas():
        return make_ds().select_columns(
            [key, start_col, end_col]).map_batches(
            deltas, batch_format="pyarrow")

    srt = global_sort(make_deltas, [key, out_time, "delta"],
                      rank_col="_rank", num_partitions=num_partitions,
                      persist=persist)
    cum = ordered_prefix_sum(lambda: srt, "_rank", "delta",
                             out_col="_before")

    def finish(t: pa.Table) -> pa.Table:
        conc = pc.add(t.column("_before"), t.column("delta"))
        return pa.table({key: t.column(key),
                         out_time: t.column(out_time),
                         "delta": t.column("delta"),
                         out_conc: pc.cast(conc, pa.int64())})

    return cum.map_batches(finish, batch_format="pyarrow")


def overlap_pair_count(ds: ray.data.Dataset, key: str, start_col: str,
                       end_col: str, *,
                       count_name: str = "n_overlap_pairs",
                       n_name: str = "n_intervals",
                       n_buckets: int | str = "auto"
                       ) -> ray.data.Dataset:
    """Per-key count of OVERLAPPING interval pairs — the contention
    metric behind "how many span pairs contended on this service"
    (pairs (i, j), i ≠ j, with ``start_i < end_j AND start_j < end_i``;
    SQL's quadratic self-join, computed in O(n log n)). Intervals must
    have strictly positive length (``end > start``, validated loudly —
    a zero-length point overlaps nothing and breaks the subtraction
    identity below).

    Scale shape: overlap counting is NOT associative (a pre-reduced
    block forgets where its intervals were), so all rows of a key
    co-locate through ONE hash-bucket exchange of the skinny (key,
    start, end) rows; inside the bucket the quadratic pair set is never
    formed — per row ``i``, overlaps = #{start_j < end_i} − #{end_j ≤
    start_i} − 1 (the subtracted set is contained in the first because
    lengths are positive; self is always counted once), each term ONE
    global ``np.searchsorted`` over a segment-lifted composite (the
    ``stages/window.py`` lift: per-segment values rebased to the
    segment start and lifted by ``seg_id * stride``, loud ``2^62``
    guard), then ``np.add.reduceat`` per segment and a halving — every
    unordered pair was counted from both ends."""

    def bucket_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key: t.column(key),
                             count_name: pa.array([], pa.int64()),
                             n_name: pa.array([], pa.int64())})
        for c in (start_col, end_col):
            if t.column(c).null_count:
                raise ValueError(
                    f"overlap_pair_count: {c!r} has nulls")
        t = t.sort_by([(key, "ascending"), (start_col, "ascending"),
                       (end_col, "ascending")])
        s = t.column(start_col).to_numpy(zero_copy_only=False)
        e = t.column(end_col).to_numpy(zero_copy_only=False)
        if s.dtype.kind == "M":
            s = s.view("i8")
        if e.dtype.kind == "M":
            e = e.view("i8")
        s = s.astype(np.int64, copy=False)
        e = e.astype(np.int64, copy=False)
        if (e <= s).any():
            raise ValueError(
                "overlap_pair_count: intervals must have end > start "
                "(zero-length points overlap nothing)")
        keys = t.column(key).to_numpy(zero_copy_only=False)
        change, seg_start = key_segments(keys)
        seg_id = np.cumsum(change) - 1
        base = s[seg_start]
        rel_s, rel_e = s - base, e - base
        max_rel = int(rel_e.max())
        stride = max_rel + 2
        n_seg = int(seg_id[-1]) + 1
        if stride > (2 ** 62) // max(n_seg, 1):
            raise ValueError(
                "overlap_pair_count: lifted composite would overflow "
                f"int64 ({n_seg} keys x interval span {max_rel}); "
                "rebase the time columns to a corpus epoch first")
        comp_s = seg_id * stride + rel_s   # globally sorted
        comp_e = seg_id * stride + rel_e   # sorted only after np.sort
        starts_before_end = np.searchsorted(comp_s, comp_e, side="left")
        ends_sorted = np.sort(comp_e)
        ends_at_or_before_start = np.searchsorted(
            ends_sorted, comp_s, side="right")
        per_row = starts_before_end - ends_at_or_before_start - 1
        firsts = np.flatnonzero(change)
        twice = np.add.reduceat(per_row, firsts)
        sizes = np.diff(np.append(firsts, len(per_row)))
        return pa.table({
            key: t.column(key).take(pa.array(firsts)),
            count_name: pa.array(twice // 2, pa.int64()),
            n_name: pa.array(sizes.astype(np.int64)),
        })

    skinny = ds.select_columns([key, start_col, end_col])
    return bucketed_map_groups(skinny, key, bucket_fn,
                               n_buckets=n_buckets)


def rolling_distinct_count(ds: ray.data.Dataset, entity_col: str,
                           time_col: str, window: int, *,
                           out_time: str = "t",
                           out_count: str = "n_active",
                           max_times: int = 5_000_000,
                           n_buckets: int | str = "auto"
                           ) -> ray.data.Dataset:
    """Rolling-window distinct-entity count — the rolling WAU/MAU
    rollup: for every time unit ``t`` in the covered range, how many
    DISTINCT entities had at least one row in ``[t-window+1, t]``.
    Exact, and computed WITHOUT any per-window COUNT(DISTINCT): an
    entity active at time ``d`` covers the units ``[d, d+window-1]``,
    so the answer at ``t`` is the number of entities whose coverage
    union contains ``t`` — per-entity interval union
    (:func:`merge_intervals`, associative pre-merge + one bucket
    exchange on the entity), then each merged period contributes
    ``+1`` at its start and ``-1`` past its end, one BOUNDED tree sum
    over the time-unit domain, and a driver prefix-sum sweep expands
    the piecewise-constant counts to per-unit rows. Only
    (entity, start, end) interval rows ever shuffle — never raw
    event rows, never per-window entity lists.

    ``time_col`` must be integer time units (days/hours — the repo's
    cast-timestamps-first convention); output rows are exactly the
    units where the count is positive. The time DOMAIN must be
    bounded (``max_times``, HLL-screened before the tree combine
    exists and re-checked on the covered span); entity cardinality is
    unbounded. Nulls in either column raise — a null has no window.

    Reference analog: none — this is the drift/engagement engine
    addition (rolling actives panel) beside the resample/window ops.
    """
    from .aggregate import grouped_agg
    from .sketch import approx_distinct

    w = int(window)
    if w < 1:
        raise ValueError(f"rolling_distinct_count: window must be "
                         f">= 1, got {window}")

    def prep(t: pa.Table) -> pa.Table:
        ent = t.column(entity_col)
        tv = t.column(time_col)
        if ent.null_count or tv.null_count:
            raise ValueError(
                "rolling_distinct_count: null entity/time — a null "
                "has no window; fill or filter upstream")
        if not pa.types.is_integer(tv.type):
            raise TypeError(
                f"rolling_distinct_count: {time_col!r} must be an "
                f"integer time-unit column, got {tv.type} (cast "
                "timestamps to epoch units first)")
        tv = pc.cast(tv, pa.int64())
        return pa.table({
            "_ent": ent, "_s": tv,
            "_e": pc.add_checked(tv, pa.scalar(w - 1, pa.int64()))})

    iv = ds.select_columns([entity_col, time_col]).map_batches(
        prep, batch_format="pyarrow")
    merged = merge_intervals(iv, "_ent", "_s", "_e", min_gap=0,
                             n_buckets=n_buckets)

    def deltas(t: pa.Table) -> pa.Table:
        s = t.column("merged_start").to_numpy(zero_copy_only=False)
        e = t.column("merged_end").to_numpy(zero_copy_only=False)
        n = len(s)
        return pa.table({
            "_t": pa.array(np.concatenate([s, e + 1]).astype(np.int64)),
            "_d": pa.array(np.concatenate(
                [np.ones(n, np.int64), -np.ones(n, np.int64)]))})

    dl = merged.map_batches(deltas, batch_format="pyarrow")
    dl = dl.materialize()  # feeds the HLL screen AND the tree sum
    est = approx_distinct(dl, "_t")
    if est > 1.2 * int(max_times):
        raise ValueError(
            f"rolling_distinct_count: ~{int(est):,} distinct time "
            f"units (HLL estimate, max_times={int(max_times):,}) — "
            "coarsen the time unit or raise the cap")
    sums = grouped_agg(dl, ["_t"], sum_cols={"_d": "_d"}).materialize()
    out_schema = pa.schema([(out_time, pa.int64()),
                            (out_count, pa.int64())])
    parts = collect(sums)
    if not parts:  # empty input: to_pandas would drop the columns
        return ray.data.from_arrow(out_schema.empty_table())
    pdf = pa.concat_tables(parts).to_pandas().sort_values("_t")
    ts = pdf["_t"].to_numpy().astype(np.int64)
    active = np.cumsum(pdf["_d"].to_numpy().astype(np.int64))
    # piecewise-constant between boundaries; expand covered units
    span = int(ts[-1] - ts[0])
    if span > int(max_times):
        raise ValueError(
            f"rolling_distinct_count: covered span {span:,} time "
            f"units exceeds max_times={int(max_times):,} — coarsen "
            "the time unit or raise the cap")
    seg_len = np.diff(ts)           # last boundary has active == 0
    pos = active[:-1] > 0
    starts, lens, counts = ts[:-1][pos], seg_len[pos], active[:-1][pos]
    days = np.repeat(starts, lens) + (
        np.arange(int(lens.sum()))
        - np.repeat(np.cumsum(lens) - lens, lens))
    return ray.data.from_arrow(pa.table({
        out_time: pa.array(days, pa.int64()),
        out_count: pa.array(np.repeat(counts, lens), pa.int64())},
        schema=out_schema))
