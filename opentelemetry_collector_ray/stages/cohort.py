"""Cohort retention — the activation/retention matrix every product
analytics stack derives from an event stream: users grouped by the
period of their FIRST event (the cohort), counted as retained in each
later period they appear in.

Scale shape: two bounded exchanges over skinny rows —
1. per-user first-event period: the bucket idiom on the (unbounded)
   user key, one Arrow sort + segment-first per bucket; the SAME bucket
   pass also deduplicates (user, period) activity rows, so a user's
   million events reduce to their distinct active periods before
   anything wide happens;
2. (cohort_period, offset) counting: bounded keys (periods²/2) → the
   two-phase tree aggregate.
Users never land on the driver; only the final matrix does. Output is
one row per (cohort period, period offset) with the retained distinct
user count — exactly SQL's ``GROUP BY cohort, offset`` over
``min(ts) OVER (PARTITION BY user)``, so the oracle hash-matches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .aggregate import grouped_count
from .bucketing import bucketed_map_groups, key_segments

__all__ = ["cohort_retention"]

_PERIOD_US = {"day": 86_400_000_000, "week": 604_800_000_000}


def cohort_retention(ds: ray.data.Dataset, user_col: str = "user_id",
                     ts_col: str = "ts", period: str = "week",
                     n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Retention matrix: (``cohort_<period>`` — epoch-µs start of the
    user's first period, ``offset`` — whole periods since the cohort,
    ``n_users`` — distinct users from that cohort active at that
    offset). ``period`` is ``"day"`` or ``"week"`` (fixed-width epoch
    buckets, the cross-engine-stable choice — calendar weeks differ by
    locale)."""
    if period not in _PERIOD_US:
        raise ValueError(
            f"cohort_retention: period must be one of "
            f"{sorted(_PERIOD_US)}, got {period!r}")
    width = _PERIOD_US[period]

    def to_periods(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t.column(ts_col), pa.timestamp("us")),
                     pa.int64())
        p = pc.multiply(pc.divide(us, width), width)
        return pa.table({user_col: t.column(user_col), "_p": p})

    pre = ds.select_columns([user_col, ts_col]).map_batches(
        to_periods, batch_format="pyarrow")

    def per_user(t: pa.Table) -> pa.Table:
        # one sort: (user, period); segment starts give the cohort,
        # period-change rows give the distinct activity set
        t = t.sort_by([(user_col, "ascending"), ("_p", "ascending")])
        u = t.column(user_col).to_numpy(zero_copy_only=False)
        p = t.column("_p").to_numpy(zero_copy_only=False)
        change, seg_start = key_segments(u)
        cohort = p[seg_start]  # broadcast: first period of each user
        keep = change.copy()
        if len(p) > 1:
            keep[1:] |= p[1:] != p[:-1]
        off = (p[keep] - cohort[keep]) // width
        return pa.table({
            "cohort": pa.array(cohort[keep]),
            "offset": pa.array(off.astype(np.int64)),
        })

    pairs = bucketed_map_groups(pre, user_col, per_user,
                                n_buckets=n_buckets)
    out = grouped_count(pairs, ["cohort", "offset"],
                        count_name="n_users")
    return out.map_batches(
        lambda t: t.rename_columns([f"cohort_{period}", "offset",
                                    "n_users"]),
        batch_format="pyarrow")


def audience_overlap(ds: "ray.data.Dataset", group_col: str,
                     day_col: str, user_col: str,
                     n_buckets: int | str = "auto"
                     ) -> "ray.data.Dataset":
    """Day-over-day audience overlap per group — the population-drift
    lane (how much of today's active user set is yesterday's): for
    every (group, day) with an active previous day, the distinct-user
    counts, the returning-user intersection, and the exact Jaccard
    permille ``1000·|A∩B| // |A∪B|``.

    Scale shape (users unbounded, groups×days bounded by the corpus
    span): the (group, day, user) triple deduplicates through shuffle
    partials; per (group, user) the sorted day list marks consecutive
    days with one lag compare inside a bucket task (the intersection
    membership — never a user-level self-join); both lanes then reduce
    to the tiny (group, day) table, where yesterday's total arrives
    via one more lag window. No driver-side merge."""
    from .aggregate import grouped_agg
    from .bucketing import bucketed_map_groups, key_segments
    from .window import per_key_window

    def batch_unique(t: pa.Table) -> pa.Table:
        # per-batch pre-dedupe (one Arrow group_by) so only unique
        # triples ride the bucket exchange; cross-batch duplicates are
        # dropped inside the bucket task below — ONE exchange total
        # (a separate distinct pass cost a full second exchange).
        return t.select([group_col, day_col, user_col]).group_by(
            [group_col, day_col, user_col]).aggregate([])

    distinct = ds.map_batches(batch_unique, batch_format="pyarrow")

    def mark(t: pa.Table) -> pa.Table:
        gt = t.column(group_col).type
        if t.num_rows == 0:
            return pa.schema([(group_col, gt), (day_col, pa.int64()),
                              ("_present", pa.int64()),
                              ("_inter", pa.int64())]).empty_table()
        dc = t.column(day_col)
        if dc.null_count:
            raise ValueError(
                f"audience_overlap: {day_col!r} has nulls")
        t = t.sort_by([("_gu", "ascending"), (day_col, "ascending")])
        gu = t.column("_gu").to_numpy(zero_copy_only=False)
        d = t.column(day_col).to_numpy(zero_copy_only=False)
        if d.dtype.kind not in "iu":
            raise ValueError(
                f"audience_overlap: {day_col!r} must be an integer day "
                f"ordinal, got {d.dtype}")
        d = d.astype(np.int64)
        change, _ = key_segments(gu)
        prev_same = ~change
        # cross-batch duplicate (gu, day) rows survive the per-batch
        # pre-dedupe — drop them here (sorted, so duplicates adjoin)
        if len(d) > 1:
            dup = np.append(False, prev_same[1:] & (d[1:] == d[:-1]))
            if dup.any():
                keep = ~dup
                t = t.filter(pa.array(keep))
                gu = gu[keep]
                d = d[keep]
                change, _ = key_segments(gu)
                prev_same = ~change
        inter = np.zeros(len(d), np.int64)
        if len(d) > 1:
            inter[1:] = (prev_same[1:] & (d[1:] == d[:-1] + 1)
                         ).astype(np.int64)
        return pa.table({group_col: t.column(group_col),
                         day_col: pa.array(d),
                         "_present": pa.array(np.ones(len(d), np.int64)),
                         "_inter": pa.array(inter)})

    def add_gu(t: pa.Table) -> pa.Table:
        gu = pc.binary_join_element_wise(
            pc.cast(t.column(group_col), pa.string()),
            pc.cast(t.column(user_col), pa.string()), "\x1f")
        return t.append_column("_gu", gu)

    marked = bucketed_map_groups(
        distinct.map_batches(add_gu, batch_format="pyarrow"),
        "_gu", mark, n_buckets=n_buckets)
    daily = grouped_agg(marked, [group_col, day_col],
                        sum_cols={"n_today": "_present",
                                  "n_inter": "_inter"})
    win = per_key_window(daily, group_col, [day_col],
                         {"_prev_day": ("lag", day_col),
                          "n_prev": ("lag", "n_today")})

    def lanes(t: pa.Table) -> pa.Table:
        pd_ = t.column("_prev_day")
        d = t.column(day_col)
        contig = pc.fill_null(
            pc.equal(pd_, pc.add(pc.cast(d, pa.int64()),
                                 pa.scalar(-1, pa.int64()))), False)
        t = t.filter(contig)
        nt = t.column("n_today").to_numpy(zero_copy_only=False)
        np_ = t.column("n_prev").to_numpy(zero_copy_only=False).astype(
            np.int64)
        ni = t.column("n_inter").to_numpy(zero_copy_only=False)
        union = nt + np_ - ni
        jac = np.zeros(len(nt), np.int64)
        np.floor_divide(1000 * ni, union, out=jac, where=union > 0)
        out = {group_col: t.column(group_col), day_col: t.column(day_col),
               "n_today": t.column("n_today"),
               "n_prev": pa.array(np_), "n_inter": t.column("n_inter"),
               "jaccard_permille": pa.array(jac)}
        return pa.table(out)

    return win.map_batches(lanes, batch_format="pyarrow")
