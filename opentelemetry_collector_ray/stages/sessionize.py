"""Windowed / session aggregation over an ordered event stream.

The reference has no event-time windows (SURVEY.md §2.10 — the collector
is an at-arrival forwarder); in batch mode windowing is exact. Pattern
(Ray guide "streaming-shaped workloads"): treat the input as a partitioned
log — hash-partition by key, sort by ts within the group, window with
vectorized numpy over SORTED ARROW buffers inside ``map_groups`` (no
Arrow→pandas round trip; ``Table.sort_by`` + ``key_segments`` replace the
pandas sort/groupby). The partitioning assumption is explicit: all rows of
one key fit one group task (salt/split by time range if a single key
exceeds worker memory); ``n_buckets="auto"`` scales the bucket count with
input bytes (stages/bucketing.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..functions.groupsafe import group_aggregate
from .bucketing import bucketed_map_groups, key_segments

N_SESSION_BUCKETS = 64


def _session_ids(t: pa.Table, key: str, ts_col: str,
                 order_cols: list[str], gap_us: int) -> tuple[pa.Table, np.ndarray]:
    """Sort one bucket by (key, order) and compute 0-based per-key session
    ids — one vectorized pass over all keys in the bucket."""
    t = t.sort_by([(key, "ascending")] + [(c, "ascending") for c in order_cols])
    keys = t.column(key).to_numpy(zero_copy_only=False)
    ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    n = len(keys)
    change, _ = key_segments(keys)
    new = change.copy()
    if n > 1:
        new[1:] |= (ts[1:] - ts[:-1]) > gap_us
    run = np.cumsum(new)
    # rebase the running new-session count per key (run is nondecreasing,
    # so max-accumulate of the key-start snapshots is an exact forward fill)
    first = np.maximum.accumulate(np.where(change, run, 0))
    return t, (run - first).astype(np.int64)


def sessionize(events: ray.data.Dataset, key: str = "user_id", ts_col: str = "ts",
               order_cols: tuple[str, ...] = ("ts", "event_id"),
               gap: pd.Timedelta = pd.Timedelta(minutes=30),
               n_buckets: int | str = N_SESSION_BUCKETS) -> ray.data.Dataset:
    """Gap-based session assignment: a new session starts when the time
    since the previous event of the same key exceeds ``gap``. Adds
    ``session_id`` (0-based per key, in ts order).

    Shuffle keys on hash(key) % n_buckets — the map_groups unit is a
    bucket of many keys, processed in one vectorized pass (no per-key
    Python)."""
    gap_us = int(gap.value // 1000)

    def assign(t: pa.Table) -> pa.Table:
        t, sid = _session_ids(t, key, ts_col, list(order_cols), gap_us)
        return t.append_column("session_id", pa.array(sid))

    return bucketed_map_groups(events, key, assign, n_buckets=n_buckets)


def session_stats(events: ray.data.Dataset, key: str = "user_id",
                  ts_col: str = "ts", gap_minutes: int = 30,
                  n_buckets: int | str = N_SESSION_BUCKETS) -> ray.data.Dataset:
    """Per (key, session): n_events, start_ts, end_ts — the windowed
    aggregate shape. Session assignment and the per-session reduce run in
    the SAME bucket task (one shuffle total, vectorized across all keys of
    the bucket; the reduce is an Arrow group_by, not pandas)."""
    gap_us = gap_minutes * 60 * 1_000_000

    def assign_and_reduce(t: pa.Table) -> pa.Table:
        order = [ts_col, "event_id"] if "event_id" in t.column_names \
            else [ts_col]
        t, sid = _session_ids(t, key, ts_col, order, gap_us)
        t = t.append_column("session_id", pa.array(sid))
        g = group_aggregate(t, [key, "session_id"],
            [(ts_col, "count"), (ts_col, "min"), (ts_col, "max")])
        return pa.table({
            key: g.column(key),
            "session_id": g.column("session_id"),
            "n_events": g.column(f"{ts_col}_count").cast(pa.int64()),
            "start_ts": g.column(f"{ts_col}_min"),
            "end_ts": g.column(f"{ts_col}_max"),
        })

    return bucketed_map_groups(events, key, assign_and_reduce,
                               n_buckets=n_buckets)


def tumbling_window_count(events: ray.data.Dataset, key: str, ts_col: str = "ts",
                          unit: str = "hour") -> ray.data.Dataset:
    """Tumbling event-time window counts — degenerates to the two-phase
    grouped count on (key, time-bucket), exact in batch."""
    import pyarrow.compute as pc

    from .aggregate import grouped_count

    with_bucket = events.map_batches(
        lambda t: t.append_column("bucket", pc.floor_temporal(t.column(ts_col),
                                                              unit=unit)),
        batch_format="pyarrow")
    return grouped_count(with_bucket.select_columns([key, "bucket"]),
                         [key, "bucket"], count_name="n_events")


def sliding_window_count(events: ray.data.Dataset, key: str,
                         ts_col: str = "ts", window_hours: int = 3,
                         slide_hours: int = 1) -> ray.data.Dataset:
    """SLIDING (hopping) event-time window counts: window length W =
    ``window_hours``, hop S = ``slide_hours`` (W must be a multiple of
    S). Each event at hour h contributes to the W/S windows starting at
    h, h-S, …, h-W+S (each window covers [start, start+W)).

    Scale shape: the explode is a vectorized k-fold repeat per batch
    (k = W/S, a small constant) followed by the standard two-phase
    grouped count on (key, window_start) — the shuffle moves k·rows
    fixed-width rows, never a per-window Python loop. Exact in batch
    (the collector has no event-time windows — SURVEY.md §2.10).
    Rows with a null timestamp are dropped (a null has no window; the
    SQL mirror filters them the same way)."""
    import pyarrow.compute as pc

    from .aggregate import grouped_count

    if window_hours % slide_hours:
        raise ValueError("window_hours must be a multiple of slide_hours")
    k = window_hours // slide_hours
    slide_us = slide_hours * 3_600_000_000

    def explode(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(ts_col)))
        h = pc.floor_temporal(t.column(ts_col).cast(pa.timestamp("us")),
                              unit="hour")
        h_us = h.cast(pa.int64()).to_numpy(zero_copy_only=False)
        # snap to the hop grid, then emit the k covering window starts
        base = (h_us // slide_us) * slide_us
        starts = (np.repeat(base, k)
                  - np.tile(np.arange(k, dtype=np.int64) * slide_us,
                            len(base)))
        keys = t.column(key).take(
            pa.array(np.repeat(np.arange(t.num_rows), k)))
        return pa.table({
            key: keys,
            "window_start": pa.array(starts).cast(pa.timestamp("us")),
        })

    exploded = events.select_columns([key, ts_col]).map_batches(
        explode, batch_format="pyarrow")
    return grouped_count(exploded, [key, "window_start"],
                         count_name="n_events")


def longest_run(ds: ray.data.Dataset, key: str, ordinal_col: str,
                n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Per-``key`` longest CONSECUTIVE run of distinct integer ordinals
    — the gaps-and-islands streak metric (longest consecutive-day
    activity streak, longest unbroken epoch sequence). Input rows are
    (key, ordinal) observations; duplicates collapse first. Output:
    ``(key, n_ordinals, longest_run)``.

    Scale shape: dedupe via per-batch partials + ONE bucket exchange
    (``grouped_count`` bucket partials bound a hot key's traffic to
    one row per batch per ordinal), then per bucket the classic
    island id ``ordinal − rank`` is pure segment arithmetic on the
    sorted table — islands are runs of constant id, their lengths one
    ``reduceat`` away. No Python per key."""
    import numpy as np

    from .aggregate import grouped_count
    from .bucketing import bucketed_map_groups, key_segments

    distinct = grouped_count(ds.select_columns([key, ordinal_col]),
                             [key, ordinal_col], count_name="_n")

    def fold(t: pa.Table) -> pa.Table:
        kt = t.column(key).type
        if t.num_rows == 0:
            return pa.schema([(key, kt), ("n_ordinals", pa.int64()),
                              ("longest_run", pa.int64())]).empty_table()
        oc = t.column(ordinal_col)
        if oc.null_count:
            raise ValueError(
                f"longest_run: {ordinal_col!r} has nulls — a null has "
                "no place on the number line; filter them first")
        t = t.sort_by([(key, "ascending"), (ordinal_col, "ascending")])
        k = t.column(key).to_numpy(zero_copy_only=False)
        o = t.column(ordinal_col).to_numpy(zero_copy_only=False)
        if o.dtype.kind not in "iu":
            raise ValueError(
                f"longest_run: {ordinal_col!r} must be integer "
                f"(day number, epoch index), got {o.dtype}")
        o = o.astype(np.int64)
        n = len(k)
        _, seg_start = key_segments(k)
        pos = np.arange(n, dtype=np.int64)
        rank = pos - seg_start
        island = o - rank                    # constant within a run
        isl_new = np.append(True, (k[1:] != k[:-1]) |
                            (island[1:] != island[:-1]))
        isl_len = np.diff(np.append(np.flatnonzero(isl_new), n))
        # longest island per key: max-reduceat over per-row island
        # lengths at key boundaries
        per_row_len = np.repeat(isl_len, isl_len)
        bounds = np.flatnonzero(np.append(True, k[1:] != k[:-1]))
        longest = np.maximum.reduceat(per_row_len, bounds)
        n_ord = np.diff(np.append(bounds, n))
        return pa.table({
            key: pa.array(k[bounds], type=kt),
            "n_ordinals": pa.array(n_ord.astype(np.int64)),
            "longest_run": pa.array(longest.astype(np.int64))})

    return bucketed_map_groups(distinct, key, fold, n_buckets=n_buckets)
