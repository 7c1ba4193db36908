"""Cardinality limiter — the OTel SDK metrics "cardinality limit"
semantic (opentelemetry-specification metrics SDK: when a metric's
attribute-set count exceeds the configured limit, excess series
collapse into a single overflow series carrying the aggregated values)
re-expressed as a batch operator. The reference collector hits the
same problem class in the metrics pipeline (unbounded label domains
blowing up downstream state); this is the bounded-release analog:
per group (metric identity), keep the top-``k`` series by count and
fold every other series into one overflow row per group, so the
output cardinality is at most ``(k + 1) × |groups|`` regardless of
the input's series domain.

Determinism: series rank by (count DESC, series value ASC) — a total
order, so the kept set matches SQL ``ROW_NUMBER()`` exactly.

Scale shape: the raw rows reduce ONCE to the skinny
(group, series, count, sums...) table via the two-phase grouped
count (bucket exchange — series domains are unbounded by
definition here, per-batch partials bound what moves); the cap
itself then rides ONE more hash-bucket exchange of those skinny
rows, with complete groups per bucket, so the keep/overflow split
is a single vectorized sort + segment-rank pass per bucket — never
a Python call per group, never a global sort, and raw rows never
move twice.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

__all__ = ["cardinality_cap"]


def cardinality_cap(ds: ray.data.Dataset, group_col: str, series_col: str,
                    k: int, *, overflow_value,
                    count_name: str = "n",
                    sum_cols: dict[str, str] | None = None,
                    n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Aggregate ``ds`` to one row per (group, series), then cap each
    group at its top-``k`` series by count (ties broken by series value
    ascending); all remaining series of a group collapse into one
    overflow row with ``series_col = overflow_value`` carrying the
    summed count/sum lanes. Groups with ≤ k series emit no overflow
    row (mirroring SQL's GROUP BY dropping empty groups).

    Output columns: ``group_col, series_col, count_name, *sum_cols``.
    ``overflow_value`` must be castable to the series column's type and
    must not collide with a real series value (raises when it does —
    a silent merge would corrupt the kept lane).
    """
    from .aggregate import grouped_count
    from .bucketing import bucketed_map_groups, key_segments

    if k < 1:
        raise ValueError("cardinality_cap: k must be >= 1")
    sums = dict(sum_cols or {})
    value_cols = [count_name] + list(sums)
    out_cols = [group_col, series_col] + value_cols

    def check(t: pa.Table) -> pa.Table:
        for c in (group_col, series_col):
            if t.column(c).null_count:
                raise ValueError(
                    f"cardinality_cap: {c!r} has nulls — fill or drop "
                    "nulls first (SQL groups them, Arrow sort/rank "
                    "ordering would silently diverge)")
        return t

    series = grouped_count(
        ds.map_batches(check, batch_format="pyarrow"),
        [group_col, series_col], count_name=count_name,
        sum_cols=sums or None, n_buckets=n_buckets)

    order = [(group_col, "ascending"), (count_name, "descending"),
             (series_col, "ascending")]

    def cap(t: pa.Table) -> pa.Table:
        t = t.select(out_cols)
        ov = pa.scalar(overflow_value).cast(t.schema.field(series_col).type)
        if t.filter(pc.equal(t.column(series_col), ov)).num_rows:
            raise ValueError(
                f"cardinality_cap: overflow_value {overflow_value!r} "
                "collides with a real series value")
        t = t.sort_by(order)
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        _, seg_start = key_segments(g)
        rank = np.arange(len(g)) - seg_start
        keep = rank < k
        kept = t.filter(pa.array(keep))
        rest = t.filter(pa.array(~keep))
        if rest.num_rows == 0:
            return kept
        over = rest.group_by([group_col], use_threads=False).aggregate(
            [(c, "sum") for c in value_cols])
        n_over = over.num_rows
        over_tbl = pa.table(
            {group_col: over.column(group_col),
             series_col: pa.array([overflow_value] * n_over).cast(
                 t.schema.field(series_col).type),
             **{c: over.column(f"{c}_sum").cast(
                 t.schema.field(c).type) for c in value_cols}},
            schema=kept.schema)
        return pa.concat_tables([kept, over_tbl])

    return bucketed_map_groups(series, group_col, cap, n_buckets=n_buckets)
