"""Dataset profiling — per-column exact statistics for data validation.

The pre-ingestion sanity check a training pipeline runs on a new corpus
drop: row count, null count and EXACT distinct count per column, all
integers so a DuckDB UNION-ALL oracle hash-matches.

ONE input execution regardless of how many columns are profiled (the
round-4 version ran one ``count_distinct`` dataset per column — C+1
scans for C columns): each batch emits a single stacked partial table
of ``(column, val, n_rows, n_null)`` rows where the per-batch DISTINCT
values of every profiled column ride as ``(column, val)`` pairs (count
columns zero) and one meta row per column (``val`` null — unambiguous,
since nulls are dropped from the distinct lane per the SQL
count(DISTINCT) convention) carries the batch's row/null counts. The
stacked partials tree-merge exactly like ``count_distinct``'s two-phase
plan: group-by ``(column, val)`` dedups the distinct lane while summing
the meta lane, so the final single task sees only the union of distinct
values plus one meta row per column.

Values are compared via their Arrow → string cast (shortest-roundtrip
for floats), so the distinct lane is exact, never a hash; SQL
distinctness is VALUE equality, so float zero signs are normalized
first (-0.0 and 0.0 stringify differently but count as one value). Contract (same as ``count_distinct``): the union of per-column
distinct-value sets must fit one task — profile only the columns you
need at 100 TB, or pre-screen unbounded ones with the HLL sketch
(``stages/sketch.approx_distinct``).

Reference analog: no profiler exists in the reference; nearest is the
obsreport counters (received/dropped per signal). This is the
table-shaped generalization.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.groupsafe import group_aggregate

import ray.data

from .treereduce import collect

__all__ = ["profile_table"]

_SCHEMA = pa.schema([("column", pa.string()), ("val", pa.string()),
                     ("n_rows", pa.int64()), ("n_null", pa.int64())])


def profile_table(ds: ray.data.Dataset,
                  columns: list[str]) -> pa.Table:
    """Profile ``columns`` → pa.Table (column, n_rows, n_null,
    n_distinct), one row per column, ordered as given."""
    if not columns:
        raise ValueError("profile_table: columns must be non-empty")

    def partials(t: pa.Table) -> pa.Table:
        parts = []
        for c in columns:
            col = t.column(c)
            vals = col.drop_null()
            if pa.types.is_floating(col.type):
                # SQL count(DISTINCT) is VALUE equality: -0.0 == 0.0,
                # but their string casts differ — normalize the sign
                # of zero before casting (x + 0.0 maps -0.0 to 0.0)
                vals = pc.add(vals, 0.0)
            uniq = pc.unique(pc.cast(vals, pa.string()).combine_chunks())
            z = np.zeros(len(uniq), np.int64)
            parts.append(pa.table({
                "column": pa.array([c] * len(uniq), pa.string()),
                "val": uniq,
                "n_rows": pa.array(z), "n_null": pa.array(z)},
                schema=_SCHEMA))
            parts.append(pa.table({
                "column": pa.array([c], pa.string()),
                "val": pa.array([None], pa.string()),
                "n_rows": pa.array([t.num_rows], pa.int64()),
                "n_null": pa.array([col.null_count], pa.int64())},
                schema=_SCHEMA))
        return pa.concat_tables(parts)

    def combine(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return _SCHEMA.empty_table()
        g = group_aggregate(t, ["column", "val"],
            [("n_rows", "sum"), ("n_null", "sum")])
        return pa.table({"column": g.column("column"),
                         "val": g.column("val"),
                         "n_rows": g.column("n_rows_sum"),
                         "n_null": g.column("n_null_sum")},
                        schema=_SCHEMA)

    # prune at the plan when the schema is already known (parquet reads);
    # when it is NOT known, select_columns would trigger a schema-probe
    # execution of the whole upstream — skip it, `partials` only touches
    # the profiled columns anyway
    if ds.schema(fetch_if_missing=False) is not None:
        ds = ds.select_columns(columns)
    tables = collect(ds
                     .map_batches(partials, batch_format="pyarrow")
                     .repartition(16)
                     .map_batches(combine, batch_size=None,
                                  batch_format="pyarrow"))
    merged = combine(pa.concat_tables(tables) if tables
                     else _SCHEMA.empty_table())

    meta = merged.filter(pc.is_null(merged.column("val")))
    dist = merged.filter(pc.is_valid(merged.column("val")))
    dc = dist.group_by(["column"], use_threads=False).aggregate(
        [("val", "count")])
    n_dist = dict(zip(dc.column("column").to_pylist(),
                      dc.column("val_count").to_pylist()))
    n_rows = dict(zip(meta.column("column").to_pylist(),
                      meta.column("n_rows").to_pylist()))
    n_null = dict(zip(meta.column("column").to_pylist(),
                      meta.column("n_null").to_pylist()))
    return pa.table({
        "column": pa.array(columns, pa.string()),
        "n_rows": pa.array([int(n_rows.get(c, 0)) for c in columns],
                           pa.int64()),
        "n_null": pa.array([int(n_null.get(c, 0)) for c in columns],
                           pa.int64()),
        "n_distinct": pa.array([int(n_dist.get(c, 0)) for c in columns],
                               pa.int64())})
