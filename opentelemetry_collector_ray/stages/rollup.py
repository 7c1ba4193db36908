"""Multi-level aggregation — SQL ``ROLLUP`` / ``GROUPING SETS`` over a
bounded key hierarchy, the "one pass, every report level" operator a
telemetry rollup or a corpus-reporting job needs (per type+day, per
type, grand total) without re-scanning the input per level.

Scale shape: the INPUT is scanned exactly once by the finest-level
:func:`~.aggregate.grouped_agg` (two-phase partials — the 100 TB never
sees more than one pass); every coarser grouping set is then derived
from the FINE AGGREGATE, which must be small (a bounded key set), in
ONE task (an Arrow
``group_by`` per set over |fine keys| rows). Rolled-up key columns are
emitted as nulls plus a SQL ``GROUPING_ID()``-compatible bitmask column
so data-null keys stay distinguishable from rollup-nulls.

The collector's own aggregation story is single-level (counter/histogram
identities); multi-level rollup is an engine addition in the spirit of
its metrics views. Grouping-id bit order matches DuckDB/ANSI
``GROUPING(k0, .., kn-1)``: k0 is the most significant bit, bit j set
iff key j is rolled up in that output row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..functions.groupsafe import group_aggregate
from .aggregate import grouped_agg


def _agg_table(t: pa.Table, keep: tuple[str, ...], value_cols: list[str],
               how: dict[str, str]) -> pa.Table:
    """One grouping set over the fine aggregate: sum the additive
    columns (counts re-sum), min/max the order statistics."""
    if keep:
        g = group_aggregate(t, list(keep),
            [(c, how[c]) for c in value_cols])
        cols = {k: g.column(k) for k in keep}
        for c in value_cols:
            cols[c] = g.column(f"{c}_{how[c]}")
        return pa.table(cols)
    # Grand total: aggregates over zero groups still yield ONE row
    # (count 0 / null extrema), matching SQL GROUP BY GROUPING SETS(()).
    cols = {}
    for c in value_cols:
        col = t.column(c)
        if how[c] == "sum":
            cols[c] = pa.array([pc.sum(col).as_py()], col.type)
        else:
            fn = pc.min if how[c] == "min" else pc.max
            cols[c] = pa.array([fn(col).as_py()], col.type)
    return pa.table(cols)


def rollup_agg(ds: Dataset, keys: list[str],
               count_name: str | None = None,
               sum_cols: dict[str, str] | None = None,
               min_cols: dict[str, str] | None = None,
               max_cols: dict[str, str] | None = None,
               sets: list[tuple[int, ...]] | None = None,
               grouping_id_name: str = "grouping_id",
               n_buckets: int | str = "auto") -> Dataset:
    """``GROUP BY ROLLUP(*keys)`` (default) or explicit ``GROUPING
    SETS`` given as tuples of key INDICES (``sets=[(0, 1), (0,), ()]``
    is the ROLLUP of two keys; any subset combination is allowed, e.g.
    CUBE). Aggregates: ``count_name`` row count, ``sum_cols`` /
    ``min_cols`` / ``max_cols`` as in :func:`grouped_agg` (out name →
    source column).

    Output columns: ``*keys`` (null where rolled up), the aggregate
    columns, and ``grouping_id_name`` (int64 GROUPING_ID bitmask, key 0
    = MSB). Requires the finest-level distinct key set to fit one task:
    the fine pass merges as :func:`~.aggregate.grouped_agg` chooses, the
    rollup derivation itself is always one small task.

    Known SQL deviation: over a fully EMPTY input this returns zero
    rows, while ANSI ``GROUPING SETS(())`` yields one grand-total row
    (count 0) — Ray Data never invokes a map UDF on an empty dataset,
    so the total row cannot be synthesized mid-stream. Callers that
    need the SQL shape on possibly-empty inputs should check
    ``ds.count()`` themselves.
    """
    nk = len(keys)
    if nk == 0:
        raise ValueError("rollup_agg: need at least one key")
    if sets is None:
        sets = [tuple(range(i)) for i in range(nk, -1, -1)]
    if not sets:
        raise ValueError("rollup_agg: sets must be non-empty")
    seen = set()
    for s in sets:
        if len(set(s)) != len(s) or any(not 0 <= i < nk for i in s):
            raise ValueError(f"rollup_agg: bad grouping set {s!r} for "
                             f"{nk} keys")
        if tuple(sorted(s)) in seen:
            raise ValueError(f"rollup_agg: duplicate grouping set {s!r}")
        seen.add(tuple(sorted(s)))
    if not count_name and not sum_cols and not min_cols and not max_cols:
        raise ValueError("rollup_agg: no aggregates requested")
    for out in (*(sum_cols or {}), *(min_cols or {}), *(max_cols or {}),
                *((count_name,) if count_name else ())):
        if out == grouping_id_name or out in keys:
            raise ValueError(
                f"rollup_agg: output column {out!r} collides with a key "
                "or the grouping-id column")

    fine = grouped_agg(ds, keys, count_name=count_name, sum_cols=sum_cols,
                       min_cols=min_cols, max_cols=max_cols,
                       n_buckets=n_buckets)

    value_cols = ([count_name] if count_name else []) + \
        list(sum_cols or {}) + list(min_cols or {}) + list(max_cols or {})
    how = {c: "sum" for c in ([count_name] if count_name else [])}
    how.update({c: "sum" for c in (sum_cols or {})})
    how.update({c: "min" for c in (min_cols or {})})
    how.update({c: "max" for c in (max_cols or {})})
    count_col = count_name
    frozen_sets = [tuple(s) for s in sets]

    def derive(t: pa.Table) -> pa.Table:
        key_types = {k: t.schema.field(k).type for k in keys}
        out_parts = []
        for s in frozen_sets:
            keep = tuple(keys[i] for i in sorted(s))
            part = _agg_table(t, keep, value_cols, how)
            if count_col and len(part) and part.column(
                    count_col).null_count:
                # zero-input grand total: COUNT() is 0, never null
                part = part.set_column(
                    part.schema.get_field_index(count_col), count_col,
                    pc.fill_null(part.column(count_col), 0))
            gid = sum(1 << (len(keys) - 1 - j) for j in range(len(keys))
                      if j not in s)
            cols = {}
            for j, k in enumerate(keys):
                cols[k] = (part.column(k) if j in s else
                           pa.nulls(len(part), key_types[k]))
            for c in value_cols:
                cols[c] = part.column(c)
            cols[grouping_id_name] = pa.array(
                np.full(len(part), gid, np.int64))
            out_parts.append(pa.table(cols))
        return pa.concat_tables(out_parts)

    return fine.repartition(1).map_batches(derive, batch_format="pyarrow",
                                           batch_size=None)


def path_rollup(ds: Dataset, path_col: str, max_depth: int,
                sep: str = "/", count_name: str = "n") -> Dataset:
    """Hierarchical path-prefix rollup — the URL/file-path analog of
    SQL ROLLUP (the log-analytics "traffic by /api, /api/v2,
    /api/v2/users" view): every row contributes one count to each of
    its depth-1..``max_depth`` prefixes. Output: (prefix, depth, n).

    Vectorized explode: one Arrow split per batch, then per depth one
    ``list_slice`` + ``binary_join`` over the whole column (the depth
    loop is ≤ ``max_depth`` iterations, never per row); leading/
    trailing separators are trimmed so '/a/b' and 'a/b/' roll up
    identically. Counting is the standard two-phase grouped count —
    prefixes are unbounded keys, so partials bound the exchange."""
    k = int(max_depth)
    if k < 1:
        raise ValueError("path_rollup: max_depth must be >= 1")
    if len(sep) != 1:
        raise ValueError(
            "path_rollup: sep must be a single character — utf8_trim "
            "(and SQL trim) treat multi-character seps as a character "
            "SET, which would strip legitimate segment edges")
    from .aggregate import grouped_count

    def explode(t: pa.Table) -> pa.Table:
        col = t.column(path_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            # SQL's unnest drops NULL paths — mirror that, never count
            # a null as the '' prefix.
            col = col.drop_null()
        trimmed = pc.utf8_trim(col, sep)
        parts = pc.split_pattern(trimmed, pattern=sep)
        nparts = pc.list_value_length(parts)
        outs = []
        for d in range(1, k + 1):
            keep = pc.greater_equal(nparts, d)
            sel = parts.filter(keep)
            if len(sel) == 0:
                continue
            prefix = pc.binary_join(pc.list_slice(sel, 0, d), sep)
            outs.append(pa.table({
                "prefix": prefix,
                "depth": pa.nulls(len(sel), pa.int64()).fill_null(d)}))
        if not outs:
            return pa.schema([("prefix", pa.string()),
                              ("depth", pa.int64())]).empty_table()
        return pa.concat_tables(outs)

    sch = ds.schema(fetch_if_missing=False)
    if sch is not None and path_col in sch.base_schema.names:
        ds = ds.select_columns([path_col])  # prune only when schema known
    exploded = ds.map_batches(explode, batch_format="pyarrow")
    return grouped_count(exploded, ["prefix", "depth"],
                         count_name=count_name)
