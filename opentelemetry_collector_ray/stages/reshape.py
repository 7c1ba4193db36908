"""Wide↔long reshaping — pivot (long→wide aggregation) and unpivot
(wide→long melt).

``pivot`` is the bounded-column contract: the caller NAMES the output
columns (``names``), so the schema is static and the whole operation is
one batch-local scatter (``pc.index_in`` of the name column against the
broadcast name list + numpy segment sums — never a per-name pass) feeding
the standard mergeable grouped aggregate. An unknown name either raises
loudly (default) or is dropped (``strict=False``) — a dynamic
names-discovery pass would be a hidden full scan, so it is deliberately
not offered; run ``unique`` yourself and pass the result.

``unpivot`` is stateless per batch: k column selections concatenated —
zero shuffle, output rows = k × input rows.

Reference analog: the reference reshapes metrics with
metricstransform/transform (e.g. datapoint attributes ↔ metric names);
this is the table-shaped counterpart (pdata attribute maps are the long
form, resource columns the wide form).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .aggregate import grouped_agg

__all__ = ["pivot", "unpivot"]


def pivot(ds: ray.data.Dataset, keys: list[str], name_col: str,
          value_col: str, names: list[str], strict: bool = True,
          n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Long→wide: one output row per ``keys`` tuple, one int64 SUM column
    per entry of ``names`` (absent (key, name) pairs sum to 0)."""
    names = list(names)
    if len(set(names)) != len(names):
        raise ValueError("pivot: duplicate output names")
    clash = set(names) & set(keys)
    if clash:
        raise ValueError(f"pivot: names collide with keys: {sorted(clash)}")
    names_pa = pa.array(names)

    def widen(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t.column(name_col), names_pa)
        if strict and idx.null_count:
            bad = pc.unique(t.column(name_col).filter(
                pc.is_null(idx))).to_pylist()
            raise ValueError(
                f"pivot: unexpected {name_col!r} values {bad[:5]!r} not in "
                "names=[...]; pass strict=False to drop them")
        keep = pc.is_valid(idx)
        t2 = t.filter(keep)
        ix = idx.filter(keep).to_numpy(zero_copy_only=False).astype(np.intp)
        # null values contribute 0 — matches SQL SUM's null-skipping
        vcol = t2.column(value_col)
        vals = pc.fill_null(vcol, 0).to_numpy(zero_copy_only=False) \
            if vcol.null_count else vcol.to_numpy(zero_copy_only=False)
        n = t2.num_rows
        dt = np.int64 if np.issubdtype(vals.dtype, np.integer) \
            else np.float64
        cols = {k: t2.column(k) for k in keys}
        for j, nm in enumerate(names):
            out = np.zeros(n, dt)
            sel = ix == j
            out[sel] = vals[sel]
            cols[nm] = pa.array(out)
        return pa.table(cols)

    wide = ds.select_columns(keys + [name_col, value_col]).map_batches(
        widen, batch_format="pyarrow")
    return grouped_agg(wide, keys, sum_cols={nm: nm for nm in names},
                       n_buckets=n_buckets)


def unpivot(ds: ray.data.Dataset, keys: list[str], value_cols: list[str],
            name_col: str = "name",
            value_col: str = "value") -> ray.data.Dataset:
    """Wide→long melt: each input row emits one row per ``value_cols``
    entry, tagged with the source column name. Values are cast to a
    common type (int64 when all sources are integers, else float64)."""
    if not value_cols:
        raise ValueError("unpivot: value_cols must be non-empty")

    def melt(t: pa.Table) -> pa.Table:
        target = pa.int64() if all(
            pa.types.is_integer(t.schema.field(c).type) for c in value_cols
        ) else pa.float64()
        parts = []
        for c in value_cols:
            cols = {k: t.column(k) for k in keys}
            cols[name_col] = pa.array([c] * t.num_rows, pa.string())
            cols[value_col] = t.column(c).cast(target)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.select_columns(keys + value_cols).map_batches(
        melt, batch_format="pyarrow")
