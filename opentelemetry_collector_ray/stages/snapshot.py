"""Dataset-version operators — schema-evolution-safe union and
snapshot diffing.

Two corpus snapshots written months apart rarely share an exact
schema (columns get added) or an exact row set (documents get added,
removed, re-scored). ``union_by_name`` reads both vintages as one
dataset (missing columns null-filled, name-aligned — DuckDB's ``UNION
ALL BY NAME``); ``snapshot_diff`` computes the changelog between two
keyed snapshots (added / removed / changed) on the repo's distributed
full-outer bucket join, so only the key + compared columns ever
shuffle. Reference analog: none in the collector (it streams, never
versions); this is the dataset-versioning QA surface a training-data
pipeline needs before promoting a new corpus snapshot.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

__all__ = ["union_by_name", "snapshot_diff"]


def union_by_name(datasets: list[ray.data.Dataset]) -> ray.data.Dataset:
    """Union datasets whose schemas differ by COLUMN SET: the output
    schema is the first-seen-ordered union of all columns, each input's
    missing columns null-filled (``UNION ALL BY NAME`` semantics). A
    column appearing with two different types raises loudly — silent
    casts would corrupt data. Purely stateless per batch: no shuffle,
    no driver state beyond the schemas."""
    if not datasets:
        raise ValueError("union_by_name: no datasets")
    types: dict[str, pa.DataType] = {}
    for ds in datasets:
        # inputs only, before any exchange: free for a read, else one
        # limit(1) run of that input to its first block
        sch = ds.schema()
        for name, typ in zip(sch.names, sch.types):
            if name in types and types[name] != typ:
                raise TypeError(
                    f"union_by_name: column {name!r} has conflicting "
                    f"types {types[name]} vs {typ}")
            types.setdefault(name, typ)
    names = list(types)

    def align(t: pa.Table) -> pa.Table:
        cols = {}
        for name in names:
            if name in t.column_names:
                cols[name] = t.column(name)
            else:
                cols[name] = pa.nulls(t.num_rows, types[name])
        return pa.table(cols)

    out = datasets[0].map_batches(align, batch_format="pyarrow")
    for ds in datasets[1:]:
        out = out.union(ds.map_batches(align, batch_format="pyarrow"))
    return out


def snapshot_diff(old: ray.data.Dataset, new: ray.data.Dataset,
                  key: str, compare_cols: list[str], *,
                  status_col: str = "change",
                  include_unchanged: bool = False,
                  n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Changelog between two keyed snapshots: one row per key present
    in either side, labeled ``added`` (new only), ``removed`` (old
    only) or ``changed`` (both present, any compare column differs —
    null-safe: null vs value counts as a change, null vs null does
    not). Unchanged keys are dropped unless ``include_unchanged``.

    Output columns: ``key``, ``status_col``, then ``old_<c>`` /
    ``new_<c>`` for each compare column. Scale shape: each side is
    pre-projected to (key, presence marker, compare columns) — the
    repo's distributed FULL bucket join moves only those skinny rows.
    Keys are expected unique per side — duplicates multiply rows
    (standard join semantics), they are not detected here."""
    from .join import shuffle_hash_join

    if not compare_cols:
        raise ValueError("snapshot_diff: compare_cols is required")

    def prep(side: str):
        def f(t: pa.Table) -> pa.Table:
            cols = {key: t.column(key),
                    f"_{side}_present": pa.array(
                        [1] * t.num_rows, pa.int8())}
            for c in compare_cols:
                cols[f"{side}_{c}"] = t.column(c)
            return pa.table(cols)

        return f

    o = old.map_batches(prep("old"), batch_format="pyarrow")
    n = new.map_batches(prep("new"), batch_format="pyarrow")
    joined = shuffle_hash_join(o, n, key=key, how="full",
                               n_buckets=n_buckets)

    def classify(t: pa.Table) -> pa.Table:
        has_old = pc.is_valid(t.column("_old_present"))
        has_new = pc.is_valid(t.column("_new_present"))
        changed = pa.array([False] * t.num_rows)
        for c in compare_cols:
            a, b = t.column(f"old_{c}"), t.column(f"new_{c}")
            neq = pc.or_kleene(
                pc.not_equal(a, b),
                pc.xor(pc.is_null(a), pc.is_null(b)))
            changed = pc.or_(changed, pc.fill_null(neq, False))
        status = pc.if_else(
            pc.and_(has_old, pc.invert(has_new)), "removed",
            pc.if_else(pc.and_(has_new, pc.invert(has_old)), "added",
                       pc.if_else(changed, "changed", "unchanged")))
        out = {key: t.column(key), status_col: status}
        for c in compare_cols:
            out[f"old_{c}"] = t.column(f"old_{c}")
            out[f"new_{c}"] = t.column(f"new_{c}")
        res = pa.table(out)
        if include_unchanged:
            return res
        return res.filter(pc.not_equal(status, "unchanged"))

    return joined.map_batches(classify, batch_format="pyarrow")
