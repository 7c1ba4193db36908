"""Spill-safe distributed global sort — range-partitioned sample sort.

The one relational primitive SURVEY §2.6 mapped to verification-only in
the reference (the collector never totally orders a stream; consumers
that need ordered output re-sort downstream — see
exporter/exporterhelper's ordering note).  As an ENGINE the capability
belongs in the algebra, so this implements the classic sample sort on
the repo's two-pass idiom:

- pass 1 samples the primary key per block (every k-th row — a few
  hundred values per block reach the driver, never rows);
- the driver picks ``P-1`` quantile cut points from the pooled sample
  and broadcasts them in the closure (tiny);
- pass 2 assigns each row a partition by ``np.searchsorted`` against the
  cut points (all rows with EQUAL primary keys land in one partition, so
  the partition sequence is a total range partition), then ONE
  ``groupby(_part)`` exchange sorts each partition independently with
  ``pa.Table.sort_by`` — partition p's rows all order before partition
  p+1's, so concatenating partitions in id order IS the global order.

No single task ever holds more than one partition (~input/P); the
object store spills partitions under pressure — that is the
"spill-safe" contract, vs a driver-side or single-node sort.

``rank_col`` additionally materializes the dense global position
(0-based) of every row — per-partition counts (a P-row table) give each
partition's exclusive base, added to the in-partition arange.  This is
what makes the order VERIFIABLE by a value-hash oracle
(``row_number() OVER (ORDER BY ...)`` in SQL) even though the comparer
sorts rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .aggregate import grouped_count
from .bucketing import exchange, persisted_factory

_PART, _LRANK = "_part", "_lrank"


def _normalize_order(keys, descending):
    if isinstance(keys, str):
        keys = [keys]
    keys = list(keys)
    if isinstance(descending, bool):
        descending = [descending] * len(keys)
    descending = list(descending)
    if len(descending) != len(keys):
        raise ValueError("global_sort: len(descending) != len(keys)")
    return keys, descending


def sample_range_bounds(make_ds, primary: str,
                        num_partitions: int | None = None,
                        sample_per_block: int = 64):
    """Pass 1 of the sample sort, shared by :func:`global_sort` and
    the zone-map layout writer (``stages/layout.cluster_write``): every
    k-th ``primary`` value per block reaches the driver (a few hundred
    scalars per block, never rows) and the driver picks ``P-1`` range
    cut points. Returns ``(bounds, P)`` where ``P`` accounts for
    duplicate-quantile collapse."""

    def sample_fn(t: pa.Table) -> pa.Table:
        col = t.column(primary)
        n = len(col)
        if n == 0:
            return pa.table({"_v": pa.array([], col.type),
                             "_blk": pa.array([], pa.int64())})
        step = max(1, n // sample_per_block)
        idx = np.arange(0, n, step, dtype=np.int64)
        blk = np.zeros(len(idx), np.int64)
        blk[0] = 1  # one marker per pass-1 block (batch_size=None)
        return pa.table({"_v": col.take(pa.array(idx)),
                         "_blk": pa.array(blk)})

    sample = make_ds().map_batches(
        sample_fn, batch_size=None, batch_format="pyarrow").to_pandas()
    if "_v" not in sample.columns:  # all-empty input: no sampled rows
        sample = sample.reindex(columns=["_v", "_blk"])
    vals = sample["_v"].dropna().to_numpy()
    n_blocks = max(1, int(sample["_blk"].sum() or 0))
    P = int(num_partitions) if num_partitions else n_blocks
    P = max(1, P)
    if len(vals) and P > 1:
        vals = np.sort(vals)
        qpos = (np.arange(1, P) * len(vals)) // P
        bounds = np.unique(vals[qpos])
    else:
        bounds = vals[:0]
    return bounds, len(bounds) + 1  # dedup may shrink the count


def assign_range_partition(t: pa.Table, primary: str, bounds, P: int,
                           descending: bool = False,
                           part_col: str = None) -> pa.Table:
    """Pass 2 of the sample sort: append the range-partition id of each
    row (``np.searchsorted`` against the broadcast cut points; equal
    keys share a partition; nulls order last)."""
    part_col = part_col or _PART
    v = t.column(primary).to_numpy(zero_copy_only=False)
    null = pc.is_null(t.column(primary)).to_numpy(zero_copy_only=False)
    if len(bounds):
        part = np.searchsorted(bounds, v[~null] if null.any() else v,
                               side="right")
        if null.any():
            full = np.empty(len(v), np.int64)
            full[~null] = part
            part = full
    else:
        part = np.zeros(len(v), np.int64)
    if descending:
        part = (P - 1) - part
    part[null] = P - 1  # nulls last in output order
    return t.append_column(part_col, pa.array(part.astype(np.int64)))


def global_sort(make_ds, keys, descending: bool | list[bool] = False,
                num_partitions: int | None = None,
                sample_per_block: int = 64,
                rank_col: str | None = None,
                persist: str = "none") -> ray.data.Dataset:
    """Totally order the dataset by ``keys`` (multi-key, per-key
    direction), range-partitioned so every partition sorts independently
    and spills independently.

    ``make_ds`` is a zero-arg factory (the repo's two-pass contract —
    the sample pass and the sort pass must see the identical plan);
    ``persist`` forwards to :func:`persisted_factory` — with the default
    ``"none"`` an expensive upstream executes twice, so persist derived
    pipelines.  ``num_partitions`` defaults to the pass-1 block count
    (~one partition per input block; at scale pass an explicit count
    sized to ~256 MB/partition).  Rows are globally ordered ACROSS
    partitions by construction; within a partition by ``sort_by``.  With
    ``rank_col`` each row also gets its dense 0-based global position
    (costs a per-partition count table on the driver — P rows — plus a
    ``materialize()`` of the sorted result so the count pass does not
    re-run the exchange).  NULL primary keys order last (Arrow and
    DuckDB's shared default).
    """
    keys, desc = _normalize_order(keys, descending)
    primary, primary_desc = keys[0], desc[0]
    make_ds = persisted_factory(make_ds, persist)
    bounds, P = sample_range_bounds(make_ds, primary, num_partitions,
                                    sample_per_block)

    sort_spec = [(k, "descending" if d else "ascending")
                 for k, d in zip(keys, desc)]

    def assign(t: pa.Table) -> pa.Table:
        return assign_range_partition(t, primary, bounds, P,
                                      descending=primary_desc)

    def sort_part(t: pa.Table) -> pa.Table:
        t = t.sort_by(sort_spec)
        return t.append_column(
            _LRANK, pa.array(np.arange(t.num_rows, dtype=np.int64)))

    out = exchange(make_ds().map_batches(assign, batch_format="pyarrow"),
                   _PART, sort_part)
    if rank_col is None:
        return out.drop_columns([_PART, _LRANK])

    out = out.materialize()
    if out.count() == 0:
        # empty result must still honor the promised schema: the input
        # columns plus the rank column (the materialized empty exchange
        # loses its schema, so recover it from the input plan — cheap
        # here, the input was empty)
        sch = make_ds().schema()
        fields = list(zip(sch.names, sch.types)) if sch and sch.names \
            else []
        empty = pa.table({nm: pa.array([], tp) for nm, tp in fields}
                         | {rank_col: pa.array([], pa.int64())})
        return ray.data.from_arrow(empty)
    counts = grouped_count(out.select_columns([_PART]), [_PART],
                           count_name="_c").to_pandas()
    counts = counts.sort_values(_PART)
    base_arr = np.zeros(P, np.int64)
    base_arr[counts[_PART].to_numpy(dtype=np.int64)] = np.concatenate(
        [[0], np.cumsum(counts["_c"].to_numpy())[:-1]])

    def add_rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.drop_columns([_PART, _LRANK]).append_column(
                rank_col, pa.array([], pa.int64()))
        p = t.column(_PART).to_numpy(zero_copy_only=False).astype(np.int64)
        lr = t.column(_LRANK).to_numpy(zero_copy_only=False)
        return t.drop_columns([_PART, _LRANK]).append_column(
            rank_col, pa.array(base_arr[p] + lr))

    return out.map_batches(add_rank, batch_format="pyarrow")
