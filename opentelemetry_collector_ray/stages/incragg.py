"""Incremental aggregate-view maintenance — apply an insert/delete
changelog to a previously materialized grouped aggregate WITHOUT
rescanning the base facts: the batch analog of streaming materialized
views (and of the collector's delta→cumulative idea at the aggregate
level, cf. reference processor/deltatocumulativeprocessor — there a
stream of deltas folds into a running cumulative point; here a stream
of row-level +1/−1 changes folds into a running GROUP BY state).

Count/sum aggregates are self-maintainable: a delete is a −1 count
and a negated value sum, so ``new_state = groupsum(old_state ∪ signed
delta partials)``. Min/max are NOT (a deleted extremum needs the base
facts) — this operator is deliberately count/sum only and validates
that contract loudly.

Scale shape: the changelog reduces to ≤ |keys per batch| signed
partial rows inside ``map_batches`` before anything moves; the old
state rows ARE partials already, so the union feeds the standard
two-phase grouped aggregate (tree for bounded keys, bucket for
unbounded). Nothing rescans the base facts; the exchange carries
only aggregate-shaped rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.groupsafe import group_aggregate
from .aggregate import grouped_agg


def apply_agg_delta(base_agg: ray.data.Dataset,
                    changelog: ray.data.Dataset,
                    keys: list[str], count_name: str = "n",
                    sum_cols: dict[str, str] | None = None,
                    op_col: str = "op",
                    n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Maintain a count/sum aggregate under a row-level changelog.

    ``base_agg``: the materialized view — columns ``keys + [count_name]
    + list(sum_cols)`` (the output shape of :func:`~.aggregate
    .grouped_agg` with the same ``count_name``/``sum_cols`` names).
    ``changelog``: raw fact rows carrying ``op_col`` ∈ {+1 (insert),
    −1 (delete)} plus ``keys`` and the VALUE columns named by
    ``sum_cols`` values. A delete must replay the inserted row's exact
    key and values (the CDC contract — same as a Kafka retraction).

    Returns the updated aggregate with keys whose count reached zero
    dropped; a key driven NEGATIVE (over-delete) raises loudly — that
    is a corrupt changelog, not a representable state."""
    sum_cols = dict(sum_cols or {})
    if not keys:
        raise ValueError("apply_agg_delta: keys must be non-empty")
    bad = {count_name, *sum_cols} & set(keys)
    if bad:
        raise ValueError(
            f"apply_agg_delta: output columns {sorted(bad)} collide "
            "with group keys")
    state_cols = [*keys, count_name, *sum_cols]

    def signed_partial(t: pa.Table) -> pa.Table:
        op = t.column(op_col)
        if op.null_count:
            raise ValueError(
                f"apply_agg_delta: {op_col!r} has nulls — every "
                "changelog row must be an insert (+1) or delete (-1)")
        opv = op.cast(pa.int64()).to_numpy(zero_copy_only=False)
        if len(opv) and not np.isin(opv, (-1, 1)).all():
            raise ValueError(
                f"apply_agg_delta: {op_col!r} must be +1 or -1, got "
                f"{sorted(set(np.unique(opv)) - {-1, 1})}")
        lanes = {k: t.column(k) for k in keys}
        lanes[count_name] = pa.array(opv)
        for out, src in sum_cols.items():
            v = t.column(src)
            if v.null_count:
                raise ValueError(
                    f"apply_agg_delta: value column {src!r} has nulls "
                    "— a retraction of an unknown value cannot balance")
            vv = v.to_numpy(zero_copy_only=False)
            if vv.dtype.kind not in "iub":
                raise ValueError(
                    f"apply_agg_delta: value column {src!r} must be "
                    f"integer (got {vv.dtype}) — float retraction "
                    "does not cancel exactly")
            lanes[out] = pa.array(opv * vv.astype(np.int64))
        skinny = pa.table(lanes)
        g = group_aggregate(skinny, keys,
            [(c, "sum") for c in (count_name, *sum_cols)])
        return g.rename_columns(state_cols)

    delta = changelog.map_batches(signed_partial, batch_format="pyarrow")
    merged = base_agg.map_batches(
        lambda t: t.select(state_cols), batch_format="pyarrow") \
        .union(delta)
    new_state = grouped_agg(
        merged, keys,
        sum_cols={c: c for c in (count_name, *sum_cols)},
        n_buckets=n_buckets)

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column(count_name)
        neg = pc.less(n, 0)
        if pc.any(neg).as_py():
            k = t.filter(neg).select(keys).slice(0, 3).to_pylist()
            raise ValueError(
                f"apply_agg_delta: negative count after delta — keys "
                f"over-deleted (first: {k}); the changelog retracts "
                "rows the base aggregate never contained")
        return t.filter(pc.greater(n, 0))

    return new_state.map_batches(finalize, batch_format="pyarrow")
