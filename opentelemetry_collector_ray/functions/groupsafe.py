"""Null-safe Arrow ``group_by`` — a workaround for a real pyarrow 16.x
row-encoder defect.

Measured on this exact pyarrow (16.1.0): ``Table.group_by`` with a
VARIABLE-LENGTH key (string / binary / dictionary) ordered BEFORE a
NULLABLE fixed-width key (int/float/date/timestamp) fails to coalesce
the null group — at a few hundred rows the encoder starts emitting one
output group PER DISTINCT MASKED VALUE under the null slots, silently
splitting what SQL treats as one group (``events_ip_nets`` surfaced it:
625 corrupted rows came back as 70 "invalid"-class groups). Single-key
grouping, fixed-width-first orders, and all-null-free tables are
unaffected.

Rather than encode the (observed, version-specific) topology of the
bug, :func:`group_aggregate` removes its precondition entirely: every
nullable key column is replaced by ``(fill_null(col, first_valid),
is_null(col))`` — an injective recoding with NO nulls in any key lane —
and the null-ness companion is folded back into the key column after
the aggregate. Tables whose keys carry no nulls (the overwhelmingly
common case) take the zero-overhead fast path: ``null_count`` is O(1)
metadata.

Every multi-key ``group_by`` over caller-supplied (hence possibly
nullable) keys in this repo routes through here; the reference counts
on Go map semantics where a nil attribute is simply one more key value
(e.g. batch partitioning by metadata values,
processor/batchprocessor/batch_processor.go:342).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

_NULL_TAG = "___gs_isnull_"
_NAN_TAG = "___gs_isnan_"


def _first_valid_scalar(col: pa.ChunkedArray | pa.Array) -> pa.Scalar:
    dn = col.drop_null()
    return dn[0] if isinstance(dn, pa.Array) else dn.chunk(0)[0]


def _has_nan(col: pa.ChunkedArray) -> bool:
    return pa.types.is_floating(col.type) and bool(
        pc.any(pc.is_nan(col)).as_py())


def group_aggregate(t: pa.Table, keys: list[str],
                    aggs: list, use_threads: bool = False) -> pa.Table:
    """``t.group_by(keys).aggregate(aggs)`` with SQL null semantics
    guaranteed: one group per distinct key tuple, nulls equal nulls.

    NaN key cells get the same treatment: Arrow hashes float keys by bit
    pattern, so NaNs with different sign or payload bits land in
    separate groups, while SQL (DuckDB) has ONE NaN group. Every NaN is
    recoded as ``(0, is_nan=True)`` and restored after the aggregate.

    Output columns carry pyarrow's generated names (``<col>_<fn>`` /
    ``count_all``) plus the key columns, same as the raw call — callers
    select by name, so this is a drop-in swap.
    """
    nan_keys = [k for k in keys if _has_nan(t.column(k))]
    null_keys = [k for k in keys
                 if (len(keys) > 1 or nan_keys)
                 and t.column(k).null_count > 0]
    if not null_keys and not nan_keys:
        return t.group_by(keys, use_threads=use_threads).aggregate(aggs)
    work = t
    group_cols = list(keys)
    for k in nan_keys:
        col = work.column(k)
        is_nan = pc.fill_null(pc.is_nan(col), False)
        work = work.set_column(work.schema.get_field_index(k), k,
                               pc.if_else(is_nan, pa.scalar(0, col.type), col))
        work = work.append_column(_NAN_TAG + k, is_nan)
        group_cols.append(_NAN_TAG + k)
    all_null: dict[str, pa.DataType] = {}
    for k in null_keys:
        col = work.column(k)
        if col.null_count == len(col):
            # No valid value to borrow for the fill; the column is one
            # constant null group — drop it from the key set and
            # restore a null column afterwards.
            all_null[k] = col.type
            work = work.drop_columns([k])
            group_cols.remove(k)
            continue
        filled = pc.fill_null(col, _first_valid_scalar(col))
        work = work.set_column(
            work.schema.get_field_index(k), k, filled)
        work = work.append_column(_NULL_TAG + k, pc.is_null(col))
        group_cols.append(_NULL_TAG + k)
    g = work.group_by(group_cols, use_threads=use_threads).aggregate(aggs)
    for k in null_keys:
        if k in all_null:
            g = g.append_column(k, pa.nulls(g.num_rows, all_null[k]))
            continue
        tag = _NULL_TAG + k
        col = g.column(k)
        restored = pc.if_else(g.column(tag),
                              pa.scalar(None, col.type), col)
        g = g.set_column(g.schema.get_field_index(k), k, restored)
        g = g.drop_columns([tag])
    for k in nan_keys:
        tag = _NAN_TAG + k
        col = g.column(k)
        restored = pc.if_else(g.column(tag),
                              pa.scalar(float("nan"), col.type), col)
        g = g.set_column(g.schema.get_field_index(k), k, restored)
        g = g.drop_columns([tag])
    return g
