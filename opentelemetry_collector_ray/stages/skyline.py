"""2-D Pareto frontier (skyline) — multi-objective selection.

The curation filter behind "keep documents maximal in (quality,
brevity)" / "customers maximal in (frequency, spend)": a row survives
iff NO other row is ≥ on both objectives and > on at least one (strict
dominance; duplicate points do not dominate each other, so exact ties
all survive). The reference collector has no multi-objective operator —
engine addition on the same selection surface as ``stages/mixing.py``.

O(n log n) instead of the O(n²) NOT-EXISTS self-join, distributed on
the sample-sort contract (``sort.global_sort``): sorted by
(x desc, y desc), a row is dominated iff

- some row with STRICTLY greater x (= everything ordered before its
  equal-x group) has y ≥ its y, or
- some row with EQUAL x has y > its y.

Per block only four scalars cross the driver — first/last x and the
max y of the head (x > last x) and tail (x == last x) rows — and the
driver's one P-length pass turns them into three broadcast bases per
block (strictly-greater max, equal-x max, total max), which makes the
filter exact even when one equal-x run is SPLIT across blocks.
Comparisons only, never arithmetic: int64 and float objectives are
both exact (no float cast of int columns).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .bucketing import key_segments
from .sort import global_sort
from .treereduce import collect

__all__ = ["skyline_2d"]


def _max2(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def skyline_2d(make_ds, x_col: str, y_col: str,
               persist: str = "none") -> ray.data.Dataset:
    """Rows not strictly dominated when MAXIMIZING ``x_col`` and
    ``y_col`` (negate a column upstream to minimize it). Rows with a
    null objective are excluded — incomparable, matching the SQL
    NOT-EXISTS oracle where NULL comparisons are never true.

    ``make_ds`` is a zero-arg factory (two-pass contract; ``persist=``
    forwards to ``global_sort``)."""

    def drop_nulls(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(pc.is_valid(t.column(x_col)),
                                pc.is_valid(t.column(y_col))))

    ranked = global_sort(
        lambda: make_ds().map_batches(drop_nulls, batch_format="pyarrow"),
        [x_col, y_col], descending=[True, True], rank_col="_srank",
        persist=persist).materialize()

    def blockstats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"_r0": pa.array([], pa.int64()),
                             "_x0": pa.array([], pa.float64()),
                             "_xl": pa.array([], pa.float64()),
                             "_head": pa.array([], pa.float64()),
                             "_tail": pa.array([], pa.float64())})
        x = t.column(x_col)
        y = t.column(y_col)
        xl = x[-1]
        tail_mask = pc.equal(x, xl)
        head = pc.max(y.filter(pc.invert(tail_mask)))
        return pa.table({
            "_r0": pa.array([pc.min(t.column("_srank")).as_py()],
                            pa.int64()),
            "_x0": pa.array([x[0].as_py()], x.type),
            "_xl": pa.array([xl.as_py()], x.type),
            "_head": pa.array([head.as_py()], y.type),
            "_tail": pa.array([pc.max(y.filter(tail_mask)).as_py()],
                              y.type)})

    parts = collect(ranked.map_batches(blockstats, batch_size=None,
                                       batch_format="pyarrow"))
    if not parts:
        return ranked.drop_columns(["_srank"])
    # arrow all the way down: int64 maxes stay exact (a pandas float
    # roundtrip would corrupt values past 2^53)
    stats = pa.concat_tables(parts).sort_by([("_r0", "ascending")]
                                            ).to_pylist()

    # One driver pass over the P block stats: for each block, the max y
    # over prior rows with x strictly greater than the block's first
    # group (strict_base), over prior rows equal to it (eq_base), and
    # over ALL prior rows (total_base — every prior row is strictly
    # greater in x than any non-first-group row of the block).
    bases: dict[int, tuple] = {}
    prev_xl = prev_strict = prev_eq = None
    have_prev = False
    for row in stats:
        r0, x0, xl = int(row["_r0"]), row["_x0"], row["_xl"]
        head, tail = row["_head"], row["_tail"]
        total_prev = _max2(prev_strict, prev_eq)
        if have_prev and x0 == prev_xl:
            strict_base, eq_base = prev_strict, prev_eq
        else:
            strict_base, eq_base = total_prev, None
        bases[r0] = (total_prev, strict_base, eq_base)
        if have_prev and prev_xl == xl:
            # the equal-x run continues through this whole block
            new_eq = _max2(prev_eq, tail)
            new_strict = _max2(prev_strict, head)
        else:
            new_eq = tail
            new_strict = _max2(_max2(prev_strict, prev_eq), head)
        prev_xl, prev_strict, prev_eq = xl, new_strict, new_eq
        have_prev = True

    def filt(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.drop_columns(["_srank"])
        r = t.column("_srank").to_numpy(zero_copy_only=False)
        if len(r) > 1 and not bool((np.diff(r) == 1).all()):
            raise ValueError(
                "skyline_2d: block is not a contiguous rank range — "
                "the materialized sort output changed between passes")
        x = t.column(x_col).to_numpy(zero_copy_only=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False)
        n = len(x)
        _, gs = key_segments(x)  # each row's equal-x group start
        # exclusive in-block prefix max of y, evaluated at group starts
        prev = np.empty(n, y.dtype)
        if n > 1:
            prev[1:] = np.maximum.accumulate(y[:-1])
        total_base, strict_base, eq_base = bases[int(r[0])]
        first_group = gs == 0
        dominated = y[gs] > y  # in-group leader strictly above (in block)
        in_block = gs > 0
        dom_pref = np.zeros(n, dtype=bool)
        dom_pref[in_block] = prev[gs][in_block] >= y[in_block]
        dominated |= dom_pref
        if total_base is not None:
            dominated |= ~first_group & (total_base >= y)
        if strict_base is not None:
            dominated |= first_group & (strict_base >= y)
        if eq_base is not None:
            dominated |= first_group & (eq_base > y)
        return t.filter(pa.array(~dominated)).drop_columns(["_srank"])

    return ranked.map_batches(filt, batch_size=None,
                              batch_format="pyarrow")
