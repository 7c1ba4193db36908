"""Grouped aggregation with partial (combiner) pre-aggregation.

Collector analog: core performs counting aggregations only — per-stage
item counters and ``LogRecordCount`` (``/root/reference/pdata/plog/
logs.go:17-29``; ``service/documentation.md:9-101``). The north-star
aggregate is per ``(conv_id, role, tool, time-bucket)`` turn counts.

Scale design (SURVEY.md §4.3): a bare ``groupby().aggregate()`` shuffles
every row. Here each batch is first reduced with a vectorized
``pyarrow.Table.group_by`` (the combiner — one output row per distinct key
per batch), and only the partials move. Where the partial runs: over
maps on a ``read_turns`` read it takes no ``batch_size``
(``_partial_batch_size``); there, when the input ends with a
``StageChain`` map (``stages/chain.py``; the flagship's
``build_routed``), the partial joins that chain (``chain.then``) and
reduces each of the chain's slices as soon as the other stages are
done with it, so no task holds a whole block's stage output, and
otherwise Ray fuses it into the maps before it. Over any other input
it is its own map over 64k-row batches, so few partial blocks reach
the merge. The input's measured size picks the merge
(``bucketing.fits_one_task``): up to ``TARGET_BUCKET_BYTES``, measured
through operators that add no rows, every partial folds in ONE task;
above it, or when the size is unknown (a row-adding or unmarked map on
the way), the partials are hash-bucketed by the first key and each
bucket merges in one task. Either way a hot key contributes ≤1 row per
batch to the merge — the salting degenerate case where the batch
index acts as the salt.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..functions.groupsafe import group_aggregate
from . import bucketing
from .chain import then
from .treereduce import combine_all


class PartialAggStage:
    """General combiner: per-batch group_by with count/sum/min/max partials
    (all mergeable: count+sum merge by sum, min by min, max by max)."""

    adds_no_rows = True

    def __init__(self, keys: list[str], count_name: str | None = None,
                 sum_cols: dict[str, str] | None = None,
                 min_cols: dict[str, str] | None = None,
                 max_cols: dict[str, str] | None = None):
        self.keys = list(keys)
        self.count_name = count_name
        self.sum_cols = dict(sum_cols or {})
        self.min_cols = dict(min_cols or {})
        self.max_cols = dict(max_cols or {})

    @property
    def out_cols(self) -> list[str]:
        return ([self.count_name] if self.count_name else []) + \
            list(self.sum_cols) + list(self.min_cols) + list(self.max_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        aggs = []
        if self.count_name:
            aggs.append(([], "count_all"))
        for src in self.sum_cols.values():
            aggs.append((src, "sum"))
        for src in self.min_cols.values():
            aggs.append((src, "min"))
        for src in self.max_cols.values():
            aggs.append((src, "max"))
        g = group_aggregate(batch, self.keys, aggs)
        cols = {k: g.column(k) for k in self.keys}
        if self.count_name:
            cols[self.count_name] = g.column("count_all").cast(pa.int64())
        for out, src in self.sum_cols.items():
            cols[out] = g.column(f"{src}_sum")
        for out, src in self.min_cols.items():
            cols[out] = g.column(f"{src}_min")
        for out, src in self.max_cols.items():
            cols[out] = g.column(f"{src}_max")
        return pa.table(cols).select(self.keys + self.out_cols)


class PartialCountStage(PartialAggStage):
    """The count/sum partial of :func:`grouped_count` (the flagship's
    plan shows it by this name): :class:`PartialAggStage` with a count
    column, ``n_turns`` by default, and optional sums."""

    def __init__(self, keys: list[str], count_name: str = "n_turns",
                 sum_cols: dict[str, str] | None = None):
        super().__init__(keys, count_name, sum_cols)


class CombineStage:
    """Merge partial rows: sum for counts/sums, min/max for extrema, names
    preserved (the delta→cumulative merge discipline)."""

    adds_no_rows = True

    def __init__(self, keys: list[str], value_cols: list[str],
                 min_cols: tuple[str, ...] = (), max_cols: tuple[str, ...] = ()):
        self.keys = list(keys)
        self.min_cols, self.max_cols = set(min_cols), set(max_cols)
        self.value_cols = list(value_cols)

    def _fn(self, c: str) -> str:
        return "min" if c in self.min_cols else \
            "max" if c in self.max_cols else "sum"

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = group_aggregate(batch, self.keys,
                            [(c, self._fn(c)) for c in self.value_cols])
        cols = {k: g.column(k) for k in self.keys}
        for c in self.value_cols:
            cols[c] = g.column(f"{c}_{self._fn(c)}")
        return pa.table(cols).select(self.keys + self.value_cols)


PARTIAL_BATCH_ROWS = 65536
# logical operators a batch map with no batch_size fuses into
_FUSING_MAPS = frozenset({"MapBatches", "MapRows", "Filter", "Project"})


def _partial_batch_size(ds: Dataset) -> int | None:
    """Rows per partial call. None when ``ds`` is maps over a
    ``read_turns`` read (the flagship's input): Ray fuses the partial
    into the read tasks, which ``plan_read`` already sizes (at least
    1 MiB each, about two per CPU), so the input rows never pass
    through the object store. Otherwise 64k rows: small blocks (a split
    read, an exchange's output, ``from_arrow``) share a partial task and
    reach the merge as few blocks, since the sort exchange's cost grows
    with its block count."""
    from ..sources.parquet import FooterDatasource

    try:
        op = ds._logical_plan.dag
        while type(op).__name__ in _FUSING_MAPS \
                and getattr(op, "_batch_size", None) is None:
            (op,) = op.input_dependencies
        if isinstance(getattr(op, "_datasource", None), FooterDatasource):
            return None
    except (AttributeError, ValueError):
        pass
    return PARTIAL_BATCH_ROWS


def _two_phase(ds: Dataset, stage: PartialAggStage,
               n_buckets: int | str) -> Dataset:
    combine = CombineStage(stage.keys, stage.out_cols,
                           min_cols=tuple(stage.min_cols),
                           max_cols=tuple(stage.max_cols))
    partial = then(ds, stage, batch_size=_partial_batch_size(ds))
    if bucketing.fits_one_task(ds):
        return combine_all(partial, combine)
    return bucketing.bucketed_map_groups(partial, stage.keys[0], combine,
                                         n_buckets=n_buckets)


def grouped_agg(ds: Dataset, keys: list[str], count_name: str | None = None,
                sum_cols: dict[str, str] | None = None,
                min_cols: dict[str, str] | None = None,
                max_cols: dict[str, str] | None = None,
                n_buckets: int | str = "auto") -> Dataset:
    """General two-phase grouped aggregate (count/sum/min/max). Each
    batch first reduces to one partial row per distinct key (projected
    to the key and aggregate columns); the merge is chosen by
    ``bucketing.fits_one_task``.

    Input measured at most ``TARGET_BUCKET_BYTES`` through row-bounded
    operators: ONE combine task over all partials (``repartition(1)``,
    no sort, no hash shuffle) — the partials hold no more rows than the
    sources, whatever the key.

    Larger or unmeasured input: the partials are hash-bucketed by
    keys[0] into ``n_buckets`` buckets and ONE Arrow group_by per bucket
    merges them — exact, since a key tuple's partials share keys[0],
    hence a bucket. A hot key sends at most one row per batch into the
    exchange (the batch index acts as the salt), and the exchange sorts
    an int bucket id, never the string keys themselves.
    """
    return _two_phase(
        ds, PartialAggStage(keys, count_name, sum_cols, min_cols, max_cols),
        n_buckets)


def grouped_count(ds: Dataset, keys: list[str], count_name: str = "n_turns",
                  sum_cols: dict[str, str] | None = None,
                  n_buckets: int | str = "auto") -> Dataset:
    """The count/sum subset of :func:`grouped_agg`, same merge rule.
    On the one-task path the final task reads at most |keys| partial
    rows per batch; on the bucket path the result stays distributed."""
    return _two_phase(ds, PartialCountStage(keys, count_name, sum_cols),
                      n_buckets)


def add_time_bucket(batch: pa.Table, ts_col: str = "ts", unit: str = "hour",
                    out: str = "bucket") -> pa.Table:
    return batch.append_column(out, pc.floor_temporal(batch.column(ts_col), unit=unit))


def count_distinct(ds: Dataset, cols: list[str],
                   out_name: str = "n_distinct") -> Dataset:
    """Exact distinct count, two-phase: per-batch distinct key rows (the
    mergeable 'sketch' for exact distinct) → one merge task → count.
    Shuffle-free; requires the distinct set to fit one task (else use
    :func:`grouped_count` over ``cols`` or an approximate sketch)."""
    def distinct(batch: pa.Table) -> pa.Table:
        return group_aggregate(batch, cols, [])

    partial = ds.select_columns(cols).map_batches(distinct, batch_format="pyarrow")
    return combine_all(partial, lambda t: pa.table({out_name: pa.array(
        [distinct(t).num_rows], pa.int64())}))


def grouped_count_distinct(ds: Dataset, keys: list[str],
                           distinct_col: str,
                           out_name: str = "n_distinct",
                           n_buckets: int | str = "auto") -> Dataset:
    """EXACT per-key COUNT(DISTINCT distinct_col). Each 64k-row batch
    first reduces to its distinct (keys, distinct_col) rows, then ONE
    hash-bucket exchange on ``keys[0]`` brings every key's pairs to one
    task, where two Arrow group_bys dedupe the pairs and count them per
    key. Only distinct pairs flow; null keys form one group (SQL GROUP
    BY), null values are not counted (SQL COUNT(DISTINCT)). ONE key's
    whole distinct-value set must fit its bucket task."""
    from .bucketing import bucketed_map_groups

    cols = keys + [distinct_col]

    def batch_distinct(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(distinct_col)))
        return group_aggregate(t, cols, [])

    def per_bucket(t: pa.Table) -> pa.Table:
        g = group_aggregate(group_aggregate(t, cols, []), keys,
                            [([], "count_all")])
        return pa.table({**{k: g.column(k) for k in keys},
                         out_name: g.column("count_all")})

    dd = ds.select_columns(cols).map_batches(
        batch_distinct, batch_format="pyarrow", batch_size=65536)
    return bucketed_map_groups(dd, keys[0], per_bucket, n_buckets=n_buckets)


class VectorSumStage:
    """Per-batch partial for element-wise vector aggregation: per key, the
    vector SUM and row count (mergeable → mean at the end)."""

    def __init__(self, key: str, vec_col: str = "embedding"):
        self.key, self.vec_col = key, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        col = batch.column(self.vec_col).combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(col)
        dim = len(flat) // n if n else 0
        x = flat.reshape(n, dim) if n else flat.reshape(0, 0)
        keys = batch.column(self.key).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros((len(uniq), dim))
        np.add.at(sums, inv, x)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            self.key: pa.array(uniq),
            "vec_sum": pa.array(list(sums), pa.list_(pa.float64())),
            "n": pa.array(counts),
        })


def vector_mean_by(ds: Dataset, key: str,
                   vec_col: str = "embedding") -> Dataset:
    """Element-wise mean vector per key (embedding centroids), two-phase:
    per-batch partial sums, then one combine task."""
    import numpy as np

    partial = ds.select_columns([key, vec_col]).map_batches(
        VectorSumStage(key, vec_col), batch_format="pyarrow")

    def combine(batch: pa.Table) -> pa.Table:
        keys = batch.column(key).to_numpy(zero_copy_only=False)
        col = batch.column("vec_sum").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        n = len(col)
        dim = len(flat) // n if n else 0
        x = flat.reshape(n, dim) if n else flat.reshape(0, 0)
        cnt = batch.column("n").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros((len(uniq), dim))
        np.add.at(sums, inv, x)
        counts = np.zeros(len(uniq), np.int64)
        np.add.at(counts, inv, cnt)
        return pa.table({key: pa.array(uniq),
                         "vec_sum": pa.array(list(sums), pa.list_(pa.float64())),
                         "n": pa.array(counts)})

    merged = combine_all(partial, combine)

    def to_mean(batch: pa.Table) -> pa.Table:
        col = batch.column("vec_sum").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        n = len(col)
        dim = len(flat) // n if n else 0
        x = flat.reshape(n, dim) if n else flat.reshape(0, 0)
        cnt = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        means = x / cnt[:, None] if n else x
        return pa.table({batch.column_names[0]: batch.column(0),
                         "centroid": pa.array(list(means), pa.list_(pa.float64())),
                         "n": batch.column("n")})

    return merged.map_batches(to_mean, batch_format="pyarrow", batch_size=None)


__all__ = [
    "PartialCountStage", "grouped_count", "add_time_bucket",
    "Count", "Sum", "Mean", "Min", "Max",
]


def grouped_topk(ds: Dataset, key: str, order_col: str, k: int = 3,
                 descending: bool = True, tiebreak: str | None = None,
                 rank_name: str = "rk", prereduce: bool = True,
                 n_buckets: int | str = "auto") -> Dataset:
    """Top-k rows PER KEY (row_number() OVER (PARTITION BY key ORDER BY
    order_col [DESC][, tiebreak]) <= k), keys unbounded.

    Scale shape: each block first reduces itself to ≤ k candidate rows
    per key it contains (``prereduce`` — the global per-key top-k is a
    subset of the union of per-block top-ks, so this is exact and
    bounds the exchange to k × blocks rows per key instead of the raw
    input), then the bucket idiom — hash-bucket by key, ONE Arrow sort
    + numpy segment-rank pass per bucket (never a Python call per key,
    never a global sort). Ranks are deterministic: pass ``tiebreak`` to
    break order_col ties (otherwise ties rank in bucket sort order;
    with ties and no tiebreak, prereduce may drop tied rows that
    bucket-sort order would have ranked — the KEPT SET is only
    deterministic when the (order_col, tiebreak) ordering is total, the
    same caveat SQL row_number has). Emits the 1-based rank as
    ``rank_name``."""
    import numpy as np

    from .bucketing import bucketed_map_groups, key_segments

    order = [(key, "ascending"),
             (order_col, "descending" if descending else "ascending")]
    if tiebreak:
        order.append((tiebreak, "ascending"))

    def pick(t: pa.Table, final: bool = True) -> pa.Table:
        t = t.sort_by(order)
        keys = t.column(key).to_numpy(zero_copy_only=False)
        _, seg_start = key_segments(keys)
        rank = np.arange(len(keys)) - seg_start
        keep = rank < k
        out = t.filter(pa.array(keep))
        if not final:
            return out
        return out.append_column(
            rank_name, pa.array((rank[keep] + 1).astype(np.int64)))

    if prereduce:
        ds = ds.map_batches(lambda t: pick(t, final=False),
                            batch_format="pyarrow")
    return bucketed_map_groups(ds, key, pick, n_buckets=n_buckets)


def exact_global_quantile(ds: Dataset, col: str, q: float,
                          max_distinct: int = 4_000_000) -> int:
    """EXACT global quantile of an integer column at any data scale,
    rank rule r = ceil(q·n) − 1, ascending — DuckDB ``quantile_disc``'s
    rule at every q (verified empirically; the floor((n−1)q) rule used by
    the per-key quantile ops agrees only at some q, e.g. 0.5).

    Scale shape: the 10^12-row input reduces to one count per DISTINCT
    VALUE (grouped count, behind an HLL screen);
    only that value-count table (bounded by the value domain, not the row
    count) reaches the driver. The two-pass global-threshold pattern:
    call this, then filter with the returned scalar broadcast into the
    second pass.

    ``max_distinct`` guards the bounded-value-domain contract the same
    way ``build_function_table``'s max_names and ``unigram_mass``'s
    max_vocab do: the distinct-value table is ``count()``-ed BEFORE it is
    pulled to the driver, and an over-cap domain (e.g. a ~2^32-distinct
    raw id column) raises loudly with a pointer to the KLL sketch path
    instead of OOM-ing the driver.

    Thin wrapper over :func:`exact_global_quantiles` (single shared
    implementation of the guard, pull and rank rule)."""
    return exact_global_quantiles(ds, col, (q,),
                                  max_distinct=max_distinct)[0]


def exact_global_quantiles(ds: Dataset, col: str, qs: tuple[float, ...],
                           max_distinct: int = 4_000_000) -> list[int]:
    """EXACT global quantiles at SEVERAL q in ONE pass — same contract,
    rank rule and cardinality guard as :func:`exact_global_quantile`,
    but the value-count table is built once and every rank is read off
    it (the equi-depth-bucketing / multi-threshold pattern: call this,
    broadcast the threshold list, assign buckets with one searchsorted
    per batch)."""
    import numpy as np

    # the WHOLE distinct-value table is pulled to the driver below, and
    # on the one-task path one merge task holds it — so the cardinality
    # guard must fire BEFORE either exists (a post-hoc count would OOM
    # first). One cheap HLL pass (map-only, ~1.6% error, one tiny row
    # per block moved) screens the domain; the exact count still runs
    # below for the boundary band.
    from .sketch import approx_distinct

    est = approx_distinct(ds.select_columns([col]), col)
    if est > float(max_distinct):
        raise ValueError(
            f"exact_global_quantiles: {col!r} has ~{int(est):,} distinct "
            f"values (HLL estimate > max_distinct={int(max_distinct):,}); "
            "the exact value-count table would not fit one task. Use the "
            "mergeable KLL sketch (stages/sketch.py approx_quantiles) or "
            "raise max_distinct if the cluster has headroom.")
    counts = grouped_count(ds.select_columns([col]), [col],
                           count_name="_n")
    counts = counts.materialize()
    n_distinct = counts.count()
    if n_distinct > int(max_distinct):
        raise ValueError(
            f"exact_global_quantiles: {col!r} has {n_distinct:,} distinct "
            f"values (> max_distinct={int(max_distinct):,}); use the KLL "
            "sketch path (stages/sketch.py approx_quantiles)")
    pdf = counts.to_pandas().sort_values(col)
    if not len(pdf):
        raise ValueError(f"exact_global_quantiles: no rows in {col!r}")
    n = int(pdf["_n"].sum())
    cum = pdf["_n"].cumsum().to_numpy()
    vals = pdf[col].to_numpy()
    out = []
    for q in qs:
        r = min(max(int(np.ceil(float(q) * n)) - 1, 0), n - 1)
        out.append(int(vals[int(np.searchsorted(cum, r + 1))]))
    return out


def grouped_mode(ds: Dataset, key: str, value_col: str,
                 out_name: str = "mode", count_name: str = "mode_n",
                 n_buckets: int | str = "auto") -> Dataset:
    """EXACT per-key mode (most frequent ``value_col``) with the SQL-
    mirrorable deterministic tie-break: highest count, then SMALLEST
    value. Two phases: the corpus first reduces to its distinct
    (key, value, n) rows (bucket grouped count — unbounded-key safe,
    skew-neutralized by per-batch partials), then one vectorized
    argmax per hash bucket of the count table picks each key's winner.
    Nulls in ``value_col`` are ignored (SQL aggregate convention)."""
    from .bucketing import bucketed_map_groups, key_segments

    def drop_nulls(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column(value_col)))

    counts = grouped_count(
        ds.select_columns([key, value_col]).map_batches(
            drop_nulls, batch_format="pyarrow"),
        [key, value_col], count_name="_n")

    def pick(t: pa.Table) -> pa.Table:
        # ascending (key, -n, value): each key's first row is its mode
        t = t.append_column("_negn", pc.negate(t.column("_n")))
        t = t.sort_by([(key, "ascending"), ("_negn", "ascending"),
                       (value_col, "ascending")])
        keys = t.column(key).to_numpy(zero_copy_only=False)
        change, _ = key_segments(keys)
        t = t.filter(pa.array(change))
        return pa.table({key: t.column(key),
                         out_name: t.column(value_col),
                         count_name: t.column("_n")})

    return bucketed_map_groups(counts, key, pick, n_buckets=n_buckets)


def grouped_trimmed(ds: Dataset, key: str, value_col: str,
                    trim_permille: int = 100,
                    n_buckets: int | str = "auto") -> Dataset:
    """EXACT per-key trimmed mean — the robust-location aggregate
    between the plain mean and :func:`grouped_mode`/median: drop the
    lowest and highest ``floor(n·trim_permille/1000)`` values of each
    key, then average what remains. Emitted as exact integer lanes
    (``n``, ``n_mid``, ``sum_mid``, ``mean_milli = 1000·sum_mid //
    n_mid``) so the SQL mirror (rank-window filter + FILTER sums)
    hash-matches bit for bit.

    Scale shape: the corpus first reduces to its distinct (key, value,
    count) rows — the grouped-exact-quantiles discipline, so a 10^12-row
    input with a bounded integer value domain ships |keys|×|values|
    fixed-width rows, never raw rows. Inside one hash-bucket exchange of
    that count table, every key's trim window falls out of one cumsum +
    two clips (the multiset in ranks (d, n−d] is tie-order-independent,
    which is what makes the value-only ordering exact). ``value_col``
    must be integer (integerize first — cents); magnitude is guarded
    loudly so Σ|v|·count stays in int64."""
    from .bucketing import bucketed_map_groups, key_segments

    if not 0 <= int(trim_permille) < 500:
        raise ValueError(
            "grouped_trimmed: trim_permille must be in [0, 500)")
    tp = int(trim_permille)

    def check(t: pa.Table) -> pa.Table:
        if not pa.types.is_integer(t.column(value_col).type):
            raise TypeError(
                f"grouped_trimmed: {value_col!r} must be integer "
                f"(got {t.column(value_col).type}); integerize first")
        return t.filter(pc.is_valid(t.column(value_col)))

    counts = grouped_count(
        ds.select_columns([key, value_col]).map_batches(
            check, batch_format="pyarrow"),
        [key, value_col], count_name="_c")

    def trim(t: pa.Table) -> pa.Table:
        e = pa.array([], pa.int64())
        if t.num_rows == 0:
            return pa.table({key: t.column(key).slice(0, 0), "n": e,
                             "n_mid": e, "sum_mid": e, "mean_milli": e})
        t = t.sort_by([(key, "ascending"), (value_col, "ascending")])
        keys = t.column(key).to_numpy(zero_copy_only=False)
        change, seg_start = key_segments(keys)
        starts = np.flatnonzero(change)
        v = t.column(value_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        c = t.column("_c").to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.cumsum(c)
        base = np.zeros(len(c), np.int64)
        base[starts[1:]] = cum[starts[1:] - 1]
        base = np.maximum.accumulate(base)  # per-row segment offset
        cum_in = cum - base                 # cumulative count within key
        prev_in = cum_in - c
        n = np.add.reduceat(c, starts)
        if len(v) and len(n):
            vmax = int(np.abs(v).max())
            if vmax and int(n.max()) > (2 ** 62) // max(vmax, 1):
                raise ValueError(
                    "grouped_trimmed: sum_mid would overflow int64 "
                    f"(max|v|={vmax:,} × max n={int(n.max()):,}) — "
                    "rescale the value domain first")
        d = (n * tp) // 1000
        n_row = n[np.cumsum(change) - 1]
        d_row = d[np.cumsum(change) - 1]
        lo = np.maximum(prev_in, d_row)
        hi = np.minimum(cum_in, n_row - d_row)
        take = np.maximum(hi - lo, 0)
        sum_mid = np.add.reduceat(v * take, starts)
        n_mid = n - 2 * d
        # truncating division (DuckDB // truncates toward zero; numpy
        # floors) — sign-split so negative sums still hash-match
        num = 1000 * sum_mid
        mean = np.sign(num) * (np.abs(num) // np.maximum(n_mid, 1))
        return pa.table({
            key: t.column(key).take(pa.array(starts)),
            "n": pa.array(n), "n_mid": pa.array(n_mid),
            "sum_mid": pa.array(sum_mid),
            "mean_milli": pa.array(mean, mask=n_mid <= 0)})

    return bucketed_map_groups(counts, key, trim, n_buckets=n_buckets)


def grouped_string_agg(ds: Dataset, key: str, order_by: list[str],
                       value_col: str, sep: str = ",",
                       out_name: str = "agg",
                       n_buckets: int | str = "auto") -> Dataset:
    """SQL ``string_agg(value, sep ORDER BY order_by)`` per key — the
    ordered-concatenation aggregate (session path strings, tag lists).
    One bucket exchange; within each bucket the sorted segment offsets
    become one Arrow ListArray and ONE ``binary_join`` call produces
    every key's string — no per-key Python. Order ties: pass a unique
    tie-break column for cross-engine determinism. Nulls in
    ``value_col`` are skipped (SQL string_agg convention); keys whose
    values are all null emit an empty string (SQL would emit NULL —
    mirror with coalesce)."""
    from .bucketing import bucketed_map_groups, key_segments

    def agg(t: pa.Table) -> pa.Table:
        t = t.sort_by([(key, "ascending")]
                      + [(c, "ascending") for c in order_by])
        keys = t.column(key).to_numpy(zero_copy_only=False)
        change, _ = key_segments(keys)
        n = t.num_rows
        starts = np.flatnonzero(change)
        v = t.column(value_col)
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        if v.null_count:
            valid = pc.is_valid(v).to_numpy(zero_copy_only=False)
            # per-segment offsets over the surviving values only
            kept_before = np.concatenate([[0], np.cumsum(valid)])
            offs = kept_before[np.append(starts, n)]
            v = v.filter(pa.array(valid))
        else:
            offs = np.append(starts, n)
        lists = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), pc.cast(v, pa.string()))
        joined = pc.binary_join(lists, sep)
        return pa.table({key: t.column(key).take(
            pa.array(starts, pa.int64())), out_name: joined})

    return bucketed_map_groups(ds.select_columns(
        [key, *order_by, value_col]), key, agg, n_buckets=n_buckets)
