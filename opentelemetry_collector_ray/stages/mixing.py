"""Deterministic corpus mixing — the data-mixture sampling step of a
pretraining pipeline: combine per-class (per-source, per-language,
per-domain) populations into a target ratio WITHOUT upsampling, by
deterministic integer-permille downsampling.

Scale shape: pass 1 is a bounded-key grouped count (one row per class
reaches the driver); the per-class keep rates are pure integer
arithmetic (reproducible in SQL — the oracle computes the same rates
from the same counts); pass 2 is one streaming filter with a vectorized
dictionary probe (``pc.index_in`` + ``id % base < permille``), the same
selection idiom as stratified sampling. Nothing shuffles; the filter
composes with any downstream pipeline.

The mixture math (all integer):

- ``scale = min_k counts[k] // weights[k]`` — the largest number of
  "weight units" every class can supply without upsampling (the
  bottleneck class is kept whole, modulo permille rounding);
- ``target_k = weights[k] * scale``;
- ``permille_k = (target_k * base) // counts[k]`` (capped at ``base``).

Classes absent from ``weights`` get rate 0 (dropped); a weighted class
with zero rows fails loudly (the requested mixture is unsatisfiable).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .bucketing import persisted_factory
from .treereduce import collect

MAX_CLASSES = 10_000  # the rate dict is broadcast; keep it bounded


def mixture_rates(counts: dict[str, int], weights: dict[str, int],
                  base: int = 1000) -> dict[str, int]:
    """Per-class keep rate (0..base) achieving the ``weights`` ratio at
    the largest no-upsampling scale. Pure integer arithmetic."""
    if not weights:
        raise ValueError("mixture_rates: weights must be non-empty")
    if any(w <= 0 for w in weights.values()):
        raise ValueError("mixture_rates: weights must be positive "
                         "(omit a class to drop it)")
    missing = [k for k in weights if counts.get(k, 0) == 0]
    if missing:
        raise ValueError(
            f"mixture_rates: weighted classes have no rows: {missing} — "
            "the requested mixture is unsatisfiable without upsampling")
    scale = min(counts[k] // w for k, w in weights.items())
    if scale == 0:
        raise ValueError(
            "mixture_rates: some weighted class has fewer rows than its "
            "weight; reduce the weight granularity")
    return {k: min(base, (w * scale * base) // counts[k])
            for k, w in weights.items()}


def mix_by_class(make_ds, class_col: str, weights: dict[str, int],
                 id_col: str, base: int = 1000,
                 persist: str = "none") -> ray.data.Dataset:
    """Two-pass deterministic mixture: count per class (pass 1, one row
    per class on the driver), then keep rows where ``id % base <
    permille[class]`` (pass 2, one vectorized probe per batch).
    ``make_ds`` is the usual zero-arg factory; ``persist`` as in
    :func:`stages.bucketing.persisted_factory`. ``id_col`` must be an
    integer column with class-independent residues mod ``base`` (a dense
    or random id; NOT an id correlated with the class)."""
    from .aggregate import grouped_count

    make_ds = persisted_factory(make_ds, persist)
    ct = grouped_count(make_ds().select_columns([class_col]),
                       [class_col], count_name="_n").to_pandas()
    if len(ct) > MAX_CLASSES:
        raise ValueError(
            f"mix_by_class: {len(ct)} classes > {MAX_CLASSES}; a mixture "
            "over unbounded classes needs a join, not a broadcast dict")
    counts = dict(zip(ct[class_col], ct["_n"].astype(int)))
    rates = mixture_rates(counts, weights, base)

    rate_keys = pa.array(list(rates), pa.string())
    rate_vals = np.array(list(rates.values()) + [0], np.int64)

    def pick(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        idx = pc.index_in(t.column(class_col), value_set=rate_keys) \
            .fill_null(len(rate_vals) - 1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(ids % base < rate_vals[idx]))

    return make_ds().map_batches(pick, batch_format="pyarrow")


def select_token_budget(make_ds, score_col: str, token_col: str,
                        budget: int, id_col: str = "doc_id",
                        cum_col: str = "cum_before",
                        persist: str = "none"):
    """Greedy token-budget corpus selection — "take the best documents
    until the token budget is spent": rows ordered by (``score_col``
    DESC, ``id_col`` ASC) are kept while their INCLUSIVE cumulative
    ``token_col`` stays within ``budget`` (exactly the SQL running-sum
    prefix ``sum(tokens) OVER (ORDER BY score DESC, id) <= budget``).

    Scale shape: a composition of two existing primitives — the
    range-partitioned sample ``global_sort`` (with its dense global
    rank) feeds ``ordered_prefix_sum`` over the rank (globally unique,
    range-partitioned in order by construction, so the prefix-sum's
    pass-2 validation holds by design), then one streaming filter. The
    sorted result is materialized once by the rank pass; nothing else
    lands on the driver beyond the per-partition stats both primitives
    already keep. Appends ``cum_col`` (exclusive running total before
    the row)."""
    from .packing import ordered_prefix_sum
    from .sort import global_sort

    if budget < 0:
        raise ValueError("select_token_budget: budget must be >= 0")
    srt = global_sort(make_ds, [score_col, id_col],
                      descending=[True, False], rank_col="_rank",
                      persist=persist)
    cum = ordered_prefix_sum(lambda: srt, "_rank", token_col,
                             out_col=cum_col)

    def cut(t: pa.Table) -> pa.Table:
        tot = pc.add(t.column(cum_col), t.column(token_col))
        return t.filter(pc.less_equal(tot, budget)).drop_columns(
            ["_rank"])

    return cum.map_batches(cut, batch_format="pyarrow")


def epoch_order(ds: ray.data.Dataset, id_col: str, *, epoch: int,
                n_shards: int, hash_mode: str = "xx64",
                shard_col: str = "shard", pos_col: str = "pos"
                ) -> ray.data.Dataset:
    """Deterministic multi-epoch training order: every row gets a
    ``(shard, pos)`` coordinate for the given ``epoch`` — the data-order
    plan a trainer consumes. ``h = hash(id ':' epoch)`` drives both the
    shard (``h mod n_shards``) and the within-shard position (rank of
    ``h`` with an ``id`` tie-break), so a NEW epoch is a full reshuffle
    with ZERO coordination: any worker recomputes its own shard's order
    independently of every other worker — no shared RNG state, no
    shuffle of the payload (the classic hash-shuffled epoch scheme,
    e.g. Megatron/ Mosaic StreamingDataset shuffling).

    ``hash_mode="xx64"`` is the production path; ``"md5"`` is the
    cross-engine oracle mode (shard = first-6-hex-digits mod, position
    ordered by the full hex digest — the exact SQL expressions).
    One bucket exchange keyed on the shard; positions are numpy
    segment ranks inside each bucket."""
    from .bucketing import bucketed_map_groups, key_segments

    if int(n_shards) < 1:
        raise ValueError(f"epoch_order: n_shards must be >= 1, "
                         f"got {n_shards}")
    if hash_mode not in ("xx64", "md5"):
        raise ValueError(f"epoch_order: unknown hash_mode {hash_mode!r}")
    n_shards = int(n_shards)
    suffix = f":{int(epoch)}"

    def keyed(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            pc.cast(t.column(id_col), pa.string()), suffix, "")
        if hash_mode == "md5":
            from ..functions.text import md5_hex

            hx = md5_hex(k)
            shard = np.array([int(h[:6], 16) % n_shards
                              for h in hx.to_pylist()], np.int64)
            hcol: pa.Array = hx
        else:
            from ..functions.hashing import hash64

            h = hash64(k)
            shard = (h % np.uint64(n_shards)).astype(np.int64)
            hcol = pa.array(h, pa.uint64())
        return (t.append_column(shard_col, pa.array(shard))
                .append_column("_h", hcol))

    def order(t: pa.Table) -> pa.Table:
        t = t.sort_by([(shard_col, "ascending"), ("_h", "ascending"),
                       (id_col, "ascending")])
        keys = t.column(shard_col).to_numpy(zero_copy_only=False)
        _change, seg_start = key_segments(keys)
        pos = np.arange(t.num_rows) - seg_start
        return t.drop_columns(["_h"]).append_column(
            pos_col, pa.array(pos.astype(np.int64)))

    return bucketed_map_groups(
        ds.map_batches(keyed, batch_format="pyarrow"), shard_col,
        order, n_buckets="auto")


def select_top_share_by(ds: ray.data.Dataset, key: str, value_col: str,
                        id_col: str, *, share_num: int, share_den: int,
                        n_buckets: int | str = "auto"
                        ) -> ray.data.Dataset:
    """Per-key top-p ("nucleus") selection: within every ``key``
    partition, rows ordered by (``value_col`` DESC, ``id_col`` ASC) are
    kept while the EXCLUSIVE running total of ``value_col`` is still
    below ``share_num/share_den`` of the partition total — i.e. the
    smallest value-heavy prefix whose mass reaches the target share
    (the row that crosses the threshold is included). The per-key
    analog of ``select_token_budget``'s global greedy cut; the
    diversity-vs-mass knob a corpus-mixing pipeline uses to cap each
    source/domain at a fixed share of its own heaviest items.

    Exact integer semantics (``value_col`` must be an integer lane, as
    everywhere in the repo's oracle-checked selection family):
    keep ⇔ ``cum_before * share_den < share_num * partition_total`` —
    mirrors the SQL window ``sum(v) OVER (... ROWS UNBOUNDED PRECEDING
    AND 1 PRECEDING)`` predicate with no float division. Negative
    values are rejected (the prefix-mass semantics need a monotone
    running total).

    Scale shape: one hash-bucket exchange on ``key`` (the repo's
    bounded-group idiom — many keys per bucket task, numpy segment
    kernels inside, never one task per key); per-bucket work is one
    sort + one segment cumsum. Appends nothing; returns the kept rows
    with the input schema."""
    from .bucketing import bucketed_map_groups, key_segments

    if share_den <= 0 or share_num < 0:
        raise ValueError("select_top_share_by: share must be a "
                         "non-negative rational with positive "
                         "denominator")

    def bucket_fn(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        vcol = t.column(value_col)
        if not pa.types.is_integer(vcol.type):
            raise ValueError(
                f"select_top_share_by: {value_col!r} must be an "
                f"integer lane, got {vcol.type} — integerize first "
                "(cents / e6) like the rest of the selection family")
        t = t.sort_by([(key, "ascending"),
                       (value_col, "descending"),
                       (id_col, "ascending")])
        keys = t.column(key).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False
                                         ).astype(np.int64)
        if (v < 0).any():
            raise ValueError("select_top_share_by: negative values "
                             "break prefix-mass semantics")
        change, seg_start = key_segments(keys)
        csum = np.cumsum(v)
        base = np.where(seg_start > 0, csum[seg_start - 1], 0)
        cum_before = np.concatenate([[0], csum[:-1]]) - base
        # per-row partition total: total of the segment the row is in.
        ends_per_seg = np.append(np.flatnonzero(change)[1:], len(v))
        totals_per_seg = csum[ends_per_seg - 1] - np.where(
            np.flatnonzero(change) > 0,
            csum[np.flatnonzero(change) - 1], 0)
        seg_of_row = np.cumsum(change) - 1
        total = totals_per_seg[seg_of_row]
        keep = cum_before * int(share_den) < int(share_num) * total
        return t.filter(pa.array(keep))

    return bucketed_map_groups(ds, key, bucket_fn, n_buckets=n_buckets)


def select_budget_by(ds: ray.data.Dataset, key: str, value_col: str,
                     id_col: str, *, budget: int,
                     order_col: str | None = None,
                     n_buckets: int | str = "auto"
                     ) -> ray.data.Dataset:
    """Per-key ABSOLUTE budget cap — "at most ``budget`` tokens per
    domain": within every ``key`` partition, rows ordered by
    (``order_col`` DESC, ``id_col`` ASC) are kept while their INCLUSIVE
    running ``value_col`` total stays within ``budget`` (the SQL window
    ``sum(v) OVER (PARTITION BY key ORDER BY score DESC, id) <=
    budget``). The fixed-ceiling sibling of
    :func:`select_top_share_by` (relative share) and the per-key analog
    of :func:`select_token_budget` (global budget) — the standard
    web-curation "domain quota" that stops one giant source from
    dominating a mixture. ``order_col`` defaults to ``value_col``
    (largest-first greedy).

    Exact integer semantics: ``value_col`` must be an integer lane and
    non-negative (monotone running total), as everywhere in the
    selection family. Scale shape: one hash-bucket exchange on ``key``,
    numpy segment cumsum inside the bucket — never a task per key."""
    from .bucketing import bucketed_map_groups, key_segments

    if budget < 0:
        raise ValueError("select_budget_by: budget must be >= 0")
    order_col = order_col or value_col

    def bucket_fn(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        vcol = t.column(value_col)
        if not pa.types.is_integer(vcol.type):
            raise ValueError(
                f"select_budget_by: {value_col!r} must be an integer "
                f"lane, got {vcol.type} — integerize first (cents / "
                "e6) like the rest of the selection family")
        t = t.sort_by([(key, "ascending"),
                       (order_col, "descending"),
                       (id_col, "ascending")])
        v = t.column(value_col).to_numpy(zero_copy_only=False
                                         ).astype(np.int64)
        if (v < 0).any():
            raise ValueError("select_budget_by: negative values break "
                             "prefix-mass semantics")
        keys = t.column(key).to_numpy(zero_copy_only=False)
        _, seg_start = key_segments(keys)
        csum = np.cumsum(v)
        base = np.where(seg_start > 0, csum[seg_start - 1], 0)
        return t.filter(pa.array(csum - base <= budget))

    return bucketed_map_groups(ds, key, bucket_fn, n_buckets=n_buckets)


def fair_quota(ds: ray.data.Dataset, tenant_col: str, capacity: int, *,
               max_tenants: int = 1_000_000) -> ray.data.Dataset:
    """Max-min fair (water-filling) quota allocation — the multi-tenant
    admission rule a shared ingest pipeline applies when demand exceeds
    capacity: every tenant gets min(demand, T) where the water level T
    is the unique threshold making the grants sum to the capacity;
    small tenants are never starved by large ones. Exact integers:
    with demands sorted ascending, the first tenant j whose full grant
    would blow the budget (cum_{j-1} + d_j·(n−j+1) > C) fixes
    T = (C − cum_{j-1}) / (n−j+1), and the emitted grant is
    min(d_i, T_num // T_den) — the SQL mirror is the same window
    prefix sums and truncating division (all terms non-negative, so
    floor == trunc). No contention (Σd ≤ C) grants every demand.

    Output: one row per tenant — ``tenant_col``, ``demand``,
    ``alloc``. Ties in demand order by tenant for a total order.

    Scale shape: the raw rows reduce once to per-tenant demand counts
    (two-phase grouped count, tenants unbounded); only that
    skinny table — ``count()``-guarded by ``max_tenants`` BEFORE the
    pull — reaches the driver for the closed-form threshold, and the
    result IS the small table (no second pass over the data)."""
    from .aggregate import grouped_count

    if capacity < 0:
        raise ValueError("fair_quota: capacity must be >= 0")
    demands = grouped_count(ds.select_columns([tenant_col]),
                            [tenant_col], count_name="demand").materialize()
    n = demands.count()
    if n > int(max_tenants):
        raise ValueError(
            f"fair_quota: {n:,} tenants exceed max_tenants="
            f"{int(max_tenants):,} — allocate per partition instead")
    parts = collect(demands)
    if not parts:
        return ray.data.from_arrow(pa.table({
            tenant_col: pa.array([], pa.string()),
            "demand": pa.array([], pa.int64()),
            "alloc": pa.array([], pa.int64())}))
    tbl = pa.concat_tables(parts).sort_by(
        [("demand", "ascending"), (tenant_col, "ascending")])
    d = tbl.column("demand").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    cum = np.cumsum(d)
    total = int(cum[-1])
    if total <= capacity:
        alloc = d
    else:
        nn = len(d)
        ranks = np.arange(nn, dtype=np.int64)
        # first j where granting d_j to everyone not yet capped blows
        # the budget: cum_{j-1} + d_j * (n - j) > C  (0-based)
        prev = cum - d
        blow = prev + d * (nn - ranks) > capacity
        j = int(np.argmax(blow))  # blow is monotone once true
        t_num = capacity - int(prev[j])
        t_den = nn - j
        level = t_num // t_den
        alloc = np.minimum(d, level)
    out = pa.table({tenant_col: tbl.column(tenant_col),
                    "demand": pa.array(d),
                    "alloc": pa.array(alloc.astype(np.int64))})
    return ray.data.from_arrow(out)
