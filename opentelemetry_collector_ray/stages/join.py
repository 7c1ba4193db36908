"""Broadcast (map-side) hash join and distributed big-big shuffle join.

The collector has no relational join (SURVEY.md §2.4) — its join-like ops
are enrichment lookups against small side tables. The engine generalizes
that two ways:

- ``broadcast_join``: the small side is ``ray.put`` once, fetched once
  per actor, probed per batch with ``pc.index_in`` — no shuffle ever
  touches the big side. ALWAYS prefer this when one side fits a worker.
- ``shuffle_hash_join``: both sides big — ONE int-bucket exchange
  co-partitions both inputs by ``hash(key) % n_buckets`` (the same
  bucket idiom as every per-key op, stages/bucketing.py), then one
  vectorized Arrow hash join per bucket. Nothing materializes on the
  driver; bucket count scales with input bytes, so at 100 TB a bucket
  stays a ~task-sized unit. Skew caveat: a single hot KEY lands in one
  bucket by construction (that is what makes the join exact); salt hot
  keys upstream if one key's rows exceed a task.
- ``asof_join`` / ``range_join``: the time-series custom operators the
  Dataset API lacks, on the same exchange.

Ray 2.49 ships an experimental ``Dataset.join`` (hash-shuffle
aggregator actors); measured on the sf0.1 lineitem⋈orders inner join it
runs 2.5-2.9 s vs 0.8-1.1 s for this bucket join at identical output
(the actor-pool aggregator setup dominates at this scale), and it
offers no as-of/range semantics — so the engine keeps the bucket path
for all three.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .bucketing import (_composite_bucket, _composite_hash,
                        bucketed_map_groups, exchange)


class BroadcastJoinStage:
    """Inner/left join of each batch against a broadcast right table on one
    key column. Right-side duplicate keys must be unique (dimension-table
    contract — validated in __init__)."""

    def __init__(self, right: pa.Table | None = None, right_ref=None, *,
                 key: str, right_key: str | None = None,
                 columns: list[str] | None = None, how: str = "inner"):
        if right is None:
            import ray

            right = ray.get(right_ref)  # broadcast fetch, once per actor
        right_key = right_key or key
        if pc.count_distinct(right.column(right_key)).as_py() != right.num_rows:
            raise ValueError(f"broadcast right side has duplicate keys on {right_key}")
        self.key, self.how = key, how
        self.right_keys = right.column(right_key).combine_chunks()
        cols = columns or [c for c in right.column_names if c != right_key]
        self.right_cols = {c: right.column(c).combine_chunks() for c in cols}

    def __call__(self, batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column(self.key), value_set=self.right_keys)
        if self.how == "inner":
            keep = idx.is_valid()
            batch = batch.filter(keep)
            idx = idx.filter(keep)
        for name, col in self.right_cols.items():
            batch = batch.append_column(name, pc.take(col, idx))
        return batch


def broadcast_join(ds: ray.data.Dataset, right: pa.Table, *, key: str,
                   right_key: str | None = None,
                   columns: list[str] | None = None, how: str = "inner",
                   concurrency=None) -> ray.data.Dataset:
    if concurrency:
        import ray

        ref = ray.put(right)
        return ds.map_batches(
            BroadcastJoinStage,
            fn_constructor_kwargs=dict(right_ref=ref, key=key, right_key=right_key,
                                       columns=columns, how=how),
            batch_format="pyarrow", concurrency=concurrency)
    return ds.map_batches(
        BroadcastJoinStage(right, key=key, right_key=right_key,
                           columns=columns, how=how),
        batch_format="pyarrow")


_JOIN_TYPES = {"inner": "inner", "left": "left outer", "full": "full outer",
               "semi": "left semi", "anti": "left anti"}


def _pad_union(left: ray.data.Dataset, right: ray.data.Dataset,
               key, rk):
    """Tag and union two datasets into one null-padded superset schema
    (Arrow null columns are validity-bitmap-only, ~free to ship) so ONE
    ``groupby(_bucket)`` exchange co-partitions both sides. The right
    key(s) are renamed to (and cast to the type of) the LEFT key
    column(s) — ``key``/``rk`` may be a single name or an equal-length
    list (composite key); right payload columns colliding with left
    names get an ``_r`` suffix.

    Returns (unioned_ds, left_names, renamed_right_payload_names)."""
    lkeys = [key] if isinstance(key, str) else list(key)
    rkeys = [rk] if isinstance(rk, str) else list(rk)
    if len(lkeys) != len(rkeys) or not lkeys:
        raise ValueError("join: key and right_key must be non-empty and "
                         "the same length")
    if len(set(lkeys)) != len(lkeys) or len(set(rkeys)) != len(rkeys):
        raise ValueError("join: duplicate names in the key list")
    # the sides' schemas plan the rename and cast: free for a read,
    # else one limit(1) run of that side, never of the join's exchange
    lschema = left.schema()
    rschema = right.schema()
    lnames = list(lschema.names)
    for k in lkeys:
        if k not in lnames:
            raise ValueError(f"left side has no key column {k!r}")
    for k in rkeys:
        if k not in rschema.names:
            raise ValueError(f"right side has no key column {k!r}")
    rbase = rschema.base_schema if hasattr(rschema, "base_schema") else rschema
    lbase = lschema.base_schema if hasattr(lschema, "base_schema") else lschema
    rk_of = dict(zip(lkeys, rkeys))
    r_payload = [n for n in rschema.names if n not in rkeys]
    rename = {n: (n + "_r" if n in lnames else n) for n in r_payload}
    # a rename target colliding with another column would die deep inside
    # a Ray task ("Field exists 2 times in schema") after burning the
    # whole exchange — validate before building the plan
    targets = list(rename.values())
    clash = [t for t in targets
             if targets.count(t) > 1 or (t.endswith("_r") and t in lnames)]
    if clash:
        raise ValueError(
            f"join: right column rename collides on {sorted(set(clash))}; "
            "rename the conflicting columns before joining")
    # _side/_bucket are appended by the exchange — an input column with
    # either name would die with "Field exists 2 times in schema" deep
    # inside a task; reject at plan-build time like the rename clash
    reserved = {"_side", "_bucket"}
    bad = sorted(reserved & (set(lnames) | set(rschema.names) | set(targets)))
    if bad:
        raise ValueError(
            f"join: input columns {bad} collide with reserved exchange "
            "columns _side/_bucket; rename them before joining")
    out_fields = [(n, lbase.field(n).type) for n in lnames] + \
        [(rename[n], rbase.field(n).type) for n in r_payload]
    target = pa.schema(out_fields + [("_side", pa.int8())])

    def pad(side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = []
            for name, typ in out_fields:
                if side == 0 and name in lnames:
                    cols.append(t.column(name).cast(typ))
                elif side == 1 and name in rk_of:
                    cols.append(t.column(rk_of[name]).cast(typ))
                elif side == 1 and name in rename.values():
                    src = next(s for s, d in rename.items() if d == name)
                    cols.append(t.column(src).cast(typ))
                else:
                    cols.append(pa.nulls(n, typ))
            cols.append(pa.array(np.full(n, side, np.int8)))
            return pa.Table.from_arrays(cols, schema=target)
        return fn

    unioned = left.map_batches(pad(0), batch_format="pyarrow").union(
        right.map_batches(pad(1), batch_format="pyarrow"))
    return unioned, lnames, [rename[n] for n in r_payload]


def build_key_bloom(ds: ray.data.Dataset, keys: list[str],
                    m_bits: int = 1 << 23,
                    n_hashes: int = 5) -> np.ndarray:
    """Bloom filter over a dataset's (composite) key — packed bit array
    (``m_bits / 8`` uint8 bytes). Mergeable: per-batch bit arrays OR
    together (one merge task, no shuffle). ~1 MB at the default 2^23 bits
    ≈ 1% false positives for 10^6 distinct keys with 5 hashes — sized
    to broadcast."""
    if m_bits % 8 or m_bits <= 0:
        raise ValueError("build_key_bloom: m_bits must be a positive "
                         "multiple of 8")

    def partial(t: pa.Table) -> pa.Table:
        from ..functions.hashing import hash64_ints

        bits = np.zeros(m_bits, bool)
        base = _composite_hash(t, keys)
        for r in range(n_hashes):
            idx = (hash64_ints(base, seed=r) % np.uint64(m_bits)) \
                .astype(np.int64)
            bits[idx] = True
        return pa.table({"bloom": pa.array([np.packbits(bits).tobytes()],
                                           pa.binary())})

    def merge(t: pa.Table) -> pa.Table:
        arrs = [np.frombuffer(b, dtype=np.uint8)
                for b in t.column("bloom").to_pylist()]
        merged = np.bitwise_or.reduce(arrs) if arrs \
            else np.zeros(m_bits // 8, np.uint8)
        return pa.table({"bloom": pa.array([merged.tobytes()],
                                           pa.binary())})

    from .treereduce import tree_reduce_single

    parts = ds.select_columns(keys).map_batches(
        partial, batch_format="pyarrow")
    row = tree_reduce_single(parts, merge)
    if row is None:
        # empty key side: the all-zero bloom (drops every probe —
        # exactly what an inner/semi join against nothing should do)
        return np.zeros(m_bits // 8, np.uint8)
    return np.frombuffer(row["bloom"], dtype=np.uint8)


class _BloomPrefilterStage:
    """Drop rows whose key is definitely absent from a broadcast bloom
    (``ray.put`` once; each task reads the shared-memory copy). False
    positives only pass extra rows — the join itself stays exact."""

    def __init__(self, bits_ref, keys: list[str], m_bits: int,
                 n_hashes: int):
        self._ref, self.keys = bits_ref, keys
        self.m, self.k = m_bits, n_hashes
        self._bits = None

    def __call__(self, t: pa.Table) -> pa.Table:
        import ray

        from ..functions.hashing import hash64_ints

        if self._bits is None:
            self._bits = ray.get(self._ref)
        base = _composite_hash(t, self.keys)
        hit = np.ones(t.num_rows, bool)
        for r in range(self.k):
            idx = (hash64_ints(base, seed=r) % np.uint64(self.m)) \
                .astype(np.int64)
            # packbits is big-endian: bit i lives at byte i>>3,
            # position (7 - i%8) from the LSB
            bit = (self._bits[idx >> 3].astype(np.int64)
                   >> (7 - (idx & 7))) & 1
            hit &= bit.astype(bool)
        return t.filter(pa.array(hit))


def _resolve_join_buckets(left, right, n_buckets):
    from .bucketing import adaptive_n_buckets, estimate_input_bytes

    if n_buckets == "auto":
        return adaptive_n_buckets(
            (estimate_input_bytes(left) or 0)
            + (estimate_input_bytes(right) or 0) or None)
    return int(n_buckets)


def shuffle_hash_join(left: ray.data.Dataset, right: ray.data.Dataset, *,
                      key, right_key=None,
                      how: str = "inner", salt: int = 1,
                      bloom_bits: int | None = None, bloom_hashes: int = 5,
                      n_buckets: int | str = "auto",
                      bucket_fn=None) -> ray.data.Dataset:
    """Distributed big-big equi-join: co-partition BOTH sides by
    ``hash(key) % n_buckets`` in one exchange (``_pad_union``), then one
    Arrow hash join per bucket (``pa.Table.join`` — vectorized, no Python
    per row). Ray schedules one task per bucket, each seeing all rows of
    both sides whose key hashes there. ``key`` / ``right_key`` may be a
    single column or an equal-length list (COMPOSITE key — bucketed on
    the combined hash, joined on all columns). ``how``: inner / left /
    full / semi / anti (semi and anti emit left columns only).

    ``salt > 1`` is the HOT-KEY lever: each left row goes to one of
    ``salt`` sub-buckets of its key and the right side is replicated into
    all of them, splitting a hot key's left rows across ``salt`` tasks at
    the cost of shipping the right side ``salt``×. Exact for inner / left
    / semi / anti (each left row meets the full right key group exactly
    once); rejected for full outer (unmatched RIGHT rows would duplicate
    per sub-bucket).

    ``bloom_bits`` is the EXCHANGE-REDUCTION lever for selective inner /
    semi joins: one extra pass builds a ``build_key_bloom`` over the
    RIGHT side's keys, broadcasts the ~``bloom_bits/8``-byte filter, and
    drops left rows that cannot match BEFORE the exchange — at 100 TB,
    a left side 100× the match rate ships 100× fewer rows. False
    positives only pass extra rows (the per-bucket Arrow join stays
    exact); rejected for left / full / anti, where dropping unmatched
    left rows changes the result.

    ``bucket_fn`` is the JOIN-THEN-GROUP fusion lever: a
    ``pa.Table -> pa.Table`` applied to each bucket's joined table
    INSIDE the join task. Every row of a join-key group lives in one
    bucket (both sides hash there), so any per-key-group reduction
    over the join output — roll-ups, per-group filters, partial
    aggregates keyed on the join key — is exact here and saves the
    re-exchange a downstream ``bucketed_map_groups`` on the same key
    would pay (measured 4.9 s → 0.9 s on the TPC-H Q21 shape at
    sf0.1). Rejected with ``salt > 1``: salting splits a key group
    across sub-buckets, so per-group post-processing would see
    partial groups."""
    if how == "right":
        # RIGHT join = LEFT join with the sides swapped (exact; salt
        # then splits the preserved side's rows, still exact). Key
        # columns come from the RIGHT side's names, like SQL RIGHT
        # JOIN's preserved relation.
        if bloom_bits:
            raise ValueError(
                "shuffle_hash_join: bloom_bits cannot preserve "
                "unmatched right rows (got how='right')")
        return shuffle_hash_join(right, left, key=right_key or key,
                                 right_key=key, how="left", salt=salt,
                                 n_buckets=n_buckets, bucket_fn=bucket_fn)
    if how not in _JOIN_TYPES:
        raise ValueError(f"shuffle_hash_join: unknown how={how!r}; "
                         f"one of {sorted(_JOIN_TYPES) + ['right']}")
    salt = int(salt)
    lkeys = [key] if isinstance(key, str) else list(key)
    rk = right_key or key
    rkeys = [rk] if isinstance(rk, str) else list(rk)
    if bloom_bits:
        if how not in ("inner", "semi"):
            raise ValueError(
                "shuffle_hash_join: bloom_bits is only sound for "
                "inner/semi joins — left/full/anti must keep unmatched "
                f"left rows (got how={how!r})")
        import ray as _ray

        bits = build_key_bloom(right, rkeys, m_bits=int(bloom_bits),
                               n_hashes=bloom_hashes)
        left = left.map_batches(
            _BloomPrefilterStage(_ray.put(bits), lkeys,
                                 int(bloom_bits), bloom_hashes),
            batch_format="pyarrow")
    if salt > 1 and how == "full":
        raise ValueError("shuffle_hash_join: salt>1 cannot preserve full "
                         "outer semantics (unmatched right rows would "
                         "duplicate per sub-bucket)")
    if bucket_fn is not None and salt > 1:
        raise ValueError(
            "shuffle_hash_join: bucket_fn needs complete key groups "
            "per bucket; salt>1 splits a key's rows across sub-buckets")
    unioned, lnames, right_cols = _pad_union(left, right, key, rk)
    nb = _resolve_join_buckets(left, right, n_buckets)
    arrow_how = _JOIN_TYPES[how]

    def bucket_join(t: pa.Table) -> pa.Table:
        side = t.column("_side")
        lt = t.filter(pc.equal(side, 0)).select(lnames)
        rt = t.filter(pc.equal(side, 1)).select(lkeys + right_cols)
        joined = lt.join(rt, keys=lkeys, right_keys=lkeys,
                         join_type=arrow_how)
        return joined if bucket_fn is None else bucket_fn(joined)

    return _join_exchange(unioned, lkeys, nb, salt, bucket_join)


def _join_exchange(unioned: ray.data.Dataset, keys: list[str], nb: int,
                   salt: int, fn) -> ray.data.Dataset:
    """The exchange every bucket join shares: ``fn`` once per bucket of
    ``hash(keys) % nb``. ``salt > 1`` is the hot-key lever: left rows
    round-robin across ``salt`` sub-buckets of their key bucket while
    right rows replicate into ALL sub-buckets, so each left row still
    meets the full right key group exactly once — exact for any
    per-left-row semantics (inner/left/semi/anti equi-join, as-of,
    range) at the cost of shipping the right side ``salt``×."""
    if salt <= 1:
        return bucketed_map_groups(unioned, keys, fn, n_buckets=nb)

    def add_salted_bucket(t: pa.Table) -> pa.Table:
        side = t.column("_side").to_numpy(zero_copy_only=False)
        base = _composite_bucket(t, keys, nb)
        lmask = side == 0
        lt = t.filter(pa.array(lmask))
        lb = base[lmask] * salt + np.arange(lt.num_rows) % salt
        rt = t.filter(pa.array(~lmask))
        rep = np.repeat(np.arange(rt.num_rows), salt)
        rt_rep = rt.take(pa.array(rep.astype(np.int64)))
        rb = np.repeat(base[~lmask], salt) * salt \
            + np.tile(np.arange(salt), rt.num_rows)
        return pa.concat_tables([
            lt.append_column("_bucket", pa.array(lb)),
            rt_rep.append_column("_bucket", pa.array(rb))])

    return exchange(
        unioned.map_batches(add_salted_bucket, batch_format="pyarrow"),
        "_bucket", lambda t: fn(t.drop_columns(["_bucket"])))


def asof_join(left: ray.data.Dataset, right: ray.data.Dataset, *,
              by, right_by=None,
              on: str, right_on: str | None = None,
              direction: str = "backward", how: str = "inner",
              tolerance: int | None = None, salt: int = 1,
              n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Distributed AS-OF join: for every left row, the single right row
    with the same ``by`` key and the greatest ``right_on`` ≤ ``on``
    (``direction="backward"``; ``"forward"`` = smallest ≥;
    ``"nearest"`` = smaller absolute gap of the two, ties to backward —
    pandas ``merge_asof`` nearest semantics, two sweeps per bucket).
    Equivalent to DuckDB's ``ASOF JOIN … ON l.by = r.by AND l.on >=
    r.on`` for backward.

    Scale shape: ONE int-bucket co-partition exchange (``_pad_union`` —
    both sides of a key land in one bucket task), then per bucket a fully
    vectorized sort-merge: both sides concatenated, one lexsort by
    (key, time, side) with right rows before left on time ties (≥ is
    inclusive), and the "latest right row so far within this key" is a
    single ``np.maximum.accumulate`` over segment-offset markers — no
    Python per key, no per-row loop.

    ``tolerance`` (same units as the time columns after int64 cast, e.g.
    µs for timestamp[us]) drops matches farther than the bound.
    ``how="left"`` keeps unmatched left rows with null right columns.
    Timestamp columns are compared as int64. ``by`` / ``right_by`` may
    be a single column or an equal-length list (COMPOSITE key — bucketed
    on the combined hash, per-bucket codes factorized per column).
    ``salt > 1`` splits a hot ``by`` key's left rows across ``salt``
    sub-bucket tasks (right side replicated per sub-bucket) — exact,
    since the match is per left row.
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(
            "asof_join: direction must be backward|forward|nearest")
    if how not in ("inner", "left"):
        raise ValueError("asof_join: how must be inner|left")
    rb = right_by or by
    bys = [by] if isinstance(by, str) else list(by)
    rbs = [rb] if isinstance(rb, str) else list(rb)
    ron_src = right_on or on
    if ron_src in rbs:
        raise ValueError(
            "asof_join: right_on must differ from right_by — the right "
            "time column cannot double as the join key")
    unioned, lnames, right_cols = _pad_union(left, right, bys, rbs)
    # the right time column's post-rename name
    ron = ron_src + "_r" if ron_src in lnames else ron_src
    if ron not in right_cols:
        raise ValueError(f"right side has no time column {ron_src!r}")
    nb = _resolve_join_buckets(left, right, n_buckets)
    sign = 1 if direction == "backward" else -1
    payload = [c for c in right_cols if c != ron]

    def bucket_asof(t: pa.Table) -> pa.Table:
        side_col = t.column("_side")
        lt = t.filter(pc.equal(side_col, 0)).select(lnames)
        rt = t.filter(pc.equal(side_col, 1)).select(bys + [ron] + payload)
        n_l, n_r = lt.num_rows, rt.num_rows
        out_names = lnames + [ron] + payload

        def times(tbl, col):
            c = tbl.column(col)
            if pa.types.is_timestamp(c.type):
                c = c.cast(pa.int64())
            return c.to_numpy(zero_copy_only=False).astype(np.int64)

        if n_l == 0 or (n_r == 0 and how == "inner"):
            return pa.table(
                {n: pa.nulls(0, f.type) for n, f in
                 zip(out_names,
                     [lt.schema.field(x) for x in lnames]
                     + [rt.schema.field(ron)]
                     + [rt.schema.field(x) for x in payload])})
        l_time = times(lt, on)
        r_time = times(rt, ron) if n_r else np.empty(0, np.int64)
        # composite keys: factorize every column to dense codes and
        # combine positionally (codes bounded by bucket row count, so
        # the product stays far from int64 overflow)
        keys = None
        for kc in bys:
            lk = lt.column(kc).to_numpy(zero_copy_only=False)
            rk = rt.column(kc).to_numpy(zero_copy_only=False)
            col = np.unique(np.concatenate([rk, lk]),
                            return_inverse=True)[1].astype(np.int64)
            if keys is None:
                keys = col
            else:
                keys = keys * (int(col.max()) + 1 if len(col) else 1) \
                    + col
        flag = np.concatenate([np.zeros(n_r, np.int8),
                               np.ones(n_l, np.int8)])
        src = np.concatenate([np.arange(n_r), np.arange(n_l)])

        def run(s: int) -> np.ndarray:
            """One directional sweep (s=+1 backward, -1 forward) →
            per-ORIGINAL-left-row matched right index (-1 = none,
            tolerance applied)."""
            tms = s * np.concatenate([r_time, l_time])
            order = np.lexsort((flag, tms, keys))
            k_s, f_s, s_s = keys[order], flag[order], src[order]
            change = np.ones(len(k_s), bool)
            if len(k_s) > 1:
                change[1:] = k_s[1:] != k_s[:-1]
            seg = np.cumsum(change) - 1
            # marker = SORTED position of each right row (sorted order
            # IS time order within a key), so accumulate yields the
            # latest-so-far right row; segment offsets stop carryover
            OFFSET = len(k_s) + 2
            pos = np.arange(len(k_s), dtype=np.int64)
            marker = np.where(f_s == 0, pos, -1)
            acc = np.maximum.accumulate(marker + seg * OFFSET)
            match_pos = acc - seg * OFFSET  # <0 ⇒ no right row yet
            is_left = f_s == 1
            left_idx = s_s[is_left]
            mp = match_pos[is_left]
            valid = mp >= 0
            m = np.where(valid, s_s[np.maximum(mp, 0)], -1)
            if tolerance is not None and valid.any():
                gap = s * (l_time[left_idx] - np.where(
                    valid, r_time[np.maximum(m, 0)], 0))
                valid &= gap <= int(tolerance)
            m_arr = np.full(n_l, -1, np.int64)
            m_arr[left_idx[valid]] = m[valid]
            return m_arr

        if direction == "nearest" and n_r == 0:
            m_all = np.full(n_l, -1, np.int64)
        elif direction == "nearest":
            mb, mf = run(1), run(-1)
            gb = np.where(mb >= 0,
                          l_time - r_time[np.maximum(mb, 0)],
                          np.iinfo(np.int64).max)
            gf = np.where(mf >= 0,
                          r_time[np.maximum(mf, 0)] - l_time,
                          np.iinfo(np.int64).max)
            # smaller absolute gap wins; ties go backward (pandas
            # merge_asof nearest tie rule: the prior row)
            m_all = np.where(gb <= gf, mb, mf)
        else:
            m_all = run(sign)
        valid = m_all >= 0
        if how == "inner":
            left_rows = np.flatnonzero(valid)
            take_r = pa.array(m_all[valid].astype(np.int64))
        else:
            left_rows = np.arange(n_l)
            take_r = pa.array(m_all.astype(np.int64), mask=~valid)
        out = lt.take(pa.array(left_rows.astype(np.int64)))
        for c in [ron] + payload:
            out = out.append_column(c, rt.column(c).take(take_r))
        return out

    return _join_exchange(unioned, bys, nb, int(salt), bucket_asof)


def range_join(left: ray.data.Dataset, right: ray.data.Dataset, *,
               by, right_by=None,
               on: str, right_start: str, right_end: str | None = None,
               max_interval: int, salt: int = 1,
               n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Distributed equality + RANGE join: emit EVERY (left, right) pair
    with equal ``by`` key and ``right_start <= on < right_end`` (interval
    left-closed right-open; ``right_end=None`` means the implicit interval
    ``[start, start + max_interval)``).

    ``max_interval`` (same units as the time columns after int64 cast) is
    the operator's PARTITIONING-ADJACENT contract: it must bound every
    interval's length (validated per bucket). It turns the per-row
    candidate set into "right rows starting within the trailing
    max_interval window", so per-bucket work is O(candidates), never
    O(|left|·|right-per-key|).

    Scale shape: ONE int-bucket co-partition exchange (``_pad_union``),
    then per bucket a fully vectorized enumeration — right sorted by
    (key, start); per left row a lower/upper ``searchsorted`` over
    collision-free (segment, time-rank) composites; pairs materialized
    with ``np.repeat`` + offset arithmetic; the exact ``on < end`` filter
    last. No Python per key or per row. ``salt > 1`` splits a hot ``by``
    key's left rows across sub-bucket tasks (right replicated per
    sub-bucket) — exact, since each (left, right) pair is still formed
    exactly once. ``by`` / ``right_by`` may be a single column or an
    equal-length list (composite key), as in ``asof_join``.
    """
    rb = right_by or by
    bys = [by] if isinstance(by, str) else list(by)
    rbs = [rb] if isinstance(rb, str) else list(rb)
    unioned, lnames, right_cols = _pad_union(left, right, bys, rbs)

    def rcol(src: str) -> str:
        return src + "_r" if (src in lnames and src not in rbs) else src

    rstart = rcol(right_start)
    rend = rcol(right_end) if right_end else None
    for c in [rstart] + ([rend] if rend else []):
        if c not in right_cols:
            raise ValueError(f"right side has no column {c!r}")
    nb = _resolve_join_buckets(left, right, n_buckets)
    payload = [c for c in right_cols]

    def as_int64(tbl: pa.Table, col: str) -> np.ndarray:
        c = tbl.column(col)
        if pa.types.is_timestamp(c.type):
            c = c.cast(pa.int64())
        return c.to_numpy(zero_copy_only=False).astype(np.int64)

    def bucket_range(t: pa.Table) -> pa.Table:
        side_col = t.column("_side")
        lt = t.filter(pc.equal(side_col, 0)).select(lnames)
        rt = t.filter(pc.equal(side_col, 1)).select(bys + payload)
        out_schema = pa.schema(
            [lt.schema.field(n) for n in lnames]
            + [rt.schema.field(c) for c in payload])
        if lt.num_rows == 0 or rt.num_rows == 0:
            return pa.table({f.name: pa.nulls(0, f.type)
                             for f in out_schema})
        r_start = as_int64(rt, rstart)
        r_end = as_int64(rt, rend) if rend \
            else r_start + int(max_interval)
        if np.any(r_end - r_start > int(max_interval)):
            raise ValueError(
                "range_join: an interval exceeds max_interval — raise "
                "max_interval to cover the longest interval")
        l_t = as_int64(lt, on)
        # composite keys: dense per-column codes combined positionally
        all_keys = None
        for kc in bys:
            lk = lt.column(kc).to_numpy(zero_copy_only=False)
            rk = rt.column(kc).to_numpy(zero_copy_only=False)
            col = np.unique(np.concatenate([rk, lk]),
                            return_inverse=True)[1].astype(np.int64)
            if all_keys is None:
                all_keys = col
            else:
                all_keys = all_keys * (int(col.max()) + 1 if len(col)
                                       else 1) + col
        rk_ = all_keys[: rt.num_rows]
        lk_ = all_keys[rt.num_rows:]
        r_order = np.lexsort((r_start, rk_))
        rk_s, rs_s = rk_[r_order], r_start[r_order]
        re_s = r_end[r_order]
        # dense time ranks over the union → collision-free composites
        union_vals = np.concatenate([rs_s, l_t - int(max_interval), l_t])
        uniq, inv = np.unique(union_vals, return_inverse=True)
        K = len(uniq) + 1
        rs_rank = inv[: len(rs_s)]
        lo_rank = inv[len(rs_s): len(rs_s) + len(l_t)]
        t_rank = inv[len(rs_s) + len(l_t):]
        # key → dense segment ordinal (rk_s sorted)
        seg_keys = np.unique(rk_s)
        r_comp = np.searchsorted(seg_keys, rk_s).astype(np.int64) * K + rs_rank
        l_seg = np.searchsorted(seg_keys, lk_)
        has_key = (l_seg < len(seg_keys))
        has_key &= np.where(has_key, seg_keys[np.minimum(
            l_seg, len(seg_keys) - 1)] == lk_, False)
        lo = np.searchsorted(r_comp, l_seg * K + lo_rank, side="left")
        hi = np.searchsorted(r_comp, l_seg * K + t_rank, side="right")
        counts = np.where(has_key, hi - lo, 0)
        li = np.repeat(np.arange(lt.num_rows), counts)
        # per-pair right index: lo[l] + local offset
        total = int(counts.sum())
        if total == 0:
            return pa.table({f.name: pa.nulls(0, f.type)
                             for f in out_schema})
        offs = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts)
        ri = np.repeat(lo, counts) + offs
        exact = l_t[li] < re_s[ri]          # start<=t by construction
        li, ri = li[exact], ri[exact]
        out = lt.take(pa.array(li.astype(np.int64)))
        rt_sorted = rt.take(pa.array(r_order.astype(np.int64)))
        take_r = pa.array(ri.astype(np.int64))
        for c in payload:
            out = out.append_column(c, rt_sorted.column(c).take(take_r))
        return out

    return _join_exchange(unioned, bys, nb, int(salt), bucket_range)


def overlap_join(left: ray.data.Dataset, right: ray.data.Dataset, *,
                 by, right_by=None,
                 left_start: str, left_end: str,
                 right_start: str, right_end: str,
                 max_interval: int, salt: int = 1,
                 n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Distributed equality + INTERVAL-OVERLAP join: emit every
    (left, right) pair with equal ``by`` key whose half-open intervals
    intersect — ``left_start < right_end AND right_start < left_end``
    (the ANSI ``OVERLAPS``-style predicate; touching endpoints do NOT
    overlap). The interval×interval sibling of :func:`range_join`
    (point-in-interval); spans×maintenance-windows, sessions×deploys,
    contention audits.

    ``max_interval`` must bound every RIGHT interval's length
    (validated per bucket, loud). It caps the candidate window: a right
    interval overlapping ``[ls, le)`` must start in
    ``(ls - max_interval, le)``, so per-bucket work is O(candidates)
    after one ``searchsorted`` pair — never O(|L|·|R-per-key|). Long
    LEFT intervals are fine (they only widen their own window).

    Scale shape is range_join's: ONE int-bucket co-partition exchange,
    right sorted by (key, start) per bucket, dense collision-free
    (segment, time-rank) composites, ``np.repeat`` pair expansion, the
    exact ``right_end > left_start`` filter last. ``salt > 1`` splits a
    hot key's left rows across sub-buckets (right replicated; each pair
    still formed exactly once).
    """
    rb = right_by or by
    bys = [by] if isinstance(by, str) else list(by)
    rbs = [rb] if isinstance(rb, str) else list(rb)
    unioned, lnames, right_cols = _pad_union(left, right, bys, rbs)

    def rcol(src: str) -> str:
        return src + "_r" if (src in lnames and src not in rbs) else src

    rstart, rend = rcol(right_start), rcol(right_end)
    for c in (rstart, rend):
        if c not in right_cols:
            raise ValueError(f"right side has no column {c!r}")
    nb = _resolve_join_buckets(left, right, n_buckets)
    payload = list(right_cols)

    def as_int64(tbl: pa.Table, col: str) -> np.ndarray:
        c = tbl.column(col)
        if pa.types.is_timestamp(c.type):
            c = c.cast(pa.int64())
        return c.to_numpy(zero_copy_only=False).astype(np.int64)

    def bucket_overlap(t: pa.Table) -> pa.Table:
        side_col = t.column("_side")
        lt = t.filter(pc.equal(side_col, 0)).select(lnames)
        rt = t.filter(pc.equal(side_col, 1)).select(bys + payload)
        out_schema = pa.schema(
            [lt.schema.field(n) for n in lnames]
            + [rt.schema.field(c) for c in payload])
        if lt.num_rows == 0 or rt.num_rows == 0:
            return pa.table({f.name: pa.nulls(0, f.type)
                             for f in out_schema})
        r_start = as_int64(rt, rstart)
        r_end = as_int64(rt, rend)
        if np.any(r_end - r_start > int(max_interval)):
            raise ValueError(
                "overlap_join: a right interval exceeds max_interval — "
                "raise max_interval to cover the longest right interval")
        l_s, l_e = as_int64(lt, left_start), as_int64(lt, left_end)
        all_keys = None
        for kc in bys:
            lk = lt.column(kc).to_numpy(zero_copy_only=False)
            rk = rt.column(kc).to_numpy(zero_copy_only=False)
            col = np.unique(np.concatenate([rk, lk]),
                            return_inverse=True)[1].astype(np.int64)
            all_keys = col if all_keys is None else \
                all_keys * (int(col.max()) + 1 if len(col) else 1) + col
        rk_ = all_keys[: rt.num_rows]
        lk_ = all_keys[rt.num_rows:]
        r_order = np.lexsort((r_start, rk_))
        rk_s, rs_s = rk_[r_order], r_start[r_order]
        re_s = r_end[r_order]
        # dense ranks over the union of right starts and both left
        # window edges → collision-free (segment, rank) composites
        union_vals = np.concatenate([rs_s, l_s - int(max_interval), l_e])
        uniq, inv = np.unique(union_vals, return_inverse=True)
        K = len(uniq) + 1
        rs_rank = inv[: len(rs_s)]
        lo_rank = inv[len(rs_s): len(rs_s) + len(l_s)]
        hi_rank = inv[len(rs_s) + len(l_s):]
        seg_keys = np.unique(rk_s)
        r_comp = np.searchsorted(seg_keys, rk_s).astype(np.int64) * K \
            + rs_rank
        l_seg = np.searchsorted(seg_keys, lk_)
        has_key = (l_seg < len(seg_keys))
        has_key &= np.where(has_key, seg_keys[np.minimum(
            l_seg, len(seg_keys) - 1)] == lk_, False)
        # r_start > l_s - max_interval  (side=right: strictly greater)
        lo = np.searchsorted(r_comp, l_seg * K + lo_rank, side="right")
        # r_start < l_e                (side=left: strictly less)
        hi = np.searchsorted(r_comp, l_seg * K + hi_rank, side="left")
        counts = np.where(has_key, np.maximum(hi - lo, 0), 0)
        total = int(counts.sum())
        if total == 0:
            return pa.table({f.name: pa.nulls(0, f.type)
                             for f in out_schema})
        li = np.repeat(np.arange(lt.num_rows), counts)
        offs = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts)
        ri = np.repeat(lo, counts) + offs
        exact = re_s[ri] > l_s[li]          # r_start < l_e by construction
        li, ri = li[exact], ri[exact]
        out = lt.take(pa.array(li.astype(np.int64)))
        rt_sorted = rt.take(pa.array(r_order.astype(np.int64)))
        take_r = pa.array(ri.astype(np.int64))
        for c in payload:
            out = out.append_column(c, rt_sorted.column(c).take(take_r))
        return out

    return _join_exchange(unioned, bys, nb, int(salt), bucket_overlap)
