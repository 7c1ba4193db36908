"""Mergeable sketches: HyperLogLog approximate distinct count and a KLL
quantile sketch (the pmetric Summary analog for UNBOUNDED value domains —
bounded integer domains have an exact path in
stages/spanops.grouped_exact_quantiles).

The mergeable-sketch pattern for unbounded-cardinality aggregates at
10^12-row scale: each batch reduces to ONE bounded-size summary,
summaries merge associatively in one task (no shuffle), and the final
estimate reads one summary. HLL per Flajolet et al. 2007 with the
small-range linear-counting correction; KLL per Karnin-Lang-Liberty 2016
(levelled compactors, weight 2^level, ~1.65/k rank error).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.hashing import hash64


def _row_ranks(col: pa.ChunkedArray | pa.Array, p: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row HLL (register index, rank) pairs for a column chunk."""
    h = hash64(col)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)
    # rank = leading zeros of remaining bits + 1 (cap at 64-p+1)
    rank = np.ones(len(h), dtype=np.uint8)
    nz = rest != 0
    # leading zero count via float trick is unsafe for 64-bit; loop bits
    v = rest[nz]
    lz = np.zeros(len(v), dtype=np.uint8)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = v < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += shift
        v[mask] = v[mask] << np.uint64(shift)
    rank_nz = lz + 1
    rank[nz] = rank_nz
    rank[~nz] = 64 - p + 1
    return idx, rank


def _registers(col: pa.ChunkedArray | pa.Array, p: int) -> np.ndarray:
    """One HLL register array (2^p uint8) for a column chunk."""
    m = 1 << p
    idx, rank = _row_ranks(col, p)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _estimate(regs: np.ndarray) -> float:
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting small-range correction
    return float(est)


class HllPartial:
    """Per-batch: one serialized register row (fixed_size binary)."""

    def __init__(self, col: str, p: int = 12):
        self.col, self.p = col, p

    def __call__(self, t: pa.Table) -> pa.Table:
        regs = _registers(t.column(self.col), self.p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})


def _merge_regs(t: pa.Table) -> pa.Table:
    arrs = [np.frombuffer(b, dtype=np.uint8) for b in t.column("regs").to_pylist()]
    merged = np.maximum.reduce(arrs) if arrs else np.zeros(0, np.uint8)
    return pa.table({"regs": pa.array([merged.tobytes()], pa.binary())})


def approx_distinct(ds: ray.data.Dataset, col: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT col): per-batch HLL registers →
    one element-wise-max merge → estimate. Relative error ≈ 1.04/√(2^p)
    (~1.6% at p=12); the exchange moves one row of 2^p bytes per block."""
    from .treereduce import tree_reduce_single

    # project only when the schema is already known: select_columns on a
    # schema-less post-map_batches dataset triggers a limit-1 probe that
    # executes the WHOLE upstream once (Ray 2.49); HllPartial ignores
    # extra columns anyway.
    sch = ds.schema(fetch_if_missing=False)
    if sch is not None and col in sch.base_schema.names:
        ds = ds.select_columns([col])
    partial = ds.map_batches(HllPartial(col, p), batch_format="pyarrow")
    row = tree_reduce_single(partial, _merge_regs)
    if row is None:  # empty stream has 0 distinct values
        return 0.0
    return _estimate(np.frombuffer(row["regs"], dtype=np.uint8))


def grouped_approx_distinct(ds: ray.data.Dataset, key: str, col: str,
                            p: int = 10, n_buckets: int | str = "auto",
                            out_name: str = "approx_distinct"
                            ) -> ray.data.Dataset:
    """Approximate per-key COUNT(DISTINCT col) — the 100 TB scale path
    beside the exact ``aggregate.grouped_count_distinct`` (whose
    distinct (key, value) exchange grows with the data): each batch
    reduces to ONE 2^p-byte HLL register row per key it contains, so
    only ``keys-per-batch × 2^p`` bytes ever shuffle regardless of the
    value cardinality; registers merge by element-wise max (order- and
    shard-insensitive) on one bucket exchange. Relative error ≈
    1.04/√(2^p) (~3.2% at p=10). Nulls in ``col`` are skipped (SQL
    COUNT DISTINCT convention). Returns ``(key, out_name)`` int64
    rows.
    """
    m = 1 << p
    if not 4 <= p <= 16:
        raise ValueError(f"grouped_approx_distinct: p must be in "
                         f"[4, 16], got {p}")
    from .bucketing import bucketed_map_groups

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([key, col]).filter(pc.is_valid(t.column(col)))
        keys = t.column(key)
        if keys.null_count:
            raise ValueError(f"grouped_approx_distinct: {key!r} has "
                             "nulls")
        enc = pc.dictionary_encode(keys.combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        idx, rank = _row_ranks(t.column(col), p)
        n_keys = len(enc.dictionary)
        flat = np.zeros(n_keys * m, np.uint8)
        np.maximum.at(flat, codes * m + idx, rank)
        return pa.table({
            key: enc.dictionary,
            "_regs": pa.array([flat[i * m:(i + 1) * m].tobytes()
                               for i in range(n_keys)], pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        k = t.column(key).to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k = k[order]
        blobs = t.column("_regs").take(
            pa.array(order, pa.int64())).to_pylist()
        mat = np.frombuffer(b"".join(blobs), np.uint8) \
            .reshape(len(blobs), m)
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        merged = np.maximum.reduceat(mat, starts, axis=0)
        # vectorized estimate across keys + linear-counting correction
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(
            2.0 ** -merged.astype(np.float64), axis=1)
        zeros = (merged == 0).sum(axis=1)
        small = (est <= 2.5 * m) & (zeros > 0)
        with np.errstate(divide="ignore"):
            lc = m * np.log(m / np.maximum(zeros, 1))
        est = np.where(small, lc, est)
        return pa.table({
            key: pa.array(k[starts]),
            out_name: pa.array(np.rint(est).astype(np.int64))})

    return bucketed_map_groups(partials, key, combine,
                               n_buckets=n_buckets)


# ------------------------------------------------------------- KLL quantiles

class KllSketch:
    """KLL quantile sketch over float64 values (Karnin-Lang-Liberty 2016).

    Level i holds items of weight 2^i; when a level overflows its capacity
    (k·(2/3)^(depth-1-i), min 8) it is sorted and every other item is
    promoted — deterministic offset parity (seeded by a compaction
    counter) keeps runs reproducible. Rank error ≈ 1.65/k. Mergeable:
    concatenate level-wise then compact (associative up to the sketch's
    own error bound — the exporter-side merge discipline all partial
    aggregates here follow)."""

    def __init__(self, k: int = 200):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]
        self.n = 0
        self._compactions = 0

    def _capacity(self, level: int) -> int:
        depth = len(self.levels)
        return max(8, int(np.ceil(self.k * (2.0 / 3.0) ** (depth - 1 - level))))

    def add(self, values: np.ndarray) -> "KllSketch":
        v = np.asarray(values, np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return self
        self.n += len(v)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()
        return self

    def _compress(self) -> None:
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) <= self._capacity(i):
                i += 1
                continue
            buf = np.sort(self.levels[i])
            self._compactions += 1
            offset = self._compactions & 1  # deterministic alternating parity
            promoted = buf[offset::2]
            self.levels[i] = np.empty(0, np.float64)
            if i + 1 == len(self.levels):
                self.levels.append(np.empty(0, np.float64))
            self.levels[i + 1] = np.concatenate([self.levels[i + 1], promoted])
            i += 1

    def merge(self, other: "KllSketch") -> "KllSketch":
        for lvl, items in enumerate(other.levels):
            while lvl >= len(self.levels):
                self.levels.append(np.empty(0, np.float64))
            self.levels[lvl] = np.concatenate([self.levels[lvl], items])
        self.n += other.n
        self._compress()
        return self

    def quantile(self, q: float) -> float:
        items = np.concatenate(self.levels)
        weights = np.concatenate([
            np.full(len(lv), 1 << i, np.int64)
            for i, lv in enumerate(self.levels)])
        order = np.argsort(items, kind="stable")
        items, weights = items[order], weights[order]
        cum = np.cumsum(weights)
        target = q * cum[-1]
        return float(items[np.searchsorted(cum, target, side="left")])

    def to_bytes(self) -> bytes:
        import struct

        head = struct.pack("<qqq", self.k, self.n, len(self.levels))
        lens = struct.pack(f"<{len(self.levels)}q",
                           *[len(lv) for lv in self.levels])
        return head + lens + np.concatenate(self.levels).astype("<f8").tobytes()

    @staticmethod
    def from_bytes(blob: bytes) -> "KllSketch":
        import struct

        k, n, nlev = struct.unpack_from("<qqq", blob, 0)
        lens = struct.unpack_from(f"<{nlev}q", blob, 24)
        flat = np.frombuffer(blob, "<f8", offset=24 + 8 * nlev)
        s = KllSketch(k)
        s.n = n
        s.levels = []
        pos = 0
        for ln in lens:
            s.levels.append(flat[pos: pos + ln].copy())
            pos += ln
        return s


class KllPartial:
    """Per-batch: one serialized KLL sketch row."""

    def __init__(self, col: str, k: int = 200):
        self.col, self.k = col, k

    def __call__(self, t: pa.Table) -> pa.Table:
        s = KllSketch(self.k).add(
            t.column(self.col).to_numpy(zero_copy_only=False))
        return pa.table({"kll": pa.array([s.to_bytes()], pa.binary())})


def _merge_kll(t: pa.Table) -> pa.Table:
    blobs = t.column("kll").to_pylist()
    if not blobs:
        return pa.table({"kll": pa.array([], pa.binary())})
    acc = KllSketch.from_bytes(blobs[0])
    for b in blobs[1:]:
        acc.merge(KllSketch.from_bytes(b))
    return pa.table({"kll": pa.array([acc.to_bytes()], pa.binary())})


def approx_quantiles(ds: ray.data.Dataset, col: str,
                     qs: tuple[float, ...] = (0.5, 0.95, 0.99),
                     k: int = 200) -> dict[str, float]:
    """Approximate quantiles of an unbounded numeric column: per-batch KLL
    partials → one merge (one sketch row per block moves, never the
    data) → driver reads ONE sketch. Rank error ≈ 1.65/k (~0.8% at k=200)."""
    from .treereduce import tree_reduce_single

    partial = ds.select_columns([col]).map_batches(
        KllPartial(col, k), batch_format="pyarrow")
    row = tree_reduce_single(partial, _merge_kll)
    if row is None:  # empty stream: no quantiles to read
        return {f"p{int(round(q * 100))}": float("nan") for q in qs}
    s = KllSketch.from_bytes(row["kll"])
    return {f"p{int(round(q * 100))}": s.quantile(q) for q in qs}


# ------------------------------------------ per-key KLL (unbounded keys)

class GroupedKllPartial:
    """Per-batch, per-key KLL partials: one sorted pass segments the batch
    by key, one sketch per key present in the batch, emitted as (key,
    serialized sketch). The per-key Python loop here is over KEYS IN ONE
    BATCH (bounded by batch rows) building bounded-size sketch objects —
    a partial reduce, so downstream volume is |keys| × |batches touching
    the key| fixed-size rows, never the data."""

    def __init__(self, key: str, col: str, k: int = 200):
        self.key, self.col, self.k = key, col, k

    def __call__(self, t: pa.Table) -> pa.Table:
        t = t.sort_by([(self.key, "ascending")])
        keys = t.column(self.key).to_numpy(zero_copy_only=False)
        vals = t.column(self.col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        n = len(keys)
        change = np.ones(n, bool)
        if n > 1:
            change[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        blobs = [KllSketch(self.k).add(vals[s:e]).to_bytes()
                 for s, e in zip(starts, ends)]
        return pa.table({
            self.key: t.column(self.key).take(
                pa.array(starts.astype(np.int64))),
            "kll": pa.array(blobs, pa.binary())})


def grouped_approx_quantiles(ds: ray.data.Dataset, key: str, value_col: str,
                             qs: tuple[float, ...] = (0.5, 0.95, 0.99),
                             k: int = 200,
                             n_buckets: int | str = 64) -> ray.data.Dataset:
    """Approximate per-key quantiles over UNBOUNDED keys and value
    domains — the composition the exact path can't cover
    (spanops.grouped_exact_quantiles needs a bounded integer value
    domain; this needs neither): per-batch per-key KLL partials, then a
    hash-bucket exchange on the key merges each key's sketches inside
    one bucket task and reads the quantiles off.

    Scale shape: only fixed-size sketch rows shuffle (≤ one per key per
    input batch); bucket task count is bounded by ``n_buckets``; no
    driver-side state at all. Rank error ≈ 1.65/k per key. Output:
    (key, n, p50..., float64 values)."""
    from .bucketing import bucketed_map_groups

    partial = ds.select_columns([key, value_col]).map_batches(
        GroupedKllPartial(key, value_col, k), batch_format="pyarrow")

    def merge_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([(key, "ascending")])
        keys = t.column(key).to_numpy(zero_copy_only=False)
        blobs = t.column("kll").to_pylist()
        n = len(keys)
        change = np.ones(n, bool)
        if n > 1:
            change[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        counts: list[int] = []
        quants: dict[str, list[float]] = {
            f"p{int(round(q * 100))}": [] for q in qs}
        for s, e in zip(starts, ends):
            acc = KllSketch.from_bytes(blobs[s])
            for b in blobs[s + 1: e]:
                acc.merge(KllSketch.from_bytes(b))
            counts.append(acc.n)
            for q in qs:
                quants[f"p{int(round(q * 100))}"].append(acc.quantile(q))
        out = {key: t.column(key).take(pa.array(starts.astype(np.int64))),
               "n": pa.array(np.array(counts, np.int64))}
        for name, vals in quants.items():
            out[name] = pa.array(np.array(vals, np.float64))
        return pa.table(out)

    return bucketed_map_groups(partial, key, merge_bucket,
                               n_buckets=n_buckets)


# ---------------------------------------------------- Count-Min frequency

class CmsPartial:
    """Per-batch: one serialized depth×width int64 Count-Min matrix
    (Cormode-Muthukrishnan 2005). Each depth row uses an independent
    splitmix64 re-hash of the item's base hash — one string hash per
    item total, d cheap integer mixes."""

    def __init__(self, col: str, width: int = 4096, depth: int = 4):
        self.col, self.w, self.d = col, width, depth

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.hashing import hash64_ints

        counts = np.zeros((self.d, self.w), np.int64)
        col = t.column(self.col)
        base = hash64(col)
        for r in range(self.d):
            idx = (hash64_ints(base, seed=r) % np.uint64(self.w)) \
                .astype(np.int64)
            np.add.at(counts[r], idx, 1)
        return pa.table({"cms": pa.array([counts.tobytes()], pa.binary())})


def _merge_cms(t: pa.Table) -> pa.Table:
    arrs = [np.frombuffer(b, dtype=np.int64)
            for b in t.column("cms").to_pylist()]
    merged = np.sum(arrs, axis=0) if arrs else np.zeros(0, np.int64)
    return pa.table({"cms": pa.array([merged.tobytes()], pa.binary())})


def cms_build(ds: ray.data.Dataset, col: str, width: int = 4096,
              depth: int = 4) -> np.ndarray:
    """Count-Min frequency sketch of a column: per-batch (depth×width)
    count matrices → one element-wise-sum merge (counts are linear, so
    the merged sketch EQUALS the single-pass sketch bit-for-bit — no
    layout sensitivity). Returns the (depth, width) int64 matrix.

    Point-estimate guarantees: est ≥ true always (one-sided);
    est ≤ true + εN with probability ≥ 1-δ for ε = e/width,
    δ = e^-depth. The exchange moves one row of depth×width×8 bytes per
    block."""
    if width < 2 or depth < 1:
        raise ValueError("cms_build: need width >= 2 and depth >= 1")
    from .treereduce import tree_reduce_single

    partial = ds.select_columns([col]).map_batches(
        CmsPartial(col, width, depth), batch_format="pyarrow")
    row = tree_reduce_single(partial, _merge_cms)
    if row is None:  # empty stream: the all-zero sketch
        return np.zeros((depth, width), np.int64)
    return np.frombuffer(row["cms"], dtype=np.int64).reshape(depth, width)


def cms_query(sketch: np.ndarray, items) -> np.ndarray:
    """Point frequency estimates (min over depth rows) for ``items``
    (a pa.Array / list of values hashed the same way as the build
    column). Vectorized: d modular probes over the item hash array."""
    from ..functions.hashing import hash64_ints

    d, w = sketch.shape
    if not isinstance(items, (pa.Array, pa.ChunkedArray)):
        items = pa.array(items)
    base = hash64(items)
    est = np.full(len(items), np.iinfo(np.int64).max, np.int64)
    for r in range(d):
        idx = (hash64_ints(base, seed=r) % np.uint64(w)).astype(np.int64)
        est = np.minimum(est, sketch[r][idx])
    return est


# ---------------------------------------------------------------- MG --
# Misra-Gries heavy hitters: the mergeable frequent-items summary
# (Misra & Gries 1982; merge-then-compress bound per Agarwal et al.,
# "Mergeable Summaries", PODS 2012). Unlike HLL/KLL/CMS above, the
# final answer here is EXACT: pass 1 produces a candidate superset
# (guaranteed to contain every value with freq > n/k when capacity >=
# k), pass 2 recounts only the <= capacity candidates exactly and
# applies the threshold. Complements corpusstats.frequent_terms (the
# pigeonhole per-block-threshold variant): that one's candidate set
# grows with the BLOCK COUNT (union of per-block locals, guarded by
# MAX_HH_CANDIDATES), while MG's stays <= capacity no matter how many
# blocks — the right choice when blocks are small or the stream is
# adversarial. Reference parity: the collector has no frequent-items
# processor; this is the scale path for "which label values dominate
# a stream" that the cardinality limiter (stages/cardinality.py)
# answers with a full groupby.

def _mg_compress(values: pa.Array, counts: np.ndarray, capacity: int
                 ) -> tuple[pa.Array, np.ndarray]:
    """Keep <= capacity (value, count) pairs: subtract the
    (capacity+1)-th largest count from all and drop the non-positive
    remainder — the classic MG decrement, vectorized."""
    if len(counts) <= capacity:
        return values, counts
    order = np.argsort(-counts, kind="stable")
    sub = counts[order[capacity]]
    keep = counts > sub
    return values.filter(pa.array(keep)), counts[keep] - sub


class MgPartial:
    """Per-batch MG summary rows: exact ``value_counts`` (error-free
    summaries) compressed to ``capacity`` survivors, plus the batch's
    exact non-null row count on a dedicated null-value carrier row
    (compression can legitimately evict EVERY value — equal counts,
    distinct > capacity — so the total must not ride a value row)."""

    def __init__(self, col: str, capacity: int):
        self.col, self.capacity = col, capacity

    def __call__(self, t: pa.Table) -> pa.Table:
        col = t.column(self.col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vc = pc.value_counts(col.drop_null())
        values = vc.field("values")
        counts = np.asarray(vc.field("counts").to_numpy(
            zero_copy_only=False), np.int64)
        total = int(counts.sum())
        values, counts = _mg_compress(values, counts, self.capacity)
        vtype = values.type
        return pa.table({
            "v": pa.concat_arrays([values, pa.array([None], vtype)]),
            "c": pa.array(np.append(counts, 0), pa.int64()),
            "tot": pa.array([0] * len(counts) + [total], pa.int64()),
        })


def _mg_merge(capacity: int):
    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by("v").aggregate([("c", "sum"), ("tot", "sum")])
        mask = pc.is_valid(g.column("v")).to_numpy(zero_copy_only=False)
        vals = g.column("v").combine_chunks().filter(pa.array(mask))
        cnts = np.asarray(g.column("c_sum").to_numpy(
            zero_copy_only=False), np.int64)[mask]
        total = int(pc.sum(t.column("tot")).as_py() or 0)
        vals, cnts = _mg_compress(vals, cnts, capacity)
        return pa.table({
            "v": pa.concat_arrays([vals, pa.array([None], vals.type)]),
            "c": pa.array(np.append(cnts, 0), pa.int64()),
            "tot": pa.array([0] * len(cnts) + [total], pa.int64()),
        })
    return merge


def heavy_hitters(make_ds, col: str, k: int, *, capacity: int | None = None,
                  count_name: str = "n",
                  persist: str = "none") -> ray.data.Dataset:
    """EXACT frequent items: every value whose frequency exceeds n/k
    (strictly; n = non-null rows, SQL ``HAVING count(*)*k > n``), found
    without ever shuffling the raw column.

    Pass 1: per-batch exact value_counts compressed to ``capacity``
    (default 2k) -> one associative merge-then-compress task (the
    exchange moves one summary of <= capacity+1 skinny rows per block).
    The merged summary's undercount is bounded by n/(capacity+1), so
    with capacity >= k it contains every above-threshold value
    (validated loudly). Pass 2: exact tree recount of only the
    candidates (bounded key domain <= capacity) and the true-count
    threshold filter — false candidates die here, so the result is
    exact, not approximate. ``make_ds`` is a zero-arg dataset factory
    (two passes; see ``bucketing.persisted_factory`` for ``persist=``)."""
    from .aggregate import grouped_count
    from .bucketing import persisted_factory
    from .treereduce import collect, combine_all

    if k < 2:
        raise ValueError("heavy_hitters: need k >= 2")
    capacity = 2 * k if capacity is None else capacity
    if capacity < k:
        raise ValueError(
            f"heavy_hitters: capacity={capacity} < k={k} breaks the "
            "candidate-completeness bound (undercount <= n/(capacity+1) "
            "must not exceed the n/k threshold)")
    make_ds = persisted_factory(make_ds, persist)

    summary = combine_all(make_ds().select_columns([col]).map_batches(
        MgPartial(col, capacity), batch_format="pyarrow"),
        _mg_merge(capacity))
    # <= capacity+1 skinny rows — bounded; pull as ARROW to keep the
    # value column's exact type for is_in and the empty-path schema
    parts = collect(summary)
    if not parts:
        # a zero-row input reaches no merge: type the empty result from
        # the input schema (a limit(1) probe of an empty plan)
        vtype = make_ds().schema().base_schema.field(col).type
        parts = [pa.table({"v": pa.array([], vtype),
                           "tot": pa.array([], pa.int64())})]
    tbl = pa.concat_tables(parts)
    n = int(pc.sum(tbl.column("tot")).as_py() or 0)
    cand_arr = tbl.column("v").combine_chunks().drop_null()
    if n > (2 ** 62) // max(k, 1):
        raise ValueError(
            f"heavy_hitters: n={n:,} * k={k} would overflow int64")

    empty = pa.schema([pa.field(col, tbl.schema.field("v").type),
                       pa.field(count_name, pa.int64())])
    if not len(cand_arr) or n == 0:
        return ray.data.from_arrow(empty.empty_table())

    def keep_cands(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column(col), value_set=cand_arr))

    counted = grouped_count(
        make_ds().select_columns([col]).map_batches(
            keep_cands, batch_format="pyarrow"),
        [col], count_name=count_name)

    def threshold(t: pa.Table) -> pa.Table:
        ok = pc.greater(pc.multiply_checked(
            t.column(count_name), pa.scalar(k, pa.int64())),
            pa.scalar(n, pa.int64()))
        return t.filter(ok)

    return counted.map_batches(threshold, batch_format="pyarrow")
