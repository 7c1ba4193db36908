"""Deduplication operators for training-data pipelines.

Not in the reference core (SURVEY.md §2.6: the collector has no dedup);
these are the large-scale-corpus operators the engine adds as first-class
components. All follow the same scale shape: vectorized per-batch sketch →
shuffle only the (small) sketch rows → grouped resolve.

- exact_dedup: double-64-bit content-hash partition + per-group min id
  (identity key is the (h1, h2) PAIR of independent hashes — a false merge
  needs both to collide, ~2^-128; the text itself never enters the shuffle).
- minhash_lsh: word-shingle minhash signatures, banded LSH bucketing
  (shuffle moves (band, hash, id) triples only), candidate verification by
  true Jaccard, then min-label propagation to connected components.
- simhash: 64-bit token-hash simhash per doc (vectorized bit-counting).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.hashing import hash64, hash64_ints
from .aggregate import grouped_agg, grouped_count
from .bucketing import bucketed_map_groups, exchange


# ---------------------------------------------------------------- exact

class _PartialDedup:
    """Per-batch: two independent 64-bit content hashes next to the id.
    Only fixed-width hash rows enter the exchange — the text itself never
    moves."""

    def __init__(self, text_col: str, id_col: str):
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        return pa.table({
            "_h1": pa.array(hash64(t.column(self.text_col), seed=0)
                            .astype(np.int64)),
            "_h2": pa.array(hash64(t.column(self.text_col), seed=1)
                            .astype(np.int64)),
            self.id_col: t.column(self.id_col),
        })


def exact_dedup(ds: ray.data.Dataset, text_col: str = "text",
                id_col: str = "doc_id") -> ray.data.Dataset:
    """Keep the minimum-id row per distinct text.

    Identity key = a PAIR of independent 64-bit content hashes (collision
    needs both to collide: ~2^-128 — cryptographic-grade distinctness
    without shipping text through the exchange). The per-(h1, h2) min id
    is the two-phase ``grouped_agg``: per-batch partials reduce
    duplicates before the exchange; only (h1, h2, id) rows move.
    """
    hashed = ds.select_columns([id_col, text_col]).map_batches(
        _PartialDedup(text_col, id_col), batch_format="pyarrow")
    kept = grouped_agg(hashed, ["_h1", "_h2"], min_cols={id_col: id_col})
    return kept.select_columns([id_col])


# ---------------------------------------------------------------- minhash

def _shingle_hashes(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per doc: hashes of k-word shingles → (flat_hashes, doc offsets).

    Fully vectorized: Arrow tokenization of the whole column, then the
    k-gram join is ``binary_join_element_wise`` over k SLICES of the flat
    token array (zero-copy), masking positions whose window crosses a doc
    boundary. Docs with 0 < tokens < k fall back to one whole-doc shingle
    (rare; small loop). Hash order within a doc is unspecified — the
    minhash reduce is order-invariant."""
    col = pa.array([t if t is not None else "" for t in texts], pa.string()) \
        if isinstance(texts, list) else texts
    flat, offsets = _tokenize_flat(col)
    counts = np.diff(offsets)
    n = len(counts)
    tok_total = len(flat)
    rowid = np.repeat(np.arange(n), counts)
    parts = []
    if tok_total >= k:
        m = tok_total - k + 1
        slices = [flat.slice(i, m) for i in range(k)]
        joined = pc.binary_join_element_wise(*slices, " ")
        valid = rowid[:m] == rowid[k - 1:]
        if valid.any():
            parts.append((hash64(joined.filter(pa.array(valid))),
                          rowid[:m][valid]))
    short = np.nonzero((counts > 0) & (counts < k))[0]
    if len(short):
        toks = flat.to_numpy(zero_copy_only=False)
        sh = [" ".join(toks[offsets[d]: offsets[d + 1]]) for d in short]
        parts.append((hash64(pa.array(sh, pa.string())),
                      short.astype(np.int64)))
    if not parts:
        return np.empty(0, np.uint64), np.zeros(n + 1, np.int64)
    all_hash = np.concatenate([p[0] for p in parts])
    all_rows = np.concatenate([p[1] for p in parts])
    order = np.argsort(all_rows, kind="stable")
    out_off = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(all_rows, minlength=n), out=out_off[1:])
    return all_hash[order], out_off


class MinHashStage:
    """Per-batch minhash signatures → exploded LSH band rows
    (band, band_hash, id). num_perm = bands × rows_per_band."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 shingle_k: int = 3, bands: int = 16, rows_per_band: int = 4):
        self.text_col, self.id_col = text_col, id_col
        self.k, self.bands, self.r = shingle_k, bands, rows_per_band
        self.num_perm = bands * rows_per_band

    def signature(self, texts: list[str | None]) -> np.ndarray:
        flat, offsets = _shingle_hashes(texts, self.k)
        n = len(texts)
        sig = np.full((n, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        nonempty = np.nonzero(np.diff(offsets) > 0)[0]
        if len(flat):
            starts = offsets[:-1][nonempty]
            for j in range(self.num_perm):
                h = hash64_ints(flat, seed=j)
                sig[nonempty, j] = np.minimum.reduceat(h, starts)
        return sig

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t.column(self.text_col).to_pylist()
        ids = t.column(self.id_col).to_numpy(zero_copy_only=False)
        sig = self.signature(texts)
        n = len(texts)
        # band hash = splitmix over the r signature values of the band
        band_ids = np.repeat(np.arange(self.bands, dtype=np.int32), n)
        doc_ids = np.tile(ids, self.bands)
        bh = np.empty(self.bands * n, dtype=np.uint64)
        for b in range(self.bands):
            acc = np.zeros(n, dtype=np.uint64)
            for j in range(b * self.r, (b + 1) * self.r):
                acc = hash64_ints(acc ^ sig[:, j], seed=b)
            bh[b * n: (b + 1) * n] = acc
        return pa.table({
            "band": pa.array(band_ids),
            "band_hash": pa.array(bh.astype(np.int64)),
            self.id_col: pa.array(doc_ids),
        })


def minhash_candidate_pairs(ds: ray.data.Dataset, text_col: str = "text",
                            id_col: str = "doc_id", shingle_k: int = 3,
                            bands: int = 16, rows_per_band: int = 4,
                            n_buckets: int = 64) -> ray.data.Dataset:
    """LSH candidate pairs (id_a < id_b), deduplicated across bands —
    candidate generation runs on the bucketed segment-vectorized path
    (``group_candidate_pairs``): one Python call per HASH BUCKET, never
    per LSH bucket (band_hash is effectively unique per candidate group,
    so the old per-group ``map_groups`` meant one call per group —
    unbounded at corpus scale)."""
    stage = MinHashStage(text_col, id_col, shingle_k, bands, rows_per_band)
    triples = ds.select_columns([id_col, text_col]).map_batches(
        stage, batch_format="pyarrow")
    return group_candidate_pairs(triples, ["band", "band_hash"], id_col,
                                 n_buckets=n_buckets)


# ------------------------------------------------ distributed verify + CC

_BLOOM_SEEDS = (101, 202, 303, 404)


def _bloom_build(pairs: ray.data.Dataset, bloom_bits: int) -> np.ndarray:
    """Candidate-id membership bloom filter, built by streaming OR of
    per-batch bitmaps: driver memory is O(bloom_bits) — a fixed-size bitmap
    — never O(candidate count). False positives only cost wasted signature
    computation downstream (they never join a pair), so correctness is
    unaffected."""
    words = np.zeros(bloom_bits // 64, dtype=np.uint64)
    for b in pairs.iter_batches(batch_size=65536, batch_format="pyarrow"):
        ids = np.concatenate([
            b.column("id_a").to_numpy(zero_copy_only=False),
            b.column("id_b").to_numpy(zero_copy_only=False)]).astype(np.uint64)
        for s in _BLOOM_SEEDS:
            pos = hash64_ints(ids, seed=s) % np.uint64(bloom_bits)
            np.bitwise_or.at(words, (pos // np.uint64(64)).astype(np.int64),
                             np.uint64(1) << (pos % np.uint64(64)))
    return words


def _bloom_contains(words: np.ndarray, bloom_bits: int,
                    ids: np.ndarray) -> np.ndarray:
    m = np.ones(len(ids), dtype=bool)
    u = ids.astype(np.uint64)
    for s in _BLOOM_SEEDS:
        pos = hash64_ints(u, seed=s) % np.uint64(bloom_bits)
        bit = (words[(pos // np.uint64(64)).astype(np.int64)]
               >> (pos % np.uint64(64))) & np.uint64(1)
        m &= bit.astype(bool)
    return m


class _CandidateSigStage:
    """Actor-pool stage: bloom broadcast once per actor via ``ray.put`` ref
    (the enrich.py broadcast pattern); emits (id, sig) for candidate docs
    only — the full corpus streams through but only candidates' signatures
    (num_perm × 8 bytes each) continue downstream."""

    def __init__(self, bloom_ref, bloom_bits: int, text_col: str, id_col: str,
                 shingle_k: int, bands: int, rows_per_band: int):
        import ray

        self.words = ray.get(bloom_ref)
        self.bloom_bits = bloom_bits
        self.text_col, self.id_col = text_col, id_col
        self.mh = MinHashStage(text_col, id_col, shingle_k, bands, rows_per_band)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t.column(self.id_col).to_numpy(zero_copy_only=False)
        keep = _bloom_contains(self.words, self.bloom_bits, ids)
        t = t.filter(pa.array(keep))
        sig = self.mh.signature(t.column(self.text_col).to_pylist())
        # signatures travel as opaque binary (num_perm × 8 LE bytes), built
        # zero-copy from the numpy buffer: list/fixed_size_list columns get
        # mapped to Ray's tensor extension, which breaks grouped-block
        # pandas conversion — binary passes through untouched.
        width = self.mh.num_perm * 8
        vals = pa.py_buffer(sig.astype("<u8").tobytes())
        offs = pa.py_buffer((np.arange(t.num_rows + 1, dtype=np.int32)
                             * width).tobytes())
        return pa.table({
            "_key": t.column(self.id_col).cast(pa.int64()),
            "sig": pa.Array.from_buffers(pa.binary(), t.num_rows,
                                         [None, offs, vals]),
        })


def _attach_sig(pairs: ray.data.Dataset, sigs: ray.data.Dataset,
                key_col: str, out_col: str, carry: dict[str, pa.DataType],
                n_buckets: int) -> ray.data.Dataset:
    """Co-group join: attach sigs.sig to pairs on pairs[key_col] == sigs._key
    via hash-bucket map_groups (one vectorized pandas merge per BUCKET, not
    per key — the bounded-group pattern). Both sides shuffle only bucket-
    tagged rows; sigs rows are (id, binary sig)."""
    carry_cols = [c for c in carry if c != key_col]
    sig_type = pa.binary()

    def tag_pairs(t: pa.Table) -> pa.Table:
        key = t.column(key_col).cast(pa.int64())
        cols = {"_key": key, "_kind": pa.array(np.ones(t.num_rows, np.int8))}
        for c in carry:
            cols[c] = t.column(c)
        cols["sig"] = pa.nulls(t.num_rows, sig_type)
        return pa.table(cols)

    def tag_sigs(t: pa.Table) -> pa.Table:
        key = t.column("_key")
        cols = {"_key": key, "_kind": pa.array(np.zeros(t.num_rows, np.int8))}
        for c, typ in carry.items():
            cols[c] = pa.nulls(t.num_rows, typ) if c != key_col else key
        cols["sig"] = t.column("sig")
        return pa.table(cols)

    union = pairs.map_batches(tag_pairs, batch_format="pyarrow").union(
        sigs.map_batches(tag_sigs, batch_format="pyarrow"))

    def merge(t: pa.Table) -> pa.Table:
        # Arrow hash join (NOT pandas merge: the union's nullable int64
        # columns would round-trip through float64 and silently corrupt
        # ids above 2^53)
        is_sig = pc.equal(t.column("_kind"), 0)
        labs = t.filter(is_sig).select(["_key", "sig"]) \
            .rename_columns(["_key", out_col])
        prs = t.filter(pc.invert(is_sig)).select(["_key"] + list(carry))
        m = prs.join(labs, keys=["_key"], join_type="inner")
        cols = {key_col: m.column("_key").cast(pa.int64())}
        for c in carry_cols:
            cols[c] = m.column(c).cast(carry[c])
        cols[out_col] = m.column(out_col).cast(pa.binary())
        return pa.table(cols)

    return bucketed_map_groups(union, "_key", merge, n_buckets=n_buckets)


def minhash_verified_edges(ds: ray.data.Dataset, text_col: str = "text",
                           id_col: str = "doc_id", threshold: float = 0.8,
                           shingle_k: int = 3, bands: int = 16,
                           rows_per_band: int = 4, bloom_bits: int = 1 << 24,
                           n_buckets: int = 64) -> ray.data.Dataset:
    """LSH candidates → DISTRIBUTED signature verification → accepted edge
    list (id_a, id_b). Signature agreement fraction is an unbiased Jaccard
    estimator; only candidate docs' signatures move, attached to pairs by
    two hash-bucket co-group passes. No driver-side step scales with
    candidate count (the bloom bitmap is fixed-size)."""
    pairs = minhash_candidate_pairs(ds, text_col, id_col, shingle_k, bands,
                                    rows_per_band).materialize()
    if pairs.count() == 0:
        return ray.data.from_arrow(pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}))
    bloom_ref = ray.put(_bloom_build(pairs, bloom_bits))
    sigs = ds.select_columns([id_col, text_col]).map_batches(
        _CandidateSigStage,
        fn_constructor_kwargs={
            "bloom_ref": bloom_ref, "bloom_bits": bloom_bits,
            "text_col": text_col, "id_col": id_col, "shingle_k": shingle_k,
            "bands": bands, "rows_per_band": rows_per_band},
        # autoscaling pool (min 1): a fixed-size pool can reserve every CPU
        # and starve the upstream read task — deadlock on small clusters
        batch_format="pyarrow", concurrency=(1, 8)).materialize()
    with_a = _attach_sig(pairs, sigs, "id_a", "sig_a",
                         {"id_a": pa.int64(), "id_b": pa.int64()}, n_buckets)
    with_ab = _attach_sig(with_a, sigs, "id_b", "sig_b",
                          {"id_a": pa.int64(), "id_b": pa.int64(),
                           "sig_a": pa.binary()}, n_buckets)

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        ab = t.column("sig_a").to_numpy(zero_copy_only=False)
        bb = t.column("sig_b").to_numpy(zero_copy_only=False)
        a = np.frombuffer(b"".join(ab), "<u8").reshape(t.num_rows, -1)
        b = np.frombuffer(b"".join(bb), "<u8").reshape(t.num_rows, -1)
        sim = (a == b).mean(axis=1)
        keep = pa.array(sim >= threshold)
        return pa.table({"id_a": t.column("id_a").filter(keep),
                         "id_b": t.column("id_b").filter(keep)})

    return with_ab.map_batches(verify, batch_format="pyarrow")


def connected_components(edges: ray.data.Dataset, n_buckets: int = 64,
                         max_rounds: int = 50,
                         driver_max_edges: int = 2_000_000,
                         mode: str = "auto") -> ray.data.Dataset:
    """Connected components over an undirected edge list (id_a, id_b) →
    Dataset (node, label), label = min node id of the component, one row for
    EVERY node incl. representatives.

    Distributed path: iterative min-label (hash-min) propagation expressed
    as Ray stages — per round, each node's label is min(own, neighbors')
    via one hash-bucket co-group shuffle + one two-phase grouped
    min; convergence is detected by the (monotone-decreasing) sum of
    labels. O(component diameter) rounds; nothing driver-side scales
    with edge count. The driver union-find fast path serves
    small-to-medium graphs (``mode="auto"`` switches on
    ``driver_max_edges``; 2M edges ≈ 32 MB driver-resident and <1 s
    union-find — far cheaper than the iterative distributed rounds it
    replaces at that size)."""
    edges = edges.materialize()
    n_edges = edges.count()
    empty = pa.table({"node": pa.array([], pa.int64()),
                      "label": pa.array([], pa.int64())})
    if n_edges == 0:
        return ray.data.from_arrow(empty)
    if mode == "driver" or (mode == "auto" and n_edges <= driver_max_edges):
        e = edges.to_pandas()
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        nodes = set()
        for a, b in zip(e["id_a"], e["id_b"]):
            nodes.update((int(a), int(b)))
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        rows = sorted((x, find(x)) for x in nodes)
        return ray.data.from_arrow(pa.table({
            "node": pa.array([r[0] for r in rows], pa.int64()),
            "label": pa.array([r[1] for r in rows], pa.int64())}))

    def bidir(t: pa.Table) -> pa.Table:
        a = t.column("id_a").cast(pa.int64())
        b = t.column("id_b").cast(pa.int64())
        src = pa.concat_arrays([a.combine_chunks(), b.combine_chunks()])
        dst = pa.concat_arrays([b.combine_chunks(), a.combine_chunks()])
        return pa.table({"_key": src, "_dst": dst,
                         "label": pa.nulls(2 * t.num_rows, pa.int64()),
                         "_kind": pa.array(np.ones(2 * t.num_rows, np.int8))})

    tagged_edges = edges.map_batches(bidir, batch_format="pyarrow").materialize()

    def min_label(ds: ray.data.Dataset) -> ray.data.Dataset:
        return grouped_agg(ds, ["node"], min_cols={"label": "label"},
                           n_buckets=n_buckets).materialize()

    labels = min_label(tagged_edges.map_batches(
        lambda t: pa.table({"node": t.column("_key"),
                            "label": t.column("_key")}),
        batch_format="pyarrow"))

    def tag_labels(t: pa.Table) -> pa.Table:
        key = t.column("node")
        return pa.table({"_key": key, "_dst": pa.nulls(t.num_rows, pa.int64()),
                         "label": t.column("label"),
                         "_kind": pa.array(np.zeros(t.num_rows, np.int8))})

    def propagate(t: pa.Table) -> pa.Table:
        # Arrow hash join (pandas would coerce the nullable int64 columns
        # to float64 and corrupt node ids above 2^53)
        is_lab = pc.equal(t.column("_kind"), 0)
        labs = t.filter(is_lab).select(["_key", "label"])
        eds = t.filter(pc.invert(is_lab)).select(["_key", "_dst"])
        m = eds.join(labs, keys=["_key"], join_type="inner")
        return pa.table({"node": m.column("_dst").cast(pa.int64()),
                         "label": m.column("label").cast(pa.int64())})

    prev_sum = None
    for _ in range(max_rounds):
        union = tagged_edges.union(
            labels.map_batches(tag_labels, batch_format="pyarrow"))
        msgs = bucketed_map_groups(union, "_key", propagate,
                                   n_buckets=n_buckets)
        labels = min_label(msgs.union(labels))
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            return labels
        prev_sum = cur_sum
    raise RuntimeError(f"connected_components: no fixpoint in {max_rounds} "
                       "rounds (component diameter exceeds max_rounds)")


def _labels_to_clusters(labels: ray.data.Dataset, id_col: str):
    """(node, label) → (id_col, rep_id). The no-duplicates case returns a
    typed EMPTY pandas DataFrame: Ray's ``to_pandas`` drops the schema of
    a 0-row dataset entirely, so an empty Dataset would surface as a
    column-less frame to consumers."""
    if labels.count() == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "rep_id": pd.Series([], dtype="int64")})
    return labels.map_batches(
        lambda t: pa.table({id_col: t.column("node"),
                            "rep_id": t.column("label")}),
        batch_format="pyarrow")


def minhash_dedup(ds: ray.data.Dataset, text_col: str = "text",
                  id_col: str = "doc_id", threshold: float = 0.8,
                  shingle_k: int = 3, bands: int = 16, rows_per_band: int = 4,
                  cc_mode: str = "auto") -> ray.data.Dataset:
    """Full near-dup pipeline → Dataset (doc_id, rep_id): cluster assignment
    for EVERY doc in a near-dup cluster, representatives included
    (rep_id = min doc id of the cluster; a doc is a rep iff doc_id ==
    rep_id).

    Scale shape: (band, hash, id) triples shuffle for candidates;
    distributed signature verification (``minhash_verified_edges``);
    distributed min-label-propagation connected components
    (``connected_components``). The only driver-resident state is the
    fixed-size candidate bloom bitmap."""
    edges = minhash_verified_edges(ds, text_col, id_col, threshold,
                                   shingle_k, bands, rows_per_band)
    return _labels_to_clusters(connected_components(edges, mode=cc_mode),
                               id_col)


# ---------------------------------------------------------------- simhash

def _tokenize_flat(col: pa.Array | pa.ChunkedArray
                   ) -> tuple[pa.Array, np.ndarray]:
    """Whitespace tokenization of a whole column, fully vectorized:
    (flat lowercased token array, per-row token offsets). Empty tokens
    from leading/trailing whitespace are dropped (str.split semantics)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.utf8_split_whitespace(pc.utf8_lower(col))
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    counts = np.diff(np.asarray(toks.offsets.to_numpy(zero_copy_only=False),
                                np.int64))
    nonempty = pc.greater(pc.utf8_length(flat), 0).to_numpy(
        zero_copy_only=False)
    if not nonempty.all():
        rows = np.repeat(np.arange(len(counts)), counts)
        counts = np.bincount(rows[nonempty], minlength=len(counts))
        flat = flat.filter(pa.array(nonempty))
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    return flat, offsets


class SimHashStage:
    """64-bit simhash per row from token hashes — fully vectorized:
    Arrow whitespace tokenization, per-BIT segment sums over the flat
    token-hash array (64 reduceats; no (tokens × 64) bit-matrix
    materialization, which was 10× the memory and most of the wall)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        flat, offsets = _tokenize_flat(t.column(self.text_col))
        n = t.num_rows
        counts = np.diff(offsets)
        sim = np.zeros(n, dtype=np.uint64)
        if len(flat):
            th = hash64(flat)
            starts = offsets[:-1]
            ne = np.nonzero(counts > 0)[0]
            total = counts[ne]
            for b in range(64):
                ones = np.add.reduceat(
                    ((th >> np.uint64(b)) & np.uint64(1)).astype(np.int64),
                    starts[ne])
                # bit set iff ones > zeros (strict majority, tie → 0)
                sim[ne] |= (2 * ones > total).astype(np.uint64) << np.uint64(b)
        return pa.table({self.id_col: t.column(self.id_col),
                         "simhash": pa.array(sim.astype(np.int64))})


def ngram_jaccard_pairs(ds: ray.data.Dataset, text_col: str = "text",
                        id_col: str = "doc_id", shingle_k: int = 3,
                        threshold: float = 0.5) -> ray.data.Dataset:
    """Verified n-gram Jaccard near-dup clusters via the LSH candidate path
    with a lower band threshold (exposed separately as the n-gram-Jaccard
    near-dup operator)."""
    return minhash_dedup(ds, text_col, id_col, threshold=threshold,
                         shingle_k=shingle_k, bands=32, rows_per_band=2)


# ---------------------------------------------- simhash / embedding near-dup

def _group_hash(t: pa.Table, group_cols: list[str]) -> np.ndarray:
    """One stable uint64 per row from the group-key tuple (splitmix
    mixing per column — the group identity for the bucketed exchange)."""
    acc = np.zeros(t.num_rows, np.uint64)
    for j, c in enumerate(group_cols):
        col = t.column(c)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_integer(col.type):
            ch = col.to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            ch = hash64(col)
        acc = hash64_ints(acc ^ ch, seed=j + 1)
    return acc


def _distinct_edges(edges: ray.data.Dataset,
                   n_buckets: int | str = "auto") -> ray.data.Dataset:
    """The distinct ``(id_a, id_b)`` rows of an edge list."""
    return grouped_count(edges, ["id_a", "id_b"], count_name="_n",
                         n_buckets=n_buckets).select_columns(["id_a", "id_b"])


def group_candidate_pairs(keyed: ray.data.Dataset, group_cols: list[str],
                          id_col: str, cap: int = 200,
                          n_buckets: int = 64) -> ray.data.Dataset:
    """Candidate pairs from co-grouped rows — FULLY vectorized, bucketed.

    Scale shape: the group-key tuple hashes to one int64 (``_gh``) and
    rows exchange on ``hash(_gh) % n_buckets`` — a BOUNDED number of
    bucket tasks, vs. the banned ``groupby(raw_high_cardinality_key)
    .map_groups`` pattern (one Python call per LSH bucket ≈ per candidate
    group, unbounded at corpus scale — bucketing.py:1-12). Inside one
    bucket task a single Arrow sort + numpy segment arithmetic emits
    every within-group (id_a < id_b) pair:

        pos_j  = row j's rank inside its group (0-based)
        b side = row j repeated pos_j times
        a side = the concatenated aranges [seg_start, seg_start+pos_j),
                 built with cumsum offset arithmetic — no per-segment loop

    Groups above ``cap`` members are dropped (the degenerate-bucket
    guard: a key that collides that often carries no signal); the cap
    bounds group SIZE while the bucketing bounds task COUNT. A 64-bit
    ``_gh`` collision can only MERGE two groups — extra candidate pairs
    that downstream verification rejects; completeness is never lost.
    Pairs found by multiple groups/bands dedupe via one grouped count."""

    def tag(t: pa.Table) -> pa.Table:
        gh = _group_hash(t, group_cols)
        return pa.table({"_gh": pa.array(gh.astype(np.int64)),
                         id_col: t.column(id_col)})

    def emit(t: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        t = t.sort_by([("_gh", "ascending"), (id_col, "ascending")])
        gh = t.column("_gh").to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        first = np.ones(len(ids), bool)  # drop duplicate (group, id) rows
        first[1:] = (gh[1:] != gh[:-1]) | (ids[1:] != ids[:-1])
        gh, ids = gh[first], ids[first]
        n = len(ids)
        change = np.ones(n, bool)
        change[1:] = gh[1:] != gh[:-1]
        starts = np.flatnonzero(change)
        sizes = np.diff(np.append(starts, n))
        keep_seg = (sizes >= 2) & (sizes <= cap)
        ids = ids[np.repeat(keep_seg, sizes)]
        sizes = sizes[keep_seg]
        if not len(sizes):
            return empty
        seg_starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        pos = np.arange(len(ids)) - np.repeat(seg_starts, sizes)
        total = int(pos.sum())
        b_idx = np.repeat(np.arange(len(ids)), pos)
        emitted_before = np.cumsum(pos) - pos
        a_idx = np.arange(total) - np.repeat(emitted_before, pos) \
            + np.repeat(np.repeat(seg_starts, sizes), pos)
        return pa.table({"id_a": pa.array(ids[a_idx].astype(np.int64)),
                         "id_b": pa.array(ids[b_idx].astype(np.int64))})

    cand = bucketed_map_groups(keyed.map_batches(tag, batch_format="pyarrow"),
                               "_gh", emit, n_buckets=n_buckets)
    return _distinct_edges(cand, n_buckets)


def simhash_dedup(ds: ray.data.Dataset, text_col: str = "text",
                  id_col: str = "doc_id", max_hamming: int = 3,
                  bands: int | None = None,
                  cc_mode: str = "auto") -> ray.data.Dataset:
    """SimHash near-dup clusters → Dataset (doc_id, rep_id).

    Pigeonhole LSH: a 64-bit simhash splits into ``bands`` equal bit
    slices; two hashes within hamming distance < bands MUST agree on at
    least one slice, so candidate generation is COMPLETE only when
    ``bands > max_hamming`` — enforced here (``bands=None`` picks the
    smallest power-of-two band count that satisfies it). Verification is
    exact popcount(xor) ≤ max_hamming, fully distributed: the 8-byte
    hashes are re-attached to pairs by the same hash-bucket co-group as
    minhash signatures (nothing driver-side scales with corpus or
    candidate count), then connected components."""
    if bands is None:
        bands = next(b for b in (1, 2, 4, 8, 16, 32, 64) if b > max_hamming)
    if bands <= max_hamming or 64 % bands != 0:
        raise ValueError(
            f"bands={bands} must exceed max_hamming={max_hamming} (the "
            "pigeonhole completeness bound) and divide 64")

    hashed = ds.select_columns([id_col, text_col]).map_batches(
        SimHashStage(text_col, id_col), batch_format="pyarrow").materialize()
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)

    def explode_bands(t: pa.Table) -> pa.Table:
        h = t.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        band = np.repeat(np.arange(bands, dtype=np.int32), len(h))
        keys = np.concatenate([
            ((h >> np.uint64(b * width)) & mask).astype(np.int64)
            for b in range(bands)]) if len(h) else np.empty(0, np.int64)
        return pa.table({"band": pa.array(band),
                         "band_key": pa.array(keys),
                         id_col: pa.array(np.tile(ids, bands))})

    keyed = hashed.map_batches(explode_bands, batch_format="pyarrow")
    pairs = group_candidate_pairs(keyed, ["band", "band_key"],
                                  id_col).materialize()
    if pairs.count() == 0:
        return _labels_to_clusters(
            ray.data.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                          "label": pa.array([], pa.int64())})),
            id_col)

    def to_sig(t: pa.Table) -> pa.Table:
        h = t.column("simhash").to_numpy(zero_copy_only=False).astype("<u8")
        vals = pa.py_buffer(h.tobytes())
        offs = pa.py_buffer((np.arange(t.num_rows + 1, dtype=np.int32)
                             * 8).tobytes())
        return pa.table({
            "_key": t.column(id_col).cast(pa.int64()),
            "sig": pa.Array.from_buffers(pa.binary(), t.num_rows,
                                         [None, offs, vals])})

    sigs = hashed.map_batches(to_sig, batch_format="pyarrow")
    with_a = _attach_sig(pairs, sigs, "id_a", "sig_a",
                         {"id_a": pa.int64(), "id_b": pa.int64()}, 64)
    with_ab = _attach_sig(with_a, sigs, "id_b", "sig_b",
                          {"id_a": pa.int64(), "id_b": pa.int64(),
                           "sig_a": pa.binary()}, 64)

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        ha = np.frombuffer(b"".join(
            t.column("sig_a").to_numpy(zero_copy_only=False)), "<u8")
        hb = np.frombuffer(b"".join(
            t.column("sig_b").to_numpy(zero_copy_only=False)), "<u8")
        x = (ha ^ hb).view(np.uint8).reshape(-1, 8)
        dist = np.unpackbits(x, axis=1).sum(axis=1)
        keep = pa.array(dist <= max_hamming)
        return pa.table({"id_a": t.column("id_a").filter(keep),
                         "id_b": t.column("id_b").filter(keep)})

    edges = with_ab.map_batches(verify, batch_format="pyarrow")
    return _labels_to_clusters(connected_components(edges, mode=cc_mode),
                               id_col)


def embedding_near_dup(ds: ray.data.Dataset, id_col: str = "vec_id",
                       vec_col: str = "embedding", threshold: float = 0.97,
                       n_bits: int = 8, n_tables: int = 4, seed: int = 42,
                       cc_mode: str = "auto") -> ray.data.Dataset:
    """Embedding-cosine near-duplicate clusters → Dataset (vec_id, rep_id).

    ``n_tables`` independent signed-random-projection hashings bucket the
    vectors (a near-identical pair collides in at least one table with
    high probability); per-bucket pairwise cosine inside the bucket task
    verifies candidates EXACTLY against ``threshold`` (no separate
    re-attachment pass — vectors are already co-located), then connected
    components. Shuffle volume: n_tables × (bucket, id, vec) rows."""
    from .similarity import _normalize, _projection_matrix, _stack

    def bucketize(t: pa.Table) -> pa.Table:
        x = _stack(t.column(vec_col))
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        n = len(ids)
        outs = []
        for tab in range(n_tables):
            proj = _projection_matrix(x.shape[1] if n else 0, n_bits,
                                      seed + tab)
            bits = (x @ proj) > 0
            bucket = bits @ (2 ** np.arange(n_bits, dtype=np.int64)) \
                + tab * (1 << n_bits)
            outs.append(pa.table({
                "bucket": pa.array(bucket.astype(np.int64)),
                id_col: t.column(id_col),
                vec_col: t.column(vec_col)}))
        return pa.concat_tables(outs)

    def bucket_edges(g: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], pa.int64()),
                          "id_b": pa.array([], pa.int64())})
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        uniq, first_idx = np.unique(ids, return_index=True)
        if len(uniq) < 2 or len(uniq) > 500:  # cardinality guard
            return empty
        x = _normalize(_stack(g.column(vec_col).take(pa.array(first_idx))))
        sims = x @ x.T
        a, b = np.triu_indices(len(uniq), k=1)
        keep = sims[a, b] >= threshold
        return pa.table({"id_a": pa.array(uniq[a[keep]].astype(np.int64)),
                         "id_b": pa.array(uniq[b[keep]].astype(np.int64))})

    keyed = ds.select_columns([id_col, vec_col]).map_batches(
        bucketize, batch_format="pyarrow")
    edges = _distinct_edges(exchange(keyed, "bucket", bucket_edges))
    return _labels_to_clusters(connected_components(edges, mode=cc_mode),
                               id_col)


def dedup_filter(ds: ray.data.Dataset, clusters, id_col: str = "doc_id",
                 n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Keep-one corpus filter: drop every clustered document EXCEPT its
    representative — the consumable output of any near-dedup pass
    (minhash_dedup / simhash_clusters / embedding_near_dup all emit
    ``(id, rep_id)`` clusters).

    Scale shape: the drop-set (clustered ids with id != rep) can be a
    large fraction of the corpus, so it is NOT broadcast — the filter is
    a distributed ANTI join on the id (one bucket co-partition exchange,
    stages/join.py); only ids move, never text."""
    from .join import shuffle_hash_join

    if isinstance(clusters, pd.DataFrame):  # no-duplicates typed empty
        if not len(clusters):
            return ds
        clusters = ray.data.from_pandas(clusters)

    def drops(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.not_equal(t.column(id_col), t.column("rep_id"))
        return pa.table({"_drop_id": t.column(id_col).filter(keep)})

    drop_ids = clusters.map_batches(drops, batch_format="pyarrow")
    return shuffle_hash_join(ds, drop_ids, key=id_col,
                             right_key="_drop_id", how="anti",
                             n_buckets=n_buckets)


# ------------------------------------------------- cross-corpus screen

def cross_decontaminate(train: ray.data.Dataset, ref: ray.data.Dataset,
                        text_col: str = "text", id_col: str = "doc_id",
                        threshold: float = 0.8, shingle_k: int = 3,
                        bands: int = 16, rows_per_band: int = 4,
                        n_buckets: int | str = "auto") -> ray.data.Dataset:
    """FUZZY train/eval decontamination: drop every training document
    that lands in a near-duplicate cluster containing ANY reference
    (eval-set) document — the MinHash complement of the exact n-gram
    screen in ``stages/contamination.py``.

    Both corpora must use INTEGER ids (the two id spaces are interleaved
    as 2·id / 2·id+1 so the union stays collision-free — validated).
    Semantics are TRANSITIVE by construction: if train doc A ~ train doc
    B ~ eval doc E, both A and B are dropped (connected components, the
    conservative choice for decontamination).

    Scale shape: one union → the standard minhash pipeline (sketches
    shuffle, never text) → ONE bucketed pass over the cluster table
    emits the drop ids (per-cluster any-ref flag via segment ops) → a
    distributed ANTI join returns the surviving training rows."""
    from .join import shuffle_hash_join

    def tag(mult_off):
        def fn(t: pa.Table) -> pa.Table:
            ids = t.column(id_col)
            if not pa.types.is_integer(ids.type):
                raise ValueError(
                    "cross_decontaminate: integer id columns required "
                    "(the two corpora are interleaved as 2*id / 2*id+1)")
            v = ids.to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({id_col: pa.array(v * 2 + mult_off),
                             text_col: t.column(text_col)})
        return fn

    unioned = train.map_batches(tag(0), batch_format="pyarrow").union(
        ref.map_batches(tag(1), batch_format="pyarrow"))
    clusters = minhash_dedup(unioned, text_col=text_col, id_col=id_col,
                             threshold=threshold, shingle_k=shingle_k,
                             bands=bands, rows_per_band=rows_per_band)

    def drop_ids(t: pa.Table) -> pa.Table:
        # per rep_id segment: any ref member ⇒ emit the TRAIN members
        t = t.sort_by([("rep_id", "ascending")])
        rep = t.column("rep_id").to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        if not len(ids):
            return pa.table({"_drop_id": pa.array([], pa.int64())})
        is_ref = (ids % 2) == 1
        seg_id = np.cumsum(np.concatenate(
            [[True], rep[1:] != rep[:-1]])) - 1
        has_ref = np.zeros(seg_id[-1] + 1, bool)
        np.logical_or.at(has_ref, seg_id, is_ref)
        doomed = has_ref[seg_id] & ~is_ref
        return pa.table({"_drop_id": pa.array(
            (ids[doomed] // 2).astype(np.int64))})

    drops = bucketed_map_groups(clusters, "rep_id", drop_ids,
                                n_buckets=n_buckets)
    return shuffle_hash_join(train, drops, key=id_col,
                             right_key="_drop_id", how="anti",
                             n_buckets=n_buckets)
