"""Incremental exact dedup against a PERSISTED seen-content index —
the incremental-crawl pattern: each ingest batch is deduplicated
against everything any previous run kept, without ever re-reading the
historical corpus.

The index stores only a 128-bit content fingerprint per kept document
(two independent 64-bit hashes of the text — vectorized, and a 10^12-
row index expects ~1e-15 collisions, vs ~3e4 for a single 64-bit
lane), Hive-partitioned by ``shard = h1 % n_shards`` so appends are
new files inside existing shard directories and compaction/resume can
work shard-by-shard (the same layout discipline as the ANN index in
``stages/similarity.py``).

Dedup is the repo's distributed ANTI join (``stages/join.py
shuffle_hash_join`` on the composite (h1, h2) key — only 16-byte hash
rows ever shuffle, text stays in place), composed with a within-batch
first-wins dedup (min id per fingerprint on the bucket idiom), so one
call handles both "seen before" and "duplicated inside this ingest".

Reference: the collector's storage extension persists receiver state
across runs (``extension/storage``); this applies the same
durable-state idea to content dedup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..functions.hashing import hash64

__all__ = ["fingerprint_batch", "build_seen_index",
           "dedup_against_index", "append_to_index",
           "compact_seen_index"]

_SEED_A, _SEED_B = 0x5EED, 0xF00D


def fingerprint_batch(t: pa.Table, text_col: str,
                      n_shards: int | None = None) -> dict[str, pa.Array]:
    """128-bit fingerprint lanes; the shard column (a pure function of
    h1) is only computed when ``n_shards`` is given — lookups never need
    it (review finding)."""
    h1 = hash64(t.column(text_col), seed=_SEED_A)
    h2 = hash64(t.column(text_col), seed=_SEED_B)
    out = {"h1": pa.array(h1.astype(np.int64)),
           "h2": pa.array(h2.astype(np.int64))}
    if n_shards is not None:
        out["shard"] = pa.array((h1 % np.uint64(n_shards))
                                .astype(np.int64))
    return out


def build_seen_index(ds: ray.data.Dataset, path: str,
                     text_col: str = "text",
                     n_shards: int = 64) -> None:
    """Write the fingerprint index for a corpus: one (h1, h2) row per
    DISTINCT fingerprint, Hive-partitioned by shard. Also the append
    path — so it heals a crashed compaction first (review finding: an
    append into the crash window would otherwise create a FRESH index
    and silently orphan the historical fingerprints in <path>.old)."""
    from .aggregate import grouped_count

    _recover_index(path)

    fp = ds.map_batches(
        lambda t: pa.table(fingerprint_batch(t, text_col, n_shards)),
        batch_format="pyarrow")
    uniq = grouped_count(fp, ["shard", "h1", "h2"], count_name="_n")
    uniq.map_batches(lambda t: t.drop_columns(["_n"]),
                     batch_format="pyarrow").write_parquet(
        path, partition_cols=["shard"])
    # an EMPTY corpus writes no files at all — leave a readable empty
    # index so bootstrap-then-dedup works (shard=0 keeps the Hive
    # layout; lookups read only h1/h2)
    import glob as _glob
    import os as _os

    if not _glob.glob(_os.path.join(path, "shard=*")):
        import pyarrow.parquet as _pq

        d = _os.path.join(path, "shard=0")
        _os.makedirs(d, exist_ok=True)
        _pq.write_table(pa.table({"h1": pa.array([], pa.int64()),
                                  "h2": pa.array([], pa.int64())}),
                        _os.path.join(d, "empty.parquet"))


def append_to_index(survivors: ray.data.Dataset, path: str,
                    text_col: str = "text",
                    n_shards: int = 64) -> None:
    """Append the fingerprints of newly-kept rows as NEW files inside
    the existing shard directories (parquet append semantics — old
    files are never rewritten, so a crashed append is re-runnable)."""
    build_seen_index(survivors, path, text_col=text_col,
                     n_shards=n_shards)


def dedup_against_index(ds: ray.data.Dataset, index_path: str,
                        text_col: str = "text",
                        id_col: str = "doc_id",
                        n_buckets: int | str = "auto",
                        ) -> ray.data.Dataset:
    """Rows of ``ds`` that are (a) the FIRST occurrence (min ``id_col``)
    of their content within this ingest and (b) unseen by the persisted
    index (the index shard layout is a storage detail — lookups hash the
    fingerprints themselves, so no shard count is needed here). Returns
    the surviving (id_col, h1, h2) rows — join back on ``id_col`` for
    payload columns (ids, never text, ride the exchanges)."""
    from .bucketing import bucketed_map_groups
    from .join import shuffle_hash_join

    _recover_index(index_path)

    def fp(t: pa.Table) -> pa.Table:
        cols = fingerprint_batch(t, text_col)
        return pa.table({id_col: t.column(id_col),
                         "h1": cols["h1"], "h2": cols["h2"]})

    new = ds.map_batches(fp, batch_format="pyarrow")

    # within-ingest first-wins: min id per fingerprint (bucket idiom)
    def first_per_fp(t: pa.Table) -> pa.Table:
        t = t.sort_by([("h1", "ascending"), ("h2", "ascending"),
                       (id_col, "ascending")])
        h1 = t.column("h1").to_numpy(zero_copy_only=False)
        h2 = t.column("h2").to_numpy(zero_copy_only=False)
        keep = np.ones(len(h1), bool)
        if len(h1) > 1:
            keep[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
        return t.filter(pa.array(keep))

    firsts = bucketed_map_groups(new, "h1", first_per_fp,
                                 n_buckets=n_buckets)

    seen = ray.data.read_parquet(index_path, columns=["h1", "h2"])
    return shuffle_hash_join(firsts, seen, key=["h1", "h2"],
                             how="anti", n_buckets=n_buckets)


def _recover_index(path: str) -> None:
    """Heal the non-atomic window of :func:`compact_seen_index`: POSIX
    cannot swap two directories in one rename, so a crash between the
    two renames leaves only ``<path>.old``. Every entry point calls
    this first and renames the old index back into place."""
    import os

    old = path.rstrip("/") + ".old"
    if not os.path.exists(path) and os.path.exists(old):
        os.rename(old, path)


def compact_seen_index(path: str, n_shards: int | None = None) -> int:
    """Rewrite the index with one distinct-fingerprint file set — the
    compaction that keeps years of appends from becoming a small-file
    problem. Shard-count is inferred from the Hive layout when not
    given; shards are recomputed from h1 (bit-identical to build time),
    and the distinct rows are written to a sibling directory first.

    The two-rename swap (old out, new in) is NOT one atomic step: a
    crash in between leaves only ``<path>.old``, which the next call to
    any entry point (or re-running this compaction) renames back via
    ``_recover_index`` — the index is always recoverable to either the
    pre- or post-compaction state, never a mix. Returns the
    distinct-fingerprint count."""
    import glob
    import os
    import shutil

    from .aggregate import grouped_count
    from .bucketing import exchange

    _recover_index(path)
    if n_shards is None:
        n_shards = len(glob.glob(os.path.join(path, "shard=*")))
        if not n_shards:
            raise ValueError(
                f"compact_seen_index: no shard=* directories in {path}")

    ds = ray.data.read_parquet(path, columns=["h1", "h2"])

    def reshard(t: pa.Table) -> pa.Table:
        h1 = (t.column("h1").to_numpy(zero_copy_only=False)
              .astype(np.uint64))
        return t.append_column(
            "shard", pa.array((h1 % np.uint64(n_shards))
                              .astype(np.int64)))

    uniq = grouped_count(ds.map_batches(reshard, batch_format="pyarrow"),
                         ["shard", "h1", "h2"], count_name="_n")
    tmp = path.rstrip("/") + ".compacting"
    old = path.rstrip("/") + ".old"
    for d in (tmp, old):
        if os.path.exists(d):
            shutil.rmtree(d)
    # coalesce each shard into ONE block so the rewrite yields one file
    # per shard directory (bounded groups: shard count is n_shards)
    out = uniq.map_batches(lambda t: t.drop_columns(["_n"]),
                           batch_format="pyarrow")
    out = exchange(out, "shard", lambda t: t)
    # materialize once: count() reads the block metadata and the write
    # streams the same blocks — no re-read of the freshly written index
    out = out.materialize()
    n = out.count()
    out.write_parquet(tmp, partition_cols=["shard"])
    os.rename(path, old)
    os.rename(tmp, path)
    shutil.rmtree(old)
    return n
