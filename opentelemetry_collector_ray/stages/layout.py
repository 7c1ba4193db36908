"""Data-layout optimization — Z-order (Morton) clustering.

The table-layout step a 100 TB lakehouse pipeline runs before writing:
rows sorted by the bit-interleaving of two dimension columns cluster
multi-dimensional range queries into few row groups, so both
predicates prune at the read (the Delta/Iceberg OPTIMIZE ZORDER
analog; the reference collector has no layout operator — this is an
engine addition serving the same read-pruning goal as its batching).

``zorder_code`` is a pure numpy bit-spread (5 shift/mask rounds per
dimension, no Python per row); ``zorder_sort`` rides the spill-safe
distributed sample sort (``stages/sort.global_sort``), so the
clustering scales exactly like any other global sort here. Inputs must
be non-negative and < 2^31 so the interleaved code fits int64 —
violations raise loudly per batch (never silent wraparound).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .treereduce import collect

__all__ = ["zorder_code", "zorder_sort", "cluster_write",
           "read_pruned"]

_MAX_DIM = np.int64(1) << 31


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """32-bit values → bits at even positions of a 64-bit word."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def zorder_code(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Morton code: x's bits at even positions, y's at odd — int64."""
    x = np.asarray(x, np.int64)
    y = np.asarray(y, np.int64)
    for name, v in (("x", x), ("y", y)):
        if len(v) and (int(v.min()) < 0 or int(v.max()) >= _MAX_DIM):
            raise ValueError(
                f"zorder_code: {name} must be in [0, 2^31) so the "
                "interleaved code fits int64; rescale or bucket the "
                "dimension first")
    return (_spread_bits(x)
            | (_spread_bits(y) << np.uint64(1))).astype(np.int64)


def zorder_sort(make_ds, x_col: str, y_col: str, tie_break: str,
                code_col: str = "zcode", rank_col: str | None = "zrank",
                persist: str = "none") -> ray.data.Dataset:
    """Append the Morton code of (``x_col``, ``y_col``) and totally
    order the dataset by (code, ``tie_break``) via the distributed
    sample sort; with ``rank_col`` each row carries its dense global
    position (the value-hash-checkable evidence of the order). The
    two-pass ``global_sort`` contract applies — ``persist=`` forwards."""
    from .sort import global_sort

    def add_code(t: pa.Table) -> pa.Table:
        x = t.column(x_col).to_numpy(zero_copy_only=False)
        y = t.column(y_col).to_numpy(zero_copy_only=False)
        return t.append_column(code_col, pa.array(zorder_code(x, y)))

    return global_sort(
        lambda: make_ds().map_batches(add_code, batch_format="pyarrow"),
        [code_col, tie_break], rank_col=rank_col, persist=persist)


# ------------------------------------------------- zone-mapped clustering

MANIFEST_NAME = "_zonemap.parquet"


_BLOOM_K = 4  # double-hashing probe count


def _bloom_build(col: pa.ChunkedArray | pa.Array, m_bits: int
                 ) -> bytes:
    """Per-file Bloom bitmap over a column (k=4 double hashing,
    packbits layout — m_bits/8 bytes in the manifest)."""
    from ..functions.hashing import hash64, hash64_ints

    h1 = hash64(col)
    h2 = hash64_ints(h1, seed=7) | np.uint64(1)  # odd -> full cycle
    bits = np.zeros(m_bits, np.uint8)
    for i in range(_BLOOM_K):
        with np.errstate(over="ignore"):
            pos = (h1 + np.uint64(i) * h2) % np.uint64(m_bits)
        bits[pos.astype(np.int64)] = 1
    return np.packbits(bits).tobytes()


def _bloom_maybe_contains(blob, value_arr: pa.Array, m_bits: int
                          ) -> bool:
    """False = the value is DEFINITELY absent from the file."""
    from ..functions.hashing import hash64, hash64_ints

    if blob is None:
        return True  # no filter recorded -> cannot prove exclusion
    bits = np.unpackbits(np.frombuffer(blob, np.uint8))
    h1 = hash64(value_arr)
    h2 = hash64_ints(h1, seed=7) | np.uint64(1)
    for i in range(_BLOOM_K):
        with np.errstate(over="ignore"):
            pos = int((h1[0] + np.uint64(i) * h2[0])
                      % np.uint64(m_bits))
        if not bits[pos]:
            return False
    return True


def cluster_write(make_ds, out_dir: str, keys, stats_cols,
                  num_partitions: int | None = None,
                  sample_per_block: int = 64,
                  bloom_cols=None, bloom_bits: int = 16384,
                  persist: str = "none") -> pa.Table:
    """Range-clustered, zone-mapped parquet layout — the data-skipping
    write a 100 TB lakehouse runs before serving range queries (the
    Delta/Iceberg OPTIMIZE + per-file statistics analog; the reference
    collector's file exporter writes append-only with no layout —
    engine addition). Two passes on the sample-sort contract
    (``sort.sample_range_bounds``): pass 1 picks range cut points for
    ``keys[0]``, pass 2 exchanges each range into ONE task which sorts
    it by ``keys`` and writes ONE parquet file atomically (tmp +
    rename), emitting a manifest row of per-file min/max for every
    ``stats_cols`` column. The driver collects only the P manifest rows
    and commits ``_zonemap.parquet`` LAST (manifest presence = commit
    marker, matching the sink convention). Returns the manifest table.

    Files are disjoint in ``keys[0]`` by construction, so a range
    predicate prunes to the few files whose [min, max] intersect —
    see :func:`read_pruned`. ``bloom_cols`` additionally records a
    per-file Bloom bitmap (``bloom_bits`` bits, k=4, ~2 KB each at the
    default) for POINT lookups on columns the range layout does NOT
    cluster — the Parquet/Iceberg bloom-filter analog: an ``eq=``
    probe at read time skips every file whose filter proves the value
    absent."""
    import os
    import uuid

    from .bucketing import exchange, persisted_factory
    from .sort import assign_range_partition, sample_range_bounds

    keys = [keys] if isinstance(keys, str) else list(keys)
    stats_cols = ([stats_cols] if isinstance(stats_cols, str)
                  else list(stats_cols))
    bloom_cols = ([bloom_cols] if isinstance(bloom_cols, str)
                  else list(bloom_cols or []))
    if bloom_bits < 64 or bloom_bits & (bloom_bits - 1):
        raise ValueError("cluster_write: bloom_bits must be a power "
                         f"of two >= 64, got {bloom_bits}")
    primary = keys[0]
    if primary not in stats_cols:
        stats_cols = [primary] + stats_cols
    make_ds = persisted_factory(make_ds, persist)
    bounds, P = sample_range_bounds(make_ds, primary, num_partitions,
                                    sample_per_block)
    os.makedirs(out_dir, exist_ok=True)
    sort_spec = [(k, "ascending") for k in keys]

    def write_group(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        pid = int(t.column("_zpart")[0].as_py())
        t = t.drop_columns(["_zpart"]).sort_by(sort_spec)
        fname = f"part-{pid:05d}.parquet"
        final = os.path.join(out_dir, fname)
        tmp = final + "." + uuid.uuid4().hex[:8] + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, final)
        row = {"file": [fname],
               "n_rows": pa.array([t.num_rows], pa.int64())}
        for c in stats_cols:
            col = t.column(c)
            row[f"min_{c}"] = pa.array([pc.min(col).as_py()], col.type)
            row[f"max_{c}"] = pa.array([pc.max(col).as_py()], col.type)
        for c in bloom_cols:
            row[f"bloom_{c}"] = pa.array(
                [_bloom_build(t.column(c), bloom_bits)], pa.binary())
        if bloom_cols:
            row["bloom_bits"] = pa.array([bloom_bits], pa.int64())
        return pa.table(row)

    manifest = exchange(make_ds().map_batches(
        lambda t: assign_range_partition(t, primary, bounds, P,
                                         part_col="_zpart"),
        batch_format="pyarrow"), "_zpart", write_group)
    parts = collect(manifest)
    if not parts:
        raise ValueError("cluster_write: input dataset is empty — "
                         "nothing to lay out")
    man_tbl = pa.concat_tables(parts)
    man_tbl = man_tbl.sort_by([("file", "ascending")])
    import pyarrow.parquet as pq

    tmp = os.path.join(out_dir, MANIFEST_NAME + ".tmp")
    pq.write_table(man_tbl, tmp)
    os.replace(tmp, os.path.join(out_dir, MANIFEST_NAME))
    return man_tbl


def read_pruned(out_dir: str, ranges: dict, columns=None,
                eq: dict | None = None):
    """Zone-map-pruned read of a :func:`cluster_write` layout: keep only
    the files whose per-column [min, max] intersects EVERY requested
    ``ranges[col] = (lo, hi)`` band (``None`` bound = unbounded; a file
    with all-null stats can never prove exclusion and is kept), then
    apply the predicate exactly as a residual batch filter — pruning is
    an optimization, never a semantics change. ``eq[col] = value``
    point predicates additionally consult the per-file Bloom filters
    recorded by ``bloom_cols`` (files whose filter proves the value
    absent are skipped; the equality still applies exactly in the
    residual). Returns ``(dataset, report)`` where report =
    {files_total, files_scanned}.

    At 100 TB this is the difference between touching every file and
    touching the handful whose key range overlaps the query."""
    import os

    import pyarrow.parquet as pq

    eq = dict(eq or {})
    man = pq.read_table(os.path.join(out_dir, MANIFEST_NAME))
    keep = np.ones(man.num_rows, bool)
    if eq:
        first = man.column("file")[0].as_py()
        fsch = pq.read_schema(os.path.join(out_dir, first))
        m_bits = (int(man.column("bloom_bits")[0].as_py())
                  if "bloom_bits" in man.column_names else 0)
        for col, v in eq.items():
            # probe with the COLUMN's storage type — the hash is
            # type-sensitive (int32 vs int64 rows hash differently)
            probe = pa.array([v]).cast(fsch.field(col).type)
            name = f"bloom_{col}"
            if name in man.column_names and m_bits:
                blooms = man.column(name).to_pylist()
                hit = np.array([_bloom_maybe_contains(b, probe, m_bits)
                                for b in blooms])
                keep &= hit
    band_preds = dict(ranges)
    for col, v in eq.items():  # an eq probe is also a [v, v] band
        if f"min_{col}" in man.column_names and col not in band_preds:
            band_preds[col] = (v, v)
    for col, (lo, hi) in band_preds.items():
        mn = man.column(f"min_{col}").to_numpy(zero_copy_only=False)
        mx = man.column(f"max_{col}").to_numpy(zero_copy_only=False)
        known = ~(pd_isna(mn) | pd_isna(mx))
        # compare only the known entries: an eager `mx >= lo` over an
        # object-dtype (string/date) stats column would raise on None
        if lo is not None:
            ok = np.zeros(len(keep), bool)
            ok[known] = mx[known] >= lo
            keep &= ~known | ok
        if hi is not None:
            ok = np.zeros(len(keep), bool)
            ok[known] = mn[known] <= hi
            keep &= ~known | ok
    files = [os.path.join(out_dir, f)
             for f in man.filter(pa.array(keep)).column("file").to_pylist()]
    report = {"files_total": man.num_rows, "files_scanned": len(files)}
    if not files:
        first = man.column("file")[0].as_py()
        schema = pq.read_schema(os.path.join(out_dir, first))
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return ray.data.from_arrow(schema.empty_table()), report

    def residual(t: pa.Table) -> pa.Table:
        cond = None
        for col, (lo, hi) in ranges.items():
            if lo is not None:
                c = pc.greater_equal(t.column(col), lo)
                cond = c if cond is None else pc.and_(cond, c)
            if hi is not None:
                c = pc.less_equal(t.column(col), hi)
                cond = c if cond is None else pc.and_(cond, c)
        for col, v in eq.items():
            c = pc.equal(t.column(col), v)
            cond = c if cond is None else pc.and_(cond, c)
        return t.filter(cond) if cond is not None else t

    ds = ray.data.read_parquet(files, columns=columns)
    return ds.map_batches(residual, batch_format="pyarrow"), report


def pd_isna(a: np.ndarray) -> np.ndarray:
    """Elementwise missing-test that works for numeric AND object
    (string/date) stat dtypes."""
    import pandas as pd

    return pd.isna(a)
