"""Categorical feature encoding — the preprocessing step between a
curated corpus and a trainer.

``label_encode`` maps a string/categorical column onto DENSE integer
ids. ``order="frequency"`` assigns id 0 to the most frequent value
(count DESC, value ASC tie-break) — the embedding-table layout that
puts hot rows first; ``order="lexical"`` sorts values. Exactly the SQL
``row_number() OVER (ORDER BY count(*) DESC, v) - 1`` mapping, so the
ids sit behind the DuckDB hash gate.

Scale shape: one bucket grouped count reduces the corpus to its
distinct values (per-batch partials — unbounded keys safe), a loud
``max_categories`` count-before-pull guards the broadcast, the mapping
ships via ``ray.put`` once, and the encode pass is one ``pc.index_in``
per batch. Nulls encode to null (SQL join convention).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .aggregate import grouped_count
from .bucketing import persisted_factory

__all__ = ["label_encode", "feature_hash", "target_encode"]


def label_encode(make_ds, col: str, out_col: str | None = None,
                 order: str = "frequency",
                 max_categories: int = 10_000_000,
                 persist: str = "none") -> ray.data.Dataset:
    """Append ``out_col`` (default ``{col}_id``): the dense id of each
    row's ``col`` value. Two passes over ``make_ds`` (the repo's
    two-pass factory contract; ``persist=`` forwards)."""
    if order not in ("frequency", "lexical"):
        raise ValueError(f"label_encode: order must be 'frequency' or "
                         f"'lexical', got {order!r}")
    out_col = out_col or f"{col}_id"
    f = persisted_factory(make_ds, persist)

    def drop_nulls(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column(col)))

    counts = grouped_count(
        f().select_columns([col]).map_batches(drop_nulls,
                                              batch_format="pyarrow"),
        [col], count_name="_n").materialize()
    n_cat = counts.count()
    if n_cat > int(max_categories):
        raise ValueError(
            f"label_encode: {col!r} has {n_cat:,} categories "
            f"(> max_categories={int(max_categories):,}); the "
            "broadcast mapping would not fit a worker — hash-bucket "
            "the encode as a join instead")
    pdf = counts.to_pandas()
    if order == "frequency":
        pdf = pdf.sort_values(["_n", col],
                              ascending=[False, True],
                              kind="mergesort")
    else:
        pdf = pdf.sort_values(col, kind="mergesort")
    keys_ref = ray.put(pa.array(pdf[col]))

    def encode(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t.column(col), ray.get(keys_ref))
        return t.append_column(out_col, idx.cast(pa.int64()))

    return f().map_batches(encode, batch_format="pyarrow")


def feature_hash(ds: ray.data.Dataset, id_col: str, text_col: str,
                 n_buckets: int = 64,
                 hash_mode: str = "xx64") -> ray.data.Dataset:
    """The hashing-trick vectorizer: tokenize ``text_col`` on single
    spaces, hash each token into ``[0, n_buckets)`` and emit each
    document's sparse COO feature vector as ``(id_col, bucket, n)``
    rows — fixed-width features with NO vocabulary pass or broadcast
    (Weinberger et al. 2009), the scalable counterpart of
    :func:`label_encode` when the category space is unbounded.

    Embarrassingly parallel: a document never spans batches, so counts
    reduce fully inside ``map_batches`` — zero shuffles at any scale.

    ``hash_mode="xx64"`` uses the fast partitioning hash
    (``hashing.hash64``). ``hash_mode="md5"`` buckets by the first 6
    md5 hex digits of the token, matching the DuckDB expression
    ``('0x' || substr(md5(tok), 1, 6))::UBIGINT % n_buckets``
    bit-for-bit — the oracle-gate mode (same convention as
    ``sampling``'s md5 rank mode).
    """
    if hash_mode not in ("xx64", "md5"):
        raise ValueError(f"feature_hash: unknown hash_mode {hash_mode!r}")
    nb = int(n_buckets)
    if nb < 1:
        raise ValueError(f"feature_hash: n_buckets must be >= 1, got {nb}")

    def vectorize(t: pa.Table) -> pa.Table:
        ids_col = t.column(id_col)
        if ids_col.null_count:
            raise ValueError(f"feature_hash: {id_col!r} has nulls")
        toks = pc.split_pattern(t.column(text_col), " ")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        nonempty = pc.not_equal(flat, "")  # SQL split keeps '' runs
        flat = flat.filter(nonempty)
        parent = parent.filter(nonempty)
        if hash_mode == "md5":
            from ..functions.text import md5_hex

            b = np.fromiter(
                (int(h[:6], 16) for h in md5_hex(flat).to_pylist()),
                np.int64, count=len(flat)) % nb
        else:
            from ..functions.hashing import hash64

            b = (hash64(flat) % np.uint64(nb)).astype(np.int64)
        ids = ids_col.take(parent).to_numpy(zero_copy_only=False) \
            .astype(np.int64)  # int32 ids would wrap in the packing
        if len(ids):
            lo, hi = int(ids.min()), int(ids.max())
            if lo < 0 or hi > (2**62) // nb:
                raise ValueError(
                    "feature_hash: id out of range for the packed "
                    f"(id, bucket) key — got [{lo}, {hi}] with "
                    f"n_buckets={nb}")
        packed = ids * nb + b
        uniq, counts = np.unique(packed, return_counts=True)
        return pa.table({
            id_col: pa.array(uniq // nb, pa.int64()),
            "bucket": pa.array(uniq % nb, pa.int64()),
            "n": pa.array(counts, pa.int64()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        vectorize, batch_format="pyarrow")


def target_encode(ds: ray.data.Dataset, cat_col: str, target_col: str,
                  smoothing_m: int = 20,
                  out_name: str = "enc") -> ray.data.Dataset:
    """Smoothed target encoding for a BOUNDED categorical: each
    category's blended mean of an INTEGER target,
    ``enc = (s + m·G) / (n + m)`` with ``G`` the global mean — the
    leakage-robust categorical feature (micci-barreca 2001), kept
    EXACT by evaluating the blend as one integer floor division
    ``(s·gn + m·gs) // ((n + m)·gn)`` (``gs/gn`` = global sum/count),
    so it sits behind the DuckDB hash gate (``//`` truncation equals
    floor here: every term is non-negative).

    One two-phase grouped aggregate (input scanned once); the blend
    runs on the driver over the BOUNDED per-category parts in exact
    Python ints with a loud int64 guard on the emitted columns.
    Returns ``(cat_col, n, s, out_name)`` rows.
    """
    from .aggregate import grouped_agg

    m = int(smoothing_m)
    if m < 0:
        raise ValueError(f"target_encode: smoothing_m must be >= 0, got {m}")
    parts = grouped_agg(
        ds.select_columns([cat_col, target_col]), [cat_col],
        count_name="n", sum_cols={"s": target_col}).materialize()
    pdf = parts.to_pandas()
    # Ray's to_pandas drops ALL columns on a fully-empty dataset
    empty_in = len(pdf) == 0 or "n" not in pdf.columns
    gn = 0 if empty_in else int(pdf["n"].sum())
    gs = 0 if empty_in else int(pdf["s"].sum())
    if gn == 0:
        # keep the category column's REAL type on the empty path — the
        # aggregate's empty exchange loses its schema, so read it off
        # the INPUT dataset (known without execution for materialized
        # sources); string as the last resort
        cat_type = pa.string()
        sch = ds.schema(fetch_if_missing=True)  # input is empty: the
        # probe re-executes a plan that produced zero rows — cheap
        if sch is not None and cat_col in sch.names:
            cat_type = dict(zip(sch.names, sch.types))[cat_col]
        empty = pa.schema([pa.field(cat_col, cat_type),
                           ("n", pa.int64()), ("s", pa.int64()),
                           (out_name, pa.int64())]).empty_table()
        return ray.data.from_arrow(empty)
    if int(pdf["s"].min()) < 0:
        raise ValueError(
            "target_encode: negative target sums — Python // floors "
            "while SQL // truncates toward zero; offset the target to "
            "non-negative first")
    enc = []
    for n_i, s_i in zip(pdf["n"].astype(object), pdf["s"].astype(object)):
        num = int(s_i) * gn + m * gs  # exact Python ints — no wrap
        den = (int(n_i) + m) * gn
        enc.append(num // den)
    if enc and max(abs(v) for v in enc) >= 2**63:
        raise ValueError("target_encode: encoded value exceeds int64 — "
                         "scale the target down first")
    out = pa.table({cat_col: pa.array(pdf[cat_col]),
                    "n": pa.array(pdf["n"], pa.int64()),
                    "s": pa.array(pdf["s"], pa.int64()),
                    out_name: pa.array(enc, pa.int64())})
    return ray.data.from_arrow(out)
