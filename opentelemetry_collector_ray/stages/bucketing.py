"""Shared hash-bucket machinery for per-key ordered work (sessionize,
temporal conversion, turn ranking, span parent links, ordered sinks).

The bounded-group pattern: never ``groupby(raw_high_cardinality_key)``
(one Python call per key); group by ``hash(key) % n_buckets`` and
vectorize across all keys inside a bucket. ``n_buckets`` must scale with
DATA SIZE, not be a constant: a bucket is one task that materializes its
whole group, so at 100 TB a fixed 64 buckets would mean ~1.5 TB tasks.
``resolve_n_buckets`` sizes buckets toward ``target_bucket_bytes`` from
parquet input metadata (no execution); callers with a better estimate
pass an explicit count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..functions.hashing import bucket_of

DEFAULT_N_BUCKETS = 64
TARGET_BUCKET_BYTES = 256 << 20  # ~256 MB of input per bucket task


def adaptive_n_buckets(nbytes: int | None,
                       target_bucket_bytes: int = TARGET_BUCKET_BYTES,
                       lo: int = 16, hi: int = 65536) -> int:
    """Bucket count ≈ input bytes / target task size, clamped; falls back
    to the default when size is unknown."""
    if not nbytes:
        return DEFAULT_N_BUCKETS
    return int(min(hi, max(lo, -(-nbytes // target_bucket_bytes))))


def estimate_input_bytes(ds: ray.data.Dataset) -> int | None:
    """Best-effort input size from source-file METADATA only (never
    triggers plan execution — ``size_bytes()`` on a transformed dataset
    would run the whole pipeline)."""
    import os

    try:
        files = ds.input_files()
        return sum(os.path.getsize(f) for f in files) if files else None
    except Exception:
        return None


def resolve_n_buckets(ds: ray.data.Dataset, n_buckets: int | str) -> int:
    if n_buckets == "auto":
        return adaptive_n_buckets(estimate_input_bytes(ds))
    return int(n_buckets)


def with_hash_bucket(ds: ray.data.Dataset, key: str, n_buckets: int,
                     col: str = "_bucket") -> ray.data.Dataset:
    return ds.map_batches(
        lambda t: t.append_column(
            col, pa.array(bucket_of(t.column(key), n_buckets))),
        batch_format="pyarrow")


def bucketed_map_groups(ds: ray.data.Dataset, key: str, fn,
                        n_buckets: int | str = "auto") -> ray.data.Dataset:
    """The bounded-group idiom as one call: hash-bucket by ``key``, one
    ``fn(bucket_table)`` per bucket (the ``_bucket`` column is stripped
    before ``fn`` sees the table). ``fn`` must return a pa.Table."""
    nb = resolve_n_buckets(ds, n_buckets)
    return with_hash_bucket(ds, key, nb).groupby("_bucket").map_groups(
        lambda t: fn(t.drop_columns(["_bucket"])), batch_format="pyarrow")


def key_segments(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a SORTED key array: (boolean key-change mask, per-row segment
    start index). The building block for per-key window ops without
    pandas: cumsum/shift/rank per key become O(n) numpy."""
    n = len(keys)
    change = np.ones(n, dtype=bool)
    if n > 1:
        change[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(change)
    seg_of_row = np.repeat(np.arange(len(starts)), np.diff(
        np.append(starts, n)))
    return change, starts[seg_of_row]


def persisted_factory(make_ds, persist: str = "none"):
    """Wrap a zero-arg dataset factory for TWO-PASS operators
    (ordered_prefix_sum, unigram_mass) so pass 2 does not re-execute an
    arbitrary upstream plan.

    ``persist="none"`` returns the factory unchanged — both passes
    execute the plan, which is free when the factory is a bare parquet
    read but DOUBLES the dominant cost when it is an expensive derived
    pipeline. ``persist="memory"`` executes the plan ONCE into the
    object store (``materialize()`` — spills to disk under pressure) and
    hands both passes the same materialized blocks; any other string is
    treated as a directory path: the plan is written there as parquet
    once and both passes re-READ it (the resumable choice at 100 TB —
    object-store memory is not held across the whole job)."""
    if persist == "none":
        return make_ds
    if persist == "memory":
        mat = make_ds().materialize()
        return lambda: mat
    path = persist
    make_ds().write_parquet(path)
    return lambda: ray.data.read_parquet(path)


def multi_key_change(t, cols):
    """Row-change mask over a table SORTED by ``cols`` (first row True)
    — the multi-column sibling of :func:`key_segments`, shared by the
    OHLC / count-distinct / l-diversity bucket passes. Raises on null
    and float NaN key cells: numpy converts null numerics to NaN and
    ``NaN != NaN`` would silently start a new group per such row, unlike
    SQL GROUP BY (and unlike Arrow group_by) which collapse them into one
    group."""
    import pyarrow as pa  # noqa: F401  (kept local: cheap, avoids cycle)

    n = t.num_rows
    mask = np.zeros(n, dtype=bool)
    if n:
        mask[0] = True
    for k in cols:
        col = t.column(k)
        if col.null_count:
            raise ValueError(
                f"multi_key_change: key column {k!r} has nulls — SQL "
                "groups nulls together, the vectorized mask would "
                "not; fill or drop them upstream")
        a = col.to_numpy(zero_copy_only=False)
        if a.dtype.kind == "f" and np.isnan(a).any():
            raise ValueError(
                f"multi_key_change: key column {k!r} has NaN — SQL and "
                "Arrow group NaNs together, NaN != NaN would not; fill "
                "or drop them upstream")
        if n > 1:
            mask[1:] |= a[1:] != a[:-1]
    return mask
