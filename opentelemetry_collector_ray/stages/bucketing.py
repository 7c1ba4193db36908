"""The one keyed exchange: every Ray ``groupby`` in the package is in
this module. Two calls:

- :func:`bucketed_map_groups` — hash-bucket by a key (one column or a
  list of them), then one ``fn(bucket_table)`` per bucket. Per-key
  ordered work (sessionize, temporal conversion, turn ranking, span
  parent links, joins, ordered sinks) goes through it.
- :func:`exchange` — one ``fn`` call per value of a partition column the
  caller assigned itself (a range partition, a salted join sub-bucket,
  an index shard, a k-means cluster).

Nothing else groups: keyed reduces go through
``aggregate.grouped_agg``/``grouped_count``, and a no-Ray lint
(``tests/test_run_once.py``) fails on any other ``map_groups`` or Ray
``groupby(...)`` aggregate. A per-bucket row cap or a hot-key split
therefore goes in one place.

The bounded-group pattern: never ``groupby(raw_high_cardinality_key)``
(one Python call per key); group by ``hash(key) % n_buckets`` and
vectorize across all keys inside a bucket. ``n_buckets`` must scale with
DATA SIZE, not be a constant: a bucket is one task that materializes its
whole group, so at 100 TB a fixed 64 buckets would mean ~1.5 TB tasks.

One size measurement serves every choice: :func:`estimate_input_bytes`
sums the in-memory size its sources report (read, ``from_arrow``,
materialized blocks), without running the plan, and only through
operators that never emit more rows than they take in (projections,
filters, sorts, repartitions, unions, and maps whose UDF is marked with
:func:`adds_no_rows`); a join, a ``flat_map``, an exchange or an
unmarked map makes it unknown. ``resolve_n_buckets("auto")`` sizes
buckets toward ``TARGET_BUCKET_BYTES`` from it (64 when unknown), and
:func:`fits_one_task` is the size rule of every keyed reduce: an input
measured at most ``TARGET_BUCKET_BYTES`` (one bucket task's worth)
merges its partials in ONE task, a larger or unmeasured one through
the bucket exchange. Callers with a
better estimate pass an explicit bucket count; none chooses the path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

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


def adds_no_rows(fn):
    """Mark a map UDF (function, lambda or class) as never returning
    more rows than it is given, so :func:`estimate_input_bytes` looks
    through the map. Returns ``fn``."""
    fn.adds_no_rows = True
    return fn


# Ray logical operators that never emit more rows than they take in
_ROW_BOUNDED_OPS = frozenset({
    "Project", "Filter", "Limit", "MapRows", "Sort", "Repartition",
    "RandomShuffle", "RandomizeBlocks", "StreamingRepartition", "Union"})


def _source_bytes(op, memo: dict) -> int | None:
    if id(op) not in memo:
        deps = op.input_dependencies
        if not deps:
            size = op.infer_metadata().size_bytes
        elif type(op).__name__ in _ROW_BOUNDED_OPS or (
                type(op).__name__ == "MapBatches"
                and getattr(op._fn, "adds_no_rows", False)):
            sizes = [_source_bytes(d, memo) for d in deps]
            size = None if None in sizes else sum(sizes)
        else:
            size = None
        memo[id(op)] = size
    return memo[id(op)]


def estimate_input_bytes(ds: ray.data.Dataset) -> int | None:
    """In-memory bytes of the sources under ``ds``'s plan, from their
    metadata only: the walk never runs the plan (``size_bytes()`` on a
    transformed dataset would run all of it). Each source (a read,
    ``from_arrow``, the blocks of a materialized dataset) adds its
    ``infer_metadata().size_bytes`` once per path to ``ds``, so a
    self-union counts it twice. ``None`` when a source's size is unknown
    or an operator on the way may add rows (see the module docstring):
    the sum then bounds nothing. Also ``None`` when Ray's logical plan
    no longer has the shape read here."""
    try:
        return _source_bytes(ds._logical_plan.dag, {})
    except (AttributeError, NotImplementedError, RecursionError):
        return None


def fits_one_task(ds: ray.data.Dataset) -> bool:
    """The size rule of every keyed reduce: its partials fit ONE merge
    task when the input is measured at most ``TARGET_BUCKET_BYTES`` (every
    operator on the way is row-bounded, so the partials hold no more
    rows than the sources); otherwise, or when unmeasured, they go
    through the bucket exchange. The bound is a memory choice: with
    unique int64 keys (the worst case) one merge task over 256 MiB of
    input peaked at 2.4 GB RSS, about what a bucket task peaks at over
    512 MiB (2.3 GB); on 1 CPU the one task was also the faster path
    at 64, 256 and 512 MiB (2.2 / 7.8 / 15.7 s against 3.6 / 17.2 /
    23.4 s)."""
    nbytes = estimate_input_bytes(ds)
    return nbytes is not None and nbytes <= TARGET_BUCKET_BYTES


def resolve_n_buckets(ds: ray.data.Dataset, n_buckets: int | str) -> int:
    if n_buckets == "auto":
        return adaptive_n_buckets(estimate_input_bytes(ds))
    return int(n_buckets)


_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)


def _composite_hash(t: pa.Table, keys: list[str]) -> np.ndarray:
    """uint64 hash of a (possibly composite) key: per-column ``hash64``
    combined with multiply-xor mixing."""
    # imported here: the hash kernel loads polars, which a plan that only
    # measures its input (every aggregate asks for its size) never needs
    from ..functions.hashing import hash64

    h = None
    with np.errstate(over="ignore"):
        for k in keys:
            hk = hash64(t.column(k))
            h = hk if h is None else (h * _HASH_MIX) ^ hk
    return h


def _composite_bucket(t: pa.Table, keys: list[str], nb: int) -> np.ndarray:
    """Deterministic bucket of a (possibly composite) key. Single-key
    reduces to ``bucket_of`` exactly (same hash, same modulus)."""
    return (_composite_hash(t, keys) % np.uint64(nb)).astype(np.int64)


def exchange(ds: ray.data.Dataset, part_col: str, fn) -> ray.data.Dataset:
    """One ``fn(table)`` call per distinct value of ``part_col``, a
    partition number the caller assigned. ``part_col`` stays in the
    table ``fn`` sees. ``fn`` must return a pa.Table."""
    return ds.groupby(part_col).map_groups(fn, batch_format="pyarrow")


def bucketed_map_groups(ds: ray.data.Dataset, key: str | list[str], fn,
                        n_buckets: int | str = "auto") -> ray.data.Dataset:
    """The bounded-group idiom as one call: hash-bucket by ``key`` (one
    column, or a list hashed together), one ``fn(bucket_table)`` per
    bucket (the ``_bucket`` column is stripped before ``fn`` sees the
    table). ``fn`` must return a pa.Table."""
    nb = resolve_n_buckets(ds, n_buckets)
    keys = [key] if isinstance(key, str) else list(key)
    tagged = ds.map_batches(
        lambda t: t.append_column(
            "_bucket", pa.array(_composite_bucket(t, keys, nb))),
        batch_format="pyarrow")
    return exchange(tagged, "_bucket",
                    lambda t: fn(t.drop_columns(["_bucket"])))


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
    OHLC / l-diversity bucket passes. Raises on null
    and float NaN key cells: numpy converts null numerics to NaN and
    ``NaN != NaN`` would silently start a new group per such row, unlike
    SQL GROUP BY (and unlike Arrow group_by) which collapse them into one
    group."""
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
