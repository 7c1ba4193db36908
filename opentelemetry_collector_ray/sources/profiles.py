"""Profiles signal: the pprofile analog — dictionary-encoded samples.

The reference's profile model is DICTIONARY-encoded: samples reference
indices into shared string/function/location tables
(``/root/reference/pdata/pprofile/dictionary_helpers.go``). The Ray
translation keeps exactly that shape:

- a **function table** (func_id, name): the distinct frame names, sorted,
  densely numbered — built by a distributed distinct + tiny driver sort
  (the table is small by construction, like pprofile's string table);
- a **samples table** (event_id, f0_id, f1_id, f2_id, value_us): one
  sample per event, the 3-frame stack stored as function-table INDICES
  (encoded by a broadcast-dict actor stage — ``ray.put`` once, read once
  per actor), value = duration µs.

Derivation from ``events`` (deterministic, SQL-mirrorable — frames reuse
the span SERVICE_MAP):

    frame0 = 'proc::' || service        (root: the process/service)
    frame1 = 'op::' || event_type       (the operation)
    frame2 = 'status::' || ok|err       (leaf)
    value_us = floor(value * 1000)

Flame-graph views: ``top_functions`` (per-name total/self µs — self only
at the leaf), ``flame_edges`` (parent→child totals).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

FRAME_COLS = ("frame0", "frame1", "frame2")


def _event_frames(batch: pa.Table) -> pa.Table:
    from .spans import service_of

    et = batch.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    is_err = pc.equal(et, "error")
    service = service_of(et)  # shared with the span derivation
    val = batch.column("value").to_numpy(zero_copy_only=False)
    return pa.table({
        "event_id": batch.column("event_id"),
        "frame0": pc.binary_join_element_wise("proc::", service, ""),
        "frame1": pc.binary_join_element_wise("op::", et, ""),
        "frame2": pc.if_else(is_err, "status::err", "status::ok"),
        "value_us": pa.array(np.floor(val * 1000).astype(np.int64)),
    })


def derive_profile_frames(events: ray.data.Dataset) -> ray.data.Dataset:
    return events.map_batches(_event_frames, batch_format="pyarrow")


def _distinct_names(frames: ray.data.Dataset) -> ray.data.Dataset:
    """Distributed distinct over all three frame columns (reduces per
    batch BEFORE the exchange; only unique names move)."""
    from ..stages.aggregate import grouped_count

    def names(t: pa.Table) -> pa.Table:
        arrs = [t.column(c).cast(pa.string()) for c in FRAME_COLS]
        flat = pa.concat_arrays([a.combine_chunks() if
                                 isinstance(a, pa.ChunkedArray) else a
                                 for a in arrs])
        return pa.table({"name": pc.unique(flat)})

    return grouped_count(frames.map_batches(names, batch_format="pyarrow"),
                         ["name"]).select_columns(["name"])


def build_function_table(frames: ray.data.Dataset,
                         max_names: int = 2_000_000) -> pa.Table:
    """Dictionary build: distributed distinct over all three frame columns
    → tiny sorted table (func_id = dense 0-based rank by name), pprofile
    string-table semantics: small by construction.

    BOUNDED-VOCABULARY CONTRACT: the distinct name table materializes on
    the driver (dense ranks need a global order), so the vocabulary must
    be bounded — ``max_names`` guards it (checked distributed, via
    ``count()`` on the materialized distinct, BEFORE anything reaches the
    driver). Above the cap use ``hashed_function_table`` /
    ``encode_samples_hashed``: func_id becomes a 64-bit content hash of
    the name — stable without global coordination, the exact-dedup
    identity trick applied to dictionary ids."""
    uniq_ds = _distinct_names(frames).materialize()
    n = uniq_ds.count()
    if n > max_names:
        raise ValueError(
            f"build_function_table: {n} distinct frame names exceed "
            f"max_names={max_names}; dense driver-side numbering does not "
            "hold — use hashed_function_table/encode_samples_hashed "
            "(hash-based func_ids, no driver materialization)")
    uniq = uniq_ds.to_pandas()
    if n == 0 or "name" not in uniq.columns:
        # Ray drops the schema of a 0-row dataset: guard before sort_values
        return pa.table({"func_id": pa.array([], pa.int64()),
                         "name": pa.array([], pa.string())})
    uniq = uniq.sort_values("name").reset_index(drop=True)
    return pa.table({"func_id": pa.array(np.arange(len(uniq), dtype=np.int64)),
                     "name": pa.array(uniq["name"], pa.string())})


def hashed_function_table(frames: ray.data.Dataset) -> ray.data.Dataset:
    """Unbounded-vocabulary dictionary: (func_id, name) with func_id =
    64-bit content hash of the name. Fully distributed (never touches the
    driver); ids are stable across runs/partitions by construction.
    Collision odds for a vocabulary of n names ≈ n²/2^65 (~3e-7 at
    n=10^6)."""
    from ..functions.hashing import hash64

    def add_id(t: pa.Table) -> pa.Table:
        col = t.column("name")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.table({
            "func_id": pa.array(hash64(col).astype(np.int64)),
            "name": col})

    return _distinct_names(frames).map_batches(add_id, batch_format="pyarrow")


def encode_samples_hashed(frames: ray.data.Dataset) -> ray.data.Dataset:
    """Dictionary-encode samples with HASH func_ids (the over-cap path):
    no broadcast table, no driver state — each batch hashes its own frame
    names; ids agree with ``hashed_function_table`` by construction."""
    from ..functions.hashing import hash64

    def enc(t: pa.Table) -> pa.Table:
        def hid(c):
            col = t.column(c)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            return pa.array(hash64(col.cast(pa.string())).astype(np.int64))

        return pa.table({"event_id": t.column("event_id"),
                         "f0_id": hid("frame0"), "f1_id": hid("frame1"),
                         "f2_id": hid("frame2"),
                         "value_us": t.column("value_us")})

    return frames.map_batches(enc, batch_format="pyarrow")


class EncodeSamplesStage:
    """Broadcast-dict encode: frame names → function-table indices (the
    dictionary reference step; dict fetched once per actor)."""

    def __init__(self, table_ref=None, table: pa.Table | None = None):
        if table is None:
            import ray

            table = ray.get(table_ref)
        lut = dict(zip(table.column("name").to_pylist(),
                       table.column("func_id").to_pylist()))
        # sorted lookup sides built ONCE per actor (searchsorted encode)
        self._keys = np.array(sorted(lut), dtype=object)
        self._vals = np.array([lut[k] for k in self._keys], dtype=np.int64)

    def _encode(self, col) -> pa.Array:
        names = col.to_numpy(zero_copy_only=False)
        idx = np.searchsorted(self._keys, names)
        clipped = np.minimum(idx, len(self._keys) - 1)
        missing = self._keys[clipped] != names
        if missing.any():
            raise KeyError(
                "frame names absent from the function table (stale "
                f"dictionary?): {sorted(set(names[missing]))[:5]}")
        return pa.array(self._vals[clipped])

    def __call__(self, t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "f0_id": self._encode(t.column("frame0").combine_chunks()
                                  if isinstance(t.column("frame0"),
                                                pa.ChunkedArray)
                                  else t.column("frame0")),
            "f1_id": self._encode(t.column("frame1").combine_chunks()
                                  if isinstance(t.column("frame1"),
                                                pa.ChunkedArray)
                                  else t.column("frame1")),
            "f2_id": self._encode(t.column("frame2").combine_chunks()
                                  if isinstance(t.column("frame2"),
                                                pa.ChunkedArray)
                                  else t.column("frame2")),
            "value_us": t.column("value_us"),
        })


def encode_samples(frames: ray.data.Dataset,
                   function_table: pa.Table) -> ray.data.Dataset:
    import ray

    ref = ray.put(function_table)
    return frames.map_batches(
        EncodeSamplesStage, fn_constructor_kwargs={"table_ref": ref},
        batch_format="pyarrow", concurrency=(1, 8))


def top_functions(frames: ray.data.Dataset) -> ray.data.Dataset:
    """Flat flame view per function name: total µs (function anywhere in
    the stack), self µs (function at the leaf), sample count — two-phase
    tree aggregate over the exploded frames."""
    from ..stages.aggregate import grouped_count

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        names = pa.concat_arrays([
            (t.column(c).combine_chunks()
             if isinstance(t.column(c), pa.ChunkedArray)
             else t.column(c)).cast(pa.string())
            for c in FRAME_COLS])
        val = t.column("value_us").to_numpy(zero_copy_only=False)
        vals = np.tile(val, 3)
        is_leaf = np.zeros(3 * n, np.int64)
        is_leaf[2 * n:] = 1
        return pa.table({"name": names,
                         "value_us": pa.array(vals),
                         "self_us": pa.array(vals * is_leaf)})

    exploded = frames.map_batches(explode, batch_format="pyarrow")
    return grouped_count(exploded, ["name"], count_name="n_samples",
                         sum_cols={"total_us": "value_us",
                                   "self_us": "self_us"})


def flame_edges(frames: ray.data.Dataset) -> ray.data.Dataset:
    """Parent→child edge totals of the flame graph (two edges per
    sample)."""
    from ..stages.aggregate import grouped_count

    def explode(t: pa.Table) -> pa.Table:
        def col(c):
            a = t.column(c)
            return (a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                    else a).cast(pa.string())

        parent = pa.concat_arrays([col("frame0"), col("frame1")])
        child = pa.concat_arrays([col("frame1"), col("frame2")])
        val = t.column("value_us").to_numpy(zero_copy_only=False)
        return pa.table({"parent": parent, "child": child,
                         "value_us": pa.array(np.tile(val, 2))})

    exploded = frames.map_batches(explode, batch_format="pyarrow")
    return grouped_count(exploded, ["parent", "child"], count_name="n",
                         sum_cols={"total_us": "value_us"})


# SQL mirror used by oracle_sql() entries (DuckDB; `events` is a view).
FRAMES_CTE = """
frames AS (
  SELECT event_id,
    'proc::' || CASE event_type WHEN 'signup' THEN 'auth'
                WHEN 'purchase' THEN 'checkout' WHEN 'error' THEN 'backend'
                ELSE 'frontend' END AS frame0,
    'op::' || event_type AS frame1,
    CASE WHEN event_type = 'error' THEN 'status::err'
         ELSE 'status::ok' END AS frame2,
    CAST(floor(value * 1000) AS BIGINT) AS value_us
  FROM events
),
fnames AS (
  SELECT DISTINCT name FROM (
    SELECT frame0 AS name FROM frames
    UNION ALL SELECT frame1 FROM frames
    UNION ALL SELECT frame2 FROM frames)
),
ftab AS (
  SELECT name,
         CAST(row_number() OVER (ORDER BY name) - 1 AS BIGINT) AS func_id
  FROM fnames
)
"""
