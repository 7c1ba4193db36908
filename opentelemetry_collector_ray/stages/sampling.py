"""Distributed uniform k-sample — bottom-k by deterministic hash.

Reservoir sampling's batch-native replacement: rank every row by a
deterministic hash of its id and keep the global k smallest. Uniform
over rows (a hash is a uniform permutation), REPRODUCIBLE across runs
and cluster layouts (no RNG state), and mergeable: each block emits its
local bottom-k candidates (k·B candidate rows total — the only data
that ever leaves the blocks), the driver keeps the global bottom-k.
The same idea scales hierarchically (tree-merge partials) when k·B
outgrows the driver; the candidate table here is loudly capped.

``hash_mode="xx64"`` (default) ranks by the vectorized stable
``hashing.hash64``. ``hash_mode="md5"`` ranks by the md5 hex of the
id's decimal string — the documented Python-per-row ORACLE helper
(``functions/text.md5_hex``), matching SQL ``ORDER BY
md5(CAST(id AS VARCHAR)) LIMIT k`` bit-for-bit; use it for
cross-engine-reproducible samples, not hot paths.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .treereduce import collect

MAX_CANDIDATES = 2_000_000  # k × blocks candidate-row bound

def _collect_bottom_k(ds: ray.data.Dataset, k: int, id_col: str,
                      add_rank, rk_type, keep_rank: bool
                      ) -> ray.data.Dataset:
    """Shared mergeable bottom-k: each block appends a ``_rk`` rank via
    ``add_rank(table) -> pa.Array`` and keeps its local k smallest; the
    candidates run once into the object store, their row count (block
    metadata) is checked against MAX_CANDIDATES before the driver pulls
    any of them, and the driver keeps the global k. Both samplers ride
    this one implementation."""
    if k <= 0:
        raise ValueError("sample: k must be positive")

    def local_bottom(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("_rk", pa.array([], rk_type))
        t = t.append_column("_rk", add_rank(t))
        if t.num_rows > k:
            t = t.sort_by([("_rk", "ascending"),
                           (id_col, "ascending")]).slice(0, k)
        return t

    mat = ds.map_batches(local_bottom, batch_size=None,
                         batch_format="pyarrow").materialize()
    if mat.count() > MAX_CANDIDATES:
        raise ValueError(
            f"sample: candidate rows exceed {MAX_CANDIDATES} "
            "(k x blocks too large); lower k or tree-merge partials")
    cand = collect(mat)
    if not cand:
        # empty input only: the probe, if the candidates carry no
        # schema, runs an input that yielded no row
        sch = mat.schema(fetch_if_missing=False) or ds.schema()
        fields = list(zip(sch.names, sch.types)) if sch and sch.names \
            else []
        fields = [f for f in fields if f[0] != "_rk"]
        cols = {nm: pa.array([], tp) for nm, tp in fields}
        if keep_rank:
            cols["_rk"] = pa.array([], rk_type)
        return ray.data.from_arrow(pa.table(cols))
    out = pa.concat_tables(cand).sort_by(
        [("_rk", "ascending"), (id_col, "ascending")]).slice(0, k)
    if not keep_rank:
        out = out.drop_columns(["_rk"])
    return ray.data.from_arrow(out)



def sample_bottom_k(ds: ray.data.Dataset, k: int, id_col: str,
                    hash_mode: str = "xx64",
                    keep_rank: bool = False) -> ray.data.Dataset:
    """Uniform deterministic k-sample: the k rows with the smallest
    hash(id), ties broken by id. Returns the sampled rows (plus the
    hex/int rank column when ``keep_rank``)."""
    if hash_mode not in ("xx64", "md5"):
        raise ValueError(f"sample_bottom_k: bad hash_mode {hash_mode!r}")
    rk_type = pa.string() if hash_mode == "md5" else pa.uint64()
    return _collect_bottom_k(
        ds, k, id_col,
        lambda t: _rank_col(t.column(id_col), hash_mode)[0],
        rk_type, keep_rank)


def _rank_col(ids: pa.ChunkedArray, hash_mode: str):
    if hash_mode == "md5":
        from ..functions.text import md5_hex

        return md5_hex(ids.cast(pa.string())), pa.string()
    from ..functions.hashing import hash64

    return pa.array(hash64(ids)), pa.uint64()


def sample_weighted_k(ds: ray.data.Dataset, k: int, id_col: str,
                      weight_col: str, hash_mode: str = "xx64",
                      keep_rank: bool = False) -> ray.data.Dataset:
    """Weighted k-sample WITHOUT replacement, deterministic — the
    Efraimidis–Spirakis exponential race: row i gets rank
    ``-ln(u_i) / w_i`` with ``u_i`` a uniform derived from the hash of
    its id, and the global bottom-k by rank is exactly a weighted
    sample without replacement (row i wins a slot with probability
    proportional to ``w_i`` among the remaining rows). Rides the same
    mergeable ``_collect_bottom_k`` machinery as the uniform sampler.

    ``hash_mode="xx64"``: vectorized hash64 → numpy log (production).
    ``hash_mode="md5"``: u = (first 12 md5 hex digits + 0.5) / 2^48 and
    ``math.log`` per row — the documented oracle mode whose rank equals
    the DuckDB expression ``-ln((('0x' || substr(md5(CAST(id AS
    VARCHAR)), 1, 12))::UBIGINT + 0.5) / 281474976710656.0) / w``
    computed by the SAME libm, so ``ORDER BY rank, id LIMIT k``
    cross-checks exactly. Weights must be > 0 (validated loudly)."""
    if hash_mode not in ("xx64", "md5"):
        raise ValueError(
            f"sample_weighted_k: bad hash_mode {hash_mode!r}")

    def rank_of(t: pa.Table) -> pa.Array:
        w = t.column(weight_col).to_numpy(zero_copy_only=False)
        if len(w) and not (np.asarray(w, np.float64) > 0).all():
            raise ValueError(
                f"sample_weighted_k: {weight_col!r} must be > 0")
        if hash_mode == "md5":
            import math

            from ..functions.text import md5_hex

            hx = md5_hex(t.column(id_col).cast(pa.string()))
            u = np.array([(int(h[:12], 16) + 0.5) / 281474976710656.0
                          for h in hx.to_pylist()], np.float64)
            ln = np.array([math.log(x) for x in u], np.float64)
        else:
            from ..functions.hashing import hash64

            h = hash64(t.column(id_col).cast(pa.string()))
            u = (h.astype(np.float64) + 0.5) / 18446744073709551616.0
            ln = np.log(u)
        return pa.array(-ln / np.asarray(w, np.float64), pa.float64())

    return _collect_bottom_k(ds, k, id_col, rank_of, pa.float64(),
                             keep_rank)


def _bottom_k_per_group(t: pa.Table, by: str, id_col: str,
                        k: int) -> pa.Table:
    """First k rows per ``by`` group of a table carrying a ``_rk`` rank
    column — one sort + segment-offset filter, no Python per group."""
    from .bucketing import key_segments

    t = t.sort_by([(by, "ascending"), ("_rk", "ascending"),
                   (id_col, "ascending")])
    keys = t.column(by).to_numpy(zero_copy_only=False)
    _, seg_start = key_segments(keys)
    return t.filter(pa.array(np.arange(len(keys)) - seg_start < k))


def sample_bottom_k_by(ds: ray.data.Dataset, k: int, id_col: str,
                       by: str, hash_mode: str = "xx64",
                       keep_rank: bool = False,
                       n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Per-GROUP deterministic k-sample — the balanced-corpus variant
    of :func:`sample_bottom_k`: for every distinct ``by`` value, keep
    the k rows with the smallest hash(id). Deterministic across runs
    and block layouts; groups may be unbounded (no driver state).

    Scale shape: each block first reduces itself to ≤ k rows per group
    it contains (one sort + segment filter), then ONE bucket exchange
    on ``by`` co-locates each group and the same segment filter picks
    the final k — the exchange carries at most k × blocks rows per
    group, never the raw corpus. ``hash_mode="md5"`` matches SQL
    ``row_number() OVER (PARTITION BY by ORDER BY
    md5(CAST(id AS VARCHAR)), id) <= k`` bit-for-bit."""
    from .bucketing import bucketed_map_groups

    if k <= 0:
        raise ValueError("sample_bottom_k_by: k must be positive")
    if hash_mode not in ("xx64", "md5"):
        raise ValueError(
            f"sample_bottom_k_by: bad hash_mode {hash_mode!r}")
    if by == "_rk" or id_col == "_rk":
        raise ValueError("sample_bottom_k_by: '_rk' is reserved")
    rk_type = pa.string() if hash_mode == "md5" else pa.uint64()

    def local(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("_rk", pa.array([], rk_type))
        rk, _ = _rank_col(t.column(id_col), hash_mode)
        return _bottom_k_per_group(t.append_column("_rk", rk),
                                   by, id_col, k)

    partial = ds.map_batches(local, batch_format="pyarrow")
    out = bucketed_map_groups(
        partial, by, lambda t: _bottom_k_per_group(t, by, id_col, k),
        n_buckets=n_buckets)
    if keep_rank:
        return out
    return out.map_batches(lambda t: t.drop_columns(["_rk"]),
                           batch_format="pyarrow")


def assign_split(ds: ray.data.Dataset, key: str,
                 fractions: dict[str, float], hash_mode: str = "xx64",
                 seed: int = 0, out_col: str = "split",
                 ) -> ray.data.Dataset:
    """Group-aware deterministic train/val/test split: every row whose
    ``key`` hashes into the same bucket gets the same label, so a GROUP
    (user, document cluster, conversation) never straddles splits — the
    leakage-safe way to split training data.

    Buckets are ``hash(key) % 1_000_000`` compared against cumulative
    fraction thresholds (exact integer arithmetic; fractions must sum to
    1 within 1e-9 — micro-fraction resolution). ``hash_mode="xx64"`` is
    the vectorized production path; ``hash_mode="md5"`` is the
    cross-engine oracle mode, equal to the SQL expression
    ``('0x' || substr(md5(CAST(key AS VARCHAR)), 1, 6))::UBIGINT %
    1000000`` bit-for-bit. Stateless per batch — no shuffle, no driver
    state, trivially resumable."""
    if hash_mode not in ("xx64", "md5"):
        raise ValueError(f"assign_split: unknown hash_mode {hash_mode!r}")
    if not fractions:
        raise ValueError("assign_split: fractions must be non-empty")
    fracs = np.array(list(fractions.values()), np.float64)
    if (fracs <= 0).any() or abs(fracs.sum() - 1.0) > 1e-9:
        raise ValueError(
            f"assign_split: fractions must be positive and sum to 1 "
            f"(got sum={fracs.sum()})")
    labels = np.array(list(fractions.keys()))
    cum = np.floor(np.cumsum(fracs) * 1_000_000 + 0.5).astype(np.int64)
    cum[-1] = 1_000_000  # close the last interval exactly

    def tag(t: pa.Table) -> pa.Table:
        ids = t.column(key).cast(pa.string())
        if hash_mode == "md5":
            from ..functions.text import md5_hex

            hx = md5_hex(ids)
            b = np.array([int(h[:6], 16) % 1_000_000
                          for h in hx.to_pylist()], np.int64)
        else:
            from ..functions.hashing import hash64

            b = (hash64(ids, seed=seed) % np.uint64(1_000_000)
                 ).astype(np.int64)
        idx = np.searchsorted(cum, b, side="right")
        return t.append_column(out_col, pa.array(labels[idx], pa.string()))

    return ds.map_batches(tag, batch_format="pyarrow")


def quota_sample(ds: ray.data.Dataset, key: str, n_seats: int,
                 id_col: str, *, max_groups: int = 100_000,
                 n_buckets: int | str = "auto",
                 persist: str = "none") -> ray.data.Dataset:
    """Quota sampling — largest-remainder apportionment made
    ACTIONABLE: allocate ``n_seats`` across the ``key`` categories
    proportionally (``allocate.apportion``), then deterministically
    keep exactly each category's quota — the rows with the SMALLEST
    ``md5(id)`` digests (hash order = a fixed uniform permutation, so
    re-running or re-sharding never changes the kept set).

    Scale shape: pass 1 is the apportion count (two-phase; the seat
    table is ≤ ``max_groups`` rows, pulled once and broadcast); pass 2
    prereduces every block to ≤ max-quota rows per key it contains
    (exact — the global smallest-k by hash is a subset of the union
    of per-block smallest-k) before ONE bucket exchange ranks and
    cuts each category at its quota. The input plan executes twice
    (count pass + sample pass); ``persist="memory"`` materializes the
    input once when the upstream is expensive to recompute (the
    two-pass idiom — free to skip when ``ds`` is a bare parquet
    read)."""
    import ray

    from ..functions.text import md5_hex
    from .allocate import apportion
    from .bucketing import bucketed_map_groups, multi_key_change

    if persist not in ("none", "memory"):
        raise ValueError(f"quota_sample: unknown persist={persist!r}")
    if persist == "memory":
        ds = ds.materialize()
    seats_ds = apportion(ds.select_columns([key]), [key], n_seats,
                         max_groups=max_groups)
    parts = collect(seats_ds)
    seats = {}
    if parts:
        seats_tbl = pa.concat_tables(parts)
        seats = dict(zip(seats_tbl.column(key).to_pylist(),
                         seats_tbl.column("seats").to_pylist()))
    kmax = max(seats.values(), default=0)
    ref = ray.put(seats)

    def add_hash(t: pa.Table) -> pa.Table:
        h = md5_hex(pc.cast(t.column(id_col), pa.string()))
        return t.append_column("_h", h)

    def cut(t: pa.Table, quota_of, drop: bool) -> pa.Table:
        t = t.sort_by([(key, "ascending"), ("_h", "ascending"),
                       (id_col, "ascending")])
        mask = multi_key_change(t, [key])
        starts = np.flatnonzero(mask)
        if len(starts):
            seg = np.repeat(np.arange(len(starts)),
                            np.diff(np.append(starts, t.num_rows)))
            rank = np.arange(t.num_rows) - starts[seg]
            kvals = t.column(key).take(
                pa.array(starts.astype(np.int64))).to_pylist()
            quota = np.array([quota_of(v) for v in kvals],
                             np.int64)[seg]
            t = t.filter(pa.array(rank < quota))
        return t.drop_columns(["_h"]) if drop else t

    hashed = ds.map_batches(add_hash, batch_format="pyarrow",
                            batch_size=65536)
    # per-block prereduce: smallest kmax per key bounds the exchange;
    # the _h lane rides through (review finding: dropping it forced a
    # full second md5 pass over every survivor)
    pre = hashed.map_batches(
        lambda t: cut(t, lambda _v: kmax, drop=False),
        batch_format="pyarrow", batch_size=65536)

    def final(t: pa.Table) -> pa.Table:
        s = ray.get(ref)
        return cut(t, lambda v: s.get(v, 0), drop=True)

    return bucketed_map_groups(pre, key, final, n_buckets=n_buckets)
