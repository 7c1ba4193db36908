"""Distributed embedding clustering — full-corpus Lloyd's k-means and
SemDeDup-style semantic deduplication built on it.

``kmeans_fit`` is the data-parallel Lloyd's loop a 100 TB corpus needs:
per iteration the centroid matrix is ``ray.put`` ONCE and every batch
emits k partial rows (cluster id, float64 sum vector as opaque bytes,
member count); a bounded ``groupby`` over the ≤ k·n_blocks skinny
partial rows reduces them to exactly k rows on the driver (k·dim floats
— O(MB), never the corpus). Assignments use cosine (spherical k-means:
centroids re-normalized each round), matching the IVF coarse quantizer
in ``stages/similarity.py`` — but trained on the FULL corpus, not a
driver-side sample.

``semantic_dedup`` is the SemDeDup recipe (Abbas et al. 2023,
arXiv:2303.09540): k-means-partition the embedding space, then verify
pairwise cosine ONLY inside each cluster — the cluster assignment is the
blocking step that replaces the all-pairs scan. Emits the same
``(id, rep_id)`` connected-component cluster table as the other dedup
ops (stages/dedup.py), so ``dedup_filter`` consumes it unchanged.

Reference analog: the reference has no ML-clustering operator; this is
an engine addition in the same family as the LSH/MinHash dedups
(processor-shaped: pure functions of the dataset, no external state).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .bucketing import exchange, persisted_factory
from .similarity import _normalize, _stack
from .treereduce import combine_all

__all__ = ["kmeans_fit", "kmeans_assign", "semantic_dedup", "pca_fit",
           "pca_transform"]


def _pack_f64(m: np.ndarray) -> pa.Array:
    """(n, d) float64 matrix → binary column of d·8-byte payloads (one
    flat buffer + uniform offsets; list columns would hit Ray's tensor
    extension on grouped blocks — NOTES.md invariant)."""
    n, d = m.shape
    off = np.arange(0, (n + 1) * d * 8, d * 8, dtype=np.int32)
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(off.tobytes()),
         pa.py_buffer(np.ascontiguousarray(m, np.float64).tobytes())])


def _unpack_f64(col: pa.Array, dim: int) -> np.ndarray:
    flat = np.frombuffer(b"".join(col.to_pylist()), np.float64)
    return flat.reshape(-1, dim)


def kmeans_fit(make_ds, k: int = 64, iters: int = 10, seed: int = 42,
               id_col: str = "vec_id", vec_col: str = "embedding",
               sample_size: int = 65536, persist: str = "none",
               ) -> np.ndarray:
    """Full-corpus spherical k-means → (k, dim) unit-norm centroids.

    Init: deterministic hash-sampled warm start (the sample trainer from
    the IVF builder), then ``iters`` exact Lloyd's passes over the WHOLE
    corpus. Each pass re-executes ``make_ds()`` — pass ``persist=
    "memory"`` (or a parquet path) when the factory is an expensive
    derived pipeline, exactly like the other multi-pass operators."""
    from .similarity import _hash_sample, _spherical_kmeans

    make_ds = persisted_factory(make_ds, persist)
    cent = _spherical_kmeans(
        _hash_sample(make_ds(), sample_size, id_col, vec_col),
        k, iters=3, seed=seed)
    dim = cent.shape[1]

    for _ in range(iters):
        cent_ref = ray.put(cent)

        def partials(t: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            if not t.num_rows:
                return pa.table({"cluster": pa.array([], pa.int64()),
                                 "vsum": pa.array([], pa.binary()),
                                 "n": pa.array([], pa.int64())})
            x = _stack(t.column(vec_col)).astype(np.float64)
            assign = np.argmax(_normalize(x) @ c.T, axis=1)
            order = np.argsort(assign, kind="stable")
            a_s, x_s = assign[order], x[order]
            starts = np.concatenate(
                [[0], np.flatnonzero(a_s[1:] != a_s[:-1]) + 1])
            sums = np.add.reduceat(x_s, starts, axis=0)
            counts = np.diff(np.append(starts, len(a_s)))
            return pa.table({
                "cluster": pa.array(a_s[starts].astype(np.int64)),
                "vsum": _pack_f64(sums),
                "n": pa.array(counts.astype(np.int64))})

        part = make_ds().select_columns([vec_col]).map_batches(
            partials, batch_format="pyarrow")

        def combine(t: pa.Table) -> pa.Table:
            # one combine task: ≤ k rows out (bounded-key reduce — no
            # sort exchange; same shape as grouped_agg's one-task merge)
            if not t.num_rows:
                return t
            cl = t.column("cluster").to_numpy(zero_copy_only=False)
            s = _unpack_f64(t.column("vsum").combine_chunks()
                            if isinstance(t.column("vsum"), pa.ChunkedArray)
                            else t.column("vsum"), dim)
            ns = t.column("n").to_numpy(zero_copy_only=False)
            order = np.argsort(cl, kind="stable")
            cl_s, s_s, n_s = cl[order], s[order], ns[order]
            starts = np.concatenate(
                [[0], np.flatnonzero(cl_s[1:] != cl_s[:-1]) + 1])
            return pa.table({
                "cluster": pa.array(cl_s[starts]),
                "vsum": _pack_f64(np.add.reduceat(s_s, starts, axis=0)),
                "n": pa.array(np.add.reduceat(n_s, starts))})

        pdf = combine_all(part, combine).to_pandas()
        new = cent.copy()
        cl = pdf["cluster"].to_numpy()
        sums = np.frombuffer(b"".join(pdf["vsum"]), np.float64
                             ).reshape(-1, dim)
        ns = pdf["n"].to_numpy().astype(np.float64)
        new[cl] = sums / ns[:, None]
        cent = _normalize(new)
    return cent


def kmeans_assign(ds: ray.data.Dataset, centroids: np.ndarray,
                  id_col: str = "vec_id", vec_col: str = "embedding",
                  out_col: str = "cluster") -> ray.data.Dataset:
    """Broadcast-centroid assignment pass: one matmul per batch, adds
    ``out_col`` (int64 nearest-centroid id by cosine)."""
    cent = _normalize(np.asarray(centroids, np.float64))
    cent_ref = ray.put(cent)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        a = np.argmax(_normalize(_stack(t.column(vec_col))) @ c.T,
                      axis=1).astype(np.int64) \
            if t.num_rows else np.empty(0, np.int64)
        return t.append_column(out_col, pa.array(a))

    return ds.map_batches(assign, batch_format="pyarrow")


def semantic_dedup(make_ds, k: int = 64, threshold: float = 0.95,
                   iters: int = 4, seed: int = 42,
                   id_col: str = "vec_id", vec_col: str = "embedding",
                   max_cluster_rows: int = 8192, persist: str = "none",
                   cc_mode: str = "auto") -> ray.data.Dataset:
    """SemDeDup: k-means blocking + exact intra-cluster cosine verify →
    ``(id_col, rep_id)`` near-duplicate cluster table.

    Scale shape: the all-pairs scan is confined to one k-means cluster
    per task (gram matrix ≤ max_cluster_rows² — the guard raises loudly
    with the "raise k" remedy instead of OOMing a worker); edges are
    skinny id pairs; components via the shared distributed CC. At 100 TB
    pick k so corpus_rows / k ≲ max_cluster_rows."""
    from .dedup import (_distinct_edges, _labels_to_clusters,
                        connected_components)

    make_ds = persisted_factory(make_ds, persist)
    cent = kmeans_fit(make_ds, k=k, iters=iters, seed=seed, id_col=id_col,
                      vec_col=vec_col)
    assigned = kmeans_assign(
        make_ds().select_columns([id_col, vec_col]), cent,
        id_col=id_col, vec_col=vec_col)

    def cluster_edges(g: pa.Table) -> pa.Table:
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        if len(ids) > max_cluster_rows:
            raise ValueError(
                f"semantic_dedup: cluster of {len(ids)} rows exceeds "
                f"max_cluster_rows={max_cluster_rows}; raise k (more, "
                "smaller clusters) or max_cluster_rows")
        if len(ids) < 2:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        x = _normalize(_stack(g.column(vec_col)))
        sims = x @ x.T
        a, b = np.triu_indices(len(ids), k=1)
        keep = sims[a, b] >= threshold
        lo = np.minimum(ids[a[keep]], ids[b[keep]])
        hi = np.maximum(ids[a[keep]], ids[b[keep]])
        return pa.table({"id_a": pa.array(lo.astype(np.int64)),
                         "id_b": pa.array(hi.astype(np.int64))})

    edges = _distinct_edges(exchange(assigned, "cluster", cluster_edges))
    return _labels_to_clusters(connected_components(edges, mode=cc_mode),
                               id_col)


def pca_fit(make_ds, n_components: int = 16, vec_col: str = "embedding",
            persist: str = "none") -> tuple[np.ndarray, np.ndarray]:
    """Distributed PCA fit → (mean (d,), components (n_components, d)).

    One pass: every batch emits (n, Σx, Σxxᵀ) with the d and d×d
    accumulators as opaque float64 bytes; the same bounded tree combine
    as ``kmeans_fit`` reduces them (driver state = d² floats — for
    d=1024 that is 8 MB, independent of corpus size). The driver forms
    the covariance and takes the top eigenvectors (numpy ``eigh`` on a
    d×d symmetric matrix). Projection is a separate broadcast pass
    (``pca_transform``) so fit-once/apply-many works."""
    make_ds = persisted_factory(make_ds, persist)
    probe = make_ds().take_batch(1, batch_format="pyarrow")
    dim = len(probe[vec_col][0])
    if not (0 < n_components <= dim):
        raise ValueError(
            f"pca_fit: n_components={n_components} outside (0, dim={dim}]")

    def partials(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"n": pa.array([], pa.int64()),
                             "s1": pa.array([], pa.binary()),
                             "s2": pa.array([], pa.binary())})
        x = _stack(t.column(vec_col)).astype(np.float64)
        s1 = x.sum(axis=0)
        s2 = x.T @ x
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "s1": _pack_f64(s1[None, :]),
            "s2": _pack_f64(s2.reshape(1, -1))})

    def combine(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        n = int(np.sum(t.column("n").to_numpy(zero_copy_only=False)))
        s1 = _unpack_f64(t.column("s1"), dim).sum(axis=0)
        s2 = _unpack_f64(t.column("s2"), dim * dim).sum(axis=0)
        return pa.table({"n": pa.array([n], pa.int64()),
                         "s1": _pack_f64(s1[None, :]),
                         "s2": _pack_f64(s2[None, :])})

    pdf = combine_all(make_ds().select_columns([vec_col]).map_batches(
        partials, batch_format="pyarrow"), combine).to_pandas()
    if not len(pdf) or int(pdf["n"].iloc[0]) < 2:
        raise ValueError("pca_fit: need at least 2 rows")
    n = int(pdf["n"].iloc[0])
    s1 = np.frombuffer(pdf["s1"].iloc[0], np.float64)
    s2 = np.frombuffer(pdf["s2"].iloc[0], np.float64).reshape(dim, dim)
    mean = s1 / n
    cov = (s2 - n * np.outer(mean, mean)) / (n - 1)
    w, v = np.linalg.eigh(cov)          # ascending eigenvalues
    comp = v[:, ::-1][:, :n_components].T.copy()
    # deterministic sign convention: largest-|coef| entry positive
    flip = comp[np.arange(len(comp)),
                np.abs(comp).argmax(axis=1)] < 0
    comp[flip] *= -1.0
    return mean, comp


def pca_transform(ds: ray.data.Dataset, mean: np.ndarray,
                  components: np.ndarray, vec_col: str = "embedding",
                  out_col: str = "pca") -> ray.data.Dataset:
    """Broadcast projection pass: (x − mean) @ componentsᵀ per batch →
    ``out_col`` as list<float32>."""
    ref = ray.put((np.asarray(mean, np.float64),
                   np.asarray(components, np.float64)))

    def project(t: pa.Table) -> pa.Table:
        m, c = ray.get(ref)
        x = _stack(t.column(vec_col)).astype(np.float64)
        y = ((x - m) @ c.T).astype(np.float32) if t.num_rows else \
            np.zeros((0, len(c)), np.float32)
        return t.append_column(out_col,
                               pa.array(list(y), pa.list_(pa.float32())))

    return ds.map_batches(project, batch_format="pyarrow")
