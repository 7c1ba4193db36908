"""Substring-level duplicate detection — the "dedup the PASSAGE, not
the document" operator of Lee et al. 2022 (Deduplicating Training Data
Makes Language Models Better, arXiv:2107.06499): find every fixed-size
token window that occurs more than once ANYWHERE in the corpus
(cross-document or within-document) and report the merged duplicated
token spans per document, plus per-document duplication stats for
quality filtering.

The reference implementation builds a corpus-wide suffix array; the
Ray-native shape here is the rolling-hash variant: window hashes are
the shuffle currency (skinny fixed-width rows — the text itself never
moves), duplicate hash groups are found with ONE bucket exchange, and
a second tiny exchange merges each document's hit windows into maximal
spans (vectorized gaps-and-islands over a segment-lifted running max,
no Python per doc). With ``stride=1`` every duplicated run of
``window`` or more tokens is found exactly; ``stride=k`` keeps only
windows whose CONTENT hash ≡ 0 (mod k) — content-anchored sampling,
so every copy of a duplicated run emits the IDENTICAL window subset
regardless of its offset in each document (a position-anchored stride
would silently miss copies at offsets differing mod k). A duplicated
run of L tokens then survives iff any of its L−window+1 windows is
selected (probability ≈ 1−(1−1/k)^(L−window+1), corpus-consistent —
a run is either found in ALL its copies or in none). Hash collisions
(~2^-64 per window pair) can mark a spurious
window but are not exact-verified — unlike the contamination screen's
small benchmark set, verification here would ship the text; at corpus
scale the expected false-window count is negligible and documented
instead of paid for.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.hashing import hash64
from .bucketing import bucketed_map_groups, key_segments
from .contamination import _rolling_hashes
from .corpusstats import _tokens_with_rows


class _WindowHashStage:
    """Per batch: one row per sampled ``window``-token run — (window
    hash, doc_id, DOC-relative token start) — plus a per-doc
    token-count lane (start = -1, ``h`` = hash of the doc id so the
    lane spreads uniformly across hash buckets) that rides the SAME
    exchange, so stats need no second scan."""

    def __init__(self, text_col: str, id_col: str, window: int,
                 stride: int):
        self.text_col, self.id_col = text_col, id_col
        self.window, self.stride = window, stride

    def __call__(self, t: pa.Table) -> pa.Table:
        flat, rows = _tokens_with_rows(t.column(self.text_col))
        th = hash64(flat)
        h, hrows, hstarts = _rolling_hashes(th, rows, self.window)
        counts = np.bincount(rows, minlength=t.num_rows).astype(np.int64)
        doc_base = np.concatenate([[0], np.cumsum(counts)[:-1]]) \
            if t.num_rows else np.zeros(0, np.int64)
        rel = hstarts - doc_base[hrows] if len(hstarts) \
            else np.zeros(0, np.int64)
        if self.stride > 1 and len(rel):
            # content-anchored sampling: offset-independent, identical
            # across every copy of a duplicated run
            keep = h % np.uint64(self.stride) == 0
            h, hrows, rel = h[keep], hrows[keep], rel[keep]
        ids = t.column(self.id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "h": pa.array(np.concatenate(
                [h, hash64(t.column(self.id_col))])),
            "doc_id": pa.array(np.concatenate([ids[hrows], ids])),
            "start": pa.array(np.concatenate(
                [rel, np.full(t.num_rows, -1, np.int64)])),
            "n_tok": pa.array(np.concatenate(
                [np.zeros(len(rel), np.int64), counts])),
        })


def _hashed_windows(ds, text_col, id_col, window, stride):
    return ds.map_batches(
        _WindowHashStage(text_col, id_col, window, stride),
        batch_format="pyarrow")


def _dup_window_rows(hashed, min_count, n_buckets, keep_tokens=False):
    """(doc_id, start[, n_tok]) of every window whose hash occurs >=
    min_count times corpus-wide — ONE bucket exchange on the hash.
    With ``keep_tokens`` the per-doc token-count lane (start = -1,
    doc-id-hashed so it spreads across buckets) passes through the
    same exchange, so stats cost no second input scan."""
    cols = ["h", "doc_id", "start"] + (["n_tok"] if keep_tokens else [])
    pre = hashed if keep_tokens else hashed.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("start"), 0)),
        batch_format="pyarrow")
    pre = pre.map_batches(lambda t: t.select(cols),
                          batch_format="pyarrow")

    def dup_bucket(t: pa.Table) -> pa.Table:
        is_win = pc.greater_equal(t.column("start"), 0)
        w = t.filter(is_win).sort_by([("h", "ascending")])
        hv = w.column("h").to_numpy(zero_copy_only=False)
        change, _ = key_segments(hv)
        starts = np.flatnonzero(change)
        sizes = np.diff(np.append(starts, len(hv)))
        keep = np.repeat(sizes, sizes) >= min_count
        out = w.filter(pa.array(keep)).drop_columns(["h"])
        if keep_tokens:
            out = pa.concat_tables(
                [out, t.filter(pc.invert(is_win)).drop_columns(["h"])])
        return out

    return bucketed_map_groups(pre, "h", dup_bucket,
                               n_buckets=n_buckets)


def _span_merge_bucket(t: pa.Table, window: int) -> pa.Table:
    """Merge each doc's duplicated window starts into maximal spans:
    gaps-and-islands over a segment-lifted running max of window ends
    (a doc boundary always opens a new span because the lift jumps)."""
    t = t.sort_by([("doc_id", "ascending"), ("start", "ascending")])
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    st = t.column("start").to_numpy(zero_copy_only=False)
    n = len(st)
    ends = st + window
    new_run = np.ones(n, bool)
    if n > 1:
        change = np.concatenate([[True], ids[1:] != ids[:-1]])
        seg_id = np.cumsum(change) - 1
        lift = seg_id * (int(ends.max()) + 2)
        run_max = np.maximum.accumulate(ends + lift)
        new_run[1:] = (st[1:] + lift[1:]) > run_max[:-1]
    heads = np.flatnonzero(new_run)
    span_end = np.maximum.reduceat(ends, heads) if len(heads) \
        else np.zeros(0, np.int64)
    return pa.table({
        "doc_id": t.column("doc_id").take(pa.array(heads)),
        "span_start": pa.array(st[heads]),
        "span_end": pa.array(span_end),
    })


def duplicate_spans(ds: ray.data.Dataset, *, text_col: str = "text",
                    id_col: str = "doc_id", window: int = 50,
                    stride: int = 1, min_count: int = 2,
                    n_buckets: int | str = "auto") -> ray.data.Dataset:
    """One row per (doc, maximal duplicated token span): ``doc_id``,
    ``span_start`` (0-based token index into the doc's ``[a-z]+``
    token stream — ``corpusstats.TOKEN_SPLIT_RE``), ``span_end``
    (exclusive). A window is duplicated when its hash occurs
    ``min_count`` or more times corpus-wide (within-doc repeats
    included, per the paper's definition)."""
    if window < 2 or stride < 1 or min_count < 2:
        raise ValueError("duplicate_spans: need window >= 2, "
                         "stride >= 1, min_count >= 2")
    hashed = _hashed_windows(ds, text_col, id_col, window, stride)
    dup = _dup_window_rows(hashed, min_count, n_buckets)
    spans = bucketed_map_groups(
        dup, "doc_id", lambda t: _span_merge_bucket(t, window),
        n_buckets=n_buckets)
    # schema-stable empty path: a clean corpus otherwise yields a
    # zero-column dataset (Ray's empty-groupby behavior); the input's
    # id type is free for a read, else one limit(1) run of the input
    # to its first block, before the exchange
    sch = ds.schema()
    id_type = dict(zip(sch.names, sch.types))[id_col]
    empty = pa.table({"doc_id": pa.array([], id_type),
                      "span_start": pa.array([], pa.int64()),
                      "span_end": pa.array([], pa.int64())})
    return spans.union(ray.data.from_arrow(empty))


def duplication_stats(ds: ray.data.Dataset, *, text_col: str = "text",
                      id_col: str = "doc_id", window: int = 50,
                      stride: int = 1, min_count: int = 2,
                      n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Per document: ``n_tokens``, ``dup_tokens`` (tokens covered by a
    merged duplicated span) and ``n_spans`` — the exact-integer quality
    signal for 'mostly boilerplate' filtering. Docs with no duplicated
    window report 0/0."""
    if window < 2 or stride < 1 or min_count < 2:
        raise ValueError("duplication_stats: need window >= 2, "
                         "stride >= 1, min_count >= 2")
    hashed = _hashed_windows(ds, text_col, id_col, window, stride)
    # ONE input scan: the token-count lane rides the hash exchange
    # alongside the windows (its h = hash(doc_id), so it spreads)
    both = _dup_window_rows(hashed, min_count, n_buckets,
                            keep_tokens=True)

    def stats_bucket(t: pa.Table) -> pa.Table:
        spans = _span_merge_bucket(
            t.filter(pc.greater_equal(t.column("start"), 0))
            .select(["doc_id", "start"]), window)
        ids = spans.column("doc_id").to_numpy(zero_copy_only=False)
        cover = (spans.column("span_end").to_numpy(zero_copy_only=False)
                 - spans.column("span_start").to_numpy(
                     zero_copy_only=False))
        tok = t.filter(pc.less(t.column("start"), 0))
        tids = tok.column("doc_id").to_numpy(zero_copy_only=False)
        ntk = tok.column("n_tok").to_numpy(zero_copy_only=False)
        # aggregate per doc over the token lane (a doc may span input
        # blocks → several token rows)
        order = np.argsort(tids, kind="stable")
        tids, ntk = tids[order], ntk[order]
        change, _ = key_segments(tids)
        heads = np.flatnonzero(change)
        doc_ids = tids[heads]
        n_tokens = np.add.reduceat(ntk, heads) if len(heads) \
            else np.zeros(0, np.int64)
        dup_tok = np.zeros(len(doc_ids), np.int64)
        n_spans = np.zeros(len(doc_ids), np.int64)
        if len(ids):
            pos = np.searchsorted(doc_ids, ids)
            np.add.at(dup_tok, pos, cover)
            np.add.at(n_spans, pos, 1)
        return pa.table({"doc_id": pa.array(doc_ids),
                         "n_tokens": pa.array(n_tokens),
                         "dup_tokens": pa.array(dup_tok),
                         "n_spans": pa.array(n_spans)})

    return bucketed_map_groups(both, "doc_id", stats_bucket,
                               n_buckets=n_buckets)
