"""Benchmark contamination screening — flag documents that contain any
of a set of benchmark phrases as a CONSECUTIVE TOKEN RUN (the exact
n-gram overlap check a pretraining pipeline runs against its eval sets
before training).

Scale shape: the benchmark set is tokenized and hashed ONCE on the
driver into one sorted uint64 array per distinct phrase length, shipped
via ``ray.put`` and fetched once per actor. Each batch then:

1. tokenizes whole-column (``corpusstats._tokens_with_rows``),
2. hashes every token (one vectorized ``hash64``),
3. builds rolling n-gram hashes with shifted-array mixing (no Python
   per token), masking windows that cross a row boundary,
4. probes the sorted benchmark array with ``np.searchsorted``,
5. EXACT-VERIFIES the (rare) hash hits by string comparison of the
   normalized token run against the phrase set — hash collisions can
   flag a candidate but never a result (the dedup family's
   verify-after-sketch discipline).

Output per row: ``contaminated`` (bool) and ``n_hits`` (verified
matching windows). Only fixed-width hash arrays are broadcast; nothing
shuffles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..functions.hashing import hash64
from .corpusstats import _tokens_with_rows

_MIX = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd constant


def _rolling_hashes(tok_hashes: np.ndarray, rows: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(window hash, window row, window FLAT-TOKEN start) for every
    n-token window that does not cross a row boundary — the start array
    comes from here so hash and verify can never disagree about which
    window a hit means. Order-dependent mixing: h = Σ_j h_j ·
    MIX^(n-1-j) — a polynomial in an odd 64-bit constant, vectorized as
    n shifted adds."""
    m = len(tok_hashes) - n + 1
    if m <= 0:
        z = np.zeros(0, np.int64)
        return np.zeros(0, np.uint64), z, z
    with np.errstate(over="ignore"):
        h = np.zeros(m, np.uint64)
        for j in range(n):
            h = h * _MIX + tok_hashes[j: j + m]
    starts = np.flatnonzero(rows[:m] == rows[n - 1:])
    return h[starts], rows[starts], starts


def _phrase_table(phrases: list[str]) -> dict[int, np.ndarray]:
    """{phrase token length: sorted uint64 hashes} — driver-side, once."""
    by_n: dict[int, list[np.ndarray]] = {}
    toks_of: list[list[str]] = []
    for p in phrases:
        flat, _ = _tokens_with_rows(pa.array([p], pa.string()))
        toks = flat.to_pylist()
        if not toks:
            raise ValueError(f"contamination: phrase {p!r} has no tokens")
        toks_of.append(toks)
        th = hash64(pa.array(toks, pa.string()))
        h, _, _ = _rolling_hashes(th, np.zeros(len(toks), np.int64),
                                  len(toks))
        by_n.setdefault(len(toks), []).append(h)
    return {n: np.sort(np.concatenate(hs)) for n, hs in by_n.items()}


def _normalize(phrase: str) -> str:
    flat, _ = _tokens_with_rows(pa.array([phrase], pa.string()))
    return " ".join(flat.to_pylist())


class ContaminationStage:
    """Actor stage: benchmark hash tables fetched once per actor."""

    def __init__(self, tables_ref=None, tables=None, phrase_set=None,
                 text_col: str = "text", id_col: str = "doc_id"):
        if tables is None:
            import ray

            tables = ray.get(tables_ref)
        self.tables = tables  # {n: sorted uint64}
        self.phrase_set = frozenset(phrase_set or ())
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        nrows = t.num_rows
        flat, rows = _tokens_with_rows(t.column(self.text_col))
        th = hash64(flat)
        hits = np.zeros(nrows, np.int64)
        toks_cache = None
        for n, table in self.tables.items():
            h, hrows, hstarts = _rolling_hashes(th, rows, n)
            if not len(h):
                continue
            pos = np.searchsorted(table, h)
            cand = (pos < len(table)) & (table[np.minimum(
                pos, len(table) - 1)] == h)
            if not cand.any():
                continue
            # exact verify: rebuild the candidate windows' text from the
            # starts _rolling_hashes itself reported
            if toks_cache is None:
                toks_cache = np.asarray(flat.to_numpy(
                    zero_copy_only=False), dtype=object)
            ci = np.flatnonzero(cand)
            for s, r in zip(hstarts[ci], hrows[ci]):
                text = " ".join(toks_cache[s: s + n])
                if text in self.phrase_set:
                    hits[int(r)] += 1
        return pa.table({
            self.id_col: t.column(self.id_col),
            "contaminated": pa.array(hits > 0),
            "n_hits": pa.array(hits),
        })


def flag_contaminated(ds: ray.data.Dataset, phrases: list[str],
                      text_col: str = "text", id_col: str = "doc_id",
                      concurrency=(1, 8)) -> ray.data.Dataset:
    """Screen every document against the benchmark ``phrases``
    (normalized through the corpus tokenizer). Returns (id,
    contaminated, n_hits)."""
    import ray

    if not phrases:
        raise ValueError("flag_contaminated: phrases must be non-empty")
    tables = _phrase_table(list(phrases))
    normset = [_normalize(p) for p in phrases]
    ref = ray.put(tables)
    return ds.map_batches(
        ContaminationStage,
        fn_constructor_kwargs=dict(tables_ref=ref, phrase_set=normset,
                                   text_col=text_col, id_col=id_col),
        batch_format="pyarrow", concurrency=concurrency)
