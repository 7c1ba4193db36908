"""Corpus n-gram language model — the CCNet-style perplexity screen.

The classic web-curation quality filter (Wenzek et al. 2020, CCNet):
score every document by an n-gram LM trained on the corpus itself (or
a clean reference slice) and drop the high-perplexity tail. Here: a
bigram model with add-one (Laplace) smoothing over the same ``[a-z]+``
token lane as the rest of the corpus stats.

Scale shape:
- TRAIN is two grouped counts (unigram and bigram), two-phase —
  per-batch partials bound the exchange, unbounded key sets are safe;
- the model tables are pulled to the driver behind loud
  ``max_vocab`` / ``max_bigrams`` count-before-pull guards and
  ``ray.put`` ONCE (at 100 TB with an unbounded vocabulary, swap the
  broadcast probe for a hash-partitioned join of the bigram lane —
  documented, not silently attempted);
- SCORE is one streaming pass: per batch, adjacent in-row token pairs
  probe the broadcast tables via two ``pc.index_in`` calls, log-probs
  reduce per doc with ``np.bincount`` — no per-row Python.

Exactness split: the integer lanes (bigram count sums, unseen-pair
counts) are SQL-oracle-checked; the float log-prob/perplexity lane is
rows-only (ln parity is libm-dependent) with planted-truth tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .aggregate import grouped_count
from .bucketing import persisted_factory
from .corpusstats import _tokens_with_rows

__all__ = ["bigram_counts", "score_bigram_lm"]

_SEP = "\x1f"


def _row_bigrams(col) -> tuple[pa.Array, pa.Array, np.ndarray]:
    """(w1 array, w2 array, row id per bigram) — adjacent token pairs
    that do not cross row boundaries."""
    flat, rows = _tokens_with_rows(col)
    if len(flat) < 2:
        e = pa.array([], pa.string())
        return e, e, np.zeros(0, np.int64)
    same = rows[1:] == rows[:-1]
    idx = np.flatnonzero(same)
    return (flat.take(pa.array(idx, pa.int64())),
            flat.take(pa.array(idx + 1, pa.int64())),
            rows[idx])


def bigram_counts(ds: ray.data.Dataset, text_col: str = "text"
                  ) -> ray.data.Dataset:
    """Corpus bigram table (w1, w2, n) — bucket grouped count over the
    per-batch exploded pairs."""
    def explode(t: pa.Table) -> pa.Table:
        w1, w2, _rows = _row_bigrams(t.column(text_col))
        return pa.table({"w1": w1, "w2": w2})

    return grouped_count(
        ds.select_columns([text_col]).map_batches(
            explode, batch_format="pyarrow"),
        ["w1", "w2"], count_name="n")


def score_bigram_lm(make_ds, id_col: str = "doc_id",
                    text_col: str = "text", *,
                    max_vocab: int = 2_000_000,
                    max_bigrams: int = 20_000_000,
                    persist: str = "none") -> ray.data.Dataset:
    """Per-doc bigram-LM statistics and add-one log-probability.

    Output (docs with ≥ 1 bigram): ``n_bigrams``, ``sum_bigram_n``
    (Σ corpus count of each pair occurrence — exact), ``n_unseen``
    (pairs absent from the model — 0 when trained on the same corpus),
    ``logprob`` (Σ ln((c2+1)/(c1+V)), float) and ``ppl_x1000``
    (round(1000·exp(−logprob/n)) — the filterable perplexity).
    """
    # THREE passes over make_ds (unigram count, bigram count, score) —
    # persist= forwards like every multi-pass operator here; "none" is
    # right only for a bare read
    f = persisted_factory(make_ds, persist)

    uni = grouped_count(
        f().select_columns([text_col]).map_batches(
            lambda t: pa.table({"w": _tokens_with_rows(
                t.column(text_col))[0]}), batch_format="pyarrow"),
        ["w"], count_name="n").materialize()
    n_vocab = uni.count()
    if n_vocab > int(max_vocab):
        raise ValueError(
            f"score_bigram_lm: vocabulary has {n_vocab:,} types "
            f"(> max_vocab={int(max_vocab):,}); the broadcast model "
            "would not fit a worker — partition the probe as a join")
    big = bigram_counts(f(), text_col).materialize()
    n_big = big.count()
    if n_big > int(max_bigrams):
        raise ValueError(
            f"score_bigram_lm: model has {n_big:,} bigrams "
            f"(> max_bigrams={int(max_bigrams):,}); partition the "
            "probe as a join")

    updf = uni.to_pandas()
    uni_keys_ref = ray.put(pa.array(updf["w"]))
    uni_n_ref = ray.put(updf["n"].to_numpy().astype(np.int64))
    bpdf = big.to_pandas()
    bkeys = pc.binary_join_element_wise(
        pa.array(bpdf["w1"]), pa.array(bpdf["w2"]), _SEP)
    big_keys_ref = ray.put(bkeys)
    big_n_ref = ray.put(bpdf["n"].to_numpy().astype(np.int64))
    v_types = n_vocab

    def score(t: pa.Table) -> pa.Table:
        w1, w2, rows = _row_bigrams(t.column(text_col))
        nr = t.num_rows
        pair = pc.binary_join_element_wise(w1, w2, _SEP)
        bn = ray.get(big_n_ref)
        bi = pc.index_in(pair, ray.get(big_keys_ref)) \
            .fill_null(-1).to_numpy(zero_copy_only=False)
        c2 = np.where(bi >= 0, bn[np.maximum(bi, 0)], 0)
        un = ray.get(uni_n_ref)
        ui = pc.index_in(w1, ray.get(uni_keys_ref)) \
            .fill_null(-1).to_numpy(zero_copy_only=False)
        c1 = np.where(ui >= 0, un[np.maximum(ui, 0)], 0)
        lp = np.log((c2 + 1.0) / (c1 + float(v_types)))
        n_b = np.bincount(rows, minlength=nr).astype(np.int64)
        sum_c2 = np.bincount(rows, weights=c2,
                             minlength=nr).astype(np.int64)
        n_unseen = np.bincount(rows, weights=(c2 == 0),
                               minlength=nr).astype(np.int64)
        logprob = np.bincount(rows, weights=lp, minlength=nr)
        keep = n_b > 0
        ppl = np.zeros(nr)
        ppl[keep] = np.exp(-logprob[keep] / n_b[keep])
        return pa.table({
            id_col: t.column(id_col).filter(pa.array(keep)),
            "n_bigrams": pa.array(n_b[keep]),
            "sum_bigram_n": pa.array(sum_c2[keep]),
            "n_unseen": pa.array(n_unseen[keep]),
            "logprob": pa.array(logprob[keep]),
            "ppl_x1000": pa.array(
                np.round(ppl[keep] * 1000).astype(np.int64)),
        })

    return f().select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow")
