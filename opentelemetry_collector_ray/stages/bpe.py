"""Byte-pair-encoding subword tokenizer — train + distributed encode.

The canonical LLM-training-data tokenizer (Sennrich, Haddow & Birch
2016, "Neural Machine Translation of Rare Words with Subword Units";
the same word-histogram-driven algorithm behind subword-nmt / fastBPE /
the GPT-2 ``bpe()`` apply loop). The reference collector has no
tokenizer; this is an engine addition for the training-data surface
alongside token_count / packing / unigram_mass.

Scale shape — the key insight is that classic BPE training is a
function of the WORD HISTOGRAM, not the corpus:

1. ONE distributed pass reduces the corpus to (word, count) via the
   two-phase grouped count (``corpusstats.term_counts`` — the
   10^12-token corpus becomes ~10^6 word types). The histogram is
   ``count()``-guarded before it reaches the driver (``max_word_types``,
   same contract as ``unigram_mass``'s max_vocab).
2. The greedy merge loop runs driver-side over the histogram with
   incremental pair-count maintenance — exactly what subword-nmt does;
   cost is independent of corpus size.
3. Encoding is an actor-pool ``map_batches`` stage: merge ranks are
   ``ray.put`` ONCE and fetched once per actor in ``__init__``; each
   batch tokenizes whole-column (Arrow), encodes each DISTINCT word once
   (memo cache shared across the actor's batches — natural-language
   batches repeat words heavily), and assembles per-doc id lists with
   numpy offsets. No Python per token in the common (cached) path.

Determinism: merge selection ties break on (count desc, pair lexical
asc); encoding applies merges in rank order, merging every non-
overlapping occurrence left-to-right — identical to the training-time
merge, so re-encoding a training word reproduces its final training
segmentation (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .corpusstats import _tokens_with_rows

END_OF_WORD = "▁"  # word-final marker symbol (sentencepiece-style)


@dataclass
class BPEModel:
    """Ordered merge list + token vocabulary. ``token_to_id`` assigns
    ids to base symbols first (the training alphabet, sorted), then one
    id per merge result in merge order — a pure function of
    (alphabet, merges), so equal models mean equal ids on every node.
    Symbols outside the vocabulary encode to ``unk_id`` (one reserved id
    past the vocabulary) — deterministic, never per-actor."""

    merges: list[tuple[str, str]]
    alphabet: tuple[str, ...] = ()
    token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.token_to_id:
            base = set(self.alphabet)
            base.update(s for m in self.merges for s in m)
            vocab = dict.fromkeys(sorted(base))
            for a, b in self.merges:
                vocab[a + b] = None
            self.token_to_id = {t: i for i, t in enumerate(vocab)}

    @property
    def unk_id(self) -> int:
        return len(self.token_to_id)

    @property
    def ranks(self) -> dict[tuple[str, str], int]:
        return {m: i for i, m in enumerate(self.merges)}


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word[:-1]) + (word[-1] + END_OF_WORD,)


def _merge_once(sym: list[str], pair: tuple[str, str]) -> list[str]:
    """Replace every non-overlapping occurrence of ``pair`` in ``sym``,
    left to right."""
    a, b = pair
    out: list[str] = []
    i, n = 0, len(sym)
    while i < n:
        if i + 1 < n and sym[i] == a and sym[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(sym[i])
            i += 1
    return out


def _pairs_of(sym: list[str]) -> dict[tuple[str, str], int]:
    d: dict[tuple[str, str], int] = {}
    for i in range(len(sym) - 1):
        p = (sym[i], sym[i + 1])
        d[p] = d.get(p, 0) + 1
    return d


def train_merges(word_counts: dict[str, int],
                 num_merges: int) -> list[tuple[str, str]]:
    """Greedy BPE merge learning over a word histogram (Sennrich
    alg. 1, with subword-nmt's incremental pair-count update: a merge
    touches only the words that contain the pair). Stops early when no
    pair occurs twice."""
    words = [(list(_word_symbols(w)), int(c))
             for w, c in word_counts.items() if w]
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wi, (sym, cnt) in enumerate(words):
        for p, k in _pairs_of(sym).items():
            pair_counts[p] = pair_counts.get(p, 0) + k * cnt
            pair_words.setdefault(p, set()).add(wi)
    merges: list[tuple[str, str]] = []
    for _ in range(int(num_merges)):
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        if pair_counts[best] < 2:
            break
        merges.append(best)
        for wi in list(pair_words.get(best, ())):
            sym, cnt = words[wi]
            old = _pairs_of(sym)
            new_sym = _merge_once(sym, best)
            new = _pairs_of(new_sym)
            words[wi] = (new_sym, cnt)
            for p in old.keys() | new.keys():
                d = new.get(p, 0) - old.get(p, 0)
                if d:
                    c = pair_counts.get(p, 0) + d * cnt
                    if c > 0:
                        pair_counts[p] = c
                    else:
                        pair_counts.pop(p, None)
                if new.get(p):
                    pair_words.setdefault(p, set()).add(wi)
                elif not new.get(p) and p in pair_words:
                    pair_words[p].discard(wi)
        pair_counts.pop(best, None)
        pair_words.pop(best, None)
    return merges


def encode_word(word: str, ranks: dict[tuple[str, str], int]
                ) -> list[str]:
    """GPT-2-style apply loop: repeatedly merge the lowest-rank adjacent
    pair (every occurrence) until no learned pair remains."""
    sym = list(_word_symbols(word))
    while len(sym) > 1:
        best, best_rank = None, None
        for i in range(len(sym) - 1):
            r = ranks.get((sym[i], sym[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best, best_rank = (sym[i], sym[i + 1]), r
        if best is None:
            break
        sym = _merge_once(sym, best)
    return sym


def bpe_train(ds: ray.data.Dataset, text_col: str = "text", *,
              num_merges: int = 1000,
              max_word_types: int = 2_000_000) -> BPEModel:
    """Learn a BPE model from a corpus: one distributed word-histogram
    pass, then the driver-side merge loop. The histogram — never the
    corpus — is pulled to the driver, guarded by ``max_word_types``."""
    from .corpusstats import term_counts

    counts = term_counts(ds, text_col=text_col).materialize()
    n_types = counts.count()
    if n_types > int(max_word_types):
        raise ValueError(
            f"bpe_train: corpus has {n_types:,} word types "
            f"(> max_word_types={int(max_word_types):,}); raise the cap "
            "or pre-filter rare words before training")
    pdf = counts.to_pandas()
    wc = dict(zip(pdf["term"].tolist(),
                  (int(x) for x in pdf["n"].tolist())))
    alphabet = tuple(sorted({s for w in wc if w
                             for s in _word_symbols(w)}))
    return BPEModel(train_merges(wc, num_merges), alphabet=alphabet)


class BPEEncodeStage:
    """Distributed encode: ranks/vocab fetched once per actor (pass
    ``model_ref`` from ``ray.put``), distinct words of each batch encoded
    once through a memo cache, per-doc token-id lists assembled with
    numpy offsets."""

    def __init__(self, model: BPEModel | None = None, model_ref=None,
                 text_col: str = "text", id_col: str = "doc_id",
                 out_col: str = "token_ids",
                 count_col: str = "n_bpe_tokens"):
        if model is None:
            import ray

            model = ray.get(model_ref)  # broadcast fetch, once per actor
        self.ranks = model.ranks
        self.token_to_id = dict(model.token_to_id)
        self.unk_id = model.unk_id
        self.text_col, self.id_col = text_col, id_col
        self.out_col, self.count_col = out_col, count_col
        self._cache: dict[str, np.ndarray] = {}

    def _ids_for(self, word: str) -> np.ndarray:
        got = self._cache.get(word)
        if got is None:
            t2i = self.token_to_id
            got = np.asarray(
                [t2i.get(tok, self.unk_id)  # OOV -> one reserved id
                 for tok in encode_word(word, self.ranks)], np.int64)
            self._cache[word] = got
        return got

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({
                self.id_col: t.column(self.id_col),
                self.out_col: pa.array([], pa.list_(pa.int64())),
                self.count_col: pa.array([], pa.int64())})
        flat, rows = _tokens_with_rows(t.column(self.text_col))
        words = flat.to_pylist()
        per_word = [self._ids_for(w) for w in words]
        lens = np.fromiter((len(p) for p in per_word), np.int64,
                           count=len(per_word))
        all_ids = (np.concatenate(per_word) if per_word
                   else np.empty(0, np.int64))
        # tokens are emitted in row order, so per-doc id runs are
        # contiguous: doc boundaries = offsets into the flat id array
        doc_tok = np.bincount(rows, weights=lens,
                              minlength=n).astype(np.int64)
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(doc_tok, out=offsets[1:])
        return pa.table({
            self.id_col: t.column(self.id_col),
            self.out_col: pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), pa.array(all_ids)),
            self.count_col: pa.array(doc_tok)})


def bpe_encode(ds: ray.data.Dataset, model: BPEModel,
               text_col: str = "text", id_col: str = "doc_id",
               out_col: str = "token_ids",
               count_col: str = "n_bpe_tokens",
               concurrency=None,
               batch_size: int | None = None) -> ray.data.Dataset:
    """Encode a corpus with a trained model. With ``concurrency`` the
    stage is an actor pool and the model is broadcast via ``ray.put``;
    without it, a plain fused task (the right choice when a multi-pass
    caller re-executes the plan — actor spin-up is per-execution)."""
    kw = {"batch_format": "pyarrow"}
    if batch_size:
        kw["batch_size"] = batch_size
    args = dict(text_col=text_col, id_col=id_col, out_col=out_col,
                count_col=count_col)
    if concurrency:
        import ray

        ref = ray.put(model)
        return ds.map_batches(BPEEncodeStage, concurrency=concurrency,
                              fn_constructor_kwargs=dict(model_ref=ref,
                                                         **args), **kw)
    return ds.map_batches(BPEEncodeStage(model, **args), **kw)


def bpe_tokenize(make_ds, text_col: str = "text",
                 id_col: str = "doc_id", *, num_merges: int = 1000,
                 max_word_types: int = 2_000_000, persist: str = "none",
                 concurrency=None,
                 batch_size: int | None = None) -> ray.data.Dataset:
    """Train-then-encode over the SAME corpus — the two-pass convenience
    the YAML ``bpe`` processor uses. ``make_ds`` is a zero-arg dataset
    factory; like every two-pass operator here it rides
    ``persisted_factory`` (``persist="none"`` re-executes the upstream
    plan for pass 2 — fine for a bare read, use ``"memory"``/a path for
    derived inputs; see ``bucketing.persisted_factory``)."""
    from .bucketing import persisted_factory

    f = persisted_factory(make_ds, persist)
    model = bpe_train(f(), text_col, num_merges=num_merges,
                      max_word_types=max_word_types)
    return bpe_encode(f(), model, text_col=text_col, id_col=id_col,
                      concurrency=concurrency, batch_size=batch_size)


def bpe_decode(ds: ray.data.Dataset, model: BPEModel,
               ids_col: str = "token_ids", out_col: str = "detok"
               ) -> ray.data.Dataset:
    """Inverse transform: per-doc token-id lists → text, words joined by
    a single space (END_OF_WORD marks word boundaries, so no per-word
    bookkeeping is needed). When the model was trained on the same
    corpus nothing maps to UNK and ``decode(encode(x))`` equals the
    normalized word sequence exactly — the reconstruction-fidelity gate
    for the trained-merge path. UNK ids decode to U+FFFD (lossy,
    visible). Fully vectorized: one dictionary take over the flat id
    array, one list-join per batch."""
    id_to_token: list[str] = [""] * (model.unk_id + 1)
    for tok, i in model.token_to_id.items():
        id_to_token[i] = tok
    id_to_token[model.unk_id] = "�"
    vocab = pa.array(id_to_token, pa.string())

    def dec(t: pa.Table) -> pa.Table:
        ids = t.column(ids_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        toks = vocab.take(ids.flatten())
        lists = pa.ListArray.from_arrays(ids.offsets, toks)
        out = pc.utf8_rtrim(pc.replace_substring(
            pc.binary_join(lists, ""), END_OF_WORD, " "), " ")
        return t.drop_columns([ids_col]).append_column(out_col, out)

    return ds.map_batches(dec, batch_format="pyarrow")


def save_model(model: BPEModel, path: str) -> None:
    """Persist a trained model as JSON (merges + alphabet — ids are a
    pure function of both, so the file is portable across nodes and
    sessions; the tokenizer-artifact step of a training-data run)."""
    import json

    with open(path, "w") as f:
        json.dump({"merges": [list(m) for m in model.merges],
                   "alphabet": list(model.alphabet)}, f)


def load_model(path: str) -> BPEModel:
    import json

    with open(path) as f:
        d = json.load(f)
    return BPEModel([tuple(m) for m in d["merges"]],
                    alphabet=tuple(d.get("alphabet", ())))
