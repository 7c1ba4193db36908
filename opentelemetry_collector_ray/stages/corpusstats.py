"""Corpus-statistics scoring — the two-pass TF / unigram-LM pattern a
training-data pipeline uses to score documents against corpus-wide token
statistics (TF-IDF weighting, unigram-frequency quality proxies,
rare-token filtering).

Pass 1 reduces the corpus to one count per DISTINCT TERM (two-phase
grouped count — above one task's worth of input, per-bucket Arrow
group_by, so the vocabulary never lands in one task); the vocabulary table is broadcast via ``ray.put`` (guarded by
``max_vocab`` — a natural-language corpus vocabulary is ~10^6 terms
≈ tens of MB, fine to broadcast; above the cap the caller should switch
to a join against the term table instead). Pass 2 re-tokenizes each
batch and scores it with ONE ``pc.index_in`` probe + numpy segment sums
— no Python per row or per token.

All outputs are exact integers so the DuckDB oracle (exploded
self-join + grouped sum) hash-matches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .treereduce import collect

TOKEN_SPLIT_RE = "[^a-z]+"  # must mirror the oracle's '[a-z]+' extract


def _tokens_with_rows(col, split_pattern: str = TOKEN_SPLIT_RE
                      ) -> tuple[pa.Array, np.ndarray]:
    """Whole-column tokenization → (flat non-empty tokens, row id per
    token). ``split_pattern`` is the SPLIT regex — its complement must
    mirror the oracle's ``regexp_extract_all`` class (default
    ``[^a-z]+`` ↔ ``[a-z]+``)."""
    split = pc.split_pattern_regex(pc.utf8_lower(col),
                                   pattern=split_pattern)
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    flat = split.flatten()
    counts = np.diff(np.asarray(split.offsets.to_numpy(
        zero_copy_only=False), np.int64))
    rows = np.repeat(np.arange(len(counts)), counts)
    keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
        zero_copy_only=False)
    if not keep.all():
        flat = flat.filter(pa.array(keep))
        rows = rows[keep]
    return flat, rows


def term_counts(ds: ray.data.Dataset, text_col: str = "text",
                split_pattern: str = TOKEN_SPLIT_RE) -> ray.data.Dataset:
    """Corpus term-frequency table (term, n) — two-phase grouped
    count over the exploded tokens."""
    from .aggregate import grouped_count

    def explode(t: pa.Table) -> pa.Table:
        flat, _rows = _tokens_with_rows(t.column(text_col),
                                        split_pattern)
        return pa.table({"term": flat})

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    return grouped_count(exploded, ["term"], count_name="n")


def ngram_counts(ds: ray.data.Dataset, n: int = 2,
                 text_col: str = "text", sep: str = " ",
                 ) -> ray.data.Dataset:
    """Corpus n-gram frequency table (ngram, n) — the bigram/trigram LM
    statistics a contamination/novelty scorer consumes. Per batch: one
    tokenize, n-gram strings built by ONE ``binary_join_element_wise``
    over the n shifted token views (windows crossing a document boundary
    masked out) — no Python per token; then the same two-phase
    grouped count as :func:`term_counts`."""
    if n < 2:
        raise ValueError("ngram_counts: n must be >= 2 "
                         "(use term_counts for unigrams)")
    from .aggregate import grouped_count

    def explode(t: pa.Table) -> pa.Table:
        flat, rows = _tokens_with_rows(t.column(text_col))
        m = len(flat) - n + 1
        if m <= 0:
            return pa.table({"ngram": pa.array([], pa.string())})
        parts = [flat.slice(j, m) for j in range(n)]
        grams = pc.binary_join_element_wise(*parts, sep)
        ok = rows[:m] == rows[n - 1:]
        if not ok.all():
            grams = grams.filter(pa.array(ok))
        return pa.table({"ngram": grams})

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    return grouped_count(exploded, ["ngram"], count_name="n")


MAX_HH_CANDIDATES = 5_000_000  # broadcast candidate list bound


def frequent_terms(make_ds, num: int, den: int,
                   text_col: str = "text",
                   persist: str = "none") -> ray.data.Dataset:
    """EXACT heavy hitters without a full-vocabulary exchange: every
    term whose global frequency is ≥ (num/den)·N tokens, with its exact
    count — the scalable alternative to ``term_counts`` when the
    vocabulary is unbounded but only frequent terms matter.

    Two passes (``make_ds`` factory + ``persist`` as usual):

    - pass 1: per BLOCK, one Arrow ``value_counts`` and keep terms with
      ``count_b · den ≥ num · n_b`` (n_b = block token count). By the
      pigeonhole argument a term with global count ≥ (num/den)·N must
      clear the local threshold in at least one block, so the candidate
      union (≤ den/num per block, driver-side, bounded by
      ``MAX_HH_CANDIDATES``) is COMPLETE — no false negatives;
    - pass 2: broadcast the candidate list, one ``index_in`` +
      ``bincount`` per batch, sum the (candidate × block) partials, and
      keep candidates passing the GLOBAL integer threshold
      ``n · den ≥ num · N``.

    The threshold is the rational num/den (never a float), so the SQL
    oracle (``HAVING count(*)*den >= num*total``) matches exactly.
    """
    import ray

    from .bucketing import persisted_factory

    if num <= 0 or den <= 0:
        raise ValueError("frequent_terms: num and den must be positive")
    make_ds = persisted_factory(make_ds, persist)

    def local_candidates(t: pa.Table) -> pa.Table:
        flat, _rows = _tokens_with_rows(t.column(text_col))
        nb = len(flat)
        if nb == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "_ntok": pa.array([], pa.int64())})
        vc = flat.value_counts()
        terms = vc.field("values")
        counts = vc.field("counts").to_numpy(zero_copy_only=False)
        keep = counts * den >= num * nb
        terms = terms.filter(pa.array(keep))
        ntok = np.zeros(len(terms), np.int64)
        if len(ntok):
            ntok[0] = nb
            return pa.table({"term": terms, "_ntok": pa.array(ntok)})
        # no local candidate: still report the block's token count
        return pa.table({"term": pa.array([None], pa.string()),
                         "_ntok": pa.array([nb])})

    cand = make_ds().map_batches(
        local_candidates, batch_size=None,
        batch_format="pyarrow").to_pandas()
    if "term" not in cand.columns:
        cand = cand.reindex(columns=["term", "_ntok"]).fillna(0)
    total = int(cand["_ntok"].sum())
    terms = sorted(set(cand["term"].dropna()))
    if len(terms) > MAX_HH_CANDIDATES:
        raise ValueError(
            f"frequent_terms: {len(terms)} candidates > "
            f"{MAX_HH_CANDIDATES}; raise the threshold (num/den) or use "
            "term_counts with a join")
    tarr = pa.array(terms, pa.string())

    def partials(t: pa.Table) -> pa.Table:
        flat, _rows = _tokens_with_rows(t.column(text_col))
        idx = pc.index_in(flat, value_set=tarr)
        valid = idx.is_valid().to_numpy(zero_copy_only=False)
        ix = idx.fill_null(0).to_numpy(zero_copy_only=False).astype(
            np.int64)
        counts = np.bincount(ix[valid], minlength=len(terms)) \
            if valid.any() else np.zeros(len(terms), np.int64)
        nz = np.flatnonzero(counts)  # only present-in-block candidates
        return pa.table({"_i": pa.array(nz.astype(np.int64)),
                         "_c": pa.array(counts[nz].astype(np.int64))})

    if not terms:
        return ray.data.from_arrow(pa.table({
            "term": pa.array([], pa.string()),
            "n": pa.array([], pa.int64())}))
    part = make_ds().map_batches(
        partials, batch_size=None, batch_format="pyarrow").to_pandas()
    sums = part.groupby("_i")["_c"].sum()
    n = np.zeros(len(terms), np.int64)
    n[sums.index.to_numpy(dtype=np.int64)] = sums.to_numpy(
        dtype=np.int64)
    keep = n * den >= num * total
    out = pa.table({"term": pa.array(np.asarray(terms, object)[keep],
                                     pa.string()),
                    "n": pa.array(n[keep])})
    return ray.data.from_arrow(out)


class UnigramMassStage:
    """Per-doc corpus-frequency mass: n_tokens + sum of each token's
    corpus count (vocab fetched once per actor from the broadcast ref)."""

    def __init__(self, vocab: pa.Table | None = None, vocab_ref=None,
                 text_col: str = "text", id_col: str = "doc_id"):
        if vocab is None:
            import ray

            vocab = ray.get(vocab_ref)  # broadcast fetch, once per actor
        self.terms = vocab.column("term").combine_chunks()
        self.counts = vocab.column("n").combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        flat, rows = _tokens_with_rows(t.column(self.text_col))
        idx_arr = pc.index_in(flat, value_set=self.terms)
        # every token is in the corpus vocabulary by construction; a
        # miss (scoring foreign text) contributes 0
        valid = idx_arr.is_valid().to_numpy(zero_copy_only=False)
        idx = idx_arr.fill_null(0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        tok_counts = np.where(valid, self.counts[idx] if len(self.counts)
                              else 0, 0)
        mass = np.zeros(n, np.int64)
        ntok = np.zeros(n, np.int64)
        if len(rows):
            np.add.at(mass, rows, tok_counts.astype(np.int64))
            np.add.at(ntok, rows, 1)
        return pa.table({self.id_col: t.column(self.id_col),
                         "n_tokens": pa.array(ntok),
                         "freq_mass": pa.array(mass)})


class OOVStage:
    """Per-doc out-of-vocabulary accounting: token count + how many
    tokens are NOT in the broadcast vocabulary (fetched once per
    actor). The tokenizer-coverage QA metric: a corpus slice with a
    high OOV rate against the training vocab inflates the unknown-token
    rate downstream."""

    def __init__(self, vocab: pa.Array | None = None, vocab_ref=None,
                 text_col: str = "text", id_cols=("doc_id",),
                 split_pattern: str = TOKEN_SPLIT_RE):
        if vocab is None:
            import ray

            vocab = ray.get(vocab_ref)  # broadcast fetch, once per actor
        self.terms = vocab.combine_chunks() \
            if isinstance(vocab, pa.ChunkedArray) else vocab
        self.text_col, self.id_cols = text_col, list(id_cols)
        self.split_pattern = split_pattern

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        flat, rows = _tokens_with_rows(t.column(self.text_col),
                                       self.split_pattern)
        ntok = np.zeros(n, np.int64)
        noov = np.zeros(n, np.int64)
        if len(rows):
            oov = pc.invert(pc.is_in(flat, value_set=self.terms)) \
                .to_numpy(zero_copy_only=False)
            np.add.at(ntok, rows, 1)
            np.add.at(noov, rows, oov.astype(np.int64))
        return pa.table({**{c: t.column(c) for c in self.id_cols},
                         "n_tokens": pa.array(ntok),
                         "n_oov": pa.array(noov)})


def oov_stats(ds_factory, text_col: str = "text",
              id_cols: str | list[str] = "doc_id",
              *, min_count: int = 2, max_vocab: int = 2_000_000,
              split_pattern: str = TOKEN_SPLIT_RE,
              concurrency=(1, 8), persist: str = "none"
              ) -> ray.data.Dataset:
    """Two-pass vocabulary-coverage audit: pass 1 builds the vocabulary
    (corpus terms with frequency ≥ ``min_count`` — the frequency
    threshold avoids the tie-at-the-boundary nondeterminism a top-N
    vocabulary has), pass 2 counts each document's tokens and
    out-of-vocabulary tokens against the broadcast vocab. Output:
    ``(*id_cols, n_tokens, n_oov)`` — exact integers.

    Same cost contract as :func:`unigram_mass`: ``ds_factory`` is
    invoked once per pass; pass ``persist=`` to execute an expensive
    upstream exactly once. Scale shape: the corpus reduces to one row
    per distinct term (two-phase grouped count); the vocabulary
    is ``count()``-guarded by ``max_vocab`` BEFORE the driver pull,
    ``ray.put`` once, fetched once per actor; the doc pass never
    shuffles (a document never spans batches)."""
    import ray

    from .bucketing import persisted_factory

    if min_count < 1:
        raise ValueError("oov_stats: min_count must be >= 1")
    if isinstance(id_cols, str):
        id_cols = [id_cols]
    ds_factory = persisted_factory(ds_factory, persist)
    counts = term_counts(ds_factory(), text_col,
                         split_pattern=split_pattern).map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n"), min_count)),
        batch_format="pyarrow").materialize()
    nv = counts.count()
    if nv > int(max_vocab):
        raise ValueError(
            f"oov_stats: vocabulary {nv:,} exceeds max_vocab="
            f"{int(max_vocab):,}; broadcast would be too large — join "
            "against term_counts() instead")
    parts = [t.column("term") for t in collect(counts)]
    terms = pa.concat_arrays(
        [c for p in parts for c in
         (p.chunks if isinstance(p, pa.ChunkedArray) else [p])]) \
        if parts else pa.array([], pa.string())
    ref = ray.put(terms)
    return ds_factory().map_batches(
        OOVStage,
        fn_constructor_kwargs=dict(vocab_ref=ref, text_col=text_col,
                                   id_cols=id_cols,
                                   split_pattern=split_pattern),
        batch_format="pyarrow", concurrency=concurrency)


def unigram_mass(ds_factory, text_col: str = "text",
                 id_col: str = "doc_id", max_vocab: int = 2_000_000,
                 concurrency=(1, 8),
                 persist: str = "none") -> ray.data.Dataset:
    """Two-pass corpus-frequency scoring: ``ds_factory`` is a zero-arg
    callable returning the input Dataset (invoked once per pass).

    COST CONTRACT: with the default ``persist="none"`` the upstream plan
    EXECUTES TWICE (vocabulary pass + scoring pass) — free for a bare
    parquet read, doubling for an expensive derived pipeline. Pass
    ``persist="memory"`` (materialize once) or ``persist=<dir>`` (write
    parquet once, re-read per pass) to execute the upstream exactly
    once; see ``stages.bucketing.persisted_factory``."""
    import ray

    from .bucketing import persisted_factory

    ds_factory = persisted_factory(ds_factory, persist)
    tables = collect(term_counts(ds_factory(), text_col))
    vt = pa.concat_tables(tables) if tables else pa.table({
        "term": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    if vt.num_rows > max_vocab:
        raise ValueError(
            f"unigram_mass: vocabulary {vt.num_rows} exceeds max_vocab="
            f"{max_vocab}; broadcast would be too large — join against "
            "term_counts() instead")
    ref = ray.put(vt)
    return ds_factory().map_batches(
        UnigramMassStage,
        fn_constructor_kwargs=dict(vocab_ref=ref, text_col=text_col,
                                   id_col=id_col),
        batch_format="pyarrow", concurrency=concurrency)


def term_divergence(ds_a: ray.data.Dataset, ds_b: ray.data.Dataset,
                    text_col: str = "text",
                    max_vocab: int = 2_000_000) -> ray.data.Dataset:
    """Jensen–Shannon divergence between two corpus slices' unigram
    distributions — the corpus-drift / mixture-QA metric (compare a new
    crawl snapshot, a language slice, or a source against the rest).

    Scale shape: each side reduces to its term-count table via the
    two-phase grouped count (``term_counts`` — the corpus never
    moves, only one row per distinct term), both vocabularies are
    ``count()``-guarded by ``max_vocab`` before the driver pull, and the
    JSD sum runs once on the two aligned count vectors. Returns a
    one-row Dataset: ``jsd_nats`` (0 for identical distributions, ln 2
    for disjoint support), per-side token/vocab totals and the shared-
    vocabulary size. Float (log) by nature — rows-only gate; planted
    identities (0 / ln 2 / symmetry) are property-tested."""
    import pandas as pd

    def pull(ds, side):
        counts = term_counts(ds, text_col).materialize()
        nv = counts.count()
        if nv > int(max_vocab):
            raise ValueError(
                f"term_divergence: side {side} has {nv:,} terms "
                f"(> max_vocab={int(max_vocab):,})")
        return counts.to_pandas()

    pa_df, pb_df = pull(ds_a, "A"), pull(ds_b, "B")
    merged = pd.merge(pa_df, pb_df, on="term", how="outer",
                      suffixes=("_a", "_b")).fillna(0)
    ca = merged["n_a"].to_numpy(np.float64)
    cb = merged["n_b"].to_numpy(np.float64)
    ta, tb = ca.sum(), cb.sum()
    if ta == 0 or tb == 0:
        raise ValueError("term_divergence: a side has no tokens")
    p, q = ca / ta, cb / tb
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_pm = np.where(p > 0, p * np.log(p / m), 0.0).sum()
        kl_qm = np.where(q > 0, q * np.log(q / m), 0.0).sum()
    jsd = 0.5 * (kl_pm + kl_qm)
    shared = int(((ca > 0) & (cb > 0)).sum())
    return ray.data.from_arrow(pa.table({
        "jsd_nats": pa.array([float(jsd)], pa.float64()),
        "tokens_a": pa.array([int(ta)], pa.int64()),
        "tokens_b": pa.array([int(tb)], pa.int64()),
        "vocab_a": pa.array([int((ca > 0).sum())], pa.int64()),
        "vocab_b": pa.array([int((cb > 0).sum())], pa.int64()),
        "shared_vocab": pa.array([shared], pa.int64())}))


def vocab_growth(ds: ray.data.Dataset, text_col: str = "text",
                 id_col: str = "doc_id", bucket_size: int = 100,
                 ngram: int = 1) -> ray.data.Dataset:
    """Vocabulary-growth curve: how many NEVER-SEEN-BEFORE terms each
    slice of the corpus contributes, scanning in ``id_col`` order — the
    Heaps'-law saturation diagnostic a curation pipeline reads to decide
    when additional raw data stops buying new vocabulary.

    Exact semantics (SQL-mirrorable): a term is "born" in the document
    with its minimum ``id_col``; the curve groups births by
    ``id_col // bucket_size``. Output: (bucket, new_terms), one row per
    non-empty bucket.

    Scale shape: tokens explode inside ``map_batches`` (whole-column
    kernels), the per-term min rides the two-phase grouped
    aggregate (unbounded term keys — per-batch partials bound the
    exchange to ≤ |distinct terms per batch| rows), and the final
    per-bucket count is a bounded tree roll-up. Nothing lands on the
    driver; ``id_col`` must be non-negative (floor == truncate for the
    bucket division on both engines)."""
    from .aggregate import grouped_agg, grouped_count

    if bucket_size <= 0:
        raise ValueError("vocab_growth: bucket_size must be positive")
    if ngram not in (1, 2):
        raise ValueError("vocab_growth: ngram must be 1 or 2")

    def explode(t: pa.Table) -> pa.Table:
        flat, rows = _tokens_with_rows(t.column(text_col))
        ids = t.column(id_col).combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) and (ids < 0).any():
            raise ValueError("vocab_growth: id_col must be "
                             "non-negative (floor-div parity)")
        if ngram == 2:
            # adjacent within-doc pairs, space-joined — the corpus
            # bigram vocabulary (matches ngram_counts / the SQL
            # ts[i] || ' ' || ts[i+1] explode).
            same = rows[1:] == rows[:-1] if len(rows) > 1 else \
                np.zeros(0, bool)
            if len(flat) > 1:
                joined = pc.binary_join_element_wise(
                    flat.slice(0, len(flat) - 1), flat.slice(1), " ")
                flat = joined.filter(pa.array(same))
            else:
                flat = pa.array([], pa.string())
            rows = rows[:-1][same] if len(rows) > 1 else rows[:0]
        return pa.table({"term": flat,
                         "_id": pa.array(ids[rows], pa.int64())})

    births = grouped_agg(
        ds.map_batches(explode, batch_format="pyarrow"), ["term"],
        min_cols={"first_doc": "_id"})

    def to_bucket(t: pa.Table) -> pa.Table:
        fd = t.column("first_doc").combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({"bucket": pa.array(fd // int(bucket_size),
                                            pa.int64())})

    return grouped_count(births.map_batches(to_bucket,
                                            batch_format="pyarrow"),
                         ["bucket"], count_name="new_terms")


def grouped_gini(ds: ray.data.Dataset, key: str, value_col: str, *,
                 num_name: str = "gini_num", sum_name: str = "total",
                 count_name: str = "n",
                 n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Per-key Gini concentration, exact integer parts — the corpus
    inequality complement to the HHI rollup: how unevenly a source's
    token mass is spread across its documents. Emits the three integer
    components ``gini_num = Σ (2i − n − 1)·x₍ᵢ₎`` (over the per-key
    ASCENDING value sort), ``total = Σ x`` and ``n``, so the float
    ``gini = gini_num / (n · total)`` never crosses an exact-compare
    gate. The coefficient sum is PERMUTATION-INVARIANT under ties
    (swapping equal values changes nothing), so no tiebreak column is
    needed — the same reason SQL's ``row_number() OVER (ORDER BY v)``
    mirror is deterministic here despite ties.

    Values must be non-negative integers (Gini needs a non-negative
    mass; integer lane per the repo's exact-gate convention). Scale
    shape: one hash-bucket exchange of the skinny (key, value) rows,
    one Arrow sort + numpy segment kernels per bucket — never a Python
    call per key. Overflow is guarded loudly per bucket:
    ``n_max² · max(x)`` must fit int64."""
    from .bucketing import bucketed_map_groups, key_segments

    def bucket_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key: t.column(key),
                             num_name: pa.array([], pa.int64()),
                             sum_name: pa.array([], pa.int64()),
                             count_name: pa.array([], pa.int64())})
        vcol = t.column(value_col)
        if not pa.types.is_integer(vcol.type):
            raise ValueError(
                f"grouped_gini: {value_col!r} must be an integer lane, "
                f"got {vcol.type} — integerize first (cents / counts)")
        if vcol.null_count:
            raise ValueError(f"grouped_gini: {value_col!r} has nulls")
        t = t.sort_by([(key, "ascending"), (value_col, "ascending")])
        v = t.column(value_col).to_numpy(zero_copy_only=False
                                         ).astype(np.int64)
        if len(v) and v.min() < 0:
            raise ValueError("grouped_gini: negative values have no "
                             "Gini mass")
        keys = t.column(key).to_numpy(zero_copy_only=False)
        change, seg_start = key_segments(keys)
        firsts = np.flatnonzero(change)
        sizes = np.diff(np.append(firsts, len(v)))
        n_per_row = np.repeat(sizes, sizes)
        vmax = int(v.max()) if len(v) else 0
        nmax = int(sizes.max()) if len(sizes) else 0
        if vmax and nmax and nmax * nmax > (2 ** 62) // vmax:
            raise ValueError(
                f"grouped_gini: n²·max(x) would overflow int64 "
                f"(n={nmax}, max={vmax}); pre-aggregate or rescale")
        pos = np.arange(len(v)) - seg_start + 1  # 1-based within key
        coef = 2 * pos - n_per_row - 1
        return pa.table({
            key: t.column(key).take(pa.array(firsts)),
            num_name: pa.array(np.add.reduceat(coef * v, firsts)
                               .astype(np.int64)),
            sum_name: pa.array(np.add.reduceat(v, firsts)
                               .astype(np.int64)),
            count_name: pa.array(sizes.astype(np.int64)),
        })

    skinny = ds.select_columns([key, value_col])
    return bucketed_map_groups(skinny, key, bucket_fn,
                               n_buckets=n_buckets)


def keyness_odds(ds: ray.data.Dataset, slice_col: str, slice_a: str,
                 slice_b: str, text_col: str = "text", top_k: int = 20,
                 split_pattern: str = TOKEN_SPLIT_RE
                 ) -> ray.data.Dataset:
    """Corpus keyness — which terms CHARACTERIZE slice A against slice
    B (the "Fightin' Words" log-odds idea, Monroe et al. 2008, kept
    exactly rational): per term the add-one-smoothed odds ratio

        odds = ((a+1) / (N_a+V)) / ((b+1) / (N_b+V))

    as a truncating ``odds_permille`` integer lane plus the raw counts,
    top-``top_k`` by (odds desc, term asc). N_a/N_b are slice token
    totals, V the joint vocabulary — the +1/+V Laplace prior keeps
    slice-exclusive terms finite and the arithmetic integer.

    Scale shape: tokens explode once with two 0/1 slice lanes and
    reduce through ONE two-phase grouped sum to the (term, a, b)
    table; totals are two sums and a count over that reduced table
    (never a second input scan); the permille is one vectorized pass,
    magnitude-guarded loudly (a corpus whose token totals push
    ``1000·(a+1)·(N_b+V)`` past int64 needs sharded slices, not a
    silent wrap); top-k is a sort+limit on the skinny lanes."""
    if top_k <= 0:
        raise ValueError("keyness_odds: top_k must be positive")
    if slice_a == slice_b:
        raise ValueError("keyness_odds: slices must differ")
    from .aggregate import grouped_agg

    def explode(t: pa.Table) -> pa.Table:
        sl = t.column(slice_col)
        keep = pc.or_(pc.equal(sl, slice_a), pc.equal(sl, slice_b))
        t = t.filter(pc.fill_null(keep, False))
        flat, rows = _tokens_with_rows(t.column(text_col),
                                       split_pattern)
        is_a = pc.equal(t.column(slice_col), slice_a).to_numpy(
            zero_copy_only=False)[rows]
        return pa.table({"term": flat,
                         "_a": pa.array(is_a.astype(np.int64)),
                         "_b": pa.array((~is_a).astype(np.int64))})

    counts = grouped_agg(
        ds.select_columns([slice_col, text_col]).map_batches(
            explode, batch_format="pyarrow"),
        ["term"], sum_cols={"a": "_a", "b": "_b"}).materialize()
    v = counts.count()
    if v == 0:
        import ray.data as _rd

        return _rd.from_arrow(pa.schema(
            [("term", pa.string()), ("a", pa.int64()),
             ("b", pa.int64()),
             ("odds_permille", pa.int64())]).empty_table())
    # distributed scalar sums over the REDUCED table — the vocabulary
    # may be large; never pull it to the driver.
    na = int(counts.sum("a"))
    nb = int(counts.sum("b"))
    ka, kb = na + v, nb + v

    def lanes(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        amax = int(a.max()) if len(a) else 0
        bmax = int(b.max()) if len(b) else 0
        if kb and 1000 * (amax + 1) > (2 ** 63 - 1) // kb:
            raise ValueError(
                "keyness_odds: 1000·(a+1)·(N_b+V) exceeds int64 — "
                "shard the slices or subsample before keyness")
        if ka and (bmax + 1) > (2 ** 63 - 1) // ka:
            raise ValueError(
                "keyness_odds: (b+1)·(N_a+V) exceeds int64 — shard "
                "the slices or subsample before keyness")
        odds = (1000 * (a + 1) * kb) // ((b + 1) * ka)
        return t.append_column("odds_permille", pa.array(odds))

    scored = counts.map_batches(lanes, batch_format="pyarrow")
    return scored.sort(["odds_permille", "term"],
                       descending=[True, False]).limit(top_k)
