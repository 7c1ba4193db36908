"""Corpus ranking — TF-IDF / BM25 scoring against a fixed query and a
persisted, hash-partitioned inverted index.

The retrieval half of a training-data pipeline (dedup finds what to
drop; ranking finds what to KEEP): score every document against a query
term set, or build the term → doc posting index once and answer many
membership/conjunction queries from partition-pruned reads.

Scale shape:

- Scoring is ONE streaming pass (plus a tiny stats pass): per-batch
  tokenize → ``pc.index_in`` against the handful of query terms → a
  dense (rows × n_terms) tf matrix → one matmul with the weight vector.
  No exchange at all; document frequencies for the query terms are
  per-batch partial counts summed on the driver (T × #blocks rows).
- ``score_tfidf_int`` keeps the whole computation in INTEGER arithmetic
  (weight = N·scale // (df+1) — a reciprocal-df tf-idf), so the DuckDB
  oracle hash-matches exactly; ``score_bm25`` is the real
  Robertson/Sparck-Jones BM25 (ln-based idf — transcendental, so
  checked by planted-truth tests, not hash equality).
- The inverted index exploits the fact that each document lives in
  exactly ONE batch: per-batch distinct (term, doc) pairs are already
  globally distinct, so ONE bucket exchange co-locates each term's
  postings, each bucket sorts (term, doc) and the index writes
  Hive-partitioned by bucket (``similarity.py``'s layout). Queries hash
  the query terms to buckets and read ONLY those partitions.

Reference framing: the collector has no retrieval operator; this is an
engine addition in the same family as dedup/ANN (SURVEY §2 LLM-ops).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.hashing import bucket_of
from .bucketing import persisted_factory
from .corpusstats import _tokens_with_rows

MAX_QUERY_TERMS = 256  # dense tf matrix is rows × T — keep T bounded


def _check_terms(query_terms) -> list[str]:
    terms = [t for t in query_terms]
    if not terms:
        raise ValueError("ranking: query_terms must be non-empty")
    if len(terms) > MAX_QUERY_TERMS:
        raise ValueError(
            f"ranking: {len(terms)} query terms > {MAX_QUERY_TERMS}; "
            "use the inverted index for large term sets")
    if len(set(terms)) != len(terms):
        raise ValueError("ranking: query_terms contains duplicates")
    return terms


def corpus_query_stats(make_ds, query_terms, text_col: str = "text",
                       id_col: str = "doc_id") -> dict:
    """One streaming pass → ``{"n_docs", "total_tokens", "df": {term:
    df}}``. Only T-row partials reach the driver (T = #query terms)."""
    terms = _check_terms(query_terms)
    tarr = pa.array(terms, pa.string())

    def partials(t: pa.Table) -> pa.Table:
        flat, rows = _tokens_with_rows(t.column(text_col))
        idx = pc.index_in(flat, value_set=tarr)
        valid = idx.is_valid().to_numpy(zero_copy_only=False)
        ix = idx.fill_null(0).to_numpy(zero_copy_only=False).astype(
            np.int64)
        # df partial: distinct docs per term inside this batch
        df = np.zeros(len(terms), np.int64)
        if valid.any():
            pair = rows[valid] * len(terms) + ix[valid]
            upair = np.unique(pair)
            np.add.at(df, upair % len(terms), 1)
        return pa.table({
            "_t": pa.array(np.arange(len(terms) + 1, dtype=np.int64)),
            "_c": pa.array(np.concatenate(
                [df, [t.num_rows]]).astype(np.int64)),
            "_tok": pa.array(np.concatenate(
                [np.zeros(len(terms), np.int64), [len(flat)]])),
        })

    agg = make_ds().map_batches(
        partials, batch_size=None, batch_format="pyarrow").to_pandas()
    if "_t" not in agg.columns:
        agg = agg.reindex(columns=["_t", "_c", "_tok"]).fillna(0)
    sums = agg.groupby("_t")[["_c", "_tok"]].sum()
    n_docs = int(sums["_c"].get(len(terms), 0))
    total_tokens = int(sums["_tok"].get(len(terms), 0))
    df = {t: int(sums["_c"].get(i, 0)) for i, t in enumerate(terms)}
    return {"n_docs": n_docs, "total_tokens": total_tokens, "df": df}


class _TfStage:
    """Per-batch dense tf matrix for the query terms (built once per
    actor); subclasses turn tf into a score column set."""

    def __init__(self, terms: list[str], text_col: str, id_col: str):
        self.terms = pa.array(terms, pa.string())
        self.T = len(terms)
        self.text_col, self.id_col = text_col, id_col

    def _tf(self, t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(tf matrix rows×T, per-row total token count)."""
        n = t.num_rows
        flat, rows = _tokens_with_rows(t.column(self.text_col))
        idx = pc.index_in(flat, value_set=self.terms)
        valid = idx.is_valid().to_numpy(zero_copy_only=False)
        ix = idx.fill_null(0).to_numpy(zero_copy_only=False).astype(
            np.int64)
        tf = np.zeros((n, self.T), np.int64)
        if valid.any():
            np.add.at(tf, (rows[valid], ix[valid]), 1)
        dl = np.zeros(n, np.int64)
        if len(rows):
            np.add.at(dl, rows, 1)
        return tf, dl


class TfIdfIntStage(_TfStage):
    def __init__(self, terms, weights: np.ndarray, text_col, id_col):
        super().__init__(terms, text_col, id_col)
        self.weights = weights.astype(np.int64)

    def __call__(self, t: pa.Table) -> pa.Table:
        tf, _dl = self._tf(t)
        score = tf @ self.weights
        return pa.table({
            self.id_col: t.column(self.id_col),
            "score": pa.array(score.astype(np.int64)),
            "n_matched": pa.array((tf > 0).sum(axis=1).astype(np.int64)),
        })


class Bm25Stage(_TfStage):
    def __init__(self, terms, idf: np.ndarray, avgdl: float,
                 k1: float, b: float, text_col, id_col):
        super().__init__(terms, text_col, id_col)
        self.idf, self.avgdl = idf.astype(np.float64), float(avgdl)
        self.k1, self.b = float(k1), float(b)

    def __call__(self, t: pa.Table) -> pa.Table:
        tf, dl = self._tf(t)
        tff = tf.astype(np.float64)
        norm = self.k1 * (1.0 - self.b
                          + self.b * dl / max(self.avgdl, 1e-12))
        denom = tff + norm[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            part = np.where(tff > 0.0,
                            tff * (self.k1 + 1.0) / denom, 0.0)
        score = part @ self.idf
        return pa.table({
            self.id_col: t.column(self.id_col),
            "score": pa.array(score),
            "n_matched": pa.array((tf > 0).sum(axis=1).astype(np.int64)),
        })


def score_tfidf_int(make_ds, query_terms: list[str], scale: int = 1000,
                    text_col: str = "text", id_col: str = "doc_id",
                    persist: str = "none") -> ray.data.Dataset:
    """Integer-exact reciprocal-df tf-idf: ``score = Σ_t tf(doc,t) ·
    (N·scale // (df(t)+1))`` — tf-idf-shaped ranking with NO
    transcendental ops, so an SQL oracle reproduces it bit-exactly.
    Two passes over ``make_ds`` (stats + scoring); ``persist`` as in
    :func:`stages.bucketing.persisted_factory`."""
    terms = _check_terms(query_terms)
    make_ds = persisted_factory(make_ds, persist)
    st = corpus_query_stats(make_ds, terms, text_col, id_col)
    weights = np.array(
        [(st["n_docs"] * int(scale)) // (st["df"][t] + 1) for t in terms],
        np.int64)
    return make_ds().map_batches(
        TfIdfIntStage,
        fn_constructor_kwargs=dict(terms=terms, weights=weights,
                                   text_col=text_col, id_col=id_col),
        batch_format="pyarrow", concurrency=(1, 8))


def score_bm25(make_ds, query_terms, k1: float = 1.2, b: float = 0.75,
               text_col: str = "text", id_col: str = "doc_id",
               persist: str = "none") -> ray.data.Dataset:
    """Okapi BM25 against a fixed query: ``idf = ln(1 + (N-df+0.5)/
    (df+0.5))``, tf saturation ``k1``, length normalization ``b``
    against the corpus mean document length."""
    terms = _check_terms(query_terms)
    make_ds = persisted_factory(make_ds, persist)
    st = corpus_query_stats(make_ds, terms, text_col, id_col)
    N = st["n_docs"]
    idf = np.array([np.log1p((N - st["df"][t] + 0.5)
                             / (st["df"][t] + 0.5)) for t in terms])
    avgdl = st["total_tokens"] / max(N, 1)
    return make_ds().map_batches(
        Bm25Stage,
        fn_constructor_kwargs=dict(terms=terms, idf=idf, avgdl=avgdl,
                                   k1=k1, b=b, text_col=text_col,
                                   id_col=id_col),
        batch_format="pyarrow", concurrency=(1, 8))


# ------------------------------------------------------- inverted index

def build_inverted_index(ds: ray.data.Dataset, index_dir: str,
                         n_buckets: int = 64, text_col: str = "text",
                         id_col: str = "doc_id") -> None:
    """Persisted inverted index: distinct (term, doc) pairs, ONE bucket
    exchange (hash(term) % n_buckets), per-bucket ``(term, doc)`` sort,
    Hive-partitioned write (``bucket=<b>/``). Each document lives in
    exactly one input batch, so per-batch distinct pairs are globally
    distinct — no cross-batch dedup pass. Postings are EXPLODED rows
    (term, doc_id), the parquet-native layout; a term's posting list is
    one contiguous run inside its bucket partition."""

    def explode_distinct(t: pa.Table) -> pa.Table:
        flat, rows = _tokens_with_rows(t.column(text_col))
        if len(rows) == 0:
            return pa.table({
                "term": pa.array([], pa.string()),
                id_col: pa.array([], t.column(id_col).type),
                "bucket": pa.array([], pa.int64())})
        # distinct (row, term) inside the batch: dictionary-encode terms,
        # unique the (row, code) pair ids
        dic = pc.dictionary_encode(flat)
        codes = np.asarray(dic.indices.to_numpy(zero_copy_only=False),
                           np.int64)
        nv = int(codes.max()) + 1 if len(codes) else 0
        upair = np.unique(rows * max(nv, 1) + codes)
        urows = (upair // max(nv, 1)).astype(np.int64)
        ucodes = (upair % max(nv, 1)).astype(np.int64)
        terms = dic.dictionary.take(pa.array(ucodes))
        docs = t.column(id_col).take(pa.array(urows))
        return pa.table({
            "term": terms,
            id_col: docs,
            "bucket": pa.array(bucket_of(terms, n_buckets)),
        })

    pairs = ds.map_batches(explode_distinct, batch_format="pyarrow")
    sorted_buckets = pairs.groupby("bucket").map_groups(
        lambda t: t.sort_by([("term", "ascending"),
                             (id_col, "ascending")]),
        batch_format="pyarrow")
    sorted_buckets.write_parquet(index_dir, partition_cols=["bucket"])


def probe_paths(index_dir: str, terms, n_buckets: int) -> list[str]:
    """The parquet files a query actually reads: only the ``bucket=<b>/``
    partitions the query terms hash to (the partition-pruning contract —
    scan fraction ≈ len(terms)/n_buckets of the index)."""
    import glob
    import os

    want = sorted(set(int(b) for b in
                      bucket_of(pa.array(list(terms), pa.string()),
                                n_buckets)))
    return [f for b in want for f in sorted(glob.glob(
        os.path.join(index_dir, f"bucket={b}", "*.parquet")))]


def query_inverted_index(index_dir: str, terms, mode: str = "any",
                         n_buckets: int = 64,
                         id_col: str = "doc_id") -> ray.data.Dataset:
    """Partition-pruned posting read: hash the query terms to their
    buckets, read ONLY those ``bucket=<b>/`` partitions, filter to the
    terms. ``mode="any"`` returns the exploded (term, doc) postings;
    ``mode="all"`` returns the doc ids containing EVERY query term (the
    conjunction — per-doc distinct-term count == len(terms), vectorized
    inside the already-co-located buckets is not possible since a doc's
    terms span buckets, so the conjunction reduces over the pruned
    postings with one bounded groupby on the doc id)."""
    terms = _check_terms(terms)
    tarr = pa.array(terms, pa.string())
    paths = probe_paths(index_dir, terms, n_buckets)
    if not paths:
        # keep the indexed id TYPE on the no-partition path (review
        # finding: a hardcoded string id diverges from the index)
        import glob
        import os

        import pyarrow.parquet as pq

        any_file = sorted(glob.glob(os.path.join(
            index_dir, "bucket=*", "*.parquet")))
        id_type = pq.read_schema(any_file[0]).field(id_col).type \
            if any_file else pa.string()
        empty = pa.table({"term": pa.array([], pa.string()),
                          id_col: pa.array([], id_type)})
        return ray.data.from_arrow(empty)
    posts = ray.data.read_parquet(paths).map_batches(
        lambda t: t.filter(pc.is_in(t.column("term"), value_set=tarr))
        .select(["term", id_col]),
        batch_format="pyarrow")
    if mode == "any":
        return posts
    if mode != "all":
        raise ValueError(f"query_inverted_index: bad mode {mode!r}")
    from .aggregate import grouped_count

    # postings are distinct (term, doc): doc matches all terms iff its
    # posting count over the query terms == len(terms)
    counts = grouped_count(posts, [id_col], count_name="_nt",
                           strategy="bucket")
    k = len(terms)
    return counts.map_batches(
        lambda t: t.filter(pc.equal(t.column("_nt"), k)).select([id_col]),
        batch_format="pyarrow")


def build_positional_index(ds: ray.data.Dataset, index_dir: str,
                           n_buckets: int = 64, text_col: str = "text",
                           id_col: str = "doc_id") -> None:
    """Positional inverted index — the phrase-query upgrade over
    :func:`build_inverted_index`: postings are (term, doc, pos) rows
    with ``pos`` the token's 0-based offset in the document's token
    stream, so adjacency IS integer arithmetic. Same layout contract:
    one bucket exchange on hash(term), per-bucket (term, doc, pos)
    sort, Hive-partitioned write — a term's postings stay one
    contiguous pruned run. All occurrences are kept (a phrase needs
    every position, not the distinct (term, doc) set)."""

    def explode(t: pa.Table) -> pa.Table:
        flat, rows = _tokens_with_rows(t.column(text_col))
        if len(rows) == 0:
            return pa.table({
                "term": pa.array([], pa.string()),
                id_col: pa.array([], t.column(id_col).type),
                "pos": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64())})
        # rows is non-decreasing (np.repeat order): position within the
        # doc = global index minus the doc's first index
        change = np.ones(len(rows), dtype=bool)
        change[1:] = rows[1:] != rows[:-1]
        starts = np.flatnonzero(change)
        first = np.repeat(starts, np.diff(np.append(starts, len(rows))))
        pos = np.arange(len(rows), dtype=np.int64) - first
        docs = t.column(id_col).take(pa.array(rows))
        return pa.table({
            "term": flat,
            id_col: docs,
            "pos": pa.array(pos),
            "bucket": pa.array(bucket_of(flat, n_buckets)),
        })

    posts = ds.map_batches(explode, batch_format="pyarrow")
    sorted_buckets = posts.groupby("bucket").map_groups(
        lambda t: t.sort_by([("term", "ascending"),
                             (id_col, "ascending"),
                             ("pos", "ascending")]),
        batch_format="pyarrow")
    sorted_buckets.write_parquet(index_dir, partition_cols=["bucket"])


def query_phrase(index_dir: str, phrase_terms, n_buckets: int = 64,
                 id_col: str = "doc_id",
                 exchange_buckets: int | str = "auto"
                 ) -> ray.data.Dataset:
    """Exact phrase query over the positional index: a document matches
    when some anchor position p has ``phrase_terms[i]`` at ``p + i``
    for every i. Each term's postings are read partition-pruned and
    shifted to anchor coordinates (``pos − i``, tagged with the term
    ordinal); the tagged union then rides ONE hash-bucket exchange on
    the doc id, and a single vectorized pass per bucket keeps anchors
    whose (doc, anchor) segment carries ALL k ordinals — one exchange
    total for any phrase length (the first cut's per-term SEMI-join
    chain paid one exchange per term plus a distinct pass: 4.6 s →
    ~1.5 s at sf0.1). Skinny (doc, anchor, ordinal) rows are the only
    exchange currency. Returns the distinct matching doc ids.

    ``n_buckets`` is the INDEX-LAYOUT contract and must equal the
    value the index was built with (it drives partition pruning — a
    mismatch would hash terms into the wrong ``bucket=`` partitions
    and silently drop postings); tune the doc-id exchange width with
    the independent ``exchange_buckets`` knob instead."""
    from .bucketing import bucketed_map_groups

    terms = _check_terms(phrase_terms)
    if len(terms) < 2:
        raise ValueError("query_phrase: need at least 2 terms "
                         "(use query_inverted_index for single terms)")

    def _indexed_id_type() -> pa.DataType:
        # keep the indexed id TYPE on the no-partition path (same
        # review-finding convention as query_inverted_index: a
        # hardcoded type diverges from the index and breaks the join)
        import glob
        import os

        import pyarrow.parquet as pq

        any_file = sorted(glob.glob(os.path.join(
            index_dir, "bucket=*", "*.parquet")))
        return pq.read_schema(any_file[0]).field(id_col).type \
            if any_file else pa.int64()

    def posts_for(i: int) -> ray.data.Dataset:
        term = terms[i]
        paths = probe_paths(index_dir, [term], n_buckets)
        if not paths:
            return ray.data.from_arrow(pa.table({
                id_col: pa.array([], _indexed_id_type()),
                "_apos": pa.array([], pa.int64()),
                "_ti": pa.array([], pa.int64())}))
        return ray.data.read_parquet(paths).map_batches(
            lambda t, term=term, i=i: (lambda f: pa.table({
                id_col: f.column(id_col),
                "_apos": pc.subtract(f.column("pos"),
                                     pa.scalar(i, pa.int64())),
                "_ti": pa.array(np.full(f.num_rows, i, np.int64))}))(
                t.filter(pc.equal(t.column("term"), term))),
            batch_format="pyarrow")

    k = len(terms)
    tagged = posts_for(0).union(*[posts_for(i) for i in range(1, k)])

    def match(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({id_col: t.column(id_col).slice(0, 0)})
        t = t.sort_by([(id_col, "ascending"), ("_apos", "ascending")])
        doc = t.column(id_col).to_numpy(zero_copy_only=False)
        apos = t.column("_apos").to_numpy(zero_copy_only=False)
        n = len(doc)
        change = np.ones(n, dtype=bool)
        change[1:] = (doc[1:] != doc[:-1]) | (apos[1:] != apos[:-1])
        starts = np.flatnonzero(change)
        # (term, doc, pos) postings are unique, so ordinals within a
        # (doc, anchor) segment are distinct: a full match is simply a
        # segment of length k
        lens = np.diff(np.append(starts, n))
        full = starts[lens == k]
        docs = t.column(id_col).take(pa.array(full))
        # a doc lives wholly in this bucket: local unique == global
        return pa.table({id_col: pc.unique(docs)})

    return bucketed_map_groups(tagged, id_col, match,
                               n_buckets=exchange_buckets)


def rrf_fuse(rankings: list, id_col: str = "doc_id",
             rank_col: str = "rank", k: int = 60,
             topk: int | None = None) -> ray.data.Dataset:
    """Reciprocal-rank fusion (Cormack et al. 2009) — the standard
    hybrid-retrieval combiner (BM25 + vector, relevance + prior):
    ``rrf(id) = Σ_lists 1/(k + rank_id)`` over the lists containing the
    id; absent ids contribute nothing. Inputs are TOP-K ranking tables
    (small by construction — this fuses candidate lists, not corpora);
    each contributes one reciprocal term, the union flows through one
    grouped float sum. With two lists the sum is a single IEEE add, so
    the result is bit-deterministic and SQL-mirrorable."""
    from .aggregate import grouped_agg

    if not rankings:
        raise ValueError("rrf_fuse: need at least one ranking")
    kf = float(k)

    def contrib(t: pa.Table) -> pa.Table:
        r = t.column(rank_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        return pa.table({id_col: t.column(id_col),
                         "_rrf": pa.array(1.0 / (kf + r))})

    u = rankings[0].map_batches(contrib, batch_format="pyarrow")
    for ds in rankings[1:]:
        u = u.union(ds.map_batches(contrib, batch_format="pyarrow"))
    fused = grouped_agg(u, [id_col], sum_cols={"rrf": "_rrf"},
                        strategy="shuffle")
    out = fused.sort(["rrf", id_col], descending=[True, False])
    return out.limit(int(topk)) if topk else out


def eval_ranking(results: ray.data.Dataset, qrels: ray.data.Dataset, *,
                 query_col: str = "query", id_col: str = "doc_id",
                 rank_col: str = "rank", k: int = 10,
                 scale: int = 1_000_000) -> ray.data.Dataset:
    """Retrieval-quality evaluation — per-query reciprocal rank and
    recall@k given a ranking table and a relevance-judgment (qrels)
    table. The eval harness that closes the loop on the repo's
    TF-IDF/BM25/ANN/RRF retrieval stack.

    Inputs: ``results`` rows are (query, doc, rank) with ``rank``
    1-based and unique per query; ``qrels`` rows are (query, doc) pairs
    judged relevant. Output, one row per query appearing in EITHER
    input: ``rr_scaled`` = ``scale // rank`` of the highest-ranked
    relevant doc within the top ``k`` (0 when none — truncating integer
    division so the value sits behind the DuckDB hash gate; MRR =
    mean(rr_scaled)/scale), ``hits_at_k`` = relevant docs retrieved in
    the top ``k``, ``n_rel`` = total judged-relevant docs (recall@k =
    hits_at_k / n_rel).

    Scale shape: ONE composite-key shuffle semi-join (results ∩ qrels —
    fixed-width id rows are the only exchange currency), per-query
    partial aggregates on both lanes (unbounded query keys — shuffle
    strategy), and one left join of two already-reduced per-query
    tables. No driver state."""
    from .aggregate import grouped_agg, grouped_count
    from .join import shuffle_hash_join

    if k <= 0 or scale <= 0:
        raise ValueError("eval_ranking: k and scale must be positive")

    topk = results.map_batches(
        lambda t: t.filter(pc.less_equal(t.column(rank_col), k)),
        batch_format="pyarrow")
    hits = shuffle_hash_join(topk, qrels, key=[query_col, id_col],
                             how="semi")
    per_q = grouped_agg(hits, [query_col], count_name="hits_at_k",
                        min_cols={"_first_rank": rank_col},
                        strategy="shuffle")
    n_rel = grouped_count(qrels, [query_col], count_name="n_rel",
                          strategy="shuffle")
    j = shuffle_hash_join(n_rel, per_q, key=query_col, how="left")

    def finish(t: pa.Table) -> pa.Table:
        fr = t.column("_first_rank")
        rr = pc.if_else(pc.is_valid(fr),
                        pc.divide(pa.scalar(int(scale), pa.int64()),
                                  pc.cast(fr, pa.int64())),
                        pa.scalar(0, pa.int64()))
        hits_k = pc.fill_null(pc.cast(t.column("hits_at_k"),
                                      pa.int64()), 0)
        return pa.table({query_col: t.column(query_col),
                         "rr_scaled": rr, "hits_at_k": hits_k,
                         "n_rel": pc.cast(t.column("n_rel"),
                                          pa.int64())})

    return j.map_batches(finish, batch_format="pyarrow")


def query_near(index_dir: str, term_a: str, term_b: str, window: int,
               n_buckets: int = 64, id_col: str = "doc_id",
               exchange_buckets: int | str = "auto"
               ) -> ray.data.Dataset:
    """Proximity (NEAR) query over the positional index: documents
    where ``term_a`` and ``term_b`` occur within ``window`` token
    positions of each other, in either order — the relevance upgrade
    between the bag-of-words conjunction and the exact phrase. Both
    terms' postings are read partition-pruned, tagged, and ride ONE
    hash-bucket exchange on the doc id; per bucket a single
    searchsorted over the (doc, pos)-sorted a-positions answers every
    b-position's "is an a within ±window?" at once. Returns the
    distinct matching doc ids.

    ``n_buckets`` is the index-layout contract (must equal the build
    value — it drives partition pruning); ``exchange_buckets`` tunes
    the doc exchange independently."""
    from .bucketing import bucketed_map_groups

    terms = _check_terms([term_a, term_b])
    if window < 0:
        raise ValueError("query_near: window must be >= 0")

    def _indexed_id_type() -> pa.DataType:
        # preserve the index's real id type on the no-partition path
        # (the query_phrase review-finding convention: a hardcoded
        # type breaks the union when the other term HAS postings)
        import glob
        import os

        import pyarrow.parquet as pq

        any_file = sorted(glob.glob(os.path.join(
            index_dir, "bucket=*", "*.parquet")))
        return pq.read_schema(any_file[0]).field(id_col).type \
            if any_file else pa.int64()

    def posts_for(term: str, tag: int) -> ray.data.Dataset:
        paths = probe_paths(index_dir, [term], n_buckets)
        if not paths:
            return ray.data.from_arrow(pa.table({
                id_col: pa.array([], _indexed_id_type()),
                "pos": pa.array([], pa.int64()),
                "_t": pa.array([], pa.int64())}))
        return ray.data.read_parquet(paths).map_batches(
            lambda t, term=term, tag=tag: (lambda f: pa.table({
                id_col: f.column(id_col),
                "pos": f.column("pos"),
                "_t": pa.array(np.full(f.num_rows, tag, np.int64))}))(
                t.filter(pc.equal(t.column("term"), term))),
            batch_format="pyarrow")

    tagged = posts_for(terms[0], 0).union(posts_for(terms[1], 1))

    def match(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({id_col: t.column(id_col).slice(0, 0)})
        doc = t.column(id_col).to_numpy(zero_copy_only=False)
        pos = t.column("pos").to_numpy(zero_copy_only=False)
        tag = t.column("_t").to_numpy(zero_copy_only=False)
        uniq, dense = np.unique(doc, return_inverse=True)
        span = int(pos.max()) + window + 2
        comp = dense.astype(np.int64) * span + pos
        a_comp = np.sort(comp[tag == 0])
        b_mask = tag == 1
        b_comp = comp[b_mask]
        b_doc = dense[b_mask]
        lo = np.searchsorted(a_comp, b_comp - window, side="left")
        hi = np.searchsorted(a_comp, b_comp + window, side="right")
        # the ±window composite range stays inside the doc's band
        # because span > max_pos + window
        hit_docs = np.unique(b_doc[hi > lo])
        return pa.table({id_col: pa.array(uniq[hit_docs])})

    return bucketed_map_groups(tagged, id_col, match,
                               n_buckets=exchange_buckets)
