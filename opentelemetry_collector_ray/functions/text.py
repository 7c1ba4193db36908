"""Text-analysis kernels for training-data pipelines: token counting,
quality scoring, language-ID, document fingerprinting.

All functions are whole-column Arrow/numpy kernels intended to run inside
``map_batches(..., batch_format="pyarrow")``; none loops over Python rows
except the explicitly-documented md5 oracle helper.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_RE = r"\S+"
WORDISH_RE = r"[\w]+|[^\w\s]"  # BPE-ish: words plus individual punctuation
PUNCT_RE = r"[^\w\s]"

# Tiny marker-word inventories for the n-gram/stopword language heuristic.
LANG_MARKERS: dict[str, list[str]] = {
    "en": ["the", "and", "of", "to", "is", "in", "that", "it", "for", "with"],
    "de": ["der", "die", "das", "und", "ist", "nicht", "mit", "ein", "zu", "den"],
    "es": ["el", "la", "de", "que", "los", "una", "por", "con", "para", "es"],
    "fr": ["le", "la", "les", "des", "est", "une", "dans", "pour", "que", "sur"],
}
CJK_RE = r"[一-鿿぀-ヿ]"


def token_count(col: pa.ChunkedArray | pa.Array, pattern: str = TOKEN_RE) -> pa.ChunkedArray:
    """Whitespace token count (``\\S+`` matches); 0 for empty/blank."""
    return pc.count_substring_regex(col, pattern=pattern)


def quality_features(col: pa.ChunkedArray | pa.Array) -> dict[str, pa.Array]:
    """Length / punctuation / token-shape quality features.

    Returns columns: n_chars, n_tokens, n_punct, punct_ratio,
    mean_token_len, quality_score (a deterministic [0,1] heuristic).
    """
    n_chars = pc.utf8_length(col).cast(pa.int64())
    n_tokens = pc.count_substring_regex(col, pattern=TOKEN_RE).cast(pa.int64())
    n_punct = pc.count_substring_regex(col, pattern=PUNCT_RE).cast(pa.int64())
    nc = n_chars.combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64) \
        if isinstance(n_chars, pa.ChunkedArray) else n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
    nt = (n_tokens.combine_chunks() if isinstance(n_tokens, pa.ChunkedArray) else n_tokens) \
        .to_numpy(zero_copy_only=False).astype(np.float64)
    npunct = (n_punct.combine_chunks() if isinstance(n_punct, pa.ChunkedArray) else n_punct) \
        .to_numpy(zero_copy_only=False).astype(np.float64)
    punct_ratio = np.divide(npunct, np.maximum(nc, 1.0))
    mean_tok = np.divide(nc, np.maximum(nt, 1.0))
    # Heuristic: reward 50..5000 chars, 3..12 mean token length, low punct.
    len_score = np.clip(np.minimum(nc / 50.0, 5000.0 / np.maximum(nc, 1.0)), 0, 1)
    tok_score = np.clip(1.0 - np.abs(mean_tok - 6.0) / 12.0, 0, 1)
    punct_score = np.clip(1.0 - punct_ratio * 4.0, 0, 1)
    score = (len_score + tok_score + punct_score) / 3.0
    return {
        "n_chars": n_chars,
        "n_tokens": n_tokens,
        "n_punct": n_punct,
        "punct_ratio": pa.array(punct_ratio),
        "mean_token_len": pa.array(mean_tok),
        "quality_score": pa.array(score),
    }


def lang_id(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Marker-word + CJK-script language heuristic → 2-letter code or 'und'.

    One vectorized regex count pass per language (≤5 passes/batch); argmax
    of marker hits, 'zh' when CJK chars present, 'und' when nothing hits.
    """
    lowered = pc.utf8_lower(col)
    n = len(col)
    scores = np.zeros((n, len(LANG_MARKERS)), dtype=np.int64)
    for j, (_lang, words) in enumerate(LANG_MARKERS.items()):
        pat = r"\b(" + "|".join(words) + r")\b"
        c = pc.count_substring_regex(lowered, pattern=pat)
        scores[:, j] = (c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c) \
            .to_numpy(zero_copy_only=False)
    cjk = pc.count_substring_regex(col, pattern=CJK_RE)
    cjk_np = (cjk.combine_chunks() if isinstance(cjk, pa.ChunkedArray) else cjk) \
        .to_numpy(zero_copy_only=False)
    langs = np.array(list(LANG_MARKERS.keys()))
    best = scores.argmax(axis=1)
    out = langs[best].astype(object)
    out[scores.max(axis=1) == 0] = "und"
    out[cjk_np > 0] = "zh"
    return pa.array(out, pa.string())


def sha256_hex(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """OTTL SHA256() converter analog (reference
    ottl/ottlfuncs/func_sha256.go): hex digest per value, the
    pseudonymization hash the attributes processor applies to PII-ish
    keys. Matches DuckDB ``sha256(text)`` for the oracle gate. Per-row
    hashlib (C speed) like :func:`md5_hex` — at 100 TB keep digests for
    external-standard needs and use ``hashing.hash64`` for
    partitioning."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pa.array(
        [hashlib.sha256(s.encode()).hexdigest() if s is not None else None
         for s in col.to_pylist()],
        pa.string(),
    )


def md5_hex(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Content fingerprint as md5 hex — matches DuckDB ``md5(text)`` for the
    oracle gate. Per-row hashlib (C speed); at 100 TB scale prefer
    ``hashing.hash64`` for partitioning and keep md5 only where an
    external-standard digest is required."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pa.array(
        [hashlib.md5(s.encode()).hexdigest() if s is not None else None
         for s in col.to_pylist()],
        pa.string(),
    )


def md5_mod(col: pa.ChunkedArray | pa.Array, mod: int,
            width: int = 12) -> "np.ndarray":
    """The checksum-lane digest convention as ONE shared helper:
    ``int(md5(s)[:width], 16) % mod`` per row, matching the DuckDB
    expression ``('0x' || substr(md5(s), 1, width))::UBIGINT % mod``.
    Used by the deterministic sampling/jitter lanes (head sampling,
    simulated arrival delay); a single implementation keeps every site
    on the same width and signedness as the SQL mirror."""
    import numpy as np

    hexes = md5_hex(col)
    return np.fromiter((int(h[:width], 16) % mod
                        for h in hexes.to_pylist()),
                       np.int64, count=len(hexes))


def repetition_stats(col: pa.ChunkedArray | pa.Array) -> dict[str, pa.Array]:
    """Gopher-style repetition signals per document (exact integers so a
    DuckDB oracle hash-matches): ``n_tokens``, ``n_distinct``,
    ``top_token_count`` (count of the modal token), ``top_bigram_count``
    (count of the modal adjacent word-bigram) and ``max_run`` (longest
    consecutive same-token run). Fractions like Gopher's "fraction of
    tokens in the most common 2-gram" are ratios of these columns.

    Tokenization mirrors ``stages/corpusstats.TOKEN_SPLIT_RE`` (lowercase
    ``[a-z]+`` words) for exact oracle parity. One Arrow split +
    dictionary-encode per batch; unigram/bigram modes and run lengths via
    numpy sort/segment kernels — no Python per row or per token.

    Reference analog: the reference filters on attribute predicates
    (processor/filterprocessor); repetition filtering is the LLM-corpus
    counterpart (Rae et al. 2021 "Gopher" §A1.1 quality heuristics).
    """
    from ..stages.corpusstats import _tokens_with_rows

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    flat, rows = _tokens_with_rows(col)
    zeros = lambda: pa.array(np.zeros(n, np.int64))  # noqa: E731
    if not len(flat):
        return {"n_tokens": zeros(), "n_distinct": zeros(),
                "top_token_count": zeros(), "top_bigram_count": zeros(),
                "max_run": zeros()}
    codes = pc.dictionary_encode(flat).indices.to_numpy(
        zero_copy_only=False).astype(np.int64)
    k = int(codes.max()) + 1
    n_tokens = np.bincount(rows, minlength=n)

    def seg_max(vals: np.ndarray, seg_rows: np.ndarray) -> np.ndarray:
        """Max of vals per row id; seg_rows must be non-decreasing."""
        out = np.zeros(n, np.int64)
        if len(seg_rows):
            starts = np.concatenate(
                [[0], np.flatnonzero(seg_rows[1:] != seg_rows[:-1]) + 1])
            out[seg_rows[starts]] = np.maximum.reduceat(vals, starts)
        return out

    # unigram modes: unique (row, code) pairs arrive row-sorted
    pair = rows * k + codes
    uniq, cnt = np.unique(pair, return_counts=True)
    urow = uniq // k
    n_distinct = np.bincount(urow, minlength=n)
    top_token = seg_max(cnt, urow)

    # adjacent bigrams within a row; two-stage encode keeps ids small
    adj = rows[1:] == rows[:-1]
    if adj.any():
        bg = codes[:-1][adj] * k + codes[1:][adj]
        bg_small = np.unique(bg, return_inverse=True)[1]
        brow = rows[:-1][adj]
        buniq, bcnt = np.unique(
            brow * (int(bg_small.max()) + 1) + bg_small, return_counts=True)
        top_bigram = seg_max(bcnt, buniq // (int(bg_small.max()) + 1))
    else:
        top_bigram = np.zeros(n, np.int64)

    # longest same-token run (doc boundaries break runs)
    new_run = np.concatenate(
        [[True], (codes[1:] != codes[:-1]) | (rows[1:] != rows[:-1])])
    run_len = np.bincount(np.cumsum(new_run) - 1)
    max_run = seg_max(run_len, rows[new_run])

    as_pa = lambda v: pa.array(v.astype(np.int64))  # noqa: E731
    return {"n_tokens": as_pa(n_tokens), "n_distinct": as_pa(n_distinct),
            "top_token_count": as_pa(top_token),
            "top_bigram_count": as_pa(top_bigram),
            "max_run": as_pa(max_run)}


def canonicalize_text(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Dedup-prep canonical form: lowercase → non-[a-z0-9 space] folded
    to space → whitespace collapsed → trimmed. Exact-dedup on this form
    catches the case/punctuation/whitespace variants a raw byte-equality
    pass misses (the cheap precursor to MinHash).

    Deliberately NO Unicode normalization: pyarrow 16's
    ``utf8_normalize`` decomposes regardless of the requested form, so
    an NFC step could not be mirrored cross-engine; the non-alnum fold
    makes the result byte-deterministic anyway (any non-ASCII sequence
    collapses to a single space). Mirrored exactly by the DuckDB oracle
    expression ``trim(regexp_replace(regexp_replace(lower(text),
    '[^a-z0-9 ]', ' ', 'g'), ' +', ' ', 'g'))``."""
    out = pc.utf8_lower(col)
    out = pc.replace_substring_regex(out, pattern="[^a-z0-9 ]",
                                     replacement=" ")
    out = pc.replace_substring_regex(out, pattern=" +", replacement=" ")
    out = pc.utf8_trim_whitespace(out)
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


URL_RE = (r'^(?:(?P<scheme>[^:/?#]+):)?'
          r'(?://(?P<host>[^/?#:]*)(?::(?P<port>[0-9]+))?)?'
          r'(?P<path>[^?#]*)'
          r'(?:\?(?P<query>[^#]*))?'
          r'(?:#(?P<fragment>.*))?')


def url_parse(col: pa.ChunkedArray | pa.Array) -> dict[str, pa.Array]:
    """RFC-3986-style URL split (the OTTL ``URL()`` converter analog,
    contrib ``ottl/ottlfuncs``): ONE whole-column RE2 ``extract_regex``
    → scheme/host/port/path/query/fragment string lanes plus an int64
    ``port_num`` (null when absent). Non-participating groups come back
    as empty strings — the exact behavior of DuckDB ``regexp_extract``
    with the same pattern, so the oracle hash-matches with no
    post-processing."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    g = pc.extract_regex(col, pattern=URL_RE)
    out = {f: g.field(f) for f in
           ("scheme", "host", "port", "path", "query", "fragment")}
    port = pc.if_else(pc.equal(out["port"], ""),
                      pa.nulls(len(col), pa.int64()),
                      pc.cast(pc.if_else(pc.equal(out["port"], ""), "0",
                                         out["port"]), pa.int64()))
    out["port_num"] = port
    return out


def convert_case(col: pa.ChunkedArray | pa.Array, mode: str) -> pa.Array:
    """OTTL ``ConvertCase`` converter analog (contrib
    ``ottl/ottlfuncs/func_convert_case.go`` modes): ``upper`` /
    ``lower`` / ``snake`` (lower-upper boundaries get an underscore,
    then lowercased — one RE2 replace, same rule as the DuckDB oracle's
    ``regexp_replace(x, '([a-z0-9])([A-Z])', '\\1_\\2', 'g')``) /
    ``camel`` (first code unit uppercased — SQL
    ``upper(substr(x,1,1)) || substr(x,2)``). Whole-column kernels, no
    Python per row."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if mode == "upper":
        return pc.utf8_upper(col)
    if mode == "lower":
        return pc.utf8_lower(col)
    if mode == "snake":
        return pc.utf8_lower(pc.replace_substring_regex(
            col, pattern=r"([a-z0-9])([A-Z])", replacement=r"\1_\2"))
    if mode == "camel":
        head = pc.utf8_upper(pc.utf8_slice_codeunits(col, 0, 1))
        return pc.binary_join_element_wise(
            head, pc.utf8_slice_codeunits(col, 1, 2 ** 31 - 1), "")
    raise ValueError(f"convert_case: unknown mode {mode!r} "
                     "(upper|lower|snake|camel)")


def substring(col: pa.ChunkedArray | pa.Array, start: int,
              length: int) -> pa.Array:
    """OTTL ``Substring(target, start, length)`` analog — 0-based
    start, code-unit slicing (equal to SQL ``substr(x, start+1,
    length)`` for ASCII lanes)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if start < 0 or length < 0:
        raise ValueError("substring: start and length must be >= 0")
    return pc.utf8_slice_codeunits(col, start, start + length)


def json_path_str(col: pa.ChunkedArray | pa.Array, path: str) -> pa.Array:
    """OTTL ``ParseJSON`` + key access analog (contrib
    ``ottl/ottlfuncs/func_parse_json.go``), narrowed to the vectorized
    case: extract ONE JSON path from a JSON-string column as a string
    — the structured-attribute pull a log pipeline runs per record
    (``$.key`` / ``$.a.b``). Scalar leaves only; missing path, null
    input and MALFORMED JSON all yield null (DuckDB's
    ``json_extract_string`` raises on malformed input — guard the
    oracle with ``json_valid`` when the data can be dirty).

    Polars' Rust ``str.json_path_match`` kernel does the whole column
    at native speed (verified value-parity with DuckDB on scalars,
    nested paths, bools and floats); a stdlib-json per-row fallback
    covers environments without polars. The path contract is validated
    UP FRONT to the dotted-key subset both branches implement
    identically (``$.a`` / ``$.a.b`` — no array indexing), so an
    environment change can't silently alter which paths are accepted.
    Residual fallback divergence: a float literal re-renders through
    ``json.dumps`` (``1.50`` → ``1.5``) while polars returns the raw
    matched text — canonical-form literals only if the fallback must
    be bit-identical."""
    import re as _re

    if not _re.fullmatch(r"\$(\.[A-Za-z_]\w*)+", path):
        raise ValueError(
            f"json_path_str: unsupported path {path!r} — the portable "
            "subset is dotted keys only ($.a / $.a.b)")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    try:
        import polars as pl

        out = pl.from_arrow(col).str.json_path_match(path).to_arrow()
        return out.combine_chunks().cast(pa.string()) \
            if isinstance(out, pa.ChunkedArray) else out.cast(pa.string())
    except ImportError:
        import json

        keys = path[2:].split(".")

        def pull(s):
            if s is None:
                return None
            try:
                v = json.loads(s)
            except ValueError:
                return None
            for k in keys:
                if not isinstance(v, dict) or k not in v:
                    return None
                v = v[k]
            if isinstance(v, (dict, list)) or v is None:
                return None
            if isinstance(v, str):
                return v
            return json.dumps(v)  # bools -> true/false, ints exact

        return pa.array([pull(s) for s in col.to_pylist()], pa.string())


def extract_all(col: pa.ChunkedArray | pa.Array,
                pattern: str) -> pa.Array:
    """OTTL ``ExtractPatterns`` generalized to ALL matches (contrib
    ``ottl/ottlfuncs/func_extract_patterns.go`` returns the first
    match; log pipelines routinely need every one — every IP in a
    line, every tag in a message): the leftmost non-overlapping
    matches of ``pattern`` per row as a ``list<string>`` column —
    SQL ``regexp_extract_all``. Null input → null list; no match →
    empty list (both engines agree).

    Primary kernel: polars ``str.extract_all`` (vectorized Rust
    regex over the whole column); stdlib ``re.findall`` per row is
    the no-polars fallback. Capture groups are rejected up front:
    the engines disagree on group-vs-match extraction, so the
    portable contract is whole-match only (use ``(?:...)`` for
    grouping)."""
    import re as _re

    if _re.compile(pattern).groups:
        raise ValueError(
            "extract_all: capture groups are not portable across "
            "engines (polars returns the whole match, SQL "
            "regexp_extract_all(x, p) ditto, but re.findall returns "
            "the group) — use non-capturing (?:...) groups")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    try:
        import polars as pl

        try:
            out = pl.from_arrow(col).str.extract_all(pattern).to_arrow()
        except Exception as ex:  # Rust regex rejects some patterns
            raise ValueError(
                f"extract_all: pattern {pattern!r} rejected by the "
                "polars (Rust) regex engine — lookaround and "
                "backreferences are not portable; restrict the "
                f"pattern to the RE2-safe subset ({ex})") from None
        if isinstance(out, pa.ChunkedArray):
            out = out.combine_chunks()
        return out.cast(pa.list_(pa.string()))
    except ImportError:
        rx = _re.compile(pattern)
        return pa.array(
            [None if s is None else rx.findall(s)
             for s in col.to_pylist()], pa.list_(pa.string()))


def split_count(col: pa.ChunkedArray | pa.Array, sep: str) -> pa.Array:
    """Number of parts ``Split(target, sep)`` would return (SQL
    ``len(string_split(x, sep))``) — the common analytic use of the
    OTTL Split converter without materializing list columns."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.list_value_length(pc.split_pattern(col, pattern=sep)) \
        .cast(pa.int64())


GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have",
                    "with")


def gopher_quality(col: pa.ChunkedArray | pa.Array) -> dict[str, pa.Array]:
    """Gopher rule-based quality filter (Rae et al. 2021 §A1.1 — the
    standard pretraining-corpus screen) as ONE vectorized pass of exact
    integer features plus the composite ``keep`` flag. All thresholds
    are integer permille comparisons, so the SQL oracle mirrors them
    bit-for-bit:

    - 50 ≤ word count ≤ 100,000 (words = ``\\S+`` runs);
    - mean word length in [3, 10] chars;
    - symbol-to-word ratio ('#' + '...') ≤ 1/10;
    - ≤ 90% of lines start with a bullet, ≤ 30% end with an ellipsis;
    - ≥ 80% of words contain an alphabetic character;
    - ≥ 2 distinct Gopher stop words present.
    """
    n_words = pc.count_substring_regex(col, pattern=r"\S+").cast(pa.int64())
    word_chars = pc.utf8_length(pc.replace_substring_regex(
        col, r"\s", replacement="")).cast(pa.int64())
    n_hash = pc.count_substring(col, "#").cast(pa.int64())
    n_ellipsis = pc.count_substring_regex(col, pattern=r"\.\.\.") \
        .cast(pa.int64())
    n_lines = pc.add(pc.count_substring(col, "\n"),
                     pa.scalar(1)).cast(pa.int64())
    n_bullet_lines = pc.count_substring_regex(
        col, pattern=r"(^|\n)[ \t]*[-*•]").cast(pa.int64())
    n_ellipsis_lines = pc.count_substring_regex(
        col, pattern=r"\.\.\.[ \t]*(\n|$)").cast(pa.int64())
    n_alpha_words = pc.count_substring_regex(
        col, pattern=r"\S*[A-Za-z]\S*").cast(pa.int64())
    n_stop = None
    for w in GOPHER_STOPWORDS:
        hit = pc.cast(pc.match_substring_regex(
            col, rf"(^|[^a-z]){w}([^a-z]|$)"), pa.int64())
        n_stop = hit if n_stop is None else pc.add(n_stop, hit)

    nw = n_words.to_numpy(zero_copy_only=False)
    wc = word_chars.to_numpy(zero_copy_only=False)
    sym = (n_hash.to_numpy(zero_copy_only=False)
           + n_ellipsis.to_numpy(zero_copy_only=False))
    nl = n_lines.to_numpy(zero_copy_only=False)
    nb = n_bullet_lines.to_numpy(zero_copy_only=False)
    ne = n_ellipsis_lines.to_numpy(zero_copy_only=False)
    na = n_alpha_words.to_numpy(zero_copy_only=False)
    ns = n_stop.to_numpy(zero_copy_only=False)
    keep = ((nw >= 50) & (nw <= 100_000)
            & (wc >= 3 * nw) & (wc <= 10 * nw)
            & (sym * 10 <= nw)
            & (nb * 10 <= 9 * nl)
            & (ne * 10 <= 3 * nl)
            & (na * 5 >= 4 * nw)
            & (ns >= 2))
    return {"n_words": n_words, "word_chars": word_chars,
            "n_symbols": pa.array(sym), "n_lines": n_lines,
            "n_bullet_lines": n_bullet_lines,
            "n_ellipsis_lines": n_ellipsis_lines,
            "n_alpha_words": n_alpha_words,
            "n_stopwords": n_stop,
            "keep": pa.array(keep)}


def blocklist_counts(col: pa.ChunkedArray | pa.Array, words: list[str],
                     ) -> dict[str, pa.Array]:
    """Word-boundary blocklist screen — the C4-style "bad words" filter
    (Raffel et al. 2020 dropped any page containing a listed word):
    per row, ``n_hits`` = whole-word occurrences of ANY listed word
    (case-insensitive) and ``keep`` = 1 iff no hits.

    One compiled RE2 alternation ``\\b(?:w1|w2|...)\\b`` over the
    lowered text — a single vectorized kernel regardless of list size,
    never a per-word pass; both Arrow and DuckDB run RE2, so SQL
    ``len(regexp_extract_all(lower(text), pattern))`` mirrors exactly.
    Words must be plain ``[a-z0-9]+`` tokens (validated loudly — a
    metacharacter would silently change the pattern)."""
    if not words:
        raise ValueError("blocklist_counts: words must be non-empty")
    for w in words:
        if not _BLOCK_WORD_RE.match(w):
            raise ValueError(
                f"blocklist_counts: word {w!r} is not a plain [a-z0-9]+ "
                "token — regex metacharacters are not allowed")
    pattern = r"\b(?:" + "|".join(words) + r")\b"
    low = pc.utf8_lower(col)
    hits = pc.count_substring_regex(low, pattern=pattern).cast(pa.int64())
    keep = pc.cast(pc.equal(hits, 0), pa.int64())
    return {"n_hits": hits, "keep": keep}


_BLOCK_WORD_RE = re.compile(r"^[a-z0-9]+$")


def readability_counts(col: pa.ChunkedArray | pa.Array
                       ) -> dict[str, pa.Array]:
    """Flesch reading-ease lanes as EXACT integers — the classic
    readability screen (Flesch 1948; the document-quality rung between
    the length heuristics of :func:`quality_features` and the Gopher
    rules of :func:`gopher_quality`).

    Counting rules, chosen so BOTH engines run the identical RE2 on the
    identical lowered text (DuckDB ``len(regexp_extract_all(...))``):

    - words     = ``[a-z0-9]+`` runs,
    - sentences = 1 + ``[.!?]+`` runs (a final sentence needs no
      terminator; punctuation-free corpora degrade to whole-doc = one
      sentence, which keeps the formula defined rather than vacuous),
    - syllables = ``[aeiouy]+`` vowel-group runs (the standard cheap
      syllable proxy; exact syllabification needs a dictionary).

    The score itself stays integer: with w words, s sentences, y
    syllable groups, ``ease_milli = 206835 − 1015·w//s − 84600·y//w``
    (each term floor-divided exactly as SQL ``//`` on non-negative
    operands — Flesch's 206.835 − 1.015·w/s − 84.6·y/w in millis).
    Empty docs (w == 0) emit null lanes rather than a fake score."""
    low = pc.utf8_lower(col)
    w = pc.count_substring_regex(low, pattern=r"[a-z0-9]+").cast(pa.int64())
    s = pc.add(pc.count_substring_regex(low, pattern=r"[.!?]+")
               .cast(pa.int64()), 1)
    y = pc.count_substring_regex(low, pattern=r"[aeiouy]+").cast(pa.int64())
    wn = (w.combine_chunks() if isinstance(w, pa.ChunkedArray) else w) \
        .to_numpy(zero_copy_only=False)
    sn = (s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s) \
        .to_numpy(zero_copy_only=False)
    yn = (y.combine_chunks() if isinstance(y, pa.ChunkedArray) else y) \
        .to_numpy(zero_copy_only=False)
    ok = wn > 0
    wp, sp, yp = (np.maximum(wn, 1), np.maximum(sn, 1), yn)
    ease = 206835 - (1015 * wp) // sp - (84600 * yp) // wp
    return {"n_words": w, "n_sentences": s, "n_syllables": y,
            "ease_milli": pa.array(ease.astype(np.int64), mask=~ok)}


def parse_kv(col: pa.ChunkedArray | pa.Array, keys: list[str],
             ) -> dict[str, pa.Array]:
    """Logfmt key=value extraction (the OTTL ``ParseKeyValue``
    converter analog, reference
    ottl/ottlfuncs/func_parse_key_value.go): pull the named ``keys``
    out of space-separated ``k=v`` lines. A value is either a
    double-quoted run (``k="v with spaces"`` — no embedded quotes) or
    a bare token (``k=v``); the surrounding quotes are stripped.
    Missing key → NULL. One RE2 ``extract_regex`` per requested key —
    vectorized over the whole column, never per row; DuckDB's
    ``regexp_extract`` runs the identical RE2 pattern, so the lanes
    sit behind exact SQL oracles."""
    out: dict[str, pa.Array] = {}
    for k in keys:
        if not _KV_KEY_RE.match(k):
            raise ValueError(
                f"parse_kv: key {k!r} must be a bare logfmt key "
                "([A-Za-z0-9_.-]+)")
        pat = rf'(?:^| ){re.escape(k)}=(?P<v>"[^"]*"|[^ ]+)'
        st = pc.extract_regex(col, pat)
        v = pc.struct_field(st, "v")
        quoted = pc.and_kleene(
            pc.and_kleene(pc.starts_with(v, '"'), pc.ends_with(v, '"')),
            pc.greater_equal(pc.utf8_length(v), 2))
        stripped = pc.utf8_slice_codeunits(v, 1, -1)
        out[k] = pc.if_else(quoted, stripped, v).combine_chunks() \
            if isinstance(v, pa.ChunkedArray) else pc.if_else(
                quoted, stripped, v)
    return out


_KV_KEY_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def compression_ratio(col: pa.ChunkedArray | pa.Array, *,
                      level: int = 6) -> dict[str, pa.Array]:
    """zlib compression ratio per document — the classic redundancy
    screen (highly repetitive boilerplate compresses far below natural
    prose, a standard web-corpus quality signal alongside the Gopher
    repetition lanes). Returns ``n_bytes``, ``n_compressed`` and
    ``ratio_permille = 1000·compressed // raw`` (NULL for empty/null
    text). Per-row zlib like the md5/sha digest helpers (DEFLATE is
    inherently per-document and C-speed); run it inside an actor-pool
    ``map_batches`` stage at scale. No SQL oracle exists for DEFLATE —
    planted-truth tested instead."""
    import zlib

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    raw, comp = [], []
    for s in col.to_pylist():
        if s is None:
            raw.append(None)
            comp.append(None)
            continue
        b = s.encode()
        raw.append(len(b))
        comp.append(len(zlib.compress(b, level)))
    n = pa.array(raw, pa.int64())
    c = pa.array(comp, pa.int64())
    nn = np.array([x if x else 0 for x in raw], np.int64)
    cc = np.array([x if x else 0 for x in comp], np.int64)
    ok = nn > 0
    ratio = np.zeros(len(nn), np.int64)
    np.floor_divide(1000 * cc, nn, out=ratio, where=ok)
    return {"n_bytes": n, "n_compressed": c,
            "ratio_permille": pa.array(ratio, pa.int64(), mask=~ok)}


def base64_encode(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """OTTL Base64 of a string column (the counterpart of the
    reference's ottlfuncs Base64Decode converter): standard alphabet
    with padding, matching DuckDB ``to_base64(CAST(x AS BLOB))`` for
    the oracle gate. Per-row binascii (C speed) like the digest
    helpers."""
    import base64 as _b64

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pa.array(
        [_b64.b64encode(s.encode()).decode() if s is not None else None
         for s in col.to_pylist()], pa.string())


def base64_decode(col: pa.ChunkedArray | pa.Array, *,
                  strict: bool = True) -> pa.Array:
    """OTTL Base64Decode (reference
    ottl/ottlfuncs/func_base64decode.go): decode standard-alphabet
    base64 back to the original string. Malformed input raises when
    ``strict`` (the reference errors too), else yields NULL."""
    import base64 as _b64
    import binascii

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    out = []
    for s in col.to_pylist():
        if s is None:
            out.append(None)
            continue
        try:
            out.append(_b64.b64decode(s, validate=True).decode())
        except (binascii.Error, UnicodeDecodeError) as exc:
            if strict:
                raise ValueError(
                    f"base64_decode: malformed payload {s[:32]!r}: "
                    f"{exc}") from exc
            out.append(None)
    return pa.array(out, pa.string())


_DUR_RE = re.compile(r"^(?:(\d+)h)?(?:(\d+)m)?(?:(\d+)s)?(?:(\d+)ms)?$")


def parse_duration_us(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Go-style duration parse → microseconds (the OTTL ``Duration()``
    converter, reference ottl/ottlfuncs/func_duration.go, restricted
    to the integer h/m/s/ms lanes so the result is exact): '1h30m',
    '45s', '250ms', '2h0m5s'. One RE2 ``extract_regex`` over the whole
    column per unit — vectorized, and the identical pattern runs in
    DuckDB regexp_extract for the oracle. Empty/malformed → NULL
    (mirror with a NULLIF-guarded SQL CASE)."""
    pat = (r"^(?:(?P<h>\d+)h)?(?:(?P<m>\d+)m)?"
           r"(?:(?P<s>\d+)s)?(?:(?P<ms>\d+)ms)?$")
    st = pc.extract_regex(col, pat)
    if isinstance(st, pa.ChunkedArray):
        st = st.combine_chunks()
    total = None
    for name, mult in (("h", 3_600_000_000), ("m", 60_000_000),
                       ("s", 1_000_000), ("ms", 1_000)):
        part = pc.struct_field(st, name)
        # non-participating group -> '' -> null after cast guard
        num = pc.cast(pc.if_else(pc.equal(part, ""),
                                 pa.scalar("0"), part), pa.int64())
        term = pc.multiply(num, pa.scalar(mult, pa.int64()))
        total = term if total is None else pc.add(total, term)
    # whole-string mismatch (or empty string) -> extract_regex null;
    # an empty-but-matching '' input parses as 0 under the regex, which
    # Go rejects — treat all-groups-empty as NULL too.
    all_empty = None
    for name in ("h", "m", "s", "ms"):
        e = pc.equal(pc.struct_field(st, name), "")
        all_empty = e if all_empty is None else pc.and_(all_empty, e)
    return pc.if_else(pc.fill_null(all_empty, True),
                      pa.scalar(None, pa.int64()), total)


SENTENCE_RE = "[.!?]+ +"


def sentence_stats(col: pa.ChunkedArray | pa.Array,
                   pattern: str = SENTENCE_RE) -> dict[str, pa.Array]:
    """Per-document sentence segmentation stats (the granularity screen
    under every readability / chunking pass): split on ``pattern``
    (RE2 — identical semantics to DuckDB ``string_split_regex``) and
    emit ``n_sents``, ``max_sent_chars``, ``sum_sent_chars`` as exact
    integers. A split always yields ≥1 segment (``'' → ['']``), so the
    segment reduces are total. One flatten + two ``reduceat`` passes —
    no per-row Python."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError("sentence_stats: null text")
    sents = pc.split_pattern_regex(col, pattern=pattern)
    n = pc.list_value_length(sents).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(sents)
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    if len(n):
        starts = np.concatenate(([0], np.cumsum(n)[:-1]))
        mx = np.maximum.reduceat(lens, starts)
        sm = np.add.reduceat(lens, starts)
    else:
        mx = sm = np.empty(0, np.int64)
    return {"n_sents": pa.array(n),
            "max_sent_chars": pa.array(mx),
            "sum_sent_chars": pa.array(sm)}
