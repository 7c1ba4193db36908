"""Inter-rater agreement (Cohen's kappa) as exact integer lanes — the
label-quality audit step of an annotation/classifier pipeline: given two
label columns per record (two annotators, or a new model vs the
incumbent), how much do they agree beyond chance?

    kappa = (p_o - p_e) / (1 - p_e)

with p_o the observed agreement rate and p_e the chance rate implied by
the two raters' marginal class distributions (Cohen 1960). Everything
is kept rational: per group we emit

    n              total double-labeled records
    n_agree        records where the labels match
    pe_num         sum_c  n_a(c) * n_b(c)     (chance numerator, x n^2)
    kappa_permille trunc(1000 * (n*n_agree - pe_num) / (n*n - pe_num))

so ``kappa = (n*n_agree - pe_num) / (n*n - pe_num)`` exactly, and the
permille uses SQL's TRUNCATING integer division (negative kappa — worse
than chance — truncates toward zero like DuckDB ``//``). NULL when the
denominator is zero (both raters constant: kappa undefined).

Scale shape: the corpus reduces ONCE to the (group, a, b) count table —
bounded by groups x classes^2, screened before the tree combine's
single task exists (HLL on the group key, structural [0, max_classes)
validation on the labels per batch) — and the kappa arithmetic is a
driver pass over that skinny table in PYTHON ints (no intermediate
overflow), with an int64 range check on emit.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_I64_MAX = (1 << 63) - 1


def _trunc_div(num: int, den: int) -> int:
    """DuckDB ``//`` semantics: truncate toward zero (Python floors)."""
    q = abs(num) // abs(den)
    return -q if (num < 0) != (den < 0) else q


def rater_agreement(ds: ray.data.Dataset, group_key: str, a_col: str,
                    b_col: str, *, max_classes: int = 16,
                    max_groups: int = 10_000) -> pa.Table:
    """Per-``group_key`` Cohen's kappa lanes between integer label
    columns ``a_col`` and ``b_col`` (classes in ``[0, max_classes)`` —
    validated per batch, so a runaway label domain fails in the map
    stage, never in the combine). Rows with a NULL label on either
    side are excluded (SQL COUNT semantics over the pair)."""
    mc = int(max_classes)
    if mc < 2:
        raise ValueError("rater_agreement: max_classes must be >= 2")

    def prep(t: pa.Table) -> pa.Table:
        a, b = t.column(a_col), t.column(b_col)
        ok = pc.and_(pc.is_valid(a), pc.is_valid(b))
        t = t.filter(ok)
        for name, col in ((a_col, t.column(a_col)),
                          (b_col, t.column(b_col))):
            if not pa.types.is_integer(col.type):
                raise ValueError(
                    f"rater_agreement: label column {name!r} must be "
                    f"integer class ids, got {col.type}")
            if t.num_rows:
                lo = pc.min(col).as_py()
                hi = pc.max(col).as_py()
                if lo < 0 or hi >= mc:
                    raise ValueError(
                        f"rater_agreement: {name!r} has labels outside "
                        f"[0, {mc}) (saw [{lo}, {hi}]); raise "
                        "max_classes or fix the labeler")
        return t.select([group_key, a_col, b_col])

    labeled = ds.map_batches(prep, batch_format="pyarrow")

    # guard BEFORE the tree combine's single task exists (the
    # exact_global_quantiles lesson): one map-only HLL pass bounds the
    # group domain; classes are already bounded structurally above.
    from .aggregate import grouped_count
    from .sketch import approx_distinct

    # approx_distinct projects internally; select_columns on the
    # schema-less post-map_batches dataset would trigger a limit-1
    # schema-probe execution of the whole upstream (Ray 2.49).
    est = approx_distinct(labeled, group_key)
    if est > float(max_groups):
        raise ValueError(
            f"rater_agreement: ~{int(est):,} groups (HLL estimate > "
            f"max_groups={max_groups:,}); the count table would not fit "
            "one task — shard by group range or raise max_groups")

    counts = grouped_count(labeled, [group_key, a_col, b_col],
                           count_name="_n")
    counts = counts.materialize()
    cs = counts.schema(fetch_if_missing=False)
    if cs is not None and group_key in cs.base_schema.names:
        gtype = cs.base_schema.field(group_key).type
    else:
        # fully-empty count table: a materialized empty dataset reports
        # no schema (and neither does a fully-empty input) — fall back
        # to the input's group-key type when known, else pin string
        # (the quantile_map empty-path convention).
        in_schema = ds.schema(fetch_if_missing=False)
        if in_schema is not None and group_key in in_schema.base_schema.names:
            gtype = in_schema.base_schema.field(group_key).type
        else:
            gtype = pa.string()
    pdf = counts.to_pandas()
    if not len(pdf):
        # Ray to_pandas drops all columns on a fully-empty dataset —
        # build the empty result with an explicit schema instead.
        return pa.schema([(group_key, gtype), ("n", pa.int64()),
                          ("n_agree", pa.int64()), ("pe_num", pa.int64()),
                          ("kappa_permille", pa.int64())]).empty_table()

    groups: dict = {}
    for rec in pdf.to_dict("records"):
        g = rec[group_key]
        st = groups.setdefault(g, {"n": 0, "agree": 0, "na": {}, "nb": {}})
        cnt = int(rec["_n"])
        ca, cb = int(rec[a_col]), int(rec[b_col])
        st["n"] += cnt
        if ca == cb:
            st["agree"] += cnt
        st["na"][ca] = st["na"].get(ca, 0) + cnt
        st["nb"][cb] = st["nb"].get(cb, 0) + cnt

    out = {group_key: [], "n": [], "n_agree": [], "pe_num": [],
           "kappa_permille": []}
    for g in sorted(groups, key=lambda x: (x is None, x)):
        st = groups[g]
        n, agree = st["n"], st["agree"]
        pe = sum(cnt * st["nb"].get(c, 0) for c, cnt in st["na"].items())
        den = n * n - pe
        kappa = _trunc_div(1000 * (n * agree - pe), den) if den else None
        for name, v in (("n", n), ("pe_num", pe),
                        ("kappa_permille", kappa or 0)):
            if abs(v) > _I64_MAX:
                raise ValueError(
                    f"rater_agreement: lane {name!r} for group {g!r} "
                    f"overflows int64 ({v}); shard the group")
        out[group_key].append(g)
        out["n"].append(n)
        out["n_agree"].append(agree)
        out["pe_num"].append(pe)
        out["kappa_permille"].append(kappa)

    return pa.table({
        group_key: pa.array(out[group_key], gtype),
        "n": pa.array(out["n"], pa.int64()),
        "n_agree": pa.array(out["n_agree"], pa.int64()),
        "pe_num": pa.array(out["pe_num"], pa.int64()),
        "kappa_permille": pa.array(out["kappa_permille"], pa.int64()),
    })


def binary_eval(ds: ray.data.Dataset, keys: list[str], pred_col: str,
                label_col: str, *, n_buckets: int | str = "auto"
                ) -> ray.data.Dataset:
    """Per-``keys`` binary-classifier evaluation as exact integer lanes
    — the confusion matrix plus truncating-permille precision / recall /
    F1 (the model-vs-ground-truth scorecard every screening-model
    deploy gate reads):

        tp fp fn tn                 confusion counts
        precision_permille          trunc(1000·tp / (tp+fp))
        recall_permille             trunc(1000·tp / (tp+fn))
        f1_permille                 trunc(1000·2·tp / (2·tp+fp+fn))

    permilles are NULL when their denominator is zero (no predicted /
    no actual positives). ``pred_col`` and ``label_col`` must be 0/1
    integers (validated per batch); rows with a NULL on either side are
    excluded (SQL COUNT-over-pair semantics).

    Scale shape: four indicator lanes reduce through ONE two-phase
    ``grouped_agg`` (partials per batch, so keys may be unbounded); the
    permille arithmetic is one vectorized pass
    over the skinny per-key table. Nothing wide ever shuffles."""
    import numpy as np

    from .aggregate import grouped_agg

    def prep(t: pa.Table) -> pa.Table:
        p, y = t.column(pred_col), t.column(label_col)
        ok = pc.and_(pc.is_valid(p), pc.is_valid(y))
        t = t.filter(ok)
        p, y = t.column(pred_col), t.column(label_col)
        for name, col in ((pred_col, p), (label_col, y)):
            if not pa.types.is_integer(col.type):
                raise ValueError(
                    f"binary_eval: {name!r} must be 0/1 integer, "
                    f"got {col.type}")
            if t.num_rows:
                lo, hi = pc.min(col).as_py(), pc.max(col).as_py()
                if lo < 0 or hi > 1:
                    raise ValueError(
                        f"binary_eval: {name!r} has values outside "
                        f"{{0,1}} (saw [{lo}, {hi}])")
        p64 = pc.cast(p, pa.int64())
        y64 = pc.cast(y, pa.int64())
        one = pa.scalar(1, pa.int64())
        cols = {k: t.column(k) for k in keys}
        cols["_tp"] = pc.multiply(p64, y64)
        cols["_fp"] = pc.multiply(p64, pc.subtract(one, y64))
        cols["_fn"] = pc.multiply(pc.subtract(one, p64), y64)
        cols["_tn"] = pc.multiply(pc.subtract(one, p64),
                                  pc.subtract(one, y64))
        return pa.table(cols)

    pre = ds.map_batches(prep, batch_format="pyarrow")
    agg = grouped_agg(pre, list(keys),
                      sum_cols={"tp": "_tp", "fp": "_fp",
                                "fn": "_fn", "tn": "_tn"},
                      n_buckets=n_buckets)

    def lanes(t: pa.Table) -> pa.Table:
        tp = t.column("tp").to_numpy(zero_copy_only=False)
        fp = t.column("fp").to_numpy(zero_copy_only=False)
        fn = t.column("fn").to_numpy(zero_copy_only=False)
        # counts are corpus-bounded ints; 2000*tp fits int64 far below
        # any realistic corpus (tp < 4.6e15 rows per key).
        def permille(num, den):
            ok = den > 0
            q = np.zeros(len(num), dtype=np.int64)
            np.floor_divide(1000 * num, den, out=q, where=ok)
            return pa.array(q, pa.int64(), mask=~ok)
        out = {c: t.column(c) for c in t.column_names}
        out["precision_permille"] = permille(tp, tp + fp)
        out["recall_permille"] = permille(tp, tp + fn)
        out["f1_permille"] = permille(2 * tp, 2 * tp + fp + fn)
        return pa.table(out)

    return agg.map_batches(lanes, batch_format="pyarrow")


def grouped_auc(ds: ray.data.Dataset, key: str, score_col: str,
                label_col: str,
                n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Per-``key`` exact ROC AUC as integer lanes — the
    threshold-free ranking quality of a scoring model against binary
    ground truth, computed through the Mann–Whitney identity with
    midrank tie handling (ties contribute 1/2):

        n_pos n_neg      class counts
        u2               2·U = Σ_pos(2·rank + peers − 1) − n_pos·(n_pos+1)
        auc_permille     trunc(1000·u2 / (2·n_pos·n_neg))

    so ``AUC = u2 / (2·n_pos·n_neg)`` exactly (doubling keeps the
    half-credit ties integer). NULL permille when a class is absent.
    Scores must be integers (exact rank arithmetic — band floats to
    cents first); labels 0/1.

    Scale shape: ONE bucket exchange on ``key``; per bucket one sort
    (key, score) + segment-rebased ranks and tie runs via
    ``key_segments`` — no Python per key, keys unbounded."""
    import numpy as np

    from .bucketing import bucketed_map_groups, key_segments

    def fn(t: pa.Table) -> pa.Table:
        s, y = t.column(score_col), t.column(label_col)
        ok = pc.and_(pc.is_valid(s), pc.is_valid(y))
        t = t.filter(ok)
        if not pa.types.is_integer(t.column(score_col).type):
            raise ValueError(
                f"grouped_auc: {score_col!r} must be integer (band "
                f"float scores to cents first), got "
                f"{t.column(score_col).type}")
        y_col = t.column(label_col)
        if not pa.types.is_integer(y_col.type):
            raise ValueError(
                f"grouped_auc: {label_col!r} must be 0/1 integer, got "
                f"{y_col.type}")
        if t.num_rows:
            lo, hi = pc.min(y_col).as_py(), pc.max(y_col).as_py()
            if lo < 0 or hi > 1:
                raise ValueError(
                    f"grouped_auc: {label_col!r} outside {{0,1}} "
                    f"(saw [{lo}, {hi}])")
        kt = t.column(key).type
        if t.num_rows == 0:
            return pa.schema([
                (key, kt), ("n_pos", pa.int64()), ("n_neg", pa.int64()),
                ("u2", pa.int64()),
                ("auc_permille", pa.int64())]).empty_table()
        t = t.sort_by([(key, "ascending"), (score_col, "ascending")])
        k = t.column(key).to_numpy(zero_copy_only=False)
        s = t.column(score_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        y = t.column(label_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        n = len(k)
        _, seg_start = key_segments(k)
        # per-key 1-based SQL rank(): ties share the rank of their
        # first row; peers = tie-run length on (key, score).
        pos = np.arange(n, dtype=np.int64)
        tie_new = np.ones(n, dtype=bool)
        tie_new[1:] = (k[1:] != k[:-1]) | (s[1:] != s[:-1])
        tie_start = pos[tie_new][np.cumsum(tie_new) - 1]
        run_len = np.diff(np.append(np.flatnonzero(tie_new), n))
        peers = np.repeat(run_len, run_len)
        rank = tie_start - seg_start + 1
        # guard the u2 arithmetic: midrank2 <= 2n per segment; the
        # positive-rank sum is bounded by n^2 per key — loud check.
        midrank2 = 2 * rank + peers - 1
        # segment reduce via reduceat on the SORTED int64 lanes — exact
        # (a float-weighted bincount would lose bits above 2^53).
        bounds = np.flatnonzero(np.append(True, k[1:] != k[:-1]))
        seg_len = np.diff(np.append(bounds, n))
        # 1000·u2 <= 2000·n_pos·n_neg <= 500·n² must fit int64 ->
        # n <= sqrt((2^63-1)/500) ≈ 1.35e8 per key
        if seg_len.max() > 135_000_000:
            raise ValueError(
                "grouped_auc: a key exceeds 1.35e8 rows — 1000·u2 "
                "would overflow int64; pre-slice the corpus")
        npos = np.add.reduceat(y, bounds)
        nneg = np.add.reduceat(1 - y, bounds)
        rpos2 = np.add.reduceat(np.where(y == 1, midrank2, 0), bounds)
        u2 = rpos2 - npos * (npos + 1)
        den = 2 * npos * nneg
        ok_den = den > 0
        # u2 >= 0 always, so floor == DuckDB's truncating //.
        permille = np.zeros(len(bounds), dtype=np.int64)
        np.floor_divide(1000 * u2, den, out=permille, where=ok_den)
        return pa.table({
            key: pa.array(k[bounds], type=kt),
            "n_pos": pa.array(npos), "n_neg": pa.array(nneg),
            "u2": pa.array(u2),
            "auc_permille": pa.array(permille, pa.int64(), mask=~ok_den)})

    return bucketed_map_groups(ds, key, fn, n_buckets=n_buckets)


def gini_impurity(ds: ray.data.Dataset, key: str, cat_col: str,
                  n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Per-``key`` Gini impurity of a categorical column as exact
    rationals — the class-mix diversity lane (1 − Σ p_c²) behind
    split-quality and slice-skew audits:

        n               rows in the group
        gini_num        n² − Σ_c n_c²     (impurity numerator, × n²)
        gini_permille   1000·gini_num // n²   (floor: numerator ≥ 0)

    Scale shape: the corpus reduces to the (key, cat) count table via
    per-batch partials + ONE bucket exchange on ``key`` (keys and
    categories both unbounded — a key's distinct cats land in one
    bucket task, bounded by the per-batch partials); the Σn_c² fold is a
    segment reduce over that skinny table."""
    import numpy as np

    from .aggregate import grouped_count
    from .bucketing import bucketed_map_groups

    counts = grouped_count(ds.select_columns([key, cat_col]),
                           [key, cat_col], count_name="_c")

    def fold(t: pa.Table) -> pa.Table:
        kt = t.column(key).type
        if t.num_rows == 0:
            return pa.schema([
                (key, kt), ("n", pa.int64()), ("gini_num", pa.int64()),
                ("gini_permille", pa.int64())]).empty_table()
        t = t.sort_by([(key, "ascending")])
        k = t.column(key).to_numpy(zero_copy_only=False)
        c = t.column("_c").to_numpy(zero_copy_only=False).astype(np.int64)
        new = np.append(True, k[1:] != k[:-1])
        bounds = np.flatnonzero(new)
        # exact int64 segment sums (a float-weighted bincount loses
        # bits above 2^53); guard BEFORE squaring: 1000·(n²−Σc²) needs
        # 1000·n² <= 2^63-1 -> n <= sqrt((2^63-1)/1000) ≈ 9.5e7
        n = np.add.reduceat(c, bounds)
        if len(n) and n.max() > 95_000_000:
            raise ValueError(
                "gini_impurity: a key exceeds 9.5e7 rows — 1000·n² "
                "would overflow int64; pre-slice the corpus")
        sq = np.add.reduceat(c * c, bounds)
        num = n * n - sq
        permille = (1000 * num) // (n * n)
        return pa.table({
            key: pa.array(k[bounds], type=kt),
            "n": pa.array(n), "gini_num": pa.array(num),
            "gini_permille": pa.array(permille)})

    return bucketed_map_groups(counts, key, fold, n_buckets=n_buckets)


def multiclass_eval(ds: ray.data.Dataset, pred_col: str, label_col: str,
                    *, max_classes: int = 1000) -> pa.Table:
    """Per-class one-vs-rest evaluation of a multiclass classifier —
    for every class appearing as a prediction or a label: tp / fp / fn
    plus truncating precision / recall / F1 permilles (NULL when the
    denominator is zero). Rows with a NULL on either side are excluded.

    Scale shape: the corpus reduces ONCE to the (pred, label) confusion
    table — at most ``max_classes``² rows, verified on the REDUCED
    table's count before anything lands on the driver — then the
    one-vs-rest lanes are a driver pass over that skinny table in
    Python ints."""
    from .aggregate import grouped_count

    def prep(t: pa.Table) -> pa.Table:
        p, y = t.column(pred_col), t.column(label_col)
        return t.filter(pc.and_(pc.is_valid(p), pc.is_valid(y))).select(
            [pred_col, label_col])

    labeled = ds.map_batches(prep, batch_format="pyarrow")
    counts = grouped_count(labeled, [pred_col, label_col],
                           count_name="_n").materialize()
    n_cells = counts.count()
    if n_cells > int(max_classes) ** 2:
        raise ValueError(
            f"multiclass_eval: {n_cells:,} confusion cells exceed "
            f"max_classes²={int(max_classes) ** 2:,} — the label domain "
            "is not categorical; band it first")
    cs = counts.schema(fetch_if_missing=False)
    if cs is not None and pred_col in cs.base_schema.names:
        ctype = cs.base_schema.field(pred_col).type
    else:
        ctype = pa.string()
    out_schema = pa.schema([
        ("cls", ctype), ("tp", pa.int64()), ("fp", pa.int64()),
        ("fn", pa.int64()), ("precision_permille", pa.int64()),
        ("recall_permille", pa.int64()), ("f1_permille", pa.int64())])
    pdf = counts.to_pandas()
    if not len(pdf):
        return out_schema.empty_table()
    tp: dict = {}
    pred_tot: dict = {}
    label_tot: dict = {}
    for rec in pdf.to_dict("records"):
        p, y, n = rec[pred_col], rec[label_col], int(rec["_n"])
        pred_tot[p] = pred_tot.get(p, 0) + n
        label_tot[y] = label_tot.get(y, 0) + n
        if p == y:
            tp[p] = tp.get(p, 0) + n
    classes = sorted(set(pred_tot) | set(label_tot),
                     key=lambda x: (x is None, x))
    out = {"cls": [], "tp": [], "fp": [], "fn": [],
           "precision_permille": [], "recall_permille": [],
           "f1_permille": []}

    def permille(num: int, den: int):
        return (1000 * num) // den if den else None

    for c in classes:
        t_ = tp.get(c, 0)
        fp_ = pred_tot.get(c, 0) - t_
        fn_ = label_tot.get(c, 0) - t_
        out["cls"].append(c)
        out["tp"].append(t_)
        out["fp"].append(fp_)
        out["fn"].append(fn_)
        out["precision_permille"].append(permille(t_, t_ + fp_))
        out["recall_permille"].append(permille(t_, t_ + fn_))
        out["f1_permille"].append(permille(2 * t_, 2 * t_ + fp_ + fn_))
    return pa.table({
        "cls": pa.array(out["cls"], ctype),
        "tp": pa.array(out["tp"], pa.int64()),
        "fp": pa.array(out["fp"], pa.int64()),
        "fn": pa.array(out["fn"], pa.int64()),
        "precision_permille": pa.array(out["precision_permille"],
                                       pa.int64()),
        "recall_permille": pa.array(out["recall_permille"], pa.int64()),
        "f1_permille": pa.array(out["f1_permille"], pa.int64())})


def unigram_overlap(ds: ray.data.Dataset, a_col: str, b_col: str, *,
                    id_cols: list[str],
                    pattern: str = r"[a-z0-9]+") -> ray.data.Dataset:
    """ROUGE-1 multiset overlap per row — the reference-based text-eval
    lane (Lin 2004) beside the label metrics above: for each (candidate,
    reference) pair, ``overlap = Σ_w min(count_a(w), count_b(w))`` over
    the token multisets, with ``n_a``/``n_b`` token counts and the exact
    ``f1_permille = 2000·overlap // (n_a + n_b)`` (for multiset overlap
    2PR/(P+R) collapses to exactly that rational — P = o/n_a, R = o/n_b).

    Map-only: every pair is decided inside its own batch — tokens flatten
    to one (row, token) table per side, one Arrow group_by counts them,
    one Arrow inner join + min/scatter folds the intersection back to a
    per-row lane. No exchange, no per-row Python. A null text on either
    side yields null lanes (SQL join semantics would silently drop the
    row instead — the mask keeps the row visible)."""
    import numpy as np

    from ..functions.text import extract_all

    def counts(lst: pa.Array) -> pa.Table:
        flat = pc.list_flatten(lst)
        par = pc.list_parent_indices(lst)
        return pa.table({"r": par, "tok": flat}).group_by(
            ["r", "tok"]).aggregate([("tok", "count")])

    def lanes(t: pa.Table) -> pa.Table:
        la = extract_all(pc.utf8_lower(t.column(a_col)), pattern)
        lb = extract_all(pc.utf8_lower(t.column(b_col)), pattern)
        n = t.num_rows
        n_a = pc.list_value_length(la).cast(pa.int64())
        n_b = pc.list_value_length(lb).cast(pa.int64())
        overlap = np.zeros(n, np.int64)
        j = counts(la).join(counts(lb), keys=["r", "tok"],
                            join_type="inner", right_suffix="_b")
        if j.num_rows:
            mins = pc.min_element_wise(
                j.column("tok_count"), j.column("tok_count_b")
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            np.add.at(overlap, j.column("r").to_numpy(
                zero_copy_only=False), mins)
        valid = np.asarray(pc.and_(pc.is_valid(n_a), pc.is_valid(n_b)))
        na = np.asarray(pc.fill_null(n_a, 0))
        nb = np.asarray(pc.fill_null(n_b, 0))
        denom = na + nb
        f1 = (2000 * overlap) // np.maximum(denom, 1)
        cols = {c: t.column(c) for c in id_cols}
        cols["n_a"] = n_a
        cols["n_b"] = n_b
        cols["overlap"] = pa.array(overlap, mask=~valid)
        cols["f1_permille"] = pa.array(f1, mask=~(valid & (denom > 0)))
        return pa.table(cols)

    return ds.map_batches(lanes, batch_format="pyarrow")
