"""Graph centrality over edge datasets — PageRank for the
bounded-node / unbounded-edge shape.

The web-curation link-graph pattern (domain authority / centrality
features for corpus filtering, cf. Common Crawl's harmonic-centrality
ranking): node count is bounded (domains, services, parts — ~10^6-10^7)
while the EDGE list is the big table (links, spans, lineitems). The
reference collector has no graph operator; this is an engine addition
feeding the same scoring surface as ``stages/scoring.py``.

Scale shape per iteration:
- the rank/out-degree vectors live on the driver (O(nodes) — guarded by
  ``max_nodes`` with a loud count-before-pull, like every broadcast
  table here) and are ``ray.put`` ONCE per iteration;
- ONE pass over the (pre-indexed, materialized) edge list computes
  per-block SPARSE partial contributions (unique dst × sum — never a
  dense per-block vector), then a bounded int-key groupby reduces them
  to ≤ max_nodes rows pulled back to the driver;
- node-string → index mapping happens ONCE up front (``pc.index_in``
  against the broadcast node array); iterations touch only int32/float
  columns.

Dangling nodes (out-degree 0) redistribute their mass uniformly — the
standard PageRank correction, matched by the dense numpy reference in
tests. Distributed float summation order is not bit-stable, so results
carry ~1e-12 relative jitter: rows-only gate, planted-truth tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .aggregate import grouped_agg, grouped_count
from .bucketing import adds_no_rows, key_segments
from .treereduce import collect

__all__ = ["pagerank", "cooccurrence_edges", "cooccurrence_cosine",
           "triangle_count", "bfs_layers"]



def _check_node_types(ds: ray.data.Dataset, src: str, dst: str,
                      op: str) -> None:
    """src and dst are ONE node id space — a type mismatch would die
    deep inside the node-union concat with an opaque Arrow error."""
    # fetch_if_missing=False: on a derived (map_batches) plan schema()
    # would probe-execute the upstream — validate only when the schema
    # is already known (bare reads / from_arrow), skip otherwise
    sch = ds.schema(fetch_if_missing=False)
    if sch is None:
        return
    types = dict(zip(sch.names, sch.types))
    if src not in types or dst not in types:
        missing = [c for c in (src, dst) if c not in types]
        raise ValueError(f"{op}: edge column(s) {missing} not in input "
                         f"schema {list(types)}")
    if types[src] != types[dst]:
        raise ValueError(
            f"{op}: src ({types[src]}) and dst ({types[dst]}) must "
            "share one type — node ids are one id space; cast or "
            "prefix-tag them upstream")


def _node_type(ds: ray.data.Dataset, src: str) -> pa.DataType:
    """Node column type for empty-graph returns — string when the
    schema cannot be known without a probe execution."""
    sch = ds.schema(fetch_if_missing=False)
    if sch is None:
        return pa.string()
    try:
        return dict(zip(sch.names, sch.types))[src]
    except KeyError:
        return pa.string()


def _index_graph(make_edges, src: str, dst: str, max_nodes: int,
                 op: str, n_buckets: int | str = "auto",
                 weight_col: str | None = None):
    """Shared graph prep for the iterative operators (pagerank / BFS):
    distinct node table (bounded, ``max_nodes`` count-before-pull
    guard, null check), node→int32 index encoding ONCE, and parallel
    edges deduped to weighted ``(_s, _d, _w)`` rows in one bucket
    exchange — ``_w`` is the edge multiplicity, or the SUM of
    ``weight_col`` (validated non-null, non-negative) when given.
    Returns ``(n_nodes, nodes_pa, wedges)`` — ``(0, None, None)`` for
    an empty graph; ``wedges`` is MATERIALIZED."""
    _check_node_types(make_edges(), src, dst, op)
    edge_cols = [src, dst] + ([weight_col] if weight_col else [])

    def both_cols(t: pa.Table) -> pa.Table:
        # ONE scan: src and dst stacked into a single 'node' column
        # (a per-column union would execute the upstream twice)
        return pa.concat_tables([
            t.select([src]).rename_columns(["node"]),
            t.select([dst]).rename_columns(["node"])]).combine_chunks()

    nodes_ds = grouped_count(
        make_edges().select_columns([src, dst]).map_batches(
            both_cols, batch_format="pyarrow"),
        ["node"], count_name="_n").materialize()
    n_nodes = nodes_ds.count()
    if n_nodes > int(max_nodes):
        raise ValueError(
            f"{op}: graph has {n_nodes:,} nodes (> max_nodes="
            f"{int(max_nodes):,}); the per-node driver state would "
            "not fit. Partition the graph or raise the cap.")
    if n_nodes == 0:
        return 0, None, None
    nodes_col = nodes_ds.to_pandas()["node"]
    if nodes_col.isna().any():
        raise ValueError(f"{op}: edge list contains null src/dst "
                         "values — filter them out before calling")
    nodes_pa = pa.array(nodes_col.to_numpy())
    nodes_ref = ray.put(nodes_pa)

    def to_idx(t: pa.Table) -> pa.Table:
        node_arr = ray.get(nodes_ref)
        si = pc.index_in(t.column(src), node_arr)
        di = pc.index_in(t.column(dst), node_arr)
        if si.null_count or di.null_count:
            raise ValueError(
                f"{op}: edge list contains null src/dst values — "
                "filter them out before calling")
        lanes = {"_s": si.cast(pa.int32()), "_d": di.cast(pa.int32())}
        if weight_col:
            w = t.column(weight_col)
            if w.null_count:
                raise ValueError(f"{op}: weight column {weight_col!r} "
                                 "has nulls")
            w = w.cast(pa.float64())
            if t.num_rows and pc.min(w).as_py() < 0:
                raise ValueError(f"{op}: weight column {weight_col!r} "
                                 "has negative values")
            lanes["_wt"] = w
        return pa.table(lanes)

    indexed = make_edges().select_columns(edge_cols).map_batches(
        to_idx, batch_format="pyarrow")
    if weight_col:
        wedges = grouped_agg(indexed, ["_s", "_d"],
                             sum_cols={"_w": "_wt"},
                             n_buckets=n_buckets).materialize()
    else:
        wedges = grouped_count(indexed, ["_s", "_d"], count_name="_w",
                               n_buckets=n_buckets).materialize()
    return n_nodes, nodes_pa, wedges


def pagerank(make_edges, src: str, dst: str, *, damping: float = 0.85,
             iterations: int = 20, max_nodes: int = 5_000_000,
             persist: str = "memory", tol: float = 0.0,
             rank_col: str = "rank",
             max_local_edges: int = 8_000_000,
             weight_col: str | None = None,
             personalize=None) -> ray.data.Dataset:
    """PageRank over an edge dataset; returns (node, ``rank_col``).

    ``make_edges`` is a zero-arg factory, scanned ONCE: parallel edges
    dedupe to weighted (src, dst, multiplicity) rows in one bucket
    exchange and the iterations ride those (identical math — a
    parallel edge is weight). ``persist`` places the weighted edges:
    ``"memory"`` (default; ``"none"`` is promoted to it — re-deriving
    the weighted edge list every iteration is never right) or a
    directory path for the resumable choice. When the weighted edge
    list is ≤ 8M rows the whole power iteration runs on the driver
    (one bincount per iteration); bigger graphs take the distributed
    per-iteration combine.

    ``iterations`` is the hard cap; ``tol`` > 0 adds a convergence
    early-exit: stop once ``max|Δrank| < tol`` (the L∞ power-iteration
    criterion). Each iteration costs one full edge scan, so on typical
    graphs ``tol=1e-6`` halves the work vs the fixed-20 default while
    leaving top-k ordering identical (planted-graph test); ``tol=0``
    keeps the exact fixed-iteration semantics.

    ``weight_col`` makes the graph explicitly WEIGHTED: out-mass
    splits proportionally to edge weight (non-null, non-negative;
    identical to replicating an edge ``w`` times — identity-tested).
    ``personalize`` is a node list for PERSONALIZED PageRank: the
    teleport (and dangling) mass lands uniformly on those nodes
    instead of all nodes — the random-walk-with-restart relatedness
    score (recommendation / similar-items ranking); ``None`` keeps
    the standard uniform teleport (``personalize=all nodes`` is
    identity-tested equal).
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"pagerank: damping must be in (0,1), "
                         f"got {damping}")

    # ---- shared prep: node table + int32-indexed weighted edges ----
    # (dedupe shrinks the iteration currency from |edges| to |distinct
    # pairs| — 7× on the lineitem part→supplier graph; parallel edges
    # still count once each, weight = multiplicity, identical math)
    n_nodes, nodes_pa, wedges = _index_graph(
        make_edges, src, dst, max_nodes, "pagerank",
        weight_col=weight_col)
    if n_nodes == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], _node_type(make_edges(), src)),
            rank_col: pa.array([], pa.float64())}))
    if personalize is not None:
        pidx = pc.index_in(pa.array(list(personalize), nodes_pa.type),
                           nodes_pa)
        if pidx.null_count or len(pidx) == 0:
            missing = [s for s, i in zip(list(personalize),
                                         pidx.to_pylist()) if i is None]
            raise ValueError(
                f"pagerank: personalize node(s) {missing[:3]} not "
                "present in the edge list (or empty list)")
        uniq = np.unique(pidx.to_numpy(zero_copy_only=False))
        teleport = np.zeros(n_nodes)
        teleport[uniq] = 1.0 / len(uniq)
    else:
        teleport = np.full(n_nodes, 1.0 / n_nodes)
    if persist not in ("none", "memory"):
        # the resumable choice: weighted edges to parquet, iterations
        # re-read from disk instead of holding object-store memory
        wedges.write_parquet(persist)
        wedges = ray.data.read_parquet(persist).materialize()

    # ---- out-degree vector (driver, O(nodes)) -----------------------
    deg_pdf = grouped_agg(wedges, ["_s"],
                          sum_cols={"_n": "_w"}).to_pandas()
    outdeg = np.zeros(n_nodes)  # float: weighted graphs sum doubles
    outdeg[deg_pdf["_s"].to_numpy()] = deg_pdf["_n"].to_numpy()
    dangling = np.flatnonzero(outdeg == 0)

    rank = teleport.copy()
    d = float(damping)

    # ---- small-graph fast path: when the weighted edge list fits the
    # driver (n_nodes is already ≤ max_nodes, so the bound is edges),
    # every iteration is one numpy bincount — the 10-iteration
    # distributed loop's fixed per-iteration scheduling cost (~0.6 s
    # locally) disappears (measured 7.9 s → 2.1 s on parts_pagerank at
    # sf0.1). The distributed loop remains the >cap path.
    n_wedges = wedges.count()
    local = n_wedges <= int(max_local_edges)
    if local:
        epdf = wedges.to_pandas()
        es = epdf["_s"].to_numpy()
        ed = epdf["_d"].to_numpy()
        ew = epdf["_w"].to_numpy().astype(np.float64)

    for _ in range(int(iterations)):
        share = np.divide(rank, outdeg, out=np.zeros_like(rank),
                          where=outdeg > 0)
        if local:
            incoming = np.bincount(ed, weights=share[es] * ew,
                                   minlength=n_nodes)
        else:
            share_ref = ray.put(share)

            @adds_no_rows  # one row per distinct dst in the block
            def contrib(t: pa.Table, _ref=share_ref) -> pa.Table:
                share_ = ray.get(_ref)
                si = t.column("_s").to_numpy(zero_copy_only=False)
                di = t.column("_d").to_numpy(zero_copy_only=False)
                w = t.column("_w").to_numpy(
                    zero_copy_only=False).astype(np.float64)
                # sparse per-block partial: only the dst in the block
                uniq, inv = np.unique(di, return_inverse=True)
                sums = np.bincount(inv, weights=share_[si] * w,
                                   minlength=len(uniq))
                return pa.table({"_d": pa.array(uniq),
                                 "_c": pa.array(sums)})

            cpdf = grouped_agg(wedges.map_batches(
                contrib, batch_format="pyarrow"), ["_d"],
                sum_cols={"_c": "_c"}).to_pandas()
            incoming = np.zeros(n_nodes)
            incoming[cpdf["_d"].to_numpy()] = cpdf["_c"].to_numpy()
        dangling_mass = float(rank[dangling].sum())
        new_rank = ((1.0 - d) * teleport
                    + d * (incoming + dangling_mass * teleport))
        delta = float(np.max(np.abs(new_rank - rank)))
        rank = new_rank
        if tol > 0.0 and delta < tol:
            break

    return ray.data.from_arrow(pa.table({
        "node": nodes_pa, rank_col: pa.array(rank, pa.float64())}))


def cooccurrence_edges(ds: ray.data.Dataset, group_col: str,
                       item_col: str, min_support: int = 1,
                       n_buckets: int | str = "auto",
                       pre_deduped: bool = False) -> ray.data.Dataset:
    """Undirected co-occurrence edges — items appearing in the same
    group (parts in an order, terms in a doc, services in a trace)
    become canonical ``(a < b)`` pairs weighted by the number of groups
    containing both. The market-basket edge derivation feeding
    :func:`triangle_count` / :func:`pagerank`.

    ONE bucket exchange of deduped (group, item) rows, then a fully
    vectorized within-group pair expansion (repeat/cumsum index
    arithmetic — no Python loop over groups): a group with k items
    emits k·(k−1)/2 pairs, so pathological mega-groups cost quadratic
    output — dedupe/cap group size upstream if k is unbounded. Returns
    (a, b, support) with ``support >= min_support``.

    ``pre_deduped=True`` asserts the input already has DISTINCT
    (group, item) rows and skips the dedup exchange — the contract for
    callers that materialized the distinct membership themselves
    (:func:`cooccurrence_cosine` reuses one dedup for edges AND
    degrees); duplicate rows under this flag would inflate supports."""
    from .bucketing import bucketed_map_groups

    dedup = ds if pre_deduped else grouped_count(
        ds.select_columns([group_col, item_col]),
        [group_col, item_col], count_name="_n",
        n_buckets=n_buckets)

    def expand(t: pa.Table) -> pa.Table:
        t = t.sort_by([(group_col, "ascending"),
                       (item_col, "ascending")])
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        v = t.column(item_col).to_numpy(zero_copy_only=False)
        n = len(g)
        if n == 0:
            return pa.table({"a": pa.array([], t.column(item_col).type),
                             "b": pa.array([], t.column(item_col).type)})
        change, seg_start = key_segments(g)
        seg_id = np.cumsum(change) - 1
        seg_len = np.bincount(seg_id)
        local = np.arange(n) - seg_start
        counts = seg_len[seg_id] - 1 - local  # pairs led by each row
        left = np.repeat(np.arange(n), counts)
        if len(left):
            offs = np.arange(len(left)) - np.repeat(
                np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
            right = left + 1 + offs
        else:
            right = left
        return pa.table({"a": pa.array(v[left]), "b": pa.array(v[right])})

    pairs = bucketed_map_groups(dedup, group_col, expand,
                                n_buckets=n_buckets)
    edges = grouped_count(pairs, ["a", "b"], count_name="support",
                          n_buckets=n_buckets)
    if min_support > 1:
        edges = edges.map_batches(
            lambda t: t.filter(pc.greater_equal(
                t.column("support"),
                pa.scalar(min_support, pa.int64()))),
            batch_format="pyarrow")
    return edges


def _broadcast_item_degrees(dedup: ray.data.Dataset, item_col: str,
                            max_items: int, op: str):
    """Per-item DISTINCT-group degree table, broadcast once: from a
    materialized distinct (group, item) membership, count groups per
    item and ``ray.put`` the (items, counts) pair. Items are bounded
    (``max_items``) so the map-only tree combine applies — no exchange
    at all (a Ray sort exchange on these skinny partials measured 3.4 s
    of a 4.1 s total at sf0.1). The tree's final combine holds the
    WHOLE distinct item set in one task, so a cheap HLL screen fires
    loudly BEFORE that task can exist (the guard must bound the step,
    not run after it — review finding, same class as the
    exact-quantile screen)."""
    from .sketch import approx_distinct

    est = approx_distinct(dedup.select_columns([item_col]), item_col)
    if est > 1.2 * int(max_items):
        raise ValueError(
            f"{op}: ~{int(est):,} distinct items (HLL estimate, "
            f"max_items={int(max_items):,}) — the degree table would "
            "neither tree-combine nor broadcast; raise the cap or "
            "pre-filter items")
    counts_ds = grouped_count(dedup, [item_col], count_name="n").materialize()
    n_items = counts_ds.count()
    if n_items > int(max_items):
        raise ValueError(
            f"{op}: {n_items:,} distinct items "
            f"(> max_items={int(max_items):,}) — the degree table "
            "would not broadcast; raise the cap or pre-filter items")
    parts = collect(counts_ds)
    if parts:
        cnt = pa.concat_tables(parts).combine_chunks()
        items_arr = cnt.column(item_col).combine_chunks()
        n_arr = cnt.column("n").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
    else:
        items_arr = pa.array([], pa.int64())
        n_arr = np.zeros(0, np.int64)
    return ray.put((items_arr, n_arr))


def cooccurrence_cosine(make_ds, group_col: str, item_col: str, *,
                        min_support: int = 1,
                        max_items: int = 5_000_000,
                        n_buckets: int | str = "auto"
                        ) -> ray.data.Dataset:
    """Item-item cosine similarity from co-occurrence — the classic
    memory-based collaborative-filtering score over binary group
    membership: ``cosine(a, b) = support(a, b) / sqrt(n_a · n_b)``
    where ``n_i`` counts DISTINCT groups containing item ``i`` and
    ``support`` counts groups containing both (so cosine ≤ 1, equality
    iff the items always co-occur). Returns
    ``(a, b, support, n_a, n_b, cosine)``.

    The float is HASH-GATE SAFE despite being a float: each row's
    cosine is computed independently from three exact integers via
    IEEE-correctly-rounded ops only (int product < 2^53 → exact
    double; ``sqrt`` and ``/`` are correctly rounded in both numpy and
    SQL engines), so there is no accumulation order to diverge.

    ``make_ds`` is a zero-arg factory, scanned ONCE: the distinct
    (group, item) membership materializes from one dedup exchange and
    feeds BOTH the pair expansion and the per-item degrees. Degree
    table is broadcast (``ray.put`` once), count-guarded by
    ``max_items``."""
    if min_support < 1:
        raise ValueError("cooccurrence_cosine: min_support must be >= 1")
    dedup = grouped_count(
        make_ds().select_columns([group_col, item_col]),
        [group_col, item_col], count_name="_n",
        n_buckets=n_buckets).materialize()
    edges = cooccurrence_edges(dedup, group_col, item_col,
                               min_support=min_support,
                               n_buckets=n_buckets, pre_deduped=True)
    ref = _broadcast_item_degrees(dedup, item_col, max_items,
                                  "cooccurrence_cosine")

    def add_cosine(t: pa.Table) -> pa.Table:
        items, counts = ray.get(ref)
        ia = pc.index_in(t.column("a"), items)
        ib = pc.index_in(t.column("b"), items)
        if ia.null_count or ib.null_count:
            raise ValueError(
                "cooccurrence_cosine: edge item missing from the "
                "degree table — the two passes saw different inputs")
        na = counts[ia.to_numpy(zero_copy_only=False)]
        nb = counts[ib.to_numpy(zero_copy_only=False)]
        sup = t.column("support").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        prod = na * nb
        if len(prod) and int(prod.max()) > (1 << 53):
            raise ValueError(
                "cooccurrence_cosine: n_a*n_b exceeds 2^53 — the "
                "double product is no longer exact; rescale upstream")
        cos = sup.astype(np.float64) / np.sqrt(prod.astype(np.float64))
        return pa.table({"a": t.column("a"), "b": t.column("b"),
                         "support": t.column("support"),
                         "n_a": pa.array(na), "n_b": pa.array(nb),
                         "cosine": pa.array(cos)})

    return edges.map_batches(add_cosine, batch_format="pyarrow")


def association_rules(make_ds, group_col: str, item_col: str, *,
                      min_support: int = 1, scale: int = 1_000_000,
                      max_items: int = 5_000_000,
                      n_buckets: int | str = "auto"
                      ) -> ray.data.Dataset:
    """Pairwise association rules with EXACT scaled-integer confidence
    and lift — the market-basket rule miner over binary group
    membership: for every ordered item pair (antecedent → consequent)
    whose co-occurrence support clears ``min_support``::

        conf_ppm = support · scale // n_ante
        lift_ppm = support · N · scale // (n_ante · n_cons)

    where ``n_i`` counts DISTINCT groups containing item ``i`` and
    ``N`` counts distinct groups — lift > scale means the pair
    co-occurs more than independence predicts. Truncated integer
    rationals (both engines truncate identically), so the gate is
    bit-stable with no float crossing it.

    Scale shape (same as :func:`cooccurrence_cosine`): the corpus
    reduces to one distinct-membership exchange feeding the pair
    expansion, the broadcast degree table AND an exact distinct-group
    count; each undirected edge then emits its two directed rules in
    one vectorized pass. Groups are unbounded; items are bounded
    (``max_items``). The int64 products are guarded loudly —
    ``support·N·scale`` must fit; lower ``scale`` on huge corpora.

    Output: (antecedent, consequent, support, n_ante, n_cons,
    conf_ppm, lift_ppm). Reference analog: none — engine addition in
    the corpus-analysis family beside the cosine/triangle miners.
    """
    if min_support < 1:
        raise ValueError("association_rules: min_support must be >= 1")
    if scale < 1:
        raise ValueError("association_rules: scale must be >= 1")
    src = make_ds().select_columns([group_col, item_col])
    src_schema = src.schema(fetch_if_missing=True)
    dedup = grouped_count(
        src, [group_col, item_col], count_name="_n",
        n_buckets=n_buckets).materialize()
    edges = cooccurrence_edges(dedup, group_col, item_col,
                               min_support=min_support,
                               n_buckets=n_buckets, pre_deduped=True)
    ref = _broadcast_item_degrees(dedup, item_col, max_items,
                                  "association_rules")
    # exact distinct-group count: dedup rows are distinct (g, i), so
    # one more bucketed count collapses to distinct g — groups stay
    # unbounded, only the scalar N comes back to the driver
    n_groups = grouped_count(
        dedup.select_columns([group_col]), [group_col],
        count_name="_n", n_buckets=n_buckets).count()

    # a fully-empty materialized dedup reports no schema — fall back
    # to the source schema captured before the exchange
    sch = dedup.schema(fetch_if_missing=False) or src_schema
    item_type = sch.base_schema.field(item_col).type
    out_schema = pa.schema([
        ("antecedent", item_type), ("consequent", item_type),
        ("support", pa.int64()), ("n_ante", pa.int64()),
        ("n_cons", pa.int64()), ("conf_ppm", pa.int64()),
        ("lift_ppm", pa.int64())])

    def to_rules(t: pa.Table) -> pa.Table:
        items, counts = ray.get(ref)
        ia = pc.index_in(t.column("a"), items)
        ib = pc.index_in(t.column("b"), items)
        if ia.null_count or ib.null_count:
            raise ValueError(
                "association_rules: edge item missing from the degree "
                "table — the two passes saw different inputs")
        na = counts[ia.to_numpy(zero_copy_only=False)]
        nb = counts[ib.to_numpy(zero_copy_only=False)]
        sup = t.column("support").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(sup):
            md = max(int(na.max()), int(nb.max()))
            if (int(sup.max()) * n_groups * scale >= (1 << 62)
                    or md * md >= (1 << 62)):
                raise ValueError(
                    "association_rules: support·N·scale or "
                    "n_ante·n_cons exceeds int64 — lower scale= or "
                    "pre-filter items")
        ante = pa.chunked_array(
            [t.column("a"), t.column("b")]).combine_chunks()
        cons = pa.chunked_array(
            [t.column("b"), t.column("a")]).combine_chunks()
        s2 = np.concatenate([sup, sup])
        d_ante = np.concatenate([na, nb])
        d_cons = np.concatenate([nb, na])
        conf = s2 * scale // d_ante
        lift = s2 * n_groups * scale // (d_ante * d_cons)
        return pa.table({
            "antecedent": ante, "consequent": cons,
            "support": pa.array(s2, pa.int64()),
            "n_ante": pa.array(d_ante, pa.int64()),
            "n_cons": pa.array(d_cons, pa.int64()),
            "conf_ppm": pa.array(conf, pa.int64()),
            "lift_ppm": pa.array(lift, pa.int64())},
            schema=out_schema)

    # the empty-table union pins the output schema even when edges is
    # empty (min_support pruned everything) — no extra execution
    return ray.data.from_arrow(out_schema.empty_table()).union(
        edges.map_batches(to_rules, batch_format="pyarrow"))


def triangle_count(edges: ray.data.Dataset, a: str = "a", b: str = "b",
                   salt: int = 1) -> ray.data.Dataset:
    """Per-node triangle counts over canonical undirected edges
    (``a < b`` rows, already distinct) — the local clustering signal
    (spam-farm / community detection feature in web-graph curation).

    Pure join algebra, no driver adjacency: wedges = edges ⋈ edges on
    the middle vertex (a<b<c by canonical orientation), closed into
    triangles by ONE composite-key semi join against the edge list,
    then each triangle credits its three corners (flat 3-way emit →
    bucket count). Wedge fan-out is Σ deg²(v) — a hub vertex inflates
    its join task; ``salt`` forwards to the shuffle join for that skew
    (same lever as every join here). SQL-exact: mirrors the
    e1 ⋈ e2 ⋈ e3 self-join oracle."""
    from .join import shuffle_hash_join

    e = edges.select_columns([a, b]).materialize()
    right = e.map_batches(
        lambda t: pa.table({"_m": t.column(a), "c": t.column(b)}),
        batch_format="pyarrow")
    wedges = shuffle_hash_join(e, right, key=b, right_key="_m",
                               how="inner", salt=salt)
    tri = shuffle_hash_join(wedges, e.map_batches(
        lambda t: pa.table({"_ea": t.column(a), "_eb": t.column(b)}),
        batch_format="pyarrow"),
        key=[a, "c"], right_key=["_ea", "_eb"], how="semi", salt=salt)

    def corners(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            t.column(a).combine_chunks().cast(t.column("c").type),
            t.column(b).combine_chunks().cast(t.column("c").type),
            t.column("c").combine_chunks()])})

    out = grouped_count(tri.map_batches(corners,
                                        batch_format="pyarrow"),
                        ["node"], count_name="n_triangles").materialize()
    if out.count() == 0:
        # a triangle-free graph must still honor the promised schema
        # (Ray loses it through an empty exchange)
        sch = e.schema()  # e is materialized: no probe
        node_t = sch.types[sch.names.index(a)]
        return ray.data.from_arrow(pa.schema(
            [("node", node_t), ("n_triangles", pa.int64())]).empty_table())
    return out


def bfs_layers(make_edges, src: str, dst: str, *, seeds,
               max_depth: int = 10, directed: bool = False,
               max_nodes: int = 5_000_000,
               max_local_edges: int = 8_000_000,
               n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Breadth-first hop distance from a seed set — ``(node, depth)``
    for every node reachable within ``max_depth`` hops (seeds at depth
    0; unreachable nodes absent). The link-graph neighborhood /
    blast-radius primitive (crawl frontier expansion, service-graph
    impact analysis); SQL-exact vs a recursive-CTE min-hop oracle.

    Scale shape mirrors :func:`pagerank`: nodes are bounded
    (``max_nodes`` count-before-pull guard) so the frontier/visited
    state is a driver bit-vector; the EDGE list is the big table —
    deduped and index-encoded ONCE (one bucket exchange), then every
    layer is one sparse sweep: a numpy ``unique`` gather when the
    distinct edge list fits the driver (≤ 8M rows), else one
    distributed pass emitting per-block frontier-neighbor partials.
    ``directed=False`` (default) follows edges both ways."""
    if max_depth < 0:
        raise ValueError("bfs_layers: max_depth must be >= 0")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("bfs_layers: seeds must be non-empty")

    n_nodes, nodes_pa, wedges = _index_graph(
        make_edges, src, dst, max_nodes, "bfs_layers",
        n_buckets=n_buckets)
    if n_nodes == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], _node_type(make_edges(), src)),
            "depth": pa.array([], pa.int64())}))
    seed_idx = pc.index_in(pa.array(seeds, nodes_pa.type), nodes_pa)
    if seed_idx.null_count:
        missing = [s for s, i in zip(seeds, seed_idx.to_pylist())
                   if i is None]
        raise ValueError(
            f"bfs_layers: seed(s) {missing[:3]} not present in the "
            "edge list")
    n_wedges = wedges.count()

    depth = np.full(n_nodes, -1, np.int64)
    frontier = np.zeros(n_nodes, bool)
    frontier[seed_idx.to_numpy(zero_copy_only=False)] = True
    depth[frontier] = 0

    local = n_wedges <= int(max_local_edges)
    if local:
        epdf = wedges.to_pandas()
        es = epdf["_s"].to_numpy()
        ed = epdf["_d"].to_numpy()
        if not directed:
            es, ed = np.concatenate([es, ed]), np.concatenate([ed, es])

    for d in range(1, int(max_depth) + 1):
        if not frontier.any():
            break
        if local:
            hits = ed[frontier[es]]
        else:
            f_ref = ray.put(frontier)
            want_rev = not directed

            def expand(t: pa.Table, _ref=f_ref) -> pa.Table:
                f = ray.get(_ref)
                si = t.column("_s").to_numpy(zero_copy_only=False)
                di = t.column("_d").to_numpy(zero_copy_only=False)
                outs = [di[f[si]]]
                if want_rev:
                    outs.append(si[f[di]])
                return pa.table({"_n": pa.array(
                    np.unique(np.concatenate(outs)))})

            parts = collect(wedges.map_batches(
                expand, batch_format="pyarrow"))
            hits = (pa.concat_tables(parts).column("_n")
                    .to_numpy(zero_copy_only=False)
                    if parts else np.zeros(0, np.int64))
        nxt = np.zeros(n_nodes, bool)
        nxt[hits] = True
        nxt &= depth < 0
        depth[nxt] = d
        frontier = nxt

    reached = depth >= 0
    return ray.data.from_arrow(pa.table({
        "node": nodes_pa.filter(pa.array(reached)),
        "depth": pa.array(depth[reached])}))


def kcore(make_edges, src: str, dst: str, *, k: int,
          max_nodes: int = 5_000_000, max_local_edges: int = 8_000_000,
          n_buckets: int | str = "auto",
          core_col: str = "core_degree") -> ray.data.Dataset:
    """k-core decomposition by iterative peeling (Seidman 1983) — the
    densest-region screen beside :func:`pagerank` (influence) and
    :func:`triangle_count` (clustering): repeatedly delete every node
    whose degree in the REMAINING graph is < ``k``; what survives is
    the maximal subgraph where every node keeps ≥ k neighbors (spam
    farms, core communities, crawl seeds). Returns ``(node,
    core_degree)`` for surviving nodes — ``core_degree`` is the
    node's degree INSIDE the k-core.

    Semantics: undirected SIMPLE graph — edges symmetrize, parallel
    edges collapse, self-loops drop (the standard k-core definition;
    a multigraph variant would just skip the collapse).

    Scale shape mirrors :func:`pagerank`: nodes are bounded
    (``max_nodes`` count-before-pull via the shared ``_index_graph``)
    so the alive bit-vector is driver state; edges are the big table,
    index-encoded and deduped ONCE. Peeling sweeps are one numpy
    bincount per round when the unique undirected pair list fits the
    driver (≤ ``max_local_edges``), else one distributed pass emitting
    per-block degree partials for the still-alive endpoints (bounded
    int keys → tree combine). Each round kills ≥ 1 node or stops, so
    rounds ≤ peel depth (worst case a path: O(n) — real graphs peel in
    a handful)."""
    if k < 1:
        raise ValueError("kcore: k must be >= 1")
    n_nodes, nodes_pa, wedges = _index_graph(
        make_edges, src, dst, max_nodes, "kcore", n_buckets=n_buckets)
    if n_nodes == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], _node_type(make_edges(), src)),
            core_col: pa.array([], pa.int64())}))

    def sym(t: pa.Table) -> pa.Table:
        s = t.column("_s")
        d = t.column("_d")
        lo = pc.min_element_wise(s, d)
        hi = pc.max_element_wise(s, d)
        keep = pc.not_equal(lo, hi)  # self-loops never satisfy degree
        return pa.table({"_a": lo.filter(keep), "_b": hi.filter(keep)})

    pairs = grouped_count(wedges.map_batches(sym, batch_format="pyarrow"),
                          ["_a", "_b"], count_name="_m",
                          n_buckets=n_buckets).materialize()
    n_pairs = pairs.count()
    alive = np.ones(n_nodes, bool)
    local = n_pairs <= int(max_local_edges)
    if local:
        ppdf = pairs.to_pandas()
        ea = ppdf["_a"].to_numpy()
        eb = ppdf["_b"].to_numpy()

    deg = np.zeros(n_nodes, np.int64)
    while True:
        if local:
            m = alive[ea] & alive[eb]
            deg = (np.bincount(ea[m], minlength=n_nodes)
                   + np.bincount(eb[m], minlength=n_nodes))
        else:
            alive_ref = ray.put(alive)

            def degrees(t: pa.Table, _ref=alive_ref) -> pa.Table:
                al = ray.get(_ref)
                a = t.column("_a").to_numpy(zero_copy_only=False)
                b = t.column("_b").to_numpy(zero_copy_only=False)
                m_ = al[a] & al[b]
                both = np.concatenate([a[m_], b[m_]])
                uniq, cnt = np.unique(both, return_counts=True)
                return pa.table({"_n": pa.array(uniq),
                                 "_c": pa.array(cnt.astype(np.int64))})

            dpdf = grouped_agg(pairs.map_batches(
                degrees, batch_format="pyarrow"), ["_n"],
                sum_cols={"_c": "_c"}).to_pandas()
            deg = np.zeros(n_nodes, np.int64)
            deg[dpdf["_n"].to_numpy()] = dpdf["_c"].to_numpy()
        dead = alive & (deg < k)
        if not dead.any():
            break
        alive &= ~dead

    return ray.data.from_arrow(pa.table({
        "node": nodes_pa.filter(pa.array(alive)),
        core_col: pa.array(deg[alive])}))
