"""Span-native operators over the traces signal (SURVEY.md §1.1 ptrace
analog; Span fields per ``/root/reference/pdata/ptrace/generated_span.go:
53-178``).

All three follow the engine's standard scale shapes:

- ``parent_child_join``: co-partitioned SELF-join — every span of a trace
  lands in one hash bucket (trace_id partitioning), so child→parent
  resolution is a vectorized merge per BUCKET, never a global shuffle
  join. The partitioning assumption: one trace fits one bucket task (a
  trace is one user-hour here; pathological million-span traces would
  need the bucket count raised, not a different algorithm).
- ``trace_stats``: unbounded-key grouped aggregate → two-phase partials +
  hash groupby (the conv_stats shape).
- ``grouped_exact_quantiles``: EXACT percentiles for a bounded integer
  domain at any data scale — value-count histogram per (key, value) via
  the two-phase grouped count (so a 10^12-row input reduces to
  |keys|×|distinct values| rows), then the rank r = floor((n-1)·q) element
  is read off the cumulative counts per key. This is the pmetric Summary
  quantile analog with exact (not sketched) results; for unbounded/float
  domains use the mergeable KLL sketch in stages/sketch.py instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.groupsafe import group_aggregate
from .aggregate import grouped_count
from .bucketing import bucketed_map_groups


def parent_child_join(spans: ray.data.Dataset, n_buckets: int = 64,
                      ) -> ray.data.Dataset:
    """Resolve each span's parent service: (trace_id, span_id,
    parent_span_id, parent_service); roots ('' parent) get null."""

    def join_bucket(t: pa.Table) -> pa.Table:
        # Arrow hash join, no pandas round trip; roots ('' parent) match
        # no parent row → null parent_service under left outer
        parents = t.select(["trace_id", "span_id", "service"]) \
            .rename_columns(["trace_id", "parent_span_id", "parent_service"])
        child = t.select(["trace_id", "span_id", "parent_span_id"])
        m = child.join(parents, keys=["trace_id", "parent_span_id"],
                       join_type="left outer")
        return m.select(["trace_id", "span_id", "parent_span_id",
                         "parent_service"])

    return bucketed_map_groups(spans.select_columns(
        ["trace_id", "span_id", "parent_span_id", "service"]),
        "trace_id", join_bucket, n_buckets=n_buckets)


def service_graph(spans: ray.data.Dataset, n_buckets: int = 64,
                  ) -> ray.data.Dataset:
    """Service-dependency graph — the servicegraphconnector analog
    (reference: opentelemetry-collector-contrib
    ``connector/servicegraphconnector``: client/server span pairs →
    edge metrics): one edge row per (client_service, server_service)
    pair with call count, error count (server status ERROR) and total
    server duration µs.

    Scale shape: the SAME per-trace co-partition exchange as
    ``parent_child_join`` (a trace's spans land in one bucket task),
    one Arrow hash join + group_by per bucket emits ≤ |services|² edge
    partials, then a tree combine — the full span corpus crosses the
    wire once, edges are bounded."""
    def edge_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parents = t.select(["trace_id", "span_id", "service"]) \
            .rename_columns(["trace_id", "parent_span_id", "client"])
        child = t.select(["trace_id", "parent_span_id", "service",
                          "status_code", "duration_us"]) \
            .rename_columns(["trace_id", "parent_span_id", "server",
                             "status_code", "duration_us"])
        m = child.join(parents, keys=["trace_id", "parent_span_id"],
                       join_type="inner")
        err = pc.cast(pc.equal(m.column("status_code"), 2), pa.int64())
        return pa.table({"client": m.column("client"),
                         "server": m.column("server"),
                         "is_err": err,
                         "dur": m.column("duration_us")})

    from .aggregate import grouped_agg

    edges = bucketed_map_groups(spans.select_columns(
        ["trace_id", "span_id", "parent_span_id", "service",
         "status_code", "duration_us"]),
        "trace_id", edge_bucket, n_buckets=n_buckets)
    return grouped_agg(edges, ["client", "server"], count_name="n_calls",
                       sum_cols={"n_errors": "is_err",
                                 "total_duration_us": "dur"})


def trace_stats(spans: ray.data.Dataset, n_buckets: int | str = 64,
                ) -> ray.data.Dataset:
    """Per-trace rollup: span count, error count, wall duration in µs
    (max span end − min span start).

    Scale shape: trace keys are unbounded (~one per user-hour), but a full
    ``groupby(trace_id)`` would sort every row by a STRING key — measured
    7× slower than this: hash-bucket by trace_id (int exchange, 64-64k
    groups) and run ONE Arrow group_by per bucket. Exact because hash
    partitioning co-locates each trace entirely in one bucket — the same
    invariant the parent-link join relies on."""
    import pyarrow.compute as pc

    def prep(t: pa.Table) -> pa.Table:
        start_us = t.column("start_ts").cast(pa.timestamp("us")).cast(pa.int64())
        end_us = pc.add(start_us, t.column("duration_us"))
        is_err = pc.cast(pc.equal(t.column("status_code"), 2), pa.int64())
        return pa.table({"trace_id": t.column("trace_id"),
                         "start_us": start_us, "end_us": end_us,
                         "is_err": is_err})

    def rollup(t: pa.Table) -> pa.Table:
        g = t.group_by(["trace_id"], use_threads=False).aggregate(
            [("trace_id", "count"), ("is_err", "sum"),
             ("start_us", "min"), ("end_us", "max")])
        dur = pc.subtract(g.column("end_us_max"), g.column("start_us_min"))
        return pa.table({"trace_id": g.column("trace_id"),
                         "n_spans": g.column("trace_id_count").cast(pa.int64()),
                         "n_errors": g.column("is_err_sum"),
                         "trace_duration_us": dur})

    pre = spans.select_columns(
        ["trace_id", "start_ts", "duration_us", "status_code"]).map_batches(
        prep, batch_format="pyarrow")
    return bucketed_map_groups(pre, "trace_id", rollup, n_buckets=n_buckets)


def grouped_exact_quantiles(ds: ray.data.Dataset, key: str, value_col: str,
                            qs: tuple[float, ...] = (0.5, 0.95, 0.99),
                            n_buckets: int | str = 64
                            ) -> ray.data.Dataset:
    """Exact per-key quantiles of a bounded integer VALUE domain (keys may
    be unbounded: the per-key work runs on the bucket idiom, one
    vectorized pass per hash bucket — never one Python call per key).

    Rank rule (mirrored exactly by the oracle SQL): 0-based rank
    r = floor((n-1)·q) over ascending order; with duplicate values the
    answer is the value whose cumulative count first reaches r+1 —
    identical to row_number()-based selection on the sorted column.

    Scale shape: the 10^12-row input first reduces to |keys|×|distinct
    values| count rows (two-phase grouped count), then ONE Arrow
    sort + cumulative-count searchsorted per BUCKET reads the ranks off —
    cum is strictly increasing (counts ≥ 1), so a single global
    searchsorted answers every key's quantile at once.
    """
    from .bucketing import key_segments

    if key == "n":
        raise ValueError(
            "grouped_exact_quantiles: key 'n' collides with the count "
            "output column — rename the key upstream")

    counts = grouped_count(ds.select_columns([key, value_col]),
                           [key, value_col], count_name="_n")

    def pick_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([(key, "ascending"), (value_col, "ascending")])
        k = t.column(key).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        n_ = t.column("_n").to_numpy(zero_copy_only=False)
        change, _ = key_segments(k)
        starts = np.flatnonzero(change)
        cum = np.cumsum(n_)
        ends = np.append(starts[1:], len(k)) - 1
        seg_base = np.concatenate([[0], cum])[starts]
        totals = (cum[ends] - seg_base) if len(starts) \
            else np.empty(0, np.int64)
        out: dict = {key: t.column(key).take(pa.array(starts.astype(np.int64))),
                     "n": pa.array(totals.astype(np.int64))}
        for q in qs:
            r = np.floor((totals - 1) * q).astype(np.int64)
            pos = np.searchsorted(cum, seg_base + r + 1)
            out[f"p{int(round(q * 100))}"] = pa.array(
                v[pos].astype(np.int64) if len(pos) else
                np.empty(0, np.int64))
        return pa.table(out)

    return bucketed_map_groups(counts, key, pick_bucket, n_buckets=n_buckets)


def grouped_cont_quantiles(ds: ray.data.Dataset, key: str,
                           value_col: str,
                           qs: tuple[tuple[int, int], ...] = ((1, 2),),
                           n_buckets: int | str = 64
                           ) -> ray.data.Dataset:
    """Exact per-key CONTINUOUS (interpolated) quantiles of an integer
    value — SQL ``quantile_cont`` / ``percentile_cont`` semantics with
    NO floating point anywhere: each quantile is a rational ``num/den``
    pair and the answer is returned as the EXACT scaled integer
    ``v_lo·(den−rem) + v_hi·rem`` where ``h = (n−1)·num/den``,
    ``rank_lo = floor(h)``, ``rem = (n−1)·num mod den`` — i.e. the
    interpolated value times ``den``, named ``p{num}_{den}_x{den}``
    (``(1,2)`` → ``p1_2_x2`` = twice the median). Dividing by ``den``
    recovers ``percentile_cont`` exactly; keeping the integer keeps the
    driver's hash gate bit-stable (no libm in the loop).

    Scale shape: identical to :func:`grouped_exact_quantiles` — one
    grouped count to |keys|×|distinct values| rows, then ONE sort +
    global searchsorted per hash bucket answers every key's bracketing
    ranks at once. cf. reference
    processor/transformprocessor (percentile analytics live outside the
    collector; this is the batch generalization)."""
    from .bucketing import key_segments

    if key == "n":
        raise ValueError(
            "grouped_cont_quantiles: key 'n' collides with the count "
            "output column — rename the key upstream")
    for num, den in qs:
        if not (0 <= num <= den) or den <= 0:
            raise ValueError(
                f"grouped_cont_quantiles: q must be num/den in [0,1] "
                f"with den > 0, got {num}/{den}")

    counts = grouped_count(ds.select_columns([key, value_col]),
                           [key, value_col], count_name="_n")

    def pick_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([(key, "ascending"), (value_col, "ascending")])
        k = t.column(key).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        n_ = t.column("_n").to_numpy(zero_copy_only=False)
        change, _ = key_segments(k)
        starts = np.flatnonzero(change)
        cum = np.cumsum(n_)
        ends = np.append(starts[1:], len(k)) - 1
        seg_base = np.concatenate([[0], cum])[starts]
        totals = (cum[ends] - seg_base) if len(starts) \
            else np.empty(0, np.int64)
        max_den = max(d for _, d in qs)
        if len(v) and int(np.abs(v).max()) > (2 ** 62) // max_den:
            raise ValueError(
                "grouped_cont_quantiles: |value|·den would overflow "
                f"int64 (max |v| = {int(np.abs(v).max())}, den = "
                f"{max_den}); rescale the value column first")
        out: dict = {
            key: t.column(key).take(pa.array(starts.astype(np.int64))),
            "n": pa.array(totals.astype(np.int64))}
        for num, den in qs:
            h_num = (totals - 1) * num  # h = h_num / den, exact ints
            r_lo = h_num // den
            rem = h_num % den
            pos_lo = np.searchsorted(cum, seg_base + r_lo + 1)
            # rem > 0 implies h < n-1, so r_lo+1 <= n-1 is in range
            pos_hi = np.searchsorted(cum, seg_base + r_lo + 1 + (rem > 0))
            v_lo = v[pos_lo].astype(np.int64) if len(pos_lo) \
                else np.empty(0, np.int64)
            v_hi = v[pos_hi].astype(np.int64) if len(pos_hi) \
                else np.empty(0, np.int64)
            out[f"p{num}_{den}_x{den}"] = pa.array(
                v_lo * (den - rem) + v_hi * rem)
        return pa.table(out)

    return bucketed_map_groups(counts, key, pick_bucket,
                               n_buckets=n_buckets)


def grouped_weighted_median(ds: ray.data.Dataset, key: str,
                            value_col: str, weight_col: str,
                            n_buckets: int | str = 64
                            ) -> ray.data.Dataset:
    """Exact per-key WEIGHTED (lower) median of an integer value with
    integer weights — the duration-weighted / volume-weighted central
    tendency (e.g. qty-weighted price): the smallest value whose
    cumulative weight reaches half the key's total, rank rule
    ``2·cum(w) >= tot(w)`` (mirrored exactly by the SQL window oracle;
    all-integer, no float midpoints).

    Scale shape: unlike the bounded-value-domain quantile operator, a
    continuous value column makes the distinct (key, value) table as
    big as the input — so this takes ONE bucket exchange of per-batch
    Arrow-prereduced partials (hot keys bounded to one partial row per
    batch per value; measured 10×+ over a Ray sort-exchange grouped
    aggregate at sf0.01, which pays full freight on the near-unique
    composite key), then one sort + segment cumsum per
    hash bucket answers every key at once. Returns
    ``(key, tot_w, wmedian)``."""
    from .bucketing import key_segments

    def partial(t: pa.Table) -> pa.Table:
        g = group_aggregate(t.select([key, value_col, weight_col]),
                            [key, value_col], [(weight_col, "sum")])
        return g.rename_columns([key, value_col, "_w"])

    sums = ds.map_batches(partial, batch_format="pyarrow")

    def pick_bucket(t: pa.Table) -> pa.Table:
        t = group_aggregate(t, [key, value_col], [("_w", "sum")]) \
            .rename_columns([key, value_col, "_w"])
        t = t.sort_by([(key, "ascending"), (value_col, "ascending")])
        k = t.column(key).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        w = t.column("_w").to_numpy(zero_copy_only=False)
        if len(w) and int(w.min()) < 0:
            raise ValueError("grouped_weighted_median: negative weights")
        change, _ = key_segments(k)
        starts = np.flatnonzero(change)
        cum = np.cumsum(w)
        if len(cum) and int(cum[-1]) > 2**62:
            raise ValueError(
                "grouped_weighted_median: bucket weight total exceeds "
                "2^62 — 2·cum would wrap int64; scale the weights down")
        ends = np.append(starts[1:], len(k)) - 1
        seg_base = np.concatenate([[0], cum])[starts]
        totals = (cum[ends] - seg_base) if len(starts) \
            else np.empty(0, np.int64)
        # first index per segment where 2·(cum − base) >= tot: cum is
        # non-decreasing within a segment, so one global searchsorted
        # over 2·cum against 2·base + tot lands on it. An all-zero-
        # weight key's target equals the PREVIOUS segment's cumsum
        # plateau, so clamp to the segment start (= SQL's min(v) where
        # 2·cum >= 0).
        pos = np.maximum(np.searchsorted(2 * cum, 2 * seg_base + totals),
                         starts)
        return pa.table({
            key: t.column(key).take(pa.array(starts.astype(np.int64))),
            "tot_w": pa.array(totals.astype(np.int64)),
            "wmedian": pa.array(v[pos].astype(np.int64) if len(pos)
                                else np.empty(0, np.int64))})

    return bucketed_map_groups(sums, key, pick_bucket,
                               n_buckets=n_buckets)


def grouped_weighted_quantiles(ds: ray.data.Dataset, key: str,
                               value_col: str, weight_col: str,
                               qs: tuple[tuple[int, int], ...] = ((1, 2),),
                               n_buckets: int | str = 64
                               ) -> ray.data.Dataset:
    """Exact per-key WEIGHTED quantiles at arbitrary rational
    ``num/den`` — generalizes :func:`grouped_weighted_median` (whose
    rule is the ``(1, 2)`` case): the smallest value whose cumulative
    weight reaches ``q`` of the key's total, rank rule
    ``den·cum(w) >= num·tot(w)`` — all-integer, mirrored exactly by
    the SQL window oracle. Output columns ``p{num}_{den}_w``
    (volume-weighted p90 spend, duration-weighted p99 latency).

    Scale shape identical to the weighted median: per-batch Arrow
    pre-reduction bounds hot keys to one partial row per batch per
    value, ONE bucket exchange, then one sort + segment cumsum +
    global searchsorted per bucket answers every (key, q) at once."""
    from .bucketing import key_segments

    for num, den in qs:
        if not (0 <= num <= den) or den <= 0:
            raise ValueError(
                f"grouped_weighted_quantiles: q must be num/den in "
                f"[0,1] with den > 0, got {num}/{den}")
    reserved = {"tot_w", "_w"} | {f"p{n}_{d}_w" for n, d in qs}
    if key in reserved:
        raise ValueError(
            f"grouped_weighted_quantiles: key {key!r} collides with "
            "an internal or output column — rename the key upstream")
    max_den = max(d for _, d in qs)

    def partial(t: pa.Table) -> pa.Table:
        g = group_aggregate(t.select([key, value_col, weight_col]),
                            [key, value_col], [(weight_col, "sum")])
        return g.rename_columns([key, value_col, "_w"])

    sums = ds.map_batches(partial, batch_format="pyarrow")

    def pick_bucket(t: pa.Table) -> pa.Table:
        t = group_aggregate(t, [key, value_col], [("_w", "sum")]) \
            .rename_columns([key, value_col, "_w"])
        t = t.sort_by([(key, "ascending"), (value_col, "ascending")])
        k = t.column(key).to_numpy(zero_copy_only=False)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        w = t.column("_w").to_numpy(zero_copy_only=False)
        if len(w) and int(w.min()) < 0:
            raise ValueError(
                "grouped_weighted_quantiles: negative weights")
        change, _ = key_segments(k)
        starts = np.flatnonzero(change)
        cum = np.cumsum(w)
        if len(cum) and int(cum[-1]) > (2 ** 62) // max_den:
            raise ValueError(
                "grouped_weighted_quantiles: bucket weight total × den "
                "would wrap int64; scale the weights down")
        ends = np.append(starts[1:], len(k)) - 1
        seg_base = np.concatenate([[0], cum])[starts]
        totals = (cum[ends] - seg_base) if len(starts) \
            else np.empty(0, np.int64)
        out: dict = {
            key: t.column(key).take(pa.array(starts.astype(np.int64))),
            "tot_w": pa.array(totals.astype(np.int64))}
        for num, den in qs:
            # first index per segment where den·(cum−base) >= num·tot;
            # all-zero-weight keys clamp to the segment start (same
            # plateau fix as the weighted median)
            pos = np.maximum(
                np.searchsorted(den * cum, den * seg_base + num * totals),
                starts)
            out[f"p{num}_{den}_w"] = pa.array(
                v[pos].astype(np.int64) if len(pos)
                else np.empty(0, np.int64))
        return pa.table(out)

    return bucketed_map_groups(sums, key, pick_bucket,
                               n_buckets=n_buckets)


def span_self_time(spans: ray.data.Dataset,
                   n_buckets: int | str = 64) -> ray.data.Dataset:
    """Per-span SELF time — own duration minus the sum of direct
    children's durations: the flame-graph exclusive-time metric (what
    a profiler charges to the frame itself; reference semantics =
    ptrace parent links, `pdata/ptrace/generated_span.go` ParentSpanID).
    Negative values are legitimate signal (children overlapping /
    outliving the parent — async fire-and-forget).

    One exchange: traces co-partition by trace_id (parent links are
    trace-local), then per bucket ONE Arrow group_by sums child
    durations per parent and one ``pc.index_in`` joins them back —
    no global join, no per-span Python. Returns
    ``(trace_id, span_id, service, duration_us, self_us)``."""
    def per_bucket(t: pa.Table) -> pa.Table:
        sep = "\x1f"
        has_parent = pc.and_kleene(
            pc.is_valid(t.column("parent_span_id")),
            pc.not_equal(t.column("parent_span_id"), ""))
        kids = t.filter(has_parent)
        k = kids.group_by(["trace_id", "parent_span_id"]) \
            .aggregate([("duration_us", "sum")])
        parent_key = pc.binary_join_element_wise(
            pc.cast(k.column("trace_id"), pa.string()),
            pc.cast(k.column("parent_span_id"), pa.string()), sep)
        span_key = pc.binary_join_element_wise(
            pc.cast(t.column("trace_id"), pa.string()),
            pc.cast(t.column("span_id"), pa.string()), sep)
        idx = pc.index_in(span_key, value_set=parent_key)
        child_us = pc.fill_null(
            pc.take(k.column("duration_us_sum"), idx), 0)
        return pa.table({
            "trace_id": t.column("trace_id"),
            "span_id": t.column("span_id"),
            "service": t.column("service"),
            "duration_us": t.column("duration_us"),
            "self_us": pc.subtract(
                t.column("duration_us").cast(pa.int64()),
                child_us.cast(pa.int64()))})

    return bucketed_map_groups(spans, "trace_id", per_bucket,
                               n_buckets=n_buckets)


def tail_sample(spans: ray.data.Dataset, n_buckets: int | str = 64,
                ) -> ray.data.Dataset:
    """Tail-based sampling (the tailsampling processor analog): keep ALL
    spans of every trace in which ANY span errored — a TRACE-level
    predicate, decidable only once the whole trace is visible. The
    co-partitioning invariant (hash-bucket by trace_id ⇒ every trace
    wholly in one bucket task) makes it one vectorized pass per bucket:
    mark error traces, filter members — no global join, no second
    shuffle."""
    import pyarrow.compute as pc

    def keep_error_traces(t: pa.Table) -> pa.Table:
        is_err = pc.equal(t.column("status_code"), 2)
        err_traces = pc.unique(t.column("trace_id").filter(is_err))
        keep = pc.is_in(t.column("trace_id"), value_set=err_traces)
        return t.filter(keep)

    return bucketed_map_groups(spans, "trace_id", keep_error_traces,
                               n_buckets=n_buckets)


def head_sample(spans: ray.data.Dataset, permille: int,
                trace_col: str = "trace_id") -> ray.data.Dataset:
    """Head-based consistent probability sampling (the
    probabilisticsampler analog of :func:`tail_sample`): keep ALL spans
    of a trace when a deterministic digest of its trace id falls under
    the ``permille`` threshold. Head sampling's defining property —
    the decision is a pure function of the trace id, so every span of
    a trace gets the same verdict with NO coordination — makes this a
    map-only filter: no exchange at all, in contrast to tail sampling
    which must co-locate whole traces before it can decide.

    The digest is the first 12 hex digits of md5(trace_id) mod 1000
    (the checksum lane's external-standard digest, exactly mirrorable
    in SQL as ``('0x' || substr(md5(trace_id),1,12))::UBIGINT % 1000``);
    trace-rate ≈ permille/1000 with sampling consistency across
    re-executions, retries and pipeline stages."""
    if not 0 <= permille <= 1000:
        raise ValueError("head_sample: permille must be in [0, 1000]")
    from ..functions.text import md5_mod

    def keep(t: pa.Table) -> pa.Table:
        h = md5_mod(t.column(trace_col), 1000)
        return t.filter(pa.array(h < permille))

    return spans.map_batches(keep, batch_format="pyarrow")


def tail_sample_policies(spans: ray.data.Dataset, *, latency_us: int,
                         permille: int, n_buckets: int | str = 64,
                         policy_col: str = "policy") -> ray.data.Dataset:
    """Composite tail-based sampling — the multi-policy form of
    :func:`tail_sample` (the tailsampling processor evaluates an ordered
    list of policies per trace and keeps the trace when ANY matches;
    single-policy error sampling is the degenerate case above). Three
    OR-combined policies, evaluated in fixed priority order so every
    kept span carries the FIRST matching policy name in ``policy_col``:

    1. ``error``   — any span in the trace has status_code == 2,
    2. ``latency`` — the trace's wall window (max span end − min span
       start) is ≥ ``latency_us``,
    3. ``prob``    — md5(trace_id) permille < ``permille`` (the
       consistent-hash lane shared with :func:`head_sample`, so the
       probabilistic leg stays decision-stable across re-executions).

    Scale shape: identical to :func:`tail_sample` — ONE hash-bucket
    exchange on trace_id co-locates whole traces, then each bucket task
    decides all its traces vectorized (segment reduceat for the error
    and window lanes, one digest per DISTINCT trace for the prob lane,
    never per span). No second shuffle, no driver state."""
    from ..functions.text import md5_mod
    from .bucketing import key_segments

    if not 0 <= permille <= 1000:
        raise ValueError("tail_sample_policies: permille must be in [0, 1000]")
    if latency_us < 0:
        raise ValueError("tail_sample_policies: latency_us must be >= 0")
    names = np.array(["error", "latency", "prob", ""])

    def decide(t: pa.Table) -> pa.Table:
        if policy_col in t.column_names:
            raise ValueError(
                f"tail_sample_policies: column {policy_col!r} already exists")
        if t.num_rows == 0:
            return t.append_column(policy_col, pa.array([], pa.string()))
        t = t.sort_by([("trace_id", "ascending")])
        keys = t.column("trace_id").to_numpy(zero_copy_only=False)
        change, _ = key_segments(keys)
        starts = np.flatnonzero(change)
        seg_of = np.cumsum(change) - 1
        start_us = pc.cast(pc.cast(t.column("start_ts"), pa.timestamp("us")),
                           pa.int64()).to_numpy(zero_copy_only=False)
        end_us = start_us + t.column("duration_us").to_numpy(
            zero_copy_only=False)
        is_err = pc.equal(t.column("status_code"), 2).to_numpy(
            zero_copy_only=False).astype(np.int64)
        has_err = np.maximum.reduceat(is_err, starts) > 0
        window = (np.maximum.reduceat(end_us, starts)
                  - np.minimum.reduceat(start_us, starts))
        h = md5_mod(t.column("trace_id").take(pa.array(starts)), 1000)
        codes = np.where(has_err, 0,
                         np.where(window >= latency_us, 1,
                                  np.where(h < permille, 2, 3)))
        row_codes = codes[seg_of]
        keep = row_codes != 3
        return t.filter(pa.array(keep)).append_column(
            policy_col, pa.array(names[row_codes[keep]]))

    return bucketed_map_groups(spans, "trace_id", decide,
                               n_buckets=n_buckets)


def apdex(spans: ray.data.Dataset, t_us: int, *, key: str = "service",
          duration_col: str = "duration_us") -> ray.data.Dataset:
    """Apdex score (the Application Performance Index standard the APM
    dashboards the spanmetrics connector feeds all compute): per key,
    satisfied = duration ≤ T, tolerating = T < duration ≤ 4T, and
    ``apdex = (satisfied + tolerating/2) / total``. Emitted as exact
    integers — ``apdex_permille = (2·sat + tol)·500 // total``
    (truncation, mirroring SQL ``//``) beside the raw counts, so the
    gate never touches a float.

    Scale shape: one map pass turns duration into two 0/1 indicator
    lanes, then the bounded-key two-phase tree aggregate — the
    north-star counting shape; nothing but (key, 3 ints) rows move."""
    if t_us <= 0:
        raise ValueError("apdex: t_us must be positive")

    def lanes(t: pa.Table) -> pa.Table:
        d = t.column(duration_col)
        sat = pc.cast(pc.less_equal(d, t_us), pa.int64())
        tol = pc.cast(pc.and_(pc.greater(d, t_us),
                              pc.less_equal(d, 4 * t_us)), pa.int64())
        return pa.table({key: t.column(key), "_sat": sat, "_tol": tol})

    counts = grouped_count(
        spans.map_batches(lanes, batch_format="pyarrow"), [key],
        count_name="n", sum_cols={"n_satisfied": "_sat",
                                  "n_tolerating": "_tol"})

    def score(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        sat = t.column("n_satisfied").to_numpy(zero_copy_only=False)
        tol = t.column("n_tolerating").to_numpy(zero_copy_only=False)
        permille = np.zeros(len(n), np.int64)
        nz = n > 0
        permille[nz] = (2 * sat[nz] + tol[nz]) * 500 // n[nz]
        return t.append_column("apdex_permille", pa.array(permille))

    return counts.map_batches(score, batch_format="pyarrow")


def span_depth(spans: ray.data.Dataset, n_buckets: int = 64
               ) -> ray.data.Dataset:
    """Tree depth of every span — the flame-level coordinate: number of
    resolvable ancestor links to the trace root (root spans depth 0;
    a parent id absent from the data ends the chain, so orphans sit at
    depth 0 like roots — never an infinite walk).

    POINTER DOUBLING, vectorized: one exchange co-partitions traces by
    bucket (parent links are trace-local — ptrace semantics), then each
    bucket resolves parent indices once (``pc.index_in``) and runs the
    O(log depth) jump loop ``d[i] += d[p[i]]; p[i] = p[p[i]]`` on numpy
    int arrays — never one Python step per edge, never a per-level
    self-join. A cycle (corrupt parent links) cannot loop forever: the
    jump count is capped at ceil(log2(n))+1 rounds and a surviving
    pointer raises loudly."""
    def depth_bucket(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"trace_id": t.column("trace_id"),
                             "span_id": t.column("span_id"),
                             "depth": pa.array([], pa.int64())})
        # composite key: parent resolution is per (trace_id, span_id)
        tid = t.column("trace_id")
        key = pc.binary_join_element_wise(
            tid, t.column("span_id"), "\x1f")
        pkey = pc.binary_join_element_wise(
            tid, t.column("parent_span_id"), "\x1f")
        p = pc.index_in(pkey, key.combine_chunks()) \
            .fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        d = (p >= 0).astype(np.int64)
        rounds = 0
        max_rounds = int(np.ceil(np.log2(max(n, 2)))) + 1
        while (p >= 0).any():
            if rounds >= max_rounds:
                raise ValueError(
                    "span_depth: parent chain longer than the span "
                    "count — cyclic parent_span_id links")
            live = p >= 0
            pi = p[live]
            d_new = d.copy()
            d_new[live] = d[live] + d[pi]
            p_new = p.copy()
            p_new[live] = p[pi]
            d, p = d_new, p_new
            rounds += 1
        return pa.table({"trace_id": tid, "span_id": t.column("span_id"),
                         "depth": pa.array(d)})

    return bucketed_map_groups(
        spans.select_columns(["trace_id", "span_id", "parent_span_id"]),
        "trace_id", depth_bucket, n_buckets=n_buckets)


def trace_deepest_path(spans: ray.data.Dataset, n_buckets: int = 64,
                       value_col: str = "duration_us"
                       ) -> ray.data.Dataset:
    """Per-trace maximum root-to-leaf ``value_col`` sum — the
    flame-graph "deepest path" rollup (an upper bound on the trace's
    critical path; the true critical path additionally subtracts
    overlap between siblings, which needs interval logic — see
    ``span_self_time`` for the exclusive-time lane). A span whose
    parent id is absent from the data starts its own chain (orphans =
    roots), matching ``span_depth``.

    POINTER DOUBLING with value accumulation: same O(log depth) jump
    loop as ``span_depth`` but carrying ``s[i] += s[p[i]]`` — the
    chain sum from each span up to its root — then one segment max per
    trace. ONE exchange co-partitions traces by bucket; everything
    else is numpy int64 on the bucket. Output: (trace_id, n_spans,
    critical_us = max over spans of the ancestor-chain sum)."""
    def path_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("trace_id", pa.string()),
                              ("n_spans", pa.int64()),
                              ("critical_us", pa.int64())]).empty_table()
        tid = t.column("trace_id")
        key = pc.binary_join_element_wise(
            tid, t.column("span_id"), "\x1f")
        pkey = pc.binary_join_element_wise(
            tid, t.column("parent_span_id"), "\x1f")
        p = pc.index_in(pkey, key.combine_chunks()) \
            .fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        vc = t.column(value_col)
        if vc.null_count:
            raise ValueError(
                f"trace_deepest_path: {value_col!r} has nulls")
        s = vc.to_numpy(zero_copy_only=False).astype(np.int64)
        if len(s) and s.min() < 0:
            raise ValueError(
                f"trace_deepest_path: negative {value_col!r} breaks "
                "the max-path identity")
        n = t.num_rows
        rounds, max_rounds = 0, int(np.ceil(np.log2(max(n, 2)))) + 1
        while (p >= 0).any():
            if rounds >= max_rounds:
                raise ValueError(
                    "trace_deepest_path: cyclic parent_span_id links")
            live = p >= 0
            pi = p[live]
            s_new = s.copy()
            s_new[live] = s[live] + s[pi]
            p_new = p.copy()
            p_new[live] = p[pi]
            s, p = s_new, p_new
            rounds += 1
        # segment max per trace over the sorted bucket
        order = pc.sort_indices(tid).to_numpy(zero_copy_only=False)
        tk = tid.to_numpy(zero_copy_only=False)[order]
        sv = s[order]
        new = np.append(True, tk[1:] != tk[:-1])
        bounds = np.flatnonzero(new)
        crit = np.maximum.reduceat(sv, bounds)
        n_spans = np.diff(np.append(bounds, n))
        return pa.table({
            "trace_id": pa.array(tk[bounds], type=tid.type),
            "n_spans": pa.array(n_spans.astype(np.int64)),
            "critical_us": pa.array(crit)})

    return bucketed_map_groups(spans.select_columns(
        ["trace_id", "span_id", "parent_span_id", value_col]),
        "trace_id", path_bucket, n_buckets=n_buckets)
