"""Traces signal: derive the canonical ``spans`` table from the driver's
``events`` table — deterministically, so every span pipeline is
oracle-checkable in DuckDB.

Span schema mirrors the reference's Span message
(``/root/reference/pdata/ptrace/generated_span.go:53-178``):

| column           | type            | pdata analog |
|------------------|-----------------|--------------|
| trace_id         | string (18ch)   | TraceID (16-byte binary; here a readable surrogate) |
| span_id          | string (16ch)   | SpanID, %016x of event_id |
| parent_span_id   | string ('' = root) | ParentSpanID (empty == root, pcommon SpanID.IsEmpty) |
| service          | string          | Resource attr service.name |
| name             | string          | Span.Name |
| kind             | int32 enum      | SpanKind (``ptrace/span_kind.go:16-34``: 1=Internal 2=Server 3=Client) |
| start_ts         | timestamp       | StartTimestamp |
| duration_us      | int64           | EndTimestamp - StartTimestamp |
| status_code      | int32           | Status (``ptrace/status.go``: 1=Ok 2=Error) |

Derivation (one event = one span; the SQL mirror ``SPANS_CTE`` must stay
byte-equal):

    trace_id       = printf('%08d-%09d', user_id, epoch_hour(ts))
                     — a trace is one user-hour (all of a user's spans in
                     one wall-clock hour share a trace)
    span_id        = printf('%016x', event_id)
    parent_span_id = span_id of the PREVIOUS event in the trace ordered by
                     (ts, event_id); '' for the trace's first (root) span
    service        = signup→auth, purchase→checkout, error→backend,
                     click/view→frontend
    kind           = signup/purchase→2 (Server), click/view→3 (Client),
                     error→1 (Internal)
    name           = 'op-' || event_type
    start_ts       = ts;  duration_us = floor(value * 1000)
    status_code    = 2 if event_type == 'error' else 1

The per-trace lag is the one wide op: a hash shuffle on bucket(trace_id)
(64 buckets), the same bounded-group map_groups pattern as turn ranking —
one vectorized pass ranks thousands of traces per bucket.
"""

from __future__ import annotations

import binascii

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

SERVICE_MAP = {"signup": "auth", "purchase": "checkout", "error": "backend",
               "click": "frontend", "view": "frontend"}
KIND_MAP = {"signup": 2, "purchase": 2, "error": 1, "click": 3, "view": 3}

US_PER_HOUR = 3_600_000_000


def hex16(ids: np.ndarray) -> pa.Array:
    """%016x of an int64 ndarray, vectorized (hexlify over the contiguous
    big-endian buffer, then a |S16 view)."""
    return pa.array(np.frombuffer(
        binascii.hexlify(ids.astype(">u8").tobytes()), dtype="S16").astype("U16"))


def service_of(et: pa.Array) -> pa.Array:
    """event_type → service name, driven by SERVICE_MAP (one kernel shared
    by the span and profile derivations — the mapping must never drift
    between the two signals)."""
    expr = "frontend"  # SERVICE_MAP default (click/view)
    for etype, svc in SERVICE_MAP.items():
        if svc != "frontend":
            expr = pc.if_else(pc.equal(et, etype), svc, expr)
    return expr


def _event_to_span_cols(batch: pa.Table) -> pa.Table:
    et = batch.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    eid = batch.column("event_id").to_numpy(zero_copy_only=False)
    val = batch.column("value").to_numpy(zero_copy_only=False)
    # normalize to µs regardless of source precision: the epoch-hour
    # arithmetic below and every downstream µs computation assume it (a
    # ns-precision parquet would otherwise yield hour indices 1000× off)
    ts = batch.column("ts").cast(pa.timestamp("us"))

    is_err = pc.equal(et, "error")
    service = service_of(et)
    kind = pc.if_else(
        pc.is_in(et, value_set=pa.array(["signup", "purchase"])),
        pa.scalar(2, pa.int32()),
        pc.if_else(is_err, pa.scalar(1, pa.int32()), pa.scalar(3, pa.int32())))
    status_code = pc.if_else(is_err, pa.scalar(2, pa.int32()),
                             pa.scalar(1, pa.int32()))
    name = pc.binary_join_element_wise("op-", et, "")

    # trace id: printf('%08d-%09d', user_id, epoch hour index)
    hour = pc.floor_temporal(ts, unit="hour").cast(pa.int64())  # µs since epoch
    epoch_hour = pc.divide(hour, US_PER_HOUR)
    uid_s = pc.utf8_lpad(pc.cast(batch.column("user_id"), pa.string()), 8, "0")
    hr_s = pc.utf8_lpad(pc.cast(epoch_hour, pa.string()), 9, "0")
    trace_id = pc.binary_join_element_wise(uid_s, "-", hr_s, "")

    return pa.table({
        "trace_id": trace_id,
        "span_id": hex16(eid),
        "event_id": batch.column("event_id"),
        "service": service,
        "name": name,
        "kind": kind,
        "start_ts": ts,
        "duration_us": pa.array(np.floor(val * 1000).astype(np.int64)),
        "status_code": status_code,
    })


def _parent_bucket(g: pa.Table) -> pa.Table:
    """Assign parent_span_id = lag(span_id) within each trace of one hash
    bucket — one vectorized Arrow-sort + numpy pass over MANY traces
    (bounded-group map_groups: buckets, not traces, are the Python-call
    unit; no pandas round trip)."""
    from ..stages.bucketing import key_segments

    g = g.sort_by([("trace_id", "ascending"), ("start_ts", "ascending"),
                   ("event_id", "ascending")])
    keys = g.column("trace_id").to_numpy(zero_copy_only=False)
    sid = g.column("span_id").to_numpy(zero_copy_only=False)
    change, _ = key_segments(keys)
    par = np.empty_like(sid)
    if len(sid):
        par[0] = ""
        par[1:] = sid[:-1]
    par[change] = ""
    return g.drop_columns(["event_id"]).append_column(
        "parent_span_id", pa.array(par, pa.string()))


SPAN_COLUMNS = ["trace_id", "span_id", "parent_span_id", "service", "name",
                "kind", "start_ts", "duration_us", "status_code"]


def derive_spans(events: ray.data.Dataset) -> ray.data.Dataset:
    """events → canonical spans table (see module docstring for schema)."""
    from ..stages.bucketing import bucketed_map_groups

    linked = bucketed_map_groups(
        events.map_batches(_event_to_span_cols, batch_format="pyarrow"),
        "trace_id", _parent_bucket, n_buckets=64)
    return linked.select_columns(SPAN_COLUMNS)


def read_derived_spans(sf_dir: str) -> ray.data.Dataset:
    # coalesced read: the trace-bucket exchange downstream costs per
    # BLOCK (sources/parquet.py::read_table_coalesced — 64 default
    # blocks 2-6 s vs 8 blocks 0.4-0.7 s at sf0.1)
    from .parquet import read_table_coalesced

    events = read_table_coalesced(
        sf_dir, "events",
        columns=["event_id", "ts", "user_id", "event_type", "value"])
    return derive_spans(events)


# SQL mirror used by oracle_sql() entries (DuckDB; `events` is a view).
SPANS_CTE = """
spans AS (
  SELECT
    printf('%08d-%09d', user_id,
           CAST(epoch(date_trunc('hour', ts)) AS BIGINT) // 3600) AS trace_id,
    printf('%016x', event_id) AS span_id,
    COALESCE(lag(printf('%016x', event_id)) OVER (
        PARTITION BY user_id,
                     CAST(epoch(date_trunc('hour', ts)) AS BIGINT) // 3600
        ORDER BY ts, event_id), '') AS parent_span_id,
    CASE event_type WHEN 'signup' THEN 'auth' WHEN 'purchase' THEN 'checkout'
                    WHEN 'error' THEN 'backend' ELSE 'frontend' END AS service,
    'op-' || event_type AS name,
    CAST(CASE WHEN event_type IN ('signup', 'purchase') THEN 2
              WHEN event_type = 'error' THEN 1 ELSE 3 END AS INTEGER) AS kind,
    ts AS start_ts,
    CAST(floor(value * 1000) AS BIGINT) AS duration_us,
    CAST(CASE WHEN event_type = 'error' THEN 2 ELSE 1 END AS INTEGER)
        AS status_code
  FROM events
)
"""


def with_span_events(spans: ray.data.Dataset) -> ray.data.Dataset:
    """Attach the Span.Events[] nested column (``generated_span.go``:
    Events is a repeated SpanEvent{time, name, attrs}): error spans get one
    'exception' event at half their duration; other spans an empty list —
    vectorized list construction from the status mask (offsets = cumsum of
    per-row event counts). For Links[] see ``with_span_links``."""
    import pyarrow.compute as pc

    def attach(t: pa.Table) -> pa.Table:
        is_err = pc.equal(t.column("status_code"), 2) \
            .to_numpy(zero_copy_only=False)
        n = t.num_rows
        counts = is_err.astype(np.int64)
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        dur = t.column("duration_us").to_numpy(zero_copy_only=False)
        ev_struct = pa.StructArray.from_arrays(
            [pa.array(np.full(total, "exception", dtype=object), pa.string()),
             pa.array((dur[is_err] // 2).astype(np.int64))],
            names=["name", "ts_offset_us"])
        events = pa.ListArray.from_arrays(
            pa.array(offsets.astype(np.int32)), ev_struct)
        return t.append_column("events", events)

    return spans.map_batches(attach, batch_format="pyarrow")


def explode_span_events(spans_with_events: ray.data.Dataset,
                        ) -> ray.data.Dataset:
    """Events[] → one flat row per event (span_id, event_name,
    ts_offset_us) — the SpanEvent traversal, vectorized via list flatten +
    parent-index repeat."""

    def explode(t: pa.Table) -> pa.Table:
        col = t.column("events")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offsets = np.asarray(col.offsets.to_numpy(zero_copy_only=False),
                             np.int64)
        counts = np.diff(offsets)
        parent = np.repeat(np.arange(t.num_rows), counts)
        flat = col.flatten()
        span_ids = t.column("span_id").take(pa.array(parent))
        return pa.table({
            "span_id": span_ids,
            "event_name": flat.field("name"),
            "ts_offset_us": flat.field("ts_offset_us"),
        })

    return spans_with_events.map_batches(explode, batch_format="pyarrow")


def with_span_links(spans: ray.data.Dataset,
                    n_buckets: int | str = 64) -> ray.data.Dataset:
    """Attach the Span.Links[] nested column
    (``/root/reference/pdata/ptrace/generated_span.go`` Links accessors;
    SpanLink{trace_id, span_id, ...} per generated_proto_spanlink.go):
    every NON-ROOT span carries one link to its trace's ROOT span — a
    genuine cross-SPAN reference beyond the parent edge (the
    "originating request" link pattern); root spans carry an empty list.

    Scale shape: one hash-bucket exchange on trace_id (the
    co-partitioning invariant — a trace lands wholly in one bucket task,
    same as parent_child_join), then a vectorized root lookup + list
    assembly per bucket: segment arithmetic finds each trace's root row
    (parent_span_id == ''), numpy scatter maps it to every member.
    Spans whose trace has no root row (pre-filtered input) get no link
    rather than a wrong one."""
    from ..stages.bucketing import bucketed_map_groups, key_segments

    col_type = pa.list_(pa.struct([("trace_id", pa.string()),
                                   ("span_id", pa.string())]))

    def attach(t: pa.Table) -> pa.Table:
        t = t.sort_by([("trace_id", "ascending")])
        tid = t.column("trace_id").to_numpy(zero_copy_only=False)
        sid = t.column("span_id").to_numpy(zero_copy_only=False)
        par = t.column("parent_span_id").to_numpy(zero_copy_only=False)
        n = t.num_rows
        if n == 0:
            return t.append_column("links", pa.array([], col_type))
        change, _ = key_segments(tid)
        seg_of_row = np.cumsum(change) - 1
        nseg = int(seg_of_row[-1]) + 1
        roots = np.flatnonzero(par == "")
        root_of_seg = np.zeros(nseg, np.int64)
        seg_has_root = np.zeros(nseg, bool)
        root_of_seg[seg_of_row[roots]] = roots
        seg_has_root[seg_of_row[roots]] = True
        root_sid = sid[root_of_seg[seg_of_row]]
        is_link = (par != "") & seg_has_root[seg_of_row]
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(is_link.astype(np.int64), out=offsets[1:])
        link_struct = pa.StructArray.from_arrays(
            [pa.array(tid[is_link], pa.string()),
             pa.array(root_sid[is_link], pa.string())],
            names=["trace_id", "span_id"])
        links = pa.ListArray.from_arrays(
            pa.array(offsets.astype(np.int32)), link_struct)
        return t.append_column("links", links)

    return bucketed_map_groups(spans, "trace_id", attach,
                               n_buckets=n_buckets)


def explode_span_links(spans_with_links: ray.data.Dataset,
                       ) -> ray.data.Dataset:
    """Links[] → one flat row per link (span_id, link_trace_id,
    link_span_id) — the SpanLink traversal, vectorized via list flatten +
    parent-index repeat (symmetric with ``explode_span_events``)."""

    def explode(t: pa.Table) -> pa.Table:
        col = t.column("links")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offsets = np.asarray(col.offsets.to_numpy(zero_copy_only=False),
                             np.int64)
        counts = np.diff(offsets)
        parent = np.repeat(np.arange(t.num_rows), counts)
        flat = col.flatten()
        return pa.table({
            "span_id": t.column("span_id").take(pa.array(parent)),
            "link_trace_id": flat.field("trace_id"),
            "link_span_id": flat.field("span_id"),
        })

    return spans_with_links.map_batches(explode, batch_format="pyarrow")
