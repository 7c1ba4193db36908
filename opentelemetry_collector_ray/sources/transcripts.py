"""Derive the canonical transcript ("turns") table from the driver's
``events`` table — deterministically, so the whole flagship pipeline is
oracle-checkable in DuckDB.

Mapping (one event = one turn; see tests and __ray_entry__.oracle_sql for
the SQL mirror — every expression here must stay byte-equal to it):

    conv_id  = printf('conv-%08d', user_id)
    turn_idx = row_number() over (partition by user_id order by ts, event_id) - 1
    role     = signup→system, error→tool, purchase→assistant, click/view→user
    tool     = '' for view else event_type   ('' = non-tool turn; empty-vs-
               missing is significant, reference batchprocessor/config.go:36-38)
    text     = view:  'viewed page p{floor(value)} by user {user_id}'
               else:  '[{LEVEL}] call tool={event_type} latency_ms={floor(value*10)}
                       status={ok|err} trace={event_id:016x}'
    ts       = ts

The per-user rank is the one wide op: a hash shuffle on ``conv_id`` — the
same partitioning key every downstream stage reuses (SURVEY.md §4.3).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

ROLE_MAP = {"signup": "system", "error": "tool", "purchase": "assistant",
            "click": "user", "view": "user"}


def _event_to_turn_cols(batch: pa.Table) -> pa.Table:
    """Fully vectorized text/role/tool construction (stateless map_batches):
    Arrow kernels end to end — ``binary_join_element_wise`` for the format-
    string assembly, ``binascii.hexlify`` over the contiguous uint64 buffer
    for the 016x trace id. No per-row Python."""
    import binascii

    import pyarrow.compute as pc

    et = batch.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    eid = batch.column("event_id").to_numpy(zero_copy_only=False)
    val = batch.column("value").to_numpy(zero_copy_only=False)

    is_err = pc.equal(et, "error")
    is_view = pc.equal(et, "view")
    role = pc.if_else(
        pc.equal(et, "signup"), "system",
        pc.if_else(is_err, "tool",
                   pc.if_else(pc.equal(et, "purchase"), "assistant", "user")))
    tool = pc.if_else(is_view, "", et)
    level = pc.if_else(is_err, "ERROR", "INFO")
    status = pc.if_else(is_err, "err", "ok")
    lat_s = pc.cast(pa.array(np.floor(val * 10).astype(np.int64)), pa.string())
    page_s = pc.cast(pa.array(np.floor(val).astype(np.int64)), pa.string())
    uid_s = pc.cast(batch.column("user_id"), pa.string())
    # %016x: big-endian uint64 bytes → hexlify (one C call) → |S16 view
    trace = pa.array(np.frombuffer(
        binascii.hexlify(eid.astype(">u8").tobytes()), dtype="S16").astype("U16"))

    view_text = pc.binary_join_element_wise(
        "viewed page p", page_s, " by user ", uid_s, "")
    call_text = pc.binary_join_element_wise(
        "[", level, "] call tool=", et, " latency_ms=", lat_s,
        " status=", status, " trace=", trace, "")
    text = pc.if_else(is_view, view_text, call_text)

    conv_id = pc.binary_join_element_wise(
        "conv-", pc.utf8_lpad(uid_s, 8, "0"), "")
    return pa.table({
        "conv_id": conv_id,
        "event_id": batch.column("event_id"),
        "role": role,
        "text": text,
        "tool": tool,
        "ts": batch.column("ts"),
    })


def _rank_bucket(g: pa.Table) -> pa.Table:
    """Rank turns within every conversation of one hash bucket — one
    vectorized Arrow-sort + numpy pass over MANY conversations (no
    per-group Python, no pandas round trip: buckets, not conversations,
    are the map_groups unit — the bounded-group pattern at scale)."""
    from ..stages.bucketing import key_segments

    g = g.sort_by([("conv_id", "ascending"), ("ts", "ascending"),
                   ("event_id", "ascending")])
    keys = g.column("conv_id").to_numpy(zero_copy_only=False)
    _, seg_start = key_segments(keys)
    rank = (np.arange(len(keys)) - seg_start).astype(np.int32)
    return g.drop_columns(["event_id"]).append_column(
        "turn_idx", pa.array(rank))


def derive_turns(events: ray.data.Dataset) -> ray.data.Dataset:
    """events → canonical turns table (conv_id, turn_idx, role, text, tool, ts).

    The rank shuffle keys on hash(conv_id) % 64 buckets rather than raw
    conv_id, so the group count (and Python-call count) is bounded and every
    bucket ranks thousands of conversations in one vectorized pass."""
    from ..stages.bucketing import bucketed_map_groups

    ranked = bucketed_map_groups(
        events.map_batches(_event_to_turn_cols, batch_format="pyarrow"),
        "conv_id", _rank_bucket, n_buckets=64)
    return ranked.select_columns(["conv_id", "turn_idx", "role", "text", "tool", "ts"])


def read_derived_turns(sf_dir: str) -> ray.data.Dataset:
    # coalesced read: the conv-bucket rank exchange downstream costs per
    # BLOCK (sources/parquet.py::read_table_coalesced)
    from .parquet import read_table_coalesced

    events = read_table_coalesced(
        sf_dir, "events",
        columns=["event_id", "ts", "user_id", "event_type", "value"])
    return derive_turns(events)


# SQL mirror used by oracle_sql() entries (DuckDB; `events` is a view).
TURNS_CTE = """
turns AS (
  SELECT
    printf('conv-%08d', user_id) AS conv_id,
    CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS INTEGER) AS turn_idx,
    CASE event_type WHEN 'signup' THEN 'system' WHEN 'error' THEN 'tool'
                    WHEN 'purchase' THEN 'assistant' ELSE 'user' END AS role,
    CASE WHEN event_type = 'view'
      THEN printf('viewed page p%d by user %d', CAST(floor(value) AS BIGINT), user_id)
      ELSE printf('[%s] call tool=%s latency_ms=%d status=%s trace=%016x',
                  CASE WHEN event_type = 'error' THEN 'ERROR' ELSE 'INFO' END,
                  event_type,
                  CAST(floor(value * 10) AS BIGINT),
                  CASE WHEN event_type = 'error' THEN 'err' ELSE 'ok' END,
                  event_id)
    END AS text,
    CASE WHEN event_type = 'view' THEN '' ELSE event_type END AS tool,
    ts
  FROM events
)
"""
