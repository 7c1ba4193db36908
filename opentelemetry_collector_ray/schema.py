"""Canonical Arrow schemas for the transcript ("turns") data model.

The reference's unit of data is a ``plog.Logs`` batch of nested
LogRecords (``/root/reference/pdata/plog/generated_logrecord.go:21-33``:
TimeUnixNano, SeverityText, Body, Attributes, ...). Our batch analog is a
flat Arrow table with one row per conversation turn (BASELINE.json
``input_hint``):

    conv_id: string        -- resource identity (Resource.Attributes analog)
    turn_idx: int32        -- stable intra-conversation order (FIFO analog)
    role: string           -- severity/scope analog
    text: string           -- LogRecord.Body (Str)
    tool: string           -- instrumentation-scope analog ("" = non-tool turn;
                              empty-vs-missing is significant, cf. reference
                              processor/batchprocessor/config.go:36-38)
    ts: timestamp[us]      -- TimeUnixNano analog

Parsed attributes (the ``pcommon.Map`` analog,
``/root/reference/pdata/pcommon/map.go:65-319``) are carried as top-level
typed columns (struct-flattened) — Arrow-idiomatic and fully
vectorizable. A generic ``map<string,string>`` conversion exists in
``functions.attrs`` for dynamic-key use.
"""

from __future__ import annotations

import pyarrow as pa

TURNS_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

ROLES = ("user", "assistant", "system", "tool")

# Columns the parse stage appends (attribute-map analog, struct-flattened).
PARSED_FIELDS = pa.schema(
    [
        pa.field("level", pa.string()),
        pa.field("tool_attr", pa.string()),
        pa.field("latency_ms", pa.int64()),
        pa.field("status", pa.string()),
        pa.field("trace", pa.string()),
        pa.field("parse_rule", pa.int8()),  # index of first matching rule; -1 = miss
    ]
)


class SchemaError(ValueError):
    """Permanent (non-retryable) data error — the analog of
    ``consumererror.NewPermanent`` (reference
    consumer/consumererror/permanent.go:16-32)."""


def validate_turns(table: pa.Table, strict: bool = True) -> pa.Table:
    """Validate an input batch against TURNS_SCHEMA.

    Checks column presence and types; casts losslessly when possible.
    Raises SchemaError (permanent) on missing columns / uncastable types,
    mirroring the collector's permanent-error classification.
    """
    missing = [f.name for f in TURNS_SCHEMA if f.name not in table.column_names]
    if missing:
        raise SchemaError(f"turns table missing columns: {missing}")
    cols = []
    for f in TURNS_SCHEMA:
        col = table.column(f.name)
        if col.type != f.type:
            try:
                col = col.cast(f.type)
            except pa.ArrowInvalid as e:  # pragma: no cover
                raise SchemaError(f"column {f.name}: cannot cast {col.type} -> {f.type}: {e}")
        cols.append(col)
    extra = [n for n in table.column_names if n not in TURNS_SCHEMA.names]
    if strict and extra:
        raise SchemaError(f"unexpected columns: {extra}")
    out = pa.table(dict(zip(TURNS_SCHEMA.names, cols)))
    for n in extra:
        out = out.append_column(n, table.column(n))
    return out


def check_unique_turn_ids(ds) -> int:
    """Global validation: (conv_id, turn_idx) must be unique — the unique
    record-id contract the reference's contract checker relies on
    (exporter/exportertest/contract_checker.go:27-31). Distributed check:
    two-phase count on the id pair; any group with n > 1 is a violation.
    Raises SchemaError (permanent); returns total rows otherwise."""
    from .stages.aggregate import grouped_count

    counts = grouped_count(ds.select_columns(["conv_id", "turn_idx"]),
                           ["conv_id", "turn_idx"], count_name="n")
    import pyarrow.compute as pc2

    dups = counts.map_batches(
        lambda t: t.filter(pc2.greater(t.column("n"), 1)),
        batch_format="pyarrow").take(5)
    if dups:
        raise SchemaError(f"duplicate (conv_id, turn_idx) ids: {dups}")
    totals = counts.map_batches(
        lambda t: pa.table({"s": pa.array([pc2.sum(t.column("n")).as_py() or 0],
                                          pa.int64())}),
        batch_format="pyarrow").to_pandas()
    # Ray drops the schema of 0-row datasets in to_pandas — guard the column
    if len(totals) == 0 or "s" not in totals.columns:
        return 0
    return int(totals["s"].sum())
