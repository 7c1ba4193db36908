"""Timestamp kernels (pcommon.Timestamp analog,
``/root/reference/pdata/pcommon/timestamp.go:12-22`` — uint64 epoch ns).

In batch mode the collector's only time semantics are arrival batching
timeouts (meaningless here) and event-time bucketing for the north-star
aggregate, which is exact in batch (SURVEY.md §2.10)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def decode_snowflake(ids: pa.ChunkedArray | pa.Array, *,
                     epoch_ms: int = 0, machine_bits: int = 10,
                     seq_bits: int = 12) -> dict[str, pa.Array]:
    """Decode Snowflake-style ids (the Twitter layout every log
    pipeline meets in practice: ``[41-bit ms timestamp | machine |
    sequence]``) into ``sf_ts_ms`` (epoch ms, ``epoch_ms`` added
    back), ``sf_machine`` and ``sf_seq`` — pure bit arithmetic, so the
    SQL mirror is ``id >> 22`` / ``(id >> 12) & 1023`` / ``id &
    4095``. Negative ids (not a snowflake) yield NULLs in all three
    fields rather than garbage."""
    import numpy as np

    if machine_bits < 0 or seq_bits < 0 or machine_bits + seq_bits > 22:
        raise ValueError(
            "decode_snowflake: machine_bits/seq_bits must be >= 0 and "
            "sum to <= 22 (the standard layout is 10 + 12)")
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    if ids.null_count:
        # a null would force the numpy conversion through float64 and
        # silently corrupt every id above 2^53 — map nulls to the
        # negative (→ NULL-output) lane instead
        ids = pc.fill_null(ids, -1)
    v = np.asarray(ids.to_numpy(zero_copy_only=False), np.int64)
    shift = machine_bits + seq_bits
    ok = v >= 0
    ts_ms = (v >> shift) + int(epoch_ms)
    machine = (v >> seq_bits) & ((1 << machine_bits) - 1)
    seq = v & ((1 << seq_bits) - 1)
    mask = pa.array(ok)
    null64 = pa.scalar(None, pa.int64())
    return {
        "sf_ts_ms": pc.if_else(mask, pa.array(ts_ms), null64),
        "sf_machine": pc.if_else(mask, pa.array(machine), null64),
        "sf_seq": pc.if_else(mask, pa.array(seq), null64),
    }


def busday_count_col(start: pa.ChunkedArray | pa.Array,
                     end: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Business days (Mon–Fri) in ``[start, end)`` per row — the
    calendar-aware SLA lag every ops pipeline reports. Exact integers,
    ANTISYMMETRIC for reversed ranges: ``bd(a, b) == -bd(b, a)``
    (weekdays in ``[min, max)``, signed) — deliberately NOT raw
    ``np.busday_count``, whose reversed-range convention counts
    ``(end, begin]`` instead. Vectorized over day-truncated
    timestamps; nulls are rejected loudly — fill or filter upstream."""
    import numpy as np

    def to_days(col):
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            raise ValueError("busday_count_col: null timestamps")
        return col.cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False).astype("datetime64[D]")

    a, b = to_days(start), to_days(end)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    bd = np.busday_count(lo, hi).astype("int64")
    return pa.array(np.where(b >= a, bd, -bd))
