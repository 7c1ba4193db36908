"""Re-batching / splitting — the batch processor's size semantics in batch mode.

``/root/reference/processor/batchprocessor/batch_processor.go:41-110``
accumulates until ``send_batch_size`` (default 8192,
``factory.go:19-20``) or a timeout, splitting at ``send_batch_max_size``
(``splitlogs.go:11-68`` carves exactly N records). The timeout trigger is
meaningless in batch mode (SURVEY.md §2.10); what remains is:

- **size semantics** → ``map_batches(..., batch_size=N)`` downstream, plus
  ``split_table`` (the splitLogs analog — trivial zero-copy slices on a
  flat Arrow table);
- **metadata-key sharding** with a cardinality limit
  (``batch_processor.go:323-368``, errTooManyBatchers ``:31``) →
  ``shard_by_metadata`` validating distinct-key cardinality before a
  keyed repartition/groupby.
"""

from __future__ import annotations

import pyarrow as pa

DEFAULT_SEND_BATCH_SIZE = 8192  # reference factory.go:19-20
DEFAULT_METADATA_CARDINALITY_LIMIT = 1000  # reference batch_processor.go:31


class TooManyBatchersError(ValueError):
    """errTooManyBatchers analog (batch_processor.go:31)."""


def split_table(table: pa.Table, max_rows: int) -> list[pa.Table]:
    """splitLogs analog: carve into chunks of exactly ``max_rows`` (last one
    smaller) — zero-copy slices."""
    if max_rows <= 0:
        raise ValueError("max_rows must be positive")
    return [table.slice(i, max_rows) for i in range(0, table.num_rows, max_rows)]


def check_metadata_cardinality(ds, keys: list[str],
                               limit: int = DEFAULT_METADATA_CARDINALITY_LIMIT) -> int:
    """Count distinct metadata-key combinations; raise TooManyBatchersError
    over the limit — mirrors the reference guard before creating one shard
    (goroutine there, partition here) per combination. Runs as a small
    two-phase distinct (unique on the key projection)."""
    from .aggregate import grouped_count

    distinct = grouped_count(ds.select_columns(keys), keys).count()
    if distinct > limit:
        raise TooManyBatchersError(
            f"metadata cardinality {distinct} exceeds limit {limit}")
    return distinct
