"""One-barrier combine — the shared dataflow under every bounded-key
tree aggregate (``grouped_count``/``grouped_agg`` on an input of at most
``bucketing.TARGET_BUCKET_BYTES``, OHLC candles, heavy-hitter summaries, k-means centroid sums) and every
mergeable-sketch builder (HLL / KLL / CMS / bloom): per-batch partial
rows → ``repartition(1)`` → ONE merge task.

The partials are already bounded (≤ |keys| rows, or one sketch row, per
block), so an intermediate ``repartition(k)`` → merge level would only
divide the final task's input by the constant k, at the price of an
extra all-to-all barrier and k extra Ray tasks per run (~20 ms of fixed
cost each on a 1-CPU host).

Ray never invokes a map UDF on an empty dataset, so an empty input
yields zero rows here; :func:`tree_reduce_single` turns that into
``None`` and the caller supplies its identity element.

:func:`collect` is the package's one way to pull a dataset's blocks to
the driver."""

from __future__ import annotations

import pyarrow as pa
import ray.data


def combine_all(partials: ray.data.Dataset, combine) -> ray.data.Dataset:
    """Gather every partial row into one block and run ``combine`` (an
    Arrow table → table merge) over it once."""
    return partials.repartition(1).map_batches(
        combine, batch_format="pyarrow", batch_size=None)


def tree_reduce_single(partials: ray.data.Dataset, merge_fn):
    """Reduce a dataset of mergeable partial rows to its single merged
    row (a dict), or ``None`` for an empty input — the caller supplies
    the identity element (zero registers / zero matrix / empty bloom),
    because only it knows the shape."""
    rows = combine_all(partials, merge_fn).take(1)
    return rows[0] if rows else None


def collect(ds: ray.data.Dataset) -> list[pa.Table]:
    """Run ``ds``'s plan once and return its non-empty blocks as Arrow
    tables on the driver.

    Materializes first: on a lazy plan ``Dataset.to_arrow_refs()`` runs
    the plan, then asks ``schema(fetch_if_missing=True)``, which runs it
    a second time under ``limit(1)`` — after an all-to-all, the whole
    exchange again. On a materialized dataset that probe, if needed at
    all, reads the stored blocks, not the plan."""
    return [t for t in ray.get(ds.materialize().to_arrow_refs())
            if t.num_rows]
