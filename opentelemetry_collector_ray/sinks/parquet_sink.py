"""Parquet sinks — otlpexporter analog (``/root/reference/exporter/
otlpexporter/otlp.go:93-173``) with router fan-out.

Fan-out design (SURVEY.md §2.7): the collector's fanout consumer clones
batches per mutating downstream (``internal/fanoutconsumer/logs.go:21-78``);
with immutable Arrow blocks a single pass computes ``route`` and the sink
partitions by it — each route becomes a Hive-style subdirectory, written
as many part files (never one giant file → resumable, parallel).
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data

from ..stages.treereduce import collect


def write_routed(ds: ray.data.Dataset, out_dir: str, route_col: str = "route",
                 **kwargs) -> None:
    """Single-pass fan-out: Hive-partitioned write by route column, one
    ``route_col=<sink>`` subdirectory per route."""
    ds.write_parquet(out_dir, partition_cols=[route_col], **kwargs)


class DebugSink:
    """debugexporter analog (``/root/reference/exporter/debugexporter/
    exporter.go:20-105``): basic → one summary line per batch; detailed →
    otlptext-style per-record lines. Consumes via iter_batches (streaming,
    driver-side print like the reference's stderr writer)."""

    def __init__(self, verbosity: str = "basic", max_rows: int = 20):
        if verbosity not in ("basic", "normal", "detailed"):
            raise ValueError(verbosity)
        self.verbosity = verbosity
        self.max_rows = max_rows

    def consume(self, ds: ray.data.Dataset, out=None) -> int:
        import sys

        out = out or sys.stderr
        total = 0
        shown = 0
        for batch in ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
            total += batch.num_rows
            print(f"LogsExporter\t#records: {batch.num_rows}", file=out)
            if self.verbosity == "detailed":
                for row in batch.slice(0, max(0, self.max_rows - shown)).to_pylist():
                    print("    " + " ".join(f"{k}={v!r}" for k, v in row.items()),
                          file=out)
                    shown += 1
        print(f"LogsExporter\ttotal: {total}", file=out)
        return total


def sorted_partition_write(ds: ray.data.Dataset, out_dir: str,
                           keys=("conv_id", "turn_idx"), **kwargs) -> None:
    """Verification-grade sink: stable (conv_id, turn_idx) order within each
    output file (north-rule byte-equality ordering). Sort is an all-to-all
    range shuffle — used at verification time, not in the hot path
    (SURVEY.md §2.6). For the scalable variant see bucketed_sorted_write."""
    ds.sort(list(keys)).write_parquet(out_dir, **kwargs)


def bucketed_sorted_write(ds: ray.data.Dataset, out_dir: str,
                          key: str = "conv_id",
                          order=("conv_id", "turn_idx"),
                          n_buckets: int | str = "auto", **kwargs) -> None:
    """Scalable ordered sink: hash-partition rows by ``key`` into buckets,
    sort WITHIN each bucket (Arrow ``Table.sort_by``, no pandas round
    trip), one sorted file set per bucket directory.

    Avoids the global range sort: every conversation lands wholly in one
    bucket (hash partitioning), so per-conversation (conv_id, turn_idx)
    order — the byte-equality contract — holds inside that bucket's
    output, and buckets write independently in parallel (also the
    resume/skip unit). Global total order across buckets is NOT produced;
    consumers that need it merge bucket streams by key (cheap: buckets are
    internally sorted). ``n_buckets="auto"`` sizes bucket tasks to input
    bytes (stages/bucketing.py) — a fixed count would mean ever-larger
    bucket tasks as data grows."""
    from ..functions.hashing import bucket_of
    from ..stages.bucketing import bucketed_map_groups, resolve_n_buckets

    def sort_bucket(g: pa.Table) -> pa.Table:
        g = g.sort_by([(c, "ascending") for c in order])
        # the bucket number names the output directory
        return g.append_column("_bucket",
                               pa.array(bucket_of(g.column(key), nb)))

    nb = resolve_n_buckets(ds, n_buckets)
    ordered = bucketed_map_groups(ds, key, sort_bucket, n_buckets=nb)
    ordered.write_parquet(out_dir, partition_cols=["_bucket"], **kwargs)


def compact_files(in_dir: str, out_dir: str,
                  target_bytes: int = 128 << 20) -> pa.Table:
    """Small-file compaction — the lakehouse OPTIMIZE maintenance pass:
    bin-pack the input directory's parquet files into ~``target_bytes``
    groups (first-fit over size-sorted files — only file NAMES and
    SIZES touch the driver), then ONE distributed task per group
    streams its inputs into ONE output file, committed atomically
    (tmp + rename, the sink convention). Returns the manifest table
    (out_file, n_rows, n_inputs, n_bytes_in).

    A streaming micro-batch pipeline (the reference's file exporter
    appends per flush) leaves thousands of KB-sized files per day;
    at 100 TB the read-side task count — not the bytes — becomes the
    bottleneck, and this is the repair. Schemas must match exactly;
    evolve first via ``stages/snapshot.union_by_name`` (loud error,
    never a silent cast)."""
    import uuid

    files = sorted(f for f in os.listdir(in_dir)
                   if f.endswith(".parquet") and not f.startswith("_"))
    if not files:
        raise ValueError(f"compact_files: no parquet files in {in_dir}")
    sizes = {f: os.path.getsize(os.path.join(in_dir, f)) for f in files}
    groups: list[list[str]] = []
    cur: list[str] = []
    cur_bytes = 0
    for f in sorted(files, key=lambda f: -sizes[f]):
        if cur and cur_bytes + sizes[f] > target_bytes:
            groups.append(cur)
            cur, cur_bytes = [], 0
        cur.append(f)
        cur_bytes += sizes[f]
    if cur:
        groups.append(cur)
    os.makedirs(out_dir, exist_ok=True)

    def compact_one(batch: dict) -> pa.Table:
        import pyarrow.parquet as pq

        rows = []
        for gid, names in zip(batch["gid"], batch["names"]):
            gid = int(gid)
            names = list(names)
            tables = [pq.read_table(os.path.join(in_dir, n))
                      for n in names]
            schemas = {t.schema.to_string() for t in tables}
            if len(schemas) > 1:
                raise ValueError(
                    "compact_files: input schemas differ inside group "
                    f"{gid} — run union_by_name first")
            t = pa.concat_tables(tables)
            fname = f"compact-{gid:05d}.parquet"
            tmp = os.path.join(out_dir, fname + "."
                               + uuid.uuid4().hex[:8] + ".tmp")
            pq.write_table(t, tmp)
            os.replace(tmp, os.path.join(out_dir, fname))
            rows.append({"out_file": fname, "n_rows": t.num_rows,
                         "n_inputs": len(names),
                         "n_bytes_in": sum(sizes[n] for n in names)})
        return pa.table({
            "out_file": pa.array([r["out_file"] for r in rows]),
            "n_rows": pa.array([r["n_rows"] for r in rows], pa.int64()),
            "n_inputs": pa.array([r["n_inputs"] for r in rows],
                                 pa.int64()),
            "n_bytes_in": pa.array([r["n_bytes_in"] for r in rows],
                                   pa.int64())})

    spec = ray.data.from_items(
        [{"gid": i, "names": g} for i, g in enumerate(groups)])
    man = spec.map_batches(compact_one, batch_size=1,
                           batch_format="numpy")
    parts = collect(man)
    return pa.concat_tables(parts).sort_by([("out_file", "ascending")])
