"""Config-driven pipeline builder + resumable runner.

The service/graph analog (``/root/reference/service/internal/graph/
graph.go:78-376``): config names components; the builder composes the
Dataset chain (reverse-topological construction becomes plain
composition); the runner executes per input partition with manifest
commit/resume (entrypoint C semantics, SURVEY.md §3.3). When the config
allows, every pending partition runs through one streaming Ray plan and
each commits as soon as its acks cover its input (the persistent
queue's many-in-flight, each-acked-alone shape, persistent_queue.go:
357-448).
"""

from __future__ import annotations

import glob
import os
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import (EXPORTERS, RECEIVERS, ConfigError, DatasetTransform,
                      PipelineConfig, first_param, get_factory, resolve)
from ..sinks.parquet_sink import DebugSink, write_routed
from ..sources.parquet import read_turns
from ..state import manifest
from ..state.manifest import ManifestStore, PartitionTask, run_resumable
from ..stages.chain import StageChain


def _receiver_paths(name: str, rcfg: dict):
    if not rcfg.get("paths"):
        raise ConfigError(f"receiver {name!r}: paths is required")
    return rcfg["paths"]


def _sink_dir(out_root: str, name: str, ecfg: dict) -> str:
    return os.path.join(out_root, ecfg.get("path", name.replace("/", "_")))


def build_dataset(cfg: PipelineConfig, paths: list[str] | None = None,
                  ) -> ray.data.Dataset:
    """receivers → processors: compose the Dataset chain.

    Each receiver is its ``config.RECEIVERS`` row called as
    ``fn(paths, **fields)``; a row whose first parameter is ``events``
    gets ``read_turns(paths, columns=...)`` instead. ``paths`` overrides
    every receiver's own."""
    datasets = []
    for name in cfg.pipeline["receivers"]:
        rcfg = cfg.receivers[name]
        fn, kwargs = resolve(name.split("/")[0], rcfg, RECEIVERS)
        source = paths if paths is not None else _receiver_paths(name, rcfg)
        if first_param(fn) == "events":
            # same block rule as the flagship's read
            source = read_turns(source, columns=rcfg.get("columns"))
        datasets.append(fn(source, **kwargs))
    ds = datasets[0]
    if len(datasets) > 1:
        # implicit fan-in union (graph.go:271-273); schema-evolution
        # safe — receivers whose schemas differ by COLUMN SET merge
        # with null-fill, mismatched TYPES still fail loudly
        from ..stages.snapshot import union_by_name

        # receivers are reads: Ray knows a bare read's schema, and a
        # derived one probes its own first block, never the processors
        schemas = [tuple(zip(s.names, s.types))
                   for s in (d.schema() for d in datasets)]
        if all(s == schemas[0] for s in schemas[1:]):
            for other in datasets[1:]:
                ds = ds.union(other)
        else:
            ds = union_by_name(datasets)

    # adjacent processors that are plain batch maps run as one StageChain
    # over the whole block, as build_routed does, so Ray fuses them into
    # the read as one operator
    run: list = []

    def flush(ds: ray.data.Dataset) -> ray.data.Dataset:
        if run:
            ds = ds.map_batches(StageChain(run, None), batch_format="pyarrow")
            run.clear()
        return ds

    for stage, pcfg in _processors(cfg):
        if isinstance(stage, DatasetTransform):
            ds = stage(flush(ds))  # dataset-level rewrite (aggregate/sort/sample)
            continue
        kwargs = {}
        if pcfg.get("batch_size"):
            kwargs["batch_size"] = int(pcfg["batch_size"])
        if pcfg.get("concurrency"):
            # instance + concurrency = capped stateless tasks; for heavy
            # per-actor state pass the class via a dedicated factory instead
            kwargs["concurrency"] = int(pcfg["concurrency"])
        if kwargs:
            ds = flush(ds).map_batches(stage, batch_format="pyarrow", **kwargs)
        else:
            run.append(stage)
    return flush(ds)


def _processors(cfg: PipelineConfig) -> list[tuple]:
    """``(stage, processor config)`` per configured processor, in order."""
    return [(get_factory(name.split("/")[0]).create(cfg.processors[name]),
             cfg.processors[name])
            for name in cfg.pipeline.get("processors", [])]


def _one_chain(cfg: PipelineConfig) -> StageChain | None:
    """All processors as one ``StageChain``, or None when one of them does
    not join a chain in :func:`build_dataset` (a ``DatasetTransform``, or
    its own ``batch_size``/``concurrency``) or an exporter is not a
    ``parquet_sink``: such a config keeps one plan per fragment."""
    if any(n.split("/")[0] != "parquet_sink"
           for n in cfg.pipeline["exporters"]):
        return None
    stages = []
    for stage, pcfg in _processors(cfg):
        if isinstance(stage, DatasetTransform) or pcfg.get("batch_size") \
                or pcfg.get("concurrency"):
            return None
        stages.append(stage)
    return StageChain(stages, None)


def _has_route(cfg: PipelineConfig, ds: ray.data.Dataset,
               ) -> tuple[bool, ray.data.Dataset]:
    """``(ds has a route column, dataset to write)``, decided as
    :func:`run_exporters` says: ``ds.schema()`` on a lazy plan would run
    the plan under ``limit(1)`` before the real write."""
    procs = cfg.pipeline.get("processors") or []
    if procs and procs[-1].split("/")[0] == "route":
        return True, ds
    sch = ds.schema(fetch_if_missing=False)
    if sch is None:
        ds = ds.materialize()
        sch = ds.schema()  # materialized: reads the stored blocks
    return sch is not None and "route" in sch.names, ds


def run_exporters(cfg: PipelineConfig, ds: ray.data.Dataset, out_root: str) -> dict:
    """Hand ``ds`` to every configured exporter; the plan runs once.

    A ``parquet_sink`` with ``partition_by_route`` (the default) writes
    one Hive directory per route when ``ds`` has a ``route`` column,
    decided in this order without a schema probe: the last processor is
    ``route``; else the schema Ray knows without running anything; else
    materialize once, read the schema off the blocks and write them."""
    counts = {}
    exporters = cfg.pipeline["exporters"]
    if len(exporters) > 1:
        # each exporter consumes the Dataset; without this, the whole lazy
        # pipeline would re-execute once per exporter (the fanout consumer
        # hands every sink the SAME batch — internal/fanoutconsumer/logs.go)
        ds = ds.materialize()
    routed = False
    if any(n.split("/")[0] == "parquet_sink"
           and cfg.exporters[n].get("partition_by_route", True)
           for n in exporters):
        routed, ds = _has_route(cfg, ds)
    # bind every derived exporter before the plan runs, so a bad field
    # fails first
    derived = {n: resolve(n.split("/")[0], cfg.exporters[n], EXPORTERS)
               for n in exporters if n.split("/")[0] in EXPORTERS}
    for name in exporters:
        ecfg = cfg.exporters[name]
        if name in derived:
            fn, kwargs = derived[name]
            out = fn(ds, _sink_dir(out_root, name, ecfg), **kwargs)
            counts[name] = "written" if out is None else out
        elif name.split("/")[0] == "parquet_sink":
            target = _sink_dir(out_root, name, ecfg)
            if ecfg.get("partition_by_route", True) and routed:
                write_routed(ds, target)
            else:
                ds.write_parquet(target)
            counts[name] = "written"
        else:  # debug
            counts[name] = DebugSink(ecfg.get("verbosity", "basic")).consume(ds)
    return counts


def _partition_id(inputs: list[str]) -> str:
    """Content-addressed partition id: stable under input-set growth/reorder
    (the persistent queue keys items by identity, not arrival slot —
    persistent_queue.go read/write indices are per-item, not positional)."""
    import hashlib

    return hashlib.sha256("\n".join(sorted(inputs)).encode()).hexdigest()[:16]


def config_hash(cfg: PipelineConfig) -> str:
    import hashlib
    import json

    blob = json.dumps({"r": cfg.receivers, "p": cfg.processors,
                       "e": cfg.exporters, "pl": cfg.pipeline}, sort_keys=True,
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parquet_sinks(cfg: PipelineConfig) -> list[tuple[str, str, bool]]:
    """``(name, dir under a partition, partition by route)`` per
    ``parquet_sink`` exporter."""
    return [(n, _sink_dir("", n, cfg.exporters[n]),
             cfg.exporters[n].get("partition_by_route", True))
            for n in cfg.pipeline["exporters"]
            if n.split("/")[0] == "parquet_sink"]


def _sink_counts(cfg: PipelineConfig, root: str,
                 ) -> tuple[dict[str, int], dict[str, int]]:
    """``(per_route, rows per parquet sink)`` under partition dir ``root``,
    from the parquet footers: a sink with ``route=<name>`` directories
    counts the rows in them, one without counts all its rows;
    ``per_route`` merges the routed sinks."""
    from ..state.metrics import parquet_rows, routed_counts

    per_route: dict[str, int] = {}
    per_sink: dict[str, int] = {}
    for name, rel, _ in _parquet_sinks(cfg):
        sink_dir = os.path.join(root, rel)
        rc = routed_counts(sink_dir)
        per_route.update(rc)
        per_sink[name] = sum(rc.values()) if rc else parquet_rows(sink_dir)
    return per_route, per_sink


class FragmentWrite:
    """The one-plan UDF. For each input fragment in a block (the ``path``
    column ``include_paths`` adds), run ``chain`` over its rows and write
    the result under that fragment's staging dir with
    ``pyarrow.dataset.write_dataset``, the call Ray's ``ParquetDatasink``
    makes (Hive ``route=`` directories when a sink partitions by route and
    the rows have a ``route`` column). Returns one ack row per fragment:
    its rows consumed and produced, each file written (relative to the
    staging dir) with its rows, and when this call started."""

    def __init__(self, chain: StageChain, staging: dict[str, str],
                 sinks: list[tuple[str, bool]]):
        self.chain = chain
        self.staging = staging  # fragment path as read -> staging dir
        self.sinks = sinks  # (dir under the staging dir, partition by route)

    def __call__(self, block: pa.Table) -> pa.Table:
        import pyarrow.dataset as pads

        start = time.time()
        col = block.column("path")
        block = block.drop_columns(["path"])
        fragments = pc.unique(col).to_pylist()
        acks = []
        for frag in fragments:
            part = block if len(fragments) == 1 else \
                block.filter(pc.equal(col, frag))
            out = self.chain(part)
            written: list = []
            if out.num_rows:
                tag = uuid.uuid4().hex  # this attempt's files
                for rel, by_route in self.sinks:
                    routed = by_route and "route" in out.schema.names
                    pads.write_dataset(
                        out, os.path.join(self.staging[frag], rel),
                        format="parquet",
                        basename_template=f"{tag}-{{i}}.parquet",
                        partitioning=["route"] if routed else None,
                        partitioning_flavor="hive" if routed else None,
                        existing_data_behavior="overwrite_or_ignore",
                        file_visitor=written.append)
            acks.append((frag, part.num_rows, out.num_rows, start,
                         [os.path.relpath(w.path, self.staging[frag])
                          for w in written],
                         [w.metadata.num_rows for w in written]))
        cols = list(zip(*acks))
        return pa.table({
            "fragment": pa.array(cols[0], pa.string()),
            "consumed": pa.array(cols[1], pa.int64()),
            "produced": pa.array(cols[2], pa.int64()),
            "start": pa.array(cols[3], pa.float64()),
            "files": pa.array(cols[4], pa.list_(pa.string())),
            "file_rows": pa.array(cols[5], pa.list_(pa.int64())),
        })


def _run_one_plan(cfg: PipelineConfig, store: ManifestStore,
                  tasks: list[PartitionTask], chash: str, chain: StageChain,
                  rows_in: dict[str, int], read_kwargs: dict) -> list[str]:
    """Run ``tasks`` (one input fragment each) through one lazy plan,
    ``read_turns(include_paths=True, one_task_per_file=True)`` →
    ``map_batches(FragmentWrite)``, and commit each fragment as soon as
    the rows its acks consumed reach its footer's row count; returns the
    committed ids in commit order.
    A zero-row fragment commits an empty partition without entering the
    plan (Ray's read drops empty tables, so no ack would come).

    Before a commit its staging dir is settled against the acks
    (:func:`manifest.settle_staging`), and the counts must hold: rows in
    == rows consumed, and each sink's rows on disk == rows produced;
    ``dropped`` = consumed − produced is recorded. ``wall_sec`` is commit
    time − the fragment's first UDF entry: its own measured interval, not
    a share of the plan, so neither the plan start nor the fused read is
    in it. ``plan_wall_sec`` is commit time − the start of this call. Both
    are wall-clock differences across processes, so they assume one host
    or synced clocks."""
    t_run = time.time()
    sinks = _parquet_sinks(cfg)
    sink_names = {name: "written" for name, _, _ in sinks}  # as run_exporters
    staging = {t.partition_id: manifest.open_staging(store, t.partition_id)
               for t in tasks}
    committed: list[str] = []

    def commit(task: PartitionTask, consumed=0, produced=0, start=t_run,
               file_rows=(), acks=0) -> None:
        pid = task.partition_id
        if rows_in[pid] != consumed:
            raise RuntimeError(f"fragment {task.inputs[0]}: {consumed} rows "
                               f"consumed, its footer has {rows_in[pid]}")
        manifest.settle_staging(staging[pid], dict(file_rows))
        per_route, per_sink = _sink_counts(cfg, staging[pid])
        for name, rows in per_sink.items():
            if rows != produced:
                raise RuntimeError(
                    f"{name}, fragment {task.inputs[0]}: {rows} rows on "
                    f"disk, {produced} produced")
        metrics = {"rows_in": rows_in[pid], "rows_out": sum(per_sink.values()),
                   "per_route": per_route, "dropped": consumed - produced,
                   "acks": acks, "sinks": sink_names}
        now = time.time()
        manifest.commit_staging(store, task, staging[pid], chash, metrics,
                                wall_sec=now - start,
                                plan_wall_sec=now - t_run)
        committed.append(pid)

    by_path = {}
    for task in tasks:
        if rows_in[task.partition_id]:
            by_path[os.path.abspath(task.inputs[0])] = task
        else:
            commit(task)
    if not by_path:
        return committed
    udf = FragmentWrite(chain, {p: os.path.abspath(staging[t.partition_id])
                                for p, t in by_path.items()},
                        [(rel, by_route) for _, rel, by_route in sinks])
    # one read task per fragment: a fragment commits when its last
    # block is acked, so bundling would hold it for its neighbours
    ds = read_turns(list(by_path), include_paths=True, one_task_per_file=True,
                    **read_kwargs).map_batches(udf, batch_format="pyarrow")
    acked = {p: {"consumed": 0, "produced": 0, "start": float("inf"),
                 "file_rows": {}, "acks": 0} for p in by_path}
    for batch in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        for ack in batch.to_pylist():
            frag, task = ack["fragment"], by_path[ack["fragment"]]
            a = acked[frag]
            a["consumed"] += ack["consumed"]
            a["produced"] += ack["produced"]
            a["start"] = min(a["start"], ack["start"])
            a["file_rows"].update(zip(ack["files"], ack["file_rows"]))
            a["acks"] += 1
            if a["consumed"] >= rows_in[task.partition_id]:
                commit(task, **a)
    short = [f"{t.inputs[0]} ({acked[p]['consumed']} of "
             f"{rows_in[t.partition_id]} rows)"
             for p, t in by_path.items() if t.partition_id not in committed]
    if short:
        raise RuntimeError("the plan ended before these fragments were "
                           f"acked in full: {', '.join(short)}")
    return committed


def run_pipeline(cfg: PipelineConfig, out_root: str, resume: bool = True) -> dict:
    """Partition-per-input-file resumable execution: each input fragment
    is one manifest unit (persistent-queue item analog), committed
    exactly once; returns ``{"ran": [ids], "skipped": [ids]}``.

    The receiver must read parquet: ``parquet``, or one that derives its
    rows from parquet events (``turns``, ``spans``, ``profile_frames``).
    When the receiver is ``parquet``, every processor joins one
    ``StageChain`` and every exporter is a ``parquet_sink``, all pending
    fragments run through one streaming plan (:func:`_run_one_plan`) and
    each manifest records ``wall_sec`` (commit − the fragment's first UDF
    entry), ``plan_wall_sec`` (commit − run start) and ``dropped``.
    Input with its own ``path`` column would collide with the plan's
    fragment column, so it, and any other config, runs one plan per
    fragment (:func:`manifest.run_resumable`), whose ``wall_sec`` covers
    the fragment's whole plan."""
    if len(cfg.pipeline["receivers"]) != 1:
        raise ValueError("the resumable runner partitions by input fragment "
                         "and supports exactly one receiver; union multiple "
                         "sources upstream or run one pipeline per source")
    for name in cfg.pipeline["exporters"]:
        target = _sink_dir("", name, cfg.exporters[name])
        if os.path.isabs(target):
            raise ConfigError(
                f"exporter {name!r}: path {target!r} is absolute; "
                "run_pipeline writes each fragment under its own partition "
                "directory, so give a path relative to the output root")
    (rname,) = cfg.pipeline["receivers"]
    rcfg = cfg.receivers[rname]
    pats = _receiver_paths(rname, rcfg)
    paths = sorted(
        p for pat in ([pats] if isinstance(pats, str) else pats)
        for p in (glob.glob(os.path.join(pat, "*.parquet"))
                  if os.path.isdir(pat) else glob.glob(pat)))
    if not paths:
        raise ConfigError(
            f"receiver {rname!r}: no input file matches paths {pats!r} "
            "(a directory matches the *.parquet files in it)")
    rtype = rname.split("/")[0]
    read_fn, read_kwargs = resolve(rtype, rcfg, RECEIVERS)
    if rtype != "parquet" and first_param(read_fn) != "events":
        raise ConfigError(
            f"receiver {rname!r}: run_pipeline reads parquet fragments; "
            f"use a parquet receiver (or turns, spans, profile_frames), or "
            f"build_dataset and run_exporters for a {rtype} source")
    store = ManifestStore(out_root)
    chash = config_hash(cfg)
    # Partition identity = content-addressed hash of the input path(s), not a
    # positional index: a new input file that sorts before existing ones must
    # not shift pids (which would skip the new file as "committed" and write a
    # displaced file twice). manifest.pending additionally cross-checks the
    # manifest's recorded inputs before skipping.
    tasks = [PartitionTask(_partition_id([p]), [p]) for p in paths]

    chain = _one_chain(cfg) if rtype == "parquet" else None
    if chain is not None:
        import pyarrow.parquet as pq

        todo, skipped = manifest.pending(store, tasks, chash, force=not resume)
        footers = {t.partition_id: pq.read_metadata(t.inputs[0])
                   for t in todo}
        read_cols = read_kwargs.get("columns")
        if not any("path" in (read_cols or md.schema.to_arrow_schema().names)
                   for md in footers.values()):
            ran = _run_one_plan(cfg, store, todo, chash, chain,
                                {pid: md.num_rows
                                 for pid, md in footers.items()},
                                read_kwargs)
            return {"ran": ran, "skipped": skipped}

    def process(task: PartitionTask, staging: str) -> dict:
        from ..state.metrics import parquet_rows

        rows_in = sum(parquet_rows(p) for p in task.inputs)  # metadata only
        ds = build_dataset(cfg, paths=task.inputs)
        sink_counts = run_exporters(cfg, ds, staging)
        per_route, per_sink = _sink_counts(cfg, staging)
        has_filter = any(n.split("/")[0] == "filter"
                         for n in cfg.pipeline.get("processors", []))
        metrics = {"rows_in": rows_in, "rows_out": sum(per_sink.values()),
                   "per_route": per_route,
                   "sinks": {k: str(v) for k, v in sink_counts.items()}}
        if not has_filter and per_route:
            from ..state.metrics import check_identities

            check_identities(rows_in, per_route)  # produced == consumed
        return metrics

    return run_resumable(store, tasks, process, chash, force=not resume)
