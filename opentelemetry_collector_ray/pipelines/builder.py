"""Config-driven pipeline builder + resumable runner.

The service/graph analog (``/root/reference/service/internal/graph/
graph.go:78-376``): config names components; the builder composes the
Dataset chain (reverse-topological construction becomes plain
composition); the runner executes per input partition with manifest
commit/resume (entrypoint C semantics, SURVEY.md §3.3).
"""

from __future__ import annotations

import glob
import os

import ray.data

from ..config import (EXPORTERS, RECEIVERS, ConfigError, DatasetTransform,
                      PipelineConfig, first_param, get_factory, resolve)
from ..sinks.parquet_sink import DebugSink, write_routed
from ..sources.parquet import read_turns
from ..state.manifest import ManifestStore, PartitionTask, run_resumable
from .flagship import StageChain


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

    for name in cfg.pipeline.get("processors", []):
        type_name = name.split("/")[0]
        stage = get_factory(type_name).create(cfg.processors[name])
        pcfg = cfg.processors[name]
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


def run_pipeline(cfg: PipelineConfig, out_root: str, resume: bool = True) -> dict:
    """Partition-per-input-file resumable execution: each input fragment
    group is one manifest unit (persistent-queue item analog)."""
    if len(cfg.pipeline["receivers"]) != 1:
        raise ValueError("the resumable runner partitions by input fragment "
                         "and supports exactly one receiver; union multiple "
                         "sources upstream or run one pipeline per source")
    (rname,) = cfg.pipeline["receivers"]
    pats = _receiver_paths(rname, cfg.receivers[rname])
    paths = sorted(
        p for pat in ([pats] if isinstance(pats, str) else pats)
        for p in (glob.glob(os.path.join(pat, "*.parquet"))
                  if os.path.isdir(pat) else glob.glob(pat)))
    if not paths:
        raise ConfigError(
            f"receiver {rname!r}: no input file matches paths {pats!r} "
            "(a directory matches the *.parquet files in it)")
    store = ManifestStore(out_root)
    chash = config_hash(cfg)
    # Partition identity = content-addressed hash of the input path(s), not a
    # positional index: a new input file that sorts before existing ones must
    # not shift pids (which would skip the new file as "committed" and write a
    # displaced file twice). run_resumable additionally cross-checks the
    # manifest's recorded inputs before skipping.
    tasks = [PartitionTask(_partition_id([p]), [p]) for p in paths]

    def process(task: PartitionTask, staging: str) -> dict:
        from ..state.metrics import parquet_rows, routed_counts

        rows_in = sum(parquet_rows(p) for p in task.inputs)  # metadata only
        ds = build_dataset(cfg, paths=task.inputs)
        sink_counts = run_exporters(cfg, ds, staging)
        per_route: dict[str, int] = {}
        rows_out = 0
        for name in cfg.pipeline["exporters"]:
            if name.split("/")[0] != "parquet_sink":
                continue
            sink_dir = _sink_dir(staging, name, cfg.exporters[name])
            rc = routed_counts(sink_dir)
            if rc:
                per_route.update(rc)
                rows_out += sum(rc.values())
            else:
                rows_out += parquet_rows(sink_dir)
        has_filter = any(n.split("/")[0] == "filter"
                         for n in cfg.pipeline.get("processors", []))
        metrics = {"rows_in": rows_in, "rows_out": rows_out,
                   "per_route": per_route,
                   "sinks": {k: str(v) for k, v in sink_counts.items()}}
        if not has_filter and per_route:
            from ..state.metrics import check_identities

            check_identities(rows_in, per_route)  # produced == consumed
        return metrics

    return run_resumable(store, tasks, process, chash, force=not resume)
