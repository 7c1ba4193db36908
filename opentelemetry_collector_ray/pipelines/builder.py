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

from ..config import DatasetTransform, PipelineConfig, get_factory
from ..sinks.parquet_sink import DebugSink, write_routed
from ..sources.parquet import read_turns
from ..state.manifest import ManifestStore, PartitionTask, run_resumable
from .flagship import StageChain


def _schema_from_cfg(rcfg: dict, receiver: str):
    """Optional pinned-schema config (`schema: {col: type}`) shared by
    the jsonl and ipc receivers."""
    import pyarrow as pa

    if not rcfg.get("schema"):
        return None
    types = {"int64": pa.int64(), "int32": pa.int32(),
             "float64": pa.float64(), "float32": pa.float32(),
             "string": pa.string(), "bool": pa.bool_(),
             "timestamp_us": pa.timestamp("us"),
             "binary": pa.binary()}
    fields = []
    for c, tname in rcfg["schema"].items():
        if tname not in types:
            raise ValueError(
                f"{receiver} receiver: unknown type {tname!r} for "
                f"column {c!r}; one of {sorted(types)}")
        fields.append((c, types[tname]))
    return pa.schema(fields)


def build_dataset(cfg: PipelineConfig, paths: list[str] | None = None,
                  ) -> ray.data.Dataset:
    """receivers → processors: compose the Dataset chain."""
    datasets = []
    for name in cfg.pipeline["receivers"]:
        rcfg = cfg.receivers[name]
        rtype = name.split("/")[0]
        rpaths = paths if paths is not None else rcfg["paths"]
        if rtype == "parquet":
            # same block rule as the flagship's read
            datasets.append(read_turns(rpaths, columns=rcfg.get("columns")))
        elif rtype == "csv":
            # delimited-text receiver: Arrow's C++ CSV reader per file
            # block, column pruning after parse
            ds = ray.data.read_csv(rpaths)
            if rcfg.get("columns"):
                ds = ds.select_columns(list(rcfg["columns"]))
            datasets.append(ds)
        elif rtype == "otlp_json":
            # OTLP/JSON request-line files → flat LogRecord rows
            from ..sources.otlp_json import read_otlp_json_logs

            datasets.append(read_otlp_json_logs(rpaths))
        elif rtype == "otlp_proto":
            # OTLP protobuf request files (*.binpb) → flat LogRecord rows
            from ..sources.otlp_proto import read_otlp_proto_logs

            datasets.append(read_otlp_proto_logs(rpaths))
        elif rtype == "otlp_proto_metrics":
            from ..sources.otlp_metrics import read_otlp_proto_metrics

            datasets.append(read_otlp_proto_metrics(rpaths))
        elif rtype == "otlp_proto_spans":
            from ..sources.otlp_proto import read_otlp_proto_spans

            datasets.append(read_otlp_proto_spans(rpaths))
        elif rtype == "otlp_json_spans":
            from ..sources.otlp_json import read_otlp_json_spans

            datasets.append(read_otlp_json_spans(rpaths))
        elif rtype == "jsonl":
            # filelog-receiver analog: JSONL files, optional pinned schema
            from ..sources.textlog import read_jsonl

            datasets.append(read_jsonl(
                rpaths, schema=_schema_from_cfg(rcfg, "jsonl")))
        elif rtype == "ipc":
            from ..sources.arrow_ipc import read_ipc

            # schema pin (same contract as jsonl): REQUIRED for
            # schema-evolving directories — one task per file means
            # union-by-name can't see across files
            datasets.append(read_ipc(
                rpaths, schema=_schema_from_cfg(rcfg, "ipc")))
        elif rtype == "orc":
            from ..sources.orcfile import read_orc

            datasets.append(read_orc(rpaths,
                                     columns=rcfg.get("columns")))
        elif rtype == "promtext":
            from ..sources.textlog import read_prom_text

            datasets.append(read_prom_text(
                rpaths, strict=bool(rcfg.get("strict", True))))
        elif rtype == "textlog":
            from ..sources.textlog import read_text_logs

            datasets.append(read_text_logs(rpaths))
        elif rtype == "multiline":
            from ..sources.textlog import read_multiline_logs

            if not rcfg.get("start_pattern"):
                raise ValueError(
                    "multiline receiver: start_pattern is required")
            datasets.append(read_multiline_logs(
                rpaths, rcfg["start_pattern"],
                joiner=rcfg.get("joiner", "\n")))
        elif rtype in ("turns", "spans", "profile_frames"):
            # derived-signal receivers over an events parquet source
            events = ray.data.read_parquet(
                rpaths, columns=rcfg.get("columns"))
            if rtype == "turns":
                from ..sources.transcripts import derive_turns

                datasets.append(derive_turns(events))
            elif rtype == "spans":
                from ..sources.spans import derive_spans

                datasets.append(derive_spans(events))
            else:
                from ..sources.profiles import derive_profile_frames

                datasets.append(derive_profile_frames(events))
        else:
            raise ValueError(f"unsupported receiver {name}")
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
    for name in exporters:
        type_name = name.split("/")[0]
        ecfg = cfg.exporters[name]
        if type_name == "parquet_sink":
            target = os.path.join(out_root, ecfg.get("path", name.replace("/", "_")))
            if ecfg.get("partition_by_route", True) and routed:
                write_routed(ds, target)
            else:
                ds.write_parquet(target)
            counts[name] = "written"
        elif type_name == "otlp_json":
            from ..sources.otlp_json import write_otlp_json_logs

            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            counts[name] = write_otlp_json_logs(
                ds, target, compression=ecfg.get("compression", "none"))
        elif type_name == "otlp_proto":
            from ..sources.otlp_proto import write_otlp_proto_logs

            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            counts[name] = write_otlp_proto_logs(
                ds, target,
                max_request_bytes=ecfg.get("max_request_bytes"),
                compression=ecfg.get("compression", "none"))
        elif type_name == "otlp_proto_metrics":
            from ..sources.otlp_metrics import write_otlp_proto_metrics

            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            counts[name] = write_otlp_proto_metrics(
                ds, target, compression=ecfg.get("compression", "none"))
        elif type_name == "otlp_proto_spans":
            from ..sources.otlp_proto import write_otlp_proto_spans

            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            counts[name] = write_otlp_proto_spans(
                ds, target, compression=ecfg.get("compression", "none"))
        elif type_name == "otlp_json_spans":
            from ..sources.otlp_json import write_otlp_json_spans

            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            counts[name] = write_otlp_json_spans(
                ds, target, compression=ecfg.get("compression", "none"))
        elif type_name == "ipc_sink":
            # Arrow IPC stream files, one per block — the zero-parse
            # pipeline-to-pipeline wire (inverse of the ipc receiver)
            from ..sources.arrow_ipc import write_ipc

            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            counts[name] = write_ipc(
                ds, target, compression=ecfg.get("compression", "none"))
        elif type_name == "jsonl_sink":
            # newline-delimited JSON, one file per block (pandas
            # to_json(lines=True) under Ray's write_json — vectorized);
            # the inverse of the jsonl receiver
            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            ds.write_json(target)
            counts[name] = "written"
        elif type_name == "csv_sink":
            # delimited text, one file per block (Arrow CSV writer) —
            # the inverse of the csv receiver
            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            ds.write_csv(target)
            counts[name] = "written"
        elif type_name == "orc_sink":
            from ..sources.orcfile import write_orc

            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            counts[name] = write_orc(ds, target)
        elif type_name == "prom_sink":
            from ..sources.textlog import write_prom_text

            target = os.path.join(out_root,
                                  ecfg.get("path", name.replace("/", "_")))
            counts[name] = write_prom_text(
                ds, target,
                metric_col=ecfg.get("metric_col", "metric"),
                labels_col=ecfg.get("labels_col", "labels"),
                value_col=ecfg.get("value_col", "value"),
                ts_col=ecfg.get("ts_col", "ts_ms"),
                help_text=ecfg.get("help"))
        elif type_name == "debug":
            counts[name] = DebugSink(ecfg.get("verbosity", "basic")).consume(ds)
        else:
            raise ValueError(f"unsupported exporter {name}")
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
    paths = sorted(
        p for pat in ([cfg.receivers[rname]["paths"]]
                      if isinstance(cfg.receivers[rname]["paths"], str)
                      else cfg.receivers[rname]["paths"])
        for p in (glob.glob(os.path.join(pat, "*.parquet"))
                  if os.path.isdir(pat) else glob.glob(pat)))
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
            sink_dir = os.path.join(staging, cfg.exporters[name].get(
                "path", name.replace("/", "_")))
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
