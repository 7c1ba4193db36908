"""Parquet source — the otlpreceiver analog.

``/root/reference/receiver/otlpreceiver/otlp.go:55-215`` accepts pushed
OTLP requests and converts wire → pdata; in batch mode the source is a
Parquet read over transcript fragments (SURVEY.md §2.1). Always prune
columns at the read and push row filters down to row groups.

A local read is planned from the files' Parquet footers alone
(:func:`plan_read`): no pyarrow ``ParquetDataset`` is built and no Ray
task samples a file before the plan runs, as ``ray.data.read_parquet``
does for every plan. Each read task reads a run of neighbouring files,
one ``pq.read_table`` call per file, and small files are bundled so a
read makes about two tasks per CPU (every Ray task has a fixed cost).
A path that is not on the local filesystem still goes through
``ray.data.read_parquet``.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data  # also registers Ray's tensor extension types with pyarrow
from ray.data.block import BlockAccessor, BlockMetadata
from ray.data.datasource import (Datasource, Partitioning, PathPartitionParser,
                                 ReadTask)


def _list_files(path: str) -> list[str] | None:
    """Files a parquet read of ``path`` opens, in the order it opens them
    (a directory is walked in sorted path order, skipping the ``.``/``_``
    names pyarrow skips); ``None`` when the path is not on the local
    filesystem."""
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        return None
    out = []
    for root, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        out += [os.path.join(root, f) for f in files
                if not f.startswith((".", "_"))]
    return sorted(out)


def _footer_bytes(md: pq.FileMetaData, columns: Sequence[str] | None) -> int:
    """In-memory bytes of one file by its Parquet footer: each row
    group's ``total_byte_size``, or only ``columns``' uncompressed size."""
    total = 0
    for rg in map(md.row_group, range(md.num_row_groups)):
        total += rg.total_byte_size if columns is None else sum(
            c.total_uncompressed_size
            for c in map(rg.column, range(rg.num_columns))
            if c.path_in_schema.split(".")[0] in columns)
    return total


def _runs(nbytes: list[int], k: int) -> list[range]:
    """Cut the files into ``k`` runs of neighbours: the i-th run ends at
    the first file where the running byte total reaches i/k of the whole,
    or sooner when only one file per run is left."""
    total, run, cuts = sum(nbytes), 0, []
    for i, n in enumerate(nbytes):
        run += n
        need = k - 1 - len(cuts)
        if need and (len(nbytes) - 1 - i <= need
                     or run * k >= total * (len(cuts) + 1)):
            cuts.append(i + 1)
    return [range(a, b) for a, b in zip([0, *cuts], [*cuts, len(nbytes)])]


@dataclass(frozen=True)
class ReadPlan:
    """The read tasks of one Parquet read, from the files' footers."""

    files: list[str]
    rows: list[int]       # per file, from its footer
    nbytes: list[int]     # per file, the bytes of the columns read
    runs: list[range]     # the files each read task reads, in order
    blocks: int           # blocks asked of Ray; above len(runs), Ray
                          # splits each task's output (SplitBlocks)
    schema: pa.Schema     # the first file's


def plan_read(paths: str | Sequence[str], cpus: int,
              columns: Sequence[str] | None = None,
              blocks: int | None = None,
              one_task_per_file: bool = False) -> ReadPlan | None:
    """Plan a read from its files' footers.

    ``blocks`` defaults to ``max(1, min(2 × cpus, footer bytes //
    target_min_block_size))``: about two blocks per CPU, none smaller
    than Ray's own 1 MiB floor. Neighbouring files are bundled into
    ``min(files, blocks)`` read tasks of about equal bytes, so each task
    holds ``max(target_min_block_size, footer bytes // (2 × cpus))``;
    with ``one_task_per_file`` every file is its own task. When the
    files are fewer than ``blocks``, Ray splits each task's output into
    pieces (``SplitBlocks``), which it does not fuse with the maps after
    the read. ``None`` when a path is not local (or nothing is found):
    that read is left to ``ray.data.read_parquet``."""
    lists = [_list_files(p) for p in
             ([paths] if isinstance(paths, str) else paths)]
    if None in lists:
        return None
    files = [f for fs in lists for f in fs]
    if not files:
        return None
    footers = [pq.read_metadata(f) for f in files]
    nbytes = [_footer_bytes(md, columns) for md in footers]
    if blocks is None:
        floor = ray.data.DataContext.get_current().target_min_block_size
        blocks = max(1, min(2 * int(cpus), sum(nbytes) // floor))
    tasks = len(files) if one_task_per_file else min(len(files), blocks)
    return ReadPlan(files, [md.num_rows for md in footers], nbytes,
                    _runs(nbytes, tasks), max(blocks, tasks),
                    footers[0].schema.to_arrow_schema())


def _read_run(files: list[str], data: list[str] | None,
              columns: frozenset[str] | None, schema: pa.Schema, filter_expr,
              include_paths: bool) -> Iterator[pa.Table]:
    """One read task: each file in order, one ``pq.read_table`` call per
    file for its ``data`` columns under the first file's schema,
    single-threaded as Ray's reader decodes. As ``ray.data.read_parquet``
    does, ``include_paths`` adds the ``path`` column, Hive ``k=v``
    directories add their columns (only those in ``columns`` when it is
    given), and a zero-row table is dropped."""
    parse = PathPartitionParser(Partitioning("hive"))
    for f in files:
        table = pq.read_table(f, columns=data, filters=filter_expr,
                              schema=schema, use_threads=False,
                              partitioning=None)
        if include_paths:
            table = BlockAccessor.for_block(table).fill_column("path", f)
        for key, value in parse(f).items():
            if key not in table.column_names and (columns is None
                                                  or key in columns):
                table = BlockAccessor.for_block(table).fill_column(key, value)
        if table.num_rows:
            yield table


class FooterDatasource(Datasource):
    """The read tasks of a :class:`ReadPlan`. Named ``Parquet``, so Ray
    names the operators it fuses ``ReadParquet->…`` as it names its own
    Parquet read's.

    As in Ray's read, ``columns`` are split by the first file: the ones
    in its schema are read, the others must be Hive keys of its path."""

    def __init__(self, plan: ReadPlan, columns: Sequence[str] | None,
                 filter_expr, include_paths: bool):
        first = plan.schema
        hive = [k for k in PathPartitionParser(Partitioning("hive"))(
            plan.files[0]) if k not in first.names]
        self._data = self._columns = None
        if columns is not None:
            unknown = set(columns) - set(first.names) - set(hive)
            if unknown:
                raise KeyError(f"columns {sorted(unknown)} are neither in "
                               f"{plan.files[0]} nor Hive keys of its path")
            self._data = [c for c in columns if c in first.names]
            self._columns = frozenset(columns)
            hive = [k for k in hive if k in self._columns]
        # the schema of the first file's block
        self._schema = pa.schema(
            [*(first if self._data is None else map(first.field, self._data)),
             *([pa.field("path", pa.string())] if include_paths else []),
             *(pa.field(k, pa.string()) for k in hive)], first.metadata)
        self._plan = plan
        self._filter = filter_expr
        self._include_paths = include_paths

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._plan.nbytes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        plan = self._plan
        tasks = []
        for run in plan.runs:
            files = [plan.files[i] for i in run]
            meta = BlockMetadata(
                num_rows=None if self._filter is not None
                else sum(plan.rows[i] for i in run),
                size_bytes=sum(plan.nbytes[i] for i in run),
                input_files=files, exec_stats=None)
            tasks.append(ReadTask(functools.partial(
                _read_run, files, self._data, self._columns, plan.schema,
                self._filter, self._include_paths), meta,
                schema=self._schema))
        return tasks


def read_turns(paths: str | Sequence[str], columns: Sequence[str] | None = None,
               filter_expr=None, *, include_paths: bool = False,
               override_num_blocks: int | None = None,
               one_task_per_file: bool = False) -> ray.data.Dataset:
    """Read transcript fragments with column pruning + row-group pushdown.

    A local read runs the tasks :func:`plan_read` makes from the footers:
    small neighbouring files bundled to about two tasks per CPU (each
    task one block that Ray fuses with the maps after it), or one task
    per file with ``one_task_per_file``; ``override_num_blocks`` sets the
    block count instead of the CPU rule. A path that is not local goes
    through ``ray.data.read_parquet``.

    ``filter_expr`` is a ``pyarrow.dataset`` expression (e.g.
    ``pc.field("role") == "tool"``) applied at scan time.
    """
    cpus = ray.cluster_resources().get("CPU", 1) if ray.is_initialized() \
        else os.cpu_count()
    plan = plan_read(paths, cpus, columns, override_num_blocks,
                     one_task_per_file)
    if plan is None:
        kw = {} if filter_expr is None else {"filter": filter_expr}
        return ray.data.read_parquet(
            paths, columns=None if columns is None else list(columns),
            include_paths=include_paths,
            override_num_blocks=override_num_blocks, **kw)
    return ray.data.read_datasource(
        FooterDatasource(plan, columns, filter_expr, include_paths),
        override_num_blocks=plan.blocks)


def read_table_coalesced(sf_dir: str, name: str,
                         columns: Sequence[str] | None = None,
                         target_bytes: int = 64 << 20, floor: int = 8,
                         ) -> ray.data.Dataset:
    """Coalesced read for EXCHANGE-BOUND pipelines: block count sized by
    BYTES (~64 MB each; small floor for local parallelism) instead of
    the CPU rule. Ray's sort-based groupby exchange costs scale with
    BLOCK COUNT, not rows — measured on the sf0.1 spans derive
    (trace-bucket exchange): 64 default blocks 2.0-6.1 s vs 8 blocks
    0.4-0.7 s, identical output. At real scale bytes/target dominates
    and the floor is irrelevant."""
    path = f"{sf_dir}/{name}.parquet"
    nblocks = max(floor, os.path.getsize(path) // target_bytes)
    return read_turns(path, columns, override_num_blocks=int(nblocks))
