"""Parquet source — the otlpreceiver analog.

``/root/reference/receiver/otlpreceiver/otlp.go:55-215`` accepts pushed
OTLP requests and converts wire → pdata; in batch mode the source is
``ray.data.read_parquet`` over transcript fragments (SURVEY.md §2.1).
Always prune columns at the read and push row filters down to row groups.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

import pyarrow.parquet as pq
import ray.data


def _list_files(path: str) -> list[str] | None:
    """Files a parquet read of ``path`` opens (a directory is walked,
    skipping the ``.``/``_`` names pyarrow skips); ``None`` when the path
    is not on the local filesystem."""
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        return None
    out = []
    for root, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        out += [os.path.join(root, f) for f in files
                if not f.startswith((".", "_"))]
    return out


def _footer_bytes(files: list[str], columns: Sequence[str] | None) -> int:
    """In-memory bytes of ``files`` by their Parquet footers: each row
    group's ``total_byte_size``, or only ``columns``' uncompressed size."""
    total = 0
    for md in map(pq.read_metadata, files):
        for rg in map(md.row_group, range(md.num_row_groups)):
            total += rg.total_byte_size if columns is None else sum(
                c.total_uncompressed_size
                for c in map(rg.column, range(rg.num_columns))
                if c.path_in_schema.split(".")[0] in columns)
    return total


def read_block_count(paths: str | Sequence[str], cpus: int,
                     columns: Sequence[str] | None = None) -> int | None:
    """Blocks a read asks for:
    ``max(files, min(2 × cpus, footer bytes // target_min_block_size), 1)``.

    A file is split only into pieces of at least Ray's own
    ``DataContext.target_min_block_size`` (1 MiB): every block is a Ray
    task with a fixed cost, and Ray does not fuse a split read
    (``SplitBlocks``) with the maps after it, so its blocks also pass
    through the object store. Footers are read only when ``2 × cpus``
    exceeds the file count. ``None`` (keep Ray's autodetect) when a path
    is not local."""
    lists = [_list_files(p) for p in
             ([paths] if isinstance(paths, str) else paths)]
    if None in lists:
        return None
    files = [f for fs in lists for f in fs]
    if 2 * int(cpus) <= len(files):
        return max(len(files), 1)
    floor = ray.data.DataContext.get_current().target_min_block_size
    return max(len(files), min(2 * int(cpus),
                               _footer_bytes(files, columns) // floor), 1)


def read_turns(paths: str | Sequence[str], columns: Sequence[str] | None = None,
               filter_expr=None, **kwargs) -> ray.data.Dataset:
    """Read transcript fragments with column pruning + row-group pushdown,
    in :func:`read_block_count` blocks unless ``override_num_blocks`` is
    passed, so a sub-MiB file reads as one block that Ray fuses with the
    maps after it.

    ``filter_expr`` is a ``pyarrow.dataset`` expression (e.g.
    ``pc.field("role") == "tool"``) applied at scan time.
    """
    kw = dict(kwargs)
    if columns is not None:
        kw["columns"] = list(columns)
    if filter_expr is not None:
        kw["filter"] = filter_expr
    if "override_num_blocks" not in kw:
        cpus = ray.cluster_resources().get("CPU", 1) if ray.is_initialized() \
            else os.cpu_count()
        kw["override_num_blocks"] = read_block_count(paths, cpus, columns)
    return ray.data.read_parquet(paths, **kw)


def read_table(sf_dir: str, name: str, columns: Sequence[str] | None = None,
               **kwargs) -> ray.data.Dataset:
    """Read one named testdata table (region/nation/.../events/documents/
    embeddings) from an sf directory."""
    return read_turns(f"{sf_dir}/{name}.parquet", columns=columns, **kwargs)


def read_table_coalesced(sf_dir: str, name: str,
                         columns: Sequence[str] | None = None,
                         target_bytes: int = 64 << 20, floor: int = 8,
                         ) -> ray.data.Dataset:
    """Coalesced read for EXCHANGE-BOUND pipelines: block count sized by
    BYTES (~64 MB each; small floor for local parallelism) instead of
    Ray's one-plus-per-file default. Ray's sort-based groupby exchange
    costs scale with BLOCK COUNT, not rows — measured on the sf0.1 spans
    derive (trace-bucket exchange): 64 default blocks 2.0-6.1 s vs 8
    blocks 0.4-0.7 s, identical output. At real scale bytes/target
    dominates and the floor is irrelevant."""
    path = f"{sf_dir}/{name}.parquet"
    nblocks = max(floor, os.path.getsize(path) // target_bytes)
    return ray.data.read_parquet(path, columns=list(columns) if columns
                                 else None,
                                 override_num_blocks=int(nblocks))
