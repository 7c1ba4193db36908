"""Parquet source — the otlpreceiver analog.

``/root/reference/receiver/otlpreceiver/otlp.go:55-215`` accepts pushed
OTLP requests and converts wire → pdata; in batch mode the source is
``ray.data.read_parquet`` over transcript fragments (SURVEY.md §2.1).
Always prune columns at the read and push row filters down to row groups.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

import ray.data


def _count_files(path: str) -> int | None:
    """Files a parquet read of ``path`` opens (a directory is walked,
    skipping the ``.``/``_`` names pyarrow skips); ``None`` when the path
    is not on the local filesystem."""
    if os.path.isfile(path):
        return 1
    if not os.path.isdir(path):
        return None
    n = 0
    for _, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        n += sum(not f.startswith((".", "_")) for f in files)
    return n


def read_block_count(paths: str | Sequence[str], cpus: int) -> int | None:
    """Blocks a read asks for: ``max(input files, 2 × cpus)`` — Ray's own
    autodetect rule without its 200-blocks-of-at-least-1-MB target, so a
    file is split only when CPUs outnumber files. Every block becomes a
    Ray task downstream, and on a small host the ~20 ms fixed cost per
    task outweighs what splitting a file buys. ``None`` (keep Ray's
    autodetect) when a path is not local."""
    counts = [_count_files(p) for p in
              ([paths] if isinstance(paths, str) else paths)]
    if None in counts:
        return None
    return max(sum(counts), 2 * int(cpus), 1)


def read_turns(paths: str | Sequence[str], columns: Sequence[str] | None = None,
               filter_expr=None, **kwargs) -> ray.data.Dataset:
    """Read transcript fragments with column pruning + row-group pushdown,
    in :func:`read_block_count` blocks unless ``override_num_blocks`` is
    passed.

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
        kw["override_num_blocks"] = read_block_count(paths, cpus)
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
