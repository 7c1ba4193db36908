"""Seeded, cached benchmark inputs and their DuckDB reference answers.

An input is ``synth.synth_turns(sf, seed)`` cut into ``fragments``
parquet files, plus ``oracle.parquet``: the workload's expected output,
computed by DuckDB from the same files with SQL written independently of
the program.

Each input lives in a directory named by the workload, size, seed and a
digest of the generator's and this module's source. It is built in a
staging directory by a separate process and renamed into place, so a
build that was interrupted is never taken for a valid input.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass

# Kept per workload; older inputs are removed so repeated seeds do not
# fill the disk.
KEEP_PER_WORKLOAD = 3


@dataclass(frozen=True)
class InputSpec:
    workload: str
    sf: float
    fragments: int
    seed: int


def generator_digest() -> str:
    """Digest of the sources that decide an input's bytes and answer."""
    from opentelemetry_collector_ray import synth

    h = hashlib.sha256()
    for path in (synth.__file__, __file__):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def input_dir(cache_root: str, spec: InputSpec) -> str:
    sf = f"{spec.sf:g}".replace(".", "p")
    return os.path.join(cache_root, f"{spec.workload}-sf{sf}-k{spec.fragments}"
                                    f"-seed{spec.seed}-{generator_digest()}")


def fragment_paths(directory: str) -> list[str]:
    return sorted(glob.glob(os.path.join(directory, "frags", "*.parquet")))


def ensure_input(cache_root: str, spec: InputSpec) -> str:
    """Return the input directory for ``spec``, building it first if it
    is not cached. The build runs in a child process, so its memory never
    counts toward this process's peak RSS."""
    final = input_dir(cache_root, spec)
    if os.path.isdir(final):
        os.utime(final)
        return final
    os.makedirs(cache_root, exist_ok=True)
    staging = f"{final}.staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.inputs", staging,
         *(str(v) for v in asdict(spec).values())], cwd=root)
    if proc.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        raise RuntimeError(f"input build for {spec} failed "
                           f"(exit code {proc.returncode})")
    os.rename(staging, final)
    _evict(cache_root, spec.workload, keep=final)
    return final


def _evict(cache_root: str, workload: str, keep: str) -> None:
    mine = [d for d in glob.glob(os.path.join(cache_root, f"{workload}-*"))
            if ".staging-" not in d and d != keep]
    mine.sort(key=os.path.getmtime, reverse=True)
    for d in mine[KEEP_PER_WORKLOAD - 1:]:
        shutil.rmtree(d, ignore_errors=True)


def _build(staging: str, spec: InputSpec) -> None:
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.synth import synth_turns

    table = synth_turns(spec.sf, spec.seed)
    os.makedirs(os.path.join(staging, "frags"))
    per = -(-table.num_rows // spec.fragments)
    for i in range(spec.fragments):
        pq.write_table(table.slice(i * per, per),
                       os.path.join(staging, "frags", f"turns-{i:04d}.parquet"))
    oracle = ORACLES[spec.workload](fragment_paths(staging))
    pq.write_table(oracle, os.path.join(staging, "oracle.parquet"))


def load_oracle(directory: str):
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(directory, "oracle.parquet"))


# ------------------------------------------------------------ DuckDB SQL
# The parse and route rules restated in SQL: the level comes from the
# first of the two bracketed-level patterns that matches; the first route
# rule that holds wins.

_ROUTED_SQL = r"""
WITH parsed AS (
  SELECT role, tool, ts, text,
         coalesce(
           nullif(regexp_extract(text,
             '\[([A-Z]+)\] call tool=(\w+) latency_ms=(\d+) status=(ok|err) trace=([0-9a-f]{16})',
             1), ''),
           nullif(regexp_extract(text, '\[([A-Z]+)\] (.*)', 1), '')) AS level
  FROM read_parquet($paths))
SELECT CASE WHEN level = 'ERROR' THEN 'left'
            WHEN tool IN ('purchase', 'signup', 'python', 'bash') THEN 'right'
            WHEN regexp_matches(text, 'viewed page') THEN 'views'
            ELSE 'default' END AS route,
       role, tool, ts
FROM parsed
"""


def _duckdb(sql: str, paths: list[str]):
    import duckdb

    con = duckdb.connect()
    try:
        return con.execute(sql, {"paths": paths}).arrow()
    finally:
        con.close()


def oracle_flagship(paths: list[str]):
    """Turn counts per (route, role, tool, hour bucket)."""
    return _duckdb(f"""
        SELECT route, role, tool, date_trunc('hour', ts) AS bucket,
               count(*) AS n_turns
        FROM ({_ROUTED_SQL}) GROUP BY ALL""", paths)


def oracle_routed(paths: list[str]):
    """Row count per route."""
    return _duckdb(f"SELECT route, count(*) AS n FROM ({_ROUTED_SQL}) "
                   "GROUP BY ALL", paths)


def oracle_sessions(paths: list[str], gap_minutes: int = 30):
    """Turns per (conv_id, session_id): a session starts at a conversation's
    first turn and after any gap longer than ``gap_minutes``."""
    gap_us = gap_minutes * 60 * 1_000_000
    return _duckdb(f"""
        WITH marked AS (
          SELECT conv_id, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                        OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > {gap_us}
                      THEN 1 ELSE 0 END AS starts
          FROM read_parquet($paths)
          WINDOW w AS (PARTITION BY conv_id ORDER BY ts)),
        numbered AS (
          SELECT conv_id,
                 sum(starts) OVER (PARTITION BY conv_id ORDER BY ts
                                   ROWS UNBOUNDED PRECEDING) - 1 AS session_id
          FROM marked)
        SELECT conv_id, session_id::BIGINT AS session_id,
               count(*) AS n_events
        FROM numbered GROUP BY ALL""", paths)


ORACLES = {
    "flagship_agg": oracle_flagship,
    "routed_cli": oracle_routed,
    "conv_sessions": oracle_sessions,
}


if __name__ == "__main__":
    _staging, _workload, _sf, _fragments, _seed = sys.argv[1:]
    _build(_staging, InputSpec(_workload, float(_sf), int(_fragments),
                               int(_seed)))
