"""The benchmark workloads, each run through a public entry point of the
package and checked against its DuckDB answer.

- ``flagship_agg``: ``build_aggregate(build_routed(read_turns(...)))``
  collected into this process.
- ``routed_cli``: ``run_pipeline`` on the ``examples/pipeline.yaml``
  shape, one resumable partition per input fragment.
- ``conv_sessions``: ``session_stats(..., key="conv_id")``. Not listed
  in BENCHMARK.json: on a one-CPU shared host a third workload leaves
  each run too short a window to be steady within the time all runs
  must fit in, so it is run by hand (``--workload conv_sessions``); the
  traced runs of the listed workloads still time its exchange layer.

``run`` is the timed part; it writes, if at all, under ``out_dir``,
which the caller empties first. ``collect`` turns what it returned into an
``Output`` and ``check`` compares that with the DuckDB answer, returning
a list of problems, empty when the output is correct; both are untimed.
"""

from __future__ import annotations

import glob
import json
import os
from collections import Counter
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from .inputs import InputSpec


@dataclass
class Output:
    """What one run produced: output rows keyed for comparison, and the
    committed manifests where the workload writes them."""

    rows: dict
    manifests: list[dict] = field(default_factory=list)

    def partition_walls(self) -> list[float]:
        return [float(m["wall_sec"]) for m in self.manifests
                if m.get("status") == "committed"]


# The examples/pipeline.yaml shape: parquet receiver → parse, enrich,
# route → parquet_sink/routed partitioned by route.
def pipeline_config(paths: list[str]):
    from opentelemetry_collector_ray.config import PipelineConfig

    return PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": list(paths)}},
        "processors": {"parse": {}, "enrich": {},
                       "route": {"default_sink": "default"}},
        "exporters": {"parquet_sink/routed": {
            "path": "sinks", "partition_by_route": True}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": ["parse", "enrich", "route"],
            "exporters": ["parquet_sink/routed"]}}},
    }, expand=False)


class FlagshipAgg:
    name = "flagship_agg"
    full = InputSpec(name, sf=30, fragments=8, seed=0)
    toy = InputSpec(name, sf=0.5, fragments=2, seed=0)

    def run(self, paths: list[str], out_dir: str):
        from opentelemetry_collector_ray.pipelines.flagship import (
            build_aggregate, build_routed)
        from opentelemetry_collector_ray.sources.parquet import read_turns

        return build_aggregate(build_routed(read_turns(paths))).to_pandas()

    def collect(self, agg) -> Output:
        rows = Counter()
        for r, role, tool, bucket, n in zip(agg["route"], agg["role"],
                                            agg["tool"], agg["bucket"],
                                            agg["n_turns"]):
            rows[(r, role, tool, _us(bucket))] += int(n)
        return Output(dict(rows))

    def check(self, out: Output, oracle: pa.Table,
              paths: list[str]) -> list[str]:
        want = {(r, role, tool, _us(b)): n for r, role, tool, b, n in zip(
            *(oracle.column(c).to_pylist()
              for c in ("route", "role", "tool", "bucket", "n_turns")))}
        problems = _route_totals_diff(_by_route(out.rows), _by_route(want))
        if sum(out.rows.values()) != sum(want.values()):
            problems.append(f"total turns {sum(out.rows.values())} != "
                            f"{sum(want.values())}")
        wrong = {k for k in want.keys() | out.rows.keys()
                 if out.rows.get(k) != want.get(k)}
        if wrong:
            problems.append(f"{len(wrong)} (route, role, tool, bucket) "
                            f"groups differ, e.g. {sorted(wrong, key=str)[0]}")
        return problems


class RoutedCli:
    name = "routed_cli"
    full = InputSpec(name, sf=8, fragments=8, seed=0)
    toy = InputSpec(name, sf=0.5, fragments=2, seed=0)

    def run(self, paths: list[str], out_dir: str):
        from opentelemetry_collector_ray.pipelines.builder import run_pipeline

        run_pipeline(pipeline_config(paths), out_dir, resume=False)
        return out_dir

    def collect(self, out_dir: str) -> Output:
        """Rows per route on disk, and the committed manifests."""
        rows = Counter()
        for f in glob.glob(os.path.join(out_dir, "part-*", "sinks",
                                        "route=*", "*.parquet")):
            route = os.path.basename(os.path.dirname(f))[len("route="):]
            rows[route] += pq.read_metadata(f).num_rows
        manifests = []
        for f in sorted(glob.glob(os.path.join(out_dir, "_manifest",
                                               "part-*.json"))):
            with open(f) as fh:
                manifests.append(json.load(fh))
        return Output(dict(rows), manifests)

    def check(self, out: Output, oracle: pa.Table,
              paths: list[str]) -> list[str]:
        want = dict(zip(oracle.column("route").to_pylist(),
                        oracle.column("n").to_pylist()))
        problems = _route_totals_diff(out.rows, want)
        committed = Counter(p for m in out.manifests
                            if m.get("status") == "committed"
                            for p in m.get("inputs", []))
        for p in paths:
            if committed.get(p, 0) != 1:
                problems.append(f"{os.path.basename(p)}: {committed.get(p, 0)}"
                                " committed manifests, want 1")
        if len(out.manifests) != len(paths):
            problems.append(f"{len(out.manifests)} manifests for "
                            f"{len(paths)} fragments")
        return problems


class ConvSessions:
    name = "conv_sessions"
    full = InputSpec(name, sf=20, fragments=8, seed=0)
    toy = InputSpec(name, sf=0.5, fragments=2, seed=0)

    def run(self, paths: list[str], out_dir: str):
        from opentelemetry_collector_ray.sources.parquet import read_turns
        from opentelemetry_collector_ray.stages.sessionize import session_stats

        return session_stats(read_turns(paths), key="conv_id").to_pandas()

    def collect(self, sessions) -> Output:
        rows = Counter()
        for c, sid, n in zip(sessions["conv_id"], sessions["session_id"],
                             sessions["n_events"]):
            rows[(c, int(sid))] += int(n)
        return Output(dict(rows))

    def check(self, out: Output, oracle: pa.Table,
              paths: list[str]) -> list[str]:
        want = {(c, s): n for c, s, n in zip(
            *(oracle.column(k).to_pylist()
              for k in ("conv_id", "session_id", "n_events")))}
        wrong = {k for k in want.keys() | out.rows.keys()
                 if out.rows.get(k) != want.get(k)}
        if wrong:
            return [f"{len(wrong)} of {len(want)} (conv_id, session_id) "
                    f"counts differ, e.g. {sorted(wrong)[0]}"]
        return []


WORKLOADS = {w.name: w for w in (FlagshipAgg(), RoutedCli(), ConvSessions())}


def _us(ts) -> int:
    """A timestamp as integer microseconds, whatever its Python type."""
    if hasattr(ts, "value"):  # pandas.Timestamp, nanoseconds
        return int(ts.value) // 1000
    import datetime

    epoch = datetime.datetime(1970, 1, 1, tzinfo=ts.tzinfo)
    return (ts - epoch) // datetime.timedelta(microseconds=1)


def _by_route(rows: dict) -> dict:
    totals = Counter()
    for key, n in rows.items():
        totals[key[0]] += n
    return dict(totals)


def _route_totals_diff(got: dict, want: dict) -> list[str]:
    return [f"route {r!r}: {got.get(r, 0)} rows, want {want.get(r, 0)}"
            for r in sorted(got.keys() | want.keys())
            if got.get(r, 0) != want.get(r, 0)]
