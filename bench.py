"""Benchmark harness — prints ONE JSON line per run.

Headline: the north-rule flagship pipeline (parse → enrich → route →
aggregate) over a transcript table derived deterministically from the
``$GRAFT_SF_DIR`` events table and replicated to ~BENCH_TARGET_ROWS turns
(replicas get distinct conv_id suffixes, preserving per-conversation
structure). Secondary: the wall time of every ``queries()`` entry.

``--scaling`` runs the headline twice in fresh processes at
``num_cpus=8`` and ``num_cpus=32`` on the SAME cached input and reports
throughput at both plus efficiency = (t_lo/t_hi)/(hi/lo) — the sandbox
stand-in for the N-vs-4N-node cluster criterion (BASELINE.json north_rule).
"""

from __future__ import annotations

import json
import os
import sys
import time

_REPO_DIR = os.path.dirname(os.path.abspath(__file__))
if _REPO_DIR not in sys.path:
    sys.path.insert(0, _REPO_DIR)  # robust to being invoked from any CWD

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
TARGET_ROWS = int(os.environ.get("BENCH_TARGET_ROWS", "2000000"))
CACHE_ROOT = os.environ.get("BENCH_CACHE", "/tmp/graft_bench")


def _prepare_turns(sf_dir: str) -> tuple[str, int]:
    """Derive turns from events once and replicate to ~TARGET_ROWS; cached
    across runs (both scaling levels read identical input)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tag = sf_dir.rstrip("/").split("/")[-1]
    events_rows = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    k = max(1, TARGET_ROWS // max(1, events_rows))
    # ≥128 files so the read stage can saturate 32+ workers (4× max CPUs);
    # at real scale these are the input fragments, many per node.
    chunks_per_replica = max(1, -(-128 // k))
    out_dir = os.path.join(CACHE_ROOT, f"turns_{tag}_x{k}_c{chunks_per_replica}")
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir, events_rows * k
    import pyarrow.compute as pc

    from opentelemetry_collector_ray.sources.transcripts import read_derived_turns
    from opentelemetry_collector_ray.stages.treereduce import collect

    os.makedirs(out_dir, exist_ok=True)
    base = pa.concat_tables(collect(read_derived_turns(sf_dir)))  # once
    conv = base.column("conv_id")

    nrows = base.num_rows
    per = -(-nrows // chunks_per_replica)
    for i in range(k):
        t = base.set_column(base.column_names.index("conv_id"), "conv_id",
                            pc.binary_join_element_wise(
                                conv.cast(pa.string()), f"-r{i:03d}", ""))
        for c in range(chunks_per_replica):
            part = t.slice(c * per, per)
            if part.num_rows:
                pq.write_table(part, os.path.join(
                    out_dir, f"turns-{i:04d}-{c:02d}.parquet"))
    with open(done, "w") as f:
        f.write(str(base.num_rows * k))
    return out_dir, base.num_rows * k


def run_flagship(turns_dir: str) -> tuple[float, int, int]:
    """Timed: read → parse → enrich → route → two-phase aggregate."""
    t0 = time.time()
    pdf = _flagship_ds(turns_dir).to_pandas()  # final aggregate is small
    wall = time.time() - t0
    return wall, int(pdf["n_turns"].sum()), len(pdf)


def run_secondary(sf_dir: str) -> dict[str, float]:
    """Wall seconds of every ``queries()`` entry, in registry order."""
    import ray.data

    import __ray_entry__ as m

    out: dict[str, float] = {}
    for name, fn in m.queries().items():
        t0 = time.time()
        res = fn(sf_dir)
        if isinstance(res, ray.data.Dataset):
            res.count()
        out[name] = round(time.time() - t0, 3)
    return out


def run_ann(sf_dir: str) -> dict:
    """Persisted-index ANN: build once, batch-query; report query wall and
    the scan fraction (probed partition rows / corpus rows) — the
    sublinear-scan evidence for the index path."""
    import numpy as np
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.stages.similarity import (
        ann_query_index, ann_scan_fraction, build_ann_index)

    import ray.data

    src = f"{sf_dir}/embeddings.parquet"
    index_dir = "/tmp/graft_bench/ann_index"
    t0 = time.time()
    import shutil

    shutil.rmtree(index_dir, ignore_errors=True)
    build_ann_index(ray.data.read_parquet(src, columns=["vec_id", "embedding"]),
                    index_dir, n_bits=8)
    build_sec = round(time.time() - t0, 3)
    t = pq.read_table(src, columns=["embedding"])
    queries = np.array([t.column("embedding")[i].as_py() for i in range(16)],
                       dtype=np.float64)
    t0 = time.time()
    res = ann_query_index(index_dir, queries, k=10, multiprobe=1)
    query_sec = round(time.time() - t0, 3)
    frac_union = ann_scan_fraction(index_dir, queries, multiprobe=1)
    per_query = [ann_scan_fraction(index_dir, queries[i:i + 1], multiprobe=1)
                 for i in range(len(queries))]
    return {"ann_index_build_sec": build_sec,
            "ann_query16_sec": query_sec,
            "ann_scan_fraction_union16": round(float(frac_union), 4),
            "ann_scan_fraction_per_query": round(float(np.mean(per_query)), 4),
            "ann_result_rows": res.num_rows}


def main() -> None:
    import ray

    _init_ray()

    turns_dir, n_rows = _prepare_turns(SF_DIR)
    run_flagship(turns_dir)  # warm page cache / JIT, untimed
    # best-of-3 timed runs: short runs on a shared host are noise-sensitive
    # (ambient VM contention, object-store state); min is the standard
    # robust estimator for throughput
    walls = []
    for _ in range(3):
        w, n_turns, n_groups = run_flagship(turns_dir)
        walls.append(w)
    wall = min(walls)
    assert n_turns == n_rows, (n_turns, n_rows)
    routed_write = None
    if "--headline-only" not in sys.argv:
        import shutil

        from opentelemetry_collector_ray.pipelines.flagship import build_routed
        from opentelemetry_collector_ray.sinks.parquet_sink import write_routed
        from opentelemetry_collector_ray.sources.parquet import read_turns

        sink = "/tmp/graft_bench/routed_sink"
        shutil.rmtree(sink, ignore_errors=True)
        t0 = time.time()
        write_routed(build_routed(read_turns(turns_dir)), sink)
        routed_write = round(time.time() - t0, 3)
    queries = run_secondary(SF_DIR) if "--headline-only" not in sys.argv else {}
    ann = run_ann(SF_DIR) if "--headline-only" not in sys.argv else {}
    headline = {
        "metric": "flagship_parse_enrich_route_aggregate_sec",
        "value": round(wall, 3),
        "unit": "sec",
        "turns": n_turns,
        "turns_per_sec": round(n_turns / wall, 1),
        "agg_groups": n_groups,
        "routed_write_sec": routed_write,
        "sf": SF_DIR,
        "num_cpus": NCPUS,
    }
    # The driver keeps only the LAST 2000 chars of stdout, so the stdout
    # line must stay small (r4's 61-entry queries dict pushed it past the
    # window and BENCH_r04.json came back parsed:null). Headline keys only
    # on stdout; the full per-query timing map goes to a side file + stderr.
    full = {**headline, "queries": queries, **ann}
    if "--headline-only" not in sys.argv:
        side = os.path.join(_REPO_DIR, "BENCH_SECONDARY.json")
        with open(side, "w") as f:
            json.dump(full, f, indent=1)
        print(json.dumps(full), file=sys.stderr)
    print(json.dumps(headline))
    ray.shutdown()


def scaling() -> None:
    import subprocess

    results = {}
    for ncpu in (8, 32):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.join(_REPO_DIR, "bench.py"),
             "--headline-only"],
            env=env, capture_output=True, text=True, check=True)
        line = json.loads(out.stdout.strip().splitlines()[-1])
        results[ncpu] = line
        time.sleep(15)  # let the previous session's shm/page-cache churn settle
    t8, t32 = results[8]["value"], results[32]["value"]
    eff = (t8 / t32) / (32 / 8)
    print(json.dumps({
        "metric": "scaling_efficiency_8_to_32_cpus",
        "sec_8": t8, "sec_32": t32,
        "turns_per_sec_8": results[8]["turns_per_sec"],
        "turns_per_sec_32": results[32]["turns_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "turns": results[32]["turns"],
    }))


def _init_ray() -> None:
    import ray

    ray.init(address="local", num_cpus=NCPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def _flagship_ds(turns_dir: str):
    from opentelemetry_collector_ray.pipelines.flagship import (
        build_aggregate, build_routed)
    from opentelemetry_collector_ray.sources.parquet import read_turns

    # prune at the read: the aggregate never touches turn_idx, so only the
    # five columns the parse→enrich→route→agg path reads leave storage
    return build_aggregate(build_routed(read_turns(
        turns_dir, columns=["conv_id", "role", "text", "tool", "ts"])))


def stats() -> None:
    """Per-operator Ray Data stats for the flagship pipeline (the
    measure-don't-guess loop: read `ds.stats()` and iterate until wall is
    dominated by useful compute). Prints the stats report to stderr and a
    one-line summary JSON to stdout."""
    import ray

    _init_ray()
    turns_dir, n_rows = _prepare_turns(SF_DIR)
    t0 = time.time()
    ds = _flagship_ds(turns_dir).materialize()
    wall = time.time() - t0
    print(ds.stats(), file=sys.stderr)
    print(json.dumps({"metric": "flagship_stats_wall_sec",
                      "value": round(wall, 3), "unit": "sec",
                      "turns": n_rows, "num_cpus": NCPUS}))
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--stats" in sys.argv:
        stats()
    else:
        main()
