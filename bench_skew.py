"""Join-family skew microbench — the `salt=` lever measured.

Planted hot key: ONE key owns 20% of the left rows (the skewed-shuffle
worst case the 100 TB contract cares about — a hot conversation /
domain / trace id). Each join family runs with ``salt=1`` (hot key's
rows in one bucket task) and ``salt=8`` (left rows split across 8
sub-buckets, right side replicated 8×), min-of-3 after a warmup.
Correctness of salt>1 is property-tested in tests/test_join.py; this
script only measures. Results recorded in BASELINE.md.

Usage: python bench_skew.py   (env: RAY_GRAFT_CPUS, SKEW_LEFT_ROWS)
"""

from __future__ import annotations

import json
import os
import sys
import time

_REPO_DIR = os.path.dirname(os.path.abspath(__file__))
if _REPO_DIR not in sys.path:
    sys.path.insert(0, _REPO_DIR)

from perfbench.engine import usable_cpus  # noqa: E402

# Ray CPUs: $RAY_GRAFT_CPUS, else what this process may use (as nproc
# counts it), so a small host does not start one worker per absent CPU
NCPUS = int(os.environ.get("RAY_GRAFT_CPUS") or usable_cpus())
N_LEFT = int(os.environ.get("SKEW_LEFT_ROWS", "2000000"))
N_KEYS = 30_000
HOT_FRAC = 0.2


def _tables():
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(0)
    n_hot = int(N_LEFT * HOT_FRAC)
    keys = np.concatenate([
        np.zeros(n_hot, np.int64),                      # the hot key: 0
        rng.integers(1, N_KEYS, N_LEFT - n_hot)])
    rng.shuffle(keys)
    ts = rng.integers(0, 1_000_000, N_LEFT)
    left = pa.table({
        "k": pa.array(np.char.add("key", keys.astype("U8"))),
        "ts": pa.array(ts, pa.int64()),
        "v": pa.array(rng.integers(0, 100, N_LEFT), pa.int64())})

    rk = np.repeat(np.arange(N_KEYS), 4)
    rts = np.tile(np.array([0, 250_000, 500_000, 750_000], np.int64),
                  N_KEYS)
    right = pa.table({
        "k": pa.array(np.char.add("key", rk.astype("U8"))),
        "rts": pa.array(rts, pa.int64()),
        "w": pa.array(np.arange(len(rk)) % 7, pa.int64())})
    return left, right


def _time3(fn) -> float:
    best = None
    for _ in range(3):
        t0 = time.time()
        fn()
        w = time.time() - t0
        best = w if best is None or w < best else best
    return round(best, 3)


def main() -> None:
    import ray
    import ray.data

    from opentelemetry_collector_ray.stages.join import (
        asof_join, range_join, shuffle_hash_join)

    ray.init(address="local", num_cpus=NCPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    lt, rt = _tables()
    left = ray.data.from_arrow(lt).repartition(64).materialize()
    right = ray.data.from_arrow(rt).repartition(16).materialize()

    out: dict = {"metric": "join_skew_salt_bench", "n_left": N_LEFT,
                 "n_keys": N_KEYS, "hot_frac": HOT_FRAC,
                 "num_cpus": NCPUS}

    def run_shuffle(salt):
        return shuffle_hash_join(left, right.drop_columns(["rts"]),
                                 key="k", salt=salt).count()

    def run_asof(salt):
        return asof_join(left, right, by="k", on="ts", right_on="rts",
                         direction="backward", salt=salt).count()

    def run_range(salt):
        return range_join(left, right, by="k", on="ts",
                          right_start="rts", max_interval=250_000,
                          salt=salt).count()

    for name, fn in (("shuffle_join", run_shuffle),
                     ("asof_join", run_asof),
                     ("range_join", run_range)):
        rows = {1: None, 8: None}
        for salt in (1, 8):
            rows[salt] = fn(salt)  # warm + row-count sanity
        assert rows[1] == rows[8], (name, rows)  # salt is result-neutral
        t1 = _time3(lambda: fn(1))
        t8 = _time3(lambda: fn(8))
        out[name] = {"rows": rows[1], "salt1_sec": t1, "salt8_sec": t8,
                     "speedup": round(t1 / t8, 2) if t8 else None}
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
