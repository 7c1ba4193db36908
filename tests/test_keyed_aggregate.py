"""Keyed aggregates: the two strategies (``tree`` and ``bucket``), their
guard against any other name, the hot-key bound of the bucket path and
SQL grouping of NaN keys."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re

import numpy as np
import pyarrow as pa
import pytest

STRATEGIES = ("tree", "bucket")


def test_strategy_defaults_are_tree_or_bucket():
    """No Ray: every YAML-derived processor and every public stage
    signature defaults ``strategy``/``count_strategy`` to a live value,
    and no ``final_strategy`` is left anywhere."""
    from opentelemetry_collector_ray import config, stages

    for name, (target, spec) in config.STAGES.items():
        assert "final_strategy" not in spec, name
        _, params = config._stage(target)
        assert "final_strategy" not in {p.name for p in params}, name
    checked = 0
    for mod in pkgutil.iter_modules(stages.__path__):
        module = importlib.import_module(f"{stages.__name__}.{mod.name}")
        for fname, fn in vars(module).items():
            if fname.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters
            assert "final_strategy" not in params, f"{mod.name}.{fname}"
            for p in ("strategy", "count_strategy"):
                if p in params:
                    checked += 1
                    assert params[p].default in STRATEGIES, \
                        f"{mod.name}.{fname}({p}={params[p].default!r})"
    assert checked >= 20


@pytest.mark.parametrize("bad", ["shuffle", "bukcet"])
def test_unknown_strategy_rejected(ray_session, bad):
    import ray.data

    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_count)
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_exact_quantiles)

    ds = ray.data.from_arrow(pa.table({"k": ["a"], "v": [1]}))
    for call in (lambda: grouped_agg(ds, ["k"], count_name="n",
                                     strategy=bad),
                 lambda: grouped_count(ds, ["k"], strategy=bad),
                 lambda: grouped_exact_quantiles(ds, "k", "v",
                                                 count_strategy=bad)):
        with pytest.raises(ValueError, match=r'"tree".*"bucket"'):
            call()


@pytest.mark.parametrize("bad", ["shuffle", "bukcet"])
def test_unknown_strategy_rejected_yaml(ray_session, tmp_path, bad):
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.config import PipelineConfig
    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    src = tmp_path / "in.parquet"
    pq.write_table(pa.table({"k": ["a", "b"]}), str(src))
    cfg = PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(src)}},
        "processors": {"count_agg": {"keys": ["k"], "strategy": bad}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "processors": ["count_agg"],
            "exporters": ["debug"]}}},
    })
    with pytest.raises(ValueError, match=r'"tree".*"bucket"'):
        build_dataset(cfg)


def test_hot_key_sends_one_row_per_batch(ray_session):
    """Half of 200k rows carry one key. The bucket path must count it
    exactly, and only per-batch partials — one row per key per batch —
    may reach the exchange."""
    import ray.data

    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    n, n_cold, n_blocks = 200_000, 10, 8
    i = np.arange(n)
    keys = np.where(i % 2 == 0, "hot",
                    np.char.add("c", (i // 2 % n_cold).astype(str)))
    t = pa.table({"k": keys})
    ds = ray.data.from_arrow(t).repartition(n_blocks).materialize()
    out = grouped_count(ds, ["k"], count_name="n",
                        strategy="bucket").materialize()

    got = dict(zip(*(out.to_pandas()[c].tolist() for c in ("k", "n"))))
    want = t.to_pandas()["k"].value_counts().to_dict()
    assert got == want and got["hot"] == n // 2

    # every batch holds the hot key and all cold keys, so the partial
    # operator emits exactly (1 + n_cold) rows per batch: one hot row
    m = re.search(r"Operator \d+ [^\n]*PartialAggStage[^\n]*\n"
                  r"(?:[^\n]*\n)*?\* Output num rows per block: "
                  r"[^\n]*?(\d+) total", out.stats())
    partial_rows = int(m.group(1))
    assert partial_rows % (1 + n_cold) == 0
    assert partial_rows // (1 + n_cold) <= n_blocks


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_nan_keys_group_like_sql(ray_session, strategy):
    """NaNs with different sign and payload bits are ONE group in SQL;
    Arrow's group_by would split them by bit pattern."""
    import duckdb
    import ray.data

    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    nans = np.frombuffer(bytes.fromhex(
        "000000000000f87f" "000000000000f8ff" "010000000000f87f"),
        np.float64)
    vals = np.tile(np.concatenate([nans, [1.5, -2.0]]), 40)
    t = pa.table({"k": pa.array(vals, mask=np.arange(len(vals)) % 7 == 0),
                  "v": pa.array(np.arange(len(vals)), pa.int64())})
    out = grouped_count(ray.data.from_arrow(t).repartition(3), ["k"],
                        count_name="n", sum_cols={"s": "v"},
                        strategy=strategy).take_all()
    got = sorted(((r["k"], r["n"], r["s"]) for r in out), key=repr)
    want = duckdb.sql("SELECT k, count(*), sum(v) FROM t GROUP BY k") \
        .fetchall()
    assert len(got) == 4
    assert repr(got) == repr(sorted(want, key=repr))
