"""Keyed aggregates: the two strategies (``tree`` and ``bucket``), their
guard against any other name, the hot-key bound of the bucket path and
SQL grouping of NaN keys; and the keyed exchange under them
(``bucketed_map_groups`` over one or several key columns, ``exchange``)."""

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


def test_composite_key_one_call_per_group(ray_session):
    """A list key hashes the columns together: each (k1, k2) group,
    including the ones whose k1 is null, reaches exactly one call."""
    import ray.data

    from opentelemetry_collector_ray.functions.groupsafe import (
        group_aggregate)
    from opentelemetry_collector_ray.stages.bucketing import (
        bucketed_map_groups)
    from opentelemetry_collector_ray.stages.treereduce import collect

    def tag_call(t: pa.Table) -> pa.Table:
        """One row per (k1, k2) group in the call, tagged with a call id."""
        import uuid

        g = group_aggregate(t, ["k1", "k2"], [([], "count_all")])
        return g.append_column("call",
                               pa.array([uuid.uuid4().hex] * g.num_rows))

    n = 3000
    i = np.arange(n)
    k1 = pa.array((i % 13).astype(str), mask=i % 13 == 0)
    t = pa.table({"k1": k1, "k2": pa.array(i % 7, pa.int64()),
                  "v": pa.array(i, pa.int64())})
    out = bucketed_map_groups(ray.data.from_arrow(t).repartition(5),
                              ["k1", "k2"], tag_call, n_buckets=4)
    got = pa.concat_tables(collect(out))
    want = group_aggregate(t, ["k1", "k2"], [([], "count_all")])
    assert got.num_rows == want.num_rows == 13 * 7
    key = [("k1", "ascending"), ("k2", "ascending")]
    assert got.select(["k1", "k2", "count_all"]).sort_by(key).equals(
        want.select(["k1", "k2", "count_all"]).sort_by(key))
    assert got.filter(got.column("k1").is_null()).num_rows == 7
    assert len(set(got.column("call").to_pylist())) > 1


def test_bucket_column_stripped_exchange_keeps_part_col(ray_session):
    import ray.data

    from opentelemetry_collector_ray.stages.bucketing import (
        bucketed_map_groups, exchange)

    t = pa.table({"k": pa.array(np.arange(200) % 11),
                  "p": pa.array(np.arange(200) % 3)})
    ds = ray.data.from_arrow(t).repartition(4)

    def names(g: pa.Table) -> pa.Table:
        return pa.table({"cols": [",".join(g.column_names)],
                         "ps": [len(set(g.column("p").to_pylist()))]})

    for key in ("k", ["k", "p"]):
        seen = bucketed_map_groups(ds, key, names, n_buckets=4).take_all()
        assert {r["cols"] for r in seen} == {"k,p"}
    calls = exchange(ds, "p", names).take_all()
    assert len(calls) == 3
    assert all(r["cols"] == "k,p" and r["ps"] == 1 for r in calls)


def test_exchange_of_zero_rows(ray_session):
    import ray.data

    from opentelemetry_collector_ray.stages.bucketing import (
        bucketed_map_groups, exchange)

    empty = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.string()), "v": pa.array([], pa.int64())}))
    for out in (bucketed_map_groups(empty, "k", lambda t: t, n_buckets=4),
                bucketed_map_groups(empty, ["k", "v"], lambda t: t,
                                    n_buckets=4),
                exchange(empty, "v", lambda t: t)):
        assert out.materialize().count() == 0


def test_single_key_plan_is_hash_bucket_sort_map(ray_session):
    """A single string key plans as it always has: one map that appends
    ``_bucket``, Ray's sort-based groupby on it, one map over the
    groups."""
    import ray.data

    from opentelemetry_collector_ray.stages.bucketing import (
        bucketed_map_groups)

    t = pa.table({"k": pa.array(np.arange(100) % 9)})
    out = bucketed_map_groups(ray.data.from_arrow(t), "k", lambda g: g,
                              n_buckets=4).materialize()
    ops = re.findall(r"^Operator \d+ ([^:]+):", out.stats(), re.M)
    assert ops == ["FromArrow", "MapBatches(<lambda>)", "Sort",
                   "MapBatches(<lambda>)"]
    assert out.count() == 100
