"""Keyed aggregates: the size rule that picks the one-task merge or the
bucket exchange (and the lint that no hand-set strategy knob is left),
the hot-key bound of the bucket path and SQL grouping of NaN keys; and
the keyed exchange under them (``bucketed_map_groups`` over one or
several key columns, ``exchange``)."""

from __future__ import annotations

import ast
import inspect
import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

STRATEGIES = ("tree", "bucket")
KNOBS = {"strategy", "count_strategy", "final_strategy"}
ROOT = pathlib.Path(__file__).resolve().parent.parent

# the processors that took a ``strategy`` key before the size rule
FORMER_STRATEGY_PROCESSORS = (
    "count_agg", "binary_eval", "log_dedup", "moments", "dp_release",
    "grid_densify", "hopping_window", "pivot", "rollup", "cont_quantiles",
    "log_templates", "agg_delta")


def force_path(monkeypatch, path: str) -> None:
    """Make ``grouped_agg``/``grouped_count`` take ``path`` whatever the
    input's size: ``"bucket"`` sets the one-task bound to 0 bytes."""
    from opentelemetry_collector_ray.stages import bucketing

    monkeypatch.setattr(bucketing, "TARGET_BUCKET_BYTES",
                        0 if path == "bucket" else 1 << 62)


def test_strategy_defaults_are_tree_or_bucket():
    """No Ray: the merge follows the input's size, so no package
    signature, call, derived-component spec or ``@reads`` key list
    names a strategy knob."""
    from opentelemetry_collector_ray import config

    for table in (config.STAGES, config.RECEIVERS, config.EXPORTERS):
        for name, (_, spec) in table.items():
            fields = {k for f in spec.split() for k in f.split("=")}
            assert not KNOBS & fields, f"{name}: {sorted(KNOBS & fields)}"
    n_reads = 0
    files = [*(ROOT / "opentelemetry_collector_ray").rglob("*.py"),
             ROOT / "__ray_entry__.py", ROOT / "bench.py",
             ROOT / "bench_skew.py"]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args
                         + a.kwonlyargs}
                assert not KNOBS & names, f"{where} {node.name}"
            elif isinstance(node, ast.Call):
                assert not KNOBS & {k.arg for k in node.keywords}, where
                if getattr(node.func, "id", None) == "reads":
                    n_reads += 1
                    keys = set(node.args[1].value.split())
                    assert not KNOBS & keys, f"{where} {node.args[0].value}"
    assert n_reads >= 17


@pytest.mark.parametrize("bad", ["shuffle", "bukcet"])
def test_unknown_strategy_rejected(bad):
    """A ``strategy``/``count_strategy`` keyword is a TypeError: the
    parameters are gone, not ignored."""
    import importlib

    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_agg, grouped_count)
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_exact_quantiles)

    for call in (lambda: grouped_agg(None, ["k"], count_name="n",
                                     strategy=bad),
                 lambda: grouped_count(None, ["k"], strategy=bad),
                 lambda: grouped_exact_quantiles(None, "k", "v",
                                                 count_strategy=bad)):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()
    former = {  # every function that took or forwarded a knob
        "agreement": ["binary_eval"], "cdc": ["log_dedup"],
        "incragg": ["apply_agg_delta"],
        "metricsops": ["exp_histogram", "exphist_downscale",
                       "explicit_histogram", "hist_rebucket"],
        "normalize": ["grouped_moments"], "privacy": ["dp_count_release"],
        "resample": ["hopping_window_agg", "grid_densify"],
        "reshape": ["pivot"], "rollup": ["rollup_agg", "path_rollup"],
        "templates": ["mine_templates"], "temporal": ["decayed_count"],
        "spanops": ["grouped_cont_quantiles"]}
    n = 0
    for mod, fns in former.items():
        m = importlib.import_module(
            f"opentelemetry_collector_ray.stages.{mod}")
        for fname in fns:
            for kw in ("strategy", "count_strategy"):
                with pytest.raises(TypeError):
                    inspect.signature(getattr(m, fname)).bind_partial(
                        **{kw: bad})
            n += 1
    assert n + 3 == 20


@pytest.mark.parametrize("bad", ["shuffle", "bukcet"])
def test_unknown_strategy_rejected_yaml(bad):
    """No Ray: a YAML ``strategy:`` key is an unknown field of each of
    the 12 processors that once read it, and the error names both."""
    from opentelemetry_collector_ray.config import ConfigError, get_factory

    for name in FORMER_STRATEGY_PROCESSORS:
        with pytest.raises(ConfigError,
                           match=rf"^{name}: unknown field.*'strategy'"):
            get_factory(name).create({"strategy": bad})


def test_hot_key_sends_one_row_per_batch(ray_session, monkeypatch):
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
    force_path(monkeypatch, "bucket")
    out = grouped_count(ds, ["k"], count_name="n").materialize()

    got = dict(zip(*(out.to_pandas()[c].tolist() for c in ("k", "n"))))
    want = t.to_pandas()["k"].value_counts().to_dict()
    assert got == want and got["hot"] == n // 2

    # every batch holds the hot key and all cold keys, so the partial
    # operator emits exactly (1 + n_cold) rows per batch: one hot row
    m = re.search(r"Operator \d+ [^\n]*PartialCountStage[^\n]*\n"
                  r"(?:[^\n]*\n)*?\* Output num rows per block: "
                  r"[^\n]*?(\d+) total", out.stats())
    partial_rows = int(m.group(1))
    assert partial_rows % (1 + n_cold) == 0
    assert partial_rows // (1 + n_cold) <= n_blocks


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_nan_keys_group_like_sql(ray_session, monkeypatch, strategy):
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
    force_path(monkeypatch, strategy)
    out = grouped_count(ray.data.from_arrow(t).repartition(3), ["k"],
                        count_name="n", sum_cols={"s": "v"}).take_all()
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
