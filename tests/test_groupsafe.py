"""group_aggregate: SQL null semantics on the key shapes where raw
pyarrow 16.x group_by splits null groups (var-length key before a
nullable fixed-width key, at more than a few hundred rows)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from opentelemetry_collector_ray.functions.groupsafe import group_aggregate


def _mk(n=4000, seed=0):
    rng = np.random.RandomState(seed)
    k = pa.array(np.where(rng.rand(n) < 0.3, "a", "b"))
    o = pa.array([None if rng.rand() < 0.06 else int(v)
                  for v in rng.randint(0, 200, n)], pa.int64())
    v = pa.array(rng.randint(0, 10, n).astype(np.int64))
    return pa.table({"k": k, "o": o, "v": v})


def _expect(t, keys):
    """Independent oracle: dict-of-tuples count/sum."""
    rows = t.to_pylist()
    out = {}
    for r in rows:
        key = tuple(r[c] for c in keys)
        c, s = out.get(key, (0, 0))
        out[key] = (c + 1, s + r["v"])
    return out


def _got(g, keys):
    return {tuple(r[c] for c in keys): (r["count_all"], r["v_sum"])
            for r in g.to_pylist()}


def test_raw_pyarrow_bug_is_present():
    """If this starts FAILING, pyarrow fixed the row-encoder defect and
    group_aggregate's slow path can be retired."""
    t = _mk()
    g = t.group_by(["k", "o"], use_threads=False).aggregate([([], "count_all")])
    null_groups = sum(1 for r in g.to_pylist() if r["o"] is None)
    assert null_groups > 2


@pytest.mark.parametrize("keys", [["k", "o"], ["o", "k"], ["k", "o", "k2"]])
def test_null_groups_coalesce(keys):
    t = _mk()
    if "k2" in keys:
        t = t.append_column("k2", t.column("k"))
    g = group_aggregate(t, keys, [([], "count_all"), ("v", "sum")])
    assert _got(g, keys) == _expect(t, keys)


def test_nullable_string_and_date_keys():
    rng = np.random.RandomState(1)
    n = 4000
    s = pa.array([None if rng.rand() < 0.06 else f"g{v}"
                  for v in rng.randint(0, 5, n)], pa.string())
    d = pa.array([None if rng.rand() < 0.05 else int(v)
                  for v in rng.randint(0, 50, n)], pa.date32())
    v = pa.array(rng.randint(0, 10, n).astype(np.int64))
    t = pa.table({"k": s, "o": d, "v": v})
    g = group_aggregate(t, ["k", "o"], [([], "count_all"), ("v", "sum")])
    assert _got(g, ["k", "o"]) == _expect(t, ["k", "o"])


def test_all_null_key_column():
    t = pa.table({"k": ["a", "b", "a", "b"],
                  "o": pa.array([None] * 4, pa.int64()),
                  "v": pa.array([1, 2, 3, 4], pa.int64())})
    g = group_aggregate(t, ["k", "o"], [([], "count_all"), ("v", "sum")])
    assert g.column("o").null_count == g.num_rows == 2
    assert g.column("o").type == pa.int64()
    assert _got(g, ["k", "o"]) == _expect(t, ["k", "o"])


def test_no_null_fast_path_and_single_key():
    t = pa.table({"k": ["a", "b", "a"], "o": pa.array([1, 2, 1], pa.int64()),
                  "v": pa.array([5, 6, 7], pa.int64())})
    g = group_aggregate(t, ["k", "o"], [([], "count_all"), ("v", "sum")])
    assert _got(g, ["k", "o"]) == _expect(t, ["k", "o"])
    # single nullable key: raw group_by already coalesces — fast path
    t1 = pa.table({"o": pa.array([1, None, None], pa.int64()),
                   "v": pa.array([1, 1, 1], pa.int64())})
    g1 = group_aggregate(t1, ["o"], [([], "count_all"), ("v", "sum")])
    assert sorted(g1.column("count_all").to_pylist()) == [1, 2]


def test_empty_table():
    t = pa.table({"k": pa.array([], pa.string()),
                  "o": pa.array([], pa.int64()),
                  "v": pa.array([], pa.int64())})
    g = group_aggregate(t, ["k", "o"], [([], "count_all"), ("v", "sum")])
    assert g.num_rows == 0


def test_grouped_count_tree_with_nullable_keys(ray_session, monkeypatch):
    """End-to-end: the two-phase tree aggregate over a dataset whose key
    columns carry nulls matches the plain-python oracle."""
    import ray.data

    from opentelemetry_collector_ray.stages import bucketing
    from opentelemetry_collector_ray.stages.aggregate import grouped_count

    # the one-task path whatever the input's size
    monkeypatch.setattr(bucketing, "TARGET_BUCKET_BYTES", 1 << 62)
    t = _mk(6000, seed=2).drop_columns(["v"])
    ds = ray.data.from_arrow(
        [t.slice(0, 2000), t.slice(2000, 2000), t.slice(4000)])
    got = grouped_count(ds, ["k", "o"], count_name="n").to_pandas()
    exp = {}
    for r in t.to_pylist():
        key = (r["k"], r["o"])
        exp[key] = exp.get(key, 0) + 1
    gmap = {(r.k, None if r.o != r.o else int(r.o)): int(r.n)
            for r in got.itertuples()}
    assert gmap == exp
