"""HLL approximate distinct: accuracy envelope + merge associativity."""

import numpy as np
import pyarrow as pa

from opentelemetry_collector_ray.stages.sketch import (
    _estimate, _registers, approx_distinct)


def test_registers_merge_associative():
    rng = np.random.default_rng(0)
    a = pa.array([f"k{v}" for v in rng.integers(0, 5000, 20000)])
    b = pa.array([f"k{v}" for v in rng.integers(3000, 9000, 20000)])
    ra, rb = _registers(a, 12), _registers(b, 12)
    merged = np.maximum(ra, rb)
    both = _registers(pa.concat_arrays([a, b]), 12)
    assert (merged == both).all()  # merge == sketch of the union


def test_estimate_accuracy():
    for true_n in (100, 5_000, 50_000):
        vals = pa.array([f"key-{i}" for i in range(true_n)])
        est = _estimate(_registers(vals, 12))
        assert abs(est - true_n) / true_n < 0.05, (true_n, est)


def test_approx_distinct_dataset(ray_session):
    import ray.data

    rng = np.random.default_rng(1)
    keys = [f"u{v}" for v in rng.integers(0, 1234, 100_000)]
    true_n = len(set(keys))
    ds = ray.data.from_arrow(pa.table({"k": pa.array(keys)})).repartition(8)
    est = approx_distinct(ds, "k", p=12)
    assert abs(est - true_n) / true_n < 0.05, (true_n, est)


def test_kll_accuracy_and_merge(ray_session):
    """KLL rank-error envelope through the full distributed path
    (per-batch partials → tree merge → driver quantile)."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from opentelemetry_collector_ray.stages.sketch import (
        KllSketch, approx_quantiles)

    rng = np.random.default_rng(5)
    data = rng.lognormal(3.0, 1.0, 50_000)
    ds = ray.data.from_arrow(pa.table({"v": pa.array(data)})).repartition(8)
    qs = approx_quantiles(ds, "v", qs=(0.5, 0.95, 0.99), k=200)
    srt = np.sort(data)
    for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
        rank = np.searchsorted(srt, qs[name]) / len(srt)
        assert abs(rank - q) < 0.02, (name, qs[name], rank)

    # serialization round trip is lossless
    s = KllSketch(100).add(data[:1000])
    s2 = KllSketch.from_bytes(s.to_bytes())
    assert s2.n == s.n and s2.quantile(0.5) == s.quantile(0.5)


def test_grouped_kll_per_key_accuracy(ray_session):
    """Distributed per-key KLL (unbounded keys): every key's sketch
    quantile lands within the KLL rank-error envelope of that key's exact
    distribution, through the full partial → bucket-merge path."""
    import ray.data

    from opentelemetry_collector_ray.stages.sketch import (
        grouped_approx_quantiles)

    rng = np.random.default_rng(7)
    n_keys, per_key = 40, 3000
    keys = np.repeat([f"svc{i:02d}" for i in range(n_keys)], per_key)
    # distinct per-key distributions (shifted lognormals)
    vals = np.concatenate([
        rng.lognormal(mean=3 + (i % 5), sigma=0.6, size=per_key)
        for i in range(n_keys)])
    order = rng.permutation(len(keys))
    t = pa.table({"k": pa.array(keys[order]), "v": pa.array(vals[order])})
    out = grouped_approx_quantiles(
        ray.data.from_arrow(t).repartition(8), "k", "v",
        qs=(0.5, 0.95), k=200).to_pandas().set_index("k")
    assert len(out) == n_keys
    assert (out.n == per_key).all()
    eps = 3 * 1.65 / 200  # 3× the one-sigma rank error
    for i in range(n_keys):
        kv = np.sort(vals[keys == f"svc{i:02d}"])
        for q, col in ((0.5, "p50"), (0.95, "p95")):
            got = out.loc[f"svc{i:02d}", col]
            rank = np.searchsorted(kv, got) / per_key
            assert abs(rank - q) < eps, (i, q, rank)


def test_cms_overestimate_bound_and_merge_equality(ray_session):
    """CMS properties: est >= true always; est <= true + eN for all
    probes on a Zipf-ish corpus; tree-merged sketch EQUALS the
    single-block sketch bit-for-bit (counts are linear)."""
    import collections

    import pyarrow as pa
    import ray.data

    from opentelemetry_collector_ray.stages.sketch import (
        cms_build, cms_query)

    rng = np.random.default_rng(31)
    vals = [f"t{int(v)}" for v in rng.zipf(1.4, 40000) if v < 5000]
    tbl = pa.table({"term": pa.array(vals)})
    true = collections.Counter(vals)

    sk1 = cms_build(ray.data.from_arrow(tbl), "term",
                    width=2048, depth=4)
    skN = cms_build(ray.data.from_arrow(tbl).repartition(7), "term",
                    width=2048, depth=4)
    assert (sk1 == skN).all()  # linearity: layout-invariant

    probes = [t for t, _ in true.most_common(50)] + ["never-seen"]
    est = cms_query(sk1, probes)
    for p, e in zip(probes, est):
        assert e >= true.get(p, 0)  # one-sided guarantee
    eps_n = (np.e / 2048) * len(vals)
    over = [int(e) - true.get(p, 0) for p, e in zip(probes, est)]
    assert max(over) <= eps_n  # within the epsilon-N band
    assert est[-1] <= eps_n    # unseen item stays near zero

    import pytest

    with pytest.raises(ValueError):
        cms_build(ray.data.from_arrow(tbl), "term", width=1)


def test_grouped_approx_distinct_accuracy_and_merge(ray_session):
    """Per-key HLL: estimates within the p=10 error band of exact
    per-key distinct counts, shard-insensitive, nulls skipped."""
    import numpy as np
    import pyarrow as pa
    import pytest

    import ray.data

    from opentelemetry_collector_ray.stages.sketch import (
        grouped_approx_distinct)

    rng = np.random.default_rng(3)
    n = 30_000
    keys = np.char.add("k", rng.integers(0, 6, n).astype("U2"))
    # per-key value universes of very different sizes
    vals = rng.integers(0, 1 + 500 * (rng.integers(0, 6, n) + 1), n)
    tbl = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    est = grouped_approx_distinct(
        ray.data.from_arrow(tbl).repartition(6), "k", "v",
        p=10).to_pandas().set_index("k")["approx_distinct"]
    import pandas as pd

    exact = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"] \
        .nunique()
    for k, e in exact.items():
        assert abs(int(est[k]) - int(e)) <= max(5, 0.12 * e), \
            (k, int(est[k]), int(e))
    # different sharding -> identical registers -> identical estimates
    est2 = grouped_approx_distinct(
        ray.data.from_arrow(tbl).repartition(13), "k", "v",
        p=10).to_pandas().set_index("k")["approx_distinct"]
    assert (est.sort_index() == est2.sort_index()).all()

    # nulls in the value column are skipped (SQL COUNT DISTINCT)
    tn = pa.table({"k": pa.array(["a", "a", "a"]),
                   "v": pa.array([1, None, 1], pa.int64())})
    one = grouped_approx_distinct(ray.data.from_arrow(tn), "k", "v",
                                  p=10).to_pandas()
    assert int(one["approx_distinct"][0]) == 1
    with pytest.raises(ValueError, match="p must be"):
        grouped_approx_distinct(ray.data.from_arrow(tn), "k", "v", p=2)


def test_heavy_hitters_exact_threshold(ray_session):
    """The two-pass MG result must EQUAL brute force {v: freq(v) > n/k}
    even when the summary capacity is far below the distinct count
    (eviction exercised: 200 singletons beside 3 hitters)."""
    import collections

    import numpy as np
    import pyarrow as pa

    import ray.data

    from opentelemetry_collector_ray.stages.sketch import heavy_hitters

    rng = np.random.RandomState(7)
    vals = (["alpha"] * 300 + ["beta"] * 150 + ["gamma"] * 90
            + [f"tail{i}" for i in range(200)])
    rng.shuffle(vals)
    tbl = pa.table({"v": pa.array(vals)})
    n = len(vals)
    for k in (3, 8, 40):
        got = heavy_hitters(
            lambda: ray.data.from_arrow(tbl).repartition(9), "v", k,
            capacity=max(k, 16)).to_pandas()
        want = {v: c for v, c in collections.Counter(vals).items()
                if c * k > n}
        assert dict(zip(got["v"], got["n"])) == want, k


def test_heavy_hitters_nulls_empty_and_guards(ray_session):
    import pyarrow as pa

    import pytest

    import ray.data

    from opentelemetry_collector_ray.stages.sketch import heavy_hitters

    # nulls are not values and do not count toward n (SQL count(col))
    t = pa.table({"v": pa.array(["x", "x", "x", None, None, "y"])})
    out = heavy_hitters(lambda: ray.data.from_arrow(t), "v", 2) \
        .to_pandas()  # n=4, threshold 2: x(3) passes, y(1) fails
    assert dict(zip(out["v"], out["n"])) == {"x": 3}

    # all-null input -> empty result with the input's value type
    tn = pa.table({"v": pa.array([None, None], pa.string())})
    empty = heavy_hitters(lambda: ray.data.from_arrow(tn), "v", 2)
    assert empty.count() == 0
    assert empty.schema().base_schema.field("v").type == pa.string()

    # zero-row input: no batch reaches the merge -> same empty result
    none = heavy_hitters(lambda: ray.data.from_arrow(tn.slice(0, 0)), "v", 2)
    assert none.count() == 0
    assert none.schema().base_schema.field("v").type == pa.string()

    with pytest.raises(ValueError, match="capacity"):
        heavy_hitters(lambda: ray.data.from_arrow(t), "v", 10,
                      capacity=5)
    with pytest.raises(ValueError, match="k >= 2"):
        heavy_hitters(lambda: ray.data.from_arrow(t), "v", 1)


def test_heavy_hitters_integer_column_and_sharding(ray_session):
    """Result is sharding-invariant and keeps the input's value type
    (int64 here) through is_in and the output schema."""
    import pyarrow as pa

    import ray.data

    from opentelemetry_collector_ray.stages.sketch import heavy_hitters

    vals = [7] * 50 + [11] * 30 + list(range(100, 160))
    t = pa.table({"v": pa.array(vals, pa.int64())})
    outs = []
    for parts in (1, 4, 13):
        ds = ray.data.from_arrow(t).repartition(parts)
        got = heavy_hitters(lambda ds=ds: ds, "v", 4,
                            capacity=8).to_pandas()
        outs.append(sorted(zip(got["v"], got["n"])))
    # n=140, threshold 35: only 7 (50) passes; 11 (30) fails
    assert outs[0] == [(7, 50)]
    assert outs[0] == outs[1] == outs[2]
