"""Unit coverage for the ninth-session batch: signed business-day
counts, sentence segmentation stats, largest-remainder apportionment
and the mergeable OHLC aggregate."""

import datetime

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from opentelemetry_collector_ray.functions.text import sentence_stats
from opentelemetry_collector_ray.functions.timefn import busday_count_col
from opentelemetry_collector_ray.stages.allocate import apportion
from opentelemetry_collector_ray.stages.metricsops import grouped_ohlc


def _ts(*dates):
    return pa.array([datetime.datetime.fromisoformat(d) for d in dates],
                    pa.timestamp("us"))


class TestBusday:
    def test_known_values(self):
        # Fri→Mon = 1 (Fri counts, [start, end)); Sat→Mon = 0
        out = busday_count_col(
            _ts("2024-01-05", "2024-01-06", "2024-01-01"),
            _ts("2024-01-08", "2024-01-08", "2024-01-15"))
        assert out.to_pylist() == [1, 0, 10]

    def test_antisymmetric_on_lattice(self):
        base = datetime.date(2023, 12, 25)
        a, b = [], []
        for s in range(14):
            for d in range(-40, 40):
                x = base + datetime.timedelta(days=s)
                a.append(x.isoformat())
                b.append((x + datetime.timedelta(days=d)).isoformat())
        fwd = np.array(busday_count_col(_ts(*a), _ts(*b)).to_pylist())
        rev = np.array(busday_count_col(_ts(*b), _ts(*a)).to_pylist())
        assert (fwd == -rev).all()
        # forward ranges agree with raw np.busday_count
        ad = np.array(a, "datetime64[D]")
        bd = np.array(b, "datetime64[D]")
        m = bd >= ad
        assert (fwd[m] == np.busday_count(ad[m], bd[m])).all()

    def test_null_rejected(self):
        col = pa.array([None], pa.timestamp("us"))
        with pytest.raises(ValueError, match="null"):
            busday_count_col(col, col)


class TestSentenceStats:
    def test_basic(self):
        st = sentence_stats(pa.array(
            ["one. two! three? four", "", "no punct", "trail.", "a.  b"]))
        assert st["n_sents"].to_pylist() == [4, 1, 1, 1, 2]
        assert st["max_sent_chars"].to_pylist() == [5, 0, 8, 6, 1]
        assert st["sum_sent_chars"].to_pylist() == [15, 0, 8, 6, 2]

    def test_unicode_chars_not_bytes(self):
        st = sentence_stats(pa.array(["ünïcødé ✓. ok"]))
        assert st["n_sents"].to_pylist() == [2]
        assert st["max_sent_chars"].to_pylist() == [9]

    def test_null_rejected(self):
        with pytest.raises(ValueError, match="null"):
            sentence_stats(pa.array(["x", None]))


class TestApportion:
    def _run(self, counts, seats, **kw):
        rows = [{"k": k} for k, n in counts.items() for _ in range(n)]
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
        out = apportion(ds, ["k"], seats, **kw).to_pandas()
        return dict(zip(out["k"], out["seats"])), out

    def test_sums_to_seats_and_proportional(self, ray_session):
        alloc, out = self._run({"a": 50, "b": 30, "c": 20}, 10)
        assert alloc == {"a": 5, "b": 3, "c": 2}
        assert out["seats"].sum() == 10

    def test_largest_remainder_tie_breaks_by_key(self, ray_session):
        # n = 1,1,1 over 2 seats: base 0 each, rem equal → first keys win
        alloc, out = self._run({"a": 1, "b": 1, "c": 1}, 2)
        assert out["seats"].sum() == 2
        assert alloc == {"a": 1, "b": 1, "c": 0}

    def test_remainder_order(self, ray_session):
        # 7 seats over 400/350/250: quotas 2.8/2.45/1.75 → bases 2/2/1,
        # remainders .8/.45/.75 → a and c get the 2 extras
        alloc, _ = self._run({"a": 400, "b": 350, "c": 250}, 7)
        assert alloc == {"a": 3, "b": 2, "c": 2}

    def test_overflow_guard(self, ray_session):
        ds = ray.data.from_arrow(pa.table({"k": ["a"], "w": [2**40]}))
        with pytest.raises(Exception, match="overflow"):
            apportion(ds, ["k"], 2**40, weight_col="w").to_pandas()

    def test_max_groups_guard(self, ray_session):
        ds = ray.data.from_arrow(pa.table({"k": [str(i) for i in range(64)]}))
        with pytest.raises(Exception, match="max_groups"):
            apportion(ds, ["k"], 10, max_groups=8).to_pandas()


class TestGroupedOhlc:
    def _ref(self, df):
        import pandas as pd

        out = []
        for (k,), g in df.groupby(["k"]):
            g = g.sort_values(["t", "tb"], kind="mergesort")
            out.append({"k": k, "open": g["v"].iloc[0],
                        "close": g["v"].iloc[-1], "low": g["v"].min(),
                        "high": g["v"].max(), "n": len(g)})
        return pd.DataFrame(out).sort_values("k").reset_index(drop=True)

    def test_matches_pandas_across_blocks(self, ray_session):
        rng = np.random.default_rng(7)
        n = 5000
        df_cols = {"k": rng.choice(["a", "b", "c", "d"], n),
                   "t": rng.integers(0, 500, n),
                   "tb": np.arange(n, dtype=np.int64),
                   "v": rng.integers(-1000, 1000, n)}
        t = pa.table(df_cols)
        # many input blocks → partials must merge correctly
        ds = ray.data.from_arrow(t).repartition(13)
        got = grouped_ohlc(ds, ["k"], ["t", "tb"], "v").to_pandas()
        got = got[["k", "open", "close", "low", "high", "n"]] \
            .sort_values("k").reset_index(drop=True)
        import pandas as pd

        want = self._ref(pd.DataFrame(df_cols))
        want = want[["k", "open", "close", "low", "high", "n"]]
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_order_ties_resolved_by_tiebreak(self, ray_session):
        # identical t everywhere: open/close decided by tb alone
        t = pa.table({"k": ["x"] * 4, "t": [1, 1, 1, 1],
                      "tb": [3, 1, 2, 0], "v": [30, 10, 20, 5]})
        ds = ray.data.from_arrow(t).repartition(2)
        out = grouped_ohlc(ds, ["k"], ["t", "tb"], "v").to_pandas()
        assert out.iloc[0]["open"] == 5 and out.iloc[0]["close"] == 30
        assert out.iloc[0]["low"] == 5 and out.iloc[0]["high"] == 30


class TestLDiversity:
    def test_counts_and_flag(self, ray_session):
        from opentelemetry_collector_ray.stages.privacy import l_diversity

        t = pa.table({"q": ["a"] * 4 + ["b"] * 3,
                      "s": [1, 1, 2, 3, 9, 9, 9]})
        out = l_diversity(ray.data.from_arrow(t), ["q"], "s", 2) \
            .to_pandas().set_index("q").sort_index()
        assert out.loc["a", "n"] == 4 and out.loc["a", "n_sensitive"] == 3
        assert out.loc["b", "n"] == 3 and out.loc["b", "n_sensitive"] == 1
        assert out.loc["a", "is_diverse"] == 1
        assert out.loc["b", "is_diverse"] == 0
        assert out.loc["a", "diversity_permille"] == 750

    def test_null_sensitive_ignored_in_distinct(self, ray_session):
        from opentelemetry_collector_ray.stages.privacy import l_diversity

        t = pa.table({"q": ["a", "a", "a"],
                      "s": pa.array([1, None, None], pa.int64())})
        out = l_diversity(ray.data.from_arrow(t), ["q"], "s", 1) \
            .to_pandas()
        # n counts all rows (SQL COUNT(*)), distinct ignores NULLs
        assert out.iloc[0]["n"] == 3 and out.iloc[0]["n_sensitive"] == 1


class TestHistQuantileLinear:
    def _hist(self, rows):
        return ray.data.from_arrow(pa.Table.from_pylist(rows))

    def test_interpolation(self, ray_session):
        from opentelemetry_collector_ray.stages.metricsops import (
            hist_quantile_linear)

        # key k: 10 in (0,100], 10 in (100,200] → p50 rank=10 → hits
        # first bucket exactly (cum=10 ≥ rank): v = 0+100*(10-0)/10=100
        rows = [{"k": "k", "bucket": 0, "n": 10},
                {"k": "k", "bucket": 1, "n": 10}]
        out = hist_quantile_linear(self._hist(rows), ["k"], [100, 200],
                                   500).to_pandas()
        assert out.iloc[0]["q_permille"] == 100_000
        assert out.iloc[0]["n_total"] == 20
        # p75: rank=15 → second bucket, v = 100 + 100*(15-10)/10 = 150
        out = hist_quantile_linear(self._hist(rows), ["k"], [100, 200],
                                   750).to_pandas()
        assert out.iloc[0]["q_permille"] == 150_000

    def test_overflow_clamps_to_last_bound(self, ray_session):
        from opentelemetry_collector_ray.stages.metricsops import (
            hist_quantile_linear)

        rows = [{"k": "k", "bucket": 2, "n": 100}]  # all overflow
        out = hist_quantile_linear(self._hist(rows), ["k"], [100, 200],
                                   900).to_pandas()
        assert out.iloc[0]["q_permille"] == 200_000

    def test_missing_buckets_and_truncation(self, ray_session):
        from opentelemetry_collector_ray.stages.metricsops import (
            hist_quantile_linear)

        # sparse buckets: 0 present, 1 absent, 2 present
        rows = [{"k": "k", "bucket": 0, "n": 7},
                {"k": "k", "bucket": 2, "n": 3}]
        # p90 rank = 9 → bucket 2 (cum 7→10): v = 200+100*(9-7)/3
        # ×1000 = 200000 + 100*2000//3 = 200000+66666
        out = hist_quantile_linear(self._hist(rows), ["k"],
                                   [100, 200, 300], 900).to_pandas()
        assert out.iloc[0]["q_permille"] == 266_666

    def test_validation(self, ray_session):
        from opentelemetry_collector_ray.stages.metricsops import (
            hist_quantile_linear)

        with pytest.raises(ValueError, match="increasing"):
            hist_quantile_linear(self._hist([]), ["k"], [5, 5], 500)
        with pytest.raises(ValueError, match="q_permille"):
            hist_quantile_linear(self._hist([]), ["k"], [5], 0)

    def test_rank_scale_overflow_raises(self, ray_session):
        from opentelemetry_collector_ray.stages.metricsops import (
            hist_quantile_linear)

        # N above 2^63/1000: q_permille*N fits int64 for p1 but the
        # cumulative counts ×1000 it is searched against do not (Ray
        # re-raises the task's ValueError wrapped)
        big = 5 * 10**15
        rows = [{"k": "k", "bucket": 0, "n": big},
                {"k": "k", "bucket": 1, "n": big}]
        with pytest.raises(Exception, match="1000\\*N overflows"):
            hist_quantile_linear(self._hist(rows), ["k"], [100, 200],
                                 1).to_pandas()


def test_multi_key_change_rejects_nan_keys():
    from opentelemetry_collector_ray.stages.bucketing import (
        multi_key_change)

    t = pa.table({"g": ["a", "a", "a"], "x": [1.0, np.nan, np.nan]})
    with pytest.raises(ValueError, match="'x' has NaN"):
        multi_key_change(t, ["g", "x"])
    assert multi_key_change(t, ["g"]).tolist() == [True, False, False]


class TestGroupedMoments:
    def test_matches_numpy(self, ray_session):
        from opentelemetry_collector_ray.stages.normalize import (
            grouped_moments)

        rng = np.random.default_rng(3)
        k = rng.choice(["a", "b"], 2000)
        x = rng.integers(-50, 50, 2000)
        ds = ray.data.from_arrow(pa.table({"k": k, "x": x})).repartition(7)
        out = grouped_moments(ds, ["k"], "x").to_pandas() \
            .set_index("k").sort_index()
        for key in ("a", "b"):
            v = x[k == key].astype(object)
            assert out.loc[key, "n"] == len(v)
            assert out.loc[key, "sum_x"] == v.sum()
            assert out.loc[key, "sum_x2"] == (v**2).sum()
            assert out.loc[key, "sum_x3"] == (v**3).sum()
            assert out.loc[key, "sum_x4"] == (v**4).sum()
            assert out.loc[key, "min_x"] == v.min()
            assert out.loc[key, "max_x"] == v.max()

    def test_overflow_guard(self, ray_session):
        from opentelemetry_collector_ray.stages.normalize import (
            grouped_moments)

        ds = ray.data.from_arrow(pa.table(
            {"k": ["a"], "x": pa.array([2**16], pa.int64())}))
        with pytest.raises(Exception, match="rescale"):
            grouped_moments(ds, ["k"], "x").to_pandas()

    def test_float_rejected(self, ray_session):
        from opentelemetry_collector_ray.stages.normalize import (
            grouped_moments)

        ds = ray.data.from_arrow(pa.table({"k": ["a"], "x": [1.5]}))
        with pytest.raises(Exception, match="integer"):
            grouped_moments(ds, ["k"], "x").to_pandas()


class TestBucketCountDistinct:
    def test_bucket_path_matches_pandas(self, ray_session):
        from opentelemetry_collector_ray.stages.aggregate import (
            grouped_count_distinct)

        rng = np.random.default_rng(11)
        t = pa.table({
            "k": rng.choice([f"k{i}" for i in range(40)], 5000),
            "v": pa.array(rng.integers(0, 200, 5000), pa.int64())})
        ds = ray.data.from_arrow(t).repartition(9)
        got = grouped_count_distinct(ds, ["k"], "v", out_name="d") \
            .to_pandas().sort_values("k").reset_index(drop=True)
        want = t.to_pandas().groupby("k")["v"].nunique() \
            .rename("d").reset_index()
        import pandas as pd

        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_bucket_path_ignores_nulls(self, ray_session):
        from opentelemetry_collector_ray.stages.aggregate import (
            grouped_count_distinct)

        t = pa.table({"k": ["a", "a", "a"],
                      "v": pa.array([7, None, None], pa.int64())})
        out = grouped_count_distinct(
            ray.data.from_arrow(t), ["k"], "v", out_name="d").to_pandas()
        assert out.iloc[0]["d"] == 1


class TestPromText:
    def _write(self, tmp_path, lines):
        p = tmp_path / "m.txt"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_parse_and_labels(self, ray_session, tmp_path):
        from opentelemetry_collector_ray.sources.textlog import (
            prom_label, read_prom_text)

        p = self._write(tmp_path, [
            "# HELP m doc", "# TYPE m counter", "",
            'm{a="x",b="y"} 5 100', "m 7", 'm{a="z"} -2.5'])
        out = read_prom_text(p).to_pandas()
        assert out["metric"].tolist() == ["m", "m", "m"]
        assert out["value"].tolist() == ["5", "7", "-2.5"]
        assert out["ts_ms"].tolist()[0] == 100
        assert pa.Array.from_pandas(out["ts_ms"]).null_count == 2
        labs = prom_label(pa.array(out["labels"].tolist()), "a")
        assert labs.to_pylist() == ["x", None, "z"]

    def test_strict_raises_on_garbage(self, ray_session, tmp_path):
        from opentelemetry_collector_ray.sources.textlog import (
            read_prom_text)

        p = self._write(tmp_path, ["not a metric line ( ???"])
        with pytest.raises(Exception, match="unparsable"):
            read_prom_text(p).to_pandas()
        # non-strict drops it
        out = read_prom_text(p, strict=False).to_pandas()
        assert len(out) == 0


class TestDecayedCount:
    def test_halving_weights(self, ray_session):
        import datetime

        from opentelemetry_collector_ray.stages.temporal import (
            decayed_count)

        anchor = int(datetime.datetime(2024, 1, 31).timestamp() * 1e6)
        ts = [datetime.datetime(2024, 1, 30, 12),   # h=0
              datetime.datetime(2024, 1, 27),        # h=1 (4 days/3)
              datetime.datetime(2024, 1, 1),         # h=10
              datetime.datetime(2024, 2, 5)]         # future → h=0
        t = pa.table({"k": ["a"] * 4,
                      "ts": pa.array(ts, pa.timestamp("us"))})
        out = decayed_count(ray.data.from_arrow(t), ["k"], "ts",
                            anchor, half_life_days=3,
                            max_halvings=30).to_pandas()
        want = 2**30 + 2**29 + 2**20 + 2**30
        assert out.iloc[0]["decayed"] == want and out.iloc[0]["n"] == 4

    def test_overflow_guard(self, ray_session):
        import datetime

        from opentelemetry_collector_ray.stages.temporal import (
            decayed_count)

        anchor = int(datetime.datetime(2024, 1, 31).timestamp() * 1e6)
        t = pa.table({"k": ["a"],
                      "ts": pa.array([datetime.datetime(2024, 1, 30)],
                                     pa.timestamp("us"))})
        # argument-range check
        with pytest.raises(Exception, match="max_halvings"):
            decayed_count(ray.data.from_arrow(t), ["k"], "ts", anchor,
                          max_halvings=63).to_pandas()
        # the COMBINE guard itself: 3 rows at weight 2^61 → n·2^61 > 2^62
        t3 = pa.table({"k": ["a"] * 3,
                       "ts": pa.array([datetime.datetime(2024, 1, 30)] * 3,
                                      pa.timestamp("us"))})
        with pytest.raises(Exception, match="2\\^62"):
            decayed_count(ray.data.from_arrow(t3), ["k"], "ts", anchor,
                          max_halvings=61).to_pandas()

    def test_null_ts_rejected(self, ray_session):
        from opentelemetry_collector_ray.stages.temporal import (
            decayed_count)

        t = pa.table({"k": ["a"],
                      "ts": pa.array([None], pa.timestamp("us"))})
        with pytest.raises(Exception, match="null"):
            decayed_count(ray.data.from_arrow(t), ["k"], "ts",
                          0).to_pandas()


class TestOrcRoundtrip:
    def test_write_read(self, ray_session, tmp_path):
        from opentelemetry_collector_ray.sources.orcfile import (
            read_orc, write_orc)

        t = pa.table({"a": pa.array([1, 2, 3], pa.int64()),
                      "b": ["x", "y", "z"]})
        d = tmp_path / "orc"
        n = write_orc(ray.data.from_arrow(t).repartition(2), str(d))
        assert n == 3
        import os

        files = [str(d / f) for f in sorted(os.listdir(d))]
        back = read_orc(files).to_pandas().sort_values("a") \
            .reset_index(drop=True)
        assert back["a"].tolist() == [1, 2, 3]
        pruned = read_orc(files, columns=["b"]).to_pandas()
        assert list(pruned.columns) == ["b"]


class TestReviewRegressions:
    """Regressions for the ninth-session review findings."""

    def test_ohlc_empty_block_and_float_reject(self, ray_session):
        from opentelemetry_collector_ray.stages.metricsops import (
            grouped_ohlc)

        # empty blocks (7 rows over 13 partitions) must not crash
        t = pa.table({"k": ["a"] * 7, "o": list(range(7)),
                      "v": pa.array(range(7), pa.int64())})
        ds = ray.data.from_arrow(t).repartition(13)
        out = grouped_ohlc(ds, ["k"], ["o"], "v").to_pandas()
        assert out.iloc[0]["open"] == 0 and out.iloc[0]["close"] == 6
        fds = ray.data.from_arrow(pa.table(
            {"k": ["a"], "o": [1], "v": [1.5]}))
        with pytest.raises(Exception, match="integer"):
            grouped_ohlc(fds, ["k"], ["o"], "v").to_pandas()

    def test_prom_label_suffix_name(self):
        from opentelemetry_collector_ray.sources.textlog import (
            prom_label)

        labs = pa.array(['subtype="a",type="b"', 'type="c"',
                         'subtype="a"'])
        assert prom_label(labs, "type").to_pylist() == ["b", "c", None]

    def test_prom_line_brace_in_value_and_multispace(
            self, ray_session, tmp_path):
        from opentelemetry_collector_ray.sources.textlog import (
            prom_label, read_prom_text)

        p = tmp_path / "m.txt"
        p.write_text('m{msg="a}b",x="q\\"z"} 1\nm  2  300\n')
        out = read_prom_text(str(p)).to_pandas()
        assert out["value"].tolist() == ["1", "2"]
        assert out["ts_ms"].tolist()[1] == 300
        assert prom_label(pa.array(out["labels"].tolist()),
                          "msg").to_pylist()[0] == "a}b"

    def test_count_distinct_null_key_is_one_group(self, ray_session):
        import duckdb

        from opentelemetry_collector_ray.stages.aggregate import (
            grouped_count_distinct)

        t = pa.table({"k": pa.array([1, None, None, None, 1], pa.int64()),
                      "v": pa.array([1, 2, 3, 2, None], pa.int64())})
        got = grouped_count_distinct(
            ray.data.from_arrow(t).repartition(2), ["k"], "v").take_all()
        want = duckdb.sql("SELECT k, count(DISTINCT v) AS n_distinct "
                          "FROM t GROUP BY k").fetchall()
        assert sorted(((r["k"], r["n_distinct"]) for r in got),
                      key=repr) == sorted(want, key=repr)

    def test_apportion_zero_total_raises(self, ray_session):
        from opentelemetry_collector_ray.stages.allocate import apportion

        ds = ray.data.from_arrow(pa.table(
            {"k": ["a", "b"], "w": pa.array([0, 0], pa.int64())}))
        with pytest.raises(Exception, match="total weight is 0"):
            apportion(ds, ["k"], 10, weight_col="w").to_pandas()

    def test_grid_densify_null_key_rejected(self, ray_session):
        from opentelemetry_collector_ray.stages.resample import (
            grid_densify)

        t = pa.table({"r": pa.array(["a", None]), "c": ["x", "y"]})
        with pytest.raises(Exception, match="null"):
            grid_densify(ray.data.from_arrow(t), "r", "c").to_pandas()


class TestQuotaSample:
    def test_exact_total_and_reshard_invariance(self, ray_session):
        from opentelemetry_collector_ray.stages.sampling import (
            quota_sample)

        rng = np.random.default_rng(5)
        t = pa.table({"id": pa.array(np.arange(3000), pa.int64()),
                      "k": rng.choice(["a", "b", "c"], 3000,
                                      p=[0.5, 0.3, 0.2])})
        a = quota_sample(ray.data.from_arrow(t).repartition(3),
                         "k", 100, "id").to_pandas()
        b = quota_sample(ray.data.from_arrow(t).repartition(17),
                         "k", 100, "id").to_pandas()
        assert len(a) == 100 and len(b) == 100
        assert sorted(a["id"]) == sorted(b["id"])  # reshard-invariant
        # proportional: a≈50, b≈30, c≈20 (exact by apportionment)
        counts = a.groupby("k")["id"].count()
        assert counts.sum() == 100 and abs(counts["a"] - 50) <= 1


class TestQueryNear:
    def test_window_semantics(self, ray_session, tmp_path):
        from opentelemetry_collector_ray.stages.ranking import (
            build_positional_index, query_near)

        docs = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": ["alpha x y z beta",      # dist 4
                     "beta alpha",            # dist 1, reversed order
                     "alpha only here",       # no beta
                     "x alpha beta y"]})      # dist 1
        idx = str(tmp_path / "idx")
        build_positional_index(ray.data.from_arrow(docs), idx,
                               n_buckets=4)
        near1 = sorted(query_near(idx, "alpha", "beta", 1,
                                  n_buckets=4).to_pandas()["doc_id"])
        assert near1 == [2, 4]
        near4 = sorted(query_near(idx, "alpha", "beta", 4,
                                  n_buckets=4).to_pandas()["doc_id"])
        assert near4 == [1, 2, 4]  # boundary inclusive
        none = query_near(idx, "alpha", "zzz", 9,
                          n_buckets=4).to_pandas()
        assert len(none) == 0
        with pytest.raises(Exception, match="window"):
            query_near(idx, "alpha", "beta", -1, n_buckets=4)


class TestSecondReviewRegressions:
    """Regressions for the second-session review findings."""

    def test_query_near_missing_partition_id_type(
            self, ray_session, tmp_path):
        from opentelemetry_collector_ray.stages.ranking import (
            build_positional_index, query_near)

        docs = pa.table({"doc_id": pa.array(["d1", "d2"]),
                         "text": ["alpha beta", "alpha gamma"]})
        idx = str(tmp_path / "idx")
        build_positional_index(ray.data.from_arrow(docs), idx,
                               n_buckets=2, id_col="doc_id")
        # 'zzz' hashes to some bucket; whether or not its partition
        # exists, the empty side must carry the index's STRING id type
        out = query_near(idx, "alpha", "zzz", 5,
                         n_buckets=2, id_col="doc_id").to_pandas()
        assert len(out) == 0

    def test_write_prom_text_null_rejected_and_utf8(
            self, ray_session, tmp_path):
        from opentelemetry_collector_ray.sources.textlog import (
            read_prom_text, write_prom_text)

        bad = ray.data.from_arrow(pa.table({
            "metric": pa.array(["m", None]),
            "labels": ["", ""],
            "value": pa.array([1, 2], pa.int64()),
            "ts_ms": pa.array([None, None], pa.int64())}))
        with pytest.raises(Exception, match="null"):
            write_prom_text(bad, str(tmp_path / "p1"))
        ok = ray.data.from_arrow(pa.table({
            "metric": ["m"], "labels": ['svc="Ünïcode"'],
            "value": pa.array([7], pa.int64()),
            "ts_ms": pa.array([None], pa.int64())}))
        n = write_prom_text(ok, str(tmp_path / "p2"))
        assert n == 1
        import os

        files = [str(tmp_path / "p2" / f)
                 for f in os.listdir(tmp_path / "p2")]
        back = read_prom_text(files).to_pandas()
        assert back["labels"].tolist() == ['svc="Ünïcode"']

    def test_ab_lift_zero_conversion_variant_kept(self, ray_session):
        import duckdb

        import __ray_entry__ as em

        # events where odd users never purchase
        t = pa.table({
            "user_id": pa.array([0, 0, 1, 1, 2, 3], pa.int64()),
            "event_type": ["purchase", "view", "view", "click",
                           "purchase", "view"]})
        import pyarrow.parquet as pq

        import tempfile

        d = tempfile.mkdtemp(prefix="ablift_", dir="/tmp")
        pq.write_table(t, f"{d}/events.parquet")
        out = em._q_events_ab_lift(d).to_pandas() \
            .set_index("variant").sort_index()
        assert out.loc[1, "n_conv_users"] == 0
        assert out.loc[0, "n_conv_users"] == 2
        assert len(out) == 2

    def test_quota_sample_empty_input(self, ray_session):
        from opentelemetry_collector_ray.stages.sampling import (
            quota_sample)

        t = pa.table({"k": pa.array([], pa.string()),
                      "id": pa.array([], pa.int64())})
        out = quota_sample(ray.data.from_arrow(t), "k", 10,
                           "id").to_pandas()
        assert len(out) == 0

    def test_cumulative_to_delta_positional_nbuckets(self, ray_session):
        from opentelemetry_collector_ray.stages.temporal import (
            cumulative_to_delta)

        t = pa.table({"s": ["a", "a"], "o": [1, 2],
                      "c": pa.array([5, 9], pa.int64())})
        # n_buckets passed POSITIONALLY (5th arg after out_col) must
        # still bind to n_buckets, not the new keyword-only resets
        out = cumulative_to_delta(ray.data.from_arrow(t), "s", "o",
                                  "c", "d", 4).to_pandas()
        assert sorted(out["d"].tolist()) == [4, 5]


class TestPromGzip:
    def test_gzip_roundtrip(self, ray_session, tmp_path):
        from opentelemetry_collector_ray.sources.textlog import (
            read_prom_text, write_prom_text)

        ds = ray.data.from_arrow(pa.table({
            "metric": ["m", "m"], "labels": ['k="a"', ""],
            "value": pa.array([1, 2], pa.int64()),
            "ts_ms": pa.array([10, None], pa.int64())}))
        n = write_prom_text(ds, str(tmp_path / "gz"),
                            compression="gzip")
        assert n == 2
        import os

        files = [str(tmp_path / "gz" / f)
                 for f in os.listdir(tmp_path / "gz")]
        assert all(f.endswith(".txt.gz") for f in files)
        back = read_prom_text(files).to_pandas().sort_values("value")
        assert back["value"].tolist() == ["1", "2"]
        with pytest.raises(ValueError, match="compression"):
            write_prom_text(ds, str(tmp_path / "x"),
                            compression="lz77")


class TestThirdReviewRegressions:
    def test_prom_gzip_deterministic(self, ray_session, tmp_path):
        from opentelemetry_collector_ray.sources.textlog import (
            write_prom_text)

        ds_t = pa.table({"metric": ["m"], "labels": [""],
                         "value": pa.array([5], pa.int64()),
                         "ts_ms": pa.array([None], pa.int64())})
        import os

        blobs = []
        for d in ("a", "b"):
            write_prom_text(ray.data.from_arrow(ds_t),
                            str(tmp_path / d), compression="gzip")
            f = [x for x in os.listdir(tmp_path / d)][0]
            blobs.append(open(tmp_path / d / f, "rb").read())
        assert blobs[0] == blobs[1]  # gzip mtime pinned → byte-equal

    def test_forecast_backtest_weekday_alignment(self, ray_session):
        """A type with an EMPTY day must still predict from 7 calendar
        days back (zero-filled spine), not 7 rows back."""
        import datetime

        import tempfile

        import pyarrow.parquet as pq

        import __ray_entry__ as em

        rows = []
        base = datetime.datetime(2024, 1, 1)
        for d in range(15):
            day = base + datetime.timedelta(days=d)
            # type 'b' keeps every day populated (spine carries all days)
            rows.append({"user_id": 1, "ts": day, "event_id": 1000 + d,
                         "event_type": "b", "value": 1.0,
                         "props": "{}"})
            # type 'a': 2 events per day EXCEPT day 3 (gap)
            if d != 3:
                for i in range(2):
                    rows.append({"user_id": 1, "ts": day,
                                 "event_id": d * 10 + i,
                                 "event_type": "a", "value": 1.0,
                                 "props": "{}"})
        t = pa.Table.from_pylist(rows)
        t = t.set_column(t.column_names.index("ts"), "ts",
                         t.column("ts").cast(pa.timestamp("us")))
        d = tempfile.mkdtemp(prefix="fcst_", dir="/tmp")
        pq.write_table(t, f"{d}/events.parquet")
        out = em._q_events_forecast_backtest(d).to_pandas() \
            .set_index("event_type")
        # type a: zero-filled spine scores days 7..14 (8 days); day 10
        # predicts day 3's ZERO (the gap) → |2-0| = 2, every other day
        # errs 0 → sum_abs_err = 2. A row-lag over the sparse table
        # would instead score only 7 rows with zero total error — the
        # regression this gate distinguishes.
        assert out.loc["a", "n_days"] == 8
        assert out.loc["a", "sum_abs_err"] == 2
        assert out.loc["b", "sum_abs_err"] == 0
