"""Config layer (env expansion, validation, feature gates) + config-driven
resumable pipeline runner — confmap/otelcol + persistent-queue semantics."""

import glob
import os

import pytest

from opentelemetry_collector_ray.config import (
    ConfigError, FeatureGateRegistry, PipelineConfig, expand_env)


def test_expand_env(monkeypatch):
    monkeypatch.setenv("GRAFT_X", "hello")
    assert expand_env("${env:GRAFT_X}/suffix") == "hello/suffix"
    assert expand_env({"a": ["${env:GRAFT_X}"]}) == {"a": ["hello"]}
    assert expand_env("${env:GRAFT_UNSET_ZZ:-fallback}") == "fallback"
    with pytest.raises(ConfigError):
        expand_env("${env:GRAFT_UNSET_ZZ}")


def test_confmap_providers(tmp_path, monkeypatch):
    """file:/yaml: URI providers + whole-value vs embedded reference
    semantics (confmap/expand.go:110-194, provider/*)."""
    from opentelemetry_collector_ray.config import expand_uris

    f = tmp_path / "frag.yaml"
    f.write_text("batch_size: 4096\nconcurrency: 2\n")
    scalar = tmp_path / "name.txt"
    scalar.write_text("prod-east")
    # whole-value reference → retrieved value with type preserved
    assert expand_uris(f"${{file:{f}}}") == {"batch_size": 4096,
                                             "concurrency": 2}
    assert expand_uris(f"sink-${{file:{scalar}}}") == "sink-prod-east"
    assert expand_uris("${yaml:[1, 2, 3]}") == [1, 2, 3]
    # a mapping embedded inside a string is an error
    with pytest.raises(ConfigError):
        expand_uris(f"x-${{file:{f}}}")
    with pytest.raises(ConfigError):
        expand_uris("${file:/nonexistent/zz.yaml}")
    with pytest.raises(ConfigError):
        expand_uris("${http://example.com/cfg}")
    # nested: file content containing ${env:} resolves transitively
    monkeypatch.setenv("GRAFT_DEPTH", "7")
    g = tmp_path / "nested.yaml"
    g.write_text("depth: ${env:GRAFT_DEPTH}\n")
    assert expand_uris(f"${{file:{g}}}") == {"depth": "7"}


def test_confmap_resolver_merge(tmp_path):
    """Multi-source merge precedence (confmap/resolver.go:88-164): later
    sources override; maps merge deep, scalars/lists replace."""
    from opentelemetry_collector_ray.config import merge_confs, resolve_config

    base = tmp_path / "base.yaml"
    base.write_text(
        "receivers:\n  parquet:\n    paths: /data/in\n"
        "processors:\n  parse: {}\n  enrich: {}\n"
        "exporters:\n  parquet_sink/out:\n    path: sinks\n")
    override = tmp_path / "override.yaml"
    override.write_text(
        "receivers:\n  parquet:\n    paths: /data/other\n"
        "processors:\n  parse:\n    text_col: body\n")
    merged = resolve_config([str(base), str(override)])
    assert merged["receivers"]["parquet"]["paths"] == "/data/other"
    assert merged["processors"]["parse"] == {"text_col": "body"}
    assert merged["processors"]["enrich"] == {}  # untouched by override
    assert merged["exporters"]["parquet_sink/out"]["path"] == "sinks"
    # scalars replace, maps deep-merge
    assert merge_confs({"a": {"x": 1}, "b": [1]}, {"a": {"y": 2}, "b": [2]}) \
        == {"a": {"x": 1, "y": 2}, "b": [2]}


def _raw(paths="/tmp/in"):
    return {
        "receivers": {"parquet": {"paths": paths}},
        "processors": {"parse": {}, "enrich": {}, "route": {}},
        "exporters": {"parquet_sink/out": {"path": "sinks"}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": ["parse", "enrich", "route"],
            "exporters": ["parquet_sink/out"],
        }}},
    }


def test_config_validation():
    cfg = PipelineConfig.from_dict(_raw())
    assert cfg.pipeline["processors"] == ["parse", "enrich", "route"]
    bad = _raw()
    bad["service"]["pipelines"]["logs"]["processors"] = ["nope"]
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(bad)
    bad2 = _raw()
    bad2["service"]["pipelines"]["logs"]["exporters"] = []
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(bad2)


def test_feature_gates():
    g = FeatureGateRegistry()
    g.register("x.alpha", "alpha")
    g.register("y.stable", "stable")
    assert not g.enabled("x.alpha") and g.enabled("y.stable")
    g.set("x.alpha", True)
    assert g.enabled("x.alpha")
    with pytest.raises(ConfigError):
        g.set("y.stable", False)
    with pytest.raises(ConfigError):
        g.register("x.alpha", "beta")


def test_run_pipeline_resumable(ray_session, tmp_path):
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline
    from opentelemetry_collector_ray.synth import write_turns_parquet

    src = str(tmp_path / "in")
    out = str(tmp_path / "out")
    write_turns_parquet(src, sf=0.05, shards=3)
    cfg = PipelineConfig.from_dict(_raw(paths=src))
    r1 = run_pipeline(cfg, out)
    assert len(r1["ran"]) == 3 and not r1["skipped"]
    files = glob.glob(os.path.join(out, "part-*", "**", "*.parquet"),
                      recursive=True)
    assert files
    r2 = run_pipeline(cfg, out)  # resume: everything committed
    assert not r2["ran"] and len(r2["skipped"]) == 3
    # config change → different hash → full recompute
    cfg2 = PipelineConfig.from_dict(_raw(paths=src))
    cfg2.processors["route"] = {"default_sink": "other"}
    r3 = run_pipeline(cfg2, out)
    assert len(r3["ran"]) == 3


def test_confmap_cycle_detection(tmp_path):
    from opentelemetry_collector_ray.config import expand_uris

    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    a.write_text(f"x: ${{file:{b}}}\n")
    b.write_text(f"y: ${{file:{a}}}\n")
    with pytest.raises(ConfigError, match="cyclic"):
        expand_uris(f"${{file:{a}}}")


def test_provider_scalar_values_are_opaque(monkeypatch):
    """Reference-shaped text INSIDE a resolved env value is data, not a
    config reference (re-interpretation would be an injection vector)."""
    from opentelemetry_collector_ray.config import expand_uris, resolve_config

    monkeypatch.setenv("GRAFT_OUTER", "keep ${env:GRAFT_INNER} literal")
    monkeypatch.setenv("GRAFT_INNER", "SHOULD_NOT_APPEAR")
    assert expand_uris("${env:GRAFT_OUTER}") == \
        "keep ${env:GRAFT_INNER} literal"
    assert expand_uris("pfx-${env:GRAFT_OUTER}") == \
        "pfx-keep ${env:GRAFT_INNER} literal"
    merged = resolve_config([{"receivers": {"r": {"p": "${env:GRAFT_OUTER}"}},
                              "exporters": {}, "service": {}}])
    assert "SHOULD_NOT_APPEAR" not in str(merged)


def test_redact_and_score_processors(ray_session, tmp_path):
    """redact and score as first-class YAML processors: text scrubbed,
    linear model applied, all through the config-driven builder."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["mail bob@x.io now", "no pii"]),
        "n_tokens": pa.array([3, 2], pa.int64()),
    }), str(src))
    cfg = PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(src)}},
        "processors": {
            "redact": {"rules": ["email"], "with_counts": True},
            "score": {"weights": {"n_tokens": 10, "n_email": 100},
                      "bias": 1, "out_col": "s"},
        },
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": ["redact", "score"],
            "exporters": ["debug"],
        }}},
    })
    df = build_dataset(cfg).to_pandas().sort_values("doc_id")
    assert df["redacted"].tolist() == ["mail <EMAIL> now", "no pii"]
    assert df["s"].tolist() == [3 * 10 + 100 + 1, 2 * 10 + 1]


def test_spans_wire_components_round_trip(ray_session, tmp_path):
    """otlp_proto_spans / otlp_json_spans as YAML receiver+exporter, with
    compression: spans derived from events → compressed request files →
    read back via the config-driven builder — counts preserved."""
    import pyarrow.parquet as pq

    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import (
        build_dataset, run_exporters)
    from opentelemetry_collector_ray.sources.otlp_proto import spans_to_wire

    events = "/root/testdata/sf0.001/events.parquet"
    out = str(tmp_path)
    cfg = PipelineConfig.from_dict({
        "receivers": {"spans": {"paths": events}},
        "processors": {},
        "exporters": {
            "otlp_proto_spans": {"path": "pb", "compression": "gzip"},
            "otlp_json_spans": {"path": "js", "compression": "zlib"},
        },
        "service": {"pipelines": {"traces": {
            "receivers": ["spans"],
            "processors": [],
            "exporters": ["otlp_proto_spans", "otlp_json_spans"],
        }}},
    })
    ds = build_dataset(cfg).map_batches(spans_to_wire,
                                        batch_format="pyarrow")
    n_spans = ds.count()
    counts = run_exporters(cfg, ds, out)
    assert counts["otlp_proto_spans"] == n_spans
    assert counts["otlp_json_spans"] == n_spans
    # read back through the receiver side of the same component types
    cfg2 = PipelineConfig.from_dict({
        "receivers": {"otlp_proto_spans": {"paths": f"{out}/pb"}},
        "processors": {},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"traces": {
            "receivers": ["otlp_proto_spans"], "processors": [],
            "exporters": ["debug"]}}},
    })
    assert build_dataset(cfg2).count() == n_spans
    cfg3 = PipelineConfig.from_dict({
        "receivers": {"otlp_json_spans": {"paths": f"{out}/js"}},
        "processors": {},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"traces": {
            "receivers": ["otlp_json_spans"], "processors": [],
            "exporters": ["debug"]}}},
    })
    assert build_dataset(cfg3).count() == n_spans


def test_mix_sort_contamination_tfidf_processors(ray_session, tmp_path):
    """Round-4 LLM-ops as first-class YAML processors (mix /
    global_sort / contamination / tfidf), each through the
    config-driven builder and equal to the direct library call."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    src = tmp_path / "docs.parquet"
    rng = np.random.default_rng(9)
    langs = rng.choice(["en", "fr"], 200, p=[0.7, 0.3])
    texts = ["alpha beta gamma" if l == "en" else "beta delta"
             for l in langs]
    texts[5] = "the secret benchmark phrase here"
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(200)),
        "lang": pa.array(langs),
        "text": pa.array(texts),
    }), str(src))

    def build(procs, names):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(src)}},
            "processors": procs,
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": names,
                "exporters": ["debug"]}}},
        }))

    mixed = build({"mix": {"class_col": "lang", "id_col": "doc_id",
                           "weights": {"en": 1, "fr": 1}}},
                  ["mix"]).to_pandas()
    from opentelemetry_collector_ray.stages.mixing import (mix_by_class,
                                                           mixture_rates)
    counts = {c: int((langs == c).sum()) for c in ("en", "fr")}
    rates = mixture_rates(counts, {"en": 1, "fr": 1})
    assert sorted(mixed["doc_id"]) == [
        i for i in range(200) if i % 1000 < rates[langs[i]]]

    srt = build({"global_sort": {"keys": ["lang", "doc_id"],
                                 "rank_col": "rnk"}},
                ["global_sort"]).to_pandas().sort_values("rnk")
    assert srt["lang"].tolist() == sorted(langs.tolist())

    cont = build({"contamination": {
        "phrases": ["secret benchmark phrase"]}},
        ["contamination"]).to_pandas()
    assert set(cont[cont["contaminated"]]["doc_id"]) == {5}

    tf = build({"tfidf": {"terms": ["beta", "delta"]}},
               ["tfidf"]).to_pandas()
    n_en, n_fr = counts["en"], counts["fr"]
    w_beta = (200 * 1000) // (200 + 1)  # every doc has beta... except doc 5
    from opentelemetry_collector_ray.stages.ranking import score_tfidf_int
    import ray.data
    direct = score_tfidf_int(
        lambda: ray.data.read_parquet(str(src)),
        ["beta", "delta"]).to_pandas()
    a = tf.sort_values("doc_id").reset_index(drop=True)
    b = direct.sort_values("doc_id").reset_index(drop=True)
    assert a[["doc_id", "score", "n_matched"]].equals(
        b[["doc_id", "score", "n_matched"]])

    with pytest.raises(ConfigError):
        build({"mix": {"class_col": "lang", "id_col": "doc_id"}}, ["mix"])
    with pytest.raises(ConfigError):
        build({"global_sort": {}}, ["global_sort"])
    with pytest.raises(ConfigError):
        build({"contamination": {"phrases": []}}, ["contamination"])
    with pytest.raises(ConfigError):
        build({"tfidf": {}}, ["tfidf"])


def test_rollup_funnel_processors(ray_session, tmp_path):
    """rollup / funnel as YAML processors, each equal to the direct
    library call; missing-config keys fail loudly."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.funnel import funnel
    from opentelemetry_collector_ray.stages.rollup import rollup_agg

    rng = np.random.default_rng(23)
    src = tmp_path / "ev.parquet"
    pq.write_table(pa.table({
        "uid": pa.array(rng.integers(0, 9, 150).astype(str)),
        "o": pa.array(rng.permutation(150)),
        "v": pa.array(rng.integers(0, 50, 150)),
        "e": pa.array(rng.choice(["s1", "s2", "zz"], 150)),
    }), str(src))

    def build(procs, names):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(src)}},
            "processors": procs,
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": names,
                "exporters": ["debug"]}}},
        }))

    def canon(df):
        df = df[sorted(df.columns)].copy()
        for c in df.columns:
            if df[c].dtype == object:
                df[c] = df[c].astype("string")
        return df.sort_values(list(df.columns),
                              kind="mergesort").reset_index(drop=True)

    r = build({"rollup": {"keys": ["uid", "e"], "count_name": "n",
                          "sum_cols": {"sv": "v"}}},
              ["rollup"]).to_pandas()
    direct = rollup_agg(ray.data.read_parquet(str(src)), ["uid", "e"],
                        count_name="n", sum_cols={"sv": "v"}).to_pandas()
    assert canon(r).equals(canon(direct))

    f = build({"funnel": {"key": "uid", "order_col": "o",
                          "step_col": "e", "steps": ["s1", "s2"]}},
              ["funnel"]).to_pandas()
    directf = funnel(ray.data.read_parquet(str(src)), "uid", "o", "e",
                     ["s1", "s2"]).to_pandas()
    assert canon(f).equals(canon(directf))

    for procs, names in (
            ({"rollup": {"count_name": "n"}}, ["rollup"]),
            ({"funnel": {"key": "uid"}}, ["funnel"]),
            ({"resample": {"key": "uid", "ts_col": "o"}}, ["resample"])):
        with pytest.raises(ConfigError):
            build(procs, names)

    rs = build({"resample": {"key": "uid", "ts_col": "o",
                             "every_us": 40, "value_cols": ["v"]}},
               ["resample"]).to_pandas()
    assert {"uid", "grid_ts", "v"} == set(rs.columns) and len(rs) > 0


def test_dup_stats_and_service_graph_processors(ray_session, tmp_path):
    """dup_stats / service_graph as YAML processors equal the direct
    library calls."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.subdedup import (
        duplication_stats)

    docs = tmp_path / "docs.parquet"
    rep = "alpha beta gamma delta epsilon zeta eta theta"
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3]),
        "text": pa.array([rep + " unique one words here",
                          "other filler " + rep,
                          "totally different text entirely unrelated"]),
    }), str(docs))

    def build(rcv, procs, names):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": rcv,
            "processors": procs,
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": [list(rcv)[0]], "processors": names,
                "exporters": ["debug"]}}},
        }))

    y = build({"parquet": {"paths": str(docs)}},
              {"dup_stats": {"window": 8}}, ["dup_stats"]).to_pandas()
    direct = duplication_stats(ray.data.read_parquet(str(docs)),
                               window=8).to_pandas()
    assert sorted(map(tuple, y.values.tolist())) == \
        sorted(map(tuple, direct.values.tolist()))
    assert y.set_index("doc_id").loc[1, "dup_tokens"] == 8

    ev = tmp_path / "events.parquet"
    rng = np.random.default_rng(3)
    n = 400
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n)),
        "ts": pa.array(rng.integers(0, 3_600_000_000, n).astype(
            "datetime64[us]")),
        "user_id": pa.array(rng.integers(0, 10, n)),
        "event_type": pa.array(rng.choice(
            ["view", "click", "purchase", "error"], n)),
        "value": pa.array(rng.uniform(0, 100, n)),
        "props": pa.array(["{}"] * n),
    }), str(ev))
    g = build({"spans": {"paths": str(ev)}},
              {"service_graph": {}}, ["service_graph"]).to_pandas()
    assert {"client", "server", "n_calls", "n_errors",
            "total_duration_us"} == set(g.columns)
    assert g["n_calls"].sum() > 0


def test_window_sample_quantize_freqterms_processors(ray_session,
                                                     tmp_path):
    """window / sample / quantize / frequent_terms as YAML processors,
    each equal to the direct library call."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    rng = np.random.default_rng(21)
    src = tmp_path / "ev.parquet"
    pq.write_table(pa.table({
        "uid": pa.array(rng.integers(0, 9, 120).astype(str)),
        "o": pa.array(rng.permutation(120)),
        "v": pa.array(rng.integers(0, 50, 120)),
        "text": pa.array(["alpha beta"] * 60 + ["beta gamma"] * 60),
        "emb": pa.array(list(rng.normal(size=(120, 4)).astype(
            np.float32)), pa.list_(pa.float32())),
    }), str(src))

    def build(procs, names):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(src)}},
            "processors": procs,
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": names,
                "exporters": ["debug"]}}},
        }))

    w = build({"window": {"key": "uid", "order_by": ["o"],
                          "ops": {"cum": ["cumsum", "v"],
                                  "rn": ["row_number"]}}},
              ["window"]).to_pandas().sort_values(["uid", "o"])
    ref = w.groupby("uid")["v"].cumsum()
    assert w["cum"].tolist() == ref.tolist()

    s = build({"sample": {"k": 7, "id_col": "o"}},
              ["sample"]).to_pandas()
    assert len(s) == 7

    sb = build({"sample_by": {"k": 3, "id_col": "o", "by": "uid"}},
               ["sample_by"]).to_pandas()
    from opentelemetry_collector_ray.stages.sampling import (
        sample_bottom_k_by)
    import ray.data as _rd
    directsb = sample_bottom_k_by(
        _rd.read_parquet(str(src)), 3, "o", "uid").to_pandas()
    assert sorted(sb["o"].tolist()) == sorted(directsb["o"].tolist())
    with pytest.raises(ConfigError):
        build({"sample_by": {"k": 3, "id_col": "o"}}, ["sample_by"])

    qz = build({"quantize": {"vec_col": "emb"}}, ["quantize"]
               ).to_pandas()
    assert "q8" in qz.columns and "emb" not in qz.columns

    ft = build({"frequent_terms": {"num": 1, "den": 4}},
               ["frequent_terms"]).to_pandas()
    assert set(ft["term"]) == {"alpha", "beta", "gamma"} - set()
    assert dict(zip(ft["term"], ft["n"]))["beta"] == 120

    for procs, names in (
            ({"window": {"key": "uid"}}, ["window"]),
            ({"sample": {"id_col": "o"}}, ["sample"]),
            ({"frequent_terms": {"num": 1}}, ["frequent_terms"])):
        with pytest.raises(ConfigError):
            build(procs, names)


def test_repetition_scale_reshape_semdedup_processors(ray_session,
                                                      tmp_path):
    """repetition / minmax_scale / pivot / unpivot / semdedup as YAML
    processors, each equal to the direct library call."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    rng = np.random.default_rng(5)
    src = tmp_path / "mix.parquet"
    emb = rng.normal(size=(40, 6)).astype(np.float32)
    emb[39] = emb[0] + 1e-4  # planted near-dup pair
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(40), pa.int64()),
        "vec_id": pa.array(np.arange(40), pa.int64()),
        "text": pa.array(["spam spam spam ham"] * 20 +
                         ["all words differ here now"] * 20),
        "grp": pa.array(["a"] * 20 + ["b"] * 20),
        "x": pa.array(rng.integers(0, 100, 40), pa.int64()),
        "name": pa.array(["p", "q"] * 20),
        "emb": pa.array(list(emb), pa.list_(pa.float32())),
    }), str(src))

    def build(procs, names):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(src)}},
            "processors": procs,
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": names,
                "exporters": ["debug"]}}},
        }))

    rep = build({"repetition": {}}, ["repetition"]).to_pandas()
    assert rep.loc[rep["doc_id"] == 0, "max_run"].iloc[0] == 3

    sc = build({"minmax_scale": {"column": "x", "key": "grp",
                                 "scale": 100}},
               ["minmax_scale"]).to_pandas()
    assert sc.groupby("grp")["x_scaled"].max().tolist() == [100, 100]
    assert sc.groupby("grp")["x_scaled"].min().tolist() == [0, 0]

    pv = build({"pivot": {"keys": ["grp"], "name_col": "name",
                          "value_col": "x", "names": ["p", "q"]}},
               ["pivot"]).to_pandas().sort_values("grp")
    assert list(pv.columns) == ["grp", "p", "q"]
    assert len(pv) == 2

    up = build({"unpivot": {"keys": ["doc_id"], "value_cols": ["x"]}},
               ["unpivot"]).to_pandas()
    assert len(up) == 40 and set(up["name"]) == {"x"}

    sd = build({"semdedup": {"k": 2, "vec_col": "emb",
                             "threshold": 0.9999, "iters": 2}},
               ["semdedup"]).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(sd["vec_id"], sd["rep_id"])
             if a != b}
    assert pairs == {(39, 0)}

    for procs, names in (
            ({"minmax_scale": {}}, ["minmax_scale"]),
            ({"pivot": {"keys": ["grp"]}}, ["pivot"]),
            ({"unpivot": {"keys": ["doc_id"]}}, ["unpivot"])):
        with pytest.raises(ConfigError):
            build(procs, names)


def test_pca_processor(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    rng = np.random.default_rng(3)
    emb = rng.normal(size=(60, 6)).astype(np.float32)
    src = tmp_path / "e.parquet"
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(60), pa.int64()),
        "emb": pa.array(list(emb), pa.list_(pa.float32()))}), str(src))
    out = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(src)}},
        "processors": {"pca": {"vec_col": "emb", "n_components": 3}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "processors": ["pca"],
            "exporters": ["debug"]}}},
    })).to_pandas()
    assert len(out) == 60
    assert all(len(v) == 3 for v in out["pca"])


def test_split_processor(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    src = tmp_path / "s.parquet"
    pq.write_table(pa.table({
        "id": pa.array(np.arange(100), pa.int64()),
        "grp": pa.array(np.arange(100) % 9, pa.int64())}), str(src))
    out = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(src)}},
        "processors": {"split": {"key": "grp",
                                 "fractions": {"train": 0.7, "test": 0.3}}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "processors": ["split"],
            "exporters": ["debug"]}}},
    })).to_pandas()
    assert (out.groupby("grp")["split"].nunique() == 1).all()
    with pytest.raises(ConfigError):
        build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(src)}},
            "processors": {"split": {"key": "grp"}},
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": ["split"],
                "exporters": ["debug"]}}},
        }))


def test_validate_profile_processors(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    src = tmp_path / "v.parquet"
    pq.write_table(pa.table({
        "id": pa.array([1, 2, 3, 4], pa.int64()),
        "x": pa.array([5, -1, 7, None], pa.int64())}), str(src))

    def build(procs, names):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(src)}},
            "processors": procs,
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": names,
                "exporters": ["debug"]}}},
        }))

    v = build({"validate": {"id_col": "id",
                            "rules": {"x_pos": ["in_range", "x", 0, 100],
                                      "x_nn": ["not_null", "x"]}}},
              ["validate"]).to_pandas()
    got = {(r, int(i)) for r, i in zip(v["rule"], v["id"])}
    assert got == {("x_pos", 2), ("x_nn", 4)}

    p = build({"profile": {"columns": ["x"]}}, ["profile"]).to_pandas()
    assert p.iloc[0]["n_rows"] == 4 and p.iloc[0]["n_null"] == 1

    for procs, names in (({"validate": {"id_col": "id"}}, ["validate"]),
                         ({"profile": {}}, ["profile"])):
        with pytest.raises(ConfigError):
            build(procs, names)


def test_rater_kappa_yaml_parity(ray_session, tmp_path):
    """YAML rater_kappa (``key``/``a``/``b``) == a direct
    ``rater_agreement`` call, returned as a Dataset."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.config import get_factory
    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.agreement import rater_agreement

    p = tmp_path / "r.parquet"
    pq.write_table(pa.table({
        "g": pa.array(["x"] * 6 + ["y"] * 4),
        "r1": pa.array([0, 1, 2, 0, 1, 1, 0, 1, None, 1], pa.int64()),
        "r2": pa.array([0, 1, 1, 0, 2, 1, 1, 1, 0, 1], pa.int64())}), str(p))
    built = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(p)}},
        "processors": {"rater_kappa": {"key": "g", "a": "r1", "b": "r2",
                                       "max_classes": 4}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "processors": ["rater_kappa"],
            "exporters": ["debug"]}}},
    }))
    assert isinstance(built, ray.data.Dataset)
    got = built.to_pandas().sort_values("g").reset_index(drop=True)
    want = rater_agreement(ray.data.read_parquet(str(p)), "g", "r1", "r2",
                           max_classes=4).to_pandas() \
        .sort_values("g").reset_index(drop=True)
    assert got.equals(want) and len(got) == 2

    with pytest.raises(ConfigError, match="rater_kappa: .*\\bb\\b"):
        get_factory("rater_kappa").create({"key": "g", "a": "r1"})


def test_csv_receiver(ray_session, tmp_path):
    """CSV receiver parses with Arrow's C++ reader and honors column
    pruning."""
    p = tmp_path / "in.csv"
    p.write_text("id,name,score\n1,ada,10\n2,grace,20\n")
    cfg = PipelineConfig.from_dict({
        "receivers": {"csv": {"paths": str(p),
                              "columns": ["id", "score"]}},
        "processors": {},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["csv"], "processors": [],
            "exporters": ["debug"]}}},
    })
    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    df = build_dataset(cfg).to_pandas().sort_values("id")
    assert list(df.columns) == ["id", "score"]
    assert df["score"].tolist() == [10, 20]


def test_jsonl_sink_roundtrip(ray_session, tmp_path):
    """jsonl_sink exporter writes newline-delimited JSON that the jsonl
    receiver reads back exactly."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import (
        build_dataset, run_exporters)
    from opentelemetry_collector_ray.sources.textlog import read_jsonl

    p = tmp_path / "in.parquet"
    pq.write_table(pa.table({
        "id": pa.array([1, 2, 3], pa.int64()),
        "msg": pa.array(["a", "b", "c"])}), str(p))
    cfg = PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(p)}},
        "processors": {},
        "exporters": {"jsonl_sink": {"path": "out"}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "processors": [],
            "exporters": ["jsonl_sink"]}}},
    })
    ds = build_dataset(cfg)
    counts = run_exporters(cfg, ds, str(tmp_path))
    assert counts["jsonl_sink"] == "written"
    back = read_jsonl(str(tmp_path / "out")).to_pandas().sort_values("id")
    assert back["id"].tolist() == [1, 2, 3]
    assert back["msg"].tolist() == ["a", "b", "c"]


def test_multi_receiver_union_by_name(ray_session, tmp_path):
    """Receivers whose schemas differ by column set fan in with
    null-fill (schema evolution across file vintages)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    p1 = tmp_path / "v1.parquet"
    p2 = tmp_path / "v2.parquet"
    pq.write_table(pa.table({"id": pa.array([1], pa.int64()),
                             "a": pa.array(["x"])}), str(p1))
    pq.write_table(pa.table({"id": pa.array([2], pa.int64()),
                             "a": pa.array(["y"]),
                             "b": pa.array([9], pa.int64())}), str(p2))
    df = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet/v1": {"paths": str(p1)},
                      "parquet/v2": {"paths": str(p2)}},
        "processors": {},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet/v1", "parquet/v2"],
            "processors": [], "exporters": ["debug"]}}},
    })).to_pandas().sort_values("id")
    assert df["id"].tolist() == [1, 2]
    assert df["b"].fillna(-1).tolist() == [-1, 9]


def test_fifth_session_yaml_processors(ray_session, tmp_path):
    """concurrency / cusum / trend / count_distinct / token_budget as
    YAML processors equal the direct library calls."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    p = tmp_path / "d.parquet"
    pq.write_table(pa.table({
        "k": pa.array(["a", "a", "b", "b"]),
        "i": pa.array([0, 1, 0, 1], pa.int64()),
        "s": pa.array([0, 5, 1, 2], pa.int64()),
        "e": pa.array([10, 8, 4, 6], pa.int64()),
        "v": pa.array([30, 5, 12, 40], pa.int64()),
        "doc_id": pa.array([1, 2, 3, 4], pa.int64())}), str(p))

    def run(proc_name, cfg):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(p)}},
            "processors": {proc_name: cfg},
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": [proc_name],
                "exporters": ["debug"]}}},
        })).to_pandas()

    from opentelemetry_collector_ray.stages.aggregate import (
        grouped_count_distinct)
    from opentelemetry_collector_ray.stages.intervals import (
        concurrency_profile)
    from opentelemetry_collector_ray.stages.metricsops import (
        cusum_scores, grouped_trend)
    from opentelemetry_collector_ray.stages.mixing import (
        select_token_budget)

    def rd():
        return ray.data.read_parquet(str(p))

    pairs = [
        (run("concurrency", {"key": "k", "start_col": "s",
                             "end_col": "e"}),
         concurrency_profile(rd, "k", "s", "e").to_pandas()),
        (run("cusum", {"key": "k", "order_by": ["i"],
                       "value_col": "v", "target": 10}),
         cusum_scores(rd(), "k", ["i"], "v", target=10).to_pandas()),
        (run("trend", {"key": "k", "x_col": "i", "y_col": "v"}),
         grouped_trend(rd(), "k", "i", "v").to_pandas()),
        (run("count_distinct", {"keys": ["k"], "distinct_col": "v"}),
         grouped_count_distinct(rd(), ["k"], "v").to_pandas()),
        (run("token_budget", {"score_col": "v", "token_col": "v",
                              "budget": 70}),
         select_token_budget(rd, "v", "v", 70).to_pandas()),
    ]
    for y, d in pairs:
        assert sorted(map(tuple, y.fillna(-1).values.tolist())) == \
            sorted(map(tuple, d.fillna(-1).values.tolist()))


def test_round5_late_yaml_processors(ray_session, tmp_path):
    """hopping_window / budget_by / dp_release as YAML processors equal
    the direct library calls."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.mixing import select_budget_by
    from opentelemetry_collector_ray.stages.privacy import dp_count_release
    from opentelemetry_collector_ray.stages.resample import (
        hopping_window_agg)

    p = tmp_path / "d.parquet"
    pq.write_table(pa.table({
        "k": pa.array(["a", "a", "b", "b", "b"]),
        "ts": pa.array([5, 19, 7, 23, 31], pa.int64()),
        "v": pa.array([3, 1, 4, 1, 5], pa.int64()),
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64())}), str(p))

    def run(proc_name, cfg):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(p)}},
            "processors": {proc_name: cfg},
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": [proc_name],
                "exporters": ["debug"]}}},
        })).to_pandas()

    def rd():
        return ray.data.read_parquet(str(p))

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    pairs = [
        (run("hopping_window", {"ts_col": "ts", "size_us": 20,
                                "slide_us": 10, "keys": ["k"],
                                "sum_cols": {"v": "v"}}),
         hopping_window_agg(rd(), "ts", size_us=20, slide_us=10,
                            keys=["k"], sum_cols={"v": "v"}).to_pandas()),
        (run("budget_by", {"key": "k", "value_col": "v",
                           "id_col": "doc_id", "budget": 5}),
         select_budget_by(rd(), "k", "v", "doc_id",
                          budget=5).to_pandas()),
        (run("dp_release", {"keys": ["k"], "epsilon": 1.0, "seed": 9}),
         dp_count_release(rd(), ["k"], epsilon=1.0, seed=9).to_pandas()),
    ]
    for built, direct in pairs:
        assert canon(built).equals(canon(direct))

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    with pytest.raises(ConfigError, match="required"):
        get_factory("hopping_window").create({"ts_col": "ts"})
    with pytest.raises(ConfigError, match="required"):
        get_factory("budget_by").create({"key": "k"})
    with pytest.raises(ConfigError, match="required"):
        get_factory("dp_release").create({"keys": ["k"]})


def test_overlap_pairs_yaml_parity(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.intervals import (
        overlap_pair_count)

    p = tmp_path / "iv.parquet"
    tbl = pa.table({"k": pa.array(["a", "a", "b"]),
                    "s": pa.array([0, 5, 0], pa.int64()),
                    "e": pa.array([10, 15, 3], pa.int64())})
    pq.write_table(tbl, str(p))
    built = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(p)}},
        "processors": {"overlap_pairs": {
            "key": "k", "start_col": "s", "end_col": "e"}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "processors": ["overlap_pairs"],
            "exporters": ["debug"]}}},
    })).to_pandas().sort_values("k").reset_index(drop=True)
    direct = overlap_pair_count(
        ray.data.from_arrow(tbl), "k", "s", "e").to_pandas(
        ).sort_values("k").reset_index(drop=True)
    assert built.equals(direct)
    with pytest.raises(ConfigError, match="required"):
        get_factory("overlap_pairs").create({"key": "k"})


def test_gini_yaml_parity(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.corpusstats import grouped_gini

    p = tmp_path / "g.parquet"
    tbl = pa.table({"k": pa.array(["a", "a", "b"]),
                    "v": pa.array([1, 3, 7], pa.int64())})
    pq.write_table(tbl, str(p))
    built = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(p)}},
        "processors": {"gini": {"key": "k", "value_col": "v"}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "processors": ["gini"],
            "exporters": ["debug"]}}},
    })).to_pandas().sort_values("k").reset_index(drop=True)
    direct = grouped_gini(ray.data.from_arrow(tbl), "k", "v"
                          ).to_pandas().sort_values("k"
                                                    ).reset_index(drop=True)
    assert built.equals(direct)
    with pytest.raises(ConfigError, match="required"):
        get_factory("gini").create({"key": "k"})


def test_final_session_yaml_processors(ray_session, tmp_path):
    """scd2 / feature_hash / target_encode / checksum as YAML
    processors equal the direct library calls."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.cdc import scd2_intervals
    from opentelemetry_collector_ray.stages.checksum import table_checksum
    from opentelemetry_collector_ray.stages.encoding import (
        feature_hash, target_encode)

    p = tmp_path / "d.parquet"
    pq.write_table(pa.table({
        "k": pa.array(["a", "a", "a", "b", "b"]),
        "ts": pa.array([1, 2, 3, 1, 2], pa.int64()),
        "id": pa.array([10, 11, 12, 13, 14], pa.int64()),
        "state": pa.array(["x", "x", "y", "z", "z"]),
        "y": pa.array([7, 3, 9, 2, 8], pa.int64()),
        "text": pa.array(["a b", "c", "a a", "b c", "d"])}), str(p))

    def run(proc_name, cfg):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(p)}},
            "processors": {proc_name: cfg},
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": [proc_name],
                "exporters": ["debug"]}}},
        })).to_pandas()

    def rd():
        return ray.data.read_parquet(str(p))

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    pairs = [
        (run("scd2", {"key": "k", "order_col": "ts",
                      "value_cols": ["state"], "tie_break": "id"}),
         scd2_intervals(rd(), "k", "ts", ["state"],
                        tie_break="id").to_pandas()),
        (run("feature_hash", {"id_col": "id", "text_col": "text",
                              "n_buckets": 8, "hash_mode": "md5"}),
         feature_hash(rd(), "id", "text", n_buckets=8,
                      hash_mode="md5").to_pandas()),
        (run("target_encode", {"cat_col": "k", "target_col": "y",
                               "smoothing_m": 2}),
         target_encode(rd(), "k", "y", smoothing_m=2).to_pandas()),
        (run("checksum", {"cols": ["id", "state"], "group_col": "k"}),
         table_checksum(rd(), ["id", "state"],
                        group_col="k").to_pandas()),
    ]
    for built, direct in pairs:
        assert canon(built).equals(canon(direct))

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    with pytest.raises(ConfigError, match="required"):
        get_factory("scd2").create({"key": "k"})
    with pytest.raises(ConfigError, match="required"):
        get_factory("feature_hash").create({"id_col": "id"})
    with pytest.raises(ConfigError, match="required"):
        get_factory("target_encode").create({"cat_col": "k"})
    with pytest.raises(ConfigError, match="required"):
        get_factory("checksum").create({})


def test_weighted_median_yaml_parity(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_weighted_median)

    p = tmp_path / "d.parquet"
    pq.write_table(pa.table({
        "k": pa.array(["a", "a", "b"]),
        "v": pa.array([1, 3, 9], pa.int64()),
        "w": pa.array([1, 2, 5], pa.int64())}), str(p))
    built = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(p)}},
        "processors": {"weighted_median": {
            "key": "k", "value_col": "v", "weight_col": "w"}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": ["weighted_median"],
            "exporters": ["debug"]}}},
    })).to_pandas().sort_values("k").reset_index(drop=True)
    direct = grouped_weighted_median(
        ray.data.read_parquet(str(p)), "k", "v", "w"
        ).to_pandas().sort_values("k").reset_index(drop=True)
    assert built.equals(direct)

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    with pytest.raises(ConfigError, match="required"):
        get_factory("weighted_median").create({"key": "k"})


def test_cont_quantiles_and_extract_explode_yaml_parity(
        ray_session, tmp_path):
    """YAML cont_quantiles / extract_explode == direct stage calls."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.config import PipelineConfig
    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.parse import extract_all_explode
    from opentelemetry_collector_ray.stages.spanops import (
        grouped_cont_quantiles)

    rng = np.random.default_rng(9)
    tbl = pa.table({
        "k": pa.array(rng.integers(0, 7, 300).astype("str")),
        "v": pa.array(rng.integers(0, 900, 300)),
        "text": pa.array(
            [" ".join(rng.choice(
                ["aaaaaa", "bb", "cccccc", "dddddd"], 4))
             for _ in range(300)]),
    })
    p = tmp_path / "t.parquet"
    pq.write_table(tbl, str(p))

    def run(proc_name, proc_cfg):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(p)}},
            "processors": {proc_name: proc_cfg},
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": [proc_name],
                "exporters": ["debug"]}}},
        })).to_pandas()

    y = run("cont_quantiles", {"key": "k", "value": "v",
                               "qs": [[1, 2], [9, 10]]}) \
        .sort_values("k").reset_index(drop=True)
    d = grouped_cont_quantiles(
        ray.data.read_parquet(str(p)), "k", "v",
        qs=((1, 2), (9, 10))).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert y.equals(d)

    y = run("extract_explode", {"pattern": "[a-z]{6,}", "keep": ["k"],
                                "out": "tok"}) \
        .sort_values(["k", "tok"]).reset_index(drop=True)
    d = extract_all_explode(
        ray.data.read_parquet(str(p)), "text", "[a-z]{6,}",
        keep=["k"], out="tok").to_pandas() \
        .sort_values(["k", "tok"]).reset_index(drop=True)
    assert y.equals(d)


def test_chi2_drift_yaml_parity(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.normalize import chi2_two_sample

    p = tmp_path / "d.parquet"
    pq.write_table(pa.table({
        "g": pa.array(["a"] * 30 + ["b"] * 30),
        "c": pa.array(["x"] * 10 + ["y"] * 20 + ["x"] * 30)}), str(p))
    built = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(p)}},
        "processors": {"chi2_drift": {
            "group_col": "g", "cell_col": "c",
            "group_a": "a", "group_b": "b"}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": ["chi2_drift"],
            "exporters": ["debug"]}}},
    })).to_pandas().sort_values("c").reset_index(drop=True)
    direct = chi2_two_sample(
        ray.data.read_parquet(str(p)), "g", "c", "a", "b"
        ).to_pandas().sort_values("c").reset_index(drop=True)
    assert built.equals(direct)

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    with pytest.raises(ConfigError, match="required"):
        get_factory("chi2_drift").create({"group_col": "g"})


def test_rolling_distinct_yaml_parity(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.intervals import (
        rolling_distinct_count)

    p = tmp_path / "d.parquet"
    pq.write_table(pa.table({
        "u": pa.array(["u1", "u1", "u1", "u2"]),
        "d": pa.array([1, 3, 10, 3], pa.int64())}), str(p))
    built = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(p)}},
        "processors": {"rolling_distinct": {
            "entity_col": "u", "time_col": "d", "window": 3}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": ["rolling_distinct"],
            "exporters": ["debug"]}}},
    })).to_pandas().sort_values("t").reset_index(drop=True)
    direct = rolling_distinct_count(
        ray.data.read_parquet(str(p)), "u", "d", 3
        ).to_pandas().sort_values("t").reset_index(drop=True)
    assert built.equals(direct)

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    with pytest.raises(ConfigError, match="required"):
        get_factory("rolling_distinct").create({"entity_col": "u"})


def test_apdex_head_sample_delta_rate_yaml(ray_session, tmp_path):
    """YAML parity for the sixth-session span/metric components."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data

    from opentelemetry_collector_ray.config import PipelineConfig
    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.spanops import (
        apdex, head_sample)
    from opentelemetry_collector_ray.stages.temporal import delta_to_rate

    def run(proc_name, cfg, path):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(path)}},
            "processors": {proc_name: cfg},
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": [proc_name],
                "exporters": ["debug"]}}},
        })).to_pandas()

    spans = pa.Table.from_pylist(
        [{"service": "a", "trace_id": f"t{i}", "duration_us": d}
         for i, d in enumerate([50, 150, 500, 90])])
    p1 = tmp_path / "s.parquet"
    pq.write_table(spans, str(p1))
    y = run("apdex", {"t_us": 100}, p1)
    want = apdex(ray.data.read_parquet(str(p1)), 100).to_pandas()
    pd.testing.assert_frame_equal(y, want, check_dtype=False)

    y2 = run("head_sample", {"permille": 500}, p1).sort_values(
        "trace_id").reset_index(drop=True)
    want2 = head_sample(ray.data.read_parquet(str(p1)), 500) \
        .to_pandas().sort_values("trace_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(y2, want2, check_dtype=False)

    deltas = pa.Table.from_pylist(
        [{"k": "a", "t": i, "v": v}
         for i, v in enumerate([5, 10, 3])])
    p2 = tmp_path / "d.parquet"
    pq.write_table(deltas, str(p2))
    y3 = run("delta_to_rate",
             {"key": "k", "order_by": "t", "value": "v", "ts": "t",
              "scale": 10}, p2).sort_values("t").reset_index(drop=True)
    want3 = delta_to_rate(ray.data.read_parquet(str(p2)), "k", "t",
                          "v", "t", scale=10).to_pandas() \
        .sort_values("t").reset_index(drop=True)
    pd.testing.assert_frame_equal(y3, want3, check_dtype=False)


def test_heavy_hitters_yaml_parity(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import build_dataset
    from opentelemetry_collector_ray.stages.sketch import heavy_hitters

    p = tmp_path / "h.parquet"
    pq.write_table(pa.table({
        "v": pa.array(["hot"] * 40 + ["warm"] * 20
                      + [f"t{i}" for i in range(40)])}), str(p))
    built = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(p)}},
        "processors": {"heavy_hitters": {"col": "v", "k": 4,
                                         "capacity": 8}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": ["heavy_hitters"],
            "exporters": ["debug"]}}},
    })).to_pandas().sort_values("v").reset_index(drop=True)
    direct = heavy_hitters(
        lambda: ray.data.read_parquet(str(p)), "v", 4, capacity=8
        ).to_pandas().sort_values("v").reset_index(drop=True)
    assert built.equals(direct)
    # n=100, threshold 25: only "hot" (40)
    assert built.v.tolist() == ["hot"]

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    with pytest.raises(ConfigError, match="required"):
        get_factory("heavy_hitters").create({"col": "v"})


def test_ninth_session_yaml_processors(ray_session, tmp_path):
    """Builder parity for the ninth-session components: apportion,
    ohlc, l_diversity, hist_quantile, sentence_stats, grid_densify."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    p = tmp_path / "g.parquet"
    pq.write_table(pa.table({
        "k": pa.array(["a", "a", "a", "b", "b", "c"]),
        "c2": pa.array(["x", "y", "x", "x", "x", "y"]),
        "o": pa.array([3, 1, 2, 5, 4, 9], pa.int64()),
        "v": pa.array([30, 10, 20, 50, 40, 90], pa.int64())}), str(p))

    def run(proc_name, proc_cfg):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(p)}},
            "processors": {proc_name: proc_cfg},
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"],
                "processors": [proc_name],
                "exporters": ["debug"]}}},
        })).to_pandas()

    ap = run("apportion", {"keys": ["k"], "seats": 6}) \
        .set_index("k")["seats"]
    assert ap.sum() == 6 and ap["a"] == 3

    oh = run("ohlc", {"keys": ["k"], "order_by": ["o"], "value": "v"}) \
        .set_index("k")
    assert oh.loc["a", "open"] == 10 and oh.loc["a", "close"] == 30
    assert oh.loc["b", "low"] == 40 and oh.loc["b", "high"] == 50

    ld = run("l_diversity", {"quasi": ["k"], "sensitive": "c2", "l": 2}) \
        .set_index("k")
    assert ld.loc["a", "n_sensitive"] == 2 and ld.loc["a", "is_diverse"] == 1
    assert ld.loc["b", "is_diverse"] == 0

    hq = run("hist_quantile", {"keys": ["k"], "value": "v",
                               "bounds": [25, 100], "q_permille": 500})
    assert set(hq.columns) == {"k", "n_total", "q_permille"}

    gd = run("grid_densify", {"row": "k", "col": "c2"})
    assert len(gd) == 6 and (gd["n"] == 0).sum() == 2  # b×y, c×x absent

    p2 = tmp_path / "t.parquet"
    pq.write_table(pa.table({"text": ["one. two", "three"]}), str(p2))
    ss = build_dataset(PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": str(p2)}},
        "processors": {"sentence_stats": {"column": "text"}},
        "exporters": {"debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"],
            "processors": ["sentence_stats"],
            "exporters": ["debug"]}}},
    })).to_pandas()
    assert ss["n_sents"].tolist() == [2, 1]

    for name, bad in [("apportion", {"keys": ["k"]}),
                      ("ohlc", {"keys": ["k"], "order_by": ["o"]}),
                      ("l_diversity", {"quasi": ["k"], "l": 2}),
                      ("hist_quantile", {"keys": ["k"], "value": "v"}),
                      ("sentence_stats", {}),
                      ("grid_densify", {"row": "k"})]:
        with pytest.raises(ConfigError, match="required"):
            get_factory(name).create(bad)


def test_ops_dashboard_example_yaml(ray_session, tmp_path, monkeypatch):
    """examples/ops_dashboard.yaml end to end: parquet receiver → daily
    OHLC candles per series."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    rows = [{"day": "2024-01-01", "series": "cpu", "ts_us": i,
             "sample_id": i, "value_scaled": v}
            for i, v in enumerate([40, 90, 10, 70])]
    p = tmp_path / "s.parquet"
    pq.write_table(pa.Table.from_pylist(rows), str(p))
    monkeypatch.setenv("SAMPLES_PATH", str(p))
    from pathlib import Path

    yml = Path(__file__).resolve().parent.parent / "examples" \
        / "ops_dashboard.yaml"
    out = build_dataset(PipelineConfig.from_yaml(str(yml))).to_pandas()
    row = out.iloc[0]
    assert (row["open"], row["high"], row["low"], row["close"],
            row["n"]) == (40, 90, 10, 70, 4)


def test_format_sinks_roundtrip(ray_session, tmp_path):
    """csv_sink / orc_sink / prom_sink exporters invert through their
    matching receivers/readers."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentelemetry_collector_ray.pipelines.builder import (
        build_dataset, run_exporters)
    from opentelemetry_collector_ray.sources.orcfile import read_orc
    from opentelemetry_collector_ray.sources.textlog import (
        prom_label, read_prom_text)

    p = tmp_path / "in.parquet"
    pq.write_table(pa.table({
        "metric": ["m", "m", "m"],
        "labels": ['k="a"', 'k="b"', ""],
        "value": pa.array([5, 7, 9], pa.int64()),
        "ts_ms": pa.array([100, None, 300], pa.int64())}), str(p))

    def run(sink, scfg):
        cfg = PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(p)}},
            "processors": {},
            "exporters": {sink: scfg},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"], "processors": [],
                "exporters": [sink]}}},
        })
        return run_exporters(cfg, build_dataset(cfg), str(tmp_path))

    run("csv_sink", {"path": "csvout"})
    back = ray.data.read_csv(
        str(tmp_path / "csvout")).to_pandas().sort_values("value")
    assert back["value"].tolist() == [5, 7, 9]

    counts = run("orc_sink", {"path": "orcout"})
    assert counts["orc_sink"] == 3
    files = [str(tmp_path / "orcout" / f)
             for f in sorted(os.listdir(tmp_path / "orcout"))]
    oback = read_orc(files).to_pandas().sort_values("value")
    assert oback["metric"].tolist() == ["m", "m", "m"]

    counts = run("prom_sink", {"path": "promout", "help": "m doc"})
    assert counts["prom_sink"] == 3
    pfiles = [str(tmp_path / "promout" / f)
              for f in sorted(os.listdir(tmp_path / "promout"))]
    pb = read_prom_text(pfiles).to_pandas().sort_values("value")
    assert pb["value"].tolist() == ["5", "7", "9"]
    assert pb["ts_ms"].tolist() == [100.0, None, 300.0] or \
        [x if x == x else None for x in pb["ts_ms"].tolist()] \
        == [100, None, 300]
    labs = prom_label(pa.array(pb["labels"].tolist()), "k")
    assert labs.to_pylist() == ["a", "b", None]


def test_privacy_release_example_yaml(ray_session, tmp_path,
                                      monkeypatch):
    """examples/privacy_release.yaml end to end: k-anonymity
    suppression chained into the l-diversity audit."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    rows = (
        # group (111, a): 4 members, 2 diagnoses → survives, diverse
        [{"zip3": "111", "age_band": "a", "diagnosis": d}
         for d in ["flu", "flu", "cold", "flu"]]
        # group (222, b): 3 members, ONE diagnosis → survives k, fails l
        + [{"zip3": "222", "age_band": "b", "diagnosis": "flu"}] * 3
        # group (333, c): 2 members → suppressed by k=3
        + [{"zip3": "333", "age_band": "c", "diagnosis": "cold"}] * 2)
    p = tmp_path / "r.parquet"
    pq.write_table(pa.Table.from_pylist(rows), str(p))
    monkeypatch.setenv("RELEASE_PATH", str(p))
    from pathlib import Path

    yml = Path(__file__).resolve().parent.parent / "examples" \
        / "privacy_release.yaml"
    out = build_dataset(PipelineConfig.from_yaml(str(yml))) \
        .to_pandas().set_index("zip3").sort_index()
    assert "333" not in out.index          # suppressed by k
    assert out.loc["111", "is_diverse"] == 1
    assert out.loc["222", "is_diverse"] == 0
    assert out.loc["111", "n_sensitive"] == 2


def test_tenth_batch_yaml_processors(ray_session, tmp_path):
    """Builder parity for decayed_count / quota_sample / moments."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.config import ConfigError, get_factory
    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    anchor = int(datetime.datetime(2024, 1, 31).timestamp() * 1e6)
    p = tmp_path / "t.parquet"
    pq.write_table(pa.table({
        "k": ["a", "a", "b", "b", "b", "b"],
        "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "x": pa.array([3, -4, 5, 0, 2, 1], pa.int64()),
        "ts": pa.array([datetime.datetime(2024, 1, 30)] * 6,
                       pa.timestamp("us"))}), str(p))

    def run(proc_name, proc_cfg):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {"parquet": {"paths": str(p)}},
            "processors": {proc_name: proc_cfg},
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": ["parquet"],
                "processors": [proc_name],
                "exporters": ["debug"]}}},
        })).to_pandas()

    dc = run("decayed_count", {"keys": ["k"], "ts": "ts",
                               "anchor_us": anchor}) \
        .set_index("k").sort_index()
    assert dc.loc["a", "decayed"] == 2 * 2**30

    qs = run("quota_sample", {"key": "k", "seats": 3, "id": "id"})
    assert len(qs) == 3 and (qs["k"] == "b").sum() == 2

    mo = run("moments", {"keys": ["k"], "value": "x"}) \
        .set_index("k").sort_index()
    assert mo.loc["a", "sum_x2"] == 25 and mo.loc["a", "sum_x3"] == -37

    for name, bad in [("decayed_count", {"keys": ["k"], "ts": "ts"}),
                      ("quota_sample", {"key": "k", "seats": 3}),
                      ("moments", {"keys": ["k"]})]:
        with pytest.raises(ConfigError, match="required"):
            get_factory(name).create(bad)
