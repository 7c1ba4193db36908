"""Derived YAML components: each row of ``config.STAGES``,
``config.RECEIVERS`` and ``config.EXPORTERS`` binds its YAML fields to its
function's signature. Required fields, defaults, type coercion,
unknown-key rejection and lazy module import are checked here without
starting Ray."""

from __future__ import annotations

import functools
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from opentelemetry_collector_ray import config
from opentelemetry_collector_ray.config import (
    EXPORTERS, RECEIVERS, STAGES, ConfigError, DatasetTransform, expand_env,
    get_factory, resolve)

_SAMPLE = {"int": 7, "float": 0.5, "str": "s", "list[str]": ["a"],
           "dict[str, float]": {"a": 0.5}, "dict[str, int]": {"a": 1},
           "dict[str, tuple]": {"a": ["not_null", "x"]},
           "tuple[tuple[int, int], ...]": [[1, 2]]}


def _fields(name: str, table=STAGES) -> dict[str, inspect.Parameter]:
    """YAML key → the parameter of the row's function it binds to."""
    target, spec = table[name]
    _, params = config._stage(target, table.package)
    by_name = {p.name: p for p in params[table.lead:]}
    out = {}
    for key, _, param in (f.partition("=") for f in spec.split()):
        assert (param or key) in by_name, \
            f"{name}: field {key!r} names no parameter of {target}"
        out[key] = by_name[param or key]
    return out


def _base_type(p: inspect.Parameter) -> str:
    return config._base_type(p.annotation)


def _required_cfg(name: str) -> dict:
    return {key: _SAMPLE.get(_base_type(p), "x")
            for key, p in _fields(name).items() if p.default is p.empty}


@pytest.mark.parametrize("name", sorted(STAGES))
def test_every_required_parameter_is_a_field(name):
    _, params = config._stage(STAGES[name][0])
    bound = {p.name for p in _fields(name).values()}
    unbound = [p.name for p in params[1:]
               if p.default is p.empty and p.kind != p.VAR_KEYWORD
               and p.name not in bound]
    assert not unbound


@pytest.mark.parametrize("name", sorted(STAGES))
def test_required_fields(name):
    cfg = _required_cfg(name)
    resolve(name, cfg)
    for key in cfg:
        pattern = rf"{name}: .*\b{re.escape(key)}\b"
        rest = {k: v for k, v in cfg.items() if k != key}
        with pytest.raises(ConfigError, match=pattern):
            resolve(name, rest)
        for empty in (None, "", []):
            with pytest.raises(ConfigError, match=pattern):
                resolve(name, {**rest, key: empty})


@pytest.mark.parametrize("name", sorted(STAGES))
def test_defaults_are_the_signature_defaults(name):
    _, kwargs = resolve(name, _required_cfg(name))
    for p in _fields(name).values():
        if p.default is not p.empty:
            assert kwargs[p.name] == p.default, p.name


_INT_ROWS = sorted(n for n in STAGES
                   if any(_base_type(p) == "int"
                          for p in _fields(n).values()))


@pytest.mark.parametrize("name", _INT_ROWS)
def test_env_string_for_int_field_arrives_as_int(name, monkeypatch):
    monkeypatch.setenv("GRAFT_DERIVE_INT", "11")
    fields = _fields(name)
    ints = [k for k, p in fields.items() if _base_type(p) == "int"]
    cfg = expand_env({**_required_cfg(name),
                      **{k: "${env:GRAFT_DERIVE_INT}" for k in ints}})
    _, kwargs = resolve(name, cfg)
    for k in ints:
        v = kwargs[fields[k].name]
        assert type(v) is int and v == 11, k


def test_bare_string_becomes_one_element_list():
    _, kwargs = resolve("tail_budget", {"key": "k", "order_by": "ts",
                                        "weight": "w", "budget": 3})
    assert kwargs["order_by"] == ["ts"]


# the hand-written processors: each with the fields it needs to build
_HAND_CFG = {
    "parse": {}, "enrich": {}, "route": {}, "repetition": {},
    "time_bucket": {}, "redact": {}, "pca": {}, "log_templates": {},
    "filter": {"include": {"column": "c", "strict": ["a"]}},
    "score": {"weights": {"w": 1}},
    "extract_explode": {"pattern": "a+"},
    "hist_quantile": {"keys": ["k"], "value": "v", "bounds": [1, 2],
                      "q_permille": 500},
    "sentence_stats": {"column": "text"},
    "ks_drift": {"group_col": "g", "value_col": "v", "group_a": "a",
                 "group_b": "b"},
    "k_anonymize": {"quasi": ["q"], "k": 2},
    "transform": {"statements": ['set(attrs["a"], "b")']},
    "agg_delta": {"keys": ["k"], "base_path": "view.parquet"},
}


def test_hand_written_processors_are_the_rest_of_the_registry():
    assert sorted(config._REGISTRY) == sorted([*STAGES, *_HAND_CFG])


@pytest.mark.parametrize("name, typo", [
    ("count_agg", "stratgy"), ("log_dedup", "n_bucket"),
    ("global_sort", "key"), ("window", "n_bucket"),
    ("cont_quantiles", "value_col"), ("rater_kappa", "group_key"),
    ("parse", "rule"), ("enrich", "tool_col"), ("route", "default"),
    ("filter", "includes"), ("redact", "rule"), ("score", "weight"),
    ("time_bucket", "col"), ("extract_explode", "keep_cols"),
    ("hist_quantile", "bound"), ("sentence_stats", "text_col"),
    ("ks_drift", "n_bucket"), ("k_anonymize", "sensitive_col"),
    ("transform", "statement"), ("log_templates", "text_col"),
    ("repetition", "out_col"), ("agg_delta", "sum_col"),
    ("pca", "n_component")])
def test_planted_typo_is_rejected(name, typo):
    base = _HAND_CFG[name] if name in _HAND_CFG else _required_cfg(name)
    cfg = {**base, typo: 8}
    with pytest.raises(ConfigError, match=rf"{name}: unknown .*'{typo}'"):
        get_factory(name).create(cfg)


@pytest.mark.parametrize("name", sorted(_HAND_CFG))
def test_hand_written_accepts_its_fields_and_builder_keys(name):
    cfg = {**_HAND_CFG[name], "batch_size": 4096, "concurrency": 2}
    assert callable(get_factory(name).create(cfg))


@pytest.mark.parametrize("name, key, bad", [
    ("split", "fractions", ["train"]), ("mix", "weights", {"en": "x"}),
    ("cont_quantiles", "qs", [0.5, 0.9]),
    ("weighted_quantiles", "qs", [[1, "x"]]),
    # a list or mapping for a ``str`` field, not its Python repr
    ("split", "key", ["a", "b"]), ("count_agg", "count_name", ["n"]),
    ("count_agg", "count_name", {"n": 1})])
def test_bad_shape_names_component_and_key(name, key, bad):
    cfg = {**_required_cfg(name), key: bad}
    with pytest.raises(ConfigError, match=rf"{name}: {key}="):
        resolve(name, cfg)


def test_table_and_frame_results_become_datasets(monkeypatch):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from opentelemetry_collector_ray.stages import clustering, profile

    monkeypatch.setattr(profile, "profile_table",
                        lambda ds, columns: pa.table({"column": columns}))
    monkeypatch.setattr(clustering, "semantic_dedup", functools.wraps(
        clustering.semantic_dedup)(
            lambda make_ds, **kw: pd.DataFrame({"vec_id": []})))
    froms = []
    monkeypatch.setattr(ray.data, "from_arrow",
                        lambda t: froms.append(("arrow", t.num_rows)))
    monkeypatch.setattr(ray.data, "from_pandas",
                        lambda f: froms.append(("pandas", len(f))))
    get_factory("profile").create({"columns": ["x", "y"]})(object())
    get_factory("semdedup").create({})(object())
    assert froms == [("arrow", 2), ("pandas", 0)]


@pytest.mark.parametrize("name", sorted(STAGES))
def test_builder_keys_accepted(name):
    cfg = {**_required_cfg(name), "batch_size": 4096, "concurrency": 2}
    assert isinstance(get_factory(name).create(cfg), DatasetTransform)


def test_thunk_or_dataset_follows_first_parameter(monkeypatch):
    from opentelemetry_collector_ray.stages import corpusstats, skyline

    def fake_skyline(make_ds, x_col, y_col, persist="none"):
        return make_ds()

    def fake_gini(ds, key, value_col):
        return ds

    monkeypatch.setattr(skyline, "skyline_2d", fake_skyline)
    monkeypatch.setattr(corpusstats, "grouped_gini", fake_gini)
    marker = object()
    assert get_factory("skyline").create(
        {"x_col": "x", "y_col": "y"})(marker) is marker
    assert get_factory("gini").create(
        {"key": "k", "value_col": "v"})(marker) is marker


def test_config_import_loads_no_derived_stage_module():
    code = ("import sys, opentelemetry_collector_ray.config; "
            "print(sorted(m.rsplit('.', 1)[1] for m in sys.modules "
            "if m.startswith('opentelemetry_collector_ray.stages.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['enrich', 'filterstage', 'parse', 'route']"


# ------------------------------------------------ receivers and exporters

_IO = {"receivers": RECEIVERS, "exporters": EXPORTERS}
_IO_ROWS = [(role, name) for role, table in _IO.items()
            for name in sorted(table)]


@pytest.mark.parametrize("role, name", _IO_ROWS)
def test_io_required_parameters_are_fields(role, name):
    table = _IO[role]
    _, params = config._stage(table[name][0], table.package)
    assert params[0].name in (("paths", "events") if role == "receivers"
                              else ("ds",))
    bound = {p.name for p in _fields(name, table).values()}
    unbound = [p.name for p in params[table.lead:]
               if p.default is p.empty
               and p.kind not in (p.VAR_KEYWORD, p.VAR_POSITIONAL)
               and p.name not in bound]
    assert not unbound


@pytest.mark.parametrize("role, name", _IO_ROWS)
def test_io_planted_typo_names_component_and_key(role, name):
    table = _IO[role]
    cfg = {k: "x" for k, p in _fields(name, table).items()
           if p.default is p.empty}
    resolve(name, cfg, table)
    with pytest.raises(ConfigError, match=rf"{name}: unknown .*'compresion'"):
        resolve(name, {**cfg, "compresion": "gzip"}, table)


def test_io_builder_keys():
    resolve("parquet", {"paths": "a", "columns": ["x"]}, RECEIVERS)
    resolve("turns", {"paths": "a", "columns": ["x"]}, RECEIVERS)
    resolve("otlp_proto", {"path": "p", "compression": "gzip"}, EXPORTERS)
    with pytest.raises(ConfigError, match=r"jsonl: unknown .*'columns'"):
        resolve("jsonl", {"paths": "a", "columns": ["x"]}, RECEIVERS)
    with pytest.raises(ConfigError, match=r"ipc_sink: unknown .*'paths'"):
        resolve("ipc_sink", {"paths": "a"}, EXPORTERS)


def test_io_defaults_of_today():
    def kwargs(name, table, cfg=None):
        return resolve(name, cfg or {}, table)[1]

    assert kwargs("promtext", RECEIVERS) == {"strict": True}
    assert kwargs("multiline", RECEIVERS,
                  {"start_pattern": "^S"})["joiner"] == "\n"
    assert kwargs("parquet", RECEIVERS) == {"columns": None}
    assert kwargs("jsonl", RECEIVERS) == {"schema": None}
    for name in ("otlp_json", "otlp_json_spans", "otlp_proto",
                 "otlp_proto_spans", "otlp_proto_metrics", "ipc_sink"):
        assert kwargs(name, EXPORTERS)["compression"] == "none", name
    assert kwargs("otlp_proto", EXPORTERS)["max_request_bytes"] is None
    assert kwargs("prom_sink", EXPORTERS) == {
        "metric_col": "metric", "labels_col": "labels",
        "value_col": "value", "ts_col": "ts_ms", "help_text": None}
    assert kwargs("prom_sink", EXPORTERS,
                  {"help": "h"})["help_text"] == "h"
    with pytest.raises(ConfigError, match="multiline: .*start_pattern"):
        resolve("multiline", {"paths": "a"}, RECEIVERS)


def test_schema_mapping_becomes_pinned_schema():
    import pyarrow as pa

    _, kwargs = resolve("ipc", {"schema": {"a": "int64", "t": "timestamp_us",
                                           "s": "string"}}, RECEIVERS)
    assert kwargs["schema"] == pa.schema([("a", pa.int64()),
                                          ("t", pa.timestamp("us")),
                                          ("s", pa.string())])
    assert resolve("jsonl", {"schema": {}}, RECEIVERS)[1]["schema"] is None
    with pytest.raises(ConfigError,
                       match=r"jsonl: .*unknown type 'int65' for column 'b'"):
        resolve("jsonl", {"schema": {"a": "int64", "b": "int65"}}, RECEIVERS)


def _pipeline(receiver: dict, exporter: dict, rtype="parquet",
              etype="debug") -> "config.PipelineConfig":
    return config.PipelineConfig.from_dict({
        "receivers": {rtype: receiver}, "exporters": {etype: exporter},
        "service": {"pipelines": {"logs": {
            "receivers": [rtype], "exporters": [etype]}}}})


def test_receiver_without_paths_is_a_config_error(tmp_path):
    from opentelemetry_collector_ray.pipelines.builder import (
        build_dataset, run_pipeline)

    cfg = _pipeline({"columns": ["text"]}, {})
    with pytest.raises(ConfigError, match="receiver 'parquet': paths"):
        build_dataset(cfg)
    with pytest.raises(ConfigError, match="receiver 'parquet': paths"):
        run_pipeline(cfg, str(tmp_path / "out"))


def test_receiver_matching_no_input_is_a_config_error(tmp_path):
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline

    src = tmp_path / "logs"
    src.mkdir()
    (src / "x.jsonl").write_text('{"a": 1}\n')
    cfg = _pipeline({"paths": str(src)}, {}, rtype="jsonl")
    with pytest.raises(ConfigError,
                       match=rf"receiver 'jsonl': no input .*{src.name}"):
        run_pipeline(cfg, str(tmp_path / "out"))


def test_non_parquet_receiver_is_refused_before_ray(tmp_path):
    """run_pipeline reads parquet fragments: a jsonl receiver whose paths
    match a file is a ConfigError naming it, raised before any read."""
    from opentelemetry_collector_ray.pipelines.builder import run_pipeline

    src = tmp_path / "logs"
    src.mkdir()
    (src / "x.jsonl").write_text('{"a": 1}\n')
    cfg = _pipeline({"paths": str(src / "x.jsonl")}, {}, rtype="jsonl")
    with pytest.raises(ConfigError,
                       match=r"receiver 'jsonl': run_pipeline reads parquet"):
        run_pipeline(cfg, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_absolute_sink_path_is_refused_before_ray(tmp_path):
    """run_pipeline writes each fragment under its own partition dir; a
    parquet_sink with an absolute path would put every fragment in one
    directory, so it is a ConfigError naming the exporter and the path,
    raised before any read."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentelemetry_collector_ray.pipelines.builder import run_pipeline

    for i in range(2):
        pq.write_table(pa.table({"text": ["x"]}), tmp_path / f"f{i}.parquet")
    sink = str(tmp_path / "sinks")
    cfg = _pipeline({"paths": str(tmp_path / "*.parquet")}, {"path": sink},
                    etype="parquet_sink/routed")
    with pytest.raises(ConfigError,
                       match=rf"exporter 'parquet_sink/routed': path "
                             rf"'{re.escape(sink)}' is absolute"):
        run_pipeline(cfg, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "sinks").exists()


@pytest.mark.parametrize("etype, ecfg, key", [
    ("parquet_sink/routed", {"path": "s", "partition_by_rout": False},
     "partition_by_rout"),
    ("debug", {"verbose": "detailed"}, "verbose")])
def test_builder_exporter_typo_is_a_config_error(etype, ecfg, key):
    with pytest.raises(ConfigError, match=rf"{etype}: unknown .*'{key}'"):
        _pipeline({"paths": "a"}, ecfg, etype=etype)
    _pipeline({"paths": "a"}, {k: v for k, v in ecfg.items() if k != key},
              etype=etype)


def test_exporter_typo_fails_before_the_plan_runs(tmp_path):
    from opentelemetry_collector_ray.pipelines.builder import run_exporters

    cfg = _pipeline({"paths": "a"}, {"compresion": "gzip"},
                    etype="otlp_proto")
    with pytest.raises(ConfigError, match=r"otlp_proto: unknown .*compresion"):
        run_exporters(cfg, None, str(tmp_path))


def test_exporter_row_gets_its_target_and_fields(tmp_path, monkeypatch):
    """A derived exporter is called as fn(ds, <out_root>/<path>, **fields);
    debug keeps verbosity="basic"."""
    from opentelemetry_collector_ray.pipelines import builder
    from opentelemetry_collector_ray.sources import textlog

    calls = []

    @functools.wraps(textlog.write_prom_text)  # keeps the signature
    def fake_write(ds, out_dir, **kw):
        calls.append((ds, out_dir, kw))
        return 3

    monkeypatch.setattr(textlog, "write_prom_text", fake_write)
    monkeypatch.setattr(builder, "DebugSink", lambda verbosity: type(
        "Sink", (), {"consume": lambda self, ds: verbosity})())
    cfg = config.PipelineConfig.from_dict({
        "receivers": {"parquet": {"paths": "a"}},
        "exporters": {"prom_sink/p": {"help": "h"}, "debug": {}},
        "service": {"pipelines": {"logs": {
            "receivers": ["parquet"], "exporters": ["prom_sink/p", "debug"]}}}})
    marker = type("Ds", (), {"materialize": lambda self: self})()
    counts = builder.run_exporters(cfg, marker, str(tmp_path))
    assert counts == {"prom_sink/p": 3, "debug": "basic"}
    (ds, out_dir, kw), = calls
    assert ds is marker and out_dir == str(tmp_path / "prom_sink_p")
    assert kw["help_text"] == "h" and kw["ts_col"] == "ts_ms"


@pytest.mark.parametrize("yml", sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.yaml")),
    ids=lambda p: p.name)
def test_example_receivers_and_exporters_resolve(yml):
    cfg = config.PipelineConfig.from_yaml(str(yml))
    for name in cfg.pipeline["receivers"]:
        resolve(name.split("/")[0], cfg.receivers[name], RECEIVERS)
    for name in cfg.pipeline["exporters"]:
        if name.split("/")[0] in EXPORTERS:
            resolve(name.split("/")[0], cfg.exporters[name], EXPORTERS)


def test_config_import_loads_no_source_module():
    code = ("import sys, opentelemetry_collector_ray.config; "
            "print([m for m in sys.modules "
            "if m.startswith('opentelemetry_collector_ray.sources')])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
