"""Derived YAML processors: each row of ``config.STAGES`` binds its YAML
fields to its stage function's signature. Required fields, defaults, type
coercion, unknown-key rejection and lazy stage import are checked here
without starting Ray."""

from __future__ import annotations

import inspect
import re
import subprocess
import sys

import pytest

from opentelemetry_collector_ray import config
from opentelemetry_collector_ray.config import (
    STAGES, ConfigError, DatasetTransform, expand_env, get_factory, resolve)

_SAMPLE = {"int": 7, "float": 0.5, "str": "s", "list[str]": ["a"]}


def _fields(name: str) -> dict[str, inspect.Parameter]:
    """YAML key → the stage parameter it binds to."""
    target, spec = STAGES[name]
    _, params = config._stage(target)
    by_name = {p.name: p for p in params[1:]}
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


@pytest.mark.parametrize("name, typo", [("count_agg", "stratgy"),
                                        ("log_dedup", "n_bucket"),
                                        ("global_sort", "key")])
def test_planted_typo_is_rejected(name, typo):
    cfg = {**_required_cfg(name), typo: 8}
    with pytest.raises(ConfigError, match=rf"{name}: unknown .*'{typo}'"):
        get_factory(name).create(cfg)


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
