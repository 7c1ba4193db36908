"""Pipeline configuration — the confmap/otelcol analog.

The reference resolves YAML from URI providers with ``${scheme:uri}``
expansion (``/root/reference/confmap/expand.go:19-23,110-194``), merges
sources (``confmap/resolver.go:88-164``), validates
(``confmap/validation.go``), and builds a graph of components from
factories keyed by ``component.ID`` (``service/internal/graph/
graph.go:101-206``; factories ``component/component.go:182-200``).

Here: YAML (or dict) config with ``${env:NAME}`` / ``${env:NAME:-default}``
interpolation, a factory registry mapping type names → stage builders,
the receiver and exporter tables (every processor that is one call of one
stage function, and every receiver and exporter but ``parquet_sink`` and
``debug``, derived from their function's signature; the 17 hand-written
processors name the keys they read), and a validated Pipeline spec with
the collector's section names retained (receivers / processors /
exporters / connectors). Every component rejects a key it does not read.
"""

from __future__ import annotations

import importlib
import inspect
import os
import re
from dataclasses import dataclass
from typing import Any, Callable

_URI_RE = re.compile(r"\$\{(env|file|yaml|https?):([^}]*)\}")


class ConfigError(ValueError):
    pass


# --------------------------------------------------------- confmap providers

def _provide_env(uri: str) -> Any:
    name, sep, default = uri.partition(":-")
    val = os.environ.get(name, default if sep else None)
    if val is None:
        raise ConfigError(f"environment variable {name} not set "
                          "and no default given")
    return val


def _provide_file(uri: str) -> Any:
    """file: provider (``confmap/provider/fileprovider``): the file's
    contents parsed as YAML (a scalar file body stays a scalar)."""
    import yaml

    try:
        with open(uri) as f:
            return yaml.safe_load(f.read())
    except FileNotFoundError as e:
        raise ConfigError(f"file provider: {uri} not found") from e


def _provide_yaml(uri: str) -> Any:
    """yaml: provider (``confmap/provider/yamlprovider``): the URI body IS
    the YAML-encoded value."""
    import yaml

    try:
        return yaml.safe_load(uri)
    except yaml.YAMLError as e:
        raise ConfigError(f"yaml provider: invalid YAML {uri!r}") from e


def _provide_http(uri: str) -> Any:
    raise ConfigError("http(s) config providers are not available in this "
                      "deployment (no network); use file:/env:/yaml:")


PROVIDERS: dict[str, Callable[[str], Any]] = {
    "env": _provide_env,
    "file": _provide_file,
    "yaml": _provide_yaml,
    "http": _provide_http,
    "https": _provide_http,
}


def expand_uris(node: Any, providers: dict[str, Callable[[str], Any]] | None
                = None, _active: frozenset = frozenset()) -> Any:
    """Recursive ``${scheme:uri}`` expansion (``confmap/expand.go:110-194``
    semantics): a string that IS exactly one reference resolves to the
    retrieved value with its type preserved (a file:/yaml: map replaces the
    node); embedded references stringify their (scalar) value in place.
    Cyclic references (a file transitively referencing itself) raise
    ConfigError naming the cycle, not RecursionError."""
    providers = PROVIDERS if providers is None else providers
    if isinstance(node, str):
        m = _URI_RE.fullmatch(node)
        if m:
            ref = f"{m.group(1)}:{m.group(2)}"
            if ref in _active:
                raise ConfigError(f"cyclic config reference: ${{{ref}}}")
            val = providers[m.group(1)](m.group(2))
            # recurse only into retrieved CONFIG STRUCTURE (file:/yaml:
            # mappings may themselves contain references); retrieved
            # SCALARS are data — re-interpreting ${...} text inside an
            # env-var value would be an injection vector
            if isinstance(val, (dict, list)):
                return expand_uris(val, providers, _active | {ref})
            return val

        def sub(mm: re.Match) -> str:
            ref = f"{mm.group(1)}:{mm.group(2)}"
            if ref in _active:
                raise ConfigError(f"cyclic config reference: ${{{ref}}}")
            val = providers[mm.group(1)](mm.group(2))
            if isinstance(val, (dict, list)):
                raise ConfigError(
                    f"${{{mm.group(1)}:...}} resolves to a mapping but is "
                    "embedded inside a string (whole-value references only)")
            return str(val)

        return _URI_RE.sub(sub, node)
    if isinstance(node, dict):
        return {k: expand_uris(v, providers, _active)
                for k, v in node.items()}
    if isinstance(node, list):
        return [expand_uris(v, providers, _active) for v in node]
    return node


def expand_env(node: Any) -> Any:
    """${env:NAME} / ${env:NAME:-default} expansion, recursively (expand.go
    semantics: unset without default is an error). Superset: also resolves
    file:/yaml: references via expand_uris."""
    return expand_uris(node)


def merge_confs(*sources: dict) -> dict:
    """Resolver merge (``confmap/resolver.go:88-164``): later sources take
    precedence; mappings merge recursively, scalars and lists replace."""
    out: dict = {}
    for src in sources:
        for k, v in (src or {}).items():
            if isinstance(v, dict) and isinstance(out.get(k), dict):
                out[k] = merge_confs(out[k], v)
            else:
                out[k] = v
    return out


def resolve_config(uris: list) -> dict:
    """Multi-source resolve: each element is a dict, a ``scheme:rest`` URI,
    or a bare file path; retrieved in order and merged (later wins), then
    ``${scheme:uri}`` expansion over the merged document — the
    Resolver.Resolve flow."""
    docs = []
    for u in uris:
        if isinstance(u, dict):
            docs.append(u)
            continue
        scheme, sep, rest = u.partition(":")
        if sep and scheme in PROVIDERS:
            doc = PROVIDERS[scheme](rest)
        else:
            doc = _provide_file(u)
        if not isinstance(doc, dict):
            raise ConfigError(f"config source {u!r} did not resolve to a "
                              "mapping")
        docs.append(doc)
    return expand_uris(merge_confs(*docs))


# ------------------------------------------------------------- registry

@dataclass
class Factory:
    """Component factory (component.go:182-200 analog): ``create(cfg)``
    builds a stage — a callable for map_batches or a
    :class:`DatasetTransform`."""

    create: Callable[[dict], Any]


class DatasetTransform:
    """Marker for DATASET-LEVEL pipeline components (grouped aggregates,
    sorts, samplers): the builder applies these as ``fn(ds)`` instead of
    ``ds.map_batches(stage)`` — a batchprocessor-style counting aggregate
    is a plan rewrite, not a row map."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, ds):
        return self.fn(ds)


_REGISTRY: dict[str, Factory] = {}


def register(type_name: str, factory: Factory) -> None:
    if type_name in _REGISTRY:
        raise ConfigError(f"duplicate factory: {type_name}")
    _REGISTRY[type_name] = factory


def get_factory(type_name: str) -> Factory:
    if type_name not in _REGISTRY:
        raise ConfigError(f"unknown component type: {type_name!r} "
                          f"(known: {sorted(_REGISTRY)})")
    return _REGISTRY[type_name]


# ------------------------------------------------ derived components
#
# A derived component's YAML fields ARE its function's parameters:
# required fields are the parameters with no default, defaults and type
# coercions come from the signature. Each row: component type →
# ("module:function" under the table's package, the YAML fields it
# accepts, with ``yaml=param`` only where the YAML key differs from the
# parameter). One resolve() binds the rows of all three roles.

class Table(dict):
    """The rows of one pipeline role. The builder passes a row's first
    ``lead`` parameters itself (the Dataset, the input paths, the target
    directory) and reads ``builder_keys`` off the component's config."""

    def __init__(self, package: str, lead: int, builder_keys: str,
                 rows: dict[str, tuple[str, str]]):
        super().__init__(rows)
        self.package, self.lead = package, lead
        self.builder_keys = frozenset(builder_keys.split())


# a processor row is fn(ds, **fields) over ``stages/`` (or fn(lambda: ds,
# ...), see _THUNK_PARAMS), applied as a DatasetTransform
STAGES = Table("stages", 1, "batch_size concurrency", {
    "count_agg": ("aggregate:grouped_count", "keys count_name"),
    "count_distinct": ("aggregate:grouped_count_distinct",
                       "keys distinct_col out_name"),
    "mode_agg": ("aggregate:grouped_mode",
                 "key value_col out=out_name count_name n_buckets"),
    "string_agg": ("aggregate:grouped_string_agg",
                   "key order_by value_col sep out=out_name n_buckets"),
    "binary_eval": ("agreement:binary_eval",
                    "keys pred=pred_col label=label_col"),
    "auc": ("agreement:grouped_auc", "key score=score_col label=label_col"),
    "gini_impurity": ("agreement:gini_impurity", "key cat=cat_col"),
    "rater_kappa": ("agreement:rater_agreement", "key=group_key a=a_col "
                    "b=b_col max_classes max_groups"),
    "apportion": ("allocate:apportion",
                  "keys seats=n_seats weight_col max_groups"),
    "bpe": ("bpe:bpe_tokenize",
            "text_col id_col num_merges max_word_types persist"),
    "cardinality_cap": ("cardinality:cardinality_cap",
                        "group=group_col series=series_col k overflow_value "
                        "count_name sum_cols"),
    "latest_by": ("cdc:latest_by_key", "key order_by keep n_buckets"),
    "throttle": ("cdc:first_k_by", "key order_by k n_buckets"),
    "dedupe_consecutive": ("cdc:dedupe_consecutive",
                           "key order_by value_cols n_buckets"),
    "scd2": ("cdc:scd2_intervals",
             "key order_col value_cols tie_break n_buckets"),
    "log_dedup": ("cdc:log_dedup", "match_cols ts_col interval_us "
                  "count_name n_buckets"),
    "checksum": ("checksum:table_checksum", "cols group_col sep n_buckets"),
    "semdedup": ("clustering:semantic_dedup", "k threshold iters id_col "
                 "vec_col max_cluster_rows persist"),
    "cohort": ("cohort:cohort_retention", "user_col ts_col period n_buckets"),
    "contamination": ("contamination:flag_contaminated",
                      "phrases text_col id_col"),
    "gini": ("corpusstats:grouped_gini", "key value_col"),
    "vocab_growth": ("corpusstats:vocab_growth",
                     "text_col id_col bucket_size ngram"),
    "frequent_terms": ("corpusstats:frequent_terms",
                       "num den text_col persist"),
    "oov_stats": ("corpusstats:oov_stats", "text_col id_cols min_count "
                  "max_vocab split_pattern persist"),
    "quantize": ("embeddings:quantize_embeddings", "vec_col keep_vec"),
    "range_lookup": ("enrich:range_lookup",
                     "column=col breaks labels out=out_col"),
    "label_encode": ("encoding:label_encode",
                     "column=col out=out_col order max_categories persist"),
    "feature_hash": ("encoding:feature_hash",
                     "id_col text_col n_buckets hash_mode"),
    "target_encode": ("encoding:target_encode",
                      "cat_col target_col smoothing_m out=out_name"),
    "funnel": ("funnel:funnel", "key order_col step_col steps out_prefix "
               "completed_name n_buckets"),
    "fuzzy_lookup": ("fuzzy:fuzzy_lookup",
                     "column=probe_col candidates max_dist out_prefix"),
    "edit_pairs": ("fuzzy:edit_distance_pairs",
                   "id=id_col text=text_col max_dist block=block_col "
                   "max_len max_block_pairs"),
    "pagerank": ("graph:pagerank", "src dst damping iterations max_nodes "
                 "persist tol rank_col weight_col personalize"),
    "pair_cosine": ("graph:cooccurrence_cosine",
                    "group=group_col item=item_col min_support max_items"),
    "assoc_rules": ("graph:association_rules", "group=group_col "
                    "item=item_col min_support scale max_items"),
    "bfs": ("graph:bfs_layers",
            "src dst seeds max_depth directed max_nodes"),
    "rolling_distinct": ("intervals:rolling_distinct_count",
                         "entity_col time_col window out_time out_count "
                         "max_times n_buckets"),
    "overlap_pairs": ("intervals:overlap_pair_count",
                      "key start_col end_col count_name n_name"),
    "merge_intervals": ("intervals:merge_intervals",
                        "key start_col end_col min_gap n_buckets prereduce "
                        "out_start out_end count_name"),
    "concurrency": ("intervals:concurrency_profile",
                    "key start_col end_col persist"),
    "zorder": ("layout:zorder_sort",
               "x_col y_col tie_break code_col rank_col persist"),
    "ohlc": ("metricsops:grouped_ohlc",
             "keys order_by=order_cols value=value_col"),
    "hysteresis_alerts": ("metricsops:hysteresis_alerts",
                          "key order_by value=value_col high low"),
    "cusum": ("metricsops:cusum_scores",
              "key order_by value_col target drift n_buckets"),
    "trend": ("metricsops:grouped_trend", "key x_col y_col scale max_groups"),
    "slo_burn": ("metricsops:slo_burn", "key ts=ts_col err=err_col "
                 "short_us long_us err_permille id_cols"),
    "exphist_downscale": ("metricsops:exphist_downscale", "keys shift"),
    "exphist_quantile": ("metricsops:exphist_quantile", "key q_permille"),
    "budget_by": ("mixing:select_budget_by",
                  "key value_col id_col budget order_col"),
    "top_share": ("mixing:select_top_share_by",
                  "key value_col id_col share_num share_den n_buckets"),
    "epoch_order": ("mixing:epoch_order", "id_col epoch n_shards hash_mode"),
    "token_budget": ("mixing:select_token_budget",
                     "score_col token_col budget id_col persist"),
    "mix": ("mixing:mix_by_class", "class_col weights id_col base persist"),
    "moments": ("normalize:grouped_moments", "keys value=value_col"),
    "chi2_drift": ("normalize:chi2_two_sample",
                   "group_col cell_col group_a group_b scale max_cells"),
    "minmax_scale": ("normalize:minmax_scale",
                     "column=col key scale out_col max_groups persist"),
    "robust_scale": ("normalize:robust_scale",
                     "column=col key scale out_col max_groups persist"),
    "mad_outliers": ("normalize:mad_outliers",
                     "column=col key k flag_col max_groups persist"),
    "sigma_outliers": ("normalize:sigma_outliers",
                       "column=col key k flag_col max_groups persist"),
    "tail_budget": ("packing:tail_budget",
                    "key order_by weight=weight_col budget out=out_col"),
    "profile": ("profile:profile_table", "columns"),
    "l_diversity": ("privacy:l_diversity",
                    "quasi=quasi_cols sensitive=sensitive_col l"),
    "dp_release": ("privacy:dp_count_release", "keys epsilon seed "
                   "count_name suppress_below"),
    "t_closeness": ("privacy:t_closeness",
                    "group=group_col sensitive=sensitive_col max_grid"),
    "tfidf": ("ranking:score_tfidf_int",
              "terms=query_terms scale text_col id_col persist"),
    "grid_densify": ("resample:grid_densify",
                     "row=row_col col=col_col count_name max_cells"),
    "lag_xcorr": ("resample:lagged_xcorr_parts",
                  "bucket_col group_col group_a group_b lags max_span"),
    "hopping_window": ("resample:hopping_window_agg",
                       "ts_col size_us slide_us keys count_name sum_cols "
                       "window_name"),
    "resample": ("resample:resample_asof", "key ts_col every_us value_cols "
                 "how max_points_per_key grid_name"),
    "pivot": ("reshape:pivot",
              "keys name_col value_col names strict"),
    "unpivot": ("reshape:unpivot", "keys value_cols name_col value_col"),
    "rollup": ("rollup:rollup_agg", "keys count_name sum_cols min_cols "
               "max_cols sets grouping_id_name"),
    "sample": ("sampling:sample_bottom_k", "k id_col hash_mode keep_rank"),
    "sample_weighted": ("sampling:sample_weighted_k",
                        "k id_col weight_col hash_mode keep_rank"),
    "sample_by": ("sampling:sample_bottom_k_by",
                  "k id_col by hash_mode keep_rank"),
    "quota_sample": ("sampling:quota_sample",
                     "key seats=n_seats id=id_col max_groups persist"),
    "split": ("sampling:assign_split",
              "key fractions hash_mode seed out_col"),
    "dedup_index": ("seenindex:dedup_against_index",
                    "path=index_path text_col id_col n_buckets"),
    "heavy_hitters": ("sketch:heavy_hitters",
                      "col k capacity count_name persist"),
    "skyline": ("skyline:skyline_2d", "x_col y_col persist"),
    "global_sort": ("sort:global_sort",
                    "keys descending num_partitions rank_col persist"),
    "weighted_median": ("spanops:grouped_weighted_median",
                        "key value_col weight_col n_buckets"),
    "service_graph": ("spanops:service_graph", "n_buckets"),
    "apdex": ("spanops:apdex", "t_us key duration=duration_col"),
    "cont_quantiles": ("spanops:grouped_cont_quantiles",
                       "key value=value_col qs n_buckets"),
    "weighted_quantiles": ("spanops:grouped_weighted_quantiles",
                           "key value_col weight_col qs n_buckets"),
    "head_sample": ("spanops:head_sample", "permille trace_col"),
    "dup_stats": ("subdedup:duplication_stats",
                  "text_col id_col window stride min_count"),
    "km": ("survival:km_parts", "duration_col observed_col max_durations"),
    "decayed_count": ("temporal:decayed_count", "keys ts=ts_col anchor_us "
                      "half_life_days max_halvings"),
    "delta_to_rate": ("temporal:delta_to_rate", "key order_by=order_col "
                      "value=value_col ts=ts_col scale out=out_col"),
    "late_arrivals": ("temporal:late_arrivals", "key arrival=arrival_cols "
                      "ts=ts_col allowed_lateness"),
    "validate": ("validate:validate_rules", "rules id_col n_buckets"),
    "window": ("window:per_key_window", "key order_by ops n_buckets"),
})

# A receiver row is fn(paths, **fields) over ``sources/``. A row whose
# first parameter is ``events`` derives one signal from an events parquet
# source instead (the collector wires a receiver per signal, we wire a
# derivation per signal): the builder reads the events with
# ``read_turns(paths, columns=...)`` and passes the Dataset. The OTLP wire
# types are receivers and exporters both; the builder reads the row of
# the role a type appears under, like the reference's otlp component id
# in both positions.
RECEIVERS = Table("sources", 1, "paths", {
    "parquet": ("parquet:read_turns", "columns"),
    "csv": ("textlog:read_csv", "columns"),
    "orc": ("orcfile:read_orc", "columns"),
    "jsonl": ("textlog:read_jsonl", "schema"),
    "ipc": ("arrow_ipc:read_ipc", "schema"),
    "promtext": ("textlog:read_prom_text", "strict"),
    "textlog": ("textlog:read_text_logs", ""),
    "multiline": ("textlog:read_multiline_logs", "start_pattern joiner"),
    "otlp_json": ("otlp_json:read_otlp_json_logs", ""),
    "otlp_json_spans": ("otlp_json:read_otlp_json_spans", ""),
    "otlp_proto": ("otlp_proto:read_otlp_proto_logs", ""),
    "otlp_proto_spans": ("otlp_proto:read_otlp_proto_spans", ""),
    "otlp_proto_metrics": ("otlp_metrics:read_otlp_proto_metrics", ""),
    "turns": ("transcripts:derive_turns", ""),
    "spans": ("spans:derive_spans", ""),
    "profile_frames": ("profiles:derive_profile_frames", ""),
})
# read by the builder for an ``events`` receiver's events read
_EVENTS_KEYS = frozenset({"columns"})

# An exporter row is fn(ds, out_dir, **fields) over ``sources/``; out_dir
# is the YAML ``path`` under the run's output root (default: the
# exporter's name). A row that returns None reports "written".
EXPORTERS = Table("sources", 2, "path", {
    "jsonl_sink": ("textlog:write_jsonl", ""),
    "csv_sink": ("textlog:write_csv", ""),
    "ipc_sink": ("arrow_ipc:write_ipc", "compression"),
    "orc_sink": ("orcfile:write_orc", ""),
    "prom_sink": ("textlog:write_prom_text",
                  "metric_col labels_col value_col ts_col help=help_text"),
    "otlp_json": ("otlp_json:write_otlp_json_logs", "compression"),
    "otlp_json_spans": ("otlp_json:write_otlp_json_spans", "compression"),
    "otlp_proto": ("otlp_proto:write_otlp_proto_logs",
                   "max_request_bytes compression"),
    "otlp_proto_spans": ("otlp_proto:write_otlp_proto_spans", "compression"),
    "otlp_proto_metrics": ("otlp_metrics:write_otlp_proto_metrics",
                           "compression"),
})
# exporters the builder writes itself, with the fields each accepts:
# parquet_sink's route partitioning reads the pipeline, and debug has no
# target
_BUILDER_EXPORTERS = {"parquet_sink": frozenset({"path", "partition_by_route"}),
                      "debug": frozenset({"verbosity"})}

# first-parameter names of stages that take a ``lambda: ds`` thunk (they
# re-read their input once per pass) instead of the Dataset itself
_THUNK_PARAMS = frozenset({"make_ds", "make_edges", "ds_factory"})
# what a required field may not be: absent, null, or an empty value
_EMPTY = (None, "", [], {})


def _schema(mapping: dict) -> Any:
    """``{column: type name}`` → a pinned ``pa.Schema`` (None when
    empty)."""
    import pyarrow as pa

    types = {"int64": pa.int64(), "int32": pa.int32(),
             "float64": pa.float64(), "float32": pa.float32(),
             "string": pa.string(), "bool": pa.bool_(),
             "timestamp_us": pa.timestamp("us"), "binary": pa.binary()}
    fields = []
    for col, tname in dict(mapping).items():
        if tname not in types:
            raise ValueError(f"unknown type {tname!r} for column {col!r}; "
                             f"one of {sorted(types)}")
        fields.append((col, types[tname]))
    return pa.schema(fields) if fields else None


def _mapping(conv: Callable[[Any], Any]) -> Callable[[Any], dict]:
    return lambda v: {str(k): conv(x) for k, x in dict(v).items()}


def _scalar_str(v: Any) -> str:
    """``str`` of a scalar; a list or mapping is a TypeError, not its
    Python repr."""
    if isinstance(v, (list, tuple, dict)):
        raise TypeError(f"expected a scalar, got a {type(v).__name__}")
    return str(v)


_COERCE: dict[str, Callable[[Any], Any]] = {
    "int": int, "float": float, "str": _scalar_str,
    "list[str]": lambda v: [v] if isinstance(v, str) else [str(x) for x in v],
    "dict[str, float]": _mapping(float),
    "dict[str, int]": _mapping(int),
    "dict[str, tuple]": _mapping(tuple),
    # rational quantiles: [[num, den], ...], flat floats are a TypeError
    "tuple[tuple[int, int], ...]":
        lambda v: tuple((int(n), int(d)) for n, d in v),
    "pa.Schema": _schema,
}


def _stage(target: str, package: str = "stages",
           ) -> tuple[Callable, list[inspect.Parameter]]:
    """Import ``module:function`` under ``package`` on first use, so
    importing this module pulls in no stage or source module."""
    module, _, name = target.partition(":")
    fn = getattr(importlib.import_module(
        f"{__package__}.{package}.{module}"), name)
    return fn, list(inspect.signature(fn).parameters.values())


def first_param(fn: Callable) -> str:
    return next(iter(inspect.signature(fn).parameters))


def _base_type(annotation: Any) -> str:
    """``"int"`` for ``int`` or ``int | None``; ``""`` for a union of
    several types or no annotation."""
    if annotation is inspect.Parameter.empty:
        return ""
    if not isinstance(annotation, str):
        annotation = inspect.formatannotation(annotation)
    types = [t.strip() for t in annotation.split("|")]
    types = [t for t in types if t != "None"]
    return types[0] if len(types) == 1 else ""


def _coerce(annotation: Any, value: Any) -> Any:
    conv = _COERCE.get(_base_type(annotation))
    return value if value is None or conv is None else conv(value)


def _reject_unknown(name: str, cfg: dict, accepted: Any,
                    builder_keys: frozenset = frozenset()) -> None:
    """ConfigError for a key of ``cfg`` that is neither an ``accepted``
    field nor one the builder reads."""
    unknown = sorted(set(cfg) - set(accepted) - builder_keys)
    if unknown:
        raise ConfigError(f"{name}: unknown field(s) {unknown} "
                          f"(accepted: {sorted(accepted)})")


def resolve(name: str, cfg: dict, table: Table = STAGES,
            ) -> tuple[Callable, dict[str, Any]]:
    """Bind component ``name``'s YAML config to its row of ``table``:
    returns the function and its keyword arguments (every exposed
    parameter, defaults filled in from the signature)."""
    target, spec = table[name]
    fn, params = _stage(target, table.package)
    fields = {key: param or key for key, _, param in
              (f.partition("=") for f in spec.split())}
    builder_keys = table.builder_keys
    if params[0].name == "events":
        builder_keys |= _EVENTS_KEYS
    _reject_unknown(name, cfg, fields.keys(), builder_keys)
    by_name = {p.name: p for p in params[table.lead:]}
    kwargs, missing = {}, []
    for key, pname in fields.items():
        p = by_name[pname]
        if p.default is p.empty and cfg.get(key) in _EMPTY:
            missing.append(key)
        elif key not in cfg:
            kwargs[pname] = p.default
        else:
            try:
                kwargs[pname] = _coerce(p.annotation, cfg[key])
            except (TypeError, ValueError) as e:
                raise ConfigError(
                    f"{name}: {key}={cfg[key]!r} is not a valid "
                    f"{p.annotation} ({e})") from None
    if missing:
        raise ConfigError(
            f"{name}: missing required field(s) {', '.join(missing)}")
    return fn, kwargs


def _as_dataset(out: Any) -> Any:
    """A stage's result as a Dataset: a ``pa.Table`` (a profile, a kappa
    table) or a pandas frame (semdedup's no-duplicates case) is wrapped,
    anything else is returned as it is."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    if isinstance(out, pa.Table):
        return ray.data.from_arrow(out)
    if isinstance(out, pd.DataFrame):
        return ray.data.from_pandas(out)
    return out


def _derived(name: str) -> Factory:
    def create(cfg: dict) -> DatasetTransform:
        fn, kwargs = resolve(name, cfg)
        thunk = first_param(fn) in _THUNK_PARAMS
        return DatasetTransform(lambda ds: _as_dataset(
            fn((lambda: ds) if thunk else ds, **kwargs)))

    return Factory(create)


# ------------------------------------------- hand-written processors
#
# Kept where the YAML shape is not one call of one stage: rule lists,
# variants and compositions of several stages, stage classes, raw batch
# UDFs, and k_anonymize's cross-field rule. Each names the YAML keys it
# reads; any other key (but the builder's) is rejected as resolve() does.

def _require(name: str, cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg.get(key) in _EMPTY:
            raise ConfigError(f"{name}: {key} is required")


def _register_builtins() -> None:
    from .stages.enrich import EnrichStage
    from .stages.filterstage import FilterConfig, FilterStage
    from .stages.parse import DEFAULT_PARSE_RULES, ParseRule, ParseStage
    from .stages.route import DEFAULT_ROUTE_RULES, RouteRule, RouteStage

    def reads(name: str, keys: str) -> Callable:
        """Register the decorated ``make`` as processor ``name``, which
        reads the YAML ``keys``."""
        accepted = frozenset(keys.split())

        def wrap(make: Callable[[dict], Any]) -> Callable[[dict], Any]:
            def create(cfg: dict) -> Any:
                _reject_unknown(name, cfg, accepted, STAGES.builder_keys)
                return make(cfg)

            register(name, Factory(create))
            return make

        return wrap

    @reads("parse", "rules text_col")
    def make_parse(cfg: dict):
        rules = tuple(
            ParseRule(r["name"], r["pattern"], r.get("casts", {}))
            for r in cfg.get("rules", [])) or DEFAULT_PARSE_RULES
        return ParseStage(rules, text_col=cfg.get("text_col", "text"))

    @reads("enrich", "")
    def make_enrich(cfg: dict):
        return EnrichStage()

    @reads("route", "rules default_sink")
    def make_route(cfg: dict):
        rules = tuple(
            RouteRule(sink=r["sink"],
                      strict={k: tuple(v) for k, v in r.get("strict", {}).items()},
                      regex=dict(r.get("regex", {})))
            for r in cfg.get("rules", [])) or DEFAULT_ROUTE_RULES
        return RouteStage(rules, default_sink=cfg.get("default_sink", "default"))

    @reads("filter", "include exclude")
    def make_filter(cfg: dict):
        if not cfg.get("include") and not cfg.get("exclude"):
            raise ConfigError(
                "filter: at least one of include/exclude is required")

        def fc(d):
            if d is None:
                return None
            return FilterConfig(column=d["column"],
                                strict=tuple(d["strict"]) if "strict" in d else None,
                                regex=d.get("regex"))

        return FilterStage(include=fc(cfg.get("include")),
                           exclude=fc(cfg.get("exclude")))

    @reads("redact", "rules text_col out_col with_counts")
    def make_redact(cfg: dict):
        from .functions.redact import PII_RULES, redact_table

        names = cfg.get("rules")
        if names is not None:
            # a typo must FAIL, not silently skip PII scrubbing
            known = {r[0] for r in PII_RULES}
            unknown = [n for n in names if n not in known]
            if unknown:
                raise ConfigError(
                    f"redact: unknown rule names {unknown}; "
                    f"known: {sorted(known)}")
        rules = [r for r in PII_RULES if names is None or r[0] in names]
        text_col = cfg.get("text_col", "text")
        out_col = cfg.get("out_col", "redacted")
        with_counts = bool(cfg.get("with_counts", True))
        return lambda t: redact_table(t, text_col, out_col, rules,
                                      with_counts)

    @reads("score", "weights bias out_col")
    def make_score(cfg: dict):
        from .stages.scoring import LinearScorerStage

        _require("score", cfg, "weights")
        return LinearScorerStage(dict(cfg["weights"]),
                                 bias=int(cfg.get("bias", 0)),
                                 out_col=cfg.get("out_col", "score"))

    @reads("time_bucket", "column unit out")
    def make_time_bucket(cfg: dict):
        from .stages.aggregate import add_time_bucket

        column = cfg.get("column", "ts")
        unit = cfg.get("unit", "hour")
        out = cfg.get("out", "bucket")
        # a plain function, so it joins the builder's StageChain
        return lambda t: add_time_bucket(t, ts_col=column, unit=unit,
                                         out=out)

    @reads("extract_explode", "text_col pattern keep out")
    def make_extract_explode(cfg: dict):
        # the stage takes text_col positionally with no default; the YAML
        # field defaults to "text"
        from .stages.parse import extract_all_explode

        _require("extract_explode", cfg, "pattern")
        return DatasetTransform(lambda ds: extract_all_explode(
            ds, cfg.get("text_col", "text"), cfg["pattern"],
            keep=[str(c) for c in cfg.get("keep", [])],
            out=cfg.get("out", "match")))

    @reads("hist_quantile", "keys value bounds q_permille out_col")
    def make_hist_quantile(cfg: dict):
        from .stages.metricsops import (explicit_histogram,
                                        hist_quantile_linear)

        _require("hist_quantile", cfg, "keys", "value", "bounds", "q_permille")
        bounds = [int(b) for b in cfg["bounds"]]
        keys = [str(k) for k in cfg["keys"]]

        def build(ds):
            hist = explicit_histogram(ds, keys, str(cfg["value"]), bounds)
            return hist_quantile_linear(
                hist, keys, bounds, int(cfg["q_permille"]),
                out_col=str(cfg.get("out_col", "q_permille")))

        return DatasetTransform(build)

    @reads("sentence_stats", "column pattern")
    def make_sentence_stats(cfg: dict):
        from .functions.text import SENTENCE_RE, sentence_stats

        _require("sentence_stats", cfg, "column")
        pattern = str(cfg.get("pattern", SENTENCE_RE))

        def fn(t):
            import pyarrow as pa

            st = sentence_stats(t.column(str(cfg["column"])), pattern)
            out = {c: t.column(c) for c in t.column_names}
            out.update(st)
            return pa.table(out)

        return DatasetTransform(lambda ds: ds.map_batches(
            fn, batch_format="pyarrow"))

    @reads("ks_drift", "group_col value_col group_a group_b key n_buckets "
           "max_distinct")
    def make_ks_drift(cfg: dict):
        from .stages.normalize import grouped_ks, ks_two_sample

        _require("ks_drift", cfg, "group_col", "value_col", "group_a",
                 "group_b")
        if cfg.get("key"):  # per-key distributed variant
            return DatasetTransform(lambda ds: grouped_ks(
                ds, cfg["key"], cfg["group_col"], cfg["value_col"],
                cfg["group_a"], cfg["group_b"],
                n_buckets=cfg.get("n_buckets", "auto")))
        return DatasetTransform(lambda ds: ks_two_sample(
            ds, cfg["group_col"], cfg["value_col"],
            cfg["group_a"], cfg["group_b"],
            max_distinct=int(cfg.get("max_distinct", 20_000_000))))

    @reads("k_anonymize", "quasi k sensitive l n_buckets mode")
    def make_k_anonymize(cfg: dict):
        from .stages.privacy import k_anonymize

        if not cfg.get("quasi") or not cfg.get("k"):
            raise ConfigError("k_anonymize: quasi and k are required")
        sens, l = cfg.get("sensitive"), cfg.get("l")
        if (sens is None) != (l is None):
            raise ConfigError(
                "k_anonymize: sensitive and l go together")
        return DatasetTransform(lambda ds: k_anonymize(
            ds, [str(c) for c in cfg["quasi"]], int(cfg["k"]),
            sensitive_col=sens, l=None if l is None else int(l),
            n_buckets=cfg.get("n_buckets", "auto"),
            mode=str(cfg.get("mode", "join"))))

    @reads("transform", "statements map_col")
    def make_transform(cfg: dict):
        from .functions.ottl import compile_statements

        _require("transform", cfg, "statements")
        return compile_statements([str(x) for x in cfg["statements"]],
                                  map_col=cfg.get("map_col", "attrs"))

    @reads("log_templates", "rules text")
    def make_log_templates(cfg: dict):
        from .stages.templates import DEFAULT_MASK_RULES, mine_templates

        rules = DEFAULT_MASK_RULES
        if "rules" in cfg:
            raw = cfg["rules"]
            if not isinstance(raw, list) or not raw:
                raise ConfigError(
                    "log_templates: rules must be a non-empty list of "
                    "{name, pattern, token} maps")
            rules = tuple(
                (r["name"], r["pattern"], r["token"]) for r in raw)
        return DatasetTransform(lambda ds: mine_templates(
            ds, cfg.get("text", "text"), rules=rules))

    @reads("repetition", "text_col id_col")
    def make_repetition(cfg: dict):
        import pyarrow as pa

        from .functions.text import repetition_stats

        text_col = cfg.get("text_col", "text")
        id_col = cfg.get("id_col", "doc_id")

        def fn(t):
            return pa.table({id_col: t.column(id_col),
                             **repetition_stats(t.column(text_col))})

        return fn

    @reads("agg_delta", "keys base_path count_name sum_cols op_col")
    def make_agg_delta(cfg: dict):
        import ray.data as _rd

        from .stages.incragg import apply_agg_delta

        if not cfg.get("keys") or not cfg.get("base_path"):
            raise ConfigError("agg_delta: keys and base_path (the "
                              "materialized view parquet) are required")
        return DatasetTransform(lambda ds: apply_agg_delta(
            _rd.read_parquet(cfg["base_path"]),
            ds, [str(k) for k in cfg["keys"]],
            count_name=cfg.get("count_name", "n"),
            sum_cols=dict(cfg.get("sum_cols") or {}),
            op_col=cfg.get("op_col", "op")))

    @reads("pca", "n_components vec_col persist out_col")
    def make_pca(cfg: dict):
        from .stages.clustering import pca_fit, pca_transform

        def run(ds):
            mean, comp = pca_fit(
                lambda: ds, n_components=int(cfg.get("n_components", 16)),
                vec_col=cfg.get("vec_col", "embedding"),
                persist=cfg.get("persist", "none"))
            return pca_transform(ds, mean, comp,
                                 vec_col=cfg.get("vec_col", "embedding"),
                                 out_col=cfg.get("out_col", "pca"))

        return DatasetTransform(run)

    for name in STAGES:
        register(name, _derived(name))


_register_builtins()


# ------------------------------------------------------------- pipeline cfg

@dataclass
class PipelineConfig:
    receivers: dict[str, dict]
    processors: dict[str, dict]
    exporters: dict[str, dict]
    pipeline: dict  # {"receivers": [...], "processors": [...], "exporters": [...]}

    @staticmethod
    def from_dict(raw: dict, expand: bool = True) -> "PipelineConfig":
        # expand=False when the caller already resolved references
        # (from_sources): expanding twice would re-interpret ${...} text
        # INSIDE resolved env-var values as config references — a crash on
        # unset vars and an injection vector for secret-bearing ones.
        if expand:
            raw = expand_env(raw)
        for section in ("receivers", "exporters", "service"):
            if section not in raw:
                raise ConfigError(f"missing config section: {section}")
        pipelines = raw["service"].get("pipelines", {})
        if len(pipelines) != 1:
            raise ConfigError("exactly one service.pipelines entry supported")
        (pipe,) = pipelines.values()
        cfg = PipelineConfig(
            receivers=raw.get("receivers", {}),
            processors=raw.get("processors", {}),
            exporters=raw.get("exporters", {}),
            pipeline=pipe,
        )
        cfg.validate()
        return cfg

    @staticmethod
    def from_yaml(path: str) -> "PipelineConfig":
        import yaml

        with open(path) as f:
            return PipelineConfig.from_dict(yaml.safe_load(f))

    @staticmethod
    def from_sources(uris: list) -> "PipelineConfig":
        """Multi-source resolver entry (``--config a.yaml --config b.yaml``
        CLI semantics): merge in order, later sources override.
        resolve_config already performs the (single) reference expansion."""
        return PipelineConfig.from_dict(resolve_config(uris), expand=False)

    def validate(self) -> None:
        """Validate() semantics (confmap/validation.go): every pipeline
        reference must name a configured component of a known type."""
        for kind, section, known in (
                ("receivers", self.receivers, RECEIVERS.keys()),
                ("processors", self.processors, _REGISTRY.keys()),
                ("exporters", self.exporters,
                 EXPORTERS.keys() | _BUILDER_EXPORTERS)):
            for name in self.pipeline.get(kind, []):
                if name not in section:
                    raise ConfigError(f"pipeline references unconfigured "
                                      f"{kind[:-1]} {name!r}")
                type_name = name.split("/")[0]
                if type_name not in known:
                    raise ConfigError(
                        f"unknown {kind[:-1]} type: {type_name!r} "
                        f"(known: {sorted(known)})")
                # the builder's own exporters have no row for resolve()
                # to check their fields against
                accepted = _BUILDER_EXPORTERS.get(type_name)
                if kind == "exporters" and accepted is not None:
                    _reject_unknown(name, section[name] or {}, accepted)
        if not self.pipeline.get("receivers") or not self.pipeline.get("exporters"):
            raise ConfigError("pipeline needs at least one receiver and one exporter")


# ------------------------------------------------- config-staleness resume

def output_ruleset_hashes(cfg: PipelineConfig,
                          depends: dict[str, list[str]] | None = None
                          ) -> dict[str, str]:
    """Per-exporter ruleset hash for the batch partial-reload analog of
    the reference's config hot-reload (``otelcol/collector.go:290-329``,
    ``service/internal/graph/graph.go:515-713``: only graph nodes whose
    config changed restart).

    Each exporter output gets a sha256 over the canonical JSON of the
    component configs that FEED it: the pipeline's receivers, its
    processor chain, and the exporter's own config. ``depends`` narrows
    an output's processor dependency to a subset (order taken from the
    pipeline): an aggregate sink that consumes the parse stage but not
    the route table declares ``{"agg_sink": ["parse"]}``, so editing a
    route rule leaves its hash — and every partition manifest committed
    under it — valid, while the routed outputs' hashes change and only
    THEY recompute on the next ``run_resumable``. Unknown component
    names in ``depends`` raise loudly."""
    import hashlib
    import json as _json

    procs = list(cfg.pipeline.get("processors", []))
    exporters = list(cfg.pipeline.get("exporters", []))
    if depends:
        bad = [n for n in depends if n not in exporters]
        if bad:
            raise ConfigError(
                f"output_ruleset_hashes: depends names unknown "
                f"exporters {bad} (configured: {exporters})")
    out: dict[str, str] = {}
    for exporter in exporters:
        dep = depends.get(exporter) if depends else None
        if dep is None:
            chain = procs
        else:
            unknown = [n for n in dep if n not in procs]
            if unknown:
                raise ConfigError(
                    f"output_ruleset_hashes: {exporter!r} depends on "
                    f"unknown processors {unknown}")
            chain = [n for n in procs if n in set(dep)]
        blob = _json.dumps({
            "receivers": {n: cfg.receivers.get(n)
                          for n in cfg.pipeline.get("receivers", [])},
            "processors": [(n, cfg.processors.get(n)) for n in chain],
            "exporter": (exporter, cfg.exporters.get(exporter)),
        }, sort_keys=True, default=str)
        out[exporter] = hashlib.sha256(blob.encode()).hexdigest()
    return out


# ------------------------------------------------------------- feature gates

class FeatureGateRegistry:
    """featuregate/registry.go:30-75 analog: named alpha/beta/stable flags."""

    STAGES = ("alpha", "beta", "stable")

    def __init__(self):
        self._gates: dict[str, dict] = {}

    def register(self, name: str, stage: str = "alpha", enabled: bool | None = None):
        if stage not in self.STAGES:
            raise ConfigError(f"bad stage {stage}")
        if name in self._gates:
            raise ConfigError(f"duplicate gate {name}")
        default = (stage != "alpha") if enabled is None else enabled
        self._gates[name] = {"stage": stage, "enabled": default}

    def set(self, name: str, enabled: bool):
        if name not in self._gates:
            raise ConfigError(f"unknown gate {name}")
        if self._gates[name]["stage"] == "stable" and not enabled:
            raise ConfigError(f"stable gate {name} cannot be disabled")
        self._gates[name]["enabled"] = enabled

    def enabled(self, name: str) -> bool:
        return self._gates[name]["enabled"]


gates = FeatureGateRegistry()
