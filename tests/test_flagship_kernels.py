"""The flagship's per-row kernels against references: the anchored
extract against ``pc.extract_regex``, the leading-literal rule as a
table, index-take enrich and route against the object-array versions
they replaced, and the read-fused single map operator."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opentelemetry_collector_ray.pipelines.flagship import StageChain
from opentelemetry_collector_ray.stages.enrich import (
    RESOURCE_PREFIXES, EnrichStage)
from opentelemetry_collector_ray.stages.parse import (
    DEFAULT_PARSE_RULES, ParseRule, ParseStage, extract_regex_anchored,
    leading_literal)
from opentelemetry_collector_ray.stages.route import (
    DEFAULT_ROUTE_RULES, RouteRule, RouteStage)

TOOL_CALL = DEFAULT_PARSE_RULES[0].pattern

# (pattern, its leading literal)
ANCHORED = [
    (r"ab(?P<x>\d+)", "ab"),
    (r"ab(?P<x>\d+)$", "ab"),
    (r"ab(?P<x>\w+)\b", "ab"),
    (r"aa(?P<x>b)(?P<y>\d*)", "aa"),
    (r"é(?P<x>[a-z🙂]+)", "é"),
    (r"\[(?P<level>[A-Z]+)\] (?P<rest>.*)", "["),
    (TOOL_CALL, "["),
]
TOKENS = ["ab", "aa", "a", "b", "1", "23", "é", "éx", "🙂", " ", "x",
          "[INFO] ", "[E] ", "]", "call tool=bash latency_ms=7 status=ok "
          "trace=0123456789abcdef"]
texts = st.lists(st.one_of(st.none(), st.lists(st.sampled_from(TOKENS),
                                                max_size=8).map("".join)),
                 max_size=24)


@settings(max_examples=300, deadline=None)
@given(rows=texts, case=st.sampled_from(ANCHORED), cut=st.data())
def test_anchored_extract_equals_extract_regex(rows, case, cut):
    pattern, lead = case
    assert leading_literal(pattern) == lead
    full = pa.array(rows, pa.string())
    lo = cut.draw(st.integers(0, len(rows)))
    arr = full.slice(lo, cut.draw(st.integers(0, len(rows) - lo)))
    if not len(arr):
        return
    want = pc.extract_regex(arr, pattern=pattern)
    got = extract_regex_anchored(arr, pattern, lead)
    assert got.type == want.type
    assert got.is_valid().equals(want.is_valid())
    assert got.to_pylist() == want.to_pylist()


def test_anchored_extract_retries_a_later_lead():
    """The first ``aa`` fails; a later one matches, the overlapping one
    in ``aaab1``."""
    arr = pa.array(["zz", "aaab1", "aa aab", "aa", None, "zaab"]).slice(1)
    got = extract_regex_anchored(arr, r"aa(?P<x>b)(?P<y>\d*)", "aa")
    assert got.to_pylist() == pc.extract_regex(
        arr, pattern=r"aa(?P<x>b)(?P<y>\d*)").to_pylist()
    assert got.to_pylist() == [{"x": "b", "y": "1"}, {"x": "b", "y": ""},
                               None, None, {"x": "b", "y": ""}]


@pytest.mark.parametrize("pattern, lead", [
    (TOOL_CALL, "["),
    (r"abc", "abc"),
    (r"ab*c", "a"),
    (r"ab{2}c", "a"),
    (r"ab?", "a"),
    (r"\.txt$", ".txt"),
    (r"é🙂x(?P<d>\d)", "é🙂x"),
    (r"[a]bc", "abc"),          # the stdlib reads a one-char class as it
    (r"ab|ac", "a"),            # a prefix every branch shares
    (r"(?i)ab(?P<d>\d)", None),  # inline flag: also matches "AB"
    (r"(?s)ab", None),
    (r"(?P<x>a)b", None),       # group first
    (r"(?:ab)c", "abc"),        # the stdlib inlines a plain (?:...)
    (r"(?:ab|cd)e", None),
    (r"[ab]c", None),           # class first
    (r"ab|cd", None),           # alternation first
    (r"\bZZZ", None),           # assertion first
    (r"^ab", None),
    (r".ab", None),
    (r"a*b", None),
    (r"\x{41}b", None),         # RE2 syntax the stdlib cannot parse
    (r"\pLb", None),
    (r"", None),
])
def test_leading_literal_table(pattern, lead):
    assert leading_literal(pattern) == lead


def test_inline_flag_rule_keeps_plain_extract():
    rule = ParseRule("ci", r"(?i)ab(?P<d>\d)")
    out = ParseStage((rule,))(pa.table({"text": ["xx AB1", "ab2"]}))
    assert out.column("d").to_pylist() == ["1", "2"]
    assert out.column("parse_rule").to_pylist() == [0, 0]


def _parse_reference(stage: ParseStage, batch: pa.Table) -> pa.Table:
    """``ParseStage.__call__`` with the object-array residue scatter the
    index-take version replaced."""
    text = batch.column(stage.text_col).combine_chunks()
    n = batch.num_rows
    out = {g: pa.nulls(n, pa.string()) for g in stage.all_groups}
    rule_ix = np.full(n, -1, dtype=np.int8)
    unclaimed = np.ones(n, dtype=bool)
    for i in range(len(stage.rules)):
        n_open = int(unclaimed.sum())
        if n_open == 0:
            break
        if n_open > 0.9 * n:
            ext = stage._extract(i, text)
            matched = ext.is_valid().to_numpy(zero_copy_only=False)
            wins = matched & unclaimed
            if wins.any():
                rule_ix[wins] = i
                for g in stage.rule_groups[i]:
                    out[g] = pc.if_else(pa.array(wins),
                                        pc.struct_field(ext, g), out[g])
            unclaimed &= ~matched
            continue
        idx = np.nonzero(unclaimed)[0]
        ext = stage._extract(i, text.take(pa.array(idx)))
        matched = ext.is_valid().to_numpy(zero_copy_only=False)
        if not matched.any():
            continue
        win = idx[matched]
        rule_ix[win] = i
        earlier = {h for j in range(i) for h in stage.rule_groups[j]}
        for g in stage.rule_groups[i]:
            vals = pc.struct_field(ext, g).to_numpy(zero_copy_only=False)
            full = np.full(n, None, dtype=object)
            full[win] = vals[matched]
            merged = pa.array(full, pa.string())
            if g in earlier:
                merged = pc.if_else(pa.array(rule_ix != i), out[g], merged)
            out[g] = merged
        unclaimed[idx] &= ~matched
    for g, typ in stage.casts.items():
        out[g] = out[g].cast(pa.type_for_alias(typ))
    for g in stage.all_groups:
        batch = batch.append_column(g, out[g])
    return batch.append_column("parse_rule", pa.array(rule_ix, pa.int8()))


def _residue_rows(n: int) -> list:
    """Tool-call lines (rule 0), ``[WARN] ...`` lines that ``any_level``
    claims, lines only the third rule matches, nulls and misses."""
    rows = []
    for i in range(n):
        k = i % 10
        if k < 3:
            rows.append(f"[INFO] call tool=bash latency_ms={i} status=ok "
                        f"trace={i:016x}")
        elif k < 7:
            rows.append(f"[WARN] disk {i}% full")
        elif k == 7:
            rows.append(f"ZZZ-NO-SUCH-PREFIX-{i} é")
        elif k == 8:
            rows.append(None)
        else:
            rows.append("plain text")
    return rows


@pytest.mark.parametrize("rules", [
    DEFAULT_PARSE_RULES,
    # three rules sharing ``level``: the residue branch keeps earlier
    # winners' values twice
    (DEFAULT_PARSE_RULES[0], DEFAULT_PARSE_RULES[1],
     ParseRule("lvl_z", r"(?P<level>ZZZ)-NO-SUCH-PREFIX-(?P<num>\d+)",
               casts={"num": "int64"})),
])
def test_parse_residue_equals_object_array_reference(rules):
    t = pa.table({"text": _residue_rows(200), "k": pa.array(range(200))})
    stage = ParseStage(rules)
    got = stage(t)
    claimed = np.bincount(got.column("parse_rule").to_numpy() + 1,
                          minlength=4)
    # rule 0 claims >10%, so every later rule runs on the residue
    assert claimed[1] > 0.1 * t.num_rows and claimed[2] > 0.1 * t.num_rows
    assert claimed[3] > 0
    assert got.equals(_parse_reference(stage, t))
    assert got.column("level").to_pylist()[:4] == ["INFO", "INFO", "INFO",
                                                   "WARN"]


def _enrich_prefix_reference(col, prefixes, default=("tenant-unknown", "none")):
    """The object-array prefix lookup the index-take version replaced."""
    n = len(col)
    tenant = np.full(n, default[0], dtype=object)
    env = np.full(n, default[1], dtype=object)
    claimed = np.zeros(n, dtype=bool)
    for pref, t, e in prefixes:
        m = pc.starts_with(col, pattern=pref).to_numpy(zero_copy_only=False)
        m = np.asarray(m, dtype=bool) & ~claimed
        tenant[m] = t
        env[m] = e
        claimed |= m
    return pa.array(tenant, pa.string()), pa.array(env, pa.string())


def _route_reference(stage: RouteStage, batch: pa.Table) -> pa.Array:
    """The object-array route assignment the index-take version replaced."""
    n = batch.num_rows
    route = np.full(n, stage.default_sink, dtype=object)
    claimed = np.zeros(n, dtype=bool)
    for rule in stage.rules:
        m = stage._rule_mask(batch, rule).to_numpy(zero_copy_only=False)
        m = np.asarray(m, dtype=bool) & ~claimed
        route[m] = rule.sink
        claimed |= m
    return pa.array(route, pa.string())


def _planted() -> pa.Table:
    convs = ["conv-000000001", "conv-00000001", "conv-0000001", "conv-01",
             "other", None, "conv-", ""]
    tools = ["python", None, "search", "purchase", "nope", "", "bash", None]
    levels = ["ERROR", "INFO", None, "ERROR", None, "WARN", "INFO", None]
    texts = ["viewed page 1", None, "x", "viewed page", "viewed page 2",
             "", None, "viewed page 3"]
    roles = ["user", None, "tool", "system", "assistant", "x", "", None]
    return pa.table({"conv_id": convs, "tool": tools, "level": levels,
                     "text": texts, "role": roles})


def test_enrich_equals_object_array_reference():
    t = _planted()
    out = EnrichStage()(t)
    tenant, env = _enrich_prefix_reference(t.column("conv_id"),
                                           RESOURCE_PREFIXES)
    assert out.column("tenant").combine_chunks().equals(tenant)
    assert out.column("env").combine_chunks().equals(env)
    assert out.column("tenant").to_pylist()[:6] == [
        "tenant-zero", "tenant-small", "tenant-mid", "tenant-default",
        "tenant-unknown", "tenant-unknown"]


@pytest.mark.parametrize("rules", [
    DEFAULT_ROUTE_RULES,
    (RouteRule("left", strict={"level": ("ERROR",)},
               regex={"text": "viewed"}),
     RouteRule("right", strict={"tool": ("python", "bash")}),
     RouteRule("all")),
    (),
])
def test_route_equals_object_array_reference(rules):
    t = _planted()
    stage = RouteStage(rules)
    got = stage(t).column("route").combine_chunks()
    assert got.equals(_route_reference(stage, t))
    assert got.null_count == 0


def test_stage_chain_slices_and_keeps_empty_schema():
    from opentelemetry_collector_ray.synth import synth_turns

    stages = (ParseStage(), EnrichStage(), RouteStage())
    t = synth_turns(sf=0.01, seed=5)
    whole = t
    for s in stages:
        whole = s(whole)
    assert StageChain(stages, 7)(t).equals(whole)
    empty = StageChain(stages, 7)(t.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema.equals(whole.schema)


def test_stage_chain_whole_block_and_non_table_outputs():
    """``batch_size=None`` is one call per block; a stage returning a
    dict or a pandas frame hands the next stage a ``pa.Table``, as Ray
    does between fused ops."""
    t = pa.table({"x": list(range(10))})
    calls = []

    def as_dict(b):
        calls.append(b.num_rows)
        return {"x": b.column("x").to_numpy() * 2}

    def as_pandas(b):
        assert isinstance(b, pa.Table)
        return b.to_pandas().assign(y=lambda d: d.x + 1)

    out = StageChain((as_dict, as_pandas, lambda b: b), None)(t)
    assert calls == [10]
    assert out.equals(pa.table({"x": [2 * i for i in range(10)],
                                "y": [2 * i + 1 for i in range(10)]}))


def test_flagship_routed_is_one_read_fused_map(ray_session, tmp_path):
    """``build_routed`` adds one ``map_batches`` with no batch size, so
    Ray fuses it into the read: the plan runs one operator. Eight files
    at 4 CPUs, so the read does not split them (``plan_read``)."""
    from ray.data._internal.logical.operators.map_operator import MapBatches

    from opentelemetry_collector_ray.pipelines.flagship import build_routed
    from opentelemetry_collector_ray.sources.parquet import read_turns
    from opentelemetry_collector_ray.synth import synth_turns

    table = synth_turns(sf=0.05, seed=2)
    paths = []
    for i in range(8):
        paths.append(str(tmp_path / f"turns-{i}.parquet"))
        pq.write_table(table.slice(i * 63, 63), paths[-1])
    ds = build_routed(read_turns(paths))

    maps, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        maps += [op] if isinstance(op, MapBatches) else []
        todo.extend(op.input_dependencies)
    assert len(maps) == 1 and maps[0]._min_rows_per_bundled_input is None

    stats = ds.materialize().stats()
    operators = [line.split(":")[0] for line in stats.splitlines()
                 if line.startswith("Operator ")]
    assert len(operators) == 1, operators
    assert operators[0].split(" ", 2)[2].startswith("ReadParquet->")
    assert ds.count() == table.num_rows
