"""The parse rule compiler (``stages.parse.lower``): which patterns lower,
and that a lowered rule's anchored extract equals ``pc.extract_regex``
in type, validity and every group."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opentelemetry_collector_ray.stages.parse import (
    DEFAULT_PARSE_RULES, ParseStage, Step, extract_regex_anchored,
    leading_literal, lower)
from opentelemetry_collector_ray.synth import synth_turns

TOOL_CALL, ANY_LEVEL = (r.pattern for r in DEFAULT_PARSE_RULES[:2])


def _equal_to_extract_regex(arr: pa.Array, pattern: str) -> None:
    steps = lower(pattern)
    assert steps is not None
    want = pc.extract_regex(arr, pattern=pattern)
    got = extract_regex_anchored(arr, pattern, leading_literal(pattern),
                                 steps)
    assert got.type == want.type
    assert got.is_valid().equals(want.is_valid())
    for i in range(want.type.num_fields):
        name = want.type.field(i).name
        assert pc.struct_field(got, name).equals(
            pc.struct_field(want, name)), name
    assert got.to_pylist() == want.to_pylist()


# (pattern, lowers)
LOWERING = [
    (TOOL_CALL, True),
    (ANY_LEVEL, True),
    (r"ab(?P<x>\d+)c", True),
    (r"ab(?P<x>[^x]+)x", True),                # negated class, delimited
    (r"k=(?P<v>[0-9a-f]{8})", True),           # fixed-width ASCII, last
    (r"k=(?P<v>ok|err);", True),               # alternation of literals
    (r"é(?P<x>[a-z🙂]+) ", True),               # non-ASCII lead and class
    (r"ab(?P<x>\d{2})(?P<y>\w*) ", True),      # fixed, then delimited
    (r"(?i)ab(?P<x>\d+)c", False),             # inline flag
    (r"ab(?P<x>\w+)", False),                  # last, no delimiter
    (r"ab(?P<x>.+)c", False),                  # . can contain c
    (r"ab(?P<x>.+)", False),                   # .+ last
    (r"ab(?P<x>\d+?)c", False),                # lazy quantifier
    (r"[^x]+x(?P<y>\d+)y", False),             # no leading literal
    (r"ab(\d+)c", False),                      # unnamed group
    (r"ab(?P<x>\w+)_", False),                 # _ is a word character
    (r"ab(?P<x>\s+)\t", False),                # \t is a space character
    (r"ab(?P<x>\d+)c$", False),                # assertion
    (r"ab(?P<x>[a-z]+)\d", False),             # a class, not a literal, after
    (r"ab(?P<x>(?:cd)+)e", False),             # repeat of a sequence
    (r"ab(?P<x>[[:alpha:]]+);", False),        # POSIX class
    (r"ab(?P<x>é{2})", False),                 # fixed but not ASCII, last
    (r"abc", False),                           # no group
]


@pytest.mark.parametrize("pattern, lowers", LOWERING)
def test_lowering_table(pattern, lowers):
    assert (lower(pattern) is not None) == lowers


@pytest.mark.parametrize("pattern", [p for p, ok in LOWERING if ok])
def test_every_lowered_table_pattern_equals_extract_regex(pattern):
    rows = ["ab12c", "xab1c", "abc", "ab12 ", "abx", "ab;x", "k=0123abcd",
            "k=0123abc", "k=ok;", "k=err", "éab ", "éa🙂 ", "é ", "ab1",
            "[INFO] x\ny", "[I]", None, ""]
    _equal_to_extract_regex(pa.array(rows * 2).slice(3), pattern)


def test_default_rules_lower():
    assert lower(TOOL_CALL) == (
        Step(None, 1), Step("level", until=b"]"), Step(None, 12),
        Step("tool_attr", until=b" "), Step(None, 12),
        Step("latency_ms", until=b" "), Step(None, 8),
        Step("status", until=b" "), Step(None, 7), Step("trace", 16))
    assert lower(ANY_LEVEL) == (
        Step(None, 1), Step("level", until=b"]"), Step(None, 2),
        Step("rest", until=b"\n"))
    stage = ParseStage()
    assert [s is not None for s in stage.steps] == [True, True, False]


def _pieces(good: str, bad: list[str]):
    return st.one_of(st.just(good), st.sampled_from(bad))


# a tool-call line assembled piece by piece, each piece right or near
tool_lines = st.tuples(
    st.sampled_from(["", "x", "[", "[[", "]", "é🙂 ", "[INFO] ", "\n"]),
    _pieces("[", ["", "{", "[["]),
    _pieces("INFO", ["ERROR", "", "info", "IN]FO", "É", "E\n"]),
    _pieces("] call tool=", ["] call tol=", "]call tool=", "]] call tool=",
                             "] call tool= "]),
    _pieces("bash", ["a_b", "", "b ash", "ü", "x]y", "9"]),
    _pieces(" latency_ms=", [" latency_ms= ", " latency_ms", "latency_ms="]),
    _pieces("12", ["", "1 2", "x", "٣"]),
    _pieces(" status=", [" status =", " status= "]),
    _pieces("ok", ["err", "okk", "", "o k", "ERR"]),
    _pieces(" trace=", [" trace= ", " trace"]),
    _pieces("0123456789abcdef", ["0123456789abcde", "0123456789ABCDEF",
                                 "0123456789abcdef0", "01234567", "89abcdef",
                                 "0123456789abcdeé"]),
    st.sampled_from(["", "\n", " tail", " [WARN] again", "é", "]"]),
).map("".join)
TOKENS = ["[", "]", "] ", "[INFO] ", "[E] ", "INFO", "\n", " ", "é", "🙂",
          "x", "call tool=", "0123456789abcdef", "89abcdef"]
# a line may also be cut across two rows: the anchored match of the
# first must not count the second's bytes
rows_st = st.lists(st.one_of(
    st.none().map(lambda r: [r]), tool_lines.map(lambda r: [r]),
    st.builds(lambda r, k: [r[:k], r[k:]], tool_lines, st.integers(0, 90)),
    st.lists(st.sampled_from(TOKENS), max_size=6).map(lambda r: ["".join(r)])),
    max_size=16).map(lambda rows: [r for pair in rows for r in pair])


@settings(max_examples=400, deadline=None)
@given(rows=rows_st, pattern=st.sampled_from([TOOL_CALL, ANY_LEVEL]),
       cut=st.data())
def test_lowered_extract_equals_extract_regex(rows, pattern, cut):
    full = pa.array(rows, pa.string())
    lo = cut.draw(st.integers(0, len(rows)))
    arr = full.slice(lo, cut.draw(st.integers(0, len(rows) - lo)))
    if len(arr):
        _equal_to_extract_regex(arr, pattern)


def test_match_running_into_the_next_row_is_no_match():
    """The anchored match runs over a view that continues into the rows
    after; a match that needs their bytes does not count. The second
    array has a null row whose bytes would complete the first row."""
    line = "[INFO] call tool=a latency_ms=1 status=ok trace=01234567"
    arr = pa.array([line, "89abcdef", "[INFO", "] x", "[E] ok"])
    _equal_to_extract_regex(arr, TOOL_CALL)
    _equal_to_extract_regex(arr, ANY_LEVEL)
    data = (line + "89abcdef").encode()
    offsets = np.array([0, len(line), len(data)], np.int32)
    validity = np.packbits([1, 0], bitorder="little")
    nulled = pa.Array.from_buffers(
        pa.string(), 2, [pa.py_buffer(validity), pa.py_buffer(offsets),
                         pa.py_buffer(data)], null_count=1)
    _equal_to_extract_regex(nulled, TOOL_CALL)
    assert extract_regex_anchored(nulled, TOOL_CALL, "[",
                                  lower(TOOL_CALL)).null_count == 2


def test_parse_stage_on_flagship_fragments_equals_re2_only():
    """``ParseStage`` over the flagship benchmark input (300k turns, 8
    fragments, in 8192-row batches as ``StageChain`` slices them) equals
    the same stage with every rule run by ``pc.extract_regex``."""
    turns = synth_turns(sf=30, seed=0)
    stage, re2_only = ParseStage(), ParseStage()
    re2_only._extract = lambda i, text: pc.extract_regex(
        text, pattern=re2_only.rules[i].pattern)
    size = -(-turns.num_rows // 8)
    for f in range(8):
        frag = turns.slice(f * size, size)
        for b in range(0, frag.num_rows, 8192):
            batch = frag.slice(b, 8192)
            assert stage(batch).equals(re2_only(batch))
