"""Grok/regex parse stage: turn ``text`` into typed attribute columns.

The collector analog is the processorhelper-wrapped transform processor
(``/root/reference/processor/processorhelper/logs.go:22,31-75`` wraps a
pure ProcessLogsFunc) applying OTTL-style extraction
(``/root/reference/docs/rfcs/processing.md:36-50``). Parse rules follow
the reference filter library's compile-once discipline
(``/root/reference/filter/config.go:42-58``).

Semantics:
- An ordered ruleset; **first matching rule wins** per row (router-style
  priority, cf. connector first-match routing).
- Each rule is an RE2 regex with named groups; matched groups become
  columns (union of all rules' groups; null where the winning rule lacks
  the group or no rule matches).
- ``parse_rule:int8`` records the winning rule index, -1 for a miss —
  the parse-miss path stays in-band (no rows dropped), mirroring the
  collector's pass-through of unparseable bodies.

Execution: one ``pc.extract_regex`` pass per rule per batch (vectorized,
zero-copy Arrow); combined with ``pc.if_else`` by priority. The stage is a
callable class so the compiled ruleset + its hash live once per actor.
A rule whose every match begins with literal text (``[`` for both
default rules; see :func:`leading_literal`) runs anchored: each row is cut
at the first occurrence of that text and RE2 matches ``^(?:pattern)`` on
the rest, which spares it the unanchored search. Rows where the anchored match fails but the literal occurs
again go through the unanchored pattern, so the output is exactly
``pc.extract_regex``'s.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


@dataclass(frozen=True)
class ParseRule:
    name: str
    pattern: str  # RE2 with named groups
    casts: dict[str, str] = field(default_factory=dict)  # group -> arrow type name


# Fixture ruleset (FIXTURES.md): one rich rule, one overlapping lower-priority
# rule (first-match priority test), one rule that never matches.
DEFAULT_PARSE_RULES: tuple[ParseRule, ...] = (
    ParseRule(
        "tool_call",
        r"\[(?P<level>[A-Z]+)\] call tool=(?P<tool_attr>\w+) "
        r"latency_ms=(?P<latency_ms>\d+) status=(?P<status>ok|err) "
        r"trace=(?P<trace>[0-9a-f]{16})",
        casts={"latency_ms": "int64"},
    ),
    ParseRule("any_level", r"\[(?P<level>[A-Z]+)\] (?P<rest>.*)"),
    ParseRule("never_matches", r"\bZZZ-NO-SUCH-PREFIX-(?P<nothing>\d+)\b"),
)


def ruleset_hash(rules: tuple[ParseRule, ...]) -> str:
    """Stable hash of the ruleset, recorded in partition manifests so config
    changes invalidate committed outputs (reference reload fingerprinting,
    otelcol/collector.go:201-209)."""
    blob = json.dumps([[r.name, r.pattern, sorted(r.casts.items())] for r in rules])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _group_names(pattern: str) -> list[str]:
    return list(re.compile(pattern).groupindex.keys())


def leading_literal(pattern: str) -> str | None:
    """The literal text that every match of ``pattern`` begins with, or
    None when there is none or it cannot be told.

    Read off the stdlib parse tree: its leading ``LITERAL`` nodes (a
    quantified literal is a repeat node there, so ``ab*`` gives ``"a"``).
    None for any inline flag (``(?i)ab`` also matches ``AB``), for a
    capturing group, class, assertion or alternation in first position,
    and for a pattern the stdlib cannot parse (RE2-only syntax). The
    stdlib inlines a plain ``(?:...)`` and factors out a prefix that all
    branches of an alternation share (``ab|ac`` gives ``"a"``); every
    match does begin with that text too."""
    try:
        tree = re._parser.parse(pattern)
    except (re.error, RecursionError, OverflowError):
        return None
    if tree.state.flags & ~re.UNICODE:
        return None
    lead = []
    for op, arg in tree:
        if op is not re._constants.LITERAL:
            break
        lead.append(chr(arg))
    return "".join(lead) or None


def _offsets(text: pa.Array) -> np.ndarray:
    """The n + 1 absolute offsets of a ``string`` array's rows into its
    data buffer."""
    return np.frombuffer(text.buffers()[1], np.int32,
                         count=text.offset + len(text) + 1)[text.offset:]


def _tails(text: pa.Array, offsets: np.ndarray,
           starts: np.ndarray) -> pa.Array:
    """Row i is ``text[i]`` from byte ``starts[i]`` (absolute, within row
    i) to its end. Offsets ``[o_0, s_0, o_1, s_1, ..., o_n]`` over
    ``text``'s own data buffer make row 2i the head and row 2i+1 the
    tail; only the tails are taken out."""
    n = len(text)
    inter = np.empty(2 * n + 1, offsets.dtype)
    inter[0::2] = offsets
    inter[1::2] = starts
    data = text.buffers()[2] or pa.py_buffer(b"")
    pieces = pa.Array.from_buffers(text.type, 2 * n,
                                   [None, pa.py_buffer(inter), data])
    return pieces.take(pa.array(np.arange(1, 2 * n, 2)))


def extract_regex_anchored(text: pa.Array, pattern: str,
                           lead: str) -> pa.StructArray:
    """``pc.extract_regex(text, pattern=pattern)`` for a non-empty
    ``string`` array and a pattern whose every match begins with
    ``lead`` (:func:`leading_literal`).

    No match can start before the first occurrence of ``lead``, so a
    match of ``^(?:pattern)`` on the row's tail from there is RE2's
    leftmost match, with the same groups. Where that fails, the leftmost
    match can only start at a later occurrence; rows with one run the
    unanchored pattern. A row without ``lead`` cannot match."""
    n = len(text)
    pos = pc.fill_null(pc.find_substring(text, lead), -1).to_numpy(
        zero_copy_only=False)
    offsets = _offsets(text)
    found = pos >= 0
    starts = np.where(found, offsets[:-1] + pos, offsets[1:])
    ext = pc.extract_regex(_tails(text, offsets, starts),
                           pattern=f"^(?:{pattern})")
    retry = found & ~ext.is_valid().to_numpy(zero_copy_only=False)
    if retry.any():
        # occurrences may overlap: the next one starts a code point later
        after = np.where(retry, starts + len(lead[0].encode()), offsets[1:])
        later = pc.find_substring(_tails(text, offsets, after), lead)
        retry &= pc.fill_null(later, -1).to_numpy(zero_copy_only=False) >= 0
    if not retry.any():
        return ext
    idx = np.nonzero(retry)[0]
    again = pc.extract_regex(text.take(pa.array(idx)), pattern=pattern)
    pick = np.arange(n)
    pick[idx] = n + np.arange(len(idx))
    return pa.concat_arrays([ext, again]).take(pa.array(pick))


class ParseStage:
    """Callable class for ``map_batches(ParseStage, batch_format="pyarrow",
    concurrency=N)`` — ruleset is validated/compiled once per actor."""

    def __init__(self, rules: tuple[ParseRule, ...] = DEFAULT_PARSE_RULES,
                 text_col: str = "text"):
        self.rules = tuple(rules)
        self.text_col = text_col
        self.hash = ruleset_hash(self.rules)
        self.rule_groups = [_group_names(r.pattern) for r in self.rules]
        self.leads = [leading_literal(r.pattern) for r in self.rules]
        self.all_groups: list[str] = []
        for gs in self.rule_groups:
            for g in gs:
                if g not in self.all_groups:
                    self.all_groups.append(g)
        self.casts: dict[str, str] = {}
        for r in self.rules:
            self.casts.update(r.casts)

    def _extract(self, i: int, text: pa.Array) -> pa.StructArray:
        lead = self.leads[i]
        if lead is None or not len(text) or text.type != pa.string():
            return pc.extract_regex(text, pattern=self.rules[i].pattern)
        return extract_regex_anchored(text, self.rules[i].pattern, lead)

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column(self.text_col)
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n = batch.num_rows
        out: dict[str, pa.Array] = {
            g: pa.nulls(n, pa.string()) for g in self.all_groups
        }
        rule_ix = np.full(n, -1, dtype=np.int8)
        unclaimed_np = np.ones(n, dtype=bool)
        for i in range(len(self.rules)):
            n_open = int(unclaimed_np.sum())
            if n_open == 0:
                break
            if n_open > 0.9 * n:
                # full-column pass (vectorized if_else merge)
                ext = self._extract(i, text)
                matched_np = ext.is_valid().to_numpy(zero_copy_only=False)
                wins_np = matched_np & unclaimed_np
                if wins_np.any():
                    rule_ix[wins_np] = i
                    wins = pa.array(wins_np)
                    for g in self.rule_groups[i]:
                        out[g] = pc.if_else(wins, pc.struct_field(ext, g), out[g])
                unclaimed_np &= ~matched_np
            else:
                # fast path: run the regex only on still-unclaimed rows and
                # scatter winners back (later rules usually see a small
                # residue after the first rule claims the bulk)
                idx = np.nonzero(unclaimed_np)[0]
                sub = text.take(pa.array(idx))
                ext = self._extract(i, sub)
                matched_sub = ext.is_valid().to_numpy(zero_copy_only=False)
                if matched_sub.any():
                    win_global = idx[matched_sub]
                    rule_ix[win_global] = i
                    # rows outside win_global keep their previous value:
                    # take from [previous values, winners]
                    pick = np.arange(n, dtype=np.int32)
                    pick[win_global] = n + np.arange(len(win_global),
                                                     dtype=np.int32)
                    pick = pa.array(pick)
                    won = pa.array(matched_sub)
                    for g in self.rule_groups[i]:
                        winners = pc.struct_field(ext, g).filter(won)
                        out[g] = pa.concat_arrays(
                            [out[g], winners.cast(out[g].type)]).take(pick)
                    unclaimed_np[idx] &= ~matched_sub
        for g, typ in self.casts.items():
            out[g] = out[g].cast(pa.type_for_alias(typ))
        res = batch
        for g in self.all_groups:
            res = res.append_column(g, out[g])
        return res.append_column("parse_rule", pa.array(rule_ix, pa.int8()))


def extract_all_explode(ds, text_col: str, pattern: str,
                        keep: list[str] | None = None,
                        out: str = "match"):
    """Explode EVERY regex match of ``pattern`` in ``text_col`` to its
    own output row carrying the ``keep`` columns — the all-matches
    generalization of the first-match ParseStage (contrib OTTL
    ``ExtractPatterns`` returns one match; a log pipeline pulling
    every IP / tag / token from a line needs them all). SQL mirror:
    ``unnest(regexp_extract_all(text, pattern))``. Rows with no match
    (or null text) contribute no output rows — exactly unnest's
    semantics.

    Scale shape: map-only — :func:`~..functions.text.extract_all`
    runs one vectorized Rust-regex pass per batch, the explode is an
    Arrow ``list_parent_indices`` take; nothing shuffles and output
    rows are skinny (keep + match only)."""
    import pyarrow as pa_
    import pyarrow.compute as pc_

    from ..functions.text import extract_all

    keep = list(keep or [])
    if out in keep or out == text_col:
        raise ValueError(
            f"extract_all_explode: output column {out!r} collides")

    def f(t: pa_.Table) -> pa_.Table:
        lists = extract_all(t.column(text_col), pattern)
        idx = pc_.list_parent_indices(lists)
        lanes = {k: t.column(k).take(idx) for k in keep}
        lanes[out] = pc_.list_flatten(lists)
        return pa_.table(lanes)

    return ds.map_batches(f, batch_format="pyarrow")
