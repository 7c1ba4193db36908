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

Execution: each rule runs over the batch's text column with vectorized
Arrow kernels, and the results merge by priority: while every row is
still open (the first rule), a rule's groups become the output columns
as they are; later, they go in with ``pc.if_else`` (or, on a small
residue, an index take). The stage is a
callable class so the compiled ruleset + its hash live once per actor.
- A rule whose every match begins with literal text (``[`` for both
  default rules; see :func:`leading_literal`) runs anchored: each row is
  cut at the first occurrence of that text and RE2 matches
  ``^(?:pattern)`` on the rest, which spares it the unanchored search.
  Rows where the anchored match fails but the literal occurs again go
  through the unanchored pattern, so the output is exactly
  ``pc.extract_regex``'s.
- A rule that also lowers (:func:`lower`; both default rules do) runs no
  RE2 submatch extraction at all: RE2 only answers whether each row
  matches, and each group is then cut out by byte offsets, because in
  such a pattern every group ends at a delimiter no match of it can
  contain, at a fixed width, or (``.*`` last) at the line end.
- Any other rule runs ``pc.extract_regex``.
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


@dataclass(frozen=True)
class Step:
    """One step of a lowered rule (:func:`lower`), walked left to right
    from the match start: a literal run (``group`` None) or a fixed-width
    group advances ``width`` bytes; a group with ``until`` ends at the
    first ``until`` (one code point) from its start, or at the row end
    where there is none."""
    group: str | None
    width: int = 0
    until: bytes = b""


_C = re._constants
_CLASS_OPS = (_C.LITERAL, _C.NOT_LITERAL, _C.IN, _C.ANY)
# RE2's Perl classes are ASCII (``\s`` is ``[\t\n\f\r ]``; ``\v`` is
# added here, which can only refuse more)
_CATEGORY = {
    _C.CATEGORY_DIGIT: lambda c: 48 <= c <= 57,
    _C.CATEGORY_WORD: lambda c: c == 95 or c < 128 and chr(c).isalnum(),
    _C.CATEGORY_SPACE: lambda c: c in b"\t\n\v\f\r ",
}
_CATEGORY.update({
    _C.CATEGORY_NOT_DIGIT: lambda c: not _CATEGORY[_C.CATEGORY_DIGIT](c),
    _C.CATEGORY_NOT_WORD: lambda c: not _CATEGORY[_C.CATEGORY_WORD](c),
    _C.CATEGORY_NOT_SPACE: lambda c: not _CATEGORY[_C.CATEGORY_SPACE](c),
})


def _class_has(op, arg, cp: int) -> bool:
    """Whether one code point matched by the class node ``(op, arg)`` can
    be ``cp``."""
    if op is _C.LITERAL:
        return arg == cp
    if op is _C.NOT_LITERAL:
        return arg != cp
    if op is _C.ANY:
        return cp != 10  # no DOTALL: a rule with flags does not lower
    negate = bool(arg) and arg[0][0] is _C.NEGATE
    hit = False
    for iop, iarg in arg[negate:]:
        if iop is _C.LITERAL:
            hit |= iarg == cp
        elif iop is _C.RANGE:
            hit |= iarg[0] <= cp <= iarg[1]
        else:
            hit |= _CATEGORY[iarg](cp)
    return hit != negate


def _class_ascii(op, arg) -> bool:
    """Whether every code point the class node ``(op, arg)`` matches is
    ASCII, that is one byte."""
    if op is _C.LITERAL:
        return arg < 128
    if op is not _C.IN or (arg and arg[0][0] is _C.NEGATE):
        return False
    return all(iop is _C.LITERAL and iarg < 128
               or iop is _C.RANGE and iarg[1] < 128
               or iop is _C.CATEGORY and iarg in (
                   _C.CATEGORY_DIGIT, _C.CATEGORY_WORD, _C.CATEGORY_SPACE)
               for iop, iarg in arg)


def _group_shape(body):
    """``(may contain code point cp?, fixed byte width or None, ends at
    the row's first newline if last?)`` for a named group's body, or None
    when it is not one class repeat or an alternation of literals."""
    if len(body) != 1:
        return None
    op, arg = body[0]
    if op is _C.BRANCH:
        alts = arg[1]
        if not all(o is _C.LITERAL for alt in alts for o, _ in alt):
            return None
        chars = {a for alt in alts for _, a in alt}
        return (chars.__contains__, None, False)
    if op in _CLASS_OPS:
        lo = hi = 1
    elif op is _C.MAX_REPEAT and len(arg[2]) == 1 \
            and arg[2][0][0] in _CLASS_OPS:
        lo, hi, ((op, arg),) = arg
    else:
        return None
    fixed = lo if lo == hi and _class_ascii(op, arg) else None
    return (lambda cp: _class_has(op, arg, cp), fixed,
            op is _C.ANY and lo == 0 and hi == _C.MAXREPEAT)


def lower(pattern: str) -> tuple[Step, ...] | None:
    """The pattern as steps that cut each named group out of a matched
    row by byte offsets, or None when it does not lower.

    A pattern lowers when it has a leading literal (:func:`leading_literal`)
    and its top-level sequence holds only literal runs and named groups,
    each group one of:
    - a class repeat (``C+``, ``C*``, ``C{m,n}``, or one class) or an
      alternation of literals, followed by a literal whose first code
      point no match of the group can contain: it ends there;
    - a fixed-width ASCII class (``[0-9a-f]{16}``): it is that many bytes;
    - last, ``.*``: it ends at the first newline or the row end.
    A match of the pattern therefore fixes where every group starts and
    ends, so the steps give RE2's own submatches. Classes are read as RE2
    reads them: its digit, word and space classes are ASCII. A POSIX
    class (``[[:alpha:]]``), which the stdlib reads as something else,
    does not lower."""
    if "[:" in pattern or leading_literal(pattern) is None:
        return None
    tree = re._parser.parse(pattern)
    names = {i: g for g, i in tree.state.groupdict.items()}
    nodes = list(tree)
    steps: list[Step] = []
    for k, (op, arg) in enumerate(nodes):
        if op is _C.LITERAL:
            if steps and steps[-1].group is None:
                width = steps.pop().width
            else:
                width = 0
            steps.append(Step(None, width + len(chr(arg).encode())))
            continue
        if op is not _C.SUBPATTERN or arg[0] not in names \
                or arg[1] or arg[2]:
            return None
        shape = _group_shape(arg[3])
        if shape is None:
            return None
        has, fixed, to_line = shape
        nxt = nodes[k + 1] if k + 1 < len(nodes) else None
        if fixed is not None:
            steps.append(Step(names[arg[0]], width=fixed))
        elif nxt is not None and nxt[0] is _C.LITERAL and not has(nxt[1]):
            steps.append(Step(names[arg[0]], until=chr(nxt[1]).encode()))
        elif nxt is None and to_line:
            steps.append(Step(names[arg[0]], until=b"\n"))
        else:
            return None
    return tuple(steps) if any(s.group for s in steps) else None


def _offsets(text: pa.Array) -> np.ndarray:
    """The n + 1 absolute offsets of a ``string`` array's rows into its
    data buffer."""
    return np.frombuffer(text.buffers()[1], np.int32,
                         count=text.offset + len(text) + 1)[text.offset:]


def _spans(text: pa.Array, bounds: np.ndarray) -> pa.Array:
    """A zero-copy ``string`` array over ``text``'s data buffer whose
    rows are the consecutive spans between ``bounds`` (absolute byte
    offsets, non-decreasing)."""
    data = text.buffers()[2] or pa.py_buffer(b"")
    return pa.Array.from_buffers(text.type, len(bounds) - 1,
                                 [None, pa.py_buffer(bounds), data])


def _pairs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``[lo_0, hi_0, lo_1, hi_1, ...]``: with ``lo_i <= hi_i <= lo_i+1``,
    row 2i of its :func:`_spans` is ``[lo_i, hi_i)``."""
    inter = np.empty(2 * len(lo), np.int32)
    inter[0::2] = lo
    inter[1::2] = hi
    return inter


def _tails(text: pa.Array, offsets: np.ndarray,
           starts: np.ndarray) -> pa.Array:
    """Row i is ``text[i]`` from byte ``starts[i]`` (absolute, within row
    i) to its end. Offsets ``[o_0, s_0, o_1, s_1, ..., o_n]`` over
    ``text``'s own data buffer make row 2i the head and row 2i+1 the
    tail; only the tails are taken out."""
    pieces = _spans(text, np.append(_pairs(offsets[:-1], starts),
                                    offsets[-1:]))
    return pieces.take(pa.array(np.arange(1, 2 * len(text), 2)))


def _run_on(text: pa.Array, starts: np.ndarray,
            ends: np.ndarray) -> pa.Array:
    """Row j runs from byte ``starts[j]`` to ``starts[j + 1]`` (the last
    to ``ends[-1]``) over ``text``'s data buffer: the bytes from
    ``starts[j]`` to its own row end ``ends[j]``, then on into the rows
    after it. Zero-copy; needs ``starts[j] <= ends[j] <= starts[j + 1]``."""
    return _spans(text, np.append(starts, ends[-1:]))


def _cut(text: pa.Array, offsets: np.ndarray, starts: np.ndarray,
         matched: np.ndarray, steps: tuple[Step, ...],
         ) -> tuple[list[pa.Array], np.ndarray]:
    """``(groups, matched)`` for a lowered rule whose anchored pattern
    RE2 ``matched`` on the :func:`_run_on` view from ``starts``.

    Each delimited group ends at its delimiter's first occurrence from
    the group's start (one ``find_substring`` over a run-on view), or at
    the row end when that is sooner; each literal and fixed group adds
    its width. Because the view runs past the row end, a match may have
    used the next rows' bytes: a row whose literal or fixed step ends
    past its own end does not match. A delimited group is always
    followed by a literal, so one that the row cut short fails there.
    Each group is one null-masked take from an offsets view over the
    data buffer."""
    n = len(text)
    rows = np.flatnonzero(matched)
    if not len(rows):
        return [pa.nulls(n, text.type) for s in steps if s.group], matched
    ends = offsets[rows + 1]
    pos = starts[rows]
    inside = np.ones(len(rows), bool)
    cuts = []
    for s in steps:
        if s.until:
            at = pc.find_substring(_run_on(text, pos, ends),
                                   s.until.decode()).to_numpy()
            stop = np.minimum(np.where(at >= 0, pos + at, ends), ends)
        else:
            stop = pos + s.width
            inside &= stop <= ends
            stop = np.minimum(stop, ends)
        if s.group:
            cuts.append((pos, stop))
        pos = stop
    matched = matched.copy()
    matched[rows[~inside]] = False
    pick = np.zeros(n, np.int64)
    pick[rows] = np.arange(0, 2 * len(rows), 2)
    pick = pa.array(pick, mask=~matched)
    return [_spans(text, _pairs(lo, hi)).take(pick) for lo, hi in cuts], \
        matched


def extract_regex_anchored(text: pa.Array, pattern: str, lead: str,
                           steps: tuple[Step, ...] | None = None,
                           ) -> pa.StructArray:
    """``pc.extract_regex(text, pattern=pattern)`` for a non-empty
    ``string`` array and a pattern whose every match begins with
    ``lead`` (:func:`leading_literal`).

    No match can start before the first occurrence of ``lead``, so a
    match of ``^(?:pattern)`` on the row's tail from there is RE2's
    leftmost match, with the same groups. Where that fails, the leftmost
    match can only start at a later occurrence; rows with one run the
    unanchored pattern. A row without ``lead`` cannot match.

    With ``steps`` (``lower(pattern)``), RE2 only matches, with no
    submatches and no copy: over a view of each row from its first
    ``lead`` on (:func:`_run_on`). :func:`_cut` then cuts the groups out
    by byte offsets."""
    n = len(text)
    pos = pc.fill_null(pc.find_substring(text, lead), -1).to_numpy(
        zero_copy_only=False)
    offsets = _offsets(text)
    found = pos >= 0
    starts = np.where(found, offsets[:-1] + pos, offsets[1:])
    anchored = f"^(?:{pattern})"
    if steps is None:
        ext = pc.extract_regex(_tails(text, offsets, starts),
                               pattern=anchored)
        matched = ext.is_valid().to_numpy(zero_copy_only=False)
    else:
        matched = found & pc.match_substring_regex(
            _run_on(text, starts, offsets[1:]), pattern=anchored).to_numpy(
                zero_copy_only=False)
        groups, matched = _cut(text, offsets, starts, matched, steps)
        ext = pa.StructArray.from_arrays(
            groups, [s.group for s in steps if s.group],
            mask=pa.array(~matched))
    retry = found & ~matched
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

    adds_no_rows = True

    def __init__(self, rules: tuple[ParseRule, ...] = DEFAULT_PARSE_RULES,
                 text_col: str = "text"):
        self.rules = tuple(rules)
        self.text_col = text_col
        self.hash = ruleset_hash(self.rules)
        self.rule_groups = [_group_names(r.pattern) for r in self.rules]
        self.leads = [leading_literal(r.pattern) for r in self.rules]
        self.steps = [lower(r.pattern) for r in self.rules]
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
        return extract_regex_anchored(text, self.rules[i].pattern, lead,
                                      self.steps[i])

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
                        # with every row open, out[g] is still all null
                        out[g] = (pc.struct_field(ext, g) if n_open == n else
                                  pc.if_else(wins, pc.struct_field(ext, g),
                                             out[g]))
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
