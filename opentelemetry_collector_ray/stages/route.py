"""Routing stage: first-match rule evaluation adding a ``route`` column.

Collector analog: the routing-connector pattern — a connector used as an
exporter in one pipeline and a receiver in others, choosing a subset of
downstream pipelines per record (``/root/reference/connector/
logs_router.go:19-71``; left/right routing semantics tested in
``service/internal/graph/graph_test.go:1173-1410`` with
``testcomponents/example_router.go:33-90``). Predicates use the two modes
of the reference filter library (``/root/reference/filter/config.go:12-34``):
**strict** (exact set membership) or **regex**.

Because Arrow blocks are immutable, the fan-out consumer's clone-per-
mutating-branch machinery (``internal/fanoutconsumer/logs.go:21-78``)
dissolves: one vectorized pass computes ``route`` and sinks either filter
by route or write partitioned by it (single-pass fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


@dataclass(frozen=True)
class RouteRule:
    """One ordered predicate → sink name. All present conditions AND
    together; rules evaluate in order; first match wins."""

    sink: str
    strict: dict[str, tuple[str, ...]] = field(default_factory=dict)  # col -> allowed set
    regex: dict[str, str] = field(default_factory=dict)  # col -> RE2 pattern


# Fixture router (FIXTURES.md route_rules.yaml): three sinks `left`,
# `right`, `default` mirroring the reference's left/right router test.
DEFAULT_ROUTE_RULES: tuple[RouteRule, ...] = (
    RouteRule(sink="left", strict={"level": ("ERROR",)}),
    RouteRule(sink="right", strict={"tool": ("purchase", "signup", "python", "bash")}),
    RouteRule(sink="views", regex={"text": r"viewed page"}),
)
DEFAULT_SINK = "default"


class RouteStage:
    """Stateless-shaped callable (kept as a class so rules compile once per
    actor when used with concurrency=N). Appends ``route: string``."""

    adds_no_rows = True

    def __init__(self, rules: tuple[RouteRule, ...] = DEFAULT_ROUTE_RULES,
                 default_sink: str = DEFAULT_SINK):
        self.rules = tuple(rules)
        self.default_sink = default_sink
        self.sinks = tuple(dict.fromkeys([r.sink for r in rules] + [default_sink]))
        self.labels = pa.array([r.sink for r in self.rules] + [default_sink],
                               pa.string())

    def _rule_mask(self, batch: pa.Table, rule: RouteRule) -> pa.Array:
        mask = None
        for col, allowed in rule.strict.items():
            m = pc.is_in(batch.column(col), value_set=pa.array(allowed, pa.string()))
            m = pc.fill_null(m, False)
            mask = m if mask is None else pc.and_(mask, m)
        for col, pattern in rule.regex.items():
            m = pc.match_substring_regex(batch.column(col), pattern=pattern)
            m = pc.fill_null(m, False)
            mask = m if mask is None else pc.and_(mask, m)
        if mask is None:  # a rule with no conditions matches everything
            mask = pa.array(np.ones(batch.num_rows, dtype=bool))
        if isinstance(mask, pa.ChunkedArray):
            mask = mask.combine_chunks()
        return mask

    def __call__(self, batch: pa.Table) -> pa.Table:
        # reverse rule order into one index, so the first match wins; the
        # trailing slot of the label array is the default sink
        idx = np.full(batch.num_rows, len(self.rules), dtype=np.int32)
        for j in range(len(self.rules) - 1, -1, -1):
            idx[self._rule_mask(batch, self.rules[j]).to_numpy(
                zero_copy_only=False)] = j
        return batch.append_column("route", self.labels.take(pa.array(idx)))


def ring_assign(ds, key_col: str, backends: list[str], *,
                vnodes: int = 8, out_col: str = "backend"):
    """Consistent-hash ring assignment — the loadbalancing exporter's
    routing rule (contrib ``loadbalancingexporter``: each stream keyed
    to one backend via a hash ring, stable under backend churn): every
    backend contributes ``vnodes`` ring positions at
    ``md5(backend + '#' + j)`` (the 12-hex checksum-lane digest), a
    key hashes the same way and lands on the first ring position at or
    after it (wrapping) — so the SQL mirror is the identical md5
    expressions plus a MIN-over-ring lookup, and reassignment when a
    backend leaves only moves the keys in its arcs.

    Map-only: the ring (|backends|·vnodes rows) is built once on the
    driver and rides the closure; per batch the assignment is one
    md5 pass + one ``np.searchsorted`` against the sorted ring — NO
    exchange. Ties on a ring position resolve to the lexicographically
    smallest backend (total order, SQL ``ORDER BY pos, backend``)."""
    from ..functions.text import md5_mod

    if not backends:
        raise ValueError("ring_assign: backends must be non-empty")
    if len(set(backends)) != len(backends):
        raise ValueError("ring_assign: duplicate backend names")
    if vnodes < 1:
        raise ValueError("ring_assign: vnodes must be >= 1")
    full = 1 << 48  # the 12-hex digest domain
    labels = []
    pos = []
    for b in sorted(backends):
        points = md5_mod(
            pa.array([f"{b}#{j}" for j in range(vnodes)], pa.string()),
            full)
        labels += [b] * vnodes
        pos += points.tolist()
    order = sorted(range(len(pos)), key=lambda i: (pos[i], labels[i]))
    ring_pos = np.array([pos[i] for i in order], np.int64)
    ring_lab = np.array([labels[i] for i in order], object)

    def assign(t: pa.Table) -> pa.Table:
        keys = t.column(key_col)
        if not pa.types.is_string(keys.type):
            keys = pc.cast(keys, pa.string())
        h = md5_mod(keys, full)
        idx = np.searchsorted(ring_pos, h, side="left")
        idx[idx == len(ring_pos)] = 0  # wrap past the last point
        return t.append_column(out_col,
                               pa.array(ring_lab[idx], pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def rendezvous_assign(ds, key_col: str, backends: list[str], *,
                      out_col: str = "backend"):
    """Rendezvous (highest-random-weight) hashing — the OTHER classic
    consistent routing rule beside :func:`ring_assign` (Thaler &
    Ravishankar 1998): a key goes to the backend with the LARGEST
    ``md5(backend + '#' + key)`` weight. No ring to build or balance —
    every backend competes for every key, so losing a backend moves
    exactly that backend's keys and nothing else, and load spreads
    evenly without vnodes.

    Map-only like the ring: per batch, one digest pass per backend
    (|backends| is small — it is a routing table, not a key domain)
    then one vectorized argmax; NO exchange. Ties (a 48-bit digest
    collision) resolve to the lexicographically smallest backend, the
    same total order the SQL mirror's ``ORDER BY wt DESC, backend``
    yields."""
    from ..functions.text import md5_mod

    if not backends:
        raise ValueError("rendezvous_assign: backends must be non-empty")
    if len(set(backends)) != len(backends):
        raise ValueError("rendezvous_assign: duplicate backend names")
    full = 1 << 48  # the 12-hex digest domain
    blist = sorted(backends)  # ascending: later ties never win argmax

    def assign(t: pa.Table) -> pa.Table:
        keys = t.column(key_col)
        if not pa.types.is_string(keys.type):
            keys = pc.cast(keys, pa.string())
        weights = np.stack([
            md5_mod(pc.binary_join_element_wise(
                pa.scalar(f"{b}#"), keys, ""), full)
            for b in blist])
        # argmax returns the FIRST maximal row index = smallest backend
        idx = np.argmax(weights, axis=0)
        lab = np.array(blist, object)[idx]
        return t.append_column(out_col, pa.array(lab, pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")
