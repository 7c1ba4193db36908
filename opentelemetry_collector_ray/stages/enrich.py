"""Enrichment stage: small-dictionary lookups appending attribute columns.

Collector analog: the attributes/resource-enrichment processor family
(k8sattributes / resourcedetection pattern, named in
``/root/reference/docs/rfcs/processing.md:88-95``), whose surface is
``pcommon.Map`` mutation. The collector has **no relational join**
(SURVEY.md §2.4); enrichment is always a small side table — so here it is
a hash lookup inside ``map_batches`` against dictionaries small enough
to ship with the stage itself, never a shuffle join.

Three dictionary kinds (FIXTURES.md side inputs):
- exact-key maps (tool -> family/cost, role -> kind) via ``pc.index_in`` +
  ``take`` (pure Arrow, zero-copy);
- longest-prefix match (conv_id prefix -> tenant/env) via ordered
  ``pc.starts_with`` passes (k passes for k prefixes, k small) into one
  int32 index, then ``take``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Fixture dictionaries (FIXTURES.md): 12-entry tool dict, 4-entry role dict,
# prefix-matched resource dict.
TOOL_DICT: dict[str, tuple[str, str]] = {
    # tool -> (tool_family, tool_cost_class)
    "search": ("retrieval", "low"),
    "browser": ("retrieval", "medium"),
    "python": ("compute", "high"),
    "bash": ("compute", "medium"),
    "calculator": ("compute", "low"),
    "sql": ("data", "medium"),
    "retrieval": ("retrieval", "low"),
    "email": ("comm", "low"),
    "calendar": ("comm", "low"),
    "files": ("data", "low"),
    "translate": ("nlp", "medium"),
    "vision": ("nlp", "high"),
    # event-derived tool vocabulary (sources/transcripts.py)
    "click": ("ui", "low"),
    "purchase": ("commerce", "high"),
    "signup": ("account", "medium"),
    "error": ("diagnostics", "high"),
}
ROLE_DICT: dict[str, str] = {
    "user": "human",
    "assistant": "model",
    "system": "control",
    "tool": "machine",
}
# Ordered longest-prefix-first (resource-detection analog).
RESOURCE_PREFIXES: list[tuple[str, str, str]] = [
    ("conv-00000000", "tenant-zero", "prod"),
    ("conv-0000000", "tenant-small", "prod"),
    ("conv-000000", "tenant-mid", "staging"),
    ("conv-", "tenant-default", "dev"),
]


def _lookup_exact(col: pa.ChunkedArray, mapping: dict[str, tuple | str],
                  default: tuple | str) -> list[pa.Array]:
    """Vectorized dict lookup: index_in against the key vocabulary, then take
    from each value column (with a trailing default slot for misses)."""
    keys = pa.array(list(mapping.keys()), pa.string())
    idx = pc.index_in(col, value_set=keys)
    idx = pc.fill_null(idx, len(mapping))  # default slot
    vals = list(mapping.values())
    if vals and isinstance(vals[0], tuple):
        width = len(vals[0])
        outs = []
        for j in range(width):
            value_col = pa.array([v[j] for v in vals] + [default[j]], pa.string())
            outs.append(pc.take(value_col, idx))
        return outs
    value_col = pa.array(list(vals) + [default], pa.string())
    return [pc.take(value_col, idx)]


def _lookup_prefix(col: pa.ChunkedArray, prefixes: list[tuple[str, str, str]],
                   default: tuple[str, str] = ("tenant-unknown", "none"),
                   ) -> tuple[pa.Array, pa.Array]:
    """Ordered prefix lookup, first match wins: masks are applied in
    reverse order into one int32 index (an earlier prefix overwrites a
    later one), then each value column is one ``take`` from the values
    plus a trailing default slot."""
    idx = np.full(len(col), len(prefixes), dtype=np.int32)
    for j in range(len(prefixes) - 1, -1, -1):
        m = pc.fill_null(pc.starts_with(col, pattern=prefixes[j][0]), False)
        idx[m.to_numpy(zero_copy_only=False)] = j
    take = pa.array(idx)
    tenant = pa.array([t for _, t, _ in prefixes] + [default[0]], pa.string())
    env = pa.array([e for _, _, e in prefixes] + [default[1]], pa.string())
    return tenant.take(take), env.take(take)


class EnrichStage:
    """Stateless stage: ``map_batches(EnrichStage(), batch_format=
    "pyarrow")``. The dictionaries are the module-level fixtures; they are
    small, so they ship inside the pickled stage with each task."""

    adds_no_rows = True

    def __init__(self, tool_col: str = "tool", role_col: str = "role",
                 conv_col: str = "conv_id"):
        self.tool_col, self.role_col, self.conv_col = tool_col, role_col, conv_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        fam, cost = _lookup_exact(batch.column(self.tool_col), TOOL_DICT,
                                  ("unknown", "unknown"))
        (kind,) = _lookup_exact(batch.column(self.role_col), ROLE_DICT, "unknown")
        tenant, env = _lookup_prefix(batch.column(self.conv_col), RESOURCE_PREFIXES)
        return (batch
                .append_column("tool_family", fam)
                .append_column("tool_cost_class", cost)
                .append_column("role_kind", kind)
                .append_column("tenant", tenant)
                .append_column("env", env))


def range_lookup(ds: ray.data.Dataset, col: str, breaks, labels,
                 out_col: str | None = None) -> ray.data.Dataset:
    """Broadcast RANGE-table enrichment: map a numeric column onto
    labeled half-open bins ``[breaks[i], breaks[i+1])`` — the IP-block
    / price-band / latency-SLO lookup pattern (the reference's analog
    is a chained OTTL set(...) where; at scale a CASE chain per row is
    wrong, one ``np.searchsorted`` per batch is right).

    ``len(labels) == len(breaks) + 1``: ``labels[0]`` covers
    ``(-inf, breaks[0])``, ``labels[i]`` covers
    ``[breaks[i-1], breaks[i])``, ``labels[-1]`` covers
    ``[breaks[-1], inf)``. Breaks must be strictly increasing (loud
    check, once). The tiny table ships inside the closure — one
    ``ray.put`` under the hood via Ray's argument store."""
    breaks_arr = np.asarray(breaks)
    if len(breaks_arr) == 0:
        raise ValueError("range_lookup: breaks must be non-empty")
    if not (np.diff(breaks_arr) > 0).all():
        raise ValueError("range_lookup: breaks must be strictly "
                         "increasing")
    if len(labels) != len(breaks_arr) + 1:
        raise ValueError(
            f"range_lookup: need len(breaks)+1 labels, got "
            f"{len(labels)} labels for {len(breaks_arr)} breaks")
    labels_pa = pa.array([str(x) for x in labels], pa.string())
    out_col = out_col or f"{col}_band"

    def apply(t: pa.Table) -> pa.Table:
        x = t.column(col)
        if x.null_count:
            raise ValueError(
                f"range_lookup: {col!r} has nulls — a null has no "
                "band; fill or drop them first")
        v = x.to_numpy(zero_copy_only=False)
        idx = np.searchsorted(breaks_arr, v, side="right")
        return t.append_column(
            out_col, labels_pa.take(pa.array(idx, pa.int64())))

    return ds.map_batches(apply, batch_format="pyarrow")
