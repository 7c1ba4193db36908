"""Log template mining: mask variable fragments, group identical shapes.

The classic log-pipeline reduction (Drain / He et al. 2017 templates,
the logdedup/logtransform family in the reference's contrib ecosystem —
cf. the parse stage's compile-once ruleset discipline,
``/root/reference/filter/config.go:42-58``): replace the variable parts
of a log body (numbers, hex ids, uuids) with typed placeholders so the
BOUNDED set of template shapes remains, then count occurrences per
template and keep one concrete example line.

Unlike Drain's online prefix-tree heuristic this masker is a pure
deterministic function of each line — so the result is exactly
SQL-expressible (DuckDB ``regexp_replace(..., 'g')`` chains, both
engines RE2) and identical under any partitioning.

Scale shape: masking is one vectorized ``pc.replace_substring_regex``
pass per rule per batch (zero-copy Arrow, no Python per row); the
combine is the shared two-phase grouped aggregate — per-batch partials
bound the exchange to |templates-in-batch| rows per block, so a 100 TB
log stream reduces to the (bounded) template set; above one task's worth
of input the merge runs per hash bucket, so the result stays distributed.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .aggregate import grouped_agg

# Ordered masking rules (first listed is applied first — hex/uuid BEFORE
# bare digits, or the digit rule would shred them): (name, RE2 pattern,
# replacement). Patterns must stay in RE2's common-subset syntax so the
# DuckDB oracle chain behaves identically.
DEFAULT_MASK_RULES: tuple[tuple[str, str, str], ...] = (
    ("uuid", r"\b[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}"
             r"-[0-9a-f]{12}\b", "<UUID>"),
    ("hex", r"\b[0-9a-f]{16,}\b", "<HEX>"),
    ("num", r"\d+", "<NUM>"),
)


def mask_templates_sql(text_expr: str,
                       rules: tuple[tuple[str, str, str], ...]
                       = DEFAULT_MASK_RULES) -> str:
    """The DuckDB mirror of the masking chain — kept beside the rules so
    oracle SQL can never drift from the engine's order of application."""
    expr = text_expr
    for _name, pattern, token in rules:
        expr = f"regexp_replace({expr}, '{pattern}', '{token}', 'g')"
    return expr


def mine_templates(ds: ray.data.Dataset, text_col: str = "text", *,
                   rules: tuple[tuple[str, str, str], ...]
                   = DEFAULT_MASK_RULES,
                   template_name: str = "template",
                   count_name: str = "n",
                   example_name: str = "example",
                   n_buckets: int | str = "auto") -> ray.data.Dataset:
    """Mask each line with ``rules`` (in order) and aggregate per
    template: occurrence count plus the lexicographically-smallest
    concrete line as the example (min is mergeable, so the example is
    deterministic under any partitioning).

    Output: (template, n, example).
    """
    if not rules:
        raise ValueError("mine_templates: rules must be non-empty")

    def mask(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        tmpl = col
        for _name, pattern, token in rules:
            tmpl = pc.replace_substring_regex(
                tmpl, pattern=pattern, replacement=token)
        return pa.table({template_name: tmpl, example_name: col})

    masked = ds.select_columns([text_col]).map_batches(
        mask, batch_format="pyarrow")
    return grouped_agg(masked, [template_name], count_name=count_name,
                       min_cols={example_name: example_name},
                       n_buckets=n_buckets)
