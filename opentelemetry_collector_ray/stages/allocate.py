"""Proportional quota allocation (Hamilton / largest-remainder
apportionment) — the "give each category its fair share of a fixed
budget" primitive behind sampling quotas, shard budgets and traffic
splits (the batch analog of weighted fan-out ratios in routing
configurations; the routing connector lives in
opentelemetry-collector-contrib, ``connector/routingconnector``, not in
the core collector).

Exact integers end to end: ``base = seats·n // total`` plus one extra
seat to the ``seats - Σbase`` largest remainders (ties broken by key
ascending — the same ORDER BY the SQL oracle uses), so ``Σ seats_g ==
seats`` always holds and DuckDB reproduces the result bit for bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from .aggregate import grouped_agg


def apportion(ds: ray.data.Dataset, keys: list[str], n_seats: int, *,
              weight_col: str | None = None, count_name: str = "n",
              seat_name: str = "seats",
              max_groups: int = 1_000_000) -> ray.data.Dataset:
    """Allocate ``n_seats`` across the distinct ``keys`` groups
    proportionally to row count (or an integer ``weight_col`` sum) by
    the largest-remainder method.

    Distribution shape: one two-phase grouped aggregate (partials
    bound the reduce input to |keys per batch| rows), then the
    apportionment itself over the grouped table in ONE final task —
    valid because apportionment is only meaningful over a bounded
    category domain; ``max_groups`` raises loudly if the key set
    explodes."""
    if n_seats < 0:
        raise ValueError("apportion: n_seats must be >= 0")
    keep = list(keys) + ([weight_col] if weight_col else [])
    counts = grouped_agg(
        ds.select_columns(keep), list(keys),
        count_name=count_name if weight_col is None else None,
        sum_cols={count_name: weight_col} if weight_col else None)

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows > max_groups:
            raise ValueError(
                f"apportion: {t.num_rows} groups exceeds max_groups="
                f"{max_groups} — apportionment needs a bounded domain")
        n = t.column(count_name).to_numpy(zero_copy_only=False)
        if t.num_rows == 0:
            return t.append_column(
                seat_name, pa.array(np.empty(0, np.int64)))
        if (n < 0).any():
            raise ValueError("apportion: negative weights")
        if n.sum() == 0:
            # Σ seats == n_seats is the documented invariant; with zero
            # total weight there is no proportional answer (the SQL
            # mirror divides by zero here) — fail loudly
            raise ValueError(
                "apportion: total weight is 0 — cannot apportion "
                f"{n_seats} seats proportionally")
        tot = int(n.sum())
        if n_seats and tot > (2**63 - 1) // n_seats:
            raise ValueError(
                f"apportion: n_seats*total = {n_seats}*{tot} would "
                "overflow int64 — rescale the weights")
        prod = n_seats * n
        base = prod // tot
        rem = prod % tot
        extra = int(n_seats - base.sum())
        # ORDER BY rem DESC, keys ASC — lexsort's last key is primary
        tie = [t.column(k).to_numpy(zero_copy_only=False)
               for k in reversed(keys)]
        order = np.lexsort(tuple(tie) + (-rem,))
        seats = base.copy()
        seats[order[:extra]] += 1
        return t.append_column(seat_name, pa.array(seats.astype(np.int64)))

    return counts.repartition(1).map_batches(
        fin, batch_format="pyarrow", batch_size=None)
