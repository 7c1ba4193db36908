"""Survival analysis — Kaplan–Meier life-table PARTS over a
subject-level dataset: per distinct duration, the number of observed
events (``d``), right-censored exits (``c``) and the at-risk count
(subjects with duration ≥ t). The retention/conversion-curve
primitive (time-to-purchase, time-to-churn, crash-free time): the KM
survival estimate is ``Π_{t' ≤ t} (1 − d/at_risk)`` — a float
product the caller computes from these EXACT integer lanes, so the
distributed operator never touches a float (same lanes-only discipline
as the PMI / correlation / chi-square parts operators).

Scale shape: the input is already one row per SUBJECT (bound the
10^12-event table to |subjects| upstream with a grouped reduce); the
life table itself is |distinct durations| rows — banded durations
(days, not microseconds) keep it broadcast-small, enforced by an HLL
screen that fires BEFORE the tree combine's single task can exist.
The at-risk column is one reverse cumsum over the sorted table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .aggregate import grouped_agg


def km_parts(subjects: ray.data.Dataset, duration_col: str,
             observed_col: str,
             max_durations: int = 20_000_000) -> ray.data.Dataset:
    """Life table from subject rows: ``duration_col`` (non-negative
    integer, pre-banded — days/hours, never raw microseconds) and
    ``observed_col`` ∈ {1 event observed, 0 right-censored}. Returns
    ``(duration, d, c, at_risk)`` with durations ascending."""
    from .sketch import approx_distinct

    def lanes(t: pa.Table) -> pa.Table:
        dur = t.column(duration_col)
        obs = t.column(observed_col)
        if dur.null_count or obs.null_count:
            raise ValueError(
                "km_parts: duration/observed columns must be non-null")
        dv = dur.to_numpy(zero_copy_only=False)
        ov = obs.to_numpy(zero_copy_only=False)
        if dv.dtype.kind not in "iu" or (len(dv) and dv.min() < 0):
            raise ValueError(
                "km_parts: duration must be a non-negative integer "
                f"(got {dv.dtype}) — band it upstream (days, hours)")
        if len(ov) and not np.isin(ov, (0, 1)).all():
            raise ValueError("km_parts: observed must be 0 or 1")
        return pa.table({"_t": pa.array(dv.astype(np.int64)),
                         "_d": pa.array(ov.astype(np.int64)),
                         "_c": pa.array(1 - ov.astype(np.int64))})

    skinny = subjects.map_batches(lanes, batch_format="pyarrow")
    est = approx_distinct(skinny, "_t")
    if est > max_durations:
        raise ValueError(
            f"km_parts: ~{int(est):,} distinct durations (HLL "
            f"estimate, max_durations={max_durations:,}) — the life "
            "table would not fit one combine task; band the durations "
            "coarser or raise the cap")
    counts = grouped_agg(skinny, ["_t"],
                         sum_cols={"d": "_d", "c": "_c"})
    pdf = counts.to_pandas().sort_values("_t").reset_index(drop=True)
    exits = (pdf["d"] + pdf["c"]).to_numpy()
    at_risk = exits[::-1].cumsum()[::-1] if len(exits) else exits
    return ray.data.from_arrow(pa.table({
        "duration": pa.array(pdf["_t"].to_numpy()),
        "d": pa.array(pdf["d"].to_numpy()),
        "c": pa.array(pdf["c"].to_numpy()),
        "at_risk": pa.array(at_risk.astype(np.int64))}))
