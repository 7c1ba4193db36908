"""One map operator for a run of batch stages.

A collector pushes each batch once through all its processors
(``consumer/logs.go:15-20``). :class:`StageChain` does the same inside
one Ray ``map_batches`` call: it cuts each block into ``batch_size``-row
slices and runs every stage on a slice before the next slice starts, so
a task holds one slice's intermediates, not a whole block's. When the
last stage reduces (a partial aggregate), only the small per-slice
outputs are kept and concatenated.

:func:`then` appends a stage to the chain a dataset already ends with,
instead of mapping it as a separate operator, unless the caller asks
for batches of its own size. The flagship's partial count joins its
chain this way and runs per slice.
"""

from __future__ import annotations

import copy

import pyarrow as pa

import ray.data
from ray.data.block import BlockAccessor


class StageChain:
    """Runs ``stages`` in order over each ``batch_size``-row slice of a
    block (the whole block when ``batch_size`` is None) and concatenates
    the slices. A stage's output that is not a ``pa.Table`` becomes one
    as Ray turns a UDF's output into the next fused op's ``pyarrow``
    batch. A zero-row block still goes through the stages once, so its
    output has the full schema."""

    def __init__(self, stages, batch_size: int | None):
        self.stages = tuple(stages)
        self.batch_size = batch_size

    @property
    def adds_no_rows(self) -> bool:
        return all(getattr(s, "adds_no_rows", False) for s in self.stages)

    def __call__(self, block: pa.Table) -> pa.Table:
        step = self.batch_size or max(block.num_rows, 1)
        out = []
        for lo in range(0, max(block.num_rows, 1), step):
            batch = block.slice(lo, step)
            for stage in self.stages:
                batch = stage(batch)
                if not isinstance(batch, pa.Table):
                    batch = BlockAccessor.for_block(
                        BlockAccessor.batch_to_block(batch)).to_arrow()
            out.append(batch)
        return out[0] if len(out) == 1 else pa.concat_tables(out)


def _folds_into(op) -> bool:
    """Whether ``op`` is a chain map that one more stage can join: a
    ``MapBatches`` over a :class:`StageChain` with no ``batch_size``, no
    fn args and the default task compute."""
    from ray.data._internal.compute import TaskPoolStrategy

    return (type(op).__name__ == "MapBatches"
            and isinstance(op._fn, StageChain)
            and op._batch_size is None
            and not op._fn_args and not op._fn_kwargs
            and op._compute == TaskPoolStrategy())


def then(ds: ray.data.Dataset, stage, batch_size: int | None = None,
         ) -> ray.data.Dataset:
    """``ds`` followed by ``stage`` (a pyarrow batch map). When
    ``batch_size`` is None and ``ds`` ends with a chain map
    (:func:`_folds_into`), the result is a copy of that operator over
    the same input whose chain runs ``stage`` last, so ``stage`` sees
    each slice of the chain's output; ``ds`` itself is left as it was.
    Otherwise, or when Ray's logical plan no longer has the shape read
    here, ``ds.map_batches(stage, batch_size=...)``: a caller that asks
    for its own batches (a partial that should see few, large ones)
    gets them."""
    try:
        from ray.data._internal.logical.interfaces import LogicalPlan

        op = ds._logical_plan.dag
        if batch_size is None and _folds_into(op):
            chain = op._fn
            folded = copy.copy(op)
            folded._fn = StageChain(chain.stages + (stage,), chain.batch_size)
            folded._input_dependencies = list(op.input_dependencies)
            folded._output_dependencies = []
            folded._wire_output_deps(folded.input_dependencies)
            return ray.data.Dataset(ds._plan.copy(),
                                    LogicalPlan(folded, ds.context))
    except (AttributeError, ImportError):
        pass
    return ds.map_batches(stage, batch_format="pyarrow", batch_size=batch_size)
