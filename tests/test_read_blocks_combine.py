"""File-sized read blocks and the one-barrier combine.

``read_block_count`` decides how many blocks (hence Ray tasks) a parquet
read produces; ``combine_all`` is the single ``repartition(1)`` → merge
step under every tree aggregate and sketch builder."""

from __future__ import annotations

import inspect
import re

import pyarrow as pa
import pyarrow.parquet as pq


def _touch(path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    pq.write_table(pa.table({"x": [1]}), path)
    return str(path)


def test_read_block_count_rule(tmp_path):
    from opentelemetry_collector_ray.sources.parquet import read_block_count

    files = [_touch(tmp_path / "list" / f"f{i}.parquet") for i in range(5)]
    # a list of files: one block per file once files outnumber 2 x CPUs
    assert read_block_count(files, cpus=1) == 5
    assert read_block_count(files, cpus=2) == 5
    # more CPUs than files: 2 blocks per CPU, so files get split
    assert read_block_count(files, cpus=4) == 8
    # a single file at 1 CPU reads as 2 blocks
    assert read_block_count(files[0], cpus=1) == 2
    # a directory counts the files under it, skipping the names pyarrow
    # skips (``_SUCCESS``, dot-files, ``_``/``.`` directories)
    d = tmp_path / "dir"
    for rel in ("a.parquet", "b.parquet", "route=x/c.parquet",
                "route=y/deep/d.parquet", "_SUCCESS", ".a.parquet.crc",
                "_tmp/e.parquet", ".hidden/f.parquet"):
        _touch(d / rel)
    assert read_block_count(str(d), cpus=1) == 4
    assert read_block_count([str(d), files[0]], cpus=1) == 5
    assert read_block_count(str(d), cpus=3) == 6
    # a path this process cannot see leaves Ray's autodetect in charge
    assert read_block_count(str(tmp_path / "missing"), cpus=1) is None
    assert read_block_count([files[0], "s3://bucket/x.parquet"], 1) is None


def _allops(op):
    yield op
    for dep in op.input_dependencies:
        yield from _allops(dep)


def test_flagship_one_barrier_matches_duckdb(ray_session, tmp_path):
    """Eight fragments at 4 CPUs: eight read tasks (no fragment is
    split), one all-to-all operator (the ``repartition(1)`` in front of
    the single combine), and exactly DuckDB's counts."""
    import ray
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll)

    from opentelemetry_collector_ray.pipelines.flagship import (
        build_aggregate, build_routed)
    from opentelemetry_collector_ray.sources.parquet import read_turns
    from opentelemetry_collector_ray.synth import synth_turns
    from perfbench.inputs import oracle_flagship

    table = synth_turns(sf=0.2, seed=3)
    per = -(-table.num_rows // 8)
    paths = []
    for i in range(8):
        paths.append(str(tmp_path / f"turns-{i}.parquet"))
        pq.write_table(table.slice(i * per, per), paths[-1])

    ds = build_aggregate(build_routed(read_turns(paths)))
    barriers = [op.name for op in _allops(ds._logical_plan.dag)
                if isinstance(op, AbstractAllToAll)]
    assert barriers == ["Repartition"]

    mat = ds.materialize()
    got = pa.concat_tables(ray.get(mat.to_arrow_refs()))
    stats = mat.stats()
    assert "SplitBlocks" not in stats
    # the read is fused with the maps after it: "ReadParquet->...: 8 tasks"
    assert re.search(r"ReadParquet(->[^:\n]*)?: 8 tasks executed", stats)
    assert stats.count("Repartition:") == 1

    def keyed(t: pa.Table) -> dict:
        return {(r, ro, to, b): n for r, ro, to, b, n in zip(
            *(t.column(c).to_pylist()
              for c in ("route", "role", "tool", "bucket", "n_turns")))}

    want = keyed(oracle_flagship(paths))
    assert keyed(got) == want
    assert sum(want.values()) == table.num_rows


def test_one_barrier_empty_input(ray_session):
    """Ray runs no map UDF over an empty dataset: the shared combine
    yields no rows, and the single-row reduce reports ``None`` so the
    caller can supply its identity element."""
    import ray.data

    from opentelemetry_collector_ray.stages.aggregate import grouped_count
    from opentelemetry_collector_ray.stages.sketch import _merge_regs
    from opentelemetry_collector_ray.stages.treereduce import (
        tree_reduce_single)

    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.string())}))
    assert grouped_count(empty, ["k"]).count() == 0
    regs = empty.map_batches(
        lambda t: pa.table({"regs": pa.array([b"\0"] * t.num_rows,
                                             pa.binary())}),
        batch_format="pyarrow")
    assert tree_reduce_single(regs, _merge_regs) is None


def test_build_routed_batch_size_default_is_int():
    """The benchmark's layer trace reads this default through
    ``inspect.signature`` and slices fragments with it."""
    from opentelemetry_collector_ray.pipelines.flagship import build_routed

    default = inspect.signature(build_routed).parameters["batch_size"].default
    assert type(default) is int and default > 0


def test_no_fanin_parameter_left():
    """The two-level tree's ``fanin`` knob is gone from every stage."""
    import importlib
    import pkgutil

    import opentelemetry_collector_ray.stages as stages

    with_fanin = []
    for mod in pkgutil.iter_modules(stages.__path__):
        m = importlib.import_module(f"{stages.__name__}.{mod.name}")
        for name, fn in inspect.getmembers(m, inspect.isfunction):
            if fn.__module__ == m.__name__ and \
                    "fanin" in inspect.signature(fn).parameters:
                with_fanin.append(f"{mod.name}.{name}")
    assert with_fanin == []
