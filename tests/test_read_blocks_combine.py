"""File-sized read blocks and the one-barrier combine.

``plan_read(...).blocks`` decides how many blocks (hence Ray tasks) a
parquet read produces; ``combine_all`` is the single ``repartition(1)`` → merge
step under every tree aggregate and sketch builder."""

from __future__ import annotations

import ast
import glob
import inspect
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq


def _touch(path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    pq.write_table(pa.table({"x": [1]}), path)
    return str(path)


def test_read_block_count_rule(tmp_path):
    from opentelemetry_collector_ray.sources.parquet import plan_read

    files = [_touch(tmp_path / "list" / f"f{i}.parquet") for i in range(5)]
    # tiny files are bundled: together they hold less than 1 MiB, so they
    # are one read task at any CPU count
    assert plan_read(files, cpus=1).blocks == 1
    assert plan_read(files, cpus=2).blocks == 1
    assert plan_read(files, cpus=4).blocks == 1
    # a single tiny file at 1 CPU reads as 1 block
    assert plan_read(files[0], cpus=1).blocks == 1
    # a directory reads the files under it in path order, skipping the
    # names pyarrow skips (``_SUCCESS``, dot-files, ``_``/``.`` directories)
    d = tmp_path / "dir"
    for rel in ("a.parquet", "b.parquet", "route=x/c.parquet",
                "route=y/deep/d.parquet", "_SUCCESS", ".a.parquet.crc",
                "_tmp/e.parquet", ".hidden/f.parquet"):
        _touch(d / rel)
    assert plan_read(str(d), cpus=1).blocks == 1
    assert [os.path.relpath(f, d) for f in plan_read(str(d), 1).files] == [
        "a.parquet", "b.parquet", "route=x/c.parquet",
        os.path.join("route=y", "deep", "d.parquet")]
    assert plan_read([str(d), files[0]], cpus=1).blocks == 1
    assert len(plan_read([str(d), files[0]], 1).files) == 5
    assert plan_read(str(d), cpus=3).blocks == 1
    # a path this process cannot see leaves Ray's autodetect in charge
    assert plan_read(str(tmp_path / "missing"), cpus=1) is None
    assert plan_read([files[0], "s3://bucket/x.parquet"], 1) is None


def _ints(path: str, n: int) -> str:
    """A file of ``n`` plain-encoded int64 rows: 8 bytes a row by its
    footer."""
    import numpy as np

    pq.write_table(pa.table({"x": np.arange(n)}), path, use_dictionary=False)
    return path


def test_read_block_count_splits_by_footer_bytes(tmp_path):
    """A file splits only into pieces of at least Ray's
    ``target_min_block_size`` (1 MiB) by its footer bytes, counting just
    the columns read: ``min(2 x cpus, bytes // 1 MiB)``."""
    import numpy as np
    from ray.data import DataContext

    from opentelemetry_collector_ray.sources.parquet import plan_read

    assert DataContext.get_current().target_min_block_size == 1 << 20
    path = str(tmp_path / "big.parquet")
    n = 300_000  # 2.3 MiB per int64 column, plain-encoded
    pq.write_table(pa.table({"x": np.arange(n), "y": np.arange(n)}), path,
                   use_dictionary=False, row_group_size=100_000)
    md = pq.read_metadata(path)
    footer = sum(md.row_group(i).total_byte_size
                 for i in range(md.num_row_groups))
    assert footer // (1 << 20) == 4
    assert plan_read(path, cpus=1).blocks == 2
    assert plan_read(path, cpus=2).blocks == 4
    assert plan_read(path, cpus=4).blocks == 4   # capped by bytes
    assert plan_read(path, cpus=4, columns=["x"]).blocks == 2
    # each tiny file is one block; the big one adds no pieces past
    # the file count
    tiny = [_touch(tmp_path / f"t{i}.parquet") for i in range(3)]
    assert plan_read([path, *tiny], cpus=4).blocks == 4
    assert plan_read([path, *tiny], cpus=8).blocks == 4
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"x": pa.array([], pa.int64())}), empty)
    assert plan_read(empty, cpus=4).blocks == 1


def test_read_block_count_reads_each_footer_once(tmp_path, monkeypatch):
    """The plan reads each file's footer once, whatever the CPU count."""
    from opentelemetry_collector_ray.sources import parquet

    files = [_touch(tmp_path / f"f{i}.parquet") for i in range(8)]
    read_metadata, reads = parquet.pq.read_metadata, []

    def counted(path, *args, **kwargs):
        reads.append(path)
        return read_metadata(path, *args, **kwargs)

    monkeypatch.setattr(parquet.pq, "read_metadata", counted)
    for cpus in (1, 4, 5):
        reads.clear()
        assert parquet.plan_read(files, cpus=cpus).blocks == 1
        assert reads == files
    reads.clear()
    assert parquet.plan_read(str(tmp_path), cpus=4).blocks == 1
    assert reads == files


def test_neighbouring_files_bundle_to_two_tasks_per_cpu(tmp_path):
    """Eight 1.2 MiB files: two read tasks of four files at 1 CPU, one
    task per file at 4 CPUs, and one task per file when asked for."""
    from opentelemetry_collector_ray.sources.parquet import plan_read

    files = [_ints(str(tmp_path / f"f{i}.parquet"), 160_000)
             for i in range(8)]
    one = plan_read(files, 1)
    assert [list(r) for r in one.runs] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert one.blocks == 2
    two = plan_read(files, 2)
    assert [list(r) for r in two.runs] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    four = plan_read(files, 4)
    assert [list(r) for r in four.runs] == [[i] for i in range(8)]
    assert four.blocks == 8
    per_file = plan_read(files, 1, one_task_per_file=True)
    assert [list(r) for r in per_file.runs] == [[i] for i in range(8)]
    assert per_file.blocks == 8
    # an explicit block count: that many tasks, or a split of fewer
    assert len(plan_read(files, 1, blocks=3).runs) == 3
    split = plan_read(files[0], 1, blocks=8)
    assert len(split.runs) == 1 and split.blocks == 8


def test_runs_cut_neighbours_by_bytes():
    from opentelemetry_collector_ray.sources.parquet import _runs

    def cut(nbytes, k):
        return [list(r) for r in _runs(nbytes, k)]

    assert cut([1] * 8, 3) == [[0, 1, 2], [3, 4, 5], [6, 7]]
    assert cut([5, 1, 1, 1, 1, 1], 2) == [[0], [1, 2, 3, 4, 5]]
    # every run gets a file, even when the bytes sit in the first
    assert cut([10, 0, 0], 3) == [[0], [1], [2]]
    assert cut([0, 0, 0, 0], 2) == [[0], [1, 2, 3]]
    assert cut([3, 2], 1) == [[0, 1]]


# Direct ``read_parquet`` calls in the package outside sources/parquet.py,
# by file and enclosing function, with their counts.
READ_PARQUET_CALLERS = {
    "config.py::_register_builtins.make_agg_delta": 1,
    "sources/incremental.py::IncrementalParquetSource.__init__.read": 1,
    "stages/bucketing.py::persisted_factory": 1,
    "stages/graph.py::pagerank": 1,
    "stages/layout.py::read_pruned": 1,
    "stages/ranking.py::query_inverted_index": 1,
    "stages/ranking.py::query_near.posts_for": 1,
    "stages/ranking.py::query_phrase.posts_for": 1,
    "stages/seenindex.py::dedup_against_index": 1,
    "stages/seenindex.py::compact_seen_index": 1,
    "stages/similarity.py::ann_query_index": 1,
    "stages/similarity.py::_ivfpq_query": 1,
}


def _read_parquet_calls(source: str, path: str) -> dict[str, int]:
    """``path::qualified.function`` -> number of ``*.read_parquet(...)``
    calls in it (``<module>`` at top level)."""
    found: dict[str, int] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + [child.name]
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Attribute) and \
                    child.func.attr == "read_parquet":
                key = f"{path}::{'.'.join(scope) or '<module>'}"
                found[key] = found.get(key, 0) + 1
            visit(child, inner)

    visit(ast.parse(source, path), [])
    return found


def test_read_parquet_call_sites_are_known():
    """A new parquet read goes through ``sources/parquet.read_turns``,
    whose block rule keeps a small file one unsplit block that Ray
    fuses with the maps after it; ``ray.data.read_parquet`` called
    directly asks for Ray's autodetected block count."""
    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "opentelemetry_collector_ray")
    calls: dict[str, int] = {}
    for f in sorted(glob.glob(os.path.join(pkg, "**", "*.py"),
                              recursive=True)):
        rel = os.path.relpath(f, pkg).replace(os.sep, "/")
        if rel == "sources/parquet.py":
            continue
        with open(f) as fh:
            calls.update(_read_parquet_calls(fh.read(), rel))
    new = {k: v for k, v in calls.items()
           if v > READ_PARQUET_CALLERS.get(k, 0)}
    assert not new, (
        f"direct read_parquet calls {sorted(new)}: read through "
        "sources/parquet.read_turns instead, so the read gets its "
        "fusion-safe block count")
    assert calls == READ_PARQUET_CALLERS  # a removed call leaves the list
    assert _read_parquet_calls(
        "import ray\nx = ray.data.read_parquet('a')\n"
        "def f():\n    def g():\n        return rd.read_parquet(p)\n",
        "m.py") == {"m.py::<module>": 1, "m.py::f.g": 1}


def _allops(op):
    yield op
    for dep in op.input_dependencies:
        yield from _allops(dep)


def test_flagship_one_barrier_matches_duckdb(ray_session, tmp_path):
    """Eight fragments at 4 CPUs: the read tasks ``plan_read``
    plans (no fragment is split), one all-to-all operator (the
    ``repartition(1)`` in front of the single combine), and exactly
    DuckDB's counts."""
    import ray
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll)

    from opentelemetry_collector_ray.pipelines.flagship import (
        build_aggregate, build_routed)
    from opentelemetry_collector_ray.sources.parquet import (plan_read,
                                                             read_turns)
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
    # the read is fused with the maps after it: "ReadParquet->...: k tasks"
    tasks = plan_read(paths, ray.cluster_resources()["CPU"]).blocks
    assert re.search(rf"ReadParquet(->[^:\n]*)?: {tasks} tasks executed",
                     stats)
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
