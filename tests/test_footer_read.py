"""``read_turns`` plans a local read from the Parquet footers; its rows,
schema and ``path`` values must equal ``ray.data.read_parquet``'s over
the same input, bundled or one task per file."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest


def _collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()),
                            promote_options="default")


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _turns(sf: float = 0.05, seed: int = 4) -> pa.Table:
    from opentelemetry_collector_ray.synth import synth_turns

    return synth_turns(sf=sf, seed=seed)


def _shards(tmp_path, table: pa.Table, n: int) -> list[str]:
    per = -(-table.num_rows // n)
    paths = []
    for i in range(n):
        paths.append(str(tmp_path / f"turns-{i}.parquet"))
        pq.write_table(table.slice(i * per, per), paths[-1])
    return paths


def _hive_dir(tmp_path) -> str:
    """Files at the top, under Hive ``route=`` directories, and under
    ``_``/``.`` names a read skips."""
    t = _turns()
    d = tmp_path / "hive"
    for rel, lo in (("a.parquet", 0), ("route=x/b.parquet", 100),
                    ("route=y/c.parquet", 200), ("_tmp/d.parquet", 300),
                    (".hidden/e.parquet", 400), ("_SUCCESS", None)):
        (d / rel).parent.mkdir(parents=True, exist_ok=True)
        if lo is None:
            (d / rel).write_text("")
        else:
            pq.write_table(t.slice(lo, 100), str(d / rel))
    return str(d)


def _with_empty(tmp_path) -> list[str]:
    paths = _shards(tmp_path, _turns(), 3)
    empty = str(tmp_path / "turns-empty.parquet")
    pq.write_table(_turns().slice(0, 0), empty)
    return [paths[0], empty, *paths[1:]]


def _missing_column(tmp_path) -> list[str]:
    t = _turns()
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(t.slice(0, 200), a)
    pq.write_table(t.slice(200).drop_columns(["tool"]), b)
    return [a, b]


CASES = {
    "several_files": (lambda p: _shards(p, _turns(), 5), {}),
    "hive_dir": (_hive_dir, {}),
    "hive_dir_paths": (_hive_dir, {"include_paths": True}),
    "zero_row_file": (_with_empty, {"include_paths": True}),
    "missing_column": (_missing_column, {}),
    "columns": (lambda p: _shards(p, _turns(), 4),
                {"columns": ["text", "conv_id"]}),
    "filter": (lambda p: _shards(p, _turns(), 4),
               {"filter_expr": pc.field("role") == "tool"}),
    "include_paths": (lambda p: _shards(p, _turns(), 4),
                      {"include_paths": True}),
}


@pytest.mark.parametrize("one_task_per_file", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_read_turns_equals_read_parquet(ray_session, tmp_path, case,
                                        one_task_per_file):
    import ray.data

    from opentelemetry_collector_ray.sources.parquet import read_turns

    make, kw = CASES[case]
    paths = make(tmp_path)
    ray_kw = {k: v for k, v in kw.items() if k != "filter_expr"}
    if "filter_expr" in kw:
        ray_kw["filter"] = kw["filter_expr"]
    want = _collect(ray.data.read_parquet(paths, **ray_kw))
    got = _collect(read_turns(paths, one_task_per_file=one_task_per_file,
                              **kw))
    assert got.num_rows == want.num_rows > 0
    if case.startswith("hive_dir"):
        # one bundled task concatenates blocks whose column sets differ,
        # and Ray's concat then drops the schema metadata
        assert got.schema.remove_metadata() == want.schema.remove_metadata()
    else:
        assert got.schema.equals(want.schema, check_metadata=True)
    # with include_paths the ``path`` values are compared row by row here
    assert _sorted(got).equals(_sorted(want))


def test_zero_row_table_is_dropped(tmp_path):
    """A read task yields no zero-row table, as Ray's reader drops them."""
    from opentelemetry_collector_ray.sources.parquet import _read_run

    paths = _with_empty(tmp_path)
    schema = pq.read_schema(paths[0])
    tables = list(_read_run(paths, None, None, schema, None, True))
    assert [t.column("path")[0].as_py() for t in tables] == \
        [paths[0], *paths[2:]]
    assert all(t.num_rows for t in tables)


def test_hive_columns_and_skipped_names(ray_session, tmp_path):
    """The ``route`` column comes from the directory names, and files
    under ``_``/``.`` directories are not read."""
    from opentelemetry_collector_ray.sources.parquet import read_turns

    got = _collect(read_turns(_hive_dir(tmp_path), include_paths=True))
    by_file = {p: r for p, r in zip(got.column("path").to_pylist(),
                                    got.column("route").to_pylist())}
    assert {p.rsplit("hive/", 1)[1]: r for p, r in by_file.items()} == {
        "a.parquet": None, "route=x/b.parquet": "x",
        "route=y/c.parquet": "y"}


def test_build_submits_no_task(ray_session, tmp_path, monkeypatch):
    """Building ``read_turns`` over local files samples no fragment and
    submits no Ray task; the tasks run only when the plan executes."""
    import ray.data._internal.datasource.parquet_datasource as ray_pq
    from ray.remote_function import RemoteFunction

    from opentelemetry_collector_ray.sources.parquet import read_turns

    paths = _shards(tmp_path, _turns(), 4)

    def refuse(*args, **kwargs):
        raise AssertionError("a Ray task was submitted while planning")

    with monkeypatch.context() as m:
        m.setattr(ray_pq, "sample_fragments", refuse)
        m.setattr(RemoteFunction, "_remote", refuse)
        ds = read_turns(paths)
        schema = ds.schema(fetch_if_missing=False)
    assert schema is not None and "text" in schema.names
    assert ds.count() == _turns().num_rows
