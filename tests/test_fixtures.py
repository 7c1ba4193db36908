"""The registry's derived local fixtures (``__ray_entry__._fixture_dir``)
are keyed by their source files' bytes, not by name or row count."""

from __future__ import annotations

import glob
import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as entrymod


@pytest.fixture
def kind():
    """A fixture kind no registry query uses; its directories are
    removed afterwards."""
    kind = f"selftest{uuid.uuid4().hex[:8]}"
    yield kind
    for d in glob.glob(f"/tmp/graft_{kind}_*"):
        shutil.rmtree(d, ignore_errors=True)


def test_fixture_rebuilt_when_source_values_change(tmp_path, kind):
    src = str(tmp_path / "events.parquet")
    builds = []

    def build(stage: str) -> None:
        builds.append(stage)
        pq.write_table(pq.read_table(src), f"{stage}/copy.parquet")

    pq.write_table(pa.table({"v": [1, 2, 3]}), src)
    first = entrymod._fixture_dir(kind, [src], build)
    assert entrymod._fixture_dir(kind, [src], build) == first
    assert len(builds) == 1

    # same file name, same row count, other values: a new fixture
    pq.write_table(pa.table({"v": [1, 2, 4]}), src)
    second = entrymod._fixture_dir(kind, [src], build)
    assert second != first and len(builds) == 2
    assert pq.read_table(f"{second}/copy.parquet").column("v") \
        .to_pylist() == [1, 2, 4]
    assert sorted(glob.glob(f"/tmp/graft_{kind}_*")) == sorted(
        [first, second])


def test_fixture_lost_rename_keeps_the_winner(tmp_path, kind):
    """A concurrent run that finishes first keeps its copy; the loser's
    staging directory is removed."""
    src = str(tmp_path / "events.parquet")
    pq.write_table(pa.table({"v": [5]}), src)

    def build(stage: str) -> None:
        winner = stage.rsplit(".stage-", 1)[0]
        os.makedirs(winner)
        with open(f"{winner}/winner", "w") as f:
            f.write("1")
        with open(f"{stage}/loser", "w") as f:
            f.write("1")

    out = entrymod._fixture_dir(kind, [src], build)
    assert os.listdir(out) == ["winner"]
    assert glob.glob(f"/tmp/graft_{kind}_*") == [out]
