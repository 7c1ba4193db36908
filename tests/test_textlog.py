"""filelog-receiver analog (sources/textlog.py): JSONL parse per file,
compression sniffing, schema pinning, severity mapping."""

import gzip
import json

import pyarrow as pa
import pytest

from opentelemetry_collector_ray.sources.textlog import (
    read_jsonl, read_text_logs, severity_number)


def _write(tmp_path, name, rows, gz=False):
    blob = "\n".join(json.dumps(r) for r in rows).encode()
    p = tmp_path / name
    p.write_bytes(gzip.compress(blob) if gz else blob)
    return str(p)


def test_read_jsonl_mixed_compression(ray_session, tmp_path):
    rows1 = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    rows2 = [{"a": 3, "b": "z"}]
    paths = [_write(tmp_path, "p0.jsonl", rows1),
             _write(tmp_path, "p1.jsonl.gz", rows2, gz=True)]
    out = read_jsonl(paths).to_pandas().sort_values("a")
    assert out["a"].tolist() == [1, 2, 3]
    assert out["b"].tolist() == ["x", "y", "z"]


def test_read_jsonl_schema_pins_and_ignores_extras(ray_session,
                                                   tmp_path):
    rows = [{"a": 1, "junk": "drop-me"}, {"a": 2}]
    p = _write(tmp_path, "p.jsonl", rows)
    schema = pa.schema([("a", pa.int64()), ("c", pa.string())])
    out = read_jsonl([p], schema=schema).to_pandas()
    assert list(out.columns) == ["a", "c"]  # extras ignored, c null
    assert out["a"].tolist() == [1, 2]
    assert out["c"].isna().all()


def test_read_jsonl_empty_file(ray_session, tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_bytes(b"")
    schema = pa.schema([("a", pa.int64())])
    out = read_jsonl([str(p)], schema=schema)
    assert out.count() == 0


def test_read_text_logs_lines(ray_session, tmp_path):
    p = tmp_path / "app.log"
    p.write_bytes(b"line one\nline two\nline three")
    out = read_text_logs([str(p)]).to_pandas()
    assert out["text"].tolist() == ["line one", "line two", "line three"]


def test_jsonl_receiver_via_yaml_builder(ray_session, tmp_path):
    """jsonl / textlog as YAML receivers equal the direct calls."""
    from opentelemetry_collector_ray.config import PipelineConfig
    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    p = _write(tmp_path, "a.jsonl", [{"a": 1, "b": "x"},
                                     {"a": 2, "b": "y"}])

    def build(rname, rcfg):
        return build_dataset(PipelineConfig.from_dict({
            "receivers": {rname: rcfg},
            "exporters": {"debug": {}},
            "service": {"pipelines": {"logs": {
                "receivers": [rname], "processors": [],
                "exporters": ["debug"]}}},
        }))

    out = build("jsonl", {"paths": p,
                          "schema": {"a": "int64", "b": "string"}}
                ).to_pandas().sort_values("a")
    assert out["a"].tolist() == [1, 2]

    t = tmp_path / "plain.log"
    t.write_bytes(b"x\ny")
    out2 = build("textlog", {"paths": str(t)}).to_pandas()
    assert sorted(out2["text"].tolist()) == ["x", "y"]

    m = tmp_path / "ml.log"
    m.write_bytes(b"START a\n cont\nSTART b\n")
    out3 = build("multiline", {"paths": str(m),
                               "start_pattern": "^START"}).to_pandas()
    assert sorted(out3["text"].tolist()) == ["START a\n cont", "START b"]
    with pytest.raises(ValueError, match="start_pattern"):
        build("multiline", {"paths": str(m)})


def test_multiline_grouping(ray_session, tmp_path):
    """Stack-trace lines join onto their start line; a leading tail
    (file opens mid-record) is kept as record 0; per-file record_index
    restarts."""
    from opentelemetry_collector_ray.sources.textlog import (
        read_multiline_logs)

    p1 = tmp_path / "a.log"
    p1.write_bytes(
        b"2026-01-01 ERROR boom\n"
        b"  at foo.py:1\n"
        b"  at bar.py:2\n"
        b"2026-01-02 INFO ok\n")
    p2 = tmp_path / "b.log"
    p2.write_bytes(
        b"  orphan continuation\n"
        b"2026-01-03 WARN slow\n"
        b"  detail\n")
    out = read_multiline_logs(
        [str(p1), str(p2)], r"^\d{4}-\d{2}-\d{2} ").to_pandas()
    recs = sorted(out["text"].tolist())
    assert "2026-01-01 ERROR boom\n  at foo.py:1\n  at bar.py:2" in recs
    assert "2026-01-02 INFO ok" in recs
    assert "  orphan continuation" in recs
    assert "2026-01-03 WARN slow\n  detail" in recs
    assert len(recs) == 4
    assert sorted(out["record_index"].tolist()) == [0, 0, 1, 1]

    empty = tmp_path / "e.log"
    empty.write_bytes(b"")
    oute = read_multiline_logs([str(empty)], r"^x")
    assert oute.count() == 0

    # review finding: U+2028 inside a message must NOT split the line
    u = tmp_path / "u.log"
    u.write_bytes("START one still one\nSTART two\r\n".encode())
    outu = read_multiline_logs([str(u)], r"^START").to_pandas()
    assert sorted(outu["text"].tolist()) == \
        ["START one still one", "START two"]


def test_log_analytics_example_yaml(ray_session, tmp_path, monkeypatch):
    """examples/log_analytics.yaml end to end: multiline receiver →
    regex parse → severity filter, over a planted app log with a stack
    trace."""
    from opentelemetry_collector_ray.config import PipelineConfig
    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    log = tmp_path / "app.log"
    log.write_bytes(
        b"2026-01-01T10:00:00 INFO api: served request\n"
        b"2026-01-01T10:00:01 ERROR worker: boom\n"
        b"Traceback (most recent call last):\n"
        b"  File \"w.py\", line 3\n"
        b"2026-01-01T10:00:02 WARN api: slow response\n"
        b"2026-01-01T10:00:03 DEBUG api: cache hit\n")
    monkeypatch.setenv("LOG_DIR", str(log))
    from pathlib import Path

    yml = Path(__file__).resolve().parent.parent / "examples" \
        / "log_analytics.yaml"
    cfg = PipelineConfig.from_yaml(str(yml))
    out = build_dataset(cfg).to_pandas()
    assert sorted(out["level"].tolist()) == ["ERROR", "WARN"]
    err = out[out["level"] == "ERROR"].iloc[0]
    assert err["service"] == "worker"
    assert "Traceback" in err["text"]  # the stack trace rode along


def test_severity_number_mapping():
    col = pa.chunked_array([pa.array(
        ["TRACE", "Debug", "info", "WARN", "Warning", "error", "FATAL",
         "bogus", None])])
    assert severity_number(col).to_pylist() == \
        [1, 5, 9, 13, 13, 17, 21, 0, 0]


def test_write_prom_text_help_header_per_metric(ray_session, tmp_path):
    """``# HELP <metric> <text>``, once per distinct metric name in a
    page, just before that name's first sample; the samples read back
    exactly as written."""
    import os

    import ray.data

    from opentelemetry_collector_ray.sources.textlog import (
        read_prom_text, write_prom_text)

    t = pa.table({
        "metric": ["req_total", "req_total", "mem_bytes", "req_total"],
        "labels": ['code="200"', 'code="500"', "", 'code="404"'],
        "value": pa.array([7, 1, 4096, 2], pa.int64()),
        "ts_ms": pa.array([10, None, 12, 13], pa.int64())})
    out = tmp_path / "prom"
    assert write_prom_text(ray.data.from_arrow(t), str(out),
                           help_text="from the test") == 4
    (page,) = [out / f for f in os.listdir(out)]
    lines = page.read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("#")] == [
        "# HELP req_total from the test", "# HELP mem_bytes from the test"]
    assert lines[0] == "# HELP req_total from the test"
    assert lines[lines.index("# HELP mem_bytes from the test") + 1] \
        == "mem_bytes 4096 12"
    back = read_prom_text([str(page)]).take_all()
    assert [(r["metric"], r["labels"], r["value"], r["ts_ms"])
            for r in back] == [
        ("req_total", 'code="200"', "7", 10),
        ("req_total", 'code="500"', "1", None),
        ("mem_bytes", "", "4096", 12),
        ("req_total", 'code="404"', "2", 13)]
