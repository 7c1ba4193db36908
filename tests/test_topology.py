"""Graph/topology semantics (SURVEY.md §2.7, reference
service/internal/graph/graph_test.go): multi-receiver fan-in union,
forward-connector identity, fan-out branch equivalence to single-pass
partitioned write, grouped_agg tree==bucket equivalence."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def test_multi_receiver_union(ray_session):
    import ray.data

    from opentelemetry_collector_ray.synth import synth_turns

    t = synth_turns(sf=0.05)
    a = ray.data.from_arrow(t.slice(0, 200))
    b = ray.data.from_arrow(t.slice(200))
    merged = a.union(b)  # implicit fan-in (graph.go:271-273)
    assert merged.count() == t.num_rows


def test_forward_connector_is_identity(ray_session):
    # forwardconnector (forward.go:57-90) = datasets compose directly; a
    # no-op stage preserves content exactly.
    import ray.data

    from opentelemetry_collector_ray.synth import synth_turns

    t = synth_turns(sf=0.03)
    ds = ray.data.from_arrow(t)
    fwd = ds.map_batches(lambda b: b, batch_format="pyarrow")
    got = fwd.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    exp = t.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


def test_fanout_branches_equal_partitioned_write(ray_session, tmp_path):
    """K filtered branches (fanout consumer) and the single-pass partitioned
    write must produce identical per-sink row sets (fanoutconsumer clone
    semantics dissolved by immutability)."""
    import ray.data

    from opentelemetry_collector_ray.pipelines.flagship import build_routed
    from opentelemetry_collector_ray.sinks.parquet_sink import write_routed
    from opentelemetry_collector_ray.synth import synth_turns

    t = synth_turns(sf=0.1)
    routed = build_routed(ray.data.from_arrow(t))
    out = str(tmp_path / "fanout")
    write_routed(routed, out)
    single_pass = {}
    for d in (tmp_path / "fanout").glob("route=*"):
        route = d.name.split("=", 1)[1]
        rows = pq.read_table(str(d)).to_pandas()
        single_pass[route] = set(zip(rows["conv_id"], rows["turn_idx"]))

    branches = {}
    routed_df = build_routed(ray.data.from_arrow(t)).to_pandas()
    for route, g in routed_df.groupby("route"):
        branches[route] = set(zip(g["conv_id"], g["turn_idx"]))
    assert single_pass == branches


def test_grouped_agg_tree_equals_bucket(ray_session, monkeypatch):
    # whole-second timestamps: min/max must keep timestamp[us] on both
    # paths (a sort-exchange aggregate once narrowed them to [s])
    import pyarrow.compute as pc
    import ray
    import ray.data

    from opentelemetry_collector_ray.stages import bucketing
    from opentelemetry_collector_ray.stages.aggregate import grouped_agg
    from opentelemetry_collector_ray.synth import synth_turns

    t = synth_turns(sf=0.1)
    ts = pc.cast(pc.floor_temporal(t.column("ts"), unit="second"),
                 pa.timestamp("us"))
    t = t.set_column(t.schema.get_field_index("ts"), "ts", ts)
    ds = ray.data.from_arrow(t).repartition(5)
    kw = dict(count_name="n", min_cols={"first": "ts"}, max_cols={"last": "ts"})

    def run(path: str) -> pa.Table:
        # "bucket": a one-task bound of 0 bytes forces the exchange
        with monkeypatch.context() as m:
            m.setattr(bucketing, "TARGET_BUCKET_BYTES",
                      0 if path == "bucket" else 1 << 62)
            out = grouped_agg(ds, ["role"], **kw)
        return pa.concat_tables(ray.get(out.to_arrow_refs())).sort_by("role")

    tree, bucket = run("tree"), run("bucket")
    assert tree.schema.field("first").type == pa.timestamp("us")
    assert tree.schema == bucket.schema
    assert tree.equals(bucket)


def test_config_driven_spans_pipeline(ray_session, tmp_path):
    """Signal-typed receiver: a YAML-shaped config builds the spans
    derivation (receiver per signal) and filters by service — the
    traces-pipeline analog of graph.Build."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pandas as pd

    from opentelemetry_collector_ray.config import PipelineConfig
    from opentelemetry_collector_ray.pipelines.builder import build_dataset

    ts = pd.to_datetime(["2024-01-01 10:00:05", "2024-01-01 10:10:00",
                         "2024-01-01 10:20:00"])
    ev = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array([7, 7, 7], pa.int64()),
        "event_type": pa.array(["signup", "error", "view"]),
        "value": pa.array([10.0, 30.9, 0.4]),
    })
    src = tmp_path / "events.parquet"
    pq.write_table(ev, str(src))
    cfg = PipelineConfig.from_dict({
        "receivers": {"spans": {"paths": str(src)}},
        "processors": {"filter": {
            "include": {"column": "service", "strict": ["backend"]}}},
        "exporters": {"parquet_sink/out": {}},
        "service": {"pipelines": {"traces": {
            "receivers": ["spans"], "processors": ["filter"],
            "exporters": ["parquet_sink/out"]}}},
    })
    out = build_dataset(cfg).to_pandas()
    assert len(out) == 1 and out.iloc[0]["service"] == "backend"
    assert out.iloc[0]["status_code"] == 2


def test_otlp_wire_pipeline_via_config(ray_session, tmp_path):
    """Collector-shaped wire topology from YAML: OTLP/JSON request files
    in → severity filter → OTLP protobuf request files out — the wire
    codecs as first-class pipeline components (receiver and exporter
    roles of the same type names, like the reference's otlp component)."""
    import json as jsonlib
    import os

    import pyarrow as pa

    from opentelemetry_collector_ray.config import PipelineConfig
    from opentelemetry_collector_ray.pipelines.builder import (
        build_dataset, run_exporters)
    from opentelemetry_collector_ray.sources.otlp_proto import (
        read_otlp_proto_logs)

    req = {"resourceLogs": [{
        "resource": {"attributes": [
            {"key": "service.name", "value": {"stringValue": "checkout"}}]},
        "scopeLogs": [{"scope": {"name": "lib", "version": "1"},
                       "logRecords": [
            {"timeUnixNano": "1", "severityNumber": 9,
             "severityText": "Info", "body": {"stringValue": "keep"},
             "attributes": [{"key": "n", "value": {"intValue": "7"}}]},
            {"timeUnixNano": "2", "severityNumber": 17,
             "severityText": "Error", "body": {"stringValue": "drop"}},
        ]}]}]}
    src = tmp_path / "in"
    src.mkdir()
    (src / "req-0.jsonl").write_text(jsonlib.dumps(req) + "\n")

    cfg = PipelineConfig.from_dict({
        "receivers": {"otlp_json": {"paths": str(src / "req-0.jsonl")}},
        "processors": {"filter": {
            "include": {"column": "severity_text", "strict": ["Info"]}}},
        "exporters": {"otlp_proto": {"path": "wire_out"}},
        "service": {"pipelines": {"logs": {
            "receivers": ["otlp_json"],
            "processors": ["filter"],
            "exporters": ["otlp_proto"]}}},
    })
    ds = build_dataset(cfg)
    out_root = str(tmp_path / "out")
    counts = run_exporters(cfg, ds, out_root)
    assert counts["otlp_proto"] == 1  # the Error record was filtered out
    back = read_otlp_proto_logs(os.path.join(out_root, "wire_out")) \
        .to_pandas()
    assert back["body"].tolist() == ["keep"]
    # the typed int attribute survived JSON → flat → proto
    attrs = dict(back["attributes"][0])
    assert attrs["n"]["vtype"] == 2 and attrs["n"]["i"] == 7
