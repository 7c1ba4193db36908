"""OTLP metrics wire formats — protobuf AND JSON codecs for the pmetric
hierarchy (``/root/reference/pdata/pmetric/pb.go:10-17`` /
``pmetric/json.go``), completing the wire story for the metrics signal
(all 5 metric types are implemented analytically in stages/aggregate.py,
stages/metricsops.py, stages/spanops.py, stages/sketch.py).

Field numbers mirror the generated marshalers exactly
(``pdata/internal/generated_proto_metric.go:513-578`` and the per-point
files — tags verified against the 0x.. constants in MarshalProto):

    MetricsData:     resource_metrics=1
    ResourceMetrics: resource=1  scope_metrics=2  schema_url=3
    ScopeMetrics:    scope=1  metrics=2  schema_url=3
    Metric:          name=1 description=2 unit=3 gauge=5 sum=7 histogram=9
                     exponential_histogram=10 summary=11 metadata=12
    Gauge:           data_points=1
    Sum:             data_points=1 aggregation_temporality=2(varint)
                     is_monotonic=3(varint)
    Histogram:       data_points=1 aggregation_temporality=2
    ExponentialHistogram: data_points=1 aggregation_temporality=2
    Summary:         data_points=1
    NumberDataPoint: start_time=2(I64) time=3(I64) as_double=4(I64)
                     exemplars=5 as_int=6(sfixed64) attributes=7 flags=8
    HistogramDataPoint: start=2 time=3 count=4(fixed64) sum=5(double)
                     bucket_counts=6(packed fixed64)
                     explicit_bounds=7(packed double) exemplars=8
                     attributes=9 flags=10 min=11 max=12
    ExponentialHistogramDataPoint: attributes=1 start=2 time=3
                     count=4(fixed64) sum=5 scale=6(ZIGZAG varint)
                     zero_count=7(fixed64) positive=8 negative=9 flags=10
                     exemplars=11 min=12 max=13 zero_threshold=14
    Buckets:         offset=1(ZIGZAG varint) bucket_counts=2(packed varint)
    SummaryDataPoint: start=2 time=3 count=4(fixed64) sum=5(double)
                     quantile_values=6 attributes=7 flags=8
    ValueAtQuantile: quantile=1(double) value=2(double)

    Exemplar:        time=2(I64) as_double=3(I64) span_id=4 trace_id=5
                     as_int=6(sfixed64) filtered_attributes=7
                     (``generated_proto_exemplar.go:342-374`` — note
                     span_id is field 4 and trace_id field 5)

Flat-table model — ONE ROW PER DATA POINT with the metric identity
(name/description/unit/type + sum temporality/monotonicity) denormalized
into columns, exactly the move the logs/spans codecs make for
resource/scope context; encoding re-nests by (resource, scope, metric).
Attributes are the TYPED pcommon.Value map (functions/typedattrs.py);
exemplars ride as a nested list (time, int/double value, trace/span ids,
typed filtered attributes), histogram min/max as nullable doubles.

This is a WIRE CODEC: per-record Python is inherent (the reference's
generated Go marshalers are per-record too); bulk analytics use Parquet.
"""

from __future__ import annotations

import struct

import pyarrow as pa

import ray.data

from ..functions import typedattrs as tav
from .otlp_proto import (_I64, _LEN, _VARINT, _cell_keyvalue,
                         _decode_kv, _decode_kv_cell,
                         _decode_packed_varints, _iter_fields, _keyvalue,
                         _len_field, _packed_varints, _str_field, _tag,
                         _varint)

GAUGE, SUM, HISTOGRAM, EXP_HISTOGRAM, SUMMARY = (
    "gauge", "sum", "histogram", "exponential_histogram", "summary")

_QUANTILE_T = pa.list_(pa.struct([("quantile", pa.float64()),
                                  ("value", pa.float64())]))
EXEMPLARS_T = pa.list_(pa.struct([
    ("time_unix_nano", pa.int64()),
    ("value_int", pa.int64()),
    ("value_double", pa.float64()),
    ("trace_id", pa.string()),
    ("span_id", pa.string()),
    ("filtered_attributes", tav.TYPED_MAP_T),
]))

METRIC_WIRE_COLUMNS = [
    "metric_name", "metric_description", "metric_unit", "metric_type",
    "start_time_unix_nano", "time_unix_nano", "attributes",
    "value_int", "value_double",
    "aggregation_temporality", "is_monotonic",
    "count", "sum", "min", "max", "bucket_counts", "explicit_bounds",
    "scale", "zero_count", "positive_offset", "positive_bucket_counts",
    "negative_offset", "negative_bucket_counts",
    "quantile_values", "exemplars", "flags",
    "resource_attributes", "scope_name", "scope_version",
]


def _zigzag(n: int) -> int:
    return ((n << 1) ^ (n >> 63)) & 0xFFFFFFFFFFFFFFFF


def _unzigzag(u: int) -> int:
    return (u >> 1) ^ -(u & 1)


def _packed_fixed64(vals) -> bytes:
    return b"".join(struct.pack("<Q", int(v)) for v in vals)


def _packed_double(vals) -> bytes:
    return b"".join(struct.pack("<d", float(v)) for v in vals)


# ------------------------------------------------------------------ encode

def _dp_common_tail(r: dict, attr_field: int) -> bytes:
    # flags field numbers differ per point type — emitted by each caller
    return b"".join(_len_field(attr_field, _cell_keyvalue(k, c))
                    for k, c in (r.get("attributes") or []))


def _encode_exemplar(e: dict) -> bytes:
    out = bytearray()
    if e.get("time_unix_nano"):
        out += _tag(2, _I64) + struct.pack("<Q", int(e["time_unix_nano"]))
    if e.get("value_double") is not None:
        out += _tag(3, _I64) + struct.pack("<d", float(e["value_double"]))
    elif e.get("value_int") is not None:
        out += _tag(6, _I64) + struct.pack("<q", int(e["value_int"]))
    if e.get("span_id"):
        out += _len_field(4, bytes.fromhex(e["span_id"]))
    if e.get("trace_id"):
        out += _len_field(5, bytes.fromhex(e["trace_id"]))
    for k, c in (e.get("filtered_attributes") or []):
        out += _len_field(7, _cell_keyvalue(k, c))
    return bytes(out)


def _exemplars_tail(r: dict, field: int) -> bytes:
    return b"".join(_len_field(field, _encode_exemplar(e))
                    for e in (r.get("exemplars") or []))


def _encode_number_dp(r: dict) -> bytes:
    out = bytearray()
    if r.get("start_time_unix_nano"):
        out += _tag(2, _I64) + struct.pack("<Q", int(r["start_time_unix_nano"]))
    if r.get("time_unix_nano"):
        out += _tag(3, _I64) + struct.pack("<Q", int(r["time_unix_nano"]))
    if r.get("value_double") is not None:
        out += _tag(4, _I64) + struct.pack("<d", float(r["value_double"]))
    elif r.get("value_int") is not None:
        out += _tag(6, _I64) + struct.pack("<q", int(r["value_int"]))
    out += _exemplars_tail(r, 5)
    out += _dp_common_tail(r, 7)
    if r.get("flags"):
        out += _tag(8, _VARINT) + _varint(int(r["flags"]))
    return bytes(out)


def _encode_histogram_dp(r: dict) -> bytes:
    out = bytearray()
    if r.get("start_time_unix_nano"):
        out += _tag(2, _I64) + struct.pack("<Q", int(r["start_time_unix_nano"]))
    if r.get("time_unix_nano"):
        out += _tag(3, _I64) + struct.pack("<Q", int(r["time_unix_nano"]))
    out += _tag(4, _I64) + struct.pack("<Q", int(r.get("count") or 0))
    if r.get("sum") is not None:
        out += _tag(5, _I64) + struct.pack("<d", float(r["sum"]))
    if r.get("bucket_counts"):
        out += _len_field(6, _packed_fixed64(r["bucket_counts"]))
    if r.get("explicit_bounds"):
        out += _len_field(7, _packed_double(r["explicit_bounds"]))
    out += _exemplars_tail(r, 8)
    out += _dp_common_tail(r, 9)
    if r.get("flags"):
        out += _tag(10, _VARINT) + _varint(int(r["flags"]))
    if r.get("min") is not None:
        out += _tag(11, _I64) + struct.pack("<d", float(r["min"]))
    if r.get("max") is not None:
        out += _tag(12, _I64) + struct.pack("<d", float(r["max"]))
    return bytes(out)


def _encode_buckets(offset: int, counts) -> bytes:
    out = bytearray()
    if offset:
        out += _tag(1, _VARINT) + _varint(_zigzag(int(offset)))
    if counts:
        out += _len_field(2, _packed_varints(counts))
    return bytes(out)


def _encode_exp_histogram_dp(r: dict) -> bytes:
    out = bytearray(_dp_common_tail(r, 1))
    if r.get("start_time_unix_nano"):
        out += _tag(2, _I64) + struct.pack("<Q", int(r["start_time_unix_nano"]))
    if r.get("time_unix_nano"):
        out += _tag(3, _I64) + struct.pack("<Q", int(r["time_unix_nano"]))
    out += _tag(4, _I64) + struct.pack("<Q", int(r.get("count") or 0))
    if r.get("sum") is not None:
        out += _tag(5, _I64) + struct.pack("<d", float(r["sum"]))
    if r.get("scale"):
        out += _tag(6, _VARINT) + _varint(_zigzag(int(r["scale"])))
    if r.get("zero_count"):
        out += _tag(7, _I64) + struct.pack("<Q", int(r["zero_count"]))
    # positive/negative bucket lists are always present in the reference
    out += _len_field(8, _encode_buckets(r.get("positive_offset") or 0,
                                         r.get("positive_bucket_counts")))
    out += _len_field(9, _encode_buckets(r.get("negative_offset") or 0,
                                         r.get("negative_bucket_counts")))
    if r.get("flags"):
        out += _tag(10, _VARINT) + _varint(int(r["flags"]))
    out += _exemplars_tail(r, 11)
    if r.get("min") is not None:
        out += _tag(12, _I64) + struct.pack("<d", float(r["min"]))
    if r.get("max") is not None:
        out += _tag(13, _I64) + struct.pack("<d", float(r["max"]))
    return bytes(out)


def _encode_summary_dp(r: dict) -> bytes:
    out = bytearray()
    if r.get("start_time_unix_nano"):
        out += _tag(2, _I64) + struct.pack("<Q", int(r["start_time_unix_nano"]))
    if r.get("time_unix_nano"):
        out += _tag(3, _I64) + struct.pack("<Q", int(r["time_unix_nano"]))
    out += _tag(4, _I64) + struct.pack("<Q", int(r.get("count") or 0))
    if r.get("sum") is not None:
        out += _tag(5, _I64) + struct.pack("<d", float(r["sum"]))
    for qv in (r.get("quantile_values") or []):
        msg = (_tag(1, _I64) + struct.pack("<d", float(qv["quantile"]))
               + _tag(2, _I64) + struct.pack("<d", float(qv["value"])))
        out += _len_field(6, msg)
    out += _dp_common_tail(r, 7)
    if r.get("flags"):
        out += _tag(8, _VARINT) + _varint(int(r["flags"]))
    return bytes(out)


_DP_ENCODERS = {GAUGE: _encode_number_dp, SUM: _encode_number_dp,
                HISTOGRAM: _encode_histogram_dp,
                EXP_HISTOGRAM: _encode_exp_histogram_dp,
                SUMMARY: _encode_summary_dp}
_TYPE_FIELD = {GAUGE: 5, SUM: 7, HISTOGRAM: 9, EXP_HISTOGRAM: 10, SUMMARY: 11}


def _encode_metric(identity: tuple, rows: list[dict]) -> bytes:
    name, desc, unit, mtype, temporality, monotonic = identity
    out = bytearray()
    out += _str_field(1, name)
    out += _str_field(2, desc)
    out += _str_field(3, unit)
    enc = _DP_ENCODERS[mtype]
    body = bytearray()
    for r in rows:
        body += _len_field(1, enc(r))
    if mtype in (SUM, HISTOGRAM, EXP_HISTOGRAM) and temporality:
        body += _tag(2, _VARINT) + _varint(int(temporality))
    if mtype == SUM and monotonic:
        body += _tag(3, _VARINT) + _varint(1)
    out += _len_field(_TYPE_FIELD[mtype], bytes(body))
    return bytes(out)


def _metric_identity(r: dict) -> tuple:
    return (r.get("metric_name", ""), r.get("metric_description", ""),
            r.get("metric_unit", ""), r["metric_type"],
            int(r.get("aggregation_temporality") or 0),
            bool(r.get("is_monotonic") or False))


def encode_metrics_request(batch: pa.Table) -> bytes:
    """Flat data-point rows → one ExportMetricsServiceRequest/MetricsData
    message, re-nested by (resource attributes, scope, metric identity)."""
    groups: dict = {}
    for row in batch.to_pylist():
        res_key = tuple(row.get("resource_attributes") or [])
        scope_key = (row.get("scope_name", ""), row.get("scope_version", ""))
        groups.setdefault(res_key, {}).setdefault(scope_key, {}) \
            .setdefault(_metric_identity(row), []).append(row)
    out = bytearray()
    for res_key, scopes in groups.items():
        res_msg = b"".join(_len_field(1, _keyvalue(k, v)) for k, v in res_key)
        rm = bytearray(_len_field(1, res_msg))
        for (sname, sver), metrics in scopes.items():
            scope_msg = _str_field(1, sname) + _str_field(2, sver)
            sm = bytearray(_len_field(1, scope_msg))
            for identity, rows in metrics.items():
                sm += _len_field(2, _encode_metric(identity, rows))
            rm += _len_field(2, bytes(sm))
        out += _len_field(1, bytes(rm))
    return bytes(out)


# ------------------------------------------------------------------ decode

def _decode_packed(buf, wire: int, val) -> list[int]:
    """A repeated numeric field: LEN payload = packed; scalar wire = one."""
    if wire != _LEN:
        return [int(val)]
    return _decode_packed_varints(bytes(val))


def _decode_packed_fixed64(buf, wire: int, val) -> list[int]:
    if wire != _LEN:
        return [int(val)]
    b = bytes(val)
    return [struct.unpack_from("<Q", b, i)[0] for i in range(0, len(b), 8)]


def _decode_packed_double(buf, wire: int, val) -> list[float]:
    if wire != _LEN:
        return [struct.unpack("<d", struct.pack("<Q", val))[0]]
    b = bytes(val)
    return [struct.unpack_from("<d", b, i)[0] for i in range(0, len(b), 8)]


def _empty_row() -> dict:
    return {"start_time_unix_nano": 0, "time_unix_nano": 0, "attributes": [],
            "value_int": None, "value_double": None,
            "aggregation_temporality": None, "is_monotonic": None,
            "count": None, "sum": None, "min": None, "max": None,
            "bucket_counts": None,
            "explicit_bounds": None, "scale": None, "zero_count": None,
            "positive_offset": None, "positive_bucket_counts": None,
            "negative_offset": None, "negative_bucket_counts": None,
            "quantile_values": None, "exemplars": None, "flags": 0}


def _unp_d(v: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", v))[0]


def _decode_exemplar(buf) -> dict:
    e = {"time_unix_nano": 0, "value_int": None, "value_double": None,
         "trace_id": "", "span_id": "", "filtered_attributes": []}
    for f, w, v in _iter_fields(bytes(buf)):
        if f == 2:
            e["time_unix_nano"] = v
        elif f == 3:
            e["value_double"] = _unp_d(v)
        elif f == 6:
            e["value_int"] = struct.unpack("<q", struct.pack("<Q", v))[0]
        elif f == 4:
            e["span_id"] = bytes(v).hex()
        elif f == 5:
            e["trace_id"] = bytes(v).hex()
        elif f == 7:
            e["filtered_attributes"].append(_decode_kv_cell(v))
    return e


def _add_exemplar(r: dict, buf) -> None:
    r["exemplars"] = (r["exemplars"] or []) + [_decode_exemplar(buf)]


def _decode_number_dp(buf) -> dict:
    r = _empty_row()
    for f, w, v in _iter_fields(bytes(buf)):
        if f == 2:
            r["start_time_unix_nano"] = v
        elif f == 3:
            r["time_unix_nano"] = v
        elif f == 4:
            r["value_double"] = _unp_d(v)
        elif f == 6:
            r["value_int"] = struct.unpack("<q", struct.pack("<Q", v))[0]
        elif f == 5:
            _add_exemplar(r, v)
        elif f == 7:
            r["attributes"].append(_decode_kv_cell(v))
        elif f == 8:
            r["flags"] = v
    return r


def _decode_histogram_dp(buf) -> dict:
    r = _empty_row()
    r["count"] = 0
    for f, w, v in _iter_fields(bytes(buf)):
        if f == 2:
            r["start_time_unix_nano"] = v
        elif f == 3:
            r["time_unix_nano"] = v
        elif f == 4:
            r["count"] = v
        elif f == 5:
            r["sum"] = _unp_d(v)
        elif f == 6:
            r["bucket_counts"] = (r["bucket_counts"] or []) + \
                _decode_packed_fixed64(buf, w, v)
        elif f == 7:
            r["explicit_bounds"] = (r["explicit_bounds"] or []) + \
                _decode_packed_double(buf, w, v)
        elif f == 8:
            _add_exemplar(r, v)
        elif f == 9:
            r["attributes"].append(_decode_kv_cell(v))
        elif f == 10:
            r["flags"] = v
        elif f == 11:
            r["min"] = _unp_d(v)
        elif f == 12:
            r["max"] = _unp_d(v)
    return r


def _decode_buckets(buf) -> tuple[int, list[int]]:
    offset, counts = 0, []
    for f, w, v in _iter_fields(bytes(buf)):
        if f == 1:
            offset = _unzigzag(v)
        elif f == 2:
            counts += _decode_packed(buf, w, v)
    return offset, counts


def _decode_exp_histogram_dp(buf) -> dict:
    r = _empty_row()
    r["count"] = 0
    r["scale"] = 0
    r["zero_count"] = 0
    # both bucket lists are always-present messages in the reference —
    # normalize absent to (offset 0, no counts) so both marshalers agree
    r["positive_offset"], r["positive_bucket_counts"] = 0, []
    r["negative_offset"], r["negative_bucket_counts"] = 0, []
    for f, w, v in _iter_fields(bytes(buf)):
        if f == 1:
            r["attributes"].append(_decode_kv_cell(v))
        elif f == 2:
            r["start_time_unix_nano"] = v
        elif f == 3:
            r["time_unix_nano"] = v
        elif f == 4:
            r["count"] = v
        elif f == 5:
            r["sum"] = _unp_d(v)
        elif f == 6:
            r["scale"] = _unzigzag(v)
        elif f == 7:
            r["zero_count"] = v
        elif f == 8:
            r["positive_offset"], r["positive_bucket_counts"] = \
                _decode_buckets(v)
        elif f == 9:
            r["negative_offset"], r["negative_bucket_counts"] = \
                _decode_buckets(v)
        elif f == 10:
            r["flags"] = v
        elif f == 11:
            _add_exemplar(r, v)
        elif f == 12:
            r["min"] = _unp_d(v)
        elif f == 13:
            r["max"] = _unp_d(v)
    return r


def _decode_summary_dp(buf) -> dict:
    r = _empty_row()
    r["count"] = 0
    r["quantile_values"] = []
    for f, w, v in _iter_fields(bytes(buf)):
        if f == 2:
            r["start_time_unix_nano"] = v
        elif f == 3:
            r["time_unix_nano"] = v
        elif f == 4:
            r["count"] = v
        elif f == 5:
            r["sum"] = struct.unpack("<d", struct.pack("<Q", v))[0]
        elif f == 6:
            q = val = 0.0
            for f2, w2, v2 in _iter_fields(bytes(v)):
                if f2 == 1:
                    q = struct.unpack("<d", struct.pack("<Q", v2))[0]
                elif f2 == 2:
                    val = struct.unpack("<d", struct.pack("<Q", v2))[0]
            r["quantile_values"].append({"quantile": q, "value": val})
        elif f == 7:
            r["attributes"].append(_decode_kv_cell(v))
        elif f == 8:
            r["flags"] = v
    return r


_DP_DECODERS = {GAUGE: _decode_number_dp, SUM: _decode_number_dp,
                HISTOGRAM: _decode_histogram_dp,
                EXP_HISTOGRAM: _decode_exp_histogram_dp,
                SUMMARY: _decode_summary_dp}
_FIELD_TYPE = {5: GAUGE, 7: SUM, 9: HISTOGRAM, 10: EXP_HISTOGRAM, 11: SUMMARY}


def _decode_metric(buf, res_attrs, sname, sver, rows: list[dict]) -> None:
    name = desc = unit = ""
    points: list[dict] = []
    for f, w, v in _iter_fields(bytes(buf), strings=(1, 2, 3)):
        if f == 1:
            name = v
        elif f == 2:
            desc = v
        elif f == 3:
            unit = v
        elif f in _FIELD_TYPE:
            mtype = _FIELD_TYPE[f]
            temporality = 0
            monotonic = False
            dps = []
            for f2, w2, v2 in _iter_fields(bytes(v)):
                if f2 == 1:
                    dps.append(v2)
                elif f2 == 2:
                    temporality = v2
                elif f2 == 3:
                    monotonic = bool(v2)
            for dp in dps:
                r = _DP_DECODERS[mtype](dp)
                r.update({
                    "metric_name": name, "metric_description": desc,
                    "metric_unit": unit, "metric_type": mtype,
                    "aggregation_temporality":
                        temporality if mtype in (SUM, HISTOGRAM,
                                                 EXP_HISTOGRAM) else None,
                    "is_monotonic": monotonic if mtype == SUM else None,
                    "resource_attributes": res_attrs,
                    "scope_name": sname, "scope_version": sver})
                points.append(r)
    rows.extend(points)


def _rows_to_table(rows: list[dict]) -> pa.Table:
    cols: dict = {c: [r.get(c) for r in rows] for c in METRIC_WIRE_COLUMNS}
    return pa.table({
        "metric_name": pa.array(cols["metric_name"], pa.string()),
        "metric_description": pa.array(cols["metric_description"], pa.string()),
        "metric_unit": pa.array(cols["metric_unit"], pa.string()),
        "metric_type": pa.array(cols["metric_type"], pa.string()),
        "start_time_unix_nano": pa.array(
            [int(x or 0) for x in cols["start_time_unix_nano"]], pa.uint64()),
        "time_unix_nano": pa.array(
            [int(x or 0) for x in cols["time_unix_nano"]], pa.uint64()),
        "attributes": pa.array(cols["attributes"], tav.TYPED_MAP_T),
        "value_int": pa.array(cols["value_int"], pa.int64()),
        "value_double": pa.array(cols["value_double"], pa.float64()),
        "aggregation_temporality": pa.array(cols["aggregation_temporality"],
                                            pa.int32()),
        "is_monotonic": pa.array(cols["is_monotonic"], pa.bool_()),
        "count": pa.array(cols["count"], pa.int64()),
        "sum": pa.array(cols["sum"], pa.float64()),
        "min": pa.array(cols["min"], pa.float64()),
        "max": pa.array(cols["max"], pa.float64()),
        "bucket_counts": pa.array(cols["bucket_counts"],
                                  pa.list_(pa.int64())),
        "explicit_bounds": pa.array(cols["explicit_bounds"],
                                    pa.list_(pa.float64())),
        "scale": pa.array(cols["scale"], pa.int32()),
        "zero_count": pa.array(cols["zero_count"], pa.int64()),
        "positive_offset": pa.array(cols["positive_offset"], pa.int32()),
        "positive_bucket_counts": pa.array(cols["positive_bucket_counts"],
                                           pa.list_(pa.int64())),
        "negative_offset": pa.array(cols["negative_offset"], pa.int32()),
        "negative_bucket_counts": pa.array(cols["negative_bucket_counts"],
                                           pa.list_(pa.int64())),
        "quantile_values": pa.array(cols["quantile_values"], _QUANTILE_T),
        "exemplars": pa.array(cols["exemplars"], EXEMPLARS_T),
        "flags": pa.array([int(x or 0) for x in cols["flags"]], pa.uint32()),
        "resource_attributes": pa.array(cols["resource_attributes"],
                                        pa.map_(pa.string(), pa.string())),
        "scope_name": pa.array(cols["scope_name"], pa.string()),
        "scope_version": pa.array(cols["scope_version"], pa.string()),
    })


def decode_metrics_request(buf: bytes) -> pa.Table:
    """ExportMetricsServiceRequest/MetricsData bytes → flat data-point
    table (METRIC_WIRE_COLUMNS, one row per point)."""
    rows: list[dict] = []
    for f, w, rm in _iter_fields(buf):
        if f != 1:
            continue
        res_attrs: list[tuple[str, str]] = []
        scope_msgs = []
        for f2, w2, v2 in _iter_fields(bytes(rm)):
            if f2 == 1:
                for f3, w3, v3 in _iter_fields(bytes(v2)):
                    if f3 == 1:
                        res_attrs.append(_decode_kv(v3))
            elif f2 == 2:
                scope_msgs.append(bytes(v2))
        for sm in scope_msgs:
            sname = sver = ""
            metric_msgs = []
            for f3, w3, v3 in _iter_fields(sm):
                if f3 == 1:
                    for f4, w4, v4 in _iter_fields(bytes(v3),
                                                   strings=(1, 2)):
                        if f4 == 1:
                            sname = v4
                        elif f4 == 2:
                            sver = v4
                elif f3 == 2:
                    metric_msgs.append(bytes(v3))
            for mm in metric_msgs:
                _decode_metric(mm, res_attrs, sname, sver, rows)
    return _rows_to_table(rows)


# ------------------------------------------------------------------- JSON

def _dp_common_json(r: dict) -> dict:
    out: dict = {}
    if r.get("start_time_unix_nano"):
        out["startTimeUnixNano"] = str(int(r["start_time_unix_nano"]))
    if r.get("time_unix_nano"):
        out["timeUnixNano"] = str(int(r["time_unix_nano"]))
    if r.get("attributes"):
        out["attributes"] = [
            {"key": k, "value": tav.value_to_json(*tav.cell_value(c))}
            for k, c in r["attributes"]]
    if r.get("exemplars"):
        exs = []
        for e in r["exemplars"]:
            ej: dict = {}
            if e.get("time_unix_nano"):
                ej["timeUnixNano"] = str(int(e["time_unix_nano"]))
            if e.get("value_double") is not None:
                ej["asDouble"] = float(e["value_double"])
            elif e.get("value_int") is not None:
                ej["asInt"] = str(int(e["value_int"]))
            if e.get("trace_id"):
                ej["traceId"] = e["trace_id"]
            if e.get("span_id"):
                ej["spanId"] = e["span_id"]
            if e.get("filtered_attributes"):
                ej["filteredAttributes"] = [
                    {"key": k, "value": tav.value_to_json(*tav.cell_value(c))}
                    for k, c in e["filtered_attributes"]]
            exs.append(ej)
        out["exemplars"] = exs
    if r.get("flags"):
        out["flags"] = int(r["flags"])
    return out


def _minmax_json(r: dict, out: dict) -> dict:
    if r.get("min") is not None:
        out["min"] = float(r["min"])
    if r.get("max") is not None:
        out["max"] = float(r["max"])
    return out


def _exemplars_from_json(dp: dict, r: dict) -> None:
    exs = []
    for ej in dp.get("exemplars", []):
        e = {"time_unix_nano": int(ej.get("timeUnixNano", 0)),
             "value_int": int(ej["asInt"]) if "asInt" in ej else None,
             "value_double": float(ej["asDouble"])
             if "asDouble" in ej else None,
             "trace_id": ej.get("traceId", ""),
             "span_id": ej.get("spanId", ""),
             "filtered_attributes": [
                 (kv.get("key", ""),
                  tav.cell(*tav.json_to_value(kv.get("value", {}))))
                 for kv in ej.get("filteredAttributes", [])]}
        exs.append(e)
    if exs:
        r["exemplars"] = exs


def _number_dp_json(r: dict) -> dict:
    out = _dp_common_json(r)
    if r.get("value_double") is not None:
        out["asDouble"] = float(r["value_double"])
    elif r.get("value_int") is not None:
        out["asInt"] = str(int(r["value_int"]))
    return out


def _histogram_dp_json(r: dict) -> dict:
    out = _dp_common_json(r)
    out["count"] = str(int(r.get("count") or 0))
    if r.get("sum") is not None:
        out["sum"] = float(r["sum"])
    if r.get("bucket_counts"):
        out["bucketCounts"] = [str(int(c)) for c in r["bucket_counts"]]
    if r.get("explicit_bounds"):
        out["explicitBounds"] = [float(b) for b in r["explicit_bounds"]]
    return _minmax_json(r, out)


def _exp_histogram_dp_json(r: dict) -> dict:
    out = _dp_common_json(r)
    out["count"] = str(int(r.get("count") or 0))
    if r.get("sum") is not None:
        out["sum"] = float(r["sum"])
    if r.get("scale"):
        out["scale"] = int(r["scale"])
    if r.get("zero_count"):
        out["zeroCount"] = str(int(r["zero_count"]))
    for side, okey, ckey in (("positive", "positive_offset",
                              "positive_bucket_counts"),
                             ("negative", "negative_offset",
                              "negative_bucket_counts")):
        b: dict = {}
        if r.get(okey):
            b["offset"] = int(r[okey])
        if r.get(ckey):
            b["bucketCounts"] = [str(int(c)) for c in r[ckey]]
        out[side] = b
    return _minmax_json(r, out)


def _summary_dp_json(r: dict) -> dict:
    out = _dp_common_json(r)
    out["count"] = str(int(r.get("count") or 0))
    if r.get("sum") is not None:
        out["sum"] = float(r["sum"])
    out["quantileValues"] = [
        {"quantile": float(q["quantile"]), "value": float(q["value"])}
        for q in (r.get("quantile_values") or [])]
    return out


_DP_JSON = {GAUGE: _number_dp_json, SUM: _number_dp_json,
            HISTOGRAM: _histogram_dp_json,
            EXP_HISTOGRAM: _exp_histogram_dp_json, SUMMARY: _summary_dp_json}
_JSON_KEY = {GAUGE: "gauge", SUM: "sum", HISTOGRAM: "histogram",
             EXP_HISTOGRAM: "exponentialHistogram", SUMMARY: "summary"}


def metrics_to_request(batch: pa.Table) -> str:
    """Flat rows → one ExportMetricsServiceRequest JSON line (pmetric
    json.go field names), re-nested by (resource, scope, metric)."""
    import json

    groups: dict = {}
    for row in batch.to_pylist():
        res_key = tuple(row.get("resource_attributes") or [])
        scope_key = (row.get("scope_name", ""), row.get("scope_version", ""))
        groups.setdefault(res_key, {}).setdefault(scope_key, {}) \
            .setdefault(_metric_identity(row), []).append(row)
    resource_metrics = []
    for res_key, scopes in groups.items():
        scope_metrics = []
        for (sname, sver), metrics in scopes.items():
            ms = []
            for identity, rows in metrics.items():
                name, desc, unit, mtype, temporality, monotonic = identity
                m: dict = {"name": name}
                if desc:
                    m["description"] = desc
                if unit:
                    m["unit"] = unit
                body: dict = {"dataPoints": [_DP_JSON[mtype](r)
                                             for r in rows]}
                if mtype in (SUM, HISTOGRAM, EXP_HISTOGRAM) and temporality:
                    body["aggregationTemporality"] = int(temporality)
                if mtype == SUM and monotonic:
                    body["isMonotonic"] = True
                m[_JSON_KEY[mtype]] = body
                ms.append(m)
            scope_metrics.append({"scope": {"name": sname, "version": sver},
                                  "metrics": ms})
        resource_metrics.append({
            "resource": {"attributes": [
                {"key": k, "value": {"stringValue": v}} for k, v in res_key]},
            "scopeMetrics": scope_metrics})
    return json.dumps({"resourceMetrics": resource_metrics}, sort_keys=True)


def _dp_common_from_json(dp: dict, r: dict) -> None:
    r["start_time_unix_nano"] = int(dp.get("startTimeUnixNano", 0))
    r["time_unix_nano"] = int(dp.get("timeUnixNano", 0))
    r["attributes"] = [
        (kv.get("key", ""), tav.cell(*tav.json_to_value(kv.get("value", {}))))
        for kv in dp.get("attributes", [])]
    r["flags"] = int(dp.get("flags", 0))


def parse_metrics_request_lines(batch: pa.Table, text_col: str = "text",
                                ) -> pa.Table:
    """One JSON line (ExportMetricsServiceRequest) → N flat data-point
    rows (same schema as the protobuf decoder — one model, two
    marshalers)."""
    import json

    rows: list[dict] = []
    for line in batch.column(text_col).to_pylist():
        if not line or not line.strip():
            continue
        req = json.loads(line)
        for rm in req.get("resourceMetrics", []):
            res_attrs = [
                (kv.get("key", ""),
                 kv.get("value", {}).get("stringValue", ""))
                for kv in rm.get("resource", {}).get("attributes", [])]
            for sm in rm.get("scopeMetrics", []):
                scope = sm.get("scope", {})
                for m in sm.get("metrics", []):
                    for mtype, key in _JSON_KEY.items():
                        if key not in m:
                            continue
                        body = m[key]
                        for dp in body.get("dataPoints", []):
                            r = _empty_row()
                            _dp_common_from_json(dp, r)
                            _exemplars_from_json(dp, r)
                            if mtype in (HISTOGRAM, EXP_HISTOGRAM):
                                r["min"] = float(dp["min"]) \
                                    if "min" in dp else None
                                r["max"] = float(dp["max"]) \
                                    if "max" in dp else None
                            if mtype in (GAUGE, SUM):
                                if "asDouble" in dp:
                                    r["value_double"] = float(dp["asDouble"])
                                elif "asInt" in dp:
                                    r["value_int"] = int(dp["asInt"])
                            elif mtype == HISTOGRAM:
                                r["count"] = int(dp.get("count", 0))
                                r["sum"] = (float(dp["sum"])
                                            if "sum" in dp else None)
                                if dp.get("bucketCounts"):
                                    r["bucket_counts"] = [
                                        int(c) for c in dp["bucketCounts"]]
                                if dp.get("explicitBounds"):
                                    r["explicit_bounds"] = [
                                        float(b) for b in dp["explicitBounds"]]
                            elif mtype == EXP_HISTOGRAM:
                                r["count"] = int(dp.get("count", 0))
                                r["sum"] = (float(dp["sum"])
                                            if "sum" in dp else None)
                                r["scale"] = int(dp.get("scale", 0))
                                r["zero_count"] = int(dp.get("zeroCount", 0))
                                for side, okey, ckey in (
                                        ("positive", "positive_offset",
                                         "positive_bucket_counts"),
                                        ("negative", "negative_offset",
                                         "negative_bucket_counts")):
                                    b = dp.get(side) or {}
                                    r[okey] = int(b.get("offset", 0))
                                    r[ckey] = [int(c) for c in
                                               b.get("bucketCounts", [])]
                            elif mtype == SUMMARY:
                                r["count"] = int(dp.get("count", 0))
                                r["sum"] = (float(dp["sum"])
                                            if "sum" in dp else None)
                                r["quantile_values"] = [
                                    {"quantile": float(q.get("quantile", 0)),
                                     "value": float(q.get("value", 0))}
                                    for q in dp.get("quantileValues", [])]
                            r.update({
                                "metric_name": m.get("name", ""),
                                "metric_description": m.get("description", ""),
                                "metric_unit": m.get("unit", ""),
                                "metric_type": mtype,
                                "aggregation_temporality":
                                    int(body.get("aggregationTemporality", 0))
                                    if mtype in (SUM, HISTOGRAM,
                                                 EXP_HISTOGRAM) else None,
                                "is_monotonic":
                                    bool(body.get("isMonotonic", False))
                                    if mtype == SUM else None,
                                "resource_attributes": res_attrs,
                                "scope_name": scope.get("name", ""),
                                "scope_version": scope.get("version", "")})
                            rows.append(r)
    return _rows_to_table(rows)


# ------------------------------------------------------------- source/sink

def read_otlp_proto_metrics(paths) -> ray.data.Dataset:
    """Read ``*.binpb`` metric request files into the flat table;
    compressed files decompress by the writer's filename suffix."""
    from .wire_io import read_decompressed_files

    def parse(t: pa.Table) -> pa.Table:
        tables = [decode_metrics_request(b.as_py())
                  for b in t.column("payload")]
        return pa.concat_tables(tables) if tables \
            else decode_metrics_request(b"")

    return read_decompressed_files(paths).map_batches(
        parse, batch_format="pyarrow")


def write_otlp_proto_metrics(ds: ray.data.Dataset, out_dir: str,
                             compression: str = "none") -> int:
    """Each block → one ``req-*.binpb`` request file; returns records."""
    from .wire_io import write_request_files

    return write_request_files(
        ds, out_dir,
        lambda b: encode_metrics_request(b) if b.num_rows else None,
        ".binpb", compression)


# ------------------------------------------- analytic → wire bridges

def exp_histogram_rows_to_wire(t: pa.Table, key_cols: list[str],
                               metric_name: str,
                               time_unix_nano: int = 0) -> pa.Table:
    """Bridge: the analytic exp-histogram output
    (stages/metricsops.exp_histogram: one row per (keys..., idx, n),
    null idx = zero bucket) → wire ExponentialHistogramDataPoint rows —
    one data point per key tuple, bucket counts densified into the
    offset+counts layout the wire uses."""
    import collections

    groups: dict = collections.OrderedDict()
    for row in t.to_pylist():
        k = tuple(row[c] for c in key_cols)
        groups.setdefault(k, []).append(row)
    rows = []
    for k, items in groups.items():
        zero = sum(r["n"] for r in items if r.get("idx") is None)
        pos = {int(r["idx"]): int(r["n"]) for r in items
               if r.get("idx") is not None}
        if pos:
            lo, hi = min(pos), max(pos)
            counts = [pos.get(i, 0) for i in range(lo, hi + 1)]
        else:
            lo, counts = 0, []
        r = _empty_row()
        r.update({
            "metric_name": metric_name, "metric_description": "",
            "metric_unit": "", "metric_type": EXP_HISTOGRAM,
            "time_unix_nano": time_unix_nano,
            "count": int(zero + sum(counts)), "scale": 0,
            "zero_count": int(zero), "positive_offset": int(lo),
            "positive_bucket_counts": counts,
            "aggregation_temporality": 2, "is_monotonic": None,
            "attributes": [(c, tav.cell(tav.VTYPE_STR, str(kv)))
                           for c, kv in zip(key_cols, k)],
            "resource_attributes": [], "scope_name": "otelcol_ray",
            "scope_version": "2"})
        rows.append(r)
    return _rows_to_table(rows)
