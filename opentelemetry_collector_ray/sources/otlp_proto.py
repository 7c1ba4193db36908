"""OTLP protobuf logs wire format — the reference's PRIMARY wire encoding
(``/root/reference/pdata/plog/pb.go:8-37``), hand-rolled varint/length-
delimited codec (no protobuf runtime dependency).

Field numbers mirror the generated marshalers exactly
(``pdata/internal/generated_proto_logrecord.go:385-530``):

    LogsData:        resource_logs=1
    ResourceLogs:    resource=1  scope_logs=2  schema_url=3
    Resource:        attributes=1  dropped_attributes_count=2
    ScopeLogs:       scope=1  log_records=2  schema_url=3
    Scope:           name=1  version=2
    KeyValue:        key=1  value=2(AnyValue)
    AnyValue:        string_value=1 bool_value=2(varint) int_value=3(varint)
                     double_value=4(I64) array_value=5(ArrayValue)
                     kvlist_value=6(KeyValueList) bytes_value=7
                     (full pcommon.Value union — tags per
                     generated_proto_anyvalue.go:582-632)
    ArrayValue:      values=1 (repeated AnyValue)
    KeyValueList:    values=1 (repeated KeyValue)
    LogRecord:       time_unix_nano=1(I64) severity_number=2(varint)
                     severity_text=3 body=5(AnyValue) attributes=6(KeyValue*)
                     dropped_attributes_count=7(varint) flags=8(I32)
                     trace_id=9(bytes) span_id=10(bytes)
                     observed_time_unix_nano=11(I64) event_name=12

The flat-table schema is identical to sources/otlp_json.py (one row per
LogRecord, resource/scope denormalized), so proto and JSON are two
encodings of the same Dataset — mirroring how plog keeps one pdata model
with two marshalers. Also provides the byte-based sizer for batching
(``exporter/exporterhelper/internal/sizer/logs_sizer.go:10-49``): encoded
LogRecord size + length-delimiter overhead, used to split requests at a
byte budget (queue-batch MergeSplit semantics,
``internal/queuebatch/logs_batch.go:18-100``).

This is a WIRE CODEC: per-record Python is inherent to nested-message
encode/decode (the reference's generated Go marshalers are per-record
too); it is not a hot analytical path — bulk data uses Parquet.
"""

from __future__ import annotations

import struct

import pyarrow as pa

import ray.data

from ..functions import typedattrs as tav
from .otlp_json import LOG_COLUMNS

# wire types
_VARINT, _I64, _LEN, _I32 = 0, 1, 2, 5


def _varint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _tag(field: int, wire: int) -> bytes:
    return _varint((field << 3) | wire)


def _packed_varints(vals) -> bytes:
    """Repeated numeric field, packed varint encoding."""
    return b"".join(_varint(int(v)) for v in vals)


def _decode_packed_varints(b: bytes) -> list[int]:
    """Packed-varint payload → ints (shared by the metrics and profiles
    codecs' repeated fields)."""
    out: list[int] = []
    pos = 0
    while pos < len(b):
        n = 0
        shift = 0
        while True:
            byte = b[pos]
            pos += 1
            n |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        out.append(n)
    return out


def _len_field(field: int, payload: bytes) -> bytes:
    return _tag(field, _LEN) + _varint(len(payload)) + payload


def _str_field(field: int, s: str) -> bytes:
    return _len_field(field, s.encode()) if s else b""


def _anyvalue_str(s: str) -> bytes:
    return _len_field(1, s.encode())


def _keyvalue(k: str, v: str) -> bytes:
    return _len_field(1, k.encode()) + _len_field(2, _anyvalue_str(v))


def _anyvalue_typed(vtype: int, py) -> bytes:
    """(vtype, python payload) → AnyValue message bytes — the full union
    (string=1 bool=2 int=3 double=4 array=5 kvlist=6 bytes=7)."""
    if vtype == tav.VTYPE_STR:
        return _len_field(1, py.encode())
    if vtype == tav.VTYPE_BOOL:
        return _tag(2, _VARINT) + _varint(1 if py else 0)
    if vtype == tav.VTYPE_INT:
        # int64 varint: negatives as 64-bit two's complement (proto int64)
        return _tag(3, _VARINT) + _varint(int(py) & 0xFFFFFFFFFFFFFFFF)
    if vtype == tav.VTYPE_DOUBLE:
        return _tag(4, _I64) + struct.pack("<d", float(py))
    if vtype == tav.VTYPE_SLICE:
        inner = b"".join(_len_field(1, _anyvalue_typed(vt, v))
                         for vt, v in py)
        return _len_field(5, inner)
    if vtype == tav.VTYPE_MAP:
        inner = b"".join(_len_field(1, _keyvalue_typed(k, (vt, v)))
                         for k, (vt, v) in py)
        return _len_field(6, inner)
    if vtype == tav.VTYPE_BYTES:
        return _len_field(7, py)
    return b""  # Empty


def _keyvalue_typed(k: str, value: tuple[int, object]) -> bytes:
    return _len_field(1, k.encode()) + _len_field(
        2, _anyvalue_typed(*value))


def _cell_keyvalue(k: str, c) -> bytes:
    """KeyValue bytes from a flat cell dict (or a bare str for
    compatibility with string-restricted tables)."""
    if isinstance(c, str):
        return _keyvalue(k, c)
    return _keyvalue_typed(k, tav.cell_value(c))


def encode_log_record(r: dict) -> bytes:
    """One flat row → LogRecord message bytes (field order as the
    reference's marshaler: ascending field number)."""
    out = bytearray()
    if r.get("time_unix_nano"):
        out += _tag(1, _I64) + struct.pack("<Q", int(r["time_unix_nano"]))
    if r.get("severity_number"):
        out += _tag(2, _VARINT) + _varint(int(r["severity_number"]))
    out += _str_field(3, r.get("severity_text", ""))
    if r.get("body", ""):
        out += _len_field(5, _anyvalue_str(r["body"]))
    for k, v in (r.get("attributes") or []):
        out += _len_field(6, _cell_keyvalue(k, v))
    if r.get("trace_id"):
        out += _len_field(9, bytes.fromhex(r["trace_id"]))
    if r.get("span_id"):
        out += _len_field(10, bytes.fromhex(r["span_id"]))
    if r.get("observed_time_unix_nano"):
        out += _tag(11, _I64) + struct.pack("<Q",
                                            int(r["observed_time_unix_nano"]))
    out += _str_field(12, r.get("event_name", ""))
    return bytes(out)


def encode_request(batch: pa.Table) -> bytes:
    """Flat rows → one ExportLogsServiceRequest/LogsData message, re-nested
    by (resource attributes, scope) exactly like the JSON writer."""
    groups: dict = {}
    for row in batch.to_pylist():
        res_key = tuple(row.get("resource_attributes") or [])
        scope_key = (row.get("scope_name", ""), row.get("scope_version", ""))
        groups.setdefault(res_key, {}).setdefault(scope_key, []).append(row)
    out = bytearray()
    for res_key, scopes in groups.items():
        res_msg = b"".join(_len_field(1, _keyvalue(k, v)) for k, v in res_key)
        rl = bytearray(_len_field(1, res_msg))
        for (sname, sver), recs in scopes.items():
            scope_msg = _str_field(1, sname) + _str_field(2, sver)
            sl = bytearray(_len_field(1, scope_msg))
            for r in recs:
                sl += _len_field(2, encode_log_record(r))
            rl += _len_field(2, bytes(sl))
        out += _len_field(1, bytes(rl))
    return bytes(out)


# ------------------------------------------------------------------ decode

class WireFormatError(ValueError):
    """A protobuf payload that is not well formed: the byte ``offset``
    where the bad field starts (its key), its ``field`` number (None
    when the key itself is bad) and the ``reason``."""

    def __init__(self, offset: int, field: int | None, reason: str):
        self.offset, self.field, self.reason = offset, field, reason
        where = "field key" if field is None else f"field {field}"
        super().__init__(f"protobuf {where} at byte {offset}: {reason}")

    def __reduce__(self):
        return type(self), (self.offset, self.field, self.reason)


def _read_varint(buf, pos: int, end: int, at: int, field: int | None,
                 ) -> tuple[int, int]:
    """``(value, position after it)`` of the varint at ``pos``, in the
    field that starts at ``at``."""
    val = shift = 0
    for i in range(pos, min(end, pos + 10)):
        b = buf[i]
        val |= (b & 0x7F) << shift
        if not b & 0x80:
            return val, i + 1
        shift += 7
    raise WireFormatError(at, field, "varint runs past the end"
                          if end - pos < 10 else "varint longer than 10 bytes")


def _utf8(value, at: int, field: int) -> str:
    """The bytes of string ``field`` (at byte ``at``) decoded."""
    try:
        return str(value, "utf-8")
    except UnicodeDecodeError:
        raise WireFormatError(at, field, "invalid UTF-8") from None


def _iter_fields(buf: bytes, start: int = 0, end: int | None = None,
                 strings: tuple[int, ...] = ()):
    """Generic proto field walker → (field, wire, value) where value is an
    int for VARINT/I64/I32, a memoryview slice for LEN and a ``str`` for
    a field listed in ``strings``. Raises :class:`WireFormatError` for a
    varint that runs past ``end`` or is longer than 10 bytes, a length or
    fixed-width value that runs past ``end``, an unknown wire type, and a
    string field that is not length-delimited or not UTF-8."""
    pos = start
    end = len(buf) if end is None else end
    mv = memoryview(buf)
    while pos < end:
        at = pos
        key, pos = _read_varint(buf, pos, end, at, None)
        field, wire = key >> 3, key & 7
        if wire == _VARINT:
            val, pos = _read_varint(buf, pos, end, at, field)
        elif wire == _I64 or wire == _I32:
            width = 8 if wire == _I64 else 4
            if pos + width > end:
                raise WireFormatError(at, field, f"{width}-byte value runs "
                                      "past the end")
            val = struct.unpack_from("<Q" if wire == _I64 else "<I",
                                     buf, pos)[0]
            pos += width
        elif wire == _LEN:
            ln, pos = _read_varint(buf, pos, end, at, field)
            if pos + ln > end:
                raise WireFormatError(at, field, f"length {ln} runs past "
                                      f"the end ({end - pos} bytes left)")
            val = mv[pos: pos + ln]
            pos += ln
        else:
            raise WireFormatError(at, field, f"unknown wire type {wire}")
        if field in strings:
            if wire != _LEN:
                raise WireFormatError(at, field, f"wire type {wire} for a "
                                      "string")
            val = _utf8(val, at, field)
        yield field, wire, val


def _decode_anyvalue(buf) -> str:
    for f, w, v in _iter_fields(bytes(buf), strings=(1,)):
        if f == 1:
            return v
    return ""


def _decode_kv(buf) -> tuple[str, str]:
    k = s = ""
    for f, w, v in _iter_fields(bytes(buf), strings=(1,)):
        if f == 1:
            k = v
        elif f == 2:
            s = _decode_anyvalue(v)
    return k, s


def _decode_anyvalue_typed(buf) -> tuple[int, object]:
    """AnyValue bytes → (vtype, python payload) — full union decode."""
    for f, w, v in _iter_fields(bytes(buf), strings=(1,)):
        if f == 1:
            return tav.VTYPE_STR, v
        if f == 2:
            return tav.VTYPE_BOOL, bool(v)
        if f == 3:
            return tav.VTYPE_INT, (v if v < 1 << 63 else v - (1 << 64))
        if f == 4:
            return tav.VTYPE_DOUBLE, struct.unpack(
                "<d", struct.pack("<Q", v))[0]
        if f == 5:
            return tav.VTYPE_SLICE, [
                _decode_anyvalue_typed(x)
                for f2, _w2, x in _iter_fields(bytes(v)) if f2 == 1]
        if f == 6:
            return tav.VTYPE_MAP, [
                _decode_kv_typed(x)
                for f2, _w2, x in _iter_fields(bytes(v)) if f2 == 1]
        if f == 7:
            return tav.VTYPE_BYTES, bytes(v)
    return tav.VTYPE_EMPTY, None


def _decode_kv_typed(buf) -> tuple[str, tuple[int, object]]:
    k = ""
    val: tuple[int, object] = (tav.VTYPE_EMPTY, None)
    for f, w, v in _iter_fields(bytes(buf), strings=(1,)):
        if f == 1:
            k = v
        elif f == 2:
            val = _decode_anyvalue_typed(v)
    return k, val


def _decode_kv_cell(buf) -> tuple[str, dict]:
    k, val = _decode_kv_typed(buf)
    return k, tav.cell(*val)


def decode_request(buf: bytes) -> pa.Table:
    """ExportLogsServiceRequest/LogsData bytes → flat LogRecord table (same
    schema as otlp_json.parse_request_lines)."""
    rows = {c: [] for c in LOG_COLUMNS}
    for f, w, rl in _iter_fields(buf):
        if f != 1:
            continue
        res_attrs: list[tuple[str, str]] = []
        scope_msgs = []
        for f2, w2, v2 in _iter_fields(bytes(rl)):
            if f2 == 1:  # Resource
                for f3, w3, v3 in _iter_fields(bytes(v2)):
                    if f3 == 1:
                        res_attrs.append(_decode_kv(v3))
            elif f2 == 2:
                scope_msgs.append(bytes(v2))
        for sl in scope_msgs:
            sname = sver = ""
            recs = []
            for f3, w3, v3 in _iter_fields(sl):
                if f3 == 1:  # InstrumentationScope
                    for f4, w4, v4 in _iter_fields(bytes(v3),
                                                   strings=(1, 2)):
                        if f4 == 1:
                            sname = v4
                        elif f4 == 2:
                            sver = v4
                elif f3 == 2:
                    recs.append(bytes(v3))
            for rec in recs:
                r = {"time_unix_nano": 0, "observed_time_unix_nano": 0,
                     "severity_number": 0, "severity_text": "", "body": "",
                     "trace_id": "", "span_id": "", "event_name": "",
                     "attributes": []}
                for f4, w4, v4 in _iter_fields(rec, strings=(3, 12)):
                    if f4 == 1:
                        r["time_unix_nano"] = v4
                    elif f4 == 2:
                        r["severity_number"] = v4
                    elif f4 == 3:
                        r["severity_text"] = v4
                    elif f4 == 5:
                        r["body"] = _decode_anyvalue(v4)
                    elif f4 == 6:
                        r["attributes"].append(_decode_kv_cell(v4))
                    elif f4 == 9:
                        r["trace_id"] = bytes(v4).hex()
                    elif f4 == 10:
                        r["span_id"] = bytes(v4).hex()
                    elif f4 == 11:
                        r["observed_time_unix_nano"] = v4
                    elif f4 == 12:
                        r["event_name"] = v4
                rows["time_unix_nano"].append(int(r["time_unix_nano"]))
                rows["observed_time_unix_nano"].append(
                    int(r["observed_time_unix_nano"]))
                rows["severity_number"].append(int(r["severity_number"]))
                rows["severity_text"].append(r["severity_text"])
                rows["body"].append(r["body"])
                rows["trace_id"].append(r["trace_id"])
                rows["span_id"].append(r["span_id"])
                rows["event_name"].append(r["event_name"])
                rows["resource_attributes"].append(res_attrs)
                rows["scope_name"].append(sname)
                rows["scope_version"].append(sver)
                rows["attributes"].append(r["attributes"])
    return pa.table({
        "time_unix_nano": pa.array(rows["time_unix_nano"], pa.uint64()),
        "observed_time_unix_nano": pa.array(rows["observed_time_unix_nano"],
                                            pa.uint64()),
        "severity_number": pa.array(rows["severity_number"], pa.int32()),
        "severity_text": pa.array(rows["severity_text"], pa.string()),
        "body": pa.array(rows["body"], pa.string()),
        "trace_id": pa.array(rows["trace_id"], pa.string()),
        "span_id": pa.array(rows["span_id"], pa.string()),
        "event_name": pa.array(rows["event_name"], pa.string()),
        "resource_attributes": pa.array(rows["resource_attributes"],
                                        pa.map_(pa.string(), pa.string())),
        "scope_name": pa.array(rows["scope_name"], pa.string()),
        "scope_version": pa.array(rows["scope_version"], pa.string()),
        "attributes": pa.array(rows["attributes"], tav.TYPED_MAP_T),
    })


# ------------------------------------------------------------------- sizer

def record_byte_sizes(batch: pa.Table) -> list[int]:
    """Per-record encoded size INCLUDING the repeated-field length
    delimiter — the reference's ``logsMarshaler.LogRecordSize`` +
    ``DeltaSize`` semantics (``sizer/logs_sizer.go:10-49``)."""
    sizes = []
    for row in batch.to_pylist():
        n = len(encode_log_record(row))
        sizes.append(len(_tag(2, _LEN)) + len(_varint(n)) + n)
    return sizes


def split_by_bytes(batch: pa.Table, max_bytes: int) -> list[pa.Table]:
    """Split into slices whose ENCODED REQUEST — records plus the
    ResourceLogs/ScopeLogs/resource-attribute envelope — stays ≤ max_bytes
    (at least one record per slice; a single record that alone exceeds the
    budget is emitted oversized, as the reference's MergeSplit does) —
    ``queuebatch/logs_batch.go:18-100``; merging is the batcher's
    concatenation of table slices.

    Two phases: a greedy pass over per-record sizes (the cheap sizer),
    then each candidate slice is verified against its ACTUAL
    ``encode_request`` size and halved until it fits — the envelope
    depends on how rows group by (resource, scope), so only encoding the
    slice accounts for it exactly."""
    sizes = record_byte_sizes(batch)
    greedy, start, acc = [], 0, 0
    for i, s in enumerate(sizes):
        if acc and acc + s > max_bytes:
            greedy.append(batch.slice(start, i - start))
            start, acc = i, 0
        acc += s
    if start < batch.num_rows or batch.num_rows == 0:
        greedy.append(batch.slice(start))
    out: list[pa.Table] = []
    stack = list(reversed(greedy))
    while stack:
        part = stack.pop()
        if part.num_rows <= 1 or len(encode_request(part)) <= max_bytes:
            out.append(part)
            continue
        half = part.num_rows // 2
        stack.append(part.slice(half))   # pushed second half first…
        stack.append(part.slice(0, half))  # …so the first half pops next
    return out


# ------------------------------------------------------------- source/sink

def read_otlp_proto_logs(paths) -> ray.data.Dataset:
    """Read ``*.binpb`` request files into the flat LogRecord table (one
    file = one ExportLogsServiceRequest, the unit an OTLP/gRPC push
    carries). Compressed request files decompress by the writer's
    filename suffix (sources/wire_io.py)."""
    from .wire_io import read_decompressed_files

    def parse(t: pa.Table) -> pa.Table:
        tables = [decode_request(b.as_py()) for b in t.column("payload")]
        return pa.concat_tables(tables) if tables else decode_request(b"")

    return read_decompressed_files(paths).map_batches(
        parse, batch_format="pyarrow")


def write_otlp_proto_logs(ds: ray.data.Dataset, out_dir: str,
                          max_request_bytes: int | None = None,
                          compression: str = "none") -> int:
    """Each block → one (or, with a byte budget, several) ``req-*.binpb``
    request file(s); ``compression=`` gzip/zlib/deflate compresses each
    request blob (configcompression analog). Returns total records
    written."""
    from .wire_io import write_request_files

    def make_blobs(batch: pa.Table):
        parts = split_by_bytes(batch, max_request_bytes) \
            if max_request_bytes else [batch]
        return [encode_request(p) for p in parts if p.num_rows]

    return write_request_files(ds, out_dir, make_blobs, ".binpb",
                               compression)


# ------------------------------------------------------------- traces (ptrace)

# Field numbers per pdata/internal/generated_proto_span.go:505-705:
#   TracesData:    resource_spans=1
#   ResourceSpans: resource=1  scope_spans=2  schema_url=3
#   ScopeSpans:    scope=1  spans=2  schema_url=3
#   Span: trace_id=1 span_id=2 trace_state=3 parent_span_id=4 name=5
#         kind=6(varint) start_time_unix_nano=7(I64) end_time_unix_nano=8(I64)
#         attributes=9 dropped=10 events=11 links=13 status=15 flags=16(I32)
#   SpanLink (generated_proto_spanlink.go:244-276): trace_id=1 span_id=2
#         trace_state=3 attributes=4 dropped=5 flags=6(I32)
#   Status (generated_proto_status.go): message=2  code=3(varint)

SPAN_WIRE_COLUMNS = ["trace_id", "span_id", "parent_span_id", "name", "kind",
                     "start_time_unix_nano", "end_time_unix_nano",
                     "status_code", "status_message", "resource_attributes",
                     "scope_name", "scope_version", "attributes", "links"]

LINKS_T = pa.list_(pa.struct([("trace_id", pa.string()),
                              ("span_id", pa.string())]))


def encode_span(r: dict) -> bytes:
    out = bytearray()
    if r.get("trace_id"):
        out += _len_field(1, bytes.fromhex(r["trace_id"]))
    if r.get("span_id"):
        out += _len_field(2, bytes.fromhex(r["span_id"]))
    if r.get("parent_span_id"):
        out += _len_field(4, bytes.fromhex(r["parent_span_id"]))
    out += _str_field(5, r.get("name", ""))
    if r.get("kind"):
        out += _tag(6, _VARINT) + _varint(int(r["kind"]))
    if r.get("start_time_unix_nano"):
        out += _tag(7, _I64) + struct.pack("<Q", int(r["start_time_unix_nano"]))
    if r.get("end_time_unix_nano"):
        out += _tag(8, _I64) + struct.pack("<Q", int(r["end_time_unix_nano"]))
    for k, v in (r.get("attributes") or []):
        out += _len_field(9, _cell_keyvalue(k, v))
    for lk in (r.get("links") or []):
        msg = b""
        if lk.get("trace_id"):
            msg += _len_field(1, bytes.fromhex(lk["trace_id"]))
        if lk.get("span_id"):
            msg += _len_field(2, bytes.fromhex(lk["span_id"]))
        out += _len_field(13, msg)
    if r.get("status_code") or r.get("status_message"):
        st = _str_field(2, r.get("status_message", ""))
        if r.get("status_code"):
            st += _tag(3, _VARINT) + _varint(int(r["status_code"]))
        out += _len_field(15, st)
    return bytes(out)


def encode_spans_request(batch: pa.Table) -> bytes:
    """Flat span rows → one ExportTraceServiceRequest/TracesData message,
    re-nested by (resource attributes, scope)."""
    groups: dict = {}
    for row in batch.to_pylist():
        res_key = tuple(row.get("resource_attributes") or [])
        scope_key = (row.get("scope_name", ""), row.get("scope_version", ""))
        groups.setdefault(res_key, {}).setdefault(scope_key, []).append(row)
    out = bytearray()
    for res_key, scopes in groups.items():
        res_msg = b"".join(_len_field(1, _keyvalue(k, v)) for k, v in res_key)
        rs = bytearray(_len_field(1, res_msg))
        for (sname, sver), recs in scopes.items():
            scope_msg = _str_field(1, sname) + _str_field(2, sver)
            ss = bytearray(_len_field(1, scope_msg))
            for r in recs:
                ss += _len_field(2, encode_span(r))
            rs += _len_field(2, bytes(ss))
        out += _len_field(1, bytes(rs))
    return bytes(out)


def decode_spans_request(buf: bytes) -> pa.Table:
    rows = {c: [] for c in SPAN_WIRE_COLUMNS}
    for f, w, rs in _iter_fields(buf):
        if f != 1:
            continue
        res_attrs: list[tuple[str, str]] = []
        scope_msgs = []
        for f2, w2, v2 in _iter_fields(bytes(rs)):
            if f2 == 1:
                for f3, w3, v3 in _iter_fields(bytes(v2)):
                    if f3 == 1:
                        res_attrs.append(_decode_kv(v3))
            elif f2 == 2:
                scope_msgs.append(bytes(v2))
        for ss in scope_msgs:
            sname = sver = ""
            recs = []
            for f3, w3, v3 in _iter_fields(ss):
                if f3 == 1:
                    for f4, w4, v4 in _iter_fields(bytes(v3),
                                                   strings=(1, 2)):
                        if f4 == 1:
                            sname = v4
                        elif f4 == 2:
                            sver = v4
                elif f3 == 2:
                    recs.append(bytes(v3))
            for rec in recs:
                r = {"trace_id": "", "span_id": "", "parent_span_id": "",
                     "name": "", "kind": 0, "start_time_unix_nano": 0,
                     "end_time_unix_nano": 0, "status_code": 0,
                     "status_message": "", "attributes": [], "links": []}
                for f4, w4, v4 in _iter_fields(rec, strings=(5,)):
                    if f4 == 1:
                        r["trace_id"] = bytes(v4).hex()
                    elif f4 == 2:
                        r["span_id"] = bytes(v4).hex()
                    elif f4 == 4:
                        r["parent_span_id"] = bytes(v4).hex()
                    elif f4 == 5:
                        r["name"] = v4
                    elif f4 == 6:
                        r["kind"] = v4
                    elif f4 == 7:
                        r["start_time_unix_nano"] = v4
                    elif f4 == 8:
                        r["end_time_unix_nano"] = v4
                    elif f4 == 9:
                        r["attributes"].append(_decode_kv_cell(v4))
                    elif f4 == 13:
                        lk = {"trace_id": "", "span_id": ""}
                        for f5, w5, v5 in _iter_fields(bytes(v4)):
                            if f5 == 1:
                                lk["trace_id"] = bytes(v5).hex()
                            elif f5 == 2:
                                lk["span_id"] = bytes(v5).hex()
                        r["links"].append(lk)
                    elif f4 == 15:
                        for f5, w5, v5 in _iter_fields(bytes(v4),
                                                       strings=(2,)):
                            if f5 == 2:
                                r["status_message"] = v5
                            elif f5 == 3:
                                r["status_code"] = v5
                for c in ("trace_id", "span_id", "parent_span_id", "name",
                          "status_message"):
                    rows[c].append(r[c])
                for c in ("kind", "status_code"):
                    rows[c].append(int(r[c]))
                for c in ("start_time_unix_nano", "end_time_unix_nano"):
                    rows[c].append(int(r[c]))
                rows["attributes"].append(r["attributes"])
                rows["links"].append(r["links"])
                rows["resource_attributes"].append(res_attrs)
                rows["scope_name"].append(sname)
                rows["scope_version"].append(sver)
    return pa.table({
        "trace_id": pa.array(rows["trace_id"], pa.string()),
        "span_id": pa.array(rows["span_id"], pa.string()),
        "parent_span_id": pa.array(rows["parent_span_id"], pa.string()),
        "name": pa.array(rows["name"], pa.string()),
        "kind": pa.array(rows["kind"], pa.int32()),
        "start_time_unix_nano": pa.array(rows["start_time_unix_nano"],
                                         pa.uint64()),
        "end_time_unix_nano": pa.array(rows["end_time_unix_nano"], pa.uint64()),
        "status_code": pa.array(rows["status_code"], pa.int32()),
        "status_message": pa.array(rows["status_message"], pa.string()),
        "resource_attributes": pa.array(rows["resource_attributes"],
                                        pa.map_(pa.string(), pa.string())),
        "scope_name": pa.array(rows["scope_name"], pa.string()),
        "scope_version": pa.array(rows["scope_version"], pa.string()),
        "attributes": pa.array(rows["attributes"], tav.TYPED_MAP_T),
        "links": pa.array(rows["links"], LINKS_T),
    })


def _pack_trace_hex(readable_ids: list[str]) -> "list[str]":
    """Readable trace surrogate 'UUUUUUUU-HHHHHHHHH' → 32-hex TraceID
    (two big-endian uint64s; reversible). Split on the separator, NOT
    fixed offsets: printf('%08d') widens for user ids over 8 digits."""
    import numpy as np

    packed = b"".join(
        struct.pack(">QQ", *(int(p) for p in s.split("-", 1)))
        for s in readable_ids)
    return list(np.frombuffer(
        __import__("binascii").hexlify(packed), dtype="S32").astype("U32")) \
        if readable_ids else []


def spans_to_wire(t: pa.Table, service_col: str = "service") -> pa.Table:
    """Analytic span table (sources/spans.py schema) → wire-facing flat
    rows: the readable trace surrogate 'UUUUUUUU-HHHHHHHHH' packs
    REVERSIBLY into the 16-byte TraceID (two big-endian uint64s), span ids
    are already %016x, timestamps widen to ns, service becomes the
    resource attribute service.name (the semantic-conventions mapping).
    A ``links`` column (with_span_links) rides along with its trace ids
    packed the same way."""
    import numpy as np
    import pyarrow.compute as pc

    tid = t.column("trace_id").to_pylist()
    trace_hex = np.array(_pack_trace_hex(tid), "U32") if tid \
        else np.empty(0, "U32")
    start_ns = pc.multiply(
        t.column("start_ts").cast(pa.timestamp("us")).cast(pa.int64()),
        pa.scalar(1000, pa.int64()))
    end_ns = pc.add(start_ns, pc.multiply(t.column("duration_us"),
                                          pa.scalar(1000, pa.int64())))
    n = t.num_rows
    svc = t.column(service_col)
    res_attrs = pa.array(
        [[("service.name", s)] for s in svc.to_pylist()],
        pa.map_(pa.string(), pa.string()))
    if "links" in t.column_names:
        def pack_one(s: str) -> str:
            return struct.pack(">QQ", *(int(p)
                                        for p in s.split("-", 1))).hex()

        links = pa.array(
            [[{"trace_id": pack_one(lk["trace_id"]),
               "span_id": lk["span_id"]} for lk in (row or [])]
             for row in t.column("links").to_pylist()], LINKS_T)
    else:
        links = pa.array([[]] * n, LINKS_T)
    return pa.table({
        "trace_id": pa.array(trace_hex),
        "span_id": t.column("span_id"),
        "parent_span_id": t.column("parent_span_id"),
        "name": t.column("name"),
        "kind": t.column("kind"),
        "start_time_unix_nano": start_ns.cast(pa.uint64()),
        "end_time_unix_nano": end_ns.cast(pa.uint64()),
        "status_code": t.column("status_code"),
        "status_message": pa.array([""] * n, pa.string()),
        "resource_attributes": res_attrs,
        "scope_name": pa.array(["otelcol_ray"] * n, pa.string()),
        "scope_version": pa.array(["2"] * n, pa.string()),
        "attributes": pa.array([[]] * n, tav.TYPED_MAP_T),
        "links": links,
    })


def read_otlp_proto_spans(paths) -> ray.data.Dataset:
    """Read ``*.binpb`` trace request files (ExportTraceServiceRequest)
    into the flat span table; decompressed by filename suffix."""
    from .wire_io import read_decompressed_files

    def parse(t: pa.Table) -> pa.Table:
        tables = [decode_spans_request(b.as_py())
                  for b in t.column("payload")]
        return pa.concat_tables(tables) if tables \
            else decode_spans_request(b"")

    return read_decompressed_files(paths).map_batches(
        parse, batch_format="pyarrow")


def write_otlp_proto_spans(ds: ray.data.Dataset, out_dir: str,
                           compression: str = "none") -> int:
    """Each block → one trace request file; returns spans written."""
    from .wire_io import write_request_files

    return write_request_files(
        ds, out_dir,
        lambda b: encode_spans_request(b) if b.num_rows else None,
        ".binpb", compression)
