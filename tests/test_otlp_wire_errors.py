"""The shared protobuf field walker (``otlp_proto._iter_fields``) on
malformed input: each way a payload can be cut or corrupted raises
``WireFormatError`` with the offset, the field and the reason, and a
payload cut anywhere either raises it or decodes to an exact prefix of
the records."""

from __future__ import annotations

import pickle

import pyarrow as pa
import pytest

from opentelemetry_collector_ray.functions import typedattrs as tav
from opentelemetry_collector_ray.sources.otlp_proto import (
    WireFormatError, _iter_fields, decode_request, encode_request)


def _planted(n: int = 20) -> pa.Table:
    """``n`` records over 7 resources, with I64 times, varint severities,
    typed (double, int, bool, string) attributes and non-ASCII bodies."""
    typed = [(tav.VTYPE_DOUBLE, 1.5), (tav.VTYPE_INT, -3),
             (tav.VTYPE_BOOL, True), (tav.VTYPE_STR, "é")]
    return pa.table({
        "time_unix_nano": pa.array([10**18 + i for i in range(n)],
                                   pa.uint64()),
        "observed_time_unix_nano": pa.array([i % 3 for i in range(n)],
                                            pa.uint64()),
        "severity_number": pa.array([i % 25 for i in range(n)], pa.int32()),
        "severity_text": pa.array(["INFO"] * n),
        "body": pa.array([f"record {i} ünï 🙂" for i in range(n)]),
        "trace_id": pa.array(["0102030405060708090a0b0c0d0e0f10"] * n),
        "span_id": pa.array(["0102030405060708"] * n),
        "event_name": pa.array(["" if i % 2 else "ev" for i in range(n)]),
        "resource_attributes": pa.array(
            [[("svc", f"s{i % 7}")] for i in range(n)],
            pa.map_(pa.string(), pa.string())),
        "scope_name": pa.array(["scope"] * n),
        "scope_version": pa.array(["1"] * n),
        "attributes": pa.array(
            [[("k", tav.cell(*typed[i % 4]))] for i in range(n)],
            tav.TYPED_MAP_T),
    })


def test_every_cut_raises_or_decodes_a_prefix():
    payload = encode_request(_planted())
    records = decode_request(payload).to_pylist()
    assert len(records) == 20
    outcomes = {"error": 0, "prefix": 0}
    for cut in range(len(payload) + 1):
        try:
            got = decode_request(payload[:cut]).to_pylist()
        except WireFormatError as e:
            assert 0 <= e.offset < cut, (cut, e)
            outcomes["error"] += 1
            continue
        assert got == records[:len(got)], cut
        outcomes["prefix"] += 1
    # a prefix only where the cut falls between top-level fields
    assert outcomes["prefix"] == 8 and outcomes["error"] == len(payload) - 7


@pytest.mark.parametrize("payload, offset, field, reason", [
    (b"\x80", 0, None, "varint runs past the end"),
    (b"\x08", 0, 1, "varint runs past the end"),
    (b"\x08\x01\x10" + b"\xff" * 10 + b"\x01", 2, 2,
     "varint longer than 10 bytes"),
    (b"\x09\x00\x00", 0, 1, "8-byte value runs past the end"),
    (b"\x08\x01\x2d\x00", 2, 5, "4-byte value runs past the end"),
    (b"\x0a\x05ab", 0, 1, "length 5 runs past the end"),
    (b"\x08\x01\x0a\x80", 2, 1, "varint runs past the end"),
    (b"\x08\x01\x0b", 2, 1, "unknown wire type 3"),
])
def test_each_malformed_case(payload, offset, field, reason):
    with pytest.raises(WireFormatError) as info:
        list(_iter_fields(payload))
    e = info.value
    assert (e.offset, e.field) == (offset, field)
    assert reason in e.reason and isinstance(e, ValueError)
    back = pickle.loads(pickle.dumps(e))
    assert (back.offset, back.field, back.reason, str(back)) == \
        (e.offset, e.field, e.reason, str(e))


def test_walk_stops_at_its_end_bound():
    """A walk over ``[start, end)`` reads nothing past ``end``: a length
    that fits the buffer but not the bound is an error."""
    buf = b"\x0a\x02ab\x08\x07"
    assert [(f, w, bytes(v) if w == 2 else v)
            for f, w, v in _iter_fields(buf)] == [(1, 2, b"ab"), (1, 0, 7)]
    with pytest.raises(WireFormatError, match="length 2 runs past"):
        list(_iter_fields(buf, 0, 3))
    assert list(_iter_fields(buf, 4, 6)) == [(1, 0, 7)]


def test_invalid_utf8_body_names_the_field():
    """A record body whose first byte is flipped to 0xff is not UTF-8:
    the decode raises ``WireFormatError`` for the AnyValue's string field
    (1), not a bare ``UnicodeDecodeError``."""
    payload = bytearray(encode_request(_planted()))
    at = payload.index(b"record 3 ")
    payload[at] = 0xFF
    with pytest.raises(WireFormatError) as info:
        decode_request(bytes(payload))
    e = info.value
    assert (e.offset, e.field, e.reason) == (0, 1, "invalid UTF-8")
    assert "field 1" in str(e)


@pytest.mark.parametrize("payload, offset, reason", [
    (b"\x08\x01\x12\x02\xc3\x28", 2, "invalid UTF-8"),
    (b"\x08\x01\x10\x05", 2, "wire type 0 for a string"),
])
def test_string_field_errors(payload, offset, reason):
    with pytest.raises(WireFormatError) as info:
        list(_iter_fields(payload, strings=(2,)))
    assert (info.value.offset, info.value.field, info.value.reason) == \
        (offset, 2, reason)


def test_string_field_decodes_to_str():
    assert [(f, v) for f, _w, v in _iter_fields(b"\x08\x01\x12\x02ok",
                                                strings=(2,))] == \
        [(1, 1), (2, "ok")]
