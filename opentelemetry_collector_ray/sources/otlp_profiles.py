"""OTLP profiles wire format — protobuf AND JSON codecs for the pprofile
DICTIONARY-ENCODED hierarchy, completing the wire story for the fourth
signal (analytic side: sources/profiles.py). With this module every
signal has both wire forms (logs/spans/metrics/profiles × proto/JSON).

Field numbers mirror the generated marshalers exactly (tags verified
against the 0x.. constants in each MarshalProto):

    ProfilesData:       resource_profiles=1  dictionary=2
                        (``generated_proto_profilesdata.go:191-197``)
    ResourceProfiles:   resource=1  scope_profiles=2  schema_url=3
    ScopeProfiles:      scope=1  profiles=2  schema_url=3
    Profile:            sample_type=1(ValueType) samples=2
                        time_unix_nano=3(I64) duration_nano=4(varint)
                        period_type=5 period=6 profile_id=7(bytes)
                        dropped=8 original_payload_format=9
                        original_payload=10 attribute_indices=11(packed)
                        (``generated_proto_profile.go:307-385``)
    Sample:             stack_index=1 attribute_indices=2(packed)
                        link_index=3 values=4(packed varint)
                        timestamps_unix_nano=5(packed fixed64)
    ProfilesDictionary: mapping_table=1 location_table=2
                        function_table=3 link_table=4 string_table=5
                        attribute_table=6 stack_table=7
    Function:           name_strindex=1 system_name_strindex=2
                        filename_strindex=3 start_line=4
    Stack:              location_indices=1(packed varint)
    Location:           mapping_index=1 address=2 line=3(Line)
                        attribute_indices=4
    Line:               function_index=1 line=2 column=3
    ValueType:          type_strindex=1 unit_strindex=2

Dictionary conventions follow pprofile: index 0 of every table is the
empty sentinel (string_table[0] == "", zero Function/Location/Stack), so
proto-default 0 indices are unambiguous; real entries start at 1.

The engine's analytic profile model (sources/profiles.py: 3-frame stacks
as function-table indices, value_us per sample) maps onto the wire as:
each distinct (f0, f1, f2) stack becomes one Stack of three Locations
(each Location one Line → Function), samples carry [value_us] with
sample_type (samples, us). Decode returns the dictionary tables plus a
flat samples table — ``decoded_top_functions`` re-derives the per-name
rollup for parity checks against the analytic ``top_functions``.

This is a WIRE CODEC (per-record Python, like the reference's generated
marshalers); bulk analytics use Parquet.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .otlp_proto import (_LEN, _VARINT, _anyvalue_typed,
                         _decode_anyvalue_typed, _decode_packed_varints,
                         _iter_fields, _len_field, _packed_varints,
                         _str_field, _tag, _varint)


# ------------------------------------------------- full dictionary codec
#
# Canonical python shape (index 0 of every table is the zero sentinel):
#   {"strings":   list[str],
#    "mappings":  [{"memory_start","memory_limit","file_offset",
#                   "filename_strindex","attribute_indices"}],
#    "locations": [{"mapping_index","address",
#                   "lines":[{"function_index","line","column"}],
#                   "attribute_indices"}],
#    "functions": [{"name_strindex","system_name_strindex",
#                   "filename_strindex","start_line"}],
#    "attributes":[{"key_strindex","vtype","value","unit_strindex"}],
#    "stacks":    list[list[int]]}
# Field numbers per the generated marshalers:
#   Mapping  memory_start=1 memory_limit=2 file_offset=3
#            filename_strindex=4 attribute_indices=5(packed)
#            (``generated_proto_mapping.go:215-250``)
#   Location mapping_index=1 address=2 line=3(Line) attr=4(packed)
#            (``generated_proto_location.go:220-252``)
#   Line     function_index=1 line=2 column=3
#   Function name=1 system_name=2 filename=3 start_line=4
#   KeyValueAndUnit key_strindex=1 value=2(AnyValue, unconditional)
#            unit_strindex=3 (``generated_proto_keyvalueandunit.go``)


def _mapping_msg(m: dict) -> bytes:
    out = b""
    for field, key in ((1, "memory_start"), (2, "memory_limit"),
                       (3, "file_offset"), (4, "filename_strindex")):
        if m.get(key):
            out += _tag(field, _VARINT) + _varint(int(m[key]))
    if m.get("attribute_indices"):
        out += _len_field(5, _packed_varints(m["attribute_indices"]))
    return out


def _line_msg(ln: dict) -> bytes:
    out = b""
    for field, key in ((1, "function_index"), (2, "line"), (3, "column")):
        if ln.get(key):
            out += _tag(field, _VARINT) + _varint(int(ln[key]))
    return out


def _location_msg(loc: dict) -> bytes:
    out = b""
    if loc.get("mapping_index"):
        out += _tag(1, _VARINT) + _varint(int(loc["mapping_index"]))
    if loc.get("address"):
        out += _tag(2, _VARINT) + _varint(int(loc["address"]))
    for ln in (loc.get("lines") or []):
        out += _len_field(3, _line_msg(ln))
    if loc.get("attribute_indices"):
        out += _len_field(4, _packed_varints(loc["attribute_indices"]))
    return out


def _function_msg(fn: dict) -> bytes:
    out = b""
    for field, key in ((1, "name_strindex"), (2, "system_name_strindex"),
                       (3, "filename_strindex"), (4, "start_line")):
        if fn.get(key):
            out += _tag(field, _VARINT) + _varint(int(fn[key]))
    return out


def _kvu_msg(a: dict) -> bytes:
    out = b""
    if a.get("key_strindex"):
        out += _tag(1, _VARINT) + _varint(int(a["key_strindex"]))
    # the reference marshals Value unconditionally
    out += _len_field(2, _anyvalue_typed(int(a.get("vtype") or 0),
                                         a.get("value")))
    if a.get("unit_strindex"):
        out += _tag(3, _VARINT) + _varint(int(a["unit_strindex"]))
    return out


def encode_dictionary(dic: dict) -> bytes:
    """Canonical dict → ProfilesDictionary message bytes (all seven
    reference tables; link_table omitted — links carry trace/span
    correlation the batch engine does not model)."""
    out = bytearray()
    for m in (dic.get("mappings") or [{}]):
        out += _len_field(1, _mapping_msg(m))
    for loc in (dic.get("locations") or [{}]):
        out += _len_field(2, _location_msg(loc))
    for fn in (dic.get("functions") or [{}]):
        out += _len_field(3, _function_msg(fn))
    for s in dic.get("strings", [""]):
        out += _str_field(5, s) if s else _len_field(5, b"")
    for a in (dic.get("attributes") or []):
        out += _len_field(6, _kvu_msg(a))
    for st in (dic.get("stacks") or [[]]):
        out += _len_field(7, _stack(st) if st else b"")
    return bytes(out)


def decode_dictionary(buf: bytes) -> dict:
    """ProfilesDictionary bytes → the canonical dict (inverse of
    :func:`encode_dictionary`)."""
    dic: dict = {"strings": [], "mappings": [], "locations": [],
                 "functions": [], "attributes": [], "stacks": []}
    for f, w, v in _iter_fields(buf, strings=(5,)):
        if f == 1:          # Mapping
            m = {"memory_start": 0, "memory_limit": 0, "file_offset": 0,
                 "filename_strindex": 0, "attribute_indices": []}
            for f2, w2, v2 in _iter_fields(bytes(v)):
                if f2 in (1, 2, 3, 4):
                    m[("memory_start", "memory_limit", "file_offset",
                       "filename_strindex")[f2 - 1]] = int(v2)
                elif f2 == 5:
                    m["attribute_indices"].extend(
                        _decode_packed_varints(bytes(v2)))
            dic["mappings"].append(m)
        elif f == 2:        # Location
            loc = {"mapping_index": 0, "address": 0, "lines": [],
                   "attribute_indices": []}
            for f2, w2, v2 in _iter_fields(bytes(v)):
                if f2 == 1:
                    loc["mapping_index"] = int(v2)
                elif f2 == 2:
                    loc["address"] = int(v2)
                elif f2 == 3:
                    ln = {"function_index": 0, "line": 0, "column": 0}
                    for f3, w3, v3 in _iter_fields(bytes(v2)):
                        if f3 in (1, 2, 3):
                            ln[("function_index", "line",
                                "column")[f3 - 1]] = int(v3)
                    loc["lines"].append(ln)
                elif f2 == 4:
                    loc["attribute_indices"].extend(
                        _decode_packed_varints(bytes(v2)))
            dic["locations"].append(loc)
        elif f == 3:        # Function
            fn = {"name_strindex": 0, "system_name_strindex": 0,
                  "filename_strindex": 0, "start_line": 0}
            for f2, w2, v2 in _iter_fields(bytes(v)):
                if f2 in (1, 2, 3, 4):
                    fn[("name_strindex", "system_name_strindex",
                        "filename_strindex", "start_line")[f2 - 1]] = int(v2)
            dic["functions"].append(fn)
        elif f == 5:        # string table entry
            dic["strings"].append(v)
        elif f == 6:        # KeyValueAndUnit
            a = {"key_strindex": 0, "vtype": 0, "value": None,
                 "unit_strindex": 0}
            for f2, w2, v2 in _iter_fields(bytes(v)):
                if f2 == 1:
                    a["key_strindex"] = int(v2)
                elif f2 == 2:
                    a["vtype"], a["value"] = _decode_anyvalue_typed(v2)
                elif f2 == 3:
                    a["unit_strindex"] = int(v2)
            dic["attributes"].append(a)
        elif f == 7:        # Stack
            idxs: list[int] = []
            for f2, w2, v2 in _iter_fields(bytes(v)):
                if f2 == 1:
                    idxs.extend(_decode_packed_varints(bytes(v2)))
            dic["stacks"].append(idxs)
    return dic


def _valuetype(type_idx: int, unit_idx: int) -> bytes:
    out = b""
    if type_idx:
        out += _tag(1, _VARINT) + _varint(type_idx)
    if unit_idx:
        out += _tag(2, _VARINT) + _varint(unit_idx)
    return out


def _stack(location_indices) -> bytes:
    if not location_indices:
        return b""
    return _len_field(1, _packed_varints(location_indices))


def _sample(stack_index: int, values, timestamps=()) -> bytes:
    out = b""
    if stack_index:
        out += _tag(1, _VARINT) + _varint(stack_index)
    if values:
        out += _len_field(4, _packed_varints(values))
    if timestamps:
        out += _len_field(5, b"".join(struct.pack("<Q", int(t))
                                      for t in timestamps))
    return out


def _analytic_dictionary(function_table: pa.Table, samples: pa.Table,
                         sample_type: str, sample_unit: str):
    """Shared analytic-model → canonical dictionary bridge for both
    marshalers: functions[i+1] = dense function i; locations mirror
    functions 1:1 (loc j+1 → function j+1, one Line each); stacks are
    leaf-LAST location lists. Returns (dic, stack_of_sample, vals)."""
    names = function_table.column("name").to_pylist()
    fids = function_table.column("func_id").to_pylist()
    dense = {int(f): i for i, f in enumerate(fids)}
    # string table: sentinel + type/unit + names
    strings = ["", sample_type, sample_unit] + list(names)

    f0 = samples.column("f0_id").to_numpy(zero_copy_only=False)
    f1 = samples.column("f1_id").to_numpy(zero_copy_only=False)
    f2 = samples.column("f2_id").to_numpy(zero_copy_only=False)
    vals = samples.column("value_us").to_numpy(zero_copy_only=False)
    stacks = np.stack([f0, f1, f2], axis=1)
    uniq, stack_of_sample = np.unique(stacks, axis=0, return_inverse=True) \
        if len(stacks) else (np.empty((0, 3), np.int64),
                             np.empty(0, np.int64))
    dic = {
        "strings": strings,
        "mappings": [{}],
        "locations": [{}] + [{"lines": [{"function_index": i + 1}]}
                             for i in range(len(names))],
        "functions": [{}] + [{"name_strindex": 3 + i}
                             for i in range(len(names))],
        "attributes": [],
        "stacks": [[]] + [[dense[int(a)] + 1, dense[int(b)] + 1,
                           dense[int(c)] + 1] for a, b, c in uniq],
    }
    return dic, stack_of_sample, vals


def encode_profiles_request(function_table: pa.Table, samples: pa.Table,
                            sample_type: str = "samples",
                            sample_unit: str = "us") -> bytes:
    """(func_id, name) dictionary + (f0_id, f1_id, f2_id, value_us)
    samples → one ExportProfilesServiceRequest/ProfilesData blob.

    func_ids are the analytic dictionary's DENSE ids
    (profiles.build_function_table); the wire shifts everything by +1 for
    the zero-sentinel convention. Stacks are leaf-LAST location lists
    (f0 root … f2 leaf — the flame_edges orientation)."""
    dic, stack_of_sample, vals = _analytic_dictionary(
        function_table, samples, sample_type, sample_unit)
    dictionary = encode_dictionary(dic)

    sample_msgs = b"".join(
        _len_field(2, _sample(int(si) + 1, [int(v)]))
        for si, v in zip(stack_of_sample, vals))
    profile = (_len_field(1, _valuetype(1, 2))  # sample_type (type, unit)
               + sample_msgs)
    scope_profiles = (_len_field(1, _str_field(1, "otelcol_ray"))
                      + _len_field(2, profile))
    resource_profiles = _len_field(1, b"") + _len_field(2, scope_profiles)
    return _len_field(1, resource_profiles) + _len_field(2, dictionary)


def decode_profiles_request(buf: bytes) -> dict:
    """ProfilesData bytes → dictionary tables + flat samples:

    {"strings": list[str],
     "functions": pa.Table (func_idx, name),         # wire indices
     "stacks":    pa.Table (stack_idx, func_idxs list<int64>),
     "samples":   pa.Table (stack_idx, value),
     "dictionary": canonical full-fidelity dict (all tables, every
                   mapping/location/line/attribute field — see
                   :func:`decode_dictionary`)}

    The flat lens maps each location to its FIRST Line's function
    (pprof convention: Line[0] is the innermost inlined frame); the
    full multi-line structure is preserved under ``"dictionary"``."""
    dic: dict = {"strings": [], "mappings": [], "locations": [],
                 "functions": [], "attributes": [], "stacks": []}
    sample_rows: list[tuple[int, int]] = []

    def walk_profile(b: bytes) -> None:
        for f, w, v in _iter_fields(b):
            if f == 2:      # Sample
                si = 0
                vals: list[int] = []
                for f2, w2, v2 in _iter_fields(bytes(v)):
                    if f2 == 1:
                        si = v2
                    elif f2 == 4:
                        if w2 == _LEN:
                            vals.extend(_decode_packed_varints(bytes(v2)))
                        else:
                            vals.append(int(v2))
                sample_rows.append((si, vals[0] if vals else 0))

    for f, w, v in _iter_fields(buf):
        if f == 2:
            dic = decode_dictionary(bytes(v))
        elif f == 1:        # ResourceProfiles
            for f2, w2, v2 in _iter_fields(bytes(v)):
                if f2 == 2:  # ScopeProfiles
                    for f3, w3, v3 in _iter_fields(bytes(v2)):
                        if f3 == 2:  # Profile
                            walk_profile(bytes(v3))

    strings = dic["strings"]
    functions = [fn["name_strindex"] for fn in dic["functions"]]
    locations = [(loc["lines"][0]["function_index"] if loc["lines"]
                  else 0) for loc in dic["locations"]]
    stacks = dic["stacks"]
    # resolve stacks: location idx → function idx
    func_names = [strings[n] if n < len(strings) else "" for n in functions]
    stack_funcs = [[locations[li] for li in s] for s in stacks]
    return {
        "strings": strings,
        "functions": pa.table({
            "func_idx": pa.array(range(len(functions)), pa.int64()),
            "name": pa.array(func_names, pa.string())}),
        "stacks": pa.table({
            "stack_idx": pa.array(range(len(stacks)), pa.int64()),
            "func_idxs": pa.array(stack_funcs, pa.list_(pa.int64()))}),
        "samples": pa.table({
            "stack_idx": pa.array([r[0] for r in sample_rows], pa.int64()),
            "value": pa.array([r[1] for r in sample_rows], pa.int64())}),
        "dictionary": dic,
    }


def dictionary_to_json(dic: dict) -> dict:
    """Canonical dictionary → OTLP/JSON object (camelCase field names
    per the OTLP JSON mapping, proto defaults omitted —
    ``pdata/pprofile/json.go`` analog)."""
    from ..functions import typedattrs as tav

    def drop0(d: dict) -> dict:
        return {k: v for k, v in d.items() if v}

    return {
        "mappingTable": [drop0({
            "memoryStart": m.get("memory_start"),
            "memoryLimit": m.get("memory_limit"),
            "fileOffset": m.get("file_offset"),
            "filenameStrindex": m.get("filename_strindex"),
            "attributeIndices": m.get("attribute_indices"),
        }) for m in (dic.get("mappings") or [{}])],
        "locationTable": [drop0({
            "mappingIndex": loc.get("mapping_index"),
            "address": loc.get("address"),
            "line": [drop0({"functionIndex": ln.get("function_index"),
                            "line": ln.get("line"),
                            "column": ln.get("column")})
                     for ln in (loc.get("lines") or [])],
            "attributeIndices": loc.get("attribute_indices"),
        }) for loc in (dic.get("locations") or [{}])],
        "functionTable": [drop0({
            "nameStrindex": fn.get("name_strindex"),
            "systemNameStrindex": fn.get("system_name_strindex"),
            "filenameStrindex": fn.get("filename_strindex"),
            "startLine": fn.get("start_line"),
        }) for fn in (dic.get("functions") or [{}])],
        "stringTable": dic.get("strings", [""]),
        "attributeTable": [{
            **drop0({"keyStrindex": a.get("key_strindex"),
                     "unitStrindex": a.get("unit_strindex")}),
            "value": tav.value_to_json(int(a.get("vtype") or 0),
                                       a.get("value")),
        } for a in (dic.get("attributes") or [])],
        "stackTable": [({"locationIndices": s} if s else {})
                       for s in (dic.get("stacks") or [[]])],
    }


def dictionary_from_json(d: dict) -> dict:
    """OTLP/JSON dictionary object → the canonical dict (inverse of
    :func:`dictionary_to_json`; same shape as proto's
    :func:`decode_dictionary`)."""
    from ..functions import typedattrs as tav

    mappings = [{"memory_start": int(m.get("memoryStart", 0)),
                 "memory_limit": int(m.get("memoryLimit", 0)),
                 "file_offset": int(m.get("fileOffset", 0)),
                 "filename_strindex": int(m.get("filenameStrindex", 0)),
                 "attribute_indices": [int(i) for i in
                                       m.get("attributeIndices", [])]}
                for m in d.get("mappingTable", [])]
    locations = [{"mapping_index": int(loc.get("mappingIndex", 0)),
                  "address": int(loc.get("address", 0)),
                  "lines": [{"function_index": int(ln.get("functionIndex",
                                                          0)),
                             "line": int(ln.get("line", 0)),
                             "column": int(ln.get("column", 0))}
                            for ln in loc.get("line", [])],
                  "attribute_indices": [int(i) for i in
                                        loc.get("attributeIndices", [])]}
                 for loc in d.get("locationTable", [])]
    functions = [{"name_strindex": int(fn.get("nameStrindex", 0)),
                  "system_name_strindex": int(fn.get("systemNameStrindex",
                                                     0)),
                  "filename_strindex": int(fn.get("filenameStrindex", 0)),
                  "start_line": int(fn.get("startLine", 0))}
                 for fn in d.get("functionTable", [])]
    attributes = []
    for a in d.get("attributeTable", []):
        vtype, value = tav.json_to_value(a.get("value", {}))
        attributes.append({"key_strindex": int(a.get("keyStrindex", 0)),
                           "vtype": vtype, "value": value,
                           "unit_strindex": int(a.get("unitStrindex", 0))})
    return {"strings": list(d.get("stringTable", [])),
            "mappings": mappings, "locations": locations,
            "functions": functions, "attributes": attributes,
            "stacks": [[int(i) for i in s.get("locationIndices", [])]
                       for s in d.get("stackTable", [])]}


def encode_profiles_json(function_table: pa.Table, samples: pa.Table,
                         sample_type: str = "samples",
                         sample_unit: str = "us") -> str:
    """Same inputs as ``encode_profiles_request`` → one OTLP/JSON line
    (ExportProfilesServiceRequest, camelCase field names per the OTLP JSON
    mapping — ``pdata/pprofile/json.go`` analog). Index conventions are
    identical to the proto marshaler (zero-sentinel row 0 per table), so
    the two wire forms are cross-marshaler comparable."""
    import json

    dic, stack_of_sample, vals = _analytic_dictionary(
        function_table, samples, sample_type, sample_unit)
    dictionary = dictionary_to_json(dic)
    profile = {
        "sampleType": {"typeStrindex": 1, "unitStrindex": 2},
        "samples": [{"stackIndex": int(si) + 1, "values": [str(int(v))]}
                    for si, v in zip(stack_of_sample, vals)],
    }
    req = {
        "resourceProfiles": [{
            "resource": {},
            "scopeProfiles": [{
                "scope": {"name": "otelcol_ray"},
                "profiles": [profile],
            }],
        }],
        "dictionary": dictionary,
    }
    return json.dumps(req, separators=(",", ":"))


def decode_profiles_json(line: str) -> dict:
    """OTLP/JSON profiles line → the SAME dict shape as
    ``decode_profiles_request`` (strings / functions / stacks / samples),
    so the two unmarshalers are drop-in interchangeable."""
    import json

    req = json.loads(line)
    dic = dictionary_from_json(req.get("dictionary", {}))
    strings = dic["strings"]
    functions = [fn["name_strindex"] for fn in dic["functions"]]
    locations = [(loc["lines"][0]["function_index"] if loc["lines"]
                  else 0) for loc in dic["locations"]]
    stacks = dic["stacks"]
    sample_rows: list[tuple[int, int]] = []
    for rp in req.get("resourceProfiles", []):
        for sp in rp.get("scopeProfiles", []):
            for prof in sp.get("profiles", []):
                for s in prof.get("samples", []):
                    vals = [int(v) for v in s.get("values", [])]
                    sample_rows.append((int(s.get("stackIndex", 0)),
                                        vals[0] if vals else 0))

    func_names = [strings[n] if n < len(strings) else "" for n in functions]
    stack_funcs = [[locations[li] for li in s] for s in stacks]
    return {
        "strings": strings,
        "functions": pa.table({
            "func_idx": pa.array(range(len(functions)), pa.int64()),
            "name": pa.array(func_names, pa.string())}),
        "stacks": pa.table({
            "stack_idx": pa.array(range(len(stacks)), pa.int64()),
            "func_idxs": pa.array(stack_funcs, pa.list_(pa.int64()))}),
        "samples": pa.table({
            "stack_idx": pa.array([r[0] for r in sample_rows], pa.int64()),
            "value": pa.array([r[1] for r in sample_rows], pa.int64())}),
        "dictionary": dic,
    }


def decoded_top_functions(decoded: dict) -> pa.Table:
    """Per-function rollup straight from the DECODED wire form (name,
    n_samples, total, self) — the parity bridge to the analytic
    ``profiles.top_functions`` (self = leaf = LAST location of the
    stack)."""
    funcs = decoded["functions"]
    names = funcs.column("name").to_pylist()
    stacks = decoded["stacks"].column("func_idxs").to_pylist()
    samples = decoded["samples"]
    agg: dict[str, list[int]] = {}
    for si, val in zip(samples.column("stack_idx").to_pylist(),
                       samples.column("value").to_pylist()):
        fidxs = stacks[si]
        for depth, fi in enumerate(fidxs):
            nm = names[fi]
            row = agg.setdefault(nm, [0, 0, 0])
            row[0] += 1
            row[1] += val
            if depth == len(fidxs) - 1:
                row[2] += val
    items = sorted(agg.items())
    return pa.table({
        "name": pa.array([k for k, _ in items], pa.string()),
        "n_samples": pa.array([v[0] for _, v in items], pa.int64()),
        "total_us": pa.array([v[1] for _, v in items], pa.int64()),
        "self_us": pa.array([v[2] for _, v in items], pa.int64()),
    })
