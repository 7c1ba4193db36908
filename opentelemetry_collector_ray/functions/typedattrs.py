"""TYPED dynamic attribute maps — the full ``pcommon.Value`` union
(``/root/reference/pdata/pcommon/value.go:19-30``: Empty/Str/Int/Double/
Bool/Map/Slice/Bytes) as an Arrow column, with the ``pcommon.Map``
operation surface over it.

Representation (SURVEY.md §1.5 names the dense_union / typed-struct
options; the struct-of-lanes is chosen because union arrays do not
survive Ray's block conversions): a ``map<string, struct>`` whose value
struct carries a type tag plus one lane per primitive case —

    vtype int8   ValueType code (VTYPE_*: 0=Empty 1=Str 2=Int 3=Double
                 4=Bool 5=Map 6=Slice 7=Bytes — value.go order)
    s     string Str lane; DEEP Map/Slice store canonical JSON here
    i     int64  Int lane
    d     double Double lane
    b     bool   Bool lane
    z     binary Bytes lane
    nk    list<string>      one-deep Map: entry keys (order kept)
    nv    list<NESTED_T>    one-deep Map/Slice: entry value cells

Exactly one lane is populated per entry (the others are null). ONE-DEEP
containers — a Slice of primitives, a Map of primitives: the common
real-OTLP shapes (``process.command_args``-style) — are REAL nested
Arrow (``nk``/``nv`` lanes), so element access is a vectorized offsets
walk (``get_nested``), no JSON parse. Deeper nesting rides the string
lane as canonical JSON — ``[vtype, payload]`` recursively, bytes
base64 — keeping the Arrow schema finite; the wire codecs re-nest
both shapes into real AnyValue kvlist/array messages.

Every op is vectorized over the MapArray's FLAT children (numpy index
arithmetic on keys/offsets + one ``take`` on the value struct) — never a
Python loop over rows. Last-writer-wins upsert semantics match
``pcommon/map.go:65-319`` (PutStr/PutInt/..., Get, Remove).

The string-restricted ``functions/mapattrs.py`` remains the lightweight
map<string,string> surface; this module is the faithful one.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

VTYPE_EMPTY, VTYPE_STR, VTYPE_INT, VTYPE_DOUBLE = 0, 1, 2, 3
VTYPE_BOOL, VTYPE_MAP, VTYPE_SLICE, VTYPE_BYTES = 4, 5, 6, 7

LANES = ("s", "i", "d", "b", "z")
# NESTED_T: the element cell of a one-deep container — primitive lanes
# only (a nested container inside it would be two-deep → JSON fallback)
NESTED_T = pa.struct([
    ("vtype", pa.int8()),
    ("s", pa.string()),
    ("i", pa.int64()),
    ("d", pa.float64()),
    ("b", pa.bool_()),
    ("z", pa.binary()),
])
VALUE_T = pa.struct([
    ("vtype", pa.int8()),
    ("s", pa.string()),
    ("i", pa.int64()),
    ("d", pa.float64()),
    ("b", pa.bool_()),
    ("z", pa.binary()),
    ("nk", pa.list_(pa.string())),
    ("nv", pa.list_(NESTED_T)),
])
TYPED_MAP_T = pa.map_(pa.string(), VALUE_T)

_LANE_OF = {VTYPE_STR: "s", VTYPE_INT: "i", VTYPE_DOUBLE: "d",
            VTYPE_BOOL: "b", VTYPE_BYTES: "z",
            VTYPE_MAP: "s", VTYPE_SLICE: "s"}
_LANE_TYPE = {"s": pa.string(), "i": pa.int64(), "d": pa.float64(),
              "b": pa.bool_(), "z": pa.binary()}


# --------------------------------------------------- python-value cells
# Canonical python-side value = (vtype, payload); containers recurse:
#   Map   → [(key, (vtype, payload)), ...]   (ORDER KEPT — pcommon.Map
#            is an ordered kv-list)
#   Slice → [(vtype, payload), ...]
# Used by the wire codecs (json/proto) to move between nested AnyValue
# messages and flat typed cells.

def _to_jsonable(vtype: int, py):
    if vtype == VTYPE_BYTES:
        return base64.b64encode(py).decode()
    if vtype == VTYPE_MAP:
        return [[k, [vt, _to_jsonable(vt, v)]] for k, (vt, v) in py]
    if vtype == VTYPE_SLICE:
        return [[vt, _to_jsonable(vt, v)] for vt, v in py]
    return py


def _from_jsonable(vtype: int, j):
    if vtype == VTYPE_BYTES:
        return base64.b64decode(j)
    if vtype == VTYPE_MAP:
        return [(k, (vt, _from_jsonable(vt, v))) for k, (vt, v) in j]
    if vtype == VTYPE_SLICE:
        return [(vt, _from_jsonable(vt, v)) for vt, v in j]
    return j


_PRIMITIVE = (VTYPE_EMPTY, VTYPE_STR, VTYPE_INT, VTYPE_DOUBLE,
              VTYPE_BOOL, VTYPE_BYTES)


def _nested_cell(vtype: int, py) -> dict:
    """Primitive-only cell (NESTED_T row) for one-deep container
    elements."""
    out = {"vtype": vtype, "s": None, "i": None, "d": None, "b": None,
           "z": None}
    if vtype == VTYPE_EMPTY:
        return out
    if vtype == VTYPE_INT:
        out["i"] = int(py)
    elif vtype == VTYPE_DOUBLE:
        out["d"] = float(py)
    elif vtype == VTYPE_BOOL:
        out["b"] = bool(py)
    else:
        out[_LANE_OF[vtype]] = py
    return out


def cell(vtype: int, py) -> dict:
    """(vtype, python payload) → one flat cell dict (the struct row).
    One-deep containers land on the real nested lanes (nk/nv); deeper
    nesting falls back to canonical JSON on the string lane."""
    out = {"vtype": vtype, "s": None, "i": None, "d": None, "b": None,
           "z": None, "nk": None, "nv": None}
    if vtype == VTYPE_EMPTY:
        return out
    if vtype == VTYPE_SLICE:
        if all(vt in _PRIMITIVE for vt, _ in py):
            out["nv"] = [_nested_cell(vt, v) for vt, v in py]
        else:
            out["s"] = json.dumps(_to_jsonable(vtype, py),
                                  sort_keys=False, separators=(",", ":"))
    elif vtype == VTYPE_MAP:
        if all(vt in _PRIMITIVE for _, (vt, _) in py):
            out["nk"] = [k for k, _ in py]
            out["nv"] = [_nested_cell(vt, v) for _, (vt, v) in py]
        else:
            out["s"] = json.dumps(_to_jsonable(vtype, py),
                                  sort_keys=False, separators=(",", ":"))
    elif vtype == VTYPE_INT:
        out["i"] = int(py)
    elif vtype == VTYPE_DOUBLE:
        out["d"] = float(py)
    elif vtype == VTYPE_BOOL:
        out["b"] = bool(py)
    else:
        out[_LANE_OF[vtype]] = py
    return out


def _nested_cell_value(c: dict) -> tuple[int, object]:
    vt = c["vtype"]
    if vt == VTYPE_EMPTY:
        return vt, None
    return vt, c[_LANE_OF[vt]]


def cell_value(c: dict) -> tuple[int, object]:
    """One flat cell dict → (vtype, python payload)."""
    vt = c["vtype"]
    if vt == VTYPE_EMPTY:
        return vt, None
    if vt == VTYPE_SLICE:
        if c.get("s") is not None:  # deep → JSON fallback lane
            return vt, _from_jsonable(vt, json.loads(c["s"]))
        return vt, [_nested_cell_value(e) for e in (c.get("nv") or [])]
    if vt == VTYPE_MAP:
        if c.get("s") is not None:
            return vt, _from_jsonable(vt, json.loads(c["s"]))
        return vt, [(k, _nested_cell_value(e))
                    for k, e in zip(c.get("nk") or [], c.get("nv") or [])]
    return vt, c[_LANE_OF[vt]]


# ---------------------------------------------- OTLP/JSON AnyValue form
# Shared by the JSON and protobuf wire codecs so both marshal the same
# typed model (plog json.go / pb.go: one pdata model, two marshalers).
# Per the OTLP JSON mapping int64 rides as a STRING ("intValue": "3").

def json_to_value(v: dict) -> tuple[int, object]:
    """OTLP JSON AnyValue object → (vtype, python payload)."""
    if "stringValue" in v:
        return VTYPE_STR, v["stringValue"]
    if "boolValue" in v:
        return VTYPE_BOOL, bool(v["boolValue"])
    if "intValue" in v:
        return VTYPE_INT, int(v["intValue"])
    if "doubleValue" in v:
        return VTYPE_DOUBLE, float(v["doubleValue"])
    if "bytesValue" in v:
        return VTYPE_BYTES, base64.b64decode(v["bytesValue"])
    if "arrayValue" in v:
        return VTYPE_SLICE, [json_to_value(x)
                             for x in v["arrayValue"].get("values", [])]
    if "kvlistValue" in v:
        return VTYPE_MAP, [(kv.get("key", ""),
                            json_to_value(kv.get("value", {})))
                           for kv in v["kvlistValue"].get("values", [])]
    return VTYPE_EMPTY, None


def value_to_json(vtype: int, py) -> dict:
    """(vtype, python payload) → OTLP JSON AnyValue object."""
    if vtype == VTYPE_STR:
        return {"stringValue": py}
    if vtype == VTYPE_BOOL:
        return {"boolValue": bool(py)}
    if vtype == VTYPE_INT:
        return {"intValue": str(int(py))}
    if vtype == VTYPE_DOUBLE:
        return {"doubleValue": float(py)}
    if vtype == VTYPE_BYTES:
        return {"bytesValue": base64.b64encode(py).decode()}
    if vtype == VTYPE_SLICE:
        return {"arrayValue": {"values": [value_to_json(vt, v)
                                          for vt, v in py]}}
    if vtype == VTYPE_MAP:
        return {"kvlistValue": {"values": [
            {"key": k, "value": value_to_json(vt, v)} for k, (vt, v) in py]}}
    return {}


# ------------------------------------------------------- arrow plumbing

def _parts(m: pa.Array | pa.ChunkedArray):
    """(offsets, keys ndarray, value StructArray) — rebased so a sliced
    MapArray exposes only its own entries (see mapattrs._parts)."""
    if isinstance(m, pa.ChunkedArray):
        m = m.combine_chunks()
    off = np.asarray(m.offsets.to_numpy(zero_copy_only=False), np.int64)
    keys = np.asarray(m.keys.to_numpy(zero_copy_only=False), dtype=object)
    items = m.items
    base = off[0] if len(off) else 0
    if base or (len(off) and off[-1] != len(keys)):
        keys = keys[base: off[-1]]
        items = items.slice(base, off[-1] - base)
        off = off - base
    return off, keys, items


def _rebuild(off: np.ndarray, keys: np.ndarray,
             items: pa.StructArray) -> pa.Array:
    if isinstance(items, pa.ChunkedArray):
        items = items.combine_chunks()
    return pa.MapArray.from_arrays(
        pa.array(off.astype(np.int32)), pa.array(keys, pa.string()),
        items.cast(VALUE_T))


def _take(items, idx: np.ndarray) -> pa.StructArray:
    return items.take(pa.array(idx.astype(np.int64)))


def _list_parts(arr: pa.ListArray) -> tuple[np.ndarray, pa.Array]:
    """(rebased int64 offsets, matching flat values) of a ListArray —
    the sliced-array rebase in ONE place (a sliced ListArray's offsets
    don't start at 0 and its values child spans the unsliced parent;
    reading either raw silently indexes the wrong rows — the exact bug
    class fixed in multimodal/corpusstats this round)."""
    off = np.asarray(arr.offsets.to_numpy(zero_copy_only=False), np.int64)
    values = arr.values
    base = off[0] if len(off) else 0
    if base or (len(off) and off[-1] != len(values)):
        values = values.slice(base, off[-1] - base)
        off = off - base
    return off, values


def _primitive_vtype(t: pa.DataType) -> int:
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return VTYPE_STR
    if pa.types.is_boolean(t):
        return VTYPE_BOOL
    if pa.types.is_integer(t):
        return VTYPE_INT
    if pa.types.is_floating(t):
        return VTYPE_DOUBLE
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return VTYPE_BYTES
    raise TypeError(f"no pcommon.Value lane for arrow type {t}")


ALL_LANES = (*LANES, "nk", "nv")
_LANE_TYPE["nk"] = pa.list_(pa.string())
_LANE_TYPE["nv"] = pa.list_(NESTED_T)


def lift(col: pa.Array | pa.ChunkedArray) -> tuple[int, pa.StructArray]:
    """A typed Arrow column → (vtype code, full-length value struct with
    the matching lane populated). Type inference: string→Str, int→Int,
    float→Double, bool→Bool, binary→Bytes, list<primitive>→Slice on the
    REAL nested lane (nv) — zero-copy offsets, elements lifted once."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    n = len(col)
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        # one-deep Slice: reuse the list's own offsets over lifted elems
        off, values = _list_parts(col)
        if pa.types.is_list(values.type) or pa.types.is_large_list(
                values.type):
            raise TypeError("lift: two-deep list nesting has no real "
                            "lane; serialize to JSON cells instead")
        evt = _primitive_vtype(values.type)
        elane = _LANE_OF[evt]
        nvals = len(values)
        elanes = {nm: (values.cast(_LANE_TYPE[nm]) if nm == elane
                       else pa.nulls(nvals, _LANE_TYPE[nm]))
                  for nm in LANES}
        # a null ELEMENT is the Empty value case, not a typed cell with
        # a null lane — (evt, None) cells would crash the wire codecs
        evtypes = np.where(np.asarray(values.is_null()),
                           np.int8(VTYPE_EMPTY), np.int8(evt))
        elem_lifted = pa.StructArray.from_arrays(
            [pa.array(evtypes.astype(np.int8)), *elanes.values()],
            names=["vtype", *LANES])
        # a null at offsets[i] marks list i null (ListArray convention)
        null_mask = np.concatenate(
            [np.asarray(col.is_null()), [False]])
        nv = pa.ListArray.from_arrays(
            pa.array(off.astype(np.int32), mask=null_mask),
            elem_lifted.cast(NESTED_T))
        lanes = {nm: (nv if nm == "nv" else pa.nulls(n, _LANE_TYPE[nm]))
                 for nm in ALL_LANES}
        vtypes = pa.array(np.full(n, VTYPE_SLICE, np.int8))
        return VTYPE_SLICE, pa.StructArray.from_arrays(
            [vtypes, *lanes.values()], names=["vtype", *ALL_LANES])
    vt = _primitive_vtype(t)
    lane = _LANE_OF[vt]
    lanes = {nm: (col.cast(_LANE_TYPE[nm]) if nm == lane
                  else pa.nulls(n, _LANE_TYPE[nm])) for nm in ALL_LANES}
    vtypes = pa.array(np.full(n, vt, np.int8))
    return vt, pa.StructArray.from_arrays(
        [vtypes, *lanes.values()], names=["vtype", *ALL_LANES])


def build_typed_map(columns: dict[str, pa.Array | pa.ChunkedArray]) -> pa.Array:
    """Fixed typed columns → typed map column; a row's entry is omitted
    when the value is null (pcommon.Map has no null values)."""
    names = list(columns)
    cols = []
    for c in columns.values():
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        cols.append(c)
    n = len(cols[0]) if cols else 0
    valid = np.stack([~np.asarray(c.is_null()) for c in cols], axis=1) \
        if cols else np.zeros((0, 0), bool)
    counts = valid.sum(axis=1)
    off = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=off[1:])
    total = int(off[-1])
    keys = np.empty(total, object)
    perm = np.empty(total, np.int64)
    pieces: list[pa.StructArray] = []
    before = np.zeros(n, np.int64)
    base = 0
    for j, name in enumerate(names):
        rows = np.flatnonzero(valid[:, j])
        pos = off[rows] + before[rows]
        keys[pos] = name
        _, lifted = lift(cols[j])
        pieces.append(_take(lifted, rows))
        perm[pos] = base + np.arange(len(rows))
        base += len(rows)
        before[rows] += 1
    if not pieces:
        items = pa.array([], VALUE_T)
    else:
        items = _take(pa.concat_arrays([p.cast(VALUE_T) for p in pieces]),
                      perm)
    return _rebuild(off, keys, items)


def map_len(m) -> pa.Array:
    off, _, _ = _parts(m)
    return pa.array(np.diff(off).astype(np.int64))


def map_has(m, key: str) -> pa.Array:
    off, keys, _ = _parts(m)
    n = len(off) - 1
    rows = np.repeat(np.arange(n), np.diff(off))
    hit = np.zeros(n, bool)
    hit[rows[keys == key]] = True
    return pa.array(hit)


def _last_index(m, key: str) -> tuple[np.ndarray, pa.StructArray, int]:
    off, keys, items = _parts(m)
    n = len(off) - 1
    rows = np.repeat(np.arange(n), np.diff(off))
    match = np.flatnonzero(keys == key)
    last = np.full(n, -1, np.int64)
    np.maximum.at(last, rows[match], match)
    return last, items, n


def map_get(m, key: str) -> pa.StructArray:
    """Full value cell of the LAST entry with ``key`` per row (upsert read
    semantics); null struct when absent."""
    last, items, n = _last_index(m, key)
    idx = pa.array(last, pa.int64(), mask=last < 0)
    return items.take(idx)


def vtype_of(m, key: str) -> pa.Array:
    return map_get(m, key).field("vtype")


def cell_lane(g: pa.StructArray, vtype: int, lane: str) -> pa.Array:
    """Typed lane read over any cell struct (VALUE_T or NESTED_T): the
    lane value where the cell's vtype matches, null otherwise."""
    want = pc.equal(g.field("vtype"), pa.scalar(vtype, pa.int8()))
    return pc.if_else(pc.fill_null(want, False), g.field(lane),
                      pa.nulls(len(g), _LANE_TYPE[lane]))


def _lane_get(m, key: str, vtype: int, lane: str) -> pa.Array:
    return cell_lane(map_get(m, key), vtype, lane)


def map_get_str(m, key: str) -> pa.Array:
    return _lane_get(m, key, VTYPE_STR, "s")


def map_get_int(m, key: str) -> pa.Array:
    """Int lane read — null when the key is absent OR holds a non-Int
    value (stricter than the reference's zero-default ``Value.Int()``:
    a silent 0 is indistinguishable from data, a null is not)."""
    return _lane_get(m, key, VTYPE_INT, "i")


def map_get_double(m, key: str) -> pa.Array:
    return _lane_get(m, key, VTYPE_DOUBLE, "d")


def map_get_bool(m, key: str) -> pa.Array:
    return _lane_get(m, key, VTYPE_BOOL, "b")


def map_get_bytes(m, key: str) -> pa.Array:
    return _lane_get(m, key, VTYPE_BYTES, "z")


# ------------------------------------------------ one-deep nested access
# The vectorized analog of value.go's Map().Get / Slice().At over the
# real nested lanes: one offsets walk + one take, no JSON parse, no
# Python per row.

def _nv_parts(g: pa.StructArray):
    """(starts, counts, flat NESTED values, vtype int64 w/ -1 nulls) of
    the nv lane, rebased and null-masked."""
    nv = g.field("nv")
    off, vals = _list_parts(nv)
    counts = np.diff(off) if len(off) else np.zeros(0, np.int64)
    counts = np.where(np.asarray(nv.is_null()), 0, counts)
    vt = pc.fill_null(g.field("vtype"), -1).to_numpy(
        zero_copy_only=False).astype(np.int64)
    return off[:-1] if len(off) else np.zeros(0, np.int64), counts, vals, vt


def nested_len(m, key: str) -> pa.Array:
    """Element count of the one-deep container at ``key`` (null when the
    key is absent or holds a non-container / deep-JSON cell)."""
    g = map_get(m, key)
    starts, counts, _vals, vt = _nv_parts(g)
    is_container = (vt == VTYPE_SLICE) | (vt == VTYPE_MAP)
    has_nv = ~np.asarray(g.field("nv").is_null())
    valid = is_container & has_nv
    return pa.array(counts.astype(np.int64), mask=~valid)


def get_nested(m, path: str) -> pa.StructArray:
    """Vectorized one-level path read: ``"attr.<index>"`` (Slice element)
    or ``"attr.<subkey>"`` (Map entry, last-writer-wins) → NESTED_T cell
    per row, null where the attr is absent, the wrong kind, or the
    element/subkey is missing. Read lanes with ``nested_str/int/...``."""
    key, _, seg = path.partition(".")
    if not seg or "." in seg:
        raise ValueError(
            "get_nested: path must be 'attr.subkey' or 'attr.<index>' — "
            "one nested level (deeper nesting rides the JSON fallback)")
    g = map_get(m, key)
    n = len(g)
    starts, counts, vals, vt = _nv_parts(g)

    def map_lookup() -> tuple[np.ndarray, np.ndarray]:
        # (valid mask, flat nv index) of seg as a Map SUBKEY per row:
        # align nk flat positions to nv flat positions, last-writer-wins
        nk = g.field("nk")
        koff, kvals = _list_parts(nk)
        kflat = np.asarray(kvals.to_numpy(zero_copy_only=False),
                           dtype=object)
        kcounts = np.diff(koff) if len(koff) else np.zeros(0, np.int64)
        kcounts = np.where(np.asarray(nk.is_null()), 0, kcounts)
        rows = np.repeat(np.arange(n), kcounts)
        row_start = koff[:-1] if len(koff) else np.zeros(0, np.int64)
        match = np.flatnonzero(kflat == seg) if len(kflat) else \
            np.zeros(0, np.int64)
        last = np.full(n, -1, np.int64)
        if len(match):
            np.maximum.at(last, rows[match], match)
        valid = (vt == VTYPE_MAP) & (last >= 0)
        pos_in_row = np.where(valid, last - row_start, 0)
        return valid, np.where(valid, starts + pos_in_row, 0)

    valid_m, idx_m = map_lookup()
    if seg.isdigit():
        # a digit segment is a Slice index on Slice cells AND a (numeric
        # string) subkey on Map cells — a cell is only ever one kind, so
        # the two branches are disjoint and merge row-wise
        i = int(seg)
        valid_s = (vt == VTYPE_SLICE) & (i < counts)
        valid = valid_s | valid_m
        idx = np.where(valid_s, starts + i, idx_m)
        return vals.take(pa.array(idx.astype(np.int64), mask=~valid))
    return vals.take(pa.array(idx_m.astype(np.int64), mask=~valid_m))


def nested_str(cells: pa.StructArray) -> pa.Array:
    return cell_lane(cells, VTYPE_STR, "s")


def nested_int(cells: pa.StructArray) -> pa.Array:
    return cell_lane(cells, VTYPE_INT, "i")


def map_delete(m, key: str) -> pa.Array:
    off, keys, items = _parts(m)
    n = len(off) - 1
    keep = keys != key
    rows = np.repeat(np.arange(n), np.diff(off))
    counts = np.bincount(rows[keep], minlength=n)
    new_off = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=new_off[1:])
    return _rebuild(new_off, keys[keep], _take(items, np.flatnonzero(keep)))


def map_keep_keys(m, keys_to_keep) -> pa.Array:
    off, keys, items = _parts(m)
    n = len(off) - 1
    keep = np.isin(keys, np.asarray(list(keys_to_keep), dtype=object))
    rows = np.repeat(np.arange(n), np.diff(off))
    counts = np.bincount(rows[keep], minlength=n)
    new_off = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=new_off[1:])
    return _rebuild(new_off, keys[keep], _take(items, np.flatnonzero(keep)))


def map_rename(m, old: str, new: str) -> pa.Array:
    off, keys, items = _parts(m)
    keys = keys.copy()
    keys[keys == old] = new
    return _rebuild(off, keys, items)


def map_put(m, key: str, values) -> pa.Array:
    """Typed upsert (PutStr/PutInt/PutDouble/PutBool/PutEmptyBytes...):
    remove existing entries for ``key``, append one typed entry at each
    row's end. ``values`` is a typed Arrow array (lane inferred via
    ``lift``; null value → no entry for that row), a value StructArray
    (lanes pre-built), or a python scalar (str/bool/int/float/bytes)."""
    if isinstance(values, str):
        values = pa.array([values] * _n_rows(m), pa.string())
    elif isinstance(values, bool):
        values = pa.array([values] * _n_rows(m), pa.bool_())
    elif isinstance(values, int):
        values = pa.array([values] * _n_rows(m), pa.int64())
    elif isinstance(values, float):
        values = pa.array([values] * _n_rows(m), pa.float64())
    elif isinstance(values, bytes):
        values = pa.array([values] * _n_rows(m), pa.binary())
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if pa.types.is_struct(values.type):
        lifted = values.cast(VALUE_T)
        valid = ~np.asarray(lifted.is_null())
    else:
        # the lifted struct is valid everywhere (nulls live in the lanes),
        # so the omit-this-row mask must come from the SOURCE array
        valid = ~np.asarray(values.is_null())
        _, lifted = lift(values)

    base = map_delete(m, key)
    off, keys, items = _parts(base)
    n = len(off) - 1
    adds = valid.astype(np.int64)
    before = np.concatenate([[0], np.cumsum(adds)[:-1]])
    counts = np.diff(off)
    total = int(off[-1] + adds.sum())
    new_keys = np.empty(total, object)
    perm = np.empty(total, np.int64)
    old_rows = np.repeat(np.arange(n), counts)
    old_pos = np.arange(len(keys)) + before[old_rows]
    new_keys[old_pos] = keys
    perm[old_pos] = np.arange(len(keys))
    app_rows = np.flatnonzero(valid)
    app_pos = off[app_rows + 1] + before[app_rows]
    new_keys[app_pos] = key
    perm[app_pos] = len(keys) + np.arange(len(app_rows))
    new_off = off + np.concatenate([[0], np.cumsum(adds)])
    items_concat = pa.concat_arrays([
        items.combine_chunks().cast(VALUE_T)
        if isinstance(items, pa.ChunkedArray) else items.cast(VALUE_T),
        _take(lifted, app_rows)])
    return _rebuild(new_off, new_keys, _take(items_concat, perm))


def _n_rows(m) -> int:
    off, _, _ = _parts(m)
    return len(off) - 1


# ------------------------------------------------- OTTL editor functions
# The remaining Map/Slice editors from the OTTL inventory referenced by
# docs/rfcs/processing.md:148-238 (keep_keys/delete/replace_* examples)
# — keep_matching_keys / delete_matching_keys / truncate_all / limit /
# flatten / replace_all_patterns — each one whole-column vectorized over
# the flat children, never a Python row loop.

def _filter_entries(m, keep: np.ndarray) -> pa.Array:
    off, keys, items = _parts(m)
    n = len(off) - 1
    rows = np.repeat(np.arange(n), np.diff(off))
    counts = np.bincount(rows[keep], minlength=n)
    new_off = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=new_off[1:])
    return _rebuild(new_off, keys[keep], _take(items, np.flatnonzero(keep)))


def map_keep_matching_keys(m, pattern: str) -> pa.Array:
    """OTTL ``keep_matching_keys(attributes, pattern)``: keep only
    entries whose KEY matches the regex (RE2-style, substring match per
    OTTL — anchor with ^$ for whole-key)."""
    off, keys, _ = _parts(m)
    hit = pc.match_substring_regex(pa.array(keys, pa.string()), pattern)
    return _filter_entries(m, np.asarray(hit))


def map_delete_matching_keys(m, pattern: str) -> pa.Array:
    """OTTL ``delete_matching_keys(attributes, pattern)``: drop entries
    whose KEY matches the regex."""
    off, keys, _ = _parts(m)
    hit = pc.match_substring_regex(pa.array(keys, pa.string()), pattern)
    return _filter_entries(m, ~np.asarray(hit))


def map_truncate_all(m, limit: int) -> pa.Array:
    """OTTL ``truncate_all(attributes, limit)``: truncate STRING values
    to at most ``limit`` codeunits; non-string cells (including deep
    container JSON riding the s lane) are untouched."""
    if limit < 0:
        raise ValueError("truncate_all: limit must be >= 0")
    off, keys, items = _parts(m)
    is_str = pc.equal(items.field("vtype"), pa.scalar(VTYPE_STR, pa.int8()))
    s = items.field("s")
    cut = pc.utf8_slice_codeunits(s, 0, limit)
    new_s = pc.if_else(pc.fill_null(is_str, False), cut, s)
    fields = {nm: items.field(nm) for nm in ("vtype", *ALL_LANES)}
    fields["s"] = new_s
    return _rebuild(off, keys, pa.StructArray.from_arrays(
        list(fields.values()), names=list(fields.keys())))


def map_limit(m, max_entries: int, priority_keys=()) -> pa.Array:
    """OTTL ``limit(attributes, max, [priority_keys...])``: keep at most
    ``max_entries`` entries per row; entries whose key is in
    ``priority_keys`` are retained first, then remaining entries in
    original order; surviving entries keep their original order."""
    if max_entries < 0:
        raise ValueError("limit: max_entries must be >= 0")
    off, keys, _ = _parts(m)
    n = len(off) - 1
    total = len(keys)
    rows = np.repeat(np.arange(n), np.diff(off))
    pos = np.arange(total) - off[rows]
    if len(priority_keys):
        notpri = ~np.isin(keys, np.asarray(list(priority_keys),
                                           dtype=object))
    else:
        notpri = np.ones(total, bool)
    order = np.lexsort((pos, notpri.astype(np.int64), rows))
    ro = rows[order]
    change = np.ones(total, bool)
    if total > 1:
        change[1:] = ro[1:] != ro[:-1]
    starts = np.flatnonzero(change)
    seq = np.arange(total) - np.repeat(
        starts, np.diff(np.append(starts, total)))
    keep = np.zeros(total, bool)
    keep[order[seq < max_entries]] = True
    return _filter_entries(m, keep)


def map_flatten(m, sep: str = ".") -> pa.Array:
    """OTTL ``flatten(attributes)`` for the real one-deep lanes: every
    Map/Slice entry whose cell rides nk/nv is replaced by its elements
    hoisted to the top level — ``parent<sep>childkey`` for Map entries,
    ``parent<sep><index>`` for Slice entries (an empty container
    vanishes, as in OTTL).  Primitive entries pass through unchanged.
    DEEP containers (JSON-fallback cells) are left in place — flatten
    again after a JSON re-parse if full depth is required.

    Key-collision semantics: a hoisted ``parent<sep>child`` key that
    equals an existing top-level key yields DUPLICATE map entries (a
    pdata Map permits them); every read in this module is
    last-writer-wins, so the later entry shadows the earlier on reads
    while both survive on the wire. Pick a ``sep`` absent from your key
    namespace to avoid collisions entirely."""
    off, keys, items = _parts(m)
    n = len(off) - 1
    total = len(keys)
    vt = pc.fill_null(items.field("vtype"), -1).to_numpy(
        zero_copy_only=False).astype(np.int64)
    nv = items.field("nv")
    nv_off, nv_vals = _list_parts(nv)
    nv_len = np.diff(nv_off) if len(nv_off) else np.zeros(0, np.int64)
    one_deep = (((vt == VTYPE_MAP) | (vt == VTYPE_SLICE))
                & ~np.asarray(nv.is_null()))
    c = np.where(one_deep, nv_len, 1).astype(np.int64)
    new_total = int(c.sum())
    estart = np.zeros(total + 1, np.int64)
    np.cumsum(c, out=estart[1:])
    # row offsets: per-row sums of expansion counts
    rows = np.repeat(np.arange(n), np.diff(off))
    row_counts = np.bincount(rows, weights=c, minlength=n).astype(np.int64)
    new_off = np.zeros(n + 1, np.int64)
    np.cumsum(row_counts, out=new_off[1:])
    # flat destination walk: entry id and within-entry j per output slot
    eid = np.repeat(np.arange(total), c)
    j = np.arange(new_total) - np.repeat(estart[:-1], c)
    expanded = one_deep[eid]
    # keys
    new_keys = np.empty(new_total, object)
    new_keys[~expanded] = keys[eid[~expanded]]
    exp_idx = np.flatnonzero(expanded)
    if len(exp_idx):
        parents = keys[eid[exp_idx]]
        is_map = vt[eid[exp_idx]] == VTYPE_MAP
        childs = np.empty(len(exp_idx), object)
        # map children: the nk flat values aligned with nv flat values
        nk = items.field("nk")
        nk_off, nk_flat = _list_parts(nk)
        nk_vals = np.asarray(nk_flat.to_numpy(zero_copy_only=False),
                             dtype=object)
        srcflat = nv_off[eid[exp_idx]] + j[exp_idx]
        if is_map.any():
            kflat = nk_off[eid[exp_idx[is_map]]] + j[exp_idx[is_map]]
            childs[is_map] = nk_vals[kflat]
        if (~is_map).any():
            childs[~is_map] = np.char.mod(
                "%d", j[exp_idx[~is_map]]).astype(object)
        new_keys[exp_idx] = np.char.add(
            np.char.add(parents.astype(str), sep),
            childs.astype(str)).astype(object)
    # values: concat(original cells, nested cells lifted to VALUE_T)
    nested_as_value = pa.StructArray.from_arrays(
        [nv_vals.field(nm) for nm in ("vtype", *LANES)]
        + [pa.nulls(len(nv_vals), _LANE_TYPE["nk"]),
           pa.nulls(len(nv_vals), _LANE_TYPE["nv"])],
        names=["vtype", *ALL_LANES])
    perm = np.empty(new_total, np.int64)
    perm[~expanded] = eid[~expanded]
    if len(exp_idx):
        perm[exp_idx] = total + srcflat
    items_cast = items.combine_chunks() if isinstance(
        items, pa.ChunkedArray) else items
    allcells = pa.concat_arrays([items_cast.cast(VALUE_T),
                                 nested_as_value.cast(VALUE_T)])
    return _rebuild(new_off, new_keys, _take(allcells, perm))


def map_replace_all_patterns(m, mode: str, pattern: str,
                             replacement: str) -> pa.Array:
    """OTTL ``replace_all_patterns(attributes, "key"|"value", pattern,
    replacement)``: regex-substitute across every KEY, or across every
    STRING value (non-string cells untouched)."""
    off, keys, items = _parts(m)
    if mode == "key":
        new_keys = pc.replace_substring_regex(
            pa.array(keys, pa.string()), pattern,
            replacement=replacement)
        return _rebuild(off, np.asarray(new_keys.to_numpy(
            zero_copy_only=False), dtype=object), items)
    if mode != "value":
        raise ValueError(
            f"replace_all_patterns: mode must be 'key' or 'value', "
            f"got {mode!r}")
    is_str = pc.equal(items.field("vtype"), pa.scalar(VTYPE_STR, pa.int8()))
    s = items.field("s")
    rep = pc.replace_substring_regex(s, pattern, replacement=replacement)
    new_s = pc.if_else(pc.fill_null(is_str, False), rep, s)
    fields = {nm: items.field(nm) for nm in ("vtype", *ALL_LANES)}
    fields["s"] = new_s
    return _rebuild(off, keys, pa.StructArray.from_arrays(
        list(fields.values()), names=list(fields.keys())))


# --------------------------------------------------------- conversions

def from_string_map(m) -> pa.Array:
    """map<string,string> → typed map, every value a Str cell.
    (``_parts`` slices the item child generically, so it serves both the
    struct-valued and string-valued map layouts.)"""
    off, keys, items = _parts(m)
    _, lifted = lift(items)
    return _rebuild(off, keys, lifted)


def to_string_map(m) -> pa.Array:
    """Typed map → map<string,string> (AsString semantics: int/double/bool
    render as text, bytes as base64, containers keep their JSON). The
    lossy direction — for sinks that only understand strings."""
    off, keys, items = _parts(m)
    vt = items.field("vtype").to_numpy(zero_copy_only=False)
    out = np.empty(len(keys), object)
    s = items.field("s").to_numpy(zero_copy_only=False)
    b = items.field("b").to_numpy(zero_copy_only=False)
    z = items.field("z").to_numpy(zero_copy_only=False)
    d = items.field("d").to_numpy(zero_copy_only=False)
    sel = vt == VTYPE_STR
    out[sel] = s[sel]
    # containers: deep cells carry their JSON on the s lane; one-deep
    # cells (s null) serialize from the real nested lanes — only those
    # few rows go through Python
    sel = (vt == VTYPE_MAP) | (vt == VTYPE_SLICE)
    idx = np.flatnonzero(sel)
    if len(idx):
        cells = items.take(pa.array(idx.astype(np.int64))).to_pylist()
        out[sel] = np.array(
            [c["s"] if c["s"] is not None else
             json.dumps(_to_jsonable(*cell_value(c)), sort_keys=False,
                        separators=(",", ":"))
             for c in cells], object)
    sel = vt == VTYPE_INT
    # the int lane holds nulls on other-typed entries, so to_numpy would
    # coerce it to float64 and corrupt ints above 2^53 — take the exact
    # int64 values through Arrow instead
    idx = np.flatnonzero(sel)
    ints = items.field("i").take(pa.array(idx.astype(np.int64))).to_pylist()
    out[sel] = np.array([str(x) for x in ints], object) \
        if len(idx) else out[sel]
    sel = vt == VTYPE_DOUBLE
    out[sel] = np.array([repr(float(x)) for x in d[sel]], object)
    sel = vt == VTYPE_BOOL
    out[sel] = np.where(b[sel].astype(bool), "true", "false").astype(object)
    sel = vt == VTYPE_BYTES
    out[sel] = np.array([base64.b64encode(x).decode() for x in z[sel]],
                        object)
    return pa.MapArray.from_arrays(
        pa.array(off.astype(np.int32)), pa.array(keys, pa.string()),
        pa.array(out, pa.string()))
