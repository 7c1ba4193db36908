"""Structured text-log source — the filelog receiver analog
(reference: ``receiver/filelogreceiver`` + the stanza JSON and
severity operators it embeds): read JSONL / plain-text log files into
Arrow log batches and map severity text to OTLP SeverityNumber.

Scale shape: the FILE is the shard unit (exactly like the parquet
reader) — ``ray.data.read_binary_files`` schedules one task per file,
each payload is suffix/magic decompressed once (``wire_io``), and the
whole file is parsed by ONE ``pyarrow.json`` C++ call (no Python per
line, no Python per record). Plain-text mode reuses
``wire_io.read_decompressed_lines``; downstream regex structuring is
``stages/parse.py`` (compiled once per actor), exactly the stanza
regex_parser split.

Severity mapping follows the OTLP log data model's SeverityNumber
anchors (trace=1 debug=5 info=9 warn=13 error=17 fatal=21), folded
case-insensitively, 0 (UNSPECIFIED) for unknown text — reference:
``pdata/plog/severity_number.go`` and the stanza severity parser.
"""

from __future__ import annotations

import io

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .wire_io import read_decompressed_files, read_decompressed_lines

_SEV_TEXT = ["trace", "debug", "info", "warn", "warning", "error",
             "fatal"]
_SEV_NUM = np.array([1, 5, 9, 13, 13, 17, 21], np.int64)


def severity_number(level: pa.ChunkedArray | pa.Array) -> pa.Array:
    """OTLP SeverityNumber for a severity-text column, case-folded;
    unknown/null text maps to 0 (SEVERITY_NUMBER_UNSPECIFIED)."""
    idx = pc.index_in(pc.utf8_lower(level),
                      value_set=pa.array(_SEV_TEXT))
    i = idx.to_numpy(zero_copy_only=False)
    known = ~np.isnan(i) if i.dtype.kind == "f" \
        else np.ones(len(i), bool)
    out = np.zeros(len(idx), np.int64)
    ii = np.nan_to_num(i, nan=0).astype(np.int64)
    out[known] = _SEV_NUM[ii[known]]
    return pa.array(out)


def read_jsonl(paths, *, schema: pa.Schema | None = None
               ) -> ray.data.Dataset:
    """JSONL log files → one row per record. One ``pyarrow.json`` parse
    per FILE; ``.gz``/``.z``/``.zz`` (and magic-sniffed suffix-less)
    payloads are decompressed first. Pass ``schema`` to pin types and
    IGNORE unexpected fields (the robust production mode — schema drift
    across files otherwise fails the concat loudly rather than
    silently widening)."""
    from pyarrow import json as pajson

    opts = None
    if schema is not None:
        opts = pajson.ParseOptions(explicit_schema=schema,
                                   unexpected_field_behavior="ignore")

    def parse(t: pa.Table) -> pa.Table:
        outs = []
        for b in t.column("payload"):
            data = b.as_py()
            if not data.strip():
                continue
            outs.append(pajson.read_json(io.BytesIO(data),
                                         parse_options=opts))
        if not outs:
            if schema is not None:
                return pa.table(
                    {f.name: pa.array([], f.type) for f in schema})
            return pa.table({})
        return pa.concat_tables(outs, promote_options="default")

    return read_decompressed_files(paths).map_batches(
        parse, batch_format="pyarrow")


def write_jsonl(ds: ray.data.Dataset, out_dir: str) -> None:
    """Newline-delimited JSON, one file per block (pandas
    ``to_json(lines=True)`` under Ray's ``write_json``, vectorized): the
    inverse of :func:`read_jsonl`."""
    ds.write_json(out_dir)


def read_csv(paths, *, columns: list[str] | None = None
             ) -> ray.data.Dataset:
    """Delimited text: Arrow's C++ CSV reader per file block, ``columns``
    pruned after the parse."""
    ds = ray.data.read_csv(paths)
    return ds.select_columns(columns) if columns else ds


def write_csv(ds: ray.data.Dataset, out_dir: str) -> None:
    """Delimited text, one file per block (Arrow CSV writer): the
    inverse of :func:`read_csv`."""
    ds.write_csv(out_dir)


def read_text_logs(paths) -> ray.data.Dataset:
    """Plain-text log files → one ``text`` row per line (decompressed).
    Structure them with ``stages/parse.py`` regex/grok stages."""
    return read_decompressed_lines(paths)


def read_multiline_logs(paths, start_pattern: str,
                        joiner: str = "\n") -> ray.data.Dataset:
    """Multiline log grouping (the stanza ``multiline`` /
    ``recombine`` operator of the filelog receiver): every line
    matching ``start_pattern`` (RE2 subset via ``pyarrow``) starts a
    record; following non-matching lines (stack traces, wrapped
    payloads) are joined onto it with ``joiner``. One row per record
    with its 0-based ``record_index`` within the file.

    Grouping happens INSIDE the per-file task, so a record can never
    straddle a block boundary (files are the shard unit; a record
    straddling two files is malformed input by definition). Leading
    continuation lines before the first start line form record 0,
    kept verbatim rather than dropped — data loss must be opt-in.
    Fully vectorized: one regex pass, one cumsum, one ListArray
    ``binary_join`` — no Python per line."""
    def group(t: pa.Table) -> pa.Table:
        recs: list[pa.Table] = []
        for b in t.column("payload"):
            # split on real newlines only — str.splitlines would also
            # break on NEL/LS/PS inside a log message body
            raw = b.as_py().decode().split("\n")
            if raw and raw[-1] == "":
                raw.pop()  # trailing newline
            lines = pa.array([ln.rstrip("\r") for ln in raw],
                             pa.string())
            n = len(lines)
            if n == 0:
                continue
            is_start = pc.match_substring_regex(
                lines, start_pattern).to_numpy(zero_copy_only=False)
            # a record begins at line 0 (leading tail) and at every
            # start-pattern line
            bnd = np.flatnonzero(is_start)
            if len(bnd) == 0 or bnd[0] != 0:
                bnd = np.concatenate([[0], bnd])
            offsets = np.concatenate([bnd, [n]]).astype(np.int32)
            lst = pa.ListArray.from_arrays(pa.array(offsets,
                                                    pa.int32()), lines)
            joined = pc.binary_join(lst, joiner)
            recs.append(pa.table({
                "text": joined,
                "record_index": pa.array(
                    np.arange(len(joined), dtype=np.int64))}))
        if not recs:
            return pa.table({"text": pa.array([], pa.string()),
                             "record_index": pa.array([], pa.int64())})
        return pa.concat_tables(recs)

    return read_decompressed_files(paths).map_batches(
        group, batch_format="pyarrow")


# label values are quoted strings that may contain '}' and escaped
# quotes/backslashes; fields are separated by one or more spaces/tabs
PROM_LINE_RE = (r'^(?P<metric>[a-zA-Z_:][a-zA-Z0-9_:]*)'
                r'(?:\{(?P<labels>(?:[^{}"]|"(?:[^"\\]|\\.)*")*)\})?'
                r'[ \t]+(?P<value>[^ \t]+)'
                r'(?:[ \t]+(?P<ts_ms>-?[0-9]+))?[ \t]*$')


def read_prom_text(paths, *, strict: bool = True) -> ray.data.Dataset:
    """Prometheus text exposition format → one row per sample (the
    prometheusreceiver's wire analog for scraped ``/metrics`` pages):
    ``metric{label="v",...} value [timestamp_ms]``. Comment (``#``)
    and blank lines are skipped; every other line must parse
    (``strict=True`` raises on garbage — wire fidelity fails loudly;
    ``strict=False`` drops). One vectorized RE2 extract per batch.
    Output: ``metric`` / ``labels`` (raw ``k="v"`` body, '' when
    absent) / ``value`` (string — cast downstream; exposition floats
    round-trip as text) / ``ts_ms`` (int64, null when absent). Pull a
    single label out with :func:`prom_label`."""
    import pyarrow.compute as pc

    lines = read_text_logs(paths)

    def parse(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        keep = pc.and_(pc.invert(pc.starts_with(txt, "#")),
                       pc.not_equal(txt, ""))
        txt = txt.filter(keep)
        st = pc.extract_regex(txt, pattern=PROM_LINE_RE)
        if isinstance(st, pa.ChunkedArray):
            st = st.combine_chunks()
        bad = pc.is_null(st)
        if pc.any(bad).as_py() if len(st) else False:
            if strict:
                first = txt.filter(bad)[0].as_py()
                raise ValueError(
                    f"read_prom_text: unparsable sample line {first!r}")
            st = st.filter(pc.invert(bad))
            txt = txt.filter(pc.invert(bad))
        # unmatched OPTIONAL groups come back as '' (not null) from
        # Arrow extract_regex — '' ts means "no timestamp" → null
        ts_raw = st.field("ts_ms")
        ts = pc.cast(pc.if_else(pc.equal(ts_raw, ""),
                                pa.scalar(None, pa.string()), ts_raw),
                     pa.int64())
        return pa.table({
            "metric": st.field("metric"),
            "labels": st.field("labels"),
            "value": st.field("value"),
            "ts_ms": ts})

    return lines.map_batches(parse, batch_format="pyarrow")


def prom_label(labels: pa.ChunkedArray | pa.Array,
               name: str) -> pa.Array:
    """Extract one label's value from the raw ``k="v",...`` body (null
    when absent). Anchored at the body start or a comma so a label
    whose name is a SUFFIX of another (``type`` vs ``subtype``) never
    matches inside the longer name; the name itself is regex-escaped.
    Escaped quotes/backslashes inside the value are preserved RAW (no
    unescape pass). RE2, identical to DuckDB ``regexp_extract``."""
    import re

    import pyarrow.compute as pc

    if isinstance(labels, pa.ChunkedArray):
        labels = labels.combine_chunks()
    st = pc.extract_regex(
        labels, pattern=r'(?:^|,)' + re.escape(name)
        + r'="(?P<v>(?:[^"\\]|\\.)*)"')
    return pc.if_else(pc.is_null(st), pa.scalar(None, pa.string()),
                      st.field("v"))


def write_prom_text(ds: ray.data.Dataset, out_dir: str, *,
                    metric_col: str = "metric",
                    labels_col: str | None = "labels",
                    value_col: str = "value",
                    ts_col: str | None = "ts_ms",
                    help_text: str | None = None,
                    compression: str = "none") -> int:
    """Render sample rows back to Prometheus text exposition pages —
    the write side of :func:`read_prom_text` (one page per block,
    atomic rename). With ``help_text``, each page carries one
    ``# HELP <metric> <help_text>`` line per distinct metric name, just
    before that name's first sample. ``labels_col`` holds the
    raw ``k="v",...`` body ('' → no braces); values/timestamps are
    cast to string verbatim, so integer lanes round-trip exactly.
    ``compression="gzip"`` writes ``.txt.gz`` pages (scrape payloads
    ship gzipped in practice; the read path auto-decompresses by
    suffix). Returns rows written."""
    import os
    import uuid

    import pyarrow.compute as pc

    if compression not in ("none", "gzip"):
        raise ValueError(
            f"write_prom_text: unknown compression={compression!r}")
    os.makedirs(out_dir, exist_ok=True)

    def emit(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n:
            for c in (metric_col, value_col):
                if batch.column(c).null_count:
                    raise ValueError(
                        f"write_prom_text: column {c!r} has nulls — "
                        "a sample line needs both a metric name and "
                        "a value; fill or filter upstream")
            metric = batch.column(metric_col).combine_chunks()
            val = pc.cast(batch.column(value_col),
                          pa.string()).combine_chunks()
            if labels_col is not None:
                lab = pc.fill_null(batch.column(labels_col),
                                   "").combine_chunks()
                body = pc.if_else(
                    pc.equal(lab, ""), metric,
                    pc.binary_join_element_wise(metric, "{", lab, "}",
                                                ""))
            else:
                body = metric
            line = pc.binary_join_element_wise(body, " ", val, "")
            if ts_col is not None:
                ts = batch.column(ts_col)
                ts_s = pc.fill_null(pc.cast(ts, pa.string()), "")
                line = pc.if_else(
                    pc.equal(ts_s, ""), line,
                    pc.binary_join_element_wise(line, " ", ts_s, ""))
            lines = line.to_pylist()
            if help_text:
                seen, paged = set(), []
                for name, ln in zip(metric.to_pylist(), lines):
                    if name not in seen:
                        seen.add(name)
                        paged.append(f"# HELP {name} {help_text}")
                    paged.append(ln)
                lines = paged
            blob = "\n".join(lines) + "\n"
            suffix = ".txt.gz" if compression == "gzip" else ".txt"
            name = f"metrics-{uuid.uuid4().hex[:12]}{suffix}"
            tmp = os.path.join(out_dir, f".{name}.tmp")
            # explicit utf-8: the read path decodes bytes as utf-8, a
            # locale-default text write would break the symmetry
            payload = blob.encode("utf-8")
            if compression == "gzip":
                # shared helper pins gzip mtime to 0 — identical input
                # must produce byte-identical pages (replication-check
                # flows hash the output directory)
                from .compression import compress_payload

                payload = compress_payload(payload, "gzip")
            with open(tmp, "wb") as f:
                f.write(payload)
            os.rename(tmp, os.path.join(out_dir, name))
        return pa.table({"n": pa.array([n], pa.int64())})

    parts = ds.map_batches(emit, batch_format="pyarrow",
                           batch_size=None)
    return int(sum(r["n"] for r in parts.take_all()))
