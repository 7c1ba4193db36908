"""functions/: attrs (OTTL ops), hashing, text analysis kernels."""

import numpy as np
import pyarrow as pa
import pytest

from opentelemetry_collector_ray.functions import attrs
from opentelemetry_collector_ray.functions.hashing import bucket_of, hash64, hash64_ints
from opentelemetry_collector_ray.functions.text import (
    lang_id, md5_hex, quality_features, token_count)


@pytest.fixture
def t():
    return pa.table({
        "a": pa.array(["x", "y", None]),
        "b": pa.array([1, 2, 3]),
        "text": pa.array(["hello world", "foo bar baz", ""]),
    })


def test_set_delete_keep_rename(t):
    out = attrs.set_attr(t, "c", "v")
    assert out.column("c").to_pylist() == ["v"] * 3
    out = attrs.set_attr(out, "c", pa.array(["1", "2", "3"]))  # upsert
    assert out.column("c").to_pylist() == ["1", "2", "3"]
    assert "a" not in attrs.delete_attr(t, "a").column_names
    assert attrs.delete_attr(t, "zzz").equals(t)  # absent → no-op
    assert attrs.keep_keys(t, ["b", "text"]).column_names == ["b", "text"]
    assert "a2" in attrs.rename_attr(t, "a", "a2").column_names


def test_replace_match_and_copy(t):
    out = attrs.replace_match(t, "text", r"o", "0")
    assert out.column("text").to_pylist()[0] == "hell0 w0rld"
    out = attrs.copy_attr(t, "a", "a_copy")
    assert out.column("a_copy").to_pylist() == out.column("a").to_pylist()


def test_drop_where(t):
    import pyarrow.compute as pc

    out = attrs.drop_where(t, pc.equal(t.column("b"), 2))
    assert out.column("b").to_pylist() == [1, 3]
    # null mask rows are kept (null-false semantics)
    out = attrs.drop_where(t, pc.equal(t.column("a"), "x"))
    assert out.column("b").to_pylist() == [2, 3]


def test_to_attr_map(t):
    out = attrs.to_attr_map(t, ["a", "text"])
    m = out.column("attrs").to_pylist()
    assert dict(m[0]) == {"a": "x", "text": "hello world"}
    assert dict(m[2]) == {"text": ""}  # null a omitted; empty text kept


def test_hash64_stability_and_nulls():
    col = pa.array(["abc", "abc", "def", None])
    h = hash64(col)
    assert h[0] == h[1] and h[0] != h[2]
    h2 = hash64(col)
    assert (h == h2).all()
    b = bucket_of(col, 16)
    assert ((b >= 0) & (b < 16)).all()


def test_hash64_ints_seeded():
    a = np.arange(10)
    assert not (hash64_ints(a, 0) == hash64_ints(a, 1)).any()
    assert (hash64_ints(a, 7) == hash64_ints(a, 7)).all()


def test_token_count_and_quality():
    col = pa.array(["a  b c", "", "one"])
    assert token_count(col).to_pylist() == [3, 0, 1]
    feats = quality_features(col)
    assert feats["n_chars"].to_pylist() == [6, 0, 3]
    scores = feats["quality_score"].to_pylist()
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_lang_id():
    col = pa.array([
        "the cat and the dog in the house",
        "der Hund ist nicht mit der Katze",
        "el perro y la casa de los gatos es una",
        "le chat est dans la maison pour les chiens",
        "这是一个中文句子",
        "zzz qqq www",
    ])
    assert lang_id(col).to_pylist() == ["en", "de", "es", "fr", "zh", "und"]


def test_md5_matches_duckdb():
    import duckdb

    col = pa.array(["hello", "", "ünïcødé ✓"])
    ours = md5_hex(col).to_pylist()
    con = duckdb.connect()
    for s, h in zip(col.to_pylist(), ours):
        assert con.execute("SELECT md5(?)", [s]).fetchone()[0] == h


def test_redact_rules():
    from opentelemetry_collector_ray.functions.redact import (
        pii_counts, redact, redact_table)

    col = pa.array([
        "mail a.b+c@ex-ample.co.uk now",
        "call 555-123-4567 or 555.123.4567",
        "ssn 123-45-6789 card 4111-1111-1111-1111",
        "host 192.168.0.1 port 80",
        "no pii here",
        None,
        "",
    ])
    out = redact(col).to_pylist()
    assert out[0] == "mail <EMAIL> now"
    assert out[1] == "call <PHONE> or <PHONE>"
    assert out[2] == "ssn <SSN> card <CC>"
    assert out[3] == "host <IP> port 80"
    assert out[4] == "no pii here"
    assert out[5] is None and out[6] == ""
    counts = pii_counts(col)
    assert counts["n_email"].to_pylist()[:5] == [1, 0, 0, 0, 0]
    assert counts["n_phone"].to_pylist()[:5] == [0, 2, 0, 0, 0]
    assert counts["n_ssn"].to_pylist()[2] == 1
    assert counts["n_credit_card"].to_pylist()[2] == 1
    assert counts["n_ipv4"].to_pylist()[3] == 1
    t = redact_table(pa.table({"id": pa.array([1]),
                               "text": pa.array(["x@y.io 1.2.3.4"])}))
    assert t.column("redacted").to_pylist() == ["<EMAIL> <IP>"]
    assert t.column("n_email").to_pylist() == [1]


def test_redact_rule_shapes_disjoint():
    """A later rule must never match inside an earlier rule's replacement
    or partially consume an earlier rule's match (digit-group shapes are
    mutually exclusive at word boundaries)."""
    from opentelemetry_collector_ray.functions.redact import redact

    col = pa.array([
        # cc vs phone: 4-4-4-4 must NOT be eaten by the 3-3-4 phone rule
        "4111-2222-3333-4444",
        # ssn vs phone: 3-2-4 is ssn, not phone
        "321-54-9876",
        # phone flanked by digits is not a phone (word boundary)
        "99555-123-456788",
    ])
    out = redact(col).to_pylist()
    assert out[0] == "<CC>"
    assert out[1] == "<SSN>"
    assert out[2] == "99555-123-456788"


def test_repetition_stats_hand_cases():
    from opentelemetry_collector_ray.functions.text import repetition_stats

    col = pa.array([
        "the cat cat cat sat on the mat the cat",
        "a b a b a b",
        "",
        "unique words only here",
        None,
    ])
    out = {k: v.to_pylist() for k, v in repetition_stats(col).items()}
    assert out["n_tokens"] == [10, 6, 0, 4, 0]
    assert out["n_distinct"] == [5, 2, 0, 4, 0]
    assert out["top_token_count"] == [4, 3, 0, 1, 0]   # cat / a
    assert out["top_bigram_count"] == [2, 3, 0, 1, 0]  # "the cat"/"cat cat"; "a b"
    assert out["max_run"] == [3, 1, 0, 1, 0]           # cat cat cat


def test_repetition_stats_matches_duckdb():
    """Randomized parity vs the gaps-and-islands SQL oracle."""
    import duckdb
    import random

    from opentelemetry_collector_ray.functions.text import repetition_stats

    rng = random.Random(7)
    vocab = ["aa", "bb", "cc", "dd"]
    texts = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 30)))
             for _ in range(60)]
    col = pa.array(texts)
    mine = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     **repetition_stats(col)}).to_pandas()

    import __ray_entry__ as entry
    con = duckdb.connect()
    con.register("df", pa.table({"doc_id": pa.array(range(len(texts)),
                                                    pa.int64()),
                                 "text": col}))
    con.execute("CREATE VIEW documents AS SELECT * FROM df")
    oracle = con.execute(entry.oracle_sql()["docs_repetition"]).fetchdf()
    mine = mine.sort_values("doc_id").reset_index(drop=True)
    oracle = oracle[mine.columns].sort_values("doc_id").reset_index(drop=True)
    assert (mine.values == oracle.values).all()


def test_canonicalize_text():
    from opentelemetry_collector_ray.functions.text import canonicalize_text

    col = pa.array(["  Héllo,   WORLD!! ", "hello world", "", None,
                    "MiXeD-Case_42", "tabs\tand\nnewlines"])
    out = canonicalize_text(col).to_pylist()
    assert out == ["h llo world", "hello world", "", None,
                   "mixed case 42", "tabs and newlines"]


def test_url_parse_components():
    import pyarrow as pa

    from opentelemetry_collector_ray.functions.text import url_parse

    r = url_parse(pa.array([
        "https://shop.example.com:8443/a/b?x=1&y=2#frag",
        "http://host/path",
        "/relative/only?q=3",
        "no-url-here",
        "ftp://just.host",
    ]))
    assert r["scheme"].to_pylist() == ["https", "http", "", "", "ftp"]
    assert r["host"].to_pylist() == ["shop.example.com", "host", "",
                                     "", "just.host"]
    assert r["port_num"].to_pylist() == [8443, None, None, None, None]
    assert r["path"].to_pylist() == ["/a/b", "/path", "/relative/only",
                                     "no-url-here", ""]
    assert r["query"].to_pylist() == ["x=1&y=2", "", "q=3", "", ""]
    assert r["fragment"].to_pylist() == ["frag", "", "", "", ""]


def test_convert_case_modes():
    import pyarrow as pa
    import pytest

    from opentelemetry_collector_ray.functions.text import (
        convert_case, split_count, substring)

    x = pa.array(["EvtAddToCart", "ABCDef", "x9Y", ""])
    assert convert_case(x, "snake").to_pylist() == \
        ["evt_add_to_cart", "abcdef", "x9_y", ""]
    assert convert_case(pa.array(["hello w"]), "camel").to_pylist() == \
        ["Hello w"]
    assert convert_case(x, "upper").to_pylist()[0] == "EVTADDTOCART"
    with pytest.raises(ValueError, match="mode"):
        convert_case(x, "kebab")
    assert substring(pa.array(["abcdef"]), 2, 3).to_pylist() == ["cde"]
    with pytest.raises(ValueError, match=">= 0"):
        substring(x, -1, 2)
    assert split_count(pa.array(["a,b", "", "x"]), ",").to_pylist() == \
        [2, 1, 1]


def test_parse_traceparent_spec_rules():
    import pyarrow as pa

    from opentelemetry_collector_ray.functions.tracectx import (
        parse_traceparent)

    good = "00-" + "ab" * 16 + "-" + "12" * 8 + "-01"
    unsampled = "00-" + "ab" * 16 + "-" + "12" * 8 + "-00"
    cases = [
        good,
        unsampled,
        "ff-" + "ab" * 16 + "-" + "12" * 8 + "-01",   # forbidden version
        "00-" + "0" * 32 + "-" + "12" * 8 + "-01",    # zero trace id
        "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",   # zero span id
        "00-" + "AB" * 16 + "-" + "12" * 8 + "-01",   # uppercase hex
        "garbage",
        None,
    ]
    out = parse_traceparent(pa.array(cases, pa.string()))
    assert out["tp_version"].to_pylist() == \
        ["00", "00", None, None, None, None, None, None]
    assert out["tp_trace_id"].to_pylist()[0] == "ab" * 16
    assert out["tp_span_id"].to_pylist()[1] == "12" * 8
    assert out["tp_sampled"].to_pylist() == \
        [1, 0, None, None, None, None, None, None]


def test_decode_syslog_pri_rfc5424():
    import pyarrow as pa

    from opentelemetry_collector_ray.functions.severity import (
        decode_syslog_pri)

    #        kern.emerg  user.err  local0.info  daemon.debug  invalid
    pri = pa.array([0, 11, 134, 31, 192, -1], pa.int64())
    d = decode_syslog_pri(pri)
    assert d["facility"].to_pylist() == [0, 1, 16, 3, None, None]
    assert d["syslog_severity"].to_pylist() == [0, 3, 6, 7, None, None]
    # emergency->FATAL(21), err->ERROR(17), info->INFO(9), debug->DEBUG(5)
    assert d["severity_number"].to_pylist() == [21, 17, 9, 5, None, None]


def test_md5_mod_matches_duckdb_expression():
    import duckdb
    import pyarrow as pa

    from opentelemetry_collector_ray.functions.text import md5_mod

    vals = ["a", "trace-123", "00000000-000000042"]
    got = md5_mod(pa.array(vals, pa.string()), 1000).tolist()
    want = [duckdb.sql(
        f"SELECT ('0x' || substr(md5('{v}'), 1, 12))::UBIGINT % 1000"
    ).fetchone()[0] for v in vals]
    assert got == want


def test_decode_snowflake_layout():
    import pyarrow as pa

    from opentelemetry_collector_ray.functions.timefn import (
        decode_snowflake)

    ts_ms, machine, seq = 1_700_000_000_123, 517, 2049
    sid = (ts_ms << 22) | (machine << 12) | seq
    d = decode_snowflake(pa.array([sid, -5], pa.int64()))
    assert d["sf_ts_ms"].to_pylist() == [ts_ms, None]
    assert d["sf_machine"].to_pylist() == [machine, None]
    assert d["sf_seq"].to_pylist() == [seq, None]
    # custom epoch is added back
    d2 = decode_snowflake(pa.array([sid], pa.int64()),
                          epoch_ms=1_288_834_974_657)
    assert d2["sf_ts_ms"].to_pylist() == [ts_ms + 1_288_834_974_657]


def test_decode_snowflake_null_beside_large_id():
    # a null in the int64 column must not push the numpy conversion
    # through float64 — ids above 2^53 would silently lose low bits
    import pyarrow as pa

    from opentelemetry_collector_ray.functions.timefn import (
        decode_snowflake)

    ts_ms, machine, seq = 1_700_000_000_123, 517, 2049
    sid = (ts_ms << 22) | (machine << 12) | seq  # ≫ 2^53
    d = decode_snowflake(pa.array([sid, None, sid + (1 << 12)],
                                  pa.int64()))
    assert d["sf_ts_ms"].to_pylist() == [ts_ms, None, ts_ms]
    assert d["sf_machine"].to_pylist() == [machine, None, machine + 1]
    assert d["sf_seq"].to_pylist() == [seq, None, seq]


def test_decode_snowflake_validates_bits():
    import pytest

    from opentelemetry_collector_ray.functions.timefn import (
        decode_snowflake)

    with pytest.raises(ValueError, match="machine_bits"):
        decode_snowflake(None, machine_bits=20, seq_bits=20)
