"""The one string-hash kernel (riot_ray/hashing.py): it equals the SQL the
oracles replay, each key format and null rule is pinned, and no other
module hashes on its own."""

import glob
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riot_ray import hashing
from riot_ray.hashing import digest16, hex_digest, id_strings, u64

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
I64 = (-2**63, 0, 2**63 - 1)
EDGE = ["", "\x00", "a\x00b", "héllo wörld", "中文分词测试", "😀🎉👩‍💻",
        "e\u0301 a\u0308\u0304", "\uffff", "x" * 100_000]


SQL_VIEWS = """SELECT ('0x' || substr({a}(v), 1, 16))::UBIGINT AS u,
                      unhex(substr({a}(v), 1, 32)) AS d16, {a}(v) AS hex
               FROM keys"""


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(st.one_of(st.sampled_from(EDGE), st.text(max_size=40),
                                st.text(st.characters(min_codepoint=0x4E00,
                                                      max_codepoint=0x9FFF))),
                      max_size=25),
       ints=st.lists(st.one_of(st.sampled_from(I64),
                               st.integers(-2**63, 2**63 - 1)), max_size=25))
def test_kernel_matches_sql(texts, ints):
    """The kernel's u64, 16-byte and hex views equal the SQL the oracles
    replay (DuckDB ``md5`` / ``sha256``) on text and on int64 ids
    formatted by id_strings, and hashlib on each value."""
    import duckdb

    keys = pa.concat_arrays([pa.array(texts + list(EDGE), pa.string()),
                             id_strings(pa.array(ints + list(I64), pa.int64()))])
    vals = keys.to_pylist()
    assert vals[len(texts) + len(EDGE):] == [str(i) for i in ints + list(I64)]
    con = duckdb.connect()
    con.register("keys", pa.table({"v": keys}))
    for algo in ("md5", "sha256"):
        sql = con.execute(SQL_VIEWS.format(a=algo)).fetch_arrow_table()
        assert u64(keys, algo).tolist() == sql["u"].to_pylist()
        assert digest16(keys, algo).tobytes() == b"".join(sql["d16"].to_pylist())
        assert hex_digest(keys, algo).to_pylist() == sql["hex"].to_pylist()
        assert sql["hex"].to_pylist() == [
            getattr(hashlib, algo)(v.encode()).hexdigest() for v in vals]
    con.close()


def test_distinct_values_hashed_once(monkeypatch):
    seen = []
    real = hashing._digest_each
    monkeypatch.setattr(
        hashing, "_digest_each",
        lambda uniq, algo: seen.append(len(uniq)) or real(uniq, algo))
    col = pa.chunked_array([pa.array(["b", "a", "b"]), pa.array(["a", "c"])])
    assert u64(col).tolist() == [
        int(hashlib.md5(v.encode()).hexdigest()[:16], 16)
        for v in ["b", "a", "b", "a", "c"]]
    assert seen == [3]
    assert u64(pa.array([], pa.string())).dtype == np.uint64
    assert hex_digest(pa.array([], pa.string())).to_pylist() == []


def test_kernel_rejects_null():
    """A null reaching the kernel is a named error (it used to warn and
    raise an opaque IndexError from the per-token gather)."""
    with pytest.raises(ValueError, match="contains nulls"):
        u64(pa.array(["a", None, "b"]))
    with pytest.raises(ValueError, match="contains nulls"):
        hex_digest(pa.chunked_array([pa.array([None], pa.string())]), "sha256")


def test_id_strings_formats():
    """Integer ids print as str(int) (every width, both extremes), strings
    pass through, and any other type is refused by name — Arrow prints the
    float 1.0 as "1" and -0.0 as "-0", where str() and SQL print "1.0"."""
    assert id_strings(np.array(I64, np.int64)).to_pylist() == [str(i) for i in I64]
    big = pa.array([2**64 - 1], pa.uint64())
    assert id_strings(big).to_pylist() == [str(2**64 - 1)]
    assert id_strings(pa.array([-5], pa.int32())).to_pylist() == ["-5"]
    wide = pa.array(["x", "中"], pa.large_string())
    assert id_strings(wide).to_pylist() == ["x", "中"]
    for bad in (pa.array([1.0, -0.0]), np.array([1.5]), pa.array([True])):
        with pytest.raises(ValueError, match="cannot hash ids of type"):
            id_strings(bad)


def test_id_hash_ignores_batch_neighbours():
    """An id's hash is a function of the id alone: a null elsewhere in an
    integer batch used to promote the column to float64 and rehash every
    id as "1.0#seed"; now the null is a named error."""
    from riot_ray.pipelines.checkpoint import part_of
    from riot_ray.pipelines.sampling import _id_hashes

    want = [int(hashlib.md5(f"{i}#7".encode()).hexdigest()[:16], 16)
            for i in (1, 2)]
    assert _id_hashes(pa.array([1, 2], pa.int64()), 7).tolist() == want
    assert _id_hashes(np.array([1, 2]), 7).tolist() == want
    with pytest.raises(ValueError, match="non-null id"):
        _id_hashes(pa.array([1, 2, None], pa.int64()), 7)
    with pytest.raises(ValueError, match="non-null id"):
        part_of(pa.array([1, None, 3], pa.int64()), 8)
    with pytest.raises(ValueError, match="cannot hash ids of type double"):
        part_of(np.array([1.0, np.nan]), 8)


def test_null_id_rejected_in_pipelines(ray_session, tmp_path):
    import ray.data as rd

    from riot_ray.pipelines import checkpointed_write, hash_sample

    t = pa.table({"doc_id": pa.array([1, 2, None], pa.int64()),
                  "text": pa.array(["a", "b", "c"])})
    with pytest.raises(Exception, match="non-null id"):
        hash_sample(rd.from_arrow(t), 0.5, seed=7).materialize()
    with pytest.raises(Exception, match="non-null id"):
        checkpointed_write(rd.from_arrow(t), str(tmp_path / "ck"), "fp",
                           partition_col="doc_id", num_partitions=4)


def test_null_as_empty_at_call_sites():
    """Callers that define a null text as "" keep doing so: the
    fingerprint digest, the sha256 membership key and the media
    dimensions of a null text equal those of ""."""
    from riot_ray.pipelines.analysis import fingerprint_batch
    from riot_ray.pipelines.dedup import _digest_cols
    from riot_ray.pipelines.multimodal import _md5_dims

    texts = pa.array([None, ""], pa.string())
    fp = fingerprint_batch(pa.table({"doc_id": [1, 2], "text": texts}))
    assert fp["digest"].to_pylist() == [hashlib.md5(b"").hexdigest()] * 2
    d1, d2 = _digest_cols(texts)
    assert d1[0] == d1[1] and d2[0] == d2[1]
    w, h = _md5_dims(texts)
    e = hashlib.md5(b"").hexdigest()
    assert w == [int(e[:4], 16) % 57 + 8] * 2
    assert h == [int(e[4:8], 16) % 57 + 8] * 2


def test_hll_count_skips_nulls(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import hll_count

    def est(vals):
        t = pa.table({"v": pa.array(vals, pa.int64())})
        return hll_count(rd.from_arrow(t), col="v").to_pydict()

    assert est([1, None, 2, 3]) == est([1, 2, 3])


@pytest.mark.parametrize("keys", [list(range(1, 41)), [2**62 + i for i in range(40)],
                                  [f"k{i}" for i in range(40)]],
                         ids=["int", "int_above_2_53", "str"])
def test_hash_join_null_key_keeps_matches(ray_session, keys):
    """A null join key matches nothing and costs no other row its match.
    An integer key column holding a null used to turn that batch to
    float64 and hash every key as "1.0" while the other side took
    ``key % P`` (matches lost), and a string one raised TypeError."""
    import ray.data as rd

    from riot_ray.pipelines import hash_join

    left = pa.table({"k": pa.array(keys + [None]), "x": list(range(41))})
    right = pa.table({"k": pa.array([None] + keys), "y": [-1] + list(range(40))})
    out = hash_join(rd.from_arrow(left), rd.from_arrow(right), "k", "k",
                    num_partitions=8).to_pandas()
    assert sorted(out["k"]) == sorted(keys)
    assert (out["y"] == out["x"]).all()


HASH_CALL = re.compile(r"hashlib\.(md5|sha256)\(|duckdb\.connect\(")
# content / build / dictionary-file digests, none of them a per-row key
ALLOWED = {"hashing.py", "stages/prepare.py", "build.py", "config.py"}


def test_one_hash_kernel():
    """md5 / sha256 / DuckDB connections appear only in riot_ray/hashing.py
    (and the three non-key digests above)."""
    pkg = os.path.join(ROOT, "riot_ray")
    bad = []
    for path in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
        rel = os.path.relpath(path, pkg).replace(os.sep, "/")
        if rel in ALLOWED:
            continue
        with open(path, encoding="utf-8") as f:
            for n, line in enumerate(f, 1):
                if HASH_CALL.search(line):
                    bad.append(f"{rel}:{n}: {line.strip()}")
    assert not bad, "hash outside riot_ray/hashing.py:\n" + "\n".join(bad)


def test_core_modules_do_not_load_hashing():
    """Building, updating and serving never import the kernel or duckdb."""
    code = ("import sys, riot_ray.build, riot_ray.updates, riot_ray.engine, "
            "riot_ray.query, riot_ray.httpserve, riot_ray.job; "
            "print(sorted(m for m in ('duckdb', 'riot_ray.hashing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"
