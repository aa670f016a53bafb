"""End-to-end: build the F1-corpus index, verify postings against DuckDB,
and check BM25 search results against a brute-force python oracle."""

import glob
import math
import os

import duckdb
import numpy as np
import pyarrow.parquet as pq
import pytest

from riot_ray.engine import LocalSearcher
from riot_ray.types import RankOpts, SearchReq


@pytest.fixture(scope="module")
def searcher(corpus_index):
    return LocalSearcher(corpus_index["index_dir"])


def decode_all_postings(index_dir):
    """term -> {doc: tf} over all shards, via the decode path of one
    ShardData view over every shard."""
    out = {}
    from riot_ray.build import load_stats
    from riot_ray.config import EngineOpts
    from riot_ray.query import ShardData

    stats = load_stats(index_dir)
    opts = EngineOpts.from_json_dict(stats["opts"])
    sids = [int(sd.split("=")[1])
            for sd in glob.glob(os.path.join(index_dir, "segments", "shard=*"))]
    s = ShardData(index_dir, sids, opts)
    assert s.shard_ids == sorted(sids)
    for term in s.term_range:
        docs, tfs = s.postings(term)
        # the fused list is doc-sorted across shard boundaries
        assert (docs[1:] > docs[:-1]).all(), f"fused docs not increasing for {term}"
        m = out.setdefault(term, {})
        for d, f in zip(docs.tolist(), tfs.tolist()):
            assert d not in m, f"dup doc {d} for term {term}"
            m[d] = f
    return out


def test_build_stats(corpus_index):
    stats = corpus_index["stats"]
    assert stats["n_docs"] == 300
    assert stats["n_docs_forward"] == 300
    assert stats["n_postings"] > 0
    assert stats["total_token_len"] > 0


def test_forward_sha256_invariant(corpus_index):
    # north-rule per-row invariant: forward content_sha256 == sha256(source content)
    import hashlib

    src = pq.read_table(corpus_index["src"])
    fwd = pq.read_table(
        sorted(glob.glob(os.path.join(corpus_index["index_dir"], "forward", "part=*.parquet")))
    )
    src_map = {}
    for r, p, c, content in zip(
        src["repo"].to_pylist(), src["path"].to_pylist(),
        src["commit"].to_pylist(), src["content"].to_pylist(),
    ):
        src_map[f"{r}/{p}@{c}"] = hashlib.sha256(content.encode()).hexdigest()
    assert fwd.num_rows == src.num_rows
    for did, sha in zip(fwd["doc_id"].to_pylist(), fwd["content_sha256"].to_pylist()):
        assert src_map[did] == sha


def test_postings_match_duckdb_oracle(corpus_index):
    """tf / df / token_len from decoded segments == SQL over the source table.

    The oracle tokenization reproduces code mode in SQL: identifiers +
    camel/snake sub-tokens is not SQL-friendly, so this test builds a SECOND
    index in simple mode and checks it against regexp_split_to_array."""
    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts

    idx = os.path.join(os.path.dirname(corpus_index["index_dir"]), "index_simple")
    opts = EngineOpts(mode="simple", num_parts=8, num_shards=4, block_size=64)
    IndexWriter(idx, opts).build(corpus_index["src"])

    con = duckdb.connect()
    sql = f"""
    WITH toks AS (
      SELECT repo || '/' || path || '@' || "commit" AS doc_id, t.term
      FROM read_parquet('{corpus_index["src"]}') d,
           unnest(regexp_split_to_array(lower(d.content), '[^a-z0-9]+')) AS t(term)
      WHERE t.term <> ''
    )
    SELECT term, doc_id, count(*) AS tf FROM toks GROUP BY term, doc_id
    """
    oracle = con.execute(sql).fetchall()
    oracle_map = {}
    for term, doc_id, tf in oracle:
        oracle_map.setdefault(term, {})[doc_id] = tf

    got = decode_all_postings(idx)
    # map docs back to doc_id strings
    fwd = pq.read_table(sorted(glob.glob(os.path.join(idx, "forward", "part=*.parquet"))))
    docid_of = dict(zip(fwd["doc"].to_pylist(), fwd["doc_id"].to_pylist()))
    got_ids = {
        term: {docid_of[d]: int(tf) for d, tf in m.items()} for term, m in got.items()
    }
    assert got_ids == oracle_map


def test_search_matches_bruteforce(searcher, corpus_index):
    """Engine top-k == brute-force float32 BM25 over raw postings."""
    postings = decode_all_postings(corpus_index["index_dir"])
    # doc lens
    dm = pq.read_table(
        sorted(glob.glob(os.path.join(corpus_index["index_dir"], "segments", "shard=*", "docmeta.parquet")))
    )
    lens = dict(zip(dm["doc"].to_pylist(), dm["token_len"].to_pylist()))
    fwd = pq.read_table(
        sorted(glob.glob(os.path.join(corpus_index["index_dir"], "forward", "part=*.parquet")))
    )
    docid_of = dict(zip(fwd["doc"].to_pylist(), fwd["doc_id"].to_pylist()))

    n = searcher.stats["n_docs"]
    avgdl = np.float32(np.float32(searcher.stats["total_token_len"]) / np.float32(n))
    k1, b = np.float32(2.0), np.float32(0.75)

    for qtext in ["parse json", "def", "index shard block", "hash merge"]:
        tokens = searcher.tok.query_tokens(qtext)
        cand = None
        for t in tokens:
            docs = set(postings.get(t, {}))
            cand = docs if cand is None else cand & docs
        cand = cand or set()
        scored = []
        for d in cand:
            s = np.float32(0)
            for t in tokens:
                tf = np.float32(postings[t][d])
                df = len(postings[t])
                idf = np.float32(math.log2(n / df + 1))
                dl = np.float32(lens[d])
                s = s + idf * tf * (k1 + np.float32(1)) / (
                    tf + k1 * (np.float32(1) - b + b * dl / avgdl)
                )
            scored.append((docid_of[d], float(s)))
        scored.sort(key=lambda x: (-x[1], x[0]))

        resp = searcher.search(SearchReq(text=qtext, rank_opts=RankOpts(max_outputs=10)))
        got = [(h.doc_id, h.scores[0]) for h in resp.docs]
        want = scored[:10]
        assert [g[0] for g in got] == [w[0] for w in want], qtext
        for g, w in zip(got, want):
            assert g[1] == pytest.approx(w[1], abs=1e-5), qtext
        assert resp.num_docs == len(cand)


def test_offset_limit_and_reverse(searcher):
    full = searcher.search(SearchReq(text="parse", rank_opts=RankOpts(max_outputs=0)))
    page = searcher.search(
        SearchReq(text="parse", rank_opts=RankOpts(output_offset=3, max_outputs=5))
    )
    assert [h.doc_id for h in page.docs] == [h.doc_id for h in full.docs[3:8]]
    rev = searcher.search(SearchReq(text="parse", rank_opts=RankOpts(reverse_order=True)))
    assert [h.doc_id for h in rev.docs] == [h.doc_id for h in reversed(full.docs)]


def test_count_only(searcher):
    full = searcher.search(SearchReq(text="parse json"))
    cnt = searcher.search(SearchReq(text="parse json", count_docs_only=True))
    assert cnt.num_docs == full.num_docs
    assert cnt.docs == []


def test_missing_term_empties_and(searcher):
    resp = searcher.search(SearchReq(text="parse zzzznotaterm"))
    assert resp.docs == [] and resp.num_docs == 0


def test_doc_ids_allowlist(searcher):
    full = searcher.search(SearchReq(text="parse"))
    pick = frozenset(h.doc_id for h in full.docs[:4])
    resp = searcher.search(SearchReq(text="parse", doc_ids=pick))
    assert {h.doc_id for h in resp.docs} == pick


def test_build_survives_dirty_inputs(ray_session, tmp_path):
    """Null / empty / whitespace-only / punctuation-only / unicode / very
    long content all index without error; unicode terms stay searchable;
    degenerate docs carry zero tokens but keep their forward rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts
    from riot_ray.engine import LocalSearcher

    rows = {
        "repo": ["r"] * 8,
        "path": [f"p{i}" for i in range(8)],
        "commit": ["c"] * 8,
        "lang": ["go", None, "py", "py", "py", "py", "py", "py"],
        "content": [
            None,
            "",
            "   \t\n  ",
            "héllo wörld naïve café",
            "日本語のテキスト and english words",
            "emoji 🎉🎉 fun stuff",
            "x " * 50000,
            "!!! ??? ... ###",
        ],
    }
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table(rows), src)
    st = IndexWriter(
        str(tmp_path / "index"), EngineOpts(mode="code", num_parts=2, num_shards=2)
    ).build(src)
    assert st["n_docs"] == 8  # every row keeps a forward entry
    s = LocalSearcher(str(tmp_path / "index"), hydrate=True)
    hit = lambda q: [h.doc_id for h in s.search(
        SearchReq(text=q, rank_opts=RankOpts(max_outputs=5))).docs]
    assert hit("café") == ["r/p3@c"]     # accented term round-trips
    assert hit("english") == ["r/p4@c"]  # ascii inside CJK text
    assert hit("emoji") == ["r/p5@c"]
    assert hit("x") == ["r/p6@c"]        # 50k-token doc
    assert hit("cafe") == []             # no accent folding (documented)
    # degenerate docs: alive, zero tokens
    from riot_ray.engine import all_doc_ids

    ids = {r["doc_id"] for r in all_doc_ids(str(tmp_path / "index")).take_all()}
    assert {"r/p0@c", "r/p1@c", "r/p2@c", "r/p7@c"} <= ids
