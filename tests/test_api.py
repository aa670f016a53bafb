"""API surface: batch-query Dataset, dump helpers (S5), delimited-text
source (S6), custom tokenizer injection (X3)."""

import os

import pyarrow as pa
import pytest

from riot_ray.engine import (
    LocalSearcher,
    all_doc_ids,
    all_docs,
    has_doc,
    search_dataset,
)
from riot_ray.types import RankOpts, SearchReq


def test_dump_helpers(corpus_index):
    idx = corpus_index["index_dir"]
    n = corpus_index["stats"]["n_docs"]
    assert all_doc_ids(idx).count() == n
    full = all_docs(idx)
    assert full.count() == n
    assert {"doc_id", "doc", "content_sha256"} <= set(full.schema().names)
    some_id = all_doc_ids(idx).take(1)[0]["doc_id"]
    assert has_doc(idx, some_id)
    assert not has_doc(idx, "no/such@doc")


def test_search_dataset_matches_single(corpus_index, ray_session):
    import ray.data as rd

    idx = corpus_index["index_dir"]
    texts = ["parse batch", "merge", "def import", "zzz_nothing"]
    qds = rd.from_arrow(
        pa.table(
            {
                "query_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        )
    )
    got = search_dataset(idx, qds, max_outputs=5, concurrency=2).to_pandas()
    s = LocalSearcher(idx)
    for qid, text in enumerate(texts):
        resp = s.search(SearchReq(text=text, rank_opts=RankOpts(max_outputs=5)))
        sub = got[got["query_id"] == qid].sort_values("rank")
        assert list(sub["doc_id"]) == [h.doc_id for h in resp.docs], text
        if len(sub):
            assert max(sub["rank"]) <= 5


def test_delimited_text_source(ray_session, tmp_path):
    from riot_ray.sources import read_delimited_text

    lines = [
        "1||||alice||||hello world of search",
        "2||||bob||||another line of text",
        "bad-line-without-fields",
        "3||||carol||||the third document",
    ]
    p = tmp_path / "docs.txt"
    p.write_text("\n".join(lines))
    ds = read_delimited_text(
        str(p), field_names=["doc_id", None, "content"], sep="||||"
    )
    t = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(t.columns) == ["doc_id", "content"]
    assert list(t["doc_id"]) == ["1", "2", "3"]
    assert t["content"][0] == "hello world of search"


def test_custom_tokenizer_injection(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts
    from riot_ray.tokenize import Tokenizer

    class BigramTokenizer(Tokenizer):
        """Custom analyzer: word bigrams instead of unigrams."""

        def query_tokens(self, text):
            words = text.lower().split()
            return [f"{a}_{b}" for a, b in zip(words, words[1:])]

        def doc_tokens_map(self, content, ext_tokens=None, labels=None):
            words = (content or "").lower().split()
            tmap = {}
            for i, (a, b) in enumerate(zip(words, words[1:])):
                tmap.setdefault(f"{a}_{b}", []).append(i)
            return tmap, max(len(words) - 1, 0), {}

    table = pa.table(
        {
            "doc_id": pa.array(["1", "2"]),
            "content": pa.array(["red fox jumps", "red dog sleeps"]),
        }
    )
    src = os.path.join(str(tmp_path), "d.parquet")
    pq.write_table(table, src)
    # mode must be non-vectorizable so the custom doc_tokens_map is used
    opts = EngineOpts(
        mode="space", id_cols=("doc_id",), content_col="content", meta_cols=(),
        num_parts=2, num_shards=2,
    )
    idx = os.path.join(str(tmp_path), "idx")
    IndexWriter(idx, opts, tokenizer_factory=BigramTokenizer).build(src)

    # loading without the factory must fail loudly
    with pytest.raises(ValueError, match="custom tokenizer"):
        LocalSearcher(idx)

    s = LocalSearcher(idx, tokenizer_factory=BigramTokenizer)
    resp = s.search(SearchReq(text="red fox"))
    assert [h.doc_id for h in resp.docs] == ["1"]
    resp = s.search(SearchReq(text="red dog"))
    assert [h.doc_id for h in resp.docs] == ["2"]


def test_hydration_fields_and_content(corpus_index):
    s = LocalSearcher(corpus_index["index_dir"], hydrate=True)
    resp = s.search(SearchReq(text="parse", rank_opts=RankOpts(max_outputs=3)))
    assert resp.docs
    for h in resp.docs:
        assert h.fields is not None and "lang" in h.fields
        assert isinstance(h.content, str) and len(h.content) > 0


def test_replicated_searcher(corpus_index, ray_session):
    from riot_ray.engine import ReplicatedSearcher

    idx = corpus_index["index_dir"]
    rs = ReplicatedSearcher(idx, replicas=2)
    s = LocalSearcher(idx)
    reqs = [
        SearchReq(text=t, rank_opts=RankOpts(max_outputs=5))
        for t in ("parse", "merge sort", "def import", "batch")
    ]
    got = rs.search_many(reqs)
    for req, resp in zip(reqs, got):
        want = s.search(req)
        assert [h.doc_id for h in resp.docs] == [h.doc_id for h in want.docs]
    one = rs.search(reqs[0])
    assert [h.doc_id for h in one.docs] == [h.doc_id for h in s.search(reqs[0]).docs]
    rs.shutdown()


def test_actor_searcher_survives_worker_kill(corpus_index, ray_session):
    """Liveness (riot net/heartb analog): a killed ShardWorker restarts in
    place (max_restarts) and interrupted calls replay (max_task_retries) —
    the very next search returns correct top-k with no caller-side
    handling."""
    import ray

    from riot_ray.engine import ActorSearcher

    idx = corpus_index["index_dir"]
    s = ActorSearcher(idx, num_actors=2)
    try:
        req = SearchReq(text="parse", rank_opts=RankOpts(max_outputs=5))
        want = [h.doc_id for h in LocalSearcher(idx).search(req).docs]
        assert [h.doc_id for h in s.search(req).docs] == want
        # hard-kill one worker; restartable actors come back with state
        # reloaded from the (read-only) on-disk index
        ray.kill(s.actors[0], no_restart=False)
        resp = s.search(req)
        assert [h.doc_id for h in resp.docs] == want
        # and again after killing the other worker mid-sequence
        ray.kill(s.actors[-1], no_restart=False)
        many = s.search_many([req, req])
        for r in many:
            assert [h.doc_id for h in r.docs] == want
    finally:
        s.shutdown()


def test_replicated_searcher_survives_replica_kill(corpus_index, ray_session):
    import ray

    from riot_ray.engine import ReplicatedSearcher

    idx = corpus_index["index_dir"]
    rs = ReplicatedSearcher(idx, replicas=2)
    try:
        req = SearchReq(text="merge sort", rank_opts=RankOpts(max_outputs=5))
        want = [h.doc_id for h in LocalSearcher(idx).search(req).docs]
        ray.kill(rs.actors[0], no_restart=False)
        # round-robin hits BOTH replicas across two calls — including the
        # restarting one
        for _ in range(2):
            assert [h.doc_id for h in rs.search(req).docs] == want
    finally:
        rs.shutdown()


def test_opts_from_toml(tmp_path):
    from riot_ray.config import EngineOpts

    p = tmp_path / "engine.toml"
    p.write_text(
        """
mode = "simple"
num_shards = 4
id_cols = ["doc_id"]
content_col = "text"
stop_tokens = ["the", "a"]

[bm25]
k1 = 1.5
b = 0.5
"""
    )
    o = EngineOpts.from_toml(str(p))
    assert o.mode == "simple" and o.num_shards == 4
    assert o.id_cols == ("doc_id",) and o.stop_tokens == ("the", "a")
    assert o.bm25.k1 == 1.5 and o.bm25.b == 0.5


def test_watch_toml_hot_reload(tmp_path):
    """riot's config hot-watch (riot.go:32-50): edits to the TOML fire
    on_change with freshly parsed opts; half-written files are retried."""
    import time

    from riot_ray.config import EngineOpts, watch_toml

    p = tmp_path / "engine.toml"
    p.write_text('mode = "simple"\nnum_shards = 2\n')
    seen = []
    with watch_toml(str(p), seen.append, poll_s=0.05):
        deadline = time.time() + 5
        p.write_text('mode = "simple"\nnum_shards = 8\n')
        while not seen and time.time() < deadline:
            time.sleep(0.02)
        assert seen and seen[-1].num_shards == 8
        # a broken write is skipped, then the corrected one lands
        p.write_text("mode = [unclosed")
        p2 = EngineOpts()  # noqa: F841 (just exercise default ctor)
        time.sleep(0.2)
        n_before = len(seen)
        p.write_text('mode = "code"\nnum_shards = 3\n')
        deadline = time.time() + 5
        while len(seen) == n_before and time.time() < deadline:
            time.sleep(0.02)
        assert seen[-1].mode == "code" and seen[-1].num_shards == 3


def test_watch_toml_survives_raising_callback(tmp_path):
    """A raising on_change must not kill the watcher thread — later edits
    still fire (ADVICE r4: callback errors were uncaught)."""
    import time

    from riot_ray.config import watch_toml

    p = tmp_path / "engine.toml"
    p.write_text('mode = "simple"\nnum_shards = 2\n')
    seen = []

    def cb(opts):
        seen.append(opts)
        if len(seen) == 1:
            raise RuntimeError("bad reload")

    with watch_toml(str(p), cb, poll_s=0.05):
        p.write_text('mode = "simple"\nnum_shards = 3\n')
        deadline = time.time() + 5
        while not seen and time.time() < deadline:
            time.sleep(0.02)
        assert seen  # first change delivered (and raised)
        p.write_text('mode = "simple"\nnum_shards = 9\n')
        deadline = time.time() + 5
        while len(seen) < 2 and time.time() < deadline:
            time.sleep(0.02)
        assert len(seen) >= 2 and seen[-1].num_shards == 9


def test_store_engine_feather_matches_parquet(ray_session, tmp_path):
    """Pluggable segment store (riot's RegisterStore analog,
    /root/reference/store/store.go:29-72): an index built with the feather
    engine returns bit-identical search results, and the export views read
    it through extension autodetect."""
    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts
    from riot_ray.corpus import write_corpus
    from riot_ray.engine import LocalSearcher
    from riot_ray.export import termstats_dataset
    from riot_ray.types import RankOpts, SearchReq

    src = write_corpus(str(tmp_path / "src" / "code.parquet"), 200, seed=11)
    base = EngineOpts(mode="code", num_parts=4, num_shards=2, block_size=64)
    from dataclasses import replace

    IndexWriter(str(tmp_path / "ip"), base).build(src)
    IndexWriter(str(tmp_path / "if"),
                replace(base, store_engine="feather")).build(src)
    for ix, ext in (("ip", "parquet"), ("if", "feather")):
        assert_segment_files(tmp_path / ix, ext)
    req = SearchReq(text="parse json", rank_opts=RankOpts(max_outputs=10))
    rp = LocalSearcher(str(tmp_path / "ip")).search(req)
    rf = LocalSearcher(str(tmp_path / "if")).search(req)
    assert [(h.doc_id, h.bm25) for h in rp.docs] == \
        [(h.doc_id, h.bm25) for h in rf.docs]
    assert rp.num_docs == rf.num_docs > 0
    tp = termstats_dataset(str(tmp_path / "ip")).to_pandas().sort_values("term")
    tf = termstats_dataset(str(tmp_path / "if")).to_pandas().sort_values("term")
    assert tp.reset_index(drop=True).equals(tf.reset_index(drop=True))


def assert_segment_files(index_dir, ext):
    """Each shard dir holds exactly its blocks and docmeta tables, in the
    engine's extension, and the manifest."""
    shards = sorted((index_dir / "segments").glob("shard=*"))
    assert shards
    for sdir in shards:
        assert sorted(p.name for p in sdir.iterdir()) == \
            [f"blocks.{ext}", f"docmeta.{ext}", "manifest.json"], sdir


def test_termstats_distributed_path_any_engine(ray_session, tmp_path,
                                               monkeypatch):
    """ADVICE r4: feather row counts come from IPC metadata (count_any),
    and above DRIVER_DF_ROWS the termstats reduce runs DISTRIBUTED via
    segments_dataset for ANY engine — identical df either way."""
    from dataclasses import replace

    import riot_ray.build as rb
    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts
    from riot_ray.corpus import write_corpus
    from riot_ray.export import termstats_dataset

    src = write_corpus(str(tmp_path / "src" / "code.parquet"), 150, seed=5)
    base = EngineOpts(mode="code", num_parts=2, num_shards=2, block_size=64)
    IndexWriter(str(tmp_path / "drv"),
                replace(base, store_engine="feather")).build(src)
    monkeypatch.setattr(rb.IndexWriter, "DRIVER_DF_ROWS", 0)  # force dist
    IndexWriter(str(tmp_path / "dst"),
                replace(base, store_engine="feather")).build(src)
    a = (termstats_dataset(str(tmp_path / "drv")).to_pandas()
         .sort_values("term").reset_index(drop=True))
    b = (termstats_dataset(str(tmp_path / "dst")).to_pandas()
         .sort_values("term").reset_index(drop=True))
    assert len(a) > 0 and a.equals(b)
    # both equal a plain per-term sum of the block rows' n in the shards
    from collections import Counter

    from riot_ray.store import glob_segments, read_any

    df = Counter()
    for f in glob_segments(str(tmp_path / "drv" / "segments" / "shard=*"), "blocks"):
        blk = read_any(f, columns=["term", "n"]).to_pydict()
        for term, n in zip(blk["term"], blk["n"]):
            df[term] += n
    for t in (a, b):
        assert dict(zip(t["term"], t["df"])) == dict(df)


def test_store_count_any(tmp_path):
    """count_any: metadata row counts for parquet + feather; None for an
    engine registered without a count_rows hook."""
    import pyarrow as pa
    import pyarrow.feather as feather
    import pyarrow.parquet as pq

    from riot_ray import store as rstore

    t = pa.table({"x": pa.array(range(37), pa.int64())})
    pq.write_table(t, str(tmp_path / "t.parquet"))
    feather.write_feather(t, str(tmp_path / "t.feather"))
    assert rstore.count_any(str(tmp_path / "t.parquet")) == 37
    assert rstore.count_any(str(tmp_path / "t.feather")) == 37
    rstore.register_store("nocount", ".nct", feather.write_feather,
                          rstore._feather_read)
    try:
        feather.write_feather(t, str(tmp_path / "t.nct"))
        assert rstore.count_any(str(tmp_path / "t.nct")) is None
    finally:
        rstore._REGISTRY.pop("nocount", None)


def test_store_engine_registry_custom_and_env(ray_session, tmp_path, monkeypatch):
    """register_store extends the engine set; RIOT_RAY_STORE_ENGINE
    overrides the configured engine (store.go:55-66 precedence); unknown
    names raise with the registered list."""
    import pyarrow.feather as feather
    import pytest as _pytest

    from riot_ray import store as rstore
    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts
    from riot_ray.corpus import write_corpus
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import RankOpts, SearchReq

    rstore.register_store("myf", ".myf", feather.write_feather,
                          rstore._feather_read)
    try:
        with _pytest.raises(ValueError, match="registered"):
            rstore.get_store("nope")
        assert rstore.get_store("myf").name == "myf"
        # env override wins over the configured engine
        monkeypatch.setenv(rstore.ENV_VAR, "myf")
        src = write_corpus(str(tmp_path / "src" / "code.parquet"), 120, seed=3)
        IndexWriter(str(tmp_path / "ix"),
                    EngineOpts(mode="code", num_parts=2, num_shards=2)).build(src)
        monkeypatch.delenv(rstore.ENV_VAR)
        # the segment files are written under the CUSTOM extension
        assert_segment_files(tmp_path / "ix", "myf")
        r = LocalSearcher(str(tmp_path / "ix")).search(
            SearchReq(text="parse json", rank_opts=RankOpts(max_outputs=5)))
        assert r.num_docs > 0
    finally:
        rstore._REGISTRY.pop("myf", None)


def test_actor_timeout_partial_results(corpus_index, ray_session):
    """timeout_ms: ray.wait returns partial results + the Timeout flag
    (riot's NotTimeOut/TimeOut collect — /root/reference/engine.go:557-630)."""
    from riot_ray.engine import ActorSearcher

    se = ActorSearcher(corpus_index["index_dir"], num_actors=2)
    # first query races cold actor startup (index load >> 1ms) -> timeout
    resp = se.search(SearchReq(text="parse", timeout_ms=1))
    assert resp.timeout is True
    # generous timeout after warmup -> complete results, flag off
    warm = se.search(SearchReq(text="parse", timeout_ms=30_000))
    assert warm.timeout is False
    assert warm.num_docs > 0
    se.shutdown()


def test_actor_search_many_matches_per_query(ray_session, corpus_index):
    """Batched fan-out (one RPC per shard worker for N queries) must return
    exactly what N individual searches return — incl. WAND, count-only,
    empty and missing-term short-circuits."""
    from riot_ray.engine import ActorSearcher
    from riot_ray.types import RankOpts, SearchReq

    se = ActorSearcher(corpus_index["index_dir"], num_actors=2)
    reqs = [
        SearchReq(text="parse batch", rank_opts=RankOpts(max_outputs=5)),
        SearchReq(text="merge", rank_opts=RankOpts(max_outputs=3, output_offset=1)),
        SearchReq(text="parse batch", rank_opts=RankOpts(max_outputs=5),
                  approx_count=True),                    # WAND plan
        SearchReq(text="parse", count_docs_only=True),   # count-only
        SearchReq(text=""),                              # empty short-circuit
        SearchReq(text="zzznosuchterm parse"),           # missing keyword
    ]
    singles = [se.search(r) for r in reqs]
    batched = se.search_many(reqs)
    for s, b in zip(singles, batched):
        assert s.num_docs == b.num_docs
        assert [h.doc_id for h in s.docs] == [h.doc_id for h in b.docs]
        assert [round(h.bm25, 6) for h in s.docs] == [round(h.bm25, 6) for h in b.docs]
    se.shutdown()


# --------------------------------------------------------------------------- #
# facets: {col: {value: n}} over the FULL matching set
# --------------------------------------------------------------------------- #
def test_facets_match_bruteforce(corpus_index, ray_session):
    """Facet counts equal a brute-force recount of the matching docs from
    the source table, across Local and Actor searchers, batched and
    count_only variants, logic queries and short-circuits."""
    import pyarrow.parquet as pq

    from riot_ray.engine import ActorSearcher
    from riot_ray.types import Expr, Logic

    idx = corpus_index["index_dir"]
    ls = LocalSearcher(idx)
    req = SearchReq(text="parse json", facets=("lang", "repo"),
                    rank_opts=RankOpts(max_outputs=5))
    resp = ls.search(req)
    assert resp.num_docs > 0

    # brute force: docs whose hit set the engine returns at max_outputs=0
    # is not available — recount via an unlimited search
    full = ls.search(SearchReq(text="parse json",
                               rank_opts=RankOpts(max_outputs=resp.num_docs)))
    src = pq.read_table(corpus_index["src"])
    lang_of = dict(zip(
        (f"{r}:{p}" for r, p in zip(src["repo"].to_pylist(),
                                    src["path"].to_pylist())),
        src["lang"].to_pylist(),
    ))
    # doc_id format: check against forward dump instead (id scheme-agnostic)
    from riot_ray.engine import all_docs
    fwd = all_docs(idx).to_pandas().set_index("doc_id")
    exp_lang = {}
    for h in full.docs:
        v = fwd.loc[h.doc_id, "lang"]
        exp_lang[v] = exp_lang.get(v, 0) + 1
    assert resp.facets["lang"] == dict(sorted(exp_lang.items()))
    assert sum(resp.facets["repo"].values()) == resp.num_docs
    del lang_of

    se = ActorSearcher(idx, num_actors=3)
    try:
        r2 = se.search(req)
        assert r2.facets == resp.facets
        rb = se.search_many([req, req])
        assert rb[0].facets == resp.facets and rb[1].facets == resp.facets
    finally:
        se.shutdown()

    rc = ls.search(SearchReq(text="parse json", facets=("lang",),
                             count_docs_only=True))
    assert rc.facets["lang"] == resp.facets["lang"]
    assert rc.num_docs == resp.num_docs

    rl = ls.search(SearchReq(text="parse json",
                             logic=Logic(expr=Expr(not_in=("uuid",))),
                             facets=("lang",)))
    assert sum(rl.facets["lang"].values()) == rl.num_docs
    assert all(rl.facets["lang"].get(k, 0) <= v
               for k, v in resp.facets["lang"].items())

    rm = ls.search(SearchReq(text="zzz_absent_term", facets=("lang",)))
    assert rm.facets == {"lang": {}}
    assert rm.num_docs == 0
