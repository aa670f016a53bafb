"""Updates: tombstone remove, compaction, incremental add (D4/D5).

Contract: after remove+compact or add_docs, search results (doc_id sets and
BM25 scores under global stats) must equal a fresh build over the equivalent
final corpus — the batch analog of riot's docsState remove/re-add machine
(/root/reference/core/indexer.go:135-366)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from riot_ray.build import IndexWriter, load_stats
from riot_ray.config import EngineOpts
from riot_ray.corpus import make_corpus
from riot_ray.engine import LocalSearcher
from riot_ray.types import SearchReq
from riot_ray.updates import add_docs, compact, load_tombstones, remove_docs


def _build(tmp, name, table, **opts_kw):
    src = os.path.join(tmp, f"{name}.parquet")
    pq.write_table(table, src)
    opts = EngineOpts(mode="code", num_parts=4, num_shards=2, block_size=64, **opts_kw)
    idx = os.path.join(tmp, f"{name}_index")
    IndexWriter(idx, opts).build(src)
    return idx


def _results(index_dir, text="parse batch"):
    s = LocalSearcher(index_dir)
    resp = s.search(SearchReq(text=text))
    return [(h.doc_id, round(h.bm25, 4)) for h in resp.docs]


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(120, seed=7)


def test_remove_then_search_matches_fresh_build(ray_session, tmp_path, corpus):
    full = _build(str(tmp_path), "full", corpus)
    s = LocalSearcher(full)
    resp = s.search(SearchReq(text="parse"))
    assert resp.docs, "need hits to remove"
    victims = [h.doc_id for h in resp.docs[:3]]

    out = remove_docs(full, victims)
    assert out["n_removed"] == 3
    assert load_tombstones(full).size == 3

    # fresh build over corpus minus victims
    s2 = LocalSearcher(full)
    got = s2.search(SearchReq(text="parse"))
    assert not set(victims) & {h.doc_id for h in got.docs}

    keep_rows = [
        i
        for i in range(corpus.num_rows)
        if f"{corpus['repo'][i].as_py()}/{corpus['path'][i].as_py()}@{corpus['commit'][i].as_py()}"
        not in set(victims)
    ]
    fresh = _build(str(tmp_path), "fresh", corpus.take(keep_rows))
    # before compaction: same doc sets; df is stale (tombstoned docs still
    # count toward df, Lucene-style) so scores may differ slightly
    fresh_s = LocalSearcher(fresh)
    assert {h.doc_id for h in got.docs} == {
        h.doc_id for h in fresh_s.search(SearchReq(text="parse")).docs
    }
    # global stats adjusted for tombstones
    n, total = s2._global()
    assert n == load_stats(fresh)["n_docs"]
    assert abs(total - load_stats(fresh)["total_token_len"]) < 1e-3
    # after compaction: exact score equality with the fresh build
    compact(full)
    assert _got_equal(LocalSearcher(full), fresh, "parse")


def _got_equal(searcher, fresh_dir, text):
    fresh = LocalSearcher(fresh_dir)
    a = [(h.doc_id, round(h.bm25, 4)) for h in searcher.search(SearchReq(text=text)).docs]
    b = [(h.doc_id, round(h.bm25, 4)) for h in fresh.search(SearchReq(text=text)).docs]
    return a == b


def test_compact_clears_tombstones_preserves_results(ray_session, tmp_path, corpus):
    idx = _build(str(tmp_path), "c", corpus)
    s = LocalSearcher(idx)
    victims = [h.doc_id for h in s.search(SearchReq(text="batch")).docs[:2]]
    remove_docs(idx, victims)
    before_ids = [d for d, _ in _results(idx, "batch")]
    st = compact(idx)
    assert st["n_removed"] == 2 and st["shards_rebuilt"] >= 1
    assert load_tombstones(idx).size == 0
    # same matching docs; scores shift because compaction refreshes df
    # (tombstoned docs count toward df until compaction, Lucene-style)
    assert {d for d, _ in _results(idx, "batch")} == set(before_ids)
    # stats refreshed: n_docs shrank physically
    assert load_stats(idx)["n_docs"] == corpus.num_rows - 2


def test_add_docs_new_and_replace(ray_session, tmp_path):
    full = make_corpus(120, seed=3)
    base = full.slice(0, 80)  # pre-mutation originals
    extra = full  # rows 0-79 identical to base, 80-119 new
    # mutate rows 10..19 content -> replacement case
    texts = extra["content"].to_pylist()
    for i in range(10, 20):
        texts[i] = texts[i] + "\nzebra_token quokka"
    extra = extra.set_column(
        extra.column_names.index("content"), "content", pa.array(texts, pa.string())
    )

    idx = _build(str(tmp_path), "base", base)
    delta = extra.slice(10, 110)  # replacements (10..19) + unchanged (20..79) + new
    out = add_docs(idx, __table_to_ds(delta))
    assert out["n_added"] == 110

    fresh = _build(str(tmp_path), "freshadd", extra)
    s = LocalSearcher(idx)
    for q in ("parse batch", "zebra_token", "quokka", "merge"):
        assert _got_equal(s, fresh, q), q
    assert load_stats(idx)["n_docs"] == 120


def _stats_match_files(idx):
    """stats.json counts agree with the shard manifests and forward footers."""
    import glob
    import json

    st = load_stats(idx)
    mans = []
    for m in glob.glob(os.path.join(idx, "segments", "shard=*", "manifest.json")):
        with open(m) as f:
            mans.append(json.load(f))
    fwd = sum(pq.read_metadata(f).num_rows
              for f in glob.glob(os.path.join(idx, "forward", "part=*.parquet")))
    assert st["n_docs_forward"] == st["n_docs"] == fwd
    assert st["n_blocks"] == sum(m["n_blocks"] for m in mans)
    assert st["n_terms_with_dups_across_shards"] == sum(m["n_terms"] for m in mans)
    return st


def test_stats_current_after_add_remove_compact(ray_session, tmp_path):
    """Every corpus count in stats.json is refreshed by add_docs and
    compact, not only n_docs / total_token_len / n_postings."""
    import ray.data as rd

    full = make_corpus(130, seed=9)
    idx = _build(str(tmp_path), "st", full.slice(0, 120))
    built = _stats_match_files(idx)
    add_docs(idx, rd.from_arrow(full.slice(120, 10)))
    st = _stats_match_files(idx)
    assert st["n_docs_forward"] == 130 and st["n_blocks"] != built["n_blocks"]
    victims = [h.doc_id for h in LocalSearcher(idx).search(SearchReq(text="def")).docs[:4]]
    remove_docs(idx, victims)
    compact(idx)
    assert _stats_match_files(idx)["n_docs_forward"] == 126


@pytest.mark.parametrize("ray_path", [False, True])
def test_forward_manifests_follow_add_and_compact(ray_session, tmp_path, monkeypatch,
                                                  ray_path):
    """Every forward part's manifest describes the part on disk: its n_docs
    equals the Parquet footer's row count after a build, an add with new
    and replaced ids, and remove+compact — in-process and on Ray — and it
    keeps the build fingerprint."""
    import glob
    import json

    import ray.data as rd

    from riot_ray import updates

    if ray_path:
        monkeypatch.setattr(updates, "LOCAL_MAX_ROWS", 0)
    full = make_corpus(90, seed=12)
    idx = _build(str(tmp_path), "man", full.slice(0, 60))
    build_fp = load_stats(idx)["fingerprint"]

    def check():
        parts = sorted(glob.glob(os.path.join(idx, "forward", "part=*.parquet")))
        mans = sorted(glob.glob(os.path.join(idx, "forward", "part=*.manifest.json")))
        assert [m.replace(".manifest.json", ".parquet") for m in mans] == parts
        for f in parts:
            with open(f.replace(".parquet", ".manifest.json")) as fh:
                m = json.load(fh)
            assert m["n_docs"] == pq.read_metadata(f).num_rows, f
            assert m["fingerprint"] == build_fp
        return sum(pq.read_metadata(f).num_rows for f in parts)

    assert check() == 60
    texts = full["content"].to_pylist()
    for i in range(5):
        texts[i] += "\nzebra_token"
    changed = full.set_column(full.column_names.index("content"), "content",
                              pa.array(texts, pa.string()))
    out = add_docs(idx, rd.from_arrow(pa.concat_tables([changed.slice(0, 5),
                                                        changed.slice(60, 30)])))
    assert out["n_added"] == 35 and out["n_replaced"] == 5
    assert check() == 90 == _stats_match_files(idx)["n_docs_forward"]
    victims = [h.doc_id for h in LocalSearcher(idx).search(SearchReq(text="def")).docs[:6]]
    assert remove_docs(idx, victims)["n_removed"] == 6
    compact(idx)
    assert check() == 84 == _stats_match_files(idx)["n_docs_forward"]


def __table_to_ds(table):
    import ray.data as rd

    return rd.from_arrow(table)


def test_compact_fully_dead_shard(ray_session, tmp_path):
    """Removing EVERY doc of a shard then compacting must drop that shard's
    segment dir (stale postings would reference docs absent from the
    forward table) and leave search working."""
    import glob

    corpus = make_corpus(60, seed=4)
    idx = _build(str(tmp_path), "deadshard", corpus)
    # opts in _build: num_parts=4 num_shards=2 -> parts 0,1 -> shard 0
    f01 = sorted(glob.glob(os.path.join(idx, "forward", "part=0000[01].parquet")))
    ids = []
    for f in f01:
        ids.extend(pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist())
    remove_docs(idx, ids)
    st = compact(idx)
    assert st["n_removed"] == len(ids)
    assert not os.path.exists(os.path.join(idx, "segments", "shard=00000"))
    s = LocalSearcher(idx)
    resp = s.search(SearchReq(text="parse"))
    assert load_stats(idx)["n_docs"] == 60 - len(ids)
    assert all(h.doc_id not in set(ids) for h in resp.docs)


def test_empty_corpus_build_and_search(ray_session, tmp_path):
    empty = make_corpus(5, seed=1).slice(0, 0)
    idx = _build(str(tmp_path), "empty", empty)
    assert load_stats(idx)["n_docs"] == 0
    s = LocalSearcher(idx)
    resp = s.search(SearchReq(text="anything"))
    assert resp.docs == [] and resp.num_docs == 0


def test_add_docs_requires_stored_content(ray_session, tmp_path):
    import ray.data as rd

    idx = _build(str(tmp_path), "nostore", make_corpus(30, seed=2),
                 store_content=False)
    with pytest.raises(ValueError, match="store_content"):
        add_docs(idx, rd.from_arrow(make_corpus(31, seed=2).slice(30, 1)))


def test_add_docs_empty_source_noop(ray_session, tmp_path):
    import ray.data as rd

    idx = _build(str(tmp_path), "emptyadd", make_corpus(20, seed=6))
    empty = make_corpus(5, seed=6).slice(0, 0)
    out = add_docs(idx, rd.from_arrow(empty))
    assert out == {"n_added": 0, "n_replaced": 0, "parts_touched": 0,
                   "shards_rebuilt": 0, "wall_s": out["wall_s"]}
    assert load_stats(idx)["n_docs"] == 20


def test_export_views_exclude_tombstoned(ray_session, tmp_path):
    from riot_ray.export import docmeta_dataset, postings_dataset

    idx = _build(str(tmp_path), "exp", make_corpus(40, seed=8))
    s = LocalSearcher(idx)
    victim = s.search(SearchReq(text="parse")).docs[0].doc_id
    remove_docs(idx, [victim])
    assert victim not in set(postings_dataset(idx).to_pandas()["doc_id"])
    assert victim not in set(docmeta_dataset(idx).to_pandas()["doc_id"])


def _token_len_corpus(n=30):
    """Simple-mode corpus with an explicit DocIndex.TokenLen override column
    that DIFFERS from the tokenizer's own counts (100+i vs a few words)."""
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(n)], pa.string()),
            "content": pa.array(
                [f"alpha beta gamma w{i} w{i % 3}" for i in range(n)], pa.string()
            ),
            "lang": pa.array(["t"] * n, pa.string()),
            "tl": pa.array([float(100 + i) for i in range(n)], pa.float32()),
        }
    )


def _docmeta_lens(index_dir):
    from riot_ray.export import docmeta_dataset

    t = docmeta_dataset(index_dir).to_pandas()
    return dict(zip(t["doc_id"], t["token_len"]))


def test_token_len_override_in_freq_mode_build(ray_session, tmp_path):
    """ADVICE regression: simple/code freq-mode builds must honour
    token_len_col (the vectorized path used to ignore it, corrupting BM25
    doc lengths and avgdl)."""
    table = _token_len_corpus()
    src = os.path.join(str(tmp_path), "tl.parquet")
    pq.write_table(table, src)
    opts = EngineOpts(
        mode="simple", id_cols=("doc_id",), num_parts=4, num_shards=2,
        token_len_col="tl",
    )
    idx = os.path.join(str(tmp_path), "tl_index")
    stats = IndexWriter(idx, opts).build(src)
    lens = _docmeta_lens(idx)
    assert lens == {f"d{i}": 100 + i for i in range(30)}
    assert stats["total_token_len"] == float(sum(100 + i for i in range(30)))


def test_token_len_override_survives_compact_and_add(ray_session, tmp_path):
    """ADVICE regression: compact()/add_docs() shard rebuilds must re-read
    the token_len_col from the forward table (they used to drop it,
    reverting lens to tokenizer counts)."""
    import ray.data as rd

    table = _token_len_corpus()
    src = os.path.join(str(tmp_path), "tlc.parquet")
    pq.write_table(table, src)
    opts = EngineOpts(
        mode="simple", id_cols=("doc_id",), num_parts=4, num_shards=2,
        token_len_col="tl",
    )
    idx = os.path.join(str(tmp_path), "tlc_index")
    IndexWriter(idx, opts).build(src)

    remove_docs(idx, ["d0"])
    compact(idx)
    lens = _docmeta_lens(idx)
    assert lens == {f"d{i}": 100 + i for i in range(1, 30)}
    assert load_stats(idx)["total_token_len"] == float(
        sum(100 + i for i in range(1, 30))
    )

    add_docs(idx, rd.from_arrow(_token_len_corpus(31).slice(30, 1)))
    lens = _docmeta_lens(idx)
    assert lens[f"d{30}"] == 130
    assert lens == {f"d{i}": 100 + i for i in range(1, 31)}


def test_reload_advances_live_searchers(ray_session, tmp_path):
    """reload() makes add_docs / remove_docs visible to EXISTING searchers
    (Local and actor-pool) without recreating them — the rebuild's analog
    of riot's always-live in-process engine."""
    import ray.data as rd

    from riot_ray.engine import ActorSearcher

    full = make_corpus(80, seed=21)
    idx = _build(str(tmp_path), "live", full.slice(0, 60))
    local = LocalSearcher(idx)
    actor = ActorSearcher(idx, num_actors=2)
    try:
        def ids(s):
            return sorted(h.doc_id for h in s.search(SearchReq(text="def")).docs)

        before_local, before_actor = ids(local), ids(actor)
        assert before_local == before_actor and len(before_local) == 60

        add_docs(idx, rd.from_arrow(full.slice(60, 20)))  # 20 new docs
        # snapshots: existing searchers still serve the old state
        assert ids(local) == before_local and ids(actor) == before_actor

        local.reload()
        actor.reload()
        after = ids(local)
        assert len(after) == 80 and ids(actor) == after

        victim = after[0]
        remove_docs(idx, [victim])
        local.reload()
        actor.reload()
        assert victim not in ids(local)
        assert ids(actor) == ids(local)
        # fresh searcher agrees with the reloaded ones exactly
        assert _results(idx, "def") == [
            (h.doc_id, round(h.bm25, 4))
            for h in local.search(SearchReq(text="def")).docs
        ]
        # compact clears tombstones; reload must drop the stale stat
        # adjustments (n_docs/avgdl back to physical-only)
        compact(idx)
        local.reload()
        assert local.n_tomb == 0 and local._global()[0] == 79
        assert len(ids(local)) == 79
    finally:
        actor.shutdown()


def test_reload_replicated(ray_session, tmp_path):
    import ray.data as rd

    from riot_ray.engine import ReplicatedSearcher

    full = make_corpus(50, seed=22)
    idx = _build(str(tmp_path), "liverep", full.slice(0, 40))
    rs = ReplicatedSearcher(idx, replicas=2)
    try:
        n0 = rs.search(SearchReq(text="def")).num_docs
        assert n0 == 40
        add_docs(idx, rd.from_arrow(full.slice(40, 10)))
        assert rs.search(SearchReq(text="def")).num_docs == 40  # snapshot
        rs.reload()
        # every replica serves the new state (round-robin both)
        assert [rs.search(SearchReq(text="def")).num_docs for _ in range(2)] == [50, 50]
    finally:
        rs.shutdown()


def test_reload_dist(ray_session, tmp_path):
    """DistSearcher nodes load at construction: an add right after it stays
    invisible (snapshot) until reload()."""
    import ray.data as rd

    from riot_ray.engine import DistSearcher

    full = make_corpus(70, seed=24)
    node_a = _build(str(tmp_path), "nodea", full.slice(0, 30))
    node_b = _build(str(tmp_path), "nodeb", full.slice(30, 30))
    ds = DistSearcher([node_a, node_b])
    try:
        assert ds.search(SearchReq(text="def")).num_docs == 60
        add_docs(node_a, rd.from_arrow(full.slice(60, 10)))
        assert ds.search(SearchReq(text="def")).num_docs == 60  # snapshot
        ds.reload()
        assert ds.search(SearchReq(text="def")).num_docs == 70
    finally:
        ds.shutdown()


def test_reload_survives_worker_restart(ray_session, tmp_path):
    """Tombstones must survive a ShardWorker crash AFTER reload(): the
    restarted actor replays its ORIGINAL ctor args, so serving state that
    advanced post-construction (tombstones) is re-read from disk in
    __init__ — a removed doc must NOT reappear on the restarted worker."""
    import ray

    from riot_ray.engine import ActorSearcher

    idx = _build(str(tmp_path), "restart", make_corpus(60, seed=23))
    se = ActorSearcher(idx, num_actors=2)
    try:
        req = SearchReq(text="def")
        before = sorted(h.doc_id for h in se.search(req).docs)
        victim = before[0]
        remove_docs(idx, [victim])
        se.reload()
        assert victim not in {h.doc_id for h in se.search(req).docs}
        for a in se.actors:  # hard-kill every worker; Ray restarts them
            ray.kill(a, no_restart=False)
        after = sorted(h.doc_id for h in se.search(req).docs)
        assert victim not in after
        assert after == sorted(set(before) - {victim})
    finally:
        se.shutdown()
