"""Every searcher tier runs the same per-shard executor (``ShardSet``) and
the same gather: the in-process ``LocalSearcher`` and the ``ActorSearcher``
pool (any actor count) must answer one request list identically, through
``search`` and ``search_many``, on an index with tombstones."""

import pyarrow.parquet as pq
import pytest

from riot_ray.corpus import make_corpus
from riot_ray.types import Expr, Logic, RankOpts, SearchReq

CORPUS = make_corpus(400, seed=11)
DOC_IDS = [f"{r}/{p}@{c}" for r, p, c in zip(CORPUS["repo"].to_pylist(),
                                              CORPUS["path"].to_pylist(),
                                              CORPUS["commit"].to_pylist())]
REMOVED = DOC_IDS[::7]


def _requests():
    top = RankOpts(max_outputs=10)
    return [
        SearchReq(text="parse load", rank_opts=top),                    # AND
        SearchReq(text="read write", rank_opts=RankOpts(output_offset=5, max_outputs=7)),
        SearchReq(text="hash sort"),                                    # unlimited
        SearchReq(text="open close", count_docs_only=True),
        SearchReq(text="fetch send", orderless=True),
        SearchReq(text="def return", phrase=True, rank_opts=top),
        SearchReq(text="decode split", approx_count=True, rank_opts=top),  # WAND
        SearchReq(text="import", approx_count=True, rank_opts=RankOpts(max_outputs=3)),
        SearchReq(logic=Logic(expr=Expr(must=("parse",), should=("read", "write"),
                                        not_in=("panic",))), rank_opts=top),
        SearchReq(logic=Logic(expr=Expr(should=("yield", "zzznothere"))),
                  count_docs_only=True),
        SearchReq(text="init", doc_ids=frozenset(DOC_IDS[::3]), rank_opts=top),
        SearchReq(text="async await", facets=("lang",), rank_opts=top),
        SearchReq(text="build run", facets=("lang",), count_docs_only=True),
        SearchReq(text=""),                                             # empty
        SearchReq(text="parse zzznothere", facets=("lang",)),           # missing term
        SearchReq(text="parse load", rank_opts=top),                    # duplicate
    ]


def _view(resp, orderless):
    docs = [(h.doc_id, h.bm25) for h in resp.docs]
    if orderless:
        docs = sorted(docs)
    return docs, resp.num_docs, resp.facets, resp.timeout


@pytest.fixture(scope="module")
def tomb_index(ray_session, tmp_path_factory):
    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts
    from riot_ray.updates import load_tombstones, remove_docs

    root = tmp_path_factory.mktemp("tiers")
    src = str(root / "code.parquet")
    pq.write_table(CORPUS, src)
    # simple mode: phrase search needs it
    opts = EngineOpts(mode="simple", num_parts=8, num_shards=6, block_size=32)
    idx = str(root / "index")
    IndexWriter(idx, opts).build(src)
    assert remove_docs(idx, REMOVED)["n_removed"] == len(REMOVED)
    assert load_tombstones(idx).size == len(REMOVED)
    return idx


@pytest.mark.parametrize("num_actors", [2, 3])
def test_local_and_actor_tiers_agree(tomb_index, num_actors):
    from riot_ray.engine import ActorSearcher, LocalSearcher

    reqs = _requests()
    local = LocalSearcher(tomb_index, hydrate=True)
    actor = ActorSearcher(tomb_index, num_actors=num_actors, hydrate=True)
    try:
        assert len(actor.actors) == num_actors
        assert actor._global() == local._global()
        assert local._global()[0] == local.stats["n_docs"] - len(REMOVED)
        want = [_view(local.search(r), r.orderless) for r in reqs]
        # the list exercises every branch with real results
        assert all(w[1] > 0 for w in want[:13])
        assert want[13][1] == 0 and want[14][1] == 0
        assert want[14][2] == {"lang": {}}
        assert not set(REMOVED) & {d for w in want for d, _ in w[0]}
        for got in (
            [actor.search(r) for r in reqs],
            actor.search_many(reqs),
            local.search_many(reqs),
        ):
            assert [_view(g, r.orderless) for g, r in zip(got, reqs)] == want
    finally:
        actor.shutdown()


def test_tiers_agree_on_global_stats_after_remove(tomb_index, tmp_path):
    """Both tiers subtract the same tombstoned docs (count and token length
    from the loaded docmeta) from the global BM25 stats, at construction
    and after reload()."""
    import shutil

    from riot_ray.engine import ActorSearcher, LocalSearcher
    from riot_ray.updates import remove_docs

    idx = str(tmp_path / "index")
    shutil.copytree(tomb_index, idx)
    local = LocalSearcher(idx)
    actor = ActorSearcher(idx, num_actors=3)
    try:
        before = local._global()
        assert actor._global() == before
        assert remove_docs(idx, DOC_IDS[1:4])["n_removed"] == 3
        local.reload()
        actor.reload()
        after = local._global()
        assert actor._global() == after
        assert after[0] == before[0] - 3 and after[1] < before[1]
        req = SearchReq(text="parse load", rank_opts=RankOpts(max_outputs=10))
        assert _view(actor.search(req), False) == _view(local.search(req), False)
    finally:
        actor.shutdown()
