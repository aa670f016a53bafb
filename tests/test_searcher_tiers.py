"""Every searcher tier runs each query once per process over one fused
view of the shards that process hosts (``query.ShardData``) and shares one
gather: the in-process ``LocalSearcher`` and the ``ActorSearcher`` pool (any
actor count) must answer one request list identically, through ``search``
and ``search_many``, on an index with tombstones.

Tiers agreeing with each other does not pin the kernels themselves, so
``LocalSearcher`` is also held to a recorded golden
(``tests/fixtures/searcher_golden.json``, FIXTURES.md F11): exact doc ids,
float32 BM25 bits, ``num_docs``, facets, proximity and snippet locations on
a frequencies index and a locations index, both with tombstones.
Regenerate it only for an intended change of results:
``PYTHONPATH=. python tests/test_searcher_tiers.py`` from the repo root."""

import json
import os

import pyarrow.parquet as pq
import pytest

from riot_ray.config import LOCS_INDEX, EngineOpts
from riot_ray.corpus import make_corpus
from riot_ray.types import Expr, Logic, RankOpts, SearchReq

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures",
                      "searcher_golden.json")
# simple mode: phrase search needs it
FREQS_OPTS = EngineOpts(mode="simple", num_parts=8, num_shards=6, block_size=32)
LOCS_OPTS = EngineOpts(mode="simple", num_parts=8, num_shards=6, block_size=32,
                       index_type=LOCS_INDEX)

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


def _golden_extra():
    """Kernel paths the tier mix leaves out: the NotIn-only quirk (the
    concatenated NotIn lists, duplicates kept) and an allowlist that names
    tombstoned docs."""
    return [
        SearchReq(text="parse load", logic=Logic(not_in=True),
                  rank_opts=RankOpts(max_outputs=40)),
        SearchReq(text="parse load", logic=Logic(not_in=True), facets=("lang",),
                  count_docs_only=True),
        SearchReq(text="read", doc_ids=frozenset(REMOVED[:6] + DOC_IDS[1:60:2]),
                  rank_opts=RankOpts(max_outputs=10)),
    ]


def _by_proximity(hit, fields):
    return (float(-hit.token_proximity), hit.bm25)


def _locs_requests():
    top = RankOpts(max_outputs=10)
    return [
        SearchReq(text="parse load", rank_opts=top),
        SearchReq(text="read write open", rank_opts=RankOpts(output_offset=3, max_outputs=8)),
        SearchReq(text="hash"),
        SearchReq(text="fetch send", orderless=True),
        SearchReq(text="def return", phrase=True, rank_opts=top),
        SearchReq(text="async await", facets=("lang",), rank_opts=top),
        SearchReq(text="build run", count_docs_only=True),
        SearchReq(text="decode split", rank_opts=RankOpts(reverse_order=True, max_outputs=6)),
        SearchReq(text="import sort", rank_opts=RankOpts(scoring_criteria=_by_proximity,
                                                         max_outputs=10)),
        SearchReq(text="parse", labels=("load",), rank_opts=top),
        SearchReq(logic=Logic(expr=Expr(must=("parse",), should=("read", "write"),
                                        not_in=("panic",))), rank_opts=top),
    ] + _golden_extra()


def _golden_view(resp, orderless):
    """JSON form of a response: bm25 as ``float.hex`` (exact bits)."""
    docs = [[h.doc_id, float(h.bm25).hex(), h.token_proximity,
             list(h.token_snippet_locs)] for h in resp.docs]
    if orderless:
        docs = sorted(docs)
    return {"docs": docs, "num_docs": resp.num_docs, "facets": resp.facets}


def _golden_record(freqs_index, locs_index):
    from riot_ray.engine import LocalSearcher

    out = {}
    for name, idx, reqs in (("freqs", freqs_index, _requests() + _golden_extra()),
                            ("locs", locs_index, _locs_requests())):
        s = LocalSearcher(idx, hydrate=True)
        out[name] = [_golden_view(s.search(r), r.orderless) for r in reqs]
    return out


def _view(resp, orderless):
    docs = [(h.doc_id, h.bm25) for h in resp.docs]
    if orderless:
        docs = sorted(docs)
    return docs, resp.num_docs, resp.facets, resp.timeout


def _tomb_index(root, opts):
    """Build ``CORPUS`` under ``root`` with ``opts`` and tombstone ``REMOVED``."""
    from riot_ray.build import IndexWriter
    from riot_ray.updates import load_tombstones, remove_docs

    os.makedirs(root, exist_ok=True)
    src = os.path.join(root, "code.parquet")
    pq.write_table(CORPUS, src)
    idx = os.path.join(root, "index")
    IndexWriter(idx, opts).build(src)
    assert remove_docs(idx, REMOVED)["n_removed"] == len(REMOVED)
    assert load_tombstones(idx).size == len(REMOVED)
    return idx


@pytest.fixture(scope="module")
def tomb_index(ray_session, tmp_path_factory):
    return _tomb_index(str(tmp_path_factory.mktemp("tiers")), FREQS_OPTS)


@pytest.fixture(scope="module")
def locs_index(ray_session, tmp_path_factory):
    return _tomb_index(str(tmp_path_factory.mktemp("tiers_locs")), LOCS_OPTS)


def test_local_searcher_matches_golden(tomb_index, locs_index):
    with open(GOLDEN) as f:
        want = json.load(f)
    got = json.loads(json.dumps(_golden_record(tomb_index, locs_index)))
    for name in ("freqs", "locs"):
        assert len(got[name]) == len(want[name])
        for i, (g, w) in enumerate(zip(got[name], want[name])):
            assert g == w, f"{name} request {i}"
    # the golden exercises what it claims to: proximity and snippets, the
    # NotIn-only duplicates, and no tombstoned doc in any answer
    locs = want["locs"]
    assert any(d[2] > 0 and len(d[3]) == 2 for d in locs[0]["docs"])
    quirk = [d[0] for d in want["freqs"][len(_requests())]["docs"]]
    assert len(quirk) > len(set(quirk))
    removed = set(REMOVED)
    assert not removed & {d[0] for rs in want.values() for r in rs for d in r["docs"]}


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


def test_perfbench_query_trace_hooks(tomb_index):
    """``perfbench --trace 1`` wraps ``ShardData.search``, ``.postings``
    (reading ``._cache``), ``.__init__`` and the ``riot_ray.engine``
    globals ``rank_hits`` / ``merge_ranked``; renaming or inlining any of
    them would silently drop its spans."""
    import riot_ray.engine as engine
    import riot_ray.query as query
    from perfbench.tracing import Tracer, install_query

    before = (query.ShardData.search, query.ShardData.postings,
              query.ShardData.__init__, engine.rank_hits, engine.merge_ranked)
    tracer = Tracer()
    patch = install_query(tracer)
    try:
        s = engine.LocalSearcher(tomb_index)
        resp = s.search(SearchReq(text="parse load", rank_opts=RankOpts(max_outputs=5)))
    finally:
        patch.undo()
    assert len(resp.docs) == 5
    names = {sp["name"] for sp in tracer.spans}
    assert {"query.shard_search", "query.postings", "query.rank", "query.merge",
            "query.shard_load", "engine.search"} <= names
    assert any(sp["name"] == "query.postings" and sp["decoded"] > 0
               for sp in tracer.spans)
    assert (query.ShardData.search, query.ShardData.postings,
            query.ShardData.__init__, engine.rank_hits,
            engine.merge_ranked) == before


if __name__ == "__main__":
    import tempfile

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    with tempfile.TemporaryDirectory() as tmp:
        rec = _golden_record(_tomb_index(os.path.join(tmp, "freqs"), FREQS_OPTS),
                             _tomb_index(os.path.join(tmp, "locs"), LOCS_OPTS))
    with open(GOLDEN, "w") as f:  # one line per response
        f.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: [\n" + ",\n".join(
                json.dumps(r, sort_keys=True) for r in rs) + "\n]"
            for name, rs in rec.items()) + "\n}\n")
    ray.shutdown()
