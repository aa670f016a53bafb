"""One query view per process: ``ShardData`` fuses the shards a process
hosts, and each query runs once per view.

The fused view must answer exactly as one single-shard view per shard whose
outputs go through the same gather (ids, ``float.hex`` scores, proximity,
snippets, ``num_docs`` and facets), it must fetch each query term's postings
once, and it must refuse shards whose doc ranges overlap."""

import random
import shutil

import numpy as np
import pytest
from test_searcher_tiers import (CORPUS, DOC_IDS, FREQS_OPTS, LOCS_OPTS, REMOVED,
                                 _tomb_index)
from test_update_paths import assert_view_df

from riot_ray.engine import LocalSearcher, _run_view
from riot_ray.query import ShardData
from riot_ray.types import Expr, Logic, RankOpts, SearchReq


@pytest.fixture(scope="module")
def freqs_index(ray_session, tmp_path_factory):
    return _tomb_index(str(tmp_path_factory.mktemp("view_freqs")), FREQS_OPTS)


@pytest.fixture(scope="module")
def locs_index(ray_session, tmp_path_factory):
    return _tomb_index(str(tmp_path_factory.mktemp("view_locs")), LOCS_OPTS)


class _PerShard(LocalSearcher):
    """The same searcher with one single-shard view per shard, gathered by
    the shared ``_gather``: the per-shard reference for the fused view."""

    def __init__(self, index_dir):
        self.views = []  # the base constructor counts removed docs first
        super().__init__(index_dir, hydrate=True)
        self.views = [ShardData(index_dir, [sid], self.opts, True, self._tomb)
                      for sid in self.view.shard_ids]
        self._count_removed()

    def _run(self, items, timeout_ms):
        return [_run_view(v, items) for v in self.views], False

    def _removed(self, tombstones):
        return [v.removed(tombstones) for v in self.views]


def _lang_len(hit, fields):
    return (float(len(fields.get("lang") or "")), hit.bm25)


def _request_mix(seed, vocab, n, wand):
    """A seeded mix of every request kind the planner routes to a kernel."""
    rng = random.Random(seed)
    contents = CORPUS["content"].to_pylist()
    kinds = ["and", "logic", "notin", "phrase", "facets", "allow", "orderless",
             "count", "reverse", "custom"] + (["wand", "wand"] if wand else [])
    reqs = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        words = rng.sample(vocab, rng.randint(1, 3))
        text = " ".join(words)
        top = RankOpts(max_outputs=rng.choice([1, 5, 10, 40]),
                       output_offset=rng.choice([0, 0, 3]))
        if kind == "and":
            reqs.append(SearchReq(text=text, rank_opts=rng.choice([top, RankOpts()])))
        elif kind == "wand":
            reqs.append(SearchReq(text=text, approx_count=True, rank_opts=top))
        elif kind == "logic":
            w = rng.sample(vocab, 5)
            expr = rng.choice([
                Expr(must=(w[0],), should=(w[1], w[2]), not_in=(w[3],)),
                Expr(should=(w[0], w[1], "zzznothere"), not_in=(w[2], w[3])),
                Expr(must=(w[0], w[1]), not_in=(w[4],)),
            ])
            reqs.append(SearchReq(logic=Logic(expr=expr), rank_opts=top,
                                  facets=("lang",) if rng.random() < 0.5 else ()))
        elif kind == "notin":
            # the NotIn-only quirk: the NotIn lists concatenated, dups kept
            reqs.append(SearchReq(text=text, logic=Logic(not_in=True), rank_opts=top,
                                  facets=("lang",) if rng.random() < 0.5 else (),
                                  count_docs_only=rng.random() < 0.3))
        elif kind == "phrase":
            toks = contents[rng.randrange(len(contents))].split()
            j = rng.randrange(max(1, len(toks) - 1))
            reqs.append(SearchReq(text=" ".join(toks[j:j + 2]), phrase=True, rank_opts=top))
        elif kind == "facets":
            reqs.append(SearchReq(text=text, facets=("lang",), rank_opts=top,
                                  count_docs_only=rng.random() < 0.3))
        elif kind == "allow":
            allow = rng.sample(REMOVED, 4) + rng.sample(DOC_IDS, 120)
            reqs.append(SearchReq(text=text, doc_ids=frozenset(allow), rank_opts=top))
        elif kind == "orderless":
            reqs.append(SearchReq(text=text, orderless=True))
        elif kind == "count":
            reqs.append(SearchReq(text=text, count_docs_only=True))
        elif kind == "reverse":
            reqs.append(SearchReq(text=text, rank_opts=RankOpts(
                reverse_order=True, max_outputs=top.max_outputs,
                output_offset=top.output_offset)))
        else:
            reqs.append(SearchReq(text=text, rank_opts=RankOpts(
                scoring_criteria=_lang_len, max_outputs=top.max_outputs)))
    return reqs


def _exact(resp, req):
    """Everything a response carries, scores as ``float.hex``; orderless
    answers have no order to compare."""
    docs = [(h.doc_id, h.doc, float(h.bm25).hex(), h.token_proximity,
             tuple(h.token_snippet_locs), tuple(h.token_locs),
             tuple(float(x).hex() for x in h.scores), sorted((h.fields or {}).items()),
             h.content) for h in resp.docs]
    if req.orderless:
        docs = sorted(docs)
    return docs, resp.num_docs, resp.facets, resp.timeout


@pytest.mark.parametrize("which", ["freqs", "locs"])
def test_fused_view_matches_per_shard_views(which, freqs_index, locs_index):
    idx = freqs_index if which == "freqs" else locs_index
    fused = LocalSearcher(idx, hydrate=True)
    per = _PerShard(idx)
    assert len(fused.view.shard_ids) == FREQS_OPTS.num_shards == len(per.views)
    assert fused._global() == per._global()
    vocab = sorted(t for t, (_s, _e, df) in fused.view.term_range.items() if 4 <= df <= 250)
    reqs = _request_mix(7 if which == "freqs" else 8, vocab, 240, which == "freqs")
    want = [_exact(per.search(r), r) for r in reqs]
    # the mix reaches real results on most kinds, tombstones stay out
    assert sum(w[1] > 0 for w in want) > len(reqs) // 2
    assert any(r.phrase and w[1] > 0 for r, w in zip(reqs, want))
    assert any(r.logic and r.logic.not_in and w[1] > 0 for r, w in zip(reqs, want))
    assert which == "locs" or any(r.approx_count and w[1] > 0 for r, w in zip(reqs, want))
    assert not set(REMOVED) & {d[0] for w in want for d in w[0]}
    for got in ([fused.search(r) for r in reqs], fused.search_many(reqs)):
        for i, (g, r) in enumerate(zip(got, reqs)):
            assert _exact(g, r) == want[i], f"request {i}: {r}"


def test_and_fetches_each_term_once(freqs_index, monkeypatch):
    """A cold 2-token AND asks the view for each term's postings once: two
    calls, no cache hits (a second fetch per term used to inflate the
    postings cache-hit ratio)."""
    calls = []
    raw = ShardData.postings

    def postings(self, term):
        calls.append((term, term in self._cache))
        return raw(self, term)

    monkeypatch.setattr(ShardData, "postings", postings)
    s = LocalSearcher(freqs_index)
    resp = s.search(SearchReq(text="parse load", rank_opts=RankOpts(max_outputs=5)))
    assert resp.num_docs > 0
    assert sorted(calls) == [("load", False), ("parse", False)]

    # a keyword with no postings ends the fetch: the later list is not decoded
    calls.clear()
    cand, rows, lists = s.view._and_candidates_rows(["nosuchterm", "parse"], ())
    assert cand.size == 0 and rows == {}
    assert calls == [("nosuchterm", False)] and list(lists) == ["nosuchterm"]


def test_overlapping_shards_fail_loudly(freqs_index, tmp_path):
    idx = str(tmp_path / "index")
    shutil.copytree(freqs_index, idx)
    seg = tmp_path / "index" / "segments"
    shutil.rmtree(seg / "shard=00003")
    shutil.copytree(seg / "shard=00001", seg / "shard=00003")
    with pytest.raises(ValueError, match="shards 2 and 3 overlap"):
        ShardData(idx, range(6), FREQS_OPTS)
    with pytest.raises(ValueError, match="shards 1 and 3 overlap"):
        ShardData(idx, [1, 3], FREQS_OPTS)
    with pytest.raises(ValueError, match="overlap"):
        LocalSearcher(idx)
    assert ShardData(idx, [0, 1, 4, 5], FREQS_OPTS).shard_ids == [0, 1, 4, 5]


def test_missing_and_empty_slices_load_as_nothing(freqs_index):
    full = ShardData(freqs_index, [2, 97], FREQS_OPTS)
    one = ShardData(freqs_index, [2], FREQS_OPTS)
    assert full.shard_ids == one.shard_ids == [2]
    assert full.term_range == one.term_range
    assert np.array_equal(full.dm_doc, one.dm_doc)
    assert np.array_equal(full.fw_doc, one.fw_doc)

    empty = ShardData(freqs_index, [98, 99], FREQS_OPTS, True, np.asarray([1, 2], np.uint64))
    assert empty.shard_ids == [] and empty.term_range == {} and empty.dm_doc.size == 0
    assert empty.removed(np.asarray([1, 2], np.uint64)) == []
    top = RankOpts(max_outputs=5)
    items = [
        ("search", dict(tokens=["parse"], labels=[], idfs=[1.0], avgdl=5.0,
                        allow_ids=None, count_only=False, facets=("lang",)), top, 5, False, False),
        ("search_wand", dict(tokens=["parse"], idfs=[1.0], avgdl=5.0, k=5), top, 5, False, False),
        ("logic_search", dict(must=[], should=[], not_in=["parse"], allow_ids=None,
                              count_only=True), top, 5, True, False),
    ]
    assert _run_view(empty, items) == [([], 0, 0, {"lang": {}}), ([], 0, 0, None),
                                       ([], 0, 0, None)]


def test_removed_stats_stay_per_shard(freqs_index):
    """The fused view reports removed-doc stats per hosted shard, equal to
    single-shard views', so every tier subtracts the same global stats."""
    s = LocalSearcher(freqs_index)
    view = ShardData(freqs_index, range(6), FREQS_OPTS)
    got = view.removed(s._tomb)
    want = [p for sid in range(6)
            for p in ShardData(freqs_index, [sid], FREQS_OPTS).removed(s._tomb)]
    assert got == want
    assert [sid for sid, _n, _tl in got] == list(range(6))
    assert sum(n for _sid, n, _tl in got) == len(REMOVED)
    assert s._global()[0] == s.stats["n_docs"] - len(REMOVED)


@pytest.mark.parametrize("which", ["freqs", "locs"])
def test_view_df_equals_termstats(which, freqs_index, locs_index):
    """A view over every shard is the process's one term dictionary: its
    df (the sum of ``blocks.n`` over the term's blocks) equals
    ``termstats/df.parquet`` for every term, tombstoned docs counted."""
    idx = freqs_index if which == "freqs" else locs_index
    assert LocalSearcher(idx).n_tomb == len(REMOVED)
    assert_view_df(idx)
