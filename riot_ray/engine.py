"""SearchEngine facade: global stats + term dictionary + shard fan-out.

Four serving tiers over the same ShardData kernels:

* ``LocalSearcher`` — in-process shards (tests, the HTTP facade's default,
  DuckDB-oracle callables).
* ``ActorSearcher`` — named actor pool (one ``ShardWorker`` actor owning a
  slice of shards, SURVEY.md §3.3 rebuild equivalent); the driver
  tokenizes, ships per-token idf, ``ray.wait``s with the request timeout and
  merges the per-actor top-k lists.
* ``ReplicatedSearcher`` — N actors each holding a full ``LocalSearcher``,
  round-robin, one RPC per query.
* ``DistSearcher`` — N independent node indexes, riot's (ts desc, id desc)
  wire merge.

The shard is the unit of build, segment files and actor placement; a
process serves the shards it hosts as ONE :class:`~riot_ray.query.ShardData`
view (``LocalSearcher`` over all shards, each ``ShardWorker`` over its
slice), and :func:`_run_view` runs a planned query on it as one kernel call
plus one :func:`rank_hits`.  Planning, batch dedupe and the one gather of
per-process outputs live in ``_SearcherBase``; the replica tiers wrap
``LocalSearcher``.

The planner reads global df (riot NumShards=1 semantics) through one
lookup, ``_df``: ``LocalSearcher`` (and so the replica and dist tiers) takes
it from its view, which hosts every shard; only the ``ActorSearcher`` driver
loads :class:`TermStats`.  A keyword absent from the global dictionary
short-circuits the AND search to empty exactly like
/root/reference/core/indexer.go:425-430.
"""

from __future__ import annotations

import array
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .build import load_stats
from .config import FREQS_INDEX, EngineOpts
from .query import ShardData, _bytes_column, bm25_idf, merge_ranked, rank_hits
from .tokenize import Tokenizer
from .types import RankOpts, SearchReq, SearchResp


class TermStats:
    """The ``ActorSearcher`` driver's global term->df table, read from
    ``termstats/``: that driver hosts no view (a process whose view hosts
    every shard takes df from the view's own term dictionary).  Terms stay
    packed, one UTF-8 blob plus an int64 offset per term in byte order
    (= code-point order = ``str`` order), no Python object per term; a
    lookup binary-searches byte slices, about 8 µs on 28,640 terms."""

    def __init__(self, index_dir: str):
        d = os.path.join(index_dir, "termstats")
        files = [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
        t = pa.concat_tables(pq.read_table(f, columns=["term", "df"]) for f in files)
        # builds write the driver-aggregated file term-sorted; the
        # distributed fallback emits several unsorted files — sort once here
        # (Arrow orders strings by their bytes)
        idx = pa.compute.sort_indices(t["term"])
        offs, data = _bytes_column(t["term"].take(idx))
        self._offs = array.array("q", offs.tobytes())
        self._data = data.tobytes()
        self._df = t["df"].take(idx).to_numpy()

    def __len__(self) -> int:
        return len(self._df)

    def get(self, term: str, default=None):
        key = term.encode("utf-8", "surrogatepass")
        offs, data = self._offs, self._data
        lo, hi = 0, len(self._df)
        while lo < hi:
            mid = (lo + hi) >> 1
            if data[offs[mid]:offs[mid + 1]] < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self._df) and data[offs[lo]:offs[lo + 1]] == key:
            return int(self._df[lo])
        return default

    def items(self):
        """Iterate (term, df) — export/debug only, not the query path."""
        for i in range(len(self._df)):
            yield self._data[self._offs[i]:self._offs[i + 1]].decode(), int(self._df[i])


def _load_tombstones(index_dir: str) -> np.ndarray:
    from .updates import load_tombstones

    return load_tombstones(index_dir)


class _SearcherBase:
    """Planning, batching and the one gather shared by every sharded
    searcher.  A subclass supplies where the shards live: ``_df(term)``
    returns a term's global df (0 when absent), ``_run(items,
    timeout_ms)`` executes planned queries (:func:`_run_view`) on every
    process hosting a view and returns ``(outputs per process,
    timed_out)``, and ``_removed(tombstones)`` returns each process's
    per-shard removed-doc stats."""

    def __init__(self, index_dir: str, hydrate: bool = False, tokenizer_factory=None):
        self.index_dir = index_dir
        self._tok_factory = tokenizer_factory
        self.stats = load_stats(index_dir)
        self.opts = EngineOpts.from_json_dict(self.stats["opts"])
        if self.stats.get("custom_tokenizer") and tokenizer_factory is None:
            raise ValueError(
                "index was built with a custom tokenizer_factory; pass the "
                "same factory to the searcher (query tokens must be "
                "byte-identical to the index side)"
            )
        self.tok = (tokenizer_factory or Tokenizer)(self.opts)
        self.hydrate = hydrate
        tomb = _load_tombstones(index_dir)
        self.n_tomb = int(tomb.size)
        self._tomb = tomb
        # reset (not just default) — reload() re-runs this __init__ and a
        # compact() clears tombstones, so stale adjustments must not leak
        self._tomb_ndocs = 0
        self._tomb_len = 0.0

    def _shard_universe(self) -> list:
        """The FIXED shard ids ``range(num_shards)``: immutable for the
        index's lifetime, so a slice of it is restart-safe and a shard that
        materializes later (first postings via add_docs) already has an
        owner."""
        return list(range(int(self.opts.num_shards) or 1))

    # ---- stats with tombstones applied --------------------------------- #
    def _global(self):
        n = self.stats["n_docs"] - self._tomb_ndocs
        total = self.stats["total_token_len"] - self._tomb_len
        return n, total

    def _count_removed(self):
        """Subtract the tombstoned docs from the global BM25 stats: their
        count and token length as found in the loaded docmeta, summed in
        shard order whichever processes host the shards."""
        if self._tomb.size:
            per_shard = sorted(p for part in self._removed(self._tomb) for p in part)
            self._tomb_ndocs = sum(n for _, n, _ in per_shard)
            self._tomb_len = float(sum(tl for _, _, tl in per_shard))

    # ---- query assembly -------------------------------------------------#
    def _prepare(self, req: SearchReq):
        if req.phrase:
            # one segmentation pass yields both streams; the raw one is
            # picked up again by the phrase branch in _plan
            filtered, raw = self.tok.query_tokens_both(req.text)
            return filtered + list(req.tokens), (req.rank_opts or RankOpts()), raw
        tokens = self.tok.query_tokens(req.text) + list(req.tokens)
        rank = req.rank_opts or RankOpts()
        return tokens, rank, None

    def _plan(self, req: SearchReq):
        """Resolve one request into a (method, kwargs, rank, keep,
        orderless, is_wand) plan, or None for the short-circuit cases
        (empty query, missing keyword).  Returns (plan | None, resp)."""
        tokens, rank, raw_toks = self._prepare(req)
        labels = list(req.labels)
        resp = SearchResp(tokens=tuple(tokens))
        keep = 0 if rank.max_outputs == 0 else rank.output_offset + rank.max_outputs
        if req.logic is not None and req.logic.active(len(tokens) + len(labels)):
            return self._plan_logic(req, tokens + labels, rank, keep), resp
        keywords = tokens + labels
        if not keywords:
            return None, resp
        n_docs, total_len = self._global()
        if n_docs <= 0:
            return None, resp
        dfs = []
        for k in keywords:
            df = self._df(k)
            if not df:
                return None, resp
            dfs.append(df)
        dtype = np.float32 if self.opts.score_dtype == "float32" else np.float64
        avgdl = (
            np.float32(np.float32(total_len) / np.float32(n_docs))
            if dtype is np.float32
            else total_len / n_docs
        )
        idfs = [float(bm25_idf(n_docs, df, dtype)) for df in dfs[: len(tokens)]]
        if req.phrase and tokens:
            from .tokenize import phrase_pattern

            # The adjacency pattern must reflect the user's LITERAL phrase:
            # build it from the UNFILTERED token stream so a stop word in
            # the phrase stays in the regex (postings-AND pruning and
            # scoring still use the stop-filtered `tokens`, which are the
            # only terms present in the index).  raw_toks came from the
            # same single segmentation pass as `tokens` (_prepare).
            phrase_toks = list(raw_toks or []) + list(req.tokens)
            plan = ("phrase_search",
                    dict(tokens=tokens, labels=labels, idfs=idfs,
                         avgdl=float(avgdl),
                         pattern=phrase_pattern(phrase_toks, self.opts.mode),
                         allow_ids=req.doc_ids,
                         count_only=req.count_docs_only,
                         dtype_name=self.opts.score_dtype,
                         facets=tuple(req.facets)),
                    rank, keep, req.orderless, False)
            return plan, resp
        use_wand = (
            req.approx_count
            and not req.facets
            and keep > 0
            and not labels
            and req.doc_ids is None
            and not req.count_docs_only
            and not req.orderless
            and rank.scoring_criteria is None
            and not rank.reverse_order
            and self.opts.index_type == FREQS_INDEX
        )
        if use_wand:
            plan = ("search_wand",
                    dict(tokens=tokens, idfs=idfs, avgdl=float(avgdl), k=keep,
                         dtype_name=self.opts.score_dtype),
                    rank, keep, False, True)
        else:
            plan = ("search",
                    dict(tokens=tokens, labels=labels, idfs=idfs,
                         avgdl=float(avgdl), allow_ids=req.doc_ids,
                         count_only=req.count_docs_only,
                         dtype_name=self.opts.score_dtype,
                         facets=tuple(req.facets)),
                    rank, keep, req.orderless, False)
        return plan, resp

    def _plan_logic(self, req: SearchReq, keywords: list, rank: RankOpts, keep: int):
        """Must/Should/NotIn plan, or None when a must-keyword (or every
        should-keyword) is missing from the global dictionary."""
        logic = req.logic
        must = list(logic.expr.must) or (keywords if logic.must else [])
        should = list(logic.expr.should) or (keywords if logic.should else [])
        not_in = list(logic.expr.not_in) or (keywords if logic.not_in else [])
        # a must-keyword missing globally empties the result
        if not all(self._df(k) for k in must):
            return None
        # should-keywords missing are dropped; all missing -> empty
        should_present = [k for k in should if self._df(k)]
        if should and not should_present:
            return None
        return ("logic_search",
                dict(must=must, should=should_present,
                     not_in=[k for k in not_in if self._df(k)],
                     allow_ids=req.doc_ids, count_only=req.count_docs_only,
                     facets=tuple(req.facets)),
                rank, keep, req.orderless, False)

    @staticmethod
    def _short_circuit_facets(req: SearchReq, resp: SearchResp) -> SearchResp:
        """Short-circuited (no-kernel) responses still honor the facets
        contract: every requested column present, all counts empty."""
        if req.facets and resp.facets is None:
            resp.facets = {c: {} for c in req.facets}
        return resp

    def search(self, req: SearchReq) -> SearchResp:
        plan, resp = self._plan(req)
        if plan is None:
            return self._short_circuit_facets(req, resp)
        return self._execute([(plan, req, resp)], req.timeout_ms)[0]

    @staticmethod
    def _plan_key(plan):
        """Hashable execution key for a planned query, or None when the
        plan carries unshareable state (custom scoring callables, doc-id
        allowlists).  Two requests with equal keys run the identical
        kernel + rank computation, so a batch executes each distinct key
        once — the cross-query sharing that makes repeated/overlapping
        queries in one batch cost one postings pass."""
        method, kw, rank, keep, orderless, is_wand = plan
        if rank.scoring_criteria is not None or kw.get("allow_ids") is not None:
            return None
        items = []
        for k, v in sorted(kw.items()):
            if k == "allow_ids":
                continue
            if isinstance(v, list):
                v = tuple(v)
            items.append((k, v))
        return (
            method, tuple(items), keep, orderless,
            rank.output_offset, rank.max_outputs, rank.reverse_order,
        )

    def search_many(self, reqs: list) -> list[SearchResp]:
        """Batched serving: plan every request once and execute each
        DISTINCT plan once, all in one ``_run`` (one RPC per actor on the
        actor tier, which then waits for every actor: ``timeout_ms`` applies
        to :meth:`search` only).  Identical queries in a batch share one
        kernel pass and one ranked result — responses for duplicates alias
        the same hit objects; treat them as read-only."""
        results: list = [None] * len(reqs)
        todo, slot, by_key = [], [], {}
        for i, req in enumerate(reqs):
            plan, resp = self._plan(req)
            if plan is None:
                results[i] = self._short_circuit_facets(req, resp)
                continue
            key = self._plan_key(plan)
            j = None if key is None else by_key.get(key)
            if j is None:
                j = len(todo)
                todo.append((plan, req, resp))
                if key is not None:
                    by_key[key] = j
            slot.append((i, j))
        done = self._execute(todo, 0) if todo else []
        for i, j in slot:
            results[i] = done[j]
        return results

    def _execute(self, todo: list, timeout_ms) -> list[SearchResp]:
        """Run ``[(plan, req, resp)]`` through ``_run`` and gather each
        query's per-process outputs into its response."""
        items = [(m, kw, rank, keep, req.count_docs_only, orderless)
                 for (m, kw, rank, keep, orderless, _w), req, _r in todo]
        outs, timed_out = self._run(items, timeout_ms)
        return [self._gather(plan, req, resp, [o[j] for o in outs], timed_out)
                for j, (plan, req, resp) in enumerate(todo)]

    def _gather(self, plan, req, resp, outs, timed_out) -> SearchResp:
        """Combine one query's ``(ranked hits, num_scored, num_found,
        facets)`` outputs, one per process, into its response — the one
        merge for every tier (riot's collect, engine.go:557-630)."""
        rank, is_wand = plan[2], plan[5]
        per_view, num_scored, num_found, facets = [], 0, 0, None
        for hits, n_scored, n_found, fc in outs:
            per_view.append(hits)
            num_scored += n_scored
            num_found += n_found
            facets = merge_facets(facets, fc)
        if req.facets:
            resp.facets = {c: dict(sorted((facets or {}).get(c, {}).items()))
                           for c in req.facets}
        resp.timeout = timed_out
        if req.count_docs_only:
            resp.num_docs = num_found
            return resp
        if req.orderless:
            # skip ranking entirely (reference indexer_worker.go:75-113)
            resp.docs = [h for hits in per_view for h in hits]
            resp.num_docs = len(resp.docs)
            return resp
        resp.docs = merge_ranked(per_view, rank)
        # WAND: num_docs = docs actually SCORED (pruned blocks never counted)
        resp.num_docs = num_found if is_wand else num_scored
        return resp


def _run_view(view: ShardData, items) -> list:
    """Planned queries ``[(method, kwargs, rank, keep, count_only,
    orderless)]`` on one process's view, each one kernel call plus one
    :func:`rank_hits`: ``[(ranked hits, num_scored, num_found, facets)]``."""
    out = []
    for method, kwargs, rank, keep, count_only, orderless in items:
        res = getattr(view, method)(**kwargs)
        facets = res[2] if len(res) > 2 else None
        ranked, n_scored = ([], 0) if count_only else rank_hits(
            res[0], rank, view, keep, orderless)
        out.append((ranked, n_scored, res[1], facets))
    return out


class LocalSearcher(_SearcherBase):
    """In-process serving: one view over every shard."""

    def __init__(self, index_dir: str, hydrate: bool = False, tokenizer_factory=None):
        super().__init__(index_dir, hydrate, tokenizer_factory)
        # drop the old view before loading the new one (reload): a process
        # never holds two
        self.view = None
        self.view = ShardData(index_dir, self._shard_universe(), self.opts,
                              hydrate, self._tomb)
        self._count_removed()

    def reload(self):
        """Re-open the index in place: new generations (add_docs), fresh
        tombstones (remove_docs), compactions and updated global stats
        become visible without recreating the searcher — the rebuild's
        answer to riot's always-live in-process engine (searchers here
        are point-in-time snapshots by design; reload advances the
        snapshot).

        NOT safe under concurrent searches from other threads (state is
        replaced in place) — callers coordinate; the HTTP facade holds
        its write lock across mutate+reload."""
        self.__init__(self.index_dir, self.hydrate, self._tok_factory)

    def _df(self, term):
        rng = self.view.term_range.get(term)
        return rng[2] if rng else 0

    def _run(self, items, timeout_ms):
        return [_run_view(self.view, items)], False

    def _removed(self, tombstones):
        return [self.view.removed(tombstones)]


def merge_facets(acc, fc):
    """Shard/node facet-count merge: per-column, per-value summation (the
    same merge a multi-node deployment applies at the coordinator)."""
    if fc is None:
        return acc
    if acc is None:
        acc = {}
    for col, d in fc.items():
        tgt = acc.setdefault(col, {})
        for v, n in d.items():
            tgt[v] = tgt.get(v, 0) + n
    return acc


# --------------------------------------------------------------------------- #
# forward-table dump helpers — S5 (/root/reference/riot.go:120-180)
# --------------------------------------------------------------------------- #
def _forward_dataset(index_dir: str, columns=None):
    import glob

    import ray.data as rd

    files = sorted(glob.glob(os.path.join(index_dir, "forward", "part=*.parquet")))
    return rd.read_parquet(files, columns=columns)


def all_doc_ids(index_dir: str):
    """GetDBAllIds analog: Dataset of (doc_id) over the forward table."""
    return _forward_dataset(index_dir, columns=["doc_id"])


def all_docs(index_dir: str):
    """GetDBAllDocs analog: the full forward table as a Dataset."""
    return _forward_dataset(index_dir)


def has_doc(index_dir: str, doc_id: str) -> bool:
    """HasDocDB analog (driver-side point lookup: crc-routed part file)."""
    import zlib

    opts = EngineOpts.from_json_dict(load_stats(index_dir)["opts"])
    part = zlib.crc32(doc_id.encode()) % opts.num_parts
    f = os.path.join(index_dir, "forward", f"part={part:05d}.parquet")
    if not os.path.exists(f):
        return False
    t = pq.read_table(f, columns=["doc_id"])
    return bool(pa.compute.any(pa.compute.equal(t["doc_id"], doc_id)).as_py())


# --------------------------------------------------------------------------- #
# replicated serving: N actors each owning the FULL index, round-robin
# routing — one RPC per query (vs ActorSearcher's per-shard fan-out).
# The right mode when the index fits one node's RAM and QPS matters; the
# sharded fan-out is the right mode when it doesn't (100TB-scale).
# Mirrors riot's multi-replica deployments (/root/reference/docs/en/
# distributed_indexing_and_search.md).
# --------------------------------------------------------------------------- #
def _make_replica():
    import ray

    @ray.remote
    class Replica:
        def __init__(self, index_dir, hydrate, tokenizer_factory):
            self.searcher = LocalSearcher(index_dir, hydrate, tokenizer_factory)

        def search(self, req):
            return self.searcher.search(req)

        def search_many(self, reqs):
            # LocalSearcher's batched path: distinct plans execute once
            return self.searcher.search_many(reqs)

        def reload(self):
            self.searcher.reload()

        def ping(self, msg: int = 1) -> int:
            # HeartBeat echo (reference net/grpc/grpc.go:84-87)
            return msg

    return Replica


class ReplicatedSearcher:
    def __init__(self, index_dir: str, replicas: int = 2, hydrate: bool = False,
                 num_cpus_per_actor: float = 1.0, tokenizer_factory=None):
        replicas = max(1, min(replicas, _cpu_actor_cap(num_cpus_per_actor)))
        self.index_dir, self.hydrate = index_dir, hydrate
        self._num_cpus_per_actor = num_cpus_per_actor
        self._tok_factory = tokenizer_factory
        self.actors = _spawn_actors(
            _make_replica(), num_cpus_per_actor,
            [(index_dir, hydrate, tokenizer_factory)] * replicas,
        )
        self._rr = 0

    def _next(self):
        a = self.actors[self._rr % len(self.actors)]
        self._rr += 1
        return a

    def search(self, req: SearchReq) -> SearchResp:
        import ray

        return ray.get(self._next().search.remote(req))

    def search_async(self, req: SearchReq):
        """Returns an ObjectRef — callers pipeline many queries in flight."""
        return self._next().search.remote(req)

    def reload(self):
        """Advance every replica to the index's current on-disk state."""
        import ray

        ray.get([a.reload.remote() for a in self.actors])

    def restart_replica(self, i: int):
        """Tear down and recreate replica ``i`` from current disk state —
        the HeartbeatMonitor's restart callback for a replica that is past
        Ray's own restart budget or alive-but-wedged (the case riot's
        net/heartb/heart.go:100-114 restart command covers)."""
        import ray

        # kill first: the new replica may need the old one's CPU before it
        # can load and answer the spawn's ping
        try:
            ray.kill(self.actors[i], no_restart=True)
        except Exception:
            pass
        self.actors[i] = _spawn_actors(
            _make_replica(), self._num_cpus_per_actor,
            [(self.index_dir, self.hydrate, self._tok_factory)],
        )[0]

    def attach_heartbeats(self, monitor, registry=None,
                          service: str = "riot-search",
                          ttl_s: float | None = None):
        """Register every replica in the service registry (etcd analog)
        and wire it into ``monitor`` so missed heartbeats trigger
        :meth:`restart_replica`.  Returns the instance names used."""
        from .discovery import DEFAULT_TTL_S

        names = []
        for i, a in enumerate(self.actors):
            name = f"replica-{i}"
            meta = {"index_dir": self.index_dir, "slot": i}
            if registry is not None:
                registry.register.remote(service, name, meta,
                                         ttl_s or DEFAULT_TTL_S)
            monitor.watch(
                name,
                ping=lambda msg, i=i: self.actors[i].ping.remote(msg),
                restart=lambda i=i: self.restart_replica(i),
                meta=meta,
            )
            names.append(name)
        return names

    def search_many(self, reqs: list) -> list:
        """Round-robin a batch across replicas, one RPC per replica."""
        import ray

        n = len(self.actors)
        buckets = [reqs[i::n] for i in range(n)]
        futs = [
            a.search_many.remote(b) for a, b in zip(self.actors, buckets) if b
        ]
        parts = ray.get(futs)
        out = [None] * len(reqs)
        fi = 0
        for i, b in enumerate(buckets):
            if not b:
                continue
            for j, r in enumerate(parts[fi]):
                out[i + j * n] = r
            fi += 1
        return out

    def shutdown(self):
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []


# --------------------------------------------------------------------------- #
# distributed wire merge by (ts desc, id desc): riot's gRPC scatter-gather
# (/root/reference/net/grpc/search.go:40-65,95-99,151-175).  Each node owns
# an independent index; a node reply is the node's score-ranked top-M
# re-sorted by (Attri.Ts desc, Id desc — STRING comparison); the global
# merge concatenates replies, re-sorts by the same key, and — only when
# more than one node replied AND the pool exceeds maxOutputs — truncates to
# maxOutputs-1 (`end := maxOutputs - 1`, search.go:162-165: a faithful
# off-by-one of the reference wire, kept deliberately).
# --------------------------------------------------------------------------- #
def _hit_ts(hit, ts_field: str) -> int:
    """Attri.Ts of a hit: the hydrated forward column `ts_field`, 0 when
    absent (riot's zero-valued Attri.Ts for docs indexed without Attri)."""
    if hit.fields and ts_field in hit.fields:
        v = hit.fields[ts_field]
        return int(v) if v is not None else 0
    return 0


def ts_sort_hits(hits: list, ts_field: str = "ts") -> None:
    """In-place rpcSlice order (search.go:40-65): Ts desc, then Id desc as
    Go STRING comparison ("99" > "100") — NOT numeric.  A descending string
    key can't be negated inside one tuple key, so use a stable two-pass:
    secondary key (id desc) first, then primary (ts desc)."""
    hits.sort(key=lambda h: h.doc_id, reverse=True)
    hits.sort(key=lambda h: _hit_ts(h, ts_field), reverse=True)


def ts_node_reply(resp: SearchResp, max_outputs: int,
                  ts_field: str = "ts") -> SearchResp:
    """Per-node rpcSearch post-processing (search.go:80-107): re-sort the
    engine's score-ranked docs by (ts desc, id desc) and truncate to
    maxOutputs.  maxOutputs<=0 keeps everything."""
    ts_sort_hits(resp.docs, ts_field)
    if max_outputs > 0 and len(resp.docs) > max_outputs:
        resp.docs = resp.docs[:max_outputs]
    resp.num_docs = len(resp.docs)
    return resp


def merge_dist_ts(replies: list, max_outputs: int,
                  ts_field: str = "ts") -> SearchResp:
    """wgGrpc global merge (search.go:151-175).  With ONE reply it passes
    through untouched; with several it concatenates, re-sorts by
    (ts desc, id desc) and truncates to maxOutputs-1 when the pool
    exceeds maxOutputs — exactly maxOutputs docs are NOT truncated."""
    if len(replies) == 1:
        return replies[0]
    docs = [h for r in replies for h in r.docs]
    ts_sort_hits(docs, ts_field)
    if max_outputs > 0 and len(docs) > max_outputs:
        docs = docs[: max_outputs - 1]
    out = SearchResp(tokens=replies[0].tokens if replies else ())
    out.docs = docs
    out.num_docs = len(docs)
    out.timeout = any(r.timeout for r in replies)
    fc = None
    for r in replies:
        fc = merge_facets(fc, r.facets)
    out.facets = fc
    return out


class DistSearcher:
    """riot's distributed deployment shape: N independent nodes, each a
    full engine over its OWN document partition (separate index dirs),
    queries fanned to every node and merged by the (ts desc, id desc)
    wire order above.  Nodes are crash-restartable replica actors
    (read-only serving state), the rebuild analog of the gRPC peers in
    /root/reference/net/grpc/search.go:140-149.

    ``hydrate=True`` is forced: the merge key needs the forward-stored
    ``ts_field`` column (index with ``meta_cols=(..., ts_field)``)."""

    def __init__(self, index_dirs: list, ts_field: str = "ts",
                 num_cpus_per_actor: float = 1.0, tokenizer_factory=None):
        self.ts_field = ts_field
        self.nodes = _spawn_actors(
            _make_replica(), num_cpus_per_actor,
            [(d, True, tokenizer_factory) for d in index_dirs],
        )

    def search(self, req: SearchReq) -> SearchResp:
        import ray

        max_outputs = req.rank_opts.max_outputs if req.rank_opts else 0
        futs = [n.search.remote(req) for n in self.nodes]
        replies = [
            ts_node_reply(r, max_outputs, self.ts_field) for r in ray.get(futs)
        ]
        return merge_dist_ts(replies, max_outputs, self.ts_field)

    def search_many(self, reqs: list) -> list:
        """Batched scatter-gather: ONE RPC per node for the whole batch
        (each node's LocalSearcher dedupes distinct plans), then the wire
        merge per query.

        Duplicate queries in a batch may ALIAS one SearchResp inside a
        node's reply (pickle preserves identity); ts_node_reply then runs
        twice on that object — safe because re-sorting is idempotent and
        duplicates share a plan only when their max_outputs match, so the
        re-truncation is a no-op."""
        import ray

        per_node = ray.get([n.search_many.remote(reqs) for n in self.nodes])
        out = []
        for qi, req in enumerate(reqs):
            m = req.rank_opts.max_outputs if req.rank_opts else 0
            replies = [
                ts_node_reply(node_out[qi], m, self.ts_field)
                for node_out in per_node
            ]
            out.append(merge_dist_ts(replies, m, self.ts_field))
        return out

    def reload(self):
        """Advance every node to its index's current on-disk state."""
        import ray

        ray.get([n.reload.remote() for n in self.nodes])

    def shutdown(self):
        import ray

        for n in self.nodes:
            ray.kill(n)
        self.nodes = []


# --------------------------------------------------------------------------- #
# batch query API: Dataset of queries -> Dataset of ranked results
# --------------------------------------------------------------------------- #
class _BatchQueryStage:
    """Actor-pool stage: one LocalSearcher per actor (index loaded once in
    __init__ — T2/T3), each batch of query rows searched in-process."""

    def __init__(self, index_dir: str, max_outputs: int, hydrate: bool,
                 tokenizer_factory=None):
        self.searcher = LocalSearcher(
            index_dir, hydrate=hydrate, tokenizer_factory=tokenizer_factory
        )
        self.max_outputs = max_outputs

    def __call__(self, batch):
        qids = batch["query_id"].to_pylist()
        texts = batch["text"].to_pylist()
        resps = self.searcher.search_many([
            SearchReq(text=t or "", rank_opts=RankOpts(max_outputs=self.max_outputs))
            for t in texts
        ])
        out_q, out_rank, out_doc, out_score = [], [], [], []
        for qid, resp in zip(qids, resps):
            for r, h in enumerate(resp.docs, 1):
                out_q.append(qid)
                out_rank.append(r)
                out_doc.append(h.doc_id)
                out_score.append(h.bm25)
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "rank": pa.array(out_rank, pa.int64()),
                "doc_id": pa.array(out_doc, pa.string()),
                "bm25": pa.array(out_score, pa.float64()),
            }
        )


def search_dataset(
    index_dir: str,
    queries_ds,
    max_outputs: int = 10,
    concurrency: int = 4,
    batch_size: int = 256,
    hydrate: bool = False,
    tokenizer_factory=None,
):
    """Batch search: a Dataset with (query_id:int64, text:string) ->
    Dataset of (query_id, rank, doc_id, bm25).  Each actor holds the full
    index read-only; queries stream through the pool — the batch analog of
    riot's query fan-out, inverted (queries move, index stays).

    The pool autoscales from 1 to ``concurrency`` actors, as every Ray Data
    actor pool in riot_ray does.  The query table is materialized first:
    a pool's first actor starts with the plan and holds its CPU, so on a
    one-CPU cluster the tasks that read or repartition the queries would
    never run."""
    return queries_ds.materialize().map_batches(
        _BatchQueryStage,
        fn_constructor_kwargs={
            "index_dir": index_dir,
            "max_outputs": max_outputs,
            "hydrate": hydrate,
            "tokenizer_factory": tokenizer_factory,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, concurrency),
    )


# --------------------------------------------------------------------------- #
# actor pool
# --------------------------------------------------------------------------- #
def _make_shard_worker():
    import ray

    @ray.remote
    class ShardWorker:
        """One view over a slice of shards, loaded once in __init__
        (actor-pool pattern, SURVEY.md §2.3 T2/T3)."""

        def __init__(self, index_dir, shard_ids, hydrate):
            # EVERYTHING that can advance after construction is re-derived
            # from the index dir here: a crash-restarted actor replays its
            # ORIGINAL ctor args, so anything else would silently revert
            # on restart.  shard_ids is a slice of the FIXED universe
            # (restart-safe); shards without a segment dir yet are picked
            # up by the next reload()/restart once the dir appears.
            # Tombstones advance via remove_docs: re-reading them means a
            # restarted worker may be NEWER than the driver's snapshot
            # until the next reload() — the safe direction (a deleted doc
            # never resurrects; the reverse would silently undo removals).
            self._args = (index_dir, list(shard_ids), hydrate)
            opts = EngineOpts.from_json_dict(load_stats(index_dir)["opts"])
            self.view = None  # reload: drop the old view first
            self.view = ShardData(index_dir, shard_ids, opts, hydrate,
                                  _load_tombstones(index_dir))

        def reload(self):
            """Re-open this worker's FIXED shard slice (new generations /
            tombstones / compactions / newly materialized shard dirs)
            without restarting the actor."""
            self.__init__(*self._args)

        def ping(self, msg: int = 1) -> int:
            # HeartBeat echo (reference net/grpc/grpc.go:84-87)
            return msg

        def run_many(self, items):
            return _run_view(self.view, items)

        def removed(self, tombstones):
            return self.view.removed(tombstones)

    return ShardWorker


def _spawn_actors(actor_cls, num_cpus: float, ctor_args: list) -> list:
    """One crash-restartable actor per ctor-args tuple, returned once every
    one has loaded.  Serving state is read-only (loaded from the index dir
    in each actor's __init__), so a crashed actor restarts in place and
    interrupted calls replay — the analog of riot's heartbeat+restart
    liveness layer (reference net/heartb/heart.go:48-114).  The wait
    makes a searcher a snapshot of the index as of its construction, not of
    whenever each actor's process came up: a fast add_docs right after
    construction otherwise reaches the slower actors first."""
    import ray

    actors = [
        actor_cls.options(
            num_cpus=num_cpus, max_restarts=3, max_task_retries=-1
        ).remote(*args)
        for args in ctor_args
    ]
    ray.get([a.ping.remote() for a in actors])
    return actors


def _cpu_actor_cap(num_cpus_per_actor: float) -> int:
    """Max actors the CURRENT cluster can host — creating more than this
    leaves permanently-pending actors whose method calls block forever (the
    same failure mode as a fixed Ray Data actor pool larger than the
    cluster)."""
    import ray

    try:
        cpus = ray.cluster_resources().get("CPU") if ray.is_initialized() else None
    except Exception:
        cpus = None
    if not cpus:
        return 1 << 30  # unknown: don't cap (ray.init may still be pending)
    return max(1, int(float(cpus) / max(float(num_cpus_per_actor), 1e-9)))


class ActorSearcher(_SearcherBase):
    """Sharded fan-out: one ``ShardWorker`` actor per slice of the shard
    universe; a query is one ``run_many`` RPC per actor."""

    def __init__(self, index_dir: str, num_actors: int = 4, hydrate: bool = False,
                 num_cpus_per_actor: float = 1.0, tokenizer_factory=None):
        super().__init__(index_dir, hydrate, tokenizer_factory)
        self.termstats = TermStats(index_dir)
        # slice the FIXED shard universe, not the shard dirs that happen to
        # exist today: a crash-restarted worker reconstructs the identical
        # slice and reload() needs no re-slicing
        universe = self._shard_universe()
        num_actors = max(1, min(num_actors, len(universe),
                                _cpu_actor_cap(num_cpus_per_actor)))
        self.actors = _spawn_actors(
            _make_shard_worker(), num_cpus_per_actor,
            [(index_dir, universe[i::num_actors], hydrate) for i in range(num_actors)],
        )
        self._count_removed()

    def reload(self):
        """Advance every worker (and the driver's stats/termstats/
        tombstones) to the index's current on-disk state — no actor
        restarts, no downtime between add_docs/remove_docs/compact and
        serving.  Shard slices are fixed universe slices, so newly
        materialized shard dirs are simply picked up by their owner.

        Not transactional: driver state advances first, then workers; if
        a worker reload raises (actor past max_restarts), the searcher is
        torn — retry reload() or rebuild the searcher."""
        import ray

        _SearcherBase.__init__(self, self.index_dir, self.hydrate,
                               self._tok_factory)
        self.termstats = TermStats(self.index_dir)
        ray.get([a.reload.remote() for a in self.actors])
        self._count_removed()

    def _df(self, term):
        return self.termstats.get(term, 0)

    def _run(self, items, timeout_ms):
        import ray

        futs = [a.run_many.remote(items) for a in self.actors]
        timed_out = False
        if timeout_ms and timeout_ms > 0:
            ready, not_ready = ray.wait(
                futs, num_returns=len(futs), timeout=timeout_ms / 1000.0
            )
            timed_out = bool(not_ready)  # partial results + Timeout flag
            futs = ready
        return ray.get(futs), timed_out

    def _removed(self, tombstones):
        import ray

        return ray.get([a.removed.remote(tombstones) for a in self.actors])

    def shutdown(self):
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []
