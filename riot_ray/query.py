"""Query serving: the per-process query view and its kernels.

Doc-sharded serving (riot's architecture — /root/reference/engine.go:785-799
fans every query to all shards, per-shard top-(offset+k), global merge) with
globally-consistent BM25 statistics (NumShards=1 semantics, SURVEY.md
§2.9.1): the driver holds the global term->df dictionary and ships per-token
float32 idf values with each query, so shards never need cross-shard stats.
A process loads the shards it hosts as ONE :class:`ShardData` view (shards
own ascending doc ranges, so each term's blocks in shard order form one
doc-sorted list) and runs each query once per view; the top-(offset+k) cut
and the merge then run per process instead of per shard, with the same
results.

BM25 replicates /root/reference/core/indexer.go:523-547 operation-for-
operation in float32 (idf computed via log2 in float64 then cast, exactly
like Go's ``float32(math.Log2(...))``), accumulated per query token in token
order — the rank-identity contract.  ``score_dtype="float64"`` switches the
same kernel to f64 for DuckDB-oracle comparison.

The four ``ShardData`` kernels (``search``, ``phrase_search``,
``logic_search``, ``search_wand``) and :func:`rank_hits` share one copy of
each step of a query:

* :func:`lookup_sorted` — the sorted membership probe (AND intersection,
  tombstones, allowlists, WAND's probe of the other terms);
* ``ShardData._and_candidates_rows`` — the AND intersection (also the
  Must set of a logic query), fetching each term's postings once;
* ``ShardData._live`` — the tombstone + allowlist filter, shrinking the
  candidates and the per-candidate columns they carry in step;
* ``ShardData._bm25`` — the BM25 accumulator;
* :func:`top_k` — the cut at the k boundary (rank and WAND's running top-k);
* :func:`gather_ranges` — the multi-range gather (positions, WAND blocks);
* :func:`_cache_put` — the bounded FIFO insert of the per-term caches.

Kernels return a :class:`HitBlock` of internal doc numbers; doc-id strings
are resolved once, in :func:`rank_hits`, for the hits it keeps.
"""

from __future__ import annotations

import glob
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .codecs import decode_varbyte, delta_decode_blocks
from .config import DOCIDS_INDEX, LOCS_INDEX, EngineOpts, shard_of_part
from .types import Logic, RankOpts, ScoredHit, SearchReq, SearchResp, sort_hits


# --------------------------------------------------------------------------- #
# BM25 (conformance-exact)
# --------------------------------------------------------------------------- #
def bm25_idf(n_docs: int, df: int, dtype=np.float32):
    # Go: float32(math.Log2(float64(numDocs)/float64(df) + 1))
    return dtype(np.log2(float(n_docs) / float(df) + 1.0))


def bm25_term_scores(idf, freq, d, avgdl, k1, b, dtype=np.float32):
    """idf * freq * (k1+1) / (freq + k1*(1-b+b*d/avgdl)) with every
    intermediate rounded at the target dtype, mirroring Go float32 ops
    left-to-right (/root/reference/core/indexer.go:536-546)."""
    one = dtype(1.0)
    k1 = dtype(k1)
    b = dtype(b)
    avgdl = dtype(avgdl)
    idf = dtype(idf)
    freq = np.asarray(freq).astype(dtype, copy=False)
    d = np.asarray(d).astype(dtype, copy=False)
    denom = freq + k1 * (one - b + b * d / avgdl)
    return idf * freq * (k1 + one) / denom


def bm25_term_scores_prenorm(idf, freq, norm, k1, dtype=np.float32):
    """Same kernel with the length norm ``k1*(1-b+b*d/avgdl)`` precomputed
    per doc (:meth:`ShardData.bm25_norms`) — elementwise op order is
    unchanged, so results are bit-identical to :func:`bm25_term_scores`."""
    one = dtype(1.0)
    k1 = dtype(k1)
    idf = dtype(idf)
    freq = np.asarray(freq).astype(dtype, copy=False)
    denom = freq + norm
    return idf * freq * (k1 + one) / denom


def default_scoring(hit: ScoredHit, fields) -> tuple:
    """RankByBM25 (/root/reference/types/scoring_criteria.go:27-33)."""
    return (hit.bm25,)


# --------------------------------------------------------------------------- #
# shared shard-query primitives
# --------------------------------------------------------------------------- #
def lookup_sorted(sorted_arr: np.ndarray, x: np.ndarray):
    """(positions, hit mask) of ``x`` in a sorted array — the one
    shared implementation of the clamped-searchsorted membership idiom
    (empty-array safe; misses point at position 0 with hit=False)."""
    if len(sorted_arr) == 0:
        return np.zeros(len(x), np.int64), np.zeros(len(x), bool)
    pos = np.minimum(np.searchsorted(sorted_arr, x), len(sorted_arr) - 1)
    return pos, sorted_arr[pos] == x


def gather_ranges(offs: np.ndarray, idx: np.ndarray):
    """(rows, lens): the rows ``offs[i]:offs[i+1]`` of every ``i`` in
    ``idx``, concatenated in ``idx`` order, and each range's length — the
    vectorized multi-range gather (no per-range Python loop)."""
    starts = offs[idx]
    lens = offs[idx + 1] - starts
    shift = np.repeat(starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
    return shift + np.arange(int(lens.sum()), dtype=np.int64), lens


def top_k(scores: np.ndarray, ids_of, k: int):
    """(indices, doc ids) of the top ``k`` of ``scores`` (all of them when
    ``k`` is 0) in (score desc, doc_id asc) order.  An O(n) select-kth
    keeps every candidate tied with or above the k-th largest score; only
    that boundary set gets its doc-id strings (``ids_of(indices)``) and the
    exact two-key sort, so the cut equals a full sort's top slice."""
    n = len(scores)
    if 0 < k < n:
        kth = np.partition(scores, n - k)[n - k]
        sel = np.flatnonzero(scores >= kth)
    else:
        sel = np.arange(n)
    ids = ids_of(sel)
    o = np.argsort(ids, kind="stable")                 # doc_id asc
    o = o[np.argsort(-scores[sel][o], kind="stable")]  # score desc
    if k > 0:
        o = o[:k]
    return sel[o], ids[o]


def _cache_put(cache: dict, cap: int, key, value):
    """Insert into a bounded per-term cache, first evicting the oldest
    entry (FIFO, insertion order) once it holds more than ``cap``."""
    if len(cache) > cap:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


# --------------------------------------------------------------------------- #
# proximity DP — semantics of computeTokenProximity
# (/root/reference/core/indexer.go:723-813); new implementation
# --------------------------------------------------------------------------- #
def _sparse_levels(arr: np.ndarray) -> list:
    """Doubling-max levels of a sparse table over ``arr`` (O(n log n) build,
    reusable across queries — see :func:`_range_max`)."""
    levels = [arr]
    while (1 << len(levels)) <= len(arr):
        prev = levels[-1]
        step = 1 << (len(levels) - 1)
        levels.append(np.maximum(prev[: len(prev) - step], prev[step:]))
    return levels


def _range_max(levels: list, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized max over ``arr[a_i:b_i)`` for many (possibly overlapping)
    ranges with ``b > a``: the sparse table (``_sparse_levels``) answers
    every query as max of two aligned windows — the standard RMQ
    construction, fully numpy (no per-range Python loop)."""
    w = (b - a).astype(np.int64)
    # floor(log2(w)) exactly via frexp: w = m * 2^e with 0.5 <= m < 1
    lev = (np.frexp(w.astype(np.float64))[1] - 1).astype(np.int64)
    out = np.empty(len(a), np.float64)
    for j, L in enumerate(levels):
        m = lev == j
        if m.any():
            step = 1 << j
            out[m] = np.maximum(L[a[m]], L[b[m] - step])
    return out


def token_proximity(locations, tokens):
    """Minimize sum(|P_{i+1} - P_i - bytelen(token_i)|) over one position
    choice per token; two-candidate DP transition.  Returns
    (min_proximity, chosen position per token)."""
    k = len(tokens)
    if k == 0:
        return -1, ()
    if k == 1:
        return 0, (locations[0][0],)
    cur_locs = locations[0]
    cur_min = [0] * len(cur_locs)
    path = [None] * k
    for i in range(1, k):
        nxt = locations[i]
        nxt_min = [-1] * len(nxt)
        path[i] = [0] * len(nxt)
        tok_len = len(tokens[i - 1].encode("utf-8"))
        i_next = 0
        for i_cur, cur_loc in enumerate(cur_locs):
            if cur_min[i_cur] == -1:
                continue
            while i_next + 1 < len(nxt) and nxt[i_next + 1] < cur_loc:
                i_next += 1
            for to in (i_next, i_next + 1):
                if to >= len(nxt):
                    continue
                value = cur_min[i_cur] + abs(nxt[to] - cur_loc - tok_len)
                if nxt_min[to] == -1 or value < nxt_min[to]:
                    nxt_min[to] = value
                    path[i][to] = i_cur
        cur_locs = nxt
        cur_min = nxt_min
    best, cursor = -1, 0
    for i, v in enumerate(cur_min):
        if v == -1:
            continue
        if best == -1 or v < best:
            best, cursor = v, i
    out = [0] * k
    for i in range(k - 1, -1, -1):
        if i != k - 1:
            cursor = path[i + 1][cursor]
        out[i] = locations[i][cursor]
    return best, tuple(out)


# packed key = value * PACK + within-doc index: PACK bounds a term's
# positions within ONE doc (2^24), INF the accumulated proximity value
# (2^36 — positions are i4, k is small; values clamp there defensively).
# Sentinel INF*PACK = 2^60 fits int64 with headroom.
_PROX_INF = np.int64(1) << 36
_PROX_PACK = np.int64(1) << 24


def token_proximity_block(flats: list, tokens) -> tuple:
    """:func:`token_proximity` for ALL candidate docs at once — every DP
    layer is one vectorized pass over the concatenated position arrays
    (the per-doc Python loop was the proximity path's dominant cost,
    ~8 us/doc).

    ``flats[t] = (vals int64, offs int64[n+1])`` — token t's positions for
    each of the n docs, ascending within a doc.  Returns ``(prox int64[n],
    chosen list of k int64[n])``: the minimal proximity per doc (-1 where
    any token has no positions — the demoted case — or, defensively,
    where no path exists) and the chosen position per token per doc.

    Semantics are pinned to the scalar DP by a hypothesis equality test:
    the two-candidate transition with the ``max(#(P_next < pos) - 1, 0)``
    quirk, first-reacher wins on ties (packed (value, within-doc index)
    keys make ``np.minimum.at`` reproduce the scalar loop's strict-<
    update order)."""
    k = len(tokens)
    n = len(flats[0][1]) - 1 if k else 0
    if k == 0 or n == 0:
        return np.full(n, -1, np.int64), []
    lens = [offs[1:] - offs[:-1] for _vals, offs in flats]
    active = lens[0] > 0
    for ln in lens[1:]:
        active &= ln > 0
    if k == 1:
        vals, offs = flats[0]
        prox = np.where(active, 0, -1).astype(np.int64)
        chosen = np.zeros(n, np.int64)
        chosen[active] = vals[offs[:-1][active]]
        return prox, [chosen]

    # packed (value, within-doc index) keys require every per-doc position
    # count < _PROX_PACK (2^24); a pathological doc would silently corrupt
    # the tie-break ordering — hard-fail like dup_spans' analogous pack
    for ln in lens:
        if len(ln) and int(ln.max()) >= _PROX_PACK:
            raise ValueError(
                f"token_proximity_block: a document has >= {int(_PROX_PACK)} "
                "positions for one term; packed-key DP would corrupt — "
                "use token_proximity (scalar) for this document"
            )

    # positions shifted into disjoint per-doc ranges so ONE searchsorted
    # answers every doc's "# next-layer positions < this position" count
    stride = max(int(v.max()) + 2 if len(v) else 1 for v, _ in flats)

    def doc_of(offs):
        return np.repeat(np.arange(n, dtype=np.int64), offs[1:] - offs[:-1])

    cur_vals, cur_offs = flats[0]
    cur_doc = doc_of(cur_offs)
    # packed running cost: value * PACK + within-doc index of the BEST
    # predecessor is carried separately (paths); here value only
    cur_min = np.zeros(len(cur_vals), np.int64)
    paths = [None]
    for i in range(1, k):
        nxt_vals, nxt_offs = flats[i]
        nxt_doc = doc_of(nxt_offs)
        tok_len = len(tokens[i - 1].encode("utf-8"))
        count = np.searchsorted(
            nxt_vals + nxt_doc * stride, cur_vals + cur_doc * stride
        ) - nxt_offs[cur_doc]
        j0 = np.maximum(count - 1, 0)
        len_d = (nxt_offs[1:] - nxt_offs[:-1])[cur_doc]
        packed = np.full(len(nxt_vals), _PROX_INF * _PROX_PACK, np.int64)
        cur_idx = (np.arange(len(cur_vals), dtype=np.int64)
                   - cur_offs[cur_doc])
        reach = cur_min < _PROX_INF
        for cand in (j0, j0 + 1):
            ok = reach & (cand < len_d)
            if not ok.any():
                continue
            to = nxt_offs[cur_doc[ok]] + cand[ok]
            value = cur_min[ok] + np.abs(
                nxt_vals[to] - cur_vals[ok] - tok_len)
            value = np.minimum(value, _PROX_INF - 1)
            np.minimum.at(packed, to, value * _PROX_PACK + cur_idx[ok])
        paths.append(packed % _PROX_PACK)
        cur_min = packed // _PROX_PACK
        cur_vals, cur_offs, cur_doc = nxt_vals, nxt_offs, nxt_doc

    # best of the last layer per doc, first-index tie-break (packed again)
    last_idx = (np.arange(len(cur_vals), dtype=np.int64)
                - cur_offs[cur_doc])
    best = np.full(n, _PROX_INF * _PROX_PACK, np.int64)
    fin = cur_min < _PROX_INF
    np.minimum.at(best, cur_doc[fin],
                  cur_min[fin] * _PROX_PACK + last_idx[fin])
    prox = best // _PROX_PACK
    reached = active & (prox < _PROX_INF)
    prox = np.where(reached, prox, -1)
    # vectorized backtrack: k gathers walk the path arrays right-to-left
    chosen = [np.zeros(n, np.int64) for _ in range(k)]
    cursor = np.where(reached, best % _PROX_PACK, 0)
    docs = np.arange(n, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        vals, offs = flats[i]
        at = np.minimum(offs[:-1] + cursor, np.maximum(offs[1:] - 1, 0))
        ch = np.zeros(n, np.int64)
        ch[reached] = vals[at[reached]]
        chosen[i] = ch
        if i:
            pat = np.zeros(n, np.int64)
            pat[reached] = paths[i][at[reached]]
            cursor = pat
    return prox, chosen


class _SnippetSeq:
    """Lazy per-candidate snippet tuples over the block DP's chosen-position
    columns — materialized ON ACCESS (the rank path touches only the top-k;
    building n python tuples up front was pure waste)."""

    __slots__ = ("cols", "prox")

    def __init__(self, cols, prox):
        self.cols = cols
        self.prox = prox

    def __len__(self):
        return len(self.prox)

    def __getitem__(self, i):
        if self.prox[i] == -1:
            return ()
        return tuple(int(c[i]) for c in self.cols)


class _TokenLocsSeq:
    """Lazy per-candidate full position-list tuples over the flat
    (vals, offs) arrays (same on-access contract as :class:`_SnippetSeq`)."""

    __slots__ = ("flats", "prox")

    def __init__(self, flats, prox):
        self.flats = flats
        self.prox = prox

    def __len__(self):
        return len(self.prox)

    def __getitem__(self, i):
        if self.prox[i] == -1:
            return ()
        return tuple(
            tuple(v[o[i]: o[i + 1]].tolist()) for v, o in self.flats
        )


# --------------------------------------------------------------------------- #
# hit block: column-oriented candidate set (replaces per-hit dicts so the
# default-scoring rank path is one vectorized argsort, not 2N allocations)
# --------------------------------------------------------------------------- #
class HitBlock:
    """Kernel output: internal doc numbers and their scores.  Doc-id
    strings are not carried; :func:`rank_hits` resolves them for the hits
    it keeps."""

    __slots__ = ("doc", "bm25", "proximity", "snippet", "token_locs")

    def __init__(self, doc, bm25, proximity=None, snippet=None, token_locs=None):
        self.doc = doc              # u64[n]
        self.bm25 = bm25            # f64[n]
        self.proximity = proximity  # i64[n] | None (locs mode)
        self.snippet = snippet      # list[tuple] | None
        self.token_locs = token_locs

    def __len__(self):
        return len(self.doc)

    @staticmethod
    def empty():
        return HitBlock(np.empty(0, np.uint64), np.empty(0, np.float64))

    def take(self, mask: np.ndarray) -> "HitBlock":
        idx = np.flatnonzero(mask)
        return HitBlock(
            self.doc[idx],
            self.bm25[idx],
            self.proximity[idx] if self.proximity is not None else None,
            [self.snippet[i] for i in idx] if self.snippet is not None else None,
            [self.token_locs[i] for i in idx] if self.token_locs is not None else None,
        )

    def hit_at(self, i: int, doc_id: str) -> ScoredHit:
        return ScoredHit(
            doc_id=doc_id,
            doc=int(self.doc[i]),
            bm25=float(self.bm25[i]),
            token_proximity=int(self.proximity[i]) if self.proximity is not None else -1,
            token_snippet_locs=self.snippet[i] if self.snippet is not None else (),
            token_locs=self.token_locs[i] if self.token_locs is not None else (),
        )


# --------------------------------------------------------------------------- #
# shard-resident data + lookup kernel
# --------------------------------------------------------------------------- #
_BLOCK_COLS = ["term", "n", "min_doc", "max_doc", "max_tf", "min_len", "docs_vb", "tfs_f32"]
_POS_COLS = ["pos_cnt_i32", "pos_i32"]


def _bytes_column(col) -> tuple:
    """(offsets int64[n+1], data uint8) of a binary column: row i's bytes
    are ``data[offs[i]:offs[i+1]]``, so a run of rows is ONE contiguous
    slice (no Python object per row)."""
    arr = col.cast(pa.large_binary()).combine_chunks()
    _validity, offs, data = arr.buffers()
    offs = np.frombuffer(offs, np.int64)[arr.offset: arr.offset + len(arr) + 1]
    return offs, np.frombuffer(data, np.uint8)


class ShardData:
    """The query view of the shards one process hosts: one term dict
    (block range and df) over packed block columns, docmeta, forward
    doc_id strings (and optional hydration / facet columns), all shards
    fused.  Read-only after load — no locks (riot needs RWMutex striping,
    /root/reference/core/indexer.go:36-52; we don't).

    Shards own contiguous ascending doc-u64 ranges (``shard_of_part``) and
    every varbyte block decodes on its own, so each term's blocks laid out
    in shard order form one doc-sorted posting list: a query runs once per
    view, not once per shard.  The shard stays the unit of build, files
    and placement; ids without a segment dir yet (a shard that has
    received no postings) load as nothing.  ``blk_shard`` and ``dm_off``
    keep each block's and each docmeta row's shard, for WAND's per-shard
    pruning and the per-shard removed-doc stats.  ``tombstones`` (doc
    u64s) are filtered out of every answer."""

    def __init__(self, index_dir: str, shard_ids, opts: EngineOpts, hydrate=False,
                 tombstones=()):
        from .store import read_segment

        self.opts = opts
        seg = os.path.join(index_dir, "segments")
        dirs = [(i, os.path.join(seg, f"shard={i:05d}")) for i in sorted(set(shard_ids))]
        dirs = [(i, d) for i, d in dirs if os.path.isdir(d)]
        self.shard_ids = [i for i, _ in dirs]
        tables, dms = [], []
        for _i, sdir in dirs:
            tables.append(read_segment(sdir, "blocks"))
            dms.append(read_segment(sdir, "docmeta", columns=["doc", "token_len"]))
        self.with_pos = bool(tables) and _POS_COLS[-1] in tables[0].column_names
        n_blocks = [t.num_rows for t in tables]
        # each term's blocks contiguous, in shard order (a stable sort);
        # reordered one column at a time, each shard's copy of a column
        # released once it is reordered
        order = pc.sort_indices(pa.chunked_array(
            [t["term"].cast(pa.string()) for t in tables], pa.string()))
        self.blk_shard = np.repeat(np.arange(len(dirs)), n_blocks)[order.to_numpy()]
        col = {}
        for c in _BLOCK_COLS + (_POS_COLS if self.with_pos else []):
            whole = pa.chunked_array([ch for t in tables for ch in t[c].chunks],
                                     tables[0].schema.field(c).type if tables
                                     else pa.large_binary())
            tables = [t.drop_columns([c]) for t in tables]
            col[c] = whole.take(order)
        self.blk_n = col["n"].to_numpy().astype(np.int64)
        self.blk_min = col["min_doc"].to_numpy().astype(np.uint64)
        self.blk_max = col["max_doc"].to_numpy().astype(np.uint64)
        self.blk_max_tf = col["max_tf"].to_numpy()
        self.blk_min_len = col["min_len"].to_numpy()
        self.docs_vb = _bytes_column(col.pop("docs_vb"))
        self.tfs_bin = _bytes_column(col.pop("tfs_f32"))
        if self.with_pos:
            self.pos_cnt_bin = _bytes_column(col.pop("pos_cnt_i32"))
            self.pos_bin = _bytes_column(col.pop("pos_i32"))
        term = col["term"].cast(pa.string()).combine_chunks()
        starts = np.flatnonzero(np.concatenate((
            [True], pc.not_equal(term[1:], term[:-1]).to_numpy(zero_copy_only=False),
        ))) if len(term) else np.empty(0, np.int64)
        ends = np.append(starts[1:], len(term))
        # df over the hosted shards = the sum of blk_n over the term's block
        # range, the same sum termstats/df.parquet is written from, so a view
        # over every shard holds the global df.  Exact because add_docs and
        # compact rebuild every replaced doc out of the segments (tombstoned
        # docs still count, as in termstats); an add that left replaced docs
        # in old blocks would have to subtract them here.
        df = (np.add.reduceat(self.blk_n, starts) if len(starts)
              else np.empty(0, np.int64))
        # the process's one term dictionary: term -> (first block, end, df)
        self.term_range: dict[str, tuple] = dict(zip(
            term.take(starts).to_pylist(), zip(starts.tolist(), ends.tolist(), df.tolist())))
        self.dm_off = np.cumsum([0] + [d.num_rows for d in dms])
        self.dm_doc = (np.concatenate([d["doc"].to_numpy() for d in dms]).astype(np.uint64)
                       if dms else np.empty(0, np.uint64))
        self.dm_len = (np.concatenate([d["token_len"].to_numpy() for d in dms])
                       if dms else np.empty(0, np.float32))
        self._check_disjoint()
        self.hydrate_cols: dict = {}
        self.tombstones = np.sort(np.asarray(tombstones, dtype=np.uint64))
        self._cache: dict[str, tuple] = {}
        self._fw_files: list[str] = []
        self._facet_cache: dict[str, tuple] = {}
        self._norm_cache: dict[tuple, np.ndarray] = {}
        self._ub_cache: dict[tuple, tuple] = {}
        self._pos_cache: dict[str, tuple] = {}
        self._id_sorted_ids = None  # fw_doc_id sorted by string (lazy)
        self._id_order = None
        self._load_forward(index_dir, opts, hydrate)

    def _check_disjoint(self):
        """Fusing is exact only if shard doc ranges ascend without overlap:
        the concatenated docmeta must be strictly increasing."""
        bad = np.flatnonzero(self.dm_doc[1:] <= self.dm_doc[:-1])
        if bad.size:
            a, b = (self.shard_ids[int(np.searchsorted(self.dm_off, j, side="right")) - 1]
                    for j in (bad[0], bad[0] + 1))
            raise ValueError(
                f"shards {a} and {b} overlap: doc {int(self.dm_doc[bad[0] + 1])} "
                f"follows doc {int(self.dm_doc[bad[0]])}; shard doc ranges must "
                "ascend with the shard id (config.shard_of_part)")

    def _load_forward(self, index_dir, opts, hydrate):
        files = []
        hosted = set(self.shard_ids)
        for f in sorted(glob.glob(os.path.join(index_dir, "forward", "part=*.parquet"))):
            part = int(re.search(r"part=(\d+)", f).group(1))
            if shard_of_part(part, opts.num_parts, opts.num_shards) in hosted:
                files.append(f)
        self._fw_files = files
        extra = []
        if hydrate:
            extra = [c for c in list(opts.meta_cols)] + (
                [opts.content_col] if opts.store_content else []
            )
        if not files:
            self.fw_doc = np.empty(0, dtype=np.uint64)
            self.fw_doc_id = np.empty(0, dtype=object)
            self.hydrate_cols = {c: np.empty(0, dtype=object) for c in extra}
            return
        t = pq.read_table(files, columns=["doc", "doc_id"] + extra)
        doc = t["doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(doc)
        self.fw_doc = doc[order]
        self.fw_doc_id = np.asarray(t["doc_id"].to_pylist(), dtype=object)[order]
        self.hydrate_cols = {
            c: np.asarray(t[c].to_pylist(), dtype=object)[order] for c in extra
        }

    def removed(self, tombstones: np.ndarray) -> list:
        """(shard id, count, token length) of the tombstoned docs found in
        each hosted shard's docmeta."""
        hit = lookup_sorted(np.sort(np.asarray(tombstones, np.uint64)), self.dm_doc)[1]
        return [(sid, int(hit[a:b].sum()), float(self.dm_len[a:b][hit[a:b]].sum()))
                for sid, a, b in zip(self.shard_ids, self.dm_off[:-1], self.dm_off[1:])]

    # -- decode ----------------------------------------------------------- #
    def _block_bytes(self, col: tuple, s: int, e: int) -> np.ndarray:
        """Blocks ``s:e`` of a binary block column as one uint8 slice."""
        offs, data = col
        return data[offs[s]:offs[e]]

    def postings(self, term: str):
        """(docs u64 asc, tfs f32) for a term, fully decoded (bounded FIFO
        cache, :func:`_cache_put`): one varbyte decode and one
        :func:`delta_decode_blocks` over all of the term's blocks."""
        hit = self._cache.get(term)
        if hit is not None:
            return hit
        rng = self.term_range.get(term)
        if rng is None:
            out = (np.empty(0, np.uint64), np.empty(0, np.float32))
        else:
            s, e, _df = rng
            docs = delta_decode_blocks(
                decode_varbyte(self._block_bytes(self.docs_vb, s, e)), self.blk_n[s:e])
            out = (docs, self._block_bytes(self.tfs_bin, s, e).view("<f4"))
        return _cache_put(self._cache, 4096, term, out)

    def _positions_decoded(self, term: str):
        """(values int64, offs int64) for a term's FULL posting order —
        decoded once per term into a bounded FIFO cache (the decode is a
        binary join over every posting row; per-query re-decoding dominated
        the proximity path before this cache)."""
        hit = self._pos_cache.get(term)
        if hit is not None:
            return hit
        rng = self.term_range.get(term)
        if rng is None:
            out = (np.empty(0, np.int64), np.zeros(1, np.int64))
        else:
            s, e, _df = rng
            counts = self._block_bytes(self.pos_cnt_bin, s, e).view("<i4").astype(np.int64)
            values = self._block_bytes(self.pos_bin, s, e).view("<i4").astype(np.int64)
            offs = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=offs[1:])
            out = (values, offs)
        return _cache_put(self._pos_cache, 1024, term, out)

    def positions_flat(self, term: str, idx: np.ndarray):
        """Positions for posting rows ``idx``, as ONE flat (vals, offs)
        pair in idx order (:func:`gather_ranges`), no per-row python
        lists."""
        values, offs_all = self._positions_decoded(term)
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0 or len(offs_all) <= 1:
            return np.empty(0, np.int64), np.zeros(len(idx) + 1, np.int64)
        rows, lens = gather_ranges(offs_all, idx)
        offs = np.zeros(len(idx) + 1, np.int64)
        np.cumsum(lens, out=offs[1:])
        return values[rows], offs

    def doc_ids_of(self, cand: np.ndarray) -> np.ndarray:
        i = np.searchsorted(self.fw_doc, cand)
        return self.fw_doc_id[i]

    def bm25_norms(self, avgdl: float, dtype) -> np.ndarray:
        """Per-doc BM25 length norm ``k1*(1-b+b*d/avgdl)`` aligned to
        ``dm_doc``, computed ONCE per (k1,b,avgdl,dtype) at first use
        instead of per query term.  Elementwise in the target dtype, so a
        gathered slice is bit-identical to computing the same expression
        on the gathered doc lengths (the float32 conformance contract)."""
        # dtype class itself is the key — np.dtype(...).name costs ~15us
        # per call, measurable at 1ms/query
        key = (float(self.opts.bm25.k1), float(self.opts.bm25.b),
               float(avgdl), dtype)
        hit = self._norm_cache.get(key)
        if hit is None:
            one = dtype(1.0)
            k1 = dtype(self.opts.bm25.k1)
            b = dtype(self.opts.bm25.b)
            av = dtype(avgdl)
            d = self.dm_len.astype(dtype, copy=False)
            hit = k1 * (one - b + b * d / av)
            self._norm_cache[key] = hit
        return hit

    def allowed_docs(self, allow_ids) -> np.ndarray:
        """Translate a string-docId allowlist into this view's sorted
        uint64 doc array: |A| searchsorted string probes against a cached
        string-sorted forward permutation — replaces the per-candidate
        Python set-membership loop (VERDICT r3 #4).  Ids unknown to the
        shard are dropped (same semantics as the set filter)."""
        if self._id_sorted_ids is None:
            order = np.argsort(self.fw_doc_id, kind="stable")
            self._id_order = order
            self._id_sorted_ids = self.fw_doc_id[order]
        a = np.unique(np.asarray(list(allow_ids), dtype=object))
        pos, ok = lookup_sorted(self._id_sorted_ids, a)
        return np.sort(self.fw_doc[self._id_order[pos[ok]]])

    def fields_of(self, doc: int) -> dict:
        if not self.hydrate_cols:
            return {}
        i = int(np.searchsorted(self.fw_doc, np.uint64(doc)))
        return {c: v[i] for c, v in self.hydrate_cols.items()}

    # -- facets ------------------------------------------------------------ #
    def _facet_col(self, col: str):
        """Lazy facet column: (int32 dictionary codes aligned to
        ``fw_doc`` order, category strings).  Loaded ONCE per view per
        column, value-coded — ~4 bytes/doc regardless of string length, so
        a node's shard slice stays facetable at billions of docs without
        holding the raw strings."""
        hit = self._facet_cache.get(col)
        if hit is not None:
            return hit
        if not self._fw_files:
            out = (np.empty(0, np.int64), [])
            self._facet_cache[col] = out
            return out
        have = pq.read_schema(self._fw_files[0]).names
        if col not in have:
            raise ValueError(
                f"unknown facet column {col!r}; forward table columns: "
                f"{sorted(c for c in have if c != 'doc')}"
            )
        t = pq.read_table(self._fw_files, columns=["doc", col])
        doc = t["doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(doc)
        vals = pc.fill_null(t[col].cast("string"), "")
        enc = vals.combine_chunks().dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)[order]
        cats = enc.dictionary.to_pylist()
        out = (codes, cats)
        self._facet_cache[col] = out
        return out

    def _with_facets(self, facets, hits, num, cand=None):
        """Kernel return shape: (hits, num) plain, or with a third
        facet-count element when ``facets`` is non-empty — the single
        contract all three query kernels share."""
        if not facets:
            return hits, num
        c = cand if cand is not None else np.empty(0, np.uint64)
        return hits, num, self.facet_counts(c, facets)

    def facet_counts(self, cand: np.ndarray, cols) -> dict:
        """{col: {value: n_docs}} over a candidate doc array (the FULL
        matching set, not the top-k) — one searchsorted gather + bincount
        per column."""
        out: dict = {}
        for col in cols:
            codes, cats = self._facet_col(col)
            if cand.size == 0 or not cats:
                out[col] = {}
                continue
            i = np.searchsorted(self.fw_doc, cand)
            bc = np.bincount(codes[i], minlength=len(cats))
            out[col] = {cats[j]: int(bc[j]) for j in np.flatnonzero(bc)}
        return out

    # -- lookup kernels --------------------------------------------------- #
    def _live(self, cand: np.ndarray, cols: dict, allow_ids):
        """Drop tombstoned docs and, given an allowlist, docs outside it:
        ``(cand, cols)`` shrunk in step, where ``cols`` maps names to
        arrays aligned with ``cand`` (posting rows, term frequencies) so
        later stages never re-probe.  ``cand`` may hold duplicates (the
        NotIn-only quirk keeps them); every copy is probed."""
        keep = None
        if self.tombstones.size and cand.size:
            keep = ~lookup_sorted(self.tombstones, cand)[1]
        if allow_ids is not None and cand.size:
            ok = lookup_sorted(self.allowed_docs(allow_ids), cand)[1]
            keep = ok if keep is None else keep & ok
        if keep is None:
            return cand, cols
        return cand[keep], {k: v[keep] for k, v in cols.items()}

    def _bm25(self, cand: np.ndarray, freqs: list, idfs: list, avgdl: float,
              dtype) -> np.ndarray:
        """BM25 of each candidate: per-doc norms gathered from
        :meth:`bm25_norms`, each token's contribution added in token order
        (the f32 conformance contract); a token with ``freq == 0`` (a
        label, a demoted locs doc) contributes 0, as riot skips it."""
        nrm = self.bm25_norms(avgdl, dtype)[np.searchsorted(self.dm_doc, cand)]
        score = np.zeros(len(cand), dtype=dtype)
        for idf, freq in zip(idfs, freqs):
            contrib = bm25_term_scores_prenorm(idf, freq, nrm, self.opts.bm25.k1, dtype)
            score = score + np.where(freq > 0, contrib, dtype(0.0))
        return score

    def _and_candidates_rows(self, keywords: list, want_rows):
        """Sorted-list AND intersection (semantics of internalLookup,
        /root/reference/core/indexer.go:417-558), smallest list first.
        Membership is a :func:`lookup_sorted` probe of the small list into
        the larger (O(s log L)) rather than a set intersection, which
        re-sorts the concatenation (O((s+L) log(s+L))) on every step.

        Returns ``(cand, rows, lists)`` where ``rows[t]`` holds each
        candidate's row index in term t's posting list for every t in
        ``want_rows`` — a BYPRODUCT of the intersection probes (each shrink
        step masks the already-known positions), so the BM25 stage never
        re-probes its terms — and ``lists`` maps each keyword to its
        ``(docs, tfs)``, fetched once here (callers take the tfs from it
        instead of asking :meth:`postings` again).  The fetch stops at the
        first keyword with no postings in this view."""
        lists = {}
        for k in dict.fromkeys(keywords):
            lists[k] = self.postings(k)
            if lists[k][0].size == 0:  # no later list is fetched
                return np.empty(0, np.uint64), {}, lists
        infos = sorted(((k, docs) for k, (docs, _) in lists.items()),
                       key=lambda x: len(x[1]))
        k0, d0 = infos[0]
        cand = d0
        rows = {k0: np.arange(d0.size, dtype=np.int64)}
        for k, arr in infos[1:]:
            pos, ok = lookup_sorted(arr, cand)
            cand = cand[ok]
            for kk in rows:
                rows[kk] = rows[kk][ok]
            rows[k] = pos[ok]
            if cand.size == 0:
                return cand, {}, lists
        return cand, {k: rows[k] for k in want_rows if k in rows}, lists

    def search(
        self,
        tokens: list,
        labels: list,
        idfs: list,
        avgdl: float,
        allow_ids,
        count_only: bool,
        dtype_name: str = "float32",
        facets=(),
    ):
        """AND lookup + BM25 (+proximity in locs mode).  Returns
        (hits: HitBlock, num_docs) — hits unranked, :func:`rank_hits`
        ranks — plus a {col: {value: n}} dict over the FULL candidate set
        as a third element when ``facets`` is non-empty."""
        opts = self.opts
        dtype = np.float32 if dtype_name == "float32" else np.float64
        keywords = list(tokens) + list(labels)
        ret = lambda hits, num, cand=None: self._with_facets(facets, hits, num, cand)  # noqa: E731
        if not keywords:
            return ret(HitBlock.empty(), 0)
        cand, trows, lists = self._and_candidates_rows(keywords, tokens)
        cand, trows = self._live(cand, trows, allow_ids)
        if cand.size == 0:
            return ret(HitBlock.empty(), 0)
        num_docs = int(cand.size)
        if count_only:
            return ret(HitBlock.empty(), num_docs, cand)

        n = cand.size
        token_flats, freqs = [], []
        demoted = np.zeros(n, dtype=bool)
        if opts.index_type == LOCS_INDEX:
            for t in tokens:
                vals, offs = self.positions_flat(t, trows[t])
                token_flats.append((vals, offs))
                freqs.append((offs[1:] - offs[:-1]).astype(np.float32))
                demoted |= freqs[-1] == 0
        elif opts.index_type != DOCIDS_INDEX:
            freqs = [lists[t][1][trows[t]] for t in tokens]
        bm25 = (np.zeros(n, dtype=dtype) if opts.index_type == DOCIDS_INDEX
                else self._bm25(cand, freqs, idfs, avgdl, dtype))
        bm25 = np.where(demoted, 0.0, bm25)
        prox = None
        snippet = None
        tlocs = None
        if opts.index_type == LOCS_INDEX:
            if tokens:
                # one vectorized DP over every candidate at once; snippet /
                # token-locs tuples materialize lazily at the top-k boundary
                prox, chosen = token_proximity_block(token_flats, list(tokens))
                snippet = _SnippetSeq(chosen, prox)
                tlocs = _TokenLocsSeq(token_flats, prox)
            else:
                prox = np.full(n, -1, dtype=np.int64)
                snippet = [()] * n
                tlocs = [()] * n
        return ret(
            HitBlock(cand, np.asarray(bm25, np.float64), prox, snippet, tlocs),
            num_docs, cand,
        )

    def phrase_search(self, tokens, labels, idfs, avgdl, pattern,
                      allow_ids=None, count_only=False, dtype_name="float32",
                      facets=()):
        """Exact-phrase lookup: the regular AND+BM25 kernel prunes to docs
        containing every token, then the phrase is verified exactly by one
        vectorized RE2 match over the candidates' hydrated content (built
        by :func:`riot_ray.tokenize.phrase_pattern`, whose docstring argues
        why regex-on-text == token-stream adjacency for the supported
        modes).  Byte positions alone cannot verify adjacency — the gap
        between two matched positions may contain another token — so the
        content column is the verifier, not the positions."""
        content_col = self.opts.content_col
        if content_col not in self.hydrate_cols:
            raise ValueError(
                "phrase search needs hydrated content: build the searcher "
                "with hydrate=True over an index with store_content=True"
            )
        ret = lambda hits, num, cand=None: self._with_facets(facets, hits, num, cand)  # noqa: E731
        hits, _ = self.search(
            tokens, labels, idfs, avgdl, allow_ids=allow_ids,
            count_only=False, dtype_name=dtype_name,
        )
        if len(hits) == 0:
            return ret(HitBlock.empty(), 0)
        rows = np.searchsorted(self.fw_doc, hits.doc)
        texts = pa.array(
            [t if t is not None else "" for t in self.hydrate_cols[content_col][rows]],
            pa.string(),
        )
        mask = (
            pc.match_substring_regex(pc.utf8_lower(texts), pattern)
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )
        n = int(mask.sum())
        if count_only:
            return ret(HitBlock.empty(), n, hits.doc[mask])
        return ret(hits.take(mask), n, hits.doc[mask])

    def logic_search(self, must, should, not_in, allow_ids, count_only,
                     facets=()):
        """LogicLookup semantics (/root/reference/core/indexer.go:560-685):
        Must: all must-lists contain doc (a must-term missing from the GLOBAL
        index empties the result — driver enforces); Should: >=1 contains;
        NotIn: anti; Should-only: union minus NotIn; NotIn-only quirk:
        returns the concatenation of the NotIn lists themselves.  With
        ``facets`` the counts run over the final candidate set (the quirk's
        duplicates count twice, matching the duplicated hits)."""
        ret = lambda hits, num, cand=None: self._with_facets(facets, hits, num, cand)  # noqa: E731
        if must or should:
            if must:
                cand = self._and_candidates_rows(must, ())[0]
                if should:
                    cand = cand[lookup_sorted(self._union(should), cand)[1]]
            else:
                cand = self._union(should)
            if not_in:
                cand = cand[~lookup_sorted(self._union(not_in), cand)[1]]
        elif not_in:
            # quirk: concatenation (dups preserved) of NotIn lists
            cand = np.concatenate([self.postings(k)[0] for k in not_in])
        else:
            return ret(HitBlock.empty(), 0)
        cand, _ = self._live(cand, {}, allow_ids)
        num = int(cand.size)
        if count_only:
            return ret(HitBlock.empty(), num, cand)
        return ret(HitBlock(cand, np.zeros(len(cand), np.float64)), num, cand)

    def _union(self, keywords):
        arrs = [self.postings(k)[0] for k in keywords]
        arrs = [a for a in arrs if a.size]
        if not arrs:
            return np.empty(0, np.uint64)
        return np.unique(np.concatenate(arrs))

    # -- block-max WAND (north star: pruned AND + top-k) ------------------ #
    def block_upper_bounds(self, term: str, idf: float, avgdl: float, dtype=np.float32):
        """Per-block score upper bound for one term: tf=max_tf, d=min_len
        maximize idf*tf*(k1+1)/(tf+k1*(1-b+b*d/avgdl)).

        Bounds are always computed in float64 and inflated by a few float32
        ulps: the exact kernel runs in the configured dtype, and in float32
        mode its separately-rounded numerator/denominator can land ~1 ulp
        ABOVE the float64 value of the same expression — a bound taken at the
        kernel's own dtype could then prune a block holding a true top-k doc.
        The inflation keeps the identical-top-k contract; it only makes
        pruning negligibly less aggressive."""
        key = (term, float(idf), float(avgdl), dtype is np.float32)
        hit = self._ub_cache.get(key)
        if hit is not None:
            return hit
        rng = self.term_range.get(term)
        if rng is None:
            return None
        s, e, _df = rng
        ub = bm25_term_scores(
            idf,
            self.blk_max_tf[s:e],
            self.blk_min_len[s:e],
            avgdl,
            self.opts.bm25.k1,
            self.opts.bm25.b,
            np.float64,
        )
        ub = np.asarray(ub, dtype=np.float64)
        if dtype is np.float32:
            # ~6 f32 ops in the kernel, each <= 2^-24 relative error
            ub = ub * (1.0 + 1e-6) + 1e-30
        return _cache_put(self._ub_cache, 4096, key, (s, e, ub, _sparse_levels(ub)))

    def search_wand(self, tokens, idfs, avgdl, k, dtype_name="float32"):
        """Exact top-k for an AND query with block-max pruning (Ding & Suel,
        "Faster top-k document retrieval using block-max indexes",
        SIGIR 2011 — public literature; applied here to riot's AND
        semantics).  All block upper bounds (lead block bound + each other
        term's range-max over the overlapping doc range) are computed
        UP FRONT in one vectorized pass (sparse-table range max), then
        blocks are visited BEST-FIRST (descending bound): the k-th score
        rises as fast as possible and the first bound below it terminates
        the scan — no per-block Python bound loop, no per-candidate heap.

        Pruning runs per hosted shard (its own lead term, running top-k
        and stop point), so which docs get scored — and the count
        returned — does not depend on how shards are spread over
        processes.  Returns (hits: HitBlock of <=k docs per shard,
        n_scored).  Skipped blocks mean the total match count is NOT
        computed — callers use approx counts."""
        dtype = np.float32 if dtype_name == "float32" else np.float64
        infos = []
        for t, idf in zip(tokens, idfs):
            bi = self.block_upper_bounds(t, idf, avgdl, dtype)
            if bi is None:
                return HitBlock.empty(), 0
            infos.append((t, *bi))
        lists = {t: self.postings(t) for t in dict.fromkeys(tokens)}
        # each term's blocks split by shard: cuts[i][x]:cuts[i][x+1] are
        # term i's blocks in hosted shard x (relative to the term's range)
        shards = np.arange(len(self.shard_ids) + 1)
        cuts = [np.searchsorted(self.blk_shard[s:e], shards) for _t, s, e, _u, _l in infos]
        bounds: dict = {}
        tops, n_scored = [], 0
        for x in range(len(self.shard_ids)):
            counts = [int(c[x + 1] - c[x]) for c in cuts]
            if min(counts) == 0:
                continue  # a term absent from this shard: AND is empty
            # rarest term (fewest blocks in this shard) drives iteration
            lead_i = counts.index(min(counts))
            if lead_i not in bounds:
                bounds[lead_i] = self._wand_bounds(infos, lead_i)
            ub_tot, alive = bounds[lead_i]
            a, b = cuts[lead_i][x], cuts[lead_i][x + 1]
            idx_alive = a + np.flatnonzero(alive[a:b])
            # best-first: the k-th score rises fastest, and the scan STOPS
            # at the first bound strictly below it (all later bounds are <= it)
            visit = idx_alive[np.argsort(-ub_tot[idx_alive], kind="stable")]
            top_s, top_d, n = self._wand_scan(infos, lead_i, visit, ub_tot, lists,
                                              tokens, idfs, avgdl, k, dtype)
            n_scored += n
            if len(top_s):
                tops.append((top_d, top_s))
        if not tops:
            return HitBlock.empty(), 0
        return (HitBlock(np.concatenate([d for d, _ in tops]),
                         np.concatenate([s for _, s in tops])), n_scored)

    def _wand_bounds(self, infos, lead_i):
        """(score upper bound, alive) for every block of the lead term: its
        own bound plus each other term's range-max over the blocks that
        overlap its doc range (none overlapping: AND impossible there).
        Shards own disjoint doc ranges, so only the lead block's own
        shard's blocks can overlap."""
        _t, ls, le, lead_ub, _lev = infos[lead_i]
        lo = self.blk_min[ls:le]
        hi = self.blk_max[ls:le]
        ub_tot = np.asarray(lead_ub, dtype=np.float64).copy()
        alive = np.ones(le - ls, bool)
        for i, (_t, s, e, _oub, olev) in enumerate(infos):
            if i == lead_i:
                continue
            a = np.searchsorted(self.blk_max[s:e], lo)
            b = np.searchsorted(self.blk_min[s:e], hi, side="right")
            ok = a < b
            alive &= ok
            if ok.any():
                ub_tot[ok] += _range_max(olev, a[ok], b[ok])
        return ub_tot, alive

    def _wand_scan(self, infos, lead_i, visit, ub_tot, lists, tokens, idfs,
                   avgdl, k, dtype):
        """Score the lead blocks ``visit`` (best-first) of one shard until
        the next bound falls below the running k-th score: (top scores,
        top docs, docs scored)."""
        lead_t, ls, le = infos[lead_i][:3]
        others = [x[0] for i, x in enumerate(infos) if i != lead_i]
        # lead candidates come from the SAME cached full decode the
        # exhaustive kernel uses; per-block row ranges via blk_n offsets
        lead_docs, lead_tfs = lists[lead_t]
        off = np.concatenate(([0], np.cumsum(self.blk_n[ls:le])))
        # running top-k, kept sorted (score desc, doc_id-string asc) — the
        # exact path's total order at the k boundary
        top_s = np.empty(0, np.float64)
        top_d = np.empty(0, np.uint64)
        kth = -np.inf
        n_scored = 0
        # geometric batching: tiny first batch establishes the k-th score
        # (best-first order makes it tight), then batches grow so the
        # no-pruning worst case degenerates to a handful of vectorized
        # passes over the full lead list instead of one pass per block
        vpos, bsz = 0, 4
        while vpos < len(visit):
            if len(top_s) >= k and ub_tot[visit[vpos]] < kth:
                break  # strict: a TIED block could still hold a smaller
                # doc_id that wins the tie, so it is visited
            if len(top_s) >= k and ub_tot[visit[(vpos + len(visit)) // 2]] >= kth:
                # adaptive bailout: the k-th score cannot prune even the
                # MEDIAN remaining bound — pruning prospects are weak
                # (uniform corpora), so the batched loop would just replay
                # the exhaustive scan with per-batch overhead.  Take every
                # remaining block in one vectorized pass instead.
                bsz = len(visit)
            take = visit[vpos:vpos + bsz]
            vpos += len(take)
            bsz = min(bsz * 4, 1024)
            rows, _ = gather_ranges(off, take)
            cand = lead_docs[rows]
            cand_tf = {lead_t: lead_tfs[rows]}
            for t in others:
                odocs, otfs = lists[t]
                rows, hit = lookup_sorted(odocs, cand)
                cand = cand[hit]
                for key in cand_tf:
                    cand_tf[key] = cand_tf[key][hit]
                cand_tf[t] = otfs[rows][hit]
                if cand.size == 0:
                    break
            cand, cand_tf = self._live(cand, cand_tf, None)
            if cand.size == 0:
                continue
            # the score accumulates per query token in TOKEN order (the f32
            # conformance contract, SURVEY.md §7.5)
            score = self._bm25(cand, [cand_tf[t] for t in tokens], idfs, avgdl, dtype)
            n_scored += int(cand.size)
            # merge into the running top-k (score desc, doc_id asc)
            all_s = np.concatenate([top_s, score.astype(np.float64)])
            all_d = np.concatenate([top_d, cand])
            o, _ = top_k(all_s, lambda i: self.doc_ids_of(all_d[i]), k)
            top_s, top_d = all_s[o], all_d[o]
            if len(top_s) >= k:
                kth = top_s[-1]
        return top_s, top_d, n_scored


# --------------------------------------------------------------------------- #
# ranking (per view) and merge
# --------------------------------------------------------------------------- #
def rank_hits(hits: HitBlock, rank: RankOpts, view: ShardData, keep: int,
              orderless: bool = False):
    """Apply scoring criteria, sort by the documented total order, truncate
    to ``keep`` (= offset+max per view — /root/reference/ranker_worker.go:62-66).
    The one place a view's doc-id strings are resolved: for the top-k
    boundary set on the default path, for every hit on the orderless and
    custom-criteria / reverse-order paths.  Returns (list[ScoredHit],
    num_scored)."""
    n = len(hits)
    if n == 0:
        return [], 0
    if orderless:
        # every hit, unranked (reference indexer_worker.go:75-113)
        ids = view.doc_ids_of(hits.doc).tolist()
        return [hits.hit_at(i, d) for i, d in enumerate(ids)], n
    scorer = rank.scoring_criteria
    hydrate = bool(view.hydrate_cols)
    if scorer is None and not rank.reverse_order:
        # vectorized default path: ScoredHit only for the kept top slice
        order, ids = top_k(hits.bm25, lambda i: view.doc_ids_of(hits.doc[i]), keep)
        out = []
        for i, doc_id in zip(order.tolist(), ids.tolist()):
            sh = hits.hit_at(i, doc_id)
            sh.scores = (sh.bm25,)
            if hydrate:
                # SearchDoc hydration (/root/reference/core/ranker.go:179-219)
                sh.fields = view.fields_of(sh.doc)
                sh.content = sh.fields.pop(view.opts.content_col, None)
            out.append(sh)
        return out, n
    # custom criteria / reverse order: per-hit path (drop-on-empty honored,
    # /root/reference/core/ranker.go:132-137)
    scorer = scorer or default_scoring
    out = []
    for i, doc_id in enumerate(view.doc_ids_of(hits.doc).tolist()):
        sh = hits.hit_at(i, doc_id)
        fields = view.fields_of(sh.doc)
        scores = tuple(scorer(sh, fields))
        if len(scores) == 0:
            continue
        sh.scores = scores
        if fields:
            sh.fields = dict(fields)
            sh.content = sh.fields.pop(view.opts.content_col, None)
        out.append(sh)
    num = len(out)
    sort_hits(out, reverse=rank.reverse_order)
    if keep > 0:
        out = out[:keep]
    return out, num


def merge_ranked(per_view: list, rank: RankOpts):
    allhits = [h for hits in per_view for h in hits]
    sort_hits(allhits, reverse=rank.reverse_order)
    # global slice — /root/reference/engine.go:527-538
    start = min(rank.output_offset, len(allhits))
    end = len(allhits) if rank.max_outputs == 0 else min(start + rank.max_outputs, len(allhits))
    return allhits[start:end]
