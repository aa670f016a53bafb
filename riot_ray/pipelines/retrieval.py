"""Offline batch retrieval: a query TABLE streamed through index-holding
actors.

The batch counterpart of riot's online ``Engine.Search``
(/root/reference/engine.go:509-679) for the training-data case: millions
of STORED queries — hard-negative mining, eval-set retrieval, doc-to-doc
distillation — scored against one fixed index.  The kernel stage is
``engine.search_dataset`` (``_BatchQueryStage``: one ``LocalSearcher``
per actor, loaded once in ``__init__``, ``search_many`` plan sharing per
batch); this wrapper fixes the TRAINING-PIPELINE output contract on top
— oracle-exact integer milli scores, rank implied by the (score desc,
doc_id asc) row order, no float column to hash-drift.

Scale shape (the part that matters at 10^9 queries):
* queries stream with backpressure — the query table is never
  materialized, and each actor holds only one batch of them at a time;
* the index is read once per actor from shared storage (not per batch,
  not per query) and shared read-only across the pool's calls;
* output is k rows per query, emitted as the batch completes — the
  result is itself a Dataset, so downstream stages (joins against the
  positives, sampling, packing) pipeline without a barrier;
* no shuffle anywhere: this is embarrassingly parallel over queries.
  Sizing: ``concurrency`` x (index resident size) must fit the node;
  for indexes too big per-actor, shard the index and fan out instead
  (``ActorSearcher``), trading the extra RPC per query.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def batch_retrieval(
    queries_ds,
    index_dir: str,
    k: int = 10,
    concurrency: int = 2,
    batch_size: int = 256,
    tokenizer_factory=None,
):
    """Top-k BM25 retrieval for every row of a query Dataset.

    ``queries_ds`` schema: ``(query_id: int64, text: string)``.  Returns a
    Dataset ``(query_id: int64, doc_id: string, score_milli: int64)`` with
    <= k rows per query — ties and ordering exactly as the online path
    (score desc, doc_id-string asc at the k boundary), ``score_milli =
    floor(bm25 * 1000 + 0.5)`` (the repo's oracle-exact milli convention).
    Queries with no AND match contribute zero rows.

    Duplicate query texts inside a batch share one kernel pass
    (``search_many``'s distinct-plan cache), so skewed query logs — the
    common case — get cheaper, not hotter.

    Partitioning assumption: parallelism follows the INPUT's block count
    (one block = one task) — a query table from ``read_parquet`` arrives
    in file/row-group blocks and fans out naturally, but a single-block
    in-memory table (``from_arrow``/``from_items``) must be
    ``repartition(n)``-ed first or one actor serves everything.
    """
    from ..engine import search_dataset

    out = search_dataset(
        index_dir,
        queries_ds,
        max_outputs=k,
        concurrency=concurrency,
        batch_size=batch_size,
        tokenizer_factory=tokenizer_factory,
    )

    def to_milli(b: pa.Table) -> pa.Table:
        sc = b["bm25"].to_numpy(zero_copy_only=False)
        milli = np.floor(sc * 1000.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "query_id": b["query_id"],
                "doc_id": b["doc_id"],
                "score_milli": pa.array(milli, pa.int64()),
            }
        )

    return out.map_batches(to_milli, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# reciprocal-rank fusion
# --------------------------------------------------------------------------- #

def _rrf_kernel(qids, ids, ranks, k: int, k0: int) -> pa.Table:
    """Fuse (query, id, rank) candidate triples: rrf(q, d) = sum over the
    lists containing d of 1 / (k0 + rank).  Contributions for one (q, d)
    are summed in ascending-rank order (deterministic; for the 2-list case
    IEEE addition is commutative so any oracle's order matches bitwise).
    Returns each query's top-k by (rrf desc, id asc) with 1-based rank and
    ``rrf_micro = floor(rrf * 1e7 + 0.5)`` (the repo's integer-hash-safe
    score convention)."""
    qids = np.asarray(qids, np.int64)
    ids = np.asarray(ids, np.int64)
    ranks = np.asarray(ranks, np.int64)
    if len(qids) == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "rrf_micro": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    if (ranks < 1).any():
        raise ValueError("rrf_fuse: ranks must be 1-based positive ints")
    order = np.lexsort((ranks, ids, qids))
    q, d, r = qids[order], ids[order], ranks[order]
    contrib = 1.0 / (k0 + r.astype(np.float64))
    new = np.r_[True, (q[1:] != q[:-1]) | (d[1:] != d[:-1])]
    starts = np.flatnonzero(new)
    rrf = np.add.reduceat(contrib, starts)
    gq, gd = q[starts], d[starts]
    order2 = np.lexsort((gd, -rrf, gq))
    gq, gd, rrf = gq[order2], gd[order2], rrf[order2]
    newq = np.r_[True, gq[1:] != gq[:-1]]
    idx_in_q = np.arange(len(gq)) - np.maximum.accumulate(
        np.where(newq, np.arange(len(gq)), 0))
    keep = idx_in_q < k
    return pa.table(
        {
            "query_id": pa.array(gq[keep], pa.int64()),
            "doc_id": pa.array(gd[keep], pa.int64()),
            "rrf_micro": pa.array(
                np.floor(rrf[keep] * 1e7 + 0.5).astype(np.int64), pa.int64()),
            "rank": pa.array((idx_in_q[keep] + 1).astype(np.int64), pa.int64()),
        }
    )


def rrf_fuse(
    ranked,
    k: int = 10,
    k0: int = 60,
    query_col: str = "query_id",
    id_col: str = "doc_id",
    rank_col: str = "rank",
):
    """Reciprocal-rank fusion of N ranked result sets (Cormack, Clarke &
    Buettcher, SIGIR 2009): the standard lexical+vector hybrid-retrieval
    merge riot has no analog for (riot ranks one scorer per request,
    /root/reference/engine.go:509-679).

    ``ranked``: a sequence of result sets, each a ``pyarrow.Table`` or a
    ``ray.data.Dataset`` with columns ``(query_col, id_col, rank_col)``
    where rank is 1-based within its query.  A doc absent from a list
    simply contributes nothing for it.  Returns a ``pyarrow.Table``
    ``(query_id, doc_id, rrf_micro, rank)`` — each query's top-k by
    (rrf desc, doc asc).

    Scale shape: inputs are RESULT sets (nq x k_i rows), never the corpus.
    All-Table inputs fuse in one driver-side vectorized kernel; any
    Dataset input routes through ``union -> groupby(query) -> map_groups``
    so driver-resident rows stay nq x k regardless of how many retrieval
    shards produced the inputs — both paths run the identical kernel
    (bit-equal, pinned in tests)."""
    import ray.data

    def _std(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": t[query_col].cast(pa.int64()),
                "doc_id": t[id_col].cast(pa.int64()),
                "rank": t[rank_col].cast(pa.int64()),
            }
        )

    ranked = list(ranked)
    if not ranked:
        return _rrf_kernel(
            np.array([], np.int64), np.array([], np.int64),
            np.array([], np.int64), k, k0,
        )
    if all(isinstance(t, pa.Table) for t in ranked):
        t = pa.concat_tables([_std(t) for t in ranked]).combine_chunks()
        return _rrf_kernel(
            t["query_id"].to_numpy(zero_copy_only=False),
            t["doc_id"].to_numpy(zero_copy_only=False),
            t["rank"].to_numpy(zero_copy_only=False),
            k, k0,
        )

    parts = [
        t.map_batches(_std, batch_format="pyarrow")
        if isinstance(t, ray.data.Dataset)
        else ray.data.from_arrow(_std(t))
        for t in ranked
    ]
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)

    def per_query(group: pa.Table) -> pa.Table:
        return _rrf_kernel(
            group["query_id"].to_numpy(zero_copy_only=False),
            group["doc_id"].to_numpy(zero_copy_only=False),
            group["rank"].to_numpy(zero_copy_only=False),
            k, k0,
        )

    import ray

    out = ds.groupby("query_id").map_groups(per_query, batch_format="pyarrow")
    tabs = [t for t in ray.get(out.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return _rrf_kernel(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.int64), k, k0,
        )
    res = pa.concat_tables(tabs).combine_chunks()
    order = np.lexsort((
        res["rank"].to_numpy(zero_copy_only=False),
        res["query_id"].to_numpy(zero_copy_only=False),
    ))
    return res.take(pa.array(order, pa.int64()))


def rank_results(
    ds,
    score_col: str,
    query_col: str = "query_id",
    id_col: str = "doc_id",
    descending: bool = True,
):
    """Turn a SCORED result set into a RANKED one: adds a 1-based ``rank``
    per query by (score, id) — the adapter between a retrieval stage's
    score output and ``rrf_fuse``'s rank input.

    Ranks are derived inside a ``groupby(query_col)`` so they are correct
    under ANY block layout (a query's rows may straddle dynamically-split
    blocks at scale; a per-batch cumcount would silently restart ranks
    there).  The shuffle moves RESULT rows only (nq x k), never the
    corpus.  Ties order by the id column's own type ordering (string ids
    compare as varchar — the engine's tie order)."""
    sgn = -1.0 if descending else 1.0

    def per_query(group: pa.Table) -> pa.Table:
        sc = group[score_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ids = group[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids_np = ids.to_numpy(zero_copy_only=False)
        order = np.lexsort((ids_np, sgn * sc))
        ranked = group.take(pa.array(order, pa.int64()))
        return ranked.append_column(
            "rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64), pa.int64())
        )

    if isinstance(ds, pa.Table):
        import ray.data

        ds = ray.data.from_arrow(ds)
    return ds.groupby(query_col).map_groups(per_query, batch_format="pyarrow")


def hybrid_batch(
    queries_ds,
    index_dir: str,
    emb_ds,
    query_vectors: np.ndarray,
    query_vec_ids: np.ndarray,
    k: int = 10,
    k0: int = 60,
    concurrency: int = 2,
    vec_col: str = "embedding",
    vec_id_col: str = "vec_id",
    tokenizer_factory=None,
):
    """Hybrid retrieval over a query TABLE: BM25 ``batch_retrieval``
    against ``index_dir`` fused with brute cosine top-k against the
    embedding Dataset via reciprocal-rank fusion — the two-tower +
    lexical merge, offline at training-data scale.

    ``queries_ds``: (query_id, text); ``query_vectors``/``query_vec_ids``:
    the same queries' embeddings (query_id-aligned).  Returns a pyarrow
    Table ``(query_id, doc_id, rrf_micro, rank)``, top-k per query.

    Scale shape: the lexical leg streams queries through index-holding
    actors (zero shuffle); the vector leg is one broadcast matmul pass
    over the embedding table; ranking + fusion shuffle RESULT rows only
    (nq x k each).  Assumes the index's doc-id strings parse as the
    embedding table's integer ids (one shared doc-id space)."""
    from .simsearch import knn_brute

    lex_scored = batch_retrieval(
        queries_ds, index_dir, k=k, concurrency=concurrency,
        tokenizer_factory=tokenizer_factory,
    )
    lex = rank_results(lex_scored, "score_milli")

    def cast_ids(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": b["query_id"],
                "doc_id": b["doc_id"].cast(pa.int64()),
                "rank": b["rank"],
            }
        )

    lex = lex.map_batches(cast_ids, batch_format="pyarrow")
    vt = knn_brute(
        emb_ds, query_vectors, query_vec_ids, k=k,
        vec_col=vec_col, id_col=vec_id_col,
    )
    # knn_brute's output always names the id column "vec_id" regardless
    # of the input table's vec_id_col
    vec = pa.table(
        {
            "query_id": vt["query_id"],
            "doc_id": vt["vec_id"],
            "rank": vt["rank"],
        }
    )
    return rrf_fuse([lex, vec], k=k, k0=k0)
