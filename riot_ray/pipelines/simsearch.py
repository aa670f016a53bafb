"""Similarity search over an embedding column (list<float>): nine search
and index operators built as ONE scan.  ``knn_brute`` scores a batch as
``Q @ V.T`` (exact cosine; DuckDB ``list_cosine_similarity`` checks it);
``knn_lsh`` scores only rows whose random-hyperplane bucket a query probes
in any of its tables (its own bucket + multiprobe bit flips); ``knn_ivf``
trains a spherical k-means coarse quantizer on a bounded sample, assigns
each row a ``list_id`` and scores only rows whose list is among a query's
``nprobe`` nearest centroids; ``build_ivf_index`` persists that layout
list-partitioned and ``knn_ivf_query`` reads only the probed partitions;
``build_pq_index`` persists product-quantized codes in the same layout and
``knn_pq_query`` scores them with ADC lookup tables; ``knn_int8_codes``
scores int8 codes by integer dot product, and ``knn_int8`` is
``quantize_embeddings`` followed by ``knn_int8_codes``.  Every search has
one shape: the query state is broadcast once via ``ray.put``, each batch
emits a per-query top-k partial from the single kernel
:func:`_batch_topk`, and :func:`_reduce_topk` merges the partials.  All
return (query_id, vec_id, cosine, rank) (``dot_q`` in place of cosine for
the int8 pair) with rank 1..k per query, cosine rounded to 6dp, and one
tie rule everywhere, in the partials and in the reduce: score descending,
then vec_id ascending — so results never depend on block layout.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .analysis import round6


def _normalize(M: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(M, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return M / n


def _unit_rows(batch: pa.Table, vec_col: str) -> np.ndarray:
    """The batch's vector column as unit-norm float64 rows."""
    return _normalize(np.stack(
        batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64))


def _flat_values(batch: pa.Table, col: str) -> np.ndarray:
    """The flattened child values of a fixed-width list column."""
    c = batch[col]
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    return c.flatten().to_numpy(zero_copy_only=False)


def _nearest_clusters(V: np.ndarray, C: np.ndarray):
    """Nearest-centroid ids + distances for rows of ``V`` against centroid
    matrix ``C`` — THE assign expression (expanded squared-distance matmul,
    argmin ties to the smallest centroid id).  Shared by
    :func:`kmeans_assign` and ``dedup.semdedup`` so every cluster-scoped
    operator agrees bit-for-bit with the `kmeans_assign` SQL oracle."""
    d2 = ((V * V).sum(1, keepdims=True)
          - 2.0 * (V @ C.T) + (C * C).sum(1)[None, :])
    a = np.argmin(d2, axis=1)
    d = np.sqrt(np.maximum(np.take_along_axis(d2, a[:, None], 1)[:, 0], 0))
    return a.astype(np.int64), d


def _topk_table(qids, vids, sims, k):
    """Global top-k per query from candidate triples; deterministic
    (-cos, vec_id) order."""
    out_q, out_v, out_s, out_r = [], [], [], []
    order = np.lexsort((vids, -sims, qids))
    qs, vs, ss = qids[order], vids[order], sims[order]
    # rank within query
    newq = np.r_[True, qs[1:] != qs[:-1]]
    idx_in_q = np.arange(len(qs)) - np.maximum.accumulate(np.where(newq, np.arange(len(qs)), 0))
    keep = idx_in_q < k
    return pa.table(
        {
            "query_id": pa.array(qs[keep], pa.int64()),
            "vec_id": pa.array(vs[keep], pa.int64()),
            "cosine": pa.array(round6(ss[keep]), pa.float64()),
            "rank": pa.array((idx_in_q[keep] + 1).astype(np.int64), pa.int64()),
        }
    )


_EMPTY_RESULT_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("vec_id", pa.int64()),
     ("cosine", pa.float64()), ("rank", pa.int64())]
)

# the per-batch partial every scan emits and _reduce_topk consumes
_PARTIAL_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("vec_id", pa.int64()),
     ("cosine_raw", pa.float64())]
)


def _empty_result() -> pa.Table:
    return _EMPTY_RESULT_SCHEMA.empty_table()


def _batch_topk(qids: np.ndarray, ids: np.ndarray, scores: np.ndarray,
                mask: np.ndarray | None, k: int) -> pa.Table:
    """THE per-batch partial of every kNN operator.  ``scores`` is
    (nq, n): query ``qids[i]`` against row ``ids[j]``; ``mask`` (same
    shape, or None for all) marks the candidate rows.  Keeps each query's
    first ``k`` candidates by (score desc, vec_id asc) — tie-exact, so the
    reduced result cannot depend on how rows fall into batches.  O(n) per
    query: a partition finds each query's k-th best score and only the
    rows at or above it (k plus any tied with it) are ordered."""
    kk = min(k, scores.shape[1])
    if kk <= 0 or len(qids) == 0:
        return _PARTIAL_SCHEMA.empty_table()
    s = scores if mask is None else np.where(mask, scores, -np.inf)
    kth = -np.partition(-s, kk - 1, axis=1)[:, kk - 1]
    keep = s >= kth[:, None]
    if mask is not None:
        keep &= mask  # a query with < k candidates has kth == -inf
    r, c = np.nonzero(keep)
    vid, sc = ids[c], scores[r, c]
    order = np.lexsort((vid, -sc, r))
    r, vid, sc = r[order], vid[order], sc[order]
    first = np.searchsorted(r, r)  # r is sorted: each query's first slot
    take = np.arange(len(r)) - first < kk
    return pa.table(
        {"query_id": pa.array(qids[r[take]], pa.int64()),
         "vec_id": pa.array(vid[take], pa.int64()),
         "cosine_raw": pa.array(sc[take], pa.float64())},
        schema=_PARTIAL_SCHEMA,
    )


# gate between the driver reduce and the distributed groupby reduce:
# 2M triples = ~50 MB Arrow — a bounded CONSTANT, not a function of data
# size (the same driver/distributed size-gating as the build's df reduce)
_DRIVER_REDUCE_MAX_ROWS = 2_000_000


def _reduce_topk(partials_ds, k: int) -> pa.Table:
    """Final reduce of per-block top-k partials (n_blocks × nq × k
    candidate triples) to each query's global top-k.

    The partials are materialized (they stay in the object store) and the
    EXACT row count gates the plan: at or under a bounded constant
    (``_DRIVER_REDUCE_MAX_ROWS`` ≈ 50 MB) the triples collapse in one
    vectorized ``_topk_table`` pass on the driver — a Ray groupby costs
    ~1-2 s of fixed shuffle latency, 3-4x the whole query at bench scale;
    above it a ``groupby(query_id).map_groups`` reduces OFF-driver, so
    driver-resident rows stay nq × k regardless of block count (at 100 TB
    ~10⁶ blocks × 50 queries × k=10 would otherwise centralize ~500M
    rows).  Both paths run the identical `_topk_table` kernel, so results
    are bit-equal (pinned by the block-count-independence test)."""
    import ray

    mat = partials_ds.materialize()
    if mat.count() <= _DRIVER_REDUCE_MAX_ROWS:
        tabs = [t for t in ray.get(mat.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return _empty_result()
        t = pa.concat_tables(tabs).combine_chunks()
        return _topk_table(
            t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["cosine_raw"].to_numpy(zero_copy_only=False),
            k,
        )

    def per_query(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _empty_result()
        return _topk_table(
            group["query_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            group["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            group["cosine_raw"].to_numpy(zero_copy_only=False),
            k,
        )

    reduced = mat.groupby("query_id").map_groups(
        per_query, batch_format="pyarrow"
    )
    tabs = [t for t in ray.get(reduced.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return _empty_result()
    tbl = pa.concat_tables(tabs).combine_chunks()
    # deterministic global order (groups arrive per-partition): (query, rank)
    order = np.lexsort(
        (tbl["rank"].to_numpy(zero_copy_only=False),
         tbl["query_id"].to_numpy(zero_copy_only=False))
    )
    return tbl.take(pa.array(order, pa.int64()))


def _knn_scan(ds, query_ids, k: int, id_col: str, score, state: tuple):
    """The one plan every kNN operator runs.  ``state`` is broadcast once
    via ``ray.put`` (NOT re-shipped per batch); for each batch
    ``score(batch, *state)`` returns ``(scores (nq, n), candidate mask or
    None)``, or None when no row of the batch is a candidate;
    :func:`_batch_topk` turns that into the batch's partial and
    :func:`_reduce_topk` merges the partials."""
    import ray

    qids = np.asarray(query_ids, dtype=np.int64)
    ref = ray.put(state)

    def local(batch: pa.Table) -> pa.Table:
        scored = score(batch, *ray.get(ref)) if batch.num_rows else None
        if scored is None:
            return _PARTIAL_SCHEMA.empty_table()
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return _batch_topk(qids, ids, *scored, k)

    return _reduce_topk(ds.map_batches(local, batch_format="pyarrow"), k)


def knn_brute(
    ds,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Exact cosine top-k.  ``queries``: (nq, dim) float array (broadcast —
    ray.put once, NOT re-shipped per batch)."""
    def score(batch: pa.Table, Q: np.ndarray):
        return Q @ _unit_rows(batch, vec_col).T, None

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    return _knn_scan(ds, query_ids, k, id_col, score, (Q,))


def _spherical_kmeans(X: np.ndarray, k: int, seed: int, iters: int = 10) -> np.ndarray:
    """Deterministic spherical k-means over unit-norm rows: assignment by
    max dot product, centroids re-normalized each iteration.  Empty lists
    keep their previous centroid.  Runs on the (bounded) training sample
    only — never the full corpus."""
    k = min(k, len(X))
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=k, replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        sums = np.zeros_like(C)
        np.add.at(sums, assign, X)
        norms = np.linalg.norm(sums, axis=1)
        live = norms > 0
        C[live] = sums[live] / norms[live, None]
    return C


def _sample_rows(ds, vec_col: str, n: int) -> np.ndarray:
    """The first ``n`` rows' vectors as float64 — the bounded driver-side
    sample every trainer in this module starts from."""
    sample = ds.select_columns([vec_col]).limit(n).take_all()
    return np.stack([r[vec_col] for r in sample]).astype(np.float64)


def _train_ivf(ds, vec_col: str, n_lists: int, sample_n: int, seed: int,
               train_iters: int):
    """THE IVF trainer: the unit-norm sample ``X`` and spherical k-means
    coarse centroids ``C`` trained on it (``len(C)`` may be below
    ``n_lists`` on tiny corpora).  Shared by :func:`knn_ivf` and both
    index builders, so an in-memory and a persisted index built with the
    same (ds, seed, sample_n) agree exactly."""
    X = _normalize(_sample_rows(ds, vec_col, sample_n))
    return X, _spherical_kmeans(X, n_lists, seed, train_iters)


def _list_ids(V: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Each unit row's inverted list: its nearest coarse centroid."""
    return np.argmax(V @ C.T, axis=1).astype(np.int32)


def _assign_lists(batch: pa.Table, cref, vec_col: str) -> pa.Table:
    """``batch`` plus its ``list_id`` (int32) against the centroids behind
    ``cref`` — the assign of :func:`build_ivf_index` and :func:`knn_ivf`."""
    import ray

    lists = _list_ids(_unit_rows(batch, vec_col), ray.get(cref))
    return batch.append_column("list_id", pa.array(lists, pa.int32()))


def _probe_mask(Q: np.ndarray, C: np.ndarray, nprobe: int) -> np.ndarray:
    """probe[qi, list] = query qi scans that inverted list: its ``nprobe``
    nearest centroids (all lists when ``nprobe >= len(C)``)."""
    nprobe = min(nprobe, len(C))
    probe = np.argpartition(-(Q @ C.T), nprobe - 1, axis=1)[:, :nprobe]
    mask = np.zeros((len(Q), len(C)), dtype=bool)
    np.put_along_axis(mask, probe, True, axis=1)
    return mask


def _probed(batch: pa.Table, probe: np.ndarray):
    """The batch's (nq, n) candidate mask — a row is a candidate for the
    queries probing its ``list_id`` — or None when no row is probed."""
    mask = probe[:, batch["list_id"].to_numpy(zero_copy_only=False)]
    return mask if mask.any() else None


def _ivf_scan(ds, Q, query_ids, probe, k, vec_col, id_col):
    """The IVF probe scan over rows that carry ``list_id``: exact cosine,
    restricted to each query's probed lists."""
    def score(batch: pa.Table, Q: np.ndarray, probe: np.ndarray):
        mask = _probed(batch, probe)
        if mask is None:
            return None
        return Q @ _unit_rows(batch, vec_col).T, mask

    return _knn_scan(ds, query_ids, k, id_col, score, (Q, probe))


def knn_ivf(
    ds,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_lists: int = 16,
    nprobe: int = 4,
    sample_n: int = 4096,
    seed: int = 42,
    train_iters: int = 10,
):
    """IVF approximate top-k (the Faiss-style inverted-file scheme, cosine
    metric).  Train: spherical k-means on the first ``sample_n`` corpus
    rows (driver-side — bounded, never the full corpus).  Search: each
    query probes its ``nprobe`` nearest centroids; a corpus row is scored
    for a query only when the row's list is probed.  The corpus streams
    once through ``map_batches`` (centroids + probe sets broadcast once via
    ``ray.put``); only tiny per-batch top-k partials centralize.

    At cluster scale, write the corpus list-partitioned
    (:func:`build_ivf_index`) so probes prune at the READ instead of
    post-assignment — this operator assigns lists with the same assign
    and runs the same probe scan as :func:`knn_ivf_query`.  Same output
    contract as :func:`knn_brute`; ``nprobe >= n_lists`` reproduces it
    exactly."""
    import ray

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    _X, C = _train_ivf(ds, vec_col, n_lists, sample_n, seed, train_iters)
    listed = ds.map_batches(_assign_lists, fn_args=(ray.put(C), vec_col),
                            batch_format="pyarrow")
    return _ivf_scan(listed, Q, query_ids, _probe_mask(Q, C, nprobe), k,
                     vec_col, id_col)


class _LshIndexStage:
    """Hyperplane-sign bucketing — planes generated once per actor from the
    seed, identical on index and query side."""

    def __init__(self, n_planes: int, dim: int, seed: int):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_planes))
        self.n_planes = n_planes

    def key_of(self, V: np.ndarray) -> np.ndarray:
        signs = (V @ self.planes) >= 0
        return (signs.astype(np.uint64) << np.arange(self.n_planes, dtype=np.uint64)[None, :]).sum(
            axis=1, dtype=np.uint64
        )


def knn_lsh(
    ds,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_planes: int = 8,
    n_tables: int = 4,
    multiprobe: int = 1,
    seed: int = 42,
):
    """Approximate top-k: ``n_tables`` independent hyperplane tables; a
    corpus row is scanned for a query if, in ANY table, its bucket equals
    the query's bucket or is within ``multiprobe`` bit flips of it
    (classic multi-table multiprobe LSH).  Same output schema as knn_brute;
    recall < 1 by design — tests pin it against the brute operator."""
    from itertools import combinations

    if multiprobe > 2:
        raise ValueError(
            f"knn_lsh: multiprobe={multiprobe} is not implemented "
            "(at most 2 bit flips)")
    flips = [0]
    if multiprobe >= 1:
        flips += [1 << b for b in range(n_planes)]
    if multiprobe >= 2:
        flips += [(1 << i) | (1 << j)
                  for i, j in combinations(range(n_planes), 2)]
    Q = _normalize(np.asarray(queries, dtype=np.float64))
    stages = [_LshIndexStage(n_planes, Q.shape[1], seed + t)
              for t in range(n_tables)]
    qkeys = [st.key_of(Q) for st in stages]

    def score(batch: pa.Table, Q, stages, qkeys, flips):
        V = _unit_rows(batch, vec_col)
        # candidate per (query, row): any table bucket within <=multiprobe flips
        mask = np.zeros((len(Q), len(V)), dtype=bool)
        for st, qk in zip(stages, qkeys):
            keys = st.key_of(V)
            for f in flips:
                mask |= qk[:, None] == (keys[None, :] ^ f)
        if not mask.any():
            return None
        return Q @ V.T, mask

    return _knn_scan(ds, query_ids, k, id_col, score,
                     (Q, stages, qkeys, np.array(flips, dtype=np.uint64)))


# --------------------------------------------------------------------------- #
# persisted IVF / IVF-PQ indexes (read-pruned scans)
# --------------------------------------------------------------------------- #
def _skip_if_current(out_dir: str, eff_fp: str):
    """The skipped-build result when ``meta.json`` and EVERY committed
    partition at ``out_dir`` already carry the effective fingerprint
    ``eff_fp`` (the index is current: skip the corpus pass), else None."""
    import glob
    import json

    from .checkpoint import MANIFEST

    try:
        with open(os.path.join(out_dir, "meta.json")) as f:
            meta = json.load(f)
        if meta.get("fingerprint") != eff_fp:
            return None
        manifests = glob.glob(
            os.path.join(out_dir, "part=" + "[0-9]" * 5, MANIFEST))
        if manifests and all(json.load(open(m)).get("fingerprint") == eff_fp
                             for m in manifests):
            return {"n_lists": meta["n_lists"], "n_rows": None,
                    "out_dir": out_dir, "skipped": True}
    except (OSError, ValueError):
        pass  # missing or unreadable state: rebuild
    return None


def _write_index(rows, out_dir: str, meta: dict, seed: int) -> dict:
    """Commit an index whose ``rows`` carry ``list_id``: one ``part=K`` dir
    per inverted list (atomic tmp+rename commit via the checkpoint writer),
    then ``meta`` with an atomic replace — LAST, so a crash in between is
    caught by :func:`_open_index`'s cross-check."""
    import json

    from .checkpoint import _PartWriter, sweep_foreign_parts

    fp, n_lists = meta["fingerprint"], meta["n_lists"]
    os.makedirs(out_dir, exist_ok=True)
    written = (
        rows.map_batches(lambda b: b.append_column("__part", b["list_id"]),
                         batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_PartWriter(out_dir, fp, n_lists, seed),
                    batch_format="pyarrow")
        .to_pandas()
    )
    # a rebuild over a CHANGED corpus can leave a list empty this run; its
    # stale partition from the previous corpus must not be readable
    sweep_foreign_parts(out_dir, fp, n_lists, seed)
    tmp = os.path.join(out_dir, f"meta.json.tmp-{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(out_dir, "meta.json"))
    return {"n_lists": n_lists, "n_rows": int(written["n_rows"].sum()),
            "out_dir": out_dir}


def _open_index(index_dir: str, queries: np.ndarray, nprobe: int):
    """Open a persisted IVF / IVF-PQ index for one query wave: returns
    ``(meta, unit queries, probe mask, files)`` where ``files`` are the
    data files of the probed lists only (the other partitions' bytes never
    leave storage), each cross-checked against ``meta.json``."""
    import json

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    Q = _normalize(np.asarray(queries, dtype=np.float64))
    probe = _probe_mask(
        Q, np.asarray(meta["centroids"], dtype=np.float64), nprobe)
    files = []
    for l in np.flatnonzero(probe.any(axis=0)).tolist():
        pdir = os.path.join(index_dir, f"part={l:05d}")
        fpath = os.path.join(pdir, "data.parquet")
        if not os.path.exists(fpath):
            continue
        # cross-check: a build that crashed between the partition commits
        # and the atomic meta.json replace leaves centroids from one build
        # and list assignments from another — refuse to serve that mix
        try:
            with open(os.path.join(pdir, "manifest.json")) as mf:
                pfp = json.load(mf).get("fingerprint")
        except (OSError, ValueError):
            pfp = None
        if pfp != meta.get("fingerprint"):
            kind = "IVF-PQ" if meta.get("kind") == "ivfpq" else "IVF"
            raise ValueError(
                f"{kind} index {index_dir} is inconsistent: partition {l} "
                f"has fingerprint {pfp!r} but meta.json has "
                f"{meta.get('fingerprint')!r} — rebuild the index "
                "(a prior build likely crashed before committing meta.json)"
            )
        files.append(fpath)
    return meta, Q, probe, files


def build_ivf_index(
    ds,
    out_dir: str,
    fingerprint: str = "",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_lists: int = 16,
    sample_n: int = 4096,
    seed: int = 42,
    train_iters: int = 10,
) -> dict:
    """Persist the IVF layout knn_ivf's docstring prescribes for cluster
    scale: the corpus written LIST-PARTITIONED (one ``part=K`` dir per
    inverted list, atomic tmp+rename commit via the checkpoint writer) plus
    ``meta.json`` holding the trained centroids.  Queries then read ONLY
    their probed lists — pruning at the READ, not post-scan.

    Same trainer as :func:`knn_ivf` (spherical k-means on a bounded
    driver-side sample), so an in-memory and a persisted index built with
    the same (ds, seed, sample_n) agree exactly."""
    import ray

    # the EFFECTIVE fingerprint folds every trainer knob in: a rebuild with
    # different sample_n/train_iters/n_lists must invalidate the partitions
    # (their list_id assignments came from differently-trained centroids),
    # not just meta.json
    eff_fp = (
        f"{fingerprint}|ivf:nl={n_lists}:sn={sample_n}:ti={train_iters}:sd={seed}"
    )
    skipped = _skip_if_current(out_dir, eff_fp)
    if skipped is not None:
        return skipped

    _X, C = _train_ivf(ds, vec_col, n_lists, sample_n, seed, train_iters)
    listed = ds.map_batches(_assign_lists, fn_args=(ray.put(C), vec_col),
                            batch_format="pyarrow")
    meta = {
        "n_lists": len(C),
        "vec_col": vec_col,
        "id_col": id_col,
        "fingerprint": eff_fp,
        "centroids": C.tolist(),
    }
    return _write_index(listed, out_dir, meta, seed)


def knn_ivf_query(
    index_dir: str,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
):
    """Query a persisted IVF index: only the union of the queries' probed
    list partitions is READ (the other partitions' bytes never leave
    storage — this is the point of the layout).  ``nprobe >= n_lists``
    reproduces brute force exactly."""
    import ray.data as rd

    meta, Q, probe, files = _open_index(index_dir, queries, nprobe)
    if not files:
        return _empty_result()
    vec_col, id_col = meta["vec_col"], meta["id_col"]
    return _ivf_scan(
        rd.read_parquet(files, columns=[id_col, vec_col, "list_id"]),
        Q, query_ids, probe, k, vec_col, id_col)


def _kmeans(X: np.ndarray, k: int, seed: int, iters: int) -> np.ndarray:
    """Deterministic Lloyd k-means (Euclidean) on a bounded sample; empty
    clusters keep their previous centroid; ties in assignment break to the
    lowest centroid index (np.argmin)."""
    k = min(k, len(X))
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=k, replace=False)].copy()
    for _ in range(iters):
        d2 = ((X * X).sum(1, keepdims=True)
              - 2.0 * (X @ C.T) + (C * C).sum(1)[None, :])
        a = np.argmin(d2, axis=1)
        sums = np.zeros_like(C)
        np.add.at(sums, a, X)
        n = np.bincount(a, minlength=len(C))
        live = n > 0
        C[live] = sums[live] / n[live, None]
    return C


def _pq_encode(Vn: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, M) uint8 codes for unit-norm rows: per subspace, the nearest
    codebook centroid (argmin squared distance == argmax dot - norm/2)."""
    n, d = Vn.shape
    M, ks, dsub = books.shape
    codes = np.empty((n, M), np.uint8)
    for m in range(M):
        sub = Vn[:, m * dsub: (m + 1) * dsub]
        cb = books[m]
        score = sub @ cb.T - 0.5 * (cb * cb).sum(1)[None, :]
        codes[:, m] = np.argmax(score, axis=1).astype(np.uint8)
    return codes


def build_pq_index(
    ds,
    out_dir: str,
    fingerprint: str = "",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_lists: int = 16,
    pq_m: int = 4,
    pq_ks: int = 16,
    sample_n: int = 4096,
    seed: int = 42,
    train_iters: int = 10,
) -> dict:
    """Persist an IVF-PQ index (Jégou et al. 2011, "Product Quantization
    for Nearest Neighbor Search"): the coarse quantizer partitions the
    corpus into ``n_lists`` list-partitioned parquet dirs exactly like
    :func:`build_ivf_index`, but each partition stores ``pq_m``-byte PQ
    CODES instead of raw float vectors — a dim*4/pq_m-fold size cut (32x
    for 32-dim float32 at M=4), which at 100 TB is the difference between
    an index that fits the cluster's storage/page cache and one that
    doesn't.  Queries scan codes with ADC lookup tables and never touch
    the raw vectors.

    Trainer: spherical k-means coarse centroids + per-subspace Lloyd
    codebooks (``pq_ks`` <= 256 centroids each), all on one bounded
    driver-side sample; codes are assigned in a single streaming corpus
    pass.  Same fingerprint/manifest/atomic-commit contract as the IVF
    index (resume skips committed partitions; a crash between partition
    and meta commits is detected at query time)."""
    import ray

    if pq_ks > 256:
        raise ValueError("pq_ks must fit a uint8 code (<= 256)")
    eff_fp = (
        f"{fingerprint}|ivfpq:nl={n_lists}:m={pq_m}:ks={pq_ks}"
        f":sn={sample_n}:ti={train_iters}:sd={seed}"
    )
    skipped = _skip_if_current(out_dir, eff_fp)
    if skipped is not None:
        return skipped

    X, C = _train_ivf(ds, vec_col, n_lists, sample_n, seed, train_iters)
    dim = X.shape[1]
    if dim % pq_m:
        raise ValueError(f"pq_m={pq_m} must divide dim={dim}")
    dsub = dim // pq_m
    books = np.stack([
        _kmeans(X[:, m * dsub: (m + 1) * dsub], pq_ks, seed + 1 + m,
                train_iters)
        for m in range(pq_m)
    ])  # (M, ks', dsub) — ks' may shrink on tiny samples
    bref = ray.put((C, books))

    def encode(batch: pa.Table) -> pa.Table:
        g_C, g_books = ray.get(bref)
        V = _unit_rows(batch, vec_col)
        return pa.table({
            id_col: pa.array(batch[id_col].to_numpy(zero_copy_only=False)
                             .astype(np.int64), pa.int64()),
            "list_id": pa.array(_list_ids(V, g_C), pa.int32()),
            "codes": pa.array(list(_pq_encode(V, g_books)),
                              pa.list_(pa.uint8(), pq_m)),
        })

    meta = {
        "kind": "ivfpq",
        "n_lists": len(C),
        "pq_m": int(pq_m),
        "vec_col": vec_col,
        "id_col": id_col,
        "fingerprint": eff_fp,
        "centroids": C.tolist(),
        "codebooks": books.tolist(),
    }
    return _write_index(ds.map_batches(encode, batch_format="pyarrow"),
                        out_dir, meta, seed)


def knn_pq_query(
    index_dir: str,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
):
    """ADC search over a persisted IVF-PQ index: only the probed list
    partitions are READ (same pruning as :func:`knn_ivf_query`) and only
    the ``pq_m``-byte codes are scanned — approx cosine(q, v) =
    sum_m LUT[m, code_m] with LUT[m, j] = q_m . codebook[m][j], the
    asymmetric-distance trick from the PQ paper.  Approximate by
    construction (quantization error + nprobe recall) — tests pin recall
    against :func:`knn_brute`."""
    import ray.data as rd

    meta, Q, probe, files = _open_index(index_dir, queries, nprobe)
    if not files:
        return _empty_result()
    books = np.asarray(meta["codebooks"], dtype=np.float64)
    M, dsub = books.shape[0], books.shape[2]
    # per-query ADC tables: LUT[q, m, j] = Q_m . cb[m][j]
    LUT = np.stack([
        Q[:, m * dsub: (m + 1) * dsub] @ books[m].T for m in range(M)
    ], axis=1)  # (nq, M, ks)

    def score(batch: pa.Table, LUT: np.ndarray, probe: np.ndarray):
        mask = _probed(batch, probe)
        if mask is None:
            return None
        codes = np.asarray(_flat_values(batch, "codes"), np.int64).reshape(-1, M)
        # ADC: one gather-add per subspace, vectorized over (nq, batch)
        sims = np.zeros((len(LUT), len(codes)), np.float64)
        for m in range(M):
            sims += LUT[:, m, :][:, codes[:, m]]
        return sims, mask

    id_col = meta["id_col"]
    return _knn_scan(
        rd.read_parquet(files, columns=[id_col, "codes", "list_id"]),
        query_ids, k, id_col, score, (LUT, probe))


# --------------------------------------------------------------------------- #
# full-corpus distributed k-means (Lloyd over streaming sufficient stats)
# --------------------------------------------------------------------------- #
def _kmeans_stats(batch: pa.Table, cref, vec_col: str,
                  spherical: bool) -> pa.Table:
    """One Lloyd pass over a batch: (k x d sums, k counts, inertia) against
    the centroids behind the object ref ``cref``.  Module-level, so every
    iteration of :func:`kmeans_fit` hands Ray the same task function."""
    import ray

    g_C = ray.get(cref)
    V = np.stack(
        batch[vec_col].to_numpy(zero_copy_only=False)
    ).astype(np.float64)
    if spherical:
        V = _normalize(V)
    d2b = ((V * V).sum(1, keepdims=True)
           - 2.0 * (V @ g_C.T) + (g_C * g_C).sum(1)[None, :])
    a = np.argmin(d2b, axis=1)
    sums = np.zeros_like(g_C)
    np.add.at(sums, a, V)
    cnt = np.bincount(a, minlength=len(g_C)).astype(np.int64)
    return pa.table({
        "s": pa.array([sums.reshape(-1)], pa.list_(pa.float64())),
        "c": pa.array([cnt], pa.list_(pa.int64())),
        "j": pa.array([float(np.take_along_axis(
            d2b, a[:, None], axis=1).sum())], pa.float64()),
    })


def kmeans_fit(
    ds,
    k: int = 16,
    vec_col: str = "embedding",
    iters: int = 10,
    seed: int = 42,
    sample_n: int = 4096,
    tol: float = 1e-6,
    spherical: bool = False,
):
    """Lloyd k-means over the FULL corpus (vs the bounded-sample trainer
    :func:`_spherical_kmeans` the IVF builders use): initialization is
    k-means++ on a bounded driver-side sample, then each Lloyd iteration
    is ONE streaming pass — every batch emits (k x d sums, k counts)
    sufficient statistics (size independent of row count), the driver
    reduces and rebroadcasts.  Stops early when max centroid movement
    drops below ``tol``.  ``spherical=True`` renormalizes rows and
    centroids each step (cosine metric, the IVF-compatible variant).

    Returns (centroids [k, d] float64, n_iters_run, inertia_proxy) —
    floats, so the driver contract carries k-means rows-only; pytest pins
    exact recovery on separated blobs and sample-vs-full agreement."""
    import ray

    X = _sample_rows(ds, vec_col, sample_n)
    if spherical:
        X = _normalize(X)
    k = min(k, len(X))
    rng = np.random.default_rng(seed)
    # k-means++ seeding on the sample (deterministic given seed)
    C = np.empty((k, X.shape[1]))
    C[0] = X[rng.integers(len(X))]
    d2 = ((X - C[0]) ** 2).sum(1)
    for j in range(1, k):
        p = d2 / d2.sum() if d2.sum() > 0 else np.full(len(X), 1 / len(X))
        C[j] = X[rng.choice(len(X), p=p)]
        d2 = np.minimum(d2, ((X - C[j]) ** 2).sum(1))

    it = 0
    inertia = float("inf")
    for it in range(1, iters + 1):
        sums = np.zeros_like(C)
        cnt = np.zeros(k, np.int64)
        inertia = 0.0
        for ref in (ds.map_batches(_kmeans_stats, batch_format="pyarrow",
                                   fn_args=(ray.put(C), vec_col, spherical))
                    .materialize().to_arrow_refs()):
            t = ray.get(ref)
            for row in t["s"].to_pylist():
                sums += np.asarray(row).reshape(C.shape)
            for row in t["c"].to_pylist():
                cnt += np.asarray(row, np.int64)
            inertia += float(np.asarray(t["j"].to_pylist()).sum())
        newC = C.copy()
        live = cnt > 0
        newC[live] = sums[live] / cnt[live, None]
        if spherical:
            n = np.linalg.norm(newC, axis=1)
            pos = n > 0
            newC[pos] = newC[pos] / n[pos, None]
        shift = float(np.abs(newC - C).max())
        C = newC
        if shift < tol:
            break
    return C, it, inertia


def kmeans_assign(ds, centroids: np.ndarray, vec_col: str = "embedding",
                  id_col: str = "vec_id", spherical: bool = False):
    """(id_col, cluster int64, dist float64) per row — centroids broadcast
    once, one matmul-shaped pass."""
    import ray

    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        g_C = ray.get(cref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        V = np.stack(batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        if spherical:
            V = _normalize(V)
        a, d = _nearest_clusters(V, g_C)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "cluster": pa.array(a, pa.int64()),
                         "dist": pa.array(d, pa.float64())})

    return ds.map_batches(assign, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# PCA over the embedding column (dimension reduction before LSH/IVF)
# --------------------------------------------------------------------------- #
def embedding_pca_fit(ds, k: int = 8, emb_col: str = "embedding"):
    """Fit PCA on an embedding column in ONE streaming pass: every batch
    emits the sufficient statistics ``(n, sum(x), X^T X)`` — d + d² floats
    per BATCH, independent of row count — and the driver reduces those tiny
    partials and eigendecomposes the d×d covariance (d is model width,
    64-1024; d² doubles fit any driver).  Returns
    ``(components [k, d], eigvals [k], mean [d])`` with a deterministic
    sign convention (largest-|coefficient| element of each component is
    positive).  The corpus itself never centralizes."""
    import ray

    def partials(batch: pa.Table) -> pa.Table:
        X = np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        g = X.T @ X
        return pa.table({
            "n": pa.array([X.shape[0]], pa.int64()),
            "s": pa.array([X.sum(axis=0)], pa.list_(pa.float64())),
            "g": pa.array([g.reshape(-1)], pa.list_(pa.float64())),
        })

    parts = [t for t in ray.get(
        ds.map_batches(partials, batch_format="pyarrow").materialize().to_arrow_refs()
    ) if t.num_rows]
    n = sum(int(x) for t in parts for x in t["n"].to_pylist())
    if n < 2:
        raise ValueError("PCA needs at least 2 rows")
    d = len(parts[0]["s"][0])
    s = np.zeros(d)
    g = np.zeros((d, d))
    for t in parts:
        for row in t["s"].to_pylist():
            s += np.asarray(row)
        for row in t["g"].to_pylist():
            g += np.asarray(row).reshape(d, d)
    mean = s / n
    cov = (g - n * np.outer(mean, mean)) / (n - 1)
    vals, vecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(vals)[::-1][:k]
    comps = vecs[:, order].T  # [k, d]
    flip = comps[np.arange(len(order)), np.abs(comps).argmax(axis=1)] < 0
    comps[flip] *= -1.0
    return comps, vals[order], mean


def embedding_pca_transform(ds, components: np.ndarray, mean: np.ndarray,
                            id_col: str = "vec_id",
                            emb_col: str = "embedding"):
    """Project the embedding column onto fitted components:
    ``(id_col, proj list<float>)``.  Components broadcast once via
    ``ray.put``; each batch is one centered matmul — the map-only shape."""
    import ray

    ref = ray.put((np.ascontiguousarray(components.T), mean))

    def project(batch: pa.Table) -> pa.Table:
        ct, mu = ray.get(ref)
        X = np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        P = (X - mu) @ ct
        return pa.table({
            id_col: batch[id_col],
            "proj": pa.array(list(P.astype(np.float32)), pa.list_(pa.float32())),
        })

    return ds.map_batches(project, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# int8 scalar quantization (symmetric per-dimension max-abs — the standard
# SQ8 scheme, e.g. Faiss ScalarQuantizer QT_8bit_direct family).  At 100 TB
# the quantized corpus is 4x smaller than float32 — often the difference
# between an embedding table that fits the cluster's page cache and one
# that thrashes it — and the integer dot products make the search kernel
# EXACTLY reproducible in SQL (every op below is IEEE-double or int64 on
# both sides), unlike any float cosine path.
# --------------------------------------------------------------------------- #
def embedding_scales(ds, vec_col: str = "embedding") -> np.ndarray:
    """Per-dimension symmetric int8 scale factors ``127 / max|x_d|`` from
    ONE streaming pass: each batch emits a single d-vector of partial
    maxima (row-count independent), the driver reduces #blocks rows.
    All-zero dimensions get scale 0 (their codes quantize to 0)."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"amax": pa.array([], pa.list_(pa.float64()))})
        V = np.stack(batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        return pa.table(
            {"amax": pa.array([np.abs(V).max(axis=0).tolist()],
                              pa.list_(pa.float64()))}
        )

    tabs = [
        t for t in ray.get(
            ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs())
        if t.num_rows
    ]
    if not tabs:
        raise ValueError("embedding_scales: empty input dataset")
    rows = [np.asarray(r) for t in tabs for r in t["amax"].to_pylist()]
    amax = np.max(np.stack(rows), axis=0)
    return np.where(amax > 0, 127.0 / amax, 0.0)


def quantize_batch(V: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """``clip(floor(v * s + 0.5), -127, 127)`` as int8 — bit-identical to
    the SQL ``LEAST(GREATEST(FLOOR(v * s + 0.5), -127), 127)`` (floor of
    x+0.5 is half-UP rounding, reproducible in both engines, where a
    native round() would be half-to-even in numpy and half-away in
    DuckDB)."""
    C = np.floor(V.astype(np.float64) * scales[None, :] + 0.5)
    return np.clip(C, -127, 127).astype(np.int8)


def quantize_embeddings(ds, vec_col: str = "embedding",
                        id_col: str = "vec_id",
                        scales: np.ndarray | None = None):
    """Quantize an embedding column to int8 codes: returns
    ``(codes_dataset(id_col, code list<int8>), scales)``.  Scales are fit
    with :func:`embedding_scales` unless provided (pass the TRAINING
    corpus's scales when encoding a query/eval set so both sides share one
    codebook).  Map-only; the scale vector broadcasts once via
    ``ray.put``."""
    import ray

    if scales is None:
        scales = embedding_scales(ds, vec_col=vec_col)
    sref = ray.put(np.asarray(scales, np.float64))

    def enc(batch: pa.Table) -> pa.Table:
        s = ray.get(sref)
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "code": pa.array([], pa.list_(pa.int8()))})
        V = np.stack(batch[vec_col].to_numpy(zero_copy_only=False))
        C = quantize_batch(V, s)
        n, d = C.shape
        codes = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32) * d, pa.int32()),
            pa.array(C.ravel(), pa.int8()),
        )
        return pa.table({id_col: batch[id_col], "code": codes})

    return ds.map_batches(enc, batch_format="pyarrow"), scales


def knn_int8(
    ds,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    scales: np.ndarray | None = None,
):
    """Exact-arithmetic top-k over int8-quantized embeddings: score =
    integer dot product of the quantized query and corpus codes,
    ``(query_id, vec_id, dot_q, rank)`` with ties broken by vec_id
    ascending.  The approximation lives entirely in the QUANTIZATION
    (recall vs float cosine is pinned in pytest); the search itself is
    exact integer arithmetic, so the full pipeline (scales -> codes ->
    dots -> top-k) is SQL-oracle-checkable end to end.

    Semantics: the ranking is DOT PRODUCT order, not cosine — L2-normalize
    the corpus upstream when you want cosine semantics (the repo's test
    embeddings are unit-norm, where the two orders coincide).
    Normalization is deliberately NOT folded in here: a float
    sqrt-of-sum reduce inside the operator would make the codes depend
    on summation order and break the SQL hash contract.  Recall caveat
    (measured at 600k x 64d): int8 resolves ~1/254 of each dimension's
    range, so when the true top-k are packed tighter than that
    (cos@1 - cos@100 ~ 0.013 in a dense 32-mode mixture) recall@10
    drops to ~0.36, while at realistic spread (cos@1 - cos@100 ~ 0.07)
    it is ~0.76 and at sf0.01 testdata spread 0.88 — use it as the
    4x-smaller-scan coarse ranker and re-rank survivors in float when
    the corpus is that dense.

    Scale shape: one streaming scale pass (skipped when ``scales`` is
    given), then :func:`quantize_embeddings` feeding
    :func:`knn_int8_codes` — the map-only encode fuses into the code scan,
    so the corpus still streams once past the broadcast query codes."""
    codes_ds, scales = quantize_embeddings(ds, vec_col=vec_col,
                                           id_col=id_col, scales=scales)
    return knn_int8_codes(codes_ds, queries, scales, query_ids=query_ids,
                          k=k, id_col=id_col)


def knn_int8_codes(
    codes_ds,
    queries: np.ndarray,
    scales: np.ndarray,
    query_ids: np.ndarray | None = None,
    k: int = 10,
    code_col: str = "code",
    id_col: str = "vec_id",
):
    """:func:`knn_int8` over a PERSISTED code column — the deployment
    shape where the 4x applies to the SCAN, not just storage: encode once
    with :func:`quantize_embeddings`, `write_parquet` the codes, and
    every subsequent query wave reads a corpus 4x smaller than float32
    (columnar pruning means the float embedding column is never touched).
    ``scales`` MUST be the vector the codes were encoded with (pass the
    tuple `quantize_embeddings` returned; persist it next to the codes) —
    the queries are quantized with it here so both sides share one
    codebook, and results are bit-identical to running :func:`knn_int8`
    on the original float corpus (pinned by pytest).

    Same scale shape as the brute scan: query codes broadcast once, one
    integer matmul per batch (int8 codes lifted to float64: products
    <= 127^2 * d stay exact integers in doubles for d < 5e8), tie-exact
    (dot desc, id asc) local partials, size-gated final reduce."""
    Q = np.asarray(queries, dtype=np.float64)
    scales = np.asarray(scales, np.float64)
    if scales.shape != (Q.shape[1],):
        raise ValueError(
            f"knn_int8_codes: scales has {scales.size} entries but the "
            f"queries have dimension {Q.shape[1]}")
    if query_ids is None:
        query_ids = np.arange(len(Q))
    d = Q.shape[1]

    def score(batch: pa.Table, QC: np.ndarray):
        n, flat = batch.num_rows, _flat_values(batch, code_col)
        if len(flat) != n * d:
            raise ValueError(
                f"knn_int8_codes: {n} code rows hold {len(flat)} values, not "
                f"{n} x {d} (the query dimension)")
        C = np.asarray(flat, dtype=np.int8).reshape(n, d).astype(np.float64)
        return QC @ C.T, None  # exact integer values in float64

    QC = quantize_batch(Q, scales).astype(np.float64)
    t = _knn_scan(codes_ds, query_ids, k, id_col, score, (QC,))
    # the reduce's 6dp rounding is identity on integer-valued doubles
    # (|dot| <= 127^2 * d < 2^53 / 1e6 for d <= ~550k dims)
    dot = t["cosine"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "query_id": t["query_id"],
            "vec_id": t["vec_id"],
            "dot_q": pa.array(dot, pa.int64()),
            "rank": t["rank"],
        }
    )
