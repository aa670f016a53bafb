"""Data selection via importance resampling (DSIR).

Xie et al., "Data Selection for Language Models via Importance
Resampling" (NeurIPS 2023, arXiv:2302.03169): score every raw document by
the log-likelihood ratio of a TARGET distribution (a small set of
exemplar documents — e.g. quality reference text) over the RAW
distribution, both modeled as bag-of-hashed-n-gram unigram LMs, then keep
the top-weighted documents.  This is the standard pretraining-corpus
selection operator (used to pick Pile-quality subsets of CommonCrawl).

Why it scales: the model is FIXED-SIZE by construction — hashed n-gram
features collapse any vocabulary into ``n_buckets`` counts (the paper
uses 10k), so fitting is two streaming counting passes whose per-batch
partials are one ``n_buckets`` vector each (row-count independent, summed
on the driver — no shuffle at all), and scoring is a map-only pass with
the 2x``n_buckets`` int64 model broadcast once via ``ray.put``.  Nothing
here grows with corpus size except the streams themselves.

Exactness: feature hashing uses the repo's md5-u64 scheme
(``hashing.u64``) and per-bucket log-probabilities round to
integer micro-nats (``floor(ln((c+1)/(C+B)) * 1e6 + 0.5)``, add-one
smoothing) exactly like ``unigram_logprob``, so per-doc weights are
order-independent int64 sums and the whole pipeline — features, buckets,
model, weights, selection — replays exactly in DuckDB SQL.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import u64
from .analysis import _flatten_tokens, _group_sum_i64
from .sampling import _seeded_key

# partial count vectors are (#blocks x n_buckets) int64 on the driver; the
# paper's 10k buckets is ~80 KB per block — cap where that reduce stops
# being trivially driver-safe
MAX_BUCKETS = 1_000_000


def _feature_buckets(texts: pa.Array, n_buckets: int, ngrams: int):
    """(bucket ids uint64 < n_buckets, parent row indices) of every
    unigram — and, for ``ngrams >= 2``, every within-doc adjacent bigram
    ``"t1 t2"`` — occurrence in ``texts``.  Bigram features hash the
    joined STRING so the bucket is reproducible as
    ``md5(t1 || ' ' || t2)`` in SQL."""
    flat, parents = _flatten_tokens(texts)
    hs = [u64(flat)]
    ps = [parents]
    if ngrams >= 2 and len(flat) > 1:
        same = parents[1:] == parents[:-1]
        if same.any():
            lead = flat.slice(0, len(flat) - 1)
            trail = flat.slice(1)
            bi = pc.binary_join_element_wise(lead, trail, " ")
            mask = pa.array(same)
            hs.append(u64(bi.filter(mask)))
            ps.append(parents[:-1][same])
    h = np.concatenate(hs) if len(hs) > 1 else hs[0]
    p = np.concatenate(ps) if len(ps) > 1 else ps[0]
    return h % np.uint64(n_buckets), p


def _bucket_counts(ds, text_col: str, n_buckets: int, ngrams: int) -> np.ndarray:
    """Global per-bucket feature-occurrence counts: one streaming pass,
    each batch emitting a single length-``n_buckets`` partial vector."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"c": pa.array([], pa.list_(pa.int64()))})
        b, _p = _feature_buckets(batch[text_col], n_buckets, ngrams)
        cnt = np.bincount(b.astype(np.int64), minlength=n_buckets)
        return pa.table({"c": pa.array([cnt.astype(np.int64).tolist()],
                                       pa.list_(pa.int64()))})

    out = np.zeros(n_buckets, np.int64)
    for t in ray.get(ds.map_batches(partial, batch_format="pyarrow")
                     .materialize().to_arrow_refs()):
        if t.num_rows:
            arr = t["c"].combine_chunks()
            vals = np.asarray(arr.flatten(), np.int64).reshape(-1, n_buckets)
            out += vals.sum(axis=0)
    return out


def _log_micro(counts: np.ndarray) -> np.ndarray:
    """Add-one-smoothed log-probability per bucket in integer micro-nats:
    ``floor(ln((c+1) / (C+B)) * 1e6 + 0.5)`` — identical double ops in
    DuckDB, so the model is bit-reproducible."""
    denom = float(counts.sum() + len(counts))
    return np.floor(
        np.log((counts.astype(np.float64) + 1.0) / denom) * 1e6 + 0.5
    ).astype(np.int64)


def dsir_fit(ds, target_ds, text_col: str = "text",
             n_buckets: int = 10_000, ngrams: int = 2) -> np.ndarray:
    """Fit the DSIR importance model: per-bucket
    ``lambda = micro(target) - micro(raw)`` (int64, length ``n_buckets``).
    Two streaming counting passes; no shuffle.  Argument order matches
    :func:`dsir_weights` / :func:`dsir_sample` — RAW corpus first, then
    the target exemplars (both are same-typed datasets, so a swap would
    silently negate the model; one shared order across the module is the
    guard)."""
    if not 0 < n_buckets <= MAX_BUCKETS:
        raise ValueError(f"n_buckets must be in (0, {MAX_BUCKETS}]")
    t = _bucket_counts(target_ds, text_col, n_buckets, ngrams)
    r = _bucket_counts(ds, text_col, n_buckets, ngrams)
    return _log_micro(t) - _log_micro(r)


def dsir_weights(ds, target_ds, text_col: str = "text",
                 id_col: str = "doc_id", n_buckets: int = 10_000,
                 ngrams: int = 2, lam: np.ndarray | None = None):
    """Per-document DSIR importance weight:
    ``(id_col, n_feats, weight_micro)`` where ``weight_micro`` is the
    int64 sum of the per-bucket log-ratio over every hashed unigram/bigram
    occurrence in the doc.  Docs with no features drop out (they have no
    likelihood under either model — matching the SQL occurrence join).
    Pass a prefit ``lam`` (from :func:`dsir_fit`) to reuse one model
    across deliveries; otherwise it is fit from ``target_ds`` vs ``ds``."""
    import ray

    if lam is None:
        lam = dsir_fit(ds, target_ds, text_col=text_col,
                       n_buckets=n_buckets, ngrams=ngrams)
    lam = np.asarray(lam, np.int64)
    n_buckets = len(lam)
    lref = ray.put(lam)

    def score(batch: pa.Table) -> pa.Table:
        g_lam = ray.get(lref)
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_feats": pa.array([], pa.int64()),
                             "weight_micro": pa.array([], pa.int64())})
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b, p = _feature_buckets(batch[text_col], n_buckets, ngrams)
        n_rows = len(ids)
        n_feats = np.bincount(p, minlength=n_rows).astype(np.int64)
        w = _group_sum_i64(p, g_lam[b.astype(np.int64)], n_rows)
        keep = n_feats > 0
        return pa.table({id_col: pa.array(ids[keep], pa.int64()),
                         "n_feats": pa.array(n_feats[keep], pa.int64()),
                         "weight_micro": pa.array(w[keep], pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow")


# driver-side final-reduce gate, same constant/role as simsearch's
# _DRIVER_REDUCE_MAX_ROWS: below it the #blocks x n partials collapse in
# one driver pass; above it extra distributed fan-in rounds shrink them
# first (at 100 TB, ~1e6 blocks x n=10k would otherwise centralize 1e10
# candidate rows)
_DRIVER_TOPN_MAX_ROWS = 2_000_000


def _gumbel_keys(ids: np.ndarray, wm: np.ndarray, temperature: float,
                 seed: int) -> np.ndarray:
    """Seeded Gumbel-perturbed selection key per doc:
    ``weight_micro * 1e-6 + T * (-ln(-ln(u)))`` where ``u`` is a pure
    function of (seed, id) — so the key is deterministic, block-layout
    independent, AND bit-reproducible in SQL.  ``u`` construction: the
    md5-u64 (:mod:`riot_ray.hashing`) of ``"{seed}:{id}"`` keeps its top
    53 bits with the low bit forced odd (``(h >> 11) | 1``), times 2^-53 —
    an exactly-representable double in (0, 1), never 0 or 1, so neither
    engine's ``ln`` can see a pole (a plain ``(h+0.5)/2^64`` rounds to 1.0
    for h near 2^64 and NaNs/errors out).  SQL twin:
    ``weight_micro * 1e-6 + T * (-ln(-ln(
        (((('0x' || substr(md5(seed || ':' || id), 1, 16))::UBIGINT
           // 2048) | 1))::DOUBLE * power(2.0, -53))))``.
    The twin replays bit for bit only while numpy's ``log`` and DuckDB's
    ``ln`` return the same double for every ``u``: both call the platform
    libm here, but IEEE 754 does not require a correctly rounded ``log``,
    so on another libm a 1-ulp difference could swap near-tied keys.
    (``temperature=0`` sorts raw integer weights and is exact anywhere.)"""
    h = u64(_seeded_key(ids, seed))
    u = ((h >> np.uint64(11)) | np.uint64(1)).astype(np.float64) * 2.0 ** -53
    return wm.astype(np.float64) * 1e-6 + temperature * (-np.log(-np.log(u)))


def dsir_sample(ds, target_ds, n: int, text_col: str = "text",
                id_col: str = "doc_id", n_buckets: int = 10_000,
                ngrams: int = 2, lam: np.ndarray | None = None,
                temperature: float = 0.0, seed: int = 0) -> pa.Table:
    """Select ``n`` documents by DSIR importance: ``(id_col,
    weight_micro)``.  ``temperature=0`` (default) is the deterministic
    top-n — (weight desc, id asc), the paper's temperature->0 limit.
    ``temperature>0`` is the paper's actual Gumbel-top-k sampler: top-n
    by ``weight/1e6 + T*Gumbel(seed, id)`` — a without-replacement
    sample whose inclusion probabilities follow the softmax of
    weights/T, yet still deterministic given ``seed`` (noise is a pure
    hash of (seed, id); see :func:`_gumbel_keys`), so even the SAMPLED
    variant replays exactly in SQL.  Scale shape: the weights stream
    emits per-batch top-``n`` partials (#blocks x n rows — which GROWS
    with corpus size), so the final reduce is gated like simsearch's
    ``_reduce_topk``: under ``_DRIVER_TOPN_MAX_ROWS`` the partials
    collapse in one driver pass; above it, repartition + re-select
    rounds shrink them geometrically off-driver first (each round is
    exact — the selection key is a pure row function, so pruning a
    candidate outside a block's top-n can never evict a global
    top-n row)."""
    import ray

    w = dsir_weights(ds, target_ds, text_col=text_col, id_col=id_col,
                     n_buckets=n_buckets, ngrams=ngrams, lam=lam)

    def topn_table(ids: np.ndarray, wm: np.ndarray) -> pa.Table:
        if temperature > 0.0:
            key = _gumbel_keys(ids, wm, temperature, seed)
        else:
            key = wm
        order = np.lexsort((ids, -key))[:n]
        return pa.table({id_col: pa.array(ids[order], pa.int64()),
                         "weight_micro": pa.array(wm[order], pa.int64())})

    def partial_topn(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        wm = batch["weight_micro"].to_numpy(zero_copy_only=False)
        if batch.num_rows <= n and temperature <= 0.0:
            return batch.select([id_col, "weight_micro"])
        return topn_table(ids, wm)

    partials = w.map_batches(partial_topn, batch_format="pyarrow").materialize()
    rows = partials.count()
    while rows > _DRIVER_TOPN_MAX_ROWS and rows > n:
        # distributed fan-in: ~64n candidate rows per block -> n survive,
        # so each round shrinks the candidate set ~64x (exact, see above)
        n_blocks = max(1, rows // (64 * n))
        partials = (partials.repartition(n_blocks)
                    .map_batches(partial_topn, batch_format="pyarrow")
                    .materialize())
        rows = partials.count()
    tabs = [t for t in ray.get(partials.to_arrow_refs()) if t.num_rows]
    if not tabs:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "weight_micro": pa.array([], pa.int64())})
    t = pa.concat_tables(tabs).combine_chunks()
    return topn_table(t[id_col].to_numpy(zero_copy_only=False),
                      t["weight_micro"].to_numpy(zero_copy_only=False))
