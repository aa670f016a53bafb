"""Windowed token co-occurrence counts + PMI (pointwise mutual
information) — the word-association statistic under word2vec/GloVe-era
embeddings and collocation mining.

Semantics (chosen to be exactly SQL-expressible): a co-occurrence is an
ordered position pair (i, j) with 0 < j - i <= window inside one doc's
filtered token stream; the pair key is the UNORDERED token pair
canonicalized by string order (ASCII tokens, so python and SQL binary
collation agree).  PMI uses the pair-table marginals:

    pmi_micro(a, b) = floor(ln((c_ab * N) / (m_a * m_b)) * 1e6 + 0.5)

with N = total co-occurrences and m_x = sum of counts of pairs touching
x — every product computed in float64 exactly as the DuckDB oracle
writes it, so results hash-match.

Scale shape: pass 1 ships batch-combined (a, b, cnt) pair rows through
ONE hash-partitioned shuffle (pairs are emitted once per batch via a
vectorized offset-d scan — window small, d = 1..window vectorized
passes); marginals are a second vocabulary-sized shuffle over the pair
table; the marginal table attaches size-gated (broadcast under
``BROADCAST_BYTES``, else two hash joins).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import u64
from .analysis import _flatten_tokens


def _pair_partial(batch: pa.Table, text_col: str, window: int,
                  num_partitions: int) -> pa.Table:
    flat, parents = _flatten_tokens(batch[text_col])
    empty = pa.table({"a": pa.array([], pa.string()),
                      "b": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64()),
                      "__part": pa.array([], pa.int32())})
    n = len(flat)
    if n < 2:
        return empty
    denc = pc.dictionary_encode(flat)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = np.asarray(denc.dictionary.to_pylist(), dtype=object)
    # rank in batch-local string order: rank comparison == string comparison
    order = np.argsort(uniq)
    rank_of = np.empty(len(uniq), np.int64)
    rank_of[order] = np.arange(len(uniq))
    sorted_uniq = uniq[order]
    r = rank_of[codes]
    U = len(uniq)
    packs = []
    for d in range(1, window + 1):
        if d >= n:
            break
        same = parents[d:] == parents[:-d]
        r1, r2 = r[:-d][same], r[d:][same]
        lo = np.minimum(r1, r2)
        hi = np.maximum(r1, r2)
        packs.append(lo * U + hi)
    if not packs:
        return empty
    allp = np.concatenate(packs)
    keys, cnt = np.unique(allp, return_counts=True)
    a = sorted_uniq[keys // U]
    b = sorted_uniq[keys % U]
    kh = u64(pa.array(a, pa.string()))
    kh = kh * np.uint64(0x9E3779B97F4A7C15) ^ u64(
        pa.array(b, pa.string()))
    part = (kh % np.uint64(num_partitions)).astype(np.int32)
    return pa.table({"a": pa.array(a, pa.string()),
                     "b": pa.array(b, pa.string()),
                     "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                     "__part": pa.array(part, pa.int32())})


def cooc_pairs(ds, text_col: str = "text", window: int = 5,
               num_partitions: int | None = None):
    """The reduced co-occurrence pair Dataset (a, b, cnt), unique on
    (a, b)."""
    from .dedup import _join_parts

    num_partitions = _join_parts(num_partitions)

    def reduce_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        a = np.asarray(group["a"].to_pylist(), dtype=object)
        b = np.asarray(group["b"].to_pylist(), dtype=object)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        sa, sb, sc = a[order], b[order], cnt[order]
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = (sa[1:] != sa[:-1]) | (sb[1:] != sb[:-1])
        starts = np.flatnonzero(first)
        tot = np.add.reduceat(sc, starts)
        return pa.table({"a": pa.array(sa[starts], pa.string()),
                         "b": pa.array(sb[starts], pa.string()),
                         "cnt": pa.array(tot, pa.int64())})

    return (
        ds.map_batches(
            lambda batch: _pair_partial(batch, text_col, window,
                                        num_partitions),
            batch_format="pyarrow")
        .groupby("__part")
        .map_groups(reduce_pairs, batch_format="pyarrow")
    )


def ppmi_embeddings(ds, dim: int = 32, window: int = 5,
                    min_count: int = 2, top_vocab: int = 2048,
                    text_col: str = "text",
                    num_partitions: int | None = None):
    """Word embeddings from the corpus itself: truncated eigendecomposition
    of the positive-PMI co-occurrence matrix (Levy & Goldberg 2014 showed
    skip-gram factorizes exactly this).  The co-occurrence table is built
    distributed (:func:`cooc_pairs`); only the ``top_vocab`` x
    ``top_vocab`` PPMI block (tokens ranked by co-occurrence marginal)
    centralizes — a bounded dense symmetric matrix, eigendecomposed on the
    driver with a deterministic sign convention.

    Returns ``(tokens [V], vectors [V, dim] float64)`` with rows aligned;
    vectors = U_k * sqrt(lambda_k) over the top-``dim`` non-negative
    eigenvalues.  Floats => rows-only in the driver contract; pytest pins
    planted-collocation geometry and block-count determinism."""
    import ray

    from .dedup import _join_parts

    num_partitions = _join_parts(num_partitions)
    pairs = cooc_pairs(ds, text_col, window, num_partitions).materialize()
    N = float(pairs.sum("cnt") or 0)         # UNFILTERED total (definition)
    if not N:
        return [], np.empty((0, dim))

    # marginals from the UNFILTERED pair table (matching pmi_pairs),
    # computed distributed; the driver sees only per-batch top-V partials
    # (batches x top_vocab rows), never the vocabulary or the pair table
    def marg_partial(batch: pa.Table) -> pa.Table:
        toks = np.concatenate([
            np.asarray(batch["a"].to_pylist(), dtype=object),
            np.asarray(batch["b"].to_pylist(), dtype=object),
        ])
        cnt2 = np.concatenate([
            batch["cnt"].to_numpy(zero_copy_only=False),
            batch["cnt"].to_numpy(zero_copy_only=False),
        ])
        uniq, inv = np.unique(toks, return_inverse=True)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, inv, cnt2)
        part = (u64(pa.array(uniq, pa.string()))
                % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"tok": pa.array(uniq, pa.string()),
                         "m": pa.array(tot, pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def marg_reduce_top(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"tok": pa.array([], pa.string()),
                             "m": pa.array([], pa.int64())})
        toks = np.asarray(group["tok"].to_pylist(), dtype=object)
        m = group["m"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(toks, return_inverse=True)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, inv, m)
        keep = np.lexsort((uniq, -tot))[:top_vocab]  # partial pre-cap
        return pa.table({"tok": pa.array(uniq[keep], pa.string()),
                         "m": pa.array(tot[keep], pa.int64())})

    marg_tabs = [t for t in ray.get(
        pairs.map_batches(marg_partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(marg_reduce_top, batch_format="pyarrow")
        .materialize().to_arrow_refs()) if t.num_rows]
    if not marg_tabs:
        return [], np.empty((0, dim))
    mt = pa.concat_tables(marg_tabs).combine_chunks()
    mtoks = np.asarray(mt["tok"].to_pylist(), dtype=object)
    mm = mt["m"].to_numpy(zero_copy_only=False)
    order = np.lexsort((mtoks, -mm))[:top_vocab]
    sel_toks = mtoks[order]
    sel_m = mm[order].astype(np.float64)
    vref = ray.put(np.sort(sel_toks))

    # map-side block filter: only (a, b) pairs with BOTH tokens in the
    # top-V set (and cnt >= min_count) reach the driver — <= V^2/2 rows
    def block_pairs(batch: pa.Table) -> pa.Table:
        g_t = ray.get(vref)
        keep = pc.greater_equal(batch["cnt"], min_count)
        t = batch.filter(keep)
        if t.num_rows == 0:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        a = np.asarray(t["a"].to_pylist(), dtype=object)
        b = np.asarray(t["b"].to_pylist(), dtype=object)

        def member(x):
            pos = np.searchsorted(g_t, x)
            ok = pos < len(g_t)
            ok[ok] = g_t[pos[ok]] == x[ok]
            return ok

        m = member(a) & member(b)
        return t.filter(pa.array(m))

    blk_tabs = [t for t in ray.get(
        pairs.map_batches(block_pairs, batch_format="pyarrow")
        .materialize().to_arrow_refs()) if t.num_rows]
    V = len(sel_toks)
    M = np.zeros((V, V))
    # row index in the OUTPUT order (sel_toks order): map token -> row
    tok_row = {t_: i for i, t_ in enumerate(sel_toks.tolist())}
    m_of = {t_: sel_m[i] for i, t_ in enumerate(sel_toks.tolist())}
    for t in blk_tabs:
        a = t["a"].to_pylist()
        b = t["b"].to_pylist()
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        ra = np.fromiter((tok_row[x] for x in a), np.int64, count=len(a))
        rb = np.fromiter((tok_row[x] for x in b), np.int64, count=len(b))
        ma = np.fromiter((m_of[x] for x in a), np.float64, count=len(a))
        mb = np.fromiter((m_of[x] for x in b), np.float64, count=len(b))
        ppmi = np.maximum(np.log((cnt * N) / (ma * mb)), 0.0)
        M[ra, rb] = ppmi
        M[rb, ra] = ppmi
    vals, vecs = np.linalg.eigh(M)           # ascending
    top = np.argsort(vals)[::-1][:dim]
    lam = np.maximum(vals[top], 0.0)
    E = vecs[:, top] * np.sqrt(lam)[None, :]
    if E.shape[1] < dim:                      # V < dim: pad to [V, dim]
        E = np.concatenate(
            (E, np.zeros((V, dim - E.shape[1]))), axis=1)
    # deterministic sign: largest-|coefficient| entry of each axis positive
    for j in range(E.shape[1]):
        col = E[:, j]
        if len(col) and col[np.abs(col).argmax()] < 0:
            E[:, j] = -col
    return sel_toks.tolist(), E


def pmi_pairs(ds, text_col: str = "text", window: int = 5,
              min_count: int = 5, num_partitions: int | None = None):
    """(tok_a, tok_b, cnt, pmi_micro) for pairs with cnt >= min_count.
    Marginals and N come from the UNFILTERED pair table (the statistic's
    definition), attached size-gated."""
    import ray

    from .dedup import BROADCAST_BYTES, _hash_join, _join_parts

    num_partitions = _join_parts(num_partitions)
    pairs = cooc_pairs(ds, text_col, window, num_partitions).materialize()
    N = int(pairs.sum("cnt") or 0)
    if not N:
        return pairs.map_batches(
            lambda b: pa.table({"tok_a": pa.array([], pa.string()),
                                "tok_b": pa.array([], pa.string()),
                                "cnt": pa.array([], pa.int64()),
                                "pmi_micro": pa.array([], pa.int64())}),
            batch_format="pyarrow")

    # marginals: vocabulary-sized second shuffle over the pair table
    def marg_partial(batch: pa.Table) -> pa.Table:
        toks = np.concatenate([
            np.asarray(batch["a"].to_pylist(), dtype=object),
            np.asarray(batch["b"].to_pylist(), dtype=object),
        ])
        cnt = np.concatenate([
            batch["cnt"].to_numpy(zero_copy_only=False),
            batch["cnt"].to_numpy(zero_copy_only=False),
        ])
        uniq, inv = np.unique(toks, return_inverse=True)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, inv, cnt)
        part = (u64(pa.array(uniq, pa.string()))
                % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"tok": pa.array(uniq, pa.string()),
                         "m": pa.array(tot, pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def marg_reduce(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"tok": pa.array([], pa.string()),
                             "m": pa.array([], pa.int64())})
        toks = np.asarray(group["tok"].to_pylist(), dtype=object)
        m = group["m"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(toks, return_inverse=True)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, inv, m)
        return pa.table({"tok": pa.array(uniq, pa.string()),
                         "m": pa.array(tot, pa.int64())})

    marg = (
        pairs.map_batches(marg_partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(marg_reduce, batch_format="pyarrow")
        .materialize()
    )
    n_vocab = marg.count()

    def finish(a, b, cnt, ma, mb) -> pa.Table:
        pmi = np.floor(
            np.log((cnt.astype(np.float64) * float(N))
                   / (ma.astype(np.float64) * mb.astype(np.float64)))
            * 1e6 + 0.5
        ).astype(np.int64)
        return pa.table({"tok_a": pa.array(a, pa.string()),
                         "tok_b": pa.array(b, pa.string()),
                         "cnt": pa.array(cnt, pa.int64()),
                         "pmi_micro": pa.array(pmi, pa.int64())})

    if n_vocab * 24 <= BROADCAST_BYTES:
        tabs = [t for t in ray.get(marg.materialize().to_arrow_refs()) if t.num_rows]
        mt = pa.concat_tables(tabs).combine_chunks()
        toks = np.asarray(mt["tok"].to_pylist(), dtype=object)
        ms = mt["m"].to_numpy(zero_copy_only=False)
        order = np.argsort(toks)
        mref = ray.put((toks[order], ms[order]))

        def score(batch: pa.Table) -> pa.Table:
            g_t, g_m = ray.get(mref)
            keep = pc.greater_equal(batch["cnt"], min_count)
            t = batch.filter(keep)
            if t.num_rows == 0:
                return finish(np.empty(0, object), np.empty(0, object),
                              np.empty(0, np.int64), np.empty(0, np.int64),
                              np.empty(0, np.int64))
            a = np.asarray(t["a"].to_pylist(), dtype=object)
            b = np.asarray(t["b"].to_pylist(), dtype=object)
            cnt = t["cnt"].to_numpy(zero_copy_only=False)
            ma = g_m[np.searchsorted(g_t, a)]
            mb = g_m[np.searchsorted(g_t, b)]
            return finish(a, b, cnt, ma, mb)

        return pairs.map_batches(score, batch_format="pyarrow")

    # marginal table over the gate: two hash joins (a then b)
    pair_schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                             ("cnt", pa.int64())])
    marg_schema = pa.schema([("tok", pa.string()), ("m", pa.int64())])
    filt = pairs.map_batches(
        lambda b: b.filter(pc.greater_equal(b["cnt"], min_count)),
        batch_format="pyarrow")
    j1 = _hash_join(filt, marg, "a", "tok", {"m": "ma"}, num_partitions,
                    left_schema=pair_schema, right_schema=marg_schema)
    j1_schema = pa.schema(list(pair_schema) + [("ma", pa.int64())])
    j2 = _hash_join(j1, marg, "b", "tok", {"m": "mb"}, num_partitions,
                    left_schema=j1_schema, right_schema=marg_schema)

    def score2(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return finish(np.empty(0, object), np.empty(0, object),
                          np.empty(0, np.int64), np.empty(0, np.int64),
                          np.empty(0, np.int64))
        return finish(
            np.asarray(batch["a"].to_pylist(), dtype=object),
            np.asarray(batch["b"].to_pylist(), dtype=object),
            batch["cnt"].to_numpy(zero_copy_only=False),
            batch["ma"].to_numpy(zero_copy_only=False),
            batch["mb"].to_numpy(zero_copy_only=False),
        )

    return j2.map_batches(score2, batch_format="pyarrow")
