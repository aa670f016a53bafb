"""Distributed Multinomial Naive Bayes over a labeled text column.

The classic curation move (CCNet / Gopher / quality-filter pipelines
train small linear models to score documents): fit a multinomial NB on
the corpus's own labels (language, source, quality bucket), then score
every document — all as Ray Data aggregations.  NB is the distributed-
ML sweet spot: *fitting is a counting groupby* (exact, order-
independent, one vocabulary-sized shuffle) and *prediction is a
broadcast matmul-shaped scan*, so unlike SGD-trained models the result
is bit-reproducible at any block count AND checkable against a pure
SQL oracle.

All arithmetic is exact int64 "micro-nats" (the unigram_logprob
convention): with add-one smoothing over vocabulary size V,

    loglik_micro(c, tok) = floor(ln((cnt(c,tok)+1) / (tot(c)+V)) * 1e6 + .5)
    prior_micro(c)       = floor(ln(n_docs(c) / n_docs) * 1e6 + .5)
    score(d, c)          = prior_micro(c) + sum_tok tf(d,tok) * loglik_micro(c,tok)

prediction = argmax_c score, ties broken by class name ascending.
Unseen-in-class tokens contribute the smoothed cnt=0 term; docs with no
tokens drop out (same as the SQL occurrence join).

Scale shape: label set is tiny (priors reduce to the driver as bounded
per-batch partials); token-class counts move through ONE hash-
partitioned shuffle with per-batch combining; the fitted (V x C) micro
table attaches size-gated — broadcast sorted arrays under
``BROADCAST_BYTES``, else per-doc (kh, tf) rows hash-join the model
rows and re-reduce per doc hash partition (per-doc state never
centralizes).  Both paths are pinned bit-equal in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import u64
from .analysis import _flatten_tokens, _group_sum_i64

# reserved join key for the "doc exists" marker rows on the join path; a
# real token hashing to this value (p = 2^-64 per token type) would merge
# with the zero-contribution marker model row — same ignorable-collision
# class as every other 64-bit-hash assumption in pipelines/.
_DOC_MARKER_KH = np.int64(-(1 << 63))


def _out_schema(id_col: str) -> pa.Schema:
    return pa.schema([(id_col, pa.int64()), ("pred", pa.string()),
                      ("score_micro", pa.int64()), ("n_tokens", pa.int64())])


def _empty_out(id_col: str) -> pa.Table:
    return _out_schema(id_col).empty_table()


def _micro(num: np.ndarray, den: float) -> np.ndarray:
    """floor(ln(num/den)*1e6 + 0.5) as int64 — num cast to float64 first so
    the double division matches the SQL oracle's bit-for-bit."""
    return np.floor(
        np.log(num.astype(np.float64) / den) * 1e6 + 0.5
    ).astype(np.int64)


def nb_fit(ds, text_col: str = "text", label_col: str = "label",
           num_partitions: int | None = None):
    """Fit the NB model.  Returns ``(classes, prior_micro, counts_ds, tot,
    V)`` where ``classes`` is the sorted label list, ``prior_micro`` the
    per-class prior, ``counts_ds`` a Dataset of (kh, lab, cnt, newkh)
    unique on (kh, lab), ``tot`` the per-class token totals and ``V`` the
    corpus vocabulary size."""
    import ray

    from .dedup import _join_parts

    num_partitions = _join_parts(num_partitions)

    # priors: per-batch (label, n_docs) partials, driver-reduced (bounded
    # by n_batches x n_labels rows — labels are categorical by contract)
    def label_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        labs = pc.fill_null(batch[label_col].cast(pa.string()), "")
        enc = labs.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        n = np.bincount(codes, minlength=len(enc.dictionary)).astype(np.int64)
        return pa.table({"lab": enc.dictionary.cast(pa.string()),
                         "n": pa.array(n, pa.int64())})

    parts = [t for t in ray.get(
        ds.map_batches(label_partial, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    ) if t.num_rows]
    if not parts:
        raise ValueError("nb_fit: empty input")
    lt = pa.concat_tables(parts).combine_chunks()
    labs_all = np.asarray(lt["lab"].to_pylist(), dtype=object)
    n_all = lt["n"].to_numpy(zero_copy_only=False)
    classes, inv = np.unique(labs_all, return_inverse=True)
    ndocs_c = np.zeros(len(classes), np.int64)
    np.add.at(ndocs_c, inv, n_all)
    prior_micro = _micro(ndocs_c, float(ndocs_c.sum()))
    class_code = {c: i for i, c in enumerate(classes.tolist())}

    # (token, class) occurrence counts: batch-combined, one kh-partitioned
    # shuffle; ``newkh`` marks the first class row of each kh within its
    # partition (kh lives in exactly one partition), so V = sum(newkh)
    def tok_partial(batch: pa.Table) -> pa.Table:
        labs = batch[label_col].cast(pa.string()).to_pylist()
        lab_codes = np.fromiter((class_code[l if l is not None else ""]
                                 for l in labs),
                                np.int64, count=len(labs))
        flat, parents = _flatten_tokens(batch[text_col])
        kh = u64(flat).view(np.int64)
        lc = lab_codes[parents]
        order = np.lexsort((lc, kh))
        ks, ls = kh[order], lc[order]
        first = np.empty(len(order), bool)
        if len(order):
            first[0] = True
            first[1:] = (ks[1:] != ks[:-1]) | (ls[1:] != ls[:-1])
        starts = np.flatnonzero(first)
        cnt = np.diff(np.concatenate((starts, [len(order)])))
        uk, ul = ks[starts], ls[starts]
        part = (uk.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"kh": pa.array(uk, pa.int64()),
                         "lab": pa.array(ul, pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def tok_reduce(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"kh": pa.array([], pa.int64()),
                             "lab": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64()),
                             "newkh": pa.array([], pa.int64())})
        kh = group["kh"].to_numpy(zero_copy_only=False)
        lab = group["lab"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((lab, kh))
        ks, ls, cs = kh[order], lab[order], cnt[order]
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = (ks[1:] != ks[:-1]) | (ls[1:] != ls[:-1])
        starts = np.flatnonzero(first)
        tot = np.add.reduceat(cs, starts)
        uk, ul = ks[starts], ls[starts]
        newkh = np.empty(len(uk), bool)
        newkh[0] = True
        newkh[1:] = uk[1:] != uk[:-1]
        return pa.table({"kh": pa.array(uk, pa.int64()),
                         "lab": pa.array(ul, pa.int64()),
                         "cnt": pa.array(tot, pa.int64()),
                         "newkh": pa.array(newkh.astype(np.int64), pa.int64())})

    counts = (
        ds.map_batches(tok_partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(tok_reduce, batch_format="pyarrow")
        .materialize()
    )
    V = int(counts.sum("newkh") or 0)

    # per-class token totals: bounded per-batch partials to the driver
    def tot_partial(batch: pa.Table) -> pa.Table:
        lab = batch["lab"].to_numpy(zero_copy_only=False)
        cnt = batch["cnt"].to_numpy(zero_copy_only=False)
        t = np.zeros(len(classes), np.int64)
        np.add.at(t, lab, cnt)
        return pa.table({"lab": pa.array(np.arange(len(classes)), pa.int64()),
                         "t": pa.array(t, pa.int64())})

    tot = np.zeros(len(classes), np.int64)
    for t in ray.get(counts.map_batches(
            tot_partial, batch_format="pyarrow").materialize().to_arrow_refs()):
        if t.num_rows:
            np.add.at(tot, t["lab"].to_numpy(zero_copy_only=False),
                      t["t"].to_numpy(zero_copy_only=False))
    return classes.tolist(), prior_micro, counts, tot, V


def nb_classify(
    ds,
    text_col: str = "text",
    label_col: str = "label",
    id_col: str = "doc_id",
    predict_ds=None,
    num_partitions: int | None = None,
):
    """Train on ``ds``'s labels, score ``predict_ds`` (default: ``ds``
    itself — label recovery / self-consistency scoring).  Returns
    ``(id_col, pred, score_micro, n_tokens)`` for every doc with >= 1
    token; ``score_micro`` is the winning class's exact integer score."""
    import ray

    from .dedup import BROADCAST_BYTES, _hash_join, _join_parts

    num_partitions = _join_parts(num_partitions)
    classes, prior_micro, counts, tot, V = nb_fit(
        ds, text_col, label_col, num_partitions)
    if V == 0:
        raise ValueError(
            "nb_classify: training corpus has no tokens — the smoothed "
            "likelihood (cnt+1)/(tot+V) is undefined at V=0"
        )
    if predict_ds is None:
        predict_ds = ds
    C = len(classes)
    den = tot.astype(np.float64) + float(V)           # per-class denominator
    default_micro = np.floor(
        np.log(1.0 / den) * 1e6 + 0.5
    ).astype(np.int64)                                 # cnt=0 smoothing term
    classes_arr = np.asarray(classes, dtype=object)

    n_vocab = counts.count()
    if n_vocab * (8 + 8 * C) <= BROADCAST_BYTES:
        # model matrix: V sorted kh + (V x C) int64 micro, defaults filled
        tabs = [t for t in ray.get(counts.materialize().to_arrow_refs()) if t.num_rows]
        if tabs:
            ct = pa.concat_tables(tabs).combine_chunks()
            kh = ct["kh"].to_numpy(zero_copy_only=False)
            lab = ct["lab"].to_numpy(zero_copy_only=False)
            cnt = ct["cnt"].to_numpy(zero_copy_only=False)
            kh_s = np.unique(kh)
            M = np.tile(default_micro, (len(kh_s), 1))
            rows = np.searchsorted(kh_s, kh)
            M[rows, lab] = np.floor(
                np.log((cnt + 1).astype(np.float64) / den[lab]) * 1e6 + 0.5
            ).astype(np.int64)
        else:
            kh_s = np.empty(0, np.int64)
            M = np.empty((0, C), np.int64)
        ref = ray.put((kh_s, M))

        def score(batch: pa.Table) -> pa.Table:
            g_kh, g_M = ray.get(ref)
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            flat, parents = _flatten_tokens(batch[text_col])
            kh = u64(flat).view(np.int64)
            n_rows = len(ids)
            n_tok = np.bincount(parents, minlength=n_rows).astype(np.int64)
            pos = np.searchsorted(g_kh, kh)
            found = np.zeros(len(kh), bool)
            inb = pos < len(g_kh)
            found[inb] = g_kh[pos[inb]] == kh[inb]
            scores = np.empty((n_rows, C), np.int64)
            for c in range(C):
                m = np.where(found, g_M[np.minimum(pos, max(len(g_kh) - 1, 0)), c],
                             default_micro[c])
                scores[:, c] = _group_sum_i64(parents, m, n_rows) + prior_micro[c]
            best = np.argmax(scores, axis=1)   # first max = class asc tiebreak
            keep = n_tok > 0
            return pa.table({
                id_col: pa.array(ids[keep], pa.int64()),
                "pred": pa.array(classes_arr[best[keep]], pa.string()),
                "score_micro": pa.array(scores[keep, best[keep]], pa.int64()),
                "n_tokens": pa.array(n_tok[keep], pa.int64()),
            })

        return predict_ds.map_batches(score, batch_format="pyarrow")

    # over the broadcast gate: model rows (kh, C micros) hash-join the
    # per-doc (kh, tf) occurrence rows; a zero-contribution marker row per
    # doc keeps all-OOV docs in the (inner) join.  Model rows are built
    # per kh-hash GROUP (map_groups hands each group whole), never per
    # batch — a kh's C class rows straddling a batch/block boundary would
    # otherwise yield two partial model rows and _hash_join (right side
    # must be unique on the key) would join only the first, scoring the
    # straddled classes with the unseen-token default.
    def tag_kh(batch: pa.Table) -> pa.Table:
        kh = batch["kh"].to_numpy(zero_copy_only=False)
        part = (kh.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return batch.append_column("__mpart", pa.array(part, pa.int32()))

    def model_rows(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"kh": pa.array([], pa.int64()),
                             "micros": pa.array([], pa.list_(pa.int64()))})
        kh = group["kh"].to_numpy(zero_copy_only=False)
        lab = group["lab"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        kh_u, inv = np.unique(kh, return_inverse=True)
        M = np.tile(default_micro, (len(kh_u), 1))
        M[inv, lab] = np.floor(
            np.log((cnt + 1).astype(np.float64) / den[lab]) * 1e6 + 0.5
        ).astype(np.int64)
        return pa.table({"kh": pa.array(kh_u, pa.int64()),
                         "micros": pa.array(list(M), pa.list_(pa.int64()))})

    marker = pa.table({"kh": pa.array([_DOC_MARKER_KH], pa.int64()),
                       "micros": pa.array([np.zeros(C, np.int64)],
                                          pa.list_(pa.int64()))})
    import ray.data as rd

    model_ds = (
        counts.map_batches(tag_kh, batch_format="pyarrow")
        .groupby("__mpart")
        .map_groups(model_rows, batch_format="pyarrow")
        .union(rd.from_arrow(marker))
    )

    def occ(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        flat, parents = _flatten_tokens(batch[text_col])
        kh = u64(flat).view(np.int64)
        order = np.lexsort((kh, parents))
        ps, ks = parents[order], kh[order]
        first = np.empty(len(order), bool)
        if len(order):
            first[0] = True
            first[1:] = (ps[1:] != ps[:-1]) | (ks[1:] != ks[:-1])
        starts = np.flatnonzero(first)
        tf = np.diff(np.concatenate((starts, [len(order)]))).astype(np.int64)
        n_rows = len(ids)
        ntok = np.bincount(parents, minlength=n_rows).astype(np.int64)
        op, ok_, otf = ps[starts], ks[starts], tf
        # one marker row per doc with >= 1 token
        has = np.flatnonzero(ntok > 0)
        mp = np.concatenate((op, has))
        mk = np.concatenate((ok_, np.full(len(has), _DOC_MARKER_KH)))
        mtf = np.concatenate((otf, np.zeros(len(has), np.int64)))
        return pa.table({id_col: pa.array(ids[mp], pa.int64()),
                         "kh": pa.array(mk, pa.int64()),
                         "tf": pa.array(mtf, pa.int64()),
                         "ntok": pa.array(ntok[mp], pa.int64())})

    occ_schema = pa.schema([(id_col, pa.int64()), ("kh", pa.int64()),
                            ("tf", pa.int64()), ("ntok", pa.int64())])
    model_schema = pa.schema([("kh", pa.int64()),
                              ("micros", pa.list_(pa.int64()))])
    joined = _hash_join(
        predict_ds.map_batches(occ, batch_format="pyarrow"),
        model_ds, "kh", "kh", {"micros": "micros"}, num_partitions,
        left_schema=occ_schema, right_schema=model_schema,
    )

    def tag_doc(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        part = (ids.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return batch.append_column("__dpart", pa.array(part, pa.int32()))

    def per_doc(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _empty_out(id_col)
        ids = group[id_col].to_numpy(zero_copy_only=False)
        tf = group["tf"].to_numpy(zero_copy_only=False)
        ntok = group["ntok"].to_numpy(zero_copy_only=False)
        mi = group["micros"]
        if isinstance(mi, pa.ChunkedArray):
            mi = mi.combine_chunks()
        M = np.asarray(mi.flatten().to_numpy(zero_copy_only=False),
                       np.int64).reshape(-1, C)
        uniq, inv = np.unique(ids, return_inverse=True)
        n_tok = np.zeros(len(uniq), np.int64)
        # ntok is constant per doc; marker rows carry it too
        n_tok[inv] = ntok
        # matched-token tf sum per doc -> OOV remainder gets the default
        tf_matched = _group_sum_i64(inv, tf, len(uniq))
        oov = n_tok - tf_matched
        scores = np.empty((len(uniq), C), np.int64)
        for c in range(C):
            scores[:, c] = (
                _group_sum_i64(inv, tf * M[:, c], len(uniq))
                + oov * default_micro[c] + prior_micro[c]
            )
        best = np.argmax(scores, axis=1)
        return pa.table({
            id_col: pa.array(uniq, pa.int64()),
            "pred": pa.array(classes_arr[best], pa.string()),
            "score_micro": pa.array(scores[np.arange(len(uniq)), best],
                                    pa.int64()),
            "n_tokens": pa.array(n_tok, pa.int64()),
        })

    return (
        joined.map_batches(tag_doc, batch_format="pyarrow")
        .groupby("__dpart")
        .map_groups(per_doc, batch_format="pyarrow")
    )
