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
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

from ..hashing import u64
from .analysis import (_doc_key_tf, _flatten_tokens, _group_sum_i64, _micro,
                       _occ_schema, _occ_table, _token_tf)

# reserved key of the per-doc "doc exists" row: it carries the doc's token
# count as its tf and joins a zero-micro model row, so a doc whose every
# token is out of vocabulary still scores.  A real token hashing to this
# value (p = 2^-64 per token type) would merge with it — the same
# ignorable-collision class as every other 64-bit-hash assumption in
# pipelines/.
_DOC_MARKER_KH = np.int64(-(1 << 63))


def _list_rows(M: np.ndarray) -> pa.Array:
    """(n, C) int64 matrix -> n rows of list<int64>."""
    offsets = np.arange(len(M) + 1, dtype=np.int32) * M.shape[1]
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                    pa.array(M.reshape(-1), pa.int64()))


def _list_matrix(col, C: int) -> np.ndarray:
    """n rows of list<int64> (C values each) -> (n, C) int64 matrix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return np.asarray(col.flatten().to_numpy(zero_copy_only=False),
                      np.int64).reshape(-1, C)


def nb_fit(ds, text_col: str = "text", label_col: str = "label",
           num_partitions: int | None = None):
    """Fit the NB model.  Returns ``(classes, prior_micro, counts_ds, tot,
    V)`` where ``classes`` is the sorted label list, ``prior_micro`` the
    per-class prior, ``counts_ds`` a Dataset of ``(kh, cnt)`` unique on
    kh — ``cnt`` a ``list<int64>`` holding the token's count in each
    class, in ``classes`` order — ``tot`` the per-class token totals and
    ``V`` the corpus vocabulary size (the row count of ``counts_ds``)."""
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
    C = len(classes)
    ndocs_c = np.zeros(C, np.int64)
    np.add.at(ndocs_c, inv, n_all)
    prior_micro = _micro(ndocs_c, float(ndocs_c.sum()))
    class_code = {c: i for i, c in enumerate(classes.tolist())}

    # (token, class) occurrence counts: batch-combined, one kh-partitioned
    # shuffle whose reduce emits one row per kh with its C class counts
    def tok_partial(batch: pa.Table) -> pa.Table:
        labs = batch[label_col].cast(pa.string()).to_pylist()
        lab_codes = np.fromiter((class_code[l if l is not None else ""]
                                 for l in labs),
                                np.int64, count=len(labs))
        flat, parents = _flatten_tokens(batch[text_col])
        kh = u64(flat).view(np.int64)
        uk, ul, cnt, _first = _doc_key_tf(kh, lab_codes[parents])
        part = (uk.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"kh": pa.array(uk, pa.int64()),
                         "lab": pa.array(ul, pa.int64()),
                         "cnt": pa.array(cnt, pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def tok_reduce(group: pa.Table) -> pa.Table:
        uk, inv = np.unique(group["kh"].to_numpy(), return_inverse=True)
        M = np.zeros((len(uk), C), np.int64)
        np.add.at(M, (inv, group["lab"].to_numpy()),
                  group["cnt"].to_numpy())
        return pa.table({"kh": pa.array(uk, pa.int64()), "cnt": _list_rows(M)})

    counts = (
        ds.map_batches(tok_partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(tok_reduce, batch_format="pyarrow")
        .materialize()
    )

    # per-class token totals: one bounded partial per batch to the driver
    def tot_partial(batch: pa.Table) -> pa.Table:
        return pa.table({"t": _list_rows(
            _list_matrix(batch["cnt"], C).sum(0, keepdims=True))})

    tot = np.zeros(C, np.int64)
    for t in ray.get(counts.map_batches(
            tot_partial, batch_format="pyarrow").materialize().to_arrow_refs()):
        if t.num_rows:
            tot += _list_matrix(t["t"], C).sum(0)
    return classes.tolist(), prior_micro, counts, tot, counts.count()


def _nb_occ(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Per-doc unique token rows ``(id_col, kh, tf)``, plus one
    ``_DOC_MARKER_KH`` row per doc with >= 1 token whose tf is the doc's
    token count."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ps, kh, tf, _first, _flat = _token_tf(batch[text_col])
    ntok = _group_sum_i64(ps, tf, len(ids))
    has = np.flatnonzero(ntok)
    return _occ_table(
        id_col, ids[np.concatenate((ps, has))], "kh",
        np.concatenate((kh, np.full(len(has), _DOC_MARKER_KH))),
        np.concatenate((tf, ntok[has])))


def _nb_reduce(ids, inv, rows: pa.Table, id_col: str, classes, prior_micro,
               default_micro) -> pa.Table:
    """Per-doc argmax class of rows carrying ``micros``: matched tokens
    add ``tf * micro``, the rest of the doc's tokens (its marker row's tf
    minus the matched tf) the unseen-token default."""
    n = len(ids)
    tf = rows["tf"].to_numpy()
    marker = rows["kh"].to_numpy() == _DOC_MARKER_KH
    n_tok = _group_sum_i64(inv, np.where(marker, tf, 0), n)
    oov = n_tok - _group_sum_i64(inv, np.where(marker, 0, tf), n)
    M = _list_matrix(rows["micros"], len(classes))
    scores = (_group_sum_i64(inv, tf[:, None] * M, n)
              + oov[:, None] * default_micro + prior_micro)
    best = np.argmax(scores, axis=1)   # first max = class asc tiebreak
    return pa.table({
        id_col: pa.array(ids, pa.int64()),
        "pred": pa.array(np.asarray(classes, dtype=object)[best], pa.string()),
        "score_micro": pa.array(scores[np.arange(n), best], pa.int64()),
        "n_tokens": pa.array(n_tok, pa.int64()),
    })


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
    token; ``score_micro`` is the winning class's exact integer score.

    The fit is :func:`nb_fit` (``num_partitions`` sizes its vocabulary
    shuffle); the ``(kh, micros)`` model table, plus the zero-micro
    ``_DOC_MARKER_KH`` row, then scores per-doc ``(kh, tf)`` rows through
    :func:`riot_ray.pipelines.joins._score_per_doc`."""
    import ray.data as rd

    from .joins import _score_per_doc

    classes, prior_micro, counts, tot, V = nb_fit(
        ds, text_col, label_col, num_partitions)
    if V == 0:
        raise ValueError(
            "nb_classify: training corpus has no tokens — the smoothed "
            "likelihood (cnt+1)/(tot+V) is undefined at V=0"
        )
    C = len(classes)
    den = tot.astype(np.float64) + float(V)           # per-class denominator

    def add_micros(batch: pa.Table) -> pa.Table:
        return pa.table({"kh": batch["kh"], "micros": _list_rows(
            _micro(_list_matrix(batch["cnt"], C) + 1, den))})

    marker = pa.table({"kh": pa.array([_DOC_MARKER_KH], pa.int64()),
                       "micros": _list_rows(np.zeros((1, C), np.int64))})
    model_ds = counts.map_batches(add_micros, batch_format="pyarrow").union(
        rd.from_arrow(marker))
    reduce = partial(_nb_reduce, id_col=id_col, classes=classes,
                     prior_micro=prior_micro,
                     default_micro=_micro(np.ones(C), den))  # cnt=0 term
    return _score_per_doc(
        ds if predict_ds is None else predict_ds,
        partial(_nb_occ, id_col=id_col, text_col=text_col),
        _occ_schema(id_col, "kh"), model_ds, "kh", reduce)
