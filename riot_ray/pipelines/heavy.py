"""Heavy hitters: Misra-Gries mergeable summaries + exact verification.

The classic frequent-items question — "which tokens exceed 1/k of the
corpus?" — at 100 TB without a vocabulary-sized shuffle.  ``hot_ngrams``
and ``unigram_counts`` ship the whole (hash-combined) vocabulary through
one exchange; this operator ships only k-sized SUMMARIES:

* pass 1: each batch computes exact local counts and trims them to a
  Misra-Gries summary of <= k counters (subtract the (k+1)-th largest,
  drop non-positive — the classic decrement step done k-at-a-time).
* reduce: MG summaries are mergeable with additive error (Agarwal et
  al. 2012, "Mergeable Summaries"): summing any group of summaries and
  re-trimming keeps every item's total undercount <= total_mass/(k+1).
  Two fixed repartition->sum+trim levels collapse any number of batch
  summaries to one (rows moved: batches x k, then partitions x k —
  never the vocabulary).
* pass 2: the <= k surviving candidates broadcast; one exact streaming
  recount (a k-vector per batch to the driver) replaces the sketch
  counts with true counts.

With ``k >= one_over``, every token of true frequency > n/one_over
retains a positive MG counter (undercount <= n/(k+1) < n/one_over), so
the candidate set provably contains all heavy hitters and the verified
output is EXACT: (token, cnt) for cnt * one_over > n_total — integer
arithmetic end to end, hash-checkable against the SQL
``GROUP BY token HAVING count(*) * one_over > n`` oracle despite the
approximate machinery in the middle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .analysis import _flatten_tokens


def _sum_trim(words: np.ndarray, cnt: np.ndarray, k: int):
    """Sum duplicate tokens, then MG-trim to <= k counters (subtract the
    (k+1)-th largest summed count, drop non-positive)."""
    uniq, inv = np.unique(words, return_inverse=True)
    tot = np.zeros(len(uniq), np.int64)
    np.add.at(tot, inv, cnt)
    if len(uniq) > k:
        d = np.partition(tot, len(tot) - (k + 1))[len(tot) - (k + 1)]
        keep = tot > d
        uniq, tot = uniq[keep], tot[keep] - d
    return uniq, tot


def heavy_hitters(ds, text_col: str = "text", one_over: int = 200,
                  k: int | None = None, reduce_partitions: int = 16):
    """Exact tokens with count * ``one_over`` > total token count, as a
    pa.Table (token, cnt) sorted by (cnt desc, token asc).  ``k`` (sketch
    width, default ``4 * one_over`` for slack) must be >= ``one_over`` for
    the exactness guarantee."""
    import ray

    if k is None:
        k = 4 * one_over
    if k < one_over:
        raise ValueError("heavy_hitters: k must be >= one_over for exactness")

    def _emit(uniq: np.ndarray, tot: np.ndarray, n: int) -> pa.Table:
        """Summary rows + ONE dedicated null-token mass row carrying the
        batch's total token count — a trim that empties the summary (all
        counts tied at the (k+1)-th largest) must still contribute its
        mass to n_total, or the final > n/one_over threshold would drop
        and the output would over-admit vs the SQL oracle."""
        return pa.table({
            "token": pa.array(list(uniq) + [None], pa.string()),
            "cnt": pa.array(np.concatenate((tot, [0])).astype(np.int64),
                            pa.int64()),
            "__n": pa.array([0] * len(uniq) + [int(n)], pa.int64()),
        })

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flat, _parents = _flatten_tokens(batch[text_col])
        # C-level unique+count: only UNIQUE tokens ever become python strs
        vc = pc.value_counts(flat)
        words = np.asarray(vc.field("values").to_pylist(), dtype=object)
        wcnt = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, tot = _sum_trim(words, wcnt, k)
        return _emit(uniq, tot, len(flat))

    def merge(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        valid = batch.filter(pc.is_valid(batch["token"]))
        words = np.asarray(valid["token"].to_pylist(), dtype=object)
        cnt = valid["cnt"].to_numpy(zero_copy_only=False)
        nn = batch["__n"].to_numpy(zero_copy_only=False)
        uniq, tot = _sum_trim(words, cnt, k)
        return _emit(uniq, tot, int(nn.sum()))

    # every batch emits its null-token mass row, even when the trim (or an
    # empty batch) leaves no counters — n_total must be exact
    partials = ds.map_batches(partial, batch_format="pyarrow")
    lvl1 = partials.repartition(reduce_partitions).map_batches(
        merge, batch_format="pyarrow", batch_size=None)
    final = lvl1.repartition(1).map_batches(
        merge, batch_format="pyarrow", batch_size=None).materialize()
    tabs = [t for t in ray.get(final.to_arrow_refs()) if t.num_rows]
    if not tabs:
        return pa.table({"token": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    ft = pa.concat_tables(tabs).combine_chunks()
    n_total = int(ft["__n"].to_numpy(zero_copy_only=False).sum())
    import pyarrow.compute as pc

    ft = ft.filter(pc.is_valid(ft["token"]))  # drop the mass rows
    cands = np.asarray(ft["token"].to_pylist(), dtype=object)
    if len(cands) == 0 or n_total == 0:
        return pa.table({"token": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})

    # pass 2: exact recount of the candidate set (k-vector per batch)
    order = np.argsort(cands)
    cands_sorted = cands[order]
    cref = ray.put(cands_sorted)

    def recount(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cs = ray.get(cref)
        flat, _parents = _flatten_tokens(batch[text_col])
        vc = pc.value_counts(flat)
        words = np.asarray(vc.field("values").to_pylist(), dtype=object)
        wcnt = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        out = np.zeros(len(cs), np.int64)
        if len(words):
            pos = np.searchsorted(cs, words)
            ok = pos < len(cs)
            ok[ok] = cs[pos[ok]] == words[ok]
            np.add.at(out, pos[ok], wcnt[ok])
        return pa.table({"v": pa.array([out], pa.list_(pa.int64()))})

    counts = np.zeros(len(cands_sorted), np.int64)
    # one ref at a time: bounds driver memory at one k-vector block
    for ref in (ds.map_batches(recount, batch_format="pyarrow")
                .materialize().to_arrow_refs()):
        t = ray.get(ref)
        for row in t["v"].to_pylist():
            counts += np.asarray(row, np.int64)

    keep = counts * one_over > n_total
    toks, cnts = cands_sorted[keep], counts[keep]
    oo = np.lexsort((toks, -cnts))
    return pa.table({"token": pa.array(toks[oo], pa.string()),
                     "cnt": pa.array(cnts[oo], pa.int64())})
