"""Query-assist operators over the term dictionary: spell correction
(SymSpell-style deletes) and prefix autocomplete.

Both scan the index's ``termstats`` table (term, df) — a Dataset the
size of the VOCABULARY, not the corpus — with broadcast query state and
bounded per-batch top-k partials, so the driver merges nq x k rows
regardless of dictionary size.

Spell correction uses the SymSpell candidate trick (Garbe's symmetric
delete algorithm, public domain): lev(q, t) <= 1 implies
({q} u del1(q)) n ({t} u del1(t)) != {} where del1 is the set of
1-character deletions, so a broadcast hash set of the query-side
variants prunes the dictionary scan to a handful of candidates, which
are then verified with the textbook Levenshtein DP (matching DuckDB's
``levenshtein``, no transpositions) — the output is exact and
SQL-oracle-checkable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _lev(a: str, b: str) -> int:
    """Textbook Levenshtein (insert/delete/substitute cost 1), identical
    to DuckDB's ``levenshtein``; runs only on SymSpell candidates."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _variants(w: str) -> list:
    """{w} plus every 1-character deletion."""
    return [w] + [w[:i] + w[i + 1:] for i in range(len(w))]


def spell_correct(terms_ds, queries, k: int = 5, max_edit: int = 1):
    """Corrections for each query term from the dictionary:
    ``(query, term, dist, df)`` — the ``k`` best per query by
    (dist asc, df desc, term asc), dist <= ``max_edit``.  Exact (SymSpell
    prunes, Levenshtein verifies); ``max_edit`` must be 1 (the deletes
    index covers one edit; deeper edits need del2 keys — not built).

    One streaming pass over (term, df); only per-batch top-k partials
    centralize."""
    import ray

    if max_edit != 1:
        raise ValueError("spell_correct: only max_edit=1 is supported")
    queries = [str(q) for q in queries]
    key_to_q: dict = {}
    for qi, q in enumerate(queries):
        for v in _variants(q):
            key_to_q.setdefault(v, set()).add(qi)
    qref = ray.put((queries, {k_: tuple(v) for k_, v in key_to_q.items()}))

    def local(batch: pa.Table) -> pa.Table:
        g_queries, g_keys = ray.get(qref)
        terms = batch["term"].to_pylist()
        dfs = batch["df"].to_numpy(zero_copy_only=False)
        out_q, out_t, out_d, out_f = [], [], [], []
        for t, df in zip(terms, dfs):
            qis: set = set()
            for v in _variants(t):
                hit = g_keys.get(v)
                if hit:
                    qis.update(hit)
            for qi in qis:
                d = _lev(g_queries[qi], t)
                if d <= max_edit:
                    out_q.append(qi)
                    out_t.append(t)
                    out_d.append(d)
                    out_f.append(int(df))
        tbl = pa.table({"qi": pa.array(out_q, pa.int64()),
                        "term": pa.array(out_t, pa.string()),
                        "dist": pa.array(out_d, pa.int64()),
                        "df": pa.array(out_f, pa.int64())})
        return _topk_partial(tbl, k)

    parts = [t for t in ray.get(
        terms_ds.map_batches(local, batch_format="pyarrow").materialize().to_arrow_refs()
    ) if t.num_rows]
    if parts:
        allp = _topk_partial(pa.concat_tables(parts).combine_chunks(), k)
    else:
        allp = pa.table({"qi": pa.array([], pa.int64()),
                         "term": pa.array([], pa.string()),
                         "dist": pa.array([], pa.int64()),
                         "df": pa.array([], pa.int64())})
    qarr = np.asarray(queries, dtype=object)
    qi = allp["qi"].to_numpy(zero_copy_only=False)
    return pa.table({"query": pa.array(qarr[qi] if len(qi) else [], pa.string()),
                     "term": allp["term"],
                     "dist": allp["dist"],
                     "df": allp["df"]})


def _topk_partial(tbl: pa.Table, k: int) -> pa.Table:
    """Top-k rows per qi by (dist asc, df desc, term asc) — used both as
    the per-batch partial and the final merge (idempotent)."""
    if tbl.num_rows == 0:
        return tbl
    qi = tbl["qi"].to_numpy(zero_copy_only=False)
    dist = tbl["dist"].to_numpy(zero_copy_only=False)
    df = tbl["df"].to_numpy(zero_copy_only=False)
    terms = np.asarray(tbl["term"].to_pylist(), dtype=object)
    order = np.lexsort((terms, -df, dist, qi))
    qs = qi[order]
    new = np.r_[True, qs[1:] != qs[:-1]]
    pos = np.arange(len(qs)) - np.maximum.accumulate(
        np.where(new, np.arange(len(qs)), 0))
    keep = pos < k
    return tbl.take(pa.array(order[keep], pa.int64()))


def suggest_terms(terms_ds, prefix: str, k: int = 10):
    """Autocomplete: the ``k`` dictionary terms with the given prefix,
    ranked by (df desc, term asc) — per-batch top-k partials, driver
    merges k rows."""
    import ray

    def local(batch: pa.Table) -> pa.Table:
        m = pc.starts_with(batch["term"].cast(pa.string()), prefix)
        t = batch.filter(m)
        if t.num_rows == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        df = t["df"].to_numpy(zero_copy_only=False)
        terms = np.asarray(t["term"].to_pylist(), dtype=object)
        order = np.lexsort((terms, -df))[:k]
        return pa.table({"term": pa.array(terms[order], pa.string()),
                         "df": pa.array(df[order].astype(np.int64), pa.int64())})

    parts = [t for t in ray.get(
        terms_ds.map_batches(local, batch_format="pyarrow").materialize().to_arrow_refs()
    ) if t.num_rows]
    if not parts:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    t = pa.concat_tables(parts).combine_chunks()
    df = t["df"].to_numpy(zero_copy_only=False)
    terms = np.asarray(t["term"].to_pylist(), dtype=object)
    order = np.lexsort((terms, -df))[:k]
    return pa.table({"term": pa.array(terms[order], pa.string()),
                     "df": pa.array(df[order].astype(np.int64), pa.int64())})
