"""Corpus-wide duplicated-SUBSTRING detection and removal (ExactSubstr).

Lee et al. 2022 ("Deduplicating Training Data Makes Language Models
Better") remove every substring of >= 50 tokens that appears more than
once in the corpus, using a monolithic suffix array.  A suffix array is
a single global sorted structure — the opposite of a streaming Ray Data
plan — so this module re-derives the same *semantics* from length-L
character windows:

* a character position is DUPLICATED when some length-``min_len`` window
  covering it occurs at >= 2 distinct (doc, pos) locations corpus-wide;
* maximal runs of duplicated windows merge into spans ``[start, end)``
  (two windows merge when their starts are <= ``min_len`` apart, i.e.
  their covered char ranges overlap or touch);
* :func:`dup_spans` emits the spans, :func:`dup_span_clean` cuts them
  out of the text.

Every substring of length >= ``min_len`` occurring twice is a run of
duplicated windows and vice versa — the same guarantee the suffix-array
scan gives, at window granularity.

Scale shape (the reason this form was chosen over the suffix array):

* pass 1 ships only ``(h1, h2, cnt)`` per batch-unique window — two
  independent 64-bit polynomial rolling hashes (128 bits total, so hash
  collisions are ignorable at any corpus size — same argument as
  line_dedup's md5 pair) through ONE hash-partitioned shuffle, with
  per-batch combining; the window *strings* never leave the worker.
* the surviving duplicated-window keys attach through the
  broadcast-or-shuffle gate of :mod:`riot_ray.pipelines.joins`: broadcast
  as sorted arrays, else the window stream hash-joins the key table on h1
  (unique among dup keys up to a ~2^-64-per-pair birthday term — the
  documented fallback-path assumption; the broadcast path is exact on the
  full 128 bits).
* span merge is per-doc and MAP-SIDE on the broadcast path — each doc's
  windows live in its own batch, so no second shuffle; the join path
  re-groups only the (rare) duplicated windows by doc hash partition.

Rolling hash: H(w) = sum c[i] * B^(L-1-i) mod 2^64, computed O(n) per
batch from a cumulative Binv-weighted prefix sum (B odd => invertible
mod 2^64); positions/lengths are Unicode codepoints, matching SQL
``substr`` semantics so the whole operator is DuckDB-oracle-checkable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# two independent odd multipliers => two independent hashes mod 2^64
_B1 = np.uint64(1099511628211)           # FNV-1a prime
_B2 = np.uint64(0x9E3779B97F4A7C15)      # 2^64 / golden ratio (odd)
_B1_INV = np.uint64(pow(int(_B1), -1, 1 << 64))
_B2_INV = np.uint64(pow(int(_B2), -1, 1 << 64))

_SPAN_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("span_start", pa.int64()),
     ("span_end", pa.int64()), ("n_windows", pa.int64())]
)


def _codepoints(texts: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(uint64 codepoint stream of all rows concatenated, per-row codepoint
    lengths).  One C-level encode pass — no per-character Python.  Null
    rows count as empty.  Codepoints are shifted +1 so the hash never
    multiplies by zero."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lens = pc.utf8_length(texts).fill_null(0).to_numpy(zero_copy_only=False)
    joined = "".join(t or "" for t in texts.to_pylist())
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    return cp.astype(np.uint64) + np.uint64(1), lens.astype(np.int64)


def _roll(cp: np.ndarray, L: int, B: np.uint64, Binv: np.uint64) -> np.ndarray:
    """All length-L window hashes of the codepoint stream, O(n):
    cumulative Binv^i-weighted prefix sums, window hash =
    (P[i+L] - P[i]) * B^(i+L-1) — all mod-2^64 wraparound."""
    n = len(cp)
    pw = np.empty(n, np.uint64)          # B^i
    pwi = np.empty(n, np.uint64)         # Binv^i
    pw[0] = pwi[0] = 1
    if n > 1:
        np.multiply.accumulate(np.full(n - 1, B, np.uint64), out=pw[1:])
        np.multiply.accumulate(np.full(n - 1, Binv, np.uint64), out=pwi[1:])
    P = np.concatenate(([np.uint64(0)], np.cumsum(cp * pwi, dtype=np.uint64)))
    return (P[L:] - P[: n - L + 1]) * pw[L - 1:]


def _window_parents(lens: np.ndarray, n: int, L: int):
    """(parent row, char pos) per in-row window start + the keep mask."""
    parents = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    offs = np.concatenate(([0], np.cumsum(lens)))
    starts = np.arange(n - L + 1, dtype=np.int64)
    p = parents[starts]
    inside = parents[starts + L - 1] == p      # window does not cross rows
    starts, p = starts[inside], p[inside]
    return inside, p, starts - offs[p]


def _window_hashes(cp: np.ndarray, lens: np.ndarray, L: int):
    """Per length-L window fully inside one row: (h1, h2, parent row,
    char pos within row)."""
    n = len(cp)
    if n < L or len(lens) == 0 or L < 1:
        return (np.empty(0, np.uint64), np.empty(0, np.uint64),
                np.empty(0, np.int64), np.empty(0, np.int64))
    h1 = _roll(cp, L, _B1, _B1_INV)
    h2 = _roll(cp, L, _B2, _B2_INV)
    inside, p, pos = _window_parents(lens, n, L)
    return h1[inside], h2[inside], p, pos


def _merge_spans(doc_ids: np.ndarray, pos: np.ndarray, L: int) -> pa.Table:
    """Merge duplicated-window starts (grouped by doc, pos ascending within
    doc) into maximal spans: same span while the next start is <= L after
    the previous."""
    if len(pos) == 0:
        return _SPAN_SCHEMA.empty_table()
    new = np.empty(len(pos), bool)
    new[0] = True
    new[1:] = (doc_ids[1:] != doc_ids[:-1]) | (pos[1:] > pos[:-1] + L)
    starts_idx = np.flatnonzero(new)
    ends_idx = np.concatenate((starts_idx[1:] - 1, [len(pos) - 1]))
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[starts_idx], pa.int64()),
            "span_start": pa.array(pos[starts_idx], pa.int64()),
            "span_end": pa.array(pos[ends_idx] + L, pa.int64()),
            "n_windows": pa.array(
                np.diff(np.concatenate((starts_idx, [len(pos)]))).astype(np.int64),
                pa.int64(),
            ),
        }
    )


def _pair_member(q1: np.ndarray, q2: np.ndarray,
                 s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Exact membership of (q1, q2) pairs in the (s1, s2) set, which is
    lexsorted by (s1, s2).  Vectorized on the primary key; the (rare —
    needs an h1 collision between two DISTINCT duplicated windows) multi-
    row runs fall back to a per-candidate searchsorted."""
    res = np.zeros(len(q1), bool)
    if len(s1) == 0 or len(q1) == 0:
        return res
    left = np.searchsorted(s1, q1, "left")
    right = np.searchsorted(s1, q1, "right")
    run = right - left
    one = run == 1
    res[one] = s2[left[one]] == q2[one]
    for i in np.flatnonzero(run > 1):
        lo, hi = left[i], right[i]
        j = lo + np.searchsorted(s2[lo:hi], q2[i])
        res[i] = j < hi and s2[j] == q2[i]
    return res


def _anchor_hashes(cp: np.ndarray, lens: np.ndarray, min_len: int):
    """Winnowed anchor hashes per batch (Schleimer et al. SIGMOD'03): one
    k-gram hash selected (window argmin) from every window of w
    consecutive k-grams, with k = min_len//2 and w = min_len - k + 1 so
    that ANY duplicated substring of length >= min_len contains at least
    one full anchor window.  Selection depends only on window CONTENT
    (argmin offset over hash values), so the two copies of a duplicate
    select the same anchor value at content-identical offsets — a
    duplicated substring therefore always yields >= 2 selected positions
    of its anchor value, and counting anchors can only produce false
    POSITIVES (extra candidate docs), never false negatives."""
    k = min_len // 2
    w = min_len - k + 1
    n = len(cp)
    if n < k or len(lens) == 0:
        return np.empty(0, np.uint64)
    ins, p, _pos = _window_parents(lens, n, k)
    h1 = _roll(cp, k, _B1, _B1_INV)[ins]   # anchors need ONE hash only
    m = len(h1)
    if m < w:
        return np.empty(0, np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(h1, w)
    sel = np.arange(m - w + 1) + np.argmin(win, axis=1)
    inside = p[w - 1:] == p[: m - w + 1]   # anchor window inside one doc
    return h1[np.unique(sel[inside])]


def _candidate_filter(ds, min_len: int, text_col: str, num_partitions: int):
    """Prefilter: docs that can possibly contain a duplicated >=min_len
    substring.  Ships ~2/min_len anchor rows per char (instead of one
    window row per char) through one count shuffle; returns the filtered
    dataset, or ``ds`` unchanged when the dup-anchor set exceeds the
    broadcast gate (heavy-dup corpus: everything is a candidate anyway,
    the exact pass carries it)."""
    from .joins import _broadcast, _small_table

    def partial(batch: pa.Table) -> pa.Table:
        cp, lens = _codepoints(batch[text_col])
        a = _anchor_hashes(cp, lens, min_len)
        uniq, cnt = np.unique(a, return_counts=True)
        part = (uniq % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"h": pa.array(uniq.view(np.int64), pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def dups_only(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"h": pa.array([], pa.int64())})
        h = group["h"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(h, return_inverse=True)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, inv, cnt)
        return pa.table({"h": pa.array(uniq[tot >= 2], pa.int64())})

    keys = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(dups_only, batch_format="pyarrow")
        .materialize()
    )
    table = _small_table(keys)
    if table is None:
        return ds  # candidate set ~ everything; skip the prefilter
    if not table.num_rows:
        # no dup anchors anywhere: provably no spans
        return ds.map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow")
    anchors = np.sort(table["h"].to_numpy().view(np.uint64))
    return _broadcast(ds, anchors, _keep_candidates, min_len, text_col)


def _keep_candidates(batch: pa.Table, anchors: np.ndarray, min_len: int,
                     text_col: str) -> pa.Table:
    """Rows of ``batch`` holding a winnowed anchor in ``anchors``."""
    cp, lens = _codepoints(batch[text_col])
    k = min_len // 2
    w = min_len - k + 1
    mask = np.zeros(batch.num_rows, bool)
    n = len(cp)
    if n >= k and len(lens):
        ins, p, _pos = _window_parents(lens, n, k)
        h1 = _roll(cp, k, _B1, _B1_INV)[ins]
    else:
        h1 = np.empty(0, np.uint64)
        p = np.empty(0, np.int64)
    m = len(h1)
    if m >= w:
        win = np.lib.stride_tricks.sliding_window_view(h1, w)
        sel = np.arange(m - w + 1) + np.argmin(win, axis=1)
        inside = p[w - 1:] == p[: m - w + 1]
        sel = np.unique(sel[inside])
        pos = np.searchsorted(anchors, h1[sel])
        ok = pos < len(anchors)
        ok[ok] = anchors[pos[ok]] == h1[sel][ok]
        mask[p[sel[ok]]] = True
    return batch.filter(pa.array(mask))


def _dup_keys(ds, min_len: int, text_col: str, num_partitions: int):
    """Dataset of (h1, h2) for every window value occurring >= 2 times
    corpus-wide — one hash-partitioned shuffle of batch-combined counts."""

    def partial(batch: pa.Table) -> pa.Table:
        cp, lens = _codepoints(batch[text_col])
        h1, h2, _p, _pos = _window_hashes(cp, lens, min_len)
        if len(h1) == 0:
            return pa.table({"h1": pa.array([], pa.int64()),
                             "h2": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64()),
                             "__part": pa.array([], pa.int32())})
        order = np.lexsort((h2, h1))
        s1, s2 = h1[order], h2[order]
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
        starts = np.flatnonzero(first)
        cnt = np.diff(np.concatenate((starts, [len(order)])))
        u1, u2 = s1[starts], s2[starts]
        part = (u1 % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {"h1": pa.array(u1.view(np.int64), pa.int64()),
             "h2": pa.array(u2.view(np.int64), pa.int64()),
             "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
             "__part": pa.array(part, pa.int32())}
        )

    def dups_only(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"h1": pa.array([], pa.int64()),
                             "h2": pa.array([], pa.int64())})
        h1 = group["h1"].to_numpy(zero_copy_only=False)
        h2 = group["h2"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((h2, h1))
        s1, s2, sc = h1[order], h2[order], cnt[order]
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
        starts = np.flatnonzero(first)
        tot = np.add.reduceat(sc, starts)
        keep = tot >= 2
        return pa.table({"h1": pa.array(s1[starts][keep], pa.int64()),
                         "h2": pa.array(s2[starts][keep], pa.int64())})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(dups_only, batch_format="pyarrow")
    )


# Auto-prefilter threshold: above this many docs the per-char window
# exchange dominates (794 s at 600k docs contended) and the winnowing
# prefilter's ~20x row cut pays for its two extra scans even on one box;
# on a multi-node cluster it is the difference between a network-bound
# and a compute-bound job.  Below it the dense path's single scan wins.
PREFILTER_AUTO_ROWS = 100_000


def dup_spans(
    ds,
    min_len: int = 40,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
    prefilter: bool | None = None,
):
    """Spans of corpus-duplicated text per doc:
    ``(doc_id, span_start, span_end, n_windows)`` — char offsets, end
    exclusive; ``n_windows`` = duplicated length-``min_len`` windows the
    span merged.  Docs without duplicated substrings emit no rows.

    ``prefilter`` selects the exchange plan; results are bit-identical
    either way (the winnowed-anchor construction cannot produce false
    negatives — pinned by the equality test):

    * ``True`` — run the candidate pass (:func:`_candidate_filter`)
      first: only docs that can possibly hold a duplicate enter the
      per-char window shuffle — ~20x fewer rows through the exchange on
      low-dup corpora, at the cost of two extra corpus scans.  The scale
      path: the dense exchange is one row per CHARACTER, the documented
      multi-node killer.
    * ``False`` — dense single-scan exchange; wins on small corpora
      where the object-store "shuffle" is memcpy and fixed overhead
      dominates.  Kept as the debug/reference plan.
    * ``None`` (default) — auto: materialize the input (both plans scan
      it at least twice, so pinning blocks is free) and enable the
      prefilter at >= ``PREFILTER_AUTO_ROWS`` docs (VERDICT r3 #6).

    The key table attaches through the broadcast-or-shuffle gate of
    :mod:`riot_ray.pipelines.joins`; the two branches ship different
    left rows, so each keeps its own kernel."""
    from .joins import _broadcast, _hash_join, _join_parts, _small_table

    num_partitions = _join_parts(num_partitions)
    if prefilter is None:
        ds = ds.materialize()
        prefilter = ds.count() >= PREFILTER_AUTO_ROWS
    if prefilter and min_len >= 4:
        ds = _candidate_filter(ds, min_len, text_col, num_partitions)
    keys = _dup_keys(ds, min_len, text_col, num_partitions).materialize()
    table = _small_table(keys)
    if table is not None:
        k1 = table["h1"].to_numpy().view(np.uint64)
        k2 = table["h2"].to_numpy().view(np.uint64)
        order = np.lexsort((k2, k1))
        return _broadcast(ds, (k1[order], k2[order]), _mark_spans,
                          id_col, text_col, min_len)

    # over the broadcast gate: ship (h1, h2, packed (doc,pos)) window rows
    # through a hash join against the key table, then span-merge per doc
    # hash partition.  This path moves the whole window stream once — the
    # price of a key table too big to broadcast (corpus is mostly dups).
    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cp, lens = _codepoints(batch[text_col])
        h1, h2, p, pos = _window_hashes(cp, lens, min_len)
        if len(h1):
            # hard errors (not asserts — must survive python -O): a negative
            # or >=2^31 id would silently corrupt the (doc<<32)|pos pack
            if ids.min() < 0 or ids.max() >= (1 << 31):
                raise ValueError("dup_spans: doc ids must be in [0, 2^31)")
            if pos.max() >= (1 << 32):
                raise ValueError("dup_spans: doc longer than 2^32 chars")
        pack = (ids[p] << 32) | pos
        return pa.table({"h1": pa.array(h1.view(np.int64), pa.int64()),
                         "h2": pa.array(h2.view(np.int64), pa.int64()),
                         "pack": pa.array(pack, pa.int64())})

    win_schema = pa.schema([("h1", pa.int64()), ("h2", pa.int64()),
                            ("pack", pa.int64())])
    joined = _hash_join(ds.map_batches(explode, batch_format="pyarrow"),
                        keys, "h1", "h1", {"h2": "h2k"}, num_partitions,
                        left_schema=win_schema)

    def tag(batch: pa.Table) -> pa.Table:
        h2 = batch["h2"].to_numpy(zero_copy_only=False)
        h2k = batch["h2k"].to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(h2 == h2k))  # exact 128-bit match
        doc = t["pack"].to_numpy(zero_copy_only=False) >> 32
        part = (doc.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"pack": t["pack"],
                         "__dpart": pa.array(part, pa.int32())})

    def spans_per_part(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _SPAN_SCHEMA.empty_table()
        pack = np.unique(group["pack"].to_numpy(zero_copy_only=False))
        return _merge_spans(pack >> 32, pack & ((1 << 32) - 1), min_len)

    return (
        joined.map_batches(tag, batch_format="pyarrow")
        .groupby("__dpart")
        .map_groups(spans_per_part, batch_format="pyarrow")
    )


def _mark_spans(batch: pa.Table, keys, id_col: str, text_col: str,
                min_len: int) -> pa.Table:
    """Broadcast branch of :func:`dup_spans`: the spans of this batch's
    docs, merged from its windows found in the lexsorted ``keys``."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    cp, lens = _codepoints(batch[text_col])
    h1, h2, p, pos = _window_hashes(cp, lens, min_len)
    hit = _pair_member(h1, h2, *keys)
    # windows are generated in (row, pos) stream order already
    return _merge_spans(ids[p[hit]], pos[hit], min_len)


def _cut(id_col: str, ids: np.ndarray, lens: np.ndarray, cp: np.ndarray,
         sd: np.ndarray, ss: np.ndarray, se: np.ndarray) -> pa.Table:
    """Cut spans out of a doc table: fully vectorized — +1/-1 diff marks on
    the concatenated codepoint stream, one cumsum for coverage, one gather
    for the kept codepoints.  ``(sd, ss, se)`` need not be pre-filtered to
    this table's docs; foreign spans are ignored."""
    offs = np.concatenate(([0], np.cumsum(lens)))
    # map span doc ids -> row index in this table
    sidx = np.argsort(ids, kind="stable")
    sorted_ids = ids[sidx]
    where = np.searchsorted(sorted_ids, sd)
    where = np.clip(where, 0, max(len(ids) - 1, 0))
    ok = len(ids) > 0 and len(sd) > 0
    match = sorted_ids[where] == sd if ok else np.zeros(len(sd), bool)
    r = sidx[where[match]]
    a, b = ss[match], se[match]
    diff = np.zeros(int(offs[-1]) + 1, np.int64)
    np.add.at(diff, offs[r] + a, 1)
    np.add.at(diff, offs[r] + b, -1)
    nrem = np.zeros(len(ids), np.int64)
    np.add.at(nrem, r, b - a)
    covered = np.cumsum(diff[:-1]) > 0
    kept = cp[~covered] - np.uint64(1)
    ccum = np.concatenate(([0], np.cumsum(covered.astype(np.int64))))
    kept_lens = lens - (ccum[offs[1:]] - ccum[offs[:-1]])
    koffs = np.concatenate(([0], np.cumsum(kept_lens)))
    buf = kept.astype(np.uint32).tobytes()
    out = [
        buf[4 * koffs[i]: 4 * koffs[i + 1]].decode("utf-32-le")
        for i in range(len(ids))
    ]
    return pa.table({id_col: pa.array(ids, pa.int64()),
                     "text_clean": pa.array(out, pa.string()),
                     "n_removed": pa.array(nrem, pa.int64())})


def dup_span_clean(
    ds,
    min_len: int = 40,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
):
    """Documents with every duplicated span cut out:
    ``(doc_id, text_clean, n_removed)``; every input doc emits one row
    (``n_removed`` = chars cut, 0 for untouched docs).  Spans attach
    through the broadcast-or-shuffle gate of
    :mod:`riot_ray.pipelines.joins`; :func:`_cut` runs against the whole
    span table when it broadcasts, and per doc-id partition when docs and
    spans co-group."""
    from .joins import _broadcast, _cogroup, _join_parts, _small_table

    num_partitions = _join_parts(num_partitions)
    spans = dup_spans(ds, min_len, text_col, id_col,
                      num_partitions=num_partitions).materialize()
    docs = ds.map_batches(_doc_rows, batch_format="pyarrow",
                          fn_args=(id_col, text_col))
    table = _small_table(spans)
    if table is not None:
        return _broadcast(docs, table, _cut_spans, id_col, text_col)
    return _cogroup(
        docs, spans, id_col, "doc_id", _cut_spans, id_col, text_col,
        num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, pa.int64()), (text_col, pa.string())]),
        right_schema=_SPAN_SCHEMA,
    )


def _doc_rows(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """The ``(id, text)`` columns :func:`dup_span_clean` cuts."""
    return pa.table({id_col: batch[id_col].cast(pa.int64()),
                     text_col: batch[text_col].cast(pa.string())})


def _cut_spans(docs: pa.Table, spans: pa.Table, id_col: str,
               text_col: str) -> pa.Table:
    """:func:`_cut` of a doc table by a span table."""
    ids = docs[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    cp, lens = _codepoints(docs[text_col])
    return _cut(id_col, ids, lens, cp,
                *(spans[c].to_numpy(zero_copy_only=False)
                  for c in ("doc_id", "span_start", "span_end")))
