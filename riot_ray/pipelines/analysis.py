"""Text-analysis stages for large-scale training-data pipelines.

All operators are ``map_batches`` transforms over zero-copy Arrow batches —
no shuffle, no driver-side loops; they stream at any scale.  The simple
token model (lowercase, split on non-[a-z0-9]) is deliberately identical to
DuckDB's ``regexp_split_to_array(lower(x),'[^a-z0-9]+')`` so token/quality
outputs are SQL-oracle-checkable (same contract as riot_ray.tokenize
"simple" mode).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import hex_digest, u64

# Small built-in stopword lists double as language markers for the n-gram /
# marker-word language heuristic.  Public knowledge (common function words).
STOPWORDS = {
    "en": ("the", "a", "of", "and", "to", "in", "is", "it", "that", "for",
           "on", "with", "as", "was", "at", "by", "an", "be", "this", "are"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein", "eine", "zu",
           "den", "mit", "von", "auf", "im", "des"),
    "fr": ("le", "la", "les", "et", "un", "une", "est", "dans", "pour",
           "que", "des", "du", "au", "avec", "sur"),
    "es": ("el", "la", "los", "las", "y", "es", "un", "una", "en", "que",
           "de", "por", "con", "para", "del"),
}

_TOKEN_SPLIT = "[^a-z0-9]+"


def round6(x):
    """Half-away-from-zero 6dp rounding (matches DuckDB ROUND(x, 6); numpy's
    np.round is half-to-even and diverges on exact ties like 0.8203125)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6


def _flatten_tokens(texts: pa.Array):
    """(flat tokens, parent row indices) — vectorized, empties dropped."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lists = pc.split_pattern_regex(pc.utf8_lower(texts), _TOKEN_SPLIT)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = pc.list_flatten(lists)
    parents = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    keep = np.asarray(pc.not_equal(flat, "").to_numpy(zero_copy_only=False), dtype=bool)
    return flat.filter(pa.array(keep)), parents[keep]


# --------------------------------------------------------------------------- #
# token counting
# --------------------------------------------------------------------------- #
def token_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc token counts: whitespace tokens, word tokens (the SQL-checkable
    model), and a BPE-ish subword estimate (word-piece runs + punctuation),
    all via vectorized regex counting."""
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_ws = pc.count_substring_regex(texts, r"\S+")
    n_words = pc.count_substring_regex(pc.utf8_lower(texts), "[a-z0-9]+")
    # BPE-ish: alnum runs of <=4 chars count 1, longer runs ~ceil(len/4),
    # plus punctuation marks — a cheap, deterministic subword estimate
    n_pieces = pc.count_substring_regex(texts, r"[A-Za-z0-9]{1,4}|[^\sA-Za-z0-9]")
    out = batch.select([c for c in batch.column_names if c != text_col])
    out = out.append_column("n_tokens_ws", n_ws.cast(pa.int64()))
    out = out.append_column("n_tokens", n_words.cast(pa.int64()))
    out = out.append_column("n_tokens_bpe", n_pieces.cast(pa.int64()))
    return out


def token_stats(ds, text_col: str = "text"):
    return ds.map_batches(
        lambda b: token_stats_batch(b, text_col), batch_format="pyarrow"
    )


# --------------------------------------------------------------------------- #
# quality scoring
# --------------------------------------------------------------------------- #
def quality_batch(batch: pa.Table, text_col: str = "text", lang: str = "en") -> pa.Table:
    """Length / punctuation / stopword-ratio heuristics (the standard
    C4/Gopher-style cheap filters).  All ratios rounded to 6dp for oracle
    comparison."""
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_rows = len(texts)
    n_chars = pc.utf8_length(texts).cast(pa.int64()).to_numpy(zero_copy_only=False)
    n_alnum = pc.count_substring_regex(texts, "[a-zA-Z0-9]").to_numpy(zero_copy_only=False)
    n_punct = pc.count_substring_regex(texts, r"[^\w\s]").to_numpy(zero_copy_only=False)

    flat, parents = _flatten_tokens(texts)
    n_tok = np.bincount(parents, minlength=n_rows).astype(np.int64)
    stop = pa.array(sorted(STOPWORDS[lang]))
    is_stop = pc.is_in(flat, value_set=stop).to_numpy(zero_copy_only=False)
    n_stop = np.bincount(parents[is_stop], minlength=n_rows).astype(np.int64)
    tok_chars = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    sum_tok_chars = np.bincount(parents, weights=tok_chars, minlength=n_rows)

    safe_tok = np.maximum(n_tok, 1)
    safe_chars = np.maximum(n_chars, 1)
    stop_ratio = round6(n_stop / safe_tok)
    punct_ratio = round6(n_punct / safe_chars)
    alnum_ratio = round6(n_alnum / safe_chars)
    mean_word_len = round6(sum_tok_chars / safe_tok)
    # composite in [0,1]: reward stopword presence + sane word length,
    # penalize punctuation soup and tiny docs
    score = (
        0.4 * np.clip(stop_ratio / 0.4, 0, 1)
        + 0.3 * np.clip(1.0 - np.abs(mean_word_len - 4.5) / 4.5, 0, 1)
        + 0.2 * (1.0 - np.clip(punct_ratio / 0.2, 0, 1))
        + 0.1 * np.clip(n_tok / 50.0, 0, 1)
    )
    out = batch.select([c for c in batch.column_names if c != text_col])
    for name, arr, typ in (
        ("n_chars_q", n_chars, pa.int64()),
        ("n_tokens", n_tok, pa.int64()),
        ("stop_ratio", stop_ratio, pa.float64()),
        ("punct_ratio", punct_ratio, pa.float64()),
        ("alnum_ratio", alnum_ratio, pa.float64()),
        ("mean_word_len", mean_word_len, pa.float64()),
        ("quality", round6(score), pa.float64()),
    ):
        out = out.append_column(name, pa.array(arr, typ))
    return out


def quality_score(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: quality_batch(b, text_col), batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# language identification (marker-word heuristic)
# --------------------------------------------------------------------------- #
class LangId:
    """Callable stage; ``lang_id`` passes an instance, so it runs as Ray
    tasks (``concurrency`` caps how many run at once, no actor pool).

    Scores each language by the fraction of tokens hitting its marker set;
    ties broken by language code order.  A real model would slot in behind
    the same __call__ signature."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.value_sets = {
            lang: pa.array(sorted(words)) for lang, words in STOPWORDS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        flat, parents = _flatten_tokens(
            texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        )
        n_rows = batch.num_rows
        langs = sorted(self.value_sets)
        scores = np.zeros((len(langs), n_rows), dtype=np.float64)
        n_tok = np.maximum(np.bincount(parents, minlength=n_rows), 1)
        for i, lang in enumerate(langs):
            hit = pc.is_in(flat, value_set=self.value_sets[lang]).to_numpy(
                zero_copy_only=False
            )
            scores[i] = np.bincount(parents[hit], minlength=n_rows) / n_tok
        best = np.argmax(scores, axis=0)  # first max wins -> code-order ties
        conf = scores[best, np.arange(n_rows)]
        pred = np.asarray(langs, dtype=object)[best]
        pred = np.where(conf > 0.0, pred, "und")
        out = batch
        out = out.append_column("lang_pred", pa.array(pred.tolist(), pa.string()))
        out = out.append_column("lang_conf", pa.array(round6(conf), pa.float64()))
        return out


def lang_id(ds, text_col: str = "text", concurrency: int | None = None):
    kwargs: dict = {"batch_format": "pyarrow"}
    if concurrency:
        kwargs["concurrency"] = concurrency
    return ds.map_batches(LangId(text_col), **kwargs)


def _group_sum_i64(idx: np.ndarray, weights: np.ndarray,
                   minlength: int) -> np.ndarray:
    """Exact int64 grouped sum of ``weights`` (rows, for a 2-D array) per
    ``idx`` bucket (sort + ``np.add.reduceat``).  Replaces
    ``np.bincount(..., weights=float64)`` wherever the summed magnitudes
    can pass 2**53 — float accumulation would silently round there while
    the SQL oracle's BIGINT sum stays exact (ADVICE r2: per-doc
    |logprob_micro| > 2^53)."""
    w = np.asarray(weights, np.int64)
    out = np.zeros((minlength,) + w.shape[1:], np.int64)
    if len(idx) == 0:
        return out
    order = np.argsort(idx, kind="stable")
    si, sw = idx[order], w[order]
    starts = np.flatnonzero(np.r_[True, si[1:] != si[:-1]])
    out[si[starts]] = np.add.reduceat(sw, starts, axis=0)
    return out


def _doc_key_tf(parents: np.ndarray, keys: np.ndarray):
    """The unique ``(parent, key)`` rows of an occurrence stream, sorted by
    parent then key: ``(parents, keys, tf, first)`` with ``tf`` each row's
    occurrence count and ``first`` the index of its first occurrence."""
    order = np.lexsort((keys, parents))
    ps, ks = parents[order], keys[order]
    new = np.ones(len(order), bool)
    new[1:] = (ps[1:] != ps[:-1]) | (ks[1:] != ks[:-1])
    starts = np.flatnonzero(new)
    tf = np.diff(np.append(starts, len(order))).astype(np.int64)
    return ps[starts], ks[starts], tf, order[starts]


def _token_tf(texts):
    """Per-doc unique token rows of a text column: ``(parents, kh, tf,
    first)`` as :func:`_doc_key_tf`, plus the flat token strings."""
    flat, parents = _flatten_tokens(texts)
    return (*_doc_key_tf(parents, u64(flat).view(np.int64)), flat)


def _occ_table(id_col: str, ids, key: str, keys, tf, **extra) -> pa.Table:
    """Occurrence rows ``(id_col, key, tf, *extra)`` for
    :func:`riot_ray.pipelines.joins._score_per_doc`."""
    return pa.table({id_col: pa.array(ids, pa.int64()),
                     key: pa.array(keys, pa.int64()),
                     "tf": pa.array(tf, pa.int64()), **extra})


def _occ_schema(id_col: str, key: str, **extra) -> pa.Schema:
    return pa.schema([(id_col, pa.int64()), (key, pa.int64()),
                      ("tf", pa.int64()), *extra.items()])


# --------------------------------------------------------------------------- #
# document fingerprinting (rolling hash / winnowing)
# --------------------------------------------------------------------------- #
def fingerprint_batch(
    batch: pa.Table, text_col: str = "text", k: int = 5, window: int = 8
) -> pa.Table:
    """Winnowing fingerprints (Schleimer et al., SIGMOD'03): k-token rolling
    hashes, then the min hash of every `window` consecutive k-grams; emits
    the per-doc fingerprint SET (sorted list<uint64>) + a whole-doc digest.
    Vectorized: one sliding-window min over the entire batch with doc-
    boundary masking, no per-doc Python loop."""
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    flat, parents = _flatten_tokens(texts)
    h = u64(flat)
    n_rows = batch.num_rows

    # k-gram rolling hash over the flat token-hash stream
    n = len(h)
    if n >= k:
        kg = np.zeros(n - k + 1, dtype=np.uint64)
        for i in range(k):  # k is tiny (5): k vectorized adds
            kg = (kg * np.uint64(1099511628211)) ^ h[i : n - k + 1 + i]
        kg_parent = parents[: n - k + 1]
        valid = parents[k - 1 :] == kg_parent  # k-gram fully inside one doc
    else:
        kg = np.empty(0, np.uint64)
        kg_parent = np.empty(0, np.int64)
        valid = np.empty(0, bool)

    kg, kg_parent = kg[valid], kg_parent[valid]
    fps: list[list[int]] = [[] for _ in range(n_rows)]
    if kg.size:
        m = len(kg)
        w = min(window, m)
        # sliding-window minimum via stride tricks; mask windows crossing docs
        if m >= w:
            win = np.lib.stride_tricks.sliding_window_view(kg, w)
            wmin = win.min(axis=1)
            same_doc = kg_parent[w - 1 :] == kg_parent[: m - w + 1]
            sel_parent = kg_parent[: m - w + 1][same_doc]
            sel_min = wmin[same_doc]
            # short docs (fewer than w k-grams) fall back to their global min
            has_win = np.zeros(n_rows, dtype=bool)
            has_win[sel_parent] = True
            sp, sm, _tf, _first = _doc_key_tf(sel_parent, sel_min)
            for p, v in zip(sp, sm):
                fps[p].append(int(v))
            # fallback mins for docs with k-grams but no full window
            for p in np.unique(kg_parent):
                if not has_win[p]:
                    fps[p].append(int(kg[kg_parent == p].min()))
    # md5 = DuckDB's md5(text), null text as "": oracle-checkable
    digest = hex_digest(pc.fill_null(texts, ""))
    out = batch.select([c for c in batch.column_names if c != text_col])
    out = out.append_column("fingerprints", pa.array(fps, pa.list_(pa.uint64())))
    out = out.append_column("n_fingerprints", pa.array([len(f) for f in fps], pa.int64()))
    out = out.append_column("digest", digest)
    return out


def fingerprint(ds, text_col: str = "text", k: int = 5, window: int = 8):
    return ds.map_batches(
        lambda b: fingerprint_batch(b, text_col, k, window), batch_format="pyarrow"
    )


# --------------------------------------------------------------------------- #
# unigram language-model scoring (CCNet-style; Wenzek et al. 2020 used a
# Kneser-Ney LM to bucket CommonCrawl by perplexity — the unigram variant
# here is the model a no-external-data pipeline can fit from the corpus
# itself in one shuffle)
# --------------------------------------------------------------------------- #
def unigram_counts(ds, text_col: str = "text"):
    """Global token-occurrence counts in the hash domain: one Dataset of
    ``(kh int64, cnt int64)``, unique on kh.  Map side shrinks each batch
    to its unique tokens before the shuffle (np.unique partial counts), so
    the exchange carries vocabulary-sized rows, never the token stream."""
    from .joins import _join_parts

    num_partitions = _join_parts(None)

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        flat, _parents = _flatten_tokens(texts)
        kh = u64(flat).view(np.int64)
        uniq, cnt = np.unique(kh, return_counts=True)
        part = (uniq.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"kh": pa.array(uniq, pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def reduce_part(group: pa.Table) -> pa.Table:
        kh = group["kh"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(kh, return_inverse=True)
        tot = np.bincount(inv, weights=cnt, minlength=len(uniq)).astype(np.int64)
        return pa.table({"kh": pa.array(uniq, pa.int64()),
                         "cnt": pa.array(tot, pa.int64())})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(reduce_part, batch_format="pyarrow")
    )


def _micro(num, den) -> np.ndarray:
    """``floor(ln(num / den) * 1e6 + 0.5)`` as int64 micro-nats — both
    sides cast to float64 first, so the double division matches the SQL
    oracle's bit for bit."""
    return np.floor(
        np.log(np.asarray(num, np.float64) / np.asarray(den, np.float64))
        * 1e6 + 0.5
    ).astype(np.int64)


def _token_occ(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Per-doc unique token rows ``(id_col, kh, tf)`` of one batch."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ps, kh, tf, _first, _flat = _token_tf(batch[text_col])
    return _occ_table(id_col, ids[ps], "kh", kh, tf)


def _lm_reduce(ids, inv, rows: pa.Table, id_col: str, n_col: str) -> pa.Table:
    """Per-doc LM score of occurrence rows carrying ``micro``:
    ``(id_col, n_col, logprob_micro, logprob_mean)``."""
    tf = rows["tf"].to_numpy()
    n = _group_sum_i64(inv, tf, len(ids))
    lp = _group_sum_i64(inv, tf * rows["micro"].to_numpy(), len(ids))
    return pa.table({id_col: pa.array(ids, pa.int64()),
                     n_col: pa.array(n, pa.int64()),
                     "logprob_micro": pa.array(lp, pa.int64()),
                     "logprob_mean": pa.array(lp / 1e6 / np.maximum(n, 1),
                                              pa.float64())})


def _lm_score(ds, occ, key: str, micro_ds, id_col: str, n_col: str):
    """Per-doc LM scores of ``ds`` against a ``(key, micro)`` table, or the
    empty result when the table is empty."""
    import ray.data as rd

    from .joins import _score_per_doc

    reduce = partial(_lm_reduce, id_col=id_col, n_col=n_col)
    micro_ds = micro_ds.materialize()
    if not micro_ds.count():
        e = np.empty(0, np.int64)
        return rd.from_arrow(reduce(e, e, pa.table({"tf": e, "micro": e})))
    return _score_per_doc(ds, occ, _occ_schema(id_col, key), micro_ds, key,
                          reduce)


def unigram_logprob(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc unigram-LM score over the corpus's OWN unigram distribution:
    ``(id_col, n_tokens, logprob_micro, logprob_mean)`` where each token
    occurrence contributes ``round(ln(cnt/N) * 1e6)`` micro-nats
    (integer, so per-doc sums are order-independent and the SQL oracle
    hash-matches exactly); ``logprob_mean = micro/1e6/n`` nats (exact chained double division,
    bit-identical to the SQL oracle's)
    per token (perplexity = exp(-logprob_mean)).  Docs with no tokens drop
    out, matching the SQL occurrence join.

    Pass 1 is :func:`unigram_counts` (a vocab-sized shuffle); pass 2 scores
    per-doc ``(kh, tf)`` rows against the ``(kh, micro)`` table through
    :func:`riot_ray.pipelines.joins._score_per_doc`."""
    counts = unigram_counts(ds, text_col=text_col).materialize()
    n_total = counts.sum("cnt") or 0

    def add_micro(batch: pa.Table) -> pa.Table:
        return pa.table({"kh": batch["kh"], "micro": pa.array(
            _micro(batch["cnt"].to_numpy(), n_total), pa.int64())})

    return _lm_score(ds, partial(_token_occ, id_col=id_col, text_col=text_col),
                     "kh", counts.map_batches(add_micro, batch_format="pyarrow"),
                     id_col, "n_tokens")


def _bigram_stream(batch_texts):
    """(kg rolled-bigram hashes, k1 first-token hashes, parents) for every
    within-doc bigram occurrence of a batch — the FNV-over-md5 chain shared
    with the n-gram dedup kernels."""
    flat, parents = _flatten_tokens(batch_texts)
    h = u64(flat)
    if len(h) < 2:
        e = np.empty(0, np.int64)
        return e, e, np.empty(0, parents.dtype)
    valid = parents[1:] == parents[:-1]
    kg = ((h[:-1] * np.uint64(1099511628211)) ^ h[1:]).view(np.int64)[valid]
    k1 = h[:-1].view(np.int64)[valid]
    return kg, k1, parents[:-1][valid]


def _bigram_occ(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Per-doc unique bigram rows ``(id_col, kg, tf)`` of one batch."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    kg, _k1, parents = _bigram_stream(batch[text_col])
    ps, ks, tf, _first = _doc_key_tf(parents, kg)
    return _occ_table(id_col, ids[ps], "kg", ks, tf)


def bigram_logprob(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc bigram-LM score under the corpus's OWN bigram MLE:
    ``(id_col, n_bigrams, logprob_micro, logprob_mean)`` where each bigram
    occurrence (w1, w2) contributes ``round(ln(c12 / c1) * 1e6)``
    micro-nats — c12 = corpus count of the bigram, c1 = corpus count of w1
    as a bigram PREFIX (so probabilities per prefix sum to 1 and c1 derives
    from the bigram table itself, no second corpus pass).  Integer token
    scores make per-doc sums order-independent; the SQL oracle hash-matches
    exactly.  Docs with < 2 tokens drop out.  The bigram analog of
    :func:`unigram_logprob` — conditional perplexity separates fluent text
    from word salad where unigram frequency cannot.

    Pass 1 shuffles per-batch-unique (kg, k1, c) partials partitioned by
    the prefix k1, so each group holds every bigram of its prefixes and
    computes c12, c1 and the micro-nats locally; pass 2 scores per-doc
    ``(kg, tf)`` rows through
    :func:`riot_ray.pipelines.joins._score_per_doc`."""
    from .joins import _join_parts

    num_partitions = _join_parts(None)

    def partial_counts(batch: pa.Table) -> pa.Table:
        kg, k1, _parents = _bigram_stream(batch[text_col])
        uk, first, cnt = np.unique(kg, return_index=True, return_counts=True)
        k1 = k1[first]
        part = (k1.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"kg": pa.array(uk, pa.int64()),
                         "k1": pa.array(k1, pa.int64()),
                         "c": pa.array(cnt.astype(np.int64), pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def micro_part(group: pa.Table) -> pa.Table:
        kg = group["kg"].to_numpy()
        uk, first, inv = np.unique(kg, return_index=True, return_inverse=True)
        c12 = np.bincount(inv, weights=group["c"].to_numpy(),
                          minlength=len(uk)).astype(np.int64)
        _, inv1 = np.unique(group["k1"].to_numpy()[first], return_inverse=True)
        c1 = np.bincount(inv1, weights=c12).astype(np.int64)
        return pa.table({"kg": pa.array(uk, pa.int64()),
                         "micro": pa.array(_micro(c12, c1[inv1]), pa.int64())})

    micro_ds = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(micro_part, batch_format="pyarrow")
    )
    return _lm_score(ds, partial(_bigram_occ, id_col=id_col, text_col=text_col),
                     "kg", micro_ds, id_col, "n_bigrams")


def perplexity_buckets(ds, n_buckets: int = 10, text_col: str = "text",
                       id_col: str = "doc_id"):
    """CCNet's signature move: bucket the corpus by LM score so training
    recipes can sample by quality band.  Returns
    ``(id_col, n_tokens, ppl_key, bucket)`` where ``ppl_key =
    floor(logprob_micro * 1000 / n_tokens)`` is the per-token score in
    integer nano-nats (exact identical double ops on both sides) and
    ``bucket = #{thresholds < ppl_key}`` for the n_buckets-1 exact
    ``quantile_disc`` thresholds of ppl_key — near-equal bands, fully
    deterministic, hash-exact against the same formula in SQL.

    Scale shape: :func:`unigram_logprob` (vocab shuffle + streamed
    scoring) → :func:`exact_quantiles` (histogram passes, no global sort)
    → one broadcast of n_buckets-1 thresholds.  Nothing centralizes."""
    import ray

    if n_buckets < 2:
        raise ValueError("n_buckets must be >= 2")
    scored = unigram_logprob(ds, text_col=text_col, id_col=id_col)

    def add_key(batch: pa.Table) -> pa.Table:
        micro = batch["logprob_micro"].to_numpy(zero_copy_only=False)
        n_tok = batch["n_tokens"].to_numpy(zero_copy_only=False)
        key = np.floor(micro.astype(np.float64) * 1000.0 / n_tok).astype(np.int64)
        return pa.table({id_col: batch[id_col], "n_tokens": batch["n_tokens"],
                         "ppl_key": pa.array(key, pa.int64())})

    keyed = scored.map_batches(add_key, batch_format="pyarrow").materialize()
    qs = tuple(j / n_buckets for j in range(1, n_buckets))
    th_tab = exact_quantiles(keyed, "ppl_key", qs=qs)
    th = np.sort(th_tab["value"].to_numpy(zero_copy_only=False).astype(np.int64))
    ref = ray.put(th)

    def assign(batch: pa.Table) -> pa.Table:
        t = ray.get(ref)
        key = batch["ppl_key"].to_numpy(zero_copy_only=False)
        bucket = np.searchsorted(t, key, side="left").astype(np.int64)
        return batch.append_column("bucket", pa.array(bucket, pa.int64()))

    return keyed.map_batches(assign, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# TF-IDF keyword extraction
# --------------------------------------------------------------------------- #
def doc_freq_counts(ds, text_col: str = "text"):
    """Document-frequency per token in the hash domain: Dataset of
    ``(kh int64, df int64)``, df = number of DOCS containing the token.
    Map side reduces each batch to per-doc-unique tokens then counts docs
    per token (np.unique twice), so the shuffle carries vocabulary-sized
    partials — the skew-free shape: a token in every doc still ships one
    row per batch, never one row per doc."""
    from .joins import _join_parts

    num_partitions = _join_parts(None)

    def partial(batch: pa.Table) -> pa.Table:
        # per-doc unique first (df counts docs, not occurrences)
        _ps, kh, _tf, _first, _flat = _token_tf(batch[text_col])
        uniq, cnt = np.unique(kh, return_counts=True)
        part = (uniq.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"kh": pa.array(uniq, pa.int64()),
                         "df": pa.array(cnt.astype(np.int64), pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def reduce_part(group: pa.Table) -> pa.Table:
        kh = group["kh"].to_numpy(zero_copy_only=False)
        df = group["df"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(kh, return_inverse=True)
        tot = np.bincount(inv, weights=df, minlength=len(uniq)).astype(np.int64)
        return pa.table({"kh": pa.array(uniq, pa.int64()),
                         "df": pa.array(tot, pa.int64())})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(reduce_part, batch_format="pyarrow")
    )


def _tfidf_occ(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Per-doc unique token rows ``(id_col, kh, tf, term)`` of one batch."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ps, kh, tf, first, flat = _token_tf(batch[text_col])
    return _occ_table(id_col, ids[ps], "kh", kh, tf,
                      term=flat.take(pa.array(first, pa.int64())))


def _tfidf_rank(ids, inv, rows: pa.Table, id_col: str, k: int) -> pa.Table:
    """Rows carrying ``idf`` scored ``tf * idf``, sorted by (doc, score
    desc, term asc); each doc keeps rank <= k."""
    tf = rows["tf"].to_numpy()
    score = tf * rows["idf"].to_numpy()
    terms = np.asarray(rows["term"].to_pylist(), dtype=str)
    doc = ids[inv]
    order = np.lexsort((terms, -score, doc))
    ds_ = doc[order]
    seg = np.flatnonzero(np.r_[True, ds_[1:] != ds_[:-1]])
    rank = np.arange(len(ds_)) - np.repeat(seg, np.diff(np.append(seg, len(ds_)))) + 1
    top = rank <= k
    keep = order[top]
    return pa.table({id_col: pa.array(doc[keep], pa.int64()),
                     "term": pa.array(terms[keep].tolist(), pa.string()),
                     "tf": pa.array(tf[keep], pa.int64()),
                     "tfidf_micro": pa.array(score[keep], pa.int64()),
                     "rank": pa.array(rank[top], pa.int64())})


def tfidf_topk(ds, text_col: str = "text", id_col: str = "doc_id", k: int = 3):
    """Per-doc top-k keyword extraction by TF-IDF:
    ``(id_col, term, tf, tfidf_micro, rank)`` with
    ``tfidf_micro = tf * round(ln(N/df) * 1e6)`` (idf rounded to integer
    micro-nats FIRST, then multiplied by the integer tf — so the score is
    exact integer arithmetic and the SQL oracle hash-matches), ranked per
    doc by (score desc, term asc), rank 1..k.  N = total input rows.

    Pass 1 is :func:`doc_freq_counts` (a vocab-sized, skew-free shuffle);
    pass 2 ranks per-doc ``(kh, tf, term)`` rows against the ``(kh, idf)``
    table through :func:`riot_ray.pipelines.joins._score_per_doc`."""
    import ray.data as rd

    from .joins import _score_per_doc

    counts = doc_freq_counts(ds, text_col=text_col).materialize()
    n_docs = ds.count()
    reduce = partial(_tfidf_rank, id_col=id_col, k=k)
    if not counts.count():
        e = np.empty(0, np.int64)
        return rd.from_arrow(reduce(e, e, pa.table({
            "tf": e, "idf": e, "term": pa.array([], pa.string())})))

    def add_idf(batch: pa.Table) -> pa.Table:
        return pa.table({"kh": batch["kh"], "idf": pa.array(
            _micro(n_docs, batch["df"].to_numpy()), pa.int64())})

    return _score_per_doc(
        ds, partial(_tfidf_occ, id_col=id_col, text_col=text_col),
        _occ_schema(id_col, "kh", term=pa.string()),
        counts.map_batches(add_idf, batch_format="pyarrow"), "kh", reduce)


# --------------------------------------------------------------------------- #
# related-document search ("more like this")
# --------------------------------------------------------------------------- #
def more_like_this(ds, query_ids, k: int = 5,
                   text_col: str = "text", id_col: str = "doc_id"):
    """Related-document search: for each query doc, the top-``k`` OTHER
    docs ranked by the sparse TF-IDF dot product — the classic
    "more like this" query a search engine offers next to a hit (the
    reference engine has no analog; this is the LLM-pipeline variant used
    to expand seed sets / find near-topical duplicates).

    Scoring is EXACT integer arithmetic so the DuckDB oracle hash-matches:
    per (doc, term) weight ``w = tf * idf_milli`` with
    ``idf_milli = round(ln(n_docs / df) * 1e3)`` (idf rounded FIRST, like
    :func:`tfidf_topk`), ``score(q, d) = Σ_shared w_q * w_d``; pairs whose
    score is <= 0 (only zero-idf terms shared) are excluded on both
    sides.  Ties break by ascending neighbor id.  Output:
    ``(query_id, neighbor_id, score, rank)`` with rank 1..k per query.

    Scale shape — two streaming passes over the corpus, NO all-to-all:

    1. the query docs are pulled (bounded: ``len(query_ids)`` rows) and
       tokenized on the driver;
    2. df is computed ONLY for the query docs' vocabulary (a broadcast
       membership probe + a vocab-bounded ``groupby`` of per-batch
       partials — terms outside the query vocab contribute nothing and
       never ship);
    3. the corpus streams once: each batch intersects its per-doc-unique
       terms with the broadcast (vocab, idf, query-weight) state, grouped
       int64 sums score every (query, doc) pair sharing a term, and only
       per-batch per-query top-k partials leave the task;
    4. partials reduce to the global top-k — driver-side under the same
       bounded-row gate :func:`riot_ray.pipelines.simsearch._reduce_topk`
       uses, ``groupby(query_id)`` off-driver above it.
    """
    import ray

    from .joins import _join_parts, _member_filter
    from .sampling import lookup_sorted
    from .simsearch import _DRIVER_REDUCE_MAX_ROWS

    qids = np.asarray(sorted({int(i) for i in query_ids}), np.int64)
    if qids.size == 0 or k <= 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "neighbor_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    n_docs = ds.count()

    # ---- 1) pull + tokenize the query docs (bounded rows) --------------- #
    picked = _member_filter(ds, qids, id_col, keep=True).select_columns(
        [id_col, text_col])
    qtabs = [t for t in ray.get(picked.materialize().to_arrow_refs())
             if t.num_rows]
    if not qtabs:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "neighbor_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    qtab = pa.concat_tables(qtabs).combine_chunks()
    q_doc_ids = qtab[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    qp, qk, qtf = _token_tf(qtab[text_col])[:3]
    vq = np.unique(qk)  # sorted query vocabulary (hash domain)
    if vq.size == 0:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "neighbor_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})

    # ---- 2) df restricted to the query vocabulary ----------------------- #
    vq_ref = ray.put(vq)
    num_partitions = _join_parts(None)

    def df_partial(batch: pa.Table) -> pa.Table:
        v = ray.get(vq_ref)
        _ps, ks, _tf = _token_tf(batch[text_col])[:3]
        _pos, hit = lookup_sorted(v, ks)
        uniq, cnt = np.unique(ks[hit], return_counts=True)
        part = (uniq.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"kh": pa.array(uniq, pa.int64()),
                         "df": pa.array(cnt.astype(np.int64), pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def df_reduce(group: pa.Table) -> pa.Table:
        kh = group["kh"].to_numpy(zero_copy_only=False)
        dfp = group["df"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(kh, return_inverse=True)
        tot = np.bincount(inv, weights=dfp, minlength=len(uniq)).astype(np.int64)
        return pa.table({"kh": pa.array(uniq, pa.int64()),
                         "df": pa.array(tot, pa.int64())})

    df_tabs = [t for t in ray.get(
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("__part").map_groups(df_reduce, batch_format="pyarrow")
        .materialize().to_arrow_refs()) if t.num_rows]
    df_of = np.zeros(vq.size, np.int64)
    for t in df_tabs:
        pos, hit = lookup_sorted(vq, t["kh"].to_numpy(zero_copy_only=False))
        df_of[pos[hit]] = t["df"].to_numpy(zero_copy_only=False)[hit]
    # every query term occurs in its query doc, so df >= 1 always
    idf = np.floor(np.log(float(n_docs) / df_of) * 1e3 + 0.5).astype(np.int64)

    # query weight matrix (nq, |vq|): tf * idf, int64
    W = np.zeros((len(q_doc_ids), vq.size), np.int64)
    qpos = np.searchsorted(vq, qk)
    W[qp, qpos] = qtf * idf[qpos]

    # ---- 3) one streaming scoring pass over the corpus ------------------ #
    state = ray.put((vq, idf, W, q_doc_ids))

    def score_batch(batch: pa.Table) -> pa.Table:
        v, idf_, W_, qd = ray.get(state)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ps, ks, tf = _token_tf(batch[text_col])[:3]
        pos, hit = lookup_sorted(v, ks)
        dsel, csel, wd = ps[hit], pos[hit], tf[hit] * idf_[pos[hit]]
        nq, n_rows = len(qd), len(ids)
        out_q, out_n, out_s = [], [], []
        if dsel.size:
            # (nq, nmatch) int64 contribution matrix, grouped-summed per
            # doc with ONE reduceat over the doc-sorted match list — exact
            # integer sums (order-independent, no float accumulation)
            order = np.argsort(dsel, kind="stable")
            sd = dsel[order]
            starts = np.flatnonzero(np.r_[True, sd[1:] != sd[:-1]])
            M = W_[:, csel[order]] * wd[order][None, :]
            acc_rows = np.add.reduceat(M, starts, axis=1)  # (nq, ndocs-hit)
            doc_idx = sd[starts]
            for qi in range(nq):
                sc = acc_rows[qi]
                keep = (sc > 0) & (ids[doc_idx] != qd[qi])
                if not keep.any():
                    continue
                di, si = doc_idx[keep], sc[keep]
                if len(si) > k:
                    # integer scores tie OFTEN: the partial must keep the
                    # k best under the GLOBAL order (score desc, id asc)
                    # or a tie-winning smaller id could be dropped here
                    # and the merged result diverge from the SQL oracle
                    top = np.lexsort((ids[di], -si))[:k]
                    di, si = di[top], si[top]
                out_q.append(np.full(len(di), qd[qi], np.int64))
                out_n.append(ids[di])
                out_s.append(si)
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.int64())})
        return pa.table({"query_id": pa.array(np.concatenate(out_q), pa.int64()),
                         "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
                         "score": pa.array(np.concatenate(out_s), pa.int64())})

    partials = ds.map_batches(score_batch, batch_format="pyarrow")

    # ---- 4) global per-query top-k reduce (integer scores) -------------- #
    def topk_int(t: pa.Table) -> pa.Table:
        q = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["neighbor_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["score"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((n, -s, q))
        qs, ns, ss = q[order], n[order], s[order]
        new = np.r_[True, qs[1:] != qs[:-1]]
        seg = np.flatnonzero(new)
        rank = (np.arange(len(qs))
                - np.repeat(seg, np.diff(np.append(seg, len(qs)))) + 1)
        keep = rank <= k
        return pa.table({"query_id": pa.array(qs[keep], pa.int64()),
                         "neighbor_id": pa.array(ns[keep], pa.int64()),
                         "score": pa.array(ss[keep], pa.int64()),
                         "rank": pa.array(rank[keep], pa.int64())})

    mat = partials.materialize()
    if mat.count() <= _DRIVER_REDUCE_MAX_ROWS:
        tabs = [t for t in ray.get(mat.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return topk_int(pa.table({"query_id": pa.array([], pa.int64()),
                                      "neighbor_id": pa.array([], pa.int64()),
                                      "score": pa.array([], pa.int64())}))
        return topk_int(pa.concat_tables(tabs).combine_chunks())
    reduced = mat.groupby("query_id").map_groups(topk_int, batch_format="pyarrow")
    tabs = [t for t in ray.get(reduced.materialize().to_arrow_refs()) if t.num_rows]
    if not tabs:
        return topk_int(pa.table({"query_id": pa.array([], pa.int64()),
                                  "neighbor_id": pa.array([], pa.int64()),
                                  "score": pa.array([], pa.int64())}))
    out = pa.concat_tables(tabs).combine_chunks()
    order = np.lexsort((out["rank"].to_numpy(zero_copy_only=False),
                        out["query_id"].to_numpy(zero_copy_only=False)))
    return out.take(pa.array(order, pa.int64()))


# --------------------------------------------------------------------------- #
# token-window chunking (training-sequence preparation)
# --------------------------------------------------------------------------- #
# single-StringArray capacity guards for chunk_docs' gathered token
# stream (int32 offsets AND value-buffer bytes); slightly under 2^31 for
# join-separator headroom.  Module-level so tests can shrink them.
_CHUNK_GATHER_CAP_TOKENS = (1 << 31) - (1 << 20)
_CHUNK_GATHER_CAP_BYTES = (1 << 30)


def chunk_docs(ds, text_col: str = "text", id_col: str = "doc_id",
               chunk_tokens: int = 64, stride: int | None = None):
    """Split each doc into token windows for training-sequence prep:
    ``(id_col, chunk_idx, n_tokens, chunk_text)`` where chunk ``i`` covers
    tokens ``[i*stride, i*stride + chunk_tokens)`` of the doc's token
    stream and ``chunk_text`` re-joins them with single spaces (the
    canonical form — original inter-token bytes are separators by
    definition).  ``stride < chunk_tokens`` gives overlapping windows;
    default is non-overlapping.  Docs with no tokens emit no chunks.

    Map-only and fully vectorized: chunk membership is computed with
    repeat/arange index arithmetic and the chunk strings are built by ONE
    ``pc.binary_join`` over a ListArray view of the gathered tokens — no
    Python loop over docs or chunks.  No shuffle; at 100 TB this stage
    streams block-parallel like any other map."""
    stride = stride or chunk_tokens
    if stride <= 0 or chunk_tokens <= 0:
        raise ValueError("chunk_tokens and stride must be positive")

    def chunk(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        flat, parents = _flatten_tokens(batch[text_col])
        n_rows = len(ids)
        n_tok = np.bincount(parents, minlength=n_rows).astype(np.int64)
        doc_start = np.r_[0, np.cumsum(n_tok)]  # parents is nondecreasing
        n_chunks = -(-n_tok // stride)  # ceil; 0 tokens -> 0 chunks
        total = int(n_chunks.sum())
        if total == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "chunk_idx": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "chunk_text": pa.array([], pa.string())})
        doc_of = np.repeat(np.arange(n_rows), n_chunks)
        cum = np.r_[0, np.cumsum(n_chunks)[:-1]]
        chunk_idx = np.arange(total) - np.repeat(cum, n_chunks)
        tok_start = doc_start[doc_of] + chunk_idx * stride
        tok_len = np.minimum(chunk_tokens, n_tok[doc_of] - chunk_idx * stride)
        offs = np.r_[0, np.cumsum(tok_len)]
        gather = np.repeat(tok_start, tok_len) + (
            np.arange(offs[-1]) - np.repeat(offs[:-1], tok_len)
        )
        # overlapping windows inflate the gathered stream by
        # ~chunk_tokens/stride, so one batch can exceed the int32 capacity
        # of a single StringArray (offsets AND bytes).  Slice the gather so
        # every slice stays under the caps and emit chunk_text as a
        # CHUNKED string column — the schema stays plain string() in every
        # batch (a large_string fallback would drift the schema between
        # small and large batches and break block unification).
        blen = pc.binary_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        # cumulative gathered bytes AT ROW BOUNDARIES (len total_rows+1)
        row_bytes = np.r_[0, np.cumsum(blen[gather])][offs]
        parts = []
        start = 0
        total_rows = len(tok_len)
        while start < total_rows:
            end = min(
                int(np.searchsorted(offs, offs[start] + _CHUNK_GATHER_CAP_TOKENS,
                                    side="right")) - 1,
                int(np.searchsorted(row_bytes,
                                    row_bytes[start] + _CHUNK_GATHER_CAP_BYTES,
                                    side="right")) - 1,
                total_rows,
            )
            end = max(end, start + 1)  # always progress (one row per slice min)
            g = gather[offs[start]: offs[end]]
            vals = flat.take(pa.array(g, pa.int64()))
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            so = (offs[start: end + 1] - offs[start]).astype(np.int64)
            la = pa.ListArray.from_arrays(pa.array(so, pa.int32()), vals)
            parts.append(pc.binary_join(la, " "))
            start = end
        texts = pa.chunked_array(parts) if len(parts) > 1 else parts[0]
        return pa.table({id_col: pa.array(ids[doc_of], pa.int64()),
                         "chunk_idx": pa.array(chunk_idx, pa.int64()),
                         "n_tokens": pa.array(tok_len, pa.int64()),
                         "chunk_text": texts})

    return ds.map_batches(chunk, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# distributed grep (regex code search over the corpus)
# --------------------------------------------------------------------------- #
def grep_search(ds, pattern: str, text_col: str = "text",
                id_col: str = "doc_id"):
    """Distributed grep: ``(id_col, n_matches)`` for every doc with at
    least one non-overlapping RE2 match of ``pattern`` (Arrow and DuckDB
    both use RE2, so ``length(regexp_extract_all(...))`` is the exact
    oracle).  Map-only, zero-copy Arrow, no shuffle — the complement to
    BM25 search for the exact-pattern queries code corpora live on."""
    def scan(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        cnt = (
            pc.count_substring_regex(texts, pattern)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        keep = cnt > 0
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({id_col: pa.array(ids[keep], pa.int64()),
                         "n_matches": pa.array(cnt[keep], pa.int64())})

    return ds.map_batches(scan, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# JSON field extraction (semi-structured props columns)
# --------------------------------------------------------------------------- #
def extract_json_int(
    ds,
    json_col: str = "props",
    key: str = "k",
    out_col: str = "k",
    keep_cols: tuple = ("event_id",),
):
    """Pull an integer field out of a JSON-string column, fully vectorized
    (Arrow ``extract_regex`` — no per-row json.loads).  Missing/non-integer
    fields yield null, matching SQL ``json_extract`` semantics.  Output:
    ``keep_cols + (out_col:int64,)``."""
    import pyarrow.compute as pc

    pattern = rf'"{key}"\s*:\s*(?P<v>-?\d+)'

    def ex(batch: pa.Table) -> pa.Table:
        col = batch[json_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = pc.extract_regex(col, pattern)
        v = pc.struct_field(m, "v").cast(pa.int64())
        cols = {c: batch[c] for c in keep_cols}
        cols[out_col] = v
        return pa.table(cols)

    return ds.map_batches(ex, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# repetition / boilerplate quality filters (Gopher-style; Rae et al. 2021)
# --------------------------------------------------------------------------- #
def _pair_counts(strs: pa.Array, parents: np.ndarray):
    """Per-(doc, string) occurrence counts.  Returns (docs, codes, counts,
    dictionary) where dictionary[codes] are the unique strings."""
    denc = pc.dictionary_encode(strs)
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_uniq = max(len(denc.dictionary), 1)
    key = parents * n_uniq + codes
    uk, counts = np.unique(key, return_counts=True)
    return uk // n_uniq, uk % n_uniq, counts, denc.dictionary


def _gram_hash_occurrences(h: np.ndarray, tparents: np.ndarray, n: int):
    """All within-doc n-gram OCCURRENCES as rolled hashes: (kg, doc, pos0)
    where pos0 is the gram's first-token index into the flat token array.
    Same FNV-style chain over per-token md5 as dedup._doc_gram_hashes."""
    tot = len(h)
    if tot < n:
        e = np.empty(0, np.int64)
        return np.empty(0, np.uint64), e, e
    kg = np.zeros(tot - n + 1, dtype=np.uint64)
    for i in range(n):
        kg = (kg * np.uint64(1099511628211)) ^ h[i : tot - n + 1 + i]
    kp = tparents[: tot - n + 1]
    valid = tparents[n - 1 :] == kp
    pos0 = np.flatnonzero(valid)
    return kg[valid], kp[valid].astype(np.int64), pos0


def _gram_runs(kg: np.ndarray, kpar: np.ndarray, pos0: np.ndarray):
    """Collapse (doc, gram-hash) occurrences into runs: per-run (doc, count,
    representative pos0)."""
    docs, _kg, counts, first = _doc_key_tf(kpar, kg)
    return docs, counts, pos0[first]


def _top_gram_frac(flat, h, tparents, n, n_rows, tok_chars):
    """Char fraction of each doc's most frequent n-gram (ties: lexicographic
    smallest gram — matches SQL ``ORDER BY c DESC, g``).  Counting happens
    in the rolled-hash domain; gram STRINGS are built only for each doc's
    max-count candidates (usually one per doc)."""
    out = np.zeros(n_rows, np.float64)
    kg, kpar, pos0 = _gram_hash_occurrences(h, tparents, n)
    if len(kg) == 0:
        return out
    run_doc, run_cnt, run_pos = _gram_runs(kg, kpar, pos0)
    cmax = np.zeros(n_rows, np.int64)
    np.maximum.at(cmax, run_doc, run_cnt)
    cand = run_cnt == cmax[run_doc]
    cd, cp = run_doc[cand], run_pos[cand]
    # strings only for candidates
    parts = [flat.take(pa.array(cp + i, pa.int64())) for i in range(n)]
    strs = np.asarray(
        pc.binary_join_element_wise(*parts, " ").to_pylist(), dtype=str
    )
    order = np.lexsort((strs, cd))  # per doc: lexicographically smallest
    first = np.unique(cd[order], return_index=True)[1]
    top = order[first]
    glens = np.char.str_len(strs[top]) - (n - 1)
    out[cd[top]] = cmax[cd[top]] * glens / np.maximum(tok_chars[cd[top]], 1)
    return out


def repetition_stats_batch(batch: pa.Table, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """Per-doc repetition metrics (the Gopher quality-filter family):

    * ``n_lines`` / ``dup_line_frac`` — newline-split duplicate-line fraction
    * ``top_bigram_frac`` / ``top_trigram_frac`` — char fraction of the most
      frequent token 2-/3-gram (ties broken to the lexicographically
      smallest gram, matching the SQL oracle)
    * ``dup_5gram_frac`` — fraction of 5-gram occurrences whose gram occurs
      more than once in the doc

    All SQL-oracle-checkable (same token model as token_stats; null text is
    treated as "" — a SQL oracle that must match null-bearing corpora needs
    COALESCE(text, ''))."""
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    n_rows = batch.num_rows

    # ---- line metrics (DuckDB string_split(text, chr(10)) keeps empties)
    lines = pc.split_pattern(texts, "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    lflat = pc.list_flatten(lines)
    lparents = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    n_lines = np.bincount(lparents, minlength=n_rows)
    ldocs, _, _, _ = _pair_counts(lflat, lparents)
    n_distinct = np.bincount(ldocs, minlength=n_rows)
    dup_line_frac = (n_lines - n_distinct) / np.maximum(n_lines, 1)

    # ---- token n-gram metrics (hash-domain counting; strings only for
    # each doc's top-gram candidates)
    flat, tparents = _flatten_tokens(texts)
    h = u64(flat)
    tlens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    tok_chars = np.bincount(tparents, weights=tlens, minlength=n_rows)
    top2 = _top_gram_frac(flat, h, tparents, 2, n_rows, tok_chars)
    top3 = _top_gram_frac(flat, h, tparents, 3, n_rows, tok_chars)

    kg5, kpar5, pos5 = _gram_hash_occurrences(h, tparents, 5)
    dup5 = np.zeros(n_rows, np.float64)
    if len(kg5):
        docs5, counts5, _ = _gram_runs(kg5, kpar5, pos5)
        total5 = np.bincount(kpar5, minlength=n_rows)
        dupocc = np.bincount(docs5, weights=np.where(counts5 > 1, counts5, 0),
                             minlength=n_rows)
        dup5 = dupocc / np.maximum(total5, 1)

    return pa.table(
        {
            id_col: batch[id_col],
            "n_lines": pa.array(n_lines, pa.int64()),
            "dup_line_frac": pa.array(round6(dup_line_frac), pa.float64()),
            "top_bigram_frac": pa.array(round6(top2), pa.float64()),
            "top_trigram_frac": pa.array(round6(top3), pa.float64()),
            "dup_5gram_frac": pa.array(round6(dup5), pa.float64()),
        }
    )


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(
        lambda b: repetition_stats_batch(b, text_col, id_col),
        batch_format="pyarrow",
    )


def hot_ngrams(ds, n: int = 3, min_docs: int = 10, text_col: str = "text",
               id_col: str = "doc_id", num_buckets: int = 32):
    """Corpus-level boilerplate phrase detection: token n-grams appearing in
    >= ``min_docs`` DISTINCT documents -> (gram, n_docs).

    Two passes, both string-free through the shuffle:

    1. COUNT IN THE HASH DOMAIN — each batch emits its distinct
       (doc, gram) pairs as 8-byte rolled gram hashes (md5 per unique
       TOKEN, rolled FNV-style per gram — the ngram-jaccard kernel); one
       bucket groupby counts docs per hash and keeps hashes with
       >= min_docs.  Gram STRINGS never enter this shuffle.
    2. RESOLVE STRINGS for the (small) hot-hash set only — the hot set
       broadcasts via ray.put; a second streaming pass builds gram strings
       just for positions whose hash is hot and the driver dedups the tiny
       (hash, gram) table.

    At 100 TB the difference is decisive: pass 1 moves 8 bytes per
    distinct (doc, gram) instead of the gram text (~corpus bytes x n)."""
    import ray

    from .dedup import _doc_gram_hashes

    def emit_hashes(batch: pa.Table) -> pa.Table:
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        kg, _kp = _doc_gram_hashes(texts, n)
        return pa.table(
            {
                "h": pa.array(kg.view(np.int64), pa.int64()),
                "bucket": pa.array((kg % np.uint64(num_buckets)).astype(np.int32),
                                   pa.int32()),
            }
        )

    def count_group(part: pa.Table) -> pa.Table:
        h = part["h"].to_numpy(zero_copy_only=False)
        uh, counts = np.unique(h, return_counts=True)
        keep = counts >= min_docs
        return pa.table(
            {
                "h": pa.array(uh[keep], pa.int64()),
                "n_docs": pa.array(counts[keep], pa.int64()),
            }
        )

    hot = (
        ds.map_batches(emit_hashes, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(count_group, batch_format="pyarrow")
        .to_pandas()
    )
    if len(hot) == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({"gram": pa.array([], pa.string()),
                                       "n_docs": pa.array([], pa.int64())}))
    hot_sorted = np.sort(hot["h"].to_numpy(np.int64).view(np.uint64))
    href = ray.put(hot_sorted)

    def resolve(batch: pa.Table) -> pa.Table:
        from .sampling import lookup_sorted

        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        flat, tparents = _flatten_tokens(texts)
        h = u64(flat)
        tot = len(h)
        if tot < n:
            return pa.table({"h": pa.array([], pa.int64()),
                             "gram": pa.array([], pa.string())})
        kg = np.zeros(tot - n + 1, dtype=np.uint64)
        for i in range(n):
            kg = (kg * np.uint64(1099511628211)) ^ h[i : tot - n + 1 + i]
        valid = tparents[n - 1 :] == tparents[: tot - n + 1]
        _, is_hot = lookup_sorted(ray.get(href), kg)
        sel = np.flatnonzero(valid & is_hot)
        if len(sel) == 0:
            return pa.table({"h": pa.array([], pa.int64()),
                             "gram": pa.array([], pa.string())})
        # build strings ONLY for hot positions
        parts = [flat.take(pa.array(sel + i, pa.int64())) for i in range(n)]
        grams = pc.binary_join_element_wise(*parts, " ")
        kg_sel = kg[sel]
        # batch-local dedup by hash
        uniq_idx = np.unique(kg_sel, return_index=True)[1]
        return pa.table(
            {
                "h": pa.array(kg_sel[uniq_idx].view(np.int64), pa.int64()),
                "gram": grams.take(pa.array(uniq_idx, pa.int64())),
            }
        )

    strs = (
        ds.map_batches(resolve, batch_format="pyarrow")
        .to_pandas()
        .drop_duplicates("h")
    )
    out = hot.merge(strs, on="h", how="inner")[["gram", "n_docs"]]
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))


# --------------------------------------------------------------------------- #
# HyperLogLog distinct-count sketch (Flajolet et al. 2007)
# --------------------------------------------------------------------------- #
def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (no float, no rounding)."""
    bl = np.zeros(len(w), np.int64)
    w = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = w >= (np.uint64(1) << np.uint64(shift))
        bl[big] += shift
        w[big] >>= np.uint64(shift)
    bl[w > 0] += 1
    return bl


def hll_count(ds, col: str = "doc_id", p: int = 12, seed: int = 0,
              tokens: bool = False):
    """Approximate COUNT(DISTINCT col) via a HyperLogLog sketch.

    Scale shape: each batch reduces to <= 2^p (bucket, max rho) rows; a
    single tiny groupby-max merges them; only 2^p registers ever reach the
    driver — the classic sketch answer to distinct-counting 10^12 values.

    The value hash is the md5 scheme (``"{v}#{seed}"`` -> first 8 md5
    bytes; integer or string values, nulls skipped as COUNT(DISTINCT)
    does) and rho uses exact integer bit-length, so the ESTIMATE ITSELF is
    bit-reproducible in DuckDB SQL (bin()/ltrim for the bit length) — an
    approximate operator with an exact-match oracle.  Standard
    bias-corrected formula + small-range linear counting; 64-bit hashes
    make the large-range correction unnecessary.

    ``tokens=True`` sketches the distinct word tokens of a text column
    instead of the column values (duplicates never change register maxima,
    so no pre-dedup is needed on either side)."""
    from ray.data.aggregate import Max

    m = 1 << p
    wbits = 64 - p

    def partial(batch: pa.Table) -> pa.Table:
        if tokens:
            vals, _ = _flatten_tokens(
                batch[col].combine_chunks()
                if isinstance(batch[col], pa.ChunkedArray) else batch[col])
        else:  # COUNT(DISTINCT col) skips nulls
            vals = pc.drop_null(batch[col])
        if len(vals) == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.int64())})
        from .sampling import _id_hashes

        h = _id_hashes(vals, seed)
        bucket = (h >> np.uint64(wbits)).astype(np.int64)
        w = h & np.uint64((1 << wbits) - 1)
        rho = np.where(w == 0, wbits + 1, wbits - _bit_length_u64(w) + 1)
        # per-batch register max (bounded output)
        order = np.lexsort((-rho, bucket))
        first = np.unique(bucket[order], return_index=True)[1]
        sel = order[first]
        return pa.table({"bucket": pa.array(bucket[sel], pa.int64()),
                         "rho": pa.array(rho[sel], pa.int64())})

    regs = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Max("rho", alias_name="rho"))
        .to_pandas()
    )
    nb = len(regs)
    s = float(np.sum(np.power(2.0, -regs["rho"].to_numpy()))) + (m - nb)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / s
    if est <= 2.5 * m and nb < m:
        est = m * np.log(m / (m - nb))
    return pa.table(
        {
            "estimate": pa.array([int(np.floor(est + 0.5))], pa.int64()),
            "p": pa.array([p], pa.int64()),
        }
    )


# --------------------------------------------------------------------------- #
# exact distributed quantiles (order statistics without a global sort)
# --------------------------------------------------------------------------- #
def grouped_stats(ds, col: str, key_col: str,
                  num_partitions: int | None = None):
    """Exact per-key moments of an integer column:
    ``(key, n, sum, mean, variance)`` with ``sum``/``sumsq`` accumulated
    as int64 (order-independent, overflow-visible) and mean/variance
    derived by the IDENTICAL double expressions the SQL oracle writes
    (``var_samp`` = (sumsq - sum*sum/n) / (n-1)) — hash-exact, unlike a
    streaming float accumulation whose result depends on batch order.

    One hash-partitioned shuffle of per-batch (key, n, sum, sumsq)
    partials — three int64 cells per key per batch."""
    from .joins import _join_parts

    num_partitions = _join_parts(num_partitions)

    def partial(batch: pa.Table) -> pa.Table:
        keys = pc.fill_null(batch[key_col].cast(pa.string()), "")
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        enc = keys.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cats = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.int64)
        k = len(cats)
        n = np.bincount(codes, minlength=k).astype(np.int64)
        s = _group_sum_i64(codes, v, k)
        s2 = _group_sum_i64(codes, v * v, k)
        kh = u64(pa.array(cats, pa.string()))
        part = (kh % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"key": pa.array(cats, pa.string()),
                         "n": pa.array(n, pa.int64()),
                         "s": pa.array(s, pa.int64()),
                         "s2": pa.array(s2, pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def reduce_key(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "sum": pa.array([], pa.int64()),
                             "mean": pa.array([], pa.float64()),
                             "variance": pa.array([], pa.float64())})
        keys = np.asarray(group["key"].to_pylist(), dtype=object)
        uniq, inv = np.unique(keys, return_inverse=True)
        n = _group_sum_i64(inv, group["n"].to_numpy(zero_copy_only=False),
                           len(uniq))
        s = _group_sum_i64(inv, group["s"].to_numpy(zero_copy_only=False),
                           len(uniq))
        s2 = _group_sum_i64(inv, group["s2"].to_numpy(zero_copy_only=False),
                            len(uniq))
        nf = n.astype(np.float64)
        mean = s.astype(np.float64) / nf
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (s2.astype(np.float64)
                   - s.astype(np.float64) * s.astype(np.float64) / nf) \
                / (nf - 1.0)
        # n==1 keys: sample variance is undefined — emit NULL (not NaN) to
        # match SQL (sumsq - sum*sum/n)/(n-1)'s division-by-zero NULL
        var = np.where(n > 1, var, 0.0)
        return pa.table({"key": pa.array(uniq, pa.string()),
                         "n": pa.array(n, pa.int64()),
                         "sum": pa.array(s, pa.int64()),
                         "mean": pa.array(mean, pa.float64()),
                         "variance": pa.array(var, pa.float64(),
                                              mask=n <= 1)})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(reduce_key, batch_format="pyarrow")
    )


def grouped_quantiles(ds, col: str, key_col: str,
                      qs=(0.25, 0.5, 0.75, 0.9, 0.99),
                      num_partitions: int | None = None):
    """EXACT per-key discrete quantiles of an integer column — DuckDB
    ``GROUP BY key: quantile_disc(col, q)`` semantics (0-based rank
    ``max(ceil(q*n_key), 1) - 1`` within the key's sorted values).

    Scale shape: ONE hash-partitioned shuffle of per-batch-combined
    (key, value, cnt) rows — the exchange carries the per-key VALUE
    HISTOGRAM (bounded by keys x distinct values; right for categorical
    keys over discrete columns like lengths/counts), never the rows —
    and each key's quantiles resolve inside its partition by a
    cumulative-count rank walk, emitting (key, q, value) directly: no
    driver-side state at all.  For continuous/high-cardinality values
    use :func:`exact_quantiles` per key instead."""
    import math

    from .joins import _join_parts

    num_partitions = _join_parts(num_partitions)
    qs = tuple(qs)

    def partial(batch: pa.Table) -> pa.Table:
        keys = pc.fill_null(batch[key_col].cast(pa.string()), "")
        enc = keys.combine_chunks().dictionary_encode() \
            if isinstance(keys, pa.ChunkedArray) else keys.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cats = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((v, codes))
        ck, cv = codes[order], v[order]
        first = np.empty(len(order), bool)
        if len(order):
            first[0] = True
            first[1:] = (ck[1:] != ck[:-1]) | (cv[1:] != cv[:-1])
        else:
            first = first[:0]
        starts = np.flatnonzero(first)
        cnt = np.diff(np.concatenate((starts, [len(order)])))
        uk = cats[ck[starts]]
        kh = u64(pa.array(uk, pa.string()))
        part = (kh % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"key": pa.array(uk, pa.string()),
                         "value": pa.array(cv[starts], pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def per_key(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "q": pa.array([], pa.float64()),
                             "value": pa.array([], pa.int64())})
        keys = np.asarray(group["key"].to_pylist(), dtype=object)
        vals = group["value"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vals, keys))
        sk, sv, sc = keys[order], vals[order], cnt[order]
        # combine duplicate (key, value) rows from different batches
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = (sk[1:] != sk[:-1]) | (sv[1:] != sv[:-1])
        starts = np.flatnonzero(first)
        tot = np.add.reduceat(sc, starts)
        sk, sv = sk[starts], sv[starts]
        kfirst = np.empty(len(sk), bool)
        kfirst[0] = True
        kfirst[1:] = sk[1:] != sk[:-1]
        kstarts = np.flatnonzero(kfirst)
        kends = np.concatenate((kstarts[1:], [len(sk)]))
        out_k, out_q, out_v = [], [], []
        for s, e in zip(kstarts, kends):
            c = np.cumsum(tot[s:e])
            n = int(c[-1])
            for q in qs:
                r = max(math.ceil(q * n), 1) - 1
                out_k.append(sk[s])
                out_q.append(float(q))
                out_v.append(int(sv[s:e][np.searchsorted(c, r + 1)]))
        return pa.table({"key": pa.array(out_k, pa.string()),
                         "q": pa.array(out_q, pa.float64()),
                         "value": pa.array(out_v, pa.int64())})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(per_key, batch_format="pyarrow")
    )


def exact_quantiles(ds, col: str, qs=(0.25, 0.5, 0.75, 0.9, 0.99),
                    num_buckets: int = 1 << 16):
    """EXACT discrete quantiles of an integer column, DuckDB
    ``quantile_disc`` semantics (0-based index ``max(ceil(q*n), 1) - 1`` of
    the sorted column — verified against DuckDB empirically), computed in
    three streaming passes with NO global sort:

    1. (min, max, count) — tiny per-batch partials;
    2. a value histogram over ``num_buckets`` equal integer ranges — each
       batch emits at most num_buckets (bucket, count) rows;
    3. only the buckets containing a requested rank are fetched and sorted
       driver-side (a width-1 bucket holds one distinct value and resolves
       with no fetch at all).

    Driver memory is bounded by the crossing buckets' populations, not n.
    Returns one (q, value) row per requested quantile."""
    import math

    def minmax(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({"mn": pa.array([], pa.int64()),
                             "mx": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({"mn": pa.array([int(v.min())], pa.int64()),
                         "mx": pa.array([int(v.max())], pa.int64()),
                         "n": pa.array([len(v)], pa.int64())})

    parts = ds.map_batches(minmax, batch_format="pyarrow").to_pandas()
    n = int(parts["n"].sum())
    if n == 0:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.int64())})
    mn, mx = int(parts["mn"].min()), int(parts["mx"].max())
    ranks = {q: max(math.ceil(q * n), 1) - 1 for q in qs}

    if mx == mn:
        return pa.table({"q": pa.array(list(qs), pa.float64()),
                         "value": pa.array([mn] * len(qs), pa.int64())})

    width = (mx - mn) // num_buckets + 1  # Python ints: never overflows

    def bucket_of(v: np.ndarray) -> np.ndarray:
        # wrap-safe difference: (v - mn) can exceed int64 range when the
        # column spans more than 2^63; two's-complement subtraction viewed
        # as uint64 gives the true distance (0 <= d < 2^64) exactly
        d = (v.astype(np.int64) - np.int64(mn)).view(np.uint64)
        return (d // np.uint64(width)).astype(np.int64)

    def hist(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False)
        b = bucket_of(v)
        ub, cnt = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(ub, pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    h = (ds.map_batches(hist, batch_format="pyarrow").to_pandas()
         .groupby("bucket")["n"].sum().sort_index())
    cum = h.cumsum()

    # bucket containing each rank + the rank's offset within it
    need: dict[int, list] = {}
    for q, k in ranks.items():
        bi = int(cum.index[np.searchsorted(cum.values, k + 1)])
        before = int(cum.loc[bi] - h.loc[bi])
        need.setdefault(bi, []).append((q, k - before))

    values = {}
    fetch = [bi for bi in need if width > 1]
    if fetch:
        fset = np.array(sorted(fetch), dtype=np.int64)

        def pick(batch: pa.Table) -> pa.Table:
            v = batch[col].to_numpy(zero_copy_only=False)
            b = bucket_of(v)
            from .sampling import lookup_sorted

            _, hit = lookup_sorted(fset, b)
            return pa.table({"v": pa.array(v[hit], pa.int64()),
                             "b": pa.array(b[hit], pa.int64())})

        got = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
        for bi in fetch:
            vals = np.sort(got.loc[got["b"] == bi, "v"].to_numpy())
            for q, off in need[bi]:
                values[q] = int(vals[off])
    for bi, items in need.items():
        if width == 1:
            for q, _off in items:
                values[q] = mn + bi  # width-1 bucket = one distinct value
    return pa.table({"q": pa.array(list(qs), pa.float64()),
                     "value": pa.array([values[q] for q in qs], pa.int64())})
