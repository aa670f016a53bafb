"""Distributed BPE tokenizer training + encoding.

Byte-pair encoding (Sennrich et al. 2016, "Neural Machine Translation of
Rare Words with Subword Units") is THE tokenizer a training-data
pipeline ships with its corpus.  The standard implementations
(sentencepiece, HF tokenizers) train on the corpus's WORD-FREQUENCY
table, not the raw token stream — which is exactly what makes BPE
Ray-Data-trainable at 100 TB:

* pass 1 (distributed): the (word, count) table via one hash-partitioned
  shuffle with per-batch combining — vocabulary-sized, never the stream.
  The table is capped to the ``max_words`` most frequent words with a
  per-partition pre-top-N (driver sees <= partitions x N rows); rare
  tail words contribute negligibly to pair counts (the same cap every
  production trainer applies).
* pass 2 (driver, bounded): the classic indexed merge loop over the word
  table — pair counts update only for words CONTAINING the merged pair
  (inverted pair->word index), so cost is O(touched words) per merge,
  not O(vocab) per merge.  Deterministic: ties on count break to the
  lexicographically smallest pair.
* encoding (distributed, stateful): an actor-pool ``map_batches`` stage
  holding the merge ranks; each batch dictionary-encodes its words and
  encodes each UNIQUE word once (per-actor LRU of encoded words), then
  gathers per-doc subword counts — the batched-model-inference shape.

Training is not SQL-expressible (iterative), so correctness is pinned in
pytest against a brute-force reference (recompute all pair counts each
merge) plus block-count-independence; the driver contract carries the
encode stage rows-only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import u64
from .analysis import _flatten_tokens

_EOW = "</w>"  # end-of-word marker, as in the original BPE paper


def word_counts(ds, text_col: str = "text", max_words: int = 200_000,
                num_partitions: int | None = None):
    """The (word, cnt) table, capped to the ``max_words`` most frequent
    (count desc, word asc — deterministic).  One shuffle; the cap is
    enforced per partition first, so the driver materializes at most
    partitions x max_words rows."""
    import ray

    from .dedup import _join_parts

    num_partitions = _join_parts(num_partitions)

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flat, _parents = _flatten_tokens(batch[text_col])
        # C-level unique+count: only UNIQUE tokens ever become python strs
        vc = pc.value_counts(flat)
        words = np.asarray(vc.field("values").to_pylist(), dtype=object)
        cnt = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        # deterministic cross-process hash (python's hash() is per-process
        # randomized — it would split one word across partitions)
        h = u64(pa.array(words, pa.string()))
        part = (h % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"word": pa.array(words, pa.string()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def reduce_top(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        words = np.asarray(group["word"].to_pylist(), dtype=object)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(words, return_inverse=True)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, inv, cnt)
        order = np.lexsort((uniq, -tot))[:max_words]
        return pa.table({"word": pa.array(uniq[order], pa.string()),
                         "cnt": pa.array(tot[order], pa.int64())})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(reduce_top, batch_format="pyarrow")
    )


def _train_merges(words: list, counts: np.ndarray, n_merges: int):
    """Indexed BPE merge loop over the word-frequency table.  Returns the
    ordered merge list [(a, b), ...].  Deterministic: best pair = max
    total count, ties to lexicographically smallest (a, b)."""
    # symbol sequences per word: characters + EOW on the last symbol
    seqs = [list(w[:-1]) + [w[-1] + _EOW] if w else [] for w in words]
    pair_cnt: dict = {}
    pair_words: dict = {}  # pair -> set of word indices containing it
    for wi, seq in enumerate(seqs):
        c = int(counts[wi])
        for a, b in zip(seq, seq[1:]):
            pair_cnt[(a, b)] = pair_cnt.get((a, b), 0) + c
            pair_words.setdefault((a, b), set()).add(wi)
    merges: list = []
    for _ in range(n_merges):
        if not pair_cnt:
            break
        best = min(pair_cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pair_cnt[best] < 1:
            break
        merges.append(best)
        a, b = best
        ab = a + b
        touched = pair_words.pop(best, set())
        pair_cnt.pop(best, None)
        for wi in touched:
            seq = seqs[wi]
            c = int(counts[wi])
            # remove this word's old pair contributions, rebuild after merge
            for x, y in zip(seq, seq[1:]):
                p = (x, y)
                if p in pair_cnt:
                    pair_cnt[p] -= c
                    if pair_cnt[p] <= 0:
                        del pair_cnt[p]
                        pair_words.pop(p, None)
                    else:
                        s = pair_words.get(p)
                        if s is not None:
                            s.discard(wi)
            new = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    new.append(ab)
                    i += 2
                else:
                    new.append(seq[i])
                    i += 1
            seqs[wi] = new
            for x, y in zip(new, new[1:]):
                p = (x, y)
                pair_cnt[p] = pair_cnt.get(p, 0) + c
                pair_words.setdefault(p, set()).add(wi)
    return merges


def bpe_train(ds, n_merges: int = 256, text_col: str = "text",
              max_words: int = 200_000, num_partitions: int | None = None):
    """Train BPE merges on the corpus: distributed word-frequency table,
    then the bounded driver merge loop.  Returns the ordered merge list
    ``[(a, b), ...]``; the implied vocabulary is all single characters (+
    end-of-word forms) plus one merged symbol per entry."""
    wc = word_counts(ds, text_col=text_col, max_words=max_words,
                     num_partitions=num_partitions).to_pandas()
    # cross-partition deterministic cap (each partition pre-capped)
    wc = wc.sort_values(["cnt", "word"], ascending=[False, True],
                        kind="mergesort").head(max_words)
    return _train_merges(wc["word"].tolist(),
                         wc["cnt"].to_numpy(np.int64), n_merges)


def encode_word(word: str, rank: dict) -> list:
    """Greedy lowest-rank-first merge application (reference semantics):
    repeatedly merge the pair with the smallest merge rank until none of
    the word's pairs has a rank."""
    if not word:
        return []
    seq = list(word[:-1]) + [word[-1] + _EOW]
    while len(seq) > 1:
        ranks = [rank.get((a, b)) for a, b in zip(seq, seq[1:])]
        best, best_i = None, -1
        for i, r in enumerate(ranks):
            if r is not None and (best is None or r < best):
                best, best_i = r, i
        if best is None:
            break
        seq[best_i: best_i + 2] = [seq[best_i] + seq[best_i + 1]]
    return seq


class _BpeEncodeStage:
    """Actor-pool encode: merge ranks built once per actor; each batch
    encodes only its UNIQUE words (dictionary-encode + per-actor cache),
    then gathers per-doc subword counts."""

    def __init__(self, merges_ref, text_col: str, id_col: str):
        import ray

        merges = ray.get(merges_ref) if not isinstance(merges_ref, list) else merges_ref
        self.rank = {tuple(p): i for i, p in enumerate(merges)}
        self.text_col = text_col
        self.id_col = id_col
        self.cache: dict = {}

    def _n_sub(self, w: str) -> int:
        n = self.cache.get(w)
        if n is None:
            n = len(encode_word(w, self.rank))
            if len(self.cache) > 1_000_000:
                self.cache.clear()
            self.cache[w] = n
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        flat, parents = _flatten_tokens(batch[self.text_col])
        denc = pc.dictionary_encode(flat)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = denc.dictionary.to_pylist()
        per_uniq = np.fromiter((self._n_sub(w) for w in uniq), np.int64,
                               count=len(uniq))
        n_rows = len(ids)
        n_sub = np.zeros(n_rows, np.int64)
        np.add.at(n_sub, parents, per_uniq[codes])
        n_words = np.bincount(parents, minlength=n_rows).astype(np.int64)
        return pa.table({self.id_col: pa.array(ids, pa.int64()),
                         "n_words": pa.array(n_words, pa.int64()),
                         "n_subwords": pa.array(n_sub, pa.int64())})


def bpe_encode_counts(ds, merges: list, text_col: str = "text",
                      id_col: str = "doc_id", concurrency=(1, 8),
                      batch_size: int = 4096):
    """Per-doc subword counts under a trained merge list:
    ``(id_col, n_words, n_subwords)``.  Merges broadcast once via
    ``ray.put``; encoding state lives in the actor (T1 pattern)."""
    import ray

    mref = ray.put([tuple(p) for p in merges])
    return ds.map_batches(
        _BpeEncodeStage,
        fn_constructor_kwargs={"merges_ref": mref, "text_col": text_col,
                               "id_col": id_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
