"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship code-mode index build + BM25 search on
sf0.001.  ``queries()`` exposes every implemented operator from SURVEY.md
§2 plus the training-data pipeline extensions; ``oracle_sql()`` gives the
DuckDB-equivalent SQL for each SQL-expressible one (same column names —
the driver hash-compares values).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().

Engine note: queries run in "simple" tokenizer mode (lowercase, split on
non-[a-z0-9]) which is definitionally equal to DuckDB's
``regexp_split_to_array(lower(text), '[^a-z0-9]+')`` — so tf/df/top-k/BM25
are exact SQL-checkable.  BM25 uses riot's formula and defaults
(k1=2.0, b=0.75, idf=log2(N/df+1) — /root/reference/core/indexer.go:523-547)
in float64, emitted as FLOOR(score*1000+0.5) milli-scores so the value hash
is integer-stable (riot's own tests pin int(score*1000) the same way,
/root/reference/engine_test.go:52-58).
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

# ---- BM25 fixture query (terms exist at every sf) ------------------------- #
QUERY_TERMS = ("spark", "data", "table")
SHOULD_TERMS = ("spark", "window")
NOT_IN_TERMS = ("slow",)
K = 10
DSIR_BUCKETS = 10_000  # the DSIR paper's hashed-feature dimensionality
MLT_QUERY_IDS = (0, 1, 2, 3)  # more_like_this seed docs (exist at every sf)
# batch_retrieval fixture: a fixed query TABLE (all 2-term ANDs over the
# corpus vocabulary, which is identical at every sf) — literals so the
# oracle SQL can carry the same set
BATCH_QUERIES = (
    (0, "spark data"), (1, "hash join"), (2, "window query"),
    (3, "sort merge"), (4, "table scan"), (5, "group agg"),
    (6, "stream batch"), (7, "filter column"), (8, "vector value"),
    (9, "order key"), (10, "fast line"), (11, "big small"),
)
BATCH_K = 5
SEMDEDUP_THRESHOLD = 0.4
MLT_K = 5
FUNNEL_STEPS = ("view", "click", "purchase")
FUNNEL_HORIZON_S = 7 * 86400

_CACHE_ROOT = "/tmp/riot_ray_entry"


def _opts(score_dtype="float64", index_type=None, mode="simple"):
    from riot_ray.config import FREQS_INDEX, EngineOpts

    return EngineOpts(
        mode=mode,
        index_type=FREQS_INDEX if index_type is None else index_type,
        id_cols=("doc_id",),
        content_col="text",
        meta_cols=("lang", "source"),
        score_dtype=score_dtype,
        num_parts=8,
        num_shards=4,
    )


def _index_for(sf_dir: str, variant: str = "freq") -> str:
    """Build (or resume) the index for this sf_dir; cached under /tmp.
    IndexWriter.build() skips shards whose manifest fingerprint matches, so
    repeated calls are cheap."""
    from riot_ray.build import IndexWriter
    from riot_ray.config import LOCS_INDEX

    src = os.path.join(sf_dir, "documents.parquet")
    opts = _opts() if variant == "freq" else _opts(index_type=LOCS_INDEX)
    key = hashlib.sha256(f"{src}|{variant}|{opts.to_json()}".encode()).hexdigest()[:16]
    index_dir = os.path.join(_CACHE_ROOT, f"{os.path.basename(os.path.normpath(sf_dir))}-{variant}-{key}")
    # always run build(): its fingerprint (opts + source path + file
    # size/mtime) makes unchanged re-runs skip every shard, and a source
    # regenerated in place correctly invalidates — a stats.json existence
    # shortcut would serve a stale index in that case
    IndexWriter(index_dir, opts).build(src, source_desc=src)
    return index_dir


def _docs(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))


def _emb(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))


def _query_vectors(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    t = t.filter(pa.compute.less(t["vec_id"], 5))
    idx = np.argsort(t["vec_id"].to_numpy(zero_copy_only=False))
    Q = np.stack(t["embedding"].to_numpy(zero_copy_only=False))[idx]
    qids = t["vec_id"].to_numpy(zero_copy_only=False)[idx]
    return Q, qids


# --------------------------------------------------------------------------- #
def entry() -> Any:
    """Flagship: code-mode inverted-index build over sf0.001 documents +
    actor-pool-kernel BM25 search, returned as a DataFrame."""
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import RankOpts, SearchReq

    idx = _index_for("/root/testdata/sf0.001")
    s = LocalSearcher(idx)
    resp = s.search(SearchReq(text=" ".join(QUERY_TERMS), rank_opts=RankOpts(max_outputs=K)))
    import pandas as pd

    return pd.DataFrame(
        {
            "rank": np.arange(1, len(resp.docs) + 1, dtype=np.int64),
            "doc_id": [int(h.doc_id) for h in resp.docs],
            "bm25": [h.bm25 for h in resp.docs],
        }
    )


# --------------------------------------------------------------------------- #
# queries
# --------------------------------------------------------------------------- #
def _q_tf_postings(sf_dir: str):
    from riot_ray.export import postings_dataset

    ds = postings_dataset(_index_for(sf_dir))

    def cast(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "term": b["term"],
                "doc_id": pa.compute.cast(b["doc_id"], pa.int64()),
                "tf": b["tf"],
            }
        )

    return ds.map_batches(cast, batch_format="pyarrow")


def _q_df_terms(sf_dir: str):
    from riot_ray.export import termstats_dataset

    return termstats_dataset(_index_for(sf_dir))


def _q_top_terms(sf_dir: str):
    from riot_ray.export import termstats_dataset

    t = termstats_dataset(_index_for(sf_dir)).to_pandas()
    t = t.sort_values(["df", "term"], ascending=[False, True]).head(20)
    return t.reset_index(drop=True)


def _q_doc_token_len(sf_dir: str):
    from riot_ray.export import docmeta_dataset

    ds = docmeta_dataset(_index_for(sf_dir))

    def cast(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.compute.cast(b["doc_id"], pa.int64()),
                "token_len": b["token_len"],
            }
        )

    return ds.map_batches(cast, batch_format="pyarrow")


def _q_corpus_stats(sf_dir: str):
    from riot_ray.build import load_stats

    st = load_stats(_index_for(sf_dir))
    from riot_ray.pipelines.analysis import round6

    n = int(st["n_docs"])
    tot = int(st["total_token_len"])
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "total_tokens": pa.array([tot], pa.int64()),
            "avgdl": pa.array([float(round6(tot / n))], pa.float64()),
        }
    )


def _q_bm25_topk(sf_dir: str):
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import RankOpts, SearchReq

    s = LocalSearcher(_index_for(sf_dir))
    resp = s.search(
        SearchReq(text=" ".join(QUERY_TERMS), rank_opts=RankOpts(max_outputs=K))
    )
    ids = np.array([int(h.doc_id) for h in resp.docs], dtype=np.int64)
    milli = np.floor(np.array([h.bm25 for h in resp.docs]) * 1000.0 + 0.5).astype(np.int64)
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "score_milli": pa.array(milli, pa.int64())}
    )


def _q_bm25_topk_wand(sf_dir: str):
    """Block-max WAND fast path — must equal the exhaustive bm25_topk
    (same oracle SQL), which the driver verifies independently."""
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import RankOpts, SearchReq

    s = LocalSearcher(_index_for(sf_dir))
    resp = s.search(
        SearchReq(
            text=" ".join(QUERY_TERMS),
            rank_opts=RankOpts(max_outputs=K),
            approx_count=True,
        )
    )
    ids = np.array([int(h.doc_id) for h in resp.docs], dtype=np.int64)
    milli = np.floor(np.array([h.bm25 for h in resp.docs]) * 1000.0 + 0.5).astype(np.int64)
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "score_milli": pa.array(milli, pa.int64())}
    )


def _q_count_and(sf_dir: str):
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import SearchReq

    s = LocalSearcher(_index_for(sf_dir))
    resp = s.search(SearchReq(text=" ".join(QUERY_TERMS), count_docs_only=True))
    return pa.table({"n_docs": pa.array([resp.num_docs], pa.int64())})


def _q_facet_counts(sf_dir: str):
    """Engine-side faceted search (the aggregation Elasticsearch bolts on,
    absent from riot): one AND query, facet counts over the FULL matching
    set per forward-table attribute, merged across shards by summation."""
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import SearchReq

    s = LocalSearcher(_index_for(sf_dir))
    resp = s.search(SearchReq(text=" ".join(QUERY_TERMS),
                              count_docs_only=True,
                              facets=("lang", "source")))
    rows = [(f, v, n) for f in ("lang", "source")
            for v, n in sorted(resp.facets[f].items())]
    return pa.table({
        "facet": pa.array([r[0] for r in rows], pa.string()),
        "value": pa.array([r[1] for r in rows], pa.string()),
        "n_docs": pa.array([r[2] for r in rows], pa.int64()),
    })


def _q_logic_should_notin(sf_dir: str):
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import Expr, Logic, SearchReq

    s = LocalSearcher(_index_for(sf_dir))
    resp = s.search(
        SearchReq(logic=Logic(expr=Expr(should=SHOULD_TERMS, not_in=NOT_IN_TERMS)))
    )
    ids = sorted(int(h.doc_id) for h in resp.docs)
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


def _q_token_stats(sf_dir: str):
    from riot_ray.pipelines import token_stats

    ds = token_stats(_docs(sf_dir).select_columns(["doc_id", "text"]))
    return ds.select_columns(["doc_id", "n_tokens_ws", "n_tokens", "n_tokens_bpe"])


def _q_unigram_logprob(sf_dir: str):
    """CCNet-style unigram-LM scoring: per-doc mean log-probability under
    the corpus's own unigram distribution, in integer micro-nats (exact,
    order-independent sums — the float mean is derived from the same ints
    on both sides)."""
    from riot_ray.pipelines import unigram_logprob

    return unigram_logprob(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_perplexity_buckets(sf_dir: str):
    from riot_ray.pipelines import perplexity_buckets

    return perplexity_buckets(
        _docs(sf_dir).select_columns(["doc_id", "text"]), n_buckets=10
    )


def _q_bigram_logprob(sf_dir: str):
    """Bigram conditional-LM scoring (micro-nat integers, exact oracle)."""
    from riot_ray.pipelines import bigram_logprob

    return bigram_logprob(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_quality(sf_dir: str):
    from riot_ray.pipelines import quality_score

    ds = quality_score(_docs(sf_dir).select_columns(["doc_id", "text"]))
    return ds.select_columns(
        ["doc_id", "n_tokens", "stop_ratio", "punct_ratio", "alnum_ratio", "mean_word_len"]
    )


def _q_repetition(sf_dir: str):
    """Gopher-style repetition quality filters (Rae et al. 2021): duplicate
    lines, top 2-/3-gram char fraction, duplicate-5-gram occurrence
    fraction — all with SQL-checkable definitions."""
    from riot_ray.pipelines import repetition_stats

    return repetition_stats(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_pii_scrub(sf_dir: str):
    """PII redaction (C4 / Dolma-style regex scrub: emails, IPv4, phones).
    The synthetic corpus carries no natural PII, so the query plants a
    deterministic doc_id-derived email + IP + phone per doc — the oracle
    builds the exact same string with SQL concatenation, so the hash check
    exercises real RE2 count/replace parity on non-trivial text."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from riot_ray.pipelines import pii_scrub

    def enrich(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)

        def s(a):
            return pa.array(a.astype("U"), pa.string())

        txt = pc.binary_join_element_wise(
            b["text"], " contact user", s(ids), "@ex", s(ids % 7),
            ".org ip 10.", s(ids % 200), ".", s(ids % 250), ".",
            s(ids % 100), " tel +", s(900000000 + ids), "",
        )
        return pa.table({"doc_id": b["doc_id"], "text": txt})

    enr = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        enrich, batch_format="pyarrow"
    )
    return pii_scrub(enr)


def _q_normalize_text(sf_dir: str):
    """Unicode NFC + whitespace-collapse + trim normalization; the query
    plants NFD sequences and messy whitespace (same injection as the
    oracle's SQL concat) so the check is non-trivial."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from riot_ray.pipelines import normalize_text

    def enrich(b: pa.Table) -> pa.Table:
        txt = pc.binary_join_element_wise(
            b["text"], "  x\ty cafe\u0301  ", ""
        )
        return pa.table({"doc_id": b["doc_id"], "text": txt})

    enr = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        enrich, batch_format="pyarrow"
    )
    return normalize_text(enr)


def _q_line_dedup(sf_dir: str):
    """C4-style corpus-wide duplicate-line removal (keep only the first
    occurrence of every distinct line).  The synthetic docs are single-line,
    so the query injects line breaks every 8 tokens plus a shared
    boilerplate footer (3 variants over 500 docs) — same SQL concat in the
    oracle — and returns the surviving (doc_id, line_idx, line) rows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from riot_ray.pipelines import line_dedup

    def enrich(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        txt = pc.replace_substring_regex(b["text"], r"((\S+ ){7}\S+) ", "\\1\n")
        txt = pc.binary_join_element_wise(
            txt, "\nlicense boilerplate v",
            pa.array((ids % 3).astype("U")), "",
        )
        return pa.table({"doc_id": b["doc_id"], "text": txt})

    enr = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        enrich, batch_format="pyarrow"
    )
    return line_dedup(enr)


def _q_line_dedup_clean(sf_dir: str):
    """Cleaned documents rebuilt from the kept lines of line_dedup —
    same enrichment as _q_line_dedup; oracle = string_agg of the kept
    lines per doc in line order."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from riot_ray.pipelines import line_dedup_clean

    def enrich(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        txt = pc.replace_substring_regex(b["text"], r"((\S+ ){7}\S+) ", "\\1\n")
        txt = pc.binary_join_element_wise(
            txt, "\nlicense boilerplate v",
            pa.array((ids % 3).astype("U")), "",
        )
        return pa.table({"doc_id": b["doc_id"], "text": txt})

    enr = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        enrich, batch_format="pyarrow"
    )
    return line_dedup_clean(enr)


def _substr_enrich_ds(sf_dir: str):
    """Shared input for the ExactSubstr queries: docs with a 63-char
    footer in 3 variants appended (same concat in the SQL oracle), so
    corpus-duplicated >=40-char substrings provably exist."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def enrich(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        txt = pc.binary_join_element_wise(
            b["text"],
            " common license footer text that recurs across documents rev ",
            pa.array((ids % 3).astype("U")), "",
        )
        return pa.table({"doc_id": b["doc_id"], "text": txt})

    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        enrich, batch_format="pyarrow"
    )


def _q_dup_spans(sf_dir: str):
    """ExactSubstr dedup (Lee et al. 2022), span-detection half: maximal
    spans of text whose every 40-char window occurs >= 2 times corpus-
    wide.  Footer enrichment guarantees planted duplicates; the natural
    near-dup docs in the table contribute organic spans too."""
    from riot_ray.pipelines import dup_spans

    return dup_spans(_substr_enrich_ds(sf_dir), min_len=40)


def _q_dup_span_clean(sf_dir: str):
    """ExactSubstr dedup, removal half: every doc with its duplicated
    spans cut out plus the removed-char count."""
    from riot_ray.pipelines import dup_span_clean

    return dup_span_clean(_substr_enrich_ds(sf_dir), min_len=40)


def _q_pipeline_substr_curate(sf_dir: str):
    """Curation chain v2 — the ExactSubstr op composing with the rest of
    the toolkit under ONE oracle: duplicated spans cut out
    (dup_span_clean), a post-clean length gate, then the deterministic
    Bernoulli sample.  Output is (doc_id, n_chars_clean, n_removed)."""
    import pyarrow.compute as pc

    from riot_ray.pipelines import dup_span_clean, hash_sample

    cleaned = dup_span_clean(_substr_enrich_ds(sf_dir), min_len=40)

    def gate(b: pa.Table) -> pa.Table:
        n = pc.utf8_length(b["text_clean"]).cast(pa.int64())
        t = b.append_column("n_chars_clean", n)
        return t.filter(pc.greater_equal(n, 200))

    return hash_sample(
        cleaned.map_batches(gate, batch_format="pyarrow"),
        frac=0.5, id_col="doc_id", seed=7,
    ).select_columns(["doc_id", "n_chars_clean", "n_removed"])


def _q_nb_classify(sf_dir: str):
    """Multinomial Naive Bayes label recovery: fit on the documents
    table's own lang labels (counting groupby), re-score every doc —
    exact integer micro-nat arithmetic end to end, so the DuckDB oracle
    hash-matches scores, not just predictions."""
    from riot_ray.pipelines import nb_classify

    return nb_classify(
        _docs(sf_dir).select_columns(["doc_id", "text", "lang"]),
        text_col="text", label_col="lang", id_col="doc_id",
    )


def _q_pmi_pairs(sf_dir: str):
    """Windowed co-occurrence + PMI (window 5, min_count 20): the
    word-association table under GloVe-style embeddings.  Exact integer
    micro-nats from float64 products written identically in the SQL
    oracle."""
    from riot_ray.pipelines import pmi_pairs

    return pmi_pairs(_docs(sf_dir).select_columns(["text"]),
                     window=5, min_count=20)


def _q_incremental_dedup(sf_dir: str):
    """Incremental-ingest dedup: a 'seen' digest set is persisted from
    every third doc (write_digests — atomic, resumable), then the whole
    table filters against it (filter_seen).  Oracle: SQL anti-join on
    text equality."""
    from riot_ray.pipelines import filter_seen, write_digests

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    fp = f"{src}:{st.st_size}:{st.st_mtime_ns}:seen3"
    seen_dir = os.path.join(
        _CACHE_ROOT,
        f"seen-{os.path.basename(os.path.normpath(sf_dir))}-"
        f"{hashlib.sha256(fp.encode()).hexdigest()[:12]}",
    )
    docs = _docs(sf_dir).select_columns(["doc_id", "text"])

    def third(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 3 == 0))

    write_digests(docs.map_batches(third, batch_format="pyarrow"),
                  seen_dir, fingerprint=fp)
    return filter_seen(docs, seen_dir).select_columns(["doc_id"])


def _q_word_embeddings(sf_dir: str):
    """PPMI-SVD word embeddings trained on the corpus itself (Levy &
    Goldberg 2014): distributed co-occurrence, bounded driver
    factorization.  Floats — rows-only; geometry pinned in pytest."""
    from riot_ray.pipelines import ppmi_embeddings

    toks, E = ppmi_embeddings(_docs(sf_dir).select_columns(["text"]),
                              dim=16, window=5, min_count=5)
    return pa.table({
        "token": pa.array(toks, pa.string()),
        "vector": pa.array([list(map(float, row)) for row in E],
                           pa.list_(pa.float64())),
    })


def _q_grouped_stats(sf_dir: str):
    """Per-language exact moments of n_chars: int64 sum/sumsq through one
    shuffle, mean/variance derived by the identical double expressions
    the SQL writes — hash-exact despite the floats."""
    from riot_ray.pipelines import grouped_stats

    return grouped_stats(_docs(sf_dir).select_columns(["lang", "n_chars"]),
                         col="n_chars", key_col="lang")


def _q_grouped_quantiles(sf_dir: str):
    """Per-language exact n_chars quantiles: one (key, value) histogram
    shuffle, quantiles resolved inside each key's partition — DuckDB
    GROUP BY quantile_disc semantics, hash-exact."""
    from riot_ray.pipelines import grouped_quantiles

    return grouped_quantiles(
        _docs(sf_dir).select_columns(["lang", "n_chars"]),
        col="n_chars", key_col="lang", qs=(0.25, 0.5, 0.75, 0.9, 0.99),
    )


def _q_heavy_hitters(sf_dir: str):
    """Misra-Gries heavy hitters with exact verification: tokens whose
    count exceeds 1/35 of the corpus.  Only k-sized summaries move —
    never the vocabulary — yet the verified output is exact, so the SQL
    GROUP BY/HAVING oracle hash-matches."""
    from riot_ray.pipelines import heavy_hitters

    return heavy_hitters(_docs(sf_dir).select_columns(["text"]),
                         one_over=35)


def _q_spell_correct(sf_dir: str):
    """SymSpell spell correction over the index's term dictionary:
    deletes-key pruning + exact Levenshtein verify, one streaming pass
    over (term, df) with bounded top-k partials.  Oracled against
    DuckDB's levenshtein over the same df table."""
    from riot_ray.export import termstats_dataset
    from riot_ray.pipelines import spell_correct

    return spell_correct(
        termstats_dataset(_index_for(sf_dir)),
        queries=["tabl", "joim", "scann", "tible", "qzzqx"],
        k=5,
    )


def _q_suggest_terms(sf_dir: str):
    """Autocomplete from the term dictionary: top-10 's'-prefixed terms
    by document frequency."""
    from riot_ray.export import termstats_dataset
    from riot_ray.pipelines import suggest_terms

    return suggest_terms(termstats_dataset(_index_for(sf_dir)), "s", k=10)


# Frozen BPE merge table: the output of ``bpe_train(documents, n_merges=48)``
# on the sf0.001 corpus (deterministic — two runs bit-equal; provenance
# commit-pinned).  Freezing the table makes the distributed ENCODE stage
# SQL-oracle-checkable at any sf via a recursive-CTE greedy replay; the
# iterative TRAINER itself stays pytest-pinned against a brute-force
# reference + hypothesis (tests/test_properties.py).
BPE_MERGES = (
    ("e", "r</w>"), ("o", "w</w>"), ("o", "r"), ("l", "u"), ("i", "n"),
    ("a", "r"), ("p", "ar"), ("e", "r"), ("a", "s"), ("t", "o"),
    ("a", "t"), ("a", "n</w>"), ("c", "an</w>"), ("s", "can</w>"),
    ("c", "o"), ("co", "lu"), ("colu", "m"), ("colum", "n</w>"),
    ("d", "ow</w>"), ("in", "dow</w>"), ("w", "indow</w>"),
    ("d", "er</w>"), ("or", "der</w>"), ("or", "t</w>"), ("s", "ort</w>"),
    ("par", "t</w>"), ("u", "p</w>"), ("a", "g"), ("ag", "g</w>"),
    ("a", "lu"), ("alu", "e</w>"), ("v", "alue</w>"), ("in", "e</w>"),
    ("l", "ine</w>"), ("e", "y</w>"), ("k", "ey</w>"), ("i", "n</w>"),
    ("j", "o"), ("jo", "in</w>"), ("er", "g"), ("erg", "e</w>"),
    ("m", "erge</w>"), ("er", "y</w>"), ("g", "r"), ("gr", "o"),
    ("gro", "up</w>"), ("q", "u"), ("qu", "ery</w>"),
)


def _q_bpe_counts(sf_dir: str):
    """Per-doc subword counts from the actor-pool BPE encode stage under
    the frozen ``BPE_MERGES`` table (broadcast once, per-actor unique-word
    cache).  The oracle replays the greedy lowest-rank-first encode as a
    DuckDB recursive CTE over the distinct-word table — one recursion row
    per (word, merge step) — so the driver hash-signs the encode path.
    The iterative trainer (not SQL-expressible) is pytest-pinned."""
    from riot_ray.pipelines import bpe_encode_counts

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    return bpe_encode_counts(docs, list(BPE_MERGES))


def _q_hot_ngrams(sf_dir: str):
    """Corpus-level boilerplate phrases: trigrams present in >= 4 distinct
    docs (map-side per-doc dedup, one bucket shuffle)."""
    from riot_ray.pipelines import hot_ngrams

    ds = hot_ngrams(_docs(sf_dir).select_columns(["doc_id", "text"]),
                    n=3, min_docs=4)
    return ds.select_columns(["gram", "n_docs"])


def _q_quantiles(sf_dir: str):
    """Exact distributed quantiles of doc lengths (no global sort: min/max
    pass + value histogram + crossing-bucket fetch) — DuckDB quantile_disc
    semantics, so the oracle is exact."""
    from riot_ray.pipelines import exact_quantiles

    ds = _docs(sf_dir).select_columns(["n_chars"])
    return exact_quantiles(ds, "n_chars", qs=(0.25, 0.5, 0.75, 0.9, 0.99))


def _q_hll_tokens(sf_dir: str):
    """HyperLogLog distinct-token estimate (p=12).  The md5 value hash and
    exact integer bit-length make the ESTIMATE bit-reproducible in SQL —
    an approximate sketch with an exact-match oracle."""
    from riot_ray.pipelines import hll_count

    return hll_count(_docs(sf_dir).select_columns(["text"]), col="text",
                     p=12, seed=7, tokens=True)


def _q_hash_sample(sf_dir: str):
    """Deterministic Bernoulli sample (content-stable id-hash filter) —
    reproducible at any cluster size; pure map-side, no shuffle."""
    from riot_ray.pipelines import hash_sample

    ds = hash_sample(_docs(sf_dir).select_columns(["doc_id", "source"]),
                     frac=0.25, seed=7)
    return ds.select_columns(["doc_id", "source"])


def _q_stratified_cap(sf_dir: str):
    """Per-source cap (smallest id-hashes win): equalizes over-represented
    sources via bounded map-side partials + a broadcast winner filter."""
    from riot_ray.pipelines import stratified_cap

    ds = stratified_cap(_docs(sf_dir).select_columns(["doc_id", "source"]),
                        key_col="source", max_per_key=15, seed=7)
    return ds.select_columns(["doc_id", "source"])


def _q_token_budget(sf_dir: str):
    """Exact corpus token-budget cut in id-hash order ("first N tokens"):
    bucket-histogram pass + single-crossing-bucket resolution — no global
    sort, no driver-side per-doc state beyond one bucket."""
    from riot_ray.pipelines import token_budget_sample

    ds = token_budget_sample(
        _docs(sf_dir).select_columns(["doc_id", "text"]), budget=4000, seed=7
    )
    return ds.select_columns(["doc_id"])


def _q_enrich_events(sf_dir: str):
    """Dimension-table enrichment: events joined to the customer table via
    one ray.put broadcast + vectorized per-batch lookup (no shuffle)."""
    import pyarrow.parquet as pq

    from riot_ray.pipelines import broadcast_join

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_name", "c_mktsegment"])
    ds = broadcast_join(_events(sf_dir), cust, "user_id", "c_custkey",
                        payload={"c_name": "c_name", "c_mktsegment": "c_mktsegment"})
    return ds.select_columns(["event_id", "user_id", "c_name", "c_mktsegment"])


def _q_enrich_events_hashjoin(sf_dir: str):
    """Same join via the distributed sort-shuffle hash join (the
    both-sides-large path) — must equal the broadcast result."""
    import ray.data as rd

    from riot_ray.pipelines import hash_join

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_name", "c_mktsegment"])
    ds = hash_join(_events(sf_dir).select_columns(["event_id", "user_id"]),
                   cust, "user_id", "c_custkey",
                   payload={"c_name": "c_name", "c_mktsegment": "c_mktsegment"})
    return ds.select_columns(["event_id", "user_id", "c_name", "c_mktsegment"])


def _q_contamination(sf_dir: str):
    """Train/test decontamination: corpus docs whose trigram CONTAINMENT of
    a benchmark doc (a reproducible 25% id-hash sample standing in for the
    test set) reaches 0.5.  Benchmark side broadcast as a CSR gram index;
    the corpus streams — no shuffle."""
    import pyarrow.parquet as pq

    from riot_ray.pipelines import contamination

    from riot_ray.pipelines.sampling import _id_hashes

    bench_cut = np.uint64(int(0.25 * float(2**64)))
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    return contamination(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        bench=t.filter(pa.array(_id_hashes(ids, 13) < bench_cut)),
        n=3, threshold=0.5,
    )


def _q_top_per_source(sf_dir: str):
    """Best-k rows per key by a score column (longest 5 docs per source):
    map-side partial top-k + broadcast winner filter, corpus never
    shuffles."""
    from riot_ray.pipelines import top_k_per_group

    ds = top_k_per_group(
        _docs(sf_dir).select_columns(["doc_id", "source", "n_chars"]),
        key_col="source", score_col="n_chars", k=5,
    )
    return ds.select_columns(["doc_id", "source", "n_chars"])


def _q_dedup_best_survivors(sf_dir: str):
    """Quality-aware near-dup collapse: keep the LONGEST doc per cluster
    (n_chars as the quality stand-in) instead of the min id."""
    from riot_ray.pipelines import dedup_filter_by, ngram_jaccard_pairs

    docs = _docs(sf_dir).select_columns(["doc_id", "text", "n_chars"])
    pairs = ngram_jaccard_pairs(docs, n=3, threshold=0.2, max_group=1_000_000)
    out = dedup_filter_by(docs, pairs, score_col="n_chars")
    return out.select_columns(["doc_id"])


def _q_dedup_exact(sf_dir: str):
    from riot_ray.pipelines import exact_dedup

    return exact_dedup(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_dedup_rows_keep(sf_dir: str):
    """Row-carrying exact dedup (NEW r5: dedup_rows_exact — one digest
    shuffle, min-id ROW per content group, full payload kept).  Projected
    to (doc_id, lang) so the oracle compares the carried columns, not the
    text blob itself."""
    from riot_ray.pipelines import dedup_rows_exact

    return dedup_rows_exact(
        _docs(sf_dir).select_columns(["doc_id", "lang", "text"])
    ).select_columns(["doc_id", "lang"])


def _q_dedup_ngram(sf_dir: str):
    from riot_ray.pipelines import ngram_jaccard_pairs

    # cap high enough to never trigger at oracle scales: the SQL computes
    # plain exact jaccard, and the hot-shingle universe filter would
    # diverge from it (the scale-safe default 512 stays for pipeline users)
    return ngram_jaccard_pairs(_docs(sf_dir), n=3, threshold=0.2, max_group=1_000_000)


def _q_dedup_embedding(sf_dir: str):
    from riot_ray.pipelines import embedding_dup_pairs

    ds = embedding_dup_pairs(_emb(sf_dir), threshold=0.4)
    return ds.select_columns(["id_a", "id_b"])  # ids only: float-hash-safe


def _q_dedup_embedding_lsh(sf_dir: str):
    """Approximate (LSH-bucketed) variant of dedup_embedding — the
    billion-row path; no oracle (recall < 1 by design, pinned vs the exact
    operator in pytest)."""
    from riot_ray.pipelines import embedding_dup_pairs_lsh

    ds = embedding_dup_pairs_lsh(
        _emb(sf_dir), threshold=0.4, n_planes=4, n_tables=24
    )
    return ds.select_columns(["id_a", "id_b"])


def _q_knn(sf_dir: str):
    from riot_ray.pipelines import knn_brute

    Q, qids = _query_vectors(sf_dir)
    t = knn_brute(_emb(sf_dir), Q, qids, k=K)
    return t.select(["query_id", "vec_id"])  # ids only: float-hash-safe


def _q_knn_int8(sf_dir: str):
    """int8-scalar-quantized exact-arithmetic top-k (NEW r5): scales are
    one streaming max-abs pass, codes/dots are integer, so the WHOLE
    pipeline (scales -> codes -> dots -> top-k) hash-matches SQL."""
    from riot_ray.pipelines import knn_int8

    Q, qids = _query_vectors(sf_dir)
    return knn_int8(_emb(sf_dir), Q, qids, k=K)


def _q_dsir_select(sf_dir: str):
    """DSIR data selection (NEW r5, Xie et al. 2023): hashed unigram+
    bigram importance weights of target (lang='en') vs raw (all docs),
    top-100 by (weight desc, doc_id).  Integer micro-nat weights ->
    SQL-exact."""
    from riot_ray.pipelines import dsir_sample

    docs = _docs(sf_dir).select_columns(["doc_id", "text", "lang"])
    target = docs.filter(expr="lang == 'en'")
    return dsir_sample(docs, target, n=100, n_buckets=DSIR_BUCKETS, ngrams=2)


def _q_dsir_weights(sf_dir: str):
    """Full DSIR per-doc weight table (the selection entry's QUALIFY
    input) — every doc's (n_feats, weight_micro)."""
    from riot_ray.pipelines import dsir_weights

    docs = _docs(sf_dir).select_columns(["doc_id", "text", "lang"])
    target = docs.filter(expr="lang == 'en'")
    return dsir_weights(docs, target, n_buckets=DSIR_BUCKETS, ngrams=2)


def _q_hybrid_rrf(sf_dir: str):
    """Hybrid retrieval: BM25 top-K over `documents` fused with cosine
    top-K over `embeddings` (vec_id == doc_id by construction) via
    reciprocal-rank fusion, k0=60 (Cormack et al., SIGIR'09).  Both input
    rankings reuse the exact orderings their own oracles pin (bm25_topk's
    milli-desc/varchar-id tie order; knn's cosine-desc/vec_id order), so
    the fused ranks are integer-deterministic on both sides."""
    from riot_ray.engine import LocalSearcher
    from riot_ray.pipelines import knn_brute, rrf_fuse
    from riot_ray.types import RankOpts, SearchReq

    s = LocalSearcher(_index_for(sf_dir))
    resp = s.search(
        SearchReq(text=" ".join(QUERY_TERMS), rank_opts=RankOpts(max_outputs=K))
    )
    ids = np.array([int(h.doc_id) for h in resp.docs], dtype=np.int64)
    milli = np.floor(
        np.array([h.bm25 for h in resp.docs]) * 1000.0 + 0.5
    ).astype(np.int64)
    # rank the top-K membership by (milli desc, str(doc_id) asc) — the
    # bm25_topk oracle's tie order, integer-stable on both sides
    order = np.lexsort((ids.astype("U20"), -milli))
    lex = pa.table(
        {
            "query_id": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
            "doc_id": pa.array(ids[order], pa.int64()),
            "rank": pa.array(np.arange(1, len(ids) + 1, dtype=np.int64), pa.int64()),
        }
    )
    Q, qids = _query_vectors(sf_dir)
    vt = knn_brute(_emb(sf_dir), Q[:1], qids[:1], k=K)  # query vec_id == 0
    vec = pa.table(
        {
            "query_id": vt["query_id"],
            "doc_id": vt["vec_id"],
            "rank": vt["rank"],
        }
    )
    return rrf_fuse([lex, vec], k=K, k0=60)


def _q_dedup_clusters(sf_dir: str):
    from riot_ray.pipelines import dedup_clusters, ngram_jaccard_pairs

    # connected components (transitive closure) over the exact ngram-jaccard
    # pair graph; same uncapped max_group as _q_dedup_ngram so the pair
    # graph matches the SQL oracle's exactly
    pairs = ngram_jaccard_pairs(_docs(sf_dir), n=3, threshold=0.2, max_group=1_000_000)
    return dedup_clusters(pairs)


def _q_dedup_survivors(sf_dir: str):
    """Survivor set after near-dup collapse over the exact ngram-jaccard
    pair graph: one representative (min id) per cluster + all singletons —
    the dedup_filter operator end-to-end."""
    from riot_ray.pipelines import dedup_filter, ngram_jaccard_pairs

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, n=3, threshold=0.2, max_group=1_000_000)
    return dedup_filter(docs, pairs).select_columns(["doc_id"])


def _q_multimodal_resize(sf_dir: str):
    """Real-codec resize: decode -> nearest-neighbor (images) /
    frame-sample (WAV) -> re-encode SAME format -> re-decode.  Checks the
    binary-column layout chains across stages on actual bytes."""
    from riot_ray.pipelines import decode_media, make_real_media, resize_media
    import ray.data as rd

    ds = rd.from_arrow(make_real_media(128, seed=42))
    out = decode_media(
        resize_media(ds, target_w=16, target_h=16, concurrency=2, decode="real"),
        decode="real", concurrency=2)
    out = out.select_columns(["media_id", "mime", "width", "height", "n_frames"])
    # IMAGE rows only for the oracle: their post-resize metadata is a pure
    # function of media_id (mime cycles with id%4; dims forced to 16x16;
    # 1 frame), so DuckDB can regenerate the expectation from range(128).
    # WAV rows' frame count depends on the rng-drawn original length —
    # covered by pytest instead.
    import pyarrow.compute as _pc

    return out.map_batches(
        lambda b: b.filter(_pc.not_equal(b["mime"], "audio/wav")),
        batch_format="pyarrow",
    )


def _q_dedup_minhash(sf_dir: str):
    from riot_ray.pipelines import minhash_lsh_pairs

    return minhash_lsh_pairs(_docs(sf_dir), threshold=0.2)


def _q_dedup_minhash_exact(sf_dir: str):
    """MinHash-LSH candidates + EXACT jaccard verify — the approximate
    operator made oracle-checkable: with rows-per-band=2 banding, recall at
    the threshold is ~1 at oracle scales, so the output equals plain exact
    jaccard (the same SQL as dedup_ngram_jaccard) while the candidate stage
    stays sub-quadratic."""
    from riot_ray.pipelines import minhash_lsh_exact_pairs

    return minhash_lsh_exact_pairs(
        _docs(sf_dir), n=3, threshold=0.2, bands=64, max_group=1_000_000
    )


def _q_dedup_simhash(sf_dir: str):
    """All pairs within Hamming distance 6 of their 64-bit tf-weighted
    simhash.  Deterministic AND complete at oracle scale: the 7-block
    pigeonhole blocking guarantees every qualifying pair is a candidate
    (max_group never binds at sf<=0.01), and the token hash is the first 8
    md5 bytes — so the full signature + pair set is recomputable in DuckDB
    SQL (see oracle_sql)."""
    from riot_ray.pipelines import simhash_pairs

    # cap high enough to never trigger at oracle scales: _PairEmit drops
    # whole blocking groups above max_group, which would silently diverge
    # from the brute-force SQL (same precedent as _q_dedup_ngram; the
    # scale-safe default stays for pipeline users)
    return simhash_pairs(_docs(sf_dir), max_hamming=6, max_group=1_000_000)


def _q_lang_id(sf_dir: str):
    from riot_ray.pipelines import lang_id

    ds = lang_id(_docs(sf_dir).select_columns(["doc_id", "text"]))
    return ds.select_columns(["doc_id", "lang_pred", "lang_conf"])


def _q_fingerprints(sf_dir: str):
    from riot_ray.pipelines import fingerprint

    ds = fingerprint(_docs(sf_dir).select_columns(["doc_id", "text"]))
    return ds.select_columns(["doc_id", "n_fingerprints", "digest"])


def _q_knn_lsh(sf_dir: str):
    from riot_ray.pipelines import knn_lsh

    Q, qids = _query_vectors(sf_dir)
    t = knn_lsh(_emb(sf_dir), Q, qids, k=K)
    return t.select(["query_id", "vec_id", "rank"])


def _q_knn_ivf(sf_dir: str):
    """IVF (k-means inverted lists, nprobe < n_lists) — approximate by
    design; recall and the full-probe==brute identity are pinned in
    tests/test_pipelines.py."""
    from riot_ray.pipelines import knn_ivf

    Q, qids = _query_vectors(sf_dir)
    t = knn_ivf(_emb(sf_dir), Q, qids, k=K, n_lists=16, nprobe=6)
    return t.select(["query_id", "vec_id", "rank"])


def _q_knn_ivf_full(sf_dir: str):
    """IVF with nprobe = n_lists (every list probed) — exercises the full
    k-means/inverted-list machinery while remaining exactly equal to brute
    cosine top-k, so it shares knn_cosine_topk's SQL oracle."""
    from riot_ray.pipelines import knn_ivf

    Q, qids = _query_vectors(sf_dir)
    t = knn_ivf(_emb(sf_dir), Q, qids, k=K, n_lists=16, nprobe=16)
    return t.select(["query_id", "vec_id"])  # ids only: float-hash-safe


def _q_knn_ivf_persisted(sf_dir: str):
    """Persisted list-partitioned IVF index (read-pruned scans), queried
    with every list probed — must equal brute cosine top-k, so it shares
    knn_cosine_topk's SQL oracle.  The index build resumes via the
    checkpoint writer (same source => parts skipped)."""
    from riot_ray.pipelines import build_ivf_index, knn_ivf_query

    src = os.path.join(sf_dir, "embeddings.parquet")
    st = os.stat(src)
    fp = f"{src}:{st.st_size}:{st.st_mtime_ns}"
    idx = os.path.join(
        _CACHE_ROOT,
        f"ivf-{os.path.basename(os.path.normpath(sf_dir))}-"
        f"{hashlib.sha256(fp.encode()).hexdigest()[:12]}",
    )
    build_ivf_index(_emb(sf_dir), idx, fingerprint=fp, n_lists=16, seed=42)
    Q, qids = _query_vectors(sf_dir)
    t = knn_ivf_query(idx, Q, qids, k=K, nprobe=16)
    return t.select(["query_id", "vec_id"])  # ids only: float-hash-safe


def _q_knn_ivfpq(sf_dir: str):
    """Persisted IVF-PQ index (product-quantized codes, 16x smaller than
    the raw vectors) queried via ADC lookup tables over the probed lists
    only.  Approximate by construction (quantization error) — rows-only
    driver check; recall and read-pruning are pinned in pytest."""
    from riot_ray.pipelines import build_pq_index, knn_pq_query

    src = os.path.join(sf_dir, "embeddings.parquet")
    st = os.stat(src)
    fp = f"{src}:{st.st_size}:{st.st_mtime_ns}"
    idx = os.path.join(
        _CACHE_ROOT,
        f"ivfpq-{os.path.basename(os.path.normpath(sf_dir))}-"
        f"{hashlib.sha256(fp.encode()).hexdigest()[:12]}",
    )
    build_pq_index(_emb(sf_dir), idx, fingerprint=fp, n_lists=16,
                   pq_m=16, pq_ks=64, seed=42)
    Q, qids = _query_vectors(sf_dir)
    return knn_pq_query(idx, Q, qids, k=K, nprobe=4)


def _q_kmeans_clusters(sf_dir: str):
    """Full-corpus distributed Lloyd k-means over the embeddings table
    (every iteration ONE streaming sufficient-stats pass), then the
    assignment scan.  Float centroids — rows-only; exact-recovery and
    block-count-stability are pinned in pytest."""
    from riot_ray.pipelines import kmeans_assign, kmeans_fit

    emb = _emb(sf_dir)
    C, _iters, _inertia = kmeans_fit(emb, k=8, iters=10, seed=42)
    return kmeans_assign(emb, C).select_columns(["vec_id", "cluster"])


def _q_kmeans_assign(sf_dir: str):
    """The distributed nearest-centroid ASSIGN kernel (the inner step of
    every Lloyd iteration: centroids broadcast once via ray.put, one
    matmul-shaped pass per batch) under DETERMINISTIC centroids — the
    embedding vectors of vec_id 0..7 — so the integer assignment is
    SQL-oracle-checkable (VERDICT r3 #2: oracle the assignment under
    broadcast centroids).  The full iterative fit stays rows-only
    (kmeans_clusters) + pytest-pinned vs numpy."""
    import pyarrow.parquet as _pq

    from riot_ray.pipelines import kmeans_assign

    seeds = _pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 8)],
    ).sort_by("vec_id")
    C = np.stack(seeds["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    return kmeans_assign(_emb(sf_dir), C).select_columns(["vec_id", "cluster"])


def _q_batch_retrieval(sf_dir: str):
    """Offline batch retrieval: the fixed BATCH_QUERIES table streamed
    through an index-holding actor pool (pipelines/retrieval.py), top-k
    BM25 per query — the training-data mining shape (hard negatives,
    eval-set retrieval).  Oracle: the bm25_topk SQL generalized to a
    query TABLE with row_number() per query."""
    import ray.data as rd

    from riot_ray.pipelines import batch_retrieval

    qs = rd.from_items(
        [{"query_id": i, "text": t} for i, t in BATCH_QUERIES]
    )
    out = batch_retrieval(qs, _index_for(sf_dir), k=BATCH_K, concurrency=2)

    def cast_ids(b: pa.Table) -> pa.Table:
        # engine doc ids are strings; the oracle compares BIGINT
        return b.set_column(
            b.schema.get_field_index("doc_id"), "doc_id",
            b["doc_id"].cast(pa.int64()))

    return out.map_batches(cast_ids, batch_format="pyarrow")


def _q_hybrid_batch(sf_dir: str):
    """Hybrid retrieval over a query TABLE: BM25 batch_retrieval fused
    with brute cosine top-k per query via RRF (k0=60) — the offline
    two-tower + lexical merge.  Queries 0-4 of BATCH_QUERIES paired with
    the embeddings of vec_id 0-4 (query_id-aligned).  Lexical ranks are
    derived by rank_results (groupby(query) — block-layout independent);
    the oracle composes batch_retrieval's per-query SQL with
    knn_cosine_topk's QUALIFY ordering and a per-query FULL OUTER JOIN."""
    import ray.data as rd

    from riot_ray.pipelines import hybrid_batch

    qs = rd.from_items(
        [{"query_id": i, "text": t} for i, t in BATCH_QUERIES[:5]]
    ).repartition(2)
    Q, qids = _query_vectors(sf_dir)
    return hybrid_batch(
        qs, _index_for(sf_dir), _emb(sf_dir), Q, qids,
        k=BATCH_K, concurrency=2,
    )


def _q_pipeline_semdedup_curate(sf_dir: str):
    """Corpus-side semantic dedup: semdedup's DROPPED id set (the small
    side) broadcasts once and the documents table streams through the
    filter_ids anti-join — the composition a SemDeDup curation run
    executes, under one oracle."""
    from riot_ray.pipelines import filter_ids, semdedup

    import pyarrow.parquet as _pq

    seeds = _pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 8)],
    ).sort_by("vec_id")
    C = np.stack(seeds["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    dropped = semdedup(_emb(sf_dir), C, threshold=SEMDEDUP_THRESHOLD,
                       emit="dropped")
    drop_ids = dropped.to_pandas()["vec_id"].to_numpy(np.int64)
    docs = _docs(sf_dir).select_columns(["doc_id", "lang", "n_chars"])
    return filter_ids(docs, drop_ids, id_col="doc_id")


def _q_pipeline_train_shards(sf_dir: str):
    """END-TO-END training-shard prep verified as ONE oracle: the curation
    chain (quality gate -> exact dedup -> 50% hash sample — the same
    composition pipeline_curate pins) feeding the deterministic global
    shuffle + balanced round-robin shard assignment.  Checks the
    curate->shard INTERFACE, not just the stages."""
    from riot_ray.pipelines import shuffle_shards

    return shuffle_shards(_q_pipeline_curate(sf_dir), n_shards=4, seed=1)


def _q_shuffle_shards(sf_dir: str):
    """Deterministic global shuffle + exactly-balanced round-robin shard
    assignment (pipelines/sampling.py shuffle_shards) — the training-shard
    writer's ordering stage; oracle is one window row_number over the md5
    order."""
    from riot_ray.pipelines import shuffle_shards

    return shuffle_shards(
        _docs(sf_dir).select_columns(["doc_id"]), n_shards=8, seed=0
    )


def _q_semdedup(sf_dir: str):
    """SemDeDup survivors (cluster-scoped cosine dedup, arXiv 2303.09540)
    under DETERMINISTIC centroids — the embedding rows vec_id 0..7, the
    same seed convention kmeans_assign's oracle uses — so the survivor
    set is SQL-checkable (assign via list_distance + EXISTS earlier
    same-cluster row with cosine >= threshold)."""
    import pyarrow.parquet as _pq

    from riot_ray.pipelines import semdedup

    seeds = _pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 8)],
    ).sort_by("vec_id")
    C = np.stack(seeds["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    return semdedup(_emb(sf_dir), C, threshold=SEMDEDUP_THRESHOLD)


def _q_multimodal_meta(sf_dir: str):
    """Binary media column plumbing made oracle-checkable: documents wrapped
    as fake payloads with md5-derived dims, decoded by the actor-pool stage;
    every output column is recomputable in SQL from the text."""
    from riot_ray.pipelines import decode_media, media_from_docs

    ds = media_from_docs(_docs(sf_dir).select_columns(["doc_id", "text"]))
    out = decode_media(ds, concurrency=4, batch_size=64)
    return out.select_columns(["doc_id", "width", "height", "n_frames", "n_bytes"])


def _q_multimodal_real_meta(sf_dir: str):
    """Documents wrapped as REAL binary P6 (PPM) images with md5-derived
    dims, decoded by the real-codec actor-pool stage — every metadata
    column (width/height from the actual PPM header, n_bytes = decoded
    pixel bytes) recomputable in SQL from the text."""
    from riot_ray.pipelines import decode_media, media_real_from_docs

    ds = media_real_from_docs(_docs(sf_dir).select_columns(["doc_id", "text"]))
    out = decode_media(ds, decode="real", concurrency=4, batch_size=64)
    return out.select_columns(["doc_id", "width", "height", "n_frames", "n_bytes"])


def _q_search_proximity(sf_dir: str):
    """Multi-term (3-token) LocsIndex proximity: the riot DP
    (core/indexer.go:723-813) layer by layer — each layer's reachable
    positions carry their min partial cost, transitions use the
    two-candidate quirk.  SQL-expressible by chaining the same
    j/candidate/min blocks the 2-term oracle uses, once per layer
    (VERDICT r3 #2).  Returns every matching doc with its proximity."""
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import RankOpts, SearchReq

    s = LocalSearcher(_index_for(sf_dir, variant="locs"))
    resp = s.search(
        SearchReq(text=" ".join(QUERY_TERMS), rank_opts=RankOpts(max_outputs=0))
    )
    t = pa.table(
        {
            "doc_id": pa.array([int(h.doc_id) for h in resp.docs], pa.int64()),
            "proximity": pa.array(
                [h.token_proximity for h in resp.docs], pa.int64()
            ),
        }
    )
    order = np.argsort(t["doc_id"].to_numpy(zero_copy_only=False))
    return t.take(pa.array(order, pa.int64()))


PROX2 = ("spark", "data")


def _q_search_proximity2(sf_dir: str):
    """2-term proximity over the LocsIndex — the one DP shape that IS
    SQL-expressible: for two terms the riot DP (core/indexer.go:723-813)
    reduces to min over (p1, straddling-candidate p2) of
    |p2 - p1 - bytelen(t1)|, where the candidates for each p1 are P2[j]
    and P2[j+1] with j = max(#(P2 < p1) - 1, 0) — NOT the full cross-join
    min (the two-candidate transition is riot's quirk, replicated in the
    oracle).  Returns every matching doc with its proximity."""
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import RankOpts, SearchReq

    s = LocalSearcher(_index_for(sf_dir, variant="locs"))
    resp = s.search(
        SearchReq(text=" ".join(PROX2), rank_opts=RankOpts(max_outputs=0))
    )
    t = pa.table(
        {
            "doc_id": pa.array([int(h.doc_id) for h in resp.docs], pa.int64()),
            "proximity": pa.array(
                [h.token_proximity for h in resp.docs], pa.int64()
            ),
        }
    )
    order = np.argsort(t["doc_id"].to_numpy(zero_copy_only=False))
    return t.take(pa.array(order, pa.int64()))


PHRASE = ("spark", "data")
GREP_PATTERN = r"(fast|slow) (scan|merge)"


def _q_search_phrase(sf_dir: str):
    """Exact-phrase search: postings AND prunes, hydrated content verifies
    (riot extension — riot has no phrase operator).  Returns every
    matching doc; the oracle is the identical RE2 pattern in DuckDB."""
    from riot_ray.engine import LocalSearcher
    from riot_ray.types import RankOpts, SearchReq

    s = LocalSearcher(_index_for(sf_dir), hydrate=True)
    resp = s.search(
        SearchReq(text=" ".join(PHRASE), phrase=True,
                  rank_opts=RankOpts(max_outputs=0))
    )
    ids = np.sort(np.array([int(h.doc_id) for h in resp.docs], dtype=np.int64))
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


def _dist_node_dirs(sf_dir: str) -> list:
    """Two independent node indexes over disjoint halves of documents
    (doc_id parity), each forward-storing a derived ts column — the
    deployment shape of riot's gRPC peers (net/grpc/search.go:140-149).
    Cached by source fingerprint like _index_for."""
    import pyarrow.parquet as pq

    from riot_ray.build import IndexWriter

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    key = hashlib.sha256(
        f"{src}|dist|{st.st_size}|{st.st_mtime_ns}".encode()
    ).hexdigest()[:16]
    root = os.path.join(
        _CACHE_ROOT,
        f"{os.path.basename(os.path.normpath(sf_dir))}-dist-{key}",
    )
    dirs = [os.path.join(root, f"n{i}") for i in (0, 1)]
    opts = _opts()
    opts.meta_cols = ("lang", "source", "ts")
    for node, d in enumerate(dirs):
        part_src = os.path.join(d, "src.parquet")
        if not os.path.exists(part_src):
            t = pq.read_table(src, columns=["doc_id", "text", "lang", "source"])
            ids = t["doc_id"].to_numpy()
            part = t.filter(pa.array(ids % 2 == node))
            # deterministic timestamp, coarse modulus -> ts collisions
            # exercise the Id-desc string tiebreak
            pids = part["doc_id"].to_numpy()
            part = part.append_column(
                "ts", pa.array((pids * 37 + 3) % 1000, pa.int64())
            )
            os.makedirs(d, exist_ok=True)
            tmp = part_src + ".tmp"
            pq.write_table(part, tmp)
            os.replace(tmp, part_src)
        IndexWriter(os.path.join(d, "index"), opts).build(
            part_src, source_desc=part_src
        )
    return [os.path.join(d, "index") for d in dirs]


def _q_pipeline_curate(sf_dir: str):
    """END-TO-END curation chain — the composition a training-data run
    actually executes, verified as ONE oracle so stage INTERFACES are
    checked, not just stages: quality gate (n_tokens >= 30 AND
    punct_ratio <= 0.2, map-only) -> exact dedup (min doc_id per content)
    -> deterministic 50% id-hash Bernoulli sample."""
    import pyarrow.compute as _pc

    from riot_ray.pipelines import exact_dedup, hash_sample
    from riot_ray.pipelines.analysis import quality_batch

    def gate(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        keep = _pc.and_(
            _pc.greater_equal(q["n_tokens"], 30),
            _pc.less_equal(q["punct_ratio"], 0.2),
        )
        return batch.select(["doc_id", "text"]).filter(keep)

    gated = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        gate, batch_format="pyarrow"
    )
    surv = exact_dedup(gated)  # (doc_id, n_copies): min id per digest
    return hash_sample(surv, 0.5, seed=7).select_columns(["doc_id"])


def _q_dist_merge_ts(sf_dir: str):
    """Distributed scatter-gather with riot's WIRE merge order: per-node
    BM25 top-K re-sorted by (ts desc, id desc — string compare), replies
    concatenated, re-sorted, truncated to K-1 when the pool exceeds K
    (/root/reference/net/grpc/search.go:40-65,151-175 incl. the off-by-one
    kept for conformance)."""
    from riot_ray.engine import DistSearcher
    from riot_ray.types import RankOpts, SearchReq

    dist = DistSearcher(_dist_node_dirs(sf_dir))
    resp = dist.search(
        SearchReq(text=" ".join(QUERY_TERMS), rank_opts=RankOpts(max_outputs=K))
    )
    dist.shutdown()
    return pa.table(
        {
            "rank": pa.array(range(1, len(resp.docs) + 1), pa.int64()),
            "doc_id": pa.array([int(h.doc_id) for h in resp.docs], pa.int64()),
            "ts": pa.array(
                [int(h.fields["ts"]) for h in resp.docs], pa.int64()
            ),
        }
    )


def _q_tfidf_topk(sf_dir: str):
    from riot_ray.pipelines import tfidf_topk

    return tfidf_topk(_docs(sf_dir).select_columns(["doc_id", "text"]), k=3)


def _q_grep_search(sf_dir: str):
    from riot_ray.pipelines import grep_search

    return grep_search(_docs(sf_dir).select_columns(["doc_id", "text"]),
                       GREP_PATTERN)


def _q_chunk_docs(sf_dir: str):
    from riot_ray.pipelines import chunk_docs

    return chunk_docs(_docs(sf_dir).select_columns(["doc_id", "text"]),
                      chunk_tokens=64)


MIX_WEIGHTS = {"en": 0.2, "zh": 0.2, "de": 0.2, "es": 0.2, "fr": 0.2}
MIX_BUDGET = 15000


def _q_source_mix(sf_dir: str):
    """Domain reweighting: equal-language token shares under a corpus
    token budget (the over-represented language gets the lowest keep
    fraction) — kept set hash-exact vs the identical formula in SQL."""
    from riot_ray.pipelines import source_mix_sample

    return source_mix_sample(
        _docs(sf_dir).select_columns(["doc_id", "lang", "text"]),
        weights=MIX_WEIGHTS, token_budget=MIX_BUDGET, group_col="lang",
    )


def _q_embedding_pca(sf_dir: str):
    """Streaming-sufficient-statistics PCA + projection (floats: rows-only
    driver check; the exact numpy oracle is pinned in pytest)."""
    from riot_ray.pipelines import embedding_pca_fit, embedding_pca_transform

    comps, _vals, mean = embedding_pca_fit(_emb(sf_dir), k=8)
    return embedding_pca_transform(_emb(sf_dir), comps, mean)


def _q_pack_sequences(sf_dir: str):
    from riot_ray.pipelines import pack_sequences

    return pack_sequences(_docs(sf_dir).select_columns(["doc_id", "text"]),
                          budget_tokens=2048, n_buckets=8)


def _q_multimodal(sf_dir: str):
    """REAL bytes through the actor-pool decode stage: seeded PNG/BMP/PPM/
    WAV payloads, stdlib codecs (rows-only: dims live in binary headers)."""
    from riot_ray.pipelines import decode_media, make_real_media
    import ray.data as rd

    ds = rd.from_arrow(make_real_media(128, seed=42))
    out = decode_media(ds, decode="real", concurrency=2)
    return out.select_columns(["media_id", "mime", "width", "height", "n_frames", "payload_digest"])


def _events(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/events.parquet")


def _q_window_tumbling(sf_dir: str):
    from riot_ray.pipelines import tumbling_window_agg

    return tumbling_window_agg(_events(sf_dir), width_s=3600)


def _q_window_sliding(sf_dir: str):
    from riot_ray.pipelines import sliding_window_agg

    return sliding_window_agg(_events(sf_dir), width_s=3600, slide_s=900)


def _q_sessionize(sf_dir: str):
    from riot_ray.pipelines import sessionize

    return sessionize(_events(sf_dir), gap_s=1800)


def _q_window_topk(sf_dir: str):
    from riot_ray.pipelines import top_keys_per_window

    return top_keys_per_window(_events(sf_dir), width_s=3600, k=3)


def _q_asof_attribution(sf_dir: str):
    """chunk_s exercises the hot-key-safe path (per-(user, day) groups +
    carry-in stitch) — integer lag arithmetic, so it is exactly the
    unchunked semantics and safely SQL-oracled."""
    from riot_ray.pipelines import asof_attribution

    return asof_attribution(_events(sf_dir), source_type="click",
                            target_type="purchase", chunk_s=86_400)


def _q_funnel_counts(sf_dir: str):
    from riot_ray.pipelines import funnel_counts

    return funnel_counts(_events(sf_dir), FUNNEL_STEPS,
                         horizon_s=FUNNEL_HORIZON_S)


def _q_more_like_this(sf_dir: str):
    from riot_ray.pipelines import more_like_this

    return more_like_this(_docs(sf_dir).select_columns(["doc_id", "text"]),
                          query_ids=MLT_QUERY_IDS, k=MLT_K)


def _q_json_extract(sf_dir: str):
    from riot_ray.pipelines import extract_json_int

    return extract_json_int(_events(sf_dir), json_col="props", key="k",
                            out_col="k", keep_cols=("event_id",))


def queries() -> dict[str, Callable[[str], Any]]:
    # ORDER MATTERS: the driver evaluates the first 50 entries per round.
    # Round-5 rotation (VERDICT r4 #2): the 6 structurally rows-only
    # entries (IVF/PQ probe variants, kmeans centroids, PCA, PPMI,
    # multimodal_decode — can never produce a green hash row) moved PAST
    # position 50, and lang_id + fingerprints (oracled since r2, never
    # driver-signed) pulled in — after this round every oracled query has
    # a driver signature.  Also front-loaded: every kernel touched in r5
    # (shuffle_shards key vectorization, termstats routing -> df_terms/
    # corpus_stats, proximity pack guard, jaccard auto-gate, semdedup).
    return {
        # (a0) oracled queries that have never been driver-signed
        "lang_id": _q_lang_id,
        "fingerprints": _q_fingerprints,
        # (a1) round-5-touched kernels: shuffle key, semdedup keep-policy,
        # plus hybrid_rrf (NEW r5: lexical+vector reciprocal-rank fusion)
        "hybrid_rrf": _q_hybrid_rrf,
        "hybrid_batch": _q_hybrid_batch,
        # (a1b) NEW r5 session-3 ops, never signed: int8-quantized ANN +
        # DSIR importance selection (multimodal_real_meta/_resize, signed
        # green r4 and untouched since, rotate past 50 to make room)
        "knn_int8": _q_knn_int8,
        "dsir_select": _q_dsir_select,
        "dsir_weights": _q_dsir_weights,
        "batch_retrieval": _q_batch_retrieval,
        "semdedup": _q_semdedup,
        "shuffle_shards": _q_shuffle_shards,
        "pipeline_train_shards": _q_pipeline_train_shards,
        "pipeline_semdedup_curate": _q_pipeline_semdedup_curate,
        # (a2) signed r4; keep in window while their family is touched
        "window_tumbling": _q_window_tumbling,
        "window_sliding": _q_window_sliding,
        "sessionize": _q_sessionize,
        "window_topk": _q_window_topk,
        "asof_attribution": _q_asof_attribution,
        "funnel_counts": _q_funnel_counts,
        "more_like_this": _q_more_like_this,
        "knn_ivf_full": _q_knn_ivf_full,
        "knn_ivf_persisted": _q_knn_ivf_persisted,
        "kmeans_assign": _q_kmeans_assign,
        "multimodal_meta": _q_multimodal_meta,
        # (b) exact-SQL-oracled dedup/ANN family
        "search_proximity": _q_search_proximity,
        "bpe_subword_counts": _q_bpe_counts,
        "dedup_minhash": _q_dedup_minhash,
        "dedup_embedding_lsh": _q_dedup_embedding_lsh,
        "knn_lsh_topk": _q_knn_lsh,
        # (c) kernels touched in rounds 4-5 (allowlist/BM25-norm/variance/
        #     prefilter/jaccard-routing/proximity-guard) — keep signed
        "bm25_topk": _q_bm25_topk,
        "bm25_topk_wand": _q_bm25_topk_wand,
        "count_and": _q_count_and,
        "logic_should_notin": _q_logic_should_notin,
        "search_proximity_2": _q_search_proximity2,
        "search_phrase": _q_search_phrase,
        "facet_counts": _q_facet_counts,
        "grouped_stats": _q_grouped_stats,
        "dup_spans": _q_dup_spans,
        "dup_span_clean": _q_dup_span_clean,
        "pipeline_substr_curate": _q_pipeline_substr_curate,
        "dedup_ngram_jaccard": _q_dedup_ngram,
        # (d) core inverted-index identity set (SURVEY.md §2)
        "tf_postings": _q_tf_postings,
        "df_terms": _q_df_terms,
        "top_terms": _q_top_terms,
        "doc_token_len": _q_doc_token_len,
        "corpus_stats": _q_corpus_stats,
        "dist_merge_ts": _q_dist_merge_ts,
        "nb_classify": _q_nb_classify,
        "heavy_hitters": _q_heavy_hitters,
        "dedup_exact": _q_dedup_exact,
        "dedup_rows_keep": _q_dedup_rows_keep,
        "dedup_clusters": _q_dedup_clusters,
        # ---- entries below position 50: green driver rows from rounds
        # 1-4, or structurally rows-only (no SQL oracle can exist) ----
        # (incremental_dedup + pipeline_curate rotated out r5 — signed
        # r2/r3, kernels untouched — to make room for hybrid_rrf and
        # hybrid_batch in the window)
        # (json_extract, signed green r4 and untouched since, rotated out
        # late-r5 so dsir_weights gets a driver signature)
        "json_extract": _q_json_extract,
        "multimodal_real_meta": _q_multimodal_real_meta,
        "multimodal_resize": _q_multimodal_resize,
        "pipeline_curate": _q_pipeline_curate,
        "incremental_dedup": _q_incremental_dedup,
        "contamination": _q_contamination,
        "knn_ivf_topk": _q_knn_ivf,
        "knn_ivfpq_topk": _q_knn_ivfpq,
        "kmeans_clusters": _q_kmeans_clusters,
        "embedding_pca": _q_embedding_pca,
        "word_embeddings": _q_word_embeddings,
        "multimodal_decode": _q_multimodal,
        "enrich_events": _q_enrich_events,
        "tfidf_topk": _q_tfidf_topk,
        "grep_search": _q_grep_search,
        "chunk_docs": _q_chunk_docs,
        "pack_sequences": _q_pack_sequences,
        "source_mix": _q_source_mix,
        "token_stats": _q_token_stats,
        "quality": _q_quality,
        "unigram_logprob": _q_unigram_logprob,
        "bigram_logprob": _q_bigram_logprob,
        "perplexity_buckets": _q_perplexity_buckets,
        "repetition_stats": _q_repetition,
        "pii_scrub": _q_pii_scrub,
        "normalize_text": _q_normalize_text,
        "line_dedup": _q_line_dedup,
        "line_dedup_clean": _q_line_dedup_clean,
        "grouped_quantiles": _q_grouped_quantiles,
        "pmi_pairs": _q_pmi_pairs,
        "spell_correct": _q_spell_correct,
        "suggest_terms": _q_suggest_terms,
        "hot_ngrams": _q_hot_ngrams,
        "hash_sample": _q_hash_sample,
        "stratified_cap": _q_stratified_cap,
        "token_budget_sample": _q_token_budget,
        "hll_distinct_tokens": _q_hll_tokens,
        "quantiles_nchars": _q_quantiles,
        "enrich_events_hashjoin": _q_enrich_events_hashjoin,
        "dedup_survivors": _q_dedup_survivors,
        "dedup_best_survivors": _q_dedup_best_survivors,
        "top_per_source": _q_top_per_source,
        "dedup_minhash_exact": _q_dedup_minhash_exact,
        "dedup_simhash": _q_dedup_simhash,
        "dedup_embedding": _q_dedup_embedding,
        "knn_cosine_topk": _q_knn,
    }


# --------------------------------------------------------------------------- #
# oracle SQL (DuckDB; views pre-registered by the driver)
# --------------------------------------------------------------------------- #
_TOKS = """
toks AS (
  SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                             x -> x <> '') AS t
  FROM documents)
"""

_TERMS_IN = ", ".join(f"'{t}'" for t in QUERY_TERMS)

# curation chain shared by the pipeline_curate and pipeline_train_shards
# oracles (quality gate -> exact dedup -> 50% id-hash sample) — ONE text so
# the composed oracle can never drift from the stage oracle
_CURATE_CTES = """
stats AS (
  SELECT d.doc_id, d.text, len(t) AS n_tok,
         len(regexp_extract_all(d.text, '[^\\w\\s]')) AS n_punct,
         length(d.text) AS n_chars
  FROM documents d JOIN toks USING (doc_id)),
gated AS (
  SELECT doc_id, text FROM stats
  WHERE n_tok >= 30
    AND ROUND(n_punct / GREATEST(n_chars, 1)::DOUBLE, 6) <= 0.2),
survivors AS (
  SELECT min(doc_id) AS doc_id FROM gated GROUP BY text),
kept AS (
  SELECT doc_id::BIGINT AS doc_id FROM survivors
  WHERE ('0x' || substr(md5(doc_id::VARCHAR || '#7'), 1, 16))::UBIGINT
        < 9223372036854775808::UBIGINT)
"""


def _proximity_sql(terms) -> str:
    """k-term riot proximity DP as SQL: chain the 2-term oracle's
    j/candidate/min blocks once per layer.  Layer i holds each reachable
    position of term i with its min partial cost m; the transition into
    term i+1 uses riot's two-candidate quirk (indices j, j+1 with
    j = max(#(P_{i+1} < pos) - 1, 0)) and adds |p' - p - len(term_i)|."""
    k = len(terms)
    parts = ["padded AS (",
             "  SELECT doc_id,",
             "         ' ' || regexp_replace(lower(text), '[^a-z0-9]', ' ', 'g')",
             "             || ' ' AS s",
             "  FROM documents),",
             "offsets AS (",
             "  SELECT doc_id, s, unnest(range(1, length(s) + 1)) AS i",
             "  FROM padded),"]
    for n, t in enumerate(terms, start=1):
        parts.append(
            f"p{n} AS (SELECT doc_id, i - 1 AS pos FROM offsets"
            f" WHERE substr(s, i::INT, {len(t) + 2}) = ' {t} '),")
    for n in range(2, k + 1):
        parts.append(
            f"p{n}r AS (SELECT doc_id, pos, row_number() OVER"
            f" (PARTITION BY doc_id ORDER BY pos) - 1 AS rn FROM p{n}),")
    parts.append("m1 AS (SELECT doc_id, pos, 0 AS m FROM p1),")
    for n in range(1, k):
        parts.append(
            f"j{n} AS (SELECT m.doc_id, m.pos, m.m,"
            f" greatest(count(c.pos) - 1, 0) AS j"
            f" FROM m{n} m LEFT JOIN p{n + 1} c"
            f" ON c.doc_id = m.doc_id AND c.pos < m.pos"
            f" GROUP BY m.doc_id, m.pos, m.m),")
        parts.append(
            f"c{n} AS (SELECT j.doc_id, b.pos,"
            f" j.m + abs(b.pos - j.pos - {len(terms[n - 1])}) AS v"
            f" FROM j{n} j JOIN p{n + 1}r b"
            f" ON b.doc_id = j.doc_id AND (b.rn = j.j OR b.rn = j.j + 1)),")
        parts.append(
            f"m{n + 1} AS (SELECT doc_id, pos, min(v) AS m"
            f" FROM c{n} GROUP BY doc_id, pos),")
    body = "\n".join(parts).rstrip(",")
    return (f"WITH {body}\n"
            f"SELECT doc_id::BIGINT AS doc_id, min(m)::BIGINT AS proximity\n"
            f"FROM m{k} GROUP BY doc_id ORDER BY doc_id")


def _bpe_encode_sql(merges) -> str:
    """Greedy BPE encode replay (bpe.py encode_word semantics) as a
    DuckDB recursive CTE over the distinct-word table.  Applying merges
    in ascending rank order, one LEFTMOST occurrence per recursion step,
    is equivalent to repeatedly merging the lowest-rank pair present: a
    merge can only create pairs whose own merge rank is higher (a pair
    containing token t is always trained after the merge creating t)."""
    n = len(merges)
    vals = ", ".join(
        f"({r + 1}, ' {a} {b} ', ' {a}{b} ')"
        for r, (a, b) in enumerate(merges)
    )
    return f"""
        WITH RECURSIVE {_TOKS},
        words AS (SELECT DISTINCT unnest(t) AS w FROM toks),
        merges(r, pat, rep) AS (VALUES {vals}),
        init AS (
          SELECT w, ' ' || array_to_string(
                   list_transform(range(1, length(w) + 1),
                     i -> CASE WHEN i = length(w)
                               THEN substr(w, i::INT, 1) || '</w>'
                               ELSE substr(w, i::INT, 1) END), ' ')
                 || ' ' AS s
          FROM words),
        enc AS (
          SELECT w, s, 1 AS r FROM init
          UNION ALL
          SELECT w,
                 CASE WHEN p > 0
                      THEN substr(s, 1, p - 1) || rep
                           || substr(s, (p + length(pat))::INT)
                      ELSE s END AS s,
                 CASE WHEN p > 0 THEN r ELSE r + 1 END AS r
          FROM (SELECT e.w, e.s, e.r, m.pat, m.rep,
                       instr(e.s, m.pat) AS p
                FROM enc e JOIN merges m ON m.r = e.r)),
        nsub AS (
          SELECT w, (length(s) - length(replace(s, ' ', '')) - 1)::BIGINT AS n
          FROM enc WHERE r = {n + 1}),
        occ AS (SELECT doc_id, unnest(t) AS w FROM toks),
        agg AS (
          SELECT o.doc_id, count(*)::BIGINT AS n_words,
                 sum(n.n)::BIGINT AS n_subwords
          FROM occ o JOIN nsub n ON n.w = o.w
          GROUP BY o.doc_id)
        SELECT d.doc_id, coalesce(a.n_words, 0)::BIGINT AS n_words,
               coalesce(a.n_subwords, 0)::BIGINT AS n_subwords
        FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
        """


def _dsir_sql(n_buckets: int = DSIR_BUCKETS) -> str:
    """DSIR per-doc importance weights in SQL: hashed unigram+adjacent-
    bigram buckets, add-one micro-nat log-ratio of the target (lang='en')
    model over the raw (all-docs) model, summed per occurrence.  Mirrors
    riot_ray.pipelines.select (same md5-u64 bucket hash, same
    FLOOR(ln(..)*1e6+0.5) micro rounding), so weights are int64-exact."""
    return f"""
            WITH toksd AS (
              SELECT doc_id, lang,
                     list_filter(regexp_split_to_array(lower(text),
                                                       '[^a-z0-9]+'),
                                 x -> x <> '') AS t
              FROM documents),
            occ1 AS (
              SELECT doc_id, lang, unnest(t) AS tok,
                     unnest(range(1, len(t)+1)) AS pos
              FROM toksd),
            feat AS (
              SELECT doc_id, lang, tok AS f FROM occ1
              UNION ALL
              SELECT a.doc_id, a.lang, a.tok || ' ' || b.tok AS f
              FROM occ1 a JOIN occ1 b
                ON a.doc_id = b.doc_id AND b.pos = a.pos + 1),
            bk AS (
              SELECT doc_id, lang,
                     ('0x' || substr(md5(f), 1, 16))::UBIGINT % {n_buckets}
                         AS b
              FROM feat),
            tcnt AS (SELECT b, count(*)::BIGINT AS c FROM bk
                     WHERE lang = 'en' GROUP BY b),
            rcnt AS (SELECT b, count(*)::BIGINT AS c FROM bk GROUP BY b),
            tt AS (SELECT sum(c) + {n_buckets} AS n FROM tcnt),
            rt AS (SELECT sum(c) + {n_buckets} AS n FROM rcnt),
            lam AS (
              SELECT r.b,
                     CAST(FLOOR(ln((COALESCE(t.c, 0) + 1)
                                   / (SELECT n FROM tt)::DOUBLE)
                                * 1000000 + 0.5) AS BIGINT)
                     - CAST(FLOOR(ln((r.c + 1)
                                     / (SELECT n FROM rt)::DOUBLE)
                                  * 1000000 + 0.5) AS BIGINT) AS l
              FROM rcnt r LEFT JOIN tcnt t ON r.b = t.b)
            SELECT bk.doc_id, count(*)::BIGINT AS n_feats,
                   sum(lam.l)::BIGINT AS weight_micro
            FROM bk JOIN lam ON bk.b = lam.b
            GROUP BY bk.doc_id
    """


def _minhash_sql(n=3, num_perm=128, bands=32, threshold=0.2,
                 max_group=512, seed=42) -> str:
    """The ENTIRE MinHash+LSH pipeline (dedup.py minhash_lsh_pairs:
    shingle -> signature -> band key -> candidate pair -> signature-
    agreement verify) replayed in DuckDB.  Every stage is exact integer
    arithmetic: md5 token hashes, the FNV-chain gram hash in mod-2^64
    HUGEINT math, the (a*x32+b) % (2^61-1) permutation family (a, b
    imported from the implementation's seeded generator — they are part
    of the operator spec, like the seed), the band-key FNV fold with the
    <<6|band packing, the max_group run cap, and ROUND(k/num_perm, 6)."""
    from riot_ray.pipelines.dedup import _perm_params

    a_p, b_p = _perm_params(num_perm, seed)
    rows_pb = num_perm // bands
    perm_vals = ", ".join(
        f"({p}, {int(a_p[p])}::UBIGINT, {int(b_p[p])}::UBIGINT)"
        for p in range(num_perm)
    )
    kg = "0::UBIGINT"
    for j in range(n):
        h = f"('0x' || substr(md5(t[i+{j}]), 1, 16))::UBIGINT"
        kg = (f"xor(((({kg})::HUGEINT * 1099511628211) % "
              f"18446744073709551616)::UBIGINT, {h})")
    key = "0::UBIGINT"
    for c in range(1, rows_pb + 1):
        key = (f"xor(((({key})::HUGEINT * 1099511628211) % "
               f"18446744073709551616)::UBIGINT, ss[{c}])")
    key = (f"((({key})::HUGEINT * 64) % 18446744073709551616 + bi)::UBIGINT")
    return f"""
        WITH {_TOKS},
        grams AS (
          SELECT DISTINCT doc_id,
                 unnest([{kg} for i in range(1, len(t) - {n - 2})]) AS kg
          FROM toks WHERE len(t) >= {n}),
        perms(p, a, b) AS (VALUES {perm_vals}),
        x32 AS (SELECT doc_id, xor(kg, kg // 4294967296) % 4294967296 AS x
                FROM grams),
        sig0 AS (
          SELECT g.doc_id, p.p,
                 min((g.x::HUGEINT * p.a + p.b)
                     % 2305843009213693951)::UBIGINT AS s
          FROM x32 g CROSS JOIN perms p GROUP BY g.doc_id, p.p),
        nogram AS (
          SELECT d.doc_id FROM documents d
          WHERE d.doc_id NOT IN (SELECT doc_id FROM sig0)),
        sig AS (
          SELECT * FROM sig0
          UNION ALL
          SELECT ng.doc_id, p.p, 18446744073709551615::UBIGINT
          FROM nogram ng CROSS JOIN perms p),
        bf AS (SELECT doc_id, p // {rows_pb} AS bi, list(s ORDER BY p) AS ss
               FROM sig GROUP BY doc_id, p // {rows_pb}),
        keys AS (SELECT doc_id, {key} AS key FROM bf),
        kcnt AS (SELECT key, count(DISTINCT doc_id) AS c
                 FROM keys GROUP BY key),
        cands AS (
          SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
          FROM keys a
          JOIN keys b ON b.key = a.key AND a.doc_id < b.doc_id
          JOIN kcnt k ON k.key = a.key AND k.c <= {max_group}),
        agree AS (
          SELECT c.id_a, c.id_b,
                 sum(CASE WHEN sa.s = sb.s THEN 1 ELSE 0 END)::DOUBLE
                   / {num_perm} AS est
          FROM cands c
          JOIN sig sa ON sa.doc_id = c.id_a
          JOIN sig sb ON sb.doc_id = c.id_b AND sb.p = sa.p
          GROUP BY c.id_a, c.id_b)
        SELECT id_a, id_b, ROUND(est, 6) AS est_jaccard
        FROM agree WHERE ROUND(est, 6) >= {threshold}
        """


def _lsh_key_expr(col: str, planes) -> str:
    """Hyperplane-sign bucket key of one LSH table as a SQL expression:
    bit i = sign(embedding . plane_i), key = sum(bit_i << i).  The planes
    come from the implementation's seeded generator (_LshIndexStage) —
    part of the operator spec.  Signs are taken on the RAW vectors
    (sign(dot(v, p)) == sign(dot(v/|v|, p)) — normalization is a positive
    scaling), so the SQL needs no normalize step."""
    terms = []
    for i in range(planes.shape[1]):
        vec = ", ".join(repr(float(v)) for v in planes[:, i])
        terms.append(
            f"(CASE WHEN list_dot_product({col}::DOUBLE[], [{vec}]) >= 0"
            f" THEN {1 << i} ELSE 0 END)"
        )
    return "(" + " + ".join(terms) + ")"


def _knn_lsh_sql(k, n_planes=8, n_tables=4, seed=42, dim=64, nq=5) -> str:
    """knn_lsh (multi-table multiprobe=1 hyperplane LSH + exact cosine
    top-k over the candidates) replayed in SQL: a row is a candidate for
    a query iff, in ANY table, popcount(key_row XOR key_query) <= 1."""
    from riot_ray.pipelines.simsearch import _LshIndexStage

    planes = [_LshIndexStage(n_planes, dim, seed + t).planes
              for t in range(n_tables)]
    ck = ", ".join(f"{_lsh_key_expr('embedding', planes[t])} AS k{t}"
                   for t in range(n_tables))
    qk = ", ".join(f"{_lsh_key_expr('qe', planes[t])} AS k{t}"
                   for t in range(n_tables))
    probe = " OR ".join(f"bit_count(xor(q.k{t}, c.k{t})) <= 1"
                        for t in range(n_tables))
    return f"""
        WITH ck AS (SELECT vec_id, embedding, {ck} FROM embeddings),
        qk AS (SELECT vec_id AS query_id, embedding AS qe, {qk}
               FROM embeddings WHERE vec_id < {nq}),
        cand AS (
          SELECT q.query_id, q.qe, c.vec_id, c.embedding
          FROM qk q CROSS JOIN ck c
          WHERE {probe})
        SELECT query_id::BIGINT AS query_id, vec_id::BIGINT AS vec_id,
               row_number() OVER (
                 PARTITION BY query_id
                 ORDER BY list_cosine_similarity(qe, embedding) DESC,
                          vec_id)::BIGINT AS "rank"
        FROM cand
        QUALIFY "rank" <= {k}
        """


def _embedding_lsh_sql(threshold=0.4, n_planes=4, n_tables=24, seed=42,
                       dim=64, max_group=4096) -> str:
    """embedding_dup_pairs_lsh replayed in SQL: per-table bucket keys
    packed as (key_of << 4) | t — REPLICATING the implementation's 4-bit
    table-id field verbatim, including the t >= 16 overlap (it only adds
    cross-table candidates, all verified exactly) — then capped bucket
    co-occurrence pairs verified by exact cosine >= threshold."""
    from riot_ray.pipelines.simsearch import _LshIndexStage

    planes = [_LshIndexStage(n_planes, dim, seed + t).planes
              for t in range(n_tables)]
    key_list = ", ".join(
        f"({_lsh_key_expr('embedding', planes[t])} * 16) | {t}"
        for t in range(n_tables)
    )
    return f"""
        WITH kk AS (
          SELECT vec_id, unnest([{key_list}]) AS key FROM embeddings),
        kcnt AS (SELECT key, count(DISTINCT vec_id) AS c
                 FROM kk GROUP BY key),
        cands AS (
          SELECT DISTINCT a.vec_id AS id_a, b.vec_id AS id_b
          FROM kk a
          JOIN kk b ON b.key = a.key AND a.vec_id < b.vec_id
          JOIN kcnt k ON k.key = a.key AND k.c <= {max_group})
        SELECT c.id_a::BIGINT AS id_a, c.id_b::BIGINT AS id_b
        FROM cands c
        JOIN embeddings ea ON ea.vec_id = c.id_a
        JOIN embeddings eb ON eb.vec_id = c.id_b
        WHERE ROUND(list_cosine_similarity(ea.embedding, eb.embedding), 6)
              >= {threshold}
        """


def oracle_sql() -> dict[str, str]:
    from riot_ray.pipelines.analysis import STOPWORDS

    stop_in = ", ".join(f"'{w}'" for w in STOPWORDS["en"])
    should_in = ", ".join(f"'{t}'" for t in SHOULD_TERMS)
    notin_in = ", ".join(f"'{t}'" for t in NOT_IN_TERMS)
    out = {
        "tf_postings": f"""
            WITH {_TOKS}
            SELECT doc_id, term, count(*)::BIGINT AS tf
            FROM (SELECT doc_id, unnest(t) AS term FROM toks)
            GROUP BY doc_id, term
            """,
        "df_terms": f"""
            WITH {_TOKS}
            SELECT term, count(DISTINCT doc_id)::BIGINT AS df
            FROM (SELECT doc_id, unnest(t) AS term FROM toks)
            GROUP BY term
            """,
        "top_terms": f"""
            WITH {_TOKS}
            SELECT term, count(DISTINCT doc_id)::BIGINT AS df
            FROM (SELECT doc_id, unnest(t) AS term FROM toks)
            GROUP BY term
            ORDER BY df DESC, term
            LIMIT 20
            """,
        "doc_token_len": f"""
            WITH {_TOKS}
            SELECT doc_id, len(t)::BIGINT AS token_len FROM toks
            """,
        "corpus_stats": f"""
            WITH {_TOKS}
            SELECT count(*)::BIGINT AS n_docs,
                   sum(len(t))::BIGINT AS total_tokens,
                   ROUND(sum(len(t)) / count(*)::DOUBLE, 6) AS avgdl
            FROM toks
            """,
        "bm25_topk": f"""
            WITH {_TOKS},
            lens AS (SELECT doc_id, len(t)::DOUBLE AS dl FROM toks),
            n AS (SELECT count(*)::DOUBLE AS nd, sum(dl)::DOUBLE AS tot FROM lens),
            tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf
              FROM (SELECT doc_id, unnest(t) AS term FROM toks)
              WHERE term IN ({_TERMS_IN})
              GROUP BY doc_id, term),
            df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
            cand AS (
              SELECT doc_id FROM tf GROUP BY doc_id
              HAVING count(DISTINCT term) = {len(QUERY_TERMS)}),
            sc AS (
              SELECT tf.doc_id,
                     SUM(log2(n.nd / df.df + 1)
                         * tf.tf * (2.0 + 1.0)
                         / (tf.tf + 2.0 * (1 - 0.75 + 0.75 * lens.dl / (n.tot / n.nd)))
                        ) AS score
              FROM tf
              JOIN df USING (term)
              JOIN lens ON lens.doc_id = tf.doc_id
              CROSS JOIN n
              WHERE tf.doc_id IN (SELECT doc_id FROM cand)
              GROUP BY tf.doc_id)
            SELECT doc_id, CAST(FLOOR(score * 1000 + 0.5) AS BIGINT) AS score_milli
            FROM sc
            ORDER BY score DESC, CAST(doc_id AS VARCHAR)
            LIMIT {K}
            """,
        # hybrid_rrf: bm25_topk's sc chain (identical text) -> milli-desc/
        # varchar-id ranks; knn_cosine_topk's QUALIFY ordering for the
        # vector ranks (query = embedding of vec_id 0); RRF k0=60 fused
        # with FULL OUTER JOIN.  Both rank sets are integers, so the fused
        # double is bit-identical to the Ray side's (2-term IEEE sums).
        "hybrid_rrf": f"""
            WITH {_TOKS},
            lens AS (SELECT doc_id, len(t)::DOUBLE AS dl FROM toks),
            n AS (SELECT count(*)::DOUBLE AS nd, sum(dl)::DOUBLE AS tot FROM lens),
            tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf
              FROM (SELECT doc_id, unnest(t) AS term FROM toks)
              WHERE term IN ({_TERMS_IN})
              GROUP BY doc_id, term),
            df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
            cand AS (
              SELECT doc_id FROM tf GROUP BY doc_id
              HAVING count(DISTINCT term) = {len(QUERY_TERMS)}),
            sc AS (
              SELECT tf.doc_id,
                     SUM(log2(n.nd / df.df + 1)
                         * tf.tf * (2.0 + 1.0)
                         / (tf.tf + 2.0 * (1 - 0.75 + 0.75 * lens.dl / (n.tot / n.nd)))
                        ) AS score
              FROM tf
              JOIN df USING (term)
              JOIN lens ON lens.doc_id = tf.doc_id
              CROSS JOIN n
              WHERE tf.doc_id IN (SELECT doc_id FROM cand)
              GROUP BY tf.doc_id),
            lex_top AS (
              SELECT doc_id, CAST(FLOOR(score * 1000 + 0.5) AS BIGINT) AS milli
              FROM sc
              ORDER BY score DESC, CAST(doc_id AS VARCHAR)
              LIMIT {K}),
            lex AS (
              SELECT doc_id::BIGINT AS doc_id,
                     row_number() OVER (
                       ORDER BY milli DESC, CAST(doc_id AS VARCHAR)) AS r
              FROM lex_top),
            q0 AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0),
            vec AS (
              SELECT vec_id::BIGINT AS doc_id,
                     row_number() OVER (
                       ORDER BY list_cosine_similarity(qe, embedding) DESC,
                                vec_id) AS r
              FROM q0, embeddings
              QUALIFY r <= {K}),
            fused AS (
              SELECT coalesce(l.doc_id, v.doc_id) AS doc_id,
                     coalesce(1.0 / (60 + l.r), 0)
                     + coalesce(1.0 / (60 + v.r), 0) AS rrf
              FROM lex l FULL OUTER JOIN vec v ON l.doc_id = v.doc_id)
            SELECT 0::BIGINT AS query_id, doc_id,
                   CAST(FLOOR(rrf * 10000000 + 0.5) AS BIGINT) AS rrf_micro,
                   row_number() OVER (ORDER BY rrf DESC, doc_id) AS rank
            FROM fused
            ORDER BY rrf DESC, doc_id
            LIMIT {K}
            """,
        "grouped_stats": """
            SELECT lang AS key, count(*)::BIGINT AS n,
                   sum(n_chars)::BIGINT AS sum,
                   sum(n_chars)::DOUBLE / count(*) AS mean,
                   (sum(n_chars * n_chars)::DOUBLE
                    - sum(n_chars)::DOUBLE * sum(n_chars)::DOUBLE / count(*))
                   / (count(*) - 1) AS variance
            FROM documents GROUP BY lang
            """,
        "grouped_quantiles": " UNION ALL ".join(
            f"SELECT lang AS key, {q} AS q, "
            f"quantile_disc(n_chars, {q})::BIGINT AS value "
            "FROM documents GROUP BY lang"
            for q in (0.25, 0.5, 0.75, 0.9, 0.99)
        ),
        "incremental_dedup": """
            SELECT d.doc_id FROM documents d
            WHERE NOT EXISTS (
              SELECT 1 FROM documents s
              WHERE s.doc_id % 3 = 0
                AND coalesce(s.text, '') = coalesce(d.text, ''))
            """,
        "pmi_pairs": f"""
            WITH {_TOKS},
            occ AS (SELECT doc_id, unnest(t) AS tok,
                           generate_subscripts(t, 1) AS pos
                    FROM toks),
            pairs AS (
              SELECT least(o1.tok, o2.tok) AS a,
                     greatest(o1.tok, o2.tok) AS b,
                     count(*)::BIGINT AS cnt
              FROM occ o1 JOIN occ o2
                ON o1.doc_id = o2.doc_id
               AND o2.pos > o1.pos AND o2.pos <= o1.pos + 5
              GROUP BY 1, 2),
            n AS (SELECT sum(cnt)::BIGINT AS n FROM pairs),
            marg AS (
              SELECT tok, sum(cnt)::BIGINT AS m FROM (
                SELECT a AS tok, cnt FROM pairs
                UNION ALL SELECT b, cnt FROM pairs)
              GROUP BY tok)
            SELECT p.a AS tok_a, p.b AS tok_b, p.cnt,
                   CAST(FLOOR(ln((p.cnt::DOUBLE *
                                  (SELECT n FROM n)::DOUBLE) /
                                 (ma.m::DOUBLE * mb.m::DOUBLE))
                              * 1000000 + 0.5) AS BIGINT) AS pmi_micro
            FROM pairs p
            JOIN marg ma ON ma.tok = p.a
            JOIN marg mb ON mb.tok = p.b
            WHERE p.cnt >= 20
            """,
        "spell_correct": f"""
            WITH {_TOKS},
            df AS (
              SELECT term, count(DISTINCT doc_id)::BIGINT AS df
              FROM (SELECT doc_id, unnest(t) AS term FROM toks)
              GROUP BY term),
            q(query) AS (VALUES ('tabl'), ('joim'), ('scann'), ('tible'),
                                ('qzzqx')),
            cand AS (
              SELECT q.query, d.term,
                     levenshtein(q.query, d.term)::BIGINT AS dist, d.df
              FROM q CROSS JOIN df d
              WHERE levenshtein(q.query, d.term) <= 1)
            SELECT query, term, dist, df FROM (
              SELECT *, row_number() OVER
                (PARTITION BY query
                 ORDER BY dist, df DESC, term) AS rn
              FROM cand)
            WHERE rn <= 5
            """,
        "suggest_terms": f"""
            WITH {_TOKS},
            df AS (
              SELECT term, count(DISTINCT doc_id)::BIGINT AS df
              FROM (SELECT doc_id, unnest(t) AS term FROM toks)
              GROUP BY term)
            SELECT term, df FROM df
            WHERE term LIKE 's%'
            ORDER BY df DESC, term
            LIMIT 10
            """,
        "heavy_hitters": f"""
            WITH {_TOKS},
            occ AS (SELECT unnest(t) AS tok FROM toks),
            n AS (SELECT count(*) AS n FROM occ)
            SELECT tok AS token, count(*)::BIGINT AS cnt
            FROM occ GROUP BY tok
            HAVING count(*) * 35 > (SELECT n FROM n)
            """,
        "facet_counts": f"""
            WITH {_TOKS},
            tf AS (
              SELECT doc_id, term
              FROM (SELECT DISTINCT doc_id, unnest(t) AS term FROM toks)
              WHERE term IN ({_TERMS_IN})),
            hits AS (
              SELECT doc_id FROM tf GROUP BY doc_id
              HAVING count(DISTINCT term) = {len(QUERY_TERMS)})
            SELECT 'lang' AS facet, d.lang AS value, count(*)::BIGINT AS n_docs
            FROM documents d JOIN hits h USING (doc_id) GROUP BY d.lang
            UNION ALL
            SELECT 'source', d.source, count(*)::BIGINT
            FROM documents d JOIN hits h USING (doc_id) GROUP BY d.source
            """,
        "count_and": f"""
            WITH {_TOKS},
            tf AS (
              SELECT doc_id, term
              FROM (SELECT DISTINCT doc_id, unnest(t) AS term FROM toks)
              WHERE term IN ({_TERMS_IN}))
            SELECT count(*)::BIGINT AS n_docs FROM (
              SELECT doc_id FROM tf GROUP BY doc_id
              HAVING count(DISTINCT term) = {len(QUERY_TERMS)})
            """,
        "logic_should_notin": f"""
            WITH {_TOKS},
            terms AS (SELECT DISTINCT doc_id, unnest(t) AS term FROM toks)
            SELECT DISTINCT doc_id FROM terms WHERE term IN ({should_in})
            EXCEPT
            SELECT DISTINCT doc_id FROM terms WHERE term IN ({notin_in})
            """,
        "token_stats": """
            SELECT doc_id,
                   len(regexp_extract_all(text, '\\S+'))::BIGINT AS n_tokens_ws,
                   len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                   x -> x <> ''))::BIGINT AS n_tokens,
                   len(regexp_extract_all(text,
                       '[A-Za-z0-9]{1,4}|[^\\sA-Za-z0-9]'))::BIGINT AS n_tokens_bpe
            FROM documents
            """,
        "quality": f"""
            WITH {_TOKS},
            stats AS (
              SELECT d.doc_id,
                     len(t) AS n_tok,
                     length(d.text) AS n_chars,
                     len(regexp_extract_all(d.text, '[^\\w\\s]')) AS n_punct,
                     len(regexp_extract_all(d.text, '[a-zA-Z0-9]')) AS n_alnum,
                     len(list_filter(t, x -> x IN ({stop_in}))) AS n_stop,
                     list_sum(list_transform(t, x -> length(x))) AS tok_chars
              FROM documents d JOIN toks USING (doc_id))
            SELECT doc_id,
                   n_tok::BIGINT AS n_tokens,
                   ROUND(n_stop / GREATEST(n_tok, 1)::DOUBLE, 6) AS stop_ratio,
                   ROUND(n_punct / GREATEST(n_chars, 1)::DOUBLE, 6) AS punct_ratio,
                   ROUND(n_alnum / GREATEST(n_chars, 1)::DOUBLE, 6) AS alnum_ratio,
                   ROUND(COALESCE(tok_chars, 0) / GREATEST(n_tok, 1)::DOUBLE, 6) AS mean_word_len
            FROM stats
            """,
        "unigram_logprob": f"""
            WITH {_TOKS},
            occ AS (SELECT doc_id, unnest(t) AS tok FROM toks),
            cnt AS (SELECT tok, count(*) AS c FROM occ GROUP BY tok),
            tot AS (SELECT count(*) AS n FROM occ),
            m AS (
              SELECT tok,
                     CAST(FLOOR(ln(c / (SELECT n FROM tot)::DOUBLE) * 1000000
                                + 0.5) AS BIGINT) AS micro
              FROM cnt)
            SELECT o.doc_id,
                   count(*)::BIGINT AS n_tokens,
                   sum(m.micro)::BIGINT AS logprob_micro,
                   sum(m.micro)::DOUBLE / 1000000.0 / count(*) AS logprob_mean
            FROM occ o JOIN m ON o.tok = m.tok
            GROUP BY o.doc_id
            """,
        "source_mix": f"""
            WITH nt AS (
              SELECT doc_id, lang,
                     len(list_filter(regexp_split_to_array(lower(text),
                                                           '[^a-z0-9]+'),
                                     x -> x <> ''))::BIGINT AS n
              FROM documents),
            w(lang, wt) AS (VALUES ('en', 0.2), ('zh', 0.2), ('de', 0.2),
                                   ('es', 0.2), ('fr', 0.2)),
            T AS (SELECT lang, sum(n)::DOUBLE AS tot FROM nt GROUP BY lang),
            f AS (SELECT T.lang, LEAST(1.0, {MIX_BUDGET}.0 * w.wt / T.tot)
                             AS frac
                  FROM T JOIN w ON T.lang = w.lang)
            SELECT nt.doc_id, nt.lang, nt.n AS n_tokens
            FROM nt JOIN f ON nt.lang = f.lang
            WHERE ('0x' || substr(md5(nt.doc_id::VARCHAR || '#7'), 1, 16))
                      ::UBIGINT::DOUBLE
                  < f.frac * 18446744073709551616.0
            """,
        "perplexity_buckets": f"""
            WITH {_TOKS},
            occ AS (SELECT doc_id, unnest(t) AS tok FROM toks),
            cnt AS (SELECT tok, count(*) AS c FROM occ GROUP BY tok),
            tot AS (SELECT count(*) AS n FROM occ),
            m AS (
              SELECT tok,
                     CAST(FLOOR(ln(c / (SELECT n FROM tot)::DOUBLE) * 1000000
                                + 0.5) AS BIGINT) AS micro
              FROM cnt),
            sc AS (SELECT o.doc_id, count(*)::BIGINT AS n_tokens,
                          sum(m.micro)::BIGINT AS micro
                   FROM occ o JOIN m ON o.tok = m.tok GROUP BY o.doc_id),
            k AS (SELECT doc_id, n_tokens,
                         CAST(FLOOR(micro * 1000.0 / n_tokens) AS BIGINT)
                             AS ppl_key
                  FROM sc),
            th AS (SELECT unnest(quantile_disc(ppl_key,
                                 [x / 10.0 for x in range(1, 10)])) AS v
                   FROM k)
            SELECT doc_id, n_tokens, ppl_key,
                   (SELECT count(*) FROM th WHERE th.v < k.ppl_key)::BIGINT
                       AS bucket
            FROM k
            """,
        "bigram_logprob": f"""
            WITH {_TOKS},
            nt AS (SELECT doc_id, t, len(t)::BIGINT AS n FROM toks
                   WHERE len(t) >= 2),
            occ2 AS (
              SELECT doc_id, t[i] AS w1, t[i+1] AS w2
              FROM nt, unnest(range(1, n)) AS r(i)),
            c2 AS (SELECT w1, w2, count(*)::BIGINT AS c12
                   FROM occ2 GROUP BY 1, 2),
            c1 AS (SELECT w1, count(*)::BIGINT AS c1 FROM occ2 GROUP BY 1),
            m AS (
              SELECT c2.w1, c2.w2,
                     CAST(FLOOR(ln(c2.c12 / c1.c1::DOUBLE) * 1000000 + 0.5)
                          AS BIGINT) AS micro
              FROM c2 JOIN c1 ON c2.w1 = c1.w1)
            SELECT o.doc_id, count(*)::BIGINT AS n_bigrams,
                   sum(m.micro)::BIGINT AS logprob_micro,
                   sum(m.micro)::DOUBLE / 1000000.0 / count(*)
                       AS logprob_mean
            FROM occ2 o JOIN m ON o.w1 = m.w1 AND o.w2 = m.w2
            GROUP BY o.doc_id
            """,
        "search_phrase": f"""
            SELECT doc_id::BIGINT AS doc_id FROM documents
            WHERE regexp_matches(lower(text),
                '(^|[^a-z0-9]){PHRASE[0]}[^a-z0-9]+{PHRASE[1]}([^a-z0-9]|$)')
            """,
        # end-to-end curation chain: each fragment is an already-verified
        # oracle (quality tokenization, dedup-by-content, IEEE id-hash
        # Bernoulli); chaining them checks the stage INTERFACES
        "pipeline_curate": f"""
            WITH {_TOKS},
            {_CURATE_CTES}
            SELECT doc_id FROM kept
            """,
        # post-resize image metadata is a pure function of media_id:
        # mime cycles with id%4 (3=wav, excluded), dims forced to 16x16,
        # single frame — regenerated from range() with no table input
        "multimodal_resize": """
            SELECT i::BIGINT AS media_id,
                   CASE i % 4 WHEN 0 THEN 'image/png'
                              WHEN 1 THEN 'image/bmp'
                              ELSE 'image/x-portable-pixmap' END AS mime,
                   16::INT AS width, 16::INT AS height, 1::INT AS n_frames
            FROM range(128) t(i)
            WHERE i % 4 <> 3
            """,
        # distributed wire merge: two nodes (doc_id parity), per-node BM25
        # (per-node N/df/avgdl!) top-K, pool re-sorted by (ts desc, id desc
        # as VARCHAR), truncated to K-1 only when pool > K (the reference's
        # off-by-one, net/grpc/search.go:162-165)
        "dist_merge_ts": f"""
            WITH {_TOKS},
            nodes AS (
              SELECT doc_id, doc_id % 2 AS node,
                     (doc_id * 37 + 3) % 1000 AS ts, t
              FROM toks),
            lens AS (SELECT node, doc_id, ts, len(t)::DOUBLE AS dl FROM nodes),
            n AS (SELECT node, count(*)::DOUBLE AS nd, sum(dl)::DOUBLE AS tot
                  FROM lens GROUP BY node),
            tf AS (
              SELECT node, doc_id, term, count(*)::DOUBLE AS tf
              FROM (SELECT node, doc_id, unnest(t) AS term FROM nodes)
              WHERE term IN ({_TERMS_IN})
              GROUP BY node, doc_id, term),
            df AS (SELECT node, term, count(*)::DOUBLE AS df
                   FROM tf GROUP BY node, term),
            cand AS (
              SELECT node, doc_id FROM tf GROUP BY node, doc_id
              HAVING count(DISTINCT term) = {len(QUERY_TERMS)}),
            sc AS (
              SELECT tf.node, tf.doc_id,
                     SUM(log2(n.nd / df.df + 1)
                         * tf.tf * (2.0 + 1.0)
                         / (tf.tf + 2.0 * (1 - 0.75 + 0.75 * lens.dl / (n.tot / n.nd)))
                        ) AS score
              FROM tf
              JOIN df ON df.node = tf.node AND df.term = tf.term
              JOIN lens ON lens.node = tf.node AND lens.doc_id = tf.doc_id
              JOIN n ON n.node = tf.node
              JOIN cand ON cand.node = tf.node AND cand.doc_id = tf.doc_id
              GROUP BY tf.node, tf.doc_id),
            pernode AS (
              SELECT node, doc_id,
                     row_number() OVER (
                       PARTITION BY node
                       ORDER BY score DESC, CAST(doc_id AS VARCHAR)) AS rn
              FROM sc),
            pool AS (
              SELECT l.doc_id, l.ts
              FROM lens l JOIN pernode p
                ON p.node = l.node AND p.doc_id = l.doc_id
              WHERE p.rn <= {K}),
            ranked AS (
              SELECT doc_id, ts,
                     row_number() OVER (
                       ORDER BY ts DESC, CAST(doc_id AS VARCHAR) DESC) AS rn,
                     count(*) OVER () AS total
              FROM pool)
            SELECT rn::BIGINT AS rank, doc_id::BIGINT AS doc_id, ts::BIGINT AS ts
            FROM ranked
            WHERE rn <= CASE WHEN total > {K} THEN {K} - 1 ELSE total END
            """,
        # 2-term proximity: token byte positions recovered in SQL (simple
        # mode = [a-z0-9]+ runs over lower(text); ASCII corpus so char
        # offset == byte offset), then riot's two-candidate DP transition
        # replayed exactly — for each p1 only P2[j] and P2[j+1] with
        # j = max(#(P2 < p1) - 1, 0) compete (core/indexer.go:780-792).
        "search_proximity_2": f"""
            WITH padded AS (
              SELECT doc_id,
                     ' ' || regexp_replace(lower(text), '[^a-z0-9]', ' ', 'g')
                         || ' ' AS s
              FROM documents),
            offsets AS (
              SELECT doc_id, s,
                     unnest(range(1, length(s) + 1)) AS i
              FROM padded),
            p1 AS (
              SELECT doc_id, i - 1 AS pos
              FROM offsets
              WHERE substr(s, i::INT, {len(PROX2[0]) + 2})
                    = ' {PROX2[0]} '),
            p2 AS (
              SELECT doc_id, i - 1 AS pos
              FROM offsets
              WHERE substr(s, i::INT, {len(PROX2[1]) + 2})
                    = ' {PROX2[1]} '),
            p2r AS (
              SELECT doc_id, pos,
                     row_number() OVER (PARTITION BY doc_id ORDER BY pos) - 1
                       AS rn
              FROM p2),
            j AS (
              SELECT a.doc_id, a.pos AS pos1,
                     greatest(count(c.pos) - 1, 0) AS j
              FROM p1 a
              LEFT JOIN p2 c ON c.doc_id = a.doc_id AND c.pos < a.pos
              GROUP BY a.doc_id, a.pos),
            cand AS (
              SELECT j.doc_id, j.pos1, b.pos AS pos2
              FROM j JOIN p2r b
                ON b.doc_id = j.doc_id AND (b.rn = j.j OR b.rn = j.j + 1))
            SELECT doc_id::BIGINT AS doc_id,
                   min(abs(pos2 - pos1 - {len(PROX2[0])}))::BIGINT AS proximity
            FROM cand GROUP BY doc_id ORDER BY doc_id
            """,
        "tfidf_topk": f"""
            WITH {_TOKS},
            occ AS (SELECT doc_id, unnest(t) AS tok FROM toks),
            tf AS (SELECT doc_id, tok, count(*)::BIGINT AS tf
                   FROM occ GROUP BY 1, 2),
            df AS (SELECT tok, count(*)::BIGINT AS df FROM tf GROUP BY tok),
            n AS (SELECT count(*)::DOUBLE AS nd FROM documents),
            scored AS (
              SELECT tf.doc_id, tf.tok, tf.tf,
                     tf.tf * CAST(FLOOR(ln((SELECT nd FROM n) / df.df)
                                        * 1000000 + 0.5) AS BIGINT) AS s
              FROM tf JOIN df ON tf.tok = df.tok),
            ranked AS (
              SELECT doc_id, tok, tf, s,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY s DESC, tok) AS rn
              FROM scored)
            SELECT doc_id, tok AS term, tf, s AS tfidf_micro,
                   rn::BIGINT AS "rank"
            FROM ranked WHERE rn <= 3
            """,
        "grep_search": f"""
            SELECT doc_id::BIGINT AS doc_id,
                   length(regexp_extract_all(text, '{GREP_PATTERN}'))::BIGINT
                       AS n_matches
            FROM documents
            WHERE regexp_matches(text, '{GREP_PATTERN}')
            """,
        "pack_sequences": f"""
            WITH RECURSIVE {_TOKS},
            nt AS (SELECT doc_id, len(t)::BIGINT AS n_tokens,
                          (doc_id % 8)::BIGINT AS bucket
                   FROM toks),
            ord AS (SELECT *, row_number() OVER (PARTITION BY bucket
                                                 ORDER BY doc_id) AS rn
                    FROM nt),
            pack AS (
              SELECT bucket, rn, doc_id, n_tokens, 0::BIGINT AS bin,
                     0::BIGINT AS seq_pos, n_tokens AS filled
              FROM ord WHERE rn = 1
              UNION ALL
              SELECT o.bucket, o.rn, o.doc_id, o.n_tokens,
                     CASE WHEN p.filled + o.n_tokens > 2048 AND p.filled > 0
                          THEN p.bin + 1 ELSE p.bin END,
                     CASE WHEN p.filled + o.n_tokens > 2048 AND p.filled > 0
                          THEN 0 ELSE p.seq_pos + 1 END,
                     CASE WHEN p.filled + o.n_tokens > 2048 AND p.filled > 0
                          THEN o.n_tokens ELSE p.filled + o.n_tokens END
              FROM ord o JOIN pack p
                ON o.bucket = p.bucket AND o.rn = p.rn + 1)
            SELECT doc_id, n_tokens, bucket,
                   bucket * (1::BIGINT << 40) + bin AS seq_id, seq_pos
            FROM pack
            """,
        "chunk_docs": f"""
            WITH {_TOKS},
            nt AS (SELECT doc_id, t, len(t)::BIGINT AS n FROM toks
                   WHERE len(t) > 0),
            idx AS (
              SELECT doc_id, t, n,
                     unnest(range(0, CAST(ceil(n / 64.0) AS BIGINT)))
                         AS chunk_idx
              FROM nt)
            SELECT doc_id, chunk_idx::BIGINT AS chunk_idx,
                   LEAST(64, n - chunk_idx * 64)::BIGINT AS n_tokens,
                   array_to_string(
                     list_slice(t, chunk_idx * 64 + 1,
                                LEAST(n, chunk_idx * 64 + 64)), ' ')
                       AS chunk_text
            FROM idx
            """,
        "dedup_exact": """
            SELECT min(doc_id)::BIGINT AS doc_id, count(*)::BIGINT AS n_copies
            FROM documents GROUP BY text
            """,
        "dedup_rows_keep": """
            SELECT d.doc_id::BIGINT AS doc_id, d.lang
            FROM documents d
            JOIN (SELECT min(doc_id) AS doc_id FROM documents GROUP BY text) s
              USING (doc_id)
            """,
        "dedup_ngram_jaccard": """
            WITH toks AS (
              SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                         x -> x <> '') AS t
              FROM documents),
            grams AS (
              SELECT DISTINCT doc_id, g
              FROM toks,
                   UNNEST([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                           for i in range(1, len(t) - 1)]) AS u(g)
              WHERE len(t) >= 3),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
              FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id
              GROUP BY 1, 2)
            SELECT id_a, id_b, ROUND(c / (sa.n + sb.n - c)::DOUBLE, 6) AS jaccard
            FROM inter
            JOIN sizes sa ON sa.doc_id = id_a
            JOIN sizes sb ON sb.doc_id = id_b
            WHERE c / (sa.n + sb.n - c)::DOUBLE >= 0.2
            """,
        "dedup_clusters": """
            WITH RECURSIVE toks AS (
              SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                         x -> x <> '') AS t
              FROM documents),
            grams AS (
              SELECT DISTINCT doc_id, g
              FROM toks,
                   UNNEST([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                           for i in range(1, len(t) - 1)]) AS u(g)
              WHERE len(t) >= 3),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
              FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id
              GROUP BY 1, 2),
            pairs AS (
              SELECT id_a, id_b FROM inter
              JOIN sizes sa ON sa.doc_id = id_a
              JOIN sizes sb ON sb.doc_id = id_b
              WHERE c / (sa.n + sb.n - c)::DOUBLE >= 0.2),
            edges AS (SELECT id_a AS u, id_b AS v FROM pairs
                      UNION ALL SELECT id_b, id_a FROM pairs),
            reach(id, r) AS (
              SELECT DISTINCT u, u FROM edges
              UNION
              SELECT e.v, reach.r FROM reach JOIN edges e ON e.u = reach.id)
            SELECT id::BIGINT AS doc_id, min(r)::BIGINT AS cluster_id
            FROM reach GROUP BY id
            """,
        "dedup_survivors": """
            WITH RECURSIVE toks AS (
              SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                         x -> x <> '') AS t
              FROM documents),
            grams AS (
              SELECT DISTINCT doc_id, g
              FROM toks,
                   UNNEST([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                           for i in range(1, len(t) - 1)]) AS u(g)
              WHERE len(t) >= 3),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
              FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id
              GROUP BY 1, 2),
            pairs AS (
              SELECT id_a, id_b FROM inter
              JOIN sizes sa ON sa.doc_id = id_a
              JOIN sizes sb ON sb.doc_id = id_b
              WHERE c / (sa.n + sb.n - c)::DOUBLE >= 0.2),
            edges AS (SELECT id_a AS u, id_b AS v FROM pairs
                      UNION ALL SELECT id_b, id_a FROM pairs),
            reach(id, r) AS (
              SELECT DISTINCT u, u FROM edges
              UNION
              SELECT e.v, reach.r FROM reach JOIN edges e ON e.u = reach.id),
            losers AS (
              SELECT id FROM reach GROUP BY id HAVING id != min(r))
            SELECT doc_id::BIGINT AS doc_id FROM documents
            WHERE doc_id NOT IN (SELECT id FROM losers)
            """,
        "dedup_embedding": """
            SELECT a.vec_id::BIGINT AS id_a, b.vec_id::BIGINT AS id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
            """,
        "knn_cosine_topk": f"""
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings WHERE vec_id < 5)
            SELECT query_id::BIGINT AS query_id, vec_id::BIGINT AS vec_id
            FROM q, embeddings
            QUALIFY row_number() OVER (
                PARTITION BY query_id
                ORDER BY list_cosine_similarity(qe, embedding) DESC, vec_id) <= {K}
            """,
        # int8 scalar quantization (NEW r5): scale = 127/max|x_d| per dim,
        # half-up rounding (FLOOR(x+0.5) on both sides — numpy round would
        # be half-even, DuckDB round half-away), integer dots, ties by
        # vec_id.  Every op is IEEE-double or int64 in both engines.
        "knn_int8": f"""
            WITH e AS (
              SELECT vec_id, unnest(embedding)::DOUBLE AS v,
                     unnest(range(1, len(embedding)+1)) AS d
              FROM embeddings),
            s AS (
              SELECT d, CASE WHEN max(abs(v)) > 0
                             THEN 127.0 / max(abs(v)) ELSE 0.0 END AS sc
              FROM e GROUP BY d),
            c AS (
              SELECT e.vec_id, e.d,
                     CAST(LEAST(GREATEST(FLOOR(e.v * s.sc + 0.5), -127),
                                127) AS BIGINT) AS code
              FROM e JOIN s USING (d)),
            qc AS (SELECT vec_id AS query_id, d, code FROM c WHERE vec_id < 5),
            dots AS (
              SELECT qc.query_id, c.vec_id,
                     sum(qc.code * c.code)::BIGINT AS dot_q
              FROM qc JOIN c USING (d)
              GROUP BY qc.query_id, c.vec_id)
            SELECT query_id, vec_id, dot_q,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY dot_q DESC, vec_id)::BIGINT
                       AS rank
            FROM dots
            QUALIFY rank <= {K}
            """,
        # DSIR (Xie et al. 2023, arXiv:2302.03169): hashed unigram+bigram
        # buckets (md5-u64 % B, = riot_ray.hashing.u64), add-one
        # integer micro-nat log-ratio model target(lang='en') vs raw(all),
        # per-doc occurrence-sum weights.  dsir_select = top-100 QUALIFY.
        "dsir_weights": _dsir_sql(),
        "dsir_select": f"""
            WITH w AS ({_dsir_sql()})
            SELECT doc_id, weight_micro FROM w
            QUALIFY row_number() OVER (ORDER BY weight_micro DESC, doc_id)
                    <= 100
            """,
        # dedup_embedding_lsh / knn_lsh_topk / knn_ivf(pq)_topk (seeded-RNG
        # hyperplanes / trained IVF lists) and multimodal_decode (generated
        # binary input, not a driver view) are non-SQL-expressible ->
        # rows-only by design (recall/golden pins live in pytest; each has
        # an oracled exact counterpart: dedup_embedding, knn_cosine_topk,
        # knn_ivf_full, multimodal_meta).  kmeans_clusters / embedding_pca
        # / word_embeddings are float/iterative (pytest vs numpy); the
        # assign kernel is oracled via kmeans_assign.  search_proximity,
        # bpe_subword_counts, dedup_minhash and kmeans_assign gained exact
        # oracles in round 4 (appended below).
    }
    out["bm25_topk_wand"] = out["bm25_topk"]  # WAND must match exhaustive

    # fingerprints: full winnowing (Schleimer et al. SIGMOD'03) in SQL.
    # Token hash = first 8 md5 bytes as UBIGINT (= riot_ray.hashing.u64);
    # k-gram rolling hash = the same (kg * FNV64) ^ h chain in mod-2^64
    # HUGEINT arithmetic; window minima + short-doc fallback as in
    # riot_ray.pipelines.analysis.fingerprint_batch (k=5, window=8).
    FP_K, FP_W = 5, 8
    kg = "0::UBIGINT"
    for j in range(FP_K):
        h = f"('0x' || substr(md5(t[i+{j}]), 1, 16))::UBIGINT"
        kg = (f"xor(((({kg})::HUGEINT * 1099511628211) % "
              f"18446744073709551616)::UBIGINT, {h})")
    out["fingerprints"] = f"""
        WITH {_TOKS},
        grams AS (
          SELECT doc_id,
                 [{kg} for i in range(1, len(t) - {FP_K - 2})] AS kgs
          FROM toks),
        fp AS (SELECT doc_id, kgs, len(kgs) AS m FROM grams)
        SELECT fp.doc_id,
               CASE WHEN m = 0 THEN 0
                    WHEN m < {FP_W} THEN 1
                    ELSE len(list_distinct([list_min(kgs[i:i+{FP_W - 1}])
                                            for i in range(1, m - {FP_W - 2})]))
               END::BIGINT AS n_fingerprints,
               md5(d.text) AS digest
        FROM fp JOIN documents d ON d.doc_id = fp.doc_id
        """

    # lang_id: the marker-word heuristic is pure SQL — per-language marker
    # hit ratio, argmax with ties to the earlier language code, 'und' at 0.
    langs = sorted(STOPWORDS)  # matches LangId's argmax order
    ratio_cols = ",\n                   ".join(
        "len(list_filter(t, x -> x IN ({words}))) / GREATEST(len(t), 1)::DOUBLE AS s_{lang}".format(
            words=", ".join(f"'{w}'" for w in sorted(STOPWORDS[lang])), lang=lang
        )
        for lang in langs
    )
    best = f"GREATEST({', '.join('s_' + lang for lang in langs)})"
    case = "CASE WHEN {best} = 0 THEN 'und' ".format(best=best)
    for i, lang in enumerate(langs[:-1]):
        geq = " AND ".join(f"s_{lang} >= s_{o}" for o in langs[i + 1:])
        case += f"WHEN {geq} THEN '{lang}' "
    case += f"ELSE '{langs[-1]}' END"
    out["lang_id"] = f"""
        WITH {_TOKS},
        sc AS (
          SELECT doc_id,
                   {ratio_cols}
          FROM toks)
        SELECT doc_id,
               {case} AS lang_pred,
               ROUND({best}, 6) AS lang_conf
        FROM sc
        """
    out["window_tumbling"] = """
        SELECT epoch_us(ts) // 3600000000 * 3600 AS window_start,
               event_type, count(*)::BIGINT AS n_events,
               ROUND(sum(value), 6) AS sum_value,
               ROUND(sum(value) / count(*), 6) AS mean_value
        FROM events GROUP BY 1, 2
        """
    out["window_sliding"] = """
        SELECT epoch_us(e.ts) // 900000000 * 900 - g.i * 900 AS window_start,
               e.event_type, count(*)::BIGINT AS n_events,
               ROUND(sum(e.value), 6) AS sum_value,
               ROUND(sum(e.value) / count(*), 6) AS mean_value
        FROM events e CROSS JOIN range(4) g(i)
        GROUP BY 1, 2
        """
    out["sessionize"] = """
        WITH o AS (
          SELECT user_id, event_id, value, epoch_us(ts) AS t,
                 LAG(epoch_us(ts)) OVER
                   (PARTITION BY user_id ORDER BY epoch_us(ts), event_id) AS pt
          FROM events),
        m AS (SELECT *, CASE WHEN pt IS NULL OR t - pt > 1800000000
                             THEN 1 ELSE 0 END AS new FROM o),
        s AS (SELECT *, SUM(new) OVER (PARTITION BY user_id ORDER BY t, event_id
                                       ROWS UNBOUNDED PRECEDING) AS session_id
              FROM m)
        SELECT user_id, session_id::BIGINT AS session_id,
               min(t)::BIGINT AS start_us, max(t)::BIGINT AS end_us,
               count(*)::BIGINT AS n_events, ROUND(sum(value), 6) AS sum_value
        FROM s GROUP BY user_id, session_id
        """
    out["window_topk"] = """
        WITH agg AS (
          SELECT epoch_us(ts) // 3600000000 * 3600 AS window_start, event_type,
                 ROUND(sum(value), 6) AS sum_value
          FROM events GROUP BY 1, 2),
        r AS (SELECT *, row_number() OVER
                 (PARTITION BY window_start
                  ORDER BY sum_value DESC, event_type) AS rank
              FROM agg)
        SELECT window_start, event_type, sum_value, rank::BIGINT AS rank
        FROM r WHERE rank <= 3
        """
    out["asof_attribution"] = """
        WITH o AS (
          SELECT event_id, user_id, event_type, epoch_us(ts) AS t,
                 CASE WHEN event_type = 'click' THEN event_id END AS src_id,
                 CASE WHEN event_type = 'click' THEN epoch_us(ts) END AS src_t
          FROM events),
        f AS (SELECT *,
                last_value(src_id IGNORE NULLS) OVER w AS attr_id,
                last_value(src_t IGNORE NULLS) OVER w AS attr_t
              FROM o
              WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING))
        SELECT event_id, user_id, attr_id AS src_event_id,
               (t - attr_t)::BIGINT AS lag_us
        FROM f WHERE event_type = 'purchase'
        """
    # ordered funnel: earliest-completion semantics — each step's time is
    # the user's first qualifying event, every later step strictly after
    # the previous one and inside the horizon of the user's FIRST step
    h_us = FUNNEL_HORIZON_S * 1_000_000
    s1, s2, s3 = FUNNEL_STEPS
    out["funnel_counts"] = f"""
        WITH s1 AS (SELECT user_id, min(epoch_us(ts)) AS t FROM events
                    WHERE event_type = '{s1}' GROUP BY 1),
        s2 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t FROM events e
               JOIN s1 ON e.user_id = s1.user_id
               WHERE e.event_type = '{s2}' AND epoch_us(e.ts) > s1.t
                 AND epoch_us(e.ts) <= s1.t + {h_us} GROUP BY 1),
        s3 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t FROM events e
               JOIN s2 ON e.user_id = s2.user_id
               JOIN s1 ON e.user_id = s1.user_id
               WHERE e.event_type = '{s3}' AND epoch_us(e.ts) > s2.t
                 AND epoch_us(e.ts) <= s1.t + {h_us} GROUP BY 1)
        SELECT * FROM (
          SELECT 1::BIGINT AS step, '{s1}' AS step_name,
                 count(*)::BIGINT AS n_users FROM s1
          UNION ALL SELECT 2, '{s2}', count(*) FROM s2
          UNION ALL SELECT 3, '{s3}', count(*) FROM s3) ORDER BY step
        """
    # more_like_this: integer micro-IDF sparse dot product (idf rounded to
    # milli-nats FIRST, then tf-weighted — exact BIGINT arithmetic on both
    # sides; <=0 scores excluded; ties by ascending neighbor id)
    mlt_in = ", ".join(str(i) for i in MLT_QUERY_IDS)
    out["more_like_this"] = f"""
        WITH {_TOKS},
        occ AS (SELECT doc_id, term, count(*)::BIGINT AS tf
                FROM (SELECT doc_id, unnest(t) AS term FROM toks)
                GROUP BY 1, 2),
        df AS (SELECT term, count(*)::BIGINT AS df FROM occ GROUP BY 1),
        n AS (SELECT count(*)::BIGINT AS n FROM documents),
        w AS (SELECT doc_id, term,
                     tf * CAST(round(ln(n.n::DOUBLE / df.df) * 1000) AS BIGINT)
                       AS w
              FROM occ JOIN df USING (term), n),
        q AS (SELECT * FROM w WHERE doc_id IN ({mlt_in})),
        scores AS (SELECT q.doc_id AS query_id, d.doc_id AS neighbor_id,
                          sum(q.w * d.w)::BIGINT AS score
                   FROM q JOIN w d USING (term) WHERE d.doc_id != q.doc_id
                   GROUP BY 1, 2 HAVING sum(q.w * d.w) > 0)
        SELECT query_id, neighbor_id, score,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY score DESC, neighbor_id)::BIGINT
                 AS rank
        FROM scores QUALIFY rank <= {MLT_K}
        """
    out["json_extract"] = r"""
        SELECT event_id,
               CAST(regexp_extract(props, '"k"\s*:\s*(-?\d+)', 1) AS BIGINT) AS k
        FROM events
        """
    # MinHash-LSH candidates + exact-jaccard verify: with rows-per-band = 2
    # (num_perm=128 / bands=64) candidate recall at threshold 0.2 is ~1 at
    # oracle scale, so the output equals plain exact n-gram jaccard — the
    # same SQL is a valid oracle (verified pair-for-pair at sf0.01).
    out["dedup_minhash_exact"] = out["dedup_ngram_jaccard"]

    # simhash: the 64-bit tf-weighted signature is fully recomputable in SQL
    # (token hash = first 8 md5 bytes, same as riot_ray.hashing.u64; bit b set iff
    # 2*sum_of_bit_b_over_occurrences > n_occurrences), and the 7-block
    # pigeonhole blocking in simhash_pairs is COMPLETE for hamming <= 6, so
    # the pipeline output equals the brute hamming-<=6 pair set.
    out["dedup_simhash"] = f"""
        WITH {_TOKS},
        occ AS (
          SELECT doc_id, ('0x' || substr(md5(unnest(t)), 1, 16))::UBIGINT AS h
          FROM toks),
        bits AS (
          SELECT doc_id, b.i AS bit,
                 SUM(((h >> b.i) & 1)::BIGINT) AS ones, COUNT(*) AS total
          FROM occ CROSS JOIN range(64) b(i)
          GROUP BY doc_id, b.i),
        sig0 AS (
          SELECT doc_id,
                 SUM(CASE WHEN ones * 2 > total
                          THEN (1::UBIGINT << bit) ELSE 0::UBIGINT END) AS s
          FROM bits GROUP BY doc_id),
        sig AS (
          SELECT d.doc_id, COALESCE(sig0.s, 0::UBIGINT)::UBIGINT AS s
          FROM documents d LEFT JOIN sig0 USING (doc_id))
        SELECT a.doc_id::BIGINT AS id_a, b.doc_id::BIGINT AS id_b,
               bit_count(xor(a.s, b.s))::BIGINT AS hamming
        FROM sig a JOIN sig b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.s, b.s)) <= 6
        """

    # IVF with every list probed scans the whole corpus => exactly brute
    out["knn_ivf_full"] = out["knn_cosine_topk"]
    out["knn_ivf_persisted"] = out["knn_cosine_topk"]
    # round-4 oracle additions (VERDICT r3 #2: shrink the no_oracle set)
    out["search_proximity"] = _proximity_sql(QUERY_TERMS)
    out["bpe_subword_counts"] = _bpe_encode_sql(BPE_MERGES)
    out["dedup_minhash"] = _minhash_sql()
    out["knn_lsh_topk"] = _knn_lsh_sql(K)
    out["dedup_embedding_lsh"] = _embedding_lsh_sql()
    # batch_retrieval: the bm25_topk SQL generalized to a query TABLE —
    # same tf/df/lens/avgdl CTEs, AND candidates per query, row_number()
    # top-k per query with the engine's (score desc, doc_id-string asc)
    # tie order, scores in oracle-exact milli units
    _qt_rows = ", ".join(
        f"({qid}, '{term}')"
        for qid, text in BATCH_QUERIES for term in text.split()
    )
    _all_terms = ", ".join(
        f"'{t}'" for t in sorted({w for _, s in BATCH_QUERIES for w in s.split()})
    )
    out["batch_retrieval"] = f"""
        WITH {_TOKS},
        lens AS (SELECT doc_id, len(t)::DOUBLE AS dl FROM toks),
        n AS (SELECT count(*)::DOUBLE AS nd, sum(dl)::DOUBLE AS tot FROM lens),
        qt(query_id, term) AS (VALUES {_qt_rows}),
        tf AS (
          SELECT doc_id, term, count(*)::DOUBLE AS tf
          FROM (SELECT doc_id, unnest(t) AS term FROM toks)
          WHERE term IN ({_all_terms})
          GROUP BY doc_id, term),
        df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
        cand AS (
          SELECT qt.query_id, tf.doc_id
          FROM qt JOIN tf USING (term)
          GROUP BY qt.query_id, tf.doc_id
          HAVING count(DISTINCT tf.term) = 2),
        sc AS (
          SELECT c.query_id, c.doc_id,
                 SUM(log2(n.nd / df.df + 1)
                     * tf.tf * (2.0 + 1.0)
                     / (tf.tf + 2.0 * (1 - 0.75 + 0.75 * lens.dl / (n.tot / n.nd)))
                    ) AS score
          FROM cand c
          JOIN qt ON qt.query_id = c.query_id
          JOIN tf ON tf.doc_id = c.doc_id AND tf.term = qt.term
          JOIN df ON df.term = qt.term
          JOIN lens ON lens.doc_id = c.doc_id
          CROSS JOIN n
          GROUP BY c.query_id, c.doc_id),
        ranked AS (
          SELECT query_id, doc_id, score,
                 row_number() OVER (
                   PARTITION BY query_id
                   ORDER BY score DESC, CAST(doc_id AS VARCHAR)) AS rn
          FROM sc)
        SELECT query_id::BIGINT AS query_id, doc_id,
               CAST(FLOOR(score * 1000 + 0.5) AS BIGINT) AS score_milli
        FROM ranked WHERE rn <= {BATCH_K}
        """

    # hybrid_batch: batch_retrieval's per-query sc chain (queries 0-4) ->
    # milli-desc/varchar ranks; knn_cosine_topk's QUALIFY ordering for the
    # vector ranks (query embeddings = vec_id 0-4); per-query FULL OUTER
    # JOIN RRF (k0=60).  Both rank sets are integers -> the fused double
    # is bit-identical to the Ray side's (2-term IEEE sums commute).
    _qt5_rows = ", ".join(
        f"({qid}, '{term}')"
        for qid, text in BATCH_QUERIES[:5] for term in text.split()
    )
    _qt5_terms = ", ".join(
        f"'{t}'" for t in sorted({w for _, s in BATCH_QUERIES[:5] for w in s.split()})
    )
    out["hybrid_batch"] = f"""
        WITH {_TOKS},
        lens AS (SELECT doc_id, len(t)::DOUBLE AS dl FROM toks),
        n AS (SELECT count(*)::DOUBLE AS nd, sum(dl)::DOUBLE AS tot FROM lens),
        qt(query_id, term) AS (VALUES {_qt5_rows}),
        tf AS (
          SELECT doc_id, term, count(*)::DOUBLE AS tf
          FROM (SELECT doc_id, unnest(t) AS term FROM toks)
          WHERE term IN ({_qt5_terms})
          GROUP BY doc_id, term),
        df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
        cand AS (
          SELECT qt.query_id, tf.doc_id
          FROM qt JOIN tf USING (term)
          GROUP BY qt.query_id, tf.doc_id
          HAVING count(DISTINCT tf.term) = 2),
        sc AS (
          SELECT c.query_id, c.doc_id,
                 SUM(log2(n.nd / df.df + 1)
                     * tf.tf * (2.0 + 1.0)
                     / (tf.tf + 2.0 * (1 - 0.75 + 0.75 * lens.dl / (n.tot / n.nd)))
                    ) AS score
          FROM cand c
          JOIN qt ON qt.query_id = c.query_id
          JOIN tf ON tf.doc_id = c.doc_id AND tf.term = qt.term
          JOIN df ON df.term = qt.term
          JOIN lens ON lens.doc_id = c.doc_id
          CROSS JOIN n
          GROUP BY c.query_id, c.doc_id),
        lex_top AS (
          SELECT query_id, doc_id,
                 CAST(FLOOR(score * 1000 + 0.5) AS BIGINT) AS milli
          FROM (
            SELECT query_id, doc_id, score,
                   row_number() OVER (
                     PARTITION BY query_id
                     ORDER BY score DESC, CAST(doc_id AS VARCHAR)) AS rn
            FROM sc)
          WHERE rn <= {BATCH_K}),
        lex AS (
          SELECT query_id::BIGINT AS query_id, doc_id::BIGINT AS doc_id,
                 row_number() OVER (
                   PARTITION BY query_id
                   ORDER BY milli DESC, CAST(doc_id AS VARCHAR)) AS r
          FROM lex_top),
        q5 AS (SELECT vec_id AS query_id, embedding AS qe
               FROM embeddings WHERE vec_id < 5),
        vec AS (
          SELECT query_id::BIGINT AS query_id, vec_id::BIGINT AS doc_id,
                 row_number() OVER (
                   PARTITION BY query_id
                   ORDER BY list_cosine_similarity(qe, embedding) DESC,
                            vec_id) AS r
          FROM q5, embeddings
          QUALIFY r <= {BATCH_K}),
        fused AS (
          SELECT coalesce(l.query_id, v.query_id) AS query_id,
                 coalesce(l.doc_id, v.doc_id) AS doc_id,
                 coalesce(1.0 / (60 + l.r), 0)
                 + coalesce(1.0 / (60 + v.r), 0) AS rrf
          FROM lex l FULL OUTER JOIN vec v
            ON l.query_id = v.query_id AND l.doc_id = v.doc_id)
        SELECT query_id, doc_id,
               CAST(FLOOR(rrf * 10000000 + 0.5) AS BIGINT) AS rrf_micro,
               row_number() OVER (
                 PARTITION BY query_id ORDER BY rrf DESC, doc_id) AS rank
        FROM fused
        QUALIFY rank <= {BATCH_K}
        """

    # the pipeline_curate CTE chain + the shuffle_shards window — the full
    # composition under one hash
    out["pipeline_train_shards"] = f"""
        WITH {_TOKS},
        {_CURATE_CTES},
        ordered AS (
          SELECT doc_id,
                 row_number() OVER (
                   ORDER BY md5('1:' || CAST(doc_id AS VARCHAR)), doc_id
                 ) - 1 AS rank
          FROM kept)
        SELECT doc_id, rank::BIGINT AS rank, (rank % 4)::BIGINT AS shard
        FROM ordered
        """

    out["shuffle_shards"] = """
        WITH ordered AS (
          SELECT doc_id,
                 row_number() OVER (
                   ORDER BY md5('0:' || CAST(doc_id AS VARCHAR)), doc_id
                 ) - 1 AS rank
          FROM documents)
        SELECT doc_id, rank::BIGINT AS rank, (rank % 8)::BIGINT AS shard
        FROM ordered
        """

    # semdedup: assign = the kmeans_assign oracle's seed-centroid
    # nearest-neighbor; a row is dropped iff an EARLIER same-cluster row
    # has cosine >= threshold (keep-earliest survivor semantics).  The
    # CTE chain is shared with pipeline_semdedup_curate so the composed
    # oracle can never drift from the stage oracle.
    _semdedup_ctes = f"""
        seeds AS (
          SELECT vec_id AS cid, embedding AS ce
          FROM embeddings WHERE vec_id < 8),
        ranked AS (
          SELECT e.vec_id, s.cid,
                 row_number() OVER (
                   PARTITION BY e.vec_id
                   ORDER BY list_distance(e.embedding, s.ce), s.cid) AS rn
          FROM embeddings e CROSS JOIN seeds s),
        asg AS (SELECT vec_id, cid AS cluster FROM ranked WHERE rn = 1),
        dup AS (
          SELECT DISTINCT a.vec_id
          FROM asg a
          JOIN asg b ON b.cluster = a.cluster AND b.vec_id < a.vec_id
          JOIN embeddings ea ON ea.vec_id = a.vec_id
          JOIN embeddings eb ON eb.vec_id = b.vec_id
          WHERE ROUND(list_cosine_similarity(ea.embedding, eb.embedding), 6)
                >= {SEMDEDUP_THRESHOLD})"""
    out["semdedup"] = f"""
        WITH {_semdedup_ctes}
        SELECT a.vec_id::BIGINT AS vec_id, a.cluster::BIGINT AS cluster
        FROM asg a WHERE a.vec_id NOT IN (SELECT vec_id FROM dup)
        """
    # the corpus-side composition: documents whose id survives semantic
    # dedup (the DROPPED set is the broadcast side — it is the small one)
    out["pipeline_semdedup_curate"] = f"""
        WITH {_semdedup_ctes}
        SELECT d.doc_id, d.lang, d.n_chars
        FROM documents d
        WHERE d.doc_id NOT IN (SELECT vec_id FROM dup)
        """

    out["kmeans_assign"] = """
        WITH seeds AS (
          SELECT vec_id AS cid, embedding AS ce
          FROM embeddings WHERE vec_id < 8),
        ranked AS (
          SELECT e.vec_id, s.cid,
                 row_number() OVER (
                   PARTITION BY e.vec_id
                   ORDER BY list_distance(e.embedding, s.ce), s.cid) AS rn
          FROM embeddings e CROSS JOIN seeds s)
        SELECT vec_id::BIGINT AS vec_id, cid::BIGINT AS cluster
        FROM ranked WHERE rn = 1
        """

    # PII scrub / normalize: DuckDB is RE2 like pyarrow.compute, so the
    # patterns are shared verbatim; both sides plant identical doc_id-derived
    # PII (the synthetic corpus has none naturally)
    from riot_ray.pipelines.scrub import EMAIL_RE, IPV4_RE, PHONE_RE

    _pii_enr = (
        "SELECT doc_id, text || ' contact user' || doc_id || '@ex' || "
        "(doc_id % 7) || '.org ip 10.' || (doc_id % 200) || '.' || "
        "(doc_id % 250) || '.' || (doc_id % 100) || ' tel +' || "
        "(900000000 + doc_id) AS t FROM documents"
    )
    out["pii_scrub"] = (
        "WITH enr AS (" + _pii_enr + ") "
        "SELECT doc_id, "
        f"len(regexp_extract_all(t, '{EMAIL_RE}'))::BIGINT AS n_emails, "
        f"len(regexp_extract_all(t, '{IPV4_RE}'))::BIGINT AS n_ipv4, "
        f"len(regexp_extract_all(t, '{PHONE_RE}'))::BIGINT AS n_phones, "
        "regexp_replace(regexp_replace(regexp_replace(t, "
        f"'{EMAIL_RE}', '<EMAIL>', 'g'), "
        f"'{IPV4_RE}', '<IP>', 'g'), "
        f"'{PHONE_RE}', '<PHONE>', 'g') AS text_clean "
        "FROM enr"
    )
    out["line_dedup"] = r"""
        WITH enr AS (
          SELECT doc_id,
                 regexp_replace(text, '((\S+ ){7}\S+) ', '\1' || chr(10), 'g')
                 || chr(10) || 'license boilerplate v' || (doc_id % 3) AS t
          FROM documents),
        parts AS (SELECT doc_id, string_split(t, chr(10)) AS p FROM enr),
        lines AS (
          SELECT doc_id, unnest(p) AS line,
                 unnest(range(len(p))) AS line_idx
          FROM parts),
        win AS (
          SELECT line, min(doc_id * 1048576 + line_idx) AS pack
          FROM lines GROUP BY line)
        SELECT l.doc_id, l.line_idx::BIGINT AS line_idx, l.line
        FROM lines l JOIN win w ON l.line = w.line
        WHERE l.doc_id * 1048576 + l.line_idx = w.pack
        """

    out["line_dedup_clean"] = r"""
        WITH enr AS (
          SELECT doc_id,
                 regexp_replace(text, '((\S+ ){7}\S+) ', '\1' || chr(10), 'g')
                 || chr(10) || 'license boilerplate v' || (doc_id % 3) AS t
          FROM documents),
        parts AS (SELECT doc_id, string_split(t, chr(10)) AS p FROM enr),
        lines AS (
          SELECT doc_id, unnest(p) AS line,
                 unnest(range(len(p))) AS line_idx
          FROM parts),
        win AS (
          SELECT line, min(doc_id * 1048576 + line_idx) AS pack
          FROM lines GROUP BY line),
        kept AS (
          SELECT l.doc_id, l.line_idx, l.line
          FROM lines l JOIN win w ON l.line = w.line
          WHERE l.doc_id * 1048576 + l.line_idx = w.pack)
        SELECT doc_id,
               string_agg(line, chr(10) ORDER BY line_idx) AS text_clean
        FROM kept GROUP BY doc_id
        """

    # ExactSubstr (Lee et al. 2022) oracles: the same 40-char-window dup
    # semantics in pure SQL — windows via unnest(range)+substr, dup test by
    # GROUP BY window HAVING count>=2, span merge by gaps-and-islands.
    _SUBSTR_DOCS = (
        "docs AS (SELECT doc_id, text || "
        "' common license footer text that recurs across documents rev '"
        " || (doc_id % 3) AS t FROM documents)"
    )
    _SUBSTR_SPANS = f"""
        {_SUBSTR_DOCS},
        wins AS (
          SELECT doc_id, unnest(range(greatest(len(t) - 39, 0))) AS pos, t
          FROM docs),
        w2 AS (SELECT doc_id, pos, substr(t, pos + 1, 40) AS w FROM wins),
        dupw AS (SELECT w FROM w2 GROUP BY w HAVING count(*) >= 2),
        marked AS (SELECT doc_id, pos FROM w2
                   WHERE w IN (SELECT w FROM dupw)),
        isl AS (
          SELECT doc_id, pos,
                 CASE WHEN pos - lag(pos) OVER
                        (PARTITION BY doc_id ORDER BY pos) <= 40
                      THEN 0 ELSE 1 END AS brk
          FROM marked),
        grp AS (SELECT doc_id, pos,
                       sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS g
                FROM isl),
        spans AS (
          SELECT doc_id, min(pos)::BIGINT AS span_start,
                 (max(pos) + 40)::BIGINT AS span_end,
                 count(*)::BIGINT AS n_windows
          FROM grp GROUP BY doc_id, g)
    """
    out["dup_spans"] = f"""
        WITH {_SUBSTR_SPANS}
        SELECT doc_id, span_start, span_end, n_windows FROM spans
        """
    out["dup_span_clean"] = f"""
        WITH {_SUBSTR_SPANS},
        segs AS (
          SELECT doc_id,
                 coalesce(lag(span_end) OVER
                            (PARTITION BY doc_id ORDER BY span_start),
                          0) AS s,
                 span_start AS e
          FROM spans
          UNION ALL
          SELECT sp.doc_id, max(sp.span_end) AS s, max(len(d.t)) AS e
          FROM spans sp JOIN docs d USING (doc_id) GROUP BY sp.doc_id),
        cleaned AS (
          SELECT g.doc_id,
                 string_agg(substr(d.t, g.s + 1, g.e - g.s),
                            '' ORDER BY g.s) AS tc
          FROM segs g JOIN docs d USING (doc_id) GROUP BY g.doc_id),
        rem AS (SELECT doc_id, sum(span_end - span_start)::BIGINT AS nrem
                FROM spans GROUP BY doc_id)
        SELECT d.doc_id, coalesce(c.tc, d.t) AS text_clean,
               coalesce(r.nrem, 0)::BIGINT AS n_removed
        FROM docs d LEFT JOIN cleaned c USING (doc_id)
        LEFT JOIN rem r USING (doc_id)
        """

    # Multinomial NB label recovery: identical add-one-smoothed integer
    # micro-nat model in SQL; prediction = rank 1 by (score desc, class asc)
    out["nb_classify"] = """
        WITH occ AS (
          SELECT doc_id, lang,
                 unnest(list_filter(
                     regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '')) AS tok
          FROM documents),
        cnts AS (SELECT lang AS c, tok, count(*)::BIGINT AS cnt
                 FROM occ GROUP BY 1, 2),
        tot AS (SELECT c, sum(cnt)::BIGINT AS tot FROM cnts GROUP BY c),
        vocab AS (SELECT count(DISTINCT tok)::BIGINT AS v FROM occ),
        classes AS (SELECT DISTINCT lang AS c FROM documents),
        priors AS (
          SELECT lang AS c,
                 CAST(FLOOR(ln(count(*)::DOUBLE /
                        (SELECT count(*) FROM documents)) * 1000000 + 0.5)
                      AS BIGINT) AS pmicro
          FROM documents GROUP BY 1),
        doctok AS (SELECT doc_id, tok, count(*)::BIGINT AS tf
                   FROM occ GROUP BY 1, 2),
        scores AS (
          SELECT d.doc_id, cl.c,
                 p.pmicro + sum(d.tf * CAST(FLOOR(
                     ln((coalesce(cn.cnt, 0) + 1)::DOUBLE /
                        (coalesce(t.tot, 0) + (SELECT v FROM vocab)))
                     * 1000000 + 0.5) AS BIGINT)) AS score,
                 sum(d.tf)::BIGINT AS n_tokens
          FROM doctok d
          CROSS JOIN classes cl
          LEFT JOIN tot t ON t.c = cl.c
          LEFT JOIN cnts cn ON cn.c = cl.c AND cn.tok = d.tok
          JOIN priors p ON p.c = cl.c
          GROUP BY d.doc_id, cl.c, p.pmicro)
        SELECT doc_id, c AS pred, score::BIGINT AS score_micro, n_tokens
        FROM (SELECT *, row_number() OVER
                (PARTITION BY doc_id ORDER BY score DESC, c ASC) AS rn
              FROM scores)
        WHERE rn = 1
        """

    _half_cut = int(0.5 * float(2**64))
    out["pipeline_substr_curate"] = f"""
        WITH {_SUBSTR_SPANS},
        segs AS (
          SELECT doc_id,
                 coalesce(lag(span_end) OVER
                            (PARTITION BY doc_id ORDER BY span_start),
                          0) AS s,
                 span_start AS e
          FROM spans
          UNION ALL
          SELECT sp.doc_id, max(sp.span_end) AS s, max(len(d.t)) AS e
          FROM spans sp JOIN docs d USING (doc_id) GROUP BY sp.doc_id),
        cleaned AS (
          SELECT g.doc_id,
                 string_agg(substr(d.t, g.s + 1, g.e - g.s),
                            '' ORDER BY g.s) AS tc
          FROM segs g JOIN docs d USING (doc_id) GROUP BY g.doc_id),
        rem AS (SELECT doc_id, sum(span_end - span_start)::BIGINT AS nrem
                FROM spans GROUP BY doc_id),
        final AS (
          SELECT d.doc_id, coalesce(c.tc, d.t) AS tclean,
                 coalesce(r.nrem, 0)::BIGINT AS n_removed
          FROM docs d LEFT JOIN cleaned c USING (doc_id)
          LEFT JOIN rem r USING (doc_id))
        SELECT doc_id, len(tclean)::BIGINT AS n_chars_clean, n_removed
        FROM final
        WHERE len(tclean) >= 200
          AND ('0x' || substr(md5(doc_id::VARCHAR || '#7'), 1, 16))::UBIGINT
              < {_half_cut}::UBIGINT
        """

    out["normalize_text"] = r"""
        WITH enr AS (
          SELECT doc_id,
                 text || '  x' || chr(9) || 'y cafe' || chr(769) || '  ' AS t
          FROM documents)
        SELECT doc_id,
               trim(regexp_replace(nfc_normalize(t), '\s+', ' ', 'g'))
                 AS text_norm
        FROM enr
        """

    # repetition filters: lines via string_split(chr(10)); n-grams via the
    # same token model as _TOKS; top-gram ties broken (count desc, gram asc)
    out["repetition_stats"] = f"""
        WITH {_TOKS},
        lines AS (
          SELECT doc_id, unnest(string_split(text, chr(10))) AS l
          FROM documents),
        lagg AS (
          SELECT doc_id, count(*) AS n_lines, count(DISTINCT l) AS n_distinct
          FROM lines GROUP BY doc_id),
        tchars AS (
          SELECT doc_id,
                 COALESCE(list_sum(list_transform(t, x -> length(x))), 0) AS tok_chars
          FROM toks),
        g2 AS (
          SELECT doc_id, unnest([t[i] || ' ' || t[i+1]
                                 for i in range(1, len(t))]) AS g
          FROM toks WHERE len(t) >= 2),
        g2c AS (SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY doc_id, g),
        top2 AS (SELECT doc_id, g, c, row_number() OVER
                   (PARTITION BY doc_id ORDER BY c DESC, g) AS rn FROM g2c),
        g3 AS (
          SELECT doc_id, unnest([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                                 for i in range(1, len(t) - 1)]) AS g
          FROM toks WHERE len(t) >= 3),
        g3c AS (SELECT doc_id, g, count(*) AS c FROM g3 GROUP BY doc_id, g),
        top3 AS (SELECT doc_id, g, c, row_number() OVER
                   (PARTITION BY doc_id ORDER BY c DESC, g) AS rn FROM g3c),
        g5 AS (
          SELECT doc_id,
                 unnest([t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' ||
                         t[i+3] || ' ' || t[i+4]
                         for i in range(1, len(t) - 3)]) AS g
          FROM toks WHERE len(t) >= 5),
        g5c AS (SELECT doc_id, g, count(*) AS c FROM g5 GROUP BY doc_id, g),
        d5 AS (
          SELECT doc_id, sum(c) AS total,
                 sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup
          FROM g5c GROUP BY doc_id)
        SELECT d.doc_id,
               lagg.n_lines::BIGINT AS n_lines,
               ROUND((lagg.n_lines - lagg.n_distinct)
                     / GREATEST(lagg.n_lines, 1)::DOUBLE, 6) AS dup_line_frac,
               ROUND(COALESCE(top2.c * (length(top2.g) - 1), 0)
                     / GREATEST(tchars.tok_chars, 1)::DOUBLE, 6) AS top_bigram_frac,
               ROUND(COALESCE(top3.c * (length(top3.g) - 2), 0)
                     / GREATEST(tchars.tok_chars, 1)::DOUBLE, 6) AS top_trigram_frac,
               ROUND(COALESCE(d5.dup, 0)
                     / GREATEST(COALESCE(d5.total, 0), 1)::DOUBLE, 6) AS dup_5gram_frac
        FROM documents d
        JOIN lagg USING (doc_id)
        JOIN tchars USING (doc_id)
        LEFT JOIN top2 ON top2.doc_id = d.doc_id AND top2.rn = 1
        LEFT JOIN top3 ON top3.doc_id = d.doc_id AND top3.rn = 1
        LEFT JOIN d5 ON d5.doc_id = d.doc_id
        """

    # deterministic sampling: id-hash = first 8 md5 bytes of "{id}#{seed}"
    # (the same DuckDB-reproducible scheme as riot_ray.hashing.u64)
    _cut = int(0.25 * float(2**64))  # same float path as hash_sample
    out["hash_sample"] = f"""
        SELECT doc_id, source FROM documents
        WHERE ('0x' || substr(md5(doc_id::VARCHAR || '#7'), 1, 16))::UBIGINT
              < {_cut}::UBIGINT
        """
    out["stratified_cap"] = """
        SELECT doc_id, source FROM documents
        QUALIFY row_number() OVER (
            PARTITION BY source
            ORDER BY ('0x' || substr(md5(doc_id::VARCHAR || '#7'), 1, 16))::UBIGINT,
                     doc_id) <= 15
        """

    out["token_budget_sample"] = f"""
        WITH {_TOKS},
        m AS (
          SELECT doc_id, len(t)::BIGINT AS n,
                 ('0x' || substr(md5(doc_id::VARCHAR || '#7'), 1, 16))::UBIGINT AS h
          FROM toks),
        c AS (
          SELECT doc_id,
                 SUM(n) OVER (ORDER BY h, doc_id
                              ROWS UNBOUNDED PRECEDING) AS cum
          FROM m)
        SELECT doc_id FROM c WHERE cum <= 4000
        """

    # HyperLogLog: the full sketch (md5 hash -> bucket/rho registers ->
    # bias-corrected estimate + linear counting) recomputed in SQL; exact
    # integer bit-length via bin()/ltrim, so the estimate matches bit-wise
    out["hll_distinct_tokens"] = f"""
        WITH {_TOKS},
        flat AS (SELECT unnest(t) AS v FROM toks),
        h AS (SELECT ('0x' || substr(md5(v || '#7'), 1, 16))::UBIGINT AS h
              FROM flat),
        b AS (SELECT (h >> 52)::BIGINT AS bucket,
                     h & ((1::UBIGINT << 52) - 1::UBIGINT) AS w FROM h),
        r AS (SELECT bucket,
                     CASE WHEN w = 0 THEN 53
                          ELSE 52 - length(ltrim(bin(w), '0')) + 1 END AS rho
              FROM b),
        mx AS (SELECT bucket, max(rho) AS rho FROM r GROUP BY bucket),
        agg AS (SELECT sum(power(2.0, -rho)) + (4096 - count(*)) AS s,
                       count(*) AS nb FROM mx),
        est AS (SELECT (0.7213 / (1.0 + 1.079 / 4096)) * 4096 * 4096 / s AS e,
                       nb FROM agg)
        SELECT CASE WHEN e <= 2.5 * 4096 AND nb < 4096
                    THEN CAST(FLOOR(4096 * ln(4096.0 / (4096 - nb)) + 0.5) AS BIGINT)
                    ELSE CAST(FLOOR(e + 0.5) AS BIGINT) END AS estimate,
               12::BIGINT AS p
        FROM est
        """

    out["top_per_source"] = """
        SELECT doc_id, source, n_chars FROM documents
        QUALIFY row_number() OVER (
            PARTITION BY source ORDER BY n_chars DESC, doc_id) <= 5
        """

    # same recursive cluster CTE as dedup_survivors, but the per-cluster
    # winner is the longest doc (n_chars desc, doc_id asc) instead of min id
    out["dedup_best_survivors"] = """
        WITH RECURSIVE toks AS (
          SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                     x -> x <> '') AS t
          FROM documents),
        grams AS (
          SELECT DISTINCT doc_id, g
          FROM toks,
               UNNEST([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                       for i in range(1, len(t) - 1)]) AS u(g)
          WHERE len(t) >= 3),
        sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
        inter AS (
          SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
          FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
        pairs AS (
          SELECT id_a, id_b FROM inter
          JOIN sizes sa ON sa.doc_id = id_a
          JOIN sizes sb ON sb.doc_id = id_b
          WHERE c / (sa.n + sb.n - c)::DOUBLE >= 0.2),
        edges AS (SELECT id_a AS u, id_b AS v FROM pairs
                  UNION ALL SELECT id_b, id_a FROM pairs),
        reach(id, r) AS (
          SELECT DISTINCT u, u FROM edges
          UNION
          SELECT e.v, reach.r FROM reach JOIN edges e ON e.u = reach.id),
        clusters AS (SELECT id::BIGINT AS doc_id, min(r)::BIGINT AS cluster_id
                     FROM reach GROUP BY id),
        ranked AS (
          SELECT c.doc_id, row_number() OVER (
                   PARTITION BY c.cluster_id
                   ORDER BY d.n_chars DESC, c.doc_id) AS rn
          FROM clusters c JOIN documents d USING (doc_id)),
        losers AS (SELECT doc_id FROM ranked WHERE rn > 1)
        SELECT doc_id::BIGINT AS doc_id FROM documents
        WHERE doc_id NOT IN (SELECT doc_id FROM losers)
        """

    out["quantiles_nchars"] = " UNION ALL ".join(
        f"SELECT {q} AS q, quantile_disc(n_chars, {q})::BIGINT AS value "
        "FROM documents"
        for q in (0.25, 0.5, 0.75, 0.9, 0.99)
    )

    _bcut = int(0.25 * float(2**64))
    out["contamination"] = f"""
        WITH {_TOKS},
        g AS (
          SELECT DISTINCT doc_id, g FROM (
            SELECT doc_id, unnest([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                                   for i in range(1, len(t) - 1)]) AS g
            FROM toks WHERE len(t) >= 3)),
        bench AS (
          SELECT doc_id FROM documents
          WHERE ('0x' || substr(md5(doc_id::VARCHAR || '#13'), 1, 16))::UBIGINT
                < {_bcut}::UBIGINT),
        bg AS (SELECT doc_id AS b_id, g FROM g
               WHERE doc_id IN (SELECT doc_id FROM bench)),
        bs AS (SELECT b_id, count(*) AS nb FROM bg GROUP BY b_id),
        inter AS (
          SELECT a.doc_id, bg.b_id, count(*) AS c
          FROM g a JOIN bg ON a.g = bg.g AND a.doc_id != bg.b_id
          GROUP BY 1, 2)
        SELECT doc_id, b_id AS bench_id,
               ROUND(c / bs.nb::DOUBLE, 6) AS overlap_frac
        FROM inter JOIN bs USING (b_id)
        WHERE c / bs.nb::DOUBLE >= 0.5
        """

    out["enrich_events"] = """
        SELECT e.event_id, e.user_id, c.c_name, c.c_mktsegment
        FROM events e JOIN customer c ON e.user_id = c.c_custkey
        """
    out["enrich_events_hashjoin"] = out["enrich_events"]

    out["hot_ngrams"] = f"""
        WITH {_TOKS},
        g3 AS (
          SELECT DISTINCT doc_id, g FROM (
            SELECT doc_id, unnest([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                                   for i in range(1, len(t) - 1)]) AS g
            FROM toks WHERE len(t) >= 3))
        SELECT g AS gram, count(*)::BIGINT AS n_docs
        FROM g3 GROUP BY g HAVING count(*) >= 4
        """

    # multimodal metadata: dims are md5-derived, body is the utf-8 text
    out["multimodal_meta"] = """
        SELECT doc_id,
               (('0x' || substr(md5(text), 1, 4))::INT % 57 + 8) AS width,
               (('0x' || substr(md5(text), 5, 4))::INT % 57 + 8) AS height,
               1 AS n_frames,
               strlen(text)::BIGINT AS n_bytes
        FROM documents
        """
    # real-codec variant: the payload is an actual P6 image, so width/
    # height come out of the PPM header the encoder wrote and n_bytes is
    # the decoded pixel count 3*w*h
    out["multimodal_real_meta"] = """
        WITH dims AS (
          SELECT doc_id,
                 (('0x' || substr(md5(text), 1, 4))::INT % 57 + 8) AS width,
                 (('0x' || substr(md5(text), 5, 4))::INT % 57 + 8) AS height
          FROM documents)
        SELECT doc_id, width, height, 1 AS n_frames,
               (3 * width * height)::BIGINT AS n_bytes
        FROM dims
        """
    return out
