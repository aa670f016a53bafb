"""Training-data pipeline extensions vs DuckDB / numpy oracles (sf0.001)."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/embeddings.parquet")


def _duck(sql):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM '{SF}/embeddings.parquet'")
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return con.execute(sql).fetch_arrow_table()


# ---------------------------------------------------------------------------- #
def test_token_stats_matches_sql(docs_ds):
    from riot_ray.pipelines import token_stats

    got = token_stats(docs_ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    exp = _duck(
        """
        SELECT doc_id,
               len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens_ws,
               len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                               x -> x <> '')) AS n_tokens
        FROM documents ORDER BY doc_id
        """
    ).to_pandas()
    assert (got["n_tokens"].to_numpy() == exp["n_tokens"].to_numpy()).all()
    assert (got["n_tokens_ws"].to_numpy() == exp["n_tokens_ws"].to_numpy()).all()
    assert (got["n_tokens_bpe"].to_numpy() >= got["n_tokens"].to_numpy()).all()


def test_quality_matches_sql(docs_ds):
    from riot_ray.pipelines import quality_score
    from riot_ray.pipelines.analysis import STOPWORDS

    got = quality_score(docs_ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    stop_list = ",".join(f"'{w}'" for w in STOPWORDS["en"])
    exp = _duck(
        f"""
        WITH toks AS (
          SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                     x -> x <> '') AS t,
                 length(text) AS n_chars
          FROM documents)
        SELECT doc_id,
               ROUND(len(list_filter(t, x -> x IN ({stop_list})))
                     / GREATEST(len(t), 1)::DOUBLE, 6) AS stop_ratio,
               len(t) AS n_tokens
        FROM toks ORDER BY doc_id
        """
    ).to_pandas()
    assert np.allclose(got["stop_ratio"], exp["stop_ratio"], atol=1e-6)
    assert (got["n_tokens"].to_numpy() == exp["n_tokens"].to_numpy()).all()
    assert ((got["quality"] >= 0) & (got["quality"] <= 1)).all()


def test_lang_id_runs_and_is_deterministic(docs_ds):
    from riot_ray.pipelines import lang_id

    a = lang_id(docs_ds).to_pandas().sort_values("doc_id")
    b = lang_id(docs_ds).to_pandas().sort_values("doc_id")
    assert (a["lang_pred"].to_numpy() == b["lang_pred"].to_numpy()).all()
    assert set(a["lang_pred"]) <= {"en", "de", "fr", "es", "und"}
    # marker-word heuristic must label clearly-marked docs correctly
    import ray.data as rd

    toy = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(
                    [
                        "the cat is on the mat and it was a day",
                        "der hund ist nicht mit der katze und das haus",
                    ]
                ),
            }
        )
    )
    t = lang_id(toy).to_pandas().sort_values("doc_id")
    assert list(t["lang_pred"]) == ["en", "de"]


def test_fingerprint_properties(docs_ds):
    from riot_ray.pipelines import fingerprint

    got = fingerprint(docs_ds).to_pandas().sort_values("doc_id")
    assert (got["n_fingerprints"] > 0).all()  # all sf docs are long enough
    # identical docs -> identical fingerprint sets; perturbed doc differs
    import ray.data as rd

    base = "alpha beta gamma delta epsilon zeta eta theta " * 8
    toy = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array([base, base, base.replace("delta", "kappa")]),
            }
        )
    )
    t = fingerprint(toy).to_pandas().sort_values("doc_id")
    f1, f2, f3 = (set(x) for x in t["fingerprints"])
    assert f1 == f2 and f1 != f3


# ---------------------------------------------------------------------------- #
def test_exact_dedup_matches_sql(docs_ds, ray_session):
    import ray.data as rd
    from riot_ray.pipelines import exact_dedup

    # documents are all unique at this sf — add controlled dups
    extra = pa.table(
        {
            "doc_id": pa.array([10_001, 10_002], pa.int64()),
            "text": pa.array(
                [
                    duckdb.connect()
                    .execute(f"SELECT text FROM '{SF}/documents.parquet' WHERE doc_id=0")
                    .fetchone()[0],
                    "totally new text",
                ]
            ),
        }
    )
    ds = docs_ds.select_columns(["doc_id", "text"]).union(rd.from_arrow(extra))
    got = exact_dedup(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    n_docs = docs_ds.count()
    assert len(got) == n_docs + 1  # one dup collapsed
    assert got[got["doc_id"] == 0]["n_copies"].iloc[0] == 2
    assert 10_001 not in set(got["doc_id"])
    assert 10_002 in set(got["doc_id"])


def test_ngram_jaccard_matches_sql(docs_ds):
    from riot_ray.pipelines import ngram_jaccard_pairs

    got = (
        ngram_jaccard_pairs(docs_ds, n=3, threshold=0.2)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    exp = _duck(
        """
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
        SELECT id_a, id_b,
               ROUND(c / (sa.n + sb.n - c)::DOUBLE, 6) AS jaccard
        FROM inter
        JOIN sizes sa ON sa.doc_id = id_a
        JOIN sizes sb ON sb.doc_id = id_b
        WHERE c / (sa.n + sb.n - c)::DOUBLE >= 0.2
        ORDER BY id_a, id_b
        """
    ).to_pandas()
    assert len(got) == len(exp)
    if len(exp):
        assert (got["id_a"].to_numpy() == exp["id_a"].to_numpy()).all()
        assert np.allclose(got["jaccard"], exp["jaccard"], atol=1e-6)


def _dup_corpus():
    """Toy corpus with known near-dups."""
    base = ("spark ray data engine builds posting lists with arrow batches "
            "and shuffles by term while streaming blocks through the store ")
    texts = [
        base * 4,
        (base * 4).replace("arrow", "feather", 1),      # near-dup of 0
        base * 4 + "completely different tail content here now",
        "unrelated words about cooking pasta with tomatoes and basil " * 6,
        base * 4,                                        # exact dup of 0
    ]
    return pa.table(
        {"doc_id": pa.array(list(range(5)), pa.int64()), "text": pa.array(texts)}
    )


def test_minhash_lsh_finds_known_dups(ray_session):
    import ray.data as rd
    from riot_ray.pipelines import minhash_lsh_pairs, ngram_jaccard_pairs

    ds = rd.from_arrow(_dup_corpus())
    exact = ngram_jaccard_pairs(ds, threshold=0.5).to_pandas()
    exact_pairs = {tuple(x) for x in exact[["id_a", "id_b"]].to_numpy()}
    got = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    got_pairs = {tuple(x) for x in got[["id_a", "id_b"]].to_numpy()}
    assert (0, 4) in got_pairs  # exact dup always caught
    # recall vs exact on this easy corpus should be total
    assert exact_pairs <= got_pairs


def test_minhash_lsh_exact_matches_plain_jaccard(ray_session):
    """LSH candidates + exact verify == brute-force exact jaccard on a
    corpus where rows-per-band=2 banding has ~total recall."""
    import ray.data as rd
    from riot_ray.pipelines import minhash_lsh_exact_pairs, ngram_jaccard_pairs

    ds = rd.from_arrow(_dup_corpus())
    exact = (
        ngram_jaccard_pairs(ds, threshold=0.3)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    got = (
        minhash_lsh_exact_pairs(ds, threshold=0.3, bands=64)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    assert len(got) == len(exact)
    assert (got["id_a"].to_numpy() == exact["id_a"].to_numpy()).all()
    assert (got["id_b"].to_numpy() == exact["id_b"].to_numpy()).all()
    assert np.allclose(got["jaccard"], exact["jaccard"], atol=1e-9)


def test_ngram_jaccard_auto_routes_to_lsh_verify(ray_session, monkeypatch):
    """plan="auto" above the row threshold == the lsh_verify plan, and the
    routed output matches the exhaustive plan on an easy-recall corpus."""
    import ray.data as rd

    import riot_ray.pipelines.dedup as dd
    from riot_ray.pipelines import ngram_jaccard_pairs

    ds = rd.from_arrow(_dup_corpus())
    exact = (
        ngram_jaccard_pairs(ds, threshold=0.5, plan="exact")
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    monkeypatch.setattr(dd, "JACCARD_AUTO_ROWS", 1)  # force the routed plan
    routed = (
        ngram_jaccard_pairs(ds, threshold=0.5)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    assert len(routed) == len(exact) > 0
    assert (routed["id_a"].to_numpy() == exact["id_a"].to_numpy()).all()
    assert np.allclose(routed["jaccard"], exact["jaccard"], atol=1e-9)
    with pytest.raises(ValueError, match="plan"):
        ngram_jaccard_pairs(ds, plan="bogus").to_pandas()


def test_ngram_jaccard_auto_stays_exact_below_safe_threshold(
        ray_session, monkeypatch):
    """ADVICE r4 (medium): a documented-exact operator must not silently
    lose recall — auto only reroutes through LSH when the threshold keeps
    the banding miss bound negligible (j >= 0.5); below it, auto warns and
    keeps the exhaustive plan, and an explicit lsh_verify warns too."""
    import warnings

    import ray.data as rd

    import riot_ray.pipelines.dedup as dd
    from riot_ray.pipelines import ngram_jaccard_pairs

    ds = rd.from_arrow(_dup_corpus())
    exact = (
        ngram_jaccard_pairs(ds, threshold=0.2, plan="exact")
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    monkeypatch.setattr(dd, "JACCARD_AUTO_ROWS", 1)  # "big" corpus
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        auto = (
            ngram_jaccard_pairs(ds, threshold=0.2)  # plan="auto"
            .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        )
    assert any("exact" in str(x.message) for x in w)  # warned about cost
    # ... but the RESULT is the exact plan's (full recall)
    assert len(auto) == len(exact)
    assert (auto["id_a"].to_numpy() == exact["id_a"].to_numpy()).all()
    assert np.allclose(auto["jaccard"], exact["jaccard"], atol=1e-9)
    # explicit lsh_verify at a low threshold warns with the miss bound
    with warnings.catch_warnings(record=True) as w2:
        warnings.simplefilter("always")
        ngram_jaccard_pairs(ds, threshold=0.2, plan="lsh_verify").count()
    assert any("missed" in str(x.message) for x in w2)


def test_simhash_finds_exact_and_near(ray_session):
    import ray.data as rd
    from riot_ray.pipelines import simhash_pairs

    ds = rd.from_arrow(_dup_corpus())
    got = simhash_pairs(ds, max_hamming=3).to_pandas()
    pairs = {tuple(x) for x in got[["id_a", "id_b"]].to_numpy()}
    assert (0, 4) in pairs
    ham = dict(zip((tuple(x) for x in got[["id_a", "id_b"]].to_numpy()), got["hamming"]))
    assert ham[(0, 4)] == 0
    assert (0, 3) not in pairs  # unrelated doc


def test_embedding_dup_matches_sql(emb_ds):
    from riot_ray.pipelines import embedding_dup_pairs

    got = (
        embedding_dup_pairs(emb_ds, threshold=0.4)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    exp = _duck(
        """
        SELECT a.vec_id AS id_a, b.vec_id AS id_b,
               ROUND(list_cosine_similarity(a.embedding, b.embedding), 6) AS cosine
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
        ORDER BY id_a, id_b
        """
    ).to_pandas()
    assert len(got) == len(exp)
    if len(exp):
        assert (got["id_a"].to_numpy() == exp["id_a"].to_numpy()).all()
        assert (got["id_b"].to_numpy() == exp["id_b"].to_numpy()).all()
        assert np.allclose(got["cosine"], exp["cosine"], atol=1e-5)


# ---------------------------------------------------------------------------- #
def test_knn_brute_matches_sql(emb_ds):
    from riot_ray.pipelines import knn_brute

    qt = duckdb.connect().execute(
        f"SELECT vec_id, embedding FROM '{SF}/embeddings.parquet' WHERE vec_id < 3 ORDER BY vec_id"
    ).fetch_arrow_table()
    Q = np.stack(qt["embedding"].to_numpy(zero_copy_only=False))
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    got = knn_brute(emb_ds, Q, qids, k=5).to_pandas()
    exp = _duck(
        """
        WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 3)
        SELECT query_id, vec_id,
               ROUND(list_cosine_similarity(qe, embedding), 6) AS cosine
        FROM q, embeddings
        QUALIFY row_number() OVER (
            PARTITION BY query_id
            ORDER BY list_cosine_similarity(qe, embedding) DESC, vec_id) <= 5
        ORDER BY query_id, cosine DESC, vec_id
        """
    ).to_pandas()
    assert len(got) == len(exp) == 15
    g = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert (g["vec_id"].to_numpy() == exp["vec_id"].to_numpy()).all()
    assert np.allclose(g["cosine"], exp["cosine"], atol=1e-5)


def test_knn_brute_block_count_invariant(emb_ds, ray_session):
    """The distributed per-query reduce returns identical results whatever
    the block count (round-3: the final top-k merge moved off the driver —
    driver-resident rows are nq*k, independent of n_blocks)."""
    from riot_ray.pipelines import knn_brute

    qt = duckdb.connect().execute(
        f"SELECT vec_id, embedding FROM '{SF}/embeddings.parquet' WHERE vec_id < 3 ORDER BY vec_id"
    ).fetch_arrow_table()
    Q = np.stack(qt["embedding"].to_numpy(zero_copy_only=False))
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    one = knn_brute(emb_ds.repartition(1), Q, qids, k=5).to_pandas()
    many = knn_brute(emb_ds.repartition(24), Q, qids, k=5).to_pandas()
    assert one[["query_id", "vec_id", "rank"]].values.tolist() == \
        many[["query_id", "vec_id", "rank"]].values.tolist()
    # output arrives already in deterministic (query_id, rank) order
    assert many["query_id"].is_monotonic_increasing or len(many) == 0
    # empty corpus-side candidates: zero rows with the full schema
    from riot_ray.pipelines.simsearch import _reduce_topk
    import ray.data as rd

    empty = _reduce_topk(
        rd.from_arrow(pa.table(
            {"query_id": pa.array([], pa.int64()),
             "vec_id": pa.array([], pa.int64()),
             "cosine_raw": pa.array([], pa.float64())})), 5)
    assert empty.num_rows == 0
    assert empty.schema.names == ["query_id", "vec_id", "cosine", "rank"]


def test_knn_reduce_driver_and_distributed_paths_equal(
    emb_ds, ray_session, monkeypatch
):
    """_reduce_topk is size-gated (driver concat under the bounded
    constant, groupby(query_id) above) — both paths must be bit-equal."""
    from riot_ray.pipelines import knn_brute
    from riot_ray.pipelines import simsearch as ss

    qt = duckdb.connect().execute(
        f"SELECT vec_id, embedding FROM '{SF}/embeddings.parquet' WHERE vec_id < 3 ORDER BY vec_id"
    ).fetch_arrow_table()
    Q = np.stack(qt["embedding"].to_numpy(zero_copy_only=False))
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    driver = knn_brute(emb_ds.repartition(8), Q, qids, k=5).to_pandas()
    monkeypatch.setattr(ss, "_DRIVER_REDUCE_MAX_ROWS", 0)  # force groupby
    dist = knn_brute(emb_ds.repartition(8), Q, qids, k=5).to_pandas()
    assert driver[["query_id", "vec_id", "rank"]].values.tolist() == \
        dist[["query_id", "vec_id", "rank"]].values.tolist()
    assert np.allclose(driver["cosine"], dist["cosine"], atol=0)


def test_knn_lsh_recall(emb_ds):
    from riot_ray.pipelines import knn_brute, knn_lsh

    qt = duckdb.connect().execute(
        f"SELECT vec_id, embedding FROM '{SF}/embeddings.parquet' WHERE vec_id < 5 ORDER BY vec_id"
    ).fetch_arrow_table()
    Q = np.stack(qt["embedding"].to_numpy(zero_copy_only=False))
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    brute = knn_brute(emb_ds, Q, qids, k=10).to_pandas()
    approx = knn_lsh(emb_ds, Q, qids, k=10, n_planes=8, n_tables=6, multiprobe=1).to_pandas()
    bp = {tuple(x) for x in brute[["query_id", "vec_id"]].to_numpy()}
    ap = {tuple(x) for x in approx[["query_id", "vec_id"]].to_numpy()}
    recall = len(bp & ap) / len(bp)
    assert recall >= 0.5, recall  # approximate but must be useful
    # every query must at least find itself (cosine 1)
    for q in qids:
        assert (q, q) in ap


def test_knn_ivf_full_probe_is_exact(emb_ds):
    from riot_ray.pipelines import knn_brute, knn_ivf

    qt = duckdb.connect().execute(
        f"SELECT vec_id, embedding FROM '{SF}/embeddings.parquet' WHERE vec_id < 4 ORDER BY vec_id"
    ).fetch_arrow_table()
    Q = np.stack(qt["embedding"].to_numpy(zero_copy_only=False))
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    brute = knn_brute(emb_ds, Q, qids, k=8).to_pandas()
    full = knn_ivf(emb_ds, Q, qids, k=8, n_lists=8, nprobe=8).to_pandas()
    # probing every list degenerates to exact brute force: identical table
    b = brute.sort_values(["query_id", "rank"]).reset_index(drop=True)
    f = full.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert (b["vec_id"].to_numpy() == f["vec_id"].to_numpy()).all()
    assert np.allclose(b["cosine"], f["cosine"], atol=1e-9)


def test_knn_ivf_recall(emb_ds):
    from riot_ray.pipelines import knn_brute, knn_ivf

    qt = duckdb.connect().execute(
        f"SELECT vec_id, embedding FROM '{SF}/embeddings.parquet' WHERE vec_id < 5 ORDER BY vec_id"
    ).fetch_arrow_table()
    Q = np.stack(qt["embedding"].to_numpy(zero_copy_only=False))
    qids = qt["vec_id"].to_numpy(zero_copy_only=False)
    brute = knn_brute(emb_ds, Q, qids, k=10).to_pandas()
    approx = knn_ivf(emb_ds, Q, qids, k=10, n_lists=16, nprobe=6).to_pandas()
    bp = {tuple(x) for x in brute[["query_id", "vec_id"]].to_numpy()}
    ap = {tuple(x) for x in approx[["query_id", "vec_id"]].to_numpy()}
    recall = len(bp & ap) / len(bp)
    assert recall >= 0.5, recall
    # a query's own vector lands in its own probed list (cos 1 to itself)
    for q in qids:
        assert (q, q) in ap


# ---------------------------------------------------------------------------- #
def test_ivf_persisted_index(emb_ds, tmp_path):
    """build_ivf_index + knn_ivf_query: full probe == brute, partial probe
    == the in-memory knn_ivf (same trainer/seed), and unprobed partitions
    are genuinely never read (delete one -> partial query unaffected)."""
    import os
    import shutil

    import numpy as np

    from riot_ray.pipelines import build_ivf_index, knn_brute, knn_ivf, knn_ivf_query

    rows = emb_ds.take(5)
    Q = np.stack([r["embedding"] for r in rows])
    qids = np.array([r["vec_id"] for r in rows], dtype=np.int64)

    idx = str(tmp_path / "ivf")
    st = build_ivf_index(emb_ds, idx, fingerprint="t", n_lists=8, seed=42)
    assert st["n_rows"] == emb_ds.count()

    full = knn_ivf_query(idx, Q, qids, k=8, nprobe=8).to_pandas()
    brute = knn_brute(emb_ds, Q, qids, k=8).to_pandas()
    assert full[["query_id", "vec_id", "rank"]].values.tolist() == \
        brute[["query_id", "vec_id", "rank"]].values.tolist()

    part = knn_ivf_query(idx, Q, qids, k=8, nprobe=3).to_pandas()
    mem = knn_ivf(emb_ds, Q, qids, k=8, n_lists=8, nprobe=3, seed=42).to_pandas()
    assert part[["query_id", "vec_id"]].values.tolist() == \
        mem[["query_id", "vec_id"]].values.tolist()

    # read pruning: removing a partition NO query probes at nprobe=3 must
    # not change the result (its bytes were never read)
    probed = set()
    import json
    meta = json.load(open(os.path.join(idx, "meta.json")))
    C = np.asarray(meta["centroids"])
    qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    for qi in range(len(qids)):
        probed |= set(np.argsort(-(qn[qi] @ C.T))[:3].tolist())
    unprobed = [l for l in range(meta["n_lists"]) if l not in probed]
    if unprobed:
        shutil.rmtree(os.path.join(idx, f"part={unprobed[0]:05d}"))
        again = knn_ivf_query(idx, Q, qids, k=8, nprobe=3).to_pandas()
        assert again[["query_id", "vec_id"]].values.tolist() == \
            part[["query_id", "vec_id"]].values.tolist()


def test_ivf_rebuild_sweeps_stale_lists(emb_ds, tmp_path):
    """Rebuilding the same index dir from a smaller corpus must never serve
    vectors from the previous corpus, even for lists the new corpus leaves
    empty (foreign-partition sweep)."""
    import numpy as np

    from riot_ray.pipelines import build_ivf_index, knn_ivf_query

    idx = str(tmp_path / "ivf2")
    build_ivf_index(emb_ds, idx, fingerprint="big", n_lists=8, seed=42)

    small = emb_ds.limit(20)
    small_ids = set(r["vec_id"] for r in small.take_all())
    build_ivf_index(small, idx, fingerprint="small", n_lists=8, seed=42)

    rows = emb_ds.take(3)
    Q = np.stack([r["embedding"] for r in rows])
    qids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    out = knn_ivf_query(idx, Q, qids, k=10, nprobe=8).to_pandas()
    assert set(out["vec_id"]) <= small_ids


def test_multimodal_plumbing(ray_session):
    import ray.data as rd
    from riot_ray.pipelines import decode_media, make_fake_media, resize_media
    from riot_ray.pipelines.multimodal import MediaDecodeStage, parse_fake_header

    media = make_fake_media(40, seed=1)
    ds = rd.from_arrow(media)
    dec = decode_media(ds, concurrency=2).to_pandas().sort_values("media_id")
    assert len(dec) == 40
    assert (dec["width"] >= 8).all() and (dec["height"] >= 8).all()
    assert all(len(f) == 8 for f in dec["feature"])
    # deterministic across runs
    dec2 = decode_media(ds, concurrency=2).to_pandas().sort_values("media_id")
    assert (dec["payload_digest"].to_numpy() == dec2["payload_digest"].to_numpy()).all()

    res = resize_media(ds, 16, 16).to_pandas().sort_values("media_id")
    mime, w, h, fr, _ = parse_fake_header(res["payload"].iloc[0])
    assert (w, h) == (16, 16)


def test_codec_roundtrips():
    """Stdlib codecs: encode -> decode reproduces the pixels/samples
    exactly for every format and every PNG filter type."""
    from riot_ray.pipelines import codecs as c

    rng = np.random.default_rng(5)
    rgb = rng.integers(0, 256, (13, 17, 3), np.uint8)
    gray = rng.integers(0, 256, (9, 11), np.uint8)

    for ft in range(5):  # None/Sub/Up/Average/Paeth
        w, h, fr, px = c.decode_png(c.encode_png(rgb, filter_type=ft))
        assert (w, h, fr) == (17, 13, 1)
        assert (px == rgb).all(), f"png filter {ft}"
        w, h, fr, px = c.decode_png(c.encode_png(gray, filter_type=ft))
        assert (px[:, :, 0] == gray).all(), f"png gray filter {ft}"

    w, h, fr, px = c.decode_bmp(c.encode_bmp(rgb))
    assert (w, h) == (17, 13) and (px == rgb).all()

    w, h, fr, px = c.decode_pnm(c.encode_pnm(rgb))
    assert (w, h) == (17, 13) and (px == rgb).all()
    w, h, fr, px = c.decode_pnm(c.encode_pnm(gray))
    assert (px[:, :, 0] == gray).all()

    smp = rng.integers(-30000, 30000, (500, 2), np.int16)
    rate, nch, n, got = c.decode_wav(c.encode_wav(smp, 16000))
    assert (rate, nch, n) == (16000, 2, 500)
    assert (got == smp).all()

    # RGBA survives PNG
    rgba = rng.integers(0, 256, (6, 7, 4), np.uint8)
    _, _, _, px = c.decode_png(c.encode_png(rgba, filter_type=4))
    assert (px == rgba).all()

    # hand-built PNM with comments + BMP row padding (w=3 -> pad 3 bytes)
    tiny = np.arange(27, dtype=np.uint8).reshape(3, 3, 3)
    buf = b"P6\n# a comment\n3 3\n255\n" + tiny.tobytes()
    _, _, _, px = c.decode_pnm(buf)
    assert (px == tiny).all()
    _, _, _, px = c.decode_bmp(c.encode_bmp(tiny))
    assert (px == tiny).all()


def test_multimodal_real_decode_and_resize(ray_session):
    """decode='real' runs actual PNG/BMP/PPM/WAV bytes through the
    actor-pool stages; resize re-encodes in the same format and the
    re-decode sees the target dims."""
    import ray.data as rd

    from riot_ray.pipelines import codecs as c
    from riot_ray.pipelines import decode_media, resize_media

    rng = np.random.default_rng(9)
    payloads, kinds = [], []
    for i in range(12):
        px = rng.integers(0, 256, (8 + i, 10 + i, 3), np.uint8)
        for enc, kind in ((c.encode_png, "png"), (c.encode_bmp, "bmp"),
                          (c.encode_pnm, "pnm")):
            payloads.append(enc(px))
            kinds.append(kind)
    smp = rng.integers(-1000, 1000, (800, 1), np.int16)
    payloads.append(c.encode_wav(smp, 8000))
    kinds.append("wav")
    t = pa.table({
        "media_id": pa.array(np.arange(len(payloads)), pa.int64()),
        "kind": pa.array(kinds),
        "payload": pa.array(payloads, pa.large_binary()),
    })
    ds = rd.from_arrow(t)
    dec = (decode_media(ds, decode="real", concurrency=2, batch_size=8)
           .to_pandas().sort_values("media_id").reset_index(drop=True))
    img = dec[dec["kind"] != "wav"]
    assert (img["width"].to_numpy() == np.repeat(np.arange(10, 22), 3)).all()
    assert (img["height"].to_numpy() == np.repeat(np.arange(8, 20), 3)).all()
    assert (img["n_frames"] == 1).all()
    wav = dec[dec["kind"] == "wav"].iloc[0]
    assert (wav["width"], wav["height"], wav["n_frames"]) == (8000, 1, 800)

    res = resize_media(ds, 6, 5, decode="real", concurrency=2, batch_size=8)
    rd2 = (decode_media(res, decode="real", concurrency=2, batch_size=8)
           .to_pandas().sort_values("media_id").reset_index(drop=True))
    img2 = rd2[rd2["kind"] != "wav"]
    assert (img2["width"] == 6).all() and (img2["height"] == 5).all()
    wav2 = rd2[rd2["kind"] == "wav"].iloc[0]
    # step = 800 // 30 = 26 -> ceil(800/26) = 31 samples kept
    assert wav2["n_frames"] == 31 and wav2["width"] == 8000

    # resize content check: nearest-neighbor is exact on one payload
    kind, w, h, fr, px = c.decode_any(bytes(payloads[0]))
    want = c.resize_nearest(px, 6, 5)
    got_buf = res.to_pandas().sort_values("media_id")["payload"].iloc[0]
    _, _, _, _, got_px = c.decode_any(bytes(got_buf))
    assert (got_px == want).all()


def test_media_from_docs_sql_parity(docs_ds):
    """media_from_docs + decode round-trips every metadata column to the
    md5-derived values a SQL oracle recomputes (the multimodal_meta contract)."""
    from riot_ray.pipelines import decode_media, media_from_docs

    got = (
        decode_media(media_from_docs(docs_ds.select_columns(["doc_id", "text"])),
                     concurrency=2, batch_size=64)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = (
        _duck(
            """
            SELECT doc_id,
                   (('0x' || substr(md5(text), 1, 4))::INT % 57 + 8) AS width,
                   (('0x' || substr(md5(text), 5, 4))::INT % 57 + 8) AS height,
                   strlen(text)::BIGINT AS n_bytes
            FROM documents ORDER BY doc_id
            """
        )
        .to_pandas()
        .reset_index(drop=True)
    )
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    for c in ("width", "height", "n_bytes"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    assert (got["n_frames"] == 1).all()


def test_simhash_pairs_sql_parity(docs_ds):
    """simhash signatures + the hamming-<=6 pair set are exactly recomputable
    in DuckDB (md5 token hash; pigeonhole blocking is complete at this hd)."""
    from riot_ray.pipelines import simhash_pairs

    got = simhash_pairs(docs_ds, max_hamming=6).to_pandas()
    got_pairs = set(zip(got.id_a, got.id_b, got.hamming))
    exp = _duck(
        """
        WITH toks AS (
          SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                     x -> x <> '') AS t
          FROM documents),
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
    ).to_pandas()
    exp_pairs = set(zip(exp.id_a, exp.id_b, exp.hamming))
    assert got_pairs == exp_pairs


def test_repetition_stats_matches_sql(docs_ds):
    from riot_ray.pipelines import repetition_stats

    got = (
        repetition_stats(docs_ds.select_columns(["doc_id", "text"]))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = _duck(
        """
        WITH toks AS (
          SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                     x -> x <> '') AS t
          FROM documents),
        lines AS (
          SELECT doc_id, unnest(string_split(text, chr(10))) AS l FROM documents),
        lagg AS (
          SELECT doc_id, count(*) AS n_lines, count(DISTINCT l) AS n_distinct
          FROM lines GROUP BY doc_id),
        tchars AS (
          SELECT doc_id,
                 COALESCE(list_sum(list_transform(t, x -> length(x))), 0) AS tok_chars
          FROM toks),
        g2 AS (SELECT doc_id, unnest([t[i] || ' ' || t[i+1]
                                      for i in range(1, len(t))]) AS g
               FROM toks WHERE len(t) >= 2),
        g2c AS (SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY doc_id, g),
        top2 AS (SELECT doc_id, g, c, row_number() OVER
                   (PARTITION BY doc_id ORDER BY c DESC, g) AS rn FROM g2c),
        g5 AS (SELECT doc_id,
                      unnest([t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' ||
                              t[i+3] || ' ' || t[i+4]
                              for i in range(1, len(t) - 3)]) AS g
               FROM toks WHERE len(t) >= 5),
        g5c AS (SELECT doc_id, g, count(*) AS c FROM g5 GROUP BY doc_id, g),
        d5 AS (SELECT doc_id, sum(c) AS total,
                      sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup
               FROM g5c GROUP BY doc_id)
        SELECT d.doc_id,
               lagg.n_lines::BIGINT AS n_lines,
               ROUND((lagg.n_lines - lagg.n_distinct)
                     / GREATEST(lagg.n_lines, 1)::DOUBLE, 6) AS dup_line_frac,
               ROUND(COALESCE(top2.c * (length(top2.g) - 1), 0)
                     / GREATEST(tchars.tok_chars, 1)::DOUBLE, 6) AS top_bigram_frac,
               ROUND(COALESCE(d5.dup, 0)
                     / GREATEST(COALESCE(d5.total, 0), 1)::DOUBLE, 6) AS dup_5gram_frac
        FROM documents d
        JOIN lagg USING (doc_id) JOIN tchars USING (doc_id)
        LEFT JOIN top2 ON top2.doc_id = d.doc_id AND top2.rn = 1
        LEFT JOIN d5 ON d5.doc_id = d.doc_id
        ORDER BY doc_id
        """
    ).to_pandas().reset_index(drop=True)
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    for c in ("n_lines", "dup_line_frac", "top_bigram_frac", "dup_5gram_frac"):
        assert np.allclose(got[c].to_numpy(), exp[c].to_numpy(), atol=1e-9), c


def test_repetition_stats_multiline_goldens(ray_session):
    """Hand-computed line + n-gram metrics on a corpus WITH newlines (the
    sf tables are single-line, so the line path needs its own fixture)."""
    import ray.data as rd
    from riot_ray.pipelines import repetition_stats

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "aa bb\naa bb\ncc dd",       # 3 lines, 1 dup -> 1/3
                    "x y z",                      # 1 line, no dups
                    "p q\n\n\np q",               # 4 lines: "p q" x2 + "" x2 -> 2/4
                ]
            ),
        }
    )
    got = (
        repetition_stats(rd.from_arrow(docs))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["n_lines"].tolist() == [3, 1, 4]
    assert np.allclose(got["dup_line_frac"], [1 / 3, 0.0, 0.5], atol=1e-6)
    # doc 0: top bigram "aa bb" count 2, chars 4; tok_chars = 12
    assert abs(got["top_bigram_frac"][0] - round(2 * 4 / 12, 6)) < 1e-9


def test_hot_ngrams_matches_sql(docs_ds):
    from riot_ray.pipelines import hot_ngrams

    got = (
        hot_ngrams(docs_ds.select_columns(["doc_id", "text"]), n=3, min_docs=3)
        .to_pandas().sort_values("gram").reset_index(drop=True)
    )
    exp = _duck(
        """
        WITH toks AS (
          SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                     x -> x <> '') AS t
          FROM documents),
        g3 AS (
          SELECT DISTINCT doc_id, g FROM (
            SELECT doc_id, unnest([t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                                   for i in range(1, len(t) - 1)]) AS g
            FROM toks WHERE len(t) >= 3))
        SELECT g AS gram, count(*)::BIGINT AS n_docs
        FROM g3 GROUP BY g HAVING count(*) >= 3 ORDER BY gram
        """
    ).to_pandas().reset_index(drop=True)
    assert got["gram"].tolist() == exp["gram"].tolist()
    assert got["n_docs"].tolist() == exp["n_docs"].tolist()


def test_contamination_matches_sql(docs_ds):
    import pyarrow.parquet as pq

    import __ray_entry__ as em

    got = (em.queries()["contamination"](SF).to_pandas()
           .sort_values(["doc_id", "bench_id"]).reset_index(drop=True))
    exp = (_duck(em.oracle_sql()["contamination"]).to_pandas()
           .sort_values(["doc_id", "bench_id"]).reset_index(drop=True))
    assert got[["doc_id", "bench_id"]].values.tolist() == \
        exp[["doc_id", "bench_id"]].values.tolist()
    assert np.allclose(got["overlap_frac"], exp["overlap_frac"], atol=1e-9)


def test_contamination_planted(ray_session):
    """A corpus doc embedding a benchmark doc verbatim has containment 1;
    unrelated docs never surface."""
    import ray.data as rd

    from riot_ray.pipelines import contamination

    bench = pa.table(
        {
            "doc_id": pa.array([100, 101], pa.int64()),
            "text": pa.array(
                ["secret eval question about rare penguins swimming north",
                 "another held out prompt nobody should train on ever"]
            ),
        }
    )
    corpus = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    # doc 1 contains bench 100 verbatim inside more text
                    "intro words secret eval question about rare penguins "
                    "swimming north closing words",
                    "completely unrelated content about databases and joins",
                    # doc 3 shares half of bench 101's trigrams
                    "another held out prompt nobody writes",
                ]
            ),
        }
    )
    out = (contamination(rd.from_arrow(corpus), bench, n=3, threshold=0.5)
           .to_pandas().sort_values(["doc_id", "bench_id"]))
    hits = set(zip(out.doc_id, out.bench_id))
    assert (1, 100) in hits
    assert not any(a == 2 for a, _ in hits)
    row = out[(out.doc_id == 1) & (out.bench_id == 100)]
    assert float(row["overlap_frac"].iloc[0]) == 1.0


def test_exact_quantiles_wide_range(ray_session):
    """Fetch path (bucket width > 1): wide-range ints with a heavy cluster;
    every quantile matches DuckDB quantile_disc exactly."""
    import duckdb
    import ray.data as rd

    from riot_ray.pipelines import exact_quantiles

    rng = np.random.default_rng(5)
    vals = np.concatenate([
        rng.integers(0, 2**40, size=30_000),
        np.full(5_000, 123_456_789_000),  # heavy repeated value
    ])
    ds = rd.from_arrow(pa.table({"x": pa.array(vals, pa.int64())}))
    got = exact_quantiles(ds, "x", qs=(0.1, 0.5, 0.9, 0.999)).to_pandas()
    con = duckdb.connect()
    con.register("t", pa.table({"x": pa.array(vals, pa.int64())}))
    for q in (0.1, 0.5, 0.9, 0.999):
        want = con.execute(f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0]
        assert int(got.loc[got["q"] == q, "value"].iloc[0]) == want, q


def test_exact_quantiles_int64_span_overflow(ray_session):
    """Columns spanning more than 2^63 (so v - mn wraps in int64) still
    match DuckDB exactly — the bucket math uses wrap-safe uint64 distance."""
    import duckdb
    import ray.data as rd

    from riot_ray.pipelines import exact_quantiles

    vals = np.array(
        [-(2**62) - 5, -(2**62), -1, 0, 1, 2**62, 2**62 + 5, 2**63 - 1],
        dtype=np.int64,
    )
    ds = rd.from_arrow(pa.table({"x": pa.array(vals, pa.int64())}))
    got = exact_quantiles(ds, "x", qs=(0.1, 0.5, 0.9)).to_pandas()
    con = duckdb.connect()
    con.register("t", pa.table({"x": pa.array(vals, pa.int64())}))
    for q in (0.1, 0.5, 0.9):
        want = con.execute(f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0]
        assert int(got.loc[got["q"] == q, "value"].iloc[0]) == want, q


def test_exact_quantiles_narrow_and_constant(ray_session):
    import duckdb
    import ray.data as rd

    from riot_ray.pipelines import exact_quantiles

    # width-1 fast path (small integer range)
    vals = np.repeat(np.arange(50), 7)
    ds = rd.from_arrow(pa.table({"x": pa.array(vals, pa.int64())}))
    got = exact_quantiles(ds, "x", qs=(0.25, 0.5, 0.75)).to_pandas()
    con = duckdb.connect()
    con.register("t", pa.table({"x": pa.array(vals, pa.int64())}))
    for q in (0.25, 0.5, 0.75):
        want = con.execute(f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0]
        assert int(got.loc[got["q"] == q, "value"].iloc[0]) == want, q
    # constant column short-circuits
    const = rd.from_arrow(pa.table({"x": pa.array([7] * 100, pa.int64())}))
    g = exact_quantiles(const, "x", qs=(0.5,)).to_pandas()
    assert g["value"].tolist() == [7]


def test_top_k_per_group_matches_sql(docs_ds):
    from riot_ray.pipelines import top_k_per_group

    got = (
        top_k_per_group(docs_ds.select_columns(["doc_id", "source", "n_chars"]),
                        key_col="source", score_col="n_chars", k=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = (
        _duck(
            """
            SELECT doc_id FROM documents
            QUALIFY row_number() OVER (
                PARTITION BY source ORDER BY n_chars DESC, doc_id) <= 3
            ORDER BY doc_id
            """
        ).to_pandas().reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    # ascending mode picks the shortest instead
    asc = top_k_per_group(
        docs_ds.select_columns(["doc_id", "source", "n_chars"]),
        key_col="source", score_col="n_chars", k=1, descending=False,
    ).to_pandas()
    full = docs_ds.select_columns(["doc_id", "source", "n_chars"]).to_pandas()
    for src, grp in full.groupby("source"):
        best = grp.sort_values(["n_chars", "doc_id"]).iloc[0]["doc_id"]
        assert best in set(asc["doc_id"]), src


def test_dedup_filter_by_keeps_best(ray_session):
    """Within each near-dup cluster the highest-score doc survives (ties ->
    smaller id); singletons always survive."""
    import ray.data as rd

    from riot_ray.pipelines import dedup_filter_by

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "q": pa.array([10, 30, 20, 7, 7], pa.int64()),
        }
    )
    # cluster A = {1,2,3} (transitive via 1-2, 2-3), cluster B = {4,5}
    pairs = rd.from_arrow(pa.table(
        {"id_a": pa.array([1, 2, 4], pa.int64()),
         "id_b": pa.array([2, 3, 5], pa.int64())}))
    out = (dedup_filter_by(rd.from_arrow(docs), pairs, score_col="q")
           .to_pandas())
    assert sorted(out["doc_id"]) == [2, 4]  # best of A; tie in B -> id 4

    # ascending keeps the lowest score
    out2 = (dedup_filter_by(rd.from_arrow(docs), pairs, score_col="q",
                            descending=False).to_pandas())
    assert sorted(out2["doc_id"]) == [1, 4]


def test_dedup_filter_by_scoreless_member_loses(ray_session):
    """A cluster member in the pair graph but ABSENT from ds must lose the
    cluster under BOTH sort directions (ADVICE r2: a -inf fill made it win
    with descending=False, evicting every real doc in its cluster)."""
    import ray.data as rd

    from riot_ray.pipelines import dedup_filter_by

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "q": pa.array([10, 30], pa.int64()),
        }
    )
    # doc 9 is in the pair graph (cluster {1,2,9}) but not in ds
    pairs = rd.from_arrow(pa.table(
        {"id_a": pa.array([1, 2], pa.int64()),
         "id_b": pa.array([2, 9], pa.int64())}))
    hi = dedup_filter_by(rd.from_arrow(docs), pairs, score_col="q").to_pandas()
    assert sorted(hi["doc_id"]) == [2]
    lo = dedup_filter_by(rd.from_arrow(docs), pairs, score_col="q",
                         descending=False).to_pandas()
    assert sorted(lo["doc_id"]) == [1]


def test_hll_sql_parity(docs_ds):
    """The HLL estimate itself (not just its inputs) matches the DuckDB
    re-derivation bit-for-bit at sf0.001."""
    import __ray_entry__ as em

    got = em.queries()["hll_distinct_tokens"](SF).to_pandas()
    exp = _duck(em.oracle_sql()["hll_distinct_tokens"]).to_pandas()
    assert got["estimate"].tolist() == exp["estimate"].tolist()


def test_hll_accuracy_large_universe(ray_session):
    """p=12 => ~1.6% standard error; pin 5% on a 20k-distinct universe
    (each value duplicated — duplicates must not move the estimate)."""
    import ray.data as rd

    from riot_ray.pipelines import hll_count

    n = 20_000
    vals = [f"value-{i:06d}" for i in range(n)] * 2
    ds = rd.from_arrow(pa.table({"v": pa.array(vals)}))
    est = hll_count(ds, col="v", p=12, seed=3)["estimate"][0].as_py()
    assert abs(est / n - 1.0) < 0.05, est


def test_hash_sample_matches_sql(docs_ds):
    from riot_ray.pipelines import hash_sample

    got = (
        hash_sample(docs_ds.select_columns(["doc_id", "source"]), frac=0.25, seed=7)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    cut = int(0.25 * float(2**64))
    exp = _duck(
        f"""
        SELECT doc_id, source FROM documents
        WHERE ('0x' || substr(md5(doc_id::VARCHAR || '#7'), 1, 16))::UBIGINT
              < {cut}::UBIGINT
        ORDER BY doc_id
        """
    ).to_pandas().reset_index(drop=True)
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    # sample fraction lands near frac
    n_docs = docs_ds.count()
    assert 0.1 < len(got) / n_docs < 0.4


def test_hash_sample_frac_one_keeps_everything(docs_ds):
    """frac=1.0 is exactly the identity (ADVICE r2: the clamped cutoff
    excluded an id whose hash equals 2**64-1)."""
    from riot_ray.pipelines import hash_sample

    n_docs = docs_ds.count()
    assert hash_sample(docs_ds, frac=1.0, seed=7).count() == n_docs


def test_group_sum_i64_exact_past_2_53():
    """Grouped int64 sums stay exact where float64-weighted bincount
    rounds (ADVICE r2: per-doc |logprob_micro| beyond 2^53)."""
    import numpy as np

    from riot_ray.pipelines.analysis import _group_sum_i64

    big = 2**53
    idx = np.array([0, 0, 1], np.int64)
    w = np.array([big, 1, 5], np.int64)
    out = _group_sum_i64(idx, w, 2)
    assert out.tolist() == [big + 1, 5]
    # float64 path would have lost the +1
    f = np.bincount(idx, weights=w.astype(np.float64), minlength=2).astype(np.int64)
    assert f[0] != big + 1


def test_stratified_cap_matches_sql(docs_ds):
    from riot_ray.pipelines import stratified_cap

    got = (
        stratified_cap(docs_ds.select_columns(["doc_id", "source"]),
                       key_col="source", max_per_key=20, seed=7)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    exp = _duck(
        """
        SELECT doc_id, source FROM documents
        QUALIFY row_number() OVER (
            PARTITION BY source
            ORDER BY ('0x' || substr(md5(doc_id::VARCHAR || '#7'), 1, 16))::UBIGINT,
                     doc_id) <= 20
        ORDER BY doc_id
        """
    ).to_pandas().reset_index(drop=True)
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got.groupby("source").size().max() <= 20
    # keys smaller than the cap keep every row
    full = docs_ds.to_pandas().groupby("source").size()
    kept = got.groupby("source").size()
    for k, n in full.items():
        if n <= 20:
            assert kept.get(k, 0) == n, k


def test_token_budget_sample_matches_sql(docs_ds):
    from riot_ray.pipelines import token_budget_sample

    total = _duck(
        """
        SELECT sum(len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                   x -> x <> '')))::BIGINT AS n
        FROM documents
        """
    ).to_pandas()["n"][0]
    budget = int(total) // 3
    got = sorted(
        token_budget_sample(docs_ds.select_columns(["doc_id", "text"]),
                            budget=budget, seed=7)
        .to_pandas()["doc_id"].tolist()
    )
    exp = sorted(
        _duck(
            f"""
            WITH toks AS (
              SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                         x -> x <> '') AS t
              FROM documents),
            m AS (
              SELECT doc_id, len(t)::BIGINT AS n,
                     ('0x' || substr(md5(doc_id::VARCHAR || '#7'), 1, 16))::UBIGINT AS h
              FROM toks),
            c AS (SELECT doc_id,
                         SUM(n) OVER (ORDER BY h, doc_id
                                      ROWS UNBOUNDED PRECEDING) AS cum
                  FROM m)
            SELECT doc_id FROM c WHERE cum <= {budget}
            """
        ).to_pandas()["doc_id"].tolist()
    )
    assert got == exp
    assert 0 < len(got) < docs_ds.count()
    # budget covering everything keeps everything
    all_ds = token_budget_sample(docs_ds.select_columns(["doc_id", "text"]),
                                 budget=int(total) + 1, seed=7)
    assert all_ds.count() == docs_ds.count()


def test_broadcast_join_matches_sql(ray_session):
    import pyarrow.parquet as pq
    import ray.data as rd

    from riot_ray.pipelines import broadcast_join

    ev = rd.read_parquet(f"{SF}/events.parquet")
    cust = pq.read_table(f"{SF}/customer.parquet",
                         columns=["c_custkey", "c_name", "c_mktsegment"])
    got = (
        broadcast_join(ev, cust, "user_id", "c_custkey")
        .select_columns(["event_id", "user_id", "c_name"])
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    exp = _duck(
        f"""
        SELECT e.event_id, e.user_id, c.c_name
        FROM events e
        JOIN read_parquet('{SF}/customer.parquet') c ON e.user_id = c.c_custkey
        ORDER BY e.event_id
        """
    ).to_pandas().reset_index(drop=True)
    assert got["event_id"].tolist() == exp["event_id"].tolist()
    assert got["c_name"].tolist() == exp["c_name"].tolist()


def test_hash_join_equals_broadcast(ray_session):
    import pyarrow.parquet as pq
    import ray.data as rd

    from riot_ray.pipelines import broadcast_join, hash_join

    ev = rd.read_parquet(f"{SF}/events.parquet").select_columns(
        ["event_id", "user_id"])
    cust_t = pq.read_table(f"{SF}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    cust_ds = rd.read_parquet(f"{SF}/customer.parquet",
                              columns=["c_custkey", "c_mktsegment"])
    a = (broadcast_join(ev, cust_t, "user_id", "c_custkey")
         .to_pandas().sort_values("event_id").reset_index(drop=True))
    b = (hash_join(ev, cust_ds, "user_id", "c_custkey")
         .to_pandas().sort_values("event_id").reset_index(drop=True))
    assert a["event_id"].tolist() == b["event_id"].tolist()
    assert a["c_mktsegment"].tolist() == b["c_mktsegment"].tolist()


def test_broadcast_join_left_nulls(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import broadcast_join

    big = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3, 4], pa.int64())}))
    dim = pa.table({"k": pa.array([2, 4], pa.int64()),
                    "v": pa.array(["b", "d"])})
    out = (broadcast_join(big, dim, "k", "k", how="left")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["v"].tolist() == [None, "b", None, "d"]
    inner = (broadcast_join(big, dim, "k", "k", how="inner")
             .to_pandas().sort_values("k").reset_index(drop=True))
    assert inner["k"].tolist() == [2, 4]

    # EMPTY dimension table: left keeps everything with null payload,
    # inner drops everything — neither crashes
    empty = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.string())})
    l = broadcast_join(big, empty, "k", "k", how="left").to_pandas()
    assert len(l) == 4 and l["v"].isna().all()
    assert broadcast_join(big, empty, "k", "k", how="inner").count() == 0


def test_hash_join_rejects_non_unique_right(ray_session):
    """A repeated right key fails loudly on both join shapes, instead of
    the hash join silently keeping only one of its matches."""
    import ray.data as rd

    from riot_ray.pipelines import broadcast_join, hash_join

    big = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    dim = pa.table({"k": pa.array([2, 2], pa.int64()),
                    "v": pa.array(["a", "b"])})
    with pytest.raises(ValueError, match="not unique on k"):
        hash_join(big, rd.from_arrow(dim), "k", "k").materialize()
    with pytest.raises(ValueError, match="not unique on k"):
        broadcast_join(big, dim, "k", "k")


def test_one_broadcast_gate():
    """Only riot_ray/pipelines/joins.py decides broadcast vs shuffle: no
    other pipeline module names the gate, builds a role-tagged union, or
    compares a row count times a per-row byte guess against a gate."""
    import glob
    import os
    import re

    gate = re.compile(
        r"BROADCAST_BYTES|[\"']__role[\"']"
        r"|\*\s*\d+\s*(<=|>=|<|>)\s*\w*(bytes|gate)"
        r"|(bytes|gate)\w*(\(\))?\s*(<=|>=|<|>)\s*[\w.\[\]()-]+\s*\*\s*\d+",
        re.I)
    pkg = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "riot_ray", "pipelines")
    bad = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        if os.path.basename(path) == "joins.py":
            continue
        with open(path, encoding="utf-8") as f:
            for n, line in enumerate(f, 1):
                if gate.search(line):
                    bad.append(f"{os.path.basename(path)}:{n}: {line.strip()}")
    assert not bad, "\n".join(bad)


def test_doc_key_tf_rows():
    from riot_ray.pipelines.analysis import _doc_key_tf

    ps, ks, tf, first = _doc_key_tf(np.array([1, 0, 1, 0, 1]),
                                    np.array([5, 7, 5, 3, 9]))
    assert ps.tolist() == [0, 0, 1, 1]
    assert ks.tolist() == [3, 7, 5, 9]
    assert tf.tolist() == [1, 1, 2, 1]
    assert first.tolist() == [3, 1, 0, 4]
    empty = _doc_key_tf(np.empty(0, np.int64), np.empty(0, np.int64))
    assert all(len(a) == 0 for a in empty)


def test_checkpointed_write_resume(ray_session, tmp_path):
    import glob
    import json
    import os
    import shutil

    import ray.data as rd

    from riot_ray.pipelines import checkpointed_write, read_checkpointed

    docs = rd.read_parquet(f"{SF}/documents.parquet").select_columns(
        ["doc_id", "source"])
    out = str(tmp_path / "ckpt")
    s1 = checkpointed_write(docs, out, fingerprint="fp1",
                            partition_col="doc_id", num_partitions=8)
    assert s1["parts_written"] == 8 and s1["parts_skipped"] == 0
    assert s1["n_rows"] == docs.count()
    back = read_checkpointed(out).to_pandas()
    assert sorted(back["doc_id"]) == sorted(docs.to_pandas()["doc_id"])

    # same fingerprint -> every part skipped, output identical
    s2 = checkpointed_write(docs, out, fingerprint="fp1",
                            partition_col="doc_id", num_partitions=8)
    assert s2["parts_written"] == 0 and s2["parts_skipped"] == 8

    # simulate a crash: delete one committed part, plant a stale tmp dir
    victim = sorted(glob.glob(os.path.join(out, "part=0000[0-9]")))[0]
    stale = victim + ".tmp-deadbeef"
    shutil.copytree(victim, stale)
    shutil.rmtree(victim)
    assert read_checkpointed(out).count() < docs.count()  # tmp not readable
    s3 = checkpointed_write(docs, out, fingerprint="fp1",
                            partition_col="doc_id", num_partitions=8)
    assert s3["parts_written"] == 1 and s3["parts_skipped"] == 7
    assert read_checkpointed(out).count() == docs.count()

    # changed fingerprint -> full rewrite
    s4 = checkpointed_write(docs, out, fingerprint="fp2",
                            partition_col="doc_id", num_partitions=8)
    assert s4["parts_written"] == 8
    committed = sorted(
        glob.glob(os.path.join(out, "part=" + "[0-9]" * 5, "manifest.json")))
    assert len(committed) == 8
    for mp in committed:
        assert json.load(open(mp))["fingerprint"] == "fp2"
    # the planted stale tmp dir was swept when its partition rewrote
    assert glob.glob(os.path.join(out, "*.tmp-deadbeef")) == []

    # same fingerprint, DIFFERENT partition count: everything rewrites
    # (row->part assignment changed) and old part dirs are swept — no
    # duplicate rows on read
    s5 = checkpointed_write(docs, out, fingerprint="fp2",
                            partition_col="doc_id", num_partitions=4)
    assert s5["parts_written"] == 4 and s5["parts_skipped"] == 0
    assert read_checkpointed(out).count() == docs.count()
    assert len(glob.glob(os.path.join(out, "part=" + "[0-9]" * 5))) == 4

    # shrinking back up also leaves exactly-once output
    s6 = checkpointed_write(docs, out, fingerprint="fp2",
                            partition_col="doc_id", num_partitions=16)
    assert s6["parts_written"] > 0 and s6["parts_skipped"] == 0
    assert read_checkpointed(out).count() == docs.count()


def test_ngram_jaccard_hot_shingle_filter(ray_session):
    """Shingles above max_group are removed from the UNIVERSE (sizes and
    pair counts together) so surfaced pairs keep exact jaccard over the
    filtered universe — not an understated intersection."""
    import ray.data as rd

    boiler = "common header line repeated in every file here "  # hot shingles
    # per-doc tails use doc-specific words so cross-doc shingles exist ONLY
    # via the boilerplate...
    texts = [boiler + f"tail{i} word{i} alpha{i} beta{i} gamma{i} end{i}" for i in range(8)]
    # ...except docs 6/7, which share a rare 9-word phrase differing in the
    # final word -> their true overlap survives the hot-shingle filter
    texts[6] = boiler + "rare penguin stanza flows deeply tonight over still water six"
    texts[7] = boiler + "rare penguin stanza flows deeply tonight over still water seven"
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(8), pa.int64()), "text": pa.array(texts)})
    )
    # cap of 4 kills the 8-doc boilerplate shingles entirely
    got = (
        __import__("riot_ray.pipelines.dedup", fromlist=["ngram_jaccard_pairs"])
        .ngram_jaccard_pairs(ds, n=3, threshold=0.5, max_group=4)
        .to_pandas()
    )
    pairs = {tuple(x) for x in got[["id_a", "id_b"]].to_numpy()}
    assert (6, 7) in pairs
    row = got[(got["id_a"] == 6) & (got["id_b"] == 7)].iloc[0]
    # over the filtered universe docs 6/7 share all but the number shingles
    assert row["jaccard"] > 0.5


def test_dedup_clusters_transitive_and_filter(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import dedup_clusters, dedup_filter

    # chain 1-2, 2-3 must collapse transitively; 10-11 is a separate cluster
    pairs = rd.from_arrow(
        pa.table(
            {
                "id_a": pa.array([1, 2, 10], pa.int64()),
                "id_b": pa.array([2, 3, 11], pa.int64()),
                "jaccard": pa.array([0.9, 0.8, 0.7], pa.float64()),
            }
        )
    )
    got = dedup_clusters(pairs).to_pandas().sort_values("doc_id")
    assert dict(zip(got["doc_id"], got["cluster_id"])) == {
        1: 1,
        2: 1,
        3: 1,
        10: 10,
        11: 10,
    }

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 5, 10, 11], pa.int64()),
                "text": pa.array(["a"] * 6, pa.string()),
            }
        )
    )
    kept = sorted(dedup_filter(docs, pairs).to_pandas()["doc_id"])
    # one representative (min id) per cluster + the singleton 5
    assert kept == [1, 5, 10]


def test_dedup_clusters_empty_pairs(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import dedup_clusters

    pairs = rd.from_arrow(
        pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
    )
    assert dedup_clusters(pairs).count() == 0


def test_dedup_clusters_matches_recursive_sql(docs_ds):
    """Clusters over exact ngram-jaccard pairs vs DuckDB WITH RECURSIVE
    min-label propagation on the same pair graph."""
    from riot_ray.pipelines import dedup_clusters, ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(docs_ds, n=3, threshold=0.2, max_group=1_000_000)
    got = (
        dedup_clusters(pairs)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = _duck(
        """
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
        FROM reach GROUP BY id ORDER BY doc_id
        """
    ).to_pandas()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["cluster_id"].tolist() == want["cluster_id"].tolist()


# ---------------------------------------------------------------------------- #
# round-2 scale paths
# ---------------------------------------------------------------------------- #
def test_dedup_clusters_distributed_matches_unionfind(ray_session):
    """Forcing the label-propagation path (pair_limit=0) must reproduce the
    driver union-find output exactly — chains (diameter > 1 round), separate
    components and star shapes."""
    import ray.data as rd

    from riot_ray.pipelines import dedup_clusters

    # a 7-chain, a star, a separate 2-cluster
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
             (20, 21), (20, 22), (20, 23), (40, 41)]
    pairs = rd.from_arrow(
        pa.table(
            {
                "id_a": pa.array([a for a, _ in edges], pa.int64()),
                "id_b": pa.array([b for _, b in edges], pa.int64()),
            }
        )
    )
    small = dedup_clusters(pairs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    dist = (
        dedup_clusters(pairs, pair_limit=0, join_partitions=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert small.equals(dist)
    assert set(dist[dist["doc_id"] <= 7]["cluster_id"]) == {1}
    assert set(dist[(dist["doc_id"] >= 20) & (dist["doc_id"] <= 23)]["cluster_id"]) == {20}


def test_embedding_dup_exact_multiblock(ray_session):
    """Block-pair tiles must find pairs WITHIN a block and ACROSS blocks."""
    import ray.data as rd

    from riot_ray.pipelines import embedding_dup_pairs

    rng = np.random.default_rng(5)
    base = rng.standard_normal((8, 16))
    # 16 vectors: i and i+8 are near-identical -> 8 cross/within pairs
    vecs = np.concatenate([base, base + rng.standard_normal((8, 16)) * 0.01])
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(16), pa.int64()),
                "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
            }
        )
    ).repartition(4)  # force several blocks -> cross-block tiles exercised
    got = embedding_dup_pairs(ds, threshold=0.99).to_pandas()
    pairs = {tuple(x) for x in got[["id_a", "id_b"]].to_numpy()}
    assert pairs == {(i, i + 8) for i in range(8)}


def test_embedding_dup_lsh_recall_vs_exact(ray_session, emb_ds):
    """The LSH-bucketed approximate operator must surface >=90% of the exact
    pairs at this scale, with exact cosine values on everything it emits."""
    from riot_ray.pipelines import embedding_dup_pairs, embedding_dup_pairs_lsh

    # threshold 0.4 is a WIDE angle (~66 deg): per-plane collision prob is
    # only ~0.63, so the wide-net configuration is few planes x many tables
    # (the 0.95-near-dup default regime uses more planes).  Expected recall
    # for a pair exactly AT 0.4: 1 - (1 - 0.63^4)^24 ~ 0.98.
    exact = embedding_dup_pairs(emb_ds, threshold=0.4).to_pandas()
    approx = embedding_dup_pairs_lsh(
        emb_ds, threshold=0.4, n_planes=4, n_tables=24, seed=1
    ).to_pandas()
    exact_pairs = {tuple(x) for x in exact[["id_a", "id_b"]].to_numpy()}
    approx_pairs = {tuple(x) for x in approx[["id_a", "id_b"]].to_numpy()}
    assert approx_pairs <= exact_pairs  # verify step is exact: no false hits
    assert len(exact_pairs) > 0
    recall = len(approx_pairs & exact_pairs) / len(exact_pairs)
    assert recall >= 0.9, f"recall {recall:.2f}"
    # emitted cosines equal the exact operator's for the same pairs
    merged = approx.merge(exact, on=["id_a", "id_b"], suffixes=("_l", "_e"))
    assert np.allclose(merged["cosine_l"], merged["cosine_e"], atol=1e-9)


def test_embedding_dup_lsh_near_dup_regime(ray_session):
    """At the operator's design point (cos >= 0.95 near-dups) the default
    plane/table config recalls everything on a planted-dup corpus."""
    import ray.data as rd

    from riot_ray.pipelines import embedding_dup_pairs_lsh

    rng = np.random.default_rng(11)
    base = rng.standard_normal((32, 24))
    vecs = np.concatenate([base, base + rng.standard_normal((32, 24)) * 0.005])
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(64), pa.int64()),
                "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
            }
        )
    ).repartition(3)
    got = embedding_dup_pairs_lsh(ds, threshold=0.95).to_pandas()
    pairs = {tuple(x) for x in got[["id_a", "id_b"]].to_numpy()}
    assert {(i, i + 32) for i in range(32)} <= pairs
    assert (got["cosine"] >= 0.95).all()


def _planted_vecs():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((16, 12))
    vecs = np.concatenate([base, base + rng.standard_normal((16, 12)) * 0.005])
    return pa.table({"vec_id": pa.array(range(32), pa.int64()),
                     "embedding": pa.array(list(vecs), pa.list_(pa.float64()))})


_PAIR_VERIFIERS = {
    "ngram_jaccard_pairs": lambda p, ds, vs: p.ngram_jaccard_pairs(
        ds, threshold=0.3, plan="exact"),
    "minhash_lsh_pairs": lambda p, ds, vs: p.minhash_lsh_pairs(
        ds, threshold=0.3),
    "minhash_lsh_exact_pairs": lambda p, ds, vs: p.minhash_lsh_exact_pairs(
        ds, threshold=0.3),
    "simhash_pairs": lambda p, ds, vs: p.simhash_pairs(ds, max_hamming=8),
    "embedding_dup_pairs_lsh": lambda p, ds, vs: p.embedding_dup_pairs_lsh(
        vs, threshold=0.95),
    "dup_spans_prefilter": lambda p, ds, vs: p.dup_spans(
        ds, min_len=20, prefilter=True),
}


@pytest.mark.parametrize("op", sorted(_PAIR_VERIFIERS))
def test_pair_verify_shuffle_equals_broadcast(ray_session, monkeypatch, op):
    """Every candidate-then-verify operator returns the same rows when its
    payload table is broadcast (default gate) and when the gate is 0 and
    it goes through the hash join instead (dup_spans' candidate prefilter
    skips itself over the gate)."""
    import ray
    import ray.data as rd

    import riot_ray.pipelines as p

    ds = rd.from_arrow(_dup_corpus()).repartition(2)
    vs = rd.from_arrow(_planted_vecs()).repartition(2)

    def run():
        refs = _PAIR_VERIFIERS[op](p, ds, vs).to_arrow_refs()
        t = pa.concat_tables([t for t in ray.get(refs) if t.num_rows])
        return t.sort_by([(c, "ascending") for c in t.column_names]).to_pydict()

    broadcast = run()
    assert len(next(iter(broadcast.values()))) > 0
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)  # force the hash-join path
    assert run() == broadcast


# ---------------------------------------------------------------------------- #
# event-time windows (events table)
# ---------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def events_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/events.parquet")


def _sorted(df, cols):
    return df.sort_values(cols).reset_index(drop=True)


def test_tumbling_window_matches_sql(events_ds):
    from riot_ray.pipelines import tumbling_window_agg

    got = _sorted(
        tumbling_window_agg(events_ds, width_s=3600).to_pandas(),
        ["window_start", "event_type"],
    )
    exp = _sorted(
        _duck(
            """
            SELECT epoch_us(ts) // 3600000000 * 3600 AS window_start,
                   event_type, count(*)::BIGINT AS n_events,
                   ROUND(sum(value), 6) AS sum_value,
                   ROUND(sum(value) / count(*), 6) AS mean_value
            FROM events GROUP BY 1, 2
            """
        ).to_pandas(),
        ["window_start", "event_type"],
    )
    assert len(got) == len(exp)
    for c in ["window_start", "n_events"]:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all()
    assert (got["event_type"] == exp["event_type"]).all()
    assert np.allclose(got["sum_value"], exp["sum_value"], atol=1e-9)
    assert np.allclose(got["mean_value"], exp["mean_value"], atol=1e-9)


def test_sliding_window_matches_sql(events_ds):
    from riot_ray.pipelines import sliding_window_agg

    got = _sorted(
        sliding_window_agg(events_ds, width_s=3600, slide_s=900).to_pandas(),
        ["window_start", "event_type"],
    )
    exp = _sorted(
        _duck(
            """
            SELECT epoch_us(e.ts) // 900000000 * 900 - g.i * 900 AS window_start,
                   e.event_type, count(*)::BIGINT AS n_events,
                   ROUND(sum(e.value), 6) AS sum_value,
                   ROUND(sum(e.value) / count(*), 6) AS mean_value
            FROM events e CROSS JOIN range(4) g(i)
            GROUP BY 1, 2
            """
        ).to_pandas(),
        ["window_start", "event_type"],
    )
    assert len(got) == len(exp)
    assert (got["window_start"].to_numpy() == exp["window_start"].to_numpy()).all()
    assert np.allclose(got["sum_value"], exp["sum_value"], atol=1e-9)
    # every event appears in exactly width/slide = 4 windows
    assert got["n_events"].sum() == 4 * events_ds.count()


def test_sessionize_matches_sql(events_ds):
    from riot_ray.pipelines import sessionize

    got = _sorted(
        sessionize(events_ds, gap_s=1800).to_pandas(), ["user_id", "session_id"]
    )
    exp = _sorted(
        _duck(
            """
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
        ).to_pandas(),
        ["user_id", "session_id"],
    )
    assert len(got) == len(exp)
    for c in ["user_id", "session_id", "start_us", "end_us", "n_events"]:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    assert np.allclose(got["sum_value"], exp["sum_value"], atol=1e-9)


def _hot_key_events(n=60_000, hot_frac=0.33, n_users=50, seed=11):
    """Synthetic event table with one bot user owning ``hot_frac`` of all
    events — the planted-skew shape for the chunked window paths.  Values
    are integer-valued floats so partial sums are float-exact."""
    rng = np.random.default_rng(seed)
    n_hot = int(n * hot_frac)
    users = np.r_[np.full(n_hot, 7, np.int64),
                  rng.integers(100, 100 + n_users, n - n_hot)]
    ts_us = np.sort(rng.integers(0, 14 * 86_400, n)) * 1_000_000
    # bot events cluster densely; shuffle assignment so the hot user spans
    # the whole range
    perm = rng.permutation(n)
    users = users[perm]
    types = np.where(rng.random(n) < 0.3, "purchase", "click")
    return pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(ts_us, pa.timestamp("us")),
        "event_type": pa.array(types),
        "value": pa.array(rng.integers(0, 100, n).astype(np.float64)),
    })


def test_sessionize_chunked_equals_unchunked_hot_key(ray_session):
    """chunk_s bounds the raw-event group per (user, time-chunk); the
    boundary stitch must reproduce the unchunked sessions exactly on a
    planted hot key (one bot user = 33% of events, sessions spanning many
    chunk boundaries)."""
    import ray.data as rd

    from riot_ray.pipelines import sessionize

    t = _hot_key_events()
    ds = rd.from_arrow(t).repartition(16)
    base = _sorted(sessionize(ds, gap_s=600).to_pandas(),
                   ["user_id", "session_id"])
    # chunk width of 1h: a 14-day dense bot timeline crosses ~336 chunks
    chunked = _sorted(sessionize(ds, gap_s=600, chunk_s=3600).to_pandas(),
                      ["user_id", "session_id"])
    assert len(base) == len(chunked)
    for c in ["user_id", "session_id", "start_us", "end_us", "n_events"]:
        assert (base[c].to_numpy() == chunked[c].to_numpy()).all(), c
    assert np.allclose(base["sum_value"], chunked["sum_value"], atol=0)
    # the hot user's sessions genuinely span chunk boundaries
    hot = base[base["user_id"] == 7]
    assert ((hot["end_us"] // (3600 * 1_000_000))
            != (hot["start_us"] // (3600 * 1_000_000))).any()


def test_asof_chunked_equals_unchunked_hot_key(ray_session):
    """Chunked as-of attribution: in-chunk resolution + carry-in join must
    equal the single-group path, including targets whose source lives many
    chunks back and targets with no source at all."""
    import ray.data as rd

    from riot_ray.pipelines import asof_attribution

    t = _hot_key_events(seed=13)
    ds = rd.from_arrow(t).repartition(16)
    base = _sorted(asof_attribution(ds).to_pandas(), ["event_id"])
    chunked = _sorted(asof_attribution(ds, chunk_s=3600).to_pandas(),
                      ["event_id"])
    assert len(base) == len(chunked)
    for c in ["event_id", "user_id"]:
        assert (base[c].to_numpy() == chunked[c].to_numpy()).all(), c
    for c in ["src_event_id", "lag_us"]:
        bn, cn = base[c].isna().to_numpy(), chunked[c].isna().to_numpy()
        assert (bn == cn).all(), c
        assert (base[c].dropna().to_numpy()
                == chunked[c].dropna().to_numpy()).all(), c
    # skew is real and boundaries are crossed: some carry-ins must resolve
    assert base["src_event_id"].notna().sum() > 0
    assert base["src_event_id"].isna().sum() >= 0


def test_top_keys_per_window_matches_sql(events_ds):
    from riot_ray.pipelines import top_keys_per_window

    got = _sorted(
        top_keys_per_window(events_ds, width_s=3600, k=3).to_pandas(),
        ["window_start", "rank"],
    )
    exp = _sorted(
        _duck(
            """
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
        ).to_pandas(),
        ["window_start", "rank"],
    )
    assert len(got) == len(exp)
    assert (got["event_type"] == exp["event_type"]).all()
    assert (got["rank"].to_numpy() == exp["rank"].to_numpy()).all()
    assert np.allclose(got["sum_value"], exp["sum_value"], atol=1e-9)


def test_extract_json_int_matches_sql(events_ds):
    from riot_ray.pipelines import extract_json_int

    got = _sorted(
        extract_json_int(events_ds, "props", "k", "k").to_pandas(), ["event_id"]
    )
    exp = _sorted(
        _duck(
            r"""
            SELECT event_id,
                   CAST(regexp_extract(props, '"k"\s*:\s*(-?\d+)', 1) AS BIGINT) AS k
            FROM events
            """
        ).to_pandas(),
        ["event_id"],
    )
    assert len(got) == len(exp)
    assert (got["k"].to_numpy() == exp["k"].to_numpy()).all()
    # malformed / missing fields -> null
    import ray.data as rd

    toy = rd.from_arrow(pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "props": pa.array(['{"k": -7}', '{"other": 1}', "not json"]),
    }))
    t = _sorted(extract_json_int(toy, "props", "k", "k").to_pandas(), ["event_id"])
    assert t["k"].iloc[0] == -7
    assert t["k"].isna().iloc[1] and t["k"].isna().iloc[2]


def test_asof_attribution_matches_sql(events_ds):
    from riot_ray.pipelines import asof_attribution

    got = _sorted(asof_attribution(events_ds).to_pandas(), ["event_id"])
    exp = _sorted(
        _duck(
            """
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
        ).to_pandas(),
        ["event_id"],
    )
    assert len(got) == len(exp)
    for c in ["event_id", "user_id"]:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all()
    gn, en = got["src_event_id"].isna(), exp["src_event_id"].isna()
    assert (gn == en).all()
    assert (got.loc[~gn, "src_event_id"].to_numpy()
            == exp.loc[~en, "src_event_id"].to_numpy()).all()
    assert (got.loc[~gn, "lag_us"].to_numpy()
            == exp.loc[~en, "lag_us"].to_numpy()).all()


# ---------------------------------------------------------------------------- #
# PII scrub + text normalization (scrub.py)
# ---------------------------------------------------------------------------- #
def test_pii_scrub_planted(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import pii_scrub

    rows = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "mail a.b+tag@ex-host.org and c@1.2.3.4 ip 10.0.255.7 "
                    "tel +123456789012 end",
                    "no pii here",
                    # 999.* still matches the \d{1,3} pattern (documented);
                    # 10.1.2.34567 must NOT match (\b fails after 3 digits)
                    "edge 999.999.999.999 and user@ex.co, +12 short, "
                    "10.1.2.34567 run",
                    "two ips 1.2.3.4 5.6.7.8 and two mails x@y.de z@w.fr",
                ]
            ),
        }
    )
    got = (
        pii_scrub(rd.from_arrow(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["n_emails"].tolist() == [1, 0, 1, 2]
    assert got["n_ipv4"].tolist() == [2, 0, 1, 2]
    assert got["n_phones"].tolist() == [1, 0, 0, 0]
    assert got["text_clean"][0] == (
        "mail <EMAIL> and c@<IP> ip <IP> tel <PHONE> end"
    )
    assert got["text_clean"][2] == (
        "edge <IP> and <EMAIL>, +12 short, 10.1.2.34567 run"
    )
    assert "text" not in got.columns


def test_pii_scrub_matches_duckdb_on_corpus(docs_ds):
    """RE2 parity end-to-end: same patterns, same counts, same redaction on
    the sf corpus enriched with planted doc_id-derived PII."""
    import pyarrow.compute as pc

    from riot_ray.pipelines import pii_scrub
    from riot_ray.pipelines.scrub import EMAIL_RE, IPV4_RE, PHONE_RE

    def enrich(b):
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        txt = pc.binary_join_element_wise(
            b["text"], " u", pa.array(ids.astype("U")), "@x.io +",
            pa.array((900000000 + ids).astype("U")), " 10.0.0.",
            pa.array((ids % 256).astype("U")), "",
        )
        return pa.table({"doc_id": b["doc_id"], "text": txt})

    got = (
        pii_scrub(
            docs_ds.select_columns(["doc_id", "text"]).map_batches(
                enrich, batch_format="pyarrow"
            )
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = _duck(
        f"""
        WITH enr AS (
          SELECT doc_id, text || ' u' || doc_id || '@x.io +' ||
                 (900000000 + doc_id) || ' 10.0.0.' || (doc_id % 256) AS t
          FROM documents)
        SELECT doc_id,
               len(regexp_extract_all(t, '{EMAIL_RE}'))::BIGINT AS n_emails,
               len(regexp_extract_all(t, '{IPV4_RE}'))::BIGINT AS n_ipv4,
               len(regexp_extract_all(t, '{PHONE_RE}'))::BIGINT AS n_phones,
               regexp_replace(regexp_replace(regexp_replace(t,
                 '{EMAIL_RE}', '<EMAIL>', 'g'),
                 '{IPV4_RE}', '<IP>', 'g'),
                 '{PHONE_RE}', '<PHONE>', 'g') AS text_clean
        FROM enr ORDER BY doc_id
        """
    ).to_pandas()
    assert (got["n_emails"].to_numpy() == exp["n_emails"].to_numpy()).all()
    assert (got["n_ipv4"].to_numpy() == exp["n_ipv4"].to_numpy()).all()
    assert (got["n_phones"].to_numpy() == exp["n_phones"].to_numpy()).all()
    assert (got["text_clean"] == exp["text_clean"]).all()
    assert int(got["n_emails"].sum()) == len(got)  # every doc got one


def test_normalize_text_nfc_and_whitespace(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import normalize_text

    rows = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "  a\t\tb \n c  ",
                    "cafe\u0301 and \u212b unit",  # NFD e+combining acute, angstrom sign
                    "already clean",
                ]
            ),
        }
    )
    got = (
        normalize_text(rd.from_arrow(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["text_norm"][0] == "a b c"
    assert got["text_norm"][1] == "caf\u00e9 and \u00c5 unit"
    assert got["text_norm"][2] == "already clean"


def test_normalize_text_matches_duckdb(docs_ds):
    from riot_ray.pipelines import normalize_text

    got = (
        normalize_text(docs_ds.select_columns(["doc_id", "text"]))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = _duck(
        r"""
        SELECT doc_id,
               trim(regexp_replace(nfc_normalize(text), '\s+', ' ', 'g'))
                 AS text_norm
        FROM documents ORDER BY doc_id
        """
    ).to_pandas()
    assert (got["text_norm"] == exp["text_norm"]).all()


# ---------------------------------------------------------------------------- #
# corpus-wide duplicate-line removal (C4-style span dedup)
# ---------------------------------------------------------------------------- #
def test_line_dedup_keeps_first_occurrence(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import line_dedup

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "alpha\nshared line\nunique a",
                    # within-doc repeat: only idx 0 survives
                    "shared line\nbeta\nshared line",
                    "unique c\nshared line",
                ]
            ),
        }
    )
    got = (
        line_dedup(rd.from_arrow(t))
        .to_pandas()
        .sort_values(["doc_id", "line_idx"])
        .reset_index(drop=True)
    )
    assert list(map(tuple, got.to_records(index=False))) == [
        (0, 0, "alpha"),
        (0, 1, "shared line"),
        (0, 2, "unique a"),
        (1, 1, "beta"),
        (2, 0, "unique c"),
    ]


def test_line_dedup_matches_sql(docs_ds):
    import pyarrow.compute as pc

    from riot_ray.pipelines import line_dedup

    def enrich(b):
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        txt = pc.replace_substring_regex(b["text"], r"((\S+ ){7}\S+) ", "\\1\n")
        txt = pc.binary_join_element_wise(
            txt, "\nfooter v", pa.array((ids % 2).astype("U")), ""
        )
        return pa.table({"doc_id": b["doc_id"], "text": txt})

    got = (
        line_dedup(
            docs_ds.select_columns(["doc_id", "text"]).map_batches(
                enrich, batch_format="pyarrow"
            )
        )
        .to_pandas()
        .sort_values(["doc_id", "line_idx"])
        .reset_index(drop=True)
    )
    exp = _duck(
        r"""
        WITH enr AS (
          SELECT doc_id,
                 regexp_replace(text, '((\S+ ){7}\S+) ', '\1' || chr(10), 'g')
                 || chr(10) || 'footer v' || (doc_id % 2) AS t
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
        ORDER BY doc_id, line_idx
        """
    ).to_pandas()
    assert len(got) == len(exp)
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    assert (got["line_idx"].to_numpy() == exp["line_idx"].to_numpy()).all()
    assert (got["line"] == exp["line"]).all()
    # the 2 footer variants collapsed to 2 surviving lines
    n_footers = int(got["line"].str.startswith("footer v").sum())
    assert n_footers == 2


def test_line_dedup_clean_rebuilds_docs(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import line_dedup_clean

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "alpha\nshared line\nunique a",
                    "shared line\nbeta\nshared line",
                    "unique c\nshared line",
                    "shared line",  # every line a dup -> doc drops out
                ]
            ),
        }
    )
    got = (
        line_dedup_clean(rd.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(map(tuple, got.to_records(index=False))) == [
        (0, "alpha\nshared line\nunique a"),
        (1, "beta"),
        (2, "unique c"),
    ]


def test_line_dedup_clean_matches_sql(docs_ds):
    import pyarrow.compute as pc

    from riot_ray.pipelines import line_dedup_clean

    def enrich(b):
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        txt = pc.replace_substring_regex(b["text"], r"((\S+ ){7}\S+) ", "\\1\n")
        txt = pc.binary_join_element_wise(
            txt, "\nfooter v", pa.array((ids % 2).astype("U")), ""
        )
        return pa.table({"doc_id": b["doc_id"], "text": txt})

    got = (
        line_dedup_clean(
            docs_ds.select_columns(["doc_id", "text"]).map_batches(
                enrich, batch_format="pyarrow"
            )
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = _duck(
        r"""
        WITH enr AS (
          SELECT doc_id,
                 regexp_replace(text, '((\S+ ){7}\S+) ', '\1' || chr(10), 'g')
                 || chr(10) || 'footer v' || (doc_id % 2) AS t
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
        ORDER BY doc_id
        """
    ).to_pandas()
    assert len(got) == len(exp)
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    assert (got["text_clean"] == exp["text_clean"]).all()


# ---------------------------------------------------------------------------- #
# unigram LM scoring (CCNet-style)
# ---------------------------------------------------------------------------- #
_UNIGRAM_SQL = """
    WITH toks AS (
      SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                 x -> x <> '') AS t
      FROM documents),
    occ AS (SELECT doc_id, unnest(t) AS tok FROM toks),
    cnt AS (SELECT tok, count(*) AS c FROM occ GROUP BY tok),
    tot AS (SELECT count(*) AS n FROM occ),
    m AS (
      SELECT tok, CAST(FLOOR(ln(c / (SELECT n FROM tot)::DOUBLE) * 1000000
                             + 0.5) AS BIGINT) AS micro
      FROM cnt)
    SELECT o.doc_id, count(*)::BIGINT AS n_tokens,
           sum(m.micro)::BIGINT AS logprob_micro,
           sum(m.micro)::DOUBLE / 1000000.0 / count(*) AS logprob_mean
    FROM occ o JOIN m ON o.tok = m.tok
    GROUP BY o.doc_id ORDER BY o.doc_id
"""


def test_unigram_logprob_matches_sql(docs_ds):
    from riot_ray.pipelines import unigram_logprob

    got = (
        unigram_logprob(docs_ds.select_columns(["doc_id", "text"]))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = _duck(_UNIGRAM_SQL).to_pandas()
    assert len(got) == len(exp)
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    assert (got["n_tokens"].to_numpy() == exp["n_tokens"].to_numpy()).all()
    assert (got["logprob_micro"].to_numpy() == exp["logprob_micro"].to_numpy()).all()
    assert np.allclose(got["logprob_mean"], exp["logprob_mean"], atol=1e-9)
    # common tokens score higher than rare ones -> means are negative, finite
    assert (got["logprob_mean"] < 0).all()


_EMPTY_DOC_ID = 10**9


def _with_empty_doc(docs_ds):
    """(doc_id, text) of the corpus plus one empty-text doc, which every
    per-doc scorer drops (the SQL occurrence join has no row for it)."""
    import ray.data as rd

    return docs_ds.select_columns(["doc_id", "text"]).union(rd.from_arrow(
        pa.table({"doc_id": pa.array([_EMPTY_DOC_ID], pa.int64()),
                  "text": pa.array([""], pa.string())})))


def test_unigram_logprob_join_path_matches_broadcast(docs_ds, monkeypatch):
    from riot_ray.pipelines import unigram_logprob

    ds = _with_empty_doc(docs_ds)
    base = (
        unigram_logprob(ds)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)  # force the hash-join path
    joined = (
        unigram_logprob(ds)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert _EMPTY_DOC_ID not in set(base["doc_id"]) | set(joined["doc_id"])
    assert (base["doc_id"].to_numpy() == joined["doc_id"].to_numpy()).all()
    assert (base["logprob_micro"].to_numpy()
            == joined["logprob_micro"].to_numpy()).all()
    assert (base["n_tokens"].to_numpy() == joined["n_tokens"].to_numpy()).all()


# ---------------------------------------------------------------------------- #
# TF-IDF keyword extraction + distributed grep
# ---------------------------------------------------------------------------- #
_TFIDF_SQL = """
    WITH toks AS (
      SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                 x -> x <> '') AS t
      FROM documents),
    occ AS (SELECT doc_id, unnest(t) AS tok FROM toks),
    tf AS (SELECT doc_id, tok, count(*)::BIGINT AS tf FROM occ GROUP BY 1, 2),
    df AS (SELECT tok, count(*)::BIGINT AS df FROM tf GROUP BY tok),
    n AS (SELECT count(*)::DOUBLE AS nd FROM documents),
    scored AS (
      SELECT tf.doc_id, tf.tok, tf.tf,
             tf.tf * CAST(FLOOR(ln((SELECT nd FROM n) / df.df) * 1000000 + 0.5)
                          AS BIGINT) AS s
      FROM tf JOIN df ON tf.tok = df.tok),
    ranked AS (
      SELECT doc_id, tok, tf, s,
             row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, tok) AS rn
      FROM scored)
    SELECT doc_id, tok AS term, tf, s AS tfidf_micro, rn::BIGINT AS "rank"
    FROM ranked WHERE rn <= 3 ORDER BY doc_id, rn
"""


def _tfidf_frame(docs_ds):
    from riot_ray.pipelines import tfidf_topk

    return (
        tfidf_topk(docs_ds.select_columns(["doc_id", "text"]), k=3)
        .to_pandas()
        .sort_values(["doc_id", "rank"])
        .reset_index(drop=True)
    )


def test_tfidf_topk_matches_sql(docs_ds):
    got = _tfidf_frame(docs_ds)
    exp = _duck(_TFIDF_SQL).to_pandas()
    assert len(got) == len(exp)
    for c in ("doc_id", "tf", "tfidf_micro", "rank"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    assert (got["term"] == exp["term"]).all()


def test_tfidf_topk_join_path_matches_broadcast(docs_ds, monkeypatch):

    ds = _with_empty_doc(docs_ds)
    base = _tfidf_frame(ds)
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)  # force the hash-join path
    joined = _tfidf_frame(ds)
    assert _EMPTY_DOC_ID not in set(base["doc_id"]) | set(joined["doc_id"])
    assert len(base) == len(joined)
    for c in ("doc_id", "tf", "tfidf_micro", "rank"):
        assert (base[c].to_numpy() == joined[c].to_numpy()).all(), c
    assert (base["term"] == joined["term"]).all()


def test_grep_search_matches_sql(docs_ds):
    from riot_ray.pipelines import grep_search

    pat = r"(fast|slow) (scan|merge)"
    got = (
        grep_search(docs_ds.select_columns(["doc_id", "text"]), pat)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = _duck(f"""
        SELECT doc_id::BIGINT AS doc_id,
               length(regexp_extract_all(text, '{pat}'))::BIGINT AS n_matches
        FROM documents WHERE regexp_matches(text, '{pat}') ORDER BY 1
    """).to_pandas()
    assert len(got) == len(exp) > 0
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    assert (got["n_matches"].to_numpy() == exp["n_matches"].to_numpy()).all()


# ---------------------------------------------------------------------------- #
# token-window chunking
# ---------------------------------------------------------------------------- #
def _chunk_sql(w, s):
    return f"""
    WITH toks AS (
      SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                 x -> x <> '') AS t
      FROM documents),
    nt AS (SELECT doc_id, t, len(t)::BIGINT AS n FROM toks WHERE len(t) > 0),
    idx AS (
      SELECT doc_id, t, n,
             unnest(range(0, CAST(ceil(n / {s}.0) AS BIGINT))) AS chunk_idx
      FROM nt)
    SELECT doc_id, chunk_idx::BIGINT AS chunk_idx,
           LEAST({w}, n - chunk_idx * {s})::BIGINT AS n_tokens,
           array_to_string(list_slice(t, chunk_idx * {s} + 1,
                                      LEAST(n, chunk_idx * {s} + {w})), ' ')
               AS chunk_text
    FROM idx ORDER BY doc_id, chunk_idx
    """


@pytest.mark.parametrize("w,s", [(64, 64), (32, 16)])
def test_chunk_docs_matches_sql(docs_ds, w, s):
    from riot_ray.pipelines import chunk_docs

    got = (
        chunk_docs(docs_ds.select_columns(["doc_id", "text"]),
                   chunk_tokens=w, stride=s)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    exp = _duck(_chunk_sql(w, s)).to_pandas()
    assert len(got) == len(exp) > 0
    for c in ("doc_id", "chunk_idx", "n_tokens"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    assert (got["chunk_text"] == exp["chunk_text"]).all()
    # overlap sanity: stride<w repeats tokens across consecutive chunks
    if s < w:
        assert (got.groupby("doc_id")["n_tokens"].sum().to_numpy()
                >= exp.groupby("doc_id")["n_tokens"].sum().to_numpy()).all()


# ---------------------------------------------------------------------------- #
# bigram LM scoring
# ---------------------------------------------------------------------------- #
_BIGRAM_SQL = """
    WITH toks AS (
      SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                 x -> x <> '') AS t
      FROM documents),
    nt AS (SELECT doc_id, t, len(t)::BIGINT AS n FROM toks WHERE len(t) >= 2),
    occ2 AS (
      SELECT doc_id, t[i] AS w1, t[i+1] AS w2
      FROM nt, unnest(range(1, n)) AS r(i)),
    c2 AS (SELECT w1, w2, count(*)::BIGINT AS c12 FROM occ2 GROUP BY 1, 2),
    c1 AS (SELECT w1, count(*)::BIGINT AS c1 FROM occ2 GROUP BY 1),
    m AS (
      SELECT c2.w1, c2.w2,
             CAST(FLOOR(ln(c2.c12 / c1.c1::DOUBLE) * 1000000 + 0.5) AS BIGINT)
                 AS micro
      FROM c2 JOIN c1 ON c2.w1 = c1.w1)
    SELECT o.doc_id, count(*)::BIGINT AS n_bigrams,
           sum(m.micro)::BIGINT AS logprob_micro,
           sum(m.micro)::DOUBLE / 1000000.0 / count(*) AS logprob_mean
    FROM occ2 o JOIN m ON o.w1 = m.w1 AND o.w2 = m.w2
    GROUP BY o.doc_id ORDER BY o.doc_id
"""


def _bigram_frame(docs_ds):
    from riot_ray.pipelines import bigram_logprob

    return (
        bigram_logprob(docs_ds.select_columns(["doc_id", "text"]))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def test_bigram_logprob_matches_sql(docs_ds):
    got = _bigram_frame(docs_ds)
    exp = _duck(_BIGRAM_SQL).to_pandas()
    assert len(got) == len(exp) > 0
    for c in ("doc_id", "n_bigrams", "logprob_micro"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    assert np.allclose(got["logprob_mean"], exp["logprob_mean"], atol=1e-9)
    # conditional probabilities: every score <= 0; repeated-bigram docs
    # score higher (closer to 0) than the corpus alone would predict
    assert (got["logprob_mean"] <= 0).all()


def test_bigram_logprob_join_path_matches_broadcast(docs_ds, monkeypatch):

    ds = _with_empty_doc(docs_ds)
    base = _bigram_frame(ds)
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)  # force the hash-join path
    joined = _bigram_frame(ds)
    assert _EMPTY_DOC_ID not in set(base["doc_id"]) | set(joined["doc_id"])
    assert len(base) == len(joined)
    for c in ("doc_id", "n_bigrams", "logprob_micro"):
        assert (base[c].to_numpy() == joined[c].to_numpy()).all(), c


# ---------------------------------------------------------------------------- #
# greedy token-budget sequence packing
# ---------------------------------------------------------------------------- #
def _pack_sql(budget, nb):
    return f"""
    WITH RECURSIVE toks AS (
      SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                 x -> x <> '') AS t
      FROM documents),
    nt AS (SELECT doc_id, len(t)::BIGINT AS n_tokens,
                  (doc_id % {nb})::BIGINT AS bucket FROM toks),
    ord AS (SELECT *, row_number() OVER (PARTITION BY bucket ORDER BY doc_id)
                      AS rn FROM nt),
    pack AS (
      SELECT bucket, rn, doc_id, n_tokens, 0::BIGINT AS bin,
             0::BIGINT AS seq_pos, n_tokens AS filled
      FROM ord WHERE rn = 1
      UNION ALL
      SELECT o.bucket, o.rn, o.doc_id, o.n_tokens,
             CASE WHEN p.filled + o.n_tokens > {budget} AND p.filled > 0
                  THEN p.bin + 1 ELSE p.bin END,
             CASE WHEN p.filled + o.n_tokens > {budget} AND p.filled > 0
                  THEN 0 ELSE p.seq_pos + 1 END,
             CASE WHEN p.filled + o.n_tokens > {budget} AND p.filled > 0
                  THEN o.n_tokens ELSE p.filled + o.n_tokens END
      FROM ord o JOIN pack p ON o.bucket = p.bucket AND o.rn = p.rn + 1)
    SELECT doc_id, n_tokens, bucket,
           bucket * (1::BIGINT << 40) + bin AS seq_id, seq_pos
    FROM pack ORDER BY doc_id
    """


@pytest.mark.parametrize("budget", [2048, 100])
def test_pack_sequences_matches_sql(docs_ds, budget):
    from riot_ray.pipelines import pack_sequences

    got = (
        pack_sequences(docs_ds.select_columns(["doc_id", "text"]),
                       budget_tokens=budget, n_buckets=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = _duck(_pack_sql(budget, 8)).to_pandas()
    assert len(got) == len(exp) > 0
    for c in ("doc_id", "n_tokens", "bucket", "seq_id", "seq_pos"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    # every sequence respects the budget unless it is a single oversized doc
    g = got.groupby("seq_id").agg(total=("n_tokens", "sum"),
                                  n=("n_tokens", "size"))
    bad = g[(g["total"] > budget) & (g["n"] > 1)]
    assert len(bad) == 0


# ---------------------------------------------------------------------------- #
# embedding PCA (streaming sufficient statistics vs numpy on the full matrix)
# ---------------------------------------------------------------------------- #
def test_embedding_pca_matches_numpy(emb_ds):
    import pyarrow.parquet as pq
    from riot_ray.pipelines import embedding_pca_fit, embedding_pca_transform

    comps, vals, mean = embedding_pca_fit(emb_ds, k=8)

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    X = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    mu = X.mean(axis=0)
    cov = (X - mu).T @ (X - mu) / (len(X) - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:8]
    ref = evecs[:, order].T
    flip = ref[np.arange(8), np.abs(ref).argmax(axis=1)] < 0
    ref[flip] *= -1.0

    assert np.allclose(mean, mu, atol=1e-9)
    assert np.allclose(vals, evals[order], atol=1e-7)
    assert (np.diff(vals) <= 1e-12).all()  # descending variance
    assert np.allclose(comps, ref, atol=1e-6)

    out = (
        embedding_pca_transform(emb_ds, comps, mean)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    P = np.stack(out["proj"].to_numpy())
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    ref_p = (X[np.argsort(ids)] - mu) @ ref.T
    assert P.shape == (len(X), 8)
    assert np.allclose(P, ref_p, atol=1e-4)  # float32 projection
    # top component carries the most variance in the projected data too
    pv = P.var(axis=0)
    assert (np.diff(pv) <= 1e-6).all()


# ---------------------------------------------------------------------------- #
# perplexity bucketing (LM score -> exact-quantile quality bands)
# ---------------------------------------------------------------------------- #
_PPL_BUCKET_SQL = """
    WITH toks AS (
      SELECT doc_id, list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                 x -> x <> '') AS t
      FROM documents),
    occ AS (SELECT doc_id, unnest(t) AS tok FROM toks),
    cnt AS (SELECT tok, count(*) AS c FROM occ GROUP BY tok),
    tot AS (SELECT count(*) AS n FROM occ),
    m AS (SELECT tok, CAST(FLOOR(ln(c / (SELECT n FROM tot)::DOUBLE) * 1000000
                                 + 0.5) AS BIGINT) AS micro FROM cnt),
    sc AS (SELECT o.doc_id, count(*)::BIGINT AS n_tokens,
                  sum(m.micro)::BIGINT AS micro
           FROM occ o JOIN m ON o.tok = m.tok GROUP BY o.doc_id),
    k AS (SELECT doc_id, n_tokens,
                 CAST(FLOOR(micro * 1000.0 / n_tokens) AS BIGINT) AS ppl_key
          FROM sc),
    th AS (SELECT unnest(quantile_disc(ppl_key,
                         [x / 10.0 for x in range(1, 10)])) AS v FROM k)
    SELECT doc_id, n_tokens, ppl_key,
           (SELECT count(*) FROM th WHERE th.v < k.ppl_key)::BIGINT AS bucket
    FROM k ORDER BY doc_id
"""


def test_perplexity_buckets_matches_sql(docs_ds):
    from riot_ray.pipelines import perplexity_buckets

    got = (
        perplexity_buckets(docs_ds.select_columns(["doc_id", "text"]),
                           n_buckets=10)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = _duck(_PPL_BUCKET_SQL).to_pandas()
    assert len(got) == len(exp) > 0
    for c in ("doc_id", "n_tokens", "ppl_key", "bucket"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    # near-equal bands: every bucket within +/-1.5% of n/10... the exact
    # guarantee is |size - n/10| bounded by ties; just require all 10 exist
    assert sorted(got["bucket"].unique()) == list(range(10))


def test_knn_over_pca_projection_recall(emb_ds):
    """Composition: PCA-project, then brute kNN in the projected space.
    The synthetic embeddings are near-isotropic (flat eigen-spectrum:
    top-16 dims keep only 38 % of variance, top-32 keep 65 %), so absolute
    recall is bounded by the data, not the code — the test pins that
    recall tracks kept variance: more components -> strictly better
    neighborhoods, and the 32-dim recall clears the isotropic floor."""
    import pyarrow.parquet as pq

    from riot_ray.pipelines import (
        embedding_pca_fit,
        embedding_pca_transform,
        knn_brute,
    )

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(ids)[:8]
    Q = np.stack(t["embedding"].to_numpy(zero_copy_only=False))[order]
    qids = ids[order]
    raw = knn_brute(emb_ds, Q, qids, k=10).to_pandas()

    def recall_at(kdim: int) -> float:
        comps, _vals, mean = embedding_pca_fit(emb_ds, k=kdim)
        proj = embedding_pca_transform(emb_ds, comps, mean)
        proj_ds = proj.map_batches(
            lambda b: b.rename_columns(["vec_id", "embedding"]),
            batch_format="pyarrow",
        )
        Qp = ((Q - mean) @ comps.T).astype(np.float32)
        low = knn_brute(proj_ds, Qp, qids, k=10).to_pandas()
        rs = []
        for q in qids:
            a = set(raw.loc[raw["query_id"] == q, "vec_id"])
            b = set(low.loc[low["query_id"] == q, "vec_id"])
            rs.append(len(a & b) / len(a))
        return float(np.mean(rs))

    r8, r32 = recall_at(8), recall_at(32)
    assert r32 > r8  # more kept variance -> better neighborhoods
    assert r32 >= 0.4, (r8, r32)  # 65 % variance floor on isotropic data


# ---------------------------------------------------------------------------- #
# domain mixing (per-group token reweighting)
# ---------------------------------------------------------------------------- #
def test_source_mix_sample_matches_sql(docs_ds):
    from riot_ray.pipelines import source_mix_sample

    got = (
        source_mix_sample(
            docs_ds.select_columns(["doc_id", "lang", "text"]),
            weights={"en": 0.2, "zh": 0.2, "de": 0.2, "es": 0.2, "fr": 0.2},
            token_budget=15000, group_col="lang",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = _duck("""
        WITH nt AS (
          SELECT doc_id, lang,
                 len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                                 x -> x <> ''))::BIGINT AS n
          FROM documents),
        w(lang, wt) AS (VALUES ('en', 0.2), ('zh', 0.2), ('de', 0.2),
                               ('es', 0.2), ('fr', 0.2)),
        T AS (SELECT lang, sum(n)::DOUBLE AS tot FROM nt GROUP BY lang),
        f AS (SELECT T.lang, LEAST(1.0, 15000.0 * w.wt / T.tot) AS frac
              FROM T JOIN w ON T.lang = w.lang)
        SELECT nt.doc_id, nt.lang, nt.n AS n_tokens
        FROM nt JOIN f ON nt.lang = f.lang
        WHERE ('0x' || substr(md5(nt.doc_id::VARCHAR || '#7'), 1, 16))
                  ::UBIGINT::DOUBLE
              < f.frac * 18446744073709551616.0
        ORDER BY doc_id
    """).to_pandas()
    assert len(got) == len(exp) > 0
    assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
    assert (got["lang"] == exp["lang"]).all()
    assert (got["n_tokens"].to_numpy() == exp["n_tokens"].to_numpy()).all()
    # rebalancing direction: the over-represented language keeps the
    # smallest fraction of its docs
    full = _duck("SELECT lang, count(*) AS n FROM documents GROUP BY lang").to_pandas()
    kept = got.groupby("lang").size()
    frac = {r["lang"]: kept.get(r["lang"], 0) / r["n"] for _, r in full.iterrows()}
    assert frac["en"] == min(frac.values())


def test_chunk_docs_sliced_gather_equals_single_slice(docs_ds, monkeypatch):
    """The int32-capacity gather slicing (chunk_text emitted as a chunked
    plain-string column) is bit-equal to the unsliced path: shrink the
    caps so a normal batch is forced through many slices."""
    from riot_ray.pipelines import analysis as an
    from riot_ray.pipelines import chunk_docs

    ds = docs_ds.select_columns(["doc_id", "text"])
    one = chunk_docs(ds, chunk_tokens=40, stride=15).to_pandas()
    monkeypatch.setattr(an, "_CHUNK_GATHER_CAP_TOKENS", 97)
    monkeypatch.setattr(an, "_CHUNK_GATHER_CAP_BYTES", 601)
    many = chunk_docs(ds, chunk_tokens=40, stride=15).to_pandas()
    one = one.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    many = many.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    assert len(one) == len(many) > 0
    for c in ("doc_id", "chunk_idx", "n_tokens", "chunk_text"):
        assert (one[c] == many[c]).all(), c


# ---------------------------------------------------------------------------- #
# ordered funnel (events table)
# ---------------------------------------------------------------------------- #
_FUNNEL_SQL = """
    WITH s1 AS (SELECT user_id, min(epoch_us(ts)) AS t FROM events
                WHERE event_type = 'view' GROUP BY 1),
    s2 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t FROM events e
           JOIN s1 ON e.user_id = s1.user_id
           WHERE e.event_type = 'click' AND epoch_us(e.ts) > s1.t
             AND epoch_us(e.ts) <= s1.t + {h} GROUP BY 1),
    s3 AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t FROM events e
           JOIN s2 ON e.user_id = s2.user_id
           JOIN s1 ON e.user_id = s1.user_id
           WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > s2.t
             AND epoch_us(e.ts) <= s1.t + {h} GROUP BY 1)
    SELECT * FROM (
      SELECT 1::BIGINT AS step, 'view' AS step_name,
             count(*)::BIGINT AS n_users FROM s1
      UNION ALL SELECT 2, 'click', count(*) FROM s2
      UNION ALL SELECT 3, 'purchase', count(*) FROM s3) ORDER BY step
"""


def test_funnel_counts_matches_sql(events_ds):
    from riot_ray.pipelines import funnel_counts

    h_s = 3 * 86_400
    got = funnel_counts(events_ds, ["view", "click", "purchase"],
                        horizon_s=h_s).to_pandas()
    exp = _duck(_FUNNEL_SQL.format(h=h_s * 1_000_000)).to_pandas()
    assert got["step"].tolist() == [1, 2, 3]
    assert got["n_users"].tolist() == exp["n_users"].tolist()
    # funnel must be monotone non-increasing
    n = got["n_users"].to_numpy()
    assert (n[1:] <= n[:-1]).all()


def test_funnel_hash_join_path_matches_broadcast(events_ds, monkeypatch):
    """Forcing the survivor table through the distributed hash join must
    reproduce the broadcast path bit-for-bit."""
    from riot_ray.pipelines import funnel_counts

    base = funnel_counts(events_ds, ["view", "purchase"], horizon_s=86_400)
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 1)
    forced = funnel_counts(events_ds, ["view", "purchase"], horizon_s=86_400)
    assert base.equals(forced)


def test_funnel_single_step_is_distinct_users(events_ds):
    from riot_ray.pipelines import funnel_counts

    got = funnel_counts(events_ds, ["click"], horizon_s=1).to_pandas()
    exp = _duck("SELECT count(DISTINCT user_id)::BIGINT AS n FROM events "
                "WHERE event_type = 'click'").to_pandas()
    assert got["n_users"].tolist() == exp["n"].tolist()


# ---------------------------------------------------------------------------- #
# more_like_this (documents table)
# ---------------------------------------------------------------------------- #
_MLT_SQL = """
    WITH toks AS (
      SELECT doc_id, list_filter(regexp_split_to_array(lower(text),
                                 '[^a-z0-9]+'), x -> x <> '') AS t
      FROM documents),
    occ AS (SELECT doc_id, term, count(*)::BIGINT AS tf
            FROM (SELECT doc_id, unnest(t) AS term FROM toks) GROUP BY 1, 2),
    df AS (SELECT term, count(*)::BIGINT AS df FROM occ GROUP BY 1),
    n AS (SELECT count(*)::BIGINT AS n FROM documents),
    w AS (SELECT doc_id, term,
                 tf * CAST(round(ln(n.n::DOUBLE / df.df) * 1000) AS BIGINT) AS w
          FROM occ JOIN df USING (term), n),
    q AS (SELECT * FROM w WHERE doc_id IN ({ids})),
    scores AS (SELECT q.doc_id AS query_id, d.doc_id AS neighbor_id,
                      sum(q.w * d.w)::BIGINT AS score
               FROM q JOIN w d USING (term) WHERE d.doc_id != q.doc_id
               GROUP BY 1, 2 HAVING sum(q.w * d.w) > 0)
    SELECT query_id, neighbor_id, score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, neighbor_id)::BIGINT AS rank
    FROM scores QUALIFY rank <= {k} ORDER BY query_id, rank
"""


def test_more_like_this_matches_sql(docs_ds):
    from riot_ray.pipelines import more_like_this

    got = more_like_this(docs_ds, query_ids=[0, 1, 2], k=4).to_pandas()
    got = _sorted(got, ["query_id", "rank"])
    exp = _duck(_MLT_SQL.format(ids="0, 1, 2", k=4)).to_pandas()
    assert got.shape == exp.shape
    for c in ["query_id", "neighbor_id", "score", "rank"]:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_more_like_this_block_count_independent(docs_ds):
    """Per-block partial top-k must merge to the same global result at any
    block count — including integer-score ties at partial boundaries."""
    from riot_ray.pipelines import more_like_this

    one = more_like_this(docs_ds, query_ids=[0, 5], k=6)
    many = more_like_this(docs_ds.repartition(17), query_ids=[0, 5], k=6)
    assert one.equals(many)


def test_more_like_this_absent_query_is_empty(docs_ds):
    from riot_ray.pipelines import more_like_this

    out = more_like_this(docs_ds, query_ids=[10_000_000], k=3)
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "neighbor_id", "score", "rank"]


# --------------------------------------------------------------------------- #
# ExactSubstr: corpus-duplicated substring spans (substr.py)
# --------------------------------------------------------------------------- #
def _brute_dup_spans(texts, L):
    """Reference: mark every length-L window occurring >=2 times, merge
    starts <= L apart."""
    from collections import Counter

    cnt = Counter()
    for t in texts:
        t = t or ""
        for i in range(len(t) - L + 1):
            cnt[t[i : i + L]] += 1
    dup = {w for w, c in cnt.items() if c >= 2}
    out = []
    for d, t in enumerate(texts):
        t = t or ""
        spans = []
        for i in range(len(t) - L + 1):
            if t[i : i + L] not in dup:
                continue
            if spans and i <= spans[-1][1] + L:
                spans[-1] = (spans[-1][0], i, spans[-1][2] + 1)
            else:
                spans.append((i, i, 1))
        out += [(d, a, last + L, n) for a, last, n in spans]
    return sorted(out)


def _substr_texts():
    import numpy as np

    rng = np.random.default_rng(7)
    base = "the quick brown fox jumps over the lazy dog near riverbanks "
    texts = []
    for i in range(40):
        t = "".join(rng.choice(list("abcdefg "))
                    for _ in range(int(rng.integers(0, 150))))
        if i % 3 == 0:
            t = t[:10] + base + t[10:]
        if i % 5 == 0:
            t += "shared tail boilerplate for the substring dedup test!!"
        texts.append(t)
    texts += [None, "", "tiny", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"]
    return texts


def test_dup_spans_matches_bruteforce(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import dup_spans

    texts = _substr_texts()
    L = 12
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ).repartition(5)
    got = dup_spans(ds, min_len=L).to_pandas().sort_values(
        ["doc_id", "span_start"]).reset_index(drop=True)
    exp = _brute_dup_spans(texts, L)
    assert list(map(tuple, got.to_numpy())) == exp


def test_dup_spans_join_path_matches_broadcast(ray_session, monkeypatch):
    import ray.data as rd

    from riot_ray.pipelines import dup_spans

    texts = _substr_texts()
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ).repartition(4)
    base = dup_spans(ds, min_len=12).to_pandas().sort_values(
        ["doc_id", "span_start"]).reset_index(drop=True)
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)  # force the hash-join path
    joined = dup_spans(ds, min_len=12).to_pandas().sort_values(
        ["doc_id", "span_start"]).reset_index(drop=True)
    assert base.equals(joined)
    assert len(base) > 0


def test_dup_spans_auto_prefilter_equals_dense(ray_session, monkeypatch):
    import ray.data as rd

    import riot_ray.pipelines.substr as ss
    from riot_ray.pipelines import dup_spans

    texts = _substr_texts()
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ).repartition(4)
    dense = dup_spans(ds, min_len=12, prefilter=False).to_pandas().sort_values(
        ["doc_id", "span_start"]).reset_index(drop=True)
    # force the auto path to pick the prefilter plan on this tiny corpus
    monkeypatch.setattr(ss, "PREFILTER_AUTO_ROWS", 1)
    auto = dup_spans(ds, min_len=12).to_pandas().sort_values(
        ["doc_id", "span_start"]).reset_index(drop=True)
    assert dense.equals(auto)
    assert len(dense) > 0


def test_dup_spans_join_path_rejects_negative_ids(ray_session, monkeypatch):
    import ray.data as rd

    from riot_ray.pipelines import dup_spans

    texts = _substr_texts()
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array([-1] + list(range(1, len(texts))), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ).repartition(4)
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)  # force the hash-join path
    # a negative id would corrupt the (doc<<32)|pos pack — must be a hard
    # ValueError (survives python -O), not a silent wrong answer
    with pytest.raises(Exception, match="doc ids must be in"):
        dup_spans(ds, min_len=12).to_pandas()


def test_dup_span_clean_cuts_exactly(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import dup_span_clean

    texts = _substr_texts()
    L = 12
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ).repartition(5)
    got = dup_span_clean(ds, min_len=L).to_pandas().set_index("doc_id")
    spans = _brute_dup_spans(texts, L)
    assert len(got) == len(texts)
    for d, t in enumerate(texts):
        t = t or ""
        mine = [(a, b) for dd_, a, b, _n in spans if dd_ == d]
        expect = "".join(
            ch for i, ch in enumerate(t)
            if not any(a <= i < b for a, b in mine)
        )
        assert got.loc[d, "text_clean"] == expect
        assert got.loc[d, "n_removed"] == sum(b - a for a, b in mine)


def test_dup_span_clean_group_path_matches_broadcast(ray_session, monkeypatch):
    import ray.data as rd

    from riot_ray.pipelines import dup_span_clean

    texts = _substr_texts()
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ).repartition(4)
    base = dup_span_clean(ds, min_len=12).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)  # force co-group path
    grouped = dup_span_clean(ds, min_len=12).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert base.equals(grouped)


def test_dup_spans_block_count_independent(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import dup_spans

    texts = _substr_texts()
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    one = dup_spans(rd.from_arrow(t), min_len=12).to_pandas().sort_values(
        ["doc_id", "span_start"]).reset_index(drop=True)
    many = dup_spans(rd.from_arrow(t).repartition(19),
                     min_len=12).to_pandas().sort_values(
        ["doc_id", "span_start"]).reset_index(drop=True)
    assert one.equals(many)


def test_dup_spans_unicode_positions_are_codepoints(ray_session):
    """Positions must count codepoints (SQL substr semantics), not bytes —
    multi-byte chars before the duplicate shift byte offsets but not
    codepoint offsets."""
    import ray.data as rd

    from riot_ray.pipelines import dup_spans

    dup = "0123456789abcdef"  # L=16 duplicated block
    texts = ["日本語テキスト" + dup, "ein anderes präfix--" + dup]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    got = dup_spans(ds, min_len=16).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert list(got["span_start"]) == [7, 20]
    assert list(got["span_end"]) == [7 + 16, 20 + 16]


# --------------------------------------------------------------------------- #
# Multinomial Naive Bayes (classify.py)
# --------------------------------------------------------------------------- #
def _nb_rows():
    import numpy as np

    rng = np.random.default_rng(3)
    langs = {"en": "the cat sat on a mat with milk and fish".split(),
             "de": "die katze sass auf der matte mit milch und fisch".split(),
             "fr": "le chat est sur le tapis avec du lait et poisson".split()}
    rows = []
    for i in range(120):
        lab = ["en", "de", "fr"][i % 3]
        words = [str(rng.choice(langs[lab]))
                 for _ in range(int(rng.integers(3, 30)))]
        if i % 4 == 0:
            words += ["data", "42"]
        rows.append((i, " ".join(words), lab))
    rows.append((900, "", "en"))
    rows.append((901, None, "de"))
    return rows


def _nb_brute(train_rows, predict_rows):
    import math
    import re

    tokre = re.compile("[^a-z0-9]+")

    def toks(s):
        return [w for w in tokre.split((s or "").lower()) if w]

    classes = sorted({r[2] for r in train_rows})
    nd = {c: 0 for c in classes}
    cnt = {c: {} for c in classes}
    vocab = set()
    for _i, s, c in train_rows:
        nd[c] += 1
        for w in toks(s):
            cnt[c][w] = cnt[c].get(w, 0) + 1
            vocab.add(w)
    V = len(vocab)
    tot = {c: sum(cnt[c].values()) for c in classes}
    N = sum(nd.values())
    prior = {c: math.floor(math.log(nd[c] / N) * 1e6 + 0.5) for c in classes}
    out = {}
    for i, s, _c in predict_rows:
        tk = toks(s)
        if not tk:
            continue
        best = None
        for c in classes:
            sc = prior[c]
            for w in tk:
                sc += math.floor(
                    math.log((cnt[c].get(w, 0) + 1) / (tot[c] + V)) * 1e6 + 0.5
                )
            if best is None or sc > best[1]:
                best = (c, sc)
        out[i] = (best[0], best[1], len(tk))
    return out


def _nb_table(rows):
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "label": pa.array([r[2] for r in rows], pa.string()),
    })


def test_nb_classify_matches_bruteforce(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import nb_classify

    rows = _nb_rows()
    exp = _nb_brute(rows, rows)
    got = (
        nb_classify(rd.from_arrow(_nb_table(rows)).repartition(6))
        .to_pandas().set_index("doc_id")
    )
    assert len(got) == len(exp)   # token-less docs drop out
    for i, (c, sc, n) in exp.items():
        row = got.loc[i]
        assert (row["pred"], row["score_micro"], row["n_tokens"]) == (c, sc, n)


def test_nb_classify_join_path_matches_broadcast(ray_session, monkeypatch):
    import ray.data as rd

    from riot_ray.pipelines import nb_classify

    ds = rd.from_arrow(_nb_table(_nb_rows())).repartition(6)
    base = nb_classify(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)  # force the hash-join path
    joined = nb_classify(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert base.equals(joined)


def test_nb_classify_holdout_with_oov(ray_session, monkeypatch):
    """Predicting NEW docs: unseen tokens take the smoothed cnt=0 term;
    an all-OOV doc still classifies (priors + V*default) on BOTH paths."""
    import ray.data as rd

    from riot_ray.pipelines import nb_classify

    train = _nb_rows()
    test = [(5000, "the cat drank milk zzzunseen", "en"),
            (5001, "zzz qqq www", "de"),          # every token OOV
            (5002, "katze milch fisch", "de")]
    exp = _nb_brute(train, test)
    tr = rd.from_arrow(_nb_table(train)).repartition(4)
    te = rd.from_arrow(_nb_table(test))
    got = nb_classify(tr, predict_ds=te).to_pandas().set_index("doc_id")
    assert len(got) == 3
    for i, (c, sc, n) in exp.items():
        row = got.loc[i]
        assert (row["pred"], row["score_micro"], row["n_tokens"]) == (c, sc, n)
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)
    got2 = nb_classify(tr, predict_ds=te).to_pandas().set_index("doc_id")
    assert got.sort_index().equals(got2.sort_index())


def test_nb_classify_block_count_independent(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import nb_classify

    t = _nb_table(_nb_rows())
    one = nb_classify(rd.from_arrow(t)).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    many = nb_classify(rd.from_arrow(t).repartition(17)).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert one.equals(many)


# --------------------------------------------------------------------------- #
# IVF-PQ: persisted product-quantized index (simsearch.py)
# --------------------------------------------------------------------------- #
def test_ivfpq_persisted_index(emb_ds, tmp_path):
    """build_pq_index + knn_pq_query: recall vs brute at full probe, self-
    retrieval top-1, and read pruning (unprobed partition deleted ->
    result unchanged)."""
    import json
    import os
    import shutil

    import numpy as np

    from riot_ray.pipelines import build_pq_index, knn_brute, knn_pq_query

    rows = emb_ds.take(5)
    Q = np.stack([r["embedding"] for r in rows])
    qids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    dim = Q.shape[1]
    pq_m = 16 if dim % 16 == 0 else 4   # 4-dim subspaces on the 64-d table

    idx = str(tmp_path / "ivfpq")
    st = build_pq_index(emb_ds, idx, fingerprint="t", n_lists=8,
                        pq_m=pq_m, pq_ks=64, seed=42)
    assert st["n_rows"] == emb_ds.count()
    # the stored index is codes-only: pq_m bytes of payload per vector
    import pyarrow.parquet as papq
    sch = papq.read_schema(os.path.join(idx, "part=00000", "data.parquet"))
    assert "codes" in sch.names and "embedding" not in sch.names

    brute = knn_brute(emb_ds, Q, qids, k=8).to_pandas()
    full = knn_pq_query(idx, Q, qids, k=8, nprobe=8).to_pandas()
    bp = {tuple(x) for x in brute[["query_id", "vec_id"]].to_numpy()}
    ap = {tuple(x) for x in full[["query_id", "vec_id"]].to_numpy()}
    recall = len(bp & ap) / len(bp)
    assert recall >= 0.5, recall           # quantization error only
    # ADC of a vector against its own codes is the max over its list
    top1 = full[full["rank"] == 1]
    assert set(top1["query_id"]) == set(qids)

    part = knn_pq_query(idx, Q, qids, k=8, nprobe=3).to_pandas()
    meta = json.load(open(os.path.join(idx, "meta.json")))
    C = np.asarray(meta["centroids"])
    qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    probed = set()
    for qi in range(len(qids)):
        probed |= set(np.argsort(-(qn[qi] @ C.T))[:3].tolist())
    unprobed = [l for l in range(meta["n_lists"]) if l not in probed]
    if unprobed:
        shutil.rmtree(os.path.join(idx, f"part={unprobed[0]:05d}"))
        again = knn_pq_query(idx, Q, qids, k=8, nprobe=3).to_pandas()
        assert again[["query_id", "vec_id"]].values.tolist() == \
            part[["query_id", "vec_id"]].values.tolist()


def test_ivfpq_resume_and_stale_meta(emb_ds, tmp_path):
    """Second build with identical knobs skips the corpus pass; a partition
    whose fingerprint disagrees with meta.json is refused at query time."""
    import json
    import os

    import numpy as np

    from riot_ray.pipelines import build_pq_index, knn_pq_query

    idx = str(tmp_path / "ivfpq2")
    build_pq_index(emb_ds, idx, fingerprint="a", n_lists=4, pq_m=2,
                   pq_ks=16, seed=1)
    again = build_pq_index(emb_ds, idx, fingerprint="a", n_lists=4, pq_m=2,
                           pq_ks=16, seed=1)
    assert again.get("skipped") is True

    # tamper one partition manifest -> inconsistent index must raise
    mpath = os.path.join(idx, "part=00000", "manifest.json")
    m = json.load(open(mpath))
    m["fingerprint"] = "other-build"
    json.dump(m, open(mpath, "w"))
    rows = emb_ds.take(2)
    Q = np.stack([r["embedding"] for r in rows])
    qids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    with pytest.raises(ValueError, match="inconsistent"):
        knn_pq_query(idx, Q, qids, k=4, nprobe=4)


# --------------------------------------------------------------------------- #
# BPE tokenizer training (bpe.py)
# --------------------------------------------------------------------------- #
def _bpe_brute_train(words, counts, n_merges):
    from riot_ray.pipelines.bpe import _EOW

    seqs = [list(w[:-1]) + [w[-1] + _EOW] if w else [] for w in words]
    merges = []
    for _ in range(n_merges):
        pc_ = {}
        for seq, c in zip(seqs, counts):
            for a, b in zip(seq, seq[1:]):
                pc_[(a, b)] = pc_.get((a, b), 0) + int(c)
        if not pc_:
            break
        best = min(pc_.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        a, b = best
        for i, seq in enumerate(seqs):
            new, j = [], 0
            while j < len(seq):
                if j + 1 < len(seq) and seq[j] == a and seq[j + 1] == b:
                    new.append(a + b)
                    j += 2
                else:
                    new.append(seq[j])
                    j += 1
            seqs[i] = new
    return merges, seqs


def test_bpe_indexed_trainer_matches_bruteforce():
    import numpy as np

    from riot_ray.pipelines.bpe import _train_merges, encode_word

    rng = np.random.default_rng(5)
    words = ["low", "lower", "lowest", "new", "newer", "wider", "wide",
             "mid", "widget", "xx", "a", "banana", "bandana"]
    counts = rng.integers(1, 50, size=len(words)).astype(np.int64)
    exp_merges, exp_seqs = _bpe_brute_train(list(words), counts, 60)
    got = _train_merges(list(words), counts, 60)
    assert got == exp_merges
    # greedy rank-order encoding reproduces the training-time segmentation
    rank = {p: i for i, p in enumerate(got)}
    for w, seq in zip(words, exp_seqs):
        assert encode_word(w, rank) == seq


def test_bpe_train_block_count_independent(docs_ds):
    from riot_ray.pipelines import bpe_train

    sub = docs_ds.select_columns(["doc_id", "text"])
    one = bpe_train(sub.limit(120), n_merges=64)
    many = bpe_train(sub.limit(120).repartition(13), n_merges=64)
    assert one == many
    assert len(one) == 64


def test_bpe_encode_counts_match_reference(docs_ds):
    import re

    from riot_ray.pipelines import bpe_encode_counts, bpe_train
    from riot_ray.pipelines.bpe import encode_word

    sub = docs_ds.select_columns(["doc_id", "text"]).limit(60)
    merges = bpe_train(sub, n_merges=48)
    got = bpe_encode_counts(sub, merges).to_pandas().set_index("doc_id")
    rank = {tuple(p): i for i, p in enumerate(merges)}
    tokre = re.compile("[^a-z0-9]+")
    rows = sub.take_all()
    assert len(got) == len(rows)
    for r in rows:
        toks = [w for w in tokre.split((r["text"] or "").lower()) if w]
        n_sub = sum(len(encode_word(w, rank)) for w in toks)
        assert got.loc[r["doc_id"], "n_words"] == len(toks)
        assert got.loc[r["doc_id"], "n_subwords"] == n_sub


def test_bpe_encode_counts_pool_on_one_cpu():
    """bpe_encode_counts over a read_parquet input on a ONE-CPU Ray
    finishes: the input is read before the pool's first actor takes the
    only CPU.  Runs in a subprocess with its own Ray, killed after a
    timeout, so a regression fails instead of hanging the suite."""
    import os
    import signal
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(f"""
        import ray
        import ray.data as rd
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        rd.DataContext.get_current().enable_progress_bars = False
        from riot_ray.pipelines import bpe_encode_counts
        ds = rd.read_parquet({SF + "/documents.parquet"!r},
                             columns=["doc_id", "text"])
        out = bpe_encode_counts(ds, [("t", "h"), ("th", "e")]).to_pandas()
        print(len(out), int(out.n_subwords.sum()))
    """)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", script], cwd=repo,
        env={**os.environ, "PYTHONPATH": repo},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("bpe_encode_counts on a one-CPU Ray made no progress "
                    "in 120 s")
    assert proc.returncode == 0, err[-3000:]
    n_rows, n_sub = map(int, out.split()[-2:])
    assert n_rows == 500 and n_sub > 0


def test_bpe_word_counts_cap_is_deterministic(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import word_counts

    t = pa.table({"text": pa.array(
        ["aa bb aa cc", "bb aa dd", "cc cc bb ee", "ff gg aa"] * 5, pa.string()
    )})
    wc = word_counts(rd.from_arrow(t).repartition(4), max_words=3).to_pandas()
    wc = wc.sort_values(["cnt", "word"], ascending=[False, True])
    # global winners survive per-partition caps (cap >= per-partition need)
    assert list(wc.head(3)["word"]) == ["aa", "bb", "cc"]


# --------------------------------------------------------------------------- #
# Misra-Gries heavy hitters (heavy.py)
# --------------------------------------------------------------------------- #
def test_heavy_hitters_exact_at_tightest_k(ray_session):
    """k == one_over is the tightest width the exactness proof allows; the
    verified output must still equal the brute-force GROUP BY/HAVING."""
    import re
    from collections import Counter

    import numpy as np
    import ray.data as rd

    from riot_ray.pipelines import heavy_hitters

    rng = np.random.default_rng(1)
    vocab = [f"w{i}" for i in range(500)]
    w = np.array([100 if i < 5 else (20 if i < 20 else 1)
                  for i in range(500)], float)
    w /= w.sum()
    texts = [" ".join(rng.choice(vocab, p=w, size=int(rng.integers(5, 60))))
             for _ in range(800)]
    tokre = re.compile("[^a-z0-9]+")
    cnt = Counter(t for s in texts for t in tokre.split(s.lower()) if t)
    n = sum(cnt.values())
    exp = sorted(((t, c) for t, c in cnt.items() if c * 100 > n),
                 key=lambda x: (-x[1], x[0]))
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, pa.string())}))
    got = heavy_hitters(ds.repartition(7), one_over=100, k=100)
    assert list(zip(got["token"].to_pylist(), got["cnt"].to_pylist())) == exp
    assert len(exp) > 0


def test_heavy_hitters_empty_and_validation(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import heavy_hitters

    empty = rd.from_arrow(pa.table({"text": pa.array([None, ""], pa.string())}))
    assert heavy_hitters(empty, one_over=10).num_rows == 0
    with pytest.raises(ValueError, match="k must be >= one_over"):
        heavy_hitters(empty, one_over=100, k=10)


def test_heavy_hitters_block_count_independent(docs_ds):
    from riot_ray.pipelines import heavy_hitters

    sub = docs_ds.select_columns(["text"])
    one = heavy_hitters(sub, one_over=35)
    many = heavy_hitters(sub.repartition(23), one_over=35, reduce_partitions=5)
    assert one.equals(many)
    assert one.num_rows > 0


# --------------------------------------------------------------------------- #
# spell correction + autocomplete (spell.py)
# --------------------------------------------------------------------------- #
def _lev_ref(a, b):
    import itertools

    dp = {(0, 0): 0}
    for i, j in itertools.product(range(len(a) + 1), range(len(b) + 1)):
        if i == j == 0:
            continue
        cands = []
        if i:
            cands.append(dp[(i - 1, j)] + 1)
        if j:
            cands.append(dp[(i, j - 1)] + 1)
        if i and j:
            cands.append(dp[(i - 1, j - 1)] + (a[i - 1] != b[j - 1]))
        dp[(i, j)] = min(cands)
    return dp[(len(a), len(b))]


def test_spell_lev_matches_reference():
    from riot_ray.pipelines.spell import _lev

    words = ["", "a", "ab", "table", "tabel", "tabl", "stable", "tible",
             "join", "joim", "jon", "jjoin", "scan", "scann"]
    for a in words:
        for b in words:
            assert _lev(a, b) == _lev_ref(a, b), (a, b)


def test_spell_correct_matches_bruteforce(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import spell_correct
    from riot_ray.pipelines.spell import _lev

    vocab = [("table", 50), ("tables", 20), ("cable", 9), ("tale", 8),
             ("stable", 7), ("join", 60), ("coin", 10), ("joint", 9),
             ("jot", 1), ("scan", 30), ("scans", 12), ("span", 11),
             ("zzz", 2)]
    t = pa.table({"term": pa.array([v[0] for v in vocab], pa.string()),
                  "df": pa.array([v[1] for v in vocab], pa.int64())})
    queries = ["tabl", "joim", "scann", "tible", "absent"]
    got = spell_correct(rd.from_arrow(t).repartition(4), queries, k=3)
    rows = list(zip(got["query"].to_pylist(), got["term"].to_pylist(),
                    got["dist"].to_pylist(), got["df"].to_pylist()))
    exp = []
    for q in queries:
        cand = [(q, w, _lev(q, w), df) for w, df in vocab if _lev(q, w) <= 1]
        cand.sort(key=lambda r: (r[2], -r[3], r[1]))
        exp += cand[:3]
    # operator's global order follows per-query blocks in query order too
    assert sorted(rows) == sorted(exp)
    assert not any(q == "absent" for q, *_ in rows)
    # covers substitution, insertion AND deletion candidates
    assert ("tible", "table", 1, 50) in rows
    assert ("scann", "scan", 1, 30) in rows
    assert ("tabl", "table", 1, 50) in rows


def test_suggest_terms_ranking(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import suggest_terms

    t = pa.table({"term": pa.array(["scan", "scans", "scatter", "span",
                                    "scale", "zebra"], pa.string()),
                  "df": pa.array([30, 12, 12, 99, 1, 5], pa.int64())})
    got = suggest_terms(rd.from_arrow(t).repartition(3), "sc", k=3)
    assert got["term"].to_pylist() == ["scan", "scans", "scatter"]
    assert got["df"].to_pylist() == [30, 12, 12]
    empty = suggest_terms(rd.from_arrow(t), "qq", k=3)
    assert empty.num_rows == 0


# --------------------------------------------------------------------------- #
# full-corpus distributed k-means (simsearch.py)
# --------------------------------------------------------------------------- #
def test_kmeans_recovers_separated_blobs(ray_session):
    import numpy as np
    import ray.data as rd

    from riot_ray.pipelines import kmeans_assign, kmeans_fit

    rng = np.random.default_rng(0)
    centers = np.array([[10.0, 0, 0], [0, 10.0, 0], [0, 0, 10.0],
                        [-10.0, -10.0, 0]])
    X = np.concatenate([c + 0.1 * rng.standard_normal((200, 3))
                        for c in centers])
    ids = np.arange(len(X), dtype=np.int64)
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(list(X.astype(np.float32)),
                                        pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(7)
    C, iters, inertia = kmeans_fit(ds, k=4, iters=20, seed=1)
    # every true center has a fitted centroid within the blob radius
    for c in centers:
        assert np.min(np.linalg.norm(C - c, axis=1)) < 0.5
    a = kmeans_assign(ds, C).to_pandas().sort_values("vec_id")
    lab = a["cluster"].to_numpy()
    # blob purity: all 200 members of each blob share one cluster id
    for b in range(4):
        assert len(set(lab[b * 200:(b + 1) * 200])) == 1
    assert a["dist"].max() < 1.0


def test_kmeans_spherical_matches_full_probe_semantics(emb_ds):
    import numpy as np

    from riot_ray.pipelines import kmeans_fit

    C, iters, _ = kmeans_fit(emb_ds, k=8, iters=5, seed=42, spherical=True)
    assert C.shape[0] == 8 and iters >= 1
    n = np.linalg.norm(C, axis=1)
    assert np.allclose(n[n > 0], 1.0)  # spherical centroids unit-norm


def test_kmeans_block_count_stable(ray_session):
    """Driver reduce sums float partials in deterministic block order, so
    identical input at DIFFERENT block counts converges to the same
    clustering (tolerance: float-sum association)."""
    import numpy as np
    import ray.data as rd

    from riot_ray.pipelines import kmeans_fit

    rng = np.random.default_rng(3)
    X = rng.standard_normal((500, 4))
    t = pa.table({"embedding": pa.array(list(X.astype(np.float32)),
                                        pa.list_(pa.float32()))})
    C1, _, _ = kmeans_fit(rd.from_arrow(t), k=5, iters=8, seed=9)
    C2, _, _ = kmeans_fit(rd.from_arrow(t).repartition(11), k=5, iters=8, seed=9)
    assert np.allclose(np.sort(C1, axis=0), np.sort(C2, axis=0), atol=1e-6)



def test_kmeans_fit_reuses_one_task_function(ray_session, monkeypatch):
    """Every Lloyd iteration maps the same module-level function, so a fit
    registers one Ray task type however many iterations it runs."""
    import numpy as np
    import ray.data as rd

    from riot_ray.pipelines import kmeans_fit

    fns = []
    raw = rd.Dataset.map_batches

    def record(self, fn, *a, **kw):
        fns.append(fn)
        return raw(self, fn, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "map_batches", record)
    X = np.random.default_rng(5).standard_normal((120, 3))
    t = pa.table({"embedding": pa.array(list(X.astype(np.float32)),
                                        pa.list_(pa.float32()))})
    _, iters, _ = kmeans_fit(rd.from_arrow(t), k=3, iters=3, seed=1, tol=-1.0)
    assert iters == 3 and len(fns) == 3
    assert all(f is fns[0] for f in fns)

def test_dup_spans_prefilter_equals_exact(ray_session):
    """The winnowed-anchor candidate prefilter must be lossless, including
    the adversarial cases: overlapping SELF-duplicates (periodic text)
    and duplicates barely >= min_len."""
    import ray.data as rd

    from riot_ray.pipelines import dup_spans

    texts = _substr_texts() + [
        "ab" * 40,                          # periodic: overlapping self-dup
        "x" * 13,                           # exactly min_len+1 run
        "qq" + "0123456789ab" + "zz" + "0123456789ab",  # dup == min_len
    ]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ).repartition(6)
    fast = dup_spans(ds, min_len=12, prefilter=True).to_pandas().sort_values(
        ["doc_id", "span_start"]).reset_index(drop=True)
    slow = dup_spans(ds, min_len=12, prefilter=False).to_pandas().sort_values(
        ["doc_id", "span_start"]).reset_index(drop=True)
    assert fast.equals(slow)
    assert len(fast) > 0
    # brute-force ground truth too
    exp = _brute_dup_spans(texts, 12)
    assert list(map(tuple, fast.to_numpy())) == exp


def test_dup_spans_prefilter_no_dups_short_circuits(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import dup_spans

    texts = [f"totally unique document number {i} with its own words {i*7}"
             for i in range(30)]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    out = dup_spans(ds, min_len=40, prefilter=True).to_pandas()
    assert len(out) == 0


# --------------------------------------------------------------------------- #
# windowed co-occurrence + PMI (cooc.py)
# --------------------------------------------------------------------------- #
def _brute_pmi(texts, window, min_count):
    import math
    import re
    from collections import Counter

    tokre = re.compile("[^a-z0-9]+")
    pairs = Counter()
    for s in texts:
        toks = [w for w in tokre.split((s or "").lower()) if w]
        for i in range(len(toks)):
            for j in range(i + 1, min(i + window + 1, len(toks))):
                a, b = sorted((toks[i], toks[j]))
                pairs[(a, b)] += 1
    N = sum(pairs.values())
    marg = Counter()
    for (a, b), c in pairs.items():
        marg[a] += c
        marg[b] += c
    out = []
    for (a, b), c in pairs.items():
        if c >= min_count:
            pmi = math.floor(
                math.log((float(c) * float(N)) /
                         (float(marg[a]) * float(marg[b]))) * 1e6 + 0.5)
            out.append((a, b, c, pmi))
    return sorted(out)


def test_pmi_pairs_matches_bruteforce(ray_session):
    import numpy as np
    import ray.data as rd

    from riot_ray.pipelines import pmi_pairs

    rng = np.random.default_rng(2)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = []
    for _ in range(300):
        toks = list(rng.choice(vocab, size=int(rng.integers(2, 15))))
        if rng.random() < 0.4:
            toks[: 2] = ["alpha", "beta"]   # planted collocation
        texts.append(" ".join(toks))
    texts += [None, "", "solo"]
    exp = _brute_pmi(texts, window=3, min_count=4)
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, pa.string())}))
    got = pmi_pairs(ds.repartition(6), window=3, min_count=4).to_pandas()
    rows = sorted(map(tuple, got.to_numpy()))
    assert rows == exp
    assert len(rows) > 0


def test_pmi_pairs_join_path_matches_broadcast(ray_session, monkeypatch):
    import numpy as np
    import ray.data as rd

    from riot_ray.pipelines import pmi_pairs

    rng = np.random.default_rng(2)
    vocab = ["alpha", "beta", "gamma", "delta"]
    texts = [" ".join(rng.choice(vocab, size=8)) for _ in range(200)]
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, pa.string())}))
    base = pmi_pairs(ds, window=2, min_count=3).to_pandas().sort_values(
        ["tok_a", "tok_b"]).reset_index(drop=True)
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)  # force the two-join path
    joined = pmi_pairs(ds, window=2, min_count=3).to_pandas().sort_values(
        ["tok_a", "tok_b"]).reset_index(drop=True)
    assert base.equals(joined)
    assert len(base) > 0


def test_cooc_window_respects_doc_boundaries(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import cooc_pairs

    # "x y" in doc0, "y x" in doc1: pair counted per doc, never across
    ds = rd.from_arrow(pa.table({"text": pa.array(["x y", "y x", "z"],
                                                  pa.string())}))
    got = cooc_pairs(ds, window=5).to_pandas().sort_values(["a", "b"])
    assert list(map(tuple, got.to_numpy())) == [("x", "y", 2)]


def test_nb_classify_rejects_tokenless_training(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import nb_classify

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["", None], pa.string()),
        "label": pa.array(["a", "b"], pa.string()),
    }))
    with pytest.raises(ValueError, match="no tokens"):
        nb_classify(ds).materialize()


def test_heavy_hitters_counts_mass_of_trimmed_batches(ray_session):
    """A batch whose counts all tie at the (k+1)-th largest trims to an
    EMPTY summary — its token mass must still reach n_total, or the final
    threshold over-admits (regression: the mass rode on the first summary
    row and vanished with it)."""
    import re
    from collections import Counter

    import ray.data as rd

    from riot_ray.pipelines import heavy_hitters

    # one hot doc + many all-distinct docs (each trims to empty at k=10)
    texts = ["hot " * 50] + [
        " ".join(f"u{i}x{j}" for j in range(40)) for i in range(40)
    ]
    tokre = re.compile("[^a-z0-9]+")
    cnt = Counter(t for s in texts for t in tokre.split(s.lower()) if t)
    n = sum(cnt.values())
    exp = sorted(((t, c) for t, c in cnt.items() if c * 10 > n),
                 key=lambda x: (-x[1], x[0]))
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, pa.string())}))
    got = heavy_hitters(ds.repartition(41), one_over=10, k=10)
    assert list(zip(got["token"].to_pylist(), got["cnt"].to_pylist())) == exp


# --------------------------------------------------------------------------- #
# incremental-ingest dedup (write_digests + filter_seen)
# --------------------------------------------------------------------------- #
def test_filter_seen_matches_bruteforce(ray_session, tmp_path, monkeypatch):
    import ray.data as rd

    from riot_ray.pipelines import filter_seen, write_digests

    old = [f"released doc {i} stays the same" for i in range(40)]
    new = [f"fresh doc {i} arriving now" for i in range(30)]
    delivery = old[:15] + new + [None, ""]   # overlap + fresh + degenerate
    seen_ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(old)), pa.int64()),
        "text": pa.array(old, pa.string()),
    }))
    st = write_digests(seen_ds, str(tmp_path / "seen"), fingerprint="v1")
    assert st["n_rows"] == len(set(old))
    again = write_digests(seen_ds, str(tmp_path / "seen"), fingerprint="v1")
    assert again["parts_skipped"] > 0 and again["parts_written"] == 0

    deliv = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(1000, 1000 + len(delivery)), pa.int64()),
        "text": pa.array(delivery, pa.string()),
    })).repartition(4)
    got = filter_seen(deliv, str(tmp_path / "seen")).to_pandas()
    exp_ids = [1000 + i for i, t in enumerate(delivery) if (t or "") not in old]
    assert sorted(got["doc_id"]) == exp_ids

    # forced co-group anti-join path must match the broadcast path
    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 0)
    got2 = filter_seen(deliv, str(tmp_path / "seen")).to_pandas()
    assert sorted(got2["doc_id"]) == exp_ids


def test_filter_seen_empty_seen_passthrough(ray_session, tmp_path):
    import ray.data as rd

    from riot_ray.pipelines import filter_seen, write_digests

    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                    "text": pa.array([], pa.string())}))
    write_digests(empty, str(tmp_path / "seen0"), fingerprint="e")
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["a", "b"], pa.string()),
    }))
    out = filter_seen(docs, str(tmp_path / "seen0")).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2]


def test_ppmi_embeddings_collocation_geometry(ray_session):
    """Tokens that co-occur (planted collocation) must be closer in the
    PPMI-SVD space than unrelated tokens; same input at a different block
    count produces identical embeddings (deterministic eigh + sign
    convention)."""
    import numpy as np
    import ray.data as rd

    from riot_ray.pipelines import ppmi_embeddings

    rng = np.random.default_rng(4)
    filler = [f"f{i}" for i in range(50)]
    texts = []
    for _ in range(400):
        toks = list(rng.choice(filler, size=10))
        if rng.random() < 0.5:
            toks[3:5] = ["salt", "pepper"]     # always adjacent
        if rng.random() < 0.5:
            toks[7] = "quartz"                 # never near salt/pepper... mostly
        texts.append(" ".join(toks))
    t = pa.table({"text": pa.array(texts, pa.string())})
    toks, E = ppmi_embeddings(rd.from_arrow(t), dim=16, window=2,
                              min_count=2)
    idx = {w: i for i, w in enumerate(toks)}
    assert {"salt", "pepper", "quartz"} <= set(idx)

    def cos(u, v):
        return float(np.dot(u, v) /
                     (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))

    sp = cos(E[idx["salt"]], E[idx["pepper"]])
    sq = cos(E[idx["salt"]], E[idx["quartz"]])
    assert sp > sq + 0.1, (sp, sq)

    toks2, E2 = ppmi_embeddings(rd.from_arrow(t).repartition(9), dim=16,
                                window=2, min_count=2)
    assert toks2 == toks
    assert np.allclose(E2, E, atol=1e-8)


def test_ppmi_embeddings_empty_corpus(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import ppmi_embeddings

    t = pa.table({"text": pa.array([None, "", "solo"], pa.string())})
    toks, E = ppmi_embeddings(rd.from_arrow(t), dim=8)
    assert toks == [] and E.shape == (0, 8)


def test_write_digests_durability_contract(ray_session, tmp_path):
    """Requires an input fingerprint; never reads a crashed writer's tmp
    partition; dedupes digests across batches."""
    import os

    import ray.data as rd

    from riot_ray.pipelines import filter_seen, write_digests

    texts = ["same boilerplate everywhere"] * 50 + ["one unique doc"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(8)
    with pytest.raises(ValueError, match="fingerprint"):
        write_digests(ds, str(tmp_path / "seen"), "")
    st = write_digests(ds, str(tmp_path / "seen"), fingerprint="v1")
    assert st["n_rows"] == 2  # cross-batch dedup: 2 distinct texts

    # a crashed run's tmp partition must be invisible to filter_seen
    tmp_dir = tmp_path / "seen" / "part=00099.tmp-deadbeef"
    os.makedirs(tmp_dir)
    import pyarrow.parquet as papq

    from riot_ray.pipelines.dedup import _digest_cols

    d1, d2 = _digest_cols(pa.array(["fresh doc 7 arriving"], pa.string()))
    papq.write_table(pa.table({"d1": pa.array(d1, pa.int64()),
                               "d2": pa.array(d2, pa.int64())}),
                     str(tmp_dir / "data.parquet"))
    newdocs = rd.from_arrow(pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "text": pa.array(["fresh doc 7 arriving"], pa.string()),
    }))
    out = filter_seen(newdocs, str(tmp_path / "seen")).to_pandas()
    assert list(out["doc_id"]) == [7]  # tmp digests never count as seen


def test_grouped_quantiles_matches_bruteforce(ray_session):
    import math

    import numpy as np
    import ray.data as rd

    from riot_ray.pipelines import grouped_quantiles

    rng = np.random.default_rng(6)
    keys = list(rng.choice(["a", "b", "c"], size=500))
    vals = list(rng.integers(0, 1000, size=500))
    qs = (0.1, 0.5, 0.9)
    exp = {}
    for k in set(keys):
        kv = sorted(v for kk, v in zip(keys, vals) if kk == k)
        for q in qs:
            exp[(k, q)] = kv[max(math.ceil(q * len(kv)), 1) - 1]
    ds = rd.from_arrow(pa.table({
        "lang": pa.array(keys, pa.string()),
        "n": pa.array([int(v) for v in vals], pa.int64()),
    })).repartition(7)
    got = grouped_quantiles(ds, col="n", key_col="lang", qs=qs).to_pandas()
    assert len(got) == len(exp)
    for row in got.itertuples():
        assert exp[(row.key, row.q)] == row.value
    many = grouped_quantiles(ds.repartition(23), col="n", key_col="lang",
                             qs=qs).to_pandas().sort_values(
        ["key", "q"]).reset_index(drop=True)
    assert many.equals(got.sort_values(["key", "q"]).reset_index(drop=True))


def test_grouped_stats_matches_bruteforce(ray_session):
    import numpy as np
    import ray.data as rd

    from riot_ray.pipelines import grouped_stats

    rng = np.random.default_rng(8)
    keys = list(rng.choice(["x", "y", "z"], size=400)) + ["solo"]
    vals = [int(v) for v in rng.integers(0, 5000, size=400)] + [42]
    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.string()),
        "v": pa.array(vals, pa.int64()),
    })).repartition(9)
    got_ds = grouped_stats(ds, col="v", key_col="k")
    got = got_ds.to_pandas().set_index("key")
    for k in ["x", "y", "z"]:
        kv = np.array([v for kk, v in zip(keys, vals) if kk == k], np.int64)
        assert got.loc[k, "n"] == len(kv)
        assert got.loc[k, "sum"] == kv.sum()
        s, s2, n = float(kv.sum()), float((kv * kv).sum()), float(len(kv))
        assert got.loc[k, "mean"] == s / n
        assert got.loc[k, "variance"] == (s2 - s * s / n) / (n - 1.0)
    # n == 1 group: variance is NULL by contract (matches the SQL oracle's
    # (sumsq-sum*sum/n)/(n-1) division-by-zero NULL — not NaN)
    solo = [r for r in got_ds.take_all() if r["key"] == "solo"][0]
    assert solo["n"] == 1 and solo["variance"] is None
    many = grouped_stats(ds.repartition(17), col="v", key_col="k").to_pandas()
    assert many.set_index("key").sort_index().equals(got.sort_index())


# ---------------------------------------------------------------------------- #
# semdedup: cluster-scoped cosine dedup (SemDeDup) vs brute-force numpy
# ---------------------------------------------------------------------------- #
def _semdedup_brute(V, ids, C, threshold):
    """Reference: nearest-centroid assign + any-earlier-similar rule."""
    d2 = ((V * V).sum(1, keepdims=True) - 2.0 * (V @ C.T)
          + (C * C).sum(1)[None, :])
    cl = np.argmin(d2, axis=1)
    n = np.linalg.norm(V, axis=1, keepdims=True)
    n[n == 0] = 1.0
    U = V / n
    order = np.argsort(ids)
    keep = []
    for pos in order:
        def _r6(x):  # DuckDB ROUND half-away, the operator's compare
            return np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6

        dup = any(
            cl[q] == cl[pos] and ids[q] < ids[pos]
            and _r6(float(U[q] @ U[pos])) >= threshold
            for q in order
        )
        if not dup:
            keep.append(pos)
    return {(int(ids[p]), int(cl[p])) for p in keep}


def test_semdedup_matches_brute(emb_ds):
    from riot_ray.pipelines import semdedup

    emb = emb_ds.take_all()
    ids = np.array([r["vec_id"] for r in emb], np.int64)
    V = np.stack([np.asarray(r["embedding"], np.float64) for r in emb])
    o = np.argsort(ids)
    C = V[o][:6].copy()  # first 6 rows by vec_id as centroids
    want = _semdedup_brute(V, ids, C, 0.4)
    got = semdedup(emb_ds, C, threshold=0.4).to_pandas()
    assert {(int(a), int(b)) for a, b in zip(got["vec_id"], got["cluster"])} == want
    # block-count independence + tiled-matmul path (chunk smaller than any
    # cluster) give the identical survivor set
    got2 = semdedup(emb_ds.repartition(7), C, threshold=0.4, chunk=3).to_pandas()
    assert {(int(a), int(b)) for a, b in zip(got2["vec_id"], got2["cluster"])} == want


def test_semdedup_drops_planted_near_dup(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import semdedup

    rng = np.random.default_rng(3)
    base = rng.normal(size=(6, 8))
    # vec 10 duplicates vec 2 (tiny noise), vec 11 is far from everything
    V = np.vstack([base, base[2] + 1e-4, rng.normal(size=8) * 10])
    ids = np.array([0, 1, 2, 3, 4, 5, 10, 11], np.int64)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in V],
                              pa.list_(pa.float64())),
    }))
    C = base[:3].copy()
    got = semdedup(ds, C, threshold=0.95).to_pandas()
    kept = set(got["vec_id"])
    assert 2 in kept and 10 not in kept  # keep-earliest drops the copy
    assert 11 in kept


def _semdedup_brute_centroid(V, ids, C, threshold):
    """Reference for keep="centroid": greedy in ascending (round6 centroid
    cosine, id) order — the paper's keep-low-centroid-similarity pick."""
    def _r6(x):
        return np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6

    d2 = ((V * V).sum(1, keepdims=True) - 2.0 * (V @ C.T)
          + (C * C).sum(1)[None, :])
    cl = np.argmin(d2, axis=1)
    n = np.linalg.norm(V, axis=1, keepdims=True)
    n[n == 0] = 1.0
    U = V / n
    Cn = C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-300)
    csim = np.array([_r6(float(U[i] @ Cn[cl[i]])) for i in range(len(ids))])
    order = np.lexsort((ids, csim))
    keep = set()
    rank = {int(p): r for r, p in enumerate(order)}
    for pos in order:
        dup = any(
            cl[q] == cl[pos] and rank[int(q)] < rank[int(pos)]
            and _r6(float(U[q] @ U[pos])) >= threshold
            for q in order
        )
        if not dup:
            keep.add(int(pos))
    return {(int(ids[p]), int(cl[p])) for p in keep}


def test_semdedup_keep_centroid_matches_brute(emb_ds):
    import pytest

    from riot_ray.pipelines import semdedup

    emb = emb_ds.take_all()
    ids = np.array([r["vec_id"] for r in emb], np.int64)
    V = np.stack([np.asarray(r["embedding"], np.float64) for r in emb])
    o = np.argsort(ids)
    C = V[o][:6].copy()
    want = _semdedup_brute_centroid(V, ids, C, 0.4)
    got = semdedup(emb_ds, C, threshold=0.4, keep="centroid").to_pandas()
    assert {(int(a), int(b))
            for a, b in zip(got["vec_id"], got["cluster"])} == want
    # chunk/partitioning independence, and dropped == complement
    got2 = semdedup(emb_ds.repartition(5), C, threshold=0.4, chunk=3,
                    keep="centroid").to_pandas()
    assert {(int(a), int(b))
            for a, b in zip(got2["vec_id"], got2["cluster"])} == want
    dropped = semdedup(emb_ds, C, threshold=0.4, keep="centroid",
                       emit="dropped").to_pandas()
    assert len(dropped) + len(got) == len(ids)
    assert set(dropped["vec_id"]).isdisjoint(set(got["vec_id"]))
    with pytest.raises(ValueError, match="keep"):
        semdedup(emb_ds, C, keep="bogus")


def test_semdedup_keep_centroid_prefers_far_from_centroid(ray_session):
    """The paper's pick: within a duplicate pair, the member FARTHER from
    the centroid survives (keep-earliest would keep the smaller id)."""
    import ray.data as rd

    from riot_ray.pipelines import semdedup

    c = np.array([1.0, 0.0, 0.0])
    near = c * 0.999 + np.array([0.0, 0.01, 0.0])   # id 0: close to centroid
    far = near * 0.9 + np.array([0.0, 0.12, 0.0])   # id 1: same direction-ish
    # make them near-dups of each other (cos >= .95) but distinct csim
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([list(map(float, near)), list(map(float, far))],
                              pa.list_(pa.float64())),
    }))
    C = c[None, :].copy()
    ek = semdedup(ds, C, threshold=0.95).to_pandas()
    ck = semdedup(ds, C, threshold=0.95, keep="centroid").to_pandas()
    U = np.stack([near / np.linalg.norm(near), far / np.linalg.norm(far)])
    assert float(U[0] @ U[1]) >= 0.95  # they ARE near-dups
    assert set(ek["vec_id"]) == {0}    # earliest keeps id 0
    assert set(ck["vec_id"]) == {1}    # centroid keeps the farther one


# ---------------------------------------------------------------------------- #
# batch_retrieval: query-table top-k == the online searcher per query
# ---------------------------------------------------------------------------- #
def test_batch_retrieval_matches_online(corpus_index):
    import ray.data as rd

    from riot_ray.engine import LocalSearcher
    from riot_ray.pipelines import batch_retrieval
    from riot_ray.types import RankOpts, SearchReq

    idx = corpus_index["index_dir"]
    texts = ["parse json", "uuid parse", "http server", "zz_no_such_term http"]
    qs = rd.from_items(
        [{"query_id": i, "text": t} for i, t in enumerate(texts)]
    )
    got = batch_retrieval(qs, idx, k=4, concurrency=1).to_pandas()
    se = LocalSearcher(idx)
    for i, t in enumerate(texts):
        resp = se.search(SearchReq(text=t, rank_opts=RankOpts(max_outputs=4)))
        sub = got[got["query_id"] == i]
        assert list(sub["doc_id"]) == [h.doc_id for h in resp.docs]
        want_milli = [int(np.floor(h.bm25 * 1000.0 + 0.5)) for h in resp.docs]
        assert list(sub["score_milli"]) == want_milli
    assert (got["query_id"] == 3).sum() == 0  # no-match query: zero rows
    # batch-size independence: one query per batch == one batch of all
    got1 = batch_retrieval(qs, idx, k=4, concurrency=1, batch_size=1).to_pandas()
    a = got.sort_values(["query_id", "doc_id"]).reset_index(drop=True)
    b = got1.sort_values(["query_id", "doc_id"]).reset_index(drop=True)
    assert a.equals(b)


def test_batch_retrieval_pool_on_one_cpu(corpus_index):
    """batch_retrieval with concurrency=2 on a ONE-CPU Ray finishes with the
    same rows: the query table (repartitioned, so its plan runs tasks) is
    read before the pool's first actor takes the only CPU.  Runs in a
    subprocess with its own Ray, killed after a timeout, so a regression
    fails instead of hanging the suite."""
    import os
    import signal
    import subprocess
    import sys
    import textwrap

    import ray.data as rd

    from riot_ray.pipelines import batch_retrieval

    idx = corpus_index["index_dir"]
    texts = ["parse json", "uuid parse", "http server"]
    script = textwrap.dedent(f"""
        import ray
        import ray.data as rd
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        rd.DataContext.get_current().enable_progress_bars = False
        from riot_ray.pipelines import batch_retrieval
        qs = rd.from_items([{{"query_id": i, "text": t}}
                            for i, t in enumerate({texts!r})]).repartition(2)
        out = batch_retrieval(qs, {idx!r}, k=4, concurrency=2).to_pandas()
        print(sorted(zip(out.query_id, out.doc_id, out.score_milli)))
    """)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", script], cwd=repo,
        env={**os.environ, "PYTHONPATH": repo},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("batch_retrieval on a one-CPU Ray made no progress in 180 s")
    assert proc.returncode == 0, err[-3000:]
    qs = rd.from_items([{"query_id": i, "text": t} for i, t in enumerate(texts)])
    want = batch_retrieval(qs, idx, k=4, concurrency=1).to_pandas()
    assert out.strip().splitlines()[-1] == str(
        sorted(zip(want.query_id, want.doc_id, want.score_milli)))


# ---------------------------------------------------------------------------- #
# shuffle_shards: deterministic global shuffle + balanced round-robin shards
# ---------------------------------------------------------------------------- #
def test_shuffle_shards_balance_and_order(docs_ds):
    from riot_ray.pipelines import shuffle_shards

    ds = docs_ds.select_columns(["doc_id"])
    got = shuffle_shards(ds, n_shards=7, seed=3).to_pandas()
    n = len(got)
    # exact balance: shard sizes differ by at most 1
    sizes = got.groupby("shard").size()
    assert len(sizes) == 7 and sizes.max() - sizes.min() <= 1
    # rank is a permutation of 0..n-1
    assert sorted(got["rank"]) == list(range(n))
    # matches the SQL window oracle exactly
    exp = _duck(
        """
        WITH ordered AS (
          SELECT doc_id,
                 row_number() OVER (
                   ORDER BY md5('3:' || CAST(doc_id AS VARCHAR)), doc_id
                 ) - 1 AS rank
          FROM documents)
        SELECT doc_id, rank::BIGINT AS rank, (rank % 7)::BIGINT AS shard
        FROM ordered ORDER BY doc_id
        """
    ).to_pandas()
    g = got.sort_values("doc_id").reset_index(drop=True)
    assert (g["rank"].to_numpy() == exp["rank"].to_numpy()).all()
    assert (g["shard"].to_numpy() == exp["shard"].to_numpy()).all()
    # block-count independence: identical permutation at any partitioning
    got2 = (
        shuffle_shards(ds.repartition(11), n_shards=7, seed=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert (got2["rank"].to_numpy() == g["rank"].to_numpy()).all()
    # a different seed is a different permutation
    got3 = shuffle_shards(ds, n_shards=7, seed=4).to_pandas()
    m = got3.sort_values("doc_id")["rank"].to_numpy() != g["rank"].to_numpy()
    assert m.any()


def test_shuffle_shards_empty_input(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import shuffle_shards

    empty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))
    got = shuffle_shards(empty, n_shards=4)
    assert got.count() == 0
    # to_pandas drops columns on empty datasets; the SCHEMA is the contract
    assert got.schema().names == ["doc_id", "rank", "shard"]
    # the empty result's schema matches the NON-empty result's: string ids
    # keep their type, carry_rows keeps every input column
    sempty = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.string()),
                                     "x": pa.array([], pa.float64())}))
    g2 = shuffle_shards(sempty, n_shards=4)
    sch2 = g2.schema()
    assert sch2.names == ["doc_id", "rank", "shard"]
    assert sch2.base_schema.field("doc_id").type == pa.string()
    g3 = shuffle_shards(sempty, n_shards=4, carry_rows=True)
    sch3 = g3.schema()
    assert sch3.names == ["doc_id", "x", "rank", "shard"]
    assert sch3.base_schema.field("x").type == pa.float64()


def test_shuffle_shards_null_id_rejected(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import shuffle_shards

    # the two md5 backends disagree on nulls (DuckDB: NULL key; hashlib:
    # md5 of the stringified null) — both must reject instead
    t = pa.table({"doc_id": pa.array([1, None, 3], pa.int64())})
    with pytest.raises(Exception, match="non-null id"):
        shuffle_shards(rd.from_arrow(t), n_shards=2).materialize()


def test_exact_dedup_null_vs_empty_text(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import dedup_rows_exact, exact_dedup

    # SQL GROUP BY text keeps NULL and '' as SEPARATE groups; the digest
    # must too (a merged group would silently drop a non-duplicate row)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array([None, "", None, ""], pa.string()),
        }
    )
    kept = dedup_rows_exact(rd.from_arrow(t)).to_pandas()
    assert sorted(kept["doc_id"]) == [1, 2]
    surv = exact_dedup(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert list(surv["doc_id"]) == [1, 2]
    assert list(surv["n_copies"]) == [2, 2]


def test_shuffle_shards_key_is_vectorized_md5(ray_session):
    """The order key is the md5 hex of "{seed}:{id}" from the one hash
    kernel (riot_ray/hashing.py), bit-identical to hashlib for int64 AND
    string ids."""
    import hashlib as _hl

    from riot_ray.pipelines.sampling import _shuffle_key

    ids = np.array([-3, 0, 1, 7, 12345678901234], np.int64)
    ka = _shuffle_key(pa.chunked_array([pa.array(ids, pa.int64())]), 9)
    want = [_hl.md5(f"9:{i}".encode()).hexdigest() for i in ids]
    assert ka.to_pylist() == want
    s = ["a", "b:x", "", "héllo"]
    ks = _shuffle_key(pa.array(s, pa.string()), 0)
    assert ks.to_pylist() == [
        _hl.md5(f"0:{x}".encode()).hexdigest() for x in s]


def test_semdedup_dropped_partition_and_filter_ids(emb_ds, docs_ds):
    from riot_ray.pipelines import filter_ids, semdedup

    emb = emb_ds.take_all()
    ids = np.array(sorted(r["vec_id"] for r in emb), np.int64)
    V = np.stack([np.asarray(r["embedding"], np.float64)
                  for r in sorted(emb, key=lambda r: r["vec_id"])])
    C = V[:6].copy()
    surv = semdedup(emb_ds, C, threshold=0.4).to_pandas()
    drop = semdedup(emb_ds, C, threshold=0.4, emit="dropped").to_pandas()
    # survivors and dropped partition the id space
    assert len(surv) + len(drop) == len(ids)
    assert not set(surv["vec_id"]) & set(drop["vec_id"])
    assert set(surv["vec_id"]) | set(drop["vec_id"]) == set(ids)
    # filter_ids drop-mode removes exactly the dropped ids from the corpus
    kept = filter_ids(
        docs_ds.select_columns(["doc_id"]),
        drop["vec_id"].to_numpy(np.int64), id_col="doc_id"
    ).to_pandas()
    assert set(kept["doc_id"]) == set(ids) - set(drop["vec_id"])
    # keep-mode is the complement
    only = filter_ids(
        docs_ds.select_columns(["doc_id"]),
        drop["vec_id"].to_numpy(np.int64), id_col="doc_id", keep=True
    ).to_pandas()
    assert set(only["doc_id"]) == set(drop["vec_id"])
    with pytest.raises(ValueError):
        semdedup(emb_ds, C, emit="nope")


def test_shuffle_shards_carry_rows(docs_ds):
    from riot_ray.pipelines import shuffle_shards

    ds = docs_ds.select_columns(["doc_id", "lang", "n_chars"])
    slim = shuffle_shards(ds, n_shards=5, seed=2).to_pandas()
    full = shuffle_shards(ds, n_shards=5, seed=2, carry_rows=True).to_pandas()
    # identical assignment, full payload carried through the permutation
    assert set(full.columns) == {"doc_id", "lang", "n_chars", "rank", "shard"}
    a = slim.sort_values("doc_id").reset_index(drop=True)
    b = full.sort_values("doc_id").reset_index(drop=True)
    assert (a["rank"].to_numpy() == b["rank"].to_numpy()).all()
    assert (a["shard"].to_numpy() == b["shard"].to_numpy()).all()
    src = docs_ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (b["lang"].to_numpy() == src["lang"].to_numpy()).all()
    # rows arrive physically permuted (rank order), not in id order
    assert full["rank"].is_monotonic_increasing


def test_filter_ids_enforces_broadcast_gate(docs_ds, monkeypatch):
    from riot_ray.pipelines import filter_ids

    monkeypatch.setattr("riot_ray.pipelines.joins.BROADCAST_BYTES", 8)  # 1 int64 fits, 2 don't
    filter_ids(docs_ds, np.array([1], np.int64))  # at the gate: fine
    with pytest.raises(ValueError, match="broadcast gate"):
        filter_ids(docs_ds, np.array([1, 2], np.int64))


# ---------------------------------------------------------------------------- #
# rrf_fuse: reciprocal-rank fusion vs a brute-force dict reference
# ---------------------------------------------------------------------------- #
def _rrf_reference(lists, k, k0):
    """Plain-python RRF: lists = [{(qid, doc): rank}], top-k per query by
    (rrf desc, doc asc)."""
    agg = {}
    for lst in lists:
        for (q, d), r in lst.items():
            agg.setdefault(q, {}).setdefault(d, []).append(r)
    out = []
    for q in sorted(agg):
        scored = []
        for d, rs in agg[q].items():
            s = 0.0
            for r in sorted(rs):
                s += 1.0 / (k0 + r)
            scored.append((d, s))
        scored.sort(key=lambda x: (-x[1], x[0]))
        for rank, (d, s) in enumerate(scored[:k], 1):
            out.append((q, d, int(np.floor(s * 1e7 + 0.5)), rank))
    return out


def test_rrf_fuse_matches_reference(ray_session):
    import pyarrow as pa

    from riot_ray.pipelines import rrf_fuse

    rng = np.random.default_rng(7)
    n_q, n_docs, n_lists, kk = 6, 40, 3, 5
    lists, tables = [], []
    for li in range(n_lists):
        d = {}
        rows_q, rows_d, rows_r = [], [], []
        for q in range(n_q):
            docs = rng.choice(n_docs, size=8, replace=False)
            for r, doc in enumerate(docs, 1):
                d[(q, int(doc))] = r
                rows_q.append(q)
                rows_d.append(int(doc))
                rows_r.append(r)
        lists.append(d)
        tables.append(
            pa.table(
                {
                    "query_id": pa.array(rows_q, pa.int64()),
                    "doc_id": pa.array(rows_d, pa.int64()),
                    "rank": pa.array(rows_r, pa.int64()),
                }
            )
        )
    got = rrf_fuse(tables, k=kk, k0=60)
    want = _rrf_reference(lists, kk, 60)
    got_rows = list(
        zip(
            got["query_id"].to_pylist(),
            got["doc_id"].to_pylist(),
            got["rrf_micro"].to_pylist(),
            got["rank"].to_pylist(),
        )
    )
    assert sorted(got_rows) == sorted(want)
    # docs in multiple lists must actually sum (overlap exercised)
    overlap = set(lists[0]) & set(lists[1])
    assert overlap, "test corpus should overlap across lists"


def test_rrf_fuse_dataset_path_bit_equal(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from riot_ray.pipelines import rrf_fuse

    rng = np.random.default_rng(11)
    tables = []
    for li in range(2):
        rows_q, rows_d, rows_r = [], [], []
        for q in range(4):
            docs = rng.choice(30, size=6, replace=False)
            for r, doc in enumerate(docs, 1):
                rows_q.append(q)
                rows_d.append(int(doc))
                rows_r.append(r)
        tables.append(
            pa.table(
                {
                    "query_id": pa.array(rows_q, pa.int64()),
                    "doc_id": pa.array(rows_d, pa.int64()),
                    "rank": pa.array(rows_r, pa.int64()),
                }
            )
        )
    drv = rrf_fuse(tables, k=4, k0=60)
    dist = rrf_fuse([rd.from_arrow(t).repartition(3) for t in tables], k=4, k0=60)
    a = drv.to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = dist.to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert a.equals(b)


def test_rrf_fuse_edges(ray_session):
    import pyarrow as pa
    import pytest as _pytest

    from riot_ray.pipelines import rrf_fuse

    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
        }
    )
    out = rrf_fuse([empty, empty], k=5)
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "doc_id", "rrf_micro", "rank"]
    # custom column names route through
    t = pa.table(
        {
            "qid": pa.array([0, 0], pa.int64()),
            "vid": pa.array([3, 9], pa.int64()),
            "pos": pa.array([1, 2], pa.int64()),
        }
    )
    out2 = rrf_fuse([t], k=1, query_col="qid", id_col="vid", rank_col="pos")
    assert out2["doc_id"].to_pylist() == [3]
    assert out2["rrf_micro"].to_pylist() == [int(np.floor(1e7 / 61 + 0.5))]
    # 0-based ranks are a caller bug: loud, not silent
    bad = pa.table(
        {
            "query_id": pa.array([0], pa.int64()),
            "doc_id": pa.array([1], pa.int64()),
            "rank": pa.array([0], pa.int64()),
        }
    )
    with _pytest.raises(ValueError, match="1-based"):
        rrf_fuse([bad], k=1)
    # zero input lists: the typed empty result, not a concat crash
    empty = rrf_fuse([], k=5)
    assert empty.num_rows == 0
    assert empty.column_names == ["query_id", "doc_id", "rrf_micro", "rank"]


def test_rank_results_block_layout_independent(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from riot_ray.pipelines import rank_results

    # one query's rows deliberately scattered across many blocks — a
    # per-batch cumcount would restart ranks; the groupby path must not
    t = pa.table(
        {
            "query_id": pa.array([0, 1, 0, 1, 0, 1, 0, 1], pa.int64()),
            "doc_id": pa.array(["d7", "d1", "d2", "d9", "d5", "d3", "d0", "d2"]),
            "score_milli": pa.array([5, 9, 9, 9, 5, 2, 1, 4], pa.int64()),
        }
    )
    out = (
        rank_results(rd.from_arrow(t).repartition(8), "score_milli")
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    q0 = out[out["query_id"] == 0]
    # (milli desc, doc asc): d2(9), d5(5)<d7(5) by string, d0(1)
    assert list(q0["doc_id"]) == ["d2", "d5", "d7", "d0"]
    assert list(q0["rank"]) == [1, 2, 3, 4]
    q1 = out[out["query_id"] == 1]
    assert list(q1["doc_id"]) == ["d1", "d9", "d2", "d3"]


def test_hybrid_batch_matches_manual_fusion(corpus_index, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from riot_ray.engine import LocalSearcher
    from riot_ray.pipelines import hybrid_batch, knn_brute, rrf_fuse
    from riot_ray.types import RankOpts, SearchReq

    idx = corpus_index["index_dir"]
    texts = ["parse json", "http server"]
    qs = rd.from_items(
        [{"query_id": i, "text": t} for i, t in enumerate(texts)]
    ).repartition(2)

    # synthetic embedding table whose int ids we pretend are doc ids
    rng = np.random.default_rng(3)
    emb = pa.table(
        {
            "vec_id": pa.array(np.arange(50, dtype=np.int64), pa.int64()),
            "embedding": pa.array(
                [list(map(float, row)) for row in rng.normal(size=(50, 8))],
                pa.list_(pa.float32()),
            ),
        }
    )
    Q = rng.normal(size=(2, 8))
    qids = np.array([0, 1], np.int64)

    # string doc ids in this index don't parse as ints -> map them first
    se = LocalSearcher(idx)
    id_map, lex_rows = {}, []
    for qi, t in enumerate(texts):
        resp = se.search(SearchReq(text=t, rank_opts=RankOpts(max_outputs=4)))
        hits = [
            (int(np.floor(h.bm25 * 1000.0 + 0.5)), h.doc_id) for h in resp.docs
        ]
        hits.sort(key=lambda x: (-x[0], x[1]))
        for r, (_, d) in enumerate(hits, 1):
            lex_rows.append((qi, id_map.setdefault(d, 1000 + len(id_map)), r))
    lex = pa.table(
        {
            "query_id": pa.array([r[0] for r in lex_rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in lex_rows], pa.int64()),
            "rank": pa.array([r[2] for r in lex_rows], pa.int64()),
        }
    )
    vt = knn_brute(rd.from_arrow(emb), Q, qids, k=4)
    vec = pa.table(
        {"query_id": vt["query_id"], "doc_id": vt["vec_id"], "rank": vt["rank"]}
    )
    want = (
        rrf_fuse([lex, vec], k=4)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    # want: the manual composition.  hybrid_batch needs int-parsable doc
    # ids, so this test only checks the vec-side plumbing end-to-end plus
    # the fusion: queries with NO lexical leg (texts that match nothing).
    no_lex = rd.from_items(
        [{"query_id": 0, "text": "zz_nothing qq_matches"},
         {"query_id": 1, "text": "zz_nothing qq_matches"}]
    ).repartition(2)
    got = (
        hybrid_batch(no_lex, idx, rd.from_arrow(emb), Q, qids, k=4)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    vec_only = (
        rrf_fuse([vec], k=4)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert got.equals(vec_only)
    assert len(want) > 0  # the manual fused composition is non-trivial

    # full lexical+vector path: an index whose doc ids parse as ints (the
    # sf0.001 documents corpus) so the lex leg actually participates —
    # hybrid_batch vs an INDEPENDENT composition (LocalSearcher per query,
    # ranks by (milli desc, doc-id-string asc) = rank_results' tie order)
    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts

    opts = EngineOpts(mode="simple", id_cols=("doc_id",), content_col="text",
                      num_parts=4, num_shards=2)
    idx2 = str(tmp_path / "docs_index")
    IndexWriter(idx2, opts).build(f"{SF}/documents.parquet")

    texts2 = ["hash join merge", "window scan sort"]
    qs2 = rd.from_items(
        [{"query_id": i, "text": t} for i, t in enumerate(texts2)]
    ).repartition(2)
    emb2 = rd.read_parquet(f"{SF}/embeddings.parquet")
    Q2 = rng.normal(size=(2, len(emb2.take(1)[0]["embedding"])))

    se2 = LocalSearcher(idx2)
    lex2_rows = []
    for qi, t in enumerate(texts2):
        resp = se2.search(SearchReq(text=t, rank_opts=RankOpts(max_outputs=4)))
        hits = [
            (int(np.floor(h.bm25 * 1000.0 + 0.5)), h.doc_id) for h in resp.docs
        ]
        hits.sort(key=lambda x: (-x[0], x[1]))
        for r, (_, d) in enumerate(hits, 1):
            lex2_rows.append((qi, int(d), r))
    assert lex2_rows  # queries must really match lexically
    lex2 = pa.table(
        {
            "query_id": pa.array([r[0] for r in lex2_rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in lex2_rows], pa.int64()),
            "rank": pa.array([r[2] for r in lex2_rows], pa.int64()),
        }
    )
    vt2 = knn_brute(emb2, Q2, qids, k=4)
    vec2 = pa.table(
        {"query_id": vt2["query_id"], "doc_id": vt2["vec_id"],
         "rank": vt2["rank"]}
    )
    want2 = (
        rrf_fuse([lex2, vec2], k=4)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    got2 = (
        hybrid_batch(qs2, idx2, emb2, Q2, qids, k=4)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert got2.equals(want2)

    # vec_id_col plumbing: a renamed embedding-id column, identical result
    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            ["other" if c == "vec_id" else c for c in b.column_names])

    emb3 = emb2.map_batches(rename, batch_format="pyarrow")
    got3 = (
        hybrid_batch(qs2, idx2, emb3, Q2, qids, k=4, vec_id_col="other")
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert got3.equals(want2)


# ---------------------------------------------------------------------------- #
# int8 scalar quantization + exact-arithmetic ANN (round 5)
# ---------------------------------------------------------------------------- #
_INT8_SQL = """
WITH e AS (
  SELECT vec_id, unnest(embedding)::DOUBLE AS v,
         unnest(range(1, len(embedding)+1)) AS d
  FROM embeddings),
s AS (
  SELECT d, CASE WHEN max(abs(v)) > 0 THEN 127.0 / max(abs(v)) ELSE 0.0 END AS sc
  FROM e GROUP BY d),
c AS (
  SELECT e.vec_id, e.d,
         CAST(LEAST(GREATEST(FLOOR(e.v * s.sc + 0.5), -127), 127) AS BIGINT)
             AS code
  FROM e JOIN s USING (d)),
qc AS (SELECT vec_id AS query_id, d, code FROM c WHERE vec_id < 5),
dots AS (
  SELECT qc.query_id, c.vec_id, sum(qc.code * c.code)::BIGINT AS dot_q
  FROM qc JOIN c USING (d)
  GROUP BY qc.query_id, c.vec_id)
SELECT query_id, vec_id, dot_q,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY dot_q DESC, vec_id)::BIGINT AS rank
FROM dots
QUALIFY rank <= 10
ORDER BY query_id, rank
"""


def _first_queries(n=5):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    t = t.filter(pa.compute.less(t["vec_id"], n)).sort_by("vec_id")
    Q = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
    return Q, t["vec_id"].to_numpy(zero_copy_only=False)


def test_knn_int8_matches_sql(emb_ds):
    from riot_ray.pipelines import knn_int8

    Q, qids = _first_queries()
    got = knn_int8(emb_ds, Q, qids, k=10).sort_by(
        [("query_id", "ascending"), ("rank", "ascending")])
    exp = _duck(_INT8_SQL)
    assert got.to_pydict() == exp.to_pydict()


def test_knn_int8_block_count_invariant(emb_ds, ray_session):
    """Integer dots tie often — the local partial must be tie-exact or the
    result would depend on block layout."""
    from riot_ray.pipelines import knn_int8

    Q, qids = _first_queries()
    one = knn_int8(emb_ds.repartition(1), Q, qids, k=10)
    many = knn_int8(emb_ds.repartition(24), Q, qids, k=10)
    assert one.to_pydict() == many.to_pydict()


def test_knn_int8_recall_vs_float(emb_ds):
    """The quantization, not the search, is the approximation: pin its
    recall against float cosine (0.88 measured at sf0.01; bound loosely)."""
    from riot_ray.pipelines import knn_brute, knn_int8

    Q, qids = _first_queries()
    f = knn_brute(emb_ds, Q, qids, k=10)
    i = knn_int8(emb_ds, Q, qids, k=10)
    fa = set(zip(f["query_id"].to_pylist(), f["vec_id"].to_pylist()))
    ia = set(zip(i["query_id"].to_pylist(), i["vec_id"].to_pylist()))
    assert len(fa & ia) / len(fa) >= 0.7


def test_quantize_batch_half_up_rounding():
    """floor(x+0.5): 2.5 -> 3 but -2.5 -> -2 (half-UP, not numpy's
    half-even nor DuckDB round()'s half-away) — the cross-engine contract."""
    from riot_ray.pipelines import quantize_batch

    V = np.array([[2.5, -2.5, 0.49, -0.49, 200.0, -200.0]])
    s = np.ones(6)
    got = quantize_batch(V, s)
    assert got.tolist() == [[3, -2, 0, 0, 127, -127]]
    assert got.dtype == np.int8


def test_quantize_embeddings_roundtrip_and_scale_reuse(emb_ds, ray_session):
    from riot_ray.pipelines import embedding_scales, quantize_batch, quantize_embeddings

    codes_ds, scales = quantize_embeddings(emb_ds)
    rows = codes_ds.sort("vec_id").take_all()
    import pyarrow.parquet as pq

    src = pq.read_table(f"{SF}/embeddings.parquet").sort_by("vec_id")
    V = np.stack(src["embedding"].to_numpy(zero_copy_only=False))
    want = quantize_batch(V, scales)
    got = np.stack([np.asarray(r["code"], np.int8) for r in rows])
    assert (got == want).all()
    # scales fit once, reused on a second dataset (the query-encoding path)
    s2 = embedding_scales(emb_ds)
    assert (s2 == scales).all()
    # an all-zero dimension quantizes to 0 via scale 0
    Z = np.zeros((3, 2))
    assert (quantize_batch(Z, np.zeros(2)) == 0).all()


def test_embedding_scales_empty_raises(ray_session):
    import ray.data as rd

    from riot_ray.pipelines import embedding_scales

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    with pytest.raises(ValueError, match="empty"):
        embedding_scales(empty)


# ---------------------------------------------------------------------------- #
# DSIR importance resampling (round 5)
# ---------------------------------------------------------------------------- #
_DSIR_SQL = """
WITH toksd AS (
  SELECT doc_id, lang,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
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
  FROM occ1 a JOIN occ1 b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1),
bk AS (
  SELECT doc_id, lang,
         ('0x' || substr(md5(f), 1, 16))::UBIGINT % 4096 AS b
  FROM feat),
tcnt AS (SELECT b, count(*)::BIGINT AS c FROM bk WHERE lang = 'en' GROUP BY b),
rcnt AS (SELECT b, count(*)::BIGINT AS c FROM bk GROUP BY b),
tt AS (SELECT sum(c) + 4096 AS n FROM tcnt),
rt AS (SELECT sum(c) + 4096 AS n FROM rcnt),
lam AS (
  SELECT r.b,
         CAST(FLOOR(ln((COALESCE(t.c, 0) + 1) / (SELECT n FROM tt)::DOUBLE)
                    * 1000000 + 0.5) AS BIGINT)
         - CAST(FLOOR(ln((r.c + 1) / (SELECT n FROM rt)::DOUBLE)
                      * 1000000 + 0.5) AS BIGINT) AS l
  FROM rcnt r LEFT JOIN tcnt t ON r.b = t.b)
SELECT bk.doc_id, count(*)::BIGINT AS n_feats, sum(lam.l)::BIGINT AS weight_micro
FROM bk JOIN lam ON bk.b = lam.b
GROUP BY bk.doc_id
ORDER BY doc_id
"""


@pytest.fixture(scope="module")
def dsir_target(docs_ds):
    return docs_ds.filter(expr="lang == 'en'")


def test_dsir_weights_match_sql(docs_ds, dsir_target):
    from riot_ray.pipelines import dsir_weights

    got = (
        dsir_weights(docs_ds, dsir_target, n_buckets=4096, ngrams=2)
        .sort("doc_id").take_all()
    )
    exp = _duck(_DSIR_SQL).to_pylist()
    assert got == exp


def test_dsir_sample_matches_sql_qualify(docs_ds, dsir_target):
    from riot_ray.pipelines import dsir_sample

    got = dsir_sample(docs_ds, dsir_target, n=50, n_buckets=4096, ngrams=2)
    exp = _duck(
        f"""
        WITH w AS ({_DSIR_SQL.replace('ORDER BY doc_id', '')})
        SELECT doc_id, weight_micro FROM w
        QUALIFY row_number() OVER (ORDER BY weight_micro DESC, doc_id) <= 50
        ORDER BY weight_micro DESC, doc_id
        """
    )
    assert got.to_pydict() == exp.to_pydict()


def test_dsir_target_lang_scores_higher(docs_ds, dsir_target):
    """Directional: the en-target model must weight en docs above the
    rest on average — the operator's whole point."""
    from riot_ray.pipelines import dsir_weights

    w = dsir_weights(docs_ds, dsir_target, n_buckets=4096, ngrams=2)
    df = w.to_pandas().merge(
        docs_ds.select_columns(["doc_id", "lang"]).to_pandas(), on="doc_id")
    per = df["weight_micro"] / df["n_feats"]
    assert per[df["lang"] == "en"].mean() > per[df["lang"] != "en"].mean()


def test_dsir_lam_reuse_and_block_invariance(docs_ds, dsir_target, ray_session):
    from riot_ray.pipelines import dsir_fit, dsir_sample, dsir_weights

    lam = dsir_fit(docs_ds, dsir_target, n_buckets=4096, ngrams=2)
    assert lam.shape == (4096,) and lam.dtype == np.int64
    refit = dsir_weights(docs_ds, dsir_target, n_buckets=4096,
                         ngrams=2).sort("doc_id").take_all()
    reuse = dsir_weights(docs_ds, dsir_target, n_buckets=4096, ngrams=2,
                         lam=lam).sort("doc_id").take_all()
    assert refit == reuse
    one = dsir_sample(docs_ds.repartition(1), dsir_target, n=25,
                      n_buckets=4096, ngrams=2, lam=lam)
    many = dsir_sample(docs_ds.repartition(16), dsir_target, n=25,
                       n_buckets=4096, ngrams=2, lam=lam)
    assert one.to_pydict() == many.to_pydict()


def test_dsir_unigram_only_mode(docs_ds, dsir_target):
    """ngrams=1 drops bigram features: n_feats == the token count."""
    from riot_ray.pipelines import dsir_weights

    w = dsir_weights(docs_ds, dsir_target, n_buckets=4096, ngrams=1)
    nf = w.sort("doc_id").take_all()
    exp = _duck(
        """
        SELECT doc_id,
               len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                               x -> x <> ''))::BIGINT AS n
        FROM documents ORDER BY doc_id
        """
    ).to_pylist()
    assert [r["n_feats"] for r in nf] == [r["n"] for r in exp if r["n"] > 0]


def test_knn_int8_codes_bit_identical_to_float_corpus(emb_ds, ray_session, tmp_path):
    """Searching PERSISTED codes (the 4x-smaller-scan deployment shape)
    must equal knn_int8 over the original float corpus — same scales,
    same integer dots, same ties — including through a parquet
    write/read round-trip."""
    import ray.data as rd

    from riot_ray.pipelines import knn_int8, knn_int8_codes, quantize_embeddings

    Q, qids = _first_queries()
    codes_ds, scales = quantize_embeddings(emb_ds)
    codes_ds.write_parquet(str(tmp_path / "codes"))
    stored = rd.read_parquet(str(tmp_path / "codes"))

    want = knn_int8(emb_ds, Q, qids, k=10)
    got = knn_int8_codes(stored, Q, scales, query_ids=qids, k=10)
    assert got.to_pydict() == want.to_pydict()
    # block-layout invariance on the codes side too
    got24 = knn_int8_codes(stored.repartition(24), Q, scales,
                           query_ids=qids, k=10)
    assert got24.to_pydict() == want.to_pydict()
    # default query_ids = arange
    anon = knn_int8_codes(stored, Q, scales, k=10)
    assert anon["vec_id"].to_pylist() == want["vec_id"].to_pylist()


def test_knn_int8_codes_rejects_scale_dimension_mismatch(emb_ds, ray_session):
    from riot_ray.pipelines import knn_int8_codes, quantize_embeddings

    Q, qids = _first_queries()
    codes_ds, scales = quantize_embeddings(emb_ds)
    d = Q.shape[1]
    with pytest.raises(ValueError, match=f"scales has {d - 1} entries.*dimension {d}"):
        knn_int8_codes(codes_ds, Q, scales[:-1], query_ids=qids, k=5)


def test_knn_int8_codes_rejects_code_dimension_mismatch(emb_ds, ray_session):
    """Codes persisted with another dimensionality must fail with the two
    dimensions named, not a numpy reshape error or silent mis-scoring."""
    from riot_ray.pipelines import knn_int8_codes, quantize_embeddings

    Q, qids = _first_queries()
    codes_ds, scales = quantize_embeddings(emb_ds)
    d = Q.shape[1]
    # raised in the scan task; Ray Data re-raises it wrapped, message intact
    with pytest.raises(Exception, match=rf"ValueError: knn_int8_codes: \d+ code "
                       rf"rows hold \d+ values, not \d+ x {d - 2}"):
        knn_int8_codes(codes_ds, Q[:, :-2], scales[:-2], query_ids=qids, k=5)


def test_dsir_gumbel_sampler(docs_ds, dsir_target, ray_session):
    """temperature>0: the paper's Gumbel-top-k — deterministic given
    seed, block-layout independent, seed-sensitive, temperature-consistent
    (T->0 recovers the deterministic top-n), and the noisy key replays
    exactly in DuckDB."""
    from riot_ray.pipelines import dsir_fit, dsir_sample

    lam = dsir_fit(docs_ds, dsir_target, n_buckets=4096, ngrams=2)
    det = dsir_sample(docs_ds, dsir_target, n=30, n_buckets=4096, lam=lam)
    g1 = dsir_sample(docs_ds, dsir_target, n=30, n_buckets=4096, lam=lam,
                     temperature=1.0, seed=11)
    g1b = dsir_sample(docs_ds.repartition(16), dsir_target, n=30,
                      n_buckets=4096, lam=lam, temperature=1.0, seed=11)
    g2 = dsir_sample(docs_ds, dsir_target, n=30, n_buckets=4096, lam=lam,
                     temperature=1.0, seed=12)
    assert g1.to_pydict() == g1b.to_pydict()          # layout-independent
    assert g1.to_pydict() != g2.to_pydict()           # seed matters
    assert set(g1[0].to_pylist()) != set(det[0].to_pylist())  # noise acts
    # tiny temperature ~ deterministic limit (weights are ~1e3-nat scale)
    g0 = dsir_sample(docs_ds, dsir_target, n=30, n_buckets=4096, lam=lam,
                     temperature=1e-9, seed=11)
    assert g0[0].to_pylist() == det[0].to_pylist()
    # SQL twin of the noisy selection; exact only while numpy's log and
    # DuckDB's ln agree bit for bit (see select._gumbel_keys)
    exp = _duck(
        f"""
        WITH w AS ({_DSIR_SQL.replace('ORDER BY doc_id', '')}),
        key AS (
          SELECT doc_id, weight_micro,
                 weight_micro * 1e-6 + 1.0 * (-ln(-ln(
                   ((('0x' || substr(md5('11:' || doc_id), 1, 16))::UBIGINT
                     // 2048) | 1)::DOUBLE * power(2.0, -53)))) AS k
          FROM w)
        SELECT doc_id, weight_micro FROM key
        QUALIFY row_number() OVER (ORDER BY k DESC, doc_id) <= 30
        ORDER BY k DESC, doc_id
        """
    )
    assert g1.to_pydict() == exp.to_pydict()


_GUMBEL_THREADS = """
import hashlib, sys, threading
import numpy as np
from riot_ray.pipelines.select import _gumbel_keys

def want(ids, seed):
    h = np.array([int(hashlib.md5(f"{seed}:{v}".encode()).hexdigest()[:16], 16)
                  for v in ids], dtype=np.uint64)
    u = ((h >> np.uint64(11)) | np.uint64(1)).astype(np.float64) * 2.0 ** -53
    return -np.log(-np.log(u))

jobs = [(np.arange(i * 1000, i * 1000 + 300, dtype=np.int64), i) for i in range(8)]
expect = [want(ids, seed) for ids, seed in jobs]
bad = []

def run(k):
    ids, seed = jobs[k]
    for _ in range(25):
        got = _gumbel_keys(ids, np.zeros(len(ids), np.int64), 1.0, seed)
        if not np.array_equal(got, expect[k]):
            bad.append(k)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
for t in threads:
    t.start()
for t in threads:
    t.join()
print("BAD", sorted(set(bad)))
"""


def test_gumbel_keys_thread_safe():
    """Threaded callers must each get the keys of their own ids (the
    hash kernel keeps no shared state); checked against the pure hashlib
    form of the same key, with more threads than cores and a short
    switch interval.  Runs in a child process: a deadlock must fail this
    test, not hang the suite."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        out = subprocess.run([sys.executable, "-c", _GUMBEL_THREADS], cwd=root,
                             capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        pytest.fail("threaded _gumbel_keys calls did not finish in 120 s")
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().splitlines()[-1] == "BAD []"


def test_dsir_sample_gated_fanin_reduce(docs_ds, dsir_target, ray_session,
                                        monkeypatch):
    """Force the distributed fan-in rounds (tiny driver gate) — the gated
    path must equal the one-pass driver reduce exactly, deterministic and
    Gumbel both."""
    from riot_ray.pipelines import dsir_fit, dsir_sample
    from riot_ray.pipelines import select as sel_mod

    lam = dsir_fit(docs_ds, dsir_target, n_buckets=4096, ngrams=2)
    many = docs_ds.repartition(32)
    want = dsir_sample(many, dsir_target, n=25, n_buckets=4096, lam=lam)
    wantg = dsir_sample(many, dsir_target, n=25, n_buckets=4096, lam=lam,
                        temperature=1.0, seed=4)
    monkeypatch.setattr(sel_mod, "_DRIVER_TOPN_MAX_ROWS", 40)
    got = dsir_sample(many, dsir_target, n=25, n_buckets=4096, lam=lam)
    gotg = dsir_sample(many, dsir_target, n=25, n_buckets=4096, lam=lam,
                       temperature=1.0, seed=4)
    assert got.to_pydict() == want.to_pydict()
    assert gotg.to_pydict() == wantg.to_pydict()
