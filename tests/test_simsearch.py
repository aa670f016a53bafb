"""kNN operators on exact score ties (riot_ray/pipelines/simsearch.py).

Every base vector is stored as ten exact copies, rows shuffled and ids
unrelated to storage order, and k is smaller than a tie group, so which
tied rows each batch keeps decides the result.  Every component is
+-0.25 in 16 dims: each vector is exactly unit-norm and every dot product
is a multiple of 1/16, so the ties are exact under any summation order.
"""

import numpy as np
import pyarrow as pa
import pytest

DIM, N_BASE, COPIES, K = 16, 40, 10, 3


def _signs(rng, n):
    return np.where(rng.random((n, DIM)) < 0.5, -0.25, 0.25)


@pytest.fixture(scope="module")
def tied(ray_session):
    rng = np.random.default_rng(11)
    base = _signs(rng, N_BASE)
    V = np.repeat(base, COPIES, axis=0)[rng.permutation(N_BASE * COPIES)]
    ids = rng.permutation(len(V)).astype(np.int64) * 7 + 3
    table = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(list(V.astype(np.float32)),
                              pa.list_(pa.float32())),
    })
    Q = np.vstack([base[[0, 5, 9]], _signs(rng, 2)])
    qids = np.arange(len(Q), dtype=np.int64) + 100
    return table, Q, qids


def _ds(table, blocks):
    import ray.data as rd

    return rd.from_arrow(table).repartition(blocks).materialize()


def _reference(table, Q, qids, k):
    """Top-k per query by (cosine desc, vec_id asc) — the SQL oracles'
    ``ORDER BY cosine DESC, vec_id``."""
    V = np.stack(table["embedding"].to_numpy(zero_copy_only=False))
    ids = table["vec_id"].to_numpy()
    S = Q @ V.astype(np.float64).T
    out = {"query_id": [], "vec_id": [], "cosine": [], "rank": []}
    for qi, qid in enumerate(qids):
        for r, j in enumerate(np.lexsort((ids, -S[qi]))[:k]):
            out["query_id"].append(int(qid))
            out["vec_id"].append(int(ids[j]))
            out["cosine"].append(float(S[qi, j]))
            out["rank"].append(r + 1)
    return out


@pytest.mark.parametrize("blocks", [1, 24])
def test_exact_knn_breaks_ties_by_vec_id(tied, blocks, tmp_path):
    """The exact operators equal the (cosine desc, vec_id asc) reference
    at any block layout, even when a tie group straddles the k cut."""
    from riot_ray.pipelines import (build_ivf_index, knn_brute, knn_int8,
                                    knn_ivf, knn_ivf_query)

    table, Q, qids = tied
    ds = _ds(table, blocks)
    ref = _reference(table, Q, qids, K)
    assert knn_brute(ds, Q, qids, k=K).to_pydict() == ref
    assert knn_ivf(ds, Q, qids, k=K, n_lists=4, nprobe=4).to_pydict() == ref
    idx = str(tmp_path / "ivf")
    build_ivf_index(ds, idx, fingerprint="ties", n_lists=4)
    assert knn_ivf_query(idx, Q, qids, k=K, nprobe=4).to_pydict() == ref
    # int8 dots are 127^2 * 16 * cosine here: the same order
    got = knn_int8(ds, Q, qids, k=K).to_pydict()
    assert (got["vec_id"], got["rank"]) == (ref["vec_id"], ref["rank"])


def test_approximate_knn_is_block_layout_independent(tied, tmp_path):
    """LSH, IVF-PQ and int8 return the same rows at 1 and 24 blocks."""
    from riot_ray.pipelines import (build_pq_index, knn_int8, knn_int8_codes,
                                    knn_lsh, knn_pq_query, quantize_embeddings)

    table, Q, qids = tied
    runs = []
    for blocks in (1, 24):
        ds = _ds(table, blocks)
        idx = str(tmp_path / f"pq{blocks}")
        build_pq_index(ds, idx, fingerprint="ties", n_lists=4, pq_m=4,
                       pq_ks=8)
        codes, scales = quantize_embeddings(ds)
        runs.append([
            knn_lsh(ds, Q, qids, k=K, multiprobe=2).to_pydict(),
            knn_pq_query(idx, Q, qids, k=K, nprobe=2).to_pydict(),
            knn_int8(ds, Q, qids, k=K).to_pydict(),
            knn_int8_codes(codes, Q, scales, query_ids=qids, k=K).to_pydict(),
        ])
    one, many = runs
    for got1, got24 in zip(one, many):
        assert got1 == got24 and got1["vec_id"]


def test_knn_lsh_rejects_multiprobe_on_driver(tied):
    """An unsupported ``multiprobe`` is a plain ValueError raised before
    any Ray task starts, not a task error Ray re-raises wrapped."""
    import ray.data as rd

    from riot_ray.pipelines import knn_lsh

    table, Q, qids = tied
    with pytest.raises(ValueError, match="multiprobe=3") as err:
        knn_lsh(rd.from_arrow(table), Q, qids, multiprobe=3)
    assert type(err.value) is ValueError
