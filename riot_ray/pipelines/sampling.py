"""Deterministic sampling operators for training-data curation.

Both operators key off a stable 64-bit hash (first 8 md5 bytes of
``"{id}#{seed}"``, computed by :mod:`riot_ray.hashing` like the token
hashes) so results are reproducible across runs, cluster sizes, and
partitionings, and SQL-oracle-checkable:

* ``hash_sample`` — Bernoulli sampling as a pure per-batch filter: keep a
  row iff ``h64 < frac * 2^64``.  No shuffle, no state; at 100 TB this is
  the only sampling shape that doesn't move data.
* ``token_budget_sample`` — keep docs in hash order until a corpus-level
  token budget is reached ("give me exactly N tokens"), computed exactly
  without a global sort: per-bucket token sums on the hash's top bits, the
  driver resolves only the single crossing bucket.
* ``stratified_cap`` — at most ``max_per_key`` rows per key (e.g. per
  source/domain), chosen as the rows with the smallest hashes.  Scale
  shape: map-side partial top-N per key per batch (bounded), one small
  groupby over the partials, then the winner-id set broadcast back as a
  filter — the full corpus never shuffles, only (#keys x max_per_key x
  #batches) partial rows do.  The winner set must fit the object store
  (#keys x max_per_key ids); that is the operator's documented partitioning
  assumption — cap selection at billions of keys should switch to a
  hash-join filter instead of a broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import hex_digest, id_strings, u64
from ..query import lookup_sorted
from .joins import _member_filter

TWO64 = float(2**64)


def _id_hashes(ids, seed: int) -> np.ndarray:
    """u64 = first 8 md5 bytes of "{id}#{seed}", big-endian — DuckDB:
    ``('0x' || substr(md5(id::VARCHAR || '#<seed>'), 1, 16))::UBIGINT``.
    ``ids`` is an Arrow column or array-like of integer or string ids
    (:func:`riot_ray.hashing.id_strings`); a null id raises."""
    return u64(pc.binary_join_element_wise(id_strings(ids), f"{seed}", "#"))


def hash_sample(ds, frac: float, id_col: str = "doc_id", seed: int = 0):
    """Deterministic Bernoulli sample: keep rows whose id-hash falls below
    ``frac`` of the 64-bit space.  Content-stable: the same id survives in
    every run and at every cluster size."""
    if not 0.0 <= frac <= 1.0:
        raise ValueError(frac)
    if frac >= 1.0:
        # keep-everything must be exactly everything: the clamped cutoff
        # below would exclude an id whose hash is 2**64-1.
        return ds
    cut = np.uint64(min(int(frac * TWO64), 2**64 - 1))

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(_id_hashes(batch[id_col], seed) < cut))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_cap(
    ds,
    key_col: str = "source",
    max_per_key: int = 100,
    id_col: str = "doc_id",
    seed: int = 0,
):
    """Keep at most ``max_per_key`` rows per key — the rows with the
    smallest id-hashes (ties impossible: md5 of distinct ids).  Equalizes
    over-represented sources/domains without a full shuffle."""
    def partial_topn(batch: pa.Table) -> pa.Table:
        """Per-batch, per-key N smallest (hash, id) — bounded output."""
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = _id_hashes(batch[id_col], seed)
        keys = batch[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        kenc = keys.dictionary_encode()
        if isinstance(kenc, pa.ChunkedArray):
            kenc = kenc.combine_chunks()
        codes = kenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((h, codes))
        # rank within key run
        c_sorted = codes[order]
        starts = np.r_[0, np.flatnonzero(np.diff(c_sorted)) + 1]
        rank = np.arange(len(order)) - np.repeat(starts, np.diff(np.r_[starts, len(order)]))
        sel = order[rank < max_per_key]
        return pa.table(
            {
                "key": keys.take(pa.array(sel, pa.int64())),
                "id": pa.array(ids[sel], batch[id_col].type),
                "h": pa.array(h[sel], pa.uint64()),
            }
        )

    partials = ds.map_batches(partial_topn, batch_format="pyarrow")

    def final_topn(group: pa.Table) -> pa.Table:
        h = group["h"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")[:max_per_key]
        return pa.table({"id": group["id"].take(pa.array(order, pa.int64()))})

    winners = (
        partials.groupby("key").map_groups(final_topn, batch_format="pyarrow")
    )
    return _member_filter(ds, winners.to_pandas()["id"].to_numpy(), id_col,
                          keep=True, dtype=None)


def token_budget_sample(
    ds,
    budget: int,
    text_col: str = "text",
    id_col: str = "doc_id",
    seed: int = 0,
    bucket_bits: int = 16,
):
    """Keep documents in id-hash order until the cumulative word-token count
    reaches ``budget`` — "give me exactly N tokens of this corpus",
    deterministic and cluster-size-independent.  A doc is kept iff the
    cumulative token count up to AND INCLUDING it (ordered by (hash, id))
    is <= budget; SQL: ``SUM(n) OVER (ORDER BY h, doc_id) <= budget``.

    Exact WITHOUT a global sort: buckets = the hash's TOP ``bucket_bits``
    bits, so bucket order == hash order.  Pass 1 aggregates per-bucket
    token sums (<= 2^bucket_bits tiny rows); the driver prefix-sums them to
    find the single crossing bucket, then resolves only THAT bucket's docs
    (corpus/2^bucket_bits rows) exactly.  Pass 2 filters: bucket below the
    crossing one -> keep, crossing bucket -> keep the resolved winner ids.
    Token model = analysis.token_stats "n_tokens" (SQL-checkable)."""
    import ray

    from .analysis import _flatten_tokens

    shift = np.uint64(64 - bucket_bits)

    def doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        _, parents = _flatten_tokens(texts)
        n = np.bincount(parents, minlength=len(ids)).astype(np.int64)
        h = _id_hashes(batch[id_col], seed)
        return pa.table(
            {
                "id": pa.array(ids, batch[id_col].type),
                "h": pa.array(h, pa.uint64()),
                "n": pa.array(n, pa.int64()),
                "bucket": pa.array((h >> shift).astype(np.int64), pa.int64()),
            }
        )

    def bucket_partial(batch: pa.Table) -> pa.Table:
        b = batch["bucket"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        ub, inv = np.unique(b, return_inverse=True)
        sums = np.bincount(inv, weights=n).astype(np.int64)
        return pa.table({"bucket": pa.array(ub, pa.int64()),
                         "n": pa.array(sums, pa.int64())})

    # one row per doc (id, hash, token count, bucket) — materialized so the
    # histogram pass and the crossing-bucket fetch don't re-tokenize the
    # corpus; ~32 B/doc, spills to the object store if needed
    meta = ds.map_batches(doc_rows, batch_format="pyarrow").materialize()

    parts = meta.map_batches(bucket_partial, batch_format="pyarrow").to_pandas()
    hist = parts.groupby("bucket")["n"].sum().sort_index()
    cum = hist.cumsum()
    over = cum[cum > budget]
    if len(over) == 0:
        return ds  # budget covers the whole corpus
    cross = int(over.index[0])
    cum_before = int(cum.loc[cross] - hist.loc[cross])

    # resolve the crossing bucket exactly (corpus / 2^bucket_bits rows)
    def pick_cross(batch: pa.Table) -> pa.Table:
        b = batch["bucket"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(b == cross))

    bdf = (
        meta.map_batches(pick_cross, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["h", "id"])
    )
    within = cum_before + bdf["n"].cumsum()
    winners = np.sort(bdf.loc[within <= budget, "id"].to_numpy())
    winners_ref = ray.put(winners)

    def filter_rows(batch: pa.Table) -> pa.Table:
        win = ray.get(winners_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = _id_hashes(batch[id_col], seed)
        b = (h >> shift).astype(np.int64)
        mask = b < cross
        in_cross = b == cross
        if in_cross.any():
            _, hit = lookup_sorted(win, ids[in_cross])
            mask[in_cross] = hit
        return batch.filter(pa.array(mask))

    return ds.map_batches(filter_rows, batch_format="pyarrow")


def top_k_per_group(
    ds,
    key_col: str,
    score_col: str,
    k: int = 10,
    id_col: str = "doc_id",
    descending: bool = True,
):
    """Keep each key's top-``k`` rows by ``(score, id)`` — e.g. the best k
    docs per source/domain by a quality score.  Same scale shape as
    stratified_cap: per-batch per-key partial top-k (bounded), one small
    groupby over the partials, winner-id set broadcast back as a filter;
    the corpus itself never shuffles.  Ties break to the smaller id, so
    the result is deterministic for integer scores."""
    sgn = -1.0 if descending else 1.0

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sc = batch[score_col].to_numpy(zero_copy_only=False).astype(np.float64)
        keys = batch[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        kenc = keys.dictionary_encode()
        if isinstance(kenc, pa.ChunkedArray):
            kenc = kenc.combine_chunks()
        codes = kenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, sgn * sc, codes))
        c_sorted = codes[order]
        starts = np.r_[0, np.flatnonzero(np.diff(c_sorted)) + 1]
        rank = np.arange(len(order)) - np.repeat(
            starts, np.diff(np.r_[starts, len(order)]))
        sel = order[rank < k]
        return pa.table(
            {
                "key": keys.take(pa.array(sel, pa.int64())),
                "id": pa.array(ids[sel], batch[id_col].type),
                "score": pa.array(sc[sel], pa.float64()),
            }
        )

    def final_topk(group: pa.Table) -> pa.Table:
        ids = group["id"].to_numpy(zero_copy_only=False)
        sc = group["score"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, sgn * sc))[:k]
        return pa.table({"id": group["id"].take(pa.array(order, pa.int64()))})

    winners = (
        ds.map_batches(partial_topk, batch_format="pyarrow")
        .groupby("key")
        .map_groups(final_topk, batch_format="pyarrow")
    )
    return _member_filter(ds, winners.to_pandas()["id"].to_numpy(), id_col,
                          keep=True, dtype=None)


def pack_sequences(
    ds,
    budget_tokens: int = 2048,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 8,
):
    """Greedy first-fit-in-order packing of docs into token-budget training
    sequences: ``(id_col, n_tokens, bucket, seq_id, seq_pos)`` where docs
    are packed in ``id`` order within ``bucket = id % n_buckets``, a doc
    opens a new sequence iff it would overflow ``budget_tokens`` and the
    current sequence is non-empty (an oversized doc gets its own
    sequence), ``seq_id = bucket * 2^40 + local_bin`` is globally unique,
    and ``seq_pos`` is the doc's position within its sequence.

    Packing is a sequential recurrence, so it cannot be a global
    vectorized pass; the bucket IS the documented parallel unit — the
    greedy loop runs per bucket (plain integer ops, O(rows)), buckets run
    concurrently, and the modulo bucket key keeps the rule reproducible
    across cluster sizes and SQL-expressible (a recursive CTE replays the
    same recurrence).  Token counts use the shared ``[^a-z0-9]+`` split."""
    from .analysis import _flatten_tokens

    if budget_tokens <= 0 or n_buckets <= 0:
        raise ValueError("budget_tokens and n_buckets must be positive")

    def count(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _flat, parents = _flatten_tokens(batch[text_col])
        n_tok = np.bincount(parents, minlength=len(ids)).astype(np.int64)
        bucket = (ids % n_buckets).astype(np.int64)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_tokens": pa.array(n_tok, pa.int64()),
                         "bucket": pa.array(bucket, pa.int64())})

    def pack(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64()),
                             "seq_id": pa.array([], pa.int64()),
                             "seq_pos": pa.array([], pa.int64())})
        ids = group[id_col].to_numpy(zero_copy_only=False)
        n_tok = group["n_tokens"].to_numpy(zero_copy_only=False)
        bucket = group["bucket"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        ids, n_tok, bucket = ids[order], n_tok[order], bucket[order]
        bins = np.empty(len(ids), np.int64)
        pos = np.empty(len(ids), np.int64)
        filled = 0
        b = 0
        p = 0
        for i, n in enumerate(n_tok.tolist()):  # sequential recurrence
            if filled + n > budget_tokens and filled > 0:
                b += 1
                filled = 0
                p = 0
            bins[i] = b
            pos[i] = p
            p += 1
            filled += n
        seq_id = bucket * (1 << 40) + bins
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_tokens": pa.array(n_tok, pa.int64()),
                         "bucket": pa.array(bucket, pa.int64()),
                         "seq_id": pa.array(seq_id, pa.int64()),
                         "seq_pos": pa.array(pos, pa.int64())})

    return (
        ds.map_batches(count, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pack, batch_format="pyarrow")
    )


def source_mix_sample(
    ds,
    weights: dict,
    token_budget: int,
    group_col: str = "lang",
    text_col: str = "text",
    id_col: str = "doc_id",
    seed: int = 7,
):
    """Domain reweighting (the Pile/Dolma mixing pattern): target token
    share ``weights[g]`` per ``group_col`` value and an overall
    ``token_budget`` give each group the keep fraction
    ``f_g = min(1, token_budget * w_g / T_g)`` where ``T_g`` is the group's
    total token count; docs are then kept by the deterministic id-hash
    Bernoulli (same hash as :func:`hash_sample`).  Groups absent from
    ``weights`` are dropped.  Returns ``(id_col, group_col, n_tokens)``
    for kept docs.

    Scale shape: pass 1 is a per-batch partial-sum of (group, tokens) —
    the shuffle carries #groups rows per batch, and the #groups-sized
    totals dict is the ONLY driver-side state (domains are dozens, not
    millions — the documented assumption); pass 2 is a map-only filter
    with the per-group cuts in the task closure.  The float comparison
    ``hash::double < f_g * 2^64`` is evaluated with identical IEEE ops by
    the DuckDB oracle, so the kept set is hash-exact."""
    from .analysis import _flatten_tokens

    def totals_partial(batch: pa.Table) -> pa.Table:
        groups = batch[group_col]
        if isinstance(groups, pa.ChunkedArray):
            groups = groups.combine_chunks()
        _flat, parents = _flatten_tokens(batch[text_col])
        n_tok = np.bincount(parents, minlength=len(groups)).astype(np.int64)
        denc = pc.dictionary_encode(groups)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy(zero_copy_only=False)
        tot = np.bincount(codes, weights=n_tok,
                          minlength=len(denc.dictionary)).astype(np.int64)
        return pa.table({group_col: denc.dictionary,
                         "tok": pa.array(tot, pa.int64())})

    tp = ds.map_batches(totals_partial, batch_format="pyarrow").to_pandas()
    totals = tp.groupby(group_col)["tok"].sum().to_dict()
    cuts = {
        g: min(1.0, token_budget * float(w) / float(totals[g])) * float(2**64)
        for g, w in weights.items()
        if totals.get(g)
    }

    def keep(batch: pa.Table) -> pa.Table:
        groups = batch[group_col]
        if isinstance(groups, pa.ChunkedArray):
            groups = groups.combine_chunks()
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _flat, parents = _flatten_tokens(batch[text_col])
        n_tok = np.bincount(parents, minlength=len(ids)).astype(np.int64)
        denc = pc.dictionary_encode(groups)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy(zero_copy_only=False)
        cut_by_code = np.array(
            [cuts.get(v, -1.0) for v in denc.dictionary.to_pylist()],
            dtype=np.float64,
        )
        h = _id_hashes(batch[id_col], seed).astype(np.float64)
        mask = h < cut_by_code[codes]
        return pa.table({id_col: pa.array(ids[mask], pa.int64()),
                         group_col: groups.filter(pa.array(mask)),
                         "n_tokens": pa.array(n_tok[mask], pa.int64())})

    return ds.map_batches(keep, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# deterministic global shuffle -> exactly-balanced training shards
# --------------------------------------------------------------------------- #
def _seeded_key(ids, seed: int) -> pa.Array:
    """``"{seed}:{id}"`` per row, SQL ``seed || ':' || id`` — the shuffle
    key's text here and the Gumbel key's in ``select._gumbel_keys``."""
    return pc.binary_join_element_wise(f"{seed}", id_strings(ids), ":")


def _shuffle_key(col, seed: int) -> pa.Array:
    """md5 hex of ``"{seed}:{id}"`` per row: SQL ``md5(seed || ':' || id)``."""
    return hex_digest(_seeded_key(col, seed))


def shuffle_shards(ds, n_shards: int, id_col: str = "doc_id", seed: int = 0,
                   carry_rows: bool = False):
    """Deterministic global shuffle + exactly-balanced shard assignment —
    the FINAL stage of a training-data pipeline (C4/Dolma-style: curated
    docs get a reproducible pseudo-random order, then round-robin into
    ``n_shards`` so shard row counts differ by at most 1; a training job
    reads shards in id order and sees a fixed, seed-keyed permutation).

    Order key = full md5 hex of ``"{seed}:{id}"`` (:func:`_shuffle_key`;
    ids must be non-null integers or strings), tiebroken by id: one
    distributed sort on the key (THE shuffle — unavoidable, a global
    permutation moves every row by definition), then a metadata-only wave
    (per-block row counts -> exclusive prefix offsets; the counts are tiny
    ints on the driver, the sorted data stays in the object store) gives
    each row its global rank.  ``shard = rank % n_shards`` — round-robin
    on the hash order is both balanced and pseudo-random.

    Returns a Dataset ``(id_col, rank, shard)`` — or, with
    ``carry_rows=True``, EVERY input column plus (rank, shard): the sort
    then physically permutes the full rows (same shuffle class — a global
    permutation moves every row either way) so the result can stream
    straight into a partitioned writer
    (``write_parquet(partition_cols=["shard"])`` or
    ``checkpointed_write(partition_col="shard")``) with no join back.
    SQL-oracle-equivalent rank:
    ``(row_number() OVER (ORDER BY md5(seed || ':' || id), id) - 1)``.
    """
    import ray
    import ray.data as rd

    def key(batch: pa.Table) -> pa.Table:
        ka = _shuffle_key(batch[id_col], seed)
        if carry_rows:
            return batch.append_column("key", ka)
        return pa.table({id_col: batch[id_col], "key": ka})

    sorted_ds = ds.map_batches(key, batch_format="pyarrow").sort(
        ["key", id_col]).materialize()
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def nrows(t: pa.Table) -> int:
        return t.num_rows

    @ray.remote
    def assign(t: pa.Table, off: int) -> pa.Table:
        rank = off + np.arange(t.num_rows, dtype=np.int64)
        base = t.drop_columns(["key"]) if carry_rows else pa.table(
            {id_col: t[id_col]})
        return base.append_column(
            "rank", pa.array(rank, pa.int64())
        ).append_column("shard", pa.array(rank % n_shards, pa.int64()))

    counts = ray.get([nrows.remote(r) for r in refs])
    offs = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    # zero-row blocks out of a sort carry an EMPTY schema (no id_col to
    # gather) — skip them; an all-empty input yields a typed empty result
    live = [(r, int(o)) for r, o, c in zip(refs, offs, counts) if c]
    if not live:
        # empty result carries the NON-empty result's schema (input columns
        # when carry_rows, else the input's id_col type) so schema-sensitive
        # downstream unions/writes don't fork on emptiness
        in_schema = getattr(ds.schema(fetch_if_missing=True), "base_schema",
                            None)
        if isinstance(in_schema, pa.Schema) and id_col in in_schema.names:
            if carry_rows:
                fields = [in_schema.field(nm) for nm in in_schema.names]
            else:
                fields = [in_schema.field(id_col)]
        else:  # schema unavailable (e.g. fully schemaless empty input)
            fields = [pa.field(id_col, pa.int64())]
        fields = fields + [pa.field("rank", pa.int64()),
                           pa.field("shard", pa.int64())]
        return rd.from_arrow(pa.table(
            {f.name: pa.array([], f.type) for f in fields}))
    return rd.from_arrow_refs([assign.remote(r, o) for r, o in live])
