"""Deduplication operators for training-data pipelines.

Five family members, each expressed Ray-Data-first:

* exact        — hash-partition on a content digest, keep min-id per group
                 (one groupby shuffle; the digest is computed in a
                 map_batches so only (digest, id) moves through the shuffle)
* ngram-jaccard— exact word-n-gram Jaccard pairs via the inverted
                 shingle->doc index: explode shingles, groupby(shingle) to
                 emit co-occurring pairs, count pair intersections, verify
                 |A∩B| / (|A|+|B|-|A∩B|) >= tau.  SQL-oracle-checkable.
* minhash-LSH  — Broder's minhash (1997) + banded LSH: shingle signatures
                 (vectorized affine permutations)
                 banded into buckets; candidate pairs from bucket groupby,
                 verified by exact jaccard of signatures.  Approximate, so
                 no SQL oracle — tests pin recall vs the exact operator.
* simhash      — Charikar's simhash (STOC 2002): 64-bit tf-weighted; Hamming-<=d pairs found by the
                 4x16-bit block trick (a pair within distance 3 must agree
                 on >=1 of 4 blocks -> groupby each block).
* embedding    — cosine near-dup pairs over list<float> embeddings:
                 normalized matrix broadcast via ray.put, per-batch matmul.

All pair outputs use (id_a < id_b) canonical order.  Hot-key safety: shingle
groups are capped (a shingle shared by >max_group docs is dropped from
candidate generation — standard LSH practice; a shingle that common carries
no signal) so no group is quadratic in the corpus.

Scale contract (round-2 rework): NO ungated per-doc state is ever
materialized on the driver.  Pair verification attaches per-doc payloads
(shingle counts, minhash signatures, simhash values, embeddings) to the
candidate pair table with the standard size-gated join selection: payload
tables under BROADCAST_BYTES (64 MB) are broadcast once via ray.put and
looked up vectorized (cheap when pairs outnumber docs); larger payload
tables go through a DISTRIBUTED hash join on doc id (both sides
hash-partition on the key, each partition verifies vectorized) so the
verify tail streams at any corpus size.  The remaining driver-side
collections are (a) the hot-shingle blocklist (df > max_group — bounded and
tiny by construction) and (b) thresholded pair/cluster survivor sets.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import digest16, hex_digest, u64
from .analysis import _flatten_tokens, round6

_MERSENNE = np.uint64((1 << 61) - 1)


def _empty_pairs(*extra: tuple) -> pa.Table:
    """Empty canonical pair table: (id_a, id_b [, extra (name, type)...])."""
    cols = {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
    for name, typ in extra:
        cols[name] = pa.array([], typ)
    return pa.table(cols)


def _join_parts(requested: int | None) -> int:
    """Resolve the hash-join partition count.  Ray's hash-shuffle join
    schedules one aggregator actor per partition; asking for more partitions
    than the cluster has CPUs starves the map side (observed deadlock at
    16 partitions on a 4-CPU session).  Default: one partition per CPU,
    clamped to [2, 64] — multi-node deployments with huge pair tables should
    pass an explicit count sized to aggregate memory."""
    if requested:
        return requested
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:
        cpus = 8
    return max(2, min(cpus, 64))


class _PairReduce:
    """Group fn for :func:`_combine_pairs`: one hash partition of pair rows,
    vectorized unique/sum by (id_a, id_b) via lexsort + reduceat."""

    def __init__(self, sum_col: str | None, out_name: str | None):
        self.sum_col = sum_col
        self.out_name = out_name
        self.__name__ = "PairReduce"

    def __call__(self, group: pa.Table) -> pa.Table:
        a = group["id_a"].to_numpy(zero_copy_only=False)
        b = group["id_b"].to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        newp = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])] if len(a) else \
            np.empty(0, bool)
        starts = np.flatnonzero(newp)
        cols = {"id_a": pa.array(a[starts], pa.int64()),
                "id_b": pa.array(b[starts], pa.int64())}
        if self.sum_col is not None:
            v = group[self.sum_col].to_numpy(zero_copy_only=False)[order]
            sums = np.add.reduceat(v, starts) if len(starts) else np.empty(0, v.dtype)
            cols[self.out_name] = pa.array(sums.astype(np.int64), pa.int64())
        return pa.table(cols)


def _combine_pairs(cands, num_partitions: int, sum_col: str | None = None,
                   out_name: str | None = None):
    """groupby (id_a, id_b) -> unique pairs [+ Sum(sum_col) as out_name],
    as a hash-partitioned vectorized ``map_groups``.

    Ray's native multi-column ``Aggregate`` compares composite keys
    row-wise and collapses to one reduce task when the upstream emitted few
    blocks — measured 50 s of a 58 s sf0.1 ngram-dedup run on 1.25 M pair
    rows.  Hashing the pair to an int32 partition and reducing each
    partition with lexsort+reduceat does the same combine in well under a
    second, and every partition reduces independently at scale."""

    def add_part(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = batch["id_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        mix = a * np.uint64(0x9E3779B97F4A7C15) ^ b
        return batch.append_column(
            "__part", pa.array((mix % np.uint64(num_partitions)).astype(np.int32),
                               pa.int32())
        )

    return (
        cands.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_PairReduce(sum_col, out_name), batch_format="pyarrow")
    )


def _unique_pairs(cands, num_partitions: int | None = None):
    """Dedup candidate pairs (a pair can surface from several bands/blocks/
    buckets); returns (id_a, id_b)."""
    return _combine_pairs(cands, num_partitions or _join_parts(None))


def _part_of_keys(key, num_partitions: int) -> np.ndarray:
    """Partition id for a join key column.  Integer keys mod directly;
    any other key hashes its Arrow text (:func:`riot_ray.hashing.u64`).
    The key must hold no null: :func:`_hash_join` drops those rows first."""
    if pa.types.is_integer(key.type):
        return (key.to_numpy() % num_partitions).astype(np.int32)
    h = u64(key.cast(pa.string()))
    return (h % np.uint64(num_partitions)).astype(np.int32)


class _JoinAssemble:
    """Group fn for :func:`_hash_join`: one hash partition holding tagged
    rows from both sides; vectorized local inner join via searchsorted."""

    def __init__(self, left_on: str, right_key: str, left_names: list,
                 out_schema: pa.Schema, right_on: str):
        self.left_on = left_on
        self.right_key = right_key
        self.right_on = right_on
        self.left_names = left_names
        self.out_schema = out_schema
        self.__name__ = "JoinAssemble"

    def __call__(self, group: pa.Table) -> pa.Table:
        role = group["__role"].to_numpy(zero_copy_only=False)
        lmask = role == 0
        left = group.filter(pa.array(lmask))
        right = group.filter(pa.array(~lmask))
        rkeys = right[self.right_key].to_numpy(zero_copy_only=False)
        rorder = np.argsort(rkeys)
        rkeys = rkeys[rorder]
        if (rkeys[1:] == rkeys[:-1]).any():
            raise ValueError(
                f"hash join: right side not unique on {self.right_on}")
        if left.num_rows == 0 or right.num_rows == 0:
            return self.out_schema.empty_table()
        lkeys = left[self.left_on].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(rkeys, lkeys)
        pos_c = np.minimum(pos, len(rkeys) - 1)
        hit = rkeys[pos_c] == lkeys
        left = left.filter(pa.array(hit))
        take = pa.array(rorder[pos_c[hit]])
        cols = {n: left[n] for n in self.left_names}
        for n in self.out_schema.names:
            if n not in cols:
                cols[n] = right[n].take(take)
        return pa.table({n: cols[n] for n in self.out_schema.names})


def _hash_join(left, right, left_on: str, right_on: str,
               payload: dict, num_partitions: int,
               left_schema: pa.Schema | None = None,
               right_schema: pa.Schema | None = None):
    """Distributed inner hash-join expressed as ONE sort-shuffle
    ``groupby(part).map_groups`` over the tagged union of both sides.

    (Ray 2.49's ``Dataset.join`` crashes with "No match for key field" when
    any hash partition comes up empty on the left — routine for small or
    skewed pair tables — so the join is built on the groupby primitive the
    rest of the engine already trusts.)

    ``right`` must be UNIQUE on ``right_on`` (per-doc payload tables are;
    a repeated key raises ``ValueError``); ``payload`` maps right column
    -> output name.  Output: all left columns + renamed payload columns;
    left rows without a match are dropped.
    Only (key, payload) move through the shuffle — the scale-safe
    replacement for driver-side payload broadcasts.

    Pass ``left_schema``/``right_schema`` (pyarrow) whenever the dataset is
    LAZY: ``Dataset.schema()`` on an unexecuted pipeline runs the whole
    plan once just to peek a row — measured at 600k docs, the implicit
    schema probe doubled the verify stage's wall time."""
    if left_schema is None:
        ls = left.schema()
        left_schema = pa.schema(list(zip(ls.names, ls.types)))
    if right_schema is None:
        rs = right.schema()
        right_schema = pa.schema(list(zip(rs.names, rs.types)))
    l_names = list(left_schema.names)
    l_types = {n: t for n, t in zip(left_schema.names, left_schema.types)}
    r_types = {n: t for n, t in zip(right_schema.names, right_schema.types)}
    out_fields = [(n, l_types[n]) for n in l_names] + [
        (out, r_types[src]) for src, out in payload.items()
    ]
    out_schema = pa.schema(out_fields)
    key_t = l_types[left_on]

    def tag_left(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[left_on]))  # a null key matches nothing
        n = b.num_rows
        cols = {"__part": pa.array(_part_of_keys(b[left_on], num_partitions),
                                   pa.int32()),
                "__role": pa.array(np.zeros(n, np.int8), pa.int8()),
                "__rkey": pa.nulls(n, key_t)}
        for name in l_names:
            cols[name] = b[name]
        for src, out in payload.items():
            cols[out] = pa.nulls(n, r_types[src])
        return pa.table(cols)

    def tag_right(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b[right_on]))
        n = b.num_rows
        cols = {"__part": pa.array(_part_of_keys(b[right_on], num_partitions),
                                   pa.int32()),
                "__role": pa.array(np.ones(n, np.int8), pa.int8()),
                "__rkey": b[right_on].cast(key_t)}
        for name in l_names:
            cols[name] = pa.nulls(n, l_types[name])
        for src, out in payload.items():
            cols[out] = b[src]
        return pa.table(cols)

    u = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )
    return u.groupby("__part").map_groups(
        _JoinAssemble(left_on, "__rkey", l_names, out_schema, right_on),
        batch_format="pyarrow",
    )


# one broadcast copy per node is cheap up to this size; past it the payload
# table is joined instead of centralized (Spark-style broadcast-join gate)
BROADCAST_BYTES = 64 << 20


def _broadcast_attach(pairs, values, id_col: str, payload_cols: list[str]):
    """Small-values fast path: pull the (gated-small) payload table into ONE
    sorted Arrow table, ray.put it once, and attach payloads to both pair
    sides with a vectorized searchsorted per batch.  When the PAIR table
    dwarfs the payload table (small corpus / low threshold), this beats the
    shuffle join by avoiding two extra sort exchanges over the pairs."""
    import ray

    tabs = [t for t in ray.get(values.materialize().to_arrow_refs()) if t.num_rows]
    t = pa.concat_tables(tabs).combine_chunks()
    ids = t[id_col].to_numpy(zero_copy_only=False)
    order = np.argsort(ids)
    t = t.take(pa.array(order))
    ref = ray.put((ids[order], t.select(payload_cols)))

    def attach(batch: pa.Table) -> pa.Table:
        ids_s, vt = ray.get(ref)
        for side in ("a", "b"):
            rows = pa.array(
                np.searchsorted(
                    ids_s, batch[f"id_{side}"].to_numpy(zero_copy_only=False)
                )
            )
            for c in payload_cols:
                batch = batch.append_column(f"{c}_{side}", vt[c].take(rows))
        return batch

    return pairs.map_batches(attach, batch_format="pyarrow")


def _attach_pair_payload(pairs, values, id_col: str, payload_cols: list[str],
                         num_partitions: int,
                         values_schema: pa.Schema | None = None,
                         n_values: int | None = None,
                         values_row_bytes: int | None = None):
    """Attach per-doc payloads to both pair sides — broadcast when the
    payload table fits BROADCAST_BYTES (one copy per node, vectorized
    lookup), distributed hash join otherwise (per-doc state never
    centralizes past the gate).  This is the standard size-gated
    broadcast-vs-shuffle join selection."""
    if (
        n_values is not None
        and values_row_bytes is not None
        and n_values * values_row_bytes <= BROADCAST_BYTES
    ):
        return _broadcast_attach(pairs, values, id_col, payload_cols)
    return _join_pair_payload(pairs, values, id_col, payload_cols,
                              num_partitions, values_schema)


def _join_pair_payload(pairs, values, id_col: str, payload_cols: list[str],
                       num_partitions: int,
                       values_schema: pa.Schema | None = None):
    """Attach per-doc payload columns to BOTH sides of a pair table via two
    distributed hash joins on doc id (the scale-safe replacement for
    driver-side payload broadcasts).  ``values``: Dataset with columns
    (id_col, *payload_cols).  Returns pairs extended with ``{col}_a`` /
    ``{col}_b``.

    ``pairs`` must be materialized (callers do — they count() it for the
    empty guard); pass ``values_schema`` when ``values`` is lazy so no
    implicit execution happens during planning."""
    ps = pairs.schema()
    pairs_schema = pa.schema(list(zip(ps.names, ps.types)))
    if values_schema is None:
        vs = values.schema()
        values_schema = pa.schema(list(zip(vs.names, vs.types)))
    v_types = {n: t for n, t in zip(values_schema.names, values_schema.types)}
    out = _hash_join(pairs, values, "id_a", id_col,
                     {c: f"{c}_a" for c in payload_cols}, num_partitions,
                     left_schema=pairs_schema, right_schema=values_schema)
    mid_schema = pa.schema(
        list(zip(pairs_schema.names, pairs_schema.types))
        + [(f"{c}_a", v_types[c]) for c in payload_cols]
    )
    return _hash_join(out, values, "id_b", id_col,
                      {c: f"{c}_b" for c in payload_cols}, num_partitions,
                      left_schema=mid_schema, right_schema=values_schema)


def _binary_matrix(col, width: int, dtype) -> np.ndarray:
    """(n, width) numpy view over a large_binary column of fixed-size packed
    rows — zero-copy off the Arrow values buffer."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.empty((0, width), dtype)
    n = len(col)
    itemsize = np.dtype(dtype).itemsize
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset: col.offset + n + 1
    ]
    if offs[-1] - offs[0] == n * width * itemsize:
        buf = np.frombuffer(col.buffers()[2], dtype=dtype)
        start = offs[0] // itemsize
        return buf[start: start + n * width].reshape(n, width)
    # non-contiguous rows (sliced/taken array): per-row copy fallback
    return np.stack([np.frombuffer(v.as_py(), dtype=dtype) for v in col])


# --------------------------------------------------------------------------- #
# exact dedup
# --------------------------------------------------------------------------- #
def _text_digests(texts) -> pa.Array:
    """Hex sha256 per text, with NULL kept as its OWN group (SQL
    ``GROUP BY text`` semantics): a null digests to the sentinel
    "\\x00null", which no real hex digest can equal, so null-text rows
    never merge with empty-string rows."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    digest = hex_digest(pc.fill_null(texts, ""), "sha256")
    return pc.if_else(pc.is_valid(texts), digest, "\x00null")


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Survivor ids after exact-content dedup: min(id) per content digest.
    Returns a Dataset with columns (id_col, n_copies)."""

    def digest(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: batch[id_col],
                         "digest": _text_digests(batch[text_col])})

    from ray.data.aggregate import Count, Min

    agg = (
        ds.map_batches(digest, batch_format="pyarrow")
        .groupby("digest")
        .aggregate(Min(id_col, alias_name=id_col), Count(alias_name="n_copies"))
    )
    return agg.select_columns([id_col, "n_copies"])


def dedup_rows_exact(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Exact-content dedup that KEEPS full rows: one hash shuffle on the
    content digest, min-``id_col`` row per group — the row-carrying
    companion to :func:`exact_dedup` (which returns survivor IDS only).
    Use this when downstream stages need the payload (e.g. the training-
    shard writer) — it avoids both the join-back and the corpus-sized
    survivor-id broadcast :func:`filter_ids` must never receive.

    Scale shape: the corpus moves ONCE (groupby(digest)); groups are
    duplicate sets, naturally tiny.  Survivor choice matches
    exact_dedup's oracle: min(id) per digest."""

    def digest(batch: pa.Table) -> pa.Table:
        return batch.append_column("__digest", _text_digests(batch[text_col]))

    def keep_min(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return group.drop_columns(["__digest"])
        return group.take(
            pa.array([int(np.argmin(ids))], pa.int64())
        ).drop_columns(["__digest"])

    return (
        ds.map_batches(digest, batch_format="pyarrow")
        .groupby("__digest")
        .map_groups(keep_min, batch_format="pyarrow")
    )


def _digest_cols(texts: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """First 128 bits of sha256(text) (null text as "") as two int64
    columns — numpy-native membership keys, collision-ignorable at any
    corpus size."""
    k = digest16(pc.fill_null(texts, ""), "sha256").view(np.int64)
    return k[:, 0].copy(), k[:, 1].copy()


def write_digests(ds, out_dir: str, fingerprint: str,
                  text_col: str = "text", num_partitions: int = 16) -> dict:
    """Persist a corpus's content-digest set as hash-partitioned parquet
    (atomic per-partition commit via the checkpoint writer — resumable,
    same-fingerprint re-runs skip).  This is the 'seen' side of
    incremental ingest: build it once per released snapshot, then
    :func:`filter_seen` each new delivery against it.

    ``fingerprint`` must identify the INPUT (source path + mtime, an
    options hash, ...) — it is what lets a changed corpus invalidate the
    committed partitions, so a constant default would silently skip every
    rewrite (checkpointed_write's contract).  Digests are globally
    deduplicated (per-batch unique, then per-partition unique) before the
    write, so the stored set size equals the distinct-content count."""
    if not fingerprint:
        raise ValueError(
            "write_digests: fingerprint must identify the input corpus "
            "(e.g. source path + size + mtime) — an empty value would "
            "make re-runs with changed input silently no-ops"
        )
    from .checkpoint import checkpointed_write

    num_partitions = max(1, int(num_partitions))

    def digest(batch: pa.Table) -> pa.Table:
        d1, d2 = _digest_cols(batch[text_col])
        order = np.lexsort((d2, d1))
        s1, s2 = d1[order], d2[order]
        first = np.empty(len(order), bool)
        if len(order):
            first[0] = True
            first[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
        else:
            first = first[:0]
        u1, u2 = s1[first], s2[first]
        part = (u1.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({"d1": pa.array(u1, pa.int64()),
                         "d2": pa.array(u2, pa.int64()),
                         "__dpart": pa.array(part, pa.int32())})

    def uniq(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"d1": pa.array([], pa.int64()),
                             "d2": pa.array([], pa.int64())})
        d1 = group["d1"].to_numpy(zero_copy_only=False)
        d2 = group["d2"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d2, d1))
        s1, s2 = d1[order], d2[order]
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
        return pa.table({"d1": pa.array(s1[first], pa.int64()),
                         "d2": pa.array(s2[first], pa.int64())})

    deduped = (
        ds.map_batches(digest, batch_format="pyarrow")
        .groupby("__dpart")
        .map_groups(uniq, batch_format="pyarrow")
    )
    return checkpointed_write(
        deduped, out_dir, fingerprint, partition_col="d1",
        num_partitions=num_partitions,
    )


def filter_seen(ds, seen, text_col: str = "text", id_col: str = "doc_id",
                num_partitions: int | None = None):
    """Incremental-ingest dedup: drop every doc whose exact content digest
    appears in ``seen`` (a :func:`write_digests` directory path, or any
    Dataset with (d1, d2) digest columns).  Returns the surviving rows
    unchanged.

    Size-gated: under ``BROADCAST_BYTES`` the sorted digest pair arrays
    broadcast once and membership is a map-side searchsorted; above it,
    docs and seen digests co-group by digest hash partition and the
    anti-join resolves per group (both paths pinned equal)."""
    import ray
    import ray.data as rd

    from .substr import _pair_member

    num_partitions = _join_parts(num_partitions)
    if isinstance(seen, str):
        import glob as _glob

        # 5-digit pattern: a crashed writer's part=NNNNN.tmp-<uuid> dirs
        # hold UNCOMMITTED (possibly stale-fingerprint) digests and must
        # never be read (same exclusion as checkpoint.read_checkpointed)
        files = sorted(_glob.glob(
            os.path.join(seen, "part=" + "[0-9]" * 5, "data.parquet")))
        if not files:
            return ds  # empty seen set: everything is new
        seen_ds = rd.read_parquet(files, columns=["d1", "d2"])
    else:
        seen_ds = seen.select_columns(["d1", "d2"])
    seen_ds = seen_ds.materialize()
    n_seen = seen_ds.count()

    if n_seen * 16 <= BROADCAST_BYTES:
        if n_seen:
            tabs = [t for t in ray.get(seen_ds.to_arrow_refs()) if t.num_rows]
            st = pa.concat_tables(tabs).combine_chunks()
            s1 = st["d1"].to_numpy(zero_copy_only=False)
            s2 = st["d2"].to_numpy(zero_copy_only=False)
            order = np.lexsort((s2, s1))
            sref = ray.put((s1[order], s2[order]))
        else:
            z = np.empty(0, np.int64)
            sref = ray.put((z, z))

        def drop_seen(batch: pa.Table) -> pa.Table:
            g1, g2 = ray.get(sref)
            d1, d2 = _digest_cols(batch[text_col])
            hit = _pair_member(d1, d2, g1, g2)
            return batch.filter(pa.array(~hit))

        return ds.map_batches(drop_seen, batch_format="pyarrow")

    # seen set over the gate: co-group docs and digests by d1 hash
    # partition; a doc survives when its group holds no matching digest.
    # Schema-aligned union with an explicit role column; this path tracks
    # dropped docs by id, so it REQUIRES non-null integer ids (validated —
    # the broadcast path below the gate has no such requirement).
    def doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        if ids.null_count:
            raise ValueError(
                "filter_seen: the co-grouped (over-broadcast-gate) path "
                f"requires non-null integer {id_col!r} values to track "
                "dropped docs"
            )
        d1, d2 = _digest_cols(batch[text_col])
        part = (d1.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({
            id_col: ids.cast(pa.int64()),
            "__role": pa.array(np.zeros(batch.num_rows, np.int8), pa.int8()),
            "d1": pa.array(d1, pa.int64()),
            "d2": pa.array(d2, pa.int64()),
            "__part": pa.array(part, pa.int32()),
        })

    def seen_rows(batch: pa.Table) -> pa.Table:
        d1 = batch["d1"].to_numpy(zero_copy_only=False)
        part = (d1.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({
            id_col: pa.nulls(batch.num_rows, pa.int64()),
            "__role": pa.array(np.ones(batch.num_rows, np.int8), pa.int8()),
            "d1": batch["d1"],
            "d2": batch["d2"],
            "__part": pa.array(part, pa.int32()),
        })

    both = ds.map_batches(doc_rows, batch_format="pyarrow").union(
        seen_ds.map_batches(seen_rows, batch_format="pyarrow"))

    def matched(group: pa.Table) -> pa.Table:
        """Ids of docs whose digest has a seen partner in this group —
        the OVERLAP, the small side of an incremental delivery (shipping
        survivors instead would centralize ~every new doc)."""
        if group.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64())})
        is_doc = pc.equal(group["__role"], 0)
        docs_t = group.filter(is_doc)
        seen_t = group.filter(pc.invert(is_doc))
        q1 = docs_t["d1"].to_numpy(zero_copy_only=False)
        q2 = docs_t["d2"].to_numpy(zero_copy_only=False)
        s1 = seen_t["d1"].to_numpy(zero_copy_only=False)
        s2 = seen_t["d2"].to_numpy(zero_copy_only=False)
        order = np.lexsort((s2, s1))
        hit = _pair_member(q1, q2, s1[order], s2[order])
        return pa.table({id_col: docs_t[id_col].filter(pa.array(hit))})

    dropped = both.groupby("__part").map_groups(matched, batch_format="pyarrow")
    from .sampling import lookup_sorted

    tabs = [t for t in ray.get(dropped.materialize().to_arrow_refs())
            if t.num_rows]
    if not tabs:
        return ds
    drop_ids = np.sort(np.concatenate(
        [t[id_col].to_numpy(zero_copy_only=False) for t in tabs]))
    dref = ray.put(drop_ids)

    def keep_rows(batch: pa.Table) -> pa.Table:
        g = ray.get(dref)
        bid = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _, hit = lookup_sorted(g, bid)
        return batch.filter(pa.array(~hit))

    return ds.map_batches(keep_rows, batch_format="pyarrow")


def line_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    idx_bits: int = 20,
):
    """C4-style corpus-wide duplicate-SPAN removal (Raffel et al. 2020
    dropped every duplicated three-sentence span from C4; the span here is
    a line — any ``sep``-delimited unit).  Returns the KEPT lines as rows
    ``(id_col, line_idx, line)``: for each distinct line value exactly the
    corpus-wide FIRST occurrence (smallest (doc id, line idx)) survives;
    every other copy is dropped.  Callers rebuild cleaned docs by grouping
    on id and joining kept lines in line_idx order.

    Scale shape: ONE shuffle total.  The map pass emits per line a 128-bit
    md5 key as two int64 columns (md5 computed once per UNIQUE line per
    batch — dictionary encode + gather — and the 128 bits make key
    collisions ignorable at any corpus size) plus a packed (doc id,
    line idx) order int64; lines are hash-partitioned on the key and each
    partition keeps min-pack per key with one numpy lexsort — no string
    groupby (Ray's sort shuffle on a long string key with millions of
    groups measured 25x slower than this numeric plan at 2.7M lines) and
    no join-back, since the winner row IS the kept row.  Packing assumes
    doc ids < 2**(63-idx_bits) and < 2**idx_bits lines per doc (asserted
    per batch).
    """
    num_partitions = _join_parts(None)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        parts = pc.split_pattern(texts, sep)
        offs = parts.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = parts.flatten()
        n = len(flat)
        parents = np.repeat(np.arange(len(ids)), np.diff(offs))
        idx = np.arange(n, dtype=np.int64) - offs[:-1][parents]
        if n:
            assert idx.max() < (1 << idx_bits), "line_dedup: raise idx_bits"
            assert ids.max() < (1 << (63 - idx_bits)), "line_dedup: doc id too large"
        pack = (ids[parents] << idx_bits) | idx  # int64; fits by the asserts
        kh = digest16(pc.fill_null(flat, "")).view(np.int64)
        kh1, kh2 = kh[:, 0].copy(), kh[:, 1].copy()
        part = (kh1.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table(
            {
                id_col: pa.array(ids[parents], pa.int64()),
                "line_idx": pa.array(idx, pa.int64()),
                "line": flat,
                "kh1": pa.array(kh1, pa.int64()),
                "kh2": pa.array(kh2, pa.int64()),
                "pack": pa.array(pack, pa.int64()),
                "__part": pa.array(part, pa.int32()),
            }
        )

    def keep_min_per_key(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group.select([id_col, "line_idx", "line"])
        kh1 = group["kh1"].to_numpy(zero_copy_only=False)
        kh2 = group["kh2"].to_numpy(zero_copy_only=False)
        pack = group["pack"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pack, kh2, kh1))
        k1s, k2s = kh1[order], kh2[order]
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = (k1s[1:] != k1s[:-1]) | (k2s[1:] != k2s[:-1])
        return group.take(pa.array(order[first])).select(
            [id_col, "line_idx", "line"]
        )

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(keep_min_per_key, batch_format="pyarrow")
    )


def line_dedup_clean(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    idx_bits: int = 20,
):
    """Cleaned documents after :func:`line_dedup`: every doc rebuilt from
    its KEPT lines, joined with ``sep`` in original line order.  Returns
    ``(id_col, text_clean)``; docs whose every line was a duplicate drop
    out entirely (same as the SQL ``string_agg`` over kept lines).

    Scale shape: line_dedup's one key shuffle, then ONE more shuffle of the
    kept lines keyed on doc id; each partition rebuilds its docs with a
    numpy lexsort + one vectorized ``pc.binary_join`` over a ListArray —
    no per-doc Python."""
    num_partitions = _join_parts(None)
    kept = line_dedup(ds, text_col=text_col, id_col=id_col, sep=sep,
                      idx_bits=idx_bits)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        part = (ids.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return batch.append_column("__dpart", pa.array(part, pa.int32()))

    def assemble(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "text_clean": pa.array([], pa.string())})
        ids = group[id_col].to_numpy(zero_copy_only=False)
        idx = group["line_idx"].to_numpy(zero_copy_only=False)
        order = np.lexsort((idx, ids))
        ids_s = ids[order]
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = ids_s[1:] != ids_s[:-1]
        offsets = np.append(np.flatnonzero(first), len(order)).astype(np.int32)
        lines = group["line"]
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        lines = lines.take(pa.array(order)).cast(pa.string())
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), lines)
        joined = pc.binary_join(lists, sep)
        return pa.table({id_col: pa.array(ids_s[first], pa.int64()),
                         "text_clean": joined})

    return (
        kept.map_batches(tag, batch_format="pyarrow")
        .groupby("__dpart")
        .map_groups(assemble, batch_format="pyarrow")
    )


# --------------------------------------------------------------------------- #
# shingles
# --------------------------------------------------------------------------- #
def _doc_gram_hashes(texts: pa.Array, n: int):
    """DISTINCT (gram hash u64, doc row index) pairs per doc — the gram
    hash is ROLLED from per-token md5 hashes (FNV-style chain), so the md5
    cost is per unique TOKEN, not per unique gram (~100x fewer md5 calls on
    natural text).  Shared by shingle_batch, contamination, hot_ngrams."""
    flat, parents = _flatten_tokens(texts)
    h = u64(flat)
    tot = len(h)
    if tot < n:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    kg = np.zeros(tot - n + 1, dtype=np.uint64)
    for i in range(n):
        kg = (kg * np.uint64(1099511628211)) ^ h[i : tot - n + 1 + i]
    kp = parents[: tot - n + 1]
    valid = parents[n - 1 :] == kp
    kg, kp = kg[valid], kp[valid]
    # distinct (doc, gram)
    order = np.lexsort((kg, kp))
    kg, kp = kg[order], kp[order]
    keep = np.r_[True, (kp[1:] != kp[:-1]) | (kg[1:] != kg[:-1])]
    return kg[keep], kp[keep]


def shingle_batch(batch: pa.Table, text_col: str, id_col: str, n: int) -> pa.Table:
    """Distinct word-n-gram shingle hashes per doc: (id, shingle:int64).

    The 64 hash bits are REINTERPRETED as int64 (bijective view): Ray's
    hash/sort shuffles handle u64 group keys by pickling every value into
    Python objects — int64 keys stay zero-copy Arrow through the
    groupby("shingle") df-count and every downstream stage."""
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    kg, kp = _doc_gram_hashes(texts, n)
    return pa.table(
        {
            id_col: pa.array(ids[kp], pa.int64()),
            "shingle": pa.array(kg.view(np.int64), pa.int64()),
        }
    )


class _PairEmit:
    """groupby(bucket) -> co-occurring doc pairs (a<b) for EVERY key run in
    the bucket.  Keys are bucketed (bucket = key % 32) so one group
    call covers thousands of keys and the downstream pair groupby sees few,
    large blocks (sort-shuffle cost scales with maps x reduces) — per-key map_groups costs ~10x more.
    Vectorized: runs found by sort boundaries; pairs generated per distinct
    run LENGTH with one precomputed triu per length.  Runs larger than
    max_group are dropped (a key shared by that many docs carries no
    signal — standard LSH practice, avoids O(g^2) blowup)."""

    def __init__(self, id_col: str, max_group: int, key_col: str = "key"):
        self.id_col = id_col
        self.max_group = max_group
        self.key_col = key_col
        self.__name__ = "PairEmit"

    def __call__(self, group: pa.Table) -> pa.Table:
        key = group[self.key_col].to_numpy(zero_copy_only=False)
        ids = group[self.id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, key))
        key, ids = key[order], ids[order]
        n = len(key)
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64())}
        )
        if n < 2:
            return empty
        # dedup (key, id) then find runs per key
        keep = np.r_[True, (key[1:] != key[:-1]) | (ids[1:] != ids[:-1])]
        key, ids = key[keep], ids[keep]
        n = len(key)
        newrun = np.r_[True, key[1:] != key[:-1]]
        starts = np.flatnonzero(newrun)
        lens = np.diff(np.r_[starts, n])
        ok = (lens >= 2) & (lens <= self.max_group)
        starts, lens = starts[ok], lens[ok]
        if not len(starts):
            return empty
        out_a, out_b = [], []
        for l in np.unique(lens):
            runs_l = starts[lens == l]
            ia, ib = np.triu_indices(int(l), k=1)
            a = (runs_l[:, None] + ia[None, :]).ravel()
            b = (runs_l[:, None] + ib[None, :]).ravel()
            out_a.append(ids[a])
            out_b.append(ids[b])
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        # map-side combine: a pair co-occurring under many keys of THIS
        # bucket ships once with its multiplicity — near-dup pairs share
        # hundreds of shingles, so this is the big shuffle-row reduction
        # (downstream: Sum("n") == the pre-combine Count per pair)
        porder = np.lexsort((b, a))
        a, b = a[porder], b[porder]
        newp = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        pstarts = np.flatnonzero(newp)
        cnt = np.diff(np.r_[pstarts, len(a)])
        return pa.table(
            {
                "id_a": pa.array(a[pstarts], pa.int64()),
                "id_b": pa.array(b[pstarts], pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )


class _PairAndSizeEmit:
    """One bucket group of the inverted shingle index (bucket = shingle %
    NB, so a shingle's FULL posting run is local to its group).  Emits, in
    ONE pass:

    * co-occurrence pair rows ``(id_a, id_b, n)`` — like :class:`_PairEmit`
      (runs over ``max_group`` docs dropped, map-side multiplicity combine);
    * per-doc surviving-shingle counts as rows ``(doc, -1, n)`` — the
      ``|A|``/``|B|`` sizes over the SAME capped universe.

    This replaces the separate df-count groupby + blocklist broadcast +
    per-doc sizes groupby of the naive plan: at 600k docs those were two
    extra full sorts of a ~10^8-row shingle table (measured: most of a
    478 s run).  One tagged output stream, split by ``id_b >= 0``."""

    def __init__(self, id_col: str, max_group: int, key_col: str = "shingle"):
        self.id_col = id_col
        self.max_group = max_group
        self.key_col = key_col
        self.__name__ = "PairAndSizeEmit"

    def __call__(self, group: pa.Table) -> pa.Table:
        key = group[self.key_col].to_numpy(zero_copy_only=False)
        ids = group[self.id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, key))
        key, ids = key[order], ids[order]
        n = len(key)
        empty = pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64())}
        )
        if n == 0:
            return empty
        keep = np.r_[True, (key[1:] != key[:-1]) | (ids[1:] != ids[:-1])]
        key, ids = key[keep], ids[keep]
        n = len(key)
        newrun = np.r_[True, key[1:] != key[:-1]]
        starts = np.flatnonzero(newrun)
        lens = np.diff(np.r_[starts, n])
        survive = lens <= self.max_group

        # per-doc sizes over surviving runs (df-1 singletons INCLUDED —
        # they belong to the jaccard universe)
        row_ok = np.repeat(survive, lens)
        sdocs, scnt = np.unique(ids[row_ok], return_counts=True)
        size_rows = (
            pa.table({"id_a": pa.array(sdocs, pa.int64()),
                      "id_b": pa.array(np.full(len(sdocs), -1), pa.int64()),
                      "n": pa.array(scnt.astype(np.int64), pa.int64())})
            if len(sdocs) else empty
        )

        ok = survive & (lens >= 2)
        pstarts, plens = starts[ok], lens[ok]
        if not len(pstarts):
            return size_rows
        out_a, out_b = [], []
        for l in np.unique(plens):
            runs_l = pstarts[plens == l]
            ia, ib = np.triu_indices(int(l), k=1)
            out_a.append((runs_l[:, None] + ia[None, :]).ravel())
            out_b.append((runs_l[:, None] + ib[None, :]).ravel())
        a = ids[np.concatenate(out_a)]
        b = ids[np.concatenate(out_b)]
        porder = np.lexsort((b, a))
        a, b = a[porder], b[porder]
        newp = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        ps = np.flatnonzero(newp)
        cnt = np.diff(np.r_[ps, len(a)])
        pair_rows = pa.table(
            {"id_a": pa.array(a[ps], pa.int64()),
             "id_b": pa.array(b[ps], pa.int64()),
             "n": pa.array(cnt.astype(np.int64), pa.int64())}
        )
        return pa.concat_tables([pair_rows, size_rows])


# Auto-routing threshold for ngram_jaccard_pairs: above this many docs
# the all-shared-shingle candidate space makes the exact verify tail the
# dominant cost (530.9 s at 600k docs, VERDICT r3 #8) and the plan
# routes through minhash_lsh_exact_pairs — LSH candidates, exact-jaccard
# verdicts.  At the default banding (128 perms / 64 bands, 2 rows per
# band) the probability a true pair at jaccard j is MISSED is
# (1 - j^2)^64: < 1e-8 at j = 0.5, 7.3% at j = 0.2 — document the
# trade when lowering the threshold, or pass plan="exact" to force the
# exhaustive path.
JACCARD_AUTO_ROWS = 100_000
# auto only reroutes through LSH candidates when the requested threshold
# keeps the banding's miss bound negligible: at j >= 0.5 the true-pair
# miss probability (1 - j^2)^64 is < 1e-8, so the rerouted result is
# exact-in-practice; below it, auto stays on the exhaustive plan (an
# operator documented "exact" must not silently lose recall).
JACCARD_LSH_SAFE_THRESHOLD = 0.5


def ngram_jaccard_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    threshold: float = 0.5,
    max_group: int = 512,
    join_partitions: int | None = None,
    plan: str = "auto",
):
    """Exact n-gram Jaccard duplicate pairs: columns
    (id_a, id_b, jaccard) with jaccard rounded to 6dp, id_a < id_b.

    ``plan`` selects the candidate strategy: ``"exact"`` enumerates every
    shingle-sharing pair (exhaustive — every surfaced jaccard AND the
    candidate set are exact); ``"lsh_verify"`` routes through
    :func:`minhash_lsh_exact_pairs` (LSH candidates, exact-jaccard
    verdicts — sub-quadratic, recall bound above); ``"auto"`` (default)
    picks lsh_verify at >= ``JACCARD_AUTO_ROWS`` docs ONLY when
    ``threshold >= JACCARD_LSH_SAFE_THRESHOLD`` (0.5), where the banding's
    true-pair miss bound (1 - j^2)^64 is < 1e-8 — below that auto stays
    exact so a documented-exact operator never silently loses recall
    (7.3% of true pairs at j = 0.2 would be missed).  Passing
    ``plan="lsh_verify"`` explicitly with a low threshold warns with the
    miss bound instead.  Every pair either plan emits carries its true
    (filtered-universe) jaccard.

    Shingles shared by more than ``max_group`` docs (no-signal boilerplate)
    are removed from the shingle UNIVERSE — both the pair counts and the
    per-doc sizes — so the reported jaccard is exact over the filtered
    universe (dropping them from candidates alone would understate the
    intersection of surfaced pairs).  With no shingle over the cap the
    result is plain exact jaccard (the SQL-oracle case).

    Scale shape: ONE shuffle of the shingle table (bucket = shingle % 32
    co-locates each shingle's full posting run), inside which the df cap,
    the pair counts AND the per-doc sizes are all computed — no blocklist,
    no driver-side collect, no second/third sort of the shingle table.
    Sizes attach to the pair table by the size-gated join, and pair
    scoring is a pure vectorized map."""
    import ray.data as rd

    if plan not in ("auto", "exact", "lsh_verify"):
        raise ValueError(f"unknown ngram_jaccard_pairs plan {plan!r}")
    if plan == "auto":
        # materialize once: whichever plan wins scans the input >= once
        # more, so pinning blocks costs nothing extra
        ds = ds.materialize()
        big = ds.count() >= JACCARD_AUTO_ROWS
        if big and threshold < JACCARD_LSH_SAFE_THRESHOLD:
            import warnings

            warnings.warn(
                f"ngram_jaccard_pairs: {ds.count()} docs with threshold="
                f"{threshold} < {JACCARD_LSH_SAFE_THRESHOLD} keeps the exact "
                "(exhaustive) plan — the LSH reroute would miss "
                f"~{(1 - threshold ** 2) ** 64:.1%} of true pairs at the "
                "threshold. Expect a long exact-verify tail at this scale, "
                "or pass plan='lsh_verify' to accept the recall bound.",
                stacklevel=2,
            )
        plan = ("lsh_verify"
                if big and threshold >= JACCARD_LSH_SAFE_THRESHOLD
                else "exact")
    if plan == "lsh_verify":
        if threshold < JACCARD_LSH_SAFE_THRESHOLD:
            import warnings

            warnings.warn(
                "ngram_jaccard_pairs(plan='lsh_verify'): at the default "
                "banding (64 bands x 2 rows) a true pair at jaccard j is "
                f"missed with probability (1-j^2)^64 — "
                f"~{(1 - threshold ** 2) ** 64:.1%} at j = {threshold}. "
                "Use plan='exact' if full recall below j=0.5 matters.",
                stacklevel=2,
            )
        # NOTE: max_group means "hot-shingle df cap" here but "band-bucket
        # run cap" there — both are the no-signal-boilerplate guard at
        # their stage; the verify-side jaccard is exact either way
        return minhash_lsh_exact_pairs(
            ds, text_col=text_col, id_col=id_col, n=n, threshold=threshold,
            max_group=max_group, join_partitions=join_partitions,
        )

    num_partitions = _join_parts(join_partitions)

    shingles = ds.map_batches(
        lambda b: shingle_batch(b, text_col, id_col, n),
        batch_format="pyarrow",
        batch_size=2048,
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        sh = batch["shingle"].to_numpy(zero_copy_only=False)
        # numpy mod on int64 returns the divisor's sign -> always 0..31
        return batch.append_column(
            "bucket", pa.array((sh % 32).astype(np.int32), pa.int32())
        )

    # one pass: pair rows (id_b >= 0) + per-doc size partials (id_b == -1)
    tagged = (
        shingles.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            _PairAndSizeEmit(id_col, max_group, key_col="shingle"),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def only_pairs(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["id_b"], 0))

    def only_sizes(b: pa.Table) -> pa.Table:
        return b.filter(pc.less(b["id_b"], 0))

    inter = _combine_pairs(
        tagged.map_batches(only_pairs, batch_format="pyarrow"),
        num_partitions, sum_col="n", out_name="inter",
    ).materialize()
    if inter.count() == 0:
        return rd.from_arrow(_empty_pairs(("jaccard", pa.float64())))

    def finish_sizes(b: pa.Table) -> pa.Table:
        return pa.table({id_col: b["id_a"], "n_shingles": b["n_shingles"]})

    sizes = (
        _combine_pairs(
            tagged.map_batches(only_sizes, batch_format="pyarrow"),
            num_partitions, sum_col="n", out_name="n_shingles",
        )
        .map_batches(finish_sizes, batch_format="pyarrow")
        .materialize()
    )

    # per-doc shingle counts attached to both pair sides — broadcast under
    # the 64 MB gate (two int64s per doc => broadcast up to ~4e6 docs), a
    # distributed hash join past it; never an ungated driver table
    joined = _attach_pair_payload(
        inter, sizes, id_col, ["n_shingles"], num_partitions,
        values_schema=pa.schema([(id_col, pa.int64()), ("n_shingles", pa.int64())]),
        n_values=sizes.count(), values_row_bytes=16,
    )

    def score(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        it = batch["inter"].to_numpy(zero_copy_only=False).astype(np.float64)
        na = batch["n_shingles_a"].to_numpy(zero_copy_only=False).astype(np.float64)
        nb = batch["n_shingles_b"].to_numpy(zero_copy_only=False).astype(np.float64)
        j = round6(it / (na + nb - it))
        keep = j >= threshold
        return pa.table(
            {
                "id_a": pa.array(a[keep], pa.int64()),
                "id_b": pa.array(b[keep], pa.int64()),
                "jaccard": pa.array(j[keep], pa.float64()),
            }
        )

    return joined.map_batches(score, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# pair lists -> clusters -> survivors
# --------------------------------------------------------------------------- #
def dedup_clusters(pairs_ds, pair_limit: int = 10_000_000,
                   join_partitions: int | None = None, max_iters: int = 64):
    """Connected components over a near-dup pair list: every doc appearing in
    >=1 pair gets ``cluster_id`` = the minimum doc id in its component
    (transitive closure — A~B, B~C puts A and C in one cluster even if they
    never paired directly).

    Input: a Dataset/table with ``id_a``/``id_b`` columns (the output shape
    of every ``*_pairs`` operator here); extra columns are ignored.  Returns
    a Dataset with columns (doc_id, cluster_id).

    Two paths, same output contract:

    * pairs <= ``pair_limit``: driver-side union-find (the pair set is the
      thresholded survivor graph — usually orders of magnitude smaller than
      the corpus; a few 10^7 edges union-find in seconds).
    * pairs >  ``pair_limit``: distributed hash-min label propagation —
      iterate ``label(v) = min(label(v), min over neighbors' labels)`` as a
      labels x edges hash join + groupby(node).min until fixpoint (detected
      by the monotone-decreasing label checksum).  O(component diameter)
      rounds; near-dup components are shallow in practice.
    """
    import ray.data as rd

    pairs = pairs_ds.select_columns(["id_a", "id_b"]).materialize()
    if pairs.count() > pair_limit:
        return _clusters_labelprop(pairs, _join_parts(join_partitions), max_iters)

    tbl = pairs.to_pandas()
    # an empty Dataset round-trips to a column-less DataFrame
    a = tbl["id_a"].to_numpy(np.int64) if "id_a" in tbl else np.empty(0, np.int64)
    b = tbl["id_b"].to_numpy(np.int64) if "id_b" in tbl else np.empty(0, np.int64)
    ids = np.unique(np.concatenate([a, b])) if len(a) else np.empty(0, np.int64)
    parent = np.arange(len(ids), dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(np.searchsorted(ids, a), np.searchsorted(ids, b)):
        ru, rv = find(u), find(v)
        if ru != rv:
            # union by min index == min doc id (ids is sorted), so the root
            # IS the cluster label
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    roots = np.array([find(i) for i in range(len(ids))], dtype=np.int64)
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cluster_id": pa.array(ids[roots], pa.int64()),
            }
        )
    )


def _clusters_labelprop(pairs, join_partitions: int, max_iters: int):
    """Distributed connected components: hash-min label propagation over the
    (materialized) pair Dataset.  Every step is a Ray Data shuffle — no
    per-node state ever reaches the driver; the fixpoint check reads one
    scalar (the label checksum, strictly decreasing until convergence
    because labels only ever shrink toward the component minimum)."""
    import ray.data as rd
    from ray.data.aggregate import Min

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return rd.from_arrow(
            pa.table({"doc_id": pa.array([], pa.int64()),
                      "cluster_id": pa.array([], pa.int64())})
        )

    # init: label(v) = min(v, min direct neighbor) — one round for free
    def _min_self(batch: pa.Table) -> pa.Table:
        node = batch["src"].to_numpy(zero_copy_only=False)
        lab = batch["label"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "label": pa.array(np.minimum(node, lab), pa.int64()),
            }
        )

    labels = (
        edges.groupby("src")
        .aggregate(Min("dst", alias_name="label"))
        .map_batches(_min_self, batch_format="pyarrow")
        .materialize()
    )
    prev_sum = labels.sum("label")

    def _prop_cols(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch["dst"].cast(pa.int64()),
             "label": batch["label"].cast(pa.int64())}
        )

    for _ in range(max_iters):
        prop = _hash_join(
            edges, labels, "src", "node", {"label": "label"}, join_partitions
        ).map_batches(_prop_cols, batch_format="pyarrow")
        labels = (
            labels.union(prop)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    return labels.rename_columns({"node": "doc_id", "label": "cluster_id"})


def dedup_filter(ds, pairs_ds, id_col: str = "doc_id"):
    """Survivors after near-dup collapse: drop every doc whose cluster_id
    (from :func:`dedup_clusters` over ``pairs_ds``) is not itself — i.e.
    keep one representative (min id) per duplicate cluster plus every
    singleton.  The loser set (small) is broadcast once via ray.put; the
    corpus-wide filter is a distributed map_batches anti-join."""
    import ray

    members = dedup_clusters(pairs_ds).to_pandas()
    losers = members.loc[
        members["doc_id"] != members["cluster_id"], "doc_id"
    ].to_numpy(np.int64)
    losers_ref = ray.put(np.sort(losers))

    def keep(batch: pa.Table) -> pa.Table:
        from .sampling import lookup_sorted

        drop = ray.get(losers_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _, hit = lookup_sorted(drop, ids)
        return batch.filter(pa.array(~hit))

    return ds.map_batches(keep, batch_format="pyarrow")


def dedup_filter_by(ds, pairs_ds, score_col: str, id_col: str = "doc_id",
                    descending: bool = True):
    """Quality-aware survivor selection: within each near-dup cluster keep
    the BEST row by ``(score, id)`` instead of the min id — what a real
    curation pipeline wants (keep the highest-quality copy).  Scale shape
    matches :func:`dedup_filter`: clusters come from the (small) pair
    graph; the per-cluster winner is chosen from only the clustered docs'
    scores (fetched via one vectorized filter pass, never the corpus); the
    loser set broadcasts once and the corpus streams through an anti-join
    filter.  Deterministic for integer scores (ties -> smaller id)."""
    import ray

    members = dedup_clusters(pairs_ds).to_pandas()
    if len(members) == 0:
        return ds
    member_ids = np.sort(members["doc_id"].to_numpy(np.int64))
    mref = ray.put(member_ids)

    def member_scores(batch: pa.Table) -> pa.Table:
        from .sampling import lookup_sorted

        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _, hit = lookup_sorted(ray.get(mref), ids)
        return pa.table(
            {
                "doc_id": pa.array(ids[hit], pa.int64()),
                "score": pa.array(
                    batch[score_col].to_numpy(zero_copy_only=False)[hit]
                    .astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    scores = ds.map_batches(member_scores, batch_format="pyarrow").to_pandas()
    m = members.merge(scores, on="doc_id", how="left")
    sgn = -1.0 if descending else 1.0
    # Sign-aware sentinel: a cluster member with no score row must LOSE
    # under either sort direction (with descending=False a -inf fill would
    # have sorted first and evicted every real doc in its cluster).
    m["score"] = m["score"].fillna(sgn * np.inf)
    m = m.sort_values(["cluster_id", "doc_id"])
    order = np.lexsort(
        (m["doc_id"].to_numpy(), sgn * m["score"].to_numpy(),
         m["cluster_id"].to_numpy())
    )
    first = np.unique(m["cluster_id"].to_numpy()[order], return_index=True)[1]
    member_arr = m["doc_id"].to_numpy(np.int64)
    winners = np.sort(member_arr[order[first]])
    from .sampling import lookup_sorted as _ls

    _, is_winner = _ls(winners, member_arr)
    losers = np.unique(member_arr[~is_winner])
    losers_ref = ray.put(losers)

    def keep(batch: pa.Table) -> pa.Table:
        from .sampling import lookup_sorted

        drop = ray.get(losers_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _, hit = lookup_sorted(drop, ids)
        return batch.filter(pa.array(~hit))

    return ds.map_batches(keep, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# minhash + LSH
# --------------------------------------------------------------------------- #
def _perm_params(num_perm: int, seed: int):
    """a, b < 2^32 so a * x32 + b < 2^64 computes EXACTLY in uint64 — a
    full-width product would silently wrap mod 2^64 before the Mersenne
    mod, breaking the permutation family (collisions bias est_jaccard)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 32, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 1 << 32, size=num_perm, dtype=np.uint64)
    return a, b


class MinHashStage:
    """Per-doc minhash signature (num_perm x u64->u32) — permutation params
    built once per actor; the per-batch work is one (shingles x perms)
    broadcast min-reduce via np.minimum.reduceat.

    Signatures are emitted as packed ``large_binary`` rows (num_perm
    little-endian u64s): binary payloads survive the distributed hash join
    in the verify stage (Arrow's join kernel rejects fixed_size_list)."""

    def __init__(self, text_col: str, id_col: str, n: int, num_perm: int, seed: int):
        self.text_col, self.id_col, self.n = text_col, id_col, n
        self.a, self.b = _perm_params(num_perm, seed)
        self.num_perm = num_perm

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh = shingle_batch(batch, self.text_col, self.id_col, self.n)
        ids_all = batch[self.id_col].to_numpy(zero_copy_only=False)
        kp = sh[self.id_col].to_numpy(zero_copy_only=False)
        kg = sh["shingle"].to_numpy(zero_copy_only=False).view(np.uint64)
        # group boundaries (kp sorted by construction)
        starts = np.r_[0, 1 + np.flatnonzero(kp[1:] != kp[:-1])] if len(kp) else np.empty(0, np.int64)
        sigs = np.full((len(ids_all), self.num_perm), np.iinfo(np.uint64).max, np.uint64)
        if len(kp):
            # fold shingles to 32 bits so the affine hash is exact in u64
            x32 = ((kg ^ (kg >> np.uint64(32))) & np.uint64(0xFFFFFFFF))[:, None]
            # hash + min-reduce 8 perms at a time: the (n_shingles x 8)
            # slab stays cache-resident instead of round-tripping the full
            # (n_shingles x num_perm) matrix through DRAM — the kernel is
            # bandwidth-bound, and this measures ~2x over the full matrix
            mins = np.empty((len(starts), self.num_perm), np.uint64)
            for o in range(0, self.num_perm, 8):
                hv = (x32 * self.a[None, o:o + 8] + self.b[None, o:o + 8]) % _MERSENNE
                mins[:, o:o + 8] = np.minimum.reduceat(hv, starts, axis=0)
            present_ids = kp[starts.astype(np.int64)]
            id_to_row = {v: i for i, v in enumerate(ids_all)}
            rows = np.fromiter((id_to_row[v] for v in present_ids), np.int64, count=len(present_ids))
            sigs[rows] = mins
        packed = np.ascontiguousarray(sigs, dtype="<u8").tobytes()
        row_bytes = self.num_perm * 8
        offsets = np.arange(len(ids_all) + 1, dtype=np.int64) * row_bytes
        sig_col = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(ids_all),
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(packed)],
        )
        return pa.table(
            {self.id_col: pa.array(ids_all, pa.int64()), "sig": sig_col}
        )


def minhash_lsh_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    num_perm: int = 128,
    bands: int = 32,
    threshold: float = 0.5,
    seed: int = 42,
    max_group: int = 512,
    concurrency: int | None = None,
    join_partitions: int | None = None,
):
    """Near-dup pairs via MinHash+LSH: (id_a, id_b, est_jaccard).  Candidate
    generation = band-bucket groupby; verification = signature agreement
    fraction (unbiased jaccard estimator) >= threshold.

    Verify is a distributed candidates x signatures hash join on doc id
    (each partition compares signature matrices vectorized) — per-doc state
    never centralizes, so the tail streams at any corpus size."""
    import ray.data as rd

    rows_per_band = num_perm // bands
    # bound the (n_shingles x num_perm) hash matrix: 512 docs x ~200
    # shingles x 128 perms x 8B ~ 100 MB per task
    kwargs: dict = {"batch_format": "pyarrow", "batch_size": 512}
    if concurrency:
        kwargs["concurrency"] = concurrency
    sigs = ds.map_batches(
        MinHashStage(text_col, id_col, n, num_perm, seed), **kwargs
    ).materialize()

    def band_keys(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sig = _binary_matrix(batch["sig"], num_perm, "<u8")
        outs_id, outs_key = [], []
        for bi in range(bands):
            chunk = sig[:, bi * rows_per_band : (bi + 1) * rows_per_band]
            # stable 64-bit digest of the band content + band index
            key = np.zeros(len(ids), np.uint64)
            for c in range(rows_per_band):
                key = (key * np.uint64(1099511628211)) ^ chunk[:, c]
            key = (key << np.uint64(6)) | np.uint64(bi)
            outs_id.append(ids)
            outs_key.append(key)
        keys = np.concatenate(outs_key)
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(outs_id), pa.int64()),
                "key": pa.array(keys, pa.uint64()),
                "bucket": pa.array((keys % np.uint64(32)).astype(np.int32), pa.int32()),
            }
        )

    cands = (
        sigs.map_batches(band_keys, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_PairEmit("id_a", max_group, key_col="key"), batch_format="pyarrow")
    )
    # dedup pairs surfacing from several bands BEFORE the verify join, so
    # each unique pair ships its two signatures exactly once
    uniq = _unique_pairs(cands).materialize()
    if uniq.count() == 0:
        return rd.from_arrow(_empty_pairs(("est_jaccard", pa.float64())))

    joined = _attach_pair_payload(
        uniq, sigs, id_col, ["sig"], _join_parts(join_partitions),
        n_values=sigs.count(), values_row_bytes=num_perm * 8 + 8,
    )

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        sa = _binary_matrix(batch["sig_a"], num_perm, "<u8")
        sb = _binary_matrix(batch["sig_b"], num_perm, "<u8")
        est = round6((sa == sb).mean(axis=1)) if len(a) else np.empty(0, np.float64)
        keep = est >= threshold
        return pa.table(
            {
                "id_a": pa.array(a[keep], pa.int64()),
                "id_b": pa.array(b[keep], pa.int64()),
                "est_jaccard": pa.array(est[keep], pa.float64()),
            }
        )

    return joined.map_batches(verify, batch_format="pyarrow")


def _shingle_set_table(ds, text_col: str, id_col: str, n: int):
    """Per-doc packed sorted shingle set ``(id, shset:large_binary)`` — the
    payload for exact-jaccard verification of LSH candidates (~8 B per
    distinct shingle per doc; binary packing survives the hash join)."""

    def pack(batch: pa.Table) -> pa.Table:
        sh = shingle_batch(batch, text_col, id_col, n)
        ids_all = batch[id_col].to_numpy(zero_copy_only=False)
        sid = sh[id_col].to_numpy(zero_copy_only=False)
        kg = sh["shingle"].to_numpy(zero_copy_only=False)
        counts = np.zeros(len(ids_all), np.int64)
        if len(sid):
            # groups follow batch-row order (shingle_batch sorts by parent
            # row); shingles sorted ascending within each group
            starts = np.r_[0, 1 + np.flatnonzero(sid[1:] != sid[:-1])]
            glens = np.diff(np.r_[starts, len(sid)])
            row_of = {v: i for i, v in enumerate(ids_all)}
            for s, L in zip(sid[starts], glens):
                counts[row_of[s]] = L
        offsets = np.zeros(len(ids_all) + 1, np.int64)
        np.cumsum(counts * 8, out=offsets[1:])
        buf = np.ascontiguousarray(kg, dtype="<i8").tobytes()
        col = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(ids_all),
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(buf)],
        )
        return pa.table({id_col: pa.array(ids_all, pa.int64()), "shset": col})

    return ds.map_batches(pack, batch_format="pyarrow", batch_size=512)


def minhash_lsh_exact_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    num_perm: int = 128,
    bands: int = 64,
    threshold: float = 0.5,
    seed: int = 42,
    max_group: int = 512,
    concurrency: int | None = None,
    join_partitions: int | None = None,
):
    """MinHash-LSH candidate generation + EXACT n-gram-Jaccard verification
    — the industry-standard near-dup pipeline (LSH prunes the pair space,
    the true Jaccard decides).  Output (id_a, id_b, jaccard) matches
    :func:`ngram_jaccard_pairs` exactly on every pair LSH surfaces; with
    aggressive banding (default rows-per-band = num_perm/bands = 2) recall
    at ``threshold`` is ~1, making the exact-jaccard SQL a valid oracle at
    test scales while the candidate stage stays sub-quadratic.

    Scale shape: signatures and candidates as in :func:`minhash_lsh_pairs`;
    the verify payload is the per-doc shingle SET (size-gated broadcast vs
    distributed hash join), and each pair's set intersection runs inside
    ``map_batches`` — per-doc state never centralizes."""
    import ray.data as rd

    sig_pairs = minhash_lsh_pairs(
        ds, text_col, id_col, n, num_perm, bands,
        threshold=0.0,  # keep EVERY candidate; exact verify decides below
        seed=seed, max_group=max_group, concurrency=concurrency,
        join_partitions=join_partitions,
    )
    # sig_pairs is already pair-unique (minhash_lsh_pairs dedups before its
    # verify join) — just drop the estimator column
    cands = sig_pairs.select_columns(["id_a", "id_b"]).materialize()
    if cands.count() == 0:
        return rd.from_arrow(_empty_pairs(("jaccard", pa.float64())))

    sets = _shingle_set_table(ds, text_col, id_col, n).materialize()
    joined = _attach_pair_payload(
        cands, sets, id_col, ["shset"], _join_parts(join_partitions),
        n_values=sets.count(), values_row_bytes=2048,
    )

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        sa, sb = batch["shset_a"], batch["shset_b"]
        j = np.zeros(len(a), np.float64)
        for i in range(len(a)):
            xa = np.frombuffer(sa[i].as_py() or b"", dtype="<i8")
            xb = np.frombuffer(sb[i].as_py() or b"", dtype="<i8")
            inter = np.intersect1d(xa, xb, assume_unique=True).size
            union = len(xa) + len(xb) - inter
            j[i] = inter / union if union else 0.0
        j = round6(j)
        keep = j >= threshold
        return pa.table(
            {
                "id_a": pa.array(a[keep], pa.int64()),
                "id_b": pa.array(b[keep], pa.int64()),
                "jaccard": pa.array(j[keep], pa.float64()),
            }
        )

    return joined.map_batches(verify, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# simhash
# --------------------------------------------------------------------------- #
def simhash_batch(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """64-bit tf-weighted simhash per doc, fully vectorized via bincount
    over (doc, bit) keys."""
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    flat, parents = _flatten_tokens(texts)
    h = u64(flat)
    n_rows = batch.num_rows
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    sims = np.zeros(n_rows, dtype=np.uint64)
    if len(h):
        # accumulate +1/-1 per bit: counts of set bits per (doc, bit).
        # One np.bincount per bit — ~18x faster than a scatter np.add.at
        # over the (tokens x 64) bit matrix (measured; add.at has no
        # vectorized fast path)
        ones = np.empty((n_rows, 64), np.int64)
        for b in range(64):
            w = ((h >> np.uint64(b)) & np.uint64(1)).astype(np.float64)
            ones[:, b] = np.bincount(parents, weights=w, minlength=n_rows)
        total = np.bincount(parents, minlength=n_rows)[:, None]
        simbits = (ones * 2 > total).astype(np.uint64)
        sims = (simbits << np.arange(64, dtype=np.uint64)[None, :]).sum(
            axis=1, dtype=np.uint64
        )
    return pa.table(
        {id_col: pa.array(ids, pa.int64()), "simhash": pa.array(sims, pa.uint64())}
    )


def simhash_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_group: int = 1024,
    join_partitions: int | None = None,
):
    """Pairs within Hamming distance <= max_hamming of their 64-bit simhash.
    Blocking: split 64 bits into (max_hamming+1) blocks — a qualifying pair
    must agree exactly on >=1 block (pigeonhole), so candidates come from
    (block_id, block_value) groupbys; verified by popcount over a
    distributed candidates x simhash join (no driver-side value table)."""
    import ray.data as rd

    n_blocks = max_hamming + 1
    width = 64 // n_blocks

    sims = ds.map_batches(
        lambda b: simhash_batch(b, text_col, id_col),
        batch_format="pyarrow",
        batch_size=2048,  # bounds the (docs x 64)-bit accumulation matrices
    ).materialize()

    def block_keys(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        s = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        out_i, out_k = [], []
        for bi in range(n_blocks):
            lo = bi * width
            hi = 64 if bi == n_blocks - 1 else lo + width
            mask = (np.uint64((1 << (hi - lo)) - 1)) << np.uint64(lo)
            val = (s & mask) >> np.uint64(lo)
            out_i.append(ids)
            out_k.append((val << np.uint64(3)) | np.uint64(bi))
        keys = np.concatenate(out_k)
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_i), pa.int64()),
                "key": pa.array(keys, pa.uint64()),
                "bucket": pa.array((keys % np.uint64(32)).astype(np.int32), pa.int32()),
            }
        )

    cands = (
        sims.map_batches(block_keys, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_PairEmit("id_a", max_group, key_col="key"), batch_format="pyarrow")
    )
    uniq = _unique_pairs(cands).materialize()
    if uniq.count() == 0:
        return rd.from_arrow(_empty_pairs(("hamming", pa.int64())))

    joined = _attach_pair_payload(
        uniq, sims, id_col, ["simhash"], _join_parts(join_partitions),
        n_values=sims.count(), values_row_bytes=16,
    )

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        sa = batch["simhash_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        sb = batch["simhash_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x = sa ^ sb
        ham = np.zeros(len(x), np.int64)
        for i in range(64):
            ham += ((x >> np.uint64(i)) & np.uint64(1)).astype(np.int64)
        keep = ham <= max_hamming
        return pa.table(
            {
                "id_a": pa.array(a[keep], pa.int64()),
                "id_b": pa.array(b[keep], pa.int64()),
                "hamming": pa.array(ham[keep], pa.int64()),
            }
        )

    return joined.map_batches(verify, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# embedding cosine near-dup
# --------------------------------------------------------------------------- #
def _unit_nvec(V: np.ndarray):
    """``(U, nvec)``: the float64 rows of ``V`` unit-normalized
    (``simsearch._normalize``) and each packed as one little-endian f8
    ``large_binary`` value — THE packing every embedding dedup kernel
    reads back with ``_binary_matrix``."""
    from .simsearch import _normalize

    U = np.ascontiguousarray(_normalize(V), dtype="<f8")
    offsets = np.arange(len(U) + 1, dtype=np.int64) * U.shape[1] * 8
    nvec = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(U),
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(U.tobytes())],
    )
    return U, nvec


def _pack_norm_vec(batch: pa.Table, id_col: str, vec_col: str) -> pa.Table:
    """(id, nvec:large_binary) — unit-normalized f64 vector packed per row
    (binary survives hash joins; normalization done once, upstream of every
    pair kernel)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    vec = batch[vec_col]
    if isinstance(vec, pa.ChunkedArray):
        vec = vec.combine_chunks()
    V = np.stack(vec.to_numpy(zero_copy_only=False)).astype(np.float64) \
        if len(ids) else np.empty((0, 0))
    return pa.table({id_col: pa.array(ids, pa.int64()),
                     "nvec": _unit_nvec(V)[1]})


def embedding_dup_pairs(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
):
    """EXACT cosine-similarity >= threshold pairs (id_a < id_b, cos 6dp).

    Distributed block-pair matmul: normalized (id, matrix) blocks live in
    the OBJECT STORE (the driver holds only ObjectRefs — the corpus never
    centralizes) and one Ray task per unordered block pair computes its
    similarity tile.  Exact all-pairs is inherently O(N^2) work; this
    spreads the tiles across the cluster and streams results back as a
    Dataset.  For billion-row approximate near-dup use
    :func:`embedding_dup_pairs_lsh` (same output contract, LSH-bounded
    candidate generation)."""
    import ray
    import ray.data as rd

    blocks = ds.map_batches(
        lambda b: _pack_norm_vec(b, id_col, vec_col), batch_format="pyarrow"
    )
    refs = [r for r in blocks.materialize().to_arrow_refs()]

    @ray.remote
    def tile(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ia = ta[id_col].to_numpy(zero_copy_only=False)
        ib = tb[id_col].to_numpy(zero_copy_only=False)
        if len(ia) == 0 or len(ib) == 0:
            return _empty_pairs(("cosine", pa.float64()))
        dim = len(ta["nvec"][0].as_py()) // 8
        A = _binary_matrix(ta["nvec"], dim, "<f8")
        B = A if same else _binary_matrix(tb["nvec"], dim, "<f8")
        sims = A @ B.T
        ri, ci = np.nonzero(sims >= threshold)
        a, b = ia[ri], ib[ci]
        if same:
            keep = a < b
        else:
            # canonicalize cross-tile pairs (ids are arbitrary across blocks)
            keep = a != b
            a, b = np.minimum(a, b), np.maximum(a, b)
        return pa.table(
            {
                "id_a": pa.array(a[keep], pa.int64()),
                "id_b": pa.array(b[keep], pa.int64()),
                "cosine": pa.array(round6(sims[ri, ci][keep]), pa.float64()),
            }
        )

    futs = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            futs.append(tile.remote(refs[i], refs[j], i == j))
    if not futs:
        return rd.from_arrow(_empty_pairs(("cosine", pa.float64())))
    return rd.from_arrow_refs(futs)


def embedding_dup_pairs_lsh(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    n_planes: int = 10,
    n_tables: int = 8,
    seed: int = 42,
    max_group: int = 4096,
    join_partitions: int | None = None,
):
    """APPROXIMATE cosine near-dup pairs — the billion-row path.  Random-
    hyperplane LSH (Charikar 2002) buckets each vector in ``n_tables``
    independent tables; candidate pairs come from bucket co-occurrence
    (_PairEmit, capped at max_group) and are verified EXACTLY by a
    distributed pair x vector hash join + per-pair dot product.  Output
    schema matches :func:`embedding_dup_pairs`; recall < 1 by design —
    tests pin it against the exact operator."""
    import ray.data as rd

    from .simsearch import _LshIndexStage

    vecs = ds.map_batches(
        lambda b: _pack_norm_vec(b, id_col, vec_col), batch_format="pyarrow"
    ).materialize()

    def bucket_keys(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table(
                {"id_a": pa.array([], pa.int64()),
                 "key": pa.array([], pa.uint64()),
                 "bucket": pa.array([], pa.int32())}
            )
        dim = len(batch["nvec"][0].as_py()) // 8
        V = _binary_matrix(batch["nvec"], dim, "<f8")
        out_i, out_k = [], []
        for t in range(n_tables):
            st = _LshIndexStage(n_planes, dim, seed + t)
            key = (st.key_of(V) << np.uint64(4)) | np.uint64(t)
            out_i.append(ids)
            out_k.append(key)
        keys = np.concatenate(out_k)
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_i), pa.int64()),
                "key": pa.array(keys, pa.uint64()),
                "bucket": pa.array((keys % np.uint64(32)).astype(np.int32), pa.int32()),
            }
        )

    cands = (
        vecs.map_batches(bucket_keys, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_PairEmit("id_a", max_group, key_col="key"), batch_format="pyarrow")
    )
    uniq = _unique_pairs(cands).materialize()
    if uniq.count() == 0:
        return rd.from_arrow(_empty_pairs(("cosine", pa.float64())))

    nv = vecs.count()
    # row bytes = id + packed f64 vector; read dim off the first row
    dim_bytes = len(vecs.take(1)[0]["nvec"]) if nv else 0
    joined = _attach_pair_payload(
        uniq, vecs, id_col, ["nvec"], _join_parts(join_partitions),
        n_values=nv, values_row_bytes=dim_bytes + 8,
    )

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        if len(a) == 0:
            return _empty_pairs(("cosine", pa.float64()))
        dim = len(batch["nvec_a"][0].as_py()) // 8
        A = _binary_matrix(batch["nvec_a"], dim, "<f8")
        B = _binary_matrix(batch["nvec_b"], dim, "<f8")
        cos = round6(np.einsum("ij,ij->i", A, B))
        keep = cos >= threshold
        return pa.table(
            {
                "id_a": pa.array(a[keep], pa.int64()),
                "id_b": pa.array(b[keep], pa.int64()),
                "cosine": pa.array(cos[keep], pa.float64()),
            }
        )

    return joined.map_batches(verify, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# semantic dedup: cluster-scoped cosine (SemDeDup)
# --------------------------------------------------------------------------- #
def semdedup(
    ds,
    centroids: np.ndarray,
    threshold: float = 0.95,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    chunk: int = 8192,
    emit: str = "survivors",
    keep: str = "earliest",
):
    """SemDeDup survivors: cluster-scoped semantic deduplication (Abbas et
    al., "SemDeDup: Data-efficient learning at web-scale through semantic
    deduplication", arXiv 2303.09540 — public literature).

    Two stages, one shuffle:

    1. ASSIGN (map-only, centroids broadcast once via ``ray.put``): each
       vector goes to its nearest centroid — the exact
       ``simsearch._nearest_clusters`` expression ``kmeans_assign`` uses,
       so assignments agree with that operator's SQL oracle bit-for-bit.
       The batch also packs the unit-normalized vector (binary column) so
       the cosine stage never re-reads the corpus.
    2. COLLAPSE (``groupby(cluster).map_groups``): within each cluster a
       vector is a semantic duplicate iff ANY member earlier in the
       ``keep`` precedence order has cosine similarity >= ``threshold``.
       The pairwise pass is a ``chunk``-row tiled matmul: memory is
       O(chunk x |cluster|), compute the O(|cluster|^2) dot products the
       method is defined by.

    ``keep`` selects the survivor precedence within a cluster:

    * ``"earliest"`` (default) — smaller ``id_col`` wins.  This is the
      deterministic, SQL-oracle-checkable order (an EXISTS against
      earlier same-cluster rows) and the one the driver oracle covers.
    * ``"centroid"`` — the paper's pick (§2 of arXiv 2303.09540): within
      a duplicate group, KEEP the example with the LOWEST cosine
      similarity to its cluster centroid (ties broken by smaller id).
      Implemented as the same greedy pass with members visited in
      ascending (centroid-cosine, id) order, so a vector is dropped iff
      some lower-centroid-similarity member is within ``threshold``.
      NOT SQL-oracled (float precedence order); pinned by a pytest
      brute-force reference instead.

    Returns ``(id_col, cluster)`` rows — the SURVIVORS by default, or the
    DROPPED set with ``emit="dropped"``.  Downstream corpus filtering
    should broadcast the dropped set (small: only the duplicates), never
    the survivor set (corpus-sized) — see :func:`filter_ids`.

    Scale contract (from the paper): k — the number of centroids — must
    grow with the corpus so clusters stay bounded; with |cluster| ~ N/k
    fixed, stage 2 is flat per-group work behind one hash shuffle on
    ``cluster``.  Callers fit centroids with ``kmeans_fit`` (streaming
    Lloyd) or pass seed rows for a deterministic demo/oracle setup.
    """
    if emit not in ("survivors", "dropped"):
        raise ValueError(f"emit={emit!r}: 'survivors' or 'dropped'")
    if keep not in ("earliest", "centroid"):
        raise ValueError(f"keep={keep!r}: 'earliest' or 'centroid'")
    import ray

    from .simsearch import _nearest_clusters

    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        g_C = ray.get(cref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        V = (np.stack(batch[vec_col].to_numpy(zero_copy_only=False))
             .astype(np.float64) if len(ids) else np.empty((0, g_C.shape[1])))
        a, _d = _nearest_clusters(V, g_C)
        # pack the unit-normalized rows from the ALREADY-stacked matrix
        # (one Arrow->numpy conversion per batch, not two)
        U, nvec = _unit_nvec(V)
        cols = {id_col: pa.array(ids, pa.int64()), "nvec": nvec,
                "cluster": pa.array(a, pa.int64())}
        if keep == "centroid":
            # cosine(v, assigned centroid) — the paper's precedence key;
            # computed here so COLLAPSE never re-touches the centroids
            Cn = g_C / np.maximum(
                np.linalg.norm(g_C, axis=1, keepdims=True), 1e-300)
            cols["csim"] = pa.array(
                round6(np.einsum("ij,ij->i", U, Cn[a])), pa.float64())
        return pa.table(cols)

    def collapse(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64())})
        if keep == "centroid":
            csim = group["csim"].to_numpy(zero_copy_only=False)
            order = np.lexsort((ids, csim))  # low centroid-sim kept first
        else:
            order = np.argsort(ids)
        ids = ids[order]
        nvec = group["nvec"].take(pa.array(order, pa.int64()))
        dim = len(nvec[0].as_py()) // 8
        V = _binary_matrix(nvec, dim, "<f8")
        n = len(ids)
        dup = np.zeros(n, bool)
        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            # round6 BEFORE the compare — the oracle's ROUND(cos, 6) >= t;
            # unrounded engine-side compares would diverge on boundary
            # pairs (the embedding_dup_pairs_lsh verify convention)
            G = round6(V[s:e] @ V[:e].T)
            earlier = np.arange(e)[None, :] < np.arange(s, e)[:, None]
            dup[s:e] = ((G >= threshold) & earlier).any(axis=1)
        sel = dup if emit == "dropped" else ~dup
        cl = group["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({id_col: pa.array(ids[sel], pa.int64()),
                         "cluster": pa.array(cl[order][sel], pa.int64())})

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(collapse, batch_format="pyarrow")
    )


def filter_ids(ds, ids, id_col: str = "doc_id", keep: bool = False):
    """Stream ``ds`` through an id-set membership filter: DROP rows whose
    ``id_col`` is in ``ids`` (or KEEP only those with ``keep=True``).

    ``ids`` is a numpy int64 array or a Dataset with an ``id_col`` column
    (materialized driver-side — pass the SMALL side: a dropped-dup set, a
    blocklist; never a corpus-sized survivor list).  The set broadcasts
    once via ``ray.put`` as a sorted array and every batch filters with
    one searchsorted pass — the corpus itself never shuffles.  The
    broadcast gate is ENFORCED: an id set over ``BROADCAST_BYTES`` raises
    instead of silently ballooning every worker's heap — for big sets use
    the co-grouped shape (:func:`filter_seen` for digests, or invert the
    sides so the small set is the one that ships)."""
    import ray

    if not isinstance(ids, np.ndarray):
        ids = ids.to_pandas()[id_col].to_numpy(np.int64)
    ids = ids.astype(np.int64)
    if ids.nbytes > BROADCAST_BYTES:
        raise ValueError(
            f"filter_ids: {len(ids)} ids = {ids.nbytes >> 20} MB exceeds "
            f"the broadcast gate ({BROADCAST_BYTES >> 20} MB); pass the "
            "SMALL side (e.g. semdedup(emit='dropped')) or use a "
            "co-grouped anti-join (filter_seen's shape)"
        )
    ref = ray.put(np.sort(ids))

    def flt(batch: pa.Table) -> pa.Table:
        from .sampling import lookup_sorted

        bid = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        _, hit = lookup_sorted(ray.get(ref), bid)
        return batch.filter(pa.array(hit if keep else ~hit))

    return ds.map_batches(flt, batch_format="pyarrow")


# --------------------------------------------------------------------------- #
# benchmark decontamination (train/test n-gram overlap)
# --------------------------------------------------------------------------- #
def contamination(
    ds,
    bench: pa.Table,
    n: int = 3,
    threshold: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
    bench_text_col: str | None = None,
    bench_id_col: str | None = None,
):
    """Find corpus docs contaminated by a benchmark/test set: rows
    ``(doc_id, bench_id, overlap_frac)`` where overlap_frac = |distinct
    n-grams(doc) ∩ n-grams(bench doc)| / |n-grams(bench doc)| — the
    CONTAINMENT of the benchmark doc, the standard train/test-leak check —
    is >= ``threshold`` (and doc != bench doc).

    Scale shape: the benchmark side is small by nature (a test set), so its
    gram->doc index ships once as a CSR broadcast (sorted 64-bit gram
    hashes + offsets); the corpus STREAMS through one vectorized
    ``map_batches`` scan — no shuffle, no pair blow-up beyond actual hits.
    Use a distributed shingle join (the ngram_jaccard plan) if the
    "benchmark" ever stops fitting a broadcast."""
    import ray

    from .analysis import round6

    b_text = bench_text_col or text_col
    b_id = bench_id_col or id_col

    texts = bench[b_text]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    bids_all = bench[b_id].to_numpy(zero_copy_only=False)
    # rolled gram hashes (md5 per unique TOKEN, not per unique gram) — the
    # same kernel the ngram-jaccard dedup uses; hash-equality stands in for
    # string equality on both sides
    ghash, bdocs_row = _doc_gram_hashes(texts, n)
    if len(ghash) == 0:
        empty = _empty_pairs(("overlap_frac", pa.float64()))
        empty = empty.rename_columns([id_col, "bench_id", "overlap_frac"])
        import ray.data as rd

        return rd.from_arrow(empty)
    # one row per distinct (bench doc, gram); CSR over SORTED gram hash
    bsizes = np.bincount(bdocs_row, minlength=len(bids_all)).astype(np.int64)
    order = np.argsort(ghash, kind="stable")
    gh_sorted = ghash[order]
    bdoc_sorted = bdocs_row[order].astype(np.int64)
    uniq_h, starts = np.unique(gh_sorted, return_index=True)
    ends = np.r_[starts[1:], len(gh_sorted)]
    bref = ray.put((uniq_h, starts, ends, bdoc_sorted, bsizes, bids_all))

    def scan(batch: pa.Table) -> pa.Table:
        g_uniq, g_st, g_en, g_bdoc, g_bsz, g_bids = ray.get(bref)
        a_ids = batch[id_col].to_numpy(zero_copy_only=False)
        t = batch[text_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        ah, arow = _doc_gram_hashes(t, n)
        out_schema = {
            id_col: pa.array([], pa.int64()),
            "bench_id": pa.array([], pa.int64()),
            "overlap_frac": pa.array([], pa.float64()),
        }
        if len(ah) == 0:
            return pa.table(out_schema)
        from .sampling import lookup_sorted

        pos, hit = lookup_sorted(g_uniq, ah)
        if not hit.any():
            return pa.table(out_schema)
        arow_h, pos_h = arow[hit], pos[hit]
        # expand each hit gram to every bench doc containing it (CSR gather)
        cnt = g_en[pos_h] - g_st[pos_h]
        total = int(cnt.sum())
        gidx = np.repeat(g_st[pos_h], cnt) + (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(cnt) - cnt, cnt)
        )
        pair_a = np.repeat(arow_h, cnt)
        pair_b = g_bdoc[gidx]
        key = pair_a * np.int64(len(g_bsz)) + pair_b
        uk, shared = np.unique(key, return_counts=True)
        ua = (uk // len(g_bsz)).astype(np.int64)
        ub = (uk % len(g_bsz)).astype(np.int64)
        frac = shared / np.maximum(g_bsz[ub], 1)
        keep = (frac >= threshold) & (a_ids[ua] != g_bids[ub])
        return pa.table(
            {
                id_col: pa.array(a_ids[ua[keep]], pa.int64()),
                "bench_id": pa.array(g_bids[ub[keep]], pa.int64()),
                "overlap_frac": pa.array(round6(frac[keep]), pa.float64()),
            }
        )

    return ds.map_batches(scan, batch_format="pyarrow")
