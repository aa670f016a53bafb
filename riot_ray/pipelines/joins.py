"""Public join operators for enrichment pipelines.

Two shapes, matching the two scale regimes (the same size logic the dedup
verify tails use internally via ``_attach_pair_payload``):

* ``broadcast_join`` — the dimension-table join: the small side is put in
  the object store ONCE (``ray.put``) and every map task does a vectorized
  sorted-key lookup per batch.  Zero shuffle of the big side; the small
  side must fit in worker memory (millions of rows, not billions).
* ``hash_join`` — both sides large: ONE sort-shuffle
  ``groupby(part).map_groups`` over the tagged union of the two sides
  (public wrapper over the engine's ``_hash_join``, which the dedup verify
  stages already trust; Ray 2.49's ``Dataset.join`` crashes on empty hash
  partitions).

Both are inner joins keyed on a single column, with the right side UNIQUE
on its key; ``broadcast_join(how="left")`` keeps unmatched left rows with
null payloads.

``_score_per_doc`` is the corpus-scoring plan built on the two: per-doc
occurrence rows attach a keyed weight table and reduce per doc (the LM,
tf-idf and Naive Bayes scorers).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _small_side(right, right_on: str, payload: dict[str, str]):
    """(sorted keys ndarray, {out_name: pa.Array aligned to keys})."""
    if not isinstance(right, pa.Table):
        raise TypeError(
            "broadcast_join's small side must be a pyarrow Table "
            "(load dimension tables with pq.read_table; use hash_join "
            "when the right side is too big to hold in memory)"
        )
    keys = right[right_on].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    if len(np.unique(keys)) != len(keys):
        raise ValueError(f"right side not unique on {right_on}")
    cols = {}
    take = pa.array(order, pa.int64())
    for src, out in payload.items():
        col = right[src]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        cols[out] = col.take(take)
    return keys[order], cols


def broadcast_join(
    big,
    small: pa.Table,
    left_on: str,
    right_on: str,
    payload: dict[str, str] | None = None,
    how: str = "inner",
):
    """Join a streaming Dataset against a small in-memory dimension table.

    ``small``: pyarrow Table (load it with ``pq.read_table`` — a dimension
    table never needs a Dataset).  ``payload`` maps right column -> output
    column (default: every non-key right column under its own name).
    The small side ships to the object store once; each batch resolves its
    keys with one ``np.searchsorted`` — no shuffle, no per-row Python."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(how)
    if payload is None:
        payload = {c: c for c in small.column_names if c != right_on}
    keys_sorted, cols = _small_side(small, right_on, payload)
    ref = ray.put((keys_sorted, cols))

    def join_batch(batch: pa.Table) -> pa.Table:
        from .sampling import lookup_sorted

        keys_s, payload_cols = ray.get(ref)
        lk = batch[left_on].to_numpy(zero_copy_only=False)
        pos, hit = lookup_sorted(keys_s, lk)
        if how == "inner":
            sel = np.flatnonzero(hit)
            out = batch.filter(pa.array(hit))
            idx = pa.array(pos[sel], pa.int64())
            for name, col in payload_cols.items():
                out = out.append_column(name, col.take(idx))
            return out
        # left: null payload where missed (take indices use None, not a
        # clamped 0, so an EMPTY dimension table yields all-null columns
        # instead of an out-of-bounds take)
        out = batch
        idx = pa.array(pos, pa.int64(), mask=~hit)  # null index -> null value
        for name, col in payload_cols.items():
            out = out.append_column(name, col.take(idx))
        return out

    return big.map_batches(join_batch, batch_format="pyarrow")


def hash_join(
    left,
    right,
    left_on: str,
    right_on: str,
    payload: dict[str, str] | None = None,
    num_partitions: int | None = None,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """Distributed inner hash-join for two large Datasets (right unique on
    its key).  One sort-shuffle over the tagged union of both sides; only
    (key, payload) columns of the right side move.

    Pass ``left_schema``/``right_schema`` when the datasets are lazy
    transformed pipelines — ``Dataset.schema()`` on an unexecuted plan runs
    it once just to peek a row; each schema here is probed AT MOST once and
    forwarded so the underlying join never re-probes."""
    from .dedup import _hash_join, _join_parts

    if right_schema is None:
        rs = right.schema()
        right_schema = pa.schema(list(zip(rs.names, rs.types)))
    if payload is None:
        payload = {c: c for c in right_schema.names if c != right_on}
    if left_schema is None:
        ls = left.schema()
        left_schema = pa.schema(list(zip(ls.names, ls.types)))
    return _hash_join(
        left, right, left_on, right_on, payload, _join_parts(num_partitions),
        left_schema=left_schema, right_schema=right_schema,
    )


def _score_per_doc(ds, occ, occ_schema: pa.Schema, weights, key: str, reduce):
    """Score every doc of ``ds`` against a keyed weight table: the one plan
    behind the LM, tf-idf and Naive Bayes scorers.

    ``occ(batch)`` turns an input batch into per-doc-unique occurrence rows
    ``(id, key, tf, ...)`` with the doc id first, typed by ``occ_schema``
    (given, so the lazy input is never executed to peek at a row).
    ``weights`` is a Dataset unique on ``key``.  Each occurrence row whose
    key is in the table gets the table's other columns attached; rows
    without a match drop out, so a doc with no matching row emits nothing.
    ``reduce(ids, inv, rows)`` then turns the rows of the docs in one group
    (``ids`` sorted unique doc ids, ``inv`` each row's index into ``ids``)
    into output rows, and must accept zero rows.

    The branch follows the weight table's materialized size:

    * up to ``BROADCAST_BYTES`` the table is pulled once (a non-unique key
      raises), ``ray.put`` once, and each batch does occ → sorted-key
      lookup → reduce inside one map.  A doc never spans batches, so
      there is no shuffle;
    * above it the occurrence rows ``_hash_join`` the table on ``key``,
      are tagged by doc-id hash and reach ``reduce`` through one
      ``groupby`` — per-doc state never centralizes.

    Both branches hand ``reduce`` the same rows per doc, so they return
    the same rows; integer scores make the sums order-independent."""
    import ray

    from .dedup import BROADCAST_BYTES, _hash_join, _join_parts

    weights = weights.materialize()
    ws = weights.schema()
    w_schema = pa.schema(list(zip(ws.names, ws.types)))
    payload = {c: c for c in w_schema.names if c != key}
    if weights.size_bytes() <= BROADCAST_BYTES:
        tabs = [t for t in ray.get(weights.to_arrow_refs()) if t.num_rows]
        table = pa.concat_tables(tabs) if tabs else w_schema.empty_table()
        ref = ray.put(_small_side(table, key, payload))
        return ds.map_batches(_broadcast_score, batch_format="pyarrow",
                              fn_args=(occ, ref, key, reduce))
    num_partitions = _join_parts(None)
    occ_ds = ds.map_batches(_occ_rows, batch_format="pyarrow", fn_args=(occ,))
    joined = _hash_join(occ_ds, weights, key, key, payload, num_partitions,
                        left_schema=occ_schema, right_schema=w_schema)
    return (
        joined.map_batches(_tag_doc, batch_format="pyarrow",
                           fn_args=(occ_schema.names[0], num_partitions))
        .groupby("__dpart")
        .map_groups(_reduce_docs, batch_format="pyarrow", fn_args=(reduce,))
    )


def _reduce_docs(rows: pa.Table, reduce) -> pa.Table:
    """``reduce`` over the docs of ``rows`` (doc id in the first column)."""
    ids, inv = np.unique(rows.column(0).to_numpy(), return_inverse=True)
    return reduce(ids, inv, rows)


def _broadcast_score(batch: pa.Table, occ, ref, key: str, reduce) -> pa.Table:
    """Broadcast branch of :func:`_score_per_doc`: one batch's occurrence
    rows, their weight columns attached by sorted-key lookup, reduced."""
    import ray

    from .sampling import lookup_sorted

    keys, cols = ray.get(ref)
    rows = occ(batch)
    pos, hit = lookup_sorted(keys, rows[key].to_numpy())
    rows = rows.filter(pa.array(hit))
    take = pa.array(pos[hit], pa.int64())
    for name, col in cols.items():
        rows = rows.append_column(name, col.take(take))
    return _reduce_docs(rows, reduce)


def _occ_rows(batch: pa.Table, occ) -> pa.Table:
    """The hash-join branch's left side: ``occ`` behind one module-level
    task function, whatever callable the caller passed."""
    return occ(batch)


def _tag_doc(batch: pa.Table, id_col: str, num_partitions: int) -> pa.Table:
    """Hash partition of each row's doc id, as ``__dpart``."""
    ids = batch[id_col].to_numpy().astype(np.int64)
    part = (ids.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
    return batch.append_column("__dpart", pa.array(part, pa.int32()))
