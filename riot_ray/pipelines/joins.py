"""Joins for enrichment pipelines, and the one broadcast-or-shuffle gate.

Every pipeline join against a keyed table picks its branch here, from the
table's materialized size (:func:`_small_table`):

* up to ``BROADCAST_BYTES`` the table is pulled once, put in the object
  store once (``ray.put``) and every left batch runs the join kernel
  against the whole table inside one ``map_batches`` (:func:`_broadcast`)
  — the big side never shuffles;
* above it both sides hash-partition on their key and the kernel runs
  once per partition (:func:`_cogroup`): one sort-shuffle
  ``groupby("__part")`` over a schema-aligned tagged union of the two
  sides, split again inside the group — per-key state never centralizes.
  (Ray 2.49's ``Dataset.join`` crashes on empty hash partitions, so the
  join is built on the groupby primitive.)

A key-local kernel ``fn(left_rows, right_rows, *args)`` sees every right
row sharing a key with its left rows on both branches, so it runs
unchanged on both and they return the same rows.  :func:`_attach` is the
kernel of the equi-joins: the right side, unique on its key, attaches its
payload columns to one or more key columns of the left side.

Public operators: ``broadcast_join`` (a small in-memory dimension table)
and ``hash_join`` (both sides large).  Both are inner joins keyed on one
column with the right side UNIQUE on its key; ``broadcast_join(how=
"left")`` keeps unmatched left rows with null payloads.  Internal plans:
:func:`_attach_keyed` (gated attach, the dedup verify tails, PMI and the
funnel), :func:`_score_per_doc` (per-doc scoring against a keyed weight
table: the LM, tf-idf and Naive Bayes scorers) and :func:`_member_filter`
(a broadcast id-set semi/anti-join).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import u64
from ..query import lookup_sorted

# one broadcast copy per node is cheap up to this size; past it the keyed
# table is joined instead of centralized (Spark-style broadcast-join gate)
BROADCAST_BYTES = 64 << 20


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


def _schema_of(ds) -> pa.Schema:
    """A Dataset's schema as a pyarrow schema (runs a lazy plan once;
    empty when no block has one)."""
    s = ds.schema()
    return pa.schema(list(zip(s.names, s.types)) if s is not None else [])


def _gate_bytes() -> int:
    """The broadcast gate, read at call time."""
    return BROADCAST_BYTES


def _small_table(ds) -> pa.Table | None:
    """Materialize ``ds``; its rows as one Arrow table when the
    materialized size fits ``BROADCAST_BYTES``, else ``None`` (join it)."""
    import ray

    ds = ds.materialize()
    if ds.size_bytes() > BROADCAST_BYTES:
        return None
    full = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if full:
        return pa.concat_tables(full).combine_chunks()
    return _schema_of(ds).empty_table()


def _broadcast(left, small, fn, *args):
    """``fn(batch, small, *args)`` over every batch of ``left``; ``small``
    ships to the object store once."""
    import ray

    return left.map_batches(_apply_small, batch_format="pyarrow",
                            fn_args=(fn, ray.put(small), args))


def _apply_small(batch: pa.Table, fn, ref, args) -> pa.Table:
    import ray

    return fn(batch, ray.get(ref), *args)


def _part_of_keys(key, num_partitions: int) -> np.ndarray:
    """Partition id for a join key column.  Integer keys mod directly;
    any other key hashes its Arrow text (:func:`riot_ray.hashing.u64`).
    The key must hold no null: :func:`_cogroup` drops those rows first."""
    if pa.types.is_integer(key.type):
        return (key.to_numpy() % num_partitions).astype(np.int32)
    h = u64(key.cast(pa.string()))
    return (h % np.uint64(num_partitions)).astype(np.int32)


def _cogroup(left, right, left_part: str, right_part: str, fn, *args,
             num_partitions: int | None = None,
             left_schema: pa.Schema | None = None,
             right_schema: pa.Schema | None = None):
    """``fn(left_rows, right_rows, *args)`` once per hash partition, where
    each side is partitioned on its key column (``left_part`` /
    ``right_part``).  Rows whose key is null join nothing and are dropped.
    Each side keeps its own column names; ``fn`` must accept zero rows on
    either side and return one schema.

    Pass ``left_schema``/``right_schema`` whenever a side is LAZY:
    ``Dataset.schema()`` on an unexecuted pipeline runs the whole plan
    once just to peek a row — measured at 600k docs, the implicit schema
    probe doubled the dedup verify stage's wall time."""
    num_partitions = _join_parts(num_partitions)
    schemas = (left_schema or _schema_of(left),
               right_schema or _schema_of(right))
    tagged = [
        ds.map_batches(_tag_side, batch_format="pyarrow",
                       fn_args=(side, key, schemas, num_partitions))
        for side, (ds, key) in enumerate(((left, left_part),
                                          (right, right_part)))
    ]
    return tagged[0].union(tagged[1]).groupby("__part").map_groups(
        _split_sides, batch_format="pyarrow", fn_args=(schemas, fn, args))


def _tag_side(batch: pa.Table, side: int, key: str, schemas,
              num_partitions: int) -> pa.Table:
    """One side's rows in the union layout: partition, side, then every
    column of both sides (``"{side}.{name}"``), the other side's null."""
    batch = batch.filter(pc.is_valid(batch[key]))
    n = batch.num_rows
    cols = {"__part": pa.array(_part_of_keys(batch[key], num_partitions),
                               pa.int32()),
            "__side": pa.array(np.full(n, side, np.int8), pa.int8())}
    for s, schema in enumerate(schemas):
        for f in schema:
            cols[f"{s}.{f.name}"] = (batch[f.name].cast(f.type) if s == side
                                     else pa.nulls(n, f.type))
    return pa.table(cols)


def _split_sides(group: pa.Table, schemas, fn, args) -> pa.Table:
    is_left = pc.equal(group["__side"], 0)
    rows = [
        group.filter(mask).select([f"{s}.{n}" for n in schema.names])
        .rename_columns(schema.names)
        for s, (schema, mask) in enumerate(
            zip(schemas, (is_left, pc.invert(is_left))))
    ]
    return fn(rows[0], rows[1], *args)


def _small_side(right: pa.Table, right_on: str, cols):
    """(sorted keys ndarray, {col: pa.Array aligned to keys}) of a table
    unique on ``right_on`` — the prepared right side :func:`_attach` reads."""
    if not isinstance(right, pa.Table):
        raise TypeError(
            "broadcast_join's small side must be a pyarrow Table "
            "(load dimension tables with pq.read_table; use hash_join "
            "when the right side is too big to hold in memory)"
        )
    keys = right[right_on].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if len(keys) and (keys[1:] == keys[:-1]).any():
        raise ValueError(f"right side not unique on {right_on}")
    take = pa.array(order, pa.int64())
    return keys, {c: right[c].combine_chunks().take(take) for c in cols}


def _attach(rows: pa.Table, side, sides, how: str = "inner") -> pa.Table:
    """The equi-join kernel: for each ``(left_on, {col: out})`` of
    ``sides``, look ``rows[left_on]`` up in the prepared right side
    (:func:`_small_side`) and append its columns under their ``out``
    names.  ``inner`` drops rows without a match; ``left`` keeps them
    with null payloads."""
    keys, cols = side
    for left_on, payload in sides:
        pos, hit = lookup_sorted(keys, rows[left_on].to_numpy(zero_copy_only=False))
        if how == "inner":
            rows = rows.filter(pa.array(hit))
            take = pa.array(pos[hit], pa.int64())
        else:
            # null index -> null value (a clamped 0 would be out of bounds
            # on an EMPTY right side)
            take = pa.array(pos, pa.int64(), mask=~hit)
        for src, out in payload.items():
            rows = rows.append_column(out, cols[src].take(take))
    return rows


def _join_rows(left: pa.Table, right: pa.Table, right_on: str, sides):
    """Cogrouped branch of the equi-join: :func:`_attach` against the
    partition's right rows."""
    return _attach(left, _small_side(right, right_on, _payload_cols(sides)),
                   sides)


def _payload_cols(sides) -> list[str]:
    return list(dict.fromkeys(src for _, payload in sides for src in payload))


def _hash_join(left, right, left_on: str, right_on: str,
               payload: dict, num_partitions: int | None = None,
               left_schema: pa.Schema | None = None,
               right_schema: pa.Schema | None = None):
    """Distributed inner equi-join: :func:`_attach` per :func:`_cogroup`
    partition.  ``right`` must be UNIQUE on ``right_on`` (a repeated key
    raises ``ValueError``); ``payload`` maps right column -> output name.
    Output: all left columns + renamed payload columns; left rows without
    a match are dropped.  Only the left rows and the right (key, payload)
    columns move through the shuffle."""
    right_schema = right_schema or _schema_of(right)
    right_schema = pa.schema([right_schema.field(c)
                              for c in [right_on, *payload]])
    return _cogroup(left, right, left_on, right_on, _join_rows, right_on,
                    ((left_on, payload),), num_partitions=num_partitions,
                    left_schema=left_schema, right_schema=right_schema)


def _attach_keyed(left, right, right_on: str, sides,
                  num_partitions: int | None = None,
                  left_schema: pa.Schema | None = None):
    """Attach the payload of ``right`` (unique on ``right_on``) to each
    ``(left_on, {col: out})`` of ``sides`` — inner on every side.  Under
    the gate one broadcast attaches every side in one map; over it each
    side is one :func:`_hash_join`."""
    right = right.materialize()
    table = _small_table(right)
    if table is not None:
        return _broadcast(left, _small_side(table, right_on, _payload_cols(sides)),
                          _attach, sides)
    right_schema = _schema_of(right)
    left_schema = left_schema or _schema_of(left)
    for left_on, payload in sides:
        left = _hash_join(left, right, left_on, right_on, payload,
                          num_partitions, left_schema, right_schema)
        left_schema = pa.schema(list(left_schema) + [
            (out, right_schema.field(src).type) for src, out in payload.items()])
    return left


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
    if how not in ("inner", "left"):
        raise ValueError(how)
    if payload is None:
        payload = {c: c for c in small.column_names if c != right_on}
    return _broadcast(big, _small_side(small, right_on, list(payload)),
                      _attach, ((left_on, payload),), how)


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
    right_schema = right_schema or _schema_of(right)
    if payload is None:
        payload = {c: c for c in right_schema.names if c != right_on}
    return _hash_join(left, right, left_on, right_on, payload, num_partitions,
                      left_schema=left_schema, right_schema=right_schema)


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

    On the broadcast branch each batch does occ → :func:`_attach` → reduce
    inside one map: a doc never spans batches, so there is no shuffle.
    On the shuffle branch the occurrence rows :func:`_hash_join` the table
    on ``key``, are tagged by doc-id hash and reach ``reduce`` through one
    ``groupby`` — per-doc state never centralizes.  Both branches hand
    ``reduce`` the same rows per doc, so they return the same rows;
    integer scores make the sums order-independent."""
    weights = weights.materialize()
    w_schema = _schema_of(weights)
    payload = {c: c for c in w_schema.names if c != key}
    table = _small_table(weights)
    if table is not None:
        return _broadcast(ds, _small_side(table, key, list(payload)),
                          _broadcast_score, occ, key, payload, reduce)
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


def _broadcast_score(batch: pa.Table, side, occ, key: str, payload,
                     reduce) -> pa.Table:
    """Broadcast branch of :func:`_score_per_doc`: one batch's occurrence
    rows, their weight columns attached, reduced."""
    return _reduce_docs(_attach(occ(batch), side, ((key, payload),)), reduce)


def _occ_rows(batch: pa.Table, occ) -> pa.Table:
    """The hash-join branch's left side: ``occ`` behind one module-level
    task function, whatever callable the caller passed."""
    return occ(batch)


def _tag_doc(batch: pa.Table, id_col: str, num_partitions: int) -> pa.Table:
    """Hash partition of each row's doc id, as ``__dpart``."""
    ids = batch[id_col].to_numpy().astype(np.int64)
    part = (ids.view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
    return batch.append_column("__dpart", pa.array(part, pa.int32()))


def _member_filter(ds, ids: np.ndarray, id_col: str, keep: bool,
                   dtype=np.int64):
    """Rows of ``ds`` whose ``id_col`` is in ``ids`` (``keep``) or not in
    it: the id set broadcasts once, sorted, and every batch filters with
    one sorted lookup.  ``dtype`` casts the batch ids before the lookup
    (``None`` compares them as they are, e.g. strings)."""
    return _broadcast(ds, np.sort(ids), _member_rows, id_col, keep, dtype)


def _member_rows(batch: pa.Table, ids: np.ndarray, id_col: str, keep: bool,
                 dtype) -> pa.Table:
    bid = batch[id_col].to_numpy(zero_copy_only=False)
    if dtype is not None:
        bid = bid.astype(dtype)
    _, hit = lookup_sorted(ids, bid)
    return batch.filter(pa.array(hit if keep else ~hit))
