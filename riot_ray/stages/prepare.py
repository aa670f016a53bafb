"""Doc pass: doc_id derivation, content sha256, keep-last dedup, dense u64 ids.

Replaces riot's murmur3(docId+content) doc->shard router and its
docsState add/replace machine (/root/reference/engine.go:370-416,
core/indexer.go:116-200) with ONE hash-partitioned shuffle:

    read_parquet -> map_batches(derive doc_id + sha256 + part)
                 -> groupby("part").map_groups(dedup keep-last + assign doc)
                 -> forward/part=K.parquet  (atomic tmp+rename)

* ``doc_id`` string key; ``part = crc32(doc_id) % num_parts``.
* keep-last dedup per doc_id ordered by ``seq_col`` (D4 semantics:
  re-adding a docId replaces it, /root/reference/core/indexer.go:135-159).
* ``doc = (part << 40) | rank`` with rank = position in the doc_id-sorted
  part — a dense, stable u64 surrogate; posting lists delta-encode it.
* ``content_sha256`` per row — the north-rule invariant column.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import PART_SHIFT, EngineOpts


def derive_doc_id(batch: pa.Table, opts: EngineOpts) -> pa.Array:
    """doc_id = "{c0}/{c1}@{c2}" over id_cols (single column used verbatim)."""
    cols = [batch[c].cast(pa.string()) for c in opts.id_cols]
    if len(cols) == 1:
        return cols[0].combine_chunks() if isinstance(cols[0], pa.ChunkedArray) else cols[0]
    import pyarrow.compute as pc

    head = cols[0]
    for c in cols[1:-1]:
        head = pc.binary_join_element_wise(head, c, "/")
    return pc.binary_join_element_wise(head, cols[-1], "@")


def _utf8_views(col):
    """(memoryview over the UTF-8 values buffer, start/end offset arrays)
    for a string column — hashing reads Arrow's buffer slices directly, no
    per-row Python str materialization or .encode() round-trip (this is the
    first stage every byte of a build crosses)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.cast(pa.large_utf8())
    n = len(col)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset: col.offset + n + 1
    ]
    mv = memoryview(col.buffers()[2])
    return mv, offs, col


def _sha256_col(contents) -> pa.Array:
    mv, offs, arr = _utf8_views(contents)
    sha = hashlib.sha256
    if arr.null_count == 0:
        out = [sha(mv[offs[i]: offs[i + 1]]).hexdigest() for i in range(len(arr))]
    else:
        valid = np.asarray(
            pa.compute.is_valid(arr).to_numpy(zero_copy_only=False), dtype=bool
        )
        empty = sha(b"").hexdigest()  # null content hashes like ""
        out = [
            sha(mv[offs[i]: offs[i + 1]]).hexdigest() if valid[i] else empty
            for i in range(len(arr))
        ]
    return pa.array(out, type=pa.string())


def _crc_part(doc_ids, num_parts: int) -> np.ndarray:
    mv, offs, arr = _utf8_views(doc_ids)
    crc = zlib.crc32
    return np.fromiter(
        (crc(mv[offs[i]: offs[i + 1]]) % num_parts for i in range(len(arr))),
        dtype=np.int32,
        count=len(arr),
    )


def keep_columns(opts: EngineOpts) -> list:
    """The only source columns the build pipeline ever touches — shared by
    the prepare select AND the parquet read (`columns=` pruning: at 100 TB
    a read that ships columns the 2-column transform drops is pure IO
    waste)."""
    return [c for c in dict.fromkeys(
        list(opts.id_cols)
        + list(opts.meta_cols)
        + [opts.content_col]
        + ([opts.tokens_col] if opts.tokens_col else [])
        + ([opts.token_len_col] if opts.token_len_col else [])
        + ([opts.labels_col] if opts.labels_col else [])
        + ([opts.seq_col] if opts.seq_col else [])
    )]


def make_prepare_fn(opts: EngineOpts):
    keep = keep_columns(opts)

    def prepare(batch: pa.Table) -> pa.Table:
        # drop file-level schema metadata (e.g. pandas dict): it defeats Ray
        # Data's schema-dedup hashing and slows every downstream shuffle
        batch = batch.replace_schema_metadata(None)
        batch = batch.select([c for c in keep if c in batch.column_names])
        doc_id = derive_doc_id(batch, opts)
        if "doc_id" in batch.column_names:
            # single id col literally named doc_id: replace, don't duplicate
            batch = batch.set_column(
                batch.column_names.index("doc_id"), "doc_id", doc_id
            )
        else:
            batch = batch.append_column("doc_id", doc_id)
        batch = batch.append_column("content_sha256", _sha256_col(batch[opts.content_col]))
        batch = batch.append_column("part", pa.array(_crc_part(doc_id, opts.num_parts)))
        return batch

    return prepare


def forward_part_path(forward_dir: str, part: int) -> str:
    return os.path.join(forward_dir, f"part={part:05d}.parquet")


def write_forward_part(forward_dir: str, part: int, table: pa.Table,
                       fingerprint: str, t0: float, **fields) -> dict:
    """Write ``forward/part=K.parquet`` and then its manifest, each by an
    atomic tmp+rename, and return the manifest: ``n_docs`` is the part's
    row count, ``fields`` are added before ``bytes`` and ``wall_s`` (since
    ``t0``).  The one writer of forward parts — the build, add_docs and
    compact — so a manifest always describes its part."""
    os.makedirs(forward_dir, exist_ok=True)
    final = forward_part_path(forward_dir, part)
    tmp = os.path.join(forward_dir, f".tmp-{part:05d}-{uuid.uuid4().hex}.parquet")
    pq.write_table(table, tmp)
    os.replace(tmp, final)
    manifest = {
        "part": part,
        "fingerprint": fingerprint,
        "n_docs": table.num_rows,
        **fields,
        "bytes": os.path.getsize(final),
        "wall_s": round(time.time() - t0, 4),
    }
    tmp = os.path.join(forward_dir, f".tmp-{part:05d}-{uuid.uuid4().hex}.json")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(forward_dir, f"part={part:05d}.manifest.json"))
    return manifest


class AssignIds:
    """Per-part group fn: sort by (doc_id, seq), keep-last, assign dense u64,
    write the forward-table part atomically.  Returns either a manifest row
    (return_rows=False) or the assigned (doc, content...) rows so the
    tokenize stage can consume the groupby output directly — one fused
    pipeline, no barrier + forward re-read between doc pass and tokenize."""

    def __init__(self, opts: EngineOpts, forward_dir: str, return_rows: bool = False,
                 fingerprint: str = ""):
        self.opts = opts
        self.forward_dir = forward_dir
        self.return_rows = return_rows
        self.fingerprint = fingerprint
        self.__name__ = "AssignIds"

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.time()
        opts = self.opts
        part = int(group["part"][0].as_py())
        seq = (
            group[opts.seq_col].to_numpy(zero_copy_only=False)
            if opts.seq_col
            else np.zeros(group.num_rows, dtype=np.int64)
        )
        doc_ids = np.asarray(group["doc_id"].to_pylist(), dtype=object)
        order = np.lexsort((seq, doc_ids))
        # keep-last per doc_id: last in (doc_id, seq) order
        sorted_ids = doc_ids[order]
        is_last = np.r_[sorted_ids[1:] != sorted_ids[:-1], True]
        sel = order[is_last]
        group = group.take(pa.array(sel))
        n = group.num_rows
        doc = (np.uint64(part) << np.uint64(PART_SHIFT)) | np.arange(n, dtype=np.uint64)
        group = group.append_column("doc", pa.array(doc, type=pa.uint64()))
        group = group.drop_columns(["part"])
        ret = None
        if self.return_rows:
            cols = ["doc", opts.content_col]
            for c in (opts.tokens_col, opts.labels_col, opts.token_len_col):
                if c and c in group.column_names:
                    cols.append(c)
            ret = group.select([c for c in cols if c in group.column_names])
        if not opts.store_content and opts.content_col in group.column_names:
            group = group.drop_columns([opts.content_col])

        manifest = write_forward_part(
            self.forward_dir, part, group, self.fingerprint, t0,
            n_dups_dropped=int(len(doc_ids) - n),
        )
        if ret is not None:
            return ret
        return pa.table(
            {
                "part": pa.array([part], pa.int32()),
                "n_docs": pa.array([n], pa.int64()),
                "n_dups_dropped": pa.array([manifest["n_dups_dropped"]], pa.int64()),
            }
        )
