"""Per-shard segment build: postings rows -> block-level posting lists.

This is the engine's one big shuffle (SURVEY.md §2.5 A1/A2):
``groupby("shard")`` where shard = contiguous doc-u64 range.  Every term's
posting list is therefore implicitly range-salted across shards — a hot term
("def", "import") contributes at most df/num_shards postings to any one
group, which is the skew-handling the north star asks for; block rows from
different shards cover disjoint, ordered doc ranges so the global list is a
concatenation, no merge pass needed.

Inside a shard the build is one vectorized pass (numpy lexsort + reduceat;
the packed binary columns are assembled zero-copy via Arrow offset buffers —
no Python loop over terms or blocks):

    sort by (term, doc) -> block boundaries every `block_size` docs or term
    change -> delta+varbyte docs / raw-f32 tfs / raw-i32 positions ->
    blocks.parquet + docmeta.parquet (doc lens, from is_head rows) +
    manifest.json (lineage + metrics, resume key).

Each term string is stored once per shard, in ``blocks.term``: a term's
shard-local df is the sum of ``blocks.n`` over its rows, which is all the
global df reduce (``IndexWriter._build_termstats``) reads.

Both halves meet in ``Postings`` (flat per-posting arrays + docmeta).  A
written shard decodes back to it (``decode_shard``), so updates rebuild a
shard by merging the postings of the docs it lacks into its own, without
re-tokenizing the docs it holds (``BuildShard`` with ``forward_dir``).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codecs import _THRESHOLDS, decode_varbyte, delta_decode_blocks, encode_varbyte
from ..config import META_TERM, EngineOpts, shard_of_part
from ..tokenize import needs_positions
from .prepare import forward_part_path

# default (parquet-engine) segment file names; the writer derives actual
# names from the configured store engine (riot_ray/store.py) and readers
# autodetect by extension
BLOCKS_FILE = "blocks.parquet"
DOCMETA_FILE = "docmeta.parquet"
MANIFEST_FILE = "manifest.json"


def shard_dir(segments_dir: str, shard: int) -> str:
    return os.path.join(segments_dir, f"shard={shard:05d}")


def _binary_values(col) -> tuple:
    """(concatenated values bytes, zero-based offsets) of a large_binary
    column — rows of a valid binary array are adjacent slices, so the value
    range [offs[0], offs[-1]) IS the row-ordered concatenation."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[col.offset: col.offset + n + 1]
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8) if col.buffers()[2] else np.empty(0, np.uint8)
    return data[offs[0]: offs[-1]], (offs - offs[0]).astype(np.int64)


def _large_binary_from_offsets(values: bytes, ends: np.ndarray) -> pa.Array:
    """Build a large_binary array whose i-th value is values[ends[i-1]:ends[i]]
    — zero-copy over the packed buffer."""
    offsets = np.empty(len(ends) + 1, dtype=np.int64)
    offsets[0] = 0
    offsets[1:] = ends
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        len(ends),
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(values)],
    )


class Postings(NamedTuple):
    """A shard's content as flat arrays, the form ``BuildShard``'s decode
    and encode halves meet in: one entry per (term, doc) posting, in any
    order, and the docmeta sorted by doc.  ``pos_cnt`` holds each posting's
    number of positions and ``pos`` all positions in posting order; in an
    index without positions they are zeros and empty."""

    term: pa.Array
    doc: np.ndarray
    tf: np.ndarray
    pos_cnt: np.ndarray
    pos: np.ndarray
    dm_doc: np.ndarray
    dm_len: np.ndarray

    @classmethod
    def of(cls, term, doc, tf, pos_cnt, pos, dm_doc, dm_len) -> "Postings":
        """Typed, with the docmeta sorted by doc; ``pos_cnt`` None means no
        positions."""
        doc = np.asarray(doc, dtype=np.uint64)
        if pos_cnt is None:
            pos_cnt, pos = np.zeros(len(doc), np.int64), np.empty(0, np.int32)
        dm_doc = np.asarray(dm_doc, dtype=np.uint64)
        horder = np.argsort(dm_doc)
        return cls(_one_chunk(term), doc, np.asarray(tf, dtype=np.float32),
                   np.asarray(pos_cnt, dtype=np.int64), np.asarray(pos, dtype=np.int32),
                   dm_doc[horder], np.asarray(dm_len, dtype=np.float32)[horder])

    def keep(self, posting_mask: np.ndarray, doc_mask: np.ndarray) -> "Postings":
        """The postings where ``posting_mask`` and the docmeta rows where
        ``doc_mask`` is set."""
        return Postings(
            self.term.filter(pa.array(posting_mask)), self.doc[posting_mask],
            self.tf[posting_mask], self.pos_cnt[posting_mask],
            self.pos[np.repeat(posting_mask, self.pos_cnt)],
            self.dm_doc[doc_mask], self.dm_len[doc_mask])

    def merge(self, new: "Postings", live: np.ndarray) -> "Postings":
        """``new`` plus this shard's docs that are in ``live`` (the forward
        table's docs) and not in ``new``: docs no longer in the forward
        table are dropped, a doc in both is taken from ``new``."""
        doc_mask = np.isin(self.dm_doc, live) & ~np.isin(self.dm_doc, new.dm_doc)
        old = self.keep(np.isin(self.doc, self.dm_doc[doc_mask]), doc_mask)
        return Postings.of(
            pa.concat_arrays([old.term, new.term]), np.r_[old.doc, new.doc],
            np.r_[old.tf, new.tf], np.r_[old.pos_cnt, new.pos_cnt],
            np.r_[old.pos, new.pos], np.r_[old.dm_doc, new.dm_doc],
            np.r_[old.dm_len, new.dm_len])


def _one_chunk(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _i32_values(col) -> np.ndarray:
    """The little-endian int32s of a large_binary column, row after row."""
    return np.frombuffer(_binary_values(col)[0], dtype="<i4").astype(np.int32)


def decode_group(group: pa.Table) -> Postings:
    """A tokenize-stage group, packed or one row per posting, as
    ``Postings``.  META_TERM rows carry docmeta only (packed: docs with
    their token_len in the tf slot; unpacked: a doc with no term), and a
    ``group_anchors`` row adds nothing."""
    term_col = _one_chunk(group["term"])
    is_meta = pc.equal(term_col, META_TERM).to_numpy(zero_copy_only=False)
    if "docs_vb" in group.column_names:
        # one row per (shard, term) per batch: decode the delta+varbyte docs
        # and raw-f32 tfs of the whole group in one vectorized pass
        vb_buf, _ = _binary_values(group["docs_vb"])
        tf_buf, tf_offs = _binary_values(group["tfs_f32"])
        tf = np.frombuffer(tf_buf, dtype="<f4")
        counts = ((tf_offs[1:] - tf_offs[:-1]) // 4).astype(np.int64)
        row_parent = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        # un-delta with a reset at every row start
        doc = delta_decode_blocks(decode_varbyte(vb_buf), counts)
        meta = is_meta[row_parent]
        post = ~meta
        return Postings.of(term_col.take(pa.array(row_parent[post])), doc[post],
                           tf[post], None, None, doc[meta], tf[meta])
    doc = group["doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
    tf = group["tf"].to_numpy(zero_copy_only=False).astype(np.float32)
    tlen = group["token_len"].to_numpy(zero_copy_only=False).astype(np.float32)
    # docmeta from head rows: exactly one per doc, set by tokenize
    head = group["is_head"].to_numpy(zero_copy_only=False).astype(bool)
    pos_cnt = pos = None
    if "positions" in group.column_names:
        # raw values + raw offsets are mutually consistent regardless of
        # array slicing; lists are never null here
        pos_col = _one_chunk(group["positions"])
        offs = pos_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        pos_cnt = offs[1:] - offs[:-1]
        pos = pos_col.values.to_numpy(zero_copy_only=False)[offs[0]: offs[-1]]
    p = Postings.of(term_col, doc, tf, pos_cnt, pos, doc[head], tlen[head])
    return p.keep(~is_meta, np.ones(len(p.dm_doc), bool))


def decode_shard(sdir: str) -> Postings:
    """The inverse of ``BuildShard``'s encode: a written shard's blocks and
    docmeta as ``Postings`` (empty when the shard dir does not exist)."""
    from ..store import read_segment

    if not os.path.isdir(sdir):
        return Postings.of(pa.array([], pa.string()), [], [], None, None, [], [])
    blocks = read_segment(sdir, "blocks")
    dm = read_segment(sdir, "docmeta")
    n = blocks["n"].to_numpy().astype(np.int64)
    vb_buf, _ = _binary_values(blocks["docs_vb"])
    tf_buf, _ = _binary_values(blocks["tfs_f32"])
    term = _one_chunk(blocks["term"]).take(
        pa.array(np.repeat(np.arange(len(n), dtype=np.int64), n)))
    pos_cnt = pos = None
    if "pos_cnt_i32" in blocks.column_names:
        pos_cnt, pos = _i32_values(blocks["pos_cnt_i32"]), _i32_values(blocks["pos_i32"])
    return Postings.of(
        term, delta_decode_blocks(decode_varbyte(vb_buf), n),
        np.frombuffer(tf_buf, dtype="<f4"), pos_cnt, pos,
        dm["doc"].to_numpy(), dm["token_len"].to_numpy())


def group_anchors(shards, schema: pa.Schema | None = None) -> pa.Table:
    """One row per shard, in the tokenize output ``schema`` (packed when
    None), that opens the shard's ``BuildShard`` group and adds nothing to
    it: a META_TERM row with no packed docs, or one that is no head row.
    With them an update's ``groupby(shard)`` has a group for every shard it
    rebuilds, whether or not any of its docs were tokenized."""
    if schema is None:
        schema = pa.schema([("shard", pa.int32()), ("term", pa.string()),
                            ("docs_vb", pa.large_binary()), ("tfs_f32", pa.large_binary())])
    n = len(shards)
    vals = {"shard": list(shards), "term": [META_TERM] * n}
    empty = {"docs_vb": b"", "tfs_f32": b"", "doc": 0, "tf": 0.0, "token_len": 0.0,
             "is_head": 0, "positions": []}
    return pa.table({f.name: pa.array(vals.get(f.name, [empty.get(f.name)] * n), f.type)
                     for f in schema})


class BuildShard:
    """Group fn of ``groupby(shard)``: decode the group's postings, encode
    them as the shard's blocks + docmeta, write the shard dir atomically.

    With ``forward_dir`` (updates) the shard is rebuilt in place: the group
    holds only the postings of forward docs the shard lacks, and they are
    merged into the shard's own decoded postings, minus the docs its
    forward parts no longer hold.  The fingerprint check comes first, so a
    re-executed task skips a shard it already rewrote instead of merging
    into it twice."""

    def __init__(self, opts: EngineOpts, segments_dir: str, fingerprint: str,
                 forward_dir: str | None = None):
        self.opts = opts
        self.segments_dir = segments_dir
        self.fingerprint = fingerprint
        self.forward_dir = forward_dir
        self.__name__ = "BuildShard"
        # resolve the store engine DRIVER-side (this ctor runs on the
        # driver; the instance pickles to workers with the engine's
        # functions inside) — custom register_store engines and the env
        # override then work without any worker-side registration
        from ..store import get_store

        self._store = get_store(opts.store_engine)

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.time()
        shard = int(group["shard"][0].as_py())
        sdir = shard_dir(self.segments_dir, shard)
        mpath = os.path.join(sdir, MANIFEST_FILE)
        if os.path.exists(mpath):
            with open(mpath) as f:
                m = json.load(f)
            if m.get("fingerprint") == self.fingerprint:
                # resume: this partition is already built — skip (north rule:
                # per-partition lineage; cf. riot's full re-tokenize replay on
                # recovery, /root/reference/store_worker.go:73-91)
                m["skipped"] = True
                return self._manifest_row(m)

        p = decode_group(group)
        if self.forward_dir is not None:
            p = decode_shard(sdir).merge(p, self._forward_docs(shard))
            if not len(p.dm_doc):
                # every doc of the shard is gone: so is its segment dir
                shutil.rmtree(sdir, ignore_errors=True)
                return self._manifest_row({"shard": shard, "n_docs": 0,
                                           "total_token_len": 0.0, "n_terms": 0,
                                           "n_postings": 0, "n_blocks": 0})
        blocks, stats = self._encode(p)
        docmeta = pa.table({"doc": pa.array(p.dm_doc, pa.uint64()),
                            "token_len": pa.array(p.dm_len, pa.float32())})

        tmp = sdir + f".tmp-{uuid.uuid4().hex}"
        os.makedirs(tmp, exist_ok=True)
        # pluggable segment engine (riot's RegisterStore analog —
        # riot_ray/store.py; readers autodetect by extension)
        eng = self._store
        eng.write_table(blocks, os.path.join(tmp, "blocks" + eng.extension))
        eng.write_table(docmeta, os.path.join(tmp, "docmeta" + eng.extension))
        manifest = {
            "shard": shard,
            "fingerprint": self.fingerprint,
            "n_docs": int(len(p.dm_doc)),
            "total_token_len": float(p.dm_len.sum(dtype=np.float64)),
            **stats,
            "bytes": sum(
                os.path.getsize(os.path.join(tmp, f)) for f in os.listdir(tmp)
            ),
            "wall_s": round(time.time() - t0, 4),
            "skipped": False,
        }
        with open(os.path.join(tmp, MANIFEST_FILE), "w") as f:
            json.dump(manifest, f)
        if os.path.exists(sdir):
            shutil.rmtree(sdir)
        os.replace(tmp, sdir)
        return self._manifest_row(manifest)

    def _forward_docs(self, shard: int) -> np.ndarray:
        """The docs of the forward parts that map to ``shard``."""
        opts = self.opts
        files = [forward_part_path(self.forward_dir, p) for p in range(opts.num_parts)
                 if shard_of_part(p, opts.num_parts, opts.num_shards) == shard]
        files = [f for f in files if os.path.exists(f)]
        if not files:
            return np.empty(0, np.uint64)
        return pq.read_table(files, columns=["doc"])["doc"].to_numpy().astype(np.uint64)

    def _encode(self, p: Postings) -> tuple[pa.Table, dict]:
        """``Postings`` -> the blocks table and its manifest counts: sort by
        (term, doc), cut a block every ``block_size`` docs or at a term
        change, delta+varbyte the docs, raw f32 the tfs, raw i32 the
        positions."""
        denc = p.term.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # dictionary codes are appearance-ordered; rank them by Arrow's
        # byte-wise string order, which for UTF-8 is Python's code-point order
        rank_of_code = np.empty(len(denc.dictionary), dtype=np.int64)
        rank_of_code[pc.sort_indices(denc.dictionary).to_numpy()] = np.arange(
            len(denc.dictionary))
        rank = rank_of_code[codes]
        order = np.lexsort((p.doc, rank))
        rank_s, doc_s, tf_s = rank[order], p.doc[order], p.tf[order]
        # per-posting doc length for block min_len: docmeta lookup
        tlen_s = p.dm_len[np.searchsorted(p.dm_doc, doc_s)]

        n = len(order)
        if n:
            term_change = np.r_[True, rank_s[1:] != rank_s[:-1]]
        else:
            term_change = np.empty(0, dtype=bool)
        term_starts = np.flatnonzero(term_change)
        within = np.arange(n, dtype=np.int64) - np.repeat(
            term_starts, np.diff(np.r_[term_starts, n])
        )
        blk_mask = term_change | (within % self.opts.block_size == 0)
        starts = np.flatnonzero(blk_mask)
        ends = np.r_[starts[1:], n] if len(starts) else np.empty(0, np.int64)
        counts = ends - starts

        # delta within block: absolute at block start, diffs elsewhere
        deltas = doc_s.copy()
        deltas[1:] -= doc_s[:-1]
        deltas[starts] = doc_s[starts]
        vb = encode_varbyte(deltas)
        # per-value byte length -> per-block byte ranges
        vlen = np.searchsorted(_THRESHOLDS, deltas, side="right").astype(np.int64) + 1
        vb_ends_all = np.cumsum(vlen)
        blk_byte_ends = vb_ends_all[ends - 1] if len(ends) else np.empty(0, dtype=np.int64)

        cols = {
            "term": denc.dictionary.take(pa.array(codes[order][starts])),
            "n": pa.array(counts.astype(np.int32), pa.int32()),
            "min_doc": pa.array(doc_s[starts], pa.uint64()),
            "max_doc": pa.array(doc_s[ends - 1], pa.uint64()),
            "docs_vb": _large_binary_from_offsets(vb, blk_byte_ends),
            "tfs_f32": _large_binary_from_offsets(
                np.ascontiguousarray(tf_s, dtype="<f4").tobytes(), ends * 4),
            "max_tf": pa.array(
                np.maximum.reduceat(tf_s, starts) if len(starts) else np.empty(0, np.float32),
                pa.float32(),
            ),
            "min_len": pa.array(
                np.minimum.reduceat(tlen_s, starts) if len(starts) else np.empty(0, np.float32),
                pa.float32(),
            ),
        }

        if needs_positions(self.opts):
            pcounts = p.pos_cnt[order]
            # gather flattened positions in sorted row order
            row_starts = (np.cumsum(p.pos_cnt) - p.pos_cnt)[order]
            total_pos = int(pcounts.sum())
            gidx = np.repeat(row_starts, pcounts) + (
                np.arange(total_pos, dtype=np.int64)
                - np.repeat(np.cumsum(pcounts) - pcounts, pcounts)
            )
            pos_sorted = p.pos[gidx] if total_pos else np.empty(0, np.int32)
            pos_ends_rows = np.cumsum(pcounts)
            cols["pos_cnt_i32"] = _large_binary_from_offsets(
                np.ascontiguousarray(pcounts, dtype="<i4").tobytes(), ends * 4
            )
            blk_pos_ends = pos_ends_rows[ends - 1] if len(ends) else np.empty(0, np.int64)
            cols["pos_i32"] = _large_binary_from_offsets(
                np.ascontiguousarray(pos_sorted, dtype="<i4").tobytes(), blk_pos_ends * 4
            )
        return pa.table(cols), {"n_terms": int(len(term_starts)), "n_postings": int(n),
                                "n_blocks": int(len(starts))}

    @staticmethod
    def _manifest_row(m: dict) -> pa.Table:
        return pa.table(
            {
                "shard": pa.array([m["shard"]], pa.int32()),
                "n_docs": pa.array([m["n_docs"]], pa.int64()),
                "total_token_len": pa.array([m["total_token_len"]], pa.float64()),
                "n_terms": pa.array([m["n_terms"]], pa.int64()),
                "n_postings": pa.array([m["n_postings"]], pa.int64()),
                "n_blocks": pa.array([m["n_blocks"]], pa.int64()),
                "skipped": pa.array([bool(m.get("skipped", False))], pa.bool_()),
            }
        )
