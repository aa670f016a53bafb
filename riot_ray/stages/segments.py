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
"""

from __future__ import annotations

import json
import os
import time
import uuid

import numpy as np
import pyarrow as pa

from ..codecs import encode_varbyte
from ..config import META_TERM, EngineOpts

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


class BuildShard:
    def __init__(self, opts: EngineOpts, segments_dir: str, fingerprint: str):
        self.opts = opts
        self.segments_dir = segments_dir
        self.fingerprint = fingerprint
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

        packed = "docs_vb" in group.column_names
        with_pos = "positions" in group.column_names

        if packed:
            # packed combiner format (one row per (shard, term) per batch):
            # decode the delta+varbyte docs / raw-f32 tfs binary columns back
            # to flat postings + docmeta — ONE vectorized decode over the
            # whole group's concatenated buffers
            term_col = group["term"]
            if isinstance(term_col, pa.ChunkedArray):
                term_col = term_col.combine_chunks()
            import pyarrow.compute as pc

            from ..codecs import decode_varbyte, delta_decode_blocks

            vb_buf, _ = _binary_values(group["docs_vb"])
            tf_buf, tf_offs = _binary_values(group["tfs_f32"])
            tf = np.frombuffer(tf_buf, dtype="<f4")
            counts = ((tf_offs[1:] - tf_offs[:-1]) // 4).astype(np.int64)
            row_parent = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
            # un-delta with a reset at every row start
            doc = delta_decode_blocks(decode_varbyte(vb_buf), counts)
            is_meta_row = pc.equal(term_col, META_TERM).to_numpy(zero_copy_only=False)
            meta_mask = np.asarray(is_meta_row, dtype=bool)[row_parent]
            # docmeta: dedup on doc (a doc appears in exactly one batch)
            hdoc, hlen = doc[meta_mask], tf[meta_mask]
            horder = np.argsort(hdoc)
            docmeta = pa.table(
                {
                    "doc": pa.array(hdoc[horder], pa.uint64()),
                    "token_len": pa.array(hlen[horder], pa.float32()),
                }
            )
            doc, tf = doc[~meta_mask], tf[~meta_mask]
            term_col = term_col.take(pa.array(row_parent[~meta_mask]))
            # per-posting doc length for block min_len: docmeta lookup
            tlen = hlen[horder][np.searchsorted(hdoc[horder], doc)]
        else:
            doc = np.asarray(group["doc"].to_numpy(zero_copy_only=False), dtype=np.uint64)
            tf = np.asarray(group["tf"].to_numpy(zero_copy_only=False), dtype=np.float32)
            tlen = np.asarray(group["token_len"].to_numpy(zero_copy_only=False), dtype=np.float32)
            head = group["is_head"].to_numpy(zero_copy_only=False).astype(bool)

            # docmeta from head rows (exactly one per doc — set by tokenize),
            # BEFORE stripping META_TERM docmeta-only rows
            hdoc = doc[head]
            hlen = tlen[head]
            horder = np.argsort(hdoc)
            docmeta = pa.table(
                {
                    "doc": pa.array(hdoc[horder], pa.uint64()),
                    "token_len": pa.array(hlen[horder], pa.float32()),
                }
            )

            term_col = group["term"]
            if isinstance(term_col, pa.ChunkedArray):
                term_col = term_col.combine_chunks()
        denc = term_col.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = denc.dictionary
        # dictionary codes are appearance-ordered; rank them lexicographically
        vocab_np = np.asarray(vocab.to_pylist(), dtype=object)
        vorder = np.argsort(vocab_np)
        sorted_vocab = vocab_np[vorder]
        rank_of_code = np.empty(len(vocab_np), dtype=np.int64)
        rank_of_code[vorder] = np.arange(len(vocab_np))
        rank = rank_of_code[codes]

        # strip docmeta sentinel rows from the posting build.  NB: numpy
        # coerces a "\x00" comparand to '<U1' and trims the NUL, so
        # vocab_np == META_TERM is always all-False — compare in Python
        meta_codes = np.flatnonzero(
            np.fromiter((v == META_TERM for v in vocab_np), bool, count=len(vocab_np))
        )
        if len(meta_codes):
            keep = codes != meta_codes[0]
            rank, doc, tf, tlen = rank[keep], doc[keep], tf[keep], tlen[keep]
            if with_pos:
                group = group.filter(pa.array(keep))
        order = np.lexsort((doc, rank))
        rank_s, doc_s, tf_s, tlen_s = rank[order], doc[order], tf[order], tlen[order]

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
        from ..codecs import _THRESHOLDS

        vlen = np.searchsorted(_THRESHOLDS, deltas, side="right").astype(np.int64) + 1
        vb_ends_all = np.cumsum(vlen)
        blk_byte_ends = vb_ends_all[ends - 1] if len(ends) else np.empty(0, dtype=np.int64)
        docs_vb = _large_binary_from_offsets(vb, blk_byte_ends)

        tfs_bin = _large_binary_from_offsets(
            np.ascontiguousarray(tf_s, dtype="<f4").tobytes(), ends * 4
        )

        cols = {
            "term": pa.array(sorted_vocab[rank_s[starts]], pa.string()),
            "n": pa.array(counts.astype(np.int32), pa.int32()),
            "min_doc": pa.array(doc_s[starts], pa.uint64()),
            "max_doc": pa.array(doc_s[ends - 1], pa.uint64()),
            "docs_vb": docs_vb,
            "tfs_f32": tfs_bin,
            "max_tf": pa.array(
                np.maximum.reduceat(tf_s, starts) if len(starts) else np.empty(0, np.float32),
                pa.float32(),
            ),
            "min_len": pa.array(
                np.minimum.reduceat(tlen_s, starts) if len(starts) else np.empty(0, np.float32),
                pa.float32(),
            ),
        }

        if with_pos:
            pos_col = group["positions"]
            if isinstance(pos_col, pa.ChunkedArray):
                pos_col = pos_col.combine_chunks()
            # raw values + raw offsets are mutually consistent regardless of
            # array slicing; lists are never null here
            pos_values = pos_col.values.to_numpy(zero_copy_only=False).astype(np.int32)
            pos_off = pos_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            pcounts = (pos_off[1:] - pos_off[:-1])[order]
            # gather flattened positions in sorted row order
            row_starts = pos_off[:-1][order]
            total_pos = int(pcounts.sum())
            gidx = np.repeat(row_starts, pcounts) + (
                np.arange(total_pos, dtype=np.int64)
                - np.repeat(np.cumsum(pcounts) - pcounts, pcounts)
            )
            pos_sorted = pos_values[gidx] if total_pos else np.empty(0, np.int32)
            pos_ends_rows = np.cumsum(pcounts)
            cols["pos_cnt_i32"] = _large_binary_from_offsets(
                np.ascontiguousarray(pcounts, dtype="<i4").tobytes(), ends * 4
            )
            blk_pos_ends = pos_ends_rows[ends - 1] if len(ends) else np.empty(0, np.int64)
            cols["pos_i32"] = _large_binary_from_offsets(
                np.ascontiguousarray(pos_sorted, dtype="<i4").tobytes(), blk_pos_ends * 4
            )

        blocks = pa.table(cols)

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
            "n_docs": int(len(hdoc)),
            "total_token_len": float(hlen.sum(dtype=np.float64)),
            "n_terms": int(len(term_starts)),
            "n_postings": int(n),
            "n_blocks": int(len(starts)),
            "bytes": sum(
                os.path.getsize(os.path.join(tmp, f)) for f in os.listdir(tmp)
            ),
            "wall_s": round(time.time() - t0, 4),
            "skipped": False,
        }
        with open(os.path.join(tmp, MANIFEST_FILE), "w") as f:
            json.dump(manifest, f)
        if os.path.exists(sdir):
            import shutil

            shutil.rmtree(sdir)
        os.replace(tmp, sdir)
        return self._manifest_row(manifest)

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
