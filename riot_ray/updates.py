"""Index updates: remove (tombstones), compaction, incremental add.

The reference mutates its in-memory maps per document (RemoveDoc broadcast
tombstones + batched removeCache sweep, /root/reference/engine.go:429-463,
core/indexer.go:258-366; re-add replaces via the docsState machine,
core/indexer.go:135-159).  The batch-engine analog:

* ``remove_docs`` — append doc u64s to ``tombstones/*.parquet``.  Serving
  applies them as an anti-filter (``ShardData(..., tombstones)``) and
  subtracts the removed docs' lengths from the global BM25 stats; no
  segment rewrite.
* ``compact`` — rewrite only the forward parts / segment shards that
  contain tombstoned docs (per-partition rewrite, never the whole index);
  the dead docs drop out of the rebuilt shards and nothing is tokenized.
  Surviving docs keep their u64 ids so untouched shards stay valid.
  Clears the tombstone set.
* ``add_docs`` — riot's addCache analog: new rows are routed to their
  hash part, keep-last-deduped against the part's existing docs (a re-added
  doc_id tombstones its old u64 and gets a fresh one appended after the
  part's max seq), the touched forward parts are rewritten atomically and
  only the affected shards are rebuilt, tokenizing only the added docs.

Both rebuild a shard by one rule (``_rebuild_shards``): it ends up with
exactly the postings of its forward rows.  Postings of docs the shard
already holds are decoded from its own blocks and docmeta; only forward
docs missing from its docmeta go through TokenizeStage; docs the forward
table no longer holds (replaced on add, tombstoned on compact) are
dropped.  Like riot, a doc is tokenized once, when it is added.

``add_docs`` and ``compact`` run in-process when the forward rows of the
shards they rebuild, plus the increment (Parquet footer counts), are at
most ``LOCAL_MAX_ROWS``: the same stage objects as the build (prepare,
TokenizeStage, BuildShard, and ``_MergePart`` here) then run over
``pa.Table``s, grouped by ``map_groups_local``.  Larger calls are Ray Data
jobs over just the touched partitions; an increment above the limit is
prepared on the cluster and never enters the driver.  ``remove_docs``
always scans in-process, one part's ``doc``/``doc_id`` columns at a time.
Tombstones, the stats refresh and stale-shard removal are shared by both.
"""

from __future__ import annotations

import glob
import json
import os
import re
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from .build import IndexWriter, load_stats, map_groups_local
from .config import PART_SHIFT, EngineOpts, shard_of_part
from .stages.prepare import keep_columns, make_prepare_fn, write_forward_part
from .stages.segments import group_anchors, shard_dir
from .store import read_segment


def _tomb_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "tombstones")


def _forward_parts(index_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(index_dir, "forward", "part=*.parquet")))


def _part_of(path: str) -> int:
    return int(re.search(r"part=(\d+)", path).group(1))


def load_tombstones(index_dir: str) -> np.ndarray:
    d = _tomb_dir(index_dir)
    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    if not files:
        return np.empty(0, dtype=np.uint64)
    t = pq.read_table(files, columns=["doc"])
    return np.unique(t["doc"].to_numpy(zero_copy_only=False).astype(np.uint64))


def _write_tombstones(index_dir: str, docs: np.ndarray) -> str:
    d = _tomb_dir(index_dir)
    os.makedirs(d, exist_ok=True)
    name = f"gen-{uuid.uuid4().hex}.parquet"
    tmp = os.path.join(d, "." + name)
    pq.write_table(pa.table({"doc": pa.array(docs, pa.uint64())}), tmp)
    final = os.path.join(d, name)
    os.replace(tmp, final)
    return final


# An add or compact whose forward working set (the forward rows of the
# shards it rebuilds) is at most this many rows runs in-process; larger working
# sets are Ray Data jobs.  The limit bounds what one in-process call holds
# in the driver: an add of 24 docs rebuilding 7 of 8 shards of a code-mode
# index raised the driver's peak RSS by 66 MB at 2k forward rows, 136 MB
# at 10k and 237 MB at 20k.  Pinned to one CPU, in-process also won on
# time at both sizes compared: 1.4 s vs the Ray Data job's 2.2-2.6 s at
# 2k rows, 6-8 s vs 18 s at 20k.  Where Ray Data overtakes it on a
# many-CPU cluster is NOT measured: a per-row fit of those two points puts
# it near 5k rows at 32 CPUs and 12k at 4 CPUs, an estimate only.  Same
# role as IndexWriter.DRIVER_DF_ROWS.
LOCAL_MAX_ROWS = 10_000


def _build_fingerprint(index_dir: str, stats: dict) -> str:
    """The build fingerprint the forward manifests carry.  Parts rewritten
    by add_docs / compact keep it, so a later build's stale-output sweep
    treats them as parts of the build they extend."""
    for man in glob.glob(os.path.join(index_dir, "forward", "part=*.manifest.json")):
        with open(man) as f:
            return json.load(f)["fingerprint"]
    return stats["fingerprint"]


def _in_process(files: list[str], extra_rows: int = 0) -> bool:
    """The one local-or-Ray choice of ``add_docs`` and ``compact``: the
    forward rows in ``files`` (Parquet footers, no data read) plus
    ``extra_rows`` against ``LOCAL_MAX_ROWS``."""
    rows = extra_rows + sum(pq.read_metadata(f).num_rows for f in files)
    return rows <= LOCAL_MAX_ROWS


def _forward_cols(opts: EngineOpts) -> list[str]:
    """Forward columns the tokenize stage reads when shards are rebuilt."""
    return ["doc", opts.content_col] + [
        c for c in (opts.tokens_col, opts.labels_col, opts.token_len_col) if c
    ]


def _u64(cols) -> np.ndarray:
    return np.concatenate([np.empty(0, np.uint64)] + [
        c.to_numpy().astype(np.uint64) for c in cols])


def _rebuild_shards(w: IndexWriter, shards, fp: str, local: bool):
    """The one shard-rebuild rule of ``add_docs`` and ``compact``: each of
    ``shards`` ends up holding exactly the postings of its forward rows.
    Only the forward docs missing from the shard's docmeta are tokenized
    (in this process when ``local``, else as a Ray Data job); BuildShard
    decodes every other doc's postings from the shard itself and drops the
    docs the forward table no longer holds (``build_segments(merge=True)``).
    The diff is taken against the forward table, so a shard an interrupted
    update left short heals on its next rebuild.  Every shard gets one
    ``group_anchors`` row, so it has a group even with nothing to tokenize."""
    opts = w.opts
    shards = sorted(shards)
    files = _shard_files(w.index_dir, opts, shards)
    fwd = [pq.read_table(files, columns=["doc"])["doc"]] if files else []
    have = [read_segment(shard_dir(w.segments_dir, s), "docmeta", columns=["doc"])["doc"]
            for s in shards if os.path.isdir(shard_dir(w.segments_dir, s))]
    missing = np.setdiff1d(_u64(fwd), _u64(have))
    post = schema = None
    if missing.size:
        want = pc.field("doc").isin(pa.array(missing, pa.uint64()))
        cols = _forward_cols(opts)
        if local:
            post = w.apply_tokenize(pq.read_table(files, columns=cols, filters=want))
            schema = post.schema
        else:
            post = w.apply_tokenize(
                rd.read_parquet(files, columns=cols, filter=want)).materialize()
            schema = post.schema().base_schema
    anchors = group_anchors(shards, schema)
    if local:
        postings = anchors if post is None else pa.concat_tables([post, anchors])
    else:
        anchors = rd.from_arrow(anchors)
        postings = anchors if post is None else post.union(anchors)
    w.build_segments(postings, fp, merge=True)


def _shard_files(index_dir: str, opts: EngineOpts, shards) -> list[str]:
    return [
        f for f in _forward_parts(index_dir)
        if shard_of_part(_part_of(f), opts.num_parts, opts.num_shards) in shards
    ]


def remove_docs(index_dir: str, doc_ids: list[str]) -> dict:
    """Tombstone docs by doc_id string.  The (small) removal set is an
    ``is_in`` filter over the forward table's ``doc``/``doc_id`` columns,
    read one part at a time, so the driver holds one part's two columns
    whatever the index size."""
    want = pa.array(sorted(set(doc_ids)), pa.string())
    if not len(want):
        return {"n_removed": 0}
    found = []
    for f in _forward_parts(index_dir):
        t = pq.read_table(f, columns=["doc", "doc_id"])
        t = t.filter(pc.is_in(t["doc_id"], value_set=want))
        found.append(t["doc"].to_numpy(zero_copy_only=False).astype(np.uint64))
    docs = np.unique(np.concatenate([np.empty(0, np.uint64)] + found))
    if docs.size:
        _write_tombstones(index_dir, docs)
    return {"n_removed": int(docs.size)}


def compact(index_dir: str, tokenizer_factory=None) -> dict:
    """Apply tombstones physically: rewrite only the forward parts and
    segment shards containing dead docs, then refresh termstats + stats.
    The shards drop their dead docs' postings and tokenize nothing
    (``_rebuild_shards``).
    Cheap analog of riot's removeCache sweep (core/indexer.go:258-366) —
    per-partition, resumable, leaves untouched partitions byte-identical."""
    t0 = time.time()
    tomb = load_tombstones(index_dir)
    stats = load_stats(index_dir)
    opts = EngineOpts.from_json_dict(stats["opts"])
    if tomb.size == 0:
        return {"n_removed": 0, "parts_rewritten": 0, "shards_rebuilt": 0}
    if not opts.store_content:
        raise ValueError(
            "compact requires an index built with store_content=True: a "
            "rebuilt shard tokenizes the forward docs it lacks, and the "
            "forward table holds no content in this index (tombstone "
            "serving still works)"
        )

    dead_parts = set(np.unique(tomb >> np.uint64(PART_SHIFT)).astype(np.int64).tolist())
    dead_shards = sorted(
        {shard_of_part(p, opts.num_parts, opts.num_shards) for p in dead_parts}
    )
    touched_files = [f for f in _forward_parts(index_dir) if _part_of(f) in dead_parts]

    # 1) rewrite touched forward parts minus dead docs (atomic per part)
    w = IndexWriter(index_dir, opts, tokenizer_factory=tokenizer_factory)
    build_fp = _build_fingerprint(index_dir, stats)
    for f in touched_files:  # few parts; each rewrite is independent
        t1 = time.time()
        t = pq.read_table(f)
        doc = t["doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
        t = t.filter(pa.array(~np.isin(doc, tomb)))
        write_forward_part(w.forward_dir, _part_of(f), t, build_fp, t1)

    # 2) rebuild the shards owning those parts against the (now clean)
    # forward table: their dead docs drop out, nothing is tokenized, and a
    # shard whose docs ALL died loses its segment dir
    fp = f"compact-{uuid.uuid4().hex[:12]}"
    _rebuild_shards(w, dead_shards, fp, _in_process(_shard_files(index_dir, opts, dead_shards)))

    # 3) refresh global termstats + stats from all shard outputs
    w.write_stats(fp, dict(stats, generations=stats.get("generations", [0]) + [fp]))

    # 4) clear tombstones
    for f in glob.glob(os.path.join(_tomb_dir(index_dir), "*.parquet")):
        os.remove(f)
    return {
        "n_removed": int(tomb.size),
        "parts_rewritten": len(touched_files),
        "shards_rebuilt": len(dead_shards),
        "wall_s": round(time.time() - t0, 3),
    }


def _read_increment(source, opts: EngineOpts):
    """The incoming rows, prepared once (doc_id, content sha256, part).  Up
    to ``LOCAL_MAX_ROWS`` rows (Parquet footers, or the row count of the
    materialized Dataset) they are read into this process and returned as
    a ``pa.Table``; above it they are prepared on the cluster and returned
    as a ``MaterializedDataset`` that never enters the driver.  None when
    there are no rows.  A Parquet path is read with only the columns the
    build keeps."""
    import ray

    if isinstance(source, rd.Dataset):
        src = source.materialize()
        n = src.count()
    else:
        pds = pq.ParquetDataset(source)
        cols = [c for c in keep_columns(opts) if c in set(pds.schema.names)]
        n = sum(f.metadata.num_rows for f in pds.fragments)
    if n == 0:
        return None
    if _in_process([], n):
        if isinstance(source, rd.Dataset):
            blocks = [b for b in ray.get(src.to_arrow_refs()) if b.num_rows]
            table = pa.concat_tables(blocks, promote_options="default")
        else:
            table = pq.read_table(source, columns=cols)
        return make_prepare_fn(opts)(table)
    if not isinstance(source, rd.Dataset):
        src = rd.read_parquet(source, columns=cols)
    return src.map_batches(make_prepare_fn(opts), batch_format="pyarrow").materialize()


def _tag_new(batch: pa.Table) -> pa.Table:
    """Incoming rows as merge input: __gen=1, doc assigned by the merge."""
    batch = batch.append_column("__gen", pa.array(np.ones(batch.num_rows, np.int8)))
    return batch.append_column(
        "doc", pa.array(np.zeros(batch.num_rows, np.uint64), pa.uint64()))


def _tag_existing(batch: pa.Table, cols: list[str]) -> pa.Table:
    """Existing forward rows as merge input: part from the doc u64, __gen=0."""
    doc = batch["doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
    part = (doc >> np.uint64(PART_SHIFT)).astype(np.int32)
    batch = batch.append_column("part", pa.array(part, pa.int32()))
    batch = batch.append_column("__gen", pa.array(np.zeros(batch.num_rows, np.int8)))
    return batch.select(cols)


def add_docs(index_dir: str, source, tokenizer_factory=None) -> dict:
    """Incremental indexing (riot addCache analog).  ``source`` is a parquet
    path or Dataset with the original input schema.  New/updated docs are
    hash-routed to their part; each touched part is rewritten (keep-last on
    doc_id — a re-added doc_id replaces the old row and gets a fresh u64
    appended after the part's max seq, mirroring the docsState replace at
    riot's core/indexer.go:135-159); touched shards are rebuilt by
    ``_rebuild_shards``, which tokenizes only the added docs."""
    t0 = time.time()
    stats = load_stats(index_dir)
    opts = EngineOpts.from_json_dict(stats["opts"])
    if not opts.store_content:
        raise ValueError(
            "add_docs requires an index built with store_content=True: the "
            "added docs are tokenized from the forward table, which holds "
            "no content in this index"
        )
    w = IndexWriter(index_dir, opts, tokenizer_factory=tokenizer_factory)

    new = _read_increment(source, opts)
    if new is None:
        return {"n_added": 0, "n_replaced": 0, "parts_touched": 0,
                "shards_rebuilt": 0, "wall_s": round(time.time() - t0, 3)}
    # the part set and the columns come from the prepared rows (for a
    # Dataset: its materialized blocks, one int32 column to the driver)
    if isinstance(new, pa.Table):
        parts = [new["part"]]
        cols = new.column_names
    else:
        import ray

        part_col = new.select_columns(["part"]).materialize()
        parts = [t["part"] for t in ray.get(part_col.to_arrow_refs()) if t.num_rows]
        cols = new.schema().names
    touched = {int(p) for c in parts for p in pc.unique(c).to_pylist()}
    cols = cols + ["__gen", "doc"]
    existing_files = [f for f in _forward_parts(index_dir) if _part_of(f) in touched]
    if existing_files:
        missing = set(pq.read_schema(existing_files[0]).names) - set(cols)
        if missing:
            raise ValueError(
                f"add_docs source lacks column(s) {sorted(missing)} present in "
                "the existing forward table — merging would silently drop "
                "them from rewritten parts"
            )
    touched_shards = {shard_of_part(p, opts.num_parts, opts.num_shards) for p in touched}
    local = isinstance(new, pa.Table) and _in_process(
        _shard_files(index_dir, opts, touched_shards), new.num_rows)

    # union existing part rows (__gen=0, doc known) with incoming (__gen=1):
    # the merge group fn is then a PURE function of its group — safe under
    # Ray task retry/re-execution (no read-modify-write of mutable files).
    merger = _MergePart(opts, w.forward_dir, _build_fingerprint(index_dir, stats))
    if local:
        merged = pa.concat_tables(
            [_tag_new(new)] + [_tag_existing(pq.read_table(f), cols) for f in existing_files],
            promote_options="default",
        )
        manifest = map_groups_local(merged, "part", merger).to_pandas()
    else:
        if isinstance(new, pa.Table):
            new = rd.from_arrow(new)
        merged = new.map_batches(_tag_new, batch_format="pyarrow")
        if existing_files:
            merged = merged.union(rd.read_parquet(existing_files).map_batches(
                _tag_existing, fn_args=(cols,), batch_format="pyarrow"))
        manifest = (
            merged.groupby("part").map_groups(merger, batch_format="pyarrow").to_pandas()
        )
    retired = np.concatenate(
        [np.empty(0, np.uint64)]
        + [np.asarray(x, dtype=np.uint64) for x in manifest["retired_docs"]]
    )
    if retired.size:
        _write_tombstones(index_dir, np.unique(retired))

    fp = f"add-{uuid.uuid4().hex[:12]}"
    _rebuild_shards(w, touched_shards, fp, local)
    w.write_stats(fp, dict(stats, generations=stats.get("generations", [0]) + [fp]))
    # retired docs are physically absent from the rebuilt shards; the
    # tombstones written above (which hid them while their old postings
    # could still be served) would now double-subtract -> drop them again
    if retired.size:
        remaining = load_tombstones(index_dir)
        keep = remaining[~np.isin(remaining, np.unique(retired))]
        for f in glob.glob(os.path.join(_tomb_dir(index_dir), "*.parquet")):
            os.remove(f)
        if keep.size:
            _write_tombstones(index_dir, keep)
    return {
        "n_added": int(manifest["n_added"].sum()),
        "n_replaced": int(retired.size),
        "parts_touched": len(manifest),
        "shards_rebuilt": len(touched_shards),
        "wall_s": round(time.time() - t0, 3),
    }


class _MergePart:
    """Group fn for add_docs.  The group carries BOTH the part's existing
    forward rows (__gen=0, doc assigned) and the incoming rows (__gen=1):
    a pure function of the group — idempotent under Ray task retries; the
    only side effect is the atomic write of the derived part file and its
    manifest, which keeps the build's ``fingerprint``."""

    def __init__(self, opts: EngineOpts, forward_dir: str, fingerprint: str):
        self.opts = opts
        self.forward_dir = forward_dir
        self.fingerprint = fingerprint
        self.__name__ = "MergePart"

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.time()
        opts = self.opts
        part = int(group["part"][0].as_py())
        gen = group["__gen"].to_numpy(zero_copy_only=False)
        doc = group["doc"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = np.asarray(group["doc_id"].to_pylist(), dtype=object)

        old_mask = gen == 0
        max_seq = (
            int((doc[old_mask] & np.uint64((1 << PART_SHIFT) - 1)).max())
            if old_mask.any()
            else -1
        )
        # keep-last: order by (doc_id, gen, seq) — an incoming row beats the
        # existing row of the same doc_id; within incoming, seq_col decides
        seq = (
            group[opts.seq_col].to_numpy(zero_copy_only=False)
            if opts.seq_col and opts.seq_col in group.column_names
            else np.arange(group.num_rows, dtype=np.int64)
        )
        order = np.lexsort((seq, gen, ids))
        sorted_ids = ids[order]
        is_last = np.r_[sorted_ids[1:] != sorted_ids[:-1], True]
        kept = order[is_last]
        dropped = order[~is_last]
        retired = doc[dropped][gen[dropped] == 0]  # existing rows replaced
        n_added = int((gen[kept] == 1).sum())

        out = group.take(pa.array(np.sort(kept)))
        o_gen = gen[np.sort(kept)]
        o_doc = doc[np.sort(kept)].copy()
        # fresh u64s for surviving incoming rows, appended after max_seq
        new_rows = np.flatnonzero(o_gen == 1)
        o_doc[new_rows] = (np.uint64(part) << np.uint64(PART_SHIFT)) | (
            np.arange(len(new_rows), dtype=np.uint64) + np.uint64(max_seq + 1)
        )
        out = out.drop_columns(["doc", "__gen", "part"])
        out = out.append_column("doc", pa.array(o_doc, pa.uint64()))
        if not opts.store_content and opts.content_col in out.column_names:
            out = out.drop_columns([opts.content_col])

        write_forward_part(self.forward_dir, part, out, self.fingerprint, t0)
        return pa.table(
            {
                "part": pa.array([part], pa.int32()),
                "n_added": pa.array([n_added], pa.int64()),
                "retired_docs": pa.array([retired.tolist()], pa.list_(pa.uint64())),
            }
        )
