"""Index build orchestration — the flagship Ray Data pipeline.

    read_parquet(src)                                        # S1
      -> map_batches(prepare: doc_id + sha256 + part)        # D4 input
      -> groupby(part).map_groups(AssignIds)                 # dedup + u64 ids
         (writes forward/part=K.parquet atomically)
    read_parquet(forward)
      -> map_batches(TokenizeStage)                          # M1-M11
      -> groupby(shard).map_groups(BuildShard)               # A1/A2 shuffle
         (writes segments/shard=K/{blocks,docmeta}.parquet + manifest)
    read segments/*/blocks.{term,n} -> groupby(term).sum     # global df (A2)
    stats.json from shard manifests                          # A3 (global N, avgdl)

The last two steps are ``IndexWriter.write_stats``, which ``add_docs`` and
``compact`` (riot_ray.updates) call as well.

Resume: each segment shard carries a manifest with a build fingerprint;
re-running build() skips shards whose manifest matches (per-partition
lineage, north rule).  Updates (D5) are handled by riot_ray.updates via
generations + tombstones; small ones hand ``apply_tokenize`` /
``build_segments`` a ``pa.Table`` and run the same stage objects
in-process (``map_groups_local``).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from .config import EngineOpts
from .stages.prepare import AssignIds, keep_columns, make_prepare_fn
from .stages.postings import TokenizeStage
from .stages.segments import BuildShard

STATS_FILE = "stats.json"


def map_groups_local(table: pa.Table, key: str, fn) -> pa.Table | None:
    """In-process ``groupby(key).map_groups(fn)``: rows grouped by a stable
    sort on ``key`` (in-group row order is input order, as in Ray Data's
    sort shuffle), ``fn`` called once per group in key order, outputs
    concatenated.  None when ``table`` has no rows."""
    if table.num_rows == 0:
        return None
    table = table.take(pc.sort_indices(table[key]))
    keys = table[key].to_numpy()
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    ends = np.r_[starts[1:], len(keys)]
    return pa.concat_tables(fn(table.slice(a, b - a)) for a, b in zip(starts, ends))


def forward_doc_count(forward_dir: str) -> int:
    """Rows in the forward table, from the part files' Parquet footers."""
    return sum(pq.read_metadata(f).num_rows
               for f in glob.glob(os.path.join(forward_dir, "part=*.parquet")))


def _fingerprint(opts: EngineOpts, source: str, files=None) -> str:
    """Semantic opts + source description + file-level metadata (path,
    size, mtime) of every input file — a changed input invalidates resume
    without hashing 100 TB of content."""
    h = hashlib.sha256((opts.semantic_json() + "\0" + source).encode())
    for f in sorted(files or []):
        try:
            st = os.stat(f)
            h.update(f"|{f}:{st.st_size}:{st.st_mtime_ns}".encode())
        except OSError:
            h.update(f"|{f}:?".encode())
    return h.hexdigest()[:16]


class IndexWriter:
    def __init__(self, index_dir: str, opts: EngineOpts | None = None,
                 tokenizer_factory=None):
        """``tokenizer_factory``: custom analyzer injection (X3, riot's
        WithGse) — picklable factory(opts) -> Tokenizer-like; hand the SAME
        factory to the searcher."""
        self.index_dir = index_dir
        self.opts = opts or EngineOpts()
        self.tokenizer_factory = tokenizer_factory

    @property
    def forward_dir(self):
        return os.path.join(self.index_dir, "forward")

    @property
    def segments_dir(self):
        return os.path.join(self.index_dir, "segments")

    @property
    def termstats_dir(self):
        return os.path.join(self.index_dir, "termstats")

    def build(self, source, source_desc: str = "") -> dict:
        """source: parquet path(s) or a ray.data.Dataset. Returns stats dict."""
        t0 = time.time()
        opts = self.opts
        os.makedirs(self.index_dir, exist_ok=True)

        ds = source if isinstance(source, rd.Dataset) else self._read_source(source)
        desc = source_desc or (source if isinstance(source, str) else "dataset")
        src_files = []
        if isinstance(source, str) and os.path.isfile(source):
            src_files = [source]
        elif isinstance(source, (list, tuple)):
            src_files = [f for f in source if isinstance(f, str) and os.path.isfile(f)]
        fp = _fingerprint(opts, desc, src_files)

        # ---- ONE fused pipeline: the doc-pass groupby output feeds the
        # tokenize stage directly (AssignIds writes forward/part=K.parquet as
        # a side effect and returns the assigned rows) — a single streaming
        # DAG with two shuffles (part, shard) and one barrier at the end.
        prepared = ds.map_batches(make_prepare_fn(opts), batch_format="pyarrow")
        assigned = prepared.groupby("part").map_groups(
            AssignIds(opts, self.forward_dir, return_rows=True, fingerprint=fp),
            batch_format="pyarrow",
        )
        postings = self.apply_tokenize(assigned)
        seg_manifest = self.build_segments(postings, fp)
        self._remove_stale_outputs(fp)
        # an empty source has no shard groups: the frame has no columns
        skipped = seg_manifest["skipped"] if "skipped" in seg_manifest else []
        return self.write_stats(fp, {
            "shards_skipped": int(sum(skipped)),
            "num_shards": opts.num_shards,
            "num_parts": opts.num_parts,
            "custom_tokenizer": self.tokenizer_factory is not None,
            "opts": json.loads(opts.to_json()),
            "generations": [0],
        }, started=t0)

    def write_stats(self, fp: str, fields: dict, started: float | None = None) -> dict:
        """Write the index-wide tables from the shard files on disk: the
        global df (``_build_termstats``) and ``stats.json``, which is
        ``fields`` plus the summed shard manifests, the forward doc count and
        ``fp``.  ``started`` (a ``time.time()``) also sets ``build_wall_s``.
        Returns the stats written."""
        self._build_termstats()
        mans = []
        for path in sorted(glob.glob(os.path.join(self.segments_dir, "shard=*", "manifest.json"))):
            with open(path) as f:
                mans.append(json.load(f))
        total = lambda k: sum(m[k] for m in mans)  # noqa: E731
        stats = dict(fields)
        stats.update(
            n_docs=total("n_docs"),
            # NumPy's pairwise float64 sum in shard order, for every caller
            total_token_len=float(np.sum([m["total_token_len"] for m in mans],
                                         dtype=np.float64)),
            n_postings=total("n_postings"),
            n_terms_with_dups_across_shards=total("n_terms"),
            n_blocks=total("n_blocks"),
            n_docs_forward=forward_doc_count(self.forward_dir),
            fingerprint=fp,
        )
        if started is not None:
            stats["build_wall_s"] = round(time.time() - started, 3)
        with open(os.path.join(self.index_dir, STATS_FILE), "w") as f:
            json.dump(stats, f, indent=1)
        return stats

    def _remove_stale_outputs(self, fp: str):
        """Drop forward parts / segment shards whose manifests carry a
        DIFFERENT fingerprint — leftovers of an earlier build into the same
        index_dir (different corpus or partitioning) would otherwise leak
        into termstats and serving."""
        import shutil

        for man in glob.glob(os.path.join(self.forward_dir, "part=*.manifest.json")):
            with open(man) as f:
                m = json.load(f)
            if m.get("fingerprint") != fp:
                part_file = man.replace(".manifest.json", ".parquet")
                for path in (man, part_file):
                    if os.path.exists(path):
                        os.remove(path)
        for man in glob.glob(os.path.join(self.segments_dir, "shard=*", "manifest.json")):
            with open(man) as f:
                m = json.load(f)
            if m.get("fingerprint") != fp:
                shutil.rmtree(os.path.dirname(man))

    def build_segments(self, postings, fp: str, merge: bool = False):
        """groupby(shard) -> BuildShard with clamped per-task CPUs — the one
        place the shard-build remote-args live (build/compact/add share it).
        shard_build_num_cpus is clamped to the CURRENT cluster so an index
        built on a big node never makes its maintenance jobs unschedulable
        on a small one.  A ``pa.Table`` of postings is built in-process,
        one BuildShard call per shard; both forms return the manifest
        frame (empty, with no columns, when there are no postings).
        ``merge`` (updates) merges each group into the shard's own postings
        against the forward table (``BuildShard`` with ``forward_dir``)."""
        import ray

        shard_fn = BuildShard(self.opts, self.segments_dir, fp,
                              forward_dir=self.forward_dir if merge else None)
        if isinstance(postings, pa.Table):
            import pandas as pd

            out = map_groups_local(postings, "shard", shard_fn)
            return pd.DataFrame() if out is None else out.to_pandas()

        cpus = None
        try:
            if ray.is_initialized():
                cpus = ray.cluster_resources().get("CPU")
        except Exception:
            pass
        num_cpus = self.opts.shard_build_num_cpus
        if cpus:
            num_cpus = max(1.0, min(float(num_cpus), float(cpus)))
        return (
            postings.groupby("shard")
            .map_groups(
                shard_fn,
                batch_format="pyarrow",
                num_cpus=num_cpus,
            )
            .to_pandas()
        )

    def apply_tokenize(self, ds):
        """Tokenize stage.  With tokenize_concurrency set, pass the CLASS so
        Ray Data runs an ACTOR pool — a callable instance runs as tasks and
        the code-mode expansion cache would be rebuilt per task.

        The pool is AUTOSCALING ``(1, N)``: a fixed int pool is a hard
        minimum, and on a cluster with fewer than N free CPUs Ray Data waits
        forever for actors it can never schedule — the whole build deadlocks
        (observed: tokenize_concurrency=8 on a 4-CPU cluster).  (1, N) keeps
        the big-cluster behavior (pool grows to N under load) and degrades
        gracefully on small ones.

        A ``pa.Table`` is tokenized in-process, one stage call per
        ``tokenize_batch_size`` slice."""
        opts = self.opts
        if isinstance(ds, pa.Table):
            stage = TokenizeStage(opts, self.tokenizer_factory)
            step = opts.tokenize_batch_size or max(ds.num_rows, 1)
            outs = [stage(ds.slice(i, step)) for i in range(0, ds.num_rows, step)]
            return pa.concat_tables(outs) if outs else pa.table(
                {"shard": pa.array([], pa.int32())})
        if opts.tokenize_concurrency:
            return ds.map_batches(
                TokenizeStage,
                fn_constructor_kwargs={
                    "opts": opts,
                    "tokenizer_factory": self.tokenizer_factory,
                },
                batch_format="pyarrow",
                batch_size=opts.tokenize_batch_size,
                concurrency=(1, opts.tokenize_concurrency),
            )
        return ds.map_batches(
            TokenizeStage(opts, self.tokenizer_factory),
            batch_format="pyarrow",
            batch_size=opts.tokenize_batch_size,
        )

    def _read_source(self, source):
        """Read with ~one block per cluster CPU (floored by
        target_max_block_size for large inputs).  Ray's default splits small
        files into hundreds of tiny blocks; the sort-shuffle then pays
        O(maps x reduces) object overhead — matching blocks to CPUs cut a
        150k-doc build from 18.7s to 7.0s at 16 CPUs."""
        import ray

        try:
            cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        except Exception:
            cpus = 8
        files = [source] if isinstance(source, str) else list(source)
        try:
            est_bytes = 3 * sum(
                os.path.getsize(f) for f in files if os.path.isfile(f)
            )
        except OSError:
            est_bytes = 0
        ctx = rd.DataContext.get_current()
        floor_blocks = est_bytes // max(ctx.target_max_block_size or (128 << 20), 1)
        nblocks = int(max(cpus, floor_blocks, 1))
        # prune at the read: only the columns the pipeline touches leave
        # storage (missing optional columns are dropped from the request —
        # prepare tolerates their absence the same way)
        cols = None
        probe = next((f for f in files if os.path.isfile(f)), None)
        if probe is None and files and os.path.isdir(files[0]):
            inside = sorted(glob.glob(os.path.join(files[0], "*.parquet")))
            probe = inside[0] if inside else None
        if probe is not None:
            try:
                have = set(pq.read_schema(probe).names)
                cols = [c for c in keep_columns(self.opts) if c in have]
            except Exception:
                cols = None
        return rd.read_parquet(source, override_num_blocks=nblocks, columns=cols)

    # a term's global df is the sum of ``n`` over its block rows in every
    # shard (a shard holds most terms in one block).  Below ~5M block rows a
    # driver-side pyarrow groupby over the (term, n) columns beats a
    # distributed shuffle by seconds of fixed cost; above it we fall back to
    # the Ray groupby (the true multi-node path).
    DRIVER_DF_ROWS = 5_000_000

    def _build_termstats(self):
        import shutil

        from .store import count_any, glob_segments, read_any, segments_dataset

        blocks_files = glob_segments(
            os.path.join(self.segments_dir, "shard=*"), "blocks"
        )
        # engine-provided metadata counts (parquet footer / IPC batch
        # metadata); a custom engine without a count_rows hook yields None
        # and is routed down the distributed path — the DRIVER_DF_ROWS
        # gate exists to prevent driver OOM, so "unknown" must not default
        # to the driver side
        counts = [count_any(f) for f in blocks_files]
        total_rows = (None if any(c is None for c in counts)
                      else sum(counts))
        tmp_ts = self.termstats_dir + ".tmp"
        if os.path.exists(tmp_ts):
            shutil.rmtree(tmp_ts)
        if not blocks_files:
            # empty index: an empty df table keeps every loader simple
            os.makedirs(tmp_ts, exist_ok=True)
            pq.write_table(
                pa.table({"term": pa.array([], pa.string()),
                          "df": pa.array([], pa.int64())}),
                os.path.join(tmp_ts, "df.parquet"),
            )
        elif total_rows is not None and total_rows <= self.DRIVER_DF_ROWS:
            t = pa.concat_tables(read_any(f, columns=["term", "n"]) for f in blocks_files)
            agg = t.group_by("term").aggregate([("n", "sum")])
            # select by NAME: pyarrow's aggregate column order has changed
            # across major versions — a positional rename silently swaps
            out = pa.table({"term": agg["term"], "df": agg["n_sum"]}).sort_by(
                "term"
            )  # term-sorted on disk: TermStats then loads without a re-sort
            os.makedirs(tmp_ts, exist_ok=True)
            pq.write_table(out, os.path.join(tmp_ts, "df.parquet"))
        else:
            from ray.data.aggregate import Sum

            # segments_dataset streams parquet via read_parquet (pruned)
            # and other engines one file per task — the true distributed
            # path for any store engine
            df_ds = (
                segments_dataset(blocks_files, columns=["term", "n"])
                .groupby("term")
                .aggregate(Sum("n", alias_name="df"))
            )
            df_ds.write_parquet(tmp_ts)
        if os.path.exists(self.termstats_dir):
            shutil.rmtree(self.termstats_dir)
        os.replace(tmp_ts, self.termstats_dir)


def load_stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, STATS_FILE)) as f:
        return json.load(f)
