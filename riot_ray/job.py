"""`ray job submit` entrypoint: `python -m riot_ray.job <cmd> ...`.

The cluster launch surface the deployment doc (docs/DEPLOY.md) promises:
one module a driver can submit as-is instead of inlining python -c.

    ray job submit --address http://<head>:8265 --working-dir . -- \
        python -m riot_ray.job build --source s3://bucket/corpus/*.parquet \
            --index s3://bucket/index --opts conf/engine.toml

Subcommands
    build   — build (or resume) an index over parquet source(s); prints the
              stats JSON (docs, postings, wall seconds, shards skipped).
    search  — run queries against an index from the CLI / a submitted job;
              one JSON line per query with ranked (doc_id, score) pairs.
    serve   — start the HTTP facade over the index and block (Ctrl-C /
              SIGTERM to stop); the multi-node serving recipe in DEPLOY.md.
              Default is the in-process LocalSearcher (per-call latency
              mode); --actors N for indexes too big for one process.
    retrieve — offline batch retrieval (query parquet -> top-k parquet),
              resumable with --checkpoint.
    shards  — training-shard prep: quality gate -> exact dedup ->
              optional DSIR importance selection (--dsir-target /
              --dsir-top) -> id-hash sample -> seeded global shuffle ->
              checkpointed partitioned shards; a rerun restores lost
              partitions bit-identically.

No subcommand calls ray.init(): inside `ray job submit` the job driver is
already connected, and standalone Ray Data auto-initialises.  Guarded
helpers keep the module import-safe for the test fixture (which owns the
session).
"""

from __future__ import annotations

import argparse
import json
import sys


def _expand_sources(paths) -> list[str]:
    """Expand local glob patterns in --source arguments (Ray's
    read_parquet takes concrete paths/dirs, not shell globs).  Remote
    URIs (anything with a scheme) pass through untouched — their
    filesystem layer handles listing.  A local pattern matching nothing
    is a loud error, not an empty build."""
    import glob as _glob

    out: list[str] = []
    for p in paths:
        if "://" in p or not _glob.has_magic(p):
            out.append(p)
            continue
        hits = sorted(_glob.glob(p))
        if not hits:
            raise FileNotFoundError(f"--source pattern matched nothing: {p}")
        out.extend(hits)
    return out


def _source_fp(path: str) -> str:
    """Resume-fingerprint component for a --source/--queries argument.

    A plain local file contributes path|size|mtime so edits invalidate the
    checkpoint; globs, directories and remote URIs (s3://...) are not
    os.stat()-able, so they contribute the path string alone — resume for
    those is keyed on the path + pipeline parameters only.
    """
    import os as _os

    try:
        st = _os.stat(path)
    except OSError:
        return path
    return f"{path}|{st.st_size}|{st.st_mtime_ns}"


def _load_opts(path: str | None):
    from .config import EngineOpts

    if not path:
        return EngineOpts(mode="code")
    if path.endswith(".toml"):
        return EngineOpts.from_toml(path)
    with open(path) as f:
        return EngineOpts.from_json(f.read())


def cmd_build(args) -> int:
    from .build import IndexWriter

    opts = _load_opts(args.opts)
    if args.num_parts:
        opts.num_parts = args.num_parts
    if args.num_shards:
        opts.num_shards = args.num_shards
    srcs = _expand_sources(args.source)
    source = srcs if len(srcs) > 1 else srcs[0]
    stats = IndexWriter(args.index, opts).build(source, source_desc=" ".join(args.source))
    json.dump(stats, sys.stdout, default=str)
    print()
    return 0


def cmd_search(args) -> int:
    from .engine import ActorSearcher, LocalSearcher
    from .types import RankOpts, SearchReq

    cls = ActorSearcher if args.actors > 0 else LocalSearcher
    se = (
        cls(args.index, num_actors=args.actors, hydrate=args.hydrate)
        if args.actors > 0
        else cls(args.index, hydrate=args.hydrate)
    )
    reqs = [
        SearchReq(text=q, rank_opts=RankOpts(max_outputs=args.k))
        for q in args.query
    ]
    for q, resp in zip(args.query, se.search_many(reqs)):
        print(json.dumps({
            "query": q,
            "num_docs": resp.num_docs,
            "docs": [
                {"id": h.doc_id, "score": round(float(h.bm25), 6)}
                for h in resp.docs
            ],
        }))
    if args.actors > 0:
        se.shutdown()
    return 0


def cmd_retrieve(args) -> int:
    """Offline batch retrieval: a parquet query table (query_id, text)
    streamed through index-holding actors, top-k rows written as parquet —
    the submit-and-walk-away form of pipelines.batch_retrieval."""
    import ray.data as rd

    from .pipelines import batch_retrieval

    qs = rd.read_parquet(args.queries)
    if args.checkpoint:
        # resumable form: queries hash into part=K dirs; a restarted run
        # FILTERS OUT queries of already-committed parts before retrieval
        # (skipping the compute, not just the write), then commits the
        # remaining parts atomically
        import numpy as np
        import pyarrow as pa

        from .build import load_stats
        from .pipelines.checkpoint import (checkpointed_write,
                                           committed_parts, part_of)

        fp = (f"{_source_fp(args.queries)}|"
              f"{load_stats(args.index).get('fingerprint', args.index)}|"
              f"k={args.k}")
        done = committed_parts(args.output, fp, args.partitions)
        if done:
            def undone(b: pa.Table) -> pa.Table:
                part = part_of(b["query_id"], args.partitions)
                return b.filter(pa.array(~np.isin(part, list(done))))

            qs = qs.map_batches(undone, batch_format="pyarrow")
        out = batch_retrieval(qs, args.index, k=args.k,
                              concurrency=args.actors,
                              batch_size=args.batch_size)
        summary = checkpointed_write(out, args.output, fingerprint=fp,
                                     partition_col="query_id",
                                     num_partitions=args.partitions)
        summary["parts_resumed"] = len(done)
        print(json.dumps(summary))
        return 0
    out = batch_retrieval(qs, args.index, k=args.k,
                          concurrency=args.actors,
                          batch_size=args.batch_size)
    out.write_parquet(args.output)
    n = rd.read_parquet(args.output).count()
    print(json.dumps({"output": args.output, "rows": int(n)}))
    return 0


def cmd_shards(args) -> int:
    """Training-shard prep, submit-and-walk-away form of the contract's
    pipeline_train_shards composition: quality gate -> exact dedup
    (row-carrying, one digest shuffle) -> deterministic id-hash sample ->
    shuffle_shards(carry_rows=True) -> checkpointed partitioned write.

    Resume: the write commits per partition (atomic tmp+rename +
    fingerprint manifest); a rerun after a crash or a lost partition
    recomputes the permutation (inherent — a global shuffle needs every
    row) but SKIPS committed partitions' writes and restores only the
    missing ones, bit-identically (the permutation is seed-keyed, not
    run-keyed)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from .pipelines import dedup_rows_exact, hash_sample, shuffle_shards
    from .pipelines.analysis import quality_batch
    from .pipelines.checkpoint import checkpointed_write

    docs = rd.read_parquet(_expand_sources([args.source]))
    text_col, id_col = args.text_col, args.id_col

    def gate(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch, text_col=text_col)
        keep = pc.and_(
            pc.greater_equal(q["n_tokens"], args.min_tokens),
            pc.less_equal(q["punct_ratio"], args.max_punct),
        )
        return batch.filter(keep)

    curated = dedup_rows_exact(
        docs.map_batches(gate, batch_format="pyarrow"),
        text_col=text_col, id_col=id_col,
    )
    dsir_fp = ""
    if args.dsir_top and not args.dsir_target:
        raise SystemExit("--dsir-top requires --dsir-target (no selection "
                         "would run otherwise)")
    if args.dsir_target:
        # DSIR importance selection (Xie et al. 2023): keep only the
        # --dsir-top docs whose hashed-ngram likelihood ratio favors the
        # target exemplars.  The selected-id set is bounded by --dsir-top
        # (never the corpus), so the keep-filter is a broadcast semijoin.
        if args.dsir_top <= 0:
            raise SystemExit("--dsir-target requires --dsir-top > 0")
        from .pipelines import dsir_sample, filter_ids

        # the DSIR branch consumes `curated` three times (model fit pass,
        # scoring pass, final write) — pin it once so the gate map and the
        # dedup digest shuffle don't re-execute per consumption
        curated = curated.materialize()
        tgt = rd.read_parquet(_expand_sources([args.dsir_target]))
        sel = dsir_sample(curated, tgt, n=args.dsir_top, text_col=text_col,
                          id_col=id_col, n_buckets=args.dsir_buckets)
        curated = filter_ids(
            curated, sel[id_col].to_numpy(zero_copy_only=False),
            id_col=id_col, keep=True)
        dsir_fp = (f"|dsir={_source_fp(args.dsir_target)}"
                   f"|dsir_top={args.dsir_top}"
                   f"|dsir_buckets={args.dsir_buckets}")

    sampled = hash_sample(curated, args.frac, id_col=id_col,
                          seed=args.sample_seed)
    sharded = shuffle_shards(sampled, n_shards=args.n_shards,
                             id_col=id_col, seed=args.seed, carry_rows=True)

    fp = (f"{_source_fp(args.source)}|"
          f"text_col={text_col}|id_col={id_col}|"
          f"min_tokens={args.min_tokens}|max_punct={args.max_punct}|"
          f"frac={args.frac}|sample_seed={args.sample_seed}|"
          f"n_shards={args.n_shards}|seed={args.seed}{dsir_fp}")
    summary = checkpointed_write(sharded, args.output, fingerprint=fp,
                                 partition_col="shard",
                                 num_partitions=args.partitions)
    print(json.dumps(summary))
    return 0


def cmd_serve(args) -> int:
    from .engine import ActorSearcher, LocalSearcher
    from .httpserve import SearchHTTPServer

    se = (
        ActorSearcher(args.index, num_actors=args.actors, hydrate=args.hydrate)
        if args.actors > 0
        else LocalSearcher(args.index, hydrate=args.hydrate)
    )
    srv = SearchHTTPServer(
        se, host=args.host, port=args.port,
        dist_members=args.member or [], index_dir=args.index,
    )
    print(json.dumps({"serving": f"http://{srv.host}:{srv.port}"}), flush=True)
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.shutdown()
        if args.actors > 0:
            se.shutdown()
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m riot_ray.job")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build or resume an index")
    b.add_argument("--source", nargs="+", required=True,
                   help="parquet file(s)/glob(s)/dir(s)")
    b.add_argument("--index", required=True, help="index output directory/URI")
    b.add_argument("--opts", help="EngineOpts .toml or .json file")
    b.add_argument("--num-parts", type=int, default=0)
    b.add_argument("--num-shards", type=int, default=0)
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("search", help="query an index")
    s.add_argument("--index", required=True)
    s.add_argument("--query", nargs="+", required=True)
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--actors", type=int, default=0,
                   help="0 = in-process; N = actor-pool fan-out")
    s.add_argument("--hydrate", action="store_true")
    s.set_defaults(fn=cmd_search)

    r = sub.add_parser(
        "retrieve", help="offline batch retrieval: query parquet -> top-k parquet"
    )
    r.add_argument("--index", required=True)
    r.add_argument("--queries", required=True,
                   help="parquet with (query_id, text) rows")
    r.add_argument("--output", required=True, help="output parquet dir")
    r.add_argument("-k", type=int, default=10)
    r.add_argument("--actors", type=int, default=4)
    r.add_argument("--batch-size", type=int, default=512)
    r.add_argument("--checkpoint", action="store_true",
                   help="resumable output: part=K dirs + manifests; a "
                        "rerun skips committed parts' queries entirely")
    r.add_argument("--partitions", type=int, default=16)
    r.set_defaults(fn=cmd_retrieve)

    h = sub.add_parser(
        "shards", help="curate -> dedup -> sample -> shuffle into balanced "
                       "training shards (checkpointed partitioned output)"
    )
    h.add_argument("--source", required=True, help="documents parquet")
    h.add_argument("--output", required=True, help="output dir (part=K)")
    h.add_argument("--n-shards", type=int, default=16)
    h.add_argument("--seed", type=int, default=0,
                   help="shuffle permutation seed")
    h.add_argument("--frac", type=float, default=1.0,
                   help="deterministic id-hash sample fraction")
    h.add_argument("--sample-seed", type=int, default=7)
    h.add_argument("--min-tokens", type=int, default=30)
    h.add_argument("--max-punct", type=float, default=0.2)
    h.add_argument("--text-col", default="text")
    h.add_argument("--id-col", default="doc_id")
    h.add_argument("--partitions", type=int, default=16,
                   help="checkpoint partition count (resume granularity)")
    h.add_argument("--dsir-target", default="",
                   help="exemplar-docs parquet: enable DSIR importance "
                        "selection against this target distribution")
    h.add_argument("--dsir-top", type=int, default=0,
                   help="keep the top-N DSIR-weighted docs")
    h.add_argument("--dsir-buckets", type=int, default=10_000)
    h.set_defaults(fn=cmd_shards)

    v = sub.add_parser("serve", help="HTTP serving facade")
    v.add_argument("--index", required=True)
    v.add_argument("--host", default="0.0.0.0")
    v.add_argument("--port", type=int, default=8080)
    v.add_argument("--actors", type=int, default=0,
                   help="0 (default) = in-process LocalSearcher: the "
                        "per-call latency mode (no Ray RPC per query, "
                        "~1 ms-class p50); N = ActorSearcher fan-out for "
                        "indexes too big for one process (pays ~5 ms RPC "
                        "overhead per call — use batch endpoints or "
                        "ReplicatedSearcher for throughput)")
    v.add_argument("--hydrate", action="store_true")
    v.add_argument("--member", action="append",
                   help="peer base URL for /dist (repeatable)")
    v.set_defaults(fn=cmd_serve)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
