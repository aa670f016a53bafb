"""``build``: repeated bulk code-mode builds of one generated corpus in one
Ray session, after a warm-up build.  Tokenize, both shuffles and segment
writes do all the work; the query layers do none, except in a traced run,
which ends with a probe of seeded queries on the last index."""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import oracle
from .common import dir_bytes, log, median, same_ranking, since_process_start
from .inputs import Inputs, keep_last, write
from .tracing import (Tracer, full_build_layers, install_build, install_query, query_layers,
                      read_span_file, trace_path, write_layers, write_trace)

N_DOCS = 5000
SAMPLE_DOCS = 24
TERMS_PER_DOC = 16
PROBE_QUERIES = 300


def engine_opts():
    from riot_ray.config import EngineOpts

    return EngineOpts(mode="code", seq_col="seq")


def collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def check_index(index_dir: str, live: dict, rng: np.random.Generator) -> list[str]:
    """Compare a finished index with the oracle; returns error strings."""
    import riot_ray.export as export
    from riot_ray import SearchReq
    from riot_ray.engine import LocalSearcher

    errors = []
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    if stats["n_docs"] != len(live):
        errors.append(f"n_docs {stats['n_docs']} != distinct doc_ids {len(live)}")
    fwd = pq.read_table(sorted(glob.glob(os.path.join(index_dir, "forward", "part=*.parquet"))),
                        columns=["doc_id", "content_sha256"])
    got = dict(zip(fwd["doc_id"].to_pylist(), fwd["content_sha256"].to_pylist()))
    if len(got) != fwd.num_rows or set(got) != set(live):
        errors.append(f"forward doc_ids differ: {fwd.num_rows} rows, {len(set(got) ^ set(live))} mismatched")
    bad = sum(1 for d, (c, _) in live.items() if got.get(d) != oracle.sha256_hex(c))
    if bad:
        errors.append(f"{bad} forward content_sha256 values differ from hashlib")

    ix = oracle.Index()
    for d, (c, lang) in live.items():
        ix.add(d, c, lang)
    if abs(stats["total_token_len"] - ix.total_len) > 0.5:
        errors.append(f"total token_len {stats['total_token_len']} != oracle {ix.total_len}")

    ids = sorted(live)
    sample = [ids[int(i)] for i in rng.choice(len(ids), size=min(SAMPLE_DOCS, len(ids)), replace=False)]
    meta = collect(export.docmeta_dataset(index_dir))
    got_len = dict(zip(meta["doc_id"].to_pylist(), meta["token_len"].to_pylist()))
    ts = pq.read_table(os.path.join(index_dir, "termstats"), columns=["term", "df"])
    got_df = dict(zip(ts["term"].to_pylist(), ts["df"].to_pylist()))
    se = LocalSearcher(index_dir)
    n, avg = ix.n_live, oracle.avgdl(float(ix.total_len), ix.n_live)
    bad_df = bad_tf = 0
    for d in sample:
        tf, dl = ix.tf_len(d)
        if got_len.get(d) != dl:
            errors.append(f"token_len of {d}: {got_len.get(d)} != {dl}")
        terms = sorted(tf)
        bad_df += sum(got_df.get(t) != ix.df(t) for t in terms)
        # tf through the engine: a one-token query restricted to the doc
        # scores idf(df) * g(tf, token_len); with df and token_len checked
        # above and g strictly increasing in tf, an equal score means an
        # equal tf
        for t in [terms[int(i)] for i in rng.choice(len(terms), size=min(TERMS_PER_DOC, len(terms)),
                                                    replace=False)]:
            hits = se.search(SearchReq(tokens=(t,), doc_ids=frozenset((d,)))).docs
            want = float(oracle.term_scores(oracle.idf(n, ix.df(t)), np.array([tf[t]]),
                                            np.array([dl]), avg)[0])
            if len(hits) != 1 or abs(hits[0].bm25 - want) > 1e-5 * max(1.0, want):
                bad_tf += 1
    if bad_df:
        errors.append(f"df differs from the oracle for {bad_df} terms of the sampled docs")
    if bad_tf:
        errors.append(f"tf differs from the oracle for {bad_tf} sampled (doc, term) pairs")
    return errors


def run(sess, args):
    from riot_ray.build import IndexWriter

    inp = Inputs(args.seed)
    table = inp.corpus(N_DOCS)
    src = write(table, sess.path("src.parquet"))
    opts = engine_opts()
    log(f"inputs ready at {since_process_start():.2f}s")
    sess.start_ray()
    log(f"ray up at {since_process_start():.2f}s")
    IndexWriter(sess.path("warm"), opts).build(src)
    shutil.rmtree(sess.path("warm"))
    setup_s = since_process_start()
    log(f"warm-up build done at {setup_s:.2f}s")

    tracer = Tracer() if args.trace else None
    span_file = sess.path("spans.jsonl")
    walls, traced_ops, bytes_idx = [], [], []
    attempted = failed = 0
    last = None
    deadline = time.monotonic() + args.seconds
    i = 0
    while time.monotonic() < deadline or i < 2:
        d = sess.path(f"idx{i}")
        # traced runs alternate traced and untraced builds: the untraced
        # ones give the overhead baseline
        traced = tracer is not None and i % 2 == 1
        patch = install_build(tracer, span_file) if traced else None
        sp = tracer.begin("build", rid=i) if traced else None
        t0 = time.monotonic()
        attempted += 1
        try:
            stats = IndexWriter(d, opts).build(src)
        except Exception as e:  # counted, the run goes on
            failed += 1
            log(f"build {i} failed: {e!r}")
            shutil.rmtree(d, ignore_errors=True)
            i += 1
            continue
        finally:
            wall = time.monotonic() - t0
            if traced:
                tracer.end(sp)
                patch.undo()
        if traced:
            traced_ops.append({"rid": i, "wall": wall})
        else:
            walls.append(wall)
        bytes_idx.append(dir_bytes(d))
        sess.rss.sample()
        if last:
            shutil.rmtree(last)
        last = d
        i += 1
    log(f"{attempted} builds, walls {[round(w, 2) for w in walls]}")
    live = keep_last(table)
    rng = np.random.default_rng(args.seed)
    errors = check_index(last, live, rng)
    content_bytes = sum(len(c.encode()) for c, _ in live.values())
    if tracer is not None:
        errors += probe_queries(tracer, last, inp, live)
    for e in errors:
        log(f"build check: {e}")
    log(f"checks done at {since_process_start():.2f}s")
    rss = sess.rss.total_mb()
    if tracer is None:
        log(f"build_docs_per_s {table.num_rows / median(walls):.1f}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms": (1e3 * median(walls), "ms"),
            "index_bytes_per_content_byte": (median(bytes_idx) / content_bytes, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, span_file, last, stats, content_bytes, walls,
                                traced_ops, args)
    return not errors, attempted, failed, metrics


def probe_queries(tracer, index_dir: str, inp: Inputs, live: dict) -> list[str]:
    """Traced runs only: open a searcher on the last index and run
    PROBE_QUERIES seeded queries through the query layers, so they read on
    this workload too (a fresh index, cold caches).  Every fourth is
    compared with the oracle."""
    from riot_ray import RankOpts, SearchReq
    from riot_ray.engine import LocalSearcher

    ix = oracle.Index()
    for d, (c, lang) in live.items():
        ix.add(d, c, lang)
    patch = install_query(tracer)
    errors = []
    try:
        se = LocalSearcher(index_dir)
        for j, q in enumerate(inp.query_texts(PROBE_QUERIES)):
            sp = tracer.begin("client.query", rid=f"q{j}")
            resp = se.search(SearchReq(text=q, rank_opts=RankOpts(max_outputs=10)))
            tracer.end(sp)
            if j % 4 == 0 and not same_ranking(resp, ix.search(q, 10)[0]):
                errors.append(f"probe query {q!r} differs from the oracle")
    finally:
        patch.undo()
    return errors


def layer_metrics(tracer, span_file, index_dir, stats, content_bytes, walls, traced_ops,
                  args) -> dict:
    spans = tracer.spans + read_span_file(span_file)
    build_spans = [s for s in spans if not str(s["rid"]).startswith("q")]
    out = write_layers(build_spans, traced_ops)
    out.update(full_build_layers(index_dir, stats, content_bytes))
    out.update(query_layers([s for s in spans if str(s["rid"]).startswith("q")
                             or s["name"] == "query.shard_load"]))
    # build 0 pays first-use costs: left out of the untraced baseline
    out["trace.overhead_ratio"] = (median([o["wall"] for o in traced_ops])
                                   / median(walls[1:] or walls), "ratio")
    write_trace(trace_path(args), spans, {"builds": len(traced_ops) + len(walls)})
    return out
