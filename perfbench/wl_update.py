"""``update``: writes beside reads on a built index.

Each cycle runs ``add_docs`` of a small batch (some doc_ids replace live
ones) handed over as an in-memory Arrow dataset, the form the facade's
``/index`` endpoint uses; then three ``remove_docs`` calls of two ids
each, ``LocalSearcher.reload()`` and a burst of queries; then ``compact``
and another reload.
The same tokenize and segment layers as ``build`` run here in small
increments, where the fixed Ray Data job cost and the rewrite of touched
parts and shards dominate.  The queries run on cold caches with tombstones
present.

Checks (tombstone semantics: until ``compact``, N and avgdl exclude removed
docs but df still counts them):
* after each add, every added doc is found by its own rarest term;
* no removed id appears in any response;
* sampled queries equal the brute-force oracle, with that df rule before
  ``compact`` and over the live set only after it.
"""

from __future__ import annotations

import os
import time

from . import oracle
from .common import dir_bytes, log, median, same_ranking, since_process_start
from .inputs import Inputs, keep_last, write
from .tracing import (Tracer, codec_bytes_per_posting, install_build, install_query, query_layers,
                      read_span_file, trace_path, write_layers, write_trace)
from .wl_build import engine_opts

N_BASE = 2000
N_NEW = 24          # new docs per add
N_REPLACE = 8       # live docs re-added with new content per add
N_REMOVE = 6        # per cycle, in calls of REMOVE_CALL ids
REMOVE_CALL = 2
N_QUERIES = 80      # query burst per cycle
CHECK_EVERY = 4     # every 4th burst query is compared with the oracle
OPENS = 3


def _rarest(ix: oracle.Index, doc_id: str) -> str:
    tf, _ = ix.tf_len(doc_id)
    return min(tf, key=lambda t: (ix.df(t), t))


def run(sess, args):
    import ray.data as rd
    from riot_ray import RankOpts, SearchReq
    from riot_ray.build import IndexWriter
    from riot_ray.engine import LocalSearcher
    from riot_ray.updates import add_docs, compact, remove_docs

    inp = Inputs(args.seed)
    table = inp.corpus(N_BASE)
    src = write(table, sess.path("src.parquet"))
    index_dir = sess.path("index")
    sess.start_ray()
    IndexWriter(index_dir, engine_opts()).build(src)
    t_pre = since_process_start()
    opens = []
    for _ in range(OPENS):
        t0 = time.monotonic()
        se = LocalSearcher(index_dir)
        opens.append(time.monotonic() - t0)
    setup_s = t_pre + median(opens)
    log(f"index built and opened at {setup_s:.2f}s")

    ix = oracle.Index()
    for d, (c, lang) in keep_last(table).items():
        ix.add(d, c, lang)
    queries = inp.query_texts(5000)
    qpos = 0

    tracer = Tracer() if args.trace else None
    span_file = sess.path("spans.jsonl")
    t = {"add": [], "remove": [], "compact": [], "reload": [], "query": [], "ratio": []}
    traced_add, add_walls = [], []
    attempted = failed = 0
    errors: list[str] = []
    removed: set = set()

    nq = 0

    def search(text, k):
        nonlocal nq
        nq += 1
        sp = tracer.begin("client.query", rid=f"q{nq}") if traced else None
        try:
            return se.search(SearchReq(text=text, rank_opts=RankOpts(max_outputs=k)))
        finally:
            if sp:
                tracer.end(sp)

    def reload():
        sp = tracer.begin("engine.reload", rid=f"reload{cycle}") if traced else None
        try:
            se.reload()
        finally:
            if sp:
                tracer.end(sp)

    def timed(kind, fn, *a):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.monotonic()
        try:
            out = fn(*a)
        except Exception as e:
            failed += 1
            log(f"{kind} failed: {e!r}")
            return None
        t[kind].append(time.monotonic() - t0)
        return out

    def check_removed(resp, what):
        bad = [h.doc_id for h in resp.docs if h.doc_id in removed]
        if bad:
            errors.append(f"removed ids in {what}: {bad[:3]}")

    deadline = time.monotonic() + args.seconds
    cycle = 0
    while time.monotonic() < deadline or cycle < 3:  # traced runs compare cycles 1-2
        traced = tracer is not None and cycle % 2 == 1
        patches = [install_build(tracer, span_file), install_query(tracer)] if traced else []
        live_ids = sorted(ix.slot)
        replace = [live_ids[int(i)] for i in inp.pick(len(live_ids), N_REPLACE)]
        batch = inp.update_batch(N_NEW, [_split_id(d) for d in replace])
        before = _files(index_dir)
        seg_dir = os.path.join(index_dir, "segments")
        sp = tracer.begin("updates.add", rid=f"add{cycle}") if traced else None
        out = timed("add", add_docs, index_dir, rd.from_arrow(batch))
        if traced:
            tracer.end(sp)
        if out is not None:
            add_walls.append((traced, t["add"][-1]))
        if traced and out is not None:
            add_bytes = sum(len(c.encode()) for c in batch["content"].to_pylist())
            changed = [(f, sz) for f, (sz, mt) in _files(index_dir).items()
                       if before.get(f) != (sz, mt)]
            traced_add.append({"wall": t["add"][-1], "rid": f"add{cycle}", "out": out,
                               "written_per_byte": sum(sz for _, sz in changed) / add_bytes,
                               "seg_written": sum(sz for f, sz in changed
                                                  if f.startswith(seg_dir + os.sep))})
        added = []
        for row in batch.to_pylist():
            d = f"{row['repo']}/{row['path']}@{row['commit']}"
            ix.add(d, row["content"], row["lang"])
            removed.discard(d)
            added.append(d)
        live_ids = sorted(set(ix.slot) - set(added))
        gone = [live_ids[int(i)] for i in inp.pick(len(live_ids), N_REMOVE)]
        for k in range(0, N_REMOVE, REMOVE_CALL):
            timed("remove", remove_docs, index_dir, gone[k: k + REMOVE_CALL])
        for d in gone:
            ix.drop(d, ghost=True)
            removed.add(d)
        timed("reload", reload)

        for d in added:
            term = _rarest(ix, d)
            resp = search(term, max(10, ix.df(term)))
            if d not in {h.doc_id for h in resp.docs}:
                errors.append(f"added doc {d} not found by its rarest term {term!r}")
            check_removed(resp, "add check")
        for j in range(N_QUERIES):
            q = queries[qpos]
            qpos += 1
            resp = timed("query", search, q, 10)
            if resp is None:
                continue
            check_removed(resp, "burst")
            if j % CHECK_EVERY == 0 and not same_ranking(resp, ix.search(q, 10)[0]):
                errors.append(f"cycle {cycle}: {q!r} differs from the oracle before compact")

        t["ratio"].append(dir_bytes(index_dir) / ix.content_bytes)
        sp = tracer.begin("updates.compact", rid=f"compact{cycle}") if traced else None
        timed("compact", compact, index_dir)
        if traced:
            tracer.end(sp)
        ix.clear_ghosts()
        timed("reload", reload)
        for j in range(N_QUERIES // CHECK_EVERY):
            q = queries[qpos]
            qpos += 1
            if not same_ranking(search(q, 10), ix.search(q, 10)[0]):
                errors.append(f"cycle {cycle}: {q!r} differs from the oracle after compact")
        for p in patches:
            p.undo()
        sess.rss.sample()
        log(f"cycle {cycle} done at {since_process_start():.2f}s")
        cycle += 1
    log(f"{cycle} cycles; " + "; ".join(
        f"{k} {[round(x, 3) for x in v]}" for k, v in t.items() if k not in ("query", "ratio")))
    for e in errors[:10]:
        log(f"update check: {e}")
    rss = sess.rss.total_mb()
    if tracer is None:
        # op_ms: one cycle's program calls, each at its median over the
        # run; steadier on a shared host than any one call or any one
        # cycle's sum (README)
        per_cycle = {"add": 1, "remove": N_REMOVE // REMOVE_CALL, "reload": 2,
                     "query": N_QUERIES, "compact": 1}
        log("medians: " + ", ".join(f"{k} {1e3 * median(t[k]):.1f} ms" for k in per_cycle))
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms": (1e3 * sum(n * median(t[k]) for k, n in per_cycle.items()), "ms"),
            "index_bytes_per_content_byte": (median(t["ratio"]), "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, span_file, index_dir, traced_add, add_walls, args)
    return not errors, attempted, failed, metrics


def _split_id(doc_id: str) -> tuple:
    head, _, commit = doc_id.rpartition("@")
    repo_a, repo_b, path = head.split("/", 2)
    return f"{repo_a}/{repo_b}", path, commit


def _files(root: str) -> dict:
    out = {}
    for dp, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dp, f)
            st = os.stat(p)
            out[p] = (st.st_size, st.st_mtime_ns)
    return out


def layer_metrics(tracer, span_file, index_dir, traced_add, add_walls, args) -> dict:
    spans = tracer.spans + read_span_file(span_file)
    out = write_layers(spans, traced_add)
    out.update({
        "stages.segments.bytes_written": (median([a["seg_written"] for a in traced_add]), "bytes"),
        "codecs.bytes_per_posting": (codec_bytes_per_posting(index_dir), "bytes"),
        "write.parts_touched": (median([a["out"]["parts_touched"] for a in traced_add]), "count"),
        "write.shards_rebuilt": (median([a["out"]["shards_rebuilt"] for a in traced_add]), "count"),
        "write.bytes_per_content_byte": (median([a["written_per_byte"] for a in traced_add]),
                                         "ratio"),
    })
    # query-side layers over the traced bursts (in-process searcher)
    out.update(query_layers([s for s in spans if str(s["rid"]).startswith(("q", "reload"))]))
    # cycle 0 pays first-use costs and is untraced: left out of the baseline
    out["trace.overhead_ratio"] = (median([w for tr, w in add_walls if tr])
                                   / median([w for tr, w in add_walls[1:] if not tr]), "ratio")
    write_trace(trace_path(args), spans, {"cycles": len(add_walls)})
    return out
