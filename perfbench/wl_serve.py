"""``serve``: the HTTP facade in its own process over a built index.

Setup builds one code-mode index in Ray, shuts Ray down and starts
``python -m riot_ray.job serve`` (in-process LocalSearcher, no actors).  One
closed-loop client on one keep-alive connection then sends 1-3-term
queries drawn Zipf-distributed from a vocabulary with more distinct terms
than the 4096-entry per-shard postings cache, so hot terms hit the cache
and tail terms are decoded.  A share of requests asks for ``facets=lang``
or for page two (``outputOffset``).  Build layers run only in setup; a
traced run traces that setup build, so the build layers read here too.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import time
import urllib.parse

from . import oracle
from .common import dir_bytes, log, median, percentile, since_process_start
from .inputs import Inputs, keep_last, write
from .tracing import (Tracer, full_build_layers, http_self_ms, install_build, query_layers,
                      read_span_file, trace_path, write_layers, write_trace)
from .wl_build import engine_opts

N_DOCS = 6000
WARMUP = 200
CHUNK = 2000            # request params are generated in fixed-size chunks
SAMPLE_EVERY = 16       # every 16th request is checked against the oracle
MAX_SAMPLES = 300
SERVER_STARTS = 3
SLICES = 5


class Stream:
    """The seeded request stream; identical for every run with one seed."""

    def __init__(self, seed: int):
        self.inp = Inputs(seed)
        self.buf: list = []
        self.i = 0

    def next(self) -> dict:
        if not self.buf:
            self.buf = self.inp.query_mix(CHUNK)
        self.i += 1
        return self.buf.pop(0)


def start_server(sess, index_dir: str, spans_path: str | None):
    cmd = ["serve", "--index", index_dir, "--host", "127.0.0.1", "--port", "0"]
    argv = ([sys.executable, "-m", "perfbench.serve_traced", spans_path] if spans_path
            else [sys.executable, "-m", "riot_ray.job"]) + cmd
    t0 = time.monotonic()
    p = sess.spawn(argv, stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    if not line:
        raise RuntimeError(f"server exited with {p.wait()} before serving")
    url = urllib.parse.urlparse(json.loads(line)["serving"])
    return p, url.hostname, url.port, time.monotonic() - t0


def window(host: str, port: int, seed: int, seconds: float):
    """Warm-up, then the closed loop for ``seconds``.  Returns the timed
    requests as (rid, start, end) on the monotonic clock, the sampled
    (params, reply) pairs, requests sent, requests failed and the window
    length."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    stream = Stream(seed)
    rtts, samples = [], []
    failed = 0

    def one(measure: bool):
        nonlocal failed
        params = stream.next()
        rid = stream.i
        q = urllib.parse.urlencode({**params, "rid": rid})
        t0 = time.monotonic()
        conn.request("GET", "/search?" + q)
        resp = conn.getresponse()
        body = resp.read()
        t1 = time.monotonic()
        # the facade writes "code" first; only sampled replies are parsed
        if resp.status != 200 or not body.startswith(b'{"code": 0,'):
            failed += 1
            return
        if measure:
            rtts.append((str(rid), t0, t1))
        if rid % SAMPLE_EVERY == 0 and len(samples) < MAX_SAMPLES:
            samples.append((params, json.loads(body)))

    try:
        for _ in range(WARMUP):
            one(False)
        t_start = time.monotonic()
        deadline = t_start + seconds
        while time.monotonic() < deadline:
            one(True)
        elapsed = time.monotonic() - t_start
    finally:
        conn.close()
    return rtts, samples, stream.i, failed, elapsed


def check_samples(ix: oracle.Index, samples: list) -> list[str]:
    errors = []
    for params, reply in samples:
        facet = "facets" in params
        top, _, facets = ix.search(params["query"], params["maxOutputs"],
                                   params["outputOffset"], facet_lang=facet)
        got = [(d["id"], d["score"][0]) for d in reply["docs"]]
        if [d for d, _ in got] != [d for d, _ in top]:
            errors.append(f"ids differ for {params}")
        elif any(abs(a - b) > 1e-5 * max(1.0, abs(b)) for (_, a), (_, b) in zip(got, top)):
            errors.append(f"scores differ for {params}")
        if reply["len"] != len(top):
            errors.append(f"len {reply['len']} != {len(top)} for {params}")
        if facet and reply.get("facets", {}).get("lang") != facets:
            errors.append(f"lang facets differ for {params}")
    return errors


def run(sess, args):
    from riot_ray.build import IndexWriter

    table = Inputs(args.seed).corpus(N_DOCS)
    src = write(table, sess.path("src.parquet"))
    index_dir = sess.path("index")
    sess.start_ray()
    # traced runs trace the setup build, so the build layers read here too
    tracer = Tracer() if args.trace else None
    span_file = sess.path("spans.jsonl")
    patch = install_build(tracer, span_file) if tracer else None
    sp = tracer.begin("build", rid="build") if tracer else None
    t0 = time.monotonic()
    stats = IndexWriter(index_dir, engine_opts()).build(src)
    build_op = {"rid": "build", "wall": time.monotonic() - t0}
    if tracer:
        tracer.end(sp)
        patch.undo()
    sess.stop_ray()
    t_pre = since_process_start()
    log(f"index built ({stats['n_docs']} docs), Ray stopped at {t_pre:.2f}s")
    starts = []
    for k in range(SERVER_STARTS):
        p, host, port, dt = start_server(sess, index_dir, None)
        starts.append(dt)
        if k + 1 < SERVER_STARTS:
            sess.stop_proc(p)
    setup_s = t_pre + median(starts)
    log(f"server starts {[round(s, 2) for s in starts]}")

    seconds = args.seconds / 2 if args.trace else args.seconds
    rtts, samples, attempted, failed, elapsed = window(host, port, args.seed, seconds)
    sess.stop_proc(p)
    traced = None
    if args.trace:
        # same request stream again, against a server with the wrappers in
        spans_path = sess.path("server_spans.json")
        p, host, port, _ = start_server(sess, index_dir, spans_path)
        t_rtts, t_samples, t_sent, t_failed, _ = window(host, port, args.seed, seconds)
        sess.stop_proc(p)
        with open(spans_path) as f:
            traced = (t_rtts, json.load(f))
        samples += t_samples
        attempted += t_sent
        failed += t_failed
    rss = sess.rss.total_mb()
    log(f"{len(rtts)} timed requests in {elapsed:.2f}s; checking {len(samples)} samples")

    ix = oracle.Index()
    for d, (c, lang) in keep_last(table).items():
        ix.add(d, c, lang)
    errors = check_samples(ix, samples)
    for e in errors[:10]:
        log(f"serve check: {e}")
    lat = [t1 - t0 for _, t0, t1 in rtts]
    content_bytes = sum(len(c.encode()) for c, _ in keep_last(table).values())
    if traced is None:
        p50, p99, qps = slice_stats(rtts, elapsed)
        # p99 and q/s are logged, not reported: p99 swings 2x between runs
        # with the host's CPU steal, and q/s of a closed loop is 1 / mean
        # round trip, which op_ms already tracks
        log(f"query p99 {1e3 * p99:.2f} ms, {qps:.1f} q/s over {len(lat)} requests")
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms": (1e3 * p50, "ms"),
            "index_bytes_per_content_byte": (dir_bytes(index_dir) / content_bytes, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        spans = tracer.spans + read_span_file(span_file)
        metrics = write_layers(spans, [build_op])
        metrics.update(full_build_layers(index_dir, stats, content_bytes))
        metrics.update(layer_metrics(lat, *traced, spans, args))
    return not errors, attempted, failed, metrics


def slice_stats(rtts: list, elapsed: float) -> tuple:
    """(p50 s, p99 s, queries/s), each the median over SLICES equal time
    slices of the window: a burst of CPU steal on the shared host spoils
    one slice, not the figure.  Every slice holds 1,000+ requests, so 10+
    lie beyond its p99."""
    t_start = rtts[0][1]
    width = elapsed / SLICES
    parts = [[] for _ in range(SLICES)]
    for _, t0, t1 in rtts:
        parts[min(SLICES - 1, int((t0 - t_start) / width))].append(t1 - t0)
    log("slices p50/p99 ms, q/s: " + "  ".join(
        f"{1e3 * median(p):.2f}/{1e3 * percentile(p, 99):.2f}/{len(p) / width:.0f}" for p in parts))
    return (median([median(p) for p in parts]),
            median([percentile(p, 99) for p in parts]),
            median([len(p) / width for p in parts]))


def layer_metrics(lat_untraced, t_rtts, server_spans, build_spans, args) -> dict:
    """Query layers from the traced server, tracing overhead, and the trace
    file (build spans, server spans and one client span per request)."""
    rtt_by_rid = {r: t1 - t0 for r, t0, t1 in t_rtts}
    out = query_layers(server_spans)
    out["trace.overhead_ratio"] = (median(rtt_by_rid.values()) / median(lat_untraced), "ratio")
    # only this workload speaks HTTP: the facade's share is in the log and
    # the trace file, not among the metrics every workload reports
    http_ms = http_self_ms(server_spans, rtt_by_rid)
    log(f"httpserve self {http_ms:.3f} ms per request")
    spans = build_spans + server_spans + [
        {"id": f"client-{r}", "name": "client.rtt", "start": t0, "end": t1,
         "parent": None, "rid": r} for r, t0, t1 in t_rtts]
    write_trace(trace_path(args), spans, {"requests": len(t_rtts), "httpserve.self_ms": http_ms})
    return out
