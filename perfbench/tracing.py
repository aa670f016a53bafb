"""Timing wrappers around the program's public layer entry points.

Only the traced invocation (``--trace 1``) installs them.  Spans are
``{id, name, start, end, parent, rid}`` plus counts, on the system-wide
monotonic clock so spans from Ray workers and from the server process line
up with the benchmark's own.  In-process spans stay in memory; Ray Data
stage callables run in worker processes and append one JSON line per call
to a file in the run's private temp dir.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        st = self._stack()
        return st[-1] if st else None

    def begin(self, name: str, rid=None) -> dict:
        parent = self.current()
        sp = {"id": next(self._ids), "name": name, "start": time.monotonic(),
              "end": None, "parent": parent["id"] if parent else None,
              "rid": rid if rid is not None or parent is None else parent["rid"]}
        self._stack().append(sp)
        return sp

    def end(self, sp: dict, **counts) -> None:
        sp["end"] = time.monotonic()
        sp.update(counts)
        self._stack().pop()
        self.spans.append(sp)

    def wrap(self, fn, name: str, counter=None):
        """``fn`` timed as ``name``; ``counter(args, result)`` -> extra counts."""
        tracer = self

        def traced(*args, **kw):
            sp = tracer.begin(name)
            try:
                out = fn(*args, **kw)
            except BaseException:
                tracer.end(sp, error=1)
                raise
            tracer.end(sp, **(counter(args, out) if counter else {}))
            return out

        traced.__wrapped__ = fn
        return traced


class StageTimer:
    """Picklable wrapper for a Ray Data stage callable: times each call in
    the worker and appends the span to ``span_file``."""

    def __init__(self, inner, name: str, span_file: str, parent: dict | None,
                 count_out: bool = False):
        self.inner = inner
        self.name = name
        self.span_file = span_file
        self.parent = parent["id"] if parent else None
        self.rid = parent["rid"] if parent else None
        self.count_out = count_out
        self.__name__ = getattr(inner, "__name__", name)

    def __call__(self, batch):
        t0 = time.monotonic()
        out = self.inner(batch)
        t1 = time.monotonic()
        sp = {"id": f"{os.getpid()}-{t0}", "name": self.name, "start": t0, "end": t1,
              "parent": self.parent, "rid": self.rid}
        if self.count_out:
            sp["rows_out"] = out.num_rows
            sp["bytes_out"] = out.nbytes
        with open(self.span_file, "a") as f:
            f.write(json.dumps(sp) + "\n")
        return out


_MISSING = object()


class _Patch:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._undo: list = []

    def set(self, obj, attr: str, value):
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def undo(self):
        for obj, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
        self._undo.clear()


def install_build(tracer: Tracer, span_file: str) -> _Patch:
    """Wrap the stage callables ``riot_ray.build`` / ``riot_ray.updates``
    hand to Ray Data, and the termstats step that runs in this process.  The
    parent of a worker span is this process's span that was open when the
    stage was created."""
    import riot_ray.build as build
    import riot_ray.updates as updates

    patch = _Patch()
    parent = tracer.current
    mk_prepare = build.make_prepare_fn
    for mod in (build, updates):
        patch.set(mod, "make_prepare_fn", lambda opts, _f=mk_prepare: StageTimer(
            _f(opts), "stages.prepare", span_file, parent()))
    assign, tokenize, shard = build.AssignIds, build.TokenizeStage, build.BuildShard
    patch.set(build, "AssignIds", lambda *a, **kw: StageTimer(
        assign(*a, **kw), "stages.assign", span_file, parent()))
    patch.set(build, "TokenizeStage", lambda *a, **kw: StageTimer(
        tokenize(*a, **kw), "stages.postings", span_file, parent(), count_out=True))
    patch.set(build, "BuildShard", lambda *a, **kw: StageTimer(
        shard(*a, **kw), "stages.segments", span_file, parent()))
    patch.set(build.IndexWriter, "_build_termstats",
              tracer.wrap(build.IndexWriter._build_termstats, "build.termstats"))
    return patch


def install_query(tracer: Tracer) -> _Patch:
    """Wrap the query-side layers: engine search, query tokenization, the
    per-shard kernel, posting decode (with cache hit/miss and entries
    decoded), ranking, merging and shard loading."""
    import riot_ray.engine as engine
    import riot_ray.query as query
    import riot_ray.tokenize as tokenize

    patch = _Patch()
    patch.set(engine.LocalSearcher, "search",
              tracer.wrap(engine._SearcherBase.search, "engine.search"))
    patch.set(tokenize.Tokenizer, "query_tokens",
              tracer.wrap(tokenize.Tokenizer.query_tokens, "tokenize.query"))
    patch.set(query.ShardData, "search", tracer.wrap(
        query.ShardData.search, "query.shard_search",
        lambda a, out: {"candidates": int(out[1])}))

    raw_postings = query.ShardData.postings

    def postings(self, term):
        cache = getattr(self, "_cache", None)
        hit = cache is not None and term in cache
        sp = tracer.begin("query.postings")
        out = raw_postings(self, term)
        tracer.end(sp, cache_hit=int(hit), decoded=0 if hit else int(len(out[0])))
        return out

    patch.set(query.ShardData, "postings", postings)
    patch.set(engine, "rank_hits", tracer.wrap(engine.rank_hits, "query.rank"))
    patch.set(engine, "merge_ranked", tracer.wrap(engine.merge_ranked, "query.merge"))
    patch.set(query.ShardData, "__init__",
              tracer.wrap(query.ShardData.__init__, "query.shard_load"))
    return patch


def install_http(tracer: Tracer) -> _Patch:
    """Wrap the facade's /search handler; the request id travels as the
    ``rid`` query parameter, which the facade ignores."""
    import riot_ray.httpserve as httpserve

    patch = _Patch()
    raw = httpserve.SearchHTTPServer._search

    def handle(self, p):
        sp = tracer.begin("httpserve.handle", rid=p.get("rid"))
        try:
            return raw(self, p)
        finally:
            tracer.end(sp)

    patch.set(httpserve.SearchHTTPServer, "_search", handle)
    return patch


def read_span_file(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_rid(spans: list[dict]) -> dict:
    """rid -> name -> [durations in seconds]."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for s in spans:
        out[s["rid"]][s["name"]].append(s["end"] - s["start"])
    return out


def write_trace(path: str, spans: list[dict], counts: dict, limit: int = 20000) -> None:
    """The trace file: spans (at most ``limit``; the first ones) + counts."""
    with open(path, "w") as f:
        json.dump({"n_spans": len(spans), "spans": spans[:limit], "counts": counts}, f)


def write_layers(spans: list, ops: list[dict]) -> dict:
    """Medians over traced write operations (``{"rid", "wall"}`` each: one
    ``IndexWriter.build`` or one ``add_docs``) of the stage self times, the
    rows and bytes ``TokenizeStage`` hands to the shard exchange, and the
    residual: wall time not spent inside any stage, i.e. Ray scheduling,
    the shuffles and serialization."""
    from .common import median

    per = by_rid(spans)
    rows = []
    for op in ops:
        tot = {name: sum(ds) for name, ds in per.get(op["rid"], {}).items()}
        prepare = tot.get("stages.prepare", 0.0) + tot.get("stages.assign", 0.0)
        stages = (prepare + tot.get("stages.postings", 0.0) + tot.get("stages.segments", 0.0)
                  + tot.get("build.termstats", 0.0))
        outs = [s for s in spans if s["rid"] == op["rid"] and s["name"] == "stages.postings"]
        rows.append({
            "prepare": prepare, "postings": tot.get("stages.postings", 0.0),
            "segments": tot.get("stages.segments", 0.0),
            "termstats": tot.get("build.termstats", 0.0),
            "residual": op["wall"] - stages,
            "rows_out": sum(s["rows_out"] for s in outs),
            "bytes_out": sum(s["bytes_out"] for s in outs),
        })
    if not rows:
        raise RuntimeError("no traced write operations")
    m = lambda k: median([r[k] for r in rows])  # noqa: E731
    return {
        "stages.prepare.self_s": (m("prepare"), "s"),
        "stages.postings.self_s": (m("postings"), "s"),
        "stages.postings.rows_out": (m("rows_out"), "count"),
        "stages.postings.bytes_out": (m("bytes_out"), "bytes"),
        "stages.segments.self_s": (m("segments"), "s"),
        "build.termstats_s": (m("termstats"), "s"),
        "build.ray_residual_s": (m("residual"), "s"),
    }


def codec_bytes_per_posting(index_dir: str) -> float:
    """Bytes of varbyte-coded doc-id gaps per posting over the whole index."""
    import pyarrow.compute as pc
    from riot_ray.store import glob_segments, read_any

    with open(os.path.join(index_dir, "stats.json")) as f:
        n_postings = json.load(f)["n_postings"]
    vb = sum(pc.sum(pc.binary_length(read_any(f, columns=["docs_vb"])["docs_vb"])).as_py()
             for f in glob_segments(os.path.join(index_dir, "segments", "shard=*"), "blocks"))
    return vb / n_postings


def full_build_layers(index_dir: str, stats: dict, content_bytes: int) -> dict:
    """The byte and count layers of one full ``IndexWriter.build``, which
    writes every part and shard."""
    from .common import dir_bytes

    return {
        "stages.segments.bytes_written": (dir_bytes(os.path.join(index_dir, "segments")), "bytes"),
        "codecs.bytes_per_posting": (codec_bytes_per_posting(index_dir), "bytes"),
        "write.parts_touched": (stats["num_parts"], "count"),
        "write.shards_rebuilt": (stats["num_shards"], "count"),
        "write.bytes_per_content_byte": (dir_bytes(index_dir) / content_bytes, "ratio"),
    }


def query_layers(spans: list) -> dict:
    """Per-request medians of the query layers (ms), per-query counts, the
    postings cache hit ratio and the median shard load time."""
    from .common import median

    per = by_rid(spans)
    cand = {}
    dec = {}
    calls = hits = 0
    for s in spans:
        if s["name"] == "query.shard_search":
            cand[s["rid"]] = cand.get(s["rid"], 0) + s.get("candidates", 0)
        elif s["name"] == "query.postings":
            dec[s["rid"]] = dec.get(s["rid"], 0) + s.get("decoded", 0)
            calls += 1
            hits += s.get("cache_hit", 0)
    reqs = [r for r, names in per.items() if r is not None and "engine.search" in names]
    if not reqs:
        raise RuntimeError("no traced requests")

    def ms(name):
        return 1e3 * median([sum(per[r].get(name, [0.0])) for r in reqs])

    out = {
        "tokenize.query_ms": (ms("tokenize.query"), "ms"),
        "engine.search_ms": (ms("engine.search"), "ms"),
        "query.shard_search_ms": (ms("query.shard_search"), "ms"),
        "query.postings_ms": (ms("query.postings"), "ms"),
        "query.rank_ms": (ms("query.rank"), "ms"),
        "query.merge_ms": (ms("query.merge"), "ms"),
        "query.postings_decoded": (float(np.mean([dec.get(r, 0) for r in reqs])), "count"),
        "query.candidates": (float(np.mean([cand.get(r, 0) for r in reqs])), "count"),
        "query.postings_cache_hit_ratio": (hits / max(calls, 1), "ratio"),
    }
    loads = [s["end"] - s["start"] for s in spans if s["name"] == "query.shard_load"]
    if not loads:
        raise RuntimeError("no traced shard loads")
    out["query.shard_load_ms"] = (1e3 * median(loads), "ms")
    return out


def http_self_ms(spans: list, rtt_by_rid: dict) -> float:
    """Median of client round trip minus ``engine.search``: the facade,
    JSON and loopback share of a request."""
    from .common import median

    per = by_rid(spans)
    return 1e3 * median([rtt - sum(per[r]["engine.search"])
                         for r, rtt in rtt_by_rid.items() if "engine.search" in per.get(r, {})])


def trace_path(args) -> str:
    """Where a traced run writes its spans: ``.perfbench_out/`` in the
    checkout (ignored by git)."""
    from .common import ROOT

    d = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, f"trace-{args.workload}-s{args.seed}.json")
