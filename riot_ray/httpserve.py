"""HTTP serving facade — the rebuild of riot's ``net/http`` layer.

Mirrors the reference's request/response shapes
(/root/reference/net/http/http.go:53-128, search.go:21-36):

* ``GET/POST /search`` — params ``query``, ``outputOffset``, ``maxOutputs``
  (+ passthrough ``userid``/``time``); responds
  ``{"code": 0, "len": N, "timestamp": unix, "docs": [{"id", "content",
  "score", "attri"}]}``.
* ``GET/POST /dist``  — scatter the same request to member node URLs
  (``/search`` on each), merge, truncate to maxOutputs (dist.go:52-115).
* ``GET/POST /index``  — add one document (http.go:131-166 AddIndex):
  params ``docid``, ``query``; routed through riot_ray.updates.add_docs.
* ``GET /delete``      — tombstone one docid (http.go:169-175 DelIndex).
* ``GET /status``      — engine stats (n_docs, tombstones, shards).

The wire is a small stdlib HTTP/1.1 loop (``socketserver``, one thread per
connection): keep-alive, Content-Length framing, JSON errors, one
``sendall`` per reply.  With a fixed reply it answers one keep-alive
loopback client in 0.18 ms per round trip, where ``http.server`` took
0.30 ms (one CPU).  etcd/grpc registration (net/grpc, net/cli) is out of
scope; Ray's actor naming covers member discovery in a cluster.

Searcher choice (per-call latency vs index size):

* one-query-at-a-time callers should serve over ``LocalSearcher`` (the
  ``job serve`` default): the index loads once in the server process and
  each request runs the kernel directly — no Ray RPC, no driver-side
  result serialization.  ``ReplicatedSearcher`` is the multi-process
  variant when one process's cores aren't enough.
* ``ActorSearcher`` (``--actors N``) is for indexes too big for one
  process: each call fans out one RPC per shard actor (~5 ms p50 at 8
  actors) — prefer its batched ``search_many`` for throughput work.
"""

from __future__ import annotations

import contextlib
import json
import socketserver
import threading
import time
import urllib.parse
import urllib.request
from http import HTTPStatus

from .types import RankOpts, SearchReq

# http.server's limit: a longer request line (414) or header block (431) is
# refused without reading past it
_MAX_LINE = 65536
# path -> (handler method, mutates the index); looked up per request, so a
# handler patched on the class after construction still serves
_ROUTES = {"/search": ("_search", False), "/dist": ("_dist", False),
           "/status": ("_status", False), "/index": ("_add_index", True),
           "/delete": ("_delete", True)}


class _RWLock:
    """Minimal reader-writer lock: /search requests read shared; /index
    and /delete mutate exclusively (they reload the searcher IN PLACE —
    connections are served concurrently, and an un-guarded reload would
    let a concurrent search read torn searcher state)."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = self._writers_waiting = 0
        self._writer = False

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            # writer priority: new readers queue behind a WAITING writer,
            # or sustained search traffic would starve /index //delete
            self._cond.wait_for(lambda: not (self._writer or self._writers_waiting))
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                self._cond.wait_for(lambda: not (self._writer or self._readers))
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


def _doc_payload(hit) -> dict:
    return {"id": hit.doc_id, "content": hit.content if hit.content is not None else "",
            "score": list(hit.scores) if hit.scores else [hit.bm25],
            "attri": hit.fields or {}}


def _docs_reply(docs: list, facets: dict | None) -> dict:
    out = {"code": 0, "len": len(docs), "timestamp": int(time.time()), "docs": docs}
    if facets is not None:
        out["facets"] = facets
    return out


def _error(code: int, reason: str) -> tuple[int, bytes]:
    return code, json.dumps({"code": code, "error": reason}).encode()


class _Unframed(Exception):
    """A request that cannot be framed: answered with ``(status, error)``
    as JSON, then the connection closes."""


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True  # idle keep-alive connections never block exit


class _Handler(socketserver.StreamRequestHandler):
    """One connection, one thread: HTTP/1.1 requests answered in order
    until the client closes or asks to close, or sends a request that
    cannot be framed.  Every reply carries Content-Length and goes out as
    ONE ``sendall``."""

    # Nagle + delayed-ACK stalls each reply ~40 ms on a kept-alive socket
    disable_nagle_algorithm = True

    def handle(self):
        keep = True
        while keep:
            try:
                req = self._read()
                if req is None:  # client closed between requests
                    return
                path, p, keep = req
                code, body = self.server.app._dispatch(path, p)
            except _Unframed as e:
                (code, body), keep = _error(*e.args), False
            close = "" if keep else "Connection: close\r\n"
            self.connection.sendall(
                (f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n"
                 "Content-Type: application/json;charset=utf-8\r\n"
                 f"Content-Length: {len(body)}\r\n{close}\r\n").encode() + body)

    def _read(self):
        """``(path, params, keep_alive)`` of the next request, or None at
        end of stream."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            return None
        if len(line) > _MAX_LINE:
            raise _Unframed(414, "request line too long")
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise _Unframed(400, "malformed request line")
        method, target, version = parts
        headers, budget = {}, _MAX_LINE
        while True:
            h = self.rfile.readline(budget + 1)
            budget -= len(h)
            if budget < 0:
                raise _Unframed(431, "request header block too long")
            if not h:
                return None
            if h in (b"\r\n", b"\n"):
                break
            k, _, v = h.decode("latin-1").partition(":")
            headers[k.strip().lower()] = v.strip()
        conn = headers.get("connection", "").lower()
        keep = conn != "close" if version == "HTTP/1.1" else conn == "keep-alive"
        url = urllib.parse.urlsplit(target)
        query = url.query
        if method == "POST":
            n = headers.get("content-length") or "0"
            if not (n.isascii() and n.isdigit()):
                raise _Unframed(400, "bad Content-Length")
            try:
                query = self.rfile.read(int(n)).decode()
            except UnicodeDecodeError:
                raise _Unframed(400, "body is not UTF-8") from None
        elif method != "GET":
            raise _Unframed(501, f"unsupported method {method}")
        return url.path, {k: v[0] for k, v in urllib.parse.parse_qs(query).items()}, keep


class SearchHTTPServer:
    """Thread-pooled HTTP endpoint over any searcher (Local/Actor/Replicated).

    ``dist_members``: other nodes' base URLs for /dist scatter-gather
    (analog of com.Config.Url, /root/reference/net/http/dist.go:77-84)."""

    def __init__(self, searcher, host: str = "127.0.0.1", port: int = 0,
                 default_max_outputs: int = 10, dist_members: list[str] | None = None,
                 index_dir: str | None = None, dist_timeout_s: float = 1.0):
        self.searcher = searcher
        self.default_max_outputs = default_max_outputs
        self.dist_members = list(dist_members or [])
        self.index_dir = index_dir or getattr(searcher, "index_dir", None)
        self.dist_timeout_s = dist_timeout_s  # reference: 1000ms client timeout
        self._lock = _RWLock()          # searcher snapshot: readers vs reload
        self._mut_lock = threading.Lock()  # serializes /index //delete jobs
        self._httpd = _Server((host, port), _Handler)
        self._httpd.app = self
        self.host, self.port = self._httpd.server_address

    def _dispatch(self, path: str, p: dict) -> tuple[int, bytes]:
        """``(status, JSON body)`` of one request."""
        route = _ROUTES.get(path)
        if route is None:
            return _error(404, "unknown route")
        name, mutates = route
        # reads take the shared lock only around the local searcher touch
        # (not across /dist member calls); mutations serialize on a mutex
        # and take the exclusive lock only around the snapshot refresh, so
        # searches stay live during the (seconds-long) indexing job itself
        try:
            with self._mut_lock if mutates else contextlib.nullcontext():
                return 200, json.dumps(getattr(self, name)(p)).encode()
        except Exception as e:  # wire errors as JSON, like a service
            return _error(500, str(e))

    # ---- handlers -------------------------------------------------------- #
    def _search_docs(self, p: dict) -> tuple[list[dict], dict | None]:
        req = SearchReq(
            text=p.get("query") or "",
            phrase=str(p.get("phrase") or "").lower() in ("1", "true", "yes"),
            facets=tuple(f.strip() for f in (p.get("facets") or "").split(",")
                         if f.strip()),
            rank_opts=RankOpts(
                output_offset=int(p.get("outputOffset") or 0),
                max_outputs=int(p.get("maxOutputs") or 0) or self.default_max_outputs))
        with self._lock.read():
            resp = self.searcher.search(req)
        return [_doc_payload(h) for h in resp.docs], resp.facets

    def _search(self, p: dict) -> dict:
        return _docs_reply(*self._search_docs(p))

    def _dist(self, p: dict) -> dict:
        """Scatter to members (plus this node), merge, truncate.  By
        default in the engine's (score desc, id asc) order, cut to
        maxOutputs; ``order=ts`` keeps the reference WIRE order
        (/root/reference/net/http/dist.go:86-108): (attri.ts desc, id desc
        as string), cut to maxOutputs-1 when more than one reply pooled
        past maxOutputs — the gRPC path's `end := maxOuts - 1`."""
        max_outputs = int(p.get("maxOutputs") or 0) or self.default_max_outputs
        docs, facets = self._search_docs(p)
        replies = 1
        qs = urllib.parse.urlencode({**p, "maxOutputs": str(max_outputs)})
        from .engine import merge_facets

        for base in self.dist_members:
            try:
                with urllib.request.urlopen(f"{base}/search?{qs}",
                                            timeout=self.dist_timeout_s) as r:
                    reply = json.loads(r.read().decode())
                    docs.extend(reply.get("docs", []))
                    facets = merge_facets(facets, reply.get("facets"))
                    replies += 1
            except Exception:
                continue  # member down: partial results (dist.go:40-44)
        if str(p.get("order") or "").lower() == "ts":
            docs.sort(key=lambda d: d["id"], reverse=True)
            docs.sort(key=lambda d: int((d.get("attri") or {}).get("ts") or 0), reverse=True)
            if replies > 1 and len(docs) > max_outputs:
                docs = docs[: max_outputs - 1]
        else:
            docs.sort(key=lambda d: (-max(d["score"]) if d["score"] else 0.0, d["id"]))
            docs = docs[:max_outputs]
        return _docs_reply(docs, facets)  # facet counts summed over nodes

    def _add_index(self, p: dict) -> dict:
        if not self.index_dir:
            raise RuntimeError("index_dir unknown: pass index_dir= to enable /index")
        import pyarrow as pa
        import ray.data as rd

        from .build import load_stats
        from .config import EngineOpts
        from .updates import add_docs

        opts = EngineOpts.from_json_dict(load_stats(self.index_dir)["opts"])
        docid = p.get("docid") or ""
        # invert derive_doc_id's "{c0}/{c1}@{c2}" composition for multi-col ids
        if len(opts.id_cols) == 1:
            id_vals = [docid]
        else:
            head, _, commit = docid.rpartition("@")
            id_vals = head.split("/", len(opts.id_cols) - 2) + [commit]
            if len(id_vals) != len(opts.id_cols):
                raise RuntimeError(f"docid {docid!r} does not match the id scheme "
                                   f"{'/'.join(opts.id_cols[:-1])}@{opts.id_cols[-1]}")
        row = pa.table({**{c: pa.array([v], pa.string()) for c, v in zip(opts.id_cols, id_vals)},
                        opts.content_col: pa.array([p.get("query") or ""], pa.string()),
                        **{c: pa.array([""], pa.string()) for c in opts.meta_cols}})
        out = add_docs(self.index_dir, rd.from_arrow(row))
        if out["n_added"] or out.get("n_replaced"):
            self._refresh_searcher()  # indexed docs are immediately searchable
        return {"code": 0, "timestamp": int(time.time()), "docs": None,
                "n_added": out["n_added"], "n_replaced": out["n_replaced"]}

    def _delete(self, p: dict) -> dict:
        if not self.index_dir:
            raise RuntimeError("index_dir unknown: pass index_dir= to enable /delete")
        from .updates import remove_docs

        out = remove_docs(self.index_dir, [p.get("docid") or ""])
        if out["n_removed"]:  # no-op delete leaves the snapshot current
            self._refresh_searcher()
        return {"code": 0, "timestamp": int(time.time()), "n_removed": out["n_removed"]}

    def _refresh_searcher(self):
        """After a mutate endpoint: advance the serving snapshot so /search
        reflects the change immediately (riot's engine is always live; our
        searchers reload explicitly).  Holds the exclusive lock only for
        the reload itself."""
        reload_fn = getattr(self.searcher, "reload", None)
        if reload_fn is not None:
            with self._lock.write():
                reload_fn()

    def _status(self, _p=None) -> dict:
        with self._lock.read():
            st = getattr(self.searcher, "stats", {})
            return {"code": 0, "n_docs": st.get("n_docs"), "n_postings": st.get("n_postings"),
                    "num_shards": st.get("num_shards"),
                    "tombstones": getattr(self.searcher, "n_tomb", 0)}

    # ---- lifecycle ------------------------------------------------------- #
    def serve_background(self):
        """Start serving on a daemon thread; returns the base URL."""
        threading.Thread(target=self._httpd.serve_forever, daemon=True).start()
        return f"http://{self.host}:{self.port}"

    def serve_forever(self):
        self._httpd.serve_forever()

    def shutdown(self):
        self._httpd.shutdown()
        self._httpd.server_close()
