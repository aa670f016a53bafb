"""HTTP facade — wire-shape parity with riot's net/http layer
(/root/reference/net/http/http.go Search/AddIndex/DelIndex, dist.go WgDist)."""

import json
import urllib.parse
import urllib.request

import pytest

from riot_ray.engine import LocalSearcher
from riot_ray.httpserve import SearchHTTPServer


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as r:
        return json.loads(r.read().decode())


@pytest.fixture(scope="module")
def server(corpus_index):
    s = LocalSearcher(corpus_index["index_dir"], hydrate=True)
    srv = SearchHTTPServer(s, index_dir=corpus_index["index_dir"])
    base = srv.serve_background()
    yield base, srv
    srv.shutdown()


def test_search_shape_and_order(server, corpus_index):
    base, _ = server
    out = _get(f"{base}/search?query=parse+batch&maxOutputs=5")
    assert out["code"] == 0 and out["len"] == len(out["docs"]) <= 5
    assert {"id", "content", "score", "attri"} <= set(out["docs"][0])
    scores = [max(d["score"]) for d in out["docs"]]
    assert scores == sorted(scores, reverse=True)
    # parity with the in-process searcher
    from riot_ray.types import RankOpts, SearchReq

    s = LocalSearcher(corpus_index["index_dir"])
    resp = s.search(SearchReq(text="parse batch", rank_opts=RankOpts(max_outputs=5)))
    assert [d["id"] for d in out["docs"]] == [h.doc_id for h in resp.docs]


def test_search_post_form_and_offset(server):
    base, _ = server
    body = urllib.parse.urlencode({"query": "parse batch", "maxOutputs": 3,
                                   "outputOffset": 2}).encode()
    req = urllib.request.Request(f"{base}/search", data=body, method="POST")
    out = json.loads(urllib.request.urlopen(req, timeout=10).read().decode())
    full = _get(f"{base}/search?query=parse+batch&maxOutputs=5")
    assert [d["id"] for d in out["docs"]] == [d["id"] for d in full["docs"]][2:5]


def test_dist_merges_self_and_members(server):
    base, srv = server
    # member = this same node: dist must still dedupe nothing but merge+cut
    srv.dist_members = [base]
    out = _get(f"{base}/dist?query=parse&maxOutputs=4")
    assert out["len"] == len(out["docs"]) <= 4
    scores = [max(d["score"]) for d in out["docs"]]
    assert scores == sorted(scores, reverse=True)
    srv.dist_members = []


def test_dist_order_ts_wire_merge(server):
    """order=ts reproduces the reference wire order (net/http/dist.go:86-108):
    (attri.ts desc, id desc string) with the maxOutputs-1 truncation when
    more than one reply pooled past maxOutputs."""
    base, srv = server
    srv.dist_members = [base]  # self as member -> every doc arrives twice
    single = _get(f"{base}/search?query=parse&maxOutputs=4")
    out = _get(f"{base}/dist?query=parse&maxOutputs=4&order=ts")
    if len(single["docs"]) >= 2:
        # pool = 2x singles > maxOutputs=4 when >=3 singles; with exactly
        # 2 singles pool=4 == maxOutputs -> no cut
        pool = 2 * len(single["docs"])
        want = 3 if pool > 4 else pool
        assert out["len"] == want
    # ts defaults to 0 when the index stores no ts column -> pure id desc
    ids = [d["id"] for d in out["docs"]]
    ts = [int((d.get("attri") or {}).get("ts") or 0) for d in out["docs"]]
    assert ts == sorted(ts, reverse=True)
    for (t1, i1), (t2, i2) in zip(zip(ts, ids), list(zip(ts, ids))[1:]):
        assert t1 > t2 or (t1 == t2 and i1 >= i2)
    srv.dist_members = []


def test_status_and_unknown_route(server, corpus_index):
    base, _ = server
    st = _get(f"{base}/status")
    assert st["n_docs"] == corpus_index["stats"]["n_docs"]
    try:
        _get(f"{base}/nope")
        raise AssertionError("expected 404")
    except urllib.error.HTTPError as e:
        assert e.code == 404


def test_index_and_delete_roundtrip(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts
    from riot_ray.corpus import make_corpus

    src = str(tmp_path / "c.parquet")
    pq.write_table(make_corpus(40, seed=3), src)
    opts = EngineOpts(mode="code", num_parts=4, num_shards=2)
    idx = str(tmp_path / "idx")
    IndexWriter(idx, opts).build(src)
    srv = SearchHTTPServer(LocalSearcher(idx), index_dir=idx)
    base = srv.serve_background()
    try:
        out = _get(f"{base}/index?docid=web/new/doc@1&query=zebra+quokka+parse")
        assert out["n_added"] == 1
        # mutate endpoints reload the serving snapshot: the added doc is
        # searchable on the very next request, no searcher swap needed
        hits = _get(f"{base}/search?query=zebra+quokka")
        assert [d["id"] for d in hits["docs"]] == ["web/new/doc@1"]
        out = _get(f"{base}/delete?docid=web/new/doc@1")
        assert out["n_removed"] == 1
        hits = _get(f"{base}/search?query=zebra+quokka")
        assert hits["docs"] == []
    finally:
        srv.shutdown()


def test_search_phrase_param(ray_session, tmp_path):
    """phrase=true routes through the exact-phrase engine path."""
    import duckdb

    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts

    sf = "/root/testdata/sf0.001"
    opts = EngineOpts(mode="simple", id_cols=("doc_id",), content_col="text",
                      meta_cols=("lang",), num_parts=4, num_shards=2)
    idx = str(tmp_path / "index")
    IndexWriter(idx, opts).build(f"{sf}/documents.parquet")
    srv = SearchHTTPServer(LocalSearcher(idx, hydrate=True), index_dir=idx)
    base = srv.serve_background()
    try:
        out = _get(f"{base}/search?query=spark+data&phrase=true&maxOutputs=500")
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
        exp = con.execute(
            "SELECT count(*) FROM documents WHERE regexp_matches(lower(text),"
            " '(^|[^a-z0-9])spark[^a-z0-9]+data([^a-z0-9]|$)')"
        ).fetchone()[0]
        assert out["len"] == exp > 0
        plain = _get(f"{base}/search?query=spark+data&maxOutputs=500")
        assert out["len"] < plain["len"]  # phrase is stricter than AND
    finally:
        srv.shutdown()


def test_keepalive_persistent_connection(server):
    """HTTP/1.1 keep-alive: many sequential requests over ONE connection,
    each answered promptly (a Nagle/delayed-ACK stall would show up as
    ~40 ms per reply; budget generously below that but far above the
    normal ~2-3 ms)."""
    import http.client
    import json as _json
    import time

    base, srv = server
    conn = http.client.HTTPConnection(srv.host, srv.port, timeout=5)
    try:
        lat = []
        for i in range(20):
            t0 = time.time()
            conn.request("GET", "/search?query=parse+batch&maxOutputs=3")
            r = conn.getresponse()
            body = _json.loads(r.read())
            lat.append(time.time() - t0)
            assert r.version == 11 and body["code"] == 0
        # median across 20 calls on one socket: far below the 40 ms stall
        assert sorted(lat)[10] < 0.030
    finally:
        conn.close()


def test_search_facets_param(server, corpus_index):
    """/search?facets=lang,repo returns summed facet counts matching the
    in-process searcher; absent param omits the key entirely."""
    base, _ = server
    out = _get(f"{base}/search?query=parse+batch&maxOutputs=3&facets=lang,repo")
    assert "facets" in out and set(out["facets"]) == {"lang", "repo"}
    from riot_ray.types import RankOpts, SearchReq

    s = LocalSearcher(corpus_index["index_dir"])
    resp = s.search(SearchReq(text="parse batch", facets=("lang", "repo"),
                              rank_opts=RankOpts(max_outputs=3)))
    assert out["facets"] == resp.facets
    plain = _get(f"{base}/search?query=parse+batch&maxOutputs=3")
    assert "facets" not in plain


# ---- framing: every malformed or closing case ends loudly --------------- #
def _exchange(srv, data: bytes):
    """Send raw bytes on a fresh connection; return (status, headers, body
    JSON, closed) of the one reply, ``closed`` meaning the server ended the
    connection after it."""
    import http.client
    import socket

    with socket.create_connection((srv.host, srv.port), timeout=10) as s:
        s.sendall(data)
        r = http.client.HTTPResponse(s)
        r.begin()
        body = json.loads(r.read())
        return r.status, r.headers, body, s.recv(1) == b""


@pytest.mark.parametrize("request_bytes", [
    b"GARBAGE\r\n",
    b"GET /status HTTP/2\r\n",
    b"POST /search HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    b"POST /search HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
    b"POST /search HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n",
    b"POST /search HTTP/1.1\r\nContent-Length: 1\r\n\r\n\xff",
])
def test_malformed_request_is_400_json_and_closes(server, request_bytes):
    _, srv = server
    status, headers, body, closed = _exchange(srv, request_bytes)
    assert (status, body["code"], closed) == (400, 400, True)
    assert headers["Content-Type"].startswith("application/json")


@pytest.mark.parametrize("request_bytes", [
    b"GET /status HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    b"GET /status HTTP/1.0\r\n\r\n",
])
def test_close_requests_close_after_the_reply(server, corpus_index, request_bytes):
    _, srv = server
    status, _, body, closed = _exchange(srv, request_bytes)
    assert status == 200 and body["n_docs"] == corpus_index["stats"]["n_docs"]
    assert closed


def test_post_then_get_share_one_keepalive_connection(server):
    import http.client

    _, srv = server
    conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
    try:
        body = urllib.parse.urlencode({"query": "parse batch", "maxOutputs": 3})
        conn.request("POST", "/search", body=body,
                     headers={"Content-Type": "application/x-www-form-urlencoded"})
        r = conn.getresponse()
        posted = json.loads(r.read())
        sock = conn.sock
        conn.request("GET", "/search?query=parse+batch&maxOutputs=3")
        r = conn.getresponse()
        got = json.loads(r.read())
        assert conn.sock is sock is not None  # no reconnect in between
        assert posted["code"] == got["code"] == 0 and posted["len"] == 3
        assert [d["id"] for d in posted["docs"]] == [d["id"] for d in got["docs"]]
    finally:
        conn.close()


def test_oversized_request_line_and_header_block_are_refused(server):
    """64 KiB bounds the request line and the whole header block.  Neither
    request below ever ends its line or its headers: the reply proves the
    server stopped reading at the bound instead of waiting for more."""
    _, srv = server
    line = b"GET /search?query=" + b"a" * (65537 - 18)
    assert len(line) == 65537
    status, _, body, closed = _exchange(srv, line)
    assert (status, body["code"], closed) == (414, 414, True)
    head = b"GET /status HTTP/1.1\r\n"
    big = b"X-Pad: " + b"b" * 59993 + b"\r\n"
    tail = b"X-More: " + b"c" * (65537 - len(big) - 8)
    assert len(big + tail) == 65537
    status, _, body, closed = _exchange(srv, head + big + tail)
    assert (status, body["code"], closed) == (431, 431, True)


def test_unknown_route_and_handler_error_are_json(server, monkeypatch):
    import riot_ray.httpserve as httpserve

    _, srv = server
    status, _, body, closed = _exchange(srv, b"GET /nope HTTP/1.1\r\nHost: x\r\n"
                                             b"Connection: close\r\n\r\n")
    assert (status, body["code"], closed) == (404, 404, True)

    def boom(self, p):
        raise RuntimeError("kaput")

    monkeypatch.setattr(httpserve.SearchHTTPServer, "_search", boom)
    status, _, body, _ = _exchange(srv, b"GET /search?query=x HTTP/1.0\r\n\r\n")
    assert (status, body) == (500, {"code": 500, "error": "kaput"})


# ---- reply bytes ---------------------------------------------------------- #
def test_reply_bytes_equal_the_dict_shape(server, monkeypatch):
    """``/search`` and ``/status`` bodies are ``json.dumps`` of the
    facade's dict shape, key order included, with the clock pinned."""
    import http.client
    import types

    import riot_ray.httpserve as httpserve
    from riot_ray.types import RankOpts, SearchReq

    _, srv = server
    monkeypatch.setattr(httpserve, "time", types.SimpleNamespace(time=lambda: 1700000000.7))
    se = srv.searcher

    def want_search(query, offset=0, facets=()):
        resp = se.search(SearchReq(text=query, facets=facets,
                                   rank_opts=RankOpts(output_offset=offset, max_outputs=5)))
        out = {"code": 0, "len": len(resp.docs), "timestamp": 1700000000,
               "docs": [{"id": h.doc_id,
                         "content": h.content if h.content is not None else "",
                         "score": list(h.scores) if h.scores else [h.bm25],
                         "attri": h.fields or {}} for h in resp.docs]}
        if resp.facets is not None:
            out["facets"] = resp.facets
        return json.dumps(out).encode()

    cases = [
        ("/search?query=parse+batch&maxOutputs=5", want_search("parse batch")),
        ("/search?query=parse+batch&maxOutputs=5&facets=lang",
         want_search("parse batch", facets=("lang",))),
        ("/search?query=parse&maxOutputs=5&outputOffset=5", want_search("parse", offset=5)),
        ("/search?query=parse+zzznothere&maxOutputs=5", want_search("parse zzznothere")),
    ]
    st = se.stats
    cases.append(("/status", json.dumps({
        "code": 0, "n_docs": st.get("n_docs"), "n_postings": st.get("n_postings"),
        "num_shards": st.get("num_shards"), "tombstones": se.n_tomb}).encode()))
    conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
    try:
        for path, want in cases:
            conn.request("GET", path)
            got = conn.getresponse().read()
            assert got == want, path
            if path.startswith("/search"):
                assert got.startswith(b'{"code": 0,')
    finally:
        conn.close()
    assert b'"len": 5' in cases[0][1] and b'"facets"' in cases[1][1]
    assert b'"len": 0' in cases[3][1]
