"""Hand-computed checks of the benchmark's oracle.

    python3 -m pytest perfbench/test_oracle.py     # or
    python3 perfbench/test_oracle.py
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import oracle  # noqa: E402


def test_expand_rules():
    assert oracle.expand("fooBar") == ["foobar", "foo", "bar"]
    assert oracle.expand("HTTPServer2Go") == ["httpserver2go", "http", "server", "2", "go"]
    assert oracle.expand("parse_json_value") == ["parse_json_value", "parse", "json", "value"]
    assert oracle.expand("ABc") == ["abc", "a", "bc"]
    # one part: no sub-tokens; repeated parts appear once
    assert oracle.expand("__init__") == ["__init__"]
    assert oracle.expand("Get_get") == ["get_get", "get"]
    assert oracle.expand("x9") == ["x9", "x", "9"]


def test_tokens_and_lengths():
    tok = oracle.Tokenizer()
    assert tok.tokens("a.fooBar(baz) + 1") == ["a", "foobar", "foo", "bar", "baz", "1"]
    counts, n = tok.counts("fooBar foo")
    assert dict(counts) == {"foobar": 1, "foo": 2, "bar": 1} and n == 4


def test_sha256():
    assert oracle.sha256_hex("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def _index():
    ix = oracle.Index()
    ix.add("A", "fooBar foo", "py")   # foobar 1, foo 2, bar 1; length 4
    ix.add("B", "foo baz", "go")      # foo 1, baz 1; length 2
    return ix                         # N = 2, avgdl = 3


def test_bm25_by_hand():
    ix = _index()
    # foo: df 2 -> idf log2(2/2 + 1) = 1
    # A: norm 2 * (0.25 + 0.75 * 4 / 3) = 2.5; 1 * 2 * 3 / (2 + 2.5) = 4/3
    # B: norm 2 * (0.25 + 0.75 * 2 / 3) = 1.5; 1 * 1 * 3 / (1 + 1.5) = 1.2
    top, n, facets = ix.search("foo", 10, facet_lang=True)
    assert [d for d, _ in top] == ["A", "B"] and n == 2
    assert abs(top[0][1] - 4 / 3) < 1e-6 and abs(top[1][1] - 1.2) < 1e-6
    assert facets == {"py": 1, "go": 1}
    # bar: df 1 -> idf log2(3) = 1.5849625; A: 1.5849625 * 3 / 3.5
    top, n, _ = ix.search("bar", 10)
    assert n == 1 and abs(top[0][1] - 1.5849625007 * 3 / 3.5) < 1e-6
    # a repeated query token counts twice; AND over distinct tokens
    top, _, _ = ix.search("foo foo", 10)
    assert abs(top[0][1] - 8 / 3) < 1e-6
    assert ix.search("foo baz", 10)[1] == 1
    assert ix.search("nope foo", 10) == ([], 0, {})


def test_ties_offset_and_ghosts():
    ix = _index()
    ix.add("D", "qux", "c")
    ix.add("C", "qux", "c")
    top, _, _ = ix.search("qux", 10)
    assert [d for d, _ in top] == ["C", "D"] and top[0][1] == top[1][1]
    assert [d for d, _ in ix.search("qux", 1, offset=1)[0]] == ["D"]
    # a tombstoned doc keeps counting in df (N = 3, df(foo) = 2) until
    # compaction; N and avgdl drop it at once
    ix.drop("A", ghost=True)
    assert ix.n_live == 3 and ix.df("foo") == 2 and ix.total_len == 4
    top, _, _ = ix.search("foo", 10)
    # idf log2(3/2 + 1); B: norm 2 * (0.25 + 0.75 * 2 / (4/3)) = 2.75
    idf = 1.3219280949
    assert [d for d, _ in top] == ["B"] and abs(top[0][1] - idf * 3 / 3.75) < 1e-6
    ix.clear_ghosts()
    assert ix.df("foo") == 1
    # keep-last: re-adding a doc_id replaces it
    ix.add("B", "baz", "go")
    assert ix.search("foo", 10)[1] == 0 and ix.df("foo") == 0


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
