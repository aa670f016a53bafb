"""Dictionary tokenizer (M2) — riot's gse path rebuilt.

Conformance fixtures are the reference's OWN dictionaries and goldens:
/root/reference/testdata/test_dict{,_jp}.txt driven through the scenarios of
/root/reference/engine_test.go (TestEngineIndexDoc:36-60, TestSearchJp:562-597,
TestSearchGse:617-661) — token choice, byte-offset snippet locations and
1/(proximity+1) scores pinned to int(score*1000).

Every test also runs over the in-repo fixture dictionaries
(``tests/fixtures/dict_{zh,ja}.txt``, FIXTURES.md F10), under which the same
goldens follow by hand from the DictSegmenter DP; the reference runs are
skipped where the reference checkout is absent."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from riot_ray.build import IndexWriter
from riot_ray.config import LOCS_INDEX, EngineOpts
from riot_ray.engine import LocalSearcher
from riot_ray.tokenize import DictSegmenter
from riot_ray.types import RankOpts, SearchReq

CN_DICT = "/root/reference/testdata/test_dict.txt"
JP_DICT = "/root/reference/testdata/test_dict_jp.txt"
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
DICTS = {
    "fixture": (os.path.join(FIXTURE_DIR, "dict_zh.txt"),
                os.path.join(FIXTURE_DIR, "dict_ja.txt")),
    "reference": (CN_DICT, JP_DICT),
}
SOURCES = ["fixture", pytest.param("reference", marks=pytest.mark.skipif(
    not os.path.exists(CN_DICT), reason="reference dictionaries absent"))]


@pytest.fixture(params=SOURCES)
def dicts(request):
    """(Chinese, Japanese) dictionary paths."""
    return DICTS[request.param]


# --------------------------------------------------------------------------- #
# segmenter unit level
# --------------------------------------------------------------------------- #
def test_segmenter_max_probability_dp(dicts):
    seg = DictSegmenter(dicts[0])
    toks = seg.segment("有七十亿人口人口")
    assert [t for t, _ in toks] == ["有", "七十亿", "人口", "人口"]
    # byte offsets: 有=3B, 七十亿=9B, 人口=6B each
    assert [p for _, p in toks] == [0, 3, 12, 18]
    # 七十亿 (freq 4) must beat 七十+亿 and 七+十+亿; 人口 beats 人+口
    assert [t for t, _ in seg.segment("七十亿")] == ["七十亿"]
    assert [t for t, _ in seg.segment("人口")] == ["人口"]


def test_fixture_dict_dp_weighs_frequencies():
    """Fixture dictionary (total frequency T = 117): a word's cost is
    log2(T / freq).  在路上 -> 在|路上 costs log2(T^2 / (30*6)), below
    在路|上 (T^2 / 12) and 在|路|上 (T^3 / 1800); but 在路 alone (freq 1)
    loses to 在|路 because 30*5 > T."""
    seg = DictSegmenter(DICTS["fixture"][0])
    assert seg.segment("在路上") == [("在", 0), ("路上", 3)]
    assert seg.segment("在路") == [("在", 0), ("路", 3)]


def test_segmenter_latin_runs_and_positions(dicts):
    seg = DictSegmenter(dicts[0])
    toks = seg.segment("The world, 有七十亿人口人口")
    assert ("the", 0) in toks and ("world", 4) in toks
    assert ("人口", 23) in toks and ("人口", 29) in toks
    # comma is an unknown single (riot indexes it when no stop file is set)
    assert (",", 9) in toks


def test_segmenter_inline_entries_and_unknowns():
    # latin runs are atomic (gse's alpha handling) — DP applies to the rest
    seg = DictSegmenter(dict_entries=(("αβ", 10), ("αβγ", 100), ("γ", 5)))
    # αβγ (one frequent word) beats αβ+γ
    assert [t for t, _ in seg.segment("αβγ")] == ["αβγ"]
    # freq 1 whole word vs two freq-100 words: the split wins
    seg2 = DictSegmenter(dict_entries=(("αβ", 100), ("γ", 100), ("αβγ", 1)))
    assert [t for t, _ in seg2.segment("αβγ")] == ["αβ", "γ"]
    # unknown chars fall out as singles; latin runs atomic + lowercased
    seg3 = DictSegmenter(dict_entries=(("αβ", 10),))
    assert [t for t, _ in seg3.segment("Foo αβδ")] == ["foo", "αβ", "δ"]


# --------------------------------------------------------------------------- #
# engine level — the reference's AddDocs corpus + goldens
# --------------------------------------------------------------------------- #
def rank_by_token_proximity(hit, fields):
    """/root/reference/test_utils.go:52-60 RankByTokenProximity."""
    if hit.token_proximity < 0:
        return ()
    return (1.0 / (hit.token_proximity + 1),)


ADD_DOCS = [
    ("1", "The world, 有七十亿人口人口"),
    ("2", "The world, 人口"),
    ("3", "The world"),
    ("4", "有人口"),
    ("5", "The world, 七十亿人口"),
    ("6", "有七十亿人口"),
]


def _build_dict_index(tmp_path, name, rows, dict_path):
    table = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "content": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    src = os.path.join(str(tmp_path), f"{name}.parquet")
    pq.write_table(table, src)
    opts = EngineOpts(
        mode="dict",
        dict_path=dict_path,
        index_type=LOCS_INDEX,
        id_cols=("doc_id",),
        content_col="content",
        meta_cols=(),
        num_parts=2,
        num_shards=2,
    )
    idx = os.path.join(str(tmp_path), f"{name}_index")
    IndexWriter(idx, opts).build(src)
    return LocalSearcher(idx)


@pytest.fixture(scope="module", params=SOURCES)
def cn_engine(request, ray_session, tmp_path_factory):
    return _build_dict_index(
        tmp_path_factory.mktemp("dict_cn"), "cn", ADD_DOCS, DICTS[request.param][0]
    )


def test_engine_index_doc_goldens(cn_engine):
    """TestEngineIndexDoc (/root/reference/engine_test.go:36-60): query
    'World人口' -> tokens [world, 人口]; three hits with pinned proximity
    scores and byte-offset snippet locations."""
    resp = cn_engine.search(
        SearchReq(
            text="World人口",
            rank_opts=RankOpts(
                max_outputs=10, scoring_criteria=rank_by_token_proximity
            ),
        )
    )
    assert list(resp.tokens) == ["world", "人口"]
    docs = resp.docs
    assert [h.doc_id for h in docs] == ["2", "5", "1"]
    assert [int(h.scores[0] * 1000) for h in docs] == [333, 83, 66]
    assert list(docs[0].token_snippet_locs) == [4, 11]
    assert list(docs[1].token_snippet_locs) == [4, 20]
    assert list(docs[2].token_snippet_locs) == [4, 23]


def test_search_jp_goldens(ray_session, tmp_path_factory, dicts):
    """TestSearchJp (engine_test.go:562-597): doc 7 only, score 1000,
    snippet [0, 15]."""
    rows = ADD_DOCS + [("7", "こんにちは世界, こんにちは")]
    s = _build_dict_index(tmp_path_factory.mktemp("dict_jp"), "jp", rows, dicts[1])
    resp = s.search(
        SearchReq(
            text="こんにちは世界",
            doc_ids=frozenset({"5", "1", "7"}),
            rank_opts=RankOpts(
                max_outputs=10,
                scoring_criteria=rank_by_token_proximity,
                reverse_order=True,
            ),
        )
    )
    assert list(resp.tokens) == ["こんにちは", "世界"]
    assert [h.doc_id for h in resp.docs] == ["7"]
    assert int(resp.docs[0].scores[0] * 1000) == 1000
    assert list(resp.docs[0].token_snippet_locs) == [0, 15]


def test_search_gse_goldens(ray_session, tmp_path_factory, dicts):
    """TestSearchGse (engine_test.go:617-661): external tokens MERGE with
    dict segmentation (Using=0); reverse order puts doc 8 (score 142,
    snippet [10, 19]) before doc 7 (1000, [0, 15])."""
    tok_type = pa.list_(
        pa.struct(
            [
                ("text", pa.string()),
                ("locations", pa.list_(pa.int32())),
                ("frequency", pa.float32()),
            ]
        )
    )
    rows = ADD_DOCS + [
        ("7", "こんにちは世界, こんにちは"),
        ("8", "Hello world, 你好世界!"),
    ]
    table = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "content": pa.array([r[1] for r in rows], pa.string()),
            "tokens": pa.array(
                [None] * 7
                + [[{"text": "こんにちは", "locations": [10, 20], "frequency": None}]],
                tok_type,
            ),
        }
    )
    tmp = tmp_path_factory.mktemp("dict_gse")
    src = os.path.join(str(tmp), "gse.parquet")
    pq.write_table(table, src)
    opts = EngineOpts(
        mode="dict",
        dict_path=dicts[1],
        index_type=LOCS_INDEX,
        id_cols=("doc_id",),
        content_col="content",
        meta_cols=(),
        tokens_col="tokens",
        num_parts=2,
        num_shards=2,
    )
    idx = os.path.join(str(tmp), "gse_index")
    IndexWriter(idx, opts).build(src)
    s = LocalSearcher(idx)
    resp = s.search(
        SearchReq(
            text="こんにちは世界",
            doc_ids=frozenset({"5", "1", "6", "7", "8"}),
            rank_opts=RankOpts(
                max_outputs=10,
                scoring_criteria=rank_by_token_proximity,
                reverse_order=True,
            ),
        )
    )
    assert list(resp.tokens) == ["こんにちは", "世界"]
    assert [h.doc_id for h in resp.docs] == ["8", "7"]
    assert [int(h.scores[0] * 1000) for h in resp.docs] == [142, 1000]
    assert list(resp.docs[0].token_snippet_locs) == [10, 19]
    assert list(resp.docs[1].token_snippet_locs) == [0, 15]
