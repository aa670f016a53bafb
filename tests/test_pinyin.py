"""Pinyin expansion (M10) — riot's PinYin option rebuilt.

Conformance goldens come from the reference's own tests over
``text2 = "在路上, in the way"`` with GseDict=test_dict.txt:

* TestDocPinYin (/root/reference/riot_test.go:254-318): len(PinYin(text2))
  == 46; indexing two docs with PinYin=true then searching "zl" with a
  {5,10,11} allowlist finds exactly 2 docs and 1 query token.
* TestForSplitData (/root/reference/riot_test.go:320-333):
  ForSplitData(PinYin(text2)) -> 81 distinct tokens, numTokens 92.

Every test also runs over the in-repo fixture dictionary
(``tests/fixtures/dict_zh.txt``, FIXTURES.md F10), which has 路上 as a word:
its goldens, derived there by hand, differ where the segmentation does.
The reference runs are skipped where the reference checkout is absent.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from riot_ray.build import IndexWriter
from riot_ray.config import EngineOpts
from riot_ray.engine import LocalSearcher
from riot_ray.pinyin import PinyinExpander, lazy_convert
from riot_ray.tokenize import DictSegmenter, Tokenizer
from riot_ray.types import RankOpts, SearchReq

CN_DICT = "/root/reference/testdata/test_dict.txt"
TEXT2 = "在路上, in the way"
LATIN = [",", " ", "in", " ", "the", " ", "way"]
# per dictionary: its path, gse Cut of TEXT2, len(PinYin(TEXT2)) and
# ForSplitData's (distinct tokens, numTokens) over that expansion
GOLDENS = {
    "fixture": dict(
        path=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "fixtures", "dict_zh.txt"),
        cut=["在", "路上"] + LATIN, n=45, split=(81, 90)),
    "reference": dict(path=CN_DICT, cut=["在", "路", "上"] + LATIN, n=46,
                      split=(81, 92)),
}
SOURCES = ["fixture", pytest.param("reference", marks=pytest.mark.skipif(
    not os.path.exists(CN_DICT), reason="reference dictionaries absent"))]


@pytest.fixture(params=SOURCES)
def golden(request):
    return GOLDENS[request.param]


def _expander(golden, stop=frozenset()):
    return PinyinExpander(segmenter=DictSegmenter(golden["path"]), stop=stop)


def test_lazy_convert_drops_unknown():
    assert lazy_convert(TEXT2, {"在": "zai", "路": "lu", "上": "shang"}) == [
        "zai", "lu", "shang"
    ]


def test_cut_emits_all_pieces(golden):
    # gse Cut analog: non-latin DP pieces + latin runs + whitespace runs
    assert DictSegmenter(golden["path"]).cut(TEXT2) == golden["cut"]


def test_expand_golden(golden):
    """Two entries per character of TEXT2 (the char and the prefix ending
    there: 2 * 15), the Cut pieces, then zai z zailu zl zailushang zls."""
    arr = _expander(golden).expand(TEXT2)
    assert len(arr) == golden["n"]  # riot_test.go:264 tt.Expect(t, "46", ...)
    assert arr[30:] == golden["cut"] + ["zai", "z", "zailu", "zl", "zailushang", "zls"]
    # spot the structure: char prefixes, segments, syllable + abbr prefixes
    assert arr[0:2] == ["在", "在"]
    assert "在路上" in arr
    for t in ("zai", "zailu", "zailushang", "z", "zl", "zls"):
        assert t in arr


def test_expand_stop_filter(golden):
    arr = _expander(golden, stop={"在", "z"}).expand(TEXT2)
    assert "在" not in arr and "z" not in arr
    # dropped: the char 在, the prefix 在, the Cut piece 在 and z
    assert len(arr) == golden["n"] - 4
    # prefixes containing the stopped char still emit (riot checks each
    # emission independently)
    assert "在路" in arr and "zl" in arr


def test_for_split_data_pinyin_goldens(golden):
    """riot_test.go:329-332: 81 distinct tokens, numTokens 92.  With no
    empty or stopped entry numTokens is 2 * len(expansion); the distinct
    count is the expansion's distinct entries plus its running
    concatenations, all distinct and all but the first ("在") new."""
    arr = _expander(golden).expand(TEXT2)
    tok = Tokenizer(EngineOpts(mode="space"))
    tokens_map, num = tok._for_split_data(arr)
    assert (len(tokens_map), num) == golden["split"]


def test_merge_overwrites_locations(golden):
    ex = _expander(golden)
    tm = {"zl": [5, 9], "other": [1]}
    n = ex.merge_into(tm, TEXT2)
    assert n == golden["n"]
    assert tm["zl"] == [ex.expand(TEXT2).index("zl")]
    assert tm["other"] == [1]  # untouched: not in the expansion


@pytest.fixture(scope="module", params=SOURCES)
def py_engine(request, ray_session, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pinyin")
    rows = [("5", "unrelated latin text"), ("10", TEXT2), ("11", TEXT2)]
    table = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "content": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    src = os.path.join(str(tmp), "docs.parquet")
    pq.write_table(table, src)
    opts = EngineOpts(
        mode="dict",
        dict_path=GOLDENS[request.param]["path"],
        pinyin=True,
        id_cols=("doc_id",),
        content_col="content",
        meta_cols=(),
        num_parts=2,
        num_shards=2,
    )
    idx = os.path.join(str(tmp), "index")
    IndexWriter(idx, opts).build(src)
    return LocalSearcher(idx)


def test_doc_pinyin_search_zl(py_engine):
    """TestDocPinYin search path: 'zl' with allowlist {5,10,11} -> 2 docs,
    1 token (riot_test.go:290-297)."""
    resp = py_engine.search(
        SearchReq(
            text="zl",
            doc_ids={"5", "10", "11"},
            rank_opts=RankOpts(max_outputs=10),
        )
    )
    assert len(resp.tokens) == 1
    assert sorted(h.doc_id for h in resp.docs) == ["10", "11"]
    assert resp.num_docs == 2


def test_pinyin_abbreviation_and_syllables_indexed(py_engine):
    for q in ("zls", "zailushang", "zai"):
        resp = py_engine.search(
            SearchReq(text=q, rank_opts=RankOpts(max_outputs=10))
        )
        assert sorted(h.doc_id for h in resp.docs) == ["10", "11"], q
    # doc 5 has none of the pinyin tokens
    resp = py_engine.search(
        SearchReq(text="unrelated", rank_opts=RankOpts(max_outputs=10))
    )
    assert sorted(h.doc_id for h in resp.docs) == ["5"]
