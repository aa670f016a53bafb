"""Property tests (hypothesis) for the pure kernels of the new operators:
chunking, packing, and phrase-pattern semantics — invariants that must hold
for ANY input, not just the fixture corpora."""

import re

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

_WORD = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8)
_TEXT = st.lists(
    st.one_of(_WORD, st.sampled_from([" ", ", ", "; ", "\n", "!!"])),
    min_size=0, max_size=40,
).map("".join)


def _tokens(text: str) -> list:
    return [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]


@settings(max_examples=60, deadline=None)
@given(st.lists(_TEXT, min_size=1, max_size=8),
       st.integers(1, 10), st.integers(1, 10))
def test_chunk_docs_covers_token_stream(ray_session, texts, w, s):
    import ray.data as rd

    from riot_ray.pipelines import chunk_docs

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = chunk_docs(ds, chunk_tokens=w, stride=s).to_pandas()
    if len(out) == 0:
        assert all(not _tokens(t) for t in texts)
        return
    out = out.sort_values(["doc_id", "chunk_idx"])
    for doc_id, text in enumerate(texts):
        toks = _tokens(text)
        rows = out[out["doc_id"] == doc_id]
        if not toks:
            assert len(rows) == 0
            continue
        # chunk i covers tokens [i*s, i*s + w); together they cover the doc
        assert len(rows) == -(-len(toks) // s)
        for _, r in rows.iterrows():
            start = int(r["chunk_idx"]) * s
            want = toks[start:start + w]
            assert r["chunk_text"] == " ".join(want)
            assert int(r["n_tokens"]) == len(want)
        if s == w:  # exact tiling partitions the stream (s > w subsamples)
            assert int(rows["n_tokens"].sum()) == len(toks)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=60),
       st.integers(1, 60), st.integers(1, 4))
def test_pack_sequences_greedy_invariants(ray_session, sizes, budget, nb):
    import ray.data as rd

    from riot_ray.pipelines import pack_sequences

    # build docs whose token counts are exactly `sizes`
    texts = [" ".join(["tok"] * n) for n in sizes]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(sizes)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    out = (
        pack_sequences(ds, budget_tokens=budget, n_buckets=nb)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (out["n_tokens"].to_numpy() == np.array(sizes)).all()
    # a sequence exceeds the budget ONLY as [zero-token docs..., one
    # oversized doc]: zero-token docs leave filled == 0, so the "and the
    # current sequence is non-empty" clause lets one oversized doc join
    # them (the SQL oracle replays the identical rule — hash-verified)
    for _sid, grp in out.sort_values("doc_id").groupby("seq_id"):
        tok = grp["n_tokens"].to_numpy()
        if tok.sum() > budget:
            nz = np.flatnonzero(tok)
            assert len(nz) == 1 and nz[0] == len(tok) - 1
            assert tok[nz[0]] > budget
    # greedy is maximal: within a bucket, consecutive sequences could not
    # be merged (first doc of seq k+1 would overflow seq k)
    for b in out["bucket"].unique():
        rows = out[out["bucket"] == b].sort_values("doc_id")
        seqs = rows.groupby("seq_id", sort=True)
        totals = seqs["n_tokens"].sum().to_numpy()
        firsts = seqs["n_tokens"].first().to_numpy()
        assert (totals[:-1] + firsts[1:] > budget).all()
        # seq_pos is a clean 0..n-1 runway per sequence
        for _sid, grp in seqs:
            assert list(grp["seq_pos"]) == list(range(len(grp)))


@settings(max_examples=80, deadline=None)
@given(st.lists(_WORD, min_size=1, max_size=4), _TEXT)
def test_phrase_pattern_equals_token_adjacency(phrase, text):
    from riot_ray.tokenize import phrase_pattern

    pat = re.compile(phrase_pattern(phrase, "simple"))
    toks = _tokens(text)
    adjacent = any(
        toks[i:i + len(phrase)] == list(phrase)
        for i in range(len(toks) - len(phrase) + 1)
    )
    assert bool(pat.search(text.lower())) == adjacent


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 4),
       st.sampled_from([3, 4]), st.integers(0, 2**32 - 1))
def test_image_codec_roundtrip_any_dims(w, h, filter_type, channels, seed):
    """PNG (every filter type) / BMP / PNM reproduce pixels exactly for
    ARBITRARY dims — w=1 stresses the filter predictors, odd widths stress
    BMP row padding."""
    import numpy as np

    from riot_ray.pipelines import codecs as c

    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, (h, w, channels), np.uint8)
    got = c.decode_png(c.encode_png(px, filter_type=filter_type))[3]
    assert (got == px).all()
    if channels == 3:  # BMP/PNM are RGB-only
        assert (c.decode_bmp(c.encode_bmp(px))[3] == px).all()
        assert (c.decode_pnm(c.encode_pnm(px))[3] == px).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2000), st.sampled_from([1, 2]),
       st.sampled_from([8000, 16000, 44100]), st.integers(0, 2**32 - 1))
def test_wav_codec_roundtrip_any_length(n, nch, rate, seed):
    import numpy as np

    from riot_ray.pipelines import codecs as c

    rng = np.random.default_rng(seed)
    smp = rng.integers(-32768, 32768, (n, nch), np.int16)
    r, ch, cnt, got = c.decode_wav(c.encode_wav(smp, rate))
    assert (r, ch, cnt) == (rate, nch, n) and (got == smp).all()


@settings(max_examples=80, deadline=None)
@given(_TEXT, st.sampled_from(["simple", "code", "space", "chars"]))
def test_query_tokens_both_equals_two_passes(text, mode):
    """query_tokens_both (one segmentation pass) must agree with the two
    separate query_tokens calls it replaced, for every mode and with a
    non-trivial stop set."""
    from riot_ray.config import EngineOpts
    from riot_ray.tokenize import Tokenizer

    tok = Tokenizer(EngineOpts(mode=mode, stop_tokens=("ab", "cd", "a", "1")))
    filtered, raw = tok.query_tokens_both(text)
    assert filtered == tok.query_tokens(text)
    assert raw == tok.query_tokens(text, stop_filter=False)


# --------------------------------------------------------------------------- #
# substr rolling-hash kernel invariants
# --------------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(st.lists(st.text(alphabet="abcXYZ09 é日",
                        min_size=0, max_size=60),
                min_size=1, max_size=6),
       st.integers(2, 8))
def test_window_hash_is_content_function(texts, L):
    """Two windows hash equal IFF their codepoint content is equal (the
    'iff' holds with overwhelming probability at 128 bits — asserting it
    on tiny inputs doubles as a collision smoke test), and positions are
    codepoint offsets per row."""
    from riot_ray.pipelines.substr import _codepoints, _window_hashes

    arr = pa.array(texts, pa.string())
    cp, lens = _codepoints(arr)
    h1, h2, p, pos = _window_hashes(cp, lens, L)
    windows = {}
    for hh1, hh2, pp, po in zip(h1.tolist(), h2.tolist(),
                                p.tolist(), pos.tolist()):
        content = texts[pp][po: po + L]
        assert len(content) == L
        windows.setdefault((hh1, hh2), set()).add(content)
    for contents in windows.values():
        assert len(contents) == 1  # equal hash pair => equal content
    # equal content => equal hash pair (group by content, expect 1 pair)
    by_content = {}
    for (hh1, hh2), contents in windows.items():
        by_content.setdefault(next(iter(contents)), set()).add((hh1, hh2))
    for pairs in by_content.values():
        assert len(pairs) == 1


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abc ", min_size=0, max_size=80),
       st.integers(2, 6))
def test_merge_spans_covers_exactly_duplicated_windows(text, L):
    """_merge_spans output covers exactly the union of duplicated-window
    char ranges (brute-force recomputation)."""
    from collections import Counter

    from riot_ray.pipelines.substr import (_codepoints, _merge_spans,
                                           _window_hashes)

    arr = pa.array([text], pa.string())
    cp, lens = _codepoints(arr)
    h1, h2, p, pos = _window_hashes(cp, lens, L)
    cnt = Counter(zip(h1.tolist(), h2.tolist()))
    dup = np.array([cnt[k] >= 2 for k in zip(h1.tolist(), h2.tolist())],
                   bool) if len(h1) else np.zeros(0, bool)
    spans = _merge_spans(p[dup], pos[dup], L)
    covered = set()
    for s, e in zip(spans["span_start"].to_pylist(),
                    spans["span_end"].to_pylist()):
        covered |= set(range(s, e))
    expect = set()
    for po in pos[dup].tolist():
        expect |= set(range(po, po + L))
    assert covered == expect


# --------------------------------------------------------------------------- #
# BPE indexed trainer == brute-force trainer, for ANY word/count table
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=7),
                min_size=1, max_size=25, unique=True),
       st.lists(st.integers(1, 40), min_size=25, max_size=25),
       st.integers(1, 30))
def test_bpe_indexed_trainer_equals_bruteforce_property(words, counts, n_merges):
    from riot_ray.pipelines.bpe import _EOW, _train_merges, encode_word

    counts = np.asarray(counts[: len(words)], np.int64)
    got = _train_merges(list(words), counts, n_merges)

    # brute force: recompute ALL pair counts each merge
    seqs = [list(w[:-1]) + [w[-1] + _EOW] for w in words]
    merges = []
    for _ in range(n_merges):
        pc_ = {}
        for seq, c in zip(seqs, counts):
            for a, b in zip(seq, seq[1:]):
                pc_[(a, b)] = pc_.get((a, b), 0) + int(c)
        if not pc_:
            break
        best = min(pc_.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        a, b = best
        for i, seq in enumerate(seqs):
            new, j = [], 0
            while j < len(seq):
                if j + 1 < len(seq) and seq[j] == a and seq[j + 1] == b:
                    new.append(a + b)
                    j += 2
                else:
                    new.append(seq[j])
                    j += 1
            seqs[i] = new
    assert got == merges
    # greedy rank-order encoding reproduces training segmentation
    rank = {p: i for i, p in enumerate(got)}
    for w, seq in zip(words, seqs):
        assert encode_word(w, rank) == seq


# --------------------------------------------------------------------------- #
# _pair_member == python set membership, including duplicate-h1 runs
# --------------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=0, max_size=30),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=0, max_size=30))
def test_pair_member_equals_set_membership(qpairs, spairs):
    from riot_ray.pipelines.substr import _pair_member

    sset = sorted(set(spairs))
    s1 = np.array([p[0] for p in sset], np.uint64)
    s2 = np.array([p[1] for p in sset], np.uint64)
    q1 = np.array([p[0] for p in qpairs], np.uint64)
    q2 = np.array([p[1] for p in qpairs], np.uint64)
    got = _pair_member(q1, q2, s1, s2)
    exp = np.array([p in set(sset) for p in qpairs], bool)
    assert (got == exp).all()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_token_proximity_block_equals_scalar(data):
    """The vectorized all-docs proximity DP (token_proximity_block) is
    bit-equal to the scalar two-candidate DP riot's computeTokenProximity
    semantics are pinned by — proximity AND chosen snippet positions, for
    every doc, including docs where a token has no positions (-1/())."""
    from riot_ray.query import token_proximity, token_proximity_block

    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 12))
    tokens = [data.draw(st.text("abé", min_size=1, max_size=4))
              for _ in range(k)]
    flats, locs_per_doc = [], [[] for _ in range(n)]
    for _t in range(k):
        vals, offs = [], [0]
        for d in range(n):
            pos = sorted(data.draw(st.sets(
                st.integers(0, 120), min_size=0, max_size=5)))
            vals.extend(pos)
            offs.append(offs[-1] + len(pos))
            locs_per_doc[d].append(list(pos))
        flats.append((np.array(vals, np.int64), np.array(offs, np.int64)))
    prox, chosen = token_proximity_block(flats, tokens)
    for d in range(n):
        locs = locs_per_doc[d]
        if any(len(p) == 0 for p in locs):
            want = (-1, ())
        else:
            want = token_proximity(locs, tokens)
        got_p = int(prox[d])
        got_s = (tuple(int(chosen[t][d]) for t in range(k))
                 if got_p != -1 else ())
        assert (got_p, got_s) == want


def test_token_proximity_block_guards_packed_index_overflow(monkeypatch):
    """A per-doc per-term position count at/over _PROX_PACK would corrupt
    the packed (value, index) tie-break — the block DP hard-fails instead
    of returning wrong proximity (ADVICE r4; mirrors dup_spans' guard).
    _PROX_PACK is shrunk so the test doesn't need 2^24 real positions."""
    import numpy as np
    import pytest

    import riot_ray.query as q

    monkeypatch.setattr(q, "_PROX_PACK", np.int64(4))
    vals = np.arange(5, dtype=np.int64)  # 5 positions in ONE doc >= 4
    offs = np.array([0, 5], np.int64)
    flats = [(vals, offs), (vals + 100, offs)]
    with pytest.raises(ValueError, match="positions"):
        q.token_proximity_block(flats, ["aa", "bb"])
    # under the cap: still fine
    monkeypatch.setattr(q, "_PROX_PACK", np.int64(1) << 24)
    prox, chosen = q.token_proximity_block(flats, ["aa", "bb"])
    assert int(prox[0]) >= 0


_TERM = st.text(alphabet="abéÿĀ日\U0001f600", min_size=0, max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_TERM, st.integers(1, 10**12), max_size=40),
       st.integers(1, 4), st.lists(_TERM, max_size=20), st.randoms())
def test_termstats_get_equals_dict(vocab, n_files, probes, rnd):
    """``TermStats.get`` (byte-slice binary search) answers exactly as a
    plain dict, for present, absent, empty, prefix and non-ASCII terms,
    over termstats split into several unsorted files (the distributed
    reduce's layout)."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from riot_ray.engine import TermStats

    rows = list(vocab.items())
    rnd.shuffle(rows)
    with tempfile.TemporaryDirectory() as d:
        os.makedirs(os.path.join(d, "termstats"))
        for i in range(n_files):
            part = rows[i::n_files]
            pq.write_table(pa.table({"term": pa.array([t for t, _ in part], pa.string()),
                                     "df": pa.array([n for _, n in part], pa.int64())}),
                           os.path.join(d, "termstats", f"part-{i}.parquet"))
        ts = TermStats(d)
    assert len(ts) == len(vocab) and dict(ts.items()) == vocab
    prefixes = [t[:k] for t in vocab for k in range(len(t))]
    for q in list(vocab) + prefixes + probes + ["", "￿", "b\U0001f600é"]:
        assert ts.get(q) == vocab.get(q), q
        assert ts.get(q, 0) == vocab.get(q, 0), q


# non-ASCII, CJK, emoji, combining marks, the last BMP code points and
# NUL-prefixed terms (META_TERM itself is "\x00" and never a term)
_SHARD_TERM = st.text(
    alphabet=st.one_of(st.sampled_from("aZ0~éß日本語\U0001f600\U0001f389́̀"
                                       "\x00\x7f￿"),
                       st.characters(exclude_categories=("Cs",))),
    min_size=1, max_size=5).filter(lambda t: t != "\x00")


@settings(max_examples=60, deadline=None)
@given(st.lists(_SHARD_TERM, min_size=1, max_size=40, unique=True),
       st.integers(1, 5))
def test_shard_term_order_is_python_sorted(terms, n_docs):
    """``blocks.term`` (BuildShard's Arrow sort) and ``termstats/df.parquet``
    list the terms in Python's ``sorted()`` (code-point) order."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from riot_ray.build import IndexWriter
    from riot_ray.config import EngineOpts
    from riot_ray.stages.segments import BuildShard

    # term i goes to doc i % n_docs; the first row of each doc is its head
    doc = np.arange(len(terms), dtype=np.uint64) % np.uint64(n_docs)
    head = np.arange(len(terms)) < n_docs
    group = pa.table({
        "term": pa.array(terms, pa.string()),
        "doc": pa.array(doc, pa.uint64()),
        "tf": pa.array(np.ones(len(terms), np.float32)),
        "token_len": pa.array(np.full(len(terms), 3, np.float32)),
        "is_head": pa.array(head.astype(np.uint8)),
        "shard": pa.array(np.zeros(len(terms), np.int32)),
    })
    with tempfile.TemporaryDirectory() as d:
        w = IndexWriter(d, EngineOpts())
        BuildShard(w.opts, w.segments_dir, "fp")(group)
        w._build_termstats()
        blocks = pq.read_table(os.path.join(w.segments_dir, "shard=00000", "blocks.parquet"))
        df = pq.read_table(os.path.join(d, "termstats", "df.parquet"))
    assert blocks["term"].to_pylist() == sorted(terms)
    assert df["term"].to_pylist() == sorted(terms)
