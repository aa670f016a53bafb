import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from riot_ray.codecs import (
    decode_varbyte,
    delta_decode,
    delta_decode_blocks,
    delta_encode,
    encode_varbyte,
)


def test_varbyte_roundtrip_small():
    vals = np.array([0, 1, 127, 128, 129, 16383, 16384, 2**32, 2**63 + 5], dtype=np.uint64)
    assert np.array_equal(decode_varbyte(encode_varbyte(vals)), vals)


def test_varbyte_empty():
    assert encode_varbyte(np.empty(0, np.uint64)) == b""
    assert decode_varbyte(b"").size == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
def test_varbyte_roundtrip_property(xs):
    vals = np.array(xs, dtype=np.uint64)
    assert np.array_equal(decode_varbyte(encode_varbyte(vals)), vals)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**62), max_size=100))
def test_delta_roundtrip(xs):
    vals = np.array(sorted(xs), dtype=np.uint64)
    assert np.array_equal(delta_decode(delta_encode(vals)), vals)


def _blocks(vals, cuts):
    """Delta-encode each block of ``vals`` (split at ``cuts``) on its own and
    varbyte-code the concatenation: a term's docs_vb blocks laid end to end."""
    blocks = np.split(np.asarray(vals, np.uint64), cuts)
    buf = b"".join(encode_varbyte(delta_encode(b)) for b in blocks)
    return decode_varbyte(buf), np.array([len(b) for b in blocks])


def test_delta_decode_blocks_exact_past_2_53_and_2_64():
    # docs are (part << 40) | rank; parts >= 8192 put each block's last doc
    # past 2**53, and the 2**23 parts make the running sum wrap past 2**64
    parts = [8192, 8193, 9000, 12345, 1 << 22, (1 << 23) + 1, (1 << 23) + 7, (1 << 24) - 1]
    docs = [(p << 40) | r for p in parts for r in (0, 1, 3, 999_999)]
    cuts = list(range(4, len(docs), 4))
    deltas, n = _blocks(docs, cuts)
    out = delta_decode_blocks(deltas, n)
    assert out.dtype == np.uint64
    assert np.array_equal(out, np.asarray(docs, np.uint64))
    offs = np.r_[0, np.cumsum(n)]
    per_block = [delta_decode(deltas[a:b]) for a, b in zip(offs[:-1], offs[1:])]
    assert np.array_equal(out, np.concatenate(per_block))


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**64 - 1), max_size=100),
       st.lists(st.integers(min_value=0, max_value=100), max_size=8))
def test_delta_decode_blocks_matches_per_block(xs, cuts):
    # repeated cuts and cuts past the end make empty blocks
    vals = np.array(sorted(xs), dtype=np.uint64)
    deltas, n = _blocks(vals, sorted(cuts))
    assert np.array_equal(delta_decode_blocks(deltas, n), vals)
