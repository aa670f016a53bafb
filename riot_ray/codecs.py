"""Vectorized posting-list codecs: delta + varbyte over numpy arrays.

The reference keeps posting lists as Go slices in RAM
(/root/reference/core/indexer.go:69-74); our segments store them as packed
binary columns.  Encoding/decoding is fully vectorized — no Python loop over
postings, only a loop over the (<=10) byte positions of the varbyte code.
"""

from __future__ import annotations

import numpy as np

# thresholds[i] = smallest value needing >= i+2 bytes
_THRESHOLDS = np.array([1 << (7 * i) for i in range(1, 10)], dtype=np.uint64)


def encode_varbyte(values: np.ndarray) -> bytes:
    """LEB128-style varbyte: 7 value bits per byte, high bit = continuation."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    nbytes = np.searchsorted(_THRESHOLDS, v, side="right") + 1
    ends = np.cumsum(nbytes)
    total = int(ends[-1])
    starts = ends - nbytes
    out = np.zeros(total, dtype=np.uint8)
    rem = v.copy()
    alive = np.arange(v.size)
    pos = starts.copy()
    while alive.size:
        byte = (rem[alive] & np.uint64(0x7F)).astype(np.uint8)
        rem[alive] >>= np.uint64(7)
        more = rem[alive] != 0
        out[pos[alive]] = byte | (more.astype(np.uint8) << np.uint8(7))
        pos[alive] += 1
        alive = alive[more]
    return out.tobytes()


def decode_varbyte(buf: bytes | np.ndarray) -> np.ndarray:
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = b < 128
    # value index of each byte = number of terminators before it
    vidx = np.zeros(b.size, dtype=np.int64)
    np.cumsum(is_last[:-1], out=vidx[1:])
    n_vals = int(vidx[-1]) + 1
    # byte position within its value
    starts = np.flatnonzero(np.r_[True, is_last[:-1]])
    bpos = np.arange(b.size, dtype=np.int64) - starts[vidx]
    vals = np.zeros(n_vals, dtype=np.uint64)
    payload = (b & np.uint8(0x7F)).astype(np.uint64) << (np.uint64(7) * bpos.astype(np.uint64))
    np.add.at(vals, vidx, payload)
    return vals


def delta_encode(sorted_vals: np.ndarray) -> np.ndarray:
    """First value absolute, rest = diffs (input strictly increasing)."""
    v = np.asarray(sorted_vals, dtype=np.uint64)
    out = np.empty_like(v)
    if v.size:
        out[0] = v[0]
        np.subtract(v[1:], v[:-1], out=out[1:])
    return out


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(np.asarray(deltas, dtype=np.uint64), dtype=np.uint64)


def delta_decode_blocks(deltas: np.ndarray, n: np.ndarray) -> np.ndarray:
    """:func:`delta_decode` of consecutive blocks of ``n[i]`` deltas each
    (every block's first delta absolute), in one running sum: each value is
    its running sum minus the sum before its block.  Both sums stay uint64,
    so the result is exact also where the running sum wraps past 2**64."""
    d = np.asarray(deltas, dtype=np.uint64)
    run = np.zeros(d.size + 1, dtype=np.uint64)
    np.cumsum(d, dtype=np.uint64, out=run[1:])
    n = np.asarray(n, dtype=np.int64)
    return run[1:] - np.repeat(run[np.cumsum(n) - n], n)
