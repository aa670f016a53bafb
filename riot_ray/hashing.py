"""The one string-hash kernel of the pipelines: md5 / sha256 of every value
of a non-null string column, in the views the operators key off.  Their
SQL oracles replay it as ``md5(v)`` / ``sha256(v)`` over the same text.

Each distinct value is hashed once with ``hashlib``, then gathered.  The
pipelines hash few distinct values per batch (a contract run at sf0.01:
483 calls, median 31, none above 887), where a vectorized SQL md5 costs
about 1 ms of per-call setup that a ``hashlib`` loop never pays.
Callers format their key in Arrow (``"{id}#{seed}"``; :func:`id_strings`
prints the id) and decide what a null means: a null here raises.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

_SIZE = {"md5": 16, "sha256": 32}
_HEX = np.frombuffer(b"0123456789abcdef", np.uint8)


def id_strings(ids) -> pa.Array:
    """Ids as SQL's ``id::VARCHAR`` prints them: integers via Arrow (equal
    to ``str(int)``), strings as they are.  Other types are refused by
    name: Arrow prints the float 1.0 as "1" and -0.0 as "-0", where
    ``str()`` and SQL print "1.0" / "-0.0".  A null id raises too."""
    a = ids if isinstance(ids, (pa.Array, pa.ChunkedArray)) else pa.array(ids)
    if a.null_count:
        raise ValueError("id column contains nulls: a stable hash key "
                         "needs a non-null id per row")
    if not (pa.types.is_integer(a.type) or pa.types.is_string(a.type)
            or pa.types.is_large_string(a.type)):
        raise ValueError(f"cannot hash ids of type {a.type}: hash keys are "
                         "defined for integer and string ids only")
    return a.cast(pa.string())


def _digest_each(values: list, algo: str) -> bytes:
    new = getattr(hashlib, algo)
    return b"".join([new(v.encode()).digest() for v in values])


def _digests(col, algo: str) -> tuple[np.ndarray, np.ndarray]:
    """(digest of each distinct value as a (u, size) uint8 matrix, the
    distinct-value index of each row)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError("hash input contains nulls: the caller must say "
                         "what a null key means before hashing")
    enc = col.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    raw = _digest_each(enc.dictionary.to_pylist(), algo)
    return np.frombuffer(raw, np.uint8).reshape(-1, _SIZE[algo]), codes


def u64(col, algo: str = "md5") -> np.ndarray:
    """First 8 digest bytes read big-endian, per row: with md5 the repo's
    token and id hash, SQL ``('0x' || substr(md5(v), 1, 16))::UBIGINT``
    (DuckDB's little-endian ``md5_number_upper`` is NOT this value)."""
    d, codes = _digests(col, algo)
    return np.ascontiguousarray(d[:, :8]).view(">u8").ravel().astype(
        np.uint64)[codes]


def digest16(col, algo: str = "md5") -> np.ndarray:
    """First 16 digest bytes per row, an (n, 16) uint8 matrix:
    ``.view(np.int64)`` reads it as two native-endian int64 keys."""
    d, codes = _digests(col, algo)
    return np.ascontiguousarray(d[codes, :16])


def hex_digest(col, algo: str = "md5") -> pa.Array:
    """Lowercase hex digest per row — SQL ``md5(v)`` / ``sha256(v)``."""
    d, codes = _digests(col, algo)
    h = np.empty((len(d), 2 * d.shape[1]), np.uint8)
    h[:, 0::2] = _HEX[d >> 4]
    h[:, 1::2] = _HEX[d & 15]
    offs = np.arange(len(codes) + 1, dtype=np.int64) * h.shape[1]
    # int64 offsets; the cast to string raises if they pass the int32 range
    return pa.LargeStringArray.from_buffers(
        len(codes), pa.py_buffer(offs), pa.py_buffer(h[codes])).cast(pa.string())
