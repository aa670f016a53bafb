"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video payloads are carried as Arrow ``large_binary`` columns
with sidecar metadata (mime, width/height or sample_rate, n_frames).  The
Ray-side plumbing — schema, small-batch actor-pool stages, output layout —
is real and tested, and two codec paths exist:

* ``decode=\"fake\"`` (default) — deterministic parser for the self-describing
  FAKE payload header written by ``make_fake_media`` (magic ``RRM1`` +
  mime + dims).  Exercises every code path except a codec.
* ``decode=\"real\"`` — REAL bytes through the stdlib codecs
  (:mod:`riot_ray.pipelines.codecs`): 8-bit PNG (zlib + all five scanline
  filters), 24-bit BMP, binary PPM/PGM, 16-bit PCM WAV.  No PIL/libav in
  this environment; formats beyond those four would need one (swap a real
  codec in behind ``codecs.decode_any``).

Batch sizing: media batches are deliberately SMALL (``batch_size=16``
default) — a 4K image batch at concurrency 32 must fit the worker heap;
this is the knob, not block size.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import u64

MAGIC = b"RRM1"


def make_fake_media(n: int, seed: int = 42, kind: str = "image") -> pa.Table:
    """Deterministic fake media table: (media_id, mime, payload).  Payload =
    MAGIC + mime_len + mime + w + h + n_frames + blob(seeded bytes)."""
    rng = np.random.default_rng(seed)
    ids, mimes, payloads = [], [], []
    for i in range(n):
        if kind == "image":
            mime = "image/fake"
            w, h, frames = int(rng.integers(8, 65)), int(rng.integers(8, 65)), 1
        else:
            mime = "audio/fake"
            w, h = int(rng.integers(8000, 48001)), 1  # sample rate in w
            frames = int(rng.integers(100, 10001))    # samples
        blob = rng.integers(0, 256, size=int(rng.integers(64, 513)), dtype=np.uint8)
        head = MAGIC + struct.pack("<B", len(mime)) + mime.encode() + struct.pack(
            "<iii", w, h, frames
        )
        ids.append(i)
        mimes.append(mime)
        payloads.append(head + blob.tobytes())
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "mime": pa.array(mimes, pa.string()),
            "payload": pa.array(payloads, pa.large_binary()),
        }
    )


def make_real_media(n: int, seed: int = 42) -> pa.Table:
    """Deterministic REAL media table: seeded pixels/samples encoded with
    the stdlib codecs, cycling png -> bmp -> ppm -> wav."""
    from . import codecs as c

    rng = np.random.default_rng(seed)
    ids, mimes, payloads = [], [], []
    encoders = (
        ("image/png", lambda px: c.encode_png(px, filter_type=4)),
        ("image/bmp", c.encode_bmp),
        ("image/x-portable-pixmap", c.encode_pnm),
    )
    for i in range(n):
        if i % 4 == 3:
            smp = rng.integers(-20000, 20000,
                               (int(rng.integers(100, 2001)), 1), np.int16)
            ids.append(i)
            mimes.append("audio/wav")
            payloads.append(c.encode_wav(smp, int(rng.integers(8, 48)) * 1000))
            continue
        w, h = int(rng.integers(8, 65)), int(rng.integers(8, 65))
        px = rng.integers(0, 256, (h, w, 3), np.uint8)
        mime, enc = encoders[i % 4]
        ids.append(i)
        mimes.append(mime)
        payloads.append(enc(px))
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "mime": pa.array(mimes, pa.string()),
            "payload": pa.array(payloads, pa.large_binary()),
        }
    )


def _md5_dims(texts) -> tuple[list, list]:
    """(width, height) per text (null as ""): md5 hex chars 1-4 and 5-8,
    i.e. the top two 16-bit words of :func:`riot_ray.hashing.u64`,
    each ``% 57 + 8``."""
    h = u64(pc.fill_null(texts, "")) >> np.uint64(32)
    w = (h >> np.uint64(16)) % np.uint64(57) + np.uint64(8)
    v = (h & np.uint64(0xFFFF)) % np.uint64(57) + np.uint64(8)
    return w.tolist(), v.tolist()


def media_from_docs(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Wrap a text corpus as fake media payloads with md5-derived dimensions —
    the deterministic bridge that makes the binary-column plumbing
    SQL-oracle-checkable: width/height come from md5(text) hex slices
    (DuckDB: ``('0x' || substr(md5(text), 1, 4))::INT % 57 + 8``) and the
    body is the utf-8 text itself, so a DuckDB oracle can recompute every
    decoded metadata column without parsing binary."""

    def wrap(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        payloads = []
        for t, w, h in zip(texts, *_md5_dims(batch[text_col])):
            t = t or ""  # null text -> empty body (md5 of "" is defined)
            mime = "image/fake"
            head = MAGIC + struct.pack("<B", len(mime)) + mime.encode() + struct.pack(
                "<iii", w, h, 1
            )
            payloads.append(head + t.encode())
        return pa.table(
            {
                id_col: batch[id_col],
                "mime": pa.array(["image/fake"] * len(texts), pa.string()),
                "payload": pa.array(payloads, pa.large_binary()),
            }
        )

    return ds.map_batches(wrap, batch_format="pyarrow")


def parse_fake_header(buf: bytes):
    if buf[:4] != MAGIC:
        raise ValueError("not a fake-media payload")
    mlen = buf[4]
    mime = buf[5 : 5 + mlen].decode()
    w, h, frames = struct.unpack("<iii", buf[5 + mlen : 17 + mlen])
    body = buf[17 + mlen :]
    return mime, w, h, frames, body


class MediaDecodeStage:
    """Actor-pool stage: payload -> typed metadata + feature vector.

    State (codec handles, model weights) belongs in __init__ — once per
    actor, never per batch.  __call__ stays per-payload Python because
    codecs are inherently per-object; the BATCH is the parallelism unit.

    ``decode="real"`` parses REAL bytes with the stdlib codecs
    (:mod:`riot_ray.pipelines.codecs`): PNG / BMP / PPM-PGM / 16-bit WAV.
    Images report pixel dims + decoded pixel byte count; WAV reports
    (sample_rate, channels, n_samples) in the same (width, height,
    n_frames) columns the fake path uses."""

    def __init__(self, decode: str = "fake", feature_dim: int = 8):
        if decode not in ("fake", "real"):
            raise ValueError(decode)
        if decode == "real":
            from . import codecs  # import once per actor

            self._codecs = codecs
        self.decode = decode
        self.feature_dim = feature_dim

    def _feature(self, body: bytes) -> np.ndarray:
        """Deterministic stand-in for model features: bucketed byte means."""
        arr = np.frombuffer(body, dtype=np.uint8).astype(np.float32)
        pad = (-len(arr)) % self.feature_dim
        if pad:
            arr = np.r_[arr, np.zeros(pad, np.float32)]
        return arr.reshape(self.feature_dim, -1).mean(axis=1) / 255.0

    def _decode_one(self, buf: bytes):
        """(width, height, n_frames, feature-body bytes)."""
        if self.decode == "fake":
            _mime, w, h, fr, body = parse_fake_header(buf)
            return w, h, fr, body
        _kind, w, h, fr, data = self._codecs.decode_any(buf)
        return w, h, fr, data.tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        widths, heights, frames, feats, digests, nbytes = [], [], [], [], [], []
        for buf in payloads:
            w, h, fr, body = self._decode_one(buf)
            widths.append(w)
            heights.append(h)
            frames.append(fr)
            feats.append(self._feature(body))
            digests.append(hashlib.blake2b(buf, digest_size=16).hexdigest())
            nbytes.append(len(body))
        out = batch.select([c for c in batch.column_names if c != "payload"])
        out = out.append_column("width", pa.array(widths, pa.int32()))
        out = out.append_column("height", pa.array(heights, pa.int32()))
        out = out.append_column("n_frames", pa.array(frames, pa.int32()))
        out = out.append_column("n_bytes", pa.array(nbytes, pa.int64()))
        out = out.append_column(
            "feature",
            pa.array([f.tolist() for f in feats], pa.list_(pa.float32(), self.feature_dim)),
        )
        out = out.append_column("payload_digest", pa.array(digests, pa.string()))
        return out


class MediaResizeStage:
    """Resize stage.  ``decode="fake"``: rewrites the payload header to
    target dims and truncates the body proportionally.  ``decode="real"``:
    decodes with the stdlib codecs, nearest-neighbor-resizes images (WAV
    payloads frame-sample down to ``target_w * target_h`` samples), and
    re-encodes in the SAME format so further stages chain on real bytes."""

    def __init__(self, target_w: int = 16, target_h: int = 16,
                 decode: str = "fake"):
        if decode not in ("fake", "real"):
            raise ValueError(decode)
        self.tw, self.th = target_w, target_h
        self.decode = decode
        if decode == "real":
            from . import codecs  # import once per actor

            self._codecs = codecs

    def _resize_one(self, buf: bytes) -> bytes:
        if self.decode == "real":
            return self._resize_real(buf)
        mime, w, h, fr, body = parse_fake_header(buf)
        scale = max(1, (w * h) // max(1, self.tw * self.th))
        new_body = body[: max(1, len(body) // scale)]
        head = MAGIC + struct.pack("<B", len(mime)) + mime.encode() + struct.pack(
            "<iii", self.tw, self.th, fr
        )
        return head + new_body

    def _resize_real(self, buf: bytes) -> bytes:
        c = self._codecs
        kind, w, h, fr, data = c.decode_any(buf)
        if kind == "wav":
            # frame-sample: keep ceil(n / k) evenly-strided samples
            target = max(1, self.tw * self.th)
            step = max(1, fr // target)
            return c.encode_wav(data[::step], w)
        px = c.resize_nearest(data, self.tw, self.th)
        if kind == "png":
            return c.encode_png(px)
        if kind == "bmp":
            return c.encode_bmp(px)
        return c.encode_pnm(px)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = [self._resize_one(b) for b in batch["payload"].to_pylist()]
        out = batch.drop_columns(["payload"])
        return out.append_column("payload", pa.array(payloads, pa.large_binary()))


def decode_media(ds, decode: str = "fake", concurrency: int = 2, batch_size: int = 16):
    """Actor-pool decode: callable CLASS + concurrency => one decoder per
    actor, small batches for large payloads.  (1, N) autoscaling pool: a
    fixed int pool deadlocks when the cluster has fewer free CPUs than N."""
    return ds.map_batches(
        MediaDecodeStage,
        fn_constructor_kwargs={"decode": decode},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, concurrency),
    )


def resize_media(ds, target_w: int = 16, target_h: int = 16, concurrency: int = 2,
                 batch_size: int = 16, decode: str = "fake"):
    return ds.map_batches(
        MediaResizeStage,
        fn_constructor_kwargs={"target_w": target_w, "target_h": target_h,
                               "decode": decode},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, concurrency),
    )


def media_real_from_docs(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Wrap a text corpus as REAL binary P6 (PPM) image payloads with
    md5-derived dimensions — same dimension formula as
    :func:`media_from_docs` but the payload is an actual decodable image:
    the body is the utf-8 text tiled/truncated to exactly ``3*w*h`` pixel
    bytes.  A DuckDB oracle recomputes width/height from ``md5(text)`` and
    the pixel byte count as ``3*w*h``, so the real-codec decode stage gets
    a hash-checkable end-to-end query."""

    def wrap(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        payloads = []
        for t, w, h in zip(texts, *_md5_dims(batch[text_col])):
            t = t or ""  # null text -> empty body (md5 of "" is defined)
            need = 3 * w * h
            body = (t.encode() or b"\x00")
            body = (body * (need // len(body) + 1))[:need]
            payloads.append(b"P6" + f"\n{w} {h}\n255\n".encode() + body)
        return pa.table(
            {
                id_col: batch[id_col],
                "mime": pa.array(["image/x-portable-pixmap"] * len(texts)),
                "payload": pa.array(payloads, pa.large_binary()),
            }
        )

    return ds.map_batches(wrap, batch_format="pyarrow")
