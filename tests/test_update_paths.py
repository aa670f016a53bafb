"""Updates run in-process below ``LOCAL_MAX_ROWS`` and as Ray Data jobs
above it.  Both paths call the same stage objects, so the same sequence of
``add_docs`` / ``remove_docs`` / ``compact`` calls on two copies of one
index — one forced onto the Ray path by setting the constant to 0 — must
leave byte-identical forward parts, segment files and termstats, equal
manifests and stats (apart from the per-call fingerprint and wall time) and
equal tombstone sets.

A rebuilt shard tokenizes only the forward docs it lacks and decodes the
rest from itself; after every step its files must equal those of a full
re-tokenize of the forward table (``assert_from_forward``)."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import riot_ray.build as build
import riot_ray.updates as updates
from riot_ray.build import IndexWriter, load_stats
from riot_ray.config import LOCS_INDEX, EngineOpts
from riot_ray.corpus import make_corpus
from riot_ray.updates import add_docs, compact, load_tombstones, remove_docs

VOLATILE = {"fingerprint", "generations", "wall_s"}


def _files(index_dir, pattern):
    return sorted(os.path.relpath(f, index_dir)
                  for f in glob.glob(os.path.join(index_dir, pattern)))


def _json(path):
    with open(path) as f:
        return {k: v for k, v in json.load(f).items() if k not in VOLATILE}


def _bytes(path):
    with open(path, "rb") as f:
        return f.read()


def assert_same_index(a, b):
    data = ["forward/part=*.parquet", "segments/shard=*/*.parquet",
            "termstats/*.parquet"]
    for pattern in data:
        names = _files(a, pattern)
        assert names == _files(b, pattern), pattern
        for n in names:
            assert _bytes(os.path.join(a, n)) == _bytes(os.path.join(b, n)), n
    for pattern in ("segments/shard=*/manifest.json", "stats.json"):
        names = _files(a, pattern)
        assert names == _files(b, pattern), pattern
        for n in names:
            assert _json(os.path.join(a, n)) == _json(os.path.join(b, n)), n
    assert load_tombstones(a).tolist() == load_tombstones(b).tolist()


def assert_view_df(index_dir):
    """The df a full view derives from ``blocks.n`` equals
    ``termstats/df.parquet`` for every term, tombstoned docs included."""
    from riot_ray.engine import LocalSearcher

    ts = pq.read_table(os.path.join(index_dir, "termstats"), columns=["term", "df"])
    want = dict(zip(ts["term"].to_pylist(), ts["df"].to_pylist()))
    s = LocalSearcher(index_dir)
    assert {t: df for t, (_s, _e, df) in s.view.term_range.items()} == want
    assert all(s._df(t) == df for t, df in want.items())
    assert s._df("no such term") == 0


def assert_from_forward(index_dir):
    """Every segment file equals the one a full re-tokenize of the forward
    table writes: in-process ``apply_tokenize`` + ``build_segments`` over
    all forward rows, in a temporary dir beside the index."""
    opts = EngineOpts.from_json_dict(load_stats(index_dir)["opts"])
    oracle = index_dir + "_oracle"
    shutil.rmtree(oracle, ignore_errors=True)
    w = IndexWriter(oracle, opts)
    fwd = pq.read_table(sorted(glob.glob(os.path.join(index_dir, "forward", "part=*.parquet"))),
                        columns=updates._forward_cols(opts))
    w.build_segments(w.apply_tokenize(fwd), "oracle")
    pattern = "segments/shard=*/*.parquet"
    names = _files(index_dir, pattern)
    assert names == _files(oracle, pattern)
    for n in names:
        assert _bytes(os.path.join(index_dir, n)) == _bytes(os.path.join(oracle, n)), n
    shutil.rmtree(oracle)


class Twin:
    """Two copies of one index; every call runs on both, the second with
    ``LOCAL_MAX_ROWS`` lowered (to 0 by default, forcing the Ray path), and
    checks which path each copy took."""

    def __init__(self, index_dir, monkeypatch):
        self.local, self.ray = index_dir + "_local", index_dir + "_ray"
        shutil.copytree(index_dir, self.local)
        shutil.copytree(index_dir, self.ray)
        self.mp = monkeypatch
        self.paths = []
        choose = updates._in_process

        def record(*a, **kw):
            self.paths.append(choose(*a, **kw))
            return self.paths[-1]

        monkeypatch.setattr(updates, "_in_process", record)

    def __call__(self, fn, *args, max_rows=0):
        self.paths.clear()
        out_local = fn(self.local, *args)
        local_paths = list(self.paths)
        self.paths.clear()
        default = updates.LOCAL_MAX_ROWS
        self.mp.setattr(updates, "LOCAL_MAX_ROWS", max_rows)
        out_ray = fn(self.ray, *args)
        self.mp.setattr(updates, "LOCAL_MAX_ROWS", default)
        out_local.pop("wall_s", None)
        out_ray.pop("wall_s", None)
        assert out_local == out_ray
        # the first copy stays in-process; the second ends on Ray
        assert all(local_paths), local_paths
        assert bool(local_paths) == bool(self.paths)
        assert not self.paths or not self.paths[-1], self.paths
        assert_same_index(self.local, self.ray)
        assert_from_forward(self.local)
        assert_view_df(self.local)
        assert_view_df(self.ray)
        return out_local, self.paths


def _build(tmp, name, table, **opts_kw):
    src = os.path.join(tmp, f"{name}.parquet")
    pq.write_table(table, src)
    idx = os.path.join(tmp, f"{name}_index")
    IndexWriter(idx, EngineOpts(num_parts=4, num_shards=2, block_size=64,
                                **opts_kw)).build(src)
    return idx


def _ids(table):
    return [f"{r}/{p}@{c}" for r, p, c in zip(
        table["repo"].to_pylist(), table["path"].to_pylist(),
        table["commit"].to_pylist())]


def test_local_and_ray_updates_identical(ray_session, tmp_path, monkeypatch):
    import ray.data as rd

    full = make_corpus(100, seed=11)
    idx = _build(str(tmp_path), "code", full.slice(0, 70), mode="code")
    twin = Twin(idx, monkeypatch)

    # new doc_ids plus replacements of live ones (new content), as a Dataset
    texts = full["content"].to_pylist()
    for i in range(60, 70):
        texts[i] += "\nzebra_token quokka"
    changed = full.set_column(full.column_names.index("content"), "content",
                              pa.array(texts, pa.string()))
    out, paths = twin(add_docs, rd.from_arrow(changed.slice(60, 25)))
    assert out["n_added"] == 25 and out["n_replaced"] == 10
    # above the limit the increment is prepared on the cluster: one choice
    assert paths == [False]
    # a Parquet path; the increment (10 rows) is small enough to read into
    # the driver, the shards it lands in are not
    more = os.path.join(str(tmp_path), "more.parquet")
    pq.write_table(full.slice(85, 10), more)
    out, paths = twin(add_docs, more, max_rows=10)
    assert out["n_added"] == 10 and paths == [True, False]
    # a Parquet path above the limit is read and prepared on the cluster
    last = os.path.join(str(tmp_path), "last.parquet")
    pq.write_table(full.slice(95, 5), last)
    out, paths = twin(add_docs, last)
    assert out["n_added"] == 5 and paths == [False]
    # an empty source touches nothing and makes no choice
    out, paths = twin(add_docs, rd.from_arrow(full.slice(0, 0)))
    assert out["n_added"] == 0 and paths == []

    # remove_docs always scans in-process, one part at a time
    out, paths = twin(remove_docs, _ids(full.slice(3, 2)))
    assert out["n_removed"] == 2 and paths == []
    # remove every doc of shard 0 (parts 0 and 1), then compact: the dead
    # shard's segment dir must be gone on both paths
    dead = pq.read_table(
        sorted(glob.glob(os.path.join(twin.local, "forward", "part=0000[01].parquet"))),
        columns=["doc_id"])
    twin(remove_docs, dead["doc_id"].to_pylist())
    st, paths = twin(compact)
    assert st["shards_rebuilt"] == 2 and paths == [False]
    assert not os.path.exists(os.path.join(twin.local, "segments", "shard=00000"))
    assert load_tombstones(twin.local).size == 0


@pytest.mark.parametrize("with_tokens", [False, True])
def test_local_and_ray_updates_identical_perdoc(ray_session, tmp_path,
                                                monkeypatch, with_tokens):
    """Per-doc tokenize path: an explicit token length column, and
    optionally a pretokenized tokens column."""
    import ray.data as rd

    tok_type = pa.list_(pa.struct([("text", pa.string()),
                                   ("locations", pa.list_(pa.int32()))]))

    def table(lo, hi):
        cols = {
            "doc_id": pa.array([f"d{i}" for i in range(lo, hi)], pa.string()),
            "content": pa.array([f"alpha beta w{i} w{i % 3}" for i in range(lo, hi)]),
            "tl": pa.array([float(100 + i) for i in range(lo, hi)], pa.float32()),
        }
        if with_tokens:
            cols["tokens"] = pa.array(
                [[{"text": f"t{i % 4}", "locations": [0]}] for i in range(lo, hi)],
                tok_type)
        return pa.table(cols)

    kw = {"tokens_col": "tokens"} if with_tokens else {}
    idx = _build(str(tmp_path), "perdoc", table(0, 30), mode="simple",
                 id_cols=("doc_id",), meta_cols=(), token_len_col="tl", **kw)
    twin = Twin(idx, monkeypatch)
    assert twin(add_docs, rd.from_arrow(table(25, 40)))[0]["n_replaced"] == 5
    twin(remove_docs, ["d1", "d7", "d30"])
    twin(compact)


def test_local_and_ray_updates_identical_locations(ray_session, tmp_path, monkeypatch):
    """A locations index: positions are decoded from the shard and merged."""
    import ray.data as rd

    full = make_corpus(60, seed=13)
    idx = _build(str(tmp_path), "locs", full.slice(0, 40), mode="code",
                 index_type=LOCS_INDEX)
    twin = Twin(idx, monkeypatch)
    texts = full["content"].to_pylist()
    texts[35] += "\nzebra_token quokka zebra_token"
    changed = full.set_column(full.column_names.index("content"), "content",
                              pa.array(texts, pa.string()))
    assert twin(add_docs, rd.from_arrow(changed.slice(35, 15)))[0]["n_replaced"] == 5
    twin(remove_docs, _ids(full.slice(2, 3)))
    twin(compact)


def _count_tokenized(monkeypatch) -> list:
    """Row counts of every batch handed to a ``TokenizeStage`` from now on."""
    seen, real = [], build.TokenizeStage

    def counting(*a, **kw):
        stage = real(*a, **kw)

        def call(batch):
            seen.append(batch.num_rows)
            return stage(batch)
        return call

    monkeypatch.setattr(build, "TokenizeStage", counting)
    return seen


def _changed(full, lo, hi):
    """``full`` with new content for rows [lo, hi)."""
    texts = full["content"].to_pylist()
    for i in range(lo, hi):
        texts[i] += "\nzebra_token quokka"
    return full.set_column(full.column_names.index("content"), "content",
                           pa.array(texts, pa.string()))


def test_rebuild_tokenizes_only_new_docs(ray_session, tmp_path, monkeypatch):
    """An add tokenizes exactly the docs it adds (``n_added`` counts the
    replacements too), a compact none."""
    import ray.data as rd

    full = make_corpus(100, seed=5)
    idx = _build(str(tmp_path), "count", full.slice(0, 70), mode="code")
    seen = _count_tokenized(monkeypatch)
    out = add_docs(idx, rd.from_arrow(_changed(full, 64, 70).slice(64, 26)))
    assert out["n_added"] == 26 and out["n_replaced"] == 6
    assert out["shards_rebuilt"] == 2 and sum(seen) == 26
    assert_from_forward(idx)
    seen.clear()
    remove_docs(idx, _ids(full.slice(10, 4)))
    assert compact(idx)["n_removed"] == 4 and seen == []
    assert_from_forward(idx)


def test_merge_retry_leaves_shard_unchanged(ray_session, tmp_path, monkeypatch):
    """A re-executed BuildShard merge (same fingerprint) skips the shard it
    already rewrote; merging the same group again under a new fingerprint
    also leaves the files as they are."""
    import ray.data as rd

    full = make_corpus(60, seed=8)
    idx = _build(str(tmp_path), "retry", full.slice(0, 40), mode="code")
    calls, real = [], build.BuildShard

    def recording(*a, **kw):
        fn = real(*a, **kw)

        def call(group):
            calls.append((fn, group))
            return fn(group)
        return call

    monkeypatch.setattr(build, "BuildShard", recording)
    add_docs(idx, rd.from_arrow(_changed(full, 36, 40).slice(36, 14)))
    assert len(calls) == 2
    for fn, group in calls:
        sdir = os.path.join(idx, "segments", f"shard={int(group['shard'][0].as_py()):05d}")
        before = {n: _bytes(os.path.join(sdir, n)) for n in os.listdir(sdir)}
        assert fn(group)["skipped"].to_pylist() == [True]
        assert {n: _bytes(os.path.join(sdir, n)) for n in os.listdir(sdir)} == before
        real(fn.opts, fn.segments_dir, "again", forward_dir=fn.forward_dir)(group)
        for n in ("blocks.parquet", "docmeta.parquet"):
            assert _bytes(os.path.join(sdir, n)) == before[n], n
    assert_from_forward(idx)


def test_rebuild_heals_short_shard(ray_session, tmp_path, monkeypatch):
    """A shard left behind its forward parts (an add that rewrote the parts
    but not the shard) gets the docs it lacks tokenized, and the docs the
    parts lost dropped, on its next rebuild."""
    import ray.data as rd

    full = make_corpus(90, seed=9)
    idx = _build(str(tmp_path), "heal", full.slice(0, 60), mode="code")
    shard0 = os.path.join(idx, "segments", "shard=00000")
    stale = str(tmp_path / "stale_shard0")
    shutil.copytree(shard0, stale)
    assert add_docs(idx, rd.from_arrow(_changed(full, 55, 60).slice(55, 30)))["n_replaced"] == 5
    shutil.rmtree(shard0)
    shutil.copytree(stale, shard0)

    fwd = pq.read_table([os.path.join(idx, "forward", f"part={p:05d}.parquet")
                         for p in (0, 1)], columns=["doc", "doc_id"])
    have = pq.read_table(os.path.join(shard0, "docmeta.parquet"))["doc"].to_numpy()
    doc = fwd["doc"].to_numpy()
    missing = np.setdiff1d(doc, have)
    assert missing.size
    # remove a doc the stale shard still holds, so compact rebuilds shard 0
    victim = fwd["doc_id"][int(np.flatnonzero(np.isin(doc, have))[0])].as_py()
    remove_docs(idx, [victim])
    seen = _count_tokenized(monkeypatch)
    assert compact(idx)["shards_rebuilt"] == 1
    assert sum(seen) == missing.size
    assert_from_forward(idx)
