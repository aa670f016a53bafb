"""Resumable partitioned output for pipeline results.

``checkpointed_write`` lands any Dataset as hash-partitioned parquet with
the same durability contract as the index build's segment writer
(stages/segments.py): each partition is written to a tmp dir and committed
with one atomic ``os.replace``, alongside a ``manifest.json`` recording the
caller's input fingerprint.  A re-run with the same fingerprint skips every
already-committed partition's write (exactly-once output, no partial
files); a changed fingerprint invalidates and rewrites.  The skip saves
the write + replaces the failure window — upstream compute still re-runs
on resume; pipelines that need compute-level resume should partition their
INPUT and drive this writer per input shard, as the index build does.

Never one giant file: ``num_partitions`` directories, each independently
committable, so a failed 100-TB run resumes at partition granularity.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .sampling import _id_hashes

MANIFEST = "manifest.json"


class _PartWriter:
    """Group fn: one hash partition -> part=K/data.parquet + manifest."""

    def __init__(self, out_dir: str, fingerprint: str, num_partitions: int,
                 seed: int):
        self.out_dir = out_dir
        self.fingerprint = fingerprint
        self.num_partitions = num_partitions
        self.seed = seed
        self.__name__ = "PartWriter"

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.time()
        part = int(group["__part"][0].as_py())
        data = group.drop_columns(["__part"])
        pdir = os.path.join(self.out_dir, f"part={part:05d}")
        mpath = os.path.join(pdir, MANIFEST)
        if os.path.exists(mpath):
            with open(mpath) as f:
                m = json.load(f)
            # a skip is only valid if the PARTITIONING matches too — the
            # same input hashed over a different partition count or seed
            # assigns different rows to this part id
            if (
                m.get("fingerprint") == self.fingerprint
                and m.get("num_partitions") == self.num_partitions
                and m.get("seed") == self.seed
            ):
                return self._row(part, m["n_rows"], m["bytes"], True, t0)
        # sweep stale tmp dirs a crashed run left for THIS partition
        import glob as _glob
        import shutil

        for stale in _glob.glob(pdir + ".tmp-*"):
            shutil.rmtree(stale, ignore_errors=True)
        tmp = pdir + f".tmp-{uuid.uuid4().hex}"
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(data, os.path.join(tmp, "data.parquet"))
        nbytes = os.path.getsize(os.path.join(tmp, "data.parquet"))
        with open(os.path.join(tmp, MANIFEST), "w") as f:
            json.dump(
                {
                    "part": part,
                    "fingerprint": self.fingerprint,
                    "num_partitions": self.num_partitions,
                    "seed": self.seed,
                    "n_rows": data.num_rows,
                    "bytes": nbytes,
                },
                f,
            )
        if os.path.exists(pdir):
            shutil.rmtree(pdir)
        os.replace(tmp, pdir)
        return self._row(part, data.num_rows, nbytes, False, t0)

    @staticmethod
    def _row(part, n_rows, nbytes, skipped, t0) -> pa.Table:
        return pa.table(
            {
                "part": pa.array([part], pa.int32()),
                "n_rows": pa.array([n_rows], pa.int64()),
                "bytes": pa.array([nbytes], pa.int64()),
                "skipped": pa.array([skipped], pa.bool_()),
                "wall_s": pa.array([round(time.time() - t0, 4)], pa.float64()),
            }
        )


def checkpointed_write(
    ds,
    out_dir: str,
    fingerprint: str,
    partition_col: str,
    num_partitions: int = 16,
    seed: int = 0,
) -> dict:
    """Write ``ds`` as ``out_dir/part=K/data.parquet`` (K = :func:`part_of`,
    the stable md5 hash of ``partition_col`` mod ``num_partitions``) with
    atomic per-partition commit + manifest.  ``fingerprint`` identifies the
    INPUT (source path + mtime, an options hash, ...) — same fingerprint
    skips committed parts, different one rewrites.  Returns a summary dict."""
    if not 1 <= num_partitions <= 99_999:
        raise ValueError(
            f"num_partitions={num_partitions}: the part=NNNNN layout is "
            "5-digit; shard the OUTPUT DIRECTORY before the partition count"
        )
    os.makedirs(out_dir, exist_ok=True)

    def assign(batch: pa.Table) -> pa.Table:
        return batch.append_column("__part", pa.array(
            part_of(batch[partition_col], num_partitions, seed), pa.int32()))

    rows = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_PartWriter(out_dir, fingerprint, num_partitions, seed),
                    batch_format="pyarrow")
        .to_pandas()
    )

    sweep_foreign_parts(out_dir, fingerprint, num_partitions, seed)

    if rows.empty:  # empty input: no partitions at all (valid — e.g. an
        return {    # initial 'seen' digest set before any release)
            "parts_written": 0, "parts_skipped": 0, "n_rows": 0,
            "bytes": 0, "out_dir": out_dir,
        }
    return {
        "parts_written": int((~rows["skipped"]).sum()),
        "parts_skipped": int(rows["skipped"].sum()),
        "n_rows": int(rows["n_rows"].sum()),
        "bytes": int(rows["bytes"].sum()),
        "out_dir": out_dir,
    }


def sweep_foreign_parts(out_dir: str, fingerprint: str, num_partitions: int,
                        seed: int) -> None:
    """Remove FOREIGN committed partitions: a previous run with a different
    fingerprint, partition count, or seed leaves part dirs the current run
    never touched; without the sweep a reader would mix their rows into the
    new output (exactly-once violation).  Kept dirs must carry the current
    run's fingerprint/partitioning AND a part id below its partition
    count.  Shared by checkpointed_write and build_ivf_index."""
    import glob
    import shutil

    for pdir in glob.glob(os.path.join(out_dir, "part=" + "[0-9]" * 5)):
        mpath = os.path.join(pdir, MANIFEST)
        try:
            with open(mpath) as f:
                m = json.load(f)
            foreign = (
                m.get("fingerprint") != fingerprint
                or m.get("num_partitions") != num_partitions
                or m.get("seed") != seed
                or int(m.get("part", -1)) >= num_partitions
            )
        except (OSError, ValueError):
            foreign = True  # unreadable manifest: not a committed partition
        if foreign:
            shutil.rmtree(pdir, ignore_errors=True)


def committed_parts(out_dir: str, fingerprint: str, num_partitions: int,
                    seed: int = 0) -> set:
    """Part ids already committed by a previous run with the SAME
    fingerprint/partitioning — the resume primitive: filter the INPUT to
    rows hashing into non-committed parts before recomputing, so a
    restarted job skips the finished work itself, not just the write
    (checkpointed_write alone only skips the write)."""
    import glob

    done = set()
    for pdir in glob.glob(os.path.join(out_dir, "part=" + "[0-9]" * 5)):
        try:
            with open(os.path.join(pdir, MANIFEST)) as f:
                m = json.load(f)
        except (OSError, ValueError):
            continue
        if (m.get("fingerprint") == fingerprint
                and m.get("num_partitions") == num_partitions
                and m.get("seed") == seed
                and 0 <= int(m.get("part", -1)) < num_partitions):
            done.add(int(m["part"]))
    return done


def part_of(keys, num_partitions: int, seed: int = 0):
    """The partition id checkpointed_write assigns to each key — exposed so
    callers can pre-filter inputs against :func:`committed_parts`.  Keys
    are an Arrow column or array-like of non-null integers or strings
    (:func:`riot_ray.hashing.id_strings`)."""
    h = _id_hashes(keys, seed)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def read_checkpointed(out_dir: str):
    """Dataset over every committed partition (tmp dirs never match)."""
    import glob

    import ray.data as rd

    # five-digit pattern: a crashed run's "part=00001.tmp-<uuid>" dir (which
    # already holds data + manifest pre-replace) must never be read
    files = sorted(
        glob.glob(os.path.join(out_dir, "part=" + "[0-9]" * 5, "data.parquet"))
    )
    return rd.read_parquet(files)
