"""Pluggable segment-storage engines.

The rebuild of riot's ``RegisterStore`` extension surface
(/root/reference/store/store.go:29-72): a process-wide registry mapping
an engine NAME to the pair of table write/read functions (plus a file
extension) used for the per-shard segment files (blocks / docmeta).
Built-ins:

* ``"parquet"`` (default) — columnar, compressed, the durable format the
  rest of the repo standardizes on.
* ``"feather"`` — Arrow IPC: no decode on open (mmap-friendly), larger
  on disk; the latency-serving trade.

Selection follows riot's precedence (store.go:55-66): the
``RIOT_RAY_STORE_ENGINE`` environment variable overrides
``EngineOpts.store_engine``, which defaults to parquet.  READERS
autodetect by extension — an index written with any registered engine
opens with zero configuration, and mixed-engine indexes (e.g. after a
compaction under a different setting) read correctly shard by shard.

Scope: the segment files only.  The forward table and every pipeline
input/output stay Parquet — they are ``ray.data`` Datasets, where
Parquet's pruned reads (columns=, row groups) are load-bearing.

Custom engines register like riot's stores do::

    from riot_ray.store import register_store
    register_store("myformat", ".myf", my_write_fn, my_read_fn)
    opts = EngineOpts(store_engine="myformat")
"""

from __future__ import annotations

import glob as _glob
import os
from dataclasses import dataclass

ENV_VAR = "RIOT_RAY_STORE_ENGINE"


@dataclass(frozen=True)
class StoreEngine:
    name: str
    extension: str  # ".parquet" — leading dot
    write_table: object  # (pa.Table, path) -> None
    read_table: object  # (path, columns=None) -> pa.Table
    count_rows: object = None  # optional: (path) -> int, metadata-cheap


_REGISTRY: dict[str, StoreEngine] = {}


def register_store(name: str, extension: str, write_table, read_table,
                   count_rows=None):
    """Register (or replace) a segment-storage engine — the analog of
    ``store.RegisterStore`` (/root/reference/store/store.go:29-40).

    ``count_rows(path) -> int`` is optional; when provided it lets size
    gates (e.g. the termstats driver-vs-distributed routing) see the true
    row count without loading the table.  Engines without it are routed
    down the distributed (safe) path when sizes matter."""
    if not extension.startswith("."):
        raise ValueError(f"extension must start with '.': {extension!r}")
    _REGISTRY[name] = StoreEngine(name, extension, write_table, read_table,
                                  count_rows)


def registered_stores() -> list[str]:
    return sorted(_REGISTRY)


def get_store(name: str | None = None) -> StoreEngine:
    """Resolve an engine: env override > requested name > parquet
    (riot's env precedence, store.go:55-66)."""
    name = os.environ.get(ENV_VAR) or name or "parquet"
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown store engine {name!r}; registered: {registered_stores()}"
        ) from None


def segment_file(dirpath: str, stem: str) -> tuple[str, StoreEngine]:
    """Locate ``stem.<ext>`` in a segment dir under ANY registered engine
    (extension autodetect — readers need no config)."""
    for eng in _REGISTRY.values():
        p = os.path.join(dirpath, stem + eng.extension)
        if os.path.exists(p):
            return p, eng
    raise FileNotFoundError(
        f"no {stem}.* under {dirpath} for any registered engine "
        f"({registered_stores()})"
    )


def read_segment(dirpath: str, stem: str, columns=None):
    path, eng = segment_file(dirpath, stem)
    return eng.read_table(path, columns=columns)


def glob_segments(pattern_dir: str, stem: str) -> list[str]:
    """All ``<pattern_dir>/<stem>.<ext>`` matches across registered
    engines, sorted — the multi-engine replacement for
    ``glob(".../stem.parquet")``."""
    out: list[str] = []
    for eng in _REGISTRY.values():
        out.extend(_glob.glob(os.path.join(pattern_dir, stem + eng.extension)))
    return sorted(out)


def read_any(path: str, columns=None):
    """Read a segment file written by whichever registered engine owns its
    extension."""
    for eng in _REGISTRY.values():
        if path.endswith(eng.extension):
            return eng.read_table(path, columns=columns)
    raise ValueError(f"no registered engine for {path!r}")


def count_any(path: str) -> int | None:
    """Metadata-cheap row count for a segment file, or None when its
    engine registered no ``count_rows`` hook (size gates then take the
    distributed path rather than guessing)."""
    for eng in _REGISTRY.values():
        if path.endswith(eng.extension):
            return int(eng.count_rows(path)) if eng.count_rows else None
    raise ValueError(f"no registered engine for {path!r}")


def segments_dataset(files: list, columns=None):
    """A ``ray.data.Dataset`` over segment files of ANY registered engine:
    parquet files stream through ``read_parquet`` (pruned, distributed);
    other engines load one file per task (segment files are per-shard
    sized, so a file is already the right task granularity).

    The engine registry is snapshotted DRIVER-side into the task closure
    (extension -> read fn): engines registered via ``register_store`` in
    the driver process work without any worker-side registration — the
    same pickled-function contract BuildShard's writer uses."""
    import ray.data as rd

    pq_files = [f for f in files if f.endswith(".parquet")]
    others = [f for f in files if not f.endswith(".parquet")]
    parts = []
    if pq_files:
        parts.append(rd.read_parquet(pq_files, columns=columns))
    if others:
        readers = {eng.extension: eng.read_table for eng in _REGISTRY.values()}

        def _read(p, columns):
            for ext, fn in readers.items():
                if p.endswith(ext):
                    return fn(p, columns=columns)
            raise ValueError(f"no registered engine for {p!r}")

        def load(batch):
            import pyarrow as pa

            tabs = [_read(p, columns=columns) for p in batch["path"].to_pylist()]
            return pa.concat_tables(tabs) if tabs else None

        parts.append(
            rd.from_items([{"path": f} for f in others]).map_batches(
                load, batch_format="pyarrow", batch_size=1
            )
        )
    if not parts:
        raise ValueError("segments_dataset: no files")
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    return ds


# ---- built-ins ------------------------------------------------------------ #
def _pq_write(table, path):
    import pyarrow.parquet as pq

    pq.write_table(table, path)


def _pq_read(path, columns=None):
    import pyarrow.parquet as pq

    return pq.read_table(path, columns=columns)


def _feather_write(table, path):
    import pyarrow.feather as feather

    feather.write_feather(table, path)


def _feather_read(path, columns=None):
    import pyarrow.feather as feather

    return feather.read_table(path, columns=columns)


def _pq_count(path):
    import pyarrow.parquet as pq

    return pq.read_metadata(path).num_rows


def _feather_count(path):
    # pyarrow.dataset counts Arrow-IPC rows from batch metadata without
    # materializing columns
    import pyarrow.dataset as pads

    return pads.dataset(path, format="feather").count_rows()


register_store("parquet", ".parquet", _pq_write, _pq_read, _pq_count)
register_store("feather", ".feather", _feather_write, _feather_read,
               _feather_count)
