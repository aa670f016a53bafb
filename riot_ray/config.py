"""Engine configuration.

Mirrors the *semantics* of the reference's option structs
(``/root/reference/types/engine_init_options.go:22-160``,
``/root/reference/types/indexer_init_options.go:19-58``) re-expressed for a
Ray-Data-native batch engine.  Nothing here is a port: the knobs that only
made sense for goroutine pools (channel buffer sizes, thread counts) are
replaced by Ray Data stage sizing (num shards, batch size, actor pool
concurrency).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field


# Index variants — reference /root/reference/types/indexer_init_options.go:19-32
DOCIDS_INDEX = 0  # docs only (no scoring payload)
FREQS_INDEX = 1   # + term frequencies -> BM25 (reference default)
LOCS_INDEX = 2    # + positions -> BM25 + proximity + snippet locations

INDEX_TYPES = {DOCIDS_INDEX: "docids", FREQS_INDEX: "freqs", LOCS_INDEX: "locs"}

# Tokenizer modes (see riot_ray/tokenize.py):
#   "simple"  - lowercase + split on non-[a-z0-9]; SQL-oracle-expressible
#   "code"    - simple + snake/camelCase identifier sub-token expansion (flagship)
#   "space"   - reference conformance mode: riot Using=4/NotUseGse semantics
#               incl. the ForSplitData cumulative-prefix quirk
#               (/root/reference/segment.go:40-77,192-208)
#   "chars"   - riot's non-gse char-split path (Using != 4): single chars
#               through the same ForSplitData quirk (segment.go:105-110)
#   "pretokenized" - tokens column passthrough (/root/reference/segment.go:117-125)
#   "dict"    - gse-analog dictionary segmentation (riot Using=0/1 —
#               /root/reference/segment.go:128-169): max-probability unigram
#               DP over a frequency dictionary, byte-offset positions; needs
#               dict_path and/or dict_entries
TOKENIZE_MODES = ("simple", "code", "space", "chars", "pretokenized", "dict")


@dataclass
class BM25Params:
    """Reference defaults K1=2.0, B=0.75
    (/root/reference/types/engine_init_options.go:35-42)."""

    k1: float = 2.0
    b: float = 0.75


@dataclass
class EngineOpts:
    # --- data model -------------------------------------------------------
    content_col: str = "content"
    # doc_id = "/".join of these columns' values (+ "@commit" handled by caller
    # via id_sep formatting); if a single column, it is used verbatim.
    id_cols: tuple = ("repo", "path", "commit")
    # extra columns copied into the forward table (hydration / custom scoring)
    meta_cols: tuple = ("lang",)
    tokens_col: str | None = None    # pretokenized input column
    labels_col: str | None = None    # labels column: list<string>, tf=0 postings
    token_len_col: str | None = None  # explicit DocIndex.TokenLen override
    seq_col: str | None = None       # ingest order for keep-last dedup (D4)
    store_content: bool = True       # forward table keeps raw content (riot ranker does)

    # --- tokenize ---------------------------------------------------------
    mode: str = "code"
    index_type: int = FREQS_INDEX
    stop_tokens: tuple = ()          # /root/reference/stop_tokens.go:31-57
    lowercase: bool = True
    # dict mode only: gse-format dictionary file (riot's GseDict,
    # /root/reference/engine.go:292-301) and/or inline (word, freq) entries
    dict_path: str | None = None
    dict_entries: tuple = ()
    # riot's PinYin option (/root/reference/segment.go:231-241,316-378):
    # expand content into char/prefix/syllable/abbreviation tokens.  The
    # syllable table is data — pinyin_dict points at a "char pinyin" file
    # (DEMO_MAPPING used when None; see riot_ray/pinyin.py).
    pinyin: bool = False
    pinyin_dict: str | None = None
    # riot Using==6 (/root/reference/segment.go:59-70): ForSplitData also
    # emits every suffix-run concatenation past each element — stepwise,
    # including re-emissions over empty elements.  Conformance-mode only;
    # applies to the space/chars (ForSplitData) modes.
    suffix_combis: bool = False

    # --- scoring ----------------------------------------------------------
    bm25: BM25Params = field(default_factory=BM25Params)
    # float32 = riot-conformant scoring (/root/reference/core/indexer.go:523-547);
    # float64 = oracle mode (matches DuckDB SQL arithmetic).
    score_dtype: str = "float32"

    # --- physical layout (scale knobs) ------------------------------------
    num_parts: int = 16      # forward-table hash partitions (doc_id -> part)
    num_shards: int = 8      # query shards = doc-range buckets; the groupby key
    block_size: int = 4096   # postings per block row (block-max WAND granularity)
    tokenize_batch_size: int = 1024
    tokenize_concurrency: int | None = None  # None -> stateless tasks size themselves
    # CPUs requested per BuildShard group task: >1 throttles concurrent
    # shard builds (they are memory-bandwidth heavy sorts) and reserves
    # heap headroom per task — measured ~15% faster at 2 on a 16-cpu node
    shard_build_num_cpus: float = 1.0
    # segment-storage engine for the per-shard blocks/docmeta files
    # (riot's pluggable store registry, /root/reference/store/store.go:29-72;
    # see riot_ray/store.py — "parquet" default, "feather" built-in, custom
    # engines via register_store; RIOT_RAY_STORE_ENGINE env overrides)
    store_engine: str = "parquet"

    def id_for(self) -> str:
        return INDEX_TYPES[self.index_type]

    # knobs that change scheduling/batching but NOT the bytes produced —
    # excluded from the semantic fingerprint so tuning them (or upgrading)
    # never invalidates resume manifests
    SCHEDULING_ONLY = ("tokenize_batch_size", "tokenize_concurrency",
                       "shard_build_num_cpus")

    def to_json(self) -> str:
        d = asdict(self)
        d["id_cols"] = list(self.id_cols)
        d["meta_cols"] = list(self.meta_cols)
        d["stop_tokens"] = list(self.stop_tokens)
        return json.dumps(d, sort_keys=True)

    def semantic_json(self) -> str:
        """Canonical form for build fingerprints: scheduling-only knobs
        excluded (identical output regardless of their values)."""
        d = json.loads(self.to_json())
        for k in self.SCHEDULING_ONLY:
            d.pop(k, None)
        return json.dumps(d, sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "EngineOpts":
        return EngineOpts.from_json_dict(json.loads(s))

    @staticmethod
    def from_toml(path: str) -> "EngineOpts":
        """TOML config source (riot's ``New("*.toml")`` —
        /root/reference/riot.go:32-50).  Top-level keys or an
        ``[engine]`` table map 1:1 onto EngineOpts fields; ``[bm25]``
        carries k1/b.  For riot's fsnotify hot-watch behavior use
        :func:`watch_toml`."""
        import tomllib

        with open(path, "rb") as f:
            data = tomllib.load(f)
        d = dict(data.get("engine", {}))
        d.update({k: v for k, v in data.items() if not isinstance(v, dict)})
        if "bm25" in data:
            d["bm25"] = BM25Params(**data["bm25"])
        for k in ("id_cols", "meta_cols", "stop_tokens", "dict_entries"):
            if k in d:
                d[k] = tuple(tuple(x) if isinstance(x, list) else x for x in d[k])
        return EngineOpts(**d)

    @staticmethod
    def from_json_dict(d: dict) -> "EngineOpts":
        d = dict(d)
        d["bm25"] = BM25Params(**d["bm25"])
        d["id_cols"] = tuple(d["id_cols"])
        d["meta_cols"] = tuple(d["meta_cols"])
        d["stop_tokens"] = tuple(d["stop_tokens"])
        if "dict_entries" in d:
            d["dict_entries"] = tuple(
                tuple(x) if isinstance(x, list) else x for x in d["dict_entries"]
            )
        return EngineOpts(**d)


class TomlWatcher:
    """Handle returned by :func:`watch_toml` — ``stop()`` ends the poll
    thread; context-manager use stops on exit."""

    def __init__(self, thread, stop_event):
        self._thread = thread
        self._stop = stop_event

    def stop(self, timeout: float = 5.0):
        self._stop.set()
        self._thread.join(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


def watch_toml(path: str, on_change, poll_s: float = 1.0) -> TomlWatcher:
    """Hot-watch a TOML config (riot's fsnotify watcher,
    /root/reference/riot.go:32-50, rebuilt as mtime polling — no inotify
    dependency, works on any filesystem).  On every content change,
    ``on_change(EngineOpts)`` fires with the freshly parsed options; parse
    errors are swallowed (a half-written file is retried next poll, the
    same behavior riot's re-init on watch events degrades to).  Returns a
    :class:`TomlWatcher`; callers decide what to do with the new opts —
    typically rebuild/reload a searcher (see tests/test_api.py)."""
    import threading

    stop = threading.Event()
    state = {"sig": None}

    def _sig():
        # content digest, not (mtime, size): Linux mtime comes from the
        # coarse clock (one tick granularity), so a same-size rewrite
        # landing in the same tick would be invisible forever.  Config
        # files are tiny; one read per poll is free.
        try:
            with open(path, "rb") as f:
                return hashlib.md5(f.read()).digest()
        except OSError:
            return None

    state["sig"] = _sig()

    def loop():
        while not stop.wait(poll_s):
            sig = _sig()
            if sig is None or sig == state["sig"]:
                continue
            state["sig"] = sig
            try:
                opts = EngineOpts.from_toml(path)
            except Exception:
                continue  # half-written file: retry next poll
            try:
                on_change(opts)
            except Exception:
                # a raising callback must not kill the watcher thread —
                # one bad reload would otherwise end hot-watch silently
                logging.getLogger(__name__).exception(
                    "watch_toml: on_change callback raised; watcher continues"
                )

    t = threading.Thread(target=loop, name="riot-ray-toml-watch", daemon=True)
    t.start()
    return TomlWatcher(t, stop)


# Sentinel "term" carrying docmeta for documents that produce no postings
# (riot still counts such docs in numDocs/totalTokenLen —
# /root/reference/core/indexer.go:202-205 increments per doc regardless of
# keywords).  No tokenizer mode can emit a NUL byte, so it never collides
# with a real term; the segment builder strips it from posting lists.
META_TERM = "\x00"

# doc u64 layout: doc = (part << PART_SHIFT) | seq_within_part.
# 2^40 docs per partition; 2^23 partitions — sized for the 10^12-file target
# (4096 parts x 2.4e8 docs/part, or 10^6 parts at fewer docs each).
PART_SHIFT = 40


def shard_of_part(part: int, num_parts: int, num_shards: int) -> int:
    """Contiguous mapping part -> query shard so each shard owns a contiguous
    doc-u64 range (this is what makes hot-term posting lists split into
    disjoint, ordered doc ranges across shards — the salting strategy)."""
    return part * num_shards // num_parts
