"""Event-time window operators over a timestamped event table.

Beyond-reference extensions (the reference engine has no event-stream
operators; these are the windowed aggregates / sessionization a large-scale
training-data or analytics pipeline needs, expressed Ray-Data-first):

* :func:`tumbling_window_agg` — fixed windows, map-side combined: the
  shuffle carries one partial row per (batch, window, key), never raw
  events, so the exchange stays tiny at any event volume.
* :func:`sliding_window_agg` — overlapping windows via a vectorized
  flat-map into ``width/slide`` buckets per event, then the same
  combined aggregation.
* :func:`sessionize` — gap-based sessions per user.  The one operator
  here that must co-locate raw events: ``groupby(user)`` shuffles each
  user's timeline to one task.  Default partitioning assumption: a single
  user's event history fits in a worker's heap.  For pathological keys
  (bot users), pass ``chunk_s`` — the raw-event group becomes one
  (user, time-chunk) slice and an exact summary-sized boundary stitch
  restores the unchunked semantics (same knob on
  :func:`asof_attribution`).
* :func:`top_keys_per_window` — per-window top-k keys by aggregate
  value; ranks the already-aggregated (window, key) partials, so the
  heavy data never moves twice.

All outputs use int64 epoch columns (seconds for window starts,
microseconds for session bounds) and half-away-from-zero 6dp rounding so
every operator is DuckDB-oracle-checkable by value hash.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .analysis import round6

_US = 1_000_000


def _epoch_us(batch: pa.Table, ts_col: str) -> np.ndarray:
    col = batch[ts_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(zero_copy_only=False)


def _partial(batch: pa.Table, ws: np.ndarray, key: pa.Array, value: np.ndarray) -> pa.Table:
    """Combine one batch's (window, key) rows map-side: n + sum partials."""
    t = pa.table({"window_start": pa.array(ws, pa.int64()), "k": key,
                  "v": pa.array(value, pa.float64())})
    g = t.group_by(["window_start", "k"]).aggregate([("v", "sum"), ("v", "count")])
    return pa.table({
        "window_start": g["window_start"],
        "k": g["k"],
        "sum_value": g["v_sum"],
        "n_events": g["v_count"].cast(pa.int64()),
    })


def _finish(agg, key_col: str):
    """Reduce partials -> final (window_start, key, n_events, sum_value,
    mean_value) with oracle-grade rounding."""

    def final(batch: pa.Table) -> pa.Table:
        n = batch["n_events"].to_numpy(zero_copy_only=False)
        s = batch["sum_value"].to_numpy(zero_copy_only=False)
        return pa.table({
            "window_start": batch["window_start"],
            key_col: batch["k"],
            "n_events": pa.array(n, pa.int64()),
            "sum_value": pa.array(round6(s), pa.float64()),
            "mean_value": pa.array(round6(s / np.maximum(n, 1)), pa.float64()),
        })

    from ray.data.aggregate import Sum

    return (
        agg.groupby(["window_start", "k"])
        .aggregate(Sum("sum_value", alias_name="sum_value"),
                   Sum("n_events", alias_name="n_events"))
        .map_batches(final, batch_format="pyarrow")
    )


def tumbling_window_agg(
    ds,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    width_s: int = 3600,
):
    """Fixed event-time windows: (window_start, key) -> count/sum/mean.

    window_start = floor(epoch_seconds / width) * width (int64 seconds).
    Shuffle bytes are bounded by (#batches x #windows-per-batch x #keys),
    independent of event count — the map-side combine is the whole point.
    """
    w_us = width_s * _US

    def partial(batch: pa.Table) -> pa.Table:
        t = _epoch_us(batch, ts_col)
        ws = t // w_us * width_s
        key = batch[key_col]
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        return _partial(batch, ws, key,
                        batch[value_col].to_numpy(zero_copy_only=False))

    return _finish(ds.map_batches(partial, batch_format="pyarrow"), key_col)


def sliding_window_agg(
    ds,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    width_s: int = 3600,
    slide_s: int = 900,
):
    """Overlapping windows [ws, ws+width), ws aligned to ``slide_s``.

    Each event lands in exactly ``width/slide`` windows — emitted by one
    vectorized ``np.repeat`` flat-map (no Python loop), then combined
    map-side like the tumbling case.  ``width_s`` must be a multiple of
    ``slide_s``.
    """
    if width_s % slide_s:
        raise ValueError("width_s must be a multiple of slide_s")
    k = width_s // slide_s
    slide_us = slide_s * _US

    def partial(batch: pa.Table) -> pa.Table:
        t = _epoch_us(batch, ts_col)
        ws_max = t // slide_us * slide_s
        ws = (ws_max[:, None] - np.arange(k, dtype=np.int64) * slide_s).ravel()
        key = batch[key_col]
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        key = key.take(pa.array(np.repeat(np.arange(len(t)), k)))
        val = np.repeat(batch[value_col].to_numpy(zero_copy_only=False), k)
        return _partial(batch, ws, key, val)

    return _finish(ds.map_batches(partial, batch_format="pyarrow"), key_col)


def sessionize(
    ds,
    ts_col: str = "ts",
    user_col: str = "user_id",
    id_col: str = "event_id",
    value_col: str = "value",
    gap_s: int = 1800,
    chunk_s: int | None = None,
):
    """Gap-based sessions: a new session starts when the time since the
    user's previous event exceeds ``gap_s`` (strictly greater).

    Output: (user_id, session_id 1-based per user, start_us, end_us,
    n_events, sum_value).  Events are ordered by (ts, event_id) within a
    user so ties are deterministic on both the Ray and SQL sides.

    Hot-key skew: with ``chunk_s=None`` the ``groupby(user)`` group is one
    user's FULL timeline — the documented partitioning assumption is that
    it fits a worker's heap.  Pass ``chunk_s`` (coarse time width, e.g. a
    day) to bound the raw-event group to one (user, time-chunk) slice; the
    per-chunk sessions are then stitched exactly at chunk boundaries by a
    second, summary-sized ``groupby(user)`` pass (two consecutive chunked
    sessions merge iff the time gap between them is <= gap, which is
    precisely the unchunked rule — the stitch input is session summaries,
    #sessions rows, never raw events).  A bot user with 10^9 events costs
    10^9/chunk-slices tasks instead of one monster task."""
    gap_us = gap_s * _US

    _schema = pa.schema([
        ("user_id", pa.int64()), ("session_id", pa.int64()),
        ("start_us", pa.int64()), ("end_us", pa.int64()),
        ("n_events", pa.int64()), ("sum_value", pa.float64()),
    ])

    def sessions_of(group: pa.Table, round_sums: bool) -> pa.Table:
        if group.num_rows == 0:  # schema-probe batch
            return _schema.empty_table()
        t = _epoch_us(group, ts_col)
        eid = group[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t))
        t = t[order]
        val = group[value_col].to_numpy(zero_copy_only=False)[order]
        new = np.r_[True, (t[1:] - t[:-1]) > gap_us]
        sid = np.cumsum(new)  # 1-based
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(t)]
        n = ends - starts
        sums = np.add.reduceat(val, starts) if len(starts) else np.empty(0)
        user = group[user_col][0].as_py() if len(group) else None
        m = len(starts)
        return pa.table({
            "user_id": pa.array([user] * m, pa.int64()),
            "session_id": pa.array(sid[starts], pa.int64()),
            "start_us": pa.array(t[starts], pa.int64()),
            "end_us": pa.array(t[ends - 1], pa.int64()),
            "n_events": pa.array(n, pa.int64()),
            "sum_value": pa.array(
                round6(sums) if round_sums else sums, pa.float64()
            ),
        })

    if chunk_s is None:
        return ds.groupby(user_col).map_groups(
            lambda g: sessions_of(g, True), batch_format="pyarrow"
        )

    chunk_us = chunk_s * _US

    def tag_chunk(batch: pa.Table) -> pa.Table:
        t = _epoch_us(batch, ts_col)
        return batch.append_column(
            "__chunk", pa.array(t // chunk_us, pa.int64())
        )

    def stitch(group: pa.Table) -> pa.Table:
        """Merge one user's per-chunk session summaries: consecutive
        summaries (by start) merge iff gap <= gap_us — only possible
        across chunk boundaries since in-chunk gaps already exceeded it."""
        if group.num_rows == 0:
            return _schema.empty_table()
        s = group["start_us"].to_numpy(zero_copy_only=False)
        order = np.argsort(s, kind="stable")
        s = s[order]
        e = group["end_us"].to_numpy(zero_copy_only=False)[order]
        n = group["n_events"].to_numpy(zero_copy_only=False)[order]
        v = group["sum_value"].to_numpy(zero_copy_only=False)[order]
        new = np.r_[True, (s[1:] - e[:-1]) > gap_us]
        starts = np.flatnonzero(new)
        seg_ends = np.r_[starts[1:], len(s)]
        user = group["user_id"][0].as_py()
        m = len(starts)
        return pa.table({
            "user_id": pa.array([user] * m, pa.int64()),
            "session_id": pa.array(np.arange(1, m + 1), pa.int64()),
            "start_us": pa.array(s[starts], pa.int64()),
            "end_us": pa.array(e[seg_ends - 1], pa.int64()),
            "n_events": pa.array(np.add.reduceat(n, starts), pa.int64()),
            "sum_value": pa.array(
                round6(np.add.reduceat(v, starts)), pa.float64()
            ),
        })

    partial = (
        ds.map_batches(tag_chunk, batch_format="pyarrow")
        .groupby([user_col, "__chunk"])
        .map_groups(lambda g: sessions_of(g, False), batch_format="pyarrow")
    )
    return partial.groupby("user_id").map_groups(
        stitch, batch_format="pyarrow"
    )


def top_keys_per_window(
    ds,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    width_s: int = 3600,
    k: int = 3,
):
    """Per tumbling window, the top-k keys by summed value (rank 1-based;
    ties broken by key ascending on the ROUNDED sum so Ray and SQL agree).

    Runs entirely over the already-combined (window, key) aggregate —
    the per-window group a ``map_groups`` task sees is at most #keys rows.
    """
    agg = tumbling_window_agg(ds, ts_col, key_col, value_col, width_s)

    def topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:  # schema-probe batch
            return pa.schema([
                ("window_start", pa.int64()), (key_col, pa.string()),
                ("sum_value", pa.float64()), ("rank", pa.int64()),
            ]).empty_table()
        s = group["sum_value"].to_numpy(zero_copy_only=False)
        keys = group[key_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((keys, -s))[:k]
        return pa.table({
            "window_start": group["window_start"].take(pa.array(order)),
            key_col: group[key_col].take(pa.array(order)),
            "sum_value": group["sum_value"].take(pa.array(order)),
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
        })

    return agg.groupby("window_start").map_groups(topk, batch_format="pyarrow")


def asof_attribution(
    ds,
    ts_col: str = "ts",
    user_col: str = "user_id",
    id_col: str = "event_id",
    type_col: str = "event_type",
    source_type: str = "click",
    target_type: str = "purchase",
    chunk_s: int | None = None,
):
    """Per-user AS-OF join (attribution): for every ``target_type`` event,
    the user's most recent STRICTLY-PRECEDING ``source_type`` event and the
    elapsed microseconds — the classic click->purchase attribution.

    Ray Data has no native as-of join; this is the documented composition:
    ``groupby(user)`` co-locates each user's timeline, and inside the group
    a vectorized forward-fill (``np.maximum.accumulate`` over source row
    indices) resolves every target in O(n) — no per-row loop, no windowed
    self-join blowup.  Same partitioning assumption as :func:`sessionize`.

    Hot-key skew: ``chunk_s`` bounds the raw-event group to one
    (user, time-chunk) slice.  Targets resolve in-chunk where possible; a
    target with no in-chunk preceding source joins the carry-in — the last
    source of any EARLIER chunk — in a second ``groupby(user)`` pass whose
    input is only unresolved targets plus one last-source summary row per
    (user, chunk): summary-sized, never raw events.  Results are exactly
    the unchunked semantics.

    Output: (event_id of the target, user_id, src_event_id nullable,
    lag_us nullable).  Ordering ties broken by (ts, event_id) on both the
    Ray and SQL sides.
    """
    _schema = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("src_event_id", pa.int64()), ("lag_us", pa.int64()),
    ])

    def resolve(group: pa.Table):
        """(resolved-table, tgt indices w/o in-group source, ordered
        t/eid arrays, user) — shared by both paths."""
        t = _epoch_us(group, ts_col)
        eid = group[id_col].to_numpy(zero_copy_only=False)
        typ = group[type_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t))
        t, eid, typ = t[order], eid[order], typ[order]
        n = len(t)
        idx = np.arange(n)
        # forward-fill index of the last source row at-or-before each row;
        # a row is never both source and target, so "at-or-before" equals
        # "strictly preceding" for every target row
        src_at = np.where(typ == source_type, idx, -1)
        last_src = np.maximum.accumulate(src_at)
        tgt = np.flatnonzero(typ == target_type)
        hit = last_src[tgt]
        valid = hit >= 0
        user = group[user_col][0].as_py()
        src_rows = np.flatnonzero(typ == source_type)
        return t, eid, tgt, hit, valid, user, src_rows

    def per_user(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:  # schema-probe batch
            return _schema.empty_table()
        t, eid, tgt, hit, valid, user, _ = resolve(group)
        src_id = np.where(valid, eid[np.maximum(hit, 0)], 0)
        lag = np.where(valid, t[tgt] - t[np.maximum(hit, 0)], 0)
        return pa.table({
            "event_id": pa.array(eid[tgt], pa.int64()),
            "user_id": pa.array(np.full(len(tgt), user), pa.int64()),
            "src_event_id": pa.array(
                np.ma.masked_array(src_id, mask=~valid).astype(np.int64)),
            "lag_us": pa.array(np.ma.masked_array(lag, mask=~valid).astype(np.int64)),
        })

    if chunk_s is None:
        return ds.groupby(user_col).map_groups(per_user, batch_format="pyarrow")

    chunk_us = chunk_s * _US
    # unified per-chunk output: kind 0 = resolved target (final row),
    # kind 1 = unresolved target (needs carry-in), kind 2 = chunk's
    # last-source summary
    _part_schema = pa.schema([
        ("kind", pa.int8()), ("user_id", pa.int64()), ("chunk", pa.int64()),
        ("event_id", pa.int64()), ("t_us", pa.int64()),
        ("src_event_id", pa.int64()), ("lag_us", pa.int64()),
    ])

    def tag_chunk(batch: pa.Table) -> pa.Table:
        t = _epoch_us(batch, ts_col)
        return batch.append_column(
            "__chunk", pa.array(t // chunk_us, pa.int64())
        )

    def per_chunk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _part_schema.empty_table()
        t, eid, tgt, hit, valid, user, src_rows = resolve(group)
        chunk = int(group["__chunk"][0].as_py())
        kinds, eids, ts_out, srcs, lags = [], [], [], [], []
        res = tgt[valid]
        hit_v = hit[valid]
        kinds.append(np.zeros(len(res), np.int8))
        eids.append(eid[res])
        ts_out.append(t[res])
        srcs.append(eid[hit_v])
        lags.append(t[res] - t[hit_v])
        unres = tgt[~valid]
        kinds.append(np.ones(len(unres), np.int8))
        eids.append(eid[unres])
        ts_out.append(t[unres])
        srcs.append(np.zeros(len(unres), np.int64))
        lags.append(np.zeros(len(unres), np.int64))
        if len(src_rows):
            last = src_rows[-1]
            kinds.append(np.full(1, 2, np.int8))
            eids.append(eid[last:last + 1])
            ts_out.append(t[last:last + 1])
            srcs.append(np.zeros(1, np.int64))
            lags.append(np.zeros(1, np.int64))
        m = sum(len(x) for x in kinds)
        return pa.table({
            "kind": pa.array(np.concatenate(kinds), pa.int8()),
            "user_id": pa.array(np.full(m, user), pa.int64()),
            "chunk": pa.array(np.full(m, chunk), pa.int64()),
            "event_id": pa.array(np.concatenate(eids), pa.int64()),
            "t_us": pa.array(np.concatenate(ts_out), pa.int64()),
            "src_event_id": pa.array(np.concatenate(srcs), pa.int64()),
            "lag_us": pa.array(np.concatenate(lags), pa.int64()),
        })

    def finalize(batch: pa.Table) -> pa.Table:
        """kind-0 rows are already final."""
        sel = pc.equal(batch["kind"], 0)
        b = batch.filter(sel)
        return pa.table({
            "event_id": b["event_id"],
            "user_id": b["user_id"],
            "src_event_id": b["src_event_id"].cast(pa.int64()),
            "lag_us": b["lag_us"].cast(pa.int64()),
        })

    def carry_in(group: pa.Table) -> pa.Table:
        """One user's unresolved targets + per-chunk source summaries:
        forward-fill the last summary over chunk order (summaries sort
        AFTER unresolved targets within their chunk — an in-chunk source
        cannot serve them) and emit the final rows."""
        if group.num_rows == 0:
            return _schema.empty_table()
        kind = group["kind"].to_numpy(zero_copy_only=False)
        chunk = group["chunk"].to_numpy(zero_copy_only=False)
        eid = group["event_id"].to_numpy(zero_copy_only=False)
        t = group["t_us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((kind, chunk))  # summaries last within chunk
        kind, chunk, eid, t = kind[order], chunk[order], eid[order], t[order]
        idx = np.arange(len(kind))
        summ_at = np.where(kind == 2, idx, -1)
        last_summ = np.maximum.accumulate(summ_at)
        tgt = np.flatnonzero(kind == 1)
        hit = last_summ[tgt]
        valid = hit >= 0
        src_id = np.where(valid, eid[np.maximum(hit, 0)], 0)
        lag = np.where(valid, t[tgt] - t[np.maximum(hit, 0)], 0)
        user = group["user_id"][0].as_py()
        return pa.table({
            "event_id": pa.array(eid[tgt], pa.int64()),
            "user_id": pa.array(np.full(len(tgt), user), pa.int64()),
            "src_event_id": pa.array(
                np.ma.masked_array(src_id, mask=~valid).astype(np.int64)),
            "lag_us": pa.array(np.ma.masked_array(lag, mask=~valid).astype(np.int64)),
        })

    parts = (
        ds.map_batches(tag_chunk, batch_format="pyarrow")
        .groupby([user_col, "__chunk"])
        .map_groups(per_chunk, batch_format="pyarrow")
        .materialize()
    )
    resolved = parts.map_batches(finalize, batch_format="pyarrow")

    def keep_boundary(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["kind"], 0))

    boundary = (
        parts.map_batches(keep_boundary, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(carry_in, batch_format="pyarrow")
    )
    return resolved.union(boundary)


# --------------------------------------------------------------------------- #
# ordered conversion funnel
# --------------------------------------------------------------------------- #
def funnel_counts(ds, steps, horizon_s: int,
                  ts_col: str = "ts", type_col: str = "event_type",
                  user_col: str = "user_id") -> pa.Table:
    """Ordered-funnel user counts: how many users performed ``steps[0]``,
    then ``steps[1]`` STRICTLY after it, then ``steps[2]`` strictly after
    that, ... with every later step inside ``horizon_s`` seconds of the
    user's FIRST step-1 event (the classic product-analytics funnel;
    earliest-completion semantics — each step's time is the user's first
    qualifying event).  Output: ``(step, step_name, n_users)`` — all
    integers, so the DuckDB oracle hash-matches exactly.

    Scale shape — one cheap streaming pass per step, never a raw-event
    groupby: each pass filters the step's events, restricts them to users
    still in the funnel (the survivor table ``(user, t_prev, t1)``
    attaches through the broadcast-or-shuffle gate of
    :mod:`riot_ray.pipelines.joins`), and reduces per-batch per-user MIN
    partials through a hash-partitioned groupby — the shuffle carries one row per
    (batch, user), so a bot user with 10^9 events still ships one partial
    per batch, not a timeline.  The survivor set shrinks monotonically
    step over step."""
    from .joins import _attach_keyed, _join_parts

    steps = list(steps)
    if len(steps) < 1:
        raise ValueError("funnel needs at least one step")
    horizon_us = int(horizon_s) * _US
    num_partitions = _join_parts(None)

    row_schema = pa.schema([(user_col, pa.int64()), ("t", pa.int64()),
                            ("t1", pa.int64())])

    def _min_partial(batch: pa.Table) -> pa.Table:
        """Per-batch per-user min(t) (t1 rides along: constant per user)."""
        u = batch[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch["t"].to_numpy(zero_copy_only=False)
        t1 = batch["t1"].to_numpy(zero_copy_only=False)
        order = np.argsort(u, kind="stable")
        su = u[order]
        starts = np.flatnonzero(np.r_[True, su[1:] != su[:-1]])
        tmin = np.minimum.reduceat(t[order], starts)
        part = (su[starts].view(np.uint64) % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({user_col: pa.array(su[starts], pa.int64()),
                         "t": pa.array(tmin, pa.int64()),
                         "t1": pa.array(t1[order][starts], pa.int64()),
                         "__part": pa.array(part, pa.int32())})

    def _min_reduce(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = group["t"].to_numpy(zero_copy_only=False)
        t1 = group["t1"].to_numpy(zero_copy_only=False)
        order = np.argsort(u, kind="stable")
        su = u[order]
        starts = np.flatnonzero(np.r_[True, su[1:] != su[:-1]])
        return pa.table({user_col: pa.array(su[starts], pa.int64()),
                         "t": pa.array(np.minimum.reduceat(t[order], starts),
                                       pa.int64()),
                         "t1": pa.array(t1[order][starts], pa.int64())})

    def _per_user_min(rows_ds):
        return (rows_ds.map_batches(_min_partial, batch_format="pyarrow")
                .groupby("__part")
                .map_groups(_min_reduce, batch_format="pyarrow"))

    def _step_rows(step_name: str):
        """(user, t, t1=t placeholder) rows of one step's events."""
        def pick(batch: pa.Table) -> pa.Table:
            keep = pc.equal(batch[type_col], step_name)
            b = batch.filter(keep)
            t = _epoch_us(b, ts_col)
            u = b[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({user_col: pa.array(u, pa.int64()),
                             "t": pa.array(t, pa.int64()),
                             "t1": pa.array(t, pa.int64())})
        return ds.map_batches(pick, batch_format="pyarrow")

    # step 1: first event of steps[0] per user; t1 := that minimum
    def fix_t1(batch: pa.Table) -> pa.Table:
        return pa.table({user_col: batch[user_col], "t": batch["t"],
                         "t1": batch["t"]})

    def gate(batch: pa.Table) -> pa.Table:
        """Step events strictly after the user's previous step and within
        the horizon of their first."""
        t = batch["t"].to_numpy(zero_copy_only=False)
        tp = batch["t_prev"].to_numpy(zero_copy_only=False)
        t1 = batch["t1_prev"].to_numpy(zero_copy_only=False)
        ok = (t > tp) & (t <= t1 + horizon_us)
        u = batch[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({user_col: pa.array(u[ok], pa.int64()),
                         "t": pa.array(t[ok], pa.int64()),
                         "t1": pa.array(t1[ok], pa.int64())})

    prev = _per_user_min(_step_rows(steps[0])).map_batches(
        fix_t1, batch_format="pyarrow").materialize()
    n_users = [prev.count()]

    for step_name in steps[1:]:
        if n_users[-1] == 0:
            n_users.append(0)
            continue
        joined = _attach_keyed(
            _step_rows(step_name), prev, user_col,
            [(user_col, {"t": "t_prev", "t1": "t1_prev"})],
            num_partitions, left_schema=row_schema)
        cand = joined.map_batches(gate, batch_format="pyarrow")
        prev = _per_user_min(cand).materialize()
        n_users.append(prev.count())

    return pa.table({
        "step": pa.array(np.arange(1, len(steps) + 1), pa.int64()),
        "step_name": pa.array(steps, pa.string()),
        "n_users": pa.array(np.asarray(n_users, np.int64), pa.int64()),
    })
