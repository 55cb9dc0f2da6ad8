"""Tumbling-window aggregation over a timestamp column — one of the custom
operators Ray Data lacks natively (SURVEY.md §2.5: the reference has no
windowing either; this is a dataset-level capability of the engine).

Composition (no raw Ray tasks needed):
    map_batches: window_start = floor(ts / width)      # pure Arrow math
      → per-batch partial aggregates per (window, key)  # combiner
      → coarse-partition exchange + vectorized merge    # same scale shape as
                                                        #   stages/uniqueness.py

The shuffle moves one partial row per (window, key) per block — bounded by
block count x active windows, independent of row count. Partitioning
assumption: none beyond hash(window,key) balance; a single globally-hot
window collapses per block before it travels (the combiner IS the skew
defense, like the uniqueness counts).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import exchange


def _merge_window_partials(partials_ds, by: str | None = None):
    """Shared exchange + finalize for the window operators: exchange the
    (window[, by], n, s, mn, mx) partial rows on the window, merge
    vectorized per partition, emit (window_start[, by], n, sum, min, max,
    mean)."""
    group_keys = ["w"] + ([by] if by is not None else [])

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(group_keys, as_index=False, sort=False).agg(
            n=("n", "sum"), s=("s", "sum"), mn=("mn", "min"), mx=("mx", "max"))

    merged = exchange(partials_ds, per_part, "w")

    def finalize(t: pa.Table) -> pa.Table:
        cols = {"window_start": pc.cast(t["w"], pa.timestamp("us"))}
        if by is not None:
            cols[by] = t[by]
        cols.update({
            "n": t["n"],
            "sum": t["s"],
            "min": t["mn"],
            "max": t["mx"],
            "mean": pc.divide(pc.cast(t["s"], pa.float64()),
                              pc.cast(t["n"], pa.float64())),
        })
        return pa.table(cols)

    return merged.map_batches(finalize, batch_format="pyarrow")


def tumbling_window_aggregate(ds, ts_column: str, value_column: str,
                              width_s: int, by: str | None = None):
    """Per-window (and optional per-`by`-key) count/sum/min/max/mean of
    `value_column`. Returns a Dataset with columns
    (window_start: timestamp[us], [by,] n, sum, min, max, mean)."""
    width_us = np.int64(width_s) * np.int64(1_000_000)

    def partial(t: pa.Table) -> pa.Table:
        # normalize any timestamp unit (ns from pandas, us from parquet) to us
        ts = pc.cast(pc.cast(t[ts_column], pa.timestamp("us")), pa.int64())
        # integer FLOOR division (pc.divide truncates toward zero, which
        # would misassign pre-epoch timestamps); exact at boundaries where
        # float64 would wobble for large epochs
        q = pc.multiply(pc.divide(ts, width_us), width_us)
        win = pc.if_else(pc.greater(q, ts), pc.subtract(q, width_us), q)
        cols = {"w": win, "v": t[value_column]}
        keys = ["w"]
        if by is not None:
            cols[by] = t[by]
            keys.append(by)
        g = pa.table(cols).group_by(keys).aggregate(
            [("v", "count"), ("v", "sum"), ("v", "min"), ("v", "max")])
        return g.rename_columns(keys + ["n", "s", "mn", "mx"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return _merge_window_partials(partials, by)


def hopping_window_aggregate(ds, ts_column: str, value_column: str,
                             width_s: int, hop_s: int):
    """Overlapping (hopping/sliding) windows: every `hop_s` a window of
    `width_s` opens; each row lands in ceil(width/hop) windows. Same
    combiner-first scale shape as the tumbling variant — the per-batch
    explode multiplies ROWS by the window fan-out, but only (window, partial)
    rows ride the exchange. Null values are skipped (tumbling/SQL NULL
    semantics). Returns (window_start, n, sum, min, max, mean)."""
    width_us = np.int64(width_s) * np.int64(1_000_000)
    hop_us = np.int64(hop_s) * np.int64(1_000_000)
    fanout = int(np.ceil(width_s / hop_s))

    def partial(t: pa.Table) -> pa.Table:
        v_col = t[value_column]
        v_col = v_col.combine_chunks() if isinstance(v_col, pa.ChunkedArray) \
            else v_col
        valid = pc.is_valid(v_col).to_numpy(zero_copy_only=False)
        ts = pc.cast(pc.cast(t[ts_column], pa.timestamp("us")), pa.int64()) \
            .to_numpy(zero_copy_only=False)[valid]
        v = v_col.to_numpy(zero_copy_only=False)[valid]
        base = (ts // hop_us) * hop_us  # latest window start at-or-before ts
        wins, vals = [], []
        for j in range(fanout):
            s = base - np.int64(j) * hop_us
            keep = s > ts - width_us  # ts < s + width  (s <= ts by base def)
            wins.append(s[keep])
            vals.append(v[keep])
        return pa.table({"w": pa.array(np.concatenate(wins)),
                         "v": pa.array(np.concatenate(vals))}).group_by("w") \
            .aggregate([("v", "count"), ("v", "sum"), ("v", "min"),
                        ("v", "max")]) \
            .rename_columns(["w", "n", "s", "mn", "mx"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return _merge_window_partials(partials)


def session_windows(ds, key_column: str, ts_column: str, gap_s: float):
    """Gap-based session windows per key: consecutive events of one key
    belong to the same session while the gap between them is <= gap_s.

    ONE hash(key) co-partition exchange (all of a key's events must
    co-locate — the documented partitioning assumption; a single
    pathologically hot key bounds one partition), then a vectorized
    per-partition sort + gap split. Returns
    (key, session_start: timestamp[us], n, dur_s)."""

    def project(t: pa.Table) -> pa.Table:
        ts = pc.cast(t[ts_column], pa.timestamp("us"))
        return pa.table({key_column: t[key_column], "ts": ts})

    gap = pd.Timedelta(seconds=gap_s)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_column, "ts"], kind="stable")
        # key-change test on the ORIGINAL dtype: a .shift() comparison would
        # upcast int64 keys to float64 (merging distinct ids >= 2^53) and
        # treat None inconsistently. numpy elementwise != keeps int64 exact
        # and groups None keys together (SQL PARTITION BY NULL semantics).
        keys_np = df[key_column].to_numpy()
        kc = np.empty(len(df), dtype=bool)
        if len(df):
            kc[0] = True
            kc[1:] = keys_np[1:] != keys_np[:-1]
        brk = kc | (df["ts"].diff() > gap).to_numpy()
        sid = np.cumsum(brk)
        g = df.groupby(sid, sort=False)
        out = pd.DataFrame({
            key_column: g[key_column].first(),
            "session_start": g["ts"].min(),
            "n": g["ts"].count().astype("int64"),
            "dur_s": (g["ts"].max() - g["ts"].min()).dt.total_seconds(),
        })
        return out.reset_index(drop=True)

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def rolling_by_key(ds, key_column: str, ts_column: str, value_column: str,
                   window_rows: int, order_columns: tuple = ()):
    """Per-key trailing row-window mean — SQL `AVG(v) OVER (PARTITION BY key
    ORDER BY ts[, tiebreaks] ROWS BETWEEN window_rows-1 PRECEDING AND
    CURRENT ROW)`. `order_columns` break timestamp ties deterministically
    (pass a unique id; SQL row-frame windows are otherwise
    order-nondeterministic under equal timestamps).

    Same scale shape as session_windows: ONE hash(key) co-partition exchange
    (a key's rows must co-locate — documented assumption: rows-per-key
    bounds one partition, not the corpus), then a vectorized per-partition
    sort + pandas groupby.rolling. Returns the key, ordering columns and
    `roll_mean` (partial windows at a key's head average the rows available,
    SQL ROWS-frame semantics)."""
    order = [ts_column, *order_columns]

    def project(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in dict.fromkeys(
            [key_column, *order, value_column])}
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_column, *order], kind="stable")
        # sorted by key + sort=False ⇒ group order == row order, so the
        # flattened rolling result aligns positionally; dropna=False keeps
        # null keys (SQL PARTITION BY NULL groups them together)
        vals = df.groupby(key_column, sort=False, dropna=False)[value_column] \
            .rolling(window_rows, min_periods=1).mean().to_numpy()
        out = df.drop(columns=[value_column])
        out["roll_mean"] = vals
        return out

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def lag_by_key(ds, key_column: str, ts_column: str, value_column: str,
               order_columns: tuple = ()):
    """Per-key previous value and delta — SQL `v - lag(v) OVER (PARTITION BY
    key ORDER BY ts[, tiebreaks])`; the inter-event-gap / rate-of-change
    signal of an event stream. First row of each key gets null prev/delta.

    Same scale shape as rolling_by_key: ONE hash(key) co-partition exchange
    (documented assumption: rows-per-key bounds one partition), then a
    vectorized per-partition sort + groupby.shift. Returns key, ordering
    columns, value, `prev` and `delta`."""
    order = [ts_column, *order_columns]

    def project(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in dict.fromkeys(
            [key_column, *order, value_column])}
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_column, *order], kind="stable")
        prev = df.groupby(key_column, sort=False, dropna=False)[value_column] \
            .shift(1)
        return df.assign(prev=prev, delta=df[value_column] - prev)

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def sessionize(ds, key_column: str, ts_column: str, gap_s: float,
               order_columns: tuple = ()):
    """Gap-based sessionization — the classic event-stream operator: a key's
    time-ordered events split into sessions wherever the gap since the
    previous event EXCEEDS `gap_s` seconds (gap == gap_s stays in-session).
    SQL equivalent: the two-window idiom — a lag() boundary flag summed by a
    running-total window, then GROUP BY (key, session).

    Returns ONE ROW PER SESSION: key, `session` (1-based per key, in time
    order), `n_events`, `start_s` (epoch seconds of the first event) and
    `dur_s` (last minus first, seconds) — session-level output keeps the
    result duplicate-bounded instead of corpus-sized.

    Same scale shape as rolling_by_key / lag_by_key: ONE hash(key)
    co-partition exchange (documented assumption: one key's rows bound a
    partition, not the corpus), then a fully vectorized per-partition pass
    (sort → factorized key-change flags → boundary cumsum → slice
    aggregation; no Python loop over rows or sessions). Timestamp columns
    convert to epoch seconds with the same microseconds/1e6 float division
    DuckDB's epoch() performs, so oracles compare exactly. Equal timestamps
    are one session regardless of tiebreak order; `order_columns` only make
    the SORT deterministic."""
    from pandas.api.types import is_datetime64_any_dtype

    order = [ts_column, *order_columns]

    def project(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in dict.fromkeys([key_column, *order])}
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_column, *order], kind="stable")
        ts = df[ts_column]
        if is_datetime64_any_dtype(ts):
            secs = ((ts - pd.Timestamp(0, tz=getattr(ts.dtype, "tz", None)))
                    / pd.Timedelta(seconds=1)).to_numpy()
        else:
            secs = ts.to_numpy(dtype="float64")
        n = len(df)
        if n == 0:
            return pd.DataFrame({
                key_column: df[key_column],
                "session": pd.Series([], dtype="int64"),
                "n_events": pd.Series([], dtype="int64"),
                "start_s": pd.Series([], dtype="float64"),
                "dur_s": pd.Series([], dtype="float64")})
        # factorize groups ALL nulls under one code (SQL PARTITION BY NULL)
        codes = pd.factorize(df[key_column], use_na_sentinel=False)[0]
        newkey = np.ones(n, dtype=bool)
        newkey[1:] = codes[1:] != codes[:-1]
        new_sess = newkey.copy()
        new_sess[1:] |= (secs[1:] - secs[:-1]) > gap_s
        b = np.flatnonzero(new_sess)            # session start row indices
        e = np.append(b[1:], n)                 # one past each session end
        # 1-based session index per key: position since the key's first
        # session boundary
        nb = newkey[b]
        idx = np.arange(len(b), dtype=np.int64)
        sess = idx - np.maximum.accumulate(np.where(nb, idx, -1)) + 1
        return pd.DataFrame({
            key_column: df[key_column].to_numpy()[b],
            "session": sess,
            "n_events": (e - b).astype(np.int64),
            "start_s": np.round(secs[b], 6),
            "dur_s": np.round(secs[e - 1] - secs[b], 6)})

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def funnel_by_key(ds, key_column: str, ts_column: str, type_column: str,
                  steps: list):
    """Ordered funnel analysis — for each key, how far its event stream
    progresses through `steps` in order: t1 = min ts of a step-1 event,
    t_i = min ts of a step-i event AT OR AFTER t_{i-1} (the SQL chained
    min-join idiom; a step-i event at exactly t_{i-1} counts).

    Returns one row per DISTINCT key: key, `reached` (0..len(steps)), and
    `t1_s`..`tk_s` epoch seconds (null once unreached; t_i is only defined
    when t_{i-1} is, so `reached` == count of non-null t columns).

    Same scale shape as sessionize: ONE hash(key) co-partition exchange,
    then a vectorized per-partition pass — one boolean mask + groupby-min
    per step, never a Python loop over keys. Timestamps convert with the
    same microseconds/1e6 division DuckDB's epoch() performs."""
    from pandas.api.types import is_datetime64_any_dtype

    if not steps:
        raise ValueError("funnel_by_key: steps must be non-empty")

    def project(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in
                dict.fromkeys([key_column, ts_column, type_column])}
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        ts = df[ts_column]
        if is_datetime64_any_dtype(ts):
            secs = ((ts - pd.Timestamp(0, tz=getattr(ts.dtype, "tz", None)))
                    / pd.Timedelta(seconds=1))
        else:
            secs = ts.astype("float64")
        keys = df[key_column]
        out = pd.DataFrame({key_column: keys.drop_duplicates()
                            .reset_index(drop=True)})
        prev = None  # per-key epoch of the previous completed step
        for i, step in enumerate(steps, 1):
            m = (df[type_column] == step).to_numpy()
            if prev is not None:
                gate = keys.map(prev)
                # NaN gate (prev step unreached) compares False -> excluded
                m &= (secs >= gate).to_numpy()
            cur = secs[m].groupby(keys[m]).min()
            out[f"t{i}_s"] = np.round(
                out[key_column].map(cur).to_numpy(dtype="float64"), 6)
            prev = cur
        out.insert(1, "reached", out[[f"t{i}_s" for i in
                                      range(1, len(steps) + 1)]]
                   .notna().sum(axis=1).astype("int64"))
        return out

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def transition_counts(ds, key_column: str, ts_column: str,
                      value_column: str, order_columns: tuple = ()):
    """Markov transition profile of an event stream: counts of consecutive
    (v_from, v_to) value transitions within each key's time-ordered
    sequence, summed across keys — the first-order sequence-mining
    complement of funnel_by_key (which asks "did the fixed path complete";
    this asks "what paths do keys actually take"). SQL equivalent:
    lag(value) OVER (PARTITION BY key ORDER BY ts[, tiebreaks]) paired
    with value, counted.

    Scale shape: ONE hash(key) co-partition exchange (rows-per-key bounds
    one partition, as in lag_by_key), per-partition vectorized sort +
    groupby.shift, then per-partition (v_from, v_to) pre-counts exchanged
    on a coarse hash(pair) partition for the global sum — transition rows
    never leave their key's partition, only the ≤|V|² count partials move.
    Null values participate as sequence positions but pairs with a null
    side are dropped (lag semantics). Returns (v_from, v_to, n)."""
    reserved = {"part", "v_from", "v_to", "cnt", "n"} & \
        {key_column, ts_column, value_column, *order_columns}
    if reserved:  # synthetic exchange/output columns
        raise ValueError(f"transition_counts: column names "
                         f"{sorted(reserved)} are reserved")
    order = [ts_column, *order_columns]

    def project(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in dict.fromkeys(
            [key_column, *order, value_column])}
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_column, *order], kind="stable")
        prev = df.groupby(key_column, sort=False, dropna=False)[
            value_column].shift(1)
        pairs = pd.DataFrame({"v_from": prev,
                              "v_to": df[value_column]}).dropna()
        g = pairs.groupby(["v_from", "v_to"], sort=False).size() \
            .reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype("int64")
        return g

    def per_pair(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["v_from", "v_to"], sort=False,
                       as_index=False)["cnt"].sum()
        return g.rename(columns={"cnt": "n"})

    partials = exchange(ds.map_batches(project, batch_format="pyarrow"),
                        per_part, key_column)
    return exchange(partials, per_pair, ["v_from", "v_to"])


def retention_cohorts(ds, key_column: str, ts_column: str,
                      period_s: int = 7 * 86400):
    """Cohort retention matrix — the classic engagement analysis: keys are
    cohorted by the period of their FIRST event (absolute period index =
    epoch_us // (period_s·10⁶), integer floor — deliberately calendar-free
    so the SQL replica is exact integer arithmetic, no date_trunc
    semantics), and n counts the distinct keys of cohort c active again at
    offset o periods later. Row (cohort, offset=0) is the cohort size.

    Scale shape: per-batch distinct (key, period) pairs → ONE hash(key)
    co-partition exchange (a key's full history lands in one partition, so
    its cohort = min(period) is computable locally), per-partition
    vectorized cohort/offset derivation + (cohort, offset) pre-counts →
    ONE coarse hash(pair) exchange of the ≤periods² count partials. Null
    keys/timestamps dropped. Returns (cohort, offset, n)."""
    div = int(period_s) * 1_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[key_column, ts_column]].dropna()
        # datetime64[ns] and [us] batches both normalize to exact µs
        us = d[ts_column].to_numpy().astype("datetime64[us]").astype(
            "int64")
        return pd.DataFrame({"k": d[key_column].to_numpy(),
                             "period": us // div}).drop_duplicates()

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["k", "period"])
        cohort = d.groupby("k", sort=False)["period"].transform("min")
        g = pd.DataFrame({"cohort": cohort,
                          "offset": d["period"] - cohort}) \
            .groupby(["cohort", "offset"], sort=False).size() \
            .reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype("int64")
        return g

    def per_cell(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["cohort", "offset"], sort=False,
                       as_index=False)["cnt"].sum()
        return g.rename(columns={"cnt": "n"})

    partials = exchange(ds.map_batches(partial, batch_format="pandas"),
                        per_part, "k")
    return exchange(partials, per_cell, ["cohort", "offset"])


def debounce_by_key(ds, key_column: str, ts_column: str,
                    value_column: str, window_s: float,
                    order_columns: tuple = ()):
    """Event-stream debouncing — drop a row when the SAME (key, value)
    occurred within the previous `window_s` seconds (strictly less than;
    a gap of exactly window_s is kept), keeping the first of each burst:
    the duplicate-click / retry-storm cleanup pass of an event pipeline.
    Chained bursts collapse to their first event (each kept row restarts
    the window — NOT a fixed lag filter, which would re-admit every other
    element of a long burst).

    Scale shape: ONE hash(key) co-partition exchange, then a vectorized
    per-partition sort + per-(key,value) cumulative scan. The scan is the
    classic gap-split trick (sessionize's machinery on (key, value)):
    bursts are sessions with gap < window_s, and "first of each burst" is
    each session's first row — fully vectorized, no Python loop over
    rows. Returns the kept rows (key, order columns, value)."""
    order = [ts_column, *order_columns]

    def project(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in dict.fromkeys(
            [key_column, *order, value_column])}
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_column, value_column, *order],
                            kind="stable")
        ts = df[ts_column].to_numpy()
        if np.issubdtype(ts.dtype, np.datetime64):
            ts = ts.astype("datetime64[us]").astype("int64") / 1e6
        else:
            ts = ts.astype(np.float64)
        keys = df[key_column].to_numpy()
        vals = df[value_column].to_numpy()
        same = np.zeros(len(df), dtype=bool)
        if len(df):
            same[1:] = (keys[1:] == keys[:-1]) & (vals[1:] == vals[:-1])
        gap_ok = np.zeros(len(df), dtype=bool)
        if len(df):
            gap_ok[1:] = (ts[1:] - ts[:-1]) < window_s
        # burst sessions: new burst wherever the (key,value) changes or
        # the gap reaches window_s; keep each burst's first row
        new_burst = ~(same & gap_ok)
        burst_id = np.cumsum(new_burst)
        keep = np.empty(len(df), dtype=bool)
        if len(df):
            keep[0] = True
            keep[1:] = burst_id[1:] != burst_id[:-1]
        return df[keep].reset_index(drop=True)

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def gap_fill(ds, key_column: str, ts_column: str,
             bucket_s: float = 86400.0, *,
             max_buckets_per_key: int = 1_000_000):
    """Regularized per-key time series: event counts per fixed bucket with
    ZERO-count rows filled in for every bucket between each key's first and
    last event — the gap-filling / resampling step every downstream
    window model (rolling stats, trend fits, anomaly scans) assumes has
    already happened. Bucket index = epoch_us // (bucket_s * 1e6), the
    same calendar-free integer floor as the windowed operators above.
    Returns (key, bucket BIGINT, n BIGINT).

    Scale shape: per-batch (key, bucket) count partials (the combiner is
    the skew defense) → ONE hash(key) coarse exchange → per-partition
    vectorized sum + range expansion (np.repeat/arange arithmetic — no
    per-key Python loop). Output size is Σ_key (span_key / bucket) — a key
    whose span exceeds `max_buckets_per_key` buckets raises rather than
    silently exploding a partition."""
    import logging

    logger = logging.getLogger(__name__)
    reserved = {"part", "bucket", "cnt", "n"} & {key_column, ts_column}
    if reserved:  # synthetic exchange/output columns
        raise ValueError(
            f"gap_fill: column names {sorted(reserved)} are reserved")
    if bucket_s <= 0:
        raise ValueError("gap_fill: bucket_s must be positive")
    bucket_us = int(round(bucket_s * 1e6))

    def partial(t: pa.Table) -> pa.Table:
        d0 = t.select([key_column, ts_column]).drop_null()
        # normalize to µs first — the input may be s/ms/ns resolution
        epoch = pc.cast(pc.cast(d0[ts_column], pa.timestamp("us")),
                        pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        # exact integer floor (numpy floor_divide) — Arrow integer divide
        # truncates toward zero, which is wrong for pre-epoch timestamps
        b = np.floor_divide(epoch, bucket_us)
        d = pa.table({key_column: d0[key_column],
                      "bucket": pa.array(b, pa.int64())}).to_pandas()
        g = d.groupby([key_column, "bucket"], sort=False).size() \
            .reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby([key_column, "bucket"], sort=False,
                       as_index=False)["cnt"].sum()
        g = g.sort_values([key_column, "bucket"], kind="stable")
        spans = g.groupby(key_column, sort=False)["bucket"] \
            .agg(["min", "max"])
        lens = (spans["max"] - spans["min"] + 1).to_numpy()
        if lens.size and int(lens.max()) > max_buckets_per_key:
            raise ValueError(
                f"gap_fill: a key spans {int(lens.max())} buckets "
                f"(> max_buckets_per_key={max_buckets_per_key})")
        total = int(lens.sum())
        keys_rep = spans.index.to_numpy().repeat(lens)
        offs = np.concatenate(([0], np.cumsum(lens)[:-1]))
        buckets = (np.arange(total, dtype=np.int64)
                   - np.repeat(offs, lens)
                   + np.repeat(spans["min"].to_numpy(), lens))
        full = pd.DataFrame({key_column: keys_rep, "bucket": buckets})
        out = full.merge(g, on=[key_column, "bucket"], how="left")
        out["n"] = out["cnt"].fillna(0).astype("int64")
        return out[[key_column, "bucket", "n"]]

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), expand,
                    key_column)


def interval_coverage(ds, key_column: str, start_column: str,
                      end_column: str):
    """Per-key UNION length of (possibly overlapping) [start, end)
    intervals — total active/covered time from sessions, leases, retries:
    the islands-and-gaps operator. SQL equivalent: the lag/cummax island
    idiom (break where start exceeds the running max of prior ends, sum
    max(end)-min(start) per island).

    Returns one row per key: `covered` (summed union length, float),
    `n_islands` (disjoint merged spans), `n_intervals` (input rows).
    Start/end are NUMERIC (epoch seconds — callers convert timestamps,
    documenting the same epoch() math as sessionize). Rows with a null
    key, null endpoints, or end < start are dropped.

    Scale shape: ONE hash(key) co-partition exchange of (key, start, end)
    triples, then a fully vectorized per-partition pass: sort by
    (key, start, end), per-key running cummax of end, island boundary
    flags, np.add.reduceat over island slices — no Python loop over rows,
    islands, or keys."""
    import pandas as pd

    reserved = {"part", "s", "e"} & {key_column, start_column, end_column}
    # start/end are renamed to the synthetic s/e; only a KEY named s/e
    # could collide
    reserved = ({"part"} & {key_column, start_column, end_column}) \
        | ({"s", "e"} & {key_column})
    if reserved:
        raise ValueError(f"interval_coverage: column names "
                         f"{sorted(reserved)} are reserved")

    def project(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(t[key_column]),
                               pc.is_valid(t[start_column])),
                       pc.is_valid(t[end_column]))
        keep = pc.and_(keep, pc.greater_equal(t[end_column],
                                              t[start_column]))
        t = t.filter(keep)
        return pa.table({key_column: t[key_column],
                         "s": pc.cast(t[start_column], pa.float64()),
                         "e": pc.cast(t[end_column], pa.float64())})

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                key_column: df[key_column],
                "covered": pd.Series([], dtype="float64"),
                "n_islands": pd.Series([], dtype="int64"),
                "n_intervals": pd.Series([], dtype="int64")})
        df = df.sort_values([key_column, "s", "e"], kind="stable")
        k, keys = pd.factorize(df[key_column], sort=False)
        s = df["s"].to_numpy()
        e = df["e"].to_numpy()
        run_end = df.groupby(k, sort=False)["e"].cummax().to_numpy()
        new_key = np.ones(len(df), dtype=bool)
        new_key[1:] = k[1:] != k[:-1]
        brk = new_key.copy()
        brk[1:] |= s[1:] > run_end[:-1]          # gap after the prior island
        isl = np.cumsum(brk) - 1
        starts = np.nonzero(brk)[0]
        isl_len = np.maximum.reduceat(run_end, starts) - s[starts]
        isl_key = k[starts]
        n_keys = len(keys)
        covered = np.bincount(isl_key, weights=isl_len, minlength=n_keys)
        n_islands = np.bincount(isl_key, minlength=n_keys)
        n_intervals = np.bincount(k, minlength=n_keys)
        return pd.DataFrame({
            key_column: keys,
            "covered": covered,
            "n_islands": n_islands.astype(np.int64),
            "n_intervals": n_intervals.astype(np.int64)})

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def time_weighted_mean(ds, key_column: str, ts_column: str,
                       value_column: str):
    """Per-key TIME-weighted average of a sampled signal — each value held
    until the key's next event (zero-order hold), so sparse bursts don't
    dominate the mean the way a plain avg() does. SQL equivalent: the
    lead() idiom — sum(v * (lead(ts)-ts)) / (last_ts - first_ts).

    Returns one row per key with >= 2 events and a positive span:
    `twm` (the weighted mean), `span_s` (last - first, seconds), and
    `n_events`. Null keys/ts/values are dropped; single-event and
    zero-span keys are excluded (their hold weights are all zero —
    document the HAVING in oracles). Timestamps convert with the same
    microseconds/1e6 epoch() math as sessionize.

    Scale shape: ONE hash(key) co-partition exchange of (key, ts, value)
    triples, then a vectorized per-partition pass (sort, per-key diff,
    segment-sum via np.add.reduceat) — no Python loop over keys."""
    import pandas as pd
    from pandas.api.types import is_datetime64_any_dtype

    if "part" in (key_column, ts_column, value_column):
        raise ValueError("time_weighted_mean: column name 'part' is "
                         "reserved")

    def project(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.and_(pc.is_valid(t[key_column]),
                               pc.is_valid(t[ts_column])),
                       pc.is_valid(t[value_column]))
        t = t.filter(keep)
        return pa.table({key_column: t[key_column],
                         ts_column: t[ts_column],
                         value_column: t[value_column]})

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            key_column: df[key_column].iloc[:0],
            "twm": pd.Series([], dtype="float64"),
            "span_s": pd.Series([], dtype="float64"),
            "n_events": pd.Series([], dtype="int64")})
        if not len(df):
            return empty
        df = df.sort_values([key_column, ts_column], kind="stable")
        ts = df[ts_column]
        if is_datetime64_any_dtype(ts):
            # unit-agnostic epoch seconds (DuckDB epoch() float parity) —
            # pandas 2 may hand back datetime64[us] from Arrow
            t = ((ts - pd.Timestamp(0, tz=getattr(ts.dtype, "tz", None)))
                 / pd.Timedelta(seconds=1)).to_numpy()
        else:
            t = ts.to_numpy(dtype=np.float64)
        k, keys = pd.factorize(df[key_column], sort=False)
        v = df[value_column].to_numpy(dtype=np.float64)
        last = np.ones(len(df), dtype=bool)
        last[:-1] = k[:-1] != k[1:]
        dt = np.zeros(len(df))
        dt[:-1] = t[1:] - t[:-1]
        dt[last] = 0.0                      # no hold after a key's last row
        wsum = np.bincount(k, weights=v * dt, minlength=len(keys))
        starts = np.nonzero(np.concatenate([[True], last[:-1]]))[0]
        ends = np.nonzero(last)[0]
        span = t[ends] - t[starts]
        cnt = np.bincount(k, minlength=len(keys)).astype(np.int64)
        ok = span > 0
        if not ok.any():
            return empty
        return pd.DataFrame({
            key_column: np.asarray(keys)[ok],
            "twm": wsum[ok] / span[ok],
            "span_s": span[ok],
            "n_events": cnt[ok]})

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def ewma_by_key(ds, key_column: str, ts_column: str, value_column: str,
                alpha: float, order_columns: tuple = ()):
    """Per-key exponentially-weighted moving average — the adaptive
    smoothing signal of an event stream (recency-weighted rates, metric
    baselines). Recursion `y_1 = x_1; y_t = alpha*x_t + (1-alpha)*y_{t-1}`
    over each key's rows ordered by ts[, tiebreaks] (pandas
    `ewm(adjust=False)`, which computes exactly that float64 recursion —
    asserted bit-identical in tests; the SQL analog is a recursive CTE
    over `row_number() OVER (PARTITION BY key ORDER BY ...)`).

    Same scale shape as rolling_by_key: ONE hash(key) co-partition
    exchange (documented assumption: rows-per-key bounds one partition),
    vectorized per-partition sort + Cython groupby.ewm — no per-group
    Python. Null values are a contract error (the recursion has no
    skip-NaN semantics that SQL can mirror); null keys group together.
    Returns key, ordering columns, value and `ewma`."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"ewma_by_key: alpha={alpha}")
    order = [ts_column, *order_columns]

    def project(t: pa.Table) -> pa.Table:
        if t[value_column].null_count:
            raise ValueError(f"ewma_by_key: null {value_column!r} values — "
                             "the recursion has no NaN-skip semantics")
        cols = {c: t[c] for c in dict.fromkeys(
            [key_column, *order, value_column])}
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_column, *order], kind="stable")
        # sorted by key + sort=False ⇒ flattened result aligns positionally
        # (same idiom as rolling_by_key)
        vals = df.groupby(key_column, sort=False, dropna=False)[value_column] \
            .ewm(alpha=alpha, adjust=False).mean().to_numpy()
        return df.assign(ewma=vals)

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def cusum_by_key(ds, key_column: str, ts_column: str, value_column: str, *,
                 target: float, slack: float = 0.0,
                 threshold: float | None = None, order_columns: tuple = ()):
    """Per-key two-sided CUSUM change detection — the classic
    Page (1954) drift alarm over per-entity series: upper statistic
    `hi_t = max(0, hi_{t-1} + (x_t − target − slack))`, lower
    `lo_t = max(0, lo_{t-1} − (x_t − target) − slack)`, alarm when
    either exceeds `threshold`.

    The recursion is computed in CLOSED FORM — `max(0, ·)` folding
    equals `c_t − min(0, running_min(c_t))` over the drift-adjusted
    cumulative sum (the max-drawdown identity, provable by induction) —
    so the per-partition work is two Cython groupby cumsum/cummin
    passes, no per-row Python, and the SQL oracle is the identical
    window expression (`sum() OVER` / `min() OVER`), not a recursive
    CTE. Same scale shape as ewma_by_key: ONE hash(key) co-partition
    exchange; rows-per-key bound one partition (documented). Null
    values are a contract error; null keys group together. Returns the
    input columns plus cusum_hi, cusum_lo[, alarm]."""
    import pandas as pd

    if slack < 0:
        raise ValueError(f"cusum_by_key: slack={slack}")
    order = [ts_column, *order_columns]
    reserved = {"part", "cusum_hi", "cusum_lo", "alarm"}
    named = {key_column, value_column, *order}
    if reserved & named:
        raise ValueError(f"cusum_by_key: reserved column name in "
                         f"{sorted(reserved & named)}")

    def project(t: pa.Table) -> pa.Table:
        if t[value_column].null_count:
            raise ValueError(f"cusum_by_key: null {value_column!r} values "
                             "— the recursion has no NaN-skip semantics")
        cols = {c: t[c] for c in dict.fromkeys(
            [key_column, *order, value_column])}
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_column, *order], kind="stable")
        v = df[value_column].to_numpy(dtype=np.float64)
        g = df.assign(yh=v - target - slack, yl=-(v - target) - slack) \
            .groupby(key_column, sort=False, dropna=False)
        out = df.copy()
        for name, col in (("cusum_hi", "yh"), ("cusum_lo", "yl")):
            c = g[col].cumsum().to_numpy(dtype=np.float64)
            # running min must reset per key: cummin of the cumsum series
            m = pd.Series(c, index=df.index).groupby(
                df[key_column].to_numpy(), sort=False, dropna=False) \
                .cummin().to_numpy(dtype=np.float64)
            out[name] = c - np.minimum(0.0, m)
        if threshold is not None:
            out["alarm"] = (out["cusum_hi"].to_numpy() > threshold) \
                | (out["cusum_lo"].to_numpy() > threshold)
        return out

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)
