"""Join operators Ray Data lacks natively (SURVEY.md brief: as-of / range
joins as custom operators), in the engine's broadcast-small-side shape:

- **equi-join**: `hash_join_broadcast` (dimension-table right side —
  collected once, `ray.put`, per-batch vectorized pandas merge, NO shuffle)
  and `hash_join_shuffle` (fact ⋈ fact — ONE hash(key) co-partition
  exchange per side, per-partition vectorized merge; inner/left/semi/anti).
- **as-of join**: for each left row, the latest right row whose timestamp is
  <= the left timestamp (optionally per key). The right side is collected,
  sorted, `ray.put` ONCE, and probed with vectorized `np.searchsorted`
  inside map_batches — no shuffle, no per-row Python.
- **range join**: left rows matched to right intervals [lo, hi) via the same
  broadcast + searchsorted machinery (non-overlapping intervals).

Partitioning assumption (documented): the RIGHT side fits in the object
store (dimension/quote tables — millions of rows, not billions). For a
right side too big to broadcast, `asof_join_bucketed` co-partitions BOTH
sides on hash(key, floor(ts/width)): right rows ride the exchange once,
and cross-bucket carry is resolved through the per-(key, bucket) *tail*
table (latest right row of each bucket — small, broadcast) instead of a
forward-fill replication.

Value-column dtypes: both join flavors coerce `value_columns` to float64
(unmatched rows are NaN). Integers above 2^53 lose precision and
string/decimal value columns are unsupported — select/cast numeric value
columns before joining.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import collect_table
from .exchange import broadcast, exchange

_LOG = logging.getLogger(__name__)


def _ts_us(col) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return pc.cast(pc.cast(arr, pa.timestamp("us")), pa.int64()) \
        .to_numpy(zero_copy_only=False)


class _AsofProbe:
    """map_batches payload probing the broadcast sorted right side."""

    def __init__(self, right_ref, left_on: str, by: str | None,
                 value_columns: list[str], tolerance_us: int | None):
        self.right_ref = right_ref
        self.left_on = left_on
        self.by = by
        self.value_columns = value_columns
        self.tolerance_us = tolerance_us

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        right = self.right_ref.get()  # {key: (ts_sorted, {col: values})}
        ts = _ts_us(batch[self.left_on])
        n = batch.num_rows
        out_vals = {c: np.full(n, np.nan) for c in self.value_columns}
        matched = np.zeros(n, dtype=bool)
        if self.by is None:
            groups = {None: np.arange(n)}
        else:
            # C-level key->positions grouping (the asof_join_bucketed
            # trick) instead of a per-row Python loop on the streaming side
            groups = pd.DataFrame({"k": batch[self.by].to_pandas()}) \
                .groupby("k", sort=False, dropna=False).indices
        for k, idx in groups.items():
            try:  # pandas groups null keys under nan/NaT; right packs None
                if k is not None and pd.isna(k):
                    k = None
            except (TypeError, ValueError):  # non-scalar keys: leave as-is
                pass
            side = right.get(k)
            if side is None:
                continue
            r_ts, r_vals = side
            pos = np.searchsorted(r_ts, ts[idx], side="right") - 1
            ok = pos >= 0
            if self.tolerance_us is not None:
                ok &= (ts[idx] - r_ts[np.maximum(pos, 0)]) <= self.tolerance_us
            sel = idx[ok]
            matched[sel] = True
            for c in self.value_columns:
                out_vals[c][sel] = r_vals[c][pos[ok]]
        cols = {name: batch[name] for name in batch.column_names}
        for c in self.value_columns:
            cols[f"r_{c}"] = pa.array(out_vals[c])
        cols["asof_matched"] = pa.array(matched)
        return pa.table(cols)


class _RangeProbe:
    """map_batches payload: bucket left values into broadcast sorted
    non-overlapping [lo, hi) intervals via searchsorted."""

    def __init__(self, ref, on: str, label_column: str):
        self.ref = ref
        self.on = on
        self.label_column = label_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        lows, highs, labels = self.ref.get()
        arr = batch[self.on]
        v = (arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        pos = np.searchsorted(lows, v, side="right") - 1
        ok = (pos >= 0) & np.isfinite(v)
        ok &= v < highs[np.maximum(pos, 0)]
        out = np.where(ok, labels[np.maximum(pos, 0)], -1)
        cols = {name: batch[name] for name in batch.column_names}
        cols[self.label_column] = pa.array(out.astype(np.int64))
        return pa.table(cols)


def range_join_broadcast(left, right, *, on: str, lo: str, hi: str,
                         label: str, label_column: str = "band"):
    """Label each left row with the id of the right interval [lo, hi)
    containing `on` (-1 when uncovered). Intervals must be non-overlapping;
    the right side is small and broadcast (dimension-table shape)."""
    rt = collect_table(right)
    lows = rt[lo].to_numpy(zero_copy_only=False).astype(np.float64)
    highs = rt[hi].to_numpy(zero_copy_only=False).astype(np.float64)
    labels = rt[label].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(lows, kind="stable")
    ref = broadcast((lows[order], highs[order], labels[order]))
    return left.map_batches(_RangeProbe(ref, on, label_column),
                            batch_format="pyarrow")


def asof_join_broadcast(left, right, *, left_on: str, right_on: str,
                        by: str | None = None,
                        value_columns: list[str],
                        tolerance_s: float | None = None):
    """Left as-of join (backward): append `r_<col>` columns with the value of
    the latest right row at-or-before each left row's timestamp (per `by`
    key when given), plus an `asof_matched` flag.

    Right side: collected once on the driver, per-key sorted numpy arrays,
    broadcast once. Value columns must be numeric — they are coerced
    to float64 (NaN = unmatched; see module docstring)."""
    rt = collect_table(right)
    r_ts = _ts_us(rt[right_on])
    keys = rt[by].to_pylist() if by is not None else [None] * rt.num_rows
    vals = {c: rt[c].to_numpy(zero_copy_only=False).astype(np.float64)
            for c in value_columns}
    packed: dict = {}
    order = np.argsort(np.asarray(r_ts), kind="stable")
    for i in order:
        packed.setdefault(keys[i], [[], {c: [] for c in value_columns}])
        packed[keys[i]][0].append(r_ts[i])
        for c in value_columns:
            packed[keys[i]][1][c].append(vals[c][i])
    final = {k: (np.asarray(tss, dtype=np.int64),
                 {c: np.asarray(v) for c, v in cv.items()})
             for k, (tss, cv) in packed.items()}
    ref = broadcast(final)
    tol = int(tolerance_s * 1_000_000) if tolerance_s is not None else None
    return left.map_batches(
        _AsofProbe(ref, left_on, by, value_columns, tol),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# big-right-side as-of join: time-bucketed co-partition
# ---------------------------------------------------------------------------
def _key_col(t: pa.Table, by: str | None) -> pa.Array:
    if by is None:
        return pa.array(np.zeros(t.num_rows, dtype=np.int64))
    c = t[by]
    return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c


def asof_join_bucketed(left, right, *, left_on: str, right_on: str,
                       value_columns: list[str], left_keep: list[str],
                       by: str | None = None, bucket_s: float = 86400.0,
                       tolerance_s: float | None = None):
    """Backward as-of join for a right side too large to broadcast.

    Both sides co-partition on hash(key, bucket) where
    bucket = floor(ts / bucket_s) — ONE keyed exchange each, no broadcast of
    right VALUES. Cross-bucket carry (a left row whose predecessor sits in an
    earlier bucket) resolves through the *tail* table: the latest right row
    of every (key, bucket), computed with per-batch argmax partials and one
    small exchange, then broadcast. A tail from an earlier bucket dominates
    every non-tail row of that bucket, so `max(in-bucket predecessor,
    latest tail at-or-before ts)` is exact.

    Partitioning assumptions (documented): #distinct (key, bucket) rows —
    NOT right rows — fit in the object store (pick bucket_s accordingly);
    one (key, bucket) cell's rows land on one partition, so salt bucket_s
    down if a single cell is hot. Value columns are coerced to float64
    (see module docstring). Returns `left_keep` + `r_<col>` + `asof_matched`.
    """
    W = int(bucket_s * 1_000_000)
    tol = int(tolerance_s * 1_000_000) if tolerance_s is not None else None

    # ---- pass 1: per-(key, bucket) tails ---------------------------------
    def tail_partial(t: pa.Table) -> pa.Table:
        ts = _ts_us(t[right_on])
        key = _key_col(t, by)
        bucket = ts // W
        df_cols = {"k": key.to_pandas(), "b": bucket, "ts": ts}
        for c in value_columns:
            df_cols[f"v_{c}"] = t[c].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
        import pandas as pd

        df = pd.DataFrame(df_cols)
        idx = df.groupby(["k", "b"], sort=False)["ts"].idxmax()
        return pa.Table.from_pandas(df.loc[idx], preserve_index=False)

    def tail_reduce(df):
        idx = df.groupby(["k", "b"], sort=False)["ts"].idxmax()
        return df.loc[idx]

    tt = collect_table(exchange(
        right.map_batches(tail_partial, batch_format="pyarrow"),
        tail_reduce, ["k", "b"]))
    # per-key ts-sorted tail arrays for the carry lookup
    tails: dict = {}
    t_keys = tt["k"].to_pylist() if tt.num_rows else []
    t_ts = tt["ts"].to_numpy(zero_copy_only=False) if tt.num_rows else np.zeros(0, np.int64)
    t_vals = {c: tt[f"v_{c}"].to_numpy(zero_copy_only=False)
              for c in value_columns} if tt.num_rows else {}
    order = np.argsort(np.asarray(t_ts), kind="stable")
    for i in order:
        slot = tails.setdefault(t_keys[i], [[], {c: [] for c in value_columns}])
        slot[0].append(int(t_ts[i]))
        for c in value_columns:
            slot[1][c].append(float(t_vals[c][i]))
    tails_final = {k: (np.asarray(tss, dtype=np.int64),
                       {c: np.asarray(v) for c, v in cv.items()})
                   for k, (tss, cv) in tails.items()}
    tails_ref = broadcast(tails_final)

    # ---- pass 2: union co-partition on hash(key, bucket) -----------------
    base = left.schema().base_schema
    if hasattr(base, "field"):  # arrow schema
        keep_types = {c: base.field(c).type for c in left_keep}
    else:  # PandasBlockSchema (names + numpy dtypes)
        keep_types = {c: pa.from_numpy_dtype(t)
                      for c, t in zip(base.names, base.types) if c in left_keep}

    def left_rows(t: pa.Table) -> pa.Table:
        ts = _ts_us(t[left_on])
        key = _key_col(t, by)
        bucket = ts // W
        n = t.num_rows
        cols = {"kind": pa.array(np.zeros(n, np.int8)), "k": key,
                "b": pa.array(bucket), "ts": pa.array(ts)}
        for c in left_keep:
            cols[c] = t[c]
        for c in value_columns:
            cols[f"v_{c}"] = pa.nulls(n, pa.float64())
        return pa.table(cols)

    def right_rows(t: pa.Table) -> pa.Table:
        ts = _ts_us(t[right_on])
        key = _key_col(t, by)
        bucket = ts // W
        n = t.num_rows
        cols = {"kind": pa.array(np.ones(n, np.int8)), "k": key,
                "b": pa.array(bucket), "ts": pa.array(ts)}
        for c in left_keep:
            cols[c] = pa.nulls(n, keep_types[c])
        for c in value_columns:
            cols[f"v_{c}"] = pa.array(
                t[c].to_numpy(zero_copy_only=False).astype(np.float64))
        return pa.table(cols)

    def per_part(t: pa.Table) -> pa.Table:
        tails_bc = tails_ref.get()
        import pandas as pd

        kind = t["kind"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        bucket = t["b"].to_numpy(zero_copy_only=False)
        l_idx = np.nonzero(kind == 0)[0]
        out_vals = {c: np.full(len(l_idx), np.nan) for c in value_columns}
        match_ts = np.full(len(l_idx), np.iinfo(np.int64).min, dtype=np.int64)
        matched = np.zeros(len(l_idx), dtype=bool)
        # group rows by (key, bucket) within the partition — C-level groupby,
        # the python loop below runs once per CELL, not per row
        cells = pd.DataFrame({"k": t["k"].to_pandas(), "b": bucket}) \
            .groupby(["k", "b"], sort=False).indices
        pos_in_l = np.full(t.num_rows, -1, dtype=np.int64)
        pos_in_l[l_idx] = np.arange(len(l_idx))
        rv = {c: t[f"v_{c}"].to_numpy(zero_copy_only=False)
              for c in value_columns}
        for (k, _b), rows in cells.items():
            lrows = rows[kind[rows] == 0]
            if len(lrows) == 0:
                continue
            rrows = rows[kind[rows] == 1]
            lts = ts[lrows]
            lpos = pos_in_l[lrows]
            # in-bucket predecessor
            if len(rrows):
                r_order = rrows[np.argsort(ts[rrows], kind="stable")]
                r_ts = ts[r_order]
                pos = np.searchsorted(r_ts, lts, side="right") - 1
                ok = pos >= 0
                sel = lpos[ok]
                match_ts[sel] = r_ts[pos[ok]]
                matched[sel] = True
                for c in value_columns:
                    out_vals[c][sel] = rv[c][r_order[pos[ok]]]
            # carry: latest tail at-or-before ts, if later than the
            # in-bucket hit (covers left rows whose predecessor is in an
            # earlier bucket; same-bucket tails can never beat the exact
            # in-bucket predecessor found above)
            side = tails_bc.get(k)
            if side is not None:
                c_ts, c_vals = side
                pos = np.searchsorted(c_ts, lts, side="right") - 1
                ok = (pos >= 0)
                better = ok & (c_ts[np.maximum(pos, 0)] > match_ts[lpos])
                sel = lpos[better]
                match_ts[sel] = c_ts[pos[better]]
                matched[sel] = True
                for c in value_columns:
                    out_vals[c][sel] = c_vals[c][pos[better]]
        if tol is not None:
            within = (ts[l_idx] - match_ts) <= tol
            drop = matched & ~within
            matched[drop] = False
            for c in value_columns:
                out_vals[c][np.nonzero(drop)[0]] = np.nan
        idx_arr = pa.array(l_idx, type=pa.int64())
        cols = {c: t[c].take(idx_arr) for c in left_keep}
        for c in value_columns:
            cols[f"r_{c}"] = pa.array(out_vals[c])
        cols["asof_matched"] = pa.array(matched)
        return pa.table(cols)

    return exchange([left.map_batches(left_rows, batch_format="pyarrow"),
                     right.map_batches(right_rows, batch_format="pyarrow")],
                    per_part, ["k", "b"], batch_format="pyarrow")


# ---------------------------------------------------------------------------
# general equi-joins (broadcast small-side / co-partitioned shuffle)
# ---------------------------------------------------------------------------
class _BroadcastJoinProbe:
    """map_batches payload: Arrow-native probe against the broadcast right
    side. Only the KEY column round-trips through pandas (for the C-level
    merge that yields left/right row indices); every payload column — left
    and right — is assembled with zero-copy-ish `Table.take`, so wide
    untouched columns are never converted. SQL NULL semantics: null keys
    never match (null-key left rows re-appended unmatched for how="left",
    with typed-null right columns)."""

    def __init__(self, right_ref, on: str, how: str):
        self.right_ref = right_ref
        self.on = on
        self.how = how

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        # key frame (on, __ri) / value columns
        r_keys, r_tbl = self.right_ref.get()
        kdf = pd.DataFrame({self.on: batch[self.on].to_pandas(),
                            "__li": np.arange(batch.num_rows, dtype=np.int64)})
        ok = kdf[self.on].notna()
        m = kdf[ok].merge(r_keys, on=self.on, how=self.how)
        li = m["__li"].to_numpy(np.int64)
        ri = m["__ri"].to_numpy(np.float64)  # NaN = unmatched (left join)
        if self.how == "left" and (~ok).any():
            li = np.concatenate([li, kdf.loc[~ok, "__li"].to_numpy(np.int64)])
            ri = np.concatenate([ri, np.full((~ok).sum(), np.nan)])
        left_part = batch.take(pa.array(li, pa.int64()))
        miss = np.isnan(ri)
        ri_arr = pa.array(np.where(miss, 0, ri).astype(np.int64), mask=miss)
        right_part = r_tbl.take(ri_arr)  # null index -> typed-null row
        cols = {name: left_part[name] for name in left_part.column_names}
        for name in right_part.column_names:
            cols[name] = right_part[name]
        return pa.table(cols)


def hash_join_broadcast(left, right, *, on: str, how: str = "inner",
                        right_columns: list[str] | None = None):
    """Equi-join with a SMALL right side: collect + `ray.put` once, probe
    with a vectorized pandas merge inside map_batches — no shuffle, the left
    side streams. `how` = "inner" | "left". Duplicate right keys fan out
    (SQL join semantics); null keys never match.

    Partitioning assumption (documented): the right side fits in the object
    store — dimension tables (region/nation/customer), lookups, vocab maps.
    Use `hash_join_shuffle` when both sides are fact-table sized."""
    if how not in ("inner", "left"):
        raise ValueError(f"hash_join_broadcast: how={how!r}")
    rt = collect_table(right)
    if right_columns is not None:
        rt = rt.select([on, *right_columns])
    rt = rt.filter(pc.is_valid(rt[on]))
    l_names = set(left.schema().names)
    val_names = [c for c in rt.column_names if c != on]
    r_tbl = rt.select(val_names).rename_columns(
        [f"{c}_r" if c in l_names else c for c in val_names])
    r_keys = rt.select([on]).to_pandas()
    r_keys["__ri"] = np.arange(rt.num_rows, dtype=np.int64)
    ref = broadcast((r_keys, r_tbl))
    return left.map_batches(_BroadcastJoinProbe(ref, on, how),
                            batch_format="pyarrow")


def hash_join_shuffle(left, right, *, on: str, how: str = "inner",
                      left_columns: list[str] | None = None,
                      right_columns: list[str] | None = None,
                      salt_buckets: int = 8,
                      hot_keys: set | str | None = None):
    """Equi-join of two LARGE sides: each side projected + tagged in one
    map_batches pass, co-partitioned on hash(key) % P in ONE exchange per
    side (the union shares a single repartition), then a vectorized pandas
    merge per partition. `how` = "inner" | "left" | "right" | "full" |
    "semi" | "anti" (semi/anti return left rows with a match / with no
    match — deduplicated probe side, no fan-out).

    Skew: pass `hot_keys` (a set of known-hot probe keys) or
    `hot_keys="auto"` (samples the PROBE side via `uniqueness.top_hot_keys`
    — NOTE: the sample is an extra execution of that pipeline, so "auto"
    is opt-in, not the default). Hot-key probe rows spread over
    `salt_buckets` sub-partitions and the matching build rows are
    REPLICATED into each — the classic salted join, so a sentinel/
    boilerplate FK at 30% of the fact table no longer pins one partition.
    The PROBE (salted, outer-preserved) side is `left` for
    inner/left/semi/anti and `right` for how="right" — a preserved row
    lands in exactly ONE sub-bucket and meets every replica of its
    matching build rows there, so OUTER semantics stay exact under
    salting. how="full" preserves BOTH sides, which one exchange cannot
    salt (an unmatched build replica can't know its siblings' matches);
    a salted full join instead composes as salted LEFT join ∪ NULL-left
    anti complement — TWO exchanges per side (each input is read twice),
    the documented cost of skew-proofing a full join. Pass hot_keys=None
    (the default) to keep full on the single-exchange unsalted path.

    Partitioning assumption (documented): one NON-HOT key's rows fit a
    partition — keys, not the corpus, bound the cell. Null keys never
    match; for how="left"/"full"/"anti" null-key left rows are
    preserved/returned and for how="right"/"full" null-key right rows are
    preserved (SQL OUTER semantics). Output columns: `left_columns` +
    right `right_columns` (suffixed `_r` on collision). The key must share
    a name on both sides (rename upstream)."""
    import pandas as pd

    from .uniqueness import top_hot_keys

    if how not in ("inner", "left", "right", "full", "semi", "anti"):
        raise ValueError(f"hash_join_shuffle: how={how!r}")
    if not 1 <= salt_buckets <= 127:
        # _salt is stored int8 and joins the merge key: >127 would wrap
        # negative / alias two distinct salts onto one merge-key value —
        # exactly the duplicate-match bug the column exists to prevent
        raise ValueError(
            f"hash_join_shuffle: salt_buckets={salt_buckets} out of range "
            "1..127 (int8 _salt merge-key storage)")
    if isinstance(hot_keys, str) and hot_keys != "auto":
        # set('999') would silently become {'9'} — no error, no salting
        raise ValueError(
            f"hash_join_shuffle: hot_keys={hot_keys!r} — pass 'auto' or a "
            "set of key values")
    S = np.uint64(max(1, salt_buckets))
    lcols = left_columns or [c for c in left.schema().names if c != on]
    rcols = right_columns or [c for c in right.schema().names if c != on]
    reserved = {"part", "kind", "_salt"} & {on, *lcols, *rcols}
    if reserved:  # synthetic exchange columns — a silent overwrite would
        raise ValueError(  # corrupt partition routing / the merge key
            f"hash_join_shuffle: column names {sorted(reserved)} are "
            "reserved by the exchange — rename or project them out")
    if how in ("semi", "anti"):
        rcols = []
    rcols_out = [f"{c}_r" if c in lcols else c for c in rcols]

    l_schema = left.schema()
    l_types = {c: t for c, t in zip(l_schema.names, l_schema.types)}

    r_schema = right.schema()
    r_type_map = {f"{c}_r" if c in lcols else c: _as_arrow_type(t)
                  for c, t in zip(r_schema.names, r_schema.types)}
    r_key_type = _as_arrow_type(dict(zip(r_schema.names, r_schema.types))[on])
    l_key_type = _as_arrow_type(l_types[on])
    if l_key_type != r_key_type:
        # hash partitioning is type-sensitive: int64 2 and float64 2.0 land
        # in different partitions and the join silently drops matches —
        # fail loudly instead
        raise TypeError(
            f"hash_join_shuffle: key {on!r} differs in type across sides "
            f"(left={l_key_type}, right={r_key_type}) — cast one side first")

    if how == "full" and hot_keys is not None:
        # salted FULL outer = salted LEFT join ∪ NULL-left anti complement
        # (a full join preserves BOTH sides; one exchange cannot salt that
        # — see docstring). Null-key right rows never match, so the anti
        # pass returns them and they surface as NULL-left rows (SQL FULL
        # OUTER semantics preserved).
        lj = hash_join_shuffle(
            left, right, on=on, how="left", left_columns=lcols,
            right_columns=rcols, salt_buckets=salt_buckets, hot_keys=hot_keys)
        ar = hash_join_shuffle(
            right, left, on=on, how="anti", left_columns=rcols,
            right_columns=[], salt_buckets=salt_buckets, hot_keys=hot_keys)

        def _null_left(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(index=df.index)
            out[on] = df[on]
            for c in lcols:
                out[c] = np.nan
            for c, name in zip(rcols, rcols_out):
                out[name] = df[c]
            return out

        return lj.union(ar.map_batches(_null_left, batch_format="pandas"))

    probe_is_left = how != "right"  # the salted, outer-preserved side
    if hot_keys is not None:
        probe = left if probe_is_left else right
        hot = top_hot_keys(probe, on) if hot_keys == "auto" \
            else set(hot_keys)
    else:
        hot = set()
    hot.discard(None)  # null keys never match — no need to salt them
    hot_arr = pa.array(list(hot), type=l_key_type) if hot else None

    def _hot_mask(key_col) -> np.ndarray | None:
        if hot_arr is None:
            return None
        m = pc.fill_null(pc.is_in(key_col, value_set=hot_arr), False) \
            .to_numpy(zero_copy_only=False)
        return m if m.any() else None

    # both union branches emit IDENTICAL column order/types:
    # kind, _salt, key, lcols..., rcols_out...
    # the exchange and the merge both key on (key, _salt): two salt
    # sub-buckets of one hot key can share a partition, and merging on the
    # key alone would then match a left row against SEVERAL replicas of
    # the same build row (duplicates)
    def _probe_salt(key_col, n: int) -> np.ndarray | None:
        """Spread hot PROBE rows over S sub-buckets (non-hot: salt 0)."""
        hotm = _hot_mask(key_col)
        if hotm is None:
            return None
        return np.where(hotm, np.arange(n, dtype=np.uint64) % S,
                        np.uint64(0))

    def _replicate_hot(base: pa.Table) -> pa.Table:
        """Replicate hot BUILD rows into every salt sub-bucket (salt 0 is
        the base copy)."""
        hotm = _hot_mask(base[on])
        if hotm is None or int(S) <= 1:
            return base
        hot_rows = base.filter(pa.array(hotm))
        salt_i = base.schema.get_field_index("_salt")
        return pa.concat_tables([base] + [
            hot_rows.set_column(salt_i, "_salt", pa.array(
                np.full(hot_rows.num_rows, s, dtype=np.int8)))
            for s in range(1, int(S))])

    def left_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        salt = _probe_salt(t[on], n) if probe_is_left else None
        cols = {"kind": pa.array(np.zeros(n, np.int8)),
                "_salt": pa.array(np.zeros(n, np.int8) if salt is None
                                  else salt.astype(np.int8)),
                on: t[on]}
        for c in lcols:
            cols[c] = t[c]
        for name in rcols_out:
            cols[name] = pa.nulls(n, r_type_map[name])
        base = pa.table(cols)
        # how="right": left is the BUILD side — replicate its hot rows
        return base if probe_is_left else _replicate_hot(base)

    def right_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        salt = None if probe_is_left else _probe_salt(t[on], n)
        cols = {"kind": pa.array(np.ones(n, np.int8)),
                "_salt": pa.array(np.zeros(n, np.int8) if salt is None
                                  else salt.astype(np.int8)),
                on: t[on]}
        for c in lcols:
            cols[c] = pa.nulls(n, _as_arrow_type(l_types[c]))
        for c, name in zip(rcols, rcols_out):
            cols[name] = t[c]
        base = pa.table(cols)
        return _replicate_hot(base) if probe_is_left else base

    jk = [on, "_salt"]

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        lt = df[df["kind"] == 0]
        rt = df[df["kind"] == 1]
        ldf = lt[[*jk, *lcols]]
        ok = ldf[on].notna()
        if how in ("semi", "anti"):
            rkeys = rt.loc[rt[on].notna(), jk].drop_duplicates()
            m = ldf[jk].merge(rkeys.assign(_hit=1), on=jk, how="left")
            hit = m["_hit"].notna().to_numpy() & ok.to_numpy()
            out = ldf[hit] if how == "semi" else ldf[~hit]
            return out.drop(columns=["_salt"])
        r_ok = rt[on].notna()
        rdf = rt.loc[r_ok, [*jk, *rcols_out]]
        pd_how = {"inner": "inner", "left": "left",
                  "right": "right", "full": "outer"}[how]
        out = ldf[ok].merge(rdf, on=jk, how=pd_how)
        if how in ("left", "full") and (~ok).any():
            out = pd.concat([out, ldf[~ok].reindex(columns=out.columns)],
                            ignore_index=True)
        if how in ("right", "full") and (~r_ok).any():
            out = pd.concat(
                [out, rt.loc[~r_ok, [*jk, *rcols_out]]
                 .reindex(columns=out.columns)], ignore_index=True)
        return out.drop(columns=["_salt"])

    return exchange([left.map_batches(left_rows, batch_format="pyarrow"),
                     right.map_batches(right_rows, batch_format="pyarrow")],
                    per_part, jk)


def _as_arrow_type(t):
    """Schema type → arrow DataType (Ray schemas carry numpy dtypes for
    pandas blocks; their `object` dtype is how pandas stores strings)."""
    if isinstance(t, pa.DataType):
        return t
    if np.dtype(t) == np.dtype("object"):
        return pa.string()
    return pa.from_numpy_dtype(t)


def range_join_bucketed(points, intervals, *, on: str, lo: str, hi: str,
                        bucket_width: float,
                        interval_columns: list,
                        max_fanout: int = 1024):
    """Interval containment join for a BIG interval side — the shuffle
    complement of range_join_broadcast (which collects the intervals on
    the driver), the same upgrade asof_join_bucketed gives the as-of
    family. Emits one output row per (point, containing interval) pair
    (lo <= on <= hi, closed ends, overlaps allowed): the point side's
    columns + `interval_columns`.

    Scale shape: the value axis is cut into `bucket_width` buckets; each
    point routes to its ONE bucket, each interval replicates to every
    bucket it overlaps, then ONE hash(bucket) co-partition exchange and a
    vectorized per-partition bucket-merge + containment filter. Pick
    bucket_width near the typical interval length so replication stays
    O(1) per interval; an interval spanning more than `max_fanout`
    buckets raises loudly (a width misconfiguration would otherwise
    replicate it everywhere). Null points/bounds are dropped."""
    import pandas as pd

    if bucket_width <= 0:
        raise ValueError("range_join_bucketed: bucket_width must be > 0")
    pnames = list(points.schema().names)
    inames = [*interval_columns, lo, hi]
    reserved = {"_bucket", "part", "_side"} & {*pnames, *inames}
    if reserved:
        raise ValueError(f"range_join_bucketed: column names "
                         f"{sorted(reserved)} are reserved")
    overlap = set(pnames) & set(inames)
    if overlap:
        raise ValueError(f"range_join_bucketed: columns {sorted(overlap)} "
                         "appear on both sides — project or rename")
    all_cols = [*pnames, *inames, "_bucket", "_side"]
    w = float(bucket_width)

    def point_rows(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df[on].notna()].copy()
        d["_bucket"] = np.floor(
            d[on].to_numpy(dtype=np.float64) / w).astype(np.int64)
        d["_side"] = np.int8(0)
        return d.reindex(columns=all_cols)

    def interval_rows(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df[lo].notna() & df[hi].notna()]
        d = d[d[lo] <= d[hi]]
        b0 = np.floor(d[lo].to_numpy(dtype=np.float64) / w).astype(np.int64)
        b1 = np.floor(d[hi].to_numpy(dtype=np.float64) / w).astype(np.int64)
        span = b1 - b0 + 1
        if span.size and int(span.max()) > max_fanout:
            raise ValueError(
                f"range_join_bucketed: an interval spans {int(span.max())}"
                f" buckets (> max_fanout={max_fanout}) — raise bucket_width")
        idx = np.repeat(np.arange(len(d)), span)
        offs = np.concatenate([np.arange(n) for n in span]) if len(d) \
            else np.empty(0, np.int64)
        out = d.iloc[idx].copy()
        out["_bucket"] = np.repeat(b0, span) + offs
        out["_side"] = np.int8(1)
        return out.reindex(columns=all_cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        p = df[df["_side"] == 0][[*pnames, "_bucket"]]
        iv = df[df["_side"] == 1][["_bucket", *inames]]
        m = p.merge(iv, on="_bucket")
        m = m[(m[lo] <= m[on]) & (m[on] <= m[hi])]
        return m.drop(columns=["_bucket", lo, hi]).reset_index(drop=True)

    return exchange(
        [points.map_batches(point_rows, batch_format="pandas"),
         intervals.map_batches(interval_rows, batch_format="pandas")],
        per_part, "_bucket")


def join_size_profile(left, right, *, left_on: str, right_on: str,
                      top: int = 20):
    """EXACT equi-join output-size profile WITHOUT running the join — the
    planner op that decides broadcast-vs-shuffle-vs-salt before a
    100-TB join: |A ⋈ B| = Σ_k c_A(k)·c_B(k), with the top contributing
    (hot) keys surfaced so hot_keys= can be fed straight into
    hash_join_shuffle.

    Scale shape: per-batch Arrow key-count partials on EACH side (the
    combiner — only distinct keys per batch move), ONE co-partitioned
    hash(key) exchange over the tagged union, a vectorized pandas
    count-merge per partition emitting (key, n_left, n_right, pairs)
    candidates, local top-k — the driver merges P·k rows. Returns
    (total_pairs:int, DataFrame[key, n_left, n_right, pairs] top-k by
    pairs desc, key asc)."""
    import pandas as pd

    def counts(on: str, side: int):
        def f(t: pa.Table) -> pa.Table:
            k = t[on]
            if pa.types.is_floating(k.type):  # SQL: NaN joins NaN, any sign
                k = pc.if_else(pc.is_nan(k), pa.scalar(float("nan"), k.type),
                               k)
            g = pa.table({on: k}).group_by([on]) \
                .aggregate([([], "count_all")])
            g = g.rename_columns(["key", "c"])
            g = g.filter(pc.is_valid(g["key"]))  # SQL: NULL never joins
            return g.append_column("side", pa.array(
                np.full(g.num_rows, side, np.int8)))
        return f

    both = [left.map_batches(counts(left_on, 0), batch_format="pyarrow"),
            right.map_batches(counts(right_on, 1), batch_format="pyarrow")]

    def per_part(df: pd.DataFrame) -> pa.Table:
        # nulls were dropped in counts(), so a missing key here is NaN — a
        # real key; the partition total rides a row flagged `is_total`
        g = df.groupby(["key", "side"], sort=False, dropna=False)["c"] \
            .sum().unstack("side", fill_value=0)
        a = g[0] if 0 in g.columns else pd.Series(0, index=g.index)
        b = g[1] if 1 in g.columns else pd.Series(0, index=g.index)
        pairs = (a * b).astype("int64")
        out = pd.DataFrame({
            "key": g.index.to_numpy(),
            "n_left": a.to_numpy(dtype="int64"),
            "n_right": b.to_numpy(dtype="int64"),
            "pairs": pairs.to_numpy(),
            "is_total": False})
        tot = out.head(1).assign(n_left=0, n_right=0,
                                 pairs=int(pairs.sum()), is_total=True)
        out = out[out["pairs"] > 0]
        res = pd.concat([
            out.sort_values(["pairs", "key"], ascending=[False, True],
                            kind="stable").head(top),
            tot], ignore_index=True)
        # Arrow from pandas dtypes: Ray would type an all-NaN key as null
        return pa.Table.from_pandas(res, preserve_index=False) \
            .replace_schema_metadata()

    cand = collect_table(exchange(both, per_part, "key")).to_pandas()
    is_total = cand["is_total"].to_numpy(dtype=bool)
    total = int(cand.loc[is_total, "pairs"].sum())
    outs = cand[~is_total].drop(columns="is_total").sort_values(
        ["pairs", "key"], ascending=[False, True], kind="stable") \
        .head(top).reset_index(drop=True)
    for c in ("n_left", "n_right", "pairs"):
        outs[c] = outs[c].astype("int64")
    return total, outs
