"""Streaming global top-k — replaces `ds.sort(...).limit(k)`'s all-to-all
exchange with per-block partials.

`ds.sort` moves EVERY block through a range-partitioned shuffle to return k
rows. Here each block keeps its local top-k inside map_batches (any global
top-k row is in its block's top-k under the same total ordering), and the
driver merges only blocks × k rows with one final sort. Linear scan, zero
shuffle. Include a tiebreaker column in `sort_keys` to make the ordering
total — otherwise boundary ties are resolved arbitrarily (same caveat as
any top-k).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..util import collect_table
from .exchange import exchange


def _top_of(t: pa.Table, sort_keys: list[tuple[str, str]], k: int) -> pa.Table:
    # slicing past the end is safe: returns all rows when num_rows <= k
    return t.take(pc.sort_indices(t, sort_keys=sort_keys)[:k])


def global_top_k(ds, sort_keys: list[tuple[str, str]], k: int) -> pa.Table:
    """Top-k rows of `ds` under `sort_keys` ([(column, 'ascending' |
    'descending'), ...]) as a pyarrow Table. One streaming pass; the driver
    sees blocks x k rows, never the dataset."""
    def partial(t: pa.Table) -> pa.Table:
        return _top_of(t, sort_keys, k)

    merged = collect_table(ds.map_batches(partial, batch_format="pyarrow"))
    if merged.num_rows == 0:
        return merged
    return _top_of(merged, sort_keys, k)


def grouped_top_k(ds, group_column: str, sort_keys: list[tuple[str, str]],
                  k: int):
    """Top-k rows PER GROUP. Per-batch local per-group top-k (any global
    winner is in its batch's local top-k under the same total ordering)
    shrinks the exchange to <= groups-per-batch x k rows; ONE hash(group)
    co-partition shuffle; exact per-group head(k) per partition. Returns a
    Dataset. Include a tiebreaker in sort_keys for a total order."""
    for _, d in sort_keys:
        if d not in ("ascending", "descending"):
            raise ValueError(f"sort direction must be 'ascending' or "
                             f"'descending', got {d!r}")
    cols = [group_column] + [c for c, _ in sort_keys]
    asc = [True] + [d == "ascending" for _, d in sort_keys]

    def local_top(df):
        df = df.sort_values(cols, ascending=asc, kind="stable")
        return df.groupby(group_column, sort=False, dropna=False).head(k)

    return exchange(ds.map_batches(local_top, batch_format="pandas"),
                    local_top, group_column)


def grouped_top_values(ds, group_column: str, value_column: str, k: int):
    """Top-k most frequent values PER GROUP — the categorical profile of a
    column within each segment (top event types per user, top domains per
    language, ...). Exact counts, deterministic ties (count desc, value
    asc).

    Scale shape: each batch collapses to its (group, value, n) counts (one
    row per distinct pair per batch), ONE hash(group) coarse-partition
    exchange of the count partials, per-partition sum + per-group head(k).
    Unlike grouped_top_k the partials canNOT be truncated to k before the
    exchange (a value's global count accumulates across batches), so the
    exchange moves one row per distinct pair per batch — fine for
    bounded-cardinality value columns; for unbounded ones compose a
    sketches.heavy_hitters pre-filter. Null groups and null values are
    dropped. Returns a Dataset of (group, value, n)."""
    import pandas as pd

    reserved = {"part", "n"} & {group_column, value_column}
    if reserved:  # synthetic exchange/output columns
        raise ValueError(f"grouped_top_values: column names "
                         f"{sorted(reserved)} are reserved")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[group_column, value_column]].dropna()
        return d.groupby([group_column, value_column], sort=False).size() \
            .reset_index(name="n")

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby([group_column, value_column], sort=False)["n"] \
            .sum().reset_index()
        g = g.sort_values([group_column, "n", value_column],
                          ascending=[True, False, True], kind="stable")
        out = g.groupby(group_column, sort=False).head(k)
        return out.assign(n=out["n"].astype("int64"))

    return exchange(ds.map_batches(partial, batch_format="pandas"),
                    per_part, group_column)


def argmax_by_group(ds, key_column: str, value_column: str, *,
                    tie_column: str | None = None,
                    keep_columns: list[str] | None = None,
                    mode: str = "max"):
    """One winning ROW per group — the row with the max (or min) value of
    `value_column` within each `key_column` group ("latest event per user",
    "most expensive order per customer"). SQL analog: `row_number() OVER
    (PARTITION BY key ORDER BY value DESC, tie ASC) = 1`.

    A projection + null-contract front-end over `grouped_top_k` (k=1):
    columns prune to key/value/tie/keep before the exchange, null keys and
    null values are dropped (SQL window semantics never rank them first),
    and ties break by smallest `tie_column` — without one, duplicate
    extreme values make the winner input-order-dependent. Scale shape is
    grouped_top_k's: per-batch local argmax combiner, ONE hash(key)
    exchange, no global sort."""
    import pandas as pd

    if mode not in ("max", "min"):
        raise ValueError(f"argmax_by_group: mode={mode!r}")
    keep = list(keep_columns or [])
    cols = [key_column, value_column] \
        + ([tie_column] if tie_column and tie_column not in keep else []) \
        + [c for c in keep if c not in (key_column, value_column)]
    cols = list(dict.fromkeys(cols))
    if "part" in cols:  # synthetic exchange column
        raise ValueError("argmax_by_group: column name 'part' is reserved")

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return df[cols].dropna(subset=[key_column, value_column])

    sort_keys = [(value_column,
                  "descending" if mode == "max" else "ascending")] \
        + ([(tie_column, "ascending")] if tie_column else [])
    return grouped_top_k(ds.map_batches(project, batch_format="pandas"),
                         key_column, sort_keys, 1)
