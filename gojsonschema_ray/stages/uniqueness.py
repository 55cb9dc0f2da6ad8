"""Dataset-scope key uniqueness — `uniqueItems` lifted from one row's list
(reference validation.go:530-547) to 10^12 rows (SURVEY.md §2.6).

Strategy (scale-first):
1. **Pre-aggregate inside map_batches**: each batch collapses to (key, count)
   partials via an Arrow hash-group-by — duplicate-heavy batches shrink
   before anything moves.
2. **One keyed shuffle over the partials**: ``groupby(key).sum(count)`` —
   the all-to-all exchange moves at most one row per distinct key per block,
   not one row per input row.
3. **Skew**: a hot key (e.g. "clip-hot", 0.1% of all rows) arrives at the
   reducer already collapsed to one partial row per block, so the classic
   hot-reducer blowup cannot happen — the pre-aggregation IS the salting
   (count partials are associative). For hot-key *payload* pipelines (where
   rows, not counts, must co-locate) see the salted repartition helper.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import collect_rows
from .exchange import exchange, exchange_parts, hash_part, shuffle_width
from .validate import VIOLATION_SCHEMA


class KeyCountStage:
    """map_batches payload: batch → (key, cnt, part) partial counts.

    `part` is a deterministic hash partition of the key (coarse — one
    bucket per cluster CPU, see exchange.exchange_parts) so the
    downstream exchange groups on a tiny int domain instead of paying Ray's
    sort-based groupby over every distinct key."""

    def __init__(self, key: str):
        self.key = key
        self.n_parts = exchange_parts()

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = batch.select([self.key]).group_by(self.key).aggregate([(self.key, "count")])
        g = g.rename_columns([self.key, "cnt"])
        return g.append_column("part", hash_part(g[self.key], self.n_parts))


def aggregate_key_counts(partials, key: str, min_count: int = 2,
                         finish=None):
    """(key, n) totals with n >= min_count, from (key, cnt, part) partials.

    ONE exchange keyed on the coarse `part` column (one value per cluster
    CPU by default — trivially sortable), then a vectorized pandas groupby
    per partition. Skew-proof: partials are already collapsed per block, so
    even a key holding 50% of all rows contributes ≤ one row per block to
    its bucket. The result does not depend on the exchange width or on the
    width the partials were tagged with: each partition groups on the key.

    `finish` maps each partition's (key, n) frame to the output block
    inside the reducer. A map_batches after the exchange would never see
    a partition with no qualifying key (Ray skips UDFs on empty blocks),
    so its output would lose its columns."""
    import pandas as pd

    def per_part(df: pd.DataFrame):
        g = df.groupby(key, as_index=False, sort=False, dropna=True)["cnt"].sum()
        g = g[g["cnt"] >= min_count].rename(columns={"cnt": "n"})
        return finish(g) if finish else g

    return exchange(partials, per_part, exchange_parts())


def _key_counts(ds, key: str, finish):
    partials = ds.map_batches(KeyCountStage(key), batch_format="pyarrow")
    return aggregate_key_counts(partials, key, min_count=2, finish=finish)


def duplicate_keys(ds, key: str):
    """Dataset of (key, n_rows) for keys appearing more than once.

    NULL keys are ignored (absent property, matching the engine's
    null-as-absent mapping)."""
    return _key_counts(ds, key, lambda g: pa.table(
        {key: pa.array(g[key]), "n_rows": pa.array(g["n"])}))


def _violation_rows(key: str):
    """Reducer finish: (key, n) frame -> VIOLATION_SCHEMA rows."""

    def to_violations(g) -> pa.Table:
        n = len(g)
        return pa.table({
            "key": pc.cast(pa.array(g[key]), pa.string()),
            "keyword": pa.array(["unique"] * n, pa.string()),
            "path": pa.array([f"(root).{key}"] * n, pa.string()),
            "expected": pa.array([f"unique {key}"] * n, pa.string()),
            "actual": pc.cast(pa.array(g["n"]), pa.string()),
        }, schema=VIOLATION_SCHEMA)

    return to_violations


def uniqueness_violations(ds, key: str):
    """Violation rows (key, keyword='unique', path, expected, actual) for
    duplicated keys — same shape as the per-row violation table (F4),
    typed as VIOLATION_SCHEMA even for a partition with no duplicates."""
    return _key_counts(ds, key, _violation_rows(key))


def key_count_violations(counts, key: str):
    """uniqueness_violations from (key, cnt) partials counted earlier — e.g.
    the KeyCountStage output run_flagship stores per partition — without
    reading the key column again.

    The partials are re-tagged at the current exchange width: partials
    stored by runs on clusters of other sizes carry `part` tags of other
    widths, and one key under two tags would reach two reducers."""
    P = exchange_parts()

    def tag(batch: pa.Table) -> pa.Table:
        return batch.select([key, "cnt"]).append_column(
            "part", hash_part(batch[key], P))

    partials = counts.map_batches(tag, batch_format="pyarrow")
    return aggregate_key_counts(partials, key, min_count=2,
                                finish=_violation_rows(key))


def add_salted_key(batch: pa.Table, key: str, hot_keys: set, salt_buckets: int,
                   seed_col: str | None = None) -> pa.Table:
    """Append a shuffle key = hash(key) with hot keys salted into sub-buckets.

    Used when row *payloads* (not counts) must be co-located by key and a few
    keys are orders of magnitude hotter than the rest: the hot keys spread
    over `salt_buckets` sub-partitions; consumers merge the salted groups in
    a cheap second pass."""
    import pandas as pd

    keys = batch[key].to_pandas()
    h = pd.util.hash_pandas_object(keys, index=False).to_numpy(dtype=np.uint64)
    if hot_keys:
        hot = keys.isin(list(hot_keys)).to_numpy()
        if hot.any():
            salt = np.arange(len(keys), dtype=np.uint64) % np.uint64(salt_buckets)
            h = np.where(hot, h ^ (salt * np.uint64(0x9E3779B97F4A7C15)), h)
    return batch.append_column("_shuffle_key", pa.array(h.astype(np.int64)))


def top_hot_keys(ds, key: str, sample_frac: float = 0.01, top_k: int = 16,
                 min_share: float = 0.001) -> set:
    """Sample-based hot-key scan (pre-shuffle skew detection): keys whose
    sampled share exceeds `min_share` of rows."""
    sample = ds.random_sample(sample_frac, seed=42).materialize()
    n_sample = max(1, sample.count())
    counts = sample.map_batches(KeyCountStage(key), batch_format="pyarrow") \
        .groupby(key).sum("cnt")
    rows = collect_rows(counts.sort("sum(cnt)", descending=True).limit(top_k))
    # a key's sampled share IS its estimated true share (uniform sampling)
    return {r[key] for r in rows
            if r["sum(cnt)"] / n_sample >= min_share and r[key] is not None}


def grouped_nunique(ds, key_column: str, value_column: str):
    """EXACT per-key distinct-value counts — COUNT(DISTINCT value) GROUP BY
    key, the cardinality profile of a feature column (distinct active days
    per user, distinct sources per document, ...).

    Combiner-first, same scale shape as key uniqueness: each batch collapses
    to its distinct (key, value) pairs (duplicate-heavy batches shrink
    before anything moves), ONE hash(key) coarse-partition exchange of the
    pair partials, then a per-partition pandas dedup + size. The exchange
    moves at most one row per distinct (key, value) pair per batch — never
    input rows. Null values are ignored (SQL COUNT(DISTINCT) semantics);
    null keys are kept as their own group (use a filter upstream if not
    wanted). Returns a Dataset of (key, n_distinct)."""
    import pandas as pd

    P = shuffle_width()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[key_column, value_column]]
        d = d[d[value_column].notna()].drop_duplicates()
        return d.assign(part=hash_part(d[key_column], P))

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates([key_column, value_column])
        g = d.groupby(key_column, sort=False, dropna=False).size() \
            .reset_index(name="n_distinct")
        g["n_distinct"] = g["n_distinct"].astype("int64")
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    return exchange(partials, per_part, P)
