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

Stored partials (the flagship's global check): when the partials already
sit on disk — one ``KeyCountStage.write`` file per fragment, sorted by
`part`, one row group per `part` value, the tag width in the schema
metadata — the shuffle's map side is done. ``stored_key_count_violations``
then runs P plain Ray reducer tasks: reducer p reads only the row groups
tagged p (a file tagged at another width, from before the layout, or
with a null integer key from before ``INT_TAGS``, is read whole and
re-tagged), sums the counts per key and returns the duplicate keys as
violation rows. No repartition, materialize or sort.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..util import collect_rows
from .exchange import exchange, exchange_parts, hash_part
from .validate import VIOLATION_SCHEMA


# schema metadata key of a stored partial: the width its `part` tags have
PART_WIDTH = b"part_width"
# schema metadata key marking a stored partial whose integer keys were
# tagged by their integer values; older files tagged a null-holding integer
# block by its float64 conversion, so their integer keys are re-tagged
INT_TAGS = b"int_tags"


class KeyCountStage:
    """map_batches payload: batch → (key, cnt, part) partial counts.

    `part` is the exchange's partition hash of the key at `n_parts` (one
    bucket per cluster CPU, see exchange.exchange_parts): `write` stores
    the partials laid out by it, so stored_key_count_violations reads each
    reducer's rows without re-hashing. aggregate_key_counts re-tags the
    partials it exchanges, at the same width."""

    def __init__(self, key: str):
        self.key = key
        self.n_parts = exchange_parts()

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = batch.select([self.key]).group_by(self.key).aggregate([(self.key, "count")])
        g = g.rename_columns([self.key, "cnt"])
        return g.append_column("part", hash_part(g[self.key], self.n_parts))

    def write(self, batch: pa.Table, path: str) -> None:
        """Store the batch's partial at `path` for
        stored_key_count_violations: rows sorted by `part`, one row group
        per `part` value, the tag width in the schema metadata."""
        g = self(batch)
        g = g.take(pc.sort_indices(g["part"]))
        _, starts = np.unique(g["part"].to_numpy(), return_index=True)
        ends = [*starts[1:], g.num_rows]
        g = g.replace_schema_metadata({PART_WIDTH: str(self.n_parts),
                                       INT_TAGS: b"1"})
        with pq.ParquetWriter(path, g.schema) as w:
            for a, b in zip(starts, ends):
                w.write_table(g.slice(a, b - a))


def aggregate_key_counts(partials, key: str, min_count: int = 2,
                         finish=None):
    """(key, n) totals with n >= min_count, from (key, cnt) partials (a
    `part` column on them, as KeyCountStage adds, is replaced).

    ONE exchange keyed on `key` into exchange_parts() partitions (one per
    cluster CPU), then a vectorized pandas groupby per partition.
    Skew-proof: partials are already collapsed per block, so even a key
    holding 50% of all rows contributes ≤ one row per block to its
    partition. The result does not depend on the exchange width: each
    partition groups on the key.

    `finish` maps each partition's (key, n) frame to the output block
    inside the reducer. A map_batches after the exchange would never see
    a partition with no qualifying key (Ray skips UDFs on empty blocks),
    so its output would lose its columns."""
    import pandas as pd

    def per_part(df: pd.DataFrame):
        g = df.groupby(key, as_index=False, sort=False, dropna=True)["cnt"].sum()
        g = g[g["cnt"] >= min_count].rename(columns={"cnt": "n"})
        return finish(g) if finish else g

    return exchange(partials, per_part, key, P=exchange_parts())


def _key_counts(ds, key: str, finish, min_count: int = 2):
    partials = ds.map_batches(KeyCountStage(key), batch_format="pyarrow")
    return aggregate_key_counts(partials, key, min_count=min_count,
                                finish=finish)


def duplicate_keys(ds, key: str):
    """Dataset of (key, n_rows) for keys appearing more than once.

    NULL keys are ignored (absent property, matching the engine's
    null-as-absent mapping)."""
    return _key_counts(ds, key, lambda g: pa.table(
        {key: pa.array(g[key]), "n_rows": pa.array(g["n"])}))


def _violation_table(key: str, keys, n) -> pa.Table:
    """Duplicated `keys` with their row counts `n` as VIOLATION_SCHEMA rows."""
    m = len(keys)
    return pa.table({
        "key": pc.cast(keys, pa.string()),
        "keyword": pa.array(["unique"] * m, pa.string()),
        "path": pa.array([f"(root).{key}"] * m, pa.string()),
        "expected": pa.array([f"unique {key}"] * m, pa.string()),
        "actual": pc.cast(n, pa.string()),
    }, schema=VIOLATION_SCHEMA)


def _violation_rows(key: str):
    """Reducer finish: (key, n) frame -> VIOLATION_SCHEMA rows."""
    return lambda g: _violation_table(key, pa.array(g[key]), pa.array(g["n"]))


def uniqueness_violations(ds, key: str):
    """Violation rows (key, keyword='unique', path, expected, actual) for
    duplicated keys — same shape as the per-row violation table (F4),
    typed as VIOLATION_SCHEMA even for a partition with no duplicates."""
    return _key_counts(ds, key, _violation_rows(key))


def _stored_part(path: str, key: str, p: int, P: int) -> pa.Table:
    """(key, cnt) rows of part `p` of `P` in one stored partial: its
    row groups tagged p when it is tagged at width P, else the whole file
    re-tagged (another cluster size, the untagged older layout, or integer
    keys with a null tagged before INT_TAGS) — one key under two tags
    would reach two reducers."""
    f = pq.ParquetFile(path)
    meta, groups = f.schema_arrow.metadata or {}, f.metadata
    k = f.schema_arrow.get_field_index(key)
    if meta.get(PART_WIDTH) == str(P).encode() and (
            INT_TAGS in meta
            or not pa.types.is_integer(f.schema_arrow.field(key).type)
            # a block with no null key was tagged by its int64 values
            or all(groups.row_group(i).column(k).statistics.null_count == 0
                   for i in range(groups.num_row_groups))):
        col = f.schema_arrow.get_field_index("part")
        return f.read_row_groups(
            [i for i in range(groups.num_row_groups)
             if groups.row_group(i).column(col).statistics.min == p],
            columns=[key, "cnt"])
    t = f.read(columns=[key, "cnt"])
    return t.filter(pc.equal(hash_part(t[key], P), p))


@ray.remote(num_cpus=1, num_returns=2)
def _reduce_stored(paths: list[str], key: str, p: int, P: int):
    """Reducer p of stored_key_count_violations: its violation rows and
    their number."""
    t = pa.concat_tables([_stored_part(f, key, p, P) for f in paths])
    g = t.filter(pc.is_valid(t[key])).group_by(key).aggregate([("cnt", "sum")])
    g = g.filter(pc.greater_equal(g["cnt_sum"], 2))
    return _violation_table(key, g[key], g["cnt_sum"]), g.num_rows


def stored_key_count_violations(paths: list[str], key: str):
    """uniqueness_violations from the KeyCountStage.write partials stored at
    `paths` (run_flagship keeps one per fragment), without reading the key
    column again: P = exchange_parts() plain reducer tasks, no Ray Data
    exchange. All reducers have finished when this returns — a reducer's
    error raises here, before the caller writes anything — and the result
    is a Dataset over their P output blocks, which the driver never
    fetches."""
    import ray.data as rd

    P = exchange_parts()
    tables, counts = zip(*(_reduce_stored.remote(paths, key, p, P)
                           for p in range(P)))
    ray.get(list(counts))
    return rd.from_arrow_refs(list(tables))


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
    """Sample-based hot-key scan (pre-shuffle skew detection): of the
    `top_k` most frequent sampled keys, those whose sampled share exceeds
    `min_share` of rows."""
    sample = ds.random_sample(sample_frac, seed=42).materialize()
    n_sample = max(1, sample.count())
    # each partition keeps its own top_k: a global top-k key is in one
    rows = collect_rows(_key_counts(
        sample, key, lambda g: g.nlargest(top_k, "n"), min_count=1))
    rows.sort(key=lambda r: r["n"], reverse=True)
    # a key's sampled share IS its estimated true share (uniform sampling)
    return {r[key] for r in rows[:top_k]
            if r["n"] / n_sample >= min_share and r[key] is not None}


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

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[key_column, value_column]]
        return d[d[value_column].notna()].drop_duplicates()

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates([key_column, value_column])
        g = d.groupby(key_column, sort=False, dropna=False).size() \
            .reset_index(name="n_distinct")
        g["n_distinct"] = g["n_distinct"].astype("int64")
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    return exchange(partials, per_part, key_column)
