"""Co-occurrence pair mining — which values appear together under the same
key (event types per user, tags per document, products per basket): the
support-counting core of association analysis, and a dataset-level
generalization of the reference's per-document dependencies keyword
(gojsonschema validation.go dependenciesKind asks "does property B appear
whenever A does" inside ONE document; this counts A∧B across rows).

Scale shape — two coarse exchanges, both skew-proof:
1. per-batch distinct (key, value) pairs (duplicate-heavy batches shrink
   before anything moves) → ONE hash(key) coarse-partition exchange → each
   partition holds every value of its keys, emits the unordered value pairs
   (v1 < v2) per key and pre-counts them per partition;
2. the per-partition pair-count partials (≤ |distinct pairs| rows each) →
   ONE hash(v1,v2) coarse exchange → vectorized per-partition sum + support
   filter.
No all-pairs step ever sees the dataset: pair generation is per key over
its DISTINCT values. A key with a degenerate value set (a basket with
thousands of items) generates O(m²) pairs; `max_values_per_key` drops such
keys loudly (audited count in the log) rather than letting one hot key
dominate — the same bounded-degenerate-bucket policy as the LSH dedup
stages (stages/dedup.py).
"""

from __future__ import annotations

import logging

import numpy as np

from .exchange import exchange

logger = logging.getLogger(__name__)


def cooccurrence_pairs(ds, key_column: str, value_column: str, *,
                       min_count: int = 1,
                       max_values_per_key: int | None = None):
    """Dataset of (v1, v2, n): for how many distinct keys do both values
    occur — v1 < v2 lexicographically, n >= min_count (support). Nulls in
    either column are dropped. Keys with more than `max_values_per_key`
    distinct values are skipped with a logged count (None = no cap)."""
    import pandas as pd

    reserved = {"part", "v1", "v2", "cnt", "n"} & \
        {key_column, value_column}
    if reserved:  # synthetic exchange/output columns
        raise ValueError(f"cooccurrence_pairs: column names "
                         f"{sorted(reserved)} are reserved")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df[[key_column, value_column]].dropna().drop_duplicates()

    def per_key_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates([key_column, value_column]) \
            .sort_values([key_column, value_column], kind="stable")
        vals = d[value_column].to_numpy()
        _, starts = np.unique(d[key_column].to_numpy(), return_index=True)
        ends = np.append(starts[1:], len(vals))
        a_parts, b_parts, dropped = [], [], 0
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            if max_values_per_key is not None and m > max_values_per_key:
                dropped += 1
                continue
            iu, ju = np.triu_indices(m, k=1)
            a_parts.append(vals[s + iu])
            b_parts.append(vals[s + ju])
        if dropped:
            logger.warning("cooccurrence_pairs: dropped %d keys over "
                           "max_values_per_key=%s", dropped,
                           max_values_per_key)
        if not a_parts:
            return pd.DataFrame({"v1": pd.Series([], dtype=object),
                                 "v2": pd.Series([], dtype=object),
                                 "cnt": pd.Series([], dtype="int64")})
        pairs = pd.DataFrame({"v1": np.concatenate(a_parts),
                              "v2": np.concatenate(b_parts)})
        g = pairs.groupby(["v1", "v2"], sort=False).size() \
            .reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype("int64")
        return g

    def per_pair(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["v1", "v2"], sort=False, as_index=False)["cnt"] \
            .sum()
        g = g[g["cnt"] >= min_count]
        return g.rename(columns={"cnt": "n"})

    by_key = exchange(ds.map_batches(partial, batch_format="pandas"),
                      per_key_pairs, key_column)
    return exchange(by_key, per_pair, ["v1", "v2"])


def association_support(ds, key_column: str, value_column: str, *,
                        min_count: int = 1,
                        max_values_per_key: int | None = None):
    """Association-rule support table: (v1, v2, n_pair, n1, n2) — pair
    support plus each value's own distinct-key support, the exact integer
    numerators/denominators of confidence (n_pair/n1) and lift
    (n_pair·N/(n1·n2)); emitting the integers keeps the result
    float-free and exactly SQL-checkable. v1 < v2; n_pair >= min_count.

    Composes cooccurrence_pairs (two coarse exchanges) with a per-value
    distinct-key count (uniqueness.grouped_nunique — one more coarse
    exchange); the driver joins the |V|² pair rows against the |V| value
    supports. `ds` is consumed twice — pass a re-readable pipeline or a
    materialized Dataset. Returns a pandas DataFrame sorted by (v1, v2)."""
    import pandas as pd

    from ..util import collect_rows
    from .uniqueness import grouped_nunique

    pairs = collect_rows(cooccurrence_pairs(
        ds, key_column, value_column, min_count=min_count,
        max_values_per_key=max_values_per_key))
    support = {r[value_column]: int(r["n_distinct"]) for r in
               collect_rows(grouped_nunique(ds, value_column, key_column))}
    rows = [{"v1": r["v1"], "v2": r["v2"], "n_pair": int(r["n"]),
             "n1": support[r["v1"]], "n2": support[r["v2"]]}
            for r in pairs]
    df = pd.DataFrame(rows, columns=["v1", "v2", "n_pair", "n1", "n2"])
    if len(df):
        df = df.astype({"n_pair": "int64", "n1": "int64", "n2": "int64"})
    return df.sort_values(["v1", "v2"]).reset_index(drop=True)
