"""Reshaping — distributed pivot (long → wide) and melt (wide → long).

Pivot is the dataset-level analog of the reference's per-document
properties expansion (gojsonschema subSchema.go propertiesChildren turns
one JSON object into named fields; this turns one VALUE COLUMN into named
fields, one per category). Melt is its inverse — the row-expanding shape
used to feed per-measure validators a single (name, value) stream.

Scale shape:
- `pivot_wide`: per-batch (key, category) aggregation partials (batches
  shrink before anything moves) → ONE hash(key) coarse-partition exchange
  → per-partition vectorized pandas pivot with a FIXED, globally-known
  column set. The category set must be small (a pivot with unbounded
  categories is a schema explosion, not a reshape) — it is either passed
  by the caller or discovered with a cheap distinct pass whose result is
  capped loudly (`max_categories`). Skewed keys are irrelevant: partials
  are one row per (key, category) per batch, so a hot key contributes at
  most |categories| rows per input batch.
- `melt`: pure per-batch flat expansion — zero shuffle, streams.
"""

from __future__ import annotations

import numpy as np

from .exchange import exchange

_AGGS = ("count", "sum")


def distinct_small(ds, column: str, *, cap: int) -> list:
    """Distinct values of a LOW-CARDINALITY column: per-batch unique
    partials (each batch contributes ≤ its distinct set, capped loudly)
    collected on the driver. Raises if the set exceeds `cap` — the caller
    asked for something that is not low-cardinality."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..util import collect_rows

    def partial(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch[column])
        u = u.drop_null()
        if len(u) > cap:
            raise ValueError(
                f"distinct_small: column {column!r} has >{cap} distinct "
                "values in one batch — not a pivotable category column")
        return pa.table({column: u})

    vals = {r[column] for r in collect_rows(ds.map_batches(
        partial, batch_format="pyarrow"))}
    if len(vals) > cap:
        raise ValueError(
            f"distinct_small: column {column!r} has {len(vals)} distinct "
            f"values (> cap={cap})")
    return sorted(vals)


def pivot_wide(ds, key_column: str, pivot_column: str,
               value_column: str | None = None, agg: str = "count", *,
               pivot_values: list | None = None, max_categories: int = 256,
               fill_value: float | int = 0):
    """Wide table: one row per key, one column per category of
    `pivot_column`, cells = count(*) (agg='count') or sum(value_column)
    (agg='sum') over the matching rows, `fill_value` where a (key,
    category) pair never occurs. Column order/names = sorted categories
    (cast to str). Null keys/categories are dropped.

    `pivot_values` fixes the output schema up front (categories not
    listed are DROPPED; listed-but-absent ones become all-fill columns) —
    at 100 TB pass it explicitly so the discovery pass is skipped and
    every partition agrees on the schema without coordination."""
    import pandas as pd

    if agg not in _AGGS:
        raise ValueError(f"pivot_wide: agg must be one of {_AGGS}")
    if agg == "sum" and value_column is None:
        raise ValueError("pivot_wide: agg='sum' needs value_column")
    reserved = {"part", "_pv", "_v"} & {key_column, pivot_column,
                                        value_column}
    if reserved:
        raise ValueError(
            f"pivot_wide: column names {sorted(reserved)} are reserved")

    if pivot_values is None:
        pivot_values = distinct_small(
            ds.select_columns([pivot_column]), pivot_column,
            cap=max_categories)
    cats = [str(v) for v in pivot_values]
    if len(set(cats)) != len(cats):
        raise ValueError("pivot_wide: pivot values collide after str()")
    if str(key_column) in cats:
        raise ValueError(
            f"pivot_wide: category {key_column!r} collides with the key "
            "column in the output schema")
    keep = set(pivot_values)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = [key_column, pivot_column] + (
            [value_column] if agg == "sum" else [])
        d = df[cols].dropna(subset=[key_column, pivot_column])
        d = d[d[pivot_column].isin(keep)]
        if agg == "count":
            g = d.groupby([key_column, pivot_column], sort=False) \
                .size().reset_index(name="_v")
            g["_v"] = g["_v"].astype("float64")
        else:
            g = d.groupby([key_column, pivot_column], sort=False,
                          as_index=False)[value_column].sum() \
                .rename(columns={value_column: "_v"})
        g = g.rename(columns={pivot_column: "_pv"})
        g["_pv"] = g["_pv"].astype(str)
        return g

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        w = df.pivot_table(index=key_column, columns="_pv", values="_v",
                           aggfunc="sum")
        w = w.reindex(columns=cats)
        w = w.fillna(fill_value).reset_index()
        w.columns.name = None
        return w[[key_column] + cats]

    return exchange(ds.map_batches(partial, batch_format="pandas"),
                    widen, key_column)


def melt(ds, id_columns: list[str], value_columns: list[str], *,
         var_name: str = "variable", value_name: str = "value"):
    """Long table: one output row per (input row × value column) —
    id columns carried through, `var_name` = the source column's name,
    `value_name` = its value. Pure per-batch expansion, no shuffle."""
    import pandas as pd

    clash = ({var_name, value_name} & set(id_columns)) or \
        ({var_name, value_name} & set(value_columns))
    if clash:
        raise ValueError(
            f"melt: output names {sorted(clash)} collide with input "
            "columns — pass different var_name/value_name")

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        return df.melt(id_vars=list(id_columns),
                       value_vars=list(value_columns),
                       var_name=var_name, value_name=value_name)

    return ds.map_batches(expand, batch_format="pandas")


def union_by_name(datasets: list, *, strict: bool = False):
    """Schema-evolution-safe UNION ALL BY NAME: concatenate Datasets whose
    schemas differ (added/dropped/reordered columns across epochs — the
    normal state of a long-lived 100-TB table). The target schema is the
    pyarrow-unified union of all input schemas (compatible type
    promotions allowed); every batch is aligned per-column — missing
    columns null-filled, present columns cast — then the aligned streams
    union. Pure per-batch work, zero shuffle, streams.

    strict=True instead REQUIRES identical column-name sets (reordering/
    promotion still allowed) — the guard mode for pipelines where a
    dropped column should fail loudly, matching the reference's
    additionalProperties=false posture (/root/reference/subSchema.go)."""
    import pyarrow as pa

    if not datasets:
        raise ValueError("union_by_name: no datasets")

    def pa_schema(ds) -> pa.Schema:
        base = ds.schema().base_schema
        if isinstance(base, pa.Schema):
            return base
        # pandas-backed blocks: PandasBlockSchema(names, numpy dtypes);
        # dtype('O') is assumed string — align()'s cast fails loudly if not
        return pa.schema([
            (n, pa.string() if t == np.dtype("O")
             else pa.from_numpy_dtype(t))
            for n, t in zip(base.names, base.types)])

    schemas = [pa_schema(ds) for ds in datasets]
    names: list[str] = []
    for s in schemas:
        for n in s.names:
            if n not in names:
                names.append(n)
    if strict:
        for s in schemas:
            missing = set(names) - set(s.names)
            if missing:
                raise ValueError("union_by_name(strict): missing columns "
                                 f"{sorted(missing)} in one input")
    target = pa.unify_schemas(
        [pa.schema([(n, s.field(n).type) for n in names if n in s.names])
         for s in schemas], promote_options="permissive")
    target = pa.schema([target.field(n) for n in names])

    def align(t: pa.Table) -> pa.Table:
        cols = []
        for n in names:
            f = target.field(n)
            if n in t.schema.names:
                cols.append(t[n].cast(f.type))
            else:
                cols.append(pa.nulls(t.num_rows, f.type))
        return pa.table(dict(zip(names, cols)))

    out = datasets[0].map_batches(align, batch_format="pyarrow")
    for ds in datasets[1:]:
        out = out.union(ds.map_batches(align, batch_format="pyarrow"))
    return out
