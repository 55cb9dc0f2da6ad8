"""Schema INFERENCE — profile a Dataset into a compilable draft-07 ruleset.

The reference validates documents against a schema the user supplies
(`/root/reference/schema.go`); at table scale the complementary operation
is deriving that schema FROM the data: observed JSON types, nullability
(→ `required`), numeric bounds (→ `minimum`/`maximum`), string length
bounds (→ `minLength`/`maxLength`) and low-cardinality value sets
(→ `enum`). The inferred dict compiles with `gojsonschema_ray.compile_schema`
and validating the profiled table against it yields zero violations — the
infer → compile → validate roundtrip is tested (tests/test_stages.py).

Scale shape (combiner-first, no shuffle): one `map_batches` pass emits a
FIXED-WIDTH partial row per (column, block) — counts, min/max, length
bounds, and a distinct-value list CAPPED at enum_max+1 entries — and the
driver folds the tiny partial stream (#blocks × #columns rows, independent
of row count) with plain set/min/max merges, the same associative-partials
pattern as stages/sketches.py. A block whose distinct cap overflows
poisons the enum for that column (emits null), so the driver never sees
more than enum_max+1 values per column per block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import collect_rows
from .exchange import exchange

PARTIAL_SCHEMA = pa.schema([
    ("column", pa.string()),
    ("jtype", pa.string()),
    ("n", pa.int64()),
    ("n_null", pa.int64()),
    ("min_num", pa.float64()),
    ("max_num", pa.float64()),
    ("min_len", pa.int64()),
    ("max_len", pa.int64()),
    ("distinct", pa.list_(pa.string())),  # capped; null = overflow / n-a
])


def _jtype(t: pa.DataType) -> tuple[str | None, str | None]:
    """Arrow type → (JSON-schema type, format) per the engine's data model
    (SURVEY.md §1.2: integers ⊂ numbers; timestamps and binary columns are
    opaque scalars — profiled for nullability only)."""
    if pa.types.is_boolean(t):
        return "boolean", None
    if pa.types.is_integer(t):
        return "integer", None
    if pa.types.is_floating(t) or pa.types.is_decimal(t):
        return "number", None
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        # the vectorized engine treats temporal columns as OPAQUE scalars
        # (stages/validate.py:94) — they match no JSON type, so the
        # inferred rule must not constrain one (profile still records
        # nullability for `required`)
        return None, "date-time"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "string", None
    if pa.types.is_list(t) or pa.types.is_large_list(t) \
            or pa.types.is_fixed_size_list(t):
        return "array", None
    if pa.types.is_struct(t) or pa.types.is_map(t):
        return "object", None
    return None, None  # binary & exotics: profiled for nullability only


class InferPartialStage:
    """map_batches payload: batch → one fixed-width partial row per column."""

    def __init__(self, columns: list[str] | None = None, enum_max: int = 16):
        self.columns = columns
        self.enum_max = enum_max

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = self.columns or batch.column_names
        rows = []
        for name in cols:
            col = batch[name]
            t = col.type
            jt, _fmt = _jtype(t)
            n = len(col)
            n_null = col.null_count
            min_num = max_num = None
            min_len = max_len = None
            distinct = None
            if n_null < n:
                if jt in ("integer", "number"):
                    mm = pc.min_max(col)
                    min_num = float(mm["min"].as_py())
                    max_num = float(mm["max"].as_py())
                    if jt == "integer":
                        distinct = self._distinct(col)
                elif jt == "string" and (pa.types.is_string(t)
                                         or pa.types.is_large_string(t)):
                    lens = pc.utf8_length(col)
                    mm = pc.min_max(lens)
                    min_len = mm["min"].as_py()
                    max_len = mm["max"].as_py()
                    distinct = self._distinct(col)
                elif jt == "boolean":
                    distinct = self._distinct(col)
            rows.append({"column": name, "jtype": jt, "n": n,
                         "n_null": n_null, "min_num": min_num,
                         "max_num": max_num, "min_len": min_len,
                         "max_len": max_len, "distinct": distinct})
        return pa.Table.from_pylist(rows, schema=PARTIAL_SCHEMA)

    def _distinct(self, col) -> list | None:
        u = pc.unique(pc.drop_null(col))
        if len(u) > self.enum_max:
            return None  # overflow poisons the enum at merge time
        return [str(v.as_py()) for v in u]


def profile_columns(ds, columns: list[str] | None = None,
                    enum_max: int = 16) -> list[dict]:
    """Merged per-column profile (the associative fold of the partials).

    Driver-side cost: #blocks × #columns fixed-width rows — the same
    partial-merge budget as the sketch stage, independent of row count."""
    partials = ds.map_batches(InferPartialStage(columns, enum_max),
                              batch_format="pyarrow")
    acc: dict[str, dict] = {}
    order: list[str] = []
    for r in collect_rows(partials):
        c = r["column"]
        a = acc.get(c)
        if a is None:
            order.append(c)
            acc[c] = {**r, "distinct": (set(r["distinct"])
                                        if r["distinct"] is not None else None),
                      "enum_ok": r["distinct"] is not None}
            continue
        a["n"] += r["n"]
        a["n_null"] += r["n_null"]
        for k, fold in (("min_num", min), ("max_num", max),
                        ("min_len", min), ("max_len", max)):
            if r[k] is not None:
                a[k] = r[k] if a[k] is None else fold(a[k], r[k])
        if a["enum_ok"] and r["distinct"] is not None:
            a["distinct"] |= set(r["distinct"])
            if len(a["distinct"]) > enum_max:
                a["enum_ok"] = False
        else:
            a["enum_ok"] = False
    out = []
    for c in order:
        a = acc[c]
        enum_vals = sorted(a["distinct"]) \
            if a["enum_ok"] and a["distinct"] else None
        out.append({"column": c, "jtype": a["jtype"], "n": a["n"],
                    "n_null": a["n_null"], "min_num": a["min_num"],
                    "max_num": a["max_num"], "min_len": a["min_len"],
                    "max_len": a["max_len"], "enum_vals": enum_vals})
    return out


def _typed_enum(vals: list[str], jtype: str) -> list:
    if jtype == "integer":
        return [int(v) for v in vals]
    if jtype == "boolean":
        return [v in ("True", "true") for v in vals]
    return vals


def infer_ruleset(ds, columns: list[str] | None = None,
                  enum_max: int = 16) -> dict:
    """Infer a compilable draft-07 object schema for a table Dataset:
    one property per column with observed type, bounds and (when the
    distinct set stayed under enum_max) an enum; columns with zero nulls
    become `required`. Validating the profiled table against the result
    yields zero violations by construction."""
    props: dict[str, dict] = {}
    required: list[str] = []
    for p in profile_columns(ds, columns, enum_max):
        rule: dict = {}
        jt = p["jtype"]
        if jt is not None:
            rule["type"] = jt
        if jt in ("integer", "number") and p["min_num"] is not None:
            rule["minimum"] = int(p["min_num"]) if jt == "integer" \
                else p["min_num"]
            rule["maximum"] = int(p["max_num"]) if jt == "integer" \
                else p["max_num"]
        if jt == "string" and p["min_len"] is not None:
            rule["minLength"] = int(p["min_len"])
            rule["maxLength"] = int(p["max_len"])
        if p["enum_vals"] and jt in ("integer", "boolean", "string"):
            rule["enum"] = _typed_enum(p["enum_vals"], jt)
        props[p["column"]] = rule
        if p["n_null"] == 0:
            required.append(p["column"])
    return {"type": "object", "properties": props, "required": required}


def discover_fds(ds, columns: list[str], *, cap: int = 500_000):
    """Functional-dependency DISCOVERY over a set of profile columns:
    for every ordered pair (det → dep), det determines dep iff
    nunique(det) == nunique(det, dep) — the schema-mining counterpart of
    integrity.fd_violations (which checks a GIVEN dependency).

    Scale shape: per-batch distinct (pair, det_val, dep_val) partials
    (the combiner — stringified with chr(0) null sentinel and chr(1)
    separator semantics shared with the SQL oracle), ONE
    hash(pair, det_val) exchange so all dep values of one det value
    co-locate; per-partition pandas nunique partials sum exactly across
    partitions (det values are partition-disjoint). `cap` bounds the
    per-batch distinct explosion loudly — FD discovery is for bounded-
    cardinality profile columns, not for key columns (a unique key
    trivially determines everything and costs a row per input row).

    Returns DataFrame (det, dep, n_det, n_pairs, holds) for all ordered
    pairs, sorted (det, dep)."""
    import pandas as pd

    from ..util import collect_table

    if len(columns) < 2:
        raise ValueError("discover_fds: need >= 2 columns")
    if len(set(columns)) != len(columns):
        raise ValueError("discover_fds: duplicate columns")
    pairs = [(i, j) for i in range(len(columns))
             for j in range(len(columns)) if i != j]
    sent = chr(0)

    def partial(t: pa.Table) -> pa.Table:
        strs = {}
        for c in columns:
            strs[c] = pc.fill_null(
                pc.cast(t[c], pa.string()), sent)
        out_p, out_a, out_b = [], [], []
        for pid, (i, j) in enumerate(pairs):
            g = pa.table({"a": strs[columns[i]],
                          "b": strs[columns[j]]}) \
                .group_by(["a", "b"]).aggregate([])
            if g.num_rows > cap:
                raise ValueError(
                    f"discover_fds: pair ({columns[i]}, {columns[j]}) has "
                    f"{g.num_rows} distinct combos in one batch (> cap="
                    f"{cap}) — not a bounded-cardinality profile pair")
            out_p.extend([pid] * g.num_rows)
            out_a.extend(g["a"].to_pylist())
            out_b.extend(g["b"].to_pylist())
        return pa.table({"pid": pa.array(out_p, pa.int32()),
                         "a": pa.array(out_a, pa.string()),
                         "b": pa.array(out_b, pa.string())})

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(subset=["pid", "a", "b"])
        g = df.groupby("pid").agg(
            n_det=("a", "nunique"), n_pairs=("a", "size")).reset_index()
        return g

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = collect_table(exchange(partials, per_part, ["pid", "a"])) \
        .to_pandas()
    agg = agg.groupby("pid").sum().reindex(range(len(pairs)),
                                           fill_value=0)
    out = pd.DataFrame({
        "det": [columns[i] for i, _ in pairs],
        "dep": [columns[j] for _, j in pairs],
        "n_det": agg["n_det"].to_numpy(dtype=np.int64),
        "n_pairs": agg["n_pairs"].to_numpy(dtype=np.int64),
    })
    out["holds"] = out["n_det"] == out["n_pairs"]
    return out.sort_values(["det", "dep"]).reset_index(drop=True)
