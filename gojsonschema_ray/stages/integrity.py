"""Referential-integrity checks — `dependencies`/`required` lifted across
columns and across tables (SURVEY.md §2.6).

- same-row column implications are `dependencies` on the row's struct
  (TableValidator → VectorEvaluator._struct_checks, stages/validate.py);
- cross-table FK checks use a **broadcast semi/anti join**: the referenced key
  set (or, at scale, a Bloom filter of it) is built once, `ray.put` once, and
  probed with `pc.is_in` inside map_batches — no all-to-all shuffle. A Bloom
  probe can only err toward "present" (it may MISS a violation, never
  invent one); for exact results on huge reference sides use a partitioned
  hash join (bucket both sides by hash(key), join per bucket).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import broadcast, exchange


class BloomFilter:
    """Simple double-hashing Bloom filter over uint64 hashes."""

    __slots__ = ("bits", "m", "k")

    def __init__(self, capacity: int, fp_rate: float = 0.001):
        m = max(64, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        self.m = m
        self.k = max(1, int(round((m / max(1, capacity)) * math.log(2))))
        self.bits = np.zeros((m + 63) // 64, dtype=np.uint64)

    def _positions(self, h: np.ndarray, i: int) -> np.ndarray:
        return (h + np.uint64(i) * ((h >> np.uint64(32)) | np.uint64(1))) % np.uint64(self.m)

    def add_hashes(self, h: np.ndarray):
        for i in range(self.k):
            pos = self._positions(h, i)
            np.bitwise_or.at(self.bits, (pos >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (pos & np.uint64(63)))

    def contains_hashes(self, h: np.ndarray) -> np.ndarray:
        out = np.ones(len(h), dtype=bool)
        for i in range(self.k):
            pos = self._positions(h, i)
            word = self.bits[(pos >> np.uint64(6)).astype(np.int64)]
            out &= (word >> (pos & np.uint64(63))) & np.uint64(1) != 0
        return out


def _hash_col(arr) -> np.ndarray:
    from .sketches import hash_arrow_array

    return hash_arrow_array(arr)


def build_key_set(ref_ds, pk: str, approx_threshold: int = 5_000_000):
    """Collect the referenced key set. Small side → exact Python set of keys;
    large side → Bloom filter over hashes (built streaming, no materialize).

    Returns ("exact", set) or ("bloom", BloomFilter)."""
    distinct = ref_ds.map_batches(
        lambda t: t.select([pk]).group_by(pk).aggregate([]),
        batch_format="pyarrow",
    )
    keys: set = set()
    chunks: list[pa.Array] = []  # original-typed arrays for the bloom path
    exact = True
    bloom = None
    for b in distinct.iter_batches(batch_size=65536, batch_format="pyarrow"):
        arr = b[pk].combine_chunks() if isinstance(b[pk], pa.ChunkedArray) else b[pk]
        if exact:
            keys.update(arr.to_pylist())
            chunks.append(arr)
            if len(keys) > approx_threshold:
                exact = False
                bloom = BloomFilter(capacity=approx_threshold * 20)
                # hash the ORIGINAL typed chunks: the probe side hashes the
                # fk column in its own dtype, and pandas' hash differs per
                # dtype (int32 -1 != int64 -1) — a retyped re-materialization
                # would silently drop keys from the filter
                for c in chunks:
                    bloom.add_hashes(_hash_col(c))
                keys = set()
                chunks = []
                continue
        if not exact:
            bloom.add_hashes(_hash_col(arr))
    if exact:
        keys.discard(None)
        return "exact", keys
    return "bloom", bloom


class FKProbeStage:
    """map_batches payload: emit FK violation rows for keys absent from the
    broadcast reference set (a pa.Array of keys, or a BloomFilter)."""

    def __init__(self, fk: str, ref_handle, kind: str, ref_name: str = "ref"):
        self.fk = fk
        self.kind = kind
        self.ref_handle = ref_handle  # exchange.Broadcast
        self.ref_name = ref_name

    def __call__(self, batch: pa.Table) -> pa.Table:
        ref = self.ref_handle.get()
        col = batch[self.fk]
        present = pc.is_valid(col).to_numpy(zero_copy_only=False)
        if self.kind == "exact":
            ok = pc.is_in(col, value_set=ref).to_numpy(zero_copy_only=False)
        else:
            ok = ref.contains_hashes(_hash_col(col))
        bad = present & ~np.asarray(ok, dtype=bool)
        idx = np.nonzero(bad)[0]
        vals = col.take(pa.array(idx, type=pa.int64())) if len(idx) else \
            pa.array([], type=col.type)
        n = len(idx)
        return pa.table({
            "key": pc.cast(vals, pa.string()),
            "keyword": pa.array(["missing_dependency"] * n),
            "path": pa.array([f"(root).{self.fk}"] * n),
            "expected": pa.array([f"fk into {self.ref_name}" ] * n),
            "actual": pc.cast(vals, pa.string()),
        })


def referential_violations(ds, fk: str, ref_ds, pk: str, ref_name: str = "ref"):
    """Anti-join ds.fk ∉ ref_ds.pk as a violations Dataset (broadcast probe)."""
    kind, payload = build_key_set(ref_ds, pk)
    if kind == "exact":
        payload = pa.array([k for k in payload])
    return ds.map_batches(
        FKProbeStage(fk, broadcast(payload), kind, ref_name),
        batch_format="pyarrow")


def snapshot_diff(ds_a, ds_b, key_column: str, compare_columns: list):
    """Row-level diff between two snapshots of a table keyed by a PRIMARY
    KEY: one row per key with status `added` (only in B), `removed` (only
    in A), `changed` (in both, any compare column differs — NULL-safe:
    NULL==NULL is same), or `same`. The regression gate of a data
    pipeline: run it between yesterday's and today's output before
    publishing.

    Scale shape: each side is projected to (key, compare columns, side) and
    co-partitioned by hash(key) in ONE exchange (the union's two inputs
    exchange once each); per partition a vectorized pandas outer merge
    with indicator resolves status. Documented assumption: `key_column` is
    unique per snapshot (violations raise loudly rather than silently
    multiplying rows)."""
    import pandas as pd

    reserved = {"part", "side", "status", "_merge"} \
        & {key_column, *compare_columns}
    if reserved:
        raise ValueError(f"snapshot_diff: column names {sorted(reserved)} "
                         "are reserved")

    def project(side: str):
        def fn(t: pa.Table) -> pa.Table:
            cols = {c: t[c] for c in [key_column, *compare_columns]}
            cols["side"] = pa.array([side] * t.num_rows, pa.string())
            return pa.table(cols)
        return fn

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        a = df[df["side"] == "a"].drop(columns=["side"])
        b = df[df["side"] == "b"].drop(columns=["side"])
        for name, side in (("A", a), ("B", b)):
            if side[key_column].duplicated().any():
                raise ValueError(
                    f"snapshot_diff: duplicate {key_column} in snapshot "
                    f"{name} — the key must be unique per snapshot")
        m = a.merge(b, on=key_column, how="outer", suffixes=("_a", "_b"),
                    indicator=True)
        status = np.where(
            m["_merge"] == "right_only", "added",
            np.where(m["_merge"] == "left_only", "removed", "same"))
        changed = np.zeros(len(m), dtype=bool)
        for c in compare_columns:
            ca, cb = m[f"{c}_a"], m[f"{c}_b"]
            # NULL-safe inequality: differing values OR exactly one null
            changed |= (ca.ne(cb) & ~(ca.isna() & cb.isna())).to_numpy()
        status = np.where((m["_merge"] == "both") & changed, "changed",
                          status)
        return pd.DataFrame({key_column: m[key_column],
                             "status": status})

    return exchange([ds_a.map_batches(project("a"), batch_format="pyarrow"),
                     ds_b.map_batches(project("b"), batch_format="pyarrow")],
                    per_part, key_column)


def fd_violations(ds, determinant: str, dependent: str):
    """Functional-dependency violation detection — the table-level
    constraint "determinant → dependent" (each determinant value maps to
    exactly one dependent value), the multi-row generalization of the
    reference's per-document dependencies keyword (gojsonschema
    validation.go dependenciesKind: intra-document; this checks the
    dependency ACROSS rows). Returns one row per violating determinant
    value: (determinant, n_distinct, v_min, v_max) where n_distinct > 1 —
    min/max of the conflicting dependent values bound the conflict set
    for triage without shipping it.

    Scale shape (same as uniqueness.grouped_nunique): each batch collapses
    to its distinct (determinant, dependent) pairs, ONE hash(determinant)
    coarse-partition exchange of the pair partials, per-partition pandas
    dedup + nunique/min/max, filter n_distinct > 1. The exchange moves at
    most one row per distinct pair per batch; a satisfied FD moves exactly
    one row per key. Null dependents are ignored (COUNT(DISTINCT)
    semantics); null determinants are dropped (an unknown key determines
    nothing)."""
    import pandas as pd

    reserved = {"part", "n_distinct", "v_min", "v_max"} & \
        {determinant, dependent}
    if reserved:  # synthetic exchange/output columns — a silent overwrite
        raise ValueError(  # would corrupt routing or the report
            f"fd_violations: column names {sorted(reserved)} are reserved")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[determinant, dependent]]
        d = d[d[dependent].notna() & d[determinant].notna()]
        return d.drop_duplicates()

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates([determinant, dependent])
        g = d.groupby(determinant, sort=False).agg(
            n_distinct=(dependent, "size"),
            v_min=(dependent, "min"),
            v_max=(dependent, "max")).reset_index()
        g = g[g["n_distinct"] > 1]
        g["n_distinct"] = g["n_distinct"].astype("int64")
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    return exchange(partials, per_part, determinant)
