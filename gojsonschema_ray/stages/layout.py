"""Z-order clustered data layout — multi-column locality for file-level
pruning (the Delta/Iceberg ``OPTIMIZE ZORDER BY`` idea, Ray-Data-native).

A 100-TB table is read mostly through predicates; a layout job that
co-locates rows close in SEVERAL columns lets per-file min/max stats
prune most files for box queries on any of them. Morton (Z-order) keys
give that co-location: interleave the bits of the (quantized) columns so
a contiguous z-range is a small hyper-rectangle.

Pieces:
  - `zorder_key`: vectorized bit interleave (the magic-number spread
    sequence — no per-row Python) over 2..3 non-negative integer arrays.
  - `quantize_u16`: rank-preserving fixed-point quantization for float
    columns (driver supplies lo/hi, e.g. from column stats).
  - `write_zordered`: ONE stats pass (when quantizing) + z-key assign +
    sample-based range bucketing (the ntile machinery's shape: no global
    sort — cutpoints from per-block samples, ONE coarse exchange) +
    hive-partitioned write, one directory per z-range, plus a
    `_stats.parquet` manifest of per-bucket min/max for every clustered
    column.
  - `read_box_pruned`: intersect a box predicate with the manifest,
    open ONLY surviving buckets, apply the residual filter. Exposes
    `last_scan/last_total` buckets for pruning observability (the
    IVFIndex/MinHashIndex contract).

The z-KEY itself is exact integer algebra, so a driver query can emit it
against a SQL oracle built from shift/mask expressions (see
__ray_entry__.lineitem_zorder)."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .sketches import _cut_points, _thin

_RESERVED = {"zkey", "zbucket"}


def _spread2(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of x so bit i lands at position 2i
    (Morton magic numbers, uint64 throughout)."""
    x = x.astype(np.uint64)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def _spread3(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of x so bit i lands at position 3i."""
    x = x.astype(np.uint64)
    x = (x | (x << np.uint64(32))) & np.uint64(0xFFFF00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x00FF0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0xF00F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x30C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x9249249249249249)
    return x


def zorder_key(cols: list[np.ndarray], bits: int = 16) -> np.ndarray:
    """Morton key of 2 or 3 non-negative integer arrays, each < 2^bits
    (bits <= 16). Column 0 takes the MOST significant interleave lane
    (matching the generated SQL oracle's bit layout). Pure uint64
    algebra — bit-exact and SQL-replicable."""
    if len(cols) not in (2, 3):
        raise ValueError(f"zorder_key: {len(cols)} columns (need 2 or 3)")
    if not 1 <= bits <= 16:
        raise ValueError(f"zorder_key: bits={bits}")
    lim = 1 << bits
    arrs = []
    for c in cols:
        a = np.asarray(c)
        if len(a) and (a.min() < 0 or a.max() >= lim):
            raise ValueError(f"zorder_key: values outside [0, {lim})")
        arrs.append(a.astype(np.uint64))
    k = len(arrs)
    spread = _spread2 if k == 2 else _spread3
    out = np.zeros(len(arrs[0]) if arrs else 0, dtype=np.uint64)
    for i, a in enumerate(arrs):
        out |= spread(a) << np.uint64(k - 1 - i)
    return out


def quantize_u16(x: np.ndarray, lo: float, hi: float,
                 bits: int = 16) -> np.ndarray:
    """Rank-preserving quantization of a float column into [0, 2^bits):
    floor((x - lo) / (hi - lo) * (2^bits - 1)), clipped. NaN maps to 0
    (it sorts nowhere anyway; callers filter separately)."""
    if not hi > lo:
        return np.zeros(len(x), dtype=np.int64)
    q = (np.asarray(x, dtype=np.float64) - lo) / (hi - lo) \
        * ((1 << bits) - 1)
    return np.clip(np.nan_to_num(np.floor(q), nan=0.0), 0,
                   (1 << bits) - 1).astype(np.int64)


def write_zordered(ds, columns: list[str], out_dir: str, *,
                   n_buckets: int = 16, bits: int = 16,
                   sample_per_block: int = 256,
                   ranges: dict[str, tuple[float, float]] | None = None
                   ) -> str:
    """Cluster `ds` by the Z-order of `columns` into `n_buckets` z-range
    directories under `out_dir`, with a `_stats.parquet` manifest of
    per-bucket min/max for every clustered column.

    `ranges` supplies (lo, hi) per column for float quantization; columns
    absent from `ranges` must already be non-negative ints < 2^bits.
    When a float column has no supplied range, ONE extra stats pass
    computes global min/max. No global sort: bucket cutpoints come from
    per-block z-key samples (sample-sort), then one hive-partitioned
    write moves each row once."""
    import pandas as pd

    from ..util import collect_rows, collect_table

    if len(columns) not in (2, 3):
        raise ValueError("write_zordered: need 2 or 3 cluster columns")
    if _RESERVED & set(columns):
        raise ValueError(f"write_zordered: {_RESERVED} are reserved")
    ranges = dict(ranges or {})
    # pass 0 (only if needed): global min/max for unranged float columns
    need = [c for c in columns if c not in ranges]
    if need:
        def mm(t: pa.Table) -> pa.Table:
            cols = {}
            for c in need:
                v = pc.drop_null(t[c])
                cols[f"{c}_min"] = pa.array(
                    [pc.min(v).as_py() if len(v) else None], pa.float64())
                cols[f"{c}_max"] = pa.array(
                    [pc.max(v).as_py() if len(v) else None], pa.float64())
            return pa.table(cols)

        parts = collect_table(ds.map_batches(mm, batch_format="pyarrow"))
        for c in need:
            lo = pc.min(parts[f"{c}_min"]).as_py()
            hi = pc.max(parts[f"{c}_max"]).as_py()
            if lo is None:
                raise ValueError(f"write_zordered: column {c} is all-null")
            ranges[c] = (float(lo), float(hi))

    rngs = {c: ranges.get(c) for c in columns}

    def zkeys(t: pa.Table) -> np.ndarray:
        qs = []
        for c in columns:
            v = t[c].to_numpy(zero_copy_only=False)
            r = rngs[c]
            if r is not None:
                qs.append(quantize_u16(v, r[0], r[1], bits))
            else:
                qs.append(np.asarray(v, dtype=np.int64))
        return zorder_key(qs, bits)

    # cutpoints from per-block samples (sample-sort, no global sort)
    def sample(t: pa.Table) -> pa.Table:
        z = _thin(zkeys(t), sample_per_block)
        return pa.table({"z": pa.array(z.astype(np.int64))})

    zs = np.asarray([r["z"] for r in collect_rows(
        ds.map_batches(sample, batch_format="pyarrow"))], np.int64)
    if len(zs) == 0:
        raise ValueError("write_zordered: empty dataset")
    cuts = _cut_points(zs, n_buckets)

    def assign(t: pa.Table) -> pa.Table:
        z = zkeys(t).astype(np.int64)
        b = np.searchsorted(cuts, z, side="right").astype(np.int32)
        return t.append_column("zkey", pa.array(z)) \
            .append_column("zbucket", pa.array(b))

    keyed = ds.map_batches(assign, batch_format="pyarrow").materialize()
    keyed.repartition(len(cuts) + 1).write_parquet(
        out_dir, partition_cols=["zbucket"])

    # manifest: per-bucket min/max of each clustered column
    def stats_partial(t: pa.Table) -> pa.Table:
        df = t.select(["zbucket", *columns]).to_pandas()
        g = df.groupby("zbucket")
        agg = g.agg({c: ["min", "max"] for c in columns})
        agg.columns = [f"{c}_{s}" for c, s in agg.columns]
        return pa.Table.from_pandas(agg.reset_index(),
                                    preserve_index=False)

    sp = collect_table(
        keyed.map_batches(stats_partial, batch_format="pyarrow")) \
        .to_pandas()
    agg = sp.groupby("zbucket").agg(
        {**{f"{c}_min": "min" for c in columns},
         **{f"{c}_max": "max" for c in columns}}).reset_index()
    import pyarrow.parquet as pq
    from pyarrow import fs as pafs

    filesystem, base = pafs.FileSystem.from_uri(out_dir)
    pq.write_table(pa.Table.from_pandas(agg, preserve_index=False),
                   f"{base}/_stats.parquet", filesystem=filesystem)
    return out_dir


class ZOrderedReader:
    """Box-query reader over a `write_zordered` layout: prunes buckets by
    the manifest, reads only survivors, applies the residual filter.
    `last_scan`/`last_total` expose the pruning ratio."""

    def __init__(self, layout_dir: str):
        import pyarrow.parquet as pq
        from pyarrow import fs as pafs

        self.dir = layout_dir
        self.filesystem, self.base = pafs.FileSystem.from_uri(layout_dir)
        self.stats = pq.read_table(f"{self.base}/_stats.parquet",
                                   filesystem=self.filesystem).to_pandas()
        self.last_scan: int | None = None
        self.last_total = len(self.stats)

    def read_box(self, box: dict[str, tuple[float, float]]):
        """`box` maps column -> (lo, hi) inclusive. Returns a Dataset of
        exactly the rows inside the box (z-key columns dropped)."""
        import ray
        import ray.data as rd
        from pyarrow import fs as pafs

        keep = np.ones(len(self.stats), dtype=bool)
        for c, (lo, hi) in box.items():
            if f"{c}_min" not in self.stats.columns:
                raise KeyError(f"read_box: {c} is not a clustered column")
            keep &= (self.stats[f"{c}_max"] >= lo).to_numpy() \
                & (self.stats[f"{c}_min"] <= hi).to_numpy()
        buckets = self.stats.loc[keep, "zbucket"].tolist()
        self.last_scan = len(buckets)
        paths: list[str] = []
        for b in buckets:
            sel = pafs.FileSelector(f"{self.base}/zbucket={b}",
                                    allow_not_found=True, recursive=True)
            paths.extend(sorted(
                i.path for i in self.filesystem.get_file_info(sel)
                if i.type == pafs.FileType.File
                and i.path.endswith(".parquet")))
        if not paths:
            import pandas as pd

            return rd.from_pandas(pd.DataFrame())
        ds = ray.data.read_parquet(paths, filesystem=self.filesystem)
        items = tuple(box.items())

        def residual(t: pa.Table) -> pa.Table:
            m = None
            for c, (lo, hi) in items:
                mm = pc.and_(pc.greater_equal(t[c], lo),
                             pc.less_equal(t[c], hi))
                m = mm if m is None else pc.and_(m, mm)
            t = t.filter(pc.fill_null(m, False))
            drop = [c for c in ("zkey", "zbucket") if c in t.schema.names]
            return t.drop_columns(drop) if drop else t

        return ds.map_batches(residual, batch_format="pyarrow")
