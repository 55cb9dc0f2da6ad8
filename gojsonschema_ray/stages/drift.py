"""Distribution-drift checks (KS / PSI) on numeric columns — no reference
analog (SURVEY.md §2.6): per-block histogram partials merged by plain `sum`,
statistics computed on the driver. Zero shuffle: a histogram partial per
batch is a few hundred ints.

KS statistic: max |CDF_a - CDF_b| over the shared bin edges (two-sample,
binned approximation; exact enough for drift *detection* thresholds).
PSI: sum over bins of (pa - pb) * ln(pa / pb) with epsilon flooring —
the standard population-stability-index recipe.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..util import collect_rows


class MultiHistogramStage:
    """map_batches payload: fixed-edge histogram partials for MANY columns in
    one pass — (column, bin, count) rows per batch, merged on the driver.
    One dataset scan covers every drift column instead of a scan per column."""

    def __init__(self, edges_by_column: dict):
        self.edges = {c: np.asarray(e, dtype=np.float64)
                      for c, e in edges_by_column.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        names, bins, counts = [], [], []
        for c, edges in self.edges.items():
            if c not in batch.column_names:
                continue
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            v = col.drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[np.isfinite(v)]
            h, _ = np.histogram(v, bins=edges)
            row = [int((v < edges[0]).sum()), *h.tolist(),
                   int((v > edges[-1]).sum())]
            names.extend([c] * len(row))
            bins.extend(range(len(row)))
            counts.extend(row)
        return pa.table({"column": pa.array(names),
                         "bin": pa.array(bins, pa.int32()),
                         "count": pa.array(counts, pa.int64())})


def histograms(ds, edges_by_column: dict) -> dict:
    """{column: merged histogram} from ONE pass over ds."""
    out = {c: np.zeros(len(e) + 1, dtype=np.int64)
           for c, e in edges_by_column.items()}
    partials = ds.map_batches(MultiHistogramStage(edges_by_column),
                              batch_format="pyarrow")
    for r in collect_rows(partials):
        out[r["column"]][r["bin"]] += r["count"]
    return out


def default_edges(digest, bins: int = 64) -> np.ndarray:
    """Histogram edges from a reference TDigest's quantiles (equi-depth-ish)."""
    qs = np.linspace(0.0, 1.0, bins + 1)
    edges = np.array([digest.quantile(q) for q in qs], dtype=np.float64)
    return np.unique(edges)

def ks_statistic(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    ca = np.cumsum(counts_a) / max(1, counts_a.sum())
    cb = np.cumsum(counts_b) / max(1, counts_b.sum())
    return float(np.abs(ca - cb).max())


def psi(counts_a: np.ndarray, counts_b: np.ndarray, eps: float = 1e-6) -> float:
    pa_ = counts_a / max(1, counts_a.sum())
    pb_ = counts_b / max(1, counts_b.sum())
    pa_ = np.clip(pa_, eps, None)
    pb_ = np.clip(pb_, eps, None)
    return float(np.sum((pa_ - pb_) * np.log(pa_ / pb_)))


def drift_from_digests(digest_a, digest_b, bins: int = 64,
                       ks_threshold: float = 0.1,
                       psi_threshold: float = 0.2) -> dict:
    """KS/PSI between two already-built t-digests — zero data passes.

    Used by the flagship manifest: each committed partition carries its column
    digests, so per-partition-vs-global drift is a pure driver computation on
    sketches (the 10^12-row drift check costs nothing beyond the sketch pass
    that ran anyway)."""
    if digest_a is None or digest_b is None or digest_a.n == 0 or digest_b.n == 0:
        return {"ks": math.nan, "psi": math.nan, "drifted": False}
    lo = min(digest_a.min, digest_b.min)
    hi = max(digest_a.max, digest_b.max)
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo == hi:
        return {"ks": 0.0, "psi": 0.0, "drifted": False}
    edges = np.linspace(lo, hi, bins + 1)
    ca = digest_a.cdf(edges)
    cb = digest_b.cdf(edges)
    ks = float(np.abs(ca - cb).max())
    pa_ = np.clip(np.diff(ca), 1e-6, None)
    pb_ = np.clip(np.diff(cb), 1e-6, None)
    p = float(np.sum((pa_ - pb_) * np.log(pa_ / pb_)))
    return {"ks": ks, "psi": p,
            "drifted": bool(ks > ks_threshold or p > psi_threshold)}


def drift_report_fixed(ds_ref, ds_new, columns: list[str],
                       edges_by_column: dict,
                       ks_threshold: float = 0.1,
                       psi_threshold: float = 0.2) -> dict:
    """KS/PSI over CALLER-FIXED bin edges — closed-form and therefore
    SQL-oracle-checkable (the t-digest-derived edges of drift_report are
    data-dependent and only approximately reproducible). Same one-scan-per-
    dataset histogram machinery."""
    edges = {c: np.asarray(edges_by_column[c], dtype=np.float64)
             for c in columns}
    ha = histograms(ds_ref, edges)
    hb = histograms(ds_new, edges)
    report = {}
    for c in columns:
        ks = ks_statistic(ha[c], hb[c])
        p = psi(ha[c], hb[c])
        report[c] = {"ks": ks, "psi": p,
                     "drifted": bool(ks > ks_threshold or p > psi_threshold)}
    return report


def drift_report(ds_ref, ds_new, columns: list[str], bins: int = 64,
                 ks_threshold: float = 0.1, psi_threshold: float = 0.2) -> dict:
    """Compare distributions of `columns` between two datasets.

    Reference edges come from a t-digest pass over ds_ref; both sides are then
    binned with the SAME edges and compared."""
    from .sketches import SketchStage, merge_sketch_partials

    partials = ds_ref.map_batches(SketchStage(columns), batch_format="pyarrow")
    merged = merge_sketch_partials(collect_rows(partials))
    edges_by_col = {}
    for c in columns:
        st = merged.get(c)
        if st is None or st.digest is None or st.digest.n == 0:
            continue
        edges = default_edges(st.digest, bins)
        if len(edges) >= 2:
            edges_by_col[c] = edges
    if not edges_by_col:
        return {}
    # ONE scan per dataset for ALL columns (a per-column loop would re-scan
    # each dataset len(columns) times)
    ha = histograms(ds_ref, edges_by_col)
    hb = histograms(ds_new, edges_by_col)
    report = {}
    for c in edges_by_col:
        ks = ks_statistic(ha[c], hb[c])
        p = psi(ha[c], hb[c])
        report[c] = {
            "ks": ks, "psi": p,
            "drifted": bool(ks > ks_threshold or p > psi_threshold),
        }
    return report


class GroupedHistogramStage:
    """map_batches payload: fixed-edge histogram partials PER GROUP —
    (group, bin, count) rows per batch, merged on the driver. Binning
    matches MultiHistogramStage/np.histogram exactly: bin 0 = underflow,
    1..len(edges)-1 = [e_i, e_{i+1}) left-closed with the last interior
    bin right-closed, len(edges) = overflow."""

    def __init__(self, group_column: str, value_column: str,
                 edges: np.ndarray):
        self.group_column = group_column
        self.value_column = value_column
        self.edges = np.asarray(edges, dtype=np.float64)

    def __call__(self, df):
        import pandas as pd
        d = df[[self.group_column, self.value_column]].dropna()
        v = d[self.value_column].to_numpy(dtype=np.float64)
        keep = np.isfinite(v)
        d, v = d[keep], v[keep]
        b = np.searchsorted(self.edges, v, side="right")
        b[v == self.edges[-1]] = len(self.edges) - 1
        out = pd.DataFrame({"g": d[self.group_column].to_numpy(),
                            "bin": b.astype("int32")})
        return out.groupby(["g", "bin"], sort=False).size() \
            .reset_index(name="n")


def psi_by_group(ds_ref, ds_new, group_column: str, value_column: str,
                 edges, ks_threshold: float = 0.1,
                 psi_threshold: float = 0.2):
    """Per-SEGMENT drift: KS/PSI of `value_column` between two datasets
    computed independently for every group value — "did the quality score
    drift, and for WHICH language/source/shard?" The whole-table
    drift_report_fixed answer can read clean while one segment collapses;
    this is the per-segment variant over the same caller-fixed closed-form
    bins (SQL-oracle-checkable, unlike digest-derived edges).

    Scale shape: ONE scan per side emitting (group, bin, count) partials
    (each batch collapses to ≤ groups×bins rows), driver fold over the
    small group×bin matrix — low-cardinality grouping columns, same
    contract as sampling.group_counts. Groups seen on either side are
    reported; a side with no rows for a group counts as all-zero (PSI then
    reads the eps-clipped maximum, flagging the appearance/disappearance).
    Returns a pandas DataFrame (group, ks, psi, drifted) sorted by group.
    """
    import pandas as pd

    from ..util import collect_rows

    edges = np.asarray(edges, dtype=np.float64)
    nbins = len(edges) + 1

    def fold(ds):
        stage = GroupedHistogramStage(group_column, value_column, edges)
        acc: dict = {}
        for r in collect_rows(ds.map_batches(stage, batch_format="pandas")):
            arr = acc.get(r["g"])
            if arr is None:
                arr = acc[r["g"]] = np.zeros(nbins, dtype=np.int64)
            arr[r["bin"]] += r["n"]
        return acc

    ha, hb = fold(ds_ref), fold(ds_new)
    zeros = np.zeros(nbins, dtype=np.int64)
    rows = []
    for g in sorted(set(ha) | set(hb)):
        ca, cb = ha.get(g, zeros), hb.get(g, zeros)
        ks = ks_statistic(ca, cb)
        p = psi(ca, cb)
        rows.append({group_column: g, "ks": ks, "psi": p,
                     "drifted": bool(ks > ks_threshold
                                     or p > psi_threshold)})
    return pd.DataFrame(rows,
                        columns=[group_column, "ks", "psi", "drifted"])
