"""Streaming sketches for dataset-level column statistics (SURVEY.md §2.6).

The reference engine is per-document and cannot see across rows; these
generalize its keyword checks to table scope:

- ``ColumnStats``: count / null count / min / max / mean / stddev partials,
  merged associatively — the partial-aggregate pattern (combine inside
  ``map_batches``, then ONE tiny merge) so no all-to-all shuffle is needed.
- ``TDigest``: merging t-digest (Dunning & Ertl, "Computing extremely accurate
  quantiles using t-digests", arXiv:1902.04023) for quantiles / KS drift.
- ``HyperLogLog``: dense HLL (Flajolet et al. 2007; bias correction per
  Heule et al., HLL++ 2013-style empirical constant) for distinct counts,
  e.g. approximate uniqueness of ``clip_id`` at 10^12 rows.

All sketches are picklable and merge with ``+=``-style ``merge()`` — partial
per Arrow batch inside ``map_batches``, tree-merged on the driver (the number
of partials ≈ number of blocks, tiny next to the data)."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import collect_rows, collect_table
from .exchange import broadcast, exchange, shuffle_width


# ---------------------------------------------------------------------------
# t-digest
# ---------------------------------------------------------------------------
class TDigest:
    """Merging t-digest with the k1 (arcsine) scale function."""

    __slots__ = ("compression", "means", "weights", "_buf_m", "_buf_w", "n", "min", "max")

    def __init__(self, compression: float = 200.0):
        self.compression = compression
        self.means = np.zeros(0)
        self.weights = np.zeros(0)
        self._buf_m: list = []
        self._buf_w: list = []
        self.n = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add_array(self, values: np.ndarray):
        v = values[np.isfinite(values)]
        if len(v) == 0:
            return
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))
        self._buf_m.append(v.astype(np.float64, copy=False))
        self._buf_w.append(np.ones(len(v)))
        self.n += len(v)
        if sum(len(b) for b in self._buf_m) > 8 * self.compression:
            self._compress()

    def merge(self, other: "TDigest"):
        if other.n == 0:
            return self
        self._buf_m.append(other._all_means())
        self._buf_w.append(other._all_weights())
        self.n += other.n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._compress()
        return self

    def _all_means(self):
        return np.concatenate([self.means] + self._buf_m) if self._buf_m else self.means

    def _all_weights(self):
        return np.concatenate([self.weights] + self._buf_w) if self._buf_w else self.weights

    def _compress(self):
        m = self._all_means()
        w = self._all_weights()
        self._buf_m, self._buf_w = [], []
        if len(m) == 0:
            return
        order = np.argsort(m, kind="stable")
        m, w = m[order], w[order]
        total = w.sum()
        # k1 scale: k(q) = (δ/2π) asin(2q-1); cluster while Δk <= 1
        out_m, out_w = [], []
        cur_m, cur_w = m[0], w[0]
        cum = 0.0
        k_limit = self._k_inv(self._k(cum / total if total else 0.0) + 1.0, )
        for i in range(1, len(m)):
            proposed = cur_w + w[i]
            q_right = (cum + proposed) / total
            if q_right <= k_limit:
                cur_m += (m[i] - cur_m) * (w[i] / proposed)
                cur_w = proposed
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                cum += cur_w
                cur_m, cur_w = m[i], w[i]
                k_limit = self._k_inv(self._k(cum / total) + 1.0)
        out_m.append(cur_m)
        out_w.append(cur_w)
        self.means = np.array(out_m)
        self.weights = np.array(out_w)

    def _k(self, q: float) -> float:
        q = min(max(q, 0.0), 1.0)
        return (self.compression / (2 * math.pi)) * math.asin(2 * q - 1)

    def _k_inv(self, k: float) -> float:
        s = math.sin(k * 2 * math.pi / self.compression)
        return (s + 1) / 2

    def _flush(self):
        """Fold buffered values in; an unbuffered digest is already
        compressed."""
        if self._buf_m:
            self._compress()

    def quantile(self, q: float) -> float:
        self._flush()
        if len(self.means) == 0:
            return math.nan
        if len(self.means) == 1:
            return float(self.means[0])
        cum = np.cumsum(self.weights) - self.weights / 2
        target = q * self.weights.sum()
        return float(np.interp(target, cum, self.means,
                               left=self.min, right=self.max))

    def cdf(self, x):
        """CDF at `x`: a float, or an array of points with one
        interpolation for all of them."""
        self._flush()
        x = np.asarray(x, dtype=np.float64)
        if len(self.means) == 0:
            return np.full(x.shape, math.nan)[()]
        cum = np.cumsum(self.weights) - self.weights / 2
        inner = np.interp(x, self.means, cum / self.weights.sum())
        return np.where(x <= self.min, 0.0,
                        np.where(x >= self.max, 1.0, inner))[()]

    def to_bytes(self) -> bytes:
        self._flush()
        return pickle.dumps((self.compression, self.means, self.weights,
                             self.n, self.min, self.max))

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        comp, means, weights, n, mn, mx = pickle.loads(b)
        d = cls(comp)
        d.means, d.weights, d.n, d.min, d.max = means, weights, n, mn, mx
        return d


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------
class HyperLogLog:
    """Dense HLL with p-bit register index (default p=14 → ~0.8% error)."""

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 14):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, hashes: np.ndarray):
        """hashes: uint64 array (already well-mixed)."""
        h = hashes.astype(np.uint64, copy=False)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rank = leading zeros of rest + 1  (rest has low bits set → bounded)
        lz = np.zeros(len(h), dtype=np.uint8)
        v = rest.copy()
        # count leading zeros via float64 exponent trick is lossy; do 6-step binary
        shift = np.uint64(32)
        acc = np.zeros(len(h), dtype=np.uint64)
        for s in (32, 16, 8, 4, 2, 1):
            s_ = np.uint64(s)
            mask = v < (np.uint64(1) << np.uint64(64 - s))
            acc[mask] += s_
            v[mask] = v[mask] << s_
        lz = acc.astype(np.uint8) + 1
        np.maximum.at(self.registers, idx, lz)

    def add_array(self, arr) -> None:
        self.add_hashes(hash_arrow_array(arr))

    def merge(self, other: "HyperLogLog"):
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def cardinality(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        if est <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                est = m * math.log(m / zeros)
        return float(est)

    def to_bytes(self) -> bytes:
        return pickle.dumps((self.p, self.registers))

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        p, regs = pickle.loads(b)
        h = cls(p)
        h.registers = regs
        return h


def hash_arrow_array(arr) -> np.ndarray:
    """Vectorized 64-bit hashing of an Arrow array or pandas Series, or
    row-wise of an Arrow table or pandas DataFrame (pandas hash kernel) —
    the engine's ONE partitioning hash.

    An Arrow integer array hashes by its integer values whether or not it
    holds a null (a null gets the all-ones word, as for strings); pandas'
    own conversion would turn a null-holding block to float64, and 3.0
    hashes unlike 3, so one key would get two tags."""
    import pandas as pd

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if isinstance(arr, pa.Table):
        from pandas.core.util.hashing import combine_hash_arrays

        # pandas' DataFrame row hash, over the per-column hashes below
        return combine_hash_arrays(
            iter([hash_arrow_array(c) for c in arr.columns]), arr.num_columns)
    if isinstance(arr, pa.Array) and pa.types.is_integer(arr.type) \
            and arr.null_count:
        out = pd.util.hash_array(arr.fill_null(0).to_numpy())
        out[pc.is_null(arr).to_numpy(zero_copy_only=False)] = \
            np.iinfo(np.uint64).max
        return out
    if isinstance(arr, pa.Array) and (pa.types.is_string(arr.type)
                                      or pa.types.is_large_string(arr.type)):
        # pandas hashes each distinct string once (its categorize step);
        # Arrow's dictionary encode finds them without building a Python
        # object per row. Bit-identical to hashing the converted Series:
        # a null gets pandas' null hash, the all-ones word.
        enc = arr.dictionary_encode()
        out = np.full(len(arr), np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(enc.dictionary):
            uniq = pd.util.hash_pandas_object(
                enc.dictionary.to_pandas(), index=False,
                categorize=False).to_numpy(dtype=np.uint64)
            valid = pc.is_valid(enc.indices).to_numpy(zero_copy_only=False)
            out[valid] = uniq[enc.indices.drop_null().to_numpy()]
        return out
    s = arr if isinstance(arr, (pd.Series, pd.DataFrame)) else arr.to_pandas()
    return pd.util.hash_pandas_object(s, index=False).to_numpy(dtype=np.uint64)


# ---------------------------------------------------------------------------
# Column stats
# ---------------------------------------------------------------------------
class ColumnStats:
    """Associative per-column stats partial: count/nulls/min/max/sum/sumsq +
    t-digest (numeric) + HLL distinct."""

    __slots__ = ("name", "count", "nulls", "min", "max", "sum", "sumsq",
                 "digest", "hll", "numeric")

    def __init__(self, name: str, numeric: bool, compression: float = 200.0,
                 hll_p: int = 14):
        self.name = name
        self.numeric = numeric
        self.count = 0
        self.nulls = 0
        self.min = None
        self.max = None
        self.sum = 0.0
        self.sumsq = 0.0
        self.digest = TDigest(compression) if numeric else None
        self.hll = HyperLogLog(hll_p)

    def add(self, arr):
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        n = len(arr)
        nulls = arr.null_count
        self.count += n
        self.nulls += nulls
        if n == nulls:
            return
        valid = arr.drop_null()
        self.hll.add_array(valid)
        if self.numeric:
            v = valid.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
            v = v[np.isfinite(v)]
            if len(v):
                self.sum += float(v.sum())
                self.sumsq += float((v * v).sum())
                self.digest.add_array(v)
                mn, mx = float(v.min()), float(v.max())
                self.min = mn if self.min is None else min(self.min, mn)
                self.max = mx if self.max is None else max(self.max, mx)
        else:
            mn = pc.min_max(valid)
            mn_v, mx_v = mn["min"].as_py(), mn["max"].as_py()
            if mn_v is not None:
                self.min = mn_v if self.min is None else min(self.min, mn_v)
                self.max = mx_v if self.max is None else max(self.max, mx_v)

    def merge(self, other: "ColumnStats"):
        self.count += other.count
        self.nulls += other.nulls
        self.sum += other.sum
        self.sumsq += other.sumsq
        for attr in ("min",):
            if other.min is not None:
                self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        if self.digest is not None and other.digest is not None:
            self.digest.merge(other.digest)
        self.hll.merge(other.hll)
        return self

    @property
    def mean(self):
        nv = self.count - self.nulls
        return self.sum / nv if nv else None

    @property
    def std(self):
        nv = self.count - self.nulls
        if not nv:
            return None
        mu = self.sum / nv
        var = max(0.0, self.sumsq / nv - mu * mu)
        return math.sqrt(var)

    def summary(self) -> dict:
        out = {
            "column": self.name,
            "count": self.count,
            "nulls": self.nulls,
            "null_frac": self.nulls / self.count if self.count else 0.0,
            "min": self.min,
            "max": self.max,
            "approx_distinct": round(self.hll.cardinality()),
        }
        if self.numeric:
            out.update({
                "mean": self.mean,
                "std": self.std,
                "p50": self.digest.quantile(0.5),
                "p95": self.digest.quantile(0.95),
                "p99": self.digest.quantile(0.99),
            })
        return out


_NUMERIC_KINDS = ("int", "uint", "float", "double", "decimal")


def _is_numeric(dt: pa.DataType) -> bool:
    return pa.types.is_integer(dt) or pa.types.is_floating(dt) or pa.types.is_decimal(dt)


class SketchStage:
    """map_batches payload: per-batch sketch partials, serialized to one row.

    Usage (partial-aggregate pattern, NO shuffle):
        partials = ds.map_batches(SketchStage(cols), batch_format="pyarrow")
        stats = merge_sketch_partials(collect_rows(partials))   # tiny
    """

    def __init__(self, columns: list[str] | None = None):
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = self.columns or [
            c for c in batch.column_names
            if _is_numeric(batch.schema.field(c).type)
            or pa.types.is_string(batch.schema.field(c).type)
        ]
        blobs, names = [], []
        for c in cols:
            if c not in batch.column_names:
                continue
            st = ColumnStats(c, _is_numeric(batch.schema.field(c).type))
            st.add(batch[c])
            names.append(c)
            blobs.append(pickle.dumps(st))
        return pa.table({"column": names, "partial": pa.array(blobs, pa.binary())})


def merge_sketch_partials(rows) -> dict[str, ColumnStats]:
    """rows: iterable of {'column','partial'} dicts (ds.take_all() of partials)."""
    merged: dict[str, ColumnStats] = {}
    for r in rows:
        st: ColumnStats = pickle.loads(r["partial"])
        if st.name in merged:
            merged[st.name].merge(st)
        else:
            merged[st.name] = st
    return merged


def column_stats(ds, columns: list[str] | None = None) -> dict[str, dict]:
    """Full streaming column-stats pass over a Ray Dataset."""
    partials = ds.map_batches(SketchStage(columns), batch_format="pyarrow")
    merged = merge_sketch_partials(collect_rows(partials))
    return {k: v.summary() for k, v in merged.items()}


# ---------------------------------------------------------------------------
# Count-Min Sketch + exact-verified heavy hitters
# ---------------------------------------------------------------------------
class CountMinSketch:
    """Count-Min sketch (Cormode & Muthukrishnan 2005): d rows of w counters,
    point estimate = min over rows — never an UNDERestimate, so every true
    heavy hitter passes a CMS threshold test (no false negatives; false
    positives are possible and get filtered by an exact recount).

    Associative: partials merge by elementwise addition, so one fixed-size
    (d × w int64) table per batch rides to the driver instead of a
    per-key shuffle."""

    __slots__ = ("table", "w", "d", "_seeds")

    def __init__(self, width: int = 16384, depth: int = 4):
        self.w = width
        self.d = depth
        self.table = np.zeros((depth, width), dtype=np.int64)
        # double hashing h_i = h1 + i*h2 over the 64-bit value hash
        self._seeds = np.arange(depth, dtype=np.uint64)

    def _positions(self, h: np.ndarray) -> np.ndarray:
        """(d, n) counter indices for value hashes h."""
        h2 = (h >> np.uint64(32)) | np.uint64(1)
        return (h[None, :] + self._seeds[:, None] * h2[None, :]) \
            % np.uint64(self.w)

    def add_hashes(self, h: np.ndarray):
        pos = self._positions(h)
        for i in range(self.d):
            np.add.at(self.table[i], pos[i].astype(np.int64), 1)

    def estimate_hashes(self, h: np.ndarray) -> np.ndarray:
        pos = self._positions(h)
        est = self.table[0][pos[0].astype(np.int64)]
        for i in range(1, self.d):
            est = np.minimum(est, self.table[i][pos[i].astype(np.int64)])
        return est

    def merge(self, other: "CountMinSketch"):
        assert self.table.shape == other.table.shape
        self.table += other.table


def heavy_hitters(ds, column: str, min_count: int,
                  width: int = 16384, depth: int = 4):
    """EXACT (value, n) rows for values occurring >= min_count times, found
    WITHOUT a per-key shuffle:

    1. CMS pass: one fixed-size partial per batch, summed on the driver.
       CMS never underestimates, so est >= min_count admits every true
       heavy hitter;
    2. recount pass: each batch counts its values, keeps only those the
       broadcast merged CMS (once) estimates at >= min_count, and
       emits exact partial counts; the driver sums them and applies the
       final exact threshold, dropping CMS false positives.

    Two scans total, no per-key shuffle. Scale assumption: the CANDIDATE
    set is small (at most total_rows/min_count true heavies + CMS
    collisions, tunable via width). Returns a pandas DataFrame (column, n),
    n exact."""
    import pandas as pd

    def cms_partial(t: pa.Table) -> pa.Table:
        cms = CountMinSketch(width, depth)
        cms.add_hashes(hash_arrow_array(t[column].drop_null()))
        return pa.table({"partial": pa.array([pickle.dumps(cms)], pa.binary())})

    merged: CountMinSketch | None = None
    for r in collect_rows(ds.map_batches(cms_partial, batch_format="pyarrow")):
        p = pickle.loads(r["partial"])
        if merged is None:
            merged = p
        else:
            merged.merge(p)
    if merged is None:
        return pd.DataFrame({column: pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    cms_ref = broadcast(merged)

    def recount(t: pa.Table) -> pa.Table:
        cms = cms_ref.get()
        g = t.select([column]).group_by(column) \
            .aggregate([(column, "count")]) \
            .rename_columns([column, "cnt"])
        g = g.filter(pc.is_valid(g[column]))
        est = cms.estimate_hashes(hash_arrow_array(g[column]))
        keep = pa.array(np.nonzero(est >= min_count)[0], type=pa.int64())
        return g.take(keep)

    acc: dict = {}
    for r in collect_rows(ds.map_batches(recount, batch_format="pyarrow")):
        acc[r[column]] = acc.get(r[column], 0) + int(r["cnt"])
    rows = [(k, n) for k, n in acc.items() if n >= min_count]
    rows.sort()
    return pd.DataFrame({column: [k for k, _ in rows],
                         "n": pd.Series([n for _, n in rows], dtype="int64")})


def grouped_quantiles(ds, key_column: str, value_column: str,
                      qs: tuple = (0.5,)):
    """EXACT per-key quantiles (linear interpolation — SQL quantile_cont
    parity) for the many-small-groups regime: ONE hash(key) co-partition
    exchange, then vectorized pandas groupby.quantile per partition.

    Partitioning assumption (documented): one key's values fit a partition
    — the complement of this module's t-digest path, which handles the
    few-heavy-keys regime with mergeable approximate partials. Returns
    (key, q<percent> per requested quantile)."""
    import pandas as pd

    names = [f"q{int(round(q * 100))}" for q in qs]

    def project(t: pa.Table) -> pa.Table:
        return pa.table({key_column: t[key_column], "v": t[value_column]})

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key_column, sort=False, dropna=False)["v"]
        frames = {name: g.quantile(q, interpolation="linear")
                  for q, name in zip(qs, names)}
        return pd.DataFrame(frames).reset_index()

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def normalize_by_group(ds, key_column: str, value_column: str,
                       keep_columns: tuple = (), ddof: int = 1,
                       out_column: str = "z"):
    """Per-group z-score normalization — SQL `(v - avg(v) OVER (PARTITION BY
    key)) / stddev_samp(v) OVER (PARTITION BY key)`; the feature-scaling
    pass of a training-data pipeline.

    Scale shape: the big table NEVER shuffles. Pass 1 emits one tiny
    (key, n, mean, M2) partial row per (batch, group) — merged driver-side
    with the Chan et al. parallel-variance combine (numerically stable,
    order-independent up to fp rounding). The merged (key → mean, std) map
    broadcasts once; pass 2 is a streaming vectorized transform.
    Documented assumption: the GROUP set is broadcast-small (the dim-table
    regime — same as hash_join_broadcast's build side); per-group row counts
    are unbounded.

    Null values are ignored in the stats and emit null z (SQL semantics);
    groups with n <= ddof or zero variance emit null z; NULL KEYS emit
    null z (NaN keys can't round-trip a broadcast dict — callers needing
    SQL's PARTITION-BY-NULL grouping should pre-fill the key)."""
    import pandas as pd

    from ..util import collect_rows

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key_column, dropna=True)[value_column]
        n = g.count()
        mean = g.mean()
        m2 = (g.var(ddof=1) * (n - 1)).fillna(0.0)
        return pd.DataFrame({key_column: n.index, "n": n.to_numpy(),
                             "mean": mean.to_numpy(), "m2": m2.to_numpy()})

    stats: dict = {}
    for r in collect_rows(ds.map_batches(partial, batch_format="pandas")):
        k = r[key_column]
        nb, mb, m2b = int(r["n"]), float(r["mean"]), float(r["m2"])
        if nb == 0:
            continue
        if k not in stats:
            stats[k] = (nb, mb, m2b)
            continue
        na, ma, m2a = stats[k]
        nab = na + nb
        delta = mb - ma
        stats[k] = (nab, ma + delta * nb / nab,
                    m2a + m2b + delta * delta * na * nb / nab)

    means = {k: m for k, (n, m, _) in stats.items()}
    stds = {}
    for k, (n, _, m2) in stats.items():
        if n > ddof:
            s = float(np.sqrt(m2 / (n - ddof)))
            stds[k] = s if s > 0.0 else None
        else:
            stds[k] = None
    ref = broadcast((means, stds))

    def transform(df: pd.DataFrame) -> pd.DataFrame:
        mean_map, std_map = ref.get()
        mu = df[key_column].map(mean_map)
        sd = df[key_column].map(std_map)
        out = df[[key_column, *keep_columns]].copy()
        out[out_column] = (df[value_column] - mu) / sd
        return out

    return ds.map_batches(transform, batch_format="pandas")


_RANK_SAMPLE = 64  # boundary samples per batch for the sample-sort rank


def _thin(v: np.ndarray, k: int) -> np.ndarray:
    """At most `k` evenly spaced order statistics of `v`, its min and max
    included: one batch's boundary sample."""
    if len(v) <= k:
        return v
    return np.sort(v)[np.linspace(0, len(v) - 1, k).astype(np.int64)]


def _cut_points(samples: np.ndarray, parts: int) -> np.ndarray:
    """The distinct `parts`-quantile cut points of `samples`, in their
    dtype (duplicate quantiles of skewed data collapse)."""
    if len(samples) == 0:
        return samples[:0]
    return np.unique(np.quantile(samples, np.linspace(0, 1, parts + 1)[1:-1])
                     .astype(samples.dtype, copy=False))


def _gather(ds, fn, names: tuple) -> list[np.ndarray]:
    """Run `fn` over every batch of `ds`; the named columns of all its
    (small) outputs, concatenated on the driver."""
    t = collect_table(ds.map_batches(fn, batch_format="pyarrow"))
    if not t.num_columns:
        return [np.zeros(0) for _ in names]
    return [t[c].to_numpy() for c in names]


def _sample_cuts(ds, groups, n: int, parts: int,
                 per_block: int) -> list[np.ndarray]:
    """Sample-sort cut points of `n` value groups in ONE pass: `groups(t)`
    returns a batch's `n` value arrays, each contributes `_thin` samples,
    and the driver keeps each group's `_cut_points`. Cut points only
    balance the work; every caller is exact for any cut points."""
    def sample(t: pa.Table) -> pa.Table:
        s = [_thin(g, per_block) for g in groups(t)]
        return pa.table({"i": np.repeat(np.arange(n), [len(x) for x in s]),
                         "s": np.concatenate(s)})

    i, s = _gather(ds, sample, ("i", "s"))
    return [_cut_points(s[i == j], parts) for j in range(n)]


def _sample_sort(ds, value_column: str, id_column: str, finish):
    """Exact global order of the non-NULL `value_column` WITHOUT a global
    sort — the distributed sample-sort rank pattern shared by
    `global_rank` and `ntile_global`:

    1. boundary sampling: `_sample_cuts` derives shuffle_width() value
       buckets. They only balance the exchange: bucketing is a pure
       function of the value, so ties never split across buckets.
    2. counting pass: per-batch bucket histograms, summed on the driver
       into prefix offsets (count of values in earlier buckets).
    3. ONE bucket-keyed exchange of (id, v); per bucket,
       ``finish(v, ids, offset, n_total)`` returns the output columns.

    Values keep NaN and ±inf (NaN sorts last). Passes 1-2 move
    O(#blocks × width) rows; pass 3 moves each (id, v) pair once."""
    import pandas as pd

    P = shuffle_width()

    def values(t: pa.Table) -> np.ndarray:
        return np.asarray(pc.drop_null(t[value_column]).to_numpy(
            zero_copy_only=False), dtype=np.float64)

    [bounds] = _sample_cuts(ds, lambda t: [values(t)], 1, P, _RANK_SAMPLE)
    bref = broadcast(bounds)

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(bref.get(), v, side="right") \
            .astype(np.int32)

    def counts(t: pa.Table) -> pa.Table:
        c = np.bincount(bucket_of(values(t)), minlength=len(bounds) + 1)
        return pa.table({"b": np.arange(len(c)), "c": c})

    b, c = _gather(ds, counts, ("b", "c"))
    totals = np.bincount(b.astype(np.int64), weights=c,
                         minlength=len(bounds) + 1).astype(np.int64)
    n_total = int(totals.sum())
    oref = broadcast(np.concatenate([[0], np.cumsum(totals)[:-1]]))

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[value_column]))
        v = values(t)
        return pa.table({id_column: t[id_column], "v": v,
                         "_bucket": bucket_of(v)})

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        offs = oref.get()
        return pd.concat([pd.DataFrame(finish(
            g["v"].to_numpy(), g[id_column].to_numpy(), int(offs[int(b)]),
            n_total)) for b, g in (list(df.groupby("_bucket", sort=False))
                                   or [(0, df)])], ignore_index=True)

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, "_bucket")


def global_rank(ds, value_column: str, id_column: str, *,
                pct_column: str = "pct"):
    """EXACT global rank + percent_rank of a numeric column — SQL `rank()
    OVER (ORDER BY v)` / `percent_rank()` — WITHOUT a global sort
    (`_sample_sort`). Per bucket, a vectorized sort + side='left'
    searchsorted:
    rank = offset(bucket) + |{v' in bucket : v' < v}| + 1
    — exactly rank()'s tie semantics (ties share the min rank).

    percent_rank = (rank-1)/(N-1), 0.0 when N == 1 (SQL convention).
    NULL values are EXCLUDED (document the `WHERE v IS NOT NULL` in
    oracles; SQL's NULLS-LAST window ranking has no engine use case)."""
    def finish(v, ids, off, n):
        rank = off + np.searchsorted(np.sort(v), v, side="left") + 1
        pct = (rank - 1) / (n - 1) if n > 1 else np.zeros(len(v))
        return {id_column: ids, "rnk": rank.astype(np.int64),
                pct_column: pct}

    return _sample_sort(ds, value_column, id_column, finish)


def outliers_by_group(ds, key_column: str, value_column: str,
                      k: float = 1.5):
    """Per-group Tukey-fence outlier detection — flag values outside
    [q1 - k·IQR, q3 + k·IQR] within their own group, the distribution
    sanity check a per-segment pipeline runs before trusting aggregates.
    Returns one row per group: (key, n_rows, n_low, n_high, lo, hi) with
    exact linear-interpolation quartiles (SQL quantile_cont parity, as in
    grouped_quantiles) and fences computed in identical double arithmetic,
    so the SQL replica matches bit-for-bit.

    Scale shape: ONE hash(key) co-partition exchange (a group's values fit
    a partition — grouped_quantiles' documented many-small-groups
    assumption), then per-partition vectorized quartiles + fence counts in
    the same pass (values never move twice). Null values are ignored."""
    import pandas as pd

    reserved = {"v", "part", "n_rows", "n_low", "n_high", "lo", "hi"} & \
        {key_column}
    if reserved:  # the key survives into the projection and the output;
        raise ValueError(  # the value column is renamed into "v" safely
            f"outliers_by_group: key column name {sorted(reserved)} is "
            "reserved")

    def project(t: pa.Table) -> pa.Table:
        return pa.table({key_column: t[key_column], "v": t[value_column]})

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["v"].notna()]
        g = d.groupby(key_column, sort=False, dropna=False)["v"]
        q1 = g.quantile(0.25, interpolation="linear")
        q3 = g.quantile(0.75, interpolation="linear")
        lo = q1 - k * (q3 - q1)
        hi = q3 + k * (q3 - q1)
        stats = pd.DataFrame({"lo": lo, "hi": hi})
        m = d.merge(stats, left_on=key_column, right_index=True)
        below = (m["v"] < m["lo"]).groupby(m[key_column]).sum()
        above = (m["v"] > m["hi"]).groupby(m[key_column]).sum()
        out = pd.DataFrame({
            key_column: stats.index,
            "n_rows": d.groupby(key_column, sort=False).size()
            .reindex(stats.index).astype("int64"),
            "n_low": below.reindex(stats.index).fillna(0).astype("int64"),
            "n_high": above.reindex(stats.index).fillna(0).astype("int64"),
            "lo": stats["lo"],
            "hi": stats["hi"],
        }).reset_index(drop=True)
        return out

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def mad_by_group(ds, key_column: str, value_column: str):
    """Per-group median absolute deviation — the robust dispersion measure
    (insensitive to the heavy tails that wreck stddev on web-scale
    distributions): med = median(v), mad = median(|v - med|), both with
    linear interpolation (DuckDB median()/mad() parity). Complements
    outliers_by_group's IQR fences with the MAD-based robust z-score
    denominator.

    Scale shape: same ONE hash(key) co-partition exchange as
    grouped_quantiles (a group's values fit a partition — the
    many-small-groups regime), then two vectorized per-partition groupby
    quantile passes (med, then |v-med|). Null values ignored. Returns
    (key, med, mad, n_rows)."""
    import pandas as pd

    reserved = {"v", "part", "med", "mad", "n_rows"} & {key_column}
    if reserved:  # the key survives into the projection and the output;
        raise ValueError(  # the value column is renamed into "v" safely
            f"mad_by_group: key column name {sorted(reserved)} is "
            "reserved")

    def project(t: pa.Table) -> pa.Table:
        return pa.table({key_column: t[key_column], "v": t[value_column]})

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["v"].notna()]
        g = d.groupby(key_column, sort=False, dropna=False)["v"]
        med = g.quantile(0.5, interpolation="linear")
        dev = (d["v"] - d[key_column].map(med)).abs()
        mad = dev.groupby(d[key_column]).quantile(
            0.5, interpolation="linear")
        n = g.size()
        return pd.DataFrame({key_column: med.index, "med": med.values,
                             "mad": mad.reindex(med.index).values,
                             "n_rows": n.reindex(med.index)
                             .astype("int64").values})

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def column_correlations(ds, columns: list):
    """Pairwise Pearson correlations over numeric columns in ONE streaming
    pass — the multivariate profile step (feature redundancy, leakage
    screening) the per-column ColumnStats can't see. Sample correlation
    (n-1 denominators, SQL corr() parity) from per-batch moment partials:
    each batch emits (n, Σx per column, Σx·xᵀ upper triangle) over rows
    complete in ALL columns (pairwise-complete would make the matrix
    inconsistent); the driver folds the fixed-width partials. Returns a
    pandas DataFrame (col_a, col_b, corr) for the strict upper triangle,
    sorted; constant columns yield NaN (0/0), matching SQL corr()."""
    import pandas as pd

    cols = list(columns)
    k = len(cols)
    if k < 2:
        raise ValueError("column_correlations: need >= 2 columns")

    def partial(t: pa.Table) -> pa.Table:
        x = np.column_stack([
            np.asarray(t[c].to_numpy(zero_copy_only=False),
                       dtype=np.float64) for c in cols])
        keep = np.isfinite(x).all(axis=1)
        x = x[keep]
        return pa.table({
            "n": pa.array([x.shape[0]], pa.int64()),
            "s": pa.array([x.sum(axis=0).tolist()],
                          pa.list_(pa.float64())),
            "ss": pa.array([(x.T @ x).ravel().tolist()],
                           pa.list_(pa.float64())),
        })

    n = 0
    s = np.zeros(k)
    ss = np.zeros((k, k))
    for r in collect_rows(ds.map_batches(partial, batch_format="pyarrow")):
        n += int(r["n"])
        s += np.asarray(r["s"])
        ss += np.asarray(r["ss"]).reshape(k, k)
    rows = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(k):
            for j in range(i + 1, k):
                if n < 2:
                    c = float("nan")
                else:
                    cov = (ss[i, j] - s[i] * s[j] / n) / (n - 1)
                    vi = (ss[i, i] - s[i] * s[i] / n) / (n - 1)
                    vj = (ss[j, j] - s[j] * s[j] / n) / (n - 1)
                    # a constant column's variance cancels to <= 0 while
                    # the covariance keeps float dust — force NaN (SQL
                    # corr() NULL), never +/-inf
                    c = cov / np.sqrt(vi * vj) if vi > 0 and vj > 0 \
                        else float("nan")
                a, b = sorted((cols[i], cols[j]))  # corr is symmetric —
                rows.append({"col_a": a, "col_b": b,  # canonical order
                             "corr": float(c)})
    return pd.DataFrame(rows).sort_values(["col_a", "col_b"]) \
        .reset_index(drop=True)


def regression_by_group(ds, key_column: str, x_column: str, y_column: str):
    """Per-group simple linear regression — the trend-per-segment profile
    ("is quality drifting over time, and in which source?"): population
    least-squares slope/intercept (SQL regr_slope()/regr_intercept()
    parity) from per-batch grouped moment partials (n, Σx, Σy, Σxy, Σx²)
    folded on the driver — one scan, no shuffle, low-cardinality groups
    (same contract as sampling.group_counts). Rows with a null in either
    column are dropped (SQL regr_* semantics). Zero-variance x yields NaN.
    Returns a pandas DataFrame (key, slope, intercept, n) sorted by key."""
    import pandas as pd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[key_column, x_column, y_column]].dropna()
        x = d[x_column].astype("float64")
        y = d[y_column].astype("float64")
        t = pd.DataFrame({"g": d[key_column], "x": x, "y": y,
                          "xy": x * y, "xx": x * x})
        g = t.groupby("g", sort=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxy=("xy", "sum"), sxx=("xx", "sum")).reset_index()
        return g

    acc: dict = {}
    for r in collect_rows(ds.map_batches(partial, batch_format="pandas")):
        a = acc.setdefault(r["g"], [0, 0.0, 0.0, 0.0, 0.0])
        a[0] += int(r["n"])
        a[1] += r["sx"]
        a[2] += r["sy"]
        a[3] += r["sxy"]
        a[4] += r["sxx"]
    rows = []
    for g in sorted(acc):
        n, sx, sy, sxy, sxx = acc[g]
        varx = sxx - sx * sx / n
        if n < 2 or varx <= 0:
            slope = intercept = float("nan")
        else:
            slope = (sxy - sx * sy / n) / varx
            intercept = sy / n - slope * (sx / n)
        rows.append({key_column: g, "slope": slope,
                     "intercept": intercept, "n": n})
    out = pd.DataFrame(rows,
                       columns=[key_column, "slope", "intercept", "n"])
    out["n"] = out["n"].astype("int64")
    return out.reset_index(drop=True)


def grouped_approx_nunique(ds, key_column: str, value_column: str,
                           p: int = 12):
    """APPROXIMATE per-group distinct-value counts — the scale path of
    uniqueness.grouped_nunique for when the exact pair-partial exchange is
    too wide (billions of distinct (key, value) pairs): one HyperLogLog
    per group, built per batch and merged associatively on the driver
    (register-wise max), so the traffic is #groups × 2^p bytes per batch
    and NOTHING shuffles. Low-cardinality grouping columns (language,
    source, shard), same contract as sampling.group_counts; p=12 → ~1.6%
    standard error. Null values are ignored (COUNT DISTINCT semantics);
    null groups dropped. Returns a pandas DataFrame
    (key, approx_nunique) sorted by key."""
    import pandas as pd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[key_column, value_column]].dropna()
        out_k, out_b = [], []
        for g, sub in d.groupby(key_column, sort=False):
            h = HyperLogLog(p)
            h.add_hashes(hash_arrow_array(sub[value_column]))
            out_k.append(g)
            out_b.append(h.registers.tobytes())
        return pd.DataFrame({"g": out_k, "regs": out_b})

    acc: dict = {}
    for r in collect_rows(ds.map_batches(partial, batch_format="pandas")):
        regs = np.frombuffer(r["regs"], dtype=np.uint8)
        cur = acc.get(r["g"])
        if cur is None:
            acc[r["g"]] = regs.copy()
        else:
            np.maximum(cur, regs, out=cur)
    rows = []
    for g in sorted(acc):
        h = HyperLogLog(p)
        h.registers = acc[g]
        rows.append({key_column: g,
                     "approx_nunique": int(round(h.cardinality()))})
    return pd.DataFrame(rows, columns=[key_column, "approx_nunique"]) \
        .reset_index(drop=True)


def percentile_normalize(ds, value_column: str, *,
                         out_column: str = "pct",
                         compression: float = 200.0):
    """Approximate percentile (CDF) score per row — the streaming scale
    path of the exact global_rank: ONE sketch pass builds a merged
    t-digest (fixed-size partials, no shuffle), then the broadcast digest
    scores every row in a second streaming pass (`out_column` in [0, 1]).
    At 10^12 rows the exact sample-sort rank pays a distribution exchange;
    the digest answer is within ~O(1/compression) quantile error and
    never moves the data. Null/NaN values score NaN.

    `ds` is consumed twice (sketch + score) — pass a re-readable pipeline
    or a materialized Dataset. Returns (ds columns + out_column)."""

    def partial(t: pa.Table) -> pa.Table:
        d = TDigest(compression)
        col = t[value_column]
        v = np.asarray(col.to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        d.add_array(v[np.isfinite(v)])
        return pa.table({"d": pa.array([d.to_bytes()], pa.binary())})

    merged = TDigest(compression)
    for r in collect_rows(ds.map_batches(partial, batch_format="pyarrow")):
        merged.merge(TDigest.from_bytes(r["d"]))
    ref = broadcast(merged.to_bytes())

    def score(t: pa.Table) -> pa.Table:
        d = TDigest.from_bytes(ref.get())
        v = np.asarray(t[value_column].to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        out = np.full(len(v), np.nan)
        ok = np.isfinite(v)
        # vectorized CDF: same interpolation as TDigest.cdf, batched
        d._compress()
        if len(d.means):
            cum = np.cumsum(d.weights) - d.weights / 2
            tot = d.weights.sum()
            p = np.interp(v[ok], d.means, cum / tot)
            p[v[ok] <= d.min] = 0.0
            p[v[ok] >= d.max] = 1.0
            out[ok] = p
        return t.append_column(out_column, pa.array(out))

    return ds.map_batches(score, batch_format="pyarrow")


def ntile_global(ds, value_column: str, id_column: str, n_tiles: int, *,
                 tile_column: str = "tile"):
    """EXACT equal-frequency discretization — SQL `ntile(k) OVER (ORDER BY
    v, id)` — WITHOUT a global sort: `_sample_sort`, extended to
    deterministic ROW numbering.

    ntile needs a total row order, so ties on the value are broken by
    `id_column` (the id must be unique and orderable; document the same
    tie-break in oracles). A value tie never splits across buckets, so
    the within-bucket lexsort((id, v)) + bucket prefix offset yields the
    exact global row_number; the NTILE fill rule (first n%k tiles get one
    extra row) is then closed-form from that row number. NULL values are
    excluded."""
    if n_tiles < 1:
        raise ValueError(f"ntile_global: n_tiles={n_tiles} must be >= 1")
    reserved = {"v", "part", "_bucket", tile_column} & {id_column}
    if reserved:  # the value column is renamed to the synthetic 'v'; only
        # an ID named like a synthetic/output column can collide
        raise ValueError(f"ntile_global: column names {sorted(reserved)} "
                         "are reserved")

    def finish(v, ids, off, n):
        # NTILE fill rule: first r tiles hold q+1 rows, the rest q
        q, r = divmod(n, n_tiles)
        cut = (q + 1) * r
        order = np.lexsort((ids, v))  # by (v, id) — ntile's row order
        rn = np.empty(len(v), dtype=np.int64)
        rn[order] = off + np.arange(1, len(v) + 1)
        tile = np.where(
            rn <= cut,
            -(-rn // (q + 1)),                       # ceil(rn/(q+1))
            r + (-(-(rn - cut) // max(q, 1)))).astype(np.int64)
        return {id_column: ids, tile_column: tile}

    return _sample_sort(ds, value_column, id_column, finish)


def chi_square_independence(ds, col_a: str, col_b: str):
    """Pearson chi-square independence test + mutual information between two
    categorical columns, in ONE scan: per-batch Arrow group_by partial
    contingency counts (the combiner), folded on the driver into the full
    observed matrix — the column_correlations pattern for categorical
    association. No all-to-all shuffle.

    Returns a one-row DataFrame (chi2, mi, dof, n): chi2 over the FULL
    cross product (zero cells contribute their expected count), mi in nats
    over observed cells. Partitioning assumption (documented): the DISTINCT
    (a, b) pair count is bounded (categorical columns) — the driver fold is
    O(distinct pairs), never O(rows)."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([col_a, col_b]).group_by([col_a, col_b]) \
            .aggregate([([], "count_all")])
        return g.rename_columns([col_a, col_b, "c"])

    parts = [b for b in ds.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_format="pandas")]
    cont = (pd.concat(parts, ignore_index=True)
            .groupby([col_a, col_b], sort=False)["c"].sum()
            .unstack(fill_value=0)) if parts else pd.DataFrame()
    obs = cont.to_numpy(dtype=np.float64) if cont.size else \
        np.zeros((0, 0), np.float64)
    n = obs.sum()
    ra = obs.sum(axis=1, keepdims=True)
    cb = obs.sum(axis=0, keepdims=True)
    if n > 0 and obs.shape[0] > 0 and obs.shape[1] > 0:
        exp = ra * cb / n
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        pos = obs > 0
        mi = float((obs[pos] / n * np.log(obs[pos] * n
                                          / (ra * cb)[pos])).sum())
    else:
        chi2, mi = 0.0, 0.0
    dof = max(obs.shape[0] - 1, 0) * max(obs.shape[1] - 1, 0)
    return pd.DataFrame({"chi2": [chi2], "mi": [mi],
                         "dof": pd.Series([dof], dtype="int64"),
                         "n": pd.Series([int(n)], dtype="int64")})


def distribution_by_group(ds, key_column: str, value_column: str):
    """Per-group categorical distribution profile: Shannon entropy (nats),
    Herfindahl concentration (sum p²), top-value share, distinct-value
    count and row count — the diversity report a curation pipeline runs
    before sampling (is one source dominating a language?).

    Scale shape (the grouped_top_values pattern): per-batch Arrow group_by
    partial counts shrink rows to distinct (key, value) pairs, ONE
    hash(key) coarse-partition exchange co-locates each key's counts, and
    a vectorized pandas fold per partition computes the profile. NULL keys
    and values participate as their own category (document COALESCE in
    oracles or filter upstream)."""
    import pandas as pd

    reserved = {"c", "part"} & {key_column, value_column}
    if reserved:  # synthetic exchange columns
        raise ValueError(f"distribution_by_group: column names "
                         f"{sorted(reserved)} are reserved")

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([key_column, value_column]) \
            .group_by([key_column, value_column]) \
            .aggregate([([], "count_all")])
        return g.rename_columns([key_column, value_column, "c"])

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby([key_column, value_column], sort=False)["c"].sum()
        g = cnt.groupby(level=0, sort=False)
        n = g.sum()
        p = cnt / n.reindex(cnt.index.get_level_values(0)).to_numpy()
        ent = (-p * np.log(p)).groupby(level=0, sort=False).sum()
        hhi = (p * p).groupby(level=0, sort=False).sum()
        top = g.max() / n
        return pd.DataFrame({
            key_column: n.index.to_numpy(),
            "entropy": ent.reindex(n.index).to_numpy(),
            "hhi": hhi.reindex(n.index).to_numpy(),
            "top_share": top.reindex(n.index).to_numpy(),
            "n_values": g.size().reindex(n.index).to_numpy()
            .astype(np.int64),
            "n": n.to_numpy().astype(np.int64)})

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    per_part, key_column)


def rollup_counts(ds, columns: list):
    """Hierarchical grouped counts — SQL ``GROUP BY ROLLUP(c1, .., ck)``:
    one count row per group at every prefix level (c1..ck), (c1..ck-1),
    ..., (c1), plus the grand total. Rolled-up columns come back as null;
    `level` = number of retained grouping columns (grand total = 0).

    Scale shape: per-batch Arrow group_by partials at the FINEST level
    (the combiner — the exchange moves distinct tuples per batch, not
    rows), ONE hash(c1) coarse exchange so every coarser level except the
    grand total aggregates within its partition, then a vectorized pandas
    fold per partition; the grand total folds the tiny level-1 rows on
    the driver. Returns a pandas DataFrame (a rollup is an aggregate —
    bounded by distinct(c1..ck); document the bounded-cardinality
    assumption, same as pivot)."""
    import pandas as pd

    if not columns:
        raise ValueError("rollup_counts: need at least one column")
    if "n" in columns or "level" in columns or "part" in columns:
        raise ValueError("rollup_counts: column names "
                         "{'n','level','part'} are reserved")
    k = len(columns)

    def partial(t: pa.Table) -> pa.Table:
        return t.select(columns).group_by(columns) \
            .aggregate([([], "count_all")]).rename_columns([*columns, "n"])

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for lvl in range(k, 0, -1):
            g = df.groupby(columns[:lvl], sort=False, dropna=False)["n"] \
                .sum().reset_index()
            for c in columns[lvl:]:
                # numeric rolled columns null as NaN (pandas' numeric NULL,
                # matching what a SQL client hands back), others as None
                g[c] = np.nan if np.issubdtype(df[c].dtype, np.number) \
                    else None
            g["level"] = np.int64(lvl)
            outs.append(g[[*columns, "level", "n"]])
        out = pd.concat(outs, ignore_index=True)
        out["n"] = out["n"].astype("int64")
        return out

    levels = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                      per_part, columns[0])
    rows = [b for b in levels.iter_batches(batch_format="pandas")]
    out = pd.concat(rows, ignore_index=True) if rows else pd.DataFrame(
        {**{c: pd.Series([], dtype="object") for c in columns},
         "level": pd.Series([], dtype="int64"),
         "n": pd.Series([], dtype="int64")})
    total = int(out.loc[out["level"] == 1, "n"].sum()) if len(out) else 0
    grand = pd.DataFrame({
        **{c: [np.nan if np.issubdtype(out[c].dtype, np.number) else None]
           for c in columns},
        "level": pd.Series([0], dtype="int64"),
        "n": pd.Series([total], dtype="int64")})
    return pd.concat([out, grand], ignore_index=True)


def cube_counts(ds, columns: list):
    """Full-lattice grouped counts — SQL ``GROUP BY CUBE(c1, .., ck)``:
    one count row per group for EVERY subset of the grouping columns
    (2^k grouping sets, incl. the grand total). Rolled-up columns come
    back as null; `grouping_id` follows SQL GROUPING_ID semantics (bit
    set = column rolled up, MSB = c1), which disambiguates rolled nulls
    from data nulls.

    Scale shape (rollup_counts' design extended to the lattice): per-batch
    Arrow group_by partials at the finest level (the combiner — the
    exchange moves distinct tuples per batch, not rows), ONE hash(c1)
    coarse exchange, then a vectorized pandas fold per partition computes
    all 2^k local groupings. Grouping sets that RETAIN c1 finalize inside
    their partition; sets that roll c1 up are partition-local partials —
    bounded by P * 2^(k-1) * distinct(c2..ck) rows — merged in one
    vectorized driver groupby (the bounded-cardinality assumption, same
    as rollup/pivot; k > 6 is rejected). Returns a pandas DataFrame."""
    import pandas as pd

    if not columns:
        raise ValueError("cube_counts: need at least one column")
    if {"n", "grouping_id", "part"} & set(columns):
        raise ValueError("cube_counts: column names "
                         "{'n','grouping_id','part'} are reserved")
    k = len(columns)
    if k > 6:
        raise ValueError(f"cube_counts: {k} columns = {2**k} grouping "
                         "sets; at most 6 supported")

    def partial(t: pa.Table) -> pa.Table:
        return t.select(columns).group_by(columns) \
            .aggregate([([], "count_all")]).rename_columns([*columns, "n"])

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for gid in range(2 ** k):
            rolled = [columns[i] for i in range(k)
                      if gid & (1 << (k - 1 - i))]
            kept = [c for c in columns if c not in rolled]
            if kept:
                g = df.groupby(kept, sort=False, dropna=False)["n"] \
                    .sum().reset_index()
            else:
                g = pd.DataFrame({"n": [df["n"].sum()]})
            for c in rolled:
                g[c] = np.nan if np.issubdtype(df[c].dtype, np.number) \
                    else None
            g["grouping_id"] = np.int64(gid)
            outs.append(g[[*columns, "grouping_id", "n"]])
        out = pd.concat(outs, ignore_index=True)
        out["n"] = out["n"].astype("int64")
        return out

    cube = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    per_part, columns[0])
    rows = [b for b in cube.iter_batches(batch_format="pandas")]
    if not rows:  # empty input: SQL CUBE still emits the () set, count 0
        return pd.DataFrame(
            {**{c: pd.Series([None], dtype="object") for c in columns},
             "grouping_id": pd.Series([2 ** k - 1], dtype="int64"),
             "n": pd.Series([0], dtype="int64")})
    out = pd.concat(rows, ignore_index=True)
    c1_retained = out["grouping_id"] < 2 ** (k - 1)
    final = out[c1_retained]
    merged = out[~c1_retained] \
        .groupby([*columns, "grouping_id"], sort=False, dropna=False,
                 as_index=False)["n"].sum()
    merged["n"] = merged["n"].astype("int64")
    res = pd.concat([final, merged[[*columns, "grouping_id", "n"]]],
                    ignore_index=True)
    for c in columns:  # pandas groupby renders None keys as NaN — restore
        if not np.issubdtype(res[c].dtype, np.number):
            col = res[c].astype(object)
            res[c] = col.where(pd.notna(col), None)
    return res


def benford_profile(ds, column: str):
    """First-significant-digit distribution vs Benford's law — the classic
    fabricated-numbers audit for financial/measurement columns. Input must
    be an INTEGER column (callers scale decimals first, e.g. price cents):
    the leading digit comes from pure integer halving-by-10 sweeps, so
    there is no float log10 edge case to disagree with a SQL oracle about.
    Non-positive values are excluded.

    One scan: per-batch 9-wide digit histograms (vectorized ``//10`` until
    every value is a single digit — <= 19 passes for int64), summed on the
    driver. Returns one row per digit 1..9: n, freq (n/total), and
    Benford's expected log10(1 + 1/d)."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        v = t[column]
        v = v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
        x = np.asarray(pc.drop_null(v).to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        x = x[x > 0]
        while len(x) and int(x.max()) >= 10:
            big = x >= 10
            x[big] //= 10
        c = np.bincount(x, minlength=10)[1:10]
        return pa.table({"d": pa.array(np.arange(1, 10, dtype=np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    counts = np.zeros(9, dtype=np.int64)
    for r in collect_rows(ds.map_batches(partial, batch_format="pyarrow")):
        counts[r["d"] - 1] += r["c"]
    total = int(counts.sum())
    d = np.arange(1, 10)
    return pd.DataFrame({
        "digit": pd.Series(d, dtype="int64"),
        "n": pd.Series(counts, dtype="int64"),
        "freq": counts / total if total else np.zeros(9),
        "expected": np.log10(1.0 + 1.0 / d)})


def histogram_fixed(ds, column: str, n_bins: int):
    """Equal-WIDTH histogram over a numeric column in two streaming
    passes: per-batch (min, max) partials fix the global range, then
    per-batch ``bincount(floor((v-min)/w))`` partials fold into the final
    counts on the driver (fixed 9-to-n_bins-wide rows move, never data).
    The value-space complement of ntile_global's equal-FREQUENCY buckets.

    Returns one row per non-empty-range bin: bin index, [lo, hi) edges
    and n; the top edge is closed (v == max lands in the last bin, SQL
    ``least(floor(...), n-1)``). NULL/NaN excluded. All-equal columns
    collapse to one bin."""
    import pandas as pd

    if n_bins < 1:
        raise ValueError(f"histogram_fixed: n_bins={n_bins} must be >= 1")

    def mm(t: pa.Table) -> pa.Table:
        v = np.asarray(pc.drop_null(t[column]).to_numpy(
            zero_copy_only=False), dtype=np.float64)
        v = v[np.isfinite(v)]
        if not len(v):
            return pa.table({"lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64())})
        return pa.table({"lo": pa.array([v.min()]),
                         "hi": pa.array([v.max()])})

    lohi = [(r["lo"], r["hi"]) for r in collect_rows(
        ds.map_batches(mm, batch_format="pyarrow"))]
    if not lohi:
        return pd.DataFrame({"bin": pd.Series([], dtype="int64"),
                             "lo": pd.Series([], dtype="float64"),
                             "hi": pd.Series([], dtype="float64"),
                             "n": pd.Series([], dtype="int64")})
    mn = min(lo for lo, _ in lohi)
    mx = max(hi for _, hi in lohi)
    w = (mx - mn) / n_bins
    k = n_bins if w > 0 else 1

    def counts(t: pa.Table) -> pa.Table:
        v = np.asarray(pc.drop_null(t[column]).to_numpy(
            zero_copy_only=False), dtype=np.float64)
        v = v[np.isfinite(v)]
        b = np.minimum(np.floor((v - mn) / w).astype(np.int64), k - 1) \
            if w > 0 else np.zeros(len(v), dtype=np.int64)
        c = np.bincount(b, minlength=k)
        return pa.table({"b": pa.array(np.arange(k, dtype=np.int64)),
                         "c": pa.array(c.astype(np.int64))})

    totals = np.zeros(k, dtype=np.int64)
    for r in collect_rows(ds.map_batches(counts, batch_format="pyarrow")):
        totals[r["b"]] += r["c"]
    bins = np.arange(k, dtype=np.int64)
    return pd.DataFrame({"bin": pd.Series(bins, dtype="int64"),
                         "lo": mn + bins * w,
                         "hi": np.where(bins == k - 1, mx,
                                        mn + (bins + 1) * w),
                         "n": pd.Series(totals, dtype="int64")})


_SELECT_PARTS = 32   # cut points per bracket and round of the selection
_SELECT_ROUNDS = 12  # narrowing rounds before the selection gives up


def _select(ds, extract, targets, *, collect_cap: int,
            sample_per_block: int) -> tuple[float, dict]:
    """Distributed weighted SELECTION, the core of both exact quantile
    functions: for each target mass t, the smallest value whose cumulative
    mass (weight of rows with value <= it) reaches t. Never sorts
    globally; every pass is O(data), driver memory O(collect_cap).

    `extract(t)` returns a batch's (values, weights) with NaN/NULL rows
    dropped; unit weights make the mass a plain row count. -inf/+inf
    values are the lowest/highest mass: counted in the first counting
    pass, they never enter the selection, which brackets the finite
    values only. `targets(total)` maps the total mass to the wanted
    target masses. Returns (total, {target: value}); the dict is empty
    when total <= 0.

    Each round is ONE boundary-sample pass plus ONE counting pass shared
    by every active target, over its bracket [lo, hi) cut into atoms: the
    open regions between sampled cut points, and each cut point itself.
    The explicit cut-point (equality) mass resolves a target landing in
    a point mass at once, so heavy skew terminates. A target descends
    into the first atom that holds rows and whose cumulative mass reaches
    it; an empty atom is never chosen, so no bracket is answered by its
    edge. Brackets strictly narrow (each block's min and max are among
    the samples), and a bracket holding <= `collect_cap` rows is fetched
    in one final pass and folded per UNIQUE value, ascending, so the
    crossing test is addend-order-free: with integer weights every
    cumulative sum is exact in float64."""
    def within(v: np.ndarray, w: np.ndarray, ivals) -> list:
        f = np.isfinite(v)
        v, w = v[f], w[f]
        return [(v[m], w[m]) for lo, hi in ivals
                for m in [(v >= lo) & (v < hi)]]

    def count(t: pa.Table, ivals, cuts, offs, n_atoms) -> pa.Table:
        v, w = extract(t)
        ks, ws = [], []
        for off, (vv, ww), sb in zip(offs, within(v, w, ivals), cuts):
            j = np.searchsorted(sb, vv)  # atom 2j: open region, 2j+1: sb[j]
            ks.append(off + 2 * j + (np.append(sb, np.inf)[j] == vv))
            ws.append(ww)
        inf = np.isinf(v)
        ks.append(n_atoms + (v[inf] > 0))  # -inf, then +inf
        ws.append(w[inf])
        k = np.concatenate(ks).astype(np.int64)
        c = np.bincount(k, minlength=n_atoms + 2)
        s = np.bincount(k, weights=np.concatenate(ws), minlength=n_atoms + 2)
        nz = np.flatnonzero(c)
        return pa.table({"k": nz, "c": c[nz], "w": s[nz]})

    ivals, state = [(-math.inf, math.inf)], None
    for _round in range(_SELECT_ROUNDS):
        cuts = _sample_cuts(
            ds, lambda t, iv=tuple(ivals): [
                v for v, _ in within(*extract(t), iv)],
            len(ivals), _SELECT_PARTS, sample_per_block)
        offs = np.concatenate([[0], np.cumsum([2 * len(sb) + 1
                                               for sb in cuts])])
        n_atoms = int(offs[-1])
        k, c, w = _gather(ds, lambda t, a=(tuple(ivals), cuts, offs[:-1],
                                           n_atoms): count(t, *a),
                          ("k", "c", "w"))
        rows = np.bincount(k.astype(np.int64), weights=c,
                           minlength=n_atoms + 2)
        mass = np.bincount(k.astype(np.int64), weights=w,
                           minlength=n_atoms + 2)
        if state is None:  # first round: totals, then every target
            n_neg, w_neg, w_pos = rows[-2], mass[-2], mass[-1]
            n_fin, w_fin = rows[:-2].sum(), mass[:-2].sum()
            total = float(w_neg + w_fin + w_pos)
            if total <= 0.0:
                return total, {}
            state = {t: -math.inf if n_neg and t <= w_neg else
                     math.inf if t > w_neg + w_fin or not n_fin else
                     (-math.inf, math.inf, float(w_neg), int(n_fin))
                     for t in targets(total)}
        at = {iv: i for i, iv in enumerate(ivals)}
        for t, s in state.items():
            i = at.get(s[:2]) if isinstance(s, tuple) else None
            if i is not None:
                sl = slice(offs[i], offs[i + 1])
                state[t] = _descend(t, s, cuts[i], rows[sl], mass[sl])
        ivals = sorted({s[:2] for s in state.values()
                        if isinstance(s, tuple) and s[3] > collect_cap})
        if not ivals:
            break
    else:
        raise RuntimeError("global quantile selection did not converge "
                           f"in {_SELECT_ROUNDS} rounds")

    pend = sorted({s[:3] for s in state.values() if isinstance(s, tuple)})
    if pend:
        def sliver(t: pa.Table, iv=tuple(b[:2] for b in pend)) -> pa.Table:
            vw = within(*extract(t), iv)
            return pa.table({
                "i": np.repeat(np.arange(len(iv)), [len(v) for v, _ in vw]),
                "v": np.concatenate([v for v, _ in vw]),
                "w": np.concatenate([w for _, w in vw])})

        i, v, w = _gather(ds, sliver, ("i", "v", "w"))
        folds = {}
        for j, (lo, hi, base) in enumerate(pend):
            vj, wj = v[i == j], w[i == j]
            order = np.argsort(vj, kind="stable")
            vj, wj = vj[order], wj[order]
            uv, idx = np.unique(vj, return_index=True)
            folds[lo, hi] = uv, base + np.cumsum(np.add.reduceat(wj, idx))
        for t, s in state.items():
            if isinstance(s, tuple):
                uv, cum = folds[s[:2]]
                pos = int(np.searchsorted(cum, t, side="left"))
                state[t] = float(uv[min(pos, len(uv) - 1)])
    return total, state


def _descend(t: float, bracket: tuple, sb: np.ndarray, rows: np.ndarray,
             mass: np.ndarray):
    """One selection step: the cut point holding target mass `t`, or the
    narrower bracket (lo, hi, base, rows) of the first non-empty atom
    whose cumulative mass reaches it. A target that float rounding
    carries past the last atom takes the last non-empty one."""
    lo, hi, base = bracket[:3]
    cum = base + np.cumsum(mass)
    hit = np.flatnonzero((rows > 0) & (cum >= t))
    a = int(hit[0]) if len(hit) else int(np.flatnonzero(rows)[-1])
    if a % 2:
        return float(sb[a // 2])
    b = a // 2
    return (lo if b == 0 else float(np.nextafter(sb[b - 1], math.inf)),
            hi if b == len(sb) else float(sb[b]),
            base if a == 0 else float(cum[a - 1]), int(rows[a]))


def _check_qs(name: str, qs) -> list[float]:
    qs = [float(q) for q in qs]
    if not qs or any(not 0.0 <= q <= 1.0 for q in qs):
        raise ValueError(f"{name}: qs={qs} must be in [0,1]")
    return qs


def exact_global_quantiles(ds, column: str, qs, *,
                           collect_cap: int = 262_144,
                           sample_per_block: int = 64):
    """EXACT global quantiles — SQL ``quantile_cont(v, q)`` — by
    distributed SELECTION (`_select` at unit weight), never a global
    sort. The t-digest is the one-pass approximate path; this is the
    exact path whose scans stay O(data) each while driver memory stays
    O(collect_cap).

    quantile_cont semantics: h = q*(n-1); the result interpolates the
    floor(h)-th and ceil(h)-th order statistics (0-indexed), i.e. the
    selections at ranks floor(h)+1 and ceil(h)+1. NULL/NaN excluded (SQL
    drops NULLs). -inf/+inf are the lowest/highest order statistics.
    Every interpolation takes DuckDB's ``lo*(1-d) + hi*d`` form, so
    values are bit-identical to DuckDB's (-inf next to a finite value
    stays -inf, -inf next to +inf is NaN; ``lo + d*(hi-lo)`` and NumPy's
    form differ from it in the last bit on about a fifth of random cases).
    Returns a DataFrame (q, value); NaN value on an empty column."""
    import pandas as pd

    qs = _check_qs("exact_global_quantiles", qs)

    def extract(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        v = np.asarray(pc.drop_null(t[column]).to_numpy(
            zero_copy_only=False), dtype=np.float64)
        v = v[~np.isnan(v)]
        return v, np.ones(len(v))

    def ranks(n: float) -> set:
        return {r + 1 for q in qs
                for r in (math.floor(q * (n - 1)), math.ceil(q * (n - 1)))}

    n, at = _select(ds, extract, ranks, collect_cap=collect_cap,
                    sample_per_block=sample_per_block)
    out = []
    for q in qs:
        if not at:
            out.append(math.nan)
            continue
        h = q * (n - 1)
        k0, k1 = math.floor(h), math.ceil(h)
        v0, v1, d = at[k0 + 1], at[k1 + 1], h - k0
        out.append(v0 if k0 == k1 else v0 * (1 - d) + v1 * d)
    return pd.DataFrame({"q": pd.Series(qs, dtype="float64"),
                         "value": pd.Series(out, dtype="float64")})


def weighted_global_quantiles(ds, value_column: str, weight_column: str,
                              qs, *, collect_cap: int = 262_144,
                              sample_per_block: int = 64):
    """EXACT weighted lower quantiles by distributed SELECTION — for each
    q, the smallest value v with cumulative weight of rows (value <= v)
    >= q * W. The weighted generalization of `exact_global_quantiles`
    (e.g. token-weighted document-length percentiles, quantity-weighted
    price points); no global sort, scans stay O(data) per round, driver
    memory O(collect_cap). With integer-valued weights the result
    matches SQL's ``min(v) FILTER (cum >= q*W)`` idiom bit-for-bit (see
    `_select`).

    NULL/NaN value or NULL weight rows are excluded; negative weights
    raise (inside the first pass — the error surfaces on execution).
    -inf/+inf values carry the lowest/highest mass. NaN values when the
    total weight is 0."""
    import pandas as pd

    qs = _check_qs("weighted_global_quantiles", qs)

    def extract(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        v = np.asarray(t[value_column].to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        w = np.asarray(t[weight_column].to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        keep = ~np.isnan(v) & np.isfinite(w)
        v, w = v[keep], w[keep]
        if len(w) and float(w.min()) < 0.0:
            raise ValueError("weighted_global_quantiles: negative weight")
        return v, w

    W, at = _select(ds, extract, lambda W: {q * W for q in qs},
                    collect_cap=collect_cap,
                    sample_per_block=sample_per_block)
    return pd.DataFrame({
        "q": pd.Series(qs, dtype="float64"),
        "value": pd.Series([at[q * W] if at else math.nan for q in qs],
                           dtype="float64")})


def winsorize(ds, value_column: str, p_lo: float = 0.01,
              p_hi: float = 0.99, *, out_column: str | None = None):
    """Winsorization — clip a numeric column to its EXACT [p_lo, p_hi]
    quantiles (quantile_cont semantics via exact_global_quantiles'
    distributed selection), the standard outlier-taming transform before
    scaling/regression. The quantile pass never sorts globally; the clip
    is a pure per-batch kernel against the two broadcast cut values.
    NULLs pass through unchanged; replaces the column in place unless
    `out_column` is given."""
    if not 0.0 <= p_lo < p_hi <= 1.0:
        raise ValueError(f"winsorize: need 0 <= p_lo < p_hi <= 1, "
                         f"got ({p_lo}, {p_hi})")
    q = exact_global_quantiles(ds, value_column, [p_lo, p_hi])
    lo, hi = float(q["value"].iloc[0]), float(q["value"].iloc[1])
    out = out_column or value_column

    def clip(t: pa.Table) -> pa.Table:
        v = pc.cast(t[value_column], pa.float64())
        c = pc.min_element_wise(pc.max_element_wise(v, lo), hi)
        if out in t.column_names:
            i = t.column_names.index(out)
            return t.set_column(i, out, c)
        return t.append_column(out, c)

    return ds.map_batches(clip, batch_format="pyarrow")


def moments_by_group(ds, key_column: str, value_column: str):
    """Per-group skewness and excess kurtosis — the distribution-shape
    audit of a column (heavy tails / asymmetry per segment), exact to the
    population-moment definition: skew = m3/m2^1.5, kurt = m4/m2² − 3
    with m_k = avg((x − μ_g)^k).

    TWO streaming passes, zero shuffles (the big table never moves):
    pass 1 folds (key, n, Σx) partials into group means on the driver;
    pass 2 broadcasts the means and folds centered-power partials
    (Σ(x−μ)^{2,3,4}). Centered two-pass arithmetic sidesteps the raw-
    moment cancellation that makes one-pass x⁴ sums useless at price
    scale, and mirrors the oracle SQL's CTE structure term for term.
    Documented assumption: the group SET is broadcast-small (dim-table
    regime); per-group row counts are unbounded. Null keys/values are
    ignored (SQL aggregate semantics); zero-variance groups emit null
    shape stats. Returns a driver-side pandas DataFrame
    (key, n, mean, skew, kurt) sorted by key."""
    import pandas as pd

    def pass1(df: pd.DataFrame) -> pd.DataFrame:
        g = df.dropna(subset=[key_column, value_column]) \
            .groupby(key_column, sort=False)[value_column]
        agg = g.agg(n="count", s="sum")
        return agg.reset_index()

    sums: dict = {}
    for r in collect_rows(ds.map_batches(pass1, batch_format="pandas")):
        k = r[key_column]
        n0, s0 = sums.get(k, (0, 0.0))
        sums[k] = (n0 + int(r["n"]), s0 + float(r["s"]))
    means = {k: s / n for k, (n, s) in sums.items() if n > 0}
    ref = broadcast(means)

    def pass2(df: pd.DataFrame) -> pd.DataFrame:
        mu = ref.get()
        df = df.dropna(subset=[key_column, value_column])
        df = df[df[key_column].isin(mu)]
        c = df[value_column].to_numpy(dtype=np.float64) \
            - df[key_column].map(mu).to_numpy(dtype=np.float64)
        out = pd.DataFrame({key_column: df[key_column].to_numpy(),
                            "c2": c * c})
        out["c3"] = out["c2"] * c
        out["c4"] = out["c3"] * c
        return out.groupby(key_column, sort=False, as_index=False).sum()

    acc: dict = {}
    for r in collect_rows(ds.map_batches(pass2, batch_format="pandas")):
        k = r[key_column]
        a = acc.setdefault(k, [0.0, 0.0, 0.0])
        a[0] += float(r["c2"])
        a[1] += float(r["c3"])
        a[2] += float(r["c4"])
    rows = []
    for k in sorted(means):
        n = sums[k][0]
        s2, s3, s4 = acc.get(k, (0.0, 0.0, 0.0))
        m2, m3, m4 = s2 / n, s3 / n, s4 / n
        # zero-variance guard is RELATIVE to the mean's own fp residue:
        # a constant group centered at μ leaves c ≈ μ·1e-16 per element
        live = m2 > (1e-10 * max(1.0, abs(means[k]))) ** 2
        skew = m3 / m2 ** 1.5 if live else None
        kurt = m4 / (m2 * m2) - 3.0 if live else None
        rows.append({key_column: k, "n": n, "mean": means[k],
                     "skew": skew, "kurt": kurt})
    return pd.DataFrame(rows)


def gini_by_group(ds, key_column: str, value_column: str):
    """Per-group Gini coefficient of a non-negative value — the
    concentration/inequality audit (is spend dominated by a few rows per
    segment?). Exact rank formula on the ascending-sorted values:
    G = 2·Σ(i·x_i) / (n·Σx) − (n+1)/n, i = 1..n — tie-order invariant
    because swapping equal x values leaves Σ(i·x_i) unchanged.

    Many-small-groups regime (the grouped_quantiles shape): ONE hash(key)
    co-partition exchange, then one vectorized pandas sort + cumcount per
    partition. Documented assumption: one key's rows fit a partition.
    Null keys/values drop; negative values raise (the coefficient is
    undefined); zero-sum groups emit null."""
    import pandas as pd

    def project(t: pa.Table) -> pa.Table:
        if pc.any(pc.less(t[value_column], 0)).as_py():
            raise ValueError(
                f"gini_by_group: negative {value_column} values")
        return pa.table({key_column: t[key_column], "v": t[value_column]})

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.dropna(subset=[key_column, "v"])
        if not len(df):
            return pd.DataFrame({key_column: [], "n": [], "gini": []})
        df = df.sort_values([key_column, "v"], kind="mergesort")
        g = df.groupby(key_column, sort=False)
        i = g.cumcount().to_numpy(dtype=np.float64) + 1.0
        df = df.assign(ix=i * df["v"].to_numpy(dtype=np.float64))
        agg = df.groupby(key_column, sort=False).agg(
            n=("v", "count"), s=("v", "sum"), six=("ix", "sum"))
        n = agg["n"].to_numpy(dtype=np.float64)
        s = agg["s"].to_numpy(dtype=np.float64)
        gini = np.where(s > 0,
                        2.0 * agg["six"].to_numpy() / (n * np.where(
                            s > 0, s, 1.0)) - (n + 1.0) / n,
                        np.nan)
        return pd.DataFrame({key_column: agg.index,
                             "n": agg["n"].to_numpy(dtype=np.int64),
                             "gini": gini})

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def autocorr_by_key(ds, key_column: str, order_columns: tuple,
                    value_column: str, lag: int = 1):
    """Per-key lag-k autocorrelation of an ordered series — the
    persistence/seasonality audit of per-entity time series (SQL
    `corr(v, lag(v, k) OVER (PARTITION BY key ORDER BY ...))`). Sample
    Pearson correlation over the (v_t, v_{t−k}) pairs within each key.

    Many-small-groups regime: ONE hash(key) co-partition exchange, one
    vectorized pandas sort + groupby-shift + corr per partition.
    Documented assumption: one key's rows fit a partition. Order ties
    must be broken by the trailing order columns for determinism. Keys
    with < lag+2 rows or zero variance in either paired slice emit null
    (SQL corr semantics). Returns (key, n_pairs, autocorr)."""
    import pandas as pd

    if lag < 1:
        raise ValueError(f"autocorr_by_key: lag={lag}")
    order = list(order_columns)

    def project(t: pa.Table) -> pa.Table:
        cols = {key_column: t[key_column], "v": t[value_column]}
        for c in order:
            cols[c] = t[c]
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.dropna(subset=[key_column, "v"])
        if not len(df):
            return pd.DataFrame({key_column: [], "n_pairs": [],
                                 "autocorr": []})
        df = df.sort_values([key_column, *order], kind="mergesort")
        g = df.groupby(key_column, sort=False)
        df = df.assign(pv=g["v"].shift(lag))
        paired = df.dropna(subset=["pv"]).assign(
            vv=lambda d: d["v"] * d["v"], pp=lambda d: d["pv"] * d["pv"],
            vp=lambda d: d["v"] * d["pv"])
        agg = paired.groupby(key_column, sort=False).agg(
            n=("v", "count"), sv=("v", "sum"), sp=("pv", "sum"),
            svv=("vv", "sum"), spp=("pp", "sum"), svp=("vp", "sum"))
        if not len(agg):
            return pd.DataFrame({key_column: [], "n_pairs": [],
                                 "autocorr": []})
        n = agg["n"].to_numpy(dtype=np.float64)
        sv, sp = agg["sv"].to_numpy(), agg["sp"].to_numpy()
        cov = agg["svp"].to_numpy() - sv * sp / n
        var_v = agg["svv"].to_numpy() - sv * sv / n
        var_p = agg["spp"].to_numpy() - sp * sp / n
        denom = np.sqrt(np.maximum(var_v, 0.0) * np.maximum(var_p, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0),
                         np.nan)
        return pd.DataFrame({
            key_column: agg.index,
            "n_pairs": agg["n"].to_numpy(dtype=np.int64),
            "autocorr": r})

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, key_column)


def discretize_quantile(ds, column: str, k: int, *,
                        out_column: str = "bucket"):
    """Equal-frequency discretization: bucket a numeric column into `k`
    bins by its EXACT global quantile cutpoints (feature binning for
    models and stratified reporting). Cutpoints come from
    `exact_global_quantiles` (distributed selection — no global sort),
    broadcast once; the assignment is one vectorized searchsorted per
    batch (bucket = #cutpoints <= v, so ties at a cutpoint land in the
    upper bin, matching the SQL ``count(*) WHERE c <= v`` idiom
    bit-for-bit since both sides share identical cutpoint doubles).
    NULL/NaN rows pass through with a NULL bucket; -inf/+inf bucket to
    0 / k-1 like any value, as in SQL. Streams — the labeled Dataset is
    returned lazily."""
    if k < 2:
        raise ValueError(f"discretize_quantile: k={k}")
    if out_column == column:
        raise ValueError("discretize_quantile: out_column collides")
    qs = [i / k for i in range(1, k)]
    cuts = exact_global_quantiles(ds, column, qs)["value"] \
        .to_numpy(dtype=np.float64)
    if np.isnan(cuts).any():
        raise ValueError(f"discretize_quantile: column {column!r} "
                         "is empty")

    def assign(t: pa.Table) -> pa.Table:
        col = t[column]
        v = np.asarray(col.to_numpy(zero_copy_only=False), dtype=np.float64)
        b = np.searchsorted(cuts, v, side="right").astype(np.int32)
        missing = np.isnan(v) | ~np.asarray(
            pc.is_valid(col).to_numpy(zero_copy_only=False), dtype=bool)
        arr = pa.array(b, mask=missing)
        return t.append_column(out_column, arr)

    return ds.map_batches(assign, batch_format="pyarrow")
