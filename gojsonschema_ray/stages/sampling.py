"""Deterministic hash-based sampling / dataset splitting.

A 100 TB training-data pipeline needs REPRODUCIBLE sampling: the same row
must land in the same split on every run, on every worker, with no
coordination — so membership is a pure function of the row's key, not of
RNG state, row order, or block boundaries (Ray Data's random_sample() is
none of those things). gojsonschema has no analog (single-document engine);
this generalizes "which documents do I validate" the way stages/uniqueness
generalizes uniqueItems (SURVEY.md §2.6).

The hash is Knuth multiplicative hashing on the integer key:

    h(k) = (k * 2654435761) mod 2**32          (2654435761 = ⌊2^32/φ⌋)

chosen over a cryptographic or library hash because it is (a) vectorizable
as two numpy ops per batch, (b) exactly replicable in ANSI SQL
(``(key * 2654435761) % 4294967296``) so the driver's DuckDB oracle checks
the sample EXACTLY, and (c) well-mixing for the low bits that the threshold
test uses. Fractions map to disjoint half-open threshold bands so
``hash_split(ds, k, [0.8, 0.1, 0.1])`` yields provably disjoint,
jointly-exhaustive splits.

Scale shape: membership is a per-batch Arrow filter — no shuffle, no
driver state, composes with column pruning at the read.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

KNUTH = np.uint64(2654435761)
MOD = np.uint64(1) << np.uint64(32)


def hash_bucket_u32(keys: np.ndarray, salt: int = 0) -> np.ndarray:
    """(key + salt) * 2654435761 mod 2^32 as uint64 — the membership hash.

    Keys must be non-negative integers (ids); NaN (a nullable int column
    arrives as float64+NaN), non-integral or negative keys raise instead of
    silently diverging from the documented SQL replica
    ``(k*2654435761)%4294967296`` — mask nulls BEFORE hashing (as
    `_band_filter` does). `salt` decorrelates independent samples over the
    same key column."""
    k = np.asarray(keys)
    if k.dtype.kind == "f":
        if np.isnan(k).any():
            raise ValueError(
                "hash_bucket_u32: NaN keys (nulls?) — mask them first")
        if (k != np.floor(k)).any():
            raise ValueError(
                "hash_bucket_u32: non-integer keys break the SQL replica")
    if k.dtype.kind != "u" and k.size and int(k.min()) < 0:
        raise ValueError(
            "hash_bucket_u32: negative keys break the SQL replica "
            "((k*2654435761)%4294967296) — offset or cast upstream")
    k = k.astype(np.uint64, copy=False) + np.uint64(salt)
    return (k * KNUTH) & (MOD - np.uint64(1))


def _band_filter(batch: pa.Table, column: str, lo: int, hi: int,
                 salt: int) -> pa.Table:
    col = batch[column]
    has_nulls = (col.null_count if hasattr(col, "null_count") else 0) > 0
    if has_nulls:  # fill BEFORE hashing: NaN->uint64 is undefined
        nulls = np.asarray(pc.is_null(col).to_numpy(zero_copy_only=False))
        keys = np.asarray(pc.fill_null(col, 0).to_numpy(zero_copy_only=False))
    else:
        keys = np.asarray(col.to_numpy(zero_copy_only=False))
    h = hash_bucket_u32(keys, salt)
    mask = (h >= np.uint64(lo)) & (h < np.uint64(hi))
    if has_nulls:
        mask &= ~nulls
    return batch.filter(pa.array(mask))


def hash_sample(ds, column: str, fraction: float, *, salt: int = 0):
    """Rows whose key hashes below ``fraction`` of the 32-bit space.

    Deterministic: the same key is always in/out for a given (fraction,
    salt); growing the fraction only ADDS rows (nested samples), so a 1%
    smoke sample is a strict subset of the 10% eval sample. Null keys are
    dropped (membership of an unknown key is undefined).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    hi = int(round(fraction * float(MOD)))
    return ds.map_batches(
        lambda t: _band_filter(t, column, 0, hi, salt),
        batch_format="pyarrow")


def hash_split(ds, column: str, fractions: list[float], *, salt: int = 0):
    """Split into len(fractions) disjoint datasets by threshold bands.

    ``fractions`` must sum to <= 1.0 (any remainder is simply unassigned —
    useful for "80/10/10 of a 50% subsample"). Each returned Dataset is an
    independent lazy pipeline over the same input; consume them separately.
    """
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")
    if sum(fractions) > 1.0 + 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)} > 1")
    edges = np.cumsum([0.0] + list(fractions))
    bounds = [int(round(e * float(MOD))) for e in edges]
    outs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        outs.append(ds.map_batches(
            lambda t, lo=lo, hi=hi: _band_filter(t, column, lo, hi, salt),
            batch_format="pyarrow"))
    return outs


def stratified_sample(ds, group_column: str, key_column: str,
                      n_per_group: int, *, salt: int = 0):
    """Deterministic n-per-group sample: each group keeps the `n_per_group`
    rows whose keys hash LOWEST — per-group membership is a pure function of
    the key (same guarantees as hash_sample: run-, order- and
    partitioning-independent, SQL-replicable), unlike a per-group RNG draw.

    Composition: one per-batch pass appends the Knuth hash, then
    topk.grouped_top_k does per-batch local heads + ONE hash(group)
    exchange of <= groups-per-batch x n rows. The key breaks hash ties so
    the ordering is total. Null keys are dropped (same as hash_sample:
    membership of an unknown key is undefined). Returns the input columns
    + `sample_h`."""
    from .topk import grouped_top_k

    if "sample_h" in (group_column, key_column):
        raise ValueError("grouped_sample_k: column name 'sample_h' is "
                         "reserved")

    def add_h(t: pa.Table) -> pa.Table:
        col = t[key_column]
        if (col.null_count if hasattr(col, "null_count") else 0) > 0:
            t = t.filter(pc.is_valid(col))  # before hashing: NaN->u64 raises
        keys = np.asarray(t[key_column].to_numpy(zero_copy_only=False))
        h = hash_bucket_u32(keys, salt).astype(np.int64)
        return t.append_column("sample_h", pa.array(h))

    with_h = ds.map_batches(add_h, batch_format="pyarrow")
    return grouped_top_k(with_h, group_column,
                         [("sample_h", "ascending"),
                          (key_column, "ascending")],
                         n_per_group)


def group_counts(ds, group_column: str) -> dict:
    """Exact per-group row counts via combiner-first partials: each batch
    emits its own (group, n) value-counts table (at most one row per group
    per batch), the driver folds the small partials — no groupby shuffle.
    Built for LOW-cardinality grouping columns (language, source, domain
    tier); the driver holds one counter per distinct group. Null groups are
    counted under None."""
    from ..util import collect_rows

    def partial(t: pa.Table) -> pa.Table:
        vc = t[group_column].combine_chunks().value_counts()
        return pa.table({"g": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    counts: dict = {}
    for row in collect_rows(ds.map_batches(partial, batch_format="pyarrow")):
        counts[row["g"]] = counts.get(row["g"], 0) + int(row["n"])
    return counts


def resample_by_group(ds, group_column: str, key_column: str,
                      alpha: float, *, salt: int = 0, counts: dict = None):
    """Temperature-based corpus resampling: subsample each group so kept
    counts follow n_g^alpha (the multilingual training-mix recipe — XLM-R /
    mT5 style: alpha<1 flattens the distribution toward rare groups,
    alpha=1 is a no-op, alpha=0 targets uniform counts). Acceptance is the
    engine's deterministic SQL-replicable Knuth-hash threshold, so the
    resample is reproducible row-for-row and nested in alpha.

    Per-group acceptance rate: u_g = n_g^(alpha-1), rate_g = u_g / max(u)
    (the largest-rate group keeps everything; subsampling can only remove
    rows). Thresholds are floor(rate_g * 2^32) — floor, not round, so the
    SQL replica (``CAST(floor(r*4294967296.0) AS BIGINT)``) is unambiguous.

    Scale shape: ONE combiner-first counting pass (driver holds one int per
    group — low-cardinality groups only), then a pure per-batch filter with
    the (group -> threshold) map shipped in the task closure; no shuffle.
    `ds` is consumed twice (count + filter) — pass a re-readable pipeline
    (a fresh read) or a materialized Dataset, or supply `counts` from a
    prior `group_counts` call. Rows with null group or null key are dropped
    (membership of an unknown key is undefined, as in hash_sample).

    Returns (filtered_ds, rates) where rates maps group -> acceptance
    fraction for audit."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if counts is None:
        counts = group_counts(ds, group_column)
    counts = {g: n for g, n in counts.items() if g is not None and n > 0}
    if not counts:
        raise ValueError("resample_by_group: no non-null groups")
    groups = sorted(counts)
    u = {g: float(counts[g]) ** (alpha - 1.0) for g in groups}
    umax = max(u.values())
    rates = {g: u[g] / umax for g in groups}
    thresholds = {g: int(np.floor(rates[g] * float(MOD))) for g in groups}

    def filt(t: pa.Table) -> pa.Table:
        gcol, kcol = t[group_column], t[key_column]
        valid = pc.and_(pc.is_valid(gcol), pc.is_valid(kcol))
        if pc.any(pc.invert(valid)).as_py():
            t = t.filter(valid)
            gcol, kcol = t[group_column], t[key_column]
        if t.num_rows == 0:
            return t
        enc = gcol.combine_chunks().dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):  # pyarrow version-dependent
            enc = enc.chunk(0) if enc.num_chunks else \
                pa.array([], pa.string()).dictionary_encode()
        thr_by_code = np.array(
            [thresholds.get(v, 0) for v in enc.dictionary.to_pylist()] or [0],
            np.uint64)
        codes = np.asarray(enc.indices.to_numpy(zero_copy_only=False))
        keys = np.asarray(kcol.to_numpy(zero_copy_only=False))
        h = hash_bucket_u32(keys, salt)
        return t.filter(pa.array(h < thr_by_code[codes]))

    return ds.map_batches(filt, batch_format="pyarrow"), rates


def weighted_sample(ds, key_column: str, weight_column: str, *,
                    salt: int = 0, w_max: float | None = None):
    """Weight-proportional deterministic sampling (importance sampling for
    corpus construction — keep high-quality / long / rare documents more
    often): a row is kept iff hash(key) < floor(w / w_max · 2^32), so
    acceptance probability is w/w_max and membership stays a pure function
    of (key, weight) — run-, order- and partitioning-independent, and
    exactly SQL-replicable (the double arithmetic `w / w_max * 2^32` is
    mirrored operation-for-operation). The max-weight row is always kept.

    w_max defaults to one cheap max-partial pass over `ds` (pass it
    explicitly to avoid consuming a non-re-readable pipeline twice). Rows
    with null key or null weight are dropped; negative weights raise
    (membership would be undefined). Returns the filtered Dataset."""
    if w_max is None:
        from ..util import collect_rows
        mx = None
        for r in collect_rows(ds.map_batches(
                lambda t: pa.table({"m": pa.array(
                    [pc.max(t[weight_column]).as_py()], pa.float64())}),
                batch_format="pyarrow")):
            if r["m"] is not None:
                mx = r["m"] if mx is None else max(mx, r["m"])
        w_max = mx
    if w_max is None or not np.isfinite(w_max) or w_max <= 0:
        raise ValueError(f"weighted_sample: bad w_max {w_max!r}")
    w_max = float(w_max)

    def filt(t: pa.Table) -> pa.Table:
        valid = pc.and_(pc.is_valid(t[key_column]),
                        pc.is_valid(t[weight_column]))
        if pc.any(pc.invert(valid)).as_py():
            t = t.filter(valid)
        if t.num_rows == 0:
            return t
        w = np.asarray(t[weight_column].to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        if (w < 0).any():
            raise ValueError("weighted_sample: negative weights")
        keys = np.asarray(t[key_column].to_numpy(zero_copy_only=False))
        h = hash_bucket_u32(keys, salt)
        thr = np.floor(w / w_max * float(MOD)).astype(np.uint64)
        return t.filter(pa.array(h < thr))

    return ds.map_batches(filt, batch_format="pyarrow")


def global_sample_k(ds, key_column: str, k: int, *, salt: int = 0
                    ) -> pa.Table:
    """Deterministic global sample of EXACTLY min(k, n) rows: the k rows
    whose keys hash LOWEST (key breaks hash ties, so the order is total).
    The fixed-count complement of hash_sample's fixed-rate band — same
    guarantees (run-, order- and partitioning-independent, SQL-replicable
    as ``ORDER BY (key*2654435761)%4294967296, key LIMIT k``) without
    needing to know n to pick a rate. Null keys are dropped.

    Scale shape: one streaming pass of per-block top-k partials + a
    blocks x k driver merge (stages/topk.global_top_k) — no shuffle, no
    reservoir coordination. Returns the input columns + `sample_h`."""
    from .topk import global_top_k

    def add_h(t: pa.Table) -> pa.Table:
        col = t[key_column]
        if (col.null_count if hasattr(col, "null_count") else 0) > 0:
            t = t.filter(pc.is_valid(col))
        keys = np.asarray(t[key_column].to_numpy(zero_copy_only=False))
        h = hash_bucket_u32(keys, salt).astype(np.int64)
        return t.append_column("sample_h", pa.array(h))

    return global_top_k(ds.map_batches(add_h, batch_format="pyarrow"),
                        [("sample_h", "ascending"),
                         (key_column, "ascending")], k)


def mix_corpora(sources: list, key_column: str, rates: list[float], *,
                source_names: list[str] | None = None,
                source_column: str = "source", salt_base: int = 1000):
    """Weighted deterministic corpus mixing — the training-mix op: sample
    each source at its own rate and union into one stream, each row tagged
    with its source. Rates are exact threshold bands of the engine's
    SQL-replicable Knuth hash, so the mix is reproducible row-for-row (and
    nested: raising one source's rate only ADDS its rows).

    Each source samples with its own salt (salt_base + index) so the same
    key appearing in two sources is decided independently. Sources must
    already share a schema (project before mixing). Scale shape: pure
    per-batch filters, no shuffle, no driver state; note Ray unions
    re-execute a SHARED lazy upstream per branch — feed distinct reads or
    materialize the common parent first."""
    if len(sources) != len(rates):
        raise ValueError("mix_corpora: one rate per source")
    if source_names is not None and len(source_names) != len(sources):
        raise ValueError("mix_corpora: one name per source")
    names = source_names or [f"s{i}" for i in range(len(sources))]
    if source_column in (key_column,):
        raise ValueError(f"mix_corpora: {source_column!r} collides with "
                         "the key column")

    tagged = []
    for i, (src, rate, name) in enumerate(zip(sources, rates, names)):
        sampled = hash_sample(src, key_column, rate, salt=salt_base + i)
        tagged.append(sampled.map_batches(
            lambda t, _n=name: t.append_column(
                source_column, pa.array([_n] * t.num_rows, pa.string())),
            batch_format="pyarrow"))
    out = tagged[0]
    for t in tagged[1:]:
        out = out.union(t)
    return out


def grouped_sample_k(ds, group_column: str, key_column: str, k: int, *,
                     salt: int = 0):
    """Deterministic BALANCED sample: exactly min(k, n_g) rows PER GROUP —
    the k lowest (hash, key) rows of each group. The class-balancing op of
    a curation pipeline (cap every language/source at k rows) with
    hash_sample's guarantees: run-, order- and partitioning-independent,
    SQL-replicable as ``QUALIFY row_number() OVER (PARTITION BY g ORDER BY
    (key*2654435761)%4294967296, key) <= k``. Null keys are dropped; null
    groups form their own group (matching SQL PARTITION BY).

    Scale shape: composition of the membership hash with
    topk.grouped_top_k — per-batch local per-group head-k bounds the
    exchange at groups-per-batch x k rows, ONE hash(group) co-partition
    shuffle, exact per-group head(k). Returns input columns + `sample_h`."""
    from .topk import grouped_top_k

    def add_h(t: pa.Table) -> pa.Table:
        col = t[key_column]
        if (col.null_count if hasattr(col, "null_count") else 0) > 0:
            t = t.filter(pc.is_valid(col))
        keys = np.asarray(t[key_column].to_numpy(zero_copy_only=False))
        h = hash_bucket_u32(keys, salt).astype(np.int64)
        return t.append_column("sample_h", pa.array(h))

    return grouped_top_k(ds.map_batches(add_h, batch_format="pyarrow"),
                         group_column,
                         [("sample_h", "ascending"),
                          (key_column, "ascending")], k)
