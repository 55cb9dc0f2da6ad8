"""Deduplication operators for training-data pipelines — `uniqueItems`
generalized from one row's list to corpus scope.

- **exact**: hash-partitioned group-by on the normalized text (or its hash at
  scale) → keep-first / emit duplicate groups.
- **near-duplicates**: a signature stage emits fixed-width (key, id) rows —
  MinHash LSH bands, SimHash 16-bit bands, hyperplane-LSH buckets,
  deletion-1 neighborhoods (``fuzzy_pairs_ed1``) or token prefixes
  (``jaccard_token_join``) — and ONE keyed exchange colocates each bucket
  (``pairs_by_partition``). Every bucket expands through ``_bucket_pairs``:
  all pairs up to a cap, star pairs against the min id above it.
  SimHash and embeddings score their pairs right there (hamming, cosine).
  The text operators (MinHash n-gram Jaccard, edit distance ≤ 1, token-set
  Jaccard, and ``MinHashIndex.probe``) hand their candidate pairs to one
  verify step, ``_verify_candidates``: Bloom-filtered text fetch
  (``_pair_texts``), one exchange keyed on the pair, a vectorized pair
  collation and the operator's pair score.
- **clusters**: connected components over verified pairs, then keep one
  document per cluster.

All stages follow the partial/shuffle-small pattern: per-batch map work is
vectorized numpy; group-bys exchange fixed-width keys, never documents.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..util import list_column_to_matrix
from .exchange import broadcast, exchange

_LOG = logging.getLogger(__name__)

_MERSENNE = np.uint64((1 << 61) - 1)

#: Buckets larger than this emit STAR pairs (every member vs the bucket's min
#: id) instead of all-pairs — O(g) rows instead of O(g²). One degenerate LSH
#: bucket (e.g. a million identical docs) would otherwise expand to ~5·10¹¹
#: pairs. Coverage caveat: star links every member through ONE
#: representative, which is exact for the common degenerate case (identical/
#: boilerplate content — every star edge passes the verify), but a capped
#: bucket of merely-similar docs loses pairs whose similarity to the
#: representative falls below the verify threshold. The fallback is LOGGED,
#: never silent — raise the cap (or pre-collapse exact duplicates) if a
#: logged bucket matters.
DEFAULT_BUCKET_CAP = 512


def _hash_strings(values) -> np.ndarray:
    return pd.util.hash_array(np.asarray(values, dtype=object)).astype(np.uint64)


# -- byte-free char-k-gram hashing ------------------------------------------
# Character k-grams used to be built as one Python string object per position
# (grams.extend(t[j:j+k] ...)) — the interpreter-bound step of the two most
# expensive text pipelines (minhash signatures, n-gram decontamination).
# gram_hashes_batch replaces that with a zero-object pipeline: the batch's
# text is concatenated ONCE, decoded to a uint32 codepoint array (UTF-32, so
# gram boundaries match Python/SQL CHARACTER semantics, not UTF-8 bytes),
# polynomial-hashed with k vectorized passes, finalized with a splitmix64
# mixer, and windows crossing document boundaries are masked out.

_GRAM_BASE = np.uint64(0x100000001B3)  # FNV-1a 64-bit prime as poly base
_SM_1 = np.uint64(0xBF58476D1CE4E5B9)  # splitmix64 finalizer constants
_SM_2 = np.uint64(0x94D049BB133111EB)


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized in-place over a uint64 array."""
    h ^= h >> np.uint64(30)
    h *= _SM_1
    h ^= h >> np.uint64(27)
    h *= _SM_2
    h ^= h >> np.uint64(31)
    return h


def gram_hashes_batch(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Char-k-gram hashes for a whole batch with NO per-gram Python objects.

    Returns ``(hashes, seg)``: ``hashes[seg[i]:seg[i+1]]`` are texts[i]'s
    per-position gram hashes in position order (duplicates kept — callers
    np.unique when they need sets). None/short texts contribute zero grams.

    Peak temporaries are ~24 bytes per batch character (uint64 codepoints +
    hashes + doc-id repeat), ~40× smaller than the Python-string gram list
    this replaces; Ray's block sizing bounds batch characters."""
    n = len(texts)
    lens = np.fromiter(((len(t) if t else 0) for t in texts),
                       dtype=np.int64, count=n)
    seg = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(lens - k + 1, 0), out=seg[1:])
    total = int(lens.sum())
    if seg[-1] == 0:
        return np.zeros(0, dtype=np.uint64), seg
    full = "".join(t or "" for t in texts)
    cp = np.frombuffer(full.encode("utf-32-le"), dtype=np.uint32) \
        .astype(np.uint64)
    n_pos = total - k + 1
    h = np.zeros(n_pos, dtype=np.uint64)
    for j in range(k):
        h *= _GRAM_BASE
        h += cp[j:j + n_pos]
    h = _mix64(h)
    # a window starting at p stays within one doc iff chars p and p+k-1
    # belong to the same doc
    did = np.repeat(np.arange(n, dtype=np.int64), lens)
    valid = did[:n_pos] == did[k - 1:]
    return np.ascontiguousarray(h[valid]), seg


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------
def exact_duplicate_groups(ds, column: str, by_hash: bool = False):
    """(value|hash, n) for values occurring more than once.

    by_hash=True groups on a 64-bit content hash instead of the raw value —
    the at-scale mode (shuffle rows shrink to 8 bytes/key); collisions are
    ~n²/2⁶⁴ and can be re-verified within groups.

    Same coarse-partition exchange as stages/uniqueness.py: per-batch partial
    counts, one exchange keyed on the value, vectorized per-partition
    totals."""
    from .uniqueness import KeyCountStage, aggregate_key_counts

    if by_hash:
        stage = KeyCountStage("h")

        def project(t: pa.Table) -> pa.Table:
            h = _hash_strings(t[column].to_pandas())
            return stage(pa.table({"h": pa.array(h.astype(np.int64))}))

        partials = ds.map_batches(project, batch_format="pyarrow")
        key = "h"
    else:
        partials = ds.map_batches(KeyCountStage(column), batch_format="pyarrow")
        key = column
    return aggregate_key_counts(partials, key, min_count=2)


def dedup_exact(ds, column: str, id_column: str):
    """Keep-first exact dedup: one representative id per distinct value.

    Same coarse-partition exchange as the count paths: per-batch min-id
    partials (associative), one exchange keyed on the value, vectorized
    per-partition min; returns the surviving (column, id) Dataset."""
    def project(t: pa.Table) -> pa.Table:
        return t.select([column, id_column]).group_by(column) \
            .aggregate([(id_column, "min")]) \
            .rename_columns([column, id_column])

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(column, as_index=False, sort=False)[id_column].min()

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, column)


def dedup_exact_rows(ds, column: str, id_column: str,
                     salt_buckets: int = 8, hot_keys: set | None = None):
    """Keep-first exact dedup returning the FULL surviving rows (payload
    rides the shuffle, co-located by value) — the skew-aware payload variant
    of dedup_exact (which only exchanges (value, min_id) partials).

    A hot value (e.g. an empty/boilerplate text at 10%+ of the corpus) would
    pin its whole payload on one partition; uniqueness.top_hot_keys samples
    the skew up front and uniqueness.add_salted_key spreads hot values over
    `salt_buckets` sub-buckets. Each sub-bucket emits a local survivor; the
    global survivor per hot value resolves in a driver-side second pass
    bounded by len(hot) × salt_buckets rows — never the corpus."""
    from .uniqueness import add_salted_key, top_hot_keys

    hot = top_hot_keys(ds, column) if hot_keys is None else set(hot_keys)

    def project(t: pa.Table) -> pa.Table:
        return add_salted_key(t, column, hot, salt_buckets)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        idx = df.groupby(column, sort=False, dropna=False)[id_column].idxmin()
        return df.loc[idx].drop(columns=["_shuffle_key"])

    survivors = exchange(ds.map_batches(project, batch_format="pyarrow"),
                         per_part, "_shuffle_key")
    if not hot:
        return survivors
    survivors = survivors.materialize()  # consumed twice below
    hot_non_null = [k for k in hot if k is not None]
    hot_arr = pa.array(hot_non_null) if hot_non_null else None
    null_is_hot = None in hot

    def hot_filter(t: pa.Table) -> pa.Table:
        m = None
        if hot_arr is not None:
            m = pc.is_in(t[column], value_set=hot_arr)
        if null_is_hot:  # a null hot value is salted too; second pass must see it
            nulls = pc.is_null(t[column])
            m = nulls if m is None else pc.or_kleene(m, nulls)
        return t.select([column, id_column]).filter(
            pc.fill_null(m, False))

    from ..util import collect_rows

    hot_rows = collect_rows(survivors.map_batches(hot_filter,
                                                  batch_format="pyarrow"))
    best: dict = {}
    for r in hot_rows:
        cur = best.get(r[column])
        if cur is None or r[id_column] < cur:
            best[r[column]] = r[id_column]
    losers = sorted({r[id_column] for r in hot_rows} - set(best.values()))
    if not losers:
        return survivors
    loser_arr = pa.array(losers)
    return survivors.map_batches(
        lambda t: t.filter(pc.invert(pc.is_in(t[id_column],
                                              value_set=loser_arr))),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------
def shingles(text: str, k: int = 5) -> np.ndarray:
    """Character k-gram shingle hash set (uint64, sorted unique)."""
    if not text or len(text) < k:
        return np.zeros(0, dtype=np.uint64)
    h, _ = gram_hashes_batch([text], k)
    return np.unique(h)


class MinHasher:
    """num_perm universal-hash permutations h'=(a*h+b) mod p, vectorized."""

    def __init__(self, num_perm: int = 128, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
        self.num_perm = num_perm

    def signature(self, shingle_hashes: np.ndarray) -> np.ndarray:
        if len(shingle_hashes) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        # (P, S) matrix of permuted hashes → min over shingles
        h = shingle_hashes[None, :]
        vals = (self.a[:, None] * h + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1)


class MinHashLSHStage:
    """map_batches payload: doc → `bands` rows of (key, id), where key packs
    (band_index, band_bucket_hash) into one int64 — a single fixed-width
    shuffle key per row.

    Ships as a task-pool INSTANCE by default (permutation tables are cheap
    to pickle, so the read fuses into the stage); usable as an actor pool
    where per-actor reuse matters.

    Signatures for the whole batch are computed in ONE vectorized pass:
    all shingle grams of the batch are hashed together, permuted per
    hash-function chunk, and per-doc minima come from segmented
    ``np.minimum.reduceat`` — no per-document Python loop in the hot path.
    Duplicate shingles within a doc are left in place (the min is unchanged,
    so the per-doc ``np.unique`` of the textbook formulation is skipped)."""

    def __init__(self, text_column: str, id_column: str, num_perm: int = 128,
                 bands: int = 16, shingle_k: int = 5, seed: int = 42,
                 perm_chunk: int = 32):
        assert num_perm % bands == 0
        self.text_column = text_column
        self.id_column = id_column
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_k = shingle_k
        self.hasher = MinHasher(num_perm, seed)
        self.perm_chunk = perm_chunk  # bounds the (chunk × n_shingles) temp

    #: grams per compute slice — bounds the (perm_chunk × slice) uint64
    #: temporary to ~32 MB. Large fresh allocations are pathologically slow
    #: on first touch in VM environments (measured here: a one-shot 215 MB
    #: temp cost ~50 s of page faults vs ~1 s warm), so the permute buffer is
    #: preallocated once and reused across slices and perm chunks.
    GRAM_SLICE = 1 << 17

    def signatures(self, texts: list) -> np.ndarray:
        """(n_docs, num_perm) uint64 signature matrix for a list of texts."""
        h, seg = gram_hashes_batch(texts, self.shingle_k)
        n = len(texts)
        P = self.hasher.num_perm
        sigs = np.full((n, P), np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(h) == 0:
            return sigs
        nonempty = np.diff(seg) > 0
        doc_idx = np.nonzero(nonempty)[0]
        starts_ne = seg[:-1][nonempty]
        ends_ne = seg[1:][nonempty]
        # slice boundaries on whole-doc granularity (a doc longer than the
        # slice budget gets its own slice)
        cuts = [0]
        acc = 0
        for d in range(len(doc_idx)):
            glen = int(ends_ne[d] - starts_ne[d])
            if acc and acc + glen > self.GRAM_SLICE:
                cuts.append(d)
                acc = 0
            acc += glen
        cuts.append(len(doc_idx))
        buf = None
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            g0, g1 = int(starts_ne[s0]), int(ends_ne[s1 - 1])
            hs = h[g0:g1]
            m = len(hs)
            if buf is None or buf.shape[1] < m:
                buf = np.empty((self.perm_chunk, m), dtype=np.uint64)
            rel_starts = starts_ne[s0:s1] - g0
            rows = doc_idx[s0:s1]
            for p0 in range(0, P, self.perm_chunk):
                a = self.hasher.a[p0:p0 + self.perm_chunk]
                b = self.hasher.b[p0:p0 + self.perm_chunk]
                w = buf[:len(a), :m]
                np.multiply(a[:, None], hs[None, :], out=w)
                np.add(w, b[:, None], out=w)
                np.mod(w, _MERSENNE, out=w)
                red = np.minimum.reduceat(w, rel_starts, axis=1)
                sigs[rows, p0:p0 + len(a)] = red.T
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        ids = batch[self.id_column]
        sigs = self.signatures(texts)
        # docs with no shingles (len < k) have no signature: banding them
        # would collide EVERY such doc into one all-max bucket (quadratic
        # candidate blowup on short-text corpora) — they are skipped, like
        # excluding empty sets from Jaccard candidacy
        has_sig = ~(sigs == np.iinfo(np.uint64).max).all(axis=1)
        if not has_sig.all():
            keep = np.nonzero(has_sig)[0]
            sigs = sigs[keep]
            ids = ids.take(pa.array(keep, type=pa.int64()))
        n = len(sigs)
        if n == 0:
            return pa.table({"key": pa.array([], pa.int64()),
                             self.id_column: ids})
        # bucket-hash each band row of every doc in one structured-view pass
        band_rows = np.ascontiguousarray(sigs.reshape(n * self.bands, self.rows_per_band))
        buckets = pd.util.hash_array(
            band_rows.view([("", np.uint64)] * self.rows_per_band).ravel()
        ).astype(np.uint64)
        band_idx = np.tile(np.arange(self.bands, dtype=np.uint64), n)
        key = ((band_idx << np.uint64(48))
               ^ (buckets & np.uint64(0x0000FFFFFFFFFFFF))).astype(np.int64)
        id_rep = ids.take(pa.array(np.repeat(np.arange(n), self.bands), type=pa.int64()))
        return pa.table({"key": pa.array(key), self.id_column: id_rep})


def _bucket_pairs(ids: np.ndarray, cap: int = DEFAULT_BUCKET_CAP):
    """Index pairs ``(iu, ju)``, ``iu < ju``, of one bucket's sorted unique
    `ids`, and whether the bucket was capped: all pairs (np.triu_indices)
    up to `cap` members, star pairs against the min id ``ids[0]`` above it
    (see DEFAULT_BUCKET_CAP), logged. So ``ids[iu] < ids[ju]``."""
    n = len(ids)
    if n > cap and n > 1:
        _LOG.warning("LSH bucket of %d ids exceeds cap %d: emitting %d star "
                     "pairs (min-id representative) instead of %d all-pairs",
                     n, cap, n - 1, n * (n - 1) // 2)
        return np.zeros(n - 1, np.int64), np.arange(1, n, dtype=np.int64), \
            True
    iu, ju = np.triu_indices(n, k=1)
    return iu, ju, False


def _pairs_from_groups(group: pd.DataFrame, id_column: str,
                       cap: int = DEFAULT_BUCKET_CAP) -> pd.DataFrame:
    """Within-bucket pair expansion (_bucket_pairs) of one bucket's ids.

    Star-fallback pairs carry capped=True so downstream consumers can detect
    degraded bucket coverage from the returned dataset itself (any(capped) ⇒
    at least one bucket exceeded the cap) instead of scraping worker logs."""
    dt = group[id_column].dtype
    ids = np.unique(np.asarray(group[id_column].to_numpy()))  # sorted unique
    iu, ju, capped = _bucket_pairs(ids, cap)
    return pd.DataFrame({"id_a": pd.Series(ids[iu], dtype=dt),
                         "id_b": pd.Series(ids[ju], dtype=dt),
                         "capped": pd.Series(
                             np.full(len(iu), capped), dtype="bool")})


def pairs_by_partition(sig_ds, bucket_fn):
    """ONE exchange of `sig_ds` (a Dataset or a list of them) keyed on the
    `key` column into shuffle_width() coarse partitions, then a
    per-partition pandas groupby('key') applies `bucket_fn` to each bucket
    with ≥2 rows.

    This is the scale shape for bucket-local pair generation: the shuffle
    moves every (fixed-width) signature row exactly once, and Python/Ray
    per-group overhead is paid once per PARTITION (≈ #CPUs), not once per
    bucket (≈ #docs). `bucket_fn(empty_df)` must return a typed empty frame
    so partitions with no pairs keep the schema."""
    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("key", sort=False):
            if len(g) >= 2:
                p = bucket_fn(g)
                if len(p):
                    outs.append(p)
        return pd.concat(outs, ignore_index=True) if outs \
            else bucket_fn(df.iloc[:0])

    return exchange(sig_ds, per_partition, "key")


def unique_pairs(pairs_ds):
    """Deduplicate (id_a, id_b) pair rows found in several bands/tables.

    Ray's sort-based groupby has a high fixed cost over many distinct keys
    (measured here: 205 s for 480 k rows / 30 k pair keys), so this uses the
    engine's coarse-partition pattern instead: ONE exchange keyed on the
    (id_a, id_b) pair into ~#CPU partitions, vectorized pandas drop_duplicates
    per partition (~1 s for the same input). Extra columns (jaccard, hamming,
    cosine) are carried through — duplicate rows of one pair carry identical
    values, so keeping the first is exact. The one exception is the `capped`
    audit flag, which CAN differ across bands (a pair seen in both a capped
    star-fallback bucket and an uncapped bucket): it's resolved as
    any(capped) by keeping the capped row first, so coverage detection is
    deterministic."""
    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        if "capped" in df.columns:
            # any(capped) per pair: stable sort floats capped=True rows to
            # the front; other carried columns are identical per pair
            df = df.sort_values("capped", ascending=False, kind="stable")
        return df.drop_duplicates(subset=["id_a", "id_b"])

    return exchange(pairs_ds, per_part, ["id_a", "id_b"])


def hot_bucket_keys(sig_ds, key: str = "key") -> pa.Array:
    """Keys of buckets with ≥2 members — the pigeonhole prefilter.

    Counted on the key-count exchange (uniqueness.KeyCountStage partials,
    aggregate_key_counts) and collected to the driver for broadcast:
    near-duplicates are SPARSE in a real corpus, so the hot-key set is
    orders of magnitude smaller than the corpus (documented partitioning
    assumption; for a degenerate corpus where most buckets collide, skip the
    prefilter and map_groups everything)."""
    from .uniqueness import KeyCountStage, aggregate_key_counts

    hot = aggregate_key_counts(
        sig_ds.map_batches(KeyCountStage(key), batch_format="pyarrow"),
        key, min_count=2)
    chunks = [b[key] for b in hot.iter_batches(batch_format="pyarrow")]
    return pa.concat_arrays([c.combine_chunks() if isinstance(c, pa.ChunkedArray)
                             else c for c in chunks]) if chunks \
        else pa.array([], pa.int64())


def _minhash_candidates(ds, text_column: str, id_column: str,
                        num_perm: int, bands: int, shingle_k: int,
                        bucket_cap: int):
    """(signature rows, candidate pair rows) of MinHash LSH; a pair found
    in several bands repeats. The signature stage ships as a task-pool
    INSTANCE (permutation tables are cheap to pickle), so Ray fuses the
    read into the stage and every CPU shares read + shingling dynamically
    — same lesson as the flagship's fused checker."""
    stage = MinHashLSHStage(text_column=text_column, id_column=id_column,
                            num_perm=num_perm, bands=bands,
                            shingle_k=shingle_k)
    sigs = ds.map_batches(stage, batch_format="pyarrow")
    return sigs, pairs_by_partition(
        sigs, lambda g: _pairs_from_groups(g, id_column, cap=bucket_cap))


def minhash_candidate_pairs(ds, text_column: str, id_column: str,
                            num_perm: int = 128, bands: int = 16,
                            shingle_k: int = 5,
                            bucket_cap: int = DEFAULT_BUCKET_CAP):
    """Candidate near-dup id pairs from LSH buckets.

    Scale shape: the signature stage emits one fixed-width (key, id) row per
    band per doc; ONE coarse-partition keyed shuffle colocates buckets; pair
    expansion runs vectorized per partition (pairs_by_partition). The same
    pair found in several bands is collapsed with a second (small) exchange.

    `bucket_cap` is a RECALL knob: buckets larger than it emit star pairs
    (every member linked through the bucket-min representative) instead of
    all-pairs, which preserves full recall for identical-content buckets but
    can miss A~B links in a capped bucket of merely-similar docs. Such pairs
    carry capped=True in the returned dataset, so `any(capped)` detects
    degraded coverage without scraping worker logs; raise the cap to trade
    memory for recall."""
    _, pairs = _minhash_candidates(ds, text_column, id_column, num_perm,
                                   bands, shingle_k, bucket_cap)
    return unique_pairs(pairs)


def ngram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    sa, sb = shingles(text_a or "", k), shingles(text_b or "", k)
    if len(sa) == 0 and len(sb) == 0:
        return 1.0
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0


def _candidate_id_bloom(pairs_ds, n_pairs: int, fp_rate: float = 1e-3):
    """Fixed-size Bloom filter over candidate-pair doc ids.

    The pair ids stream through the driver once to OR into the bitmap —
    O(bitmap) driver memory regardless of candidate density (the bitmap is
    sized from the pair count, ~1.8 KB per 1k ids at 0.1% fp). A false
    positive only lets a stray non-candidate text ride the shuffle; it can
    never drop a candidate. Ids are hashed in their ORIGINAL dtype (same
    caveat as integrity.build_key_set): probe-side hashing must see the same
    dtype."""
    from .sketches import hash_arrow_array

    from .integrity import BloomFilter

    bloom = BloomFilter(capacity=max(1024, 2 * n_pairs), fp_rate=fp_rate)
    for b in pairs_ds.iter_batches(batch_format="pyarrow"):
        for col in ("id_a", "id_b"):
            bloom.add_hashes(hash_arrow_array(b[col]))
    return bloom


def _pair_texts(ds, pairs_ds, text_column: str, id_column: str):
    """Distributed text fetch for candidate pairs — NO driver text/pair
    materialization (the round-1 `id2text` driver dict was the 100 TB
    blocker).

    1. broadcast a Bloom of candidate ids (`ray.put` once) and filter the
       corpus to (likely-)candidate texts inside map_batches;
    2. co-partition filtered texts with pair SIDE rows (two per pair) on
       hash(doc_id) — ONE keyed shuffle in which candidate texts ride once —
       and attach each side's text in a per-partition dict join.

    Returns a Dataset of (id_a, id_b, jid, text): two rows per surviving
    pair, one per side."""
    from .sketches import hash_arrow_array

    n_pairs = pairs_ds.count()
    bloom_ref = broadcast(_candidate_id_bloom(pairs_ds, n_pairs))

    def text_rows(t: pa.Table) -> pa.Table:
        bloom = bloom_ref.get()
        ids = t[id_column]
        keep = np.nonzero(bloom.contains_hashes(hash_arrow_array(ids)))[0]
        idx = pa.array(keep, type=pa.int64())
        ids_k = ids.take(idx)
        # kind=0 text row: id_a/id_b carry jid so every column stays non-null
        # (nullable int ids would round-trip through pandas as float64 and
        # lose precision above 2^53)
        return pa.table({
            "kind": pa.array(np.zeros(len(keep), dtype=np.int8)),
            "jid": ids_k,
            "id_a": ids_k,
            "id_b": ids_k,
            "text": t[text_column].take(idx),
        })

    def side_rows(t: pa.Table) -> pa.Table:
        jid = pa.concat_arrays([
            c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
            for c in (t["id_a"], t["id_b"])])
        n = t.num_rows
        idx = pa.array(np.concatenate([np.arange(n)] * 2), type=pa.int64())
        id_a = t["id_a"].take(idx)
        id_b = t["id_b"].take(idx)
        return pa.table({
            "kind": pa.array(np.ones(2 * n, dtype=np.int8)),
            "jid": jid,
            "id_a": id_a,
            "id_b": id_b,
            "text": pa.nulls(2 * n, pa.string()),
        })

    texts = ds.map_batches(text_rows, batch_format="pyarrow")
    sides = pairs_ds.map_batches(side_rows, batch_format="pyarrow")

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        is_text = df["kind"].to_numpy() == 0
        lookup = dict(zip(df.loc[is_text, "jid"], df.loc[is_text, "text"]))
        s = df[~is_text]
        return pd.DataFrame({
            "id_a": s["id_a"].to_numpy(),
            "id_b": s["id_b"].to_numpy(),
            "jid": s["jid"].to_numpy(),
            "text": pd.Series(s["jid"].map(lookup).to_numpy(), dtype="object"),
        })

    return exchange([texts, sides], attach, "jid")


def _no_pairs(sigs, id_column: str, **columns):
    """An empty near-dup result: (id_a, id_b) typed like `id_column` of the
    Arrow signature rows `sigs` (null type when there are none), then the
    empty arrays `columns`."""
    import ray.data as rd

    schema = sigs.schema()
    id_type = schema.base_schema.field(id_column).type if schema \
        else pa.null()
    return rd.from_arrow(pa.table({"id_a": pa.array([], id_type),
                                   "id_b": pa.array([], id_type),
                                   **columns}))


def _verify_candidates(ds, cand, sigs, text_column: str, id_column: str,
                       name: str, score):
    """The one verify step of the text near-dup operators: candidate pairs
    `cand` (a Dataset with ``id_a``/``id_b`` columns; copies found in
    several buckets allowed) → their texts from corpus `ds` (_pair_texts)
    → ONE exchange keyed on the pair → per partition a vectorized
    collation → ``score(texts_a, texts_b) -> (values, keep)`` (symmetric,
    over two object arrays). Returns (id_a, id_b, `name`) rows where keep
    holds.

    Collation: drop the side rows repeated by bucket copies, sort by
    (id_a, id_b, jid); a pair with both texts is exactly two adjacent rows,
    and each side's text is the row whose jid equals it — the pair need not
    be ordered (MinHashIndex.probe pairs a corpus id with a new id). No
    per-pair pandas groupby: its fixed cost was measured at ~0.4 ms/pair.

    The id type follows the pair rows; an empty result takes it from the
    Arrow signature rows `sigs` (_no_pairs)."""
    # Arrow blocks for the Bloom build and the side rows: materializing the
    # pandas blocks as they come made documents_jaccard_join ~3 s slower
    pairs = cand.map_batches(lambda t: t.select(["id_a", "id_b"]),
                             batch_format="pyarrow").materialize()
    if pairs.count() == 0:
        none = np.array([], dtype=object)
        return _no_pairs(sigs, id_column,
                         **{name: pa.array(score(none, none)[0])})

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(subset=["id_a", "id_b", "jid"]) \
            .sort_values(["id_a", "id_b", "jid"], kind="stable")
        ia, ib = df["id_a"].to_numpy(), df["id_b"].to_numpy()
        first = np.ones(len(df), dtype=bool)
        first[1:] = (ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])
        starts = np.nonzero(first)[0]
        s2 = starts[np.diff(np.append(starts, len(df))) == 2]
        texts = df["text"].to_numpy()
        a_first = df["jid"].to_numpy()[s2] == ia[s2]
        values, keep = score(np.where(a_first, texts[s2], texts[s2 + 1]),
                             np.where(a_first, texts[s2 + 1], texts[s2]))
        return pd.DataFrame({"id_a": ia[s2][keep], "id_b": ib[s2][keep],
                             name: values[keep]})

    return exchange(_pair_texts(ds, pairs, text_column, id_column), verify,
                    ["id_a", "id_b"])


def _ngram_jaccard_at(threshold: float, k: int):
    """_verify_candidates score: n-gram Jaccard ≥ `threshold`."""
    def score(ta, tb):
        j = np.fromiter((ngram_jaccard(a, b, k) for a, b in zip(ta, tb)),
                        dtype=np.float64, count=len(ta))
        return j, j >= threshold
    return score


def minhash_near_duplicates(ds, text_column: str, id_column: str, *,
                            threshold: float = 0.7, num_perm: int = 128,
                            bands: int = 16, shingle_k: int = 5,
                            bucket_cap: int = DEFAULT_BUCKET_CAP):
    """Full near-dup pipeline: LSH candidates → distributed exact Jaccard
    verify. Returns a Dataset of (id_a, id_b, jaccard) pairs ≥ threshold.

    `bucket_cap` bounds per-bucket pair expansion (recall knob — see
    minhash_candidate_pairs); use the candidate API's `capped` column to
    audit coverage when tuning it.

    Scale shape (no driver materialization anywhere):
    1. signature + banding: ONE fixed-width keyed shuffle (see
       minhash_candidate_pairs);
    2. text fetch + verify (_verify_candidates): Bloom-broadcast corpus
       filter + ONE hash(doc_id) co-partition shuffle — only candidate
       texts move — then ONE hash(pair) shuffle of (pair, side, text) rows,
       Jaccard computed per pair, thresholded there.

    Pairs found in several bands are NOT deduplicated up front: the verify
    step already groups on the pair key — the same hash(pair) partition
    collates every copy and emits one row — so a dedicated unique_pairs
    exchange would be a fourth all-to-all that buys nothing (measured
    ~1.5 s fixed cost at sf0.1). The only cost of carrying dups is
    ≤2·(bands−1) extra fixed-width side rows per duplicated pair riding
    shuffles 2–3."""
    sigs, cand = _minhash_candidates(ds, text_column, id_column, num_perm,
                                     bands, shingle_k, bucket_cap)
    return _verify_candidates(ds, cand, sigs, text_column, id_column,
                              "jaccard", _ngram_jaccard_at(threshold,
                                                           shingle_k))


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------
def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (term-frequency weighted).

    Scalar reference implementation — the hot path is ``simhash64_batch``
    (one vectorized pass over a whole batch); parity between the two is
    property-tested (tests/test_functions.py)."""
    if not text:
        return 0
    toks = text.split()
    if not toks:
        return 0
    uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
    h = pd.util.hash_array(uniq).astype(np.uint64)
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
    acc = ((bits * 2 - 1) * counts[:, None]).sum(axis=0)
    out = np.uint64(0)
    for b in np.nonzero(acc > 0)[0]:
        out |= np.uint64(1) << np.uint64(b)
    return int(out)


#: tokens per compute slice — bounds the (slice × 64) uint8 bit-plane temp to
#: ~16 MB (same first-touch rationale as MinHashLSHStage.GRAM_SLICE).
_SIMHASH_TOK_SLICE = 1 << 18


def simhash64_batch(texts: list) -> np.ndarray:
    """(n_docs,) uint64 SimHash signatures in one vectorized pass.

    Equivalent to ``[simhash64(t or "") for t in texts]``: per-bit
    accumulation of ±1 over every token INSTANCE (the scalar's
    unique+counts weighting is the same sum, just factored), done as one
    ``pd.util.hash_array`` over the batch's flat token list, a
    little-endian bit unpack, and a per-doc segmented ``np.add.reduceat``
    — no per-document Python in the signature hot path."""
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    flat: list[str] = []
    seg = np.zeros(n + 1, dtype=np.int64)
    for i, t in enumerate(texts):
        toks = (t or "").split()
        flat.extend(toks)
        seg[i + 1] = len(flat)
    if not flat:
        return out
    h = _hash_strings(flat)
    lens = np.diff(seg)
    nonempty = lens > 0
    doc_idx = np.nonzero(nonempty)[0]
    starts_ne = seg[:-1][nonempty]
    # per-bit set-count S per doc: acc = 2S - n_toks, bit set iff acc > 0
    S = np.empty((len(doc_idx), 64), dtype=np.int64)
    # slice on whole-doc granularity to bound the uint8 bit-plane temp
    cut = 0
    while cut < len(doc_idx):
        hi = cut
        tok0 = int(starts_ne[cut])
        while hi < len(doc_idx):
            end = int(seg[doc_idx[hi] + 1])
            if hi > cut and end - tok0 > _SIMHASH_TOK_SLICE:
                break
            hi += 1
        tok1 = int(seg[doc_idx[hi - 1] + 1])
        hs = np.ascontiguousarray(h[tok0:tok1])
        bits = np.unpackbits(hs.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")  # (toks, 64), col j = bit j
        S[cut:hi] = np.add.reduceat(bits, starts_ne[cut:hi] - tok0, axis=0,
                                    dtype=np.int64)
        cut = hi
    bitset = (2 * S) > lens[nonempty][:, None]
    powers = np.uint64(1) << np.arange(64, dtype=np.uint64)
    out[doc_idx] = (bitset.astype(np.uint64) * powers[None, :]).sum(
        axis=1, dtype=np.uint64)
    return out


class SimHashStage:
    """doc → 4 rows of (key, id, simhash): key packs (band_index, 16-bit band
    value) so ALL four pigeonhole bands ride ONE keyed shuffle instead of four
    re-executions of the signature stage."""

    def __init__(self, text_column: str, id_column: str):
        if id_column == "key":  # synthetic shuffle-key column
            raise ValueError("DeletionNeighborhoodStage: id_column 'key' "
                             "is reserved")
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        n = len(texts)
        hashes = simhash64_batch(texts)
        keys = np.empty(4 * n, dtype=np.int64)
        for band in range(4):
            chunk = (hashes >> np.uint64(band * 16)) & np.uint64(0xFFFF)
            keys[band * n:(band + 1) * n] = (band << 16) | chunk.astype(np.int64)
        idx = pa.array(np.tile(np.arange(n), 4), type=pa.int64())
        return pa.table({
            "key": pa.array(keys),
            self.id_column: batch[self.id_column].take(idx),
            "simhash": pa.array(np.tile(hashes.astype(np.int64), 4)),
        })


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


def simhash_near_duplicates(ds, text_column: str, id_column: str,
                            max_hamming: int = 3,
                            bucket_cap: int = DEFAULT_BUCKET_CAP):
    """Near-dup pairs with hamming(simhash) <= max_hamming (<=3 guaranteed
    found by the 4×16-bit band pigeonhole). Returns a Dataset of
    (id_a, id_b, hamming, capped) — pairs found in several bands are
    deduplicated by a small pair-keyed groupby, never a driver-side set.
    capped=True marks pairs from buckets over `bucket_cap` (star fallback —
    recall knob, see minhash_candidate_pairs).

    One signature pass, ONE coarse-partition keyed shuffle, vectorized
    per-partition pair expansion (same scale shape as
    minhash_candidate_pairs)."""
    sig = ds.map_batches(SimHashStage(text_column, id_column),
                         batch_format="pyarrow")
    grouped = pairs_by_partition(
        sig, lambda g: _simhash_band_pairs(g, id_column, max_hamming,
                                           cap=bucket_cap))
    # the same pair carries the same hamming in every band — unique_pairs'
    # keep-first is exact
    return unique_pairs(grouped)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(x).astype(np.int32)
    v = np.ascontiguousarray(x, dtype=np.uint64)
    return np.unpackbits(v.view(np.uint8)).reshape(len(v), 64) \
        .sum(axis=1).astype(np.int32)


def _simhash_band_pairs(group: pd.DataFrame, id_column: str,
                        max_hamming: int,
                        cap: int = DEFAULT_BUCKET_CAP) -> pd.DataFrame:
    """Vectorized hamming verify inside one band bucket: XOR over the
    _bucket_pairs indices + popcount. For identical docs (the degenerate
    capped case) hamming via the star representative still links every
    member at distance 0."""
    dt = group[id_column].dtype
    g = group[[id_column, "simhash"]].drop_duplicates(subset=id_column) \
        .sort_values(id_column)
    ids = g[id_column].to_numpy()
    h = g["simhash"].to_numpy().astype(np.int64).view(np.uint64)
    iu, ju, capped = _bucket_pairs(ids, cap)
    d = _popcount64(h[iu] ^ h[ju])
    keep = d <= max_hamming
    return pd.DataFrame({"id_a": pd.Series(ids[iu[keep]], dtype=dt),
                         "id_b": pd.Series(ids[ju[keep]], dtype=dt),
                         "hamming": pd.Series(d[keep], dtype="int32"),
                         "capped": pd.Series(
                             np.full(int(keep.sum()), capped), dtype="bool")})


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------
class HyperplaneLSHStage:
    """Multi-table random-hyperplane LSH: `n_tables` independent tables of
    `n_planes` hyperplanes each. A near-dup pair is a candidate if it shares
    a bucket in ANY table — a single unlucky hyperplane near the pair can't
    hide it (single-table LSH misses ~n_planes·θ/π of true pairs).
    Fixed seed → identical planes on every worker.

    Emits (key, id[, embedding]) with key packing (table, bucket) — one
    fixed-width int64 shuffle key. `with_embedding=False` (the hot-bucket
    scan pass) keeps the shuffle payload at 16 bytes/row; the second pass
    re-attaches embeddings for hot-bucket rows only."""

    def __init__(self, embedding_column: str, id_column: str, dim: int,
                 n_planes: int = 8, n_tables: int = 4, seed: int = 42,
                 with_embedding: bool = True):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_tables, dim, n_planes))
        self.n_tables = n_tables
        self.embedding_column = embedding_column
        self.id_column = id_column
        self.with_embedding = with_embedding

    def keys(self, emb: np.ndarray) -> np.ndarray:
        """(n_tables * n_rows,) packed int64 keys, table-major."""
        n = emb.shape[0]
        out = np.empty(self.n_tables * n, dtype=np.int64)
        weights = 1 << np.arange(self.planes.shape[2])
        for t in range(self.n_tables):
            signs = (emb @ self.planes[t]) > 0
            bk = signs @ weights
            out[t * n:(t + 1) * n] = (t << 32) | bk.astype(np.int64)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.embedding_column]
        emb = list_column_to_matrix(col)
        n = batch.num_rows
        keys = self.keys(emb)
        idx = pa.array(np.tile(np.arange(n), self.n_tables), type=pa.int64())
        cols = {
            "key": pa.array(keys),
            self.id_column: batch[self.id_column].take(idx),
        }
        if self.with_embedding:
            cols[self.embedding_column] = col.take(idx)
        return pa.table(cols)


def embedding_near_duplicates(ds, embedding_column: str, id_column: str,
                              dim: int, threshold: float = 0.95,
                              n_planes: int = 8, n_tables: int = 4,
                              bucket_cap: int = DEFAULT_BUCKET_CAP):
    """Cosine near-dup pairs within multi-table hyperplane-LSH buckets.

    Two passes so the wide embedding vectors never ride the full shuffle:
    pass 1 shuffles 16-byte (key, count) partials to find hot buckets;
    pass 2 re-buckets, keeps only hot-bucket rows WITH their embeddings, and
    computes within-bucket pairwise cosine via one numpy matmul per group.
    Pairs found in several tables are deduplicated by a final groupby.

    Buckets over `bucket_cap` fall back to star pairs against the min-id
    member (_bucket_pairs; cosine of the representative vs every other
    member), marked capped=True — same recall knob as
    minhash_candidate_pairs; identical-embedding degenerate buckets keep
    full recall through the representative."""
    kwargs = dict(embedding_column=embedding_column, id_column=id_column,
                  dim=dim, n_planes=n_planes, n_tables=n_tables)
    # task-pool instances (hyperplanes are cheap to pickle): the read fuses
    # into each pass and all CPUs share read + bucketing
    scan = ds.map_batches(
        HyperplaneLSHStage(**kwargs, with_embedding=False),
        batch_format="pyarrow",
    )
    hot = hot_bucket_keys(scan)
    if len(hot) == 0:
        return _no_pairs(scan, id_column,
                         cosine=pa.array([], pa.float64()),
                         capped=pa.array([], pa.bool_()))
    # broadcast the hot-bucket key set (same pattern as the MinHash Bloom):
    # at duplicate-dense scale the hot set is exactly what grows, and a
    # closure-captured Array would be re-pickled into every task
    hot_ref = broadcast(hot)

    def keep_hot(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["key"], value_set=hot_ref.get()))

    bucketed = ds.map_batches(
        HyperplaneLSHStage(**kwargs, with_embedding=True),
        batch_format="pyarrow",
    ).map_batches(keep_hot, batch_format="pyarrow")

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        # sort by id so the star representative is the bucket-min member
        # and every pair comes out (min, max)
        ids = group[id_column].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        iu, ju, capped = _bucket_pairs(ids, bucket_cap)
        m = np.stack(group[embedding_column].to_numpy()[order].tolist()) \
            .astype(np.float64) if len(ids) else np.zeros((0, dim))
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        # star: O(n·dim), not the O(n²·dim) matmul
        vals = m[1:] @ m[0] if capped else (m @ m.T)[iu, ju]
        keep = vals >= threshold
        return pd.DataFrame({
            "id_a": pd.Series(ids[iu[keep]], dtype=group[id_column].dtype),
            "id_b": pd.Series(ids[ju[keep]], dtype=group[id_column].dtype),
            "cosine": pd.Series(vals[keep], dtype="float64"),
            "capped": pd.Series(np.full(int(keep.sum()), capped), dtype="bool"),
        })

    found = pairs_by_partition(bucketed, pairs)
    # the same pair carries the same cosine in every table — unique_pairs'
    # keep-first is exact
    return unique_pairs(found)


# ---------------------------------------------------------------------------
# near-dup clustering (connected components over verified pairs)
# ---------------------------------------------------------------------------
def _cc_labels(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized connected components over an edge list.

    Returns (nodes, root) where root[i] is the minimum node id of nodes[i]'s
    component. Min-label propagation with pointer jumping — each round is
    pure numpy (gather, np.minimum.at scatter-min, label[label] jump), and
    the jump halves chain depth so rounds are O(log n), never a per-edge
    Python loop. np.unique sorts nodes, so index order == id order and the
    index-space minimum maps back to the id-space minimum."""
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[: len(u)], inv[len(u):]
    label = np.arange(len(nodes), dtype=np.int64)
    while True:
        m = np.minimum(label[ui], label[vi])
        new = label.copy()
        np.minimum.at(new, ui, m)
        np.minimum.at(new, vi, m)
        new = new[new]  # pointer jump
        if np.array_equal(new, label):
            break
        label = new
    return nodes, nodes[label]


def near_dup_clusters(pairs_ds, id_a: str = "id_a", id_b: str = "id_b", *,
                      driver_cap: int = 5_000_000):
    """Connected components over verified near-dup pairs: the canonical
    "keep one document per duplicate cluster" step after minhash / simhash /
    embedding dedup. Returns a Dataset of (doc_id, cluster_id) for every id
    that appears in a pair, cluster_id = the component's minimum id (so
    keep = doc_id == cluster_id, drop the rest).

    Scale shape (the corpus never moves — only the duplicate GRAPH, which is
    pair-count sized):
    1. ONE hash(pair) coarse-partition exchange; each partition runs the
       vectorized local CC over its edges and emits (node, local_root)
       mappings — ≤ 2 rows per edge.
    2. ONE hash(node) exchange groups a node's mappings: its minimum root
       becomes its mapping row, and each additional distinct root becomes a
       root-equivalence edge (components that span partitions).
    3. The CONTRACTED equivalence edges — cross-partition component links
       only, not pairs — resolve on the driver with the same numpy kernel;
       the root→final dict broadcasts via ray.put into a final label pass.
    The driver-side graph is bounded by how many components straddle
    partitions; driver_cap guards the degenerate case with a logged
    overflow (raise it, or pre-collapse exact duplicates first — identical
    docs are the bulk of real dup mass and collapse in step 1)."""
    import ray.data as rd

    from ..util import collect_rows

    def edges(t: pa.Table) -> pa.Table:
        return pa.table({"u": t[id_a], "v": t[id_b]})

    def local_cc(df: pd.DataFrame) -> pd.DataFrame:
        nodes, roots = _cc_labels(df["u"].to_numpy(), df["v"].to_numpy())
        return pd.DataFrame({"node": nodes, "root": roots})

    mapping = exchange(pairs_ds.map_batches(edges, batch_format="pyarrow"),
                       local_cc, ["u", "v"])

    def per_node(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["node", "root"])
        mn = d.groupby("node", sort=False)["root"].transform("min")
        is_min = d["root"].to_numpy() == mn.to_numpy()
        m = d.loc[is_min].drop_duplicates("node")
        eq = d.loc[~is_min]
        return pd.DataFrame({
            "kind": np.concatenate([np.zeros(len(m), np.int8),
                                    np.ones(len(eq), np.int8)]),
            "a": np.concatenate([m["node"].to_numpy(),
                                 mn.loc[eq.index].to_numpy()]),
            "b": np.concatenate([m["root"].to_numpy(),
                                 eq["root"].to_numpy()]),
        })

    grouped = exchange(mapping, per_node, "node") \
        .materialize()  # consumed twice: equivalence edges + label pass
    if grouped.count() == 0:
        empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                              "cluster_id": pd.Series([], dtype="int64")})
        return rd.from_pandas(empty)

    eq_rows = collect_rows(grouped.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 1)).select(["a", "b"]),
        batch_format="pyarrow"))
    if len(eq_rows) > driver_cap:
        _LOG.warning(
            "near_dup_clusters: %d cross-partition equivalence edges exceed "
            "driver_cap=%d — resolving anyway; raise the cap or pre-collapse "
            "exact duplicates to shrink the contracted graph",
            len(eq_rows), driver_cap)
    froot: dict = {}
    if eq_rows:
        eu = np.array([r["a"] for r in eq_rows])
        ev = np.array([r["b"] for r in eq_rows])
        nodes, roots = _cc_labels(eu, ev)
        froot = {n: r for n, r in zip(nodes.tolist(), roots.tolist())
                 if n != r}
    froot_ref = broadcast(froot)

    def finalize(t: pa.Table) -> pa.Table:
        f = froot_ref.get()
        keep = t.filter(pc.equal(t["kind"], 0))
        roots = keep["b"].to_pandas()
        if f:
            roots = roots.map(lambda r: f.get(r, r))
        return pa.table({
            "doc_id": keep["a"].combine_chunks(),
            "cluster_id": pa.array(roots.to_numpy(),
                                   type=keep["b"].type
                                   if isinstance(keep["b"], pa.Array)
                                   else keep["b"].combine_chunks().type),
        })

    return grouped.map_batches(finalize, batch_format="pyarrow")


class _DropSetFilter:
    """map_batches payload: anti-filter on a broadcast id set."""

    def __init__(self, drop_ref, id_column: str):
        self.drop_ref = drop_ref
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        drops = self.drop_ref.get()
        if drops is None or len(drops) == 0:
            return batch
        hit = pc.fill_null(
            pc.is_in(batch[self.id_column], value_set=drops), False)
        return batch.filter(pc.invert(hit))


def keep_one_per_cluster(corpus, labels_ds, id_column: str):
    """End-to-end corpus dedup: keep ONE row per near-dup cluster (the
    component-min id from `near_dup_clusters`) plus every unclustered row —
    "dedup the corpus", not just label it.

    Scale shape: the drop set (clustered NON-min ids) is duplicate-count
    sized — near-duplicates are sparse in a real corpus — so it is
    collected once, `ray.put`-broadcast, and anti-filtered per batch; the
    corpus itself STREAMS, no shuffle, composable with column pruning at
    the read. Partitioning assumption (documented): #duplicates fits the
    object store; for a pathological corpus that is mostly duplicates,
    hash-join the labels instead (stages/joins.hash_join_shuffle
    how="anti")."""
    from ..util import collect_table

    drops_t = collect_table(labels_ds.map_batches(
        lambda t: t.select(["doc_id"]).filter(
            pc.not_equal(t["doc_id"], t["cluster_id"])),
        batch_format="pyarrow"))
    drop_arr = drops_t["doc_id"].combine_chunks() if drops_t.num_rows else None
    return corpus.map_batches(_DropSetFilter(broadcast(drop_arr), id_column),
                              batch_format="pyarrow")


# ---------------------------------------------------------------------------
# fuzzy pairs at edit distance <= 1 (SymSpell-style deletion neighborhood)
# ---------------------------------------------------------------------------
_B_INV = np.uint64(pow(int(_GRAM_BASE), -1, 1 << 64))  # _GRAM_BASE is odd


def deletion_key_hashes_batch(texts) -> tuple[np.ndarray, np.ndarray]:
    """uint64 content hashes of each text's deletion-1 neighborhood,
    vectorized over the whole batch with NO per-position Python strings
    (same discipline as gram_hashes_batch).

    Returns ``(hashes, seg)``: ``hashes[seg[i]:seg[i+1]]`` are texts[i]'s
    ``1 + len(texts[i])`` keys — the hash of the full string followed by
    the hash of the string with position j deleted, for every j. Two
    strings within edit distance 1 ALWAYS share a key (SymSpell d=1
    soundness: equal → full hashes match; one substitution at j → both
    delete-at-j keys match; one insertion → the longer side's delete key
    matches the shorter side's full hash), so bucketing on these keys is
    a lossless blocking scheme for ed<=1 — collisions only add candidates
    (the verifier is exact).

    Hash algebra: polynomial hash H(s) = sum (c_i+1)*B^i mod 2^64 with odd
    B, so B is invertible mod 2^64 and any substring hash re-bases with a
    precomputed inverse-power table; a deletion hash is then
    prefix + B^j * shifted-suffix — one vectorized expression over ALL
    (string, position) pairs of the batch at once. splitmix64-finalized."""
    n = len(texts)
    lens = np.fromiter(((len(t) if t else 0) for t in texts),
                       dtype=np.int64, count=n)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    T = int(offs[-1])
    seg = offs + np.arange(n + 1, dtype=np.int64)  # +1 full-hash key per text
    out = np.zeros(n + T, dtype=np.uint64)
    if T == 0:  # all-empty batch: every key is hash(empty) == mix64(0)
        return _mix64(out), seg
    full = "".join(t or "" for t in texts)
    cp = np.frombuffer(full.encode("utf-32-le"), dtype=np.uint32) \
        .astype(np.uint64) + np.uint64(1)
    powB = np.ones(T + 1, dtype=np.uint64)
    powB[1:] = _GRAM_BASE
    np.multiply.accumulate(powB, out=powB)          # B^0..B^T (wraps mod 2^64)
    powI = np.ones(T + 1, dtype=np.uint64)
    powI[1:] = _B_INV
    np.multiply.accumulate(powI, out=powI)          # B^-0..B^-T
    cs = np.zeros(T + 1, dtype=np.uint64)
    np.cumsum(cp * powB[:T], out=cs[1:])            # prefix sums of c'_i B^i

    def h_sub(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hash of chars [u, v) re-based to power 0 (vectorized)."""
        return (cs[v] - cs[u]) * powI[u]

    sid = np.repeat(np.arange(n, dtype=np.int64), lens)
    g = np.arange(T, dtype=np.int64)                # global char positions
    o, e = offs[sid], offs[sid + 1]                 # string start / end
    j = g - o                                       # local position
    dels = h_sub(o, g) + powB[j] * h_sub(g + 1, e)
    full_pos = seg[:-1]
    out[full_pos] = h_sub(offs[:-1], offs[1:])
    mask = np.ones(n + T, dtype=bool)
    mask[full_pos] = False
    out[mask] = dels
    return _mix64(out), seg


class DeletionNeighborhoodStage:
    """map_batches payload: text → ``1 + len(text)`` fixed-width
    (key, id) rows keyed by the deletion-neighborhood hashes — the same
    single-shuffle candidate shape as MinHashLSHStage, with the band
    machinery (pairs_by_partition / _pairs_from_groups) reused as-is."""

    def __init__(self, text_column: str, id_column: str):
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t[self.text_column].to_pylist()
        h, seg = deletion_key_hashes_batch(texts)
        counts = np.diff(seg)
        idx = pa.array(np.repeat(np.arange(len(texts), dtype=np.int64),
                                 counts), type=pa.int64())
        return pa.table({"key": pa.array(h.view(np.int64)),
                         self.id_column: t[self.id_column].take(idx)})


def edit_distance_le1(a: str, b: str) -> int | None:
    """Exact edit distance when it is <= 1, else None — O(len) without DP
    (ed<=1 admits a direct case split on the length difference)."""
    a, b = a or "", b or ""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return None
    if la == lb:  # exactly one substitution?
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return None
                seen = True
        return 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0  # b == a with one char inserted?
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1:] else None


def fuzzy_pairs_ed1(ds, text_column: str, id_column: str, *,
                    bucket_cap: int = DEFAULT_BUCKET_CAP):
    """All id pairs whose texts are within edit distance 1 — typo-level
    entity resolution (names, titles, codes). Reference analog: corpus-scope
    generalization of `uniqueItems` to NEAR-equal strings.

    Scale shape (mirrors minhash_near_duplicates exactly):
    1. candidates: deletion-neighborhood keys (1+len rows per string, each
       a fixed-width (key, id) pair) → ONE coarse keyed shuffle →
       vectorized within-bucket pair expansion. Blocking is LOSSLESS for
       ed<=1 (see deletion_key_hashes_batch), so recall is exact up to
       `bucket_cap` (capped buckets are logged + flagged).
    2. text fetch + verify (_verify_candidates): exact ed<=1 check per
       candidate pair (O(len), no DP); duplicates from multiple shared
       keys collapse in the pair collation.

    Returns a Dataset of (id_a, id_b, dist) with dist in {0, 1}. Intended
    for SHORT strings (names/titles): a string emits len+1 key rows, so
    key-row volume is O(total characters)."""
    def score(ta, tb):
        d = np.fromiter(((-1 if (e := edit_distance_le1(a, b)) is None else e)
                         for a, b in zip(ta, tb)),
                        dtype=np.int64, count=len(ta))
        return d, d >= 0

    sigs = ds.map_batches(DeletionNeighborhoodStage(text_column, id_column),
                          batch_format="pyarrow")
    cand = pairs_by_partition(
        sigs, lambda g: _pairs_from_groups(g, id_column, cap=bucket_cap))
    return _verify_candidates(ds, cand, sigs, text_column, id_column, "dist",
                              score)


# ---------------------------------------------------------------------------
# exact set-similarity join (prefix filtering — Bayardo et al., WWW'07)
# ---------------------------------------------------------------------------
def _doc_token_hashes(col) -> tuple[np.ndarray, np.ndarray]:
    """Per-document SORTED-UNIQUE token-hash sets for a string column, in
    one vectorized pass: the engine's SQL-reproducible tokenization
    contract (trim → lower → RE2 ``\\s+`` split, same as
    functions/text.token_frequencies) → uint64 token hashes → one global
    lexsort((hash, doc)) + dedup. Returns ``(hashes, seg)`` with
    ``hashes[seg[i]:seg[i+1]]`` = doc i's set. Empty/null docs yield
    empty sets."""
    from .sketches import hash_arrow_array

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(col)
    txt = pc.utf8_lower(pc.utf8_trim_whitespace(pc.cast(col, pa.string())))
    lists = pc.split_pattern_regex(txt, r"\s+")
    lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) \
        else lists
    lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                   .astype(np.int64))
    doc_ok = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
    doc_ok &= np.asarray(pc.greater(pc.utf8_length(txt), 0)
                         .fill_null(False).to_numpy(zero_copy_only=False))
    did = np.repeat(np.arange(n, dtype=np.int64), lens)
    keep = np.repeat(doc_ok, lens)
    did = did[keep]
    h = hash_arrow_array(lists.values.filter(pa.array(keep)))
    order = np.lexsort((h, did))
    did, h = did[order], h[order]
    uniq = np.ones(len(h), dtype=bool)
    if len(h):
        uniq[1:] = (did[1:] != did[:-1]) | (h[1:] != h[:-1])
    did, h = did[uniq], h[uniq]
    seg = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(did, minlength=n), out=seg[1:])
    return h, seg


class _PrefixTokenStage:
    """map_batches payload of jaccard_token_join's candidate pass: doc →
    its PREFIX token hashes as fixed-width (key, id) rows. Prefix length
    |x| - ceil(t*|x|) + 1 under the global (df asc, hash asc) token order;
    the df table ships as a ray.put broadcast of two sorted arrays and is
    read once per task (searchsorted lookup, unseen tokens df=0 — rarer
    than rare, which only ever ADDS candidates... it cannot: df=0 never
    happens for tokens of indexed docs; it is exact for this corpus)."""

    def __init__(self, text_column: str, id_column: str, threshold: float,
                 df_ref):
        if id_column == "key":  # synthetic shuffle-key column
            raise ValueError("jaccard_token_join: id_column 'key' is "
                             "reserved")
        self.text_column = text_column
        self.id_column = id_column
        self.threshold = threshold
        self.df_ref = df_ref

    def __call__(self, t: pa.Table) -> pa.Table:
        dfh, dfc = self.df_ref.get()
        h, seg = _doc_token_hashes(t[self.text_column])
        sizes = np.diff(seg)
        n = len(sizes)
        df = dfc[np.searchsorted(dfh, h)] if len(h) else \
            np.zeros(0, dfc.dtype)
        did = np.repeat(np.arange(n, dtype=np.int64), sizes)
        order = np.lexsort((h, df, did))   # per doc: df asc, hash asc
        h_ord = h[order]
        pos = np.arange(len(h), dtype=np.int64) - np.repeat(seg[:-1], sizes)
        p = sizes - np.ceil(self.threshold * sizes).astype(np.int64) + 1
        keep = pos < np.repeat(p, sizes)
        idx = pa.array(did[keep], type=pa.int64())
        return pa.table({"key": pa.array(h_ord[keep].view(np.int64)),
                         self.id_column: t[self.id_column].take(idx)})


def jaccard_token_join(ds, text_column: str, id_column: str, *,
                       threshold: float = 0.6,
                       bucket_cap: int = DEFAULT_BUCKET_CAP,
                       max_vocab: int = 50_000_000):
    """EXACT all-pairs token-set Jaccard self-join at `threshold` — the
    prefix-filtering algorithm (Bayardo, Ma & Srikant, "Scaling Up All
    Pairs Similarity Search", WWW'07): a pair with J >= t MUST share a
    token within the first |x| - ceil(t|x|) + 1 tokens of both sides under
    any global token order (o >= t*max(|x|,|y|), so fewer than that many
    non-shared tokens can precede the smallest shared one). Rare-first
    (df ascending) ordering makes those prefix buckets the SPARSEST ones.

    Unlike minhash_near_duplicates (probabilistic recall) this is exact:
    candidates are complete by the prefix theorem, then verified with the
    true Jaccard on full token sets. Shape: df pass (combiner exchange →
    driver-collected broadcast arrays, bounded by `max_vocab` — documented
    assumption: the distinct-token table fits the object store; raise or
    shard for web-scale vocabularies), prefix pass (fixed-width (key, id)
    rows, ONE keyed shuffle), pairs_by_partition expansion, Bloom-broadcast
    text fetch, per-pair exact set intersection. Empty-token docs emit no
    keys and never pair (document `length(tokens) > 0` in oracles).
    Returns (id_a, id_b, jaccard)."""
    from ..util import collect_rows
    from .uniqueness import aggregate_key_counts

    if not 0.0 < threshold <= 1.0:
        raise ValueError(
            f"jaccard_token_join: threshold={threshold} not in (0, 1]")

    def df_partial(t: pa.Table) -> pa.Table:
        h, _ = _doc_token_hashes(t[text_column])
        uh, cnt = np.unique(h, return_counts=True)
        return pa.table({"h": pa.array(uh.view(np.int64)),
                         "cnt": pa.array(cnt.astype(np.int64))})

    df_rows = collect_rows(aggregate_key_counts(
        ds.map_batches(df_partial, batch_format="pyarrow"), "h",
        min_count=1))
    dfh = np.fromiter((r["h"] for r in df_rows), dtype=np.int64,
                      count=len(df_rows)).view(np.uint64)
    dfc = np.fromiter((r["n"] for r in df_rows), dtype=np.int64,
                      count=len(df_rows))
    if len(dfh) > max_vocab:
        raise ValueError(
            f"jaccard_token_join: {len(dfh)} distinct tokens exceed "
            f"max_vocab={max_vocab}; shard the df table or raise the cap")
    order = np.argsort(dfh)
    df_ref = broadcast((dfh[order], dfc[order]))

    sigs = ds.map_batches(
        _PrefixTokenStage(text_column, id_column, threshold, df_ref),
        batch_format="pyarrow")
    cand = pairs_by_partition(
        sigs, lambda g: _pairs_from_groups(g, id_column, cap=bucket_cap))

    def score(ta, tb):
        ha, sa = _doc_token_hashes(pa.array(ta, pa.string()))
        hb, sb = _doc_token_hashes(pa.array(tb, pa.string()))
        j = np.empty(len(ta), dtype=np.float64)
        for i in range(len(ta)):
            a, b = ha[sa[i]:sa[i + 1]], hb[sb[i]:sb[i + 1]]
            inter = len(np.intersect1d(a, b, assume_unique=True))
            union = len(a) + len(b) - inter
            j[i] = inter / union if union else 0.0
        return j, j >= threshold

    return _verify_candidates(ds, cand, sigs, text_column, id_column,
                              "jaccard", score)


# ---------------------------------------------------------------------------
# persisted LSH index — incremental near-dup ingest (build once, probe many)
# ---------------------------------------------------------------------------
class MinHashIndex:
    """Persisted MinHash-LSH index for INCREMENTAL near-dup detection: build
    the corpus's band-bucket signature table ONCE as hive-partitioned
    parquet, then probe each arriving batch against ONLY the partitions its
    own signatures touch — the dedup counterpart of IVFIndex's persisted
    inverted lists (similarity.py build_lists/search_built): partition
    pruning at the READ, so ingesting N new docs never rescans the corpus.

    Layout under `index_dir`:
      sig/  (key, id)  partitioned by band (signature band index) and
            bmod (bucket hash % `mods`) — a probe touches at most
            bands x mods directories, typically far fewer;
      txt/  (id, text) partitioned by tmod (id hash % `mods`) — the verify
            step fetches ONLY the candidate corpus texts' partitions.

    The instance (permutation tables + params) pickles for
    build-once-probe-many across jobs, like IVFIndex centroids. Same
    recall contract as minhash_near_duplicates: candidates are LSH-
    probabilistic (1-(1-j^r)^b), the Jaccard verify is exact."""

    def __init__(self, text_column: str, id_column: str, *,
                 threshold: float = 0.7, num_perm: int = 128,
                 bands: int = 16, shingle_k: int = 5, seed: int = 42,
                 mods: int = 64, bucket_cap: int = DEFAULT_BUCKET_CAP):
        if id_column == "key":
            raise ValueError("MinHashIndex: id_column 'key' is reserved")
        self.text_column = text_column
        self.id_column = id_column
        self.threshold = threshold
        self.shingle_k = shingle_k
        self.mods = mods
        self.bucket_cap = bucket_cap
        self.stage = MinHashLSHStage(text_column=text_column,
                                     id_column=id_column, num_perm=num_perm,
                                     bands=bands, shingle_k=shingle_k,
                                     seed=seed)
        self.last_probe_sig_dirs: int | None = None  # pruning observability

    # -- shared helpers ----------------------------------------------------
    def _sig_parts(self, t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False).view(np.uint64)
        band = (key >> np.uint64(48)).astype(np.int32)
        bmod = (key & np.uint64(self.mods - 1)).astype(np.int32)
        return t.append_column("band", pa.array(band)) \
            .append_column("bmod", pa.array(bmod))

    def _id_mod(self, ids) -> np.ndarray:
        from .sketches import hash_arrow_array

        return (hash_arrow_array(ids) % np.uint64(self.mods)) \
            .astype(np.int32)

    @staticmethod
    def _expand(filesystem, base: str, dirs) -> list[str]:
        from pyarrow import fs as pafs

        paths: list[str] = []
        for d in dirs:
            sel = pafs.FileSelector(f"{base}/{d}", allow_not_found=True,
                                    recursive=True)
            paths.extend(sorted(
                i.path for i in filesystem.get_file_info(sel)
                if i.type == pafs.FileType.File
                and i.path.endswith(".parquet")))
        return paths

    # -- build --------------------------------------------------------------
    def build(self, ds, index_dir: str, *, write_blocks: int = 8) -> str:
        """Materialize signature + text tables, hive-partitioned for probe-
        side pruning. `ds` streams through twice (signatures, texts).

        Hive-partitioned writes emit one file per (block, partition-value)
        pair, so an unconsolidated write explodes into #blocks files per
        directory (measured 6x slower probes from tiny-file reads);
        `write_blocks` bounds the writer block count — raise it when one
        build block would exceed worker memory."""
        sigs = ds.map_batches(self.stage, batch_format="pyarrow") \
            .map_batches(self._sig_parts, batch_format="pyarrow")
        sigs.repartition(write_blocks).write_parquet(
            f"{index_dir}/sig", partition_cols=["band", "bmod"])

        id_col, text_col = self.id_column, self.text_column

        def txt(t: pa.Table, self=self) -> pa.Table:
            return pa.table({
                id_col: t[id_col], text_col: t[text_col],
                "tmod": pa.array(self._id_mod(t[id_col]))})

        ds.map_batches(txt, batch_format="pyarrow") \
            .repartition(write_blocks) \
            .write_parquet(f"{index_dir}/txt", partition_cols=["tmod"])
        return index_dir

    # -- probe --------------------------------------------------------------
    def probe(self, new_ds, index_dir: str):
        """Near-dup pairs (id_a = corpus id, id_b = new id, jaccard) between
        `new_ds` and the built corpus, reading ONLY the signature/text
        partitions the new batch touches. `new_ds` must carry the same
        text/id columns; ids are assumed globally unique across both."""
        import ray
        from pyarrow import fs as pafs

        from ..util import collect_rows

        id_col, text_col = self.id_column, self.text_column
        sig_new = new_ds.map_batches(self.stage, batch_format="pyarrow") \
            .map_batches(self._sig_parts, batch_format="pyarrow") \
            .materialize()

        def dirs_partial(t: pa.Table) -> pa.Table:
            import pandas as pd  # noqa: F811 — worker-local

            d = pd.DataFrame({"band": t["band"].to_numpy(),
                              "bmod": t["bmod"].to_numpy()}) \
                .drop_duplicates()
            return pa.Table.from_pandas(d, preserve_index=False)

        touched = {(r["band"], r["bmod"]) for r in collect_rows(
            sig_new.map_batches(dirs_partial, batch_format="pyarrow"))}
        filesystem, base = pafs.FileSystem.from_uri(index_dir)
        sig_paths = self._expand(
            filesystem, f"{base}/sig",
            [f"band={b}/bmod={m}" for b, m in sorted(touched)])
        self.last_probe_sig_dirs = len(touched)

        if not sig_paths:
            return _no_pairs(sig_new, id_col,
                             jaccard=pa.array([], pa.float64()))
        sig_idx = ray.data.read_parquet(sig_paths, filesystem=filesystem,
                                        columns=["key", id_col])

        def side(v: int):
            def f(t: pa.Table) -> pa.Table:
                return pa.table({
                    "key": t["key"], id_col: t[id_col],
                    "side": pa.array(np.full(t.num_rows, v, np.int8))})
            return f

        both = [sig_idx.map_batches(side(0), batch_format="pyarrow"),
                sig_new.map_batches(side(1), batch_format="pyarrow")]
        cap = self.bucket_cap

        def cross_pairs(g: pd.DataFrame) -> pd.DataFrame:
            a = np.unique(g.loc[g["side"] == 0, id_col].to_numpy())
            b = np.unique(g.loc[g["side"] == 1, id_col].to_numpy())
            if len(a) * len(b) > cap * cap:
                _LOG.warning("MinHashIndex bucket %d x %d exceeds cap²: "
                             "star pairs vs min corpus id", len(a), len(b))
                a = a[:1]
            dt = g[id_col].dtype
            return pd.DataFrame({
                "id_a": pd.Series(np.repeat(a, len(b)), dtype=dt),
                "id_b": pd.Series(np.tile(b, len(a)), dtype=dt)})

        pairs = pairs_by_partition(both, cross_pairs).materialize()
        if pairs.count() == 0:
            return _no_pairs(sig_new, id_col,
                             jaccard=pa.array([], pa.float64()))

        # corpus texts: only the candidate ids' tmod partitions
        tmods = set()
        for b in pairs.iter_batches(batch_format="pyarrow"):
            tmods.update(np.unique(self._id_mod(b["id_a"])).tolist())
        txt_paths = self._expand(filesystem, f"{base}/txt",
                                 [f"tmod={m}" for m in sorted(tmods)])
        corpus_txt = ray.data.read_parquet(
            txt_paths, filesystem=filesystem, columns=[id_col, text_col])
        combined = corpus_txt.union(new_ds.map_batches(
            lambda t: t.select([id_col, text_col]),
            batch_format="pyarrow"))
        return _verify_candidates(
            combined, pairs, sig_new, text_col, id_col, "jaccard",
            _ngram_jaccard_at(self.threshold, self.shingle_k))
