"""Approximate-nearest-neighbor search over an embedding column
(`list<float>`), two tiers:

- **brute-force cosine top-k** (the exactness baseline): the query matrix is
  broadcast ONCE (`ray.put`), each batch does one numpy matmul and keeps its
  local top-k, the driver merges `blocks × k` candidates — no shuffle, scales
  linearly with corpus size.
- **IVF** (the scale path): k-means centroids trained driver-side on a
  sample, vectors assigned to inverted lists (one groupby — the only
  shuffle), queries probe the `nprobe` nearest lists only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..util import collect_rows, in_sorted, list_column_to_matrix
from .exchange import broadcast


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


class BruteForceTopKStage:
    """map_batches payload (task-pool instance): per-batch cosine top-k
    against the broadcast query matrix."""

    def __init__(self, embedding_column: str, id_column: str, queries_ref, k: int):
        self.embedding_column = embedding_column
        self.id_column = id_column
        self.queries_ref = queries_ref
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        q = self.queries_ref.get()  # (nq, d) already normalized
        if batch.num_rows == 0:  # filtered-out IVF block: keep the schema
            return pa.table({
                "query": pa.array([], pa.int32()),
                self.id_column: pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            })
        emb = _normalize(list_column_to_matrix(batch[self.embedding_column]))
        ids = batch[self.id_column].to_numpy(zero_copy_only=False)
        sim = emb @ q.T  # (n, nq)
        k = min(self.k, sim.shape[0])
        out_q, out_id, out_s = [], [], []
        for qi in range(sim.shape[1]):
            part = np.argpartition(-sim[:, qi], k - 1)[:k]
            out_q.extend([qi] * k)
            out_id.extend(ids[part].tolist())
            out_s.extend(sim[part, qi].tolist())
        return pa.table({
            "query": pa.array(out_q, pa.int32()),
            self.id_column: pa.array(out_id),
            "cosine": pa.array(out_s, pa.float64()),
        })


def ann_brute_force(ds, embedding_column: str, id_column: str,
                    queries: np.ndarray, k: int = 10,
                    concurrency: int = 4) -> pd.DataFrame:
    """Exact cosine top-k for each query row; returns a pandas DataFrame
    (query, id, cosine) sorted by (query, -cosine)."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    ref = broadcast(qn)  # ONCE; each task reads the same object
    # task-pool instance: the read fuses into the scan and all CPUs share it
    # (`concurrency` kept for API compatibility; Ray sizes the task pool)
    del concurrency
    partials = ds.map_batches(
        BruteForceTopKStage(embedding_column=embedding_column,
                            id_column=id_column, queries_ref=ref, k=k),
        batch_format="pyarrow",
    )
    return _merge_topk(partials, id_column, k)


def _merge_topk(partials, id_column: str, k: int) -> pd.DataFrame:
    """Merge block-local top-k partials on the driver: ONE vectorized pass
    (concat the blocks x k partials, sort, head(k) per query) — no
    per-candidate Python loop, so the merge stays flat as block counts
    grow 100x."""
    qs_l, ids_l, ss_l = [], [], []
    for b in partials.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        qs_l.append(b["query"].to_numpy(zero_copy_only=False))
        ids_l.append(b[id_column].to_numpy(zero_copy_only=False))
        ss_l.append(b["cosine"].to_numpy(zero_copy_only=False))
    if not qs_l:
        return pd.DataFrame(columns=["query", id_column, "cosine"])
    df = pd.DataFrame({"query": np.concatenate(qs_l),
                       id_column: np.concatenate(ids_l),
                       "cosine": np.concatenate(ss_l)})
    # ties broken by larger id, matching the previous (score, id) heap order
    df = df.sort_values(["query", "cosine", id_column],
                        ascending=[True, False, False], kind="stable")
    return df.groupby("query", sort=True).head(k).reset_index(drop=True)


class _DecontaminateStage:
    """map_batches payload: drop (or keep only) rows whose cosine vs ANY
    broadcast reference row reaches the threshold."""

    def __init__(self, ref, embedding_column: str, threshold: float,
                 mode: str):
        self.ref = ref
        self.embedding_column = embedding_column
        self.threshold = threshold
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch if self.mode == "keep" \
                else batch.append_column("top_cos",
                                         pa.array([], pa.float64()))
        R = self.ref.get()  # (r, d) normalized
        emb = _normalize(list_column_to_matrix(batch[self.embedding_column]))
        top = (emb @ R.T).max(axis=1)
        hit = top >= self.threshold
        if self.mode == "keep":
            return batch.filter(pa.array(~hit))
        return batch.filter(pa.array(hit)) \
            .append_column("top_cos", pa.array(top[hit], pa.float64()))


def decontaminate_cosine(corpus, reference, *, embedding_column: str = "embedding",
                         threshold: float = 0.95, mode: str = "keep"):
    """Cross-corpus DECONTAMINATION: remove corpus rows near-identical (by
    cosine) to any row of a reference set — the "drop training documents
    that match the eval set" staple of LLM data pipelines, here over the
    embedding column.

    The reference is the SMALL side: collected once, L2-normalized,
    `ray.put`-broadcast; every corpus batch does ONE numpy matmul against
    it and filters locally — no shuffle, the corpus streams. Partitioning
    assumption (documented): the reference matrix fits the object store
    (eval sets are thousands-to-millions of rows; for a reference too big
    to broadcast, fall back to the LSH-bucketed embedding_near_duplicates
    path). `mode="keep"` returns the clean corpus; `mode="removed"`
    returns the contaminated rows with their best reference cosine
    (`top_cos`) for audit."""
    if mode not in ("keep", "removed"):
        raise ValueError(f"decontaminate_cosine: mode={mode!r}")
    if isinstance(reference, np.ndarray):
        R = np.asarray(reference, dtype=np.float64)
    else:
        rt = reference.to_pandas()
        R = np.stack(rt[embedding_column].to_numpy()).astype(np.float64)
    ref = broadcast(_normalize(R))
    return corpus.map_batches(
        _DecontaminateStage(ref, embedding_column, threshold, mode),
        batch_format="pyarrow")


class _NgramDecontaminateStage:
    """map_batches payload: per-batch char-k-gram overlap vs the broadcast
    reference gram-hash set. All grams of the batch hash in ONE vectorized
    pass (`dedup.gram_hashes_batch` — zero Python objects per gram),
    membership is a searchsorted probe into the sorted reference array, and
    per-doc DISTINCT-hit counts come from a lexsort — no per-doc Python in
    the hot path."""

    def __init__(self, ref, text_column: str, id_column: str, k: int,
                 mode: str):
        self.ref = ref
        self.text_column = text_column
        self.id_column = id_column
        self.k = k
        self.mode = mode

    def _hit_counts(self, texts: list) -> np.ndarray:
        from .dedup import gram_hashes_batch

        ref = self.ref.get()  # sorted unique uint64 (np.unique output)
        hits = np.zeros(len(texts), dtype=np.int64)
        h, seg = gram_hashes_batch(texts, self.k)
        # membership probe into the sorted reference — no sort of h needed
        m = in_sorted(ref, h)
        if not m.any():
            return hits
        doc = np.repeat(np.arange(len(texts), dtype=np.int64), np.diff(seg))
        d, hh = doc[m], h[m]
        order = np.lexsort((hh, d))
        d, hh = d[order], hh[order]
        first = np.ones(len(d), dtype=bool)
        first[1:] = (d[1:] != d[:-1]) | (hh[1:] != hh[:-1])
        np.add.at(hits, d[first], 1)  # distinct ref-grams per doc
        return hits

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 and self.mode == "removed":
            return pa.table({self.id_column: batch[self.id_column],
                             "n_hits": pa.array([], pa.int64())})
        hits = self._hit_counts(batch[self.text_column].to_pylist())
        if self.mode == "keep":
            return batch.filter(pa.array(hits == 0))
        sel = hits > 0
        return pa.table({
            self.id_column: batch[self.id_column].filter(pa.array(sel)),
            "n_hits": pa.array(hits[sel]),
        })


def decontaminate_ngrams(corpus, reference, *, text_column: str = "text",
                         id_column: str = "doc_id", k: int = 13,
                         mode: str = "keep"):
    """N-GRAM decontamination — the GPT-3/PaLM recipe: drop corpus
    documents sharing any character k-gram with the eval/reference set
    (the exact-substring dual of `decontaminate_cosine`; k=13 is the
    published default).

    The reference is the SMALL side: its distinct gram hashes are computed
    once, sorted, `ray.put`-broadcast; every corpus batch hashes its grams
    in one vectorized pass and np.isin's them — no shuffle, the corpus
    streams. `mode="keep"` returns the clean corpus; `mode="removed"`
    returns (id, n_hits = DISTINCT reference grams found) for audit.
    Partitioning assumption (documented): the reference gram-hash set fits
    the object store (8 bytes x ~chars of eval text). Membership is via
    64-bit gram hashes — cross-set collision odds ~|ref|x|corpus| / 2^64,
    negligible (and re-verifiable by substring search on the removed set)."""
    from .dedup import shingles

    if mode not in ("keep", "removed"):
        raise ValueError(f"decontaminate_ngrams: mode={mode!r}")
    if isinstance(reference, (list, tuple)):
        texts = list(reference)
    else:
        texts = [r[text_column] for r in collect_rows(
            reference.select_columns([text_column]))]
    parts = [shingles(t, k) for t in texts if t]
    ref_hashes = np.unique(np.concatenate(parts)) if parts \
        else np.zeros(0, np.uint64)
    ref = broadcast(ref_hashes)
    return corpus.map_batches(
        _NgramDecontaminateStage(ref, text_column, id_column, k, mode),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# IVF
# ---------------------------------------------------------------------------
class IVFIndex:
    """Driver-trained k-means centroids + Ray-assigned inverted lists.

    Picklable: train once, `save()` beside the dataset, `load()` in later
    runs / other jobs (compile-once-search-many, the engine's analog of the
    reference's compile-once-validate-many amortization)."""

    def __init__(self, centroids: np.ndarray):
        self.centroids = _normalize(centroids)

    def save(self, path: str) -> None:
        import pickle

        with open(path, "wb") as f:
            pickle.dump(self.centroids, f)

    @classmethod
    def load(cls, path: str) -> "IVFIndex":
        import pickle

        with open(path, "rb") as f:
            return cls(pickle.load(f))

    @classmethod
    def train(cls, ds, embedding_column: str, n_centroids: int = 64,
              sample_limit: int = 20_000, iters: int = 10, seed: int = 42) -> "IVFIndex":
        """k-means on a seeded RANDOM sample — `ds.limit()` would train on
        the first blocks only, which biases centroids (and silently degrades
        recall) on sorted/clustered corpora, the normal case for curated
        data."""
        total = ds.count()
        if total > sample_limit:
            # no .limit() after the sample: limit() truncates in BLOCK order,
            # which would re-introduce positional bias (the dataset's tail
            # would never be sampled); the binomial size variance is fine
            sampled = ds.random_sample(sample_limit / total, seed=seed)
        else:
            sampled = ds
        sample = collect_rows(sampled)
        x = _normalize(np.stack([r[embedding_column] for r in sample]).astype(np.float64))
        rng = np.random.default_rng(seed)
        n_centroids = min(n_centroids, len(x))
        cent = x[rng.choice(len(x), n_centroids, replace=False)]
        for _ in range(iters):
            assign = (x @ cent.T).argmax(axis=1)
            for c in range(n_centroids):
                members = x[assign == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
            cent = _normalize(cent)
        return cls(cent)

    def assign_stage(self, embedding_column: str):
        centroids = self.centroids

        def assign(batch: pa.Table) -> pa.Table:
            emb = _normalize(list_column_to_matrix(batch[embedding_column]))
            lists = (emb @ centroids.T).argmax(axis=1)
            return batch.append_column("ivf_list", pa.array(lists.astype(np.int32)))

        return assign

    def probed_lists(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """Distinct inverted-list ids the query set probes (union over
        queries of each query's `nprobe` nearest centroids)."""
        qn = _normalize(np.asarray(queries, dtype=np.float64))
        probe = np.argsort(-(qn @ self.centroids.T), axis=1)[:, :nprobe]
        return np.unique(probe)

    def build_lists(self, ds, embedding_column: str, out_dir: str) -> str:
        """Materialize the inverted-list assignment ONCE: Parquet
        partitioned by `ivf_list` (hive layout, one directory per list).

        This is the scale half of the index that `search()` alone lacks
        (it re-assigns the corpus per call, pruning compute but not I/O):
        build once, then `search_built()` opens ONLY the probed lists'
        files — at 100 TB a 4-of-64-list probe reads ~6% of the bytes.
        Pairs with save()/load() of the centroids for
        compile-once-search-many across jobs."""
        assigned = ds.map_batches(self.assign_stage(embedding_column),
                                  batch_format="pyarrow")
        assigned.write_parquet(out_dir, partition_cols=["ivf_list"])
        return out_dir

    def search_built(self, out_dir: str, embedding_column: str,
                     id_column: str, queries: np.ndarray, k: int = 10,
                     nprobe: int = 4) -> pd.DataFrame:
        """Top-k over a `build_lists()` directory, reading ONLY the probed
        partitions (partition pruning at the read — I/O, not just compute).

        Listing goes through `pyarrow.fs.FileSystem.from_uri`, so `out_dir`
        may be a local path OR an object-store URI (s3://bucket/prefix) —
        the same filesystem handle is passed to read_parquet."""
        import ray
        from pyarrow import fs as pafs

        qn = _normalize(np.asarray(queries, dtype=np.float64))
        wanted = self.probed_lists(qn, nprobe)
        filesystem, base = pafs.FileSystem.from_uri(out_dir)
        paths: list[str] = []
        # expand to files: read_parquet takes ONE dir or a list of FILES
        for l in wanted:
            sel = pafs.FileSelector(f"{base}/ivf_list={int(l)}",
                                    allow_not_found=True,  # empty list: no dir
                                    recursive=True)
            paths.extend(sorted(
                i.path for i in filesystem.get_file_info(sel)
                if i.type == pafs.FileType.File
                and i.path.endswith(".parquet")))
        if not paths:
            return pd.DataFrame(columns=["query", id_column, "cosine"])
        ds = ray.data.read_parquet(paths, filesystem=filesystem,
                                   columns=[id_column, embedding_column])
        return ann_brute_force(ds, embedding_column, id_column, qn, k)

    def search(self, ds, embedding_column: str, id_column: str,
               queries: np.ndarray, k: int = 10, nprobe: int = 4) -> pd.DataFrame:
        """One-shot probe over an in-memory/lazy Dataset: assigns, filters
        to the nprobe nearest lists, brute-forces the survivors. Prunes
        COMPUTE only — every input block is still read; for repeated
        searches over stored data use build_lists() + search_built()."""
        wanted_set = pa.array(self.probed_lists(queries, nprobe).astype(np.int32))
        qn = _normalize(np.asarray(queries, dtype=np.float64))
        assigned = ds.map_batches(self.assign_stage(embedding_column),
                                  batch_format="pyarrow")
        filtered = assigned.map_batches(
            lambda t: t.filter(pc.is_in(t["ivf_list"], value_set=wanted_set)),
            batch_format="pyarrow",
        )
        return ann_brute_force(filtered, embedding_column, id_column, qn, k)


def group_centroids(ds, key_column: str, embedding_column: str):
    """Per-group mean embedding in LONG format: (key, pos, centroid) rows,
    pos 1-based — the class-prototype / cluster-refresh step of an
    embedding pipeline (and the M-step of k-means over a label column).

    Scale shape: per-batch numpy partials (key -> count + float64 sum
    vector; one reshape + np.add.at per batch, no per-row Python), merged on
    the driver — partial traffic is #groups x dim per BATCH, never the
    embeddings. Partitioning assumption (documented): #groups x dim fits the
    driver (label/cluster cardinality, not corpus size). Nulls and
    zero-length embeddings are skipped."""
    def _accumulate(keys, mat, out_keys, out_ns, out_sums):
        uk, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros((len(uk), mat.shape[1]))
        np.add.at(sums, inv, mat)
        ns = np.bincount(inv, minlength=len(uk))
        out_keys.extend(uk.tolist())
        out_ns.extend(ns.tolist())
        out_sums.extend(s.tolist() for s in sums)

    def partial(t: pa.Table) -> pa.Table:
        emb = t[embedding_column]
        emb = emb.combine_chunks() if isinstance(emb, pa.ChunkedArray) else emb
        keys = np.asarray(t[key_column].to_numpy(zero_copy_only=False))
        out_keys: list = []
        out_ns: list = []
        out_sums: list = []
        if hasattr(emb, "offsets"):  # list<float> (parquet) — may be ragged
            lengths = np.diff(emb.offsets.to_numpy(zero_copy_only=False))
            valid = ~np.asarray(
                pc.is_null(emb).to_numpy(zero_copy_only=False))
            dims = np.unique(lengths[valid]) if valid.any() \
                else np.array([], int)
            # .values (raw child), NOT .flatten(): flatten compacts away
            # null slots' extents so raw-offset indices would misalign on
            # non-canonical ListArrays; values shares the offsets' space
            flat = emb.values.to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            starts = emb.offsets.to_numpy(zero_copy_only=False)[:-1]
            for d in dims[dims > 0]:
                rows = valid & (lengths == d)
                idx = (starts[rows, None] + np.arange(d)[None, :]).ravel()
                _accumulate(keys[rows], flat[idx].reshape(-1, int(d)),
                            out_keys, out_ns, out_sums)
        else:  # Ray tensor extension (fixed-shape, e.g. from_pandas)
            mat = np.asarray(emb.to_numpy(zero_copy_only=False),
                             dtype=np.float64)
            if mat.size:
                _accumulate(keys, mat.reshape(len(keys), -1),
                            out_keys, out_ns, out_sums)
        return pa.table({
            "k": pa.array(out_keys),
            "n": pa.array(out_ns, pa.int64()),
            "s": pa.array(out_sums, pa.list_(pa.float64())),
        })

    acc: dict = {}
    for r in collect_rows(ds.map_batches(partial, batch_format="pyarrow")):
        key, d = r["k"], len(r["s"])
        slot = acc.setdefault((key, d), [0, np.zeros(d)])
        slot[0] += r["n"]
        slot[1] += np.asarray(r["s"])
    rows = []
    for (key, d), (n, s) in sorted(acc.items()):
        c = s / n
        rows.extend({"key": key, "pos": p + 1, "centroid": c[p]}
                    for p in range(d))
    return pd.DataFrame(rows, columns=["key", "pos", "centroid"])


# ---------------------------------------------------------------------------
# int8 quantization — the memory scale path for embedding columns: a
# float32 corpus shrinks 4x (100 TB of embeddings -> 25 TB of codes) before
# ANN / dedup stages, at a reconstruction error the operator itself reports.
# ---------------------------------------------------------------------------
def quantize_embeddings(ds, embedding_column: str, id_column: str, *,
                        emit_codes: bool = True):
    """Per-vector symmetric int8 quantization of a `list<float>` column:
    scale = max(|x|)/127 (float64), code_i = floor(x_i/scale + 0.5) in
    [-127, 127] — `floor(x + 0.5)` instead of banker's rounding so the
    arithmetic is bit-identical in numpy and SQL. Zero vectors quantize to
    all-zero codes with scale 0.

    Returns (id, codes list<int8> [when emit_codes], scale, code_sum,
    max_abs_err): `code_sum` is an exact integer checksum of the codes and
    `max_abs_err` = max_i |x_i - code_i*scale| — both ORDER-FREE (max /
    integer sum), so the whole row is oracle-exact with no rounding
    contract. Pure per-batch kernel (one vectorized pass per batch, no
    shuffle, no per-row Python) — trivially parallel at any scale;
    downstream stages dequantize with one multiply."""

    def kernel(batch: pa.Table) -> pa.Table:
        m = list_column_to_matrix(batch[embedding_column]).astype(np.float64)
        n, d = m.shape
        scale = np.abs(m).max(axis=1) / 127.0
        safe = np.where(scale == 0.0, 1.0, scale)
        q = np.floor(m / safe[:, None] + 0.5)
        q = np.clip(q, -127, 127)
        err = np.abs(m - q * safe[:, None]).max(axis=1)
        err = np.where(scale == 0.0, 0.0, err)
        cols = {
            id_column: batch[id_column],
            "scale": pa.array(scale),
            "code_sum": pa.array(q.sum(axis=1).astype(np.int64)),
            "max_abs_err": pa.array(err),
        }
        if emit_codes:
            codes = pa.ListArray.from_arrays(
                pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32)),
                pa.array(q.reshape(-1).astype(np.int8)))
            cols = {id_column: batch[id_column], "codes": codes, **{
                k: v for k, v in cols.items() if k != id_column}}
        return pa.table(cols)

    return ds.map_batches(kernel, batch_format="pyarrow")


class _QuantizedBruteForceStage:
    """Brute-force cosine top-k over int8 codes: per batch ONE int-domain
    matmul (codes @ q8ᵀ) rescaled by the per-vector scale — the compute
    shape of a quantized ANN serving path; exactness is traded for 4x
    memory (tests pin recall against the float path)."""

    def __init__(self, embedding_column, id_column, queries_ref, k):
        self.embedding_column = embedding_column
        self.id_column = id_column
        self.queries_ref = queries_ref
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        qn = self.queries_ref.get()  # (Q, d) float64, L2-normalized
        m = list_column_to_matrix(batch[self.embedding_column]) \
            .astype(np.float64)
        scale = np.abs(m).max(axis=1) / 127.0
        safe = np.where(scale == 0.0, 1.0, scale)
        q8 = np.clip(np.floor(m / safe[:, None] + 0.5), -127, 127)
        deq = q8 * safe[:, None]
        deq = _normalize(deq)
        sims = deq @ qn.T  # (n, Q)
        ids = batch[self.id_column].to_numpy(zero_copy_only=False)
        k = min(self.k, len(ids))
        top = np.argpartition(-sims, k - 1, axis=0)[:k]  # (k, Q)
        out_q = np.repeat(np.arange(qn.shape[0]), k)
        flat = top.T.reshape(-1)
        return pa.table({
            "query": pa.array(out_q.astype(np.int64)),
            self.id_column: pa.array(ids[flat]),
            "cosine": pa.array(sims[flat, out_q]),
        })


def ann_brute_force_quantized(ds, embedding_column: str, id_column: str,
                              queries, k: int = 5):
    """Brute-force cosine top-k over ON-THE-FLY int8-quantized vectors —
    the memory-bound serving shape (codes are what a 100-TB deployment
    would store; this operator shows the engine's accuracy/throughput
    at that representation). Same merge contract as `ann_brute_force`:
    per-batch local top-k partials, one vectorized driver merge."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    ref = broadcast(qn)
    partials = ds.map_batches(
        _QuantizedBruteForceStage(embedding_column, id_column, ref, k),
        batch_format="pyarrow")
    return _merge_topk(partials, id_column, k)


class KMeansModel:
    """Fitted distributed k-means: centroids + per-iteration inertia.
    Picklable (fit once, assign in later sessions, ship to workers)."""

    def __init__(self, centroids: np.ndarray, inertia_history: list):
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.inertia_history = list(inertia_history)

    def assign_stage(self, embedding_column: str,
                     out_column: str = "cluster"):
        """map_batches payload appending the nearest-centroid id (the
        broadcast-centroids E-step as a streaming tagger)."""
        ref = broadcast(self.centroids)

        def assign(batch: pa.Table) -> pa.Table:
            c = ref.get()
            x = list_column_to_matrix(batch[embedding_column])
            d2 = ((x * x).sum(1)[:, None] - 2.0 * (x @ c.T)
                  + (c * c).sum(1)[None, :])
            return batch.append_column(
                out_column, pa.array(d2.argmin(1).astype(np.int32)))

        return assign


def kmeans_fit(make_ds, embedding_column: str, k: int = 8,
               iters: int = 10, seed: int = 42, tol: float = 1e-7,
               init_centroids: np.ndarray | None = None) -> KMeansModel:
    """Full-corpus distributed Lloyd k-means — the iterative complement of
    IVFIndex.train (which fits on a driver-side random sample): every
    iteration streams the WHOLE corpus once through a fused E+M pass —
    each batch assigns its rows to the broadcast centroids and
    emits per-cluster (count, sum-vector, sse) partials; the driver folds
    the k×dim partials into new centroids. Euclidean objective; inertia
    (within-cluster SSE) is non-increasing per Lloyd's guarantee and is
    recorded per iteration. Empty clusters keep their previous centroid.
    Stops early when max centroid shift² < tol.

    `make_ds`: zero-arg callable returning a fresh Dataset per pass (a
    lazy read pipeline re-executes; the corpus itself never materializes —
    only k×(dim+2) partials per block reach the driver). Init: seeded
    uniform random-sample rows (positionally unbiased, as IVFIndex.train)
    unless `init_centroids` is given."""
    ds0 = make_ds() if callable(make_ds) else make_ds
    if not callable(make_ds):
        make_ds = lambda _d=ds0: _d  # noqa: E731 — re-executed lazily

    if init_centroids is not None:
        cent = np.asarray(init_centroids, dtype=np.float64).copy()
        k = len(cent)
    else:
        total = ds0.count()
        frac = min(1.0, max(20 * k, 1000) / max(total, 1))
        sample = collect_rows(ds0.random_sample(frac, seed=seed)
                              if frac < 1.0 else ds0)
        if len(sample) < k:
            raise ValueError(f"kmeans_fit: {len(sample)} sampled rows "
                             f"< k={k}")
        x0 = np.stack([np.asarray(r[embedding_column], dtype=np.float64)
                       for r in sample])
        rng = np.random.default_rng(seed)
        cent = x0[rng.choice(len(x0), k, replace=False)].copy()

    dim = cent.shape[1]
    history: list = []
    for _ in range(iters):
        ref = broadcast(cent)

        def partial(batch: pa.Table, _ref=ref) -> pa.Table:
            c = _ref.get()
            x = list_column_to_matrix(batch[embedding_column])
            if x.shape[0] == 0:
                return pa.table({"cid": pa.array([], pa.int32()),
                                 "n": pa.array([], pa.int64()),
                                 "sse": pa.array([], pa.float64()),
                                 "s": pa.array([], pa.list_(pa.float64()))})
            d2 = ((x * x).sum(1)[:, None] - 2.0 * (x @ c.T)
                  + (c * c).sum(1)[None, :])
            a = d2.argmin(1)
            best = d2[np.arange(len(a)), a]
            uk = np.unique(a)
            sums = np.zeros((len(uk), x.shape[1]))
            inv = np.searchsorted(uk, a)
            np.add.at(sums, inv, x)
            ns = np.bincount(inv, minlength=len(uk))
            sse = np.zeros(len(uk))
            np.add.at(sse, inv, best)
            return pa.table({"cid": pa.array(uk.astype(np.int32)),
                             "n": pa.array(ns.astype(np.int64)),
                             "sse": pa.array(sse),
                             "s": pa.array([row.tolist() for row in sums],
                                           pa.list_(pa.float64()))})

        counts = np.zeros(k, dtype=np.int64)
        sums = np.zeros((k, dim))
        inertia = 0.0
        for r in collect_rows(make_ds().map_batches(
                partial, batch_format="pyarrow")):
            cid = int(r["cid"])
            counts[cid] += int(r["n"])
            sums[cid] += np.asarray(r["s"], dtype=np.float64)
            inertia += float(r["sse"])
        history.append(inertia)
        new = cent.copy()
        nz = counts > 0
        new[nz] = sums[nz] / counts[nz, None]
        shift = float(((new - cent) ** 2).sum(axis=1).max())
        cent = new
        if shift < tol:
            break
    return KMeansModel(cent, history)


def embedding_covariance(ds, embedding_column: str):
    """Full d×d sample covariance (+ per-dimension means) of an embedding
    column in ONE streaming pass — the PCA/whitening preprocessing
    statistic: per-batch moment partials (n, column sums, Xᵀ X Gram
    matrix) fold associatively on the driver, so only (d² + d + 1)-sized
    partials ever move, never vectors. cov = (Sxy − Sx·Sy/n) / (n−1),
    float64 throughout (float32 inputs widen exactly — SQL covar_samp
    parity to rounding).

    Returns (n, mean[d], cov[d, d]) as numpy arrays. Needs n >= 2."""
    from ..util import collect_rows, list_column_to_matrix

    def partial(t: pa.Table) -> pa.Table:
        X = list_column_to_matrix(t[embedding_column])
        if X.shape[0] == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.list_(pa.float64())),
                             "g": pa.array([], pa.list_(pa.float64()))})
        g = X.T @ X
        return pa.table({
            "n": pa.array([X.shape[0]], pa.int64()),
            "s": pa.array([X.sum(axis=0).tolist()],
                          pa.list_(pa.float64())),
            "g": pa.array([g.ravel().tolist()], pa.list_(pa.float64()))})

    n = 0
    s = None
    g = None
    for r in collect_rows(ds.map_batches(partial, batch_format="pyarrow")):
        n += r["n"]
        rs = np.asarray(r["s"], dtype=np.float64)
        rg = np.asarray(r["g"], dtype=np.float64)
        s = rs if s is None else s + rs
        g = rg if g is None else g + rg
    if n < 2:
        raise ValueError(f"embedding_covariance: need >= 2 rows, got {n}")
    d = len(s)
    G = g.reshape(d, d)
    mean = s / n
    cov = (G - np.outer(s, s) / n) / (n - 1)
    return n, mean, cov


def pca_project(ds, embedding_column: str, id_column: str, k: int, *,
                out_column: str = "pc"):
    """PCA dimensionality reduction as a two-phase distributed op: FIT from
    the one-pass moment partials (embedding_covariance → driver eigh of
    the d×d matrix — d is small, the corpus is not), then PROJECT the
    corpus per batch against the broadcast (mean, components)
    pair. The 4×-and-more compression stage ahead of ANN/dedup at scale;
    composes with quantize_embeddings for the int8 path.

    Component signs are canonicalized (largest-|loading| coordinate made
    positive) so results are deterministic across eigensolvers. Returns
    (id, pc: list<float64>[k], plus `explained`: the fraction of total
    variance the k components carry, constant per row for audit SQL).
    Oracle note: eigendecomposition is not SQL-expressible — verify via
    numpy parity tests and the variance-fraction audit column."""
    n, mean, cov = embedding_covariance(ds, embedding_column)
    d = cov.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"pca_project: k={k} not in [1, {d}]")
    w, v = np.linalg.eigh(cov)          # ascending eigenvalues
    order = np.argsort(w)[::-1][:k]
    comps = v[:, order]                 # (d, k)
    flip = np.sign(comps[np.argmax(np.abs(comps), axis=0),
                         np.arange(k)])
    comps = comps * flip
    explained = float(w[order].sum() / w.sum()) if w.sum() > 0 else 0.0
    ref = broadcast((mean, comps))

    def project(t: pa.Table) -> pa.Table:
        from ..util import list_column_to_matrix

        m, c = ref.get()
        X = list_column_to_matrix(t[embedding_column])
        Y = (X - m) @ c
        return pa.table({
            id_column: t[id_column],
            out_column: pa.array(Y.tolist(), pa.list_(pa.float64())),
            "explained": pa.array(np.full(len(Y), explained))})

    return ds.map_batches(project, batch_format="pyarrow")


def cmvn_stats(ds, embedding_column: str):
    """Per-dimension corpus mean / population std of an embedding column
    in ONE streaming pass — the fit half of CMVN (cepstral mean-variance
    normalization), the standard feature-standardization step between
    feature extraction (log-mel / MFCC) and training. Per-batch moment
    partials (n, Σx, Σx²) fold associatively on the driver, so only
    O(d)-sized partials ever move. float64 throughout; std uses the
    max(E[x²] − E[x]², 0) guard against cancellation at unit scale.

    Returns (n, mean[d], std[d]) numpy arrays. Needs n >= 1."""
    from ..util import collect_rows, list_column_to_matrix

    def partial(t: pa.Table) -> pa.Table:
        X = list_column_to_matrix(t[embedding_column])
        if X.shape[0] == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.list_(pa.float64())),
                             "q": pa.array([], pa.list_(pa.float64()))})
        return pa.table({
            "n": pa.array([X.shape[0]], pa.int64()),
            "s": pa.array([X.sum(axis=0).tolist()], pa.list_(pa.float64())),
            "q": pa.array([(X * X).sum(axis=0).tolist()],
                          pa.list_(pa.float64()))})

    n, s, q = 0, None, None
    for r in collect_rows(ds.map_batches(partial, batch_format="pyarrow")):
        n += r["n"]
        rs = np.asarray(r["s"], dtype=np.float64)
        rq = np.asarray(r["q"], dtype=np.float64)
        s = rs if s is None else s + rs
        q = rq if q is None else q + rq
    if n < 1:
        raise ValueError("cmvn_stats: empty input")
    mean = s / n
    std = np.sqrt(np.maximum(q / n - mean * mean, 0.0))
    return n, mean, std


def cmvn_apply(ds, embedding_column: str, id_column: str, *,
               out_column: str = "normed", eps: float = 1e-8):
    """Apply half of CMVN: fit (cmvn_stats over the SAME dataset — the
    pipeline streams twice, stats pass then apply pass, never
    materializing the corpus) then normalize each vector to
    (x − mean) / max(std, eps) per dimension against the
    broadcast stats. Zero-variance dimensions pass through as
    0 (the eps floor), matching the standard recipe. Returns
    (id, out_column list<float64>)."""
    _, mean, std = cmvn_stats(ds, embedding_column)
    ref = broadcast((mean, np.maximum(std, eps)))

    def norm(t: pa.Table) -> pa.Table:
        from ..util import list_column_to_matrix

        m, sd = ref.get()
        X = list_column_to_matrix(t[embedding_column])
        Y = (X - m) / sd
        return pa.table({
            id_column: t[id_column],
            out_column: pa.array(Y.tolist(), pa.list_(pa.float64()))})

    return ds.map_batches(norm, batch_format="pyarrow")
