"""Persisted inverted text index — lexical retrieval WITHOUT rescanning
the corpus.

`functions/text.bm25_scores` streams the whole corpus per query (right
for one-off scoring); this module is its build-once-search-many
counterpart, completing the persisted-index family next to IVFIndex
(dense ANN inverted lists, stages/similarity.py) and MinHashIndex
(near-dup signatures, stages/dedup.py):

  post/ (id, term, tf, dl) hive-partitioned by tmod = hash(term) % mods
        — doc-length norms are DENORMALIZED into every posting row (the
        Lucene trick), so scoring needs no doc-table join;
  stats/ one row (n_docs, total_tokens) — the corpus constants BM25
        needs (N, avgdl), folded from tiny per-batch combiner partials.

A search reads ONLY the tmod partitions its query terms hash into
(partition pruning at the READ — query cost scales with the query
terms' postings, never with corpus size), then:

  - df(term) comes free from the postings (each (doc, term) is one row),
    folded from |q|-row per-batch partials;
  - per-(doc, term) BM25 contributions use the IDENTICAL formula and
    operator grouping as bm25_scores, so the indexed path is bit-equal
    to the streaming path (pinned by tests);
  - per-doc totals need an exchange (one doc's terms live in different
    tmod partitions): ONE coarse hash(id) % P repartition, a vectorized
    pandas fold per partition (AND-mode keeps docs matching every term),
    local top-k, and a P*k-row driver merge.

Tokenization contract is bm25_scores' exactly: trim (+ lower), RE2
``\\s+`` split, null/empty docs excluded — SQL-replicable.

Reference framing: gojsonschema compiles a schema once and validates
many documents against it (/root/reference/schema.go NewSchema);
this index is the retrieval analog — compile (build) once, probe many.
"""
from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import broadcast, exchange

_LOG = logging.getLogger(__name__)

_EMPTY_PAIRS = {
    "id": ("int64", []), "term": ("object", []), "tf": ("int64", []),
    "dl": ("int64", []), "contribution": ("float64", []),
}


def _tokens(batch: pa.Table, text_column: str, lowercase: bool):
    """bm25_scores' tokenization: returns (values array, doc lengths) with
    null/empty docs contributing zero tokens."""
    col = batch[text_column]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    txt = pc.utf8_trim_whitespace(pc.cast(col, pa.string()))
    if lowercase:
        txt = pc.utf8_lower(txt)
    lists = pc.split_pattern_regex(txt, r"\s+")
    lists = lists.combine_chunks() \
        if isinstance(lists, pa.ChunkedArray) else lists
    raw_lengths = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                          .astype(np.int64))
    valid = ~np.asarray(pc.is_null(lists).to_numpy(zero_copy_only=False))
    valid &= ~np.asarray(pc.equal(pc.utf8_length(txt), 0)
                         .fill_null(True).to_numpy(zero_copy_only=False))
    lens = np.where(valid, raw_lengths, 0)
    vals = lists.values.filter(pa.array(np.repeat(valid, raw_lengths)))
    return vals, lens


def _tmod(terms, mods: int) -> np.ndarray:
    """Postings partition of each term: hash(term) % mods, the layout
    `build` writes and `search_pairs` prunes by."""
    from .sketches import hash_arrow_array

    return (hash_arrow_array(terms) % np.uint64(mods)).astype(np.int32)


class InvertedTextIndex:
    """Build once (`build`), search many (`search_pairs` / `search`).
    The instance holds only parameters — it pickles across jobs like
    IVFIndex centroids; all corpus state lives in `index_dir`."""

    def __init__(self, text_column: str, id_column: str, *,
                 lowercase: bool = True, mods: int = 64,
                 k1: float = 1.2, b: float = 0.75):
        if id_column in ("term", "tf", "dl", "tmod", "part"):
            raise ValueError(f"InvertedTextIndex: id_column {id_column!r} "
                             "collides with a reserved output column")
        if mods < 1 or mods & (mods - 1):
            raise ValueError(f"InvertedTextIndex: mods={mods} must be a "
                             "power of two")
        self.text_column = text_column
        self.id_column = id_column
        self.lowercase = lowercase
        self.mods = mods
        self.k1 = k1
        self.b = b
        self.last_probe_post_dirs: int | None = None  # pruning observability

    # -- build ---------------------------------------------------------------
    def build(self, ds, index_dir: str, *, write_blocks: int = 8) -> str:
        """Materialize the postings + stats tables. `ds` streams through
        twice (postings, corpus stats) — the MinHashIndex build shape;
        `write_blocks` bounds hive file explosion (one file per
        (block, partition-value) pair)."""
        text_col, id_col, lc, mods = \
            self.text_column, self.id_column, self.lowercase, self.mods

        def postings(t: pa.Table) -> pa.Table:
            vals, lens = _tokens(t, text_col, lc)
            ids = t[id_col]
            ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) \
                else ids
            if len(vals) == 0:
                return pa.table({
                    id_col: ids.slice(0, 0),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "dl": pa.array([], pa.int64()),
                    "tmod": pa.array([], pa.int32())})
            did = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
            terms = vals.dictionary_encode()
            tcodes = np.asarray(terms.indices.to_numpy(zero_copy_only=False),
                                dtype=np.int64)
            n_terms = len(terms.dictionary)
            keys, tf = np.unique(did * n_terms + tcodes, return_counts=True)
            pdoc, pterm = keys // n_terms, keys % n_terms
            term_arr = terms.dictionary.take(pa.array(pterm))
            return pa.table({
                id_col: ids.take(pa.array(pdoc)),
                "term": term_arr,
                "tf": pa.array(tf.astype(np.int64)),
                "dl": pa.array(lens[pdoc].astype(np.int64)),
                "tmod": pa.array(_tmod(term_arr, mods)),
            })

        ds.map_batches(postings, batch_format="pyarrow") \
            .repartition(write_blocks) \
            .write_parquet(f"{index_dir}/post", partition_cols=["tmod"])

        def stats_partial(t: pa.Table) -> pa.Table:
            _, lens = _tokens(t, text_col, lc)
            return pa.table({
                "n_docs": pa.array([int((lens > 0).sum())], pa.int64()),
                "total_tokens": pa.array([int(lens.sum())], pa.int64())})

        from ..util import collect_table

        parts = collect_table(
            ds.map_batches(stats_partial, batch_format="pyarrow"))
        stats = pa.table({
            "n_docs": pa.array([int(pc.sum(parts["n_docs"]).as_py() or 0)],
                               pa.int64()),
            "total_tokens": pa.array(
                [int(pc.sum(parts["total_tokens"]).as_py() or 0)],
                pa.int64())})
        import pyarrow.parquet as pq
        from pyarrow import fs as pafs

        filesystem, base = pafs.FileSystem.from_uri(index_dir)
        filesystem.create_dir(f"{base}/stats", recursive=True)
        pq.write_table(stats, f"{base}/stats/stats.parquet",
                       filesystem=filesystem)
        return index_dir

    # -- search --------------------------------------------------------------
    def _read_stats(self, filesystem, base: str) -> tuple[int, float]:
        import pyarrow.parquet as pq

        t = pq.read_table(f"{base}/stats/stats.parquet",
                          filesystem=filesystem)
        n_docs = int(t["n_docs"][0].as_py())
        if n_docs == 0:
            raise ValueError("InvertedTextIndex: indexed corpus has no "
                             "tokenized documents")
        return n_docs, int(t["total_tokens"][0].as_py()) / n_docs

    def search_pairs(self, query_terms: list[str], index_dir: str):
        """Per-(doc, term) BM25 contribution rows (id, term, tf, dl,
        contribution) — bit-equal to bm25_scores(return_pairs=True) on
        the indexed corpus, reading only the query terms' partitions."""
        import ray
        import ray.data as rd
        from pyarrow import fs as pafs

        from ..util import collect_table
        from .dedup import MinHashIndex

        q = sorted(set(query_terms))
        if not q:
            raise ValueError("InvertedTextIndex: empty query_terms")
        q_arr = pa.array(q, pa.string())
        q_np = np.array(q, dtype=object)
        filesystem, base = pafs.FileSystem.from_uri(index_dir)
        n_docs, avgdl = self._read_stats(filesystem, base)
        tmods = np.unique(_tmod(q_arr, self.mods))
        paths = MinHashIndex._expand(
            filesystem, f"{base}/post",
            [f"tmod={int(m)}" for m in tmods])
        self.last_probe_post_dirs = len(tmods)
        id_col = self.id_column
        if not paths:
            import pandas as pd

            return rd.from_pandas(pd.DataFrame(
                {(id_col if c == "id" else c): pd.Series(v, dtype=d)
                 for c, (d, v) in _EMPTY_PAIRS.items()}))
        posts = ray.data.read_parquet(
            paths, filesystem=filesystem,
            columns=[id_col, "term", "tf", "dl"])

        def matched(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t["term"], value_set=q_arr))

        hits = posts.map_batches(matched, batch_format="pyarrow") \
            .materialize()

        def df_partial(t: pa.Table) -> pa.Table:
            tidx = np.searchsorted(q_np, np.asarray(
                t["term"].to_numpy(zero_copy_only=False), dtype=object))
            return pa.table({
                "term": q_arr,
                "df": pa.array(np.bincount(tidx, minlength=len(q))
                               .astype(np.int64))})

        parts = collect_table(
            hits.map_batches(df_partial, batch_format="pyarrow"))
        df_vec = np.zeros(len(q), dtype=np.int64)
        if parts.num_rows and "term" in parts.schema.names:
            tidx = np.searchsorted(q_np, np.asarray(
                parts["term"].to_numpy(zero_copy_only=False), dtype=object))
            np.add.at(df_vec, tidx,
                      parts["df"].to_numpy(zero_copy_only=False))
        idf = np.log((n_docs - df_vec + 0.5) / (df_vec + 0.5) + 1.0)
        k1, b = self.k1, self.b
        state = broadcast((idf, avgdl))

        def contrib(t: pa.Table) -> pa.Table:
            idf_v, adl = state.get()
            tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
            dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
            ti = np.searchsorted(q_np, np.asarray(
                t["term"].to_numpy(zero_copy_only=False), dtype=object))
            c = idf_v[ti] * (tf * (k1 + 1.0)) \
                / (tf + k1 * (1.0 - b + b * (dl / adl)))
            return t.append_column("contribution", pa.array(c))

        return hits.map_batches(contrib, batch_format="pyarrow")

    def search(self, query_terms: list[str], index_dir: str, *,
               k: int = 10, mode: str = "or"):
        """Top-k docs by summed BM25 score. mode='and' keeps only docs
        matching EVERY query term (boolean AND retrieval). Returns a
        pandas DataFrame (id, score, dl) sorted score desc, id asc."""
        import pandas as pd

        from ..util import collect_table

        if mode not in ("or", "and"):
            raise ValueError(f"InvertedTextIndex.search: mode={mode!r}")
        q = sorted(set(query_terms))
        pairs = self.search_pairs(q, index_dir)
        id_col, need = self.id_column, len(q)

        def per_part(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby(id_col, sort=True).agg(
                score=("contribution", "sum"), dl=("dl", "first"),
                nterms=("term", "nunique")).reset_index()
            if mode == "and":
                g = g[g["nterms"] == need]
            g = g.sort_values(["score", id_col], ascending=[False, True],
                              kind="stable").head(k)
            return g[[id_col, "score", "dl"]]

        tops = collect_table(exchange(pairs, per_part, id_col))
        out = tops.to_pandas()
        if out.empty:
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float64"),
                                 "dl": pd.Series([], dtype="int64")})
        return out.sort_values(["score", id_col], ascending=[False, True],
                               kind="stable").head(k).reset_index(drop=True)
