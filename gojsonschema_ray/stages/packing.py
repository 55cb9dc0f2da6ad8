"""Sequence packing — assign every document a fixed-capacity training-pack
id via a DISTRIBUTED PREFIX SCAN over its token count.

pack_id(row) = floor(offset / capacity) where offset = total weight
(token count) of all rows ordered strictly before it by `order_column` —
the "concatenate the corpus in id order and chunk into capacity-sized
training sequences, documents may straddle a boundary" packing used to
build fixed-length LLM training batches. gojsonschema has no analog
(single-document engine, SURVEY.md §2.6 pattern); SQL equivalent:
``floor(SUM(w) OVER (ORDER BY id ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT
ROW) / capacity)`` — which makes the operator oracle-checkable.

Scale shape (a classic two-pass scan, ONE coarse keyed exchange):

1. **Bucket totals** (combiner-first): each batch collapses to per-bucket
   (bucket = order_key // bucket_width) weight sums — fixed-width partials,
   rows never move. The driver merges and prefix-sums them into global
   bucket start offsets; #buckets = key_range / bucket_width (bounded by
   choice of bucket_width, NOT by corpus rows), broadcast via `ray.put`.
2. **Within-bucket scan**: rows co-partition on hash(bucket) % P — whole
   buckets land on one partition — then each bucket sorts by the order key,
   cumsums locally, and adds its global start. Output rows carry
   (order, weight, offset, pack_id).

Partitioning assumptions (documented): `order_column` is a UNIQUE
non-negative integer key (ties would make the scan order ambiguous on both
engine and SQL side — it raises); one bucket's rows fit a partition (pick
`bucket_width` accordingly); the bucket-totals table fits the driver.
Null weights count 0 (SQL SUM semantics).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..util import collect_table
from .exchange import broadcast, exchange


def _order_keys(t: pa.Table, order_column: str) -> np.ndarray:
    col = t[order_column]
    if (col.null_count if hasattr(col, "null_count") else 0) > 0:
        raise ValueError(f"pack_sequences: null {order_column!r} keys — the "
                         "scan order must be total; filter them upstream")
    k = np.asarray(col.to_numpy(zero_copy_only=False))
    if k.dtype.kind not in "iu" or (k.dtype.kind == "i" and k.size
                                    and int(k.min()) < 0):
        raise ValueError(f"pack_sequences: {order_column!r} must be "
                         "non-negative integers")
    return k.astype(np.int64, copy=False)


def _weights(t: pa.Table, weight_column: str) -> np.ndarray:
    w = pc.fill_null(t[weight_column], 0)
    return np.asarray(w.to_numpy(zero_copy_only=False)).astype(np.int64)


def running_offsets(ds, *, order_column: str, weight_column: str,
                    bucket_width: int = 4096,
                    keep_columns: list[str] | None = None):
    """Exclusive prefix sum of `weight_column` in `order_column` order —
    the distributed scan behind pack_sequences (two passes, one exchange;
    see module docstring). Returns a Dataset of `keep_columns` +
    (order, weight, offset) rows."""
    keep = keep_columns or []
    reserved = {"part", "_w", "_b", "offset", "weight"} \
        & {order_column, weight_column, *keep}
    if reserved:  # synthetic exchange/output columns — a silent overwrite
        raise ValueError(  # would corrupt partition routing or the offsets
            f"running_offsets: column names {sorted(reserved)} are reserved "
            "by the exchange — rename or project them out")

    # ---- pass 1: per-bucket weight totals (per-batch combiner) ----------
    def bucket_sums(t: pa.Table) -> pa.Table:
        k = _order_keys(t, order_column)
        w = _weights(t, weight_column)
        b = k // bucket_width
        uk, inv = np.unique(b, return_inverse=True)
        sums = np.zeros(len(uk), dtype=np.int64)
        np.add.at(sums, inv, w)
        return pa.table({"b": pa.array(uk), "s": pa.array(sums)})

    partials = collect_table(
        ds.map_batches(bucket_sums, batch_format="pyarrow"))
    pdf = partials.to_pandas().groupby("b")["s"].sum().sort_index()
    totals = pdf.to_numpy()
    starts_arr = np.concatenate([[0], np.cumsum(totals)[:-1]]) \
        if len(totals) else np.zeros(0, np.int64)
    starts = {int(b): int(s) for b, s in zip(pdf.index, starts_arr)}
    starts_ref = broadcast(starts)

    # ---- pass 2: co-partition whole buckets, local sort + cumsum --------
    def project(t: pa.Table) -> pa.Table:
        k = _order_keys(t, order_column)
        cols = {order_column: pa.array(k),
                "_w": pa.array(_weights(t, weight_column)),
                "_b": pa.array(k // bucket_width)}
        for c in keep:
            cols[c] = t[c]
        return pa.table(cols)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        bstarts = starts_ref.get()
        outs = []
        for b, g in df.groupby("_b", sort=False):
            g = g.sort_values(order_column, kind="stable")
            if g[order_column].duplicated().any():
                raise ValueError(
                    f"pack_sequences: duplicate {order_column!r} keys — "
                    "the scan order must be total")
            w = g["_w"].to_numpy()
            off = bstarts[int(b)] + np.concatenate(
                [[0], np.cumsum(w)[:-1]]).astype(np.int64)
            outs.append(g.assign(offset=off))
        out = pd.concat(outs, ignore_index=True) if outs \
            else df.assign(offset=pd.Series([], dtype="int64"))
        return out.rename(columns={"_w": "weight"}).drop(columns=["_b"])

    return exchange(ds.map_batches(project, batch_format="pyarrow"),
                    per_part, "_b")


def materialize_packs(packed_ds, *, order_column: str, text_column: str,
                      pack_column: str = "pack_id", sep: str = " "):
    """Concatenate each pack's documents (in scan order) into ONE training
    sequence row — the final step of sequence packing. Input is
    `pack_sequences(..., keep_columns=[text_column])` output; returns a
    Dataset of (pack_id, n_docs, text).

    Scale shape: ONE hash(pack_id) coarse-partition exchange, then a
    per-partition vectorized sort + groupby-join. Partitioning assumptions
    (documented): one pack's docs fit a partition (bounded by the packing
    capacity), boundary documents belong to the pack their FIRST token
    falls in (spill-forward chunking keeps this single-membership)."""
    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([pack_column, order_column], kind="stable")
        g = df.groupby(pack_column, sort=False)
        sizes = g.size()
        # SQL string_agg semantics: null texts are SKIPPED in the concat
        # (not joined as empty strings) but still count toward n_docs;
        # an all-null pack concatenates to null
        texts = df.dropna(subset=[text_column]) \
            .groupby(pack_column, sort=False)[text_column].agg(sep.join) \
            .reindex(sizes.index)
        return pd.DataFrame({
            pack_column: np.asarray(sizes.index),
            "n_docs": sizes.to_numpy().astype(np.int64),
            "text": texts.to_numpy(),
        })

    return exchange(packed_ds, per_part, pack_column)


def pack_sequences(ds, *, order_column: str, weight_column: str,
                   capacity: int, bucket_width: int = 4096,
                   keep_columns: list[str] | None = None):
    """Fixed-capacity sequence packing: `pack_id = offset // capacity`
    over the distributed running offsets (module docstring). Returns
    `keep_columns` + (order, weight, offset, pack_id)."""
    if capacity <= 0:
        raise ValueError(f"pack_sequences: capacity={capacity}")
    offs = running_offsets(ds, order_column=order_column,
                           weight_column=weight_column,
                           bucket_width=bucket_width,
                           keep_columns=keep_columns)

    def finish(t: pa.Table) -> pa.Table:
        off = t["offset"].to_numpy(zero_copy_only=False)
        return t.append_column("pack_id",
                               pa.array((off // capacity).astype(np.int64)))

    return offs.map_batches(finish, batch_format="pyarrow")
