"""Distributed graph analytics over edge tables — triangle counting.

The engine already walks graphs for dedup (connected components,
stages/dedup.near_dup_clusters) and entity resolution; this module adds
the classic clustering-coefficient primitive: EXACT triangle counting by
the wedge-join algorithm (the MapReduce-era NodeIterator++ / Suri-Vassilvitskii
WWW'11 shape), expressed as two coarse hash exchanges:

  1. canonicalize edges (u < v, loops and nulls dropped, distinct) —
     the unique_pairs-style pair exchange;
  2. wedge generation — ONE hash(u) exchange; per partition, each
     vertex's sorted neighbor list emits its C(d, 2) wedge candidates
     via vectorized triu indices (a per-vertex degree cap fails loudly:
     a 10^6-degree hub would emit 10^12 wedges — salt or sample such
     graphs upstream);
  3. wedge ∩ edge membership — ONE hash(pair) exchange over the tagged
     union; per partition a vectorized pandas inner-merge counts closed
     wedges.

Exactly-once counting: edges are canonical (a < b), so a vertex's
neighbor list holds only HIGHER-numbered vertices; the triangle
{a < b < c} generates its (b, c) wedge only at a — its minimum vertex —
and nowhere else (the oriented-wedge trick), so no division at the end.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import exchange


def triangle_count(ds, src: str, dst: str, *, max_degree: int = 10_000):
    """EXACT triangle count of the undirected graph given by an edge
    table (duplicate edges, loops, and direction are normalized away).
    Returns (n_triangles:int, n_edges:int). Oriented wedges: each vertex
    emits pairs among its HIGHER-numbered neighbors only, so every
    triangle is generated exactly once (at its minimum vertex).
    `max_degree` caps that ORIENTED degree (the count of higher-numbered
    neighbors, whose C(d, 2) wedges are the blowup being bounded), not the
    full vertex degree: a hub whose neighbors are mostly lower-numbered
    passes far above it."""
    import pandas as pd

    from ..util import collect_rows

    def canon(t: pa.Table) -> pa.Table:
        u = t[src].cast(pa.int64())
        v = t[dst].cast(pa.int64())
        ok = pc.and_(pc.is_valid(u), pc.is_valid(v))
        ok = pc.and_(ok, pc.not_equal(u, v))       # drop loops
        u, v = u.filter(ok), v.filter(ok)
        lo = pc.min_element_wise(u, v)
        hi = pc.max_element_wise(u, v)
        return pa.table({"a": lo, "b": hi}).group_by(["a", "b"]) \
            .aggregate([])                          # batch-local distinct

    # exchange 1+2 fused: edges co-partitioned by a; each partition emits
    # its distinct edges (w=0) and their wedges (w=1)
    def edges_and_wedges(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(subset=["a", "b"])
        outs_b = [df["a"].to_numpy(dtype=np.int64)]
        outs_c = [df["b"].to_numpy(dtype=np.int64)]
        for _, grp in df.groupby("a", sort=False):
            nb = np.sort(grp["b"].to_numpy(dtype=np.int64))
            d = len(nb)
            if d < 2:
                continue
            if d > max_degree:
                raise ValueError(
                    f"triangle_count: oriented (higher-neighbor) degree {d} "
                    f"> max_degree={max_degree} — salt or sample hub "
                    "vertices upstream")
            iu = np.triu_indices(d, k=1)
            outs_b.append(nb[iu[0]])
            outs_c.append(nb[iu[1]])
        n_wedges = sum(len(x) for x in outs_b) - len(df)
        return pd.DataFrame({
            "a": np.concatenate(outs_b),
            "b": np.concatenate(outs_c),
            "w": np.concatenate([np.zeros(len(df), np.int8),
                                 np.ones(n_wedges, np.int8)])})

    both = exchange(ds.map_batches(canon, batch_format="pyarrow"),
                    edges_and_wedges, "a")

    def close(df: pd.DataFrame) -> pd.DataFrame:
        e = df[df["w"] == 0][["a", "b"]].drop_duplicates()
        w = df[df["w"] == 1][["a", "b"]]
        n = len(w.merge(e, on=["a", "b"], how="inner")) if len(w) else 0
        ne = len(e)
        return pd.DataFrame({"tri": pd.Series([n], dtype="int64"),
                             "edges": pd.Series([ne], dtype="int64")})

    parts = collect_rows(exchange(both, close, ["a", "b"]))
    return (int(sum(r["tri"] for r in parts)),
            int(sum(r["edges"] for r in parts)))
