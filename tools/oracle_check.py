"""Driver-style correctness check: run every __ray_entry__.queries() entry
and compare row-sets against its oracle_sql() DuckDB result at sf0.01
(sorted columns, normalized values — mirrors the driver's hash compare).

Every query line ends with the md5 of its canonical (sorted, normalized)
rows and its wall seconds, so two commits' logs compare line by line —
rows-only queries included. A query in NONDETERMINISTIC is flagged: its
md5 may differ between runs of the same code.

Usage: python tools/oracle_check.py [query-name ...]   [from the repo root]
(no args = check every queries() entry)
"""
import os, sys, json, hashlib, time
import duckdb, pandas as pd, numpy as np
import ray

sys.path.insert(0, __import__("os").path.dirname(__import__("os").path.dirname(__import__("os").path.abspath(__file__))))
SF = os.environ.get("ORACLE_SF_DIR", "/root/testdata/sf0.01")
# rows vary run to run on identical code: a k-means fit over actor-pool
# embeddings whose float sums depend on block arrival order
NONDETERMINISTIC = {"clips_audio_clusters"}

ray.init(address="local", num_cpus=16, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as M

con = duckdb.connect()
for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")

def to_df(res):
    if isinstance(res, pd.DataFrame):
        return res
    try:
        import pyarrow as pa
        if isinstance(res, pa.Table):
            return res.to_pandas()
    except Exception:
        pass
    return res.to_pandas()  # ray Dataset

def canon(df):
    df = df.copy()
    df = df[sorted(df.columns)]
    # normalize dtypes to strings rounded
    def norm(v):
        if isinstance(v, (float, np.floating)):
            return f"{v:.6g}"
        if isinstance(v, (np.integer,)):
            return str(int(v))
        return str(v)
    rows = sorted(tuple(norm(v) for v in row) for row in df.itertuples(index=False))
    return rows

qs = M.queries()
sqls = M.oracle_sql()
if len(sys.argv) > 1:
    qs = {n: f for n, f in qs.items() if n in sys.argv[1:]}
fails = []
for name, fn in qs.items():
    t0 = time.perf_counter()
    try:
        r = to_df(fn(SF))
    except Exception as e:
        print(f"{name}: RAY ERROR {e!r}")
        fails.append(name)
        continue
    wall = time.perf_counter() - t0
    cr = canon(r)
    tail = f"md5={hashlib.md5(json.dumps(cr).encode()).hexdigest()} " \
        f"{wall:.2f}s" + (" (non-deterministic)" if name in NONDETERMINISTIC
                          else "")
    if name not in sqls:
        print(f"{name}: rows-only OK ({len(r)} rows, cols={list(r.columns)}) "
              f"{tail}")
        continue
    o = con.execute(sqls[name]).fetchdf()
    co = canon(o)
    if cr == co:
        print(f"{name}: MATCH ({len(cr)} rows) {tail}")
    else:
        print(f"{name}: MISMATCH ray={len(cr)} oracle={len(co)} {tail}")
        print("  ray cols:", sorted(r.columns), "oracle cols:", sorted(o.columns))
        for a, b in list(zip(cr, co))[:3]:
            if a != b:
                print("   ray:", a, "\n   ora:", b)
        fails.append(name)
ray.shutdown()
print("FAILS:", fails)
