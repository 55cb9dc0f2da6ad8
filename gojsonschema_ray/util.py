"""Small shared helpers."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def collect_rows(ds) -> list[dict]:
    """take_all() replacement: Dataset -> list of row dicts via iter_batches.

    ray 2.49's Dataset.take_all() walks rows one at a time (~1 ms/row on
    map_groups output); batch iteration is ~200x faster for the small result
    tables (counts, pairs, partials) the engine collects to the driver."""
    rows: list[dict] = []
    for t in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        cols = t.column_names
        data = [t[c].to_pylist() for c in cols]
        rows.extend(dict(zip(cols, vals)) for vals in zip(*data))
    return rows


def list_column_to_matrix(col, dtype="float64"):
    """Arrow list<float> column -> (n, d) numpy matrix without a Python-list
    round-trip (zero-copy flatten of the values buffer; rows must be
    equal-length and non-null — the embedding-table invariant)."""
    import numpy as np

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten()
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0), dtype=dtype)
    d, rem = divmod(len(flat), n)
    if rem:
        raise ValueError("ragged or null embedding rows")
    return flat.to_numpy(zero_copy_only=False).astype(dtype, copy=False).reshape(n, d)


def collect_table(ds) -> pa.Table:
    """Dataset -> one pyarrow Table (driver-side; small results only)."""
    tabs = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    if not tabs:
        return pa.table({})
    return pa.concat_tables(tabs)


def _probe_sorted(keys: np.ndarray, h: np.ndarray):
    """(pos, hit) of each probe of `h` in the ascending array `keys`: the
    clamped searchsorted position and whether the key there equals the
    probe. An empty `keys` holds nothing."""
    if not len(keys):
        return np.zeros(len(h), dtype=np.intp), np.zeros(len(h), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, h), len(keys) - 1)
    return pos, keys[pos] == h


def in_sorted(keys: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Membership of each probe of `h` in the ascending array `keys`."""
    return _probe_sorted(keys, h)[1]


def sorted_lookup(keys: np.ndarray, values: np.ndarray, h: np.ndarray,
                  default) -> np.ndarray:
    """values[i] for each probe of `h` equal to keys[i] (`keys` ascending),
    `default` for a probe not in `keys`."""
    pos, hit = _probe_sorted(keys, h)
    return np.where(hit, values[pos] if len(values) else default, default)
