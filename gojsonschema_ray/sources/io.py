"""Table I/O seam — Lance-first with a Parquet fallback.

BASELINE.json's north star targets Lance-backed clip+transcript tables;
`pylance` is not installed in this container, so every read goes through this
one seam: `ray.data.read_lance` when the path is a Lance dataset AND the lib
is importable, else `ray.data.read_parquet`. All engine code should read
tables through here so the storage format is a deployment detail.

Fragment listing feeds the resumable manifest (state/manifest.py): a
"fragment" is a Lance fragment id or a parquet file path — the unit a
partition commits.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - exercised only where pylance is installed
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    lance = None
    HAVE_LANCE = False


def is_lance_path(path: str) -> bool:
    return path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions"))


def read_table(path: str, columns: list[str] | None = None, **kwargs):
    """ray.data Dataset over a Lance dataset or parquet file(s)/dir.

    Column pruning is pushed to the reader in both paths (only requested
    columns leave storage)."""
    import ray.data as rd

    if HAVE_LANCE and isinstance(path, str) and is_lance_path(path):
        return rd.read_lance(path, columns=columns, **kwargs)
    return rd.read_parquet(path, columns=columns, **kwargs)


def list_fragments(path: str) -> list[str]:
    """Resume/lineage units: Lance fragment ids or parquet file paths."""
    if HAVE_LANCE and isinstance(path, str) and is_lance_path(path):
        ds = lance.dataset(path)
        return [f"fragment:{f.fragment_id}" for f in ds.get_fragments()]
    if os.path.isdir(path):
        return sorted(
            os.path.join(path, f) for f in os.listdir(path)
            if f.endswith(".parquet")
        )
    return [path]


def _fragment_id(fragment: str) -> int:
    return int(str(fragment).split(":", 1)[1])


def _lance_fragment_reader(path: str, fid: int, columns):
    """Default per-fragment scan — runs INSIDE a Ray task (imports lance on
    the worker)."""
    import lance as _lance

    return _lance.dataset(path).get_fragment(fid).to_table(columns=columns)


def _reader(fragment_reader):
    if fragment_reader is None and not HAVE_LANCE:
        raise RuntimeError(
            "Lance fragment ids need pylance; install it, inject a "
            "fragment_reader, or point the pipeline at parquet shards")
    return fragment_reader or _lance_fragment_reader


def _lance_fragment_counter(path: str, fid: int) -> int:
    if not HAVE_LANCE:
        raise RuntimeError(
            "Lance fragment row counts need pylance; install it or inject a "
            "fragment_counter alongside your fragment_reader")
    return lance.dataset(path).get_fragment(fid).count_rows()


def read_fragment(path: str, fragment: str, columns: list[str] | None = None,
                  fragment_reader=None):
    """One fragment as a pyarrow Table, column-pruned: a parquet file path
    through pq.read_table, a Lance fragment id ("fragment:<id>") through
    `fragment_reader(path, fid, columns)` (default: pylance; injectable for
    tests/other formats). Runs inside Ray tasks."""
    if not str(fragment).startswith("fragment:"):
        import pyarrow.parquet as pq

        return pq.read_table(fragment, columns=columns)
    return _reader(fragment_reader)(path, _fragment_id(fragment), columns)


def read_fragments(path: str, fragments: list[str],
                   columns: list[str] | None = None,
                   fragment_reader=None):
    """Dataset over a SUBSET of fragments as ONE block per fragment, every
    row tagged with its fragment in a `path` column.

    Parquet fragments are file paths, read pruned with one read task per
    file: Ray 2.49 splits a small file into several blocks by default and
    then will not fuse the read with the map that follows it. Lance
    fragments ("fragment:<id>") are scanned per-fragment by read_fragment
    in remote tasks and assembled with from_arrow_refs."""
    import ray.data as rd

    if fragments and str(fragments[0]).startswith("fragment:"):
        _reader(fragment_reader)  # fail on the driver, not in a task
        import ray

        @ray.remote
        def _scan(fragment: str):
            import pyarrow as pa

            t = read_fragment(path, fragment, columns, fragment_reader)
            return t.append_column(
                "path", pa.array([fragment] * t.num_rows, pa.string()))

        return rd.from_arrow_refs([_scan.remote(f) for f in fragments])
    return read_table(list(fragments), columns=columns, include_paths=True,
                      override_num_blocks=len(fragments))


def fragment_row_count(path: str, fragment: str, fragment_counter=None) -> int:
    """Row count of one fragment from metadata only (no data scan)."""
    if str(fragment).startswith("fragment:"):
        counter = fragment_counter or _lance_fragment_counter
        return counter(path, _fragment_id(fragment))
    import pyarrow.parquet as pq

    return pq.read_metadata(fragment).num_rows


def write_table(ds, path: str, **kwargs) -> None:
    """Partitioned table write (one file per block — resumable layout)."""
    if HAVE_LANCE and isinstance(path, str) and path.endswith(".lance"):
        ds.write_lance(path, **kwargs)
        return
    ds.write_parquet(path, **kwargs)
