"""Table I/O seam — Lance-first with a Parquet fallback.

BASELINE.json's north star targets Lance-backed clip+transcript tables;
`pylance` is optional, so every table read (`__ray_entry__._read`
included) goes through `read_table`: `ray.data.read_lance` when the path
is a Lance dataset AND the lib is importable, else `_ParquetFiles`, which
reads each parquet footer once on the driver and has none of
`ray.data.read_parquet`'s per-call driver setup (path resolution,
metadata-prefetch and sampling tasks). Only the index layouts' reads stay on `read_parquet`:
`dedup.MinHashIndex.probe` (twice), `textindex`, `layout.ZOrderedReader`
and the IVF lists of `similarity` pass a pyarrow `filesystem`, and `layout`
reads the hive `zbucket=` partition column.

Fragment listing feeds the resumable manifest (state/manifest.py): a
"fragment" is a Lance fragment id or a parquet file path — the unit a
partition commits.
"""

from __future__ import annotations

import os

import numpy as np
import ray.data as rd
from ray.data.block import BlockMetadata

try:  # pragma: no cover - exercised only where pylance is installed
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    lance = None
    HAVE_LANCE = False


def is_lance_path(path: str) -> bool:
    return path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions"))


def read_table(path, columns: list[str] | None = None,
               override_num_blocks: int | None = None,
               include_paths: bool = False):
    """ray.data Dataset over a Lance dataset, or over parquet files (a
    file, a flat directory, or a list of files), column-pruned at the
    reader. A parquet read makes `min(parallelism, files)` tasks of whole
    files, parallelism being `override_num_blocks` or Ray's detected one
    (at least 2 x CPUs); it fuses with the next map unless that parallelism
    exceeds the file count (Ray then splits the blocks). `include_paths`
    adds each row's file path, as given, in a `path` column."""
    if HAVE_LANCE and isinstance(path, str) and is_lance_path(path):
        return rd.read_lance(path, columns=columns,
                             override_num_blocks=override_num_blocks)
    return rd.read_datasource(
        _ParquetFiles(_parquet_files(path), columns, include_paths),
        override_num_blocks=override_num_blocks)


def _parquet_files(path) -> list[str]:
    """The parquet files under a path or list of paths, directories
    expanded to their sorted `*.parquet` files."""
    files = []
    for p in [path] if isinstance(path, str) else path:
        if os.path.isdir(p):
            if any(e.is_dir() for e in os.scandir(p)):
                raise ValueError(f"{p}: nested parquet directory; read_table "
                                 "reads files and flat directories only")
            files += list_fragments(p)
        else:
            files.append(p)
    if not files:
        raise ValueError(f"{path}: no parquet files")
    return files


class _ParquetFiles(rd.Datasource):
    """Local parquet files, read in contiguous groups of whole files. The
    footers, read once here, give each ReadTask its rows, schema and size
    (the columns' uncompressed page bytes, a lower bound of the Arrow
    size). Named "Parquet": the operator stays `ReadParquet`."""

    def __init__(self, files: list[str], columns: list[str] | None,
                 include_paths: bool):
        import pyarrow as pa
        import pyarrow.parquet as pq

        metas = [pq.read_metadata(f) for f in files]
        schema = metas[0].schema.to_arrow_schema()
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns],
                               metadata=schema.metadata)
        if include_paths:
            schema = schema.append(pa.field("path", pa.string()))
        keep = None if columns is None else set(columns)
        self._files, self._columns = files, columns
        self._include_paths, self._schema = include_paths, schema
        self._rows = [m.num_rows for m in metas]
        self._bytes = [sum(
            rg.column(j).total_uncompressed_size
            for rg in map(m.row_group, range(m.num_row_groups))
            for j in range(rg.num_columns)
            if keep is None or rg.column(j).path_in_schema.split(".")[0] in keep)
            for m in metas]

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._bytes)

    def get_read_tasks(self, parallelism: int) -> list[rd.ReadTask]:
        columns, include_paths = self._columns, self._include_paths
        tasks = []
        for idx in np.array_split(np.arange(len(self._files)),
                                  min(parallelism, len(self._files))):
            files = [self._files[i] for i in idx]
            meta = BlockMetadata(
                num_rows=sum(self._rows[i] for i in idx),
                size_bytes=int(sum(self._bytes[i] for i in idx)),
                input_files=files, exec_stats=None)
            tasks.append(rd.ReadTask(
                lambda files=files: _read_files(files, columns, include_paths),
                meta, schema=self._schema))
        return tasks


def _read_files(files: list[str], columns, include_paths: bool):
    """One read task's blocks: each non-empty file as one pruned table."""
    import pyarrow as pa

    for f in files:
        t = read_fragment(f, f, columns)
        if include_paths:
            t = t.append_column("path", pa.repeat(pa.scalar(f), t.num_rows))
        if t.num_rows:
            yield t


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

    Parquet fragments are file paths, read by read_table with one read
    task per file. Lance fragments ("fragment:<id>") are scanned
    per-fragment by read_fragment in remote tasks and assembled with
    from_arrow_refs."""
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
