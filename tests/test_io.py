"""sources.io.read_table against ray.data.read_parquet: the same rows,
column order, Arrow types and schema metadata for every input shape the
engine reads, and a read that fuses with the map that follows it."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

N_FILES = 5
ROWS_PER_FILE = 200


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    """A flat directory of N_FILES parquet files of several row groups each
    (written from pandas, so they carry pandas schema metadata), plus one
    0-row file."""
    import numpy as np
    import pandas as pd

    d = tmp_path_factory.mktemp("flat")
    n = N_FILES * ROWS_PER_FILE
    df = pd.DataFrame({"id": np.arange(n), "s": [f"s{i}" for i in range(n)],
                       "l": [[i, -i] for i in range(n)],
                       "x": np.linspace(0, 1, n)})
    for k in range(N_FILES):
        part = df.iloc[k * ROWS_PER_FILE:(k + 1) * ROWS_PER_FILE]
        pq.write_table(pa.Table.from_pandas(part, preserve_index=False),
                       d / f"f{k}.parquet", row_group_size=64)
    pq.write_table(pa.Table.from_pandas(df.iloc[:0], preserve_index=False),
                   d / "f_empty.parquet")
    return str(d)


def _files(d):
    return sorted(os.path.join(d, f) for f in os.listdir(d))


def _rows(ds):
    ts = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(ts).sort_by("id")


def _assert_same(ours, theirs):
    a, b = _rows(ours), _rows(theirs)
    assert a.schema.names == b.schema.names
    assert a.schema.types == b.schema.types
    assert a.schema.metadata == b.schema.metadata
    assert a.equals(b)
    assert ours.count() == theirs.count() == a.num_rows
    return a


@pytest.mark.parametrize("shape", ["files", "directory", "subset", "empty"])
def test_read_table_matches_read_parquet(ray_session, table_dir, shape):
    import ray.data as rd

    from gojsonschema_ray.sources.io import read_table

    files = _files(table_dir)
    path = {"files": files, "directory": table_dir, "subset": files[1:3],
            "empty": [os.path.join(table_dir, "f_empty.parquet"), files[0]]}[shape]
    ours = read_table(path)
    assert ours.schema() == rd.read_parquet(path).schema()
    _assert_same(ours, rd.read_parquet(path))


def test_read_table_prunes_columns_in_the_asked_order(ray_session, table_dir):
    import ray.data as rd

    from gojsonschema_ray.sources.io import read_table

    cols = ["x", "id"]
    t = _assert_same(read_table(table_dir, cols),
                     rd.read_parquet(table_dir, columns=cols))
    assert t.column_names == cols
    assert read_table(table_dir, cols).schema().names == cols


@pytest.mark.parametrize("blocks", [2, N_FILES, 2 * N_FILES + 1])
def test_read_table_override_num_blocks(ray_session, table_dir, blocks):
    """Fewer, as many and more blocks than files: every row once."""
    import ray.data as rd

    from gojsonschema_ray.sources.io import read_table

    files = _files(table_dir)
    ours = read_table(files, override_num_blocks=blocks)
    _assert_same(ours, rd.read_parquet(files, override_num_blocks=blocks))
    assert ours.materialize().num_blocks() >= min(blocks, N_FILES)


def test_read_fragments_tags_each_row_with_its_file(ray_session, table_dir):
    import ray.data as rd

    from gojsonschema_ray.sources.io import read_fragments

    files = [os.path.join(table_dir, "f_empty.parquet"),
             *_files(table_dir)[:2]]
    ours = read_fragments(table_dir, files, columns=["id", "s"])
    t = _assert_same(ours, rd.read_parquet(files, columns=["id", "s"],
                                           include_paths=True))
    assert t.column_names == ["id", "s", "path"]
    assert ours.schema().names == ["id", "s", "path"]
    assert t["path"].to_pylist() == [f for f in files[1:]
                                     for _ in range(ROWS_PER_FILE)]


def test_read_table_rejects_a_nested_directory(table_dir, tmp_path):
    """A hive-style directory is an error naming the path, not a read of
    its top level only."""
    from gojsonschema_ray.sources.io import read_table

    nested = tmp_path / "t"
    (nested / "zbucket=0").mkdir(parents=True)
    pq.write_table(pa.table({"id": [1]}), nested / "zbucket=0" / "a.parquet")
    with pytest.raises(ValueError, match=str(nested)):
        read_table(str(nested))


def test_rows_read_fuses_with_its_map(ray_session, tmp_path):
    """The 16-file rows read followed by map_batches runs as one fused
    ReadParquet->MapBatches operator (no SplitBlocks between them)."""
    from perfbench.workloads import SPECS, generate

    from gojsonschema_ray.sources.io import read_table

    inputs = generate(SPECS["rows_dirty"], 3, 4_000, str(tmp_path / "cache"))
    assert len(inputs.files) == 16

    def ident(t):
        return t

    ds = read_table(inputs.files).map_batches(ident, batch_format="pyarrow",
                                              batch_size=None)
    assert sum(t.num_rows for t in ds.iter_batches(
        batch_format="pyarrow", batch_size=None)) == 4_000
    names = [op.operator_name
             for op in ds._get_stats_summary().operators_stats]
    assert names == ["ReadParquet->MapBatches(ident)"]
