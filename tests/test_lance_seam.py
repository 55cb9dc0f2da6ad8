"""Lance-fragment resume wiring behind the sources.io seam.

pylance is not installable in this container, so the Lance side of the seam
is driven by a FAKE lance module (fragment ids backed by parquet shards):
list_fragments emits "fragment:<id>" units, read_fragments scans them with
an injected fragment_reader in remote tasks, and the manifest commits
fragment ids. Only the reader import differs from a real Lance deployment —
the partitioning, manifest, and resume logic is the code under test.
"""

import json
import os
from types import SimpleNamespace

import pytest


def _make_fake_lance_dataset(tmp_path, n_rows=2000, rows_per_file=500):
    """Parquet shards laid out as fake Lance fragments:
    <root>/data/frag-<i>.parquet plus a _versions dir so is_lance_path
    triggers."""
    from gojsonschema_ray.datagen import write_clips_parquet

    root = str(tmp_path / "clips.lance")
    staging = str(tmp_path / "staging")
    write_clips_parquet(staging, n_rows, audio_cap_ms=20,
                        rows_per_file=rows_per_file)
    os.makedirs(os.path.join(root, "data"))
    os.makedirs(os.path.join(root, "_versions"))
    shards = sorted(f for f in os.listdir(staging) if f.endswith(".parquet"))
    for i, f in enumerate(shards):
        os.rename(os.path.join(staging, f),
                  os.path.join(root, "data", f"frag-{i}.parquet"))
    return root, len(shards)


def test_lance_fragment_resume(ray_session, tmp_path, monkeypatch):
    import pyarrow.parquet as pq
    import ray.data as rd

    from gojsonschema_ray.sources import io
    from gojsonschema_ray.pipelines.flagship import run_flagship

    root, n_frags = _make_fake_lance_dataset(tmp_path)
    out = str(tmp_path / "out")

    def frag_file(path, fid):
        return os.path.join(path, "data", f"frag-{fid}.parquet")

    class FakeLanceDataset:
        def __init__(self, path):
            self.path = path

        def get_fragments(self):
            n = len(os.listdir(os.path.join(self.path, "data")))
            return [SimpleNamespace(fragment_id=i) for i in range(n)]

    monkeypatch.setattr(io, "HAVE_LANCE", True)
    monkeypatch.setattr(io, "lance",
                        SimpleNamespace(dataset=FakeLanceDataset))
    # the global uniqueness pass reads the whole "Lance" table via the
    # dataset reader; the fake delegates to parquet
    real_read_table = io.read_table
    monkeypatch.setattr(
        io, "read_table",
        lambda path, columns=None, **kw: rd.read_parquet(
            os.path.join(path, "data"), columns=columns)
        if io.is_lance_path(str(path)) else real_read_table(path, columns, **kw))

    # injected per-fragment scan/count (cloudpickled by value into tasks)
    def reader(path, fid, columns):
        import pyarrow.parquet as _pq

        return _pq.read_table(
            os.path.join(path, "data", f"frag-{fid}.parquet"), columns=columns)

    def counter(path, fid):
        return pq.read_metadata(frag_file(path, fid)).num_rows

    frags = io.list_fragments(root)
    assert frags == [f"fragment:{i}" for i in range(n_frags)]

    s1 = run_flagship(root, out, files_per_partition=2, audio_cap_ms=20,
                      fragment_reader=reader, fragment_counter=counter)
    assert s1["rows"] == 2000
    assert s1["partitions"] == n_frags // 2 + 1  # data partitions + __global__

    manifest_path = os.path.join(out, "manifest.jsonl")
    lines = [json.loads(ln) for ln in open(manifest_path) if ln.strip()]
    data_lines = [ln for ln in lines if ln["partition"] != "__global__"]
    assert all(f.startswith("fragment:")
               for ln in data_lines for f in ln["fragments"])

    # resume: everything committed -> second run rewrites nothing
    before = open(manifest_path).read()
    s2 = run_flagship(root, out, files_per_partition=2, audio_cap_ms=20,
                      fragment_reader=reader, fragment_counter=counter)
    assert open(manifest_path).read() == before
    assert s2["rows"] == s1["rows"] and s2["violations"] == s1["violations"]


def test_read_fragments_requires_reader_without_lance(ray_session, tmp_path):
    """Without pylance and without an injected reader, fragment ids fail
    loudly instead of being fed to the parquet reader."""
    from gojsonschema_ray.sources import io

    if io.HAVE_LANCE:  # pragma: no cover - container has no pylance
        pytest.skip("real pylance present")
    with pytest.raises(RuntimeError, match="pylance"):
        io.read_fragments(str(tmp_path), ["fragment:0"], columns=["clip_id"])


def _install_fake_lance(monkeypatch):
    """Point sources.io at a fake lance module whose fragments are the
    <root>/data/frag-<i>.parquet shards; returns (reader, counter)."""
    import pyarrow.parquet as pq

    from gojsonschema_ray.sources import io

    class FakeLanceDataset:
        def __init__(self, path):
            self.path = path

        def get_fragments(self):
            n = len(os.listdir(os.path.join(self.path, "data")))
            return [SimpleNamespace(fragment_id=i) for i in range(n)]

    monkeypatch.setattr(io, "HAVE_LANCE", True)
    monkeypatch.setattr(io, "lance", SimpleNamespace(dataset=FakeLanceDataset))

    def reader(path, fid, columns):
        import pyarrow.parquet as _pq

        return _pq.read_table(
            os.path.join(path, "data", f"frag-{fid}.parquet"), columns=columns)

    def counter(path, fid):
        return pq.read_metadata(
            os.path.join(path, "data", f"frag-{fid}.parquet")).num_rows

    return reader, counter


def test_lance_fragments_take_the_fused_pass(ray_session, tmp_path,
                                             monkeypatch):
    """Fragment-id partitions run the same one-pass tasks as parquet files:
    each fragment is read exactly once (the reader logs its calls to a
    file, as it runs in workers), the global check never reads the table,
    and the summary equals a parquet run's over the same shards."""
    from gojsonschema_ray.sources import io
    from gojsonschema_ray.pipelines.flagship import run_flagship

    root, n_frags = _make_fake_lance_dataset(tmp_path, rows_per_file=250)
    assert n_frags == 8
    s_pq = run_flagship(os.path.join(root, "data"), str(tmp_path / "pq"),
                        files_per_partition=1, audio_cap_ms=20)

    def no_table_scan(*args, **kwargs):
        raise AssertionError("read_table called: the table is read twice")

    fake_reader, counter = _install_fake_lance(monkeypatch)
    log = str(tmp_path / "reads.log")

    def reader(path, fid, columns):
        with open(log, "a") as f:
            f.write(f"{fid}\n")
        return fake_reader(path, fid, columns)

    monkeypatch.setattr(io, "read_table", no_table_scan)
    out = str(tmp_path / "out")
    s = run_flagship(root, out, files_per_partition=1, audio_cap_ms=20,
                     fragment_reader=reader, fragment_counter=counter)
    assert s == s_pq
    assert s["rows"] == 2000 and s["partitions"] == n_frags + 1
    assert sorted(int(x) for x in open(log).read().split()) == \
        list(range(n_frags))
    for i in range(n_frags):
        assert os.listdir(os.path.join(out, "keycounts", f"part-{i:06d}"))


def test_row_count_mismatch_refuses_commit(ray_session, tmp_path,
                                           monkeypatch):
    """A partition whose pass saw fewer rows than its fragments' counts
    claim raises and commits nothing."""
    from gojsonschema_ray.pipelines.flagship import run_flagship

    root, _ = _make_fake_lance_dataset(tmp_path)
    reader, counter = _install_fake_lance(monkeypatch)

    def inflated(path, fid):
        return counter(path, fid) + (fid == 1)

    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="part-000000: the pass saw 1000"):
        run_flagship(root, out, with_audio=False, files_per_partition=2,
                     fragment_reader=reader, fragment_counter=inflated)
    manifest = os.path.join(out, "manifest.jsonl")
    assert not os.path.exists(manifest) or not open(manifest).read()


def _out_dir_state(out):
    """{relative path: (size, mtime_ns)} of every file under `out`."""
    state = {}
    for d, _, files in os.walk(out):
        for f in files:
            st = os.stat(os.path.join(d, f))
            state[os.path.relpath(os.path.join(d, f), out)] = (
                st.st_size, st.st_mtime_ns)
    return state


def test_row_count_error_leaves_no_task_running(ray_session, tmp_path,
                                                monkeypatch):
    """After the row-count RuntimeError the call has cancelled and waited
    for every outstanding task: no file under out_dir changes once it has
    returned, although the other fragments' reads were still sleeping."""
    import time

    from gojsonschema_ray.pipelines.flagship import run_flagship

    root, n_frags = _make_fake_lance_dataset(tmp_path, n_rows=1200,
                                             rows_per_file=100)
    assert n_frags == 12
    fake_reader, counter = _install_fake_lance(monkeypatch)

    def slow_reader(path, fid, columns):
        import time as _time

        if fid:
            _time.sleep(1.0)
        return fake_reader(path, fid, columns)

    def inflated(path, fid):
        return counter(path, fid) + (fid == 0)

    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="part-000000: the pass saw 100"):
        run_flagship(root, out, with_audio=False, files_per_partition=1,
                     fragment_reader=slow_reader, fragment_counter=inflated)
    before = _out_dir_state(out)
    time.sleep(2.0)
    assert _out_dir_state(out) == before
    assert not any(p.startswith("keycounts/part-000001/") for p in before)
