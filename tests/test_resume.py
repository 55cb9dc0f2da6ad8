"""Kill-resume: a run SIGKILLed mid-flight must resume from the last
committed partition without recomputing it (BASELINE.json north_rule), and
the final output must equal an uninterrupted run's."""

import json
import os
import signal
import subprocess
import sys
import time

SCRIPT = r"""
import sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from gojsonschema_ray.pipelines.flagship import run_flagship
if {kill_after!r}:
    import os, signal
    from gojsonschema_ray.state.manifest import Manifest
    _commit = Manifest.commit
    def _commit_then_die(self, *args, **kwargs):
        _commit(self, *args, **kwargs)
        if len(self.committed) >= {kill_after!r}:
            os.kill(os.getpid(), signal.SIGKILL)
    Manifest.commit = _commit_then_die
s = run_flagship({inp!r}, {out!r}, files_per_partition=1, audio_cap_ms=20)
print("SUMMARY " + __import__("json").dumps(s))
ray.shutdown()
"""


def _spawn(repo, inp, out, kill_after=None):
    """The driver SCRIPT in its own session: the driver's Ray processes
    share its process group, so _kill_driver can reap what a SIGKILLed
    driver leaves behind. `kill_after=n` makes the driver SIGKILL itself
    right after its n-th manifest commit."""
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT.format(repo=repo, inp=inp, out=out,
                                             kill_after=kill_after)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, "PYTHONPATH": repo}, start_new_session=True,
    )


def _live_group_members(pgid):
    """PIDs in process group `pgid` that are not zombies (a zombie is
    already dead; it waits only for its parent, possibly init, to reap it)."""
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:  # exited while scanning
            continue
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if state != "Z" and int(pgrp) == pgid:
            pids.append(int(d))
    return pids


def _kill_driver(p, timeout_s=30):
    """SIGKILL the driver alone (the crash under test), then kill the rest
    of its process group — Ray's helpers outlive a SIGKILLed driver,
    reparented to init — and wait, best effort, until none is alive."""
    p.send_signal(signal.SIGKILL)
    p.wait()
    deadline = time.time() + timeout_s
    while _live_group_members(p.pid) and time.time() < deadline:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.1)


# flagship over the FAKE Lance seam (fragment-id partitions, injected
# readers) — the Lance-deployment shape of SCRIPT above
LANCE_SCRIPT = r"""
import os, sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from types import SimpleNamespace
from gojsonschema_ray.sources import io

class FakeLanceDataset:
    def __init__(self, path):
        self.path = path
    def get_fragments(self):
        n = len(os.listdir(os.path.join(self.path, "data")))
        return [SimpleNamespace(fragment_id=i) for i in range(n)]

io.HAVE_LANCE = True
io.lance = SimpleNamespace(dataset=FakeLanceDataset)
_real_read_table = io.read_table
def _rt(path, columns=None, **kw):
    if io.is_lance_path(str(path)):
        return rd.read_parquet(os.path.join(path, "data"), columns=columns)
    return _real_read_table(path, columns, **kw)
io.read_table = _rt

def reader(path, fid, columns):
    import pyarrow.parquet as pq
    return pq.read_table(
        os.path.join(path, "data", f"frag-{{fid}}.parquet"), columns=columns)
def counter(path, fid):
    import pyarrow.parquet as pq
    return pq.read_metadata(
        os.path.join(path, "data", f"frag-{{fid}}.parquet")).num_rows

from gojsonschema_ray.pipelines.flagship import run_flagship
s = run_flagship({root!r}, {out!r}, files_per_partition=1, audio_cap_ms=20,
                 fragment_reader=reader, fragment_counter=counter)
print("SUMMARY " + __import__("json").dumps(s))
ray.shutdown()
"""


def _spawn_lance(repo, root, out):
    return subprocess.Popen(
        [sys.executable, "-c",
         LANCE_SCRIPT.format(repo=repo, root=root, out=out)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, "PYTHONPATH": repo}, start_new_session=True,
    )


def _wait_for_commits(manifest, proc, n, deadline_s=180):
    """Block until the manifest holds >= n committed lines (or proc dies)."""
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        if os.path.exists(manifest):
            lines = [ln for ln in open(manifest).read().splitlines()
                     if ln.strip()]
            if len(lines) >= n:
                return lines
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    return None


def test_kill_resume(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    inp = str(tmp_path / "clips")
    out = str(tmp_path / "out")

    # generate input OUTSIDE the measured runs (serial writer, no Ray needed)
    sys.path.insert(0, repo)
    from gojsonschema_ray.datagen import write_clips_parquet

    write_clips_parquet(inp, 3000, audio_cap_ms=20, rows_per_file=1000)

    manifest = os.path.join(out, "manifest.jsonl")

    # run 1: SIGKILL as soon as the first partition commits
    p = _spawn(repo, inp, out)
    deadline = time.time() + 180
    first_commit = None
    while time.time() < deadline:
        if os.path.exists(manifest):
            lines = [ln for ln in open(manifest).read().splitlines() if ln.strip()]
            if lines:
                first_commit = json.loads(lines[0])
                break
        if p.poll() is not None:
            break
        time.sleep(0.1)
    assert first_commit is not None, "no partition committed before timeout"
    _kill_driver(p)

    committed_after_kill = [
        json.loads(ln) for ln in open(manifest).read().splitlines() if ln.strip()
    ]
    n_committed = len(committed_after_kill)
    assert 1 <= n_committed < 4  # killed mid-run: __global__ never reached

    # run 2: resume — must NOT recompute committed partitions
    t0 = time.time()
    p2 = _spawn(repo, inp, out)
    out2, _ = p2.communicate(timeout=300)
    assert p2.returncode == 0, out2
    summary = json.loads([ln for ln in out2.splitlines()
                          if ln.startswith("SUMMARY ")][0][len("SUMMARY "):])
    assert summary["partitions"] == 4  # 3 data partitions + __global__
    assert summary["rows"] == 3000

    # the previously committed manifest lines are byte-identical (no rewrite,
    # no recompute) and still the FIRST lines of the resumed manifest
    final_lines = [ln for ln in open(manifest).read().splitlines() if ln.strip()]
    for i, rec in enumerate(committed_after_kill):
        assert json.loads(final_lines[i]) == rec

    # uninterrupted reference run in a fresh output dir agrees
    out_ref = str(tmp_path / "ref")
    p3 = _spawn(repo, inp, out_ref)
    out3, _ = p3.communicate(timeout=300)
    assert p3.returncode == 0, out3
    ref = json.loads([ln for ln in out3.splitlines()
                      if ln.startswith("SUMMARY ")][0][len("SUMMARY "):])
    assert ref["violations"] == summary["violations"]
    assert ref["rows"] == summary["rows"]


def test_cli_gen_and_validate(tmp_path):
    """python -m gojsonschema_ray gen/validate — the ray-job surface."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": repo}
    clips = str(tmp_path / "clips")
    out = str(tmp_path / "out")
    r1 = subprocess.run(
        [sys.executable, "-m", "gojsonschema_ray", "gen", "--out", clips,
         "--rows", "1500", "--cap-ms", "20", "--rows-per-file", "500"],
        capture_output=True, text=True, env=env, cwd=repo, timeout=240)
    assert r1.returncode == 0, r1.stderr[-500:]
    assert json.loads(r1.stdout.strip().splitlines()[-1])["rows"] == 1500
    r2 = subprocess.run(
        [sys.executable, "-m", "gojsonschema_ray", "validate", "--input", clips,
         "--out", out, "--audio-cap-ms", "20"],
        capture_output=True, text=True, env=env, cwd=repo, timeout=240)
    assert r2.returncode == 0, r2.stderr[-500:]
    summary = json.loads(r2.stdout.strip().splitlines()[-1])
    assert summary["rows"] == 1500 and summary["partitions"] >= 1
    assert os.path.exists(os.path.join(out, "manifest.jsonl"))


def _commit_worker(path, wid, n):
    """Concurrent-writer child: its own Manifest handle, n commits."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from gojsonschema_ray.state.manifest import Manifest

    m = Manifest(path)
    for i in range(n):
        m.commit(f"p{wid}-{i}", [f"fragment:{wid}:{i}"], rows=1, violations=0)


def test_manifest_concurrent_commits(tmp_path):
    """Several processes appending to ONE manifest concurrently (the
    multi-writer shape of a distributed run): O_APPEND line writes must not
    tear or interleave — every line parses, every commit survives."""
    import multiprocessing as mp

    path = str(tmp_path / "manifest.jsonl")
    ctx = mp.get_context("spawn")  # no inherited Ray state
    procs = [ctx.Process(target=_commit_worker, args=(path, w, 50))
             for w in range(6)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(120)
        assert p.exitcode == 0
    lines = [ln for ln in open(path).read().splitlines() if ln.strip()]
    assert len(lines) == 6 * 50
    recs = [json.loads(ln) for ln in lines]  # raises on any torn line
    assert len({r["partition"] for r in recs}) == 6 * 50

    from gojsonschema_ray.state.manifest import Manifest

    assert len(Manifest(path).committed) == 6 * 50


def test_lance_multi_kill_resume(tmp_path):
    """Fragment-partitioned flagship over the fake-Lance seam survives TWO
    successive SIGKILLs: each resume keeps the committed prefix
    byte-identical (no recomputation) and the final summary equals an
    uninterrupted run's."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, repo)
    from gojsonschema_ray.datagen import write_clips_parquet

    root = str(tmp_path / "clips.lance")
    staging = str(tmp_path / "staging")
    write_clips_parquet(staging, 2000, audio_cap_ms=20, rows_per_file=500)
    os.makedirs(os.path.join(root, "data"))
    os.makedirs(os.path.join(root, "_versions"))
    shards = sorted(f for f in os.listdir(staging) if f.endswith(".parquet"))
    for i, f in enumerate(shards):
        os.rename(os.path.join(staging, f),
                  os.path.join(root, "data", f"frag-{i}.parquet"))
    out = str(tmp_path / "out")
    manifest = os.path.join(out, "manifest.jsonl")

    # run 1: SIGKILL after the FIRST fragment partition commits
    p = _spawn_lance(repo, root, out)
    lines1 = _wait_for_commits(manifest, p, 1)
    assert lines1 is not None, "no partition committed before timeout"
    _kill_driver(p)
    after1 = [ln for ln in open(manifest).read().splitlines() if ln.strip()]

    # run 2 (first resume): SIGKILL again after at least one MORE commit
    p2 = _spawn_lance(repo, root, out)
    lines2 = _wait_for_commits(manifest, p2, len(after1) + 1)
    assert lines2 is not None, "resume made no progress before timeout"
    _kill_driver(p2)
    after2 = [ln for ln in open(manifest).read().splitlines() if ln.strip()]
    assert after2[:len(after1)] == after1  # committed prefix untouched

    # run 3 (second resume): completes; prefix still byte-identical
    p3 = _spawn_lance(repo, root, out)
    out3, _ = p3.communicate(timeout=300)
    assert p3.returncode == 0, out3
    summary = json.loads([ln for ln in out3.splitlines()
                          if ln.startswith("SUMMARY ")][0][len("SUMMARY "):])
    assert summary["rows"] == 2000
    assert summary["partitions"] == 5  # 4 fragment partitions + __global__
    final = [ln for ln in open(manifest).read().splitlines() if ln.strip()]
    assert final[:len(after2)] == after2
    frag_lines = [json.loads(ln) for ln in final
                  if json.loads(ln)["partition"] != "__global__"]
    committed_frags = sorted(f for ln in frag_lines for f in ln["fragments"])
    assert committed_frags == [f"fragment:{i}" for i in range(4)]


def _tree_state(root, parts):
    """{relative file path: (size, mtime_ns)} under violations/ and
    keycounts/ of the given partitions."""
    state = {}
    for sub in ("violations", "keycounts"):
        for p in parts:
            d = os.path.join(root, sub, p)
            for f in sorted(os.listdir(d)):
                st = os.stat(os.path.join(d, f))
                state[f"{sub}/{p}/{f}"] = (st.st_size, st.st_mtime_ns)
    return state


def _global_rows(out):
    import pyarrow.parquet as pq

    d = os.path.join(out, "violations", "__global__")
    return sorted((r["key"], r["actual"]) for f in sorted(os.listdir(d))
                  for r in pq.read_table(os.path.join(d, f)).to_pylist())


def _summary(stdout):
    return json.loads([ln for ln in stdout.splitlines()
                       if ln.startswith("SUMMARY ")][0][len("SUMMARY "):])


def test_multi_wave_kill_resume(tmp_path):
    """12 one-file partitions on 4 CPUs run as 12 tasks, 8 in flight,
    committing in plan order as they finish. A driver that SIGKILLs itself
    right after the first commit (all 12 commit within one 0.1 s poll, so
    a kill from outside may land after the last) resumes without touching
    a committed partition's files, rewrites only the uncommitted ones, and
    ends with the summary (drift included) and __global__ rows of an
    uninterrupted run."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    inp = str(tmp_path / "clips")
    out = str(tmp_path / "out")
    sys.path.insert(0, repo)
    from gojsonschema_ray.datagen import write_clips_parquet

    write_clips_parquet(inp, 2400, audio_cap_ms=20, rows_per_file=200)
    assert len(os.listdir(inp)) == 12
    manifest = os.path.join(out, "manifest.jsonl")

    p = _spawn(repo, inp, out, kill_after=1)
    assert _wait_for_commits(manifest, p, 1) is not None, \
        "no partition committed before timeout"
    _kill_driver(p)
    after_kill = [ln for ln in open(manifest).read().splitlines() if ln.strip()]
    committed = [json.loads(ln)["partition"] for ln in after_kill]
    assert 1 <= len(committed) < 12 and "__global__" not in committed
    kept = _tree_state(out, committed)

    p2 = _spawn(repo, inp, out)
    out2, _ = p2.communicate(timeout=300)
    assert p2.returncode == 0, out2
    resumed = _summary(out2)
    final = [ln for ln in open(manifest).read().splitlines() if ln.strip()]
    assert final[:len(after_kill)] == after_kill
    assert _tree_state(out, committed) == kept  # committed files untouched
    redone = [json.loads(ln)["partition"] for ln in final[len(after_kill):]]
    assert sorted(redone) == sorted(
        [f"part-{i:06d}" for i in range(12) if f"part-{i:06d}" not in committed]
        + ["__global__"])

    out_ref = str(tmp_path / "ref")
    p3 = _spawn(repo, inp, out_ref)
    out3, _ = p3.communicate(timeout=300)
    assert p3.returncode == 0, out3
    assert resumed == _summary(out3)
    assert _global_rows(out) == _global_rows(out_ref)
    assert _global_rows(out)  # the datagen table holds duplicate ids


def _clips_with_cross_file_duplicates(inp, n_files=6, rows_per_file=100):
    """Datagen shards, then each file's first clip_id copied into the last
    row of the next file: every duplicate spans two partitions when
    partitions hold one file."""
    import pyarrow.parquet as pq

    from gojsonschema_ray.datagen import write_clips_parquet

    write_clips_parquet(inp, n_files * rows_per_file, audio_cap_ms=20,
                        rows_per_file=rows_per_file)
    files = sorted(os.path.join(inp, f) for f in os.listdir(inp))
    firsts = [pq.read_table(f, columns=["clip_id"])["clip_id"][0].as_py()
              for f in files]
    for i, f in enumerate(files[1:], 1):
        _set_ids(f, {-1: firsts[i - 1]})
    return files


def _set_ids(path, ids_at):
    """Rewrite the clip_id of rows `ids_at` ({row: id}) of one shard."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pq.read_table(path)
    ids = t["clip_id"].to_pylist()
    for i, k in ids_at.items():
        ids[i] = k
    pq.write_table(t.set_column(t.schema.get_field_index("clip_id"),
                                "clip_id", pa.array(ids, pa.string())), path)


def _expected_duplicates(files):
    import collections

    import pyarrow.parquet as pq

    c = collections.Counter(k for f in files for k in
                            pq.read_table(f, columns=["clip_id"])["clip_id"]
                            .to_pylist() if k is not None)
    return sorted((k, str(n)) for k, n in c.items() if n > 1)


def test_rerun_other_plan_ignores_stale_keycounts(ray_session, tmp_path):
    """A re-run into the same out_dir with another files_per_partition
    rewrites every partition and recomputes __global__ from the key counts
    of the new plan only: the keycounts/ directories the old plan left
    behind (part-000002.. here) are not read."""
    from gojsonschema_ray.pipelines.flagship import run_flagship

    inp = str(tmp_path / "clips")
    files = _clips_with_cross_file_duplicates(inp)
    out = str(tmp_path / "out")
    run_flagship(inp, out, with_audio=False, files_per_partition=1)
    assert os.path.isdir(os.path.join(out, "keycounts", "part-000005"))
    run_flagship(inp, out, with_audio=False, files_per_partition=3)

    fresh = str(tmp_path / "fresh")
    run_flagship(inp, fresh, with_audio=False, files_per_partition=3)
    expected = _expected_duplicates(files)
    assert len(expected) >= 5
    assert _global_rows(out) == _global_rows(fresh) == expected


def test_metadata_only_run_is_one_fused_pass(ray_session, tmp_path,
                                             monkeypatch):
    """with_audio=False runs the same pass: one task per input file, so
    each fragment is read exactly once; the global check reads no input
    file (its reducers read only keycounts/, the driver reads nothing),
    and its rows equal the duplicates counted straight from the input."""
    import ray.data as rd

    from gojsonschema_ray.pipelines import flagship
    from gojsonschema_ray.stages import uniqueness

    inp = str(tmp_path / "clips")
    files = _clips_with_cross_file_duplicates(inp)
    reads = []
    orig_read = rd.read_parquet

    def spy_read(paths, *args, **kwargs):
        reads.append(paths)
        return orig_read(paths, *args, **kwargs)

    tasks = []
    orig_pass = flagship._fragment_pass

    class SpyPass:  # the task's one read is of its `fragment` argument
        def remote(self, input_dir, fragment, *args):
            tasks.append(fragment)
            return orig_pass.remote(input_dir, fragment, *args)

    reducer_reads = []
    orig_reduce = uniqueness._reduce_stored

    class SpyReduce:  # a reducer reads the files of its `paths` argument
        def remote(self, paths, *args):
            reducer_reads.append(paths)
            return orig_reduce.remote(paths, *args)

    monkeypatch.setattr(rd, "read_parquet", spy_read)
    monkeypatch.setattr(flagship, "_fragment_pass", SpyPass())
    monkeypatch.setattr(uniqueness, "_reduce_stored", SpyReduce())
    out = str(tmp_path / "out")
    s = flagship.run_flagship(inp, out, with_audio=False,
                              files_per_partition=1)

    assert s["rows"] == 600 and s["partitions"] == 7
    assert tasks == files  # each fragment read once, in plan order
    # the tasks read the input; the reducers read stored key counts only
    assert reads == []
    assert len(reducer_reads) == uniqueness.exchange_parts()
    assert all(len(p) == len(files) and all("/keycounts/" in f for f in p)
               for p in reducer_reads)
    assert _global_rows(out) == _expected_duplicates(files)


def test_summary_and_drift_cover_this_plan_only(ray_session, tmp_path):
    """A re-run into the same out_dir with another files_per_partition
    reports the summary and drift of its own plan, as a fresh run does:
    the old plan's committed partitions (part-000002.. here) are not
    counted."""
    from gojsonschema_ray.pipelines.flagship import run_flagship

    inp = str(tmp_path / "clips")
    _clips_with_cross_file_duplicates(inp)
    out = str(tmp_path / "out")
    run_flagship(inp, out, with_audio=False, files_per_partition=1)
    s = run_flagship(inp, out, with_audio=False, files_per_partition=3)
    fresh = run_flagship(inp, str(tmp_path / "fresh"), with_audio=False,
                         files_per_partition=3)
    assert s["rows"] == 600 and s["partitions"] == 3
    assert list(s["drift"]) == ["part-000000", "part-000001"]
    assert s == fresh


def test_uneven_partitions_commit_in_plan_order(ray_session, tmp_path):
    """Fragments of very different sizes over several partitions (3, 3 and
    1 files) all run in one call; the partitions commit in plan order,
    each with its fragments' rows, and every fragment leaves one
    violations and one keycounts file named by its index in the
    partition."""
    import pyarrow.parquet as pq

    from gojsonschema_ray.datagen import write_clips_parquet
    from gojsonschema_ray.pipelines.flagship import run_flagship

    staging, inp = str(tmp_path / "staging"), str(tmp_path / "clips")
    write_clips_parquet(staging, 1000, audio_cap_ms=20, rows_per_file=1000)
    t = pq.read_table(os.path.join(staging, os.listdir(staging)[0]))
    os.makedirs(inp)
    sizes, off = [500, 20, 30, 300, 100, 40, 10], 0
    for i, n in enumerate(sizes):
        pq.write_table(t.slice(off, n), os.path.join(inp, f"f-{i:02d}.parquet"))
        off += n
    out = str(tmp_path / "out")
    s = run_flagship(inp, out, files_per_partition=3, audio_cap_ms=20)

    lines = [json.loads(ln) for ln in
             open(os.path.join(out, "manifest.jsonl")).read().splitlines()]
    assert [ln["partition"] for ln in lines] == [
        "part-000000", "part-000001", "part-000002", "__global__"]
    assert [ln["rows"] for ln in lines[:3]] == [550, 440, 10]
    assert s["rows"] == 1000 and s["partitions"] == 4
    for ln in lines[:3]:
        names = [f"{j:06d}.parquet" for j in range(len(ln["fragments"]))]
        for sub in ("violations", "keycounts"):
            assert sorted(os.listdir(
                os.path.join(out, sub, ln["partition"]))) == names


def test_committed_partition_without_keycounts_reruns(ray_session, tmp_path,
                                                      monkeypatch):
    """A partition committed without a keycounts/ directory (an out_dir
    from before the key counts were stored) runs again, so the global check
    never misses its keys. The two runs tag key counts at different
    exchange widths (two cluster sizes; at widths 3 and 4 both duplicate
    ids get different tags); the global check still pairs each duplicate
    across them."""
    import shutil

    from gojsonschema_ray.pipelines.flagship import run_flagship
    from gojsonschema_ray.stages import uniqueness

    inp = str(tmp_path / "clips")
    files = _clips_with_cross_file_duplicates(inp, n_files=3)
    out = str(tmp_path / "out")
    monkeypatch.setattr(uniqueness, "exchange_parts", lambda: 3)
    run_flagship(inp, out, with_audio=False, files_per_partition=1)
    shutil.rmtree(os.path.join(out, "keycounts", "part-000001"))
    manifest = os.path.join(out, "manifest.jsonl")
    before = open(manifest).read().splitlines()
    monkeypatch.setattr(uniqueness, "exchange_parts", lambda: 4)
    run_flagship(inp, out, with_audio=False, files_per_partition=1)
    redone = [json.loads(ln)["partition"]
              for ln in open(manifest).read().splitlines()[len(before):]]
    assert redone == ["part-000001", "__global__"]
    assert _global_rows(out) == _expected_duplicates(files)


def test_global_without_duplicates_commits_zero(ray_session, tmp_path):
    """A table with no duplicate ids commits __global__ with 0 violations;
    violations/ still walks as a directory of partitions (the test's
    _global_rows and perfbench's Job.collect) and yields the per-partition
    rows only."""
    from gojsonschema_ray.datagen import write_clips_parquet
    from gojsonschema_ray.pipelines.flagship import run_flagship
    from perfbench.jobs import Job, Outcome

    inp = str(tmp_path / "clips")
    write_clips_parquet(inp, 400, audio_cap_ms=20, rows_per_file=100)
    for fi, f in enumerate(sorted(os.listdir(inp))):
        _set_ids(os.path.join(inp, f),
                 {i: f"clip-u{fi}-{i}" for i in range(100)})
    out = str(tmp_path / "out")
    s = run_flagship(inp, out, with_audio=False, files_per_partition=2)

    lines = [json.loads(ln) for ln in
             open(os.path.join(out, "manifest.jsonl")).read().splitlines()]
    assert lines[-1]["partition"] == "__global__"
    assert lines[-1]["violations"] == 0
    assert _global_rows(out) == []
    assert s["violations"] == sum(ln["violations"] for ln in lines[:-1])
    o = Outcome("clip_id")
    o.out_dir = out
    Job.collect(o)
    assert o.dups == {}
    assert sum(o.counts.values()) == s["violations"]


def test_global_counts_key_in_every_fragment(ray_session, tmp_path):
    """An id present in every fragment of every partition, and another
    repeated inside one fragment, each give ONE __global__ row carrying the
    total count."""
    from gojsonschema_ray.pipelines.flagship import run_flagship

    inp = str(tmp_path / "clips")
    files = _clips_with_cross_file_duplicates(inp)
    for f in files:
        _set_ids(f, {50: "clip-everywhere"})
    _set_ids(files[3], {10: "clip-within", 11: "clip-within",
                        12: "clip-within"})
    out = str(tmp_path / "out")
    run_flagship(inp, out, with_audio=False, files_per_partition=2)

    rows = _global_rows(out)
    assert rows == _expected_duplicates(files)
    assert [r for r in rows if r[0] in ("clip-everywhere", "clip-within")] \
        == [("clip-everywhere", str(len(files))), ("clip-within", "3")]


def test_failed_reducer_writes_no_global(ray_session, tmp_path, monkeypatch):
    """A global-check reducer that raises fails run_flagship: nothing is
    written into violations/__global__ and __global__ is not committed. A
    re-run then completes it."""
    import pytest
    import ray

    from gojsonschema_ray.pipelines.flagship import run_flagship
    from gojsonschema_ray.state.manifest import Manifest
    from gojsonschema_ray.stages import uniqueness

    inp = str(tmp_path / "clips")
    files = _clips_with_cross_file_duplicates(inp)

    @ray.remote(num_cpus=1, num_returns=2)
    def failing(paths, key, p, P):
        from gojsonschema_ray.stages import uniqueness  # unpatched here

        if p == 1:
            raise RuntimeError("reducer 1 failed")
        return uniqueness._reduce_stored._function(paths, key, p, P)

    monkeypatch.setattr(uniqueness, "_reduce_stored", failing)
    out = str(tmp_path / "out")
    with pytest.raises(Exception, match="reducer 1 failed"):
        run_flagship(inp, out, with_audio=False, files_per_partition=1)
    assert os.listdir(os.path.join(out, "violations", "__global__")) == []
    manifest = Manifest(os.path.join(out, "manifest.jsonl"))
    assert "__global__" not in manifest.committed
    assert len(manifest.committed) == len(files)

    monkeypatch.undo()
    s = run_flagship(inp, out, with_audio=False, files_per_partition=1)
    assert s["partitions"] == len(files) + 1
    assert _global_rows(out) == _expected_duplicates(files)
