"""Flagship pipeline: table-scale validation of the audio clips + transcript
table (BASELINE.json north_star), end to end.

run_flagship groups the table's fragments (parquet files or Lance fragment
ids) into partitions of `files_per_partition` and runs the pending ones in
waves of max(1, cluster CPUs // files_per_partition) partitions. Each wave
is ONE fused Ray Data operator, ReadParquet->MapBatches->Write, that reads
every fragment of the wave once, as one block:

    read_fragments (column-pruned, one block per fragment, `path`-tagged)
      → map_batches(PartitionPass)   # per fragment: violations (schema
                                     #   predicates + PCM/SNR invariants),
                                     #   KeyCountStage(clip_id) partial and
                                     #   SketchStage(sr_hz, dur_ms) partial
      → write_datasink(PartitionSink)

Output layout under out_dir:

    violations/<partition>/<task>.parquet   violation rows
    keycounts/<partition>/<task>.parquet    (clip_id, cnt, part) partials
    violations/__global__/                  cross-partition duplicate ids
    manifest.jsonl                          one commit line per partition

Key counts live outside violations/ because readers treat every directory
there as violation rows. After a wave's write completes the driver commits
each of its partitions — fragments, rows, violation count, sketch digests —
once the rows the pass saw equal the fragments' footer counts. A killed
run resumes from the manifest: the resume unit is one wave, at most one
cluster width of fragments. Global uniqueness aggregates the stored key
counts of the current partition plan's partitions (one exchange of
(key, count) partials, never payload rows), so no pass reads clip_id
again; per-partition KS/PSI drift comes from the manifest digests alone.
"""

from __future__ import annotations

import base64
import os
import pickle

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Datasink
from ray.data.block import BlockAccessor

from ..schema.compile import CompiledSchema, compile_schema
from ..stages.audio import AudioInvariantChecker
from ..stages.exchange import exchange_parts
from ..stages.sketches import SketchStage, merge_sketch_partials
from ..stages.uniqueness import (
    KeyCountStage, key_count_violations, uniqueness_violations,
)
from ..stages.validate import TableValidator
from ..state.manifest import Manifest
# perfbench/layers.py wraps flagship.collect_rows by name
from ..util import collect_rows  # noqa: F401

# Default ruleset over one clips row viewed as a JSON object (FIXTURES.md F1).
DEFAULT_RULESET = {
    "type": "object",
    "required": ["clip_id", "bytes", "sr_hz", "dur_ms", "codec", "transcript"],
    "properties": {
        "clip_id": {"type": "string", "pattern": "^clip-[0-9a-z-]+$"},
        "sr_hz": {"type": "integer", "enum": [8000, 16000, 22050, 44100, 48000]},
        "dur_ms": {"type": "integer", "exclusiveMinimum": 0, "maximum": 3600000,
                   "multipleOf": 1},
        "codec": {"type": "string", "enum": ["pcm_s16le", "wav"]},
        "transcript": {"type": "string", "minLength": 1, "maxLength": 10000},
    },
}

META_COLUMNS = ["clip_id", "sr_hz", "dur_ms", "codec", "transcript"]
SKETCH_COLUMNS = ["sr_hz", "dur_ms"]
AUDIO_COLUMNS = ["clip_id", "bytes", "sr_hz", "dur_ms", "codec", "transcript"]

# metadata-only runs read no `bytes` column — requiring it would flag EVERY
# row; same rules otherwise
META_RULESET = {
    **DEFAULT_RULESET,
    "required": [r for r in DEFAULT_RULESET["required"] if r != "bytes"],
}


def compiled_default_ruleset() -> CompiledSchema:
    return compile_schema(DEFAULT_RULESET)


def schema_violations(ds, tree: CompiledSchema | None = None,
                      key_column: str = "clip_id"):
    """Stateless vectorized predicate pass → violations Dataset."""
    tree = tree or compiled_default_ruleset()
    tv = TableValidator(tree, key_column=key_column, mode="violations")
    return ds.map_batches(tv, batch_format="pyarrow")


class CombinedClipChecker:
    """Fused actor-pool payload: vectorized schema predicates + PCM invariant
    checks in ONE pass over each batch.

    Fusing matters because a union of separate schema/audio streams makes Ray
    re-execute the (bytes-heavy) read once per branch — the fused stage reads
    every block exactly once. State (compiled tree evaluator caches, decoder
    table) is built once per actor."""

    def __init__(self, tree: CompiledSchema, snr_db: float = 30.0,
                 audio_cap_ms: int = 50, key_column: str = "clip_id"):
        self.tv = TableValidator(tree, key_column=key_column, mode="violations")
        self.audio = AudioInvariantChecker(snr_db=snr_db,
                                           audio_cap_ms=audio_cap_ms)

    def __call__(self, batch: pa.Table) -> pa.Table:
        schema_v = self.tv(batch)
        audio_v = self.audio(batch)
        if schema_v.num_rows == 0:
            return audio_v
        if audio_v.num_rows == 0:
            return schema_v
        return pa.concat_tables([schema_v, audio_v])


def validate_clips(ds, tree: CompiledSchema | None = None, *,
                   with_audio: bool = True, with_uniqueness: bool = True,
                   audio_concurrency: int = 4, audio_batch_size: int | None = None,
                   audio_cap_ms: int = 50, uniqueness_ds=None,
                   use_actor_pool: bool = False):
    """One streaming violations Dataset over a clips Dataset.

    with_audio=True runs the FUSED schema+audio stage (one read of the wide
    `bytes` column, not one per check family). Uniqueness runs over
    `uniqueness_ds` when given — pass a clip_id-only read so the key scan
    never touches audio bytes — else over `ds`.

    use_actor_pool=False (default) ships the checker instance to stateless
    TASKS: Ray Data fuses ReadParquet→MapBatches into one operator, so read
    decode and PCM checks share every CPU dynamically. A fixed actor pool
    statically partitions the cluster (N CPUs pinned to checkers can't help
    the read) and measured ~2x slower end-to-end here. Flip to True when the
    per-actor state is genuinely expensive to build (real codec contexts,
    models) — construction cost then amortizes across the actor's lifetime."""
    if with_audio:
        tree = tree or compiled_default_ruleset()
        if use_actor_pool:
            out = ds.map_batches(
                CombinedClipChecker,
                fn_constructor_kwargs={"tree": tree, "audio_cap_ms": audio_cap_ms},
                batch_format="pyarrow",
                batch_size=audio_batch_size,
                # autoscaling: a fixed-size pool can deadlock against a
                # previous run's not-yet-torn-down actors on a full cluster
                concurrency=(1, audio_concurrency),
                num_cpus=1,
            )
        else:
            checker = CombinedClipChecker(tree, audio_cap_ms=audio_cap_ms)
            out = ds.map_batches(
                checker,
                batch_format="pyarrow",
                batch_size=audio_batch_size,
            )
    else:
        out = schema_violations(ds, tree)
    if with_uniqueness:
        out = out.union(uniqueness_violations(uniqueness_ds or ds, "clip_id"))
    return out


def _reset_dir(path: str):
    """Create `path`, or empty it of a killed run's leftovers."""
    os.makedirs(path, exist_ok=True)
    for f in os.listdir(path):
        os.unlink(os.path.join(path, f))


def _partition_files(files: list[str], files_per_partition: int) -> list[list[str]]:
    return [files[i:i + files_per_partition]
            for i in range(0, len(files), files_per_partition)]


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _from_ipc(b: bytes) -> pa.Table:
    return pa.ipc.open_stream(b).read_all()


_PASS_SCHEMA = pa.schema([("fragment", pa.string()), ("rows", pa.int64()),
                          ("violations", pa.binary()),
                          ("keycounts", pa.binary()),
                          ("sketches", pa.binary())])


class PartitionPass:
    """map_batches payload of run_flagship's one pass over a wave.

    Each batch (one fragment's block, tagged in a `path` column by
    read_fragments) becomes one row per fragment it holds: the fragment,
    its rows seen and — as Arrow IPC bytes — its violations (`checker`),
    its KeyCountStage(clip_id) partial and its SketchStage partial. All
    three come from the batch already in memory, so nothing reads the table
    a second time."""

    def __init__(self, checker):
        self.checker = checker
        self.keys = KeyCountStage("clip_id")
        self.sketch = SketchStage(SKETCH_COLUMNS)

    def __call__(self, batch: pa.Table) -> pa.Table:
        paths = pc.unique(batch["path"]).to_pylist()
        rows = []
        for path in paths:
            sub = batch if len(paths) == 1 else \
                batch.filter(pc.equal(batch["path"], path))
            sub = sub.drop_columns(["path"])
            rows.append({
                "fragment": path, "rows": sub.num_rows,
                "violations": _ipc(self.checker(sub)),
                "keycounts": _ipc(self.keys(sub)),
                "sketches": _ipc(self.sketch(sub)),
            })
        return pa.Table.from_pylist(rows, schema=_PASS_SCHEMA)


class PartitionSink(Datasink):
    """Write side of the pass: per (partition, write task) one violations
    file under out_dir/violations/<partition>/ and one key-count file under
    out_dir/keycounts/<partition>/, both named after the task index, so a
    retried task overwrites its own files. Each task returns, per fragment,
    its rows seen, violation count and sketch partials; they are in
    `results` once the write completes."""

    def __init__(self, out_dir: str, owner: dict[str, str]):
        self.out_dir = out_dir
        self.owner = owner  # fragment -> partition name
        self.results: list[dict] = []

    def write(self, blocks, ctx) -> list[dict]:
        tables = {"violations": {}, "keycounts": {}}
        out = []
        for block in blocks:
            for r in BlockAccessor.for_block(block).to_arrow().to_pylist():
                part = self.owner[r["fragment"]]
                viol = _from_ipc(r["violations"])
                tables["violations"].setdefault(part, []).append(viol)
                tables["keycounts"].setdefault(part, []).append(
                    _from_ipc(r["keycounts"]))
                out.append({"fragment": r["fragment"], "rows": r["rows"],
                            "violations": viol.num_rows,
                            "sketches": _from_ipc(r["sketches"]).to_pylist()})
        name = f"{ctx.task_idx:06d}.parquet"
        for sub, by_part in tables.items():
            for part, ts in by_part.items():
                d = os.path.join(self.out_dir, sub, part)
                os.makedirs(d, exist_ok=True)
                pq.write_table(pa.concat_tables(ts), os.path.join(d, name))
        return out

    def on_write_complete(self, write_result):
        self.results = [r for task in write_result.write_returns for r in task]


def _run_wave(input_dir: str, out_dir: str, wave: list[tuple[str, list[str]]],
              checker, manifest: Manifest, *, columns: list[str],
              batch_size: int | None, fragment_reader, fragment_counter):
    """One fused ReadParquet->MapBatches(PartitionPass)->Write execution over
    every fragment of `wave`, then one manifest commit per partition, in
    plan order, once its rows seen equal its fragments' footer counts.
    Sketch partials merge in fragment order, so the digests do not depend
    on which write task finished first."""
    from ..sources.io import fragment_row_count, read_fragments

    owner = {f: pname for pname, frag in wave for f in frag}
    for pname, _ in wave:
        _reset_dir(os.path.join(out_dir, "violations", pname))
        _reset_dir(os.path.join(out_dir, "keycounts", pname))
    ds = read_fragments(input_dir, list(owner), columns=columns,
                        fragment_reader=fragment_reader)
    sink = PartitionSink(out_dir, owner)
    ds.map_batches(PartitionPass(checker), batch_format="pyarrow",
                   batch_size=batch_size).write_datasink(sink)

    seen = {f: [] for f in owner}
    for r in sink.results:
        seen[r["fragment"]].append(r)
    for pname, frag in wave:
        recs = [r for f in frag for r in seen[f]]
        rows = sum(r["rows"] for r in recs)
        expected = sum(fragment_row_count(input_dir, f, fragment_counter)
                       for f in frag)
        if rows != expected:
            raise RuntimeError(
                f"{pname}: the pass saw {rows} rows, its fragments hold "
                f"{expected}; not committing")
        merged = merge_sketch_partials(p for r in recs for p in r["sketches"])
        digests = {k: base64.b64encode(pickle.dumps(v)).decode()
                   for k, v in merged.items()}
        manifest.commit(pname, frag, rows, sum(r["violations"] for r in recs),
                        {"sketches": digests})


def run_flagship(input_dir: str, out_dir: str, *,
                 ruleset: dict | None = None,
                 with_audio: bool = True,
                 files_per_partition: int = 4,
                 audio_batch_size: int | None = None,
                 audio_cap_ms: int = 50,
                 fragment_reader=None,
                 fragment_counter=None) -> dict:
    """Resumable production run over a partitioned clips table — parquet
    shards or a Lance dataset (the north-star storage).

    Partition = a group of `files_per_partition` fragments (parquet file
    paths, or Lance fragment ids via sources.io.read_fragments — only the
    reader differs behind the seam). Pending partitions run in waves of
    max(1, cluster CPUs // files_per_partition), one fused pass per wave
    (see the module docstring); each partition of a wave then commits a
    manifest line (fragment ids, row/violation counts, sketch digests). A
    killed run re-invokes this and skips committed partitions. Global
    uniqueness across partitions aggregates the stored key counts of the
    current plan's partitions and is recorded under the "__global__"
    partition. `fragment_reader`/`fragment_counter` override the pylance
    per-fragment scan (tests inject parquet-backed fakes)."""
    import ray.data as rd

    from ..sources.io import list_fragments

    tree = compile_schema(ruleset or
                          (DEFAULT_RULESET if with_audio else META_RULESET))
    if with_audio:
        checker = CombinedClipChecker(tree, audio_cap_ms=audio_cap_ms)
    else:
        checker = TableValidator(tree, key_column="clip_id", mode="violations")
    manifest = Manifest(os.path.join(out_dir, "manifest.jsonl"))
    files = list_fragments(input_dir)  # Lance fragment ids or parquet paths
    plan = [(f"part-{pi:06d}", frag) for pi, frag in
            enumerate(_partition_files(files, files_per_partition))]
    # a partition committed without a keycounts/ directory (an older
    # layout) has no key counts for the global check: run it again
    pending = [(pname, frag) for pname, frag in plan
               if not manifest.is_committed_for(pname, frag)
               or not os.path.isdir(os.path.join(out_dir, "keycounts", pname))]

    # a wave holds about one fragment per cluster CPU
    width = max(1, exchange_parts() // files_per_partition)
    for i in range(0, len(pending), width):
        _run_wave(input_dir, out_dir, pending[i:i + width], checker, manifest,
                  columns=AUDIO_COLUMNS if with_audio else META_COLUMNS,
                  batch_size=audio_batch_size,
                  fragment_reader=fragment_reader,
                  fragment_counter=fragment_counter)

    # global uniqueness from the stored key counts of THIS plan's
    # partitions (a re-run with another files_per_partition leaves stale
    # keycounts/ directories behind); recomputed whenever a partition was
    if pending or not manifest.is_committed_for("__global__", files):
        kdirs = [os.path.join(out_dir, "keycounts", pname) for pname, _ in plan]
        kfiles = [os.path.join(d, f) for d in kdirs
                  for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
        udir = os.path.join(out_dir, "violations", "__global__")
        _reset_dir(udir)
        if kfiles:
            counts = rd.read_parquet(
                kfiles, override_num_blocks=min(len(kfiles), exchange_parts()))
            key_count_violations(counts, "clip_id").write_parquet(udir)
        uv = sum(pq.read_metadata(os.path.join(udir, f)).num_rows
                 for f in os.listdir(udir) if f.endswith(".parquet"))
        manifest.commit("__global__", files, 0, uv)

    summary = manifest.summary()
    summary["drift"] = partition_drift(manifest, columns=tuple(SKETCH_COLUMNS))
    return summary


def partition_drift(manifest: Manifest, columns=("sr_hz", "dur_ms"),
                    bins: int = 64) -> dict:
    """KS/PSI of each committed partition vs the global distribution, computed
    purely from the manifest's sketch digests (the north-star drift check on
    sr_hz / dur_ms) — zero extra data passes at any scale."""
    from ..stages.drift import drift_from_digests

    per_part: dict[str, dict] = {}
    merged: dict[str, object] = {}
    for pname, rec in manifest.committed.items():
        digs = rec.get("sketches")
        if not digs:
            continue
        stats = {c: pickle.loads(base64.b64decode(digs[c]))
                 for c in columns if c in digs}
        per_part[pname] = stats
        for c, st in stats.items():
            if c in merged:
                merged[c].merge(st)
            else:
                merged[c] = pickle.loads(base64.b64decode(digs[c]))
    report: dict[str, dict] = {}
    for pname, stats in per_part.items():
        report[pname] = {
            c: drift_from_digests(st.digest, merged[c].digest, bins=bins)
            for c, st in stats.items() if st.digest is not None
        }
    return report
