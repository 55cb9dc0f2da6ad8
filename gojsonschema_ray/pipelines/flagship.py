"""Flagship pipeline: table-scale validation of the audio clips + transcript
table (BASELINE.json north_star), end to end.

run_flagship groups the table's fragments (parquet files or Lance fragment
ids) into partitions of `files_per_partition` and runs ONE plain Ray task
per pending fragment (_fragment_pass), keeping 2 x cluster CPUs of them in
flight. Each task reads its fragment once (sources.io.read_fragment,
column-pruned) and from that one table computes

    violations (schema predicates + PCM/SNR invariants)
    KeyCountStage(clip_id) partial   -> written next to the violations
    SketchStage(sr_hz, dur_ms) partial -> returned to the driver

Output layout under out_dir:

    violations/<partition>/<j>.parquet   violation rows of fragment j
    keycounts/<partition>/<j>.parquet    (clip_id, cnt, part) partials
    violations/__global__/               cross-partition duplicate ids
    manifest.jsonl                       one commit line per partition

A file is named by its fragment's index in the partition, so a retried
task overwrites its own files. A keycounts file is sorted by `part`
(the exchange's partition hash of clip_id at P = cluster CPUs), one row
group per part value, with P in its schema metadata (KeyCountStage.write).
Key counts live outside violations/ because readers treat every directory
there as violation rows. The driver commits partitions in plan order as
soon as a partition and every partition before it have reported — fragments, rows,
violation count, sketch digests merged in fragment order — once the rows
the tasks saw equal the fragments' footer counts. A killed run resumes from the manifest: the resume unit is one
partition. On any error the driver cancels the outstanding tasks and waits
for them before raising, so no task of a failed run writes into out_dir
afterwards.

Global uniqueness reduces the stored key counts of the current partition
plan's partitions — the keycounts files are the shuffle's map side, kept
for resume — with P plain Ray reducer tasks
(stages.uniqueness.stored_key_count_violations): reducer p reads only the
row groups of part p (a file tagged at another width, or from before the
layout, whole and re-tagged), so no pass reads clip_id again and no Ray
Data exchange runs. Once every reducer has returned, ONE Ray Data write
stores their duplicate-id rows in violations/__global__; a reducer error
raises before anything is written there. Per-partition KS/PSI drift comes
from the manifest digests alone.
"""

from __future__ import annotations

import base64
import os
import pickle

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..schema.compile import CompiledSchema, compile_schema
from ..sources.io import fragment_row_count, list_fragments, read_fragment
from ..stages.audio import AudioInvariantChecker
from ..stages.exchange import broadcast, exchange_parts
from ..stages.sketches import SketchStage, merge_sketch_partials
from ..stages.uniqueness import (
    KeyCountStage, stored_key_count_violations, uniqueness_violations,
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
    """Vectorized schema predicates + PCM invariant checks in ONE pass over
    each batch.

    Fusing matters because a union of separate schema/audio streams makes Ray
    re-execute the (bytes-heavy) read once per branch — the fused stage reads
    every block exactly once."""

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
                   audio_batch_size: int | None = None,
                   audio_cap_ms: int = 50, uniqueness_ds=None):
    """One streaming violations Dataset over a clips Dataset.

    with_audio=True runs the FUSED schema+audio stage (one read of the wide
    `bytes` column, not one per check family) as stateless tasks: Ray Data
    fuses ReadParquet→MapBatches into one operator, so read decode and PCM
    checks share every CPU. Uniqueness runs over `uniqueness_ds` when given
    — pass a clip_id-only read so the key scan never touches audio bytes —
    else over `ds`."""
    if with_audio:
        checker = CombinedClipChecker(tree or compiled_default_ruleset(),
                                      audio_cap_ms=audio_cap_ms)
        out = ds.map_batches(checker, batch_format="pyarrow",
                             batch_size=audio_batch_size)
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


@ray.remote(num_cpus=1)
def _fragment_pass(input_dir: str, fragment: str, columns: list[str],
                   fragment_reader, stages, out_dir: str, part: str,
                   j: int) -> dict:
    """run_flagship's pass over one fragment: one read, then violations
    (`checker`) and the KeyCountStage partial written as
    violations|keycounts/<part>/<j>.parquet, and the rows seen, violation
    count and SketchStage partials returned. `stages` is the broadcast
    (checker, keys, sketch) triple, fetched once per task."""
    checker, keys, sketch = stages.get()
    t = read_fragment(input_dir, fragment, columns, fragment_reader)
    viol = checker(t)
    name = f"{j:06d}.parquet"
    pq.write_table(viol, os.path.join(out_dir, "violations", part, name))
    keys.write(t, os.path.join(out_dir, "keycounts", part, name))
    return {"rows": t.num_rows, "violations": viol.num_rows,
            "sketches": sketch(t).to_pylist()}


def _commit(input_dir: str, manifest: Manifest, pname: str,
            frag: list[str], recs: list[dict], fragment_counter):
    """Commit one partition once the rows its tasks saw equal its
    fragments' footer counts; sketch partials merge in fragment order, so
    the digests do not depend on which task finished first."""
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


def _run_pass(input_dir: str, out_dir: str,
              pending: list[tuple[str, list[str]]], stages,
              manifest: Manifest, *, columns: list[str], fragment_reader,
              fragment_counter):
    """One _fragment_pass task per fragment of `pending`, 2 x cluster CPUs
    in flight so a CPU never waits for the driver; each partition commits,
    in plan order, as soon as it and every partition before it have
    reported. On any error the outstanding tasks are cancelled and waited
    for before it propagates."""
    todo = [(pi, j, f) for pi, (_, frag) in enumerate(pending)
            for j, f in enumerate(frag)]
    recs = [[None] * len(frag) for _, frag in pending]
    stages = broadcast(stages)
    window = 2 * exchange_parts()
    running: dict = {}  # task ref -> (partition index, fragment index)
    launched = committed = 0
    try:
        while committed < len(pending):
            while launched < len(todo) and len(running) < window:
                pi, j, f = todo[launched]
                pname = pending[pi][0]
                if j == 0:
                    _reset_dir(os.path.join(out_dir, "violations", pname))
                    _reset_dir(os.path.join(out_dir, "keycounts", pname))
                ref = _fragment_pass.remote(input_dir, f, columns,
                                            fragment_reader, stages, out_dir,
                                            pname, j)
                running[ref] = (pi, j)
                launched += 1
            [ref], _ = ray.wait(list(running), num_returns=1)
            pi, j = running.pop(ref)
            recs[pi][j] = ray.get(ref)
            while committed < len(pending) and None not in recs[committed]:
                pname, frag = pending[committed]
                _commit(input_dir, manifest, pname, frag, recs[committed],
                        fragment_counter)
                committed += 1
    except BaseException:
        for ref in running:
            ray.cancel(ref)
        if running:
            ray.wait(list(running), num_returns=len(running))
        raise


def run_flagship(input_dir: str, out_dir: str, *,
                 ruleset: dict | None = None,
                 with_audio: bool = True,
                 files_per_partition: int = 4,
                 audio_cap_ms: int = 50,
                 fragment_reader=None,
                 fragment_counter=None) -> dict:
    """Resumable production run over a partitioned clips table — parquet
    shards or a Lance dataset (the north-star storage).

    Partition = a group of `files_per_partition` fragments (parquet file
    paths, or Lance fragment ids — only sources.io.read_fragment's reader
    differs). Every pending fragment runs as one task (see the module
    docstring); each partition then commits a manifest line (fragment ids,
    row/violation counts, sketch digests). A killed run re-invokes this
    and skips committed partitions. Global uniqueness across partitions
    reduces the stored key counts of the current plan's partitions in P
    plain reducer tasks, written by one Ray Data write and recorded under
    the "__global__" partition. The summary and drift
    cover this plan's partitions and "__global__" only.
    `fragment_reader`/`fragment_counter` override the pylance per-fragment
    scan and row count (tests inject parquet-backed fakes)."""
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
    _run_pass(input_dir, out_dir, pending,
              (checker, KeyCountStage("clip_id"), SketchStage(SKETCH_COLUMNS)),
              manifest, columns=AUDIO_COLUMNS if with_audio else META_COLUMNS,
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
            stored_key_count_violations(kfiles, "clip_id").write_parquet(udir)
        uv = sum(pq.read_metadata(os.path.join(udir, f)).num_rows
                 for f in os.listdir(udir) if f.endswith(".parquet"))
        manifest.commit("__global__", files, 0, uv)

    parts = [pname for pname, _ in plan] + ["__global__"]
    summary = manifest.summary(parts)
    summary["drift"] = partition_drift(manifest, parts,
                                       columns=tuple(SKETCH_COLUMNS))
    return summary


def partition_drift(manifest: Manifest, partitions: list[str],
                    columns=("sr_hz", "dur_ms"), bins: int = 64) -> dict:
    """KS/PSI of each committed partition of `partitions` (in that order)
    vs their global distribution, computed purely from the manifest's
    sketch digests (the north-star drift check on sr_hz / dur_ms) — zero
    extra data passes at any scale."""
    from ..stages.drift import drift_from_digests

    per_part: dict[str, dict] = {}
    merged: dict[str, object] = {}
    for pname, rec in manifest.records(partitions):
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
