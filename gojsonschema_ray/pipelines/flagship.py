"""Flagship pipeline: table-scale validation of the audio clips + transcript
table (BASELINE.json north_star), end to end:

    read_parquet (column-pruned, manifest-filtered)
      → map_batches(CombinedClipChecker)   # FUSED vectorized schema predicates
                                           #   + PCM/SNR invariants, one pass
                                           #   over the wide `bytes` column
      ∪ uniqueness on clip_id              # pre-aggregated coarse-partition
        (from a clip_id-only pruned read)  #   counted shuffle
      → write_parquet (partitioned, resumable)
      + sketch partials (map_batches → tiny driver merge)   # column stats
      + per-partition KS/PSI drift from manifest digests    # zero data passes
      + manifest commit per partition (lineage + metrics)

Design notes for 10^12-row scale:
- the ONLY all-to-all exchange is the uniqueness shuffle, and it moves
  (key, count) partials into ~#CPUs coarse buckets, never payload rows;
- the audio bytes stream exactly once (the fused checker); every other pass
  is column-pruned at the read and never deserializes `bytes`;
- the fused checker ships to stateless tasks by default so read decode and
  checks share all CPUs (see validate_clips docstring; actor-pool mode is
  one flag away for heavyweight decoder state);
- output is a directory tree per partition; a killed run resumes from the
  manifest, skipping committed partitions.
"""

from __future__ import annotations

import base64
import os
import pickle

import pyarrow as pa
import pyarrow.parquet as pq

from ..schema.compile import CompiledSchema, compile_schema
from ..stages.audio import AudioInvariantChecker
from ..stages.sketches import SketchStage, merge_sketch_partials
from ..stages.uniqueness import uniqueness_violations
from ..stages.validate import TableValidator
from ..state.manifest import Manifest

from ..util import collect_rows

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


def _clear_dir(path: str):
    if os.path.isdir(path):
        for f in os.listdir(path):
            os.unlink(os.path.join(path, f))


def _partition_files(files: list[str], files_per_partition: int) -> list[list[str]]:
    return [files[i:i + files_per_partition]
            for i in range(0, len(files), files_per_partition)]


def run_flagship(input_dir: str, out_dir: str, *,
                 ruleset: dict | None = None,
                 with_audio: bool = True,
                 files_per_partition: int = 4,
                 audio_concurrency: int = 4,
                 audio_batch_size: int | None = None,
                 audio_cap_ms: int = 50,
                 fragment_reader=None,
                 fragment_counter=None) -> dict:
    """Resumable production run over a partitioned clips table — parquet
    shards or a Lance dataset (the north-star storage).

    Partition = a group of fragments (parquet file paths, or Lance fragment
    ids via sources.io.read_fragments — only the reader differs behind the
    seam); each partition streams through the validators, writes its
    violations under out_dir/violations/<partition>/, and commits a manifest
    line (fragment ids, row/violation counts, sketch digests). A killed run
    re-invokes this and skips committed partitions. Global checks
    (uniqueness across partitions) run as a final counts-only pass recorded
    under the "__global__" partition. `fragment_reader`/`fragment_counter`
    override the pylance per-fragment scan (tests inject parquet-backed
    fakes)."""
    import ray.data as rd

    from ..sources.io import (
        fragment_row_count, list_fragments, read_fragments, read_table,
    )

    tree = compile_schema(ruleset or
                          (DEFAULT_RULESET if with_audio else META_RULESET))
    manifest = Manifest(os.path.join(out_dir, "manifest.jsonl"))
    files = list_fragments(input_dir)  # Lance fragment ids or parquet paths
    lance_mode = any(str(f).startswith("fragment:") for f in files)
    partitions = _partition_files(files, files_per_partition)

    for pi, frag in enumerate(partitions):
        pname = f"part-{pi:06d}"
        if manifest.is_committed_for(pname, frag):
            continue  # committed AND same fragments — safe to skip

        ds = read_fragments(input_dir, frag,
                            columns=AUDIO_COLUMNS if with_audio else META_COLUMNS,
                            fragment_reader=fragment_reader)
        viol = validate_clips(ds, tree, with_audio=with_audio,
                              with_uniqueness=False,  # global, see below
                              audio_concurrency=audio_concurrency,
                              audio_batch_size=audio_batch_size,
                              audio_cap_ms=audio_cap_ms)
        vdir = os.path.join(out_dir, "violations", pname)
        _clear_dir(vdir)  # uncommitted leftovers from a killed run
        viol.write_parquet(vdir)
        # sketch partials for lineage (metadata columns only — cheap second
        # scan that never touches `bytes`)
        meta_ds = read_fragments(input_dir, frag, columns=["sr_hz", "dur_ms"],
                                 fragment_reader=fragment_reader)
        partials = meta_ds.map_batches(SketchStage(["sr_hz", "dur_ms"]),
                                       batch_format="pyarrow")
        partials = collect_rows(partials)
        merged = merge_sketch_partials(partials)
        digests = {k: base64.b64encode(pickle.dumps(v)).decode() for k, v in merged.items()}
        rows = sum(fragment_row_count(input_dir, f, fragment_counter)
                   for f in frag)
        viols = sum(pq.read_metadata(os.path.join(vdir, f)).num_rows
                    for f in os.listdir(vdir) if f.endswith(".parquet"))
        manifest.commit(pname, frag, rows, viols, {"sketches": digests})

    # global uniqueness over ALL files (counts-only partial aggregation).
    # Lance mode streams the pruned clip_id column via the dataset reader
    # (per-fragment materialization of every id would spill at 10^12 rows);
    # with an INJECTED fragment_reader the global pass goes through the same
    # seam as the partition scans (read_table would bypass the injection —
    # the pruned column set keeps the per-fragment tables small)
    if not manifest.is_committed_for("__global__", files):
        if lance_mode and fragment_reader is not None:
            ds_all = read_fragments(input_dir, files, columns=["clip_id"],
                                    fragment_reader=fragment_reader)
        else:
            # consolidate the key scan into ~#CPUs blocks: a trivial-compute
            # pruned read at one-block-per-fragment granularity pays more in
            # per-task overhead than in work (measured 4x on 98 files)
            import ray

            ncpus = int(ray.cluster_resources().get("CPU", 8)) \
                if ray.is_initialized() else 8
            ds_all = read_table(input_dir if lance_mode else files,
                                columns=["clip_id"],
                                override_num_blocks=ncpus)
        uviol = uniqueness_violations(ds_all, "clip_id")
        udir = os.path.join(out_dir, "violations", "__global__")
        _clear_dir(udir)
        uviol.write_parquet(udir)
        uv = sum(pq.read_metadata(os.path.join(udir, f)).num_rows
                 for f in os.listdir(udir) if f.endswith(".parquet"))
        manifest.commit("__global__", files, 0, uv)

    summary = manifest.summary()
    summary["drift"] = partition_drift(manifest, columns=("sr_hz", "dur_ms"))
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
