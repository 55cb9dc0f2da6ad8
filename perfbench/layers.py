"""Per-layer measurements for the traced run.

Two sources, both recorded as spans by the benchmark around its calls into
the package's modules:

- ``traced_job``: one end-to-end Ray job with the modules' public functions
  wrapped, plus the Ray Data operator wall times from ``Dataset.stats()``;
- ``replay``: each layer driven alone, in this process, over the
  workload's own blocks (read with pyarrow), so its self time has no Ray
  overhead in it.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .jobs import Job
from .workloads import CLIPS_CAP_MS, FAMILIES, Inputs, family_ruleset

# rows a family replay runs over (the leading blocks of the workload)
FAMILY_ROWS = 65_536
GENERIC_DOCS = 1_000
COMPILE_REPEATS = 5

# replay spans whose self times make up each workload's job
JOB_LAYERS = {
    "rows": ["sources.io.read_blocks", "stages.validate.validate",
             "stages.validate.violations_table", "stages.uniqueness.partial"],
    "json": ["sources.io.read_blocks", "sources.jsonl.fast",
             "stages.validate.violations_table"],
    "clips": ["sources.io.read_blocks", "stages.validate.validate",
              "stages.validate.violations_table", "stages.audio.check",
              "stages.sketches.partial", "stages.uniqueness.partial"],
}


def op_bucket(op) -> str:
    """Coarse class of a Ray Data operator: exchange, write, read or map."""
    if op.is_sub_operator:
        return "exchange"
    if "Write" in op.operator_name:
        return "write"
    if op.operator_name.startswith("Read"):
        return "read"
    return "map"


def op_walls(summaries) -> dict[str, float]:
    """Sum of operator wall times per bucket over executed datasets."""
    seen, out = set(), defaultdict(float)
    todo = list(summaries)
    while todo:
        s = todo.pop()
        todo.extend(s.parents)
        for op in s.operators_stats:
            key = (op.operator_name, op.earliest_start_time)
            if key in seen or not op.time_total_s:
                continue
            seen.add(key)
            out[op_bucket(op)] += op.time_total_s
    return {f"ray_data.op_wall_s.{k}": v for k, v in out.items()}


@contextlib.contextmanager
def _instrumented(tr, kind: str, summaries: list):
    """Wrap the module functions a job of this kind calls."""
    import ray.data as rd

    from gojsonschema_ray.pipelines import flagship
    from gojsonschema_ray.sources import io, jsonl
    from gojsonschema_ray.stages import uniqueness
    from gojsonschema_ray.state.manifest import Manifest

    def keep_write_stats(rec, args, result):
        summaries.append(args[0]._write_ds._get_stats_summary())

    def keep_stats(rec, args, result):
        summaries.append(args[0]._get_stats_summary())

    def partition(rec, args, result):
        rec["partition"] = args[1]

    with contextlib.ExitStack() as st:
        st.enter_context(tr.instrument(io, "read_table", "sources.io.read_table"))
        if kind == "json":
            st.enter_context(tr.instrument(
                jsonl, "validate_jsonl_column_fast",
                "sources.jsonl.validate_jsonl_column_fast"))
        st.enter_context(tr.instrument(
            uniqueness, "uniqueness_violations",
            "stages.uniqueness.uniqueness_violations"))
        if kind == "clips":
            for owner, attr, name, hook in (
                    (flagship, "run_flagship", "pipelines.flagship.run_flagship", None),
                    (io, "read_fragments", "sources.io.read_fragments", None),
                    (flagship, "validate_clips", "pipelines.flagship.validate_clips", None),
                    (flagship, "uniqueness_violations",
                     "stages.uniqueness.uniqueness_violations", None),
                    (flagship, "collect_rows", "stages.sketches.collect_partials",
                     keep_stats),
                    (flagship, "merge_sketch_partials",
                     "stages.sketches.merge_sketch_partials", None),
                    (flagship, "partition_drift", "pipelines.flagship.partition_drift",
                     None),
                    (rd.Dataset, "write_parquet", "pipelines.flagship.write",
                     keep_write_stats),
                    (Manifest, "is_committed_for", "state.manifest.is_committed_for",
                     partition),
                    (Manifest, "commit", "state.manifest.commit", partition)):
                st.enter_context(tr.instrument(owner, attr, name, hook))
        yield


def traced_job(job: Job, tr) -> tuple[float, dict, object]:
    """One end-to-end job with spans; returns (wall s, metrics, outcome)."""
    kind = job.inputs.spec.kind
    summaries: list = []
    with _instrumented(tr, kind, summaries):
        t0 = time.perf_counter()
        with tr.span("job"):
            out = job.run()
        wall = time.perf_counter() - t0
    Job.collect(out)
    summaries += [d._get_stats_summary() for d in out.datasets]
    m = op_walls(summaries)
    if kind == "clips":
        starts = {s["partition"]: s["start"]
                  for s in tr.named("state.manifest.is_committed_for", tr.job)}
        parts = sorted(s["end"] - starts[s["partition"]]
                       for s in tr.named("state.manifest.commit", tr.job)
                       if s["partition"] != "__global__")
        m["pipelines.flagship.write_s"] = tr.total("pipelines.flagship.write", tr.job)
        m["pipelines.flagship.partition_s_p50"] = statistics.median(parts)
        m["pipelines.flagship.partition_s_tail"] = parts[-1]
        m["state.manifest.commit_s"] = tr.total("state.manifest.commit", tr.job)
        m["state.manifest.bytes"] = out.manifest_bytes
    return wall, m, out


def _sample_docs(inputs: Inputs, blocks: list[pa.Table]) -> list:
    """Up to GENERIC_DOCS rows of the leading block as JSON documents."""
    from gojsonschema_ray.schema import parse_json

    first = blocks[0].slice(0, GENERIC_DOCS)
    if inputs.spec.kind == "json":
        return [parse_json(s) for s in first["doc"].to_pylist()
                if s is not None and _parses(s)]
    if inputs.spec.kind == "clips":
        first = first.drop_columns(["bytes"])
    return [{k: v for k, v in row.items() if v is not None}
            for row in first.to_pylist()]


def _parses(s: str) -> bool:
    import json

    try:
        json.loads(s)
        return True
    except ValueError:
        return False


def _decoded(blocks: list[pa.Table]) -> list[pa.Table]:
    """JSON blocks decoded to tables the way the fast path decodes them;
    blocks holding a malformed document are left out."""
    import polars as pl

    out = []
    for b in blocks:
        try:
            arr = pl.from_arrow(b["doc"]).str.json_decode().to_arrow()
        except Exception:  # noqa: BLE001 — polars raises several error types
            continue
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        out.append(pa.Table.from_struct_array(arr))
    return out


def replay(inputs: Inputs, tree, tr) -> dict:
    """Each layer alone over the workload's blocks; returns its metrics."""
    from gojsonschema_ray import compile_schema
    from gojsonschema_ray.stages import validate as vmod
    from gojsonschema_ray.stages.validate import TableValidator

    spec, m = inputs.spec, {}
    with tr.span("sources.io.read_blocks"):
        blocks = [pq.read_table(f) for f in inputs.files]
    n = sum(b.num_rows for b in blocks)

    durs = []
    for _ in range(COMPILE_REPEATS):
        with tr.span("schema.compile.compile_schema") as rec:
            compile_schema(inputs.ruleset)
        durs.append(rec["end"] - rec["start"])
    m["schema.compile.compile_s"] = statistics.median(durs)

    gtree = tree
    if spec.kind == "clips":
        from gojsonschema_ray.pipelines.flagship import META_RULESET
        gtree = compile_schema(META_RULESET)
    docs = _sample_docs(inputs, blocks)
    with tr.span("schema.compile.validate") as rec:
        for d in docs:
            gtree.validate(d)
    m["schema.compile.generic_docs_per_s"] = len(docs) / (rec["end"] - rec["start"])

    tables = _decoded(blocks) if spec.kind == "json" else blocks
    tv = TableValidator(tree, emit_violations=False)
    with tr.span("stages.validate.predicate") as rec:
        for t in tables:
            tv.validate_batch(t)
    m["stages.validate.predicate_s"] = rec["end"] - rec["start"]

    head, rows = [], 0
    for t in tables:
        if rows >= FAMILY_ROWS:
            break
        head.append(t)
        rows += t.num_rows
    for fam in FAMILIES:
        fr = family_ruleset(inputs.ruleset, fam)
        if fr is None:
            continue
        ftv = TableValidator(compile_schema(fr), emit_violations=False)
        with tr.span(f"stages.validate.family.{fam}") as rec:
            for t in head:
                ftv.validate_batch(t)
        m[f"stages.validate.family_rows_per_s.{fam}"] = rows / (rec["end"] - rec["start"])

    def count_rows(rec, args, result):
        rec["rows"] = result.num_rows

    with tr.instrument(vmod, "violations_table", "stages.validate.violations_table",
                       count_rows):
        if spec.kind == "json":
            from gojsonschema_ray.sources.jsonl import JsonStructValidator

            jv = JsonStructValidator(tree, "doc", spec.key)
            fallback = 0
            with tr.span("sources.jsonl.fast") as rec:
                for b in blocks:
                    out = jv(b)
                    fallback += "invalid_json" in out["keyword"].to_pylist()
            m["sources.jsonl.fast_s"] = rec["end"] - rec["start"]
            m["sources.jsonl.fallback_batch_ratio"] = fallback / len(blocks)
        else:
            vt = TableValidator(tree, key_column=spec.key, mode="violations")
            with tr.span("stages.validate.validate"):
                for b in blocks:
                    vt(b)
    assembled = tr.named("stages.validate.violations_table", tr.job)
    vrows = sum(s["rows"] for s in assembled)
    m["stages.validate.assembly_s"] = tr.total("stages.validate.violations_table", tr.job)
    m["stages.validate.violation_rows"] = vrows
    if vrows:
        m["stages.validate.assembly_us_per_violation"] = \
            m["stages.validate.assembly_s"] / vrows * 1e6

    if spec.dup_rate or spec.kind == "clips":
        m.update(_uniqueness(blocks, spec.key, n, tr))
    if spec.kind == "clips":
        from gojsonschema_ray.stages.audio import AudioInvariantChecker
        from gojsonschema_ray.stages.sketches import SketchStage

        chk = AudioInvariantChecker(audio_cap_ms=CLIPS_CAP_MS)
        with tr.span("stages.audio.check") as rec:
            for b in blocks:
                chk(b)
        m["stages.audio.check_s"] = rec["end"] - rec["start"]
        m["stages.audio.us_per_clip"] = m["stages.audio.check_s"] / n * 1e6
        sk = SketchStage(["sr_hz", "dur_ms"])
        with tr.span("stages.sketches.partial") as rec:
            for b in blocks:
                sk(b.select(["sr_hz", "dur_ms"]))
        m["stages.sketches.partial_s"] = rec["end"] - rec["start"]

    m.update(_read_floor(inputs, tr))
    return m


def _uniqueness(blocks: list[pa.Table], key: str, n: int, tr) -> dict:
    import ray.data as rd

    from gojsonschema_ray.stages.uniqueness import KeyCountStage, aggregate_key_counts

    stage = KeyCountStage(key)
    with tr.span("stages.uniqueness.partial") as rec:
        partials = [stage(b.select([key])) for b in blocks]
    partial_s = rec["end"] - rec["start"]
    rows = sum(p.num_rows for p in partials)
    parts = np.concatenate([p["part"].to_numpy() for p in partials])
    per_part = np.bincount(parts, minlength=stage.n_parts)
    with tr.span("stages.uniqueness.exchange") as rec:
        ds = aggregate_key_counts(rd.from_arrow(partials), key)
        for _ in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            pass
    return {"stages.uniqueness.partial_s": partial_s,
            "stages.uniqueness.exchange_s": rec["end"] - rec["start"],
            "stages.uniqueness.partial_rows": rows,
            "stages.uniqueness.combine_ratio": rows / n,
            "stages.uniqueness.part_skew": float(per_part.max() / per_part.mean())}


def _read_floor(inputs: Inputs, tr) -> dict:
    """The job's read alone: same files and columns, every batch iterated
    (Dataset.count() would answer from the parquet footers)."""
    from gojsonschema_ray.sources.io import read_table

    nbytes = 0
    with tr.span("sources.io.read_floor") as rec:
        for t in read_table(inputs.files).iter_batches(batch_format="pyarrow",
                                                       batch_size=None):
            nbytes += t.nbytes
    return {"sources.io.read_s": rec["end"] - rec["start"],
            "sources.io.read_mb": nbytes / 1e6}


def self_time_table(tr, job) -> list[tuple[str, int, float, float]]:
    """(span name, calls, self s, total s) of one job id, by self time."""
    selfs = tr.self_times(job)
    calls, totals = defaultdict(int), defaultdict(float)
    for s in tr.spans:
        if s["job"] == job:
            calls[s["name"]] += 1
            totals[s["name"]] += s["end"] - s["start"]
    return sorted(((k, calls[k], selfs[k], totals[k]) for k in selfs),
                  key=lambda r: -r[2])
