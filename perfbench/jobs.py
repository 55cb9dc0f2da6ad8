"""One end-to-end job per workload, driven through the package's public API,
and the check of its output against the generator's oracle."""

from __future__ import annotations

import os
import shutil
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .workloads import CLIPS_CAP_MS, Inputs

CLIPS_FILES_PER_PARTITION = 2


class Outcome:
    """Violation counts per (keyword, path) and duplicate keys a job
    delivered to its sink."""

    def __init__(self, key: str):
        self.dup_path = f"(root).{key}"
        self.counts: Counter = Counter()
        self.dups: dict[str, int] = {}
        self.datasets: list = []  # executed Ray datasets, for their stats
        self.manifest_bytes = 0
        self.out_dir = None  # clips: written violations, read by collect()

    def add(self, t: pa.Table) -> None:
        if t.num_rows == 0:
            return
        g = t.group_by(["keyword", "path"]).aggregate([("key", "count")])
        for kw, path, c in zip(g["keyword"].to_pylist(), g["path"].to_pylist(),
                               g["key_count"].to_pylist()):
            self.counts[(kw, path)] += c
        uniq = t.filter(pc.and_(pc.equal(t["keyword"], "unique"),
                                pc.equal(t["path"], self.dup_path)))
        for k, a in zip(uniq["key"].to_pylist(), uniq["actual"].to_pylist()):
            self.dups[k] = int(a)

    def mismatch(self, inputs: Inputs) -> str | None:
        """None when the output equals the oracle, else a short reason."""
        expected = Counter(inputs.expected)
        if inputs.dups:
            expected[("unique", self.dup_path)] += len(inputs.dups)
        if self.counts != expected:
            return (f"violation counts differ: extra {dict(self.counts - expected)}"
                    f" missing {dict(expected - self.counts)}")
        if self.dups != inputs.dups:
            return f"duplicate keys differ ({len(self.dups)} vs {len(inputs.dups)})"
        return None


class Job:
    """The workload's end-to-end job over (a subset of) its input files."""

    def __init__(self, inputs: Inputs, tree, num_cpus: int, work_dir: str):
        self.inputs, self.tree = inputs, tree
        self.num_cpus, self.work_dir = num_cpus, work_dir
        self._runs = 0

    def run(self, files: list[str] | None = None) -> Outcome:
        """Run the job to its sink. For the clips pipeline the sink is the
        written violation files; call ``collect`` to read them back."""
        files = files or self.inputs.files
        spec = self.inputs.spec
        if spec.kind == "clips":
            return self._run_clips(files)
        from gojsonschema_ray.sources.io import read_table

        ds = read_table(files)
        if spec.kind == "json":
            from gojsonschema_ray.sources.jsonl import validate_jsonl_column_fast

            viol = validate_jsonl_column_fast(ds, self.tree, "doc",
                                              key_column=spec.key)
        else:
            from gojsonschema_ray.stages.validate import TableValidator

            viol = ds.map_batches(
                TableValidator(self.tree, key_column=spec.key, mode="violations"),
                batch_format="pyarrow")
            if spec.dup_rate:
                from gojsonschema_ray.stages.uniqueness import uniqueness_violations

                keys = read_table(files, columns=[spec.key],
                                  override_num_blocks=self.num_cpus)
                viol = viol.union(uniqueness_violations(keys, spec.key))
        out = Outcome(spec.key)
        for t in viol.iter_batches(batch_format="pyarrow", batch_size=None):
            out.add(t)
        out.datasets.append(viol)
        return out

    def _run_clips(self, files: list[str]) -> Outcome:
        from gojsonschema_ray.pipelines.flagship import run_flagship

        self._runs += 1
        out = Outcome(self.inputs.spec.key)
        out.out_dir = os.path.join(self.work_dir, f"out-{self._runs}")
        src = self.inputs.path
        if files != self.inputs.files:  # a subset (warm-up): links to it
            src = os.path.join(self.work_dir, f"in-{self._runs}")
            os.makedirs(src)
            for f in files:
                os.symlink(f, os.path.join(src, os.path.basename(f)))
        try:
            run_flagship(src, out.out_dir, audio_cap_ms=CLIPS_CAP_MS,
                         files_per_partition=CLIPS_FILES_PER_PARTITION)
        finally:
            if src != self.inputs.path:
                shutil.rmtree(src, ignore_errors=True)
        return out

    @staticmethod
    def collect(out: Outcome) -> Outcome:
        """Read a clips job's written violations back, then delete them."""
        out_dir = out.out_dir
        if out_dir is None:
            return out
        try:
            vdir = os.path.join(out_dir, "violations")
            for part in sorted(os.listdir(vdir)):
                for f in sorted(os.listdir(os.path.join(vdir, part))):
                    if f.endswith(".parquet"):
                        out.add(pq.read_table(os.path.join(vdir, part, f)))
            out.manifest_bytes = os.path.getsize(
                os.path.join(out_dir, "manifest.jsonl"))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out
