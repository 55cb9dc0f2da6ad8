#!/usr/bin/env python3
"""Seeded table-validation benchmark for gojsonschema_ray.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rows_clean --seed 1 --seconds 10 --trace 0

Load model: closed loop, one client. This driver process submits one job
at a time through the package's public API and starts the next when the
previous one has finished. The Ray session gets one CPU per CPU in this
process's affinity mask.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same untraced jobs, then one traced job and per-layer replays, and
prints the per-layer metrics. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. A job whose output differs
from the generator's oracle counts as failed and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.getcwd()
CACHE_DIR = os.path.join(ROOT, ".perfbench_cache")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
WARMUP_JOBS = 1
MIN_JOBS = 3
OBJECT_STORE_BYTES = 768 << 20
# AF_UNIX socket paths under Ray's session directory must stay below 108
# bytes; a longer checkout path gets a short temp directory instead
MAX_RAY_TMP_LEN = 40
# keep idle workers alive between jobs: a worker killed after a second of
# idleness is restarted (and re-imports its modules) inside the next job
SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 3_600_000}

END_TO_END = {"rows_per_s": "1/s", "cpu_s_per_mrow": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PER_LAYER = {
    "sources.io.read_s": "s", "sources.io.read_mb": "MB",
    "schema.compile.compile_s": "s", "schema.compile.generic_docs_per_s": "1/s",
    "stages.validate.predicate_s": "s",
    **{f"stages.validate.family_rows_per_s.{f}": "1/s" for f in (
        "numeric_bounds", "multiple_of", "enum_const", "string_length",
        "pattern", "format", "array", "object", "combinator")},
    "stages.validate.assembly_s": "s", "stages.validate.violation_rows": "count",
    "stages.validate.assembly_us_per_violation": "us",
    "stages.uniqueness.partial_s": "s", "stages.uniqueness.exchange_s": "s",
    "stages.uniqueness.partial_rows": "count",
    "stages.uniqueness.combine_ratio": "ratio",
    "stages.uniqueness.part_skew": "ratio",
    "stages.audio.check_s": "s", "stages.audio.us_per_clip": "us",
    "stages.sketches.partial_s": "s",
    "pipelines.flagship.write_s": "s",
    "pipelines.flagship.partition_s_p50": "s",
    "pipelines.flagship.partition_s_tail": "s",
    "state.manifest.commit_s": "s", "state.manifest.bytes": "bytes",
    "sources.jsonl.fast_s": "s", "sources.jsonl.fallback_batch_ratio": "ratio",
    **{f"ray_data.op_wall_s.{b}": "s" for b in ("read", "map", "exchange", "write")},
    "ray_data.unexplained_s": "s",
    "trace.overhead_s": "s",
}


def log(msg: str) -> None:
    print(msg, flush=True)


class Session:
    """One Ray session with this process as the driver."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        tmp = os.path.join(ROOT, ".perfbench_tmp")
        self.own_tmp = len(tmp) > MAX_RAY_TMP_LEN
        self.tmp = tempfile.mkdtemp(prefix="pb") if self.own_tmp else tmp

    def start(self) -> None:
        import logging

        import ray
        import ray.data as rd

        ray.init(address="local", num_cpus=self.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.tmp, _system_config=SYSTEM_CONFIG)
        got = int(ray.cluster_resources().get("CPU", 0))
        if got != self.num_cpus:
            raise RuntimeError(f"Ray session has {got} CPUs, asked for {self.num_cpus}")
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()

    def parallel(self, fn, args_list) -> None:
        import ray

        task = ray.remote(num_cpus=1)(fn)
        ray.get([task.remote(*a) for a in args_list])

    def close(self) -> None:
        self.stop()
        if self.own_tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)


def stop_children(timeout_s: float = 20.0) -> None:
    """Wait for every child process to end; kill what is left."""
    from perfbench.procstat import descendants

    deadline = time.monotonic() + timeout_s
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in descendants():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while descendants() and time.monotonic() < deadline + 5:
        time.sleep(0.1)


class Bench:
    """Inputs, compiled ruleset and job of one workload in a live session."""

    def __init__(self, name: str, seed: int, rows: int, session: Session):
        from perfbench import workloads

        self.spec = workloads.SPECS[name]
        self.seed, self.rows, self.session = seed, rows, session
        self.work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        os.makedirs(self.work_dir, exist_ok=True)

    def prepare(self) -> None:
        """Generate the inputs (or check the cache) and compile the ruleset."""
        from gojsonschema_ray import compile_schema
        from perfbench import workloads
        from perfbench.jobs import Job

        self.inputs = workloads.generate(self.spec, self.seed, self.rows,
                                         CACHE_DIR, self.session.parallel)
        self.tree = compile_schema(self.inputs.ruleset)
        self.job = Job(self.inputs, self.tree, self.session.num_cpus,
                       self.work_dir)

    def setup(self) -> float:
        """Session start, input generation or cache check, schema compile and
        a warm-up job over one input file per CPU, so every worker has run
        a task. Returns its wall time."""
        from perfbench.jobs import Job

        t0 = time.perf_counter()
        self.session.start()
        self.prepare()
        Job.collect(self.job.run(self.inputs.files[:self.session.num_cpus]))
        return time.perf_counter() - t0

    def one_job(self) -> dict:
        """Run, meter and check one job."""
        from perfbench.jobs import Job
        from perfbench.procstat import JobMeter

        meter = JobMeter()
        meter.start()
        t0 = time.perf_counter()
        try:
            out = self.job.run()
            wall = time.perf_counter() - t0
            cpu, rss = meter.stop()
            bad = Job.collect(out).mismatch(self.inputs)
        except Exception:  # noqa: BLE001 — a failed job is counted, not fatal
            traceback.print_exc()
            return {"ok": False, "reason": "raised"}
        if bad:
            print(f"job output wrong: {bad}", file=sys.stderr)
        return {"ok": bad is None, "wall": wall, "cpu": cpu, "rss": rss}

    def warm_up(self) -> None:
        """Untimed full jobs: the first full jobs after set-up still start
        workers and fill their caches."""
        for _ in range(WARMUP_JOBS):
            if not self.one_job()["ok"]:
                raise RuntimeError("warm-up job failed")

    def measure(self, seconds: float) -> list[dict]:
        jobs, end = [], time.perf_counter() + seconds
        while time.perf_counter() < end or len(jobs) < MIN_JOBS:
            jobs.append(self.one_job())
        return jobs


def host_facts(num_cpus: int, args, inputs) -> dict:
    import polars
    import pyarrow
    import ray

    return {"affinity_cpus": len(os.sched_getaffinity(0)), "num_cpus": num_cpus,
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "polars": polars.__version__,
            "workload": args.workload, "seed": args.seed,
            "input_rows": inputs.rows, "input_bytes": inputs.bytes,
            "input_files": len(inputs.files)}


def end_to_end(bench: Bench, setups: list[float], jobs: list[dict]) -> dict:
    good = [j for j in jobs if j["ok"]]
    if not good:
        return {}
    rows = bench.inputs.rows
    wall = statistics.median(j["wall"] for j in good)
    log(f"jobs: {len(jobs)} attempted, {len(jobs) - len(good)} failed, "
        f"fail_ratio {(len(jobs) - len(good)) / len(jobs):.3f}; median job "
        f"{wall:.4f} s over {len(good)} samples "
        f"{[round(j['wall'], 3) for j in good]}")
    return {
        "rows_per_s": rows / wall,
        "cpu_s_per_mrow": statistics.median(j["cpu"] for j in good) / rows * 1e6,
        "peak_rss_mb": statistics.median(j["rss"] for j in good),
        "setup_s": statistics.median(setups),
    }


def per_layer(bench: Bench, jobs: list[dict], args) -> tuple[dict, int, int]:
    """Traced job + replays on this workload; layers it does not use are
    measured on the small probe inputs of the workloads that do."""
    from perfbench import layers, workloads
    from perfbench.trace import Tracer

    tr = Tracer()
    tr.job = f"{args.workload}/traced"
    wall_untraced = statistics.median(j["wall"] for j in jobs if j["ok"])
    wall, m, out = layers.traced_job(bench.job, tr)
    bad = out.mismatch(bench.inputs)
    attempted, failed = 1, int(bad is not None)
    m["trace.overhead_s"] = wall - wall_untraced
    tr.job = f"{args.workload}/replay"
    m.update(layers.replay(bench.inputs, bench.tree, tr))
    selfs = tr.self_times(tr.job)
    layer_s = sum(selfs.get(k, 0.0) for k in layers.JOB_LAYERS[bench.spec.kind])
    m["ray_data.unexplained_s"] = wall_untraced - layer_s / bench.session.num_cpus
    sources = {k: args.workload for k in m}

    for name, spec in workloads.SPECS.items():
        if name == args.workload or all(k in m for k in PER_LAYER):
            continue
        probe = Bench(name, args.seed, spec.probe_rows, bench.session)
        probe.prepare()
        tr.job = f"{name}/probe"
        _, pm, pout = layers.traced_job(probe.job, tr)
        attempted += 1
        failed += int(pout.mismatch(probe.inputs) is not None)
        pm.update(layers.replay(probe.inputs, probe.tree, tr))
        for k, v in pm.items():
            if k not in m:
                m[k], sources[k] = v, f"{name} (probe, {spec.probe_rows} rows)"

    for job in sorted({s["job"] for s in tr.spans}):
        log(f"\nself time by layer, {job}:")
        log(f"  {'span':48s} {'calls':>5s} {'self_s':>9s} {'total_s':>9s}")
        for name, calls, self_s, total in layers.self_time_table(tr, job):
            log(f"  {name:48s} {calls:5d} {self_s:9.4f} {total:9.4f}")
    log("\nper-layer metrics (source workload):")
    for k in PER_LAYER:
        if k in m:
            log(f"  {k:48s} {m[k]:14.6g} {PER_LAYER[k]:6s} {sources[k]}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write(os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.jsonl"))
    return m, attempted, failed


def main(argv=None) -> int:
    from perfbench import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    affinity = len(os.sched_getaffinity(0))
    num_cpus = affinity
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x])
    os.makedirs(OUT_DIR, exist_ok=True)
    session = Session(num_cpus)
    bench = Bench(args.workload, args.seed, workloads.SPECS[args.workload].rows,
                  session)
    try:
        setups = []
        for k in range(SETUP_REPEATS if not args.trace else 1):
            if k:
                session.stop()
            setups.append(bench.setup())
        facts = host_facts(num_cpus, args, bench.inputs)
        if facts["num_cpus"] > facts["affinity_cpus"]:
            raise RuntimeError(f"num_cpus {num_cpus} exceeds the {affinity} "
                               "CPUs this process may run on")
        log("host: " + json.dumps(facts))
        log(f"setup_s samples: {[round(s, 4) for s in setups]}")
        bench.warm_up()
        jobs = bench.measure(args.seconds)
        attempted = len(jobs)
        failed = sum(not j["ok"] for j in jobs)
        if args.trace:
            values, a, f = per_layer(bench, jobs, args)
            attempted, failed = attempted + a, failed + f
            units = PER_LAYER
        else:
            values = end_to_end(bench, setups, jobs)
            units = END_TO_END
    finally:
        session.close()
        stop_children()
        shutil.rmtree(bench.work_dir, ignore_errors=True)
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in units.items() if k in values}
    result = {"correct": failed == 0 and len(metrics) == len(units),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w") as f:
        json.dump({"host": facts, **result}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    try:
        import gojsonschema_ray  # noqa: F401 — the program under test
    except ImportError as e:
        print(f"cannot import the package under test from {ROOT}: {e}",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
