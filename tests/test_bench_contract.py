"""What the benchmark in perfbench/ needs of the package: the attributes
its traced run wraps by name, and the one Ray Data write of a flagship run
that its `ray_data.op_wall_s.write` metric is read from."""

import pytest


@pytest.mark.parametrize("kind", ["rows", "json", "clips"])
def test_traced_run_hooks_exist(kind):
    """perfbench.layers._instrumented wraps every attribute a traced job
    of `kind` calls; a renamed or deleted one raises here."""
    from perfbench.layers import _instrumented
    from perfbench.trace import Tracer

    from gojsonschema_ray.pipelines import flagship
    from gojsonschema_ray.sources import io
    from gojsonschema_ray.state.manifest import Manifest

    hooked = [(owner, name, getattr(owner, name)) for owner, name in (
        (flagship, "validate_clips"), (flagship, "uniqueness_violations"),
        (flagship, "collect_rows"), (flagship, "partition_drift"),
        (io, "read_fragments"), (Manifest, "commit"))]
    with _instrumented(Tracer(), kind, []):
        pass
    for owner, name, fn in hooked:
        assert getattr(owner, name) is fn, name  # restored on exit


def test_flagship_writes_through_one_ray_data_write(ray_session, tmp_path,
                                                    monkeypatch):
    """A flagship run calls ray.data.Dataset.write_parquet exactly once
    (the global check's rows), the write the benchmark's traced run takes
    `ray_data.op_wall_s.write` from."""
    import os

    import ray.data as rd

    from gojsonschema_ray.datagen import write_clips_parquet
    from gojsonschema_ray.pipelines.flagship import run_flagship

    inp = str(tmp_path / "clips")
    write_clips_parquet(inp, 400, audio_cap_ms=20, rows_per_file=100)
    writes = []
    orig = rd.Dataset.write_parquet

    def spy(self, path, *args, **kwargs):
        writes.append(path)
        return orig(self, path, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "write_parquet", spy)
    out = str(tmp_path / "out")
    run_flagship(inp, out, files_per_partition=2, audio_cap_ms=20)
    assert writes == [os.path.join(out, "violations", "__global__")]


def test_rows_job_reports_read_map_exchange_walls(ray_session, tmp_path):
    """A rows job with duplicate keys executes a Ray Data read, map and
    exchange: the benchmark's traced run takes `ray_data.op_wall_s.read`,
    `.map` and `.exchange` from the stats of the datasets it returns, and
    the uniqueness check's exchange is the only exchange among them."""
    from perfbench.jobs import Job
    from perfbench.layers import op_walls
    from perfbench.workloads import SPECS, generate

    from gojsonschema_ray.schema import compile_schema

    spec = SPECS["rows_dirty"]
    assert spec.dup_rate > 0
    inputs = generate(spec, 3, 4_000, str(tmp_path / "cache"))
    work = tmp_path / "work"
    work.mkdir()
    job = Job(inputs, compile_schema(inputs.ruleset), 4, str(work))
    out = job.run()
    assert out.mismatch(inputs) is None
    walls = op_walls([d._get_stats_summary() for d in out.datasets])
    assert {"ray_data.op_wall_s.read", "ray_data.op_wall_s.map",
            "ray_data.op_wall_s.exchange"} <= walls.keys()
