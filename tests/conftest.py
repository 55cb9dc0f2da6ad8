import pytest


@pytest.fixture(scope="session")
def ray_session():
    """ONE Ray session for the whole pytest run (driver instruction)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    yield
    ray.shutdown()


@pytest.fixture
def wave_stats(monkeypatch):
    """Operator names, from Dataset.stats(), of every execution that writes
    to run_flagship's PartitionSink — one list per wave."""
    import ray.data as rd

    from gojsonschema_ray.pipelines.flagship import PartitionSink

    waves = []
    orig = rd.Dataset.write_datasink

    def spy(self, sink, *args, **kwargs):
        result = orig(self, sink, *args, **kwargs)
        if isinstance(sink, PartitionSink):
            waves.append([ln.split(" ", 2)[2].split(":")[0]
                          for ln in self._write_ds.stats().splitlines()
                          if ln.startswith("Operator ")])
        return result

    monkeypatch.setattr(rd.Dataset, "write_datasink", spy)
    return waves
