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

