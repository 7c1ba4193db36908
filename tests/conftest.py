"""Session-scoped Ray fixture (one ray.init per pytest session)."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def turns_small():
    from opentelemetry_collector_ray.synth import synth_turns

    return synth_turns(sf=0.01, seed=42)  # 100 turns in 1 conversation


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"
