"""Session fixtures shared by the acceptance criteria (expensive runs cached), the
memory-state digest the determinism checks compare, and the Hypothesis profile
every property test runs under."""

import time

import numpy as np
import pytest
from hypothesis import settings

import bimem
from bimem.adapt import AdaptConfig

# Property tests draw the same examples on every run and read no saved
# examples, so a stored failure from another checkout cannot change a verdict.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

BENCHMARK_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_SHIFT = np.array([1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def _memory_state_bytes(state) -> tuple:
    """Dtype, shape and raw bytes of every array the memories hold, plus steps and warnings.

    Raw bytes are stricter than any printed form: they also tell NaN payloads
    and signed zeros apart.
    """
    arrays = [getattr(rows, name) for rows in (state.sensory.rows, state.short_term.rows)
              for name in ("ids", "features", "probs")]
    arrays += [state.long_term.centroids, state.long_term.initialized]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], state.steps, dict(state.warnings)


@pytest.fixture(scope="session")
def memory_state_bytes():
    """``_memory_state_bytes``: equal digests mean bit-identical memory states."""
    return _memory_state_bytes


@pytest.fixture(scope="session")
def benchmark_pipelines():
    """Default benchmark: per seed, the generated target set and its black-box predictions."""
    pipelines = {}
    for seed in BENCHMARK_SEEDS:
        source, target = bimem.gen_shifted_gaussians(
            n_categories=5,
            feature_dim=8,
            n_per_class=100,
            class_separation=4.0,
            target_shift=DEFAULT_SHIFT,
            target_rotation_deg=25.0,
            noise_sigma=1.0,
            seed=seed,
        )
        params = bimem.train_source(source, epochs=50, lr=0.05, seed=seed)
        pipelines[seed] = (target, bimem.predict(params, target))
    return pipelines


@pytest.fixture(scope="session")
def benchmark_traces(benchmark_pipelines):
    """Default-config adaptation traces for both methods on all benchmark seeds."""
    start = time.monotonic()
    traces = {"bimem": {}, "vanilla_st": {}}
    for seed, (target, preds) in benchmark_pipelines.items():
        cfg_b = AdaptConfig(method="bimem", seed=seed)
        traces["bimem"][seed] = bimem.run_bimem(target, preds, cfg_b)[1]
        cfg_v = AdaptConfig(method="vanilla_st", seed=seed)
        traces["vanilla_st"][seed] = bimem.run_vanilla_st(target, preds, cfg_v)[1]
    traces["elapsed"] = time.monotonic() - start
    return traces
