"""Engine — result-cache speedup.

Not a paper figure: this regenerates the performance claim the experiment
engine itself makes (EXPERIMENTS.md "engine" section): a warm cache serves
a completed configuration at least 5x faster than computing it.
"""

from __future__ import annotations

import time

from repro.experiments.common import ExperimentConfig
from repro.experiments.engine import ResultCache, run_experiments

# Quick-size config: the engine's overheads don't depend on problem size,
# and the cache-speedup ratio only gets *more* favourable at full size.
ENGINE_CONFIG = ExperimentConfig(activations=1500, seed=2015, quick=True)
IDS = ["t1", "t2", "f7"]


def test_engine_warm_cache_speedup(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "cache")

    cold_start = time.perf_counter()
    cold = run_experiments(IDS, ENGINE_CONFIG, cache=cache)
    cold_seconds = time.perf_counter() - cold_start
    assert all(o.ok and not o.cached for o in cold)

    warm = benchmark.pedantic(
        run_experiments,
        args=(IDS, ENGINE_CONFIG),
        kwargs={"cache": cache},
        rounds=3,
        iterations=1,
    )
    assert all(o.ok and o.cached for o in warm)
    assert [o.result.render() for o in warm] == [o.result.render() for o in cold]

    warm_start = time.perf_counter()
    run_experiments(IDS, ENGINE_CONFIG, cache=cache)
    warm_seconds = time.perf_counter() - warm_start
    assert warm_seconds * 5 < cold_seconds, (
        f"warm cache must be >=5x faster: cold {cold_seconds:.2f}s, "
        f"warm {warm_seconds:.2f}s"
    )
