"""Benchmark-suite fixtures.

Each ``bench_*`` file regenerates one of the paper's tables/figures (see
DESIGN.md's per-experiment index), measures how long the regeneration takes
via pytest-benchmark, asserts the experiment's qualitative shape, and writes
the rendered rows/series to ``benchmarks/results/<id>.txt`` so the numbers
are inspectable after a ``--benchmark-only`` run (which captures stdout).

Saved renders contain only seed-determined values; wall-clock stage
diagnostics live in ``ExperimentResult.timings`` and stay out of the
results files so re-runs diff clean.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentConfig, ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"


def _quick_mode() -> bool:
    """``REPRO_BENCH_QUICK=1`` selects small runs whose renders skip the goldens."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    """Full-size configuration used by every benchmark (small in quick mode)."""
    if _quick_mode():
        return ExperimentConfig(activations=600, seed=2015, quick=True)
    return ExperimentConfig(activations=3000, seed=2015, quick=False)


@pytest.fixture(scope="session")
def save_result():
    """Persist an experiment's rendered tables next to the benchmarks."""

    def _save(result: ExperimentResult) -> ExperimentResult:
        # Quick-mode renders are not the goldens; keep them out of results/.
        out_dir = RESULTS_DIR / "quick" if _quick_mode() else RESULTS_DIR
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{result.experiment_id}.txt"
        path.write_text(result.render() + "\n")
        return result

    return _save
