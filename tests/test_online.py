"""Streaming estimation (:mod:`repro.core.online`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.online import OnlineEstimator, OnlineOptions, dataset_shards
from repro.errors import EstimationError
from repro.experiments.common import ExperimentConfig, profiled_run
from repro.profiling.budget import SampleBudget
from repro.profiling.timing_profiler import TimingDataset
from repro.workloads.registry import workload_by_name

CONFIG = ExperimentConfig(activations=400, seed=2015)


@pytest.fixture(scope="module")
def sense_run():
    return profiled_run(workload_by_name("sense"), CONFIG)


@pytest.fixture(scope="module")
def shards(sense_run):
    return dataset_shards(sense_run.dataset, (50, 100, 200, 400))


def _thetas_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[n], b[n]) for n in a)


class TestAbsorb:
    def test_trajectory_grows_per_shard(self, sense_run, shards):
        est = OnlineEstimator(sense_run.program, CONFIG.platform)
        for i, shard in enumerate(shards):
            point = est.absorb(shard)
            assert point.shard_index == i
        assert len(est.trajectory) == len(shards)
        assert est.total_samples == sum(
            xs.size for xs in sense_run.dataset.samples.values()
        )

    def test_estimates_tighten_with_data(self, sense_run, shards):
        est = OnlineEstimator(
            sense_run.program, CONFIG.platform, OnlineOptions(epsilon=None)
        )
        points = [est.absorb(s) for s in shards]
        assert points[-1].max_half_width < points[0].max_half_width
        for point in points:
            for name, theta in point.thetas.items():
                assert np.all((theta >= 0.0) & (theta <= 1.0)), name

    def test_mapping_shard_accepted(self, sense_run):
        est = OnlineEstimator(sense_run.program, CONFIG.platform)
        raw = {
            name: xs[:20].tolist()
            for name, xs in sense_run.dataset.samples.items()
        }
        point = est.absorb(raw)
        assert point.total_samples == sum(len(v) for v in raw.values())

    def test_warm_refits_iterate_less_than_the_first(self, sense_run, shards):
        est = OnlineEstimator(
            sense_run.program, CONFIG.platform, OnlineOptions(epsilon=None)
        )
        points = [est.absorb(s) for s in shards]
        # Warm starts: later shards must not pay the cold fit's full
        # iteration bill again.
        assert points[-1].em_iterations <= points[0].em_iterations

    def test_unseen_procedure_reports_prior_and_full_width(self, sense_run):
        est = OnlineEstimator(sense_run.program, CONFIG.platform)
        only_main = {"main": sense_run.dataset.samples["main"][:30]}
        point = est.absorb(only_main)
        theta = point.thetas["classify"]
        if theta.size:
            assert np.all(theta == 0.5)
            assert np.all(point.half_widths["classify"] == 0.5)


class TestConvergencePolicy:
    def test_loose_epsilon_converges(self, sense_run, shards):
        est = OnlineEstimator(
            sense_run.program, CONFIG.platform, OnlineOptions(epsilon=0.75)
        )
        point = est.absorb(shards[0])
        assert point.converged
        assert point.should_stop
        assert est.should_stop

    def test_tight_epsilon_does_not_converge(self, sense_run, shards):
        est = OnlineEstimator(
            sense_run.program, CONFIG.platform, OnlineOptions(epsilon=1e-4)
        )
        point = est.absorb(shards[0])
        assert not point.converged

    def test_budget_exhaustion_stops(self, sense_run, shards):
        options = OnlineOptions(
            epsilon=1e-4, budget=SampleBudget(max_total=50)
        )
        est = OnlineEstimator(sense_run.program, CONFIG.platform, options)
        point = est.absorb(shards[0])
        assert point.budget_exhausted
        assert point.should_stop
        assert not point.converged

    def test_epsilon_none_never_converges(self, sense_run, shards):
        est = OnlineEstimator(
            sense_run.program, CONFIG.platform, OnlineOptions(epsilon=None)
        )
        for shard in shards:
            point = est.absorb(shard)
        assert not point.converged
        assert not est.should_stop

    def test_invalid_options_rejected(self):
        with pytest.raises(EstimationError):
            OnlineOptions(epsilon=0.0)
        with pytest.raises(EstimationError):
            OnlineOptions(epsilon=1.5)


class TestDatasetShards:
    def test_prefix_split_reassembles_exactly(self, sense_run):
        parts = dataset_shards(sense_run.dataset, (100, 250, 400))
        for name, xs in sense_run.dataset.samples.items():
            rebuilt = np.concatenate(
                [p.samples[name] for p in parts if name in p.samples]
            )
            assert np.array_equal(rebuilt, xs)

    def test_non_increasing_boundaries_rejected(self, sense_run):
        with pytest.raises(EstimationError, match="strictly increasing"):
            dataset_shards(sense_run.dataset, (100, 100))
        with pytest.raises(EstimationError, match="strictly increasing"):
            dataset_shards(sense_run.dataset, (0, 50))

    def test_short_procedures_stop_contributing(self):
        dataset = TimingDataset({"main": np.arange(5, dtype=float)})
        parts = dataset_shards(dataset, (3, 10, 20))
        assert parts[0].samples["main"].size == 3
        assert parts[1].samples["main"].size == 2
        assert "main" not in parts[2].samples
