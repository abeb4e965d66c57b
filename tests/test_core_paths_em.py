"""Tests for path enumeration and the EM estimator."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.em as em_module
from repro.core import EMEstimator, enumerate_paths
from repro.errors import EstimationError
from repro.lang import compile_source
from repro.markov.sampling import sample_rewards
from repro.mote import MICAZ_LIKE, TimestampTimer
from repro.placement.layout import Layout
from repro.sim import ProcedureTimingModel
from tests.conftest import build_diamond_procedure


def make_model(proc):
    return ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))


@pytest.fixture
def diamond_model():
    proc, _ = build_diamond_procedure(then_cost_pad=5, else_cost_pad=60)
    return make_model(proc)


@pytest.fixture
def loop_model():
    prog = compile_source("proc main() { while (sense(a) > 800) { led(1); } }")
    main = prog.procedure("main")
    return ProcedureTimingModel(main, MICAZ_LIKE, Layout.source_order(main.cfg))


class TestEnumeratePaths:
    def test_diamond_has_two_paths(self, diamond_model):
        family = enumerate_paths(diamond_model)
        assert len(family) == 2
        assert family.covered_probability == pytest.approx(1.0)
        assert not family.truncated

    def test_path_probabilities_factorize(self, diamond_model):
        family = enumerate_paths(diamond_model)
        theta = np.array([0.3])
        probs = family.probabilities(theta)
        assert sorted(probs.tolist()) == pytest.approx([0.3, 0.7])
        assert probs.sum() == pytest.approx(1.0)

    def test_durations_differ_between_arms(self, diamond_model):
        family = enumerate_paths(diamond_model)
        means, variances = family.duration_means, family.duration_variances
        assert means[0] != means[1]
        assert np.all(variances == 0.0)

    def test_loop_paths_follow_geometric_counts(self, loop_model):
        family = enumerate_paths(loop_model, reference_theta=[0.5], min_prob=1e-4)
        a_mat, b_mat = family.then_counts, family.else_counts
        # Exactly one else (exit) per path; then counts enumerate 0,1,2,...
        assert np.all(b_mat[:, 0] == 1)
        assert set(a_mat[:, 0].astype(int).tolist()) >= {0, 1, 2, 3}

    def test_loop_enumeration_truncates(self, loop_model):
        family = enumerate_paths(loop_model, reference_theta=[0.9], min_prob=1e-3)
        assert family.truncated
        assert family.covered_probability < 1.0

    def test_max_paths_cap(self, loop_model):
        family = enumerate_paths(loop_model, min_prob=1e-12, max_paths=5)
        assert len(family) <= 5
        assert family.truncated

    def test_log_probability_handles_zero_theta(self, diamond_model):
        family = enumerate_paths(diamond_model)
        theta = np.array([0.0])
        probs = family.probabilities(theta)
        assert probs.sum() == pytest.approx(1.0)  # all mass on the else path

    def test_bad_reference_length_rejected(self, diamond_model):
        with pytest.raises(EstimationError, match="length"):
            enumerate_paths(diamond_model, reference_theta=[0.5, 0.5])

    def test_bad_limits_rejected(self, diamond_model):
        with pytest.raises(EstimationError):
            enumerate_paths(diamond_model, min_prob=0.0)
        with pytest.raises(EstimationError):
            enumerate_paths(diamond_model, max_paths=0)


class TestEMEstimator:
    def test_recovers_diamond_probability(self, diamond_model):
        truth = np.array([0.25])
        xs = sample_rewards(diamond_model.chain(truth), 2000, rng=3)
        result = EMEstimator(diamond_model).fit(xs)
        assert result.theta[0] == pytest.approx(0.25, abs=0.02)
        assert result.converged

    def test_recovers_loop_probability(self, loop_model):
        truth = np.array([0.6])
        xs = sample_rewards(loop_model.chain(truth), 3000, rng=7)
        result = EMEstimator(loop_model).fit(xs)
        assert result.theta[0] == pytest.approx(0.6, abs=0.03)

    def test_handles_quantized_observations(self, diamond_model):
        truth = np.array([0.7])
        timer = TimestampTimer(cycles_per_tick=8)
        exact = sample_rewards(diamond_model.chain(truth), 3000, rng=9)
        rng = np.random.default_rng(10)
        xs = np.array([timer.measure_cycles(0.0, d, rng) for d in exact])
        result = EMEstimator(diamond_model, timer=timer).fit(xs)
        assert result.theta[0] == pytest.approx(0.7, abs=0.05)

    def test_theta0_start_honored(self, diamond_model):
        truth = np.array([0.8])
        xs = sample_rewards(diamond_model.chain(truth), 1000, rng=4)
        result = EMEstimator(diamond_model).fit(xs, theta0=[0.8])
        assert result.theta[0] == pytest.approx(0.8, abs=0.04)
        assert result.iterations >= 1

    def test_empty_observations_rejected(self, diamond_model):
        with pytest.raises(EstimationError):
            EMEstimator(diamond_model).fit([])

    def test_zero_parameter_procedure_trivial(self):
        prog = compile_source("proc main() { led(1); }")
        main = prog.procedure("main")
        model = ProcedureTimingModel(main, MICAZ_LIKE, Layout.source_order(main.cfg))
        result = EMEstimator(model).fit([10.0])
        assert result.theta.size == 0
        assert result.converged

    def test_log_likelihood_improves_over_iterations(
        self, diamond_model, monkeypatch
    ):
        truth = np.array([0.2])
        xs = sample_rewards(diamond_model.chain(truth), 800, rng=6)
        monkeypatch.setattr(em_module, "MAX_ITERATIONS", 1)
        short = EMEstimator(diamond_model).fit(xs)
        monkeypatch.setattr(em_module, "MAX_ITERATIONS", 40)
        long = EMEstimator(diamond_model).fit(xs)
        assert short.iterations == 1
        assert long.log_likelihood >= short.log_likelihood - 1e-6

    def test_bad_theta0_length_rejected(self, diamond_model):
        with pytest.raises(EstimationError):
            EMEstimator(diamond_model).fit([10.0], theta0=[0.5, 0.5])


class TestEmptyResponsibilityMass:
    def test_observations_outside_every_path_return_prior_iterate(
        self, diamond_model
    ):
        # Regression: observations so far from every enumerated path that
        # all kernel rows underflow to -inf used to hit the M-step with
        # zero responsibility mass.  The fit must hand back its current
        # iterate, honestly flagged, instead of raising (or dividing by
        # zero into NaN).
        est = EMEstimator(diamond_model, timer=MICAZ_LIKE.timer)
        result = est.fit([1e200] * 6, theta0=[0.3])
        assert not result.converged
        assert result.n_samples == 6
        assert result.dropped_observations == 6
        assert result.theta == pytest.approx([0.3])
        assert np.all(np.isfinite(result.theta))
        assert result.log_likelihood == -np.inf
        assert result.arm_counts is not None
        assert np.all(result.arm_counts == 0.0)

    def test_partial_drop_still_fits_the_rest(self, diamond_model):
        est = EMEstimator(diamond_model, timer=MICAZ_LIKE.timer)
        good = sample_rewards(diamond_model.chain([0.7]), 200, rng=9)
        result = est.fit(np.concatenate([good, [1e200] * 3]))
        assert result.dropped_observations == 3
        assert np.all(np.isfinite(result.theta))
