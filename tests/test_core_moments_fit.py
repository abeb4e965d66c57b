"""Tests for the moment-matching estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fit_moments
from repro.errors import EstimationError
from repro.markov.sampling import sample_rewards
from repro.mote import MICAZ_LIKE, TimestampTimer
from repro.placement.layout import Layout
from repro.sim import ProcedureTimingModel
from repro.workloads.synthetic import random_estimation_problem
from tests.conftest import build_diamond_procedure


def make_model(proc):
    return ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))


def sample_durations(model, theta, n, seed, timer=None):
    exact = sample_rewards(model.chain(theta), n, rng=seed)
    if timer is None:
        return exact
    rng = np.random.default_rng(seed + 1)
    return np.array([timer.measure_cycles(0.0, d, rng) for d in exact])


class TestNoiseVariance:
    def test_ideal_timer_has_tiny_noise(self):
        assert TimestampTimer(cycles_per_tick=1).noise_variance() == pytest.approx(1.0 / 6.0)

    def test_noise_grows_quadratically_with_tick(self):
        v1 = TimestampTimer(cycles_per_tick=10).noise_variance()
        v2 = TimestampTimer(cycles_per_tick=20).noise_variance()
        assert v2 == pytest.approx(4 * v1)

    def test_jitter_adds_twice_its_variance(self):
        base = TimestampTimer(cycles_per_tick=1).noise_variance()
        jittered = TimestampTimer(cycles_per_tick=1, jitter_cycles=5.0).noise_variance()
        assert jittered == pytest.approx(base + 2 * 25.0)


class TestFitSingleBranch:
    def test_recovers_known_probability_exact_timer(self):
        proc, _ = build_diamond_procedure(then_cost_pad=5, else_cost_pad=60)
        model = make_model(proc)
        truth = np.array([0.3])
        xs = sample_durations(model, truth, 4000, seed=2)
        result = fit_moments(model, xs)
        assert result.theta[0] == pytest.approx(0.3, abs=0.02)

    def test_recovers_under_quantization(self):
        proc, _ = build_diamond_procedure(then_cost_pad=5, else_cost_pad=60)
        model = make_model(proc)
        truth = np.array([0.7])
        timer = TimestampTimer(cycles_per_tick=8)
        xs = sample_durations(model, truth, 4000, seed=3, timer=timer)
        result = fit_moments(model, xs, timer=timer)
        assert result.theta[0] == pytest.approx(0.7, abs=0.04)

    def test_skewed_probability_recovered(self):
        proc, _ = build_diamond_procedure(then_cost_pad=5, else_cost_pad=60)
        model = make_model(proc)
        truth = np.array([0.05])
        xs = sample_durations(model, truth, 6000, seed=4)
        result = fit_moments(model, xs)
        assert result.theta[0] == pytest.approx(0.05, abs=0.02)

    def test_mean_only_suffices_for_one_branch(self):
        proc, _ = build_diamond_procedure(then_cost_pad=5, else_cost_pad=60)
        model = make_model(proc)
        truth = np.array([0.4])
        xs = sample_durations(model, truth, 4000, seed=5)
        result = fit_moments(model, xs, moments_used=1)
        assert result.theta[0] == pytest.approx(0.4, abs=0.03)


class TestFitMultiBranch:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_recovers_synthetic_problems(self, seed):
        proc, truth = random_estimation_problem(rng=seed, n_branches=3)
        model = make_model(proc)
        xs = sample_durations(model, truth, 6000, seed=seed + 1)
        result = fit_moments(model, xs, rng=seed)
        assert np.mean(np.abs(result.theta - truth)) < 0.08

    def test_more_samples_reduce_error(self):
        proc, truth = random_estimation_problem(rng=77, n_branches=2)
        model = make_model(proc)
        errors = []
        for n in (100, 10_000):
            xs = sample_durations(model, truth, n, seed=8)
            result = fit_moments(model, xs, rng=1)
            errors.append(np.mean(np.abs(result.theta - truth)))
        assert errors[1] <= errors[0] + 1e-9


class TestFitInterface:
    def test_empty_samples_rejected(self, diamond_procedure):
        with pytest.raises(EstimationError):
            fit_moments(make_model(diamond_procedure), [])

    def test_bad_moments_used_rejected(self, diamond_procedure):
        with pytest.raises(EstimationError):
            fit_moments(make_model(diamond_procedure), [1.0], moments_used=4)

    def test_bad_restarts_rejected(self, diamond_procedure):
        with pytest.raises(EstimationError):
            fit_moments(make_model(diamond_procedure), [1.0], restarts=0)

    def test_zero_parameter_model_trivial(self):
        from repro.lang import compile_source

        prog = compile_source("proc main() { led(1); }")
        model = ProcedureTimingModel(
            prog.procedure("main"), MICAZ_LIKE, Layout.source_order(prog.procedure("main").cfg)
        )
        result = fit_moments(model, [50.0, 50.0])
        assert result.theta.size == 0
        assert result.cost == 0.0

    def test_result_reports_observed_and_predicted(self, diamond_procedure):
        model = make_model(diamond_procedure)
        xs = sample_durations(model, np.array([0.5]), 500, seed=1)
        result = fit_moments(model, xs)
        assert result.n_samples == 500
        assert len(result.observed_moments) == 3
        assert len(result.predicted_moments) == 3
        # mean matched closely
        assert abs(result.predicted_moments[0] - result.observed_moments[0]) < 5.0

    def test_theta_respects_bounds(self, diamond_procedure):
        model = make_model(diamond_procedure)
        # Absurd observations cannot push theta out of [0, 1].
        result = fit_moments(model, [1e6] * 10)
        assert 0.0 <= result.theta[0] <= 1.0

    def test_a_model_that_cannot_absorb_fails_as_an_estimation_error(self):
        from tests.test_timing_model_oracle import trap_procedure

        model = make_model(trap_procedure())
        with pytest.raises(EstimationError, match="cannot reach absorption"):
            fit_moments(model, [40.0, 48.0, 40.0])
