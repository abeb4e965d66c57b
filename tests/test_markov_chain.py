"""Tests for the absorbing-chain mathematics — the load-bearing numerics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarkovError, NotAbsorbingError
from repro.markov import (
    AbsorbingChain,
    expected_edge_traversals,
    expected_visits,
    reward_moments,
    sample_rewards,
)


def two_state_chain(p_exit: float = 0.5, rewards=(3.0, 7.0)) -> AbsorbingChain:
    """a -> b (prob 1), b loops to itself with prob 1-p_exit else exits."""
    matrix = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 1.0 - p_exit, p_exit],
        ]
    )
    return AbsorbingChain(["a", "b"], matrix, rewards, "a")


def bernoulli_chain(p: float, c_then: float, c_else: float) -> AbsorbingChain:
    """entry -> then (p) or else (1-p); both exit."""
    matrix = np.array(
        [
            [0.0, p, 1.0 - p, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return AbsorbingChain(["entry", "then", "else"], matrix, [0.0, c_then, c_else], "entry")


class TestConstruction:
    def test_rejects_bad_shape(self):
        with pytest.raises(MarkovError, match="shape"):
            AbsorbingChain(["a"], np.zeros((1, 3)), [1.0], "a")

    def test_rejects_non_stochastic_rows(self):
        matrix = np.array([[0.4, 0.4]])
        with pytest.raises(MarkovError, match="sums to"):
            AbsorbingChain(["a"], matrix, [1.0], "a")

    def test_rejects_negative_probabilities(self):
        matrix = np.array([[-0.5, 1.5]])
        with pytest.raises(MarkovError, match="non-negative"):
            AbsorbingChain(["a"], matrix, [1.0], "a")

    def test_rejects_unknown_start(self):
        with pytest.raises(MarkovError, match="start"):
            AbsorbingChain(["a"], np.array([[0.0, 1.0]]), [1.0], "zzz")

    def test_rejects_duplicate_states(self):
        with pytest.raises(MarkovError, match="duplicate"):
            AbsorbingChain(["a", "a"], np.array([[0.0, 0.0, 1.0]] * 2), [1.0, 1.0], "a")

    def test_rejects_negative_rewards(self):
        with pytest.raises(MarkovError, match="non-negative"):
            AbsorbingChain(["a"], np.array([[0.0, 1.0]]), [-1.0], "a")

    def test_detects_non_absorbing_trap(self):
        # a -> b, b -> a forever; exit unreachable.
        matrix = np.array(
            [
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
            ]
        )
        with pytest.raises(NotAbsorbingError):
            AbsorbingChain(["a", "b"], matrix, [1.0, 1.0], "a")

    def test_unreachable_trap_is_tolerated(self):
        # trap loops forever but is unreachable from start.
        matrix = np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 1.0, 0.0],
            ]
        )
        chain = AbsorbingChain(["a", "trap"], matrix, [1.0, 1.0], "a")
        assert reward_moments(chain).mean == pytest.approx(1.0)

    def test_probability_lookup(self):
        chain = bernoulli_chain(0.3, 5.0, 9.0)
        assert chain.probability("entry", "then") == pytest.approx(0.3)
        assert chain.probability("then", None) == pytest.approx(1.0)


class TestExpectedValues:
    def test_geometric_visit_count(self):
        # b revisits itself with prob 0.75 -> expected visits 1/0.25 = 4.
        chain = two_state_chain(p_exit=0.25)
        visits = expected_visits(chain)
        assert visits["a"] == pytest.approx(1.0)
        assert visits["b"] == pytest.approx(4.0)

    def test_expected_reward_linear_in_visits(self):
        chain = two_state_chain(p_exit=0.25, rewards=(3.0, 7.0))
        assert reward_moments(chain).mean == pytest.approx(3.0 + 4.0 * 7.0)

    def test_bernoulli_mean_and_variance(self):
        p, a, b = 0.3, 10.0, 30.0
        m = reward_moments(bernoulli_chain(p, a, b))
        assert m.mean == pytest.approx(p * a + (1 - p) * b)
        assert m.variance == pytest.approx(p * (1 - p) * (a - b) ** 2)

    def test_bernoulli_third_moment(self):
        p, a, b = 0.3, 10.0, 30.0
        m = reward_moments(bernoulli_chain(p, a, b))
        mean = p * a + (1 - p) * b
        mu3 = p * (a - mean) ** 3 + (1 - p) * (b - mean) ** 3
        assert m.third_central == pytest.approx(mu3)

    def test_geometric_total_reward_moments(self):
        # Total reward = 3 + 7*N with N ~ Geometric(p=0.25) (support >= 1):
        # E[N] = 4, Var[N] = (1-p)/p^2 = 12.
        m = reward_moments(two_state_chain(p_exit=0.25, rewards=(3.0, 7.0)))
        assert m.mean == pytest.approx(3.0 + 7.0 * 4.0)
        assert m.variance == pytest.approx(49.0 * 12.0)

    def test_edge_traversals(self):
        chain = two_state_chain(p_exit=0.25)
        traversals = expected_edge_traversals(chain)
        assert traversals[("a", "b")] == pytest.approx(1.0)
        assert traversals[("b", "b")] == pytest.approx(3.0)
        assert traversals[("b", None)] == pytest.approx(1.0)

    def test_skewness_property(self):
        m = reward_moments(bernoulli_chain(0.1, 0.0, 100.0))
        # Rare cheap arm, common expensive arm -> left-skewed total.
        assert m.third_central < 0


class TestRandomRewards:
    def test_random_reward_mean_adds(self):
        # State b carries a random reward with mean 7, var 4.
        matrix = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        chain = AbsorbingChain(
            ["a", "b"], matrix, ([3.0, 7.0], [0.0, 4.0], [0.0, 0.0]), "a"
        )
        m = reward_moments(chain)
        assert m.mean == pytest.approx(10.0)
        assert m.variance == pytest.approx(4.0)

    def test_variance_of_sum_over_geometric_visits(self):
        # Reward per visit: mean mu, var s2, visited N ~ Geom(p); total T:
        # Var[T] = E[N] s2 + Var[N] mu^2 (law of total variance).
        p_exit, mu, s2 = 0.25, 7.0, 4.0
        matrix = np.array([[1.0 - p_exit, p_exit]])
        chain = AbsorbingChain(["b"], matrix, ([mu], [s2], [0.0]), "b")
        m = reward_moments(chain)
        mean_n, var_n = 1.0 / p_exit, (1.0 - p_exit) / p_exit**2
        assert m.mean == pytest.approx(mean_n * mu)
        assert m.variance == pytest.approx(mean_n * s2 + var_n * mu**2)

    def test_has_random_rewards_flag(self):
        deterministic = two_state_chain()
        assert not deterministic.has_random_rewards
        matrix = np.array([[0.0, 1.0]])
        random_chain = AbsorbingChain(["a"], matrix, ([1.0], [0.5], [0.0]), "a")
        assert random_chain.has_random_rewards

    def test_sampling_rejects_random_rewards(self):
        matrix = np.array([[0.0, 1.0]])
        chain = AbsorbingChain(["a"], matrix, ([1.0], [0.5], [0.0]), "a")
        with pytest.raises(MarkovError, match="deterministic"):
            sample_rewards(chain, 10, rng=0)


class TestSampling:

    def test_vectorized_sampling_matches_analytics(self):
        chain = two_state_chain(p_exit=0.3, rewards=(2.0, 5.0))
        xs = sample_rewards(chain, 40_000, rng=11)
        m = reward_moments(chain)
        assert xs.mean() == pytest.approx(m.mean, rel=0.02)
        assert xs.var() == pytest.approx(m.variance, rel=0.05)

    def test_vectorized_third_moment_matches(self):
        chain = bernoulli_chain(0.2, 10.0, 50.0)
        xs = sample_rewards(chain, 60_000, rng=5)
        m = reward_moments(chain)
        empirical_mu3 = np.mean((xs - xs.mean()) ** 3)
        assert empirical_mu3 == pytest.approx(m.third_central, rel=0.08)

    def test_zero_count(self):
        assert sample_rewards(two_state_chain(), 0, rng=0).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_rewards(two_state_chain(), -1, rng=0)

    @given(st.floats(0.05, 0.95), st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_bernoulli_sampling_matches_mean(self, p, a, b):
        chain = bernoulli_chain(p, a, b)
        xs = sample_rewards(chain, 4000, rng=17)
        m = reward_moments(chain)
        assert xs.mean() == pytest.approx(m.mean, abs=max(1.0, 0.1 * (a + b)))


class _ZeroDrawRng(np.random.Generator):
    """A Generator whose uniform draws are all exactly 0.0."""

    def __init__(self) -> None:
        super().__init__(np.random.PCG64(0))

    def random(self, size=None, *args, **kwargs):  # noqa: A003
        return np.zeros(size if size is not None else ())


class TestSamplingEdgeCases:
    def test_zero_probability_arm_never_selected_on_zero_draw(self):
        # Regression: cumulative binning with a strict `<` let a draw of
        # exactly 0.0 select column 0 even when its probability was 0.
        chain = bernoulli_chain(0.0, 1e6, 5.0)
        totals = sample_rewards(chain, 16, rng=_ZeroDrawRng())
        assert np.all(totals == 5.0)

    def test_certain_arm_always_selected_on_zero_draw(self):
        chain = bernoulli_chain(1.0, 5.0, 1e6)
        totals = sample_rewards(chain, 16, rng=_ZeroDrawRng())
        assert np.all(totals == 5.0)

    def test_zero_probability_arm_never_selected_at_any_seed(self):
        chain = bernoulli_chain(0.0, 1e6, 5.0)
        for seed in range(8):
            assert np.all(sample_rewards(chain, 500, rng=seed) == 5.0)

    def test_sample_rewards_tolerates_tiny_row_sum_error(self):
        # Chain construction accepts rows within 1e-8 of unit mass; the
        # sampler must renormalize before binning its cumulative rows.
        chain = two_state_chain(p_exit=0.4)
        chain._matrix[0, 1] += 1e-12
        chain._matrix[1, 1] += 1e-12
        totals = sample_rewards(chain, 100, rng=0)
        assert np.all(totals >= 3.0 + 7.0)

    def test_samplers_tolerate_row_sum_error_beyond_choice_tolerance(self):
        # Regression: rows summing to 1 +/- ~1e-7 (past Generator.choice's
        # acceptance window) once made a sampler raise ValueError.
        chain = two_state_chain(p_exit=0.4)
        chain._matrix[0, 1] += 1e-7
        chain._matrix[1, 2] -= 1e-7
        totals = sample_rewards(chain, 100, rng=0)
        assert totals.shape == (100,)

    def test_zero_mass_row_rejected(self):
        chain = two_state_chain(p_exit=0.4)
        chain._matrix[1, :] = 0.0
        with pytest.raises(MarkovError, match="zero-mass"):
            sample_rewards(chain, 1, rng=0)
