"""Central moments of accumulated reward (= procedure execution time).

Code Tomography's least-squares estimator matches *analytic* moments of the
chain against *empirical* moments of the observed end-to-end timings.  This
module converts the raw per-start-state moments exposed by
:class:`repro.markov.chain.AbsorbingChain` into the central moments of the
time distribution seen at the procedure boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.markov.chain import AbsorbingChain

__all__ = ["RewardMoments", "central_reward_moments", "reward_moments"]


@dataclass(frozen=True)
class RewardMoments:
    """Mean, variance and third central moment of total accumulated reward."""

    mean: float
    variance: float
    third_central: float

    @property
    def std(self) -> float:
        """Standard deviation."""
        return self.variance**0.5

    @property
    def skewness(self) -> float:
        """Standardized skewness (0 when the variance is degenerate)."""
        if self.variance <= 0:
            return 0.0
        return self.third_central / self.variance**1.5

    def as_tuple(self) -> tuple[float, float, float]:
        """``(mean, variance, third_central)`` — the fitting target vector."""
        return (self.mean, self.variance, self.third_central)


def central_reward_moments(m1: float, m2: float, m3: float) -> RewardMoments:
    """Central moments from the raw ones of total reward.

    ``var = m2 - m1²`` (floored at 0), ``mu3 = m3 - 3 m1 m2 + 2 m1³``.
    """
    variance = max(m2 - m1 * m1, 0.0)
    third = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    return RewardMoments(mean=m1, variance=variance, third_central=third)


def reward_moments(chain: AbsorbingChain) -> RewardMoments:
    """Exact central moments of total reward from the chain's start state."""
    m1_vec, m2_vec, m3_vec = chain.reward_moment_vectors()
    i = chain.start_index
    return central_reward_moments(float(m1_vec[i]), float(m2_vec[i]), float(m3_vec[i]))
