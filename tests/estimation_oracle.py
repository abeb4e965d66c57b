"""Reference implementations of path enumeration and EM, kept for tests.

These are the straightforward forms the production code in
:mod:`repro.core.path_enum` and :mod:`repro.core.em` was optimized from:

* a heap enumerator that carries each path's arm counts as tuples and
  returns one :class:`OraclePath` object per path;
* a per-path, per-element ``log_probability``;
* an EM loop whose E-step runs over every observation row.

The oracle tests hold the production code bit-identical to them; the
helpers at the end are shared by both oracle test modules.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.em import EMEstimator, EMResult
from repro.errors import EstimationError
from repro.mote import MICAZ_LIKE
from repro.placement.layout import Layout
from repro.sim.timing import ProcedureTimingModel
from repro.workloads.synthetic import random_estimation_problem


@dataclass(frozen=True)
class OraclePath:
    """One complete path's sufficient statistics."""

    then_counts: tuple[int, ...]
    else_counts: tuple[int, ...]
    duration_mean: float
    duration_variance: float

    def log_probability(self, theta: np.ndarray) -> float:
        a = np.asarray(self.then_counts, dtype=float)
        b = np.asarray(self.else_counts, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = a * np.log(theta) + b * np.log1p(-theta)
        log_p = np.where((a == 0) & np.isnan(log_p), 0.0, log_p)
        log_p = np.where((b == 0) & np.isnan(log_p), 0.0, log_p)
        return float(np.sum(log_p))


@dataclass(frozen=True)
class OracleFamily:
    """A tuple of :class:`OraclePath` plus coverage bookkeeping."""

    paths: tuple[OraclePath, ...]
    covered_probability: float
    reference_theta: tuple[float, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.paths)

    def then_counts(self) -> np.ndarray:
        return np.array([p.then_counts for p in self.paths], dtype=float)

    def else_counts(self) -> np.ndarray:
        return np.array([p.else_counts for p in self.paths], dtype=float)

    def duration_means(self) -> np.ndarray:
        return np.array([p.duration_mean for p in self.paths])

    def duration_variances(self) -> np.ndarray:
        return np.array([p.duration_variance for p in self.paths])

    def log_probabilities(self, theta: np.ndarray) -> np.ndarray:
        return np.array([p.log_probability(theta) for p in self.paths])


def oracle_enumerate_paths(
    model: ProcedureTimingModel,
    reference_theta: Optional[Sequence[float]] = None,
    min_prob: float = 1e-6,
    max_paths: int = 2000,
) -> OracleFamily:
    """Best-first enumeration with tuple arm counts and one heap push per child."""
    k = model.n_parameters
    if reference_theta is None:
        theta_ref = np.full(k, 0.5)
    else:
        theta_ref = np.asarray(reference_theta, dtype=float)
        if theta_ref.shape != (k,):
            raise EstimationError(
                f"reference_theta must have length {k}, got {theta_ref.shape}"
            )
    theta_ref = np.clip(theta_ref, 0.02, 0.98)
    if not 0.0 < min_prob < 1.0:
        raise EstimationError(f"min_prob must lie in (0, 1), got {min_prob}")
    if max_paths < 1:
        raise EstimationError(f"max_paths must be >= 1, got {max_paths}")

    plan = model.transition_plan()
    means = model.reward_means
    variances = model.reward_variances
    entry_index = model.states.index(model.entry_state)

    counter = itertools.count()
    start = (
        -1.0,
        next(counter),
        entry_index,
        1.0,
        (0,) * k,
        (0,) * k,
        float(means[entry_index]),
        float(variances[entry_index]),
    )
    frontier: list[tuple] = [start]
    paths: list[OraclePath] = []
    covered = 0.0
    truncated = False

    while frontier:
        if len(paths) >= max_paths:
            truncated = True
            break
        _, _, state, prob, a, b, dur_mean, dur_var = heapq.heappop(frontier)
        if prob < min_prob:
            truncated = True
            break
        for entry in plan[state]:
            if entry[0] == "exit":
                p_next = prob * entry[1]
                if p_next <= 0:
                    continue
                paths.append(OraclePath(a, b, dur_mean, dur_var))
                covered += p_next
                continue
            if entry[0] == "fixed":
                _, dst, p_edge = entry
                p_next = prob * p_edge
                a2, b2 = a, b
            else:
                _, dst, param, arm = entry
                p_edge = theta_ref[param] if arm == "then" else 1.0 - theta_ref[param]
                p_next = prob * p_edge
                if arm == "then":
                    a2 = a[:param] + (a[param] + 1,) + a[param + 1 :]
                    b2 = b
                else:
                    a2 = a
                    b2 = b[:param] + (b[param] + 1,) + b[param + 1 :]
            if p_next < min_prob:
                truncated = True
                continue
            heapq.heappush(
                frontier,
                (
                    -p_next,
                    next(counter),
                    dst,
                    p_next,
                    a2,
                    b2,
                    dur_mean + float(means[dst]),
                    dur_var + float(variances[dst]),
                ),
            )

    if not paths:
        raise EstimationError("path enumeration found no complete path within limits")
    return OracleFamily(
        paths=tuple(paths),
        covered_probability=covered,
        reference_theta=tuple(float(t) for t in theta_ref),
        truncated=truncated,
    )


def oracle_fit(
    em: EMEstimator,
    durations: Sequence[float],
    theta0: Optional[Sequence[float]] = None,
    family: Optional[OracleFamily] = None,
) -> tuple[EMResult, OracleFamily]:
    """``em.fit_with_family`` with an E-step over every observation row."""
    ys = np.asarray(durations, dtype=float)
    k = em.model.n_parameters
    theta = np.full(k, 0.5) if theta0 is None else np.asarray(theta0, dtype=float)
    theta = np.clip(theta, 0.02, 0.98)

    def enumerate_at(t):
        return oracle_enumerate_paths(
            em.model, t, min_prob=em.min_prob, max_paths=em.max_paths
        )

    def log_kernel(fam: OracleFamily) -> np.ndarray:
        var = em._kernel_variance() + fam.duration_variances()
        diff = ys[:, None] - fam.duration_means()[None, :]
        with np.errstate(over="ignore"):
            return -0.5 * (diff**2 / var[None, :] + np.log(2.0 * np.pi * var[None, :]))

    if family is None:
        family = enumerate_at(theta)
    kernel = log_kernel(family)
    a_mat, b_mat = family.then_counts(), family.else_counts()
    family_theta = np.asarray(family.reference_theta, dtype=float)

    converged = False
    log_likelihood = -np.inf
    dropped = 0
    iterations = 0
    arm_counts = np.zeros(theta.size)
    for iterations in range(1, em.max_iterations + 1):
        if np.max(np.abs(theta - family_theta)) > em.reenumerate_shift:
            family = enumerate_at(theta)
            kernel = log_kernel(family)
            a_mat, b_mat = family.then_counts(), family.else_counts()
            family_theta = theta.copy()

        log_prior = family.log_probabilities(theta)
        prior_max = log_prior.max()
        log_mass = prior_max + np.log(np.sum(np.exp(log_prior - prior_max)))
        log_prior = log_prior - log_mass
        log_joint = kernel + log_prior[None, :]
        row_max = log_joint.max(axis=1)
        usable = np.isfinite(row_max)
        dropped = int(np.sum(~usable))
        if not np.any(usable):
            result = EMResult(
                theta=theta,
                iterations=iterations,
                converged=False,
                log_likelihood=-np.inf,
                n_samples=int(ys.size),
                n_paths=len(family),
                dropped_observations=int(ys.size),
                arm_counts=np.zeros(theta.size),
            )
            return result, family
        shifted = np.exp(log_joint[usable] - row_max[usable, None])
        norm = shifted.sum(axis=1, keepdims=True)
        resp = shifted / norm
        log_likelihood = float(np.sum(np.log(norm[:, 0]) + row_max[usable]))

        then_counts = resp @ a_mat
        else_counts = resp @ b_mat
        a_total = then_counts.sum(axis=0)
        b_total = else_counts.sum(axis=0)
        denom = a_total + b_total
        arm_counts = denom
        new_theta = np.where(denom > 0, a_total / np.maximum(denom, 1e-12), theta)
        new_theta = np.clip(new_theta, 1e-4, 1.0 - 1e-4)

        if np.max(np.abs(new_theta - theta)) < em.tolerance:
            theta = new_theta
            converged = True
            break
        theta = new_theta

    result = EMResult(
        theta=theta,
        iterations=iterations,
        converged=converged,
        log_likelihood=log_likelihood,
        n_samples=int(ys.size),
        n_paths=len(family),
        dropped_observations=dropped,
        arm_counts=arm_counts,
    )
    return result, family


def assert_same_family(family, oracle):
    assert np.array_equal(family.then_counts, oracle.then_counts())
    assert np.array_equal(family.else_counts, oracle.else_counts())
    assert np.array_equal(family.duration_means, oracle.duration_means())
    assert np.array_equal(family.duration_variances, oracle.duration_variances())
    assert family.covered_probability == oracle.covered_probability
    assert family.truncated == oracle.truncated
    assert family.reference_theta == oracle.reference_theta
    assert len(family) == len(oracle)


def synthetic_model(seed: int, n_branches: int, loop_fraction: float):
    proc, _ = random_estimation_problem(
        rng=seed, n_branches=n_branches, loop_fraction=loop_fraction
    )
    return ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
