"""Reference implementations of the estimation math, kept for tests.

These are the straightforward forms the production code in
:mod:`repro.core.path_enum`, :mod:`repro.core.em` and
:mod:`repro.sim.timing` was optimized from:

* a heap enumerator that carries each path's arm counts as tuples and
  returns one :class:`OraclePath` object per path;
* a per-path, per-element ``log_probability``;
* an EM loop whose E-step runs over every observation row;
* a procedure timing model that keeps its transition plan as Python rows
  and builds, validates and solves a whole absorbing chain on every
  ``moments`` call.

The oracle tests hold the production code bit-identical to them; the
helpers after the EM loop are shared by the oracle test modules.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.em import (
    MAX_ITERATIONS,
    REENUMERATE_SHIFT,
    TOLERANCE,
    EMEstimator,
    EMResult,
)
from repro.core.moments_fit import robust_filter
from repro.errors import (
    EstimationError,
    MarkovError,
    NotAbsorbingError,
    SimulationError,
)
from repro.ir.instructions import Branch, Jump, Return
from repro.markov.builders import BranchParameterization
from repro.markov.moments import RewardMoments
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
        return oracle_enumerate_paths(em.model, t)

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
    for iterations in range(1, MAX_ITERATIONS + 1):
        if np.max(np.abs(theta - family_theta)) > REENUMERATE_SHIFT:
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

        if np.max(np.abs(new_theta - theta)) < TOLERANCE:
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


def oracle_observed_moments(model, durations, timer, robust=False):
    """``fit_moments(...).observed_moments`` as the moments fit computes it.

    Drift rescale, the optional robust screen (default bounds), then the
    sample's mean, noise-corrected variance and third central moment.
    """
    xs = np.asarray(durations, dtype=float)
    if timer is not None and timer.drift_ppm != 0.0:
        xs = xs / timer.drift_scale
    if robust and model.n_parameters:
        xs, _ = robust_filter(model, xs, timer)
    mean = float(xs.mean())
    centered = xs - mean
    variance = float(np.mean(centered**2))
    mu3 = float(np.mean(centered**3))
    if timer is not None:
        variance = max(variance - timer.noise_variance(), 0.0)
    return (mean, variance, mu3)


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


# -- the timing model with a per-call chain ------------------------------------


class OracleChain:
    """An absorbing chain validated and solved the straightforward way."""

    def __init__(self, states, transition, rewards, start) -> None:
        self.states = list(states)
        if len(set(self.states)) != len(self.states):
            raise MarkovError("duplicate state names")
        n = len(self.states)
        if n == 0:
            raise MarkovError("chain needs at least one transient state")

        matrix = np.asarray(transition, dtype=float)
        if matrix.shape != (n, n + 1):
            raise MarkovError(
                f"transition must be shape ({n}, {n + 1}), got {matrix.shape}"
            )
        if np.any(matrix < -1e-12):
            raise MarkovError("transition probabilities must be non-negative")
        row_sums = matrix.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-8):
            bad = int(np.argmax(np.abs(row_sums - 1.0)))
            raise MarkovError(
                f"row {self.states[bad]!r} sums to {row_sums[bad]}, expected 1"
            )
        self.matrix = np.clip(matrix, 0.0, 1.0)

        if isinstance(rewards, tuple) and len(rewards) == 3:
            mean_vec, var_vec, mu3_vec = (np.asarray(v, dtype=float) for v in rewards)
        else:
            mean_vec = np.asarray(rewards, dtype=float)
            var_vec = np.zeros_like(mean_vec)
            mu3_vec = np.zeros_like(mean_vec)
        for name, vec in (("mean", mean_vec), ("variance", var_vec), ("mu3", mu3_vec)):
            if vec.shape != (n,):
                raise MarkovError(f"reward {name} must have length {n}, got {vec.shape}")
        if np.any(mean_vec < 0):
            raise MarkovError("reward means must be non-negative")
        if np.any(var_vec < 0):
            raise MarkovError("reward variances must be non-negative")
        self.rewards = mean_vec
        self.reward_variances = var_vec
        self.reward_third_centrals = mu3_vec

        if start not in self.states:
            raise MarkovError(f"start state {start!r} not among states")
        self.start_index = self.states.index(start)
        self._check_absorbing()

    @property
    def Q(self) -> np.ndarray:
        view = self.matrix[:, :-1]
        view.flags.writeable = False
        return view

    @property
    def exit_probabilities(self) -> np.ndarray:
        view = self.matrix[:, -1]
        view.flags.writeable = False
        return view

    def _check_absorbing(self) -> None:
        n = len(self.states)
        positive = (self.Q > 0).astype(np.int64)
        can_exit = np.asarray(self.exit_probabilities > 0, dtype=bool)
        changed = True
        while changed:
            changed = False
            reaches = (positive @ can_exit.astype(np.int64)) > 0
            new = can_exit | reaches
            if np.any(new != can_exit):
                can_exit = new
                changed = True
        reachable = np.zeros(n, dtype=bool)
        reachable[self.start_index] = True
        changed = True
        while changed:
            changed = False
            new = reachable | ((reachable.astype(np.int64) @ positive) > 0)
            if np.any(new != reachable):
                reachable = new
                changed = True
        trapped = [s for i, s in enumerate(self.states) if reachable[i] and not can_exit[i]]
        if trapped:
            raise NotAbsorbingError(f"states cannot reach absorption: {trapped}")
        self.reachable_mask = reachable

    def fundamental_matrix(self) -> np.ndarray:
        mask = self.reachable_mask
        sub_q = self.Q[np.ix_(mask, mask)]
        identity = np.eye(int(mask.sum()))
        sub_n = np.linalg.solve(identity - sub_q, identity)
        full = np.zeros((len(self.states), len(self.states)))
        full[np.ix_(mask, mask)] = sub_n
        return full

    def reward_moment_vectors(self):
        fundamental = self.fundamental_matrix()
        r1 = self.rewards
        r2 = self.reward_variances + r1**2
        r3 = self.reward_third_centrals + 3.0 * r1 * self.reward_variances + r1**3
        q_matrix = self.Q
        m1 = fundamental @ r1
        qm1 = q_matrix @ m1
        m2 = fundamental @ (r2 + 2.0 * r1 * qm1)
        qm2 = q_matrix @ m2
        m3 = fundamental @ (r3 + 3.0 * r2 * qm1 + 3.0 * r1 * qm2)
        return m1, m2, m3


def oracle_reward_moments(chain: OracleChain) -> RewardMoments:
    m1_vec, m2_vec, m3_vec = chain.reward_moment_vectors()
    i = chain.start_index
    m1, m2, m3 = float(m1_vec[i]), float(m2_vec[i]), float(m3_vec[i])
    variance = max(m2 - m1 * m1, 0.0)
    third = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    return RewardMoments(mean=m1, variance=variance, third_central=third)


class OracleTimingModel:
    """:class:`ProcedureTimingModel` with its plan as rows of tuples.

    Every :meth:`chain` call walks the rows into a fresh matrix, and every
    :meth:`moments` call builds, validates and solves that chain.  It has
    the attributes :func:`repro.core.moments_fit.fit_moments` reads.
    """

    def __init__(self, procedure, platform, layout, callee_moments=None) -> None:
        self.procedure = procedure
        callee_moments = dict(callee_moments or {})
        cfg = procedure.cfg
        par = BranchParameterization(cfg)
        self.branch_labels = par.branch_labels
        cpu = platform.cpu

        states: list[str] = []
        mean: list[float] = []
        var: list[float] = []
        mu3: list[float] = []
        self._rows: list[list[tuple]] = []
        index: dict[str, int] = {}

        def add_state(name: str, m: float, v: float, t: float) -> int:
            index[name] = len(states)
            states.append(name)
            mean.append(m)
            var.append(v)
            mu3.append(t)
            self._rows.append([])
            return index[name]

        for label in par.states:
            block = cfg.block(label)
            det = float(cpu.cost_model.block_cycles(block))
            m_extra = v_extra = t_extra = 0.0
            for callee in block.calls():
                try:
                    cm = callee_moments[callee]
                except KeyError:
                    raise SimulationError(
                        f"timing model for {procedure.name!r} needs moments of "
                        f"callee {callee!r}"
                    ) from None
                m_extra += cm.mean
                v_extra += cm.variance
                t_extra += cm.third_central
            term = block.terminator
            if isinstance(term, Return):
                det += cpu.return_cost()
            elif isinstance(term, Jump):
                det += cpu.jump_cost(fallthrough=layout.jump_is_elided(label))
            add_state(label, det + m_extra, v_extra, t_extra)

        for label in par.states:
            block = cfg.block(label)
            term = block.terminator
            src = index[label]
            if isinstance(term, Return):
                self._rows[src].append(("exit", 1.0))
            elif isinstance(term, Jump):
                self._rows[src].append(("fixed", index[term.target], 1.0))
            elif isinstance(term, Branch):
                site = layout.resolve_branch(label)
                k = self.branch_labels.index(label)
                for arm, target in (("then", term.then_target), ("else", term.else_target)):
                    cost = float(
                        cpu.branch_cost(
                            taken=site.arm_taken(arm),
                            backward_target=site.backward_taken_target,
                        )
                    )
                    if arm == site.extra_jump_arm:
                        cost += cpu.jump_cycles
                    arm_state = add_state(f"{label}@{arm}", cost, 0.0, 0.0)
                    self._rows[arm_state].append(("fixed", index[target], 1.0))
                    self._rows[src].append(("theta", arm_state, k, arm))

        self.states = states
        self.rewards = (np.asarray(mean), np.asarray(var), np.asarray(mu3))
        self.entry = procedure.cfg.entry

    @property
    def n_parameters(self) -> int:
        return len(self.branch_labels)

    def transition_plan(self) -> list[list[tuple]]:
        return [[tuple(entry) for entry in row] for row in self._rows]

    def chain(self, theta) -> OracleChain:
        vec = np.asarray(theta, dtype=float)
        if vec.shape != (self.n_parameters,):
            raise SimulationError(
                f"theta must have length {self.n_parameters}, got shape {vec.shape}"
            )
        n = len(self.states)
        matrix = np.zeros((n, n + 1))
        for i, row in enumerate(self._rows):
            for entry in row:
                if entry[0] == "exit":
                    matrix[i, n] += entry[1]
                elif entry[0] == "fixed":
                    matrix[i, entry[1]] += entry[2]
                else:
                    _, arm_state, k, arm = entry
                    p = vec[k] if arm == "then" else 1.0 - vec[k]
                    matrix[i, arm_state] += p
        return OracleChain(self.states, matrix, self.rewards, self.entry)

    def moments(self, theta) -> RewardMoments:
        return oracle_reward_moments(self.chain(theta))
