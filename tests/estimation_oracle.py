"""Reference implementations of the estimation math, kept for tests.

These are the straightforward forms the production code in
:mod:`repro.core.path_enum`, :mod:`repro.core.em` and
:mod:`repro.sim.timing` was optimized from:

* a heap enumerator that pushes one node per path prefix, carries arm
  counts as tuples and returns one :class:`OraclePath` object per path,
  unfolded;
* a per-path, per-element ``log_probability``;
* an EM loop whose E-step and M-step run over every observation row and
  every enumerated path;
* a procedure timing model that keeps its transition plan as Python rows
  and builds, validates and solves a whole absorbing chain on every
  ``moments`` call, with a per-θ Jacobian from ``∂N = N·∂Q·N``;
* the moments fit's former solver: one scipy ``least_squares`` run
  (trust-region reflective, finite-difference Jacobian) per start.

The oracle tests hold the production path family to the enumerator's
paths grouped by arm counts (:func:`assert_same_family`: the same paths
per group, duration moments to rounding, and path_enum's one rule for a
``max_paths`` cut inside a tie), with class log-probabilities to the last
bit; the production EM to the EM loop within rounding tolerances; the
timing model to the chain (the Jacobian to a tolerance); and the moments
fit's cost to the last.  The helpers after the EM loop are shared by the
oracle test modules.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from repro.core.em import (
    MAX_ITERATIONS,
    REENUMERATE_SHIFT,
    TOLERANCE,
    EMEstimator,
    EMResult,
)
from repro.core.moments_fit import (
    _THETA_EPS,
    PRIOR_WEIGHT,
    MomentFitResult,
    _moment_scales,
    moment_sample,
    observed_moments,
    robust_filter,
)
from repro.errors import (
    EstimationError,
    MarkovError,
    NotAbsorbingError,
    SimulationError,
)
from repro.ir.instructions import Branch, Jump, Return
from repro.lang import compile_source
from repro.markov.builders import BranchParameterization
from repro.markov.moments import RewardMoments
from repro.mote import MICAZ_LIKE
from repro.placement.layout import Layout, ProgramLayout
from repro.sim.timing import ProcedureTimingModel, ProgramTimingModel
from repro.util.rng import as_rng
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
    """A tuple of :class:`OraclePath` plus coverage bookkeeping.

    ``cut`` is True when enumeration stopped at ``max_paths``.
    """

    paths: tuple[OraclePath, ...]
    covered_probability: float
    reference_theta: tuple[float, ...]
    truncated: bool
    cut: bool = False

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
    truncated = cut = False

    while frontier:
        if len(paths) >= max_paths:
            truncated = cut = True
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
        cut=cut,
    )


def oracle_fit(
    em: EMEstimator,
    durations: Sequence[float],
    enumerate_at: Callable[[np.ndarray], OracleFamily],
    theta0: Optional[Sequence[float]] = None,
) -> EMResult:
    """``em.fit`` with both steps over every observation and path.

    ``enumerate_at(theta)`` gives the per-path family at a reference theta.
    """
    ys = np.asarray(durations, dtype=float)
    k = em.model.n_parameters
    theta = np.full(k, 0.5) if theta0 is None else np.asarray(theta0, dtype=float)
    theta = np.clip(theta, 0.02, 0.98)

    def log_kernel(fam: OracleFamily) -> np.ndarray:
        var = em._kernel_variance() + fam.duration_variances()
        diff = ys[:, None] - fam.duration_means()[None, :]
        with np.errstate(over="ignore"):
            return -0.5 * (diff**2 / var[None, :] + np.log(2.0 * np.pi * var[None, :]))

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
            return EMResult(
                theta=theta,
                iterations=iterations,
                converged=False,
                log_likelihood=-np.inf,
                n_samples=int(ys.size),
                n_paths=len(family),
                dropped_observations=int(ys.size),
                arm_counts=np.zeros(theta.size),
            )
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

    return EMResult(
        theta=theta,
        iterations=iterations,
        converged=converged,
        log_likelihood=log_likelihood,
        n_samples=int(ys.size),
        n_paths=len(family),
        dropped_observations=dropped,
        arm_counts=arm_counts,
    )


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


def oracle_fit_moments(
    model, durations, timer=None, moments_used=3, restarts=8, rng=None, robust=False
) -> MomentFitResult:
    """``fit_moments`` on its former solver: one trf ``least_squares`` per start.

    The sample, weights, prior, bounds, ``1e-12`` tolerances and start
    points are the production fit's; only the solver differs.
    """
    gen = as_rng(rng)
    xs, n_rejected = moment_sample(model, durations, timer, robust=robust)
    k = model.n_parameters
    mean, variance, mu3 = observed_moments(xs, timer)
    if k == 0:
        return MomentFitResult(
            theta=np.empty(0),
            cost=0.0,
            observed_moments=(mean, variance, mu3),
            predicted_moments=model.moments(np.empty(0)).as_tuple(),
            n_samples=int(xs.size),
            restarts_used=0,
            n_rejected=n_rejected,
        )
    scales = _moment_scales(mean, variance, int(xs.size), moments_used)
    target = np.array([mean, variance, mu3])[:moments_used]
    sqrt_prior = np.sqrt(PRIOR_WEIGHT)

    def residuals(theta):
        pred = np.array(model.moments(theta).as_tuple())[:moments_used]
        return np.concatenate([(pred - target) / scales, sqrt_prior * (theta - 0.5)])

    starts = [np.full(k, 0.5)]
    for _ in range(restarts - 1):
        starts.append(gen.uniform(0.15, 0.85, size=k))
    best = None
    for x0 in starts:
        sol = least_squares(
            residuals,
            x0,
            bounds=(_THETA_EPS, 1.0 - _THETA_EPS),
            xtol=1e-12,
            ftol=1e-12,
            gtol=1e-12,
            max_nfev=400,
        )
        if best is None or sol.cost < best.cost:
            best = sol
    theta_hat = np.clip(best.x, 0.0, 1.0)
    return MomentFitResult(
        theta=theta_hat,
        cost=float(best.cost),
        observed_moments=(mean, variance, mu3),
        predicted_moments=model.moments(theta_hat).as_tuple(),
        n_samples=int(xs.size),
        restarts_used=len(starts),
        n_rejected=n_rejected,
    )


# -- comparing families --------------------------------------------------------

#: Paths with equal arm counts visit the same blocks, so their duration
#: moments agree up to the order of the sums: a relative bound.
MOMENT_RTOL = 1e-12

#: ``enumerate_paths`` adds a merged node's probability times its count,
#: where the oracle adds the same terms one at a time: a relative bound.
COVERED_RTOL = 1e-12

#: Classes whose reference log-probability lies this close (relative) to the
#: last path's are tied with it; their products ran in different orders.
TIE_RTOL = 1e-9


def arm_key(then_counts, else_counts) -> tuple:
    """A path's or class row's arm counts as a hashable key."""
    return tuple(map(int, then_counts)), tuple(map(int, else_counts))


def row_keys(family) -> list[tuple]:
    """Each :class:`PathFamily` row's arm key, in row order."""
    return [arm_key(a, b) for a, b in zip(family.then_counts, family.else_counts)]


def _grouped(rows) -> dict:
    groups: dict = {}
    for key, mean, variance, paths in rows:
        group = groups.setdefault(key, [0, [], []])
        group[0] += paths
        group[1].append(mean)
        group[2].append(variance)
    return groups


def family_groups(family) -> dict:
    """A :class:`PathFamily`'s rows grouped by arm counts, in first-occurrence
    order: ``{arm key: [paths, duration means, duration variances]}``."""
    rows = zip(
        row_keys(family),
        family.duration_means.tolist(),
        family.duration_variances.tolist(),
        family.multiplicity.tolist(),
    )
    return _grouped(rows)


def oracle_groups(oracle: OracleFamily) -> dict:
    """The oracle's paths grouped as :func:`family_groups` groups rows."""
    return _grouped(
        (arm_key(p.then_counts, p.else_counts), p.duration_mean, p.duration_variance, 1)
        for p in oracle.paths
    )


def tied_tier(oracle: OracleFamily) -> set:
    """Arm keys of the classes tied with the oracle's last path in reference
    probability, when it stopped at ``max_paths`` inside such a tie.

    Empty unless the oracle was cut and more than one of its classes shares
    the last path's probability.  ``enumerate_paths`` fills that tier in
    merged-node order, class by class, where the oracle interleaves the
    tied classes' paths in push order.
    """
    if not oracle.cut:
        return set()
    ref = np.asarray(oracle.reference_theta)
    log_then, log_else = np.log(ref), np.log1p(-ref)

    def log_p(key):
        return float(np.dot(key[0], log_then) + np.dot(key[1], log_else))

    last_path = oracle.paths[-1]
    last = log_p(arm_key(last_path.then_counts, last_path.else_counts))
    tier = {
        key
        for key in oracle_groups(oracle)
        if abs(log_p(key) - last) <= TIE_RTOL * abs(last)
    }
    return tier if len(tier) > 1 else set()


def assert_same_family(family, oracle):
    """``family`` holds the oracle's paths folded into classes.

    Rows compare grouped by arm counts, which fix the blocks a path visits:
    a group's duration moments agree to :data:`MOMENT_RTOL` (its paths
    summed them in different orders, so a class can split in the last
    bits), and the groups come in the oracle's first-occurrence order with
    its path counts.  Where the oracle stopped at ``max_paths`` inside a
    tier of tied classes (:func:`tied_tier`), the family holds the same
    groups above the tier, and its tier, as large as the oracle's, draws
    only on the tied classes.
    """
    ours, theirs = family_groups(family), oracle_groups(oracle)
    tier = tied_tier(oracle)
    assert list(ours) == [key for key in theirs if key in ours], "class order differs"
    missing = set(theirs) - set(ours) - tier
    assert not missing, f"classes missing: {sorted(missing)}"
    for key, (paths, means, variances) in ours.items():
        their_paths, their_means, their_variances = theirs[key]
        if key not in tier:
            assert paths == their_paths, f"class {key}: {paths} paths, oracle {their_paths}"
        np.testing.assert_allclose(
            means + their_means,
            their_means[0],
            rtol=MOMENT_RTOL,
            atol=0,
            err_msg=f"duration means of class {key}",
        )
        np.testing.assert_allclose(
            variances + their_variances,
            their_variances[0],
            rtol=MOMENT_RTOL,
            atol=0,
            err_msg=f"duration variances of class {key}",
        )
    paths = int(family.multiplicity.sum())
    assert paths == len(oracle), f"{paths} paths, oracle {len(oracle)}"
    assert family.truncated == oracle.truncated, "truncation differs"
    assert family.reference_theta == oracle.reference_theta, "reference theta differs"
    np.testing.assert_allclose(
        family.covered_probability,
        oracle.covered_probability,
        rtol=COVERED_RTOL,
        atol=0,
        err_msg="covered probability",
    )


def unfolded(family) -> OracleFamily:
    """A :class:`PathFamily` as the oracle holds paths: each class row
    repeated ``multiplicity`` times, in row order."""
    paths = []
    rows = zip(
        row_keys(family),
        family.duration_means.tolist(),
        family.duration_variances.tolist(),
        family.multiplicity.tolist(),
    )
    for (then_counts, else_counts), mean, var, m in rows:
        paths += [OraclePath(then_counts, else_counts, mean, var)] * m
    return OracleFamily(
        paths=tuple(paths),
        covered_probability=family.covered_probability,
        reference_theta=family.reference_theta,
        truncated=family.truncated,
    )


def synthetic_model(seed: int, n_branches: int, loop_fraction: float):
    proc, _ = random_estimation_problem(
        rng=seed, n_branches=n_branches, loop_fraction=loop_fraction
    )
    return ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))


def folding_loop_model(seed: int, n_branches: int, calls: bool):
    """``main``'s timing model, where ``main`` loops over ``n_branches`` if/else.

    Each arm writes the LEDs zero to three times (drawn from ``seed``).  Two
    paths that take the same arms in a different iteration order share arm
    counts and durations, so their family folds them into one class.  With
    ``calls``, the first branch's then-arm calls a procedure that has a
    branch of its own, whose moments (at a θ drawn from ``seed``) put callee
    variance on the paths.
    """
    timing, callee_moments = folding_loop_timing(seed, n_branches, calls)
    return timing.procedure_model("main", callee_moments)


def folding_loop_timing(seed: int, n_branches: int, calls: bool):
    """The program timing model behind :func:`folding_loop_model`, and the
    callee moments ``main``'s model folds in."""
    rng = np.random.default_rng(seed)
    arms = []
    for j in range(n_branches):
        pads = [" ".join([f"led({j});"] * int(rng.integers(0, 4))) for _arm in range(2)]
        if calls and j == 0:
            pads[0] += " work();"
        arms.append(f"if (sense(s{j}) > 500) {{ {pads[0]} }} else {{ {pads[1]} }}")
    source = "proc main() { while (sense(c) > 500) { " + " ".join(arms) + " } }"
    if calls:
        source = "proc work() { if (sense(w) > 500) { led(7); led(7); } }\n" + source
    program = compile_source(source)
    timing = ProgramTimingModel(program, MICAZ_LIKE, ProgramLayout.source_order(program))
    callee_moments = {}
    if calls:
        work = timing.procedure_model("work", {})
        callee_moments["work"] = work.moments(rng.uniform(0.1, 0.9, work.n_parameters))
    return timing, callee_moments


def family_durations(model, theta, count: int, seed: int) -> np.ndarray:
    """``count`` timer readings of paths drawn from the oracle family at ``theta``.

    Each path's duration is its mean plus Gaussian callee noise, read by an
    8-cycle tick at a uniform phase.
    """
    rng = np.random.default_rng(seed)
    family = oracle_enumerate_paths(model, theta, min_prob=1e-9, max_paths=20_000)
    probs = np.exp(family.log_probabilities(np.asarray(theta, dtype=float)))
    index = rng.choice(len(family), size=count, p=probs / probs.sum())
    noise = rng.normal(size=count) * np.sqrt(family.duration_variances()[index])
    raw = family.duration_means()[index] + noise + rng.uniform(0.0, 8.0, count)
    return np.floor(raw / 8.0) * 8.0


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

    def jacobian(self, theta) -> np.ndarray:
        """The 3 × k Jacobian of the central moments, one ``∂N = N·∂Q·N`` per θ."""
        chain = self.chain(theta)
        fundamental = chain.fundamental_matrix()
        q_matrix = chain.Q
        r1 = chain.rewards
        r2 = chain.reward_variances + r1**2
        r3 = chain.reward_third_centrals + 3.0 * r1 * chain.reward_variances + r1**3
        m1 = fundamental @ r1
        b2 = r2 + 2.0 * r1 * (q_matrix @ m1)
        m2 = fundamental @ b2
        b3 = r3 + 3.0 * r2 * (q_matrix @ m1) + 3.0 * r1 * (q_matrix @ m2)
        m3 = fundamental @ b3
        i = chain.start_index
        n = len(self.states)
        jac = np.zeros((3, self.n_parameters))
        for p in range(self.n_parameters):
            d_q = np.zeros((n, n))
            for src, row in enumerate(self._rows):
                for entry in row:
                    if entry[0] == "theta" and entry[2] == p:
                        d_q[src, entry[1]] += 1.0 if entry[3] == "then" else -1.0
            d_n = fundamental @ d_q @ fundamental
            d_m1 = d_n @ r1
            d_qm1 = d_q @ m1 + q_matrix @ d_m1
            d_m2 = d_n @ b2 + fundamental @ (2.0 * r1 * d_qm1)
            d_qm2 = d_q @ m2 + q_matrix @ d_m2
            d_m3 = d_n @ b3 + fundamental @ (3.0 * r2 * d_qm1 + 3.0 * r1 * d_qm2)
            mean, raw2 = m1[i], m2[i]
            jac[0, p] = d_m1[i]
            jac[1, p] = d_m2[i] - 2.0 * mean * d_m1[i]
            jac[2, p] = (
                d_m3[i]
                - 3.0 * (d_m1[i] * raw2 + mean * d_m2[i])
                + 6.0 * mean**2 * d_m1[i]
            )
        return jac

    def moments_and_jacobians(self, thetas):
        """:meth:`moments` and :meth:`jacobian` of every row of ``thetas``."""
        moments = np.array([self.moments(theta).as_tuple() for theta in thetas])
        return moments, np.array([self.jacobian(theta) for theta in thetas])
