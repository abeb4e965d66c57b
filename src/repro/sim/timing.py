"""Analytic, parameterized timing model of procedures.

This is the forward model at the heart of Code Tomography: given branch
probabilities ``theta``, it predicts the full distribution (first three
moments) of a procedure's end-to-end execution time *exactly* as the
interpreter would produce it.  The construction:

* one chain state per reachable basic block, with reward equal to the
  block's deterministic cycles (instructions, plus jump/return terminator
  cost) **plus** the random execution time of any procedures it calls,
  folded in as independent per-visit reward moments;
* one zero-entropy pseudo-state per conditional branch *arm*, carrying the
  layout-resolved cost of going that way (taken/not-taken penalty,
  misprediction penalty, extra unconditional jump) — this is what lets a
  state-reward chain price edge-dependent costs exactly;
* branch blocks transition to their arm pseudo-states with probability
  ``theta`` / ``1 - theta``; arms transition deterministically onward.

Because the interpreter charges exactly these costs, the model's moments
match simulation to sampling error — a property the integration tests pin
down.  Estimators invert this model; the placement pass re-evaluates it
under candidate layouts.

Compiled once, evaluated per theta
----------------------------------

Estimators, placement and reports call :meth:`ProcedureTimingModel.moments`
many times per procedure, so each model resolves what does not depend on
``theta`` when it is built: the
``(n, n+1)`` matrix of deterministic and exit edges, the flat positions
of the branch-arm cells with the index of each arm's probability, and the
per-state raw reward moments.  The chain's state and reward checks do not
depend on ``theta`` either; when one fails (say a callee's moments carry
a negative variance), every call builds the full chain instead, so the
error surfaces from ``moments``/``chain`` after the ``theta`` checks, in
the chain's order.  Otherwise a call scatters the arm probabilities into
a copy of the base matrix and runs the chain's own validation,
reachability, fundamental-matrix and moment functions from
:mod:`repro.markov.chain` on it.

Reachability depends only on which entries are positive, and every
non-arm entry is a fixed 1 or 0, so the reachable mask is a function of
which arms are positive.  The pattern with every arm positive — every
theta inside (0, 1), which includes the moments fit's whole box — has
its mask computed once and kept; any other pattern (an arm at 0 from
theta ∈ {0, 1}, a clipped ``-1e-13`` or a NaN) recomputes it on the spot,
and a trapped pattern raises the same :class:`NotAbsorbingError` naming
the same states.

Results are bit-identical to building an :class:`AbsorbingChain` per call
because the floating-point work is the same operations on the same
arrays: arm cells hold ``0.0 + p`` as when accumulated into a zero matrix,
the clip, solve and matrix-vector products run on identically laid-out
arrays, and the raw-to-central conversion is the shared
:func:`repro.markov.moments.central_reward_moments`.  A direct solve
against the reward vector, or a different memory layout, moves the last
bits.

A model is also reused across refits.  :meth:`ProgramTimingModel.procedure_model`
keeps each procedure's last model and returns it again while every callee
moment it folded in compares equal, so an estimator that refits the
program bottom-up builds each leaf once and a caller once per change in its
callees' estimates, and every cache the model filled (the reachable mask,
the batched plan) carries over.  The model keeps only what it was built
from and what it derived from that, so a reused model answers as a fresh
one does, bit for bit.  Its transition plan for path enumeration is
resolved once too, kept as tuples, and handed out as fresh lists.

Batched, with the Jacobian
--------------------------

The moments fit evaluates a whole stack of θ vectors at once, and needs
the derivatives too: :meth:`ProcedureTimingModel.moments_and_jacobians`
returns the moments and their exact ``3 × k`` Jacobian for ``(B, k)``
thetas strictly inside (0, 1).  It works on the all-arms-positive chain
restricted to its reachable states, so it skips the per-call checks, and
makes one stacked ``np.linalg.solve`` for the B fundamental matrices.
``∂Q/∂θ_p`` has two nonzeros, +1 and −1 at the branch's two arm cells,
so ``∂N/∂θ_p = N·(∂Q/∂θ_p)·N`` reduces to a column of N times a scalar,
and differentiating the moment recursion costs a few more products with
N and Q (see :class:`_BatchPlan`).  The raw moments come from the same
products as in :meth:`moments` and go through the same
:func:`central_reward_moments`; the tests hold the two to 1e-12 relative.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import MarkovError, SimulationError
from repro.ir.instructions import Branch, Jump, Return
from repro.ir.procedure import Procedure
from repro.ir.program import Program
from repro.markov.builders import BranchParameterization
from repro.markov.chain import (
    AbsorbingChain,
    checked_rewards,
    checked_states,
    checked_transition,
    fundamental_on_mask,
    raw_reward_moments,
    reachable_absorbing_mask,
    reward_moment_recursion,
)
from repro.markov.moments import RewardMoments, central_reward_moments, reward_moments
from repro.mote.platform import Platform
from repro.placement.layout import Layout, ProgramLayout

__all__ = ["ProcedureTimingModel", "ProgramTimingModel"]


class ProcedureTimingModel:
    """Parameterized timing chain of one procedure under one layout.

    ``callee_moments`` supplies the execution-time moments of every
    procedure this one calls (computed bottom-up over the acyclic call
    graph); they are folded into the calling block's per-visit reward.
    """

    def __init__(
        self,
        procedure: Procedure,
        platform: Platform,
        layout: Layout,
        callee_moments: Optional[Mapping[str, RewardMoments]] = None,
    ) -> None:
        self.procedure = procedure
        self.platform = platform
        self.layout = layout
        callee_moments = dict(callee_moments or {})

        cfg = procedure.cfg
        par = BranchParameterization(cfg)
        self.branch_labels = par.branch_labels
        cpu = platform.cpu

        states: list[str] = []
        mean: list[float] = []
        var: list[float] = []
        mu3: list[float] = []
        index: dict[str, int] = {}
        # Transition structure: deterministic (src, dst) edges, where
        # dst None is EXIT, and branch arms as (src, arm_state, k, arm).
        fixed: list[tuple[int, Optional[int]]] = []
        arms: list[tuple[int, int, int, str]] = []

        def add_state(name: str, m: float, v: float, t: float) -> int:
            index[name] = len(states)
            states.append(name)
            mean.append(m)
            var.append(v)
            mu3.append(t)
            return index[name]

        # Pass 1: block states with their rewards.
        folded: dict[str, RewardMoments] = {}
        for label in par.states:
            block = cfg.block(label)
            # Analytic pricing, not execution: go through the cost model
            # directly so the hardware counters never see predicted work.
            det = float(cpu.cost_model.block_cycles(block))
            m_extra = v_extra = t_extra = 0.0
            for callee in block.calls():
                try:
                    cm = folded[callee] = callee_moments[callee]
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

        # Pass 2: arm pseudo-states and the transition structure.
        for label in par.states:
            block = cfg.block(label)
            term = block.terminator
            src = index[label]
            if isinstance(term, Return):
                fixed.append((src, None))
            elif isinstance(term, Jump):
                fixed.append((src, index[term.target]))
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
                    fixed.append((arm_state, index[target]))
                    arms.append((src, arm_state, k, arm))

        self.states = states
        self._folded = folded
        self._mean = np.asarray(mean)
        self._var = np.asarray(var)
        self._mu3 = np.asarray(mu3)
        self._entry = procedure.cfg.entry
        self._compile(fixed, arms)

    def _compile(
        self,
        fixed: list[tuple[int, Optional[int]]],
        arms: list[tuple[int, int, int, str]],
    ) -> None:
        """Resolve the θ-independent part of :meth:`chain` and :meth:`moments`."""
        n = len(self.states)
        k = self.n_parameters
        # Deterministic edges and exits are the same in every chain.
        self._base = np.zeros((n, n + 1))
        for src, dst in fixed:
            self._base[src, n if dst is None else dst] += 1.0
        # Branch arms: flat positions in the (n, n+1) matrix, and where each
        # arm's probability sits in concatenate((theta, 1 - theta)).
        self._arms = arms
        self._arm_cells = np.array(
            [src * (n + 1) + dst for src, dst, _, _ in arms], dtype=np.intp
        )
        self._arm_sources = np.array(
            [p if arm == "then" else k + p for _, _, p, arm in arms], dtype=np.intp
        )
        self._start = self.states.index(self._entry)
        # The checks a chain runs on its states and rewards do not depend on
        # theta.  When one fails, every call builds the chain, which raises it
        # after the theta checks, in the chain's order.
        try:
            checked_states(self.states)
            rewards = checked_rewards((self._mean, self._var, self._mu3), n)
        except MarkovError:
            self._raw: Optional[tuple[np.ndarray, ...]] = None
        else:
            self._raw = raw_reward_moments(*rewards)
        # Reachability depends only on which arms are positive; the pattern
        # with every arm positive is the one the fitters use, so its mask is
        # kept once computed.
        self._all_arms_mask: Optional[np.ndarray] = None
        self._batch: Optional[_BatchPlan] = None
        self._plan: Optional[tuple[tuple[tuple, ...], ...]] = None

    @property
    def n_parameters(self) -> int:
        """Number of free branch probabilities."""
        return len(self.branch_labels)

    @property
    def reward_means(self) -> np.ndarray:
        """Per-state reward means (read-only copy)."""
        return self._mean.copy()

    @property
    def reward_variances(self) -> np.ndarray:
        """Per-state reward variances — nonzero only on blocks with calls."""
        return self._var.copy()

    @property
    def entry_state(self) -> str:
        """Name of the initial state."""
        return self._entry

    def transition_plan(self) -> list[list[tuple]]:
        """The θ-independent transition structure, one row per state.

        Row entries are ``("exit", p)``, ``("fixed", dst_index, p)`` or
        ``("theta", dst_index, param_index, arm)`` with ``arm`` in
        ``{"then", "else"}``.  Exposed for the path-enumeration machinery in
        :mod:`repro.core.path_enum`.  The plan is resolved once per model and
        kept as tuples; each call returns fresh row lists, so a caller that
        edits its copy changes no later call's plan.
        """
        if self._plan is None:
            n = len(self.states)
            plan: list[list[tuple]] = [[] for _ in range(n)]
            for src, dst in zip(*np.nonzero(self._base)):
                p = float(self._base[src, dst])
                plan[src].append(("exit", p) if dst == n else ("fixed", int(dst), p))
            for src, arm_state, k, arm in self._arms:
                plan[src].append(("theta", arm_state, k, arm))
            self._plan = tuple(map(tuple, plan))
        return [list(row) for row in self._plan]

    def _transition(self, theta: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """``(matrix, arm probabilities)`` for ``theta``, before validation.

        Each arm cell gets ``0.0 + p``, as when it was accumulated into a zero
        matrix, so a ``-0.0`` arm is stored as ``0.0``.
        """
        vec = np.asarray(theta, dtype=float)
        if vec.shape != (self.n_parameters,):
            raise SimulationError(
                f"theta must have length {self.n_parameters}, got shape {vec.shape}"
            )
        arm_p = 0.0 + np.concatenate((vec, 1.0 - vec))[self._arm_sources]
        matrix = self._base.copy()
        matrix.ravel()[self._arm_cells] = arm_p
        return matrix, arm_p

    def chain(self, theta: Sequence[float]) -> AbsorbingChain:
        """Instantiate the timing chain for branch probabilities ``theta``."""
        matrix, _ = self._transition(theta)
        return AbsorbingChain(
            self.states, matrix, (self._mean, self._var, self._mu3), self._entry
        )

    def moments(self, theta: Sequence[float]) -> RewardMoments:
        """Predicted execution-time moments under ``theta``.

        Equal to ``reward_moments(self.chain(theta))``, bit for bit and error
        for error, without building the chain object.
        """
        if self._raw is None:
            return reward_moments(self.chain(theta))
        matrix, arm_p = self._transition(theta)
        matrix = checked_transition(matrix, self.states)
        q_matrix = matrix[:, :-1]
        all_arms = (arm_p > 0).all()
        mask = self._all_arms_mask if all_arms else None
        if mask is None:
            mask = reachable_absorbing_mask(
                q_matrix, matrix[:, -1], self._start, self.states
            )
            if all_arms:
                self._all_arms_mask = mask
        fundamental = fundamental_on_mask(q_matrix, mask)
        m1, m2, m3 = reward_moment_recursion(fundamental, q_matrix, *self._raw)
        i = self._start
        return central_reward_moments(float(m1[i]), float(m2[i]), float(m3[i]))

    def moments_and_jacobians(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Central moments and their exact Jacobian for a stack of θ vectors.

        ``thetas`` is ``(B, k)`` with every entry strictly inside (0, 1).
        Returns ``(moments, jacobians)``: ``(B, 3)`` rows of (mean,
        variance, third central moment), equal to :meth:`moments` to
        rounding, and ``(B, 3, k)`` with ``jacobians[b, j, p]`` the
        derivative of moment ``j`` by ``θ_p`` at ``thetas[b]``.  The
        variance is floored at 0 as in :meth:`moments`; its derivative is
        the unfloored variance's.  All B fundamental matrices come from
        one stacked solve.
        """
        vecs = np.asarray(thetas, dtype=float)
        k = self.n_parameters
        if vecs.ndim != 2 or vecs.shape[1] != k:
            raise SimulationError(f"thetas must have shape (B, {k}), got {vecs.shape}")
        if not ((vecs > 0.0) & (vecs < 1.0)).all():
            raise SimulationError("batched moments need every theta strictly inside (0, 1)")
        if self._raw is None or self._all_arms_mask is None:
            # Raises what moments() raises on this model; else sets the mask.
            self.moments(vecs[0])
        if self._batch is None:
            self._batch = _BatchPlan(self)
        return self._batch.evaluate(vecs)


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``matrices[b] @ vectors[b]`` for every b."""
    return (matrices @ vectors[..., None])[..., 0]


class _BatchPlan:
    """A model's all-arms-positive chain on its reachable states, for stacks of θ.

    With every arm positive the reachable states are the same for every θ,
    so the plan keeps only those: their fixed edges, the flat positions of
    their arm cells, their raw rewards, and per branch whose block is
    reachable the block (``src``) and its two arm states.  A branch on an
    unreachable block leaves the moments alone; its Jacobian column is 0.

    ``∂Q/∂θ_p`` is ``+1`` at (src, then-arm) and ``−1`` at (src, else-arm),
    so for any vector x, ``(∂Q/∂θ_p) x`` is ``x[then] − x[else]`` at ``src``
    and 0 elsewhere.  Differentiating ``(I − Q) m = b`` gives
    ``∂m = N (∂Q m + ∂b)``, where ``N = (I − Q)^-1``; for m1, where b is
    the constant r1, that is column ``src`` of N times ``m1[then] −
    m1[else]``.
    """

    def __init__(self, model: ProcedureTimingModel) -> None:
        mask = model._all_arms_mask
        assert mask is not None and model._raw is not None
        live = np.flatnonzero(mask)
        size = live.size
        position = np.full(len(model.states), -1, dtype=np.intp)
        position[live] = np.arange(size)
        k = model.n_parameters
        self.n_parameters = k
        self.base = model._base[np.ix_(live, live)]
        self.eye = np.eye(size)
        cells: list[int] = []
        sources: list[int] = []
        arm_state: dict[tuple[int, str], int] = {}
        branch_src: dict[int, int] = {}
        for src, dst, p, arm in model._arms:
            if not mask[src]:
                continue
            cells.append(position[src] * size + position[dst])
            sources.append(p if arm == "then" else k + p)
            arm_state[(p, arm)] = position[dst]
            branch_src[p] = position[src]
        self.cells = np.array(cells, dtype=np.intp)
        self.sources = np.array(sources, dtype=np.intp)
        self.params = np.array(sorted(branch_src), dtype=np.intp)
        self.src = np.array([branch_src[p] for p in self.params], dtype=np.intp)
        self.then = np.array([arm_state[(p, "then")] for p in self.params], dtype=np.intp)
        self.other = np.array([arm_state[(p, "else")] for p in self.params], dtype=np.intp)
        self.start = int(position[model._start])
        self.r1, self.r2, self.r3 = (r[live] for r in model._raw)

    def _at_src(self, vectors: np.ndarray, diff: np.ndarray) -> np.ndarray:
        """``vectors`` with ``diff[:, j]`` added at (``src[j]``, j), in place."""
        vectors[:, self.src, np.arange(self.src.size)] += diff
        return vectors

    def evaluate(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        batch = vecs.shape[0]
        q = np.repeat(self.base[None], batch, axis=0)
        q.reshape(batch, -1)[:, self.cells] = np.concatenate((vecs, 1.0 - vecs), axis=1)[
            :, self.sources
        ]
        fundamental = np.linalg.solve(self.eye - q, np.broadcast_to(self.eye, q.shape))
        r1, r2, r3 = self.r1, self.r2, self.r3
        m1 = fundamental @ r1
        qm1 = _matvec(q, m1)
        m2 = _matvec(fundamental, r2 + 2.0 * r1 * qm1)
        qm2 = _matvec(q, m2)
        m3 = _matvec(fundamental, r3 + 3.0 * r2 * qm1 + 3.0 * r1 * qm2)
        i = self.start
        mean, raw2, raw3 = m1[:, i], m2[:, i], m3[:, i]
        moments = np.array(
            [
                central_reward_moments(*raw).as_tuple()
                for raw in zip(mean.tolist(), raw2.tolist(), raw3.tolist())
            ]
        )

        # (∂Q/∂θ_p) m is m[then] − m[else] at src_p.  Derivatives are laid
        # out (B, states, branches on reachable blocks).
        dq_m1, dq_m2, dq_m3 = (m[:, self.then] - m[:, self.other] for m in (m1, m2, m3))
        d_m1 = fundamental[:, :, self.src] * dq_m1[:, None, :]
        d_qm1 = self._at_src(q @ d_m1, dq_m1)
        d_m2 = fundamental @ self._at_src(2.0 * r1[:, None] * d_qm1, dq_m2)
        d_qm2 = self._at_src(q @ d_m2, dq_m2)
        d_b3 = 3.0 * r2[:, None] * d_qm1 + 3.0 * r1[:, None] * d_qm2
        d_raw3 = np.einsum("bs,bsp->bp", fundamental[:, i], self._at_src(d_b3, dq_m3))
        d_mean, d_raw2 = d_m1[:, i, :], d_m2[:, i, :]
        mean_, raw2_ = mean[:, None], raw2[:, None]
        jacobians = np.zeros((batch, 3, self.n_parameters))
        jacobians[:, 0, self.params] = d_mean
        jacobians[:, 1, self.params] = d_raw2 - 2.0 * mean_ * d_mean
        jacobians[:, 2, self.params] = (
            d_raw3 - 3.0 * (d_mean * raw2_ + mean_ * d_raw2) + 6.0 * mean_**2 * d_mean
        )
        return moments, jacobians


class ProgramTimingModel:
    """Whole-program timing: composes procedure models over the call graph."""

    def __init__(self, program: Program, platform: Platform, layout: Optional[ProgramLayout] = None) -> None:
        self.program = program
        self.platform = platform
        self.layout = layout or ProgramLayout.source_order(program)
        self._models: dict[str, ProcedureTimingModel] = {}

    def procedure_model(
        self, proc_name: str, callee_moments: Mapping[str, RewardMoments]
    ) -> ProcedureTimingModel:
        """Model of one procedure given its callees' moments.

        The last model built for each procedure is kept and returned again
        while every callee moment it folded in compares equal, so a leaf is
        built once and a caller once per change in its callees' estimates.
        Float ``==`` tells apart every two moments that fold differently:
        it equates only ±0, which fold to the same reward, and a NaN only
        with itself.
        """
        model = self._models.get(proc_name)
        if model is None or any(
            callee_moments.get(callee) != moments
            for callee, moments in model._folded.items()
        ):
            proc = self.program.procedure(proc_name)
            model = ProcedureTimingModel(
                proc, self.platform, self.layout.layout(proc_name), callee_moments
            )
            self._models[proc_name] = model
        return model

    def all_moments(self, thetas: Mapping[str, Sequence[float]]) -> dict[str, RewardMoments]:
        """Execution-time moments of every procedure, composed bottom-up.

        ``thetas`` maps procedure name → branch-probability vector (in
        :class:`~repro.markov.builders.BranchParameterization` order).
        """
        moments: dict[str, RewardMoments] = {}
        for proc in self.program.topological_procedures():
            model = self.procedure_model(proc.name, moments)
            theta = np.asarray(thetas.get(proc.name, ()), dtype=float)
            if model.n_parameters and theta.shape != (model.n_parameters,):
                raise SimulationError(
                    f"thetas[{proc.name!r}] must have length {model.n_parameters}"
                )
            moments[proc.name] = model.moments(theta)
        return moments

    def entry_moments(self, thetas: Mapping[str, Sequence[float]]) -> RewardMoments:
        """Moments of one whole activation (the entry procedure's time)."""
        return self.all_moments(thetas)[self.program.entry]
