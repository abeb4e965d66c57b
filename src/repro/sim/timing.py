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

Estimators call :meth:`ProcedureTimingModel.moments` thousands of times
per fit (every finite-difference Jacobian column is one call), so each
model resolves what does not depend on ``theta`` when it is built: the
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
which arms are positive.  The pattern with every arm positive — all of
``least_squares``' box, whose bounds keep each theta inside (0, 1) — has
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
bits — and estimates near a placement tie move with them.
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
        for label in par.states:
            block = cfg.block(label)
            # Analytic pricing, not execution: go through the cost model
            # directly so the hardware counters never see predicted work.
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
        :mod:`repro.core.path_enum`.
        """
        n = len(self.states)
        plan: list[list[tuple]] = [[] for _ in range(n)]
        for src, dst in zip(*np.nonzero(self._base)):
            p = float(self._base[src, dst])
            plan[src].append(("exit", p) if dst == n else ("fixed", int(dst), p))
        for src, arm_state, k, arm in self._arms:
            plan[src].append(("theta", arm_state, k, arm))
        return plan

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


class ProgramTimingModel:
    """Whole-program timing: composes procedure models over the call graph."""

    def __init__(self, program: Program, platform: Platform, layout: Optional[ProgramLayout] = None) -> None:
        self.program = program
        self.platform = platform
        self.layout = layout or ProgramLayout.source_order(program)

    def procedure_model(
        self, proc_name: str, callee_moments: Mapping[str, RewardMoments]
    ) -> ProcedureTimingModel:
        """Model of one procedure given its callees' moments."""
        proc = self.program.procedure(proc_name)
        return ProcedureTimingModel(
            proc, self.platform, self.layout.layout(proc_name), callee_moments
        )

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
