"""Absorbing discrete-time Markov chains with per-state rewards.

A procedure's chain has one *transient* state per basic block and a single
absorbing EXIT state.  Each transient state carries a reward — the block's
deterministic cycle cost — so the total reward accumulated until absorption
is exactly the procedure's execution time.  All tomography math reduces to
questions about this object.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import MarkovError, NotAbsorbingError

__all__ = [
    "AbsorbingChain",
    "checked_rewards",
    "checked_states",
    "checked_transition",
    "fundamental_on_mask",
    "raw_reward_moments",
    "reachable_absorbing_mask",
    "reward_moment_recursion",
]

_ROW_SUM_ATOL = 1e-8


# -- validation and math shared with compiled forward models -----------------
#
# AbsorbingChain runs these in its constructor and methods.  A model that
# re-instantiates one chain structure for many parameter vectors (see
# repro.sim.timing.ProcedureTimingModel) calls the same functions on the
# same arrays, so both give the same errors and the same bits.


def checked_states(states: Sequence[str]) -> list[str]:
    """``states`` as a list, after checking it is non-empty and duplicate-free."""
    names = list(states)
    if len(set(names)) != len(names):
        raise MarkovError("duplicate state names")
    if not names:
        raise MarkovError("chain needs at least one transient state")
    return names


def checked_transition(matrix: np.ndarray, states: Sequence[str]) -> np.ndarray:
    """Validate an ``(n, n+1)`` transition matrix and clip it into [0, 1].

    Entries below ``-1e-12`` and rows whose sum is more than ``1e-8`` from 1
    raise :class:`MarkovError`; the error for a bad row names its state.  NaN
    entries pass both checks, and their rows then count as having no edge
    where the NaN sits (``NaN > 0`` is false in the reachability check).
    """
    if (matrix < -1e-12).any():
        raise MarkovError("transition probabilities must be non-negative")
    row_sums = matrix.sum(axis=1)
    if (np.abs(row_sums - 1.0) > _ROW_SUM_ATOL).any():
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise MarkovError(f"row {states[bad]!r} sums to {row_sums[bad]}, expected 1")
    return matrix.clip(0.0, 1.0)


def checked_rewards(
    rewards: Union[Sequence[float], tuple[Sequence[float], Sequence[float], Sequence[float]]],
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mean, variance, third_central)`` reward vectors of length ``n``.

    ``rewards`` is either one vector of deterministic rewards or a
    ``(mean, variance, third_central)`` triple; means and variances must be
    non-negative.
    """
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
    return mean_vec, var_vec, mu3_vec


def reachable_absorbing_mask(
    q_matrix: np.ndarray,
    exit_probabilities: np.ndarray,
    start_index: int,
    states: Sequence[str],
) -> np.ndarray:
    """Mask of the states reachable from the start, which must all absorb.

    Spectral radius of Q < 1 iff the chain absorbs almost surely from
    everywhere; a reachability check over the positive entries instead lets
    the error name the trapped states.  Raises :class:`NotAbsorbingError`
    when a state reachable from ``start_index`` cannot reach absorption.
    Only which entries are positive matters, so one mask serves every
    transition matrix with the same positive pattern.
    """
    n = len(states)
    # States that can reach EXIT: reverse-reachability over positive entries.
    positive = (q_matrix > 0).astype(np.int64)
    can_exit = np.asarray(exit_probabilities > 0, dtype=bool)
    changed = True
    while changed:
        changed = False
        # state i has an edge to a state that can already exit
        reaches = (positive @ can_exit.astype(np.int64)) > 0
        new = can_exit | reaches
        if np.any(new != can_exit):
            can_exit = new
            changed = True
    # Only reachable-from-start states matter.
    reachable = np.zeros(n, dtype=bool)
    reachable[start_index] = True
    changed = True
    while changed:
        changed = False
        new = reachable | ((reachable.astype(np.int64) @ positive) > 0)
        if np.any(new != reachable):
            reachable = new
            changed = True
    trapped = [s for i, s in enumerate(states) if reachable[i] and not can_exit[i]]
    if trapped:
        raise NotAbsorbingError(f"states cannot reach absorption: {trapped}")
    return reachable


def fundamental_on_mask(q_matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``N = (I - Q)^-1`` over the states in ``mask``, zero elsewhere.

    States outside the mask are never visited; including them could make
    ``I - Q`` singular when dead code contains a cycle.  With every state in
    the mask the masked copies are skipped: ``I - Q`` and the result hold
    the same values in the same C order either way.
    """
    every_state = mask.all()
    sub_q = q_matrix if every_state else q_matrix[np.ix_(mask, mask)]
    identity = np.eye(sub_q.shape[0])
    try:
        sub_n = np.linalg.solve(identity - sub_q, identity)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by the mask
        raise NotAbsorbingError("I - Q is singular") from exc
    if every_state:
        return sub_n
    n = q_matrix.shape[0]
    full = np.zeros((n, n))
    full[np.ix_(mask, mask)] = sub_n
    return full


def raw_reward_moments(
    mean: np.ndarray, variance: np.ndarray, third_central: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw moments ``(r1, r2, r3)`` of per-visit rewards from their central ones."""
    r1 = mean
    r2 = variance + r1**2
    r3 = third_central + 3.0 * r1 * variance + r1**3
    return r1, r2, r3


def reward_moment_recursion(
    fundamental: np.ndarray,
    q_matrix: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
    r3: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-start-state raw moments ``(m1, m2, m3)`` of total accumulated reward.

    Let ``S_i`` be the reward accumulated until absorption starting at
    state ``i``, with per-visit rewards ``R_i`` independent across visits
    (raw moments ``r1, r2, r3``).  Conditioning on one step
    (``S_i = R_i + S_next``):

    ``m1 = (I-Q)^-1 r1``
    ``m2 = (I-Q)^-1 (r2 + 2 r1∘(Q m1))``
    ``m3 = (I-Q)^-1 (r3 + 3 r2∘(Q m1) + 3 r1∘(Q m2))``

    These are exact; the tomography forward model is built on them.
    ``fundamental`` is ``(I-Q)^-1`` as :func:`fundamental_on_mask` returns
    it.  The products are kept as products with it, not linear solves:
    a solve against ``r1`` gives different last bits.
    """
    m1 = fundamental @ r1
    qm1 = q_matrix @ m1
    m2 = fundamental @ (r2 + 2.0 * r1 * qm1)
    qm2 = q_matrix @ m2
    m3 = fundamental @ (r3 + 3.0 * r2 * qm1 + 3.0 * r1 * qm2)
    return m1, m2, m3


class AbsorbingChain:
    """An absorbing DTMC over named transient states plus one EXIT state.

    Parameters
    ----------
    states:
        Transient state names, in a fixed order that indexes all matrices.
    transition:
        ``(n, n+1)`` row-stochastic matrix.  Column ``j < n`` is the
        probability of moving to transient state ``j``; the final column is
        the probability of absorbing (exiting the procedure).
    rewards:
        Length-``n`` non-negative reward accrued on each visit to the
        corresponding transient state.  Either a vector of deterministic
        rewards, or a ``(mean, variance, third_central)`` triple of vectors
        describing *random* per-visit rewards drawn independently on each
        visit — used to fold callee execution-time distributions into a
        caller block without enumerating the callee's states.
    start:
        Name of the initial state (the procedure's entry block).
    """

    def __init__(
        self,
        states: Sequence[str],
        transition: np.ndarray,
        rewards: Union[Sequence[float], tuple[Sequence[float], Sequence[float], Sequence[float]]],
        start: str,
    ) -> None:
        self.states = checked_states(states)
        n = len(self.states)

        matrix = np.asarray(transition, dtype=float)
        if matrix.shape != (n, n + 1):
            raise MarkovError(
                f"transition must be shape ({n}, {n + 1}), got {matrix.shape}"
            )
        self._matrix = checked_transition(matrix, self.states)
        (
            self.rewards,
            self.reward_variances,
            self.reward_third_centrals,
        ) = checked_rewards(rewards, n)

        if start not in self.states:
            raise MarkovError(f"start state {start!r} not among states")
        self.start = start
        self._index = {name: i for i, name in enumerate(self.states)}
        self._fundamental: Optional[np.ndarray] = None
        # Unreachable states may form non-absorbing junk (dead code); they get
        # zero visits, and the fundamental matrix is inverted on this mask.
        self._reachable_mask = reachable_absorbing_mask(
            self.Q, self.exit_probabilities, self.start_index, self.states
        )

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of transient states."""
        return len(self.states)

    @property
    def start_index(self) -> int:
        """Row index of the start state."""
        return self._index[self.start]

    def index(self, state: str) -> int:
        """Matrix index of a named state."""
        try:
            return self._index[state]
        except KeyError:
            raise MarkovError(f"unknown state {state!r}") from None

    @property
    def Q(self) -> np.ndarray:
        """Transient-to-transient submatrix (read-only view)."""
        view = self._matrix[:, :-1]
        view.flags.writeable = False
        return view

    @property
    def exit_probabilities(self) -> np.ndarray:
        """Per-state absorption probabilities (read-only view)."""
        view = self._matrix[:, -1]
        view.flags.writeable = False
        return view

    def probability(self, src: str, dst: Optional[str]) -> float:
        """Transition probability ``src → dst`` (``dst=None`` = EXIT)."""
        i = self.index(src)
        if dst is None:
            return float(self._matrix[i, -1])
        return float(self._matrix[i, self.index(dst)])

    # -- absorbing-chain math ------------------------------------------------

    def fundamental_matrix(self) -> np.ndarray:
        """``N = (I - Q)^-1`` over reachable states; E[visits to j | start i].

        Rows/columns of states unreachable from the start are zero (they are
        never visited, and including them could make ``I - Q`` singular when
        dead code contains a cycle).  Cached: the chain is immutable.
        """
        if self._fundamental is None:
            self._fundamental = fundamental_on_mask(self.Q, self._reachable_mask)
        return self._fundamental

    def expected_visits_from_start(self) -> np.ndarray:
        """E[visit count of each state], starting from the start state."""
        return self.fundamental_matrix()[self.start_index]

    def expected_reward(self) -> float:
        """E[total reward until absorption] from the start state."""
        return float(self.expected_visits_from_start() @ self.rewards)

    @property
    def has_random_rewards(self) -> bool:
        """True when any per-visit reward has a nonzero variance or skew."""
        return bool(
            np.any(self.reward_variances > 0) or np.any(self.reward_third_centrals != 0)
        )

    def reward_raw_moments_per_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw moments (r1, r2, r3) of the per-visit reward at each state."""
        return raw_reward_moments(
            self.rewards, self.reward_variances, self.reward_third_centrals
        )

    def reward_moment_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-start-state raw moments (m1, m2, m3) of total accumulated reward.

        See :func:`reward_moment_recursion`.
        """
        return reward_moment_recursion(
            self.fundamental_matrix(), self.Q, *self.reward_raw_moments_per_state()
        )

    # -- housekeeping --------------------------------------------------------

    def with_rewards(
        self,
        rewards: Union[Sequence[float], tuple[Sequence[float], Sequence[float], Sequence[float]]],
    ) -> "AbsorbingChain":
        """Same structure, different reward specification."""
        return AbsorbingChain(self.states, self._matrix.copy(), rewards, self.start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AbsorbingChain(n={self.n}, start={self.start!r})"
