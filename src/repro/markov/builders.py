"""Bridge from CFGs to parameterized absorbing chains.

This is where the paper's modelling assumption is made concrete: a
procedure's execution is a Markov chain whose only free parameters are one
probability per conditional branch — the probability ``theta_k`` that branch
``k`` takes its *then* arm.  :class:`BranchParameterization` captures the
structure once and then maps any parameter vector to a concrete
:class:`~repro.markov.chain.AbsorbingChain`, which is exactly the forward
model the tomography estimators invert.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import MarkovError
from repro.ir.cfg import CFG
from repro.ir.instructions import Branch, Jump, Return
from repro.markov.chain import AbsorbingChain

__all__ = ["BranchParameterization"]


class BranchParameterization:
    """The branch-probability coordinates of one procedure's chain.

    ``branch_labels`` fixes the parameter order: component ``k`` of a
    parameter vector is the probability of the *then* arm of the branch
    ending block ``branch_labels[k]``.  Only blocks reachable from the entry
    participate (unreachable code cannot influence timing).
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        reachable = cfg.reachable_labels()
        # Keep source order for determinism.
        self.states = [label for label in cfg.labels if label in reachable]
        self.branch_labels = [
            b.label for b in cfg.branch_blocks() if b.label in reachable
        ]
        self._state_index = {s: i for i, s in enumerate(self.states)}
        self._branch_index = {s: k for k, s in enumerate(self.branch_labels)}

    @property
    def n_parameters(self) -> int:
        """Number of free branch probabilities."""
        return len(self.branch_labels)

    def validate_theta(self, theta: Sequence[float]) -> np.ndarray:
        """Coerce and bounds-check a parameter vector."""
        vec = np.asarray(theta, dtype=float)
        if vec.shape != (self.n_parameters,):
            raise MarkovError(
                f"theta must have length {self.n_parameters}, got shape {vec.shape}"
            )
        if np.any(vec < 0) or np.any(vec > 1):
            raise MarkovError("branch probabilities must lie in [0, 1]")
        return vec

    def chain(self, theta: Sequence[float], rewards: Mapping[str, float]) -> AbsorbingChain:
        """Concrete chain for parameters ``theta`` and per-block ``rewards``.

        ``rewards`` maps block label → deterministic block cost (cycles);
        every reachable block must be priced.
        """
        vec = self.validate_theta(theta)
        n = len(self.states)
        matrix = np.zeros((n, n + 1))
        for i, label in enumerate(self.states):
            term = self.cfg.block(label).terminator
            if isinstance(term, Return):
                matrix[i, n] = 1.0
            elif isinstance(term, Jump):
                matrix[i, self._state_index[term.target]] = 1.0
            elif isinstance(term, Branch):
                p_then = vec[self._branch_index[label]]
                matrix[i, self._state_index[term.then_target]] += p_then
                matrix[i, self._state_index[term.else_target]] += 1.0 - p_then
            else:  # pragma: no cover - validate_cfg rejects open blocks
                raise MarkovError(f"block {label!r} has no terminator")
        missing = [s for s in self.states if s not in rewards]
        if missing:
            raise MarkovError(f"rewards missing for blocks: {missing}")
        reward_vec = [float(rewards[s]) for s in self.states]
        return AbsorbingChain(self.states, matrix, reward_vec, self.cfg.entry)

    def edge_probabilities(self, theta: Sequence[float]) -> dict[tuple[str, str], float]:
        """Map ``(branch_label, 'then'|'else')`` → probability under ``theta``."""
        vec = self.validate_theta(theta)
        result: dict[tuple[str, str], float] = {}
        for k, label in enumerate(self.branch_labels):
            result[(label, "then")] = float(vec[k])
            result[(label, "else")] = float(1.0 - vec[k])
        return result
