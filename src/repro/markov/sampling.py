"""Monte-Carlo sampling of absorbing-chain rewards.

Used as an independent check on the analytic moments and to generate
synthetic timing datasets when a full mote simulation is unnecessary.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MarkovError
from repro.markov.chain import AbsorbingChain
from repro.util.rng import RngSource, as_rng

__all__ = ["sample_rewards"]

_DEFAULT_MAX_STEPS = 1_000_000


def _transition_rows(chain: AbsorbingChain) -> np.ndarray:
    """Transition rows with EXIT as the final column, renormalized to pmfs.

    Chain construction tolerates row sums within ``1 ± 1e-8``, but
    cumulative binning needs exact unit mass, so the rounding is scrubbed
    once here.
    """
    matrix = np.hstack([chain.Q, chain.exit_probabilities[:, None]])
    row_sums = matrix.sum(axis=1, keepdims=True)
    if np.any(row_sums <= 0.0):
        raise MarkovError("transition matrix has a zero-mass row")
    return matrix / row_sums


def sample_rewards(
    chain: AbsorbingChain,
    count: int,
    rng: RngSource = None,
    max_steps: int = _DEFAULT_MAX_STEPS,
) -> np.ndarray:
    """Sample ``count`` invocation rewards (vectorized over invocations).

    Walks all pending invocations in lock-step, drawing one transition per
    live walker per iteration.  ``max_steps`` bounds pathological runs;
    exceeding it raises, since a well-formed procedure chain absorbs almost
    surely long before.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if chain.has_random_rewards:
        raise MarkovError("sampling requires deterministic per-state rewards")
    gen = as_rng(rng)
    n = chain.n
    # Cumulative transition rows, EXIT as the final column.
    cumulative = np.cumsum(_transition_rows(chain), axis=1)
    cumulative[:, -1] = 1.0  # guard against rounding shortfall
    state = np.full(count, chain.start_index, dtype=np.int64)
    alive = np.ones(count, dtype=bool)
    totals = np.zeros(count, dtype=float)
    for _ in range(max_steps):
        if not alive.any():
            return totals
        idx = np.flatnonzero(alive)
        current = state[idx]
        totals[idx] += chain.rewards[current]
        draws = gen.random(idx.size)
        # searchsorted(side="right") semantics: state j is selected iff
        # cumulative[j-1] <= draw < cumulative[j], which is impossible for a
        # zero-probability column (its cumulative equals its predecessor's).
        # A strict `<` here would let a draw of exactly 0.0 land on column 0
        # even when its probability is 0 — common for theta ∈ {0, 1} branches.
        nxt = (cumulative[current] <= draws[:, None]).sum(axis=1)
        exited = nxt == n
        alive[idx[exited]] = False
        moved = ~exited
        state[idx[moved]] = nxt[moved]
    raise MarkovError(f"{int(alive.sum())} walkers did not absorb within {max_steps} steps")
