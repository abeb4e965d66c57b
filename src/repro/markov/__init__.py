"""Discrete-time Markov-chain substrate.

The paper models each procedure's execution under nondeterministic inputs as
a discrete-time Markov process over its basic blocks: deterministic edges
have probability 1, and each conditional branch contributes one free
parameter (the probability of its *then* arm).  The exit is an absorbing
state.  This package provides the exact absorbing-chain mathematics that
both the forward model (predicting end-to-end timing moments from branch
probabilities) and the inverse problem (Code Tomography) are built on.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "chain": ("AbsorbingChain",),
        "moments": ("RewardMoments", "reward_moments"),
        "visits": ("expected_visits", "expected_edge_traversals"),
        "sampling": ("sample_rewards",),
        "builders": ("BranchParameterization",),
    },
)
