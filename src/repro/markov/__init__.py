"""Discrete-time Markov-chain substrate.

The paper models each procedure's execution under nondeterministic inputs as
a discrete-time Markov process over its basic blocks: deterministic edges
have probability 1, and each conditional branch contributes one free
parameter (the probability of its *then* arm).  The exit is an absorbing
state.  This package provides the exact absorbing-chain mathematics that
both the forward model (predicting end-to-end timing moments from branch
probabilities) and the inverse problem (Code Tomography) are built on.
"""

from repro.markov.chain import AbsorbingChain
from repro.markov.moments import reward_moments, RewardMoments
from repro.markov.visits import expected_visits, expected_edge_traversals
from repro.markov.sampling import sample_rewards
from repro.markov.builders import BranchParameterization

__all__ = [
    "AbsorbingChain",
    "RewardMoments",
    "reward_moments",
    "expected_visits",
    "expected_edge_traversals",
    "sample_rewards",
    "BranchParameterization",
]
