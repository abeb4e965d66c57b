"""Expected visit and edge-traversal counts of absorbing chains.

Edge traversal frequencies are what the placement optimizer consumes: given
branch probabilities (true or tomography-estimated) the expected number of
times each CFG edge is traversed per invocation follows directly from the
fundamental matrix.
"""

from __future__ import annotations

from typing import Optional

from repro.markov.chain import AbsorbingChain

__all__ = ["expected_visits", "expected_edge_traversals"]


def expected_visits(chain: AbsorbingChain) -> dict[str, float]:
    """E[number of visits to each state per invocation], keyed by state name."""
    visits = chain.expected_visits_from_start()
    return {state: float(visits[i]) for i, state in enumerate(chain.states)}


def expected_edge_traversals(chain: AbsorbingChain) -> dict[tuple[str, Optional[str]], float]:
    """E[traversals of each positive-probability transition per invocation].

    Keys are ``(src, dst)`` with ``dst=None`` for the absorbing EXIT.  The
    expected traversal count of edge ``(i, j)`` equals
    ``E[visits to i] * P(i -> j)``.
    """
    visits = chain.expected_visits_from_start()
    q_matrix = chain.Q
    result: dict[tuple[str, Optional[str]], float] = {}
    for i, src in enumerate(chain.states):
        for j, dst in enumerate(chain.states):
            p = q_matrix[i, j]
            if p > 0:
                result[(src, dst)] = float(visits[i] * p)
        p_exit = chain.exit_probabilities[i]
        if p_exit > 0:
            result[(src, None)] = float(visits[i] * p_exit)
    return result
