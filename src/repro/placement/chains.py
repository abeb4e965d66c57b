"""Bottom-up chain formation from edge frequencies (Pettis–Hansen style).

Given expected edge-traversal frequencies, greedily merge basic blocks into
chains so that the hottest edges become fall-throughs: process edges in
descending weight; merge when the edge runs from the *tail* of one chain to
the *head* of another.  The entry block is pinned to the head of its chain
(the procedure must start there), so no edge may place a predecessor above
it.  Remaining chains are emitted after the entry chain in descending total
heat, which keeps related code close — secondary on a mote (no I-cache) but
it shortens jump displacement.

Both orderings compare weights rounded to :data:`WEIGHT_GRID`, so weights
that differ only in the last bits of an estimate tie and break on source
order.  Rounding does not remove the knife-edge; it moves it to the grid
boundaries: two weights on either side of one still order by their
rounded values, and a perturbation that carries a weight across a boundary
still changes the layout.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import PlacementError
from repro.ir.cfg import CFG

__all__ = ["WEIGHT_GRID", "build_chains", "order_from_chains"]

#: Resolution, in expected traversals per invocation, of the weights the
#: chain orderings compare.
WEIGHT_GRID = 1e-9


def _on_grid(weight: float) -> int:
    """``weight`` in whole units of :data:`WEIGHT_GRID`."""
    return round(weight / WEIGHT_GRID)


def build_chains(
    cfg: CFG,
    edge_weights: Mapping[tuple[str, str], float],
) -> list[list[str]]:
    """Partition the CFG's blocks into fall-through chains.

    ``edge_weights`` maps ``(src_label, dst_label)`` to expected traversal
    frequency (parallel arms already summed).  Unknown edges weigh zero;
    edges naming unknown blocks raise.  Deterministic: edges are taken in
    descending weight rounded to :data:`WEIGHT_GRID`, ties broken on the
    edge's source-order position.
    """
    labels = cfg.labels
    label_set = set(labels)
    for (src, dst) in edge_weights:
        if src not in label_set or dst not in label_set:
            raise PlacementError(f"edge ({src!r}, {dst!r}) names an unknown block")

    # chain id -> list of labels; label -> chain id
    chains: dict[int, list[str]] = {i: [label] for i, label in enumerate(labels)}
    chain_of: dict[str, int] = {label: i for i, label in enumerate(labels)}

    source_pos = {label: i for i, label in enumerate(labels)}
    ordered_edges = sorted(
        edge_weights.items(),
        key=lambda item: (
            -_on_grid(item[1]),
            source_pos[item[0][0]],
            source_pos[item[0][1]],
        ),
    )
    for (src, dst), weight in ordered_edges:
        if weight <= 0:
            continue
        if dst == cfg.entry:
            continue  # nothing may precede the entry block
        a = chain_of[src]
        b = chain_of[dst]
        if a == b:
            continue
        if chains[a][-1] != src or chains[b][0] != dst:
            continue  # not a tail-to-head junction
        chains[a].extend(chains[b])
        for label in chains[b]:
            chain_of[label] = a
        del chains[b]

    def chain_heat(chain: Sequence[str]) -> int:
        internal = sum(
            edge_weights.get((chain[i], chain[i + 1]), 0.0) for i in range(len(chain) - 1)
        )
        incident = sum(
            w for (s, d), w in edge_weights.items() if s in chain or d in chain
        )
        return _on_grid(internal + incident)

    entry_chain_id = chain_of[cfg.entry]
    if chains[entry_chain_id][0] != cfg.entry:  # pragma: no cover - guarded above
        raise PlacementError("entry block is not at the head of its chain")
    rest = [cid for cid in chains if cid != entry_chain_id]
    rest.sort(key=lambda cid: (-chain_heat(chains[cid]), source_pos[chains[cid][0]]))
    return [chains[entry_chain_id]] + [chains[cid] for cid in rest]


def order_from_chains(chains: Sequence[Sequence[str]]) -> list[str]:
    """Flatten chains into a flash order."""
    return [label for chain in chains for label in chain]
