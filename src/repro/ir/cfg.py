"""Control-flow graphs over basic blocks.

A :class:`CFG` owns the blocks of one procedure, knows its entry label, and
derives edges from block terminators on demand.  Edge identity matters
throughout the pipeline — tomography estimates a probability per *branch
edge*, the profiler counts per-edge traversals, and the placement pass scores
layouts by edge frequency — so :class:`Edge` is hashable and carries the
branch polarity (taken = then-successor) when it comes from a conditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import IRError
from repro.ir.block import BasicBlock
from repro.ir.instructions import Branch, Jump

__all__ = ["CFG", "Edge"]


@dataclass(frozen=True, order=True)
class Edge:
    """A directed CFG edge ``src -> dst``.

    ``kind`` is ``"then"``/``"else"`` for the two arms of a conditional
    branch, ``"jump"`` for unconditional transfers.  The pair
    ``(src, kind)`` uniquely identifies an edge, since a block has at most
    one terminator.
    """

    src: str
    dst: str
    kind: str

    def __str__(self) -> str:
        return f"{self.src} -[{self.kind}]-> {self.dst}"


class CFG:
    """The control-flow graph of a single procedure.

    Blocks are kept in *source order* (insertion order); that order doubles
    as the default code layout the placement experiments compare against.
    """

    def __init__(self, entry: str) -> None:
        self.entry = entry
        self._blocks: dict[str, BasicBlock] = {}

    # -- construction -----------------------------------------------------

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Register ``block``; labels must be unique."""
        if block.label in self._blocks:
            raise IRError(f"duplicate block label {block.label!r}")
        self._blocks[block.label] = block
        return block

    def new_block(self, label: str) -> BasicBlock:
        """Create, register and return an empty block."""
        return self.add_block(BasicBlock(label))

    # -- access -----------------------------------------------------------

    def block(self, label: str) -> BasicBlock:
        """Look up a block by label."""
        try:
            return self._blocks[label]
        except KeyError:
            raise IRError(f"no block labelled {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._blocks

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self._blocks.values())

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def labels(self) -> list[str]:
        """Block labels in source order."""
        return list(self._blocks.keys())

    # -- derived structure --------------------------------------------------

    def edges(self) -> list[Edge]:
        """All edges, derived from terminators, in source order."""
        result: list[Edge] = []
        for block in self:
            term = block.terminator
            if term is None:
                raise IRError(f"block {block.label!r} has no terminator")
            if isinstance(term, Branch):
                result.append(Edge(block.label, term.then_target, "then"))
                result.append(Edge(block.label, term.else_target, "else"))
            elif isinstance(term, Jump):
                result.append(Edge(block.label, term.target, "jump"))
        return result

    def branch_blocks(self) -> list[BasicBlock]:
        """Blocks ending in a conditional branch, in source order."""
        return [b for b in self if b.is_branch]

    def return_blocks(self) -> list[BasicBlock]:
        """Blocks that exit the procedure."""
        return [b for b in self if b.is_return]

    def predecessors(self) -> dict[str, list[Edge]]:
        """Map from block label to its incoming edges."""
        preds: dict[str, list[Edge]] = {label: [] for label in self._blocks}
        for edge in self.edges():
            preds[edge.dst].append(edge)
        return preds

    def successors_map(self) -> dict[str, list[Edge]]:
        """Map from block label to its outgoing edges."""
        succs: dict[str, list[Edge]] = {label: [] for label in self._blocks}
        for edge in self.edges():
            succs[edge.src].append(edge)
        return succs

    def reachable_labels(self) -> set[str]:
        """Labels reachable from the entry block."""
        seen: set[str] = set()
        stack = [self.entry]
        succs = self.successors_map()
        while stack:
            label = stack.pop()
            if label in seen:
                continue
            seen.add(label)
            stack.extend(e.dst for e in succs.get(label, ()))
        return seen

    def back_edges(self) -> set[Edge]:
        """Edges closing a cycle under DFS from the entry (loop back-edges)."""
        succs = self.successors_map()
        color: dict[str, int] = {}  # 0 unvisited / missing, 1 on stack, 2 done
        back: set[Edge] = set()

        def visit(label: str) -> None:
            color[label] = 1
            for edge in succs.get(label, ()):
                state = color.get(edge.dst, 0)
                if state == 1:
                    back.add(edge)
                elif state == 0:
                    visit(edge.dst)
            color[label] = 2

        visit(self.entry)
        return back

    def loop_count(self) -> int:
        """Number of natural-loop back-edges (a simple loop census)."""
        return len(self.back_edges())

    def pretty(self) -> str:
        """Multi-line dump of every block."""
        return "\n".join(block.pretty() for block in self)

    def __str__(self) -> str:
        return self.pretty()
