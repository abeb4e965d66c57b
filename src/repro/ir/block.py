"""Basic blocks: straight-line instruction runs ending in one terminator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import IRError
from repro.ir.instructions import Branch, Instruction, Return, Terminator

__all__ = ["BasicBlock"]


@dataclass
class BasicBlock:
    """A labelled straight-line run of instructions plus one terminator.

    Blocks are the atoms of everything downstream: the Markov model has one
    state per block, the cost model prices a block as the sum of its
    instruction costs, and the placement pass moves blocks whole.  A block is
    *closed* once its terminator is set; appending to a closed block raises.
    """

    label: str
    instructions: list[Instruction] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    def append(self, instr: Instruction) -> None:
        """Add ``instr``; refuses once the block has a terminator."""
        if self.terminator is not None:
            raise IRError(f"block {self.label!r} is closed; cannot append {instr}")
        self.instructions.append(instr)

    def close(self, terminator: Terminator) -> None:
        """Set the terminator; refuses to overwrite an existing one."""
        if self.terminator is not None:
            raise IRError(f"block {self.label!r} already closed with {self.terminator}")
        self.terminator = terminator

    @property
    def is_closed(self) -> bool:
        """True once a terminator is attached."""
        return self.terminator is not None

    @property
    def is_branch(self) -> bool:
        """True when the block ends in a two-way conditional branch."""
        return isinstance(self.terminator, Branch)

    @property
    def is_return(self) -> bool:
        """True when the block exits the procedure."""
        return isinstance(self.terminator, Return)

    def successors(self) -> tuple[str, ...]:
        """Labels this block can transfer to (empty for returns)."""
        if self.terminator is None:
            raise IRError(f"block {self.label!r} has no terminator")
        return self.terminator.successors()

    def calls(self) -> list[str]:
        """Names of procedures this block calls, in order."""
        return [i.callee() for i in self.instructions if i.is_call()]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def pretty(self) -> str:
        """Multi-line rendering used by CFG dumps and error messages."""
        lines = [f"{self.label}:"]
        lines.extend(f"  {instr}" for instr in self.instructions)
        lines.append(f"  {self.terminator if self.terminator else '<open>'}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()
