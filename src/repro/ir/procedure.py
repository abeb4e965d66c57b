"""Procedures: a named CFG plus its interface and declared storage."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import CFG

__all__ = ["Procedure"]


@dataclass
class Procedure:
    """One procedure of a mote program.

    ``params`` are virtual registers bound at call time; ``arrays`` maps a
    local array name to its element count (allocated in mote RAM).  The
    procedure boundary is load-bearing for the whole reproduction: Code
    Tomography's only measurements are timestamps taken at the *start and
    end* of each procedure invocation.
    """

    name: str
    cfg: CFG
    params: tuple[str, ...] = ()
    arrays: dict[str, int] = field(default_factory=dict)
    returns_value: bool = False

    @property
    def entry(self) -> str:
        """Entry block label."""
        return self.cfg.entry

    def branch_count(self) -> int:
        """Number of conditional branches (estimation unknowns live here)."""
        return len(self.cfg.branch_blocks())

    def block_count(self) -> int:
        """Number of basic blocks."""
        return len(self.cfg)

    def callees(self) -> list[str]:
        """Every procedure name this one calls (duplicates preserved)."""
        result: list[str] = []
        for block in self.cfg:
            result.extend(block.calls())
        return result

    def __str__(self) -> str:
        params = ", ".join(self.params)
        return f"proc {self.name}({params}):\n{self.cfg.pretty()}"
