"""Whole programs: a set of procedures plus global storage and metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import IRError
from repro.ir.procedure import Procedure

__all__ = ["Program"]


@dataclass
class Program:
    """A complete mote application.

    ``entry`` names the procedure the scheduler invokes per activation (for
    TinyOS-style apps this is the timer-fired task).  ``globals_`` maps
    global scalar names to initial values; ``arrays`` maps global array names
    to element counts.  Call graphs must be acyclic (checked by
    :func:`repro.ir.validate.validate_program`) because the timing model
    inlines callee time distributions into the caller's.
    """

    name: str
    entry: str
    procedures: dict[str, Procedure] = field(default_factory=dict)
    globals_: dict[str, int] = field(default_factory=dict)
    arrays: dict[str, int] = field(default_factory=dict)
    source: Optional[str] = None

    def add(self, proc: Procedure) -> Procedure:
        """Register a procedure; names must be unique."""
        if proc.name in self.procedures:
            raise IRError(f"duplicate procedure {proc.name!r}")
        self.procedures[proc.name] = proc
        return proc

    def procedure(self, name: str) -> Procedure:
        """Look up a procedure by name."""
        try:
            return self.procedures[name]
        except KeyError:
            raise IRError(f"program {self.name!r} has no procedure {name!r}") from None

    def __iter__(self) -> Iterator[Procedure]:
        return iter(self.procedures.values())

    def __len__(self) -> int:
        return len(self.procedures)

    def call_graph(self) -> dict[str, set[str]]:
        """Caller → set-of-callees over declared procedures."""
        return {proc.name: set(proc.callees()) for proc in self}

    def topological_procedures(self) -> list[Procedure]:
        """Procedures ordered callees-first (valid because calls are acyclic).

        The timing model uses this order to fold callee execution-time
        distributions into caller block costs bottom-up.
        """
        graph = self.call_graph()
        order: list[str] = []
        state: dict[str, int] = {}

        def visit(name: str) -> None:
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                raise IRError(f"recursive call cycle involving {name!r}")
            state[name] = 1
            for callee in sorted(graph.get(name, ())):
                if callee in self.procedures:
                    visit(callee)
            state[name] = 2
            order.append(name)

        for name in self.procedures:
            visit(name)
        return [self.procedures[n] for n in order]

    def totals(self) -> dict[str, int]:
        """Structural census: procedures, blocks, branches, loops, calls."""
        return {
            "procedures": len(self.procedures),
            "blocks": sum(p.block_count() for p in self),
            "branches": sum(p.branch_count() for p in self),
            "loops": sum(p.cfg.loop_count() for p in self),
            "calls": sum(len(p.callees()) for p in self),
        }

    def __str__(self) -> str:
        return "\n\n".join(str(proc) for proc in self)
