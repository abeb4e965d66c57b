"""Block layouts and branch-site resolution.

A :class:`Layout` is the flash-order permutation of one procedure's blocks
(entry first, as the call convention requires).  Everything layout-dependent
funnels through :meth:`Layout.resolve_branch`, which encodes how a simple
mote compiler materializes a two-way conditional:

* if the **else** target is the next block in flash, the branch instruction
  tests the condition directly: *then* is the taken direction, *else* falls
  through;
* if the **then** target is next, the compiler inverts the condition:
  *else* becomes the taken direction, *then* falls through;
* if **neither** is next, the branch targets *then* (taken direction) and an
  unconditional jump to *else* follows it — the else arm pays that extra
  jump.

The same resolution is used by the dynamic simulator and by the analytic
expected-misprediction evaluator, so their numbers agree by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import PlacementError
from repro.ir.cfg import CFG
from repro.ir.instructions import Branch, Jump, Return
from repro.ir.program import Program

__all__ = ["Layout", "ProgramLayout", "ResolvedBranch"]


def _terminator_signature(term: object) -> tuple:
    """Structural identity of a block terminator (type + operands)."""
    if isinstance(term, Branch):
        return ("branch", term.cond, term.then_target, term.else_target)
    if isinstance(term, Jump):
        return ("jump", term.target)
    if isinstance(term, Return):
        return ("return", term.value)
    return ("open",)


@dataclass(frozen=True)
class ResolvedBranch:
    """How one conditional branch behaves under a specific layout.

    ``taken_arm`` is ``None`` for a *degenerate fall-through* branch —
    both targets name the block physically next in flash, so control falls
    through whichever way the condition goes and no taken direction exists
    (``fallthrough_arm`` is also ``None`` there: it cannot name both arms).
    """

    label: str
    then_target: str
    else_target: str
    taken_arm: Optional[str]  # "then"/"else" reached via the taken direction
    fallthrough_arm: Optional[str]  # arm reached by falling through, if any
    extra_jump_arm: Optional[str]  # arm paying an extra unconditional jump
    backward_taken_target: bool  # taken target earlier in flash than the branch

    def arm_taken(self, arm: str) -> bool:
        """Whether reaching ``arm`` ("then"/"else") counts as a taken branch."""
        if arm not in ("then", "else"):
            raise PlacementError(f"arm must be 'then' or 'else', got {arm!r}")
        return arm == self.taken_arm


class Layout:
    """A flash ordering of one procedure's basic blocks."""

    def __init__(self, cfg: CFG, order: Sequence[str]) -> None:
        self.cfg = cfg
        self.order = list(order)
        expected = set(cfg.labels)
        if set(self.order) != expected or len(self.order) != len(expected):
            raise PlacementError(
                f"layout must be a permutation of the CFG's blocks; "
                f"got {len(self.order)} labels vs {len(expected)} blocks"
            )
        if self.order[0] != cfg.entry:
            raise PlacementError(
                f"entry block {cfg.entry!r} must be first in the layout"
            )
        self._position = {label: i for i, label in enumerate(self.order)}

    @classmethod
    def source_order(cls, cfg: CFG) -> "Layout":
        """The unoptimized layout: blocks in source (insertion) order."""
        return cls(cfg, cfg.labels)

    def position(self, label: str) -> int:
        """Flash slot of a block."""
        try:
            return self._position[label]
        except KeyError:
            raise PlacementError(f"label {label!r} not in layout") from None

    def next_label(self, label: str) -> Optional[str]:
        """The block physically after ``label`` (None for the last block)."""
        pos = self.position(label) + 1
        return self.order[pos] if pos < len(self.order) else None

    def is_fallthrough(self, src: str, dst: str) -> bool:
        """True when ``dst`` immediately follows ``src`` in flash."""
        return self.next_label(src) == dst

    # -- branch-site resolution ------------------------------------------------

    def resolve_branch(self, label: str) -> ResolvedBranch:
        """Resolve the conditional branch ending block ``label``."""
        term = self.cfg.block(label).terminator
        if not isinstance(term, Branch):
            raise PlacementError(f"block {label!r} does not end in a conditional branch")
        nxt = self.next_label(label)
        if term.then_target == term.else_target == nxt:
            # Degenerate branch whose single target is next in flash: control
            # falls through regardless of the condition, so neither arm is a
            # taken transfer.  (Labelling the then arm taken here — the old
            # behaviour — charged phantom taken/mispredict events.)
            taken_arm, fallthrough_arm, extra_jump_arm = None, None, None
        elif term.else_target == nxt:
            taken_arm, fallthrough_arm, extra_jump_arm = "then", "else", None
        elif term.then_target == nxt:
            taken_arm, fallthrough_arm, extra_jump_arm = "else", "then", None
        else:
            taken_arm, fallthrough_arm, extra_jump_arm = "then", None, "else"
        taken_target = term.else_target if taken_arm == "else" else term.then_target
        backward = self.position(taken_target) <= self.position(label)
        return ResolvedBranch(
            label=label,
            then_target=term.then_target,
            else_target=term.else_target,
            taken_arm=taken_arm,
            fallthrough_arm=fallthrough_arm,
            extra_jump_arm=extra_jump_arm,
            backward_taken_target=backward,
        )

    def resolve_all_branches(self) -> dict[str, ResolvedBranch]:
        """Resolution of every conditional branch in the procedure."""
        return {b.label: self.resolve_branch(b.label) for b in self.cfg.branch_blocks()}

    def jump_is_elided(self, label: str) -> bool:
        """True when the jump ending block ``label`` falls through in flash."""
        term = self.cfg.block(label).terminator
        if not isinstance(term, Jump):
            raise PlacementError(f"block {label!r} does not end in a jump")
        return self.is_fallthrough(label, term.target)

    # -- identity --------------------------------------------------------------

    def structural_key(self) -> tuple:
        """A hashable value capturing the layout up to CFG structure.

        Two layouts are interchangeable exactly when their flash orders match
        and their CFGs agree structurally — same entry, same blocks in source
        order, same instructions, same terminators.  Object identity of the
        CFG is deliberately *not* part of the key: a layout that crossed a
        pickle boundary must still compare (and hash) equal to the
        original.  The key is computed once per layout; layouts are built on
        finished CFGs, which never mutate afterwards.
        """
        cached = getattr(self, "_structural_key", None)
        if cached is None:
            blocks = tuple(
                (
                    block.label,
                    tuple(str(instr) for instr in block.instructions),
                    _terminator_signature(block.terminator),
                )
                for block in self.cfg
            )
            cached = (self.cfg.entry, blocks, tuple(self.order))
            self._structural_key = cached
        return cached

    def fingerprint(self) -> str:
        """Content address of this layout (SHA-256 over the structural key)."""
        return hashlib.sha256(repr(self.structural_key()).encode()).hexdigest()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Layout) and self.structural_key() == other.structural_key()

    def __hash__(self) -> int:
        return hash(self.structural_key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Layout({' -> '.join(self.order)})"


class ProgramLayout:
    """Per-procedure layouts for a whole program."""

    def __init__(self, program: Program, layouts: dict[str, Layout]) -> None:
        self.program = program
        missing = [p.name for p in program if p.name not in layouts]
        if missing:
            raise PlacementError(f"layouts missing for procedures: {missing}")
        extra = [name for name in layouts if name not in program.procedures]
        if extra:
            raise PlacementError(f"layouts for unknown procedures: {extra}")
        self.layouts = dict(layouts)

    @classmethod
    def source_order(cls, program: Program) -> "ProgramLayout":
        """Source-order layout for every procedure."""
        return cls(program, {p.name: Layout.source_order(p.cfg) for p in program})

    def layout(self, proc_name: str) -> Layout:
        """Layout of one procedure."""
        try:
            return self.layouts[proc_name]
        except KeyError:
            raise PlacementError(f"no layout for procedure {proc_name!r}") from None

    def __iter__(self) -> Iterable[tuple[str, Layout]]:
        return iter(self.layouts.items())

    def fingerprint(self) -> str:
        """Content address over every procedure's layout, in program order.

        This is what :class:`~repro.pgo.registry.LayoutRegistry` keys on:
        structurally identical program layouts — including ones the
        optimizer rebuilt from scratch — map to the same digest.
        """
        digest = hashlib.sha256(self.program.name.encode())
        for proc in self.program:
            digest.update(proc.name.encode())
            digest.update(self.layouts[proc.name].fingerprint().encode())
        return digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ProgramLayout)
            and self.layouts.keys() == other.layouts.keys()
            and all(other.layouts[name] == layout for name, layout in self.layouts.items())
        )

    def __hash__(self) -> int:
        return hash(tuple(sorted((n, l.structural_key()) for n, l in self.layouts.items())))
