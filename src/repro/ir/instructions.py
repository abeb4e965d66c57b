"""Instructions and block terminators of the mote IR.

The instruction set is register-based and deliberately small: enough to
express the TinyOS-style demo applications (arithmetic, memory, sensor reads,
radio sends, LED writes, calls) while keeping per-instruction cycle costs
deterministic.  Determinism matters: Code Tomography assumes the compiler
knows each basic block's straight-line cost exactly, so all timing
variability comes from *which* blocks execute, never from how long one
instruction takes.

Instructions never transfer control; control flow lives exclusively in the
block :class:`Terminator` (:class:`Jump`, :class:`Branch`, :class:`Return`),
which is what lets the CFG → Markov-chain translation treat a block as one
atomic state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

__all__ = [
    "Opcode",
    "BinaryOp",
    "UnaryOp",
    "is_comparison",
    "Instruction",
    "Terminator",
    "Jump",
    "Branch",
    "Return",
    "const",
    "mov",
    "binop",
    "unop",
    "load",
    "store",
    "sense",
    "send",
    "led",
    "call",
    "nop",
    "halt_op",
]


class Opcode(enum.Enum):
    """Instruction opcodes, grouped by the cost class they bill to."""

    CONST = "const"  # dst <- immediate
    MOV = "mov"  # dst <- src register
    BINOP = "binop"  # dst <- a (op) b
    UNOP = "unop"  # dst <- (op) a
    LOAD = "load"  # dst <- array[idx]
    STORE = "store"  # array[idx] <- src
    SENSE = "sense"  # dst <- ADC read of a sensor channel
    SEND = "send"  # radio transmit of one value
    LED = "led"  # write LED port
    CALL = "call"  # dst? <- proc(args...)
    NOP = "nop"  # idle cycle
    HALT = "halt"  # stop the mote (top-level only)


class BinaryOp(enum.Enum):
    """Binary operators; DIV/MOD are software routines on AVR-class MCUs."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="


class UnaryOp(enum.Enum):
    """Unary operators."""

    NEG = "neg"
    NOT = "not"


@dataclass(frozen=True)
class Instruction:
    """One straight-line IR instruction.

    ``dst`` is a virtual-register name (or ``None`` for pure effects);
    ``srcs`` are register operands; ``imm`` carries an immediate, array name,
    sensor channel, LED mask, or callee name depending on the opcode.
    """

    opcode: Opcode
    dst: Optional[str] = None
    srcs: tuple[str, ...] = ()
    imm: Union[int, str, BinaryOp, UnaryOp, None] = None
    args: tuple[str, ...] = ()

    def is_call(self) -> bool:
        """True for procedure calls (they nest another CFG's execution)."""
        return self.opcode is Opcode.CALL

    def callee(self) -> str:
        """Name of the called procedure; only valid for CALL."""
        if self.opcode is not Opcode.CALL:
            raise ValueError("callee() on a non-call instruction")
        assert isinstance(self.imm, str)
        return self.imm

    def __str__(self) -> str:
        op = self.opcode.value
        if self.opcode is Opcode.CONST:
            return f"{self.dst} = {self.imm}"
        if self.opcode is Opcode.MOV:
            return f"{self.dst} = {self.srcs[0]}"
        if self.opcode is Opcode.BINOP:
            assert isinstance(self.imm, BinaryOp)
            return f"{self.dst} = {self.srcs[0]} {self.imm.value} {self.srcs[1]}"
        if self.opcode is Opcode.UNOP:
            assert isinstance(self.imm, UnaryOp)
            return f"{self.dst} = {self.imm.value} {self.srcs[0]}"
        if self.opcode is Opcode.LOAD:
            return f"{self.dst} = {self.imm}[{self.srcs[0]}]"
        if self.opcode is Opcode.STORE:
            return f"{self.imm}[{self.srcs[0]}] = {self.srcs[1]}"
        if self.opcode is Opcode.SENSE:
            return f"{self.dst} = sense({self.imm})"
        if self.opcode is Opcode.SEND:
            return f"send({self.srcs[0]})"
        if self.opcode is Opcode.LED:
            return f"led({self.srcs[0] if self.srcs else self.imm})"
        if self.opcode is Opcode.CALL:
            args = ", ".join(self.args)
            prefix = f"{self.dst} = " if self.dst else ""
            return f"{prefix}{self.imm}({args})"
        return op


@dataclass(frozen=True)
class Jump:
    """Unconditional transfer to ``target``."""

    target: str

    def successors(self) -> tuple[str, ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass(frozen=True)
class Branch:
    """Two-way conditional transfer on register ``cond``.

    ``then_target`` is taken when ``cond`` is non-zero.  Which successor ends
    up as the *fall-through* in flash is a layout decision made later by
    :mod:`repro.placement`; the IR keeps both symmetric.
    """

    cond: str
    then_target: str
    else_target: str

    def successors(self) -> tuple[str, ...]:
        return (self.then_target, self.else_target)

    def __str__(self) -> str:
        return f"branch {self.cond} ? {self.then_target} : {self.else_target}"


@dataclass(frozen=True)
class Return:
    """Leave the procedure, optionally yielding register ``value``."""

    value: Optional[str] = None

    def successors(self) -> tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value else "ret"


Terminator = Union[Jump, Branch, Return]


def const(dst: str, value: int) -> Instruction:
    """``dst = value``."""
    return Instruction(Opcode.CONST, dst=dst, imm=int(value))


def mov(dst: str, src: str) -> Instruction:
    """``dst = src``."""
    return Instruction(Opcode.MOV, dst=dst, srcs=(src,))


def binop(op: BinaryOp, dst: str, a: str, b: str) -> Instruction:
    """``dst = a op b``."""
    return Instruction(Opcode.BINOP, dst=dst, srcs=(a, b), imm=op)


def unop(op: UnaryOp, dst: str, a: str) -> Instruction:
    """``dst = op a``."""
    return Instruction(Opcode.UNOP, dst=dst, srcs=(a,), imm=op)


def load(dst: str, array: str, idx: str) -> Instruction:
    """``dst = array[idx]``."""
    return Instruction(Opcode.LOAD, dst=dst, srcs=(idx,), imm=array)


def store(array: str, idx: str, src: str) -> Instruction:
    """``array[idx] = src``."""
    return Instruction(Opcode.STORE, srcs=(idx, src), imm=array)


def sense(dst: str, channel: str) -> Instruction:
    """``dst = sense(channel)`` — read a (nondeterministic) sensor."""
    return Instruction(Opcode.SENSE, dst=dst, imm=channel)


def send(src: str) -> Instruction:
    """Transmit register ``src`` over the radio."""
    return Instruction(Opcode.SEND, srcs=(src,))


def led(src: str) -> Instruction:
    """Write register ``src`` to the LED port."""
    return Instruction(Opcode.LED, srcs=(src,))


def call(proc: str, dst: Optional[str] = None, args: Sequence[str] = ()) -> Instruction:
    """``dst = proc(args...)`` (``dst=None`` for void calls)."""
    return Instruction(Opcode.CALL, dst=dst, imm=proc, args=tuple(args))


def nop() -> Instruction:
    """One idle cycle."""
    return Instruction(Opcode.NOP)
