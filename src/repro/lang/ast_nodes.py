"""Abstract syntax tree for TinyScript.

Nodes carry their source position so semantic errors can point at code.
Expressions and statements are plain frozen dataclasses; the tree is built
by :mod:`repro.lang.parser` and consumed by the checker and the lowering
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "Expr",
    "IntLit",
    "VarRef",
    "IndexRef",
    "Unary",
    "Binary",
    "SenseExpr",
    "CallExpr",
    "Stmt",
    "VarDecl",
    "Assign",
    "IndexAssign",
    "If",
    "While",
    "ReturnStmt",
    "SendStmt",
    "LedStmt",
    "ExprStmt",
    "Block",
    "ProcDecl",
    "GlobalDecl",
    "ArrayDecl",
    "Module",
]


@dataclass(frozen=True)
class Pos:
    """1-based source coordinates."""

    line: int
    column: int


@dataclass(frozen=True)
class IntLit:
    """Integer literal."""

    value: int
    pos: Pos


@dataclass(frozen=True)
class VarRef:
    """Read of a scalar variable (local, parameter, or global)."""

    name: str
    pos: Pos


@dataclass(frozen=True)
class IndexRef:
    """Read of ``array[index]``."""

    array: str
    index: "Expr"
    pos: Pos


@dataclass(frozen=True)
class Unary:
    """Unary ``-`` or ``!``."""

    op: str
    operand: "Expr"
    pos: Pos


@dataclass(frozen=True)
class Binary:
    """Binary operator.  Logical ``&&``/``||`` evaluate eagerly (see lower)."""

    op: str
    left: "Expr"
    right: "Expr"
    pos: Pos


@dataclass(frozen=True)
class SenseExpr:
    """``sense(channel)`` — one nondeterministic sensor reading."""

    channel: str
    pos: Pos


@dataclass(frozen=True)
class CallExpr:
    """Procedure call used as an expression (callee must return a value)."""

    callee: str
    args: tuple["Expr", ...]
    pos: Pos


Expr = Union[IntLit, VarRef, IndexRef, Unary, Binary, SenseExpr, CallExpr]


@dataclass(frozen=True)
class VarDecl:
    """``var name = expr;`` — introduces a procedure-local scalar."""

    name: str
    init: Expr
    pos: Pos


@dataclass(frozen=True)
class Assign:
    """``name = expr;``"""

    name: str
    value: Expr
    pos: Pos


@dataclass(frozen=True)
class IndexAssign:
    """``array[index] = expr;``"""

    array: str
    index: Expr
    value: Expr
    pos: Pos


@dataclass(frozen=True)
class Block:
    """``{ stmt* }``"""

    statements: tuple["Stmt", ...]
    pos: Pos


@dataclass(frozen=True)
class If:
    """``if (cond) block [else block-or-if]``"""

    cond: Expr
    then_body: Block
    else_body: Optional[Block]
    pos: Pos


@dataclass(frozen=True)
class While:
    """``while (cond) block``"""

    cond: Expr
    body: Block
    pos: Pos


@dataclass(frozen=True)
class ReturnStmt:
    """``return [expr];``"""

    value: Optional[Expr]
    pos: Pos


@dataclass(frozen=True)
class SendStmt:
    """``send(expr);`` — radio transmit."""

    value: Expr
    pos: Pos


@dataclass(frozen=True)
class LedStmt:
    """``led(expr);`` — LED port write."""

    value: Expr
    pos: Pos


@dataclass(frozen=True)
class ExprStmt:
    """Expression evaluated for effect (in practice: a void call)."""

    expr: Expr
    pos: Pos


Stmt = Union[
    VarDecl, Assign, IndexAssign, If, While, ReturnStmt, SendStmt, LedStmt, ExprStmt
]


@dataclass(frozen=True)
class ProcDecl:
    """``proc name(params) { ... }``"""

    name: str
    params: tuple[str, ...]
    body: Block
    pos: Pos


@dataclass(frozen=True)
class GlobalDecl:
    """``global name [= int];``"""

    name: str
    init: int
    pos: Pos


@dataclass(frozen=True)
class ArrayDecl:
    """``array name[size];`` — zero-initialized global array."""

    name: str
    size: int
    pos: Pos


@dataclass(frozen=True)
class Module:
    """A parsed TinyScript compilation unit."""

    globals_: tuple[GlobalDecl, ...]
    arrays: tuple[ArrayDecl, ...]
    procedures: tuple[ProcDecl, ...]
