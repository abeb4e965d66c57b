"""Lowering from the TinyScript AST to the block/CFG IR.

Each procedure becomes one CFG built through :class:`repro.ir.CFGBuilder`.
The lowering choices that matter to the experiments:

* **Logical operators evaluate eagerly.**  ``a && b`` lowers to
  ``(a != 0) & (b != 0)`` rather than to short-circuit branches, so the only
  conditional branches in the CFG are the ones the programmer wrote
  (``if``/``while``).  This keeps the Markov parameter per branch aligned
  with a source-level decision, which is the granularity the paper's
  estimator targets.
* **Condition code lives in the branch block.**  The instructions computing
  an ``if``/``while`` condition are appended to the block that ends in the
  conditional branch, so block costs reflect where work actually happens.
* **Loop shape.**  ``while`` lowers to a header block holding the condition,
  a body that jumps back to the header, and a join continuation — the
  header's then-arm probability is the loop-continuation probability, whose
  geometric trip-count behaviour the estimators must recover.
"""

from __future__ import annotations

from repro.errors import SemanticError
from repro.ir.builder import CFGBuilder
from repro.ir.instructions import (
    BinaryOp,
    UnaryOp,
    binop,
    call,
    const,
    led,
    load,
    mov,
    send,
    sense,
    store,
    unop,
)
from repro.ir.procedure import Procedure
from repro.ir.program import Program
from repro.lang import ast_nodes as ast
from repro.lang.semantics import proc_returns_value

__all__ = ["lower_program", "lower_procedure"]

_BINOPS: dict[str, BinaryOp] = {
    "+": BinaryOp.ADD,
    "-": BinaryOp.SUB,
    "*": BinaryOp.MUL,
    "/": BinaryOp.DIV,
    "%": BinaryOp.MOD,
    "&": BinaryOp.AND,
    "|": BinaryOp.OR,
    "^": BinaryOp.XOR,
    "<<": BinaryOp.SHL,
    ">>": BinaryOp.SHR,
    "<": BinaryOp.LT,
    "<=": BinaryOp.LE,
    ">": BinaryOp.GT,
    ">=": BinaryOp.GE,
    "==": BinaryOp.EQ,
    "!=": BinaryOp.NE,
}


class _ProcLowerer:
    """Lower a single procedure's AST into a CFG."""

    def __init__(self, proc: ast.ProcDecl) -> None:
        self.proc = proc
        self.builder = CFGBuilder(proc.name)
        self._temp_counter = 0

    def fresh_temp(self) -> str:
        """A temp register; ``%`` cannot appear in source identifiers."""
        name = f"%t{self._temp_counter}"
        self._temp_counter += 1
        return name

    # -- expressions ----------------------------------------------------------

    def lower_expr(self, expr: ast.Expr) -> str:
        """Emit code for ``expr`` into the current block; return its register."""
        b = self.builder
        if isinstance(expr, ast.IntLit):
            dst = self.fresh_temp()
            b.emit(const(dst, expr.value))
            return dst
        if isinstance(expr, ast.VarRef):
            return expr.name
        if isinstance(expr, ast.IndexRef):
            idx = self.lower_expr(expr.index)
            dst = self.fresh_temp()
            b.emit(load(dst, expr.array, idx))
            return dst
        if isinstance(expr, ast.Unary):
            src = self.lower_expr(expr.operand)
            dst = self.fresh_temp()
            if expr.op == "-":
                b.emit(unop(UnaryOp.NEG, dst, src))
            elif expr.op == "!":
                zero = self.fresh_temp()
                b.emit(const(zero, 0), binop(BinaryOp.EQ, dst, src, zero))
            else:  # pragma: no cover - parser only produces - and !
                raise SemanticError(f"unknown unary operator {expr.op!r}")
            return dst
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                return self._lower_logical(expr)
            lhs = self.lower_expr(expr.left)
            rhs = self.lower_expr(expr.right)
            dst = self.fresh_temp()
            b.emit(binop(_BINOPS[expr.op], dst, lhs, rhs))
            return dst
        if isinstance(expr, ast.SenseExpr):
            dst = self.fresh_temp()
            b.emit(sense(dst, expr.channel))
            return dst
        if isinstance(expr, ast.CallExpr):
            args = [self.lower_expr(a) for a in expr.args]
            dst = self.fresh_temp()
            b.emit(call(expr.callee, dst, args))
            return dst
        raise SemanticError(f"cannot lower expression {type(expr).__name__}")

    def _lower_logical(self, expr: ast.Binary) -> str:
        """Eager ``&&``/``||``: normalize both sides to 0/1, combine bitwise."""
        b = self.builder
        lhs = self._normalize_bool(self.lower_expr(expr.left))
        rhs = self._normalize_bool(self.lower_expr(expr.right))
        dst = self.fresh_temp()
        op = BinaryOp.AND if expr.op == "&&" else BinaryOp.OR
        b.emit(binop(op, dst, lhs, rhs))
        return dst

    def _normalize_bool(self, src: str) -> str:
        """``src != 0`` as a 0/1 value."""
        zero = self.fresh_temp()
        dst = self.fresh_temp()
        self.builder.emit(const(zero, 0), binop(BinaryOp.NE, dst, src, zero))
        return dst

    # -- statements -------------------------------------------------------------

    def lower_block(self, block: ast.Block) -> bool:
        """Lower statements; returns True when the block ended in a return."""
        for stmt in block.statements:
            if self.lower_stmt(stmt):
                return True
        return False

    def lower_stmt(self, stmt: ast.Stmt) -> bool:
        """Lower one statement; returns True when it terminated control flow."""
        b = self.builder
        if isinstance(stmt, (ast.VarDecl, ast.Assign)):
            value = self.lower_expr(stmt.init if isinstance(stmt, ast.VarDecl) else stmt.value)
            b.emit(mov(stmt.name, value))
            return False
        if isinstance(stmt, ast.IndexAssign):
            idx = self.lower_expr(stmt.index)
            value = self.lower_expr(stmt.value)
            b.emit(store(stmt.array, idx, value))
            return False
        if isinstance(stmt, ast.SendStmt):
            b.emit(send(self.lower_expr(stmt.value)))
            return False
        if isinstance(stmt, ast.LedStmt):
            b.emit(led(self.lower_expr(stmt.value)))
            return False
        if isinstance(stmt, ast.ExprStmt):
            assert isinstance(stmt.expr, ast.CallExpr)  # enforced by semantics
            args = [self.lower_expr(a) for a in stmt.expr.args]
            b.emit(call(stmt.expr.callee, None, args))
            return False
        if isinstance(stmt, ast.ReturnStmt):
            value = self.lower_expr(stmt.value) if stmt.value is not None else None
            b.ret(value)
            return True
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt)
        if isinstance(stmt, ast.While):
            self._lower_while(stmt)
            return False
        raise SemanticError(f"cannot lower statement {type(stmt).__name__}")

    def _lower_if(self, stmt: ast.If) -> bool:
        b = self.builder
        cond = self.lower_expr(stmt.cond)
        then_blk, else_blk = b.branch(cond)
        join_label = b.fresh_label("join")

        b.switch_to(then_blk)
        then_returned = self.lower_block(stmt.then_body)
        if not then_returned:
            b.jump(join_label)

        b.switch_to(else_blk)
        else_returned = self.lower_block(stmt.else_body) if stmt.else_body else False
        if not else_returned:
            b.jump(join_label)

        if then_returned and else_returned:
            return True
        b.block(join_label)
        return False

    def _lower_while(self, stmt: ast.While) -> None:
        b = self.builder
        header_label = b.fresh_label("loop")
        b.jump(header_label)
        b.block(header_label)
        cond = self.lower_expr(stmt.cond)
        body_blk, exit_blk = b.branch(cond)

        b.switch_to(body_blk)
        if not self.lower_block(stmt.body):
            b.jump(header_label)

        b.switch_to(exit_blk)

    # -- top level ----------------------------------------------------------------

    def lower(self) -> Procedure:
        returns_value = proc_returns_value(self.proc)
        body_returned = self.lower_block(self.proc.body)
        if not body_returned:
            if returns_value:
                zero = self.fresh_temp()
                self.builder.emit(const(zero, 0))
                self.builder.ret(zero)
            else:
                self.builder.ret()
        return self.builder.build(params=self.proc.params, returns_value=returns_value)


def lower_procedure(proc: ast.ProcDecl) -> Procedure:
    """Lower one procedure declaration."""
    return _ProcLowerer(proc).lower()


def lower_program(module: ast.Module, name: str, entry: str = "main") -> Program:
    """Lower a checked module into an IR :class:`Program`."""
    program = Program(name=name, entry=entry)
    for g in module.globals_:
        program.globals_[g.name] = g.init
    for a in module.arrays:
        program.arrays[a.name] = a.size
    for proc in module.procedures:
        program.add(lower_procedure(proc))
    return program
