"""TinyScript: a small imperative language for mote programs.

The reproduction needs realistic sensor-network programs whose control flow
depends on nondeterministic sensor data.  Rather than hand-wiring CFGs, the
workloads are written in TinyScript — a C-like language with procedures,
globals, fixed-size arrays, ``if``/``while``, and the mote builtins
``sense(channel)``, ``send(expr)``, ``led(expr)`` — and compiled to the
:mod:`repro.ir` CFG form by this package.

The public entry point is :func:`compile_source`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.ir.program import Program

_stages, __getattr__ = lazy_exports(
    __name__,
    {
        "lexer": ("tokenize",),
        "parser": ("parse",),
        "semantics": ("check_program",),
        "lower": ("lower_program",),
    },
)
__all__ = ["compile_source", *_stages]


def compile_source(source: str, name: str = "program", entry: str = "main") -> Program:
    """Compile TinyScript ``source`` into a validated IR :class:`Program`.

    Runs the full pipeline — lex, parse, semantic checks, lowering, CFG
    validation — and raises a :class:`repro.errors.LangError` subclass with a
    line/column position on the first problem found.
    """
    from repro.ir.validate import validate_program
    from repro.lang.lexer import tokenize
    from repro.lang.lower import lower_program
    from repro.lang.parser import parse
    from repro.lang.semantics import check_program

    module = parse(tokenize(source))
    check_program(module, entry=entry)
    program = lower_program(module, name=name, entry=entry)
    program.source = source
    validate_program(program)
    return program
