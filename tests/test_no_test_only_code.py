"""Every definition in ``src/`` has a production caller.

The scan parses ``src/``, ``pipebench/``, ``benchmarks/`` and
``examples/`` and counts references by name: every ``Name`` and
``Attribute`` node, plus the identifiers in the string constants of
``sim/interpreter.py``, whose generated code calls methods by name.
Docstrings, imports and ``__all__`` entries are none of these, so a
re-export alone keeps nothing alive.  A function, class or method defined
in ``src/`` whose name has no reference outside its own body is code that
only tests reach; so is a private module-level constant.  Dunder methods
are skipped (Python calls them), and a private module-level name only
counts references in its own module and in modules that import it.  The
scan iterates to a fixpoint: references made from inside a flagged
definition do not count, so the helpers of a flagged helper are flagged
too.

Run it on another tree with ``python -m tests.test_no_test_only_code
PATH``; it prints one flagged definition per line and exits 1 if there
is any.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "pipebench", "benchmarks", "examples")
#: Holds the generated code's source as strings.
GENERATED = Path("src/repro/sim/interpreter.py")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")

#: Names kept although only tests reach them, each with why.
ALLOWED = {
    "durations_for": "tests read simulated durations through RunResult.durations_for",
    "probabilities": "PathFamily.probabilities checks path families in the oracle tests",
    "parse_collapsed": "the flamegraph tests read collapsed stacks back with it",
    "parse_expression": "the front-end tests parse single expressions with it",
    "ConstantSensor": "tests drive programs with fixed sensor readings",
    "segments_for": "the controller tests and docs/pgo.md read a layout's segments",
    "practically_invisible_parameters": "the ambiguity report of ROADMAP item 6 builds on it",
    "exchangeable_pairs": "the ambiguity report of ROADMAP item 6 builds on it",
    "render_estimation_report": "the estimation report of ROADMAP item 6 builds on it",
    "handle_line": "the malformed-line sweep of ROADMAP item 10 drives it",
}


class Definition(NamedTuple):
    """A function, class or method of ``src/``, or a private constant."""

    where: str  # path:qualified name
    name: str
    local: bool  # a private module-level name, visible only where imported

    @property
    def path(self) -> str:
        return self.where.split(":", 1)[0]


def _docstrings(tree: ast.AST) -> set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


class _Scan(ast.NodeVisitor):
    """References of one file, each with the definitions that enclose it."""

    def __init__(self, rel: str, checked: bool, strings: bool, docstrings: set[int]) -> None:
        self.rel = rel
        self.checked = checked
        self.strings = strings
        self.docstrings = docstrings
        self.stack: list[Definition] = []
        self.definitions: list[Definition] = []
        self.references: list[tuple[str, tuple[Definition, ...]]] = []
        self.imported: set[str] = set()

    def _enter(self, name: str, qualname: str) -> bool:
        """Open a definition's body; dunder names are called by Python."""
        if not self.checked or (name.startswith("__") and name.endswith("__")):
            return False
        local = name.startswith("_") and name == qualname
        definition = Definition(f"{self.rel}:{qualname}", name, local)
        self.definitions.append(definition)
        self.stack.append(definition)
        return True

    def visit_Module(self, node: ast.Module) -> None:
        for child in node.body:
            if isinstance(child, ast.ClassDef):
                self._class(child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(child, child.name)
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                self._constant(child)
            else:
                self.visit(child)

    def _function(self, node: ast.AST, qualname: str) -> None:
        # Decorators and defaults count as the definition's own references.
        opened = self._enter(node.name, qualname)
        self.generic_visit(node)
        if opened:
            self.stack.pop()

    def _class(self, node: ast.ClassDef) -> None:
        opened = self._enter(node.name, node.name)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(child, f"{node.name}.{child.name}")
            else:
                self.visit(child)
        for part in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(part)
        if opened:
            self.stack.pop()

    def _constant(self, node: ast.AST) -> None:
        """A private module-level ``_NAME = value``, whose value is its body.

        Public constants are data the package exports, not code.
        """
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        name = targets[0].id if len(targets) == 1 and isinstance(targets[0], ast.Name) else ""
        opened = name.startswith("_") and self._enter(name, name)
        self.visit(node)
        if opened:
            self.stack.pop()

    def _refer(self, name: str) -> None:
        self.references.append((name, tuple(self.stack)))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imported.update(alias.name for alias in node.names)

    def visit_Name(self, node: ast.Name) -> None:
        self._refer(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._refer(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if self.strings and isinstance(node.value, str) and id(node) not in self.docstrings:
            for name in IDENTIFIER.findall(node.value):
                self._refer(name)


def _files(root: Path) -> Iterator[Path]:
    for top in SCANNED:
        yield from sorted((root / top).rglob("*.py"))


def unreached_definitions(root: Path = ROOT, allowed=ALLOWED) -> list[str]:
    """Definitions of ``root/src`` that no scanned code reaches, apart from
    the names in ``allowed``, as ``path:qualified name``."""
    definitions: list[Definition] = []
    # name -> (file, the definitions enclosing the reference) per reference
    references: dict[str, list[tuple[str, tuple[Definition, ...]]]] = {}
    imported: dict[str, set[str]] = {}
    for path in _files(root):
        rel = path.relative_to(root)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))
        scan = _Scan(
            rel.as_posix(),
            checked=rel.parts[0] == "src",
            strings=rel == GENERATED,
            docstrings=_docstrings(tree),
        )
        scan.visit(tree)
        definitions.extend(scan.definitions)
        imported[scan.rel] = scan.imported
        for name, enclosing in scan.references:
            references.setdefault(name, []).append((scan.rel, enclosing))

    def reaches(definition: Definition, where: str) -> bool:
        """Whether a reference in file ``where`` can name ``definition``."""
        return (
            not definition.local
            or where == definition.path
            or definition.name in imported[where]
        )

    flagged: set[Definition] = set()
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if definition in flagged or definition.name in allowed:
                continue
            live = any(
                reaches(definition, where)
                and definition not in enclosing
                and flagged.isdisjoint(enclosing)
                for where, enclosing in references.get(definition.name, ())
            )
            if not live:
                flagged.add(definition)
                changed = True
    return sorted(d.where for d in flagged)


def test_every_definition_has_a_production_caller():
    flagged = unreached_definitions()
    assert not flagged, "only tests reach:\n" + "\n".join(flagged)


def test_allowlist_names_only_what_it_must():
    """An allowed name that production code now reaches is stale."""
    flagged = {
        where.rsplit(":", 1)[1].rsplit(".", 1)[-1] for where in unreached_definitions(allowed={})
    }
    assert set(ALLOWED) <= flagged, f"reached by production code: {set(ALLOWED) - flagged}"


if __name__ == "__main__":
    found = unreached_definitions(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT)
    for where in found:
        print(where)
    sys.exit(1 if found else 0)
