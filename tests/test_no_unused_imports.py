"""Every name ``src/`` imports is used in its module.

The scan parses each module of ``src/`` and compares the names its import
statements bind with the names the module refers to: every ``Name`` node,
the names inside string annotations, and the entries of ``__all__`` (a
re-export is a use).  An import statement whose first line carries a
``# noqa`` comment naming F401 (unused import) or F403 (star import) is
exempt: the workload registry imports modules for their registration side
effect, and ``repro.obs`` re-exports two modules by star.  Any other star
import is flagged, since the names it binds cannot be checked.

Run it on another tree with ``python -m tests.test_no_unused_imports
PATH``; it prints one unused import per line and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = re.compile(r"#\s*noqa:.*\bF40[13]\b")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names referred to by the string constants inside an annotation."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return used


def unused_imports(root: Path = ROOT) -> list[str]:
    """Imports of ``root/src`` that their module never uses, as ``path:line name``."""
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=rel)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if EXEMPT.search(lines[node.lineno - 1]):
                continue
            for alias in node.names:
                if alias.name == "*":
                    found.append(f"{rel}:{node.lineno} * (star import)")
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"{rel}:{node.lineno} {bound}")
    return found


def test_every_import_is_used():
    found = unused_imports()
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_scan_sees_what_it_must(tmp_path):
    """The scan flags a dead import and keeps every form of use it claims to."""
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Mapping, Optional\n"
        "from json import dumps, loads\n"
        "from pkg import side_effect  # noqa: F401\n"
        "from pkg.other import *\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Optional[int]') -> 'Mapping':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(tmp_path) == [
        "src/pkg/mod.py:3 Iterable",
        "src/pkg/mod.py:4 loads",
        "src/pkg/mod.py:6 * (star import)",
    ]


if __name__ == "__main__":
    found = unused_imports(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT)
    for where in found:
        print(where)
    sys.exit(1 if found else 0)
