"""The documentation stays true, or the build breaks.

Three contracts over ``docs/*.md`` + the top-level documents:

1. **Runnable snippets run.** Every fenced code block whose info string is
   tagged ``runnable`` (`````python runnable`` / `````bash runnable``) is
   executed in a scratch directory with ``src/`` on ``PYTHONPATH``; a
   non-zero exit fails the build with the snippet's output.
2. **Links resolve and named modules exist.** Every relative markdown link
   points at a real file, and every ``repro.*`` dotted path names an
   importable module (or a module attribute).
3. **No CLI flag drift.** Every ``--flag`` a code block passes to one of
   the console scripts in ``CLI_MODULES`` must appear in that command's
   live ``--help`` output (subcommand helps included).
4. **Every metric name is documented, and only those.** Every name
   ``src/`` passes as a string to ``inc`` / ``observe`` / ``set_gauge``
   matches a row of the "Metric names" table in ``docs/observability.md``,
   and every name in the table matches one ``src/`` emits, where a
   ``<placeholder>`` or an f-string's ``{field}`` stands for one name
   segment.
5. **The module map is the import graph.** Every ``repro`` import in
   ``src/`` points up ``docs/architecture.md``'s module map, or is an
   on-demand import that page names.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DOCS = sorted((REPO / "docs").glob("*.md"))
TOP_LEVEL = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]
ALL_DOCS = DOCS + TOP_LEVEL

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+?)(?:#[^)]*)?\)")
MODULE_RE = re.compile(r"\brepro(?:\.[a-z_][a-z0-9_]*)+")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: Commands whose documented flags are drift-checked against live --help.
CLI_MODULES = {
    "repro-experiments": "repro.experiments",
    "repro-serve": "repro.serve",
    "repro-obs": "repro.obs.obs_cli",
}


@dataclass(frozen=True)
class Fence:
    """One fenced code block: where it is, what it is, what it says."""

    path: Path
    lineno: int
    info: str
    body: str

    @property
    def where(self) -> str:
        return f"{self.path.relative_to(REPO)}:{self.lineno}"


def _fences(path: Path) -> list[Fence]:
    fences: list[Fence] = []
    info, start, body = None, 0, []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("```"):
            if info is None:
                info, start, body = stripped[3:].strip(), lineno, []
            else:
                fences.append(Fence(path, start, info, "\n".join(body)))
                info = None
        elif info is not None:
            body.append(line)
    assert info is None, f"{path}: unclosed code fence opened at line {start}"
    return fences


def _runnable_fences() -> list[Fence]:
    return [
        fence
        for path in ALL_DOCS
        for fence in _fences(path)
        if "runnable" in fence.info.split()
    ]


def _snippet_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


RUNNABLE = _runnable_fences()


class TestRunnableSnippets:
    def test_docs_carry_runnable_snippets(self):
        # The tag is the contract; if a rewrite drops them all, that is a
        # documentation regression, not a vacuous pass.
        assert len(RUNNABLE) >= 3

    @pytest.mark.parametrize("fence", RUNNABLE, ids=lambda f: f.where)
    def test_snippet_executes(self, fence, tmp_path):
        language = fence.info.split()[0]
        if language == "python":
            argv = [sys.executable, "-c", fence.body]
        elif language == "bash":
            argv = ["bash", "-euo", "pipefail", "-c", fence.body]
        else:  # pragma: no cover - tagging a new language is a doc bug
            pytest.fail(f"{fence.where}: no runner for {language!r} snippets")
        proc = subprocess.run(
            argv,
            cwd=tmp_path,
            env=_snippet_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, (
            f"{fence.where} exited {proc.returncode}\n"
            f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
        )


class TestLinksAndModules:
    @pytest.mark.parametrize("path", ALL_DOCS, ids=lambda p: p.name)
    def test_relative_links_resolve(self, path):
        missing = []
        for match in LINK_RE.finditer(path.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if not target or target.startswith("#"):
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                missing.append(f"{path.name}: broken link -> {target}")
        assert not missing, "\n".join(missing)

    @pytest.mark.parametrize("path", ALL_DOCS, ids=lambda p: p.name)
    def test_mentioned_repro_paths_exist(self, path):
        # Top-level names that aren't subpackages (e.g. the schema ids
        # ``repro.hwcounters/1``) are skipped; real package paths must
        # import, with a trailing-attribute fallback for ``module.Name``.
        real_tops = {
            entry.name.removesuffix(".py")
            for entry in (SRC / "repro").iterdir()
            if entry.name != "__pycache__"
        }
        text = path.read_text()
        stale = []
        for match in MODULE_RE.finditer(text):
            dotted = match.group(0)
            end = match.end()
            if end < len(text) and text[end] == "/":
                continue  # a schema id like repro.serve/1, not a module path
            top = dotted.split(".")[1]
            if top not in real_tops:
                continue
            if not _resolves(dotted):
                stale.append(f"{path.name}: no such module/attribute: {dotted}")
        assert not stale, "\n".join(sorted(set(stale)))


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for split in range(len(parts), 1, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _documented_flags(command: str) -> set[str]:
    """Every --flag passed to ``command`` in any documentation code block.

    Docs invoke the console script by name or as ``python -m <module>``;
    both spellings count as the same command.
    """
    names = (command, CLI_MODULES[command])
    flags: set[str] = set()
    for path in ALL_DOCS:
        for fence in _fences(path):
            # Join backslash continuations so a wrapped invocation reads
            # as the one command line it is.
            for line in fence.body.replace("\\\n", " ").splitlines():
                if not any(name in line for name in names):
                    continue
                flags.update(FLAG_RE.findall(line))
    return flags


def _help_output(module: str, *subcommand: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", module, *subcommand, "--help"],
        env=_snippet_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _known_flags(module: str) -> set[str]:
    """Union of --flags across the CLI's help and every subcommand's help."""
    helps = [_help_output(module)]
    subcommands = re.search(r"\{([a-z][a-z0-9,-]*)\}", helps[0])
    if subcommands:
        for name in subcommands.group(1).split(","):
            helps.append(_help_output(module, name))
    return {flag for text in helps for flag in FLAG_RE.findall(text)}


@pytest.mark.parametrize("command", sorted(CLI_MODULES), ids=str)
def test_documented_cli_flags_exist(command):
    documented = _documented_flags(command)
    assert documented, f"no documentation examples invoke {command}"
    unknown = documented - _known_flags(CLI_MODULES[command])
    assert not unknown, (
        f"documentation passes flags {sorted(unknown)} that "
        f"`{command} --help` does not list"
    )


# -- metric names --------------------------------------------------------------

OBSERVABILITY = REPO / "docs" / "observability.md"
METRIC_CALLS = {"inc", "observe", "set_gauge"}
#: A ``<placeholder>`` in the table, or a ``{field}`` in an f-string name.
PLACEHOLDER_RE = re.compile(r"<[^>]+>")
SEGMENT = "[^.]+"


def _name_pattern(name: str) -> re.Pattern:
    """``name`` as a regex in which each ``<placeholder>`` is one segment."""
    return re.compile(SEGMENT.join(map(re.escape, PLACEHOLDER_RE.split(name))))


def _documented_metric_names() -> list[str]:
    """Every name in the "Metric names" table.

    A row may list several names; one written ``.suffix`` swaps the
    previous name's last segment (``a.b`` / ``.c`` reads ``a.c``).
    """
    text = OBSERVABILITY.read_text()
    table = text[text.index("**Metric names.**") :]
    names = []
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            if names:
                break
            continue
        cell = line.split("|")[1]
        if set(cell.strip()) <= {"-"}:
            continue
        previous = ""
        for name in re.findall(r"`([^`]+)`", cell):
            if name.startswith("."):
                name = previous.rsplit(".", 1)[0] + name
            previous = name
            names.append(name)
    return names


def _emitted_metric_names() -> list[tuple[str, str]]:
    """``(where, name)`` for every string name ``src/`` emits a metric under;
    an f-string's fields read as ``<field>``.  A counter name formatted
    ahead of its ``inc`` is passed as a ``*_counter=`` keyword."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.keyword) and (node.arg or "").endswith("_counter"):
                arg = node.value
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_CALLS
                and node.args
            ):
                arg = node.args[0]
            else:
                continue
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            elif isinstance(arg, ast.JoinedStr):
                name = "".join(
                    part.value if isinstance(part, ast.Constant) else "<field>"
                    for part in arg.values
                )
            else:
                continue
            found.append((f"{path.relative_to(REPO)}:{node.lineno}", name))
    return found


def test_every_emitted_metric_name_is_documented():
    patterns = [_name_pattern(name) for name in _documented_metric_names()]
    emitted = _emitted_metric_names()
    assert len(emitted) > 30, "the metric-call scan found too few names"
    missing = [
        f"{where}: {name}"
        for where, name in emitted
        if not any(pattern.fullmatch(name) for pattern in patterns)
    ]
    assert not missing, (
        "metric names missing from the table in docs/observability.md:\n"
        + "\n".join(missing)
    )


def test_every_documented_metric_name_is_emitted():
    patterns = [_name_pattern(name) for _, name in _emitted_metric_names()]
    documented = _documented_metric_names()
    assert len(documented) > 30, "the table scan found too few names"
    stale = [
        name
        for name in documented
        if not any(pattern.fullmatch(name) for pattern in patterns)
    ]
    assert not stale, (
        "names in the table in docs/observability.md that src/ never emits:\n"
        + "\n".join(stale)
    )


# -- the module map ------------------------------------------------------------

ARCHITECTURE = REPO / "docs" / "architecture.md"

#: What every layer may import; the map's layers sit below these.
SUPPORT = ("repro.util", "repro.errors", "repro.obs")

UNIT_RE = re.compile(r"^[\s│├└─]*(repro(?:\.\w+)+)\s", re.M)
NAMED_EDGE_RE = re.compile(r"^- `(repro[\w.]*)` → `(repro[\w.]*)`", re.M)


def _section(heading: str) -> str:
    """The body of ``docs/architecture.md``'s ``## heading`` section."""
    body = ARCHITECTURE.read_text().split(f"\n## {heading}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def _is_module(dotted: str) -> bool:
    path = SRC.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _imports(node: ast.AST, on_demand: bool = False):
    """``(imported module, on demand)`` for every import under ``node``; an
    import inside a function or an ``if TYPE_CHECKING:`` runs on demand."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name, on_demand
        return
    if isinstance(node, ast.ImportFrom):
        for alias in node.names:
            dotted = f"{node.module}.{alias.name}"
            yield (dotted if _is_module(dotted) else node.module), on_demand
        return
    if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
        children = [(child, True) for child in node.body]
        children += [(child, on_demand) for child in node.orelse]
    else:
        inner = on_demand or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        children = [(child, inner) for child in ast.iter_child_nodes(node)]
    for child, flag in children:
        yield from _imports(child, flag)


def test_module_map_orders_every_import():
    (block,) = re.findall(r"```\n(.*?)```", _section("Module map"), re.S)
    units = UNIT_RE.findall(block)
    assert len(units) == len(set(units)) > 10, units
    named = set(NAMED_EDGE_RE.findall(_section("On-demand imports")))

    def ranks(module: str) -> list[int]:
        """The map rows ``module`` belongs to (-1: support); several for a
        package the map splits, none for a module off the map."""
        if module == "repro" or ".".join(module.split(".")[:2]) in SUPPORT:
            return [-1]
        holders = [u for u in units if module == u or module.startswith(u + ".")]
        if holders:
            return [units.index(max(holders, key=len))]
        return [i for i, u in enumerate(units) if u.startswith(module + ".")]

    problems, used = [], set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        source = ranks(module)
        if not source:
            problems.append(f"{module} is not on the module map")
            continue
        for target, on_demand in _imports(ast.parse(path.read_text())):
            if target.split(".")[0] != "repro":
                continue
            above = ranks(target)
            if not above:
                problems.append(f"{module} imports {target}, which is not on the map")
            elif above == [-1] or max(above) < min(source) or above == source:
                continue
            elif on_demand and (module, target) in named:
                used.add((module, target))
            else:
                kind = "on demand" if on_demand else "at module level"
                problems.append(f"{module} → {target} ({kind}) points down the map")
    problems += [f"named edge {a} → {b} is not imported on demand" for a, b in named - used]
    assert not problems, "\n".join(problems)
