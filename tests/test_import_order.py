"""Every ``repro`` package imports cleanly as a process's first ``repro`` import.

A circular import only shows when the cycle's entry point is imported
first, which a shared test process (where earlier tests already imported
half the package) never does.  So each package gets a fresh interpreter.
A fresh interpreter also shows what the runtime loads: numpy, and not
scipy, which only the test oracles use.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGES = sorted(
    path.name for path in (SRC / "repro").iterdir() if (path / "__init__.py").is_file()
)


def test_package_list_is_not_empty():
    assert "profiling" in PACKAGES and "core" in PACKAGES


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first(package):
    # repro.profiling used to fail here: timing_profiler -> repro.sim ->
    # repro.faults -> faults.inject -> timing_profiler (half initialized).
    proc = run_fresh(f"import repro.{package}")
    assert proc.returncode == 0, proc.stderr


def test_runtime_does_not_load_scipy():
    proc = run_fresh(
        "import sys\n"
        "import repro.core, repro.serve, repro.experiments.runner\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
