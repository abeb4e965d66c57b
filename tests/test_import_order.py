"""What a fresh process loads, and what it runs, when it imports ``repro``.

A circular import only shows when the cycle's entry point is imported
first, which a shared test process (where earlier tests already imported
half the package) never does.  So each check gets a fresh interpreter.
Package ``__init__``s resolve their public names on first use, so importing
a package runs none of its submodules; every package is therefore imported
through all of its public names at once.  A fresh interpreter also shows
what the runtime loads: numpy, and not scipy, which only the test oracles
use; and the serving path loads neither the experiment harness nor code it
only runs on request (estimator health, fault injection, the artifact
checker).
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

#: What the serving path never runs unless asked to: the experiment harness,
#: closed-loop PGO, estimator health (off by default), the artifact checker
#: and fault injection (no fault model).
NOT_SERVING = (
    "repro.experiments",
    "repro.pgo",
    "repro.obs.health",
    "repro.obs.validate",
    "repro.faults",
)


def test_package_list_is_not_empty():
    assert "profiling" in PACKAGES and "core" in PACKAGES


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def loaded_by(code: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after running ``code``."""
    proc = run_fresh(
        f"{code}\nimport sys\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first(package):
    # repro.profiling once failed here: timing_profiler -> repro.sim ->
    # repro.faults -> faults.inject -> timing_profiler (half initialized).
    proc = run_fresh(f"from repro.{package} import *")
    assert proc.returncode == 0, proc.stderr


def test_runtime_does_not_load_scipy():
    proc = run_fresh(
        "import sys\n"
        "import repro.core, repro.serve, repro.experiments.runner\n"
        "from repro.core import *\n"
        "from repro.serve import *\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module",
    ["repro.serve.service", "repro.serve.loadgen", "repro.serve.cli", "repro.core.online"],
)
def test_serving_path_loads_only_what_it_runs(module):
    loaded = loaded_by(f"import {module}")
    assert module in loaded
    assert [name for name in loaded if name.startswith(NOT_SERVING)] == []


def test_streaming_estimator_loads_no_batch_estimator():
    loaded = loaded_by("import repro.core.online")
    batch = {"estimator", "moments_fit", "identifiability", "drift", "report"}
    assert {f"repro.core.{name}" for name in batch} & set(loaded) == set()


def test_simulation_without_a_fault_model_loads_no_fault_code():
    loaded = loaded_by("from repro.sim import run_program, run_program_batched")
    assert "repro.sim.runner" in loaded
    assert [name for name in loaded if name.startswith("repro.faults")] == []


def test_each_tenant_pool_is_simulated_once():
    # build_uploads runs each tenant's pool; tenant_truth must reuse that run.
    proc = run_fresh(
        "from repro.obs import MetricsRegistry, metrics_active\n"
        "from repro.serve.loadgen import build_uploads, default_fleet, tenant_truth\n"
        "fleet = default_fleet(n_tenants=3, n_motes=2, shards_per_mote=1)\n"
        "registry = MetricsRegistry()\n"
        "with metrics_active(registry):\n"
        "    build_uploads(fleet)\n"
        "    truth = [tenant_truth(fleet, spec) for spec in fleet.tenants]\n"
        "print(registry.snapshot()['counters']['sim.runs'], len(fleet.tenants))"
    )
    assert proc.returncode == 0, proc.stderr
    runs, tenants = proc.stdout.split()
    assert runs == tenants == "3"
