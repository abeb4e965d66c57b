"""Tests for estimation with an un-instrumented callee and the estimation report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CodeTomography, EstimationOptions, render_estimation_report
from repro.core.report import estimation_report
from repro.mote import MICAZ_LIKE
from repro.profiling import TimingDataset, TimingProfiler
from repro.sim import run_program
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def surge_setup():
    spec = workload_by_name("surge")
    prog = spec.program()
    result = run_program(prog, MICAZ_LIKE, spec.sensors(rng=5), activations=1000)
    dataset = TimingProfiler(MICAZ_LIKE, rng=6).collect(result.records)
    return prog, result, dataset


class TestApplyPlan:
    def test_estimation_degrades_gracefully_under_plan(self, surge_setup):
        prog, result, dataset = surge_setup
        # Only the caller is instrumented: its callee uploads no samples.
        restricted = TimingDataset({"main": dataset.durations("main")})
        estimate = CodeTomography(prog, MICAZ_LIKE).estimate(
            restricted, EstimationOptions(method="moments", seed=1)
        )
        # The un-hooked callee falls back to the prior, with a warning.
        assert np.all(estimate.thetas["link_ok"] == 0.5)
        assert any("no timing samples" in w for w in estimate.warnings)
        # The hooked procedure still produces a real estimate.
        assert estimate.estimate_for("main").method == "moments"


class TestEstimationReport:
    def test_report_has_one_row_per_branch(self, surge_setup):
        prog, result, dataset = surge_setup
        estimate = CodeTomography(prog, MICAZ_LIKE).estimate(
            dataset, EstimationOptions(method="moments", seed=1)
        )
        table = estimation_report(prog, estimate)
        total_branches = sum(p.branch_count() for p in prog)
        assert len(table.rows) == total_branches

    def test_report_with_truth_includes_errors(self, surge_setup):
        prog, result, dataset = surge_setup
        estimate = CodeTomography(prog, MICAZ_LIKE).estimate(
            dataset, EstimationOptions(method="moments", seed=1)
        )
        truth = {p.name: result.counters.true_branch_probabilities(p) for p in prog}
        table = estimation_report(prog, estimate, truth)
        assert "abs_err" in table.columns
        errors = [float(v) for v in table.column("abs_err")]
        assert all(0.0 <= e <= 1.0 for e in errors)

    def test_rendered_report_includes_warnings(self, surge_setup):
        prog, _, _ = surge_setup
        from repro.profiling import TimingDataset

        estimate = CodeTomography(prog, MICAZ_LIKE).estimate(TimingDataset({}))
        text = render_estimation_report(prog, estimate)
        assert "warnings:" in text
        assert "no timing samples" in text
