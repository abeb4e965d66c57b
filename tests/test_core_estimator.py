"""Tests for the CodeTomography facade and identifiability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import program_estimation_error
from repro.core import CodeTomography, EstimationOptions, analyze_identifiability
from repro.errors import EstimationError
from repro.lang import compile_source
from repro.mote import MICAZ_LIKE, SensorSuite, UniformSensor
from repro.placement.layout import Layout
from repro.profiling import TimingDataset, TimingProfiler
from repro.sim import ProcedureTimingModel, run_program
from tests.conftest import build_diamond_procedure


@pytest.fixture(scope="module")
def memoryless_pipeline():
    src = """
    proc helper(v) {
        if (v > 511) {
            send(v);
            return v * 2;
        }
        return v + 1;
    }

    proc main() {
        var v = sense(adc0);
        var r = helper(v);
        while (sense(adc1) > 767) {
            led(1);
        }
    }
    """
    prog = compile_source(src, "pipeline")
    sensors = SensorSuite({"adc0": UniformSensor(), "adc1": UniformSensor()}, rng=31)
    result = run_program(prog, MICAZ_LIKE, sensors, activations=4000)
    dataset = TimingProfiler(MICAZ_LIKE, rng=32).collect(result.records)
    truth = {p.name: result.counters.true_branch_probabilities(p) for p in prog}
    return prog, dataset, truth


class TestCodeTomographyFacade:
    @pytest.mark.parametrize("method", ["moments", "em", "hybrid"])
    def test_all_methods_recover_probabilities(self, memoryless_pipeline, method):
        prog, dataset, truth = memoryless_pipeline
        tomo = CodeTomography(prog, MICAZ_LIKE)
        result = tomo.estimate(dataset, EstimationOptions(method=method, seed=1))
        assert program_estimation_error(result.thetas, truth, "mae") < 0.06

    def test_estimates_have_diagnostics(self, memoryless_pipeline):
        prog, dataset, truth = memoryless_pipeline
        result = CodeTomography(prog, MICAZ_LIKE).estimate(dataset)
        est = result.estimate_for("helper")
        assert est.n_samples == dataset.count("helper")
        assert est.method in ("moments", "em", "hybrid")
        assert len(est.predicted_moments) == 3

    def test_missing_samples_fall_back_to_prior_with_warning(self, memoryless_pipeline):
        prog, _, _ = memoryless_pipeline
        empty = TimingDataset({})
        result = CodeTomography(prog, MICAZ_LIKE).estimate(empty)
        assert np.all(result.thetas["helper"] == 0.5)
        assert any("no timing samples" in w for w in result.warnings)
        assert result.estimate_for("helper").method == "prior"

    def test_unknown_procedure_lookup_raises(self, memoryless_pipeline):
        prog, dataset, _ = memoryless_pipeline
        result = CodeTomography(prog, MICAZ_LIKE).estimate(dataset)
        with pytest.raises(EstimationError):
            result.estimate_for("ghost")

    def test_invalid_method_rejected(self):
        with pytest.raises(EstimationError, match="method"):
            EstimationOptions(method="magic")

    def test_branch_free_procedure_is_trivial(self):
        prog = compile_source("proc main() { led(1); }")
        sensors = SensorSuite({"a": UniformSensor()}, rng=0)
        result = run_program(prog, MICAZ_LIKE, sensors, activations=10)
        ds = TimingProfiler(MICAZ_LIKE, rng=1).collect(result.records)
        est = CodeTomography(prog, MICAZ_LIKE).estimate(ds)
        assert est.thetas["main"].size == 0
        assert est.estimate_for("main").method == "trivial"

    def test_seeded_estimates_are_reproducible(self, memoryless_pipeline):
        prog, dataset, _ = memoryless_pipeline
        opts = EstimationOptions(method="moments", seed=9)
        a = CodeTomography(prog, MICAZ_LIKE).estimate(dataset, opts)
        b = CodeTomography(prog, MICAZ_LIKE).estimate(dataset, opts)
        for name in a.thetas:
            assert np.array_equal(a.thetas[name], b.thetas[name])


class TestIdentifiability:
    def test_visible_diamond_is_well_posed(self):
        proc, _ = build_diamond_procedure(then_cost_pad=5, else_cost_pad=60)
        model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
        report = analyze_identifiability(model)
        assert report.well_posed
        assert report.jacobian_rank == 1
        assert not report.insensitive_parameters

    def test_under_determined_when_params_exceed_moments(self):
        from repro.workloads.synthetic import random_estimation_problem

        proc, _ = random_estimation_problem(rng=5, n_branches=5)
        model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
        report = analyze_identifiability(model, moments_used=3)
        assert not report.well_posed
        assert any("under-determined" in w for w in report.warnings)

    def test_zero_parameter_procedure_is_clean(self):
        prog = compile_source("proc main() { led(1); }")
        main = prog.procedure("main")
        model = ProcedureTimingModel(main, MICAZ_LIKE, Layout.source_order(main.cfg))
        report = analyze_identifiability(model)
        assert report.n_parameters == 0
        assert report.well_posed
        assert not report.warnings

    def test_singular_values_sorted_descending(self):
        from repro.workloads.synthetic import random_estimation_problem

        proc, _ = random_estimation_problem(rng=6, n_branches=3)
        model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
        report = analyze_identifiability(model)
        values = list(report.singular_values)
        assert values == sorted(values, reverse=True)
