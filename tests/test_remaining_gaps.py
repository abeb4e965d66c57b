"""Edge-case tests filling remaining coverage gaps across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import analyze_identifiability
from repro.lang import compile_source
from repro.markov import AbsorbingChain
from repro.mote import MICAZ_LIKE, ConstantSensor, SensorSuite, UniformSensor
from repro.placement.layout import Layout
from repro.sim import Interpreter, ProcedureTimingModel, run_program


class TestInterpreterOperatorCoverage:
    def run_expr(self, expr: str) -> int:
        prog = compile_source(f"global r; proc main() {{ r = {expr}; }}")
        sensors = SensorSuite({"a": ConstantSensor(0)}, rng=0)
        interp = Interpreter(prog, MICAZ_LIKE, sensors)
        interp.run_activation()
        return interp.globals["r"]

    def test_xor(self):
        assert self.run_expr("12 ^ 10") == 6

    def test_bitand_bitor(self):
        assert self.run_expr("12 & 10") == 8
        assert self.run_expr("12 | 10") == 14

    def test_shifts(self):
        assert self.run_expr("3 << 3") == 24
        assert self.run_expr("24 >> 2") == 6

    def test_logical_or_eager(self):
        assert self.run_expr("(1 > 2) || (3 > 2)") == 1
        assert self.run_expr("(1 > 2) || (2 > 3)") == 0

    def test_not_of_nonzero(self):
        assert self.run_expr("!(5)") == 0
        assert self.run_expr("!(0)") == 1

    def test_comparison_chain_combination(self):
        assert self.run_expr("(1 <= 1) + (2 >= 3) + (4 != 4) + (5 == 5)") == 2

    def test_deeply_nested_arithmetic(self):
        assert self.run_expr("((((1 + 2) * 3) - 4) / 5)") == 1


class TestIdentifiabilityEqualCostArms:
    LED_ONLY = """
    proc main() {
        if (sense(a) > 500) {
            led(1);
        } else {
            led(2);
        }
    }
    """
    VISIBLE = """
    proc main() {
        if (sense(a) > 500) {
            send(1);
        } else {
            led(2);
        }
    }
    """

    def model_for(self, src):
        main = compile_source(src).procedure("main")
        return ProcedureTimingModel(main, MICAZ_LIKE, Layout.source_order(main.cfg))

    def test_led_only_branch_needs_a_real_sample_budget(self):
        # The LED branch's whole-range effect is ~1.6 mean cycles (only the
        # branch-direction cost asymmetry): structurally identifiable, but
        # below the noise floor at tiny sample budgets.
        from repro.core import practically_invisible_parameters
        from repro.core.moments_fit import measurement_noise_variance

        model = self.model_for(self.LED_ONLY)
        assert analyze_identifiability(model).well_posed
        noise = measurement_noise_variance(MICAZ_LIKE.timer)
        assert practically_invisible_parameters(model, noise, n_samples=3) == [0]
        # Averaging over enough samples resolves even a sub-tick mean shift.
        assert practically_invisible_parameters(model, noise, n_samples=2000) == []

    def test_visible_branch_detectable_even_at_tiny_budgets(self):
        # A 160-cycle send on one arm dwarfs the noise immediately.
        from repro.core import practically_invisible_parameters
        from repro.core.moments_fit import measurement_noise_variance

        model = self.model_for(self.VISIBLE)
        report = analyze_identifiability(model)
        assert report.well_posed
        assert not report.insensitive_parameters
        noise = measurement_noise_variance(MICAZ_LIKE.timer)
        assert practically_invisible_parameters(model, noise, n_samples=3) == []

    def test_visibility_is_monotone_in_samples(self):
        from repro.core import practically_invisible_parameters
        from repro.core.moments_fit import measurement_noise_variance

        model = self.model_for(self.LED_ONLY)
        noise = measurement_noise_variance(MICAZ_LIKE.timer)
        flags = [
            len(practically_invisible_parameters(model, noise, n_samples=n))
            for n in (2, 20, 20_000)
        ]
        assert flags == sorted(flags, reverse=True)

    def test_argument_validation(self):
        from repro.core import practically_invisible_parameters

        model = self.model_for(self.VISIBLE)
        with pytest.raises(ValueError):
            practically_invisible_parameters(model, 1.0, n_samples=0)
        with pytest.raises(ValueError):
            practically_invisible_parameters(model, -1.0, n_samples=10)


class TestChainMiscApi:
    def make_chain(self):
        matrix = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        return AbsorbingChain(["a", "b"], matrix, [2.0, 3.0], "a")

    def test_probability_of_unknown_state_raises(self):
        from repro.errors import MarkovError

        chain = self.make_chain()
        with pytest.raises(MarkovError, match="unknown state"):
            chain.probability("zzz", "a")

    def test_index_lookup(self):
        chain = self.make_chain()
        assert chain.index("b") == 1
        assert chain.start_index == 0

    def test_q_views_are_read_only(self):
        chain = self.make_chain()
        with pytest.raises(ValueError):
            chain.Q[0, 0] = 0.5
        with pytest.raises(ValueError):
            chain.exit_probabilities[0] = 0.5


class TestLayoutSmallCfgs:
    def test_single_block_procedure_layout(self):
        prog = compile_source("proc main() { led(1); }")
        main = prog.procedure("main")
        layout = Layout.source_order(main.cfg)
        assert layout.order == ["entry"]
        assert layout.next_label("entry") is None

    def test_self_loop_branch_is_backward(self):
        # while(...) {} with empty body: the loop header's taken target can
        # point at itself after simplification-like structures.
        from repro.ir import CFGBuilder, const

        b = CFGBuilder("p")
        b.emit(const("c", 1))
        b.jump("head")
        b.block("head")
        body, exit_blk = b.branch("c", then_label=None, else_label=None)
        b.jump("head")
        b.switch_to(exit_blk)
        b.ret()
        proc = b.build()
        layout = Layout.source_order(proc.cfg)
        site = layout.resolve_branch("head")
        # Taken target (the body, which jumps back) resolution is defined.
        assert site.taken_arm in ("then", "else")


class TestWorkloadScenarioSensorTypes:
    def test_scenario_maps_to_expected_process(self):
        from repro.mote import AR1Sensor, BurstySensor, DiurnalSensor, IIDSensor
        from repro.workloads.inputs import build_sensors

        cases = {
            "default": IIDSensor,
            "bursty": BurstySensor,
            "drifting": DiurnalSensor,
            "correlated": AR1Sensor,
        }
        for scenario, cls in cases.items():
            suite = build_sensors({"ch": (500.0, 100.0)}, scenario=scenario, rng=0)
            assert isinstance(suite.channels["ch"], cls), scenario

    def test_uniform_scenario(self):
        from repro.mote import UniformSensor
        from repro.workloads.inputs import build_sensors

        suite = build_sensors({"ch": (500.0, 100.0)}, scenario="uniform", rng=0)
        assert isinstance(suite.channels["ch"], UniformSensor)


class TestOverheadArithmetic:
    def test_upload_packets_ceiling(self):
        from repro.profiling.overhead import _upload_packets, PAYLOAD_BYTES_PER_PACKET

        assert _upload_packets(1) == 1
        assert _upload_packets(PAYLOAD_BYTES_PER_PACKET) == 1
        assert _upload_packets(PAYLOAD_BYTES_PER_PACKET + 1) == 2

    def test_energy_components_positive(self):
        prog = compile_source("proc main() { send(1); }")
        sensors = SensorSuite({"a": UniformSensor()}, rng=0)
        result = run_program(prog, MICAZ_LIKE, sensors, activations=100)
        from repro.profiling import timing_overhead_from_counts

        invocations = sum(result.counters.invocations.values())
        report = timing_overhead_from_counts(prog, invocations, MICAZ_LIKE)
        assert report.energy_mj > 0
        assert report.upload_packets >= 1
