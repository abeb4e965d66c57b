"""Hardware-counter telemetry contracts.

Three load-bearing promises from ``repro.obs.counters``:

* merging snapshots into a registry is order-free on emitted snapshots
  (the engine's deterministic merge depends on it), and a foreign schema
  is refused;
* counters off (the default) is a strict no-op — no registry, no
  allocation, no effect on simulation results;
* counters on agree bit-for-bit with the simulator's ground truth and
  are schedule-independent (jobs=1 == jobs=4 for F4, F5 and F7).
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.errors import ObsError
from repro.experiments.common import ExperimentConfig
from repro.experiments.engine import run_experiments
from repro.lang import compile_source
from repro.mote import MICAZ_LIKE, SensorSuite, UniformSensor
from repro.obs import counters as hwc
from repro.obs.counters import HardwareCounters, counters_active
from repro.sim import run_program, run_program_batched
from tests.sim_oracle import oracle_engine

# --------------------------------------------------------------------------
# Snapshot schema
# --------------------------------------------------------------------------


class TestSnapshotAlgebra:
    def test_schema_mismatch_is_loud(self):
        bad = {"schema": "someone-else/9", "totals": {}, "per_proc": {}}
        with pytest.raises(ObsError, match="schema mismatch"):
            HardwareCounters().merge_snapshot(bad)


# --------------------------------------------------------------------------
# Disabled path
# --------------------------------------------------------------------------

PROGRAM_SOURCE = """
proc main() {
    if (sense(a) > 512) {
        send(1);
    }
    led(0);
}
"""


@pytest.fixture
def program():
    return compile_source(PROGRAM_SOURCE)


def _run(program, activations=50, rng=7):
    sensors = SensorSuite({"a": UniformSensor()}, rng=rng)
    return run_program(program, MICAZ_LIKE, sensors, activations=activations)


class TestDisabledPath:
    def test_no_registry_installed_by_default(self):
        assert hwc.active() is None

    def test_disabled_run_records_nothing_and_changes_nothing(self, program):
        plain = _run(program)
        assert hwc.active() is None
        hw = HardwareCounters()
        with counters_active(hw):
            counted = _run(program)
        # telemetry is about the run, never part of it
        assert counted.total_cycles == plain.total_cycles
        assert counted.counters.mispredict_total == plain.counters.mispredict_total
        # and with the registry gone again, nothing leaks
        assert hwc.active() is None

    def test_active_check_is_allocation_free(self):
        # The emission-site guard is `hwc.active() is None` — it must not
        # allocate, or 10^6 call sites would swamp the simulator when off.
        for _ in range(64):  # warm any lazy interning
            hwc.active()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(10_000):
                hwc.active()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a fixed few bytes of loop machinery is fine; growth proportional
        # to the 10k calls (= the guard allocating) is not
        assert after - before < 512


# --------------------------------------------------------------------------
# Enabled path: ground-truth agreement and schedule independence
# --------------------------------------------------------------------------


class TestGroundTruthAgreement:
    def test_cycle_classes_sum_to_interpreter_cycles(self, program):
        hw = HardwareCounters()
        with counters_active(hw):
            result = _run(program, activations=200)
        snap = hw.snapshot()
        assert hwc.total_cycles(snap) == result.total_cycles
        assert hwc.branches_executed(snap) == result.counters.branches_executed
        assert hwc.mispredict_total(snap) == result.counters.mispredict_total
        assert hwc.mispredict_rate(snap) == result.counters.mispredict_rate

    def test_per_proc_attribution_covers_all_cycles(self, program):
        hw = HardwareCounters()
        with counters_active(hw):
            result = _run(program, activations=100)
        snap = hw.snapshot()
        attributed = sum(row.get("cycles", 0) for row in snap["per_proc"].values())
        assert attributed == result.total_cycles

    def test_nested_registry_folds_into_parent(self, program):
        outer = HardwareCounters()
        with counters_active(outer):
            inner = HardwareCounters()
            with counters_active(inner):
                _run(program, activations=20)
            inner_snap = inner.snapshot()
        assert outer.snapshot()["totals"] == inner_snap["totals"]

    def test_isolated_registry_does_not_fold(self, program):
        outer = HardwareCounters()
        with counters_active(outer):
            with counters_active(HardwareCounters(), isolated=True):
                _run(program, activations=20)
        assert outer.snapshot()["totals"] == {}


QUICK = ExperimentConfig(quick=True, seed=2015, activations=600)


class TestScheduleIndependence:
    def _with_counters(self, exp_id, jobs):
        hw = HardwareCounters()
        with counters_active(hw):
            (outcome,) = run_experiments([exp_id], QUICK, jobs=jobs, counters=True)
        assert outcome.ok
        return outcome.result, hw.snapshot()

    @pytest.mark.parametrize("exp_id", ["f4", "f5", "f7"])
    def test_f4_counters_and_rates_bit_identical_across_worker_counts(self, exp_id):
        """Counters, rendered tables and series do not depend on --jobs.

        F5 (placement speedups) and F7 (drift epochs) reach the interpreter
        through their own drivers, so each gets the same check as F4.
        """
        serial_result, serial_snap = self._with_counters(exp_id, jobs=1)
        parallel_result, parallel_snap = self._with_counters(exp_id, jobs=4)
        assert serial_snap == parallel_snap
        assert serial_result.render() == parallel_result.render()
        assert serial_result.series == parallel_result.series
        # the run really produced branch events to aggregate
        assert hwc.branches_executed(serial_snap) > 0

    def test_f4_counters_bit_identical_across_engines(self):
        """jobs=1 == jobs=4 == the oracle interpreter.

        The counter registers a fleet reports cannot depend on which engine
        stepped the motes any more than on how many workers ran the units.
        """
        serial_result, serial_snap = self._with_counters("f4", jobs=1)
        parallel_result, parallel_snap = self._with_counters("f4", jobs=4)
        with oracle_engine():
            oracle_result, oracle_snap = self._with_counters("f4", jobs=1)
        assert serial_snap == parallel_snap == oracle_snap
        assert (
            serial_result.render()
            == parallel_result.render()
            == oracle_result.render()
        )


# --------------------------------------------------------------------------
# Compiled engine: real snapshots obey the algebra, and match the oracle
# --------------------------------------------------------------------------

BATCHED_PROGRAM_SOURCE = """
proc helper(v) {
    var acc = v;
    while (acc > 300) {
        acc = acc / 2;
        send(acc);
    }
    return acc;
}
proc main() {
    led(helper(sense(a)) & 7);
}
"""


def _batched_snapshot(activations=40, rng=11):
    program = compile_source(BATCHED_PROGRAM_SOURCE)
    factory = lambda g: SensorSuite({"a": UniformSensor()}, rng=g)
    hw = HardwareCounters()
    with counters_active(hw, isolated=True):
        result = run_program_batched(
            program,
            MICAZ_LIKE,
            factory,
            activations=activations,
            batch_size=8,
            rng=rng,
        )
    return result, hw.snapshot()


class TestCompiledPath:
    def test_compiled_snapshot_equals_oracle_snapshot(self):
        compiled_result, compiled_snap = _batched_snapshot()
        with oracle_engine():
            oracle_result, oracle_snap = _batched_snapshot()
        assert compiled_result == oracle_result
        assert compiled_snap == oracle_snap
        assert hwc.total_cycles(compiled_snap) == compiled_result.total_cycles

    def test_real_compiled_snapshots_obey_the_monoid_laws(self):
        """Merging emitted snapshots into a registry is order-free.

        These runs merge exactly the value shapes the engine produces,
        radio energy floats included.  Integer counters are exactly
        associative; the one float counter (``radio.energy_uj``) is
        associative only up to IEEE rounding, so it is compared
        approximately.
        """

        def merged(*snaps):
            hw = HardwareCounters()
            for snap in snaps:
                hw.merge_snapshot(snap)
            return hw.snapshot()

        _, a = _batched_snapshot(activations=24, rng=1)
        _, b = _batched_snapshot(activations=40, rng=2)
        _, c = _batched_snapshot(activations=16, rng=3)
        assert merged(a, b) == merged(b, a)

        left = merged(merged(a, b), c)
        right = merged(a, merged(b, c))
        l_energy = left["totals"].pop("radio.energy_uj")
        r_energy = right["totals"].pop("radio.energy_uj")
        assert l_energy == pytest.approx(r_energy, rel=1e-12)
        assert left == right
        assert merged(a)["totals"] == a["totals"]

    def test_compiled_runs_fold_into_ambient_registry(self):
        """Nested-scope folding works for a batched run."""
        program = compile_source(BATCHED_PROGRAM_SOURCE)
        factory = lambda g: SensorSuite({"a": UniformSensor()}, rng=g)
        outer = HardwareCounters()
        with counters_active(outer):
            inner = HardwareCounters()
            with counters_active(inner):
                run_program_batched(
                    program,
                    MICAZ_LIKE,
                    factory,
                    activations=24,
                    batch_size=8,
                    rng=4,
                )
            inner_snap = inner.snapshot()
        assert outer.snapshot() == inner_snap
