"""Hardware-counter telemetry contracts.

Three load-bearing promises from ``repro.obs.counters``:

* the snapshot algebra is a commutative monoid with a left-inverse diff
  (the engine's deterministic merge depends on it) — checked
  property-style with hypothesis;
* counters off (the default) is a strict no-op — no registry, no
  allocation, no effect on simulation results;
* counters on agree bit-for-bit with the simulator's ground truth and
  are schedule-independent (jobs=1 == jobs=4 for F4, F5 and F7).
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.experiments.common import ExperimentConfig
from repro.experiments.engine import run_experiments
from repro.lang import compile_source
from repro.mote import MICAZ_LIKE, SensorSuite, UniformSensor
from repro.obs import counters as hwc
from repro.obs.counters import (
    SNAPSHOT_SCHEMA,
    HardwareCounters,
    counters_active,
    diff_snapshots,
    empty_snapshot,
    merge_snapshots,
)
from repro.sim import ENGINE_ENV_VAR, run_program, run_program_batched

# --------------------------------------------------------------------------
# Snapshot algebra (hypothesis)
# --------------------------------------------------------------------------

_names = st.sampled_from(
    ["cycles.block", "cycles.jump", "branch.taken", "flash.fetches", "radio.tx_bytes"]
)
_fields = st.sampled_from(["invocations", "cycles", "branches", "mispredicts"])
# Zero-free positive counts: diff drops zero deltas, so the round-trip law
# diff(a, merge(a, b)) == b only holds for canonical (zero-free) b.
_counts = st.integers(min_value=1, max_value=10**9)


@st.composite
def snapshots(draw):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "totals": draw(st.dictionaries(_names, _counts, max_size=5)),
        "per_proc": draw(
            st.dictionaries(
                st.sampled_from(["main", "leaf", "isr"]),
                st.dictionaries(_fields, _counts, min_size=1, max_size=4),
                max_size=3,
            )
        ),
    }


class TestSnapshotAlgebra:
    @settings(max_examples=100)
    @given(a=snapshots(), b=snapshots())
    def test_merge_commutative(self, a, b):
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    @settings(max_examples=100)
    @given(a=snapshots(), b=snapshots(), c=snapshots())
    def test_merge_associative(self, a, b, c):
        assert merge_snapshots(merge_snapshots(a, b), c) == merge_snapshots(
            a, merge_snapshots(b, c)
        )

    @settings(max_examples=50)
    @given(a=snapshots())
    def test_empty_is_identity(self, a):
        assert merge_snapshots(a, empty_snapshot()) == merge_snapshots(
            empty_snapshot(), a
        )
        # identity up to canonical form: merging with empty changes nothing
        assert merge_snapshots(a, empty_snapshot())["totals"] == a["totals"]

    @settings(max_examples=100)
    @given(a=snapshots(), b=snapshots())
    def test_diff_inverts_merge(self, a, b):
        assert diff_snapshots(a, merge_snapshots(a, b)) == b

    def test_diff_rejects_backwards_counters(self):
        before = {"schema": SNAPSHOT_SCHEMA, "totals": {"cycles.block": 5}, "per_proc": {}}
        after = {"schema": SNAPSHOT_SCHEMA, "totals": {"cycles.block": 3}, "per_proc": {}}
        with pytest.raises(ObsError, match="went backwards"):
            diff_snapshots(before, after)

    def test_schema_mismatch_is_loud(self):
        bad = {"schema": "someone-else/9", "totals": {}, "per_proc": {}}
        with pytest.raises(ObsError, match="schema mismatch"):
            merge_snapshots(empty_snapshot(), bad)
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
        assert hwc.current_counters() is None

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
    def _with_counters(self, exp_id, jobs, engine=None, monkeypatch=None):
        if engine is not None:
            monkeypatch.setenv(ENGINE_ENV_VAR, engine)
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

    def test_f4_counters_bit_identical_across_engines(self, monkeypatch):
        """jobs=1 == jobs=4 == forced-scalar == forced-vectorized.

        The counter registers a fleet reports cannot depend on which engine
        stepped the motes any more than on how many workers ran the units.
        """
        serial_result, serial_snap = self._with_counters("f4", jobs=1)
        scalar_result, scalar_snap = self._with_counters(
            "f4", jobs=1, engine="scalar", monkeypatch=monkeypatch
        )
        vector_result, vector_snap = self._with_counters(
            "f4", jobs=4, engine="vectorized", monkeypatch=monkeypatch
        )
        assert serial_snap == scalar_snap == vector_snap
        assert (
            serial_result.render()
            == scalar_result.render()
            == vector_result.render()
        )


# --------------------------------------------------------------------------
# Vectorized engine: real snapshots obey the algebra, and match the oracle
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


def _batched_snapshot(engine, activations=40, rng=11):
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
            engine=engine,
        )
    return result, hw.snapshot()


class TestVectorizedPath:
    def test_vectorized_snapshot_equals_scalar_snapshot(self):
        scalar_result, scalar_snap = _batched_snapshot("scalar")
        vector_result, vector_snap = _batched_snapshot("vectorized")
        assert scalar_result == vector_result
        assert scalar_snap == vector_snap
        assert hwc.total_cycles(vector_snap) == vector_result.total_cycles

    def test_real_vectorized_snapshots_obey_the_monoid_laws(self):
        """The algebra holds on *emitted* snapshots, not just synthetic ones.

        Vectorized emission adds in cohort-sized strides (and floats for
        radio energy), so these runs exercise merge/diff on exactly the
        value shapes the engine produces.  Integer counters are exactly
        associative; the one float counter (``radio.energy_uj``) is
        associative only up to IEEE rounding, so it is compared
        approximately — the same caveat the scalar path carries.
        """
        _, a = _batched_snapshot("vectorized", activations=24, rng=1)
        _, b = _batched_snapshot("vectorized", activations=40, rng=2)
        _, c = _batched_snapshot("vectorized", activations=16, rng=3)
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        l_energy = left["totals"].pop("radio.energy_uj")
        r_energy = right["totals"].pop("radio.energy_uj")
        assert l_energy == pytest.approx(r_energy, rel=1e-12)
        assert left == right
        assert merge_snapshots(a, empty_snapshot())["totals"] == a["totals"]

    def test_diff_recovers_a_vectorized_run_from_an_aggregate(self):
        """Inverse law on real data: diff(a, merge(a, b)) == b."""
        _, a = _batched_snapshot("vectorized", activations=24, rng=5)
        _, b = _batched_snapshot("vectorized", activations=40, rng=6)
        assert diff_snapshots(a, merge_snapshots(a, b)) == b

    def test_vectorized_runs_fold_into_ambient_registry(self):
        """Nested-scope folding works when the inner scope ran vectorized."""
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
                    engine="vectorized",
                )
            inner_snap = inner.snapshot()
        assert outer.snapshot() == inner_snap
