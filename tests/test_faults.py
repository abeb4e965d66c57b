"""The fault-injection layer: determinism, strict no-op, and fault semantics.

The contracts under test are the ones the F8 experiment and the robust
estimators lean on (see ``repro.faults.model``'s module docstring):

* a disabled model (or no injector at all) is a *strict no-op* — every
  simulation output is bit-identical to the fault-free path;
* fault decisions are pure functions of the named seed stream, never of
  scheduling — serial and pooled batched runs agree byte for byte;
* each fault kind does what the model says: drops suppress delivery but
  still cost energy, reboots truncate records mid-flight, dropouts return
  rail values, glitches/corruption only edit or remove timing samples.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.errors import FaultError
from repro.faults import FAULT_FREE, FaultInjector, FaultModel, collect_timing
from repro.mote import MICAZ_LIKE
from repro.profiling import TimingProfiler
from repro.sim import run_program, run_program_batched
from repro.util.rng import spawn_seed_sequences
from repro.workloads.inputs import build_sensors
from repro.workloads.registry import workload_by_name
from tests.sim_oracle import merge_batches

ALL_KINDS = FaultModel(
    radio_loss=0.3,
    radio_corrupt=0.2,
    sensor_dropout=0.2,
    timer_glitch=0.2,
    reboot=0.15,
)


def injector(model: FaultModel, *path) -> FaultInjector:
    return FaultInjector.derived(model, 2015, *path)


def sensor_factory(spec):
    """A picklable batch sensor factory, the driver's expected shape."""
    return partial(build_sensors, dict(spec.channels), "default")


def run_sense(faults=None, activations=150, sensor_seed=7):
    spec = workload_by_name("sense")
    sensors = spec.sensors(rng=sensor_seed)
    return run_program(
        spec.program(), MICAZ_LIKE, sensors, activations=activations, faults=faults
    )


class TestFaultModel:
    def test_rates_validated(self):
        with pytest.raises(FaultError):
            FaultModel(radio_loss=1.5)
        with pytest.raises(FaultError):
            FaultModel(sensor_dropout=-0.1)
        with pytest.raises(FaultError):
            FaultModel(radio_loss=0.7, radio_corrupt=0.7)

    def test_enabled_reflects_any_positive_rate(self):
        assert not FAULT_FREE.enabled
        assert FaultModel(reboot=0.01).enabled

    def test_scaled_preserves_mixture_and_caps(self):
        half = ALL_KINDS.scaled(0.5)
        assert half.radio_loss == pytest.approx(0.15)
        assert half.reboot == pytest.approx(0.075)
        assert ALL_KINDS.scaled(0.0) == FaultModel()
        capped = ALL_KINDS.scaled(10.0)
        assert capped.sensor_dropout == 1.0
        # The joint radio budget survives any severity, with the loss:corrupt
        # ratio preserved (0.3:0.2 here).
        assert capped.radio_loss + capped.radio_corrupt <= 1.0 + 1e-12
        assert capped.radio_loss == pytest.approx(0.6)
        assert capped.radio_corrupt == pytest.approx(0.4)
        with pytest.raises(FaultError):
            ALL_KINDS.scaled(-1.0)


class TestInjectorDeterminism:
    def test_same_path_same_decisions(self):
        a = injector(ALL_KINDS, "unit", 3)
        b = injector(ALL_KINDS, "unit", 3)
        assert [a.radio_outcome() for _ in range(64)] == [
            b.radio_outcome() for _ in range(64)
        ]
        assert [a.record_outcome() for _ in range(64)] == [
            b.record_outcome() for _ in range(64)
        ]

    def test_different_paths_diverge(self):
        a = injector(ALL_KINDS, "unit", 3)
        b = injector(ALL_KINDS, "unit", 4)
        assert [a.radio_outcome() for _ in range(64)] != [
            b.radio_outcome() for _ in range(64)
        ]

    def test_streams_are_isolated_per_kind(self):
        # Consuming heavily from the radio stream must not shift the sensor,
        # reboot, or timing streams.
        quiet = injector(ALL_KINDS, "iso")
        noisy = injector(ALL_KINDS, "iso")
        for _ in range(500):
            noisy.radio_outcome()
        for _ in range(64):
            assert quiet.sensor_faulted() == noisy.sensor_faulted()
            assert quiet.reboot_during_activation() == noisy.reboot_during_activation()
            assert quiet.record_outcome() == noisy.record_outcome()

    def test_zero_rate_kinds_draw_nothing(self):
        # With every rate at zero the injector must answer without touching
        # its generators, so interleaving queries cannot change later draws.
        idle = injector(FAULT_FREE, "noop")
        for _ in range(100):
            assert idle.radio_outcome() == "ok"
            assert not idle.sensor_faulted()
            assert not idle.reboot_during_activation()
            assert idle.record_outcome() == "ok"
        assert not idle.counts
        # The untouched generators still agree with a fresh injector's.
        fresh = injector(ALL_KINDS, "noop")
        used = injector(ALL_KINDS, "noop")
        probe = injector(FAULT_FREE, "noop")
        for _ in range(100):
            probe.radio_outcome()  # zero-rate: must not consume
        assert [used.radio_outcome() for _ in range(32)] == [
            fresh.radio_outcome() for _ in range(32)
        ]


class TestStrictNoOp:
    def test_disabled_injector_matches_no_injector(self):
        baseline = run_sense(faults=None)
        shadowed = run_sense(faults=injector(FAULT_FREE, "noop-run"))
        assert shadowed == baseline

    def test_batched_disabled_model_matches_none(self):
        spec = workload_by_name("sense")
        kwargs = dict(
            activations=60,
            batch_size=16,
            rng=11,
        )
        factory = sensor_factory(spec)
        a = run_program_batched(
            spec.program(), MICAZ_LIKE, factory, fault_model=None, **kwargs
        )
        b = run_program_batched(
            spec.program(), MICAZ_LIKE, factory, fault_model=FAULT_FREE, **kwargs
        )
        assert a == b

    def test_enabling_faults_does_not_shift_sensor_streams(self):
        # The injector draws from a spawned child of the batch seed, so the
        # activation structure (which is driven by sensor values alone, for a
        # reboot-free model) is unchanged: same ground-truth counters.
        spec = workload_by_name("surge")
        kwargs = dict(activations=60, batch_size=16, rng=11)
        factory = sensor_factory(spec)
        clean = run_program_batched(
            spec.program(), MICAZ_LIKE, factory, fault_model=None, **kwargs
        )
        lossy = run_program_batched(
            spec.program(),
            MICAZ_LIKE,
            factory,
            fault_model=FaultModel(radio_loss=0.9),
            **kwargs,
        )
        assert lossy.counters == clean.counters
        assert lossy.total_cycles == clean.total_cycles
        assert lossy.radio_packets < clean.radio_packets

    def test_collect_timing_matches_profiler_when_fault_free(self):
        result = run_sense()
        profiler = TimingProfiler(MICAZ_LIKE, rng=99)
        expected = profiler.collect(result.records)
        for faults in (None, injector(FAULT_FREE, "collect")):
            dataset, stats = collect_timing(
                MICAZ_LIKE, result.records, faults=faults, rng=99
            )
            assert stats.dropped == stats.corrupted == stats.glitched == 0
            assert stats.delivered == stats.measured == len(result.records)
            assert stats.delivered_fraction == 1.0
            assert set(dataset.samples) == set(expected.samples)
            for name in expected.samples:
                np.testing.assert_array_equal(
                    dataset.durations(name), expected.durations(name)
                )


class TestFaultSemantics:
    def test_radio_loss_suppresses_delivery_but_not_energy(self):
        clean = run_sense()
        lossy = run_sense(faults=injector(FaultModel(radio_loss=1.0), "loss"))
        assert lossy.radio_packets == 0
        assert clean.radio_packets > 0
        # Same execution, same attempts: the lost packets still radiate.
        assert lossy.counters == clean.counters
        assert lossy.energy_mj == clean.energy_mj

    def test_radio_corruption_keeps_the_packet_count(self):
        faults = injector(FaultModel(radio_corrupt=1.0), "corrupt")
        clean = run_sense()
        garbled = run_sense(faults=faults)
        assert garbled.radio_packets == clean.radio_packets
        assert faults.counts["radio_corrupt"] == clean.radio_packets

    def test_corrupt_payload_stays_in_signed_16_bit(self):
        faults = injector(ALL_KINDS, "payload")
        for value in (0, 1, -1, 512, 32767, -32768):
            for _ in range(20):
                garbled = faults.corrupt_payload(value)
                assert -(1 << 15) <= garbled < (1 << 15)
                assert garbled != value  # at least one bit always flips

    def test_certain_reboot_truncates_every_record(self):
        clean = run_sense()
        rebooting = run_sense(faults=injector(FaultModel(reboot=1.0), "reboot"))
        assert rebooting.records == []
        # The activations still ran — the work is real, only the uploadable
        # records are gone.
        assert rebooting.total_cycles > 0
        assert rebooting.activations == clean.activations
        assert sum(rebooting.counters.block_visits.values()) > 0

    def test_sensor_dropout_returns_rail_values(self):
        faults = injector(FaultModel(sensor_dropout=1.0), "dropout")
        result = run_sense(faults=faults)
        assert faults.counts["sensor_dropout"] == result.counters.sense_reads
        rails = {faults.stuck_reading() for _ in range(64)}
        assert rails == {0, 1023}

    def test_collect_timing_fates_partition_the_records(self):
        result = run_sense(activations=300)
        faults = injector(ALL_KINDS, "uplink")
        dataset, stats = collect_timing(MICAZ_LIKE, result.records, faults=faults, rng=5)
        assert stats.measured == len(result.records)
        assert stats.delivered == stats.measured - stats.dropped
        assert stats.dropped > 0 and stats.corrupted > 0 and stats.glitched > 0
        total_kept = sum(len(dataset.durations(n)) for n in dataset.samples)
        assert total_kept == stats.delivered
        assert 0.0 < stats.delivered_fraction < 1.0


class TestBatchedFaultDeterminism:
    def test_batched_faults_are_seed_deterministic(self):
        spec = workload_by_name("sense")
        runs = [
            run_program_batched(
                spec.program(),
                MICAZ_LIKE,
                sensor_factory(spec),
                activations=40,
                batch_size=8,
                rng=2015,
                fault_model=ALL_KINDS,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_manual_batching_reproduces_the_driver(self):
        # The batched driver, which reboots one mote per batch, equals
        # per-batch run_program on fresh motes over pre-spawned streams,
        # joined in order; faults included.
        spec = workload_by_name("sense")
        program = spec.program()
        sizes = [8, 8, 4]
        seqs = spawn_seed_sequences(33, len(sizes))
        factory = sensor_factory(spec)
        manual = []
        for seq, size in zip(seqs, sizes):
            sensors = factory(np.random.default_rng(seq))
            faults = FaultInjector(ALL_KINDS, seq.spawn(1)[0])
            manual.append(
                run_program(program, MICAZ_LIKE, sensors, size, faults=faults)
            )
        merged = merge_batches(manual, MICAZ_LIKE)
        driver = run_program_batched(
            program,
            MICAZ_LIKE,
            factory,
            activations=20,
            batch_size=8,
            rng=33,
            fault_model=ALL_KINDS,
        )
        assert driver == merged
