"""Differential tests: the batched driver against a hand-rolled reference.

``run_program_batched`` promises that its result is a pure function of
``(program, platform, factory, activations, batch_size, rng)``.  These
tests pin that promise differentially: an independent reimplementation
(spawn the streams up front, run each batch on a fresh mote through plain
``run_program``, join the runs in index order with
:func:`tests.sim_oracle.merge_batches`) must agree *bit for bit* with the
driver, which reboots one mote per batch, for every workload in the
registry and across batch sizes spanning one-activation batches to a
single batch holding the whole run.

The zero-activation edge also lives here: no batches at all must still
produce a well-formed empty aggregate.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.faults import FaultModel
from repro.mote import MICAZ_LIKE
from repro.sim import run_program, run_program_batched, split_activations
from repro.util.rng import spawn_seed_sequences
from repro.workloads.inputs import build_sensors
from repro.workloads.registry import all_workloads, workload_by_name
from tests.sim_oracle import merge_batches

ACTIVATIONS = 20
BATCH_SIZES = (1, 7, 64)  # per-activation batches / ragged split / one batch
WORKLOAD_NAMES = [spec.name for spec in all_workloads()]


def factory_for(spec):
    return partial(build_sensors, dict(spec.channels), "default")


def reference_batched(program, factory, activations, batch_size, rng):
    """An independent re-derivation of the batched-driver contract."""
    sizes = split_activations(activations, batch_size)
    seqs = spawn_seed_sequences(rng, len(sizes))
    results = [
        run_program(
            program,
            MICAZ_LIKE,
            factory(np.random.default_rng(seq)),
            activations=size,
        )
        for seq, size in zip(seqs, sizes)
    ]
    return merge_batches(results, MICAZ_LIKE)


class TestBatchedMatchesReference:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_driver_equals_manual_spawn_and_merge(self, name, batch_size):
        spec = workload_by_name(name)
        factory = factory_for(spec)
        driver = run_program_batched(
            spec.program(),
            MICAZ_LIKE,
            factory,
            activations=ACTIVATIONS,
            batch_size=batch_size,
            rng=2015,
        )
        reference = reference_batched(
            spec.program(), factory, ACTIVATIONS, batch_size, rng=2015
        )
        assert driver == reference

    def test_batch_size_changes_the_samples_but_not_the_contract(self):
        # Different batch sizes legitimately produce different runs (each
        # batch has its own stream); the invariant is determinism *within*
        # a batch size, not equality across them.
        spec = workload_by_name("sense")
        factory = factory_for(spec)
        runs = {
            b: run_program_batched(
                spec.program(),
                MICAZ_LIKE,
                factory,
                activations=ACTIVATIONS,
                batch_size=b,
                rng=2015,
            )
            for b in (1, 7)
        }
        assert runs[1].activations == runs[7].activations == ACTIVATIONS
        assert runs[1] != runs[7]


class TestZeroActivations:
    def test_empty_batched_run_is_a_wellformed_aggregate(self):
        spec = workload_by_name("sense")
        result = run_program_batched(
            spec.program(),
            MICAZ_LIKE,
            factory_for(spec),
            activations=0,
            batch_size=16,
            rng=2015,
        )
        assert result.activations == 0
        assert result.total_cycles == 0
        assert result.records == []
        assert result.energy_mj == 0.0
        assert result.program_name == spec.program().name

    def test_empty_run_is_deterministic(self):
        spec = workload_by_name("blink")
        args = dict(
            program=spec.program(),
            platform=MICAZ_LIKE,
            sensor_factory=factory_for(spec),
            activations=0,
            batch_size=4,
            rng=9,
        )
        assert run_program_batched(**args) == run_program_batched(**args)

    def test_zero_activations_with_faults_still_works(self):
        spec = workload_by_name("sense")
        result = run_program_batched(
            spec.program(),
            MICAZ_LIKE,
            factory_for(spec),
            activations=0,
            batch_size=8,
            rng=1,
            fault_model=FaultModel(radio_loss=0.5, reboot=0.5),
        )
        assert result.activations == 0
        assert result.records == []
