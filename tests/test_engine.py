"""Tests for the parallel experiment engine, the config fingerprint, seed
streams, and the batched simulation driver.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.common import ExperimentConfig
from repro.experiments.engine import ExperimentOutcome, run_experiments
from repro.mote import TELOSB_LIKE
from repro.obs.manifest import build_manifest
from repro.sim import run_program_batched, split_activations
from repro.util.rng import derive_rng, derive_seed_sequence, spawn_seed_sequences
from repro.workloads.inputs import build_sensors
from repro.workloads.registry import workload_by_name

QUICK = ExperimentConfig(quick=True, seed=2015, activations=600)
# Small deterministic slice of the suite: t1 is static, f7 is stochastic.
IDS = ["t1", "f7"]


def renders(outcomes: list[ExperimentOutcome]) -> list[str]:
    return [o.result.render() for o in outcomes]


class TestSeedStreams:
    def test_derive_is_stable_and_label_sensitive(self):
        a = derive_rng(2015, "f4", "sense", 3).integers(0, 2**31, 8)
        b = derive_rng(2015, "f4", "sense", 3).integers(0, 2**31, 8)
        c = derive_rng(2015, "f4", "surge", 3).integers(0, 2**31, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_seed_sequence(-1, "x")
        with pytest.raises(ValueError):
            derive_seed_sequence(1, -3)

    def test_spawned_sequences_match_spawned_rngs(self):
        seqs = spawn_seed_sequences(7, 4)
        draws = [np.random.default_rng(s).random(4) for s in seqs]
        again = [np.random.default_rng(s).random(4) for s in spawn_seed_sequences(7, 4)]
        for x, y in zip(draws, again):
            assert np.array_equal(x, y)


class TestBatchedSimulation:
    def test_split_activations_partitions_exactly(self):
        assert split_activations(10, 4) == [4, 4, 2]
        assert split_activations(8, 4) == [4, 4]
        assert split_activations(0, 4) == []
        with pytest.raises(ValueError):
            split_activations(10, 0)

    def test_batches_share_one_cycle_axis(self):
        spec = workload_by_name("blink")
        run = run_program_batched(
            spec.program(),
            QUICK.platform,
            lambda g: build_sensors(dict(spec.channels), rng=g),
            activations=10,
            batch_size=5,
            rng=1,
        )
        assert run.activations == 10
        # One record per activation at depth 0, each starting where the
        # previous one ended, across the batch boundary too.
        tops = [r for r in run.records if r.depth == 0]
        assert len(tops) == 10
        for before, after in zip(tops, tops[1:]):
            assert after.entry_cycle == before.exit_cycle
        assert tops[-1].exit_cycle == run.total_cycles


class TestEngineDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_render_identical_to_serial(self, jobs):
        serial = run_experiments(IDS, QUICK, jobs=1)
        parallel = run_experiments(IDS, QUICK, jobs=jobs)
        assert renders(serial) == renders(parallel)

    def test_single_experiment_unit_fanout_identical(self):
        serial = run_experiments(["f7"], QUICK, jobs=1)
        fanned = run_experiments(["f7"], QUICK, jobs=2)
        assert renders(serial) == renders(fanned)
        assert serial[0].result.series == fanned[0].result.series

    def test_streaming_trajectory_identical_across_jobs(self):
        # F9's trajectory is a pure function of the shard sequence (EM uses
        # no RNG; merge replays shards in request+index order), so fanning
        # its workload units over processes must not move a byte.
        serial = run_experiments(["f9"], QUICK, jobs=1)
        fanned = run_experiments(["f9"], QUICK, jobs=2)
        assert renders(serial) == renders(fanned)
        assert serial[0].result.series == fanned[0].result.series

    def test_outcomes_come_back_in_request_order(self):
        outcomes = run_experiments(["f7", "t1"], QUICK, jobs=2)
        assert [o.experiment_id for o in outcomes] == ["f7", "t1"]

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiments(["zz"], QUICK)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_experiments(IDS, QUICK, jobs=0)


class TestResultCache:
    """The config fingerprint, once the result cache's key, now names each
    experiment in the run manifest."""

    def test_fingerprint_covers_every_config_field(self):
        def fingerprint(experiment_id, config):
            manifest = build_manifest(config, [experiment_id])
            return manifest["experiments"][experiment_id]["fingerprint"]

        base = fingerprint("t1", QUICK)
        for change in (
            {"platform": TELOSB_LIKE},
            {"seed": 1},
            {"activations": 50},
            {"quick": False},
            {"scenario": "bursty"},
        ):
            assert fingerprint("t1", dataclasses.replace(QUICK, **change)) != base, change
        assert fingerprint("t2", QUICK) != base


class TestFailureCollection:
    def test_one_failure_does_not_abort_the_rest(self, monkeypatch):
        import repro.experiments as exp_pkg

        def boom(config):
            raise ExperimentError("injected failure")

        patched = dict(exp_pkg.ALL_EXPERIMENTS)
        patched["t1"] = boom
        monkeypatch.setattr(exp_pkg, "ALL_EXPERIMENTS", patched)
        outcomes = run_experiments(["t1", "f7"], QUICK)
        assert not outcomes[0].ok
        assert "injected failure" in outcomes[0].error
        assert outcomes[1].ok


class TestProgressEvents:
    def test_events_cover_every_experiment(self):
        events = []
        run_experiments(IDS, QUICK, progress=events.append)
        done = [e for e in events if e.kind == "done"]
        assert {e.experiment_id for e in done} == set(IDS)
        assert done[-1].completed == len(IDS)
