"""Tests for the parallel experiment engine, result cache, seed streams,
and the batched simulation driver.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.common import ExperimentConfig
from repro.experiments.engine import (
    ExperimentOutcome,
    ResultCache,
    config_fingerprint,
    run_experiments,
)
from repro.sim import run_program_batched, split_activations
from repro.util.rng import derive_rng, derive_seed_sequence, spawn_seed_sequences
from repro.workloads.inputs import build_sensors
from repro.workloads.registry import workload_by_name

QUICK = ExperimentConfig(quick=True, seed=2015, activations=600)
# Small deterministic slice of the suite: t1 is static, f7 is stochastic.
IDS = ["t1", "f7"]


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


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
    def test_miss_then_hit_serves_identical_render(self, cache):
        cold = run_experiments(["t1"], QUICK, cache=cache)
        assert not cold[0].cached
        warm = run_experiments(["t1"], QUICK, cache=cache)
        assert warm[0].cached
        assert renders(cold) == renders(warm)

    def test_config_change_invalidates(self, cache):
        run_experiments(["t1"], QUICK, cache=cache)
        other = dataclasses.replace(QUICK, seed=QUICK.seed + 1)
        again = run_experiments(["t1"], other, cache=cache)
        assert not again[0].cached

    def test_fingerprint_covers_every_config_field(self):
        base = config_fingerprint("t1", QUICK)
        for change in (
            {"seed": 1},
            {"activations": 50},
            {"quick": False},
            {"scenario": "bursty"},
        ):
            assert config_fingerprint("t1", dataclasses.replace(QUICK, **change)) != base
        assert config_fingerprint("t2", QUICK) != base

    def test_corrupt_entry_is_a_miss(self, cache):
        run_experiments(["t1"], QUICK, cache=cache)
        path = cache.path_for("t1", QUICK)
        path.write_text("{not json")
        again = run_experiments(["t1"], QUICK, cache=cache)
        assert not again[0].cached
        assert again[0].ok
        # ...and the live run healed the entry.
        json.loads(path.read_text())

    def test_store_and_load_roundtrip(self, cache):
        outcome = run_experiments(["f7"], QUICK, cache=cache)[0]
        loaded = cache.load("f7", QUICK)
        assert loaded is not None
        assert loaded.render() == outcome.result.render()
        assert loaded.timings.keys() == outcome.result.timings.keys()


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

    def test_failures_are_not_cached(self, cache, monkeypatch):
        import repro.experiments as exp_pkg

        def boom(config):
            raise ExperimentError("injected failure")

        patched = dict(exp_pkg.ALL_EXPERIMENTS)
        patched["t1"] = boom
        monkeypatch.setattr(exp_pkg, "ALL_EXPERIMENTS", patched)
        run_experiments(["t1"], QUICK, cache=cache)
        assert cache.load("t1", QUICK) is None


class TestProgressEvents:
    def test_events_cover_every_experiment(self, cache):
        events = []
        run_experiments(IDS, QUICK, cache=cache, progress=events.append)
        done = [e for e in events if e.kind == "done"]
        assert {e.experiment_id for e in done} == set(IDS)
        assert done[-1].completed == len(IDS)
        # Second run: everything arrives as cache hits.
        events.clear()
        run_experiments(IDS, QUICK, cache=cache, progress=events.append)
        assert {e.kind for e in events} == {"cached"}
