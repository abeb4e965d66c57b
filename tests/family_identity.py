"""Hold every path family EM enumerates to the oracle at the benchmark's size.

The oracle tests enumerate generated models and the workloads' procedures
at a few reference vectors.  EM enumerates at its own iterates, so this
script records every family :class:`~repro.core.EMEstimator` enumerates
while

* a hybrid :class:`~repro.core.CodeTomography` estimate runs on each
  registered workload: one profiled mote of 3,000 activations, its inputs
  drawn from the seed and its timer phases from ``seed + 1``, as
  pipebench's loop runs it (at seed 2015, exactly that loop's estimates);
* one :class:`~repro.core.OnlineEstimator` per tenant replays
  serve-ingest's shard stream (the default fleet at 50 motes and 2 samples
  per procedure), absorbed in that service's batches of 64 shards;

and holds each to :func:`tests.estimation_oracle.oracle_enumerate_paths`
at the same reference theta with
:func:`~tests.estimation_oracle.assert_same_family`: rows grouped by arm
counts, with path_enum's one rule for a ``max_paths`` cut inside a tie.
It exits 1 naming the procedure and reference theta of every mismatch (0
when there is none)::

    PYTHONPATH=src python -m tests.family_identity [--seeds 2015 2016]
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

import repro.core.em as em_module
from repro.core import CodeTomography, EstimationOptions
from repro.core.online import OnlineEstimator
from repro.errors import EstimationError
from repro.mote import MICAZ_LIKE
from repro.profiling import TimingProfiler
from repro.serve.loadgen import build_uploads, default_fleet
from repro.sim import run_program
from repro.workloads.registry import all_workloads, workload_by_name
from tests.estimation_oracle import assert_same_family, oracle_enumerate_paths

ACTIVATIONS = 3000
SERVE_MOTES = 50
SERVE_SAMPLES_PER_PROC = 2
SERVE_BATCH = 64


@contextmanager
def recorded_enumerations():
    """Collect ``(model, reference theta, family)`` for every family EM
    enumerates inside the block."""
    calls = []
    enumerate_paths = em_module.enumerate_paths

    def recording(model, reference_theta=None, **limits):
        assert not limits, "EM enumerates at the default limits"
        family = enumerate_paths(model, reference_theta)
        calls.append((model, np.array(reference_theta, dtype=float), family))
        return family

    em_module.enumerate_paths = recording
    try:
        yield calls
    finally:
        em_module.enumerate_paths = enumerate_paths


def differences(label: str, calls: list) -> list[str]:
    """One line per recorded family the oracle does not reproduce."""
    found = []
    for model, theta, family in calls:
        try:
            assert_same_family(family, oracle_enumerate_paths(model, theta))
        except AssertionError as exc:
            reason = " ".join(str(exc).split()) or "assertion failed"
            found.append(
                f"{label} {model.procedure.name} at theta={theta.tolist()}: {reason}"
            )
    return found


def loop_estimates(seed: int) -> tuple[int, list[str]]:
    """Families checked and mismatches over the six hybrid estimates."""
    checked, found = 0, []
    for spec in all_workloads():
        program = spec.program()
        run = run_program(
            program, MICAZ_LIKE, spec.sensors(rng=seed), activations=ACTIVATIONS
        )
        dataset = TimingProfiler(MICAZ_LIKE, rng=seed + 1).collect(run.records)
        options = EstimationOptions(method="hybrid", seed=seed)
        with recorded_enumerations() as calls:
            try:
                CodeTomography(program, MICAZ_LIKE).estimate(dataset, options)
            except EstimationError:
                pass  # the families enumerated before the failure still count
        checked += len(calls)
        found += differences(f"seed {seed} {spec.name}", calls)
    return checked, found


def serve_replay() -> tuple[int, list[str]]:
    """Families checked and mismatches over the serve-ingest stream replay."""
    fleet = default_fleet(n_motes=SERVE_MOTES, samples_per_proc=SERVE_SAMPLES_PER_PROC)
    streams: dict = {}
    for upload in build_uploads(fleet):
        streams.setdefault(upload.tenant, []).append(upload.samples)
    checked, found = 0, []
    for spec in fleet.tenants:
        program = workload_by_name(spec.workload).program()
        estimator = OnlineEstimator(program, fleet.platform, options=spec.options())
        stream = streams[spec.tenant]
        with recorded_enumerations() as calls:
            for start in range(0, len(stream), SERVE_BATCH):
                estimator.absorb_batch(stream[start : start + SERVE_BATCH])
        checked += len(calls)
        found += differences(f"serve {spec.tenant}", calls)
    return checked, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[2015, 2016])
    args = parser.parse_args(argv)
    checked, found = serve_replay()
    for seed in args.seeds:
        seed_checked, seed_found = loop_estimates(seed)
        checked += seed_checked
        found += seed_found
    for line in found:
        print(line)
    if found:
        return 1
    seeds = " ".join(map(str, args.seeds))
    print(f"all {checked} families match the oracle (serve replay; seeds {seeds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
