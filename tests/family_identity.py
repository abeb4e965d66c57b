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

The two drivers, :func:`serve_runs` and :func:`hybrid_runs`, take the
recording context as an argument; :mod:`tests.em_identity` runs them to
record every EM fit instead.
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


def hybrid_runs(seed: int, recording) -> list[tuple[str, list]]:
    """``(label, recorded)`` per registered workload: its hybrid estimate at
    ``seed``, run inside ``recording()``, and what that block collected."""
    runs = []
    for spec in all_workloads():
        program = spec.program()
        run = run_program(
            program, MICAZ_LIKE, spec.sensors(rng=seed), activations=ACTIVATIONS
        )
        dataset = TimingProfiler(MICAZ_LIKE, rng=seed + 1).collect(run.records)
        options = EstimationOptions(method="hybrid", seed=seed)
        with recording() as recorded:
            try:
                CodeTomography(program, MICAZ_LIKE).estimate(dataset, options)
            except EstimationError:
                pass  # what ran before the failure still counts
        runs.append((f"seed {seed} {spec.name}", recorded))
    return runs


def serve_runs(recording) -> list[tuple[str, list]]:
    """``(label, recorded)`` per serve-ingest tenant: its shard stream
    replayed in batches, run inside ``recording()``."""
    fleet = default_fleet(n_motes=SERVE_MOTES, samples_per_proc=SERVE_SAMPLES_PER_PROC)
    streams: dict = {}
    for upload in build_uploads(fleet):
        streams.setdefault(upload.tenant, []).append(upload.samples)
    runs = []
    for spec in fleet.tenants:
        program = workload_by_name(spec.workload).program()
        estimator = OnlineEstimator(program, fleet.platform, options=spec.options())
        stream = streams[spec.tenant]
        with recording() as recorded:
            for start in range(0, len(stream), SERVE_BATCH):
                estimator.absorb_batch(stream[start : start + SERVE_BATCH])
        runs.append((f"serve {spec.tenant}", recorded))
    return runs


def all_runs(seeds, recording) -> list[tuple[str, list]]:
    """The serve replay, then the hybrid estimates at each seed."""
    runs = serve_runs(recording)
    for seed in seeds:
        runs += hybrid_runs(seed, recording)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[2015, 2016])
    args = parser.parse_args(argv)
    runs = all_runs(args.seeds, recorded_enumerations)
    checked = sum(len(calls) for _, calls in runs)
    found = [line for label, calls in runs for line in differences(label, calls)]
    for line in found:
        print(line)
    if found:
        return 1
    seeds = " ".join(map(str, args.seeds))
    print(f"all {checked} families match the oracle (serve replay; seeds {seeds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
