"""Record every EM fit at the benchmark's size, and compare two trees' records.

:mod:`tests.family_identity`'s drivers run serve-ingest's stream replay and
the hybrid estimates at each seed.  This script records, for every
:meth:`~repro.core.EMEstimator.fit` they make, the procedure, the start
``theta0``, the iteration count, the converged flag, and θ̂, the arm counts
and the log-likelihood as hex floats, so two records agree only when every
fit agrees bit for bit::

    PYTHONPATH=src python -m tests.em_identity --record em.json [--seeds 2015 2016]
    PYTHONPATH=src python -m tests.em_identity --compare em.json

``--compare`` reruns the fits at the record's seeds and exits 1 naming
every fit that differs from the record (0 when none does).  A record
compares only with runs on the host that wrote it: numpy's vectorized
kernels may round differently on another CPU.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.em import EMEstimator
from tests.family_identity import all_runs

FIELDS = ("procedure", "start", "iterations", "converged", "theta", "arm_counts", "log_likelihood")


def _hex(values):
    if values is None:
        return None
    return [v.hex() for v in np.asarray(values, dtype=float).ravel().tolist()]


@contextmanager
def recorded_fits():
    """Collect one record per :meth:`EMEstimator.fit` inside the block."""
    fits = []
    fit = EMEstimator.fit

    def recording(self, durations, theta0=None):
        result = fit(self, durations, theta0)
        fits.append(
            {
                "procedure": self.model.procedure.name,
                "start": _hex(theta0),
                "iterations": result.iterations,
                "converged": result.converged,
                "theta": _hex(result.theta),
                "arm_counts": _hex(result.arm_counts),
                "log_likelihood": float(result.log_likelihood).hex(),
            }
        )
        return result

    EMEstimator.fit = recording
    try:
        yield fits
    finally:
        EMEstimator.fit = fit


def record(seeds) -> dict:
    """Every fit of the serve replay and the hybrid estimates at ``seeds``."""
    runs = all_runs(seeds, recorded_fits)
    return {"seeds": list(seeds), "runs": [{"run": label, "fits": fits} for label, fits in runs]}


def differences(before: dict, after: dict) -> list[str]:
    """One line per fit (or run) in which ``after`` differs from ``before``."""
    found = []
    runs_after = {run["run"]: run["fits"] for run in after["runs"]}
    for run in before["runs"]:
        label, fits = run["run"], run["fits"]
        now = runs_after.get(label)
        if now is None:
            found.append(f"{label}: not run")
            continue
        if len(now) != len(fits):
            found.append(f"{label}: {len(fits)} fits recorded, {len(now)} now")
        for index, (old, new) in enumerate(zip(fits, now)):
            fields = [name for name in FIELDS if old[name] != new[name]]
            if fields:
                found.append(
                    f"{label} fit {index} ({old['procedure']}): {', '.join(fields)} differ"
                )
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--record", type=Path, metavar="PATH")
    action.add_argument("--compare", type=Path, metavar="PATH")
    parser.add_argument("--seeds", type=int, nargs="+", default=[2015, 2016])
    args = parser.parse_args(argv)
    if args.record is not None:
        recorded = record(args.seeds)
        args.record.write_text(json.dumps(recorded, indent=1) + "\n")
        n_fits = sum(len(run["fits"]) for run in recorded["runs"])
        print(f"recorded {n_fits} fits to {args.record}")
        return 0
    try:
        before = json.loads(args.compare.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.compare}: {exc}", file=sys.stderr)
        return 2
    found = differences(before, record(before["seeds"]))
    for line in found:
        print(line)
    if found:
        return 1
    n_fits = sum(len(run["fits"]) for run in before["runs"])
    print(f"all {n_fits} fits identical to {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
