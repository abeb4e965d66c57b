"""Fit generated problems with the moments fit and with its trust-region oracle.

    python -m tests.moments_fit_sweep [--problems 504] [--seed 0]

Problem ``i`` (seed ``seed + i``) draws a synthetic procedure with 1–4
branches (:func:`repro.workloads.synthetic.random_estimation_problem`),
measures 50–3,000 of its durations, drawn at the true θ, through a timer
of 1, 8, 32 or 225 cycles per tick with a uniform entry phase, and fits
them with ``moments_used`` 1, 2 or 3 twice: with
:func:`repro.core.fit_moments` and with
:func:`tests.estimation_oracle.oracle_fit_moments`, from the same start
points.  A fit is "worse" when its cost exceeds the oracle's by more than
1e-9 of it, "better" when it is below by more than that, and "same"
otherwise.  Every worse case is listed with its seed; the exit status is 1
when more than 1% of the fits are worse.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core import fit_moments
from repro.markov.sampling import sample_rewards
from repro.mote import MICAZ_LIKE
from repro.mote.timer import TimestampTimer
from repro.placement.layout import Layout
from repro.sim import ProcedureTimingModel
from repro.workloads.synthetic import random_estimation_problem
from tests.estimation_oracle import oracle_fit_moments

TICKS = (1, 8, 32, 225)
RELATIVE = 1e-9
WORSE_SHARE = 0.01


def problem(seed: int, index: int):
    """``(model, durations, timer, moments_used, description)`` of one case."""
    gen = np.random.default_rng(seed)
    n_branches = int(gen.integers(1, 5))
    loop_fraction = float(gen.choice((0.0, 0.4, 0.8)))
    proc, truth = random_estimation_problem(
        rng=gen, n_branches=n_branches, loop_fraction=loop_fraction
    )
    model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
    cycles_per_tick = TICKS[index % len(TICKS)]
    moments_used = 1 + (index // len(TICKS)) % 3
    count = int(gen.integers(50, 3001))
    exact = sample_rewards(model.chain(truth), count, rng=gen)
    start = gen.uniform(0.0, cycles_per_tick, count)
    ticks = np.floor((start + exact) / cycles_per_tick) - np.floor(start / cycles_per_tick)
    description = (
        f"branches={n_branches} loops={loop_fraction} cpt={cycles_per_tick} "
        f"moments_used={moments_used} samples={count}"
    )
    timer = TimestampTimer(cycles_per_tick=cycles_per_tick)
    return model, ticks * cycles_per_tick, timer, moments_used, description


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--problems", type=int, default=504)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    counts = {"same": 0, "better": 0, "worse": 0}
    worse = []
    spent = {"fit": 0.0, "oracle": 0.0}
    for index in range(args.problems):
        seed = args.seed + index
        model, durations, timer, moments_used, description = problem(seed, index)
        fits = {}
        for name, fit in (("fit", fit_moments), ("oracle", oracle_fit_moments)):
            began = time.perf_counter()
            fits[name] = fit(model, durations, timer=timer, moments_used=moments_used, rng=seed)
            spent[name] += time.perf_counter() - began
        cost, reference = fits["fit"].cost, fits["oracle"].cost
        margin = RELATIVE * abs(reference)
        if cost > reference + margin:
            counts["worse"] += 1
            worse.append(f"seed={seed} {description} cost={cost:.6g} oracle={reference:.6g}")
        elif cost < reference - margin:
            counts["better"] += 1
        else:
            counts["same"] += 1
    print(
        f"{args.problems} problems: {counts['same']} same, {counts['better']} better, "
        f"{counts['worse']} worse; fit {spent['fit']:.1f} s, oracle {spent['oracle']:.1f} s"
    )
    for line in worse:
        print(f"worse: {line}")
    return 1 if counts["worse"] > WORSE_SHARE * args.problems else 0


if __name__ == "__main__":
    sys.exit(main())
