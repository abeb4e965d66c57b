"""F4 — regenerate the misprediction-rate-by-placement figure.

Quick mode (``REPRO_BENCH_QUICK=1``, as CI's vectorized-differential job
runs it) parametrizes the run over both execution engines via
:data:`~repro.sim.ENGINE_ENV_VAR`, so each engine passes the figure's shape
checks on its own; ``tests/test_hw_counters.py`` holds the two engines'
counters bit-identical.  The full-size golden run keeps the driver's own
``auto`` dispatch, exactly what a user gets.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments import fig_f4_mispredict
from repro.sim import ENGINE_ENV_VAR

_QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
ENGINES = ("vectorized", "scalar") if _QUICK else ("auto",)


@pytest.mark.parametrize("engine", ENGINES)
def test_f4_mispredict_by_placement(
    benchmark, experiment_config, save_result, monkeypatch, engine
):
    if engine != "auto":
        monkeypatch.setenv(ENGINE_ENV_VAR, engine)
    result = benchmark.pedantic(
        fig_f4_mispredict.run, args=(experiment_config,), rounds=1, iterations=1
    )
    save_result(result)
    series = result.series
    rows = list(
        zip(
            series["workload"],
            series["predictor"],
            series["strategy"],
            series["mispredict_rate"],
        )
    )
    by_key = {(w, p, s): r for w, p, s, r in rows}
    pairs = sorted({(w, p) for w, p, _, _ in rows})
    # Paper shape 1: estimated profile recovers (nearly) the oracle profile's
    # placement quality on every workload/predictor pair.
    gaps = [by_key[(w, p, "tomography")] - by_key[(w, p, "oracle")] for w, p in pairs]
    assert np.mean(gaps) < 0.03
    assert max(gaps) < 0.15
    # Paper shape 2: profile-guided placement beats source order decisively
    # on aggregate.
    tomo = np.mean([by_key[(w, p, "tomography")] for w, p in pairs])
    source = np.mean([by_key[(w, p, "source-order")] for w, p in pairs])
    assert tomo < 0.6 * source
