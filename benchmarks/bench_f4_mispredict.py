"""F4 — regenerate the misprediction-rate-by-placement figure.

The evaluation runs batched on the compiled interpreter, the simulator's
one engine; ``tests/test_hw_counters.py`` holds its counters bit-identical
to the oracle interpreter's and across worker counts.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import fig_f4_mispredict


def test_f4_mispredict_by_placement(benchmark, experiment_config, save_result):
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
