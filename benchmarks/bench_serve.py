"""Ingestion-service throughput gate (:mod:`repro.serve`).

The serving tentpole's headline claim: a single-process
:class:`~repro.serve.service.IngestionService` sustains at least
:data:`MIN_SHARDS_PER_S` timing-shard uploads per second — submit, budget
check, micro-batched EM absorption and end-of-stream drain included — while
keeping p99 ingest latency bounded.  Uploads are pre-generated (workload
simulation is the load *generator's* cost, not the service's), so the
measured window is pure ingestion.

The run also asserts the service's core invariant en passant: every shard
is accepted (no budget, backlog ample) and every tenant's estimate reflects
exactly the samples sent.  The rendered summary goes to
``benchmarks/results/serve.txt``.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.serve.loadgen import build_uploads, default_fleet, run_fleet
from repro.serve.service import ServiceConfig

#: The gate: sustained single-process ingest, end to end.
MIN_SHARDS_PER_S = 1000.0

#: p99 submit→absorbed latency must stay under this (generous: the EM refit
#: for a full micro-batch runs inline on the event loop).
MAX_P99_MS = 500.0

RESULTS_DIR = Path(__file__).parent / "results"


def _fleet(quick: bool):
    # 2 tenants x 250 motes x 4 shards = 2000 shards (400 in quick mode) —
    # enough rounds that the refit cost of late batches (EM over all
    # accumulated samples) is in the measured window, i.e. "sustained".
    return default_fleet(
        n_tenants=2,
        n_motes=50 if quick else 250,
        shards_per_mote=4,
        samples_per_proc=2,
        seed=2015,
    )


def test_serve_sustains_ingest_rate(benchmark, experiment_config):
    quick = experiment_config.quick
    fleet = _fleet(quick)
    config = ServiceConfig(n_workers=2, max_batch=64)
    build_uploads(fleet)  # warm the workload pools outside the timed run

    report = benchmark.pedantic(
        lambda: asyncio.run(run_fleet(fleet, config)), rounds=1, iterations=1
    )

    assert report.shards_accepted == report.shards_sent, (
        f"unexpected backpressure: {report.shards_deferred} deferred of "
        f"{report.shards_sent}"
    )
    for estimate in report.estimates.values():
        assert estimate.pending == 0, "drain left shards unabsorbed"
        assert estimate.total_samples > 0

    required = MIN_SHARDS_PER_S * (0.25 if quick else 1.0)
    assert report.shards_per_s >= required, (
        f"ingest {report.shards_per_s:.0f} shards/s over {report.wall_s:.2f}s "
        f"(need >= {required:.0f})"
    )
    p99 = report.latency["p99_ms"]
    assert p99 <= MAX_P99_MS, f"p99 ingest latency {p99:.1f}ms > {MAX_P99_MS}ms"

    out_dir = RESULTS_DIR / "quick" if quick else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "serve.txt").write_text(
        json.dumps(
            {
                "shards_sent": report.shards_sent,
                "shards_per_s": round(report.shards_per_s, 1),
                "wall_s": round(report.wall_s, 4),
                "latency_ms": {k: round(v, 2) for k, v in report.latency.items()},
                "totals": report.stats["totals"],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
