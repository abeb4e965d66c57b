"""The run manifest: enough identity to re-run (or distrust) an artifact.

A trace or metrics file divorced from the run that produced it is noise; the
manifest binds the artifact to the exact configuration — config fingerprint
per experiment, package version, the seed-derivation scheme, host facts —
plus per-experiment rollups (wall-clock, span counts) so a reader can triage
a run without loading the full span stream.

The manifest rides inside both artifacts: line one of a JSONL trace, the
``otherData`` object of a Chrome trace, and the ``manifest`` key of the
metrics file.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform as platform_mod
import sys
from typing import TYPE_CHECKING, Optional, Sequence

import repro

if TYPE_CHECKING:  # import cycle: engine imports obs for instrumentation
    from repro.experiments.engine import ExperimentOutcome

__all__ = ["MANIFEST_SCHEMA_VERSION", "SEED_SCHEME", "build_manifest", "host_facts"]

MANIFEST_SCHEMA_VERSION = 1

#: One-line description of how randomness fans out; a manifest reader should
#: not need to open repro.util.rng to know what "seed 2015" means.
SEED_SCHEME = (
    "numpy SeedSequence: positional spawn for batch streams, "
    "SHA-256-labelled spawn_key derivation for named streams (repro.util.rng)"
)


def _config_fingerprint(experiment_id: str, config) -> str:
    """SHA-256 content address of one (experiment, configuration) pair.

    Every field that can influence an experiment's output participates:
    the platform (its frozen-dataclass ``repr`` covers timer, predictor,
    cost model, energy, and memory parameters), activation count, seed,
    quick mode, and scenario — plus the package version.  Two artifacts
    whose fingerprints differ came from runs that were not configured
    alike.
    """
    payload = {
        "repro_version": getattr(repro, "__version__", "unknown"),
        "experiment_id": experiment_id,
        "platform": repr(config.platform),
        "activations": config.activations,
        "seed": config.seed,
        "quick": config.quick,
        "scenario": config.scenario,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def host_facts() -> dict:
    """The host identity block of a run manifest (plain JSON)."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform_mod.python_implementation(),
        "platform": platform_mod.platform(),
        "machine": platform_mod.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
    }


def build_manifest(
    config,
    experiment_ids: Sequence[str],
    outcomes: Optional[Sequence["ExperimentOutcome"]] = None,
) -> dict:
    """Assemble the manifest for one engine run.

    ``config`` is the run's :class:`~repro.experiments.common.ExperimentConfig`;
    ``outcomes`` (when the run has finished) contributes the per-experiment
    rollups.  Everything in the result is plain JSON.
    """
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "repro_version": getattr(repro, "__version__", "unknown"),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed_scheme": SEED_SCHEME,
        "config": {
            "platform": repr(config.platform),
            "activations": config.activations,
            "seed": config.seed,
            "quick": config.quick,
            "scenario": config.scenario,
        },
        "experiments": {
            exp_id: {"fingerprint": _config_fingerprint(exp_id, config)}
            for exp_id in experiment_ids
        },
        "host": host_facts(),
    }
    if outcomes is not None:
        for outcome in outcomes:
            entry = manifest["experiments"].setdefault(outcome.experiment_id, {})
            entry.update(
                {
                    "ok": outcome.ok,
                    "wall_seconds": outcome.seconds,
                    "spans": len(outcome.spans),
                    "error": outcome.error,
                }
            )
            hw = getattr(outcome, "hw_counters", None)
            if hw:
                # Rollup only — the full snapshot lives in the metrics
                # artifact; the manifest carries enough to triage.
                entry["hw_counter_events"] = sum(
                    v for v in hw.get("totals", {}).values() if isinstance(v, int)
                )
    return manifest
