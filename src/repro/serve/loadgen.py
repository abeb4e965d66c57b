"""Fleet driver: thousands of simulated motes against the ingestion service.

The load generator stands in for a deployed sensor fleet.  For each tenant
it runs the tenant's workload **once**
(:func:`~repro.workloads.profiled.profile_workload`, the run the
experiments start from too) to build a per-procedure *sample pool* — real
measured durations from the simulated mote — then deals shards out of that
pool to ``n_motes`` simulated motes.  :func:`tenant_truth` reads the same
run's ground truth: a bounded memo keyed on what determines the run hands
out its pool and truth as read-only arrays.  Every draw comes from a labelled
:func:`~repro.util.rng.derive_rng` stream keyed by
``(seed, "serve", deployment, version, mote, shard)``, so the generated
upload sequence is a pure function of the :class:`FleetSpec` — the same
fleet byte-for-byte on every run, at any service worker count.

Optionally each mote uplinks through a
:class:`~repro.faults.FaultInjector` (:func:`~repro.faults.faulty_samples`),
so the service can be load-tested under packet loss, corruption and timer
glitches too; :mod:`repro.faults` loads only for a fleet with an enabled
fault model.

:func:`run_fleet` pre-generates all uploads, then measures pure ingestion:
submit + micro-batched absorption + drain, reporting sustained shards/sec
and ingest-latency percentiles in a :class:`FleetReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.online import OnlineOptions
from repro.errors import ServeError
from repro.mote.platform import MICAZ_LIKE, Platform
from repro.profiling.budget import SampleBudget
from repro.serve.protocol import ShardUpload, TenantKey
from repro.serve.query import TenantEstimate
from repro.serve.service import IngestionService, ServiceConfig
from repro.util.rng import derive_rng, derive_seed_sequence
from repro.workloads.profiled import profile_workload
from repro.workloads.registry import all_workloads, workload_by_name

if TYPE_CHECKING:
    from repro.faults.model import FaultInjector, FaultModel

__all__ = [
    "TenantSpec",
    "FleetSpec",
    "FleetReport",
    "default_fleet",
    "tenant_pool",
    "tenant_truth",
    "build_uploads",
    "run_fleet",
]

#: Activations of one pool-generation run: the experiments' full size, or a
#: tenth of it for a quick fleet.
POOL_ACTIVATIONS = 3000

#: Pool-generation runs the memo keeps (their pools and ground truth).
POOL_MEMO_SIZE = 32


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's slice of the fleet.

    ``drift_at_shard`` injects a workload regime change: shard rounds at or
    beyond it deal from a second pool generated under ``drift_scenario``
    (sensor inputs shifted, branch probabilities moved) — the ground truth
    the health monitor's drift detectors are supposed to notice.  The
    default post-onset scenario is ``uniform`` — maximum-entropy inputs, a
    hard regime change; the sinusoidal ``drifting`` scenario averages out
    over a whole pool run and barely moves the pool's duration mix.
    """

    deployment_id: str
    workload: str
    program_version: str = "1.0"
    n_motes: int = 8
    shards_per_mote: int = 4
    samples_per_proc: int = 4
    epsilon: Optional[float] = 0.02
    budget: Optional[SampleBudget] = None
    faults: Optional[FaultModel] = None
    drift_at_shard: Optional[int] = None
    drift_scenario: str = "uniform"

    def __post_init__(self) -> None:
        if self.drift_at_shard is not None and self.drift_at_shard < 1:
            raise ServeError(
                f"drift_at_shard must be >= 1, got {self.drift_at_shard}"
            )

    @property
    def tenant(self) -> TenantKey:
        return TenantKey(self.deployment_id, self.program_version)

    def options(self) -> OnlineOptions:
        return OnlineOptions(epsilon=self.epsilon, budget=self.budget)


@dataclass(frozen=True)
class FleetSpec:
    """The whole simulated fleet: tenants plus shared generation knobs."""

    tenants: tuple[TenantSpec, ...]
    seed: int = 2015
    platform: Platform = MICAZ_LIKE
    scenario: str = "default"
    quick: bool = True  # pool generation only needs sample variety, not scale

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ServeError("a fleet needs at least one tenant")
        keys = [spec.tenant for spec in self.tenants]
        if len(set(keys)) != len(keys):
            raise ServeError("fleet tenants must have distinct (deployment, version)")


@dataclass(frozen=True)
class FleetReport:
    """What one fleet run produced, for the serve gates and reports."""

    shards_sent: int
    shards_accepted: int
    shards_deferred: int
    samples_sent: int
    wall_s: float
    shards_per_s: float
    latency: dict[str, float]
    stats: dict
    estimates: dict[str, TenantEstimate]

    def to_json(self) -> dict:
        return {
            "shards_sent": self.shards_sent,
            "shards_accepted": self.shards_accepted,
            "shards_deferred": self.shards_deferred,
            "samples_sent": self.samples_sent,
            "wall_s": self.wall_s,
            "shards_per_s": self.shards_per_s,
            "latency": dict(self.latency),
            "stats": self.stats,
            "estimates": {
                name: estimate.to_json() for name, estimate in self.estimates.items()
            },
        }


def default_fleet(
    n_tenants: int = 6,
    n_motes: int = 8,
    shards_per_mote: int = 4,
    samples_per_proc: int = 4,
    seed: int = 2015,
    budget: Optional[SampleBudget] = None,
    faults: Optional[FaultModel] = None,
    drift_at_shard: Optional[int] = None,
) -> FleetSpec:
    """A fleet cycling through the benchmark suite's six workloads.

    Tenant ``i`` deploys workload ``i mod 6`` as deployment ``site-<i>``;
    every knob not exposed here keeps its :class:`TenantSpec` default.
    ``drift_at_shard`` applies the regime change to every tenant.
    """
    if n_tenants < 1:
        raise ServeError(f"n_tenants must be >= 1, got {n_tenants}")
    names = [spec.name for spec in all_workloads()]
    tenants = tuple(
        TenantSpec(
            deployment_id=f"site-{i}",
            workload=names[i % len(names)],
            n_motes=n_motes,
            shards_per_mote=shards_per_mote,
            samples_per_proc=samples_per_proc,
            budget=budget,
            faults=faults,
            drift_at_shard=drift_at_shard,
        )
        for i in range(n_tenants)
    )
    return FleetSpec(tenants=tenants, seed=seed)


def _pool_seed(fleet: FleetSpec, spec: TenantSpec) -> int:
    """A stable integer seed for one tenant's pool-generation run."""
    seq = derive_seed_sequence(
        fleet.seed, "serve", "pool", spec.deployment_id, spec.program_version
    )
    return int(seq.generate_state(1, dtype=np.uint32)[0])


# One pool-generation run: its per-procedure duration pool and ground truth.
_PoolRun = tuple[dict[str, np.ndarray], dict[str, np.ndarray]]
_pool_memo: dict[tuple, _PoolRun] = {}


def _tenant_run(fleet: FleetSpec, spec: TenantSpec, scenario: str) -> _PoolRun:
    """One tenant's pool-generation run under ``scenario``, read-only.

    Memoized on what determines the run — workload, scenario, derived seed,
    activations and platform (by its ``repr``, which spells out every
    field) — so a tenant's pool and its truth cost one simulation; past
    :data:`POOL_MEMO_SIZE` runs the least recently used is dropped.
    """
    seed = _pool_seed(fleet, spec)
    activations = POOL_ACTIVATIONS // 10 if fleet.quick else POOL_ACTIVATIONS
    key = (spec.workload, scenario, seed, activations, repr(fleet.platform))
    run = _pool_memo.pop(key, None)
    if run is None:
        profiled = profile_workload(
            workload_by_name(spec.workload), fleet.platform, activations, seed, scenario
        )
        pool = {name: xs for name, xs in profiled.dataset.samples.items() if xs.size}
        truth = dict(profiled.truth)
        for xs in (*pool.values(), *truth.values()):
            xs.flags.writeable = False
        run = (pool, truth)
        if len(_pool_memo) >= POOL_MEMO_SIZE:
            del _pool_memo[next(iter(_pool_memo))]
    _pool_memo[key] = run
    return run


def tenant_pool(
    fleet: FleetSpec, spec: TenantSpec, scenario: Optional[str] = None
) -> dict[str, np.ndarray]:
    """One tenant's per-procedure duration pool (one workload run; the
    arrays are read-only)."""
    pool, _ = _tenant_run(fleet, spec, scenario or fleet.scenario)
    return dict(pool)


def tenant_truth(fleet: FleetSpec, spec: TenantSpec) -> dict[str, np.ndarray]:
    """Ground-truth branch probabilities behind one tenant's *base* pool,
    from the same run (the arrays are read-only).

    What the CI-calibration audit holds the served estimates against; under
    an injected drift (``drift_at_shard``) the post-onset regime differs on
    purpose, which is exactly when coverage should degrade and alert.
    """
    _, truth = _tenant_run(fleet, spec, fleet.scenario)
    return dict(truth)


def _mote_shard(
    fleet: FleetSpec,
    spec: TenantSpec,
    pool: dict[str, np.ndarray],
    mote: int,
    shard: int,
) -> dict[str, np.ndarray]:
    """Deal one mote's shard out of the tenant pool (labelled RNG stream)."""
    rng = derive_rng(
        fleet.seed, "serve", spec.deployment_id, spec.program_version, mote, shard
    )
    samples = {}
    for name in sorted(pool):
        xs = pool[name]
        idx = rng.integers(0, xs.size, size=spec.samples_per_proc)
        samples[name] = xs[idx].copy()
    return samples


def build_uploads(fleet: FleetSpec) -> list[ShardUpload]:
    """Pre-generate the whole fleet's upload sequence, deterministically.

    The schedule interleaves round-robin — shard round, then tenant, then
    mote — the way a real fleet's uploads arrive shuffled across tenants
    rather than one tenant at a time.  Fault injection (when a tenant has a
    :class:`~repro.faults.FaultModel`) runs per mote on its own derived
    injector, so enabling faults for one tenant never perturbs another's
    stream.  A tenant with ``drift_at_shard`` switches to its
    ``drift_scenario`` pool from that shard round on — same motes, same RNG
    labels, shifted regime.
    """
    pools = {spec.tenant: tenant_pool(fleet, spec) for spec in fleet.tenants}
    drift_pools = {
        spec.tenant: tenant_pool(fleet, spec, scenario=spec.drift_scenario)
        for spec in fleet.tenants
        if spec.drift_at_shard is not None
    }
    injectors: dict[tuple[TenantKey, int], Optional[FaultInjector]] = {}
    for spec in fleet.tenants:
        for mote in range(spec.n_motes):
            if spec.faults is not None and spec.faults.enabled:
                from repro.faults.model import FaultInjector

                injectors[(spec.tenant, mote)] = FaultInjector.derived(
                    spec.faults,
                    fleet.seed,
                    "serve",
                    spec.deployment_id,
                    spec.program_version,
                    mote,
                )
            else:
                injectors[(spec.tenant, mote)] = None
    cycles_per_tick = fleet.platform.timer.cycles_per_tick
    uploads: list[ShardUpload] = []
    rounds = max(spec.shards_per_mote for spec in fleet.tenants)
    for shard in range(rounds):
        for spec in fleet.tenants:
            if shard >= spec.shards_per_mote:
                continue
            if spec.drift_at_shard is not None and shard >= spec.drift_at_shard:
                pool = drift_pools[spec.tenant]
            else:
                pool = pools[spec.tenant]
            for mote in range(spec.n_motes):
                samples = _mote_shard(fleet, spec, pool, mote, shard)
                injector = injectors[(spec.tenant, mote)]
                if injector is not None:
                    from repro.faults.inject import faulty_samples

                    delivered = {}
                    for name in sorted(samples):
                        kept, _ = faulty_samples(
                            injector, samples[name], cycles_per_tick
                        )
                        if kept.size:
                            delivered[name] = kept
                    samples = delivered
                if not samples:
                    continue  # the uplink ate the whole shard
                uploads.append(
                    ShardUpload(
                        tenant=spec.tenant, mote_id=mote, seq=shard, samples=samples
                    )
                )
    return uploads


async def run_fleet(
    fleet: FleetSpec,
    config: Optional[ServiceConfig] = None,
    service: Optional[IngestionService] = None,
) -> FleetReport:
    """Drive one fleet through an ingestion service and report throughput.

    Uploads are generated *before* the clock starts, so ``shards_per_s``
    measures ingestion (submit + absorption + drain), not workload
    simulation.  Pass a ``service`` to reuse one mid-test (it must not be
    started); otherwise one is built from ``config``.
    """
    svc = service if service is not None else IngestionService(config)
    programs = {}
    for spec in fleet.tenants:
        programs[spec.tenant] = workload_by_name(spec.workload).program()
        svc.register_tenant(
            spec.deployment_id,
            spec.program_version,
            programs[spec.tenant],
            fleet.platform,
            options=spec.options(),
            # The simulated fleet knows its own ground truth, which is what
            # makes the CI-calibration audit possible; real deployments
            # register without it and still get drift and backlog checks.
            truth=tenant_truth(fleet, spec) if svc.config.health else None,
        )
    uploads = build_uploads(fleet)
    accepted = deferred = 0
    started = time.perf_counter()
    await svc.start()
    try:
        for upload in uploads:
            receipt = await svc.submit(upload)
            if receipt.status == "accepted":
                accepted += 1
            else:
                deferred += 1
        await svc.drain()
        wall = time.perf_counter() - started
        estimates = {str(t): svc.query(t) for t in svc.tenants}
        stats = svc.stats_payload()
    finally:
        await svc.stop()
    return FleetReport(
        shards_sent=len(uploads),
        shards_accepted=accepted,
        shards_deferred=deferred,
        samples_sent=sum(u.n_samples for u in uploads),
        wall_s=wall,
        shards_per_s=len(uploads) / wall if wall > 0 else 0.0,
        latency=svc.latency_percentiles(),
        stats=stats,
        estimates=estimates,
    )
