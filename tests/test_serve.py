"""The ingestion service (:mod:`repro.serve`): protocol, routing, edge cases."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.online import OnlineOptions
from repro.errors import ProtocolError
from repro.obs import Tracer, tracing
from repro.profiling.budget import SampleBudget
from repro.serve import (
    ERROR_CODES,
    FleetSpec,
    IngestionService,
    MicroBatcher,
    Receipt,
    ServiceConfig,
    ShardUpload,
    TenantKey,
    TenantSpec,
    build_uploads,
    default_fleet,
    encode,
    error_response,
    parse_request_line,
    run_fleet,
)
from repro.serve.protocol import MAX_DURATION_CYCLES
from repro.workloads.registry import workload_by_name

BLINK = workload_by_name("blink")
SENSE = workload_by_name("sense")
PLATFORM = FleetSpec(tenants=(TenantSpec("x", "blink"),)).platform


def run(coro):
    return asyncio.run(coro)


def upload_line(deployment="field", version="1.0", mote=0, seq=0, samples=None):
    return json.dumps(
        {
            "op": "upload",
            "deployment": deployment,
            "version": version,
            "mote": mote,
            "seq": seq,
            "samples": samples if samples is not None else {"main": [10.0, 12.0]},
        }
    )


def make_upload(tenant, mote=0, seq=0, samples=None):
    return ShardUpload(
        tenant=tenant,
        mote_id=mote,
        seq=seq,
        samples=samples or {"main": np.array([10.0, 12.0])},
    )


class TestProtocol:
    def test_upload_round_trip(self):
        request = parse_request_line(upload_line(samples={"main": [1.0], "f": [2, 3]}))
        assert isinstance(request, ShardUpload)
        assert request.tenant == TenantKey("field", "1.0")
        assert request.n_samples == 3
        assert request.samples["f"].dtype == float

    @pytest.mark.parametrize(
        "line,code",
        [
            ("{not json", "bad-json"),
            ('["a", "list"]', "bad-request"),
            ('{"op": "upload", "deployment": "d"}', "bad-request"),
            ('{"op": "reboot"}', "unknown-op"),
            (upload_line(samples={}), "bad-shard"),
            (upload_line(samples={"main": [1.0, "x"]}), "bad-shard"),
            (upload_line(samples={"main": [1.0, -2.0]}), "bad-shard"),
            (upload_line(samples={"main": [True]}), "bad-shard"),
            (upload_line(samples={"main": []}), "bad-shard"),
            (upload_line(samples={"main": [1.8446744073709552e19, 60.0]}), "bad-shard"),
            (upload_line(samples={"main": [MAX_DURATION_CYCLES + 1]}), "bad-shard"),
        ],
    )
    def test_malformed_lines_raise_stable_codes(self, line, code):
        with pytest.raises(ProtocolError) as err:
            parse_request_line(line)
        assert err.value.code == code
        assert code in ERROR_CODES
        response = error_response(err.value)
        assert response["op"] == "error" and response["code"] == code
        json.loads(encode(response))  # the error itself is wire-clean

    def test_protocol_error_refuses_a_code_outside_the_vocabulary(self):
        for code in ERROR_CODES:
            assert ProtocolError(code, "detail").code == code
        with pytest.raises(ValueError, match="'bad-mood'"):
            ProtocolError("bad-mood", "detail")

    def test_receipt_wire_form(self):
        receipt = Receipt(
            status="deferred",
            tenant=TenantKey("d", "v"),
            pending=3,
            reason="budget-exhausted",
            retry_after_s=0.5,
        )
        payload = receipt.to_json()
        assert payload["op"] == "ack"
        assert payload["status"] == "deferred"
        assert payload["retry_after_s"] == 0.5


def _absorbing_workers(fleet, n_workers) -> dict[str, int]:
    """Tenant → the worker whose ``serve.absorb`` spans carried it."""
    tracer = Tracer()
    with tracing(tracer):
        run(run_fleet(fleet, ServiceConfig(n_workers=n_workers, max_batch=4)))
    return {
        span.attrs["tenant"]: span.attrs["worker"]
        for span in tracer.spans
        if span.name == "serve.absorb"
    }


def _tiny_fleet(n_tenants=6):
    return default_fleet(
        n_tenants=n_tenants, n_motes=1, shards_per_mote=1, samples_per_proc=1
    )


class TestRouter:
    def test_routing_is_stable_and_in_range(self):
        fleet = _tiny_fleet()
        first = _absorbing_workers(fleet, 4)
        assert first == _absorbing_workers(fleet, 4)
        assert all(0 <= w < 4 for w in first.values())
        assert set(first.values()) == {0, 1, 2, 3}  # every worker gets a tenant

    @pytest.mark.parametrize(
        "n_workers,expected", [(2, [0, 1, 0, 1, 0, 1]), (3, [0, 1, 2, 0, 1, 2])]
    )
    def test_default_fleet_assignment_is_pinned(self, n_workers, expected):
        # The k-th registered tenant belongs to worker k mod n_workers, so
        # the default fleet fills every worker evenly.
        fleet = _tiny_fleet()
        assert [spec.tenant for spec in fleet.tenants] == [
            spec.tenant for spec in default_fleet().tenants
        ]
        workers = _absorbing_workers(fleet, n_workers)
        assert [workers[str(spec.tenant)] for spec in fleet.tenants] == expected

    def test_service_absorbs_each_tenant_on_its_hashed_worker(self):
        """Every batch of the k-th tenant is absorbed by worker k mod 3."""
        fleet = _tiny_fleet()
        assert _absorbing_workers(fleet, 3) == {
            str(spec.tenant): k % 3 for k, spec in enumerate(fleet.tenants)
        }


class TestBatcher:
    def test_count_trigger_and_drain(self):
        batcher = MicroBatcher(max_batch=3)
        tenant = TenantKey("d", "v")
        assert batcher.add(make_upload(tenant, seq=0), 0.0) is None
        assert batcher.add(make_upload(tenant, seq=1), 0.0) is None
        batch = batcher.add(make_upload(tenant, seq=2), 0.0)
        assert batch is not None and len(batch) == 3
        assert batcher.take_all() == []  # the full batch left nothing behind
        batcher.add(make_upload(tenant, seq=3), 0.0)
        (drained_tenant, leftovers), = batcher.take_all()
        assert drained_tenant == tenant and len(leftovers) == 1

    def test_age_trigger(self):
        batcher = MicroBatcher(max_batch=100)
        tenant = TenantKey("d", "v")
        batcher.add(make_upload(tenant), submitted_at=1.0)
        assert batcher.take_aged(now=1.2, flush_interval_s=0.5) == []
        aged = batcher.take_aged(now=1.6, flush_interval_s=0.5)
        assert [t for t, _ in aged] == [tenant]


def _fleet(**overrides) -> FleetSpec:
    defaults = dict(
        deployment_id="site-a",
        workload="blink",
        n_motes=4,
        shards_per_mote=6,
        samples_per_proc=3,
    )
    defaults.update(overrides)
    return FleetSpec(tenants=(TenantSpec(**defaults),), seed=77)


async def _serve_uploads(service, uploads):
    receipts = []
    async with service:
        for upload in uploads:
            receipts.append(await service.submit(upload))
        await service.drain()
        estimates = {str(t): service.query(t) for t in service.tenants}
        stats = service.stats_payload()
    return receipts, estimates, stats


def _register_fleet(service, fleet):
    for spec in fleet.tenants:
        service.register_tenant(
            spec.deployment_id,
            spec.program_version,
            workload_by_name(spec.workload).program(),
            fleet.platform,
            options=spec.options(),
        )


class TestServiceDeterminism:
    def test_worker_count_is_invisible_in_estimates(self):
        fleet = default_fleet(n_tenants=3, n_motes=3, shards_per_mote=4, seed=7)
        uploads = build_uploads(fleet)
        results = []
        for n_workers in (1, 2, 3):
            service = IngestionService(ServiceConfig(n_workers=n_workers, max_batch=4))
            _register_fleet(service, fleet)
            _, estimates, _ = run(_serve_uploads(service, uploads))
            results.append(estimates)
        one = results[0]
        for many in results[1:]:
            assert set(one) == set(many)
            for name in one:
                a, b = one[name], many[name]
                assert a.shards_absorbed == b.shards_absorbed
                assert a.n_samples == b.n_samples
                for proc in a.thetas:
                    assert np.array_equal(a.thetas[proc], b.thetas[proc])
                    assert np.array_equal(a.half_widths[proc], b.half_widths[proc])

    def test_build_uploads_is_deterministic(self):
        fleet = _fleet(faults=None)
        first = build_uploads(fleet)
        second = build_uploads(fleet)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert (a.tenant, a.mote_id, a.seq) == (b.tenant, b.mote_id, b.seq)
            assert set(a.samples) == set(b.samples)
            for name in a.samples:
                assert np.array_equal(a.samples[name], b.samples[name])


class TestBudgetBackpressure:
    def test_budget_exhaustion_defers_and_leaves_estimator_untouched(self):
        fleet = _fleet()
        uploads = build_uploads(fleet)
        per_shard = uploads[0].n_samples
        budget = SampleBudget(max_total=per_shard * 5)
        service = IngestionService(ServiceConfig(max_batch=2))
        spec = fleet.tenants[0]
        service.register_tenant(
            spec.deployment_id,
            spec.program_version,
            workload_by_name(spec.workload).program(),
            fleet.platform,
            options=OnlineOptions(epsilon=None, budget=budget),
        )
        receipts, estimates, stats = run(_serve_uploads(service, uploads))
        accepted = [r for r in receipts if r.status == "accepted"]
        deferred = [r for r in receipts if r.status == "deferred"]
        assert len(accepted) == 5  # budget spans exactly five shards
        assert deferred, "over-budget uploads must defer"
        for receipt in deferred:
            assert receipt.reason == "budget-exhausted"
            assert receipt.retry_after_s is not None and receipt.retry_after_s > 0
        # Deferral means *not absorbed*: only accepted samples are in the
        # estimate, and nothing was dropped silently.
        (estimate,) = estimates.values()
        assert estimate.total_samples == per_shard * 5
        totals = stats["totals"]
        assert totals["accepted"] == 5
        assert totals["deferred"] == len(deferred)
        assert len(accepted) + len(deferred) == len(uploads)

    def test_backlog_cap_defers(self):
        tenant = TenantKey("d", "v")
        service = IngestionService(ServiceConfig(max_batch=64, max_backlog=3))
        service.register_tenant("d", "v", BLINK.program(), PLATFORM)

        async def scenario():
            async with service:
                receipts = [
                    await service.submit(make_upload(tenant, seq=i)) for i in range(5)
                ]
                await service.drain()
                return receipts

        receipts = run(scenario())
        statuses = [r.status for r in receipts]
        assert statuses[:3] == ["accepted"] * 3
        assert "deferred" in statuses[3:]
        assert all(
            r.reason == "backlog-full" for r in receipts if r.status == "deferred"
        )


class TestWireProtocol:
    def test_handle_line_full_session(self):
        service = IngestionService(ServiceConfig(max_batch=2))
        service.register_tenant("field", "1.0", BLINK.program(), PLATFORM)

        async def scenario():
            async with service:
                responses = []
                for i in range(4):
                    responses.append(
                        await service.handle_line(upload_line(mote=i, seq=0))
                    )
                await service.drain()
                query = await service.handle_line(
                    '{"op": "query", "deployment": "field", "version": "1.0"}'
                )
                stats = await service.handle_line('{"op": "stats"}')
                return responses, query, stats

        responses, query, stats = run(scenario())
        assert all(r["op"] == "ack" and r["status"] == "accepted" for r in responses)
        assert query["op"] == "estimate"
        assert query["total_samples"] == 8
        # Shards, not the two micro-batches they were absorbed in.
        assert query["shards_absorbed"] == 4
        assert query["pending"] == 0
        assert query["thetas"] and query["half_widths"]
        assert stats["op"] == "stats"
        assert stats["totals"]["accepted"] == 4

    def test_health_row_counts_shards_like_the_query(self):
        # Four uploads absorbed in two micro-batches: the stats health row
        # counts four shards, as the query does.
        service = IngestionService(ServiceConfig(max_batch=2, health=True))
        service.register_tenant("field", "1.0", BLINK.program(), PLATFORM)

        async def scenario():
            async with service:
                for i in range(4):
                    await service.handle_line(upload_line(mote=i, seq=0))
                await service.drain()
                query = await service.handle_line(
                    '{"op": "query", "deployment": "field", "version": "1.0"}'
                )
                stats = await service.handle_line('{"op": "stats"}')
                return query, stats

        query, stats = run(scenario())
        (row,) = stats["health"].values()
        assert query["shards_absorbed"] == row["shards_absorbed"] == 4
        assert row["samples_absorbed"] == query["total_samples"] == 8

    def test_malformed_lines_are_rejected_and_counted(self):
        service = IngestionService()
        service.register_tenant("field", "1.0", BLINK.program(), PLATFORM)

        async def scenario():
            async with service:
                bad_json = await service.handle_line("{nope")
                bad_shard = await service.handle_line(
                    upload_line(samples={"main": [-1.0]})
                )
                unknown = await service.handle_line(
                    upload_line(deployment="ghost")
                )
                return bad_json, bad_shard, unknown, service.stats_payload()

        bad_json, bad_shard, unknown, stats = run(scenario())
        assert bad_json == {"op": "error", "code": "bad-json", "detail": bad_json["detail"]}
        assert bad_shard["code"] == "bad-shard"
        assert unknown["code"] == "unknown-tenant"
        assert stats["totals"]["rejected"] == 3
        assert stats["totals"]["accepted"] == 0


class TestFleet:
    def test_run_fleet_reports_and_estimates(self):
        fleet = default_fleet(n_tenants=2, n_motes=4, shards_per_mote=3, seed=5)
        report = run(run_fleet(fleet, ServiceConfig(n_workers=2, max_batch=4)))
        assert report.shards_sent == 2 * 4 * 3
        assert report.shards_accepted == report.shards_sent
        assert report.shards_per_s > 0
        assert set(report.stats["tenants"]) == {"site-0@1.0", "site-1@1.0"}
        payload = report.to_json()
        assert payload["stats"]["schema"] == "repro.serve/1"
        json.dumps(payload)  # the whole report is JSON-serializable

    def test_faulty_fleet_still_serves(self):
        from repro.faults.model import FaultModel

        faults = FaultModel(radio_loss=0.3, timer_glitch=0.1)
        clean = build_uploads(_fleet(faults=None))
        faulty = build_uploads(_fleet(faults=faults))
        assert sum(u.n_samples for u in faulty) < sum(u.n_samples for u in clean)
        report = run(
            run_fleet(_fleet(faults=faults), ServiceConfig(max_batch=4))
        )
        assert report.shards_accepted == report.shards_sent


# -- the malformed-line sweep --------------------------------------------------
# Generated JSON values and raw text lines, fed to the wire parser and to the
# service: the parser may raise only a ProtocolError with a known code, and
# ``handle_line`` answers every line with a JSON-able dict.

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**1100)  # past 2**64 and past the float range
    | st.floats()
    | st.text(max_size=8)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)
_REQUESTS = st.fixed_dictionaries(
    {"op": st.sampled_from(["upload", "query", "stats", "nope"]) | _VALUES},
    optional={
        "deployment": st.just("field") | _VALUES,
        "version": st.just("1.0") | _VALUES,
        "mote": st.integers(-2, 2**70) | _VALUES,
        "seq": st.integers(-2, 2**70) | _VALUES,
        "samples": st.dictionaries(
            st.sampled_from(["main", ""]) | st.text(max_size=6),
            st.lists(_SCALARS | _VALUES, max_size=4),
            max_size=3,
        )
        | _VALUES,
        "trace": st.text(max_size=6) | _VALUES,
    },
)


@st.composite
def _damaged_lines(draw):
    """A valid upload line, cut short or with one character spliced in."""
    line = upload_line(mote=draw(st.integers(0, 9)))
    cut = draw(st.integers(0, len(line)))
    if draw(st.booleans()):
        return line[:cut]
    return line[:cut] + draw(st.characters()) + line[cut:]


_LINES = (
    st.one_of(_VALUES, _REQUESTS).map(json.dumps)
    | st.text(max_size=40)
    | st.integers(1, 5000).map(lambda depth: "[" * depth)
    | _damaged_lines()
)


async def _answer(line: str) -> dict:
    service = IngestionService(ServiceConfig(max_batch=10**9))
    service.register_tenant("field", "1.0", BLINK.program(), PLATFORM)
    await service.start()  # never drained: asyncio.run cancels the worker
    return await service.handle_line(line)


def parse_error(line: str) -> ProtocolError:
    with pytest.raises(ProtocolError) as excinfo:
        parse_request_line(line)
    return excinfo.value


class TestMalformedLineSweep:
    @settings(max_examples=300, deadline=None)
    @given(line=_LINES)
    @example(line=upload_line(samples={"main": [2**64]}))
    @example(line=upload_line(samples={"main": [2**1100]}))
    @example(line="[" * 1000)
    @example(line="1" * 5000)
    def test_parser_raises_only_protocol_errors(self, line):
        try:
            parse_request_line(line)
        except ProtocolError as exc:
            assert exc.code in ERROR_CODES

    @settings(max_examples=100, deadline=None)
    @given(line=_LINES)
    @example(line=upload_line(samples={"main": [2**64]}))
    @example(line="[" * 1000)
    def test_handle_line_answers_every_line(self, line):
        response = run(_answer(line))
        assert isinstance(response, dict)
        encode(response)

    def test_overflowing_and_deep_lines_get_their_codes(self):
        too_big = parse_error(upload_line(samples={"main": [1.0, 2**1100]}))
        assert too_big.code == "bad-shard"
        assert parse_error("[" * 1000).code == "bad-json"
        assert parse_error(upload_line(samples={"main": [2**64]})).code == "bad-shard"
        upload = parse_request_line(upload_line(samples={"main": [MAX_DURATION_CYCLES]}))
        assert upload.samples["main"].tolist() == [float(MAX_DURATION_CYCLES)]

