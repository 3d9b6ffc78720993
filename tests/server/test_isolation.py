"""Tenant isolation under an armed fault plan.

Two tenants forced onto the same shard must never observe each other's
allocations, and a tenant whose request is rejected by admission
control must leave the victim shard's controller state bit-identical
(proved by fingerprint equality and a consistency audit) — all with
the always-on chaos injector armed.
"""

import asyncio
import json

import pytest

from repro.server import DtlServer, ServerConfig, shard_of
from repro.server.admission import AdmissionConfig


def colliding_names(num_shards: int) -> tuple[str, str, int]:
    """Two tenant names that hash to the same shard, plus the shard."""
    first = "iso-0"
    target = shard_of(first, num_shards)
    second = next(f"iso-{index}" for index in range(1, 1000)
                  if shard_of(f"iso-{index}", num_shards) == target)
    return first, second, target


async def populated_server(config: ServerConfig,
                           names: tuple[str, str]) -> DtlServer:
    server = DtlServer(config)
    await server.start(serve_tcp=False)
    t = 1.0
    for name in names:
        await server.handle_request(
            {"op": "open_tenant", "tenant": name, "t": t})
        alloc = await server.handle_request(
            {"op": "allocate", "tenant": name, "bytes": 2 << 20, "t": t})
        await server.handle_request(
            {"op": "access_batch", "tenant": name, "vm": alloc["vm"],
             "segments": list(range(8)), "writes": [True] * 8, "t": t})
        t += 0.1
    return server


class TestSameShardIsolation:
    def test_chaos_is_armed(self):
        async def scenario():
            server = DtlServer(ServerConfig())
            await server.start(serve_tcp=False)
            assert all(shard.injector is not None
                       for shard in server.shards)
            await server.drain()
        asyncio.run(scenario())

    def test_same_shard_tenants_have_disjoint_dsns(self):
        first, second, target = colliding_names(2)

        async def scenario():
            server = await populated_server(ServerConfig(),
                                            (first, second))
            assert server.tenants[first].shard == target
            assert server.tenants[second].shard == target
            shard = server.shards[target]
            dsns_first = shard.dsns_of_host(server.tenants[first].host_id)
            dsns_second = shard.dsns_of_host(
                server.tenants[second].host_id)
            assert dsns_first and dsns_second
            assert not dsns_first & dsns_second
            assert not server.leak_report()
            shard.audit()
            await server.drain()
            assert not server.audit_violations()
        asyncio.run(scenario())

    def test_cross_tenant_vm_access_is_not_owner(self):
        first, second, _ = colliding_names(2)

        async def scenario():
            server = await populated_server(ServerConfig(),
                                            (first, second))
            foreign_vm = sorted(server.tenants[second].vm_ids)[0]
            stolen = await server.handle_request(
                {"op": "access_batch", "tenant": first, "vm": foreign_vm,
                 "segments": [0], "t": 2.0})
            assert stolen["error"] == "not_owner"
            freed = await server.handle_request(
                {"op": "free", "tenant": first, "vm": foreign_vm,
                 "t": 2.1})
            assert freed["error"] == "not_owner"
            # The victim's VM is still alive and serving.
            mine = await server.handle_request(
                {"op": "access_batch", "tenant": second, "vm": foreign_vm,
                 "segments": [0], "t": 2.2})
            assert mine["ok"]
            await server.drain()
        asyncio.run(scenario())


class TestRejectionPurity:
    """Admission rejections must bounce before touching controller
    state — checked by shard fingerprint equality and an audit, with
    the chaos injector armed the whole time."""

    def rejection_battery(self, admission: AdmissionConfig):
        first, second, target = colliding_names(2)

        async def scenario():
            server = await populated_server(
                ServerConfig(admission=admission), (first, second))
            shard = server.shards[target]
            before = shard.fingerprint()

            quota = await server.handle_request(
                {"op": "allocate", "tenant": first,
                 "bytes": admission.quota_bytes * 2, "t": 3.0})
            foreign_vm = sorted(server.tenants[second].vm_ids)[0]
            owner = await server.handle_request(
                {"op": "access_batch", "tenant": first, "vm": foreign_vm,
                 "segments": [0], "t": 3.1})
            own_vm = sorted(server.tenants[first].vm_ids)[0]
            ranged = await server.handle_request(
                {"op": "access_batch", "tenant": first, "vm": own_vm,
                 "segments": [1 << 40], "t": 3.2})

            codes = [quota.get("error"), owner.get("error"),
                     ranged.get("error")]
            assert codes == ["quota_exceeded", "not_owner",
                             "out_of_range"]
            assert shard.fingerprint() == before
            shard.audit()
            assert not shard.violations
            await server.drain()
            assert not server.audit_violations()
            assert not server.leak_report()
        asyncio.run(scenario())

    def test_rejections_leave_fingerprint_untouched(self):
        self.rejection_battery(AdmissionConfig(quota_bytes=4 << 20))

    @pytest.mark.parametrize("field, payload", [
        pytest.param("segments", [1.9, 2], id="segments-float"),
        pytest.param("segments", [1, "2"], id="segments-string"),
        pytest.param("segments", [2 ** 70, 0], id="segments-bigint"),
        pytest.param("segments", [2 ** 63, 0], id="segments-uint64"),
        pytest.param("segments", [[1, 2], [3, 4]], id="segments-nested"),
        pytest.param("segments", [[1, 2], [3]], id="segments-ragged"),
        pytest.param("segments", [None, 1], id="segments-null"),
        pytest.param("segments", [True, False], id="segments-bool"),
        pytest.param("lines", [0.5, 1], id="lines-float"),
        pytest.param("lines", [[0], [1]], id="lines-nested"),
        pytest.param("lines", ["0", 1], id="lines-string"),
        pytest.param("writes", ["x", 0], id="writes-string"),
        pytest.param("writes", [1.0, 0], id="writes-float"),
        pytest.param("writes", [[True], [False]], id="writes-nested"),
        pytest.param("writes", [2 ** 70, 0], id="writes-bigint"),
        # Scalar fields, as "op.field" where the op is not access_batch:
        # JSON true is a Python bool, and bool is an int subclass.
        pytest.param("allocate.bytes", True, id="bytes-bool"),
        pytest.param("vm", True, id="vm-bool"),
        pytest.param("free.vm", True, id="free-vm-bool"),
        pytest.param("t", True, id="t-bool"),
        # ``json`` reads Infinity, NaN and 1e400 (and an integer of any
        # length); a shard clock never runs backwards, so a non-finite
        # ``t`` from one tenant would stay for every tenant on the shard.
        pytest.param("t", json.loads("Infinity"), id="t-infinity"),
        pytest.param("t", json.loads("NaN"), id="t-nan"),
        pytest.param("t", json.loads("1e400"), id="t-1e400"),
        pytest.param("t", json.loads("-Infinity"), id="t-minus-infinity"),
        pytest.param("t", json.loads("1" + "0" * 400), id="t-bigint"),
        # Finite, but with no integer-nanosecond clock reading.
        pytest.param("t", 1e300, id="t-1e300"),
        pytest.param("t", -1e300, id="t-minus-1e300"),
        pytest.param("allocate.t", 1e300, id="allocate-t-1e300"),
        pytest.param("free.t", 1e300, id="free-t-1e300"),
        pytest.param("allocate.t", json.loads("Infinity"),
                     id="allocate-t-infinity"),
        pytest.param("allocate.t", json.loads("NaN"), id="allocate-t-nan"),
        pytest.param("free.t", json.loads("1e400"), id="free-t-1e400"),
        pytest.param("free.t", json.loads("NaN"), id="free-t-nan"),
        pytest.param("open_tenant.t", json.loads("Infinity"),
                     id="open-t-infinity"),
        pytest.param("open_tenant.t", json.loads("NaN"), id="open-t-nan"),
    ])
    def test_malformed_access_batch_bounces_before_the_shard(self, field,
                                                             payload):
        """Hostile element types and shapes are a typed BAD_REQUEST at the
        server boundary: not coerced and served, not an ``internal``
        error from inside the shard, and nothing is charged for them.
        ``bytes``, ``vm`` and ``t`` refuse booleans the same way, and
        ``t`` anything that is not a finite number of seconds within
        ``MAX_REQUEST_T_S``."""
        first, second, target = colliding_names(2)

        async def scenario():
            server = await populated_server(ServerConfig(), (first, second))
            shard = server.shards[target]
            bucket = server.admission._buckets[first]

            def charged() -> tuple:
                return (shard.fingerprint(), shard.applied,
                        server.admission.reserved_bytes(first),
                        bucket.tokens, bucket.updated_s)

            before = charged()
            op, _, name = field.rpartition(".")
            request = {"op": op or "access_batch", "tenant": first,
                       "vm": sorted(server.tenants[first].vm_ids)[0],
                       "bytes": 1 << 20, "segments": [0, 1], "t": 3.0}
            response = await server.handle_request(
                {**request, name: payload})
            assert response["error"] == "bad_request", response
            assert name in response["message"]
            assert charged() == before
            counters = server.metrics.counter_values()
            assert counters.get("server.internal_errors", 0) == 0
            assert counters["server.rejected.bad_request"] == 1
            # Integers for writes stay welcome; the tenant is not wedged.
            request.update(lines=[0, 1], writes=[1, 0])
            assert (await server.handle_request(request))["ok"]
            await server.drain()
            assert not server.audit_violations()
        asyncio.run(scenario())

    def test_rejected_tenant_counters_are_typed(self):
        async def scenario():
            server = DtlServer(ServerConfig(admission=AdmissionConfig(
                max_tenants=1)))
            await server.start(serve_tcp=False)
            await server.handle_request(
                {"op": "open_tenant", "tenant": "a", "t": 0.0})
            refused = await server.handle_request(
                {"op": "open_tenant", "tenant": "b", "t": 0.1})
            assert refused["error"] == "tenant_limit"
            counters = server.metrics.counter_values()
            assert counters["server.rejected.tenant_limit"] == 1
            await server.drain()
        asyncio.run(scenario())


class TestStaleHandles:
    """Ownership is checked when a request is enqueued; a second
    connection of the same tenant can have a ``free`` of that VM queued
    ahead of it.  The apply task re-checks the handle: the late request
    is a typed ``not_owner``, not an ``internal`` error from inside the
    controller, and it leaves the shard as if it had never been sent."""

    def race(self, late: dict):
        first, second, target = colliding_names(2)

        async def scenario():
            raced = await populated_server(ServerConfig(), (first, second))
            control = await populated_server(ServerConfig(),
                                             (first, second))
            vm = sorted(raced.tenants[first].vm_ids)[0]
            free = {"op": "free", "tenant": first, "vm": vm, "t": 3.0}
            freed, refused = await asyncio.gather(
                raced.handle_request(free),
                raced.handle_request({**late, "tenant": first, "vm": vm,
                                      "t": 3.0}))
            assert freed["ok"], freed
            assert refused["error"] == "not_owner", refused
            assert await control.handle_request(free) == freed
            for shard, twin in zip(raced.shards, control.shards):
                assert shard.fingerprint() == twin.fingerprint()
                assert shard.applied == twin.applied
            counters = raced.metrics.counter_values()
            assert counters.get("server.internal_errors", 0) == 0
            assert counters["server.rejected.not_owner"] == 1
            assert (raced.admission.reserved_bytes(first)
                    == control.admission.reserved_bytes(first))
            # The neighbour on the shard is served as before.
            neighbour = {"op": "access_batch", "tenant": second,
                         "vm": sorted(raced.tenants[second].vm_ids)[0],
                         "segments": [0, 1], "t": 3.1}
            assert (await raced.handle_request(neighbour)
                    == await control.handle_request(neighbour))
            for server in (raced, control):
                await server.drain()
                assert not server.audit_violations()
                assert not server.leak_report()
        asyncio.run(scenario())

    def test_free_racing_a_free_is_not_owner(self):
        self.race({"op": "free"})

    def test_access_racing_a_free_is_not_owner(self):
        self.race({"op": "access_batch", "segments": [0, 1, 2],
                   "writes": [True, False, True]})

    def test_close_racing_a_free_closes_the_tenant(self):
        first, second, _ = colliding_names(2)

        async def scenario():
            server = await populated_server(ServerConfig(), (first, second))
            vm = sorted(server.tenants[first].vm_ids)[0]
            freed, closed = await asyncio.gather(
                server.handle_request({"op": "free", "tenant": first,
                                       "vm": vm, "t": 3.0}),
                server.handle_request({"op": "close", "tenant": first,
                                       "t": 3.0}))
            assert freed["ok"] and closed["ok"], (freed, closed)
            assert freed["freed"] and closed["freed"] == 0
            assert first not in server.tenants
            assert server.admission.reserved_bytes(first) == 0
            counters = server.metrics.counter_values()
            assert counters.get("server.internal_errors", 0) == 0
            await server.drain()
            assert not server.audit_violations()
        asyncio.run(scenario())

    def test_requests_between_an_applied_free_and_its_reply(self):
        """The shard has applied the free, but the free's reply has not
        yet dropped the VM from the tenant's record: an access, a second
        free and a close all name a VM the record lists and the shard no
        longer holds.  They are ``not_owner`` and a clean close."""
        first, second, _ = colliding_names(2)

        async def scenario():
            server = await populated_server(ServerConfig(), (first, second))
            record = server.tenants[first]
            shard = server.shards[record.shard]
            vm = sorted(record.vm_ids)[0]
            handle = shard.controller.vm_handle(vm)
            freeing = asyncio.ensure_future(server.handle_request(
                {"op": "free", "tenant": first, "vm": vm, "t": 3.0}))
            while shard.controller.is_live(handle):
                await asyncio.sleep(0)
            assert not freeing.done() and vm in record.vm_ids
            late = {"tenant": first, "vm": vm, "t": 3.0}
            access = await server.handle_request(
                {**late, "op": "access_batch", "segments": [0, 1]})
            again = await server.handle_request({**late, "op": "free"})
            closed = await server.handle_request(
                {"op": "close", "tenant": first, "t": 3.0})
            assert not freeing.done()  # all three fell inside the window
            assert access.get("error") == "not_owner", access
            assert again.get("error") == "not_owner", again
            assert closed["ok"] and closed["freed"] == 0, closed
            freed = await freeing
            assert freed["ok"] and freed["freed"], freed
            assert first not in server.tenants
            assert server.admission.reserved_bytes(first) == 0
            counters = server.metrics.counter_values()
            assert counters.get("server.internal_errors", 0) == 0
            assert counters["server.rejected.not_owner"] == 2
            await server.drain()
            assert not server.audit_violations()
            assert not server.leak_report()
        asyncio.run(scenario())
