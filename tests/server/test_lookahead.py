"""Look-ahead across queued requests is invisible (docs/SERVER.md).

A shard's apply task serves the ``access_batch`` requests it finds
queued through one look-ahead as far as the hooks between them provably
cannot move a mapping.  However TCP timing happened to queue the same
request order, responses, shard fingerprints, server counters, injector
state and audits come out the same.
"""

import asyncio

import numpy as np
import pytest

from repro.dram.power import PowerState
from repro.server import DtlServer, ServerConfig, shard_of

from tests.server.test_chaos_resume import injector_states
from tests.server.test_checkpoint import server_counters

REQUESTS = 40
BATCH = 128


def tenants_by_shard(counts: tuple[int, ...]) -> list[str]:
    """Tenant names, ``counts[shard]`` of them hashing to each shard."""
    names, wanted, index = [], list(counts), 0
    while any(wanted):
        name = f"ahead-{index}"
        index += 1
        shard = shard_of(name, len(counts))
        if wanted[shard]:
            wanted[shard] -= 1
            names.append(name)
    return names


async def submit(server: DtlServer, requests: list[dict],
                 together: bool) -> list[dict]:
    """``requests`` all at once (they queue behind one another on their
    shards) or one at a time — the same order on every shard either
    way, since handlers enqueue in submission order."""
    if together:
        return list(await asyncio.gather(
            *(server.handle_request(request) for request in requests)))
    return [await server.handle_request(request) for request in requests]


class Script:
    """Four closed-loop tenants (three on one shard, one on the other):
    step ``s`` is one request per tenant — mostly 128-access batches
    over its VMs, with an ``allocate`` every eighth step and a ``free``
    near the end, which is what puts barriers into the queued runs."""

    def __init__(self):
        self.names = tenants_by_shard((3, 1))
        self.vms: dict[str, list[int]] = {name: [] for name in self.names}
        self.rng = np.random.default_rng(5)

    def setup(self) -> list[list[dict]]:
        return [[{"op": "open_tenant", "tenant": name, "t": 0.5}
                 for name in self.names]] + [
            [{"op": "allocate", "tenant": name, "bytes": 2 << 20,
              "t": 0.6 + 0.1 * round} for name in self.names]
            for round in range(2)]

    def step(self, number: int) -> list[dict]:
        t = 1.0 + 0.01 * number
        requests = []
        for position, name in enumerate(self.names):
            if number == REQUESTS - 4:
                request = {"op": "free", "vm": self.vms[name].pop(0)}
            elif number % 8 == 7:
                request = {"op": "allocate", "bytes": 1 << 20}
            else:
                vms = self.vms[name]
                request = {
                    "op": "access_batch", "vm": vms[number % len(vms)],
                    "segments": self.rng.integers(0, 8, BATCH).tolist(),
                    "writes": (self.rng.random(BATCH) < 0.3).tolist()}
            # Same-step requests are a few microseconds apart.
            requests.append({**request, "tenant": name,
                             "t": t + 1e-6 * position})
        return requests

    def record(self, responses: list[dict]) -> None:
        for response in responses:
            assert response["ok"], response
            if response["op"] == "allocate":
                self.vms[response["tenant"]].append(response["vm"])


async def run_script(chaos: bool, together: bool):
    """The whole script, each step's four requests submitted at once
    (``together``) or one at a time."""
    server = DtlServer(ServerConfig(chaos=chaos))
    await server.start(serve_tcp=False)
    script = Script()
    responses = []

    async def step(requests: list[dict]) -> None:
        replies = await submit(server, requests, together)
        for request, reply in zip(requests, replies):
            reply.setdefault("tenant", request["tenant"])
        script.record(replies)
        responses.extend(replies)

    for requests in script.setup():
        await step(requests)
    for number in range(REQUESTS):
        await step(script.step(number))
    snapshot = server.snapshot()
    await server.drain()
    state = (responses, [shard.fingerprint() for shard in server.shards],
             server_counters(server),
             injector_states(server) if chaos else None,
             server.audit_violations(),
             [(shard.applied, shard.audits) for shard in server.shards])
    tallies = [(shard.lookaheads, shard.lookahead_calls)
               for shard in server.shards]
    return state, tallies, snapshot.gauges


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
def test_grouping_of_the_same_request_order_is_invisible(chaos):
    grouped, tallies, gauges = asyncio.run(run_script(chaos, True))
    single, single_tallies, _ = asyncio.run(run_script(chaos, False))
    assert grouped == single
    assert not grouped[4]  # audit_violations
    # One request at a time never queues two: no look-ahead, ever.
    assert single_tallies == [(0, 0), (0, 0)]
    # Together, the three-tenant shard's runs were served by look-ahead
    # (and the one-tenant shard's, of one request each, never).
    busy = 0  # tenants_by_shard((3, 1))
    lookaheads, calls = tallies[busy]
    assert tallies[1 - busy] == (0, 0)
    assert 2 * lookaheads <= calls <= 3 * lookaheads
    if not chaos:
        # Nearly every access step (34 of them); where a profiling
        # channel's timer could run out at the first request's tick,
        # only the two requests behind it shared one.
        assert lookaheads >= 30 and calls < 3 * lookaheads
    else:
        assert lookaheads >= 10
    assert gauges[f"server.shard.{busy}.lookaheads"] == lookaheads
    assert gauges[f"server.shard.{busy}.lookahead_calls"] == calls


def test_a_barrier_at_the_head_of_the_queue_is_served_alone():
    """allocate, then three access batches, all found queued at once:
    the allocate is a barrier, the three behind it share a look-ahead."""
    names = tenants_by_shard((3, 0))

    async def scenario(together: bool):
        server = DtlServer(ServerConfig(chaos=False))
        await server.start(serve_tcp=False)
        vms = {}
        for name in names:
            await server.handle_request(
                {"op": "open_tenant", "tenant": name, "t": 0.5})
            reply = await server.handle_request(
                {"op": "allocate", "tenant": name, "bytes": 2 << 20,
                 "t": 0.6})
            vms[name] = reply["vm"]
        requests = [{"op": "allocate", "tenant": names[0],
                     "bytes": 1 << 20, "t": 1.0}] + [
            {"op": "access_batch", "tenant": name, "vm": vms[name],
             "segments": list(range(16)) * 4, "t": 1.0} for name in names]
        replies = await submit(server, requests, together)
        shard = server.shards[shard_of(names[0], 2)]
        await server.drain()
        return (replies, shard.fingerprint(),
                (shard.lookaheads, shard.lookahead_calls))

    replies, fingerprint, tallies = asyncio.run(scenario(True))
    assert all(reply["ok"] for reply in replies), replies
    assert tallies == (1, 3)
    assert (replies, fingerprint, (0, 0)) == asyncio.run(scenario(False))


def test_an_exception_inside_a_look_ahead_goes_to_its_own_request():
    """Three requests share a look-ahead and the middle one's slice
    raises (a live segment left on an MPSM rank — only the fault
    barrier's cases can get here): the first keeps its result, the
    middle one gets the exception, the third is still served from the
    look-ahead — translated once, so the replies, the SMC and the
    translation counters, the injector and the shard all end where
    submitting the three one at a time leaves them, chaos off and on."""
    names = tenants_by_shard((3, 0))

    async def scenario(chaos: bool, together: bool):
        server = DtlServer(ServerConfig(chaos=chaos))
        await server.start(serve_tcp=False)
        shard = server.shards[shard_of(names[0], 2)]
        controller = shard.controller
        layout = controller.host_layout
        segments, rank_of = {}, {}
        for name in names:
            await server.handle_request(
                {"op": "open_tenant", "tenant": name, "t": 0.5})
            reply = await server.handle_request(
                {"op": "allocate", "tenant": name, "bytes": 2 << 20,
                 "t": 0.6})
            vm = controller.vm_handle(reply["vm"])
            for segment in range(reply["segments"]):
                au_id = vm.au_ids[segment // layout.segments_per_au]
                dsn = controller.tables.walk(layout.pack_hsn(
                    vm.host_id, au_id,
                    segment % layout.segments_per_au)).dsn
                location = controller.device_layout.unpack_dsn(dsn)
                rank_of[name, segment] = location.rank_id
            segments[name] = reply["vm"]
        # A rank only the middle tenant's request will touch.
        first, middle, last = names
        victim = next(rank_of[middle, segment] for segment in range(16))
        requests = []
        for name in names:
            wanted = [segment for segment in range(16)
                      if (rank_of[name, segment] == victim)
                      == (name == middle)]
            assert wanted, "placement left no segment to pick"
            requests.append({"op": "access_batch", "tenant": name,
                             "vm": segments[name],
                             "segments": (wanted * BATCH)[:BATCH],
                             "t": 1.0})
        controller.device.set_rank_state(victim, PowerState.MPSM,
                                         shard.clock_ns)
        applied = shard.applied
        replies = await submit(server, requests, together)
        assert [reply.get("ok") for reply in replies] == [True, False, True]
        assert replies[1]["error"] == "internal"
        assert "PowerStateError" in replies[1]["message"]
        assert replies[0]["n"] == replies[2]["n"] == BATCH
        assert (shard.lookaheads, shard.lookahead_calls) \
            == ((1, 3) if together else (0, 0))
        assert shard.applied == applied + 2
        counters = server.metrics.counter_values()
        assert counters["server.internal_errors"] == 1
        assert counters["server.accesses"] == 2 * BATCH
        datapath = {name: value for name, value
                    in controller.metrics.counter_values().items()
                    if name.startswith(("smc.", "translation."))}
        state = (replies, datapath, shard.fingerprint(),
                 injector_states(server) if chaos else None)
        await server.drain()
        return state

    for chaos in (False, True):
        grouped = asyncio.run(scenario(chaos, True))
        single = asyncio.run(scenario(chaos, False))
        assert grouped[:2] == single[:2]  # replies, smc.*, translation.*
        assert grouped == single
