"""Drain → checkpoint → resume in the middle of the always-on fault plan.

With chaos on, ``access_batch`` schedules each shard's faults by counter
arithmetic over the vectorised datapath.  A server drained between two
fires, checkpointed, and resumed (what ``repro serve --resume`` does)
must land every later fire on the same access as a server that never
stopped: fingerprints *and* injector counters, bit for bit.
"""

import asyncio

import numpy as np

from repro.faults import HookPoint
from repro.server import DtlServer, ServerConfig

from tests.faults.test_batch_faults import injector_state

TENANTS = ("alpha", "beta", "gamma")
REQUESTS = 36
BATCH = 128


def script(seed: int = 7) -> list[dict]:
    """Open/allocate per tenant, then round-robin 128-access requests."""
    rng = np.random.default_rng(seed)
    ops: list[dict] = []
    for tenant in TENANTS:
        ops.append({"op": "open_tenant", "tenant": tenant})
        ops.append({"op": "allocate", "tenant": tenant, "bytes": 4 << 20})
    for step in range(REQUESTS):
        ops.append({"op": "access_batch", "tenant": TENANTS[step % 3],
                    "segments": rng.integers(0, 32, BATCH).tolist(),
                    "writes": (rng.random(BATCH) < 0.3).tolist()})
    return ops


async def apply(server: DtlServer, ops: list[dict], start: int,
                vms: dict[str, int]) -> list[dict]:
    responses = []
    for index, op in enumerate(ops[start:], start=start):
        request = dict(op, t=1.0 + 0.01 * index)
        if op["op"] == "access_batch":
            request["vm"] = vms[op["tenant"]]
        response = await server.handle_request(request)
        assert response["ok"], response
        if op["op"] == "allocate":
            vms[op["tenant"]] = response["vm"]
        responses.append(response)
    return responses


def injector_states(server: DtlServer) -> list[dict]:
    return [injector_state(shard.injector) for shard in server.shards]


def test_resume_mid_plan_matches_the_undrained_control(tmp_path):
    ops = script()
    cut = len(ops) - REQUESTS // 2
    path = str(tmp_path / "server.ckpt")

    async def control():
        server = DtlServer(ServerConfig())
        await server.start(serve_tcp=False)
        responses = await apply(server, ops, 0, {})
        await server.drain()
        return (responses, [s.fingerprint() for s in server.shards],
                injector_states(server))

    async def drained_and_resumed():
        vms: dict[str, int] = {}
        first = DtlServer(ServerConfig(checkpoint_path=path))
        await first.start(serve_tcp=False)
        await apply(first, ops[:cut], 0, vms)
        await first.drain()  # writes the checkpoint
        at_cut = injector_states(first)

        second = DtlServer(ServerConfig(checkpoint_path=path))
        second.restore(path)
        assert injector_states(second) == at_cut
        await second.start(serve_tcp=False)
        tail = await apply(second, ops, cut, vms)
        second.config = second.config.replace(checkpoint_path=None)
        await second.drain()
        return (tail, [s.fingerprint() for s in second.shards],
                injector_states(second), at_cut)

    responses, prints, injectors = asyncio.run(control())
    tail, resumed_prints, resumed_injectors, at_cut = \
        asyncio.run(drained_and_resumed())

    # Hostile condition: the cut fell inside the plan — on every shard
    # that served traffic, each access-path hook (the SMC corruption
    # cut included) had fired before it and fired again after it.
    for before, after in zip(at_cut, injectors):
        if not before["visits"][HookPoint.CXL_ACCESS.value]:
            continue  # a shard no tenant hashed to
        for point in (HookPoint.CXL_ACCESS, HookPoint.SMC_LOOKUP,
                      HookPoint.DRAM_ACCESS):
            assert 0 < before["injected"][point.value] \
                < after["injected"][point.value], point
    assert any(state["injected"][HookPoint.SMC_LOOKUP.value]
               for state in at_cut)

    assert tail == responses[cut:]
    assert resumed_prints == prints
    assert resumed_injectors == injectors
