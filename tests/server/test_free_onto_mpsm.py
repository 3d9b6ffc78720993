"""A ``free`` never leaves live segments on an MPSM rank.

The service geometry (``small_dtl_config``) consolidates in the
background, and with simulated time advancing 10 ms per step every
channel also sits in self-refresh with one standby rank — so both power
mechanisms act on the same ranks while tenants free and allocate.  After
every step no rank in MPSM holds an allocated segment and every shard's
audit (retention and rank-role agreement included) is clean; every reply
is ``ok``, so no access reaches a parked rank.  It runs with the
server's always-on fault plan and without it.  Drained while a
consolidation still copies, the server restores to the same shard
fingerprints with its victims still fenced.
"""

import asyncio

import numpy as np
import pytest

from repro.core.allocator import RankRole
from repro.dram.power import PowerState
from repro.server import DtlServer, ServerConfig

from tests.server.test_lookahead import BATCH, submit, tenants_by_shard

STEPS = 32
FIRST_FREE = 14  # access steps before the first round of frees


class Script:
    """Four closed-loop tenants, two per shard, two 2 MiB VMs each.
    Step ``s`` is one request per tenant at ``t = 1 s + s * 10 ms``:
    a 128-access batch over one of its VMs, a 1 MiB ``allocate`` every
    eighth step, and from step 14 on a ``free`` of its oldest VM every
    eighth step."""

    def __init__(self):
        self.names = tenants_by_shard((2, 2))
        self.vms: dict[str, list[int]] = {name: [] for name in self.names}
        self.rng = np.random.default_rng(5)

    def setup(self) -> list[list[dict]]:
        return [[{"op": "open_tenant", "tenant": name, "t": 0.5}
                 for name in self.names]] + [
            [{"op": "allocate", "tenant": name, "bytes": 2 << 20,
              "t": 0.6 + 0.1 * round} for name in self.names]
            for round in range(2)]

    def step(self, number: int) -> list[dict]:
        requests = []
        for position, name in enumerate(self.names):
            vms = self.vms[name]
            if number >= FIRST_FREE and number % 8 == FIRST_FREE % 8:
                request = {"op": "free", "vm": vms.pop(0)}
            elif number % 8 == 7:
                request = {"op": "allocate", "bytes": 1 << 20}
            else:
                request = {
                    "op": "access_batch", "vm": vms[number % len(vms)],
                    "segments": self.rng.integers(0, 8, BATCH).tolist(),
                    "writes": (self.rng.random(BATCH) < 0.3).tolist()}
            requests.append({**request, "tenant": name,
                             "t": 1.0 + 0.01 * number + 1e-6 * position})
        return requests


def live_segments_on_mpsm_ranks(server: DtlServer) -> list[tuple]:
    return [(shard.index, rank_id,
             shard.controller.allocator.usage(rank_id).allocated)
            for shard in server.shards
            for rank_id, rank in shard.controller.device.ranks.items()
            if rank.state is PowerState.MPSM
            and shard.controller.allocator.usage(rank_id).allocated]


async def steps(server: DtlServer, script: Script):
    """Apply ``script`` one step at a time; yield each step's number."""
    for number, requests in enumerate(
            script.setup() + [None] * STEPS, start=-3):
        if requests is None:
            requests = script.step(number)
        for request, reply in zip(
                requests, await submit(server, requests, False)):
            assert reply["ok"], (number, request["op"], reply)
            if reply["op"] == "allocate":
                script.vms[request["tenant"]].append(reply["vm"])
        yield number


async def run_script(chaos: bool) -> None:
    server = DtlServer(ServerConfig(chaos=chaos))
    await server.start(serve_tcp=False)
    try:
        async for number in steps(server, Script()):
            assert not live_segments_on_mpsm_ranks(server), number
            assert not server.audit_violations(), number
    finally:
        await server.drain()


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
def test_a_free_never_leaves_live_segments_on_an_mpsm_rank(chaos):
    asyncio.run(run_script(chaos))


def fenced_ranks(server: DtlServer) -> list[tuple]:
    return [(shard.index, rank_id)
            for shard in server.shards
            for rank_id in shard.controller.device.ranks
            if shard.controller.allocator.role(rank_id) is RankRole.FENCED]


def test_drain_and_restore_with_a_power_down_pending(tmp_path):
    """A server drained while a consolidation still copies restores to
    the same fingerprints, its victims still fenced."""
    path = str(tmp_path / "server.ckpt")

    async def scenario():
        server = DtlServer(ServerConfig(chaos=False))
        await server.start(serve_tcp=False)
        async for _ in steps(server, Script()):
            if fenced_ranks(server):
                break
        fenced = fenced_ranks(server)
        assert fenced
        await server.drain()
        server.write_checkpoint(path)
        restored = DtlServer(ServerConfig(chaos=False))
        restored.restore(path)
        assert fenced_ranks(restored) == fenced
        assert ([shard.fingerprint() for shard in restored.shards]
                == [shard.fingerprint() for shard in server.shards])

    asyncio.run(scenario())
