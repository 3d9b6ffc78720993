"""A ``free`` can leave live segments on an MPSM rank (ROADMAP item 1).

Present since before PR 23, recorded there, not fixed: with the service
geometry (``small_dtl_config``), chaos off and simulated time advancing
10 ms per step — so every channel sits in self-refresh with one standby
rank — the second round of tenants freeing their oldest VM parks a rank
pair in MPSM while segments allocated there are still mapped.  The audit
that follows says so, and the next ``access_batch`` that touches one
raises ``PowerStateError`` through the fault barrier (``internal``).

The cause: ``small_dtl_config`` migrates in the background, so
``_try_power_down_once`` *fences* its victim group — drops it from
``RankPowerDownPolicy._active`` — and leaves the ranks in ``STANDBY``
while their evacuation copies drain.  The self-refresh host never reads
``_active``: ``_execute_swaps`` takes any partner whose device state is
``STANDBY``, so a channel entering self-refresh swaps cold segments
onto the fenced victim.  When the copies have drained,
``_finish_pending`` (reached from ``apply_free`` -> ``_drain_migrations``
-> ``pump``) parks the victim in MPSM without checking what it holds.

The script below is the reproduction; the test is a strict ``xfail`` so
the fix — one owner for a rank's role, ROADMAP item 1 — cannot land
without turning it into a pass.  A fix changes what consolidation and
self-refresh do, which moves ``model_cost``: it does not belong in a
performance PR.
"""

import asyncio

import numpy as np
import pytest

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


async def run_script() -> None:
    server = DtlServer(ServerConfig(chaos=False))
    await server.start(serve_tcp=False)
    script = Script()
    try:
        for number, requests in enumerate(
                script.setup() + [None] * STEPS, start=-3):
            if requests is None:
                requests = script.step(number)
            for request, reply in zip(
                    requests, await submit(server, requests, False)):
                assert reply["ok"], (number, request["op"], reply)
                if reply["op"] == "allocate":
                    script.vms[request["tenant"]].append(reply["vm"])
            assert not live_segments_on_mpsm_ranks(server), number
            assert not server.audit_violations(), number
    finally:
        await server.drain()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="self-refresh swaps segments onto a fenced "
                          "power-down victim, which is then parked in MPSM "
                          "(ROADMAP item 1)")
def test_a_free_never_leaves_live_segments_on_an_mpsm_rank():
    asyncio.run(run_script())
