"""The two ``repro serve`` workloads: one request stream, chaos off and on.

An in-process :class:`~repro.server.server.DtlServer` (``serve_tcp=False``,
two shards) is driven **closed loop** by eight tenant coroutines on one
thread with no sockets: each tenant sends its next request only after the
previous reply, because tenants are hosts that wait for their loads.
Eight clients over two shards keep about four requests queued per shard,
so queue wait is visible.

Every request is a pre-encoded NDJSON line and goes
``decode_line -> handle_request -> encode -> decode_line`` (the server's
decode and encode, then the client's decode of the reply).  The only
bytes the client touches inside the timed loop are the VM id, which the
server assigns: lines carry a placeholder that is replaced on send.

``serve_chaos`` is the shipped default (``chaos=True``): an active fault
plan sends every batch through the controller's element-wise replay.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.server.protocol import decode_line, encode
from repro.server.server import DtlServer, ServerConfig
from repro.server.shards import shard_of
from repro.units import MIB

from common import Rep, Workload
from instrument import (counter_layer_counts, group_parks,
                        instrument_controller)

TENANTS = 8
NUM_SHARDS = 2
BATCH = 128
VMS_PER_TENANT = 2
VM_BYTES = 2 * MIB
CHURN_EVERY = 8          # free + allocate after every 8th access request
ZIPF_S = 1.2
WRITE_FRACTION = 0.3
TICK_S = 0.01            # logical seconds per request (token-bucket refill)
WARMUP_REQUESTS = 8      # per tenant, untimed, part of set-up
_VM = b'"vm":-1'         # placeholder the client replaces with a live VM id


@dataclass
class Tenant:
    name: str
    clock: float
    rng: np.random.Generator
    vms: list[int] = field(default_factory=list)
    segments: int = 0


@dataclass
class ServeSystem:
    server: DtlServer
    loop: asyncio.AbstractEventLoop
    tenants: list[Tenant]
    stream: list[list[bytes]]            # next repetition, per tenant
    generate_s: float = 0.0
    decode: object = decode_line
    encode: object = encode
    queue_depths: list[int] = field(default_factory=list)


class ServeWorkload(Workload):
    work_unit = "accesses"
    model_unit = "ns"  # simulated mean access latency tenants were told
    # Every repetition draws fresh segments and write masks, but request
    # ``i`` of a tenant is the same kind of request at the same place in
    # the closed-loop schedule (one thread, no timers: the interleaving
    # does not depend on timing), so its latencies compare across
    # repetitions.  The repetitions themselves overlap eight requests, so
    # their rate is not a sum of latencies.
    sequential = False
    chaos = False

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.requests_per_tenant = 16 if smoke else 40

    # -- generation --------------------------------------------------------

    def _lines(self, tenant: Tenant, requests: int) -> list[bytes]:
        """One tenant's next ``requests`` access batches, with churn."""
        ranks = np.arange(1, tenant.segments + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_S
        weights /= weights.sum()
        lines = []

        def line(message: dict) -> bytes:
            tenant.clock += TICK_S
            message.update(tenant=tenant.name, t=round(tenant.clock, 9),
                           vm=-1)
            return encode(message)

        for step in range(requests):
            segments = tenant.rng.choice(tenant.segments, size=BATCH,
                                         p=weights)
            writes = tenant.rng.random(BATCH) < WRITE_FRACTION
            lines.append(line({"op": "access_batch",
                               "segments": segments.tolist(),
                               "writes": writes.tolist()}))
            if (step + 1) % CHURN_EVERY == 0:
                lines.append(line({"op": "free"}))
                tenant.clock += TICK_S
                lines.append(encode({
                    "op": "allocate", "bytes": VM_BYTES,
                    "tenant": tenant.name, "t": round(tenant.clock, 9)}))
        return lines

    # -- set-up ------------------------------------------------------------

    def setup(self) -> ServeSystem:
        config = ServerConfig(num_shards=NUM_SHARDS, chaos=self.chaos,
                              seed=self.seed)
        server = DtlServer(config)
        loop = asyncio.new_event_loop()
        loop.run_until_complete(server.start(serve_tcp=False))
        # Tenant names are chosen so each shard gets the same number.
        names, per_shard, index = [], [0] * NUM_SHARDS, 0
        while len(names) < TENANTS:
            name = f"tenant-{index}"
            index += 1
            shard = shard_of(name, NUM_SHARDS)
            if per_shard[shard] < TENANTS // NUM_SHARDS:
                per_shard[shard] += 1
                names.append(name)
        tenants = [Tenant(name, float(position),
                          np.random.default_rng([self.seed, position]))
                   for position, name in enumerate(names)]
        system = ServeSystem(server, loop, tenants, [])
        loop.run_until_complete(self._open(system))
        system.stream = [self._lines(tenant, WARMUP_REQUESTS)
                         for tenant in tenants]
        self._run(system, None)  # warm-up session
        start = perf_counter()
        self.prepare(system)
        system.generate_s = perf_counter() - start
        return system

    def prepare(self, system: ServeSystem, tracer=None) -> None:
        if not system.stream:
            system.stream = [self._lines(tenant, self.requests_per_tenant)
                             for tenant in system.tenants]

    @staticmethod
    async def _open(system: ServeSystem) -> None:
        handle = system.server.handle_request
        for tenant in system.tenants:
            tenant.clock += TICK_S
            await handle({"op": "open_tenant", "tenant": tenant.name,
                          "t": tenant.clock})
            for _ in range(VMS_PER_TENANT):
                tenant.clock += TICK_S
                reply = await handle({"op": "allocate", "bytes": VM_BYTES,
                                      "tenant": tenant.name,
                                      "t": tenant.clock})
                tenant.vms.append(reply["vm"])
                tenant.segments = reply["segments"]

    # -- measurement -------------------------------------------------------

    def _run(self, system: ServeSystem, tracer) -> Rep:
        """Send the prepared stream; every tenant is one closed loop."""
        decode, send_encode = system.decode, system.encode
        handle = system.server.handle_request
        # Indexed by (tenant, request number), not by completion order.
        bases = [0]
        for lines in system.stream:
            bases.append(bases[-1] + len(lines))
        latencies = [0.0] * bases[-1]
        tally = {"requests": 0, "failed": 0, "accesses": 0, "replied_n": 0,
                 "sim_ns": 0.0, "bytes_in": 0, "bytes_out": 0}

        async def drive(position: int, tenant: Tenant,
                        lines: list[bytes]) -> None:
            base = bases[position]
            for number, line in enumerate(lines):
                if _VM in line:
                    # access_batch rotates over the VMs; free takes the
                    # oldest.
                    if b'"op":"free"' in line:
                        vm = tenant.vms.pop(0)
                    else:
                        vm = tenant.vms[number % len(tenant.vms)]
                    line = line.replace(_VM, b'"vm":%d' % vm)
                if tracer is not None:
                    tracer.set_op(position * 1_000_000 + number)
                start = perf_counter()
                request = decode(line)
                response = await handle(request)
                wire = send_encode(response)
                reply = decode(wire)
                latencies[base + number] = (perf_counter() - start) * 1e3
                tally["requests"] += 1
                tally["bytes_in"] += len(line)
                tally["bytes_out"] += len(wire)
                if not reply.get("ok"):
                    tally["failed"] += 1
                elif reply["op"] == "access_batch":
                    tally["accesses"] += BATCH
                    tally["replied_n"] += reply["n"]
                    tally["sim_ns"] += reply["total_latency_ns"]
                elif reply["op"] == "allocate":
                    tenant.vms.append(reply["vm"])

        async def session() -> None:
            await asyncio.gather(*(
                drive(position, tenant, lines) for position, (tenant, lines)
                in enumerate(zip(system.tenants, system.stream))))

        start = perf_counter()
        system.loop.run_until_complete(session())
        wall = perf_counter() - start
        system.stream = []
        sent = tally["accesses"]
        return Rep(wall_s=wall, work=sent, ops=tally["requests"],
                   failed=tally["failed"], latencies_ms=latencies,
                   model_cost=tally["sim_ns"] / sent if sent else 0.0,
                   counts=tally)

    def measure(self, system: ServeSystem, collect: bool, tracer) -> Rep:
        return self._run(system, tracer)

    def rep(self, system: ServeSystem, collect: bool = False,
            tracer=None) -> Rep:
        # Counter deltas are read outside the measured span.
        before = self._counters(system) if collect else None
        rep = super().rep(system, collect, tracer)
        if collect:
            after = self._counters(system)
            rep.counts.update({name: after[name] - before.get(name, 0)
                               for name in after})
        return rep

    @staticmethod
    def _counters(system: ServeSystem) -> dict[str, float]:
        """Public counters of the server and its shards, summed."""
        server = system.server
        totals = dict(server.metrics.counter_values())
        totals["rejected"] = sum(
            value for name, value in totals.items()
            if name.startswith("server.rejected."))
        for shard in server.shards:
            totals["applied"] = totals.get("applied", 0) + shard.applied
            totals["audits"] = totals.get("audits", 0) + shard.audits
            totals["violations"] = (totals.get("violations", 0)
                                    + len(shard.violations))
            totals["parks"] = (totals.get("parks", 0)
                               + group_parks(shard.controller))
            if shard.injector is not None:
                totals["faults"] = (totals.get("faults", 0)
                                    + shard.injector.injected_total)
            for name, value in \
                    shard.controller.metrics.counter_values().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    # -- tracing -----------------------------------------------------------

    def instrument(self, system: ServeSystem, tracer) -> None:
        server = system.server
        system.decode = tracer.wrap("protocol.decode", decode_line,
                                    light=True)
        system.encode = tracer.wrap("protocol.encode", encode, light=True)
        tracer.shadow(server, "handle_request", "server.handle",
                      coroutine=True)
        for method in ("admit_request", "admit_reservation", "reserve",
                       "release"):
            tracer.shadow(server.admission, method, "admission.admit",
                          light=True)
        for shard in server.shards:
            for method, sized in (("apply_access_batch", 1),
                                  ("apply_allocate", None),
                                  ("apply_free", None)):
                tracer.shadow(shard, method, "shards.apply", sized=sized)
            tracer.shadow(shard, "audit", "checker.audit")
            self._shadow_submit(system, shard, tracer)
            instrument_controller(tracer, shard.controller)

    @staticmethod
    def _shadow_submit(system: ServeSystem, shard, tracer) -> None:
        """``shard.submit`` as a coroutine span.  The applied function
        runs on the shard's own task, so it is handed the submitting
        request's operation id; queue depth is sampled on the way in."""
        submit = shard.submit

        def tagged_submit(fn, *args):
            op = tracer.current_op()
            system.queue_depths.append(shard.queue_depth)

            def apply(*inner):
                tracer.set_op(op)
                return fn(*inner)

            return submit(apply, *args)

        tracer.install(shard, "submit",
                       tracer.wrap_async("shards.submit", tagged_submit))

    # -- checks ------------------------------------------------------------

    def check(self, system: ServeSystem, twin: ServeSystem,
              first: Rep) -> list[str]:
        server = system.server
        failures = [f"audit: {line}" for line in server.audit_violations()[:5]]
        failures += [f"leak: {line}" for line in server.leak_report()[:5]]
        if first.failed:
            failures.append(f"{first.failed} responses were not ok")
        if first.counts["replied_n"] != first.counts["accesses"]:
            failures.append(
                f"replies account for {first.counts['replied_n']} accesses, "
                f"{first.counts['accesses']} were sent")
        return failures

    def layer_counts(self, system: ServeSystem,
                     first: Rep) -> dict[str, float]:
        counts = first.counts
        depths = system.queue_depths
        l1 = counts["smc.l1.hits"], counts["smc.l1.misses"]
        l2 = counts["smc.l2.hits"], counts["smc.l2.misses"]
        return {
            "protocol.bytes_in": counts["bytes_in"],
            "protocol.bytes_out": counts["bytes_out"],
            "server.requests": counts["server.requests"],
            "server.rejected": counts["rejected"],
            "server.internal_errors":
                counts.get("server.internal_errors", 0),
            "admission.rejections": counts["rejected"],
            "shards.applied": counts["applied"],
            "shards.queue_depth_mean":
                sum(depths) / len(depths) if depths else 0.0,
            "checker.audits": counts["audits"],
            "checker.violations": counts["violations"],
            "faults.injected": counts.get("faults", 0),
            "segment_cache.l1_hit_ratio": l1[0] / max(1, sum(l1)),
            "segment_cache.l2_hit_ratio": l2[0] / max(1, sum(l2)),
            "segment_cache.fills": counts["translation.table_walks"],
            "translation.sim_mean_ns": counts["translation.latency_total_ns"]
            / max(1, counts["translation.count"]),
            "power_down.transitions": counts["parks"],
            "migration.redirected_writes":
                counts["dtl.redirected_writes"],
            **counter_layer_counts(
                counts, system.server.config.dtl.geometry.segment_bytes),
            "workloads.generate_s": system.generate_s,
        }

    def checkpoint_probe(self, twin: ServeSystem):
        """Cost of the server's own drain checkpoint and of restoring it
        into a fresh server; the restored shards must fingerprint equal."""
        server = twin.server
        with tempfile.TemporaryDirectory(dir=os.getcwd(),
                                         prefix=".bench_ckpt_") as directory:
            path = os.path.join(directory, "server.ckpt")
            start = perf_counter()
            server.write_checkpoint(path)
            saved = perf_counter()
            fresh = DtlServer(server.config)
            fresh.restore(path)
            restored = perf_counter()
            size = os.path.getsize(path)
        same = all(old.fingerprint() == new.fingerprint()
                   for old, new in zip(server.shards, fresh.shards))
        return ({"checkpoint.server_save_s": saved - start,
                 "checkpoint.server_restore_s": restored - saved,
                 "checkpoint.server_bytes": size},
                [] if same else ["restored server's shard fingerprints "
                                 "differ from the checkpointed server's"])

    def close(self, system: ServeSystem) -> None:
        system.loop.run_until_complete(system.server.drain())
        system.loop.close()


class ServeClean(ServeWorkload):
    name = "serve_clean"


class ServeChaos(ServeWorkload):
    name = "serve_chaos"
    chaos = True
