"""The ``server-soak`` experiment: the service's reliability gate.

Three phases, one per stepping advance, each self-contained and
deterministic (so the restore-at-step-k identity suite covers this
experiment like every other):

1. **concurrent** — ≥16 tenants drive the in-process request surface of
   a chaos-armed :class:`~repro.server.server.DtlServer` through the
   async load generator while a monitor task repeatedly scans for
   cross-tenant leaks; passes only with zero audit violations and zero
   leaks.
2. **drain_restore** — a scripted sequential campaign is cut in half:
   the first half runs on a server that is then drained to a real
   checkpoint file; a second server restores from it and serves the
   tail.  Every tail response, every shard fingerprint, and the
   telemetry counters must match an undrained control run bit-for-bit.
3. **isolation** — two tenants forced onto the same shard prove their
   mapped device segments are disjoint, and a battery of admission
   rejections (quota, ownership, range) must leave the shard
   fingerprint untouched.

The phases build all of their servers inside ``advance`` and store only
plain-data summaries in the run state, so a checkpoint between phases
is small and trivially restorable.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.checkpoint import SteppedExperiment
from repro.exec.hashing import derive_seed
from repro.seeded import SeededConfig
from repro.server.admission import AdmissionConfig
from repro.server.loadgen import (VM_BYTES, WRITE_FRACTION, LoadgenConfig,
                                  run_loadgen)
from repro.server.server import DtlServer, ServerConfig
from repro.server.shards import shard_of

PHASES = ("concurrent", "drain_restore", "isolation")

#: The concurrent leg frees and reallocates one VM every this many
#: requests.
CHURN_EVERY = 4
#: Controller shards under the soak's server.
SOAK_SHARDS = 2


@dataclass(frozen=True)
class ServerSoakConfig(SeededConfig):
    """Configuration of one server soak.

    Attributes:
        seed: One integer reproduces the whole soak bit-for-bit.
        tenants: Concurrent tenants in the chaos leg (the acceptance
            bar is ≥16).
        requests_per_tenant / batch / vms_per_tenant: Load-generator
            knobs for the concurrent leg (see
            :class:`~repro.server.loadgen.LoadgenConfig`).
        monitor_scans: Cross-tenant leak scans interleaved with the
            concurrent leg.
        script_tenants / script_requests: Shape of the sequential
            drain/restore campaign.
        script_batch: Accesses per scripted batch.
    """

    seed: int = 0
    tenants: int = 16
    requests_per_tenant: int = 6
    batch: int = 64
    vms_per_tenant: int = 2
    monitor_scans: int = 8
    script_tenants: int = 4
    script_requests: int = 24
    script_batch: int = 48

    def server_config(self, checkpoint_path: str | None = None,
                      ) -> ServerConfig:
        """The (chaos-armed) server both legs run against."""
        return ServerConfig(
            num_shards=SOAK_SHARDS, chaos=True,
            admission=AdmissionConfig(max_tenants=max(64, self.tenants)),
            telemetry_path=None, checkpoint_path=checkpoint_path,
            seed=self.seed)

    def loadgen_config(self) -> LoadgenConfig:
        """The concurrent leg's load-generator campaign."""
        return LoadgenConfig(
            tenants=self.tenants,
            requests_per_tenant=self.requests_per_tenant,
            batch=self.batch, vms_per_tenant=self.vms_per_tenant,
            churn_every=CHURN_EVERY,
            seed=derive_seed(self.seed, "loadgen"),
            tenant_prefix="soak-")


def quick_server_soak_config(**changes: Any) -> ServerSoakConfig:
    """A seconds-scale soak (still ≥16 tenants) for tests and smoke."""
    config = ServerSoakConfig(requests_per_tenant=3, batch=32,
                              vms_per_tenant=1, monitor_scans=4,
                              script_requests=12, script_batch=24)
    return config.replace(**changes) if changes else config


@dataclass
class ServerSoakResult:
    """Outcome of one soak (all phases)."""

    config: ServerSoakConfig
    concurrent: dict[str, Any] = field(default_factory=dict)
    drain_restore: dict[str, Any] = field(default_factory=dict)
    isolation: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every phase held its invariants."""
        return (self.concurrent.get("ok", False)
                and self.drain_restore.get("ok", False)
                and self.isolation.get("ok", False))

    def to_record(self):
        """Flatten into an :class:`~repro.sim.results.ExperimentRecord`."""
        from repro.sim.results import ExperimentRecord
        con, rep, iso = self.concurrent, self.drain_restore, self.isolation
        metrics: dict[str, Any] = {
            "tenants": self.config.tenants,
            "requests": con.get("requests", 0),
            "accesses": con.get("accesses", 0),
            "applied": con.get("applied", 0),
            "faults_injected": con.get("faults_injected", 0),
            "audits": con.get("audits", 0),
            "violations": con.get("violations", -1),
            "leak_scans": con.get("leak_scans", 0),
            "leaks": con.get("leaks", -1),
            "tail_requests": rep.get("tail_requests", 0),
            "tail_mismatches": rep.get("tail_mismatches", -1),
            "restore_fingerprint_match": rep.get("restore_match", False),
            "final_fingerprint_match": rep.get("final_match", False),
            "counters_match": rep.get("counters_match", False),
            "isolation_same_shard": iso.get("same_shard", False),
            "isolation_disjoint": iso.get("disjoint", False),
            "rejections_pure": iso.get("rejections_pure", False),
            "ok": self.ok,
        }
        return ExperimentRecord("server-soak", metrics,
                                {"violations": 0, "leaks": 0,
                                 "tail_mismatches": 0})


@dataclass
class ServerSoakState:
    """Phase progress of one stepped soak (plain data only)."""

    phase: int = 0
    concurrent: dict[str, Any] = field(default_factory=dict)
    drain_restore: dict[str, Any] = field(default_factory=dict)
    isolation: dict[str, Any] = field(default_factory=dict)


class ServerSoakExperiment(SteppedExperiment):
    """Multi-tenant service soak: chaos, drain/restore, isolation."""

    name = "server-soak"

    def __init__(self, config: ServerSoakConfig | None = None):
        self.config = config if config is not None \
            else ServerSoakConfig()

    # -- stepped execution -------------------------------------------------

    def begin(self) -> ServerSoakState:
        """No phases have run yet."""
        return ServerSoakState()

    def advance(self, state: ServerSoakState) -> bool:
        """Run one phase; True while more remain after."""
        if state.phase >= len(PHASES):
            return False
        phase = PHASES[state.phase]
        if phase == "concurrent":
            state.concurrent = asyncio.run(self._run_concurrent())
        elif phase == "drain_restore":
            state.drain_restore = self._run_drain_restore()
        else:
            state.isolation = asyncio.run(self._run_isolation())
        state.phase += 1
        return state.phase < len(PHASES)

    def finish(self, state: ServerSoakState) -> ServerSoakResult:
        """Combine the phase summaries into the soak verdict."""
        return ServerSoakResult(config=self.config,
                                concurrent=state.concurrent,
                                drain_restore=state.drain_restore,
                                isolation=state.isolation)

    # -- phase 1: concurrent chaos leg -------------------------------------

    async def _run_concurrent(self) -> dict[str, Any]:
        cfg = self.config
        server = DtlServer(cfg.server_config())
        await server.start(serve_tcp=False)
        leaks: list[str] = []
        scans = 0

        async def monitor() -> None:
            nonlocal scans
            for _ in range(cfg.monitor_scans):
                # A fixed yield count keeps the interleaving (and so
                # the whole phase) deterministic.
                for _ in range(64):
                    await asyncio.sleep(0)
                scans += 1
                leaks.extend(server.leak_report())

        report, _ = await asyncio.gather(
            run_loadgen(cfg.loadgen_config(),
                        request_fn=server.handle_request),
            monitor())
        leaks.extend(server.leak_report())
        scans += 1
        await server.drain()
        for shard in server.shards:
            shard.audit()
        violations = server.audit_violations()
        faults = sum(shard.injector.report().injected_total
                     for shard in server.shards
                     if shard.injector is not None)
        return {
            "requests": report.requests,
            "accesses": report.accesses,
            "ok_responses": report.ok,
            "rejected": dict(sorted(report.rejected.items())),
            "applied": server.applied_total,
            "audits": sum(shard.audits for shard in server.shards),
            "violations": len(violations),
            "violation_messages": violations[:10],
            "faults_injected": faults,
            "leak_scans": scans,
            "leaks": len(leaks),
            "leak_messages": leaks[:10],
            "fingerprints": [shard.fingerprint()
                             for shard in server.shards],
            "ok": not violations and not leaks,
        }

    # -- phase 2: drain / restore identity ---------------------------------

    def _script(self) -> list[tuple]:
        """The deterministic sequential campaign, as plain-data ops.

        Access ops carry segment *fractions* (resolved against the
        VM's reservation at replay time) and VM *indexes* (resolved
        against the tenant's sorted live-VM set), so the same script
        replays identically on the control, drained, and restored
        servers without knowing allocator-assigned IDs up front.
        """
        cfg = self.config
        rng = np.random.default_rng(derive_seed(cfg.seed, "script"))
        names = [f"script-{index}" for index in range(cfg.script_tenants)]
        ops: list[tuple] = []
        for name in names:
            ops.append(("open", name))
            ops.append(("alloc", name, VM_BYTES))
        for step in range(cfg.script_requests):
            name = names[step % len(names)]
            fractions = rng.random(cfg.script_batch).tolist()
            writes = (rng.random(cfg.script_batch) < WRITE_FRACTION).tolist()
            ops.append(("access", name, step % 2, fractions, writes))
            if step == cfg.script_requests // 3:
                ops.append(("close", names[-1]))
            if step == cfg.script_requests // 3 + 2:
                ops.append(("open", names[-1]))
                ops.append(("alloc", names[-1], VM_BYTES))
            if step % 5 == 4:
                ops.append(("free", name, 0))
                ops.append(("alloc", name, VM_BYTES))
        for name in names:
            ops.append(("close", name))
        return ops

    @staticmethod
    async def _apply_op(server: DtlServer, op: tuple,
                        t_s: float) -> dict[str, Any]:
        kind, tenant = op[0], op[1]
        request: dict[str, Any] = {"tenant": tenant, "t": t_s}
        if kind == "open":
            request["op"] = "open_tenant"
        elif kind == "alloc":
            request.update(op="allocate", bytes=op[2])
        elif kind == "close":
            request["op"] = "close"
        else:
            record = server.tenants.get(tenant)
            vms = sorted(record.vm_ids) if record is not None else []
            if not vms:
                return {"skipped": kind}
            if kind == "free":
                request.update(op="free", vm=vms[op[2] % len(vms)])
            else:  # access
                vm_id = vms[op[2] % len(vms)]
                segments = len(server.shards[record.shard].controller
                               .vm_handle(vm_id).au_ids) \
                    * server.shards[record.shard].controller \
                    .host_layout.segments_per_au
                request.update(
                    op="access_batch", vm=vm_id,
                    segments=[int(fraction * segments)
                              for fraction in op[3]],
                    writes=list(op[4]))
        return await server.handle_request(request)

    async def _apply_ops(self, server: DtlServer, ops: list[tuple],
                         start: int) -> list[dict[str, Any]]:
        return [await self._apply_op(server, op, 1.0 + 0.005 * index)
                for index, op in enumerate(ops[start:], start=start)]

    def _run_drain_restore(self) -> dict[str, Any]:
        cfg = self.config
        ops = self._script()
        cut = len(ops) // 2

        async def control_run() -> tuple[list[dict], list[str], dict]:
            server = DtlServer(cfg.server_config())
            await server.start(serve_tcp=False)
            responses = await self._apply_ops(server, ops, 0)
            await server.drain()
            return (responses,
                    [shard.fingerprint() for shard in server.shards],
                    server.metrics.counter_values())

        async def drained_run(path: str,
                              ) -> tuple[list[dict], list[str],
                                         list[str], dict]:
            first = DtlServer(cfg.server_config(checkpoint_path=path))
            await first.start(serve_tcp=False)
            await self._apply_ops(first, ops[:cut], 0)
            await first.drain()  # writes the checkpoint
            cut_prints = [shard.fingerprint() for shard in first.shards]

            second = DtlServer(cfg.server_config(checkpoint_path=path))
            second.restore(path)
            restore_prints = [shard.fingerprint()
                              for shard in second.shards]
            restore_match = restore_prints == cut_prints
            await second.start(serve_tcp=False)
            tail = await self._apply_ops(second, ops, cut)
            second.config = second.config.replace(checkpoint_path=None)
            await second.drain()
            final_prints = [shard.fingerprint()
                            for shard in second.shards]
            return (tail, final_prints,
                    ["match" if restore_match else "mismatch"],
                    second.metrics.counter_values())

        control, control_prints, control_counters = \
            asyncio.run(control_run())
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
            path = os.path.join(tmp, "server.ckpt")
            tail, final_prints, restore_marks, resumed_counters = \
                asyncio.run(drained_run(path))
        mismatches = sum(1 for a, b in zip(control[cut:], tail) if a != b)
        final_match = final_prints == control_prints
        counters_match = resumed_counters == control_counters
        restore_match = restore_marks == ["match"]
        return {
            "ops": len(ops),
            "cut": cut,
            "tail_requests": len(tail),
            "tail_mismatches": mismatches,
            "restore_match": restore_match,
            "final_match": final_match,
            "counters_match": counters_match,
            "ok": (mismatches == 0 and restore_match and final_match
                   and counters_match),
        }

    # -- phase 3: isolation under rejection --------------------------------

    async def _run_isolation(self) -> dict[str, Any]:
        cfg = self.config
        server = DtlServer(cfg.server_config())
        await server.start(serve_tcp=False)

        # Force two tenants onto the same shard (consistent hashing
        # makes the collision search deterministic).
        first = "iso-0"
        target = shard_of(first, SOAK_SHARDS)
        second = next(f"iso-{index}" for index in range(1, 1000)
                      if shard_of(f"iso-{index}", SOAK_SHARDS)
                      == target)

        async def call(**request: Any) -> dict[str, Any]:
            return await server.handle_request(request)

        t = 1.0
        for name in (first, second):
            await call(op="open_tenant", tenant=name, t=t)
            response = await call(op="allocate", tenant=name,
                                  bytes=VM_BYTES, t=t)
            await call(op="access_batch", tenant=name,
                       vm=response["vm"],
                       segments=list(range(8)), t=t)
            t += 0.1
        shard = server.shards[target]
        dsns_first = shard.dsns_of_host(server.tenants[first].host_id)
        dsns_second = shard.dsns_of_host(server.tenants[second].host_id)
        disjoint = not (dsns_first & dsns_second)

        # Every rejection below must bounce before touching the shard.
        before = shard.fingerprint()
        quota = await call(op="allocate", tenant=first, t=t,
                           bytes=server.config.admission.quota_bytes * 2)
        foreign_vm = sorted(server.tenants[second].vm_ids)[0]
        owner = await call(op="access_batch", tenant=first, t=t,
                           vm=foreign_vm, segments=[0])
        own_vm = sorted(server.tenants[first].vm_ids)[0]
        ranged = await call(op="access_batch", tenant=first, t=t,
                            vm=own_vm, segments=[1 << 40])
        codes = [quota.get("error"), owner.get("error"),
                 ranged.get("error")]
        rejections_pure = (shard.fingerprint() == before
                          and codes == ["quota_exceeded", "not_owner",
                                        "out_of_range"])
        shard.audit()
        await server.drain()
        violations = server.audit_violations()
        return {
            "same_shard": True,
            "collision_tenant": second,
            "disjoint": disjoint,
            "rejection_codes": codes,
            "rejections_pure": rejections_pure,
            "violations": len(violations),
            "ok": (disjoint and rejections_pure and not violations),
        }


__all__ = ["PHASES", "ServerSoakConfig", "ServerSoakResult",
           "ServerSoakState", "ServerSoakExperiment",
           "quick_server_soak_config"]
