"""Sharded controllers: the single-writer substrate behind the server.

Tenants are spread over ``num_shards`` independent
:class:`~repro.core.controller.DtlController` instances by a
*consistent* hash of the tenant name (:func:`shard_of` — SHA-256, not
``hash()``, so placement survives restarts and ``PYTHONHASHSEED``).
Each shard owns exactly one asyncio **apply task** draining a bounded
queue: every mutation of the bit-exact core happens on that task, in
submission order, so the controller never sees concurrent writers no
matter how many connections are live.  A full queue blocks the
submitting connection handler — backpressure, not buffering.

Each shard carries its own simulated clock (advanced by request
timestamps and per-access periods), an optional always-armed
:class:`~repro.faults.injector.FaultInjector`, and a
:class:`~repro.core.checker.ConsistencyChecker` that audits after every
injected migration abort plus every ``audit_every`` applied requests —
the chaos soak's discipline, running continuously.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.checker import ConsistencyChecker
from repro.core.config import DtlConfig
from repro.core.controller import BatchAccessResult, DtlController, VmHandle
from repro.cxl.link import CxlLinkConfig
from repro.faults.chaos import DRAIN_STEP_LIMIT
from repro.faults.hooks import HookPoint
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan


def shard_of(tenant: str, num_shards: int) -> int:
    """Consistent tenant→shard placement (stable across processes)."""
    digest = hashlib.sha256(tenant.encode()).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass
class TenantRecord:
    """Server-side registration of one tenant."""

    name: str
    shard: int
    host_id: int
    vm_ids: set[int] = field(default_factory=set)


_STOP = object()


class ControllerShard:
    """One single-writer DTL shard with its own clock, chaos, and audits.

    The synchronous ``apply_*`` methods are only ever called from the
    shard's apply task — that is the single-writer contract.  Async
    callers go through :meth:`submit`.
    """

    def __init__(self, index: int, config: DtlConfig,
                 fault_plan: FaultPlan | None = None,
                 access_period_ns: float = 100.0,
                 audit_every: int = 64,
                 pump_lines: int = 8,
                 queue_depth: int = 128):
        self.index = index
        self.controller = DtlController(config)
        self.injector: FaultInjector | None = None
        if fault_plan is not None:
            self.injector = FaultInjector(
                fault_plan, registry=self.controller.metrics,
                trace=self.controller.trace, link=CxlLinkConfig())
            self.controller.arm_faults(self.injector)
        self.checker = ConsistencyChecker(self.controller)
        self.access_period_ns = access_period_ns
        self.audit_every = audit_every
        self.pump_lines = pump_lines
        self.clock_ns = 0.0
        self.applied = 0
        self.audits = 0
        self.violations: list[str] = []
        self._aborts_seen = 0
        self._queue: asyncio.Queue | None = None
        self._queue_depth = queue_depth
        self._worker: asyncio.Task | None = None

    # -- apply-task lifecycle ----------------------------------------------

    def start(self) -> None:
        """Create the apply queue and spawn the single-writer task."""
        if self._worker is not None:
            return
        self._queue = asyncio.Queue(maxsize=self._queue_depth)
        self._worker = asyncio.get_running_loop().create_task(
            self._drain_queue(), name=f"dtl-shard-{self.index}")

    async def _drain_queue(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            try:
                if item is _STOP:
                    return
                fn, args, future = item
                if future.cancelled():
                    continue
                try:
                    future.set_result(fn(*args))
                except Exception as exc:  # typed by the server layer
                    future.set_exception(exc)
            finally:
                self._queue.task_done()

    async def submit(self, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` on the apply task; awaits the result.

        Blocks (backpressure) while the shard's queue is full.
        """
        if self._worker is None:
            raise RuntimeError(f"shard {self.index} is not started")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((fn, args, future))
        return await future

    async def stop(self) -> None:
        """Flush every queued request, then retire the apply task."""
        if self._worker is None:
            return
        await self._queue.put(_STOP)
        await self._worker
        self._worker = None
        self._queue = None

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting on the apply queue."""
        return self._queue.qsize() if self._queue is not None else 0

    # -- clock -------------------------------------------------------------

    @property
    def now_s(self) -> float:
        """The shard's simulated clock, in seconds."""
        return self.clock_ns / 1e9

    def observe_time(self, t_s: float | None) -> None:
        """Fold a request timestamp into the clock (never backwards)."""
        if t_s is not None:
            self.clock_ns = max(self.clock_ns, float(t_s) * 1e9)

    # -- single-writer operations ------------------------------------------

    def apply_allocate(self, host_id: int, num_bytes: int,
                       t_s: float | None = None) -> VmHandle:
        """Allocate a VM on this shard (raises ``AllocationError``)."""
        self.observe_time(t_s)
        vm = self.controller.allocate_vm(host_id, num_bytes,
                                         now_s=self.now_s)
        self._after_apply()
        return vm

    def apply_free(self, vm: VmHandle, t_s: float | None = None) -> int:
        """Free a VM; returns the bytes released.

        In-flight migrations are drained first: freeing a segment whose
        copy is mid-flight would leave the migration engine holding a
        dangling source (and retiring it would resurrect the freed
        mapping), so a free always lands on a quiesced queue — the
        discipline the consistency checker's migration-tracking audit
        enforces.
        """
        self.observe_time(t_s)
        self._drain_migrations()
        self.controller.deallocate_vm(vm, now_s=self.now_s)
        self._after_apply()
        return vm.reserved_bytes

    def _drain_migrations(self) -> None:
        """Pump background migrations until the queue is quiet."""
        steps = 0
        while self.controller.migration.pending_count():
            steps += 1
            if steps > DRAIN_STEP_LIMIT:
                self.violations.append(
                    f"shard {self.index}: migration drain exceeded "
                    f"{DRAIN_STEP_LIMIT} pump steps")
                break
            self.controller.pump_migrations(self.now_s, lines=16)
            self.clock_ns += self.access_period_ns

    def apply_access_batch(self, vm: VmHandle, segments: np.ndarray,
                           lines: np.ndarray, writes: np.ndarray,
                           t_s: float | None = None) -> BatchAccessResult:
        """One validated access batch against ``vm``'s reservation.

        ``segments`` index the VM's own segment space (``0 ..
        num_aus*segments_per_au``); the caller has already bounds- and
        ownership-checked them, so nothing here can reach another
        tenant's mapping.
        """
        self.observe_time(t_s)
        controller = self.controller
        layout = controller.host_layout
        per_au = layout.segments_per_au
        au_ids = np.asarray(vm.au_ids, dtype=np.int64)[segments // per_au]
        hsn_local = au_ids * per_au + segments % per_au
        hpas = (hsn_local << layout.segment_offset_bits) + lines * 64
        result = controller.access_batch(vm.host_id, hpas, writes,
                                         now_ns=self.clock_ns)
        self.clock_ns += len(hpas) * self.access_period_ns
        controller.tick(self.clock_ns)
        controller.end_window()
        controller.pump_migrations(self.now_s, lines=self.pump_lines)
        self._after_apply()
        return result

    def apply_stats(self) -> dict[str, Any]:
        """The shard controller's telemetry snapshot, as a dict."""
        return self.controller.telemetry_snapshot(now_s=self.now_s).to_dict()

    # -- chaos audits ------------------------------------------------------

    def _after_apply(self) -> None:
        """Bookkeeping after every applied mutation: drain progress and
        the always-on audit cadence."""
        self.applied += 1
        force = False
        if self.injector is not None:
            aborts = self.injector.injected(HookPoint.MIGRATION_COPY)
            if aborts > self._aborts_seen:
                self._aborts_seen = aborts
                force = True
        if force or (self.audit_every
                     and self.applied % self.audit_every == 0):
            self.audit()

    def audit(self) -> None:
        """Run one consistency audit (tolerating in-flight migrations)."""
        self.audits += 1
        tolerance = len(self.controller.migration.tracked_requests())
        outcome = self.checker.audit(balance_tolerance=tolerance)
        self.violations.extend(outcome.violations)

    # -- isolation ---------------------------------------------------------

    def dsns_of_host(self, host_id: int) -> set[int]:
        """Every device segment currently mapped for ``host_id``."""
        tables = self.controller.tables
        layout = self.controller.host_layout
        owned: set[int] = set()
        for au_id in tables.au_ids(host_id):
            for au_offset in range(layout.segments_per_au):
                dsn = tables.try_walk(
                    layout.pack_hsn(host_id, au_id, au_offset))
                if dsn is not None:
                    owned.add(int(dsn))
        return owned

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Value-identity digest of the shard's observable state.

        Deliberately *not* a pickle hash (pickle memoisation encodes
        aliasing, see docs/CHECKPOINT.md): this is a canonical JSON
        document over the mapping tables, allocator, power states,
        clock, and every telemetry counter — if two shards agree here,
        they will serve identical futures.
        """
        controller = self.controller
        tables = controller.tables
        mapping = [[dsn, tables.hsn_of_dsn(dsn)]
                   for dsn in sorted(tables.live_dsns())]
        ranks = [[list(rank_id), rank.state.value, rank.access_count]
                 for rank_id, rank in sorted(controller.device.ranks.items())]
        vms = [[vm.vm_id, vm.host_id, list(vm.au_ids)]
               for vm in sorted(controller.live_vms,
                                key=lambda vm: vm.vm_id)]
        extra = {}
        if controller.self_refresh is not None:
            bits = controller.self_refresh.access_bits
            extra["access_bits"] = hashlib.sha256(
                np.packbits(bits).tobytes()).hexdigest()
        document = {
            "clock_ns": self.clock_ns,
            "applied": self.applied,
            "audits": self.audits,
            "violations": list(self.violations),
            "counters": controller.metrics.counter_values(),
            "mapping": mapping,
            "ranks": ranks,
            "vms": vms,
            **extra,
        }
        return hashlib.sha256(json.dumps(
            document, sort_keys=True,
            separators=(",", ":")).encode()).hexdigest()

    # -- serialisation -----------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # The durable-field selection for server checkpoints: everything
        # but the asyncio plumbing, which belongs to the running event
        # loop.  A restored shard is idle until ``start()``.
        return {**self.__dict__, "_queue": None, "_worker": None}


__all__ = ["shard_of", "TenantRecord", "ControllerShard"]
