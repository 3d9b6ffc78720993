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
injected migration abort plus every :data:`AUDIT_EVERY` applied
requests.  This module owns that cadence: the access period, the pump
grants and the drain bound below.  The chaos soak
(:mod:`repro.faults.chaos`) is a scripted client of the synchronous
``apply_*`` methods, so the soak and the server run one harness.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.checker import ConsistencyChecker
from repro.core.config import DtlConfig
from repro.core.controller import (LOOK_AHEAD_ACCESSES, BatchAccessResult,
                                   DtlController, VmHandle)
from repro.cxl.link import CxlLinkConfig
from repro.errors import AllocationError, ReproError
from repro.faults.hooks import HookPoint
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

#: Consistency-audit cadence, in applied requests per shard; an injected
#: migration abort always audits at once.
AUDIT_EVERY = 64
#: Simulated time per access.
ACCESS_PERIOD_NS = 100.0
#: Background-migration cachelines granted after each access batch.
PUMP_LINES = 8
#: Cachelines granted per pump step while draining to quiescence.
DRAIN_PUMP_LINES = 16
#: Safety bound on drain pumping: an injector can abort copies, but every
#: abort spec is fire-capped, so a drain that needs more steps than this
#: is a livelock and is reported as a violation instead of hanging.
DRAIN_STEP_LIMIT = 100_000


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


class VmGone(ReproError):
    """A request reached its shard after the VM it names was freed."""


_STOP = object()


def _access_call(vm: VmHandle, segments: np.ndarray, lines: np.ndarray,
                 writes: np.ndarray, t_s: float | None = None) -> tuple:
    """A queued ``apply_access_batch``'s arguments, default filled in."""
    return vm, segments, lines, writes, t_s


class ControllerShard:
    """One single-writer DTL shard with its own clock, chaos, and audits.

    The synchronous ``apply_*`` methods are only ever called from the
    shard's apply task — that is the single-writer contract.  Async
    callers go through :meth:`submit`.
    """

    #: Process-lifetime tallies: look-aheads that served two or more
    #: queued access batches, and the requests served inside them.  They
    #: depend on arrival timing, so they are class-level defaults that
    #: stay out of :meth:`fingerprint` and of the pickled state.
    lookaheads = 0
    lookahead_calls = 0

    def __init__(self, index: int, config: DtlConfig,
                 fault_plan: FaultPlan | None = None,
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
        queue = self._queue
        while True:
            # Everything already waiting is served before the task
            # yields again (``get()`` does not suspend on a non-empty
            # queue), so taking it all at once changes no ordering.
            items = [await queue.get()]
            while not queue.empty():
                items.append(queue.get_nowait())
            try:
                if self._serve(items):
                    return
            finally:
                for _ in items:
                    queue.task_done()

    def _serve(self, items: list) -> bool:
        """Serve what the apply task found queued, in order; True once
        ``_STOP`` is reached.  Runs of access batches go through
        :meth:`_apply_lookahead` as far as :meth:`_quiet_prefix` allows;
        every other request is a barrier served on its own."""
        index = 0
        while index < len(items):
            if items[index] is _STOP:
                return True
            count = self._quiet_prefix(items, index)
            if count > 1:
                self._apply_lookahead(items[index:index + count])
            else:
                self._serve_one(items[index])
            index += count
        return False

    @staticmethod
    def _serve_one(item: tuple) -> None:
        fn, args, future = item
        if future.cancelled():
            return
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # typed by the server layer
            future.set_exception(exc)

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
        self.clock_ns = self._observed(self.clock_ns, t_s)

    @staticmethod
    def _observed(clock_ns: float, t_s: float | None) -> float:
        if t_s is None:
            return clock_ns
        return max(clock_ns, float(t_s) * 1e9)

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
        self._check_live(vm)
        self.observe_time(t_s)
        self.drain_migrations()
        self.controller.deallocate_vm(vm, now_s=self.now_s)
        self._after_apply()
        return vm.reserved_bytes

    def drain_migrations(self) -> None:
        """Pump background migrations until the queue is quiet, one
        access period per step, auditing after every injected abort."""
        steps = 0
        while self.controller.migration.pending_count():
            steps += 1
            if steps > DRAIN_STEP_LIMIT:
                self.violations.append(
                    f"shard {self.index}: migration drain exceeded "
                    f"{DRAIN_STEP_LIMIT} pump steps")
                break
            self.controller.pump_migrations(self.now_s,
                                            lines=DRAIN_PUMP_LINES)
            self.clock_ns += ACCESS_PERIOD_NS
            self._audit_on_abort()

    def apply_access_batch(self, vm: VmHandle, segments: np.ndarray,
                           lines: np.ndarray, writes: np.ndarray,
                           t_s: float | None = None) -> BatchAccessResult:
        """One validated access batch against ``vm``'s reservation.

        ``segments`` index the VM's own segment space (``0 ..
        num_aus*segments_per_au``); the caller has already bounds- and
        ownership-checked them, so nothing here can reach another
        tenant's mapping.
        """
        self._check_live(vm)
        self.observe_time(t_s)
        hpas = self._hpas_of(vm, segments, lines)
        result = self.controller.access_batch(vm.host_id, hpas, writes,
                                              now_ns=self.clock_ns)
        self._after_access(len(hpas))
        return result

    def vm_handle(self, vm_id: int) -> VmHandle:
        """The live handle of ``vm_id``.  A free of it may have been
        applied here before its reply dropped it from the tenant's
        record, so a gone VM is ``VmGone``, never ``AllocationError``."""
        try:
            return self.controller.vm_handle(vm_id)
        except AllocationError:
            raise VmGone(f"VM {vm_id} was freed before this request "
                         "reached its shard") from None

    def _check_live(self, vm: VmHandle) -> None:
        """The handle was checked when the request was enqueued; a free
        queued ahead of it (another connection of the same tenant) may
        have been applied since."""
        if not self.controller.is_live(vm):
            raise VmGone(f"VM {vm.vm_id} was freed before this request "
                         "reached its shard")

    def _hpas_of(self, vm: VmHandle, segments: np.ndarray,
                 lines: np.ndarray) -> np.ndarray:
        layout = self.controller.host_layout
        per_au = layout.segments_per_au
        au_ids = np.asarray(vm.au_ids, dtype=np.int64)[segments // per_au]
        hsn_local = au_ids * per_au + segments % per_au
        return (hsn_local << layout.segment_offset_bits) + lines * 64

    def _after_access(self, n: int) -> None:
        """The hooks between one applied access batch and the next."""
        controller = self.controller
        self.clock_ns += n * ACCESS_PERIOD_NS
        controller.tick(self.clock_ns)
        controller.end_window()
        controller.pump_migrations(self.now_s, lines=PUMP_LINES)
        self._after_apply()

    # -- look-ahead --------------------------------------------------------

    def _quiet_prefix(self, items: list, index: int) -> int:
        """How many queued requests from ``items[index]`` on one
        look-ahead may serve: consecutive, uncancelled calls of this
        shard's own :meth:`apply_access_batch` against live VMs, as far
        as :meth:`DtlController.look_ahead_calls` vouches for the hooks
        between them.  One means ``items[index]`` is served on its own."""
        if len(items) - index < 2:
            return 1  # nothing queued behind it: today's path, untouched
        lengths: list[int] = []
        ticks_ns: list[float] = []
        clock_ns = now_ns = self.clock_ns
        held = 0
        for item in itertools.islice(items, index, None):
            # No use scanning past what one look-ahead may hold.
            if item is _STOP or held >= LOOK_AHEAD_ACCESSES:
                break
            fn, args, future = item
            if fn != self.apply_access_batch or future.cancelled():
                break
            vm, segments, _, _, t_s = _access_call(*args)
            if not self.controller.is_live(vm):
                break
            # The clock apply_access_batch would serve it at, and tick on.
            clock_ns = self._observed(clock_ns, t_s)
            if not lengths:
                now_ns = clock_ns
            clock_ns += len(segments) * ACCESS_PERIOD_NS
            lengths.append(len(segments))
            ticks_ns.append(clock_ns)
            held += len(segments)
        if len(lengths) < 2:
            return 1
        return self.controller.look_ahead_calls(lengths, ticks_ns, now_ns)

    def _apply_lookahead(self, run: list) -> None:
        """Serve ``run`` — at least two calls :meth:`_quiet_prefix`
        vouched for — through one look-ahead, each exactly as
        :meth:`apply_access_batch` would have on its own: its clock,
        its slice, its hooks, its audit.

        An exception is delivered to the request whose slice raised, and
        the requests after it are still served from the look-ahead: a
        raising slice moves no mapping and no SMC entry, and the guard
        holds whether or not the hooks it skips run.  Should the
        look-ahead itself raise, the run is served one by one.
        """
        controller = self.controller
        calls = [_access_call(*args) for _, args, _ in run]
        hpas = [self._hpas_of(vm, segments, lines)
                for vm, segments, lines, _, _ in calls]
        lengths = [len(call_hpas) for call_hpas in hpas]
        stops = list(itertools.accumulate(lengths))
        try:
            ahead = controller.look_ahead(
                np.repeat([call[0].host_id for call in calls], lengths),
                np.concatenate(hpas), stops)
        except Exception:  # served singly, the raiser gets its own
            for item in run:
                self._serve_one(item)
            return
        self.lookaheads += 1
        self.lookahead_calls += len(run)
        start = 0
        for (_, _, future), (_, _, _, writes, t_s), stop \
                in zip(run, calls, stops):
            self.observe_time(t_s)
            try:
                result = controller.serve_call(ahead.call(start, stop),
                                               writes, self.clock_ns)
                self._after_access(stop - start)
            except Exception as exc:  # typed by the server layer
                future.set_exception(exc)
            else:
                future.set_result(result)
            start = stop

    def apply_stats(self) -> dict[str, Any]:
        """The shard controller's telemetry snapshot, as a dict."""
        return self.controller.telemetry_snapshot(now_s=self.now_s).to_dict()

    # -- chaos audits ------------------------------------------------------

    def _after_apply(self) -> None:
        """Bookkeeping after every applied mutation: the abort audit and
        the always-on audit cadence (one audit when both are due)."""
        self.applied += 1
        if not self._audit_on_abort() and self.applied % AUDIT_EVERY == 0:
            self.audit()

    def _audit_on_abort(self) -> bool:
        """Audit if an injected migration abort fired since the last
        check; True when it did."""
        if self.injector is None:
            return False
        aborts = self.injector.injected(HookPoint.MIGRATION_COPY)
        if aborts == self._aborts_seen:
            return False
        self._aborts_seen = aborts
        self.audit()
        return True

    def audit(self) -> None:
        """Run one consistency audit (tolerating in-flight migrations)."""
        self.audits += 1
        tolerance = self.controller.migration.pending_count()
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
        document over the mapping tables, allocator, power states, rank
        roles, clock, and every telemetry counter — if two shards agree
        here, they will serve identical futures.
        """
        controller = self.controller
        tables = controller.tables
        live = tables.live_dsns()
        mapping = list(zip(live, tables.hsns_of_dsns(live).tolist()))
        ranks = [[list(rank_id), rank.state.value, rank.access_count,
                  controller.allocator.role(rank_id).value]
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
        # loop.  A restored shard is idle until ``start()``, its
        # look-ahead tallies back at zero.
        state = {**self.__dict__, "_queue": None, "_worker": None}
        state.pop("lookaheads", None)
        state.pop("lookahead_calls", None)
        return state


__all__ = ["AUDIT_EVERY", "ACCESS_PERIOD_NS", "PUMP_LINES",
           "DRAIN_PUMP_LINES", "DRAIN_STEP_LIMIT", "shard_of",
           "TenantRecord", "VmGone", "ControllerShard"]
