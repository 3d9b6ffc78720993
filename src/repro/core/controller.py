"""The DTL controller: the library's primary public entry point.

:class:`DtlController` wires together every DTL subsystem — address
translation, segment allocation, migration, rank-level power-down, and
hotness-aware self-refresh — behind a small API:

* :meth:`allocate_vm` / :meth:`deallocate_vm` — the host-facing memory
  allocation interface (in AU multiples, as cloud control planes do).
* :meth:`access` — the CXL load/store path: HPA in, latency and routing out.
* :meth:`tick` / :meth:`end_window` — time hooks the simulators call.

Everything below this interface is invisible to the "host": no OS, MC, or
application changes are modelled, which is the paper's deployment story.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.addressing import (DeviceAddressLayout, HostAddressLayout,
                                   SegmentLocation, StructureSize)
from repro.core.allocator import SegmentAllocator
from repro.core.config import DtlConfig
from repro.core.migration import MigrationEngine, WeakCompletion, WriteRouting
from repro.core.power_down import PowerTransition, RankPowerDownPolicy
from repro.core.retirement import RankRetirementManager, RetirementRecord
from repro.core.self_refresh import HotnessSelfRefreshPolicy
from repro.core.tables import TranslationTables
from repro.core.translation import TranslationEngine
from repro.dram.device import DramDevice
from repro.dram.power import PowerState
from repro.dram.timing import CXL_MEMORY_LATENCY_NS
from repro.errors import AllocationError
from repro.policies import Policy, make_policy
from repro.telemetry import (EventKind, EventTrace, MetricsRegistry,
                             Snapshot)
from repro.units import CACHELINE_BYTES

#: Accesses one :meth:`DtlController.look_ahead` may hold when it spans
#: several calls.  What sharing the pass saves per 128-access call stops
#: growing around eight calls (docs/PERF.md, "Look-ahead across calls"),
#: and the bound keeps the transient arrays small whatever is queued.
LOOK_AHEAD_ACCESSES = 1024


@dataclass(frozen=True)
class VmHandle:
    """A live VM's reservation on the device."""

    vm_id: int
    host_id: int
    au_ids: tuple[int, ...]
    reserved_bytes: int


@dataclass
class AccessResult:
    """Outcome of one host memory access through the DTL."""

    hpa: int
    dsn: int
    dpa: int
    channel: int
    rank: int
    latency_ns: float
    smc_l1_hit: bool
    smc_l2_hit: bool
    wake_penalty_ns: float
    routed_to_new_dsn: bool


@dataclass
class BatchAccessResult:
    """Outcome of one vectorised batch of host accesses (array-of-struct).

    Every field but the total is an array with one element per input
    HPA, in input order; ``result[i]`` fields equal the
    :class:`AccessResult` the scalar path would have produced for the
    same access.
    """

    hpas: np.ndarray
    dsns: np.ndarray
    dpas: np.ndarray
    channels: np.ndarray
    ranks: np.ndarray
    latency_ns: np.ndarray
    smc_l1_hits: np.ndarray
    smc_l2_hits: np.ndarray
    wake_penalty_ns: np.ndarray
    routed_to_new_dsn: np.ndarray
    #: ``latency_ns.sum()``, as the call took it for its telemetry.
    total_latency_ns: float

    def __len__(self) -> int:
        return len(self.hpas)


@dataclass
class LookAhead:
    """What :meth:`DtlController.look_ahead` resolved, one element per
    access: the columns no between-call hook can change while
    :meth:`DtlController.look_ahead_calls` holds.

    ``served`` collects the ``dtl.*`` telemetry of the calls served so
    far and is shared by every slice; the slice that ends the look-ahead
    (``last``) folds it into the registry
    (:meth:`DtlController.serve_call`).
    """

    hpas: np.ndarray
    hsns: np.ndarray
    offsets: np.ndarray
    dsns: np.ndarray
    xlat_ns: np.ndarray
    l1_hits: np.ndarray
    l2_hits: np.ndarray
    channels: np.ndarray
    ranks: np.ndarray
    dpas: np.ndarray
    served: list = field(default_factory=list)
    last: bool = True

    def call(self, start: int, stop: int) -> "LookAhead":
        """The columns of the call occupying ``[start:stop]``, as views."""
        span = slice(start, stop)
        return LookAhead(self.hpas[span], self.hsns[span],
                         self.offsets[span], self.dsns[span],
                         self.xlat_ns[span], self.l1_hits[span],
                         self.l2_hits[span], self.channels[span],
                         self.ranks[span], self.dpas[span], self.served,
                         stop == self.hpas.size)


class DtlController:
    """Software-transparent DRAM translation layer in a CXL controller.

    Times are ``now_ns``, the integer-nanosecond clock (``repro.units``).
    """

    def __init__(self, config: DtlConfig | None = None,
                 cxl_latency_ns: float = CXL_MEMORY_LATENCY_NS,
                 metrics: MetricsRegistry | None = None,
                 trace: EventTrace | None = None):
        self.config = config or DtlConfig()
        geometry = self.config.geometry
        self.geometry = geometry
        self.cxl_latency_ns = cxl_latency_ns
        # One registry + one event trace shared by every subsystem below.
        # Pass MetricsRegistry.null() / EventTrace.disabled() to run the
        # datapath with zero telemetry overhead (see docs/PERF.md).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else EventTrace()
        self.host_layout = HostAddressLayout(geometry,
                                             au_bytes=self.config.au_bytes)
        self.device_layout = DeviceAddressLayout(geometry)
        self.device = DramDevice(geometry=geometry)
        self.device.attach_telemetry(self.metrics, self.trace)
        self.tables = TranslationTables(self.host_layout)
        self.translation = TranslationEngine(
            self.host_layout, self.tables, cache_config=self.config.cache,
            registry=self.metrics, trace=self.trace)
        self.allocator = SegmentAllocator(geometry)
        self.migration = MigrationEngine(
            geometry, on_complete=WeakCompletion(self._on_migration_complete),
            registry=self.metrics, trace=self.trace)
        # One shared Policy instance for both hosts, so idle-gap
        # observations made on the power-down side inform self-refresh
        # demotions and vice versa.
        self.policy: Policy | None = None
        if self.config.enable_power_down or self.config.enable_self_refresh:
            self.policy = make_policy(self.config.policy)
        self.power_down: RankPowerDownPolicy | None = None
        if self.config.enable_power_down:
            self.power_down = RankPowerDownPolicy(
                self.device, self.allocator, self.tables, self.migration,
                self.config, policy=self.policy,
                registry=self.metrics, trace=self.trace)
        self.self_refresh: HotnessSelfRefreshPolicy | None = None
        if self.config.enable_self_refresh:
            self.self_refresh = HotnessSelfRefreshPolicy(
                self.device, self.allocator, self.tables, self.translation,
                self.migration, self.config, policy=self.policy,
                registry=self.metrics, trace=self.trace)
        self.retirement: RankRetirementManager | None = None
        if self.power_down is not None:
            self.retirement = RankRetirementManager(
                self.device, self.allocator, self.tables, self.migration,
                self.power_down)
        # Plain integer (not itertools.count) so VM-ID progression is part
        # of the checkpointable state.
        self._next_vm_id = 1
        self._vms: dict[int, VmHandle] = {}
        # Per-host free-AU queues (Table 5 lists a "free AU queue").
        self._free_au_ids: dict[int, deque[int]] = {}
        self._accesses = self.metrics.counter("dtl.accesses")
        self._writes = self.metrics.counter("dtl.writes")
        self._redirects = self.metrics.counter("dtl.redirected_writes")
        self._access_latency = self.metrics.histogram("dtl.access_latency_ns")
        # Armed fault injector (None = zero-overhead no-op hooks; see
        # src/repro/faults/ and docs/FAULTS.md).
        self._faults = None

    # -- fault injection ---------------------------------------------------------

    def arm_faults(self, injector) -> None:
        """Arm a :class:`~repro.faults.injector.FaultInjector` here and on
        every subsystem below.  Pass ``None`` (or call
        :meth:`disarm_faults`) to restore the zero-overhead fast path."""
        self._faults = injector
        self.migration.arm_faults(injector)
        if self.power_down is not None:
            self.power_down.arm_faults(injector)
        if self.self_refresh is not None:
            self.self_refresh.arm_faults(injector)

    def disarm_faults(self) -> None:
        """Detach any armed fault injector from the whole datapath."""
        self.arm_faults(None)

    @property
    def access_count(self) -> int:
        """Total host accesses served (registry counter view)."""
        return self._accesses.value

    def table5_rows(self) -> dict[str, StructureSize]:
        """What each live structure declares against its Table 5 row.

        Entry counts are read from the arrays the controller runs on and
        entry widths from the two address layouts, so
        ``analysis.structures`` can be held against the implementation
        (``tests/core/test_table5_live.py``).  The host-base and
        AU-base tables have no live counterpart: the flat forward table
        is indexed by the packed HSN and needs neither.  The migration
        engine's outstanding-copy table is Section 4.2's migration
        registers, not a Table 5 row.
        """
        layout = self.host_layout
        rows = self.translation.smc.table5_rows(layout.hsn_bits,
                                                self.device_layout.dsn_bits)
        rows.update(self.tables.table5_rows())
        rows.update(self.allocator.table5_rows())
        if self.self_refresh is not None:
            rows.update(self.self_refresh.table5_rows())
        # One AU ID per AU of the device; kept per host (created on a
        # host's first allocation), each as long as the paper's queue.
        rows["free_au_queue"] = StructureSize(layout.max_aus_per_host,
                                              layout.au_id_bits)
        return rows

    # -- VM lifecycle -----------------------------------------------------------

    def _free_aus(self, host_id: int) -> deque[int]:
        if host_id not in self._free_au_ids:
            self.tables.register_host(host_id)
            self._free_au_ids[host_id] = deque(
                range(self.host_layout.max_aus_per_host))
        return self._free_au_ids[host_id]

    def aus_for_bytes(self, num_bytes: int) -> int:
        """Number of AUs needed to reserve ``num_bytes``."""
        au = self.config.au_bytes
        return max(1, -(-num_bytes // au))

    def allocate_vm(self, host_id: int, reserved_bytes: int,
                    now_ns: int = 0) -> VmHandle:
        """Reserve memory for a new VM (rounded up to whole AUs).

        If the active ranks lack capacity, powered-down rank-groups exit
        MPSM first (Section 3.3 step 5-6).
        """
        num_aus = self.aus_for_bytes(reserved_bytes)
        segments_needed = num_aus * self.host_layout.segments_per_au
        if self.power_down is not None:
            self.power_down.ensure_capacity(segments_needed, now_ns)
        free_aus = self._free_aus(host_id)
        if len(free_aus) < num_aus:
            raise AllocationError(
                f"host {host_id} has no free AU IDs for {num_aus} AUs")
        # One pass for the whole VM; it raises with the allocator
        # untouched, so the AU IDs leave their queue once it has passed.
        dsns = self.allocator.allocate(segments_needed)
        au_ids = tuple(free_aus.popleft() for _ in range(num_aus))
        self.tables.allocate_au(host_id, au_ids)
        self._wake_ranks_holding(dsns, now_ns)
        self.tables.map_au_segments(host_id, au_ids, dsns)
        vm = VmHandle(self._next_vm_id, host_id, au_ids,
                      num_aus * self.config.au_bytes)
        self._next_vm_id += 1
        self._vms[vm.vm_id] = vm
        return vm

    def deallocate_vm(self, vm: VmHandle,
                      now_ns: int = 0) -> list[PowerTransition]:
        """Release a VM's memory and run the power-down policy.

        Returns the power transitions (if any) the deallocation enabled.
        """
        if vm.vm_id not in self._vms:
            raise AllocationError(f"VM {vm.vm_id} is not live")
        self.translation.invalidate_batch(
            self.tables.au_hsns(vm.host_id, vm.au_ids))
        # Background copies may still be pending for this VM's segments;
        # retiring one later would remap an AU that no longer exists.  They
        # are cancelled, and each AU's reserved targets freed before its
        # segments (the free queues' order); a pending power-down whose
        # copies were all cancelled still parks on the next pump.
        copies_pending = self.migration.has_tracked_requests
        for au_ids in ([(au_id,) for au_id in vm.au_ids] if copies_pending
                       else [vm.au_ids]):
            dsns = self.tables.free_au(vm.host_id, au_ids)
            if copies_pending:
                dsns = np.concatenate((self.migration.cancel(dsns), dsns))
            self.allocator.free(dsns)
        self._free_aus(vm.host_id).extend(vm.au_ids)
        del self._vms[vm.vm_id]
        if self.power_down is not None:
            return self.power_down.maybe_power_down(now_ns)
        return []

    @property
    def live_vms(self) -> list[VmHandle]:
        """Currently allocated VMs."""
        return list(self._vms.values())

    def is_live(self, vm: VmHandle) -> bool:
        """True until ``vm`` is deallocated (VM IDs are never reused)."""
        return vm.vm_id in self._vms

    def vm_handle(self, vm_id: int) -> VmHandle:
        """Look up a live VM by ID (raises ``AllocationError`` if gone)."""
        try:
            return self._vms[vm_id]
        except KeyError:
            raise AllocationError(f"VM {vm_id} is not allocated") from None

    def reserved_bytes(self) -> int:
        """Total memory reserved by live VMs."""
        return self.allocator.allocated_count() * self.geometry.segment_bytes

    # -- access path -------------------------------------------------------------

    def access(self, host_id: int, hpa: int, is_write: bool = False,
               now_ns: int = 0) -> AccessResult:
        """One host load/store through the CXL + DTL datapath (an
        integral float ``now_ns`` rounds to the same int)."""
        now_ns = round(now_ns)
        host = self.host_layout
        # HPAs arriving from a host are host-local; fold in the host ID.
        au_id, au_offset = divmod(host.hsn_of_hpa(hpa), host.segments_per_au)
        hsn = host.pack_hsn(host_id, au_id, au_offset)
        dsn, xlat_ns, l1_hit, l2_hit = self.translation.translate_hsn(hsn)
        fault_ns = 0.0
        if self._faults is not None:
            # Hooks: smc.lookup (entry corruption) and cxl.access (link
            # error/stall); the corruption only affects *later* lookups.
            self._faults.on_smc_lookup(hsn, self.translation)
            fault_ns = self._faults.on_cxl_access(now_ns)
        routed_new = False
        if is_write:
            offset = self.host_layout.offset_of_hpa(hpa)
            line_index = offset // CACHELINE_BYTES
            routing = self.migration.on_foreground_write(dsn, line_index)
            if routing is WriteRouting.NEW_DSN:
                request = self.migration.request_for(dsn)
                if request is not None:
                    dsn = request.new_dsn
                    routed_new = True
        wake_ns = 0.0
        location = self.device_layout.unpack_dsn(dsn)
        if self.self_refresh is not None:
            wake_ns = self.self_refresh.on_access(dsn, now_ns)
        else:
            self.device.rank(location.channel, location.rank).record_access()
        if self._faults is not None:
            # Hook: dram.access (per-rank ECC error accounting).
            self._faults.on_dram_access(location.channel, location.rank,
                                        self.device, now_ns=now_ns)
        dpa = self.device_layout.dpa_of(
            dsn, self.host_layout.offset_of_hpa(hpa))
        latency_ns = self.cxl_latency_ns + xlat_ns + wake_ns + fault_ns
        self._accesses.inc()
        if is_write:
            self._writes.inc()
        if routed_new:
            self._redirects.inc()
        self._access_latency.observe(latency_ns)
        self.trace.record(EventKind.ACCESS, time=now_ns, hsn=hsn, dsn=dsn,
                          write=is_write, latency_ns=latency_ns)
        return AccessResult(
            hpa=hpa, dsn=dsn, dpa=dpa, channel=location.channel,
            rank=location.rank,
            latency_ns=latency_ns,
            smc_l1_hit=l1_hit, smc_l2_hit=l2_hit, wake_penalty_ns=wake_ns,
            routed_to_new_dsn=routed_new)

    def access_batch(self, host_id: int, hpas: np.ndarray,
                     writes: np.ndarray | None = None,
                     now_ns: int = 0) -> BatchAccessResult:
        """Vectorised :meth:`access` over a whole request array.

        Bit-identical to calling :meth:`access` once per element in
        order, armed fault injector included: DSNs, hit classes,
        per-access latencies, wake penalties, write routing,
        cache/counter state, power states, and the injector's visit and
        fire counters all match the scalar loop.

        The batch stays vectorised except where order can be observed,
        and then only the affected subset leaves the vector path:

        * writes to segments with a tracked migration run the engine's
          conflict protocol (in bulk, order collapsed inside it);
        * accesses that can change a channel's self-refresh state
          machine replay one at a time inside
          :meth:`HotnessSelfRefreshPolicy.on_access_batch`;
        * an ``smc.lookup`` corruption changes later translations, so
          the SMC lookup *cuts* a chunk there: translate up to and
          including the firing access, drop its entry, carry on in the
          same pass.  Every other access-path fault is additive
          (``cxl.access`` latency, ``dram.access`` ECC accounting) and
          costs no cut.

        Not guaranteed: the trace ring's ordering of ``ACCESS`` events
        against ``FAULT_INJECTED``/``ECC_ERROR``/``SR_EXIT`` events from
        the same batch (counts per kind match), and float histogram
        *totals* (see docs/PERF.md).
        """
        hpas = np.asarray(hpas, dtype=np.int64)
        n = len(hpas)
        if writes is None:
            writes = np.zeros(n, dtype=bool)
        else:
            writes = np.asarray(writes, dtype=bool)
            if len(writes) != n:
                raise ValueError(
                    f"writes length {len(writes)} != hpas length {n}")
        return self.serve_call(self.look_ahead(host_id, hpas, (n,)), writes,
                               round(now_ns))

    def look_ahead(self, host_ids: int | np.ndarray, hpas: np.ndarray,
                   stops: Sequence[int]) -> LookAhead:
        """The order-free half of the vector path, over one call or the
        concatenated accesses of several (:meth:`look_ahead_calls` says
        how many): address split, HSN packing, one SMC lookup, DSN
        decode and DPA math.

        ``stops`` are the calls' exclusive end offsets in ``hpas``, and
        ``host_ids`` is one host or a host ID per access.  The SMC, the
        translation counters and the injector's ``smc.lookup`` counters
        end where translating the calls one by one would leave them;
        everything a call can observe the time of happens in
        :meth:`serve_call`, one call's slice at a time
        (:meth:`LookAhead.call`).
        """
        hsns, offsets = self.host_layout.split_hpa_batch(hpas, host_ids)
        fires = ()
        if self._faults is not None:
            # Hook: smc.lookup (entry corruption), every fire among these
            # lookups; each drops its entry inside the translation, right
            # after its own lookup.
            fires = self._faults.on_smc_lookup_batch(hsns, self.translation)
        dsns, xlat_ns, l1_hits, l2_hits = \
            self.translation.translate_hsn_batch(hsns, stops, fires)
        channels, ranks, _ = self.device_layout.unpack_dsn_batch(dsns)
        dpas = self.device_layout.dpa_of_batch(dsns, offsets)
        return LookAhead(hpas, hsns, offsets, dsns, xlat_ns, l1_hits, l2_hits,
                         channels, ranks, dpas)

    def look_ahead_calls(self, lengths: Sequence[int],
                         ticks_ns: Sequence[int], now_ns: int) -> int:
        """How many of the next calls one :meth:`look_ahead` may cover.

        The caller holds ``len(lengths)`` calls in arrival order, serves
        the first at ``now_ns``, and after call ``j`` fires only
        ``tick(ticks_ns[j])``, :meth:`end_window` and
        :meth:`pump_migrations` before the next.  A look-ahead
        translates every call against the mappings and the SMC of this
        instant, so the answer is the longest prefix (at least one call)
        whose hooks provably cannot move a mapping or drop an SMC entry:

        * a queued or tracked migration retires inside a pump, so any
          one ends the prefix at the first call;
        * a tick enters self-refresh (executing the planned swaps) only
          once a channel has been quiet for the profiling threshold, so
          the prefix ends at the first boundary whose tick could
          (:meth:`HotnessSelfRefreshPolicy.quiet_floor_ns`);
        * ``LOOK_AHEAD_ACCESSES`` bounds what one look-ahead holds.

        An ``smc.lookup`` fire ends nothing: it drops its entry inside
        the look-ahead's own translation (:meth:`look_ahead`).
        """
        if (len(lengths) < 2 or self.migration.has_tracked_requests
                or self.migration.pending_count()):
            return 1
        policy = self.self_refresh
        floor_ns = None if policy is None else policy.quiet_floor_ns(now_ns)
        count = held = 0
        for length in lengths:
            held += length
            if held > LOOK_AHEAD_ACCESSES:
                break
            if count and floor_ns is not None and (
                    ticks_ns[count - 1] - floor_ns
                    >= policy.profiling_threshold_ns):
                break
            count += 1
        return max(1, count)

    def serve_call(self, call: LookAhead, writes: np.ndarray,
                   now_ns: int) -> BatchAccessResult:
        """The ordered half of the vector path for one call — a whole
        :meth:`look_ahead`, or its :meth:`LookAhead.call` slice of one:
        write routing, the self-refresh screen, the fault hooks and the
        ``dtl.*`` telemetry, all at ``now_ns``.

        A call's latencies are bucketed and summed as it is served; the
        slice that ends a look-ahead (raising or not) folds what every
        served slice counted into the ``dtl.*`` counters and histogram in
        one pass, the histogram total advancing once per call in call
        order.  So they end where serving the calls one by one leaves
        them, and a call that raises adds nothing to them.
        """
        try:
            return self._serve_slice(call, writes, now_ns)
        finally:
            if call.last:
                self._fold_served(call.served)

    def _serve_slice(self, call: LookAhead, writes: np.ndarray,
                     now_ns: int) -> BatchAccessResult:
        hsns, dsns = call.hsns, call.dsns
        channels, ranks, dpas = call.channels, call.ranks, call.dpas
        n = dsns.size
        routed_new = np.zeros(n, dtype=bool)
        num_writes = int(np.count_nonzero(writes))
        num_redirects = 0
        # Write routing: segments without a tracked migration route
        # OLD_DSN with no side effects, so only writes hitting tracked
        # segments run the conflict protocol, and those run it in bulk —
        # the engine collapses the order-sensitivity (one abort per
        # request, completion-bit redirects) internally.  The screen is
        # one gather from the engine's DSN-indexed slot array.
        if num_writes and self.migration.has_tracked_requests:
            hot = np.flatnonzero(writes & self.migration.is_tracked(dsns))
            if len(hot):
                offsets = call.offsets
                routed = self.migration.on_foreground_write_batch(
                    dsns[hot], offsets[hot] // CACHELINE_BYTES)
                if routed.any():
                    redirected = hot[routed]
                    dsns[redirected] = np.fromiter(
                        (self.migration.request_for(int(dsn)).new_dsn
                         for dsn in dsns[redirected]),
                        dtype=np.int64, count=len(redirected))
                    routed_new[redirected] = True
                    num_redirects = len(redirected)
                    # The look-ahead decoded the old DSNs.
                    channels[redirected], ranks[redirected], _ = \
                        self.device_layout.unpack_dsn_batch(dsns[redirected])
                    dpas[redirected] = self.device_layout.dpa_of_batch(
                        dsns[redirected], offsets[redirected])
        if self.self_refresh is not None:
            wake_ns = self.self_refresh.on_access_batch(dsns, channels,
                                                        ranks, now_ns)
        else:
            self.device.record_accesses(channels, ranks)
            wake_ns = np.zeros(n, dtype=np.float64)
        latency_ns = self.cxl_latency_ns + call.xlat_ns + wake_ns
        if self._faults is not None:
            # Hooks, none of which feeds back into the steps above:
            # cxl.access (additive latency, added last as in the scalar
            # sum) and dram.access (ECC accounting in access order);
            # smc.lookup fired inside the look-ahead's translation.
            latency_ns += self._faults.on_cxl_access_batch(n, now_ns)
            self._faults.on_dram_access_batch(channels, ranks, self.device,
                                              now_ns=now_ns)
        if self.trace.enabled:
            self.trace.record_tail(EventKind.ACCESS, time=now_ns, hsn=hsns,
                                   dsn=dsns, write=writes,
                                   latency_ns=latency_ns)
        total = float(np.add.reduce(latency_ns))  # ``latency_ns.sum()``
        call.served.append((n, num_writes, num_redirects,
                            self._access_latency.buckets_of(latency_ns),
                            total))
        return BatchAccessResult(
            hpas=call.hpas, dsns=dsns, dpas=dpas, channels=channels,
            ranks=ranks, latency_ns=latency_ns, smc_l1_hits=call.l1_hits,
            smc_l2_hits=call.l2_hits, wake_penalty_ns=wake_ns,
            routed_to_new_dsn=routed_new, total_latency_ns=total)

    def _fold_served(self, served: list) -> None:
        """The ``dtl.*`` telemetry of the calls in ``served``, in one
        pass; empties it."""
        accesses = writes = redirects = 0
        sums = []
        for n, num_writes, num_redirects, _, total in served:
            accesses += n
            writes += num_writes
            redirects += num_redirects
            if n:
                sums.append(total)
        self._accesses.inc(accesses)
        self._writes.inc(writes)
        self._redirects.inc(redirects)
        if sums:
            self._access_latency.fold(
                served[0][3] if len(served) == 1
                else np.concatenate([call[3] for call in served]), sums)
        served.clear()

    def _wake_ranks_holding(self, dsns: np.ndarray, now_ns: int) -> None:
        """Exit self-refresh on any rank receiving fresh allocations, one
        AU's ranks after another's: the VM's initialisation writes follow
        immediately, and a rank in self-refresh cannot accept commands."""
        if not any(rank.state is PowerState.SELF_REFRESH
                   for rank in self.device.ranks.values()):
            return  # the usual case: nothing to wake, nothing to decode
        for au_dsns in np.split(dsns, len(dsns)
                                // self.host_layout.segments_per_au):
            for rank_id in set(self.allocator.ranks_of_dsns(au_dsns)):
                if self.device.ranks[rank_id].state is PowerState.SELF_REFRESH:
                    self.device.set_rank_state(rank_id, PowerState.STANDBY,
                                               now_ns)

    def hpa_of(self, au_index: int, au_offset: int, byte_offset: int = 0) -> int:
        """Build a host-local HPA for AU ``au_index``, segment ``au_offset``."""
        hsn_local = au_index * self.host_layout.segments_per_au + au_offset
        return self.host_layout.hpa_of(hsn_local, byte_offset)

    def pump_migrations(self, now_ns: int, lines: int = 1,
                        busy_channels: set[int] | None = None) -> int:
        """Grant idle DRAM bandwidth to background consolidation copies.

        Only meaningful with ``background_migration=True``; returns the
        cachelines copied.
        """
        if self.power_down is None:
            return self.migration.step_all(busy_channels, lines)
        return self.power_down.pump(now_ns, lines, busy_channels)

    # -- reliability -----------------------------------------------------------------

    def retire_rank(self, channel: int, rank: int,
                    now_ns: int = 0) -> RetirementRecord:
        """Transparently retire a failing rank (reliability extension).

        Live segments are migrated off, the rank is fenced from all future
        allocation, and the device capacity shrinks by one rank — all
        invisible to the host.

        Raises:
            AllocationError: if the device has no retirement support
                (power-down disabled) or cannot absorb the evacuation.
        """
        if self.retirement is None:
            raise AllocationError(
                "rank retirement requires the power-down policy")
        return self.retirement.retire((channel, rank), now_ns)

    # -- time hooks ----------------------------------------------------------------

    def end_window(self) -> None:
        """Close the self-refresh access-count window (call every 0.5 ms)."""
        if self.self_refresh is not None:
            self.self_refresh.end_window()
        self.trace.record(EventKind.WINDOW_CLOSE)

    def tick(self, now_ns: int) -> None:
        """Advance self-refresh timers; may trigger migrations + SR entry."""
        if self.self_refresh is not None:
            self.self_refresh.tick(round(now_ns))

    # -- telemetry -------------------------------------------------------------------

    def telemetry_snapshot(self, now_ns: int | None = None) -> Snapshot:
        """Export every subsystem's metrics as one JSON-ready snapshot.

        Args:
            now_ns: When given, per-rank power-state residency includes the
                open interval up to this simulated time.
        """
        smc = self.translation.smc
        self.metrics.gauge("smc.l1.hit_ratio").set(smc.l1.stats.hit_ratio)
        self.metrics.gauge("smc.l2.hit_ratio").set(smc.l2.stats.hit_ratio)
        residency = self.device.residency_by_rank(now_ns)
        totals: dict[str, float] = {}
        for rank_key, states in residency.items():
            for state, seconds in states.items():
                totals[state] = totals.get(state, 0.0) + seconds
                self.metrics.gauge(
                    f"dram.rank.{rank_key}.residency_s.{state}").set(seconds)
        for state, seconds in totals.items():
            self.metrics.gauge(f"dram.residency_s.{state}").set(seconds)
        return self.metrics.snapshot(
            events=self.trace.counts_by_kind(),
            detail={"rank_residency_s": residency,
                    "trace": {"recorded": self.trace.recorded,
                              "dropped": self.trace.dropped}})

    # -- internals -------------------------------------------------------------------

    def _on_migration_complete(self, hsns: np.ndarray, old_dsns: np.ndarray,
                               new_dsns: np.ndarray) -> None:
        """Mapping updates after migration copies finish (Section 4.2)."""
        self.tables.remap_segments(hsns, new_dsns)
        self.translation.invalidate_batch(hsns)
        self.allocator.move_allocations(old_dsns, new_dsns)
        if self.self_refresh is not None:
            # The CLOCK access bit tracks the segment's contents, so it
            # moves with the data; otherwise the TSP would read stale
            # hotness for both the vacated and the filled slot.
            self.self_refresh.on_segments_moved(old_dsns, new_dsns)


__all__ = ["LOOK_AHEAD_ACCESSES", "VmHandle", "AccessResult",
           "BatchAccessResult", "LookAhead", "DtlController"]
