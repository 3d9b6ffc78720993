"""Per-call dispatch budgets, as counts: a served ``access_batch``, the
SMC chunks of one long cold call, the control plane's ``allocate_vm`` /
``deallocate_vm``, and a served ``free`` that drains background copies.

A 128-access request costs what its fixed per-call work costs, and most
of that is dispatch: one C-level call per numpy function, array method,
dict probe or list append the datapath makes.  ``sys.setprofile`` reports
each as a ``c_call`` event, so "fewer dispatches" is a number that
repeats exactly and needs no stopwatch (docs/PERF.md, "Short calls",
records it for the parent commit and for this one).  The control-plane
pins at the bottom count the same way: the allocator, the tables and the
migration engine move an AU's segments as arrays, so a per-segment loop
creeping back into them shows as a thousand more dispatches per AU
(docs/PERF.md, "Control plane").
"""

from __future__ import annotations

import gc
import itertools
import sys

import numpy as np

from repro.core.config import DtlConfig, small_dtl_config
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.faults.hooks import HookPoint
from repro.server.server import server_fault_plan
from repro.server.shards import ControllerShard
from repro.units import GIB, MIB, s_to_ns

from tests.core.test_batch_identity import (SERVED_AUS, SERVED_HOSTS,
                                            SERVED_VMS, build_pair,
                                            chunks_per_lookup,
                                            serve_looking_ahead,
                                            serve_one_by_one, serve_step,
                                            served_call, served_config)

#: C-level calls the measured steady-state 128-access call may make.
#: Before the one-pass codec and the SMC's per-chunk bookkeeping cuts
#: it made 235, and this tree makes 160 (Python 3.11, numpy 2.4); the
#: bound sits between them.
C_CALL_BUDGET = 200
WARM_CALLS = 48


def c_calls(function) -> int:
    """How many C-level calls ``function()`` makes.  The collector is
    off meanwhile: a collection would count the calls of whatever
    ``gc.callbacks`` other code has registered."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "c_call":
            count += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return count


def warmed(controller: DtlController) -> int:
    """Serve ``WARM_CALLS`` requests; returns the clock afterwards."""
    clock_ns = 0
    for call in range(WARM_CALLS):
        host_id, hpas, writes = served_call(controller, call)
        controller.access_batch(host_id, hpas, writes, now_ns=clock_ns)
        clock_ns = serve_step(controller, clock_ns, len(hpas))
    return clock_ns


def test_served_call_stays_inside_its_dispatch_budget():
    first, second = build_pair(served_config(), SERVED_AUS, SERVED_HOSTS,
                               SERVED_VMS)
    counts = []
    for controller in (first, second):
        clock_ns = warmed(controller)
        host_id, hpas, writes = served_call(controller, WARM_CALLS)
        result = []
        counts.append(c_calls(lambda: result.append(
            controller.access_batch(host_id, hpas, writes,
                                    now_ns=clock_ns))))
        # The call measured is the served shape, not an easy one: one
        # chunk's worth of distinct segments, most of them evicted from
        # L1 by the other tenants since this VM's last turn.
        l1_misses = int((~result[0].smc_l1_hits).sum())
        assert 8 <= l1_misses <= controller.config.cache.l1_entries
    assert counts[0] == counts[1]  # a count, so it repeats exactly
    assert counts[0] <= C_CALL_BUDGET


#: C-level calls of the four calls' datapath served through one
#: look-ahead: 661 before the cuts to its fixed cost, 475 in this tree
#: (one by one: 915 and 624).  So the share the look-ahead saves fell
#: from 28 % to 24 %: the cuts took more from every call than from the
#: one shared pass.
LOOK_AHEAD_BUDGET = 560


def test_look_ahead_over_four_calls_dispatches_less_than_four_calls():
    """What a shard saves by serving four queued requests through one
    look-ahead, hooks excluded (they run once per request either way):
    the split, the packing, the SMC lookup and the decode are entered
    once, not four times."""
    def dispatches(serve) -> tuple[int, tuple]:
        """C-level calls inside the datapath calls ``serve`` makes for
        the next four requests of a freshly warmed controller, and what
        ``serve`` returned."""
        controller = build_pair(served_config(), SERVED_AUS, SERVED_HOSTS,
                                SERVED_VMS)[0]
        clock_ns = warmed(controller)
        queued = [(*served_call(controller, call), None)
                  for call in range(WARM_CALLS, WARM_CALLS + 4)]
        total = 0

        def counted(datapath_call):
            nonlocal total
            result = []
            total += c_calls(lambda: result.append(datapath_call()))
            return result[0]

        served = serve(controller, queued, clock_ns, counted)
        return total, served

    singles, _ = dispatches(serve_one_by_one)
    shared, (_, _, prefixes) = dispatches(serve_looking_ahead)
    assert prefixes == [4]
    assert dispatches(serve_looking_ahead)[0] == shared  # repeats exactly
    assert shared <= 0.85 * singles
    assert shared <= LOOK_AHEAD_BUDGET


# -- a served request's hooks and ordered half ---------------------------------

#: Dispatches — Python calls and C-level calls — of four served requests
#: outside their look-ahead: each one's ``serve_call`` slice and the
#: ``tick`` / ``end_window`` / ``pump_migrations`` after it, on a
#: controller in the ``serve_clean`` shard's state.  The tree before the
#: idle-tick skip made 758, where a tick's two failing ``start_profiling``
#: calls re-derived the standby blocks of channels with one open rank.
#: Before the slice reused its latency total, its reductions went
#: through numpy's Python wrappers and an event was built as it was
#: recorded, they made 274; this tree makes 262.  The bound sits between.
SERVED_REQUESTS_BUDGET = 268
SERVED_VM_BYTES = 2 * MIB


def dispatches(function) -> int:
    """Python calls plus C-level calls ``function()`` makes (the
    collector off, as in :func:`c_calls`)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return count


def serve_clean_shard_state():
    """A controller as a ``serve_clean`` shard holds it: four tenants'
    eight 2 MiB VMs on the server's device, and a ninth VM's free has
    parked every rank they leave empty — one open standby rank and three
    parked ones per channel."""
    controller = DtlController(small_dtl_config())
    vms = [controller.allocate_vm(host, SERVED_VM_BYTES, now_ns=0)
           for host in range(4) for _ in range(2)]
    controller.deallocate_vm(
        controller.allocate_vm(4, SERVED_VM_BYTES, now_ns=0),
        now_ns=s_to_ns(1e-3))
    clock_ns = 1_000_000
    while controller.migration.pending_count():
        clock_ns = serve_step(controller, clock_ns, 128)
    geometry = controller.geometry
    for channel in range(geometry.channels):
        ranks = [(controller.allocator.role((channel, rank)).value,
                  controller.device.ranks[channel, rank].state.name)
                 for rank in range(geometry.ranks_per_channel)]
        assert sorted(ranks) == [("open", "STANDBY")] + [("parked",
                                                          "MPSM")] * 3
    return controller, vms, clock_ns


def tenant_request(controller: DtlController, vms, call: int):
    """Request ``call`` of the stream: a ``serve_clean`` tenant's 128
    accesses (zipf 1.2 over its VM's 16 segments, 30 % writes)."""
    vm = vms[call % len(vms)]
    layout = controller.host_layout
    rng = np.random.default_rng(call)
    weights = np.arange(1, 17, dtype=np.float64) ** -1.2
    segments = rng.choice(16, size=128, p=weights / weights.sum())
    au_ids = np.asarray(vm.au_ids)[segments // layout.segments_per_au]
    hsn_local = au_ids * layout.segments_per_au + segments \
        % layout.segments_per_au
    return (vm.host_id, hsn_local * controller.geometry.segment_bytes,
            rng.random(128) < 0.3)


def test_served_requests_pay_only_for_hooks_that_can_act():
    counts = []
    for _ in range(2):
        controller, vms, clock_ns = serve_clean_shard_state()
        for call in range(0, WARM_CALLS + 4, 4):
            queued = [(*tenant_request(controller, vms, number), None)
                      for number in range(call, call + 4)]
            if call < WARM_CALLS:
                _, clock_ns, prefixes = serve_looking_ahead(
                    controller, queued, clock_ns)
                assert prefixes == [4]
                continue
            stops = list(itertools.accumulate(len(hpas) for _, hpas, _, _
                                              in queued))
            ahead = controller.look_ahead(
                np.repeat([host for host, _, _, _ in queued], 128),
                np.concatenate([hpas for _, hpas, _, _ in queued]), stops)

            def four_requests():
                clock = clock_ns
                start = 0
                for (_, _, writes, _), stop in zip(queued, stops):
                    controller.serve_call(ahead.call(start, stop), writes,
                                          clock)
                    clock = serve_step(controller, clock, stop - start)
                    start = stop

            counts.append(dispatches(four_requests))
    assert counts[0] == counts[1]  # a count, so it repeats exactly
    assert counts[0] <= SERVED_REQUESTS_BUDGET


# -- a short call -----------------------------------------------------------

#: Dispatches — Python calls and C-level calls — of a length-1
#: ``access_batch`` on one warmed AU: 196 (114 of them C-level) before
#: the one-pass codec, the hit-class table and the SMC bookkeeping cuts,
#: 127 (87) in this tree.  The bound is the per-call floor's first
#: target (ROADMAP item 22); its stretch goal is 100.
SHORT_CALL_BUDGET = 130


def test_a_length_one_call_pays_a_short_fixed_cost():
    controller = DtlController(small_dtl_config())
    controller.allocate_vm(0, controller.config.au_bytes, now_ns=0)
    hpas = np.array([controller.hpa_of(0, 3, 64)], dtype=np.int64)
    for _ in range(8):  # the AU's segment in both SMC levels
        controller.access_batch(0, hpas, now_ns=1_000)
    l1 = controller.translation.smc.l1.stats
    hits = l1.hits
    counts = [dispatches(lambda: controller.access_batch(0, hpas,
                                                         now_ns=1_000))
              for _ in range(2)]
    assert l1.hits - hits == 2  # the warm path: an L1 hit each
    assert counts[0] == counts[1]  # a count, so it repeats exactly
    assert counts[0] <= SHORT_CALL_BUDGET


# -- the SMC chunks of a long cold call --------------------------------------

#: Accesses in the measured call (and in the warm call before it).
COLD_CALL = 20_000
#: Chunks the measured call may take.  Cutting a chunk in advance — at
#: the fifth distinct of an L2 set, or wherever an L1-resident distinct
#: and a full miss share a set — took 139 on this stream; cutting only
#: where a fill actually breaks the bulk commit takes 67.
COLD_CHUNK_BUDGET = 80


def test_cold_call_ends_chunks_only_where_it_must():
    """The ``datapath_cold`` shape: policies off, zipf 1.5 over four AUs,
    ≈1 000 distinct segments a call against a 64-entry L1 and a
    1 024-entry L2, so nearly every chunk ends at a cut."""
    counts = []
    for _ in range(2):
        config = DtlConfig(enable_self_refresh=False,
                           enable_power_down=False)
        controller = DtlController(config)
        controller.allocate_vm(0, 4 * config.au_bytes)
        rng = np.random.default_rng(0)
        segment = config.geometry.segment_bytes
        segments = 4 * config.au_bytes // segment
        warm, measured = ((rng.zipf(1.5, COLD_CALL) % segments) * segment
                          + rng.integers(0, segment, COLD_CALL)
                          for _ in range(2))
        controller.access_batch(0, warm)
        chunks = chunks_per_lookup(controller)
        controller.access_batch(0, measured)
        counts.append(chunks[0])
    assert counts[0] == counts[1]  # a count, so it repeats exactly
    assert counts[0] <= COLD_CHUNK_BUDGET


# -- the long hot call --------------------------------------------------------

#: Accesses in the measured long call (and in the warm call before it).
HOT_CALL = 20_000
#: numpy's set operations, by the name of their Python implementation.
SET_OPERATIONS = frozenset({"isin", "in1d", "unique", "intersect1d",
                            "setdiff1d", "setxor1d", "union1d"})


def set_operations_and_wide_sorts(function) -> tuple[int, int, int]:
    """``(isin-like calls, unique-like calls, comparison sorts)`` that
    ``function()`` makes.  A comparison sort is an ndarray ``argsort`` or
    ``sort`` of a key wider than 16 bits: numpy sorts a 16-bit key
    stably by counting."""
    isins = uniques = sorts = 0

    def profiler(frame, event, arg):
        nonlocal isins, uniques, sorts
        if event == "call":
            name = frame.f_code.co_name
            if name in SET_OPERATIONS and "numpy" in frame.f_code.co_filename:
                if name in ("isin", "in1d"):
                    isins += 1
                else:
                    uniques += 1
        elif event == "c_call" and getattr(arg, "__name__", None) in (
                "argsort", "sort"):
            key = getattr(arg, "__self__", None)
            if isinstance(key, np.ndarray) and key.dtype.itemsize > 2:
                sorts += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return isins, uniques, sorts


def hot_controller():
    """The ``datapath_hot`` shape: both policies on, a victim rank
    profiled on every channel, three tracked migrations, 30 % writes,
    zipf 2.0 over four AUs; warmed with one call of the same accesses,
    then every copy stepped half-way so a conflicting write aborts."""
    config = DtlConfig()
    controller = DtlController(config)
    controller.allocate_vm(0, 4 * config.au_bytes)
    rng = np.random.default_rng(0)
    segment = config.geometry.segment_bytes
    segments = 4 * config.au_bytes // segment
    hpas = ((rng.zipf(2.0, HOT_CALL) % segments) * segment
            + rng.integers(0, segment, HOT_CALL))
    writes = rng.random(HOT_CALL) < 0.3
    layout, allocator = controller.device_layout, controller.allocator
    for dsn in controller.tables.live_dsns()[:3]:
        partner = next(
            candidate for candidate in range(config.geometry.total_segments)
            if layout.channel_of_dsn(candidate) == layout.channel_of_dsn(dsn)
            and not allocator.is_allocated(candidate))
        allocator.reserve_specific(partner)
        controller.migration.submit(controller.tables.hsn_of_dsn(dsn), dsn,
                                    partner)
    for hpa in hpas[:2_000].tolist():
        controller.access(0, hpa, False, now_ns=0.0)
    controller.end_window()
    controller.tick(0.0)
    controller.access_batch(0, hpas, writes, now_ns=1_000.0)
    # Half of every copy done: a write to its first half aborts it.
    controller.migration.step_all(
        lines=controller.migration.lines_per_segment // 2)
    return controller, hpas, writes


def test_long_call_makes_no_set_operation_and_no_comparison_sort():
    """Every pass over a long call's accesses is O(n): the SMC prelude
    sorts 16-bit digits, and the write screen and the migration engine
    index DSN-sized arrays."""
    count = set_operations_and_wide_sorts
    assert count(lambda: np.argsort(np.arange(3))) == (0, 0, 1)
    assert count(lambda: np.argsort(np.arange(3, dtype=np.uint16),
                                    kind="stable")) == (0, 0, 0)
    assert count(lambda: np.isin(np.arange(4), [1]))[0] == 1
    assert count(lambda: np.unique([2, 1]))[1] == 1
    counts = []
    for _ in range(2):
        controller, hpas, writes = hot_controller()
        migration = controller.migration
        aborts = migration.stats.aborts
        counts.append(count(lambda: controller.access_batch(
            0, hpas, writes, now_ns=1_000.0)))
        # The call ran the write screen's conflict path, not a no-op.
        assert migration.has_tracked_requests
        assert migration.stats.aborts > aborts
    assert counts[0] == counts[1]  # counts, so they repeat exactly
    assert counts[0] == (0, 0, 0)


# -- the control plane ---------------------------------------------------------

#: C-level calls ``allocate_vm`` of one VM may make, whether it is one
#: 2 GiB AU of 1 024 segments or sixteen 256 MiB AUs.  Deque/set/dict
#: books made 1 103 for the first, the array books make 57; a pass per
#: AU made 1 109 for the second, a pass per VM makes 92.
ALLOCATE_VM_BUDGET = 150
#: ... and a ``deallocate_vm`` of a 12 GiB VM (six AUs) whose
#: consolidation moves 2 048 live segments of another VM and parks three
#: rank pairs: 17 085 with per-segment books, 653 now.  One Python step
#: per moved segment in any one of the three structures is 2 048 more.
DEALLOCATE_VM_BUDGET = 1_800
#: What a ``deallocate_vm`` of sixteen AUs may make beyond one of a
#: single AU: a free per AU made 1 552 against 836, one free per VM 831
#: against 831.
PER_AU_DEALLOCATE_SLACK = 50


def consolidating_controller():
    """Two VMs packed into ranks 0 and 1 of both channels; freeing the
    first leaves the second's segments spread over both, so the
    power-down policy has 1 024 live segments per channel to move."""
    controller = DtlController(DtlConfig(
        geometry=DramGeometry(channels=2, ranks_per_channel=4,
                              rank_bytes=8 * GIB), au_bytes=2 * GIB))
    first = controller.allocate_vm(0, 12 * GIB, now_ns=0)
    controller.allocate_vm(0, 10 * GIB, now_ns=s_to_ns(1.0))
    return controller, first


def test_control_plane_stays_inside_its_dispatch_budget():
    counts = []
    for _ in range(2):
        controller, first = consolidating_controller()
        allocated = []
        allocate = c_calls(lambda: allocated.append(
            controller.allocate_vm(1, 2 * GIB, now_ns=s_to_ns(1.0))))
        assert len(allocated[0].au_ids) == 1
        assert controller.host_layout.segments_per_au == 1024
        transitions = []
        deallocate = c_calls(lambda: transitions.extend(
            controller.deallocate_vm(first, now_ns=s_to_ns(2.0))))
        assert sum(t.migrated_segments for t in transitions) == 2048
        assert controller.migration.stats.segments_migrated == 2048
        assert len(transitions) == 3
        counts.append((allocate, deallocate))
    assert counts[0] == counts[1]  # counts, so they repeat exactly
    allocate, deallocate = counts[0]
    assert allocate <= ALLOCATE_VM_BUDGET
    assert deallocate <= DEALLOCATE_VM_BUDGET


def lifecycle_calls(num_aus: int) -> tuple[int, int]:
    """C-level calls of ``allocate_vm`` and ``deallocate_vm`` of one
    ``num_aus``-AU VM on a fresh 4 x 8-rank controller whose first ranks
    hold up to sixteen 256 MiB AUs."""
    controller = DtlController(DtlConfig(
        geometry=DramGeometry(rank_bytes=GIB), au_bytes=256 * MIB))
    vms = []
    allocate = c_calls(lambda: vms.append(
        controller.allocate_vm(0, num_aus * 256 * MIB, now_ns=0)))
    assert len(vms[0].au_ids) == num_aus
    deallocate = c_calls(lambda: controller.deallocate_vm(
        vms[0], now_ns=s_to_ns(1.0)))
    return allocate, deallocate


def test_vm_lifecycle_costs_per_vm_not_per_au():
    """One allocator pass, one table scatter and one free per VM: a
    sixteen-AU VM costs what a one-AU VM costs, give or take."""
    lifecycle_calls(1)  # first-call work (imports, caches) stays out
    single = lifecycle_calls(1)
    counts = [lifecycle_calls(16) for _ in range(2)]
    assert counts[0] == counts[1]  # counts, so they repeat exactly
    allocate, deallocate = counts[0]
    assert allocate <= ALLOCATE_VM_BUDGET
    assert deallocate <= single[1] + PER_AU_DEALLOCATE_SLACK


# -- a served free that drains ------------------------------------------------

#: Dispatches — Python calls and C-level calls — of one ``apply_free``
#: in the ``serve_chaos`` warm-up's shape: a chaos-armed shard whose
#: previous free left a rank group's consolidation copying, so this free
#: first drains thousands of pump rounds, sixteen aborts and their
#: audits.  The per-round drain made 604 132; the closed-form one
#: (``MigrationEngine.advance``) makes 9 654.  The bound sits between.
DRAINING_FREE_BUDGET = 30_000


def chaos_shard_with_copies_pending():
    """A shard of the ``serve_chaos`` shape — four tenants' eight 2 MiB
    VMs, eight rounds of their 128-access requests, then one free —
    with the free's consolidation still copying."""
    shard = ControllerShard(0, small_dtl_config(),
                            fault_plan=server_fault_plan(0, 0))
    vms = [shard.apply_allocate(host, SERVED_VM_BYTES, 0.01)
           for host in (0, 0, 1, 1, 2, 2, 3, 3)]
    weights = np.arange(1, 17, dtype=np.float64) ** -1.2
    t_s = 0.02
    for step in range(8):
        for number, vm in enumerate(vms):
            rng = np.random.default_rng([step, number])
            t_s += 0.01
            shard.apply_access_batch(
                vm, rng.choice(16, 128, p=weights / weights.sum()),
                np.zeros(128, np.int64), rng.random(128) < 0.3, t_s)
    shard.apply_free(vms[0], t_s + 0.01)
    return shard, vms[2], t_s + 0.02


def test_a_draining_free_stays_inside_its_dispatch_budget():
    counts = []
    for _ in range(2):
        shard, vm, t_s = chaos_shard_with_copies_pending()
        assert shard.controller.migration.pending_count() == 110
        visits = shard.injector.visits(HookPoint.MIGRATION_COPY)
        audits = shard.audits
        counts.append(dispatches(lambda: shard.apply_free(vm, t_s)))
        assert shard.injector.visits(HookPoint.MIGRATION_COPY) \
            - visits == 14_155
        assert shard.injector.injected(HookPoint.MIGRATION_COPY) == 16
        assert shard.audits - audits == 16
        assert shard.violations == []
    assert counts[0] == counts[1]  # a count, so it repeats exactly
    assert counts[0] <= DRAINING_FREE_BUDGET
