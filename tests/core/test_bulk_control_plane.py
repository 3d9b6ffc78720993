"""Identity of the bulk control plane with the per-segment one.

VM teardown, consolidation and the synchronous migration drain move
whole segment arrays (docs/PERF.md, "Control plane").  Every bulk
operation promises the effects of its scalar method called once per
element in order; the oracles for that promise live here, not in
``src/``:

* the drain's oracle is the engine's own stepped loop, which an armed
  ``MigrationAbortFault`` that can never match forces it onto;
* run-filling reservation is checked against a per-segment re-ask of
  the policy, for every registered policy;
* ``invalidate_batch``, ``remap_segments``, ``move_allocations``,
  ``submit_batch`` and the bulk ``free`` are checked against the
  element-wise loop on deep copies, bad input included;
* ``on_segments_moved`` is checked against the per-segment move of the
  self-refresh access bits it replaced.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addressing import (DeviceAddressLayout, HostAddressLayout,
                                   SegmentLocation)
from repro.core.allocator import SegmentAllocator
from repro.core.checker import check
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.core.migration import MigrationEngine, MigrationRequest
from repro.core.power_down import RankPowerDownPolicy
from repro.core.segment_cache import SegmentCacheConfig, SegmentMappingCache
from repro.core.tables import TranslationTables
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.errors import (AllocationError, MigrationError, ReproError,
                          TranslationError)
from repro.faults import (EccFault, FaultInjector, FaultPlan, HookPoint,
                          MigrationAbortFault)
from repro.policies import available_policies
from repro.telemetry import EventKind, EventTrace
from repro.units import MIB, s_to_ns

GEOMETRY = DramGeometry(channels=2, ranks_per_channel=4,
                        rank_bytes=64 * MIB)  # 32 segments per rank

#: A copy step never sees this progress, so the spec never matches — but
#: its presence in the plan keeps ``drain()`` on the stepped loop.
NEVER_REACHED = 10 ** 9


# -- probes -------------------------------------------------------------------


def smc_state(smc: SegmentMappingCache) -> dict:
    """Contents in LRU order, values and counters of both levels."""
    return {
        "l1": smc.l1.items(),
        "l2": smc.l2.items(),
        "sizes": (len(smc.l1), len(smc.l2)),
        "counters": [(level.stats.hits, level.stats.misses,
                      level.stats.invalidations)
                     for level in (smc.l1, smc.l2)],
        "back_invalidations": smc.back_invalidations,
    }


def tables_state(tables: TranslationTables) -> dict:
    """Every AU's forward slice and the whole reverse table, through
    the public lookups."""
    layout = tables.layout
    forward = {
        (host_id, au_id): [
            tables.try_walk(layout.pack_hsn(host_id, au_id, offset))
            for offset in range(layout.segments_per_au)]
        for host_id in range(layout.max_hosts)
        for au_id in tables.au_ids(host_id)}
    live = tables.live_dsns()
    assert tables.mapped_segment_count == len(live)
    return {"forward": forward,
            "reverse": list(zip(live, tables.hsns_of_dsns(live).tolist()))}


def all_ranks(geometry: DramGeometry) -> list[tuple[int, int]]:
    return [(channel, rank) for channel in range(geometry.channels)
            for rank in range(geometry.ranks_per_channel)]


def allocator_state(allocator: SegmentAllocator) -> dict:
    """Free-queue order and allocated set of every rank."""
    return {rank_id: (allocator.free_dsns_in_rank(rank_id).tolist(),
                      allocator.allocated_in_rank(rank_id).tolist())
            for rank_id in all_ranks(allocator.geometry)}


REQUEST_FIELDS = ("hsn", "old_dsn", "new_dsn", "lines_total", "lines_done",
                  "completion", "retries", "requeues")


def row(request: MigrationRequest | None) -> dict | None:
    """A request's fields as plain data."""
    return request and {name: getattr(request, name)
                        for name in REQUEST_FIELDS}


def engine_state(engine: MigrationEngine) -> dict:
    channels = range(engine.geometry.channels)
    return {
        "queues": {channel: [row(request)
                             for request in engine.queued(channel)]
                   for channel in channels},
        "inflight": {channel: row(engine.in_flight(channel))
                     for channel in channels},
        "tracked": [row(request) for request in engine.tracked_requests()],
        "pending": engine.pending_count(),
        "stats": {name: getattr(engine.stats, name)
                  for name in engine.stats._FIELDS},
    }


def events_by_kind(trace: EventTrace) -> dict:
    return {kind.value: [event.to_dict() for event in trace.events(kind)]
            for kind in EventKind}


def control_plane_state(controller: DtlController) -> dict:
    """Everything the control plane writes, as plain comparable data
    (the full event order is compared separately)."""
    return {
        "tables": tables_state(controller.tables),
        "allocator": allocator_state(controller.allocator),
        "smc": smc_state(controller.translation.smc),
        "engine": engine_state(controller.migration),
        "event_counts": controller.trace.counts_by_kind(),
        "events_by_kind": events_by_kind(controller.trace),
        "transitions": list(controller.power_down.transitions),
        "rank_states": {rank_id: rank.state for rank_id, rank
                        in controller.device.ranks.items()},
        "counters": controller.metrics.counter_values(),
    }


# -- (a) the drain -------------------------------------------------------------


def arm(controller: DtlController, *specs) -> FaultInjector:
    injector = FaultInjector(FaultPlan(specs=specs),
                             registry=controller.metrics,
                             trace=controller.trace)
    controller.arm_faults(injector)
    return injector


def consolidate(*specs, warm: bool, **config) -> DtlController:
    """Allocate two VMs, optionally touch every segment of the second,
    free the first: the power-down policy must move the second's
    segments off the victim ranks, synchronously."""
    controller = DtlController(DtlConfig(
        geometry=GEOMETRY, au_bytes=16 * MIB, **config))
    if specs:
        arm(controller, *specs)
    vm_a = controller.allocate_vm(0, 96 * MIB, now_ns=0)
    vm_b = controller.allocate_vm(0, 96 * MIB, now_ns=s_to_ns(1.0))
    if warm:
        segments = controller.host_layout.segments_per_au
        hpas = np.array([controller.hpa_of(au_id, offset)
                         for au_id in vm_b.au_ids
                         for offset in range(segments)], dtype=np.int64)
        controller.access_batch(0, np.concatenate([hpas, hpas[::3]]),
                                now_ns=1.5e9)
    transitions = controller.deallocate_vm(vm_a, now_ns=s_to_ns(2.0))
    assert sum(t.migrated_segments for t in transitions) > 0
    assert controller.migration.pending_count() == 0
    check(controller)
    return controller


STEPPED = MigrationAbortFault(at_lines_done=NEVER_REACHED)


@pytest.mark.parametrize("self_refresh", [False, True])
@pytest.mark.parametrize("warm", [False, True])
def test_bulk_drain_matches_the_stepped_loop(warm, self_refresh):
    bulk = consolidate(warm=warm, enable_self_refresh=self_refresh)
    stepped = consolidate(STEPPED, warm=warm,
                          enable_self_refresh=self_refresh)
    assert stepped._faults.injected_total == 0
    assert control_plane_state(bulk) == control_plane_state(stepped)
    if self_refresh:
        assert np.array_equal(bulk.self_refresh.access_bits,
                              stepped.self_refresh.access_bits)
    invalidated = bulk.trace.counts_by_kind().get("smc_invalidate", 0)
    if warm:
        # Resident HSNs were moved: within a channel the retire rows
        # form one run and the invalidations they cause follow it —
        # the one recorded ordering difference (docs/TELEMETRY.md).
        assert invalidated > 0
    else:
        assert invalidated == 0
        assert bulk.trace.to_list() == stepped.trace.to_list()


def test_retire_run_then_its_invalidations_per_channel():
    bulk = consolidate(warm=True, enable_self_refresh=False)
    kinds = [(event.kind, event.data.get("channel"))
             for event in bulk.trace.events()
             if event.kind in (EventKind.MIGRATION_RETIRE,
                               EventKind.SMC_INVALIDATE)]
    runs = [kinds[0]]
    for entry in kinds[1:]:
        if entry != runs[-1]:
            runs.append(entry)
    retire, invalidate = EventKind.MIGRATION_RETIRE, EventKind.SMC_INVALIDATE
    assert runs == [(retire, 0), (invalidate, None),
                    (retire, 1), (invalidate, None)]


def test_unabortable_plan_drains_in_bulk_and_counts_its_visits():
    # An armed plan with no migration.copy spec cannot interrupt a
    # drain; the hook's visit counter still moves once per copy.
    other = EccFault(start=NEVER_REACHED)
    bulk = consolidate(other, warm=True, enable_self_refresh=False)
    stepped = consolidate(STEPPED, warm=True, enable_self_refresh=False)
    assert not bulk._faults.plan.by_hook()[HookPoint.MIGRATION_COPY]
    assert stepped._faults.plan.by_hook()[HookPoint.MIGRATION_COPY]
    moved = bulk.migration.stats.segments_migrated
    assert bulk._faults.visits(HookPoint.MIGRATION_COPY) == moved \
        == stepped._faults.visits(HookPoint.MIGRATION_COPY)
    assert control_plane_state(bulk) == control_plane_state(stepped)


def test_partly_copied_and_completed_requests_finish_in_bulk():
    """A drain that finds requests part-way (background pumping, then a
    retirement) copies only what is left of each."""
    pair = []
    for specs in ((), (STEPPED,)):
        controller = DtlController(DtlConfig(
            geometry=GEOMETRY, au_bytes=16 * MIB,
            enable_self_refresh=False, background_migration=True))
        if specs:
            arm(controller, *specs)
        vm_a = controller.allocate_vm(0, 96 * MIB, now_ns=0)
        controller.allocate_vm(0, 96 * MIB, now_ns=s_to_ns(1.0))
        controller.deallocate_vm(vm_a, now_ns=s_to_ns(2.0))
        engine = controller.migration
        lines = engine.lines_per_segment
        # Channel 0: first request complete (retire pending), second
        # part-way; channel 1: first request part-way.
        engine.step_channel(0, lines=lines)
        engine.step_channel(0, lines=1)
        engine.step_channel(0, lines=lines // 3)
        engine.step_channel(1, lines=7)
        engine.step_channel(1, lines=lines)
        assert engine.in_flight(1).completion
        engine.drain()
        assert engine.pending_count() == 0
        controller.pump_migrations(now_ns=s_to_ns(3.0))
        check(controller)
        pair.append(controller)
    bulk, stepped = pair
    assert bulk.migration.stats.lines_copied \
        == 16 * bulk.migration.lines_per_segment
    assert control_plane_state(bulk) == control_plane_state(stepped)
    assert bulk.trace.to_list() == stepped.trace.to_list()


# -- (b) a plan that does abort ------------------------------------------------


def test_matching_abort_spec_still_fires_and_every_segment_lands():
    spec = MigrationAbortFault(at_lines_done=0, period=3, max_fires=5)
    controller = consolidate(spec, warm=True, enable_self_refresh=False)
    injector = controller._faults
    assert injector.injected(HookPoint.MIGRATION_COPY) == 5
    assert controller.migration.stats.aborts == 5
    reference = consolidate(warm=True, enable_self_refresh=False)
    assert controller.migration.stats.segments_migrated \
        == reference.migration.stats.segments_migrated
    assert tables_state(controller.tables) \
        == tables_state(reference.tables)


# -- (c) run-filling reservation ------------------------------------------------


def build_stack(policy_name: str):
    device = DramDevice(geometry=GEOMETRY)
    allocator = SegmentAllocator(GEOMETRY)
    layout = HostAddressLayout(GEOMETRY, au_bytes=16 * MIB)
    tables = TranslationTables(layout)
    migration = MigrationEngine(GEOMETRY)
    host = RankPowerDownPolicy(
        device, allocator, tables, migration,
        DtlConfig(policy=policy_name, background_migration=True))
    return host, layout


def reserve_per_segment(host: RankPowerDownPolicy, targets, count: int,
                        ) -> list[int]:
    """The pre-bulk rule: ask the policy again for every segment."""
    reserved = []
    for _ in range(count):
        candidates = [host._rank_stats(*rank_id) for rank_id in targets
                      if host.allocator.free_in_rank(rank_id)]
        best = host.policy.consolidation_target(candidates).rank_id
        if host.device.ranks[best].state is PowerState.SELF_REFRESH:
            host.device.set_rank_state(best, PowerState.STANDBY, 0)
        reserved.extend(host.allocator.allocate_in_rank(best, 1).tolist())
    return reserved


@pytest.mark.parametrize("policy_name", available_policies())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_filling_reserves_the_per_segment_sequence(policy_name, data):
    host, layout = build_stack(policy_name)
    per_rank = GEOMETRY.segments_per_rank
    fills = data.draw(st.lists(st.integers(0, per_rank), min_size=4,
                               max_size=4), label="fill per rank")
    heats = data.draw(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                      label="accesses per rank")
    asleep = data.draw(st.sets(st.integers(1, 3)), label="ranks in SR")
    live = []
    for rank, (fill, heat) in enumerate(zip(fills, heats)):
        dsns = host.allocator.allocate_in_rank((0, rank), fill)
        for dsn in dsns:
            index = host.tables.mapped_segment_count
            au_id, offset = divmod(index, layout.segments_per_au)
            if not offset:
                host.tables.allocate_au(0, [au_id])
            host.tables.map_segment(layout.pack_hsn(0, au_id, offset), dsn)
        for _ in range(heat):
            host.device.rank(0, rank).record_access()
        if rank in asleep:
            host.device.set_rank_state((0, rank), PowerState.SELF_REFRESH,
                                       0)
        if rank == 0:
            live = sorted(dsns.tolist())
    targets = {(0, rank) for rank in (1, 2, 3)}
    room = sum(host.allocator.free_in_rank(rank_id) for rank_id in targets)
    count = data.draw(st.integers(0, min(len(live), room)),
                      label="segments to evacuate")
    oracle = copy.deepcopy(host)
    expected = reserve_per_segment(oracle, targets, count)

    host.evacuate(live[:count], targets, 0)
    requests = host.migration.tracked_requests()
    assert [request.old_dsn for request in requests] == live[:count]
    assert [request.new_dsn for request in requests] == expected
    assert allocator_state(host.allocator) \
        == allocator_state(oracle.allocator)
    assert {rank_id: rank.state for rank_id, rank
            in host.device.ranks.items()} \
        == {rank_id: rank.state for rank_id, rank
            in oracle.device.ranks.items()}


def test_policy_is_asked_once_per_run():
    host, layout = build_stack("paper")
    asked = []
    target = host.policy.consolidation_target
    host.policy.consolidation_target = \
        lambda candidates: asked.append(len(candidates)) or target(candidates)
    host.tables.allocate_au(0, [0])
    host.tables.allocate_au(0, [1])
    live = host.allocator.allocate_in_rank((0, 0), 12).tolist()
    for index, dsn in enumerate(live):
        host.tables.map_segment(
            layout.pack_hsn(0, *divmod(index, layout.segments_per_au)), dsn)
    host.allocator.allocate_in_rank((0, 1), 27)  # 5 free: the fullest
    host.allocator.allocate_in_rank((0, 2), 10)
    host.evacuate(live, {(0, 1), (0, 2), (0, 3)}, 0)
    assert asked == [3, 2]  # 5 into rank 1, then 7 into rank 2
    ranks = [host.allocator.rank_of_dsn(request.new_dsn)
             for request in host.migration.tracked_requests()]
    assert ranks == [(0, 1)] * 5 + [(0, 2)] * 7


def test_refused_target_leaves_nothing_reserved_untracked():
    host, layout = build_stack("paper")
    host.tables.allocate_au(0, [0])
    live = host.allocator.allocate_in_rank((0, 0), 8).tolist()
    for offset, dsn in enumerate(live):
        host.tables.map_segment(layout.pack_hsn(0, 0, offset), dsn)
    host.allocator.allocate_in_rank((0, 1), 29)  # room for 3 of the 8
    with pytest.raises(AllocationError, match="channel 0"):
        host.evacuate(live, {(0, 1)}, 0)
    tracked = host.migration.tracked_requests()
    assert [request.old_dsn for request in tracked] == live[:3]
    assert host.allocator.usage((0, 1)).allocated == 32
    assert sorted(request.new_dsn for request in tracked) \
        == host.allocator.allocated_in_rank((0, 1)).tolist()[-3:]


# -- (d) invalidate_batch --------------------------------------------------------


def warm_smc() -> tuple[SegmentMappingCache, dict[str, list[int]]]:
    """An SMC holding HSNs in both levels, in L2 only, and — with
    inclusion broken on purpose — in L1 only."""
    trace = EventTrace()
    smc = SegmentMappingCache(
        SegmentCacheConfig(l1_entries=4, l2_entries=16, l2_ways=2),
        trace=trace)
    for hsn in range(10):
        smc.lookup(hsn)
        smc.fill(hsn, 100 + hsn)
    both = smc.l1.hsns()
    l2_only = [hsn for hsn in smc.l2.hsns() if hsn not in smc.l1]
    l1_only = [both.pop()]
    smc.l2.invalidate(l1_only[0])
    assert len(both) >= 2 and len(l2_only) >= 2
    return smc, {"both": both, "l2": l2_only, "l1": l1_only,
                 "neither": [50, 51, 52]}


def smc_probe(smc: SegmentMappingCache) -> dict:
    return {"state": smc_state(smc),
            "events": [event.to_dict() for event in smc._trace.events()]}


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("order", [
    ("both", "l2", "l1", "neither"),
    ("neither", "l1", "both", "l2", "both", "l1"),  # duplicates
    ("neither",),
    ("l2", "l2"),
    (),
])
def test_invalidate_batch_matches_the_elementwise_loop(order, as_array):
    smc, groups = warm_smc()
    hsns = [hsn for group in order for hsn in groups[group]]
    loop, batch = copy.deepcopy(smc), copy.deepcopy(smc)
    expected = sum(loop.invalidate(hsn) for hsn in hsns)
    dropped = batch.invalidate_batch(
        np.array(hsns, dtype=np.int64) if as_array else hsns)
    assert dropped == expected
    assert smc_probe(batch) == smc_probe(loop)
    # L1 free-slot reuse: the next fills land in the same slots.
    for smc_copy in (loop, batch):
        smc_copy.fill(70, 170)
        smc_copy.fill(71, 171)
    assert smc_probe(batch) == smc_probe(loop)


def test_invalidate_batch_on_an_empty_cache_touches_nothing():
    smc = SegmentMappingCache(trace=EventTrace())
    before = smc_probe(smc)
    assert smc.invalidate_batch(np.arange(10_000)) == 0
    assert smc_probe(smc) == before


# -- (e) bad input: the scalar diagnostic, the scalar partial state -----------


def outcome(action) -> tuple:
    """What ``action`` returned, or the library error it raised."""
    try:
        return ("returned", action())
    except ReproError as error:
        return (type(error), str(error))


def one_by_one(scalar, *columns) -> None:
    for row in zip(*columns):
        scalar(*row)


def mapped_tables():
    layout = HostAddressLayout(GEOMETRY, au_bytes=16 * MIB)
    tables = TranslationTables(layout)
    for au_id in (0, 1):
        tables.allocate_au(0, [au_id])
        tables.map_au_segments(
            0, [au_id], np.arange(8, dtype=np.int64) + 8 * au_id)
    hsn = lambda au_id, offset: layout.pack_hsn(0, au_id, offset)  # noqa: E731
    return tables, hsn


REMAP_CASES = {
    "clean": lambda hsn: ([hsn(0, 1), hsn(1, 2), hsn(0, 3)], [40, 41, 42]),
    "empty": lambda hsn: ([], []),
    "target in use": lambda hsn: ([hsn(0, 1), hsn(0, 2), hsn(0, 3)],
                                  [40, 9, 42]),
    "target named twice": lambda hsn: ([hsn(0, 1), hsn(0, 2), hsn(0, 3)],
                                       [40, 41, 40]),
    "hsn repeated": lambda hsn: ([hsn(0, 1), hsn(0, 2), hsn(0, 1)],
                                 [40, 41, 42]),
    "chain onto an earlier source": lambda hsn: (
        [hsn(0, 1), hsn(0, 2)], [40, 1]),
    "chain onto a later source": lambda hsn: (
        [hsn(0, 1), hsn(0, 2)], [2, 41]),
    "unmapped hsn": lambda hsn: ([hsn(0, 1), hsn(2, 0), hsn(0, 3)],
                                 [40, 41, 42]),
    "hsn out of range": lambda hsn: ([hsn(0, 1), 1 << 40, hsn(0, 3)],
                                     [40, 41, 42]),
}


@pytest.mark.parametrize("case", REMAP_CASES)
def test_remap_segments_matches_the_scalar_loop(case):
    tables, hsn = mapped_tables()
    hsns, new_dsns = REMAP_CASES[case](hsn)
    loop, batch = copy.deepcopy(tables), copy.deepcopy(tables)
    expected = outcome(lambda: [loop.remap_segment(*pair)
                                for pair in zip(hsns, new_dsns)])
    assert outcome(lambda: batch.remap_segments(hsns, new_dsns).tolist()) \
        == expected
    assert tables_state(batch) == tables_state(loop)
    assert (expected[0] == "returned") == (case in (
        "clean", "empty", "hsn repeated", "chain onto an earlier source"))


def test_unmapped_slot_in_an_allocated_au_takes_the_scalar_path():
    tables, hsn = mapped_tables()
    tables.unmap_segment(hsn(0, 2))
    with pytest.raises(TranslationError, match="is not mapped"):
        tables.remap_segments([hsn(0, 1), hsn(0, 2)], [40, 41])
    assert tables.walk(hsn(0, 1)).dsn == 40


def test_hsns_of_dsns_names_the_first_dead_dsn():
    tables, hsn = mapped_tables()
    assert tables.hsns_of_dsns([3, 9]).tolist() == [hsn(0, 3), hsn(1, 1)]
    with pytest.raises(TranslationError, match="DSN 0x63 holds no"):
        tables.hsns_of_dsns([3, 0x63, 0x64])


def reserved_allocator():
    allocator = SegmentAllocator(GEOMETRY)
    sources = allocator.allocate_in_rank((0, 0), 6).tolist() \
        + allocator.allocate_in_rank((1, 2), 2).tolist()
    targets = allocator.allocate_in_rank((0, 1), 6).tolist() \
        + allocator.allocate_in_rank((1, 3), 2).tolist()
    return allocator, sources, targets


def dsn_in(rank_id, index):
    return DeviceAddressLayout(GEOMETRY).pack_dsn(
        SegmentLocation(*rank_id, index))


MOVE_CASES = {
    "clean": lambda old, new: (old, new),
    "empty": lambda old, new: ([], []),
    "target not reserved": lambda old, new: (
        old, new[:3] + [dsn_in((0, 1), 20)] + new[4:]),
    "source not allocated": lambda old, new: (
        old[:2] + [dsn_in((0, 0), 20)] + old[3:], new),
    "source named twice": lambda old, new: (
        old[:4] + [old[1]] + old[5:], new),
    "target is an earlier source": lambda old, new: (
        old, new[:5] + [old[0]] + new[6:]),
}


@pytest.mark.parametrize("case", MOVE_CASES)
def test_move_allocations_matches_the_scalar_loop(case):
    allocator, sources, targets = reserved_allocator()
    old_dsns, new_dsns = MOVE_CASES[case](sources, targets)
    loop, batch = copy.deepcopy(allocator), copy.deepcopy(allocator)
    expected = outcome(lambda: one_by_one(loop.move_allocation,
                                          old_dsns, new_dsns))
    assert outcome(lambda: batch.move_allocations(old_dsns, new_dsns)) \
        == expected
    assert allocator_state(batch) == allocator_state(loop)
    assert (expected[0] == "returned") == (case in ("clean", "empty"))


FREE_CASES = {
    "one AU over four ranks": lambda dsns: dsns,
    "interleaved order": lambda dsns: dsns[::2] + dsns[1::2][::-1],
    "one": lambda dsns: dsns[:1],
    "empty": lambda dsns: [],
    "not allocated": lambda dsns: dsns[:5] + [dsn_in((1, 1), 30)] + dsns[5:],
    "named twice": lambda dsns: dsns[:9] + [dsns[2]] + dsns[9:],
}


@pytest.mark.parametrize("case", FREE_CASES)
def test_bulk_free_matches_the_elementwise_loop(case):
    allocator = SegmentAllocator(GEOMETRY)
    allocator.allocate_in_rank((0, 0), 29)
    allocator.allocate_in_rank((1, 0), 30)
    dsns = FREE_CASES[case](allocator.allocate(16).tolist())
    loop, batch = copy.deepcopy(allocator), copy.deepcopy(allocator)
    expected = outcome(lambda: one_by_one(loop.free,
                                          [[dsn] for dsn in dsns]))
    assert outcome(lambda: batch.free(dsns)) == expected
    assert allocator_state(batch) == allocator_state(loop)
    assert (expected[0] == "returned") \
        == (case not in ("not allocated", "named twice"))


SUBMIT_CASES = {
    "clean": lambda: ([1, 2, 3, 4], [dsn_in((0, 0), 0), dsn_in((1, 0), 0),
                                     dsn_in((0, 0), 1), dsn_in((0, 2), 5)],
                      [dsn_in((0, 1), 0), dsn_in((1, 1), 0),
                       dsn_in((0, 1), 1), dsn_in((0, 3), 5)]),
    "empty": lambda: ([], [], []),
    "cross channel": lambda: ([1, 2, 3],
                              [dsn_in((0, 0), 0), dsn_in((0, 0), 1),
                               dsn_in((0, 0), 2)],
                              [dsn_in((0, 1), 0), dsn_in((1, 1), 1),
                               dsn_in((0, 1), 2)]),
    "already migrating": lambda: ([1, 2, 3],
                                  [dsn_in((0, 0), 0), dsn_in((0, 0), 1),
                                   dsn_in((0, 0), 0)],
                                  [dsn_in((0, 1), 0), dsn_in((0, 1), 1),
                                   dsn_in((0, 1), 2)]),
}


@pytest.mark.parametrize("case", SUBMIT_CASES)
def test_submit_batch_matches_the_scalar_loop(case):
    hsns, old_dsns, new_dsns = SUBMIT_CASES[case]()
    engines = [MigrationEngine(GEOMETRY, trace=EventTrace())
               for _ in range(2)]
    for engine in engines:
        engine.submit(9, dsn_in((1, 3), 9), dsn_in((1, 2), 9))
    loop, batch = engines
    expected = outcome(lambda: one_by_one(loop.submit,
                                          hsns, old_dsns, new_dsns))
    assert outcome(lambda: batch.submit_batch(hsns, old_dsns, new_dsns)) \
        == expected
    assert engine_state(batch) == engine_state(loop)
    assert batch._trace.to_list() == loop._trace.to_list()
    assert (expected[0] is MigrationError) \
        == (case in ("cross channel", "already migrating"))


def test_cancel_drops_only_the_named_sources():
    engine = MigrationEngine(GEOMETRY, trace=EventTrace())
    hsns, old_dsns, new_dsns = SUBMIT_CASES["clean"]()
    engine.submit_batch(hsns, old_dsns, new_dsns)
    engine.step_channel(0, lines=5)  # hsn 1 in flight, 5 lines in
    returned = engine.cancel([old_dsns[0], old_dsns[3], 12345])
    assert returned.tolist() == [new_dsns[0], new_dsns[3]]
    assert [request.hsn for request in engine.tracked_requests()] == [2, 3]
    assert engine.in_flight(0) is None
    assert engine.pending_count() == 2
    cancelled = engine._trace.events(EventKind.MIGRATION_CANCEL)
    assert [(event.data["hsn"], event.data["lines_done"])
            for event in cancelled] == [(1, 5), (4, 0)]
    assert engine.cancel([12345]).tolist() == []
    assert engine.drain() == 2


# -- (f) access bits follow a completion batch --------------------------------


def move_one_by_one(bits: np.ndarray, old_dsns, new_dsns) -> None:
    """The per-segment rule ``on_segments_moved`` replaced, in order."""
    for old_dsn, new_dsn in zip(old_dsns.tolist(), new_dsns.tolist()):
        bits[new_dsn] = bits[old_dsn]
        bits[old_dsn] = False


@pytest.mark.parametrize("copies", [1, 2, 9, 64])
@pytest.mark.parametrize("seed", range(4))
def test_on_segments_moved_matches_the_scalar_loop(copies, seed):
    """A completion batch: distinct sources, distinct targets, no target
    a source (``remap_segments`` and ``move_allocations`` refuse any
    other before the controller moves the bits)."""
    rng = np.random.default_rng(seed)
    host = DtlController(DtlConfig(geometry=GEOMETRY,
                                   au_bytes=16 * MIB)).self_refresh
    total = GEOMETRY.total_segments
    host.access_bits[:] = rng.random(total) < 0.5
    dsns = rng.permutation(total)[:2 * copies].astype(np.int64)
    old_dsns, new_dsns = dsns[:copies], dsns[copies:]
    expected = host.access_bits.copy()
    move_one_by_one(expected, old_dsns, new_dsns)
    host.on_segments_moved(old_dsns, new_dsns)
    assert np.array_equal(host.access_bits, expected)
