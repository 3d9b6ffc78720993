"""Tests for hotness-aware self-refresh (Section 3.4, Figure 8)."""

import numpy as np
import pytest

from repro.core.addressing import (DeviceAddressLayout, HostAddressLayout,
                                   SegmentLocation)
from repro.core.allocator import RankRole, SegmentAllocator
from repro.core.checker import check
from repro.core.config import DtlConfig, small_dtl_config
from repro.core.controller import DtlController
from repro.core.migration import MigrationEngine
from repro.core.self_refresh import ChannelPhase, HotnessSelfRefreshPolicy
from repro.core.tables import TranslationTables
from repro.core.translation import TranslationEngine
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.policies import DemotionLevel, PaperPolicy
from repro.units import MIB

MS = 1e6  # ns per ms


def make_stack(window_ns=0.5 * MS, threshold_ns=50 * MS, scan_limit=60,
               victim_granularity=1):
    geometry = DramGeometry(channels=2, ranks_per_channel=4,
                            rank_bytes=16 * MIB, segment_bytes=1 * MIB)
    device = DramDevice(geometry=geometry)
    allocator = SegmentAllocator(geometry)
    layout = HostAddressLayout(geometry, au_bytes=4 * MIB, max_hosts=2)
    tables = TranslationTables(layout)
    translation = TranslationEngine(layout, tables)
    migration = MigrationEngine(geometry)
    policy = HotnessSelfRefreshPolicy(
        device, allocator, tables, translation, migration,
        DtlConfig(window_ns=window_ns,
                  profiling_threshold_ns=threshold_ns,
                  tsp_scan_limit=scan_limit,
                  sr_victim_granularity=victim_granularity))
    return geometry, device, allocator, layout, tables, translation, policy


def allocate_au(layout, tables, allocator, au_id, host=0):
    tables.allocate_au(host, [au_id])
    dsns = allocator.allocate(layout.segments_per_au)
    for offset, dsn in enumerate(dsns):
        tables.map_segment(layout.pack_hsn(host, au_id, offset), dsn)
    return dsns


class TestVictimSelection:
    def test_least_accessed_rank_wins(self):
        _, device, _, _, _, _, policy = make_stack()
        for _ in range(10):
            policy.on_access(policy._dsn(0, 0, 0), now_ns=0.0)
            policy.on_access(policy._dsn(0, 1, 0), now_ns=0.0)
            policy.on_access(policy._dsn(0, 3, 0), now_ns=0.0)
        policy.end_window()
        victim = policy.start_profiling(0, now_ns=1000.0)
        assert victim == 2

    def test_needs_two_standby_ranks(self):
        _, device, _, _, _, _, policy = make_stack()
        for rank in range(1, 4):
            device.set_rank_state((0, rank), PowerState.MPSM, 0)
        assert policy.start_profiling(0, 0.0) is None
        assert policy.phase(0) is ChannelPhase.IDLE

    def test_mpsm_ranks_never_candidates(self):
        _, device, _, _, _, _, policy = make_stack()
        device.set_rank_state((0, 0), PowerState.MPSM, 0)
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        assert victim != 0

    def test_pair_granularity_selects_aligned_block(self):
        _, device, _, _, _, _, policy = make_stack(victim_granularity=2)
        policy.end_window()
        policy.start_profiling(0, 0.0)
        assert policy.victim_ranks(0) in ((0, 1), (2, 3))


class TestMigrationTableUpdates:
    def test_case_b_plans_hot_segment_out(self):
        """Figure 8(b): an access to a victim-rank segment swaps its entry
        with a cold target entry found by the TSP."""
        _, _, _, _, _, _, policy = make_stack()
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        hot = policy._dsn(0, victim, 3)
        policy.on_access(hot, now_ns=10.0)
        assert policy.planned_rank(hot) != victim

    def test_case_b_resets_timer(self):
        _, _, _, _, _, _, policy = make_stack()
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        hot = policy._dsn(0, victim, 3)
        policy.on_access(hot, now_ns=12345.0)
        assert policy._channels[0].quiet_since_ns == 12345.0

    def test_case_c_restores_and_replans(self):
        """Figure 8(c): an access to an already-swapped target entry
        restores it and finds a different cold partner."""
        _, _, _, _, _, _, policy = make_stack()
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        hot = policy._dsn(0, victim, 3)
        policy.on_access(hot, now_ns=10.0)
        partner = int(policy.planned[hot])
        # The partner turns out hot too.
        policy.on_access(partner, now_ns=20.0)
        assert policy.planned_rank(partner) != victim  # restored
        new_partner = int(policy.planned[hot])
        assert new_partner != partner  # replanned with someone else
        assert policy.planned_rank(hot) != victim

    def test_access_outside_hypothetical_victim_ignores_timer(self):
        _, _, _, _, _, _, policy = make_stack()
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        target_rank = policy._channels[0].target_ranks[0]
        hot = policy._dsn(0, victim, 3)
        policy.on_access(hot, now_ns=10.0)
        before = policy._channels[0].quiet_since_ns
        # The hot segment is now planned out; touching it again must not
        # reset the timer.
        policy.on_access(hot, now_ns=500.0)
        assert policy._channels[0].quiet_since_ns == before

    def test_hypothetical_victim_size_constant(self):
        geometry, _, _, _, _, _, policy = make_stack()
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        size = policy.hypothetical_victim_size(0)
        for index in range(4):
            policy.on_access(policy._dsn(0, victim, index), now_ns=10.0)
        assert policy.hypothetical_victim_size(0) == size


class TestTsp:
    def test_second_chance_clears_bits(self):
        _, _, _, _, _, _, policy = make_stack()
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        state = policy._channels[0]
        target = state.target_ranks[state.target_cursor]
        # Mark the first three target entries hot.
        for index in range(3):
            policy.access_bits[policy._dsn(0, target, index)] = True
        partner = policy._tsp_find_cold(0, state)
        assert partner == policy._dsn(0, target, 3)
        for index in range(3):
            assert not policy.access_bits[policy._dsn(0, target, index)]

    def test_timeout_rotates_target_rank(self):
        _, _, _, _, _, _, policy = make_stack(scan_limit=4)
        policy.end_window()
        policy.start_profiling(0, 0.0)
        state = policy._channels[0]
        first_target = state.target_ranks[state.target_cursor]
        # Make every entry of the first target hot so the scan times out.
        for index in range(16):
            policy.access_bits[policy._dsn(0, first_target, index)] = True
        cursor_before = state.target_cursor
        result = policy._tsp_find_cold(0, state)
        assert result is None
        assert state.target_cursor == (cursor_before + 1) % len(
            state.target_ranks)

    def test_rotation_after_find(self):
        _, _, _, _, _, _, policy = make_stack()
        policy.end_window()
        policy.start_profiling(0, 0.0)
        state = policy._channels[0]
        before = state.target_cursor
        policy._tsp_find_cold(0, state)
        assert state.target_cursor == (before + 1) % len(state.target_ranks)

    def test_tsp_persists_across_profiling_rounds(self):
        _, _, _, _, _, _, policy = make_stack()
        policy.end_window()
        policy.start_profiling(0, 0.0)
        state = policy._channels[0]
        policy._tsp_find_cold(0, state)
        pointers = dict(state.tsp)
        policy.start_profiling(0, 1000.0)
        assert any(state.tsp[rank] == pointer
                   for rank, pointer in pointers.items() if pointer)


class TestPhaseMachine:
    def test_quiet_threshold_enters_self_refresh(self):
        _, device, _, _, _, _, policy = make_stack(threshold_ns=10.0)
        policy.end_window()
        victim = policy.start_profiling(0, now_ns=0.0)
        events = policy.tick(now_ns=20.0)
        assert any(event.kind == "enter_sr" for event in events)
        assert device.rank(0, victim).state is PowerState.SELF_REFRESH
        assert policy.phase(0) is ChannelPhase.SELF_REFRESH

    def test_activity_postpones_entry(self):
        _, device, _, _, _, _, policy = make_stack(threshold_ns=100.0)
        policy.end_window()
        victim = policy.start_profiling(0, now_ns=0.0)
        policy.on_access(policy._dsn(0, victim, 0), now_ns=90.0)
        assert policy.tick(now_ns=150.0) == []
        assert policy.tick(now_ns=200.0) != []

    def test_access_wakes_sleeping_rank(self):
        _, device, _, _, _, _, policy = make_stack(threshold_ns=10.0)
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        policy.tick(20.0)
        penalty = policy.on_access(policy._dsn(0, victim, 5), now_ns=1000.0)
        assert penalty > 0
        assert device.rank(0, victim).state is PowerState.STANDBY
        assert policy.phase(0) is ChannelPhase.PROFILING

    def test_wake_restarts_profiling_on_woken_rank(self):
        _, device, _, _, _, _, policy = make_stack(threshold_ns=10.0)
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        policy.tick(20.0)
        policy.end_window()
        policy.on_access(policy._dsn(0, victim, 5), now_ns=1000.0)
        # The woken rank had no accesses in the last window -> re-selected.
        assert policy.victim_rank(0) == victim

    def test_revisit_profiles_additional_victim(self):
        _, device, _, _, _, _, policy = make_stack(threshold_ns=10.0)
        policy.end_window()
        first = policy.start_profiling(0, 0.0)
        policy.tick(20.0)
        assert policy.phase(0) is ChannelPhase.SELF_REFRESH
        # After the revisit delay, a second victim is profiled while the
        # first sleeps on.
        policy.tick(20.0 + policy.revisit_delay_ns + 1.0)
        assert policy.phase(0) is ChannelPhase.PROFILING
        assert policy.victim_rank(0) != first
        assert device.rank(0, first).state is PowerState.SELF_REFRESH

    def test_pair_wakes_together(self):
        _, device, _, _, _, _, policy = make_stack(threshold_ns=10.0,
                                                   victim_granularity=2)
        policy.end_window()
        policy.start_profiling(0, 0.0)
        victims = policy.victim_ranks(0)
        policy.tick(20.0)
        for rank in victims:
            assert device.rank(0, rank).state is PowerState.SELF_REFRESH
        policy.on_access(policy._dsn(0, victims[0], 2), now_ns=1000.0)
        for rank in victims:
            assert device.rank(0, rank).state is PowerState.STANDBY


class TestMigrationPhase:
    def test_swaps_execute_with_mapping_updates(self):
        (geometry, device, allocator, layout, tables, translation,
         policy) = make_stack(threshold_ns=10.0)
        # One AU packs into rank 0 of each channel, so the victim holds
        # live data.
        dsns = allocate_au(layout, tables, allocator, 0)
        policy.end_window()
        policy._channels[0].last_window_counts = {0: 0, 1: 5, 2: 5, 3: 5}
        victim = policy.start_profiling(0, 0.0)
        assert victim == 0
        hot = next(dsn for dsn in dsns
                   if policy.layout.channel_of_dsn(dsn) == 0)
        hsn_before = tables.hsn_of_dsn(hot)
        policy.on_access(hot, now_ns=5.0)
        events = policy.tick(now_ns=30.0)
        assert events and events[0].swaps >= 1
        # The hot segment physically moved out of the victim rank and the
        # mapping followed it.
        new_dsn = tables.walk(hsn_before).dsn
        assert policy.layout.rank_of_dsn(new_dsn) != victim
        assert not allocator.is_allocated(hot)

    def test_migrated_bytes_accounted(self):
        (geometry, device, allocator, layout, tables, translation,
         policy) = make_stack(threshold_ns=10.0)
        dsns = allocate_au(layout, tables, allocator, 0)
        policy.end_window()
        policy._channels[0].last_window_counts = {0: 0, 1: 5, 2: 5, 3: 5}
        policy.start_profiling(0, 0.0)
        hot = next(dsn for dsn in dsns if policy.layout.channel_of_dsn(dsn) == 0)
        policy.on_access(hot, now_ns=5.0)
        policy.tick(now_ns=30.0)
        assert policy.migrated_bytes_total >= geometry.segment_bytes

    def test_table_reset_after_migration(self):
        _, _, _, _, _, _, policy = make_stack(threshold_ns=10.0)
        policy.end_window()
        victim = policy.start_profiling(0, 0.0)
        policy.on_access(policy._dsn(0, victim, 1), now_ns=5.0)
        policy.tick(now_ns=30.0)
        geo = policy.geometry
        for rank in range(geo.ranks_per_channel):
            dsn = policy._dsn(0, rank, 0)
            assert int(policy.planned[dsn]) == dsn


class SrMpsmPolicy(PaperPolicy):
    """The paper's decisions, except that a self-refresh victim is
    asked to park in MPSM."""

    def demotion_level(self, site, stats):
        if site == "sr":
            return DemotionLevel.MPSM
        return super().demotion_level(site, stats)


class TestMpsmDemotion:
    def test_park_state_is_decided_after_the_swaps(self):
        """An empty victim that the planned swaps fill downgrades to
        self-refresh; one they leave empty parks in MPSM and stops
        taking data."""
        controller = DtlController(small_dtl_config())
        policy = controller.self_refresh
        policy.policy = SrMpsmPolicy()
        threshold = controller.config.profiling_threshold_ns
        vm = controller.allocate_vm(0, 1 * MIB)
        # Offsets 2 and 3 live in rank 0 of channels 0 and 1: rank 0 sees
        # traffic, so the empty rank 1 becomes each channel's victim.
        au = vm.au_ids[0]
        controller.access_batch(0, [controller.hpa_of(au, 2),
                                    controller.hpa_of(au, 3)])
        controller.end_window()
        assert policy.start_profiling(0, 0.0) == 1
        assert not controller.allocator.usage((0, 1)).allocated
        # A touch on the victim plans the cold, live offset 0 into it.
        policy.on_access(policy._dsn(0, 1, 0), now_ns=1.0)
        controller.tick(1.0 + threshold)
        check(controller)
        assert controller.device.rank(0, 1).state is PowerState.SELF_REFRESH
        assert controller.allocator.usage((0, 1)).allocated == 1
        assert controller.allocator.role((0, 1)) is RankRole.OPEN
        # Channel 1 started profiling on that tick; nothing moves there.
        controller.tick(1.0 + 2 * threshold)
        assert controller.device.rank(1, 1).state is PowerState.MPSM
        assert controller.allocator.role((1, 1)) is RankRole.PARKED
        check(controller)


class TestBatchEquivalence:
    def test_batch_matches_per_access(self):
        """on_batch applies the same updates as repeated on_access."""
        _, _, _, _, _, _, policy_a = make_stack()
        _, _, _, _, _, _, policy_b = make_stack()
        for policy in (policy_a, policy_b):
            policy.end_window()
            policy.start_profiling(0, 0.0)
            policy.start_profiling(1, 0.0)
        dsns = [policy_a._dsn(0, 1, 5), policy_a._dsn(0, 2, 9),
                policy_a._dsn(1, 0, 3)]
        for dsn in dsns:
            policy_a.on_access(dsn, now_ns=10.0)
        policy_b.on_batch(np.array(dsns), now_ns=10.0)
        assert np.array_equal(policy_a.planned, policy_b.planned)
        assert np.array_equal(policy_a.access_bits, policy_b.access_bits)

    def test_batch_empty_is_noop(self):
        _, _, _, _, _, _, policy = make_stack()
        assert policy.on_batch(np.array([], dtype=np.int64), 0.0) == 0.0

    def test_batch_bit_subsample(self):
        _, _, _, _, _, _, policy = make_stack()
        dsns = np.array([policy._dsn(0, 0, index) for index in range(4)])
        policy.on_batch(dsns, 0.0, bit_dsns=dsns[:2])
        assert policy.access_bits[dsns[0]] and policy.access_bits[dsns[1]]
        assert not policy.access_bits[dsns[2]]
