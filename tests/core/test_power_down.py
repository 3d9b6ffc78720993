"""Tests for the rank-level power-down policy (Section 3.3)."""

import pytest

from repro.core.addressing import HostAddressLayout
from repro.core.allocator import RankRole, SegmentAllocator
from repro.core.config import DtlConfig
from repro.core.migration import MigrationEngine
from repro.core.power_down import RankPowerDownPolicy
from repro.core.tables import TranslationTables
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.errors import AllocationError
from repro.policies import PaperPolicy
from repro.units import MIB


def make_stack(ranks_per_channel=4, group_granularity=1):
    geometry = DramGeometry(ranks_per_channel=ranks_per_channel,
                            rank_bytes=64 * MIB)  # 32 segments/rank
    device = DramDevice(geometry=geometry)
    allocator = SegmentAllocator(geometry)
    layout = HostAddressLayout(geometry, au_bytes=16 * MIB)
    tables = TranslationTables(layout)
    migration = MigrationEngine(geometry)

    def on_complete(hsns, old_dsns, new_dsns):
        for hsn, old_dsn, new_dsn in zip(hsns.tolist(), old_dsns.tolist(),
                                         new_dsns.tolist()):
            tables.remap_segment(hsn, new_dsn)
            allocator.move_allocation(old_dsn, new_dsn)

    migration.on_complete = on_complete
    policy = RankPowerDownPolicy(
        device, allocator, tables, migration,
        DtlConfig(group_granularity=group_granularity))
    return geometry, device, allocator, layout, tables, policy


def allocate(layout, tables, allocator, policy, au_id, host=0):
    """Allocate one AU worth of segments through the DTL structures."""
    tables.allocate_au(host, [au_id])
    dsns = allocator.allocate(layout.segments_per_au)
    tables.map_au_segments(host, [au_id], dsns)
    return dsns.tolist()


def free(layout, tables, allocator, au_id, host=0):
    dsns = tables.free_au(host, [au_id])
    allocator.free(dsns)


class TestPowerDown:
    def test_empty_device_powers_down_to_minimum(self):
        _, device, _, _, _, policy = make_stack()
        transitions = policy.maybe_power_down(0)
        assert policy.active_ranks_per_channel() == 1
        assert len(transitions) == 3
        counts = device.state_counts()
        assert counts[PowerState.MPSM] == 12

    def test_respects_min_active_groups(self):
        geometry, device, allocator, layout, tables, _ = make_stack()
        migration = MigrationEngine(geometry)
        policy = RankPowerDownPolicy(device, allocator, tables, migration,
                                     DtlConfig(min_active_groups=2))
        policy.maybe_power_down(0)
        assert policy.active_ranks_per_channel() == 2

    def test_no_power_down_when_capacity_needed(self):
        geometry, device, allocator, layout, tables, policy = make_stack()
        # Fill almost everything: 3.5 ranks per channel.
        for au in range(28):  # 28 AUs x 8 segs = 224 of 512 segs... fill more
            allocate(layout, tables, allocator, policy, au)
        # 28 AUs x 16MiB = 448 MiB of 1 GiB: 224 segments of 512.
        transitions = policy.maybe_power_down(0)
        # Free space = 288 segs = 2.25 rank-groups: two groups power down.
        assert policy.active_ranks_per_channel() == 2
        assert len(transitions) == 2

    def test_victim_is_least_allocated(self):
        geometry, device, allocator, layout, tables, policy = make_stack()
        for au in range(4):
            allocate(layout, tables, allocator, policy, au)
        # Ranks 0 hold data; ranks 1-3 are empty -> they become victims.
        policy.maybe_power_down(0)
        for channel in range(4):
            assert device.rank(channel, 0).state is PowerState.STANDBY

    def test_consolidation_migrates_live_segments(self):
        geometry, device, allocator, layout, tables, policy = make_stack()
        # Spread data over two ranks per channel, then force consolidation.
        allocator_dsns = []
        for au in range(6):
            allocator_dsns += allocate(layout, tables, allocator, policy, au)
        # Free the first 4 AUs so rank 0 has holes and rank 1 is light.
        for au in range(4):
            free(layout, tables, allocator, au)
        transitions = policy.maybe_power_down(0)
        assert transitions
        migrated = sum(t.migrated_segments for t in transitions)
        # All remaining data fits in one rank per channel.
        assert policy.active_ranks_per_channel() == 1
        live = [tables.walk(layout.pack_hsn(0, au, off)).dsn
                for au in (4, 5) for off in range(layout.segments_per_au)]
        assert all(allocator.role(allocator.rank_of_dsn(dsn))
                   is RankRole.OPEN for dsn in live)
        assert migrated >= 0

    def test_mappings_survive_consolidation(self):
        geometry, device, allocator, layout, tables, policy = make_stack()
        for au in range(6):
            allocate(layout, tables, allocator, policy, au)
        for au in range(4):
            free(layout, tables, allocator, au)
        policy.maybe_power_down(0)
        # Every HSN of the surviving AUs still walks to a live DSN.
        for au in (4, 5):
            for offset in range(layout.segments_per_au):
                hsn = layout.pack_hsn(0, au, offset)
                dsn = tables.walk(hsn).dsn
                assert tables.hsn_of_dsn(dsn) == hsn

    def test_victims_are_one_group_on_every_channel(self):
        """A policy answering with more than ``group_granularity``
        victims on a channel is refused before anything moves."""
        class TwoVictims(PaperPolicy):
            def powerdown_victims(self, channel, candidates, count):
                return [stats.rank for stats in candidates[:count + 1]]

        _, device, allocator, _, _, policy = make_stack()
        policy.policy = TwoVictims()
        with pytest.raises(ValueError, match="invalid victims"):
            policy.maybe_power_down(0)
        assert allocator.open_ranks() == set(device.ranks)
        assert device.state_counts()[PowerState.MPSM] == 0

    def test_pair_granularity(self):
        _, device, _, _, _, policy = make_stack(group_granularity=2)
        policy.maybe_power_down(0)
        assert policy.active_ranks_per_channel() == 2
        assert device.state_counts()[PowerState.MPSM] == 8


class TestReactivation:
    def test_ensure_capacity_wakes_groups(self):
        geometry, device, allocator, layout, tables, policy = make_stack()
        policy.maybe_power_down(0)
        assert policy.active_ranks_per_channel() == 1
        transitions = policy.ensure_capacity(
            2 * geometry.rank_group_segments, 10.0)
        assert policy.active_ranks_per_channel() >= 2
        assert all(t.new_state is PowerState.STANDBY for t in transitions)

    def test_ensure_capacity_noop_when_space_exists(self):
        _, _, _, _, _, policy = make_stack()
        assert policy.ensure_capacity(4, 0) == []

    def test_over_capacity_raises(self):
        geometry, _, _, _, _, policy = make_stack()
        with pytest.raises(AllocationError):
            policy.ensure_capacity(geometry.total_segments + 4, 0)

    def test_reactivation_pays_exit_penalty(self):
        _, _, _, _, _, policy = make_stack()
        policy.maybe_power_down(0)
        transitions = policy.ensure_capacity(10 ** 9 // (2 * MIB), 1)
        assert any(t.exit_penalty_ns > 0 for t in transitions)


class TestInvariants:
    def test_channel_balance_is_preserved(self):
        """Every channel always has the same number of active ranks."""
        geometry, device, allocator, layout, tables, policy = make_stack()
        for au in range(8):
            allocate(layout, tables, allocator, policy, au)
        for au in range(0, 8, 2):
            free(layout, tables, allocator, au)
        policy.maybe_power_down(0)
        counts = {channel: device.standby_ranks_per_channel(channel)
                  for channel in range(4)}
        assert len(set(counts.values())) == 1

    def test_mpsm_ranks_hold_no_data(self):
        geometry, device, allocator, layout, tables, policy = make_stack()
        for au in range(6):
            allocate(layout, tables, allocator, policy, au)
        for au in range(4):
            free(layout, tables, allocator, au)
        policy.maybe_power_down(0)
        parked = [rank_id for rank_id in device.ranks
                  if allocator.role(rank_id) is RankRole.PARKED]
        assert parked
        for rank_id in parked:
            assert allocator.usage(rank_id).allocated == 0
            assert device.ranks[rank_id].state is PowerState.MPSM
