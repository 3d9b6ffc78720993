"""Tests for the segment allocator's balancing policy (Section 4.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocator import RankRole, SegmentAllocator
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.errors import AllocationError, PowerStateError
from repro.units import MIB


@pytest.fixture
def allocator():
    # 4 channels x 4 ranks x 64 MiB rank = 32 segments/rank.
    return SegmentAllocator(DramGeometry(ranks_per_channel=4,
                                         rank_bytes=64 * MIB))


def open_only(allocator, rank: int) -> None:
    """Fence every rank but ``rank`` on each channel."""
    allocator.set_role([(channel, other) for channel in range(4)
                        for other in range(4) if other != rank],
                       RankRole.FENCED)


class TestChannelBalance:
    def test_equal_segments_per_channel(self, allocator):
        dsns = allocator.allocate(16)
        per_channel = [sum(1 for dsn in dsns
                           if allocator.rank_of_dsn(dsn)[0] == channel)
                       for channel in range(4)]
        assert per_channel == [4, 4, 4, 4]

    def test_uneven_request_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.allocate(5)

    @given(st.integers(1, 8))
    @settings(max_examples=20)
    def test_balance_property(self, blocks):
        allocator = SegmentAllocator(DramGeometry(ranks_per_channel=4,
                                                  rank_bytes=64 * MIB))
        dsns = allocator.allocate(blocks * 4)
        for channel in range(4):
            count = sum(1 for dsn in dsns
                        if allocator.rank_of_dsn(dsn)[0] == channel)
            assert count == blocks


class TestPackingPriority:
    def test_most_utilized_rank_first(self, allocator):
        """Allocations pack into already-used ranks before opening new ones."""
        first = allocator.allocate(8)
        second = allocator.allocate(8)
        ranks = {allocator.rank_of_dsn(dsn) for dsn in first.tolist() + second.tolist()}
        # 16 segments over 4 channels = 4 per channel: all fit in one rank
        # per channel.
        assert len(ranks) == 4

    def test_spills_to_next_rank_when_full(self, allocator):
        allocator.allocate(32 * 4)  # fill one rank per channel exactly
        dsns = allocator.allocate(4)
        ranks = {allocator.rank_of_dsn(dsn)[1] for dsn in dsns}
        assert ranks == {1}

    def test_allowed_ranks_respected(self, allocator):
        """Only open ranks serve an allocation."""
        open_only(allocator, 2)
        dsns = allocator.allocate(8)
        assert all(allocator.rank_of_dsn(dsn)[1] == 2 for dsn in dsns)

    def test_insufficient_allowed_capacity(self, allocator):
        open_only(allocator, 0)
        assert allocator.free_count() == 4 * 32
        with pytest.raises(AllocationError, match="open ranks"):
            allocator.allocate(4 * 33)  # > one rank per channel

    def test_failed_allocation_leaves_state_unchanged(self, allocator):
        open_only(allocator, 0)
        before = allocator.free_count()
        with pytest.raises(AllocationError):
            allocator.allocate(4 * 33)
        assert allocator.free_count() == before


class TestAccounting:
    def test_usage_tracks_utilization(self, allocator):
        allocator.allocate(8)
        usage = allocator.usage((0, 0))
        assert usage.allocated == 2
        assert usage.free == 30
        assert usage.utilization == pytest.approx(2 / 32)
        assert usage.capacity == 32

    def test_free_returns_segments(self, allocator):
        dsns = allocator.allocate(8)
        allocator.free(dsns)
        assert allocator.allocated_count() == 0
        assert allocator.free_count() == 4 * 4 * 32

    def test_double_free_rejected(self, allocator):
        dsns = allocator.allocate(4)
        allocator.free(dsns[:1])
        with pytest.raises(AllocationError):
            allocator.free(dsns[:1])

    def test_is_allocated(self, allocator):
        dsns = allocator.allocate(4)
        assert allocator.is_allocated(dsns[0])
        allocator.free(dsns)
        assert not allocator.is_allocated(dsns[0])

    def test_channel_allocated(self, allocator):
        allocator.allocate(8)
        assert allocator.channel_allocated(0) == 2


class TestSpecificReservations:
    def test_reserve_specific(self, allocator):
        dsn = allocator.free_dsns_in_rank((1, 1))[0]
        allocator.reserve_specific(dsn)
        assert allocator.is_allocated(dsn)

    def test_reserve_allocated_rejected(self, allocator):
        dsns = allocator.allocate(4)
        with pytest.raises(AllocationError):
            allocator.reserve_specific(dsns[0])

    def test_allocate_in_rank(self, allocator):
        dsns = allocator.allocate_in_rank((2, 3), 5)
        assert len(dsns) == 5
        assert all(allocator.rank_of_dsn(dsn) == (2, 3) for dsn in dsns)

    def test_allocate_in_rank_capacity(self, allocator):
        with pytest.raises(AllocationError):
            allocator.allocate_in_rank((2, 3), 33)

    def test_move_allocation(self, allocator):
        old = allocator.allocate_in_rank((0, 0), 1)[0]
        new = allocator.allocate_in_rank((0, 1), 1)[0]
        allocator.move_allocation(old, new)
        assert not allocator.is_allocated(old)
        assert allocator.is_allocated(new)

    @pytest.mark.parametrize("role", [RankRole.FENCED, RankRole.PARKED,
                                      RankRole.RETIRED])
    def test_closed_rank_takes_no_data(self, allocator, role):
        allocator.set_role([(1, 1)], role)
        free = allocator.free_dsns_in_rank((1, 1))
        with pytest.raises(AllocationError, match=role.value):
            allocator.allocate_in_rank((1, 1), 1)
        with pytest.raises(AllocationError, match=role.value):
            allocator.reserve_specific(free[0])
        other = allocator.free_dsns_in_rank((1, 0))[0]
        with pytest.raises(AllocationError, match=role.value):
            allocator.reserve_batch([other, free[0]])
        assert allocator.is_allocated(other)  # reserved before the refusal
        assert allocator.usage((1, 1)).allocated == 0
        assert (1, 1) not in allocator.open_ranks()

    def test_move_to_unreserved_rejected(self, allocator):
        old = allocator.allocate_in_rank((0, 0), 1)[0]
        free = allocator.free_dsns_in_rank((0, 1))[0]
        with pytest.raises(AllocationError):
            allocator.move_allocation(old, free)


class TestConservation:
    @given(st.lists(st.sampled_from(["alloc", "free"]), min_size=1,
                    max_size=30))
    @settings(max_examples=25)
    def test_allocated_plus_free_is_constant(self, ops):
        allocator = SegmentAllocator(DramGeometry(ranks_per_channel=4,
                                                  rank_bytes=64 * MIB))
        total = allocator.free_count()
        live: list[int] = []
        for op in ops:
            if op == "alloc":
                try:
                    live.extend(allocator.allocate(4))
                except AllocationError:
                    pass
            elif live:
                allocator.free([live.pop()])
            assert allocator.allocated_count() + allocator.free_count() \
                == total


class TestPark:
    def test_park_closes_and_transitions(self, allocator):
        device = DramDevice(geometry=allocator.geometry)
        allocator.park(device, [(0, 3), (1, 3)], PowerState.MPSM, 1)
        assert allocator.role((0, 3)) is RankRole.PARKED
        assert device.rank(1, 3).state is PowerState.MPSM
        allocator.park(device, [(2, 3)], PowerState.MPSM, 1,
                       role=RankRole.RETIRED)
        assert allocator.role((2, 3)) is RankRole.RETIRED

    def test_park_refuses_a_rank_holding_data(self, allocator):
        device = DramDevice(geometry=allocator.geometry)
        allocator.allocate_in_rank((0, 1), 1)
        with pytest.raises(PowerStateError, match="holds 1 allocated"):
            allocator.park(device, [(0, 0), (0, 1)], PowerState.MPSM, 1)
        assert allocator.open_ranks() == set(device.ranks)
        assert device.state_counts()[PowerState.MPSM] == 0
