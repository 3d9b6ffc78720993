"""Tests for transparent rank retirement (the reliability extension)."""

import pytest

from repro.core.allocator import RankRole
from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.errors import AllocationError, PowerStateError
from repro.units import GIB, MIB, s_to_ns


@pytest.fixture
def controller():
    return DtlController(DtlConfig(
        geometry=DramGeometry(rank_bytes=256 * MIB), au_bytes=64 * MIB))


class TestBasicRetirement:
    def test_retire_idle_rank(self, controller):
        record = controller.retire_rank(0, 7)
        assert record.migrated_segments == 0
        assert controller.device.rank(0, 7).state is PowerState.MPSM
        assert controller.allocator.role((0, 7)) is RankRole.RETIRED

    def test_retire_powered_down_rank(self, controller):
        vm = controller.allocate_vm(0, 256 * MIB)
        # Parks idle rank-groups.
        controller.deallocate_vm(vm, now_ns=s_to_ns(1.0))
        mpsm_rank = next(rank_id for rank_id, rank
                         in controller.device.ranks.items()
                         if rank.state is PowerState.MPSM)
        record = controller.retire_rank(*mpsm_rank, now_ns=s_to_ns(2.0))
        assert record.was_powered_down
        assert record.migrated_segments == 0

    def test_double_retire_rejected(self, controller):
        controller.retire_rank(0, 7)
        with pytest.raises(PowerStateError):
            controller.retire_rank(0, 7)

    def test_usable_capacity_shrinks(self, controller):
        before = controller.retirement.usable_bytes()
        controller.retire_rank(0, 7)
        assert controller.retirement.usable_bytes() == before - 256 * MIB

    def test_requires_power_down_policy(self):
        bare = DtlController(DtlConfig(
            geometry=DramGeometry(rank_bytes=256 * MIB), au_bytes=64 * MIB,
            enable_power_down=False))
        with pytest.raises(AllocationError):
            bare.retire_rank(0, 0)


class TestDataEvacuation:
    def test_live_data_survives(self, controller):
        vm = controller.allocate_vm(0, 512 * MIB)
        # Find a rank actually holding VM data.
        target = next(rank_id for rank_id in controller.device.ranks
                      if controller.allocator.usage(rank_id).allocated > 0)
        hsns = [controller.tables.hsn_of_dsn(dsn) for dsn in
                controller.allocator.allocated_in_rank(target)]
        record = controller.retire_rank(*target, now_ns=s_to_ns(1.0))
        assert record.migrated_segments == len(hsns)
        assert record.migrated_bytes == len(hsns) * 2 * MIB
        # Every evacuated segment is still mapped, on the same channel,
        # and off the retired rank.
        for hsn in hsns:
            dsn = controller.tables.walk(hsn).dsn
            rank_id = controller.allocator.rank_of_dsn(dsn)
            assert rank_id != target
            assert rank_id[0] == target[0]

    def test_accesses_after_retirement_avoid_rank(self, controller):
        vm = controller.allocate_vm(0, 512 * MIB)
        target = next(rank_id for rank_id in controller.device.ranks
                      if controller.allocator.usage(rank_id).allocated > 0)
        controller.retire_rank(*target, now_ns=s_to_ns(1.0))
        for au_index in vm.au_ids:
            for offset in range(0, 16, 4):
                result = controller.access(
                    0, controller.hpa_of(au_index, offset))
                assert (result.channel, result.rank) != target

    def test_evacuation_wakes_capacity_if_needed(self, controller):
        """A full channel wakes a powered-down rank to absorb the data."""
        vm = controller.allocate_vm(0, 1 * GIB, now_ns=0)
        controller.power_down.maybe_power_down(s_to_ns(0.5))
        target = next(rank_id for rank_id in controller.device.ranks
                      if controller.allocator.usage(rank_id).allocated > 0)
        record = controller.retire_rank(*target, now_ns=s_to_ns(1.0))
        assert record.migrated_segments > 0
        # Reserved memory is intact.
        assert controller.reserved_bytes() == 1 * GIB


class TestFencing:
    def test_retired_rank_never_reactivates(self, controller):
        controller.retire_rank(0, 7, now_ns=0)
        # Fill the device to force every reactivation possible.
        controller.allocate_vm(0, 7 * GIB, now_ns=s_to_ns(1.0))
        assert controller.device.rank(0, 7).state is PowerState.MPSM
        assert controller.allocator.usage((0, 7)).allocated == 0

    def test_new_allocations_skip_retired_rank(self, controller):
        controller.retire_rank(1, 3, now_ns=0)
        vm = controller.allocate_vm(0, 2 * GIB, now_ns=s_to_ns(1.0))
        assert controller.allocator.usage((1, 3)).allocated == 0

    def test_over_capacity_with_retired_ranks(self, controller):
        """Retiring a rank genuinely shrinks what the device can hold."""
        controller.retire_rank(0, 7, now_ns=0)
        with pytest.raises(AllocationError):
            # 8 GiB device minus one 256 MiB rank cannot hold 8 GiB;
            # channel 0 runs out first.
            controller.allocate_vm(0, 8 * GIB, now_ns=s_to_ns(1.0))

    def test_quarantine_visible_in_policy(self, controller):
        controller.retire_rank(2, 5)
        assert controller.allocator.role((2, 5)) is RankRole.RETIRED
        assert (2, 5) not in controller.allocator.open_ranks()
