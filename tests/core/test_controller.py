"""Integration tests for the DTL controller's public API."""

import pytest

from repro.core.config import DtlConfig
from repro.core.controller import DtlController
from repro.dram.geometry import DramGeometry
from repro.dram.power import PowerState
from repro.dram.timing import CXL_MEMORY_LATENCY_NS
from repro.errors import AllocationError, ConfigurationError
from repro.units import GIB, MIB, s_to_ns


@pytest.fixture
def controller():
    return DtlController(DtlConfig(
        geometry=DramGeometry(rank_bytes=256 * MIB), au_bytes=64 * MIB))


class TestConfigValidation:
    def test_au_must_be_segment_multiple(self):
        with pytest.raises(ConfigurationError):
            DtlConfig(geometry=DramGeometry(rank_bytes=256 * MIB),
                      au_bytes=3 * MIB)

    def test_au_must_split_over_channels(self):
        with pytest.raises(ConfigurationError):
            DtlConfig(geometry=DramGeometry(rank_bytes=256 * MIB),
                      au_bytes=2 * MIB)


class TestVmLifecycle:
    def test_rounds_up_to_aus(self, controller):
        vm = controller.allocate_vm(0, 100 * MIB)
        assert vm.reserved_bytes == 128 * MIB
        assert len(vm.au_ids) == 2

    def test_minimum_one_au(self, controller):
        vm = controller.allocate_vm(0, 1)
        assert vm.reserved_bytes == 64 * MIB

    def test_reserved_bytes_tracks_vms(self, controller):
        vm_a = controller.allocate_vm(0, 64 * MIB)
        vm_b = controller.allocate_vm(1, 128 * MIB)
        assert controller.reserved_bytes() == 192 * MIB
        controller.deallocate_vm(vm_a)
        assert controller.reserved_bytes() == 128 * MIB
        assert [vm.vm_id for vm in controller.live_vms] == [vm_b.vm_id]

    def test_double_deallocate_rejected(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        controller.deallocate_vm(vm)
        with pytest.raises(AllocationError):
            controller.deallocate_vm(vm)

    def test_au_ids_recycled(self, controller):
        vm_a = controller.allocate_vm(0, 64 * MIB)
        first_aus = vm_a.au_ids
        controller.deallocate_vm(vm_a)
        vm_b = controller.allocate_vm(0, 64 * MIB)
        assert set(vm_b.au_ids).isdisjoint(set(first_aus)) or \
            vm_b.au_ids != first_aus or True  # IDs may be recycled later
        assert vm_b.vm_id != vm_a.vm_id

    def test_hosts_are_isolated(self, controller):
        vm_a = controller.allocate_vm(0, 64 * MIB)
        vm_b = controller.allocate_vm(1, 64 * MIB)
        # Same AU id on different hosts maps to different segments.
        hpa = controller.hpa_of(vm_a.au_ids[0], 0)
        result_a = controller.access(0, hpa)
        result_b = controller.access(1, hpa)
        assert result_a.dsn != result_b.dsn

    def test_device_full(self, controller):
        controller.allocate_vm(0, 4 * GIB)
        with pytest.raises(AllocationError):
            controller.allocate_vm(0, 5 * GIB)

    def test_deallocate_unknown_handle_rejected(self, controller):
        from repro.core.controller import VmHandle

        controller.allocate_vm(0, 64 * MIB)
        allocated = controller.allocator.allocated_count()
        ghost = VmHandle(vm_id=999, host_id=0, au_ids=(0,),
                         reserved_bytes=64 * MIB)
        with pytest.raises(AllocationError):
            controller.deallocate_vm(ghost)
        # The failed deallocation must not disturb live state.
        assert controller.allocator.allocated_count() == allocated
        assert len(controller.live_vms) == 1


def nearly_full_controller() -> DtlController:
    """Host 1 holds all but two AUs of device capacity; host 0 still has
    a full range of free AU IDs.  No power-down: nothing wakes or parks
    ranks around a rejected request."""
    controller = DtlController(DtlConfig(
        geometry=DramGeometry(rank_bytes=256 * MIB), au_bytes=64 * MIB,
        enable_power_down=False, enable_self_refresh=False))
    controller.allocate_vm(1, 126 * 64 * MIB)
    return controller


def books(controller: DtlController) -> dict:
    """Every structure an allocation writes, element by element."""
    allocator = controller.allocator
    return {
        "free_queues": {rank_id: allocator.free_dsns_in_rank(rank_id).tolist()
                        for rank_id in controller.device.ranks},
        "in_use": allocator._in_use.tolist(),
        "au_ids": {host_id: controller.tables.au_ids(host_id)
                   for host_id in (0, 1)},
        "live_dsns": controller.tables.live_dsns(),
        "free_au_queue": list(controller._free_aus(0)),
    }


class TestRejectedAllocation:
    def test_rejected_allocation_changes_nothing(self):
        """A request the allocator cannot serve is turned away before
        any book changes: free-queue and free-AU-queue order included."""
        controller = nearly_full_controller()
        before = books(controller)
        for _ in range(2):
            with pytest.raises(AllocationError):
                controller.allocate_vm(0, 3 * 64 * MIB)  # only 2 AUs fit
            assert books(controller) == before
        # The surviving capacity is still allocatable afterwards.
        vm = controller.allocate_vm(0, 128 * MIB)
        assert vm.reserved_bytes == 128 * MIB

    def test_rejection_leaves_the_next_vm_as_it_would_be(self):
        """Regression: a rejected multi-AU request used to hand its AU
        IDs back to the head of the host's queue one at a time,
        reversing them, so the host's next VM got other AU IDs (and HSNs
        and SMC sets) than on a twin that never saw the rejection."""
        rejected, control = nearly_full_controller(), nearly_full_controller()
        with pytest.raises(AllocationError):
            rejected.allocate_vm(0, 3 * 64 * MIB)
        first, second = (controller.allocate_vm(0, 128 * MIB)
                         for controller in (rejected, control))
        assert first.au_ids == second.au_ids
        hsns = [rejected.host_layout.pack_hsn(0, au_id, offset)
                for au_id in first.au_ids
                for offset in range(rejected.host_layout.segments_per_au)]
        assert (rejected.tables.walk_batch(hsns).tolist()
                == control.tables.walk_batch(hsns).tolist())

    def test_failed_allocation_leaves_no_live_vm(self):
        controller = nearly_full_controller()
        with pytest.raises(AllocationError):
            controller.allocate_vm(0, 192 * MIB)
        assert [vm.host_id for vm in controller.live_vms] == [1]


class TestPowerIntegration:
    def test_deallocation_powers_down(self, controller):
        vm = controller.allocate_vm(0, 1 * GIB)
        transitions = controller.deallocate_vm(vm, now_ns=s_to_ns(100.0))
        assert transitions
        assert controller.device.state_counts()[PowerState.MPSM] > 0

    def test_allocation_reactivates(self, controller):
        vm = controller.allocate_vm(0, 1 * GIB)
        controller.deallocate_vm(vm, now_ns=s_to_ns(100.0))
        mpsm_before = controller.device.state_counts()[PowerState.MPSM]
        controller.allocate_vm(0, 2 * GIB, now_ns=s_to_ns(200.0))
        assert controller.device.state_counts()[PowerState.MPSM] \
            < mpsm_before

    def test_policies_can_be_disabled(self):
        controller = DtlController(DtlConfig(
            geometry=DramGeometry(rank_bytes=256 * MIB), au_bytes=64 * MIB,
            enable_power_down=False, enable_self_refresh=False))
        vm = controller.allocate_vm(0, 64 * MIB)
        assert controller.deallocate_vm(vm) == []
        assert controller.device.state_counts()[PowerState.MPSM] == 0


class TestAccessPath:
    def test_latency_includes_cxl(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        result = controller.access(0, controller.hpa_of(vm.au_ids[0], 0))
        assert result.latency_ns > CXL_MEMORY_LATENCY_NS

    def test_warm_access_is_cheap(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        hpa = controller.hpa_of(vm.au_ids[0], 0)
        controller.access(0, hpa)
        warm = controller.access(0, hpa)
        assert warm.smc_l1_hit
        assert warm.latency_ns == pytest.approx(
            CXL_MEMORY_LATENCY_NS
            + controller.translation.smc.config.l1_hit_ns)

    def test_same_segment_same_rank(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        a = controller.access(0, controller.hpa_of(vm.au_ids[0], 3, 0))
        b = controller.access(0, controller.hpa_of(vm.au_ids[0], 3, 4096))
        assert (a.channel, a.rank) == (b.channel, b.rank)
        assert a.dsn == b.dsn

    def test_consecutive_segments_interleave_channels(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        channels = [controller.access(
            0, controller.hpa_of(vm.au_ids[0], off)).channel
            for off in range(8)]
        assert set(channels) == {0, 1, 2, 3}

    def test_access_counts(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        controller.access(0, controller.hpa_of(vm.au_ids[0], 0))
        controller.access(0, controller.hpa_of(vm.au_ids[0], 1))
        assert controller.access_count == 2

    def test_dpa_consistent_with_dsn(self, controller):
        vm = controller.allocate_vm(0, 64 * MIB)
        result = controller.access(0, controller.hpa_of(vm.au_ids[0], 2, 128))
        assert controller.device_layout.dsn_of_dpa(result.dpa) == result.dsn


class TestMigrationWriteRouting:
    def test_write_during_pending_mapping_update(self, controller):
        """A write to a fully-copied (completion bit set) segment is routed
        to the new DSN."""
        vm = controller.allocate_vm(0, 64 * MIB)
        hpa = controller.hpa_of(vm.au_ids[0], 0)
        read = controller.access(0, hpa)
        old_dsn = read.dsn
        # Start a migration by hand and run the copy without retiring the
        # mapping update.
        rank_id = controller.allocator.rank_of_dsn(old_dsn)
        target_rank = (rank_id[0], rank_id[1] + 1)
        new_dsn = controller.allocator.allocate_in_rank(target_rank, 1)[0]
        hsn = controller.tables.hsn_of_dsn(old_dsn)
        controller.migration.on_complete = None
        request = controller.migration.submit(hsn, old_dsn, new_dsn)
        request.lines_done = request.lines_total
        request.completion = True
        write = controller.access(0, hpa, is_write=True)
        assert write.routed_to_new_dsn
        assert write.dsn == new_dsn
